//! The benchmark's contract: workloads and metrics, by name. `BENCHMARK.json`
//! at the repo root lists the same names (a unit test compares the two).

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "adl_nested",
        why: "ADL q1-q8 on 8192 nested events in memory: time is FLATTEN/ARRAY_AGG/joins over Variant arrays, front end about 1%",
    },
    WorkloadSpec {
        name: "ssb_flat",
        why: "SSB q1.1-q4.3 on 32768 flat lineorders reopened from disk, cache fits: joins, dictionary kernels, pruning, no FLATTEN",
    },
    WorkloadSpec {
        name: "compile_small",
        why: "the same 21 query pairs on tiny tables with a fresh translator each: latency is translate, parse, bind and optimize",
    },
    WorkloadSpec {
        name: "wire_churn",
        why: "served disk database, cache a quarter of the table, compactor on: one closed-loop reader beside an open-loop INSERT writer",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: "lower",
        bound,
    }
}

/// What a user of the system sees, measured with tracing off. Every bound
/// is the largest the contract admits: between ten runs of one commit with
/// ten seeds the widest spreads seen were 8-10% (see README.md, "Noise"),
/// and a bound must be three times the spread to tell a change from luck.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", 0.25),
    e2e("jsoniq_ms_geomean", "ms", 0.25),
    e2e("jsoniq_suite_s", "s", 0.25),
    e2e("sql_ms_geomean", "ms", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
];

/// Per-layer metrics that are counts of a deterministic computation: they
/// must repeat bit-identically between runs with one seed, on every workload.
pub const EXACT: &[&str] = &[
    "bytes_scanned_mb",
    "jsoniq_core.expr.nodes",
    "jsoniq_core.itertree.iterators",
    "jsoniq_core.snowflake.sql_bytes",
    "snowpark.dataframe.select_depth",
    "snowdb.plan.bound_nodes",
    "snowdb.plan.phys_ops",
    "snowdb.optimize.nodes_out",
    "snowdb.exec.result_cells",
];

const fn low(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: "lower",
        bound: 0.0,
    }
}

const fn high(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: "higher",
        bound: 0.0,
    }
}

/// Single layers, from the traced run. A value of 0 on a workload means the
/// layer is not exercised there.
pub const PER_LAYER: &[MetricSpec] = &[
    low("jsoniq_core.lexer.us", "us"),
    low("jsoniq_core.parser.us", "us"),
    low("jsoniq_core.expr.us", "us"),
    low("jsoniq_core.expr.nodes", "count"),
    low("jsoniq_core.itertree.us", "us"),
    low("jsoniq_core.itertree.iterators", "count"),
    low("jsoniq_core.snowflake.us", "us"),
    low("jsoniq_core.snowflake.sql_bytes", "count"),
    low("snowpark.dataframe.select_depth", "count"),
    low("snowdb.sql.parse_us", "us"),
    low("snowdb.plan.bind_us", "us"),
    low("snowdb.plan.bound_nodes", "count"),
    low("snowdb.plan.lower_us", "us"),
    low("snowdb.plan.phys_ops", "count"),
    low("snowdb.optimize.us", "us"),
    low("snowdb.optimize.nodes_out", "count"),
    low("snowdb.exec.us", "us"),
    low("snowdb.exec.scan_busy_us", "us"),
    low("snowdb.exec.filter_busy_us", "us"),
    low("snowdb.exec.project_busy_us", "us"),
    low("snowdb.exec.flatten_busy_us", "us"),
    low("snowdb.exec.agg_busy_us", "us"),
    low("snowdb.exec.join_busy_us", "us"),
    low("snowdb.exec.sort_busy_us", "us"),
    high("snowdb.exec.vec_share", "ratio"),
    high("snowdb.exec.codes_share", "ratio"),
    low("snowdb.exec.peak_mem_mb", "MB"),
    low("snowdb.exec.into_rows_us", "us"),
    low("snowdb.exec.result_cells", "count"),
    low("snowdb.storage.bytes_scanned", "count"),
    high("snowdb.storage.bytes_skipped", "count"),
    high("snowdb.storage.pruned_share", "ratio"),
    low("snowdb.storage.rows_scanned_per_result_row", "ratio"),
    high("snowdb.storage.ingest_rows_per_s", "1/s"),
    low("snowdb.store.persist_us", "us"),
    low("snowdb.store.open_us", "us"),
    low("snowdb.store.cold_pass_ms", "ms"),
    high("snowdb.store.cache_hit_rate", "ratio"),
    low("snowdb.store.cache_evictions", "count"),
    low("snowdb.store.bytes_per_user_byte", "ratio"),
    high("snowdb.store.compact.merges", "count"),
    low("snowdb.store.compact.bytes_rewritten", "count"),
    low("snowdb.store.compact.conflicts_lost", "count"),
    low("snowdb.catalog.insert_us", "us"),
    low("snowdb.catalog.write_conflicts", "count"),
    low("snowdb.server.connect_us", "us"),
    low("snowdb.server.wire_overhead_us", "us"),
    low("snowdb.server.compile_us", "us"),
    low("snowdb.server.exec_us", "us"),
    low("snowdb.server.queued_ms", "ms"),
    low("snowdb.server.admission_rejected", "count"),
    high("snowdb.server.stream_cells_per_s", "1/s"),
    low("snowdb.server.writer_late_ms_p95", "ms"),
    low("bytes_scanned_mb", "MB"),
    low("read_tail_ratio_p95", "ratio"),
    low("write_ms_p50", "ms"),
    low("write_ms_p95", "ms"),
    low("failed_share", "ratio"),
    low("parity.adl_gen_over_hand", "ratio"),
    low("parity.ssb_gen_over_hand", "ratio"),
    high("trace.frontend_share", "ratio"),
    low("trace.overhead_share", "ratio"),
];

pub fn unit_and_direction(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or(("", ""), |m| (m.unit, m.better))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowdb::variant::parse_json;
    use snowdb::Variant;

    fn field<'a>(v: &'a Variant, key: &str) -> &'a Variant {
        v.as_object()
            .and_then(|o| o.get(key))
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn text(v: &Variant, key: &str) -> String {
        field(v, key)
            .as_str()
            .unwrap_or_else(|| panic!("{key} is not a string"))
            .to_string()
    }

    /// `BENCHMARK.json` is what the referee reads; the tables above are what
    /// the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .expect("BENCHMARK.json parses");
        let workloads: Vec<(String, String)> = field(&doc, "workloads")
            .as_array()
            .expect("workloads is a list")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = field(&doc, key)
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
                .collect();
            let expected: Vec<(String, String, String)> = specs
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        for (m, spec) in field(&doc, "end_to_end")
            .as_array()
            .expect("list")
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(
                field(m, "bound").as_f64(),
                Some(spec.bound),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
        {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(EXACT
            .iter()
            .all(|name| PER_LAYER.iter().any(|m| m.name == *name)));
    }
}
