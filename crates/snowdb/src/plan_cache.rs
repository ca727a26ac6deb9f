//! The plan cache: one bounded map from a statement text, and whether the
//! optimizer runs, to the logical plan it compiled to. The one text entry
//! point, `StatementCtx::run_text`, looks here before it parses;
//! `Database::compile`, `EXPLAIN`, `EXPLAIN ANALYZE`, `execute_statement` and
//! the verification lattice never do, so they always measure and referee a
//! cold compile.
//!
//! A plan depends on its text, the `optimize` flag and the tables the binder
//! resolved, and on nothing else: the binder reaches the catalog only through
//! [`Catalog`], the optimizer reads the bound plan and the statistics inside
//! each `Arc<Table>`, no function reads the clock or randomness, session
//! parameters only arm the governor, and threads, kernels and encoding act at
//! `lower` and after. So an entry records every lookup the binder made — the
//! name and the answer — and a hit is used only when replaying them against
//! the statement's own snapshot gives the very same answers: the
//! pointer-identical `Arc<Table>`, or still none. An entry holds its `Arc`s
//! strongly, so no other table can appear at a recorded address. A plan
//! that reached into history (`AT`/`BEFORE`) or failed is never stored.
//! DESIGN.md, "Plan cache", has the argument.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::catalog::CatalogSnapshot;
use crate::engine::StageTimes;
use crate::error::Result;
use crate::plan::{Catalog, Node};
use crate::sql::ast::{Query, Travel};
use crate::storage::Table;

/// Entries kept; the least recently used goes first. A stale entry is
/// replaced the next time its text misses, and until then retains the
/// partition metadata (for an in-memory table, the partitions) of the tables
/// it recorded — never a store version pin.
pub(crate) const CAPACITY: usize = 256;

/// One table lookup the binder made, and its answer.
struct Lookup {
    name: String,
    table: Option<Arc<Table>>,
}

impl Lookup {
    /// Whether `cat` answers this lookup as it was answered at compile time.
    fn holds(&self, cat: &CatalogSnapshot) -> bool {
        match (&self.table, cat.table(&self.name)) {
            (Some(then), Some(now)) => Arc::ptr_eq(then, &now),
            (None, None) => true,
            _ => false,
        }
    }
}

struct Entry {
    plan: Arc<Node>,
    lookups: Vec<Lookup>,
    /// Tick of the last insert or hit, for least-recently-used eviction.
    used: u64,
}

#[derive(Default)]
pub(crate) struct PlanCache {
    inner: Mutex<Entries>,
}

#[derive(Default)]
struct Entries {
    /// Text → its entry without and with the optimizer (indexed by the flag).
    map: HashMap<String, [Option<Entry>; 2]>,
    len: usize,
    tick: u64,
}

impl PlanCache {
    /// The plan cached for `sql` under `optimize`, if every table lookup it
    /// recorded answers the same on `cat`.
    pub(crate) fn get(
        &self,
        cat: &CatalogSnapshot,
        sql: &str,
        optimize: bool,
    ) -> Option<Arc<Node>> {
        let mut e = self.inner.lock();
        e.tick += 1;
        let tick = e.tick;
        let entry = e.map.get_mut(sql)?[usize::from(optimize)].as_mut()?;
        if !entry.lookups.iter().all(|l| l.holds(cat)) {
            return None;
        }
        entry.used = tick;
        Some(entry.plan.clone())
    }

    /// Binds `query`, parsed from `sql`, through `catalog`, optimizes it when
    /// asked (recording both stages), and keeps the plan unless the binder
    /// reached into history.
    pub(crate) fn compile(
        &self,
        catalog: &dyn Catalog,
        sql: &str,
        query: &Query,
        optimize: bool,
        stages: &mut StageTimes,
    ) -> Result<Arc<Node>> {
        let recorder =
            Recorder { inner: catalog, lookups: RefCell::default(), travel: Cell::new(false) };
        let plan = Arc::new(crate::engine::compile_query(&recorder, query, optimize, stages)?);
        if !recorder.travel.get() {
            self.insert(sql, optimize, plan.clone(), recorder.lookups.into_inner());
        }
        Ok(plan)
    }

    fn insert(&self, sql: &str, optimize: bool, plan: Arc<Node>, lookups: Vec<Lookup>) {
        let mut e = self.inner.lock();
        e.tick += 1;
        let entry = Entry { plan, lookups, used: e.tick };
        let slot = &mut e.map.entry(sql.to_string()).or_default()[usize::from(optimize)];
        if slot.replace(entry).is_none() {
            e.len += 1;
            if e.len > CAPACITY {
                e.evict_least_recent();
            }
        }
    }

    /// Number of cached plans.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner.lock().len
    }
}

impl Entries {
    fn evict_least_recent(&mut self) {
        let victim = self
            .map
            .iter()
            .flat_map(|(text, slots)| {
                let indexed = slots.iter().enumerate();
                indexed.filter_map(move |(i, s)| Some((s.as_ref()?.used, text, i)))
            })
            .min()
            .map(|(_, text, i)| (text.clone(), i));
        let Some((text, i)) = victim else { return };
        let slots = self.map.get_mut(&text).expect("the victim is cached");
        slots[i] = None;
        if slots.iter().all(Option::is_none) {
            self.map.remove(&text);
        }
        self.len -= 1;
    }
}

/// The binder's catalog while a text entry point compiles: answers through
/// `inner` and writes every plain lookup down; a historical one only marks
/// the plan as not to be stored.
struct Recorder<'a> {
    inner: &'a dyn Catalog,
    lookups: RefCell<Vec<Lookup>>,
    travel: Cell<bool>,
}

impl Catalog for Recorder<'_> {
    fn table(&self, name: &str) -> Option<Arc<Table>> {
        let table = self.inner.table(name);
        self.lookups.borrow_mut().push(Lookup { name: name.to_string(), table: table.clone() });
        table
    }

    fn table_at(&self, name: &str, travel: &Travel) -> Result<Arc<Table>> {
        self.travel.set(true);
        self.inner.table_at(name, travel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{TableWrite, WriteSet};
    use crate::sql::parse_query;
    use crate::storage::{ColumnDef, ColumnType};

    fn table(name: &str) -> Arc<Table> {
        Arc::new(Table::from_parts(
            name.to_string(),
            vec![ColumnDef::new("X", ColumnType::Int)],
            Vec::new(),
        ))
    }

    fn with(cat: &CatalogSnapshot, name: &str, write: TableWrite) -> CatalogSnapshot {
        cat.apply(cat.version(), &WriteSet::single(name, write)).unwrap()
    }

    fn put(cat: &CatalogSnapshot, name: &str) -> CatalogSnapshot {
        with(cat, name, TableWrite::Put { table: table(name), expect_absent: false })
    }

    fn compile(cache: &PlanCache, cat: &CatalogSnapshot, sql: &str, optimize: bool) -> Arc<Node> {
        let stages = &mut StageTimes::default();
        cache.compile(cat, sql, &parse_query(sql).unwrap(), optimize, stages).unwrap()
    }

    const Q: &str = "SELECT X FROM a";

    #[test]
    fn a_hit_needs_the_same_table_allocation() {
        let cache = PlanCache::default();
        let v1 = put(&put(&CatalogSnapshot::default(), "A"), "B");
        let plan = compile(&cache, &v1, Q, true);
        assert!(Arc::ptr_eq(&cache.get(&v1, Q, true).unwrap(), &plan));
        // A commit to another table keeps `A`'s `Arc`: still a hit.
        let v2 = put(&v1, "B");
        assert!(cache.get(&v2, Q, true).is_some());
        // A new `A`, even with the same name and schema, misses.
        let v3 = put(&v2, "A");
        assert!(cache.get(&v3, Q, true).is_none());
        assert!(cache.get(&with(&v3, "A", TableWrite::Drop), Q, true).is_none());
        // ... and the old snapshot still hits: the entry is stale, not gone.
        assert!(cache.get(&v2, Q, true).is_some());
        // The next miss replaces it.
        compile(&cache, &v3, Q, true);
        assert!(cache.get(&v3, Q, true).is_some());
        assert!(cache.get(&v2, Q, true).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn the_optimizer_flag_is_part_of_the_key() {
        let cache = PlanCache::default();
        let v1 = put(&CatalogSnapshot::default(), "A");
        compile(&cache, &v1, Q, false);
        assert!(cache.get(&v1, Q, true).is_none());
        assert!(cache.get(&v1, Q, false).is_some());
        compile(&cache, &v1, Q, true);
        assert_eq!(cache.len(), 2);
    }

    /// A catalog that answers `AT`/`BEFORE` with the current table.
    struct Travels<'a>(&'a CatalogSnapshot);

    impl Catalog for Travels<'_> {
        fn table(&self, name: &str) -> Option<Arc<Table>> {
            self.0.table(name)
        }

        fn table_at(&self, name: &str, _: &Travel) -> Result<Arc<Table>> {
            Ok(self.0.table(name).expect("exists"))
        }
    }

    #[test]
    fn errors_and_time_travel_are_never_stored() {
        let cache = PlanCache::default();
        let v1 = put(&CatalogSnapshot::default(), "A");
        let (missing, stages) = ("SELECT X FROM nowhere", &mut StageTimes::default());
        assert!(cache.compile(&v1, missing, &parse_query(missing).unwrap(), true, stages).is_err());
        let travel = "SELECT X FROM a AT(VERSION => 1)";
        let parsed = parse_query(travel).unwrap();
        assert!(cache.compile(&Travels(&v1), travel, &parsed, true, stages).is_ok());
        assert!(cache.get(&v1, travel, true).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn the_least_recently_used_entry_goes_first() {
        let cache = PlanCache::default();
        let v1 = put(&CatalogSnapshot::default(), "A");
        let text = |i: usize| format!("SELECT X + {i} FROM a");
        for i in 0..CAPACITY {
            compile(&cache, &v1, &text(i), true);
        }
        // Touch the oldest, then overflow by one: the second oldest goes.
        assert!(cache.get(&v1, &text(0), true).is_some());
        compile(&cache, &v1, &text(CAPACITY), true);
        assert_eq!(cache.len(), CAPACITY);
        assert!(cache.get(&v1, &text(0), true).is_some());
        assert!(cache.get(&v1, &text(1), true).is_none());
        assert!(cache.get(&v1, &text(CAPACITY), true).is_some());
    }
}
