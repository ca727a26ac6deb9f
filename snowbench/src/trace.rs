//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented: the benchmark calls each
//! stage's public function itself and brackets the call. Spans stay in
//! memory until the run ends; a span's self time is its duration minus the
//! part of it that its child spans cover.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Index of the statement execution this span belongs to.
    pub stmt: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct Tracer {
    /// Off for the end-to-end runs: `enter` and `exit` then record nothing.
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    stmt: u32,
    /// Human-readable label of every statement execution, by `Span::stmt`.
    labels: Vec<String>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            stmt: 0,
            labels: Vec::new(),
        }
    }

    /// Starts a new statement execution; spans entered from now on carry it.
    pub fn begin_statement(&mut self, label: &str) {
        if !self.enabled {
            return;
        }
        self.stmt = self.labels.len() as u32;
        self.labels.push(label.to_string());
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(u32::MAX);
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            stmt: self.stmt,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close in the order they opened");
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = now;
        span.dur_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the first `limit` spans, one JSON object per line: ids,
    /// statement label, name, start, end and self time.
    pub fn dump(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        let spans = &self.spans[..limit.min(self.spans.len())];
        let selfs = self_times(spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{},"parent":{},"stmt":{},"statement":{:?},"name":{:?},"start_ns":{},"end_ns":{},"self_ns":{}}}"#,
                s.id,
                parent,
                s.stmt,
                self.labels[s.stmt as usize],
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns
            )?;
        }
        w.flush()
    }
}

/// Self time of every span, in the order given: its duration minus the part
/// of its interval covered by the union of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index_of: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.as_ref().and_then(|p| index_of.get(p)) {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            stmt: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 160), // overlaps span 1 by 10
            span(3, Some(0), 190, 250), // overhangs the parent by 50
            span(4, Some(0), 120, 130), // inside span 1
        ];
        // covered: 110..160 (50) + 190..200 (10) = 60
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_spans_and_labels_statements() {
        let mut t = Tracer::new(true);
        t.begin_statement("a");
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        t.begin_statement("b");
        let solo = t.enter("solo");
        t.exit(solo);
        let s = t.spans();
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].stmt, s[1].stmt, s[2].stmt), (0, 0, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = self_times(s);
        assert_eq!(selfs[0], s[0].dur_ns() - s[1].dur_ns());

        let mut off = Tracer::new(false);
        off.begin_statement("a");
        let o = off.enter("outer");
        assert_eq!(off.exit(o), 0);
        assert!(off.spans().is_empty());
    }
}
