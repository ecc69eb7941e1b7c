//! Spans recorded by the benchmark around its calls into the program.
//!
//! Spans live in memory (name, start, end, parent, verdict id) and are
//! written out once, when the run ends. A span the benchmark timed
//! itself covers a real interval; a span built from a duration the
//! program reports (a profile phase, a daemon trace phase) is laid
//! inside its parent by the caller. A layer's self time is its span
//! time minus the part of that interval its child spans cover; summed
//! over every span it equals the root time exactly when children nest
//! inside their parents without overlap, so the difference measures how
//! far the attribution is off.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The verdict (script, batch, edit or request) the span served.
    pub verdict: u64,
}

/// An in-memory span store with one time origin.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start_ns, end_ns]` and returns the span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        verdict: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            verdict,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, verdict: u64) -> usize {
        let now = self.now();
        self.record(name, parent, verdict, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Number of spans recorded so far (the next span's id).
    pub fn spans_len(&self) -> usize {
        self.spans.len()
    }

    /// Start of a recorded span (ns since the epoch).
    pub fn start_of(&self, id: usize) -> u64 {
        self.spans[id].start_ns
    }

    /// Runs `f` inside a span and returns the span's id with the result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        verdict: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (self.record(name, parent, verdict, start, end), out)
    }

    /// Lays program-reported durations end to end inside `parent`,
    /// starting at `start_ns`; returns where the last one ended.
    pub fn lay_out(&mut self, parent: usize, start_ns: u64, parts: &[(&'static str, f64)]) -> u64 {
        let verdict = self.spans[parent].verdict;
        let mut at = start_ns;
        for &(name, ms) in parts {
            let end = at + (ms.max(0.0) * 1e6) as u64;
            self.record(name, Some(parent), verdict, at, end);
            at = end;
        }
        at
    }

    /// Self time per span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut iv: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                .collect();
            let covered = union_len(&mut iv);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Total time of the root spans, in milliseconds.
    pub fn root_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// `|sum of self times - root time| / root time`: 0 when every child
    /// nests in its parent and no two children overlap.
    pub fn accounting_error(&self) -> f64 {
        let root = self.root_ms();
        let accounted: f64 = self.self_ms().values().sum();
        crate::stats::ratio((accounted - root).abs(), root)
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"verdict\":{}}}\n",
                s.name, s.start_ns, s.end_ns, parent, s.verdict
            ));
        }
        out
    }
}

/// Length of the union of intervals (sorts `iv` in place).
fn union_len(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in iv.iter() {
        match cur {
            Some((s, e)) if a <= e => cur = Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new();
        let root = t.record("root", None, 0, 0, 100);
        t.record("a", Some(root), 0, 10, 40);
        t.record("b", Some(root), 0, 30, 50); // overlaps a by 10
        let s = t.self_ms();
        assert_eq!(s["root"] * 1e6, 60.0);
        assert_eq!(s["a"] * 1e6, 30.0);
        assert_eq!(s["b"] * 1e6, 20.0);
        // The overlap is counted twice, so the accounting is off by it.
        assert!((t.accounting_error() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn nested_spans_account_exactly() {
        let mut t = Tracer::new();
        let root = t.record("root", None, 7, 0, 1_000_000);
        let end = t.lay_out(root, 100_000, &[("x", 0.2), ("y", 0.3)]);
        assert_eq!(end, 600_000);
        let s = t.self_ms();
        assert!((s["root"] - 0.5).abs() < 1e-9);
        assert!(t.accounting_error() < 1e-12);
        assert!(t.to_jsonl().contains("\"verdict\":7"));
    }

    #[test]
    fn union_merges_touching_and_nested_intervals() {
        assert_eq!(union_len(&mut [(0, 10), (10, 20), (2, 5)]), 20);
        assert_eq!(union_len(&mut [(5, 6), (0, 1)]), 2);
        assert_eq!(union_len(&mut []), 0);
    }
}
