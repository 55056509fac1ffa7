//! In-memory span recording for the traced run.
//!
//! Spans are recorded from outside the simulator, around calls into each
//! layer's public API: name, start, end and the enclosing span. They stay
//! in memory until the run ends and are then written once as Chrome
//! trace-event JSON. A layer's self time is its spans' durations minus the
//! part of each interval that child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `engine` for one `run_until` timeslice.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. A disabled recorder ignores every call, so untraced
/// runs pay one branch per call site.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span, returning its duration in ns.
    pub fn close(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let t = self.now_ns();
        let ix = self.stack.pop().expect("close without open");
        let s = &mut self.spans[ix];
        s.end_ns = t;
        s.duration_ns()
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Render the spans as a Chrome trace-event document (`X` events on one
    /// thread, microsecond timestamps), loadable in Perfetto.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Children of every span, by parent index.
fn children(spans: &[Span]) -> Vec<Vec<(u64, u64)>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    kids
}

/// Self time per span name, in ns: each span's duration minus the part of
/// it its direct children cover, summed over spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut kids = children(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let inner = covered(s.start_ns, s.end_ns, &mut kids[i]);
        *out.entry(s.name).or_insert(0) += s.duration_ns() - inner;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 15), (0, 10), (20, 30), (25, 40)];
        assert_eq!(covered(0, 35, &mut iv), 15 + 15);
        let mut none: Vec<(u64, u64)> = Vec::new();
        assert_eq!(covered(0, 10, &mut none), 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        s.open("a");
        assert_eq!(s.close(), 0);
        assert_eq!(s.time("b", || 7), 7);
        assert!(s.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut s = Spans::new(true);
        s.open("root");
        s.time("child", || ());
        s.close();
        let v = s.spans();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].parent, None);
        assert_eq!(v[1].parent, Some(0));
        assert!(v[1].start_ns >= v[0].start_ns && v[1].end_ns <= v[0].end_ns);
        assert!(storm::telemetry::validate_json(&s.chrome_json()).is_ok());
    }
}
