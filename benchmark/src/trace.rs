//! Span recorder for the traced rep. Spans are opened and closed from
//! the benchmark's own code around its calls into the layers, kept in
//! memory, and written as a chrome://tracing file when the run ends.
//! A disabled tracer records nothing, so the untraced reps that the
//! end-to-end numbers come from pay one branch per call.

use std::time::Instant;

use crate::json::Value;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Shared by every span of one rep.
    pub rep: u64,
    /// Counts taken at the same boundary (events executed, pending …).
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    rep: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`]; `None` inside when disabled.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, t0: Instant::now(), rep: 0, spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans opened from now on carry this rep id.
    pub fn set_rep(&mut self, rep: u64) {
        self.rep = rep;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
            args: Vec::new(),
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        self.end_with(open, &[]);
    }

    pub fn end_with(&mut self, open: Open, args: &[(&'static str, f64)]) {
        let Some(idx) = open.0 else { return };
        let now = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "span {} closed out of order", self.spans[idx].name);
        self.spans[idx].end_ns = now;
        self.spans[idx].args.extend_from_slice(args);
    }

    /// Time a closure under a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let open = self.begin(name);
        let r = f(self);
        self.end(open);
        r
    }

    /// The chrome://tracing document: one complete ("X") event per span,
    /// microsecond timestamps, parent index and rep id in `args`.
    pub fn chrome_json(&self, workload: &str) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Value::obj()
                    .with("span", i)
                    .with("parent", s.parent.map_or(Value::Null, Value::from))
                    .with("rep", s.rep);
                for (k, v) in &s.args {
                    args.push(k, *v);
                }
                Value::obj()
                    .with("name", s.name)
                    .with("cat", workload)
                    .with("ph", "X")
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", s.dur_ns() as f64 / 1e3)
                    .with("pid", 1u64)
                    .with("tid", s.rep)
                    .with("args", args)
            })
            .collect::<Vec<_>>();
        Value::obj().with("displayTimeUnit", "ms").with("traceEvents", events)
    }
}

/// Total duration, in seconds, of the spans of one rep whose name is
/// `name` or starts with `name` and a dot (`core.run_until` covers its
/// `.warmup` and `.drain` slices).
pub fn total_s(spans: &[Span], rep: u64, name: &str) -> f64 {
    let named = |s: &Span| {
        s.name.strip_prefix(name).is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
    };
    spans.iter().filter(|s| s.rep == rep && named(s)).map(|s| s.dur_ns()).sum::<u64>() as f64 / 1e9
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover. Children may overlap each other or stick out
/// of the parent (clock reads are not atomic with the work), so the
/// cover is the union of child intervals clipped to the parent.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let p = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = p.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    p.dur_ns() - covered
}

/// Self time, in seconds, summed over the spans of one rep with exactly
/// this name.
pub fn self_total_s(spans: &[Span], rep: u64, name: &str) -> f64 {
    let ns: u64 = (0..spans.len())
        .filter(|&i| spans[i].rep == rep && spans[i].name == name)
        .map(|i| self_ns(spans, i))
        .sum();
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, rep: 1, args: Vec::new() }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("setup", 10, 30, Some(0)),
            span("run", 40, 90, Some(0)),
            span("slice", 40, 60, Some(2)),
            span("slice", 60, 85, Some(2)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 50);
        assert_eq!(self_ns(&spans, 1), 20, "a leaf's self time is its duration");
        assert_eq!(self_ns(&spans, 2), 50 - 45);
        assert_eq!(self_total_s(&spans, 1, "slice"), 45e-9);
        assert_eq!(total_s(&spans, 1, "slice"), 45e-9);
        assert_eq!(total_s(&spans, 2, "slice"), 0.0, "another rep's spans do not count");
    }

    #[test]
    fn totals_cover_dotted_sub_names_and_one_rep_only() {
        let mut spans = vec![
            span("core.run_until", 0, 10, None),
            span("core.run_until.drain", 10, 14, None),
            span("core.run_untilx", 14, 20, None),
            span("rep", 20, 30, None),
            span("rep", 30, 50, None),
            span("run", 32, 40, Some(4)),
        ];
        spans[4].rep = 2;
        spans[5].rep = 2;
        assert_eq!(total_s(&spans, 1, "core.run_until"), 14e-9);
        // parents are indices into the whole list, whichever rep is asked for
        assert_eq!(self_total_s(&spans, 1, "rep"), 10e-9);
        assert_eq!(self_total_s(&spans, 2, "rep"), 12e-9);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let spans = vec![
            span("p", 10, 50, None),
            span("a", 5, 30, Some(0)),           // starts before the parent
            span("b", 20, 40, Some(0)),          // overlaps a
            span("c", 45, 70, Some(0)),          // ends after the parent
            span("d", 25, 28, Some(0)),          // inside a and b
            span("grandchild", 21, 22, Some(2)), // not a direct child
        ];
        // cover = [10,40) ∪ [45,50) = 35
        assert_eq!(self_ns(&spans, 0), 40 - 35);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_rep(7);
        let rep = t.begin("rep");
        t.span("setup", |t| t.span("core.world_new", |_| ()));
        let run = t.begin("run");
        t.end_with(run, &[("events", 3.0)]);
        t.end(rep);
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["rep", "setup", "core.world_new", "run"]
        );
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), Some(0)]
        );
        assert!(s.iter().all(|s| s.rep == 7 && s.end_ns >= s.start_ns));
        assert_eq!(s[3].args, [("events", 3.0)]);
        let doc = t.chrome_json("w");
        let ev = doc.get("traceEvents").unwrap().items();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[2].get("args").unwrap().get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(ev[0].get("ph").unwrap().as_str(), Some("X"));

        let mut off = Tracer::new(false);
        off.span("rep", |t| t.span("setup", |_| ()));
        assert!(off.spans().is_empty());
    }
}
