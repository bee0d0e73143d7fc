//! The benchmark's own span recorder.
//!
//! Spans are recorded *around* calls into a layer's public functions, from
//! the benchmark's side of the boundary — the program under test is not
//! instrumented. A span is a name, a start, an end, the span that was open
//! when it began (its parent) and the round it belongs to; they are kept
//! in memory and written out as a Chrome trace when the run ends. A
//! layer's self time is its span's duration minus what its direct
//! children cover.
//!
//! A disabled recorder costs one branch per call and records nothing: the
//! end-to-end metrics are always measured with it disabled.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer entry point the span wraps, e.g. `store.engine.apply`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The round the span was recorded in.
    pub round: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span, returned by [`Recorder::begin`].
#[derive(Debug)]
#[must_use = "a span that is never ended stays open and swallows its siblings"]
pub struct Open(Option<u32>);

/// The span recorder.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u32,
}

impl Recorder {
    /// A recorder that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
        }
    }

    /// A recording recorder.
    #[must_use]
    pub fn enabled() -> Self {
        Self { enabled: true, ..Self::disabled() }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans that follow with round `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under whatever span is open now.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.stack.push(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, round: self.round });
        Open(Some(idx))
    }

    /// Close `open`. Spans close innermost first.
    pub fn end(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            self.spans[idx as usize].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Close `open` under a name only known once the call returned (a
    /// pool hit versus a miss).
    pub fn end_as(&mut self, open: Open, name: &'static str) {
        if let Open(Some(idx)) = open {
            self.spans[idx as usize].name = name;
        }
        self.end(open);
    }

    /// Every closed span, in begin order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Fold the spans into per-name statistics.
    #[must_use]
    pub fn fold(&self) -> BTreeMap<&'static str, Folded> {
        fold(&self.spans)
    }

    /// The spans of rounds `..=max_round` in Chrome trace format (one
    /// complete `X` event per span, microsecond timestamps). Later rounds
    /// repeat the same work, so the file stays loadable.
    #[must_use]
    pub fn chrome_trace(&self, process: &str, max_round: u32) -> String {
        let mut events = vec![Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(1.0)),
            ("args", Json::obj([("name", Json::str(process))])),
        ])];
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.round <= max_round) {
            events.push(Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                        ("round", Json::Num(f64::from(s.round))),
                    ]),
                ),
            ]));
        }
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ns"))])
            .render()
    }
}

/// Per-name aggregate of a span log.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Folded {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus direct children), ns.
    pub self_ns: u64,
    /// Every duration, ns, in begin order — for medians and tails.
    pub durs_ns: Vec<f64>,
}

/// Fold a span log: a span's self time is its duration minus the part of
/// it its direct children cover.
#[must_use]
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Folded> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Folded> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let f = out.entry(s.name).or_default();
        f.calls += 1;
        f.total_ns += s.dur_ns();
        f.self_ns += s.dur_ns().saturating_sub(covered);
        f.durs_ns.push(s.dur_ns() as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, round: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // round[0..100] { a[10..40] { b[15..25] }, a[50..90] }
        let spans = [
            span("round", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("a", 50, 90, Some(0)),
        ];
        let f = fold(&spans);
        assert_eq!(f["round"].self_ns, 100 - 30 - 40, "grandchildren are not subtracted twice");
        assert_eq!(f["a"].calls, 2);
        assert_eq!(f["a"].total_ns, 70);
        assert_eq!(f["a"].self_ns, 60);
        assert_eq!(f["b"].self_ns, 10);
        let total_self: u64 = f.values().map(|x| x.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root span");
    }

    #[test]
    fn recorder_nests_and_renames() {
        let mut r = Recorder::enabled();
        r.set_round(3);
        let outer = r.begin("outer");
        let inner = r.begin("inner");
        r.end_as(inner, "inner.hit");
        r.end(outer);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].round), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent), ("inner.hit", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let trace = Json::parse(&r.chrome_trace("t", 3)).unwrap();
        assert_eq!(trace.get("traceEvents").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            Json::parse(&r.chrome_trace("t", 2))
                .unwrap()
                .get("traceEvents")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            1,
            "spans of later rounds are left out"
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        let s = r.begin("x");
        r.end(s);
        assert!(r.spans().is_empty());
    }
}
