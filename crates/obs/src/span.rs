//! Cycle-accounted tracing spans and the structured event log.
//!
//! Span timestamps are **cycles from [`machine::cost`]**, never wall
//! clock: under a fixed seed two runs of the same scenario produce
//! byte-identical traces, the same discipline `faultsim` applies to fault
//! timelines. Spans close into [`TraceEvent`]s in completion order, which
//! is itself deterministic, so [`Tracer::render`] and [`Tracer::digest`]
//! are stable across runs and platforms.

use crate::fnv1a;
use crate::Cycles;
use std::fmt::Write as _;

/// Handle to an open span, returned by [`Tracer::begin_at`] and consumed
/// by [`Tracer::end_at`]. Not `Copy`: a span ends exactly once.
#[derive(Debug, PartialEq, Eq)]
pub struct SpanId(pub(crate) usize);

/// What kind of record a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A closed span with a duration (Chrome trace phase `X`).
    Complete,
    /// A point-in-time marker with no duration (Chrome trace phase `i`).
    Instant,
}

/// One record in the structured event log.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Start timestamp in cycles.
    pub ts: Cycles,
    /// Duration in cycles (0 for instants).
    pub dur: Cycles,
    /// Category — the subsystem that emitted it (`gokernel`, `patia`, ...).
    pub cat: &'static str,
    /// Event name within the category.
    pub name: String,
    /// Complete span or instant marker.
    pub kind: EventKind,
    /// Structured key/value arguments, in emission order.
    pub args: Vec<(&'static str, String)>,
}

/// An open span not yet moved into the event log.
#[derive(Debug)]
struct OpenSpan {
    ts: Cycles,
    cat: &'static str,
    name: String,
}

/// The event log plus a small slab of open spans.
///
/// Nesting is supported (spans may begin and end in any well-bracketed or
/// overlapping order); the log records events in *completion* order.
#[derive(Debug, Default)]
pub struct Tracer {
    events: Vec<TraceEvent>,
    open: Vec<Option<OpenSpan>>,
    free: Vec<usize>,
}

impl Tracer {
    /// An empty tracer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty tracer with `capacity` event slots pre-allocated.
    ///
    /// Purely an allocation hint: the event log, its render, and its
    /// digest are functions of what was *recorded*, never of arena
    /// capacity — asserted by the digest-stability tests.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::with_capacity(capacity),
            open: Vec::with_capacity(capacity.min(64)),
            free: Vec::new(),
        }
    }

    /// Open a span starting at `ts`.
    pub fn begin_at(&mut self, cat: &'static str, name: impl Into<String>, ts: Cycles) -> SpanId {
        let span = OpenSpan { ts, cat, name: name.into() };
        match self.free.pop() {
            Some(slot) => {
                self.open[slot] = Some(span);
                SpanId(slot)
            }
            None => {
                self.open.push(Some(span));
                SpanId(self.open.len() - 1)
            }
        }
    }

    /// Close a span at `ts`, attaching `args`, and append it to the log.
    ///
    /// # Panics
    /// Panics if the span is already closed (impossible without forging a
    /// [`SpanId`]) or if `ts` precedes the span's start.
    pub fn end_at_with(&mut self, span: SpanId, ts: Cycles, args: Vec<(&'static str, String)>) {
        let open = self.open[span.0].take().expect("span closed twice");
        assert!(ts >= open.ts, "span '{}' ends before it starts", open.name);
        self.free.push(span.0);
        self.events.push(TraceEvent {
            ts: open.ts,
            dur: ts - open.ts,
            cat: open.cat,
            name: open.name,
            kind: EventKind::Complete,
            args,
        });
    }

    /// Close a span at `ts` with no arguments.
    pub fn end_at(&mut self, span: SpanId, ts: Cycles) {
        self.end_at_with(span, ts, Vec::new());
    }

    /// Record a point-in-time marker.
    pub fn instant(
        &mut self,
        cat: &'static str,
        name: impl Into<String>,
        ts: Cycles,
        args: Vec<(&'static str, String)>,
    ) {
        self.events.push(TraceEvent {
            ts,
            dur: 0,
            cat,
            name: name.into(),
            kind: EventKind::Instant,
            args,
        });
    }

    /// Closed events, in completion order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Spans begun but not yet ended.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        self.open.len() - self.free.len()
    }

    /// Render the log as stable text, one event per line:
    /// `@{ts:010}+{dur:06} {cat}:{name} k=v ...` (instants use `!` in
    /// place of `+dur`). Byte-identical across runs of a seeded scenario.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            match e.kind {
                EventKind::Complete => {
                    let _ = write!(out, "@{:010}+{:06} {}:{}", e.ts, e.dur, e.cat, e.name);
                }
                EventKind::Instant => {
                    let _ = write!(out, "@{:010}!       {}:{}", e.ts, e.cat, e.name);
                }
            }
            for (k, v) in &e.args {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        out
    }

    /// FNV-1a fingerprint of [`Tracer::render`] — the trace digest the
    /// golden-trace tier asserts byte-identical across runs.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(self.render().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_close_in_completion_order() {
        let mut t = Tracer::new();
        let outer = t.begin_at("a", "outer", 0);
        let inner = t.begin_at("a", "inner", 10);
        t.end_at(inner, 30);
        t.end_at(outer, 50);
        let names: Vec<&str> = t.events().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["inner", "outer"], "completion order, not begin order");
        assert_eq!(t.events()[0].dur, 20);
        assert_eq!(t.events()[1].dur, 50);
        assert_eq!(t.open_spans(), 0);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut t = Tracer::new();
        let a = t.begin_at("c", "a", 0);
        t.end_at(a, 1);
        let b = t.begin_at("c", "b", 2);
        assert_eq!(b.0, 0, "freed slot is recycled");
        t.end_at(b, 3);
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn render_format_is_stable() {
        let mut t = Tracer::new();
        let s = t.begin_at("gokernel", "invoke", 1_234);
        t.end_at_with(s, 1_307, vec![("cycles", "73".to_owned())]);
        t.instant("patia", "switch", 9_000, vec![("atom", "123".to_owned())]);
        assert_eq!(
            t.render(),
            "@0000001234+000073 gokernel:invoke cycles=73\n\
             @0000009000!       patia:switch atom=123\n"
        );
        let d = t.digest();
        assert_eq!(d, t.digest(), "digest is a pure function of the render");
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn span_cannot_end_in_the_past() {
        let mut t = Tracer::new();
        let s = t.begin_at("x", "bad", 100);
        t.end_at(s, 99);
    }

    /// Replay the same span storyline into a tracer built with the given
    /// arena capacity.
    fn replay(capacity: Option<usize>) -> Tracer {
        let mut t = capacity.map_or_else(Tracer::new, Tracer::with_capacity);
        for i in 0..10u64 {
            let tick = t.begin_at("patia", format!("tick:{i}"), i * 100);
            let inner = t.begin_at("compkit", "switch", i * 100 + 10);
            t.end_at_with(inner, i * 100 + 40, vec![("outcome", "committed".to_owned())]);
            t.instant("patia", "gauge:breach", i * 100 + 50, vec![("atom", "123".to_owned())]);
            t.end_at(tick, i * 100 + 90);
        }
        t
    }

    #[test]
    fn digest_is_independent_of_arena_capacity() {
        // Identical replays must fingerprint identically whether the
        // arena grows from empty, is exactly sized, or is grossly
        // over-provisioned: capacity is an allocation hint, not state.
        let baseline = replay(None);
        for capacity in [0, 1, 30, 4096] {
            let t = replay(Some(capacity));
            assert_eq!(t.render(), baseline.render(), "capacity {capacity} changed the render");
            assert_eq!(t.digest(), baseline.digest(), "capacity {capacity} changed the digest");
            assert_eq!(
                crate::fnv1a(t.render().as_bytes()),
                baseline.digest(),
                "digest stays the FNV-1a of the render"
            );
        }
    }
}
