//! Deterministic observability substrate shared by every layer.
//!
//! The paper's Adaptation Framework is *monitors → gauges → session
//! manager*: adaptation is only as good as what the system can observe
//! about itself, and the Go!/SISR argument (Table 1) is made entirely in
//! CPU-cycle accounting. This crate gives the stack one substrate for
//! both:
//!
//! * [`span`] — tracing spans and instant events whose timestamps are
//!   **cycles from [`machine::cost`]**, never wall clock, so traces are
//!   byte-identical under a fixed seed (the `faultsim` discipline).
//! * [`metrics`] — a [`MetricsRegistry`] of counters/gauges/histograms
//!   with stable ordering and an FNV digest; an armed Patia server
//!   publishes each monitor reading as a gauge here.
//! * [`chrome`] — a Chrome-trace-format JSON exporter for the event log
//!   (`bench figures --trace`).
//! * [`profile`] — a cycle-attribution profiler that folds the span
//!   stream into an aggregated call tree with self/total accounting and
//!   inferno-compatible folded stacks (`bench figures --flame`).
//! * [`diff`] — a minimal unified line diff so golden failures show
//!   *what* drifted, not just digests.
//!
//! # Arming
//!
//! Instrumented components (`gokernel::Orb`, `patia::PatiaServer`,
//! `ubinet::Simulator`, `compkit::AdaptivityManager`) hold an
//! `Option<ObsHandle>`, exactly like the `faultsim` injector hooks:
//! disarmed is the default and costs one branch per hot path. One
//! [`ObsHandle`] is shared across layers, so a single trace interleaves
//! ORB invocations with Patia switches on one cycle axis.
//!
//! ```
//! use obs::{Obs, CostModel, Primitive};
//!
//! let obs = Obs::new(CostModel::pentium()).into_handle();
//! {
//!     let mut o = obs.borrow_mut();
//!     let span = o.begin("demo", "work");
//!     o.charge(Primitive::Alu);
//!     o.end(span);
//!     o.metrics.counter_add("demo.work", 1);
//! }
//! assert_eq!(obs.borrow().tracer.events().len(), 1);
//! ```

pub mod chrome;
pub mod diff;
pub mod metrics;
pub mod profile;
pub mod span;

pub use machine::cost::{CostModel, Cycles, Primitive};
pub use metrics::MetricsSnapshot;
pub use profile::Profile;
pub use span::{EventKind, SpanId, TraceEvent};

use metrics::MetricsRegistry;
use span::Tracer;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// FNV-1a over a byte string — same constants as `faultsim`'s plan
/// digest, so every deterministic fingerprint in the workspace speaks one
/// dialect.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1aSink::default();
    h.update(bytes);
    h.finish()
}

/// A [`fmt::Write`] sink that folds every byte written into an FNV-1a
/// hash: `write!`-ing a render into it gives `fnv1a(render.as_bytes())`
/// without building the render. Every render-then-hash digest in the
/// workspace (trace, metrics, transaction log) streams through one.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1aSink(u64);

impl Fnv1aSink {
    /// Fold `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte written so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A sink holding the FNV-1a offset basis, the digest of no bytes.
impl Default for Fnv1aSink {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv1aSink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Shared handle to an [`Obs`]: the simulation is single-threaded, so a
/// plain `Rc<RefCell<_>>` is enough and keeps the crate free of unsafe
/// code and atomics.
pub type ObsHandle = Rc<RefCell<Obs>>;

/// The observability hub: a deterministic cycle clock, the tracing event
/// log, and the unified metrics registry.
#[derive(Debug)]
pub struct Obs {
    /// The cost model spans bill primitives against.
    pub model: CostModel,
    /// The tracing event log.
    pub tracer: Tracer,
    /// The unified metrics registry.
    pub metrics: MetricsRegistry,
    clock: Cycles,
}

impl Obs {
    /// A fresh hub at cycle 0.
    #[must_use]
    pub fn new(model: CostModel) -> Self {
        Self { model, tracer: Tracer::new(), metrics: MetricsRegistry::new(), clock: 0 }
    }

    /// Wrap into the shared handle instrumented components hold.
    #[must_use]
    pub fn into_handle(self) -> ObsHandle {
        Rc::new(RefCell::new(self))
    }

    /// Recover the hub from a handle once every instrumented component has
    /// been dropped (or disarmed). Returns the handle if other clones are
    /// still alive.
    ///
    /// # Errors
    /// Returns `Err(handle)` when the handle is still shared.
    pub fn try_unwrap(handle: ObsHandle) -> Result<Self, ObsHandle> {
        Rc::try_unwrap(handle).map(RefCell::into_inner)
    }

    /// The current cycle clock.
    #[must_use]
    pub fn clock(&self) -> Cycles {
        self.clock
    }

    /// Advance the clock by a pre-computed cycle bill.
    pub fn advance(&mut self, cycles: Cycles) {
        self.clock += cycles;
    }

    /// Bill one primitive under the cost model, advancing the clock by its
    /// cost, and return that cost.
    pub fn charge(&mut self, p: Primitive) -> Cycles {
        let c = p.cost(&self.model);
        self.clock += c;
        c
    }

    /// Bill `n` copies of one primitive in a single clock advance —
    /// cycle-identical to `n` [`Obs::charge`] calls (charging emits no
    /// events, so only the clock moves). Returns the total cost.
    pub fn charge_n(&mut self, p: Primitive, n: u64) -> Cycles {
        let c = p.cost(&self.model) * n;
        self.clock += c;
        c
    }

    /// Open a span at the current clock.
    pub fn begin(&mut self, cat: &'static str, name: impl Into<String>) -> SpanId {
        let ts = self.clock;
        self.tracer.begin_at(cat, name, ts)
    }

    /// Open a span at an explicit timestamp — used when a component keeps
    /// its own cycle counter (the ORB's CPU) and the span must match it
    /// exactly.
    pub fn begin_at(&mut self, cat: &'static str, name: impl Into<String>, ts: Cycles) -> SpanId {
        if ts > self.clock {
            self.clock = ts;
        }
        self.tracer.begin_at(cat, name, ts)
    }

    /// Close a span at the current clock.
    pub fn end(&mut self, span: SpanId) {
        let ts = self.clock;
        self.tracer.end_at(span, ts);
    }

    /// Close a span at the current clock with structured arguments.
    pub fn end_with(&mut self, span: SpanId, args: Vec<(&'static str, String)>) {
        let ts = self.clock;
        self.tracer.end_at_with(span, ts, args);
    }

    /// Close a span at an explicit timestamp (advancing the clock to it).
    pub fn end_at_with(&mut self, span: SpanId, ts: Cycles, args: Vec<(&'static str, String)>) {
        if ts > self.clock {
            self.clock = ts;
        }
        self.tracer.end_at_with(span, ts, args);
    }

    /// Record an instant event at the current clock.
    pub fn instant(
        &mut self,
        cat: &'static str,
        name: impl Into<String>,
        args: Vec<(&'static str, String)>,
    ) {
        let ts = self.clock;
        self.tracer.instant(cat, name, ts, args);
    }

    /// The combined fingerprint golden-trace tests assert: trace digest,
    /// metrics digest, event count.
    #[must_use]
    pub fn digests(&self) -> (u64, u64, usize) {
        (self.tracer.digest(), self.metrics.digest(), self.tracer.events().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn sink_streams_the_same_hash_as_fnv1a() {
        use std::fmt::Write as _;
        let mut h = Fnv1aSink::default();
        let b = 'b';
        write!(h, "foo{b}").unwrap();
        h.write_str("ar").unwrap();
        assert_eq!(h.finish(), fnv1a(b"foobar"), "chunking does not change the hash");
    }

    #[test]
    fn charge_advances_clock_by_model_cost() {
        let mut o = Obs::new(CostModel::pentium());
        let c = o.charge(Primitive::TrapEnter);
        assert!(c > 0);
        assert_eq!(o.clock(), c);
        o.advance(10);
        assert_eq!(o.clock(), c + 10);
    }

    #[test]
    fn spans_bill_in_cycles_not_wall_clock() {
        let run = || {
            let mut o = Obs::new(CostModel::pentium());
            let s = o.begin("t", "step");
            o.charge(Primitive::Load);
            o.charge(Primitive::Alu);
            o.end_with(s, vec![("k", "v".to_owned())]);
            o.metrics.counter_add("t.steps", 1);
            o.digests()
        };
        assert_eq!(run(), run(), "identical work yields identical digests");
    }

    #[test]
    fn begin_at_and_end_at_track_external_counters() {
        let mut o = Obs::new(CostModel::pentium());
        let s = o.begin_at("orb", "invoke", 1_000);
        o.end_at_with(s, 1_073, vec![("cycles", "73".to_owned())]);
        assert_eq!(o.clock(), 1_073, "clock follows the external counter");
        assert_eq!(o.tracer.events()[0].dur, 73);
    }

    #[test]
    fn handle_round_trips() {
        let h = Obs::new(CostModel::pentium()).into_handle();
        h.borrow_mut().metrics.counter_add("x", 1);
        let o = Obs::try_unwrap(h).expect("sole owner");
        assert_eq!(o.metrics.counter("x"), 1);
    }
}
