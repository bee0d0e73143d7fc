//! Drivers for the hub's emit API, one row per kind of call: the calls of
//! that kind are taken out of the workload's own emission script (same
//! names, same argument lists, same order) and replayed back to back into
//! a fresh hub.

use crate::catalog::LayerRows;
use crate::stats;
use crate::workloads::introspect::{emit, Emit};
use obs::{CostModel, Obs, TraceEvent};
use std::time::Instant;

/// Which calls of a script a row is about.
type Kind = fn(&Emit) -> bool;

/// Replays of each kind; the median is reported.
const REPS: usize = 9;

/// Replay `calls` into a fresh hub; returns the hub and the host ns spent.
fn replay(calls: &[&Emit]) -> (Obs, f64) {
    let mut hub = Obs::new(CostModel::pentium());
    let mut open = Vec::new();
    let t = Instant::now();
    for call in calls {
        emit(&mut hub, &mut open, call);
    }
    let ns = t.elapsed().as_nanos() as f64;
    (hub, ns)
}

/// Median ns per call over [`REPS`] replays of `calls`; 0 for no calls.
fn replay_ns(calls: &[&Emit]) -> f64 {
    if calls.is_empty() {
        return 0.0;
    }
    let per_call: Vec<f64> = (0..REPS).map(|_| replay(calls).1 / calls.len() as f64).collect();
    stats::median(&per_call)
}

/// Heap and inline bytes one trace event holds, from its public fields.
fn event_bytes(e: &TraceEvent) -> usize {
    std::mem::size_of::<TraceEvent>()
        + e.name.len()
        + e.args.iter().map(|(_, v)| std::mem::size_of::<(&str, String)>() + v.len()).sum::<usize>()
}

/// Fill the `obs.*_ns` rows and `obs.tracer.bytes_per_event` from
/// `script`.
pub fn drive(script: &[Emit], rows: &mut LayerRows) {
    let only =
        |kind: fn(&Emit) -> bool| -> Vec<&Emit> { script.iter().filter(|c| kind(c)).collect() };
    let kinds: [(&str, Kind); 5] = [
        ("obs.charge_n_ns", |c| matches!(c, Emit::Charge(..))),
        ("obs.counter_add_ns", |c| matches!(c, Emit::Counter(..))),
        ("obs.observe_n_ns", |c| matches!(c, Emit::Observe(..))),
        ("obs.gauge_set_ns", |c| matches!(c, Emit::Gauge(..))),
        ("obs.instant_ns", |c| matches!(c, Emit::Instant(..))),
    ];
    for (row, kind) in kinds {
        rows.set(row, replay_ns(&only(kind)));
    }
    // A span is a begin and its end: two calls.
    rows.set(
        "obs.span_ns",
        2.0 * replay_ns(&only(|c| matches!(c, Emit::Begin(..) | Emit::End(..)))),
    );

    let (hub, _) =
        replay(&only(|c| matches!(c, Emit::Begin(..) | Emit::End(..) | Emit::Instant(..))));
    let events = hub.tracer.events();
    if !events.is_empty() {
        let bytes: usize = events.iter().map(event_bytes).sum();
        rows.set("obs.tracer.bytes_per_event", bytes as f64 / events.len() as f64);
    }
}
