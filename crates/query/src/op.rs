//! The operator model.
//!
//! Operators are pulled, but may report [`Poll::Pending`]: "no tuple right
//! now, but not done either". That third state is what the adaptive-join
//! literature is about — over wide-area sources, input stalls are the
//! common case, and an operator that can do useful work while an input
//! stalls (XJoin's reactive stage, the symmetric hash join's other side)
//! beats one that blocks.
//!
//! All operators charge a shared [`WorkCounter`]; benches use it as a
//! deterministic, machine-independent cost measure.

use datacomp::{Row, Schema};
use std::cell::Cell;
use std::rc::Rc;

/// Result of polling an operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Poll {
    /// A tuple is ready.
    Ready(Row),
    /// Nothing now; poll again later (an input is stalled).
    Pending,
    /// Exhausted.
    Done,
}

/// A shared work counter: every operator charges the work it does. Each
/// category is its own cell, so a charge is one add with no borrow flag.
#[derive(Debug, Clone, Default)]
pub struct WorkCounter {
    inner: Rc<Counts>,
}

/// The cells behind a [`WorkCounter`], one per [`Work`] category.
#[derive(Debug, Default)]
struct Counts {
    tuples_moved: Cell<u64>,
    hash_inserts: Cell<u64>,
    hash_probes: Cell<u64>,
    comparisons: Cell<u64>,
    spills: Cell<u64>,
    unspills: Cell<u64>,
    stalls: Cell<u64>,
}

fn add(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

/// The work categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Tuples moved between operators.
    pub tuples_moved: u64,
    /// Hash-table inserts.
    pub hash_inserts: u64,
    /// Hash-table probes.
    pub hash_probes: u64,
    /// Predicate/key comparisons.
    pub comparisons: u64,
    /// Tuples spilled to (simulated) disk.
    pub spills: u64,
    /// Tuples read back from (simulated) disk.
    pub unspills: u64,
    /// Polls that returned `Pending` (idle waits).
    pub stalls: u64,
}

impl Work {
    /// A single scalar summary: total operations (stalls excluded — they
    /// represent *wasted wall-clock*, reported separately).
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.tuples_moved
            + self.hash_inserts
            + self.hash_probes
            + self.comparisons
            + self.spills * 10 // spill I/O is an order costlier than a move
            + self.unspills * 10
    }
}

impl WorkCounter {
    /// A fresh, zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the counters.
    #[must_use]
    pub fn snapshot(&self) -> Work {
        let c = &*self.inner;
        Work {
            tuples_moved: c.tuples_moved.get(),
            hash_inserts: c.hash_inserts.get(),
            hash_probes: c.hash_probes.get(),
            comparisons: c.comparisons.get(),
            spills: c.spills.get(),
            unspills: c.unspills.get(),
            stalls: c.stalls.get(),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        let c = &*self.inner;
        for cell in [
            &c.tuples_moved,
            &c.hash_inserts,
            &c.hash_probes,
            &c.comparisons,
            &c.spills,
            &c.unspills,
            &c.stalls,
        ] {
            cell.set(0);
        }
    }

    /// Charge `n` tuple moves.
    pub fn moved(&self, n: u64) {
        add(&self.inner.tuples_moved, n);
    }

    /// Charge one hash-table insert.
    pub(crate) fn hash_insert(&self) {
        add(&self.inner.hash_inserts, 1);
    }

    /// Charge `n` hash-table probes.
    pub fn hash_probe(&self, n: u64) {
        add(&self.inner.hash_probes, n);
    }

    /// Charge `n` comparisons.
    pub fn compare(&self, n: u64) {
        add(&self.inner.comparisons, n);
    }

    /// Charge `n` tuples spilled to disk.
    pub(crate) fn spill(&self, n: u64) {
        add(&self.inner.spills, n);
    }

    /// Charge `n` tuples read back from disk.
    pub(crate) fn unspill(&self, n: u64) {
        add(&self.inner.unspills, n);
    }

    /// Charge one pending (stalled) poll.
    pub(crate) fn stall(&self) {
        add(&self.inner.stalls, 1);
    }
}

/// A query operator.
pub trait Operator: std::fmt::Debug {
    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Poll for the next tuple.
    fn poll(&mut self) -> Poll;
}

/// Drain an operator to completion, polling through stalls; returns all
/// rows. `stall_budget` bounds consecutive `Pending`s (guards tests against
/// livelock).
///
/// # Panics
/// When the stall budget is exhausted — a livelocked operator is a bug.
pub fn drain(op: &mut dyn Operator, stall_budget: u64) -> Vec<Row> {
    let mut out = Vec::new();
    let mut stalls = 0;
    loop {
        match op.poll() {
            Poll::Ready(r) => {
                out.push(r);
                stalls = 0;
            }
            Poll::Pending => {
                stalls += 1;
                assert!(stalls <= stall_budget, "operator livelocked after {stalls} stalls");
            }
            Poll::Done => return out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_counter_is_shared() {
        let w = WorkCounter::new();
        let w2 = w.clone();
        w.moved(3);
        w2.hash_insert();
        let s = w.snapshot();
        assert_eq!(s.tuples_moved, 3);
        assert_eq!(s.hash_inserts, 1);
        w.reset();
        assert_eq!(w.snapshot(), Work::default());
    }

    #[test]
    fn total_ops_weights_spills() {
        let w = WorkCounter::new();
        w.moved(5);
        w.spill(2);
        assert_eq!(w.snapshot().total_ops(), 5 + 20);
    }
}
