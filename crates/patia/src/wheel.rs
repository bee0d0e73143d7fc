//! The event engine's timer queue: every pending event in one ordered
//! map keyed on `(deadline, schedule order)`.
//!
//! Work is *scheduled* at the tick it becomes due, and the engine only
//! touches ticks that hold events. Schedule, cancel and each popped
//! event cost O(log n); advancing the clock costs nothing per idle tick,
//! however wide the gap, so quiescent stretches are free.
//!
//! Determinism contract: [`TimerWheel::pop_due`] returns due events
//! sorted by `(deadline, schedule order)`. That is the map's key order,
//! so FIFO-per-deadline needs no sort at fire time — the property
//! `tests/wheel_props.rs` pins against a sorted-list oracle.
//!
//! The type and module keep the names of the hierarchical wheel this map
//! replaced, because the wall-clock ledger in `benchmark/` imports
//! `patia::wheel::TimerWheel`.

use std::collections::BTreeMap;

/// A handle to a scheduled event, usable with [`TimerWheel::cancel`].
/// It is the event's key: ordered by deadline, then schedule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerToken {
    deadline: u64,
    seq: u64,
}

/// The timer queue. `T` is the event payload.
#[derive(Debug, Clone)]
pub struct TimerWheel<T> {
    now: u64,
    next_seq: u64,
    pending: BTreeMap<TimerToken, T>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty queue at tick 0.
    #[must_use]
    pub fn new() -> Self {
        Self { now: 0, next_seq: 0, pending: BTreeMap::new() }
    }

    /// The queue's current clock: the furthest tick
    /// [`TimerWheel::pop_due`] has advanced to.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Live scheduled events (cancelled ones excluded).
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no live events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Schedule `payload` to fire at `deadline`. A deadline at or before
    /// the current clock fires on the next [`TimerWheel::pop_due`] call.
    pub fn schedule(&mut self, deadline: u64, payload: T) -> TimerToken {
        let token = TimerToken { deadline, seq: self.next_seq };
        self.next_seq += 1;
        self.pending.insert(token, payload);
        token
    }

    /// Cancel a scheduled event. Returns `false` if it already fired or
    /// was already cancelled.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        self.pending.remove(&token).is_some()
    }

    /// The earliest live deadline, if any — may be at or before the
    /// current clock when overdue events are waiting.
    #[must_use]
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        self.pending.first_key_value().map(|(k, _)| k.deadline)
    }

    /// The deadline of every live event, ascending, one entry per event
    /// (a deadline repeats once per event waiting on it).
    pub fn deadlines(&self) -> impl Iterator<Item = u64> + '_ {
        self.pending.keys().map(|k| k.deadline)
    }

    /// Advance the clock to `to` (it never moves back) and return every
    /// event due at or before it, sorted by `(deadline, schedule order)`
    /// — the FIFO-per-deadline guarantee.
    pub fn pop_due(&mut self, to: u64) -> Vec<(u64, T)> {
        self.now = self.now.max(to);
        let mut due = Vec::new();
        while let Some(first) = self.pending.first_entry() {
            if first.key().deadline > self.now {
                break;
            }
            let (token, payload) = first.remove_entry();
            due.push((token.deadline, payload));
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerWheel::new();
        w.schedule(5, "b");
        w.schedule(3, "a");
        w.schedule(9, "c");
        assert_eq!(w.next_deadline(), Some(3));
        assert_eq!(w.pop_due(6), vec![(3, "a"), (5, "b")]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(100), vec![(9, "c")]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_deadline_fires_in_schedule_order() {
        let mut w = TimerWheel::new();
        // Schedule the same deadline from far away and up close: the far
        // one was scheduled first and must fire first.
        w.schedule(100, 1u32);
        assert!(w.pop_due(90).is_empty());
        w.schedule(100, 2u32);
        w.schedule(100, 3u32);
        assert_eq!(w.pop_due(100), vec![(100, 1), (100, 2), (100, 3)]);
    }

    #[test]
    fn cancel_suppresses_an_event() {
        let mut w = TimerWheel::new();
        let a = w.schedule(4, "a");
        let b = w.schedule(4, "b");
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "double cancel reports false");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(10), vec![(4, "b")]);
        assert!(!w.cancel(b), "fired events cannot be cancelled");
    }

    #[test]
    fn far_deadlines_cascade_down_the_levels() {
        let mut w = TimerWheel::new();
        // Deadlines from 63 ticks out to twenty million, popped in
        // million-tick strides.
        let deadlines = [63u64, 64, 4_095, 4_096, 262_143, 262_144, 16_777_216, 20_000_000];
        for (i, &d) in deadlines.iter().enumerate() {
            w.schedule(d, i);
        }
        let mut fired = Vec::new();
        let mut t = 0;
        while !w.is_empty() {
            t += 1_000_000;
            fired.extend(w.pop_due(t));
        }
        let want: Vec<(u64, usize)> = deadlines.iter().copied().zip(0..).collect();
        assert_eq!(fired, want, "every deadline fires exactly once, in order");
    }

    #[test]
    fn overdue_schedules_fire_on_the_next_pop() {
        let mut w = TimerWheel::new();
        w.schedule(10, "x");
        assert_eq!(w.pop_due(20), vec![(10, "x")]);
        w.schedule(5, "late");
        assert_eq!(w.next_deadline(), Some(5));
        assert_eq!(w.pop_due(20), vec![(5, "late")], "overdue events still fire");
    }

    #[test]
    fn empty_gaps_are_skipped_without_work() {
        let mut w: TimerWheel<u8> = TimerWheel::new();
        assert!(w.pop_due(u64::MAX / 2).is_empty());
        assert_eq!(w.now(), u64::MAX / 2);
        w.schedule(u64::MAX / 2 + 3, 7);
        assert_eq!(w.pop_due(u64::MAX / 2 + 4), vec![(u64::MAX / 2 + 3, 7)]);
    }

    #[test]
    fn pending_gaps_cost_nothing_per_idle_tick() {
        // With an event pending, a 50M-tick advance must not walk the
        // gap: a tick-by-tick walk of it takes seconds in debug.
        let mut w = TimerWheel::new();
        w.schedule(3, "near");
        w.schedule(50_000_000, "far");
        let start = Instant::now();
        assert_eq!(w.pop_due(50_000_000), vec![(3, "near"), (50_000_000, "far")]);
        let took = start.elapsed();
        assert!(took < Duration::from_millis(50), "advancing took {took:?}");
    }

    #[test]
    fn deadlines_lists_each_live_event_in_order() {
        let mut w = TimerWheel::new();
        w.schedule(20_000_000, 0u8);
        w.schedule(3, 1u8);
        let t = w.schedule(3, 2u8);
        w.schedule(3, 3u8);
        w.cancel(t);
        assert_eq!(w.deadlines().collect::<Vec<_>>(), vec![3, 3, 20_000_000]);
        w.pop_due(10);
        assert_eq!(w.deadlines().collect::<Vec<_>>(), vec![20_000_000]);
    }

    #[test]
    fn next_deadline_sees_every_level() {
        let mut w = TimerWheel::new();
        w.schedule(300_000, 0u8);
        assert_eq!(w.next_deadline(), Some(300_000));
        w.schedule(5_000, 1u8);
        assert_eq!(w.next_deadline(), Some(5_000));
        w.schedule(12, 2u8);
        assert_eq!(w.next_deadline(), Some(12));
        let t = w.schedule(3, 3u8);
        assert_eq!(w.next_deadline(), Some(3));
        w.cancel(t);
        assert_eq!(w.next_deadline(), Some(12), "cancelled events are invisible");
    }
}
