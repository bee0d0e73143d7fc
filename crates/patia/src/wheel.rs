//! A hierarchical timer wheel indexed on the virtual clock — the event
//! engine's core index.
//!
//! A per-tick driver walks every node on every tick; the wheel
//! inverts that: work is *scheduled* at the tick it becomes due, and the
//! engine only touches ticks that hold events. Four levels of 64 slots
//! each cover a horizon of `64^4` (~16.7M) ticks; deadlines beyond the
//! horizon wait in an overflow list and re-enter the wheel when the top
//! level rotates. Schedule and cancel are O(1); advancing by a gap of
//! `g` ticks costs O(`g`/1 + entries touched) slot probes and is skipped
//! entirely while the wheel is empty, so quiescent stretches are free.
//!
//! Determinism contract: [`TimerWheel::pop_due`] returns due events
//! sorted by `(deadline, schedule order)`. Entries for one deadline can
//! transiently sit at different levels (one scheduled far ahead, one
//! close), so FIFO-per-deadline is restored by a stable sort on the
//! monotonic sequence number at fire time — the property the
//! `slow-props` suite pins against a `BinaryHeap` oracle.

use std::collections::{BTreeSet, VecDeque};

/// Slots per level (64 keeps slot indexing a 6-bit shift/mask).
const SLOTS: usize = 64;
/// Levels in the hierarchy; the horizon is `64^LEVELS` ticks.
const LEVELS: usize = 4;

/// The span (in ticks) one level covers: level 0 resolves single ticks
/// over `[now, now+64)`, level 1 the next `64^2`, and so on.
fn span(level: usize) -> u64 {
    1u64 << (6 * (level + 1))
}

/// The slot a deadline lands in at `level`.
fn slot_of(level: usize, deadline: u64) -> usize {
    ((deadline >> (6 * level)) & 63) as usize
}

/// A handle to a scheduled event, usable with [`TimerWheel::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerToken(u64);

/// Which region of the wheel an occupancy row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WheelArea {
    /// Events scheduled at or before the clock, due on the next pop.
    Past,
    /// A (level, slot) cell of the hierarchy proper.
    Wheel,
    /// Deadlines beyond the wheel horizon.
    Overflow,
}

impl WheelArea {
    /// Stable machine-readable name for table encodings.
    #[must_use]
    pub fn code_str(self) -> &'static str {
        match self {
            Self::Past => "past",
            Self::Wheel => "wheel",
            Self::Overflow => "overflow",
        }
    }
}

/// Live-entry count for one populated region of the wheel — one
/// `sys.timers` row. `level`/`slot` are only meaningful for
/// [`WheelArea::Wheel`] rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WheelSlotOccupancy {
    /// The wheel region this row describes.
    pub area: WheelArea,
    /// Hierarchy level (0 = finest resolution).
    pub level: usize,
    /// Slot index within the level.
    pub slot: usize,
    /// Live (non-cancelled) entries waiting here.
    pub live: usize,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    deadline: u64,
    seq: u64,
    payload: T,
}

/// The hierarchical timer wheel. `T` is the event payload.
#[derive(Debug, Clone)]
pub struct TimerWheel<T> {
    now: u64,
    next_seq: u64,
    levels: Vec<Vec<VecDeque<Entry<T>>>>,
    /// Deadlines beyond the wheel horizon, re-placed as the clock nears.
    overflow: Vec<Entry<T>>,
    /// Events scheduled at or before the current clock — due immediately.
    past: Vec<Entry<T>>,
    /// Sequence numbers of live (scheduled, not yet fired or cancelled)
    /// events.
    pending: BTreeSet<u64>,
    /// Tombstones for cancelled events still physically in a slot; pruned
    /// when the slot drains.
    cancelled: BTreeSet<u64>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel at tick 0.
    #[must_use]
    pub fn new() -> Self {
        Self {
            now: 0,
            next_seq: 0,
            levels: (0..LEVELS).map(|_| (0..SLOTS).map(|_| VecDeque::new()).collect()).collect(),
            overflow: Vec::new(),
            past: Vec::new(),
            pending: BTreeSet::new(),
            cancelled: BTreeSet::new(),
        }
    }

    /// The wheel's current clock: the tick [`TimerWheel::pop_due`] last
    /// advanced to.
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
        self.place(Entry { deadline, seq, payload });
        TimerToken(seq)
    }

    /// Cancel a scheduled event. Returns `false` if it already fired or
    /// was already cancelled.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        if self.pending.remove(&token.0) {
            self.cancelled.insert(token.0);
            true
        } else {
            false
        }
    }

    /// The earliest live deadline, if any — may be at or before the
    /// current clock when overdue events are waiting.
    #[must_use]
    pub fn next_deadline(&self) -> Option<u64> {
        let live = |e: &Entry<T>| !self.cancelled.contains(&e.seq);
        let mut best: Option<u64> = None;
        let mut fold = |d: u64| best = Some(best.map_or(d, |b: u64| b.min(d)));
        for e in self.past.iter().filter(|e| live(e)) {
            fold(e.deadline);
        }
        for level in &self.levels {
            for slot in level {
                for e in slot.iter().filter(|e| live(e)) {
                    fold(e.deadline);
                }
            }
        }
        for e in self.overflow.iter().filter(|e| live(e)) {
            fold(e.deadline);
        }
        best
    }

    /// Advance the clock to `to` and return every event due at or before
    /// it, sorted by `(deadline, schedule order)` — the FIFO-per-deadline
    /// guarantee. Cancelled events are dropped silently.
    pub fn pop_due(&mut self, to: u64) -> Vec<(u64, T)> {
        let mut due: Vec<Entry<T>> = std::mem::take(&mut self.past);
        while self.now < to {
            if self.pending.is_empty() {
                // Nothing live anywhere: the gap is free. Tombstoned
                // entries may remain in slots; they are pruned whenever
                // their slot next drains.
                self.now = to;
                break;
            }
            self.now += 1;
            let t = self.now;
            // Crossing a block boundary cascades the entering slot of the
            // next level down, outermost first so re-placed entries settle
            // in one pass.
            for level in (1..LEVELS).rev() {
                if t.is_multiple_of(span(level - 1)) {
                    let idx = slot_of(level, t);
                    let entries: Vec<Entry<T>> = self.levels[level][idx].drain(..).collect();
                    for e in entries {
                        self.place(e);
                    }
                }
            }
            if t.is_multiple_of(span(LEVELS - 1)) {
                let entries = std::mem::take(&mut self.overflow);
                for e in entries {
                    self.place(e);
                }
            }
            // An entry cascading at exactly its deadline re-places into
            // `past` (delta 0); it is due this very tick.
            due.append(&mut self.past);
            // Drain the level-0 slot for this tick. A slot holds one
            // deadline per rotation, so entries for future rotations are
            // kept in place.
            let slot = &mut self.levels[0][(t & 63) as usize];
            let mut keep = VecDeque::new();
            for e in slot.drain(..) {
                if e.deadline <= t {
                    due.push(e);
                } else {
                    keep.push_back(e);
                }
            }
            *slot = keep;
        }
        due.sort_by_key(|e| (e.deadline, e.seq));
        due.retain(|e| {
            if self.cancelled.remove(&e.seq) {
                false
            } else {
                self.pending.remove(&e.seq);
                true
            }
        });
        due.into_iter().map(|e| (e.deadline, e.payload)).collect()
    }

    /// Live-entry occupancy of every populated region of the wheel, in a
    /// fixed order: `past`, then each (level, slot) pair ascending, then
    /// `overflow` — the deterministic row source for `sys.timers`.
    /// Cancelled tombstones still sitting in slots are not counted, so
    /// the occupancies always sum to [`len`](Self::len).
    #[must_use]
    pub fn occupancy(&self) -> Vec<WheelSlotOccupancy> {
        let live = |e: &&Entry<T>| !self.cancelled.contains(&e.seq);
        let mut out = Vec::new();
        let past = self.past.iter().filter(live).count();
        if past > 0 {
            out.push(WheelSlotOccupancy { area: WheelArea::Past, level: 0, slot: 0, live: past });
        }
        for (level, slots) in self.levels.iter().enumerate() {
            for (slot, entries) in slots.iter().enumerate() {
                let n = entries.iter().filter(live).count();
                if n > 0 {
                    out.push(WheelSlotOccupancy { area: WheelArea::Wheel, level, slot, live: n });
                }
            }
        }
        let over = self.overflow.iter().filter(live).count();
        if over > 0 {
            out.push(WheelSlotOccupancy {
                area: WheelArea::Overflow,
                level: 0,
                slot: 0,
                live: over,
            });
        }
        out
    }

    /// Place an entry at the level whose span covers its remaining delta.
    fn place(&mut self, e: Entry<T>) {
        let delta = e.deadline.saturating_sub(self.now);
        if delta == 0 {
            self.past.push(e);
            return;
        }
        for level in 0..LEVELS {
            if delta < span(level) {
                let idx = slot_of(level, e.deadline);
                self.levels[level][idx].push_back(e);
                return;
            }
        }
        self.overflow.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Schedule the same deadline from far away (level 1) and up close
        // (level 0): the far one was scheduled first and must fire first.
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
        // One deadline per level span, plus one beyond the horizon.
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
    fn occupancy_counts_live_entries_and_sums_to_len() {
        let mut w = TimerWheel::new();
        w.schedule(3, 0u8); // level 0
        w.schedule(3, 1u8); // same slot
        let t = w.schedule(3, 2u8);
        w.schedule(5_000, 3u8); // level 1
        w.schedule(20_000_000, 4u8); // overflow
        w.cancel(t);
        let occ = w.occupancy();
        let total: usize = occ.iter().map(|o| o.live).sum();
        assert_eq!(total, w.len(), "occupancy excludes tombstones");
        assert!(
            occ.iter()
                .any(|o| o.area == WheelArea::Wheel && o.level == 0 && o.slot == 3 && o.live == 2),
            "the cancelled entry must not be counted: {occ:?}"
        );
        assert!(occ.iter().any(|o| o.area == WheelArea::Overflow && o.live == 1));
        w.pop_due(10);
        let total: usize = w.occupancy().iter().map(|o| o.live).sum();
        assert_eq!(total, w.len(), "occupancy tracks fires too");
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
