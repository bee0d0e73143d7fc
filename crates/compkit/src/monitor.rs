//! Monitors: sources of raw environmental readings.
//!
//! In Figure 1 the monitors sit at the bottom of the adaptation loop,
//! producing "environmental data (e.g. current performance statistics)".
//! A monitor here is a named, bounded ring of timestamped readings; the
//! embedding environment (the `ubinet` simulator, the Patia server, a real
//! deployment) pushes values in, and gauges read windows out.

use std::collections::VecDeque;

/// A timestamped reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Simulation tick (or wall-clock unit) of the observation.
    pub tick: u64,
    /// Observed value (unit depends on the monitor: utilisation fraction,
    /// kbps, volts...).
    pub value: f64,
}

/// A named monitor holding a bounded history of readings.
#[derive(Debug, Clone)]
pub struct Monitor {
    name: String,
    capacity: usize,
    readings: VecDeque<Reading>,
}

impl Monitor {
    /// A monitor retaining the last `capacity` readings.
    ///
    /// # Panics
    /// If `capacity` is zero.
    #[must_use]
    pub fn new(name: &str, capacity: usize) -> Self {
        assert!(capacity > 0, "a monitor must retain at least one reading");
        Self { name: name.to_owned(), capacity, readings: VecDeque::with_capacity(capacity) }
    }

    /// The monitor's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record a reading, evicting the oldest beyond capacity.
    pub fn push(&mut self, tick: u64, value: f64) {
        if self.readings.len() == self.capacity {
            self.readings.pop_front();
        }
        self.readings.push_back(Reading { tick, value });
    }

    /// The most recent reading, if any.
    #[must_use]
    pub fn latest(&self) -> Option<Reading> {
        self.readings.back().copied()
    }

    /// Carry the latest reading forward through every tick in
    /// `(latest.tick, upto]` — the event-boundary re-sample. A sampler
    /// that skips quiescent ticks still owes windowed gauges (means,
    /// slopes) one reading per tick; this fills the gap with the value
    /// that held throughout it. Bounded by the ring capacity: a gap wider
    /// than the ring only materialises the last `capacity` ticks. No-op
    /// on an empty monitor or when already sampled up to `upto`.
    pub(crate) fn fill_forward(&mut self, upto: u64) {
        let Some(last) = self.latest() else { return };
        let from = last.tick.saturating_add(1).max(upto.saturating_sub(self.capacity as u64 - 1));
        for tick in from..=upto {
            self.push(tick, last.value);
        }
    }

    /// The most recent `n` readings, oldest first.
    #[must_use]
    pub fn window(&self, n: usize) -> Vec<Reading> {
        let skip = self.readings.len().saturating_sub(n);
        self.readings.iter().skip(skip).copied().collect()
    }

    /// Number of retained readings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Whether no readings have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_latest() {
        let mut m = Monitor::new("cpu", 4);
        assert!(m.is_empty());
        m.push(1, 0.5);
        m.push(2, 0.7);
        assert_eq!(m.latest(), Some(Reading { tick: 2, value: 0.7 }));
        assert_eq!(m.len(), 2);
        assert_eq!(m.name(), "cpu");
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut m = Monitor::new("bw", 3);
        for t in 0..5 {
            m.push(t, t as f64);
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m.window(10).first().unwrap().tick, 2);
    }

    #[test]
    fn window_returns_most_recent_in_order() {
        let mut m = Monitor::new("x", 10);
        for t in 0..6 {
            m.push(t, t as f64 * 2.0);
        }
        let w = m.window(3);
        assert_eq!(w.iter().map(|r| r.tick).collect::<Vec<_>>(), vec![3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "at least one reading")]
    fn zero_capacity_rejected() {
        let _ = Monitor::new("bad", 0);
    }

    #[test]
    fn fill_forward_carries_the_latest_value_per_tick() {
        let mut m = Monitor::new("cpu", 8);
        m.push(3, 0.4);
        m.fill_forward(6);
        assert_eq!(
            m.window(10),
            vec![
                Reading { tick: 3, value: 0.4 },
                Reading { tick: 4, value: 0.4 },
                Reading { tick: 5, value: 0.4 },
                Reading { tick: 6, value: 0.4 },
            ]
        );
        // Already sampled up to 6: a second fill is a no-op.
        m.fill_forward(6);
        assert_eq!(m.len(), 4);
        m.fill_forward(2);
        assert_eq!(m.len(), 4, "filling backward is a no-op");
    }

    #[test]
    fn fill_forward_over_a_wide_gap_is_bounded_by_capacity() {
        let mut m = Monitor::new("cpu", 4);
        m.push(10, 1.5);
        m.fill_forward(1_000_000);
        assert_eq!(m.len(), 4, "only the ring's worth of ticks materialise");
        let w = m.window(10);
        assert_eq!(w.first().unwrap().tick, 999_997);
        assert_eq!(w.last().unwrap(), &Reading { tick: 1_000_000, value: 1.5 });
    }

    #[test]
    fn fill_forward_on_empty_monitor_is_a_no_op() {
        let mut m = Monitor::new("cpu", 4);
        m.fill_forward(100);
        assert!(m.is_empty());
    }
}
