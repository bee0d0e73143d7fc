//! Gauges: lightweight aggregation over monitors.
//!
//! > "A session manager is fed information from monitors or gauges (which
//! > aggregate raw monitor data for more lightweight processing)."
//!
//! A gauge names a monitor and an aggregation. [`GaugeKind::Slope`] is the
//! "trend analysis" the paper uses to *anticipate* flash crowds: a positive
//! slope on the request-rate monitor fires the spread-processing rule before
//! the server saturates.

use crate::monitor::Monitor;
use std::collections::BTreeMap;

/// How a gauge aggregates its monitor's readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GaugeKind {
    /// The most recent value.
    Latest,
    /// Arithmetic mean of the last `n` readings.
    WindowMean(usize),
    /// Exponentially weighted moving average with smoothing factor `alpha`
    /// in (0, 1]; higher alpha follows the signal faster.
    Ewma(f64),
    /// Maximum of the last `n` readings.
    WindowMax(usize),
    /// Least-squares slope (value per tick) over the last `n` readings —
    /// trend analysis.
    Slope(usize),
}

/// A named gauge bound to a monitor.
#[derive(Debug, Clone)]
pub struct Gauge {
    /// The gauge's name, referenced by rule expressions.
    pub name: String,
    /// The monitor it reads.
    pub monitor: String,
    /// The aggregation.
    pub kind: GaugeKind,
}

impl Gauge {
    /// Evaluate the gauge against its monitor. `None` when the monitor has
    /// too few readings to aggregate.
    #[must_use]
    pub fn evaluate(&self, m: &Monitor) -> Option<f64> {
        match self.kind {
            GaugeKind::Latest => m.latest().map(|r| r.value),
            GaugeKind::WindowMean(n) => {
                let w = m.window(n);
                if w.is_empty() {
                    None
                } else {
                    Some(w.iter().map(|r| r.value).sum::<f64>() / w.len() as f64)
                }
            }
            GaugeKind::Ewma(alpha) => {
                let w = m.window(usize::MAX);
                let mut acc: Option<f64> = None;
                for r in w {
                    acc = Some(match acc {
                        None => r.value,
                        Some(prev) => alpha * r.value + (1.0 - alpha) * prev,
                    });
                }
                acc
            }
            GaugeKind::WindowMax(n) => m
                .window(n)
                .iter()
                .map(|r| r.value)
                .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v)))),
            GaugeKind::Slope(n) => {
                let w = m.window(n);
                if w.len() < 2 {
                    return None;
                }
                let len = w.len() as f64;
                let mean_x = w.iter().map(|r| r.tick as f64).sum::<f64>() / len;
                let mean_y = w.iter().map(|r| r.value).sum::<f64>() / len;
                let num: f64 =
                    w.iter().map(|r| (r.tick as f64 - mean_x) * (r.value - mean_y)).sum();
                let den: f64 = w.iter().map(|r| (r.tick as f64 - mean_x).powi(2)).sum();
                if den == 0.0 {
                    None
                } else {
                    Some(num / den)
                }
            }
        }
    }
}

/// A board of monitors and the gauges over them — the data source for rule
/// evaluation.
#[derive(Debug, Clone, Default)]
pub struct GaugeBoard {
    monitors: BTreeMap<String, Monitor>,
    gauges: Vec<Gauge>,
}

impl GaugeBoard {
    /// An empty board.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) a monitor.
    pub fn add_monitor(&mut self, m: Monitor) {
        self.monitors.insert(m.name().to_owned(), m);
    }

    /// Add a gauge. Later gauges with the same name shadow earlier ones.
    pub fn add_gauge(&mut self, g: Gauge) {
        self.gauges.retain(|e| e.name != g.name);
        self.gauges.push(g);
    }

    /// Push a reading into a named monitor; ignored if absent.
    pub fn record(&mut self, monitor: &str, tick: u64, value: f64) {
        if let Some(m) = self.monitors.get_mut(monitor) {
            m.push(tick, value);
        }
    }

    /// Evaluate one gauge by name.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let g = self.gauges.iter().find(|g| g.name == name)?;
        let m = self.monitors.get(&g.monitor)?;
        g.evaluate(m)
    }

    /// Evaluate all gauges.
    #[must_use]
    pub fn snapshot(&self) -> BTreeMap<String, f64> {
        self.gauges
            .iter()
            .filter_map(|g| {
                let v = self.monitors.get(&g.monitor).and_then(|m| g.evaluate(m))?;
                Some((g.name.clone(), v))
            })
            .collect()
    }

    /// Direct access to a monitor (for tests and environments).
    #[must_use]
    pub fn monitor(&self, name: &str) -> Option<&Monitor> {
        self.monitors.get(name)
    }

    /// Re-sample every monitor up to `tick`, carrying each one's latest
    /// reading forward through the gap
    /// ([`Monitor::fill_forward`]). An event-driven sampler that skips
    /// quiescent ticks calls this at the next event boundary; without it,
    /// windowed gauges (means, slopes) silently aggregate over a
    /// compressed timeline and drift from the per-tick reference.
    pub fn resample(&mut self, tick: u64) {
        for m in self.monitors.values_mut() {
            m.fill_forward(tick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mon(values: &[f64]) -> Monitor {
        let mut m = Monitor::new("m", 64);
        for (t, &v) in values.iter().enumerate() {
            m.push(t as u64, v);
        }
        m
    }

    fn gauge(kind: GaugeKind) -> Gauge {
        Gauge { name: "g".into(), monitor: "m".into(), kind }
    }

    #[test]
    fn latest_and_mean() {
        let m = mon(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(gauge(GaugeKind::Latest).evaluate(&m), Some(4.0));
        assert_eq!(gauge(GaugeKind::WindowMean(2)).evaluate(&m), Some(3.5));
        assert_eq!(gauge(GaugeKind::WindowMean(10)).evaluate(&m), Some(2.5));
    }

    #[test]
    fn ewma_follows_signal() {
        let m = mon(&[0.0, 0.0, 10.0]);
        let v = gauge(GaugeKind::Ewma(0.5)).evaluate(&m).unwrap();
        assert!((v - 5.0).abs() < 1e-9);
    }

    #[test]
    fn max_over_window() {
        let m = mon(&[5.0, 9.0, 2.0]);
        assert_eq!(gauge(GaugeKind::WindowMax(2)).evaluate(&m), Some(9.0));
        assert_eq!(gauge(GaugeKind::WindowMax(1)).evaluate(&m), Some(2.0));
    }

    #[test]
    fn slope_detects_trend() {
        let up = mon(&[1.0, 2.0, 3.0, 4.0]);
        let v = gauge(GaugeKind::Slope(4)).evaluate(&up).unwrap();
        assert!((v - 1.0).abs() < 1e-9);
        let flat = mon(&[3.0, 3.0, 3.0]);
        assert_eq!(gauge(GaugeKind::Slope(3)).evaluate(&flat), Some(0.0));
    }

    #[test]
    fn empty_monitor_yields_none() {
        let m = Monitor::new("m", 4);
        for kind in [
            GaugeKind::Latest,
            GaugeKind::WindowMean(3),
            GaugeKind::Ewma(0.3),
            GaugeKind::WindowMax(3),
            GaugeKind::Slope(3),
        ] {
            assert_eq!(gauge(kind).evaluate(&m), None, "{kind:?}");
        }
    }

    #[test]
    fn slope_needs_two_points() {
        let m = mon(&[5.0]);
        assert_eq!(gauge(GaugeKind::Slope(5)).evaluate(&m), None);
    }

    #[test]
    fn board_snapshot() {
        let mut b = GaugeBoard::new();
        b.add_monitor(Monitor::new("cpu", 8));
        b.add_gauge(Gauge {
            name: "cpu_now".into(),
            monitor: "cpu".into(),
            kind: GaugeKind::Latest,
        });
        b.add_gauge(Gauge {
            name: "cpu_avg".into(),
            monitor: "cpu".into(),
            kind: GaugeKind::WindowMean(4),
        });
        b.record("cpu", 0, 0.2);
        b.record("cpu", 1, 0.8);
        let snap = b.snapshot();
        assert_eq!(snap["cpu_now"], 0.8);
        assert_eq!(snap["cpu_avg"], 0.5);
        assert_eq!(b.gauge_value("cpu_now"), Some(0.8));
        assert_eq!(b.gauge_value("missing"), None);
    }

    #[test]
    fn records_to_unknown_monitor_are_ignored() {
        let mut b = GaugeBoard::new();
        b.record("ghost", 0, 1.0);
        assert!(b.snapshot().is_empty());
    }

    #[test]
    fn zero_width_windows_yield_none() {
        // A window of 0 readings aggregates nothing — it must be None, not
        // a NaN mean or a panic.
        let m = mon(&[1.0, 2.0, 3.0]);
        assert_eq!(gauge(GaugeKind::WindowMean(0)).evaluate(&m), None);
        assert_eq!(gauge(GaugeKind::WindowMax(0)).evaluate(&m), None);
        assert_eq!(gauge(GaugeKind::Slope(0)).evaluate(&m), None);
        assert_eq!(gauge(GaugeKind::Slope(1)).evaluate(&m), None);
    }

    #[test]
    fn window_exactly_at_reading_count_is_the_full_history() {
        let m = mon(&[2.0, 4.0, 6.0]);
        assert_eq!(gauge(GaugeKind::WindowMean(3)).evaluate(&m), Some(4.0));
        assert_eq!(gauge(GaugeKind::WindowMax(3)).evaluate(&m), Some(6.0));
        // One more than available behaves identically, not out-of-bounds.
        assert_eq!(gauge(GaugeKind::WindowMean(4)).evaluate(&m), Some(4.0));
    }

    #[test]
    fn slope_with_exactly_two_points_is_the_secant() {
        let mut m = Monitor::new("m", 8);
        m.push(10, 1.0);
        m.push(12, 5.0);
        let v = gauge(GaugeKind::Slope(2)).evaluate(&m).unwrap();
        assert!((v - 2.0).abs() < 1e-9, "rise 4 over run 2 ticks, got {v}");
    }

    #[test]
    fn slope_over_identical_ticks_is_none_not_infinite() {
        // Two readings in the same tick: zero run. Division must not occur.
        let mut m = Monitor::new("m", 8);
        m.push(5, 1.0);
        m.push(5, 9.0);
        assert_eq!(gauge(GaugeKind::Slope(2)).evaluate(&m), None);
    }

    #[test]
    fn ewma_alpha_one_tracks_latest_exactly() {
        let m = mon(&[3.0, 7.0, 2.0]);
        assert_eq!(gauge(GaugeKind::Ewma(1.0)).evaluate(&m), Some(2.0));
    }

    #[test]
    fn saturated_monitor_ring_keeps_only_the_newest_readings() {
        // The bounded ring saturates: pushes beyond capacity evict the
        // oldest readings, and every gauge aggregates the survivors only.
        let mut m = Monitor::new("m", 3);
        for (t, v) in [(0, 100.0), (1, 1.0), (2, 2.0), (3, 3.0)] {
            m.push(t, v);
        }
        assert_eq!(gauge(GaugeKind::WindowMax(10)).evaluate(&m), Some(3.0));
        assert_eq!(gauge(GaugeKind::WindowMean(10)).evaluate(&m), Some(2.0));
        assert_eq!(gauge(GaugeKind::Latest).evaluate(&m), Some(3.0));
    }

    /// Regression for the per-tick gauge drift: a sampler that skips
    /// quiescent ticks and records only at event boundaries compresses
    /// the timeline under windowed gauges — the old behaviour made a
    /// mean over "the last 6 readings" span 60 real ticks and a slope
    /// see a cliff where there was a plateau. Re-sampling at the event
    /// boundary (`resample`) must restore the exact per-tick values.
    #[test]
    fn resample_keeps_windowed_gauges_cumulative_consistent_across_skips() {
        let build = || {
            let mut b = GaugeBoard::new();
            b.add_monitor(Monitor::new("cpu", 16));
            b.add_gauge(Gauge {
                name: "mean".into(),
                monitor: "cpu".into(),
                kind: GaugeKind::WindowMean(6),
            });
            b.add_gauge(Gauge {
                name: "trend".into(),
                monitor: "cpu".into(),
                kind: GaugeKind::Slope(6),
            });
            b
        };
        // The signal: busy at 0.9 through tick 5, idle (0.0) at tick 6,
        // then nothing happens until a new burst at tick 40.
        let busy = |t: u64| if t <= 5 { 0.9 } else { 0.0 };

        // Reference: sampled every tick, like the legacy loop.
        let mut reference = build();
        for t in 1..=40 {
            reference.record("cpu", t, if t < 40 { busy(t) } else { 0.8 });
        }

        // Naive event-driven sampling: ticks 7..=39 are skipped outright.
        let mut naive = build();
        for t in 1..=6 {
            naive.record("cpu", t, busy(t));
        }
        naive.record("cpu", 40, 0.8);
        assert_ne!(
            naive.snapshot(),
            reference.snapshot(),
            "skipping ticks without re-sampling must be observably wrong \
             (otherwise this regression test guards nothing)"
        );

        // Fixed: the same skip, but the gap is re-sampled at the boundary
        // before the new reading lands.
        let mut fixed = build();
        for t in 1..=6 {
            fixed.record("cpu", t, busy(t));
        }
        fixed.resample(39);
        fixed.record("cpu", 40, 0.8);
        assert_eq!(fixed.snapshot(), reference.snapshot());
    }

    /// The storage-engine variant of the drift regression: a quiescent
    /// window in which the *only* activity is buffer-pool page flushes.
    /// Flushes are background IO — they change no monitored signal, so
    /// an event-driven sampler rightly skips the whole window. But the
    /// windowed gauges still span real time: without `resample` at the
    /// window's far edge, the post-flush reading lands adjacent to the
    /// pre-flush history, a 24-tick plateau collapses to nothing, and
    /// the slope gauge reports a cliff that would spuriously fire the
    /// spread-processing rule the moment serving resumes.
    #[test]
    fn resample_prevents_drift_across_a_page_flush_only_quiescent_window() {
        let build = || {
            let mut b = GaugeBoard::new();
            b.add_monitor(Monitor::new("cpu", 32));
            b.add_gauge(Gauge {
                name: "mean".into(),
                monitor: "cpu".into(),
                kind: GaugeKind::WindowMean(8),
            });
            b.add_gauge(Gauge {
                name: "trend".into(),
                monitor: "cpu".into(),
                kind: GaugeKind::Slope(8),
            });
            b.add_gauge(Gauge {
                name: "now".into(),
                monitor: "cpu".into(),
                kind: GaugeKind::Latest,
            });
            b
        };
        // Serving ramps down by tick 6 to the flush-only floor (0.1: the
        // writeback worker), holds there through tick 30 while dirty
        // pages drain, then a request burst lands at tick 31.
        let signal = |t: u64| match t {
            0..=5 => 0.9 - 0.1 * t as f64,
            6..=30 => 0.1,
            _ => 0.85,
        };

        // Reference: the legacy loop samples every tick, flushes or not.
        let mut reference = build();
        for t in 1..=31 {
            reference.record("cpu", t, signal(t));
        }

        // Event-driven: ticks 7..=30 are flush-only, so the sampler
        // records nothing there. Without re-sampling the gauges drift…
        let mut naive = build();
        for t in 1..=6 {
            naive.record("cpu", t, signal(t));
        }
        naive.record("cpu", 31, signal(31));
        assert_ne!(
            naive.snapshot(),
            reference.snapshot(),
            "a skipped flush window must be observably wrong un-resampled, \
             or this test gates nothing"
        );

        // …and with `resample` at the window's far edge they agree with
        // the per-tick reference exactly.
        let mut fixed = build();
        for t in 1..=6 {
            fixed.record("cpu", t, signal(t));
        }
        fixed.resample(30);
        fixed.record("cpu", 31, signal(31));
        assert_eq!(
            fixed.snapshot(),
            reference.snapshot(),
            "re-sampled gauges must not drift across a page-flush-only window"
        );
    }
}
