//! Gauge properties: every aggregation stays within the bounds of the data
//! it summarises.

use adm_rng::{run_cases, Pcg32};
use compkit::gauge::{Gauge, GaugeKind};
use compkit::monitor::Monitor;

fn monitor(values: &[f64]) -> Monitor {
    let mut m = Monitor::new("m", 256);
    for (t, &v) in values.iter().enumerate() {
        m.push(t as u64, v);
    }
    m
}

fn gauge(kind: GaugeKind) -> Gauge {
    Gauge { name: "g".into(), monitor: "m".into(), kind }
}

fn values(rng: &mut Pcg32, lo_len: usize, hi_len: usize) -> Vec<f64> {
    let n = rng.index(hi_len - lo_len) + lo_len;
    (0..n).map(|_| (rng.f64() - 0.5) * 2e6).collect()
}

/// Mean, EWMA and max all stay within [min, max] of the readings.
#[test]
fn aggregations_are_bounded() {
    run_cases(0xc01, 512, |rng| {
        let values = values(rng, 1, 100);
        let n = rng.index(99) + 1;
        let alpha = 0.01 + rng.f64() * 0.99;
        let m = monitor(&values);
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for kind in [
            GaugeKind::Latest,
            GaugeKind::WindowMean(n),
            GaugeKind::Ewma(alpha),
            GaugeKind::WindowMax(n),
        ] {
            let v = gauge(kind).evaluate(&m).expect("non-empty monitor");
            assert!(v >= lo - 1e-6 && v <= hi + 1e-6, "{kind:?} gave {v} outside [{lo}, {hi}]");
        }
    });
}

/// WindowMax dominates WindowMean over the same window.
#[test]
fn max_dominates_mean() {
    run_cases(0xc02, 512, |rng| {
        let values = values(rng, 2, 100);
        let n = rng.index(98) + 2;
        let m = monitor(&values);
        let mean = gauge(GaugeKind::WindowMean(n)).evaluate(&m).unwrap();
        let max = gauge(GaugeKind::WindowMax(n)).evaluate(&m).unwrap();
        assert!(max >= mean - 1e-6);
    });
}

/// Slope of a perfectly linear signal recovers its gradient.
#[test]
fn slope_recovers_linear_gradient() {
    run_cases(0xc03, 512, |rng| {
        let grad = (rng.f64() - 0.5) * 200.0;
        let intercept = (rng.f64() - 0.5) * 2e3;
        let len = rng.index(57) + 3;
        let values: Vec<f64> = (0..len).map(|t| intercept + grad * t as f64).collect();
        let m = monitor(&values);
        let s = gauge(GaugeKind::Slope(len)).evaluate(&m).unwrap();
        assert!((s - grad).abs() < 1e-6 * (1.0 + grad.abs()), "slope {s} vs {grad}");
    });
}
