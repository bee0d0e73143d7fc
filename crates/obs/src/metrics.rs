//! The unified metrics registry: counters, gauges and histograms with
//! stable ordering and a deterministic digest.
//!
//! Every layer of the stack bills its telemetry here — ORB invocations,
//! Patia fault counters, ubinet environment events, compkit switch
//! outcomes — instead of keeping ad-hoc per-crate counters. Names are the
//! only namespace (`orb.invocations`, `patia.switch.failed`,
//! `cpu:node1`...); storage is `BTreeMap`, so [`MetricsRegistry::render`]
//! is byte-stable and [`MetricsRegistry::digest`] can be asserted across
//! runs the same way `faultsim` asserts fault-plan digests.
//!
//! Counter semantics are uniformly **cumulative**: `counter_add` only ever
//! grows a counter (saturating at `u64::MAX`), and nothing resets on read.
//! Per-interval deltas belong to the caller's own report types (e.g.
//! `patia`'s per-tick `TickStats`), never to the registry.

use crate::fnv1a;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `i` holds samples whose bit length is `i` (bucket 0 is the value
/// zero, bucket 1 is 1, bucket 2 is 2–3, bucket 3 is 4–7, ...). Log2
/// buckets keep the histogram tiny, deterministic, and merge-free while
/// still separating a 73-cycle Go! RPC from a 55,000-cycle BSD one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample seen (`u64::MAX` until the first record).
    pub min: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Bucket index → sample count.
    pub buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    /// The bucket index a value lands in: its bit length.
    #[must_use]
    pub fn bucket_of(value: u64) -> u32 {
        64 - value.leading_zeros()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        *self.buckets.entry(Self::bucket_of(value)).or_default() += 1;
    }

    /// Record `n` identical samples in one update. Exactly equivalent to
    /// `n` calls to [`Histogram::record`] — every field update is
    /// commutative — which is what lets the event engine's batched
    /// completions keep metrics digests byte-identical to the per-request
    /// loop.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        *self.buckets.entry(Self::bucket_of(value)).or_default() += n;
    }

    /// Mean sample value, `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The inclusive value range bucket `bucket` covers.
    fn bucket_range(bucket: u32) -> (u64, u64) {
        match bucket {
            0 => (0, 0),
            1 => (1, 1),
            64 => (1 << 63, u64::MAX),
            b => (1 << (b - 1), (1 << b) - 1),
        }
    }

    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`) by walking
    /// the cumulative bucket counts and interpolating linearly inside
    /// the bucket the target rank lands in. Exact when the bucket holds
    /// one sample; otherwise within the bucket's power-of-two range and
    /// always clamped to the observed `[min, max]`. `None` when empty.
    ///
    /// Deterministic — integer arithmetic after the rank is fixed — so
    /// p50/p90/p99 rows golden-pin like every other metric.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // The 1-based rank of the sample the quantile names.
        let rank = {
            let r = (q * self.count as f64).ceil() as u64;
            r.clamp(1, self.count)
        };
        // The extreme ranks are known exactly — no interpolation needed.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (&bucket, &n) in &self.buckets {
            if seen + n >= rank {
                let (lo, hi) = Self::bucket_range(bucket);
                let pos = rank - seen; // 1..=n within this bucket
                let est =
                    if n <= 1 { lo } else { lo + ((hi - lo) / (n - 1)).saturating_mul(pos - 1) };
                return Some(est.clamp(self.min, self.max));
            }
            seen += n;
        }
        Some(self.max)
    }
}

/// An immutable, ordering-stable snapshot of a registry — what golden-trace
/// tests compare and commit.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, name-sorted.
    pub histograms: Vec<(String, Histogram)>,
}

/// The unified registry of counters, gauges and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add to a cumulative counter, creating it at zero first. Saturates at
    /// `u64::MAX` rather than wrapping, so a runaway bill can never make a
    /// counter appear to reset.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        let c = self.counters.entry(name.to_owned()).or_default();
        *c = c.saturating_add(delta);
    }

    /// Read a counter (0 when absent — counters are born at zero).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Read a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record one sample into a histogram, creating it empty first.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_owned()).or_default().record(value);
    }

    /// Record `n` identical samples into a histogram with one lookup —
    /// equivalent to `n` [`MetricsRegistry::observe`] calls.
    pub fn observe_n(&mut self, name: &str, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.histograms.entry(name.to_owned()).or_default().record_n(value, n);
    }

    /// Read a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Total metrics registered (counters + gauges + histograms).
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the registry with stable (name-sorted) ordering.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: self.histograms.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        }
    }

    /// Render the registry as stable text — one metric per line, sections
    /// in a fixed order, names sorted. Two runs of the same seeded scenario
    /// must render byte-identically; the golden-trace tier asserts it.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("metrics\n");
        for (k, v) in &self.counters {
            let _ = writeln!(out, "  counter {k} = {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "  gauge {k} = {v}");
        }
        for (k, h) in &self.histograms {
            let _ = write!(
                out,
                "  histogram {k} count={} sum={} min={} max={} buckets=[",
                h.count, h.sum, h.min, h.max
            );
            for (i, (b, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{b}:{n}");
            }
            out.push_str("]\n");
        }
        out
    }

    /// FNV-1a fingerprint of [`MetricsRegistry::render`].
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(self.render().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_n_equals_n_records() {
        let mut grouped = MetricsRegistry::new();
        let mut singles = MetricsRegistry::new();
        for (value, n) in [(7u64, 3u64), (0, 2), (7, 1), (1 << 40, 5), (9, 0)] {
            grouped.observe_n("lat", value, n);
            for _ in 0..n {
                singles.observe("lat", value);
            }
        }
        assert_eq!(grouped.snapshot(), singles.snapshot(), "grouped records are equivalent");
        assert!(grouped.histogram("nope").is_none());
        grouped.observe_n("empty", 1, 0);
        assert!(grouped.histogram("empty").is_none(), "n == 0 creates nothing");
    }

    #[test]
    fn counters_are_cumulative_and_saturating() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.counter("x"), 0, "counters are born at zero");
        r.counter_add("x", 3);
        r.counter_add("x", 4);
        assert_eq!(r.counter("x"), 7, "adds accumulate; nothing resets on read");
        r.counter_add("x", u64::MAX);
        assert_eq!(r.counter("x"), u64::MAX, "saturates instead of wrapping");
        r.counter_add("x", 1);
        assert_eq!(r.counter("x"), u64::MAX);
    }

    #[test]
    fn gauges_keep_latest() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("util", 0.25);
        r.gauge_set("util", 0.75);
        assert_eq!(r.gauge("util"), Some(0.75));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(73), 7);
        assert_eq!(Histogram::bucket_of(55_000), 16);
        let mut h = Histogram::default();
        for v in [0, 1, 73, 73, 55_000] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 55_000);
        assert_eq!(h.buckets[&7], 2);
        assert_eq!(h.mean(), Some((73 + 73 + 55_000 + 1) as f64 / 5.0));
    }

    #[test]
    fn render_is_name_sorted_and_digest_is_stable() {
        let build = |order_flipped: bool| {
            let mut r = MetricsRegistry::new();
            let names = if order_flipped { ["b", "a"] } else { ["a", "b"] };
            for n in names {
                r.counter_add(n, 1);
                r.gauge_set(n, 0.5);
                r.observe(n, 9);
            }
            r
        };
        let (x, y) = (build(false), build(true));
        assert_eq!(x.render(), y.render(), "insertion order must not leak into the render");
        assert_eq!(x.digest(), y.digest());
        let rendered = x.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines[1], "  counter a = 1");
        assert_eq!(lines[2], "  counter b = 1");
    }

    #[test]
    fn quantile_is_none_when_empty_and_exact_for_singletons() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        let mut h = Histogram::default();
        h.record(73);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(73), "a single sample is every quantile");
        }
    }

    #[test]
    fn quantile_walks_buckets_and_clamps_to_observed_range() {
        let mut h = Histogram::default();
        // 90 fast samples at 10, 9 at 100, one slow outlier at 5_000.
        h.record_n(10, 90);
        h.record_n(100, 9);
        h.record(5_000);
        let p50 = h.quantile(0.5).unwrap();
        assert!((8..=15).contains(&p50), "p50 lands in the 8..=15 bucket: {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((64..=127).contains(&p99), "p99 lands in the 64..=127 bucket: {p99}");
        assert_eq!(h.quantile(1.0), Some(5_000), "p100 is the max exactly");
        assert_eq!(h.quantile(0.0), Some(10), "p0 clamps to the observed min");
        // Monotone in q.
        let qs: Vec<u64> =
            [0.0, 0.25, 0.5, 0.9, 0.99, 1.0].iter().map(|&q| h.quantile(q).unwrap()).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "quantiles are monotone: {qs:?}");
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        let mut h = Histogram::default();
        // All ten samples in bucket 7 (64..=127): interpolation spreads
        // the estimates across the bucket instead of reporting one edge.
        for v in [64, 70, 80, 90, 100, 105, 110, 115, 120, 127] {
            h.record(v);
        }
        let p10 = h.quantile(0.1).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        assert!(p10 < p90, "interpolation must spread within the bucket");
        assert!(p10 >= 64 && p90 <= 127);
    }

    #[test]
    fn snapshot_render_digest_roundtrip_is_stable() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.counter_add("req.total", 41);
            r.gauge_set("util:node1", 0.625);
            r.observe_n("lat", 12, 7);
            r.observe("lat", 900);
            r
        };
        let r = build();
        let snap = r.snapshot();
        assert_eq!(snap, r.snapshot(), "snapshotting is read-only and repeatable");
        assert_eq!(r.render(), build().render(), "render is a pure function of content");
        assert_eq!(r.digest(), build().digest());
        let clone = r.clone();
        assert_eq!(clone.snapshot(), snap, "clones snapshot identically");
        assert_eq!(clone.digest(), r.digest());
        // A snapshot is a deep copy: mutating the registry afterwards
        // must not reach back into it.
        let mut r = r;
        r.counter_add("req.total", 1);
        r.observe("lat", 5);
        assert_ne!(r.snapshot(), snap);
        assert_eq!(snap.counters[0], ("req.total".to_owned(), 41));
    }

    #[test]
    fn observe_n_property_matches_repeated_observes() {
        // Seeded xorshift so the property run is deterministic without
        // pulling a rng dependency into obs.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut grouped = MetricsRegistry::new();
        let mut singles = MetricsRegistry::new();
        for _ in 0..200 {
            let value = next() >> (next() % 64);
            let n = next() % 5;
            grouped.observe_n("lat", value, n);
            for _ in 0..n {
                singles.observe("lat", value);
            }
        }
        assert_eq!(grouped.snapshot(), singles.snapshot(), "bucket-exact equivalence");
        assert_eq!(grouped.render(), singles.render());
        assert_eq!(grouped.digest(), singles.digest());
        let (gh, sh) = (grouped.histogram("lat").unwrap(), singles.histogram("lat").unwrap());
        assert_eq!(gh.buckets, sh.buckets, "every bucket count must agree");
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(gh.quantile(q), sh.quantile(q), "quantiles follow the buckets");
        }
    }

    #[test]
    fn snapshot_equality_tracks_content() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("k", 2);
        b.counter_add("k", 2);
        assert_eq!(a.snapshot(), b.snapshot());
        b.counter_add("k", 1);
        assert_ne!(a.snapshot(), b.snapshot());
    }
}
