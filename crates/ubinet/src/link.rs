//! Links: wired and wireless, with time-varying bandwidth.
//!
//! Scenario 2 hinges on the wireless link being slower and less predictable
//! than the docked Ethernet; Table 2's constraint 595 selects video versions
//! by a bandwidth band. Profiles make that dynamism deterministic and
//! reproducible.

/// Physical kind of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Wired (Ethernet while docked).
    Wired,
    /// Wireless.
    Wireless,
}

/// How a link's bandwidth evolves over time (bytes per tick).
#[derive(Debug, Clone, PartialEq)]
pub enum BandwidthProfile {
    /// Constant bandwidth.
    Constant(f64),
    /// Piecewise-constant steps: `(from_tick, bandwidth)`, sorted by tick;
    /// before the first step the first bandwidth applies.
    Steps(Vec<(u64, f64)>),
    /// A deterministic pseudo-random walk between `lo` and `hi`, seeded —
    /// wireless fading without nondeterminism.
    Walk {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Seed for the deterministic walk.
        seed: u64,
    },
}

impl BandwidthProfile {
    /// Bandwidth at a tick.
    #[must_use]
    pub fn at(&self, tick: u64) -> f64 {
        match self {
            BandwidthProfile::Constant(b) => *b,
            BandwidthProfile::Steps(steps) => {
                let mut bw = steps.first().map_or(0.0, |&(_, b)| b);
                for &(t, b) in steps {
                    if tick >= t {
                        bw = b;
                    } else {
                        break;
                    }
                }
                bw
            }
            BandwidthProfile::Walk { lo, hi, seed } => {
                // SplitMix64 on (seed, tick) → uniform in [lo, hi], smoothed
                // over a 4-tick window for walk-like behaviour.
                let mut acc = 0.0;
                for k in 0..4 {
                    let mut z = seed
                        .wrapping_add(tick.saturating_sub(k))
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^= z >> 31;
                    acc += (z >> 11) as f64 / (1u64 << 53) as f64;
                }
                lo + (hi - lo) * (acc / 4.0)
            }
        }
    }
}

/// A bidirectional link between two named devices.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: String,
    /// The other endpoint.
    pub b: String,
    /// Kind.
    pub kind: LinkKind,
    /// Bandwidth over time, bytes per tick.
    pub profile: BandwidthProfile,
    /// Latency in ticks.
    pub latency: u64,
    /// Whether the link is currently up (docked Ethernet goes down on
    /// undock).
    pub up: bool,
}

impl Link {
    /// A live link.
    #[must_use]
    pub fn new(a: &str, b: &str, kind: LinkKind, profile: BandwidthProfile, latency: u64) -> Self {
        Self { a: a.to_owned(), b: b.to_owned(), kind, profile, latency, up: true }
    }

    /// Whether the link joins the two names (order-insensitive).
    #[must_use]
    pub(crate) fn connects(&self, x: &str, y: &str) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }

    /// Whether the link touches the named device.
    #[must_use]
    pub fn touches(&self, x: &str) -> bool {
        self.a == x || self.b == x
    }

    /// Effective bandwidth at a tick (zero when down).
    #[must_use]
    pub(crate) fn bandwidth_at(&self, tick: u64) -> f64 {
        if self.up {
            self.profile.at(tick)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile() {
        assert_eq!(BandwidthProfile::Constant(100.0).at(0), 100.0);
        assert_eq!(BandwidthProfile::Constant(100.0).at(1000), 100.0);
    }

    #[test]
    fn step_profile_changes_at_boundaries() {
        let p = BandwidthProfile::Steps(vec![(0, 100.0), (10, 30.0), (20, 60.0)]);
        assert_eq!(p.at(0), 100.0);
        assert_eq!(p.at(9), 100.0);
        assert_eq!(p.at(10), 30.0);
        assert_eq!(p.at(19), 30.0);
        assert_eq!(p.at(25), 60.0);
    }

    #[test]
    fn walk_is_deterministic_and_bounded() {
        let p = BandwidthProfile::Walk { lo: 30.0, hi: 100.0, seed: 7 };
        for t in 0..500 {
            let v = p.at(t);
            assert!((30.0..=100.0).contains(&v), "t={t} v={v}");
            assert_eq!(v, p.at(t), "deterministic");
        }
        let q = BandwidthProfile::Walk { lo: 30.0, hi: 100.0, seed: 8 };
        assert_ne!(p.at(3), q.at(3), "different seeds differ");
    }

    #[test]
    fn walk_varies_over_time() {
        let p = BandwidthProfile::Walk { lo: 0.0, hi: 1.0, seed: 1 };
        let distinct: std::collections::BTreeSet<u64> =
            (0..50).map(|t| p.at(t).to_bits()).collect();
        assert!(distinct.len() > 10);
    }

    #[test]
    fn link_connects_and_down_means_zero() {
        let mut l =
            Link::new("laptop", "sensor", LinkKind::Wired, BandwidthProfile::Constant(500.0), 1);
        assert!(l.connects("sensor", "laptop"));
        assert!(!l.connects("laptop", "pda"));
        assert!(l.touches("laptop"));
        assert_eq!(l.bandwidth_at(5), 500.0);
        l.up = false;
        assert_eq!(l.bandwidth_at(5), 0.0);
    }
}
