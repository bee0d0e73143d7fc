//! Intra-request adaptivity: mid-delivery codec swapping.
//!
//! > "Intra-request adaptivity could be that while the server is delivering
//! > some streaming media (e.g. audio) the codec of the stream is chosen to
//! > best suit the bandwidth, and if the bandwidth should change during mid
//! > delivery, then a new less bandwidth hungry codec is swapped in."
//!
//! This is also the paper's Kendra system ("a simple adaptive audio
//! server") distilled: a [`StreamSession`] delivers media at the bitrate of
//! its current codec; a bandwidth monitor feeds each tick; when the
//! smoothed bandwidth can no longer sustain the codec (or comfortably
//! affords a better one), the session swaps codecs **at the next frame
//! boundary** — the stream-level safe point — and the listener experiences
//! a quality change instead of a stall.

use std::fmt;

/// A media codec: a bitrate/quality point.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCodec {
    /// Codec name (`pcm`, `half`, `small`...).
    pub name: String,
    /// Bytes per media-second this codec needs on the wire.
    pub bytes_per_sec: f64,
    /// Perceptual quality in (0, 1].
    pub quality: f64,
}

/// The standard ladder used by the examples/benches: full, half, small —
/// mirroring Table 2's `video`, `videohalf`, `videosmall`.
#[must_use]
pub fn default_ladder() -> Vec<StreamCodec> {
    vec![
        StreamCodec { name: "full".into(), bytes_per_sec: 120.0, quality: 1.0 },
        StreamCodec { name: "half".into(), bytes_per_sec: 60.0, quality: 0.6 },
        StreamCodec { name: "small".into(), bytes_per_sec: 25.0, quality: 0.3 },
    ]
}

/// One tick's delivery outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// A media second was delivered on time.
    Played,
    /// Bandwidth could not sustain the codec: the listener heard silence.
    Stalled,
    /// Delivery finished.
    Finished,
}

/// A codec swap record.
#[derive(Debug, Clone, PartialEq)]
pub struct Swap {
    /// Media position (seconds) of the frame boundary where the swap
    /// took effect.
    pub at_media_sec: u64,
    /// Codec swapped from.
    pub from: String,
    /// Codec swapped to.
    pub to: String,
}

impl fmt::Display for Swap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}s {} -> {}", self.at_media_sec, self.from, self.to)
    }
}

/// A streaming session delivering `duration_secs` of media, one media
/// second per tick when bandwidth allows.
#[derive(Debug, Clone)]
pub struct StreamSession {
    ladder: Vec<StreamCodec>,
    current: usize,
    /// Whether mid-delivery swapping is enabled.
    pub adaptive: bool,
    /// Frame-boundary (safe-point) spacing in media seconds.
    pub frame_boundary: u64,
    duration_secs: u64,
    position_secs: u64,
    /// Headroom factor: a codec is sustainable when its rate ≤ bandwidth ×
    /// this (guards against flapping on noisy links).
    pub headroom: f64,
    ewma_bw: Option<f64>,
    stalls: u64,
    delivered_bytes: f64,
    quality_integral: f64,
    swaps: Vec<Swap>,
}

impl StreamSession {
    /// A session over a codec ladder (must be sorted best-first).
    ///
    /// # Panics
    /// If the ladder is empty.
    #[must_use]
    pub fn new(ladder: Vec<StreamCodec>, duration_secs: u64, adaptive: bool) -> Self {
        assert!(!ladder.is_empty(), "need at least one codec");
        Self {
            ladder,
            current: 0,
            adaptive,
            frame_boundary: 5,
            duration_secs,
            position_secs: 0,
            headroom: 0.9,
            ewma_bw: None,
            stalls: 0,
            delivered_bytes: 0.0,
            quality_integral: 0.0,
            swaps: Vec::new(),
        }
    }

    /// The codec currently in use.
    #[must_use]
    pub fn codec(&self) -> &StreamCodec {
        &self.ladder[self.current]
    }

    /// Stall count so far.
    #[must_use]
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Mean quality of the media seconds delivered so far.
    #[must_use]
    pub fn mean_quality(&self) -> f64 {
        if self.position_secs == 0 {
            0.0
        } else {
            self.quality_integral / self.position_secs as f64
        }
    }

    /// Codec swaps performed.
    #[must_use]
    pub fn swaps(&self) -> &[Swap] {
        &self.swaps
    }

    /// Media position (seconds delivered).
    #[must_use]
    pub fn position(&self) -> u64 {
        self.position_secs
    }

    fn best_sustainable(&self, bw: f64) -> usize {
        self.ladder
            .iter()
            .position(|c| c.bytes_per_sec <= bw * self.headroom)
            .unwrap_or(self.ladder.len() - 1)
    }

    /// Deliver one tick of media under `bandwidth` (bytes per tick).
    pub fn tick(&mut self, bandwidth: f64) -> TickOutcome {
        if self.position_secs >= self.duration_secs {
            return TickOutcome::Finished;
        }
        // Smooth the monitored bandwidth (a gauge, not a raw monitor).
        let bw = match self.ewma_bw {
            None => bandwidth,
            Some(prev) => 0.4 * bandwidth + 0.6 * prev,
        };
        self.ewma_bw = Some(bw);

        // Up-swaps wait for a frame boundary (the intra-request safe
        // point); down-swaps may also happen while stalled — a rebuffering
        // stream is delivering nothing, which is trivially a safe point.
        if self.adaptive {
            let target = self.best_sustainable(bw);
            let at_boundary = self.position_secs.is_multiple_of(self.frame_boundary);
            let emergency = target > self.current; // worse codec needed now
            if target != self.current && (at_boundary || emergency) {
                self.swaps.push(Swap {
                    at_media_sec: self.position_secs,
                    from: self.ladder[self.current].name.clone(),
                    to: self.ladder[target].name.clone(),
                });
                self.current = target;
            }
        }

        let need = self.ladder[self.current].bytes_per_sec;
        if bandwidth < need {
            self.stalls += 1;
            return TickOutcome::Stalled;
        }
        self.delivered_bytes += need;
        self.quality_integral += self.ladder[self.current].quality;
        self.position_secs += 1;
        if self.position_secs >= self.duration_secs {
            TickOutcome::Finished
        } else {
            TickOutcome::Played
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubinet::link::BandwidthProfile;

    fn run(profile: &BandwidthProfile, adaptive: bool, secs: u64) -> StreamSession {
        let mut s = StreamSession::new(default_ladder(), secs, adaptive);
        let mut tick = 0u64;
        loop {
            tick += 1;
            assert!(tick < 100_000, "stream never finished");
            if s.tick(profile.at(tick)) == TickOutcome::Finished {
                return s;
            }
        }
    }

    #[test]
    fn rich_bandwidth_streams_full_quality_without_swaps() {
        let s = run(&BandwidthProfile::Constant(500.0), true, 60);
        assert_eq!(s.codec().name, "full");
        assert!(s.swaps().is_empty());
        assert_eq!(s.stalls(), 0);
        assert!((s.mean_quality() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_drop_mid_delivery_swaps_down_at_a_boundary() {
        // 500 B/t for 30 ticks, then 40 B/t: full (120 B/s) unsustainable.
        // (Recovers at tick 4000 so the non-adaptive baseline can finish
        // at all — it spends the whole trough stalled.)
        let profile = BandwidthProfile::Steps(vec![(0, 500.0), (30, 40.0), (4000, 500.0)]);
        let s = run(&profile, true, 60);
        assert!(!s.swaps().is_empty(), "must swap down");
        let swap = &s.swaps()[0];
        assert_eq!(swap.from, "full");
        assert!(s.mean_quality() < 1.0);
        // A few stalls while the EWMA catches up are allowed; far fewer
        // than the non-adaptive session's.
        let fixed = run(&profile, false, 60);
        assert!(s.stalls() < fixed.stalls() / 3, "{} vs {}", s.stalls(), fixed.stalls());
    }

    #[test]
    fn bandwidth_recovery_swaps_back_up() {
        let profile = BandwidthProfile::Steps(vec![(0, 40.0), (60, 500.0)]);
        let s = run(&profile, true, 90);
        let up = s
            .swaps()
            .iter()
            .find(|sw| sw.to == "full" && sw.at_media_sec > 0)
            .unwrap_or_else(|| panic!("{:?}", s.swaps()));
        assert_eq!(up.at_media_sec % 5, 0, "up-swaps only at frame boundaries");
        assert!(s.mean_quality() > 0.3, "ends at better quality");
    }

    #[test]
    fn static_session_stalls_through_the_trough() {
        let profile = BandwidthProfile::Steps(vec![(0, 500.0), (20, 40.0), (120, 500.0)]);
        let fixed = run(&profile, false, 60);
        let adaptive = run(&profile, true, 60);
        assert!(fixed.stalls() > 50, "fixed codec must stall through the trough");
        assert!(adaptive.stalls() < 10);
        // The trade: adaptive sacrifices quality, never delivery.
        assert!(adaptive.mean_quality() < fixed.mean_quality());
        assert!(adaptive.delivered_bytes < fixed.delivered_bytes);
    }

    #[test]
    fn walk_profile_keeps_swaps_bounded() {
        // Noisy wireless: EWMA + headroom must avoid flapping every tick.
        let profile = BandwidthProfile::Walk { lo: 30.0, hi: 200.0, seed: 5 };
        let s = run(&profile, true, 200);
        assert!(s.swaps().len() < 40, "smoothing should bound swap churn, got {}", s.swaps().len());
        assert!(s.position() == 200);
    }

    #[test]
    #[should_panic(expected = "at least one codec")]
    fn empty_ladder_rejected() {
        let _ = StreamSession::new(vec![], 10, true);
    }
}
