//! `megacrowd` and `flashcrowd_armed`: the Patia serving layer used two
//! ways — ten million requests as flows through the event engine with
//! observability disarmed, and the paper's flash crowd plus a seeded
//! fault storyline served request by request with the hub armed.

use crate::catalog::LayerRows;
use crate::harness::{span_median_ns, Checks, RoundOutcome, Scale, Timed, Workload};
use crate::layers;
use crate::trace::{Folded, Recorder};
use adm_core::scenario::chaos::{self, ChaosParams, ChaosReport};
use adm_core::scenario::megacrowd::{self, MegaParams, MegaReport};
use adm_rng::Pcg32;
use obs::{Obs, Profile};
use patia::workload::{FlashCrowd, FlowSpec};
use std::collections::BTreeMap;

/// The mega-crowd with the seed jittering flow starts, burst positions
/// and the kill/revive ticks. Rates and lengths are untouched, so the
/// crowd still offers at least ten million requests.
#[must_use]
pub fn mega_params(seed: u64, scale: Scale) -> MegaParams {
    let mut rng = Pcg32::new(seed);
    let mut p = megacrowd::mega_crowd();
    for f in &mut p.flows {
        let shift = rng.below(40);
        f.start += shift;
        f.end += shift;
        if let Some(b) = &mut f.burst {
            // Anywhere in the flow's steady state, clear of the ramp.
            b.at = f.start + f.ramp + rng.below(f.end - f.start - f.ramp - b.len);
        }
    }
    p.kill_at = Some(550 + rng.below(100));
    p.revive_at = Some(850 + rng.below(100));
    if scale.quick {
        // A twentieth of the timeline: the supervisor's beat is paid per
        // processed tick, so only fewer ticks make the run shorter.
        for f in &mut p.flows {
            (f.start, f.end, f.ramp) = (f.start / 20, f.start / 20 + 50, f.ramp / 20);
            if let Some(b) = &mut f.burst {
                (b.at, b.len) = (f.start + f.ramp + 10, b.len / 20);
            }
        }
        p.kill_at = p.kill_at.map(|t| t / 20);
        p.revive_at = p.revive_at.map(|t| t / 20);
    }
    p
}

/// `megacrowd`.
pub struct MegaCrowd {
    params: MegaParams,
    offered: u64,
    quick: bool,
    last: Option<MegaReport>,
}

impl MegaCrowd {
    /// Generate the crowd from `seed`.
    #[must_use]
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let params = mega_params(seed, scale);
        let offered = params.flows.iter().map(FlowSpec::total_requests).sum();
        Self { params, offered, quick: scale.quick, last: None }
    }
}

impl Workload for MegaCrowd {
    fn round(&mut self, rec: &mut Recorder, checks: &mut Checks) -> RoundOutcome {
        let timed = Timed::start(rec);
        let span = rec.begin("core.megacrowd.run");
        let report = megacrowd::run(&self.params);
        rec.end(span);
        let secs = timed.stop(rec);

        checks.expect(report.conserved(), || format!("requests were lost: {report:?}"));
        checks.expect(report.queued_at_end == 0, || {
            format!("{} requests still queued at the horizon", report.queued_at_end)
        });
        checks.expect(report.totals.dropped == 0, || {
            format!("{} requests dropped on a fully replicated atom", report.totals.dropped)
        });
        checks.expect(report.offered == self.offered, || {
            format!("offered {} but the flows declare {}", report.offered, self.offered)
        });
        checks.expect(self.quick || self.offered >= 10_000_000, || {
            format!("the mega-crowd must offer at least 10M requests, not {}", self.offered)
        });
        self.last = Some(report);
        RoundOutcome { ops: self.offered, secs }
    }

    fn layer_rows(
        &mut self,
        folded: &BTreeMap<&'static str, Folded>,
        _rounds: u32,
        rows: &mut LayerRows,
    ) {
        rows.set("core.megacrowd.run_ms", span_median_ns(folded, "core.megacrowd.run") / 1e6);
        if let Some(r) = &self.last {
            rows.set("patia.engine.ticks_processed", r.totals.ticks_processed as f64);
            rows.set("patia.engine.ticks_skipped", r.totals.ticks_skipped as f64);
            rows.set("patia.engine.switches", r.totals.switches as f64);
            rows.set("patia.engine.evacuations", r.totals.evacuations as f64);
            rows.set("patia.engine.completed", r.totals.completed as f64);
        }
        layers::serving::drive_engine(&self.params, rows);
    }
}

/// The two armed storylines: the paper's flash crowd and the CI chaos
/// plan, both drawn from `seed`.
#[must_use]
pub fn armed_params(seed: u64, scale: Scale) -> (ChaosParams, ChaosParams) {
    let mut flash = ChaosParams { workload_seed: seed, ..chaos::paper_flash_crowd() };
    let faulted = ChaosParams { workload_seed: seed, ..chaos::ci_chaos(seed) };
    if scale.quick {
        flash.ticks = 100;
        flash.crowd = flash.crowd.map(|c| FlashCrowd { from: 20, to: 60, ..c });
    }
    (flash, faulted)
}

/// `flashcrowd_armed`.
pub struct FlashCrowdArmed {
    seed: u64,
    flash: ChaosParams,
    faulted: ChaosParams,
    /// `(trace events, sim cycles, completed)` of the last round.
    last: (u64, u64, u64),
}

impl FlashCrowdArmed {
    /// Generate both storylines from `seed`.
    #[must_use]
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let (flash, faulted) = armed_params(seed, scale);
        Self { seed, flash, faulted, last: (0, 0, 0) }
    }
}

fn check_armed(what: &str, report: &ChaosReport, hub: &Obs, checks: &mut Checks) {
    checks.expect(report.conserved(), || {
        format!(
            "{what}: {} arrivals != {} completed + {} dropped + {} queued",
            report.arrivals, report.completed, report.dropped, report.queued_at_end
        )
    });
    checks.expect(report.switches_consistent, || format!("{what}: switch counters disagree"));
    checks.expect(report.reconfigs_rolled_back == 0, || {
        format!("{what}: {} mirrored SWITCHes rolled back", report.reconfigs_rolled_back)
    });
    let profile = Profile::build(hub.tracer.events(), hub.clock());
    checks.expect(profile.self_total() == hub.clock(), || {
        format!("{what}: profile covers {} of {} cycles", profile.self_total(), hub.clock())
    });
}

impl Workload for FlashCrowdArmed {
    fn round(&mut self, rec: &mut Recorder, checks: &mut Checks) -> RoundOutcome {
        let timed = Timed::start(rec);
        let span = rec.begin("core.chaos.flash_run");
        let (flash, flash_hub) = chaos::run_observed(&self.flash);
        rec.end(span);
        let span = rec.begin("core.chaos.faulted_run");
        let (faulted, faulted_hub) = chaos::run_observed(&self.faulted);
        rec.end(span);
        let secs = timed.stop(rec);

        check_armed("flash crowd", &flash, &flash_hub, checks);
        check_armed("fault storyline", &faulted, &faulted_hub, checks);
        let completed = flash.completed + faulted.completed;
        self.last = (
            (flash_hub.tracer.events().len() + faulted_hub.tracer.events().len()) as u64,
            flash_hub.clock() + faulted_hub.clock(),
            completed,
        );
        RoundOutcome { ops: completed, secs }
    }

    fn layer_rows(
        &mut self,
        folded: &BTreeMap<&'static str, Folded>,
        _rounds: u32,
        rows: &mut LayerRows,
    ) {
        rows.set("core.chaos.flash_run_ms", span_median_ns(folded, "core.chaos.flash_run") / 1e6);
        rows.set(
            "core.chaos.faulted_run_ms",
            span_median_ns(folded, "core.chaos.faulted_run") / 1e6,
        );
        let (events, cycles, completed) = self.last;
        rows.set("obs.armed.events_per_request", events as f64 / completed as f64);
        rows.set("obs.armed.sim_cycles_per_request", cycles as f64 / completed as f64);
        let crowd = self.flash.crowd.expect("the flash crowd storyline has a crowd");
        layers::serving::drive_armed_path(self.seed, crowd, rows);
    }
}

/// Fingerprint of the inputs `seed` generates for `megacrowd`.
#[must_use]
pub fn mega_input_digest(seed: u64, scale: Scale) -> u64 {
    obs::fnv1a(format!("{:?}", mega_params(seed, scale)).as_bytes())
}

/// Fingerprint of the inputs `seed` generates for `flashcrowd_armed`.
#[must_use]
pub fn armed_input_digest(seed: u64, scale: Scale) -> u64 {
    let (flash, faulted) = armed_params(seed, scale);
    obs::fnv1a(format!("{flash:?}{faulted:?}").as_bytes())
}
