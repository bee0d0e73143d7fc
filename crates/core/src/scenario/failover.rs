//! Failure mid-query — the paper's architectural requirement beyond the
//! three numbered scenarios:
//!
//! > "At an architectural level the system must be able to cope with units
//! > failing – perhaps mid way through answering a query (and being
//! > replaced with minimal maintenance or the whole processing 'jumping'
//! > to another device to continue/finish)."
//!
//! A join executes on the laptop, reaching safe points every `interval`
//! outer rows; each safe point's consistent state (outer position, partial
//! result digest) is checkpointed to the State Manager, whose archive is
//! replicated to the fallback device. When the laptop dies mid-query, the
//! query *jumps*: the fallback device restores the latest safe point and
//! continues from there — re-doing only the work since the last checkpoint,
//! never restarting from zero.

use compkit::state::{SafePoint, StateManager};
use datacomp::{concat, Row, Table};
use query::op::WorkCounter;
use query::workload::{gen_table, KeyDist};
use ubinet::device::{Device, DeviceKind};
use ubinet::link::{BandwidthProfile, Link, LinkKind};
use ubinet::net::Network;
use ubinet::sim::{EnvEvent, Simulator};

/// Scenario parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverParams {
    /// Rows in each joined table.
    pub rows: usize,
    /// Outer rows between safe points (checkpoint granularity).
    pub safe_point_interval: u64,
    /// Outer rows the laptop processes per simulation tick.
    pub rows_per_tick: u64,
    /// Tick at which the laptop dies; `u64::MAX` = never.
    pub fail_tick: u64,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for FailoverParams {
    fn default() -> Self {
        Self { rows: 1_500, safe_point_interval: 100, rows_per_tick: 40, fail_tick: 20, seed: 11 }
    }
}

/// The scenario's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverReport {
    /// Tick the laptop died (None if it survived the query).
    pub failed_at: Option<u64>,
    /// Device that produced the final answer.
    pub finished_on: String,
    /// Outer position restored from the State Manager after the jump.
    pub resumed_from: Option<u64>,
    /// Outer rows re-processed because they followed the last safe point.
    pub rows_redone: u64,
    /// Outer rows that would have been redone by a restart-from-zero
    /// strategy (for comparison).
    pub rows_redone_restart: u64,
    /// Result rows of the completed query.
    pub rows_out: u64,
    /// Ticks from query start to completion.
    pub total_ticks: u64,
}

/// One device's in-progress hash join over the two tables: build side fully
/// hashed, probe side consumed outer-row by outer-row. The probe position
/// is the safe-point progress mark.
struct JoinWorker {
    outer_pos: usize,
    out: Vec<Row>,
}

impl JoinWorker {
    fn fresh() -> Self {
        Self { outer_pos: 0, out: Vec::new() }
    }

    fn restore(progress: u64, replayed: Vec<Row>) -> Self {
        Self { outer_pos: progress as usize, out: replayed }
    }

    /// Process up to `n` outer rows; returns rows processed.
    fn step(&mut self, outer: &Table, inner: &Table, n: u64, work: &WorkCounter) -> u64 {
        let end = (self.outer_pos + n as usize).min(outer.len());
        let mut done = 0;
        for row in &outer.rows()[self.outer_pos..end] {
            work.moved(1);
            work.hash_probe(1);
            for irow in inner.rows() {
                if irow[0] == row[0] {
                    self.out.push(concat(row, irow));
                }
            }
            done += 1;
        }
        self.outer_pos = end;
        done
    }

    fn finished(&self, outer: &Table) -> bool {
        self.outer_pos >= outer.len()
    }
}

/// Run the scenario.
///
/// # Panics
/// If the simulation fails to converge (bounded internally).
#[must_use]
pub fn run(p: &FailoverParams) -> FailoverReport {
    // Environment: laptop (primary) and server (fallback), linked.
    let mut net = Network::new();
    net.add_device(Device::new("laptop", DeviceKind::Laptop));
    net.add_device(Device::new("server", DeviceKind::Server));
    net.add_link(Link::new(
        "laptop",
        "server",
        LinkKind::Wired,
        BandwidthProfile::Constant(1_000.0),
        1,
    ));
    let mut sim = Simulator::new(net, 0.0);
    if p.fail_tick != u64::MAX {
        sim.schedule(p.fail_tick, EnvEvent::SetAlive { device: "laptop".into(), alive: false });
    }

    let dist = KeyDist::Uniform { domain: 40 };
    let outer = gen_table(p.rows, dist, p.seed);
    let inner = gen_table(p.rows / 2, dist, p.seed + 1);

    let work = WorkCounter::new();
    let mut states = StateManager::new(); // replicated checkpoint archive
    let mut worker = JoinWorker::fresh();
    let mut device = "laptop".to_owned();
    let mut failed_at = None;
    let mut resumed_from = None;
    let mut rows_redone = 0;
    let mut rows_redone_restart = 0;
    let mut last_checkpoint: u64 = 0;

    let mut tick = 0u64;
    while !worker.finished(&outer) {
        tick += 1;
        assert!(tick < 1_000_000, "failover scenario diverged");
        sim.advance(tick);

        // Has our device died? Jump to the fallback.
        let alive = sim.net.device(&device).is_some_and(|d| d.alive);
        if !alive {
            failed_at = Some(tick);
            // The fallback is chosen by BEST among survivors.
            let fallback =
                ubinet::select::best(&sim.net, &["server"]).expect("fallback survives").to_owned();
            // Restore the latest replicated safe point.
            let sp = states.latest("join-query");
            let progress = sp.map_or(0, |s| s.progress);
            resumed_from = Some(progress);
            rows_redone = worker.outer_pos as u64 - progress;
            rows_redone_restart = worker.outer_pos as u64;
            // Replay: the fallback re-derives partial results up to the
            // checkpoint (deterministic), then continues.
            let mut replayed = JoinWorker::fresh();
            replayed.step(&outer, &inner, progress, &work);
            worker = JoinWorker::restore(progress, replayed.out);
            device = fallback;
            continue;
        }

        // Process a tick's worth of outer rows.
        worker.step(&outer, &inner, p.rows_per_tick, &work);

        // Checkpoint at safe-point boundaries (replicated to the archive).
        let boundary = (worker.outer_pos as u64 / p.safe_point_interval) * p.safe_point_interval;
        if boundary > last_checkpoint {
            last_checkpoint = boundary;
            states.record(SafePoint {
                component: "join-query".into(),
                progress: boundary,
                taken_at: tick,
                state: boundary.to_le_bytes().to_vec(),
            });
        }
    }

    FailoverReport {
        failed_at,
        finished_on: device,
        resumed_from,
        rows_redone,
        rows_redone_restart,
        rows_out: worker.out.len() as u64,
        total_ticks: tick,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_rows(p: &FailoverParams) -> u64 {
        // The no-failure run is the oracle.
        run(&FailoverParams { fail_tick: u64::MAX, ..p.clone() }).rows_out
    }

    #[test]
    fn query_survives_device_death_with_identical_results() {
        let p = FailoverParams::default();
        let r = run(&p);
        assert_eq!(r.failed_at, Some(p.fail_tick));
        assert_eq!(r.finished_on, "server");
        assert_eq!(r.rows_out, oracle_rows(&p), "failover must not change the answer");
    }

    #[test]
    fn resume_happens_from_the_latest_safe_point() {
        let p = FailoverParams::default();
        let r = run(&p);
        let resumed = r.resumed_from.expect("jumped");
        assert_eq!(resumed % p.safe_point_interval, 0);
        // Work redone is bounded by one checkpoint interval...
        assert!(r.rows_redone < p.safe_point_interval);
        // ...and is far less than restarting from zero would cost.
        assert!(r.rows_redone < r.rows_redone_restart);
    }

    #[test]
    fn no_failure_means_no_jump() {
        let r = run(&FailoverParams { fail_tick: u64::MAX, ..Default::default() });
        assert_eq!(r.failed_at, None);
        assert_eq!(r.finished_on, "laptop");
        assert_eq!(r.resumed_from, None);
        assert_eq!(r.rows_redone, 0);
    }

    #[test]
    fn finer_checkpoints_redo_less_work() {
        let coarse = run(&FailoverParams { safe_point_interval: 400, ..Default::default() });
        let fine = run(&FailoverParams { safe_point_interval: 50, ..Default::default() });
        assert!(fine.rows_redone <= coarse.rows_redone);
        assert_eq!(fine.rows_out, coarse.rows_out);
    }

    #[test]
    fn very_early_failure_restarts_from_zero_gracefully() {
        // Dies before the first checkpoint: resume point is 0.
        let r = run(&FailoverParams { fail_tick: 1, rows_per_tick: 10, ..Default::default() });
        assert_eq!(r.resumed_from, Some(0));
        assert_eq!(r.rows_out, oracle_rows(&FailoverParams::default()));
    }
}
