//! The metric catalogue: every workload and every metric this benchmark
//! can print, with its unit, direction, layer and — written down before
//! anything was measured — which end-to-end metric it should move on
//! which workload. `BENCHMARK.json` at the repository root and the tables
//! in `README.md` are checked against this file by the test suite.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: its name, its op, and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// What one op is.
    pub op: &'static str,
    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
}

/// An end-to-end metric. Every workload reports every one of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// What it measures.
    pub what: &'static str,
}

/// A per-layer metric, reported by the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name: `<crate>.<module>.<what>_<unit>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The workloads whose traced run fills the row (elsewhere it reads 0).
    pub on: &'static str,
    /// The end-to-end metric the row should move, and where.
    pub moves: &'static str,
}

/// The eight workloads.
pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "megacrowd",
        op: "one request served",
        why: "10M requests as flows through the event engine, obs disarmed: supervision, ubinet and the timer wheel do all the work; store, txn, obs and systab are bypassed",
    },
    WorkloadInfo {
        name: "flashcrowd_armed",
        op: "one request completed",
        why: "the paper's flash crowd plus a seeded fault storyline with the hub armed: per-request vectors, journalled SWITCH mirrors and in-situ obs billing; a batching-only gain predicts no change here",
    },
    WorkloadInfo {
        name: "store_thrash",
        op: "one get, scan_range or four-op apply",
        why: "4096 x 480-byte records behind a 64-frame pool (1/8 of the data): pool misses, eviction and write-back dominate",
    },
    WorkloadInfo {
        name: "store_resident",
        op: "one get, scan_range or four-op apply",
        why: "same records, mix and seed with a 2048-frame pool that holds everything: btree, page and wal dominate, so an eviction change predicts no movement here",
    },
    WorkloadInfo {
        name: "store_recover",
        op: "one WAL record replayed",
        why: "crash then recover() over the WAL the store mix leaves behind, torn transaction included: the only workload where replay and page rebuild are the whole cost",
    },
    WorkloadInfo {
        name: "txn_switch",
        op: "one cross-shard SWITCH settled",
        why: "a three-shard ping-pong of 2PC SWITCHes, every 64th crashed at a rotating point and recovered: lock manager, transaction log, planlint and the per-shard commit path",
    },
    WorkloadInfo {
        name: "dbm_spj",
        op: "one select-project-join query",
        why: "the Database Machine's SPJ over 20k Zipf orders x 2k customers at batch 1, 64 and 512: ORB crossings dominate at 1, relational operators at 512",
    },
    WorkloadInfo {
        name: "introspect",
        op: "one telemetry event emitted, reported and queried",
        why: "monitors to gauges to rules as tables: an armed-run-shaped emission stream into a fresh hub, then profile/digest/chrome export, then seven sys.* tables built and scanned",
    },
];

/// The end-to-end metrics.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median of five or more set-ups: inputs generated, system built and loaded, one warm-up round",
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
        what: "ops per host second inside the program, from the first-quartile round",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        what: "VmHWM of the workload's own process at exit",
    },
];

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, on, moves }
}

use Better::{Higher, Lower};

const SERVING: &str = "megacrowd, flashcrowd_armed";
const MEGA: &str = "megacrowd";
const FLASH: &str = "flashcrowd_armed";
const STORE: &str = "store_thrash, store_resident, store_recover";
const STORE_MIX: &str = "store_thrash, store_resident";
const TXN: &str = "txn_switch";
const DBM: &str = "dbm_spj";
const INTRO: &str = "introspect";
const ALL: &str = "all";

const TP_MEGA: &str =
    "throughput_ops_s on megacrowd (16-node mesh), less on flashcrowd_armed (5 nodes)";
const TP_MEGA_ONLY: &str = "throughput_ops_s on megacrowd; flashcrowd_armed only via step_at";
const TP_FLASH: &str = "throughput_ops_s on flashcrowd_armed; not megacrowd";
const TP_INTRO_EMIT: &str =
    "throughput_ops_s (emit phase) and peak_rss_mb on introspect; <=3% of flashcrowd_armed";
const TP_INTRO_REPORT: &str = "throughput_ops_s (report phase) on introspect; no other workload";
const TP_INTRO_QUERY: &str = "throughput_ops_s (query phase) on introspect; no other workload";
const TP_STORE: &str = "throughput_ops_s on the store workloads; txn_switch via persist_steps";
const TP_POOL: &str = "throughput_ops_s on store_thrash; not store_resident (hit_pct 100)";
const TP_STORE_BASE: &str =
    "throughput_ops_s and peak_rss_mb on store_resident most, store_thrash and store_recover too";
const TP_TXN: &str = "throughput_ops_s on txn_switch; no other workload";
const TP_DBM_ORB: &str = "throughput_ops_s (batch-1 regime) and setup_s on dbm_spj";
const TP_DBM_REL: &str = "throughput_ops_s (batch-512 regime) on dbm_spj";
const OFF_PATH: &str = "off every workload's path: no end-to-end metric should move";
const NONE: &str = "none: describes the measurement itself";

/// The per-layer metrics, grouped by the layer they belong to.
pub const PER_LAYER: &[PerLayer] = &[
    // -- supervision and the simulated network ---------------------------
    row("patia.supervise.beat_ns", "ns", Lower, SERVING, TP_MEGA),
    row("ubinet.net.heartbeat_ns", "ns", Lower, SERVING, TP_MEGA),
    row("ubinet.net.hop_distance_ns", "ns", Lower, SERVING, TP_MEGA),
    row("ubinet.select.best_ns", "ns", Lower, SERVING, TP_MEGA),
    row("ubinet.net.path_metrics_ns", "ns", Lower, SERVING, TP_MEGA),
    // -- the event-driven serving core -----------------------------------
    row("patia.wheel.schedule_ns", "ns", Lower, MEGA, TP_MEGA_ONLY),
    row("patia.wheel.pop_due_ns", "ns", Lower, MEGA, TP_MEGA_ONLY),
    row("patia.workload.emit_ns", "ns", Lower, MEGA, TP_MEGA_ONLY),
    row("patia.agent.batch_ns", "ns", Lower, MEGA, TP_MEGA_ONLY),
    row("patia.server.step_at_ns", "ns", Lower, SERVING, TP_MEGA_ONLY),
    row("patia.engine.run_tick_ns", "ns", Lower, MEGA, TP_MEGA_ONLY),
    row("patia.engine.ticks_processed", "count", Lower, MEGA, TP_MEGA_ONLY),
    row("patia.engine.ticks_skipped", "count", Higher, MEGA, TP_MEGA_ONLY),
    row("patia.engine.switches", "count", Lower, MEGA, TP_MEGA_ONLY),
    row("patia.engine.evacuations", "count", Lower, MEGA, TP_MEGA_ONLY),
    row("patia.engine.completed", "count", Higher, MEGA, TP_MEGA_ONLY),
    row("core.megacrowd.run_ms", "ms", Lower, MEGA, TP_MEGA_ONLY),
    // -- the armed, per-request serving path -----------------------------
    row("core.chaos.flash_run_ms", "ms", Lower, FLASH, TP_FLASH),
    row("core.chaos.faulted_run_ms", "ms", Lower, FLASH, TP_FLASH),
    row("patia.server.tick_ns", "ns", Lower, FLASH, TP_FLASH),
    row("patia.rules.blocked_peers_ns", "ns", Lower, FLASH, TP_FLASH),
    row("compkit.adaptivity.switch_ns", "ns", Lower, FLASH, TP_FLASH),
    row("compkit.journal.recover_ns", "ns", Lower, FLASH, TP_FLASH),
    row("compkit.planlint.lint_ns", "ns", Lower, "flashcrowd_armed, txn_switch", TP_FLASH),
    row("compkit.gauge.record_ns", "ns", Lower, FLASH, TP_FLASH),
    row("compkit.gauge.resample_ns", "ns", Lower, FLASH, TP_FLASH),
    row("adl.diff_ns", "ns", Lower, FLASH, TP_FLASH),
    row("faultsim.plan.build_ns", "ns", Lower, FLASH, TP_FLASH),
    row("obs.armed.events_per_request", "ratio", Lower, FLASH, TP_FLASH),
    row("obs.armed.sim_cycles_per_request", "cycles", Lower, FLASH, NONE),
    // -- telemetry: emit --------------------------------------------------
    row("obs.emit_ns_per_event", "ns", Lower, INTRO, TP_INTRO_EMIT),
    row("obs.charge_n_ns", "ns", Lower, INTRO, TP_INTRO_EMIT),
    row("obs.counter_add_ns", "ns", Lower, INTRO, TP_INTRO_EMIT),
    row("obs.observe_n_ns", "ns", Lower, INTRO, TP_INTRO_EMIT),
    row("obs.gauge_set_ns", "ns", Lower, INTRO, TP_INTRO_EMIT),
    row("obs.span_ns", "ns", Lower, INTRO, TP_INTRO_EMIT),
    row("obs.instant_ns", "ns", Lower, INTRO, TP_INTRO_EMIT),
    row("obs.tracer.bytes_per_event", "bytes", Lower, INTRO, TP_INTRO_EMIT),
    // -- telemetry: report ------------------------------------------------
    row("obs.report_ms", "ms", Lower, INTRO, TP_INTRO_REPORT),
    row("obs.profile.build_ns_per_event", "ns", Lower, INTRO, TP_INTRO_REPORT),
    row("obs.digest_ns_per_event", "ns", Lower, INTRO, TP_INTRO_REPORT),
    row("obs.chrome.export_ns_per_event", "ns", Lower, INTRO, TP_INTRO_REPORT),
    // -- telemetry: query -------------------------------------------------
    row("systab.query_ns_per_row", "ns", Lower, INTRO, TP_INTRO_QUERY),
    row("systab.tables.metrics_ns_per_row", "ns", Lower, INTRO, TP_INTRO_QUERY),
    row("systab.tables.spans_ns_per_row", "ns", Lower, INTRO, TP_INTRO_QUERY),
    row("systab.tables.supervision_ns_per_row", "ns", Lower, INTRO, TP_INTRO_QUERY),
    row("systab.tables.switches_ns_per_row", "ns", Lower, INTRO, TP_INTRO_QUERY),
    row("systab.tables.pool_ns_per_row", "ns", Lower, INTRO, TP_INTRO_QUERY),
    row("systab.tables.timers_ns_per_row", "ns", Lower, INTRO, TP_INTRO_QUERY),
    row("systab.tables.txns_ns_per_row", "ns", Lower, INTRO, TP_INTRO_QUERY),
    row("systab.scan.scan_rows_ns_per_row", "ns", Lower, INTRO, TP_INTRO_QUERY),
    row("systab.scan.filter_count_ns_per_row", "ns", Lower, INTRO, TP_INTRO_QUERY),
    row("systab.scan.sum_int_ns_per_row", "ns", Lower, INTRO, TP_INTRO_QUERY),
    row("systab.rows_served", "count", Lower, INTRO, TP_INTRO_QUERY),
    // -- storage engine ---------------------------------------------------
    row("store.engine.get_hit_ns", "ns", Lower, STORE_MIX, TP_STORE),
    row("store.engine.get_miss_ns", "ns", Lower, STORE_MIX, TP_STORE),
    row("store.engine.apply_ns_per_op", "ns", Lower, STORE_MIX, TP_STORE),
    row("store.engine.scan_range_ns_per_row", "ns", Lower, STORE_MIX, TP_STORE),
    row("store.engine.recover_ns_per_record", "ns", Lower, STORE, TP_STORE),
    row("store.engine.recover_ms", "ms", Lower, STORE, TP_STORE),
    row("store.pool.fetch_hit_ns", "ns", Lower, STORE, TP_POOL),
    row("store.pool.fetch_miss_ns", "ns", Lower, STORE, TP_POOL),
    row("store.pool.hit_pct", "%", Higher, STORE_MIX, TP_POOL),
    row("store.pool.misses", "count", Lower, STORE_MIX, TP_POOL),
    row("store.pool.writebacks", "count", Lower, STORE_MIX, TP_POOL),
    row("store.btree.get_ns", "ns", Lower, STORE, TP_STORE_BASE),
    row("store.btree.insert_ns", "ns", Lower, STORE, TP_STORE_BASE),
    row("store.btree.remove_ns", "ns", Lower, STORE, TP_STORE_BASE),
    row("store.btree.range_ns", "ns", Lower, STORE, TP_STORE_BASE),
    row("store.btree.depth", "count", Lower, STORE, TP_STORE_BASE),
    row("store.page.insert_ns", "ns", Lower, STORE, TP_STORE_BASE),
    row("store.page.get_ns", "ns", Lower, STORE, TP_STORE_BASE),
    row("store.page.delete_ns", "ns", Lower, STORE, TP_STORE_BASE),
    row("store.wal.append_ns", "ns", Lower, STORE, TP_STORE_BASE),
    row("store.wal.records", "count", Lower, STORE, TP_STORE_BASE),
    row("store.wal.bytes_per_user_byte", "ratio", Lower, STORE, TP_STORE_BASE),
    // -- transaction core -------------------------------------------------
    row("txn.core.commit_ns", "ns", Lower, TXN, TP_TXN),
    row("txn.core.commit_p99_us", "us", Lower, TXN, TP_TXN),
    row("txn.core.recover_ns", "ns", Lower, TXN, TP_TXN),
    row("txn.lock.acquire_ns", "ns", Lower, TXN, TP_TXN),
    row("txn.lock.release_all_ns", "ns", Lower, TXN, TP_TXN),
    row("txn.lock.detect_deadlock_ns", "ns", Lower, TXN, TP_TXN),
    row("txn.lock.grants", "count", Lower, TXN, TP_TXN),
    row("txn.lock.conflicts", "count", Lower, TXN, TP_TXN),
    row("txn.log.append_ns", "ns", Lower, TXN, TP_TXN),
    row("txn.log.open_txns_ns", "ns", Lower, TXN, TP_TXN),
    row("txn.log.truncate_ended_ns", "ns", Lower, TXN, TP_TXN),
    row("txn.log.appended_total", "count", Lower, TXN, TP_TXN),
    row("txn.shard.apply_step_ns", "ns", Lower, TXN, TP_TXN),
    row("txn.shard.persist_steps_ns", "ns", Lower, TXN, TP_TXN),
    row("txn.core.log_forces_per_commit", "ratio", Lower, TXN, TP_TXN),
    row("txn.core.sim_cycles_per_commit", "cycles", Lower, TXN, NONE),
    // -- the Database Machine: kernel side --------------------------------
    row("core.dbm.run_spj_b1_ms", "ms", Lower, DBM, TP_DBM_ORB),
    row("core.dbm.run_spj_b64_ms", "ms", Lower, DBM, TP_DBM_REL),
    row("core.dbm.run_spj_b512_ms", "ms", Lower, DBM, TP_DBM_REL),
    row("core.dbm.boot_ns", "ns", Lower, DBM, TP_DBM_ORB),
    row("gokernel.orb.invoke_ns", "ns", Lower, DBM, TP_DBM_ORB),
    row("gokernel.orb.invoke_sim_cycles", "cycles", Lower, DBM, NONE),
    row("gokernel.sisr.verify_ns_per_instr", "ns", Lower, DBM, TP_DBM_ORB),
    row("gokernel.kernels.null_rpc_ns.bsd", "ns", Lower, DBM, OFF_PATH),
    row("gokernel.kernels.null_rpc_ns.mach", "ns", Lower, DBM, OFF_PATH),
    row("gokernel.kernels.null_rpc_ns.l4", "ns", Lower, DBM, OFF_PATH),
    row("gokernel.kernels.null_rpc_ns.go", "ns", Lower, DBM, TP_DBM_ORB),
    row("machine.cpu.sim_instr_per_s", "1/s", Higher, DBM, TP_DBM_ORB),
    // -- the Database Machine: relational side ----------------------------
    row("query.basic.scan_ns_per_row", "ns", Lower, DBM, TP_DBM_REL),
    row("query.basic.filter_ns_per_row", "ns", Lower, DBM, TP_DBM_REL),
    row("query.basic.hash_join_ns_per_row", "ns", Lower, DBM, TP_DBM_REL),
    row("query.adaptive.shj_ns_per_row", "ns", Lower, DBM, OFF_PATH),
    row("query.adaptive.xjoin_ns_per_row", "ns", Lower, DBM, OFF_PATH),
    row("query.adaptive.ripple_ns_per_row", "ns", Lower, DBM, OFF_PATH),
    row("query.adaptive.eddy_ns_per_row", "ns", Lower, DBM, OFF_PATH),
    row("query.exec.adaptive_join_ns_per_row", "ns", Lower, DBM, OFF_PATH),
    row("query.work_ops_per_row", "ratio", Lower, DBM, TP_DBM_REL),
    row("datacomp.table.clone_ns_per_row", "ns", Lower, DBM, TP_DBM_REL),
    row("datacomp.codec.compress_mb_s", "MB/s", Higher, DBM, OFF_PATH),
    row("datacomp.codec.decompress_mb_s", "MB/s", Higher, DBM, OFF_PATH),
    // -- the measurement itself -------------------------------------------
    row("bench.trace.overhead_pct", "%", Lower, ALL, NONE),
    row("bench.trace.spans", "count", Lower, ALL, NONE),
    row("bench.trace.unattributed_pct", "%", Lower, ALL, NONE),
];

/// The workload named `name`.
#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The values of the per-layer rows for one traced run. Starts with every
/// catalogue row at 0 — "this workload does not cross that layer".
#[derive(Debug, Clone)]
pub struct LayerRows {
    values: Vec<f64>,
}

impl Default for LayerRows {
    fn default() -> Self {
        Self::new()
    }
}

impl LayerRows {
    /// Every row at 0.
    #[must_use]
    pub fn new() -> Self {
        Self { values: vec![0.0; PER_LAYER.len()] }
    }

    /// Set row `name`.
    ///
    /// # Panics
    /// If `name` is not in the catalogue — a row the binary could print
    /// but `BENCHMARK.json` does not declare is a bug in this crate.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|r| r.name == name)
            .unwrap_or_else(|| panic!("per-layer row `{name}` is not in the catalogue"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    /// `(name, value, unit)` for every catalogue row, in catalogue order.
    #[must_use]
    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().zip(self.values).map(|(r, v)| (r.name, v, r.unit)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_limits() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(well_formed(name), "`{name}` is not [A-Za-z0-9][A-Za-z0-9_.-]*");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit `{unit}`"
            );
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why is one line", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn rows_default_to_zero_and_reject_unknown_names() {
        let mut rows = LayerRows::new();
        rows.set("store.pool.misses", 7.0);
        rows.set("store.pool.hit_pct", f64::NAN);
        let metrics = rows.into_metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let set: Vec<_> = metrics.iter().filter(|m| m.1 != 0.0).collect();
        assert_eq!(set, [&("store.pool.misses", 7.0, "count")], "NaN is stored as 0");
        assert!(std::panic::catch_unwind(|| LayerRows::new().set("no.such.row", 1.0)).is_err());
    }
}
