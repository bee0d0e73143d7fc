//! The cycle snapshot: replay the paper's workloads with the
//! observability hub armed, fold each trace through the
//! cycle-attribution profiler, and pin every number against the
//! committed `BENCH_adm.json` — virtual-cycle totals, per-layer
//! attribution, span/event and outcome counts.
//!
//! Every workload is fully seeded, so every number is a deterministic
//! replay, not a wall-clock measurement, and the snapshot must match the
//! committed file byte for byte:
//!
//! * **Table 1** — null-RPC cycle cost per kernel plus the SISR
//!   load-time verification row, SISR v3 summary scaling, and planlint;
//! * **flash crowd** — the Table 2 / Figure 7 scenario
//!   (`scenario::chaos::paper_flash_crowd`, the same definition the
//!   golden-trace tier and `figures --trace/--flame` run);
//! * **chaos matrix** — the chaos storylines
//!   (`scenario::chaos::ci_chaos`) under every golden seed;
//! * **crash replay** — the `scenario::crashrep` recovery matrix (same
//!   seeds × every crash point), pricing journal recovery: total
//!   `compkit:recover` span cycles plus the landed-outcome and
//!   undo-work counts;
//! * **storage** — the WAL recovery matrix and the buffer-pool pressure
//!   sweep (`store.*`);
//! * **mega crowd** — the `scenario::megacrowd` scale run (~10.5M
//!   requests through the event engine): virtual cycles per request
//!   and the engine's counts;
//! * **transactions** — the unbundled transaction core: clean
//!   cross-shard prepare/commit and crash-plus-recovery cycle prices,
//!   plus the conformance matrix's exact outcome counts (`txn.cycles.*`,
//!   `txn.counts.*`, `txn.matrix.counts.*`);
//! * **system tables** — the `systab` introspection layer: billed
//!   table-scan cycles over a settled chaos world and the declarative
//!   SWITCH rule's evaluation cost (`systab.cycles.*`,
//!   `systab.counts.*`).
//!
//! Wall-clock numbers live in the ledger under `benchmark/`. Regenerate
//! the snapshot after an intentional change with
//! `cargo xtask update-goldens`.

mod golden;

use adm_core::scenario::chaos::{ci_chaos, paper_flash_crowd, run_observed, ChaosParams};
use adm_core::scenario::{crashrep, GOLDEN_SEEDS};
use gokernel::kernels::KernelKind;
use gokernel::table1::{table1_rows, verification_cost_row};
use machine::CostModel;
use obs::Profile;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A flat snapshot: dotted metric name → integer value, name-sorted.
#[derive(Default)]
struct Snapshot(BTreeMap<String, u64>);

impl Snapshot {
    /// Record one metric.
    fn set(&mut self, key: impl Into<String>, value: u64) {
        self.0.insert(key.into(), value);
    }

    /// Render as JSON: one sorted `"key": value` pair per line, so the
    /// committed file diffs line by line in review.
    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.0.iter().enumerate() {
            let sep = if i + 1 == self.0.len() { "" } else { "," };
            let _ = writeln!(out, "  \"{k}\": {v}{sep}");
        }
        out.push_str("}\n");
        out
    }
}

/// A short metric-key segment for a Table 1 kernel row.
fn kernel_key(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::Monolithic => "bsd",
        KernelKind::Mach => "mach",
        KernelKind::L4 => "l4",
        KernelKind::Go => "go",
    }
}

/// Metric-key segment for a profiler category (`(idle)` → `idle`).
fn category_key(cat: &str) -> String {
    cat.chars().filter(|c| c.is_ascii_alphanumeric() || *c == '_').collect()
}

/// Record one observed scenario under `prefix`: clock, per-category
/// self-cycle attribution, and the structural counts.
fn record_scenario(snap: &mut Snapshot, prefix: &str, params: &ChaosParams) {
    let (report, o) = run_observed(params);
    let profile = Profile::build(o.tracer.events(), o.clock());
    assert_eq!(
        profile.self_total(),
        o.clock(),
        "{prefix}: the profile must partition the virtual clock"
    );
    snap.set(format!("{prefix}.cycles.clock"), o.clock());
    for (cat, cycles) in profile.per_category() {
        snap.set(format!("{prefix}.cycles.self.{}", category_key(&cat)), cycles);
    }
    let spans = o.tracer.events().iter().filter(|e| e.kind == obs::EventKind::Complete).count();
    snap.set(format!("{prefix}.counts.events"), o.tracer.events().len() as u64);
    snap.set(format!("{prefix}.counts.spans"), spans as u64);
    snap.set(format!("{prefix}.counts.completed"), report.completed);
    snap.set(format!("{prefix}.counts.switches"), report.migrations);
    snap.set(format!("{prefix}.counts.reconfigs_committed"), report.reconfigs_committed);
    // Tail latency from the completion histogram — a deterministic
    // replay, so the p99 is an exact number.
    let p99 = o
        .metrics
        .histogram("patia.latency_ticks")
        .and_then(|h| h.quantile(0.99))
        .expect("every scenario completes requests");
    snap.set(format!("{prefix}.latency.p99_ticks"), p99);
}

/// Record the crash-replay matrix under `crashrep.*`: how much recovery
/// costs on the virtual clock (summed `compkit:recover` span cycles
/// across every cell) and the structural outcome counts the recovery
/// invariant fixes exactly.
fn record_crashrep(snap: &mut Snapshot) {
    let mut recovery_cycles = 0u64;
    let mut committed = 0u64;
    let mut rolled_back = 0u64;
    let mut scanned = 0u64;
    let mut undone = 0u64;
    let mut cells = 0u64;
    for &seed in &GOLDEN_SEEDS {
        for &point in &crashrep::crash_points() {
            let (cell, o) = crashrep::run_cell_observed(seed, point);
            assert!(cell.consistent(), "bench cell must recover cleanly: {}", cell.render_line());
            recovery_cycles += o
                .tracer
                .events()
                .iter()
                .filter(|e| e.cat == "compkit" && e.name == "recover")
                .map(|e| e.dur)
                .sum::<u64>();
            committed += u64::from(cell.committed());
            rolled_back += u64::from(cell.rolled_back());
            scanned += cell.records_scanned as u64;
            undone += cell.undone as u64;
            cells += 1;
        }
    }
    snap.set("crashrep.cycles.recovery", recovery_cycles);
    snap.set("crashrep.counts.cells", cells);
    snap.set("crashrep.counts.committed", committed);
    snap.set("crashrep.counts.rolled_back", rolled_back);
    snap.set("crashrep.counts.records_scanned", scanned);
    snap.set("crashrep.counts.steps_undone", undone);
}

/// SISR v3 scaling: verification cost of a many-procedure component at
/// 1×/4×/16× the base component size (8 procedures). The interprocedural
/// summaries make this ~linear in procedure count — the pinned evidence
/// is that the 1×→4× and 4×→16× cycle deltas stay affine instead of
/// exploding with call-path count as the v2 concrete-stack keys did.
fn record_sisr_scaling(snap: &mut Snapshot) {
    use gokernel::sisr::SisrVerifier;
    use machine::isa::{Instr, Program};
    let verifier = SisrVerifier::new(CostModel::pentium());
    let cost = |procs: u32| {
        // A dispatcher calling each procedure once, then the 3-instruction
        // procedure bodies — the same shape the sisr unit suite pins.
        let mut text = Vec::new();
        for i in 0..procs {
            text.push(Instr::Call(procs + 1 + 3 * i));
        }
        text.push(Instr::Halt);
        for _ in 0..procs {
            text.push(Instr::Push(0));
            text.push(Instr::Pop(1));
            text.push(Instr::Ret);
        }
        let img = verifier.verify_program(&Program::new(text)).expect("bench image is clean");
        assert_eq!(img.summaries().len() as u32, procs + 1, "one summary per procedure");
        img.scan_cycles()
    };
    for scale in [1u32, 4, 16] {
        snap.set(format!("sisr_v3.cycles.scale{scale}"), cost(8 * scale));
    }
}

/// planlint cost per plan: the Adaptivity Manager bills one ALU per plan
/// step ahead of every switch, so the Figure 5 lifecycle plans price the
/// gate exactly. All three plans must lint clean — the linter's verdict
/// is part of the baseline.
fn record_planlint(snap: &mut Snapshot) {
    use adl::diff::diff;
    use adl::figures::{docked_session, fig4_document, wireless_session};
    use compkit::planlint::PlanLinter;
    use obs::{Obs, Primitive};
    let doc = fig4_document();
    let docked = docked_session(&doc);
    let wireless = wireless_session(&doc);
    let empty = adl::Configuration::default();
    let plans = [diff(&empty, &docked), diff(&docked, &wireless), diff(&wireless, &docked)];
    let linter = PlanLinter::new();
    let mut o = Obs::new(CostModel::pentium());
    let mut steps = 0u64;
    for plan in &plans {
        assert!(linter.lint_one(plan).is_clean(), "fig5 plans must lint clean");
        for _ in 0..plan.len() {
            o.charge(Primitive::Alu);
        }
        steps += plan.len() as u64;
    }
    snap.set("planlint.cycles.total", o.clock());
    snap.set("planlint.cycles.plan", o.clock() / plans.len() as u64);
    snap.set("planlint.counts.plans", plans.len() as u64);
    snap.set("planlint.counts.steps", steps);
}

/// Record the storage engine under `store.*`: the WAL recovery matrix
/// (replay length and landed outcomes are exact structural counts; page
/// IO and cell clocks are virtual-cycle rows) plus the buffer-pool
/// pressure sweep (hit rates per capacity — exact, since the sweep is a
/// seeded replay).
fn record_store(snap: &mut Snapshot) {
    use adm_core::scenario::megacrowd::pool_pressure_sweep;
    use adm_core::scenario::storerep;

    let mut replay_len = 0u64;
    let mut committed = 0u64;
    let mut rolled_back = 0u64;
    let mut cells = 0u64;
    for cell in storerep::sweep() {
        assert!(cell.consistent(), "bench cell must recover cleanly: {}", cell.render_line());
        replay_len += cell.replayed as u64;
        committed += u64::from(cell.committed());
        rolled_back += u64::from(cell.rolled_back());
        cells += 1;
    }
    snap.set("store.counts.cells", cells);
    snap.set("store.counts.replay_len", replay_len);
    snap.set("store.counts.committed", committed);
    snap.set("store.counts.rolled_back", rolled_back);

    // Cycle rows. Recovery cost from the observed recovery cells; page
    // IO from a thrashing pass — a 4-frame pool under a 32-page record
    // set, the sweep's worst case — where every fault is billed through
    // `Primitive::PageIo` and accumulated in `store.page.io_cycles`.
    let mut cell_clock = 0u64;
    for &seed in &GOLDEN_SEEDS {
        let (_, o) = storerep::run_cell_observed(seed, store::CrashPoint::AfterCommit);
        cell_clock += o.clock();
    }
    snap.set("store.cycles.recovery_cells", cell_clock);
    {
        use adm_rng::Pcg32;
        use store::{StorageEngine, StoreOp};
        let handle = obs::Obs::new(CostModel::pentium()).into_handle();
        let mut eng = StorageEngine::new(4);
        eng.arm_obs(handle.clone());
        let mut rng = Pcg32::new(0x10C7);
        for key in 0..256u64 {
            let mut value = vec![0u8; 480];
            rng.fill_bytes(&mut value);
            eng.apply(&[StoreOp::Put { key, value }]).expect("bench records fit a page");
        }
        for _ in 0..4_000u32 {
            eng.get(rng.below(256)).expect("bench engine stays up").expect("bench keys exist");
        }
        drop(eng);
        let o = obs::Obs::try_unwrap(handle)
            .unwrap_or_else(|_| unreachable!("the engine is dropped before the hub is unwrapped"));
        let page_io = o.metrics.counter("store.page.io_cycles");
        assert!(page_io > 0, "the thrashing pass must pay page IO");
        snap.set("store.cycles.page_io", page_io);
    }

    // The buffer-pool pressure sweep: hit rate per capacity.
    for point in pool_pressure_sweep() {
        snap.set(format!("store.sweep.pool{}.hit_pct", point.capacity), point.hit_pct);
        snap.set(format!("store.sweep.pool{}.misses", point.capacity), point.misses);
    }
}

/// Record the unbundled transaction core under `txn.*`: what cross-shard
/// SWITCH costs on the virtual clock — a clean three-shard prepare/commit
/// (with its forced-vote count), a coordinator crash at the commit edge
/// plus the recovery that settles it — and the conformance matrix's exact
/// structural outcome counts (cells, landed sides, compensations,
/// in-doubt resolutions).
fn record_txn(snap: &mut Snapshot) {
    use adm_core::scenario::txnrep;
    use txn::TxnCrashPoint;

    // The clean committed path: one three-shard transaction, every vote
    // and the decision forced.
    let (report, o) = txnrep::run_clean_observed(17, 3);
    assert_eq!(report.shards, 3, "the bench transaction spans three shards");
    snap.set("txn.cycles.clean_commit", o.clock());
    snap.set("txn.counts.clean_steps", report.steps as u64);
    snap.set("txn.counts.clean_log_forces", o.metrics.counter("txn.log.force"));

    // The crash-and-recover path: the coordinator dies with every shard
    // prepared, recovery resolves all three in doubt by the log read.
    let (cell, o) = txnrep::run_cell_observed(17, 3, TxnCrashPoint::BeforeDecision);
    assert!(cell.consistent(), "bench cell must recover cleanly: {}", cell.render_line());
    snap.set("txn.cycles.crash_recover", o.clock());
    snap.set("txn.counts.crash_in_doubt_resolved", cell.in_doubt_resolved as u64);

    // The full matrix's structural counts.
    let mut committed = 0u64;
    let mut rolled_back = 0u64;
    let mut undone = 0u64;
    let mut resolved = 0u64;
    let mut cells = 0u64;
    for cell in txnrep::sweep() {
        assert!(cell.consistent(), "bench cell must recover cleanly: {}", cell.render_line());
        committed += u64::from(cell.committed());
        rolled_back += u64::from(cell.rolled_back());
        undone += cell.undone as u64;
        resolved += cell.in_doubt_resolved as u64;
        cells += 1;
    }
    snap.set("txn.matrix.counts.cells", cells);
    snap.set("txn.matrix.counts.committed", committed);
    snap.set("txn.matrix.counts.rolled_back", rolled_back);
    snap.set("txn.matrix.counts.steps_undone", undone);
    snap.set("txn.matrix.counts.in_doubt_resolved", resolved);
}

/// Record the system-table layer under `systab.*`: what it costs to
/// serve the machine's own telemetry through the query operators
/// (billed table-scan cycles over a settled chaos world). The
/// circuit-breaker rule over `sys.supervision` is priced per evaluation
/// by the wall-clock ledger (`patia.rules.blocked_peers_ns`), not here:
/// no storyline evaluates it.
fn record_systab(snap: &mut Snapshot) {
    use adm_core::scenario::chaos::run_with_state;
    use systab::{metrics_table, scan_rows, spans_table, supervision_table, switches_table};

    let w = run_with_state(&ci_chaos(42));
    let hub = obs::Obs::new(CostModel::pentium()).into_handle();
    let tables = [
        metrics_table(&w.obs.metrics.snapshot()),
        spans_table(w.obs.tracer.events()),
        supervision_table(w.server.supervisor()),
        switches_table(w.am.committed(), w.am.rolled_back(), w.am.journal()),
    ];
    let mut rows = 0u64;
    for t in &tables {
        rows += scan_rows(t, Some(hub.clone())).len() as u64;
    }
    let o = obs::Obs::try_unwrap(hub)
        .unwrap_or_else(|_| unreachable!("scan handles are dropped with their plans"));
    assert_eq!(o.metrics.counter("systab.scan.rows"), rows, "every served row is billed once");
    snap.set("systab.cycles.table_scan", o.clock());
    snap.set("systab.counts.rows_served", rows);
}

/// Record the mega-crowd scale run under `megacrowd.*`: engine counts
/// and virtual cycles per request from an observed run, checked against
/// an unobserved one. Its wall-clock time is the ledger's `megacrowd`
/// workload, and `tests/scale_e2e.rs` holds it to a release budget.
fn record_megacrowd(snap: &mut Snapshot) {
    use adm_core::scenario::megacrowd::{mega_crowd, run, run_observed as run_mega_observed};
    let params = mega_crowd();
    let report = run(&params);
    assert!(report.conserved(), "mega-crowd must conserve at scale");
    let (observed, o) = run_mega_observed(&params);
    assert_eq!(observed, report, "arming observability must not perturb the run");
    snap.set("megacrowd.cycles.clock", o.clock());
    snap.set("megacrowd.cycles.per_request", o.clock() / report.totals.completed.max(1));
    snap.set("megacrowd.counts.offered", report.offered);
    snap.set("megacrowd.counts.completed", report.totals.completed);
    snap.set("megacrowd.counts.switches", report.totals.switches);
    snap.set("megacrowd.counts.evacuations", report.totals.evacuations);
    snap.set("megacrowd.counts.ticks_processed", report.totals.ticks_processed);
    snap.set("megacrowd.counts.ticks_skipped", report.totals.ticks_skipped);
    let p99 = o
        .metrics
        .histogram("patia.latency_ticks")
        .and_then(|h| h.quantile(0.99))
        .expect("the mega-crowd completes requests");
    snap.set("megacrowd.latency.p99_ticks", p99);
}

/// Replay every workload into one snapshot.
fn measure() -> Snapshot {
    let mut snap = Snapshot::default();

    // Table 1: per-kernel null-RPC cycles plus the verification row.
    let model = CostModel::pentium();
    for row in table1_rows(&model, 3) {
        snap.set(format!("table1.cycles.{}", kernel_key(row.kind)), row.measured_cycles);
    }
    let v = verification_cost_row(&model);
    snap.set("table1.cycles.verify", v.verify_cycles);
    snap.set("table1.counts.breakeven_calls", v.breakeven_calls);

    // The static-analysis layers: SISR v3 summary scaling and planlint.
    record_sisr_scaling(&mut snap);
    record_planlint(&mut snap);

    // The flash crowd and the chaos matrix.
    record_scenario(&mut snap, "flash_crowd", &paper_flash_crowd());
    for seed in GOLDEN_SEEDS {
        record_scenario(&mut snap, &format!("chaos.seed{seed}"), &ci_chaos(seed));
    }

    // The crash-replay recovery matrix.
    record_crashrep(&mut snap);

    // The storage engine: WAL recovery matrix + pool pressure sweep.
    record_store(&mut snap);

    // The unbundled transaction core: 2PC pricing + the cross-shard matrix.
    record_txn(&mut snap);

    // The system-table layer: billed table scans.
    record_systab(&mut snap);

    // The mega-crowd scale run.
    record_megacrowd(&mut snap);
    snap
}

/// Every deterministic number the workloads produce, pinned exactly.
#[test]
fn cycle_snapshot_matches_the_committed_bench_file() {
    golden::check("BENCH_adm.json", &measure().to_json());
}
