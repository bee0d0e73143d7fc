//! Storage recovery conformance tier: the WAL's crash guarantee under
//! the Atoms, asserted end to end.
//!
//! Part 1 sweeps the (seed × crash point) matrix of
//! `scenario::storerep`: after a crash at any WAL record boundary —
//! after `Begin`, after any op record, either commit edge, mid-way
//! through an abort's undo chain, or inside the recovery scan itself —
//! `recover()` must land the store byte-identical to either the
//! committed or the rolled-back reference, never a hybrid, and a second
//! recovery must be a no-op. The matrix transcript (including the WAL
//! replay length of every cell) is pinned as a golden
//! (`tests/goldens/storerep.txt`; regenerate with
//! `cargo xtask update-goldens`), and recovery cost must surface as
//! `store.wal.replay_len` / `store.recovery` registry counters on the
//! virtual clock.
//!
//! Part 2 crosses layers: a relational table persisted through
//! `query::persist_table` survives an engine crash and reads back
//! byte-identical through a `StoreScan` — the paper's "database machine"
//! loop closed from query operator down to page and back.

mod golden;

use adm_core::scenario::storerep::{
    crash_points, render_matrix, run_cell_observed, sweep, StoreCellReport,
};
use adm_core::scenario::GOLDEN_SEEDS;
use datacomp::{ColumnType, Schema, Table, Value};
use query::op::{drain, WorkCounter};
use query::{persist_table, StoreScan};
use store::{CrashPoint, NoCrash, StorageEngine};

/// Part 1a — the tentpole invariant over the full matrix: every cell
/// settles on exactly one reference state and replays as a no-op.
#[test]
fn every_wal_boundary_recovers_to_committed_or_rolled_back_never_hybrid() {
    let cells = sweep();
    assert_eq!(cells.len(), GOLDEN_SEEDS.len() * crash_points().len(), "the matrix is complete");
    for cell in &cells {
        assert!(
            cell.consistent(),
            "cell must land on exactly one reference and replay as a no-op: {}",
            cell.render_line()
        );
        match cell.point {
            CrashPoint::AfterCommit => {
                assert!(
                    cell.committed(),
                    "post-commit crash must roll forward: {}",
                    cell.render_line()
                );
            }
            _ => {
                assert!(
                    cell.rolled_back(),
                    "pre-commit crash must roll back: {}",
                    cell.render_line()
                );
            }
        }
        let expected_calls =
            if matches!(cell.point, CrashPoint::DuringRecovery { .. }) { 2 } else { 1 };
        assert_eq!(
            cell.recover_calls,
            expected_calls,
            "recovery must settle in the minimum number of passes: {}",
            cell.render_line()
        );
        assert!(
            cell.replayed > 0 && cell.pages_rebuilt > 0,
            "recovery must actually replay the log and rebuild pages: {}",
            cell.render_line()
        );
    }
    // The matrix must exercise both outcomes, not collapse to one.
    assert!(cells.iter().any(StoreCellReport::committed));
    assert!(cells.iter().any(StoreCellReport::rolled_back));
}

/// Part 1b — the matrix transcript is deterministic and pinned as a
/// golden, so any drift in WAL layout, replay length, or recovery order
/// shows up as a reviewable diff.
#[test]
fn store_crash_matrix_golden_is_stable() {
    let got = render_matrix(&sweep());
    assert_eq!(got, render_matrix(&sweep()), "the matrix must replay byte-identically");
    golden::check("tests/goldens/storerep.txt", &got);
}

/// Part 1c — recovery is work the machine performs: billed on the
/// virtual clock and published to the registry, without perturbing the
/// recovery itself.
#[test]
fn recovery_cost_is_billed_and_published() {
    for &seed in &GOLDEN_SEEDS {
        for point in [CrashPoint::BeforeCommit, CrashPoint::AfterCommit] {
            let (cell, o) = run_cell_observed(seed, point);
            assert_eq!(o.metrics.counter("store.crash"), 1, "the crash itself is published");
            assert_eq!(
                o.metrics.counter("store.recovery"),
                2,
                "settling recovery plus the idempotence replay"
            );
            assert_eq!(
                o.metrics.counter("store.wal.replay_len"),
                2 * cell.replayed as u64,
                "both replays scan the full log"
            );
            if point == CrashPoint::AfterCommit {
                assert!(
                    o.metrics.counter("store.wal.force") >= 1,
                    "a committed victim forces the log"
                );
            }
            assert!(o.clock() > 0, "recovery must cost cycles on the virtual clock");
        }
    }
}

/// Part 2 — cross-layer durability: a relational table persisted into
/// the engine survives a crash; after WAL replay a `StoreScan` returns
/// the rows byte-identical.
#[test]
fn persisted_table_survives_crash_and_scans_back_identical() {
    let schema = Schema::new(&[("id", ColumnType::Int), ("payload", ColumnType::Str)])
        .expect("schema is well-formed");
    let mut table = Table::new(schema.clone());
    for i in 0..48 {
        table
            .insert(vec![Value::Int(i), Value::Str(format!("{i:0>120}"))])
            .expect("rows match the schema");
    }
    let mut engine = StorageEngine::new(3);
    persist_table(&table, 0, &mut engine).expect("the table persists in one transaction");

    engine.crash();
    let stats = engine.recover(&mut NoCrash).expect("recovery settles");
    assert!(stats.redone >= 48, "every row rolls forward");

    let w = WorkCounter::new();
    let mut scan =
        StoreScan::new(engine, 0, 47, schema, w.clone()).expect("recovered engine scans");
    let rows = drain(&mut scan, 0);
    assert_eq!(rows, table.rows(), "recovered rows must be byte-identical");
    assert_eq!(w.snapshot().tuples_moved, 48);
}

/// The matrix replays deterministically — the storage layer adds no
/// hidden nondeterminism below the journal.
#[test]
fn store_matrix_is_deterministic() {
    let a = sweep();
    let b = sweep();
    assert_eq!(a, b, "sweeps must replay identically");
}
