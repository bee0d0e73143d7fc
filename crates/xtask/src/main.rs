//! Workspace task runner, invoked as `cargo xtask <task>` (the alias
//! lives in `.cargo/config.toml`). Tasks:
//!
//! * `update-goldens` — regenerate every committed deterministic
//!   artifact: the golden-trace snapshots in `tests/goldens/` (one leg
//!   per CI chaos seed, replacing the raw
//!   `UPDATE_GOLDENS=1 CHAOS_SEED=<seed> cargo test …` incantation),
//!   the crash-replay recovery matrix (`tests/goldens/crashrep.txt`),
//!   the storage WAL crash matrix (`tests/goldens/storerep.txt`), the
//!   cross-shard transaction matrix (`tests/goldens/txnrep.txt`), the
//!   system-table query results (`tests/goldens/systab.txt`), and the
//!   benchmark-trajectory baseline `BENCH_adm.json`.
//! * `bench-gate` — replay the benchmark trajectory and compare it to
//!   the committed `BENCH_adm.json` under the gate tolerances; exits
//!   non-zero on drift (what the CI `bench-gate` job runs).
//! * `scale` — run the scale tier in release: ~10.5M mega-crowd requests
//!   through the event engine inside the wall-clock budget, and the
//!   armed paper flash crowd inside a 40 ms budget that a tick paying
//!   per queued request would blow (what the CI `scale` job runs).
//! * `systab` — run the system-table tier: every committed scenario
//!   settled and queried through the `sys.*` tables, the query-vs-
//!   hardcoded SWITCH differential, and the `systab` crate's unit suite
//!   (what the CI `systab` job runs).
//! * `txn-matrix` — run the cross-shard transaction conformance tier:
//!   the (seed × crash site × topology) 2PC matrix of `txnrep_e2e` plus
//!   the `txn` crate's unit and property suites (what the CI
//!   `txn-matrix` job runs).

use std::path::PathBuf;
use std::process::Command;

/// The chaos seeds with committed goldens — keep in lockstep with the CI
/// matrix in `.github/workflows/ci.yml` and `tests/obs_e2e.rs`.
const GOLDEN_SEEDS: [u64; 3] = [17, 42, 20260806];

/// The workspace root (this crate lives at `<root>/crates/xtask`).
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Run one cargo invocation at the workspace root, echoing it first;
/// exits the whole task on failure so partial regenerations are loud.
fn run_cargo(args: &[&str], envs: &[(&str, String)]) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let rendered: Vec<String> = envs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("$ {} {} {}", rendered.join(" "), cargo, args.join(" "));
    let status = Command::new(&cargo)
        .args(args)
        .envs(envs.iter().map(|(k, v)| (*k, v.as_str())))
        .current_dir(workspace_root())
        .status()
        .unwrap_or_else(|e| {
            println!("failed to spawn {cargo}: {e}");
            std::process::exit(1);
        });
    if !status.success() {
        println!("task step failed ({status}); stopping");
        std::process::exit(status.code().unwrap_or(1));
    }
}

/// Regenerate the golden-trace snapshots (one obs_e2e run per CI seed,
/// under `UPDATE_GOLDENS=1`), the crash-replay recovery matrix, and the
/// bench baseline.
fn update_goldens() {
    for seed in GOLDEN_SEEDS {
        run_cargo(
            &["test", "-q", "-p", "adm-core", "--test", "obs_e2e"],
            &[("UPDATE_GOLDENS", "1".to_owned()), ("CHAOS_SEED", seed.to_string())],
        );
    }
    run_cargo(
        &["test", "-q", "-p", "adm-core", "--test", "crashrep_e2e"],
        &[("UPDATE_GOLDENS", "1".to_owned())],
    );
    run_cargo(
        &["test", "-q", "-p", "adm-core", "--test", "store_recovery_e2e"],
        &[("UPDATE_GOLDENS", "1".to_owned())],
    );
    run_cargo(
        &["test", "-q", "-p", "adm-core", "--test", "txnrep_e2e"],
        &[("UPDATE_GOLDENS", "1".to_owned())],
    );
    run_cargo(
        &["test", "-q", "-p", "adm-core", "--test", "systab_e2e"],
        &[("UPDATE_GOLDENS", "1".to_owned())],
    );
    run_cargo(
        &["run", "--release", "-q", "-p", "adm-bench", "--bin", "bench", "--", "--update"],
        &[],
    );
    println!("goldens and BENCH_adm.json regenerated; review the diff before committing");
}

/// Run the benchmark-trajectory gate against the committed baseline.
fn bench_gate() {
    run_cargo(
        &["run", "--release", "-q", "-p", "adm-bench", "--bin", "bench", "--", "--check"],
        &[],
    );
}

/// Run planlint over every committed scenario configuration (the
/// `lint_plans` test tier): the plan corpus the scenarios generate must be
/// free of Error-severity findings, and the Adaptivity Manager's lint gate
/// must demonstrably refuse a broken plan. Exits non-zero on any finding
/// (what the CI lint job runs).
fn lint_plans() {
    run_cargo(&["test", "-q", "-p", "adm-core", "--test", "lint_plans"], &[]);
}

/// Run the scale tier (`tests/scale_e2e.rs`) in release — the mega-crowd
/// and flash-crowd wall-clock budgets there assume optimised code.
fn scale() {
    run_cargo(&["test", "-q", "--release", "-p", "adm-core", "--test", "scale_e2e"], &[]);
}

/// Run the storage recovery tier: the WAL crash-matrix conformance test
/// (`tests/store_recovery_e2e.rs`) plus the store crate's own unit and
/// differential-oracle suites (what the CI `store-recovery` job runs).
fn store_recovery() {
    run_cargo(&["test", "-q", "-p", "adm-core", "--test", "store_recovery_e2e"], &[]);
    run_cargo(&["test", "-q", "-p", "store", "--features", "slow-props"], &[]);
}

/// Run the system-table tier: the `systab_e2e` invariant queries and
/// SWITCH-rule differential over every committed scenario, plus the
/// `systab` crate's unit suite (what the CI `systab` job runs).
fn systab() {
    run_cargo(&["test", "-q", "-p", "adm-core", "--test", "systab_e2e"], &[]);
    run_cargo(&["test", "-q", "-p", "systab"], &[]);
}

/// Run the cross-shard transaction tier: the 2PC coordinator/participant
/// crash matrix (`tests/txnrep_e2e.rs`) plus the `txn` crate's unit and
/// slow-props suites (what the CI `txn-matrix` job runs).
fn txn_matrix() {
    run_cargo(&["test", "-q", "-p", "adm-core", "--test", "txnrep_e2e"], &[]);
    run_cargo(&["test", "-q", "-p", "txn", "--features", "slow-props"], &[]);
}

fn main() {
    let task = std::env::args().nth(1);
    match task.as_deref() {
        Some("update-goldens") => update_goldens(),
        Some("bench-gate") => bench_gate(),
        Some("lint-plans") => lint_plans(),
        Some("scale") => scale(),
        Some("store-recovery") => store_recovery(),
        Some("systab") => systab(),
        Some("txn-matrix") => txn_matrix(),
        other => {
            if let Some(t) = other {
                println!("unknown task {t:?}\n");
            }
            println!(
                "usage: cargo xtask <task>\n\n\
                 tasks:\n  \
                 update-goldens  regenerate tests/goldens/ and BENCH_adm.json\n  \
                 bench-gate      compare a fresh bench run against BENCH_adm.json\n  \
                 lint-plans      planlint every committed scenario configuration\n  \
                 scale           run the mega- and flash-crowd scale tier (release, wall-clock budgets)\n  \
                 store-recovery  run the WAL crash matrix and the store differential oracles\n  \
                 systab          query every scenario through the sys.* system tables\n  \
                 txn-matrix      run the cross-shard 2PC coordinator/participant crash matrix"
            );
            std::process::exit(2);
        }
    }
}
