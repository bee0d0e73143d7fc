//! Workspace task runner, invoked as `cargo xtask <task>` (the alias
//! lives in `.cargo/config.toml`). `cargo test -q` checks every committed
//! deterministic artifact; these two tasks cover what it cannot. Tasks:
//!
//! * `update-goldens` — regenerate every committed deterministic
//!   artifact in one `UPDATE_GOLDENS=1 cargo test` run: the golden-trace
//!   snapshots in `tests/goldens/` (the flash crowd and every golden
//!   chaos seed), the crash-replay, storage and cross-shard transaction
//!   matrices, the system-table query results, and the cycle snapshot
//!   `BENCH_adm.json`.
//! * `scale` — run the scale tier in release: ~10.5M mega-crowd requests
//!   through the event engine inside the wall-clock budget, and the
//!   armed paper flash crowd inside a 40 ms budget that a tick paying
//!   per queued request would blow (what the CI `scale` job runs).

use std::path::PathBuf;
use std::process::Command;

/// The workspace root (this crate lives at `<root>/crates/xtask`).
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Run one cargo invocation at the workspace root, echoing it first;
/// exits the whole task on failure so partial regenerations are loud.
fn run_cargo(args: &[&str], envs: &[(&str, &str)]) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let rendered: Vec<String> = envs.iter().map(|(k, v)| format!("{k}={v} ")).collect();
    println!("$ {}{} {}", rendered.concat(), cargo, args.join(" "));
    let status = Command::new(&cargo)
        .args(args)
        .envs(envs.iter().copied())
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

/// Regenerate every golden and `BENCH_adm.json` by running the suites
/// that pin them under `UPDATE_GOLDENS=1`.
fn update_goldens() {
    let mut args = vec!["test", "-q", "-p", "adm-core"];
    for suite in
        ["obs_e2e", "crashrep_e2e", "store_recovery_e2e", "txnrep_e2e", "systab_e2e", "bench_e2e"]
    {
        args.extend(["--test", suite]);
    }
    run_cargo(&args, &[("UPDATE_GOLDENS", "1")]);
    println!("goldens and BENCH_adm.json regenerated; review the diff before committing");
}

/// Run the scale tier (`tests/scale_e2e.rs`) in release — the mega-crowd
/// and flash-crowd wall-clock budgets there assume optimised code.
fn scale() {
    run_cargo(&["test", "-q", "--release", "-p", "adm-core", "--test", "scale_e2e"], &[]);
}

fn main() {
    let task = std::env::args().nth(1);
    match task.as_deref() {
        Some("update-goldens") => update_goldens(),
        Some("scale") => scale(),
        other => {
            if let Some(t) = other {
                println!("unknown task {t:?}\n");
            }
            println!(
                "usage: cargo xtask <task>\n\n\
                 tasks:\n  \
                 update-goldens  regenerate tests/goldens/ and BENCH_adm.json\n  \
                 scale           run the mega- and flash-crowd scale tier (release, wall-clock budgets)"
            );
            std::process::exit(2);
        }
    }
}
