//! Workspace task runner, invoked as `cargo xtask <task>` (the alias
//! lives in `.cargo/config.toml`). `cargo test -q` checks every committed
//! deterministic artifact; these tasks cover what it cannot. Tasks:
//!
//! * `update-goldens` — regenerate every committed deterministic
//!   artifact in one `UPDATE_GOLDENS=1 cargo test` run: the golden-trace
//!   snapshots in `tests/goldens/` (the flash crowd and every golden
//!   chaos seed), the crash-replay, storage and cross-shard transaction
//!   matrices, the system-table query results, and the cycle snapshot
//!   `BENCH_adm.json`.
//! * `scale` — run the scale tier in release: ~10.5M mega-crowd requests
//!   through the event engine inside the wall-clock budget, the armed
//!   paper flash crowd inside a 40 ms budget that a tick paying per
//!   queued request would blow, and 8,000 cross-shard SWITCH commits
//!   inside a 400 ms budget, each leaving an empty transaction log and
//!   no held lock, the 64,000 ORB crossings of a batch-1 Database
//!   Machine query inside a 15 ms budget that the ORB's former
//!   per-call label searches and copies blew, and the Database Machine's
//!   batch-512 select-project-join on the `dbm_spj` shape (6 ms) and over
//!   distinct keys (12 ms), the second blown by a join hasher without a
//!   64-bit finaliser (what the CI `scale` job runs).
//! * `loc` — per crate under `crates/`, the non-test lines (each `.rs`
//!   file under `src/` cut at its `#[cfg(test)] mod`) and the test lines
//!   (the rest of those files, plus every `.rs` file outside `src/`), then
//!   the totals: the net-LOC figure a PR reports.

use std::path::{Path, PathBuf};
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

/// Run the scale tier (`tests/scale_e2e.rs`) in release — the mega-crowd,
/// flash-crowd, cross-shard commit, ORB-crossing and SPJ wall-clock
/// budgets there assume optimised code.
fn scale() {
    run_cargo(&["test", "-q", "--release", "-p", "adm-core", "--test", "scale_e2e"], &[]);
}

/// Every `.rs` file under `dir`, recursively, in name order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `(non-test, test)` lines of one crate: a file under `src/` is cut at
/// the `#[cfg(test)]` line that opens its test module (a gated item
/// elsewhere stays non-test); every other `.rs` file is test code.
fn crate_loc(dir: &Path) -> (usize, usize) {
    let (mut code, mut test) = (0, 0);
    let mut files = Vec::new();
    rust_files(dir, &mut files);
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap_or_default();
        let lines = text.lines().count();
        let cut = if file.starts_with(dir.join("src")) {
            let all: Vec<&str> = text.lines().collect();
            let opens = |w: &[&str]| w[0].trim() == "#[cfg(test)]" && w[1].starts_with("mod ");
            all.windows(2).position(opens).unwrap_or(lines)
        } else {
            0
        };
        code += cut;
        test += lines - cut;
    }
    (code, test)
}

/// Print [`crate_loc`] for every crate, then the totals.
fn loc() {
    let crates = workspace_root().join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).filter(|p| p.is_dir()).collect())
        .unwrap_or_default();
    dirs.sort();
    let (mut code, mut test) = (0, 0);
    println!("{:<10} {:>9} {:>7}", "crate", "non-test", "test");
    for dir in dirs {
        let (c, t) = crate_loc(&dir);
        let name = dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        println!("{name:<10} {c:>9} {t:>7}");
        (code, test) = (code + c, test + t);
    }
    println!("{:<10} {code:>9} {test:>7}", "total");
}

fn main() {
    let task = std::env::args().nth(1);
    match task.as_deref() {
        Some("update-goldens") => update_goldens(),
        Some("scale") => scale(),
        Some("loc") => loc(),
        other => {
            if let Some(t) = other {
                println!("unknown task {t:?}\n");
            }
            println!(
                "usage: cargo xtask <task>\n\n\
                 tasks:\n  \
                 update-goldens  regenerate tests/goldens/ and BENCH_adm.json\n  \
                 scale           run the scale tier (release, wall-clock budgets)\n  \
                 loc             non-test and test lines per crate"
            );
            std::process::exit(2);
        }
    }
}
