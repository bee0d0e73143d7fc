//! The one golden-file check every e2e tier shares (`mod golden;`).
//!
//! A golden is a committed, deterministic text artifact: the trace and
//! matrix snapshots in `tests/goldens/` and the `BENCH_adm.json` cycle
//! snapshot. A run either matches it byte for byte or fails with a
//! unified diff. Regenerate every golden after an intentional change
//! with `cargo xtask update-goldens`, which sets `UPDATE_GOLDENS=1`, and
//! review the diff before committing.

use std::path::PathBuf;

/// Pin `got` against the committed file at `path`, relative to the
/// repository root, or rewrite that file under `UPDATE_GOLDENS`.
///
/// # Panics
/// Panics with a unified diff when `got` differs from the file, or when
/// the file is missing.
pub fn check(path: &str, got: &str) {
    // The e2e tests are registered under crates/core; the goldens live
    // relative to the repository root.
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(path);
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::write(&file, got).expect("write golden");
        println!("updated golden {path}");
        return;
    }
    let want = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        panic!("missing golden {path} ({e}); regenerate with `cargo xtask update-goldens`")
    });
    assert!(
        got == want,
        "{path} drifted from this run; if the change is intentional, regenerate with \
         `cargo xtask update-goldens`\n{}",
        obs::diff::unified(&want, got, &format!("golden {path}"), "this run")
    );
}
