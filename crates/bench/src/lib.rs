//! # adm-bench — the benchmark harness
//!
//! Regenerates every table and figure of the paper:
//!
//! * `cargo run -p adm-bench --bin table1` — Table 1 (RPC cycles) and the
//!   32-bytes-per-interface memory claim, paper vs measured;
//! * `cargo run -p adm-bench --bin table2` — Table 2's constraints firing
//!   in a live Patia run;
//! * `cargo run -p adm-bench --bin figures` — the behavioural series
//!   behind Figures 1–7 and the three Section 4 scenarios.
//!
//! The virtual-cycle snapshot committed as `BENCH_adm.json` is pinned
//! exactly by `tests/bench_e2e.rs` in `cargo test`. Wall-clock timings
//! live in the ledger under `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Render a labelled two-column table of (label, value) rows.
#[must_use]
pub fn kv_table(title: &str, rows: &[(String, String)]) -> String {
    let w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut s = format!("{title}\n");
    for (k, v) in rows {
        s.push_str(&format!("  {k:<w$}  {v}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_table_aligns() {
        let t = kv_table("T", &[("a".into(), "1".into()), ("long".into(), "2".into())]);
        assert!(t.contains("a     1"));
        assert!(t.contains("long  2"));
    }
}
