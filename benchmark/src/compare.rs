//! `compare a.json b.json`: judge result file `b` (the change) against
//! result file `a` (the parent), one row per workload × end-to-end metric.
//!
//! A metric *regresses* when `b`'s median is worse than `a`'s by more
//! than the metric's bound. When the run-to-run spread of either side
//! (interquartile distance over median) is itself wider than the bound
//! the row is *unresolved* — unless every run of `b` reads better than
//! every run of `a`. Everything else passes. The same rule judges an A/A
//! pair of one commit. Rows of exact counts (`count` and `cycles` units)
//! from traced runs are compared for equality, seed by seed.

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// How one workload × metric row was judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Pass,
    /// Worse by more than the bound.
    Regress,
    /// The spread is wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regress => "REGRESS",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One judged row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// End-to-end metric.
    pub metric: &'static str,
    /// Median of `a`'s runs.
    pub a_median: f64,
    /// Median of `b`'s runs.
    pub b_median: f64,
    /// How much worse `b` is, as a share of `a`'s median (negative when
    /// better).
    pub worse_by: f64,
    /// The wider of the two sides' spreads.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Runs on each side.
    pub runs: (usize, usize),
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge `b` against `a` for one metric.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (am, bm) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => (bm - am) / am,
        Better::Higher => (am - bm) / am,
    };
    let spread = stats::spread(a).max(stats::spread(b));
    let all_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regress
    } else {
        Verdict::Pass
    };
    (worse_by, spread, verdict)
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

struct ResultFile {
    /// `(workload, metric)` → values of the untraced runs.
    end_to_end: Samples,
    /// `(workload, seed, metric)` → value of the traced run.
    exact: BTreeMap<(String, u64, String), f64>,
    failed_ops: u64,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no `runs` array (write it with --out)"))?;
    let mut file = ResultFile { end_to_end: Samples::new(), exact: BTreeMap::new(), failed_ops: 0 };
    for run in runs {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?").to_owned();
        let seed = run.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let traced = run.get("trace").and_then(Json::as_f64) == Some(1.0);
        file.failed_ops += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        for (metric, v) in run.get("metrics").and_then(Json::as_obj).unwrap_or_default() {
            let Some(value) = v.get("value").and_then(Json::as_f64) else { continue };
            if traced {
                let exact = PER_LAYER
                    .iter()
                    .any(|r| r.name == metric && matches!(r.unit, "count" | "cycles"));
                if exact {
                    file.exact.insert((workload.clone(), seed, metric.clone()), value);
                }
            } else {
                file.end_to_end.entry((workload.clone(), metric.clone())).or_default().push(value);
            }
        }
    }
    Ok(file)
}

/// Judge every workload × end-to-end metric the two files share.
fn judge_files(a: &ResultFile, b: &ResultFile) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, metric), av) in &a.end_to_end {
        let Some(bv) = b.end_to_end.get(&(workload.clone(), metric.clone())) else { continue };
        let Some(m) = END_TO_END.iter().find(|m| m.name == metric) else { continue };
        let (worse_by, spread, verdict) = judge(av, bv, m.better, m.bound);
        rows.push(Row {
            workload: workload.clone(),
            metric: m.name,
            a_median: stats::median(av),
            b_median: stats::median(bv),
            worse_by,
            spread,
            bound: m.bound,
            runs: (av.len(), bv.len()),
            verdict,
        });
    }
    rows
}

/// The `compare` subcommand; returns the exit code (1 when any row
/// regressed, any exact count differs, or any op failed).
///
/// # Errors
/// Unreadable or malformed files and bad arguments.
pub fn run(args: &[String]) -> Result<i32, String> {
    let mut files = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--out" {
            out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?));
        } else {
            files.push(arg.as_str());
        }
    }
    let [a_path, b_path] = files[..] else {
        return Err("compare takes exactly two result files".to_owned());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let rows = judge_files(&a, &b);
    if rows.is_empty() {
        return Err("the two files share no workload × end-to-end metric".to_owned());
    }
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "worse by", "spread", "bound", "runs"
    );
    for r in &rows {
        println!(
            "{:<18} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.0}% {:>3}/{:<3}  {}",
            r.workload,
            r.metric,
            r.a_median,
            r.b_median,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.runs.0,
            r.runs.1,
            r.verdict.as_str()
        );
    }
    let differing: Vec<String> = a
        .exact
        .iter()
        .filter_map(|(key, av)| {
            let bv = b.exact.get(key)?;
            (av != bv).then(|| format!("{}/seed {}/{}: {av} vs {bv}", key.0, key.1, key.2))
        })
        .collect();
    let shared = a.exact.keys().filter(|k| b.exact.contains_key(*k)).count();
    println!("exact-count layer rows compared: {shared}, differing: {}", differing.len());
    for d in &differing {
        println!("  {d}");
    }
    let failed_ops = a.failed_ops + b.failed_ops;
    println!("failed ops: {failed_ops}");

    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} pass, {} regress, {} unresolved",
        count(Verdict::Pass),
        count(Verdict::Regress),
        count(Verdict::Unresolved)
    );
    if let Some(path) = out {
        let doc = Json::obj([
            (
                "verdicts",
                Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::obj([
                                ("workload", Json::str(&*r.workload)),
                                ("metric", Json::str(r.metric)),
                                ("a_median", Json::Num(r.a_median)),
                                ("b_median", Json::Num(r.b_median)),
                                ("worse_by", Json::Num(r.worse_by)),
                                ("spread", Json::Num(r.spread)),
                                ("bound", Json::Num(r.bound)),
                                ("runs_a", Json::Num(r.runs.0 as f64)),
                                ("runs_b", Json::Num(r.runs.1 as f64)),
                                ("verdict", Json::str(r.verdict.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("exact_rows_differing", Json::Arr(differing.iter().map(Json::str).collect())),
            ("failed_ops", Json::Num(failed_ops as f64)),
        ]);
        std::fs::write(&path, doc.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("verdicts written to {}", path.display());
    }
    Ok(i32::from(count(Verdict::Regress) > 0 || !differing.is_empty() || failed_ops > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_the_bound_passes_beyond_it_regresses() {
        let a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(judge(&a, &[95.0, 96.0, 95.5, 95.0], Better::Higher, 0.10).2, Verdict::Pass);
        assert_eq!(judge(&a, &[80.0, 81.0, 80.5, 80.0], Better::Higher, 0.10).2, Verdict::Regress);
        // Lower-is-better flips the sign.
        assert_eq!(judge(&a, &[80.0, 81.0, 80.5, 80.0], Better::Lower, 0.10).2, Verdict::Pass);
        assert_eq!(
            judge(&a, &[120.0, 121.0, 120.0, 119.0], Better::Lower, 0.10).2,
            Verdict::Regress
        );
        let (worse_by, _, _) = judge(&[100.0], &[105.0], Better::Lower, 0.10);
        assert!((worse_by - 0.05).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(
            judge(&noisy, &[100.0, 90.0, 110.0], Better::Higher, 0.10).2,
            Verdict::Unresolved
        );
        // Every run of b beats every run of a: resolved despite the noise.
        assert_eq!(judge(&noisy, &[150.0, 160.0, 170.0], Better::Higher, 0.10).2, Verdict::Pass);
    }
}
