//! The command line.
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints the result object as the last
//!   line of standard output (the `BENCHMARK.json` contract).
//! * `--workload all` (or `--traced`, `--repeat`, `--out` with any
//!   workload) runs each workload in a child process of its own — so the
//!   peak resident set is per workload — and prints every metric by name.
//! * `compare a.json b.json` judges two result files written with `--out`.
//! * `catalogue` prints the metric catalogue as Markdown; `benchmark-json`
//!   prints `BENCHMARK.json`.

use crate::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::compare;
use crate::harness::{self, RunResult, Scale};
use crate::json::Json;
use crate::workloads;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Seconds a run measures for when `--seconds` is not given — the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 6.0;

/// glibc's allocator raises its mmap threshold whenever a large block is
/// freed, so whether the big result vectors of a round come from `mmap`
/// (and go back to the system) or from the heap (and stay) depends on the
/// order of frees — which made `peak_rss_mb` flip between 18 and 45 MiB
/// from one run of `dbm_spj` to the next, same seed. Setting the
/// thresholds explicitly turns the adaptation off; allocators that do not
/// know the variables ignore them.
const ALLOCATOR_PINS: [(&str, &str); 2] =
    [("MALLOC_MMAP_THRESHOLD_", "131072"), ("MALLOC_TRIM_THRESHOLD_", "131072")];

fn allocator_pinned() -> bool {
    ALLOCATOR_PINS.iter().all(|(var, _)| std::env::var_os(var).is_some())
}

/// Run this executable again with `args` and the allocator pinned (the
/// allocator reads its environment once, at start-up); returns the
/// child's exit code, or `None` if it could not be started.
fn rerun_pinned(args: &[String]) -> Option<i32> {
    let exe = std::env::current_exe().ok()?;
    // `status` waits for the child to end.
    let status = Command::new(exe).args(args).envs(ALLOCATOR_PINS).status().ok()?;
    Some(status.code().unwrap_or(1))
}

const USAGE: &str = "usage:
  adm-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
                [--traced] [--repeat N] [--quick] [--out results.json]
  adm-benchmark compare <a.json> <b.json> [--out verdicts.json]
  adm-benchmark catalogue | benchmark-json";

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced_too: bool,
    repeat: u32,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 42,
        seconds: f64::NAN,
        trace: false,
        traced_too: false,
        repeat: 1,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => run.workload = value("a workload name")?.clone(),
            "--seed" => {
                run.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                run.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                run.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--repeat" => {
                run.repeat = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?;
            }
            "--out" => run.out = Some(PathBuf::from(value("a path")?)),
            "--traced" => run.traced_too = true,
            "--quick" => run.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if run.seconds.is_nan() {
        run.seconds = if run.quick { 0.3 } else { DEFAULT_SECONDS };
    }
    if !(run.seconds > 0.0 && run.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {}", run.seconds));
    }
    if run.repeat == 0 {
        return Err("--repeat must be at least 1".to_owned());
    }
    if run.workload != "all" && catalog::workload(&run.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be `all` or one of {}, not `{}`",
            names.join(", "),
            run.workload
        ));
    }
    Ok(run)
}

/// Where the traced run of `workload` writes its Chrome trace.
#[must_use]
pub fn trace_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("trace-{workload}.json"))
}

/// Run one workload in this process.
#[must_use]
pub fn run_direct(workload: &str, seed: u64, seconds: f64, trace: bool, scale: Scale) -> RunResult {
    let info = catalog::workload(workload).expect("the workload name was validated");
    let setup =
        || workloads::setup(workload, seed, scale).expect("every catalogue workload is built");
    if trace {
        harness::run_traced(workload, &setup, seconds, &trace_path(workload))
    } else {
        harness::run_untraced(workload, &setup, seconds, info.op)
    }
}

/// One child run's record in a result file.
fn run_record(workload: &str, seed: u64, trace: bool, result: &Json) -> Json {
    let mut members = vec![
        ("workload".to_owned(), Json::str(workload)),
        ("seed".to_owned(), Json::Num(seed as f64)),
        ("trace".to_owned(), Json::Num(f64::from(u8::from(trace)))),
    ];
    members.extend(result.as_obj().unwrap_or_default().iter().cloned());
    Json::Obj(members)
}

/// Run `workload` in a child process and parse its result line.
fn run_child(run: &RunArgs, workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &run.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .envs(ALLOCATOR_PINS)
        .stdout(Stdio::piped());
    if run.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let result = Json::parse(last)
        .map_err(|e| format!("{workload} printed no result line ({e}); last line: `{last}`"))?;
    if !output.status.success() {
        println!("  {workload} exited with {}", output.status);
    }
    Ok(result)
}

/// Run workloads in child processes; returns the process exit code.
fn run_orchestrated(run: &RunArgs) -> i32 {
    let names: Vec<&str> = if run.workload == "all" {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![run.workload.as_str()]
    };
    let modes: &[bool] = match (run.trace, run.traced_too) {
        (_, true) => &[false, true],
        (true, false) => &[true],
        (false, false) => &[false],
    };
    let mut records = Vec::new();
    let mut failed_runs = 0u32;
    for i in 0..run.repeat {
        let seed = run.seed + u64::from(i);
        for name in &names {
            for &trace in modes {
                match run_child(run, name, seed, trace) {
                    Ok(result) => {
                        if result.get("correct") != Some(&Json::Bool(true)) {
                            failed_runs += 1;
                        }
                        records.push(run_record(name, seed, trace, &result));
                    }
                    Err(e) => {
                        println!("ERROR: {e}");
                        failed_runs += 1;
                    }
                }
            }
        }
    }
    println!();
    println!("{:<18} {:>6} {:<20} {:>18} unit", "workload", "seed", "metric", "value");
    for r in records.iter().filter(|r| r.get("trace") == Some(&Json::Num(0.0))) {
        for (metric, v) in r.get("metrics").and_then(Json::as_obj).unwrap_or_default() {
            println!(
                "{:<18} {:>6} {:<20} {:>18.4} {}",
                r.get("workload").and_then(Json::as_str).unwrap_or("?"),
                r.get("seed").and_then(Json::as_f64).unwrap_or(0.0),
                metric,
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                v.get("unit").and_then(Json::as_str).unwrap_or(""),
            );
        }
    }
    if let Some(path) = &run.out {
        let doc = Json::obj([("runs", Json::Arr(records))]);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            println!("ERROR: cannot write {}: {e}", path.display());
            return 2;
        }
        println!("results written to {}", path.display());
    }
    if failed_runs > 0 {
        println!("{failed_runs} run(s) failed a check or did not finish");
        1
    } else {
        println!("every check passed");
        0
    }
}

/// `BENCHMARK.json`, generated from the catalogue so the two cannot drift
/// (the test suite checks the committed file against the catalogue too).
#[must_use]
pub fn benchmark_json() -> String {
    let list = |items: Vec<Json>| Json::Arr(items);
    let doc = Json::obj([
        (
            "command",
            list(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|s| Json::str(*s))
                .collect(),
            ),
        ),
        ("paths", list(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            list(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            list(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            list(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.render_pretty()
}

fn print_catalogue() {
    println!("| workload | op | why |");
    println!("|---|---|---|");
    for w in WORKLOADS {
        println!("| `{}` | {} | {} |", w.name, w.op, w.why);
    }
    println!();
    println!("| end-to-end metric | unit | better | bound | what |");
    println!("|---|---|---|---|---|");
    for m in END_TO_END {
        println!(
            "| `{}` | {} | {} | {:.0}% | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!();
    println!("| per-layer metric | unit | better | filled on | should move |");
    println!("|---|---|---|---|---|");
    for m in PER_LAYER {
        println!("| `{}` | {} | {} | {} | {} |", m.name, m.unit, m.better.as_str(), m.on, m.moves);
    }
}

/// Run the command line `args` (without the program name); returns the
/// process exit code.
#[must_use]
pub fn main_with(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            i32::from(args.is_empty()) * 2
        }
        Some("catalogue") => {
            print_catalogue();
            0
        }
        Some("benchmark-json") => {
            println!("{}", benchmark_json());
            0
        }
        Some("compare") => match compare::run(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("compare: {e}\n{USAGE}");
                2
            }
        },
        Some(_) => {
            let run = match parse_run(args) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("{e}\n{USAGE}");
                    return 2;
                }
            };
            if run.workload == "all" || run.traced_too || run.repeat > 1 || run.out.is_some() {
                return run_orchestrated(&run);
            }
            if !allocator_pinned() {
                if let Some(code) = rerun_pinned(args) {
                    return code;
                }
            }
            let scale = if run.quick { Scale::QUICK } else { Scale::FULL };
            let result = run_direct(&run.workload, run.seed, run.seconds, run.trace, scale);
            println!("{}", result.to_json().render());
            i32::from(!result.correct)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let run =
            parse_run(&args("--workload store_thrash --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (run.workload.as_str(), run.seed, run.seconds, run.trace),
            ("store_thrash", 7, 10.0, true)
        );
        assert!(!run.quick && run.repeat == 1 && run.out.is_none());
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--workload all --trace 2")).is_err());
        assert!(parse_run(&args("--workload all --seconds 0")).is_err());
        assert!(parse_run(&args("--workload all --seed")).is_err());
        assert!(parse_run(&args("--workload all --bogus")).is_err());
        assert!(parse_run(&args("--seed 1")).is_err(), "a workload is required");
    }
}
