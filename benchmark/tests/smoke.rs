//! The 1/20-scale smoke of all eight workloads, untraced and traced, and
//! the checks that tie what the binary prints to `BENCHMARK.json` and
//! `README.md`.

use adm_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use adm_benchmark::cli::{benchmark_json, run_direct};
use adm_benchmark::harness::{RunResult, Scale};
use adm_benchmark::json::Json;
use adm_benchmark::workloads::input_digest;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// Rows that legitimately read 0 on a workload that fills them: the
/// ping-pong never contends for a lock, the resident pool never misses
/// (that is its point), and the tracing overhead can vanish in the noise.
const MAY_BE_ZERO: [&str; 5] = [
    "txn.lock.conflicts",
    "bench.trace.overhead_pct",
    "store.engine.get_miss_ns",
    "store.pool.misses",
    "store.pool.writebacks",
];

fn value(result: &RunResult, name: &str) -> f64 {
    result.metrics.iter().find(|m| m.0 == name).map_or(f64::NAN, |m| m.1)
}

#[test]
fn quick_smoke_of_every_workload_both_ways() {
    let started = Instant::now();
    let mut filled: BTreeSet<&str> = BTreeSet::new();
    for w in WORKLOADS {
        let plain = run_direct(w.name, 17, 0.05, false, Scale::QUICK);
        assert!(plain.correct && plain.failed == 0, "{}: {} failed ops", w.name, plain.failed);
        assert!(plain.attempted >= 1);
        let printed: Vec<&str> = plain.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(printed, declared, "{}: --trace 0 prints every end-to-end metric", w.name);
        for m in &plain.metrics {
            assert!(m.1.is_finite() && m.1 > 0.0, "{}: {} = {} must never be 0", w.name, m.0, m.1);
        }

        let traced = run_direct(w.name, 17, 0.05, true, Scale::QUICK);
        assert!(traced.correct, "{} (traced): {} failed ops", w.name, traced.failed);
        let printed: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(printed, declared, "{}: --trace 1 prints every per-layer metric", w.name);
        for row in PER_LAYER {
            let v = value(&traced, row.name);
            assert!(v.is_finite(), "{}: {} is not a number", w.name, row.name);
            let on_here = row.on == "all" || row.on.split(", ").any(|n| n == w.name);
            if v != 0.0 {
                assert!(on_here, "{} fills {} but the catalogue does not say so", w.name, row.name);
                filled.insert(row.name);
            } else {
                assert!(
                    !on_here || MAY_BE_ZERO.contains(&row.name),
                    "{} should fill {} and left it 0",
                    w.name,
                    row.name
                );
            }
        }
        assert!(
            value(&traced, "bench.trace.unattributed_pct") < 15.0,
            "{}: glue above 15%",
            w.name
        );

        // Exact-count rows repeat exactly: same seed, same counts.
        let again = run_direct(w.name, 17, 0.05, true, Scale::QUICK);
        for row in PER_LAYER.iter().filter(|r| matches!(r.unit, "count" | "cycles")) {
            assert_eq!(
                value(&traced, row.name),
                value(&again, row.name),
                "{}: {} must repeat exactly",
                w.name,
                row.name
            );
        }
        let trace = std::fs::read_to_string(adm_benchmark::cli::trace_path(w.name)).unwrap();
        let trace = Json::parse(&trace).expect("the Chrome trace is JSON");
        assert!(trace.get("traceEvents").and_then(Json::as_arr).is_some_and(|e| e.len() > 1));
    }
    for row in PER_LAYER {
        assert!(
            filled.contains(row.name) || row.name == "txn.lock.conflicts",
            "no workload fills {}",
            row.name
        );
    }
    let took = started.elapsed().as_secs_f64();
    assert!(took < 60.0, "the smoke took {took:.1} s");
    println!("smoke of {} workloads x (untraced + 2 traced) took {took:.1} s", WORKLOADS.len());
}

#[test]
fn generators_are_deterministic_per_seed() {
    let mut seen: BTreeMap<u64, String> = BTreeMap::new();
    for w in WORKLOADS {
        let a = input_digest(w.name, 42, Scale::QUICK).expect("every workload has a generator");
        let b = input_digest(w.name, 42, Scale::QUICK).unwrap();
        let c = input_digest(w.name, 43, Scale::QUICK).unwrap();
        assert_eq!(a, b, "{}: the same seed must generate the same inputs", w.name);
        assert_ne!(a, c, "{}: another seed must generate other inputs", w.name);
        // The store workloads share one generator on purpose; nothing else may.
        if let Some(other) = seen.insert(a, w.name.to_owned()) {
            assert!(w.name.starts_with("store_") && other.starts_with("store_"));
        }
    }
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json exists");
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    assert_eq!(doc, Json::parse(&benchmark_json()).unwrap(), "regenerate it: `-- benchmark-json`");

    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert_eq!(names(&doc, "workloads"), WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    assert_eq!(names(&doc, "end_to_end"), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    assert_eq!(names(&doc, "per_layer"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    let run_seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
    // The driver makes 4 + 22 x workloads runs inside 3420 s, builds included.
    let runs = 4.0 + 22.0 * WORKLOADS.len() as f64;
    assert!(runs * (run_seconds + 6.0) + 300.0 < 3420.0, "{runs} runs do not fit the budget");
    for path in doc.get("paths").and_then(Json::as_arr).unwrap() {
        assert!(root.join(path.as_str().unwrap()).join("Cargo.toml").is_file());
    }
}

#[test]
fn readme_lists_every_workload_and_metric() {
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README.md exists");
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(readme.contains(&format!("`{name}`")), "README.md does not mention `{name}`");
    }
}
