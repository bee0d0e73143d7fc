//! Patia under a flash crowd (Section 5.2, Table 2, Figure 7).
//!
//! A Zipf request stream hits the paper's fleet; at tick 100 a flash crowd
//! descends on `Page1.html`. With adaptivity on, constraint 455 SWITCHes
//! and spreads the service agent over the typing-pool machines; with it
//! off, node1 drowns.
//!
//! Run with: `cargo run -p adm-core --example patia_flashcrowd`

use patia::atom::AtomId;
use patia::server::{PatiaServer, ServerConfig};
use patia::workload::{FlashCrowd, RequestGen};

fn run(adaptive: bool) -> (Vec<u64>, usize, usize) {
    let (net, atoms, constraints) = ServerConfig::paper_fleet();
    let mut server =
        PatiaServer::new(net, atoms, constraints, ServerConfig { adaptive, work_per_request: 400 });
    let crowd = FlashCrowd { from: 100, to: 500, target: AtomId(123), multiplier: 15.0 };
    let mut gen = RequestGen::new(vec![AtomId(123), AtomId(153)], 1.1, 4.0, 2026).with_crowd(crowd);
    let mut latencies = Vec::new();
    let mut switches = 0;
    for t in 1..=1500 {
        let reqs = gen.tick(t);
        let stats = server.tick(&reqs, 64.0);
        switches += stats.migrations.len();
        latencies.extend(stats.latencies.iter());
    }
    let agents = server.agents(AtomId(123)).len();
    (latencies, switches, agents)
}

fn percentile(latencies: &mut [u64], p: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    latencies[((latencies.len() - 1) as f64 * p) as usize]
}

fn main() {
    println!("== Patia: flash crowd on Page1.html (atom 123) ==\n");
    println!("constraints in force:");
    for c in patia::constraint::paper_table2() {
        println!("  {:>4} | atom {:>3} | {}", c.id, c.atom.0, c.render());
    }
    println!();
    println!("  mode     | completions | p50 | p99  | switches | final agents");
    println!("  ---------+-------------+-----+------+----------+-------------");
    for (label, adaptive) in [("adaptive", true), ("static  ", false)] {
        let (mut lat, switches, agents) = run(adaptive);
        let n = lat.len();
        let p50 = percentile(&mut lat, 0.50);
        let p99 = percentile(&mut lat, 0.99);
        println!("  {label} | {n:>11} | {p50:>3} | {p99:>4} | {switches:>8} | {agents:>12}");
    }
    println!("\nThe adaptive server spreads the hot agent over the typing pool");
    println!("(constraint 455) and serves bandwidth-fitted video versions");
    println!("(constraint 595); the static server queues unboundedly instead.");
}
