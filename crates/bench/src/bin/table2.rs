//! Regenerate **Table 2** (Patia atom-constraint metadata) and exercise
//! each row in a live serving run:
//!
//! * 450 — `BEST` placement of the Page1.html agent;
//! * 455 — `SWITCH` under a flash crowd;
//! * 595 — bandwidth-conditional video version selection across a
//!   bandwidth sweep.

use patia::atom::AtomId;
use patia::constraint::paper_table2;
use patia::server::{PatiaServer, ServerConfig};
use patia::workload::{FlashCrowd, RequestGen};

fn main() {
    println!("Table 2: Snapshot of Atom metadata for Patia Webserver showing Constraints\n");
    println!("  Constraint | Atom | Constraint logic");
    println!("  -----------+------+-----------------");
    for c in paper_table2() {
        println!("  {:>10} | {:>4} | {}", c.id, c.atom.0, c.render());
    }

    // Row 450: BEST placement.
    let (net, atoms, constraints) = ServerConfig::paper_fleet();
    let server = PatiaServer::new(net, atoms, constraints, ServerConfig::default());
    println!(
        "\n[450] agent for Page1.html placed by BEST on: {}",
        server.agents(AtomId(123))[0].node
    );

    // Row 595: bandwidth sweep.
    println!("\n[595] video version served vs client bandwidth:");
    println!("  bandwidth (kbps) | version id | meaning");
    for bw in [10.0, 20.0, 31.0, 64.0, 99.0, 120.0, 500.0] {
        let v = server.select_version(AtomId(153), bw).expect("video atom exists");
        let meaning =
            if (1..=3).contains(&v) { "videohalf (in band)" } else { "videosmall (fallback)" };
        println!("  {bw:>16} | {v:>10} | {meaning}");
    }

    // Row 455: flash crowd SWITCH.
    println!("\n[455] flash crowd on Page1.html (x15 for 400 ticks):");
    for (label, adaptive) in [("adaptive", true), ("static", false)] {
        let (net, atoms, constraints) = ServerConfig::paper_fleet();
        let mut s = PatiaServer::new(
            net,
            atoms,
            constraints,
            ServerConfig { adaptive, work_per_request: 400 },
        );
        let crowd = FlashCrowd { from: 50, to: 450, target: AtomId(123), multiplier: 15.0 };
        let mut gen = RequestGen::new(vec![AtomId(123)], 1.0, 4.0, 7).with_crowd(crowd);
        let mut lat: Vec<u64> = Vec::new();
        let mut switches = 0;
        for t in 1..=1500 {
            let st = s.tick(&gen.tick(t), 64.0);
            switches += st.migrations.len();
            lat.extend(st.latencies.iter());
        }
        lat.sort_unstable();
        let p99 = lat.get((lat.len().saturating_sub(1)) * 99 / 100).copied().unwrap_or(0);
        println!(
            "  {label:<8}: switches={switches}, agents={}, served={}, p99 latency={p99} ticks",
            s.agents(AtomId(123)).len(),
            lat.len()
        );
    }
    println!("\nshape check: the adaptive run SWITCHes >=1 time and bounds p99;");
    println!("the static run never switches and its tail latency explodes.");
}
