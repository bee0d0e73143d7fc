//! Figure 7: the Patia architecture under load — whole flash-crowd runs,
//! adaptive vs static, with the p99 shape printed (the quantity the
//! architecture exists to protect).

use microbench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use patia::atom::AtomId;
use patia::server::{PatiaServer, ServerConfig};
use patia::workload::{FlashCrowd, RequestGen};
use std::hint::black_box;

fn crowd_run(adaptive: bool, ticks: u64) -> (u64, usize) {
    let (net, atoms, constraints) = ServerConfig::paper_fleet();
    let mut s =
        PatiaServer::new(net, atoms, constraints, ServerConfig { adaptive, work_per_request: 400 });
    let crowd = FlashCrowd { from: 50, to: ticks / 2, target: AtomId(123), multiplier: 15.0 };
    let mut gen = RequestGen::new(vec![AtomId(123), AtomId(153)], 1.1, 4.0, 7).with_crowd(crowd);
    let mut lat: Vec<u64> = Vec::new();
    for t in 1..=ticks {
        lat.extend(s.tick(&gen.tick(t), 64.0).latencies.iter());
    }
    lat.sort_unstable();
    let p99 = lat.get(lat.len().saturating_sub(1) * 99 / 100).copied().unwrap_or(0);
    (p99, lat.len())
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_patia");
    group.sample_size(10);
    for adaptive in [true, false] {
        let label = if adaptive { "adaptive" } else { "static" };
        let (p99, served) = crowd_run(adaptive, 1200);
        println!("fig7 {label}: p99={p99} ticks over {served} completions");
        group.bench_function(BenchmarkId::new("flashcrowd_1200_ticks", label), |b| {
            b.iter(|| black_box(crowd_run(adaptive, 1200)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
