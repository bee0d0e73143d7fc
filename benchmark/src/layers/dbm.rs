//! Drivers for the layers under the Database Machine: the ORB crossing
//! and the kernel it replaces, the SISR verifier and the simulated CPU
//! (the batch-1 regime), and the relational operators, table clones and
//! codecs (the batch-512 regime) — on the workload's own tables.

use crate::catalog::LayerRows;
use crate::harness::ns_per_call;
use crate::stats;
use adm_core::dbm::DatabaseMachine;
use datacomp::{Codec, LzCodec, Table, Value};
use gokernel::component::{ComponentId, InterfaceId, Rights};
use gokernel::kernels::{all_kernels, KernelKind};
use gokernel::orb::Orb;
use gokernel::sisr::SisrVerifier;
use machine::cost::CostModel;
use machine::isa::{Instr, Program};
use machine::{Cpu, Mode, SegmentTable};
use query::adaptive::eddy::{Eddy, EddyPred};
use query::adaptive::ripple::{AggKind, RippleJoin};
use query::adaptive::shj::SymmetricHashJoin;
use query::adaptive::xjoin::XJoin;
use query::basic::{Filter, HashJoin};
use query::expr::Pred;
use query::op::{drain, Operator, WorkCounter};
use query::source::TableScan;
use query::{AdaptiveJoinExec, Catalog};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 15;

/// An ORB booted the way `DatabaseMachine::boot` boots its own: one
/// stub-text operator component published, one client.
fn replica_orb() -> (Orb, ComponentId, InterfaceId) {
    let mut orb = Orb::new(16 << 20, CostModel::pentium());
    let stub = Program::new(vec![Instr::Halt]).to_bytes();
    let ty = orb.load_type("scan-operator", &stub).expect("the stub verifies");
    let inst = orb.instantiate(ty).expect("the arena has room");
    let iface = orb.publish(inst, 0, Rights::PUBLIC, 0).expect("a fresh instance publishes");
    let client_ty = orb.load_type("query-client", &stub).expect("the stub verifies");
    let client = orb.instantiate(client_ty).expect("the arena has room");
    (orb, client, iface)
}

/// Simulated cycles of one operator activation through the ORB.
///
/// # Panics
/// If the replica ORB refuses the call its original serves.
#[must_use]
pub fn orb_crossing_cycles() -> u64 {
    let (mut orb, client, iface) = replica_orb();
    orb.invoke(client, iface, &[]).expect("the published stub is callable").cycles
}

/// Median host ns to drain `build()` once, over `reps` fresh pipelines.
fn drain_ns(reps: usize, mut build: impl FnMut() -> Box<dyn Operator>) -> f64 {
    let mut ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut op = build();
        let t = Instant::now();
        black_box(drain(op.as_mut(), 1_000).len());
        ns.push(t.elapsed().as_nanos() as f64);
    }
    stats::median(&ns)
}

/// Drive the kernel-side and relational-side layers on `orders ⋈
/// customers` filtered by `pred`.
pub fn drive(orders: &Table, customers: &Table, pred: &Pred, rows: &mut LayerRows) {
    let model = CostModel::pentium();

    // -- kernel side ------------------------------------------------------
    let (mut orb, client, iface) = replica_orb();
    rows.set(
        "gokernel.orb.invoke_ns",
        ns_per_call(BATCHES, 5_000, || {
            black_box(orb.invoke(client, iface, &[]).is_ok());
        }),
    );
    for mut kernel in all_kernels(&model) {
        let row = match kernel.kind() {
            KernelKind::Monolithic => "gokernel.kernels.null_rpc_ns.bsd",
            KernelKind::Mach => "gokernel.kernels.null_rpc_ns.mach",
            KernelKind::L4 => "gokernel.kernels.null_rpc_ns.l4",
            KernelKind::Go => "gokernel.kernels.null_rpc_ns.go",
        };
        rows.set(
            row,
            ns_per_call(BATCHES, 300, || {
                black_box(kernel.null_rpc());
            }),
        );
    }
    // The verifier over a 4096-instruction branchy text: every fourth
    // instruction a short forward branch.
    let n = 4_096usize;
    let mut text: Vec<Instr> = (0..n - 1)
        .map(|i| if i % 4 == 0 && i + 3 < n - 1 { Instr::Jz(0, 2) } else { Instr::Add(0, 1) })
        .collect();
    text.push(Instr::Halt);
    let bytes = Program::new(text).to_bytes();
    let verifier = SisrVerifier::new(model.clone());
    rows.set(
        "gokernel.sisr.verify_ns_per_instr",
        ns_per_call(BATCHES, 5, || {
            black_box(verifier.verify(&bytes).is_ok());
        }) / n as f64,
    );
    // The simulated CPU on straight-line ALU work.
    let mut alu = vec![Instr::MovImm(0, 1)];
    alu.resize(20_000, Instr::Add(0, 0));
    alu.push(Instr::Halt);
    let program = Program::new(alu);
    let segs = SegmentTable::new();
    let run_ns = ns_per_call(BATCHES, 5, || {
        let mut cpu = Cpu::new(4_096, Mode::User, model.clone());
        black_box(cpu.run(&program, &segs, 30_000).is_ok());
    });
    rows.set("machine.cpu.sim_instr_per_s", 20_001.0 / run_ns * 1e9);
    rows.set(
        "core.dbm.boot_ns",
        ns_per_call(BATCHES, 20, || {
            black_box(DatabaseMachine::boot(model.clone()));
        }),
    );

    // -- relational side ----------------------------------------------------
    let (l, r) = (orders.len() as f64, customers.len() as f64);
    let work = WorkCounter::new();
    let scan =
        |t: &Table| -> Box<dyn Operator> { Box::new(TableScan::new(t.clone(), work.clone())) };
    let scan_l = drain_ns(BATCHES, || scan(orders));
    let scan_r = drain_ns(BATCHES, || scan(customers));
    rows.set("query.basic.scan_ns_per_row", scan_l / l);
    let filtered =
        drain_ns(BATCHES, || Box::new(Filter::new(scan(orders), pred.clone(), work.clone())));
    rows.set("query.basic.filter_ns_per_row", (filtered - scan_l).max(0.0) / l);
    // Operator rows are what the operator adds to its inputs' scans.
    let join_row = |total: f64| (total - scan_l - scan_r).max(0.0) / (l + r);
    rows.set(
        "query.basic.hash_join_ns_per_row",
        join_row(drain_ns(BATCHES, || {
            Box::new(HashJoin::new(
                scan(orders),
                scan(customers),
                vec![0],
                vec![0],
                true,
                work.clone(),
            ))
        })),
    );
    rows.set(
        "query.adaptive.shj_ns_per_row",
        join_row(drain_ns(BATCHES, || {
            Box::new(SymmetricHashJoin::new(
                scan(orders),
                scan(customers),
                vec![0],
                vec![0],
                work.clone(),
            ))
        })),
    );
    rows.set(
        "query.adaptive.xjoin_ns_per_row",
        join_row(drain_ns(3, || {
            Box::new(XJoin::new(
                scan(orders),
                scan(customers),
                vec![0],
                vec![0],
                1 << 20,
                work.clone(),
            ))
        })),
    );
    rows.set(
        "query.adaptive.ripple_ns_per_row",
        join_row(drain_ns(3, || {
            Box::new(RippleJoin::new(
                scan(orders),
                scan(customers),
                vec![0],
                vec![0],
                64,
                AggKind::Count,
                work.clone(),
            ))
        })),
    );
    rows.set(
        "query.adaptive.eddy_ns_per_row",
        (drain_ns(BATCHES, || {
            let pool =
                vec![EddyPred::new(pred.clone(), 1), EddyPred::new(Pred::gt(0, Value::Int(0)), 2)];
            Box::new(Eddy::new(scan(orders), pool, work.clone()))
        }) - scan_l)
            .max(0.0)
            / l,
    );
    let mut catalog = Catalog::new();
    catalog.register("orders", orders.clone());
    catalog.register("customers", customers.clone());
    let exec = AdaptiveJoinExec::default();
    rows.set(
        "query.exec.adaptive_join_ns_per_row",
        ns_per_call(BATCHES, 1, || {
            black_box(exec.run(&catalog, "orders", "customers", 0, 0, true, &work).is_ok());
        }) / (l + r),
    );
    rows.set(
        "datacomp.table.clone_ns_per_row",
        ns_per_call(BATCHES, 3, || {
            black_box(orders.clone());
        }) / l,
    );

    // The orders' key column as little-endian bytes: skewed, so it
    // compresses.
    let column: Vec<u8> = orders
        .rows()
        .iter()
        .flat_map(|row| match row[0] {
            Value::Int(k) => k.to_le_bytes(),
            _ => [0; 8],
        })
        .collect();
    let codec = LzCodec;
    let encoded = codec.encode(&column);
    let mb = column.len() as f64 / 1e6;
    rows.set(
        "datacomp.codec.compress_mb_s",
        mb / ns_per_call(5, 1, || {
            black_box(codec.encode(&column));
        }) * 1e9,
    );
    rows.set(
        "datacomp.codec.decompress_mb_s",
        mb / ns_per_call(BATCHES, 2, || {
            black_box(codec.decode(&encoded).is_ok());
        }) * 1e9,
    );
}
