//! `store` — a cycle-billed storage engine under the Atoms.
//!
//! The paper's thesis is that the OS/adaptation layer should sit on
//! database machinery; until now our Atoms were in-memory metadata holders
//! and nothing below the adaptation journal survived a crash or cost
//! cycles. This crate is the missing data component, unbundled the way
//! Lomet/Fekete/Weikum argue transaction services should be:
//!
//! * [`page`] — fixed-size slotted pages, the unit of all IO billing;
//! * [`pool`] — a buffer pool under clock (second-chance) replacement;
//! * [`wal`] — a redo/undo write-ahead log sharing compkit's crash-site
//!   machinery, so one scripted-crash harness drives both journals;
//! * `btree` — a B+tree index over atom keys with linked-leaf scans;
//! * [`engine`] — the façade tying them together, billing every page IO
//!   and log force through the machine cost model and `obs` metrics
//!   (`store.pool.hit`, `store.page.io_cycles`, `store.wal.replay_len`).
//!
//! Because the engine exists to be *verified*, each structural component
//! ships with a differential oracle: the buffer pool against an
//! unbounded-memory map, the B-tree against `std::collections::BTreeMap`
//! (both seeded by `adm-rng`), and the WAL under the
//! seeds × crash-points conformance matrix in
//! `tests/store_recovery_e2e.rs`.

pub(crate) mod btree;
pub mod engine;
pub mod page;
pub mod pool;
pub mod wal;

pub use btree::BTree;
pub use engine::{RecoveryStats, StorageEngine, StoreError, StoreOp, TxnSummary};
pub use page::{Page, PageId, RecordId, PAGE_SIZE};
pub use pool::{BufferPool, PolicyKind, PoolStats};
pub use wal::{Boundary, CrashHook, CrashPoint, NoCrash, PlannedCrash, Wal, WalRecord};

/// Differential oracle suites (satellite of the test tier): seeded op
/// streams replayed against both the real structure and a trivially
/// correct oracle, demanding identical answers at every step.
#[cfg(test)]
mod oracle_props {
    use super::*;
    use adm_rng::{run_cases, Pcg32};
    use std::collections::BTreeMap;

    /// Buffer pool vs. an unbounded-memory oracle: any interleaving of
    /// creates, writes and reads must read back exactly what the oracle
    /// holds, whatever the pool evicted in between.
    #[test]
    fn buffer_pool_matches_unbounded_oracle() {
        run_cases(0xB00F, 24, |rng: &mut Pcg32| {
            let cap = 1 + rng.below(6) as usize;
            let mut pool = BufferPool::new(cap);
            let mut oracle: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
            let mut created: Vec<u32> = Vec::new();
            for step in 0..u64::from(rng.range_u32(50, 400)) {
                let _ = step;
                match rng.below(4) {
                    0 => {
                        // Create a fresh page.
                        let pid = created.len() as u32;
                        pool.create(PageId(pid));
                        created.push(pid);
                        oracle.insert(pid, Vec::new());
                    }
                    1 if !created.is_empty() => {
                        // Append a record to a random page.
                        let pid = *rng.choose(&created);
                        let mut body = vec![0u8; 1 + rng.below(24) as usize];
                        rng.fill_bytes(&mut body);
                        let (page, _) = pool.fetch_mut(PageId(pid)).unwrap();
                        if page.insert(&body).is_some() {
                            oracle.get_mut(&pid).unwrap().push(body.len() as u8);
                            oracle.get_mut(&pid).unwrap().extend_from_slice(&body);
                        }
                    }
                    _ if !created.is_empty() => {
                        // Read a random page back and compare records.
                        let pid = *rng.choose(&created);
                        let (page, _) = pool.fetch(PageId(pid)).unwrap();
                        let mut expect = oracle[&pid].as_slice();
                        for (_, body) in page.records() {
                            let len = expect[0] as usize;
                            assert_eq!(
                                body,
                                &expect[1..1 + len],
                                "cap={cap}: page {pid} record diverged"
                            );
                            expect = &expect[1 + len..];
                        }
                        assert!(expect.is_empty(), "oracle has extra records");
                    }
                    _ => {}
                }
            }
        });
    }

    /// B-tree vs. `BTreeMap`: inserts, deletes and range scans from a
    /// seeded stream agree exactly, and the structural invariants hold
    /// after every mutation.
    #[test]
    fn btree_matches_std_btreemap() {
        run_cases(0xB7EE, 32, |rng: &mut Pcg32| {
            let mut tree = BTree::new();
            let mut oracle: BTreeMap<u64, RecordId> = BTreeMap::new();
            let key_space = 1 + u64::from(rng.range_u32(10, 120));
            for step in 0..u64::from(rng.range_u32(100, 600)) {
                let key = rng.below(key_space);
                match rng.below(5) {
                    0..=2 => {
                        let rid = RecordId { page: PageId(step as u32), slot: (step % 7) as u16 };
                        assert_eq!(tree.insert(key, rid), oracle.insert(key, rid));
                    }
                    3 => {
                        assert_eq!(tree.remove(key), oracle.remove(&key));
                    }
                    _ => {
                        let lo = rng.below(key_space);
                        let hi = lo + rng.below(key_space / 2 + 1);
                        let got = tree.range(lo, hi);
                        let want: Vec<(u64, RecordId)> =
                            oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                        assert_eq!(got, want, "range [{lo}, {hi}] diverged");
                    }
                }
                assert_eq!(tree.get(key), oracle.get(&key).copied());
                assert_eq!(tree.len(), oracle.len());
                tree.check().unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
            let all = tree.iter_all();
            let want: Vec<(u64, RecordId)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(all, want);
        });
    }

    /// End-to-end: the engine's committed state always equals a logical
    /// oracle replay, across random crashes and recoveries.
    #[test]
    fn engine_state_matches_logical_oracle_across_crashes() {
        run_cases(0x5709, 16, |rng: &mut Pcg32| {
            let mut eng = StorageEngine::new(1 + rng.below(4) as usize);
            let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            for _ in 0..u64::from(rng.range_u32(5, 25)) {
                let mut ops = Vec::new();
                for _ in 0..u64::from(rng.range_u32(1, 6)) {
                    let key = rng.below(20);
                    if rng.chance(0.25) {
                        ops.push(StoreOp::Delete { key });
                    } else {
                        let mut v = vec![0u8; 1 + rng.below(40) as usize];
                        rng.fill_bytes(&mut v);
                        ops.push(StoreOp::Put { key, value: v });
                    }
                }
                if rng.chance(0.3) {
                    // Crash mid-transaction: the oracle never sees it.
                    let cut = rng.below(ops.len() as u64 + 1) as usize;
                    let mut hook = PlannedCrash::new(if cut == ops.len() {
                        CrashPoint::BeforeCommit
                    } else {
                        CrashPoint::MidPlan { after_steps: cut }
                    });
                    assert_eq!(
                        eng.apply_crashable(&ops, &mut hook).unwrap_err(),
                        StoreError::Crashed
                    );
                    eng.recover(&mut NoCrash).unwrap();
                } else {
                    eng.apply(&ops).unwrap();
                    for op in &ops {
                        match op {
                            StoreOp::Put { key, value } => {
                                oracle.insert(*key, value.clone());
                            }
                            StoreOp::Delete { key } => {
                                oracle.remove(key);
                            }
                        }
                    }
                }
                let got = eng.scan_all().unwrap();
                let want: Vec<(u64, Vec<u8>)> =
                    oracle.iter().map(|(&k, v)| (k, v.clone())).collect();
                assert_eq!(got, want, "engine diverged from the logical oracle");
            }
        });
    }
}
