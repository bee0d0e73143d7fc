//! Drivers for the layers inside the storage engine — buffer pool,
//! B+tree, slotted page, write-ahead log — which the store workloads only
//! reach through `StorageEngine`. Each is exercised directly, on inputs of
//! the workload's shape: the same records, the same pool capacity.

use crate::catalog::LayerRows;
use crate::harness::ns_per_call;
use std::hint::black_box;
use store::{BTree, BufferPool, Page, PageId, PolicyKind, RecordId, Wal, WalRecord};

/// Timed batches per row.
const BATCHES: usize = 15;

/// `(records, logical bytes)` of a log: a 9-byte header (tag + txn) per
/// record, 8 bytes of key, and each before/after image with a 4-byte
/// length.
#[must_use]
pub fn wal_size(wal: &Wal) -> (u64, u64) {
    let bytes: usize = wal
        .records()
        .iter()
        .map(|r| {
            9 + match r {
                WalRecord::Put { before, after, .. } => {
                    8 + before.as_ref().map_or(0, |b| 4 + b.len()) + 4 + after.len()
                }
                WalRecord::Delete { before, .. } => 8 + 4 + before.len(),
                WalRecord::Begin { .. } | WalRecord::Commit { .. } | WalRecord::Abort { .. } => 0,
            }
        })
        .sum();
    (wal.len() as u64, bytes as u64)
}

/// A pool of `frames` frames over `pages` full pages of `records`-shaped
/// bodies, every page written back to stable storage.
fn filled_pool(frames: usize, pages: u32, body: &[u8]) -> BufferPool {
    let mut pool = BufferPool::with_policy(frames, PolicyKind::Clock);
    for p in 0..pages {
        pool.create(PageId(p));
        let (page, _) = pool.fetch_mut(PageId(p)).expect("just created");
        while page.fits(body.len()) {
            page.insert(body).expect("fits was checked");
        }
    }
    pool.flush_all();
    pool
}

/// Drive pool, B+tree, page and WAL on `records` (the workload's initial
/// values, key = index) behind a pool of `frames` frames.
pub fn drive(records: &[Vec<u8>], frames: usize, rows: &mut LayerRows) {
    let n = records.len() as u64;
    let mut body = 0u64.to_le_bytes().to_vec();
    body.extend_from_slice(&records[0]);

    // Pool hit: cycle over pages that are all resident.
    let resident = frames.min(512) as u32;
    let mut pool = filled_pool(frames, resident, &body);
    let mut p = 0u32;
    rows.set(
        "store.pool.fetch_hit_ns",
        ns_per_call(BATCHES, 20_000, || {
            p = (p + 1) % resident;
            black_box(pool.fetch(PageId(p)).expect("resident").1);
        }),
    );
    // Pool miss: sweep twice as many pages as there are frames, so the
    // clock hand evicts each page before it is asked for again.
    let swept = (frames * 2) as u32;
    let mut pool = filled_pool(frames, swept, &body);
    let mut p = 0u32;
    rows.set(
        "store.pool.fetch_miss_ns",
        ns_per_call(BATCHES, 2_000, || {
            p = (p + 1) % swept;
            let access = pool.fetch(PageId(p)).expect("on disk").1;
            debug_assert!(!access.hit);
            black_box(access);
        }),
    );

    // B+tree: the index as the load leaves it (keys inserted in order).
    let rid = |k: u64| RecordId { page: PageId((k / 8) as u32), slot: (k % 8) as u16 };
    let mut tree = BTree::new();
    for k in 0..n {
        tree.insert(k, rid(k));
    }
    rows.set("store.btree.depth", tree.depth() as f64);
    let mut k = 0u64;
    let mut next = || {
        k = (k * 2_654_435_761 + 1) % n;
        k
    };
    rows.set(
        "store.btree.get_ns",
        ns_per_call(BATCHES, 20_000, || {
            black_box(tree.get(next()));
        }),
    );
    rows.set(
        "store.btree.range_ns",
        ns_per_call(BATCHES, 2_000, || {
            let lo = next();
            black_box(tree.range(lo, lo + 31));
        }),
    );
    // Insert fresh keys above the loaded range, then remove them again:
    // both rows see the tree at its loaded size.
    let mut fresh = n;
    let mut insert_ns = Vec::with_capacity(BATCHES);
    let mut remove_ns = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let first = fresh;
        insert_ns.push(ns_per_call(1, 4_000, || {
            black_box(tree.insert(fresh, rid(fresh)));
            fresh += 1;
        }));
        let mut gone = first;
        remove_ns.push(ns_per_call(1, 4_000, || {
            black_box(tree.remove(gone));
            gone += 1;
        }));
    }
    rows.set("store.btree.insert_ns", crate::stats::median(&insert_ns));
    rows.set("store.btree.remove_ns", crate::stats::median(&remove_ns));

    // Slotted page: fill a fresh page, read every slot, delete every slot.
    let per_page = {
        let mut page = Page::new(PageId(0));
        let mut n = 0usize;
        while page.insert(&body).is_some() {
            n += 1;
        }
        n
    };
    let mut pages: Vec<Page> = Vec::new();
    rows.set(
        "store.page.insert_ns",
        ns_per_call(BATCHES, 200, || {
            let mut page = Page::new(PageId(0));
            while page.insert(&body).is_some() {}
            pages.push(page);
        }) / per_page as f64,
    );
    let mut i = 0usize;
    rows.set(
        "store.page.get_ns",
        ns_per_call(BATCHES, 20_000, || {
            i = (i + 1) % (pages.len() * per_page);
            black_box(pages[i / per_page].get((i % per_page) as u16));
        }),
    );
    let mut i = 0usize;
    rows.set(
        "store.page.delete_ns",
        ns_per_call(BATCHES, 200 * per_page / BATCHES, || {
            black_box(pages[i / per_page].delete((i % per_page) as u16));
            i += 1;
        }),
    );

    // WAL append: put records carrying both images, as an overwrite logs.
    let mut wal = Wal::new();
    let mut queued: Vec<WalRecord> = Vec::new();
    let mut append_ns = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        queued.extend((0..2_000u64).map(|key| WalRecord::Put {
            txn: 0,
            key,
            before: Some(records[(key % n) as usize].clone()),
            after: records[((key + 1) % n) as usize].clone(),
        }));
        append_ns.push(ns_per_call(1, 2_000, || {
            wal.append(queued.pop().expect("queued above"));
        }));
    }
    rows.set("store.wal.append_ns", crate::stats::median(&append_ns));
}
