//! `store_thrash`, `store_resident` and `store_recover`: the storage engine
//! under a seeded get / apply / scan mix, checked against a shadow
//! `BTreeMap`, and its crash recovery over the log that mix leaves behind.

use crate::catalog::LayerRows;
use crate::harness::{span_median_ns, span_ns_per, Checks, RoundOutcome, Scale, Timed, Workload};
use crate::layers;
use crate::trace::{Folded, Recorder};
use adm_rng::Pcg32;
use std::collections::BTreeMap;
use store::wal::{CrashPoint, NoCrash, PlannedCrash};
use store::{PolicyKind, StorageEngine, StoreError, StoreOp};

/// Records loaded before the mix starts.
pub const RECORDS: u64 = 4_096;
/// Bytes per value: eight records to a 4 KiB page, ~512 pages in all.
pub const VALUE_BYTES: usize = 480;
/// Frames of the thrashing pool: one eighth of the data.
pub const THRASH_FRAMES: usize = 64;
/// Frames of the resident pool: the ~512 loaded pages and the ~1,350
/// pages a round's overwrites append (pages are never reused) all fit.
pub const RESIDENT_FRAMES: usize = 2_048;
/// Calls per round.
const CALLS: usize = 40_000;
/// Keys a `scan_range` covers.
const SCAN_KEYS: u64 = 32;
/// Every how many rounds the crash/recover durability check runs (it
/// replays the whole log, so it is not paid every round).
const DURABILITY_EVERY: u32 = 8;

/// One call of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `get(key)`.
    Get(u64),
    /// `apply(ops)`: one four-op transaction.
    Apply(Vec<StoreOp>),
    /// `scan_range(lo, hi)`.
    Scan(u64, u64),
}

/// The generated inputs and, from replaying them on a shadow map, the
/// outputs a correct engine must produce.
#[derive(Debug)]
pub struct Inputs {
    /// Every value ever written, initial records first; expectations
    /// point into it so no value is stored twice.
    arena: Vec<Vec<u8>>,
    /// The mix.
    pub calls: Vec<Call>,
    /// For each call: what it must return.
    expected: Vec<Expected>,
    /// The shadow map once every call has run: key → arena index.
    shadow: BTreeMap<u64, u32>,
    /// Bytes of user data the applies write (keys + values).
    user_bytes: u64,
}

#[derive(Debug, PartialEq, Eq)]
enum Expected {
    Value(Option<u32>),
    Applied(usize),
    Rows(Vec<(u64, u32)>),
}

/// 80% of accesses go to the first 20% of the keys.
fn skewed_key(rng: &mut Pcg32) -> u64 {
    if rng.chance(0.8) {
        rng.below(RECORDS / 5)
    } else {
        rng.below(RECORDS)
    }
}

fn random_value(rng: &mut Pcg32) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_BYTES];
    rng.fill_bytes(&mut v);
    v
}

impl Inputs {
    /// Generate the records and the call mix from `seed`: exactly 90%
    /// `get`, 8% four-op `apply` (seven puts to one delete) and 2%
    /// `scan_range` of 32 keys, in a seeded order, all with the 80/20 key
    /// skew. The proportions are exact so that another seed changes which
    /// keys and values are touched, not how much work a round is.
    #[must_use]
    pub fn generate(seed: u64, scale: Scale) -> Self {
        #[derive(Clone, Copy)]
        enum Kind {
            Get,
            Apply,
            Scan,
        }
        let mut rng = Pcg32::new(seed);
        let mut arena: Vec<Vec<u8>> = (0..RECORDS).map(|_| random_value(&mut rng)).collect();
        let mut shadow: BTreeMap<u64, u32> = (0..RECORDS).map(|k| (k, k as u32)).collect();
        let n = scale.n(CALLS);
        let (applies, scans) = (n * 8 / 100, n * 2 / 100);
        let mut kinds = vec![Kind::Get; n];
        kinds[..applies].fill(Kind::Apply);
        kinds[applies..applies + scans].fill(Kind::Scan);
        for i in (1..n).rev() {
            kinds.swap(i, rng.index(i + 1));
        }
        let mut calls = Vec::with_capacity(n);
        let mut expected = Vec::with_capacity(n);
        let mut user_bytes = 0u64;
        for kind in kinds {
            match kind {
                Kind::Get => {
                    let key = skewed_key(&mut rng);
                    expected.push(Expected::Value(shadow.get(&key).copied()));
                    calls.push(Call::Get(key));
                }
                Kind::Apply => {
                    let ops: Vec<StoreOp> = (0..4)
                        .map(|_| {
                            let key = skewed_key(&mut rng);
                            if rng.below(8) == 0 {
                                shadow.remove(&key);
                                user_bytes += 8;
                                StoreOp::Delete { key }
                            } else {
                                let value = random_value(&mut rng);
                                shadow.insert(key, arena.len() as u32);
                                arena.push(value.clone());
                                user_bytes += 8 + VALUE_BYTES as u64;
                                StoreOp::Put { key, value }
                            }
                        })
                        .collect();
                    expected.push(Expected::Applied(ops.len()));
                    calls.push(Call::Apply(ops));
                }
                Kind::Scan => {
                    let lo = skewed_key(&mut rng);
                    let hi = lo + SCAN_KEYS - 1;
                    expected.push(Expected::Rows(
                        shadow.range(lo..=hi).map(|(&k, &v)| (k, v)).collect(),
                    ));
                    calls.push(Call::Scan(lo, hi));
                }
            }
        }
        Self { arena, calls, expected, shadow, user_bytes }
    }

    /// Fingerprint of the generated inputs (records and calls).
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for v in &self.arena[..RECORDS as usize] {
            bytes.extend_from_slice(v);
        }
        for c in &self.calls {
            match c {
                Call::Get(k) => bytes.extend_from_slice(&k.to_le_bytes()),
                Call::Scan(lo, hi) => {
                    bytes.extend_from_slice(&lo.to_le_bytes());
                    bytes.extend_from_slice(&hi.to_le_bytes());
                }
                Call::Apply(ops) => {
                    for op in ops {
                        bytes.extend_from_slice(&op.key().to_le_bytes());
                        if let StoreOp::Put { value, .. } = op {
                            bytes.extend_from_slice(value);
                        }
                    }
                }
            }
        }
        obs::fnv1a(&bytes)
    }

    /// The digest `StorageEngine::state_digest` must report once every
    /// call has been applied.
    fn final_digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for (k, &v) in &self.shadow {
            let v = &self.arena[v as usize];
            bytes.extend_from_slice(&k.to_le_bytes());
            bytes.extend_from_slice(&(v.len() as u64).to_le_bytes());
            bytes.extend_from_slice(v);
        }
        obs::fnv1a(&bytes)
    }

    /// An engine with the initial records loaded, eight puts to a
    /// transaction.
    fn loaded_engine(&self, frames: usize) -> StorageEngine {
        let mut eng = StorageEngine::with_policy(frames, PolicyKind::Clock);
        for first in (0..RECORDS).step_by(8) {
            let ops: Vec<StoreOp> = (first..first + 8)
                .map(|key| StoreOp::Put { key, value: self.arena[key as usize].clone() })
                .collect();
            eng.apply(&ops).expect("the initial records fit their pages");
        }
        eng
    }
}

/// What a call returned, stashed inside the timed section and checked
/// after it.
enum Got {
    Value(Result<Option<(Vec<u8>, bool)>, StoreError>),
    Applied(Result<store::TxnSummary, StoreError>),
    Rows(Result<Vec<(u64, Vec<u8>)>, StoreError>),
}

/// Crash `eng`, recover it, and check the recovered state against the
/// shadow; then recover again and check nothing moved.
fn check_durability(
    eng: &mut StorageEngine,
    want_digest: u64,
    rec: &mut Recorder,
    checks: &mut Checks,
) {
    eng.crash();
    let span = rec.begin("store.engine.recover");
    let first = eng.recover(&mut NoCrash);
    rec.end(span);
    checks.expect(first.is_ok(), || format!("recover failed: {first:?}"));
    let digest = eng.state_digest();
    checks.expect(digest == Ok(want_digest), || {
        format!("recovered digest {digest:?} != shadow {want_digest:#x}")
    });
    let second = eng.recover(&mut NoCrash);
    let again = eng.state_digest();
    checks.expect(second.is_ok() && again == digest, || {
        format!("a second recover moved the state: {again:?} vs {digest:?}")
    });
}

/// `store_thrash` / `store_resident`.
pub struct StoreMix {
    inputs: Inputs,
    frames: usize,
    /// The loaded engine every round starts from.
    template: StorageEngine,
    want_digest: u64,
    rounds_run: u32,
    /// Pool counters of the last round's mix (exact: every round is the
    /// same calls from the same state).
    pool_delta: store::PoolStats,
    /// `(records, bytes)` of the template's log and of the log after the
    /// mix.
    loaded_wal: (u64, u64),
    mixed_wal: (u64, u64),
}

impl StoreMix {
    /// Generate inputs from `seed` and load an engine with `frames` pool
    /// frames.
    #[must_use]
    pub fn setup(seed: u64, scale: Scale, frames: usize) -> Self {
        let inputs = Inputs::generate(seed, scale);
        let template = inputs.loaded_engine(frames);
        let want_digest = inputs.final_digest();
        let loaded_wal = layers::store::wal_size(template.wal());
        Self {
            inputs,
            frames,
            template,
            want_digest,
            rounds_run: 0,
            pool_delta: store::PoolStats::default(),
            loaded_wal,
            mixed_wal: loaded_wal,
        }
    }
}

impl Workload for StoreMix {
    fn round(&mut self, rec: &mut Recorder, checks: &mut Checks) -> RoundOutcome {
        let mut eng = self.template.clone();
        let before = eng.pool_stats();
        let mut got: Vec<Got> = Vec::with_capacity(self.inputs.calls.len());
        let timed = Timed::start(rec);
        for call in &self.inputs.calls {
            match call {
                Call::Get(key) => {
                    let span = rec.begin("store.engine.get_absent");
                    let r = eng.get_traced(*key);
                    match r {
                        Ok(Some((_, true))) => rec.end_as(span, "store.engine.get_hit"),
                        Ok(Some((_, false))) => rec.end_as(span, "store.engine.get_miss"),
                        _ => rec.end(span),
                    }
                    got.push(Got::Value(r));
                }
                Call::Apply(ops) => {
                    let span = rec.begin("store.engine.apply");
                    let r = eng.apply(ops);
                    rec.end(span);
                    got.push(Got::Applied(r));
                }
                Call::Scan(lo, hi) => {
                    let span = rec.begin("store.engine.scan_range");
                    let r = eng.scan_range(*lo, *hi);
                    rec.end(span);
                    got.push(Got::Rows(r));
                }
            }
        }
        let secs = timed.stop(rec);

        let after = eng.pool_stats();
        self.pool_delta = store::PoolStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            creates: after.creates - before.creates,
            writebacks: after.writebacks - before.writebacks,
        };
        let arena = &self.inputs.arena;
        for (i, (got, want)) in got.iter().zip(&self.inputs.expected).enumerate() {
            let ok = match (got, want) {
                (Got::Value(Ok(v)), Expected::Value(w)) => {
                    v.as_ref().map(|(bytes, _)| bytes.as_slice())
                        == w.map(|idx| arena[idx as usize].as_slice())
                }
                (Got::Applied(Ok(s)), Expected::Applied(n)) => s.applied == *n,
                (Got::Rows(Ok(rows)), Expected::Rows(w)) => {
                    rows.len() == w.len()
                        && rows
                            .iter()
                            .zip(w)
                            .all(|((k, v), (wk, wv))| k == wk && v == &arena[*wv as usize])
                }
                _ => false,
            };
            checks.expect(ok, || format!("call {i} ({:?}) disagrees with the shadow map", want));
        }
        if self.rounds_run.is_multiple_of(DURABILITY_EVERY) || rec.is_enabled() {
            self.mixed_wal = layers::store::wal_size(eng.wal());
            check_durability(&mut eng, self.want_digest, rec, checks);
        }
        self.rounds_run += 1;
        RoundOutcome { ops: self.inputs.calls.len() as u64, secs }
    }

    fn layer_rows(
        &mut self,
        folded: &BTreeMap<&'static str, Folded>,
        rounds: u32,
        rows: &mut LayerRows,
    ) {
        rows.set("store.engine.get_hit_ns", span_median_ns(folded, "store.engine.get_hit"));
        rows.set("store.engine.get_miss_ns", span_median_ns(folded, "store.engine.get_miss"));
        let rounds = u64::from(rounds);
        let applied_ops =
            self.inputs.calls.iter().filter(|c| matches!(c, Call::Apply(_))).count() as u64 * 4;
        rows.set(
            "store.engine.apply_ns_per_op",
            span_ns_per(folded, "store.engine.apply", applied_ops * rounds),
        );
        let scanned: u64 = self
            .inputs
            .expected
            .iter()
            .map(|e| if let Expected::Rows(r) = e { r.len() as u64 } else { 0 })
            .sum();
        rows.set(
            "store.engine.scan_range_ns_per_row",
            span_ns_per(folded, "store.engine.scan_range", scanned * rounds),
        );
        recover_rows(folded, self.mixed_wal.0 * rounds, rows);
        rows.set("store.pool.hit_pct", self.pool_delta.hit_pct() as f64);
        rows.set("store.pool.misses", self.pool_delta.misses as f64);
        rows.set("store.pool.writebacks", self.pool_delta.writebacks as f64);
        rows.set("store.wal.records", (self.mixed_wal.0 - self.loaded_wal.0) as f64);
        rows.set(
            "store.wal.bytes_per_user_byte",
            (self.mixed_wal.1 - self.loaded_wal.1) as f64 / self.inputs.user_bytes as f64,
        );
        layers::store::drive(&self.inputs.arena[..RECORDS as usize], self.frames, rows);
    }
}

fn recover_rows(folded: &BTreeMap<&'static str, Folded>, replayed: u64, rows: &mut LayerRows) {
    rows.set(
        "store.engine.recover_ns_per_record",
        span_ns_per(folded, "store.engine.recover", replayed),
    );
    rows.set("store.engine.recover_ms", span_median_ns(folded, "store.engine.recover") / 1e6);
}

/// `store_recover`.
pub struct StoreRecover {
    inputs: Inputs,
    /// The crashed engine every round recovers: initial load, the whole
    /// mix applied, then a transaction torn before its commit record.
    crashed: StorageEngine,
    want_digest: u64,
    rounds_run: u32,
}

impl StoreRecover {
    /// Generate the mix from `seed`, run it, and crash mid-transaction.
    ///
    /// # Panics
    /// If the engine refuses the generated mix (a bug in the generator).
    #[must_use]
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let inputs = Inputs::generate(seed, scale);
        let mut eng = inputs.loaded_engine(THRASH_FRAMES);
        for call in &inputs.calls {
            if let Call::Apply(ops) = call {
                eng.apply(ops).expect("the generated mix applies");
            }
        }
        // The torn tail: recovery must discard it, so the recovered state
        // is exactly the shadow's.
        let torn: Vec<StoreOp> =
            (0..4u64).map(|key| StoreOp::Put { key, value: vec![0xEE; VALUE_BYTES] }).collect();
        let mut hook = PlannedCrash::new(CrashPoint::BeforeCommit);
        let outcome = eng.apply_crashable(&torn, &mut hook);
        assert_eq!(outcome.err(), Some(StoreError::Crashed), "the torn transaction must crash");
        let want_digest = inputs.final_digest();
        Self { inputs, crashed: eng, want_digest, rounds_run: 0 }
    }
}

impl Workload for StoreRecover {
    fn round(&mut self, rec: &mut Recorder, checks: &mut Checks) -> RoundOutcome {
        let mut eng = self.crashed.clone();
        let timed = Timed::start(rec);
        let span = rec.begin("store.engine.recover");
        let stats = eng.recover(&mut NoCrash);
        rec.end(span);
        let secs = timed.stop(rec);

        checks.expect(stats.as_ref().is_ok_and(|s| s.undone == 4), || {
            format!("recovery must discard exactly the torn transaction: {stats:?}")
        });
        let digest = eng.state_digest();
        checks.expect(digest == Ok(self.want_digest), || {
            format!("recovered digest {digest:?} != shadow {:#x}", self.want_digest)
        });
        if self.rounds_run.is_multiple_of(DURABILITY_EVERY) {
            let second = eng.recover(&mut NoCrash);
            let again = eng.state_digest();
            checks.expect(second.is_ok() && again == digest, || {
                format!("a second recover moved the state: {again:?} vs {digest:?}")
            });
        }
        self.rounds_run += 1;
        RoundOutcome { ops: stats.map_or(1, |s| s.replayed as u64), secs }
    }

    fn layer_rows(
        &mut self,
        folded: &BTreeMap<&'static str, Folded>,
        rounds: u32,
        rows: &mut LayerRows,
    ) {
        let (records, bytes) = layers::store::wal_size(self.crashed.wal());
        recover_rows(folded, records * u64::from(rounds), rows);
        rows.set("store.wal.records", records as f64);
        let loaded = RECORDS * (8 + VALUE_BYTES as u64);
        rows.set(
            "store.wal.bytes_per_user_byte",
            bytes as f64 / (loaded + self.inputs.user_bytes) as f64,
        );
        layers::store::drive(&self.inputs.arena[..RECORDS as usize], THRASH_FRAMES, rows);
    }
}

/// Fingerprint of the inputs `seed` generates (for the determinism test).
#[must_use]
pub fn input_digest(seed: u64, scale: Scale) -> u64 {
    Inputs::generate(seed, scale).digest()
}
