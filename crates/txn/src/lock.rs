//! Two-phase lock manager — the concurrency-control half of the
//! transactional component.
//!
//! Resources are named by strings (the convention used by the
//! cross-shard path is `s{shard}/{instance}`), interned once into dense
//! `u32` ids: the lock table is indexed by id, so a transaction that
//! locks names the table has seen before copies no name. Locks are held
//! in [`LockMode::Shared`] or [`LockMode::Exclusive`]. Discipline is
//! *strict* two-phase locking: transactions only acquire while running
//! and release everything at once through [`LockManager::release_all`]
//! at commit or abort, so no lock ever outlives its transaction. The
//! name table grows with the distinct names ever locked, never per
//! transaction.
//!
//! A transaction whose request conflicts does not spin: the manager
//! records a wait-for edge and reports [`LockOutcome::Waiting`]. Callers
//! then ask [`LockManager::detect_deadlock`], which renders the wait-for
//! graph as `(waiter, holder)` edges and feeds them to the same
//! [`adl::analysis::find_cycle`] the document analyser and the plan
//! linter use — one cycle detector for the whole platform. The victim is
//! deterministic: the *youngest* (highest-id) transaction on the cycle
//! dies, so every run of a seeded scenario aborts the same transaction.

use adl::analysis::find_cycle;
use std::collections::BTreeMap;
use std::fmt;

/// How a resource is locked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockMode {
    /// Readers share.
    Shared,
    /// Writers exclude everyone else.
    Exclusive,
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMode::Shared => write!(f, "S"),
            LockMode::Exclusive => write!(f, "X"),
        }
    }
}

/// The answer to an acquire request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held; the transaction may proceed.
    Granted,
    /// The request conflicts; a wait-for edge was recorded.
    Waiting {
        /// The transactions currently blocking the request.
        holders: Vec<u64>,
    },
}

/// A detected deadlock: the rendered cycle plus the chosen victim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deadlock {
    /// The cycle as rendered by [`adl::analysis::find_cycle`], e.g.
    /// `txn:1 -> txn:2 -> txn:1`.
    pub cycle: String,
    /// The transaction chosen to die (the highest id on the cycle).
    pub victim: u64,
}

/// The shared lock table. One instance serves every shard — that is the
/// unbundling: concurrency control lives in the transactional component,
/// not in any one data component.
#[derive(Debug, Clone, Default)]
pub struct LockManager {
    /// id -> resource name (the interner's reverse table).
    names: Vec<String>,
    /// resource name -> id.
    ids: BTreeMap<String, u32>,
    /// id -> holder txn -> mode. An entry empties, but stays, when its
    /// last holder releases.
    granted: Vec<BTreeMap<u64, LockMode>>,
    /// txn -> the single request it is blocked on.
    waiting: BTreeMap<u64, (u32, LockMode)>,
    /// txn -> ids it holds, each once (reverse index for `release_all`).
    held: BTreeMap<u64, Vec<u32>>,
    grants: u64,
    conflicts: u64,
    deadlocks: u64,
    victims: u64,
}

impl LockManager {
    /// An empty lock table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The dense id of `resource`, assigned on its first sight.
    pub(crate) fn intern(&mut self, resource: &str) -> u32 {
        if let Some(&id) = self.ids.get(resource) {
            return id;
        }
        // Four billion distinct names would saturate the id space; a
        // lock table meets a few per shard instance.
        let id = u32::try_from(self.names.len()).unwrap_or(u32::MAX);
        self.names.push(resource.to_owned());
        self.ids.insert(resource.to_owned(), id);
        self.granted.push(BTreeMap::new());
        id
    }

    /// The name `id` was interned from (empty for an id never issued).
    #[must_use]
    pub(crate) fn name(&self, id: u32) -> &str {
        self.names.get(id as usize).map_or("", String::as_str)
    }

    /// Request `resource` in `mode` for `txn`: `acquire_id` on the name's
    /// interned id. Re-entrant requests and Shared→Exclusive upgrades by
    /// a sole holder are granted in place.
    pub fn acquire(&mut self, txn: u64, resource: &str, mode: LockMode) -> LockOutcome {
        let id = self.intern(resource);
        self.acquire_id(txn, id, mode)
    }

    /// Request the interned resource `id` in `mode` for `txn`. Re-entrant
    /// requests and Shared→Exclusive upgrades by a sole holder are
    /// granted in place. An id [`LockManager::intern`] never issued is
    /// granted nothing and blocks on no one.
    pub(crate) fn acquire_id(&mut self, txn: u64, id: u32, mode: LockMode) -> LockOutcome {
        let Some(holders) = self.granted.get_mut(id as usize) else {
            return LockOutcome::Waiting { holders: Vec::new() };
        };
        let own = holders.get(&txn).copied();
        // Already strong enough?
        if own.is_some() && (own == Some(LockMode::Exclusive) || mode == LockMode::Shared) {
            return LockOutcome::Granted;
        }
        let blockers: Vec<u64> = holders
            .iter()
            .filter(|(other, held_mode)| {
                **other != txn
                    && (mode == LockMode::Exclusive || **held_mode == LockMode::Exclusive)
            })
            .map(|(other, _)| *other)
            .collect();
        if blockers.is_empty() {
            if holders.insert(txn, mode).is_none() {
                self.held.entry(txn).or_default().push(id);
            }
            self.waiting.remove(&txn);
            self.grants = self.grants.saturating_add(1);
            LockOutcome::Granted
        } else {
            self.waiting.insert(txn, (id, mode));
            self.conflicts = self.conflicts.saturating_add(1);
            LockOutcome::Waiting { holders: blockers }
        }
    }

    /// Release everything `txn` holds or waits for (strict 2PL shrink at
    /// commit/abort). Returns the number of locks released.
    pub fn release_all(&mut self, txn: u64) -> usize {
        self.waiting.remove(&txn);
        let mut released = 0;
        for id in self.held.remove(&txn).unwrap_or_default() {
            if let Some(holders) = self.granted.get_mut(id as usize) {
                released += usize::from(holders.remove(&txn).is_some());
            }
        }
        released
    }

    /// The wait-for graph as `(waiter, holder)` string edges, in the
    /// `txn:N` rendering [`find_cycle`] reports back.
    #[must_use]
    pub(crate) fn wait_for_edges(&self) -> Vec<(String, String)> {
        let mut edges = Vec::new();
        for (waiter, (id, mode)) in &self.waiting {
            for (holder, held_mode) in self.granted.get(*id as usize).into_iter().flatten() {
                let incompatible =
                    *mode == LockMode::Exclusive || *held_mode == LockMode::Exclusive;
                if holder != waiter && incompatible {
                    edges.push((format!("txn:{waiter}"), format!("txn:{holder}")));
                }
            }
        }
        edges
    }

    /// Run deadlock detection over the wait-for graph. On a cycle, count
    /// it, pick the highest-id member as victim and count the victim; the
    /// caller is responsible for actually aborting it (and then calling
    /// [`LockManager::release_all`] on the victim).
    pub fn detect_deadlock(&mut self) -> Option<Deadlock> {
        let cycle = find_cycle(&self.wait_for_edges())?;
        let victim = cycle
            .split(" -> ")
            .filter_map(|m| m.strip_prefix("txn:"))
            .filter_map(|m| m.parse::<u64>().ok())
            .max()?;
        self.deadlocks = self.deadlocks.saturating_add(1);
        self.victims = self.victims.saturating_add(1);
        Some(Deadlock { cycle, victim })
    }

    /// Resources `txn` currently holds, sorted.
    #[must_use]
    pub fn held_by(&self, txn: u64) -> Vec<String> {
        let ids = self.held.get(&txn).map_or(&[][..], Vec::as_slice);
        let mut names: Vec<String> = ids.iter().map(|&id| self.name(id).to_owned()).collect();
        names.sort();
        names
    }

    /// Current holders of `resource`, sorted by transaction id.
    #[must_use]
    pub fn holders(&self, resource: &str) -> Vec<u64> {
        self.ids
            .get(resource)
            .and_then(|&id| self.granted.get(id as usize))
            .map(|h| h.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Total locks currently granted across all transactions.
    #[must_use]
    pub fn held_total(&self) -> usize {
        self.held.values().map(Vec::len).sum()
    }

    /// Resources with a live grant. Invariant: never exceeds the
    /// resources actually held — contested-but-never-granted names leave
    /// no tracking state behind.
    #[cfg(test)]
    fn resources_tracked(&self) -> usize {
        self.granted.iter().filter(|h| !h.is_empty()).count()
    }

    /// Names interned so far.
    #[cfg(test)]
    fn interned(&self) -> &[String] {
        &self.names
    }

    /// Transactions currently blocked, sorted.
    #[cfg(test)]
    fn waiters(&self) -> Vec<u64> {
        self.waiting.keys().copied().collect()
    }

    /// Cumulative grants.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Cumulative conflicting requests.
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Cumulative deadlocks detected.
    #[cfg(test)]
    fn deadlocks(&self) -> u64 {
        self.deadlocks
    }

    /// Cumulative victims selected.
    #[cfg(test)]
    fn victims(&self) -> u64 {
        self.victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_locks_coexist_exclusive_excludes() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(1, "r", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.acquire(2, "r", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(
            lm.acquire(3, "r", LockMode::Exclusive),
            LockOutcome::Waiting { holders: vec![1, 2] }
        );
        assert_eq!(lm.holders("r"), vec![1, 2]);
        assert_eq!(lm.waiters(), vec![3]);
    }

    #[test]
    fn reentrant_and_upgrade_by_sole_holder() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(1, "r", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.acquire(1, "r", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.acquire(1, "r", LockMode::Exclusive), LockOutcome::Granted);
        assert_eq!(lm.acquire(1, "r", LockMode::Shared), LockOutcome::Granted, "X covers S");
        assert_eq!(lm.held_total(), 1);
    }

    #[test]
    fn upgrade_blocked_by_other_reader() {
        let mut lm = LockManager::new();
        lm.acquire(1, "r", LockMode::Shared);
        lm.acquire(2, "r", LockMode::Shared);
        assert_eq!(
            lm.acquire(1, "r", LockMode::Exclusive),
            LockOutcome::Waiting { holders: vec![2] }
        );
    }

    #[test]
    fn release_all_frees_every_lock_and_wait() {
        let mut lm = LockManager::new();
        lm.acquire(1, "a", LockMode::Exclusive);
        lm.acquire(1, "b", LockMode::Shared);
        lm.acquire(2, "a", LockMode::Exclusive); // waits
        assert_eq!(lm.release_all(1), 2);
        assert!(lm.held_by(1).is_empty());
        assert_eq!(lm.held_total(), 0);
        assert_eq!(lm.acquire(2, "a", LockMode::Exclusive), LockOutcome::Granted);
        assert!(lm.waiters().is_empty());
    }

    #[test]
    fn two_txn_cycle_is_detected_and_youngest_dies() {
        let mut lm = LockManager::new();
        lm.acquire(1, "a", LockMode::Exclusive);
        lm.acquire(2, "b", LockMode::Exclusive);
        lm.acquire(1, "b", LockMode::Exclusive); // 1 waits on 2
        lm.acquire(2, "a", LockMode::Exclusive); // 2 waits on 1 — cycle
        let dl = lm.detect_deadlock().expect("cycle");
        assert_eq!(dl.victim, 2, "youngest (highest id) dies");
        assert!(dl.cycle.contains("txn:1") && dl.cycle.contains("txn:2"));
        lm.release_all(dl.victim);
        assert!(lm.detect_deadlock().is_none());
        assert_eq!(lm.acquire(1, "b", LockMode::Exclusive), LockOutcome::Granted);
        assert_eq!(lm.deadlocks(), 1);
        assert_eq!(lm.victims(), 1);
    }

    #[test]
    fn no_cycle_without_mutual_waits() {
        let mut lm = LockManager::new();
        lm.acquire(1, "a", LockMode::Exclusive);
        lm.acquire(2, "a", LockMode::Exclusive); // 2 waits on 1, no cycle
        assert!(lm.detect_deadlock().is_none());
    }

    #[test]
    fn contested_requests_leave_no_tracking_state() {
        let mut lm = LockManager::new();
        lm.acquire(1, "a", LockMode::Exclusive);
        for txn in 2..10 {
            assert!(matches!(
                lm.acquire(txn, "a", LockMode::Exclusive),
                LockOutcome::Waiting { .. }
            ));
        }
        assert_eq!(lm.resources_tracked(), 1, "only the granted resource is tracked");
        lm.release_all(1);
        for txn in 2..10 {
            lm.release_all(txn);
        }
        assert_eq!(lm.resources_tracked(), 0, "no empty per-resource maps remain");
        assert_eq!(lm.held_total(), 0);
    }

    #[test]
    fn a_thousand_transactions_over_one_footprint_do_not_grow_the_table() {
        let footprint = ["s2/c", "s0/a", "s1/a", "s0/b"];
        let mut lm = LockManager::new();
        for txn in 0..1_000u64 {
            for r in footprint {
                assert_eq!(lm.acquire(txn, r, LockMode::Exclusive), LockOutcome::Granted);
            }
            assert_eq!(
                lm.acquire(txn, "s0/a", LockMode::Shared),
                LockOutcome::Granted,
                "X covers S"
            );
            assert_eq!(lm.held_total(), footprint.len());
            assert_eq!(lm.release_all(txn), footprint.len());
        }
        assert_eq!(lm.held_total(), 0);
        assert_eq!(lm.resources_tracked(), 0, "no resource keeps a live grant");
        let mut names = lm.interned().to_vec();
        names.sort();
        let mut want: Vec<String> = footprint.iter().map(|r| (*r).to_owned()).collect();
        want.sort();
        assert_eq!(names, want, "the name table holds the footprint, once");
    }

    #[test]
    fn counters_accumulate() {
        let mut lm = LockManager::new();
        lm.acquire(1, "a", LockMode::Exclusive);
        lm.acquire(2, "a", LockMode::Exclusive);
        assert_eq!(lm.grants(), 1);
        assert_eq!(lm.conflicts(), 1);
    }
}

/// Randomized 2PL properties against a naive oracle: strict two-phase
/// release leaks nothing, and every induced wait-for cycle is found with
/// exactly one deterministic victim.
#[cfg(test)]
mod props {
    use super::*;
    use adm_rng::Pcg32;
    use std::collections::BTreeSet;

    /// Naive oracle: replay the operation history into a flat set of
    /// (txn, resource) holdings, ignoring modes (only grants recorded).
    #[derive(Default)]
    struct Oracle {
        holdings: BTreeSet<(u64, String)>,
    }

    impl Oracle {
        fn grant(&mut self, txn: u64, r: &str) {
            self.holdings.insert((txn, r.to_owned()));
        }
        fn release_all(&mut self, txn: u64) {
            self.holdings.retain(|(t, _)| *t != txn);
        }
        fn held_by(&self, txn: u64) -> usize {
            self.holdings.iter().filter(|(t, _)| *t == txn).count()
        }
    }

    /// Independent naive cycle check: DFS over the wait-for adjacency.
    fn naive_has_cycle(edges: &[(String, String)]) -> bool {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (a, b) in edges {
            adj.entry(a).or_default().push(b);
        }
        fn dfs<'a>(
            n: &'a str,
            adj: &BTreeMap<&'a str, Vec<&'a str>>,
            active: &mut BTreeSet<&'a str>,
            done: &mut BTreeSet<&'a str>,
        ) -> bool {
            if done.contains(n) {
                return false;
            }
            if !active.insert(n) {
                return true;
            }
            for m in adj.get(n).map(Vec::as_slice).unwrap_or(&[]) {
                if dfs(m, adj, active, done) {
                    return true;
                }
            }
            active.remove(n);
            done.insert(n);
            false
        }
        let nodes: BTreeSet<&str> =
            edges.iter().flat_map(|(a, b)| [a.as_str(), b.as_str()]).collect();
        let mut done = BTreeSet::new();
        for n in nodes {
            let mut active = BTreeSet::new();
            if dfs(n, &adj, &mut active, &mut done) {
                return true;
            }
        }
        false
    }

    #[test]
    fn prop_release_all_leaks_no_lock() {
        for seed in 0..64u64 {
            let mut rng = Pcg32::new(0x51ab_0000 + seed);
            let mut lm = LockManager::new();
            let mut oracle = Oracle::default();
            // A second table driven by interned ids, numbered in reverse
            // of first sight, must agree with the by-name table.
            let mut by_id = LockManager::new();
            let mut id_of = [0u32; 8];
            for k in (0..8).rev() {
                id_of[k] = by_id.intern(&format!("r{k}"));
            }
            for _ in 0..200 {
                let txn = rng.below(6);
                match rng.index(3) {
                    0 | 1 => {
                        let k = rng.below(8);
                        let r = format!("r{k}");
                        let mode =
                            if rng.index(2) == 0 { LockMode::Shared } else { LockMode::Exclusive };
                        let outcome = lm.acquire(txn, &r, mode);
                        assert_eq!(
                            by_id.acquire_id(txn, id_of[k as usize], mode),
                            outcome,
                            "seed {seed}: acquire_id disagrees with acquire on {r}"
                        );
                        if outcome == LockOutcome::Granted {
                            oracle.grant(txn, &r);
                        }
                    }
                    _ => {
                        // Commit or abort: strict 2PL shrink.
                        assert_eq!(lm.release_all(txn), by_id.release_all(txn));
                        oracle.release_all(txn);
                        assert!(
                            lm.held_by(txn).is_empty(),
                            "seed {seed}: txn {txn} leaked a lock after release_all"
                        );
                        assert!(lm.waiters().iter().all(|w| *w != txn));
                    }
                }
                // The reverse index always agrees with the oracle.
                for t in 0..6u64 {
                    assert_eq!(
                        lm.held_by(t).len(),
                        oracle.held_by(t),
                        "seed {seed}: held set diverged for txn {t}"
                    );
                    assert_eq!(lm.held_by(t), by_id.held_by(t), "seed {seed}: txn {t}");
                }
                assert_eq!(lm.waiters(), by_id.waiters(), "seed {seed}");
            }
            // Drain everything; the table must come back empty.
            for t in 0..6u64 {
                lm.release_all(t);
            }
            assert_eq!(lm.held_total(), 0, "seed {seed}: locks leaked at drain");
            assert_eq!(lm.resources_tracked(), 0, "seed {seed}: a grant outlived its holder");
            assert!(lm.interned().len() <= 8, "seed {seed}: names are interned once");
        }
    }

    #[test]
    fn prop_every_induced_cycle_is_detected_with_one_victim() {
        for seed in 0..64u64 {
            let mut rng = Pcg32::new(0xdead_1000 + seed);
            let k = 2 + rng.index(5); // cycle length 2..=6
            let mut lm = LockManager::new();
            // txn i holds r_i exclusively, then requests r_{i+1 mod k}.
            for i in 0..k {
                assert_eq!(
                    lm.acquire(i as u64, &format!("r{i}"), LockMode::Exclusive),
                    LockOutcome::Granted
                );
            }
            for i in 0..k {
                let next = (i + 1) % k;
                assert!(matches!(
                    lm.acquire(i as u64, &format!("r{next}"), LockMode::Exclusive),
                    LockOutcome::Waiting { .. }
                ));
            }
            assert!(naive_has_cycle(&lm.wait_for_edges()), "oracle must agree a cycle exists");
            let dl = lm.detect_deadlock().expect("induced cycle must be detected");
            assert_eq!(dl.victim, (k - 1) as u64, "victim is the youngest on the cycle");
            // Aborting exactly the victim breaks the cycle.
            lm.release_all(dl.victim);
            assert!(lm.detect_deadlock().is_none(), "one victim suffices for one cycle");
            assert!(!naive_has_cycle(&lm.wait_for_edges()), "oracle agrees the cycle is gone");
        }
    }

    #[test]
    fn prop_detector_agrees_with_naive_oracle_on_random_tables() {
        for seed in 0..128u64 {
            let mut rng = Pcg32::new(0x0c1e_0000 + seed);
            let mut lm = LockManager::new();
            for _ in 0..40 {
                let txn = rng.below(5);
                let r = format!("r{}", rng.below(5));
                let _ = lm.acquire(txn, &r, LockMode::Exclusive);
            }
            let edges = lm.wait_for_edges();
            assert_eq!(
                find_cycle(&edges).is_some(),
                naive_has_cycle(&edges),
                "seed {seed}: detector and oracle disagree on {edges:?}"
            );
        }
    }
}
