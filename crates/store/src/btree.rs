//! A B+tree index over atom keys: `u64` key → [`RecordId`].
//!
//! Arena-allocated (nodes live in a `Vec`, freed slots recycled), with
//! linked leaves so range scans walk sideways instead of re-descending.
//! Fanout is deliberately small (`MAX_KEYS` = 8) so the unit corpus and
//! the differential oracle exercise splits, borrows and merges constantly
//! rather than never. The engine bills one comparison batch per level per
//! descent.
//!
//! The oracle for this structure is `std::collections::BTreeMap` — a
//! differential suite in the crate root replays seeded op streams against both
//! and demands identical answers plus intact structural invariants
//! ([`BTree::check`]) after every operation.

use crate::page::RecordId;

/// Maximum keys per node; a node splits when it would exceed this.
pub const MAX_KEYS: usize = 8;

/// Minimum keys per non-root node; fewer triggers borrow-or-merge.
/// Chosen so a merge of two minimal nodes plus a separator still fits:
/// `2 * MIN_KEYS + 1 <= MAX_KEYS`.
pub const MIN_KEYS: usize = 3;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    Leaf { keys: Vec<u64>, vals: Vec<RecordId>, next: Option<usize> },
    Branch { keys: Vec<u64>, kids: Vec<usize> },
    Free,
}

/// The B+tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BTree {
    nodes: Vec<Node>,
    free: Vec<usize>,
    root: usize,
    len: usize,
}

impl Default for BTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BTree {
    /// An empty tree.
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::Leaf { keys: Vec::new(), vals: Vec::new(), next: None }],
            free: Vec::new(),
            root: 0,
            len: 0,
        }
    }

    /// Number of keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (a lone leaf is depth 1).
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut n = self.root;
        while let Node::Branch { kids, .. } = &self.nodes[n] {
            n = kids[0];
            d += 1;
        }
        d
    }

    fn alloc(&mut self, node: Node) -> usize {
        if let Some(i) = self.free.pop() {
            self.nodes[i] = node;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn dealloc(&mut self, i: usize) {
        self.nodes[i] = Node::Free;
        self.free.push(i);
    }

    /// Look up a key.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<RecordId> {
        let mut n = self.root;
        loop {
            match &self.nodes[n] {
                Node::Branch { keys, kids } => {
                    n = kids[keys.partition_point(|&k| k <= key)];
                }
                Node::Leaf { keys, vals, .. } => {
                    return keys.binary_search(&key).ok().map(|i| vals[i]);
                }
                Node::Free => unreachable!("descent reached a freed node"),
            }
        }
    }

    /// Insert or replace; returns the previous record id, if any.
    pub fn insert(&mut self, key: u64, val: RecordId) -> Option<RecordId> {
        let (old, split) = self.insert_at(self.root, key, val);
        if let Some((sep, right)) = split {
            let left = self.root;
            self.root = self.alloc(Node::Branch { keys: vec![sep], kids: vec![left, right] });
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_at(
        &mut self,
        n: usize,
        key: u64,
        val: RecordId,
    ) -> (Option<RecordId>, Option<(u64, usize)>) {
        match &mut self.nodes[n] {
            Node::Leaf { keys, vals, next } => {
                match keys.binary_search(&key) {
                    Ok(i) => {
                        let old = std::mem::replace(&mut vals[i], val);
                        return (Some(old), None);
                    }
                    Err(i) => {
                        keys.insert(i, key);
                        vals.insert(i, val);
                    }
                }
                if keys.len() <= MAX_KEYS {
                    return (None, None);
                }
                let mid = keys.len() / 2;
                let rkeys = keys.split_off(mid);
                let rvals = vals.split_off(mid);
                let sep = rkeys[0];
                let old_next = *next;
                let right = self.alloc(Node::Leaf { keys: rkeys, vals: rvals, next: old_next });
                let Node::Leaf { next, .. } = &mut self.nodes[n] else { unreachable!() };
                *next = Some(right);
                (None, Some((sep, right)))
            }
            Node::Branch { keys, kids } => {
                let i = keys.partition_point(|&k| k <= key);
                let kid = kids[i];
                let (old, split) = self.insert_at(kid, key, val);
                if let Some((sep, right)) = split {
                    let Node::Branch { keys, kids } = &mut self.nodes[n] else { unreachable!() };
                    keys.insert(i, sep);
                    kids.insert(i + 1, right);
                    if keys.len() > MAX_KEYS {
                        let mid = keys.len() / 2;
                        let up = keys[mid];
                        let rkeys = keys.split_off(mid + 1);
                        keys.pop();
                        let rkids = kids.split_off(mid + 1);
                        let right = self.alloc(Node::Branch { keys: rkeys, kids: rkids });
                        return (old, Some((up, right)));
                    }
                }
                (old, None)
            }
            Node::Free => unreachable!("descent reached a freed node"),
        }
    }

    /// Remove a key; returns its record id, if present.
    pub fn remove(&mut self, key: u64) -> Option<RecordId> {
        let out = self.remove_at(self.root, key);
        if out.is_some() {
            self.len -= 1;
        }
        // A branch root left with a single child collapses.
        if let Node::Branch { kids, keys } = &self.nodes[self.root] {
            if keys.is_empty() {
                let only = kids[0];
                let old_root = self.root;
                self.root = only;
                self.dealloc(old_root);
            }
        }
        out
    }

    fn remove_at(&mut self, n: usize, key: u64) -> Option<RecordId> {
        match &mut self.nodes[n] {
            Node::Leaf { keys, vals, .. } => match keys.binary_search(&key) {
                Ok(i) => {
                    keys.remove(i);
                    Some(vals.remove(i))
                }
                Err(_) => None,
            },
            Node::Branch { keys, kids } => {
                let i = keys.partition_point(|&k| k <= key);
                let kid = kids[i];
                let out = self.remove_at(kid, key);
                if out.is_some() && self.node_underfull(kid) {
                    self.fix_child(n, i);
                }
                out
            }
            Node::Free => unreachable!("descent reached a freed node"),
        }
    }

    fn node_underfull(&self, n: usize) -> bool {
        match &self.nodes[n] {
            Node::Leaf { keys, .. } | Node::Branch { keys, .. } => keys.len() < MIN_KEYS,
            Node::Free => unreachable!("underfull check on a freed node"),
        }
    }

    fn node_keys(&self, n: usize) -> usize {
        match &self.nodes[n] {
            Node::Leaf { keys, .. } | Node::Branch { keys, .. } => keys.len(),
            Node::Free => unreachable!("key count of a freed node"),
        }
    }

    /// Rebalance `parent`'s `i`-th child after a removal left it underfull:
    /// borrow from a rich sibling, else merge with one.
    fn fix_child(&mut self, parent: usize, i: usize) {
        let Node::Branch { kids, .. } = &self.nodes[parent] else {
            unreachable!("fix_child parent is a branch")
        };
        let child = kids[i];
        let left_sib = if i > 0 { Some(kids[i - 1]) } else { None };
        let right_sib = kids.get(i + 1).copied();

        if let Some(l) = left_sib {
            if self.node_keys(l) > MIN_KEYS {
                self.borrow_from_left(parent, i, l, child);
                return;
            }
        }
        if let Some(r) = right_sib {
            if self.node_keys(r) > MIN_KEYS {
                self.borrow_from_right(parent, i, child, r);
                return;
            }
        }
        if let Some(l) = left_sib {
            self.merge(parent, i - 1, l, child);
        } else if let Some(r) = right_sib {
            self.merge(parent, i, child, r);
        }
    }

    fn borrow_from_left(&mut self, parent: usize, i: usize, left: usize, child: usize) {
        match std::mem::replace(&mut self.nodes[left], Node::Free) {
            Node::Leaf { mut keys, mut vals, next } => {
                let k = keys.pop().expect("rich sibling");
                let v = vals.pop().expect("rich sibling");
                self.nodes[left] = Node::Leaf { keys, vals, next };
                let Node::Leaf { keys, vals, .. } = &mut self.nodes[child] else {
                    unreachable!("sibling levels match")
                };
                keys.insert(0, k);
                vals.insert(0, v);
                let Node::Branch { keys, .. } = &mut self.nodes[parent] else { unreachable!() };
                keys[i - 1] = k;
            }
            Node::Branch { mut keys, mut kids } => {
                let k = keys.pop().expect("rich sibling");
                let kid = kids.pop().expect("rich sibling");
                self.nodes[left] = Node::Branch { keys, kids };
                let Node::Branch { keys: pkeys, .. } = &mut self.nodes[parent] else {
                    unreachable!()
                };
                let sep = std::mem::replace(&mut pkeys[i - 1], k);
                let Node::Branch { keys, kids } = &mut self.nodes[child] else {
                    unreachable!("sibling levels match")
                };
                keys.insert(0, sep);
                kids.insert(0, kid);
            }
            Node::Free => unreachable!("borrow from a freed node"),
        }
    }

    fn borrow_from_right(&mut self, parent: usize, i: usize, child: usize, right: usize) {
        match std::mem::replace(&mut self.nodes[right], Node::Free) {
            Node::Leaf { mut keys, mut vals, next } => {
                let k = keys.remove(0);
                let v = vals.remove(0);
                let new_sep = keys[0];
                self.nodes[right] = Node::Leaf { keys, vals, next };
                let Node::Leaf { keys, vals, .. } = &mut self.nodes[child] else {
                    unreachable!("sibling levels match")
                };
                keys.push(k);
                vals.push(v);
                let Node::Branch { keys, .. } = &mut self.nodes[parent] else { unreachable!() };
                keys[i] = new_sep;
            }
            Node::Branch { mut keys, mut kids } => {
                let k = keys.remove(0);
                let kid = kids.remove(0);
                self.nodes[right] = Node::Branch { keys, kids };
                let Node::Branch { keys: pkeys, .. } = &mut self.nodes[parent] else {
                    unreachable!()
                };
                let sep = std::mem::replace(&mut pkeys[i], k);
                let Node::Branch { keys, kids } = &mut self.nodes[child] else {
                    unreachable!("sibling levels match")
                };
                keys.push(sep);
                kids.push(kid);
            }
            Node::Free => unreachable!("borrow from a freed node"),
        }
    }

    /// Merge `parent`'s children `left` and `right` (adjacent, separator at
    /// `sep_i`) into `left`; `right` is freed.
    fn merge(&mut self, parent: usize, sep_i: usize, left: usize, right: usize) {
        let Node::Branch { keys, kids } = &mut self.nodes[parent] else { unreachable!() };
        let sep = keys.remove(sep_i);
        kids.remove(sep_i + 1);
        match std::mem::replace(&mut self.nodes[right], Node::Free) {
            Node::Leaf { keys: rkeys, vals: rvals, next } => {
                let Node::Leaf { keys, vals, next: lnext } = &mut self.nodes[left] else {
                    unreachable!("sibling levels match")
                };
                keys.extend(rkeys);
                vals.extend(rvals);
                *lnext = next;
            }
            Node::Branch { keys: rkeys, kids: rkids } => {
                let Node::Branch { keys, kids } = &mut self.nodes[left] else {
                    unreachable!("sibling levels match")
                };
                keys.push(sep);
                keys.extend(rkeys);
                kids.extend(rkids);
            }
            Node::Free => unreachable!("merge with a freed node"),
        }
        self.free.push(right);
    }

    /// All `(key, record)` pairs with `lo <= key <= hi`, in key order,
    /// via a sideways leaf walk.
    #[must_use]
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, RecordId)> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        let mut n = self.root;
        loop {
            match &self.nodes[n] {
                Node::Branch { keys, kids } => n = kids[keys.partition_point(|&k| k <= lo)],
                Node::Leaf { .. } => break,
                Node::Free => unreachable!("descent reached a freed node"),
            }
        }
        let mut leaf = Some(n);
        while let Some(l) = leaf {
            let Node::Leaf { keys, vals, next } = &self.nodes[l] else {
                unreachable!("leaf chain stays at leaf level")
            };
            for (i, &k) in keys.iter().enumerate() {
                if k > hi {
                    return out;
                }
                if k >= lo {
                    out.push((k, vals[i]));
                }
            }
            leaf = *next;
        }
        out
    }

    /// Every pair in key order.
    #[must_use]
    pub fn iter_all(&self) -> Vec<(u64, RecordId)> {
        self.range(0, u64::MAX)
    }

    /// Structural invariants, for the test tiers: sorted keys, uniform
    /// depth, separator correctness, minimum occupancy, intact leaf chain,
    /// and a `len` that matches the leaves.
    ///
    /// # Errors
    /// A description of the first violated invariant.
    pub fn check(&self) -> Result<(), String> {
        let mut leaf_keys = Vec::new();
        self.check_node(self.root, None, None, true, &mut leaf_keys)?;
        if leaf_keys.len() != self.len {
            return Err(format!("len {} but {} keys in leaves", self.len, leaf_keys.len()));
        }
        if !leaf_keys.windows(2).all(|w| w[0] < w[1]) {
            return Err("leaf keys not strictly increasing".to_owned());
        }
        // The leaf chain must visit exactly the in-order leaves.
        let mut n = self.root;
        loop {
            match &self.nodes[n] {
                Node::Branch { kids, .. } => n = kids[0],
                Node::Leaf { .. } => break,
                Node::Free => return Err("freed node on leftmost spine".to_owned()),
            }
        }
        let mut chained = Vec::new();
        let mut leaf = Some(n);
        while let Some(l) = leaf {
            let Node::Leaf { keys, next, .. } = &self.nodes[l] else {
                return Err("leaf chain left the leaf level".to_owned());
            };
            chained.extend_from_slice(keys);
            leaf = *next;
        }
        if chained != leaf_keys {
            return Err("leaf chain disagrees with in-order walk".to_owned());
        }
        Ok(())
    }

    fn check_node(
        &self,
        n: usize,
        lo: Option<u64>,
        hi: Option<u64>,
        is_root: bool,
        leaf_keys: &mut Vec<u64>,
    ) -> Result<usize, String> {
        match &self.nodes[n] {
            Node::Leaf { keys, vals, .. } => {
                if keys.len() != vals.len() {
                    return Err(format!("leaf {n}: {} keys, {} vals", keys.len(), vals.len()));
                }
                if !is_root && keys.len() < MIN_KEYS {
                    return Err(format!("leaf {n} underfull: {} keys", keys.len()));
                }
                if keys.len() > MAX_KEYS {
                    return Err(format!("leaf {n} overfull: {} keys", keys.len()));
                }
                for &k in keys {
                    if lo.is_some_and(|b| k < b) || hi.is_some_and(|b| k >= b) {
                        return Err(format!("leaf {n}: key {k} out of bounds"));
                    }
                }
                leaf_keys.extend_from_slice(keys);
                Ok(1)
            }
            Node::Branch { keys, kids } => {
                if kids.len() != keys.len() + 1 {
                    return Err(format!("branch {n}: {} keys, {} kids", keys.len(), kids.len()));
                }
                if !is_root && keys.len() < MIN_KEYS {
                    return Err(format!("branch {n} underfull: {} keys", keys.len()));
                }
                if keys.len() > MAX_KEYS {
                    return Err(format!("branch {n} overfull: {} keys", keys.len()));
                }
                if !keys.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("branch {n}: separators not increasing"));
                }
                let mut depth = None;
                for (i, &kid) in kids.iter().enumerate() {
                    let klo = if i == 0 { lo } else { Some(keys[i - 1]) };
                    let khi = if i == keys.len() { hi } else { Some(keys[i]) };
                    let d = self.check_node(kid, klo, khi, false, leaf_keys)?;
                    if *depth.get_or_insert(d) != d {
                        return Err(format!("branch {n}: ragged depth"));
                    }
                    // Separators may be *stale* (their key deleted) — they
                    // are routing bounds, not mins; the `klo`/`khi` bounds
                    // above are the real invariant.
                }
                Ok(depth.unwrap_or(0) + 1)
            }
            Node::Free => Err(format!("reachable freed node {n}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;

    fn rid(n: u32) -> RecordId {
        RecordId { page: PageId(n / 100), slot: (n % 100) as u16 }
    }

    #[test]
    fn insert_get_replace() {
        let mut t = BTree::new();
        assert_eq!(t.insert(5, rid(1)), None);
        assert_eq!(t.get(5), Some(rid(1)));
        assert_eq!(t.insert(5, rid(2)), Some(rid(1)));
        assert_eq!(t.get(5), Some(rid(2)));
        assert_eq!(t.len(), 1);
        t.check().unwrap();
    }

    #[test]
    fn grows_through_splits_and_stays_sound() {
        let mut t = BTree::new();
        for k in 0..200u64 {
            t.insert(k * 7 % 199, rid(k as u32));
            t.check().unwrap_or_else(|e| panic!("after insert {k}: {e}"));
        }
        assert_eq!(t.len(), 199, "k*7 mod 199 covers 0..199 with one repeat");
        assert!(t.depth() >= 3, "200 keys at fanout 8 must be at least 3 deep");
    }

    #[test]
    fn shrinks_through_merges_back_to_a_leaf() {
        let mut t = BTree::new();
        for k in 0..100u64 {
            t.insert(k, rid(k as u32));
        }
        for k in 0..100u64 {
            assert_eq!(t.remove(k), Some(rid(k as u32)), "key {k}");
            t.check().unwrap_or_else(|e| panic!("after remove {k}: {e}"));
        }
        assert!(t.is_empty());
        assert_eq!(t.depth(), 1, "the empty tree collapses to a single leaf");
        assert_eq!(t.remove(3), None);
    }

    #[test]
    fn removal_in_random_order_stays_sound() {
        let mut t = BTree::new();
        for k in 0..97u64 {
            t.insert(k, rid(k as u32));
        }
        // A fixed pseudo-shuffle: multiples of a coprime stride.
        for i in 0..97u64 {
            let k = i * 31 % 97;
            assert_eq!(t.remove(k), Some(rid(k as u32)));
            t.check().unwrap_or_else(|e| panic!("after remove {k}: {e}"));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn range_scans_walk_the_leaf_chain() {
        let mut t = BTree::new();
        for k in (0..100u64).step_by(2) {
            t.insert(k, rid(k as u32));
        }
        let got = t.range(10, 20);
        assert_eq!(got.iter().map(|&(k, _)| k).collect::<Vec<_>>(), vec![10, 12, 14, 16, 18, 20]);
        assert_eq!(t.range(3, 3), vec![]);
        assert_eq!(t.range(50, 10), vec![]);
        assert_eq!(t.iter_all().len(), 50);
    }
}
