//! The one hash table every hash-based join in this crate builds and
//! probes, and the column-wise key comparison the nested-loop joins use.
//!
//! Rows live in one `Vec` in insertion order with a parallel `next` chain;
//! each distinct key maps to the index of its newest row, and each row
//! links to the next older row with the same key. A key is assembled in a
//! reused buffer (or borrowed straight from the row when it is a single
//! column) and looked up by slice, so an owned key is allocated once per
//! distinct key and a probe allocates nothing.

use datacomp::{Row, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Whether `a`'s `a_cols` equal `b`'s `b_cols`, column by column.
pub(crate) fn keys_eq(a: &Row, a_cols: &[usize], b: &Row, b_cols: &[usize]) -> bool {
    a_cols.len() == b_cols.len() && a_cols.iter().zip(b_cols).all(|(&i, &j)| a[i] == b[j])
}

/// A fixed multiply-rotate word hasher with a 64-bit finaliser. Join keys
/// come from the engine's own tables, not from an adversary, so the
/// collision resistance of the std default buys nothing here. The
/// finaliser matters: `Value::Int` hashes `(i as f64).to_bits()`, whose
/// low bits are zero for small integers, and the std map picks buckets
/// from the low bits.
#[derive(Debug, Default)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// Murmur3's `fmix64`: every input bit reaches every output bit.
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// End of a chain.
const NIL: u32 = u32::MAX;

/// A position on one key's chain of rows, newest first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor(u32);

impl Cursor {
    /// Whether no row is left under the cursor.
    pub(crate) fn is_done(self) -> bool {
        self.0 == NIL
    }
}

/// A chained hash table from join key to rows.
#[derive(Debug, Default)]
pub(crate) struct JoinTable {
    /// Each distinct key's newest row.
    heads: HashMap<Vec<Value>, u32, BuildHasherDefault<WordHasher>>,
    /// Every inserted row, in insertion order.
    rows: Vec<Row>,
    /// `next[i]`: the next older row with row `i`'s key, or `NIL`.
    next: Vec<u32>,
    /// Scratch for assembling a multi-column key.
    key: Vec<Value>,
}

/// `row`'s `cols` as a slice: borrowed from the row for a one-column key,
/// assembled in `buf` otherwise.
fn key_slice<'a>(buf: &'a mut Vec<Value>, row: &'a Row, cols: &[usize]) -> &'a [Value] {
    if let [c] = cols {
        return std::slice::from_ref(&row[*c]);
    }
    buf.clear();
    buf.extend(cols.iter().map(|&c| row[c].clone()));
    buf
}

impl JoinTable {
    /// Insert `row` under its `cols`, ahead of older rows with that key.
    ///
    /// # Panics
    /// Past `u32::MAX - 1` rows.
    pub(crate) fn insert(&mut self, row: Row, cols: &[usize]) {
        let at = u32::try_from(self.rows.len()).ok().filter(|&i| i != NIL);
        let at = at.expect("a join table holds under u32::MAX rows");
        let key = key_slice(&mut self.key, &row, cols);
        let older = match self.heads.get_mut(key) {
            Some(head) => std::mem::replace(head, at),
            None => {
                self.heads.insert(key.to_vec(), at);
                NIL
            }
        };
        self.next.push(older);
        self.rows.push(row);
    }

    /// A cursor on the rows whose key equals `row`'s `cols`, newest first.
    pub(crate) fn probe(&mut self, row: &Row, cols: &[usize]) -> Cursor {
        let key = key_slice(&mut self.key, row, cols);
        Cursor(self.heads.get(key).copied().unwrap_or(NIL))
    }

    /// The row under `at`, advancing `at` to the next older match.
    pub(crate) fn step(&self, at: &mut Cursor) -> Option<&Row> {
        if at.0 == NIL {
            return None;
        }
        let i = at.0 as usize;
        at.0 = self.next[i];
        Some(&self.rows[i])
    }

    /// Rows held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn row(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    fn matches(t: &mut JoinTable, probe: &Row, cols: &[usize]) -> Vec<Row> {
        let mut at = t.probe(probe, cols);
        let mut out = Vec::new();
        while let Some(r) = t.step(&mut at) {
            out.push(r.clone());
        }
        out
    }

    #[test]
    fn chains_run_newest_first_per_key() {
        let mut t = JoinTable::default();
        for r in [[1, 10], [2, 20], [1, 11], [1, 12], [2, 21]] {
            t.insert(row(&r), &[0]);
        }
        assert_eq!(
            matches(&mut t, &row(&[1]), &[0]),
            [row(&[1, 12]), row(&[1, 11]), row(&[1, 10])]
        );
        assert_eq!(matches(&mut t, &row(&[2]), &[0]), [row(&[2, 21]), row(&[2, 20])]);
        assert!(matches(&mut t, &row(&[3]), &[0]).is_empty());
    }

    #[test]
    fn multi_column_keys_match_on_every_column() {
        let mut t = JoinTable::default();
        for r in [[1, 2, 0], [1, 3, 1], [1, 2, 2]] {
            t.insert(row(&r), &[0, 1]);
        }
        // Probe columns in another order and position than the build's.
        assert_eq!(matches(&mut t, &row(&[9, 2, 1]), &[2, 1]), [row(&[1, 2, 2]), row(&[1, 2, 0])]);
        assert_eq!(matches(&mut t, &row(&[3, 1]), &[1, 0]), [row(&[1, 3, 1])]);
        assert!(matches(&mut t, &row(&[1]), &[0]).is_empty(), "a shorter key is another key");
    }

    #[test]
    fn small_integer_keys_spread_over_the_low_bits() {
        // Without the finaliser every small integer's hash would end in
        // the same low bits (`(i as f64).to_bits()` is zero there), and
        // the std map's bucket index would be one value for all of them.
        let build = BuildHasherDefault::<WordHasher>::default();
        let low: std::collections::BTreeSet<u64> = (0..64i64)
            .map(|i| build.hash_one(std::slice::from_ref(&Value::Int(i))) & 0x3f)
            .collect();
        assert!(low.len() > 32, "only {} distinct low-6-bit patterns of 64", low.len());
    }

    #[test]
    fn a_key_slice_hashes_like_its_owned_vec() {
        let build = BuildHasherDefault::<WordHasher>::default();
        let owned = vec![Value::Int(3), Value::str("x")];
        assert_eq!(build.hash_one(&owned), build.hash_one(owned.as_slice()));
    }

    #[test]
    fn keys_eq_compares_column_by_column() {
        let (a, b) = (row(&[1, 2, 3]), row(&[3, 2, 1]));
        assert!(keys_eq(&a, &[0, 2], &b, &[2, 0]));
        assert!(!keys_eq(&a, &[0], &b, &[0]));
        assert!(!keys_eq(&a, &[0], &b, &[2, 0]), "different arities never match");
    }
}
