//! Storage-backed scan: a source operator that reads rows out of the
//! `store` engine's record pages instead of an in-memory [`Table`].
//!
//! This is the query side of the paper's "database machine" slant: once
//! Atoms sit on slotted pages behind a buffer pool, the relational layer
//! should pull its tuples through the same machinery and pay the same
//! bill. A [`StoreScan`] walks the engine's key space in order; every
//! record fetch goes through the pool, so a cold scan charges page IO
//! (surfaced here as `unspill` work — tuples coming back from disk)
//! while a warm one is pure `moved` work.
//!
//! Rows cross the page boundary through a tagged little-endian codec
//! ([`encode_row`]/[`decode_row`]) so a stored table round-trips exactly.

use crate::op::{Operator, Poll, WorkCounter};
use datacomp::{Schema, Table, Value};
use store::{StorageEngine, StoreError, StoreOp, TxnSummary};

/// Encode one row as a self-describing byte record.
///
/// Layout (all little-endian): `u16` column count, then per value a tag
/// byte — 0 `Null`, 1 `Bool` (+1 byte), 2 `Int` (+8 bytes), 3 `Float`
/// (+8 bytes, IEEE bits), 4 `Str` (+`u16` length + UTF-8 bytes).
#[must_use]
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + row.len() * 9);
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        match v {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(u8::from(*b));
            }
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(3);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
    out
}

/// Decode a record produced by [`encode_row`]. Returns `None` on any
/// malformed input: bad tag, truncated field, invalid UTF-8, or trailing
/// garbage.
#[must_use]
pub fn decode_row(bytes: &[u8]) -> Option<Vec<Value>> {
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        let s = bytes.get(*pos..*pos + n)?;
        *pos += n;
        Some(s)
    };
    let mut pos = 0;
    let cols = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?);
    let mut row = Vec::with_capacity(usize::from(cols));
    for _ in 0..cols {
        let tag = take(&mut pos, 1)?[0];
        row.push(match tag {
            0 => Value::Null,
            1 => match take(&mut pos, 1)?[0] {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                _ => return None,
            },
            2 => Value::Int(i64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?)),
            3 => Value::float(f64::from_bits(u64::from_le_bytes(
                take(&mut pos, 8)?.try_into().ok()?,
            ))),
            4 => {
                let len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?);
                Value::Str(String::from_utf8(take(&mut pos, usize::from(len))?.to_vec()).ok()?)
            }
            _ => return None,
        });
    }
    (pos == bytes.len()).then_some(row)
}

/// Persist every row of `table` into `engine` as one committed
/// transaction, keyed `base_key + row index`. The table can then be read
/// back with a [`StoreScan`] over `[base_key, base_key + len)`.
///
/// # Errors
/// [`StoreError`] from the storage transaction (e.g. an oversized row).
pub fn persist_table(
    table: &Table,
    base_key: u64,
    engine: &mut StorageEngine,
) -> Result<TxnSummary, StoreError> {
    let ops: Vec<StoreOp> = table
        .rows()
        .iter()
        .enumerate()
        .map(|(i, row)| StoreOp::Put { key: base_key + i as u64, value: encode_row(row) })
        .collect();
    engine.apply(&ops)
}

/// A scan over rows stored in a [`StorageEngine`], pulled through the
/// buffer pool one record per poll.
///
/// The scan owns its engine (the engine is a value type — scenarios clone
/// one in), fixes the key list at construction (`scan_range` over the
/// index), and decodes each record against `schema`. Work accounting:
/// `moved` per row, plus `unspill` when the fetch missed the pool and a
/// page had to come back from disk — the same ledger XJoin uses for
/// re-reading spilled partitions, because it is the same physical event.
#[derive(Debug, Clone)]
pub struct StoreScan {
    engine: StorageEngine,
    keys: Vec<u64>,
    pos: usize,
    schema: Schema,
    work: WorkCounter,
}

impl StoreScan {
    /// Scan every key in `[lo, hi]` (inclusive) that the engine holds.
    ///
    /// # Errors
    /// Returns `Err` if the engine is down (crashed and not recovered).
    pub fn new(
        engine: StorageEngine,
        lo: u64,
        hi: u64,
        schema: Schema,
        work: WorkCounter,
    ) -> Result<Self, StoreError> {
        let keys = engine.scan_range_keys(lo, hi)?;
        Ok(Self { engine, keys, pos: 0, schema, work })
    }

    /// Rows delivered so far.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Restart from a recorded position (safe-point resume after a plan
    /// switch, same contract as [`crate::source::TableScan::seek`]).
    pub fn seek(&mut self, pos: usize) {
        self.pos = pos.min(self.keys.len());
    }

    /// Pool statistics accumulated by this scan's engine.
    #[must_use]
    pub fn pool_stats(&self) -> store::PoolStats {
        self.engine.pool_stats()
    }
}

impl Operator for StoreScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self) -> Poll {
        let Some(&key) = self.keys.get(self.pos) else {
            return Poll::Done;
        };
        self.pos += 1;
        let (bytes, hit) = self
            .engine
            .get_traced(key)
            .expect("scan engine is down")
            .expect("scan key vanished: engine mutated under a running scan");
        if !hit {
            self.work.unspill(1);
        }
        let row = decode_row(&bytes).expect("stored record is not a valid row");
        self.schema.check(&row).expect("stored row does not match the scan schema");
        self.work.moved(1);
        Poll::Ready(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::drain;
    use datacomp::ColumnType;

    fn schema() -> Schema {
        Schema::new(&[("id", ColumnType::Int), ("name", ColumnType::Str)]).unwrap()
    }

    fn table(n: i64) -> Table {
        let mut t = Table::new(schema());
        for i in 0..n {
            t.insert(vec![Value::Int(i), Value::Str(format!("row-{i}"))]).unwrap();
        }
        t
    }

    /// Rows fat enough that a small table still spans several pages.
    fn fat_table(n: i64) -> Table {
        let mut t = Table::new(schema());
        for i in 0..n {
            t.insert(vec![Value::Int(i), Value::Str(format!("{i:0>200}"))]).unwrap();
        }
        t
    }

    #[test]
    fn row_codec_roundtrips_every_value_kind() {
        let row = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::float(2.5),
            Value::Str("atoms".into()),
        ];
        assert_eq!(decode_row(&encode_row(&row)), Some(row));
        assert_eq!(decode_row(&encode_row(&[])), Some(vec![]));
    }

    #[test]
    fn row_codec_rejects_malformed_bytes() {
        let good = encode_row(&[Value::Int(9), Value::Str("x".into())]);
        assert_eq!(decode_row(&good[..good.len() - 1]), None, "truncated");
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(decode_row(&trailing), None, "trailing garbage");
        let mut bad_tag = good;
        bad_tag[2] = 9;
        assert_eq!(decode_row(&bad_tag), None, "unknown tag");
    }

    #[test]
    fn store_scan_reads_back_a_persisted_table() {
        let t = table(20);
        let mut engine = StorageEngine::new(4);
        persist_table(&t, 100, &mut engine).unwrap();
        let w = WorkCounter::new();
        let mut scan = StoreScan::new(engine, 100, 100 + 19, schema(), w.clone()).unwrap();
        let rows = drain(&mut scan, 0);
        assert_eq!(rows, t.rows());
        assert_eq!(w.snapshot().tuples_moved, 20);
        assert_eq!(scan.poll(), Poll::Done, "stays done");
    }

    #[test]
    fn scan_over_a_tiny_pool_faults_pages_in_as_unspills() {
        let t = fat_table(64);
        // ~220-byte records: the table spans several pages, while the
        // pool holds only two frames — a pass must fault pages back in.
        let mut engine = StorageEngine::new(2);
        persist_table(&t, 0, &mut engine).unwrap();
        let w = WorkCounter::new();
        let mut scan = StoreScan::new(engine, 0, 63, schema(), w.clone()).unwrap();
        let rows = drain(&mut scan, 0);
        assert_eq!(rows, t.rows());
        let cold = w.snapshot().unspills;
        assert!(cold > 0, "cold scan over a tiny pool must fault pages in");
        // Sequential access faults each page at most once per pass.
        scan.seek(0);
        drain(&mut scan, 0);
        assert!(w.snapshot().unspills <= cold * 2);
        assert_eq!(w.snapshot().tuples_moved, 128);
    }

    #[test]
    fn seek_resumes_mid_scan_at_a_safe_point() {
        let t = table(10);
        let mut engine = StorageEngine::new(4);
        persist_table(&t, 0, &mut engine).unwrap();
        let mut scan = StoreScan::new(engine, 0, 9, schema(), WorkCounter::new()).unwrap();
        drain(&mut scan, 0);
        scan.seek(7);
        let tail = drain(&mut scan, 0);
        assert_eq!(tail, t.rows()[7..].to_vec());
    }
}
