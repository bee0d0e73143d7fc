//! # query — a relational engine with adaptive operators
//!
//! Section 2 of the paper grounds its adaptivity story in the adaptive
//! query processing literature: "pipelined hash join \[31\], hash ripple join
//! \[14\] and the Xjoin \[29\]" and "Eddies \[1\]", and Section 6 calls for "more
//! work on adaptive data operators". Scenario 3 (*intra-query adaptation*)
//! needs an optimiser that misestimates from stale statistics and a
//! mid-query re-optimisation path through safe points. This crate builds all
//! of it from scratch:
//!
//! * [`expr`] — row predicates;
//! * [`op`] — the operator model: a *pull-with-pending* interface
//!   ([`op::Poll`]) so sources can stall the way wide-area sources do, plus
//!   a shared work counter every operator charges;
//! * [`source`] — table scans and delayed/bursty sources;
//! * [`StoreScan`] — scans over records persisted in the `store` engine,
//!   pulling tuples through its buffer pool (page faults surface as
//!   `unspill` work);
//! * [`basic`] — filter, project, block nested-loop join (inner/outer
//!   swappable), index nested-loop, classic build-probe hash join;
//! * [`adaptive`] — the adaptive operators:
//!   [`adaptive::shj`] symmetric pipelined hash join,
//!   [`adaptive::ripple`] block ripple join with online aggregation,
//!   [`adaptive::xjoin`] a 3-stage XJoin with memory overflow and a
//!   reactive stage that works during source stalls,
//!   [`adaptive::eddy`] an eddy routing tuples through predicates with
//!   lottery scheduling;
//! * [`optimizer`] — a cost-based pre-optimiser over (possibly stale)
//!   statistics;
//! * [`exec`] — execution with safe points and mid-query re-optimisation
//!   (Scenario 3's "change the join's inner-loop to the outer-loop or add
//!   an index to one of the tables").

//! ## Quick example
//!
//! A symmetric hash join streaming results while a source stalls:
//!
//! ```
//! use datacomp::{ColumnType, Schema, Table, Value};
//! use query::adaptive::SymmetricHashJoin;
//! use query::op::{drain, WorkCounter};
//! use query::source::{ArrivalPattern, DelayedScan, TableScan};
//!
//! let schema = Schema::new(&[("k", ColumnType::Int)]).unwrap();
//! let mut t = Table::new(schema);
//! for i in 0..10 {
//!     t.insert(vec![Value::Int(i % 3)]).unwrap();
//! }
//! let w = WorkCounter::new();
//! let slow = ArrivalPattern { initial_delay: 5, burst: 2, gap: 3 };
//! let mut join = SymmetricHashJoin::new(
//!     Box::new(TableScan::new(t.clone(), w.clone())),
//!     Box::new(DelayedScan::new(t, slow, w.clone())),
//!     vec![0],
//!     vec![0],
//!     w,
//! );
//! let rows = drain(&mut join, 1_000);
//! assert_eq!(rows.len(), 34); // 3 keys: 4*4 + 3*3 + 3*3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod basic;
pub mod exec;
pub mod expr;
pub(crate) mod join_table;
pub mod op;
pub mod optimizer;
pub mod source;
pub(crate) mod store_scan;
pub mod workload;

pub use exec::AdaptiveJoinExec;
pub use expr::Pred;
pub use op::{Operator, Poll, WorkCounter};
pub use optimizer::Catalog;
pub use store_scan::{persist_table, StoreScan};
