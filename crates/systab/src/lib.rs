//! System tables: the machine's own telemetry served as relational
//! tables through the [`query`] crate's operators.
//!
//! The paper argues the adaptation layer of a ubiquitous fleet should be
//! managed *as data*; DBOS and TabulaROSA (see `PAPERS.md`) push the
//! same thesis for operating systems at large. This crate applies it to
//! the reproduction itself: everything the platform already observes —
//! the metrics registry, the cycle-accounted span log, the supervisor's
//! circuit breakers, the adaptation journal, the unbundled transaction
//! core's log, the buffer-pool frame table, the event engine's timer
//! wheel — is rendered as seven virtual tables with stable schemas:
//!
//! | table             | one row per                 | source                      |
//! |-------------------|-----------------------------|-----------------------------|
//! | `sys.metrics`     | counter/gauge/histogram key | [`obs::MetricsSnapshot`]    |
//! | `sys.spans`       | trace event                 | [`obs::span::TraceEvent`]   |
//! | `sys.supervision` | watched peer                | [`patia::Supervisor`]       |
//! | `sys.switches`    | journal stat / live record  | [`compkit::journal`]        |
//! | `sys.txns`        | 2PC stat / live log record  | [`txn::TransactionCore`]    |
//! | `sys.pool`        | buffer-pool frame           | [`store::BufferPool`]       |
//! | `sys.timers`      | pending deadline            | [`patia::TimerWheel`]       |
//!
//! Row order is deterministic (registry order, event order, name order,
//! frame order, deadline order), so query results golden-pin like every
//! other artifact in the repo. [`SysScan`] is the billed source
//! operator: armed with an [`obs`] hub it charges one
//! [`Primitive::Load`](obs::Primitive) per row served, so introspection
//! itself shows up in the machine's cycle ledger — querying the machine
//! is work the machine performs.
//!
//! [`patia::rules`] states the circuit-breaker screen on BEST candidate
//! lists as a declarative query over `sys.supervision`, property-tested
//! equal to the compiled-in `Supervisor::is_open` filter the server
//! runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scan;
pub mod tables;

pub use scan::{filter_count, scan_rows, sum_int, SysScan};
pub use tables::{
    metrics_table, pool_table, spans_table, supervision_table, switches_table, timers_table,
    txns_table,
};
