//! # adm-benchmark — the wall-clock ledger
//!
//! The repository's cycle gate (`BENCH_adm.json`) measures the *virtual*
//! clock; this crate measures the host's. Eight workloads each stress a
//! different set of layers, report the same end-to-end metrics, and — in a
//! separate traced run — the per-layer numbers that say where the time
//! went. Layers are measured from outside, by timing calls into their
//! public functions; nothing outside this directory changes.
//!
//! See `README.md` for the metric catalogue and how to run it.

pub mod catalog;
pub mod cli;
pub mod compare;
pub mod harness;
pub mod json;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;
