//! # adl — a Darwin-style architecture description language
//!
//! The paper describes component configurations "using the graphic form of
//! the Darwin configuration language" (Magee, Dulay, Eisenbach & Kramer):
//! components expose *provided* services (filled circles) and *required*
//! services (empty circles); composite components instantiate
//! sub-components and bind requirements to provisions; and — crucially for
//! adaptation — alternative configurations can be guarded so the system can
//! switch between them at run time (Figure 5's docked ↔ wireless sessions).
//!
//! This crate implements the textual form of such a language:
//!
//! * [`token`] / [`mod@parse`] — lexer and recursive-descent parser;
//! * [`ast`] — component types, ports, instances, bindings, `when` guards;
//! * [`analysis`] — semantic checks (unknown types/ports, direction errors,
//!   unbound requirements, duplicates);
//! * [`config`] — flattening a composite + a set of active modes into a
//!   concrete [`config::Configuration`];
//! * [`hierarchy`] — deep flattening of composites-of-composites
//!   ("components that in turn are composed of sub-components") with
//!   delegation resolution through composite borders;
//! * [`mod@diff`] — computing the **reconfiguration plan** between two
//!   configurations (which instances to stop/start, which bindings to
//!   unbind/rebind) — what the Adaptivity Manager executes transactionally;
//! * [`figures`] — the paper's Figure 4 and Figure 5 architectures as
//!   checked, parseable sources;
//! * [`dot`] — Graphviz export using Darwin's filled/empty circle notation.
//!
//! The paper's open issue — "current ADLs ... reconfigure far too slowly" —
//! is answered here by making diffing a pure, allocation-light set
//! computation, timed by the wall-clock ledger's `adl.diff_ns` row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod config;
pub mod diff;
pub mod dot;
pub mod figures;
pub mod hierarchy;
pub mod parse;
pub mod printer;
pub mod token;

pub use analysis::{analyze, find_cycle};
pub use ast::{Binding, ComponentDecl, Decl, Document, PortRef};
pub use config::Configuration;
pub use diff::{diff, ReconfigurationPlan};
pub use hierarchy::flatten_deep;
pub use parse::parse;
