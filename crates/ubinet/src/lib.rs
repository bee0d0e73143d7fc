//! # ubinet — the simulated ubiquitous computing environment
//!
//! Section 4 sets its scenarios in "a subset of a ubiquitous system that
//! consists of a sensor, a Laptop and a PDA", with wireless links whose
//! bandwidth moves, batteries that drain, docks that connect and disconnect,
//! and devices that can fail "perhaps mid way through answering a query".
//! None of that hardware exists here, so this crate is the substitution: a
//! deterministic discrete-event simulator of
//!
//! * [`device`] — devices with capacity, load, battery and dock state;
//! * [`link`] — wired/wireless links with time-varying bandwidth profiles;
//! * [`net`] — the topology, indexed by dense device ids: transfer-time
//!   estimation, hop distances and connected components;
//! * [`select`] — the paper's `BEST` (capacity × idleness) and `NEAREST`
//!   (hop distance) device functions;
//! * [`sim`] — the event queue driving undocks, load changes, bandwidth
//!   steps and failures, and emitting monitor readings for the `compkit`
//!   gauge board.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod link;
pub mod net;
pub mod select;
pub mod sim;

pub use device::{Device, DeviceKind};
pub use link::{BandwidthProfile, Link, LinkKind};
pub use net::Network;
pub use select::{best, nearest};
pub use sim::{EnvEvent, Simulator};
