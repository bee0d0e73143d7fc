//! # faultsim — deterministic fault injection across the stack
//!
//! The paper argues the database machine's new slant must survive "units
//! failing — perhaps mid way through answering a query". This crate makes
//! that claim testable: a [`FaultPlan`] is a seeded, tick-indexed schedule
//! of faults — link drops, latency spikes, partitions, node death, CPU
//! pressure, component start/bind failures, SWITCH denials, ORB
//! invocation failures — built from [`adm_rng`] with no wall-clock input,
//! so the same seed replays a byte-identical fault timeline
//! ([`FaultPlan::render`] / [`FaultPlan::digest`]).
//!
//! Each subsystem exposes its own minimal injection surface and pays
//! nothing when no plan is armed:
//!
//! * `ubinet` — [`EnvEvent`](ubinet::sim::EnvEvent) schedule entries
//!   (link up/down, latency, partition/heal, device death);
//! * `compkit` — [`StepFaults`](compkit::adaptivity::StepFaults) gating
//!   each reconfiguration step and
//!   [`FlakyFactory`](compkit::runtime::FlakyFactory) start failures;
//! * `gokernel` — [`InvokeFaults`](gokernel::orb::InvokeFaults) denying
//!   ORB invocations by call index;
//! * `patia` — [`SwitchGate`](patia::server::SwitchGate) denying SWITCH
//!   migrations, plus kill/revive/pressure controls.
//!
//! The adapters ([`PatiaDriver`], [`PlanStepFaults`],
//! [`PlanInvokeFaults`], [`schedule_network`], [`flaky_factory`]) feed
//! all four surfaces from one plan, so a single seed drives a coherent
//! chaos storyline through the whole stack. The root-level `chaos_e2e`
//! conformance suite is built on exactly this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod adapters;
pub mod plan;

pub use adapters::{
    flaky_factory, schedule_network, PatiaDriver, PlanInvokeFaults, PlanStepFaults,
};
pub use plan::{Fault, FaultPlan, FaultSpace};
