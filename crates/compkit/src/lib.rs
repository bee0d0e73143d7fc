//! # compkit — the fine-grained component runtime
//!
//! This crate implements the paper's **Adaptation Framework** (Figure 1) and
//! the component-architecture machinery of Figure 3:
//!
//! * [`monitor`] — monitors produce raw environmental readings (CPU load,
//!   bandwidth, battery...);
//! * [`gauge`] — gauges "aggregate raw monitor data for more lightweight
//!   processing": latest, windowed mean, EWMA, max, and trend (slope — the
//!   paper's flash-crowd "trend analysis");
//! * [`rules`] — switching rules: a constraint expression over gauges plus
//!   the action to take when it is broken, with priorities ("the constraint
//!   rules themselves can be prioritised");
//! * [`runtime`] — live component instances and bindings, with state
//!   snapshot/restore for migration;
//! * [`state`] — the State Manager: safe points and state archival, "only
//!   called upon ... when carrying out an update";
//! * [`adaptivity`] — the Adaptivity Manager: executes a reconfiguration
//!   plan **transactionally** ("the switch can be backed off if something
//!   goes wrong");
//! * [`journal`] — the transaction log every switch writes, the one
//!   executor both switch paths share, and the crash model: makes the
//!   transactional promise survive a node crash, with a `recover()`
//!   replay that lands in committed-or-rolled-back, never a hybrid;
//! * [`session`] — the Session Manager: watches gauges, consults the rules,
//!   designs the alternative configuration with the `adl` crate, and hands
//!   the plan to the Adaptivity Manager;
//! * [`planlint`] — the static reconfiguration-plan linter: read/write-set
//!   conflict, lock-order-cycle, undo-completeness, and binding checks the
//!   Adaptivity Manager consults *before* executing any plan, in the same
//!   collect-all diagnostic shape as SISR.
//!
//! The flow of Figure 1 is therefore executable: monitors → gauges →
//! session manager → switching rules → adaptivity manager → (re)bound
//! components, with rollback on failure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptivity;
pub mod gauge;
pub mod journal;
pub mod monitor;
pub mod planlint;
pub mod rules;
pub mod runtime;
pub mod session;
pub mod state;

pub use adaptivity::{AdaptivityManager, NoFaults, StepFaults, SwitchError, SwitchReport};
pub use gauge::{Gauge, GaugeBoard, GaugeKind};
pub use journal::{
    Boundary, CrashHook, CrashPoint, NoCrash, PlannedCrash, RecoveryOutcome, StepRecord,
};
pub use monitor::Monitor;
pub use planlint::{PlanLintReport, PlanLinter, Severity};
pub use rules::{Action, Expr, RuleSet, SwitchingRule};
pub use runtime::{ComponentFactory, LiveComponent, Runtime};
pub use session::{AdaptationEvent, SessionManager};
pub use state::{SafePoint, StateManager};
