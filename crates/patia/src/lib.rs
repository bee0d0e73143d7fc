//! # patia — the adaptive webserver of Section 5.2
//!
//! > "Each unit of data is known in Patia as an Atom ... the smallest web
//! > object that cannot be subdivided. ... Webpage Atoms are distributed
//! > over the nodes in the system and some may be replicated. ... The
//! > request comes into the system; is received by a *service-agent
//! > component* who takes this request finds the appropriate Atom and
//! > serves it to the client."
//!
//! The crate reproduces Patia's two adaptivity levels and Table 2:
//!
//! * **inter-request** adaptivity — the version of an atom served is chosen
//!   by the monitored bandwidth to the client (constraint 595's
//!   `videohalf`/`videosmall` selection);
//! * **intra-request / fault-tolerance** adaptivity — when a node's
//!   processor utilisation trends past 90 %, the service agent `SWITCH`es:
//!   its data *and processing* state is captured and the agent migrates to
//!   an under-utilised node holding a replica (constraint 455, the flash
//!   crowd defence, spreading onto "a typing-pool's word processing
//!   computers");
//! * **intra-request streaming** adaptivity — [`stream`]: while media is
//!   being delivered, "the codec of the stream is chosen to best suit the
//!   bandwidth, and if the bandwidth should change during mid delivery,
//!   then a new less bandwidth hungry codec is swapped in" (also the
//!   paper's Kendra audio server, Section 6);
//! * [`constraint::paper_table2`] — the exact constraint rows 450/455/595.
//!
//! Modules: [`atom`] (atoms + replica placement), [`constraint`] (Table 2
//! logic), [`agent`] (service agents with migratable state), [`workload`]
//! (Zipf requests, flash crowds, and flow-level cohorts), [`server`] (the
//! serving/adaptation loop over a `ubinet` node fleet), [`supervise`]
//! (heartbeat failure detection, per-peer circuit breakers consulted by
//! BEST, and restart probing with capped exponential backoff), [`wheel`]
//! (the timer queue on the virtual clock, an ordered map), and [`engine`]
//! (the event-driven serving core that skips quiescent ticks; the
//! per-tick `PatiaServer::tick` drives the same batched step).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod atom;
pub mod constraint;
pub mod engine;
pub mod rules;
pub mod server;
pub mod shard;
pub mod stream;
pub mod supervise;
pub mod wheel;
pub mod workload;

pub use agent::ServiceAgent;
pub use atom::{Atom, AtomId, AtomStore, AtomType};
pub use constraint::{paper_table2, AtomConstraint, ConstraintLogic};
pub use engine::{EngineTotals, EventEngine};
pub use rules::{blocked_peers, supervision_table, RuleStats};
pub use server::{PatiaServer, ServerConfig, SwitchGate, TickStats};
pub use shard::{cross_shard_plans, shard_of, ShardHandle};
pub use stream::StreamSession;
pub use supervise::{SuperviseConfig, Supervisor};
pub use wheel::{TimerToken, TimerWheel};
pub use workload::{FlashCrowd, FlowBurst, FlowSpec, FlowState, RequestGen};
