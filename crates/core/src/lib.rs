//! # adm-core — the Adaptive Data Management architecture
//!
//! The paper's primary contribution is not one algorithm but an
//! *architecture*: a data management system dissolved into fine-grained
//! components — monitors, gauges, a session manager, an adaptivity manager,
//! a state manager, data components with versions and adaptability rules —
//! over a component-based OS, reconfiguring itself as the environment
//! changes. This crate is that architecture assembled:
//!
//! * the component substrate comes from [`gokernel`] (Go!/SISR + ORB) over
//!   [`machine`];
//! * architecture descriptions and reconfiguration plans from [`adl`];
//! * the adaptation loop (Figure 1) from [`compkit`];
//! * data components (Figure 2) from [`datacomp`];
//! * adaptive query processing from [`query`];
//! * the simulated ubiquitous environment from [`ubinet`];
//! * the Patia webserver (Section 5.2) from [`patia`].
//!
//! On top it adds:
//!
//! * [`selector`] — the paper's data-component constraint forms
//!   (`Select BEST (PDA, Laptop)`, `Select NEAREST (...)`) as a parsed,
//!   evaluable mini-language;
//! * [`scenario`] — the Section 4 scenarios as first-class, deterministic
//!   library flows returning structured reports:
//!   [`scenario::inter_query`] (Scenario 1), [`scenario::system_adapt`]
//!   (Scenario 2), [`scenario::intra_query`] (Scenario 3), and
//!   [`scenario::failover`] (the paper's "units failing mid way through
//!   answering a query" requirement);
//! * [`dbm`] — the paper's closing claim assembled: query operators as
//!   SISR-verified Go! components, every activation crossing the ORB, with
//!   the componentisation overhead measured against the trap-based
//!   alternative.

//! ## Quick example
//!
//! Run Scenario 1 — a PDA's query served from the `BEST` device:
//!
//! ```
//! use adm_core::scenario::inter_query::{run, InterQueryParams};
//!
//! // Idle laptop: BEST picks it, as the paper narrates.
//! let report = run(&InterQueryParams::default());
//! assert_eq!(report.chosen_device, "laptop");
//!
//! // Busy laptop: the second PDA wins.
//! let busy = run(&InterQueryParams { laptop_load: 0.99, ..Default::default() });
//! assert_eq!(busy.chosen_device, "pda2");
//! ```

mod coverage;
pub mod dbm;
pub mod scenario;
pub mod selector;

/// Deterministic seeded randomness, shared workspace-wide.
///
/// Re-exported from the dependency-free [`adm_rng`] crate so downstream
/// users of `adm-core` get workload-grade PRNGs without any external
/// dependency (`rand` is deliberately absent: the workspace builds offline).
pub mod rng {
    pub use adm_rng::{run_cases, Pcg32};
}

pub use dbm::{DatabaseMachine, QueryCost};
pub use scenario::failover;
pub use scenario::inter_query;
pub use scenario::intra_query;
pub use scenario::system_adapt;
pub use selector::{parse_selector, Selector};
