//! The three Section 4 scenarios as first-class, deterministic library
//! flows.
//!
//! > "To illustrate how we think this would operate, we have a subset of a
//! > ubiquitous system that consists of a sensor, a Laptop and a PDA."
//!
//! Each scenario builds its environment from the substrate crates, runs the
//! adaptation flow the paper narrates, and returns a structured report the
//! examples, tests and benches all share.

pub mod chaos;
pub mod crashrep;
pub mod failover;
pub mod inter_query;
pub mod intra_query;
pub mod megacrowd;
pub mod storerep;
pub mod system_adapt;
pub mod txnrep;

/// The seeds every seeded matrix replays and every committed golden pins:
/// the chaos storylines, the crash-replay, storage and transaction
/// matrices, and the bench snapshot.
pub const GOLDEN_SEEDS: [u64; 3] = [17, 42, 20_260_806];

/// Fails every bind whose providing instance is `target` — the forward
/// failure that puts a rollback in flight for the crash matrices'
/// mid-rollback, mid-undo and mid-abort cells. With `None` it injects
/// nothing.
#[derive(Debug)]
pub struct FailBindTo {
    /// The instance whose binds fail.
    pub target: Option<String>,
}

impl compkit::StepFaults for FailBindTo {
    fn fail_bind(&mut self, b: &adl::ast::Binding) -> Option<String> {
        (self.target.is_some() && b.to.instance == self.target)
            .then(|| "injected bind failure".to_owned())
    }
}
