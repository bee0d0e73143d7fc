//! Per-shard data components: the state half of the unbundling.
//!
//! A [`DataComponent`] owns one shard's [`Runtime`] (live component
//! instances and bindings), its [`StateManager`] archive, a component
//! factory, and — optionally — a [`StorageEngine`] for durable atom
//! state. It exposes *logged operations only*: the transaction core
//! decomposes a [`ReconfigurationPlan`] into [`PlanStep`]s, the shard
//! applies them one at a time and hands back the [`StepRecord`] that
//! goes into the shared log, and compensation replays those records
//! backwards. The shard itself holds no transaction state: whether its
//! work survives is decided entirely by the transactional component's
//! log, which is what makes in-doubt resolution a pure log read.
//!
//! Store interop: when a [`StorageEngine`] is attached, commit fan-out
//! persists the shard's switched component state through the engine's
//! own write-ahead log ([`DataComponent::persist_commit`]) — a store
//! transaction nested inside the cross-shard one, billed and recovered
//! by the store's machinery. Persistence is logical (put value / delete
//! key), so replaying it during roll-forward recovery is idempotent.

use crate::log::ShardId;
use adl::ast::Binding;
use adl::diff::ReconfigurationPlan;
use compkit::journal::StepRecord;
use compkit::runtime::{BasicFactory, ComponentFactory, Runtime};
use compkit::state::StateManager;
use store::{StorageEngine, StoreOp};

/// One step of a shard sub-plan, in execution order
/// (unbind → stop → start → bind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanStep {
    /// Remove a binding.
    Unbind(Binding),
    /// Stop an instance (name, type), archiving its state.
    Stop(String, String),
    /// Start an instance (name, type).
    Start(String, String),
    /// Establish a binding.
    Bind(Binding),
}

impl PlanStep {
    /// Decompose `plan` into its ordered steps.
    #[must_use]
    pub fn decompose(plan: &ReconfigurationPlan) -> Vec<PlanStep> {
        let mut steps = Vec::with_capacity(plan.len());
        for b in &plan.unbind {
            steps.push(PlanStep::Unbind(b.clone()));
        }
        for (n, t) in &plan.stop {
            steps.push(PlanStep::Stop(n.clone(), t.clone()));
        }
        for (n, t) in &plan.start {
            steps.push(PlanStep::Start(n.clone(), t.clone()));
        }
        for b in &plan.bind {
            steps.push(PlanStep::Bind(b.clone()));
        }
        steps
    }

    /// The instances this step touches — the shard-local lock footprint
    /// (composite-own ports have no instance and lock nothing).
    #[must_use]
    pub fn footprint(&self) -> Vec<String> {
        self.instances().map(str::to_owned).collect()
    }

    /// [`PlanStep::footprint`], borrowed.
    pub(crate) fn instances(&self) -> impl Iterator<Item = &str> {
        let (first, second) = match self {
            PlanStep::Unbind(b) | PlanStep::Bind(b) => {
                (b.from.instance.as_deref(), b.to.instance.as_deref())
            }
            PlanStep::Stop(n, _) | PlanStep::Start(n, _) => (Some(n.as_str()), None),
        };
        first.into_iter().chain(second)
    }
}

/// A shard: one runtime's worth of live state behind a logged-operation
/// interface.
#[derive(Debug)]
pub struct DataComponent {
    id: ShardId,
    runtime: Runtime,
    states: StateManager,
    factory: BasicFactory,
    store: Option<StorageEngine>,
}

impl DataComponent {
    /// An empty shard.
    #[must_use]
    pub fn new(id: ShardId) -> Self {
        Self {
            id,
            runtime: Runtime::new(),
            states: StateManager::new(),
            factory: BasicFactory,
            store: None,
        }
    }

    /// The shard id.
    #[must_use]
    pub fn id(&self) -> ShardId {
        self.id
    }

    /// The shard's runtime (read-only; mutation goes through steps).
    #[must_use]
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Direct runtime access for scenario *boot* only — transactional
    /// mutation must go through [`DataComponent::apply_step`].
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.runtime
    }

    /// The shard's state archive.
    #[must_use]
    pub fn states(&self) -> &StateManager {
        &self.states
    }

    /// Attach a storage engine for durable atom persistence.
    pub fn attach_store(&mut self, engine: StorageEngine) {
        self.store = Some(engine);
    }

    /// The attached storage engine, if any.
    #[must_use]
    pub fn store(&self) -> Option<&StorageEngine> {
        self.store.as_ref()
    }

    /// Mutable engine access (reads fault pages, so even `get` is `mut`).
    pub fn store_mut(&mut self) -> Option<&mut StorageEngine> {
        self.store.as_mut()
    }

    /// Apply one step, returning the log record that makes it redo- and
    /// undo-able. Mirrors the single-shard switch semantics exactly:
    /// stop archives state, start consults the factory.
    pub fn apply_step(&mut self, step: &PlanStep, now: u64) -> Result<StepRecord, String> {
        match step {
            PlanStep::Unbind(b) => {
                self.runtime.unbind(b).map_err(|e| e.to_string())?;
                Ok(StepRecord::Unbound(b.clone()))
            }
            PlanStep::Stop(name, _ty) => {
                let comp = self.runtime.stop(name).map_err(|e| e.to_string())?;
                self.states.archive(name, comp.state.clone());
                Ok(StepRecord::Stopped { name: name.clone(), comp })
            }
            PlanStep::Start(name, ty) => {
                let comp = self
                    .factory
                    .create(name, ty, now)
                    .map_err(|e| format!("create {}: {}", e.name, e.reason))?;
                self.runtime.start(name, comp).map_err(|e| e.to_string())?;
                Ok(StepRecord::Started { name: name.clone() })
            }
            PlanStep::Bind(b) => {
                self.runtime.bind(b.clone()).map_err(|e| e.to_string())?;
                Ok(StepRecord::Bound(b.clone()))
            }
        }
    }

    /// Compensate one applied step (the record knows how).
    pub fn undo_step(&mut self, record: &StepRecord) -> Result<(), String> {
        record.undo(&mut self.runtime, &mut self.states)
    }

    /// Deterministic digest of the shard's live state: instances with
    /// their full state bytes, then bindings, FNV-1a hashed.
    #[must_use]
    pub fn digest(&self) -> u64 {
        use std::fmt::Write as _;
        let mut text = String::new();
        let names: Vec<String> = self.runtime.instance_names().map(ToOwned::to_owned).collect();
        for name in names {
            if let Some(c) = self.runtime.component(&name) {
                let hex: String = c.state.iter().map(|b| format!("{b:02x}")).collect();
                let _ = writeln!(text, "{name}:{}@{}={hex}", c.ty, c.started_at);
            }
        }
        for b in self.runtime.bindings() {
            let _ = writeln!(text, "{} -- {}", b.from, b.to);
        }
        obs::fnv1a(text.as_bytes())
    }

    /// Durable key for an instance: shard-qualified so many shards can
    /// share one key space without colliding.
    #[must_use]
    pub fn store_key(&self, instance: &str) -> u64 {
        obs::fnv1a(format!("{}/{instance}", self.id).as_bytes())
    }

    /// Commit fan-out persistence: replay the transaction's applied
    /// [`StepRecord`]s against the attached engine — started instances'
    /// current state is written, stopped instances' keys are deleted —
    /// as one committed store transaction through the store WAL. The
    /// records are exactly what the transaction log holds, so recovery
    /// can roll a shard forward from the log alone; ops are logical and
    /// therefore idempotent. No-op without an attached store.
    pub fn persist_steps(&mut self, records: &[StepRecord]) -> Result<usize, String> {
        let Some(engine) = self.store.as_mut() else {
            return Ok(0);
        };
        let mut ops = Vec::new();
        for r in records {
            match r {
                StepRecord::Started { name } => {
                    if let Some(c) = self.runtime.component(name) {
                        let key = obs::fnv1a(format!("{}/{name}", self.id).as_bytes());
                        ops.push(StoreOp::Put { key, value: c.state.clone() });
                    }
                }
                StepRecord::Stopped { name, .. } => {
                    let key = obs::fnv1a(format!("{}/{name}", self.id).as_bytes());
                    let present = engine.get(key).map_err(|e| e.to_string())?.is_some();
                    if present {
                        ops.push(StoreOp::Delete { key });
                    }
                }
                StepRecord::Unbound(_) | StepRecord::Bound(_) => {}
            }
        }
        if ops.is_empty() {
            return Ok(0);
        }
        let n = ops.len();
        engine.apply(&ops).map_err(|e| e.to_string())?;
        Ok(n)
    }

    /// Digest of the durable store state (`None` without a store; reads
    /// fault pages, hence `mut`).
    pub fn store_digest(&mut self) -> Option<u64> {
        self.store.as_mut().and_then(|e| e.state_digest().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adl::ast::PortRef;
    use compkit::runtime::LiveComponent;

    fn binding(fi: &str, fp: &str, ti: &str, tp: &str) -> Binding {
        Binding { from: PortRef::on(fi, fp), to: PortRef::on(ti, tp) }
    }

    fn booted() -> DataComponent {
        let mut dc = DataComponent::new(ShardId(0));
        let rt = dc.runtime_mut();
        rt.start("sm", LiveComponent { ty: "SM".into(), state: vec![1, 2], started_at: 0 })
            .unwrap();
        rt.start("opt", LiveComponent { ty: "Opt".into(), state: vec![3], started_at: 0 }).unwrap();
        rt.bind(binding("sm", "plan", "opt", "plan")).unwrap();
        dc
    }

    fn swap_plan() -> ReconfigurationPlan {
        ReconfigurationPlan {
            unbind: vec![binding("sm", "plan", "opt", "plan")],
            stop: vec![("opt".into(), "Opt".into())],
            start: vec![("wopt".into(), "WOpt".into())],
            bind: vec![binding("sm", "plan", "wopt", "plan")],
        }
    }

    #[test]
    fn decompose_orders_unbind_stop_start_bind() {
        let steps = PlanStep::decompose(&swap_plan());
        assert_eq!(steps.len(), 4);
        assert!(matches!(steps[0], PlanStep::Unbind(_)));
        assert!(matches!(steps[1], PlanStep::Stop(..)));
        assert!(matches!(steps[2], PlanStep::Start(..)));
        assert!(matches!(steps[3], PlanStep::Bind(_)));
        assert_eq!(steps[0].footprint(), vec!["sm".to_owned(), "opt".to_owned()]);
        assert_eq!(steps[2].footprint(), vec!["wopt".to_owned()]);
    }

    #[test]
    fn apply_then_undo_all_steps_restores_the_digest() {
        let mut dc = booted();
        let before = dc.digest();
        let steps = PlanStep::decompose(&swap_plan());
        let mut records = Vec::new();
        for s in &steps {
            records.push(dc.apply_step(s, 9).unwrap());
        }
        assert_ne!(dc.digest(), before);
        assert!(dc.runtime().component("wopt").is_some());
        for r in records.iter().rev() {
            dc.undo_step(r).unwrap();
        }
        assert_eq!(dc.digest(), before, "full compensation restores the shard byte-for-byte");
    }

    #[test]
    fn stop_archives_state_and_undo_restores_it() {
        let mut dc = booted();
        let rec = dc.apply_step(&PlanStep::Stop("opt".into(), "Opt".into()), 1).unwrap();
        assert!(dc.runtime().component("opt").is_none());
        dc.undo_step(&rec).unwrap();
        assert_eq!(dc.runtime().component("opt").unwrap().state, vec![3]);
    }

    #[test]
    fn apply_step_surfaces_runtime_errors() {
        let mut dc = booted();
        let err = dc.apply_step(&PlanStep::Stop("ghost".into(), "G".into()), 1);
        assert!(err.is_err());
    }

    #[test]
    fn persist_steps_writes_starts_and_deletes_stops() {
        let mut dc = booted();
        dc.attach_store(StorageEngine::new(8));
        let opt_key = dc.store_key("opt");
        let records = vec![
            dc.apply_step(&PlanStep::Stop("opt".into(), "Opt".into()), 1).unwrap(),
            dc.apply_step(&PlanStep::Start("wopt".into(), "WOpt".into()), 1).unwrap(),
        ];
        // opt was never in the store, so only the put lands.
        let n = dc.persist_steps(&records).unwrap();
        assert_eq!(n, 1);
        let wopt_key = dc.store_key("wopt");
        assert!(dc.store_mut().unwrap().get(wopt_key).unwrap().is_some());
        assert!(dc.store_mut().unwrap().get(opt_key).unwrap().is_none());
        // Replaying the persistence (roll-forward recovery) is idempotent.
        let d1 = dc.store_digest().unwrap();
        dc.persist_steps(&records).unwrap();
        assert_eq!(dc.store_digest().unwrap(), d1);
    }

    #[test]
    fn store_keys_are_shard_qualified() {
        let a = DataComponent::new(ShardId(0));
        let b = DataComponent::new(ShardId(1));
        assert_ne!(a.store_key("codec"), b.store_key("codec"));
    }
}
