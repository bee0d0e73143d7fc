//! Per-shard data components: the state half of the unbundling.
//!
//! A [`DataComponent`] owns one shard's [`Runtime`] (live component
//! instances and bindings), its [`StateManager`] archive, a component
//! factory, and — optionally — a [`StorageEngine`] for durable atom
//! state. It exposes *logged operations only*: the transaction core
//! decomposes a plan into [`PlanStep`]s, the shard applies them one at
//! a time through [`PlanStep::apply`] and hands back the [`StepRecord`] that
//! goes into the shared log, and compensation replays those records
//! backwards. The shard itself holds no transaction state: whether its
//! work survives is decided entirely by the transactional component's
//! log, which is what makes in-doubt resolution a pure log read.
//!
//! Store interop: when a [`StorageEngine`] is attached, commit fan-out
//! persists the shard's switched component state through the engine's
//! own write-ahead log ([`DataComponent::persist_steps`]) — a store
//! transaction nested inside the cross-shard one, billed and recovered
//! by the store's machinery. Persistence is logical (put value / delete
//! key), so replaying it during roll-forward recovery is idempotent.

use crate::log::ShardId;
use compkit::journal::StepRecord;
use compkit::runtime::{BasicFactory, Runtime};
use compkit::state::StateManager;
use compkit::SwitchError;
use std::fmt::Write as _;
use store::{StorageEngine, StoreOp};

pub use compkit::journal::PlanStep;

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
    #[cfg(test)]
    pub(crate) fn store_mut(&mut self) -> Option<&mut StorageEngine> {
        self.store.as_mut()
    }

    /// Apply one step, returning the log record that makes it redo- and
    /// undo-able — [`PlanStep::apply`] on this shard's runtime, archive
    /// and factory, so a shard step is exactly a single-node switch step.
    pub fn apply_step(&mut self, step: &PlanStep, now: u64) -> Result<StepRecord, String> {
        let record = step.apply(&mut self.runtime, &mut self.states, &mut self.factory, now);
        record.map_err(|e| match e {
            SwitchError::Create { name, reason } => format!("create {name}: {reason}"),
            SwitchError::Inconsistent(reason) => reason,
            other => other.to_string(),
        })
    }

    /// Compensate one applied step (the record knows how).
    pub fn undo_step(&mut self, record: &StepRecord) -> Result<(), String> {
        record.undo(&mut self.runtime, &mut self.states)
    }

    /// Deterministic digest of the shard's live state: instances with
    /// their full state bytes, then bindings ([`Runtime::digest`]).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.runtime.digest()
    }

    /// Durable key for an instance ([`store_key`]).
    #[cfg(test)]
    pub(crate) fn store_key(&self, instance: &str) -> u64 {
        store_key(self.id, instance)
    }

    /// Commit fan-out persistence: replay the transaction's applied
    /// [`StepRecord`]s against the attached engine — started instances'
    /// current state is written, stopped instances' keys are deleted —
    /// as one committed store transaction through the store WAL. The
    /// records are borrowed from the transaction log, so recovery can
    /// roll a shard forward from the log alone; ops are logical and
    /// therefore idempotent. No-op without an attached store.
    pub fn persist_steps<'r>(
        &mut self,
        records: impl IntoIterator<Item = &'r StepRecord>,
    ) -> Result<usize, String> {
        let Some(engine) = self.store.as_mut() else {
            return Ok(0);
        };
        let mut ops = Vec::new();
        for r in records {
            match r {
                StepRecord::Started { name } => {
                    if let Some(c) = self.runtime.component(name) {
                        let key = store_key(self.id, name);
                        ops.push(StoreOp::Put { key, value: c.state.clone() });
                    }
                }
                StepRecord::Stopped { name, .. } => {
                    let key = store_key(self.id, name);
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

/// Durable key for `instance` on `shard`: the FNV-1a hash of the text
/// `{shard}/{instance}` (`s0/codec`), streamed into the hash. It is
/// shard-qualified so many shards can share one key space.
fn store_key(shard: ShardId, instance: &str) -> u64 {
    let mut h = obs::Fnv1aSink::default();
    let _ = write!(h, "{shard}/{instance}");
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adl::ast::{Binding, PortRef};
    use adl::diff::ReconfigurationPlan;
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
        let plan = swap_plan();
        let steps = PlanStep::decompose(&plan);
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
        let plan = swap_plan();
        let steps = PlanStep::decompose(&plan);
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
        let rec = dc.apply_step(&PlanStep::Stop("opt", "Opt"), 1).unwrap();
        assert!(dc.runtime().component("opt").is_none());
        dc.undo_step(&rec).unwrap();
        assert_eq!(dc.runtime().component("opt").unwrap().state, vec![3]);
    }

    #[test]
    fn apply_step_surfaces_runtime_errors() {
        let mut dc = booted();
        let err = dc.apply_step(&PlanStep::Stop("ghost", "G"), 1);
        assert!(err.is_err());
    }

    #[test]
    fn persist_steps_writes_starts_and_deletes_stops() {
        let mut dc = booted();
        dc.attach_store(StorageEngine::new(8));
        let opt_key = dc.store_key("opt");
        let records = vec![
            dc.apply_step(&PlanStep::Stop("opt", "Opt"), 1).unwrap(),
            dc.apply_step(&PlanStep::Start("wopt", "WOpt"), 1).unwrap(),
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

    /// The streamed key is the hash of the formatted `s{id}/{name}` text,
    /// so the durable key space (and every store digest) is unchanged.
    #[test]
    fn store_key_hashes_the_shard_qualified_name() {
        for id in [0, 1, 7, 42, u32::MAX] {
            for name in ["codec", "agent-123@wp1", "", "é/→"] {
                let shard = ShardId(id);
                assert_eq!(
                    store_key(shard, name),
                    obs::fnv1a(format!("{shard}/{name}").as_bytes()),
                    "s{id}/{name}"
                );
            }
        }
        assert_eq!(DataComponent::new(ShardId(3)).store_key("x"), store_key(ShardId(3), "x"));
    }
}
