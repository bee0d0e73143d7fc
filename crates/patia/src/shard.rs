//! Shard handles: carving the fleet into transaction shards.
//!
//! The unbundled transaction core (`txn` crate) coordinates cross-shard
//! SWITCH as two-phase commit over per-shard data components, but it is
//! deliberately ignorant of the fleet: it sees opaque shard ids and
//! per-shard [`ReconfigurationPlan`]s. This module is the bridge — a
//! [`ShardHandle`] names a shard and lists the fleet nodes whose glue
//! instances it owns, and [`cross_shard_plans`] re-expresses an atom
//! migration (`atom:<id>` moving from one node's `host:<node>` slot to
//! another's) as one plan per involved shard, using exactly the glue
//! naming the chaos mirror established.

use crate::atom::AtomId;
use adl::ast::{Binding, PortRef};
use adl::diff::ReconfigurationPlan;
use std::collections::BTreeMap;

/// The glue component instance standing for a fleet node.
#[must_use]
pub fn host_instance(node: &str) -> String {
    format!("host:{node}")
}

/// The glue component instance standing for an atom's service.
#[must_use]
pub fn atom_instance(atom: AtomId) -> String {
    format!("atom:{}", atom.0)
}

/// The binding that records "this atom's service runs on this node".
#[must_use]
pub fn route_binding(atom: AtomId, node: &str) -> Binding {
    Binding {
        from: PortRef::on(&atom_instance(atom), "route"),
        to: PortRef::on(&host_instance(node), "slot"),
    }
}

/// One shard of the fleet: a stable numeric id (the `txn` crate's shard
/// identity), a display name, and the nodes whose glue instances live in
/// this shard's data component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHandle {
    id: u32,
    name: String,
    nodes: Vec<String>,
}

impl ShardHandle {
    /// A shard `id` named `name` owning `nodes`.
    #[must_use]
    pub fn new(id: u32, name: &str, nodes: Vec<String>) -> Self {
        Self { id, name: name.to_owned(), nodes }
    }

    /// The shard's numeric id.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The shard's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The nodes this shard owns.
    #[must_use]
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Whether `node`'s glue instances live in this shard.
    #[must_use]
    pub(crate) fn owns(&self, node: &str) -> bool {
        self.nodes.iter().any(|n| n == node)
    }
}

/// The shard owning `node`, if any.
#[must_use]
pub fn shard_of<'a>(shards: &'a [ShardHandle], node: &str) -> Option<&'a ShardHandle> {
    shards.iter().find(|s| s.owns(node))
}

/// Per-shard plans for migrating `atom` from `from_node` to `to_node`.
///
/// The source shard unbinds the atom's route and stops its instance; the
/// target shard starts the instance (type `Agent`, matching the chaos
/// glue) and binds the route to the new host. When both nodes live in the
/// same shard the two halves merge into one plan — the coordinator then
/// degenerates into single-shard commit, which must behave identically.
///
/// Returns an empty map when either node is unowned: an unroutable
/// migration is the caller's bug to surface, not a half-planned txn.
#[must_use]
pub fn cross_shard_plans(
    shards: &[ShardHandle],
    atom: AtomId,
    from_node: &str,
    to_node: &str,
) -> BTreeMap<u32, ReconfigurationPlan> {
    let (Some(from), Some(to)) = (shard_of(shards, from_node), shard_of(shards, to_node)) else {
        return BTreeMap::new();
    };
    let mut plans: BTreeMap<u32, ReconfigurationPlan> = BTreeMap::new();
    let source = plans.entry(from.id()).or_default();
    source.unbind.push(route_binding(atom, from_node));
    source.stop.push((atom_instance(atom), "Agent".to_owned()));
    let target = plans.entry(to.id()).or_default();
    target.start.push((atom_instance(atom), "Agent".to_owned()));
    target.bind.push(route_binding(atom, to_node));
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> Vec<ShardHandle> {
        vec![
            ShardHandle::new(0, "east", vec!["node1".into(), "node2".into()]),
            ShardHandle::new(1, "west", vec!["wp1".into()]),
        ]
    }

    #[test]
    fn shard_of_resolves_ownership() {
        let shards = fleet();
        assert_eq!(shard_of(&shards, "node2").map(ShardHandle::id), Some(0));
        assert_eq!(shard_of(&shards, "wp1").map(ShardHandle::name), Some("west"));
        assert!(shard_of(&shards, "ghost").is_none());
    }

    #[test]
    fn cross_shard_migration_splits_into_one_plan_per_shard() {
        let shards = fleet();
        let plans = cross_shard_plans(&shards, AtomId(123), "node1", "wp1");
        assert_eq!(plans.len(), 2);
        let source = &plans[&0];
        assert_eq!(source.unbind, vec![route_binding(AtomId(123), "node1")]);
        assert_eq!(source.stop, vec![("atom:123".to_owned(), "Agent".to_owned())]);
        assert!(source.start.is_empty() && source.bind.is_empty());
        let target = &plans[&1];
        assert_eq!(target.start, vec![("atom:123".to_owned(), "Agent".to_owned())]);
        assert_eq!(target.bind, vec![route_binding(AtomId(123), "wp1")]);
        assert!(target.unbind.is_empty() && target.stop.is_empty());
    }

    #[test]
    fn same_shard_migration_merges_into_one_plan() {
        let shards = fleet();
        let plans = cross_shard_plans(&shards, AtomId(153), "node1", "node2");
        assert_eq!(plans.len(), 1);
        let plan = &plans[&0];
        assert_eq!(plan.unbind.len(), 1);
        assert_eq!(plan.stop.len(), 1);
        assert_eq!(plan.start.len(), 1);
        assert_eq!(plan.bind, vec![route_binding(AtomId(153), "node2")]);
    }

    #[test]
    fn unowned_nodes_yield_no_plans() {
        let shards = fleet();
        assert!(cross_shard_plans(&shards, AtomId(123), "ghost", "wp1").is_empty());
        assert!(cross_shard_plans(&shards, AtomId(123), "node1", "ghost").is_empty());
    }
}
