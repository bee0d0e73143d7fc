//! The circuit-breaker screen as a declarative rule over supervision
//! state: the table form of [`Supervisor::is_open`].
//!
//! Every BEST candidate list the server builds passes one screen:
//! `!supervisor.is_open(peer)`, compiled in. This module states the same
//! predicate as data. [`supervision_table`] renders the [`Supervisor`]'s
//! per-peer state as a relational table (the rows `sys.supervision`
//! serves), and [`blocked_peers`] evaluates
//!
//! ```sql
//! SELECT peer FROM sys.supervision WHERE circuit_code = 1  -- OPEN
//! ```
//!
//! with the `query` crate's own operators (scan → filter → project).
//! Peers the supervisor never watched have no row and therefore stay
//! admissible — exactly the `Closed`-for-unknown semantics of
//! [`Supervisor::circuit`]. A property test pins the rule to `is_open`
//! after every heartbeat round.
//!
//! The server does not evaluate the rule: it rebuilds and scans the whole
//! table per call, and serving through it would evaluate it at every
//! screen — 955 times over a 16-row table in one `megacrowd` run of the
//! wall-clock ledger. A rule predicate on the serving path needs
//! incremental evaluation first. Until then the ledger prices one
//! evaluation (`patia.rules.blocked_peers_ns`), and [`RuleStats`]
//! accounts the rows and operator work it spends, outside any [`obs`]
//! hub.

use crate::supervise::{CircuitState, Supervisor};
use datacomp::{ColumnType, Schema, Table, Value};
use query::basic::{Filter, Project};
use query::expr::{CmpOp, Pred};
use query::op::drain;
use query::source::TableScan;
use query::WorkCounter;
use std::collections::BTreeSet;

/// Column index of `peer` in [`supervision_schema`].
pub const COL_PEER: usize = 0;
/// Column index of `circuit_code` in [`supervision_schema`].
pub const COL_CIRCUIT_CODE: usize = 5;

/// The `sys.supervision` schema: one row per watched peer.
///
/// Columns: `peer` (name), `missed` / `clean` (heartbeat counters),
/// `suspected`, `circuit` (the stable
/// [`code_str`](CircuitState::code_str)), `circuit_code` (the stable
/// numeric [`code`](CircuitState::code) — what rules filter on),
/// `restart_attempts`, `next_probe`.
///
/// # Panics
/// Never: the column list is statically well-formed.
#[must_use]
pub fn supervision_schema() -> Schema {
    Schema::new(&[
        ("peer", ColumnType::Str),
        ("missed", ColumnType::Int),
        ("clean", ColumnType::Int),
        ("suspected", ColumnType::Bool),
        ("circuit", ColumnType::Str),
        ("circuit_code", ColumnType::Int),
        ("restart_attempts", ColumnType::Int),
        ("next_probe", ColumnType::Int),
    ])
    .expect("supervision schema is statically valid")
}

/// Freeze a supervisor into a [`supervision_schema`] table, rows in
/// peer-name order (the supervisor's own deterministic iteration
/// order). Unknown peers have no row: absence means admissible.
///
/// # Panics
/// Never: every row is built to the schema.
#[must_use]
pub fn supervision_table(sup: &Supervisor) -> Table {
    let mut t = Table::new(supervision_schema());
    for p in sup.peers() {
        t.insert(vec![
            Value::Str(p.peer),
            Value::Int(i64::from(p.missed)),
            Value::Int(i64::from(p.clean)),
            Value::Bool(p.suspected),
            Value::Str(p.circuit.code_str().to_owned()),
            Value::Int(i64::from(p.circuit.code())),
            Value::Int(i64::from(p.restart_attempts)),
            Value::Int(i64::try_from(p.next_probe).unwrap_or(i64::MAX)),
        ])
        .expect("supervision rows match their schema");
    }
    t
}

/// Cumulative ledger of rule evaluations, accounted outside the
/// observability hub so evaluating the rule never perturbs a run's
/// traces and digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Rule evaluations performed (one per [`blocked_peers`] call).
    pub evaluations: u64,
    /// Supervision rows scanned across all evaluations.
    pub rows_scanned: u64,
    /// Operator work units ([`query::op::Work::total_ops`]) spent.
    pub ops: u64,
}

impl RuleStats {
    /// Fold one evaluation's row count and operator work into the ledger.
    pub fn absorb(&mut self, rows: u64, ops: u64) {
        self.evaluations = self.evaluations.saturating_add(1);
        self.rows_scanned = self.rows_scanned.saturating_add(rows);
        self.ops = self.ops.saturating_add(ops);
    }
}

/// Evaluate the declarative circuit-breaker rule: scan the supervision
/// table, keep rows whose `circuit_code` equals [`CircuitState::Open`]'s
/// code, project the peer name. Returns the blocked set; `stats` absorbs
/// the rows scanned and operator work spent.
///
/// # Panics
/// Never in practice: the pipeline is stall-free (a `TableScan` never
/// returns `Pending`), so the drain budget cannot be exceeded.
#[must_use]
pub fn blocked_peers(sup: &Supervisor, stats: &mut RuleStats) -> BTreeSet<String> {
    let table = supervision_table(sup);
    let rows = table.len() as u64;
    let work = WorkCounter::new();
    let scan = TableScan::new(table, work.clone());
    let pred = Pred::Cmp {
        col: COL_CIRCUIT_CODE,
        op: CmpOp::Eq,
        value: Value::Int(i64::from(CircuitState::Open.code())),
    };
    let filter = Filter::new(Box::new(scan), pred, work.clone());
    let mut plan = Project::new(Box::new(filter), vec![COL_PEER], work.clone());
    let blocked: BTreeSet<String> = drain(&mut plan, 64)
        .into_iter()
        .filter_map(|row| row.first().and_then(|v| v.as_str().map(str::to_owned)))
        .collect();
    stats.absorb(rows, work.snapshot().total_ops());
    blocked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::SuperviseConfig;
    use ubinet::device::{Device, DeviceKind};
    use ubinet::link::{BandwidthProfile, Link, LinkKind};
    use ubinet::net::Network;

    fn net() -> Network {
        let mut n = Network::new();
        for name in ["a", "b", "c"] {
            n.add_device(Device::new(name, DeviceKind::Server));
        }
        n.add_link(Link::new("a", "b", LinkKind::Wired, BandwidthProfile::Constant(100.0), 1));
        n.add_link(Link::new("b", "c", LinkKind::Wired, BandwidthProfile::Constant(100.0), 1));
        n
    }

    fn sup() -> Supervisor {
        Supervisor::new(SuperviseConfig::default(), ["a", "b", "c"].map(str::to_owned))
    }

    #[test]
    fn healthy_fleet_blocks_nobody() {
        let s = sup();
        let mut stats = RuleStats::default();
        assert!(blocked_peers(&s, &mut stats).is_empty());
        assert_eq!(stats.evaluations, 1);
        assert_eq!(stats.rows_scanned, 3);
        assert!(stats.ops > 0, "even an empty verdict scans the table");
    }

    #[test]
    fn query_verdict_matches_is_open_exactly() {
        let mut net = net();
        let mut s = sup();
        net.device_mut("c").unwrap().alive = false;
        for now in 1..=5 {
            s.beat(&net, now);
        }
        let mut stats = RuleStats::default();
        let blocked = blocked_peers(&s, &mut stats);
        for peer in ["a", "b", "c"] {
            assert_eq!(
                blocked.contains(peer),
                s.is_open(peer),
                "query and hard-coded verdicts must agree on {peer}"
            );
        }
        assert!(blocked.contains("c"));
        // Half-open admits trial traffic: revive c and check it unblocks.
        net.device_mut("c").unwrap().alive = true;
        s.beat(&net, 6);
        let blocked = blocked_peers(&s, &mut stats);
        assert!(!blocked.contains("c"), "half-open peers receive trial traffic");
        assert_eq!(stats.evaluations, 2);
    }

    /// The rule is `is_open` as a table, over random fleets, detector
    /// tunings and fault sequences: after every heartbeat round the
    /// blocked set is exactly the open-circuit set, and each evaluation
    /// scans one row per watched peer.
    #[test]
    fn blocked_peers_is_the_open_circuit_set_after_every_beat() {
        let (mut opens, mut half_opens) = (0u32, 0u32);
        adm_rng::run_cases(0x0B10_C4ED, 200, |rng| {
            let peers: Vec<String> = (0..1 + rng.index(16)).map(|i| format!("p{i:02}")).collect();
            let mut net = Network::new();
            for p in &peers {
                net.add_device(Device::new(p, DeviceKind::Server));
            }
            // A chain keeps the fleet connected; a few chords add cycles.
            let link = |a: &str, b: &str| {
                Link::new(a, b, LinkKind::Wired, BandwidthProfile::Constant(100.0), 1)
            };
            for pair in peers.windows(2) {
                net.add_link(link(&pair[0], &pair[1]));
            }
            for _ in 0..rng.index(peers.len()) {
                net.add_link(link(&peers[rng.index(peers.len())], &peers[rng.index(peers.len())]));
            }
            let cfg = SuperviseConfig {
                suspect_after: rng.range_u32(1, 5),
                probation: rng.range_u32(0, 5),
            };
            let mut sup = Supervisor::new(cfg, peers.iter().cloned());
            let mut stats = RuleStats::default();
            for now in 1..=60 {
                match rng.below(8) {
                    0 => net.device_mut(&peers[rng.index(peers.len())]).unwrap().alive = false,
                    1 => net.device_mut(&peers[rng.index(peers.len())]).unwrap().alive = true,
                    2 | 3 => {
                        let island: Vec<String> =
                            peers.iter().filter(|_| rng.chance(0.3)).cloned().collect();
                        if rng.below(2) == 0 {
                            net.partition(&island);
                        } else {
                            net.heal(&island);
                        }
                    }
                    _ => {}
                }
                sup.beat(&net, now);
                let before = stats;
                let blocked = blocked_peers(&sup, &mut stats);
                let open: BTreeSet<String> =
                    peers.iter().filter(|p| sup.is_open(p)).cloned().collect();
                assert_eq!(blocked, open, "tick {now}, {cfg:?}");
                assert_eq!(stats.evaluations, before.evaluations + 1);
                assert_eq!(stats.rows_scanned, before.rows_scanned + peers.len() as u64);
                for p in &peers {
                    match sup.circuit(p) {
                        CircuitState::Open => opens += 1,
                        CircuitState::HalfOpen => half_opens += 1,
                        CircuitState::Closed => {}
                    }
                }
            }
        });
        // The cases reach both non-closed states, so the equality above
        // tells an OPEN filter from a not-CLOSED one.
        assert!(opens > 0 && half_opens > 0, "open {opens}, half-open {half_opens}");
    }

    #[test]
    fn unknown_peers_have_no_row_and_stay_admissible() {
        let s = sup();
        let table = supervision_table(&s);
        assert_eq!(table.len(), 3);
        let mut stats = RuleStats::default();
        assert!(!blocked_peers(&s, &mut stats).contains("ghost"));
    }

    #[test]
    fn supervision_table_pins_circuit_codes() {
        let mut net = net();
        let mut s = sup();
        net.device_mut("c").unwrap().alive = false;
        for now in 1..=3 {
            s.beat(&net, now);
        }
        let table = supervision_table(&s);
        let schema = table.schema();
        assert_eq!(schema.columns()[COL_PEER].name, "peer");
        assert_eq!(schema.columns()[COL_CIRCUIT_CODE].name, "circuit_code");
        let row_c = &table.rows()[2];
        assert_eq!(row_c[COL_PEER], Value::Str("c".into()));
        assert_eq!(row_c[4], Value::Str("OPEN".into()));
        assert_eq!(row_c[COL_CIRCUIT_CODE], Value::Int(1));
    }
}
