//! The unified transaction log — the durability half of the
//! transactional component.
//!
//! One log serves every switch. The types live in [`compkit::journal`],
//! so the Adaptivity Manager writes a single-node switch into the same
//! [`TxnLog`] as a one-shard transaction; this module keeps their `txn`
//! paths. A cross-shard transaction adds the two-phase-commit control
//! records on top of the one-shard body:
//!
//! | record             | meaning                                           |
//! |--------------------|---------------------------------------------------|
//! | `Begin`            | global transaction opened over a shard set        |
//! | `Intent`           | a shard's sub-plan declared (step count)          |
//! | `Applied`          | one shard step done (carries its `StepRecord`)    |
//! | `Undone`           | one applied shard step compensated                |
//! | `Prepared`         | shard vote: ready to commit (log forced here)     |
//! | `Commit`           | the coordinator's decision — *the commit point*   |
//! | `ShardCommitted`   | commit fan-out reached this shard                 |
//! | `ShardAborted`     | abort fan-out reached this shard                  |
//! | `End`              | all fan-out acknowledged; records reclaimable     |
//!
//! The protocol is **presumed abort**: there is no abort-decision
//! record. Recovery finding `Prepared` votes but no `Commit` record
//! rolls the transaction back deterministically — an in-doubt
//! participant "queries the TC log" and the absence of a decision *is*
//! the answer. Crashes strike only at record boundaries (the model of
//! [`compkit::journal`], shared with the store WAL), appends are atomic,
//! and everything is deterministic: [`TxnLog::render`] golden-pins the
//! whole history.

pub use compkit::journal::{OpenGlobalTxn, ShardId, ShardProgress, TxnLog, TxnRecord};

#[cfg(test)]
mod tests {
    use super::*;
    use adl::ast::{Binding, PortRef};
    use compkit::journal::StepRecord;

    fn bind(from: &str, to: &str) -> Binding {
        let f: Vec<&str> = from.split('.').collect();
        let t: Vec<&str> = to.split('.').collect();
        Binding { from: PortRef::on(f[0], f[1]), to: PortRef::on(t[0], t[1]) }
    }

    /// Shard `id`'s progress in `t`.
    fn shard(t: &OpenGlobalTxn, id: u32) -> &ShardProgress {
        &t.progress.iter().find(|(s, _)| s.0 == id).expect("named in `Begin`").1
    }

    /// Shard `id`'s applied steps in `t`, read from `log`: index and step.
    fn applied<'l>(log: &'l TxnLog, t: &OpenGlobalTxn, id: u32) -> Vec<(usize, &'l StepRecord)> {
        shard(t, id).applied.clone().filter_map(|pos| t.applied_at(log, pos, ShardId(id))).collect()
    }

    #[test]
    fn begin_allocates_monotonic_gtxns() {
        let mut log = TxnLog::new();
        assert_eq!(log.begin(vec![ShardId(0), ShardId(1)], 10), 0);
        assert_eq!(log.begin(vec![ShardId(0)], 11), 1);
        assert_eq!(log.len(), 2);
        assert_eq!(log.appended_total(), 2);
    }

    #[test]
    fn open_txn_reconstructs_per_shard_progress() {
        let mut log = TxnLog::new();
        let g = log.begin(vec![ShardId(0), ShardId(1)], 5);
        log.append(TxnRecord::Intent { gtxn: g, shard: ShardId(0), steps: 2 });
        log.append(TxnRecord::Applied {
            gtxn: g,
            shard: ShardId(0),
            index: 0,
            step: StepRecord::Started { name: "codec".into() },
        });
        log.append(TxnRecord::Applied {
            gtxn: g,
            shard: ShardId(0),
            index: 1,
            step: StepRecord::Bound(bind("a.p", "codec.q")),
        });
        log.append(TxnRecord::Prepared { gtxn: g, shard: ShardId(0) });
        let open = log.open_txns();
        assert_eq!(open.len(), 1);
        let t = &open[0];
        assert!(!t.decided);
        let shards: Vec<ShardId> = t.progress.iter().map(|(s, _)| *s).collect();
        assert_eq!(shards, [ShardId(0), ShardId(1)]);
        let p0 = shard(t, 0);
        assert!(p0.prepared);
        let indices: Vec<usize> = applied(&log, t, 0).iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, [0, 1], "steps are read from the log, oldest first");
        assert!(applied(&log, t, 1).is_empty());
        assert!(!shard(t, 1).prepared, "only s0 voted");
    }

    #[test]
    fn open_txn_reads_one_transaction_as_open_txns_does() {
        let mut log = TxnLog::new();
        let a = log.begin(vec![ShardId(0)], 0);
        let b = log.begin(vec![ShardId(1), ShardId(2)], 1);
        log.append(TxnRecord::Applied {
            gtxn: b,
            shard: ShardId(2),
            index: 0,
            step: StepRecord::Started { name: "x".into() },
        });
        // A record naming a shard outside `Begin`'s set is ignored.
        log.append(TxnRecord::Prepared { gtxn: b, shard: ShardId(0) });
        log.append(TxnRecord::End { gtxn: a });
        assert_eq!(log.open_txn(a), None, "an ended transaction is not open");
        let t = log.open_txn(b).unwrap();
        assert_eq!(log.open_txns(), std::slice::from_ref(&t));
        assert_eq!(shard(&t, 2).applied, 2..3);
        assert!(t.progress.iter().all(|(s, _)| *s != ShardId(0)), "not named in `Begin`");
        let shards: Vec<ShardId> = t.progress.iter().map(|(s, _)| *s).collect();
        assert_eq!(shards, [ShardId(1), ShardId(2)]);
        assert_eq!(applied(&log, &t, 2), [(0, &StepRecord::Started { name: "x".into() })]);
        assert_eq!(log.open_txn(7), None, "never begun");
    }

    #[test]
    fn undone_records_shrink_pending_undo() {
        let mut log = TxnLog::new();
        let g = log.begin(vec![ShardId(0)], 0);
        log.append(TxnRecord::Applied {
            gtxn: g,
            shard: ShardId(0),
            index: 0,
            step: StepRecord::Started { name: "x".into() },
        });
        log.append(TxnRecord::Undone { gtxn: g, shard: ShardId(0), index: 0 });
        let open = log.open_txns();
        assert_eq!(applied(&log, &open[0], 0).len(), 1);
        assert!(shard(&open[0], 0).undone.contains(&0), "its step is compensated");
    }

    #[test]
    fn decision_record_flips_decided() {
        let mut log = TxnLog::new();
        let g = log.begin(vec![ShardId(0), ShardId(1)], 0);
        log.append(TxnRecord::Prepared { gtxn: g, shard: ShardId(0) });
        log.append(TxnRecord::Prepared { gtxn: g, shard: ShardId(1) });
        log.append(TxnRecord::Commit { gtxn: g });
        let open = log.open_txns();
        assert!(open[0].decided);
        assert!(open[0].progress.iter().all(|(_, p)| p.prepared && !p.committed && !p.aborted));
    }

    #[test]
    fn truncate_reclaims_only_ended_txns() {
        let mut log = TxnLog::new();
        let a = log.begin(vec![ShardId(0)], 0);
        let b = log.begin(vec![ShardId(1)], 1);
        log.append(TxnRecord::Commit { gtxn: a });
        log.append(TxnRecord::End { gtxn: a });
        log.truncate_ended();
        assert_eq!(log.truncations(), 1);
        assert!(log.records().iter().all(|r| r.gtxn() == b));
        assert_eq!(log.open_txns().len(), 1);
        // Ids never restart.
        assert_eq!(log.begin(vec![ShardId(0)], 2), 2);

        // An open transaction between two ended ones keeps its records
        // and their order; both ended ones go in one truncation.
        let mut log = TxnLog::new();
        let a = log.begin(vec![ShardId(0)], 0);
        let b = log.begin(vec![ShardId(1)], 1);
        let c = log.begin(vec![ShardId(2)], 2);
        log.append(TxnRecord::Prepared { gtxn: b, shard: ShardId(1) });
        log.append(TxnRecord::End { gtxn: c });
        log.append(TxnRecord::End { gtxn: a });
        log.truncate_ended();
        assert_eq!(log.truncations(), 1);
        let kept: Vec<String> = log.records().iter().map(ToString::to_string).collect();
        assert_eq!(kept, ["begin gtxn=1 shards=[s1] at=1", "prepared gtxn=1 shard=s1"]);

        // A call that finds nothing to reclaim changes nothing, and does
        // not count as a truncation.
        let before = log.render();
        log.truncate_ended();
        assert_eq!((log.render(), log.truncations()), (before, 1));
        assert_eq!(log.open_txns().len(), 1);
    }

    #[test]
    fn render_is_one_line_per_record_and_digest_is_stable() {
        let mut log = TxnLog::new();
        let g = log.begin(vec![ShardId(0), ShardId(2)], 7);
        log.append(TxnRecord::Prepared { gtxn: g, shard: ShardId(2) });
        let r = log.render();
        assert_eq!(r.lines().count(), 2);
        assert!(r.starts_with("begin gtxn=0 shards=[s0,s2] at=7"));
        assert!(r.contains("prepared gtxn=0 shard=s2"));
        assert_eq!(log.digest(), log.clone().digest());
    }
}
