//! Service agents: the components that receive requests, find the
//! appropriate atom, and serve it — and that **migrate whole** under
//! constraint 455.
//!
//! > "The action SWITCH indicates to the session manager that not only
//! > should the Adaptivity Manager save the data state, but also the
//! > processing state, as it is this that is about to migrate. That is,
//! > essentially the whole service-agent is mobile."
//!
//! Queue entries are *batches*: a run of same-tick, same-cost requests is
//! held as one [`InFlight`] with a `count`, so a flow-level cohort of
//! thousands of clients costs one entry instead of thousands. Entries are
//! never coalesced, so the per-request `tick()` driver, which accepts
//! count-1 batches, still stores one entry per request; that keeps queue
//! length, SWITCH state sizes, and Spread splits byte-identical to the
//! pre-batching engine.
//!
//! Because the count-1 path lets a queue grow to one entry per waiting
//! request (13,845 entries across the crowd atom's agents at the peak of
//! the paper's flash crowd, counted at a tick boundary), the queue's
//! totals are running counters rather than sums: every method that
//! changes the queue keeps [`ServiceAgent::queued_work`] and
//! [`ServiceAgent::queued_requests`] equal to the sum over
//! [`ServiceAgent::queue`], so both read in O(1) however long the queue.

use crate::atom::AtomId;
use std::collections::VecDeque;

/// A queued batch of identical requests being processed by an agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlight {
    /// The atom requested.
    pub atom: AtomId,
    /// Tick the requests arrived.
    pub arrived_at: u64,
    /// Remaining work units to serve the batch's *head* request.
    pub remaining_work: u64,
    /// Requests in this batch (the head plus `count - 1` untouched ones).
    pub count: u64,
    /// Full per-request cost — what each request behind the head needs.
    pub work_each: u64,
}

/// A service agent: serves one atom's requests on its current node.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceAgent {
    /// The atom this agent serves.
    pub atom: AtomId,
    /// Node the agent currently runs on.
    pub node: String,
    /// Request queue (processing state — migrates with the agent). Private
    /// so that only the methods below, which keep the totals, can change it.
    queue: VecDeque<InFlight>,
    /// Sum of the queue's work: each head's remaining work plus the full
    /// cost of every request behind it.
    queued_work: u64,
    /// Sum of the queue's entry counts.
    queued_requests: u64,
    /// Requests served over the agent's lifetime (data state).
    pub served: u64,
    /// How many times the agent has migrated.
    pub migrations: u32,
}

impl InFlight {
    /// Work units this entry still needs: the head's remainder plus the
    /// full cost of each request behind it.
    fn work(&self) -> u64 {
        self.remaining_work + (self.count - 1) * self.work_each
    }
}

impl ServiceAgent {
    /// A fresh agent on `node`.
    #[must_use]
    pub fn new(atom: AtomId, node: &str) -> Self {
        Self {
            atom,
            node: node.to_owned(),
            queue: VecDeque::new(),
            queued_work: 0,
            queued_requests: 0,
            served: 0,
            migrations: 0,
        }
    }

    /// Accept a request at `tick` costing `work` units as its own entry.
    #[cfg(test)]
    fn accept(&mut self, tick: u64, work: u64) {
        self.accept_batch(tick, work, 1);
    }

    /// Accept `n` identical requests at `tick` as one queue entry. The
    /// flow-level arrival path: a cohort costs O(1) queue space. Never
    /// coalesces with the entry before it, so count-1 arrivals keep the
    /// exact queue shape the golden traces were recorded against.
    pub fn accept_batch(&mut self, tick: u64, work: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.queue.push_back(InFlight {
            atom: self.atom,
            arrived_at: tick,
            remaining_work: work,
            count: n,
            work_each: work,
        });
        self.queued_work += work * n;
        self.queued_requests += n;
    }

    /// [`ServiceAgent::step_grouped`] expanded to one (arrival, completion)
    /// tick pair per completed request.
    #[cfg(test)]
    fn step(&mut self, now: u64, budget: u64) -> Vec<(u64, u64)> {
        self.step_grouped(budget)
            .into_iter()
            .flat_map(|(arrived, k)| std::iter::repeat_n((arrived, now), k as usize))
            .collect()
    }

    /// The serving step: spend up to `budget` work units and return
    /// `(arrived_at, completed)` groups in completion order. A request
    /// completes only while budget remains (zero-work requests included),
    /// a partially-served head keeps its progress, and a batch of `k`
    /// identical requests is retired with O(1) arithmetic.
    pub fn step_grouped(&mut self, mut budget: u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        while budget > 0 {
            let Some(front) = self.queue.front_mut() else { break };
            if front.remaining_work > budget {
                front.remaining_work -= budget;
                self.queued_work -= budget;
                break; // budget exhausted mid-request
            }
            let head = front.remaining_work;
            budget -= head;
            let arrived = front.arrived_at;
            front.count -= 1;
            let more =
                budget.checked_div(front.work_each).map_or(front.count, |fit| front.count.min(fit));
            budget -= more * front.work_each;
            front.count -= more;
            let done = 1 + more;
            self.queued_work -= head + more * front.work_each;
            self.queued_requests -= done;
            if front.count == 0 {
                self.queue.pop_front();
            } else {
                front.remaining_work = front.work_each;
            }
            self.served += done;
            out.push((arrived, done));
        }
        out
    }

    /// Work units currently queued (the demand this agent places on its
    /// node), including every request behind each batch head. O(1).
    #[must_use]
    pub fn queued_work(&self) -> u64 {
        self.queued_work
    }

    /// Requests currently queued (batch entries weighted by their count).
    /// O(1).
    #[must_use]
    pub fn queued_requests(&self) -> u64 {
        self.queued_requests
    }

    /// The request queue, oldest entry first (read-only).
    #[must_use]
    pub fn queue(&self) -> &VecDeque<InFlight> {
        &self.queue
    }

    /// Detach the last `want` *requests* from the queue, preserving order —
    /// the Spread split. Whole batch entries move when they fit; a batch
    /// straddling the cut is split, with the untouched tail requests
    /// moving and the (possibly part-served) head staying put.
    pub fn split_back(&mut self, mut want: u64) -> VecDeque<InFlight> {
        let mut moved = VecDeque::new();
        while want > 0 {
            let Some(mut back) = self.queue.pop_back() else { break };
            if back.count <= want {
                want -= back.count;
                self.queued_work -= back.work();
                self.queued_requests -= back.count;
                moved.push_front(back);
            } else {
                let tail = InFlight {
                    atom: back.atom,
                    arrived_at: back.arrived_at,
                    remaining_work: back.work_each,
                    count: want,
                    work_each: back.work_each,
                };
                back.count -= want;
                self.queued_work -= tail.work();
                self.queued_requests -= want;
                self.queue.push_back(back);
                moved.push_front(tail);
                want = 0;
            }
        }
        moved
    }

    /// Append `entries` (a [`ServiceAgent::split_back`] result) to the
    /// back of the queue — the receiving half of a Spread.
    pub fn adopt(&mut self, entries: VecDeque<InFlight>) {
        for e in &entries {
            self.queued_work += e.work();
            self.queued_requests += e.count;
        }
        self.queue.extend(entries);
    }

    /// SWITCH: migrate to `dest`, carrying queue (processing state) and
    /// counters (data state). Returns the serialised state size in bytes —
    /// what the Adaptivity Manager must ship across the network.
    pub fn migrate(&mut self, dest: &str) -> u64 {
        let state_bytes = 64 + self.queued_requests() * 24;
        self.node = dest.to_owned();
        self.migrations += 1;
        state_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_in_fifo_order_within_budget() {
        let mut a = ServiceAgent::new(AtomId(1), "node1");
        a.accept(0, 10);
        a.accept(0, 10);
        a.accept(1, 10);
        let done = a.step(2, 25);
        assert_eq!(done.len(), 2, "25 units finish two 10-unit requests");
        assert_eq!(a.queue().len(), 1);
        assert_eq!(a.queue()[0].remaining_work, 5, "third is half-served");
        let done = a.step(3, 100);
        assert_eq!(done, vec![(1, 3)]);
        assert_eq!(a.served, 3);
    }

    #[test]
    fn queued_work_reflects_partial_progress() {
        let mut a = ServiceAgent::new(AtomId(1), "n");
        a.accept(0, 8);
        a.accept(0, 8);
        assert_eq!(a.queued_work(), 16);
        a.step(1, 4);
        assert_eq!(a.queued_work(), 12);
    }

    #[test]
    fn migration_preserves_processing_state() {
        let mut a = ServiceAgent::new(AtomId(1), "node1");
        a.accept(0, 10);
        a.accept(0, 10);
        a.step(1, 10);
        let before_queue = a.queue().clone();
        let before_served = a.served;
        let bytes = a.migrate("node2");
        assert_eq!(a.node, "node2");
        assert_eq!(a.queue(), &before_queue, "in-flight requests travel with the agent");
        assert_eq!(a.served, before_served);
        assert_eq!(a.migrations, 1);
        assert!(bytes >= 64);
        // Serving continues seamlessly on the new node.
        let done = a.step(2, 100);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn zero_work_request_completes_immediately_without_panicking() {
        let mut a = ServiceAgent::new(AtomId(1), "n");
        a.accept(0, 0);
        a.accept(0, 3);
        let done = a.step(1, 5);
        assert_eq!(done.len(), 2, "free request and the 3-unit one both finish");
        assert!(a.queue().is_empty());
        assert_eq!(a.served, 2);
    }

    #[test]
    fn idle_agent_steps_to_nothing() {
        let mut a = ServiceAgent::new(AtomId(1), "n");
        assert!(a.step(5, 100).is_empty());
        assert_eq!(a.queued_work(), 0);
    }

    #[test]
    fn batch_entry_is_equivalent_to_individual_accepts() {
        let mut batched = ServiceAgent::new(AtomId(1), "n");
        let mut singles = ServiceAgent::new(AtomId(1), "n");
        batched.accept_batch(0, 10, 5);
        for _ in 0..5 {
            singles.accept(0, 10);
        }
        assert_eq!(batched.queued_work(), singles.queued_work());
        assert_eq!(batched.queued_requests(), singles.queued_requests());
        // 33 units: three complete, the fourth is 3 units in.
        assert_eq!(batched.step(1, 33), singles.step(1, 33));
        assert_eq!(batched.queued_work(), singles.queued_work());
        assert_eq!(batched.queued_requests(), 2);
        assert_eq!(batched.queue().len(), 1, "still one physical entry");
        assert_eq!(batched.step(2, 100), singles.step(2, 100));
        assert_eq!(batched.served, singles.served);
    }

    #[test]
    fn grouped_step_groups_by_entry() {
        let mut a = ServiceAgent::new(AtomId(1), "n");
        a.accept_batch(0, 4, 3);
        a.accept_batch(1, 4, 2);
        assert_eq!(a.step_grouped(17), vec![(0, 3), (1, 1)]);
        assert_eq!(a.queued_work(), 3, "fifth request is 1 unit in");
    }

    #[test]
    fn zero_work_batches_complete_together() {
        let mut a = ServiceAgent::new(AtomId(1), "n");
        a.accept_batch(0, 0, 1000);
        a.accept_batch(0, 2, 1);
        assert_eq!(a.step_grouped(2), vec![(0, 1000), (0, 1)]);
        assert!(a.queue().is_empty());
        assert_eq!(a.step_grouped(0), vec![], "zero budget serves nothing");
    }

    #[test]
    fn split_back_moves_tail_requests_and_splits_straddlers() {
        let mut a = ServiceAgent::new(AtomId(1), "n");
        a.accept_batch(0, 10, 4);
        a.accept_batch(1, 10, 2);
        a.step(1, 5); // head of the first batch is part-served
        let moved = a.split_back(3);
        assert_eq!(moved.iter().map(|e| e.count).sum::<u64>(), 3);
        assert_eq!(a.queued_requests(), 3);
        assert_eq!(a.queued_work(), 5 + 2 * 10, "part-served head stays put");
        assert_eq!(moved[0].arrived_at, 0, "split tail keeps its arrival tick");
        assert_eq!(moved[0].count, 1);
        assert_eq!(moved[1].count, 2, "whole back entry moved intact");
        // Asking for more than is queued drains without panicking.
        let rest = a.split_back(100);
        assert_eq!(rest.iter().map(|e| e.count).sum::<u64>(), 3);
        assert!(a.queue().is_empty());
    }

    /// The reference the running totals replace: `(work, requests)`
    /// summed over every queue entry.
    fn summed(q: &VecDeque<InFlight>) -> (u64, u64) {
        q.iter().fold((0, 0), |(work, n), e| {
            (work + e.remaining_work + (e.count - 1) * e.work_each, n + e.count)
        })
    }

    /// Whether `split_back(want)` must split an entry rather than move
    /// only whole ones.
    fn cut_straddles(q: &VecDeque<InFlight>, mut want: u64) -> bool {
        for e in q.iter().rev() {
            if want == 0 {
                return false;
            }
            if e.count > want {
                return true;
            }
            want -= e.count;
        }
        false
    }

    #[test]
    fn running_totals_equal_the_queue_sum_after_every_operation() {
        let (mut mid_head, mut straddles, mut over_asks, mut zero_budgets) = (0, 0, 0, 0);
        adm_rng::run_cases(0xa6e7, 64, |rng| {
            let mut agents = [ServiceAgent::new(AtomId(1), "a"), ServiceAgent::new(AtomId(1), "b")];
            for tick in 0..150 {
                let i = rng.index(2);
                let op = match rng.below(8) {
                    0..=2 => {
                        let work = if rng.chance(0.2) { 0 } else { 1 + rng.below(12) };
                        let n = match rng.below(4) {
                            0 => 0,
                            1 => rng.below(40),
                            _ => 1,
                        };
                        agents[i].accept_batch(tick, work, n);
                        "accept_batch"
                    }
                    3..=5 => {
                        let budget = if rng.chance(0.15) { 0 } else { rng.below(120) };
                        zero_budgets += usize::from(budget == 0);
                        agents[i].step_grouped(budget);
                        let front = agents[i].queue().front();
                        mid_head += usize::from(
                            budget > 0 && front.is_some_and(|h| h.remaining_work < h.work_each),
                        );
                        "step_grouped"
                    }
                    6 => {
                        let queued = summed(agents[i].queue()).1;
                        let want = if rng.chance(0.3) {
                            queued + 1 + rng.below(5)
                        } else {
                            rng.below(queued + 1)
                        };
                        straddles += usize::from(cut_straddles(agents[i].queue(), want));
                        over_asks += usize::from(want > queued);
                        let moved = agents[i].split_back(want);
                        assert_eq!(moved.iter().map(|e| e.count).sum::<u64>(), want.min(queued));
                        let other = &mut agents[1 - i];
                        other.adopt(moved);
                        assert_eq!(
                            (other.queued_work(), other.queued_requests()),
                            summed(other.queue()),
                            "after adopt"
                        );
                        "split_back"
                    }
                    _ => {
                        let bytes = agents[i].migrate(if tick % 2 == 0 { "x" } else { "y" });
                        assert_eq!(bytes, 64 + 24 * summed(agents[i].queue()).1);
                        "migrate"
                    }
                };
                let a = &agents[i];
                assert_eq!(
                    (a.queued_work(), a.queued_requests()),
                    summed(a.queue()),
                    "after {op} at tick {tick}"
                );
            }
        });
        for (case, seen) in [
            ("mid-head stops", mid_head),
            ("straddling cuts", straddles),
            ("over-asks", over_asks),
            ("zero budgets", zero_budgets),
        ] {
            assert!(seen >= 100, "the corpus must exercise {case} (saw {seen})");
        }
    }
}
