//! Timer-queue properties: under random schedule/cancel/advance
//! interleavings, `TimerWheel` never loses, duplicates, or
//! reorders events relative to a naive sorted-list oracle — including
//! the FIFO-per-deadline guarantee the event engine's determinism rests
//! on.

use adm_rng::{run_cases, Pcg32};
use patia::wheel::{TimerToken, TimerWheel};

/// The naive reference: a flat list of live `(deadline, seq, id)`
/// entries. Popping sorts by `(deadline, seq)` — exactly the contract
/// `TimerWheel::pop_due` promises.
#[derive(Default)]
struct Oracle {
    live: Vec<(u64, u64, u32)>,
    next_seq: u64,
}

impl Oracle {
    fn schedule(&mut self, deadline: u64, id: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.push((deadline, seq, id));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let before = self.live.len();
        self.live.retain(|&(_, s, _)| s != seq);
        self.live.len() != before
    }

    fn pop_due(&mut self, to: u64) -> Vec<(u64, u32)> {
        let mut due: Vec<(u64, u64, u32)> =
            self.live.iter().copied().filter(|&(d, _, _)| d <= to).collect();
        self.live.retain(|&(d, _, _)| d > to);
        due.sort_by_key(|&(d, s, _)| (d, s));
        due.into_iter().map(|(d, _, id)| (d, id)).collect()
    }
}

/// Drive both structures through one random op sequence and assert every
/// pop agrees. Deadlines are drawn around the moving clock at three
/// scales: near, mid and far (tens of millions of ticks out).
fn drive(rng: &mut Pcg32, ops: usize) {
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut oracle = Oracle::default();
    let mut tokens: Vec<(TimerToken, u64)> = Vec::new();
    let mut now = 0u64;
    let mut next_id = 0u32;
    for _ in 0..ops {
        match rng.below(10) {
            // Schedule (weighted heaviest so the wheel stays populated).
            0..=5 => {
                let horizon = match rng.below(3) {
                    0 => 64,
                    1 => 5_000,
                    _ => 20_000_000,
                };
                let deadline = now + rng.below(horizon);
                let id = next_id;
                next_id += 1;
                let tok = wheel.schedule(deadline, id);
                let seq = oracle.schedule(deadline, id);
                tokens.push((tok, seq));
            }
            6 => {
                if !tokens.is_empty() {
                    let (tok, seq) = tokens[rng.index(tokens.len())];
                    assert_eq!(wheel.cancel(tok), oracle.cancel(seq), "cancel verdicts agree");
                }
            }
            _ => {
                let step = match rng.below(3) {
                    0 => 1 + rng.below(8),
                    1 => 1 + rng.below(500),
                    _ => 1 + rng.below(300_000),
                };
                now += step;
                assert_eq!(wheel.pop_due(now), oracle.pop_due(now), "due sets agree at {now}");
                assert_eq!(wheel.len(), oracle.live.len(), "live counts agree at {now}");
            }
        }
    }
    // Drain everything left: nothing may be lost past the horizon.
    now += 40_000_000;
    assert_eq!(wheel.pop_due(now), oracle.pop_due(now), "final drain agrees");
    assert!(wheel.is_empty());
}

/// The main oracle property: random interleavings of schedule, cancel,
/// and advance never lose, duplicate, or reorder events.
#[test]
fn wheel_matches_naive_oracle() {
    run_cases(0x11ee1, 24, |rng| {
        let ops = 200 + rng.index(600);
        drive(rng, ops);
    });
}

/// Same-deadline bursts scheduled from different distances still come
/// out in schedule order.
#[test]
fn same_deadline_fifo_across_levels() {
    run_cases(0xf1f0, 24, |rng| {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let target = 6_000 + rng.below(4_000);
        let mut scheduled = Vec::new();
        let mut now = 0u64;
        let mut id = 0u32;
        // Walk the clock toward the target, scheduling events for the
        // same deadline at every stop.
        while now + 10 < target {
            wheel.schedule(target, id);
            scheduled.push((target, id));
            id += 1;
            now += 1 + rng.below((target - now) / 2 + 1);
            assert!(wheel.pop_due(now).is_empty(), "nothing due before the target");
        }
        assert_eq!(wheel.pop_due(target + 1), scheduled, "FIFO within the deadline");
    });
}
