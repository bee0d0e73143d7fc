//! Cycle-attribution profiler: fold the span stream into a call tree.
//!
//! The tracer records *what happened when*; this module answers *where the
//! cycles went*. [`Profile::build`] reconstructs the nesting of completed
//! spans by interval containment on the shared virtual-cycle axis, merges
//! identical stacks into an aggregated call tree, and attributes every
//! cycle exactly once:
//!
//! * **total** — cycles a frame's spans covered, children included;
//! * **self** — total minus the cycles covered by direct children;
//! * **idle** — cycles of the run's clock no root span covered.
//!
//! By construction `Σ self + idle == clock`, so a profile is a *partition*
//! of the run, not a sampling estimate — the same determinism discipline
//! as the tracer itself. [`Profile::folded`] renders inferno-compatible
//! folded stacks (`frame;frame;... self-cycles`) for flame graphs
//! (`figures --flame`), and [`Profile::publish`] writes the per-category
//! self-cycle totals back into a [`MetricsRegistry`] so the metrics
//! snapshot and the trace agree on attribution.
//!
//! Span names that end in a numeric instance suffix (`tick:17`,
//! `verify:svc:3`) are canonicalised by stripping the trailing `:<digits>`
//! (`frame_into`), so the 400 per-tick spans of a Patia run aggregate into
//! one `patia:tick` frame instead of 400 singleton stacks.

use crate::metrics::MetricsRegistry;
use crate::span::{EventKind, TraceEvent};
use crate::Cycles;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Write the aggregation key of a span into `key`, replacing its
/// contents: `cat:name` with any trailing `:<digits>` instance suffix
/// stripped from the name (`patia` + `tick:17` → `patia:tick`). Names
/// that are *only* digits are kept as-is.
fn frame_into(cat: &str, name: &str, key: &mut String) {
    let canonical = match name.rfind(':') {
        Some(i)
            if i > 0 && name[i + 1..].chars().all(|c| c.is_ascii_digit()) && i + 1 < name.len() =>
        {
            &name[..i]
        }
        _ => name,
    };
    key.clear();
    key.extend([cat, ":", canonical]);
}

/// One aggregated node of the call tree: every span instance that shared
/// this frame *and* this path from a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// The aggregation key (`frame_into`).
    pub frame: String,
    /// Span instances merged into this node.
    pub count: u64,
    /// Cycles covered by those spans, children included.
    pub total: Cycles,
    /// Cycles not covered by direct children.
    pub self_cycles: Cycles,
    /// Child nodes, frame-sorted (stable across runs).
    pub children: Vec<ProfileNode>,
}

/// A fold of one trace: aggregated call forest plus the idle remainder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    roots: Vec<ProfileNode>,
    idle: Cycles,
    clock: Cycles,
}

/// Arena node used while folding, before children are frozen into the
/// sorted `Vec` form.
#[derive(Debug, Default)]
struct Building {
    count: u64,
    total: Cycles,
    self_cycles: Cycles,
    children: BTreeMap<String, usize>,
}

/// An entry of the containment stack: one *open* span instance.
struct OpenFrame {
    end: Cycles,
    node: usize,
    dur: Cycles,
    child_dur: Cycles,
}

impl Profile {
    /// Fold `events` (complete spans only; instants carry no cycles) into
    /// an aggregated call tree, attributing the run's `clock` cycles.
    ///
    /// Nesting is reconstructed by interval containment: span *B* is a
    /// child of span *A* when `A.ts <= B.ts && B.end <= A.end`. Spans that
    /// merely touch (`A.end == B.ts`) or partially overlap are siblings —
    /// the simulation is single-threaded, so well-formed traces never
    /// partially overlap, but the fold stays total and deterministic if
    /// one ever does.
    #[must_use]
    pub fn build(events: &[TraceEvent], clock: Cycles) -> Self {
        // (ts, end, idx): sort so parents come before their children and
        // ties break on completion-log order.
        let mut spans: Vec<(Cycles, Cycles, usize)> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind == EventKind::Complete)
            .map(|(i, e)| (e.ts, e.ts + e.dur, i))
            .collect();
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));

        let mut arena: Vec<Building> = vec![Building::default()]; // 0 = virtual root
        let mut stack: Vec<OpenFrame> =
            vec![OpenFrame { end: Cycles::MAX, node: 0, dur: 0, child_dur: 0 }];
        let mut key = String::new(); // the current span's frame, reused
        let close = |arena: &mut Vec<Building>, f: OpenFrame| {
            arena[f.node].self_cycles += f.dur.saturating_sub(f.child_dur);
        };
        for (ts, end, idx) in spans {
            // Pop spans that ended before this one starts, and any that
            // cannot contain it (partial overlap → sibling).
            while stack.len() > 1 {
                let top = stack.last().expect("stack holds the virtual root");
                if top.end <= ts || top.end < end {
                    let f = stack.pop().expect("checked non-empty");
                    close(&mut arena, f);
                } else {
                    break;
                }
            }
            let e = &events[idx];
            frame_into(e.cat, &e.name, &mut key);
            let parent = stack.last_mut().expect("virtual root remains");
            parent.child_dur += end - ts;
            let parent_node = parent.node;
            let next = arena.len();
            let children = &mut arena[parent_node].children;
            let node = match children.get(key.as_str()) {
                Some(&node) => node,
                None => {
                    children.insert(key.clone(), next);
                    next
                }
            };
            if node == next {
                arena.push(Building::default());
            }
            arena[node].count += 1;
            arena[node].total += end - ts;
            stack.push(OpenFrame { end, node, dur: end - ts, child_dur: 0 });
        }
        while stack.len() > 1 {
            let f = stack.pop().expect("checked non-empty");
            close(&mut arena, f);
        }
        let covered = stack.pop().expect("virtual root").child_dur;

        fn freeze(arena: &[Building], children: &BTreeMap<String, usize>) -> Vec<ProfileNode> {
            children
                .iter()
                .map(|(frame, &i)| ProfileNode {
                    frame: frame.clone(),
                    count: arena[i].count,
                    total: arena[i].total,
                    self_cycles: arena[i].self_cycles,
                    children: freeze(arena, &arena[i].children),
                })
                .collect()
        }
        let roots = freeze(&arena, &arena[0].children);
        Self { roots, idle: clock.saturating_sub(covered), clock }
    }

    /// The aggregated call forest, frame-sorted at every level.
    #[must_use]
    pub fn roots(&self) -> &[ProfileNode] {
        &self.roots
    }

    /// Cycles of the clock no root span covered.
    #[must_use]
    pub fn idle(&self) -> Cycles {
        self.idle
    }

    /// The clock this profile partitions.
    #[must_use]
    pub fn clock(&self) -> Cycles {
        self.clock
    }

    /// Sum of every node's self cycles plus idle. Equals
    /// [`Profile::clock`] whenever root spans do not overlap — asserted by
    /// the golden tests and the `figures --flame` exporter.
    #[must_use]
    pub fn self_total(&self) -> Cycles {
        fn walk(nodes: &[ProfileNode]) -> Cycles {
            nodes.iter().map(|n| n.self_cycles + walk(&n.children)).sum()
        }
        walk(&self.roots) + self.idle
    }

    /// Self-cycle totals per category (the `cat` of `frame_into`'s
    /// `cat:name` key) — the per-layer attribution the bench snapshot pins.
    /// Idle cycles are reported under `IDLE_FRAME`.
    #[must_use]
    pub fn per_category(&self) -> BTreeMap<String, Cycles> {
        fn walk(nodes: &[ProfileNode], out: &mut BTreeMap<String, Cycles>) {
            for n in nodes {
                let cat = n.frame.split(':').next().unwrap_or(&n.frame).to_owned();
                *out.entry(cat).or_default() += n.self_cycles;
                walk(&n.children, out);
            }
        }
        let mut out = BTreeMap::new();
        walk(&self.roots, &mut out);
        if self.idle > 0 {
            out.insert(IDLE_FRAME.to_owned(), self.idle);
        }
        out
    }

    /// Render inferno-compatible folded stacks: one line per node with
    /// non-zero self time, `frame;frame;...frame self-cycles`, in stable
    /// depth-first frame order. The idle remainder (if any) is one
    /// `IDLE_FRAME` line, so the lines' summed counts equal the clock.
    #[must_use]
    pub fn folded(&self) -> String {
        fn walk(nodes: &[ProfileNode], path: &mut String, out: &mut String) {
            for n in nodes {
                let saved = path.len();
                if !path.is_empty() {
                    path.push(';');
                }
                path.push_str(&n.frame);
                if n.self_cycles > 0 {
                    let _ = writeln!(out, "{path} {}", n.self_cycles);
                }
                walk(&n.children, path, out);
                path.truncate(saved);
            }
        }
        let mut out = String::new();
        let mut path = String::new();
        walk(&self.roots, &mut path, &mut out);
        if self.idle > 0 {
            let _ = writeln!(out, "{IDLE_FRAME} {}", self.idle);
        }
        out
    }

    /// Write the per-category self-cycle totals into `metrics` under
    /// `profile.self_cycles.<category>`, plus `profile.clock`. Ordering is
    /// stable (the registry is name-sorted) and the counters are written
    /// once per run — `run_observed` calls this after the scenario ends,
    /// so the committed metric snapshots carry the attribution.
    pub fn publish(&self, metrics: &mut MetricsRegistry) {
        for (cat, cycles) in self.per_category() {
            metrics.counter_add(&format!("profile.self_cycles.{cat}"), cycles);
        }
        metrics.counter_add("profile.clock", self.clock);
    }
}

/// The pseudo-frame idle cycles are attributed to in [`Profile::folded`]
/// and [`Profile::per_category`].
pub(crate) const IDLE_FRAME: &str = "(idle)";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn profile(build: impl FnOnce(&mut Tracer), clock: Cycles) -> Profile {
        let mut t = Tracer::new();
        build(&mut t);
        Profile::build(t.events(), clock)
    }

    fn frame_of(cat: &str, name: &str) -> String {
        let mut key = String::from("stale");
        frame_into(cat, name, &mut key);
        key
    }

    #[test]
    fn frame_canonicalisation_strips_instance_suffixes() {
        assert_eq!(frame_of("patia", "tick:17"), "patia:tick");
        assert_eq!(frame_of("gokernel", "verify:svc:3"), "gokernel:verify:svc");
        assert_eq!(frame_of("gokernel", "invoke"), "gokernel:invoke");
        assert_eq!(frame_of("x", "tick:"), "x:tick:");
        assert_eq!(frame_of("x", ":123"), "x::123", "empty stem is kept");
        assert_eq!(frame_of("x", "123"), "x:123", "all-digit names are kept");
    }

    #[test]
    fn nesting_attributes_self_and_total() {
        let p = profile(
            |t| {
                let outer = t.begin_at("a", "outer", 0);
                let inner = t.begin_at("a", "inner", 10);
                t.end_at(inner, 30);
                t.end_at(outer, 50);
            },
            50,
        );
        assert_eq!(p.roots().len(), 1);
        let outer = &p.roots()[0];
        assert_eq!(outer.frame, "a:outer");
        assert_eq!((outer.total, outer.self_cycles, outer.count), (50, 30, 1));
        let inner = &outer.children[0];
        assert_eq!((inner.total, inner.self_cycles, inner.count), (20, 20, 1));
        assert_eq!(p.idle(), 0);
        assert_eq!(p.self_total(), 50);
    }

    #[test]
    fn identical_stacks_aggregate_and_instance_suffixes_merge() {
        let p = profile(
            |t| {
                for i in 0..3u64 {
                    let s = t.begin_at("patia", format!("tick:{i}"), i * 100);
                    t.end_at(s, i * 100 + 40);
                }
            },
            300,
        );
        assert_eq!(p.roots().len(), 1, "three ticks fold into one frame");
        let tick = &p.roots()[0];
        assert_eq!(tick.frame, "patia:tick");
        assert_eq!((tick.count, tick.total, tick.self_cycles), (3, 120, 120));
        assert_eq!(p.idle(), 180, "uncovered clock is idle");
        assert_eq!(p.self_total(), 300);
    }

    #[test]
    fn touching_spans_are_siblings_not_nested() {
        let p = profile(
            |t| {
                let a = t.begin_at("c", "a", 0);
                t.end_at(a, 10);
                let b = t.begin_at("c", "b", 10);
                t.end_at(b, 20);
            },
            20,
        );
        assert_eq!(p.roots().len(), 2, "a span starting at another's end is a sibling");
        assert_eq!(p.self_total(), 20);
    }

    #[test]
    fn folded_stacks_sum_to_the_clock() {
        let p = profile(
            |t| {
                let tick = t.begin_at("patia", "tick:1", 0);
                let sw = t.begin_at("compkit", "switch", 10);
                t.end_at(sw, 25);
                t.end_at(tick, 60);
                t.instant("patia", "switch:migrate", 30, Vec::new());
            },
            100,
        );
        let folded = p.folded();
        assert_eq!(
            folded, "patia:tick 45\npatia:tick;compkit:switch 15\n(idle) 40\n",
            "stable depth-first folded stacks"
        );
        let sum: u64 =
            folded.lines().map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap()).sum();
        assert_eq!(sum, p.clock(), "folded leaf cycles partition the clock");
        assert_eq!(
            p.per_category(),
            BTreeMap::from([
                ("patia".to_owned(), 45),
                ("compkit".to_owned(), 15),
                ("(idle)".to_owned(), 40)
            ])
        );
    }

    #[test]
    fn partial_overlap_degrades_to_siblings_without_double_counting_children() {
        // [0,30) and [20,50): ill-formed for a single-threaded trace, but
        // the fold must stay total and deterministic.
        let p = profile(
            |t| {
                let a = t.begin_at("c", "a", 0);
                let b = t.begin_at("c", "b", 20);
                t.end_at(a, 30);
                t.end_at(b, 50);
            },
            50,
        );
        assert_eq!(p.roots().len(), 2, "partial overlap cannot nest");
        assert_eq!(p.roots()[0].self_cycles + p.roots()[1].self_cycles, 60);
    }

    #[test]
    fn publish_writes_stable_registry_counters() {
        let p = profile(
            |t| {
                let s = t.begin_at("patia", "tick:1", 0);
                t.end_at(s, 40);
            },
            100,
        );
        let mut m = MetricsRegistry::new();
        p.publish(&mut m);
        assert_eq!(m.counter("profile.self_cycles.patia"), 40);
        assert_eq!(m.counter("profile.self_cycles.(idle)"), 60);
        assert_eq!(m.counter("profile.clock"), 100);
        let mut again = MetricsRegistry::new();
        p.publish(&mut again);
        assert_eq!(m.digest(), again.digest(), "publication is deterministic");
    }

    #[test]
    fn build_is_a_pure_function_of_the_trace() {
        let mk = || {
            profile(
                |t| {
                    let tick = t.begin_at("patia", "tick:1", 0);
                    let inner = t.begin_at("compkit", "switch", 5);
                    t.end_at(inner, 9);
                    t.end_at(tick, 20);
                },
                20,
            )
        };
        assert_eq!(mk(), mk());
        assert_eq!(mk().folded(), mk().folded());
    }
}
