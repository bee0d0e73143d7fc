//! planlint — static analysis of reconfiguration plans.
//!
//! SISR proves component *text* safe before it runs; planlint is the same
//! prove-before-run move one layer up, for reconfiguration *plans*. Before
//! the Adaptivity Manager burns cycles executing (journalling, then maybe
//! rolling back) a SWITCH, the linter computes each plan's atom read/write
//! sets and rejects statically-detectable disasters:
//!
//! * **cross-plan conflicts** — two pending plans touch the same atom and
//!   at least one writes it, so their serialisation order changes the
//!   outcome ([`PlanDiagnosticKind::CrossPlanConflict`]);
//! * **lock-order cycles** — plans first-touch shared atoms in
//!   incompatible orders, the classic deadlock shape
//!   ([`PlanDiagnosticKind::LockOrderCycle`]);
//! * **undo-incomplete steps** — a step whose inverse is missing or
//!   ambiguous, which today only surfaces as a *runtime* rollback failure
//!   ([`PlanDiagnosticKind::UndoIncomplete`]);
//! * **dangling bindings** — a bind/unbind endpoint on an instance the
//!   same plan removes or has not yet started
//!   ([`PlanDiagnosticKind::DanglingBinding`]);
//! * **binding cycles** — the plan's new bindings wire its instances into
//!   a service-dependency cycle ([`PlanDiagnosticKind::BindingCycle`]).
//!
//! The report has the same collect-all structured-diagnostic shape as
//! SISR's `VerifyReport`: every finding is gathered (never just the
//! first), diagnostics are emitted in a deterministic order (plan index,
//! then check order, then atom order — no hash-map iteration anywhere),
//! and severity separates hard errors from advisory warnings.
//!
//! The linter is deliberately *intrinsic*: it sees only the plans, never
//! the runtime, so everything it rejects is wrong in every runtime.
//! Runtime-dependent inconsistencies (stopping a component that does not
//! exist, binding to a never-started instance) still surface as
//! [`crate::SwitchError::Inconsistent`] at execution time.

use adl::analysis::find_cycle;
use adl::ast::{Binding, PortRef};
use adl::diff::ReconfigurationPlan;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; the Adaptivity Manager will still execute the plan.
    Warning,
    /// The plan must not run ([`crate::AdaptivityManager`] refuses it).
    Error,
}

/// What planlint proved about a plan (or a set of plans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanDiagnosticKind {
    /// Two plans touch `atoms` and at least one side writes: executing
    /// them concurrently (or in either order) is not serialisable.
    CrossPlanConflict {
        /// The other plan's index in the linted set.
        other: usize,
        /// The contended atoms, sorted and rendered.
        atoms: Vec<String>,
    },
    /// The plans' first-touch orders over shared atoms are incompatible —
    /// no global lock order exists, so concurrent execution can deadlock.
    LockOrderCycle {
        /// The cycle over atoms, rendered `a -> b -> a`.
        cycle: String,
    },
    /// A step's inverse is missing or ambiguous, so a rollback (or crash
    /// recovery) could not restore the prior configuration.
    UndoIncomplete {
        /// The offending step, rendered.
        step: String,
        /// Why its inverse cannot be trusted.
        why: String,
    },
    /// A bind/unbind endpoint rides an instance this same plan stops (and
    /// never restarts) or has not started yet at that point in the order.
    DanglingBinding {
        /// The binding, rendered `from -- to`.
        binding: String,
        /// The endpoint instance that dangles.
        instance: String,
    },
    /// The plan's new bindings form a service-dependency cycle among its
    /// instances: no valid start-up order exists.
    BindingCycle {
        /// The cycle, rendered `a -> b -> a`.
        cycle: String,
    },
}

impl fmt::Display for PlanDiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanDiagnosticKind::CrossPlanConflict { other, atoms } => {
                write!(f, "conflicts with plan {other} on {}", atoms.join(", "))
            }
            PlanDiagnosticKind::LockOrderCycle { cycle } => {
                write!(f, "lock-order cycle: {cycle}")
            }
            PlanDiagnosticKind::UndoIncomplete { step, why } => {
                write!(f, "step `{step}` has no usable inverse: {why}")
            }
            PlanDiagnosticKind::DanglingBinding { binding, instance } => {
                write!(f, "binding `{binding}` dangles on `{instance}`")
            }
            PlanDiagnosticKind::BindingCycle { cycle } => {
                write!(f, "binding cycle: {cycle}")
            }
        }
    }
}

/// One finding, tied to the plan it is about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDiagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Index of the plan in the linted set (`None` for set-level findings
    /// like a lock-order cycle, which no single plan owns).
    pub plan: Option<usize>,
    /// What was proved.
    pub kind: PlanDiagnosticKind,
}

impl fmt::Display for PlanDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        match self.plan {
            Some(p) => write!(f, "[{sev}] plan {p}: {}", self.kind),
            None => write!(f, "[{sev}] plans: {}", self.kind),
        }
    }
}

/// The collect-all result of linting a set of plans. Mirrors SISR's
/// `VerifyReport`: all findings, deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanLintReport {
    /// Every finding, in (plan, check, atom) order.
    pub diagnostics: Vec<PlanDiagnostic>,
    /// Plans examined.
    pub plans: usize,
    /// Total steps examined across those plans.
    pub steps: usize,
}

impl PlanLintReport {
    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &PlanDiagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Whether any finding is Error severity (the Adaptivity Manager's
    /// refusal criterion, and the CI `lint-plans` gate's failure criterion).
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether the set is entirely clean (no findings at all).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

impl fmt::Display for PlanLintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let errors = self.errors().count();
        writeln!(
            f,
            "{} plan(s), {} step(s): {} error(s), {} warning(s)",
            self.plans,
            self.steps,
            errors,
            self.diagnostics.len() - errors
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// The read/write footprint of one plan, in first-touch (acquisition)
/// order. Atoms are rendered strings — `inst:<name>` for component
/// instances, `bind:<from>--<to>` for bindings — so the same cycle finder
/// the ADL analyser uses applies unchanged.
#[derive(Debug, Clone, Default)]
struct Footprint {
    /// Atoms written (stopped/started instances, bound/unbound bindings).
    writes: Vec<String>,
    /// Atoms read (endpoint instances of bound/unbound bindings).
    reads: Vec<String>,
    /// Every atom in first-touch order (a transactional switch holds all
    /// its locks to commit, so acquisition order is first touch).
    order: Vec<String>,
}

impl Footprint {
    fn touch(&mut self, atom: String, write: bool) {
        if !self.order.contains(&atom) {
            self.order.push(atom.clone());
        }
        let set = if write { &mut self.writes } else { &mut self.reads };
        if !set.contains(&atom) {
            set.push(atom);
        }
    }
}

fn inst_atom(name: &str) -> String {
    format!("inst:{name}")
}

fn bind_atom(b: &Binding) -> String {
    format!("bind:{}--{}", b.from, b.to)
}

fn endpoint(r: &PortRef) -> Option<&str> {
    r.instance.as_deref()
}

/// Compute a plan's footprint, walking steps in execution order
/// (unbind → stop → start → bind).
fn footprint(plan: &ReconfigurationPlan) -> Footprint {
    let mut fp = Footprint::default();
    for b in &plan.unbind {
        fp.touch(bind_atom(b), true);
        for r in [&b.from, &b.to] {
            if let Some(i) = endpoint(r) {
                fp.touch(inst_atom(i), false);
            }
        }
    }
    for (name, _) in &plan.stop {
        fp.touch(inst_atom(name), true);
    }
    for (name, _) in &plan.start {
        fp.touch(inst_atom(name), true);
    }
    for b in &plan.bind {
        fp.touch(bind_atom(b), true);
        for r in [&b.from, &b.to] {
            if let Some(i) = endpoint(r) {
                fp.touch(inst_atom(i), false);
            }
        }
    }
    fp
}

/// The static reconfiguration-plan linter. Stateless; construct one and
/// lint as many plan sets as you like.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanLinter;

impl PlanLinter {
    /// A fresh linter.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Lint a single plan in isolation: the intrinsic checks only
    /// (undo-completeness, dangling endpoints, binding cycles). This is
    /// what the Adaptivity Manager and the cross-shard coordinator run
    /// before every switch.
    #[must_use]
    pub fn lint_one(&self, plan: &ReconfigurationPlan) -> PlanLintReport {
        self.lint(std::slice::from_ref(plan))
    }

    /// Lint a set of pending plans: every intrinsic check on each plan,
    /// plus the cross-plan conflict and lock-order analyses over the set.
    ///
    /// The cross-plan analyses run only for two or more plans, because
    /// on fewer they cannot report anything: a conflict needs a pair of
    /// plans, and one plan's first-touch order is deduplicated, so its
    /// chain of order edges is a simple path with no cycle.
    #[must_use]
    pub fn lint(&self, plans: &[ReconfigurationPlan]) -> PlanLintReport {
        let mut diags = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            Self::check_undo(i, plan, &mut diags);
            Self::check_dangling(i, plan, &mut diags);
            Self::check_binding_cycle(i, plan, &mut diags);
        }
        if plans.len() >= 2 {
            let fps: Vec<Footprint> = plans.iter().map(footprint).collect();
            Self::check_conflicts(&fps, &mut diags);
            Self::check_lock_order(&fps, &mut diags);
        }
        PlanLintReport {
            diagnostics: diags,
            plans: plans.len(),
            steps: plans.iter().map(ReconfigurationPlan::len).sum(),
        }
    }

    /// (iii) Undo-incompleteness: the journal rolls a switch back by
    /// inverting applied steps, so every step needs exactly one obvious
    /// inverse. Three shapes break that statically.
    fn check_undo(plan_ix: usize, plan: &ReconfigurationPlan, diags: &mut Vec<PlanDiagnostic>) {
        let mut push = |step: String, why: &str| {
            diags.push(PlanDiagnostic {
                severity: Severity::Error,
                plan: Some(plan_ix),
                kind: PlanDiagnosticKind::UndoIncomplete { step, why: why.to_owned() },
            });
        };
        for (name, ty) in &plan.stop {
            if ty.is_empty() {
                push(
                    format!("stop {name}"),
                    "no type recorded — the inverse (restart) cannot name what to create",
                );
            }
        }
        for (i, (name, _)) in plan.start.iter().enumerate() {
            if plan.start[..i].iter().any(|(n, _)| n == name) {
                push(
                    format!("start {name}"),
                    "started twice — the inverse `stop` is ambiguous between the two",
                );
            }
        }
        for (steps, verb) in [(&plan.bind, "bind"), (&plan.unbind, "unbind")] {
            for (i, b) in steps.iter().enumerate() {
                if steps[..i].contains(b) {
                    push(
                        format!("{verb} {} -- {}", b.from, b.to),
                        "duplicated — undoing one occurrence silently undoes both",
                    );
                }
            }
        }
    }

    /// (iv-a) Dangling endpoints: a bind to an instance this very plan
    /// removes (stop without restart), or an unbind from an instance that
    /// only exists *after* the unbind phase (started but never stopped —
    /// the binding cannot predate the plan).
    fn check_dangling(plan_ix: usize, plan: &ReconfigurationPlan, diags: &mut Vec<PlanDiagnostic>) {
        let stopped: Vec<&str> = plan.stop.iter().map(|(n, _)| n.as_str()).collect();
        let started: Vec<&str> = plan.start.iter().map(|(n, _)| n.as_str()).collect();
        let mut push = |b: &Binding, instance: &str| {
            diags.push(PlanDiagnostic {
                severity: Severity::Error,
                plan: Some(plan_ix),
                kind: PlanDiagnosticKind::DanglingBinding {
                    binding: format!("{} -- {}", b.from, b.to),
                    instance: instance.to_owned(),
                },
            });
        };
        for b in &plan.bind {
            for r in [&b.from, &b.to] {
                if let Some(i) = endpoint(r) {
                    if stopped.contains(&i) && !started.contains(&i) {
                        push(b, i);
                    }
                }
            }
        }
        for b in &plan.unbind {
            for r in [&b.from, &b.to] {
                if let Some(i) = endpoint(r) {
                    if started.contains(&i) && !stopped.contains(&i) {
                        push(b, i);
                    }
                }
            }
        }
    }

    /// (iv-b) Cyclic bindings: the plan's new bindings induce
    /// instance-dependency edges exactly like the ADL analyser's
    /// sub-instance bindings; reuse its cycle finder.
    fn check_binding_cycle(
        plan_ix: usize,
        plan: &ReconfigurationPlan,
        diags: &mut Vec<PlanDiagnostic>,
    ) {
        let edges: Vec<(&str, &str)> =
            plan.bind.iter().filter_map(|b| Some((endpoint(&b.from)?, endpoint(&b.to)?))).collect();
        if let Some(cycle) = find_cycle(&edges) {
            diags.push(PlanDiagnostic {
                severity: Severity::Error,
                plan: Some(plan_ix),
                kind: PlanDiagnosticKind::BindingCycle { cycle },
            });
        }
    }

    /// (i) Cross-plan conflicts: for every ordered pair, atoms one plan
    /// writes that the other touches at all. One diagnostic per pair,
    /// carrying the full sorted atom list.
    fn check_conflicts(fps: &[Footprint], diags: &mut Vec<PlanDiagnostic>) {
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                let (a, b) = (&fps[i], &fps[j]);
                let mut atoms: Vec<String> = a
                    .writes
                    .iter()
                    .filter(|x| b.writes.contains(x) || b.reads.contains(x))
                    .chain(a.reads.iter().filter(|x| b.writes.contains(x)))
                    .cloned()
                    .collect();
                atoms.sort_unstable();
                atoms.dedup();
                if !atoms.is_empty() {
                    diags.push(PlanDiagnostic {
                        severity: Severity::Error,
                        plan: Some(i),
                        kind: PlanDiagnosticKind::CrossPlanConflict { other: j, atoms },
                    });
                }
            }
        }
    }

    /// (ii) Lock-order cycles: each plan's first-touch order contributes
    /// consecutive before/after edges; a cycle in the union means no
    /// global acquisition order satisfies every plan — deadlock is
    /// reachable. A single plan's chain is totally ordered, so cycles
    /// require at least two plans (and [`PlanLinter::lint`] only asks
    /// then).
    fn check_lock_order(fps: &[Footprint], diags: &mut Vec<PlanDiagnostic>) {
        let mut edges: Vec<(String, String)> = Vec::new();
        for fp in fps {
            for w in fp.order.windows(2) {
                let e = (w[0].clone(), w[1].clone());
                if !edges.contains(&e) {
                    edges.push(e);
                }
            }
        }
        if let Some(cycle) = find_cycle(&edges) {
            diags.push(PlanDiagnostic {
                severity: Severity::Error,
                plan: None,
                kind: PlanDiagnosticKind::LockOrderCycle { cycle },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adl::config::flatten;
    use adl::diff::diff;
    use adl::figures::{docked_session, fig4_document, wireless_session};
    use adl::parse::parse;

    fn bind(from: &str, fp: &str, to: &str, tp: &str) -> Binding {
        Binding { from: PortRef::on(from, fp), to: PortRef::on(to, tp) }
    }

    fn kinds(r: &PlanLintReport) -> Vec<&PlanDiagnosticKind> {
        r.diagnostics.iter().map(|d| &d.kind).collect()
    }

    // ----- seeded bad-plan corpus: each diagnostic fires -----

    #[test]
    fn stop_without_a_type_is_undo_incomplete() {
        let mut plan = ReconfigurationPlan::default();
        plan.stop.push(("orphan".into(), String::new()));
        let r = PlanLinter::new().lint_one(&plan);
        assert!(r.has_errors());
        assert!(
            matches!(kinds(&r)[0], PlanDiagnosticKind::UndoIncomplete { step, .. } if step == "stop orphan"),
            "{r}"
        );
    }

    #[test]
    fn double_start_is_undo_incomplete() {
        let mut plan = ReconfigurationPlan::default();
        plan.start.push(("x".into(), "T".into()));
        plan.start.push(("x".into(), "U".into()));
        let r = PlanLinter::new().lint_one(&plan);
        assert!(
            matches!(kinds(&r)[0], PlanDiagnosticKind::UndoIncomplete { step, .. } if step == "start x"),
            "{r}"
        );
    }

    #[test]
    fn duplicated_bind_is_undo_incomplete() {
        let mut plan = ReconfigurationPlan::default();
        plan.start.push(("a".into(), "T".into()));
        plan.start.push(("b".into(), "U".into()));
        plan.bind.push(bind("a", "r", "b", "p"));
        plan.bind.push(bind("a", "r", "b", "p"));
        let r = PlanLinter::new().lint_one(&plan);
        assert!(
            matches!(kinds(&r)[0], PlanDiagnosticKind::UndoIncomplete { step, .. } if step.starts_with("bind")),
            "{r}"
        );
    }

    #[test]
    fn binding_to_a_stopped_instance_dangles() {
        let mut plan = ReconfigurationPlan::default();
        plan.stop.push(("old".into(), "T".into()));
        plan.bind.push(bind("client", "r", "old", "p"));
        let r = PlanLinter::new().lint_one(&plan);
        assert!(
            matches!(kinds(&r)[0], PlanDiagnosticKind::DanglingBinding { instance, .. } if instance == "old"),
            "{r}"
        );
    }

    #[test]
    fn unbinding_from_a_freshly_started_instance_dangles() {
        // unbind runs before start, so the binding cannot exist yet.
        let mut plan = ReconfigurationPlan::default();
        plan.start.push(("fresh".into(), "T".into()));
        plan.unbind.push(bind("client", "r", "fresh", "p"));
        let r = PlanLinter::new().lint_one(&plan);
        assert!(
            matches!(kinds(&r)[0], PlanDiagnosticKind::DanglingBinding { instance, .. } if instance == "fresh"),
            "{r}"
        );
    }

    #[test]
    fn restart_rebind_is_not_dangling() {
        // stop + start of the same instance is a restart: binding to it is
        // fine, and so is unbinding the old binding from it.
        let mut plan = ReconfigurationPlan::default();
        plan.unbind.push(bind("client", "r", "svc", "p"));
        plan.stop.push(("svc".into(), "T".into()));
        plan.start.push(("svc".into(), "T2".into()));
        plan.bind.push(bind("client", "r", "svc", "p"));
        // client appears only as an endpoint: no dangling either way.
        assert!(PlanLinter::new().lint_one(&plan).is_clean());
    }

    #[test]
    fn cyclic_new_bindings_are_rejected() {
        let mut plan = ReconfigurationPlan::default();
        plan.start.push(("a".into(), "T".into()));
        plan.start.push(("b".into(), "T".into()));
        plan.bind.push(bind("a", "r", "b", "p"));
        plan.bind.push(bind("b", "r", "a", "p"));
        let r = PlanLinter::new().lint_one(&plan);
        assert!(
            matches!(kinds(&r)[0], PlanDiagnosticKind::BindingCycle { cycle } if cycle == "a -> b -> a"),
            "{r}"
        );
    }

    #[test]
    fn conflicting_plans_are_detected_pairwise() {
        let mut a = ReconfigurationPlan::default();
        a.stop.push(("shared".into(), "T".into()));
        let mut b = ReconfigurationPlan::default();
        b.start.push(("shared".into(), "U".into()));
        let mut c = ReconfigurationPlan::default();
        c.start.push(("elsewhere".into(), "V".into()));
        let r = PlanLinter::new().lint(&[a, b, c]);
        assert_eq!(r.diagnostics.len(), 1, "{r}");
        assert_eq!(r.diagnostics[0].plan, Some(0));
        assert!(
            matches!(
                &r.diagnostics[0].kind,
                PlanDiagnosticKind::CrossPlanConflict { other: 1, atoms }
                    if atoms == &vec!["inst:shared".to_owned()]
            ),
            "{r}"
        );
    }

    #[test]
    fn read_write_overlap_is_a_conflict_too() {
        // Plan 0 only *reads* `svc` (as a bind endpoint); plan 1 stops it.
        let mut a = ReconfigurationPlan::default();
        a.bind.push(bind("client", "r", "svc", "p"));
        let mut b = ReconfigurationPlan::default();
        b.stop.push(("svc".into(), "T".into()));
        let r = PlanLinter::new().lint(&[a, b]);
        assert!(
            kinds(&r).iter().any(|k| matches!(k, PlanDiagnosticKind::CrossPlanConflict { .. })),
            "{r}"
        );
    }

    #[test]
    fn opposite_acquisition_orders_are_a_lock_order_cycle() {
        // Plan 0 touches x then y; plan 1 touches y then x.
        let mut a = ReconfigurationPlan::default();
        a.stop.push(("x".into(), "T".into()));
        a.stop.push(("y".into(), "T".into()));
        let mut b = ReconfigurationPlan::default();
        b.start.push(("y".into(), "T".into()));
        b.start.push(("x".into(), "T".into()));
        let r = PlanLinter::new().lint(&[a, b]);
        let cycle = kinds(&r)
            .into_iter()
            .find_map(|k| match k {
                PlanDiagnosticKind::LockOrderCycle { cycle } => Some(cycle.clone()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("expected a lock-order cycle: {r}"));
        assert_eq!(cycle, "inst:x -> inst:y -> inst:x");
    }

    // ----- the plans the system actually produces stay clean -----

    #[test]
    fn figure5_switchover_plans_pass_the_linter() {
        let doc = fig4_document();
        let docked = docked_session(&doc);
        let wireless = wireless_session(&doc);
        let boot = diff(&adl::Configuration::default(), &docked);
        let over = diff(&docked, &wireless);
        let back = diff(&wireless, &docked);
        for plan in [&boot, &over, &back] {
            let r = PlanLinter::new().lint_one(plan);
            assert!(r.is_clean(), "{r}");
        }
        // Sequentially-executed plans are linted one at a time; the
        // switchover and its reverse *would* conflict if pending together,
        // which is exactly what the cross-plan check is for.
        assert!(PlanLinter::new().lint(&[over, back]).has_errors());
    }

    #[test]
    fn inverse_of_a_clean_plan_is_clean() {
        let doc = parse(
            "component T { provide p; }
             component U { require q; }
             component C { when on { inst t : T; u : U; bind u.q -- t.p; } }",
        )
        .unwrap();
        let target = flatten(&doc, "C", &["on"]).unwrap();
        let plan = diff(&adl::Configuration::default(), &target);
        assert!(PlanLinter::new().lint_one(&plan).is_clean());
        assert!(PlanLinter::new().lint_one(&plan.inverse()).is_clean());
    }

    #[test]
    fn empty_plan_set_is_clean() {
        assert!(PlanLinter::new().lint(&[]).is_clean());
        assert!(PlanLinter::new().lint_one(&ReconfigurationPlan::default()).is_clean());
    }

    // ----- determinism and rendering -----

    #[test]
    fn reports_are_deterministic_and_collect_all() {
        let mut plan = ReconfigurationPlan::default();
        plan.stop.push(("gone".into(), String::new()));
        plan.stop.push(("old".into(), "T".into()));
        plan.bind.push(bind("client", "r", "old", "p"));
        plan.bind.push(bind("a", "r", "b", "p"));
        plan.bind.push(bind("b", "r", "a", "p"));
        let first = PlanLinter::new().lint_one(&plan);
        assert_eq!(first, PlanLinter::new().lint_one(&plan), "byte-identical on replay");
        // All three findings are collected, not just the first.
        assert_eq!(first.diagnostics.len(), 3, "{first}");
        assert!(first.to_string().contains("error"));
        for d in &first.diagnostics {
            assert!(!d.to_string().is_empty());
        }
    }

    // ----- the cross-plan gate is exact -----

    /// Test-only reference: all five analyses, unconditionally, with the
    /// binding-cycle edges owned — what `lint` computes for any set size.
    fn lint_reference(plans: &[ReconfigurationPlan]) -> PlanLintReport {
        let mut diags = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            PlanLinter::check_undo(i, plan, &mut diags);
            PlanLinter::check_dangling(i, plan, &mut diags);
            let edges: Vec<(String, String)> = plan
                .bind
                .iter()
                .filter_map(|b| match (endpoint(&b.from), endpoint(&b.to)) {
                    (Some(f), Some(t)) => Some((f.to_owned(), t.to_owned())),
                    _ => None,
                })
                .collect();
            if let Some(cycle) = find_cycle(&edges) {
                diags.push(PlanDiagnostic {
                    severity: Severity::Error,
                    plan: Some(i),
                    kind: PlanDiagnosticKind::BindingCycle { cycle },
                });
            }
        }
        let fps: Vec<Footprint> = plans.iter().map(footprint).collect();
        PlanLinter::check_conflicts(&fps, &mut diags);
        PlanLinter::check_lock_order(&fps, &mut diags);
        PlanLintReport {
            diagnostics: diags,
            plans: plans.len(),
            steps: plans.iter().map(ReconfigurationPlan::len).sum(),
        }
    }

    /// A random plan over a small name pool, so duplicated steps, cyclic
    /// binds, dangling endpoints, untyped stops and composite-own ports
    /// all occur; one plan in eight is empty.
    fn random_plan(rng: &mut adm_rng::Pcg32) -> ReconfigurationPlan {
        const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
        const PORTS: [&str; 2] = ["p", "q"];
        const TYPES: [&str; 3] = ["T", "U", ""];
        let mut plan = ReconfigurationPlan::default();
        if rng.index(8) == 0 {
            return plan;
        }
        fn port(rng: &mut adm_rng::Pcg32) -> PortRef {
            let (p, name) = (*rng.choose(&PORTS), *rng.choose(&NAMES));
            if rng.index(10) == 0 {
                PortRef::own(p)
            } else {
                PortRef::on(name, p)
            }
        }
        for _ in 0..rng.index(3) {
            plan.unbind.push(Binding { from: port(rng), to: port(rng) });
        }
        for _ in 0..rng.index(3) {
            plan.stop.push(((*rng.choose(&NAMES)).into(), (*rng.choose(&TYPES)).into()));
        }
        for _ in 0..rng.index(3) {
            plan.start.push(((*rng.choose(&NAMES)).into(), (*rng.choose(&TYPES)).into()));
        }
        for _ in 0..rng.index(5) {
            plan.bind.push(Binding { from: port(rng), to: port(rng) });
        }
        plan
    }

    #[test]
    fn lint_one_equals_the_all_analyses_reference_on_a_random_corpus() {
        let mut rng = adm_rng::Pcg32::new(0x91a7_0001);
        let linter = PlanLinter::new();
        let mut seen = [0usize; 4]; // empty, undo, dangling, binding cycle
        for case in 0..600 {
            let plan = random_plan(&mut rng);
            let got = linter.lint_one(&plan);
            assert_eq!(got, lint_reference(std::slice::from_ref(&plan)), "case {case}: {plan:?}");
            seen[0] += usize::from(plan.is_empty());
            for k in kinds(&got) {
                match k {
                    PlanDiagnosticKind::UndoIncomplete { .. } => seen[1] += 1,
                    PlanDiagnosticKind::DanglingBinding { .. } => seen[2] += 1,
                    PlanDiagnosticKind::BindingCycle { .. } => seen[3] += 1,
                    other => panic!("case {case}: a single plan reported {other}"),
                }
            }
        }
        assert!(seen.iter().all(|&n| n >= 20), "the corpus covers every shape: {seen:?}");
    }

    #[test]
    fn plan_sets_still_get_the_cross_plan_analyses() {
        let mut rng = adm_rng::Pcg32::new(0x91a7_0002);
        let linter = PlanLinter::new();
        let (mut conflicts, mut cycles) = (0usize, 0usize);
        for case in 0..300 {
            let n = 2 + rng.index(2);
            let plans: Vec<ReconfigurationPlan> = (0..n).map(|_| random_plan(&mut rng)).collect();
            let got = linter.lint(&plans);
            assert_eq!(got, lint_reference(&plans), "case {case}: {plans:?}");
            for k in kinds(&got) {
                match k {
                    PlanDiagnosticKind::CrossPlanConflict { .. } => conflicts += 1,
                    PlanDiagnosticKind::LockOrderCycle { .. } => cycles += 1,
                    _ => {}
                }
            }
        }
        assert!(conflicts >= 20 && cycles >= 20, "conflicts {conflicts}, cycles {cycles}");
    }
}
