//! Switching rules: constraints over gauges, and the actions taken when a
//! constraint is broken.
//!
//! This is the paper's "policy style glue": each data or service component
//! carries "the list of rules associated with the adaptivity constraints and
//! the action(s) to be taken when the session manager has detected that a
//! constraint has been broken". The expression language is deliberately
//! small — the paper's own examples are threshold and range predicates
//! (`processor-util > 90%`, `bandwidth > 30 < 100 Kbps`).

use std::collections::BTreeMap;
use std::fmt;

/// A constraint expression over gauge values.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The value of a named gauge. Evaluates to `None` (rule cannot fire)
    /// when the gauge has no value yet.
    Gauge(String),
    /// A constant.
    Const(f64),
    /// Left > right.
    Gt(Box<Expr>, Box<Expr>),
    /// Left < right.
    Lt(Box<Expr>, Box<Expr>),
    /// Left ≥ right.
    Ge(Box<Expr>, Box<Expr>),
    /// Left ≤ right.
    Le(Box<Expr>, Box<Expr>),
    /// `lo < x < hi` — the paper's `bandwidth > 30 < 100` range form.
    Between {
        /// The tested expression.
        x: Box<Expr>,
        /// Exclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Both hold.
    And(Box<Expr>, Box<Expr>),
    /// Either holds.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Convenience: `gauge(name) > c`.
    #[cfg(test)]
    pub(crate) fn gauge_gt(name: &str, c: f64) -> Self {
        Expr::Gt(Box::new(Expr::Gauge(name.to_owned())), Box::new(Expr::Const(c)))
    }

    /// Convenience: `gauge(name) < c`.
    #[must_use]
    pub fn gauge_lt(name: &str, c: f64) -> Self {
        Expr::Lt(Box::new(Expr::Gauge(name.to_owned())), Box::new(Expr::Const(c)))
    }

    /// Convenience: `lo < gauge(name) < hi`.
    #[cfg(test)]
    fn gauge_between(name: &str, lo: f64, hi: f64) -> Self {
        Expr::Between { x: Box::new(Expr::Gauge(name.to_owned())), lo, hi }
    }

    fn num(&self, gauges: &BTreeMap<String, f64>) -> Option<f64> {
        match self {
            Expr::Gauge(n) => gauges.get(n).copied(),
            Expr::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// A copy of this expression with every constant (including `Between`
    /// bounds) multiplied by `factor` — the primitive open adaptivity
    /// tunes rules with.
    #[must_use]
    pub(crate) fn scaled(&self, factor: f64) -> Expr {
        match self {
            Expr::Gauge(n) => Expr::Gauge(n.clone()),
            Expr::Const(c) => Expr::Const(c * factor),
            Expr::Gt(a, b) => Expr::Gt(Box::new(a.scaled(factor)), Box::new(b.scaled(factor))),
            Expr::Lt(a, b) => Expr::Lt(Box::new(a.scaled(factor)), Box::new(b.scaled(factor))),
            Expr::Ge(a, b) => Expr::Ge(Box::new(a.scaled(factor)), Box::new(b.scaled(factor))),
            Expr::Le(a, b) => Expr::Le(Box::new(a.scaled(factor)), Box::new(b.scaled(factor))),
            Expr::Between { x, lo, hi } => {
                Expr::Between { x: Box::new(x.scaled(factor)), lo: lo * factor, hi: hi * factor }
            }
            Expr::And(a, b) => Expr::And(Box::new(a.scaled(factor)), Box::new(b.scaled(factor))),
            Expr::Or(a, b) => Expr::Or(Box::new(a.scaled(factor)), Box::new(b.scaled(factor))),
            Expr::Not(a) => Expr::Not(Box::new(a.scaled(factor))),
        }
    }

    /// Evaluate to a boolean; `None` when a referenced gauge has no value
    /// (a rule must not fire on missing data).
    #[must_use]
    pub fn eval(&self, gauges: &BTreeMap<String, f64>) -> Option<bool> {
        match self {
            Expr::Gauge(_) | Expr::Const(_) => None,
            Expr::Gt(a, b) => Some(a.num(gauges)? > b.num(gauges)?),
            Expr::Lt(a, b) => Some(a.num(gauges)? < b.num(gauges)?),
            Expr::Ge(a, b) => Some(a.num(gauges)? >= b.num(gauges)?),
            Expr::Le(a, b) => Some(a.num(gauges)? <= b.num(gauges)?),
            Expr::Between { x, lo, hi } => {
                let v = x.num(gauges)?;
                Some(v > *lo && v < *hi)
            }
            Expr::And(a, b) => Some(a.eval(gauges)? && b.eval(gauges)?),
            Expr::Or(a, b) => Some(a.eval(gauges)? || b.eval(gauges)?),
            Expr::Not(a) => Some(!a.eval(gauges)?),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Gauge(n) => write!(f, "{n}"),
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Gt(a, b) => write!(f, "({a} > {b})"),
            Expr::Lt(a, b) => write!(f, "({a} < {b})"),
            Expr::Ge(a, b) => write!(f, "({a} >= {b})"),
            Expr::Le(a, b) => write!(f, "({a} <= {b})"),
            Expr::Between { x, lo, hi } => write!(f, "({lo} < {x} < {hi})"),
            Expr::And(a, b) => write!(f, "({a} and {b})"),
            Expr::Or(a, b) => write!(f, "({a} or {b})"),
            Expr::Not(a) => write!(f, "(not {a})"),
        }
    }
}

/// What to do when a constraint is broken.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Switch the session's ADL mode (Figure 5: docked → wireless).
    SwitchMode(String),
    /// Migrate a component (and its processing state) to another node —
    /// Table 2's `SWITCH`.
    Migrate {
        /// Component (service agent) to move.
        component: String,
        /// Candidate destination nodes, best chosen by the environment.
        candidates: Vec<String>,
    },
    /// Deliver a different version of a data component — `BEST(...)` and
    /// the bandwidth-conditional rows of Table 2.
    SelectVersion {
        /// The data component.
        component: String,
        /// Version label (e.g. `compressed`, `videohalf`, `videosmall`).
        version: String,
    },
    /// Revise the running query plan at the next safe point (Scenario 3).
    ReviseQueryPlan,
    /// Open adaptivity: tune another rule's numeric thresholds by a
    /// factor. The paper's model is closed-adaptive, "however it is hoped
    /// that the design is general and flexible enough to implement an open
    /// model" — this action is that extension: the rule base itself adapts
    /// ("systems that learn from previous adaptations", Section 6).
    TuneRule {
        /// The rule whose constraint is rescaled.
        rule_id: u32,
        /// Multiplier applied to every constant in its constraint.
        scale: f64,
    },
    /// A named, environment-interpreted action.
    Custom(String),
}

/// A prioritised switching rule. Lower `priority` numbers are considered
/// first (priority 0 is most urgent).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchingRule {
    /// Stable rule id (the paper's constraint numbers: 450, 455, 595...).
    pub id: u32,
    /// Priority; lower fires first.
    pub priority: u8,
    /// The constraint; the rule fires when this evaluates to `true`.
    pub constraint: Expr,
    /// The action to take.
    pub action: Action,
}

/// An ordered set of switching rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    rules: Vec<SwitchingRule>,
}

impl RuleSet {
    /// An empty rule set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule; replaces any existing rule with the same id.
    pub fn add(&mut self, rule: SwitchingRule) {
        self.rules.retain(|r| r.id != rule.id);
        self.rules.push(rule);
        self.rules.sort_by_key(|r| (r.priority, r.id));
    }

    /// Remove a rule by id; returns whether it existed.
    pub fn remove(&mut self, id: u32) -> bool {
        let before = self.rules.len();
        self.rules.retain(|r| r.id != id);
        self.rules.len() != before
    }

    /// All rules whose constraints are broken under the gauge snapshot, in
    /// priority order.
    #[must_use]
    pub fn fired(&self, gauges: &BTreeMap<String, f64>) -> Vec<&SwitchingRule> {
        self.rules.iter().filter(|r| r.constraint.eval(gauges) == Some(true)).collect()
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterate rules in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &SwitchingRule> {
        self.rules.iter()
    }

    /// Open adaptivity: rescale every constant in rule `id`'s constraint.
    /// Returns whether the rule exists.
    pub(crate) fn tune(&mut self, id: u32, scale: f64) -> bool {
        match self.rules.iter_mut().find(|r| r.id == id) {
            Some(r) => {
                r.constraint = r.constraint.scaled(scale);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauges(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
    }

    #[test]
    fn threshold_rule_fires_above_90() {
        // The paper's constraint 455: if processor-util > 90% then SWITCH.
        let c = Expr::gauge_gt("cpu", 0.9);
        assert_eq!(c.eval(&gauges(&[("cpu", 0.95)])), Some(true));
        assert_eq!(c.eval(&gauges(&[("cpu", 0.85)])), Some(false));
        assert_eq!(c.eval(&gauges(&[])), None, "no data, no firing");
    }

    #[test]
    fn between_matches_paper_bandwidth_range() {
        // Constraint 595: if bandwidth > 30 < 100 Kbps then BEST(...)
        let c = Expr::gauge_between("bw", 30.0, 100.0);
        assert_eq!(c.eval(&gauges(&[("bw", 64.0)])), Some(true));
        assert_eq!(c.eval(&gauges(&[("bw", 30.0)])), Some(false), "exclusive bounds");
        assert_eq!(c.eval(&gauges(&[("bw", 150.0)])), Some(false));
    }

    #[test]
    fn boolean_combinators() {
        let g = gauges(&[("a", 1.0), ("b", 5.0)]);
        let and =
            Expr::And(Box::new(Expr::gauge_gt("a", 0.5)), Box::new(Expr::gauge_lt("b", 10.0)));
        assert_eq!(and.eval(&g), Some(true));
        let not = Expr::Not(Box::new(Expr::gauge_gt("a", 2.0)));
        assert_eq!(not.eval(&g), Some(true));
        let or = Expr::Or(Box::new(Expr::gauge_gt("a", 2.0)), Box::new(Expr::gauge_gt("b", 2.0)));
        assert_eq!(or.eval(&g), Some(true));
    }

    #[test]
    fn missing_gauge_poisons_the_expression() {
        let and = Expr::And(
            Box::new(Expr::gauge_gt("present", 0.0)),
            Box::new(Expr::gauge_gt("missing", 0.0)),
        );
        assert_eq!(and.eval(&gauges(&[("present", 1.0)])), None);
    }

    #[test]
    fn ruleset_orders_by_priority_then_id() {
        let mut rs = RuleSet::new();
        rs.add(SwitchingRule {
            id: 595,
            priority: 2,
            constraint: Expr::gauge_between("bw", 30.0, 100.0),
            action: Action::SelectVersion { component: "video".into(), version: "half".into() },
        });
        rs.add(SwitchingRule {
            id: 455,
            priority: 0,
            constraint: Expr::gauge_gt("cpu", 0.9),
            action: Action::Migrate {
                component: "agent".into(),
                candidates: vec!["node1".into(), "node2".into()],
            },
        });
        let g = gauges(&[("cpu", 0.99), ("bw", 50.0)]);
        let fired = rs.fired(&g);
        assert_eq!(fired.iter().map(|r| r.id).collect::<Vec<_>>(), vec![455, 595]);
        assert_eq!(rs.fired(&g)[0].id, 455);
    }

    #[test]
    fn add_replaces_same_id_and_remove_works() {
        let mut rs = RuleSet::new();
        rs.add(SwitchingRule {
            id: 1,
            priority: 5,
            constraint: Expr::gauge_gt("x", 0.0),
            action: Action::Custom("a".into()),
        });
        rs.add(SwitchingRule {
            id: 1,
            priority: 1,
            constraint: Expr::gauge_gt("x", 0.0),
            action: Action::Custom("b".into()),
        });
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.iter().next().unwrap().action, Action::Custom("b".into()));
        assert!(rs.remove(1));
        assert!(!rs.remove(1));
        assert!(rs.is_empty());
    }

    #[test]
    fn tune_rescales_thresholds_open_adaptivity() {
        let mut rs = RuleSet::new();
        rs.add(SwitchingRule {
            id: 455,
            priority: 0,
            constraint: Expr::gauge_gt("cpu", 0.9),
            action: Action::Custom("switch".into()),
        });
        // Fires at 0.95 before tuning...
        assert!(!rs.fired(&gauges(&[("cpu", 0.95)])).is_empty());
        // ...the system learned 0.9 was too twitchy: relax by 10%.
        assert!(rs.tune(455, 1.1));
        assert!(rs.fired(&gauges(&[("cpu", 0.95)])).is_empty());
        assert!(!rs.fired(&gauges(&[("cpu", 0.995)])).is_empty());
        assert_eq!(
            rs.iter().find(|r| r.id == 455).unwrap().constraint.to_string(),
            "(cpu > 0.9900000000000001)"
        );
        assert!(!rs.tune(999, 2.0));
    }

    #[test]
    fn scaled_reaches_between_bounds() {
        let e = Expr::gauge_between("bw", 30.0, 100.0).scaled(2.0);
        assert_eq!(e.eval(&gauges(&[("bw", 120.0)])), Some(true));
        assert_eq!(e.eval(&gauges(&[("bw", 50.0)])), Some(false));
    }

    #[test]
    fn expressions_display() {
        let e = Expr::And(
            Box::new(Expr::gauge_gt("cpu", 0.9)),
            Box::new(Expr::gauge_between("bw", 30.0, 100.0)),
        );
        assert_eq!(e.to_string(), "((cpu > 0.9) and (30 < bw < 100))");
    }
}
