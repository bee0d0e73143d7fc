//! The Session Manager: the loop of Figure 1.
//!
//! > "The current configuration operation is being monitored by the session
//! > monitor who constantly checks constraints and, if broken, consults the
//! > switching rules to decide how best to overcome the problem. When
//! > adaptivity is triggered the component architecture model allows an
//! > alternative execution plan to be designed. The session manager decides
//! > how to instantiate the alternative component architecture and passes
//! > his alternative over to the Adaptivity Manager."
//!
//! [`SessionManager::tick`] performs one turn of that loop: refresh gauges,
//! evaluate the rules, and for a `SwitchMode` action design the alternative
//! configuration from the ADL model, diff it against the live runtime, and
//! hand the plan to the Adaptivity Manager. Other actions (migrate, select
//! version, revise plan) are returned to the embedding environment, which
//! owns the resources they act on.

use crate::adaptivity::{AdaptivityManager, SwitchError};
use crate::gauge::GaugeBoard;
use crate::rules::{Action, RuleSet};
use crate::runtime::{ComponentFactory, Runtime};
use crate::state::StateManager;
use adl::ast::Document;
use adl::config::flatten;
use adl::diff::diff;

/// Something the session manager did (or asked the environment to do).
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptationEvent {
    /// A mode switch committed.
    Switched {
        /// Rule that triggered it.
        rule_id: u32,
        /// The mode switched from.
        from_mode: String,
        /// The mode switched to.
        to_mode: String,
        /// Steps executed.
        steps: usize,
        /// Tick of completion.
        at: u64,
    },
    /// A mode switch failed and was backed off.
    SwitchFailed {
        /// Rule that triggered it.
        rule_id: u32,
        /// Target mode.
        to_mode: String,
        /// Rendered error.
        error: String,
        /// Tick of the attempt.
        at: u64,
    },
    /// An action the environment must carry out (migration, version
    /// selection, plan revision, custom).
    Requested {
        /// Rule that fired.
        rule_id: u32,
        /// The action.
        action: Action,
        /// Tick.
        at: u64,
    },
}

/// The Session Manager.
#[derive(Debug)]
pub struct SessionManager {
    doc: Document,
    composite: String,
    mode: String,
    rules: RuleSet,
    /// The gauge board monitors feed into.
    pub board: GaugeBoard,
    log: Vec<AdaptationEvent>,
}

impl SessionManager {
    /// A session manager for `composite` in `doc`, starting in `mode`.
    #[must_use]
    pub fn new(
        doc: Document,
        composite: &str,
        mode: &str,
        rules: RuleSet,
        board: GaugeBoard,
    ) -> Self {
        Self {
            doc,
            composite: composite.to_owned(),
            mode: mode.to_owned(),
            rules,
            board,
            log: Vec::new(),
        }
    }

    /// Current session mode.
    #[must_use]
    pub fn mode(&self) -> &str {
        &self.mode
    }

    /// The adaptation log.
    #[must_use]
    pub fn log(&self) -> &[AdaptationEvent] {
        &self.log
    }

    /// Bring the runtime to this session's current mode configuration
    /// (initial instantiation).
    ///
    /// # Errors
    /// [`SwitchError`] if instantiation fails (rolled back).
    pub fn boot(
        &mut self,
        runtime: &mut Runtime,
        factory: &mut dyn ComponentFactory,
        am: &mut AdaptivityManager,
        states: &mut StateManager,
        now: u64,
    ) -> Result<(), SwitchError> {
        let target = flatten(&self.doc, &self.composite, &[self.mode.as_str()])
            .map_err(|e| SwitchError::Inconsistent(e.to_string()))?;
        let plan = diff(&runtime.configuration(), &target);
        am.execute(runtime, &plan, factory, states, now)?;
        Ok(())
    }

    /// One turn of the Figure 1 loop. Returns the events of this turn
    /// (also appended to the log).
    pub fn tick(
        &mut self,
        runtime: &mut Runtime,
        factory: &mut dyn ComponentFactory,
        am: &mut AdaptivityManager,
        states: &mut StateManager,
        now: u64,
    ) -> Vec<AdaptationEvent> {
        let gauges = self.board.snapshot();
        let mut events = Vec::new();
        // Consider every fired rule, most urgent first; execute at most one
        // mode switch per tick (a switch invalidates the snapshot), but
        // forward all non-switch requests.
        let mut switched = false;
        let fired: Vec<(u32, Action)> =
            self.rules.fired(&gauges).into_iter().map(|r| (r.id, r.action.clone())).collect();
        for (rule_id, action) in fired {
            match action {
                Action::SwitchMode(to_mode) => {
                    if switched || to_mode == self.mode {
                        continue;
                    }
                    let target = match flatten(&self.doc, &self.composite, &[to_mode.as_str()]) {
                        Ok(t) => t,
                        Err(e) => {
                            events.push(AdaptationEvent::SwitchFailed {
                                rule_id,
                                to_mode: to_mode.clone(),
                                error: e.to_string(),
                                at: now,
                            });
                            continue;
                        }
                    };
                    let plan = diff(&runtime.configuration(), &target);
                    match am.execute(runtime, &plan, factory, states, now) {
                        Ok(report) => {
                            events.push(AdaptationEvent::Switched {
                                rule_id,
                                from_mode: self.mode.clone(),
                                to_mode: to_mode.clone(),
                                steps: report.steps,
                                at: now,
                            });
                            self.mode = to_mode;
                            switched = true;
                        }
                        Err(e) => {
                            events.push(AdaptationEvent::SwitchFailed {
                                rule_id,
                                to_mode,
                                error: e.to_string(),
                                at: now,
                            });
                        }
                    }
                }
                Action::TuneRule { rule_id: target, scale } => {
                    // Open adaptivity: the rule base rewrites itself.
                    if self.rules.tune(target, scale) {
                        events.push(AdaptationEvent::Requested {
                            rule_id,
                            action: Action::TuneRule { rule_id: target, scale },
                            at: now,
                        });
                    }
                }
                other => {
                    events.push(AdaptationEvent::Requested { rule_id, action: other, at: now });
                }
            }
        }
        self.log.extend(events.iter().cloned());
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauge::{Gauge, GaugeKind};
    use crate::monitor::Monitor;
    use crate::rules::{Expr, SwitchingRule};
    use crate::runtime::{BasicFactory, FlakyFactory};
    use adl::figures::{fig4_document, wireless_session};

    /// A session manager over the Figure 4 architecture: rule 1 switches to
    /// wireless when the dock signal drops below 0.5.
    fn setup() -> (SessionManager, Runtime, AdaptivityManager, StateManager) {
        let mut board = GaugeBoard::new();
        board.add_monitor(Monitor::new("dock", 8));
        board.add_gauge(Gauge {
            name: "docked".into(),
            monitor: "dock".into(),
            kind: GaugeKind::Latest,
        });
        let mut rules = RuleSet::new();
        rules.add(SwitchingRule {
            id: 1,
            priority: 0,
            constraint: Expr::gauge_lt("docked", 0.5),
            action: Action::SwitchMode("wireless".into()),
        });
        rules.add(SwitchingRule {
            id: 2,
            priority: 1,
            constraint: Expr::gauge_gt("docked", 0.5),
            action: Action::SwitchMode("docked".into()),
        });
        let mut sm = SessionManager::new(fig4_document(), "MobileCBMS", "docked", rules, board);
        let mut rt = Runtime::new();
        let mut am = AdaptivityManager::new();
        let mut st = StateManager::new();
        sm.boot(&mut rt, &mut BasicFactory, &mut am, &mut st, 0).unwrap();
        (sm, rt, am, st)
    }

    #[test]
    fn undock_triggers_the_figure5_switchover() {
        let (mut sm, mut rt, mut am, mut st) = setup();
        // Docked: no adaptation.
        sm.board.record("dock", 1, 1.0);
        let ev = sm.tick(&mut rt, &mut BasicFactory, &mut am, &mut st, 1);
        assert!(ev.is_empty(), "{ev:?}");
        // Unplugged: scenario 2 fires.
        sm.board.record("dock", 2, 0.0);
        let ev = sm.tick(&mut rt, &mut BasicFactory, &mut am, &mut st, 2);
        assert_eq!(ev.len(), 1);
        assert!(matches!(
            &ev[0],
            AdaptationEvent::Switched { rule_id: 1, to_mode, steps: 13, .. } if to_mode == "wireless"
        ));
        assert_eq!(sm.mode(), "wireless");
        assert_eq!(rt.configuration(), wireless_session(&fig4_document()));
    }

    #[test]
    fn redocking_switches_back() {
        let (mut sm, mut rt, mut am, mut st) = setup();
        sm.board.record("dock", 1, 0.0);
        sm.tick(&mut rt, &mut BasicFactory, &mut am, &mut st, 1);
        sm.board.record("dock", 2, 1.0);
        sm.tick(&mut rt, &mut BasicFactory, &mut am, &mut st, 2);
        assert_eq!(sm.mode(), "docked");
        assert_eq!(am.committed(), 3, "boot + 2 switches");
    }

    #[test]
    fn no_data_means_no_adaptation() {
        let (mut sm, mut rt, mut am, mut st) = setup();
        let ev = sm.tick(&mut rt, &mut BasicFactory, &mut am, &mut st, 1);
        assert!(ev.is_empty());
        assert_eq!(sm.mode(), "docked");
    }

    #[test]
    fn failed_switch_logs_and_leaves_mode_unchanged() {
        let (mut sm, mut rt, mut am, mut st) = setup();
        sm.board.record("dock", 1, 0.0);
        let mut flaky = FlakyFactory::failing(["wopt"]);
        let ev = sm.tick(&mut rt, &mut flaky, &mut am, &mut st, 1);
        assert!(matches!(&ev[0], AdaptationEvent::SwitchFailed { rule_id: 1, .. }));
        assert_eq!(sm.mode(), "docked");
        assert_eq!(am.rolled_back(), 1);
        // Next tick with a healthy factory succeeds — self-healing.
        sm.board.record("dock", 2, 0.0);
        let ev = sm.tick(&mut rt, &mut BasicFactory, &mut am, &mut st, 2);
        assert!(matches!(&ev[0], AdaptationEvent::Switched { .. }));
    }

    #[test]
    fn non_switch_actions_are_forwarded() {
        let (mut sm, mut rt, mut am, mut st) = setup();
        sm.rules.add(SwitchingRule {
            id: 455,
            priority: 0,
            constraint: Expr::gauge_gt("docked", -1.0), // always true with data
            action: Action::Migrate { component: "agent".into(), candidates: vec!["n1".into()] },
        });
        sm.board.record("dock", 1, 1.0);
        let ev = sm.tick(&mut rt, &mut BasicFactory, &mut am, &mut st, 1);
        assert!(ev.iter().any(|e| matches!(e, AdaptationEvent::Requested { rule_id: 455, .. })));
    }

    #[test]
    fn open_adaptivity_rules_tune_rules() {
        let (mut sm, mut rt, mut am, mut st) = setup();
        // A meta-rule: when flapping is detected (here: proxy gauge high),
        // relax rule 1's undock threshold so it stops firing.
        sm.rules.add(SwitchingRule {
            id: 99,
            priority: 0,
            constraint: Expr::gauge_gt("docked", 0.9),
            action: Action::TuneRule { rule_id: 1, scale: 0.1 },
        });
        sm.board.record("dock", 1, 1.0); // triggers the meta-rule
        let ev = sm.tick(&mut rt, &mut BasicFactory, &mut am, &mut st, 1);
        assert!(ev.iter().any(|e| matches!(
            e,
            AdaptationEvent::Requested { rule_id: 99, action: Action::TuneRule { .. }, .. }
        )));
        // Rule 1 originally fired below 0.5; tuned by 0.1 it now needs
        // docked < 0.05, so a mild undock signal no longer switches.
        sm.board.record("dock", 2, 0.3);
        let ev = sm.tick(&mut rt, &mut BasicFactory, &mut am, &mut st, 2);
        assert!(
            !ev.iter().any(|e| matches!(e, AdaptationEvent::Switched { rule_id: 1, .. })),
            "{ev:?}"
        );
        assert_eq!(sm.mode(), "docked");
    }

    #[test]
    fn log_accumulates() {
        let (mut sm, mut rt, mut am, mut st) = setup();
        sm.board.record("dock", 1, 0.0);
        sm.tick(&mut rt, &mut BasicFactory, &mut am, &mut st, 1);
        sm.board.record("dock", 2, 1.0);
        sm.tick(&mut rt, &mut BasicFactory, &mut am, &mut st, 2);
        assert_eq!(sm.log().len(), 2);
    }
}
