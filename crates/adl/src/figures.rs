//! The paper's Figure 4 and Figure 5 as checked, parseable architectures.
//!
//! Figure 4 is "the configuration of the components composing the management
//! system *within* the Laptop" — a mobile component-based data management
//! system (CBMS) whose docked and wireless sessions differ in which
//! optimiser and network driver are active. Figure 5 shows the switchover
//! between the two sessions; here that is `diff(docked, wireless)`.
//!
//! The component inventory follows the paper's narrative: the wireless
//! session swaps in the wireless device driver and the wireless-aware
//! optimiser, which "decides to send a compressed version of the data", so
//! the decompressor is wireless-only; the session manager, adaptivity
//! manager, monitors and architecture model persist across sessions.

use crate::analysis::analyze;
use crate::ast::Document;
use crate::config::{flatten, Configuration};
use crate::diff::{diff, ReconfigurationPlan};
use crate::parse::parse;

/// The Figure 4 architecture, in the textual Darwin-style ADL.
pub const FIG4_SOURCE: &str = r"
// Figure 4: mobile component-based data management system (within the Laptop)
component QueryOptimiser     { provide plan; require stats, net; }
component WirelessOptimiser  { provide plan; require stats, net, bandwidth; }
component EthernetDriver     { provide link; }
component WirelessDriver     { provide link, bandwidth; }
component Monitors           { provide readings; }
component ArchitectureModel  { provide model; }
component StateManager       { provide state; }
component SessionManager     { provide session; require plan, readings; }
component AdaptivityManager  { provide adapt; require session, model, state; }
component StreamDecompressor { provide stream; require link; }

component MobileCBMS {
    provide query;
    inst sm   : SessionManager;
         am   : AdaptivityManager;
         mon  : Monitors;
         arch : ArchitectureModel;
         st   : StateManager;
    bind query       -- sm.session;
         sm.readings -- mon.readings;
         am.session  -- sm.session;
         am.model    -- arch.model;
         am.state    -- st.state;
    when docked {
        inst opt : QueryOptimiser;
             eth : EthernetDriver;
        bind sm.plan   -- opt.plan;
             opt.stats -- mon.readings;
             opt.net   -- eth.link;
    }
    when wireless {
        inst wopt : WirelessOptimiser;
             wifi : WirelessDriver;
             dec  : StreamDecompressor;
        bind sm.plan        -- wopt.plan;
             wopt.stats     -- mon.readings;
             wopt.net       -- wifi.link;
             wopt.bandwidth -- wifi.bandwidth;
             dec.link       -- wifi.link;
    }
}
";

/// Parse and analyse the Figure 4 document.
///
/// # Panics
/// Never: the constant source is covered by tests.
#[must_use]
pub fn fig4_document() -> Document {
    let doc = parse(FIG4_SOURCE).expect("Figure 4 source parses");
    analyze(&doc).expect("Figure 4 source analyses cleanly");
    doc
}

/// The docked session of Figure 5 (top).
///
/// # Panics
/// Never: covered by tests.
#[must_use]
pub fn docked_session(doc: &Document) -> Configuration {
    flatten(doc, "MobileCBMS", &["docked"]).expect("docked mode exists")
}

/// The wireless session of Figure 5 (bottom).
///
/// # Panics
/// Never: covered by tests.
#[must_use]
pub fn wireless_session(doc: &Document) -> Configuration {
    flatten(doc, "MobileCBMS", &["wireless"]).expect("wireless mode exists")
}

/// The Figure 5 switchover: the plan transforming the docked session into
/// the wireless session.
#[must_use]
pub fn fig5_switchover(doc: &Document) -> ReconfigurationPlan {
    diff(&docked_session(doc), &wireless_session(doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_parses_and_analyses() {
        let doc = fig4_document();
        assert_eq!(doc.components.len(), 11);
        assert!(doc.component("MobileCBMS").unwrap().is_composite());
    }

    #[test]
    fn both_sessions_are_complete() {
        let doc = fig4_document();
        assert!(docked_session(&doc).unbound_requirements(&doc).is_empty());
        assert!(wireless_session(&doc).unbound_requirements(&doc).is_empty());
    }

    #[test]
    fn base_configuration_is_deliberately_incomplete() {
        // Without a session mode there is no optimiser to serve sm.plan.
        let doc = fig4_document();
        let base = flatten(&doc, "MobileCBMS", &[]).unwrap();
        assert_eq!(base.unbound_requirements(&doc), vec![("sm".into(), "plan".into())]);
    }

    #[test]
    fn switchover_swaps_exactly_the_session_specific_parts() {
        let doc = fig4_document();
        let plan = fig5_switchover(&doc);
        let stopped: Vec<&str> = plan.stop.iter().map(|(n, _)| n.as_str()).collect();
        let started: Vec<&str> = plan.start.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(stopped, vec!["eth", "opt"]);
        assert_eq!(started, vec!["dec", "wifi", "wopt"]);
        // The five persistent components are untouched.
        for survivor in ["sm", "am", "mon", "arch", "st"] {
            assert!(!stopped.contains(&survivor));
            assert!(!started.contains(&survivor));
        }
        assert_eq!(plan.unbind.len(), 3);
        assert_eq!(plan.bind.len(), 5);
    }

    #[test]
    fn switchover_roundtrip_restores_docked() {
        let doc = fig4_document();
        let docked = docked_session(&doc);
        let plan = fig5_switchover(&doc);
        let wireless = plan.apply(&docked);
        assert_eq!(wireless, wireless_session(&doc));
        assert_eq!(plan.inverse().apply(&wireless), docked);
    }
}
