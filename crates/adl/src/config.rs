//! Flattening a composite component into a concrete configuration.
//!
//! A [`Configuration`] is what actually runs: a set of named instances and a
//! set of bindings. Flattening selects the unconditional declarations plus
//! every `when` block whose mode is active — Figure 5's "docked session" is
//! `flatten(doc, "MobileCBMS", ["docked"])`, the wireless session the same
//! with `["wireless"]`.

use crate::ast::{Binding, Decl, Document};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A concrete, runnable configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Configuration {
    /// Instance name → component type name.
    pub instances: BTreeMap<String, String>,
    /// Active bindings.
    pub bindings: BTreeSet<Binding>,
}

/// Errors flattening can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlattenError {
    /// The named composite does not exist.
    UnknownComponent(String),
    /// An active mode is not declared by any `when` block.
    UnknownMode(String),
}

impl fmt::Display for FlattenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlattenError::UnknownComponent(n) => write!(f, "unknown component `{n}`"),
            FlattenError::UnknownMode(m) => write!(f, "unknown mode `{m}`"),
        }
    }
}

impl std::error::Error for FlattenError {}

fn collect(decls: &[Decl], active: &[&str], cfg: &mut Configuration) {
    for d in decls {
        match d {
            Decl::Inst(insts) => {
                for i in insts {
                    cfg.instances.insert(i.name.clone(), i.ty.clone());
                }
            }
            Decl::Bind(binds) => {
                for b in binds {
                    cfg.bindings.insert(b.clone());
                }
            }
            Decl::When { mode, body } => {
                if active.contains(&mode.as_str()) {
                    collect(body, active, cfg);
                }
            }
            Decl::Provide(_) | Decl::Require(_) => {}
        }
    }
}

/// Flatten `component` under the given active modes.
///
/// # Errors
/// [`FlattenError::UnknownComponent`] or [`FlattenError::UnknownMode`].
pub fn flatten(
    doc: &Document,
    component: &str,
    active_modes: &[&str],
) -> Result<Configuration, FlattenError> {
    let comp = doc
        .component(component)
        .ok_or_else(|| FlattenError::UnknownComponent(component.to_owned()))?;
    let declared = comp.modes();
    for m in active_modes {
        if !declared.contains(m) {
            return Err(FlattenError::UnknownMode((*m).to_owned()));
        }
    }
    let mut cfg = Configuration::default();
    collect(&comp.body, active_modes, &mut cfg);
    Ok(cfg)
}

impl Configuration {
    /// Requirements of instances in this configuration that no binding
    /// satisfies. A complete (runnable) configuration returns an empty list.
    /// The composite's own ports are considered satisfied externally.
    #[must_use]
    pub fn unbound_requirements(&self, doc: &Document) -> Vec<(String, String)> {
        let mut missing = Vec::new();
        for (inst, ty_name) in &self.instances {
            let Some(ty) = doc.component(ty_name) else { continue };
            for req in ty.requires() {
                let satisfied = self.bindings.iter().any(|b| {
                    b.from.instance.as_deref() == Some(inst.as_str()) && b.from.port == req
                });
                if !satisfied {
                    missing.push((inst.clone(), req.to_owned()));
                }
            }
        }
        missing
    }

    /// Number of instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the configuration has no instances.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    const SRC: &str = r"
        component Opt  { provide plan; require net; }
        component WOpt { provide plan; require net; }
        component Eth  { provide link; }
        component Wifi { provide link; }
        component SM   { provide session; require plan; }
        component Mobile {
            provide query;
            inst sm : SM;
            bind query -- sm.session;
            when docked {
                inst opt : Opt; eth : Eth;
                bind sm.plan -- opt.plan; opt.net -- eth.link;
            }
            when wireless {
                inst wopt : WOpt; wifi : Wifi;
                bind sm.plan -- wopt.plan; wopt.net -- wifi.link;
            }
        }
    ";

    #[test]
    fn base_flatten_contains_only_unconditional_parts() {
        let doc = parse(SRC).unwrap();
        let cfg = flatten(&doc, "Mobile", &[]).unwrap();
        assert_eq!(cfg.len(), 1);
        assert!(cfg.instances.contains_key("sm"));
        assert_eq!(cfg.bindings.len(), 1);
    }

    #[test]
    fn docked_mode_adds_its_delta() {
        let doc = parse(SRC).unwrap();
        let cfg = flatten(&doc, "Mobile", &["docked"]).unwrap();
        assert_eq!(cfg.len(), 3);
        assert!(cfg.instances.contains_key("opt"));
        assert!(cfg.instances.contains_key("eth"));
        assert!(!cfg.instances.contains_key("wifi"));
        assert_eq!(cfg.bindings.len(), 3);
    }

    #[test]
    fn completeness_is_mode_dependent() {
        let doc = parse(SRC).unwrap();
        let base = flatten(&doc, "Mobile", &[]).unwrap();
        // sm.plan unbound in the base configuration.
        assert!(!base.unbound_requirements(&doc).is_empty());
        assert_eq!(base.unbound_requirements(&doc), vec![("sm".into(), "plan".into())]);
        let docked = flatten(&doc, "Mobile", &["docked"]).unwrap();
        assert!(docked.unbound_requirements(&doc).is_empty());
        let wireless = flatten(&doc, "Mobile", &["wireless"]).unwrap();
        assert!(wireless.unbound_requirements(&doc).is_empty());
    }

    #[test]
    fn unknown_component_and_mode_errors() {
        let doc = parse(SRC).unwrap();
        assert_eq!(flatten(&doc, "Nope", &[]), Err(FlattenError::UnknownComponent("Nope".into())));
        assert_eq!(
            flatten(&doc, "Mobile", &["flying"]),
            Err(FlattenError::UnknownMode("flying".into()))
        );
    }

    #[test]
    fn both_modes_active_union() {
        let doc = parse(SRC).unwrap();
        let cfg = flatten(&doc, "Mobile", &["docked", "wireless"]).unwrap();
        assert_eq!(cfg.len(), 5);
        assert_eq!(
            cfg.bindings.len(),
            5,
            "sm.plan bound twice collapses in the set? No: targets differ"
        );
    }
}
