//! Semantic analysis: the "reason about the architecture" half of an ADL.
//!
//! > "An ADL can give a global view of the system and when augmented with
//! > constraints, the validity of change (the reconfiguration of
//! > components) can potentially be evaluated at runtime."
//!
//! The checks here are the static half of that validity story: name
//! resolution, duplicate detection, and binding *direction* (a requirement —
//! Darwin's empty circle — may only be wired to a provision — the filled
//! circle). Mode-completeness (every requirement bound in every mode) is a
//! property of a flattened configuration and lives in [`crate::config`].

use crate::ast::{Binding, ComponentDecl, Decl, Document, InstDecl, PortRef};
use std::collections::BTreeMap;
use std::fmt;

/// A semantic error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// Two components share a name.
    DuplicateComponent(String),
    /// A port is declared twice on one component.
    DuplicatePort {
        /// Component name.
        component: String,
        /// Port name.
        port: String,
    },
    /// Two instances share a name in one scope.
    DuplicateInstance {
        /// Component name.
        component: String,
        /// Instance name.
        instance: String,
    },
    /// An instance names an unknown type.
    UnknownType {
        /// Component name.
        component: String,
        /// Instance whose type is unknown.
        instance: String,
        /// The missing type name.
        ty: String,
    },
    /// A binding references an instance not in scope.
    UnknownInstance {
        /// Component name.
        component: String,
        /// The missing instance.
        instance: String,
    },
    /// A binding references a port the target does not declare.
    UnknownPort {
        /// Component name.
        component: String,
        /// The offending reference.
        port: String,
    },
    /// A binding's ends have the wrong polarity.
    Direction {
        /// Component name.
        component: String,
        /// The binding, rendered.
        binding: String,
        /// Which end is wrong.
        detail: &'static str,
    },
    /// Sub-instance bindings form a service-dependency cycle: each instance
    /// in the cycle requires a service the next one provides, so no valid
    /// start-up (or reconfiguration) order exists.
    BindingCycle {
        /// Component whose body contains the cycle.
        component: String,
        /// The cycle, rendered `a -> b -> a`.
        cycle: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::DuplicateComponent(n) => write!(f, "duplicate component `{n}`"),
            AnalysisError::DuplicatePort { component, port } => {
                write!(f, "duplicate port `{port}` on `{component}`")
            }
            AnalysisError::DuplicateInstance { component, instance } => {
                write!(f, "duplicate instance `{instance}` in `{component}`")
            }
            AnalysisError::UnknownType { component, instance, ty } => {
                write!(f, "instance `{instance}` in `{component}` has unknown type `{ty}`")
            }
            AnalysisError::UnknownInstance { component, instance } => {
                write!(f, "binding in `{component}` references unknown instance `{instance}`")
            }
            AnalysisError::UnknownPort { component, port } => {
                write!(f, "binding in `{component}` references unknown port `{port}`")
            }
            AnalysisError::Direction { component, binding, detail } => {
                write!(f, "binding `{binding}` in `{component}`: {detail}")
            }
            AnalysisError::BindingCycle { component, cycle } => {
                write!(f, "binding cycle in `{component}`: {cycle}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Which polarity a port reference has inside a composite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// May *consume* a service: a sub-instance requirement, or the
    /// composite's own provision (which delegates inward).
    Requirement,
    /// May *supply* a service: a sub-instance provision, or the composite's
    /// own requirement (supplied from outside).
    Provision,
    /// Not a port at all.
    Unknown,
}

fn end_of(
    doc: &Document,
    comp: &ComponentDecl,
    scope: &BTreeMap<String, String>,
    r: &PortRef,
) -> End {
    match &r.instance {
        Some(inst) => {
            let Some(ty_name) = scope.get(inst) else { return End::Unknown };
            let Some(ty) = doc.component(ty_name) else { return End::Unknown };
            if ty.requires().contains(&r.port.as_str()) {
                End::Requirement
            } else if ty.provides().contains(&r.port.as_str()) {
                End::Provision
            } else {
                End::Unknown
            }
        }
        None => {
            if comp.provides().contains(&r.port.as_str()) {
                End::Requirement
            } else if comp.requires().contains(&r.port.as_str()) {
                End::Provision
            } else {
                End::Unknown
            }
        }
    }
}

fn check_decls(
    doc: &Document,
    comp: &ComponentDecl,
    decls: &[Decl],
    scope: &mut BTreeMap<String, String>,
    errors: &mut Vec<AnalysisError>,
) {
    // First pass of this block: bring instances into scope so bindings in
    // the same block may reference them regardless of order.
    for d in decls {
        if let Decl::Inst(insts) = d {
            for InstDecl { name, ty } in insts {
                if scope.insert(name.clone(), ty.clone()).is_some() {
                    errors.push(AnalysisError::DuplicateInstance {
                        component: comp.name.clone(),
                        instance: name.clone(),
                    });
                }
                if doc.component(ty).is_none() {
                    errors.push(AnalysisError::UnknownType {
                        component: comp.name.clone(),
                        instance: name.clone(),
                        ty: ty.clone(),
                    });
                }
            }
        }
    }
    for d in decls {
        match d {
            Decl::Bind(binds) => {
                for b in binds {
                    check_binding(doc, comp, scope, b, errors);
                }
            }
            Decl::When { body, .. } => {
                // A when block sees the enclosing scope plus its own
                // instances; its instances do not leak out.
                let mut inner = scope.clone();
                check_decls(doc, comp, body, &mut inner, errors);
            }
            _ => {}
        }
    }
}

fn check_binding(
    doc: &Document,
    comp: &ComponentDecl,
    scope: &BTreeMap<String, String>,
    b: &Binding,
    errors: &mut Vec<AnalysisError>,
) {
    for r in [&b.from, &b.to] {
        if let Some(inst) = &r.instance {
            if !scope.contains_key(inst) {
                errors.push(AnalysisError::UnknownInstance {
                    component: comp.name.clone(),
                    instance: inst.clone(),
                });
                return;
            }
        }
        if end_of(doc, comp, scope, r) == End::Unknown {
            errors.push(AnalysisError::UnknownPort {
                component: comp.name.clone(),
                port: r.to_string(),
            });
            return;
        }
    }
    let rendered = || format!("{} -- {}", b.from, b.to);
    if end_of(doc, comp, scope, &b.from) != End::Requirement {
        errors.push(AnalysisError::Direction {
            component: comp.name.clone(),
            binding: rendered(),
            detail: "left end must be a requirement (or own provision)",
        });
    }
    if end_of(doc, comp, scope, &b.to) != End::Provision {
        errors.push(AnalysisError::Direction {
            component: comp.name.clone(),
            binding: rendered(),
            detail: "right end must be a provision (or own requirement)",
        });
    }
}

/// Collect, per configuration (base declarations, then base plus each
/// `when` block, cumulatively through nesting), the instance-to-instance
/// dependency edges its bindings induce: `a.req -- b.prov` means `a`
/// depends on `b`.
fn binding_edges(
    decls: &[Decl],
    inherited: &[(String, String)],
    out: &mut Vec<Vec<(String, String)>>,
) {
    let mut own: Vec<(String, String)> = inherited.to_vec();
    for d in decls {
        if let Decl::Bind(binds) = d {
            for b in binds {
                if let (Some(from), Some(to)) = (&b.from.instance, &b.to.instance) {
                    own.push((from.clone(), to.clone()));
                }
            }
        }
    }
    out.push(own.clone());
    for d in decls {
        if let Decl::When { body, .. } = d {
            binding_edges(body, &own, out);
        }
    }
}

/// Find one dependency cycle in `edges` (`(a, b)` meaning `a` depends on
/// `b`), rendered `a -> b -> a` starting from the cycle's lexicographically
/// smallest member so reports are deterministic.
///
/// Shared by the document analyser (service-dependency cycles between
/// sub-instances), `compkit`'s reconfiguration-plan linter (binding and
/// lock-order cycles over plan atoms) and the `txn` lock manager
/// (wait-for cycles). Edges may be owned (`String`) or borrowed (`&str`).
#[must_use]
pub fn find_cycle<S: AsRef<str>>(edges: &[(S, S)]) -> Option<String> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges {
        adj.entry(a.as_ref()).or_default().push(b.as_ref());
    }
    #[derive(PartialEq)]
    enum Mark {
        Active,
        Done,
    }
    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        marks: &mut BTreeMap<&'a str, Mark>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        match marks.get(node) {
            Some(Mark::Done) => return None,
            Some(Mark::Active) => {
                let start = stack.iter().position(|&n| n == node).unwrap();
                return Some(stack[start..].iter().map(|s| (*s).to_owned()).collect());
            }
            None => {}
        }
        marks.insert(node, Mark::Active);
        stack.push(node);
        for &next in adj.get(node).into_iter().flatten() {
            if let Some(cycle) = dfs(next, adj, marks, stack) {
                return Some(cycle);
            }
        }
        stack.pop();
        marks.insert(node, Mark::Done);
        None
    }
    let mut marks = BTreeMap::new();
    let mut stack = Vec::new();
    for &node in adj.keys() {
        if let Some(mut cycle) = dfs(node, &adj, &mut marks, &mut stack) {
            let min = cycle.iter().enumerate().min_by_key(|&(_, n)| n).map(|(i, _)| i)?;
            cycle.rotate_left(min);
            cycle.push(cycle[0].clone());
            return Some(cycle.join(" -> "));
        }
    }
    None
}

/// Analyse a document; returns all errors found (empty means well-formed).
///
/// # Errors
/// A non-empty list of every [`AnalysisError`] discovered.
pub fn analyze(doc: &Document) -> Result<(), Vec<AnalysisError>> {
    let mut errors = Vec::new();
    // Duplicate components.
    for (i, c) in doc.components.iter().enumerate() {
        if doc.components[..i].iter().any(|o| o.name == c.name) {
            errors.push(AnalysisError::DuplicateComponent(c.name.clone()));
        }
    }
    for comp in &doc.components {
        // Duplicate ports.
        let mut seen: Vec<&str> = Vec::new();
        for p in comp.provides().into_iter().chain(comp.requires()) {
            if seen.contains(&p) {
                errors.push(AnalysisError::DuplicatePort {
                    component: comp.name.clone(),
                    port: p.to_owned(),
                });
            } else {
                seen.push(p);
            }
        }
        let mut scope = BTreeMap::new();
        check_decls(doc, comp, &comp.body, &mut scope, &mut errors);
        // Service-dependency cycles, per configuration. The same base-level
        // cycle surfaces from every configuration containing it, so dedup by
        // the rendered cycle.
        let mut edge_sets = Vec::new();
        binding_edges(&comp.body, &[], &mut edge_sets);
        let mut reported: Vec<String> = Vec::new();
        for edges in &edge_sets {
            if let Some(cycle) = find_cycle(edges) {
                if !reported.contains(&cycle) {
                    reported.push(cycle.clone());
                    errors
                        .push(AnalysisError::BindingCycle { component: comp.name.clone(), cycle });
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn errs(src: &str) -> Vec<AnalysisError> {
        analyze(&parse(src).unwrap()).err().unwrap_or_default()
    }

    const OK: &str = r"
        component Store { provide pages; require disk; }
        component Disk  { provide block; }
        component Sys {
            provide svc;
            inst s : Store; d : Disk;
            bind svc -- s.pages;
                 s.disk -- d.block;
        }
    ";

    #[test]
    fn well_formed_document_passes() {
        assert!(analyze(&parse(OK).unwrap()).is_ok());
    }

    #[test]
    fn duplicate_component_detected() {
        let e = errs("component A { provide p; } component A { provide q; }");
        assert!(matches!(e[0], AnalysisError::DuplicateComponent(_)));
    }

    #[test]
    fn duplicate_port_detected() {
        let e = errs("component A { provide p; require p; }");
        assert!(matches!(e[0], AnalysisError::DuplicatePort { .. }));
    }

    #[test]
    fn duplicate_instance_detected() {
        let e = errs(
            "component T { provide p; }
             component C { inst x : T; x : T; }",
        );
        assert!(e.iter().any(|x| matches!(x, AnalysisError::DuplicateInstance { .. })));
    }

    #[test]
    fn unknown_type_detected() {
        let e = errs("component C { inst x : Missing; }");
        assert!(matches!(e[0], AnalysisError::UnknownType { .. }));
    }

    #[test]
    fn unknown_instance_in_binding_detected() {
        let e = errs(
            "component T { provide p; }
             component C { inst x : T; bind ghost.q -- x.p; }",
        );
        assert!(matches!(e[0], AnalysisError::UnknownInstance { .. }));
    }

    #[test]
    fn unknown_port_detected() {
        let e = errs(
            "component T { provide p; }
             component C { inst x : T; bind x.nope -- x.p; }",
        );
        assert!(matches!(e[0], AnalysisError::UnknownPort { .. }));
    }

    #[test]
    fn reversed_binding_direction_detected() {
        let e = errs(
            "component S { provide pages; require disk; }
             component D { provide block; }
             component C { inst s : S; d : D; bind d.block -- s.disk; }",
        );
        assert_eq!(e.len(), 2, "both ends have wrong polarity: {e:?}");
        assert!(e.iter().all(|x| matches!(x, AnalysisError::Direction { .. })));
    }

    #[test]
    fn when_block_instances_are_scoped() {
        // `w` is only in scope inside the wireless block.
        let e = errs(
            "component W { provide link; }
             component C { require net0; when wireless { inst w : W; } bind net0 -- w.link; }",
        );
        // Wait: `bind net0 -- w.link` — net0 is a requirement of C used as
        // left end; own requirement is a Provision end, so direction will
        // also complain, but the decisive error is the unknown instance.
        assert!(e.iter().any(|x| matches!(x, AnalysisError::UnknownInstance { .. })));
    }

    #[test]
    fn when_block_binding_may_use_base_instances() {
        let src = "
            component T { provide p; }
            component U { require q; }
            component C {
                inst t : T;
                when m { inst u : U; bind u.q -- t.p; }
            }
        ";
        assert!(analyze(&parse(src).unwrap()).is_ok());
    }

    #[test]
    fn binding_cycle_detected() {
        // a requires from b, b requires from a: no valid start-up order.
        let e = errs(
            "component A { provide pa; require ra; }
             component B { provide pb; require rb; }
             component C {
                 inst a : A; b : B;
                 bind a.ra -- b.pb;
                      b.rb -- a.pa;
             }",
        );
        assert_eq!(
            e,
            vec![AnalysisError::BindingCycle {
                component: "C".into(),
                cycle: "a -> b -> a".into(),
            }]
        );
    }

    #[test]
    fn self_binding_cycle_detected() {
        let e = errs(
            "component A { provide p; require r; }
             component C { inst a : A; bind a.r -- a.p; }",
        );
        assert!(e.iter().any(|x| matches!(
            x,
            AnalysisError::BindingCycle { cycle, .. } if cycle == "a -> a"
        )));
    }

    #[test]
    fn cycle_spanning_base_and_when_block_detected_once() {
        // The cycle only closes in mode m; the base configuration is acyclic.
        let e = errs(
            "component A { provide pa; require ra; }
             component B { provide pb; require rb; }
             component C {
                 inst a : A; b : B;
                 bind a.ra -- b.pb;
                 when m { bind b.rb -- a.pa; }
             }",
        );
        let cycles: Vec<_> =
            e.iter().filter(|x| matches!(x, AnalysisError::BindingCycle { .. })).collect();
        assert_eq!(cycles.len(), 1, "{e:?}");
    }

    #[test]
    fn acyclic_chain_has_no_cycle() {
        assert!(analyze(&parse(OK).unwrap()).is_ok());
        // A diamond is fine too: shared dependency is not a cycle.
        let src = "
            component L { provide p; }
            component M { provide p; require r; }
            component C {
                inst leaf : L; m1 : M; m2 : M;
                bind m1.r -- leaf.p;
                     m2.r -- leaf.p;
            }
        ";
        assert!(analyze(&parse(src).unwrap()).is_ok());
    }

    #[test]
    fn error_messages_render() {
        for e in errs("component A { provide p; } component A { provide p; }") {
            assert!(!e.to_string().is_empty());
        }
    }
}
