//! Property tests for the ADL: printer/parser fixpoint and diff soundness.

use adl::ast::{Binding, ComponentDecl, Decl, Document, PortRef};
use adl::config::Configuration;
use adl::diff::diff;
use adl::parse::parse;
use adl::printer::print_document;
use adm_rng::{run_cases, Pcg32};
use std::collections::{BTreeMap, BTreeSet};

fn ident(rng: &mut Pcg32) -> String {
    let mut s = String::new();
    s.push((b'a' + rng.below(26) as u8) as char);
    for _ in 0..rng.index(9) {
        let c = match rng.below(28) {
            x if x < 26 => (b'a' + x as u8) as char,
            26 => (b'0' + rng.below(10) as u8) as char,
            _ => '_',
        };
        s.push(c);
    }
    // Avoid keywords.
    match s.as_str() {
        "component" | "provide" | "require" | "inst" | "bind" | "when" => format!("{s}x"),
        _ => s,
    }
}

fn idents(rng: &mut Pcg32, lo: usize, hi: usize) -> Vec<String> {
    (0..rng.index(hi - lo) + lo).map(|_| ident(rng)).collect()
}

fn portref(rng: &mut Pcg32) -> PortRef {
    let instance = rng.chance(0.5).then(|| ident(rng));
    PortRef { instance, port: ident(rng) }
}

fn decl(rng: &mut Pcg32, depth: u32) -> Decl {
    let leaf = |rng: &mut Pcg32| match rng.below(4) {
        0 => Decl::Provide(idents(rng, 1, 4)),
        1 => Decl::Require(idents(rng, 1, 4)),
        2 => Decl::Inst(
            (0..rng.index(3) + 1)
                .map(|_| adl::ast::InstDecl { name: ident(rng), ty: ident(rng) })
                .collect(),
        ),
        _ => Decl::Bind(
            (0..rng.index(3) + 1)
                .map(|_| Binding { from: portref(rng), to: portref(rng) })
                .collect(),
        ),
    };
    if depth > 0 && rng.chance(0.25) {
        let mode = ident(rng);
        let body = (0..rng.index(4)).map(|_| decl(rng, depth - 1)).collect();
        Decl::When { mode, body }
    } else {
        leaf(rng)
    }
}

fn document(rng: &mut Pcg32) -> Document {
    let components = (0..rng.index(5))
        .map(|_| ComponentDecl {
            name: ident(rng),
            body: (0..rng.index(6)).map(|_| decl(rng, 2)).collect(),
        })
        .collect();
    Document { components }
}

fn configuration(rng: &mut Pcg32) -> Configuration {
    let instances: BTreeMap<String, String> =
        (0..rng.index(10)).map(|_| (ident(rng), ident(rng))).collect();
    let binds: BTreeSet<(PortRef, PortRef)> =
        (0..rng.index(10)).map(|_| (portref(rng), portref(rng))).collect();
    Configuration {
        instances,
        bindings: binds.into_iter().map(|(from, to)| Binding { from, to }).collect(),
    }
}

/// Printing any AST and reparsing it yields the same AST — the printer
/// and parser agree on the whole language, including nested `when`s.
#[test]
fn print_parse_fixpoint() {
    run_cases(0xad1, 512, |rng| {
        let doc = document(rng);
        let printed = print_document(&doc);
        let reparsed = parse(&printed);
        assert_eq!(reparsed.as_ref().ok(), Some(&doc), "printed:\n{printed}");
    });
}

/// diff(a, b).apply(a) == b for arbitrary configurations — the
/// Adaptivity Manager's plan always reaches the target architecture.
#[test]
fn diff_apply_reaches_target() {
    run_cases(0xad2, 512, |rng| {
        let (a, b) = (configuration(rng), configuration(rng));
        let plan = diff(&a, &b);
        assert_eq!(plan.apply(&a), b);
    });
}

/// The inverse plan restores the source — the "back off" guarantee.
#[test]
fn diff_inverse_restores_source() {
    run_cases(0xad3, 512, |rng| {
        let (a, b) = (configuration(rng), configuration(rng));
        let plan = diff(&a, &b);
        let reached = plan.apply(&a);
        assert_eq!(plan.inverse().apply(&reached), a);
    });
}

/// Self-diff is empty, and plan size is bounded by the symmetric
/// difference of the two configurations.
#[test]
fn diff_is_minimal() {
    run_cases(0xad4, 512, |rng| {
        let (a, b) = (configuration(rng), configuration(rng));
        assert!(diff(&a, &a).is_empty());
        let plan = diff(&a, &b);
        let inst_sym: usize = {
            let ka: BTreeMap<_, _> = a.instances.clone().into_iter().collect();
            let kb: BTreeMap<_, _> = b.instances.clone().into_iter().collect();
            ka.iter().filter(|(k, v)| kb.get(*k) != Some(v)).count()
                + kb.iter().filter(|(k, v)| ka.get(*k) != Some(v)).count()
        };
        let bind_sym: usize = {
            let sa: BTreeSet<_> = a.bindings.iter().collect();
            let sb: BTreeSet<_> = b.bindings.iter().collect();
            sa.symmetric_difference(&sb).count()
        };
        assert_eq!(plan.len(), inst_sym + bind_sym);
    });
}

/// Deep flattening never panics: for arbitrary (even ill-formed)
/// documents it returns a configuration or a structured error.
#[test]
fn flatten_deep_is_total() {
    run_cases(0xad5, 512, |rng| {
        let doc = document(rng);
        for comp in &doc.components {
            let _ = adl::hierarchy::flatten_deep(&doc, &comp.name, &[]);
        }
    });
}

/// On analysed documents, deep flattening of a composite with no nested
/// composites agrees with shallow flattening.
#[test]
fn flatten_deep_extends_flatten() {
    run_cases(0xad6, 512, |rng| {
        let doc = document(rng);
        if adl::analysis::analyze(&doc).is_err() {
            return;
        }
        for comp in &doc.components {
            let has_composite_child = comp.body.iter().any(|d| match d {
                adl::ast::Decl::Inst(is) => is.iter().any(|i| {
                    doc.component(&i.ty).is_some_and(adl::ast::ComponentDecl::is_composite)
                }),
                _ => false,
            });
            if has_composite_child {
                continue;
            }
            let deep = adl::hierarchy::flatten_deep(&doc, &comp.name, &[]);
            let shallow = adl::config::flatten(&doc, &comp.name, &[]);
            if let (Ok(d), Ok(s)) = (deep, shallow) {
                assert_eq!(d.instances, s.instances);
            }
        }
    });
}
