//! Pretty-printer: render an AST back to parseable source.
//!
//! `parse(print(doc)) == doc` is a property test in `tests/adl_props.rs` —
//! the fixpoint that guarantees the printer and parser agree on the
//! language.

use crate::ast::{Binding, ComponentDecl, Decl, Document};
use std::fmt::Write as _;

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn print_binding(out: &mut String, b: &Binding) {
    let _ = write!(out, "{} -- {};", b.from, b.to);
}

fn print_decl(out: &mut String, d: &Decl, depth: usize) {
    match d {
        Decl::Provide(ps) => {
            indent(out, depth);
            let _ = writeln!(out, "provide {};", ps.join(", "));
        }
        Decl::Require(rs) => {
            indent(out, depth);
            let _ = writeln!(out, "require {};", rs.join(", "));
        }
        Decl::Inst(insts) => {
            indent(out, depth);
            out.push_str("inst ");
            for (i, inst) in insts.iter().enumerate() {
                if i > 0 {
                    out.push('\n');
                    indent(out, depth + 1);
                }
                let _ = write!(out, "{} : {};", inst.name, inst.ty);
            }
            out.push('\n');
        }
        Decl::Bind(binds) => {
            indent(out, depth);
            out.push_str("bind ");
            for (i, b) in binds.iter().enumerate() {
                if i > 0 {
                    out.push('\n');
                    indent(out, depth + 1);
                }
                print_binding(out, b);
            }
            out.push('\n');
        }
        Decl::When { mode, body } => {
            indent(out, depth);
            let _ = writeln!(out, "when {mode} {{");
            for inner in body {
                print_decl(out, inner, depth + 1);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
    }
}

/// Render one component declaration.
#[must_use]
pub(crate) fn print_component(c: &ComponentDecl) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "component {} {{", c.name);
    for d in &c.body {
        print_decl(&mut out, d, 1);
    }
    out.push_str("}\n");
    out
}

/// Render a whole document.
#[must_use]
pub fn print_document(doc: &Document) -> String {
    let mut out = String::new();
    for (i, c) in doc.components.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&print_component(c));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    const SRC: &str = r"
        component SM { provide session; require plan, monitors; }
        component Mobile {
            provide query;
            inst sm : SM;
            bind query -- sm.session;
            when docked { inst e : SM; bind e.plan -- sm.session; }
        }
    ";

    #[test]
    fn print_parse_fixpoint_on_sample() {
        let doc = parse(SRC).unwrap();
        let printed = print_document(&doc);
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn printed_source_is_indented() {
        let doc = parse(SRC).unwrap();
        let printed = print_document(&doc);
        assert!(printed.contains("    provide"));
        assert!(printed.contains("when docked {"));
    }
}
