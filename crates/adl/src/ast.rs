//! Abstract syntax for the Darwin-style ADL.
//!
//! A document is a set of component declarations. Primitive components only
//! declare ports; composite components also instantiate sub-components and
//! bind requirements to provisions. `when <mode>` blocks hold the
//! configuration deltas the paper's Figure 5 switches between (docked vs
//! wireless sessions).

/// A reference to a port: either a port of the enclosing composite
/// (`instance: None`) or a port on a named sub-instance (`inst.port`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortRef {
    /// The sub-instance name, or `None` for the composite's own port.
    pub instance: Option<String>,
    /// The port name.
    pub port: String,
}

impl PortRef {
    /// A port on the composite itself.
    #[must_use]
    pub fn own(port: &str) -> Self {
        Self { instance: None, port: port.to_owned() }
    }

    /// A port on a sub-instance.
    #[must_use]
    pub fn on(instance: &str, port: &str) -> Self {
        Self { instance: Some(instance.to_owned()), port: port.to_owned() }
    }
}

impl std::fmt::Display for PortRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.instance {
            Some(i) => write!(f, "{i}.{}", self.port),
            None => write!(f, "{}", self.port),
        }
    }
}

/// A binding: a required service wired to a provided service.
/// Darwin draws this as an empty circle connected to a filled circle.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Binding {
    /// The requiring end.
    pub from: PortRef,
    /// The providing end.
    pub to: PortRef,
}

/// An instance declaration: `name : Type;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstDecl {
    /// Instance name, unique within the composite.
    pub name: String,
    /// Component type name.
    pub ty: String,
}

/// One declaration inside a component body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decl {
    /// `provide a, b;`
    Provide(Vec<String>),
    /// `require a, b;`
    Require(Vec<String>),
    /// `inst x : T; y : U;`
    Inst(Vec<InstDecl>),
    /// `bind a.x -- b.y; ...`
    Bind(Vec<Binding>),
    /// `when mode { ... }` — a guarded configuration delta.
    When {
        /// Mode name (e.g. `docked`, `wireless`).
        mode: String,
        /// Declarations active only in that mode.
        body: Vec<Decl>,
    },
}

/// A component declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDecl {
    /// Type name.
    pub name: String,
    /// Body declarations in source order.
    pub body: Vec<Decl>,
}

impl ComponentDecl {
    /// All provided port names (unconditional declarations only).
    #[must_use]
    pub(crate) fn provides(&self) -> Vec<&str> {
        self.body
            .iter()
            .filter_map(|d| match d {
                Decl::Provide(ps) => Some(ps.iter().map(String::as_str)),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// All required port names (unconditional declarations only).
    #[must_use]
    pub(crate) fn requires(&self) -> Vec<&str> {
        self.body
            .iter()
            .filter_map(|d| match d {
                Decl::Require(rs) => Some(rs.iter().map(String::as_str)),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// Whether the component has any `inst` declarations (i.e. is composite).
    #[must_use]
    pub fn is_composite(&self) -> bool {
        fn has_inst(decls: &[Decl]) -> bool {
            decls.iter().any(|d| match d {
                Decl::Inst(_) => true,
                Decl::When { body, .. } => has_inst(body),
                _ => false,
            })
        }
        has_inst(&self.body)
    }

    /// Mode names declared by `when` blocks, in source order, deduplicated.
    #[must_use]
    pub fn modes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for d in &self.body {
            if let Decl::When { mode, .. } = d {
                if !out.contains(&mode.as_str()) {
                    out.push(mode);
                }
            }
        }
        out
    }
}

/// A parsed document: all component declarations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Document {
    /// Components in source order.
    pub components: Vec<ComponentDecl>,
}

impl Document {
    /// Find a component by name.
    #[must_use]
    pub fn component(&self, name: &str) -> Option<&ComponentDecl> {
        self.components.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ComponentDecl {
        ComponentDecl {
            name: "C".into(),
            body: vec![
                Decl::Provide(vec!["p".into()]),
                Decl::Require(vec!["q".into(), "r".into()]),
                Decl::When {
                    mode: "docked".into(),
                    body: vec![Decl::Inst(vec![InstDecl { name: "e".into(), ty: "Eth".into() }])],
                },
                Decl::When { mode: "wireless".into(), body: vec![] },
                Decl::When { mode: "docked".into(), body: vec![] },
            ],
        }
    }

    #[test]
    fn provides_and_requires_collect() {
        let c = sample();
        assert_eq!(c.provides(), vec!["p"]);
        assert_eq!(c.requires(), vec!["q", "r"]);
    }

    #[test]
    fn composite_detection_sees_inside_when() {
        let c = sample();
        assert!(c.is_composite());
        let prim = ComponentDecl { name: "P".into(), body: vec![Decl::Provide(vec!["x".into()])] };
        assert!(!prim.is_composite());
    }

    #[test]
    fn modes_dedupe_in_order() {
        assert_eq!(sample().modes(), vec!["docked", "wireless"]);
    }

    #[test]
    fn portref_display() {
        assert_eq!(PortRef::own("net").to_string(), "net");
        assert_eq!(PortRef::on("fs", "pages").to_string(), "fs.pages");
    }
}
