//! The live component runtime: instances, bindings, and the factory that
//! creates (and can fail to create) components.
//!
//! The runtime's shape mirrors an `adl::Configuration` so the Session
//! Manager can diff "what is running" against "what should run". Each live
//! component carries opaque state bytes so stopping, migrating and
//! restarting preserve "not only the data state, but also the processing
//! state" (Table 2's `SWITCH` discussion).

use adl::ast::Binding;
use adl::config::Configuration;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why component creation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateError {
    /// The component that could not be created.
    pub name: String,
    /// Why.
    pub reason: String,
}

impl fmt::Display for CreateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot create `{}`: {}", self.name, self.reason)
    }
}

impl std::error::Error for CreateError {}

/// A live component instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveComponent {
    /// Its component type name.
    pub ty: String,
    /// Opaque processing/data state (snapshot-able for migration).
    pub state: Vec<u8>,
    /// Tick at which it was started.
    pub started_at: u64,
}

/// Creates live components by (name, type). Implementations may draw on a
/// component repository, the network ("can be retrieved off the network"),
/// or — in tests — inject failures.
pub trait ComponentFactory {
    /// Create a component.
    ///
    /// # Errors
    /// [`CreateError`] when the component cannot be built (missing image,
    /// no memory, network unreachable...).
    fn create(&mut self, name: &str, ty: &str, now: u64) -> Result<LiveComponent, CreateError>;
}

/// The default factory: always succeeds with empty state.
#[derive(Debug, Clone, Default)]
pub struct BasicFactory;

impl ComponentFactory for BasicFactory {
    fn create(&mut self, _name: &str, ty: &str, now: u64) -> Result<LiveComponent, CreateError> {
        Ok(LiveComponent { ty: ty.to_owned(), state: Vec::new(), started_at: now })
    }
}

/// A factory that fails for a chosen set of component names — failure
/// injection for the transactional-switch tests.
#[derive(Debug, Clone, Default)]
pub struct FlakyFactory {
    /// Names that fail to create.
    pub failing: BTreeSet<String>,
    inner: BasicFactory,
}

impl FlakyFactory {
    /// Fail creation for the given names.
    #[must_use]
    pub fn failing<I: IntoIterator<Item = S>, S: Into<String>>(names: I) -> Self {
        Self { failing: names.into_iter().map(Into::into).collect(), inner: BasicFactory }
    }
}

impl ComponentFactory for FlakyFactory {
    fn create(&mut self, name: &str, ty: &str, now: u64) -> Result<LiveComponent, CreateError> {
        if self.failing.contains(name) {
            return Err(CreateError { name: name.to_owned(), reason: "injected failure".into() });
        }
        self.inner.create(name, ty, now)
    }
}

/// The running system: live components and the bindings between them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Runtime {
    instances: BTreeMap<String, LiveComponent>,
    bindings: BTreeSet<Binding>,
}

/// Errors from direct runtime mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The named instance does not exist.
    NoSuchInstance(String),
    /// A binding endpoint's instance does not exist.
    DanglingEndpoint(String),
    /// The binding already exists / does not exist.
    BindingState(Binding),
    /// An instance with that name already runs.
    AlreadyRunning(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NoSuchInstance(n) => write!(f, "no such instance `{n}`"),
            RuntimeError::DanglingEndpoint(n) => {
                write!(f, "binding endpoint instance `{n}` does not exist")
            }
            RuntimeError::BindingState(b) => write!(f, "bad binding state: {} -- {}", b.from, b.to),
            RuntimeError::AlreadyRunning(n) => write!(f, "instance `{n}` already running"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl Runtime {
    /// An empty runtime.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Start (install) a component.
    ///
    /// # Errors
    /// [`RuntimeError::AlreadyRunning`].
    pub fn start(&mut self, name: &str, comp: LiveComponent) -> Result<(), RuntimeError> {
        if self.instances.contains_key(name) {
            return Err(RuntimeError::AlreadyRunning(name.to_owned()));
        }
        self.instances.insert(name.to_owned(), comp);
        Ok(())
    }

    /// Stop a component, returning it (with its state) for archival.
    ///
    /// # Errors
    /// [`RuntimeError::NoSuchInstance`].
    pub fn stop(&mut self, name: &str) -> Result<LiveComponent, RuntimeError> {
        self.instances.remove(name).ok_or_else(|| RuntimeError::NoSuchInstance(name.to_owned()))
    }

    /// Establish a binding. Both endpoint instances must exist (a `None`
    /// instance endpoint refers to the composite itself and always exists).
    ///
    /// # Errors
    /// [`RuntimeError::DanglingEndpoint`] or [`RuntimeError::BindingState`]
    /// if already bound.
    pub fn bind(&mut self, b: Binding) -> Result<(), RuntimeError> {
        for end in [&b.from, &b.to] {
            if let Some(inst) = &end.instance {
                if !self.instances.contains_key(inst) {
                    return Err(RuntimeError::DanglingEndpoint(inst.clone()));
                }
            }
        }
        if !self.bindings.insert(b.clone()) {
            return Err(RuntimeError::BindingState(b));
        }
        Ok(())
    }

    /// Remove a binding.
    ///
    /// # Errors
    /// [`RuntimeError::BindingState`] if not bound.
    pub fn unbind(&mut self, b: &Binding) -> Result<(), RuntimeError> {
        if self.bindings.remove(b) {
            Ok(())
        } else {
            Err(RuntimeError::BindingState(b.clone()))
        }
    }

    /// The runtime's shape as an ADL configuration (for diffing).
    #[must_use]
    pub fn configuration(&self) -> Configuration {
        Configuration {
            instances: self.instances.iter().map(|(n, c)| (n.clone(), c.ty.clone())).collect(),
            bindings: self.bindings.clone(),
        }
    }

    /// Access a live component.
    #[must_use]
    pub fn component(&self, name: &str) -> Option<&LiveComponent> {
        self.instances.get(name)
    }

    /// Mutable access to a live component (to evolve its state).
    pub fn component_mut(&mut self, name: &str) -> Option<&mut LiveComponent> {
        self.instances.get_mut(name)
    }

    /// Names of live instances.
    pub fn instance_names(&self) -> impl Iterator<Item = &str> {
        self.instances.keys().map(String::as_str)
    }

    /// Current bindings.
    #[must_use]
    pub fn bindings(&self) -> &BTreeSet<Binding> {
        &self.bindings
    }

    /// Number of live instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether nothing runs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Deterministic digest of the live state: FNV-1a of one
    /// `name:type@started_at=hex-state` line per instance, then one
    /// `from -- to` line per binding, both in sorted order.
    #[must_use]
    pub fn digest(&self) -> u64 {
        use fmt::Write as _;
        let mut h = obs::Fnv1aSink::default();
        const HEX: &[u8; 16] = b"0123456789abcdef";
        for (name, c) in &self.instances {
            let _ = write!(h, "{name}:{}@{}=", c.ty, c.started_at);
            for b in &c.state {
                h.update(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]);
            }
            h.update(b"\n");
        }
        for b in &self.bindings {
            let _ = writeln!(h, "{} -- {}", b.from, b.to);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adl::ast::PortRef;

    fn live(ty: &str) -> LiveComponent {
        LiveComponent { ty: ty.to_owned(), state: vec![], started_at: 0 }
    }

    fn binding(fi: &str, fp: &str, ti: &str, tp: &str) -> Binding {
        Binding { from: PortRef::on(fi, fp), to: PortRef::on(ti, tp) }
    }

    #[test]
    fn digest_hashes_the_sorted_text_form() {
        let mut rt = Runtime::new();
        rt.start("b", LiveComponent { ty: "U".into(), state: vec![0x0f, 0xa0, 0], started_at: 7 })
            .unwrap();
        rt.start("a", live("T")).unwrap();
        let b = binding("a", "p", "b", "q");
        rt.bind(b.clone()).unwrap();
        let text = format!("a:T@0=\nb:U@7=0fa000\n{} -- {}\n", b.from, b.to);
        assert_eq!(rt.digest(), obs::fnv1a(text.as_bytes()));
    }

    #[test]
    fn start_stop_cycle() {
        let mut rt = Runtime::new();
        rt.start("a", live("T")).unwrap();
        assert_eq!(rt.start("a", live("T")), Err(RuntimeError::AlreadyRunning("a".into())));
        assert_eq!(rt.len(), 1);
        let stopped = rt.stop("a").unwrap();
        assert_eq!(stopped.ty, "T");
        assert!(rt.is_empty());
        assert!(matches!(rt.stop("a"), Err(RuntimeError::NoSuchInstance(_))));
    }

    #[test]
    fn bind_requires_live_endpoints() {
        let mut rt = Runtime::new();
        rt.start("a", live("T")).unwrap();
        let b = binding("a", "p", "ghost", "q");
        assert_eq!(rt.bind(b), Err(RuntimeError::DanglingEndpoint("ghost".into())));
        rt.start("ghost", live("U")).unwrap();
        assert!(rt.bind(binding("a", "p", "ghost", "q")).is_ok());
    }

    #[test]
    fn own_port_endpoints_always_exist() {
        let mut rt = Runtime::new();
        rt.start("a", live("T")).unwrap();
        let b = Binding { from: PortRef::own("svc"), to: PortRef::on("a", "p") };
        assert!(rt.bind(b).is_ok());
    }

    #[test]
    fn double_bind_and_missing_unbind_error() {
        let mut rt = Runtime::new();
        rt.start("a", live("T")).unwrap();
        rt.start("b", live("U")).unwrap();
        let b = binding("a", "p", "b", "q");
        rt.bind(b.clone()).unwrap();
        assert!(matches!(rt.bind(b.clone()), Err(RuntimeError::BindingState(_))));
        rt.unbind(&b).unwrap();
        assert!(matches!(rt.unbind(&b), Err(RuntimeError::BindingState(_))));
    }

    #[test]
    fn configuration_reflects_runtime() {
        let mut rt = Runtime::new();
        rt.start("a", live("T")).unwrap();
        rt.start("b", live("U")).unwrap();
        rt.bind(binding("a", "p", "b", "q")).unwrap();
        let cfg = rt.configuration();
        assert_eq!(cfg.instances["a"], "T");
        assert_eq!(cfg.bindings.len(), 1);
    }

    #[test]
    fn flaky_factory_fails_selectively() {
        let mut f = FlakyFactory::failing(["bad"]);
        assert!(f.create("good", "T", 0).is_ok());
        assert!(f.create("bad", "T", 0).is_err());
    }

    #[test]
    fn component_state_is_mutable() {
        let mut rt = Runtime::new();
        rt.start("a", live("T")).unwrap();
        rt.component_mut("a").unwrap().state.extend_from_slice(b"progress");
        assert_eq!(rt.component("a").unwrap().state, b"progress");
    }
}
