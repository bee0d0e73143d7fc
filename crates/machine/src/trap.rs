//! Trap vector and mode-crossing accounting.
//!
//! Trap-based kernels (BSD, Mach, L4) enter the kernel through a hardware
//! trap: the CPU flushes its pipeline, switches to the kernel stack, and
//! vectors through a table. SISR's whole point is to make this machinery
//! unnecessary for component invocation — Go! has *no* processor-mode split,
//! so this module is only exercised by the comparator kernels.

use crate::cost::{CostModel, CycleCounter, Primitive};

/// A trap vector: maps syscall/interrupt numbers to handler identifiers,
/// and charges the hardware's entry/exit costs.
#[derive(Debug, Clone, Default)]
pub struct TrapVector {
    handlers: Vec<(u8, &'static str)>,
}

impl TrapVector {
    /// An empty vector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a handler name for a vector number.
    pub fn install(&mut self, vector: u8, handler: &'static str) {
        if let Some(slot) = self.handlers.iter_mut().find(|(v, _)| *v == vector) {
            slot.1 = handler;
        } else {
            self.handlers.push((vector, handler));
        }
    }

    /// Look up the handler for a vector number.
    #[must_use]
    pub fn handler(&self, vector: u8) -> Option<&'static str> {
        self.handlers.iter().find(|(v, _)| *v == vector).map(|(_, h)| *h)
    }

    /// Charge the hardware cost of entering a trap handler.
    pub fn charge_enter(counter: &mut CycleCounter, model: &CostModel) {
        counter.charge(Primitive::TrapEnter, model);
    }

    /// Charge the hardware cost of returning from a trap handler.
    pub fn charge_exit(counter: &mut CycleCounter, model: &CostModel) {
        counter.charge(Primitive::TrapExit, model);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_lookup() {
        let mut v = TrapVector::new();
        v.install(0x30, "ipc");
        v.install(0x80, "syscall");
        assert_eq!(v.handler(0x30), Some("ipc"));
        assert_eq!(v.handler(0x80), Some("syscall"));
        assert_eq!(v.handler(0x00), None);
    }

    #[test]
    fn reinstall_replaces() {
        let mut v = TrapVector::new();
        v.install(1, "a");
        v.install(1, "b");
        assert_eq!(v.handler(1), Some("b"));
    }
}
