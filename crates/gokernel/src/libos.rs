//! The library OS: kernel services as ordinary Go! components.
//!
//! > "A truly component-based OS can be seen as a *zero-kernel* system,
//! > where the kernel has been replaced by a set of components that
//! > cooperate to provide services usually found in traditional kernels."
//!
//! > "ideally any service that has nothing to do with component management
//! > (e.g. interrupt and device management) would be handled outside that
//! > core."
//!
//! The only privileged citizen is the ORB; the scheduler, the memory
//! manager and the interrupt dispatcher below are *components*: their text
//! is SISR-verified, they live in their own segments, and every call to
//! them is an ORB thread-migration RPC paying the Table 1 Go! price
//! (~70 cycles) — not a trap. Their service semantics execute natively in
//! the simulator (the standard device-model compromise), but the protection
//! and invocation costs are the real ORB path, charged per call.

use crate::component::{ComponentId, InterfaceId, Rights};
use crate::orb::{Orb, OrbError};
use machine::cost::{CostModel, Cycles};
use machine::isa::{Instr, Program};
use std::collections::VecDeque;

/// A thread known to the scheduler component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

/// The zero-kernel service suite.
#[derive(Debug)]
pub struct LibOs {
    orb: Orb,
    client: ComponentId,
    sched_iface: InterfaceId,
    mem_iface: InterfaceId,
    irq_iface: InterfaceId,
    // Native service state (the components' data segments, modelled).
    runq: VecDeque<ThreadId>,
    free_list: Vec<(u32, u32)>,
    allocated: Vec<(u32, u32)>,
    irq_handlers: Vec<(u8, InterfaceId)>,
    service_cycles: Cycles,
}

/// Library-OS errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibOsError {
    /// Underlying ORB failure.
    Orb(OrbError),
    /// Out of heap.
    OutOfMemory {
        /// Bytes requested.
        requested: u32,
    },
    /// Freeing a region that was never allocated.
    BadFree {
        /// Offending base address.
        base: u32,
    },
    /// No handler registered for the vector.
    NoHandler(u8),
}

impl From<OrbError> for LibOsError {
    fn from(e: OrbError) -> Self {
        LibOsError::Orb(e)
    }
}

impl LibOs {
    /// Boot a zero-kernel system: an ORB, a client component, and the three
    /// service components with published interfaces.
    ///
    /// # Panics
    /// Never: boot uses known-good verified programs.
    #[must_use]
    pub fn boot(model: CostModel, heap_bytes: u32) -> Self {
        let mut orb = Orb::new(8 << 20, model);
        let stub = Program::new(vec![Instr::Halt]).to_bytes();
        let client_ty = orb.load_type("client", &stub).expect("stub verifies");
        let sched_ty = orb.load_type("scheduler", &stub).expect("stub verifies");
        let mem_ty = orb.load_type("memory-manager", &stub).expect("stub verifies");
        let irq_ty = orb.load_type("interrupt-dispatcher", &stub).expect("stub verifies");
        let client = orb.instantiate(client_ty).expect("arena");
        let sched = orb.instantiate(sched_ty).expect("arena");
        let mem = orb.instantiate(mem_ty).expect("arena");
        let irq = orb.instantiate(irq_ty).expect("arena");
        let sched_iface = orb.publish(sched, 0, Rights::PUBLIC, 1).expect("publish");
        let mem_iface = orb.publish(mem, 0, Rights::PUBLIC, 2).expect("publish");
        let irq_iface = orb.publish(irq, 0, Rights::PUBLIC, 1).expect("publish");
        Self {
            orb,
            client,
            sched_iface,
            mem_iface,
            irq_iface,
            runq: VecDeque::new(),
            free_list: vec![(0, heap_bytes)],
            allocated: Vec::new(),
            irq_handlers: Vec::new(),
            service_cycles: 0,
        }
    }

    /// Total cycles spent *invoking* services (the componentisation cost).
    #[must_use]
    pub fn service_cycles(&self) -> Cycles {
        self.service_cycles
    }

    /// The underlying ORB (e.g. for protection-byte accounting).
    #[must_use]
    pub fn orb(&self) -> &Orb {
        &self.orb
    }

    fn call(&mut self, iface: InterfaceId, args: &[u32]) -> Result<(), LibOsError> {
        let out = self.orb.invoke(self.client, iface, args)?;
        self.service_cycles += out.cycles;
        Ok(())
    }

    // ---- scheduler component ------------------------------------------

    /// Make a thread runnable.
    ///
    /// # Errors
    /// Only on ORB faults (never for the built-in configuration).
    pub fn sched_add(&mut self, t: ThreadId) -> Result<(), LibOsError> {
        self.call(self.sched_iface, &[t.0])?;
        if !self.runq.contains(&t) {
            self.runq.push_back(t);
        }
        Ok(())
    }

    /// Yield: rotate the queue and return the next thread to run.
    ///
    /// # Errors
    /// ORB faults only.
    pub fn sched_yield(&mut self, current: ThreadId) -> Result<Option<ThreadId>, LibOsError> {
        self.call(self.sched_iface, &[current.0])?;
        if let Some(pos) = self.runq.iter().position(|&t| t == current) {
            let t = self.runq.remove(pos).expect("position valid");
            self.runq.push_back(t);
        }
        Ok(self.runq.front().copied())
    }

    // ---- memory-manager component --------------------------------------

    /// Allocate `bytes` from the component heap (first-fit free list).
    ///
    /// # Errors
    /// [`LibOsError::OutOfMemory`] when no region fits.
    pub fn alloc(&mut self, bytes: u32) -> Result<u32, LibOsError> {
        self.call(self.mem_iface, &[bytes, 0])?;
        let idx = self
            .free_list
            .iter()
            .position(|&(_, len)| len >= bytes)
            .ok_or(LibOsError::OutOfMemory { requested: bytes })?;
        let (base, len) = self.free_list[idx];
        if len == bytes {
            self.free_list.remove(idx);
        } else {
            self.free_list[idx] = (base + bytes, len - bytes);
        }
        self.allocated.push((base, bytes));
        Ok(base)
    }

    /// Free a previously allocated region (coalescing adjacent free space).
    ///
    /// # Errors
    /// [`LibOsError::BadFree`] for unknown regions.
    pub fn free(&mut self, base: u32) -> Result<(), LibOsError> {
        self.call(self.mem_iface, &[base, 1])?;
        let idx = self
            .allocated
            .iter()
            .position(|&(b, _)| b == base)
            .ok_or(LibOsError::BadFree { base })?;
        let (b, len) = self.allocated.remove(idx);
        self.free_list.push((b, len));
        self.free_list.sort_unstable();
        // Coalesce.
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.free_list.len());
        for &(b, l) in &self.free_list {
            match merged.last_mut() {
                Some((pb, pl)) if *pb + *pl == b => *pl += l,
                _ => merged.push((b, l)),
            }
        }
        self.free_list = merged;
        Ok(())
    }

    /// Free heap bytes remaining.
    #[must_use]
    pub fn free_bytes(&self) -> u32 {
        self.free_list.iter().map(|&(_, l)| l).sum()
    }

    // ---- interrupt-dispatcher component ---------------------------------

    /// Register a driver component's interface as the handler for a vector.
    ///
    /// # Errors
    /// ORB faults only.
    pub fn irq_register(&mut self, vector: u8, handler: InterfaceId) -> Result<(), LibOsError> {
        self.call(self.irq_iface, &[u32::from(vector)])?;
        self.irq_handlers.retain(|&(v, _)| v != vector);
        self.irq_handlers.push((vector, handler));
        Ok(())
    }

    /// Deliver a hardware interrupt: the dispatcher migrates the interrupt
    /// thread into the registered driver component — two ORB hops, zero
    /// traps.
    ///
    /// # Errors
    /// [`LibOsError::NoHandler`] for unregistered vectors; ORB faults.
    pub fn irq_deliver(&mut self, vector: u8) -> Result<u32, LibOsError> {
        self.call(self.irq_iface, &[u32::from(vector)])?;
        let handler = self
            .irq_handlers
            .iter()
            .find(|&&(v, _)| v == vector)
            .map(|&(_, h)| h)
            .ok_or(LibOsError::NoHandler(vector))?;
        let out = self.orb.invoke(self.client, handler, &[])?;
        self.service_cycles += out.cycles;
        Ok(out.result)
    }

    /// Publish a new driver component whose handler returns `result`.
    ///
    /// # Errors
    /// ORB faults (e.g. a rejected image).
    pub fn install_driver(&mut self, name: &str, result: u32) -> Result<InterfaceId, LibOsError> {
        let text = Program::new(vec![Instr::MovImm(0, result), Instr::Halt]).to_bytes();
        let ty = self.orb.load_type(name, &text)?;
        let inst = self.orb.instantiate(ty)?;
        Ok(self.orb.publish(inst, 0, Rights::PUBLIC, 0)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn libos() -> LibOs {
        LibOs::boot(CostModel::pentium(), 1 << 16)
    }

    #[test]
    fn scheduler_is_round_robin_and_fair() {
        let mut os = libos();
        for t in 0..3 {
            os.sched_add(ThreadId(t)).unwrap();
        }
        // Yielding from 0 puts it at the back; next is 1, then 2, then 0.
        assert_eq!(os.sched_yield(ThreadId(0)).unwrap(), Some(ThreadId(1)));
        assert_eq!(os.sched_yield(ThreadId(1)).unwrap(), Some(ThreadId(2)));
        assert_eq!(os.sched_yield(ThreadId(2)).unwrap(), Some(ThreadId(0)));
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let mut os = libos();
        os.sched_add(ThreadId(7)).unwrap();
        os.sched_add(ThreadId(7)).unwrap();
        assert_eq!(os.runq.len(), 1);
    }

    #[test]
    fn allocator_first_fit_free_and_coalesce() {
        let mut os = libos();
        let total = os.free_bytes();
        let a = os.alloc(100).unwrap();
        let b = os.alloc(200).unwrap();
        let c = os.alloc(50).unwrap();
        assert!(a < b && b < c);
        assert_eq!(os.free_bytes(), total - 350);
        os.free(b).unwrap();
        os.free(a).unwrap();
        os.free(c).unwrap();
        assert_eq!(os.free_bytes(), total);
        // Fully coalesced: one region serving a big allocation again.
        let big = os.alloc(total).unwrap();
        assert_eq!(big, 0);
    }

    #[test]
    fn allocator_errors() {
        let mut os = libos();
        assert!(matches!(os.alloc(1 << 30), Err(LibOsError::OutOfMemory { .. })));
        assert_eq!(os.free(12345), Err(LibOsError::BadFree { base: 12345 }));
    }

    #[test]
    fn interrupts_dispatch_to_driver_components_without_traps() {
        let mut os = libos();
        let eth = os.install_driver("eth-driver", 0xE0).unwrap();
        let disk = os.install_driver("disk-driver", 0xD0).unwrap();
        os.irq_register(0x21, eth).unwrap();
        os.irq_register(0x22, disk).unwrap();
        assert_eq!(os.irq_deliver(0x21).unwrap(), 0xE0);
        assert_eq!(os.irq_deliver(0x22).unwrap(), 0xD0);
        assert_eq!(os.irq_deliver(0x30), Err(LibOsError::NoHandler(0x30)));
        // Re-registration replaces the handler.
        os.irq_register(0x21, disk).unwrap();
        assert_eq!(os.irq_deliver(0x21).unwrap(), 0xD0);
    }

    #[test]
    fn every_service_call_pays_the_orb_price_not_a_trap() {
        let mut os = libos();
        let before = os.service_cycles();
        os.sched_add(ThreadId(1)).unwrap();
        let per_call = os.service_cycles() - before;
        // One ORB RPC: the Table 1 Go! cost band, nowhere near a trap pair.
        assert!((55..=110).contains(&per_call), "service call cost {per_call} cycles");
        let model = CostModel::pentium();
        assert!(per_call < model.trap_enter + model.trap_exit + 500);
    }

    #[test]
    fn services_are_ordinary_protected_components() {
        let os = libos();
        // client + scheduler + memory + irq = 4 instances; 3 interfaces.
        assert_eq!(os.orb().components(), 4);
        assert_eq!(os.orb().interfaces(), 3);
        // Their protection state is descriptor-sized, not page-sized.
        assert!(os.orb().protection_bytes() < 4096);
    }
}
