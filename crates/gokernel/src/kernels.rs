//! The four protection models of Table 1, implemented over the same
//! simulated machine.
//!
//! Each kernel exposes the same operation — a **null RPC round trip** between
//! a client and a server protection domain — and pays for it with the
//! primitives its design actually executes:
//!
//! * `MonolithicKernel` (BSD-style Unix): RPC over datagram sockets.
//!   Four syscalls, two full process context switches with page-table
//!   reloads, socket/UDP/IP processing with real buffer manipulation, a
//!   priority scheduler pass, and the large cold-cache footprint of a big
//!   kernel. This is the "ballpark ... procedure call overheads of a modern
//!   Unix system" row.
//! * `MachKernel` (Mach 2.5-style first-generation microkernel):
//!   `mach_msg`-style send+receive through ports with name translation,
//!   rights checks and message copying; leaner, but still trap + page-table
//!   switch per transfer.
//! * `L4Kernel` (second-generation microkernel): direct-handoff IPC,
//!   message in registers, tiny cache footprint — the design whose published
//!   numbers the paper quotes at 665 cycles.
//! * [`GoKernel`]: the ORB's thread-migration RPC — no trap, no page-table
//!   switch, three segment-register loads each way (see [`crate::orb`]).
//!
//! The constants in each kernel (working-set sizes, queue lengths) are the
//! knobs of the *simulation substitute* for real hardware; they are
//! documented where declared and sized from the systems literature of the
//! period (Liedtke's IPC analyses, BSD internals texts).

use crate::component::Rights;
use crate::orb::{Orb, OrbError};
use machine::cost::{CostModel, CycleCounter, Cycles, Primitive};
use machine::isa::{Instr, Program};
use machine::trap::TrapVector;
use std::collections::VecDeque;

/// Which protection model a kernel implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// BSD-style monolithic Unix.
    Monolithic,
    /// Mach 2.5-style first-generation microkernel.
    Mach,
    /// L4-style second-generation microkernel.
    L4,
    /// Go!'s SISR + ORB zero-kernel.
    Go,
}

impl KernelKind {
    /// Display name matching the paper's Table 1 rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Monolithic => "BSD (Unix)",
            KernelKind::Mach => "Mach2.5",
            KernelKind::L4 => "L4",
            KernelKind::Go => "Go!",
        }
    }

    /// The cycle count the paper reports for this row.
    #[must_use]
    pub fn paper_cycles(self) -> Cycles {
        match self {
            KernelKind::Monolithic => 55_000,
            KernelKind::Mach => 3_000,
            KernelKind::L4 => 665,
            KernelKind::Go => 73,
        }
    }
}

/// A kernel that can perform an RPC round trip between two of its protection
/// domains.
pub trait Kernel {
    /// Which design this is.
    fn kind(&self) -> KernelKind;

    /// Perform one RPC round trip carrying `msg_words` 32-bit words each
    /// way; returns the cycles consumed.
    fn rpc(&mut self, msg_words: u32) -> Cycles;

    /// A null RPC (the Table 1 measurement: minimal message).
    fn null_rpc(&mut self) -> Cycles {
        self.rpc(2)
    }

    /// Per-primitive anatomy of one RPC (for the Figure 6 bench).
    fn breakdown(&mut self, msg_words: u32) -> Vec<(&'static str, Cycles)>;
}

// ---------------------------------------------------------------------------
// BSD-style monolithic kernel
// ---------------------------------------------------------------------------

/// A process in the monolithic kernel.
#[derive(Debug, Clone)]
struct Process {
    /// TLB entries its working set touches after a switch (app + libc +
    /// kernel structures). Mid-90s measurements put a Unix process's
    /// post-switch refill at one-to-two hundred entries.
    tlb_working_set: u32,
    /// Kernel text/data cache lines the socket-RPC path touches cold.
    kernel_cache_lines: u32,
}

/// A datagram socket: a real byte queue.
#[derive(Debug, Clone, Default)]
struct DgramSocket {
    queue: VecDeque<Vec<u8>>,
}

/// BSD-style monolithic Unix: RPC via datagram sockets over loopback.
#[derive(Debug)]
pub(crate) struct MonolithicKernel {
    model: CostModel,
    counter: CycleCounter,
    procs: [Process; 2],
    socks: [DgramSocket; 2],
    /// Run-queue length the scheduler scans (a moderately loaded system).
    runq_len: u32,
}

impl MonolithicKernel {
    /// A kernel with client (process 0) and server (process 1) set up.
    #[must_use]
    pub(crate) fn new(model: CostModel) -> Self {
        let proc_ = Process { tlb_working_set: 250, kernel_cache_lines: 900 };
        Self {
            model,
            counter: CycleCounter::new(),
            procs: [proc_.clone(), proc_],
            socks: [DgramSocket::default(), DgramSocket::default()],
            runq_len: 8,
        }
    }

    /// `sendto()` — trap, socket layer, UDP/IP over loopback, wakeup.
    fn syscall_sendto(&mut self, to_sock: usize, payload: &[u8]) {
        let m = &self.model;
        TrapVector::charge_enter(&mut self.counter, m);
        // Syscall dispatch + fd validation.
        self.counter.charge_all(&[Primitive::Load; 6], m);
        self.counter.charge_all(&[Primitive::Alu; 4], m);
        // sockaddr copyin.
        self.counter.charge(Primitive::CopyWords(4), m);
        // mbuf allocation (pool get: pointer chases and header init).
        self.counter.charge_all(&[Primitive::Load; 12], m);
        self.counter.charge_all(&[Primitive::Store; 12], m);
        // Payload copyin.
        self.counter.charge(Primitive::CopyWords(payload.len() as u32 / 4), m);
        // UDP checksum over the payload.
        self.counter.charge_all(&[Primitive::Alu; 8], m);
        self.counter.charge_all(&[Primitive::Load; 8], m);
        // IP output: route lookup.
        self.counter.charge_all(&[Primitive::Load; 10], m);
        self.counter.charge_all(&[Primitive::Alu; 5], m);
        // Loopback: immediate IP input + UDP input + PCB hash lookup.
        self.counter.charge_all(&[Primitive::Load; 15], m);
        self.counter.charge_all(&[Primitive::Alu; 8], m);
        // Append to the destination socket buffer (real queue op).
        self.socks[to_sock].queue.push_back(payload.to_vec());
        self.counter.charge_all(&[Primitive::Store; 6], m);
        // sowakeup: mark reader runnable.
        self.counter.charge(Primitive::SchedSteps(4), m);
        TrapVector::charge_exit(&mut self.counter, m);
    }

    /// `recvfrom()` returning immediately (data already queued).
    fn syscall_recvfrom(&mut self, from_sock: usize) -> Vec<u8> {
        let m = &self.model;
        TrapVector::charge_enter(&mut self.counter, m);
        self.counter.charge_all(&[Primitive::Load; 6], m);
        let payload = self.socks[from_sock].queue.pop_front().unwrap_or_default();
        // mbuf dequeue + copyout + free.
        self.counter.charge_all(&[Primitive::Load; 10], m);
        self.counter.charge(Primitive::CopyWords(payload.len() as u32 / 4), m);
        self.counter.charge_all(&[Primitive::Store; 10], m);
        TrapVector::charge_exit(&mut self.counter, m);
        payload
    }

    /// Block-and-switch: the expensive part. The current process sleeps, the
    /// scheduler scans the run queue, and the other process's address space
    /// and cache working set are faulted back in.
    fn context_switch(&mut self, to: usize) {
        let m = &self.model;
        // Save integer + FPU state.
        self.counter.charge(Primitive::RegfileSave, m);
        self.counter.charge(Primitive::FpuSave, m);
        // Scheduler: scan the run queue, recompute priorities.
        self.counter.charge(Primitive::SchedSteps(self.runq_len), m);
        // Signal-pending and resource-limit checks on the way out.
        self.counter.charge_all(&[Primitive::Load; 6], m);
        self.counter.charge_all(&[Primitive::Alu; 4], m);
        // Address-space switch + TLB refill of the incoming working set.
        self.counter.charge(Primitive::PageTableSwitch, m);
        self.counter.charge(Primitive::TlbRefill(self.procs[to].tlb_working_set), m);
        // Cold kernel + user cache footprint.
        self.counter.charge(Primitive::CacheMisses(self.procs[to].kernel_cache_lines), m);
        // Restore incoming state.
        self.counter.charge(Primitive::RegfileSave, m);
    }
}

impl Kernel for MonolithicKernel {
    fn kind(&self) -> KernelKind {
        KernelKind::Monolithic
    }

    fn rpc(&mut self, msg_words: u32) -> Cycles {
        let start = self.counter.total();
        let payload = vec![0u8; (msg_words * 4) as usize];
        // Client → server.
        self.syscall_sendto(1, &payload);
        self.context_switch(1);
        let req = self.syscall_recvfrom(1);
        debug_assert_eq!(req.len(), payload.len());
        // Server → client.
        self.syscall_sendto(0, &payload);
        self.context_switch(0);
        let _resp = self.syscall_recvfrom(0);
        self.counter.since(start)
    }

    fn breakdown(&mut self, msg_words: u32) -> Vec<(&'static str, Cycles)> {
        let mark = self.counter.mark();
        self.rpc(msg_words);
        self.counter.breakdown_since(&mark)
    }
}

// ---------------------------------------------------------------------------
// Mach 2.5-style microkernel
// ---------------------------------------------------------------------------

/// A Mach-style port with a real message queue.
#[derive(Debug, Default)]
struct Port {
    queue: VecDeque<Vec<u32>>,
}

/// Mach 2.5-style microkernel: `mach_msg` send+receive through ports.
#[derive(Debug)]
pub(crate) struct MachKernel {
    model: CostModel,
    counter: CycleCounter,
    ports: [Port; 2],
    /// TLB working set per task after a switch — smaller than a fat Unix
    /// process (the server is a lean user-level task).
    tlb_working_set: u32,
    /// IPC-path cache lines touched cold per transfer.
    ipc_cache_lines: u32,
}

impl MachKernel {
    /// A kernel with request (port 0) and reply (port 1) ports.
    #[must_use]
    pub(crate) fn new(model: CostModel) -> Self {
        Self {
            model,
            counter: CycleCounter::new(),
            ports: [Port::default(), Port::default()],
            tlb_working_set: 16,
            ipc_cache_lines: 28,
        }
    }

    /// One `mach_msg` transfer: trap, translate, check, copy, enqueue,
    /// switch to the receiver.
    fn msg_transfer(&mut self, port: usize, msg: Vec<u32>) {
        let m = &self.model;
        TrapVector::charge_enter(&mut self.counter, m);
        // Message header validation.
        self.counter.charge_all(&[Primitive::Load; 6], m);
        self.counter.charge_all(&[Primitive::Alu; 4], m);
        // Port name translation (hash into the task's IPC space).
        self.counter.charge_all(&[Primitive::Load; 8], m);
        self.counter.charge_all(&[Primitive::Alu; 4], m);
        // Send-rights check.
        self.counter.charge_all(&[Primitive::Load; 4], m);
        self.counter.charge_all(&[Primitive::Alu; 2], m);
        // Copy the message into kernel space, rewrite the header.
        self.counter.charge(Primitive::CopyWords(msg.len() as u32), m);
        self.counter.charge_all(&[Primitive::Store; 4], m);
        // Enqueue and hand off to the receiving thread.
        self.ports[port].queue.push_back(msg);
        self.counter.charge_all(&[Primitive::Store; 4], m);
        self.counter.charge(Primitive::SchedSteps(3), m);
        // Task switch: registers, address space, working sets.
        self.counter.charge(Primitive::RegfileSave, m);
        self.counter.charge(Primitive::PageTableSwitch, m);
        self.counter.charge(Primitive::TlbRefill(self.tlb_working_set), m);
        self.counter.charge(Primitive::CacheMisses(self.ipc_cache_lines), m);
        // Receiver-side dequeue + copyout.
        let got = self.ports[port].queue.pop_front().unwrap_or_default();
        self.counter.charge_all(&[Primitive::Load; 4], m);
        self.counter.charge(Primitive::CopyWords(got.len() as u32), m);
        TrapVector::charge_exit(&mut self.counter, m);
    }
}

impl Kernel for MachKernel {
    fn kind(&self) -> KernelKind {
        KernelKind::Mach
    }

    fn rpc(&mut self, msg_words: u32) -> Cycles {
        let start = self.counter.total();
        let msg = vec![0u32; msg_words as usize];
        self.msg_transfer(0, msg.clone()); // request
        self.msg_transfer(1, msg); // reply
        self.counter.since(start)
    }

    fn breakdown(&mut self, msg_words: u32) -> Vec<(&'static str, Cycles)> {
        let mark = self.counter.mark();
        self.rpc(msg_words);
        self.counter.breakdown_since(&mark)
    }
}

// ---------------------------------------------------------------------------
// L4-style microkernel
// ---------------------------------------------------------------------------

/// A thread control block.
#[derive(Debug, Clone, Copy)]
struct Tcb {
    /// Pages the partner touches right after the switch (L4 keeps this tiny:
    /// the IPC path plus the handler's first page).
    tlb_working_set: u32,
}

/// L4-style second-generation microkernel: direct-handoff register IPC.
#[derive(Debug)]
pub(crate) struct L4Kernel {
    model: CostModel,
    counter: CycleCounter,
    tcbs: [Tcb; 2],
    /// Registers carry up to this many words; beyond it, words are copied.
    register_words: u32,
}

impl L4Kernel {
    /// A kernel with two threads in separate address spaces.
    #[must_use]
    pub(crate) fn new(model: CostModel) -> Self {
        Self {
            model,
            counter: CycleCounter::new(),
            tcbs: [Tcb { tlb_working_set: 5 }, Tcb { tlb_working_set: 5 }],
            register_words: 3,
        }
    }

    /// One IPC: trap, locate partner TCB directly, switch without touching
    /// a scheduler, message stays in registers.
    fn ipc(&mut self, to: usize, msg_words: u32) {
        let m = &self.model;
        TrapVector::charge_enter(&mut self.counter, m);
        // Direct TCB lookup from the thread id (no hash, no search).
        self.counter.charge_all(&[Primitive::Load; 2], m);
        // Validate partner state (waiting? right thread?).
        self.counter.charge_all(&[Primitive::Load; 2], m);
        self.counter.charge_all(&[Primitive::Alu; 2], m);
        // Long messages spill out of registers.
        if msg_words > self.register_words {
            self.counter.charge(Primitive::CopyWords(msg_words - self.register_words), m);
        }
        // Direct process switch: address space + the partner's tiny refill.
        self.counter.charge(Primitive::PageTableSwitch, m);
        self.counter.charge(Primitive::TlbRefill(self.tcbs[to].tlb_working_set), m);
        self.counter.charge(Primitive::CacheMisses(1), m);
        TrapVector::charge_exit(&mut self.counter, m);
    }
}

impl Kernel for L4Kernel {
    fn kind(&self) -> KernelKind {
        KernelKind::L4
    }

    fn rpc(&mut self, msg_words: u32) -> Cycles {
        let start = self.counter.total();
        self.ipc(1, msg_words); // call
        self.ipc(0, msg_words); // reply
        self.counter.since(start)
    }

    fn breakdown(&mut self, msg_words: u32) -> Vec<(&'static str, Cycles)> {
        let mark = self.counter.mark();
        self.rpc(msg_words);
        self.counter.breakdown_since(&mark)
    }
}

// ---------------------------------------------------------------------------
// Go! (ORB) adapter
// ---------------------------------------------------------------------------

/// Go!'s RPC, adapted to the [`Kernel`] trait: a caller component invoking a
/// null service through the ORB.
#[derive(Debug)]
pub struct GoKernel {
    orb: Orb,
    caller: crate::component::ComponentId,
    iface: crate::component::InterfaceId,
}

impl GoKernel {
    /// Build an ORB hosting a caller and a null service.
    ///
    /// # Panics
    /// Never in practice: construction uses known-good programs.
    #[must_use]
    pub fn new(model: CostModel) -> Self {
        let mut orb = Orb::new(1 << 20, model);
        let null = Program::new(vec![Instr::Halt]).to_bytes();
        let caller_ty = orb.load_type("client", &null).expect("null text verifies");
        let callee_ty = orb.load_type("server", &null).expect("null text verifies");
        let caller = orb.instantiate(caller_ty).expect("memory available");
        let callee = orb.instantiate(callee_ty).expect("memory available");
        let iface = orb.publish(callee, 0, Rights::PUBLIC, 0).expect("instance exists");
        Self { orb, caller, iface }
    }

    /// Access the underlying ORB (for memory-footprint experiments).
    #[must_use]
    pub fn orb(&self) -> &Orb {
        &self.orb
    }

    /// Arm the observability hub on the underlying ORB: each `rpc` then
    /// emits an invocation span whose duration is the measured cycle cost.
    pub fn arm_obs(&mut self, obs: obs::ObsHandle) {
        self.orb.arm_obs(obs);
    }

    /// Disarm observability on the underlying ORB.
    pub fn disarm_obs(&mut self) {
        self.orb.disarm_obs();
    }

    fn invoke(&mut self) -> Result<crate::orb::RpcOutcome, OrbError> {
        self.orb.invoke(self.caller, self.iface, &[])
    }
}

impl Kernel for GoKernel {
    fn kind(&self) -> KernelKind {
        KernelKind::Go
    }

    fn rpc(&mut self, _msg_words: u32) -> Cycles {
        // Short messages travel in registers through the ORB; the null
        // service ignores them, matching the other kernels' null RPC.
        self.invoke().expect("null service cannot fault").cycles
    }

    fn breakdown(&mut self, _msg_words: u32) -> Vec<(&'static str, Cycles)> {
        self.invoke().expect("null service cannot fault");
        self.orb.last_breakdown()
    }
}

// ---------------------------------------------------------------------------
// Extensible-kernel ablation (the §1.1 stage between microkernels and Go!)
// ---------------------------------------------------------------------------

/// The *extensible kernel* stage of the paper's Section 1.1 narrative
/// (SPIN/exokernel lineage): service extensions are downloaded **into** the
/// kernel, so invoking one costs a trap pair plus a guarded indirect call —
/// no message, no address-space switch. "Elimination of unnecessary
/// abstraction ... ensured a significant performance improvement. However
/// they lacked the ability to tailor the OS to the application and be
/// re-configured at runtime" — which is exactly what Go! adds while being
/// cheaper still. Not a Table 1 row (the paper doesn't report one); its
/// tests place the design point between L4 and Go! (EXPERIMENTS.md's
/// 161-cycle rung of the §1.1 ladder).
#[cfg(test)]
#[derive(Debug)]
struct ExtensibleKernel {
    model: CostModel,
    counter: CycleCounter,
    /// Downloaded extensions: entry ids the guard checks against.
    extensions: Vec<u32>,
}

#[cfg(test)]
impl ExtensibleKernel {
    /// A kernel with one downloaded extension.
    #[must_use]
    fn new(model: CostModel) -> Self {
        Self { model, counter: CycleCounter::new(), extensions: vec![1] }
    }

    /// Download another extension (load-time verification is charged as a
    /// linear scan, like SISR's — the designs share that idea).
    fn download(&mut self, id: u32, instructions: u32) {
        let m = &self.model;
        for _ in 0..instructions {
            self.counter.charge(Primitive::Load, m);
            self.counter.charge(Primitive::Alu, m);
        }
        if !self.extensions.contains(&id) {
            self.extensions.push(id);
        }
    }

    /// Invoke extension `id`: trap in, guarded dispatch, direct call, trap
    /// out. Returns the cycles consumed.
    ///
    /// # Panics
    /// If the extension was never downloaded.
    fn invoke_extension(&mut self, id: u32) -> Cycles {
        assert!(self.extensions.contains(&id), "extension {id} not downloaded");
        let m = &self.model;
        let start = self.counter.total();
        TrapVector::charge_enter(&mut self.counter, m);
        // Guarded dispatch: bounds-check the extension id, load its entry.
        self.counter.charge_all(&[Primitive::Load, Primitive::Load, Primitive::Alu], m);
        self.counter.charge(Primitive::BranchIndirect, m);
        // The extension runs in the kernel: a couple of cache lines cold.
        self.counter.charge(Primitive::CacheMisses(2), m);
        self.counter.charge(Primitive::BranchIndirect, m);
        TrapVector::charge_exit(&mut self.counter, m);
        self.counter.since(start)
    }
}

// ---------------------------------------------------------------------------

/// Build all four kernels under one cost model, in Table 1 row order.
#[must_use]
pub fn all_kernels(model: &CostModel) -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(MonolithicKernel::new(model.clone())),
        Box::new(MachKernel::new(model.clone())),
        Box::new(L4Kernel::new(model.clone())),
        Box::new(GoKernel::new(model.clone())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bands() -> Vec<(KernelKind, Cycles, Cycles)> {
        vec![
            (KernelKind::Monolithic, 40_000, 70_000),
            (KernelKind::Mach, 2_200, 3_800),
            (KernelKind::L4, 500, 850),
            (KernelKind::Go, 55, 95),
        ]
    }

    #[test]
    fn each_kernel_lands_in_its_paper_band() {
        let model = CostModel::pentium();
        for (kind, lo, hi) in bands() {
            let mut k: Box<dyn Kernel> = match kind {
                KernelKind::Monolithic => Box::new(MonolithicKernel::new(model.clone())),
                KernelKind::Mach => Box::new(MachKernel::new(model.clone())),
                KernelKind::L4 => Box::new(L4Kernel::new(model.clone())),
                KernelKind::Go => Box::new(GoKernel::new(model.clone())),
            };
            let c = k.null_rpc();
            assert!(
                (lo..=hi).contains(&c),
                "{}: {} cycles outside [{lo}, {hi}] (paper: {})",
                kind.name(),
                c,
                kind.paper_cycles()
            );
        }
    }

    #[test]
    fn table1_ordering_is_strict() {
        let model = CostModel::pentium();
        let mut costs: Vec<(KernelKind, Cycles)> =
            all_kernels(&model).iter_mut().map(|k| (k.kind(), k.null_rpc())).collect();
        costs.sort_by_key(|&(_, c)| c);
        let order: Vec<KernelKind> = costs.into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            order,
            vec![KernelKind::Go, KernelKind::L4, KernelKind::Mach, KernelKind::Monolithic]
        );
    }

    #[test]
    fn gaps_are_roughly_order_of_magnitude() {
        let model = CostModel::pentium();
        let mut ks = all_kernels(&model);
        let bsd = ks[0].null_rpc();
        let mach = ks[1].null_rpc();
        let l4 = ks[2].null_rpc();
        let go = ks[3].null_rpc();
        assert!(bsd / mach >= 8, "BSD/Mach ratio {} too small", bsd / mach);
        assert!(mach / l4 >= 3, "Mach/L4 ratio {} too small", mach / l4);
        assert!(l4 / go >= 5, "L4/Go ratio {} too small", l4 / go);
        assert!(bsd / go >= 400, "BSD/Go ratio {} too small", bsd / go);
    }

    #[test]
    fn rpc_cost_is_stable_across_repetitions() {
        let model = CostModel::pentium();
        let mut k = GoKernel::new(model);
        let a = k.null_rpc();
        let b = k.null_rpc();
        assert_eq!(a, b, "deterministic simulation must repeat exactly");
    }

    #[test]
    fn larger_messages_cost_more_on_copying_kernels() {
        let model = CostModel::pentium();
        let mut mach = MachKernel::new(model.clone());
        let small = mach.rpc(2);
        let big = mach.rpc(256);
        assert!(big > small);
        // L4 keeps short messages in registers: 2 words is free of copies.
        let mut l4 = L4Kernel::new(model);
        let in_regs = l4.rpc(2);
        let spilled = l4.rpc(64);
        assert!(spilled > in_regs);
    }

    #[test]
    fn breakdowns_sum_to_rpc_cost() {
        let model = CostModel::pentium();
        for k in all_kernels(&model).iter_mut() {
            let cost = k.null_rpc();
            let bd = k.breakdown(2);
            let sum: Cycles = bd.iter().map(|(_, v)| v).sum();
            assert_eq!(sum, cost, "{}", k.kind().name());
        }
    }

    #[test]
    fn go_breakdown_has_no_traps_or_page_table_switches() {
        let model = CostModel::pentium();
        let mut go = GoKernel::new(model);
        let bd = go.breakdown(0);
        assert!(bd.iter().all(|(l, _)| *l != "trap-enter" && *l != "page-table-switch"));
        // And the trap-based kernels *do* trap.
        let mut l4 = L4Kernel::new(CostModel::pentium());
        assert!(l4.breakdown(2).iter().any(|(l, _)| *l == "trap-enter"));
    }

    #[test]
    fn extensible_kernel_sits_between_l4_and_go() {
        // The §1.1 narrative as numbers: each architectural stage cuts the
        // service-invocation cost, and Go! cuts past the extensible kernel
        // while regaining runtime reconfigurability.
        let model = CostModel::pentium();
        let l4 = L4Kernel::new(model.clone()).null_rpc();
        let mut ext = ExtensibleKernel::new(model.clone());
        let ext_cost = ext.invoke_extension(1);
        let go = GoKernel::new(model).null_rpc();
        assert!(
            go < ext_cost && ext_cost < l4,
            "Go! {go} < extensible {ext_cost} < L4 {l4} must hold"
        );
    }

    #[test]
    fn extension_download_is_charged_and_gated() {
        let model = CostModel::pentium();
        let mut ext = ExtensibleKernel::new(model);
        let before = ext.counter.total();
        ext.download(7, 100);
        assert_eq!(ext.counter.total() - before, 300, "100 instr x (load+alu)");
        let c = ext.invoke_extension(7);
        assert!(c > 0);
    }

    #[test]
    #[should_panic(expected = "not downloaded")]
    fn undownloaded_extension_rejected() {
        let mut ext = ExtensibleKernel::new(CostModel::pentium());
        let _ = ext.invoke_extension(99);
    }

    #[test]
    fn deep_pipeline_widens_the_gap() {
        // On a machine with costlier traps/misses, Go!'s advantage grows —
        // the paper's bet that the design ages well.
        let pent = CostModel::pentium();
        let deep = CostModel::deep_pipeline();
        let ratio = |m: &CostModel| {
            let bsd = MonolithicKernel::new(m.clone()).null_rpc();
            let go = GoKernel::new(m.clone()).null_rpc();
            bsd as f64 / go as f64
        };
        assert!(ratio(&deep) > ratio(&pent));
    }
}
