//! The ORB — Go!'s only privileged component (the paper's Figure 6).
//!
//! > "to invoke services on other components a privileged component known as
//! > the ORB is used to load segment registers to 'switch a context' ...
//! > if component A wishes to evoke a service on component B then it
//! > indirects via the ORB component (which loads new code and data segments
//! > to perform the protected intra-machine RPC). This is done by migrating
//! > the thread from caller to callee on the call and back again on return."
//!
//! The invoke path below charges *named machine primitives* for every step —
//! descriptor fetch, rights check, continuation save, the three
//! segment-register loads, the indirect jump — and then really executes the
//! callee's verified text on the simulated CPU. Summing the charges for a
//! null call yields Go!'s Table 1 row (~73 cycles); the per-step anatomy is
//! available on demand via [`Orb::last_breakdown`] for the Figure 6 bench. The
//! fixed steps are charged as per-primitive sums computed once from the
//! model, equal cycle-for-cycle to the primitive sequence they stand for,
//! so a crossing's host cost tracks the handful of steps it bills.

use crate::component::{
    ComponentId, ComponentInstance, ComponentType, InterfaceDescriptor, InterfaceId, Rights,
    TypeId, DESCRIPTOR_BYTES,
};
use crate::sisr::{Limits, SisrVerifier, VerifiedImage, VerifyReport};
use machine::cost::{Bill, CostModel, Cycles, Mark, Primitive};
use machine::cpu::{Cpu, CpuError, Mode, Stop};
use machine::seg::{SegReg, Segment, SegmentKind, SegmentTable};
use obs::ObsHandle;

/// Errors the ORB can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrbError {
    /// The image failed SISR verification — it will not be loaded. The
    /// report carries every diagnostic the verifier pipeline proved.
    Rejected(VerifyReport),
    /// Unknown type id.
    NoSuchType(TypeId),
    /// Unknown component id.
    NoSuchComponent(ComponentId),
    /// Unknown interface id.
    NoSuchInterface(InterfaceId),
    /// Caller lacks rights on the interface (not bound).
    AccessDenied {
        /// The caller that was refused.
        caller: ComponentId,
        /// The interface it tried to invoke.
        iface: InterfaceId,
    },
    /// Wrong number of argument words for the interface signature.
    BadArity {
        /// Words the interface expects.
        expected: u16,
        /// Words supplied.
        got: usize,
    },
    /// The callee faulted; the fault was contained to its segments.
    CalleeFault(CpuError),
    /// The callee ran out of fuel (runaway) and was destroyed.
    CalleeRunaway,
    /// Physical memory arena exhausted.
    OutOfMemory,
    /// An interface was published at an entry the verifier never covered.
    UnverifiedEntry {
        /// The type whose image was verified.
        type_id: TypeId,
        /// The unverified entry point.
        entry: u32,
    },
    /// An armed fault injector failed this invocation before the thread
    /// migrated (chaos testing; see [`InvokeFaults`]). Caller state is
    /// untouched — the failure is equivalent to the ORB refusing the call.
    Injected {
        /// The injector's reason.
        reason: String,
    },
    /// A procedure summary in the image claims a footprint larger than the
    /// segment grants instances of this type would receive. The image may
    /// have verified cleanly under more generous limits elsewhere; the ORB
    /// re-checks the *summaries* against its own grants at link time, so
    /// the mismatch is caught before any instance exists.
    SummaryExceedsGrant {
        /// Head of the offending procedure.
        head: u32,
        /// The grant the summary would exceed (`"data"` or `"stack"`).
        grant: &'static str,
        /// Bytes the summary claims the procedure can touch.
        claimed: u64,
        /// Bytes the ORB's grant actually extends to.
        limit: u64,
    },
}

impl From<VerifyReport> for OrbError {
    fn from(r: VerifyReport) -> Self {
        OrbError::Rejected(r)
    }
}

/// Result of a successful RPC.
#[derive(Debug, Clone)]
pub struct RpcOutcome {
    /// Value left in register 0 by the callee.
    pub result: u32,
    /// Cycles the whole call/return consumed (overhead + callee body).
    /// [`Orb::last_breakdown`] splits them per primitive.
    pub cycles: Cycles,
}

/// Invocation-level fault injection: consulted (when armed) at the top of
/// every [`Orb::invoke`], before any machine state changes. Returning
/// `Some(reason)` fails that call with [`OrbError::Injected`]. The unarmed
/// ORB never consults an injector — the hot path stays a `None` check.
pub trait InvokeFaults: std::fmt::Debug {
    /// Should this invocation (the `call_index`-th since boot, 0-based)
    /// fail, and why?
    fn deny(&mut self, call_index: u64, caller: ComponentId, iface: InterfaceId) -> Option<String>;
}

/// The ORB: descriptor tables, loaded types/instances, the segment table,
/// and the CPU the migrated thread runs on.
#[derive(Debug)]
pub struct Orb {
    segs: SegmentTable,
    types: Vec<ComponentType>,
    instances: Vec<ComponentInstance>,
    descriptors: Vec<(InterfaceDescriptor, ComponentId)>,
    bindings: Vec<(ComponentId, InterfaceId)>,
    verifier: SisrVerifier,
    cpu: Cpu,
    next_base: u32,
    mem_limit: u32,
    faults: Option<Box<dyn InvokeFaults>>,
    obs: Option<ObsHandle>,
    invocations: u64,
    bills: InvokeBills,
    /// The CPU's breakdown as the last `invoke` began.
    last_mark: Mark,
}

/// The fixed path of [`Orb::invoke`], pre-summed per primitive under the
/// ORB's model and split where its error returns sit, so every outcome
/// charges exactly the primitive sequence it reached.
#[derive(Debug)]
struct InvokeBills {
    /// The caller's indirect into the ORB, then the descriptor fetch: four
    /// loads (the descriptor is four words of protection state —
    /// selectors+entry, type, iface, rights). All an unknown interface
    /// costs.
    fetch: Bill,
    /// Rights + type check: compares and a conditional branch. A refused
    /// call pays `fetch` and `check`.
    check: Bill,
    /// Entry-point limit check against the callee's code segment, then the
    /// saved continuation (return selectors + pc): 4 stores.
    enter: Bill,
    /// Thread-migration record — which instance the thread is in, the
    /// borrowed stack's bounds for the return check — and the indirect
    /// jump to the entry point.
    migrate: Bill,
    /// Return validation (the migration record must match), then the
    /// continuation restore: 4 loads.
    ret: Bill,
}

impl InvokeBills {
    fn new(m: &CostModel) -> Self {
        use Primitive::{Alu, Branch, BranchIndirect, Load, Store};
        Self {
            fetch: Bill::new(&[Branch, Load, Load, Load, Load], m),
            check: Bill::new(&[Alu, Alu, Alu, Alu, Branch], m),
            enter: Bill::new(&[Load, Load, Alu, Store, Store, Store, Store], m),
            migrate: Bill::new(&[Store, Store, Load, Load, Store, Store, Alu, BranchIndirect], m),
            ret: Bill::new(&[Load, Load, Alu, Alu, Load, Load, Load, Load], m),
        }
    }
}

/// Default per-instance data segment size.
const DATA_SEG_BYTES: u32 = 4096;
/// Default per-instance stack segment size.
const STACK_SEG_BYTES: u32 = 4096;
/// Execution fuel per invocation before a component is declared runaway.
const CALL_FUEL: u32 = 1_000_000;

impl Orb {
    /// An ORB managing `mem_bytes` of simulated physical memory.
    #[must_use]
    pub fn new(mem_bytes: u32, model: CostModel) -> Self {
        let bills = InvokeBills::new(&model);
        let cpu = Cpu::new(mem_bytes as usize, Mode::Kernel, model.clone());
        let last_mark = cpu.counter().mark();
        Self {
            segs: SegmentTable::new(),
            types: Vec::new(),
            instances: Vec::new(),
            descriptors: Vec::new(),
            bindings: Vec::new(),
            // The verifier checks static segment discipline against the
            // exact grants instances will receive.
            verifier: SisrVerifier::with_limits(
                model,
                Limits {
                    data_bytes: DATA_SEG_BYTES,
                    stack_bytes: STACK_SEG_BYTES,
                    ..Limits::default()
                },
            ),
            // Go! has no kernel mode: everything, ORB included, runs in the
            // single processor mode. Mode::Kernel here only means the
            // simulated CPU permits segment loads, which the ORB alone issues.
            cpu,
            next_base: 0,
            mem_limit: mem_bytes,
            faults: None,
            obs: None,
            invocations: 0,
            bills,
            last_mark,
        }
    }

    /// Arm an invocation fault injector (chaos testing). Replaces any
    /// previous injector.
    pub fn arm_faults(&mut self, faults: Box<dyn InvokeFaults>) {
        self.faults = Some(faults);
    }

    /// Arm the observability hub: every subsequent `load_type` emits a
    /// verification span billing the SISR scan cycles, and every `invoke`
    /// emits a span whose duration equals [`RpcOutcome::cycles`] exactly.
    /// Same zero-cost-when-disarmed discipline as [`Orb::arm_faults`].
    pub fn arm_obs(&mut self, obs: ObsHandle) {
        self.obs = Some(obs);
    }

    /// Disarm observability, restoring the zero-cost production path.
    pub fn disarm_obs(&mut self) {
        self.obs = None;
    }

    /// Invocations attempted since boot (including injected failures).
    #[must_use]
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// The per-primitive anatomy of the last [`Orb::invoke`], in
    /// first-charge order (the Figure 6 breakdown): every cycle the ORB's
    /// CPU was charged since that invoke began, so read it before the ORB
    /// does anything else. Computed on demand; the invoke itself only
    /// marks where it started.
    #[must_use]
    pub fn last_breakdown(&self) -> Vec<(&'static str, Cycles)> {
        self.cpu.counter().breakdown_since(&self.last_mark)
    }

    fn alloc(&mut self, bytes: u32) -> Result<u32, OrbError> {
        let base = self.next_base;
        let end = base.checked_add(bytes).ok_or(OrbError::OutOfMemory)?;
        if end > self.mem_limit {
            return Err(OrbError::OutOfMemory);
        }
        self.next_base = end;
        Ok(base)
    }

    /// Load a component type from raw text bytes. The text is SISR-scanned;
    /// rejection means the type never exists.
    ///
    /// # Errors
    /// [`OrbError::Rejected`] on scan failure, [`OrbError::OutOfMemory`].
    pub fn load_type(&mut self, name: &str, text: &[u8]) -> Result<TypeId, OrbError> {
        let image = self.verifier.verify(text)?;
        if let Some(obs) = self.obs.clone() {
            // The load-time verification bill: the cycles SISR spends so
            // that run time needs no traps (the ROADMAP's Table 1
            // verification-cost row).
            let mut o = obs.borrow_mut();
            let span = o.begin("gokernel", format!("verify:{name}"));
            o.advance(image.scan_cycles());
            let mut args: Vec<(&'static str, String)> =
                vec![("cycles", image.scan_cycles().to_string())];
            for p in &image.report().passes {
                args.push((p.pass.name(), p.cycles.to_string()));
            }
            o.end_with(span, args);
            o.metrics.counter_add("orb.verify.images", 1);
            o.metrics.counter_add("orb.verify.cycles", image.scan_cycles());
        }
        self.install_type(image)
    }

    /// Link-time summary check: every per-procedure summary the verifier
    /// computed must fit inside the data and stack segments instances of
    /// this type will be granted. `verify`/`load_type` images always pass
    /// (the verifier ran under the same limits), but [`Orb::install_type`]
    /// accepts images verified elsewhere — possibly under larger grants —
    /// and this check is what makes that safe.
    ///
    /// # Errors
    /// [`OrbError::SummaryExceedsGrant`] naming the first offending
    /// procedure (summaries are in deterministic head order).
    pub(crate) fn check_summaries(&self, image: &VerifiedImage) -> Result<(), OrbError> {
        for s in image.summaries() {
            // A statically-known access at byte offset `hi` touches the
            // word [hi, hi+4) — the same bound the verifier enforces.
            for (range, grant) in [(s.known_loads, "data"), (s.known_stores, "data")] {
                if let Some((_, hi)) = range {
                    let claimed = u64::from(hi) + 4;
                    if claimed > u64::from(DATA_SEG_BYTES) {
                        return Err(OrbError::SummaryExceedsGrant {
                            head: s.head,
                            grant,
                            claimed,
                            limit: u64::from(DATA_SEG_BYTES),
                        });
                    }
                }
            }
            let stack_claim = u64::from(s.max_stack_words) * 4;
            if stack_claim > u64::from(STACK_SEG_BYTES) {
                return Err(OrbError::SummaryExceedsGrant {
                    head: s.head,
                    grant: "stack",
                    claimed: stack_claim,
                    limit: u64::from(STACK_SEG_BYTES),
                });
            }
        }
        Ok(())
    }

    /// Load a component type from an already-verified image. The image's
    /// procedure summaries are re-checked against this ORB's segment grants
    /// (see `Orb::check_summaries`) — link time is the last moment the
    /// mismatch can be caught statically.
    ///
    /// # Errors
    /// [`OrbError::SummaryExceedsGrant`], [`OrbError::OutOfMemory`].
    pub fn install_type(&mut self, image: VerifiedImage) -> Result<TypeId, OrbError> {
        self.check_summaries(&image)?;
        if let Some(obs) = self.obs.as_ref() {
            let mut o = obs.borrow_mut();
            o.metrics.counter_add("orb.link.summary_checks", 1);
            o.metrics.counter_add("orb.link.summaries", image.summaries().len() as u64);
        }
        let text_bytes = (image.program().len() * 8) as u32;
        let base = self.alloc(text_bytes.max(8))?;
        let code_sel = self
            .segs
            .install(Segment { base, limit: text_bytes.max(8), kind: SegmentKind::Code })
            .map_err(|_| OrbError::OutOfMemory)?;
        let id = TypeId(self.types.len() as u32);
        self.types.push(ComponentType { id, image, code_sel });
        Ok(id)
    }

    /// Instantiate a component of a loaded type, giving it fresh data and
    /// stack segments.
    ///
    /// # Errors
    /// [`OrbError::NoSuchType`], [`OrbError::OutOfMemory`].
    pub fn instantiate(&mut self, type_id: TypeId) -> Result<ComponentId, OrbError> {
        if self.types.get(type_id.0 as usize).is_none() {
            return Err(OrbError::NoSuchType(type_id));
        }
        let data_base = self.alloc(DATA_SEG_BYTES)?;
        let stack_base = self.alloc(STACK_SEG_BYTES)?;
        let data_sel = self
            .segs
            .install(Segment { base: data_base, limit: DATA_SEG_BYTES, kind: SegmentKind::Data })
            .map_err(|_| OrbError::OutOfMemory)?;
        let stack_sel = self
            .segs
            .install(Segment { base: stack_base, limit: STACK_SEG_BYTES, kind: SegmentKind::Stack })
            .map_err(|_| OrbError::OutOfMemory)?;
        let id = ComponentId(self.instances.len() as u32);
        self.instances.push(ComponentInstance { type_id, data_sel, stack_sel });
        Ok(id)
    }

    /// Publish an interface on an instance at `entry` (instruction index in
    /// its type's text), returning the interface id.
    ///
    /// The entry must be one the type's [`VerifiedImage`] covered — the
    /// verifier proved control-flow, stack and segment discipline *from the
    /// declared entries*, so publishing anywhere else would run unproven
    /// paths.
    ///
    /// # Errors
    /// [`OrbError::NoSuchComponent`], [`OrbError::UnverifiedEntry`].
    pub fn publish(
        &mut self,
        on: ComponentId,
        entry: u32,
        rights: Rights,
        arg_words: u16,
    ) -> Result<InterfaceId, OrbError> {
        let inst = self.instances.get(on.0 as usize).ok_or(OrbError::NoSuchComponent(on))?.clone();
        let ty = &self.types[inst.type_id.0 as usize];
        if !ty.image.entry_points().contains(&entry) {
            return Err(OrbError::UnverifiedEntry { type_id: ty.id, entry });
        }
        let iface_id = InterfaceId(self.descriptors.len() as u32);
        let desc = InterfaceDescriptor {
            code_sel: ty.code_sel,
            data_sel: inst.data_sel,
            stack_sel: inst.stack_sel,
            entry,
            type_id: inst.type_id,
            iface_id,
            rights,
            arg_words,
        };
        self.descriptors.push((desc, on));
        Ok(iface_id)
    }

    /// Bind a caller to an interface, granting invoke rights when the
    /// interface is `Rights::BOUND_ONLY`.
    ///
    /// # Errors
    /// [`OrbError::NoSuchComponent`], [`OrbError::NoSuchInterface`].
    pub fn bind(&mut self, caller: ComponentId, iface: InterfaceId) -> Result<(), OrbError> {
        if self.instances.get(caller.0 as usize).is_none() {
            return Err(OrbError::NoSuchComponent(caller));
        }
        if self.descriptors.get(iface.0 as usize).is_none() {
            return Err(OrbError::NoSuchInterface(iface));
        }
        if !self.bindings.contains(&(caller, iface)) {
            self.bindings.push((caller, iface));
        }
        Ok(())
    }

    /// Remove a binding. Idempotent.
    pub fn unbind(&mut self, caller: ComponentId, iface: InterfaceId) {
        self.bindings.retain(|&b| b != (caller, iface));
    }

    /// The protected intra-machine RPC of Figure 6: migrate the calling
    /// thread into the callee component and back.
    ///
    /// # Errors
    /// Access/arity errors before the switch; [`OrbError::CalleeFault`] if
    /// the callee violates its segments (the fault is contained — caller
    /// state is restored).
    pub fn invoke(
        &mut self,
        caller: ComponentId,
        iface: InterfaceId,
        args: &[u32],
    ) -> Result<RpcOutcome, OrbError> {
        let call_index = self.invocations;
        self.invocations += 1;
        self.last_mark = self.cpu.counter().mark();
        if let Some(f) = self.faults.as_mut() {
            if let Some(reason) = f.deny(call_index, caller, iface) {
                if let Some(obs) = self.obs.as_ref() {
                    let mut o = obs.borrow_mut();
                    o.instant("gokernel", "invoke:injected", vec![("reason", reason.clone())]);
                    o.metrics.counter_add("orb.invoke.injected", 1);
                }
                return Err(OrbError::Injected { reason });
            }
        }
        let start = self.cpu.cycles();

        // -- caller side: indirect into the ORB, fetch the descriptor -----
        self.cpu.counter_mut().charge_bill(&self.bills.fetch);
        let (desc, _owner) =
            *self.descriptors.get(iface.0 as usize).ok_or(OrbError::NoSuchInterface(iface))?;

        self.cpu.counter_mut().charge_bill(&self.bills.check);
        let caller_inst =
            self.instances.get(caller.0 as usize).ok_or(OrbError::NoSuchComponent(caller))?.clone();
        let bound = self.bindings.contains(&(caller, iface));
        if !desc.rights.permits(bound) {
            return Err(OrbError::AccessDenied { caller, iface });
        }
        if usize::from(desc.arg_words) != args.len() {
            return Err(OrbError::BadArity { expected: desc.arg_words, got: args.len() });
        }

        self.cpu.counter_mut().charge_bill(&self.bills.enter);

        // Arguments travel in registers; extra words are copied.
        if args.len() > 2 {
            self.cpu.charge(Primitive::CopyWords(args.len() as u32 - 2));
        }
        for (i, &a) in args.iter().enumerate().take(machine::isa::NUM_REGS) {
            self.cpu.regs[i] = a;
        }

        // THE context switch: three segment-register loads (~3 cycles).
        self.cpu.load_selector(SegReg::Cs, desc.code_sel);
        self.cpu.load_selector(SegReg::Ds, desc.data_sel);
        self.cpu.load_selector(SegReg::Ss, desc.stack_sel);

        self.cpu.counter_mut().charge_bill(&self.bills.migrate);

        // -- callee executes its verified text ----------------------------
        let program = self.types[desc.type_id.0 as usize].image.program();
        let run = self.cpu.run_from(program, &self.segs, desc.entry, CALL_FUEL);

        // -- return path: migrate the thread back -------------------------
        self.cpu.counter_mut().charge_bill(&self.bills.ret);
        // Switch back: three segment loads + indirect return.
        self.cpu.load_selector(SegReg::Cs, self.types[caller_inst.type_id.0 as usize].code_sel);
        self.cpu.load_selector(SegReg::Ds, caller_inst.data_sel);
        self.cpu.load_selector(SegReg::Ss, caller_inst.stack_sel);
        self.cpu.charge(Primitive::BranchIndirect);

        let cycles = self.cpu.cycles() - start;
        if let Some(obs) = self.obs.clone() {
            // The span rides the ORB's own cycle counter: its duration is
            // RpcOutcome::cycles to the cycle, so traces reproduce Table 1
            // numbers exactly.
            let mut o = obs.borrow_mut();
            let span = o.begin_at("gokernel", "invoke", start);
            let outcome = match &run {
                Ok(Stop::Halted) | Ok(Stop::Trap(_)) => "ok",
                Ok(Stop::OutOfFuel) => "runaway",
                Err(_) => "fault",
            };
            o.end_at_with(
                span,
                start + cycles,
                vec![
                    ("call", call_index.to_string()),
                    ("iface", iface.0.to_string()),
                    ("cycles", cycles.to_string()),
                    ("outcome", outcome.to_owned()),
                ],
            );
            o.metrics.counter_add("orb.invocations", 1);
            o.metrics.observe("orb.invoke.cycles", cycles);
        }
        match run {
            Ok(Stop::Halted) | Ok(Stop::Trap(_)) => {
                Ok(RpcOutcome { result: self.cpu.regs[0], cycles })
            }
            Ok(Stop::OutOfFuel) => Err(OrbError::CalleeRunaway),
            Err(e) => Err(OrbError::CalleeFault(e)),
        }
    }

    /// Bytes of protection state the ORB holds: 32 per published interface
    /// plus the segment descriptors. This is the quantity the paper compares
    /// against page-table overheads.
    #[must_use]
    pub fn protection_bytes(&self) -> u64 {
        self.descriptors.len() as u64 * DESCRIPTOR_BYTES as u64 + self.segs.protection_bytes()
    }

    /// Number of published interfaces.
    #[must_use]
    pub fn interfaces(&self) -> usize {
        self.descriptors.len()
    }

    /// Number of live component instances.
    #[must_use]
    pub fn components(&self) -> usize {
        self.instances.len()
    }

    /// Total cycles the ORB's CPU has charged since construction.
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        self.cpu.cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::isa::Instr;

    /// A null service: returns 7 in r0 immediately.
    fn null_service() -> Vec<u8> {
        machine::isa::Program::new(vec![Instr::MovImm(0, 7), Instr::Halt]).to_bytes()
    }

    /// An adder service: r0 <- r0 + r1.
    fn adder_service() -> Vec<u8> {
        machine::isa::Program::new(vec![Instr::Add(0, 1), Instr::Halt]).to_bytes()
    }

    fn orb_with_pair(service: Vec<u8>, arg_words: u16) -> (Orb, ComponentId, InterfaceId) {
        let mut orb = Orb::new(1 << 20, CostModel::pentium());
        let caller_ty = orb.load_type("caller", &null_service()).unwrap();
        let callee_ty = orb.load_type("callee", &service).unwrap();
        let caller = orb.instantiate(caller_ty).unwrap();
        let callee = orb.instantiate(callee_ty).unwrap();
        let iface = orb.publish(callee, 0, Rights::PUBLIC, arg_words).unwrap();
        (orb, caller, iface)
    }

    #[test]
    fn null_rpc_returns_result() {
        let (mut orb, caller, iface) = orb_with_pair(null_service(), 0);
        let out = orb.invoke(caller, iface, &[]).unwrap();
        assert_eq!(out.result, 7);
        assert!(out.cycles > 0);
    }

    #[test]
    fn null_rpc_lands_in_paper_band() {
        // Table 1: Go! RPC = 73 cycles. Accept the 55–95 band.
        let (mut orb, caller, iface) = orb_with_pair(null_service(), 0);
        let out = orb.invoke(caller, iface, &[]).unwrap();
        assert!(
            (55..=95).contains(&out.cycles),
            "Go! null RPC was {} cycles, expected ~73",
            out.cycles
        );
    }

    #[test]
    fn rpc_with_arguments_computes() {
        let (mut orb, caller, iface) = orb_with_pair(adder_service(), 2);
        let out = orb.invoke(caller, iface, &[20, 22]).unwrap();
        assert_eq!(out.result, 42);
    }

    #[test]
    fn arity_is_checked() {
        let (mut orb, caller, iface) = orb_with_pair(adder_service(), 2);
        assert_eq!(
            orb.invoke(caller, iface, &[1]).unwrap_err(),
            OrbError::BadArity { expected: 2, got: 1 }
        );
    }

    #[test]
    fn bound_only_interface_requires_binding() {
        let mut orb = Orb::new(1 << 20, CostModel::pentium());
        let ty = orb.load_type("svc", &null_service()).unwrap();
        let caller = orb.instantiate(ty).unwrap();
        let callee = orb.instantiate(ty).unwrap();
        let iface = orb.publish(callee, 0, Rights::BOUND_ONLY, 0).unwrap();
        assert!(matches!(orb.invoke(caller, iface, &[]), Err(OrbError::AccessDenied { .. })));
        orb.bind(caller, iface).unwrap();
        assert!(orb.invoke(caller, iface, &[]).is_ok());
        orb.unbind(caller, iface);
        assert!(orb.invoke(caller, iface, &[]).is_err());
    }

    #[test]
    fn privileged_text_is_rejected_at_load() {
        let mut orb = Orb::new(1 << 20, CostModel::pentium());
        let evil = machine::isa::Program::new(vec![Instr::Cli, Instr::Halt]).to_bytes();
        assert!(matches!(orb.load_type("evil", &evil), Err(OrbError::Rejected(_))));
        assert_eq!(orb.components(), 0);
    }

    #[test]
    fn statically_wild_store_is_rejected_at_load() {
        // The address is a compile-time constant, so the verifier's
        // segment-discipline pass refuses the image before it ever runs.
        let wild = machine::isa::Program::new(vec![
            Instr::MovImm(0, 100_000),
            Instr::Store(0, 0),
            Instr::Halt,
        ])
        .to_bytes();
        let mut orb = Orb::new(1 << 20, CostModel::pentium());
        let Err(OrbError::Rejected(report)) = orb.load_type("wild", &wild) else {
            panic!("statically wild store must be rejected");
        };
        assert!(
            report.errors().any(|d| d.pass == crate::sisr::Pass::SegmentDiscipline),
            "{report}"
        );
    }

    #[test]
    fn callee_segment_fault_is_contained() {
        // The wild address arrives as an *argument*, so it is statically
        // unknown — the verifier must accept, and the segmentation hardware
        // contains the fault at run time.
        let wild = machine::isa::Program::new(vec![Instr::Store(0, 1), Instr::Halt]).to_bytes();
        let (mut orb, caller, iface) = orb_with_pair(wild, 1);
        assert!(matches!(
            orb.invoke(caller, iface, &[100_000]),
            Err(OrbError::CalleeFault(CpuError::Segment(_)))
        ));
        // The ORB survives and other services still work.
        let ty = orb.load_type("ok", &null_service()).unwrap();
        let c2 = orb.instantiate(ty).unwrap();
        let if2 = orb.publish(c2, 0, Rights::PUBLIC, 0).unwrap();
        assert_eq!(orb.invoke(caller, if2, &[]).unwrap().result, 7);
    }

    #[test]
    fn publishing_an_unverified_entry_is_refused() {
        let (mut orb, _caller, _iface) = orb_with_pair(null_service(), 0);
        let ty = orb.load_type("svc", &null_service()).unwrap();
        let inst = orb.instantiate(ty).unwrap();
        assert_eq!(
            orb.publish(inst, 1, Rights::PUBLIC, 0).unwrap_err(),
            OrbError::UnverifiedEntry { type_id: ty, entry: 1 }
        );
    }

    #[test]
    fn runaway_callee_is_stopped() {
        let spin = machine::isa::Program::new(vec![Instr::Jmp(0)]).to_bytes();
        let (mut orb, caller, iface) = orb_with_pair(spin, 0);
        assert_eq!(orb.invoke(caller, iface, &[]).unwrap_err(), OrbError::CalleeRunaway);
    }

    #[test]
    fn protection_bytes_are_32_per_interface_plus_segments() {
        let (orb, _, _) = orb_with_pair(null_service(), 0);
        // 1 interface × 32 B + 6 segment descriptors × 8 B (2 types' code +
        // 2 instances × data+stack).
        assert_eq!(orb.protection_bytes(), 32 + 6 * 8);
    }

    /// Denies a fixed set of call indices.
    #[derive(Debug)]
    struct DropCalls(std::collections::BTreeSet<u64>);

    impl InvokeFaults for DropCalls {
        fn deny(&mut self, i: u64, _c: ComponentId, _f: InterfaceId) -> Option<String> {
            self.0.contains(&i).then(|| format!("call {i} dropped"))
        }
    }

    #[test]
    fn injected_invocation_faults_are_contained_and_disarmable() {
        let (mut orb, caller, iface) = orb_with_pair(null_service(), 0);
        orb.invoke(caller, iface, &[]).unwrap(); // call 0
        let cycles_before = orb.cycles();
        orb.arm_faults(Box::new(DropCalls([1, 2].into())));
        for _ in 0..2 {
            assert!(matches!(
                orb.invoke(caller, iface, &[]),
                Err(OrbError::Injected { ref reason }) if reason.contains("dropped")
            ));
        }
        // An injected failure happens before the thread migrates: no cycles
        // were charged and the ORB is fully functional afterwards.
        assert_eq!(orb.cycles(), cycles_before);
        assert_eq!(orb.invoke(caller, iface, &[]).unwrap().result, 7);
        orb.faults = None;
        assert_eq!(orb.invoke(caller, iface, &[]).unwrap().result, 7);
        assert_eq!(orb.invocations(), 5);
    }

    #[test]
    fn breakdown_sums_to_cycles() {
        let (mut orb, caller, iface) = orb_with_pair(null_service(), 0);
        let out = orb.invoke(caller, iface, &[]).unwrap();
        let breakdown = orb.last_breakdown();
        let sum: Cycles = breakdown.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, out.cycles);
        assert!(breakdown.iter().any(|(l, _)| *l == "seg-reg-load"));
    }

    #[test]
    fn oversized_summary_is_refused_at_link_time() {
        // Verified cleanly under a generous 64 KiB data grant...
        let roomy = SisrVerifier::with_limits(
            CostModel::pentium(),
            Limits { data_bytes: 64 * 1024, ..Limits::default() },
        );
        let img = roomy
            .verify_program(&machine::isa::Program::new(vec![
                Instr::MovImm(0, 8192),
                Instr::Store(0, 0),
                Instr::Halt,
            ]))
            .expect("clean under roomy limits");
        // ...but this ORB only grants 4 KiB data segments, and the summary
        // says so before any instance exists.
        let mut orb = Orb::new(1 << 20, CostModel::pentium());
        assert_eq!(
            orb.install_type(img).unwrap_err(),
            OrbError::SummaryExceedsGrant {
                head: 0,
                grant: "data",
                claimed: 8196,
                limit: u64::from(DATA_SEG_BYTES)
            }
        );
        assert_eq!(orb.components(), 0);
    }

    #[test]
    fn in_grant_summaries_link_cleanly() {
        let (orb, _, _) = orb_with_pair(null_service(), 0);
        for ty in &orb.types {
            orb.check_summaries(&ty.image).expect("own-grant images always fit");
            assert!(!ty.image.summaries().is_empty(), "accepted images carry summaries");
        }
    }

    /// An ORB booted the way the Database Machine boots its own: stub
    /// (`Halt`-only) texts for caller and callee.
    fn stub_orb(arg_words: u16) -> (Orb, ComponentId, InterfaceId) {
        let stub = machine::isa::Program::new(vec![Instr::Halt]).to_bytes();
        orb_with_pair(stub, arg_words)
    }

    /// The Figure 6 anatomy of a null call (EXPERIMENTS.md): labels, order
    /// and values.
    const NULL_CALL_ANATOMY: [(&str, Cycles); 6] = [
        ("branch", 2),
        ("load", 28),
        ("alu", 8),
        ("store", 16),
        ("seg-reg-load", 6),
        ("branch-indirect", 10),
    ];

    #[test]
    fn null_call_anatomy_is_pinned_on_the_first_and_thousandth_call() {
        let (mut orb, caller, iface) = stub_orb(0);
        let first = orb.invoke(caller, iface, &[]).unwrap();
        assert_eq!(orb.last_breakdown(), NULL_CALL_ANATOMY);
        assert_eq!(first.cycles, 70);
        for _ in 1..999 {
            orb.invoke(caller, iface, &[]).unwrap();
        }
        let thousandth = orb.invoke(caller, iface, &[]).unwrap();
        assert_eq!(orb.last_breakdown(), NULL_CALL_ANATOMY);
        assert_eq!(thousandth.cycles, 70);
        assert_eq!(orb.cycles(), 70_000);
        assert_eq!(orb.invocations(), 1_000);
    }

    #[test]
    fn a_three_word_call_copies_the_word_past_the_registers() {
        let (mut orb, caller, iface) = stub_orb(3);
        let out = orb.invoke(caller, iface, &[1, 2, 3]).unwrap();
        assert_eq!(
            orb.last_breakdown(),
            [
                ("branch", 2),
                ("load", 28),
                ("alu", 8),
                ("store", 16),
                ("copy", 3),
                ("seg-reg-load", 6),
                ("branch-indirect", 10),
            ]
        );
        assert_eq!(out.cycles, 73);
    }

    /// `orb.cycles()` charged by one failing `invoke`.
    fn failed_call_cycles(
        orb: &mut Orb,
        caller: ComponentId,
        iface: InterfaceId,
        args: &[u32],
    ) -> (OrbError, Cycles) {
        let before = orb.cycles();
        let err = orb.invoke(caller, iface, args).unwrap_err();
        (err, orb.cycles() - before)
    }

    #[test]
    fn every_error_return_charges_exactly_its_share_of_the_path() {
        // Refused before the rights check: the indirect plus the
        // descriptor fetch.
        let (mut orb, caller, iface) = stub_orb(0);
        let (err, cycles) = failed_call_cycles(&mut orb, caller, InterfaceId(99), &[]);
        assert_eq!((err, cycles), (OrbError::NoSuchInterface(InterfaceId(99)), 9));
        assert_eq!(orb.last_breakdown(), [("branch", 1), ("load", 8)], "a failure's own anatomy");
        // Refused at the rights check: + four compares and a branch.
        let (err, cycles) = failed_call_cycles(&mut orb, ComponentId(99), iface, &[]);
        assert_eq!((err, cycles), (OrbError::NoSuchComponent(ComponentId(99)), 14));
        let (err, cycles) = failed_call_cycles(&mut orb, caller, iface, &[1]);
        assert_eq!((err, cycles), (OrbError::BadArity { expected: 0, got: 1 }, 14));
        let sealed = orb.publish(ComponentId(1), 0, Rights::BOUND_ONLY, 0).unwrap();
        let (err, cycles) = failed_call_cycles(&mut orb, caller, sealed, &[]);
        assert_eq!((err, cycles), (OrbError::AccessDenied { caller, iface: sealed }, 14));

        // A contained fault pays the whole round trip; the faulting store
        // itself is refused before it is charged.
        let wild = machine::isa::Program::new(vec![Instr::Store(0, 1), Instr::Halt]).to_bytes();
        let (mut orb, caller, iface) = orb_with_pair(wild, 1);
        let (err, cycles) = failed_call_cycles(&mut orb, caller, iface, &[100_000]);
        assert!(matches!(err, OrbError::CalleeFault(CpuError::Segment(_))), "{err:?}");
        assert_eq!(cycles, 70);

        // A runaway pays the round trip plus every branch of its fuel.
        let spin = machine::isa::Program::new(vec![Instr::Jmp(0)]).to_bytes();
        let (mut orb, caller, iface) = orb_with_pair(spin, 0);
        let (err, cycles) = failed_call_cycles(&mut orb, caller, iface, &[]);
        assert_eq!((err, cycles), (OrbError::CalleeRunaway, 70 + Cycles::from(CALL_FUEL)));

        // An injected failure is refused before the thread migrates.
        let (mut orb, caller, iface) = stub_orb(0);
        orb.arm_faults(Box::new(DropCalls([0].into())));
        let (err, cycles) = failed_call_cycles(&mut orb, caller, iface, &[]);
        assert!(matches!(err, OrbError::Injected { .. }), "{err:?}");
        assert_eq!(cycles, 0);
        assert!(orb.last_breakdown().is_empty());
    }

    #[test]
    fn seg_load_cost_is_six_per_round_trip() {
        // 3 loads in, 3 loads back — the paper's "3 cycles" context switch,
        // twice.
        let (mut orb, caller, iface) = orb_with_pair(null_service(), 0);
        orb.invoke(caller, iface, &[]).unwrap();
        let seg: Cycles =
            orb.last_breakdown().iter().filter(|(l, _)| *l == "seg-reg-load").map(|(_, v)| v).sum();
        assert_eq!(seg, 6);
    }
}
