//! The simulated CPU.
//!
//! Executes [`Program`]s against the segmentation unit and the cost model,
//! faulting exactly where real hardware would:
//!
//! * a privileged instruction in user mode raises a privilege violation —
//!   this is the behaviour SISR *replaces* with load-time scanning, and the
//!   property tests in `gokernel` verify the two mechanisms agree;
//! * loads/stores are limit- and kind-checked through the current data or
//!   stack segment;
//! * `Trap(n)` suspends execution and reports the trap to the caller (the
//!   kernel being simulated).

use crate::cost::{CostModel, CycleCounter, Cycles, Primitive};
use crate::isa::{Instr, Program, NUM_REGS};
use crate::seg::{SegError, SegReg, SegmentTable, Selector};

/// Processor mode. Go!/SISR machines run everything in a single mode;
/// trap-based kernels split user from kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unprivileged.
    User,
    /// Privileged.
    Kernel,
}

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// `Halt` executed.
    Halted,
    /// A software trap; the kernel should service it and may resume.
    Trap(u8),
    /// The step budget ran out (runaway program).
    OutOfFuel,
}

/// A fault: the hardware refused to continue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuError {
    /// Privileged instruction in user mode.
    PrivilegeViolation {
        /// Program counter of the offending instruction.
        pc: u32,
        /// The instruction itself.
        instr: Instr,
    },
    /// A segmentation violation.
    Segment(SegError),
    /// Control transfer outside the text section.
    BadPc(u32),
    /// Pop or Ret on an empty stack.
    StackUnderflow,
    /// The machine-level stack overflowed its segment.
    StackOverflow,
}

impl From<SegError> for CpuError {
    fn from(e: SegError) -> Self {
        CpuError::Segment(e)
    }
}

/// The CPU state: registers, segment selectors, physical memory, mode, and
/// the cycle counter every executed instruction charges into.
#[derive(Debug)]
pub struct Cpu {
    /// General-purpose registers.
    pub regs: [u32; NUM_REGS],
    mode: Mode,
    cs: Option<Selector>,
    ds: Option<Selector>,
    ss: Option<Selector>,
    mem: Vec<u8>,
    call_stack: Vec<u32>,
    /// Stack pointer (offset into the stack segment), grows up in this model.
    sp: u32,
    counter: CycleCounter,
    model: CostModel,
    pending: Option<Pending>,
}

impl Cpu {
    /// A CPU with `mem_bytes` of physical memory, starting in the given mode.
    #[must_use]
    pub fn new(mem_bytes: usize, mode: Mode, model: CostModel) -> Self {
        Self {
            regs: [0; NUM_REGS],
            mode,
            cs: None,
            ds: None,
            ss: None,
            mem: vec![0; mem_bytes],
            call_stack: Vec::new(),
            sp: 0,
            counter: CycleCounter::new(),
            model,
            pending: None,
        }
    }

    /// Current mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Point a segment register at a selector without executing an
    /// instruction — used by kernels when setting up a domain. Charges the
    /// descriptor-load cost.
    pub fn load_selector(&mut self, reg: SegReg, sel: Selector) {
        self.charge(Primitive::SegRegLoad);
        match reg {
            SegReg::Cs => self.cs = Some(sel),
            SegReg::Ds => self.ds = Some(sel),
            SegReg::Ss => self.ss = Some(sel),
        }
    }

    /// The selector currently in a segment register.
    #[must_use]
    pub fn selector(&self, reg: SegReg) -> Option<Selector> {
        match reg {
            SegReg::Cs => self.cs,
            SegReg::Ds => self.ds,
            SegReg::Ss => self.ss,
        }
    }

    /// Total cycles this CPU has charged.
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        self.counter.total()
    }

    /// Charge one primitive under this CPU's model.
    pub fn charge(&mut self, p: Primitive) {
        self.counter.charge(p, &self.model);
    }

    /// Mutable access to the cycle counter (kernels charge primitives here).
    pub fn counter_mut(&mut self) -> &mut CycleCounter {
        &mut self.counter
    }

    /// The cycle counter.
    #[must_use]
    pub fn counter(&self) -> &CycleCounter {
        &self.counter
    }

    /// The cost model.
    #[must_use]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Read-only view of physical memory — for isolation verification: a
    /// program running behind segment `[base, base+limit)` must leave every
    /// byte outside that window untouched.
    #[must_use]
    pub fn memory(&self) -> &[u8] {
        &self.mem
    }

    fn read_u32(&mut self, segs: &SegmentTable, sel: Selector, off: u32) -> Result<u32, CpuError> {
        let phys = segs.access(sel, off, 4, false, false)? as usize;
        if phys + 4 > self.mem.len() {
            return Err(CpuError::Segment(SegError::LimitViolation { selector: sel, offset: off }));
        }
        self.charge(Primitive::Load);
        Ok(u32::from_le_bytes([
            self.mem[phys],
            self.mem[phys + 1],
            self.mem[phys + 2],
            self.mem[phys + 3],
        ]))
    }

    fn write_u32(
        &mut self,
        segs: &SegmentTable,
        sel: Selector,
        off: u32,
        val: u32,
    ) -> Result<(), CpuError> {
        let phys = segs.access(sel, off, 4, true, false)? as usize;
        if phys + 4 > self.mem.len() {
            return Err(CpuError::Segment(SegError::LimitViolation { selector: sel, offset: off }));
        }
        self.charge(Primitive::Store);
        self.mem[phys..phys + 4].copy_from_slice(&val.to_le_bytes());
        Ok(())
    }

    /// Run `program` from `pc = 0` until halt, trap, fault, or fuel
    /// exhaustion. Loads and stores go through the current `ds` selector;
    /// push/pop through `ss`.
    ///
    /// # Errors
    /// A [`CpuError`] fault, including privilege violations in user mode —
    /// the hardware behaviour SISR's scanner makes unreachable for verified
    /// components.
    pub fn run(
        &mut self,
        program: &Program,
        segs: &SegmentTable,
        fuel: u32,
    ) -> Result<Stop, CpuError> {
        self.run_from(program, segs, 0, fuel)
    }

    /// Like [`Self::run`] but starting at an arbitrary entry point — the ORB
    /// dispatches calls to per-interface entry offsets within a type's text.
    ///
    /// # Errors
    /// See [`Self::run`].
    pub fn run_from(
        &mut self,
        program: &Program,
        segs: &SegmentTable,
        entry: u32,
        fuel: u32,
    ) -> Result<Stop, CpuError> {
        let text = program.instrs();
        let mut pc: u32 = entry;
        for _ in 0..fuel {
            let Some(&instr) = text.get(pc as usize) else {
                return Err(CpuError::BadPc(pc));
            };
            if instr.is_privileged() && self.mode == Mode::User {
                return Err(CpuError::PrivilegeViolation { pc, instr });
            }
            pc = self.step(instr, pc, segs)?;
            match self.pending {
                Some(Pending::Halt) => {
                    self.pending = None;
                    return Ok(Stop::Halted);
                }
                Some(Pending::Trap(n)) => {
                    self.pending = None;
                    return Ok(Stop::Trap(n));
                }
                None => {}
            }
        }
        Ok(Stop::OutOfFuel)
    }

    fn step(&mut self, instr: Instr, pc: u32, segs: &SegmentTable) -> Result<u32, CpuError> {
        let mut next = pc.wrapping_add(1);
        match instr {
            Instr::Nop => self.charge(Primitive::Alu),
            Instr::MovImm(d, i) => {
                self.charge(Primitive::Alu);
                self.regs[d as usize] = i;
            }
            Instr::MovReg(d, s) => {
                self.charge(Primitive::Alu);
                self.regs[d as usize] = self.regs[s as usize];
            }
            Instr::Add(d, s) => {
                self.charge(Primitive::Alu);
                self.regs[d as usize] = self.regs[d as usize].wrapping_add(self.regs[s as usize]);
            }
            Instr::Sub(d, s) => {
                self.charge(Primitive::Alu);
                self.regs[d as usize] = self.regs[d as usize].wrapping_sub(self.regs[s as usize]);
            }
            Instr::Xor(d, s) => {
                self.charge(Primitive::Alu);
                self.regs[d as usize] ^= self.regs[s as usize];
            }
            Instr::Load(d, a) => {
                let sel = self.ds.ok_or(CpuError::Segment(SegError::BadSelector(Selector(0))))?;
                let off = self.regs[a as usize];
                self.regs[d as usize] = self.read_u32(segs, sel, off)?;
            }
            Instr::Store(a, s) => {
                let sel = self.ds.ok_or(CpuError::Segment(SegError::BadSelector(Selector(0))))?;
                let off = self.regs[a as usize];
                let val = self.regs[s as usize];
                self.write_u32(segs, sel, off, val)?;
            }
            Instr::Jmp(off) => {
                self.charge(Primitive::Branch);
                next = add_signed(pc, off);
            }
            Instr::Jz(r, off) => {
                self.charge(Primitive::Branch);
                if self.regs[r as usize] == 0 {
                    next = add_signed(pc, off);
                }
            }
            Instr::Push(r) => {
                let sel = self.ss.ok_or(CpuError::StackOverflow)?;
                let off = self.sp;
                let val = self.regs[r as usize];
                self.write_u32(segs, sel, off, val).map_err(|_| CpuError::StackOverflow)?;
                self.sp += 4;
            }
            Instr::Pop(r) => {
                if self.sp < 4 {
                    return Err(CpuError::StackUnderflow);
                }
                let sel = self.ss.ok_or(CpuError::StackUnderflow)?;
                self.sp -= 4;
                let off = self.sp;
                self.regs[r as usize] = self.read_u32(segs, sel, off)?;
            }
            Instr::Call(t) => {
                self.charge(Primitive::Branch);
                self.call_stack.push(next);
                next = t;
            }
            Instr::Ret => {
                self.charge(Primitive::BranchIndirect);
                next = self.call_stack.pop().ok_or(CpuError::StackUnderflow)?;
            }
            Instr::Trap(n) => {
                self.pending = Some(Pending::Trap(n));
            }
            Instr::Halt => {
                self.pending = Some(Pending::Halt);
            }
            // Privileged — only reachable in kernel mode (checked in run()).
            Instr::LoadSegReg(sr, r) => {
                let sel = Selector(self.regs[r as usize] as u16);
                self.load_selector(sr, sel);
            }
            Instr::Cli | Instr::Sti => self.charge(Primitive::Alu),
            Instr::LoadPageTable(_) => self.charge(Primitive::PageTableSwitch),
            Instr::IoIn(r, _) => {
                self.charge(Primitive::Load);
                self.regs[r as usize] = 0;
            }
            Instr::IoOut(_, _) => self.charge(Primitive::Store),
            Instr::Iret => self.charge(Primitive::TrapExit),
        }
        Ok(next)
    }
}

/// Deferred stop reason set by `step`, consumed by `run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    Halt,
    Trap(u8),
}

fn add_signed(pc: u32, off: i32) -> u32 {
    pc.wrapping_add(off as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seg::{Segment, SegmentKind};

    fn setup() -> (Cpu, SegmentTable) {
        setup_in(Mode::User)
    }

    fn setup_in(mode: Mode) -> (Cpu, SegmentTable) {
        let mut segs = SegmentTable::new();
        let data = segs.install(Segment { base: 0, limit: 256, kind: SegmentKind::Data }).unwrap();
        let stack =
            segs.install(Segment { base: 256, limit: 256, kind: SegmentKind::Stack }).unwrap();
        let mut cpu = Cpu::new(4096, mode, CostModel::pentium());
        cpu.load_selector(SegReg::Ds, data);
        cpu.load_selector(SegReg::Ss, stack);
        (cpu, segs)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (mut cpu, segs) = setup();
        let p = Program::new(vec![
            Instr::MovImm(0, 40),
            Instr::MovImm(1, 2),
            Instr::Add(0, 1),
            Instr::Halt,
        ]);
        assert_eq!(cpu.run(&p, &segs, 100), Ok(Stop::Halted));
        assert_eq!(cpu.regs[0], 42);
    }

    #[test]
    fn load_store_roundtrip_through_segment() {
        let (mut cpu, segs) = setup();
        let p = Program::new(vec![
            Instr::MovImm(0, 16), // address
            Instr::MovImm(1, 99), // value
            Instr::Store(0, 1),
            Instr::MovImm(2, 0),
            Instr::Load(2, 0),
            Instr::Halt,
        ]);
        cpu.run(&p, &segs, 100).unwrap();
        assert_eq!(cpu.regs[2], 99);
    }

    #[test]
    fn privileged_instruction_faults_in_user_mode() {
        let (mut cpu, segs) = setup();
        let p = Program::new(vec![Instr::Nop, Instr::Cli, Instr::Halt]);
        let err = cpu.run(&p, &segs, 100).unwrap_err();
        assert_eq!(err, CpuError::PrivilegeViolation { pc: 1, instr: Instr::Cli });
    }

    #[test]
    fn privileged_instruction_allowed_in_kernel_mode() {
        let (mut cpu, segs) = setup_in(Mode::Kernel);
        let p = Program::new(vec![Instr::Cli, Instr::Sti, Instr::Halt]);
        assert_eq!(cpu.run(&p, &segs, 100), Ok(Stop::Halted));
    }

    #[test]
    fn out_of_segment_store_faults() {
        let (mut cpu, segs) = setup();
        let p = Program::new(vec![Instr::MovImm(0, 600), Instr::Store(0, 0), Instr::Halt]);
        assert!(matches!(cpu.run(&p, &segs, 100), Err(CpuError::Segment(_))));
    }

    #[test]
    fn trap_suspends_execution() {
        let (mut cpu, segs) = setup();
        let p = Program::new(vec![Instr::MovImm(0, 7), Instr::Trap(0x30)]);
        assert_eq!(cpu.run(&p, &segs, 100), Ok(Stop::Trap(0x30)));
        assert_eq!(cpu.regs[0], 7, "registers preserved across trap");
    }

    #[test]
    fn push_pop_and_calls() {
        let (mut cpu, segs) = setup();
        // main: push 5; call f(3); pop back; halt.   f: at index 5: add, ret.
        let p = Program::new(vec![
            Instr::MovImm(0, 5),
            Instr::Push(0),
            Instr::Call(5),
            Instr::Pop(1),
            Instr::Halt,
            // f:
            Instr::MovImm(2, 1),
            Instr::Ret,
        ]);
        cpu.run(&p, &segs, 100).unwrap();
        assert_eq!(cpu.regs[1], 5);
        assert_eq!(cpu.regs[2], 1);
    }

    #[test]
    fn pop_empty_stack_underflows() {
        let (mut cpu, segs) = setup();
        let p = Program::new(vec![Instr::Pop(0)]);
        assert_eq!(cpu.run(&p, &segs, 100), Err(CpuError::StackUnderflow));
    }

    #[test]
    fn runaway_program_runs_out_of_fuel() {
        let (mut cpu, segs) = setup();
        let p = Program::new(vec![Instr::Jmp(0)]);
        assert_eq!(cpu.run(&p, &segs, 10), Ok(Stop::OutOfFuel));
    }

    #[test]
    fn jump_off_text_is_bad_pc() {
        let (mut cpu, segs) = setup();
        let p = Program::new(vec![Instr::Jmp(100)]);
        assert!(matches!(cpu.run(&p, &segs, 10), Err(CpuError::BadPc(_))));
    }

    #[test]
    fn cycles_accumulate_per_instruction() {
        let (mut cpu, segs) = setup();
        let before = cpu.cycles();
        let p = Program::new(vec![Instr::Nop, Instr::Nop, Instr::Halt]);
        cpu.run(&p, &segs, 10).unwrap();
        assert_eq!(cpu.cycles() - before, 2, "two Nops at 1 cycle each; Halt free");
    }
}
