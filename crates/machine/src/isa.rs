//! The simulated instruction set.
//!
//! SISR (Software-based Instruction-Set Reduction) works by scanning a
//! component's text section at load time and rejecting it if it contains any
//! instruction that could subvert protection. For that to be meaningful the
//! machine needs a concrete instruction set in which "privileged" is a
//! decidable, syntactic property of an instruction — exactly as on IA32,
//! where `mov %ds`, `cli`, `lgdt`, `in`/`out` are identifiable opcodes.
//!
//! Instructions also have a fixed binary encoding ([`Instr::encode`] /
//! [`Instr::decode`]) so the scanner in `gokernel` can operate over raw text
//! bytes the way a real verifier would, and so a malicious component cannot
//! smuggle a privileged opcode past a scanner that only sees bytes.

use crate::seg::SegReg;

/// A register name. The machine has eight general-purpose registers,
/// mirroring IA32's `eax..edi`.
pub(crate) type Reg = u8;

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 8;

/// One instruction of the simulated ISA.
///
/// The unprivileged subset is deliberately small but sufficient to express
/// real computation (ALU ops, memory access, control flow, procedure calls).
/// The privileged subset mirrors the IA32 instructions that SISR's scanner
/// must reject from user components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// No operation.
    Nop,
    /// `dst <- imm`.
    MovImm(Reg, u32),
    /// `dst <- src`.
    MovReg(Reg, Reg),
    /// `dst <- dst + src`, wrapping.
    Add(Reg, Reg),
    /// `dst <- dst - src`, wrapping.
    Sub(Reg, Reg),
    /// `dst <- dst ^ src`.
    Xor(Reg, Reg),
    /// `dst <- mem[addr_reg]` (a data-segment relative load).
    Load(Reg, Reg),
    /// `mem[addr_reg] <- src` (a data-segment relative store).
    Store(Reg, Reg),
    /// Relative jump: `pc <- pc + off` (off is in instructions).
    Jmp(i32),
    /// Conditional relative jump if `reg == 0`.
    Jz(Reg, i32),
    /// Push a register on the stack segment.
    Push(Reg),
    /// Pop a register off the stack segment.
    Pop(Reg),
    /// Call a procedure at an absolute instruction address in the current
    /// code segment; pushes the return address.
    Call(u32),
    /// Return from a procedure; pops the return address.
    Ret,
    /// Software trap (like IA32 `int n`): the only legal way for user code
    /// under a trap-based kernel to request service. Unprivileged.
    Trap(u8),
    /// Halt the CPU. Unprivileged programs use it to signal completion.
    Halt,

    // ---- privileged instructions (SISR scanner targets) ----
    /// Load a segment register from a general register holding a selector.
    /// This *is* the Go! context switch — and precisely the instruction SISR
    /// must prevent ordinary components from containing.
    LoadSegReg(SegReg, Reg),
    /// Disable interrupts (IA32 `cli`).
    Cli,
    /// Enable interrupts (IA32 `sti`).
    Sti,
    /// Load the page-table base register (IA32 `mov %cr3`), flushing the TLB.
    LoadPageTable(Reg),
    /// Read from an I/O port into a register.
    IoIn(Reg, u16),
    /// Write a register to an I/O port.
    IoOut(Reg, u16),
    /// Return from a trap handler (IA32 `iret`).
    Iret,
}

/// Control-flow classification of an instruction — what a load-time
/// verifier's CFG builder needs to know about where execution can go next.
///
/// The classification mirrors the CPU's `step` exactly: relative offsets are
/// in instruction units and wrap (like the hardware's 32-bit PC adder), calls
/// are absolute within the code segment, and `Trap`/`Halt` end the current
/// activation (a trap suspends to the kernel; whether it is ever resumed is
/// the kernel's business, not the verified component's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Falls through to `pc + 1`.
    Fall,
    /// Unconditional PC-relative jump by the offset.
    Jump(i32),
    /// Conditional PC-relative jump: either falls through or jumps.
    Branch(i32),
    /// Absolute call; the callee eventually returns to `pc + 1`.
    Call(u32),
    /// Pops the call stack.
    Ret,
    /// Ends the activation (`Halt`, `Trap`).
    Exit,
}

/// A PC-relative branch target, computed exactly as the CPU computes it: a
/// wrapping 32-bit add in instruction units.
#[must_use]
pub fn rel_target(pc: u32, off: i32) -> u32 {
    pc.wrapping_add(off as u32)
}

impl Instr {
    /// Whether this instruction is privileged, i.e. may only execute in
    /// kernel mode on a trap-based kernel, and must be absent from any
    /// SISR-verified component text.
    #[must_use]
    pub fn is_privileged(self) -> bool {
        matches!(
            self,
            Instr::LoadSegReg(_, _)
                | Instr::Cli
                | Instr::Sti
                | Instr::LoadPageTable(_)
                | Instr::IoIn(_, _)
                | Instr::IoOut(_, _)
                | Instr::Iret
        )
    }

    /// The control-flow class of this instruction (see [`Flow`]).
    ///
    /// Privileged instructions never reach a verifier's CFG builder (the
    /// decode pass rejects them first); classifying them as [`Flow::Fall`]
    /// keeps this function total.
    #[must_use]
    pub fn flow(self) -> Flow {
        match self {
            Instr::Jmp(off) => Flow::Jump(off),
            Instr::Jz(_, off) => Flow::Branch(off),
            Instr::Call(t) => Flow::Call(t),
            Instr::Ret => Flow::Ret,
            Instr::Halt | Instr::Trap(_) => Flow::Exit,
            _ => Flow::Fall,
        }
    }

    /// Encode the instruction into its fixed 8-byte binary form:
    /// `[opcode, a, b, imm0, imm1, imm2, imm3, 0]`.
    #[must_use]
    pub fn encode(self) -> [u8; 8] {
        let (op, a, b, imm): (u8, u8, u8, u32) = match self {
            Instr::Nop => (0x00, 0, 0, 0),
            Instr::MovImm(d, i) => (0x01, d, 0, i),
            Instr::MovReg(d, s) => (0x02, d, s, 0),
            Instr::Add(d, s) => (0x03, d, s, 0),
            Instr::Sub(d, s) => (0x04, d, s, 0),
            Instr::Xor(d, s) => (0x05, d, s, 0),
            Instr::Load(d, a_) => (0x06, d, a_, 0),
            Instr::Store(a_, s) => (0x07, a_, s, 0),
            Instr::Jmp(off) => (0x08, 0, 0, off as u32),
            Instr::Jz(r, off) => (0x09, r, 0, off as u32),
            Instr::Push(r) => (0x0a, r, 0, 0),
            Instr::Pop(r) => (0x0b, r, 0, 0),
            Instr::Call(t) => (0x0c, 0, 0, t),
            Instr::Ret => (0x0d, 0, 0, 0),
            Instr::Trap(n) => (0x0e, n, 0, 0),
            Instr::Halt => (0x0f, 0, 0, 0),
            Instr::LoadSegReg(sr, r) => (0x80, sr as u8, r, 0),
            Instr::Cli => (0x81, 0, 0, 0),
            Instr::Sti => (0x82, 0, 0, 0),
            Instr::LoadPageTable(r) => (0x83, r, 0, 0),
            Instr::IoIn(r, p) => (0x84, r, 0, u32::from(p)),
            Instr::IoOut(r, p) => (0x85, r, 0, u32::from(p)),
            Instr::Iret => (0x86, 0, 0, 0),
        };
        let i = imm.to_le_bytes();
        [op, a, b, i[0], i[1], i[2], i[3], 0]
    }

    /// Decode an instruction from its 8-byte binary form.
    ///
    /// Returns `None` for undefined opcodes or malformed operands — a real
    /// verifier must treat undecodable bytes as a rejection, never as a
    /// silently-skipped gap.
    #[must_use]
    pub fn decode(bytes: [u8; 8]) -> Option<Instr> {
        let (op, a, b) = (bytes[0], bytes[1], bytes[2]);
        let imm = u32::from_le_bytes([bytes[3], bytes[4], bytes[5], bytes[6]]);
        let reg_ok = |r: u8| (r as usize) < NUM_REGS;
        let instr = match op {
            0x00 => Instr::Nop,
            0x01 if reg_ok(a) => Instr::MovImm(a, imm),
            0x02 if reg_ok(a) && reg_ok(b) => Instr::MovReg(a, b),
            0x03 if reg_ok(a) && reg_ok(b) => Instr::Add(a, b),
            0x04 if reg_ok(a) && reg_ok(b) => Instr::Sub(a, b),
            0x05 if reg_ok(a) && reg_ok(b) => Instr::Xor(a, b),
            0x06 if reg_ok(a) && reg_ok(b) => Instr::Load(a, b),
            0x07 if reg_ok(a) && reg_ok(b) => Instr::Store(a, b),
            0x08 => Instr::Jmp(imm as i32),
            0x09 if reg_ok(a) => Instr::Jz(a, imm as i32),
            0x0a if reg_ok(a) => Instr::Push(a),
            0x0b if reg_ok(a) => Instr::Pop(a),
            0x0c => Instr::Call(imm),
            0x0d => Instr::Ret,
            0x0e => Instr::Trap(a),
            0x0f => Instr::Halt,
            0x80 => Instr::LoadSegReg(SegReg::from_u8(a)?, if reg_ok(b) { b } else { return None }),
            0x81 => Instr::Cli,
            0x82 => Instr::Sti,
            0x83 if reg_ok(a) => Instr::LoadPageTable(a),
            0x84 if reg_ok(a) => Instr::IoIn(a, imm as u16),
            0x85 if reg_ok(a) => Instr::IoOut(a, imm as u16),
            0x86 => Instr::Iret,
            _ => return None,
        };
        Some(instr)
    }
}

/// A program: a text section of decoded instructions.
///
/// Components carry their text both decoded (for execution) and encoded (for
/// the SISR scanner, which must work from bytes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    text: Vec<Instr>,
}

impl Program {
    /// Build a program from instructions.
    #[must_use]
    pub fn new(text: Vec<Instr>) -> Self {
        Self { text }
    }

    /// The instructions.
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.text
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Serialise the text section to bytes (8 bytes per instruction).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.text.len() * 8);
        for i in &self.text {
            out.extend_from_slice(&i.encode());
        }
        out
    }

    /// Deserialise a text section from bytes.
    ///
    /// Returns `None` if the byte length is not a multiple of 8 or any
    /// 8-byte word fails to decode.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let mut text = Vec::with_capacity(bytes.len() / 8);
        for chunk in bytes.chunks_exact(8) {
            let mut w = [0u8; 8];
            w.copy_from_slice(chunk);
            text.push(Instr::decode(w)?);
        }
        Some(Self { text })
    }

    /// Whether any instruction in the text is privileged.
    #[must_use]
    pub fn contains_privileged(&self) -> bool {
        self.text.iter().any(|i| i.is_privileged())
    }

    /// The statically-known successor PCs of the instruction at `pc`, in the
    /// order the CPU would prefer them (fall-through first). Targets are
    /// *not* bounds-checked — a verifier wants the raw values so it can
    /// report exactly which edge escapes the text. `Ret` has no static
    /// successors (its target lives on the call stack), and an out-of-range
    /// `pc` has none.
    #[must_use]
    pub fn successors(&self, pc: u32) -> Vec<u32> {
        let Some(&instr) = self.text.get(pc as usize) else {
            return Vec::new();
        };
        match instr.flow() {
            Flow::Fall => vec![pc.wrapping_add(1)],
            Flow::Jump(off) => vec![rel_target(pc, off)],
            Flow::Branch(off) => vec![pc.wrapping_add(1), rel_target(pc, off)],
            Flow::Call(t) => vec![t],
            Flow::Ret | Flow::Exit => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<Instr> {
        vec![
            Instr::Nop,
            Instr::MovImm(3, 0xdead_beef),
            Instr::MovReg(1, 2),
            Instr::Add(0, 7),
            Instr::Sub(4, 4),
            Instr::Xor(5, 6),
            Instr::Load(2, 3),
            Instr::Store(3, 2),
            Instr::Jmp(-5),
            Instr::Jz(1, 9),
            Instr::Push(6),
            Instr::Pop(6),
            Instr::Call(42),
            Instr::Ret,
            Instr::Trap(0x30),
            Instr::Halt,
            Instr::LoadSegReg(SegReg::Cs, 1),
            Instr::LoadSegReg(SegReg::Ds, 2),
            Instr::LoadSegReg(SegReg::Ss, 3),
            Instr::Cli,
            Instr::Sti,
            Instr::LoadPageTable(0),
            Instr::IoIn(1, 0x3f8),
            Instr::IoOut(2, 0x3f8),
            Instr::Iret,
        ]
    }

    #[test]
    fn encode_decode_roundtrip_all_variants() {
        for i in all_variants() {
            assert_eq!(Instr::decode(i.encode()), Some(i), "{i:?}");
        }
    }

    #[test]
    fn privileged_classification_matches_spec() {
        let priv_count = all_variants().iter().filter(|i| i.is_privileged()).count();
        // 3 seg-reg loads + cli + sti + lpt + in + out + iret = 9.
        assert_eq!(priv_count, 9);
        assert!(!Instr::Trap(0).is_privileged(), "traps are how user code *enters* the kernel");
    }

    #[test]
    fn undefined_opcode_rejected() {
        assert_eq!(Instr::decode([0x7f, 0, 0, 0, 0, 0, 0, 0]), None);
        assert_eq!(Instr::decode([0xff, 0, 0, 0, 0, 0, 0, 0]), None);
    }

    #[test]
    fn out_of_range_register_rejected() {
        // MovImm with register 8 (only 0..=7 exist).
        assert_eq!(Instr::decode([0x01, 8, 0, 0, 0, 0, 0, 0]), None);
        // LoadSegReg with bad segment register code.
        assert_eq!(Instr::decode([0x80, 9, 0, 0, 0, 0, 0, 0]), None);
    }

    #[test]
    fn program_bytes_roundtrip() {
        let p = Program::new(all_variants());
        let bytes = p.to_bytes();
        assert_eq!(Program::from_bytes(&bytes), Some(p));
    }

    #[test]
    fn program_from_misaligned_bytes_fails() {
        assert_eq!(Program::from_bytes(&[0u8; 7]), None);
        assert!(Program::from_bytes(&[]).is_some(), "empty program is valid");
    }

    #[test]
    fn contains_privileged_detects_deep_instruction() {
        let mut text = vec![Instr::Nop; 100];
        assert!(!Program::new(text.clone()).contains_privileged());
        text.push(Instr::Cli);
        assert!(Program::new(text).contains_privileged());
    }

    #[test]
    fn flow_classification_matches_cpu_semantics() {
        assert_eq!(Instr::Nop.flow(), Flow::Fall);
        assert_eq!(Instr::Load(0, 1).flow(), Flow::Fall);
        assert_eq!(Instr::Jmp(-3).flow(), Flow::Jump(-3));
        assert_eq!(Instr::Jz(2, 5).flow(), Flow::Branch(5));
        assert_eq!(Instr::Call(9).flow(), Flow::Call(9));
        assert_eq!(Instr::Ret.flow(), Flow::Ret);
        assert_eq!(Instr::Halt.flow(), Flow::Exit);
        assert_eq!(Instr::Trap(0x30).flow(), Flow::Exit);
    }

    #[test]
    fn rel_target_wraps_like_the_pc_adder() {
        assert_eq!(rel_target(10, -3), 7);
        assert_eq!(rel_target(0, -1), u32::MAX, "backward wrap matches add_signed");
        assert_eq!(rel_target(u32::MAX, 1), 0);
    }

    #[test]
    fn successors_enumerate_cfg_edges() {
        let p = Program::new(vec![
            Instr::Nop,      // 0 -> 1
            Instr::Jz(0, 2), // 1 -> 2, 3
            Instr::Jmp(-2),  // 2 -> 0
            Instr::Call(6),  // 3 -> 6 (returns to 4)
            Instr::Halt,     // 4 -> (exit)
            Instr::Nop,      // 5 -> 6
            Instr::Ret,      // 6 -> (call stack)
        ]);
        assert_eq!(p.successors(0), vec![1]);
        assert_eq!(p.successors(1), vec![2, 3]);
        assert_eq!(p.successors(2), vec![0]);
        assert_eq!(p.successors(3), vec![6]);
        assert_eq!(p.successors(4), Vec::<u32>::new());
        assert_eq!(p.successors(6), Vec::<u32>::new());
        assert_eq!(p.successors(99), Vec::<u32>::new(), "out-of-range pc has no edges");
    }
}
