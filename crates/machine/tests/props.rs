//! Property tests for the machine substrate.

use adm_rng::{run_cases, Pcg32};
use machine::isa::{Instr, Program};
use machine::seg::{SegReg, Segment, SegmentKind};

fn reg(rng: &mut Pcg32) -> u8 {
    rng.below(8) as u8
}

/// Any instruction, privileged or not.
fn any_instr(rng: &mut Pcg32) -> Instr {
    match rng.below(23) {
        0 => Instr::Nop,
        1 => Instr::MovImm(reg(rng), rng.next_u32()),
        2 => Instr::MovReg(reg(rng), reg(rng)),
        3 => Instr::Add(reg(rng), reg(rng)),
        4 => Instr::Sub(reg(rng), reg(rng)),
        5 => Instr::Xor(reg(rng), reg(rng)),
        6 => Instr::Load(reg(rng), reg(rng)),
        7 => Instr::Store(reg(rng), reg(rng)),
        8 => Instr::Jmp(rng.next_u32() as i32),
        9 => Instr::Jz(reg(rng), rng.next_u32() as i32),
        10 => Instr::Push(reg(rng)),
        11 => Instr::Pop(reg(rng)),
        12 => Instr::Call(rng.next_u32()),
        13 => Instr::Ret,
        14 => Instr::Trap(rng.below(256) as u8),
        15 => Instr::Halt,
        16 => Instr::LoadSegReg(SegReg::from_u8(rng.below(3) as u8).unwrap(), reg(rng)),
        17 => Instr::Cli,
        18 => Instr::Sti,
        19 => Instr::LoadPageTable(reg(rng)),
        20 => Instr::IoIn(reg(rng), rng.below(1 << 16) as u16),
        21 => Instr::IoOut(reg(rng), rng.below(1 << 16) as u16),
        _ => Instr::Iret,
    }
}

fn instr_vec(rng: &mut Pcg32, max_len: usize) -> Vec<Instr> {
    let n = rng.index(max_len + 1);
    (0..n).map(|_| any_instr(rng)).collect()
}

/// Every instruction survives an encode/decode round trip.
#[test]
fn instr_roundtrip() {
    run_cases(0x15a1, 2048, |rng| {
        let i = any_instr(rng);
        assert_eq!(Instr::decode(i.encode()), Some(i));
    });
}

/// Whole programs survive byte serialisation.
#[test]
fn program_roundtrip() {
    run_cases(0x15a2, 256, |rng| {
        let p = Program::new(instr_vec(rng, 200));
        assert_eq!(Program::from_bytes(&p.to_bytes()), Some(p));
    });
}

/// `contains_privileged` over decoded text agrees with scanning the
/// instruction list directly — i.e. nothing is lost in the byte form.
#[test]
fn privilege_scan_survives_bytes() {
    run_cases(0x15a3, 256, |rng| {
        let instrs = instr_vec(rng, 100);
        let p = Program::new(instrs.clone());
        let via_bytes = Program::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(via_bytes.contains_privileged(), instrs.iter().any(|i| i.is_privileged()));
    });
}

/// Segment translation never produces an address outside [base, base+limit].
#[test]
fn translate_stays_in_bounds() {
    run_cases(0x15a4, 2048, |rng| {
        let base = rng.range_u32(0, 1_000_000);
        let limit = rng.range_u32(0, 100_000);
        let off = rng.next_u32();
        let len = rng.range_u32(0, 64);
        let s = Segment { base, limit, kind: SegmentKind::Data };
        if let Some(phys) = s.translate(off, len) {
            assert!(phys >= base);
            assert!(u64::from(phys) + u64::from(len) <= u64::from(base) + u64::from(limit));
        } else {
            // Rejection is only legitimate when the access really overflows.
            assert!(off.checked_add(len).is_none_or(|end| end > limit));
        }
    });
}

mod isolation {
    use super::{reg, Pcg32};
    use adm_rng::run_cases;
    use machine::cost::CostModel;
    use machine::cpu::{Cpu, Mode};
    use machine::isa::{Instr, Program};
    use machine::seg::{SegReg, Segment, SegmentKind, SegmentTable};

    /// Unprivileged instructions that move data around.
    fn data_instr(rng: &mut Pcg32) -> Instr {
        match rng.below(5) {
            0 => Instr::MovImm(reg(rng), rng.next_u32()),
            1 => Instr::Add(reg(rng), reg(rng)),
            2 => Instr::Load(reg(rng), reg(rng)),
            3 => Instr::Store(reg(rng), reg(rng)),
            _ => Instr::Xor(reg(rng), reg(rng)),
        }
    }

    /// Segmentation isolation: whatever an unprivileged program does —
    /// including faulting — bytes outside its data+stack segments are
    /// bit-for-bit unchanged. This is the property that lets SISR drop
    /// the kernel-mode split.
    #[test]
    fn stores_cannot_escape_the_segment() {
        run_cases(0x15a5, 256, |rng| {
            const DATA_BASE: usize = 1000;
            const DATA_LIMIT: usize = 256;
            const STACK_BASE: usize = 2000;
            const STACK_LIMIT: usize = 256;
            let mut segs = SegmentTable::new();
            let data = segs
                .install(Segment {
                    base: DATA_BASE as u32,
                    limit: DATA_LIMIT as u32,
                    kind: SegmentKind::Data,
                })
                .unwrap();
            let stack = segs
                .install(Segment {
                    base: STACK_BASE as u32,
                    limit: STACK_LIMIT as u32,
                    kind: SegmentKind::Stack,
                })
                .unwrap();
            let mut cpu = Cpu::new(4096, Mode::User, CostModel::pentium());
            cpu.load_selector(SegReg::Ds, data);
            cpu.load_selector(SegReg::Ss, stack);
            let before: Vec<u8> = cpu.memory().to_vec();
            let mut text: Vec<Instr> = (0..rng.index(60)).map(|_| data_instr(rng)).collect();
            text.push(Instr::Halt);
            let _ = cpu.run(&Program::new(text), &segs, 10_000);
            for (i, (&b, &a)) in before.iter().zip(cpu.memory()).enumerate() {
                let in_data = (DATA_BASE..DATA_BASE + DATA_LIMIT).contains(&i);
                let in_stack = (STACK_BASE..STACK_BASE + STACK_LIMIT).contains(&i);
                if !in_data && !in_stack {
                    assert_eq!(b, a, "byte {i} outside segments changed");
                }
            }
        });
    }
}
