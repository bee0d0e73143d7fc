//! The SISR soundness property: load-time verification and runtime faulting
//! must agree. This is the safety argument of Section 5.1 — SISR may remove
//! the user/kernel mode split *because* anything the verifier accepts can
//! never execute a privileged instruction.

use adm_rng::{run_cases, Pcg32};
use gokernel::sisr::{DiagnosticKind, Pass, SisrVerifier};
use machine::cost::CostModel;
use machine::cpu::{Cpu, CpuError, Mode};
use machine::isa::{Instr, Program};
use machine::seg::{SegReg, Segment, SegmentKind, SegmentTable};

fn reg(rng: &mut Pcg32) -> u8 {
    rng.below(8) as u8
}

/// Straight-line instructions only (no jumps), so that every instruction is
/// reachable and the runtime oracle is decisive. Mixes in the privileged
/// candidates the verifier must catch.
fn straight_line_instr(rng: &mut Pcg32) -> Instr {
    match rng.below(13) {
        0 => Instr::Nop,
        1 => Instr::MovImm(reg(rng), rng.below(64) as u32),
        2 => Instr::MovReg(reg(rng), reg(rng)),
        3 => Instr::Add(reg(rng), reg(rng)),
        4 => Instr::Xor(reg(rng), reg(rng)),
        // Register-addressed loads/stores: the address is data-dependent.
        5 => Instr::Load(reg(rng), reg(rng)),
        6 => Instr::Store(reg(rng), reg(rng)),
        // Privileged:
        7 => Instr::Cli,
        8 => Instr::Sti,
        9 => Instr::Iret,
        10 => Instr::LoadSegReg(SegReg::from_u8(rng.below(3) as u8).unwrap(), reg(rng)),
        11 => Instr::LoadPageTable(reg(rng)),
        _ => Instr::IoOut(reg(rng), rng.below(1 << 16) as u16),
    }
}

fn body(rng: &mut Pcg32, max_len: usize) -> Vec<Instr> {
    (0..rng.index(max_len)).map(|_| straight_line_instr(rng)).collect()
}

fn user_cpu() -> (Cpu, SegmentTable) {
    let mut segs = SegmentTable::new();
    let data = segs.install(Segment { base: 0, limit: 1024, kind: SegmentKind::Data }).unwrap();
    let stack =
        segs.install(Segment { base: 1024, limit: 1024, kind: SegmentKind::Stack }).unwrap();
    let mut cpu = Cpu::new(1 << 16, Mode::User, CostModel::pentium());
    cpu.load_selector(SegReg::Ds, data);
    cpu.load_selector(SegReg::Ss, stack);
    (cpu, segs)
}

/// Soundness both ways:
/// * verifier accepts ⇒ execution never raises a privilege violation;
/// * hardware privilege-faults at `pc` ⇒ the verifier rejected with a
///   decode-pass `PrivilegedInstruction` diagnostic at exactly that index.
#[test]
fn verifier_and_hardware_agree_on_privilege() {
    run_cases(0x5150, 512, |rng| {
        let mut text = body(rng, 40);
        text.push(Instr::Halt);
        let program = Program::new(text);
        let verdict = SisrVerifier::new(CostModel::pentium()).verify_program(&program);
        let (mut cpu, segs) = user_cpu();
        let run = cpu.run(&program, &segs, 10_000);
        if verdict.is_ok() {
            assert!(
                !matches!(run, Err(CpuError::PrivilegeViolation { .. })),
                "accepted program privilege-faulted: {run:?}"
            );
        }
        if let Err(CpuError::PrivilegeViolation { pc, .. }) = run {
            let report = verdict.expect_err("hardware fault implies rejection");
            assert!(
                report.errors().any(|d| {
                    d.pass == Pass::Decode
                        && d.index == Some(pc as usize)
                        && matches!(d.kind, DiagnosticKind::PrivilegedInstruction { .. })
                }),
                "hardware faulted at {pc} but the verifier missed it: {report}"
            );
        }
    });
}

/// Unprivileged straight-line programs either verify or are refused only by
/// the segment-discipline pass (a statically-escaping constant address) —
/// and when they verify, running them never privilege-faults.
#[test]
fn verified_programs_cannot_escape_their_segments() {
    run_cases(0x5151, 512, |rng| {
        let seed = rng.below(1020) as u32;
        let mut text = vec![Instr::MovImm(0, seed)];
        text.extend(body(rng, 30).into_iter().filter(|i| !i.is_privileged()));
        text.push(Instr::Halt);
        let program = Program::new(text);
        match SisrVerifier::new(CostModel::pentium()).verify_program(&program) {
            Ok(_) => {
                let (mut cpu, segs) = user_cpu();
                let run = cpu.run(&program, &segs, 10_000);
                // A segment-limit fault is protection *working*; a privilege
                // fault on verified text would break the SISR argument.
                assert!(!matches!(run, Err(CpuError::PrivilegeViolation { .. })));
            }
            Err(report) => {
                assert!(
                    report.errors().all(|d| d.pass == Pass::SegmentDiscipline),
                    "unprivileged straight-line code rejected for the wrong reason: {report}"
                );
            }
        }
    });
}

/// Planting a single privileged instruction anywhere in otherwise-clean text
/// is always caught, at the planted index.
#[test]
fn a_planted_privileged_instruction_is_always_caught() {
    run_cases(0x5152, 512, |rng| {
        let mut text: Vec<Instr> =
            body(rng, 30).into_iter().filter(|i| !i.is_privileged()).collect();
        text.push(Instr::Halt);
        let planted = *rng.choose(&[Instr::Cli, Instr::Sti, Instr::Iret, Instr::LoadPageTable(0)]);
        let at = rng.index(text.len());
        text.insert(at, planted);
        let report = SisrVerifier::new(CostModel::pentium())
            .verify_program(&Program::new(text))
            .expect_err("privileged text must be rejected");
        assert!(
            report.errors().any(|d| d.index == Some(at)
                && d.kind == DiagnosticKind::PrivilegedInstruction { instr: planted }),
            "planted {planted:?} at {at} not named: {report}"
        );
    });
}

/// The verifier works from bytes, and acceptance preserves them: the
/// verified image's program re-encodes to exactly the scanned text.
#[test]
fn verification_roundtrips_the_byte_image() {
    run_cases(0x5153, 512, |rng| {
        let mut text: Vec<Instr> =
            body(rng, 40).into_iter().filter(|i| !i.is_privileged()).collect();
        text.push(Instr::Halt);
        let bytes = Program::new(text).to_bytes();
        if let Ok(img) = SisrVerifier::new(CostModel::pentium()).verify(&bytes) {
            assert_eq!(img.program().to_bytes(), bytes);
        }
    });
}

/// Verification is deterministic: the same text yields byte-identical
/// reports (diagnostics, pass records, and cycle bills).
#[test]
fn verification_is_deterministic() {
    run_cases(0x5154, 256, |rng| {
        let mut text = body(rng, 40);
        text.push(Instr::Halt);
        let bytes = Program::new(text).to_bytes();
        let v = SisrVerifier::new(CostModel::pentium());
        match (v.verify(&bytes), v.verify(&bytes)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("verdicts disagree: {a:?} vs {b:?}"),
        }
    });
}
