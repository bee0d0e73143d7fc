//! SISR — Software-based Instruction-Set Reduction.
//!
//! > "on loading, code is scanned for illegal operations and if detected the
//! > code is rejected insuring adequate process protection. That is, SISR
//! > removes the need for two separate processing modes by making use of
//! > code-scanning and segmentation memory protection."
//!
//! The verifier works from the **byte form** of a text section, exactly as a
//! real loader must, and runs a pipeline of passes, each proving one fact the
//! zero-kernel design depends on:
//!
//! 1. **decode** — the text is instruction-aligned, every 8-byte word
//!    decodes, and no decoded word is privileged. Undecodable bytes are
//!    treated as hostile, never skipped.
//! 2. **control-flow** — a CFG is built over the fixed-width ISA: every
//!    declared entry point and every jump/branch/call target lands in-bounds
//!    on an instruction boundary, and no path can fall off the end of the
//!    text into unowned memory.
//! 3. **summaries** — the text is partitioned into *procedures* (entry
//!    points plus call targets), and each procedure's intra-procedural body
//!    and callee set are collected. This is the structural skeleton the two
//!    dataflow passes run over.
//! 4. **stack-discipline** — a bottom-up, per-procedure dataflow proves
//!    calls and returns balance on every path, call depth stays under the
//!    granted limit, and the data stack neither underflows nor outgrows its
//!    segment. Each procedure is analysed once per distinct entry stack
//!    height and its net stack effects become a reusable summary, so cost is
//!    ~linear in procedure count instead of call-*path* count (the v2
//!    verifier keyed states by concrete call stacks, which explodes
//!    combinatorially as components call through each other).
//! 5. **segment-discipline** — constant propagation over the registers,
//!    per procedure and per distinct entry register vector, with callee
//!    transfer summaries applied at call sites. Loads/stores whose address
//!    is statically known to escape the granted data segment are rejected;
//!    statically unknown addresses remain guarded by the segmentation
//!    hardware at run time.
//! 6. **reachability** — instructions no entry point can reach are reported
//!    as dead code (warnings; dead code is suspicious but not unsafe).
//!
//! Recursion is handled by a fixpoint over the call graph: recursive
//! procedures exceed every finite verified call depth, so a visited
//! call-graph cycle is rejected with [`DiagnosticKind::CallDepthExceeded`]
//! — exactly the verdict the v2 path enumeration reached by walking the
//! cycle to the depth bound.
//!
//! Diagnostics are **collected, not first-error bailed**: a rejection names
//! every flaw each pass could prove, with the pass that found it. Acceptance
//! is witnessed by the [`VerifiedImage`] typestate — the ORB will only
//! install component types from a `VerifiedImage`, so "unscanned code never
//! runs" is enforced by construction, not by convention. An accepted image
//! additionally carries one [`ProcedureSummary`] per procedure: the ORB
//! re-checks those summaries against its segment grants at link time.
//!
//! Every pass charges named machine primitives into a cycle counter: the
//! verification pipeline is a *load-time* cost, and Go! trades this one-off
//! linear-ish pass per image for the removal of *every* per-call trap — the
//! economics behind Table 1.
//!
//! All analysis state lives in ordered (`BTree`) containers and worklists
//! are drained in sorted order, so reports — diagnostics, pass bills, and
//! summaries — are byte-identical across replays, matching the golden-trace
//! guarantee the observability layer makes.
//!
//! The retired v2 concrete-dataflow passes survive only in the test
//! build, in the private `oracle` module, as the differential-testing
//! oracle for the summary passes.

use machine::cost::{CostModel, CycleCounter, Cycles, Primitive};
use machine::isa::{rel_target, Flow, Instr, Program};
use std::collections::{BTreeMap, BTreeSet};

/// One pass of the verification pipeline, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Alignment, decodability, and the privileged-opcode scan.
    Decode,
    /// CFG construction and jump/entry/fallthrough validation.
    ControlFlow,
    /// Procedure partition and call-graph construction.
    Summary,
    /// Call/return balance and data-stack depth, via procedure summaries.
    StackDiscipline,
    /// Constant-propagation check of statically-decidable addresses, via
    /// per-procedure transfer summaries.
    SegmentDiscipline,
    /// Dead-code reporting from the entry points.
    Reachability,
}

impl Pass {
    /// All passes, in the order the pipeline runs them.
    pub const ALL: [Pass; 6] = [
        Pass::Decode,
        Pass::ControlFlow,
        Pass::Summary,
        Pass::StackDiscipline,
        Pass::SegmentDiscipline,
        Pass::Reachability,
    ];

    /// The pass's name as it appears in diagnostics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Pass::Decode => "decode",
            Pass::ControlFlow => "control-flow",
            Pass::Summary => "summaries",
            Pass::StackDiscipline => "stack-discipline",
            Pass::SegmentDiscipline => "segment-discipline",
            Pass::Reachability => "reachability",
        }
    }
}

impl std::fmt::Display for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How bad a diagnostic is. Any `Error` rejects the image; `Warning`s ride
/// along on the accepted [`VerifiedImage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Suspicious but not unsafe (e.g. dead code).
    Warning,
    /// The image must not be installed.
    Error,
}

/// What a pass proved wrong (or suspicious) about the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// The text length is not a multiple of the instruction width.
    MisalignedText {
        /// Byte length of the offending image.
        len: usize,
    },
    /// A word failed to decode — treated as hostile, never skipped.
    UndecodableWord,
    /// A privileged instruction was found.
    PrivilegedInstruction {
        /// The instruction.
        instr: Instr,
    },
    /// A declared entry point is outside the text.
    BadEntryPoint {
        /// The declared entry (instruction index).
        entry: u32,
    },
    /// A jump or branch target escapes the text section.
    JumpOutOfBounds {
        /// The computed target (instruction index, after wrapping).
        target: u32,
    },
    /// A call target escapes the text section.
    CallOutOfBounds {
        /// The call's absolute target.
        target: u32,
    },
    /// Execution can run off the end of the text into unowned memory.
    FallthroughOffEnd,
    /// A path reaches `Ret` with no matching `Call`.
    ReturnWithoutCall,
    /// A path nests calls deeper than the verifier's bound — including any
    /// reachable call-graph cycle, which exceeds every finite bound.
    CallDepthExceeded {
        /// The depth at which the bound was hit.
        depth: usize,
    },
    /// A path pops the data stack below empty.
    DataStackUnderflow,
    /// A path pushes the data stack past its segment.
    DataStackOverflow {
        /// Stack depth (in words) the path reached.
        words: u32,
    },
    /// A load whose address is statically known to escape the data segment.
    OutOfSegmentLoad {
        /// The offending byte offset.
        addr: u32,
    },
    /// A store whose address is statically known to escape the data segment.
    OutOfSegmentStore {
        /// The offending byte offset.
        addr: u32,
    },
    /// The dataflow state budget was exhausted: the program is too tangled
    /// to verify, and an unverifiable program is a rejected program.
    AnalysisBudgetExceeded {
        /// States explored before giving up.
        states: usize,
    },
    /// An instruction no entry point can reach.
    UnreachableCode,
}

/// One finding of one pass, anchored (where meaningful) to an instruction
/// index in the scanned text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The pass that proved it.
    pub pass: Pass,
    /// Error (rejects) or warning (rides along).
    pub severity: Severity,
    /// Instruction index the finding is anchored to, when there is one.
    pub index: Option<usize>,
    /// The finding itself.
    pub kind: DiagnosticKind,
}

impl Diagnostic {
    fn error(pass: Pass, index: Option<usize>, kind: DiagnosticKind) -> Self {
        Self { pass, severity: Severity::Error, index, kind }
    }

    fn warning(pass: Pass, index: Option<usize>, kind: DiagnosticKind) -> Self {
        Self { pass, severity: Severity::Warning, index, kind }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "[{}] {sev}", self.pass)?;
        if let Some(i) = self.index {
            write!(f, " at {i}")?;
        }
        write!(f, ": ")?;
        match &self.kind {
            DiagnosticKind::MisalignedText { len } => {
                write!(f, "text section of {len} bytes is not instruction-aligned")
            }
            DiagnosticKind::UndecodableWord => write!(f, "undecodable word"),
            DiagnosticKind::PrivilegedInstruction { instr } => {
                write!(f, "privileged instruction {instr:?}")
            }
            DiagnosticKind::BadEntryPoint { entry } => {
                write!(f, "entry point {entry} is outside the text")
            }
            DiagnosticKind::JumpOutOfBounds { target } => {
                write!(f, "jump target {target} is outside the text")
            }
            DiagnosticKind::CallOutOfBounds { target } => {
                write!(f, "call target {target} is outside the text")
            }
            DiagnosticKind::FallthroughOffEnd => {
                write!(f, "execution can fall off the end of the text")
            }
            DiagnosticKind::ReturnWithoutCall => write!(f, "return without a matching call"),
            DiagnosticKind::CallDepthExceeded { depth } => {
                write!(f, "call depth exceeds the verifier bound ({depth})")
            }
            DiagnosticKind::DataStackUnderflow => write!(f, "data stack underflows"),
            DiagnosticKind::DataStackOverflow { words } => {
                write!(f, "data stack grows past its segment ({words} words)")
            }
            DiagnosticKind::OutOfSegmentLoad { addr } => {
                write!(f, "load from byte offset {addr} escapes the data segment")
            }
            DiagnosticKind::OutOfSegmentStore { addr } => {
                write!(f, "store to byte offset {addr} escapes the data segment")
            }
            DiagnosticKind::AnalysisBudgetExceeded { states } => {
                write!(f, "analysis budget exhausted after {states} states; unverifiable")
            }
            DiagnosticKind::UnreachableCode => write!(f, "unreachable from any entry point"),
        }
    }
}

/// What one pass cost and found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassReport {
    /// Which pass.
    pub pass: Pass,
    /// Load-time cycles the pass charged.
    pub cycles: Cycles,
    /// Errors the pass raised.
    pub errors: usize,
    /// Warnings the pass raised.
    pub warnings: usize,
}

/// The full result of a verification pipeline run: every diagnostic from
/// every pass that ran, per-pass cost/outcome records, and the total
/// load-time cycle bill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// All diagnostics, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// One record per pass that ran (passes gated out by earlier errors are
    /// absent — their facts were never established).
    pub passes: Vec<PassReport>,
    /// Total load-time cycles across all passes.
    pub cycles: Cycles,
}

impl VerifyReport {
    /// Number of error-severity diagnostics.
    #[must_use]
    pub(crate) fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity diagnostics.
    #[must_use]
    pub(crate) fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// Whether any pass raised an error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// The record for one pass, if it ran.
    #[must_use]
    pub fn pass(&self, pass: Pass) -> Option<&PassReport> {
        self.passes.iter().find(|p| p.pass == pass)
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} error(s), {} warning(s) in {} cycles",
            self.error_count(),
            self.warning_count(),
            self.cycles
        )?;
        for d in &self.diagnostics {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyReport {}

/// The resource grants the verifier checks static discipline against — the
/// segment sizes the ORB will actually give an instance, plus the analysis
/// bounds that keep verification decidable. A program that exceeds the
/// analysis bounds is *unverifiable*, and unverifiable code is rejected: the
/// conservative direction is the safe one for a loader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Limits {
    /// Bytes of data segment an instance will be granted.
    pub data_bytes: u32,
    /// Bytes of stack segment an instance will be granted.
    pub stack_bytes: u32,
    /// Maximum verified call-nesting depth.
    pub max_call_depth: usize,
    /// Maximum abstract states explored per dataflow pass.
    pub state_budget: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self { data_bytes: 4096, stack_bytes: 4096, max_call_depth: 64, state_budget: 1 << 16 }
    }
}

/// What the verifier proved about one procedure — the bottom-up summary the
/// dataflow passes compute and the ORB re-checks against its segment grants
/// at link time. Procedures are the entry points plus every call target;
/// effects are relative to the procedure's entry so a summary is reusable
/// at every call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcedureSummary {
    /// Instruction index of the procedure head.
    pub head: u32,
    /// Instructions in the procedure's intra-procedural body.
    pub instructions: usize,
    /// Heads of the procedures this one calls, sorted.
    pub callees: Vec<u32>,
    /// Whether the procedure sits on a call-graph cycle. Never true on an
    /// accepted image — recursion is rejected — but reported for rejected
    /// ones.
    pub recursive: bool,
    /// Net data-stack effects (in words, relative to entry) observed at
    /// returns; empty when the procedure never returns to a caller.
    pub stack_effects: Vec<i64>,
    /// Peak data-stack growth above the entry height, in words.
    pub max_stack_words: u32,
    /// Lowest/highest byte offset of statically-known loads, if any.
    pub known_loads: Option<(u32, u32)>,
    /// Lowest/highest byte offset of statically-known stores, if any.
    pub known_stores: Option<(u32, u32)>,
    /// Whether any load address is statically unknown (hardware-guarded).
    pub unknown_loads: bool,
    /// Whether any store address is statically unknown (hardware-guarded).
    pub unknown_stores: bool,
}

impl std::fmt::Display for ProcedureSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn range(r: Option<(u32, u32)>, unknown: bool) -> String {
            match (r, unknown) {
                (None, false) => "none".to_owned(),
                (None, true) => "dynamic".to_owned(),
                (Some((lo, hi)), false) => format!("[{lo}..{hi}]"),
                (Some((lo, hi)), true) => format!("[{lo}..{hi}]+dynamic"),
            }
        }
        let effects = if self.stack_effects.is_empty() {
            "no-return".to_owned()
        } else {
            let parts: Vec<String> = self.stack_effects.iter().map(|d| format!("{d:+}")).collect();
            parts.join("/")
        };
        write!(
            f,
            "proc@{}: {} instr, callees {:?}, stack peak {}w net {}, loads {}, stores {}",
            self.head,
            self.instructions,
            self.callees,
            self.max_stack_words,
            effects,
            range(self.known_loads, self.unknown_loads),
            range(self.known_stores, self.unknown_stores),
        )
    }
}

/// A text image that has passed every verification pass. Can only be
/// constructed by [`SisrVerifier::verify`]; holding one is proof the program
/// decodes cleanly, contains no privileged instruction, keeps control flow
/// inside the text, balances its calls, respects its stack bound, and makes
/// no statically-decidable out-of-segment access from the declared entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedImage {
    program: Program,
    entry_points: Vec<u32>,
    report: VerifyReport,
    summaries: Vec<ProcedureSummary>,
}

impl VerifiedImage {
    /// The verified program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The entry points the verification covered. The ORB refuses to publish
    /// an interface at any other entry — facts were only proven from these.
    #[must_use]
    pub(crate) fn entry_points(&self) -> &[u32] {
        &self.entry_points
    }

    /// The full pass-by-pass report (warnings included).
    #[must_use]
    pub fn report(&self) -> &VerifyReport {
        &self.report
    }

    /// The one-off load-time cycles the whole pipeline cost.
    #[must_use]
    pub fn scan_cycles(&self) -> Cycles {
        self.report.cycles
    }

    /// The per-procedure summaries the dataflow passes proved, sorted by
    /// head. The ORB checks these against its segment grants at link time.
    #[must_use]
    pub fn summaries(&self) -> &[ProcedureSummary] {
        &self.summaries
    }
}

/// The load-time verifier.
#[derive(Debug, Clone, Default)]
pub struct SisrVerifier {
    model: CostModel,
    limits: Limits,
}

/// Abstract register value for the segment-discipline pass: either a value
/// every path agrees on (a must-fact) or statically unknown. `Ord` so
/// register vectors can key ordered (deterministic) containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum AbsVal {
    Const(u32),
    Unknown,
}

impl AbsVal {
    fn join(self, other: AbsVal) -> AbsVal {
        if self == other {
            self
        } else {
            AbsVal::Unknown
        }
    }
}

/// Abstract register file (the ISA has 8 registers).
type Regs = [AbsVal; 8];

/// The structural skeleton the summary pass computes: procedure heads,
/// intra-procedural bodies, and the call graph.
struct ProcGraph {
    /// Procedure heads (entries plus call targets), sorted.
    heads: Vec<u32>,
    /// Intra-procedural body of each procedure (sorted instruction indices).
    bodies: BTreeMap<u32, Vec<u32>>,
    /// Call-graph edges, per caller head.
    callees: BTreeMap<u32, BTreeSet<u32>>,
}

/// What the stack pass learned, for the summaries.
struct StackFacts {
    /// Net stack deltas at returns, per head (union over entry heights).
    deltas: BTreeMap<u32, BTreeSet<i64>>,
    /// Peak growth above entry, per head.
    max_height: BTreeMap<u32, u32>,
    /// Heads on a visited call-graph cycle.
    cyclic: BTreeSet<u32>,
}

/// What the segment pass learned, for the summaries.
#[derive(Default)]
struct SegAccess {
    known_loads: Option<(u32, u32)>,
    known_stores: Option<(u32, u32)>,
    unknown_loads: bool,
    unknown_stores: bool,
}

fn widen(range: &mut Option<(u32, u32)>, addr: u32) {
    *range = Some(match *range {
        None => (addr, addr),
        Some((lo, hi)) => (lo.min(addr), hi.max(addr)),
    });
}

impl SisrVerifier {
    /// A verifier charging pass work under the given cost model, with
    /// default `Limits`.
    #[must_use]
    pub fn new(model: CostModel) -> Self {
        Self { model, limits: Limits::default() }
    }

    /// A verifier with explicit segment grants and analysis bounds.
    #[must_use]
    pub(crate) fn with_limits(model: CostModel, limits: Limits) -> Self {
        Self { model, limits }
    }

    /// Verify a raw text section with the default entry point (index 0; an
    /// empty text has no entries and is trivially valid).
    ///
    /// # Errors
    /// The full [`VerifyReport`] naming every flaw each pass could prove.
    pub fn verify(&self, text: &[u8]) -> Result<VerifiedImage, VerifyReport> {
        if text.is_empty() {
            self.verify_with_entries(text, &[])
        } else {
            self.verify_with_entries(text, &[0])
        }
    }

    /// Verify a raw text section against explicit entry points.
    ///
    /// # Errors
    /// See [`Self::verify`].
    pub(crate) fn verify_with_entries(
        &self,
        text: &[u8],
        entries: &[u32],
    ) -> Result<VerifiedImage, VerifyReport> {
        let mut diags: Vec<Diagnostic> = Vec::new();
        let mut passes: Vec<PassReport> = Vec::new();
        let mut counter = CycleCounter::new();

        let program = self.pass_decode(text, &mut diags, &mut passes, &mut counter);
        if let Some(program) = program {
            let cfg_clean =
                self.pass_control_flow(&program, entries, &mut diags, &mut passes, &mut counter);
            let mut summaries = Vec::new();
            if cfg_clean {
                // The dataflow passes walk CFG edges; they only run once the
                // control-flow pass has proven every edge stays in the text.
                let graph = self.pass_summaries(&program, entries, &mut passes, &mut counter);
                let stack = self.pass_stack_discipline(
                    &program,
                    entries,
                    &mut diags,
                    &mut passes,
                    &mut counter,
                );
                let seg = self.pass_segment_discipline(
                    &program,
                    entries,
                    &graph,
                    &mut diags,
                    &mut passes,
                    &mut counter,
                );
                self.pass_reachability(&program, entries, &mut diags, &mut passes, &mut counter);
                summaries = Self::assemble_summaries(&graph, &stack, &seg);
            }
            let report = VerifyReport { diagnostics: diags, passes, cycles: counter.total() };
            if report.has_errors() {
                Err(report)
            } else {
                Ok(VerifiedImage { program, entry_points: entries.to_vec(), report, summaries })
            }
        } else {
            Err(VerifyReport { diagnostics: diags, passes, cycles: counter.total() })
        }
    }

    /// Convenience: verify an already-decoded program by scanning its bytes,
    /// with the default entry point.
    ///
    /// # Errors
    /// See [`Self::verify`].
    pub fn verify_program(&self, program: &Program) -> Result<VerifiedImage, VerifyReport> {
        self.verify(&program.to_bytes())
    }

    fn charge_visit(&self, counter: &mut CycleCounter) {
        counter.charge(Primitive::Load, &self.model);
        counter.charge(Primitive::Alu, &self.model);
    }

    fn finish_pass(
        pass: Pass,
        diags_before: usize,
        diags: &[Diagnostic],
        snap: Cycles,
        counter: &CycleCounter,
        passes: &mut Vec<PassReport>,
    ) {
        let new = &diags[diags_before..];
        passes.push(PassReport {
            pass,
            cycles: counter.since(snap),
            errors: new.iter().filter(|d| d.severity == Severity::Error).count(),
            warnings: new.iter().filter(|d| d.severity == Severity::Warning).count(),
        });
    }

    /// Pass 1: alignment, decodability, privilege. Returns the decoded
    /// program only when the whole text is clean — later passes analyse
    /// instruction semantics and need every word trustworthy.
    fn pass_decode(
        &self,
        text: &[u8],
        diags: &mut Vec<Diagnostic>,
        passes: &mut Vec<PassReport>,
        counter: &mut CycleCounter,
    ) -> Option<Program> {
        let snap = counter.total();
        let before = diags.len();
        let mut program = None;
        if text.len().is_multiple_of(8) {
            let mut instrs = Vec::with_capacity(text.len() / 8);
            for (index, chunk) in text.chunks_exact(8).enumerate() {
                self.charge_visit(counter);
                let mut w = [0u8; 8];
                w.copy_from_slice(chunk);
                match Instr::decode(w) {
                    None => diags.push(Diagnostic::error(
                        Pass::Decode,
                        Some(index),
                        DiagnosticKind::UndecodableWord,
                    )),
                    Some(instr) if instr.is_privileged() => diags.push(Diagnostic::error(
                        Pass::Decode,
                        Some(index),
                        DiagnosticKind::PrivilegedInstruction { instr },
                    )),
                    Some(instr) => instrs.push(instr),
                }
            }
            if diags.len() == before {
                program = Some(Program::new(instrs));
            }
        } else {
            diags.push(Diagnostic::error(
                Pass::Decode,
                None,
                DiagnosticKind::MisalignedText { len: text.len() },
            ));
        }
        Self::finish_pass(Pass::Decode, before, diags, snap, counter, passes);
        program
    }

    /// Pass 2: entry points and every CFG edge must land in the text, and no
    /// path may fall off its end. Returns whether the CFG is fully valid.
    fn pass_control_flow(
        &self,
        program: &Program,
        entries: &[u32],
        diags: &mut Vec<Diagnostic>,
        passes: &mut Vec<PassReport>,
        counter: &mut CycleCounter,
    ) -> bool {
        let snap = counter.total();
        let before = diags.len();
        let len = program.len() as u32;
        for &entry in entries {
            counter.charge(Primitive::Alu, &self.model);
            if entry >= len {
                diags.push(Diagnostic::error(
                    Pass::ControlFlow,
                    None,
                    DiagnosticKind::BadEntryPoint { entry },
                ));
            }
        }
        for (pc, instr) in program.instrs().iter().enumerate() {
            self.charge_visit(counter);
            let pc32 = pc as u32;
            let falls_through = match instr.flow() {
                Flow::Fall => true,
                Flow::Jump(off) => {
                    counter.charge(Primitive::Alu, &self.model);
                    let target = rel_target(pc32, off);
                    if target >= len {
                        diags.push(Diagnostic::error(
                            Pass::ControlFlow,
                            Some(pc),
                            DiagnosticKind::JumpOutOfBounds { target },
                        ));
                    }
                    false
                }
                Flow::Branch(off) => {
                    counter.charge(Primitive::Alu, &self.model);
                    let target = rel_target(pc32, off);
                    if target >= len {
                        diags.push(Diagnostic::error(
                            Pass::ControlFlow,
                            Some(pc),
                            DiagnosticKind::JumpOutOfBounds { target },
                        ));
                    }
                    true
                }
                Flow::Call(target) => {
                    counter.charge(Primitive::Alu, &self.model);
                    if target >= len {
                        diags.push(Diagnostic::error(
                            Pass::ControlFlow,
                            Some(pc),
                            DiagnosticKind::CallOutOfBounds { target },
                        ));
                    }
                    // The matching Ret resumes at pc + 1.
                    true
                }
                Flow::Ret | Flow::Exit => false,
            };
            if falls_through && pc32 + 1 >= len {
                diags.push(Diagnostic::error(
                    Pass::ControlFlow,
                    Some(pc),
                    DiagnosticKind::FallthroughOffEnd,
                ));
            }
        }
        Self::finish_pass(Pass::ControlFlow, before, diags, snap, counter, passes);
        diags.len() == before
    }

    /// Pass 3: partition the text into procedures (entry points plus call
    /// targets), collect each procedure's intra-procedural body, and build
    /// the call graph. Emits no diagnostics — it is the structural skeleton
    /// the two dataflow passes consume and the summaries report over.
    fn pass_summaries(
        &self,
        program: &Program,
        entries: &[u32],
        passes: &mut Vec<PassReport>,
        counter: &mut CycleCounter,
    ) -> ProcGraph {
        let snap = counter.total();
        let text = program.instrs();
        let mut heads: BTreeSet<u32> = entries.iter().copied().collect();
        for instr in text {
            counter.charge(Primitive::Alu, &self.model);
            if let Flow::Call(t) = instr.flow() {
                heads.insert(t);
            }
        }
        let mut bodies = BTreeMap::new();
        let mut callees = BTreeMap::new();
        // One visited-marker vector shared across heads, stamped with the
        // head's ordinal instead of re-zeroed per head: procedure bodies sum
        // to ~text length, so partitioning stays linear even with thousands
        // of procedures.
        let mut seen = vec![u32::MAX; program.len()];
        for (gen, &h) in heads.iter().enumerate() {
            let gen = gen as u32;
            let mut work = vec![h];
            let mut body = Vec::new();
            let mut cs: BTreeSet<u32> = BTreeSet::new();
            while let Some(pc) = work.pop() {
                let slot = &mut seen[pc as usize];
                if *slot == gen {
                    continue;
                }
                *slot = gen;
                self.charge_visit(counter);
                body.push(pc);
                match text[pc as usize].flow() {
                    Flow::Fall => work.push(pc + 1),
                    Flow::Jump(off) => work.push(rel_target(pc, off)),
                    Flow::Branch(off) => {
                        work.push(pc + 1);
                        work.push(rel_target(pc, off));
                    }
                    Flow::Call(t) => {
                        cs.insert(t);
                        // The callee returns here; its body is its own.
                        work.push(pc + 1);
                    }
                    Flow::Ret | Flow::Exit => {}
                }
            }
            body.sort_unstable();
            bodies.insert(h, body);
            callees.insert(h, cs);
        }
        Self::finish_pass(Pass::Summary, 0, &[], snap, counter, passes);
        ProcGraph { heads: heads.into_iter().collect(), bodies, callees }
    }

    /// Pass 4: bottom-up stack discipline over procedure summaries. Each
    /// procedure is analysed once per distinct entry stack height; its net
    /// stack effects at returns become a summary applied at every call site,
    /// with a fixpoint over the call graph. A visited call-graph cycle
    /// exceeds every finite call depth and is rejected.
    #[allow(clippy::too_many_lines)]
    fn pass_stack_discipline(
        &self,
        program: &Program,
        entries: &[u32],
        diags: &mut Vec<Diagnostic>,
        passes: &mut Vec<PassReport>,
        counter: &mut CycleCounter,
    ) -> StackFacts {
        let snap = counter.total();
        let before = diags.len();
        let stack_words = self.limits.stack_bytes / 4;
        let text = program.instrs();
        let push_diag = |diags: &mut Vec<Diagnostic>, d: Diagnostic| {
            if !diags[before..].contains(&d) {
                diags.push(d);
            }
        };

        // One analysis context per (procedure head, entry stack height).
        struct Ctx {
            seen: BTreeSet<(u32, u32)>,
            work: Vec<(u32, u32)>,
            /// Call continuations awaiting callee deltas, keyed by callee
            /// context `(target, entry sp)` → call sites, so a returning
            /// callee resumes exactly its own sites instead of scanning
            /// every pending continuation in the caller.
            pending: BTreeMap<(u32, u32), BTreeSet<u32>>,
        }
        let mut ctxs: BTreeMap<(u32, u32), Ctx> = BTreeMap::new();
        let mut depth: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        let mut deltas: BTreeMap<(u32, u32), BTreeSet<i64>> = BTreeMap::new();
        let mut callers: BTreeMap<(u32, u32), BTreeSet<(u32, u32)>> = BTreeMap::new();
        let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut sites: BTreeSet<(u32, u32, u32)> = BTreeSet::new(); // (site, from, to)
        let mut queue: BTreeSet<(u32, u32)> = BTreeSet::new();
        let roots: BTreeSet<(u32, u32)> = entries.iter().map(|&e| (e, 0)).collect();
        for &r in &roots {
            ctxs.insert(r, Ctx { seen: BTreeSet::new(), work: vec![r], pending: BTreeMap::new() });
            depth.insert(r, 0);
            queue.insert(r);
        }
        let mut facts = StackFacts {
            deltas: BTreeMap::new(),
            max_height: BTreeMap::new(),
            cyclic: BTreeSet::new(),
        };
        let mut states = 0usize;
        let mut blown = false;
        'fixpoint: while let Some(id) = queue.pop_first() {
            loop {
                let ctx = ctxs.get_mut(&id).expect("queued ctx exists");
                let Some((pc, sp)) = ctx.work.pop() else { break };
                if !ctx.seen.insert((pc, sp)) {
                    continue;
                }
                states += 1;
                if states > self.limits.state_budget {
                    push_diag(
                        diags,
                        Diagnostic::error(
                            Pass::StackDiscipline,
                            None,
                            DiagnosticKind::AnalysisBudgetExceeded { states },
                        ),
                    );
                    blown = true;
                    break 'fixpoint;
                }
                self.charge_visit(counter);
                let (head, entry_sp) = id;
                let peak = facts.max_height.entry(head).or_insert(0);
                *peak = (*peak).max(sp.saturating_sub(entry_sp));
                let instr = text[pc as usize];
                let sp = match instr {
                    Instr::Push(_) => {
                        if sp + 1 > stack_words {
                            push_diag(
                                diags,
                                Diagnostic::error(
                                    Pass::StackDiscipline,
                                    Some(pc as usize),
                                    DiagnosticKind::DataStackOverflow { words: sp + 1 },
                                ),
                            );
                            continue;
                        }
                        sp + 1
                    }
                    Instr::Pop(_) => {
                        if sp == 0 {
                            push_diag(
                                diags,
                                Diagnostic::error(
                                    Pass::StackDiscipline,
                                    Some(pc as usize),
                                    DiagnosticKind::DataStackUnderflow,
                                ),
                            );
                            continue;
                        }
                        sp - 1
                    }
                    _ => sp,
                };
                match instr.flow() {
                    Flow::Fall => ctx.work.push((pc + 1, sp)),
                    Flow::Jump(off) => ctx.work.push((rel_target(pc, off), sp)),
                    Flow::Branch(off) => {
                        ctx.work.push((pc + 1, sp));
                        ctx.work.push((rel_target(pc, off), sp));
                    }
                    Flow::Call(target) => {
                        counter.charge(Primitive::Alu, &self.model);
                        edges.insert((head, target));
                        sites.insert((pc, head, target));
                        let d = depth[&id];
                        if d >= self.limits.max_call_depth {
                            push_diag(
                                diags,
                                Diagnostic::error(
                                    Pass::StackDiscipline,
                                    Some(pc as usize),
                                    DiagnosticKind::CallDepthExceeded { depth: d },
                                ),
                            );
                        } else {
                            let callee = (target, sp);
                            ctx.pending.entry(callee).or_default().insert(pc);
                            // Apply callee deltas already known; future ones
                            // re-queue us through `callers`.
                            let known: Vec<i64> = deltas
                                .get(&callee)
                                .map(|s| s.iter().copied().collect())
                                .unwrap_or_default();
                            for dlt in known {
                                counter.charge(Primitive::Alu, &self.model);
                                let ret_sp = (i64::from(sp) + dlt) as u32;
                                ctx.work.push((pc + 1, ret_sp));
                            }
                            callers.entry(callee).or_default().insert(id);
                            if let Some(cur) = depth.get_mut(&callee) {
                                *cur = (*cur).min(d + 1);
                            } else {
                                depth.insert(callee, d + 1);
                                ctxs.insert(
                                    callee,
                                    Ctx {
                                        seen: BTreeSet::new(),
                                        work: vec![callee],
                                        pending: BTreeMap::new(),
                                    },
                                );
                                queue.insert(callee);
                            }
                        }
                    }
                    Flow::Ret => {
                        counter.charge(Primitive::Alu, &self.model);
                        if roots.contains(&id) {
                            push_diag(
                                diags,
                                Diagnostic::error(
                                    Pass::StackDiscipline,
                                    Some(pc as usize),
                                    DiagnosticKind::ReturnWithoutCall,
                                ),
                            );
                        }
                        let dlt = i64::from(sp) - i64::from(entry_sp);
                        if deltas.entry(id).or_default().insert(dlt) {
                            facts.deltas.entry(head).or_default().insert(dlt);
                            // Resume every caller waiting on this summary.
                            let waiting: Vec<(u32, u32)> = callers
                                .get(&id)
                                .map(|s| s.iter().copied().collect())
                                .unwrap_or_default();
                            for caller in waiting {
                                let c = ctxs.get_mut(&caller).expect("registered caller");
                                let ret_sp = (i64::from(id.1) + dlt) as u32;
                                let conts: Vec<(u32, u32)> = c
                                    .pending
                                    .get(&id)
                                    .into_iter()
                                    .flatten()
                                    .map(|&site| (site + 1, ret_sp))
                                    .collect();
                                for cont in conts {
                                    counter.charge(Primitive::Alu, &self.model);
                                    c.work.push(cont);
                                }
                                queue.insert(caller);
                            }
                        }
                    }
                    Flow::Exit => {}
                }
            }
        }
        if !blown {
            // Recursion check: any visited call-graph cycle exceeds every
            // finite call depth — report it at each participating call site.
            let mut adj: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
            for &(from, to) in &edges {
                counter.charge(Primitive::Alu, &self.model);
                adj.entry(from).or_default().insert(to);
            }
            let reaches = |from: u32, to: u32| -> bool {
                let mut seen = BTreeSet::new();
                let mut work = vec![from];
                while let Some(n) = work.pop() {
                    if !seen.insert(n) {
                        continue;
                    }
                    if n == to {
                        return true;
                    }
                    if let Some(next) = adj.get(&n) {
                        work.extend(next.iter().copied());
                    }
                }
                false
            };
            if edges.iter().any(|&(from, to)| reaches(to, from)) {
                for &(site, from, to) in &sites {
                    counter.charge(Primitive::Alu, &self.model);
                    if reaches(to, from) {
                        facts.cyclic.insert(from);
                        facts.cyclic.insert(to);
                        push_diag(
                            diags,
                            Diagnostic::error(
                                Pass::StackDiscipline,
                                Some(site as usize),
                                DiagnosticKind::CallDepthExceeded {
                                    depth: self.limits.max_call_depth,
                                },
                            ),
                        );
                    }
                }
            }
        }
        Self::finish_pass(Pass::StackDiscipline, before, diags, snap, counter, passes);
        facts
    }

    /// Pass 5: constant propagation over the registers (must-facts only:
    /// joining disagreeing paths yields Unknown), analysed per procedure and
    /// per distinct entry register vector, with callee transfer summaries
    /// applied at call sites. A load/store whose address register is a known
    /// constant that escapes the granted data segment is rejected here
    /// instead of faulting at run time; unknown addresses stay the
    /// segmentation hardware's job.
    #[allow(clippy::too_many_lines)]
    fn pass_segment_discipline(
        &self,
        program: &Program,
        entries: &[u32],
        graph: &ProcGraph,
        diags: &mut Vec<Diagnostic>,
        passes: &mut Vec<PassReport>,
        counter: &mut CycleCounter,
    ) -> BTreeMap<u32, SegAccess> {
        let snap = counter.total();
        let before = diags.len();
        let data_bytes = u64::from(self.limits.data_bytes);
        let text = program.instrs();

        struct Ctx {
            facts: BTreeMap<u32, Regs>,
            work: Vec<u32>,
        }
        type CtxId = (u32, Regs);
        let mut ctxs: BTreeMap<CtxId, Ctx> = BTreeMap::new();
        let mut depth: BTreeMap<CtxId, usize> = BTreeMap::new();
        let mut exits: BTreeMap<CtxId, Regs> = BTreeMap::new();
        let mut callers: BTreeMap<CtxId, BTreeSet<(CtxId, u32)>> = BTreeMap::new();
        let mut queue: BTreeSet<CtxId> = BTreeSet::new();
        for &e in entries {
            let id = (e, [AbsVal::Unknown; 8]);
            ctxs.insert(
                id,
                Ctx { facts: BTreeMap::from([(e, [AbsVal::Unknown; 8])]), work: vec![e] },
            );
            depth.insert(id, 0);
            queue.insert(id);
        }
        // Propagate regs into a pc of a context: join, queue on change.
        fn propagate(ctx: &mut Ctx, pc: u32, regs: Regs) {
            match ctx.facts.get_mut(&pc) {
                None => {
                    ctx.facts.insert(pc, regs);
                    ctx.work.push(pc);
                }
                Some(stored) => {
                    let mut changed = false;
                    for (s, n) in stored.iter_mut().zip(regs) {
                        let joined = s.join(n);
                        if joined != *s {
                            *s = joined;
                            changed = true;
                        }
                    }
                    if changed {
                        ctx.work.push(pc);
                    }
                }
            }
        }
        let mut states = 0usize;
        let mut blown = false;
        'fixpoint: while let Some(id) = queue.pop_first() {
            loop {
                let ctx = ctxs.get_mut(&id).expect("queued ctx exists");
                let Some(pc) = ctx.work.pop() else { break };
                states += 1;
                if states > self.limits.state_budget {
                    diags.push(Diagnostic::error(
                        Pass::SegmentDiscipline,
                        None,
                        DiagnosticKind::AnalysisBudgetExceeded { states },
                    ));
                    blown = true;
                    break 'fixpoint;
                }
                self.charge_visit(counter);
                let regs = ctx.facts[&pc];
                let instr = text[pc as usize];
                let mut out = regs;
                match instr {
                    Instr::MovImm(d, i) => out[d as usize] = AbsVal::Const(i),
                    Instr::MovReg(d, s) => out[d as usize] = out[s as usize],
                    Instr::Add(d, s) => {
                        out[d as usize] = match (out[d as usize], out[s as usize]) {
                            (AbsVal::Const(a), AbsVal::Const(b)) => {
                                AbsVal::Const(a.wrapping_add(b))
                            }
                            _ => AbsVal::Unknown,
                        }
                    }
                    Instr::Sub(d, s) => {
                        out[d as usize] = match (out[d as usize], out[s as usize]) {
                            (AbsVal::Const(a), AbsVal::Const(b)) => {
                                AbsVal::Const(a.wrapping_sub(b))
                            }
                            _ => AbsVal::Unknown,
                        }
                    }
                    Instr::Xor(d, s) => {
                        out[d as usize] = match (out[d as usize], out[s as usize]) {
                            (AbsVal::Const(a), AbsVal::Const(b)) => AbsVal::Const(a ^ b),
                            _ => AbsVal::Unknown,
                        }
                    }
                    Instr::Load(d, _) => out[d as usize] = AbsVal::Unknown,
                    Instr::Pop(r) => out[r as usize] = AbsVal::Unknown,
                    _ => {}
                }
                match instr.flow() {
                    Flow::Fall => propagate(ctx, pc + 1, out),
                    Flow::Jump(off) => propagate(ctx, rel_target(pc, off), out),
                    Flow::Branch(off) => {
                        // A branch on a known register takes exactly one edge.
                        let cond = match instr {
                            Instr::Jz(r, _) => out[r as usize],
                            _ => AbsVal::Unknown,
                        };
                        if cond != AbsVal::Const(0) {
                            propagate(ctx, pc + 1, out);
                        }
                        if !matches!(cond, AbsVal::Const(v) if v != 0) {
                            propagate(ctx, rel_target(pc, off), out);
                        }
                    }
                    Flow::Call(target) => {
                        counter.charge(Primitive::Alu, &self.model);
                        let d = depth[&id];
                        if d < self.limits.max_call_depth {
                            let callee = (target, out);
                            callers.entry(callee).or_default().insert((id, pc));
                            if let Some(x) = exits.get(&callee) {
                                let x = *x;
                                propagate(ctx, pc + 1, x);
                            }
                            if let Some(cur) = depth.get_mut(&callee) {
                                *cur = (*cur).min(d + 1);
                            } else {
                                depth.insert(callee, d + 1);
                                ctxs.insert(
                                    callee,
                                    Ctx {
                                        facts: BTreeMap::from([(target, out)]),
                                        work: vec![target],
                                    },
                                );
                                queue.insert(callee);
                            }
                        }
                        // Depth overrun already reported by the stack pass.
                    }
                    Flow::Ret => {
                        counter.charge(Primitive::Alu, &self.model);
                        let joined = match exits.get(&id) {
                            None => out,
                            Some(prev) => {
                                let mut j = *prev;
                                for (a, b) in j.iter_mut().zip(out) {
                                    *a = a.join(b);
                                }
                                j
                            }
                        };
                        if exits.get(&id) != Some(&joined) {
                            exits.insert(id, joined);
                            let waiting: Vec<(CtxId, u32)> = callers
                                .get(&id)
                                .map(|s| s.iter().copied().collect())
                                .unwrap_or_default();
                            for (caller, site) in waiting {
                                counter.charge(Primitive::Alu, &self.model);
                                let c = ctxs.get_mut(&caller).expect("registered caller");
                                propagate(c, site + 1, joined);
                                queue.insert(caller);
                            }
                        }
                        // A root-context return was already reported by the
                        // stack pass; register facts simply stop here.
                    }
                    Flow::Exit => {}
                }
            }
        }
        let mut access: BTreeMap<u32, SegAccess> = BTreeMap::new();
        for &h in &graph.heads {
            access.entry(h).or_default();
        }
        if !blown {
            // Check every memory access against the fixpoint facts, in
            // deterministic (context, pc) order.
            for (id, ctx) in &ctxs {
                let acc = access.entry(id.0).or_default();
                for (&pc, regs) in &ctx.facts {
                    counter.charge(Primitive::Alu, &self.model);
                    let (addr_reg, store) = match text[pc as usize] {
                        Instr::Load(_, a) => (a, false),
                        Instr::Store(a, _) => (a, true),
                        _ => continue,
                    };
                    match regs[addr_reg as usize] {
                        AbsVal::Const(addr) => {
                            if store {
                                widen(&mut acc.known_stores, addr);
                            } else {
                                widen(&mut acc.known_loads, addr);
                            }
                            if u64::from(addr) + 4 > data_bytes {
                                let kind = if store {
                                    DiagnosticKind::OutOfSegmentStore { addr }
                                } else {
                                    DiagnosticKind::OutOfSegmentLoad { addr }
                                };
                                let d = Diagnostic::error(
                                    Pass::SegmentDiscipline,
                                    Some(pc as usize),
                                    kind,
                                );
                                if !diags[before..].contains(&d) {
                                    diags.push(d);
                                }
                            }
                        }
                        AbsVal::Unknown => {
                            if store {
                                acc.unknown_stores = true;
                            } else {
                                acc.unknown_loads = true;
                            }
                        }
                    }
                }
            }
        }
        Self::finish_pass(Pass::SegmentDiscipline, before, diags, snap, counter, passes);
        access
    }

    /// Pass 6: warn about instructions no entry point can reach. Dead code
    /// cannot execute, so this never rejects — but a component shipping text
    /// it can never run is worth flagging to its author.
    fn pass_reachability(
        &self,
        program: &Program,
        entries: &[u32],
        diags: &mut Vec<Diagnostic>,
        passes: &mut Vec<PassReport>,
        counter: &mut CycleCounter,
    ) {
        let snap = counter.total();
        let before = diags.len();
        let mut reached = vec![false; program.len()];
        let mut work: Vec<u32> = entries.to_vec();
        while let Some(pc) = work.pop() {
            let slot = &mut reached[pc as usize];
            if *slot {
                continue;
            }
            *slot = true;
            counter.charge(Primitive::Load, &self.model);
            for succ in program.successors(pc) {
                counter.charge(Primitive::Alu, &self.model);
                work.push(succ);
            }
            // A call's return point is reachable once the callee returns.
            if let Flow::Call(_) = program.instrs()[pc as usize].flow() {
                work.push(pc + 1);
            }
        }
        for (pc, seen) in reached.iter().enumerate() {
            if !seen {
                diags.push(Diagnostic::warning(
                    Pass::Reachability,
                    Some(pc),
                    DiagnosticKind::UnreachableCode,
                ));
            }
        }
        Self::finish_pass(Pass::Reachability, before, diags, snap, counter, passes);
    }

    /// Fold the pass artifacts into one [`ProcedureSummary`] per procedure.
    fn assemble_summaries(
        graph: &ProcGraph,
        stack: &StackFacts,
        seg: &BTreeMap<u32, SegAccess>,
    ) -> Vec<ProcedureSummary> {
        graph
            .heads
            .iter()
            .map(|&h| {
                let acc = seg.get(&h);
                ProcedureSummary {
                    head: h,
                    instructions: graph.bodies.get(&h).map_or(0, Vec::len),
                    callees: graph
                        .callees
                        .get(&h)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default(),
                    recursive: stack.cyclic.contains(&h),
                    stack_effects: stack
                        .deltas
                        .get(&h)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default(),
                    max_stack_words: stack.max_height.get(&h).copied().unwrap_or(0),
                    known_loads: acc.and_then(|a| a.known_loads),
                    known_stores: acc.and_then(|a| a.known_stores),
                    unknown_loads: acc.is_some_and(|a| a.unknown_loads),
                    unknown_stores: acc.is_some_and(|a| a.unknown_stores),
                }
            })
            .collect()
    }
}

/// The retired v2 verifier: concrete call-stack-keyed stack/segment
/// dataflow. Compiled only for tests, purely as the
/// **differential-testing oracle** for the v3 summary passes —
/// on any image both verifiers must agree on the verdict and on the set of
/// diagnostic kinds. Its cost explodes with call-path count (each distinct
/// concrete call stack is a separate dataflow key), which is exactly what
/// the summary passes fix; never use it on a load path.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::{HashMap, HashSet};

    /// Verify `text` against `entries` with the v2 pipeline. `Ok` carries
    /// the accepting report, `Err` the rejecting one; both hold every
    /// diagnostic the v2 passes could prove.
    ///
    /// # Errors
    /// The rejecting [`VerifyReport`].
    pub(crate) fn verify_with_entries_v2(
        v: &SisrVerifier,
        text: &[u8],
        entries: &[u32],
    ) -> Result<VerifyReport, VerifyReport> {
        let mut diags: Vec<Diagnostic> = Vec::new();
        let mut passes: Vec<PassReport> = Vec::new();
        let mut counter = CycleCounter::new();
        let program = v.pass_decode(text, &mut diags, &mut passes, &mut counter);
        if let Some(program) = program {
            let cfg_clean =
                v.pass_control_flow(&program, entries, &mut diags, &mut passes, &mut counter);
            if cfg_clean {
                pass_stack_v2(v, &program, entries, &mut diags, &mut passes, &mut counter);
                pass_segment_v2(v, &program, entries, &mut diags, &mut passes, &mut counter);
                v.pass_reachability(&program, entries, &mut diags, &mut passes, &mut counter);
            }
        }
        let report = VerifyReport { diagnostics: diags, passes, cycles: counter.total() };
        if report.has_errors() {
            Err(report)
        } else {
            Ok(report)
        }
    }

    /// v2 stack discipline: explore (pc, concrete call stack, data-stack
    /// depth) states from every entry.
    fn pass_stack_v2(
        v: &SisrVerifier,
        program: &Program,
        entries: &[u32],
        diags: &mut Vec<Diagnostic>,
        passes: &mut Vec<PassReport>,
        counter: &mut CycleCounter,
    ) {
        let snap = counter.total();
        let before = diags.len();
        let stack_words = v.limits.stack_bytes / 4;
        let text = program.instrs();
        let push_diag = |diags: &mut Vec<Diagnostic>, d: Diagnostic| {
            if !diags[before..].contains(&d) {
                diags.push(d);
            }
        };
        let mut seen: HashSet<(u32, Vec<u32>, u32)> = HashSet::new();
        let mut work: Vec<(u32, Vec<u32>, u32)> =
            entries.iter().map(|&e| (e, Vec::new(), 0)).collect();
        let mut states = 0usize;
        while let Some((pc, calls, sp)) = work.pop() {
            if !seen.insert((pc, calls.clone(), sp)) {
                continue;
            }
            states += 1;
            if states > v.limits.state_budget {
                push_diag(
                    diags,
                    Diagnostic::error(
                        Pass::StackDiscipline,
                        None,
                        DiagnosticKind::AnalysisBudgetExceeded { states },
                    ),
                );
                break;
            }
            v.charge_visit(counter);
            let instr = text[pc as usize];
            let sp = match instr {
                Instr::Push(_) => {
                    if sp + 1 > stack_words {
                        push_diag(
                            diags,
                            Diagnostic::error(
                                Pass::StackDiscipline,
                                Some(pc as usize),
                                DiagnosticKind::DataStackOverflow { words: sp + 1 },
                            ),
                        );
                        continue;
                    }
                    sp + 1
                }
                Instr::Pop(_) => {
                    if sp == 0 {
                        push_diag(
                            diags,
                            Diagnostic::error(
                                Pass::StackDiscipline,
                                Some(pc as usize),
                                DiagnosticKind::DataStackUnderflow,
                            ),
                        );
                        continue;
                    }
                    sp - 1
                }
                _ => sp,
            };
            match instr.flow() {
                Flow::Fall => work.push((pc + 1, calls, sp)),
                Flow::Jump(off) => work.push((rel_target(pc, off), calls, sp)),
                Flow::Branch(off) => {
                    work.push((pc + 1, calls.clone(), sp));
                    work.push((rel_target(pc, off), calls, sp));
                }
                Flow::Call(target) => {
                    if calls.len() >= v.limits.max_call_depth {
                        push_diag(
                            diags,
                            Diagnostic::error(
                                Pass::StackDiscipline,
                                Some(pc as usize),
                                DiagnosticKind::CallDepthExceeded { depth: calls.len() },
                            ),
                        );
                    } else {
                        let mut calls = calls;
                        calls.push(pc + 1);
                        work.push((target, calls, sp));
                    }
                }
                Flow::Ret => {
                    let mut calls = calls;
                    match calls.pop() {
                        Some(ret) => work.push((ret, calls, sp)),
                        None => push_diag(
                            diags,
                            Diagnostic::error(
                                Pass::StackDiscipline,
                                Some(pc as usize),
                                DiagnosticKind::ReturnWithoutCall,
                            ),
                        ),
                    }
                }
                Flow::Exit => {}
            }
        }
        SisrVerifier::finish_pass(Pass::StackDiscipline, before, diags, snap, counter, passes);
    }

    /// v2 segment discipline: constant propagation with register facts
    /// keyed by (pc, concrete call stack).
    #[allow(clippy::too_many_lines)]
    fn pass_segment_v2(
        v: &SisrVerifier,
        program: &Program,
        entries: &[u32],
        diags: &mut Vec<Diagnostic>,
        passes: &mut Vec<PassReport>,
        counter: &mut CycleCounter,
    ) {
        let snap = counter.total();
        let before = diags.len();
        let data_bytes = u64::from(v.limits.data_bytes);
        let text = program.instrs();
        let mut facts: HashMap<(u32, Vec<u32>), Regs> = HashMap::new();
        let mut work: Vec<(u32, Vec<u32>)> = Vec::new();
        for &e in entries {
            facts.insert((e, Vec::new()), [AbsVal::Unknown; 8]);
            work.push((e, Vec::new()));
        }
        let mut states = 0usize;
        let mut budget_blown = false;
        while let Some(key) = work.pop() {
            states += 1;
            if states > v.limits.state_budget {
                diags.push(Diagnostic::error(
                    Pass::SegmentDiscipline,
                    None,
                    DiagnosticKind::AnalysisBudgetExceeded { states },
                ));
                budget_blown = true;
                break;
            }
            v.charge_visit(counter);
            let Some(&regs) = facts.get(&key) else { continue };
            let (pc, ref calls) = key;
            let instr = text[pc as usize];
            let mut out = regs;
            match instr {
                Instr::MovImm(d, i) => out[d as usize] = AbsVal::Const(i),
                Instr::MovReg(d, s) => out[d as usize] = out[s as usize],
                Instr::Add(d, s) => {
                    out[d as usize] = match (out[d as usize], out[s as usize]) {
                        (AbsVal::Const(a), AbsVal::Const(b)) => AbsVal::Const(a.wrapping_add(b)),
                        _ => AbsVal::Unknown,
                    }
                }
                Instr::Sub(d, s) => {
                    out[d as usize] = match (out[d as usize], out[s as usize]) {
                        (AbsVal::Const(a), AbsVal::Const(b)) => AbsVal::Const(a.wrapping_sub(b)),
                        _ => AbsVal::Unknown,
                    }
                }
                Instr::Xor(d, s) => {
                    out[d as usize] = match (out[d as usize], out[s as usize]) {
                        (AbsVal::Const(a), AbsVal::Const(b)) => AbsVal::Const(a ^ b),
                        _ => AbsVal::Unknown,
                    }
                }
                Instr::Load(d, _) => out[d as usize] = AbsVal::Unknown,
                Instr::Pop(r) => out[r as usize] = AbsVal::Unknown,
                _ => {}
            }
            let propagate = |facts: &mut HashMap<(u32, Vec<u32>), Regs>,
                             work: &mut Vec<(u32, Vec<u32>)>,
                             key: (u32, Vec<u32>),
                             regs: Regs| {
                match facts.get_mut(&key) {
                    None => {
                        facts.insert(key.clone(), regs);
                        work.push(key);
                    }
                    Some(stored) => {
                        let mut changed = false;
                        for (s, n) in stored.iter_mut().zip(regs) {
                            let joined = s.join(n);
                            if joined != *s {
                                *s = joined;
                                changed = true;
                            }
                        }
                        if changed {
                            work.push(key);
                        }
                    }
                }
            };
            match instr.flow() {
                Flow::Fall => propagate(&mut facts, &mut work, (pc + 1, calls.clone()), out),
                Flow::Jump(off) => {
                    propagate(&mut facts, &mut work, (rel_target(pc, off), calls.clone()), out);
                }
                Flow::Branch(off) => {
                    let cond = match instr {
                        Instr::Jz(r, _) => out[r as usize],
                        _ => AbsVal::Unknown,
                    };
                    if cond != AbsVal::Const(0) {
                        propagate(&mut facts, &mut work, (pc + 1, calls.clone()), out);
                    }
                    if !matches!(cond, AbsVal::Const(v) if v != 0) {
                        propagate(&mut facts, &mut work, (rel_target(pc, off), calls.clone()), out);
                    }
                }
                Flow::Call(target) => {
                    if calls.len() < v.limits.max_call_depth {
                        let mut calls = calls.clone();
                        calls.push(pc + 1);
                        propagate(&mut facts, &mut work, (target, calls), out);
                    }
                }
                Flow::Ret => {
                    let mut calls = calls.clone();
                    if let Some(ret) = calls.pop() {
                        propagate(&mut facts, &mut work, (ret, calls), out);
                    }
                }
                Flow::Exit => {}
            }
        }
        if !budget_blown {
            let mut keys: Vec<&(u32, Vec<u32>)> = facts.keys().collect();
            keys.sort();
            for key in keys {
                counter.charge(Primitive::Alu, &v.model);
                let (addr_reg, store) = match text[key.0 as usize] {
                    Instr::Load(_, a) => (a, false),
                    Instr::Store(a, _) => (a, true),
                    _ => continue,
                };
                if let AbsVal::Const(addr) = facts[key][addr_reg as usize] {
                    if u64::from(addr) + 4 > data_bytes {
                        let kind = if store {
                            DiagnosticKind::OutOfSegmentStore { addr }
                        } else {
                            DiagnosticKind::OutOfSegmentLoad { addr }
                        };
                        let d =
                            Diagnostic::error(Pass::SegmentDiscipline, Some(key.0 as usize), kind);
                        if !diags[before..].contains(&d) {
                            diags.push(d);
                        }
                    }
                }
            }
        }
        SisrVerifier::finish_pass(Pass::SegmentDiscipline, before, diags, snap, counter, passes);
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use machine::seg::SegReg;

    fn verifier() -> SisrVerifier {
        SisrVerifier::new(CostModel::pentium())
    }

    fn kinds(report: &VerifyReport) -> Vec<&DiagnosticKind> {
        report.diagnostics.iter().map(|d| &d.kind).collect()
    }

    #[test]
    fn accepts_clean_program() {
        let p = Program::new(vec![
            Instr::MovImm(0, 1),
            Instr::Add(0, 0),
            Instr::Trap(0x30), // traps are fine: they cannot subvert protection
            Instr::Halt,
        ]);
        let img = verifier().verify_program(&p).unwrap();
        assert_eq!(img.program(), &p);
        assert_eq!(img.entry_points(), &[0]);
        assert!(img.scan_cycles() > 0);
        assert_eq!(img.report().passes.len(), Pass::ALL.len(), "every pass ran");
    }

    #[test]
    fn rejects_each_privileged_instruction() {
        let privileged = [
            Instr::LoadSegReg(SegReg::Ds, 0),
            Instr::Cli,
            Instr::Sti,
            Instr::LoadPageTable(0),
            Instr::IoIn(0, 0x60),
            Instr::IoOut(0, 0x60),
            Instr::Iret,
        ];
        for bad in privileged {
            let p = Program::new(vec![Instr::Nop, bad, Instr::Halt]);
            let report = verifier().verify_program(&p).unwrap_err();
            let d = report.errors().next().expect("one error");
            assert_eq!(d.pass, Pass::Decode);
            assert_eq!(d.index, Some(1));
            assert_eq!(
                d.kind,
                DiagnosticKind::PrivilegedInstruction { instr: bad },
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn collects_every_privileged_instruction_not_just_the_first() {
        let p = Program::new(vec![Instr::Cli, Instr::Nop, Instr::Sti, Instr::Halt]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert_eq!(report.error_count(), 2);
        let indices: Vec<_> = report.errors().map(|d| d.index).collect();
        assert_eq!(indices, vec![Some(0), Some(2)]);
    }

    #[test]
    fn rejects_misaligned_and_undecodable_text() {
        let report = verifier().verify(&[0u8; 9]).unwrap_err();
        assert_eq!(kinds(&report), vec![&DiagnosticKind::MisalignedText { len: 9 }]);

        let mut bytes = Program::new(vec![Instr::Nop]).to_bytes();
        bytes.extend_from_slice(&[0xff, 0, 0, 0, 0, 0, 0, 0]);
        let report = verifier().verify(&bytes).unwrap_err();
        let d = &report.diagnostics[0];
        assert_eq!(
            (d.pass, d.index, &d.kind),
            (Pass::Decode, Some(1), &DiagnosticKind::UndecodableWord)
        );
    }

    #[test]
    fn privileged_opcode_at_first_and_last_index_is_caught() {
        for text in [vec![Instr::Iret, Instr::Halt], vec![Instr::Nop, Instr::Halt, Instr::Iret]] {
            let report = verifier().verify_program(&Program::new(text.clone())).unwrap_err();
            let idx = text.iter().position(|i| i.is_privileged()).unwrap();
            let d = report.errors().next().unwrap();
            assert_eq!(d.index, Some(idx));
            assert_eq!(d.pass, Pass::Decode);
        }
    }

    #[test]
    fn rejects_out_of_bounds_jump_target() {
        // The program's only flaw: the branch escapes the text.
        let p = Program::new(vec![Instr::Nop, Instr::Jmp(100), Instr::Halt]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert_eq!(report.error_count(), 1);
        let d = report.errors().next().unwrap();
        assert_eq!(d.pass, Pass::ControlFlow);
        assert_eq!(d.index, Some(1));
        assert_eq!(d.kind, DiagnosticKind::JumpOutOfBounds { target: 101 });
    }

    #[test]
    fn rejects_backward_wrapping_jump() {
        let p = Program::new(vec![Instr::Jmp(-1), Instr::Halt]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert_eq!(kinds(&report), vec![&DiagnosticKind::JumpOutOfBounds { target: u32::MAX }]);
    }

    #[test]
    fn rejects_out_of_bounds_call_and_conditional_branch() {
        let p = Program::new(vec![Instr::Call(40), Instr::Jz(0, 40), Instr::Halt]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert_eq!(report.error_count(), 2, "both bad edges reported: {report}");
        assert!(kinds(&report).contains(&&DiagnosticKind::CallOutOfBounds { target: 40 }));
        assert!(kinds(&report).contains(&&DiagnosticKind::JumpOutOfBounds { target: 41 }));
    }

    #[test]
    fn rejects_fallthrough_off_end_of_text() {
        let p = Program::new(vec![Instr::Nop, Instr::MovImm(0, 1)]);
        let report = verifier().verify_program(&p).unwrap_err();
        let d = report.errors().next().unwrap();
        assert_eq!(d.pass, Pass::ControlFlow);
        assert_eq!(d.index, Some(1));
        assert_eq!(d.kind, DiagnosticKind::FallthroughOffEnd);
    }

    #[test]
    fn rejects_unbalanced_return() {
        // The program's only flaw: Ret with an empty call stack.
        let p = Program::new(vec![Instr::Nop, Instr::Ret, Instr::Halt]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert_eq!(report.error_count(), 1);
        let d = report.errors().next().unwrap();
        assert_eq!(d.pass, Pass::StackDiscipline);
        assert_eq!(d.index, Some(1));
        assert_eq!(d.kind, DiagnosticKind::ReturnWithoutCall);
        // The warning-only reachability pass still saw index 2 as dead... no:
        // 2 is unreachable only if Ret stops the path; the CFG treats Ret as
        // having no static successor, so index 2 is dead code.
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagnosticKind::UnreachableCode && d.index == Some(2)));
    }

    #[test]
    fn accepts_balanced_call_and_return() {
        let p = Program::new(vec![
            Instr::Call(2), // 0
            Instr::Halt,    // 1
            Instr::MovImm(0, 7),
            Instr::Ret, // 3 -> returns to 1
        ]);
        let img = verifier().verify_program(&p).unwrap();
        assert_eq!(img.report().error_count(), 0);
        assert_eq!(img.report().warning_count(), 0, "everything reachable");
    }

    #[test]
    fn rejects_unbounded_recursion() {
        // f calls itself forever: exceeds any finite verified call depth.
        let p = Program::new(vec![Instr::Call(0), Instr::Halt]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert!(
            kinds(&report).iter().any(|k| matches!(k, DiagnosticKind::CallDepthExceeded { .. })),
            "{report}"
        );
    }

    #[test]
    fn rejects_pop_of_empty_stack_and_statically_deep_push() {
        let p = Program::new(vec![Instr::Pop(0), Instr::Halt]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert!(kinds(&report).contains(&&DiagnosticKind::DataStackUnderflow));

        // Push in an infinite loop blows past the 4 KiB stack segment.
        let p = Program::new(vec![Instr::Push(0), Instr::Jmp(-1), Instr::Halt]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert!(
            kinds(&report).iter().any(|k| matches!(k, DiagnosticKind::DataStackOverflow { .. })),
            "{report}"
        );
    }

    #[test]
    fn balanced_push_pop_loop_verifies() {
        let p = Program::new(vec![
            Instr::Push(0),   // 0
            Instr::Pop(1),    // 1
            Instr::Jz(1, -2), // 2: loop while r1 == 0
            Instr::Halt,      // 3
        ]);
        assert!(verifier().verify_program(&p).is_ok());
    }

    #[test]
    fn rejects_statically_out_of_segment_store() {
        // MovImm 100_000 then Store: address is a must-fact, 100_000 + 4
        // escapes the default 4 KiB data grant.
        let p = Program::new(vec![Instr::MovImm(0, 100_000), Instr::Store(0, 1), Instr::Halt]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert_eq!(report.error_count(), 1);
        let d = report.errors().next().unwrap();
        assert_eq!(d.pass, Pass::SegmentDiscipline);
        assert_eq!(d.index, Some(1));
        assert_eq!(d.kind, DiagnosticKind::OutOfSegmentStore { addr: 100_000 });
    }

    #[test]
    fn rejects_statically_out_of_segment_load_through_arithmetic() {
        // The address is computed: 4000 + 4000 = 8000, still a must-fact.
        let p = Program::new(vec![
            Instr::MovImm(0, 4000),
            Instr::MovReg(1, 0),
            Instr::Add(0, 1),
            Instr::Load(2, 0),
            Instr::Halt,
        ]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert_eq!(kinds(&report), vec![&DiagnosticKind::OutOfSegmentLoad { addr: 8000 }]);
    }

    #[test]
    fn unknown_addresses_are_left_to_the_hardware() {
        // The address arrives in a register (an argument): statically
        // unknown, so the verifier must accept and let segmentation guard it.
        let p = Program::new(vec![Instr::Store(0, 1), Instr::Halt]);
        assert!(verifier().verify_program(&p).is_ok());
    }

    #[test]
    fn disagreeing_paths_join_to_unknown() {
        // r0 is 0 on one path and 100_000 on the other; after the join it is
        // not a must-fact, so the store is accepted (hardware guards it).
        let p = Program::new(vec![
            Instr::Jz(1, 3),           // 0: if r1 == 0 jump to 3
            Instr::MovImm(0, 0),       // 1
            Instr::Jmp(2),             // 2 -> 4
            Instr::MovImm(0, 100_000), // 3
            Instr::Store(0, 2),        // 4: joined r0 is Unknown
            Instr::Halt,               // 5
        ]);
        assert!(verifier().verify_program(&p).is_ok());
    }

    #[test]
    fn constant_branch_prunes_the_dead_edge() {
        // r0 = 1, so Jz never jumps: the out-of-segment store behind the
        // taken edge is unreachable in any execution — but the *CFG* pass
        // still requires the edge to stay in text, and the segment pass
        // (which follows only feasible edges) accepts.
        let p = Program::new(vec![
            Instr::MovImm(0, 1),       // 0
            Instr::Jz(0, 2),           // 1: never taken
            Instr::Jmp(2),             // 2 -> 4
            Instr::MovImm(1, 100_000), // 3: feasibly dead
            Instr::Store(1, 0),        // 4: r1 unknown on the live path? no —
            Instr::Halt,               //    r1 never written on it: Unknown.
        ]);
        assert!(verifier().verify_program(&p).is_ok());
    }

    #[test]
    fn multiple_flaws_collect_into_one_report() {
        // An out-of-bounds jump AND a fallthrough off the end: both named.
        let p = Program::new(vec![Instr::Jz(0, 100), Instr::MovImm(0, 1)]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert_eq!(report.error_count(), 2, "{report}");
        assert!(kinds(&report).contains(&&DiagnosticKind::JumpOutOfBounds { target: 100 }));
        assert!(kinds(&report).contains(&&DiagnosticKind::FallthroughOffEnd));
        // And the report names the pass both came from.
        assert!(report.errors().all(|d| d.pass == Pass::ControlFlow));
    }

    #[test]
    fn dead_code_is_a_warning_not_an_error() {
        let p = Program::new(vec![
            Instr::Jmp(2),       // 0 -> 2
            Instr::MovImm(0, 9), // 1: dead
            Instr::Halt,         // 2
        ]);
        let img = verifier().verify_program(&p).unwrap();
        assert_eq!(img.report().warning_count(), 1);
        let w = &img.report().diagnostics[0];
        assert_eq!((w.pass, w.severity), (Pass::Reachability, Severity::Warning));
        assert_eq!((w.index, &w.kind), (Some(1), &DiagnosticKind::UnreachableCode));
    }

    #[test]
    fn extra_entry_points_make_more_code_reachable() {
        let p = Program::new(vec![
            Instr::Halt,         // 0: entry a
            Instr::MovImm(0, 1), // 1: entry b
            Instr::Halt,         // 2
        ]);
        let img = verifier().verify_with_entries(&p.to_bytes(), &[0, 1]).unwrap();
        assert_eq!(img.report().warning_count(), 0);
        assert_eq!(img.entry_points(), &[0, 1]);
        // With only entry 0, indices 1-2 are dead.
        let img = verifier().verify_program(&p).unwrap();
        assert_eq!(img.report().warning_count(), 2);
    }

    #[test]
    fn bad_entry_point_is_rejected() {
        let p = Program::new(vec![Instr::Halt]);
        let report = verifier().verify_with_entries(&p.to_bytes(), &[3]).unwrap_err();
        assert_eq!(kinds(&report), vec![&DiagnosticKind::BadEntryPoint { entry: 3 }]);
    }

    #[test]
    fn each_pass_reports_its_cycle_bill() {
        let p = Program::new(vec![Instr::MovImm(0, 1), Instr::Halt]);
        let img = verifier().verify_program(&p).unwrap();
        let report = img.report();
        let per_pass: Cycles = report.passes.iter().map(|p| p.cycles).sum();
        assert_eq!(per_pass, report.cycles, "pass bills sum to the total");
        for pass in Pass::ALL {
            assert!(report.pass(pass).is_some(), "{pass} ran");
        }
        assert!(report.pass(Pass::Decode).unwrap().cycles > 0);
    }

    #[test]
    fn later_passes_are_gated_on_earlier_proofs() {
        // Decode fails => only the decode pass ran.
        let report =
            verifier().verify_program(&Program::new(vec![Instr::Cli, Instr::Halt])).unwrap_err();
        assert_eq!(report.passes.len(), 1);
        // CFG fails => dataflow passes don't chase invalid edges.
        let report = verifier()
            .verify_program(&Program::new(vec![Instr::Jmp(100), Instr::Halt]))
            .unwrap_err();
        assert_eq!(report.passes.len(), 2);
    }

    #[test]
    fn scan_cost_is_linear_in_text_length() {
        // Each pass does work proportional to text size (plus a constant),
        // so cycle deltas between sizes scale exactly with the size deltas.
        let v = verifier();
        let cost = |n: usize| {
            let mut text = vec![Instr::Nop; n - 1];
            text.push(Instr::Halt);
            v.verify_program(&Program::new(text)).unwrap().scan_cycles()
        };
        let (c10, c100, c1000) = (cost(10), cost(100), cost(1000));
        assert!(c10 < c100 && c100 < c1000);
        assert_eq!(c1000 - c100, 10 * (c100 - c10), "affine in program size");
    }

    #[test]
    fn empty_image_is_valid() {
        let img = verifier().verify(&[]).unwrap();
        assert!(img.program().is_empty());
        assert!(img.entry_points().is_empty());
        assert_eq!(img.scan_cycles(), 0);
    }

    #[test]
    fn analysis_budget_rejects_tangled_programs() {
        // A tiny budget makes even a clean program unverifiable — and
        // unverifiable means rejected, conservatively.
        let limits = Limits { state_budget: 2, ..Limits::default() };
        let v = SisrVerifier::with_limits(CostModel::pentium(), limits);
        let p = Program::new(vec![Instr::Nop, Instr::Nop, Instr::Nop, Instr::Halt]);
        let report = v.verify_program(&p).unwrap_err();
        assert!(
            kinds(&report)
                .iter()
                .any(|k| matches!(k, DiagnosticKind::AnalysisBudgetExceeded { .. })),
            "{report}"
        );
    }

    #[test]
    fn report_display_names_pass_and_index() {
        let p = Program::new(vec![Instr::Jmp(100), Instr::Halt]);
        let report = verifier().verify_program(&p).unwrap_err();
        let text = report.to_string();
        assert!(text.contains("[control-flow] error at 0"), "{text}");
        assert!(text.contains("jump target 100"), "{text}");
    }

    #[test]
    fn accepted_image_carries_procedure_summaries() {
        let p = Program::new(vec![
            Instr::Call(3),      // 0: main calls helper
            Instr::Push(0),      // 1
            Instr::Halt,         // 2
            Instr::MovImm(0, 8), // 3: helper
            Instr::Store(0, 1),  // 4: statically-known store at byte 8
            Instr::Ret,          // 5
        ]);
        let img = verifier().verify_program(&p).unwrap();
        let summaries = img.summaries();
        assert_eq!(summaries.len(), 2, "main and helper");
        let main = &summaries[0];
        assert_eq!((main.head, main.callees.as_slice()), (0, &[3][..]));
        assert_eq!(main.max_stack_words, 1, "one push above entry");
        assert!(!main.recursive);
        let helper = &summaries[1];
        assert_eq!(helper.head, 3);
        assert_eq!(helper.stack_effects, vec![0], "balanced callee");
        assert_eq!(helper.known_stores, Some((8, 8)));
        assert!(!helper.unknown_stores);
        // Summaries render for the pass-report printers.
        assert!(main.to_string().starts_with("proc@0:"), "{main}");
    }

    #[test]
    fn constants_flow_through_calls_into_the_callee() {
        // The caller passes an out-of-segment address in r0; the callee does
        // the store. Only an interprocedural analysis catches this.
        let p = Program::new(vec![
            Instr::MovImm(0, 100_000), // 0
            Instr::Call(3),            // 1
            Instr::Halt,               // 2
            Instr::Store(0, 1),        // 3: callee stores through r0
            Instr::Ret,                // 4
        ]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert_eq!(report.error_count(), 1, "{report}");
        let d = report.errors().next().unwrap();
        assert_eq!(d.pass, Pass::SegmentDiscipline);
        assert_eq!(d.index, Some(3));
        assert_eq!(d.kind, DiagnosticKind::OutOfSegmentStore { addr: 100_000 });
    }

    #[test]
    fn callee_summary_is_shared_across_call_sites() {
        // Two sites call the same callee with different constants; the
        // callee is analysed per entry vector, so the safe site stays safe
        // and the hostile one is named.
        let p = Program::new(vec![
            Instr::MovImm(0, 0),       // 0
            Instr::Call(5),            // 1
            Instr::MovImm(0, 100_000), // 2
            Instr::Call(5),            // 3
            Instr::Halt,               // 4
            Instr::Load(1, 0),         // 5: callee loads through r0
            Instr::Ret,                // 6
        ]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert_eq!(
            kinds(&report),
            vec![&DiagnosticKind::OutOfSegmentLoad { addr: 100_000 }],
            "only the hostile context is rejected"
        );
    }

    #[test]
    fn mutual_recursion_is_rejected_as_depth_exceeded() {
        let p = Program::new(vec![
            Instr::Call(2), // 0: entry calls f
            Instr::Halt,    // 1
            Instr::Call(4), // 2: f calls g
            Instr::Ret,     // 3
            Instr::Call(2), // 4: g calls f — cycle
            Instr::Ret,     // 5
        ]);
        let report = verifier().verify_program(&p).unwrap_err();
        assert!(
            kinds(&report).iter().any(|k| matches!(k, DiagnosticKind::CallDepthExceeded { .. })),
            "{report}"
        );
    }

    #[test]
    fn verification_cost_is_linear_in_procedure_count() {
        // k procedures, each called once from a dispatcher. v2 cost grew
        // with call *paths*; the summary passes are affine in procedure
        // count — the whole point of v3.
        let v = verifier();
        let cost = |k: u32| {
            let mut text = Vec::new();
            for i in 0..k {
                // Procedure bodies live after the k-call dispatcher + halt.
                text.push(Instr::Call(k + 1 + 3 * i));
            }
            text.push(Instr::Halt);
            for _ in 0..k {
                text.push(Instr::Push(0));
                text.push(Instr::Pop(1));
                text.push(Instr::Ret);
            }
            v.verify_program(&Program::new(text)).unwrap().scan_cycles()
        };
        let (c1, c4, c16) = (cost(1), cost(4), cost(16));
        assert!(c1 < c4 && c4 < c16);
        assert_eq!(c16 - c4, 4 * (c4 - c1), "affine in procedure count");
    }

    #[test]
    fn deep_linear_call_chains_stay_cheap() {
        // A chain main -> p1 -> p2 -> ... -> p40: one summary each, no
        // path enumeration. Must verify (depth 41 < 64) and stay linear.
        let depth = 40u32;
        let mut text = vec![Instr::Call(2), Instr::Halt];
        for i in 0..depth {
            if i + 1 < depth {
                text.push(Instr::Call(2 + 2 * (i + 1)));
            } else {
                text.push(Instr::Nop);
            }
            text.push(Instr::Ret);
        }
        let img = verifier().verify_program(&Program::new(text)).unwrap();
        assert_eq!(img.summaries().len(), 1 + depth as usize);
    }

    #[test]
    fn summary_pass_bills_cycles_like_the_others() {
        let p = Program::new(vec![Instr::Call(2), Instr::Halt, Instr::Ret]);
        let img = verifier().verify_program(&p).unwrap();
        let s = img.report().pass(Pass::Summary).expect("summary pass ran");
        assert!(s.cycles > 0);
        assert_eq!((s.errors, s.warnings), (0, 0), "structural pass never rejects");
    }

    mod differential {
        use super::*;
        use adm_rng::{run_cases, Pcg32};
        use std::collections::BTreeSet;

        /// The kinds a report proved, payload included, as a set — v2 and
        /// v3 may differ in diagnostic *indices* (v2 anchors a recursion
        /// error at whichever call executes at the depth bound, v3 at the
        /// cycle's call sites) and in duplicate counts, but never in the
        /// set of proven kinds.
        fn kind_set(r: &VerifyReport) -> BTreeSet<String> {
            r.diagnostics.iter().map(|d| format!("{:?}", d.kind)).collect()
        }

        fn assert_agree(v: &SisrVerifier, text: &[u8], entries: &[u32], what: &str) {
            let v3 = v.verify_with_entries(text, entries);
            let v2 = oracle::verify_with_entries_v2(v, text, entries);
            assert_eq!(v3.is_ok(), v2.is_ok(), "verdict differs on {what}");
            let (k3, k2) = match (&v3, &v2) {
                (Ok(img), Ok(rep)) => (kind_set(img.report()), kind_set(rep)),
                (Err(r3), Err(r2)) => (kind_set(r3), kind_set(r2)),
                _ => unreachable!(),
            };
            assert_eq!(k3, k2, "diagnostic kinds differ on {what}");
        }

        /// The corpus of hand-written seed images: every shape the unit
        /// tests exercise, good and evil.
        fn seed_corpus() -> Vec<Program> {
            vec![
                Program::new(vec![Instr::MovImm(0, 1), Instr::Add(0, 0), Instr::Halt]),
                Program::new(vec![Instr::Nop, Instr::Ret, Instr::Halt]),
                Program::new(vec![Instr::Call(2), Instr::Halt, Instr::MovImm(0, 7), Instr::Ret]),
                Program::new(vec![Instr::Call(0), Instr::Halt]),
                Program::new(vec![Instr::Pop(0), Instr::Halt]),
                Program::new(vec![Instr::Push(0), Instr::Jmp(-1), Instr::Halt]),
                Program::new(vec![Instr::Push(0), Instr::Pop(1), Instr::Jz(1, -2), Instr::Halt]),
                Program::new(vec![Instr::MovImm(0, 100_000), Instr::Store(0, 1), Instr::Halt]),
                Program::new(vec![
                    Instr::MovImm(0, 4000),
                    Instr::MovReg(1, 0),
                    Instr::Add(0, 1),
                    Instr::Load(2, 0),
                    Instr::Halt,
                ]),
                Program::new(vec![Instr::Store(0, 1), Instr::Halt]),
                Program::new(vec![
                    Instr::Jz(1, 3),
                    Instr::MovImm(0, 0),
                    Instr::Jmp(2),
                    Instr::MovImm(0, 100_000),
                    Instr::Store(0, 2),
                    Instr::Halt,
                ]),
                Program::new(vec![
                    Instr::MovImm(0, 1),
                    Instr::Jz(0, 2),
                    Instr::Jmp(2),
                    Instr::MovImm(1, 100_000),
                    Instr::Store(1, 0),
                    Instr::Halt,
                ]),
                Program::new(vec![Instr::Jmp(2), Instr::MovImm(0, 9), Instr::Halt]),
                Program::new(vec![Instr::Jz(0, 100), Instr::MovImm(0, 1)]),
                Program::new(vec![Instr::Nop, Instr::Jmp(100), Instr::Halt]),
                Program::new(vec![Instr::Jmp(-1), Instr::Halt]),
                Program::new(vec![Instr::Call(40), Instr::Jz(0, 40), Instr::Halt]),
                Program::new(vec![
                    Instr::MovImm(0, 100_000),
                    Instr::Call(3),
                    Instr::Halt,
                    Instr::Store(0, 1),
                    Instr::Ret,
                ]),
                Program::new(vec![
                    Instr::Call(2),
                    Instr::Halt,
                    Instr::Call(4),
                    Instr::Ret,
                    Instr::Call(2),
                    Instr::Ret,
                ]),
            ]
        }

        /// A random straight-line-ish instruction (no calls). Offsets stay
        /// within ±(len+2) so out-of-bounds edges occur but rarely drown
        /// out the interesting dataflow cases.
        fn random_instr(rng: &mut Pcg32, len: u32, calls: bool) -> Instr {
            let r = |rng: &mut Pcg32| rng.range_u32(0, 8) as u8;
            let off =
                |rng: &mut Pcg32| rng.range_i64(-i64::from(len + 2), i64::from(len + 2)) as i32;
            match rng.below(if calls { 14 } else { 13 }) {
                0 => Instr::Nop,
                1 => Instr::MovImm(r(rng), rng.range_u32(0, 200_000)),
                2 => Instr::MovReg(r(rng), r(rng)),
                3 => Instr::Add(r(rng), r(rng)),
                4 => Instr::Sub(r(rng), r(rng)),
                5 => Instr::Xor(r(rng), r(rng)),
                6 => Instr::Load(r(rng), r(rng)),
                7 => Instr::Store(r(rng), r(rng)),
                8 => Instr::Jmp(off(rng)),
                9 => Instr::Jz(r(rng), off(rng)),
                10 => Instr::Push(r(rng)),
                11 => Instr::Pop(r(rng)),
                12 => Instr::Halt,
                _ => Instr::Call(rng.range_u32(0, len + 2)),
            }
        }

        #[test]
        fn v3_matches_v2_on_the_seed_corpus() {
            let v = verifier();
            assert_agree(&v, &[], &[], "empty image");
            for (i, p) in seed_corpus().iter().enumerate() {
                assert_agree(&v, &p.to_bytes(), &[0], &format!("seed image {i}"));
            }
        }

        #[test]
        fn v3_matches_v2_on_random_call_free_images() {
            // Call-free programs up to 48 instructions: the dataflow
            // domains are identical, so verdict and kinds must agree.
            let v = verifier();
            run_cases(0xD1FF_0001, 192, |rng| {
                let len = rng.range_u32(1, 49);
                let mut text: Vec<Instr> =
                    (0..len).map(|_| random_instr(rng, len, false)).collect();
                if rng.chance(0.7) {
                    text.push(Instr::Halt);
                }
                let len = text.len() as u32;
                let entries: Vec<u32> =
                    if rng.chance(0.2) { vec![0, rng.range_u32(0, len + 1)] } else { vec![0] };
                let p = Program::new(text);
                assert_agree(&v, &p.to_bytes(), &entries, &format!("{:?}", p.instrs()));
            });
        }

        #[test]
        fn v3_matches_v2_on_random_call_heavy_images() {
            // With calls the program is kept to <= 12 instructions: small
            // enough that a procedure can never push the whole stack
            // segment within the verified call depth, which is the regime
            // where the v2 path walk and the v3 summary fixpoint provably
            // prove the same kinds (see DESIGN.md §12).
            let v = verifier();
            run_cases(0xD1FF_0002, 192, |rng| {
                let len = rng.range_u32(2, 13);
                let mut text: Vec<Instr> = (0..len).map(|_| random_instr(rng, len, true)).collect();
                if rng.chance(0.7) {
                    text.push(Instr::Halt);
                }
                let p = Program::new(text);
                assert_agree(&v, &p.to_bytes(), &[0], &format!("{:?}", p.instrs()));
            });
        }

        #[test]
        fn v3_matches_v2_on_byte_fuzzed_images() {
            // Raw byte corruption: decode/alignment flaws are shared-pass
            // territory but the agreement must still hold end to end.
            let v = verifier();
            run_cases(0xD1FF_0003, 64, |rng| {
                let len = rng.range_u32(1, 17);
                let mut text: Vec<Instr> =
                    (0..len).map(|_| random_instr(rng, len, false)).collect();
                text.push(Instr::Halt);
                let mut bytes = Program::new(text).to_bytes();
                let flips = rng.range_u32(0, 4);
                for _ in 0..flips {
                    let i = rng.index(bytes.len());
                    bytes[i] ^= 1 << rng.range_u32(0, 8);
                }
                if rng.chance(0.1) {
                    bytes.push(0);
                }
                assert_agree(&v, &bytes, &[0], "byte-fuzzed image");
            });
        }
    }
}
