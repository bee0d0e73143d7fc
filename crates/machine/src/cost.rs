//! Cycle cost model.
//!
//! Every primitive operation the simulated machine (and the kernels built on
//! it) can perform has a cycle cost. The defaults are calibrated against
//! published Pentium-era numbers — the hardware generation the paper's Go!
//! prototype ran on — because Table 1 is denominated in cycles of that era:
//!
//! * `int n` / `iret` pair ≈ 100+ cycles on a Pentium (Liedtke's L4 papers
//!   put the bare hardware trap cost at ~107 cycles round trip);
//! * a segment-register load is a handful of cycles — the paper itself says a
//!   full Go! context switch (three segment loads) "amounts to only 3 cycles
//!   on a Pentium", i.e. ~1 cycle per load;
//! * `mov %cr3` (page-table switch) is ~36 cycles, but its real cost is the
//!   TLB refill that follows: tens of entries × ~30 cycles a walk;
//! * cache-hit loads/stores are 1–2 cycles; a scheduler pass on a 1990s BSD
//!   is hundreds of instructions.
//!
//! Kernels never add raw numbers to the counter; they *charge* named
//! primitives. That keeps the accounting auditable: the per-kernel totals in
//! Table 1 can be decomposed primitive-by-primitive (see
//! `gokernel::breakdown`).

/// A quantity of CPU cycles.
pub type Cycles = u64;

/// Per-primitive cycle costs. All fields are public so experiments can
/// re-calibrate (e.g. to model a machine with costlier traps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// One ALU operation (add/sub/xor/compare) on registers.
    pub alu: Cycles,
    /// A load that hits the L1 cache.
    pub load: Cycles,
    /// A store that hits the L1 cache.
    pub store: Cycles,
    /// A taken branch, call or return (predicted).
    pub branch: Cycles,
    /// A mispredicted or indirect branch.
    pub branch_indirect: Cycles,
    /// Copying one 32-bit word between buffers (load+store+loop overhead).
    pub copy_word: Cycles,
    /// Hardware trap entry: `int n` — pipeline flush, privilege check,
    /// stack switch, vector fetch.
    pub trap_enter: Cycles,
    /// Hardware trap exit: `iret`.
    pub trap_exit: Cycles,
    /// Loading one segment register (descriptor fetch + protection check).
    pub seg_reg_load: Cycles,
    /// Loading the page-table base register (`mov %cr3`), *excluding* refill.
    pub page_table_switch: Cycles,
    /// Refilling one TLB entry after a flush (page-table walk).
    pub tlb_refill_entry: Cycles,
    /// Saving or restoring a full integer register file to/from memory.
    pub regfile_save: Cycles,
    /// Saving or restoring FPU state (traditional kernels do this lazily at
    /// best; BSD-era RPC paths frequently paid it).
    pub fpu_save: Cycles,
    /// One run-queue / scheduler bookkeeping step (dequeue, priority
    /// recompute, accounting).
    pub sched_step: Cycles,
    /// One cache-line miss. Crossing into a large kernel evicts and reloads
    /// its text/data working set; the L4 literature identifies this — not the
    /// trap itself — as the dominant cost of big-kernel IPC.
    pub cache_miss: Cycles,
    /// Transferring one 4 KiB page between memory and stable storage: DMA
    /// setup, the transfer itself, and the completion interrupt. The database
    /// machine's buffer pool charges this on every pool miss and dirty-page
    /// writeback.
    pub page_io: Cycles,
    /// Forcing the sequential log tail to stable storage — a short, seekless
    /// write plus the barrier. The write-ahead log charges this once per
    /// commit (group-commit amortisation is a calibration experiment, not a
    /// default).
    pub log_force: Cycles,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::pentium()
    }
}

impl CostModel {
    /// The default calibration: a ~200 MHz Pentium-class machine, the
    /// hardware generation behind the paper's Table 1.
    #[must_use]
    pub fn pentium() -> Self {
        Self {
            alu: 1,
            load: 2,
            store: 2,
            branch: 1,
            branch_indirect: 5,
            copy_word: 3,
            trap_enter: 70,
            trap_exit: 36,
            seg_reg_load: 1,
            page_table_switch: 36,
            tlb_refill_entry: 30,
            regfile_save: 40,
            fpu_save: 150,
            sched_step: 25,
            cache_miss: 20,
            page_io: 1_200,
            log_force: 400,
        }
    }

    /// A calibration for a hypothetical modern deep-pipeline machine where
    /// traps and TLB refills are relatively *more* expensive — used by the
    /// ablation benches to show Table 1's gap widens, not narrows.
    #[must_use]
    pub fn deep_pipeline() -> Self {
        Self {
            alu: 1,
            load: 4,
            store: 4,
            branch: 1,
            branch_indirect: 20,
            copy_word: 4,
            trap_enter: 400,
            trap_exit: 200,
            seg_reg_load: 2,
            page_table_switch: 100,
            tlb_refill_entry: 80,
            regfile_save: 60,
            fpu_save: 250,
            sched_step: 40,
            cache_miss: 100,
            page_io: 2_400,
            log_force: 600,
        }
    }
}

/// A named primitive the machine can charge for. Kernels account in these
/// units so every cycle in a Table 1 row is attributable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// See [`CostModel::alu`].
    Alu,
    /// See [`CostModel::load`].
    Load,
    /// See [`CostModel::store`].
    Store,
    /// See [`CostModel::branch`].
    Branch,
    /// See [`CostModel::branch_indirect`].
    BranchIndirect,
    /// Copy `n` 32-bit words.
    CopyWords(u32),
    /// See [`CostModel::trap_enter`].
    TrapEnter,
    /// See [`CostModel::trap_exit`].
    TrapExit,
    /// See [`CostModel::seg_reg_load`].
    SegRegLoad,
    /// See [`CostModel::page_table_switch`].
    PageTableSwitch,
    /// Refill `n` TLB entries.
    TlbRefill(u32),
    /// See [`CostModel::regfile_save`].
    RegfileSave,
    /// See [`CostModel::fpu_save`].
    FpuSave,
    /// `n` scheduler bookkeeping steps.
    SchedSteps(u32),
    /// `n` cache-line misses (cold kernel working set after a domain switch).
    CacheMisses(u32),
    /// Transfer `n` pages between memory and stable storage.
    PageIo(u32),
    /// See [`CostModel::log_force`].
    LogForce,
}

impl Primitive {
    /// Number of primitive kinds: the range of [`Primitive::kind`].
    pub(crate) const KINDS: usize = 17;

    /// A dense index of this primitive's kind, parameters ignored: one per
    /// [`Primitive::label`].
    pub(crate) fn kind(self) -> usize {
        match self {
            Primitive::Alu => 0,
            Primitive::Load => 1,
            Primitive::Store => 2,
            Primitive::Branch => 3,
            Primitive::BranchIndirect => 4,
            Primitive::CopyWords(_) => 5,
            Primitive::TrapEnter => 6,
            Primitive::TrapExit => 7,
            Primitive::SegRegLoad => 8,
            Primitive::PageTableSwitch => 9,
            Primitive::TlbRefill(_) => 10,
            Primitive::RegfileSave => 11,
            Primitive::FpuSave => 12,
            Primitive::SchedSteps(_) => 13,
            Primitive::CacheMisses(_) => 14,
            Primitive::PageIo(_) => 15,
            Primitive::LogForce => 16,
        }
    }

    /// The cost of this primitive under a model.
    #[must_use]
    pub fn cost(self, m: &CostModel) -> Cycles {
        match self {
            Primitive::Alu => m.alu,
            Primitive::Load => m.load,
            Primitive::Store => m.store,
            Primitive::Branch => m.branch,
            Primitive::BranchIndirect => m.branch_indirect,
            Primitive::CopyWords(n) => m.copy_word * Cycles::from(n),
            Primitive::TrapEnter => m.trap_enter,
            Primitive::TrapExit => m.trap_exit,
            Primitive::SegRegLoad => m.seg_reg_load,
            Primitive::PageTableSwitch => m.page_table_switch,
            Primitive::TlbRefill(n) => m.tlb_refill_entry * Cycles::from(n),
            Primitive::RegfileSave => m.regfile_save,
            Primitive::FpuSave => m.fpu_save,
            Primitive::SchedSteps(n) => m.sched_step * Cycles::from(n),
            Primitive::CacheMisses(n) => m.cache_miss * Cycles::from(n),
            Primitive::PageIo(n) => m.page_io * Cycles::from(n),
            Primitive::LogForce => m.log_force,
        }
    }

    /// A short label for breakdown reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        LABELS[self.kind()]
    }
}

/// Breakdown labels, by [`Primitive::kind`].
const LABELS: [&str; Primitive::KINDS] = [
    "alu",
    "load",
    "store",
    "branch",
    "branch-indirect",
    "copy",
    "trap-enter",
    "trap-exit",
    "seg-reg-load",
    "page-table-switch",
    "tlb-refill",
    "regfile-save",
    "fpu-save",
    "sched",
    "cache-miss",
    "page-io",
    "log-force",
];

/// A primitive sequence pre-summed per primitive under one model. Charging
/// a bill adds the same cycles to the same breakdown entries, in the same
/// first-charge order, as charging the sequence one primitive at a time —
/// so a fixed path (the ORB's invoke) is billed cycle-for-cycle at the cost
/// of one counter update per distinct primitive.
#[derive(Debug)]
pub struct Bill {
    /// `(kind, cycles)` per distinct primitive kind.
    parts: Vec<(usize, Cycles)>,
}

impl Bill {
    /// Sum `seq` per primitive kind under `model`, in first-appearance order.
    #[must_use]
    pub fn new(seq: &[Primitive], model: &CostModel) -> Self {
        let mut parts: Vec<(usize, Cycles)> = Vec::new();
        for &p in seq {
            let c = p.cost(model);
            match parts.iter_mut().find(|(kind, _)| *kind == p.kind()) {
                Some(part) => part.1 += c,
                None => parts.push((p.kind(), c)),
            }
        }
        Self { parts }
    }
}

/// A heap-free snapshot of a counter's breakdown, for
/// [`CycleCounter::breakdown_since`]. Meaningful until the next
/// [`CycleCounter::reset`].
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    values: [Cycles; Primitive::KINDS],
}

/// A cycle counter that records both the running total and a per-primitive
/// breakdown, so a Table 1 row can be decomposed and audited. A charge is
/// O(1): each primitive kind maps straight to its breakdown slot.
#[derive(Debug, Clone, Default)]
pub struct CycleCounter {
    total: Cycles,
    breakdown: Vec<(&'static str, Cycles)>,
    /// `slot[kind]` is one past the kind's position in `breakdown`; 0
    /// until the kind's first charge.
    slot: [u8; Primitive::KINDS],
}

impl CycleCounter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge one primitive under the given model.
    pub fn charge(&mut self, p: Primitive, model: &CostModel) {
        self.add(p.kind(), p.cost(model));
    }

    /// Charge many primitives.
    pub fn charge_all(&mut self, ps: &[Primitive], model: &CostModel) {
        for &p in ps {
            self.charge(p, model);
        }
    }

    /// Charge a pre-summed bill.
    pub fn charge_bill(&mut self, bill: &Bill) {
        for &(kind, c) in &bill.parts {
            self.add(kind, c);
        }
    }

    fn add(&mut self, kind: usize, c: Cycles) {
        self.total += c;
        match self.slot[kind] {
            0 => {
                self.breakdown.push((LABELS[kind], c));
                self.slot[kind] = self.breakdown.len() as u8;
            }
            s => self.breakdown[usize::from(s) - 1].1 += c,
        }
    }

    /// Total cycles charged so far.
    #[must_use]
    pub fn total(&self) -> Cycles {
        self.total
    }

    /// Per-primitive breakdown, in first-charge order.
    #[must_use]
    pub fn breakdown(&self) -> &[(&'static str, Cycles)] {
        &self.breakdown
    }

    /// Reset to zero, keeping capacity.
    pub fn reset(&mut self) {
        self.total = 0;
        self.breakdown.clear();
        self.slot = [0; Primitive::KINDS];
    }

    /// Cycles elapsed since a snapshot taken with [`Self::total`].
    #[must_use]
    pub fn since(&self, snapshot: Cycles) -> Cycles {
        self.total - snapshot
    }

    /// Snapshot the breakdown for a later [`Self::breakdown_since`].
    #[must_use]
    pub fn mark(&self) -> Mark {
        let mut values = [0; Primitive::KINDS];
        for (v, &(_, c)) in values.iter_mut().zip(&self.breakdown) {
            *v = c;
        }
        Mark { values }
    }

    /// The per-primitive cycles charged since `mark`, in first-charge
    /// order, primitives charged nothing since left out.
    #[must_use]
    pub fn breakdown_since(&self, mark: &Mark) -> Vec<(&'static str, Cycles)> {
        let mut out = Vec::with_capacity(self.breakdown.len());
        for (&(label, now), &before) in self.breakdown.iter().zip(&mark.values) {
            if now > before {
                out.push((label, now - before));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_pentium() {
        assert_eq!(CostModel::default(), CostModel::pentium());
    }

    #[test]
    fn paper_claim_three_cycle_context_switch() {
        // "loading new values into code, data, and stack segment registers
        // implements a context switch (which amounts to only 3 cycles)".
        let m = CostModel::pentium();
        let switch = 3 * Primitive::SegRegLoad.cost(&m);
        assert_eq!(switch, 3);
    }

    #[test]
    fn counter_accumulates_and_breaks_down() {
        let m = CostModel::pentium();
        let mut c = CycleCounter::new();
        c.charge(Primitive::TrapEnter, &m);
        c.charge(Primitive::TrapExit, &m);
        c.charge(Primitive::TrapEnter, &m);
        assert_eq!(c.total(), 70 + 36 + 70);
        let bd = c.breakdown();
        assert_eq!(bd.iter().find(|(l, _)| *l == "trap-enter").unwrap().1, 140);
        assert_eq!(bd.iter().find(|(l, _)| *l == "trap-exit").unwrap().1, 36);
    }

    #[test]
    fn parameterised_primitives_scale() {
        let m = CostModel::pentium();
        assert_eq!(Primitive::CopyWords(10).cost(&m), 30);
        assert_eq!(Primitive::TlbRefill(20).cost(&m), 600);
        assert_eq!(Primitive::SchedSteps(4).cost(&m), 100);
        assert_eq!(Primitive::PageIo(3).cost(&m), 3_600);
    }

    #[test]
    fn page_io_dwarfs_the_commit_force() {
        // Sanity on the storage calibration: one page transfer costs more
        // than the seekless log force, on both machines — the buffer pool
        // exists precisely because of this gap.
        for m in [CostModel::pentium(), CostModel::deep_pipeline()] {
            assert!(Primitive::PageIo(1).cost(&m) > Primitive::LogForce.cost(&m));
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = CostModel::deep_pipeline();
        let mut c = CycleCounter::new();
        c.charge_all(
            &[
                Primitive::TrapEnter,
                Primitive::CopyWords(8),
                Primitive::SchedSteps(3),
                Primitive::TrapExit,
                Primitive::RegfileSave,
            ],
            &m,
        );
        let sum: Cycles = c.breakdown().iter().map(|(_, v)| v).sum();
        assert_eq!(sum, c.total());
    }

    #[test]
    fn since_measures_deltas() {
        let m = CostModel::pentium();
        let mut c = CycleCounter::new();
        c.charge(Primitive::Alu, &m);
        let snap = c.total();
        c.charge(Primitive::TrapEnter, &m);
        assert_eq!(c.since(snap), 70);
    }

    #[test]
    fn breakdown_keeps_first_charge_order_under_interleaved_kinds() {
        let m = CostModel::pentium();
        let mut c = CycleCounter::new();
        c.charge_all(
            &[
                Primitive::Store,
                Primitive::CopyWords(2),
                Primitive::Alu,
                Primitive::Store,
                Primitive::CopyWords(5),
                Primitive::TrapEnter,
                Primitive::Alu,
                Primitive::Store,
            ],
            &m,
        );
        assert_eq!(c.breakdown(), [("store", 6), ("copy", 21), ("alu", 2), ("trap-enter", 70)]);
        assert_eq!(c.total(), 99);
    }

    #[test]
    fn reset_forgets_the_first_charge_order() {
        let m = CostModel::pentium();
        let mut c = CycleCounter::new();
        c.charge_all(&[Primitive::Load, Primitive::Alu, Primitive::Load], &m);
        c.reset();
        c.charge_all(&[Primitive::Alu, Primitive::Branch, Primitive::Load], &m);
        assert_eq!(c.breakdown(), [("alu", 1), ("branch", 1), ("load", 2)]);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn a_bill_charges_what_its_sequence_charges() {
        use Primitive::{Alu, CopyWords, Load, SegRegLoad, Store, TrapEnter};
        let seq = [Load, Alu, Load, CopyWords(3), Store, Alu, CopyWords(1), SegRegLoad];
        for m in [CostModel::pentium(), CostModel::deep_pipeline()] {
            let bill = Bill::new(&seq, &m);
            // On a fresh counter and on one whose first kinds differ.
            for warm in [&[][..], &[Store, TrapEnter][..]] {
                let (mut one_by_one, mut billed) = (CycleCounter::new(), CycleCounter::new());
                one_by_one.charge_all(warm, &m);
                billed.charge_all(warm, &m);
                one_by_one.charge_all(&seq, &m);
                billed.charge_bill(&bill);
                assert_eq!(billed.total(), one_by_one.total());
                assert_eq!(billed.breakdown(), one_by_one.breakdown());
            }
        }
    }

    #[test]
    fn breakdown_since_a_mark_keeps_order_and_drops_idle_kinds() {
        let m = CostModel::pentium();
        let mut c = CycleCounter::new();
        c.charge_all(&[Primitive::Load, Primitive::Alu], &m);
        let mark = c.mark();
        assert!(c.breakdown_since(&mark).is_empty());
        c.charge_all(&[Primitive::Branch, Primitive::Alu, Primitive::Branch], &m);
        assert_eq!(c.breakdown_since(&mark), [("alu", 1), ("branch", 2)]);
    }

    #[test]
    fn reset_clears_everything() {
        let m = CostModel::pentium();
        let mut c = CycleCounter::new();
        c.charge(Primitive::FpuSave, &m);
        c.reset();
        assert_eq!(c.total(), 0);
        assert!(c.breakdown().is_empty());
    }
}
