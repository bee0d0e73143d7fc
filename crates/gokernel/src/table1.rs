//! The Table 1 harness: regenerate the paper's "Relative RPC performance"
//! table and the 32-bytes-per-interface memory comparison.
//!
//! > | Operating System | Number of RPC (in cycles) |
//! > |------------------|---------------------------|
//! > | BSD (Unix)       | 55,000                    |
//! > | Mach2.5          | 3,000                     |
//! > | L4               | 665                       |
//! > | Go!              | 73                        |
//!
//! We are not expected to match absolute numbers (our substrate is a
//! simulator), but the ordering and rough inter-row ratios must hold; the
//! harness reports both paper and measured values side by side.

use crate::component::Rights;
use crate::kernels::{all_kernels, GoKernel, Kernel, KernelKind, L4Kernel};
use crate::orb::Orb;
use crate::sisr::SisrVerifier;
use machine::cost::{CostModel, Cycles};
use machine::isa::{Instr, Program};
use machine::paging::{AddressSpace, PageFlags, PAGE_SIZE};

/// One regenerated row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Which kernel.
    pub kind: KernelKind,
    /// The paper's reported cycles.
    pub paper_cycles: Cycles,
    /// Our measured cycles (mean over `reps` identical deterministic runs).
    pub measured_cycles: Cycles,
    /// measured / paper.
    pub ratio_to_paper: f64,
}

/// Regenerate Table 1 under a cost model. `reps` repetitions guard against
/// accidental state-dependence (the simulation is deterministic, so they
/// must agree exactly — the harness asserts it).
///
/// # Panics
/// If the deterministic simulation produces differing repetitions.
#[must_use]
pub fn table1_rows(model: &CostModel, reps: u32) -> Vec<Table1Row> {
    let mut rows = Vec::with_capacity(4);
    for k in all_kernels(model).iter_mut() {
        let first = k.null_rpc();
        for _ in 1..reps {
            assert_eq!(k.null_rpc(), first, "{} must be deterministic", k.kind().name());
        }
        let paper = k.kind().paper_cycles();
        rows.push(Table1Row {
            kind: k.kind(),
            paper_cycles: paper,
            measured_cycles: first,
            ratio_to_paper: first as f64 / paper as f64,
        });
    }
    rows
}

/// Render the regenerated table in the paper's layout.
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = String::from(
        "Table 1: Relative RPC performance\n\
         Operating System | paper (cycles) | measured (cycles) | measured/paper\n\
         -----------------+----------------+-------------------+---------------\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<17}| {:>14} | {:>17} | {:>13.2}\n",
            r.kind.name(),
            r.paper_cycles,
            r.measured_cycles,
            r.ratio_to_paper
        ));
    }
    s
}

/// The load-time verification-cost row the ROADMAP asks for: what SISR
/// spends **once per image** so every subsequent call can skip the trap
/// machinery, and how few calls amortise it against the cheapest
/// trap-based alternative (L4).
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationRow {
    /// Cycles SISR spends scanning the null service image at load time.
    pub verify_cycles: Cycles,
    /// Go!'s measured null-RPC cost under the same model.
    pub go_call_cycles: Cycles,
    /// L4's measured null-RPC cost under the same model.
    pub l4_call_cycles: Cycles,
    /// Calls after which the one-off scan has paid for itself:
    /// `ceil(verify / (l4 - go))`.
    pub breakeven_calls: u64,
}

/// Regenerate the verification-cost row under a cost model, using the same
/// null service as the Table 1 Go! row.
///
/// # Panics
/// Never in practice: the null service always verifies.
#[must_use]
pub fn verification_cost_row(model: &CostModel) -> VerificationRow {
    let null = Program::new(vec![Instr::Halt]).to_bytes();
    let image = SisrVerifier::new(model.clone()).verify(&null).expect("null text verifies");
    let verify_cycles = image.scan_cycles();
    let go_call_cycles = GoKernel::new(model.clone()).null_rpc();
    let l4_call_cycles = L4Kernel::new(model.clone()).null_rpc();
    let per_call_saving = l4_call_cycles.saturating_sub(go_call_cycles).max(1);
    VerificationRow {
        verify_cycles,
        go_call_cycles,
        l4_call_cycles,
        breakeven_calls: verify_cycles.div_ceil(per_call_saving),
    }
}

/// Render the verification row as an addendum to Table 1.
#[must_use]
pub fn render_verification_row(r: &VerificationRow) -> String {
    format!(
        "Load-time verification (SISR, null service): {} cycles once;\n\
         per-call saving vs L4: {} cycles ({} vs {}); breakeven after {} calls\n",
        r.verify_cycles,
        r.l4_call_cycles - r.go_call_cycles,
        r.l4_call_cycles,
        r.go_call_cycles,
        r.breakeven_calls
    )
}

/// The memory half of the Go! claim: protection bytes per interface for
/// Go!'s descriptors versus a page-based protection model, for a system of
/// `components` components with `ifaces_per_component` interfaces each.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryComparison {
    /// Number of components modelled.
    pub components: u32,
    /// Interfaces per component.
    pub ifaces_per_component: u32,
    /// Go! protection bytes (descriptors + segment table).
    pub go_bytes: u64,
    /// Page-based protection bytes (per-component address spaces).
    pub paged_bytes: u64,
    /// paged / go — the paper claims "around two orders of magnitude".
    pub improvement: f64,
}

/// Build a Go! system and an equivalent page-protected system and compare
/// their protection-state footprints.
///
/// # Panics
/// Only on ORB memory exhaustion, which the chosen arena prevents.
#[must_use]
pub fn memory_comparison(components: u32, ifaces_per_component: u32) -> MemoryComparison {
    // Go!: real ORB, real descriptors.
    let mut orb = Orb::new(256 << 20, CostModel::pentium());
    let text = Program::new(vec![Instr::Halt]).to_bytes();
    let ty = orb.load_type("svc", &text).expect("verified");
    for _ in 0..components {
        let c = orb.instantiate(ty).expect("arena sized for the fleet");
        for i in 0..ifaces_per_component {
            orb.publish(c, 0, Rights::PUBLIC, u16::try_from(i % 4).unwrap())
                .expect("instance exists");
        }
    }
    let go_bytes = orb.protection_bytes();

    // Page-based: each component is its own address space mapping one text
    // page, one data page, one stack page (the minimum a process needs).
    let mut paged_bytes = 0u64;
    for _ in 0..components {
        let mut space = AddressSpace::new();
        space.map(0, 0, PageFlags { write: false, user: true });
        space.map(1, 1, PageFlags { write: true, user: true });
        space.map(2, 2, PageFlags { write: true, user: true });
        // Mapping structures plus the page-granular protection of the three
        // regions themselves (the interface has no sub-page granularity).
        paged_bytes += space.protection_bytes() + 3 * u64::from(PAGE_SIZE);
    }
    MemoryComparison {
        components,
        ifaces_per_component,
        go_bytes,
        paged_bytes,
        improvement: paged_bytes as f64 / go_bytes as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_all_four_kernels_in_order() {
        let rows = table1_rows(&CostModel::pentium(), 3);
        let kinds: Vec<KernelKind> = rows.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![KernelKind::Monolithic, KernelKind::Mach, KernelKind::L4, KernelKind::Go]
        );
    }

    #[test]
    fn measured_ratios_stay_near_paper() {
        for r in table1_rows(&CostModel::pentium(), 2) {
            assert!(
                (0.5..=1.5).contains(&r.ratio_to_paper),
                "{}: measured {} vs paper {} (ratio {:.2})",
                r.kind.name(),
                r.measured_cycles,
                r.paper_cycles,
                r.ratio_to_paper
            );
        }
    }

    #[test]
    fn render_contains_every_row() {
        let rows = table1_rows(&CostModel::pentium(), 1);
        let s = render_table1(&rows);
        for r in &rows {
            assert!(s.contains(r.kind.name()));
            assert!(s.contains(&r.measured_cycles.to_string()));
        }
    }

    #[test]
    fn verification_row_amortises_quickly() {
        let r = verification_cost_row(&CostModel::pentium());
        assert!(r.verify_cycles > 0, "the scan must cost something");
        assert!(r.go_call_cycles < r.l4_call_cycles);
        // The one-off scan pays for itself within a handful of calls — the
        // whole point of moving protection to load time.
        assert!(
            (1..=20).contains(&r.breakeven_calls),
            "breakeven after {} calls (verify {} cycles, saving {} per call)",
            r.breakeven_calls,
            r.verify_cycles,
            r.l4_call_cycles - r.go_call_cycles
        );
        let s = render_verification_row(&r);
        assert!(s.contains(&r.verify_cycles.to_string()));
        assert!(s.contains(&r.breakeven_calls.to_string()));
    }

    #[test]
    fn memory_improvement_is_about_two_orders_of_magnitude() {
        let cmp = memory_comparison(64, 4);
        assert!(cmp.improvement >= 50.0, "paged/go = {:.1}, expected ~100x", cmp.improvement);
        assert!(cmp.improvement <= 500.0, "paged/go = {:.1} suspiciously large", cmp.improvement);
    }

    #[test]
    fn go_memory_grows_linearly_with_interfaces() {
        let a = memory_comparison(10, 2).go_bytes;
        let b = memory_comparison(10, 4).go_bytes;
        // 10 components × 2 extra interfaces × 32 bytes.
        assert_eq!(b - a, 10 * 2 * 32);
    }
}
