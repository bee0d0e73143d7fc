//! # machine — a cycle-accounted simulated machine substrate
//!
//! The paper's Table 1 reports RPC cost **in CPU cycles** for four OS
//! protection models running on Pentium-class IA32 hardware. We do not have
//! that hardware, so this crate provides the substitution: a small simulated
//! machine with
//!
//! * a compact **instruction set** ([`isa`]) that distinguishes *privileged*
//!   instructions (segment-register loads, interrupt control, page-table
//!   loads, I/O) from unprivileged ones — the raw material of SISR's
//!   load-time code scanning;
//! * **segmentation** protection ([`seg`]) — base/limit-checked segments and
//!   a descriptor table, the protection model Go! uses;
//! * **paging** protection ([`paging`]) — page tables and their space
//!   cost, the protection model traditional kernels use (TLB refills are
//!   a per-kernel working-set charge, [`cost::Primitive::TlbRefill`]);
//! * a **trap vector** ([`trap`]) and user/kernel **processor modes**,
//!   which trap-based kernels pay for on every boundary crossing;
//! * a **CPU** ([`cpu`]) that executes programs against those protection
//!   models, faulting exactly where real hardware would; and
//! * a **cost model** ([`cost`]) with per-primitive cycle costs calibrated
//!   against published Pentium-era micro-architectural numbers.
//!
//! Kernels in the `gokernel` crate are built *on top of* this substrate: each
//! kernel's RPC path executes a concrete sequence of these primitives, and
//! the cycle totals of Table 1 emerge from the *length and composition of the
//! path*, not from hard-coded totals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod cpu;
pub mod isa;
pub mod paging;
pub mod seg;
pub mod trap;

pub use cost::{CostModel, CycleCounter, Cycles};
pub use cpu::{Cpu, CpuError, Mode};
pub use isa::{Flow, Instr, Program};
pub use paging::{AddressSpace, PAGE_SIZE};
pub use seg::{Segment, SegmentKind, SegmentTable, Selector};
pub use trap::TrapVector;
