//! # gokernel — the Go! zero-kernel OS and its Table 1 comparators
//!
//! Section 5.1 of the paper describes **Go!**, a proof-of-concept
//! component-based OS for IA32 built around **SISR** (Software-based
//! Instruction-Set Reduction):
//!
//! * there is *no* user/kernel processor-mode split;
//! * component text is scanned at load time and rejected if it contains any
//!   privileged instruction ([`sisr`]);
//! * protection is enforced by segmentation: each component instance owns a
//!   data segment, each component type a code segment ([`component`]);
//! * a privileged component, the **ORB**, is the only code allowed to load
//!   segment registers; it performs protected intra-machine RPC by migrating
//!   the calling thread into the callee ([`orb`], the paper's Figure 6);
//! * a context switch is three segment-register loads — ~3 cycles.
//!
//! Table 1 compares Go!'s RPC cost against three trap-based designs. This
//! crate implements all four over the `machine` substrate ([`kernels`]), and
//! [`table1`] is the harness that regenerates the table.
//!
//! | Operating system | Paper (cycles) |
//! |------------------|----------------|
//! | BSD (Unix)       | 55,000         |
//! | Mach 2.5         | 3,000          |
//! | L4               | 665            |
//! | Go!              | 73             |

//! ## Quick example
//!
//! ```
//! use gokernel::table1_rows;
//! use machine::CostModel;
//!
//! let rows = table1_rows(&CostModel::pentium(), 1);
//! // Strict Table 1 ordering: BSD > Mach > L4 > Go!.
//! assert!(rows.windows(2).all(|w| w[0].measured_cycles > w[1].measured_cycles));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod component;
pub mod kernels;
pub mod libos;
pub mod orb;
pub mod sisr;
pub mod table1;

pub use component::{ComponentId, InterfaceId};
pub use kernels::{GoKernel, Kernel, KernelKind};
pub use libos::{LibOs, ThreadId};
pub use orb::{InvokeFaults, Orb, OrbError};
pub use sisr::{DiagnosticKind, Pass, Severity, SisrVerifier};
pub use table1::table1_rows;
