//! # Beethoven (Rust reproduction)
//!
//! A reproduction of *Beethoven: A Heterogeneous Multi-Core Accelerator
//! System Composer* (ISPASS 2025) as a pure-Rust library stack. The
//! umbrella crate re-exports every subsystem:
//!
//! * [`sim`] — cycle-driven hardware simulation kernel (stands in for
//!   Chisel + Verilator).
//! * [`dram`] — cycle-accurate DRAM timing model (stands in for DRAMSim3).
//! * [`axi`] — AXI4 protocol model and memory controller.
//! * [`noc`] — SLR-aware on-chip network generation.
//! * [`platform`] — device models (AWS F1 / Kria / ASIC / simulation),
//!   resource accounting, floorplanning, SRAM macro compilation.
//! * [`core`] — the Beethoven framework proper: accelerator cores, systems,
//!   Readers/Writers/Scratchpads, RoCC commands, elaboration.
//! * [`runtime`] — the host runtime: allocator, DMA, response handles.
//! * [`kernels`] — microbenchmark and MachSuite accelerator kernels.
//! * [`attention`] — the A³ attention accelerator case study.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system map.

pub use battention as attention;
pub use baxi as axi;
pub use bcore as core;
pub use bdram as dram;
pub use bkernels as kernels;
pub use bnoc as noc;
pub use bplatform as platform;
pub use bruntime as runtime;
pub use bsim as sim;

/// The README's code blocks, compiled and run as doctests so the
/// "Writing an accelerator" snippet cannot drift from the API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
