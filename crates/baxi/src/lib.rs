//! # baxi — AXI4 protocol model and DRAM-backed memory controller
//!
//! Models the memory bus the Beethoven fabric talks to (§II-B, §III-A of the
//! paper): the five AXI channels (AR/R/AW/W/B), INCR bursts, *per-ID
//! ordering* (transactions on the same AXI ID must complete in order, which
//! serializes them through the controller), and a configurable number of
//! outstanding transactions.
//!
//! [`AxiMemoryController`] is the slave: it accepts AXI transactions,
//! splits them into single-burst DRAM requests for a [`bdram::DramSystem`],
//! enforces AXI ordering rules on the response path, and moves real bytes
//! through a shared [`bsim::SparseMemory`]. An attached [`bsim::Tracer`]
//! records per-channel events, from which the paper's Figure 5 timelines
//! are regenerated.
//!
//! The crate exists to make the paper's central microbenchmark observation
//! reproducible: *same-ID transactions serialize; spreading a long copy
//! across IDs ("transaction-level parallelism") restores memory-controller
//! parallelism* (§III-A).

#![warn(missing_docs)]

mod controller;
mod port;
mod types;

pub use controller::{AxiMemoryController, ControllerConfig, SharedMemory};
pub use port::{axi_link, axi_link_with_latency, AxiMasterPort, AxiSlavePort, PortDepths};
pub use types::{
    strobe_mask, ArFlit, AwFlit, AxiBurstError, AxiParams, BFlit, Beat, RFlit, WFlit,
    MAX_BEAT_BYTES,
};
