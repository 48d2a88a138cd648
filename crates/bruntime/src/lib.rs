//! # bruntime — the Beethoven host runtime
//!
//! The software half of the paper's §II-C: an FPGA management runtime and
//! user library. It owns the composed device ([`bcore::SocSim`]) and gives
//! host code the interfaces of Figure 3c:
//!
//! * [`FpgaHandle::malloc`] — allocate accelerator-visible memory
//!   ([`RemotePtr`]).
//! * [`FpgaHandle::copy_to_fpga`] / [`FpgaHandle::copy_from_fpga`] — DMA on
//!   discrete platforms, no-ops on embedded (shared, coherent) platforms.
//! * [`FpgaHandle::call`] — send a custom command through the runtime
//!   server; returns a [`ResponseHandle`] with `get` / `try_get`.
//!   [`FpgaHandle::call_batch`] sends several under one lock visit; both
//!   share one submission body, and a one-item batch is a `call`.
//!
//! Several clients share one runtime server by cloning the handle: the
//! clones share the device, the allocator, and the simulated clock.
//!
//! Host-side costs are simulated faithfully against the platform's
//! [`bplatform::HostLink`]: MMIO writes per RoCC beat, the **runtime server
//! lock** serializing all clients, and response polling. These costs are
//! what produce the paper's Figure 6 gap between ideal and measured
//! multi-core throughput — "low-latency operations have much higher
//! contention for the runtime server lock".

#![warn(missing_docs)]

mod alloc;
mod handle;

pub use alloc::{AllocError, DeviceAllocator};
pub use handle::{CallError, FpgaHandle, RemotePtr, ResponseHandle, RuntimeOptions, RuntimeStats};
