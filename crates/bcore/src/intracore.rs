//! Core-to-core communication: the appendix's `IntraCoreMemoryPortIn` /
//! `IntraCoreMemoryPortOut`.
//!
//! "To support more complex program flows, Beethoven also allows Cores to
//! communicate with each other" (§II-A). An **In** port is a scratchpad
//! writable from other accelerator cores; an **Out** port is a
//! scratchpad-like write port that connects to a scratchpad in other
//! systems/cores. `commDeg` selects whether the target cores' memories
//! receive identical (broadcast) or independent (point-to-point) data.
//!
//! The elaborator wires Out→In channels through the intra-accelerator
//! network: each link carries the SLR-crossing latency between the two
//! placed cores.

use bsim::{Cycle, Receiver, Sender, SimCtx};
use serde::{Deserialize, Serialize};

/// How an Out port's cores map onto the target In port's cores
/// (the appendix's `CommunicationDegree`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommunicationDegree {
    /// Core `i` of the writing system feeds core `i % n` of the target
    /// system: target memories are independent.
    PointToPoint,
    /// Every write is delivered to *all* target cores: their memories are
    /// identical.
    Broadcast,
}

/// Declares a remotely-writable scratchpad (`IntraCoreMemoryPortInConfig`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntraCoreMemoryPortInConfig {
    /// Port (and backing scratchpad) name.
    pub name: String,
    /// Word width in bits (≤ 64).
    pub data_width_bits: u32,
    /// Number of words.
    pub n_datas: usize,
    /// Whether this system's own core may also write it.
    pub read_only: bool,
    /// Access latency in cycles.
    pub latency: u32,
    /// Whether target memories are identical or independent.
    pub comm_deg: CommunicationDegree,
}

impl IntraCoreMemoryPortInConfig {
    /// A point-to-point, locally-writable In port.
    pub fn new(name: impl Into<String>, data_width_bits: u32, n_datas: usize) -> Self {
        Self {
            name: name.into(),
            data_width_bits,
            n_datas,
            read_only: false,
            latency: 2,
            comm_deg: CommunicationDegree::PointToPoint,
        }
    }

    /// Selects broadcast delivery.
    pub fn broadcast(mut self) -> Self {
        self.comm_deg = CommunicationDegree::Broadcast;
        self
    }

    /// Marks the memory read-only from the owning core.
    pub fn read_only(mut self) -> Self {
        self.read_only = true;
        self
    }
}

/// Declares a write port into another system's In port
/// (`IntraCoreMemoryPortOutConfig`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntraCoreMemoryPortOutConfig {
    /// Port name (resolved by [`crate::PortTable::intra_out`]).
    pub name: String,
    /// Target system name.
    pub to_system: String,
    /// Target In-port name within that system.
    pub to_memory_port: String,
}

impl IntraCoreMemoryPortOutConfig {
    /// Creates an Out port declaration.
    pub fn new(
        name: impl Into<String>,
        to_system: impl Into<String>,
        to_memory_port: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            to_system: to_system.into(),
            to_memory_port: to_memory_port.into(),
        }
    }
}

/// One remote write: a word index and its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteWrite {
    /// Target word index in the remote scratchpad.
    pub idx: u64,
    /// Value (within the declared word width).
    pub data: u64,
}

/// The core-side handle of an Out port (the appendix's `MemReqWritePort`).
///
/// Point-to-point ports carry one downstream link; broadcast ports carry
/// one per target core and a write fires on all of them atomically.
#[derive(Debug)]
pub struct RemoteWritePort {
    name: String,
    links: Vec<Sender<RemoteWrite>>,
    width_bits: u32,
}

impl RemoteWritePort {
    pub(crate) fn new(name: String, links: Vec<Sender<RemoteWrite>>, width_bits: u32) -> Self {
        Self {
            name,
            links,
            width_bits,
        }
    }

    /// Whether a write can be accepted this cycle (all downstream links
    /// ready — broadcast backpressures on the slowest target).
    pub fn can_send(&self, ctx: &SimCtx) -> bool {
        self.links.iter().all(|link| link.can_send(ctx))
    }

    /// Sends one word to the remote scratchpad(s).
    ///
    /// # Panics
    ///
    /// Panics if the port is not ready (check [`RemoteWritePort::can_send`])
    /// or the value exceeds the declared width.
    pub fn send(&mut self, ctx: &SimCtx, now: Cycle, idx: u64, data: u64) {
        assert!(
            self.width_bits == 64 || data >> self.width_bits == 0,
            "value wider than intra-core port '{}'",
            self.name
        );
        assert!(
            self.can_send(ctx),
            "intra-core port '{}' not ready",
            self.name
        );
        for link in &self.links {
            link.send(ctx, now, RemoteWrite { idx, data });
        }
    }

    /// Number of downstream targets (1 unless broadcast).
    pub fn fanout(&self) -> usize {
        self.links.len()
    }
}

/// The receive side bound to a scratchpad: drained by the core harness
/// before each tick.
#[derive(Debug)]
pub(crate) struct RemoteWriteSink {
    /// Index of the scratchpad the writes land in, within the owning
    /// [`crate::CoreContext`].
    pub scratchpad: usize,
    pub rx: Receiver<RemoteWrite>,
}
