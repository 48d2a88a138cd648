//! # bcore — the Beethoven accelerator composition framework
//!
//! This crate is the reproduction of the paper's primary contribution
//! (§II): the programming abstractions a developer uses to build a
//! multi-core accelerator, and the elaborator that composes them into a
//! full SoC against a [`bplatform::Platform`].
//!
//! * **Structure** (§II-A): a developer implements an [`AcceleratorCore`]
//!   (the light-purple box of the paper's Figure 1); identical cores group
//!   into a *System* ([`SystemConfig`]); several Systems form an
//!   accelerator ([`AcceleratorConfig`]).
//! * **Memory stream abstractions** (§II-B): [`Reader`], [`Writer`], and
//!   [`Scratchpad`] primitives, declared via [`ReadChannelConfig`] /
//!   [`WriteChannelConfig`] / [`ScratchpadConfig`], exactly as in the
//!   paper's appendix table.
//! * **Command abstractions** (§II-B): custom commands
//!   ([`AccelCommandSpec`]) transparently packed onto the RoCC instruction
//!   format ([`RoccCommand`]), plus host-binding generation
//!   ([`generate_bindings`]).
//! * **Elaboration** (§II-A/B): [`elaborate()`](elaborate()) floorplans cores across SLRs,
//!   builds SLR-aware command and memory NoCs, maps on-chip memories with
//!   the 80% spill rule, and produces a runnable [`SocSim`] plus a
//!   [`SocReport`] (resource tables, floorplan, constraints, bindings).

#![warn(missing_docs)]

pub mod bindings;
pub mod command;
pub mod config;
pub mod core;
pub mod elaborate;
pub mod interconnect;
pub mod intracore;
pub mod mmio;
pub mod netlist;
pub mod primitives;
pub mod report;
pub mod soc;

pub use bindings::{generate_bindings, GeneratedBindings};
pub use command::{
    AccelCommandSpec, AccelResponseSpec, CommandPackError, FieldType, PackedCommand, RoccCommand,
    RoccResponse, UnpackedCommand,
};
pub use config::{
    AcceleratorConfig, MemoryChannelConfig, ReadChannelConfig, ScratchpadConfig, SystemConfig,
    WriteChannelConfig,
};
pub use core::{
    AcceleratorCore, CoreContext, IntraOutId, PortTable, ReaderId, ScratchpadId, WriterId,
};
pub use elaborate::{elaborate, estimate_max_cores, ElaborationError};
pub use intracore::{
    CommunicationDegree, IntraCoreMemoryPortInConfig, IntraCoreMemoryPortOutConfig, RemoteWrite,
    RemoteWritePort,
};
pub use mmio::MmioRegister;
pub use primitives::{BusyError, Reader, ReaderConfig, Scratchpad, Writer, WriterConfig};
pub use report::SocReport;
pub use soc::{CommandToken, SocSim};
