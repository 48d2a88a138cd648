//! # bnet — the wire-protocol network front-end for the accelerator fleet
//!
//! Every serving layer below this one is in-process: clients of
//! [`bserver::FleetServer`] are function calls. This crate puts a real
//! TCP service in front of the fleet — the bridge from simulated
//! sessions to real traffic, mirroring how ThreadPoolComposer exposes
//! its accelerator thread pool behind a uniform host API and HEROv2
//! separates host runtime from accelerator execution behind an explicit
//! communication boundary.
//!
//! The stack is hand-rolled on `std::net` + `std::thread` (no external
//! dependencies) in four pieces:
//!
//! * **[`frame`]** — the versioned, length-prefixed binary codec
//!   (`HELLO` / `SUBMIT` / `POLL` / `OUTCOME` / `ERR{code}` …) with
//!   strict bounds-checked decoding that never panics on hostile
//!   bytes;
//! * **[`server`]** — a [`NetServer`]: TCP acceptor, one worker thread
//!   per connection, per-tenant auth tokens and connection/command
//!   quotas, admission-control load shedding (`ERR{Overloaded}` with a
//!   retry-after hint), and a dispatcher thread that feeds accepted
//!   commands to the fleet in deterministic *serving waves*;
//! * **[`client`]** — the blocking [`NetClient`] library behind
//!   `loadgen --net ADDR`;
//! * **[`replay`]** + **[`rig`]** — the deterministic replay oracle: a
//!   recorded command trace played through the socket path and the
//!   in-process path must yield byte-identical outcomes per tenant
//!   (compared as FNV-1a digests over the canonical wire encoding),
//!   because both paths elaborate the same [`Rig`] and serve every
//!   round through one function (`replay::serve_round`).
//!
//! Observability rides the existing [`bsim::perf`] registry: the
//! server attaches a `net/` counter set (connections accepted and
//! rejected, frames and bytes in/out, protocol errors by code, shed
//! commands, waves) to the rig's primary SoC, so `perf_report()` and
//! the MMIO counter window show the network tier beside `server/…` and
//! the hardware counters.

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod replay;
pub mod rig;
pub mod server;

pub use client::{ClientError, HelloInfo, NetClient, SubmitReply};
pub use frame::{
    read_frame, write_frame, DecodeError, ErrCode, Frame, FrameError, WireJob, WireOutcome,
    WireReject, MAX_FRAME_LEN, PROTO_VERSION,
};
pub use replay::{
    canonical_sort, outcome_digest, replay_in_process, replay_on, tenant_digests, KeyedOutcome,
    TraceCmd,
};
pub use rig::{build, build_batched, tenant_token, Rig, RigBuffer, RigConfig, DEFAULT_AUTH_SEED};
pub use server::{NetConfig, NetServer};
