//! # bserver — the multi-tenant accelerator-service runtime
//!
//! The paper attributes Figure 6's measured-vs-ideal scaling gap to the
//! host runtime's lock arbitration: "low-latency operations have much
//! higher contention for the runtime server lock". `bruntime` models that
//! cost for a *single* client; this crate grows the layer above it — a
//! real job-dispatch runtime that sits between N tenants and the
//! elaborated SoC's cores, in the spirit of ThreadPoolComposer's
//! thread→PE dispatcher and HEROv2's host-runtime stack. Every tenant's
//! commands go through the one shared [`bruntime::FpgaHandle`].
//!
//! The server owns:
//!
//! * **per-tenant submission queues** with admission control (a bounded
//!   queue per tenant; arrivals beyond the bound are rejected, giving
//!   open-loop clients backpressure instead of unbounded latency, and a
//!   job whose arguments do not fit the system's command spec is
//!   rejected with [`RejectReason::BadArgs`] instead of reaching the
//!   device);
//! * **a core-allocation dispatcher** with pluggable policies
//!   ([`DispatchPolicy`]): the paper's lock-arbitrated baseline (so the
//!   Figure 6 contention shape stays reproducible), plus `Fifo`,
//!   per-tenant `RoundRobin`, and `ShortestJobFirst` over caller-supplied
//!   cost hints;
//! * **per-command deadlines** with a `Retry`/`Reject` outcome model
//!   ([`DeadlineAction`], [`JobOutcome`]);
//! * **admission micro-batching** ([`BatchPolicy`]): event-driven
//!   policies may dispatch up to `B` ready commands per lock visit
//!   (`Fixed(n)`, or `Auto` for the windowed adaptive controller), with
//!   responses drained in coalesced doorbell wakes; the default
//!   `Fixed(1)` is one command per lock visit, and the lock-arbitrated
//!   baseline ignores the setting entirely;
//! * **observability**: a `server/` [`bsim::perf`] counter set
//!   (`queue_depth`, `lock_wait_cycles`, `rejected`, …) and per-tenant
//!   latency histograms, visible through the MMIO counter window,
//!   `counter_snapshot()`, and `perf_report()` like any hardware layer —
//!   plus opt-in **request telemetry** ([`TelemetryConfig`]): one
//!   cycle-stamped job-event log per shard, from which three views are
//!   computed on read — end-to-end spans per job (admission → tenant
//!   queue → core, exported as one merged Perfetto trace with flow arrows
//!   via [`FleetServer::merged_trace`]), tumbling-window goodput and
//!   latency/queue-wait percentiles ([`FleetServer::metrics_snapshot`]),
//!   and the watchdog's flight dump of the last N job events when
//!   forward progress stalls or rejections/deadline breaches spike
//!   ([`WatchdogConfig`]). Every view names a request by one fleet-wide
//!   trace id. Telemetry is keyed to simulation cycles, strictly
//!   off-path, and disabled by default — enabling it never changes cycle
//!   counts or outcomes.
//!
//! Timing is simulated, not wall-clock: every host-side cost the server
//! pays (lock acquisition, MMIO command words, response polling) advances
//! the shared [`bcore::SocSim`] clock through the same
//! [`bruntime::FpgaHandle`] cost model the single-client runtime uses, so
//! policies are compared cycle-exactly and deterministically. The
//! open-loop load harness lives in `bbench::loadgen`
//! (`cargo run -p bbench --bin loadgen`).
//!
//! The one public server is the **sharded fleet** ([`FleetServer`]): N
//! independent server+SoC replicas with tenants partitioned by a stable
//! admission hash ([`shard_for_session`]); a 1-shard fleet is a single
//! server. Its one serving call, [`FleetServer::run_keyed`], takes a
//! wave of `(seq, arrival)` pairs and returns outcomes keyed by
//! `(tenant, seq)`, so a client's submission order and its outcome
//! delivery order are decoupled from dispatch order; the network
//! front-end (`bnet`) submits one wave per call. A closed batch is every
//! arrival at offset 0, and the paper's serialized runtime is the
//! [`DispatchPolicy::LockArbitrated`] policy. Shards are `Send` (the
//! `bsim` arena refactor makes a built `Simulation` movable), so each
//! call serves them on scoped threads — `BSERVER_SHARDS` caps that
//! execution width without ever changing results, each shard is
//! byte-identical to a 1-shard fleet serving its tenants, and per-shard
//! counters roll up into the primary registry
//! ([`FleetServer::sync_rollup`]).

#![warn(missing_docs)]

mod batch;
mod fleet;
mod policy;
mod server;
mod telemetry;

pub use batch::BatchPolicy;
pub use fleet::{shard_count, shard_for_session, FleetConfig, FleetMetrics, FleetServer};
pub use policy::DispatchPolicy;
pub use server::{
    Arrival, DeadlineAction, JobOutcome, JobSpec, RejectReason, ServerConfig, ServerError,
};
pub use telemetry::{MetricsSnapshot, TelemetryConfig, WatchdogConfig, WindowRow};
