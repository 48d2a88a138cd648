//! # bsim — cycle-driven hardware simulation kernel
//!
//! `bsim` is the substrate the Beethoven reproduction elaborates hardware
//! into. It plays the role that Chisel + Verilator/VCS play in the paper:
//! a way to describe communicating hardware modules and advance them one
//! clock cycle at a time.
//!
//! The kernel is deliberately small:
//!
//! * [`Component`] — anything with per-cycle behaviour (`tick`).
//! * [`Simulation::channel`] / [`Sender`] / [`Receiver`] — ready/valid
//!   ("Decoupled" in Chisel terms) bounded channels with register-like
//!   visibility latency. Endpoints are plain `Copy` IDs into channel
//!   storage owned by the simulation, so every operation takes the
//!   [`SimCtx`] that owns the arena.
//! * [`Simulation`] — owns components, channel storage, and the wake
//!   arena, and drives the one clock every component ticks on. Because
//!   all simulation state lives in these arenas (no shared-ownership
//!   cells), a `Simulation` is `Send` and can be moved to a worker
//!   thread wholesale. The driver is
//!   event-aware: components that implement [`Component::next_event`] let
//!   it fast-forward across provably quiescent gaps with bit-identical
//!   cycle counts (checked against the naive stepper, `BSIM_NAIVE=1`, by
//!   the equivalence suites; measured by [`SimRate`]).
//! * [`SparseMemory`] — a byte-addressable sparse backing store used as the
//!   functional half of the DRAM model.
//! * The observability substrate, one piece per job: [`StatCounter`]
//!   handles on shared [`Stats`] bags for counting (optionally gated on
//!   the [`PerfRegistry`] every elaborated layer registers into);
//!   [`TraceEvent`] records, held by a [`Tracer`], for events; and
//!   [`perf::chrome_trace`] as the one Chrome-trace/Perfetto writer,
//!   next to the registry's text profile report.
//!
//! ## Example
//!
//! ```rust
//! use bsim::{Component, Cycle, SimCtx, Simulation};
//!
//! struct Producer { tx: bsim::Sender<u32>, next: u32 }
//! impl Component for Producer {
//!     fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
//!         if self.tx.can_send(ctx) {
//!             self.tx.send(ctx, now, self.next);
//!             self.next += 1;
//!         }
//!     }
//! }
//!
//! struct Consumer { rx: bsim::Receiver<u32>, sum: u64 }
//! impl Component for Consumer {
//!     fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
//!         while let Some(v) = self.rx.recv(ctx, now) {
//!             self.sum += u64::from(v);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new();
//! let (tx, rx) = sim.channel::<u32>(4);
//! sim.add(Producer { tx, next: 0 });
//! let consumer = sim.add_shared(Consumer { rx, sum: 0 });
//! sim.run_for(100);
//! assert!(sim.get(consumer).sum > 0);
//! ```

#![warn(missing_docs)]

mod chan;
mod component;
mod ctx;
pub mod host;
mod mem;
pub mod perf;
mod stats;
mod time;
mod trace;
mod wake;

pub use chan::{ChannelState, Receiver, Sender};
pub use component::{Component, Shared, Simulation};
pub use ctx::SimCtx;
pub use mem::SparseMemory;
pub use perf::{CounterSet, PerfRegistry};
pub use stats::{
    Histogram, HistogramSummary, MergedSimRate, SimRate, SimRateExt, SimRateTimer, StatCounter,
    Stats, StatsSnapshot,
};
pub use time::{ClockDomain, Cycle, Picoseconds, PICOS_PER_SEC};
pub use trace::{render_timeline, to_vcd, TraceEvent, Tracer};
pub use wake::Waker;
