//! The developer-facing core abstraction: [`AcceleratorCore`] and
//! [`CoreContext`].
//!
//! A Beethoven *Core* (§II-A) is "a custom functional unit that the
//! developer implements". In this reproduction a core is a cycle-ticked
//! state machine: each fabric cycle the harness calls
//! [`AcceleratorCore::tick`] with a [`CoreContext`] exposing the command
//! queue, the response port, and every memory primitive the core's
//! configuration declared.
//!
//! Ports are bound once, at elaboration: the system's core factory receives
//! a [`PortTable`] and resolves each declared name to a `Copy` handle
//! ([`ReaderId`], [`WriterId`], [`ScratchpadId`], [`IntraOutId`]). Every
//! per-cycle access is then an index into the context's primitive vectors,
//! as a Beethoven core's `getReaderModule(name)` wires a port during
//! hardware elaboration and never looks it up again.

use std::collections::BTreeMap;

use bsim::{Cycle, Receiver, Sender, SimCtx, StatCounter, Stats};

use crate::command::{RoccResponse, UnpackedCommand};
use crate::intracore::{RemoteWrite, RemoteWritePort, RemoteWriteSink};
use crate::primitives::{Reader, Scratchpad, Writer};

/// A user-implemented accelerator core.
///
/// Implementations receive a `tick` per fabric cycle. A typical core:
///
/// 1. calls [`CoreContext::take_command`] when idle,
/// 2. drives its [`Reader`]s / [`Writer`]s / [`Scratchpad`]s,
/// 3. calls [`CoreContext::respond`] when the command completes.
///
/// A phase whose length is fixed when it starts and which touches only
/// the core's own scratchpads may be done in one tick: the core does the
/// phase's functional work at once and calls [`CoreContext::sleep_for`]
/// with the phase's dense length. The harness then skips the core's
/// ticks until that cycle (its primitives still tick when they declare
/// work), so the core resumes on exactly the cycle it would have ticked
/// densely. The contract: the sleeping phase reads and writes only
/// core-local scratchpads. It makes no reader, writer, command, response
/// or intra-core-out call, and no other core writes into its scratchpads
/// while it sleeps. The one exception is a paced push
/// ([`Writer::push_paced`]) made on the tick that starts the sleep: it
/// stands for the phase's per-cycle pushes, sized by
/// [`Writer::pushable`] so that none of them would have been refused.
///
/// A core that can do nothing until a read stream delivers — a
/// scratchpad init loop that has drained what arrived — calls
/// [`CoreContext::await_stream`]. The harness skips its ticks until the
/// stream has bytes to pop; each skipped tick must be a no-op while the
/// stream is empty.
pub trait AcceleratorCore {
    /// Advances the core by one cycle. `sim` is the simulation context that
    /// owns the channel arena behind the context's command/response/memory
    /// plumbing; cores pass it back into [`CoreContext`] calls that move
    /// data (and otherwise ignore it).
    fn tick(&mut self, sim: &SimCtx, ctx: &mut CoreContext);

    /// Whether the core has no internal work pending and its next `tick`
    /// would do nothing until a command or remote write arrives.
    ///
    /// The default is `false` — the harness then ticks the core every
    /// cycle, which is always correct. Cores with an explicit idle state
    /// can override this so the simulation fast-forwards across the gaps
    /// between commands; an override must only return `true` when `tick`
    /// is a provable no-op given unchanged inputs.
    fn idle(&self) -> bool {
        false
    }
}

/// Handle to a declared read stream: the paper's `getReaderModule(name)`,
/// resolved once at elaboration through [`PortTable::reader`].
///
/// A handle is a plain index, so every per-cycle access through
/// [`CoreContext::reader`] / [`CoreContext::reader_at`] is an array lookup.
/// Handles are only meaningful for the system whose port table issued
/// them; all cores of one system share the same table layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReaderId {
    first: u32,
    channels: u32,
}

/// Handle to a declared write stream (`getWriterModule(name)`), resolved
/// through [`PortTable::writer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WriterId {
    first: u32,
    channels: u32,
}

/// Handle to a declared scratchpad or intra-core In port
/// (`getScratchpad(name)`), resolved through [`PortTable::scratchpad`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScratchpadId(u32);

/// Handle to a declared intra-core Out port (`getIntraCoreMemOut(name)`),
/// resolved through [`PortTable::intra_out`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntraOutId(u32);

/// The names a core's configuration declared, mapped to the handles of
/// its [`CoreContext`]. The elaborator hands it to the system's core
/// factory, which resolves every port the core will use — the moment
/// Beethoven's `getReaderModule(name)` runs during hardware elaboration.
/// After that no name is ever looked up again.
#[derive(Debug, Clone)]
pub struct PortTable {
    readers: Vec<(String, ReaderId)>,
    writers: Vec<(String, WriterId)>,
    scratchpads: Vec<String>,
    intra_outs: Vec<String>,
}

impl PortTable {
    /// The read stream declared as `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name was not declared in the configuration — that is
    /// a programming error in the core, as in the real framework, and it
    /// surfaces at elaboration before any cycle runs.
    pub fn reader(&self, name: &str) -> ReaderId {
        lookup(&self.readers, name).unwrap_or_else(|| panic!("no read channel named '{name}'"))
    }

    /// The write stream declared as `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name was not declared.
    pub fn writer(&self, name: &str) -> WriterId {
        lookup(&self.writers, name).unwrap_or_else(|| panic!("no write channel named '{name}'"))
    }

    /// The scratchpad (or intra-core In port) declared as `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name was not declared.
    pub fn scratchpad(&self, name: &str) -> ScratchpadId {
        position(&self.scratchpads, name)
            .map(ScratchpadId)
            .unwrap_or_else(|| panic!("no scratchpad named '{name}'"))
    }

    /// The intra-core Out port declared as `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name was not declared.
    pub fn intra_out(&self, name: &str) -> IntraOutId {
        position(&self.intra_outs, name)
            .map(IntraOutId)
            .unwrap_or_else(|| panic!("no intra-core out port named '{name}'"))
    }
}

fn lookup<T: Copy>(table: &[(String, T)], name: &str) -> Option<T> {
    table.iter().find(|(n, _)| n == name).map(|(_, id)| *id)
}

fn position(names: &[String], name: &str) -> Option<u32> {
    names.iter().position(|n| n == name).map(|i| i as u32)
}

/// Flattens name-keyed channel groups into one vector in name order,
/// returning each group's handle (built from its first slot and channel
/// count).
fn flatten<T, Id>(
    groups: BTreeMap<String, Vec<T>>,
    id: impl Fn(u32, u32) -> Id,
) -> (Vec<T>, Vec<(String, Id)>) {
    let mut flat = Vec::with_capacity(groups.values().map(Vec::len).sum());
    let mut ids = Vec::with_capacity(groups.len());
    for (name, channels) in groups {
        ids.push((name, id(flat.len() as u32, channels.len() as u32)));
        flat.extend(channels);
    }
    (flat, ids)
}

/// Everything a core can touch during a tick: its identity, its clock, its
/// declared memory primitives, and its command/response IO.
///
/// Primitives live in vectors sorted by declared name and are reached
/// through the handles a [`PortTable`] issued at elaboration.
pub struct CoreContext {
    system_id: u16,
    core_id: u16,
    now: Cycle,
    /// The first cycle the core ticks again (see [`CoreContext::sleep_for`]).
    wake_at: Cycle,
    /// The reader slot whose stream the core waits on (see
    /// [`CoreContext::await_stream`]).
    awaiting: Option<usize>,
    readers: Vec<Reader>,
    writers: Vec<Writer>,
    scratchpads: Vec<Scratchpad>,
    intra_outs: Vec<RemoteWritePort>,
    intra_sinks: Vec<RemoteWriteSink>,
    cmd_rx: Receiver<UnpackedCommand>,
    resp_tx: Sender<RoccResponse>,
    stats: Stats,
    /// Per-beat or per-transaction counters of `stats`, named once.
    commands_accepted: StatCounter,
    responses_sent: StatCounter,
}

/// A core's primitives by declared name, as the elaborator builds them.
pub(crate) struct Primitives {
    pub readers: BTreeMap<String, Vec<Reader>>,
    pub writers: BTreeMap<String, Vec<Writer>>,
    pub scratchpads: BTreeMap<String, Scratchpad>,
    pub intra_outs: BTreeMap<String, RemoteWritePort>,
    /// Inbound remote-write channels, each named by the scratchpad it
    /// lands in.
    pub intra_sinks: Vec<(String, Receiver<RemoteWrite>)>,
}

impl CoreContext {
    /// Assembles a context and the port table its core factory resolves
    /// handles against (called by the elaborator).
    pub(crate) fn new(
        system_id: u16,
        core_id: u16,
        prims: Primitives,
        cmd_rx: Receiver<UnpackedCommand>,
        resp_tx: Sender<RoccResponse>,
        stats: Stats,
    ) -> (Self, PortTable) {
        let (readers, reader_ids) = flatten(prims.readers, |first, channels| ReaderId {
            first,
            channels,
        });
        let (writers, writer_ids) = flatten(prims.writers, |first, channels| WriterId {
            first,
            channels,
        });
        let (scratchpad_names, scratchpads): (Vec<String>, Vec<Scratchpad>) =
            prims.scratchpads.into_iter().unzip();
        let (intra_out_names, intra_outs): (Vec<String>, Vec<RemoteWritePort>) =
            prims.intra_outs.into_iter().unzip();
        let intra_sinks = prims
            .intra_sinks
            .into_iter()
            .map(|(name, rx)| RemoteWriteSink {
                scratchpad: position(&scratchpad_names, &name).unwrap_or_else(|| {
                    panic!("intra-core sink targets unknown scratchpad '{name}'")
                }) as usize,
                rx,
            })
            .collect();
        let ports = PortTable {
            readers: reader_ids,
            writers: writer_ids,
            scratchpads: scratchpad_names,
            intra_outs: intra_out_names,
        };
        let ctx = Self {
            system_id,
            core_id,
            now: 0,
            wake_at: 0,
            awaiting: None,
            readers,
            writers,
            scratchpads,
            intra_outs,
            intra_sinks,
            cmd_rx,
            resp_tx,
            commands_accepted: stats.counter("commands_accepted"),
            responses_sent: stats.counter("responses_sent"),
            stats,
        };
        (ctx, ports)
    }

    /// This core's system id.
    pub fn system_id(&self) -> u16 {
        self.system_id
    }

    /// This core's index within its system.
    pub fn core_id(&self) -> u16 {
        self.core_id
    }

    /// The current fabric cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Shared stats bag for custom core counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Puts the core to sleep for a phase of `cycles` cycles that starts
    /// with the current tick: the core's next tick is at `now + cycles`
    /// (`cycles <= 1` does not sleep). Call it after doing the whole
    /// phase's functional work in this tick; the sleeping phase must keep
    /// the contract on [`AcceleratorCore`] — scratchpads only.
    pub fn sleep_for(&mut self, cycles: Cycle) {
        self.wake_at = self.now + cycles;
    }

    /// Makes the core's ticks no-ops until channel 0 of stream `id` has
    /// bytes to pop: the harness skips them while the stream is empty.
    /// Call it from a tick that drained the stream and has nothing else to
    /// do until more arrives; the next tick that runs ends the wait.
    ///
    /// # Panics
    ///
    /// Panics if the stream was declared with zero channels.
    pub fn await_stream(&mut self, id: ReaderId) {
        assert!(id.channels > 0, "read stream has no channel index 0");
        self.awaiting = Some(id.first as usize);
    }

    /// Whether the core sleeps through the cycle after `now`.
    fn asleep_after(&self, now: Cycle) -> bool {
        self.wake_at > now + 1
    }

    /// Whether the core waits on a stream that is still empty.
    fn awaits_empty_stream(&self) -> bool {
        self.awaiting
            .is_some_and(|r| self.readers[r].available() == 0)
    }

    /// Whether the core's tick is skipped after `now`: it sleeps, or waits
    /// on an empty stream.
    fn waiting_after(&self, now: Cycle) -> bool {
        self.asleep_after(now) || self.awaits_empty_stream()
    }

    /// Whether the core ticks on cycle `now`, ending a stream wait if so.
    fn wakes(&mut self, now: Cycle) -> bool {
        if now < self.wake_at || self.awaits_empty_stream() {
            return false;
        }
        self.awaiting = None;
        true
    }

    /// Takes the next pending command, if any (the `io.req.fire` moment of
    /// the paper's Figure 2).
    pub fn take_command(&mut self, sim: &SimCtx) -> Option<UnpackedCommand> {
        let cmd = self.cmd_rx.recv(sim, self.now);
        if cmd.is_some() {
            self.commands_accepted.incr();
        }
        cmd
    }

    /// Sends the command response (`io.resp.fire`). Returns false if the
    /// response channel is momentarily full — retry next cycle.
    pub fn respond(&mut self, sim: &SimCtx, data: u64) -> bool {
        if !self.resp_tx.can_send(sim) {
            return false;
        }
        self.resp_tx.send(
            sim,
            self.now,
            RoccResponse {
                system_id: self.system_id,
                core_id: self.core_id,
                data,
            },
        );
        self.responses_sent.incr();
        true
    }

    /// Channel 0 of a read stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream was declared with zero channels.
    pub fn reader(&mut self, id: ReaderId) -> &mut Reader {
        self.reader_at(id, 0)
    }

    /// `getReaderModule(name, idx)`: channel `idx` of a read stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream has no channel `idx`.
    pub fn reader_at(&mut self, id: ReaderId, idx: usize) -> &mut Reader {
        assert!(
            idx < id.channels as usize,
            "read stream has no channel index {idx}"
        );
        &mut self.readers[id.first as usize + idx]
    }

    /// Channel 0 of a write stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream was declared with zero channels.
    pub fn writer(&mut self, id: WriterId) -> &mut Writer {
        self.writer_at(id, 0)
    }

    /// `getWriterModule(name, idx)`: channel `idx` of a write stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream has no channel `idx`.
    pub fn writer_at(&mut self, id: WriterId, idx: usize) -> &mut Writer {
        assert!(
            idx < id.channels as usize,
            "write stream has no channel index {idx}"
        );
        &mut self.writers[id.first as usize + idx]
    }

    /// A scratchpad (or intra-core In port's backing memory).
    pub fn scratchpad(&mut self, id: ScratchpadId) -> &mut Scratchpad {
        &mut self.scratchpads[id.0 as usize]
    }

    /// The write port into a remote core's scratchpad.
    pub fn intra_out(&mut self, id: IntraOutId) -> &mut RemoteWritePort {
        &mut self.intra_outs[id.0 as usize]
    }

    /// Borrows a scratchpad and channel 0 of a read stream simultaneously
    /// (needed by scratchpad init loops, which drive one with the other).
    ///
    /// # Panics
    ///
    /// Panics if the stream was declared with zero channels.
    pub fn scratchpad_and_reader(
        &mut self,
        sp: ScratchpadId,
        reader: ReaderId,
    ) -> (&mut Scratchpad, &mut Reader) {
        assert!(reader.channels > 0, "read stream has no channel index 0");
        (
            &mut self.scratchpads[sp.0 as usize],
            &mut self.readers[reader.first as usize],
        )
    }

    /// Borrows a scratchpad and channel 0 of a write stream simultaneously
    /// (needed by a paced push of results read from the scratchpad).
    ///
    /// # Panics
    ///
    /// Panics if the stream was declared with zero channels.
    pub fn scratchpad_and_writer(
        &mut self,
        sp: ScratchpadId,
        writer: WriterId,
    ) -> (&Scratchpad, &mut Writer) {
        assert!(writer.channels > 0, "write stream has no channel index 0");
        (
            &self.scratchpads[sp.0 as usize],
            &mut self.writers[writer.first as usize],
        )
    }

    /// Moves the words channel 0 of `reader` has delivered into scratchpad
    /// `sp` ([`Scratchpad::service_init`]) and returns whether the init is
    /// complete. While it is not, the core awaits the stream
    /// ([`CoreContext::await_stream`]), so this suits a load phase whose
    /// tick does nothing else.
    pub fn service_init(&mut self, sp: ScratchpadId, reader: ReaderId) -> bool {
        let (pad, stream) = self.scratchpad_and_reader(sp, reader);
        pad.service_init(stream);
        let done = !pad.initializing();
        if !done {
            self.await_stream(reader);
        }
        done
    }

    /// Applies remote writes that have arrived over the intra-accelerator
    /// network (called by the harness before the core's tick, so a core
    /// observes writes with the modelled network latency).
    pub(crate) fn drain_remote_writes(&mut self, sim: &SimCtx, now: Cycle) {
        for sink in &mut self.intra_sinks {
            let sp = &mut self.scratchpads[sink.scratchpad];
            while let Some(write) = sink.rx.recv(sim, now) {
                sp.write(write.idx as usize, write.data);
            }
        }
    }

    /// Ticks every primitive (called by the harness after the core's tick).
    pub(crate) fn tick_primitives(&mut self, sim: &SimCtx, now: Cycle) {
        self.now = now;
        for reader in &mut self.readers {
            reader.tick(sim, now);
        }
        for writer in &mut self.writers {
            writer.tick(sim, now);
        }
    }

    pub(crate) fn set_now(&mut self, now: Cycle) {
        self.now = now;
    }

    /// Earliest cycle after `now` at which the harness needs a tick while
    /// the core is idle ([`AcceleratorCore::idle`]), asleep
    /// ([`CoreContext::sleep_for`]) or waiting on an empty stream
    /// ([`CoreContext::await_stream`]), or `None` when everything is
    /// quiescent: the earliest of the primitives' own events, inbound
    /// remote writes, and the wake cycle of a sleeping core or the next
    /// visible command of an idle one. The queued command of a sleeping
    /// or waiting core waits for the core, so it must not keep the
    /// harness ticking. A waiting core's stream fills only in its
    /// reader's tick, which the reader's own event covers.
    pub(crate) fn next_event(&self, sim: &SimCtx, now: Cycle) -> Option<Cycle> {
        let awaiting = self.awaits_empty_stream();
        // Scratchpad init is driven from the core's own tick; an idle()
        // claim during init would be a core bug — stay awake regardless,
        // unless the core said which stream its init waits on.
        if !awaiting && self.scratchpads.iter().any(Scratchpad::initializing) {
            return Some(now + 1);
        }
        let mut wake: Option<Cycle> = None;
        let mut consider = |e: Option<Cycle>| {
            if let Some(e) = e {
                let e = e.max(now + 1);
                wake = Some(wake.map_or(e, |w: Cycle| w.min(e)));
            }
        };
        for reader in &self.readers {
            consider(reader.next_event(sim, now));
        }
        for writer in &self.writers {
            consider(writer.next_event(sim, now));
        }
        for sink in &self.intra_sinks {
            consider(sink.rx.next_visible_at(sim));
        }
        if self.asleep_after(now) {
            consider(Some(self.wake_at));
        } else if !awaiting {
            consider(self.cmd_rx.next_visible_at(sim));
        }
        wake
    }

    /// Charges the stall cycles every primitive skipped through cycle
    /// `through`: a capped reader's (see [`Reader::settle_capped`]) and a
    /// data-starved writer's (see [`Writer::settle_starved`]).
    pub(crate) fn settle_stalls(&self, through: Cycle) {
        for reader in &self.readers {
            reader.settle_capped(through);
        }
        for writer in &self.writers {
            writer.settle_starved(through);
        }
    }

    /// Hooks every channel [`CoreContext::next_event`] consults, so a
    /// sleeping harness is re-armed the moment new work arrives: a command,
    /// a remote write from another core, read data, or a write ack. The
    /// core's own `idle` flag and wake cycle can only change inside a tick,
    /// so these external inputs are the complete wake surface.
    pub(crate) fn register_wakes(&self, sim: &SimCtx, waker: &bsim::Waker) {
        self.cmd_rx.wake_on_send(sim, waker);
        for sink in &self.intra_sinks {
            sink.rx.wake_on_send(sim, waker);
        }
        for reader in &self.readers {
            reader.register_wakes(sim, waker);
        }
        for writer in &self.writers {
            writer.register_wakes(sim, waker);
        }
    }
}

impl std::fmt::Debug for CoreContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreContext")
            .field("system_id", &self.system_id)
            .field("core_id", &self.core_id)
            .field("now", &self.now)
            .field("readers", &self.readers.len())
            .field("writers", &self.writers.len())
            .field("scratchpads", &self.scratchpads.len())
            .finish()
    }
}

/// The component wrapper that ticks a core and its context inside the SoC
/// simulation.
pub(crate) struct CoreHarness {
    pub(crate) core: Box<dyn AcceleratorCore + Send>,
    pub(crate) ctx: CoreContext,
}

impl bsim::Component for CoreHarness {
    fn tick(&mut self, sim: &SimCtx, now: Cycle) {
        self.ctx.set_now(now);
        self.ctx.drain_remote_writes(sim, now);
        if self.ctx.wakes(now) {
            self.core.tick(sim, &mut self.ctx);
        }
        self.ctx.tick_primitives(sim, now);
    }

    fn name(&self) -> &str {
        "core-harness"
    }

    fn next_event(&self, sim: &SimCtx, now: Cycle) -> Option<Cycle> {
        if !self.ctx.waiting_after(now) && !self.core.idle() {
            return Some(now + 1);
        }
        self.ctx.next_event(sim, now)
    }

    fn register_wakes(&self, sim: &SimCtx, waker: &bsim::Waker) {
        self.ctx.register_wakes(sim, waker);
    }
}
