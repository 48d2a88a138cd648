//! The composed, runnable SoC: what [`crate::elaborate()`](crate::elaborate()) produces.
//!
//! [`SocSim`] is the device side of the paper's Figure 1: every core, the
//! command/response plumbing, the memory interconnect, the AXI memory
//! controller, and the DRAM model, all ticking on the fabric clock. The
//! host runtime (`bruntime`) drives it through [`SocSim::send_command`] /
//! [`SocSim::poll`] and owns all host-side timing (MMIO latency, the
//! runtime server lock).

use std::collections::{HashMap, VecDeque};

use baxi::AxiMemoryController;
use bplatform::Platform;
use bsim::{ClockDomain, Cycle, PerfRegistry, Receiver, Sender, Shared, Simulation, Stats, Tracer};

use crate::command::{
    pack_command, unpack_command, AccelCommandSpec, CommandArgs, CommandPackError, RoccCommand,
    RoccResponse, UnpackedCommand,
};
use crate::mmio::{encode_command, MmioDecoder, MmioRegister};
use crate::report::SocReport;

/// Identifies one in-flight command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommandToken {
    /// System the command went to.
    pub system: u16,
    /// Core the command went to.
    pub core: u16,
    seq: u64,
}

/// Errors from [`SocSim::send_command`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// Unknown system id.
    NoSuchSystem(u16),
    /// Core index out of range for the system.
    NoSuchCore {
        /// System id.
        system: u16,
        /// Requested core.
        core: u16,
        /// Cores in the system.
        n_cores: u16,
    },
    /// The core's command queue is full; retry after advancing time.
    QueueFull,
    /// Argument packing failed.
    Pack(CommandPackError),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::NoSuchSystem(id) => write!(f, "no system with id {id}"),
            SendError::NoSuchCore {
                system,
                core,
                n_cores,
            } => {
                write!(f, "system {system} has {n_cores} cores; no core {core}")
            }
            SendError::QueueFull => write!(f, "core command queue full"),
            SendError::Pack(e) => write!(f, "bad command arguments: {e}"),
        }
    }
}

impl std::error::Error for SendError {}

impl From<CommandPackError> for SendError {
    fn from(e: CommandPackError) -> Self {
        SendError::Pack(e)
    }
}

/// Per-core plumbing the elaborator hands to the SoC.
pub(crate) struct CoreLink {
    pub cmd_tx: Sender<UnpackedCommand>,
    pub resp_rx: Receiver<RoccResponse>,
}

/// Executed cycles between the completion checks of the response waits.
/// Every response channel is a watched wake source (see `SocSim::new`),
/// so the stride never delays an observation: the scheduler forces a
/// check on any cycle a response becomes visible (the "strides never
/// race wakes" guarantee of `Simulation::run_until_strided`). It only
/// saves the per-cycle predicate call on busy stretches; dropping it
/// measured slower on the `serve-inproc` and `memcpy` benchmarks.
const RESPONSE_POLL_STRIDE: Cycle = 64;

/// Ready-list registration key for `(system, core)`'s response channel.
fn ready_key(system: u16, core: u16) -> u64 {
    ((system as u64) << 16) | core as u64
}

/// The SoC's one response drain: empties every response channel the
/// simulation's host-ready queue reports as holding a visible item into
/// the completed set. A channel left with not-yet-visible items stays
/// queued, so a later drain picks them up. Returns the number of
/// responses recorded.
///
/// Costs O(channels holding responses), not O(cores). Shared by
/// [`SocSim::drain_ready_responses`] and the `done` closure of the
/// response wait (which holds the simulation's fields destructured, so
/// this takes them piecewise).
fn drain_ready_links(
    sim: &Simulation,
    links: &[Vec<CoreLink>],
    outstanding: &mut [Vec<VecDeque<(u64, Cycle)>>],
    completed: &mut HashMap<(u16, u16, u64), u64>,
    mmio_stats: &Stats,
) -> usize {
    let now = sim.now();
    let mut drained = 0;
    for key in sim.ctx().take_ready_keys(now) {
        let sys = (key >> 16) as usize;
        let core = (key & 0xffff) as usize;
        let link = &links[sys][core];
        while let Some(resp) = link.resp_rx.recv(sim.ctx(), now) {
            let (seq, sent) = outstanding[sys][core]
                .pop_front()
                .expect("response without outstanding command");
            mmio_stats.incr("responses");
            mmio_stats.record("cmd_latency_cycles", now.saturating_sub(sent));
            completed.insert((sys as u16, core as u16, seq), resp.data);
            drained += 1;
        }
    }
    drained
}

/// The composed SoC simulation.
pub struct SocSim {
    pub(crate) sim: Simulation,
    pub(crate) memory: baxi::SharedMemory,
    pub(crate) platform: Platform,
    pub(crate) fabric: ClockDomain,
    /// Indexed `[system][core]`.
    pub(crate) links: Vec<Vec<CoreLink>>,
    pub(crate) specs: Vec<AccelCommandSpec>,
    pub(crate) system_names: Vec<String>,
    /// One controller per platform memory port.
    pub(crate) controllers: Vec<Shared<AxiMemoryController>>,
    pub(crate) interconnect_stats: Stats,
    pub(crate) report: SocReport,
    /// Per-core FIFOs of (seq, dispatch cycle) awaiting a response.
    outstanding: Vec<Vec<VecDeque<(u64, Cycle)>>>,
    completed: HashMap<(u16, u16, u64), u64>,
    next_seq: u64,
    /// Word-level reassembly of the MMIO command FIFO.
    mmio_decoder: MmioDecoder,
    /// Per-target multi-beat command assembly (the command subsystem's
    /// beat buffer in Figure 1a).
    beat_assembly: HashMap<(u16, u16), Vec<RoccCommand>>,
    /// Total words that crossed the MMIO command FIFO.
    mmio_cmd_words: u64,
    /// The SoC-wide performance-counter registry (Perf window + exporter).
    perf: PerfRegistry,
    /// The AXI event recorder every memory port's controller records into.
    tracer: Tracer,
    /// MMIO frontend stats: command/response traffic plus the
    /// dispatch→response latency histogram. Registered under `mmio/`.
    mmio_stats: Stats,
    /// Last value written to [`MmioRegister::PerfSelect`].
    perf_select: u32,
    /// Counter value latched by the last `PerfSelect` write, so the two
    /// 32-bit data reads are coherent even if the counter keeps moving.
    perf_latched: u64,
}

impl SocSim {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        mut sim: Simulation,
        memory: baxi::SharedMemory,
        platform: Platform,
        links: Vec<Vec<CoreLink>>,
        specs: Vec<AccelCommandSpec>,
        system_names: Vec<String>,
        controllers: Vec<Shared<AxiMemoryController>>,
        interconnect_stats: Stats,
        report: SocReport,
        perf: PerfRegistry,
        tracer: Tracer,
    ) -> Self {
        let fabric = ClockDomain::from_mhz(platform.fabric_mhz);
        // Response channels are drained by host code, not by a component,
        // so the event-aware scheduler cannot see them through
        // `next_event`. Watch them: fast-forward never jumps past the
        // cycle a response becomes visible to the host, and the key lets
        // the response wait drain only the channels that hold responses.
        for (sys, cores) in links.iter().enumerate() {
            for (core, link) in cores.iter().enumerate() {
                sim.watch_receiver(&link.resp_rx, ready_key(sys as u16, core as u16));
            }
        }
        let outstanding = links
            .iter()
            .map(|cores| cores.iter().map(|_| VecDeque::new()).collect())
            .collect();
        let mmio_stats = Stats::new();
        perf.set("mmio").attach_stats(&mmio_stats);
        let soc = Self {
            sim,
            memory,
            platform,
            fabric,
            links,
            specs,
            system_names,
            controllers,
            interconnect_stats,
            report,
            outstanding,
            completed: HashMap::new(),
            next_seq: 0,
            mmio_decoder: MmioDecoder::new(),
            beat_assembly: HashMap::new(),
            mmio_cmd_words: 0,
            perf,
            tracer,
            mmio_stats,
            perf_select: 0,
            perf_latched: 0,
        };
        // Materialize the scheduler counters now so the MMIO window's
        // index space (sorted flattened names) is stable from cycle 0.
        soc.sync_scheduler_counters();
        soc
    }

    /// The elaboration report (resources, floorplan, bindings).
    pub fn report(&self) -> &SocReport {
        &self.report
    }

    /// The platform this SoC was elaborated for.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The fabric clock domain.
    pub fn clock(&self) -> ClockDomain {
        self.fabric
    }

    /// The functional device memory image.
    pub fn memory(&self) -> baxi::SharedMemory {
        self.memory.clone()
    }

    /// Current fabric cycle.
    pub fn now(&self) -> Cycle {
        self.sim.now()
    }

    /// Elapsed simulated time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.fabric.cycles_to_secs(self.sim.now())
    }

    /// Advances the fabric one cycle.
    pub fn step(&mut self) {
        self.sim.step();
    }

    /// Forces the event-aware scheduler (fabric fast-forward and DRAM
    /// idle-cycle skipping) on or off across the whole SoC. Both modes are
    /// cycle-exact; this exists so tests and benches can compare them.
    pub fn set_event_driven(&mut self, enabled: bool) {
        self.sim.set_event_driven(enabled);
        let controllers = self.controllers.clone();
        for controller in controllers {
            self.sim.get_mut(controller).set_event_driven(enabled);
        }
    }

    /// Advances `cycles` fabric cycles.
    pub fn run_for(&mut self, cycles: Cycle) {
        self.sim.run_for(cycles);
    }

    /// Looks up a system id by name.
    pub fn system_id(&self, name: &str) -> Option<u16> {
        self.system_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as u16)
    }

    /// Number of cores in `system`.
    pub fn cores_in(&self, system: u16) -> u16 {
        self.links
            .get(system as usize)
            .map_or(0, |c| c.len() as u16)
    }

    /// The command spec `system`'s cores accept.
    pub fn command_spec(&self, system: u16) -> Option<&AccelCommandSpec> {
        self.specs.get(system as usize)
    }

    /// Whether `(system, core)`'s command queue can take another command.
    pub fn can_send(&self, system: u16, core: u16) -> bool {
        self.links
            .get(system as usize)
            .and_then(|c| c.get(core as usize))
            .is_some_and(|l| l.cmd_tx.can_send(self.sim.ctx()))
    }

    /// Occupancy snapshot of `(system, core)`'s command queue — what a
    /// depth-aware dispatcher (`bserver`) reads before placing work, so it
    /// never has to discover backpressure by spinning on `QueueFull`.
    pub fn cmd_queue_state(&self, system: u16, core: u16) -> Option<bsim::ChannelState> {
        self.links
            .get(system as usize)
            .and_then(|c| c.get(core as usize))
            .map(|l| l.cmd_tx.state(self.sim.ctx()))
    }

    /// Free command-queue slots on `(system, core)`, in whole commands.
    pub fn cmd_queue_free(&self, system: u16, core: u16) -> Option<usize> {
        self.cmd_queue_state(system, core)
            .map(|s| s.capacity - s.occupancy)
    }

    /// Sends a command; returns a token to poll for the response. The
    /// one-item case of [`SocSim::submit_batch`].
    ///
    /// Arguments are validated by round-tripping through the RoCC packing
    /// path — exactly the transformation the generated bindings and the
    /// MMIO frontend perform in the real system.
    ///
    /// # Errors
    ///
    /// See [`SendError`].
    pub fn send_command(
        &mut self,
        system: u16,
        core: u16,
        args: &CommandArgs,
    ) -> Result<CommandToken, SendError> {
        let mut sent = self.submit_batch(system, &[(core, args)], 0)?;
        Ok(sent.pop().expect("one item sent").0)
    }

    /// Sends a batch of commands to `system` under one host visit,
    /// spacing consecutive sends by `gap_cycles` (the per-command MMIO
    /// serialization cost — the host still pushes one frame at a time
    /// over the bus, it just holds the lock once).
    ///
    /// All-or-nothing: every item is validated (core range, argument
    /// packing, per-core queue capacity counted with multiplicity)
    /// *before* any time advances or any word is pushed, so a failed
    /// batch leaves the SoC untouched. Returns one `(token, cycle)` pair
    /// per item, where the cycle is the fabric time the command entered
    /// the FIFO.
    ///
    /// # Errors
    ///
    /// See [`SendError`]; `QueueFull` means some core lacked capacity for
    /// every command routed to it.
    pub fn submit_batch(
        &mut self,
        system: u16,
        items: &[(u16, &CommandArgs)],
        gap_cycles: Cycle,
    ) -> Result<Vec<(CommandToken, Cycle)>, SendError> {
        let spec = self
            .specs
            .get(system as usize)
            .ok_or(SendError::NoSuchSystem(system))?;
        let cores = &self.links[system as usize];
        let mut need: std::collections::BTreeMap<u16, usize> = std::collections::BTreeMap::new();
        let mut packed_all = Vec::with_capacity(items.len());
        for &(core, args) in items {
            if core as usize >= cores.len() {
                return Err(SendError::NoSuchCore {
                    system,
                    core,
                    n_cores: cores.len() as u16,
                });
            }
            packed_all.push(pack_command(spec, system, core, args)?);
            *need.entry(core).or_insert(0) += 1;
        }
        for (&core, &n) in &need {
            if cores[core as usize].cmd_tx.free_slots(self.sim.ctx()) < n {
                return Err(SendError::QueueFull);
            }
        }
        let mut out = Vec::with_capacity(items.len());
        for (i, (&(core, _), packed)) in items.iter().zip(&packed_all).enumerate() {
            if i > 0 && gap_cycles > 0 {
                self.run_for(gap_cycles);
            }
            // The full host→MMIO→RoCC→core path: each RoCC beat goes out
            // as its five-word MMIO frame through the command subsystem's
            // decoder — the wire protocol is load-bearing, exactly as in
            // the generated hardware.
            for beat in &packed.beats {
                for word in encode_command(beat) {
                    self.mmio_write_cmd_word(word);
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let at = self.sim.now();
            self.outstanding[system as usize][core as usize].push_back((seq, at));
            self.mmio_stats.incr("commands_sent");
            out.push((CommandToken { system, core, seq }, at));
        }
        Ok(out)
    }

    /// Pushes one word into the MMIO command FIFO; completed frames become
    /// RoCC beats, and completed beat sequences dispatch to their core.
    pub fn mmio_write_cmd_word(&mut self, word: u32) {
        self.mmio_cmd_words += 1;
        self.mmio_stats.incr("cmd_words");
        let Some(beat) = self.mmio_decoder.push_word(word) else {
            return;
        };
        let key = (beat.system_id, beat.core_id);
        let total = beat.total_beats as usize;
        let beats = self.beat_assembly.entry(key).or_default();
        beats.push(beat);
        if beats.len() < total {
            return;
        }
        let beats = self.beat_assembly.remove(&key).expect("just inserted");
        let spec = &self.specs[key.0 as usize];
        let unpacked = unpack_command(spec, &beats);
        let link = &self.links[key.0 as usize][key.1 as usize];
        assert!(
            link.cmd_tx.can_send(self.sim.ctx()),
            "command FIFO overrun: host must check CMD_STATUS before writing"
        );
        link.cmd_tx.send(self.sim.ctx(), self.sim.now(), unpacked);
    }

    /// Total 32-bit words the host has pushed through the command FIFO.
    pub fn mmio_cmd_words(&self) -> u64 {
        self.mmio_cmd_words
    }

    /// Non-blocking poll: returns the response payload if `token` has
    /// completed (consumes it).
    pub fn poll(&mut self, token: CommandToken) -> Option<u64> {
        self.drain_ready_responses();
        self.take_completed(token)
    }

    /// Drains every response channel the host-ready list reports, leaving
    /// completions in the completed set for [`SocSim::take_completed`].
    /// Returns how many responses were recorded.
    ///
    /// This is the doorbell-coalescing harvest: one call after a wake
    /// collects *all* responses visible right now, in time proportional
    /// to the number of ready channels — no per-core scan, no per-response
    /// re-drain.
    pub fn drain_ready_responses(&mut self) -> usize {
        let Self {
            sim,
            links,
            outstanding,
            completed,
            mmio_stats,
            ..
        } = self;
        drain_ready_links(sim, links, outstanding, completed, mmio_stats)
    }

    /// Consumes `token`'s completion if it is already in the completed
    /// set. Unlike [`SocSim::poll`], performs no draining — pair it with
    /// [`SocSim::drain_ready_responses`].
    pub fn take_completed(&mut self, token: CommandToken) -> Option<u64> {
        self.completed
            .remove(&(token.system, token.core, token.seq))
    }

    /// Runs the fabric until `token` completes or `max_cycles` pass.
    ///
    /// Drives the event-aware scheduler: when every component is quiescent
    /// the simulation fast-forwards to the next due event instead of
    /// ticking empty cycles, without changing the cycle at which the
    /// response is observed.
    ///
    /// # Errors
    ///
    /// Returns `Err(max_cycles)` on timeout.
    pub fn run_until_response(
        &mut self,
        token: CommandToken,
        max_cycles: Cycle,
    ) -> Result<u64, Cycle> {
        let key = (token.system, token.core, token.seq);
        self.wait_for_completion(max_cycles, |completed| completed.contains_key(&key))?;
        Ok(self
            .completed
            .remove(&key)
            .expect("the wait observed the response"))
    }

    /// Runs the fabric until *any* outstanding command completes or
    /// `max_cycles` pass — the runtime server's "doorbell" wait. Shares
    /// [`SocSim::run_until_response`]'s body, so a sleeping dispatcher
    /// costs no per-cycle host work across quiescent gaps either.
    ///
    /// Completions are left in the completed set; harvest them with
    /// [`SocSim::take_completed`] (or [`SocSim::poll`]).
    ///
    /// # Errors
    ///
    /// Returns `Err(max_cycles)` if nothing completed within the budget.
    pub fn run_until_any_response(&mut self, max_cycles: Cycle) -> Result<(), Cycle> {
        self.wait_for_completion(max_cycles, |completed| !completed.is_empty())
    }

    /// The one body of both response waits: drains the ready response
    /// channels and returns once `done` holds of the completed set, else
    /// runs the fabric, draining and re-checking on every completion
    /// check of [`Simulation::run_until_strided`]. The watched response
    /// channels force a check on the exact cycle a response becomes
    /// visible, so the stride never delays an observation.
    ///
    /// Each check drains only the channels the host-ready queue reports:
    /// wake cost scales with ready cores, not SoC size. Counter
    /// increments and histogram samples are order-insensitive and the
    /// completed set is keyed, so drain order cannot change any
    /// observable output.
    fn wait_for_completion(
        &mut self,
        max_cycles: Cycle,
        mut done: impl FnMut(&HashMap<(u16, u16, u64), u64>) -> bool,
    ) -> Result<(), Cycle> {
        self.drain_ready_responses();
        if done(&self.completed) {
            return Ok(());
        }
        let Self {
            sim,
            links,
            outstanding,
            completed,
            mmio_stats,
            ..
        } = self;
        sim.run_until_strided(max_cycles, RESPONSE_POLL_STRIDE, |sim| {
            drain_ready_links(sim, links, outstanding, completed, mmio_stats);
            done(completed)
        })
        .map(|_| ())
        .map_err(|_| max_cycles)
    }

    /// Whether any command is still awaiting a response.
    pub fn has_outstanding(&self) -> bool {
        self.outstanding
            .iter()
            .any(|cores| cores.iter().any(|q| !q.is_empty()))
    }

    /// Memory port 0's controller stats bag (the port a single-core design
    /// uses).
    pub fn controller_stats(&self) -> Stats {
        self.sim.get(self.controllers[0]).stats()
    }

    /// The AXI event tracer shared by every memory port (for Figure-5
    /// timelines). Port 0 records on tracks `AR` … `B`, port `p ≥ 1` on
    /// `mem{p}/AR` … `mem{p}/B`.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Number of independent memory ports.
    pub fn mem_ports(&self) -> usize {
        self.controllers.len()
    }

    /// DRAM-side statistics, merged across memory ports.
    pub fn dram_stats(&self) -> bdram::ChannelStats {
        let mut total = bdram::ChannelStats::default();
        for c in &self.controllers {
            total.merge(self.sim.get(*c).dram_stats());
        }
        total
    }

    /// Interconnect statistics.
    pub fn interconnect_stats(&self) -> Stats {
        self.interconnect_stats.clone()
    }

    /// A handle to the SoC-wide performance-counter registry.
    pub fn perf(&self) -> PerfRegistry {
        self.perf.clone()
    }

    /// Turns the gated performance counters on or off. Counters never feed
    /// back into simulated behaviour, so this cannot change cycle counts
    /// (guarded by the profiling lockstep test in `bkernels`).
    pub fn set_profiling(&mut self, enabled: bool) {
        self.perf.set_enabled(enabled);
    }

    /// Whether gated performance counters are currently live.
    pub fn profiling(&self) -> bool {
        self.perf.is_enabled()
    }

    /// Pushes the scheduler's externally-owned cycle counts into the
    /// registry. Called before every registry read so `scheduler/*`
    /// counters are current. (`skipped_cycles` legitimately differs
    /// between naive and event-driven modes — it measures the scheduler,
    /// not the simulated hardware.)
    fn sync_scheduler_counters(&self) {
        self.perf
            .set_value("scheduler", "executed_cycles", self.sim.executed_cycles());
        self.perf
            .set_value("scheduler", "skipped_cycles", self.sim.skipped_cycles());
        self.perf.set_value(
            "scheduler",
            "ticked_component_cycles",
            self.sim.ticked_component_cycles(),
        );
        self.perf.set_value(
            "scheduler",
            "registered_component_cycles",
            self.sim.registered_component_cycles(),
        );
        // DRAM channel stats live in plain structs inside each controller;
        // mirror them here (before every registry read) instead of via a
        // stored pull provider, which cannot resolve an arena handle
        // without the simulation.
        for (port, c) in self.controllers.iter().enumerate() {
            let ctrl = self.sim.get(*c);
            let burst = ctrl.dram_bytes_per_burst();
            let path = format!("mem{port}/dram");
            for (i, s) in ctrl.dram_channel_stats().into_iter().enumerate() {
                self.perf.set_value(&path, &format!("ch{i}_reads"), s.reads);
                self.perf
                    .set_value(&path, &format!("ch{i}_writes"), s.writes);
                self.perf
                    .set_value(&path, &format!("ch{i}_row_hits"), s.row_hits);
                self.perf
                    .set_value(&path, &format!("ch{i}_row_conflicts"), s.row_conflicts);
                self.perf
                    .set_value(&path, &format!("ch{i}_activates"), s.activates);
                self.perf
                    .set_value(&path, &format!("ch{i}_refreshes"), s.refreshes);
                self.perf.set_value(
                    &path,
                    &format!("ch{i}_refresh_stall_cycles"),
                    s.refresh_stall_cycles,
                );
                self.perf
                    .set_value(&path, &format!("ch{i}_bytes_read"), s.reads * burst);
                self.perf
                    .set_value(&path, &format!("ch{i}_bytes_written"), s.writes * burst);
            }
        }
    }

    /// Host-side MMIO register write (the counter window plus the command
    /// FIFO). Writing [`MmioRegister::PerfSelect`] selects a counter by its
    /// index in [`PerfRegistry::counter_names`] order and latches its
    /// current 64-bit value for the two data reads. Writes to read-only
    /// registers are ignored, as on the real bus.
    pub fn mmio_write(&mut self, reg: MmioRegister, word: u32) {
        match reg {
            MmioRegister::CmdFifo => self.mmio_write_cmd_word(word),
            MmioRegister::PerfSelect => {
                self.perf_select = word;
                self.sync_scheduler_counters();
                self.perf_latched = self
                    .perf
                    .counters()
                    .get(word as usize)
                    .map_or(0, |(_, v)| *v);
            }
            _ => {}
        }
    }

    /// Host-side MMIO register read for the performance-counter window.
    /// The command/response FIFO registers are serviced through
    /// [`SocSim::send_command`] / [`SocSim::poll`] (which model the same
    /// word traffic) and read as zero here.
    pub fn mmio_read(&mut self, reg: MmioRegister) -> u32 {
        match reg {
            // Free command-queue slots, minimized across every core: the
            // conservative "may I push another frame anywhere" answer a
            // host dispatcher reads before writing the command FIFO.
            MmioRegister::CmdStatus => self
                .links
                .iter()
                .flatten()
                .map(|l| l.cmd_tx.free_slots(self.sim.ctx()))
                .min()
                .unwrap_or(0) as u32,
            MmioRegister::PerfSelect => self.perf_select,
            MmioRegister::PerfDataLo => self.perf_latched as u32,
            MmioRegister::PerfDataHi => (self.perf_latched >> 32) as u32,
            MmioRegister::PerfCount => {
                self.sync_scheduler_counters();
                self.perf.counters().len() as u32
            }
            _ => 0,
        }
    }

    /// Sorted, baseline-subtracted `(path/name, value)` pairs for every
    /// counter, with the scheduler counters synced first.
    pub fn perf_counters(&self) -> Vec<(String, u64)> {
        self.sync_scheduler_counters();
        self.perf.counters()
    }

    /// Rebases every counter to zero by baseline subtraction; the sources
    /// (which may be load-bearing, e.g. the writer's AXI-ID rotation) are
    /// never written.
    pub fn reset_perf(&self) {
        self.sync_scheduler_counters();
        self.perf.reset();
    }

    /// Records a windowed sample of every counter at the current cycle,
    /// for the Chrome-trace exporter's counter tracks.
    pub fn sample_perf(&self) {
        self.sync_scheduler_counters();
        self.perf.sample(self.sim.now());
    }

    /// Renders the end-of-run text profile report.
    pub fn perf_report(&self) -> String {
        self.sync_scheduler_counters();
        self.perf.report()
    }

    /// Emits the Chrome trace-event JSON document: one `beethoven-sim`
    /// process with slices from every memory port's AXI events and counter
    /// tracks from [`SocSim::sample_perf`] samples. Open the result at
    /// <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> String {
        let events = self.tracer.events();
        bsim::perf::chrome_trace(
            &[("beethoven-sim", &events)],
            &self.perf.samples(),
            self.fabric.period_ps(),
        )
    }
}

impl std::fmt::Debug for SocSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocSim")
            .field("platform", &self.platform.name)
            .field("systems", &self.system_names)
            .field("now", &self.sim.now())
            .finish()
    }
}
