//! Elaboration: configuration + platform → composed SoC.
//!
//! This is the pass the paper describes in §II-A/B: Beethoven takes the
//! developer's Core logic and configuration, places cores across SLRs,
//! generates SLR-aware command and memory networks, maps on-chip memories
//! to physical cells (with the 80% spill rule), wires everything to the
//! platform's memory controller, and emits host bindings, placement
//! constraints, and a resource report.

use std::collections::BTreeMap;

use baxi::{
    axi_link, axi_link_with_latency, AxiMemoryController, AxiParams, AxiSlavePort,
    ControllerConfig, PortDepths,
};
use bdram::{DramConfigError, DramSystem};
use bnoc::{Endpoint, NetworkBuilder, NocParams};
use bplatform::{
    CellKind, Floorplanner, MemoryCellMapper, MemoryRequest, PlacementError, Platform,
    ResourceVector,
};
use bsim::{ClockDomain, PerfRegistry, Simulation, SparseMemory, Stats, Tracer};

use crate::bindings::generate_bindings;
use crate::config::{AcceleratorConfig, MemoryChannelConfig};
use crate::core::{CoreContext, CoreHarness, Primitives};
use crate::intracore::{CommunicationDegree, RemoteWrite, RemoteWritePort};
use crate::primitives::{Reader, ReaderConfig, Scratchpad, Writer, WriterConfig};
use crate::report::{NocSummary, ReportRow, SocReport};
use crate::soc::{CoreLink, SocSim};

/// Elaboration failures.
#[derive(Debug)]
pub enum ElaborationError {
    /// The configuration declares no systems.
    NoSystems,
    /// A system declares zero cores.
    EmptySystem(String),
    /// Two memory channels in one system share a name.
    DuplicateChannel {
        /// System name.
        system: String,
        /// Offending channel name.
        channel: String,
    },
    /// The floorplanner could not fit the cores.
    Placement(PlacementError),
    /// A memory could not be mapped to cells.
    MemoryMap(String),
    /// An intra-core Out port names a target that does not exist.
    BadIntraTarget {
        /// Declaring system.
        system: String,
        /// Out port name.
        port: String,
        /// What was wrong.
        reason: String,
    },
    /// A Reader prefetch or Writer staging buffer cannot hold one burst
    /// (`burst_beats × mem_bus_bytes`), so its stream would never issue.
    BufferBelowBurst {
        /// `"prefetch_bytes"` or `"staging_bytes"`.
        buffer: &'static str,
        /// The configured size.
        bytes: usize,
        /// One burst's bytes.
        burst_bytes: u64,
    },
    /// The platform's memory bus is wider than one AXI beat can carry
    /// ([`baxi::MAX_BEAT_BYTES`]).
    BusTooWide {
        /// The platform's `mem_bus_bytes`.
        bus_bytes: u32,
    },
    /// The platform's DRAM configuration cannot be simulated.
    Dram(DramConfigError),
}

impl std::fmt::Display for ElaborationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElaborationError::NoSystems => write!(f, "accelerator declares no systems"),
            ElaborationError::EmptySystem(s) => write!(f, "system '{s}' has zero cores"),
            ElaborationError::DuplicateChannel { system, channel } => {
                write!(f, "system '{system}' declares channel '{channel}' twice")
            }
            ElaborationError::Placement(e) => write!(f, "floorplanning failed: {e}"),
            ElaborationError::MemoryMap(e) => write!(f, "memory mapping failed: {e}"),
            ElaborationError::BadIntraTarget {
                system,
                port,
                reason,
            } => {
                write!(f, "intra-core port '{port}' of system '{system}': {reason}")
            }
            ElaborationError::BufferBelowBurst {
                buffer,
                bytes,
                burst_bytes,
            } => write!(
                f,
                "{buffer} of {bytes} bytes cannot hold one {burst_bytes}-byte burst"
            ),
            ElaborationError::BusTooWide { bus_bytes } => write!(
                f,
                "memory bus of {bus_bytes} bytes exceeds the {}-byte beat limit",
                baxi::MAX_BEAT_BYTES
            ),
            ElaborationError::Dram(e) => write!(f, "DRAM configuration: {e}"),
        }
    }
}

impl std::error::Error for ElaborationError {}

impl From<PlacementError> for ElaborationError {
    fn from(e: PlacementError) -> Self {
        ElaborationError::Placement(e)
    }
}

/// Elaboration knobs (the platform-developer tuning surface of §II-B).
#[derive(Debug, Clone)]
pub struct ElaborationOptions {
    /// Beats per AXI transaction issued by Readers/Writers.
    pub burst_beats: u32,
    /// Concurrent transactions per Reader (TLP degree; 1 disables TLP).
    pub reader_inflight: u32,
    /// Concurrent transactions per Writer.
    pub writer_inflight: u32,
    /// Distinct AXI IDs each Reader/Writer spreads transactions over.
    /// Set to 1 for the paper's "No-TLP" ablation.
    pub ids_per_port: u32,
    /// Reader prefetch buffer bytes.
    pub prefetch_bytes: usize,
    /// Writer staging buffer bytes.
    pub staging_bytes: usize,
    /// Depth of each core's command queue.
    pub cmd_queue_depth: usize,
    /// Memory controller: same-ID transactions concurrently in DRAM.
    pub same_id_inflight: usize,
    /// Implement Reader/Writer buffers in flip-flops instead of SRAM
    /// cells (the platform-development knob of §II-B: "registers vs SRAMs
    /// for reader/writer buffers"). Sensible only for small buffers: the
    /// bits land on FF/LUT instead of BRAM/URAM.
    pub buffers_in_registers: bool,
    /// Enable the AXI tracer from cycle 0.
    pub trace: bool,
    /// Enable the gated performance counters from cycle 0. The registry is
    /// always built and attached; this only flips
    /// [`PerfRegistry::set_enabled`] (also reachable later via
    /// `SocSim::set_profiling`).
    pub profile: bool,
    /// NoC construction parameters.
    pub noc: NocParams,
}

impl Default for ElaborationOptions {
    fn default() -> Self {
        Self {
            burst_beats: 64,
            reader_inflight: 4,
            writer_inflight: 4,
            ids_per_port: 4,
            prefetch_bytes: 16 * 1024,
            staging_bytes: 16 * 1024,
            cmd_queue_depth: 8,
            same_id_inflight: 1,
            buffers_in_registers: false,
            trace: false,
            profile: false,
            noc: NocParams::default(),
        }
    }
}

impl ElaborationOptions {
    /// The paper's "No-TLP" ablation: single-ID, serialized transactions.
    pub fn no_tlp(mut self) -> Self {
        self.ids_per_port = 1;
        self
    }

    /// Shorter bursts (the paper compares 16-beat vs 64-beat memcpy).
    pub fn with_burst_beats(mut self, beats: u32) -> Self {
        self.burst_beats = beats;
        self
    }
}

/// Reader/Writer wrapper overhead, per streaming port (Table II's Reader
/// row: ≈600 CLB / 2.3K LUT / 2.6K FF of control logic).
fn port_overhead() -> ResourceVector {
    ResourceVector::new(600, 2_300, 2_600, 0, 0, 0)
}

/// Estimates one core's full footprint (logic + port overhead +
/// BRAM-preferred memory blocks) for floorplanning.
fn core_estimate(
    sys: &crate::config::SystemConfig,
    platform: &Platform,
    opts: &ElaborationOptions,
) -> ResourceVector {
    let mut est = sys.core_logic;
    est += port_overhead() * u64::from(sys.ports_per_core());
    if opts.buffers_in_registers {
        // Stream buffers become flip-flops: ~1 FF per bit + mux LUTs.
        let stream_bits = |bytes: usize| (bytes * 8) as u64;
        for ch in &sys.memory_channels {
            match ch {
                MemoryChannelConfig::Read(_) => {
                    est.ff += stream_bits(opts.prefetch_bytes);
                    est.lut += stream_bits(opts.prefetch_bytes) / 2;
                }
                MemoryChannelConfig::Write(_) => {
                    est.ff += stream_bits(opts.staging_bytes);
                    est.lut += stream_bits(opts.staging_bytes) / 2;
                }
                _ => {}
            }
        }
    }
    for ch in &sys.memory_channels {
        let req = match ch {
            MemoryChannelConfig::Scratchpad(sp) => MemoryRequest::new(
                &sp.name,
                u64::from(sp.data_width_bits),
                sp.n_datas as u64 * u64::from(sp.copies),
            ),
            MemoryChannelConfig::Read(_) if !opts.buffers_in_registers => MemoryRequest::new(
                "prefetch",
                u64::from(platform.mem_bus_bytes) * 8,
                (opts.prefetch_bytes / platform.mem_bus_bytes as usize) as u64,
            ),
            MemoryChannelConfig::Write(_) if !opts.buffers_in_registers => MemoryRequest::new(
                "staging",
                u64::from(platform.mem_bus_bytes) * 8,
                (opts.staging_bytes / platform.mem_bus_bytes as usize) as u64,
            ),
            MemoryChannelConfig::IntraIn(i) => {
                MemoryRequest::new(&i.name, u64::from(i.data_width_bits), i.n_datas as u64)
            }
            _ => continue,
        };
        est.bram += bplatform::blocks_for(CellKind::Bram, &req);
    }
    est
}

/// How many cores of `system` the platform's device can hold (the number
/// the Figure 6 harness labels on each Beethoven bar).
pub fn estimate_max_cores(
    system: &crate::config::SystemConfig,
    platform: &Platform,
    opts: &ElaborationOptions,
) -> usize {
    let est = core_estimate(system, platform, opts);
    Floorplanner::new().max_cores(&platform.device, est)
}

/// Elaborates with default options.
///
/// # Errors
///
/// See [`ElaborationError`].
pub fn elaborate(
    config: AcceleratorConfig,
    platform: &Platform,
) -> Result<SocSim, ElaborationError> {
    elaborate_with(config, platform, ElaborationOptions::default())
}

/// Elaborates an accelerator configuration onto a platform.
///
/// # Errors
///
/// See [`ElaborationError`].
pub fn elaborate_with(
    config: AcceleratorConfig,
    platform: &Platform,
    opts: ElaborationOptions,
) -> Result<SocSim, ElaborationError> {
    if config.systems.is_empty() {
        return Err(ElaborationError::NoSystems);
    }
    for sys in &config.systems {
        if sys.n_cores == 0 {
            return Err(ElaborationError::EmptySystem(sys.name.clone()));
        }
        let mut names = std::collections::HashSet::new();
        for ch in &sys.memory_channels {
            let name = ch.name();
            if !names.insert(name.to_owned()) {
                return Err(ElaborationError::DuplicateChannel {
                    system: sys.name.clone(),
                    channel: name.to_owned(),
                });
            }
        }
    }
    // Validate intra-core targets: the named system must exist and declare
    // a matching In port.
    for sys in &config.systems {
        for ch in &sys.memory_channels {
            let MemoryChannelConfig::IntraOut(out) = ch else {
                continue;
            };
            let bad = |reason: String| ElaborationError::BadIntraTarget {
                system: sys.name.clone(),
                port: out.name.clone(),
                reason,
            };
            let target = config
                .systems
                .iter()
                .find(|s| s.name == out.to_system)
                .ok_or_else(|| bad(format!("no system named '{}'", out.to_system)))?;
            let found = target.memory_channels.iter().any(
                |c| matches!(c, MemoryChannelConfig::IntraIn(i) if i.name == out.to_memory_port),
            );
            if !found {
                return Err(bad(format!(
                    "system '{}' has no In port named '{}'",
                    out.to_system, out.to_memory_port
                )));
            }
        }
    }

    platform.dram.validate().map_err(ElaborationError::Dram)?;
    if platform.mem_bus_bytes as usize > baxi::MAX_BEAT_BYTES {
        return Err(ElaborationError::BusTooWide {
            bus_bytes: platform.mem_bus_bytes,
        });
    }
    let burst_bytes = u64::from(opts.burst_beats) * u64::from(platform.mem_bus_bytes);
    for (buffer, bytes) in [
        ("prefetch_bytes", opts.prefetch_bytes),
        ("staging_bytes", opts.staging_bytes),
    ] {
        if (bytes as u64) < burst_bytes {
            return Err(ElaborationError::BufferBelowBurst {
                buffer,
                bytes,
                burst_bytes,
            });
        }
    }

    let device = &platform.device;
    let fabric = ClockDomain::from_mhz(platform.fabric_mhz);

    // ---- 1. Footprint estimation & floorplanning -----------------------
    // Estimate each core's resources (logic + BRAM-preferred memory blocks)
    // to drive placement; the definitive cell mapping happens per-SLR after
    // placement so the 80% spill rule can act.
    let mut flat_cores: Vec<(usize, u16)> = Vec::new(); // (system idx, core idx)
    let mut estimates: Vec<ResourceVector> = Vec::new();
    for (sys_idx, sys) in config.systems.iter().enumerate() {
        let est = core_estimate(sys, platform, &opts);
        for core in 0..sys.n_cores {
            flat_cores.push((sys_idx, core as u16));
            estimates.push(est);
        }
    }
    let planner = Floorplanner::new();
    let floorplan = planner.place_heterogeneous(device, &estimates)?;

    // ---- 2. NoC construction -------------------------------------------
    let endpoints: Vec<Endpoint> = floorplan
        .assignments
        .iter()
        .enumerate()
        .map(|(id, slr)| Endpoint { id, slr: *slr })
        .collect();
    let mut noc_params = opts.noc;
    noc_params.crossing_latency = device.crossing_latency_cycles.max(1);
    let noc_builder = NetworkBuilder::new(noc_params);
    let host_slr = device.host_slr();
    let mem_slr = bplatform::SlrId(
        device
            .slrs
            .iter()
            .position(|s| s.has_memory_interface)
            .unwrap_or(0),
    );
    let cmd_net = noc_builder.build_slr_aware(device, host_slr, &endpoints);
    let mem_net = noc_builder.build_slr_aware(device, mem_slr, &endpoints);

    // ---- 3. Memory cell mapping (per placed core) ------------------------
    let mut mapper = MemoryCellMapper::new(device);
    // per flat core: (bram, uram, lutram-luts) and per-channel notes
    let mut core_mem: Vec<ResourceVector> = Vec::new();
    let mut core_notes: Vec<String> = Vec::new();
    for (flat, &(sys_idx, _)) in flat_cores.iter().enumerate() {
        let sys = &config.systems[sys_idx];
        let slr = floorplan.assignments[flat];
        let mut mem = ResourceVector::ZERO;
        let mut notes = Vec::new();
        for ch in &sys.memory_channels {
            let (label, req) = match ch {
                MemoryChannelConfig::Scratchpad(sp) => (
                    sp.name.clone(),
                    MemoryRequest::new(
                        &sp.name,
                        u64::from(sp.data_width_bits),
                        sp.n_datas as u64 * u64::from(sp.copies),
                    ),
                ),
                MemoryChannelConfig::Read(r) => {
                    if opts.buffers_in_registers {
                        mem.ff += (opts.prefetch_bytes * 8) as u64;
                        mem.lut += (opts.prefetch_bytes * 4) as u64;
                        notes.push(format!("{}-prefetch:REGS", r.name));
                        continue;
                    }
                    (
                        format!("{}-prefetch", r.name),
                        MemoryRequest::new(
                            &r.name,
                            u64::from(platform.mem_bus_bytes) * 8,
                            (opts.prefetch_bytes / platform.mem_bus_bytes as usize) as u64,
                        ),
                    )
                }
                MemoryChannelConfig::Write(w) => {
                    if opts.buffers_in_registers {
                        mem.ff += (opts.staging_bytes * 8) as u64;
                        mem.lut += (opts.staging_bytes * 4) as u64;
                        notes.push(format!("{}-staging:REGS", w.name));
                        continue;
                    }
                    (
                        format!("{}-staging", w.name),
                        MemoryRequest::new(
                            &w.name,
                            u64::from(platform.mem_bus_bytes) * 8,
                            (opts.staging_bytes / platform.mem_bus_bytes as usize) as u64,
                        ),
                    )
                }
                MemoryChannelConfig::IntraIn(i) => (
                    i.name.clone(),
                    MemoryRequest::new(&i.name, u64::from(i.data_width_bits), i.n_datas as u64),
                ),
                MemoryChannelConfig::IntraOut(_) => continue,
            };
            let mapped = mapper
                .map(slr, &req)
                .map_err(|e| ElaborationError::MemoryMap(e.to_string()))?;
            match mapped.kind {
                CellKind::Bram => mem.bram += mapped.blocks,
                CellKind::Uram => mem.uram += mapped.blocks,
                CellKind::Lutram => mem.lut += mapped.luts,
            }
            notes.push(format!(
                "{label}:{} x{}",
                mapped.kind,
                mapped.blocks.max(mapped.luts)
            ));
        }
        core_mem.push(mem);
        core_notes.push(notes.join(" "));
    }

    // ---- 4. Simulation assembly ------------------------------------------
    let mut sim = Simulation::new();
    let perf = PerfRegistry::new();
    if opts.profile {
        perf.set_enabled(true);
    }
    let tracer = Tracer::default();
    tracer.set_enabled(opts.trace);
    let memory = baxi::SharedMemory::new(SparseMemory::new());
    let axi_params = AxiParams {
        data_bytes: platform.mem_bus_bytes,
        id_bits: platform.mem_id_bits,
        addr_bits: platform.addr_bits,
        max_burst_beats: 64,
    };
    // One interconnect + controller per platform memory port; each core's
    // ports all attach to the port chosen by `flat_index % mem_ports`
    // (address-interleaved DDR channels on the real card).
    let mem_ports = platform.mem_ports.max(1) as usize;
    let mut slave_ports: Vec<Vec<AxiSlavePort>> = (0..mem_ports).map(|_| Vec::new()).collect();
    let mut links: Vec<Vec<CoreLink>> = (0..config.systems.len()).map(|_| Vec::new()).collect();

    // ---- Core-to-core links (appendix IntraCoreMemoryPort wiring) -------
    // flat index lookup for (system, core).
    let mut flat_of: std::collections::HashMap<(usize, u16), usize> =
        std::collections::HashMap::new();
    for (flat, &(sys_idx, core_idx)) in flat_cores.iter().enumerate() {
        flat_of.insert((sys_idx, core_idx), flat);
    }
    let link_latency = |a: usize, b: usize| -> u64 {
        let hops = device.crossing_hops(floorplan.assignments[a], floorplan.assignments[b]);
        1 + hops * device.crossing_latency_cycles.max(1)
    };
    // (sys, core, out-port name) -> downstream senders; (sys, core) -> sinks.
    type OutLinks = std::collections::HashMap<(usize, u16, String), Vec<bsim::Sender<RemoteWrite>>>;
    type InSinks =
        std::collections::HashMap<(usize, u16), Vec<(String, bsim::Receiver<RemoteWrite>)>>;
    let mut out_links: OutLinks = std::collections::HashMap::new();
    let mut in_sinks: InSinks = std::collections::HashMap::new();
    let mut out_widths: std::collections::HashMap<(usize, String), u32> =
        std::collections::HashMap::new();
    for (o_idx, o_sys) in config.systems.iter().enumerate() {
        for ch in &o_sys.memory_channels {
            let MemoryChannelConfig::IntraOut(out) = ch else {
                continue;
            };
            let (t_idx, t_sys) = config
                .systems
                .iter()
                .enumerate()
                .find(|(_, s)| s.name == out.to_system)
                .expect("validated above");
            let in_cfg = t_sys
                .memory_channels
                .iter()
                .find_map(|c| match c {
                    MemoryChannelConfig::IntraIn(i) if i.name == out.to_memory_port => Some(i),
                    _ => None,
                })
                .expect("validated above");
            out_widths.insert((o_idx, out.name.clone()), in_cfg.data_width_bits);
            for core in 0..o_sys.n_cores as u16 {
                let src_flat = flat_of[&(o_idx, core)];
                let targets: Vec<u16> = match in_cfg.comm_deg {
                    CommunicationDegree::PointToPoint => {
                        vec![core % t_sys.n_cores as u16]
                    }
                    CommunicationDegree::Broadcast => (0..t_sys.n_cores as u16).collect(),
                };
                let mut senders = Vec::new();
                for t_core in targets {
                    let dst_flat = flat_of[&(t_idx, t_core)];
                    let latency = link_latency(src_flat, dst_flat);
                    let (tx, rx) = sim.channel_with_latency(16.max(latency as usize), latency);
                    senders.push(tx);
                    in_sinks
                        .entry((t_idx, t_core))
                        .or_default()
                        .push((in_cfg.name.clone(), rx));
                }
                out_links.insert((o_idx, core, out.name.clone()), senders);
            }
        }
    }

    let port_ids: Vec<u32> = (0..opts.ids_per_port).collect();
    for (flat, &(sys_idx, core_idx)) in flat_cores.iter().enumerate() {
        let mem_port = flat % mem_ports;
        let sys = &config.systems[sys_idx];
        let mem_latency = mem_net.latency_to_root(flat);
        let cmd_latency = cmd_net.latency_to_root(flat).max(1);

        let mut readers: BTreeMap<String, Vec<Reader>> = BTreeMap::new();
        let mut writers: BTreeMap<String, Vec<Writer>> = BTreeMap::new();
        let mut scratchpads: BTreeMap<String, Scratchpad> = BTreeMap::new();
        let depths = PortDepths {
            ar: 8,
            r: 2 * opts.burst_beats as usize + 8,
            aw: 8,
            w: 2 * opts.burst_beats as usize + 8,
            b: 8,
        };
        // Perf registration paths: one set per streaming channel under the
        // owning core, e.g. `cores/MySystem0/vec_in0`.
        let core_label = format!("cores/{}{}", sys.name, core_idx);
        for ch in &sys.memory_channels {
            match ch {
                MemoryChannelConfig::Read(r) => {
                    let mut channels = Vec::new();
                    for i in 0..r.n_channels {
                        let (master, slave) = axi_link_with_latency(&mut sim, depths, mem_latency);
                        slave_ports[mem_port].push(slave);
                        let mut reader = Reader::new(
                            ReaderConfig {
                                name: r.name.clone(),
                                data_bytes: r.data_bytes,
                                bus_bytes: platform.mem_bus_bytes,
                                burst_beats: opts.burst_beats,
                                max_inflight: opts.reader_inflight,
                                ids: port_ids.clone(),
                                prefetch_bytes: opts.prefetch_bytes,
                            },
                            master,
                        );
                        reader.attach_perf(&perf.set(&format!("{core_label}/{}{i}", r.name)));
                        channels.push(reader);
                    }
                    readers.insert(r.name.clone(), channels);
                }
                MemoryChannelConfig::Write(w) => {
                    let mut channels = Vec::new();
                    for i in 0..w.n_channels {
                        let (master, slave) = axi_link_with_latency(&mut sim, depths, mem_latency);
                        slave_ports[mem_port].push(slave);
                        let mut writer = Writer::new(
                            WriterConfig {
                                name: w.name.clone(),
                                data_bytes: w.data_bytes,
                                bus_bytes: platform.mem_bus_bytes,
                                burst_beats: opts.burst_beats,
                                max_inflight: opts.writer_inflight,
                                ids: port_ids.clone(),
                                staging_bytes: opts.staging_bytes,
                            },
                            master,
                        );
                        writer.attach_perf(&perf.set(&format!("{core_label}/{}{i}", w.name)));
                        channels.push(writer);
                    }
                    writers.insert(w.name.clone(), channels);
                }
                MemoryChannelConfig::Scratchpad(sp) => {
                    let mut pad =
                        Scratchpad::new(&sp.name, sp.data_width_bits, sp.n_datas, sp.latency);
                    pad.attach_perf(&perf.set(&format!("{core_label}/{}", sp.name)));
                    scratchpads.insert(sp.name.clone(), pad);
                }
                MemoryChannelConfig::IntraIn(i) => {
                    let mut pad = Scratchpad::new(&i.name, i.data_width_bits, i.n_datas, i.latency);
                    pad.attach_perf(&perf.set(&format!("{core_label}/{}", i.name)));
                    scratchpads.insert(i.name.clone(), pad);
                }
                MemoryChannelConfig::IntraOut(_) => {}
            }
        }

        let (cmd_tx, cmd_rx) =
            sim.channel_with_latency(opts.cmd_queue_depth.max(cmd_latency as usize), cmd_latency);
        let (resp_tx, resp_rx) = sim.channel_with_latency(8.max(cmd_latency as usize), cmd_latency);
        let core_stats = Stats::new();
        perf.set(&core_label).attach_stats(&core_stats);
        let mut intra_outs = BTreeMap::new();
        for ch in &sys.memory_channels {
            if let MemoryChannelConfig::IntraOut(out) = ch {
                let senders = out_links
                    .remove(&(sys_idx, core_idx, out.name.clone()))
                    .expect("links created in the pre-pass");
                let width = out_widths[&(sys_idx, out.name.clone())];
                intra_outs.insert(
                    out.name.clone(),
                    RemoteWritePort::new(out.name.clone(), senders, width),
                );
            }
        }
        let prims = Primitives {
            readers,
            writers,
            scratchpads,
            intra_outs,
            intra_sinks: in_sinks.remove(&(sys_idx, core_idx)).unwrap_or_default(),
        };
        let (ctx, ports) =
            CoreContext::new(sys_idx as u16, core_idx, prims, cmd_rx, resp_tx, core_stats);
        // Elaboration-time binding: the core resolves its port handles
        // here, so an undeclared name fails before any cycle runs.
        let core = (sys.factory)(&ports);
        sim.add(CoreHarness { core, ctx });
        links[sys_idx].push(CoreLink { cmd_tx, resp_rx });
    }

    // Interconnects and memory controllers, one pair per memory port.
    // The exported stats bag is memory port 0's (the port every design
    // uses; single-core designs use only it).
    let mut interconnect_stats = Stats::new();
    let mut controllers = Vec::with_capacity(mem_ports);
    for (port, port_slaves) in slave_ports.into_iter().enumerate() {
        let (down_master, down_slave) = axi_link(
            &mut sim,
            PortDepths {
                ar: 16,
                r: 256,
                aw: 16,
                w: 256,
                b: 16,
            },
        );
        if port_slaves.is_empty() {
            // No core uses this port (fewer cores than ports): still
            // instantiate the controller so port indexing stays stable,
            // with a dummy master that stays silent.
            let _ = down_master;
        } else {
            let interconnect = crate::interconnect::AxiInterconnect::new(
                port_slaves,
                down_master,
                1 << platform.mem_id_bits,
            );
            if port == 0 {
                interconnect_stats = interconnect.stats();
                perf.set("interconnect").attach_stats(&interconnect_stats);
            }
            sim.add(interconnect);
        }
        let mut controller = AxiMemoryController::new(
            ControllerConfig {
                axi: axi_params,
                fabric,
                same_id_inflight: opts.same_id_inflight,
                max_outstanding_reads: 64,
                max_outstanding_writes: 64,
                dram_issue_per_cycle: 4,
            },
            DramSystem::new(platform.dram.clone()),
            down_slave,
            memory.clone(),
        );
        controller.attach_perf(&perf.set(&format!("mem{port}")));
        controller.set_tracer(match port {
            0 => tracer.clone(),
            p => tracer.prefixed(format!("mem{p}/")),
        });
        let shared = sim.add_shared(controller);
        // DRAM channel stats live in plain structs inside the controller.
        // They used to reach the registry through a pull-model provider
        // closure holding the shared handle; with arena handles a closure
        // cannot resolve the controller without the simulation, so the SoC
        // mirrors them into the registry before every read instead
        // (`SocSim::sync_scheduler_counters`). Touch the set here so the
        // registry path exists from cycle 0 either way.
        let _ = perf.set(&format!("mem{port}/dram"));
        controllers.push(shared);
    }

    // ---- 5. Report --------------------------------------------------------
    let mut rows = Vec::new();
    let mut total = ResourceVector::ZERO;
    let cmd_summary = NocSummary {
        buffers: cmd_net.buffer_count(),
        crossings: cmd_net.crossing_count(),
        worst_latency: cmd_net.worst_latency(),
        cost: cmd_net.cost(),
    };
    let mem_summary = NocSummary {
        buffers: mem_net.buffer_count(),
        crossings: mem_net.crossing_count(),
        worst_latency: mem_net.worst_latency(),
        cost: mem_net.cost(),
    };
    let interconnect_cost =
        cmd_summary.cost + mem_summary.cost + ResourceVector::new(500, 4_000, 3_000, 0, 0, 0); // MMIO frontend
    rows.push(ReportRow {
        name: "Interconnect".to_owned(),
        indent: 1,
        resources: interconnect_cost,
        note: String::new(),
    });
    total += interconnect_cost;
    for (sys_idx, sys) in config.systems.iter().enumerate() {
        let mut sys_total = ResourceVector::ZERO;
        let mut core_rows = Vec::new();
        for (flat, &(s, c)) in flat_cores.iter().enumerate() {
            if s != sys_idx {
                continue;
            }
            let logic = sys.core_logic + port_overhead() * u64::from(sys.ports_per_core());
            let core_total = logic + core_mem[flat];
            sys_total += core_total;
            core_rows.push(ReportRow {
                name: format!("Core {c} ({})", floorplan.assignments[flat]),
                indent: 2,
                resources: core_total,
                note: core_notes[flat].clone(),
            });
        }
        rows.push(ReportRow {
            name: format!("System '{}' ({} cores)", sys.name, sys.n_cores),
            indent: 1,
            resources: sys_total,
            note: String::new(),
        });
        rows.extend(core_rows);
        total += sys_total;
    }
    let shell = device
        .slrs
        .iter()
        .fold(ResourceVector::ZERO, |acc, s| acc + s.shell);
    let bindings = generate_bindings(
        &config
            .systems
            .iter()
            .map(|s| (s.name.clone(), s.command.clone(), s.response.clone()))
            .collect::<Vec<_>>(),
    );
    let netlist = crate::netlist::emit_netlist(
        &config,
        platform,
        &floorplan.assignments,
        &cmd_summary,
        &mem_summary,
        mem_ports,
    );
    let report = SocReport {
        platform: platform.name.clone(),
        device: device.name.clone(),
        fabric_mhz: platform.fabric_mhz,
        rows,
        total,
        shell,
        slr_utilization: floorplan.utilization(device),
        cores_per_slr: floorplan.cores_per_slr(device.num_slrs()),
        floorplan_ascii: floorplan.ascii_art(device),
        constraints: floorplan.emit_constraints(device, "beethoven_core"),
        cmd_noc: cmd_summary,
        mem_noc: mem_summary,
        bindings,
        netlist,
    };

    let specs = config.systems.iter().map(|s| s.command.clone()).collect();
    let system_names = config.systems.iter().map(|s| s.name.clone()).collect();
    Ok(SocSim::new(
        sim,
        memory,
        platform.clone(),
        links,
        specs,
        system_names,
        controllers,
        interconnect_stats,
        report,
        perf,
        tracer,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{AccelCommandSpec, CommandArgs, FieldType};
    use crate::config::{ReadChannelConfig, SystemConfig, WriteChannelConfig};
    use crate::core::{AcceleratorCore, PortTable, ReaderId, WriterId};

    /// The paper's Figure 2 vector-add core, as a cycle state machine.
    struct VecAddCore {
        vec_in: ReaderId,
        vec_out: WriterId,
        addend: u32,
        remaining: u32,
        active: bool,
    }

    impl VecAddCore {
        fn new(ports: &PortTable) -> Self {
            Self {
                vec_in: ports.reader("vec_in"),
                vec_out: ports.writer("vec_out"),
                addend: 0,
                remaining: 0,
                active: false,
            }
        }
    }

    impl AcceleratorCore for VecAddCore {
        fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
            if !self.active {
                if let Some(cmd) = ctx.take_command(sim) {
                    self.addend = cmd.arg("addend") as u32;
                    let n = cmd.arg("n_eles") as u32;
                    let addr = cmd.arg("vec_addr");
                    self.remaining = n;
                    self.active = true;
                    let bytes = u64::from(n) * 4;
                    ctx.reader(self.vec_in)
                        .request(addr, bytes)
                        .expect("reader idle");
                    ctx.writer(self.vec_out)
                        .request(addr, bytes)
                        .expect("writer idle");
                }
                return;
            }
            // For each 32b chunk, add addend and write back.
            while self.remaining > 0 {
                let can_write = ctx.writer(self.vec_out).can_push();
                if !can_write {
                    break;
                }
                let Some(v) = ctx.reader(self.vec_in).pop_u32() else {
                    break;
                };
                let out = v.wrapping_add(self.addend);
                ctx.writer(self.vec_out).push_u32(out);
                self.remaining -= 1;
            }
            if self.remaining == 0 && ctx.writer(self.vec_out).done() && ctx.respond(sim, 0) {
                self.active = false;
            }
        }
    }

    /// A core that keeps no handles: configurations with no ports use it.
    struct NullCore;

    impl AcceleratorCore for NullCore {
        fn tick(&mut self, _sim: &bsim::SimCtx, _ctx: &mut CoreContext) {}
    }

    fn vecadd_config(n_cores: u32) -> AcceleratorConfig {
        let spec = AccelCommandSpec::new(
            "my_accel",
            vec![
                ("addend".to_owned(), FieldType::U(32)),
                ("vec_addr".to_owned(), FieldType::Address),
                ("n_eles".to_owned(), FieldType::U(20)),
            ],
        );
        AcceleratorConfig::new().with_system(
            SystemConfig::new("MyAcceleratorSystem", n_cores, spec, |ports| {
                Box::new(VecAddCore::new(ports))
            })
            .with_read(ReadChannelConfig::new("vec_in", 4))
            .with_write(WriteChannelConfig::new("vec_out", 4)),
        )
    }

    fn args(addend: u64, addr: u64, n: u64) -> CommandArgs {
        [
            ("addend".to_owned(), addend),
            ("vec_addr".to_owned(), addr),
            ("n_eles".to_owned(), n),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn vector_add_end_to_end() {
        let mut soc = elaborate(vecadd_config(1), &Platform::sim()).unwrap();
        let input: Vec<u32> = (0..1024u32).collect();
        soc.memory().borrow_mut().write_u32_slice(0x1_0000, &input);
        let token = soc
            .send_command(0, 0, &args(0xCAFE, 0x1_0000, 1024))
            .unwrap();
        soc.run_until_response(token, 200_000)
            .expect("vecadd finishes");
        let out = soc.memory().borrow().read_u32_slice(0x1_0000, 1024);
        let expect: Vec<u32> = input.iter().map(|v| v + 0xCAFE).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn multicore_commands_run_concurrently() {
        let mut soc = elaborate(vecadd_config(4), &Platform::sim()).unwrap();
        let n = 2048u64;
        let mut tokens = Vec::new();
        for core in 0..4u16 {
            let base = 0x10_0000 + u64::from(core) * 0x1_0000;
            let input: Vec<u32> = (0..n as u32).map(|v| v * (u32::from(core) + 1)).collect();
            soc.memory().borrow_mut().write_u32_slice(base, &input);
            tokens.push((
                core,
                base,
                soc.send_command(0, core, &args(7, base, n)).unwrap(),
            ));
        }
        // Run until all four respond.
        for (_, _, token) in &tokens {
            soc.run_until_response(*token, 500_000)
                .expect("core finishes");
        }
        for (core, base, _) in tokens {
            let out = soc.memory().borrow().read_u32_slice(base, n as usize);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, (i as u32) * (u32::from(core) + 1) + 7);
            }
        }
    }

    #[test]
    fn waiting_on_one_core_keeps_the_others_responses() {
        // Core 0's short job finishes while the host waits on core 1's
        // long one: the wait's drain must record core 0's response, so a
        // later poll returns it without running the fabric.
        let mut soc = elaborate(vecadd_config(2), &Platform::sim()).unwrap();
        soc.memory()
            .borrow_mut()
            .write_u32_slice(0x10_0000, &vec![1; 4096]);
        let short = soc.send_command(0, 0, &args(1, 0x10_0000, 64)).unwrap();
        let long = soc.send_command(0, 1, &args(1, 0x20_0000, 4096)).unwrap();
        soc.run_until_response(long, 2_000_000)
            .expect("core 1 finishes");
        assert!(!soc.has_outstanding(), "core 0 finished first");
        let now = soc.now();
        assert_eq!(soc.poll(short), Some(0));
        assert_eq!(soc.now(), now, "poll advanced the clock");
        assert_eq!(soc.poll(short), None, "a completion is consumed once");
    }

    #[test]
    fn multicore_is_faster_than_sequential_on_same_work() {
        // 4 cores, 4 commands spread across them vs 4 commands on 1 core.
        let run = |n_cores: u32, spread: bool| -> u64 {
            let mut soc = elaborate(vecadd_config(n_cores), &Platform::sim()).unwrap();
            let n = 4096u64;
            for i in 0..4u64 {
                let base = 0x10_0000 + i * 0x2_0000;
                let input: Vec<u32> = (0..n as u32).collect();
                soc.memory().borrow_mut().write_u32_slice(base, &input);
            }
            let mut tokens = Vec::new();
            for i in 0..4u64 {
                let base = 0x10_0000 + i * 0x2_0000;
                let core = if spread { i as u16 % n_cores as u16 } else { 0 };
                loop {
                    match soc.send_command(0, core, &args(1, base, n)) {
                        Ok(t) => {
                            tokens.push(t);
                            break;
                        }
                        Err(crate::soc::SendError::QueueFull) => soc.step(),
                        Err(e) => panic!("{e}"),
                    }
                }
            }
            for t in tokens {
                soc.run_until_response(t, 2_000_000).expect("finishes");
            }
            soc.now()
        };
        let sequential = run(1, false);
        let parallel = run(4, true);
        assert!(
            parallel * 2 < sequential * 2 && parallel < sequential,
            "4-core spread ({parallel}) should beat single core ({sequential})"
        );
    }

    #[test]
    fn elaboration_validates_config() {
        assert!(matches!(
            elaborate(AcceleratorConfig::new(), &Platform::sim()),
            Err(ElaborationError::NoSystems)
        ));
        let spec = AccelCommandSpec::new("x", vec![]);
        let cfg = AcceleratorConfig::new()
            .with_system(SystemConfig::new("empty", 0, spec, |_| Box::new(NullCore)));
        assert!(matches!(
            elaborate(cfg, &Platform::sim()),
            Err(ElaborationError::EmptySystem(_))
        ));
    }

    #[test]
    fn duplicate_channel_names_rejected() {
        let spec = AccelCommandSpec::new("x", vec![]);
        let cfg = AcceleratorConfig::new().with_system(
            SystemConfig::new("dup", 1, spec, |_| Box::new(NullCore))
                .with_read(ReadChannelConfig::new("a", 4))
                .with_write(WriteChannelConfig::new("a", 4)),
        );
        assert!(matches!(
            elaborate(cfg, &Platform::sim()),
            Err(ElaborationError::DuplicateChannel { .. })
        ));
    }

    #[test]
    fn datapath_sizes_are_validated() {
        let mut wide = Platform::sim();
        wide.mem_bus_bytes = 128;
        assert!(matches!(
            elaborate(vecadd_config(1), &wide),
            Err(ElaborationError::BusTooWide { bus_bytes: 128 })
        ));
        // Exactly one burst is enough; one byte less is not.
        let opts = ElaborationOptions {
            prefetch_bytes: 16 * 64,
            staging_bytes: 16 * 64,
            ..Default::default()
        }
        .with_burst_beats(16);
        assert!(elaborate_with(vecadd_config(1), &Platform::sim(), opts.clone()).is_ok());
        let short = ElaborationOptions {
            staging_bytes: 16 * 64 - 1,
            ..opts
        };
        assert!(matches!(
            elaborate_with(vecadd_config(1), &Platform::sim(), short),
            Err(ElaborationError::BufferBelowBurst {
                buffer: "staging_bytes",
                burst_bytes: 1024,
                ..
            })
        ));
    }

    #[test]
    fn report_covers_cores_and_totals() {
        let soc = elaborate(vecadd_config(6), &Platform::sim()).unwrap();
        let report = soc.report();
        assert_eq!(report.cores_per_slr.iter().sum::<usize>(), 6);
        assert!(report.total.lut > 0);
        let table = report.render_table();
        assert!(table.contains("System 'MyAcceleratorSystem' (6 cores)"));
        assert!(report.constraints.contains("beethoven_core_5"));
        assert!(report.bindings.cpp_header.contains("MyAcceleratorSystem"));
    }

    #[test]
    fn too_many_cores_fail_placement() {
        let spec = AccelCommandSpec::new("x", vec![]);
        let cfg = AcceleratorConfig::new().with_system(
            SystemConfig::new("huge", 2000, spec, |_| Box::new(NullCore))
                .with_core_logic(ResourceVector::new(4_000, 30_000, 30_000, 40, 0, 0)),
        );
        assert!(matches!(
            elaborate(cfg, &Platform::sim()),
            Err(ElaborationError::Placement(_))
        ));
    }

    #[test]
    fn register_buffers_trade_bram_for_ff() {
        let sram = elaborate(vecadd_config(1), &Platform::aws_f1()).unwrap();
        let regs = elaborate_with(
            vecadd_config(1),
            &Platform::aws_f1(),
            ElaborationOptions {
                buffers_in_registers: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(regs.report().total.bram < sram.report().total.bram);
        assert!(regs.report().total.ff > sram.report().total.ff);
        assert!(regs.report().render_table().contains("REGS"));
    }

    #[test]
    fn perf_window_reads_a_live_counter_mid_run() {
        use crate::mmio::MmioRegister;
        let mut soc = elaborate_with(
            vecadd_config(1),
            &Platform::sim(),
            ElaborationOptions {
                profile: true,
                ..Default::default()
            },
        )
        .unwrap();
        let n = 100_000u64;
        let input: Vec<u32> = (0..n as u32).collect();
        soc.memory().borrow_mut().write_u32_slice(0x1_0000, &input);
        let token = soc.send_command(0, 0, &args(1, 0x1_0000, n)).unwrap();
        soc.run_for(5_000);
        assert!(soc.has_outstanding(), "must still be mid-run at cycle 5000");

        let names = soc.perf().counter_names();
        assert_eq!(soc.mmio_read(MmioRegister::PerfCount) as usize, names.len());
        let idx = names
            .iter()
            .position(|name| name == "mem0/r_beats")
            .expect("controller counters registered");
        soc.mmio_write(MmioRegister::PerfSelect, idx as u32);
        let lo = u64::from(soc.mmio_read(MmioRegister::PerfDataLo));
        let hi = u64::from(soc.mmio_read(MmioRegister::PerfDataHi));
        let windowed = (hi << 32) | lo;
        assert!(windowed > 0, "read beats must be visible mid-run");
        assert_eq!(soc.perf().counter("mem0/r_beats"), Some(windowed));

        soc.run_until_response(token, 5_000_000).expect("finishes");
        let report = soc.perf_report();
        assert!(report.contains("[mem0]"), "report: {report}");
        assert!(report.contains("[scheduler]"), "report: {report}");
        assert!(report.contains("[mmio]"), "report: {report}");
        let latency = soc
            .perf()
            .histograms()
            .into_iter()
            .find(|(name, _)| name == "mmio/cmd_latency_cycles")
            .expect("dispatch latency histogram recorded")
            .1;
        assert_eq!(latency.count(), 1);
        assert!(latency.min().unwrap() > 0);
    }

    #[test]
    fn chrome_trace_from_soc_is_valid_json() {
        let mut soc = elaborate_with(
            vecadd_config(1),
            &Platform::sim(),
            ElaborationOptions {
                profile: true,
                trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        let input: Vec<u32> = (0..4096u32).collect();
        soc.memory().borrow_mut().write_u32_slice(0x1_0000, &input);
        let token = soc.send_command(0, 0, &args(3, 0x1_0000, 4096)).unwrap();
        soc.sample_perf();
        soc.run_for(2_000);
        soc.sample_perf();
        soc.run_until_response(token, 2_000_000).expect("finishes");
        soc.sample_perf();
        let json = soc.chrome_trace();
        bsim::perf::validate_json(&json).expect("trace must be valid JSON");
        assert!(json.contains("\"ph\":\"X\""), "slices from the tracer");
        assert!(json.contains("\"ph\":\"C\""), "counter tracks from samples");
    }

    #[test]
    fn every_memory_port_records_into_the_soc_trace() {
        // On F1 core `i` sits on memory port `i % 4`, so core 1 drives
        // port 1's controller.
        let mut soc = elaborate_with(
            vecadd_config(2),
            &Platform::aws_f1(),
            ElaborationOptions {
                trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        let input: Vec<u32> = (0..1024u32).collect();
        let mut tokens = Vec::new();
        for (core, base) in [(0u16, 0x1_0000u64), (1, 0x10_0000)] {
            soc.memory().borrow_mut().write_u32_slice(base, &input);
            tokens.push(soc.send_command(0, core, &args(1, base, 1024)).unwrap());
        }
        for token in tokens {
            soc.run_until_response(token, 2_000_000).expect("finishes");
        }
        let events = soc.tracer().events();
        let on = |track: &str| events.iter().filter(|e| e.track == track).count();
        assert!(on("AR") > 0, "port 0 keeps its track names");
        assert_eq!(on("mem1/AR"), on("AR"), "port 1 mirrors port 0's reads");
        assert!(on("mem1/B") > 0);
        let json = soc.chrome_trace();
        bsim::perf::validate_json(&json).expect("trace must be valid JSON");
        assert!(
            json.contains("\"args\":{\"name\":\"mem1/AR\"}"),
            "port 1 track"
        );
        assert!(
            json.contains("\"args\":{\"name\":\"mem1/R\"}"),
            "port 1 track"
        );
    }

    #[test]
    fn disabled_profiling_leaves_gated_counters_at_zero() {
        let mut soc = elaborate(vecadd_config(1), &Platform::sim()).unwrap();
        let input: Vec<u32> = (0..4096u32).collect();
        soc.memory().borrow_mut().write_u32_slice(0x1_0000, &input);
        let token = soc.send_command(0, 0, &args(0, 0x1_0000, 4096)).unwrap();
        soc.run_until_response(token, 2_000_000).expect("finishes");
        // Ungated stats still flow (they are component-owned)...
        assert!(soc.perf().counter("mem0/r_beats").unwrap_or(0) > 0);
        // ...but every gated stall counter stayed at zero.
        for (name, value) in soc.perf().counters() {
            if name.contains("stall_") && !name.contains("refresh") {
                assert_eq!(value, 0, "{name} must not count while disabled");
            }
        }
    }

    #[test]
    fn bad_command_arguments_surface_as_send_errors() {
        let mut soc = elaborate(vecadd_config(1), &Platform::sim()).unwrap();
        let bad: CommandArgs = [("addend".to_owned(), 1u64)].into_iter().collect();
        assert!(matches!(
            soc.send_command(0, 0, &bad),
            Err(crate::soc::SendError::Pack(_))
        ));
        assert!(matches!(
            soc.send_command(5, 0, &args(0, 0, 0)),
            Err(crate::soc::SendError::NoSuchSystem(5))
        ));
        assert!(matches!(
            soc.send_command(0, 9, &args(0, 0, 0)),
            Err(crate::soc::SendError::NoSuchCore { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "no scratchpad named 'missing'")]
    fn factory_asking_for_an_undeclared_scratchpad_fails_elaboration() {
        let spec = AccelCommandSpec::new("x", vec![]);
        let cfg = AcceleratorConfig::new().with_system(
            SystemConfig::new("Unbound", 1, spec, |ports| {
                let _ = ports.scratchpad("missing");
                Box::new(NullCore)
            })
            .with_read(ReadChannelConfig::new("in", 4)),
        );
        let _ = elaborate(cfg, &Platform::sim());
    }

    #[test]
    #[should_panic(expected = "no read channel named 'vec_out'")]
    fn factory_asking_for_an_undeclared_reader_fails_elaboration() {
        let spec = AccelCommandSpec::new("x", vec![]);
        let cfg = AcceleratorConfig::new().with_system(
            SystemConfig::new("Unbound", 1, spec, |ports| {
                // `vec_out` exists, but as a write stream.
                let _ = ports.reader("vec_out");
                Box::new(NullCore)
            })
            .with_write(WriteChannelConfig::new("vec_out", 4)),
        );
        let _ = elaborate(cfg, &Platform::sim());
    }
}
