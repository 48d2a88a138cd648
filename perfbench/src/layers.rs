//! Per-layer metrics: the fixed list a traced run reports, and the
//! hardware-counter roll-up most of them are computed from.
//!
//! Every workload reports every metric. A layer a workload bypasses
//! reads 0 there, which is the prediction for that workload.

use std::collections::BTreeMap;

use bcore::SocSim;
use bruntime::FpgaHandle;

use crate::stats::ratio;

/// `(name, unit)` of every per-layer metric, in output order.
pub const METRICS: &[(&str, &str)] = &[
    ("bnet.self_share", "share"),
    ("bnet.connect.share", "share"),
    ("bnet.submit.share", "share"),
    ("bnet.poll.share", "share"),
    ("bnet.wire_share", "share"),
    ("bnet.bytes_per_cmd", "B/cmd"),
    ("bnet.frames_per_cmd", "frame/cmd"),
    ("bnet.shed_ratio", "ratio"),
    ("bserver.self_share", "share"),
    ("bserver.latency_p99_cycles", "cycle"),
    ("bserver.queue_wait_p99_cycles", "cycle"),
    ("bserver.lock_wait_share", "share"),
    ("bserver.coalesced_wakes_per_dispatch", "ratio"),
    ("bserver.reject_ratio", "ratio"),
    ("bserver.ideal_gap", "share"),
    ("bruntime.server_busy_share", "share"),
    ("bruntime.dma_bytes_per_cmd", "B/cmd"),
    ("bcore.self_share", "share"),
    ("bcore.elaborate_ms", "ms"),
    ("bcore.mmio_words_per_cmd", "word/cmd"),
    ("bcore.reader_stall_share", "share"),
    ("bcore.writer_stall_share", "share"),
    ("bsim.ns_per_cycle", "ns"),
    ("bsim.ns_per_component_tick", "ns"),
    ("bsim.ticked_share", "share"),
    ("bsim.skipped_share", "share"),
    ("bdram.row_hit_ratio", "ratio"),
    ("bdram.bus_busy_share", "share"),
    ("bdram.refresh_stall_share", "share"),
    ("baxi.backpressure_share", "share"),
    ("baxi.beats_per_kcycle", "beat/kcycle"),
    ("bkernels.self_share", "share"),
    ("bkernels.gemm.share", "share"),
    ("bkernels.nw.share", "share"),
    ("bkernels.stencil2d.share", "share"),
    ("bkernels.stencil3d.share", "share"),
    ("bkernels.mdknn.share", "share"),
    ("bkernels.memcpy.pure_hdl.share", "share"),
    ("bkernels.memcpy.beethoven.share", "share"),
    ("bkernels.memcpy.beethoven_no_tlp.share", "share"),
    ("bkernels.memcpy.hls.share", "share"),
    ("bkernels.memcpy.beethoven_16beat.share", "share"),
    ("bkernels.inv_per_s_geomean", "inv/s"),
    ("bkernels.memcpy_gbps_geomean", "GB/s"),
    ("perfbench.self_share", "share"),
    ("perfbench.trace_overhead", "ratio"),
    ("perfbench.host_slowdown", "ratio"),
];

/// Counters summed over every SoC a traced pass drove, plus the host
/// seconds of the calls that drove them.
#[derive(Default)]
pub struct Hw {
    counters: BTreeMap<String, u64>,
    soc_cycles: u64,
    sim_ns: f64,
    reader_stall: u64,
    reader_cycles: u64,
    writer_stall: u64,
    writer_cycles: u64,
    row_hits: u64,
    columns: u64,
    bus_busy: u64,
    refresh_stall: u64,
    /// DRAM clock cycles elapsed, summed over every channel.
    dram_cycles: f64,
    server_busy_ns: u64,
    dma_bytes: u64,
    runtime_cmds: u64,
    /// Host seconds of the calls that advanced these SoCs.
    pub host_s: f64,
}

impl Hw {
    /// An empty roll-up for SoCs driven by `host_s` seconds of calls.
    pub fn new(host_s: f64) -> Self {
        Self {
            host_s,
            ..Self::default()
        }
    }

    pub fn add_soc(&mut self, soc: &SocSim) {
        let counters = soc.perf_counters();
        let (mut readers, mut writers) = (Vec::new(), Vec::new());
        for (name, _) in &counters {
            if let Some(chan) = name.strip_suffix("/ar_issued") {
                readers.push(format!("{chan}/stall_"));
            } else if let Some(chan) = name.strip_suffix("/aw_issued") {
                writers.push(format!("{chan}/stall_"));
            }
        }
        let stalls = |prefixes: &[String]| -> u64 {
            counters
                .iter()
                .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p.as_str())))
                .map(|(_, v)| v)
                .sum()
        };
        self.reader_stall += stalls(&readers);
        self.writer_stall += stalls(&writers);
        self.reader_cycles += readers.len() as u64 * soc.now();
        self.writer_cycles += writers.len() as u64 * soc.now();
        for (name, value) in counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        let dram = soc.dram_stats();
        self.row_hits += dram.row_hits;
        self.columns += dram.reads + dram.writes;
        self.bus_busy += dram.data_bus_busy_cycles;
        self.refresh_stall += dram.refresh_stall_cycles;
        let platform = soc.platform();
        let channels = u64::from(platform.mem_ports) * platform.dram.channels;
        let elapsed_ps = soc.elapsed_secs() * 1e12;
        self.dram_cycles += channels as f64 * elapsed_ps / platform.dram.timings.tck_ps as f64;
        self.soc_cycles += soc.now();
        self.sim_ns += soc.elapsed_secs() * 1e9;
    }

    pub fn add_handle(&mut self, handle: &FpgaHandle) {
        handle.with_soc(|soc| self.add_soc(soc));
        let stats = handle.stats();
        self.server_busy_ns += stats.server_busy_ns;
        self.dma_bytes += stats.dma_to_device_bytes + stats.dma_from_device_bytes;
        self.runtime_cmds += stats.commands;
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Sum of every `mem<port>/<leaf>` counter.
    fn port_sum(&self, leaf: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(name, _)| {
                name.strip_prefix("mem")
                    .and_then(|rest| rest.split_once('/'))
                    .is_some_and(|(_, l)| l == leaf)
            })
            .map(|(_, v)| *v as f64)
            .sum()
    }

    /// The counter-derived per-layer metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let cycles = self.soc_cycles as f64;
        let executed = self.counter("scheduler/executed_cycles");
        let skipped = self.counter("scheduler/skipped_cycles");
        let ticked = self.counter("scheduler/ticked_component_cycles");
        vec![
            (
                "bserver.lock_wait_share",
                ratio(self.counter("server/lock_wait_cycles"), cycles),
            ),
            (
                "bserver.coalesced_wakes_per_dispatch",
                ratio(
                    self.counter("server/coalesced_wakes"),
                    self.counter("server/dispatched"),
                ),
            ),
            (
                "bruntime.server_busy_share",
                ratio(self.server_busy_ns as f64, self.sim_ns),
            ),
            (
                "bruntime.dma_bytes_per_cmd",
                ratio(self.dma_bytes as f64, self.runtime_cmds as f64),
            ),
            (
                "bcore.mmio_words_per_cmd",
                ratio(
                    self.counter("mmio/cmd_words"),
                    self.counter("mmio/commands_sent"),
                ),
            ),
            (
                "bcore.reader_stall_share",
                ratio(self.reader_stall as f64, self.reader_cycles as f64),
            ),
            (
                "bcore.writer_stall_share",
                ratio(self.writer_stall as f64, self.writer_cycles as f64),
            ),
            (
                "bsim.ns_per_component_tick",
                ratio(self.host_s * 1e9, ticked),
            ),
            (
                "bsim.ticked_share",
                ratio(
                    ticked,
                    self.counter("scheduler/registered_component_cycles"),
                ),
            ),
            ("bsim.skipped_share", ratio(skipped, executed + skipped)),
            (
                "bdram.row_hit_ratio",
                ratio(self.row_hits as f64, self.columns as f64),
            ),
            (
                "bdram.bus_busy_share",
                ratio(self.bus_busy as f64, self.dram_cycles),
            ),
            (
                "bdram.refresh_stall_share",
                ratio(self.refresh_stall as f64, self.dram_cycles),
            ),
            (
                "baxi.backpressure_share",
                ratio(
                    self.port_sum("r_backpressure_cycles") + self.port_sum("b_backpressure_cycles"),
                    cycles,
                ),
            ),
            (
                "baxi.beats_per_kcycle",
                ratio(
                    1e3 * (self.port_sum("r_beats") + self.port_sum("w_beats")),
                    cycles,
                ),
            ),
        ]
    }
}
