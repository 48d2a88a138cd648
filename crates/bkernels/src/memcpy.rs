//! The §III-A memory-copy microbenchmark and its methodology variants.
//!
//! The paper compares four implementations of a DRAM-to-DRAM copy on the
//! AWS F1 platform:
//!
//! * **Pure-HDL** — hand-written Chisel: overlaps the read and write
//!   streams "but only uses a single AXI ID and emits one transaction per
//!   ID concurrently" (≈470 LoC in the paper).
//! * **Beethoven** — Readers/Writers with transaction-level parallelism:
//!   long copies become several concurrent transactions on different IDs.
//! * **Beethoven No-TLP** — the same Readers/Writers restricted to one ID.
//! * **HLS** — Vitis HLS output: although annotated for 64-beat bursts,
//!   "the compiled output only used 16-beat bursts", all on one AXI ID,
//!   at a 500 MHz kernel clock bottlenecked by the 250 MHz DDR controller.
//!
//! All four run on the same simulated controller + DRAM here; only the
//! transaction-shaping parameters differ — which is exactly the paper's
//! point.

use bcore::elaborate::{elaborate_with, ElaborationOptions};
use bcore::{
    AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType, PortTable,
    ReadChannelConfig, ReaderId, SystemConfig, WriteChannelConfig, WriterId,
};
use bplatform::Platform;
use bsim::TraceEvent;

/// System name.
pub const SYSTEM: &str = "MemcpySystem";

/// A streaming copy core: `memcpy(dst, src, len)`.
#[derive(Debug)]
pub struct MemcpyCore {
    src: ReaderId,
    dst: WriterId,
    remaining: u64,
    active: bool,
}

impl MemcpyCore {
    /// A fresh, idle core bound to the `src` / `dst` streams.
    pub fn new(ports: &PortTable) -> Self {
        Self {
            src: ports.reader("src"),
            dst: ports.writer("dst"),
            remaining: 0,
            active: false,
        }
    }
}

impl AcceleratorCore for MemcpyCore {
    // Between commands a tick only polls the command queue, which the
    // harness watches through its visibility clock.
    fn idle(&self) -> bool {
        !self.active
    }

    fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
        if !self.active {
            if let Some(cmd) = ctx.take_command(sim) {
                let src = cmd.arg("src");
                let dst = cmd.arg("dst");
                let len = cmd.arg("len");
                self.remaining = len;
                self.active = true;
                ctx.reader(self.src).request(src, len).expect("reader idle");
                ctx.writer(self.dst).request(dst, len).expect("writer idle");
            }
            return;
        }
        // Move up to one bus beat per cycle from the read stream to the
        // write stream (the datapath is just a register).
        let mut beat = [0u8; 64];
        while self.remaining > 0 && ctx.writer(self.dst).can_push() {
            let chunk_len = 64.min(self.remaining) as usize;
            let chunk = &mut beat[..chunk_len];
            if !ctx.reader(self.src).pop_into(chunk) {
                break;
            }
            ctx.writer(self.dst).push_chunk(chunk);
            self.remaining -= chunk_len as u64;
        }
        if self.remaining == 0 && ctx.writer(self.dst).done() && ctx.respond(sim, 0) {
            self.active = false;
        }
    }
}

/// Command spec: `memcpy(src, dst, len)`.
pub fn command_spec() -> AccelCommandSpec {
    AccelCommandSpec::new(
        "memcpy",
        vec![
            ("src".to_owned(), FieldType::Address),
            ("dst".to_owned(), FieldType::Address),
            ("len".to_owned(), FieldType::U(32)),
        ],
    )
}

/// Single-core memcpy configuration.
pub fn config() -> AcceleratorConfig {
    AcceleratorConfig::new().with_system(
        SystemConfig::new(SYSTEM, 1, command_spec(), |ports| {
            Box::new(MemcpyCore::new(ports))
        })
        .with_read(ReadChannelConfig::new("src", 64))
        .with_write(WriteChannelConfig::new("dst", 64)),
    )
}

/// The four methodology variants of Figures 4/5 (plus the 16-beat
/// Beethoven control experiment the paper ran to isolate burst length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemcpyVariant {
    /// Hand-written RTL: 64-beat bursts, one ID, one transaction at a time.
    PureHdl,
    /// Beethoven with TLP: 64-beat bursts across 4 IDs, 4 in flight.
    Beethoven,
    /// Beethoven without TLP: 64-beat bursts, single ID.
    BeethovenNoTlp,
    /// Vitis-HLS model: 16-beat bursts, all on one ID, 500 MHz kernel.
    Hls,
    /// Control: Beethoven constrained to 16-beat bursts (still multi-ID).
    Beethoven16Beat,
}

impl MemcpyVariant {
    /// All variants, in the paper's presentation order.
    pub const ALL: [MemcpyVariant; 5] = [
        MemcpyVariant::PureHdl,
        MemcpyVariant::Beethoven,
        MemcpyVariant::BeethovenNoTlp,
        MemcpyVariant::Hls,
        MemcpyVariant::Beethoven16Beat,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            MemcpyVariant::PureHdl => "Pure-HDL",
            MemcpyVariant::Beethoven => "Beethoven",
            MemcpyVariant::BeethovenNoTlp => "Beethoven (No-TLP)",
            MemcpyVariant::Hls => "HLS",
            MemcpyVariant::Beethoven16Beat => "Beethoven (16-beat)",
        }
    }

    /// Elaboration options producing this variant's transaction shape.
    pub fn options(&self) -> ElaborationOptions {
        let base = ElaborationOptions {
            prefetch_bytes: 32 * 1024,
            staging_bytes: 32 * 1024,
            ..ElaborationOptions::default()
        };
        match self {
            // Double-buffered AR issue (the next request launches while
            // the current burst streams) — standard hand-RTL practice,
            // still one ID and one burst on the data bus at a time.
            MemcpyVariant::PureHdl => ElaborationOptions {
                burst_beats: 64,
                ids_per_port: 1,
                reader_inflight: 2,
                writer_inflight: 2,
                ..base
            },
            MemcpyVariant::Beethoven => ElaborationOptions {
                burst_beats: 64,
                ids_per_port: 4,
                reader_inflight: 4,
                writer_inflight: 4,
                ..base
            },
            MemcpyVariant::BeethovenNoTlp => ElaborationOptions {
                burst_beats: 64,
                ids_per_port: 1,
                reader_inflight: 4,
                writer_inflight: 4,
                ..base
            },
            MemcpyVariant::Hls => ElaborationOptions {
                burst_beats: 16,
                ids_per_port: 1,
                reader_inflight: 8,
                writer_inflight: 8,
                ..base
            },
            MemcpyVariant::Beethoven16Beat => ElaborationOptions {
                burst_beats: 16,
                ids_per_port: 4,
                reader_inflight: 8,
                writer_inflight: 8,
                ..base
            },
        }
    }

    /// Kernel clock in MHz (HLS synthesized at 500; everything else at the
    /// platform's 250).
    pub fn fabric_mhz(&self) -> u64 {
        match self {
            MemcpyVariant::Hls => 500,
            _ => 250,
        }
    }
}

/// The result of one memcpy run.
#[derive(Debug, Clone)]
pub struct MemcpyResult {
    /// Variant that ran.
    pub variant: MemcpyVariant,
    /// Bytes copied.
    pub bytes: u64,
    /// Fabric cycles from command send to response.
    pub cycles: u64,
    /// Wall-clock seconds at the variant's fabric clock.
    pub seconds: f64,
    /// Copy bandwidth (bytes copied per second; each byte is read once
    /// and written once).
    pub gbps: f64,
    /// Recorded AXI events (enabled only by [`run_memcpy_traced`]).
    pub trace: Vec<TraceEvent>,
}

fn run_inner(
    variant: MemcpyVariant,
    bytes: u64,
    trace: bool,
    profile: bool,
) -> (MemcpyResult, bcore::SocSim) {
    let mut platform = Platform::aws_f1();
    platform.fabric_mhz = variant.fabric_mhz();
    // Host-side costs are irrelevant to this microbenchmark.
    platform.host_link.mmio_latency_ns = 0;
    let mut opts = variant.options();
    opts.trace = trace;
    opts.profile = profile;
    let mut soc = elaborate_with(config(), &platform, opts).expect("memcpy elaborates");
    let src = 0x100_0000u64;
    let dst = 0x800_0000u64;
    // Byte i is i mod 251, built by repeating one period.
    let period: Vec<u8> = (0..=250).collect();
    let mut payload = period.repeat(bytes.div_ceil(251) as usize);
    payload.truncate(bytes as usize);
    soc.memory().borrow_mut().write(src, &payload);
    let args = [
        ("src".to_owned(), src),
        ("dst".to_owned(), dst),
        ("len".to_owned(), bytes),
    ]
    .into_iter()
    .collect();
    let start = soc.now();
    if profile {
        soc.sample_perf();
    }
    let token = soc.send_command(0, 0, &args).expect("send");
    soc.run_until_response(token, 100_000_000)
        .expect("memcpy completes");
    if profile {
        soc.sample_perf();
    }
    let cycles = soc.now() - start;
    // Functional check on every run: a benchmark that copies wrong bytes
    // measures nothing.
    let out = soc.memory().borrow().read_vec(dst, bytes as usize);
    assert_eq!(out, payload, "memcpy corrupted data");
    let seconds = soc.clock().cycles_to_secs(cycles);
    let result = MemcpyResult {
        variant,
        bytes,
        cycles,
        seconds,
        gbps: bytes as f64 / seconds / 1e9,
        trace: if trace {
            soc.tracer().events()
        } else {
            Vec::new()
        },
    };
    (result, soc)
}

/// Runs one variant copying `bytes` and reports timing.
pub fn run_memcpy(variant: MemcpyVariant, bytes: u64) -> MemcpyResult {
    run_inner(variant, bytes, false, false).0
}

/// Runs one variant with the AXI tracer enabled (Figure 5 timelines).
pub fn run_memcpy_traced(variant: MemcpyVariant, bytes: u64) -> MemcpyResult {
    run_inner(variant, bytes, true, false).0
}

/// Runs one variant with both the tracer and the performance counters
/// enabled, returning the SoC alongside the result so callers can export
/// profile artifacts (text report, Chrome trace). Counter samples are
/// taken at command send and response, giving the trace's counter tracks
/// at least one full window.
pub fn run_memcpy_profiled(variant: MemcpyVariant, bytes: u64) -> (MemcpyResult, bcore::SocSim) {
    run_inner(variant, bytes, true, true)
}

/// Approximate lines of code for each methodology, as reported in §III-A
/// (implementation + configuration/pragmas). Used by the Figure 4 harness
/// footer.
pub fn loc_comparison() -> Vec<(&'static str, u32, u32)> {
    vec![("Pure-HDL", 470, 0), ("Beethoven", 23, 16), ("HLS", 4, 2)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_copy_correctly() {
        for variant in MemcpyVariant::ALL {
            let result = run_memcpy(variant, 16 * 1024);
            assert!(result.gbps > 0.0, "{}: no bandwidth", variant.label());
            assert_eq!(result.bytes, 16 * 1024);
        }
    }

    #[test]
    fn figure4_ordering_beethoven_tlp_beats_hls() {
        let bytes = 256 * 1024;
        let beethoven = run_memcpy(MemcpyVariant::Beethoven, bytes);
        let hls = run_memcpy(MemcpyVariant::Hls, bytes);
        assert!(
            beethoven.gbps > hls.gbps,
            "Beethoven ({:.2} GB/s) should outperform HLS ({:.2} GB/s)",
            beethoven.gbps,
            hls.gbps
        );
    }

    #[test]
    fn figure4_pure_hdl_close_to_beethoven() {
        // The paper measured Pure-HDL ≈7% ahead of Beethoven; the shape
        // requirement is that they're within ~30% of each other.
        let bytes = 256 * 1024;
        let hdl = run_memcpy(MemcpyVariant::PureHdl, bytes);
        let beethoven = run_memcpy(MemcpyVariant::Beethoven, bytes);
        let ratio = hdl.gbps / beethoven.gbps;
        assert!(
            (0.7..1.4).contains(&ratio),
            "Pure-HDL/Beethoven ratio {ratio:.2} out of expected band"
        );
    }

    #[test]
    fn figure4_control_16_beat_multi_id_does_not_collapse() {
        // The paper: a Beethoven build with 16-beat bursts showed no
        // degradation — burst length alone doesn't explain the HLS gap.
        let bytes = 256 * 1024;
        let b16 = run_memcpy(MemcpyVariant::Beethoven16Beat, bytes);
        let hls = run_memcpy(MemcpyVariant::Hls, bytes);
        assert!(
            b16.gbps > hls.gbps,
            "multi-ID 16-beat ({:.2}) should still beat same-ID HLS ({:.2})",
            b16.gbps,
            hls.gbps
        );
    }

    #[test]
    fn traced_run_records_axi_events() {
        let result = run_memcpy_traced(MemcpyVariant::Beethoven, 4096);
        assert!(result.trace.iter().any(|e| e.track == "AR"));
        assert!(result.trace.iter().any(|e| e.track == "B"));
        let timeline = bsim::render_timeline(&result.trace, 4, 100);
        assert!(timeline.contains("AR"));
    }

    #[test]
    fn figure5_hls_uses_one_id_beethoven_many() {
        let hls = run_memcpy_traced(MemcpyVariant::Hls, 4096);
        let ids: std::collections::HashSet<u32> = hls
            .trace
            .iter()
            .filter(|e| e.track == "AR")
            .map(|e| e.id)
            .collect();
        assert_eq!(ids.len(), 1, "HLS model must issue all reads on one ID");
        let beethoven = run_memcpy_traced(MemcpyVariant::Beethoven, 16384);
        let ids: std::collections::HashSet<u32> = beethoven
            .trace
            .iter()
            .filter(|e| e.track == "AR")
            .map(|e| e.id)
            .collect();
        assert!(ids.len() > 1, "Beethoven must spread reads over IDs");
    }
}
