//! The design ablations, `results/ablations.txt`: one datum line per
//! arm of each design decision DESIGN.md calls out.
//!
//! 1. **SLR-aware NoC vs flat** — buffers, SLR crossings, timing hazards
//!    and worst latency of the two network builders over 92 endpoints.
//! 2. **80% memory spill rule vs threshold 1.0** — when A³-class cores
//!    start spilling to URAM, and the BRAM utilization left behind.
//! 3. **Burst length** — 64-beat vs 16-beat Beethoven on a 64 KiB copy.
//! 4. **Same-ID ordering** — No-TLP and HLS on the same copy.
//! 5. **DRAM address mapping** — a sequential read stream over four
//!    channels under each mapping.
//! 6. **Fleet sharding and admission batching** — the serving-stack
//!    ablations (`loadgen`'s `render_fleet_ablation` and
//!    `render_batching_ablation`).
//!
//! Every datum is simulated, so the text is the same on any host and in
//! either scheduler mode.

use bdram::{AddressMapping, DramConfig, DramRequest, DramSystem};
use bkernels::memcpy::{run_memcpy, MemcpyVariant};
use bnoc::{Endpoint, NetworkBuilder};
use bplatform::{CellKind, DeviceModel, MemoryCellMapper, MemoryRequest, SlrId};

use crate::loadgen::{render_batching_ablation, render_fleet_ablation};

/// Renders every ablation's datum lines, in the order listed above.
///
/// # Panics
///
/// If a 4-channel read stream stops completing, or if the fleet or
/// batching ablation misses its headline claim (see their renderers).
pub fn render() -> String {
    let mut out = String::new();
    noc(&mut out);
    spill(&mut out);
    transaction_shaping(&mut out);
    dram_mapping(&mut out);
    out.push_str(&render_fleet_ablation());
    out.push_str(&render_batching_ablation());
    out
}

/// Both network builders over 92 endpoints spread across the U200's
/// three SLRs.
fn noc(out: &mut String) {
    let device = DeviceModel::alveo_u200();
    let endpoints: Vec<Endpoint> = (0..92)
        .map(|id| Endpoint {
            id,
            slr: SlrId(id % 3),
        })
        .collect();
    let builder = NetworkBuilder::default();
    let aware = builder.build_slr_aware(&device, SlrId(0), &endpoints);
    let flat = builder.build_flat(SlrId(0), &endpoints);
    out.push_str(&format!(
        "ablation datum: SLR-aware NoC: {} buffers, {} crossings, {} timing hazards, worst {} cyc\n",
        aware.buffer_count(),
        aware.crossing_count(),
        aware.timing_violations(),
        aware.worst_latency()
    ));
    out.push_str(&format!(
        "ablation datum: flat NoC:      {} buffers, {} crossings, {} timing hazards, worst {} cyc\n",
        flat.buffer_count(),
        flat.crossing_count(),
        flat.timing_violations(),
        flat.worst_latency()
    ));
}

/// Maps 23 A³-like cores under each spill threshold and reports when URAM
/// spilling begins and the worst per-SLR BRAM utilization left behind:
/// the 80% rule spills early, preserving the routing headroom the paper
/// needed; threshold 1.0 packs BRAM to the wall before touching URAM.
fn spill(out: &mut String) {
    let device = DeviceModel::alveo_u200();
    // An A³-like memory bundle per core.
    let bundle = || {
        [
            MemoryRequest::new("keys", 8, 61_440),
            MemoryRequest::new("values", 8, 61_440),
            MemoryRequest::new("prefetch_a", 512, 640),
            MemoryRequest::new("prefetch_b", 512, 640),
            MemoryRequest::new("staging", 512, 512),
        ]
    };
    let profile = |threshold: f64| -> (Option<usize>, f64) {
        let mut mapper = MemoryCellMapper::new(&device);
        mapper.threshold = threshold;
        let mut first_spill = None;
        for core in 0..23 {
            let slr = SlrId(core % 3);
            for req in bundle() {
                let m = mapper.map(slr, &req).expect("23 cores map either way");
                if m.kind == CellKind::Uram && first_spill.is_none() {
                    first_spill = Some(core);
                }
            }
        }
        let worst_bram = (0..3)
            .map(|s| mapper.utilization(SlrId(s), CellKind::Bram))
            .fold(0.0f64, f64::max);
        (first_spill, worst_bram)
    };
    let (spill_rule, bram_rule) = profile(0.8);
    let (spill_off, bram_off) = profile(1.0);
    out.push_str(&format!(
        "ablation datum: 80% rule: first URAM spill at core {spill_rule:?}, worst BRAM util {:.0}%\n",
        bram_rule * 100.0
    ));
    out.push_str(&format!(
        "ablation datum: rule off : first URAM spill at core {spill_off:?}, worst BRAM util {:.0}%\n",
        bram_off * 100.0
    ));
}

/// A 64 KiB copy under the burst-length control (Figure 4's 16-beat
/// Beethoven) and under single-ID ordering (No-TLP, HLS).
fn transaction_shaping(out: &mut String) {
    for variant in [
        MemcpyVariant::Beethoven,
        MemcpyVariant::Beethoven16Beat,
        MemcpyVariant::BeethovenNoTlp,
        MemcpyVariant::Hls,
    ] {
        let r = run_memcpy(variant, 64 * 1024);
        out.push_str(&format!(
            "ablation datum: {} {:.2} GB/s\n",
            variant.label(),
            r.gbps
        ));
    }
}

/// Sequential-stream bandwidth under each DRAM address mapping: channel
/// interleaving (the default) turns streams into bank/channel-parallel
/// traffic; the linear mapping funnels them into one channel.
fn dram_mapping(out: &mut String) {
    let run = |mapping: AddressMapping| -> f64 {
        let mut cfg = DramConfig::ddr4_2400();
        cfg.channels = 4;
        cfg.mapping = mapping;
        let bpb = cfg.bytes_per_burst();
        let mut dram = DramSystem::new(cfg);
        let bursts = 2048u64;
        let (mut issued, mut done, mut last, mut ps) = (0u64, 0u64, 0u64, 0u64);
        while done < bursts {
            while issued < bursts
                && dram
                    .enqueue(DramRequest::read(issued, issued * bpb))
                    .is_ok()
            {
                issued += 1;
            }
            ps += 100_000;
            dram.advance_to_ps(ps);
            while let Some(c) = dram.pop_completion() {
                done += 1;
                last = last.max(c.done_ps);
            }
            assert!(ps < 10_000_000_000, "stream stalled");
        }
        bursts as f64 * bpb as f64 / (last as f64 / 1e12) / 1e9
    };
    for (name, mapping) in [
        ("RoBaRaCoCh (interleaved)", AddressMapping::RoBaRaCoCh),
        ("RoRaBaChCo (page-interleaved)", AddressMapping::RoRaBaChCo),
        ("ChRaBaRoCo (linear)", AddressMapping::ChRaBaRoCo),
    ] {
        out.push_str(&format!(
            "ablation datum: 4-channel sequential read, {name}: {:.1} GB/s\n",
            run(mapping)
        ));
    }
}
