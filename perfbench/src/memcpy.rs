//! `memcpy`: the §III-A copy microbenchmark, every Figure 4 variant at
//! every size from 4 KiB to 4 MiB. Host time goes to DRAM/AXI streaming
//! through the Readers and Writers; no runtime or server is involved. The
//! inputs are fixed; the seed is unused.

use bcore::elaborate::elaborate_with;
use bkernels::memcpy::{run_memcpy, run_memcpy_profiled, MemcpyVariant};
use bplatform::Platform;

use crate::layers::Hw;
use crate::spans::Spans;
use crate::stats::{geomean, median};
use crate::{Pass, Workload};

pub struct Memcpy {
    sizes: Vec<u64>,
}

impl Memcpy {
    pub fn new(smoke: bool) -> Self {
        let max_kib = if smoke { 64 } else { 4096 };
        Self {
            sizes: std::iter::successors(Some(4u64), |kib| Some(kib * 4))
                .take_while(|&kib| kib <= max_kib)
                .map(|kib| kib * 1024)
                .collect(),
        }
    }
}

fn span_name(variant: MemcpyVariant) -> &'static str {
    match variant {
        MemcpyVariant::PureHdl => "bkernels.memcpy.pure_hdl",
        MemcpyVariant::Beethoven => "bkernels.memcpy.beethoven",
        MemcpyVariant::BeethovenNoTlp => "bkernels.memcpy.beethoven_no_tlp",
        MemcpyVariant::Hls => "bkernels.memcpy.hls",
        MemcpyVariant::Beethoven16Beat => "bkernels.memcpy.beethoven_16beat",
    }
}

impl Workload for Memcpy {
    fn pass(&mut self, spans: &mut Spans) -> Result<Pass, String> {
        // Set-up: elaborate each variant's SoC the way `run_memcpy` does.
        let mut setup = Vec::new();
        for variant in MemcpyVariant::ALL {
            let mut platform = Platform::aws_f1();
            platform.fabric_mhz = variant.fabric_mhz();
            platform.host_link.mmio_latency_ns = 0;
            let (soc, dt) = spans.call("bcore.elaborate_with", None, || {
                elaborate_with(bkernels::memcpy::config(), &platform, variant.options())
            });
            soc.map_err(|e| format!("{}: elaboration failed: {e}", variant.label()))?;
            setup.push(dt);
        }

        let traced = spans.enabled();
        let mut hw = Hw::default();
        let mut calls = Vec::new();
        let mut cycles = Vec::new();
        let mut gbps = Vec::new();
        for variant in MemcpyVariant::ALL {
            for &bytes in &self.sizes {
                // Both calls check the copied bytes and panic on a mismatch.
                let ((result, soc), dt) =
                    spans.call(span_name(variant), Some(cycles.len()), || {
                        if traced {
                            let (result, soc) = run_memcpy_profiled(variant, bytes);
                            (result, Some(soc))
                        } else {
                            (run_memcpy(variant, bytes), None)
                        }
                    });
                if let Some(soc) = soc {
                    hw.add_soc(&soc);
                }
                if result.bytes != bytes || result.cycles == 0 {
                    return Err(format!(
                        "{}: {bytes} B copy reported {result:?}",
                        variant.label()
                    ));
                }
                calls.push(dt);
                cycles.push(result.cycles);
                gbps.push(result.gbps);
            }
        }

        let mut layers = Vec::new();
        if traced {
            hw.host_s = calls.iter().sum();
            layers = hw.metrics();
            layers.extend([
                ("bkernels.memcpy_gbps_geomean", geomean(&gbps)),
                ("bcore.elaborate_ms", setup.iter().sum::<f64>() * 1e3),
            ]);
        }
        let per_mcycle: Vec<f64> = cycles.iter().map(|&c| 1e6 / c as f64).collect();
        let cycles_f: Vec<f64> = cycles.iter().map(|&c| c as f64).collect();
        Ok(Pass {
            setup,
            calls,
            sim_cycles: cycles_f.iter().sum(),
            cmds: cycles.len() as u64,
            failed: 0,
            rss_mb: None,
            goodput_per_mcycle: geomean(&per_mcycle),
            latency_p50_cycles: median(&cycles_f).round() as u64,
            fingerprint: cycles,
            layers,
        })
    }
}
