//! `machsuite`: the five MachSuite kernels of Figure 6, run one after the
//! other through `fig6::run_one` (a single-core invocation, then the
//! multi-core system driven through the runtime's lock-arbitrated
//! server). Host time goes to the many-core simulation; only a few dozen
//! commands cross the runtime, so serving-stack changes should not show.
//! The inputs are fixed; the seed is unused.

use bbench::fig6::{profiled_run, run_one, Fig6Row, Fig6Scale};
use bcore::elaborate::ElaborationOptions;
use bcore::AcceleratorConfig;
use bkernels::machsuite::baselines::beethoven_parallelism;
use bkernels::machsuite::{gemm, mdknn, nw, stencil2d, stencil3d, Bench};
use bplatform::Platform;

use crate::layers::Hw;
use crate::spans::Spans;
use crate::stats::{geomean, median, ratio};
use crate::{Pass, Workload};

/// Figure 6 clocks the Beethoven systems at 125 MHz (§III-B).
const FABRIC_HZ: f64 = 125e6;

/// Table I sizes with GeMM, Stencil2D and MD-KNN scaled down so one pass
/// of all five kernels takes about two seconds; the paper's core cap
/// stays, so the multi-core runs stay many-core.
const SCALE: Fig6Scale = Fig6Scale {
    gemm_n: 64,
    nw_n: 256,
    s2d_n: 128,
    s3d_n: 32,
    md_n: 512,
    md_k: 32,
    cap_cores: 24,
    cmds_per_core: 2,
};

pub struct Machsuite {
    scale: Fig6Scale,
}

impl Machsuite {
    pub fn new(smoke: bool) -> Self {
        Self {
            scale: if smoke { Fig6Scale::small() } else { SCALE },
        }
    }

    /// The platform and accelerator configuration `fig6` builds for
    /// `bench` at `n_cores`.
    fn config(&self, bench: Bench, n_cores: u32) -> (Platform, AcceleratorConfig) {
        let s = &self.scale;
        let p = beethoven_parallelism(bench);
        let config = match bench {
            Bench::Gemm => gemm::config(n_cores, s.gemm_n, p),
            Bench::Nw => nw::config(n_cores, s.nw_n),
            Bench::Stencil2d => stencil2d::config(n_cores, s.s2d_n, p),
            Bench::Stencil3d => stencil3d::config(n_cores, s.s3d_n, p),
            Bench::MdKnn => mdknn::config(n_cores, s.md_n, s.md_k, p),
        };
        let mut platform = Platform::aws_f1();
        platform.fabric_mhz = (FABRIC_HZ / 1e6) as u64;
        (platform, config)
    }
}

fn span_name(bench: Bench) -> &'static str {
    match bench {
        Bench::Gemm => "bkernels.gemm",
        Bench::Nw => "bkernels.nw",
        Bench::Stencil2d => "bkernels.stencil2d",
        Bench::Stencil3d => "bkernels.stencil3d",
        Bench::MdKnn => "bkernels.mdknn",
    }
}

impl Workload for Machsuite {
    fn pass(&mut self, spans: &mut Spans) -> Result<Pass, String> {
        // Set-up: plan each kernel's core count and elaborate its
        // multi-core SoC, as `run_one` does inside the timed call.
        let mut setup = Vec::new();
        let mut elaborate_s = 0.0;
        for bench in Bench::ALL {
            let (platform, config) = self.config(bench, 1);
            let opts = ElaborationOptions::default();
            let (cores, dt) = spans.call("bcore.estimate_max_cores", None, || {
                bcore::estimate_max_cores(&config.systems[0], &platform, &opts)
            });
            setup.push(dt);
            let n_cores = cores.clamp(1, self.scale.cap_cores) as u32;
            let (platform, config) = self.config(bench, n_cores);
            let (soc, dt) = spans.call("bcore.elaborate_with", None, || {
                bcore::elaborate::elaborate_with(config, &platform, opts)
            });
            soc.map_err(|e| format!("{}: elaboration failed: {e}", bench.name()))?;
            setup.push(dt);
            elaborate_s += dt;
        }

        let mut calls = Vec::new();
        let mut rows: Vec<Fig6Row> = Vec::new();
        for (i, bench) in Bench::ALL.into_iter().enumerate() {
            let (row, dt) = spans.call(span_name(bench), Some(i), || run_one(bench, &self.scale));
            calls.push(dt);
            let sane = [row.beethoven_1core, row.measured, row.ideal]
                .iter()
                .all(|x| x.is_finite() && *x > 0.0);
            if !sane || row.n_cores == 0 {
                return Err(format!(
                    "{}: implausible Figure 6 row {row:?}",
                    bench.name()
                ));
            }
            rows.push(row);
        }

        let cmds_multi = |row: &Fig6Row| (row.n_cores * self.scale.cmds_per_core) as f64;
        let single_cycles: Vec<f64> = rows.iter().map(|r| FABRIC_HZ / r.beethoven_1core).collect();
        let multi_cycles: f64 = rows
            .iter()
            .map(|r| cmds_multi(r) / r.measured * FABRIC_HZ)
            .sum();
        let cmds: f64 = rows.iter().map(|r| 1.0 + cmds_multi(r)).sum();
        let mut fingerprint = Vec::new();
        for row in &rows {
            fingerprint.extend([
                row.n_cores as u64,
                row.beethoven_1core.to_bits(),
                row.measured.to_bits(),
            ]);
        }

        let mut layers = Vec::new();
        if spans.enabled() {
            let (handle, dt) =
                spans.call("bkernels.profiled_run", None, || profiled_run(&self.scale));
            let mut hw = Hw::new(dt);
            hw.add_handle(&handle);
            layers = hw.metrics();
            let gaps: Vec<f64> = rows.iter().map(|r| r.measured / r.ideal).collect();
            layers.extend([
                ("bserver.ideal_gap", 1.0 - geomean(&gaps)),
                (
                    "bkernels.inv_per_s_geomean",
                    geomean(&rows.iter().map(|r| r.measured).collect::<Vec<_>>()),
                ),
                ("bcore.elaborate_ms", elaborate_s * 1e3),
            ]);
        }

        Ok(Pass {
            setup,
            calls,
            sim_cycles: single_cycles.iter().sum::<f64>() + multi_cycles,
            cmds: cmds as u64,
            failed: 0,
            rss_mb: None,
            goodput_per_mcycle: geomean(
                &rows
                    .iter()
                    .map(|r| ratio(r.measured * 1e6, FABRIC_HZ))
                    .collect::<Vec<_>>(),
            ),
            latency_p50_cycles: median(&single_cycles).round() as u64,
            fingerprint,
            layers,
        })
    }
}
