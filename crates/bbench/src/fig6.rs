//! Figure 6: MachSuite speedups normalized to Vitis HLS.
//!
//! For every benchmark this harness produces the figure's five quantities:
//!
//! * **Vitis HLS** and **Spatial** throughput from the documented
//!   comparator models ([`bkernels::machsuite::baselines`]);
//! * **Beethoven (1 core)** — measured by running the real core through
//!   the simulated SoC at the paper's 125 MHz;
//! * **Beethoven (Ideal)** — single-core throughput × core count, where
//!   the core count comes from the floorplanner (the number printed on
//!   each bar in the paper);
//! * **Beethoven (Measured)** — wall-clock throughput of the multi-core
//!   system driven through the runtime (server lock included), which is
//!   where the paper's ideal-vs-measured gap appears.

use std::collections::BTreeMap;

use bcore::elaborate::{elaborate_with, ElaborationOptions};
use bcore::AcceleratorConfig;
use bkernels::machsuite::baselines::{beethoven_parallelism, model, Method, PaperParams};
use bkernels::machsuite::{gemm, mdknn, nw, stencil2d, stencil3d, Bench};
use bplatform::Platform;
use bruntime::FpgaHandle;

/// Problem sizes and run lengths for a Figure 6 regeneration.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Scale {
    /// GeMM matrix dimension.
    pub gemm_n: usize,
    /// NW sequence length.
    pub nw_n: usize,
    /// Stencil2D grid dimension.
    pub s2d_n: usize,
    /// Stencil3D grid dimension.
    pub s3d_n: usize,
    /// MD-KNN atoms.
    pub md_n: usize,
    /// MD-KNN neighbours.
    pub md_k: usize,
    /// Cap on instantiated cores (simulation-cost guard).
    pub cap_cores: usize,
    /// Commands per core in the measured multi-core run.
    pub cmds_per_core: usize,
}

impl Fig6Scale {
    /// The paper's Table I sizes.
    pub fn paper() -> Self {
        Self {
            gemm_n: 256,
            nw_n: 256,
            s2d_n: 256,
            s3d_n: 32,
            md_n: 1024,
            md_k: 32,
            cap_cores: 24,
            cmds_per_core: 2,
        }
    }

    /// A scaled-down configuration for quick runs and tests.
    pub fn small() -> Self {
        Self {
            gemm_n: 32,
            nw_n: 32,
            s2d_n: 32,
            s3d_n: 8,
            md_n: 64,
            md_k: 8,
            cap_cores: 4,
            cmds_per_core: 2,
        }
    }

    fn comparator_params(&self) -> PaperParams {
        PaperParams {
            gemm_n: self.gemm_n,
            nw_n: self.nw_n,
            s2d_n: self.s2d_n,
            s3d_n: self.s3d_n,
            md_n: self.md_n,
            md_k: self.md_k,
        }
    }
}

/// One benchmark's Figure 6 results, all in kernel invocations per second.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Benchmark.
    pub bench: Bench,
    /// Vitis HLS comparator throughput.
    pub hls: f64,
    /// Spatial comparator throughput.
    pub spatial: f64,
    /// Measured single-core Beethoven throughput.
    pub beethoven_1core: f64,
    /// Core count from the floorplanner (bar label in the paper).
    pub n_cores: usize,
    /// Ideal multi-core throughput (single × cores).
    pub ideal: f64,
    /// Measured multi-core throughput through the runtime.
    pub measured: f64,
}

type Args = BTreeMap<String, u64>;
/// Buffer-preparation callback: fills device memory for invocation `idx`
/// and returns the command's argument map.
type SetupFn = Box<dyn Fn(&FpgaHandle, usize) -> Args>;

struct Driver {
    bench: Bench,
    system: &'static str,
    config: Box<dyn Fn(u32) -> AcceleratorConfig>,
    /// Prepares buffers for invocation `idx` and returns command args.
    setup: SetupFn,
}

fn beethoven_platform() -> Platform {
    // "Spatial and Beethoven implementations are clocked at the default
    // 125MHz clock rate" (§III-B).
    let mut p = Platform::aws_f1();
    p.fabric_mhz = 125;
    p
}

fn drivers(scale: &Fig6Scale) -> Vec<Driver> {
    let s = *scale;
    vec![
        Driver {
            bench: Bench::Gemm,
            system: gemm::SYSTEM,
            config: Box::new(move |n| {
                gemm::config(n, s.gemm_n, beethoven_parallelism(Bench::Gemm))
            }),
            setup: Box::new(move |handle, idx| {
                let n = s.gemm_n;
                let (a, b) = gemm::workload(n, idx as u64);
                let pa = handle.malloc((n * n * 4) as u64).unwrap();
                let pb = handle.malloc((n * n * 4) as u64).unwrap();
                let pc = handle.malloc((n * n * 4) as u64).unwrap();
                handle.write_u32_slice(pa, &a.iter().map(|&x| x as u32).collect::<Vec<_>>());
                handle.write_u32_slice(pb, &b.iter().map(|&x| x as u32).collect::<Vec<_>>());
                handle.copy_to_fpga(pa);
                handle.copy_to_fpga(pb);
                gemm::args(pa.device_addr(), pb.device_addr(), pc.device_addr(), n)
            }),
        },
        Driver {
            bench: Bench::Nw,
            system: nw::SYSTEM,
            config: Box::new(move |n| nw::config(n, s.nw_n)),
            setup: Box::new(move |handle, idx| {
                let n = s.nw_n;
                let (a, b) = nw::workload(n, idx as u64);
                let pa = handle.malloc(n as u64).unwrap();
                let pb = handle.malloc(n as u64).unwrap();
                let po = handle.malloc((4 * n) as u64).unwrap();
                handle.write_at(pa, 0, &a);
                handle.write_at(pb, 0, &b);
                handle.copy_to_fpga(pa);
                handle.copy_to_fpga(pb);
                nw::args(pa.device_addr(), pb.device_addr(), po.device_addr(), n)
            }),
        },
        Driver {
            bench: Bench::Stencil2d,
            system: stencil2d::SYSTEM,
            config: Box::new(move |n| {
                stencil2d::config(n, s.s2d_n, beethoven_parallelism(Bench::Stencil2d))
            }),
            setup: Box::new(move |handle, idx| {
                let n = s.s2d_n;
                let (grid, filter) = stencil2d::workload(n, idx as u64);
                let pg = handle.malloc((n * n * 4) as u64).unwrap();
                let pf = handle.malloc(64).unwrap();
                let ps = handle.malloc((n * n * 4) as u64).unwrap();
                handle.write_u32_slice(pg, &grid.iter().map(|&x| x as u32).collect::<Vec<_>>());
                handle.write_u32_slice(pf, &filter.iter().map(|&x| x as u32).collect::<Vec<_>>());
                handle.copy_to_fpga(pg);
                handle.copy_to_fpga(pf);
                stencil2d::args(pg.device_addr(), pf.device_addr(), ps.device_addr(), n)
            }),
        },
        Driver {
            bench: Bench::Stencil3d,
            system: stencil3d::SYSTEM,
            config: Box::new(move |n| {
                stencil3d::config(n, s.s3d_n, beethoven_parallelism(Bench::Stencil3d))
            }),
            setup: Box::new(move |handle, idx| {
                let n = s.s3d_n;
                let grid = stencil3d::workload(n, idx as u64);
                let pg = handle.malloc((n * n * n * 4) as u64).unwrap();
                let ps = handle.malloc((n * n * n * 4) as u64).unwrap();
                handle.write_u32_slice(pg, &grid.iter().map(|&x| x as u32).collect::<Vec<_>>());
                handle.copy_to_fpga(pg);
                stencil3d::args(pg.device_addr(), ps.device_addr(), n, 2, -1)
            }),
        },
        Driver {
            bench: Bench::MdKnn,
            system: mdknn::SYSTEM,
            config: Box::new(move |n| {
                mdknn::config(n, s.md_n, s.md_k, beethoven_parallelism(Bench::MdKnn))
            }),
            setup: Box::new(move |handle, idx| {
                let (n, k) = (s.md_n, s.md_k);
                let (pos, nl) = mdknn::workload(n, k, idx as u64);
                let pp = handle.malloc((3 * n * 4) as u64).unwrap();
                let pn = handle.malloc((n * k * 4) as u64).unwrap();
                let pf = handle.malloc((3 * n * 4) as u64).unwrap();
                handle.write_u32_slice(pp, &pos.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
                handle.write_u32_slice(pn, &nl);
                handle.copy_to_fpga(pp);
                handle.copy_to_fpga(pn);
                mdknn::args(pp.device_addr(), pn.device_addr(), pf.device_addr(), n, k)
            }),
        },
    ]
}

fn driver_for(bench: Bench, scale: &Fig6Scale) -> Driver {
    drivers(scale)
        .into_iter()
        .find(|d| d.bench == bench)
        .expect("driver exists")
}

/// Core count from the floorplanner (bounded for simulation cost). Pure
/// resource arithmetic, so the single- and multi-core jobs each derive it
/// independently instead of one waiting on the other.
fn planned_cores(driver: &Driver, scale: &Fig6Scale) -> usize {
    let cfg1 = (driver.config)(1);
    let planner_max = bcore::estimate_max_cores(
        &cfg1.systems[0],
        &beethoven_platform(),
        &ElaborationOptions::default(),
    );
    planner_max.clamp(1, scale.cap_cores)
}

/// Result of one benchmark's single-core measurement job.
struct SingleCoreRun {
    beethoven_1core: f64,
    cycles: u64,
}

/// Result of one benchmark's multi-core measurement job.
struct MultiCoreRun {
    measured: f64,
    n_cores: usize,
    cycles: u64,
}

/// Either half of a benchmark's Figure 6 measurement (the job payload).
enum Fig6Run {
    Single(SingleCoreRun),
    Multi(MultiCoreRun),
}

fn run_single_core(bench: Bench, scale: &Fig6Scale) -> SingleCoreRun {
    let driver = driver_for(bench, scale);
    let soc = elaborate_with(
        (driver.config)(1),
        &beethoven_platform(),
        ElaborationOptions::default(),
    )
    .expect("elaborates");
    let handle = FpgaHandle::new(soc);
    let args = (driver.setup)(&handle, 0);
    let t0 = handle.elapsed_secs();
    let resp = handle.call(driver.system, 0, args).expect("call");
    resp.get().expect("single-core invocation completes");
    let single_secs = handle.elapsed_secs() - t0;
    SingleCoreRun {
        beethoven_1core: 1.0 / single_secs,
        cycles: handle.now(),
    }
}

fn run_multi_core(bench: Bench, scale: &Fig6Scale) -> MultiCoreRun {
    let driver = driver_for(bench, scale);
    let n_cores = planned_cores(&driver, scale);
    let soc = elaborate_with(
        (driver.config)(n_cores as u32),
        &beethoven_platform(),
        ElaborationOptions::default(),
    )
    .expect("multi-core elaborates");
    let handle = FpgaHandle::new(soc);
    let total_cmds = n_cores * scale.cmds_per_core;
    let prepared: Vec<Args> = (0..total_cmds)
        .map(|i| (driver.setup)(&handle, i))
        .collect();
    // The measured leg is the paper's serialized runtime: one client
    // submits every command in order, core `i % n_cores` by submission
    // order, then drains the responses by polling in submission order.
    let t0 = handle.elapsed_secs();
    let responses: Vec<_> = prepared
        .into_iter()
        .enumerate()
        .map(|(i, args)| {
            handle
                .call(driver.system, (i % n_cores) as u16, args)
                .expect("call")
        })
        .collect();
    for resp in responses {
        resp.get().expect("multi-core invocation completes");
    }
    MultiCoreRun {
        measured: total_cmds as f64 / (handle.elapsed_secs() - t0),
        n_cores,
        cycles: handle.now(),
    }
}

fn assemble_row(
    bench: Bench,
    scale: &Fig6Scale,
    single: &SingleCoreRun,
    multi: &MultiCoreRun,
) -> Fig6Row {
    let params = scale.comparator_params();
    Fig6Row {
        bench,
        hls: model(Method::VitisHls, bench, &params).invocations_per_sec(),
        spatial: model(Method::Spatial, bench, &params).invocations_per_sec(),
        beethoven_1core: single.beethoven_1core,
        n_cores: multi.n_cores,
        ideal: single.beethoven_1core * multi.n_cores as f64,
        measured: multi.measured,
    }
}

/// Runs the whole figure on `workers` host threads and returns the rows
/// plus the total simulated fabric cycles (for the sim-rate footer).
/// Each benchmark contributes two jobs — the single-core and the
/// multi-core SoC run — constructed and driven entirely inside their
/// worker threads. The multi-core jobs (the long poles) enter the queue
/// first; results come back in submission order, so the rows are
/// identical at any worker count.
pub fn run_on(scale: &Fig6Scale, workers: usize) -> (Vec<Fig6Row>, u64) {
    let benches: Vec<Bench> = drivers(scale).iter().map(|d| d.bench).collect();
    let s = *scale;
    let jobs: Vec<_> = [true, false]
        .into_iter()
        .flat_map(|multi| {
            benches.iter().map(move |&bench| {
                move || {
                    if multi {
                        Fig6Run::Multi(run_multi_core(bench, &s))
                    } else {
                        Fig6Run::Single(run_single_core(bench, &s))
                    }
                }
            })
        })
        .collect();
    let (mut singles, mut multis) = (Vec::new(), Vec::new());
    for out in bsim::host::run_ordered(jobs, workers) {
        match out {
            Fig6Run::Single(single) => singles.push(single),
            Fig6Run::Multi(multi) => multis.push(multi),
        }
    }
    let mut total_cycles = 0u64;
    let rows = benches
        .iter()
        .zip(singles.iter().zip(multis.iter()))
        .map(|(&bench, (single, multi))| {
            total_cycles += single.cycles + multi.cycles;
            assemble_row(bench, scale, single, multi)
        })
        .collect();
    (rows, total_cycles)
}

/// Runs one single-core GeMM invocation with the performance counters and
/// AXI tracer enabled and returns the handle, so the artifact driver can
/// export profile artifacts next to the figure.
pub fn profiled_run(scale: &Fig6Scale) -> FpgaHandle {
    let platform = beethoven_platform();
    let opts = ElaborationOptions {
        profile: true,
        trace: true,
        ..ElaborationOptions::default()
    };
    let ds = drivers(scale);
    let driver = ds
        .iter()
        .find(|d| d.bench == Bench::Gemm)
        .expect("GeMM driver exists");
    let soc = elaborate_with((driver.config)(1), &platform, opts).expect("elaborates");
    let handle = FpgaHandle::new(soc);
    handle.with_soc(|soc| soc.sample_perf());
    let args = (driver.setup)(&handle, 0);
    let resp = handle.call(driver.system, 0, args).expect("call");
    resp.get().expect("profiled invocation completes");
    handle.with_soc(|soc| soc.sample_perf());
    handle
}

/// Runs a single benchmark serially (used by tests and perfbench's
/// `machsuite` workload).
pub fn run_one(bench: Bench, scale: &Fig6Scale) -> Fig6Row {
    let single = run_single_core(bench, scale);
    let multi = run_multi_core(bench, scale);
    assemble_row(bench, scale, &single, &multi)
}

/// Renders the figure: speedups normalized to Vitis HLS, with bar labels.
pub fn render(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 6: MachSuite speedup over Vitis HLS (cores on measured bars)\n\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>10} {:>14} {:>18} {:>20}\n",
        "benchmark", "HLS", "Spatial", "Beethoven(1c)", "Beethoven(Ideal)", "Beethoven(Measured)"
    ));
    out.push_str(&"-".repeat(88));
    out.push('\n');
    for row in rows {
        out.push_str(&format!(
            "{:<12} {:>10.2} {:>10.2} {:>14.2} {:>18.2} {:>17.2}[{}]\n",
            row.bench.name(),
            1.0,
            row.spatial / row.hls,
            row.beethoven_1core / row.hls,
            row.ideal / row.hls,
            row.measured / row.hls,
            row.n_cores
        ));
    }
    out.push_str("\nAbsolute throughput (invocations/s):\n");
    for row in rows {
        out.push_str(&format!(
            "  {:<12} HLS {:>12.1}  Spatial {:>12.1}  Beethoven-measured {:>12.1}\n",
            row.bench.name(),
            row.hls,
            row.spatial,
            row.measured
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_nw_beats_hls_even_single_core() {
        let scale = Fig6Scale {
            cap_cores: 2,
            cmds_per_core: 1,
            ..Fig6Scale::small()
        };
        let row = run_one(Bench::Nw, &scale);
        assert!(
            row.beethoven_1core > row.hls,
            "NW single-core ({:.1}) should beat HLS ({:.1})",
            row.beethoven_1core,
            row.hls
        );
        assert!(row.measured > row.hls, "multi-core must also win");
        assert!(
            row.measured <= row.ideal * 1.05,
            "measured cannot beat ideal"
        );
    }

    #[test]
    fn small_scale_stencil3d_multicore_wins() {
        let scale = Fig6Scale {
            cap_cores: 4,
            cmds_per_core: 2,
            ..Fig6Scale::small()
        };
        let row = run_one(Bench::Stencil3d, &scale);
        assert!(row.n_cores >= 2);
        assert!(
            row.measured > row.beethoven_1core,
            "multi-core measured ({:.1}) should beat one core ({:.1})",
            row.measured,
            row.beethoven_1core
        );
        assert!(
            row.measured < row.ideal,
            "runtime overhead must keep measured ({:.1}) below ideal ({:.1})",
            row.measured,
            row.ideal
        );
    }

    #[test]
    fn render_contains_core_counts() {
        let rows = vec![Fig6Row {
            bench: Bench::Gemm,
            hls: 100.0,
            spatial: 50.0,
            beethoven_1core: 60.0,
            n_cores: 7,
            ideal: 420.0,
            measured: 300.0,
        }];
        let text = render(&rows);
        assert!(text.contains("[7]"));
        assert!(text.contains("GeMM"));
    }
}
