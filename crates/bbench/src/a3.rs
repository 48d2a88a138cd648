//! The A³ case-study harnesses: Figure 7 (core structure), Figure 8
//! (floorplan), Table II (utilization), Table III (throughput/energy).

use battention::{
    a3_config, attend_args, cpu_attention_throughput, load_kv_args, AttentionParams, EnergyModel,
    GpuModel, SYSTEM,
};
use bcore::SocSim;
use bplatform::Platform;
use bruntime::FpgaHandle;

/// Scale of an A³ run.
#[derive(Debug, Clone, Copy)]
pub struct A3Scale {
    /// Attention dimensions.
    pub params: AttentionParams,
    /// FPGA cores to instantiate (paper: 23).
    pub n_cores: u32,
    /// Queries per core in throughput runs.
    pub queries_per_core: usize,
    /// Attention ops for the host CPU measurement.
    pub cpu_ops: usize,
}

impl A3Scale {
    /// The paper's configuration: BERT dims, 23 cores.
    pub fn paper() -> Self {
        Self {
            params: AttentionParams { dim: 64, keys: 320 },
            n_cores: 23,
            queries_per_core: 64,
            cpu_ops: 2_000,
        }
    }

    /// A scaled-down configuration for quick runs and tests.
    pub fn small() -> Self {
        Self {
            params: AttentionParams { dim: 16, keys: 32 },
            n_cores: 3,
            queries_per_core: 16,
            cpu_ops: 200,
        }
    }
}

/// Elaboration options used for the A³ build: deeper stream buffers (the
/// design streams a query and a result row every `keys` cycles per core,
/// and the paper's congestion experience motivated generous buffering).
/// The added BRAM pressure is what pushes SLRs past the 80% threshold and
/// produces the paper's mixed BRAM/URAM scratchpad mappings (Table II).
pub fn a3_options() -> bcore::elaborate::ElaborationOptions {
    bcore::elaborate::ElaborationOptions {
        prefetch_bytes: 40 * 1024,
        staging_bytes: 32 * 1024,
        ..Default::default()
    }
}

/// Elaborates the A³ SoC on the AWS F1 platform.
pub fn a3_soc(scale: &A3Scale) -> SocSim {
    bcore::elaborate::elaborate_with(
        a3_config(scale.n_cores, scale.params),
        &Platform::aws_f1(),
        a3_options(),
    )
    .expect("A3 design fits the U200")
}

/// Measures multi-core attention throughput (ops/s) through the runtime.
/// Returns `(ops_per_sec, per_core_cycles_per_query, simulated_cycles)`;
/// the cycle total feeds the sim-rate footer.
pub fn measure_beethoven(scale: &A3Scale, platform: &Platform) -> (f64, f64, u64) {
    let soc = bcore::elaborate::elaborate_with(
        a3_config(scale.n_cores, scale.params),
        platform,
        a3_options(),
    )
    .expect("A3 elaborates");
    let clock_hz = soc.clock().freq_hz();
    let handle = FpgaHandle::new(soc);
    let elapsed = attend_round(&handle, scale);
    let total_ops = (scale.n_cores as usize * scale.queries_per_core) as f64;
    let ops_per_sec = total_ops / elapsed;
    let cycles_per_query = elapsed * clock_hz / (scale.queries_per_core as f64);
    (ops_per_sec, cycles_per_query, handle.now())
}

/// Loads the stationary K/V into every core, then has each core attend
/// `queries_per_core` queries. Returns the simulated seconds the attend
/// phase took.
fn attend_round(handle: &FpgaHandle, scale: &A3Scale) -> f64 {
    let p = scale.params;
    let (queries, keys, values) = battention::fixed::workload(&p, scale.queries_per_core, 99);

    // Stationary K/V, one copy per core (each core owns its scratchpads).
    let pk = handle.malloc((p.keys * p.dim) as u64).unwrap();
    let pv = handle.malloc((p.keys * p.dim) as u64).unwrap();
    handle.write_at(pk, 0, &keys.iter().map(|&v| v as u8).collect::<Vec<_>>());
    handle.write_at(pv, 0, &values.iter().map(|&v| v as u8).collect::<Vec<_>>());
    handle.copy_to_fpga(pk);
    handle.copy_to_fpga(pv);
    let mut loads = Vec::new();
    for core in 0..scale.n_cores as u16 {
        loads.push(
            handle
                .call(
                    SYSTEM,
                    core,
                    load_kv_args(pk.device_addr(), pv.device_addr(), p.keys),
                )
                .expect("load_kv"),
        );
    }
    for l in loads {
        l.get().expect("load_kv completes");
    }

    // Queries and outputs, one buffer pair per core.
    let qbytes = (scale.queries_per_core * p.dim) as u64;
    let mut buffers = Vec::new();
    for _ in 0..scale.n_cores {
        let pq = handle.malloc(qbytes).unwrap();
        let po = handle.malloc(qbytes).unwrap();
        handle.write_at(pq, 0, &queries.iter().map(|&v| v as u8).collect::<Vec<_>>());
        handle.copy_to_fpga(pq);
        buffers.push((pq, po));
    }
    let t0 = handle.elapsed_secs();
    let mut responses = Vec::new();
    for (core, (pq, po)) in buffers.iter().enumerate() {
        responses.push(
            handle
                .call(
                    SYSTEM,
                    core as u16,
                    attend_args(pq.device_addr(), po.device_addr(), scale.queries_per_core),
                )
                .expect("attend"),
        );
    }
    for r in responses {
        r.get().expect("attend completes");
    }
    handle.elapsed_secs() - t0
}

/// Runs one single-core A³ load + attend round with the performance
/// counters and AXI tracer enabled and returns the handle, so the
/// artifact driver can export profile artifacts next to Table III.
pub fn profiled_run(scale: &A3Scale) -> FpgaHandle {
    let opts = bcore::elaborate::ElaborationOptions {
        profile: true,
        trace: true,
        ..a3_options()
    };
    let soc =
        bcore::elaborate::elaborate_with(a3_config(1, scale.params), &Platform::aws_f1(), opts)
            .expect("A3 elaborates");
    let handle = FpgaHandle::new(soc);
    handle.with_soc(|soc| soc.sample_perf());
    let single = A3Scale {
        n_cores: 1,
        ..*scale
    };
    attend_round(&handle, &single);
    handle.with_soc(|soc| soc.sample_perf());
    handle
}

/// Figure 7: renders the core structure and its measured pipeline rate.
pub fn fig7(scale: &A3Scale) -> String {
    let single = A3Scale {
        n_cores: 1,
        ..*scale
    };
    let (_, cycles_per_query, _) = measure_beethoven(&single, &Platform::aws_f1());
    format!(
        "Figure 7: A3 core structure (as composed from Beethoven primitives)\n\
         \n\
         q_in Reader ──> [Stage 1: dot product, {dim}-wide MAC array,\n\
         keys SP ───┘     global MAX reduction]   ── one key/cycle\n\
         │ score FIFO (2 queries deep)\n\
         v\n\
         [Stage 2: exp LUT softmax, global SUM reduction] ── one score/cycle\n\
         │ weight FIFO (2 queries deep)\n\
         v\n\
         values SP ──> [Stage 3: weighted sum, {dim}-wide MAC array,\n\
         out Writer <──  reciprocal normalize]    ── one key/cycle\n\
         \n\
         Stages overlap across queries; steady state = {keys} cycles/query.\n\
         Measured: {cycles:.1} cycles/query on a single core.\n",
        dim = scale.params.dim,
        keys = scale.params.keys,
        cycles = cycles_per_query,
    )
}

/// Figure 8: the floorplan of the multi-core design.
pub fn fig8(scale: &A3Scale) -> String {
    let soc = a3_soc(scale);
    let report = soc.report();
    format!(
        "Figure 8: floorplan of the {}-core A3 accelerator on the U200\n\n{}\n\
         Placement constraints (excerpt):\n{}",
        scale.n_cores,
        report.floorplan_ascii,
        report
            .constraints
            .lines()
            .take(8)
            .collect::<Vec<_>>()
            .join("\n")
    )
}

/// Table II: the resource report of the composed design.
pub fn table2(scale: &A3Scale) -> String {
    let soc = a3_soc(scale);
    format!(
        "Table II: resource utilization of the {}-core A3 design\n\n{}",
        scale.n_cores,
        soc.report().render_table()
    )
}

/// One Table III row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Platform label.
    pub label: String,
    /// Throughput, attention ops per second.
    pub ops_per_sec: f64,
    /// Energy per op, microjoules.
    pub energy_uj: f64,
    /// Average power, watts.
    pub power_w: f64,
    /// Where the number comes from.
    pub provenance: String,
}

/// Table III: throughput and energy across platforms, on `workers` host
/// threads. Returns the rows plus the total simulated fabric cycles
/// across the FPGA and ASIC runs (for the sim-rate footer). Three jobs:
/// the multi-core FPGA simulation (the long pole, queued first), the
/// 1-core ASIC re-simulation, and the CPU + GPU baselines. The table is
/// assembled in the paper's fixed row order afterwards, so the rendered
/// bytes do not depend on scheduling. (The host-CPU row is a real
/// wall-clock measurement — the one number that varies run to run even
/// serially; its thread count is the `BBENCH_JOBS` width and is recorded
/// in the provenance.)
pub fn table3_on(scale: &A3Scale, workers: usize) -> (Vec<Table3Row>, u64) {
    let s = *scale;
    let threads = bsim::host::worker_count("BBENCH_JOBS");

    let fpga_job = move || {
        let soc = a3_soc(&s);
        let total_resources = soc.report().total;
        let fabric_mhz = soc.platform().fabric_mhz;
        drop(soc);
        let (fpga_ops, _, fpga_cycles) = measure_beethoven(&s, &Platform::aws_f1());
        let energy = EnergyModel::default();
        let power = energy.power(&total_resources, fabric_mhz);
        let rows = vec![Table3Row {
            label: format!("Beethoven ({} cores)", s.n_cores),
            ops_per_sec: fpga_ops,
            energy_uj: power.total_w / fpga_ops * 1e6,
            power_w: power.total_w,
            provenance: "cycle simulation + resource power model".to_owned(),
        }];
        (rows, fpga_cycles)
    };

    // The original 1-core ASIC at 1 GHz (we re-simulate it on the ASIC
    // platform; the paper quotes 2.94e6 ops/s).
    let asic_job = move || {
        let asic_scale = A3Scale { n_cores: 1, ..s };
        let (asic_ops, _, asic_cycles) = measure_beethoven(&asic_scale, &Platform::asap7_asic());
        let rows = vec![Table3Row {
            label: "1-Core ASIC @1GHz".to_owned(),
            ops_per_sec: asic_ops,
            energy_uj: f64::NAN,
            power_w: f64::NAN,
            provenance: "our core on the ASIC platform model; paper quotes 2.94e6".to_owned(),
        }];
        (rows, asic_cycles)
    };

    // CPU: real measurement on this host, plus the paper's constant and
    // the calibrated analytical GPU model.
    let baselines_job = move || {
        let cpu = cpu_attention_throughput(&s.params, threads, s.cpu_ops);
        let gpu = GpuModel::default();
        let rows = vec![
            Table3Row {
                label: "CPU (this host)".to_owned(),
                ops_per_sec: cpu.measured_ops_per_sec,
                energy_uj: cpu.paper_power_w / cpu.measured_ops_per_sec * 1e6,
                power_w: cpu.paper_power_w,
                provenance: format!(
                    "measured here, {} threads, paper's 75 W assumed",
                    cpu.threads
                ),
            },
            Table3Row {
                label: "CPU (paper i7-12700K)".to_owned(),
                ops_per_sec: cpu.paper_ops_per_sec,
                energy_uj: 885.1,
                power_w: 75.0,
                provenance: "paper Table III".to_owned(),
            },
            Table3Row {
                label: "GPU (3090 model)".to_owned(),
                ops_per_sec: gpu.ops_per_sec(&s.params),
                energy_uj: gpu.energy_per_op(&s.params) * 1e6,
                power_w: gpu.power_w,
                provenance: "roofline model calibrated to the paper's 5.0e6 ops/s".to_owned(),
            },
        ];
        (rows, 0u64)
    };

    type Job = Box<dyn FnOnce() -> (Vec<Table3Row>, u64) + Send>;
    let jobs: Vec<Job> = vec![
        Box::new(fpga_job),
        Box::new(asic_job),
        Box::new(baselines_job),
    ];
    let [(fpga_rows, fpga_cycles), (asic_rows, asic_cycles), (baseline_rows, _)]: [_; 3] =
        bsim::host::run_ordered(jobs, workers)
            .try_into()
            .expect("three jobs");

    // Fixed presentation order: CPU (host, paper), GPU, FPGA, ASIC.
    let mut rows = baseline_rows;
    rows.extend(fpga_rows);
    rows.extend(asic_rows);
    (rows, fpga_cycles + asic_cycles)
}

/// Renders Table III.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    out.push_str("Table III: attention throughput and energy\n\n");
    out.push_str(&format!(
        "{:<26} {:>14} {:>12} {:>10}   {}\n",
        "Platform", "Thpt (ops/s)", "E/op (uJ)", "Power (W)", "Provenance"
    ));
    out.push_str(&"-".repeat(110));
    out.push('\n');
    for row in rows {
        out.push_str(&format!(
            "{:<26} {:>14.3e} {:>12.2} {:>10.1}   {}\n",
            row.label, row.ops_per_sec, row.energy_uj, row.power_w, row.provenance
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_a3_pipeline_rate_near_keys_per_query() {
        let scale = A3Scale::small();
        let single = A3Scale {
            n_cores: 1,
            ..scale
        };
        let (ops, cycles_per_query, _) = measure_beethoven(&single, &Platform::sim());
        assert!(ops > 0.0);
        assert!(
            cycles_per_query < 4.0 * scale.params.keys as f64,
            "cycles/query {cycles_per_query:.1} should be near {}",
            scale.params.keys
        );
    }

    #[test]
    fn multicore_scales_attention_throughput() {
        let small = A3Scale::small();
        let single = A3Scale {
            n_cores: 1,
            ..small
        };
        let (one, ..) = measure_beethoven(&single, &Platform::sim());
        let (three, ..) = measure_beethoven(&small, &Platform::sim());
        assert!(
            three > 2.0 * one,
            "3 cores ({three:.0}) should be >2x one core ({one:.0})"
        );
    }

    #[test]
    fn fig8_table2_render_for_small_config() {
        let scale = A3Scale::small();
        let art = fig8(&scale);
        assert!(art.contains("SLR"));
        let table = table2(&scale);
        assert!(table.contains("A3System"));
    }
}
