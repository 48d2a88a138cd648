//! Criterion bench for the Table III attention stacks: the A³ FPGA core
//! simulation, the host CPU baseline kernel, and the analytic GPU model.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use battention::fixed::{attention_fixed, exp_lut, workload, AttentionParams};
use battention::{cpu_attention_throughput, GpuModel};
use bbench::a3::{measure_beethoven, A3Scale};
use bplatform::Platform;

fn bench_attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_attention");
    group.sample_size(10);

    // FPGA: single small core, simulated.
    let scale = A3Scale {
        n_cores: 1,
        ..A3Scale::small()
    };
    let (ops, cycles, _) = measure_beethoven(&scale, &Platform::sim());
    println!("table3 datum: A3 1-core sim {ops:.1} ops/s ({cycles:.0} cycles/query)");
    group.bench_function("a3_core_sim", |b| {
        b.iter(|| black_box(measure_beethoven(black_box(&scale), &Platform::sim())).0)
    });

    // CPU: the real multithreaded kernel.
    let params = AttentionParams { dim: 64, keys: 320 };
    let cpu = cpu_attention_throughput(&params, 2, 64);
    println!(
        "table3 datum: CPU {:.3e} ops/s measured here",
        cpu.measured_ops_per_sec
    );
    group.bench_function("cpu_attention_64ops", |b| {
        b.iter(|| black_box(cpu_attention_throughput(black_box(&params), 2, 64)))
    });

    // The fixed-point kernel itself (one op).
    let lut = exp_lut();
    let (queries, keys, values) = workload(&params, 1, 5);
    group.bench_function("fixed_point_attention_op", |b| {
        b.iter(|| {
            black_box(attention_fixed(
                &params,
                &lut,
                black_box(&queries[..params.dim]),
                &keys,
                &values,
            ))
        })
    });
    group.finish();

    // The GPU model is closed-form; print its datum for completeness.
    let gpu = GpuModel::default();
    println!(
        "table3 datum: GPU model {:.3e} ops/s",
        gpu.ops_per_sec(&params)
    );
}

criterion_group!(benches, bench_attention);
criterion_main!(benches);
