//! The CPU baseline of Table III.
//!
//! The paper measured a 12-core Intel i7-12700K running FP32 attention at
//! 84.8 kops/s (75 W). We run a real multithreaded FP32 attention kernel
//! on the host and report both our measurement and the paper's figure; the
//! Figure/Table harnesses use the paper's constant for the published
//! comparison and ours for provenance.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::fixed::AttentionParams;

/// Outcome of the host CPU measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuBaselineResult {
    /// Attention ops per second measured on this host.
    pub measured_ops_per_sec: f64,
    /// Threads used.
    pub threads: usize,
    /// The paper's published figure for its i7-12700K.
    pub paper_ops_per_sec: f64,
    /// The paper's CPU package power assumption, watts.
    pub paper_power_w: f64,
}

/// One FP32 attention op (single query row against n×d keys/values),
/// matching Table III's op definition.
fn attention_f32(
    query: &[f32],
    keys: &[f32],
    values: &[f32],
    dim: usize,
    n: usize,
    out: &mut [f32],
) {
    let mut scores = vec![0f32; n];
    let mut max = f32::MIN;
    for (i, s) in scores.iter_mut().enumerate() {
        let mut acc = 0f32;
        for j in 0..dim {
            acc += query[j] * keys[i * dim + j];
        }
        *s = acc / (dim as f32).sqrt();
        max = max.max(*s);
    }
    let mut sum = 0f32;
    for s in &mut scores {
        *s = (*s - max).exp();
        sum += *s;
    }
    let inv = 1.0 / sum;
    out[..dim].fill(0.0);
    for i in 0..n {
        let w = scores[i] * inv;
        for j in 0..dim {
            out[j] += w * values[i * dim + j];
        }
    }
}

/// Measures multithreaded FP32 attention throughput on the host.
///
/// Runs `total_ops` attention ops across `threads` OS threads (clamped to
/// at least one; callers typically size this from their harness's worker
/// pool, e.g. `bsim::host::worker_count("BBENCH_JOBS")`, so the reported
/// `threads` matches the provenance they print) and returns ops/second.
/// Deterministic inputs; the result sum is black-boxed so the optimizer
/// cannot delete the work. This is the one real wall-clock measurement in the
/// evaluation — its ops/s varies run to run even single-threaded.
pub fn cpu_attention_throughput(
    params: &AttentionParams,
    threads: usize,
    total_ops: usize,
) -> CpuBaselineResult {
    let threads = threads.max(1);
    let dim = params.dim;
    let n = params.keys;
    let keys: Vec<f32> = (0..n * dim)
        .map(|i| ((i * 37 % 255) as f32 - 127.0) / 64.0)
        .collect();
    let values: Vec<f32> = (0..n * dim)
        .map(|i| ((i * 53 % 255) as f32 - 127.0) / 64.0)
        .collect();
    let counter = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let keys = &keys;
            let values = &values;
            let counter = &counter;
            scope.spawn(move || {
                let mut query = vec![0f32; dim];
                let mut out = vec![0f32; dim];
                let mut sink = 0f32;
                loop {
                    let op = counter.fetch_add(1, Ordering::Relaxed);
                    if op >= total_ops {
                        break;
                    }
                    for (j, q) in query.iter_mut().enumerate() {
                        *q = ((op * 13 + j * 7 + t) % 251) as f32 / 97.0 - 1.0;
                    }
                    attention_f32(&query, keys, values, dim, n, &mut out);
                    sink += out[0];
                }
                std::hint::black_box(sink);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    CpuBaselineResult {
        measured_ops_per_sec: total_ops as f64 / secs,
        threads,
        paper_ops_per_sec: 84.8e3,
        paper_power_w: 75.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_baseline_runs_and_reports() {
        let params = AttentionParams { dim: 64, keys: 64 };
        let result = cpu_attention_throughput(&params, 2, 200);
        assert!(result.measured_ops_per_sec > 0.0);
        assert_eq!(result.threads, 2);
        assert_eq!(result.paper_ops_per_sec, 84.8e3);
    }

    #[test]
    fn attention_f32_is_a_convex_combination() {
        let dim = 8;
        let n = 4;
        let query = vec![0.5f32; dim];
        let keys: Vec<f32> = (0..n * dim).map(|i| (i % 5) as f32 - 2.0).collect();
        let values = vec![3.0f32; n * dim];
        let mut out = vec![0f32; dim];
        attention_f32(&query, &keys, &values, dim, n, &mut out);
        for v in out {
            assert!(
                (v - 3.0).abs() < 1e-5,
                "constant values must yield the constant"
            );
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let params = AttentionParams { dim: 16, keys: 16 };
        let r = cpu_attention_throughput(&params, 0, 50);
        assert_eq!(r.threads, 1, "a zero request must not hang the scope");
        assert!(r.measured_ops_per_sec > 0.0);
    }

    #[test]
    fn more_threads_do_not_lose_ops() {
        let params = AttentionParams { dim: 32, keys: 32 };
        let r = cpu_attention_throughput(&params, 4, 400);
        assert!(r.measured_ops_per_sec.is_finite());
    }
}
