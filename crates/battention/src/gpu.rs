//! The GPU baseline of Table III: an analytical roofline model of batched
//! FP16 attention on an RTX 3090, calibrated to the measurement the paper
//! reports (5.0 Mops/s at 320 W, batch 1024×18).
//!
//! We cannot run a 3090; per the substitution rule we model the terms that
//! bound it — FLOPs against an effective tensor throughput, K/V traffic
//! against memory bandwidth, and a fixed per-batch launch overhead — with
//! parameters documented here. The default efficiency is set so the model
//! lands on the published figure for the paper's exact configuration; the
//! parameters are public so the benches can sweep them.

use crate::fixed::AttentionParams;

/// Analytical GPU attention model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Peak FP16 throughput, FLOP/s (3090: ~71e12 with FP16 accumulate).
    pub peak_flops: f64,
    /// Fraction of peak achieved by small-matrix attention kernels.
    ///
    /// Attention at d=64 has low arithmetic intensity and launches many
    /// small GEMMs; published profiles put effective utilization in the
    /// low single-digit percent. 0.6% reproduces the paper's measured
    /// 5.0 Mops/s.
    pub efficiency: f64,
    /// Memory bandwidth, bytes/s (3090: 936e9).
    pub mem_bandwidth: f64,
    /// Kernel launch + sync overhead per batch, seconds.
    pub launch_overhead_s: f64,
    /// Batch size (the paper uses 1024 × 18).
    pub batch: usize,
    /// Board power, watts.
    pub power_w: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        Self {
            peak_flops: 71e12,
            efficiency: 0.006,
            mem_bandwidth: 936e9,
            launch_overhead_s: 50e-6,
            batch: 1024 * 18,
            power_w: 320.0,
        }
    }
}

impl GpuModel {
    /// FLOPs per attention op: QKᵀ (2nd per key) + softmax (≈5n) + AV.
    pub fn flops_per_op(&self, params: &AttentionParams) -> f64 {
        let n = params.keys as f64;
        let d = params.dim as f64;
        2.0 * n * d + 5.0 * n + 2.0 * n * d
    }

    /// Bytes of unavoidable DRAM traffic per op (Q in, out back; K/V are
    /// resident and amortized across the batch).
    pub fn bytes_per_op(&self, params: &AttentionParams) -> f64 {
        let d = params.dim as f64;
        let kv = 2.0 * params.keys as f64 * d * 2.0 / self.batch as f64;
        2.0 * d * 2.0 + kv // fp16 query + output, plus amortized K/V
    }

    /// Modelled attention throughput, ops/second.
    pub fn ops_per_sec(&self, params: &AttentionParams) -> f64 {
        let compute_s = self.flops_per_op(params) / (self.peak_flops * self.efficiency);
        let memory_s = self.bytes_per_op(params) / self.mem_bandwidth;
        let overhead_s = self.launch_overhead_s / self.batch as f64;
        1.0 / (compute_s.max(memory_s) + overhead_s)
    }

    /// Energy per op in joules.
    pub fn energy_per_op(&self, params: &AttentionParams) -> f64 {
        self.power_w / self.ops_per_sec(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bert() -> AttentionParams {
        AttentionParams { dim: 64, keys: 320 }
    }

    #[test]
    fn default_model_reproduces_the_papers_5mops() {
        let m = GpuModel::default();
        let ops = m.ops_per_sec(&bert());
        assert!(
            (4.0e6..6.5e6).contains(&ops),
            "modelled GPU throughput {ops:.3e} should be near the published 5.0e6"
        );
    }

    #[test]
    fn energy_per_op_matches_table3_order() {
        let m = GpuModel::default();
        let e = m.energy_per_op(&bert()) * 1e6; // µJ
        assert!(
            (40.0..90.0).contains(&e),
            "GPU energy/op {e:.1} µJ should be near Table III's 63.5"
        );
    }

    #[test]
    fn bigger_batch_amortizes_overhead() {
        let small = GpuModel {
            batch: 64,
            ..GpuModel::default()
        };
        let large = GpuModel::default();
        assert!(large.ops_per_sec(&bert()) >= small.ops_per_sec(&bert()));
    }

    #[test]
    fn compute_bound_for_bert_sizes() {
        let m = GpuModel::default();
        let p = bert();
        let compute_s = m.flops_per_op(&p) / (m.peak_flops * m.efficiency);
        let memory_s = m.bytes_per_op(&p) / m.mem_bandwidth;
        assert!(
            compute_s > memory_s,
            "the calibrated model is effective-compute bound"
        );
    }
}
