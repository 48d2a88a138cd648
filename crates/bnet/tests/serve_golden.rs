//! The serving rig's simulated outcomes, pinned. `perfbench`'s
//! `serve-inproc` workload feeds seeded open-loop vecadd segments to a
//! 2-shard fleet and counts every `Rejected` outcome as a failed
//! command. A host-speed change must never move those outcomes, so this
//! test replays the same shape of schedule and pins its outcome digest,
//! completed count and summed latency, with zero rejections, under both
//! `bsim` scheduler modes. One test function owns the process-global
//! `BSIM_NAIVE` variable, so the mode sweep cannot race another test in
//! this binary.

use bnet::{
    build, canonical_sort, outcome_digest, replay_on, KeyedOutcome, RigConfig, TraceCmd, WireJob,
    WireOutcome,
};
use bserver::DispatchPolicy;

/// `serve-inproc`'s rig: 2 shards × 2 vecadd cores, 8 tenants.
const RIG: RigConfig = RigConfig {
    policy: DispatchPolicy::Fifo,
    shards: 2,
    tenants: 8,
    n_cores: 2,
    queue_capacity: 8,
    buffer_eles: 256,
};

const SEGMENTS: usize = 4;
const PER_SEGMENT: usize = 1000;
/// Mean arrival gap: a vecadd core spends about 172 cycles per command
/// at these lengths, so 61 cycles offer about 70% of the 4 cores.
const MEAN_GAP: u64 = 61;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Segments of open-loop vecadds of 16–256 elements from uniformly
/// drawn tenants; arrival cycles restart at 0 in every segment, since
/// each segment is one `run_keyed` call.
fn segments(seed: u64, buffers: &[u64]) -> Vec<Vec<TraceCmd>> {
    let mut rng = Rng(seed);
    (0..SEGMENTS)
        .map(|s| {
            let mut at_cycle = 0;
            let mut segment: Vec<TraceCmd> = (0..PER_SEGMENT)
                .map(|i| {
                    let tenant = rng.range(0, RIG.tenants as u64 - 1) as u32;
                    let n_eles = rng.range(16, 256);
                    let cmd = TraceCmd {
                        tenant,
                        seq: (s * PER_SEGMENT + i) as u64,
                        job: WireJob {
                            at_cycle,
                            cost_hint: n_eles,
                            deadline_cycles: None,
                            args: vec![
                                ("addend".to_owned(), 1),
                                ("n_eles".to_owned(), n_eles),
                                ("vec_addr".to_owned(), buffers[tenant as usize]),
                            ],
                        },
                    };
                    at_cycle += rng.range(1, 2 * MEAN_GAP - 1);
                    cmd
                })
                .collect();
            canonical_sort(&mut segment);
            segment
        })
        .collect()
}

/// `(digest, completed, summed latency cycles)`; panics on a rejection.
fn summarize(outcomes: &[KeyedOutcome]) -> (u64, usize, u64) {
    let mut latency = 0;
    for (tenant, seq, outcome) in outcomes {
        match outcome {
            WireOutcome::Completed { latency_cycles, .. } => latency += latency_cycles,
            WireOutcome::Rejected { reason, .. } => {
                panic!("tenant {tenant} seq {seq} rejected ({reason:?})")
            }
        }
    }
    (outcome_digest(outcomes), outcomes.len(), latency)
}

#[test]
fn serve_inproc_outcomes_are_pinned_under_both_schedulers() {
    let buffers: Vec<u64> = build(&RIG).buffers.iter().map(|b| b.device_addr).collect();
    let segments = segments(1, &buffers);
    let golden = (0x75b4_9375_35f7_263f, 4000, 940_661);

    // Each segment is one `run_keyed` call on a fresh rig.
    let saved_naive = std::env::var("BSIM_NAIVE").ok();
    std::env::remove_var("BSIM_NAIVE");
    let active_set = replay_on(&mut build(&RIG), &segments);
    // The naive oracle (re-read at SoC construction).
    std::env::set_var("BSIM_NAIVE", "1");
    let naive = replay_on(&mut build(&RIG), &segments);
    match saved_naive {
        Some(v) => std::env::set_var("BSIM_NAIVE", v),
        None => std::env::remove_var("BSIM_NAIVE"),
    }

    assert_eq!(summarize(&active_set), golden, "active-set scheduler");
    assert_eq!(summarize(&naive), golden, "BSIM_NAIVE=1");
}
