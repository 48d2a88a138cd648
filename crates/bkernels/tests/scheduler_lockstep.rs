//! End-to-end lockstep guard for the schedulers: the same full-SoC
//! workload (elaborated cores, AXI interconnect, memory controller, DRAM
//! with refresh) is driven once per scheduler mode — naive
//! cycle-by-cycle stepping and the active-set heap scheduler with its
//! fast-forward (`SocSim::set_event_driven`) — through a command / long
//! idle gap / command sequence, and every observable must be
//! byte-identical: response cycles, final `now`, result bytes, DRAM
//! statistics (refreshes across the skipped gap included), controller
//! counters, and the full performance-counter registry (minus the
//! `scheduler/` namespace, which *describes* the scheduling work and so
//! is the one legitimately mode-dependent corner).
//!
//! Two SoC shapes run the sequence: the single memcpy core, and one busy
//! core of a many-core vector-add SoC whose other cores never see a
//! command, so the active-set scheduler ticks a small part of the SoC
//! while the busy core works.

use std::collections::BTreeMap;

use bcore::elaborate;
use bkernels::{memcpy, vecadd};
use bplatform::Platform;

const SRC: u64 = 0x10_0000;
const DST: u64 = 0x80_0000;
const BYTES: u64 = 16 * 1024;
/// Long enough to span many tREFI windows at the fabric clock.
const IDLE_GAP_CYCLES: u64 = 400_000;
/// Cores in the vector-add SoC; core 0 is the busy one.
const VECADD_CORES: u32 = 8;

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// The memcpy core copies `SRC` to `DST`, then `DST` back to
    /// `SRC + BYTES`.
    Memcpy,
    /// Core 0 of the vector-add SoC adds 1, then 2, to the words at `SRC`
    /// in place.
    VecAddOneBusyCore,
}

impl Shape {
    /// The two commands for core 0 and where their result lands.
    fn commands(self) -> ([BTreeMap<String, u64>; 2], u64) {
        match self {
            Shape::Memcpy => {
                let args = |src, dst| {
                    [
                        ("src".to_owned(), src),
                        ("dst".to_owned(), dst),
                        ("len".to_owned(), BYTES),
                    ]
                    .into_iter()
                    .collect()
                };
                ([args(SRC, DST), args(DST, SRC + BYTES)], SRC + BYTES)
            }
            Shape::VecAddOneBusyCore => {
                let n_eles = (BYTES / 4) as u32;
                let args = |addend| vecadd::args(addend, SRC, n_eles);
                ([args(1), args(2)], SRC)
            }
        }
    }

    /// The result bytes both commands leave behind.
    fn expected(self, payload: &[u8]) -> Vec<u8> {
        match self {
            Shape::Memcpy => payload.to_vec(),
            Shape::VecAddOneBusyCore => {
                let words: Vec<u32> = payload
                    .chunks_exact(4)
                    .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
                    .collect();
                // Adding 1, then 2, is adding 3.
                vecadd::reference(&words, 3)
                    .into_iter()
                    .flat_map(u32::to_le_bytes)
                    .collect()
            }
        }
    }
}

fn payload() -> Vec<u8> {
    (0..BYTES).map(|i| (i % 251) as u8).collect()
}

struct Run {
    elapsed_first: u64,
    elapsed_second: u64,
    final_now: u64,
    result: Vec<u8>,
    dram: bdram::ChannelStats,
    controller: bsim::StatsSnapshot,
    /// Every perf counter outside the `scheduler/` namespace.
    counters: Vec<(String, u64)>,
}

fn drive(shape: Shape, event_driven: bool) -> Run {
    let config = match shape {
        Shape::Memcpy => memcpy::config(),
        Shape::VecAddOneBusyCore => vecadd::config(VECADD_CORES),
    };
    let mut soc = elaborate(config, &Platform::aws_f1()).expect("SoC elaborates");
    soc.set_event_driven(event_driven);
    soc.set_profiling(true);
    soc.memory().borrow_mut().write(SRC, &payload());
    let ([first, second], result_at) = shape.commands();

    let token = soc.send_command(0, 0, &first).expect("send");
    let elapsed_first = soc
        .run_until_response(token, 100_000_000)
        .expect("first command");

    // A quiescent stretch: cores idle, channels drained, only DRAM refresh
    // has anything to do. This is the region fast-forward collapses.
    soc.run_for(IDLE_GAP_CYCLES);

    // Timing of the second command, after the gap, must line up exactly.
    let token = soc.send_command(0, 0, &second).expect("send");
    let elapsed_second = soc
        .run_until_response(token, 100_000_000)
        .expect("second command");

    Run {
        elapsed_first,
        elapsed_second,
        final_now: soc.now(),
        result: soc.memory().borrow().read_vec(result_at, BYTES as usize),
        dram: soc.dram_stats(),
        controller: soc.controller_stats().snapshot(),
        counters: soc
            .perf_counters()
            .into_iter()
            .filter(|(name, _)| !name.starts_with("scheduler/"))
            .collect(),
    }
}

#[test]
fn all_scheduler_modes_are_byte_identical() {
    for shape in [Shape::Memcpy, Shape::VecAddOneBusyCore] {
        let naive = drive(shape, false);
        let run = drive(shape, true);
        assert_eq!(
            naive.elapsed_first, run.elapsed_first,
            "{shape:?}: first response cycle diverged"
        );
        assert_eq!(
            naive.elapsed_second, run.elapsed_second,
            "{shape:?}: second response cycle diverged"
        );
        assert_eq!(
            naive.final_now, run.final_now,
            "{shape:?}: final cycle diverged"
        );
        assert_eq!(naive.result, run.result, "{shape:?}: result bytes diverged");
        assert_eq!(naive.dram, run.dram, "{shape:?}: DRAM stats diverged");
        assert_eq!(
            naive.controller, run.controller,
            "{shape:?}: controller stats diverged"
        );
        assert_eq!(
            naive.counters, run.counters,
            "{shape:?}: perf counters diverged"
        );

        // The gap really was refresh-active — otherwise this test would
        // not exercise the DRAM wake-up math it exists to guard.
        assert!(
            naive.dram.refreshes > 0,
            "{shape:?}: idle gap saw no refreshes"
        );
        // And the counter comparison really covered the SoC, not an empty
        // set.
        assert!(
            !naive.counters.is_empty(),
            "{shape:?}: profiling left no non-scheduler counters to compare"
        );
        assert_eq!(
            naive.result,
            shape.expected(&payload()),
            "{shape:?}: result bytes corrupted"
        );
    }
}
