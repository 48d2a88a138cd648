//! End-to-end lockstep guard for the schedulers: the same full-SoC
//! workload (elaborated memcpy core, AXI interconnect, memory controller,
//! DRAM with refresh) is driven once per scheduler mode — naive
//! cycle-by-cycle stepping and the active-set heap scheduler with its
//! fast-forward (`SocSim::set_event_driven`) — through a command / long
//! idle gap / command sequence, and every observable must be
//! byte-identical: response cycles, final `now`, copied bytes, DRAM
//! statistics (refreshes across the skipped gap included), controller
//! counters, and the full performance-counter registry (minus the
//! `scheduler/` namespace, which *describes* the scheduling work and so
//! is the one legitimately mode-dependent corner).

use bcore::elaborate;
use bkernels::memcpy;
use bplatform::Platform;

const SRC: u64 = 0x10_0000;
const DST: u64 = 0x80_0000;
const BYTES: u64 = 16 * 1024;
/// Long enough to span many tREFI windows at the fabric clock.
const IDLE_GAP_CYCLES: u64 = 400_000;

struct Run {
    elapsed_first: u64,
    elapsed_second: u64,
    final_now: u64,
    copied: Vec<u8>,
    dram: bdram::ChannelStats,
    controller: bsim::StatsSnapshot,
    /// Every perf counter outside the `scheduler/` namespace.
    counters: Vec<(String, u64)>,
}

fn drive(event_driven: bool) -> Run {
    let mut soc = elaborate(memcpy::config(), &Platform::aws_f1()).expect("memcpy elaborates");
    soc.set_event_driven(event_driven);
    soc.set_profiling(true);
    let payload: Vec<u8> = (0..BYTES).map(|i| (i % 251) as u8).collect();
    soc.memory().borrow_mut().write(SRC, &payload);
    let args = |src, dst| {
        [
            ("src".to_owned(), src),
            ("dst".to_owned(), dst),
            ("len".to_owned(), BYTES),
        ]
        .into_iter()
        .collect()
    };

    let token = soc.send_command(0, 0, &args(SRC, DST)).expect("send");
    let elapsed_first = soc
        .run_until_response(token, 100_000_000)
        .expect("first copy");

    // A quiescent stretch: cores idle, channels drained, only DRAM refresh
    // has anything to do. This is the region fast-forward collapses.
    soc.run_for(IDLE_GAP_CYCLES);

    // Copy back the other way; timing after the gap must line up exactly.
    let token = soc
        .send_command(0, 0, &args(DST, SRC + BYTES))
        .expect("send");
    let elapsed_second = soc
        .run_until_response(token, 100_000_000)
        .expect("second copy");

    Run {
        elapsed_first,
        elapsed_second,
        final_now: soc.now(),
        copied: soc.memory().borrow().read_vec(SRC + BYTES, BYTES as usize),
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
    let naive = drive(false);
    let run = drive(true);
    assert_eq!(
        naive.elapsed_first, run.elapsed_first,
        "first response cycle diverged"
    );
    assert_eq!(
        naive.elapsed_second, run.elapsed_second,
        "second response cycle diverged"
    );
    assert_eq!(naive.final_now, run.final_now, "final cycle diverged");
    assert_eq!(naive.copied, run.copied, "copied bytes diverged");
    assert_eq!(naive.dram, run.dram, "DRAM stats diverged");
    assert_eq!(
        naive.controller, run.controller,
        "controller stats diverged"
    );
    assert_eq!(naive.counters, run.counters, "perf counters diverged");

    // The gap really was refresh-active — otherwise this test would not
    // exercise the DRAM wake-up math it exists to guard.
    assert!(naive.dram.refreshes > 0, "idle gap saw no refreshes");
    // And the counter comparison really covered the SoC, not an empty set.
    assert!(
        !naive.counters.is_empty(),
        "profiling left no non-scheduler counters to compare"
    );
    let expect: Vec<u8> = (0..BYTES).map(|i| (i % 251) as u8).collect();
    assert_eq!(naive.copied, expect, "round-tripped payload corrupted");
}
