//! A lockstep guard for the performance-counter layer: profiling must be
//! observation-only. The same full-SoC memcpy workload is driven with
//! counters disabled and enabled (in both scheduler modes), and every
//! simulated observable must be byte-identical — response cycles, final
//! `now`, copied bytes, DRAM statistics, and controller counters. A
//! profiling build that perturbs timing would defeat the whole point of
//! the counters.
//!
//! The gated counters themselves are *skip-invariant*: they only
//! increment in busy-guarded paths (dense-ticked in both scheduler
//! modes) or on command-driven events, so the flattened counter values —
//! apart from the `scheduler/*` pair, which measures the scheduler
//! rather than the hardware — must also match between the naive and
//! event-driven runs.

use bcore::elaborate::{elaborate_with, ElaborationOptions};
use bkernels::memcpy;
use bplatform::Platform;

const SRC: u64 = 0x10_0000;
const DST: u64 = 0x80_0000;
const BYTES: u64 = 16 * 1024;
const IDLE_GAP_CYCLES: u64 = 200_000;

struct Run {
    elapsed_first: u64,
    elapsed_second: u64,
    final_now: u64,
    copied: Vec<u8>,
    dram: bdram::ChannelStats,
    controller: bsim::StatsSnapshot,
    /// Flattened counters minus the mode-dependent `scheduler/*` pair.
    hardware_counters: Vec<(String, u64)>,
}

fn drive(event_driven: bool, profile: bool) -> Run {
    let opts = ElaborationOptions {
        profile,
        ..ElaborationOptions::default()
    };
    let mut soc =
        elaborate_with(memcpy::config(), &Platform::aws_f1(), opts).expect("memcpy elaborates");
    soc.set_event_driven(event_driven);
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

    // Quiescent stretch so the fast-forward path is exercised too.
    soc.run_for(IDLE_GAP_CYCLES);

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
        hardware_counters: soc
            .perf_counters()
            .into_iter()
            .filter(|(name, _)| !name.starts_with("scheduler/"))
            .collect(),
    }
}

fn assert_observables_match(a: &Run, b: &Run, what: &str) {
    assert_eq!(a.elapsed_first, b.elapsed_first, "{what}: first response");
    assert_eq!(
        a.elapsed_second, b.elapsed_second,
        "{what}: second response"
    );
    assert_eq!(a.final_now, b.final_now, "{what}: final cycle");
    assert_eq!(a.copied, b.copied, "{what}: copied bytes");
    assert_eq!(a.dram, b.dram, "{what}: DRAM stats");
    assert_eq!(a.controller, b.controller, "{what}: controller stats");
}

#[test]
fn profiling_does_not_perturb_cycle_counts() {
    for event_driven in [false, true] {
        let off = drive(event_driven, false);
        let on = drive(event_driven, true);
        assert_observables_match(
            &off,
            &on,
            &format!("profiling on/off, event_driven={event_driven}"),
        );
    }
}

#[test]
fn gated_counters_are_skip_invariant() {
    let naive = drive(false, true);
    let event = drive(true, true);
    assert_observables_match(&naive, &event, "scheduler modes, profiling on");
    assert_eq!(
        naive.hardware_counters, event.hardware_counters,
        "non-scheduler counters must not depend on the scheduler mode"
    );
    // The run actually produced counter traffic, including gated counters
    // that only exist with profiling enabled.
    let beats = naive
        .hardware_counters
        .iter()
        .find(|(n, _)| n == "mem0/r_beats")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(beats > 0, "memcpy produced no read beats?");
}
