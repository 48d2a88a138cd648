//! A lockstep guard for the performance-counter layer: profiling must be
//! observation-only. The same full-SoC memcpy workload is driven with
//! counters disabled and enabled (in both scheduler modes), and every
//! simulated observable must be byte-identical — response cycles, final
//! `now`, copied bytes, DRAM statistics, and controller counters. A
//! profiling build that perturbs timing would defeat the whole point of
//! the counters.
//!
//! The gated counters themselves are *skip-invariant*: they increment in
//! busy-guarded paths (dense-ticked in both scheduler modes), on
//! command-driven events, or — for a data-starved writer, or a reader
//! held at its inflight cap or by a full prefetch buffer, which the
//! active-set scheduler stops ticking — as a charge of the skipped cycles
//! on the primitive's next tick and before every host counter read. So
//! the flattened counter values, apart from the `scheduler/*` counters,
//! which measure the scheduler rather than the hardware, must also match
//! between the naive and event-driven runs: at the end of a run, and at
//! every read in the middle of one.

use bcore::elaborate::{elaborate_with, ElaborationOptions};
use bcore::{AcceleratorConfig, SocSim};
use bkernels::machsuite::{gemm, stencil2d};
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
        hardware_counters: hardware_counters(&soc),
    }
}

/// Flattened counters minus the mode-dependent `scheduler/*` ones.
fn hardware_counters(soc: &SocSim) -> Vec<(String, u64)> {
    soc.perf_counters()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("scheduler/"))
        .collect()
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

/// Reads the counters `reads` times, every `stride` cycles from the start
/// of the command `start` sends to an SoC elaborated from `config` with
/// profiling on.
fn mid_run_reads(
    event_driven: bool,
    config: AcceleratorConfig,
    (stride, reads): (u64, usize),
    start: impl FnOnce(&mut SocSim),
) -> Vec<Vec<(String, u64)>> {
    let opts = ElaborationOptions {
        profile: true,
        ..ElaborationOptions::default()
    };
    let mut soc = elaborate_with(config, &Platform::aws_f1(), opts).expect("elaborates");
    soc.set_event_driven(event_driven);
    start(&mut soc);
    (0..reads)
        .map(|_| {
            soc.run_for(stride);
            hardware_counters(&soc)
        })
        .collect()
}

/// Checks that every mid-run read saw the same counters in both modes and
/// returns the last read's counter whose name ends in `suffix`.
fn assert_reads_match(
    naive: &[Vec<(String, u64)>],
    event: &[Vec<(String, u64)>],
    suffix: &str,
) -> u64 {
    for (read, (n, e)) in naive.iter().zip(event).enumerate() {
        assert_eq!(n.len(), e.len(), "counter read {read}: counter sets differ");
        for (n, e) in n.iter().zip(e) {
            assert_eq!(n, e, "counter read {read} differs between scheduler modes");
        }
    }
    naive
        .last()
        .and_then(|r| r.iter().find(|(name, _)| name.ends_with(suffix)))
        .map_or(0, |(_, v)| *v)
}

/// Reads the counters 40 times, every 97 cycles, while a GeMM command
/// runs. Its `Compute`
/// rows sleep and its writer, asked for the whole output up front, sits
/// data-starved meanwhile, so the active-set scheduler skips the writer's
/// ticks; each read must still see the starved cycles a dense run counts.
fn gemm_reads(event_driven: bool) -> Vec<Vec<(String, u64)>> {
    let n = 32;
    mid_run_reads(event_driven, gemm::config(1, n, 4), (97, 40), |soc| {
        let (a, b) = gemm::workload(n, 1);
        {
            let mem = soc.memory();
            let mut mem = mem.borrow_mut();
            mem.write_u32_slice(0x1_0000, &a.iter().map(|&x| x as u32).collect::<Vec<_>>());
            mem.write_u32_slice(0x8_0000, &b.iter().map(|&x| x as u32).collect::<Vec<_>>());
        }
        soc.send_command(0, 0, &gemm::args(0x1_0000, 0x8_0000, 0x10_0000, n))
            .expect("send");
    })
}

/// Reads the counters every `stride` cycles while a Stencil2D command
/// runs. Its grid reader sits at the inflight cap while the core awaits
/// its stream, and the core's paced runs leave its writer starved until
/// their bytes come due, so the active-set scheduler skips both; each
/// read must still see the stall cycles a dense run counts.
fn stencil2d_reads(event_driven: bool, reads: (u64, usize)) -> Vec<Vec<(String, u64)>> {
    let n = 100;
    mid_run_reads(event_driven, stencil2d::config(1, n, 32), reads, |soc| {
        let (grid, filter) = stencil2d::workload(n, 3);
        {
            let mem = soc.memory();
            let mut mem = mem.borrow_mut();
            mem.write_u32_slice(
                0x1_0000,
                &grid.iter().map(|&x| x as u32).collect::<Vec<_>>(),
            );
            mem.write_u32_slice(
                0x10_0000,
                &filter.iter().map(|&x| x as u32).collect::<Vec<_>>(),
            );
        }
        soc.send_command(0, 0, &stencil2d::args(0x1_0000, 0x10_0000, 0x20_0000, n))
            .expect("send");
    })
}

#[test]
fn mid_run_counter_reads_are_skip_invariant() {
    let starved = assert_reads_match(
        &gemm_reads(false),
        &gemm_reads(true),
        "stall_data_starved_cycles",
    );
    assert!(starved > 0, "the GeMM writer never sat data-starved?");
}

#[test]
fn mid_run_reads_see_a_capped_reader() {
    // Sixteen reads 97 cycles apart sample the whole run. The grid reader
    // is skipped while capped on only a few cycles that a read can land
    // on, so reads 3 cycles apart cover them too.
    for reads in [(97, 16), (3, 533)] {
        let capped = assert_reads_match(
            &stencil2d_reads(false, reads),
            &stencil2d_reads(true, reads),
            "grid_in0/stall_inflight_cycles",
        );
        assert!(
            capped > 0,
            "the Stencil2D grid reader never hit its inflight cap?"
        );
    }
}
