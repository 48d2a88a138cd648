//! Property tests for [`bsim::MergedSimRate`]: merging per-job rates over
//! a shared span must conserve the simulated-cycle total (the quantity the
//! parallel sweep executor's serial-vs-parallel equivalence rests on) and
//! accumulate per-job host times into the serial estimate. Plus the
//! [`bsim::StatCounter`] contract: a resolved counter handle merges with
//! by-name bumps exactly as if every bump had been by name.

use bsim::{MergedSimRate, PerfRegistry, SimRate, Stats};
use proptest::prelude::*;

proptest! {
    /// The merged cycle total equals the serial sum of per-job cycles,
    /// for any batch and any span.
    #[test]
    fn merged_cycles_equal_serial_sum(
        cycles in proptest::collection::vec(0u64..1_000_000_000, 0..40),
        span_ms in 0u64..10_000,
    ) {
        let jobs: Vec<SimRate> = cycles
            .iter()
            .map(|&c| SimRate { cycles: c, host_seconds: c as f64 * 1e-9 })
            .collect();
        let serial_sum: u64 = cycles.iter().sum();
        let merged = MergedSimRate::merge(jobs.iter().copied(), span_ms as f64 * 1e-3);
        prop_assert_eq!(merged.rate.cycles, serial_sum);
        prop_assert_eq!(merged.jobs, cycles.len());
    }

    /// The serial estimate is the sum of per-job host times, and the
    /// reported span is exactly the one handed in — merging never mixes
    /// the two time bases.
    #[test]
    fn merged_times_keep_span_and_serial_apart(
        times_us in proptest::collection::vec(1u64..1_000_000, 1..20),
    ) {
        let jobs: Vec<SimRate> = times_us
            .iter()
            .map(|&us| SimRate { cycles: 1, host_seconds: us as f64 * 1e-6 })
            .collect();
        let serial: f64 = jobs.iter().map(|r| r.host_seconds).sum();
        // A parallel executor's span can never beat the longest job.
        let span = times_us.iter().copied().max().unwrap() as f64 * 1e-6;
        let merged = MergedSimRate::merge(jobs.iter().copied(), span);
        prop_assert!((merged.serial_seconds - serial).abs() <= 1e-9 * serial.max(1.0));
        prop_assert!((merged.rate.host_seconds - span).abs() < 1e-12);
        // Speedup = serial/span >= 1 in that regime.
        prop_assert!(merged.speedup() >= 1.0 - 1e-9);
    }

    /// Any interleaving of handle and by-name bumps leaves the bag as the
    /// same bumps all made by name would.
    #[test]
    fn handle_and_by_name_bumps_merge(
        bumps in proptest::collection::vec((0usize..3, any::<bool>(), 0u64..5), 0..40),
    ) {
        let names = ["r_beats", "w_beats", "b_sent"];
        let mixed = Stats::new();
        let handles: Vec<_> = names.iter().map(|n| mixed.counter(n)).collect();
        let by_name = Stats::new();
        for &(which, via_handle, delta) in &bumps {
            if via_handle {
                handles[which].add(delta);
            } else {
                mixed.add(names[which], delta);
            }
            by_name.add(names[which], delta);
        }
        prop_assert_eq!(mixed.snapshot(), by_name.snapshot());
        for name in names {
            prop_assert_eq!(mixed.get(name), by_name.get(name));
        }
    }
}

#[test]
fn handle_name_is_absent_until_first_bump() {
    let stats = Stats::new();
    let beats = stats.counter("r_beats");
    let _never = stats.counter("never_bumped");
    assert!(stats.counters().is_empty());
    assert!(stats.snapshot().counters.is_empty());
    assert_eq!(stats.get("r_beats"), 0);
    // `add(0)` through a handle creates the counter, as a by-name
    // `add(0)` does.
    beats.add(0);
    assert_eq!(stats.counters(), vec![("r_beats".to_owned(), 0)]);
    beats.incr();
    stats.add("r_beats", 2);
    assert_eq!(stats.get("r_beats"), 3);
    // Clones of the bag and of the handle share the one value.
    stats.clone().counter("r_beats").add(4);
    beats.clone().incr();
    assert_eq!(stats.counters(), vec![("r_beats".to_owned(), 8)]);
}

#[test]
fn handle_counters_reach_the_registry_with_reset_baselines() {
    let perf = PerfRegistry::new();
    let stats = Stats::new();
    let beats = stats.counter("r_beats");
    let issued = stats.counter("ar_issued");
    perf.set("reader0").attach_stats(&stats);
    assert!(
        perf.counters().is_empty(),
        "unbumped handles add no names to the registry"
    );
    beats.add(5);
    issued.incr();
    assert_eq!(perf.counter("reader0/r_beats"), Some(5));
    perf.reset();
    assert_eq!(perf.counter("reader0/r_beats"), Some(0));
    beats.add(2);
    stats.add("r_beats", 1);
    assert_eq!(perf.counter("reader0/r_beats"), Some(3));
    assert_eq!(perf.counter("reader0/ar_issued"), Some(0));
    assert_eq!(stats.get("r_beats"), 8, "reset never zeroes the source");
}
