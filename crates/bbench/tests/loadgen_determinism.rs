//! The load generator's stdout is a deterministic artifact: for a fixed
//! seed it must be byte-identical at any `BBENCH_JOBS` worker count and
//! under both `bsim` scheduler modes (`BSIM_NAIVE=1` and the default
//! active-set scheduler). One test function owns the process-global
//! scheduler environment, so the mode sweep cannot race a concurrent
//! test in this binary.

use bbench::loadgen::{plan, render, run_on, LoadScale, RunOpts};

#[test]
fn loadgen_stdout_is_invariant_across_workers_and_scheduler_modes() {
    let scale = LoadScale {
        jobs: 24,
        ..LoadScale::small()
    };
    let seed = 42;
    let opts = RunOpts::default();
    assert_eq!(plan(seed, &scale).len(), scale.jobs);

    let saved_naive = std::env::var("BSIM_NAIVE").ok();
    std::env::remove_var("BSIM_NAIVE");

    // Reference: default scheduler, exact serial path.
    let (rows, cycles) = run_on(seed, &scale, &opts, 1);
    let reference = render(seed, &scale, &opts, &rows);

    // Worker-count sweep under the default scheduler.
    let (rows, c) = run_on(seed, &scale, &opts, 4);
    assert_eq!(c, cycles, "cycle totals must not depend on worker count");
    assert_eq!(
        render(seed, &scale, &opts, &rows),
        reference,
        "stdout must be byte-identical at any worker count"
    );

    // The naive oracle (re-read at SoC construction).
    std::env::set_var("BSIM_NAIVE", "1");
    let (rows, c) = run_on(seed, &scale, &opts, 2);
    match saved_naive {
        Some(v) => std::env::set_var("BSIM_NAIVE", v),
        None => std::env::remove_var("BSIM_NAIVE"),
    }
    assert_eq!(c, cycles, "BSIM_NAIVE=1: cycle totals must match");
    assert_eq!(
        render(seed, &scale, &opts, &rows),
        reference,
        "BSIM_NAIVE=1: stdout must be byte-identical under both schedulers"
    );
}
