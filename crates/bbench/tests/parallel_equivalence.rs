//! Serial-vs-parallel equivalence for the sweep executor
//! (`bsim::host::run_ordered`):
//! every figure harness must render byte-identical artifacts at any
//! worker count. Each simulation is a closed system and the executor
//! returns results in submission order, so these are exact `==`
//! comparisons — no tolerances.

use bbench::{fig4, fig5, fig6};

#[test]
fn fig4_renders_byte_identical_serial_and_parallel() {
    let sizes = [4 << 10, 16 << 10, 64 << 10];
    let (serial_rows, serial_cycles) = fig4::run_on(&sizes, 1);
    let (parallel_rows, parallel_cycles) = fig4::run_on(&sizes, 4);
    assert_eq!(serial_cycles, parallel_cycles, "cycle totals must match");
    assert_eq!(
        fig4::render(&serial_rows),
        fig4::render(&parallel_rows),
        "figure bytes must not depend on the worker count"
    );
}

#[test]
fn fig5_panels_are_identical_serial_and_parallel() {
    let serial = fig5::run_on(1);
    let parallel = fig5::run_on(3);
    assert_eq!(serial.finish_cycles, parallel.finish_cycles);
    assert_eq!(fig5::render(&serial), fig5::render(&parallel));
}

#[test]
fn fig6_rows_are_identical_serial_and_parallel() {
    let scale = fig6::Fig6Scale {
        cap_cores: 2,
        cmds_per_core: 1,
        ..fig6::Fig6Scale::small()
    };
    let (serial_rows, serial_cycles) = fig6::run_on(&scale, 1);
    let (parallel_rows, parallel_cycles) = fig6::run_on(&scale, 3);
    assert_eq!(serial_cycles, parallel_cycles, "cycle totals must match");
    assert_eq!(
        fig6::render(&serial_rows),
        fig6::render(&parallel_rows),
        "figure bytes must not depend on the worker count"
    );
}
