//! Cycle goldens for the kernels whose compute phase sleeps: GeMM, NW and
//! MD-KNN do a scratchpad-only phase in one tick and sleep through its
//! dense length (`n·⌈n/P⌉` cycles per GeMM row, `n²` for NW, `⌈n·k/P⌉`
//! for MD-KNN). The pinned sizes are not multiples of `P`, so a wrong
//! rounding in a sleep length moves the cycle a response lands on. Each
//! run also checks the output against the kernel's software reference.
//!
//! The stencils push `P` results a cycle as paced runs and sleep through
//! them. Their goldens also pin the stall counters a paced run and the
//! awaited loads charge in bulk. `n·n` and `n³` are odd, so a run's last
//! cycle is partial, and at `P = 32` the core outpaces the 64-byte W beat
//! until the writer has room for less than a cycle's words and the runs
//! shrink to one cycle each.
//!
//! The pinned cycles are those of the dense, one-tick-per-cycle cores; a
//! sleeping core must resume on exactly the cycle a dense one would.

use bcore::elaborate;
use bcore::elaborate::{elaborate_with, ElaborationOptions};
use bcore::SocSim;
use bkernels::machsuite::{gemm, mdknn, nw, stencil2d, stencil3d};
use bplatform::Platform;

/// Sends one command to core 0 of system 0 and returns the SoC's cycle
/// once its response is back.
fn invoke(soc: &mut SocSim, args: &std::collections::BTreeMap<String, u64>) -> u64 {
    let token = soc.send_command(0, 0, args).expect("send");
    soc.run_until_response(token, 50_000_000)
        .expect("kernel finishes");
    soc.now()
}

fn gemm_cycles(n: usize, p: usize) -> u64 {
    let (a_addr, b_addr, c_addr) = (0x1_0000, 0x8_0000, 0x10_0000);
    let mut soc = elaborate(gemm::config(1, n, p), &Platform::aws_f1()).unwrap();
    let (a, b) = gemm::workload(n, 1);
    {
        let mem = soc.memory();
        let mut mem = mem.borrow_mut();
        mem.write_u32_slice(a_addr, &a.iter().map(|&x| x as u32).collect::<Vec<_>>());
        mem.write_u32_slice(b_addr, &b.iter().map(|&x| x as u32).collect::<Vec<_>>());
    }
    let now = invoke(&mut soc, &gemm::args(a_addr, b_addr, c_addr, n));
    let c: Vec<i32> = soc
        .memory()
        .borrow()
        .read_u32_slice(c_addr, n * n)
        .into_iter()
        .map(|v| v as i32)
        .collect();
    assert_eq!(c, gemm::reference(&a, &b, n), "gemm n={n} p={p}");
    now
}

fn mdknn_cycles(n: usize, k: usize, p: usize) -> u64 {
    let (pos_addr, nl_addr, force_addr) = (0x1_0000, 0x2_0000, 0x3_0000);
    let mut soc = elaborate(mdknn::config(1, n, k, p), &Platform::aws_f1()).unwrap();
    let (pos, nl) = mdknn::workload(n, k, 2);
    {
        let mem = soc.memory();
        let mut mem = mem.borrow_mut();
        mem.write_u32_slice(
            pos_addr,
            &pos.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
        mem.write_u32_slice(nl_addr, &nl);
    }
    let now = invoke(&mut soc, &mdknn::args(pos_addr, nl_addr, force_addr, n, k));
    let force = soc.memory().borrow().read_u32_slice(force_addr, 3 * n);
    let expected: Vec<u32> = mdknn::reference(&pos, &nl, n, k)
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(force, expected, "md-knn n={n} k={k} p={p}");
    now
}

fn nw_cycles(n: usize) -> u64 {
    let (a_addr, b_addr, out_addr) = (0x1_0000, 0x2_0000, 0x3_0000);
    let mut soc = elaborate(nw::config(1, n), &Platform::aws_f1()).unwrap();
    let (a, b) = nw::workload(n, 4);
    {
        let mem = soc.memory();
        let mut mem = mem.borrow_mut();
        mem.write(a_addr, &a);
        mem.write(b_addr, &b);
    }
    let now = invoke(&mut soc, &nw::args(a_addr, b_addr, out_addr, n));
    let out = soc.memory().borrow().read_vec(out_addr, 4 * n);
    let (ref_a, ref_b) = nw::reference(&a, &b, n);
    assert_eq!(out, [ref_a, ref_b].concat(), "nw n={n}");
    now
}

#[test]
fn gemm_rows_sleep_n_times_ceil_n_over_p() {
    for ((n, p), cycles) in [((20, 16), 1367), ((30, 4), 8384), ((7, 3), 370)] {
        assert_eq!(gemm_cycles(n, p), cycles, "gemm n={n} p={p}");
    }
}

#[test]
fn mdknn_sleeps_ceil_nk_over_p() {
    for ((n, k, p), cycles) in [((9, 3, 4), 84), ((33, 5, 4), 165), ((10, 7, 3), 106)] {
        assert_eq!(mdknn_cycles(n, k, p), cycles, "md-knn n={n} k={k} p={p}");
    }
}

#[test]
fn nw_sleeps_n_squared() {
    for (n, cycles) in [(5, 115), (17, 429)] {
        assert_eq!(nw_cycles(n), cycles, "nw n={n}");
    }
}

/// A profiled single-core SoC on `aws_f1`.
fn profiled(config: bcore::AcceleratorConfig) -> SocSim {
    let opts = ElaborationOptions {
        profile: true,
        ..ElaborationOptions::default()
    };
    elaborate_with(config, &Platform::aws_f1(), opts).expect("elaborates")
}

/// The counter whose flattened name ends in `/suffix`.
fn counter(soc: &SocSim, suffix: &str) -> u64 {
    let suffix = format!("/{suffix}");
    soc.perf_counters()
        .into_iter()
        .find(|(name, _)| name.ends_with(&suffix))
        .unwrap_or_else(|| panic!("no counter {suffix}"))
        .1
}

fn words(v: &[i32]) -> Vec<u32> {
    v.iter().map(|&x| x as u32).collect()
}

fn stencil2d_run(n: usize, p: usize) -> SocSim {
    let (grid_addr, filter_addr, sol_addr) = (0x1_0000, 0x10_0000, 0x20_0000);
    let mut soc = profiled(stencil2d::config(1, n, p));
    let (grid, filter) = stencil2d::workload(n, 3);
    {
        let mem = soc.memory();
        let mut mem = mem.borrow_mut();
        mem.write_u32_slice(grid_addr, &words(&grid));
        mem.write_u32_slice(filter_addr, &words(&filter));
    }
    invoke(
        &mut soc,
        &stencil2d::args(grid_addr, filter_addr, sol_addr, n),
    );
    let sol = soc.memory().borrow().read_u32_slice(sol_addr, n * n);
    assert_eq!(
        sol,
        words(&stencil2d::reference(&grid, &filter, n)),
        "stencil2d n={n} p={p}"
    );
    soc
}

fn stencil3d_run(n: usize, p: usize) -> SocSim {
    let (grid_addr, sol_addr) = (0x1_0000, 0x20_0000);
    let (c0, c1) = (2, -1);
    let mut soc = profiled(stencil3d::config(1, n, p));
    let grid = stencil3d::workload(n, 5);
    soc.memory()
        .borrow_mut()
        .write_u32_slice(grid_addr, &words(&grid));
    invoke(&mut soc, &stencil3d::args(grid_addr, sol_addr, n, c0, c1));
    let sol = soc.memory().borrow().read_u32_slice(sol_addr, n * n * n);
    assert_eq!(
        sol,
        words(&stencil3d::reference(&grid, n, c0, c1)),
        "stencil3d n={n} p={p}"
    );
    soc
}

#[test]
fn stencil2d_paced_runs_land_on_dense_cycles() {
    for ((n, p), cycles) in [((7, 2), 101), ((33, 3), 596), ((100, 32), 1395)] {
        assert_eq!(stencil2d_run(n, p).now(), cycles, "stencil2d n={n} p={p}");
    }
    let soc = stencil2d_run(100, 32);
    assert_eq!(counter(&soc, "grid_in0/stall_inflight_cycles"), 412);
    assert_eq!(counter(&soc, "grid_in0/stall_prefetch_full_cycles"), 2);
    assert_eq!(counter(&soc, "sol0/stall_data_starved_cycles"), 687);
}

#[test]
fn stencil3d_paced_runs_land_on_dense_cycles() {
    for ((n, p), cycles) in [((5, 2), 143), ((9, 4), 380), ((24, 32), 1872)] {
        assert_eq!(stencil3d_run(n, p).now(), cycles, "stencil3d n={n} p={p}");
    }
    let soc = stencil3d_run(24, 32);
    assert_eq!(counter(&soc, "grid_in0/stall_inflight_cycles"), 669);
    assert_eq!(counter(&soc, "sol0/stall_data_starved_cycles"), 925);
}
