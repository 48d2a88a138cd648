//! # bbench — experiment harnesses regenerating every table and figure
//!
//! One module per artifact of the paper's evaluation (§III):
//!
//! | Artifact | Module | Binary |
//! |----------|--------|--------|
//! | Figure 4 (memcpy bandwidth) | [`fig4`] | `cargo run -p bbench --release --bin fig4` |
//! | Figure 5 (AXI timelines) | [`fig5`] | `... --bin fig5` |
//! | Table I (benchmark selection) | [`table1`] | `... --bin table1` |
//! | Figure 6 (MachSuite speedups) | [`fig6`] | `... --bin fig6` |
//! | Figure 7 (A³ structure) | [`a3`] | `... --bin fig7` |
//! | Figure 8 (A³ floorplan) | [`a3`] | `... --bin fig8` |
//! | Table II (A³ utilization) | [`a3`] | `... --bin table2` |
//! | Table III (throughput/energy) | [`a3`] | `... --bin table3` |
//! | Policy ablation (runtime server) | [`loadgen`] | `... --bin loadgen` |
//! | Networked loadgen + replay oracle | [`netgen`] | `... --bin bservd`, `... --bin loadgen -- --net/--oracle` |
//!
//! Binaries default to the paper's problem sizes; pass `--small` for a
//! quick, scaled-down run (used by the test suite, which cannot afford
//! paper-scale cycle counts in debug builds).
//!
//! ## Output contract and host parallelism
//!
//! Every sweep runs its independent SoC simulations across host cores
//! through [`par`] (`BBENCH_JOBS` overrides the worker count;
//! `BBENCH_JOBS=1` is the exact serial path). **stdout is the
//! deterministic artifact** — figure and table bytes are identical at any
//! worker count, which CI enforces by diffing two `all --small` runs —
//! while run diagnostics (the `sim rate:` footers, profile-artifact
//! paths, progress notes) go to stderr.

#![warn(missing_docs)]

pub mod a3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod loadgen;
pub mod netgen;
pub mod par;
pub mod profile;
pub mod table1;

pub use par::worker_count;

/// Returns true when `--small` was passed on the command line.
pub fn small_requested() -> bool {
    std::env::args().any(|a| a == "--small")
}

/// The value following flag `name` on the command line, parsed as `T`;
/// `None` when the flag is absent. A flag whose value is missing or does
/// not parse ends the process with exit status 2 and a message naming
/// the flag, so a typo never silently falls back to a default.
pub fn parse_flag<T: std::str::FromStr>(name: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    let parsed = match args.get(i + 1) {
        Some(v) => v
            .parse()
            .map_err(|e| format!("bad value '{v}' for {name}: {e}")),
        None => Err(format!("{name} needs a value")),
    };
    Some(parsed.unwrap_or_else(|msg| {
        let program = args.first().map_or("bbench", |a| {
            a.rsplit(std::path::MAIN_SEPARATOR).next().unwrap_or(a)
        });
        eprintln!("{program}: {msg}");
        std::process::exit(2);
    }))
}

/// Runs `f` under a host-clock timer and prints a `sim rate:` footer (to
/// stderr, with the rest of the run diagnostics — stdout carries only
/// deterministic figure bytes) from the simulated cycle total `f` reports
/// next to its result. Binaries wrap their figure runs in this so every
/// artifact records the kernel's simulation rate (see `bsim::SimRate`).
pub fn with_sim_rate<R>(f: impl FnOnce() -> (R, u64)) -> R {
    let timer = bsim::SimRateTimer::starting_at(0);
    let (result, cycles) = f();
    eprintln!("{}", timer.finish(cycles).render());
    result
}

/// [`with_sim_rate`] with the extended footer: `f` additionally reports a
/// [`bsim::SimRateExt`] (DRAM traffic, achieved bandwidth, scheduler skip
/// ratio — see [`profile::sim_rate_ext`]) measured on its representative
/// profiled run.
pub fn with_sim_rate_ext<R>(f: impl FnOnce() -> (R, u64, bsim::SimRateExt)) -> R {
    let timer = bsim::SimRateTimer::starting_at(0);
    let (result, cycles, ext) = f();
    eprintln!("{}", timer.finish(cycles).render_with(&ext));
    result
}
