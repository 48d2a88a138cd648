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
//! through [`bsim::host::run_ordered`] (`BBENCH_JOBS` overrides the
//! worker count; `BBENCH_JOBS=1` is the exact serial path). Each
//! artifact has one driver, [`artifact::Artifact::regenerate`], shared by
//! its binary and `all`. **stdout is the deterministic artifact** —
//! figure and table bytes are identical at any worker count, which CI
//! enforces by diffing two `all --small` runs — while run diagnostics
//! (the `sim rate:` footers, profile-artifact paths, progress notes) go
//! to stderr.

#![warn(missing_docs)]

pub mod a3;
pub mod artifact;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod loadgen;
pub mod netgen;
pub mod profile;
pub mod table1;

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

/// The host-parallelism contract every sweep and `all` rely on: the
/// `BBENCH_JOBS` width override, and per-job sim rates merged over the
/// batch's wall-clock span.
#[cfg(test)]
mod par {
    mod tests {
        use bsim::host::{parse_jobs, run_ordered};
        use bsim::{MergedSimRate, SimRateTimer};

        #[test]
        fn jobs_env_override_parses_and_clamps() {
            assert_eq!(parse_jobs(None), None);
            assert_eq!(parse_jobs(Some("8")), Some(8));
            assert_eq!(parse_jobs(Some(" 2 ")), Some(2));
            assert_eq!(parse_jobs(Some("0")), Some(1), "0 clamps to serial");
            assert_eq!(parse_jobs(Some("four")), None, "typos fall through");
            assert_eq!(parse_jobs(Some("")), None);
        }

        #[test]
        fn timed_jobs_merge_cycles_and_span() {
            // Each job times itself, as an artifact job in `all` does.
            let jobs: Vec<_> = (1..=6u64)
                .map(|i| {
                    move || {
                        let timer = SimRateTimer::starting_at(0);
                        (i, timer.finish(i * 100))
                    }
                })
                .collect();
            let span = std::time::Instant::now();
            let (results, rates): (Vec<u64>, Vec<_>) = run_ordered(jobs, 3).into_iter().unzip();
            let merged = MergedSimRate::merge(rates, span.elapsed().as_secs_f64());
            assert_eq!(results, vec![1, 2, 3, 4, 5, 6]);
            assert_eq!(merged.jobs, 6);
            assert_eq!(merged.rate.cycles, 2100, "cycles sum over jobs");
        }
    }
}
