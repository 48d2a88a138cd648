//! One driver per §III artifact.
//!
//! [`Artifact::regenerate`] renders a figure or table, makes its
//! representative profiled run and writes its profile. Both the
//! single-artifact binaries ([`main`]) and `all` call it, so every
//! artifact is produced one way and `all --small` prints exactly the
//! single binaries' stdout, joined by blank lines.

use bcore::SocSim;
use bkernels::memcpy::{run_memcpy_profiled, MemcpyVariant};
use bsim::{SimRate, SimRateExt, SimRateTimer};

use crate::a3::{self, A3Scale};
use crate::fig6::{self, Fig6Scale};
use crate::{ablations, fig4, fig5, profile, table1};

/// One artifact of the paper's evaluation, declared in §III order, then
/// the design ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Artifact {
    /// Figure 4: memcpy bandwidth.
    Fig4,
    /// Figure 5: AXI timelines.
    Fig5,
    /// Table I: benchmark selection.
    Table1,
    /// Figure 6: MachSuite speedups.
    Fig6,
    /// Figure 7: A³ core structure.
    Fig7,
    /// Figure 8: A³ floorplan.
    Fig8,
    /// Table II: A³ utilization.
    Table2,
    /// Table III: attention throughput and energy.
    Table3,
    /// The design ablations.
    Ablations,
}

/// One regenerated artifact.
#[derive(Debug)]
pub struct Regenerated {
    /// The deterministic figure or table text (the stdout artifact).
    pub text: String,
    /// Simulated cycles over the host time the artifact took.
    pub rate: SimRate,
    /// For a profiled artifact: the note naming the written profile
    /// files, and the footer context measured on the profiled run.
    pub profile: Option<(String, SimRateExt)>,
}

impl Artifact {
    /// Runs the artifact's sweep on `workers` host threads, at the
    /// scaled-down size when `small` is set (Figure 5, Table I and the
    /// ablations have one size). Figures 4–6 and Table III also make one
    /// representative profiled run and write its profile (see
    /// [`profile::emit`]).
    pub fn regenerate(self, small: bool, workers: usize) -> Regenerated {
        let timer = SimRateTimer::starting_at(0);
        let a3_scale = || {
            if small {
                A3Scale::small()
            } else {
                A3Scale::paper()
            }
        };
        let (text, cycles, profile) = match self {
            Artifact::Fig4 => {
                let sizes = if small {
                    fig4::small_sizes()
                } else {
                    fig4::default_sizes()
                };
                let (rows, cycles) = fig4::run_on(&sizes, workers);
                // The Beethoven variant at the largest size.
                let largest = *sizes.last().expect("non-empty sweep");
                let (_, soc) = run_memcpy_profiled(MemcpyVariant::Beethoven, largest);
                (fig4::render(&rows), cycles, Some(emit("fig4", &soc)))
            }
            Artifact::Fig5 => {
                let fig = fig5::run_on(workers);
                let (hls, beethoven, hdl) = fig.finish_cycles;
                // The figure's own 4 KiB copy, re-run with counters on.
                let (_, soc) = run_memcpy_profiled(MemcpyVariant::Beethoven16Beat, 4096);
                let profile = Some(emit("fig5", &soc));
                (fig5::render(&fig), hls + beethoven + hdl, profile)
            }
            Artifact::Table1 => (table1::render(), 0, None),
            Artifact::Fig6 => {
                let scale = if small {
                    Fig6Scale::small()
                } else {
                    Fig6Scale::paper()
                };
                let (rows, cycles) = fig6::run_on(&scale, workers);
                // One single-core GeMM invocation.
                let profile = fig6::profiled_run(&scale).with_soc(|soc| emit("fig6", soc));
                (fig6::render(&rows), cycles, Some(profile))
            }
            Artifact::Fig7 => (a3::fig7(&a3_scale()), 0, None),
            Artifact::Fig8 => (a3::fig8(&a3_scale()), 0, None),
            Artifact::Table2 => (a3::table2(&a3_scale()), 0, None),
            Artifact::Table3 => {
                let scale = a3_scale();
                let (rows, cycles) = a3::table3_on(&scale, workers);
                // One single-core load + attend round.
                let profile = a3::profiled_run(&scale).with_soc(|soc| emit("table3", soc));
                (a3::render_table3(&rows), cycles, Some(profile))
            }
            Artifact::Ablations => (ablations::render(), 0, None),
        };
        Regenerated {
            text,
            rate: timer.finish(cycles),
            profile,
        }
    }
}

/// Writes `soc`'s profile pair as `stem`; returns the stderr note and the
/// sim-rate footer context.
fn emit(stem: &str, soc: &SocSim) -> (String, SimRateExt) {
    let note = match profile::emit(stem, soc) {
        Ok(art) => format!(
            "wrote profile {} and trace {}",
            art.report.display(),
            art.trace.display()
        ),
        Err(e) => format!("could not write profile artifacts: {e}"),
    };
    (note, profile::sim_rate_ext(soc))
}

/// A single-artifact binary: regenerates `artifact` on the `BBENCH_JOBS`
/// width (`--small` picks the scaled-down size), prints its text on
/// stdout, and the profile note and `sim rate:` footer on stderr.
pub fn main(artifact: Artifact) {
    let workers = bsim::host::worker_count("BBENCH_JOBS");
    let out = artifact.regenerate(crate::small_requested(), workers);
    print!("{}", out.text);
    if let Some((note, ext)) = &out.profile {
        eprintln!("{note}");
        eprintln!("{}", out.rate.render_with(ext));
    }
}
