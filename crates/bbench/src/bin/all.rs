//! Regenerates every table and figure in one run (the full §III
//! evaluation). Pass `--small` for the scaled-down variant.
//!
//! Each artifact is one [`bsim::host::run_ordered`] job running the same
//! driver as its own binary ([`bbench::artifact::Artifact::regenerate`]),
//! so the figures regenerate concurrently across host cores
//! (`BBENCH_JOBS` overrides the worker count; `BBENCH_JOBS=1` is the
//! exact serial path). Inside an artifact the sweep runs serially so the
//! artifact jobs do not oversubscribe the pool. stdout is the eight
//! binaries' stdout in §III order, joined by blank lines, whichever
//! artifact finished first; CI checks both that and that two `--small`
//! runs at different worker counts match. Profile notes (honoring
//! `BBENCH_PROFILE_DIR`) and the merged `sim rate:` footer go to stderr.

use bbench::artifact::Artifact;
use bsim::MergedSimRate;

fn main() {
    let small = bbench::small_requested();
    let workers = bsim::host::worker_count("BBENCH_JOBS");
    eprintln!("regenerating the full evaluation on {workers} worker(s) (BBENCH_JOBS overrides)");

    // Long poles (the multi-core Figure 6 sweep and the Table III FPGA
    // simulation) enter the queue first for a tighter makespan.
    let queue = [
        Artifact::Fig6,
        Artifact::Table3,
        Artifact::Fig4,
        Artifact::Fig5,
        Artifact::Fig7,
        Artifact::Fig8,
        Artifact::Table2,
        Artifact::Table1,
    ];
    let span = std::time::Instant::now();
    let jobs = queue.map(|artifact| move || artifact.regenerate(small, 1));
    let mut done: Vec<_> = queue
        .into_iter()
        .zip(bsim::host::run_ordered(jobs.into(), workers))
        .collect();
    let merged = MergedSimRate::merge(
        done.iter().map(|(_, out)| out.rate),
        span.elapsed().as_secs_f64(),
    );
    done.sort_by_key(|(artifact, _)| *artifact);
    for (note, _) in done.iter().filter_map(|(_, out)| out.profile.as_ref()) {
        eprintln!("{note}");
    }
    let texts: Vec<&str> = done.iter().map(|(_, out)| out.text.as_str()).collect();
    println!("{}", texts.join("\n\n"));
    eprintln!("{}", merged.render());
}
