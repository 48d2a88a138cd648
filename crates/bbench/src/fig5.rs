//! Figure 5: annotated AXI transaction timelines for a 4 KiB memcpy.
//!
//! Reproduces the paper's three panels: (a) HLS — 4 requests @ 16 beats,
//! all on one AXI ID; (b) Beethoven — 4 requests @ 16 beats on different
//! IDs; (c) hand-written RTL — 1 request @ 64 beats.

use bkernels::memcpy::{run_memcpy_traced, MemcpyVariant};
use bsim::render_timeline;

/// The three panels, rendered.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Panel (a): HLS.
    pub hls: String,
    /// Panel (b): Beethoven (16-beat, multi-ID — the paper's comparison
    /// point for panel a).
    pub beethoven: String,
    /// Panel (c): hand-written RTL.
    pub pure_hdl: String,
    /// Completion cycles per panel `(hls, beethoven, hdl)`.
    pub finish_cycles: (u64, u64, u64),
}

/// Runs the three traced copies and writes `fig5_<variant>.vcd` waveform
/// files into `dir`; returns the written paths.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_vcds(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let bytes = 4096;
    let mut written = Vec::new();
    for (label, variant) in [
        ("hls", MemcpyVariant::Hls),
        ("beethoven", MemcpyVariant::Beethoven16Beat),
        ("pure_hdl", MemcpyVariant::PureHdl),
    ] {
        let result = run_memcpy_traced(variant, bytes);
        let vcd = bsim::to_vcd(&result.trace, 4_000); // 250 MHz fabric
        let path = dir.join(format!("fig5_{label}.vcd"));
        std::fs::write(&path, vcd)?;
        written.push(path);
    }
    Ok(written)
}

/// Runs the three traced 4 KiB copies on `workers` host threads and
/// renders their timelines. The panels are independent simulations.
pub fn run_on(workers: usize) -> Fig5 {
    let bytes = 4096;
    let width = 120;
    let jobs = [
        MemcpyVariant::Hls,
        MemcpyVariant::Beethoven16Beat,
        MemcpyVariant::PureHdl,
    ]
    .map(|variant| move || run_memcpy_traced(variant, bytes));
    let [hls, beethoven, hdl]: [_; 3] = bsim::host::run_ordered(jobs.into(), workers)
        .try_into()
        .expect("three panels");
    let cols = |r: &bkernels::memcpy::MemcpyResult| (r.cycles / width as u64).max(1);
    Fig5 {
        finish_cycles: (hls.cycles, beethoven.cycles, hdl.cycles),
        hls: render_timeline(&hls.trace, cols(&hls), width),
        beethoven: render_timeline(&beethoven.trace, cols(&beethoven), width),
        pure_hdl: render_timeline(&hdl.trace, cols(&hdl), width),
    }
}

/// Renders all three panels with captions.
pub fn render(fig: &Fig5) -> String {
    format!(
        "Figure 5: AXI timelines, 4KiB memcpy (one row per channel[id]; # = activity)\n\n\
         (a) HLS: 4 requests @16 beats, same AXI ID — finished in {} cycles\n{}\n\
         (b) Beethoven: 4 requests @16 beats, different AXI IDs — finished in {} cycles\n{}\n\
         (c) Hand-written RTL: 1 request @64 beats — finished in {} cycles\n{}\n",
        fig.finish_cycles.0,
        fig.hls,
        fig.finish_cycles.1,
        fig.beethoven,
        fig.finish_cycles.2,
        fig.pure_hdl
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_render_and_multi_id_wins() {
        let fig = run_on(3);
        assert!(fig.hls.contains("AR"));
        assert!(fig.beethoven.contains("AR"));
        assert!(fig.pure_hdl.contains("AR"));
        let (hls, beethoven, _hdl) = fig.finish_cycles;
        assert!(
            beethoven <= hls,
            "multi-ID 16-beat copy ({beethoven}) should finish no later than same-ID ({hls})"
        );
        let rendered = render(&fig);
        assert!(rendered.contains("(a) HLS"));
    }
}
