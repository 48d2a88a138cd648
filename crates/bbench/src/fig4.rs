//! Figure 4: memcpy bandwidth across methodology variants and sizes.

use bkernels::memcpy::{loc_comparison, run_memcpy, MemcpyResult, MemcpyVariant};

/// One figure row: a variant's bandwidth at each size.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Methodology label.
    pub label: &'static str,
    /// `(bytes, GB/s)` series.
    pub series: Vec<(u64, f64)>,
}

/// Default size sweep: 4 KiB to 4 MiB, like the paper's microbenchmark.
pub fn default_sizes() -> Vec<u64> {
    vec![4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20]
}

/// A reduced sweep for quick runs.
pub fn small_sizes() -> Vec<u64> {
    vec![4 << 10, 32 << 10]
}

/// Runs the sweep on `workers` host threads and returns the rows plus
/// the total simulated fabric cycles (for the sim-rate footer). Every
/// `(variant, size)` cell is a pure job — it elaborates, drives, and
/// checks its own SoC and returns the [`MemcpyResult`] — so the sweep
/// parallelizes without shared state, and any worker count produces the
/// same rows (the `parallel_equivalence` test compares the rendered
/// bytes).
pub fn run_on(sizes: &[u64], workers: usize) -> (Vec<Fig4Row>, u64) {
    if sizes.is_empty() {
        let rows = MemcpyVariant::ALL
            .into_iter()
            .map(|variant| Fig4Row {
                label: variant.label(),
                series: Vec::new(),
            })
            .collect();
        return (rows, 0);
    }
    let jobs: Vec<_> = MemcpyVariant::ALL
        .into_iter()
        .flat_map(|variant| {
            sizes
                .iter()
                .map(move |&bytes| move || run_memcpy(variant, bytes))
        })
        .collect();
    let cells: Vec<MemcpyResult> = bsim::host::run_ordered(jobs, workers);
    let mut total_cycles = 0u64;
    let rows = cells
        .chunks(sizes.len())
        .map(|row_cells| Fig4Row {
            label: row_cells[0].variant.label(),
            series: row_cells
                .iter()
                .map(|cell| {
                    total_cycles += cell.cycles;
                    (cell.bytes, cell.gbps)
                })
                .collect(),
        })
        .collect();
    (rows, total_cycles)
}

/// Renders the figure as a table plus the §III-A lines-of-code footer.
pub fn render(rows: &[Fig4Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 4: Memcpy bandwidth on the simulated AWS F1 platform (GB/s copied)\n\n");
    out.push_str(&format!("{:<22}", "size"));
    if let Some(first) = rows.first() {
        for (bytes, _) in &first.series {
            out.push_str(&format!("{:>12}", human_bytes(*bytes)));
        }
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<22}", row.label));
        for (_, gbps) in &row.series {
            out.push_str(&format!("{gbps:>12.2}"));
        }
        out.push('\n');
    }
    out.push_str("\nLines of code (paper, §III-A): implementation + config/pragmas\n");
    for (name, imp, cfg) in loc_comparison() {
        out.push_str(&format!("  {name:<12} {imp:>4} + {cfg}\n"));
    }
    out
}

fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}MiB", bytes >> 20)
    } else {
        format!("{}KiB", bytes >> 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_has_expected_shape() {
        let (rows, _) = run_on(&[16 << 10], 2);
        assert_eq!(rows.len(), 5);
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.label == label)
                .expect("row present")
                .series[0]
                .1
        };
        let beethoven = get("Beethoven");
        let hls = get("HLS");
        assert!(beethoven > hls, "Figure 4 ordering: Beethoven > HLS");
        let rendered = render(&rows);
        assert!(rendered.contains("Pure-HDL"));
        assert!(rendered.contains("470"));
    }
}
