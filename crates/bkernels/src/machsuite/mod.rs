//! The MachSuite subset of Table I, as Beethoven accelerator cores.
//!
//! | Benchmark | Kernel | Size | Parallelism |
//! |-----------|--------|------|-------------|
//! | GeMM      | O(N³) matrix multiply | N = 256 | High |
//! | NW        | O(N²) string alignment | N = 256 | None |
//! | Stencil2D | 2D stencil pattern | N = 256 | Medium |
//! | Stencil3D | 3D stencil pattern | N = 32 | High |
//! | MD-KNN    | N-body via k-nearest neighbours | N = 1024, K = 32 | High |
//!
//! Every kernel has: a deterministic workload generator, a software
//! reference, a functional Beethoven core (computing real results through
//! the simulated memory system), and comparator cycle models for Vitis HLS
//! and Spatial (see [`baselines`]) used to regenerate Figure 6.

use bcore::{CoreContext, Scratchpad, ScratchpadId, WriterId};

pub mod baselines;
pub mod gemm;
pub mod mdknn;
pub mod nw;
pub mod stencil2d;
pub mod stencil3d;

/// One `Compute` tick of a stencil core that computes `p` cells a cycle,
/// cell `pos` being `cell(grid, pos)`, and pushes each as a word to
/// `sol`. The cells the writer has room for, up to whole cycles' worth,
/// are computed at once, pushed paced at `p` words a cycle and slept
/// through. With room for less than two cycles' worth the run is one
/// cycle of at most `p` cells, which is all `can_push` would have taken
/// that cycle; the rest waits for the next. Advances `pos` past the cells
/// pushed, toward `total`.
fn push_cells(
    ctx: &mut CoreContext,
    (grid, sol): (ScratchpadId, WriterId),
    p: usize,
    (pos, total): (&mut usize, usize),
    cell: impl Fn(&Scratchpad, usize) -> i32,
) {
    let left = total - *pos;
    let room = ctx.writer(sol).pushable(4);
    let cycles = (room / p).clamp(1, left.div_ceil(p));
    let run = *pos..*pos + (cycles * p).min(left).min(room);
    if !run.is_empty() {
        let now = ctx.now();
        let (grid, sol) = ctx.scratchpad_and_writer(grid, sol);
        let bytes = run.clone().flat_map(|pos| cell(grid, pos).to_le_bytes());
        sol.push_paced(now, bytes, 4 * p);
    }
    ctx.sleep_for(cycles as bsim::Cycle);
    *pos = run.end;
}

/// The benchmark selection of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bench {
    /// O(N³) matrix multiply.
    Gemm,
    /// Needleman-Wunsch string alignment.
    Nw,
    /// 2D 3×3 stencil.
    Stencil2d,
    /// 3D 7-point stencil.
    Stencil3d,
    /// N-body force computation over k-nearest neighbours.
    MdKnn,
}

impl Bench {
    /// All benchmarks in Table I order.
    pub const ALL: [Bench; 5] = [
        Bench::Gemm,
        Bench::Nw,
        Bench::Stencil2d,
        Bench::Stencil3d,
        Bench::MdKnn,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Bench::Gemm => "GeMM",
            Bench::Nw => "NW",
            Bench::Stencil2d => "Stencil2D",
            Bench::Stencil3d => "Stencil3D",
            Bench::MdKnn => "MD-KNN",
        }
    }

    /// The paper's Table I description.
    pub fn description(&self) -> &'static str {
        match self {
            Bench::Gemm => "O(N^3) matrix multiply",
            Bench::Nw => "O(N^2) string alignment",
            Bench::Stencil2d => "2D stencil pattern",
            Bench::Stencil3d => "3D stencil pattern",
            Bench::MdKnn => "N-Body problem using k-nearest neighbors approx.",
        }
    }

    /// The paper's Table I problem size.
    pub fn paper_size(&self) -> &'static str {
        match self {
            Bench::Gemm => "N = 256",
            Bench::Nw => "N = 256",
            Bench::Stencil2d => "N = 256",
            Bench::Stencil3d => "N = 32",
            Bench::MdKnn => "N = 1024, K = 32",
        }
    }

    /// The paper's Table I parallelism classification.
    pub fn parallelism(&self) -> &'static str {
        match self {
            Bench::Gemm => "High",
            Bench::Nw => "None",
            Bench::Stencil2d => "Medium",
            Bench::Stencil3d => "High",
            Bench::MdKnn => "High",
        }
    }
}

/// A tiny deterministic PRNG (splitmix64) for workload generation, so
/// references and device inputs agree across crates without `rand`
/// version coupling.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A small signed integer in `[-8, 8)` (keeps i32 kernels far from
    /// overflow).
    pub fn small_i32(&mut self) -> i32 {
        (self.below(16) as i32) - 8
    }

    /// A float in `[lo, hi)`.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32 * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_metadata_complete() {
        for bench in Bench::ALL {
            assert!(!bench.name().is_empty());
            assert!(!bench.description().is_empty());
            assert!(!bench.paper_size().is_empty());
            assert!(["High", "Medium", "None"].contains(&bench.parallelism()));
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], xs[1]);
        assert_ne!(xs[0], SplitMix64(43).next_u64(), "seed must matter");
    }

    #[test]
    fn small_i32_bounded() {
        let mut rng = SplitMix64(7);
        for _ in 0..1000 {
            let v = rng.small_i32();
            assert!((-8..8).contains(&v));
        }
    }
}
