//! MachSuite Stencil3D: a 7-point stencil over an N³ grid (Table I:
//! N = 32, high parallelism).
//!
//! Following MachSuite's `stencil3d`: interior cells become
//! `C0·orig + C1·(sum of the six face neighbours)`; boundary cells are
//! copied through unchanged. The grid lives in a (URAM-class) scratchpad;
//! `P` cells compute per cycle.

use bcore::{
    AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType, PortTable,
    ReadChannelConfig, ReaderId, ScratchpadConfig, ScratchpadId, SystemConfig, WriteChannelConfig,
    WriterId,
};
use bplatform::ResourceVector;

/// System name.
pub const SYSTEM: &str = "Stencil3dSystem";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    LoadGrid,
    Compute,
    Finish,
}

/// The Stencil3D core with parallelism factor `p`.
#[derive(Debug)]
pub struct Stencil3dCore {
    grid_in: ReaderId,
    sol: WriterId,
    grid: ScratchpadId,
    p: usize,
    phase: Phase,
    n: usize,
    c0: i32,
    c1: i32,
    pos: usize,
}

impl Stencil3dCore {
    /// A core computing `p` cells per cycle, bound to the ports of
    /// [`config`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero.
    pub fn new(p: usize, ports: &PortTable) -> Self {
        assert!(p > 0);
        Self {
            grid_in: ports.reader("grid_in"),
            sol: ports.writer("sol"),
            grid: ports.scratchpad("grid"),
            p,
            phase: Phase::Idle,
            n: 0,
            c0: 0,
            c1: 0,
            pos: 0,
        }
    }
}

impl AcceleratorCore for Stencil3dCore {
    // In Phase::Idle a tick only polls the command queue, which the
    // harness watches through its visibility clock.
    fn idle(&self) -> bool {
        self.phase == Phase::Idle
    }

    fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
        match self.phase {
            Phase::Idle => {
                if let Some(cmd) = ctx.take_command(sim) {
                    self.n = cmd.arg("n") as usize;
                    assert!(self.n * self.n * self.n <= ctx.scratchpad(self.grid).len());
                    self.c0 = cmd.arg("c0") as u32 as i32;
                    self.c1 = cmd.arg("c1") as u32 as i32;
                    let orig = cmd.arg("orig");
                    let sol = cmd.arg("sol");
                    let (sp, reader) = ctx.scratchpad_and_reader(self.grid, self.grid_in);
                    sp.start_init(reader, orig).expect("reader idle");
                    ctx.writer(self.sol)
                        .request(sol, (self.n * self.n * self.n * 4) as u64)
                        .expect("writer idle");
                    self.phase = Phase::LoadGrid;
                }
            }
            Phase::LoadGrid => {
                let (sp, reader) = ctx.scratchpad_and_reader(self.grid, self.grid_in);
                sp.service_init(reader);
                if !ctx.scratchpad(self.grid).initializing() {
                    self.pos = 0;
                    self.phase = Phase::Compute;
                }
            }
            Phase::Compute => {
                let n = self.n;
                let total = n * n * n;
                for _ in 0..self.p {
                    if self.pos >= total {
                        break;
                    }
                    if !ctx.writer(self.sol).can_push() {
                        return;
                    }
                    // MachSuite layout: idx = i*n*n + j*n + k (k fastest).
                    let i = self.pos / (n * n);
                    let j = (self.pos / n) % n;
                    let k = self.pos % n;
                    let sp = ctx.scratchpad(self.grid);
                    let grid = |ii: usize, jj: usize, kk: usize| {
                        sp.read(ii * n * n + jj * n + kk) as u32 as i32
                    };
                    let interior = i > 0 && i < n - 1 && j > 0 && j < n - 1 && k > 0 && k < n - 1;
                    let value = if interior {
                        let center = grid(i, j, k);
                        let sum = grid(i - 1, j, k)
                            .wrapping_add(grid(i + 1, j, k))
                            .wrapping_add(grid(i, j - 1, k))
                            .wrapping_add(grid(i, j + 1, k))
                            .wrapping_add(grid(i, j, k - 1))
                            .wrapping_add(grid(i, j, k + 1));
                        self.c0
                            .wrapping_mul(center)
                            .wrapping_add(self.c1.wrapping_mul(sum))
                    } else {
                        grid(i, j, k)
                    };
                    ctx.writer(self.sol).push_u32(value as u32);
                    self.pos += 1;
                }
                if self.pos >= total {
                    self.phase = Phase::Finish;
                }
            }
            Phase::Finish => {
                if ctx.writer(self.sol).done() && ctx.respond(sim, 0) {
                    self.phase = Phase::Idle;
                }
            }
        }
    }
}

/// Command spec: `stencil3d(orig, sol, n, c0, c1)`.
pub fn command_spec() -> AccelCommandSpec {
    AccelCommandSpec::new(
        "stencil3d",
        vec![
            ("orig".to_owned(), FieldType::Address),
            ("sol".to_owned(), FieldType::Address),
            ("n".to_owned(), FieldType::U(16)),
            ("c0".to_owned(), FieldType::I(32)),
            ("c1".to_owned(), FieldType::I(32)),
        ],
    )
}

/// Configuration for grids up to `max_n³`, `p` cells per cycle.
pub fn config(n_cores: u32, max_n: usize, p: usize) -> AcceleratorConfig {
    AcceleratorConfig::new().with_system(
        SystemConfig::new(SYSTEM, n_cores, command_spec(), move |ports| {
            Box::new(Stencil3dCore::new(p, ports))
        })
        .with_read(ReadChannelConfig::new("grid_in", 64))
        .with_write(WriteChannelConfig::new("sol", 64))
        .with_scratchpad(ScratchpadConfig::new("grid", 32, max_n * max_n * max_n).with_ports(2))
        .with_core_logic(ResourceVector::new(
            1_100 + 220 * p as u64,
            7_500 + 1_400 * p as u64,
            7_500 + 1_400 * p as u64,
            0,
            0,
            7 * p as u64,
        )),
    )
}

/// Argument map.
pub fn args(
    orig: u64,
    sol: u64,
    n: usize,
    c0: i32,
    c1: i32,
) -> std::collections::BTreeMap<String, u64> {
    [
        ("orig".to_owned(), orig),
        ("sol".to_owned(), sol),
        ("n".to_owned(), n as u64),
        ("c0".to_owned(), c0 as u32 as u64),
        ("c1".to_owned(), c1 as u32 as u64),
    ]
    .into_iter()
    .collect()
}

/// Deterministic workload: an n³ grid of small i32s.
pub fn workload(n: usize, seed: u64) -> Vec<i32> {
    let mut rng = super::SplitMix64(seed);
    (0..n * n * n).map(|_| rng.small_i32()).collect()
}

/// Software reference.
pub fn reference(grid: &[i32], n: usize, c0: i32, c1: i32) -> Vec<i32> {
    let idx = |i: usize, j: usize, k: usize| i * n * n + j * n + k;
    let mut sol = grid.to_vec();
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            for k in 1..n - 1 {
                let sum = grid[idx(i - 1, j, k)]
                    .wrapping_add(grid[idx(i + 1, j, k)])
                    .wrapping_add(grid[idx(i, j - 1, k)])
                    .wrapping_add(grid[idx(i, j + 1, k)])
                    .wrapping_add(grid[idx(i, j, k - 1)])
                    .wrapping_add(grid[idx(i, j, k + 1)]);
                sol[idx(i, j, k)] = c0
                    .wrapping_mul(grid[idx(i, j, k)])
                    .wrapping_add(c1.wrapping_mul(sum));
            }
        }
    }
    sol
}

/// Cells per invocation.
pub fn ops(n: usize) -> u64 {
    (n * n * n) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcore::elaborate;
    use bplatform::Platform;

    #[test]
    fn stencil3d_matches_reference() {
        let n = 8;
        let mut soc = elaborate(config(1, n, 4), &Platform::sim()).unwrap();
        let grid = workload(n, 33);
        soc.memory().borrow_mut().write_u32_slice(
            0x1_0000,
            &grid.iter().map(|&x| x as u32).collect::<Vec<_>>(),
        );
        let token = soc
            .send_command(0, 0, &args(0x1_0000, 0x4_0000, n, 2, -1))
            .unwrap();
        soc.run_until_response(token, 50_000_000)
            .expect("stencil3d finishes");
        let out: Vec<i32> = soc
            .memory()
            .borrow()
            .read_u32_slice(0x4_0000, n * n * n)
            .into_iter()
            .map(|v| v as i32)
            .collect();
        assert_eq!(out, reference(&grid, n, 2, -1));
    }

    #[test]
    fn boundary_passes_through() {
        let n = 4;
        let grid = workload(n, 1);
        let sol = reference(&grid, n, 5, 3);
        // All of a 4^3 grid's outer shell passes through.
        assert_eq!(sol[0], grid[0]);
        assert_eq!(sol[n * n * n - 1], grid[n * n * n - 1]);
    }
}
