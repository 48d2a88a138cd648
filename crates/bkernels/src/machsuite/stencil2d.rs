//! MachSuite Stencil2D: a 3×3 convolution over an N×N grid (Table I:
//! N = 256, medium parallelism).
//!
//! Following MachSuite's `stencil2d`, the filter is applied wherever the
//! 3×3 window fits; the two-cell border of the output stays zero. The core
//! buffers the grid and filter in scratchpads and computes `P` output
//! cells per cycle (9 MACs each).

use bcore::{
    AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType, PortTable,
    ReadChannelConfig, ReaderId, Scratchpad, ScratchpadConfig, ScratchpadId, SystemConfig,
    WriteChannelConfig, WriterId,
};
use bplatform::ResourceVector;

/// System name.
pub const SYSTEM: &str = "Stencil2dSystem";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    LoadFilter,
    LoadGrid,
    Compute,
    Finish,
}

/// The Stencil2D core with parallelism factor `p`.
#[derive(Debug)]
pub struct Stencil2dCore {
    grid_in: ReaderId,
    filter_in: ReaderId,
    sol: WriterId,
    grid: ScratchpadId,
    filt: ScratchpadId,
    p: usize,
    phase: Phase,
    n: usize,
    pos: usize,
}

/// Output cell `pos` of an `n × n` grid under `filter` (zero on the
/// two-cell border).
fn cell(grid: &Scratchpad, filter: &[i32; 9], n: usize, pos: usize) -> i32 {
    let (r, c) = (pos / n, pos % n);
    if r >= n - 2 || c >= n - 2 {
        return 0;
    }
    let mut acc = 0i32;
    for k1 in 0..3 {
        for k2 in 0..3 {
            let g = grid.read((r + k1) * n + c + k2) as u32 as i32;
            acc = acc.wrapping_add(filter[k1 * 3 + k2].wrapping_mul(g));
        }
    }
    acc
}

impl Stencil2dCore {
    /// A core computing `p` output cells per cycle, bound to the ports of
    /// [`config`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero.
    pub fn new(p: usize, ports: &PortTable) -> Self {
        assert!(p > 0);
        Self {
            grid_in: ports.reader("grid_in"),
            filter_in: ports.reader("filter_in"),
            sol: ports.writer("sol"),
            grid: ports.scratchpad("grid"),
            filt: ports.scratchpad("filt"),
            p,
            phase: Phase::Idle,
            n: 0,
            pos: 0,
        }
    }
}

impl AcceleratorCore for Stencil2dCore {
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
                    assert!(self.n * self.n <= ctx.scratchpad(self.grid).len());
                    let orig = cmd.arg("orig");
                    let filt = cmd.arg("filter");
                    let sol = cmd.arg("sol");
                    let (sp, reader) = ctx.scratchpad_and_reader(self.filt, self.filter_in);
                    sp.start_init(reader, filt).expect("reader idle");
                    let (spg, readerg) = ctx.scratchpad_and_reader(self.grid, self.grid_in);
                    spg.start_init(readerg, orig).expect("reader idle");
                    ctx.writer(self.sol)
                        .request(sol, (self.n * self.n * 4) as u64)
                        .expect("writer idle");
                    self.phase = Phase::LoadFilter;
                }
            }
            Phase::LoadFilter => {
                if ctx.service_init(self.filt, self.filter_in) {
                    self.phase = Phase::LoadGrid;
                }
            }
            Phase::LoadGrid => {
                if ctx.service_init(self.grid, self.grid_in) {
                    self.pos = 0;
                    self.phase = Phase::Compute;
                }
            }
            Phase::Compute => {
                let n = self.n;
                let total = n * n;
                let filter: [i32; 9] =
                    std::array::from_fn(|k| ctx.scratchpad(self.filt).read(k) as u32 as i32);
                super::push_cells(
                    ctx,
                    (self.grid, self.sol),
                    self.p,
                    (&mut self.pos, total),
                    |grid, pos| cell(grid, &filter, n, pos),
                );
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

/// Command spec: `stencil2d(orig, filter, sol, n)`.
pub fn command_spec() -> AccelCommandSpec {
    AccelCommandSpec::new(
        "stencil2d",
        vec![
            ("orig".to_owned(), FieldType::Address),
            ("filter".to_owned(), FieldType::Address),
            ("sol".to_owned(), FieldType::Address),
            ("n".to_owned(), FieldType::U(16)),
        ],
    )
}

/// Configuration for grids up to `max_n × max_n`, `p` cells per cycle.
pub fn config(n_cores: u32, max_n: usize, p: usize) -> AcceleratorConfig {
    AcceleratorConfig::new().with_system(
        SystemConfig::new(SYSTEM, n_cores, command_spec(), move |ports| {
            Box::new(Stencil2dCore::new(p, ports))
        })
        .with_read(ReadChannelConfig::new("grid_in", 64))
        .with_read(ReadChannelConfig::new("filter_in", 4))
        .with_write(WriteChannelConfig::new("sol", 64))
        .with_scratchpad(ScratchpadConfig::new("grid", 32, max_n * max_n).with_ports(2))
        .with_scratchpad(ScratchpadConfig::new("filt", 32, 9))
        .with_core_logic(ResourceVector::new(
            1_000 + 250 * p as u64,
            7_000 + 1_600 * p as u64,
            7_000 + 1_500 * p as u64,
            0,
            0,
            9 * p as u64,
        )),
    )
}

/// Argument map.
pub fn args(orig: u64, filter: u64, sol: u64, n: usize) -> std::collections::BTreeMap<String, u64> {
    [
        ("orig".to_owned(), orig),
        ("filter".to_owned(), filter),
        ("sol".to_owned(), sol),
        ("n".to_owned(), n as u64),
    ]
    .into_iter()
    .collect()
}

/// Deterministic workload: grid and 3×3 filter of small i32s.
pub fn workload(n: usize, seed: u64) -> (Vec<i32>, Vec<i32>) {
    let mut rng = super::SplitMix64(seed);
    let grid = (0..n * n).map(|_| rng.small_i32()).collect();
    let filter = (0..9).map(|_| rng.small_i32()).collect();
    (grid, filter)
}

/// Software reference (MachSuite semantics: border left zero).
pub fn reference(grid: &[i32], filter: &[i32], n: usize) -> Vec<i32> {
    let mut sol = vec![0i32; n * n];
    for r in 0..n.saturating_sub(2) {
        for c in 0..n.saturating_sub(2) {
            let mut acc = 0i32;
            for k1 in 0..3 {
                for k2 in 0..3 {
                    acc = acc.wrapping_add(
                        filter[k1 * 3 + k2].wrapping_mul(grid[(r + k1) * n + c + k2]),
                    );
                }
            }
            sol[r * n + c] = acc;
        }
    }
    sol
}

/// Output cells per invocation.
pub fn ops(n: usize) -> u64 {
    (n * n) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcore::elaborate;
    use bplatform::Platform;

    #[test]
    fn stencil2d_matches_reference() {
        let n = 24;
        let mut soc = elaborate(config(1, n, 4), &Platform::sim()).unwrap();
        let (grid, filter) = workload(n, 21);
        {
            let mem = soc.memory();
            let mut mem = mem.borrow_mut();
            mem.write_u32_slice(
                0x1_0000,
                &grid.iter().map(|&x| x as u32).collect::<Vec<_>>(),
            );
            mem.write_u32_slice(
                0x2_0000,
                &filter.iter().map(|&x| x as u32).collect::<Vec<_>>(),
            );
        }
        let token = soc
            .send_command(0, 0, &args(0x1_0000, 0x2_0000, 0x3_0000, n))
            .unwrap();
        soc.run_until_response(token, 50_000_000)
            .expect("stencil finishes");
        let out: Vec<i32> = soc
            .memory()
            .borrow()
            .read_u32_slice(0x3_0000, n * n)
            .into_iter()
            .map(|v| v as i32)
            .collect();
        assert_eq!(out, reference(&grid, &filter, n));
    }

    #[test]
    fn identity_filter_reproduces_interior() {
        let n = 8;
        let mut filter = vec![0i32; 9];
        filter[0] = 1; // top-left tap: sol[r][c] = grid[r][c]
        let grid: Vec<i32> = (0..n * n).map(|i| i as i32 % 13).collect();
        let sol = reference(&grid, &filter, n);
        for r in 0..n - 2 {
            for c in 0..n - 2 {
                assert_eq!(sol[r * n + c], grid[r * n + c]);
            }
        }
        assert_eq!(sol[(n - 1) * n + (n - 1)], 0, "border stays zero");
    }
}
