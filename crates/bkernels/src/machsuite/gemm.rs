//! MachSuite GeMM: O(N³) matrix multiply (Table I: N = 256, high
//! parallelism).
//!
//! This is the paper's one *medium-effort* implementation: the inner loops
//! are "parallelized by a parameterizable amount, identical to the loop
//! parallelism factors in Vitis HLS or Spatial" (§III-B). The core buffers
//! the whole B matrix in a Beethoven scratchpad, streams A row by row, and
//! performs `P` multiply-accumulates per cycle.

use bcore::{
    AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType, PortTable,
    ReadChannelConfig, ReaderId, ScratchpadConfig, ScratchpadId, SystemConfig, WriteChannelConfig,
    WriterId,
};
use bplatform::ResourceVector;

/// System name.
pub const SYSTEM: &str = "GemmSystem";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    LoadB,
    LoadARow,
    Compute,
    DrainRow,
    Finish,
}

/// The GeMM core. `p` is the loop-parallelism factor (MACs per cycle).
#[derive(Debug)]
pub struct GemmCore {
    a: ReaderId,
    b: ReaderId,
    c: WriterId,
    b_sp: ScratchpadId,
    a_row: ScratchpadId,
    c_row: ScratchpadId,
    p: usize,
    phase: Phase,
    n: usize,
    a_addr: u64,
    c_addr: u64,
    row: usize,
    k: usize,
    jb: usize,
    drain_j: usize,
}

impl GemmCore {
    /// A core with parallelism factor `p`, bound to the ports of
    /// [`config`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero.
    pub fn new(p: usize, ports: &PortTable) -> Self {
        assert!(p > 0, "parallelism factor must be nonzero");
        Self {
            a: ports.reader("a"),
            b: ports.reader("b"),
            c: ports.writer("c"),
            b_sp: ports.scratchpad("b_sp"),
            a_row: ports.scratchpad("a_row"),
            c_row: ports.scratchpad("c_row"),
            p,
            phase: Phase::Idle,
            n: 0,
            a_addr: 0,
            c_addr: 0,
            row: 0,
            k: 0,
            jb: 0,
            drain_j: 0,
        }
    }
}

impl AcceleratorCore for GemmCore {
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
                    self.a_addr = cmd.arg("a");
                    self.c_addr = cmd.arg("c");
                    let b_addr = cmd.arg("b");
                    self.row = 0;
                    assert!(
                        self.n * self.n <= ctx.scratchpad(self.b_sp).len(),
                        "n exceeds configured scratchpad capacity"
                    );
                    let (sp, reader) = ctx.scratchpad_and_reader(self.b_sp, self.b);
                    sp.start_init(reader, b_addr).expect("b reader idle");
                    ctx.writer(self.c)
                        .request(self.c_addr, (self.n * self.n * 4) as u64)
                        .expect("writer idle");
                    self.phase = Phase::LoadB;
                }
            }
            Phase::LoadB => {
                let (sp, reader) = ctx.scratchpad_and_reader(self.b_sp, self.b);
                sp.service_init(reader);
                if !ctx.scratchpad(self.b_sp).initializing() {
                    self.start_row(ctx);
                }
            }
            Phase::LoadARow => {
                let (sp, reader) = ctx.scratchpad_and_reader(self.a_row, self.a);
                sp.service_init(reader);
                if !ctx.scratchpad(self.a_row).initializing() {
                    self.k = 0;
                    self.jb = 0;
                    // Zero the accumulator row.
                    for j in 0..self.n {
                        ctx.scratchpad(self.c_row).write(j, 0);
                    }
                    self.phase = Phase::Compute;
                }
            }
            Phase::Compute => {
                // P MACs per cycle: c_row[jb..jb+P] += a_row[k] * b[k][..].
                let n = self.n;
                let a_ik = ctx.scratchpad(self.a_row).read(self.k) as u32 as i32;
                for lane in 0..self.p {
                    let j = self.jb + lane;
                    if j >= n {
                        break;
                    }
                    let b_kj = ctx.scratchpad(self.b_sp).read(self.k * n + j) as u32 as i32;
                    let acc = ctx.scratchpad(self.c_row).read(j) as u32 as i32;
                    let next = acc.wrapping_add(a_ik.wrapping_mul(b_kj));
                    ctx.scratchpad(self.c_row).write(j, next as u32 as u64);
                }
                self.jb += self.p;
                if self.jb >= n {
                    self.jb = 0;
                    self.k += 1;
                    if self.k == n {
                        self.drain_j = 0;
                        self.phase = Phase::DrainRow;
                    }
                }
            }
            Phase::DrainRow => {
                // Push the finished row to the writer, P words per cycle.
                for _ in 0..self.p {
                    if self.drain_j >= self.n {
                        break;
                    }
                    if !ctx.writer(self.c).can_push() {
                        break;
                    }
                    let v = ctx.scratchpad(self.c_row).read(self.drain_j) as u32;
                    ctx.writer(self.c).push_u32(v);
                    self.drain_j += 1;
                }
                if self.drain_j >= self.n {
                    self.row += 1;
                    if self.row == self.n {
                        self.phase = Phase::Finish;
                    } else {
                        self.start_row(ctx);
                    }
                }
            }
            Phase::Finish => {
                if ctx.writer(self.c).done() && ctx.respond(sim, 0) {
                    self.phase = Phase::Idle;
                }
            }
        }
    }
}

impl GemmCore {
    fn start_row(&mut self, ctx: &mut CoreContext) {
        let addr = self.a_addr + (self.row * self.n * 4) as u64;
        let (sp, reader) = ctx.scratchpad_and_reader(self.a_row, self.a);
        sp.start_init(reader, addr).expect("a reader idle");
        self.phase = Phase::LoadARow;
    }
}

/// Command spec: `gemm(a, b, c, n)` computing `C = A × B` over i32.
pub fn command_spec() -> AccelCommandSpec {
    AccelCommandSpec::new(
        "gemm",
        vec![
            ("a".to_owned(), FieldType::Address),
            ("b".to_owned(), FieldType::Address),
            ("c".to_owned(), FieldType::Address),
            ("n".to_owned(), FieldType::U(16)),
        ],
    )
}

/// Configuration: `n_cores` GeMM cores sized for `max_n`, parallelism `p`.
pub fn config(n_cores: u32, max_n: usize, p: usize) -> AcceleratorConfig {
    AcceleratorConfig::new().with_system(
        SystemConfig::new(SYSTEM, n_cores, command_spec(), move |ports| {
            Box::new(GemmCore::new(p, ports))
        })
        .with_read(ReadChannelConfig::new("a", 64))
        .with_read(ReadChannelConfig::new("b", 64))
        .with_write(WriteChannelConfig::new("c", 64))
        .with_scratchpad(ScratchpadConfig::new("b_sp", 32, max_n * max_n))
        .with_scratchpad(ScratchpadConfig::new("a_row", 32, max_n))
        .with_scratchpad(ScratchpadConfig::new("c_row", 32, max_n))
        // P parallel MACs dominate the kernel datapath.
        .with_core_logic(ResourceVector::new(
            1_200 + 180 * p as u64,
            8_000 + 1_100 * p as u64,
            8_000 + 1_200 * p as u64,
            0,
            0,
            2 * p as u64,
        )),
    )
}

/// Argument map for a `gemm` call.
pub fn args(a: u64, b: u64, c: u64, n: usize) -> std::collections::BTreeMap<String, u64> {
    [
        ("a".to_owned(), a),
        ("b".to_owned(), b),
        ("c".to_owned(), c),
        ("n".to_owned(), n as u64),
    ]
    .into_iter()
    .collect()
}

/// Deterministic workload: two n×n matrices of small i32s.
pub fn workload(n: usize, seed: u64) -> (Vec<i32>, Vec<i32>) {
    let mut rng = super::SplitMix64(seed);
    let a = (0..n * n).map(|_| rng.small_i32()).collect();
    let b = (0..n * n).map(|_| rng.small_i32()).collect();
    (a, b)
}

/// Software reference: `C = A × B` with wrapping i32 arithmetic (matching
/// the hardware datapath exactly).
pub fn reference(a: &[i32], b: &[i32], n: usize) -> Vec<i32> {
    let mut c = vec![0i32; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] = c[i * n + j].wrapping_add(aik.wrapping_mul(b[k * n + j]));
            }
        }
    }
    c
}

/// Useful-operation count for throughput reporting (MACs per invocation).
pub fn ops(n: usize) -> u64 {
    (n * n * n) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcore::elaborate;
    use bplatform::Platform;

    fn run(n: usize, p: usize) -> (Vec<i32>, Vec<i32>, Vec<i32>) {
        let mut soc = elaborate(config(1, n, p), &Platform::sim()).unwrap();
        let (a, b) = workload(n, 99);
        let (a_addr, b_addr, c_addr) = (0x1_0000u64, 0x8_0000u64, 0x10_0000u64);
        {
            let mem = soc.memory();
            let mut mem = mem.borrow_mut();
            let to_u32 = |v: &[i32]| v.iter().map(|&x| x as u32).collect::<Vec<_>>();
            mem.write_u32_slice(a_addr, &to_u32(&a));
            mem.write_u32_slice(b_addr, &to_u32(&b));
        }
        let token = soc
            .send_command(0, 0, &args(a_addr, b_addr, c_addr, n))
            .unwrap();
        soc.run_until_response(token, 50_000_000)
            .expect("gemm finishes");
        let out: Vec<i32> = soc
            .memory()
            .borrow()
            .read_u32_slice(c_addr, n * n)
            .into_iter()
            .map(|v| v as i32)
            .collect();
        (a, b, out)
    }

    #[test]
    fn gemm_16_matches_reference() {
        let (a, b, out) = run(16, 4);
        assert_eq!(out, reference(&a, &b, 16));
    }

    #[test]
    fn gemm_32_wider_lanes() {
        let (a, b, out) = run(32, 8);
        assert_eq!(out, reference(&a, &b, 32));
    }

    #[test]
    fn higher_parallelism_is_faster() {
        let cycles = |p: usize| {
            let n = 32;
            let mut soc = elaborate(config(1, n, p), &Platform::sim()).unwrap();
            let (a, b) = workload(n, 5);
            {
                let mem = soc.memory();
                let mut mem = mem.borrow_mut();
                mem.write_u32_slice(0x1000, &a.iter().map(|&x| x as u32).collect::<Vec<_>>());
                mem.write_u32_slice(0x9000, &b.iter().map(|&x| x as u32).collect::<Vec<_>>());
            }
            let token = soc
                .send_command(0, 0, &args(0x1000, 0x9000, 0x20000, n))
                .unwrap();
            let start = soc.now();
            soc.run_until_response(token, 50_000_000).unwrap();
            soc.now() - start
        };
        let slow = cycles(2);
        let fast = cycles(8);
        assert!(
            fast * 2 < slow,
            "p=8 ({fast} cycles) should be much faster than p=2 ({slow} cycles)"
        );
    }

    #[test]
    fn back_to_back_commands_reuse_the_core() {
        let n = 16;
        let mut soc = elaborate(config(1, n, 4), &Platform::sim()).unwrap();
        for round in 0..2u64 {
            let (a, b) = workload(n, round);
            let base = 0x10_0000 * (round + 1);
            {
                let mem = soc.memory();
                let mut mem = mem.borrow_mut();
                mem.write_u32_slice(base, &a.iter().map(|&x| x as u32).collect::<Vec<_>>());
                mem.write_u32_slice(
                    base + 0x4000,
                    &b.iter().map(|&x| x as u32).collect::<Vec<_>>(),
                );
            }
            let token = soc
                .send_command(0, 0, &args(base, base + 0x4000, base + 0x8000, n))
                .unwrap();
            soc.run_until_response(token, 50_000_000).unwrap();
            let out: Vec<i32> = soc
                .memory()
                .borrow()
                .read_u32_slice(base + 0x8000, n * n)
                .into_iter()
                .map(|v| v as i32)
                .collect();
            assert_eq!(out, reference(&a, &b, n), "round {round}");
        }
    }
}
