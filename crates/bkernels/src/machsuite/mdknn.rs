//! MachSuite MD-KNN: Lennard-Jones forces over k-nearest neighbours
//! (Table I: N = 1024 atoms, K = 32 neighbours, high parallelism).
//!
//! Per MachSuite's `md/knn`: for every atom, accumulate the LJ force
//! contribution of each listed neighbour:
//! `f = r2inv · r6inv · (lj1 · r6inv − lj2)`, applied along the
//! displacement vector. The datapath is f32 (the FPGA implementation's
//! natural width); the software reference performs the identical operation
//! sequence, so results match bit-exactly.

use bcore::{
    AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType, PortTable,
    ReadChannelConfig, ReaderId, ScratchpadConfig, ScratchpadId, SystemConfig, WriteChannelConfig,
    WriterId,
};
use bplatform::ResourceVector;

/// System name.
pub const SYSTEM: &str = "MdKnnSystem";

/// LJ coefficients (MachSuite's values).
pub const LJ1: f32 = 1.5;
/// Second LJ coefficient.
pub const LJ2: f32 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    LoadPos,
    LoadNeighbors,
    Compute,
    Drain,
    Finish,
}

/// The MD-KNN core: `p` neighbour interactions per cycle.
#[derive(Debug)]
pub struct MdKnnCore {
    pos_in: ReaderId,
    nl_in: ReaderId,
    force: WriterId,
    pos: ScratchpadId,
    nl: ScratchpadId,
    fout: ScratchpadId,
    p: usize,
    phase: Phase,
    n: usize,
    k: usize,
    drain_pos: usize,
}

impl MdKnnCore {
    /// A core computing `p` interactions per cycle, bound to the ports of
    /// [`config`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero.
    pub fn new(p: usize, ports: &PortTable) -> Self {
        assert!(p > 0);
        Self {
            pos_in: ports.reader("pos_in"),
            nl_in: ports.reader("nl_in"),
            force: ports.writer("force"),
            pos: ports.scratchpad("pos"),
            nl: ports.scratchpad("nl"),
            fout: ports.scratchpad("fout"),
            p,
            phase: Phase::Idle,
            n: 0,
            k: 0,
            drain_pos: 0,
        }
    }
}

fn f32_bits(v: f32) -> u64 {
    u64::from(v.to_bits())
}

fn bits_f32(v: u64) -> f32 {
    f32::from_bits(v as u32)
}

impl AcceleratorCore for MdKnnCore {
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
                    self.k = cmd.arg("k") as usize;
                    assert!(self.n * 3 <= ctx.scratchpad(self.pos).len());
                    assert!(self.n * self.k <= ctx.scratchpad(self.nl).len());
                    let pos = cmd.arg("pos");
                    let nl = cmd.arg("nl");
                    let force = cmd.arg("force");
                    let (sp, reader) = ctx.scratchpad_and_reader(self.pos, self.pos_in);
                    sp.start_init(reader, pos).expect("reader idle");
                    let (spn, readern) = ctx.scratchpad_and_reader(self.nl, self.nl_in);
                    spn.start_init(readern, nl).expect("reader idle");
                    ctx.writer(self.force)
                        .request(force, (self.n * 3 * 4) as u64)
                        .expect("writer idle");
                    self.phase = Phase::LoadPos;
                }
            }
            Phase::LoadPos => {
                if ctx.service_init(self.pos, self.pos_in) {
                    self.phase = Phase::LoadNeighbors;
                }
            }
            Phase::LoadNeighbors => {
                if ctx.service_init(self.nl, self.nl_in) {
                    self.phase = Phase::Compute;
                }
            }
            Phase::Compute => {
                // P interactions per cycle over ⌈n·k/P⌉ cycles that touch
                // only scratchpads: compute every force at once and sleep
                // through the phase's length.
                let (n, k) = (self.n, self.k);
                for i in 0..n {
                    let mut acc = [0.0f32; 3];
                    for neighbor in 0..k {
                        let j = ctx.scratchpad(self.nl).read(i * k + neighbor) as usize;
                        let pos = ctx.scratchpad(self.pos);
                        let read_pos = |idx: usize, axis: usize| bits_f32(pos.read(idx * 3 + axis));
                        let dx = read_pos(i, 0) - read_pos(j, 0);
                        let dy = read_pos(i, 1) - read_pos(j, 1);
                        let dz = read_pos(i, 2) - read_pos(j, 2);
                        let r2inv = 1.0f32 / (dx * dx + dy * dy + dz * dz);
                        let r6inv = r2inv * r2inv * r2inv;
                        let potential = r2inv * r6inv * (LJ1 * r6inv - LJ2);
                        acc[0] += dx * potential;
                        acc[1] += dy * potential;
                        acc[2] += dz * potential;
                    }
                    for (axis, value) in acc.into_iter().enumerate() {
                        ctx.scratchpad(self.fout)
                            .write(i * 3 + axis, f32_bits(value));
                    }
                }
                ctx.sleep_for((n * k).div_ceil(self.p) as bsim::Cycle);
                self.drain_pos = 0;
                self.phase = Phase::Drain;
            }
            Phase::Drain => {
                for _ in 0..self.p.max(4) {
                    if self.drain_pos >= self.n * 3 || !ctx.writer(self.force).can_push() {
                        break;
                    }
                    let bits = ctx.scratchpad(self.fout).read(self.drain_pos) as u32;
                    ctx.writer(self.force).push_u32(bits);
                    self.drain_pos += 1;
                }
                if self.drain_pos >= self.n * 3 {
                    self.phase = Phase::Finish;
                }
            }
            Phase::Finish => {
                if ctx.writer(self.force).done() && ctx.respond(sim, 0) {
                    self.phase = Phase::Idle;
                }
            }
        }
    }
}

/// Command spec: `md_knn(pos, nl, force, n, k)`.
pub fn command_spec() -> AccelCommandSpec {
    AccelCommandSpec::new(
        "md_knn",
        vec![
            ("pos".to_owned(), FieldType::Address),
            ("nl".to_owned(), FieldType::Address),
            ("force".to_owned(), FieldType::Address),
            ("n".to_owned(), FieldType::U(16)),
            ("k".to_owned(), FieldType::U(8)),
        ],
    )
}

/// Configuration for up to `max_n` atoms and `max_k` neighbours.
pub fn config(n_cores: u32, max_n: usize, max_k: usize, p: usize) -> AcceleratorConfig {
    AcceleratorConfig::new().with_system(
        SystemConfig::new(SYSTEM, n_cores, command_spec(), move |ports| {
            Box::new(MdKnnCore::new(p, ports))
        })
        .with_read(ReadChannelConfig::new("pos_in", 64))
        .with_read(ReadChannelConfig::new("nl_in", 64))
        .with_write(WriteChannelConfig::new("force", 64))
        .with_scratchpad(ScratchpadConfig::new("pos", 32, 3 * max_n).with_ports(3))
        .with_scratchpad(ScratchpadConfig::new("nl", 32, max_n * max_k))
        .with_scratchpad(ScratchpadConfig::new("fout", 32, 3 * max_n))
        // FP datapath: each lane has ~10 f32 ops incl. a divider.
        .with_core_logic(ResourceVector::new(
            1_400 + 900 * p as u64,
            9_000 + 6_500 * p as u64,
            9_000 + 6_000 * p as u64,
            0,
            0,
            24 * p as u64,
        )),
    )
}

/// Argument map.
pub fn args(
    pos: u64,
    nl: u64,
    force: u64,
    n: usize,
    k: usize,
) -> std::collections::BTreeMap<String, u64> {
    [
        ("pos".to_owned(), pos),
        ("nl".to_owned(), nl),
        ("force".to_owned(), force),
        ("n".to_owned(), n as u64),
        ("k".to_owned(), k as u64),
    ]
    .into_iter()
    .collect()
}

/// Deterministic workload: `n` atom positions (interleaved x,y,z) in a
/// 10³ box and a k-nearest-ish neighbour list (k distinct pseudo-random
/// neighbours per atom, never self — distance ordering does not affect
/// the kernel's arithmetic).
pub fn workload(n: usize, k: usize, seed: u64) -> (Vec<f32>, Vec<u32>) {
    let mut rng = super::SplitMix64(seed);
    let pos: Vec<f32> = (0..3 * n).map(|_| rng.f32_in(0.1, 10.0)).collect();
    let mut nl = Vec::with_capacity(n * k);
    for i in 0..n {
        let mut picked = std::collections::HashSet::new();
        while picked.len() < k {
            let j = rng.below(n as u64) as u32;
            if j as usize != i {
                picked.insert(j);
            }
        }
        let mut sorted: Vec<u32> = picked.into_iter().collect();
        sorted.sort_unstable();
        nl.extend(sorted);
    }
    (pos, nl)
}

/// Software reference, bit-identical to the core's f32 sequence.
pub fn reference(pos: &[f32], nl: &[u32], n: usize, k: usize) -> Vec<f32> {
    let mut force = vec![0f32; 3 * n];
    for i in 0..n {
        let (xi, yi, zi) = (pos[i * 3], pos[i * 3 + 1], pos[i * 3 + 2]);
        let mut acc = [0f32; 3];
        for kk in 0..k {
            let j = nl[i * k + kk] as usize;
            let dx = xi - pos[j * 3];
            let dy = yi - pos[j * 3 + 1];
            let dz = zi - pos[j * 3 + 2];
            let r2inv = 1.0f32 / (dx * dx + dy * dy + dz * dz);
            let r6inv = r2inv * r2inv * r2inv;
            let potential = r2inv * r6inv * (LJ1 * r6inv - LJ2);
            acc[0] += dx * potential;
            acc[1] += dy * potential;
            acc[2] += dz * potential;
        }
        force[i * 3..i * 3 + 3].copy_from_slice(&acc);
    }
    force
}

/// Neighbour interactions per invocation.
pub fn ops(n: usize, k: usize) -> u64 {
    (n * k) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcore::elaborate;
    use bplatform::Platform;

    #[test]
    fn mdknn_matches_reference_bit_exactly() {
        let (n, k) = (32, 8);
        let mut soc = elaborate(config(1, n, k, 2), &Platform::sim()).unwrap();
        let (pos, nl) = workload(n, k, 17);
        {
            let mem = soc.memory();
            let mut mem = mem.borrow_mut();
            mem.write_u32_slice(
                0x1_0000,
                &pos.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
            mem.write_u32_slice(0x2_0000, &nl);
        }
        let token = soc
            .send_command(0, 0, &args(0x1_0000, 0x2_0000, 0x3_0000, n, k))
            .unwrap();
        soc.run_until_response(token, 50_000_000)
            .expect("mdknn finishes");
        let out: Vec<f32> = soc
            .memory()
            .borrow()
            .read_u32_slice(0x3_0000, 3 * n)
            .into_iter()
            .map(f32::from_bits)
            .collect();
        let expect = reference(&pos, &nl, n, k);
        assert_eq!(out.len(), expect.len());
        for (i, (a, b)) in out.iter().zip(expect.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "force component {i} differs");
        }
    }

    #[test]
    fn workload_neighbors_are_valid() {
        let (n, k) = (64, 16);
        let (_, nl) = workload(n, k, 5);
        assert_eq!(nl.len(), n * k);
        for (i, chunk) in nl.chunks(k).enumerate() {
            let set: std::collections::HashSet<_> = chunk.iter().collect();
            assert_eq!(set.len(), k, "neighbours must be distinct");
            assert!(!chunk.contains(&(i as u32)), "no self-interaction");
        }
    }

    #[test]
    fn forces_are_finite() {
        let (n, k) = (16, 4);
        let (pos, nl) = workload(n, k, 9);
        let force = reference(&pos, &nl, n, k);
        assert!(force.iter().all(|f| f.is_finite()));
        assert!(force.iter().any(|&f| f != 0.0));
    }
}
