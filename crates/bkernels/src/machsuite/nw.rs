//! MachSuite NW: Needleman-Wunsch string alignment (Table I: N = 256,
//! no loop parallelism).
//!
//! The DP recurrence carries a dependency through both loops, so pragma
//! unrolling cannot help HLS here — the paper found its low-effort
//! Beethoven implementation "achieved 2× higher throughput over the other
//! baselines, even for a single core" (§III-B.1) because hand-written RTL
//! sustains II=1 on the cell update while the HLS pipeline's loop-carried
//! dependency forces a longer initiation interval.
//!
//! Scoring follows MachSuite: match +1, mismatch −1, gap −1.

use bcore::{
    AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType, PortTable,
    ReadChannelConfig, ReaderId, ScratchpadConfig, ScratchpadId, SystemConfig, WriteChannelConfig,
    WriterId,
};
use bplatform::ResourceVector;

/// System name.
pub const SYSTEM: &str = "NwSystem";

/// Match score.
pub const MATCH: i32 = 1;
/// Mismatch score.
pub const MISMATCH: i32 = -1;
/// Gap penalty.
pub const GAP: i32 = -1;
/// Padding byte for unused alignment tail (MachSuite's `_`).
pub const PAD: u8 = b'_';

/// Traceback pointers.
const PTR_DIAG: u64 = 0;
const PTR_LEFT: u64 = 1;
const PTR_UP: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    LoadA,
    LoadB,
    InitRow0,
    Compute,
    Traceback,
    Pad,
    Drain,
    Finish,
}

/// The NW core: one DP cell per cycle, on-chip traceback matrix, streamed
/// alignment output.
#[derive(Debug)]
pub struct NwCore {
    a: ReaderId,
    b: ReaderId,
    out: WriterId,
    seq_a: ScratchpadId,
    seq_b: ScratchpadId,
    dp_row: ScratchpadId,
    tb: ScratchpadId,
    out_a: ScratchpadId,
    out_b: ScratchpadId,
    phase: Phase,
    n: usize,
    out_addr: u64,
    i: usize,
    j: usize,
    /// dp value of the cell diagonal to the current one (`dp[i-1][j-1]`).
    diag: i32,
    /// dp value of the cell to the left (`dp[i][j-1]`).
    left: i32,
    /// Characters emitted by traceback so far.
    out_len: usize,
    drain_pos: usize,
}

impl NwCore {
    /// A fresh core bound to the ports of [`config`].
    pub fn new(ports: &PortTable) -> Self {
        Self {
            a: ports.reader("a"),
            b: ports.reader("b"),
            out: ports.writer("out"),
            seq_a: ports.scratchpad("seq_a"),
            seq_b: ports.scratchpad("seq_b"),
            dp_row: ports.scratchpad("dp_row"),
            tb: ports.scratchpad("tb"),
            out_a: ports.scratchpad("out_a"),
            out_b: ports.scratchpad("out_b"),
            phase: Phase::Idle,
            n: 0,
            out_addr: 0,
            i: 0,
            j: 0,
            diag: 0,
            left: 0,
            out_len: 0,
            drain_pos: 0,
        }
    }
}

impl AcceleratorCore for NwCore {
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
                    self.out_addr = cmd.arg("out");
                    assert!(
                        self.n <= ctx.scratchpad(self.seq_a).len(),
                        "n exceeds capacity"
                    );
                    let a_addr = cmd.arg("seq_a");
                    let b_addr = cmd.arg("seq_b");
                    let (sp, reader) = ctx.scratchpad_and_reader(self.seq_a, self.a);
                    sp.start_init(reader, a_addr).expect("reader idle");
                    // Stash b's address for the next phase via the reader.
                    let (spb, readerb) = ctx.scratchpad_and_reader(self.seq_b, self.b);
                    spb.start_init(readerb, b_addr).expect("reader idle");
                    ctx.writer(self.out)
                        .request(self.out_addr, (4 * self.n) as u64)
                        .expect("writer idle");
                    self.phase = Phase::LoadA;
                }
            }
            Phase::LoadA => {
                let (sp, reader) = ctx.scratchpad_and_reader(self.seq_a, self.a);
                sp.service_init(reader);
                if !ctx.scratchpad(self.seq_a).initializing() {
                    self.phase = Phase::LoadB;
                }
            }
            Phase::LoadB => {
                let (sp, reader) = ctx.scratchpad_and_reader(self.seq_b, self.b);
                sp.service_init(reader);
                if !ctx.scratchpad(self.seq_b).initializing() {
                    self.j = 0;
                    self.phase = Phase::InitRow0;
                }
            }
            Phase::InitRow0 => {
                // dp[0][j] = j * GAP; ptr[0][j] = LEFT. A real design does
                // this with a counter, one entry per cycle.
                let j = self.j;
                ctx.scratchpad(self.dp_row)
                    .write(j, (j as i32 * GAP) as u32 as u64);
                if j > 0 {
                    ctx.scratchpad(self.tb).write(j, PTR_LEFT);
                }
                self.j += 1;
                if self.j > self.n {
                    self.i = 1;
                    self.j = 1;
                    self.diag = 0; // dp[0][0]
                    self.left = GAP; // dp[1][0]
                    ctx.scratchpad(self.tb).write(0, PTR_DIAG);
                    self.phase = Phase::Compute;
                }
            }
            Phase::Compute => {
                // One cell per cycle (II = 1).
                let n = self.n;
                let (i, j) = (self.i, self.j);
                let a_char = ctx.scratchpad(self.seq_a).read(i - 1) as u8;
                let b_char = ctx.scratchpad(self.seq_b).read(j - 1) as u8;
                let up = ctx.scratchpad(self.dp_row).read(j) as u32 as i32;
                let score = if a_char == b_char { MATCH } else { MISMATCH };
                let d = self.diag + score;
                let l = self.left + GAP;
                let u = up + GAP;
                let (best, ptr) = if d >= l && d >= u {
                    (d, PTR_DIAG)
                } else if l >= u {
                    (l, PTR_LEFT)
                } else {
                    (u, PTR_UP)
                };
                ctx.scratchpad(self.tb).write(i * (n + 1) + j, ptr);
                // Slide the window: current row j-th value replaces dp_row.
                self.diag = up;
                self.left = best;
                ctx.scratchpad(self.dp_row).write(j, best as u32 as u64);
                self.j += 1;
                if self.j > n {
                    self.i += 1;
                    self.j = 1;
                    self.diag = ((self.i as i32) - 1) * GAP; // dp[i-1][0]
                    self.left = (self.i as i32) * GAP; // dp[i][0]
                    if self.i > n {
                        // Traceback starts at (n, n).
                        self.i = n;
                        self.j = n;
                        self.out_len = 0;
                        self.phase = Phase::Traceback;
                    }
                }
            }
            Phase::Traceback => {
                if self.i == 0 && self.j == 0 {
                    self.phase = Phase::Pad;
                    return;
                }
                let n = self.n;
                let (i, j) = (self.i, self.j);
                let ptr = if i == 0 {
                    PTR_LEFT
                } else if j == 0 {
                    PTR_UP
                } else {
                    ctx.scratchpad(self.tb).read(i * (n + 1) + j)
                };
                let (ca, cb) = match ptr {
                    PTR_DIAG => {
                        let ca = ctx.scratchpad(self.seq_a).read(i - 1);
                        let cb = ctx.scratchpad(self.seq_b).read(j - 1);
                        self.i -= 1;
                        self.j -= 1;
                        (ca, cb)
                    }
                    PTR_LEFT => {
                        let cb = ctx.scratchpad(self.seq_b).read(j - 1);
                        self.j -= 1;
                        (u64::from(b'-'), cb)
                    }
                    _ => {
                        let ca = ctx.scratchpad(self.seq_a).read(i - 1);
                        self.i -= 1;
                        (ca, u64::from(b'-'))
                    }
                };
                ctx.scratchpad(self.out_a).write(self.out_len, ca);
                ctx.scratchpad(self.out_b).write(self.out_len, cb);
                self.out_len += 1;
            }
            Phase::Pad => {
                // Pad both aligned strings to 2n with '_'.
                if self.out_len < 2 * self.n {
                    ctx.scratchpad(self.out_a)
                        .write(self.out_len, u64::from(PAD));
                    ctx.scratchpad(self.out_b)
                        .write(self.out_len, u64::from(PAD));
                    self.out_len += 1;
                } else {
                    self.drain_pos = 0;
                    self.phase = Phase::Drain;
                }
            }
            Phase::Drain => {
                // Stream out_a then out_b, 4 bytes per cycle.
                let total = 4 * self.n;
                for _ in 0..4 {
                    if self.drain_pos >= total || !ctx.writer(self.out).can_push() {
                        break;
                    }
                    let byte = if self.drain_pos < 2 * self.n {
                        ctx.scratchpad(self.out_a).read(self.drain_pos) as u8
                    } else {
                        ctx.scratchpad(self.out_b).read(self.drain_pos - 2 * self.n) as u8
                    };
                    ctx.writer(self.out).push_chunk(&[byte]);
                    self.drain_pos += 1;
                }
                if self.drain_pos >= total {
                    self.phase = Phase::Finish;
                }
            }
            Phase::Finish => {
                if ctx.writer(self.out).done() && ctx.respond(sim, 0) {
                    self.phase = Phase::Idle;
                }
            }
        }
    }
}

/// Command spec: `nw(seq_a, seq_b, out, n)`.
pub fn command_spec() -> AccelCommandSpec {
    AccelCommandSpec::new(
        "nw",
        vec![
            ("seq_a".to_owned(), FieldType::Address),
            ("seq_b".to_owned(), FieldType::Address),
            ("out".to_owned(), FieldType::Address),
            ("n".to_owned(), FieldType::U(16)),
        ],
    )
}

/// Configuration for sequences up to `max_n`.
pub fn config(n_cores: u32, max_n: usize) -> AcceleratorConfig {
    AcceleratorConfig::new().with_system(
        SystemConfig::new(SYSTEM, n_cores, command_spec(), |ports| {
            Box::new(NwCore::new(ports))
        })
        .with_read(ReadChannelConfig::new("a", 16))
        .with_read(ReadChannelConfig::new("b", 16))
        .with_write(WriteChannelConfig::new("out", 16))
        .with_scratchpad(ScratchpadConfig::new("seq_a", 8, max_n))
        .with_scratchpad(ScratchpadConfig::new("seq_b", 8, max_n))
        .with_scratchpad(ScratchpadConfig::new("dp_row", 32, max_n + 1))
        .with_scratchpad(ScratchpadConfig::new("tb", 2, (max_n + 1) * (max_n + 1)))
        .with_scratchpad(ScratchpadConfig::new("out_a", 8, 2 * max_n))
        .with_scratchpad(ScratchpadConfig::new("out_b", 8, 2 * max_n))
        .with_core_logic(ResourceVector::new(900, 5_500, 5_000, 0, 0, 0)),
    )
}

/// Argument map for an `nw` call.
pub fn args(seq_a: u64, seq_b: u64, out: u64, n: usize) -> std::collections::BTreeMap<String, u64> {
    [
        ("seq_a".to_owned(), seq_a),
        ("seq_b".to_owned(), seq_b),
        ("out".to_owned(), out),
        ("n".to_owned(), n as u64),
    ]
    .into_iter()
    .collect()
}

/// Deterministic workload: two random ACTG sequences of length `n`.
pub fn workload(n: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = super::SplitMix64(seed);
    let alphabet = [b'A', b'C', b'T', b'G'];
    let a = (0..n).map(|_| alphabet[rng.below(4) as usize]).collect();
    let b = (0..n).map(|_| alphabet[rng.below(4) as usize]).collect();
    (a, b)
}

/// Software reference: the aligned pair, in traceback order (end-first),
/// each padded with [`PAD`] to `2n` bytes — the exact layout the core
/// writes.
pub fn reference(a: &[u8], b: &[u8], n: usize) -> (Vec<u8>, Vec<u8>) {
    let w = n + 1;
    let mut dp = vec![0i32; w * w];
    let mut ptr = vec![0u8; w * w];
    for (j, (d, p)) in dp.iter_mut().zip(ptr.iter_mut()).take(n + 1).enumerate() {
        *d = j as i32 * GAP;
        *p = PTR_LEFT as u8;
    }
    for i in 1..=n {
        dp[i * w] = i as i32 * GAP;
        ptr[i * w] = PTR_UP as u8;
        for j in 1..=n {
            let score = if a[i - 1] == b[j - 1] {
                MATCH
            } else {
                MISMATCH
            };
            let d = dp[(i - 1) * w + j - 1] + score;
            let l = dp[i * w + j - 1] + GAP;
            let u = dp[(i - 1) * w + j] + GAP;
            let (best, p) = if d >= l && d >= u {
                (d, PTR_DIAG as u8)
            } else if l >= u {
                (l, PTR_LEFT as u8)
            } else {
                (u, PTR_UP as u8)
            };
            dp[i * w + j] = best;
            ptr[i * w + j] = p;
        }
    }
    let mut out_a = Vec::new();
    let mut out_b = Vec::new();
    let (mut i, mut j) = (n, n);
    while i > 0 || j > 0 {
        let p = if i == 0 {
            PTR_LEFT as u8
        } else if j == 0 {
            PTR_UP as u8
        } else {
            ptr[i * w + j]
        };
        match u64::from(p) {
            PTR_DIAG => {
                out_a.push(a[i - 1]);
                out_b.push(b[j - 1]);
                i -= 1;
                j -= 1;
            }
            PTR_LEFT => {
                out_a.push(b'-');
                out_b.push(b[j - 1]);
                j -= 1;
            }
            _ => {
                out_a.push(a[i - 1]);
                out_b.push(b'-');
                i -= 1;
            }
        }
    }
    out_a.resize(2 * n, PAD);
    out_b.resize(2 * n, PAD);
    (out_a, out_b)
}

/// Alignment score of the reference DP (for sanity checks).
pub fn reference_score(a: &[u8], b: &[u8], n: usize) -> i32 {
    let w = n + 1;
    let mut dp = vec![0i32; w * w];
    for (j, d) in dp.iter_mut().take(n + 1).enumerate() {
        *d = j as i32 * GAP;
    }
    for i in 1..=n {
        dp[i * w] = i as i32 * GAP;
        for j in 1..=n {
            let score = if a[i - 1] == b[j - 1] {
                MATCH
            } else {
                MISMATCH
            };
            dp[i * w + j] = (dp[(i - 1) * w + j - 1] + score)
                .max(dp[i * w + j - 1] + GAP)
                .max(dp[(i - 1) * w + j] + GAP);
        }
    }
    dp[n * w + n]
}

/// DP cells per invocation (the useful-op count for throughput).
pub fn ops(n: usize) -> u64 {
    (n * n) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcore::elaborate;
    use bplatform::Platform;

    type AlignedPair = (Vec<u8>, Vec<u8>);

    fn run(n: usize, seed: u64) -> (AlignedPair, AlignedPair) {
        let mut soc = elaborate(config(1, n), &Platform::sim()).unwrap();
        let (a, b) = workload(n, seed);
        let (a_addr, b_addr, out_addr) = (0x1_0000u64, 0x2_0000u64, 0x3_0000u64);
        {
            let mem = soc.memory();
            let mut mem = mem.borrow_mut();
            mem.write(a_addr, &a);
            mem.write(b_addr, &b);
        }
        let token = soc
            .send_command(0, 0, &args(a_addr, b_addr, out_addr, n))
            .unwrap();
        soc.run_until_response(token, 50_000_000)
            .expect("nw finishes");
        let mem = soc.memory();
        let out_a = mem.borrow().read_vec(out_addr, 2 * n);
        let out_b = mem.borrow().read_vec(out_addr + (2 * n) as u64, 2 * n);
        ((out_a, out_b), reference(&a, &b, n))
    }

    #[test]
    fn nw_alignment_matches_reference() {
        let ((got_a, got_b), (ref_a, ref_b)) = run(32, 11);
        assert_eq!(got_a, ref_a);
        assert_eq!(got_b, ref_b);
    }

    #[test]
    fn nw_identical_sequences_align_perfectly() {
        let n = 16;
        let mut soc = elaborate(config(1, n), &Platform::sim()).unwrap();
        let a = vec![b'A'; n];
        {
            let mem = soc.memory();
            mem.borrow_mut().write(0x1000, &a);
            mem.borrow_mut().write(0x2000, &a);
        }
        let token = soc
            .send_command(0, 0, &args(0x1000, 0x2000, 0x3000, n))
            .unwrap();
        soc.run_until_response(token, 10_000_000).unwrap();
        let out = soc.memory().borrow().read_vec(0x3000, n);
        assert_eq!(out, a, "perfect alignment emits the sequence itself");
        assert_eq!(reference_score(&a, &a, n), n as i32);
    }

    #[test]
    fn reference_alignment_reconstructs_score() {
        // Property: stripping gaps from the aligned outputs recovers the
        // original sequences (reversed).
        let n = 24;
        let (a, b) = workload(n, 3);
        let (out_a, out_b) = reference(&a, &b, n);
        let strip = |s: &[u8]| -> Vec<u8> {
            let mut v: Vec<u8> = s
                .iter()
                .copied()
                .filter(|&c| c != b'-' && c != PAD)
                .collect();
            v.reverse();
            v
        };
        assert_eq!(strip(&out_a), a);
        assert_eq!(strip(&out_b), b);
    }
}
