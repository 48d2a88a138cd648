//! The A³ accelerator core, composed from Beethoven primitives.
//!
//! Structure follows the paper's Figure 7: a dot-product stage, an
//! exponent/softmax stage, and an output stage, connected by FIFOs because
//! each stage ends in a global reduction (max, then sum) that must complete
//! before the next stage may start on that query. The three stages work on
//! *different queries* concurrently, so steady-state throughput is one
//! query per `keys` cycles — which is what makes the multi-core
//! composition worthwhile, exactly as A³'s authors intended (§III-C).
//!
//! Keys and values are stationary (loaded once by a `load_kv` command);
//! queries stream in through a Reader and results stream out through a
//! Writer.

use std::collections::VecDeque;

use bcore::{
    AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType, PortTable,
    ReadChannelConfig, ReaderId, ScratchpadConfig, ScratchpadId, SystemConfig, WriteChannelConfig,
    WriterId,
};
use bplatform::ResourceVector;

use crate::fixed::{exp_lut, exp_weight, AttentionParams};

/// System name.
pub const SYSTEM: &str = "A3System";

/// BERT embedding dimension (the paper's parameterization).
pub const BERT_DIM: usize = 64;
/// BERT key/value rows (sentences).
pub const BERT_KEYS: usize = 320;

/// Command modes.
const MODE_LOAD_KV: u64 = 0;
const MODE_ATTEND: u64 = 1;

#[derive(Debug)]
struct Stage1 {
    query: Vec<i8>,
    key_idx: usize,
    scores: Vec<i32>,
    max: i32,
}

#[derive(Debug)]
struct Stage2 {
    scores: Vec<i32>,
    max: i32,
    idx: usize,
    weights: Vec<u32>,
    wsum: u64,
}

#[derive(Debug)]
struct Stage3 {
    weights: Vec<u32>,
    recip: u64,
    key_idx: usize,
    acc: Vec<i64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Idle,
    LoadingKeys,
    LoadingValues,
    Attending,
}

/// The A³ core.
pub struct A3Core {
    kv_in: ReaderId,
    q_in: ReaderId,
    out: WriterId,
    keys: ScratchpadId,
    values: ScratchpadId,
    dim: usize,
    max_keys: usize,
    n_keys: usize,
    lut: Vec<u16>,
    mode: Mode,
    /// Values address saved across the two-phase load.
    values_addr: u64,
    /// Queries not yet entered into stage 1.
    queries_pending: usize,
    /// Outputs not yet drained to the writer.
    outputs_pending: usize,
    stage1: Option<Stage1>,
    fifo1: VecDeque<(Vec<i32>, i32)>,
    stage2: Option<Stage2>,
    fifo2: VecDeque<(Vec<u32>, u64)>,
    stage3: Option<Stage3>,
}

impl A3Core {
    /// A core for embeddings of `dim` and up to `max_keys` key rows, bound
    /// to the ports of [`a3_config`].
    pub fn new(dim: usize, max_keys: usize, ports: &PortTable) -> Self {
        Self {
            kv_in: ports.reader("kv_in"),
            q_in: ports.reader("q_in"),
            out: ports.writer("out"),
            keys: ports.scratchpad("keys"),
            values: ports.scratchpad("values"),
            dim,
            max_keys,
            n_keys: 0,
            lut: exp_lut(),
            mode: Mode::Idle,
            values_addr: 0,
            queries_pending: 0,
            outputs_pending: 0,
            stage1: None,
            fifo1: VecDeque::new(),
            stage2: None,
            fifo2: VecDeque::new(),
            stage3: None,
        }
    }

    fn pipeline_idle(&self) -> bool {
        self.stage1.is_none()
            && self.stage2.is_none()
            && self.stage3.is_none()
            && self.fifo1.is_empty()
            && self.fifo2.is_empty()
    }

    /// Stage 3: one key row of `w_i · v[i][·]` per cycle, then the
    /// reciprocal normalization and a 64-byte output push.
    fn tick_stage3(&mut self, ctx: &mut CoreContext) {
        if self.stage3.is_none() {
            if let Some((weights, wsum)) = self.fifo2.pop_front() {
                self.stage3 = Some(Stage3 {
                    weights,
                    recip: (1u64 << 32) / wsum.max(1),
                    key_idx: 0,
                    acc: vec![0i64; self.dim],
                });
            }
        }
        let Some(st) = &mut self.stage3 else { return };
        if st.key_idx < self.n_keys {
            let i = st.key_idx;
            let w = i64::from(st.weights[i]);
            let values = ctx.scratchpad(self.values);
            for j in 0..self.dim {
                let v = values.read(i * self.dim + j) as u8 as i8;
                st.acc[j] += w * i64::from(v);
            }
            st.key_idx += 1;
            return;
        }
        // Finalize: normalize and emit one output row.
        if !ctx.writer(self.out).can_push() {
            return;
        }
        let recip = st.recip as i64;
        let row: Vec<u8> = st
            .acc
            .iter()
            .map(|&acc| ((acc * recip + (1 << 31)) >> 32).clamp(-128, 127) as i8 as u8)
            .collect();
        ctx.writer(self.out).push_chunk(&row);
        ctx.stats().incr("a3_outputs");
        self.outputs_pending -= 1;
        self.stage3 = None;
    }

    /// Stage 2: one LUT exponentiation per cycle with a running sum.
    fn tick_stage2(&mut self) {
        if self.stage2.is_none() {
            if let Some((scores, max)) = self.fifo1.pop_front() {
                self.stage2 = Some(Stage2 {
                    scores,
                    max,
                    idx: 0,
                    weights: Vec::with_capacity(self.n_keys),
                    wsum: 0,
                });
            }
        }
        let Some(st) = &mut self.stage2 else { return };
        if st.idx < self.n_keys {
            let w = exp_weight(&self.lut, st.max - st.scores[st.idx]);
            st.weights.push(w);
            st.wsum += u64::from(w);
            st.idx += 1;
            return;
        }
        if self.fifo2.len() < 2 {
            let st = self.stage2.take().expect("checked above");
            self.fifo2.push_back((st.weights, st.wsum));
        }
    }

    /// Stage 1: one key dot product per cycle (a `dim`-wide MAC array),
    /// with the running max reduction.
    fn tick_stage1(&mut self, ctx: &mut CoreContext) {
        let reader = ctx.reader(self.q_in);
        if self.stage1.is_none() && self.queries_pending > 0 && reader.available() >= self.dim {
            let mut query = vec![0u8; self.dim];
            reader.pop_into(&mut query);
            self.stage1 = Some(Stage1 {
                query: query.into_iter().map(|b| b as i8).collect(),
                key_idx: 0,
                scores: Vec::with_capacity(self.n_keys),
                max: i32::MIN,
            });
            self.queries_pending -= 1;
        }
        let Some(st) = &mut self.stage1 else { return };
        if st.key_idx < self.n_keys {
            let i = st.key_idx;
            let mut acc = 0i32;
            let keys = ctx.scratchpad(self.keys);
            for j in 0..self.dim {
                let k = keys.read(i * self.dim + j) as u8 as i8;
                acc += i32::from(st.query[j]) * i32::from(k);
            }
            st.scores.push(acc);
            st.max = st.max.max(acc);
            st.key_idx += 1;
            return;
        }
        if self.fifo1.len() < 2 {
            let st = self.stage1.take().expect("checked above");
            self.fifo1.push_back((st.scores, st.max));
        }
    }
}

impl AcceleratorCore for A3Core {
    // In Mode::Idle a tick only polls the command queue, which the harness
    // watches through the queue's visibility clock — safe to fast-forward.
    fn idle(&self) -> bool {
        self.mode == Mode::Idle
    }

    fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
        match self.mode {
            Mode::Idle => {
                if let Some(cmd) = ctx.take_command(sim) {
                    match cmd.arg("mode") {
                        MODE_LOAD_KV => {
                            self.n_keys = cmd.arg("n") as usize;
                            assert!(
                                self.n_keys <= self.max_keys,
                                "n_keys exceeds configured capacity"
                            );
                            assert!(
                                self.n_keys * self.dim <= ctx.scratchpad(self.keys).len(),
                                "n_keys exceeds scratchpad capacity"
                            );
                            self.values_addr = cmd.arg("b");
                            let keys_addr = cmd.arg("a");
                            let (sp, reader) = ctx.scratchpad_and_reader(self.keys, self.kv_in);
                            sp.start_init(reader, keys_addr).expect("reader idle");
                            self.mode = Mode::LoadingKeys;
                        }
                        MODE_ATTEND => {
                            assert!(self.n_keys > 0, "attend before load_kv");
                            let n_queries = cmd.arg("n") as usize;
                            let q_addr = cmd.arg("a");
                            let out_addr = cmd.arg("b");
                            self.queries_pending = n_queries;
                            self.outputs_pending = n_queries;
                            ctx.reader(self.q_in)
                                .request(q_addr, (n_queries * self.dim) as u64)
                                .expect("reader idle");
                            ctx.writer(self.out)
                                .request(out_addr, (n_queries * self.dim) as u64)
                                .expect("writer idle");
                            self.mode = Mode::Attending;
                        }
                        other => panic!("unknown A3 command mode {other}"),
                    }
                }
            }
            Mode::LoadingKeys => {
                let (sp, reader) = ctx.scratchpad_and_reader(self.keys, self.kv_in);
                sp.service_init(reader);
                if !ctx.scratchpad(self.keys).initializing() {
                    let addr = self.values_addr;
                    let (sp, reader) = ctx.scratchpad_and_reader(self.values, self.kv_in);
                    sp.start_init(reader, addr).expect("reader idle after keys");
                    self.mode = Mode::LoadingValues;
                }
            }
            Mode::LoadingValues => {
                let (sp, reader) = ctx.scratchpad_and_reader(self.values, self.kv_in);
                sp.service_init(reader);
                if !ctx.scratchpad(self.values).initializing() && ctx.respond(sim, 0) {
                    self.mode = Mode::Idle;
                }
            }
            Mode::Attending => {
                // Stage order 3→2→1 so a value moving between stages takes
                // a cycle, like the registered FIFOs it models.
                self.tick_stage3(ctx);
                self.tick_stage2();
                self.tick_stage1(ctx);
                if self.queries_pending == 0
                    && self.outputs_pending == 0
                    && self.pipeline_idle()
                    && ctx.writer(self.out).done()
                    && ctx.respond(sim, 0)
                {
                    self.mode = Mode::Idle;
                }
            }
        }
    }
}

impl std::fmt::Debug for A3Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("A3Core")
            .field("dim", &self.dim)
            .field("n_keys", &self.n_keys)
            .field("mode", &self.mode)
            .field("queries_pending", &self.queries_pending)
            .finish()
    }
}

/// Command spec shared by both modes.
pub fn command_spec() -> AccelCommandSpec {
    AccelCommandSpec::new(
        "a3",
        vec![
            ("mode".to_owned(), FieldType::U(2)),
            ("a".to_owned(), FieldType::Address),
            ("b".to_owned(), FieldType::Address),
            ("n".to_owned(), FieldType::U(20)),
        ],
    )
}

/// The multi-core A³ configuration. Resource figures follow Table II's
/// per-core kernel row (≈3K CLB / 16.9K LUT / 8.2K FF of kernel logic,
/// with the scratchpads and readers accounted by the elaborator).
pub fn a3_config(n_cores: u32, params: AttentionParams) -> AcceleratorConfig {
    let dim = params.dim;
    let keys = params.keys;
    AcceleratorConfig::new().with_system(
        SystemConfig::new(SYSTEM, n_cores, command_spec(), move |ports| {
            Box::new(A3Core::new(dim, keys, ports))
        })
        .with_read(ReadChannelConfig::new("kv_in", 64))
        .with_read(ReadChannelConfig::new("q_in", 64))
        .with_write(WriteChannelConfig::new("out", 64))
        // Keys/values feed a dim-wide MAC array every cycle plus the init
        // write port: triple-banked on FPGAs (Table II's ~15-BRAM
        // scratchpads come from exactly this replication).
        .with_scratchpad(
            ScratchpadConfig::new("keys", 8, keys * dim)
                .with_ports(2)
                .with_latency(1)
                .with_copies(3),
        )
        .with_scratchpad(
            ScratchpadConfig::new("values", 8, keys * dim)
                .with_ports(2)
                .with_latency(1)
                .with_copies(3),
        )
        // Score/weight FIFOs between the stages (two queries deep each).
        .with_scratchpad(ScratchpadConfig::new("score_fifo", 32, 2 * keys))
        .with_scratchpad(ScratchpadConfig::new("weight_fifo", 32, 2 * keys))
        .with_core_logic(ResourceVector::new(
            2_200,
            16_900,
            8_200,
            0,
            0,
            2 * dim as u64,
        )),
    )
}

/// Argument map for the `load_kv` command.
pub fn load_kv_args(
    keys: u64,
    values: u64,
    n_keys: usize,
) -> std::collections::BTreeMap<String, u64> {
    [
        ("mode".to_owned(), MODE_LOAD_KV),
        ("a".to_owned(), keys),
        ("b".to_owned(), values),
        ("n".to_owned(), n_keys as u64),
    ]
    .into_iter()
    .collect()
}

/// Argument map for the `attend` command.
pub fn attend_args(q: u64, out: u64, n_queries: usize) -> std::collections::BTreeMap<String, u64> {
    [
        ("mode".to_owned(), MODE_ATTEND),
        ("a".to_owned(), q),
        ("b".to_owned(), out),
        ("n".to_owned(), n_queries as u64),
    ]
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{attention_fixed, workload};
    use bcore::elaborate;
    use bplatform::Platform;

    fn run_attention(
        params: AttentionParams,
        n_queries: usize,
    ) -> (Vec<i8>, Vec<i8>, Vec<i8>, Vec<i8>, u64) {
        let mut soc = elaborate(a3_config(1, params), &Platform::sim()).unwrap();
        let (queries, keys, values) = workload(&params, n_queries, 77);
        let (k_addr, v_addr, q_addr, o_addr) = (0x1_0000u64, 0x2_0000u64, 0x3_0000u64, 0x8_0000u64);
        {
            let mem = soc.memory();
            let mut mem = mem.borrow_mut();
            mem.write_i8_slice(k_addr, &keys);
            mem.write_i8_slice(v_addr, &values);
            mem.write_i8_slice(q_addr, &queries);
        }
        let load = soc
            .send_command(0, 0, &load_kv_args(k_addr, v_addr, params.keys))
            .unwrap();
        soc.run_until_response(load, 10_000_000).expect("load_kv");
        let start = soc.now();
        let attend = soc
            .send_command(0, 0, &attend_args(q_addr, o_addr, n_queries))
            .unwrap();
        soc.run_until_response(attend, 100_000_000).expect("attend");
        let cycles = soc.now() - start;
        let out = soc
            .memory()
            .borrow()
            .read_i8_slice(o_addr, n_queries * params.dim);
        (queries, keys, values, out, cycles)
    }

    #[test]
    fn a3_core_matches_fixed_reference() {
        let params = AttentionParams { dim: 16, keys: 24 };
        let (queries, keys, values, out, _) = run_attention(params, 4);
        let lut = exp_lut();
        for q in 0..4 {
            let query = &queries[q * params.dim..(q + 1) * params.dim];
            let expect = attention_fixed(&params, &lut, query, &keys, &values);
            assert_eq!(
                &out[q * params.dim..(q + 1) * params.dim],
                expect.as_slice(),
                "query {q} mismatch"
            );
        }
    }

    #[test]
    fn pipeline_reaches_one_query_per_keys_cycles() {
        let params = AttentionParams { dim: 16, keys: 32 };
        let n_queries = 32;
        let (.., cycles) = run_attention(params, n_queries);
        let per_query = cycles as f64 / n_queries as f64;
        // Steady state is `keys` cycles per query; allow generous overhead
        // for fill/drain and memory.
        assert!(
            per_query < 2.5 * params.keys as f64,
            "pipelined throughput {per_query:.1} cycles/query vs {} keys",
            params.keys
        );
        // And it must be better than an unpipelined 3-stage design.
        assert!(
            per_query < 3.0 * params.keys as f64,
            "pipelining should beat 3 sequential stages"
        );
    }

    #[test]
    fn bert_parameterization_elaborates() {
        let params = AttentionParams {
            dim: BERT_DIM,
            keys: BERT_KEYS,
        };
        let soc = elaborate(a3_config(2, params), &Platform::aws_f1()).unwrap();
        assert_eq!(soc.report().cores_per_slr.iter().sum::<usize>(), 2);
    }

    #[test]
    #[should_panic(expected = "attend before load_kv")]
    fn attend_without_load_panics() {
        let params = AttentionParams { dim: 8, keys: 8 };
        let mut soc = elaborate(a3_config(1, params), &Platform::sim()).unwrap();
        let t = soc.send_command(0, 0, &attend_args(0, 0x1000, 1)).unwrap();
        let _ = soc.run_until_response(t, 1_000);
    }
}
