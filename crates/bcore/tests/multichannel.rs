//! Multi-channel stream tests: the appendix's `nChannels` parameter —
//! several independent channels under one declared name, accessed with
//! `getReaderModule(name, idx)`.

use bcore::{
    elaborate, AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType,
    PortTable, ReadChannelConfig, ReaderId, SystemConfig, WriteChannelConfig, WriterId,
};
use bplatform::Platform;

/// `c[i] = a[i] + b[i]` with the two operands on channels 0 and 1 of one
/// read stream.
struct PairAdd {
    operands: ReaderId,
    sum: WriterId,
    remaining: u32,
    active: bool,
}

impl PairAdd {
    fn new(ports: &PortTable) -> Self {
        Self {
            operands: ports.reader("operands"),
            sum: ports.writer("sum"),
            remaining: 0,
            active: false,
        }
    }
}

impl AcceleratorCore for PairAdd {
    fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
        if !self.active {
            if let Some(cmd) = ctx.take_command(sim) {
                let n = cmd.arg("n") as u32;
                let bytes = u64::from(n) * 4;
                ctx.reader_at(self.operands, 0)
                    .request(cmd.arg("a"), bytes)
                    .expect("idle");
                ctx.reader_at(self.operands, 1)
                    .request(cmd.arg("b"), bytes)
                    .expect("idle");
                ctx.writer(self.sum)
                    .request(cmd.arg("c"), bytes)
                    .expect("idle");
                self.remaining = n;
                self.active = true;
            }
            return;
        }
        while self.remaining > 0 && ctx.writer(self.sum).can_push() {
            // Both channels must have data for the lockstep add.
            if ctx.reader_at(self.operands, 0).available() < 4
                || ctx.reader_at(self.operands, 1).available() < 4
            {
                break;
            }
            let a = ctx.reader_at(self.operands, 0).pop_u32().expect("checked");
            let b = ctx.reader_at(self.operands, 1).pop_u32().expect("checked");
            ctx.writer(self.sum).push_u32(a.wrapping_add(b));
            self.remaining -= 1;
        }
        if self.remaining == 0 && ctx.writer(self.sum).done() && ctx.respond(sim, 0) {
            self.active = false;
        }
    }
}

fn config(n_cores: u32) -> AcceleratorConfig {
    let spec = AccelCommandSpec::new(
        "pair_add",
        vec![
            ("a".to_owned(), FieldType::Address),
            ("b".to_owned(), FieldType::Address),
            ("c".to_owned(), FieldType::Address),
            ("n".to_owned(), FieldType::U(20)),
        ],
    );
    AcceleratorConfig::new().with_system(
        SystemConfig::new("PairAdd", n_cores, spec, |ports| {
            Box::new(PairAdd::new(ports))
        })
        .with_read(ReadChannelConfig::new("operands", 4).with_channels(2))
        .with_write(WriteChannelConfig::new("sum", 4)),
    )
}

fn args(a: u64, b: u64, c: u64, n: u32) -> std::collections::BTreeMap<String, u64> {
    [
        ("a".to_owned(), a),
        ("b".to_owned(), b),
        ("c".to_owned(), c),
        ("n".to_owned(), u64::from(n)),
    ]
    .into_iter()
    .collect()
}

#[test]
fn two_channels_stream_independently() {
    let mut soc = elaborate(config(1), &Platform::sim()).unwrap();
    let n = 2048u32;
    let a: Vec<u32> = (0..n).collect();
    let b: Vec<u32> = (0..n).map(|v| v * 1000).collect();
    {
        let mem = soc.memory();
        let mut mem = mem.borrow_mut();
        mem.write_u32_slice(0x1_0000, &a);
        mem.write_u32_slice(0x8_0000, &b);
    }
    let token = soc
        .send_command(0, 0, &args(0x1_0000, 0x8_0000, 0x10_0000, n))
        .unwrap();
    soc.run_until_response(token, 10_000_000)
        .expect("pair add completes");
    let out = soc.memory().borrow().read_u32_slice(0x10_0000, n as usize);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, (i as u32).wrapping_add(i as u32 * 1000));
    }
}

#[test]
fn channel_count_shows_in_port_accounting() {
    let cfg = config(1);
    assert_eq!(
        cfg.systems[0].ports_per_core(),
        3,
        "2 read channels + 1 writer"
    );
    let soc = elaborate(cfg, &Platform::aws_f1()).unwrap();
    // Two prefetch buffers show up in the per-core memory notes.
    let table = soc.report().render_table();
    assert!(table.contains("operands-prefetch"));
}

#[test]
fn each_core_reaches_channels_of_its_own_stream() {
    // Every core's handle carries the same slots; `reader_at(id, i)` must
    // still resolve to channel `i` of the core it runs on.
    let n_cores = 3u16;
    let mut soc = elaborate(config(u32::from(n_cores)), &Platform::sim()).unwrap();
    let n = 512u32;
    let base = |core: u16| 0x10_0000 * (u64::from(core) + 1);
    let mut tokens = Vec::new();
    for core in 0..n_cores {
        let k = u32::from(core) + 1;
        let a: Vec<u32> = (0..n).map(|v| v * k).collect();
        let b: Vec<u32> = (0..n).map(|v| v * 1000 + k).collect();
        {
            let mem = soc.memory();
            let mut mem = mem.borrow_mut();
            mem.write_u32_slice(base(core), &a);
            mem.write_u32_slice(base(core) + 0x4000, &b);
        }
        let call = args(base(core), base(core) + 0x4000, base(core) + 0x8000, n);
        tokens.push(soc.send_command(0, core, &call).unwrap());
    }
    for token in tokens {
        soc.run_until_response(token, 10_000_000)
            .expect("pair add completes");
    }
    for core in 0..n_cores {
        let k = u32::from(core) + 1;
        let out = soc
            .memory()
            .borrow()
            .read_u32_slice(base(core) + 0x8000, n as usize);
        for (i, v) in out.iter().enumerate() {
            let i = i as u32;
            assert_eq!(*v, i * k + i * 1000 + k, "core {core}, element {i}");
        }
    }
}

/// Touches channel 2 of the two-channel `operands` stream.
struct OutOfRange {
    operands: ReaderId,
}

impl AcceleratorCore for OutOfRange {
    fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
        if ctx.take_command(sim).is_some() {
            let _ = ctx.reader_at(self.operands, 2).available();
        }
    }
}

#[test]
#[should_panic(expected = "no channel index 2")]
fn out_of_range_channel_index_panics() {
    let spec = AccelCommandSpec::new("poke", vec![("n".to_owned(), FieldType::U(4))]);
    let cfg = AcceleratorConfig::new().with_system(
        SystemConfig::new("OutOfRange", 1, spec, |ports| {
            Box::new(OutOfRange {
                operands: ports.reader("operands"),
            })
        })
        .with_read(ReadChannelConfig::new("operands", 4).with_channels(2)),
    );
    let mut soc = elaborate(cfg, &Platform::sim()).unwrap();
    let call = [("n".to_owned(), 1u64)].into_iter().collect();
    let token = soc.send_command(0, 0, &call).unwrap();
    let _ = soc.run_until_response(token, 1_000);
}
