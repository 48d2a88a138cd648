//! Core-to-core communication (the paper's §II-A and the appendix's
//! IntraCoreMemoryPort pair): a loader system streams a vector from DRAM
//! and broadcasts it into the scratchpads of a reducer system's cores,
//! which each compute a different reduction.
//!
//! ```text
//! cargo run --release --example core_to_core
//! ```

use beethoven::core::elaborate;
use beethoven::core::{
    AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType,
    IntraCoreMemoryPortInConfig, IntraCoreMemoryPortOutConfig, IntraOutId, ReadChannelConfig,
    ReaderId, ScratchpadId, SystemConfig,
};
use beethoven::platform::Platform;
use beethoven::runtime::FpgaHandle;

/// Streams `n` u32s from DRAM and broadcasts them to the reducers.
struct Loader {
    src: ReaderId,
    feed: IntraOutId,
    sent: u64,
    n: u64,
    active: bool,
}

impl AcceleratorCore for Loader {
    fn tick(&mut self, sim: &beethoven::sim::SimCtx, ctx: &mut CoreContext) {
        if !self.active {
            if let Some(cmd) = ctx.take_command(sim) {
                self.n = cmd.arg("n");
                self.sent = 0;
                self.active = true;
                ctx.reader(self.src)
                    .request(cmd.arg("addr"), self.n * 4)
                    .expect("idle");
            }
            return;
        }
        while self.sent < self.n && ctx.intra_out(self.feed).can_send(sim) {
            let Some(v) = ctx.reader(self.src).pop_u32() else {
                break;
            };
            let (now, idx) = (ctx.now(), self.sent);
            ctx.intra_out(self.feed)
                .send(sim, now, idx, u64::from(v) + 1); // +1 tags "written"
            self.sent += 1;
        }
        if self.sent == self.n && ctx.respond(sim, 0) {
            self.active = false;
        }
    }
}

/// Waits until its inbox holds `n` tagged words, then reduces per `mode`
/// (0 = sum, 1 = max) and responds with the result.
struct Reducer {
    inbox: ScratchpadId,
    n: u64,
    mode: u64,
    active: bool,
}

impl AcceleratorCore for Reducer {
    fn tick(&mut self, sim: &beethoven::sim::SimCtx, ctx: &mut CoreContext) {
        if !self.active {
            if let Some(cmd) = ctx.take_command(sim) {
                self.n = cmd.arg("n");
                self.mode = cmd.arg("mode");
                self.active = true;
            }
            return;
        }
        let full = (0..self.n as usize).all(|i| ctx.scratchpad(self.inbox).read(i) != 0);
        if !full {
            return;
        }
        let values = (0..self.n as usize).map(|i| ctx.scratchpad(self.inbox).read(i) - 1);
        let result = match self.mode {
            0 => values.sum::<u64>(),
            _ => values.max().unwrap_or(0),
        };
        if ctx.respond(sim, result) {
            self.active = false;
        }
    }
}

fn main() {
    let load_spec = AccelCommandSpec::new(
        "load",
        vec![
            ("addr".to_owned(), FieldType::Address),
            ("n".to_owned(), FieldType::U(16)),
        ],
    );
    let reduce_spec = AccelCommandSpec::new(
        "reduce",
        vec![
            ("n".to_owned(), FieldType::U(16)),
            ("mode".to_owned(), FieldType::U(2)),
        ],
    );
    let config = AcceleratorConfig::new()
        .with_system(
            SystemConfig::new("Loader", 1, load_spec, |ports| {
                Box::new(Loader {
                    src: ports.reader("src"),
                    feed: ports.intra_out("feed"),
                    sent: 0,
                    n: 0,
                    active: false,
                })
            })
            .with_read(ReadChannelConfig::new("src", 4))
            .with_intra_out(IntraCoreMemoryPortOutConfig::new(
                "feed", "Reducers", "inbox",
            )),
        )
        .with_system(
            SystemConfig::new("Reducers", 2, reduce_spec, |ports| {
                Box::new(Reducer {
                    inbox: ports.scratchpad("inbox"),
                    n: 0,
                    mode: 0,
                    active: false,
                })
            })
            .with_intra_in(IntraCoreMemoryPortInConfig::new("inbox", 33, 256).broadcast()),
        );

    let soc = elaborate(config, &Platform::aws_f1()).expect("elaborates");
    println!("Structural netlist of the composed two-system SoC:\n");
    println!("{}", soc.report().netlist);
    let handle = FpgaHandle::new(soc);

    let n = 200u32;
    let data: Vec<u32> = (0..n).map(|i| (i * 37) % 1000).collect();
    let mem = handle.malloc(u64::from(n) * 4).unwrap();
    handle.write_u32_slice(mem, &data);
    handle.copy_to_fpga(mem);

    let args = |pairs: &[(&str, u64)]| pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
    let sum = handle
        .call("Reducers", 0, args(&[("n", n.into()), ("mode", 0)]))
        .unwrap();
    let max = handle
        .call("Reducers", 1, args(&[("n", n.into()), ("mode", 1)]))
        .unwrap();
    handle
        .call(
            "Loader",
            0,
            args(&[("addr", mem.device_addr()), ("n", n.into())]),
        )
        .unwrap();

    let sum = sum.get().expect("sum reducer finishes");
    let max = max.get().expect("max reducer finishes");
    assert_eq!(sum, data.iter().map(|&v| u64::from(v)).sum::<u64>());
    assert_eq!(max, u64::from(*data.iter().max().unwrap()));
    println!("core-to-core OK: broadcast {n} words; sum = {sum}, max = {max}");
    println!("(loader and reducers are on different SLRs; links carry crossing latency)");
}
