//! Fault-injection tests: protocol violations and misuse must fail loudly
//! and precisely, not corrupt state.

use bcore::{
    elaborate, AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType,
    ReadChannelConfig, ReaderId, SystemConfig, WriteChannelConfig, WriterId,
};
use bplatform::Platform;

struct MisbehavingCore {
    input: ReaderId,
    output: WriterId,
    mode: u64,
}

impl AcceleratorCore for MisbehavingCore {
    fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
        if let Some(cmd) = ctx.take_command(sim) {
            self.mode = cmd.arg("mode");
            match self.mode {
                // 1: double-request a busy reader.
                1 => {
                    ctx.reader(self.input).request(0, 64).unwrap();
                    ctx.reader(self.input)
                        .request(64, 64)
                        .expect("second request on busy reader");
                }
                // 2: push more data than the writer request declared.
                2 => {
                    ctx.writer(self.output).request(0, 4).unwrap();
                    ctx.writer(self.output).push_u32(1);
                    ctx.writer(self.output).push_u32(2); // one word too many
                }
                _ => {
                    ctx.respond(sim, 0);
                }
            }
        }
    }
}

fn spec() -> AccelCommandSpec {
    AccelCommandSpec::new("poke", vec![("mode".to_owned(), FieldType::U(4))])
}

/// A `Chaos` system whose core binds its read port by the name `reader`.
fn soc_binding(platform: &Platform, reader: &'static str) -> bcore::SocSim {
    let cfg = AcceleratorConfig::new().with_system(
        SystemConfig::new("Chaos", 1, spec(), move |ports| {
            Box::new(MisbehavingCore {
                input: ports.reader(reader),
                output: ports.writer("out"),
                mode: 0,
            })
        })
        .with_read(ReadChannelConfig::new("in", 4))
        .with_write(WriteChannelConfig::new("out", 4)),
    );
    elaborate(cfg, platform).unwrap()
}

fn soc(platform: &Platform) -> bcore::SocSim {
    soc_binding(platform, "in")
}

fn poke(mode: u64) {
    let mut s = soc(&Platform::sim());
    let args = [("mode".to_owned(), mode)].into_iter().collect();
    let t = s.send_command(0, 0, &args).unwrap();
    let _ = s.run_until_response(t, 10_000);
}

#[test]
fn double_request_on_busy_reader_panics() {
    let result = std::panic::catch_unwind(|| poke(1));
    assert!(
        result.is_err(),
        "re-requesting a busy reader must panic (ready was low)"
    );
}

#[test]
fn over_pushing_a_writer_panics() {
    let result = std::panic::catch_unwind(|| poke(2));
    assert!(
        result.is_err(),
        "pushing beyond the declared length must panic"
    );
}

#[test]
fn undeclared_channel_access_panics_with_its_name() {
    // Ports bind at elaboration, so the misuse surfaces there, before any
    // cycle runs.
    let result = std::panic::catch_unwind(|| soc_binding(&Platform::sim(), "nonexistent"));
    let err = result.expect_err("undeclared channel must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_default();
    assert!(
        msg.contains("nonexistent"),
        "panic should name the channel: {msg}"
    );
}

#[test]
fn well_behaved_mode_completes_normally() {
    poke(0); // must not panic
}

#[test]
fn mmio_fifo_overrun_is_detected() {
    // Bypass the QueueFull check by writing raw words for more commands
    // than the command queue holds: the frontend asserts on overrun.
    let result = std::panic::catch_unwind(|| {
        let mut s = soc(&Platform::sim());
        let args = [("mode".to_owned(), 5u64)].into_iter().collect();
        let packed = bcore::command::pack_command(&spec(), 0, 0, &args).unwrap();
        // Never stepping the simulation, so the queue (depth 8) cannot
        // drain; the 9th command overruns.
        for _ in 0..16 {
            for beat in &packed.beats {
                for word in bcore::mmio::encode_command(beat) {
                    s.mmio_write_cmd_word(word);
                }
            }
        }
    });
    assert!(result.is_err(), "command FIFO overrun must be detected");
}
