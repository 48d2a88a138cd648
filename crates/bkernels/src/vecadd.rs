//! The paper's running example (Figures 2/3): a vector-add core with one
//! Reader and one Writer, adding a scalar to every 32-bit element.

use bcore::{
    AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType, PortTable,
    ReadChannelConfig, ReaderId, SystemConfig, WriteChannelConfig, WriterId,
};

/// The system name used in configurations and bindings.
pub const SYSTEM: &str = "MyAcceleratorSystem";

/// The vector-add core of Figure 2: `for each 32b chunk, add addend and
/// write back`.
#[derive(Debug)]
pub struct VecAddCore {
    vec_in: ReaderId,
    vec_out: WriterId,
    addend: u32,
    remaining: u32,
    active: bool,
}

impl VecAddCore {
    /// A fresh, idle core bound to the `vec_in` / `vec_out` streams.
    pub fn new(ports: &PortTable) -> Self {
        Self {
            vec_in: ports.reader("vec_in"),
            vec_out: ports.writer("vec_out"),
            addend: 0,
            remaining: 0,
            active: false,
        }
    }
}

impl AcceleratorCore for VecAddCore {
    // Between commands a tick only polls the command queue, which the
    // harness watches through its visibility clock.
    fn idle(&self) -> bool {
        !self.active
    }

    fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
        if !self.active {
            if let Some(cmd) = ctx.take_command(sim) {
                self.addend = cmd.arg("addend") as u32;
                let n = cmd.arg("n_eles") as u32;
                let addr = cmd.arg("vec_addr");
                self.remaining = n;
                self.active = true;
                // write_len_bytes = Cat(n_eles, 0.U(2.W)) — i.e. n * 4.
                let bytes = u64::from(n) * 4;
                ctx.reader(self.vec_in)
                    .request(addr, bytes)
                    .expect("reader idle");
                ctx.writer(self.vec_out)
                    .request(addr, bytes)
                    .expect("writer idle");
            }
            return;
        }
        while self.remaining > 0 && ctx.writer(self.vec_out).can_push() {
            let Some(v) = ctx.reader(self.vec_in).pop_u32() else {
                break;
            };
            let out = v.wrapping_add(self.addend);
            ctx.writer(self.vec_out).push_u32(out);
            self.remaining -= 1;
        }
        if self.remaining == 0 && ctx.writer(self.vec_out).done() && ctx.respond(sim, 0) {
            self.active = false;
        }
    }
}

/// The command spec of Figure 2's `BeethovenIO`.
pub fn command_spec() -> AccelCommandSpec {
    AccelCommandSpec::new(
        "my_accel",
        vec![
            ("addend".to_owned(), FieldType::U(32)),
            ("vec_addr".to_owned(), FieldType::Address),
            ("n_eles".to_owned(), FieldType::U(20)),
        ],
    )
}

/// The Figure 3a configuration: `nCores` vector-add cores with `vec_in` /
/// `vec_out` channels of 4 bytes.
pub fn config(n_cores: u32) -> AcceleratorConfig {
    AcceleratorConfig::new().with_system(
        SystemConfig::new(SYSTEM, n_cores, command_spec(), |ports| {
            Box::new(VecAddCore::new(ports))
        })
        .with_read(ReadChannelConfig::new("vec_in", 4))
        .with_write(WriteChannelConfig::new("vec_out", 4)),
    )
}

/// Builds the argument map for a `my_accel` call.
pub fn args(addend: u32, vec_addr: u64, n_eles: u32) -> std::collections::BTreeMap<String, u64> {
    [
        ("addend".to_owned(), u64::from(addend)),
        ("vec_addr".to_owned(), vec_addr),
        ("n_eles".to_owned(), u64::from(n_eles)),
    ]
    .into_iter()
    .collect()
}

/// Software reference.
pub fn reference(input: &[u32], addend: u32) -> Vec<u32> {
    input.iter().map(|v| v.wrapping_add(addend)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcore::elaborate;
    use bplatform::Platform;
    use bruntime::FpgaHandle;

    #[test]
    fn vecadd_matches_reference_through_runtime() {
        let soc = elaborate(config(1), &Platform::kria()).unwrap();
        let handle = FpgaHandle::new(soc);
        let input: Vec<u32> = (0..512).map(|i| i * 11).collect();
        let mem = handle.malloc(512 * 4).unwrap();
        handle.write_u32_slice(mem, &input);
        let resp = handle
            .call(SYSTEM, 0, args(0xCAFE, mem.device_addr(), 512))
            .unwrap();
        resp.get().unwrap();
        assert_eq!(handle.read_u32_slice(mem, 512), reference(&input, 0xCAFE));
    }

    #[test]
    fn vecadd_on_asic_platform() {
        // The same config elaborates unchanged on the ASIC target — the
        // portability claim of Figure 3a.
        let soc = elaborate(config(2), &Platform::asap7_asic()).unwrap();
        let handle = FpgaHandle::new(soc);
        let input: Vec<u32> = (0..256).collect();
        let mem = handle.malloc(1024).unwrap();
        handle.write_u32_slice(mem, &input);
        handle.copy_to_fpga(mem);
        let resp = handle
            .call(SYSTEM, 1, args(5, mem.device_addr(), 256))
            .unwrap();
        resp.get().unwrap();
        handle.copy_from_fpga(mem);
        assert_eq!(handle.read_u32_slice(mem, 256), reference(&input, 5));
    }

    #[test]
    fn zero_element_command_completes() {
        let soc = elaborate(config(1), &Platform::kria()).unwrap();
        let handle = FpgaHandle::new(soc);
        let mem = handle.malloc(64).unwrap();
        let resp = handle
            .call(SYSTEM, 0, args(1, mem.device_addr(), 0))
            .unwrap();
        resp.get().unwrap();
    }
}
