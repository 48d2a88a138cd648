//! Multi-client runtime tests: §II-C's claim that "separate processes can
//! utilize the FPGA kernels and make allocations without memory
//! conflicts". Our model's analogue: cloned handles share one runtime
//! server (and its lock), with a common allocator arbitrating space.

use bcore::{
    elaborate, AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType,
    PortTable, ReadChannelConfig, ReaderId, SystemConfig, WriteChannelConfig, WriterId,
};
use bplatform::Platform;
use bruntime::FpgaHandle;

/// Adds `k` to every element (a vecadd with a response counter).
struct AddK {
    src: ReaderId,
    dst: WriterId,
    k: u32,
    remaining: u32,
    active: bool,
}

impl AddK {
    fn boxed(ports: &PortTable) -> Box<dyn AcceleratorCore + Send> {
        Box::new(Self {
            src: ports.reader("src"),
            dst: ports.writer("dst"),
            k: 0,
            remaining: 0,
            active: false,
        })
    }
}

impl AcceleratorCore for AddK {
    fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
        if !self.active {
            if let Some(cmd) = ctx.take_command(sim) {
                self.k = cmd.arg("k") as u32;
                let n = cmd.arg("n") as u32;
                self.remaining = n;
                self.active = true;
                ctx.reader(self.src)
                    .request(cmd.arg("addr"), u64::from(n) * 4)
                    .expect("idle");
                ctx.writer(self.dst)
                    .request(cmd.arg("addr"), u64::from(n) * 4)
                    .expect("idle");
            }
            return;
        }
        while self.remaining > 0 && ctx.writer(self.dst).can_push() {
            let Some(v) = ctx.reader(self.src).pop_u32() else {
                break;
            };
            ctx.writer(self.dst).push_u32(v.wrapping_add(self.k));
            self.remaining -= 1;
        }
        if self.remaining == 0 && ctx.writer(self.dst).done() && ctx.respond(sim, u64::from(self.k))
        {
            self.active = false;
        }
    }
}

fn handle(n_cores: u32) -> FpgaHandle {
    let spec = AccelCommandSpec::new(
        "add_k",
        vec![
            ("addr".to_owned(), FieldType::Address),
            ("n".to_owned(), FieldType::U(20)),
            ("k".to_owned(), FieldType::U(32)),
        ],
    );
    let cfg = AcceleratorConfig::new().with_system(
        SystemConfig::new("AddK", n_cores, spec, AddK::boxed)
            .with_read(ReadChannelConfig::new("src", 4))
            .with_write(WriteChannelConfig::new("dst", 4)),
    );
    FpgaHandle::new(elaborate(cfg, &Platform::kria()).unwrap())
}

fn args(addr: u64, n: u64, k: u64) -> std::collections::BTreeMap<String, u64> {
    [
        ("addr".to_owned(), addr),
        ("n".to_owned(), n),
        ("k".to_owned(), k),
    ]
    .into_iter()
    .collect()
}

#[test]
fn two_clients_share_the_device_without_conflicts() {
    let server = handle(2);
    let client_a = server.clone();
    let client_b = server.clone();

    // Each client allocates its own buffer: the shared allocator must keep
    // them disjoint.
    let mem_a = client_a.malloc(4096).unwrap();
    let mem_b = client_b.malloc(4096).unwrap();
    assert_ne!(mem_a.device_addr(), mem_b.device_addr());
    let a_range = mem_a.device_addr()..mem_a.device_addr() + mem_a.len();
    assert!(
        !a_range.contains(&mem_b.device_addr()),
        "allocations overlap"
    );

    let input_a: Vec<u32> = (0..1024).collect();
    let input_b: Vec<u32> = (0..1024).map(|v| v * 2).collect();
    client_a.write_u32_slice(mem_a, &input_a);
    client_b.write_u32_slice(mem_b, &input_b);

    // Interleaved submissions to different cores through the shared server.
    let resp_a = client_a
        .call("AddK", 0, args(mem_a.device_addr(), 1024, 100))
        .unwrap();
    let resp_b = client_b
        .call("AddK", 1, args(mem_b.device_addr(), 1024, 999))
        .unwrap();
    assert_eq!(resp_b.get().unwrap(), 999);
    assert_eq!(resp_a.get().unwrap(), 100);

    let out_a = client_a.read_u32_slice(mem_a, 1024);
    let out_b = client_b.read_u32_slice(mem_b, 1024);
    assert!(out_a.iter().enumerate().all(|(i, &v)| v == i as u32 + 100));
    assert!(out_b
        .iter()
        .enumerate()
        .all(|(i, &v)| v == (i as u32) * 2 + 999));

    // Server-side stats aggregate across clients.
    assert_eq!(server.stats().commands, 2);
    assert_eq!(server.stats().responses, 2);
}

#[test]
fn client_free_returns_space_to_the_shared_pool() {
    let server = handle(1);
    let client = server.clone();
    let before = {
        let p = client.malloc(1 << 20).unwrap();
        client.free(p).unwrap();
        p.device_addr()
    };
    // The other handle sees the freed space immediately.
    let p2 = server.malloc(1 << 20).unwrap();
    assert_eq!(p2.device_addr(), before);
}

#[test]
fn poll_interval_trades_host_time_for_latency() {
    // A coarser poll interval discovers the response later (in simulated
    // time) than a fine one — the runtime's §II-C polling model.
    let run = |poll_interval_ns: u64| -> f64 {
        let spec = bcore::AccelCommandSpec::new(
            "add_k",
            vec![
                ("addr".to_owned(), bcore::FieldType::Address),
                ("n".to_owned(), bcore::FieldType::U(20)),
                ("k".to_owned(), bcore::FieldType::U(32)),
            ],
        );
        let cfg = bcore::AcceleratorConfig::new().with_system(
            bcore::SystemConfig::new("AddK", 1, spec, AddK::boxed)
                .with_read(bcore::ReadChannelConfig::new("src", 4))
                .with_write(bcore::WriteChannelConfig::new("dst", 4)),
        );
        let soc = bcore::elaborate(cfg, &Platform::kria()).unwrap();
        let handle = bruntime::FpgaHandle::with_options(
            soc,
            bruntime::RuntimeOptions {
                lock_overhead_ns: 400,
                poll_interval_ns,
            },
        );
        let mem = handle.malloc(4096).unwrap();
        handle.write_u32_slice(mem, &[1u32; 1024]);
        let t0 = handle.elapsed_secs();
        let resp = handle
            .call("AddK", 0, args(mem.device_addr(), 1024, 1))
            .unwrap();
        resp.get().unwrap();
        handle.elapsed_secs() - t0
    };
    let fine = run(100);
    let coarse = run(50_000);
    assert!(
        coarse > fine,
        "coarse polling ({coarse:.2e}s) should observe completion later than fine ({fine:.2e}s)"
    );
}

#[test]
fn serialized_server_interleaves_many_clients_fairly() {
    // 4 clients × 2 commands each on a 2-core device: everything completes
    // and the response payloads map back to the right client.
    let server = handle(2);
    let clients: Vec<FpgaHandle> = (0..4).map(|_| server.clone()).collect();
    let mut pending = Vec::new();
    for (i, client) in clients.iter().enumerate() {
        for round in 0..2u64 {
            let mem = client.malloc(256).unwrap();
            client.write_u32_slice(mem, &[7u32; 64]);
            let k = (i as u64) * 10 + round;
            pending.push((
                k,
                client
                    .call("AddK", (i % 2) as u16, args(mem.device_addr(), 64, k))
                    .unwrap(),
            ));
        }
    }
    for (k, resp) in pending {
        assert_eq!(
            resp.get().unwrap(),
            k,
            "response routed to the right client"
        );
    }
    assert_eq!(server.stats().commands, 8);
}
