//! Integration tests for core-to-core communication (the appendix's
//! IntraCoreMemoryPort pair): a producer system writes into a consumer
//! system's remotely-writable scratchpads through the intra-accelerator
//! network.

use bcore::{
    elaborate, AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType,
    IntraCoreMemoryPortInConfig, IntraCoreMemoryPortOutConfig, IntraOutId, PortTable, ScratchpadId,
    SystemConfig,
};
use bplatform::Platform;

/// Writes `n` words `(base + idx)` into its out port, then responds.
struct Producer {
    ring: IntraOutId,
    base: u64,
    next: u64,
    n: u64,
    active: bool,
}

impl Producer {
    fn new(ports: &PortTable) -> Self {
        Self {
            ring: ports.intra_out("ring"),
            base: 0,
            next: 0,
            n: 0,
            active: false,
        }
    }
}

impl AcceleratorCore for Producer {
    fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
        if !self.active {
            if let Some(cmd) = ctx.take_command(sim) {
                self.base = cmd.arg("base");
                self.n = cmd.arg("n");
                self.next = 0;
                self.active = true;
            }
            return;
        }
        while self.next < self.n && ctx.intra_out(self.ring).can_send(sim) {
            let (idx, value) = (self.next, self.base + self.next + 1);
            let now = ctx.now();
            ctx.intra_out(self.ring).send(sim, now, idx, value);
            self.next += 1;
        }
        if self.next == self.n && ctx.respond(sim, 0) {
            self.active = false;
        }
    }
}

/// Waits until its mailbox holds `n` nonzero words, then responds with
/// their sum.
struct Consumer {
    mailbox: ScratchpadId,
    n: u64,
    active: bool,
}

impl Consumer {
    fn new(ports: &PortTable) -> Self {
        Self {
            mailbox: ports.scratchpad("mailbox"),
            n: 0,
            active: false,
        }
    }
}

impl AcceleratorCore for Consumer {
    fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
        if !self.active {
            if let Some(cmd) = ctx.take_command(sim) {
                self.n = cmd.arg("n");
                self.active = true;
            }
            return;
        }
        let filled = (0..self.n as usize).all(|i| ctx.scratchpad(self.mailbox).read(i) != 0);
        if filled {
            let sum: u64 = (0..self.n as usize)
                .map(|i| ctx.scratchpad(self.mailbox).read(i))
                .sum();
            if ctx.respond(sim, sum) {
                self.active = false;
            }
        }
    }
}

fn producer_spec() -> AccelCommandSpec {
    AccelCommandSpec::new(
        "produce",
        vec![
            ("base".to_owned(), FieldType::U(32)),
            ("n".to_owned(), FieldType::U(16)),
        ],
    )
}

fn consumer_spec() -> AccelCommandSpec {
    AccelCommandSpec::new("consume", vec![("n".to_owned(), FieldType::U(16))])
}

fn config(n_pairs: u32, broadcast: bool, n_consumers: u32) -> AcceleratorConfig {
    let mut mailbox = IntraCoreMemoryPortInConfig::new("mailbox", 32, 64);
    if broadcast {
        mailbox = mailbox.broadcast();
    }
    AcceleratorConfig::new()
        .with_system(
            SystemConfig::new("Producers", n_pairs, producer_spec(), |ports| {
                Box::new(Producer::new(ports))
            })
            .with_intra_out(IntraCoreMemoryPortOutConfig::new(
                "ring",
                "Consumers",
                "mailbox",
            )),
        )
        .with_system(
            SystemConfig::new("Consumers", n_consumers, consumer_spec(), |ports| {
                Box::new(Consumer::new(ports))
            })
            .with_intra_in(mailbox),
        )
}

fn args(pairs: &[(&str, u64)]) -> std::collections::BTreeMap<String, u64> {
    pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
}

#[test]
fn point_to_point_pairs_stay_separate() {
    let mut soc = elaborate(config(3, false, 3), &Platform::sim()).unwrap();
    let n = 16u64;
    // Consumers first (they poll their mailboxes).
    let consumer_tokens: Vec<_> = (0..3u16)
        .map(|core| soc.send_command(1, core, &args(&[("n", n)])).unwrap())
        .collect();
    // Producers with distinct bases.
    for core in 0..3u16 {
        let base = u64::from(core) * 1000;
        soc.send_command(0, core, &args(&[("base", base), ("n", n)]))
            .unwrap();
    }
    for (core, token) in consumer_tokens.into_iter().enumerate() {
        let sum = soc
            .run_until_response(token, 1_000_000)
            .expect("consumer finishes");
        let base = core as u64 * 1000;
        let expect: u64 = (0..n).map(|i| base + i + 1).sum();
        assert_eq!(
            sum, expect,
            "consumer {core} must see only its producer's data"
        );
    }
}

#[test]
fn broadcast_reaches_every_consumer() {
    let mut soc = elaborate(config(1, true, 4), &Platform::sim()).unwrap();
    let n = 8u64;
    let consumer_tokens: Vec<_> = (0..4u16)
        .map(|core| soc.send_command(1, core, &args(&[("n", n)])).unwrap())
        .collect();
    soc.send_command(0, 0, &args(&[("base", 500), ("n", n)]))
        .unwrap();
    let expect: u64 = (0..n).map(|i| 500 + i + 1).sum();
    for token in consumer_tokens {
        let sum = soc
            .run_until_response(token, 1_000_000)
            .expect("consumer finishes");
        assert_eq!(
            sum, expect,
            "broadcast must deliver identical data everywhere"
        );
    }
}

#[test]
fn cross_slr_links_add_latency_but_still_deliver() {
    // On the multi-die F1 device, producers and consumers land on
    // different SLRs; the link must still deliver (with crossing latency).
    let mut soc = elaborate(config(4, false, 4), &Platform::aws_f1()).unwrap();
    let n = 4u64;
    let token = soc.send_command(1, 3, &args(&[("n", n)])).unwrap();
    soc.send_command(0, 3, &args(&[("base", 0), ("n", n)]))
        .unwrap();
    let sum = soc
        .run_until_response(token, 1_000_000)
        .expect("delivered across SLRs");
    assert_eq!(sum, (1..=n).sum::<u64>());
}

#[test]
fn unknown_target_system_is_rejected() {
    let cfg = AcceleratorConfig::new().with_system(
        SystemConfig::new("Lonely", 1, producer_spec(), |ports| {
            Box::new(Producer::new(ports))
        })
        .with_intra_out(IntraCoreMemoryPortOutConfig::new(
            "ring", "Nowhere", "mailbox",
        )),
    );
    let err = elaborate(cfg, &Platform::sim()).unwrap_err();
    assert!(err.to_string().contains("Nowhere"));
}

#[test]
fn unknown_target_port_is_rejected() {
    let cfg = AcceleratorConfig::new()
        .with_system(
            SystemConfig::new("Producers", 1, producer_spec(), |ports| {
                Box::new(Producer::new(ports))
            })
            .with_intra_out(IntraCoreMemoryPortOutConfig::new(
                "ring",
                "Consumers",
                "nope",
            )),
        )
        .with_system(
            SystemConfig::new("Consumers", 1, consumer_spec(), |ports| {
                Box::new(Consumer::new(ports))
            })
            .with_intra_in(IntraCoreMemoryPortInConfig::new("mailbox", 32, 64)),
        );
    let err = elaborate(cfg, &Platform::sim()).unwrap_err();
    assert!(err.to_string().contains("nope"));
}

#[test]
fn in_port_memory_is_accounted_in_the_report() {
    let soc = elaborate(config(1, false, 1), &Platform::aws_f1()).unwrap();
    let table = soc.report().render_table();
    assert!(
        table.contains("mailbox"),
        "In-port memory should appear in the report:\n{table}"
    );
}
