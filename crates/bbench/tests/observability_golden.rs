//! Observability golden test: every counter name and value, every text
//! report, and every trace or dump byte the instrumentation emits is
//! folded into FNV digests pinned below.
//!
//! Two workloads cover the surfaces:
//!
//! * a 64 KiB Beethoven memcpy, run once with profiling and tracing on
//!   (`run_memcpy_profiled`) and once with both off, pins
//!   `perf_counters()`, `perf_report()` and `chrome_trace()`;
//! * a 2-shard vecadd fleet with telemetry and a stall watchdog pins
//!   `merged_trace()`, `metrics_snapshot()`, the watchdog's dump files,
//!   and each shard's `perf_counters()` after the rollup.
//!
//! Any change to what the instrumentation records or how it renders
//! moves a digest. The `scheduler/` counters measure the scheduler, not
//! the simulated hardware, so every digest that covers them is pinned
//! once per scheduler mode (`BSIM_NAIVE=1` selects the naive one).

use bcore::elaborate::elaborate_with;
use bkernels::memcpy::{run_memcpy_profiled, MemcpyVariant};
use bkernels::vecadd;
use bplatform::Platform;
use bserver::{Arrival, FleetConfig, FleetServer, JobSpec, ServerConfig, TelemetryConfig};
use bserver::{DispatchPolicy, WatchdogConfig};
use bsim::{Cycle, Simulation};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Whether this process runs the naive scheduler.
fn naive() -> bool {
    !Simulation::new().event_driven()
}

/// `active` under the default scheduler, `naive` under `BSIM_NAIVE=1`.
fn per_mode(active: u64, naive_digest: u64) -> u64 {
    if naive() {
        naive_digest
    } else {
        active
    }
}

fn digest_str(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.str(s);
    h.0
}

fn digest_counters(counters: &[(String, u64)]) -> u64 {
    let mut h = Fnv::new();
    h.u64(counters.len() as u64);
    for (name, value) in counters {
        h.str(name);
        h.u64(*value);
    }
    h.0
}

const MEMCPY_BYTES: u64 = 64 * 1024;

/// The same copy `run_memcpy_profiled` makes, with profiling and tracing
/// left off, returning the SoC's counters.
fn memcpy_counters_unprofiled() -> Vec<(String, u64)> {
    let variant = MemcpyVariant::Beethoven;
    let mut platform = Platform::aws_f1();
    platform.fabric_mhz = variant.fabric_mhz();
    platform.host_link.mmio_latency_ns = 0;
    let mut soc = elaborate_with(bkernels::memcpy::config(), &platform, variant.options())
        .expect("memcpy elaborates");
    let (src, dst) = (0x100_0000u64, 0x800_0000u64);
    let payload: Vec<u8> = (0..MEMCPY_BYTES).map(|i| (i % 251) as u8).collect();
    soc.memory().borrow_mut().write(src, &payload);
    let args = [
        ("src".to_owned(), src),
        ("dst".to_owned(), dst),
        ("len".to_owned(), MEMCPY_BYTES),
    ]
    .into_iter()
    .collect();
    let token = soc.send_command(0, 0, &args).expect("send");
    soc.run_until_response(token, 100_000_000)
        .expect("memcpy completes");
    assert!(!soc.profiling());
    soc.perf_counters()
}

#[test]
fn memcpy_counters_report_and_trace_are_pinned() {
    let (result, soc) = run_memcpy_profiled(MemcpyVariant::Beethoven, MEMCPY_BYTES);
    assert!(result.gbps > 0.0);
    let on = soc.perf_counters();
    let off = memcpy_counters_unprofiled();
    let names = |c: &[(String, u64)]| c.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(&on),
        names(&off),
        "profiling must not change which counters exist"
    );
    let report = soc.perf_report();
    let trace = soc.chrome_trace();
    bsim::perf::validate_json(&trace).expect("trace is valid JSON");
    let got = [
        ("perf_counters (profiled)", digest_counters(&on)),
        ("perf_counters (unprofiled)", digest_counters(&off)),
        ("perf_report", digest_str(&report)),
        ("chrome_trace", digest_str(&trace)),
    ];
    let want = [
        (
            "perf_counters (profiled)",
            per_mode(6_223_014_428_809_346_355, 14_938_187_882_534_520_507),
        ),
        (
            "perf_counters (unprofiled)",
            per_mode(11_339_123_711_216_813_588, 12_995_173_714_022_008_688),
        ),
        (
            "perf_report",
            per_mode(14_525_075_599_062_329_038, 8_676_132_025_842_361_022),
        ),
        (
            "chrome_trace",
            per_mode(14_923_653_722_669_556_802, 9_981_713_412_447_085_896),
        ),
    ];
    assert_eq!(got, want, "counters: {}", on.len());
}

#[test]
fn fleet_trace_metrics_and_dump_are_pinned() {
    let dump_dir = std::env::temp_dir().join(format!(
        "bbench-observability-golden-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dump_dir).ok();
    let config = FleetConfig {
        shards: 2,
        server: ServerConfig {
            policy: DispatchPolicy::Fifo,
            queue_capacity: 2,
            ..ServerConfig::default()
        },
    };
    let mut fleet = FleetServer::new(
        |_| bcore::elaborate(vecadd::config(1), &Platform::kria()).expect("elaboration"),
        vecadd::SYSTEM,
        4,
        config,
    )
    .expect("fleet");
    let mems: Vec<bruntime::RemotePtr> = (0..fleet.n_shards())
        .map(|s| {
            let mem = fleet.handle(s).malloc(64 * 1024).expect("buffer");
            fleet.handle(s).write_u32_slice(mem, &vec![1u32; 16 * 1024]);
            mem
        })
        .collect();
    fleet.enable_telemetry(TelemetryConfig {
        window_cycles: 2048,
        flight_capacity: 8,
        watchdog: Some(WatchdogConfig {
            breach_spike: 2,
            label: "golden".to_owned(),
            ..WatchdogConfig::new(300, &dump_dir)
        }),
    });
    let arrivals = (0..16)
        .map(|i| {
            let tenant = i % 4;
            let arrival = Arrival {
                at_cycle: (i as Cycle) * 150,
                tenant,
                spec: JobSpec::new(vecadd::args(
                    1,
                    mems[fleet.shard_of(tenant)].device_addr(),
                    1024 << (i % 4),
                )),
            };
            (i as u64, arrival)
        })
        .collect();
    // Sequence numbers are arrival indices: list the outcomes in arrival
    // order.
    let mut keyed: Vec<_> = fleet.run_keyed(arrivals).into_iter().collect();
    keyed.sort_by_key(|&((_, seq), _)| seq);
    let outcomes: Vec<_> = keyed.into_iter().map(|(_, outcome)| outcome).collect();
    fleet.sync_rollup();

    let trace = fleet.merged_trace().expect("telemetry on");
    bsim::perf::validate_json(&trace).expect("merged trace is valid JSON");
    let metrics = format!("{:?}", fleet.metrics_snapshot().expect("telemetry on"));
    let dumps = fleet.flight_dumps();
    assert!(!dumps.is_empty(), "the 300-cycle watchdog must fire");
    let mut dump_digest = Fnv::new();
    for path in &dumps {
        let name = path.file_name().expect("file name").to_string_lossy();
        let contents = std::fs::read_to_string(path).expect("dump readable");
        bsim::perf::validate_json(&contents).expect("dump is valid JSON");
        dump_digest.str(&name);
        dump_digest.str(&contents);
    }
    let mut counters = Fnv::new();
    for s in 0..fleet.n_shards() {
        let c = fleet.handle(s).with_soc(|soc| soc.perf_counters());
        counters.u64(digest_counters(&c));
    }
    std::fs::remove_dir_all(&dump_dir).ok();

    let got = [
        ("outcomes", digest_str(&format!("{outcomes:?}"))),
        ("merged_trace", digest_str(&trace)),
        ("metrics_snapshot", digest_str(&metrics)),
        ("flight dumps", dump_digest.0),
        ("shard perf_counters", counters.0),
    ];
    let want = [
        ("outcomes", 8_071_008_382_707_189_352),
        ("merged_trace", 8_178_448_815_997_689_460),
        ("metrics_snapshot", 13_519_749_772_622_735_190),
        // Dump events carry fleet-wide trace ids, the merged trace's.
        ("flight dumps", 16_580_139_840_981_019_599),
        (
            "shard perf_counters",
            per_mode(5_831_268_465_897_540_045, 9_627_351_549_101_068_312),
        ),
    ];
    assert_eq!(got, want, "dumps: {}", dumps.len());
}
