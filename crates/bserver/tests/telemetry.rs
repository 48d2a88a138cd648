//! End-to-end tests for the request-telemetry layer: span lifecycle,
//! cycle-neutrality of tracing, windowed-metric reconciliation, the
//! queue-wait accounting of rejected jobs, the flight-recorder watchdog
//! on an injected stall, one trace-id space across dumps and the merged
//! trace, and the fleet rollup's idempotence. Single-server cases run
//! on 1-shard fleets.

use std::collections::{BTreeMap, BTreeSet};

use bcore::{
    elaborate, AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType,
    SystemConfig,
};
use bkernels::vecadd;
use bplatform::Platform;
use bruntime::RemotePtr;
use bserver::{
    Arrival, DeadlineAction, DispatchPolicy, FleetConfig, FleetServer, JobOutcome, JobSpec,
    ServerConfig, TelemetryConfig, WatchdogConfig,
};
use bsim::Cycle;

/// A fleet of `shards` vecadd replicas with `n_cores` cores each over
/// `tenants` tenants, with one filled buffer per shard.
fn vecadd_fleet(
    shards: usize,
    n_cores: u32,
    tenants: usize,
    server: ServerConfig,
) -> (FleetServer, Vec<RemotePtr>) {
    let fleet = FleetServer::new(
        |_| elaborate(vecadd::config(n_cores), &Platform::kria()).expect("elaboration"),
        vecadd::SYSTEM,
        tenants,
        FleetConfig { shards, server },
    )
    .expect("fleet");
    let mems = (0..fleet.n_shards())
        .map(|s| {
            let mem = fleet.handle(s).malloc(64 * 1024).unwrap();
            fleet.handle(s).write_u32_slice(mem, &vec![1u32; 16 * 1024]);
            mem
        })
        .collect();
    (fleet, mems)
}

/// A single server (a 1-shard fleet) over an `n_cores` vecadd SoC, plus
/// its buffer.
fn setup(n_cores: u32, n_tenants: usize, config: ServerConfig) -> (FleetServer, RemotePtr) {
    let (fleet, mems) = vecadd_fleet(1, n_cores, n_tenants, config);
    (fleet, mems[0])
}

fn job(mem: RemotePtr, n: u32) -> JobSpec {
    JobSpec::new(vecadd::args(1, mem.device_addr(), n)).with_cost_hint(u64::from(n))
}

/// `jobs` arrivals 400 cycles apart, round-robin over `tenants`, keyed
/// by arrival index.
fn schedule(mem: RemotePtr, jobs: usize, tenants: usize) -> Vec<(u64, Arrival)> {
    (0..jobs)
        .map(|i| {
            let arrival = Arrival {
                at_cycle: (i as Cycle) * 400,
                tenant: i % tenants,
                spec: job(mem, 64 << (i % 3)),
            };
            (i as u64, arrival)
        })
        .collect()
}

/// Field `key` of one flat JSON record, as raw text.
fn field<'a>(record: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let rest = &record[record.find(&pattern)? + pattern.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// One `"X"` slice of a merged trace.
#[derive(Debug)]
struct Span {
    /// Process index (the shard).
    pid: usize,
    track: String,
    name: String,
    trace_id: Option<u64>,
    /// Start and end in ten-thousandths of a trace microsecond (the
    /// writer prints four decimals, so these are exact).
    start: u64,
    end: u64,
}

/// Every slice in a merged trace, with its track name resolved.
fn spans(trace: &str) -> Vec<Span> {
    let fixed = |v: &str| -> u64 { v.replace('.', "").parse().expect("fixed-point time") };
    let records: Vec<&str> = trace.split("{\"ph\":").collect();
    let mut tracks = BTreeMap::new();
    for r in records.iter().filter(|r| r.contains("\"thread_name\"")) {
        let args = &r[r.find("\"args\":").expect("thread args")..];
        tracks.insert((field(r, "pid"), field(r, "tid")), field(args, "name"));
    }
    records
        .iter()
        .filter(|r| r.starts_with("\"X\""))
        .map(|r| {
            let start = fixed(field(r, "ts").expect("ts"));
            Span {
                pid: field(r, "pid").expect("pid").parse().unwrap(),
                track: tracks[&(field(r, "pid"), field(r, "tid"))]
                    .expect("track name")
                    .to_owned(),
                name: field(r, "name").expect("name").to_owned(),
                trace_id: field(r, "trace_id").map(|id| id.parse().unwrap()),
                start,
                end: start + fixed(field(r, "dur").expect("dur")),
            }
        })
        .collect()
}

#[test]
fn spans_cover_admission_queue_and_core_for_one_job() {
    let (mut fleet, mem) = setup(1, 1, ServerConfig::default());
    fleet.enable_telemetry(TelemetryConfig::default());
    let arrival = Arrival {
        at_cycle: 0,
        tenant: 0,
        spec: job(mem, 64),
    };
    let outcomes = fleet.run_keyed(vec![(0, arrival)]);
    assert!(outcomes[&(0, 0)].is_completed());
    let spans = spans(&fleet.merged_trace().expect("telemetry on"));
    let stages: Vec<(&str, &str)> = spans
        .iter()
        .filter(|s| s.trace_id == Some(0))
        .map(|s| (s.track.as_str(), s.name.as_str()))
        .collect();
    assert!(
        stages.contains(&("admission", "admit")),
        "admission span missing: {stages:?}"
    );
    assert!(
        stages.contains(&("tenant0", "queue")),
        "queue span missing: {stages:?}"
    );
    assert!(
        stages.contains(&("core0", "execute")),
        "execute span missing: {stages:?}"
    );
    // The lifecycle is ordered: admit ends before queue ends before
    // execute ends, and the execute span covers real cycles.
    let find = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
    assert!(find("admit").end <= find("queue").end);
    assert!(find("queue").end <= find("execute").start);
    assert!(find("execute").end > find("execute").start);
}

#[test]
fn telemetry_and_watchdog_are_cycle_and_outcome_neutral() {
    let run = |telemetry: Option<TelemetryConfig>| {
        let config = ServerConfig {
            policy: DispatchPolicy::Fifo,
            ..ServerConfig::default()
        };
        let (mut fleet, mem) = setup(2, 3, config);
        if let Some(t) = telemetry {
            fleet.enable_telemetry(t);
        }
        let outcomes = fleet.run_keyed(schedule(mem, 12, 3));
        (format!("{outcomes:?}"), fleet.handle(0).now())
    };
    let off = run(None);
    let on = run(Some(TelemetryConfig::default()));
    // A tiny stall threshold forces the doorbell sleep to wake early on
    // the watchdog deadline and re-arm; those early wakes must observe
    // responses at the exact same cycles.
    let watchdog = run(Some(TelemetryConfig {
        watchdog: Some(WatchdogConfig::new(
            500,
            std::env::temp_dir().join("bserver-telemetry-neutrality"),
        )),
        ..TelemetryConfig::default()
    }));
    assert_eq!(off, on, "telemetry must not change outcomes or cycles");
    assert_eq!(
        off, watchdog,
        "watchdog early wakes must not change outcomes or cycles"
    );
}

#[test]
fn fleet_telemetry_is_outcome_and_cycle_neutral_across_shards() {
    let run = |telemetry: bool| {
        let (mut fleet, mems) = vecadd_fleet(3, 1, 6, ServerConfig::default());
        if telemetry {
            fleet.enable_telemetry(TelemetryConfig::default());
        }
        let arrivals = (0..18)
            .map(|i| {
                let tenant = i % 6;
                let arrival = Arrival {
                    at_cycle: (i as Cycle) * 300,
                    tenant,
                    spec: job(mems[fleet.shard_of(tenant)], 128),
                };
                (i as u64, arrival)
            })
            .collect();
        let outcomes = fleet.run_keyed(arrivals);
        let cycles: Vec<Cycle> = (0..fleet.n_shards())
            .map(|s| fleet.handle(s).now())
            .collect();
        (format!("{outcomes:?}"), cycles)
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn fleet_merged_trace_crosses_tracks_on_the_right_shard() {
    let (mut fleet, mems) = vecadd_fleet(2, 1, 4, ServerConfig::default());
    fleet.enable_telemetry(TelemetryConfig::default());
    let arrivals = (0..8)
        .map(|i| {
            let tenant = i % 4;
            let arrival = Arrival {
                at_cycle: (i as Cycle) * 500,
                tenant,
                spec: job(mems[fleet.shard_of(tenant)], 64),
            };
            (i as u64, arrival)
        })
        .collect();
    let outcomes = fleet.run_keyed(arrivals);
    assert!(outcomes.values().all(JobOutcome::is_completed));
    let trace = fleet.merged_trace().expect("telemetry on");
    bsim::perf::validate_json(&trace).expect("merged trace is valid JSON");
    // One Perfetto process per shard.
    assert!(trace.contains("\"name\":\"shard0\""));
    assert!(trace.contains("\"name\":\"shard1\""));
    // Every request's spans chain admission → queue → core: one flow
    // start and one flow finish per arrival, with global arrival indices
    // as the flow ids.
    assert_eq!(trace.matches("\"ph\":\"s\"").count(), 8);
    assert_eq!(trace.matches("\"ph\":\"f\"").count(), 8);
    for id in 0..8 {
        assert!(
            trace.contains(&format!("\"id\":{id}")),
            "arrival {id} missing from the flow-id space"
        );
    }
    // A request's spans all live on the shard that served its tenant.
    for span in spans(&trace) {
        let id = span.trace_id.expect("request span") as usize;
        assert_eq!(span.pid, fleet.shard_of(id % 4), "{span:?}");
    }
}

#[test]
fn fleet_trace_ids_stay_unique_across_waves() {
    let (mut fleet, mems) = vecadd_fleet(2, 1, 4, ServerConfig::default());
    fleet.enable_telemetry(TelemetryConfig::default());
    // Two waves of 8; wave w's arrival i comes from tenant (i + w) % 4,
    // so reusing per-call indices as ids would mix tenants.
    let mut tenants = Vec::new();
    for wave in 0..2 {
        let arrivals = (0..8)
            .map(|i| {
                let tenant = (i + wave) % 4;
                tenants.push(tenant);
                let arrival = Arrival {
                    at_cycle: (i as Cycle) * 500,
                    tenant,
                    spec: job(mems[fleet.shard_of(tenant)], 64),
                };
                (i as u64, arrival)
            })
            .collect();
        assert!(fleet
            .run_keyed(arrivals)
            .values()
            .all(JobOutcome::is_completed));
    }
    let trace = fleet.merged_trace().expect("telemetry on");
    // Trace id → the tenant track of each of its spans (a completed job
    // has one, its queue span).
    let mut owners: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for span in spans(&trace) {
        let owner = owners
            .entry(span.trace_id.expect("span trace id"))
            .or_default();
        if let Some(tenant) = span.track.strip_prefix("tenant") {
            owner.push(tenant.parse().unwrap());
        }
    }
    assert_eq!(owners.len(), tenants.len(), "one trace id per arrival");
    for (id, owner) in owners {
        let want = vec![tenants[id as usize]];
        assert_eq!(owner, want, "trace id {id} must belong to one tenant");
    }
    assert_eq!(trace.matches("\"ph\":\"s\"").count(), tenants.len());
}

#[test]
fn flight_dump_trace_ids_name_the_same_request_as_the_merged_trace() {
    // Tight queues, a breach-spike trigger and a short stall threshold
    // make every shard's watchdog dump; a shard's dump names requests by
    // the same fleet-wide trace ids as the merged trace.
    let dump_dir =
        std::env::temp_dir().join(format!("bserver-telemetry-ids-{}", std::process::id()));
    std::fs::remove_dir_all(&dump_dir).ok();
    let config = ServerConfig {
        policy: DispatchPolicy::Fifo,
        queue_capacity: 2,
        ..ServerConfig::default()
    };
    let (mut fleet, mems) = vecadd_fleet(2, 1, 4, config);
    fleet.enable_telemetry(TelemetryConfig {
        flight_capacity: 64,
        watchdog: Some(WatchdogConfig {
            breach_spike: 2,
            ..WatchdogConfig::new(300, &dump_dir)
        }),
        ..TelemetryConfig::default()
    });
    let tenants: Vec<usize> = (0..16).map(|i| i % 4).collect();
    let arrivals = tenants
        .iter()
        .enumerate()
        .map(|(i, &tenant)| {
            let arrival = Arrival {
                at_cycle: (i as Cycle) * 150,
                tenant,
                spec: job(mems[fleet.shard_of(tenant)], 1024 << (i % 4)),
            };
            (i as u64, arrival)
        })
        .collect();
    fleet.run_keyed(arrivals);
    // Trace id → (shard, tenant tracks) of its spans in the merged trace.
    let mut merged: BTreeMap<u64, (BTreeSet<usize>, BTreeSet<String>)> = BTreeMap::new();
    for span in spans(&fleet.merged_trace().expect("telemetry on")) {
        let entry = merged
            .entry(span.trace_id.expect("request span"))
            .or_default();
        entry.0.insert(span.pid);
        if span.track.starts_with("tenant") {
            entry.1.insert(span.track);
        }
    }
    let dumps = fleet.flight_dumps();
    let mut dumped_shards = BTreeSet::new();
    let mut events = 0;
    for path in &dumps {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let shard: usize = name
            .split("-shard")
            .nth(1)
            .and_then(|rest| rest.split('-').next())
            .and_then(|i| i.parse().ok())
            .expect("dump file names its shard");
        dumped_shards.insert(shard);
        let contents = std::fs::read_to_string(path).expect("dump readable");
        for event in contents.split("{\"seq\":").skip(1) {
            let id: u64 = field(event, "trace_id").unwrap().parse().unwrap();
            let tenant: usize = field(event, "tenant").unwrap().parse().unwrap();
            assert_eq!(tenant, tenants[id as usize], "{name}: trace id {id}");
            let (shards, tracks) = &merged[&id];
            assert_eq!(shards, &BTreeSet::from([shard]), "{name}: trace id {id}");
            assert!(
                tracks.iter().all(|t| *t == format!("tenant{tenant}")),
                "{name}: trace id {id} on {tracks:?}"
            );
            events += 1;
        }
    }
    std::fs::remove_dir_all(&dump_dir).ok();
    assert_eq!(dumped_shards.len(), 2, "both shards dump: {dumps:?}");
    assert!(events > 0);
}

#[test]
fn windows_reconcile_with_whole_run_histograms() {
    let config = ServerConfig {
        policy: DispatchPolicy::RoundRobin,
        ..ServerConfig::default()
    };
    let (mut fleet, mem) = setup(2, 3, config);
    fleet.enable_telemetry(TelemetryConfig {
        window_cycles: 2048,
        ..TelemetryConfig::default()
    });
    let outcomes = fleet.run_keyed(schedule(mem, 15, 3));
    let completed = outcomes.values().filter(|o| o.is_completed()).count() as u64;
    let snap = fleet.metrics_snapshot().expect("telemetry on").aggregate;
    assert_eq!(snap.window_cycles, 2048);
    // Per-window counts partition the totals exactly.
    let windowed = |f: fn(&bserver::WindowRow) -> u64| snap.windows.iter().map(f).sum::<u64>();
    assert_eq!(windowed(|w| w.completed), completed);
    assert_eq!(windowed(|w| w.completed), fleet.counter_total("completed"));
    assert_eq!(
        windowed(|w| w.rejected + w.breached),
        outcomes.len() as u64 - completed
    );
    let per_tenant: u64 = snap
        .windows
        .iter()
        .flat_map(|w| w.tenant_completed.iter().map(|&(_, n)| n))
        .sum();
    assert_eq!(per_tenant, completed);
    // Each window's percentiles come from a slice of the whole-run
    // latency histogram, so none can leave its range.
    let whole = fleet.latency_histogram();
    assert_eq!(whole.count(), completed);
    for w in snap.windows.iter().filter(|w| w.completed > 0) {
        assert!(w.latency.0 >= whole.min().unwrap() && w.latency.2 <= whole.max().unwrap());
        assert!(w.start_cycle % 2048 == 0);
    }
}

#[test]
fn rejected_outcomes_record_queue_wait() {
    let queue_wait = |fleet: &FleetServer| {
        fleet
            .handle(0)
            .with_soc(|soc| soc.perf().histogram("server/queue_wait_cycles"))
            .expect("registered")
    };
    // Deadline breaches contribute to the queue-wait histogram: the two
    // jobs (one completes, one breaches) must both be counted.
    let config = ServerConfig {
        policy: DispatchPolicy::Fifo,
        deadline_action: DeadlineAction::Reject,
        ..ServerConfig::default()
    };
    let (mut fleet, mem) = setup(1, 1, config);
    let outcomes = fleet.run_keyed(vec![
        (
            0,
            Arrival {
                at_cycle: 0,
                tenant: 0,
                spec: job(mem, 8192),
            },
        ),
        (
            1,
            Arrival {
                at_cycle: 1,
                tenant: 0,
                spec: job(mem, 64).with_deadline(10),
            },
        ),
    ]);
    let JobOutcome::Rejected {
        queue_wait_cycles, ..
    } = outcomes[&(0, 1)]
    else {
        panic!("deadline must breach: {:?}", outcomes[&(0, 1)]);
    };
    assert!(queue_wait_cycles > 10);
    let h = queue_wait(&fleet);
    assert_eq!(
        h.count(),
        2,
        "one dispatch + one breach must both land in queue_wait_cycles"
    );
    assert_eq!(h.max(), Some(queue_wait_cycles), "the breach is the tail");

    // Admission-control rejections are counted too.
    let config = ServerConfig {
        policy: DispatchPolicy::Fifo,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let (mut fleet, mem) = setup(1, 1, config);
    let arrivals = (0..6)
        .map(|i| {
            let arrival = Arrival {
                at_cycle: i,
                tenant: 0,
                spec: job(mem, 4096),
            };
            (i, arrival)
        })
        .collect();
    let outcomes = fleet.run_keyed(arrivals);
    let rejected = outcomes.values().filter(|o| !o.is_completed()).count() as u64;
    assert!(rejected > 0, "burst beyond a 1-deep queue must reject");
    assert_eq!(
        queue_wait(&fleet).count(),
        outcomes.len() as u64,
        "every job — dispatched or rejected — records a queue wait"
    );
}

/// A core that accepts commands and never responds: the livelock class
/// the flight recorder exists for.
#[derive(Default)]
struct BlackHoleCore;

impl AcceleratorCore for BlackHoleCore {
    fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
        let _ = ctx.take_command(sim);
    }
}

#[test]
fn watchdog_dumps_flight_recorder_on_injected_stall() {
    let soc = |_| {
        let spec = AccelCommandSpec::new("swallow", vec![("x".to_owned(), FieldType::U(32))]);
        let cfg =
            AcceleratorConfig::new().with_system(SystemConfig::new("BlackHole", 1, spec, |_| {
                Box::<BlackHoleCore>::default()
            }));
        elaborate(cfg, &Platform::kria()).expect("elaboration")
    };
    let config = FleetConfig {
        shards: 1,
        server: ServerConfig {
            policy: DispatchPolicy::Fifo,
            // Small budgets keep the wedge-detection fast in simulation.
            response_budget_cycles: 50_000,
            ..ServerConfig::default()
        },
    };
    let mut fleet = FleetServer::new(soc, "BlackHole", 1, config).expect("fleet");
    let dump_dir =
        std::env::temp_dir().join(format!("bserver-telemetry-stall-{}", std::process::id()));
    std::fs::remove_dir_all(&dump_dir).ok();
    fleet.enable_telemetry(TelemetryConfig {
        flight_capacity: 32,
        watchdog: Some(WatchdogConfig::new(5_000, &dump_dir)),
        ..TelemetryConfig::default()
    });
    let args: BTreeMap<String, u64> = [("x".to_owned(), 7u64)].into_iter().collect();
    let arrival = Arrival {
        at_cycle: 0,
        tenant: 0,
        spec: JobSpec::new(args),
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fleet.run_keyed(vec![(0, arrival)])
    }));
    let err = result.expect_err("a wedged device must eventually panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_default();
    assert!(msg.contains("device wedged"), "unexpected panic: {msg}");
    // The watchdog dumped *before* the panic: a parseable flight record
    // with the dispatch that never completed.
    let dumps = fleet.flight_dumps();
    assert_eq!(dumps.len(), 1, "exactly one stall dump");
    let contents = std::fs::read_to_string(&dumps[0]).expect("dump readable");
    bsim::perf::validate_json(&contents).expect("dump is valid JSON");
    assert!(contents.contains("\"trigger\":\"stall\""));
    assert!(contents.contains("\"kind\":\"enqueue\""));
    assert!(contents.contains("\"kind\":\"dispatch\""));
    assert!(contents.contains("\"inflight\":1"));
    std::fs::remove_dir_all(&dump_dir).ok();
}

#[test]
fn rollup_skips_mirrors_and_stays_idempotent() {
    let (mut fleet, mems) = vecadd_fleet(2, 1, 4, ServerConfig::default());
    let arrivals = (0..8)
        .map(|i| {
            let tenant = i % 4;
            let arrival = Arrival {
                at_cycle: (i as Cycle) * 400,
                tenant,
                spec: job(mems[fleet.shard_of(tenant)], 64),
            };
            (i as u64, arrival)
        })
        .collect();
    let outcomes = fleet.run_keyed(arrivals);
    let completed = outcomes.values().filter(|o| o.is_completed()).count() as u64;
    assert_eq!(completed, 8);

    // Rolling up twice must not re-ingest the mirrors sync_rollup wrote.
    let first = fleet.sync_rollup();
    let second = fleet.sync_rollup();
    assert_eq!(first, second, "rollup must be idempotent across syncs");
    assert_eq!(second, fleet.rollup());
    assert!(
        first.keys().all(|k| !k.contains("fleet/fleet")
            && !k.contains("shard0/shard")
            && !k.contains("shard0/fleet")),
        "mirrored names must not be re-ingested: {:?}",
        first.keys().collect::<Vec<_>>()
    );
    assert_eq!(first["fleet/completed"], completed);

    // The MMIO counter window, counter_names, and the text report all
    // agree on the aggregate names after the mirror.
    let primary = fleet.handle(0);
    assert_eq!(
        primary.read_counter("server/fleet/completed"),
        Some(completed)
    );
    let names = primary.counter_names();
    for expected in [
        "server/fleet/completed",
        "server/fleet/dispatched",
        "server/shard0/completed",
        "server/shard1/completed",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "{expected} missing from counter_names"
        );
    }
    let report = primary.with_soc(|soc| soc.perf().report());
    assert!(report.contains("[server/fleet]"), "report: {report}");
    assert!(report.contains("[server/shard0]"), "report: {report}");
}
