//! Ablation benches for the design decisions DESIGN.md calls out:
//!
//! 1. **SLR-aware NoC vs flat** — construction cost, latency, and timing
//!    hazards of the two network builders.
//! 2. **80% memory spill rule vs BRAM-only** — how many A³-class cores
//!    each policy can map.
//! 3. **Same-ID reorder window** — the controller ordering rule the TLP
//!    mechanism routes around.
//! 4. **Burst length sweep** — the Figure 4 control experiment.
//! 5. **Active-set scheduler vs naive stepper** — host wall-clock across
//!    idle-heavy, one-busy-core, and all-cores-busy load shapes (cycle
//!    counts are identical by construction).
//! 6. **Dispatch-policy ablation** — the runtime server's pluggable
//!    policies against the lock-arbitrated baseline on the seeded
//!    open-loop schedule (tail latency, goodput, rejections).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bdram::{AddressMapping, DramConfig, DramRequest, DramSystem};
use bkernels::memcpy::{run_memcpy, MemcpyVariant};
use bnoc::{Endpoint, NetworkBuilder};
use bplatform::{CellKind, DeviceModel, MemoryCellMapper, MemoryRequest, Platform, SlrId};

fn ablation_noc(c: &mut Criterion) {
    let device = DeviceModel::alveo_u200();
    let endpoints: Vec<Endpoint> = (0..92)
        .map(|id| Endpoint {
            id,
            slr: SlrId(id % 3),
        })
        .collect();
    let builder = NetworkBuilder::default();

    let aware = builder.build_slr_aware(&device, SlrId(0), &endpoints);
    let flat = builder.build_flat(SlrId(0), &endpoints);
    println!(
        "ablation datum: SLR-aware NoC: {} buffers, {} crossings, {} timing hazards, worst {} cyc",
        aware.buffer_count(),
        aware.crossing_count(),
        aware.timing_violations(),
        aware.worst_latency()
    );
    println!(
        "ablation datum: flat NoC:      {} buffers, {} crossings, {} timing hazards, worst {} cyc",
        flat.buffer_count(),
        flat.crossing_count(),
        flat.timing_violations(),
        flat.worst_latency()
    );

    let mut group = c.benchmark_group("ablation_noc_construction");
    group.bench_function("slr_aware_92_endpoints", |b| {
        b.iter(|| black_box(builder.build_slr_aware(&device, SlrId(0), black_box(&endpoints))))
    });
    group.bench_function("flat_92_endpoints", |b| {
        b.iter(|| black_box(builder.build_flat(SlrId(0), black_box(&endpoints))))
    });
    group.finish();
}

fn ablation_spill(c: &mut Criterion) {
    let device = DeviceModel::alveo_u200();
    // An A³-like memory bundle per core.
    let bundle = || {
        vec![
            MemoryRequest::new("keys", 8, 61_440),
            MemoryRequest::new("values", 8, 61_440),
            MemoryRequest::new("prefetch_a", 512, 640),
            MemoryRequest::new("prefetch_b", 512, 640),
            MemoryRequest::new("staging", 512, 512),
        ]
    };
    // Map 23 cores under each policy and report when URAM spilling begins
    // and the worst per-SLR BRAM utilization left behind: the 80% rule
    // spills early, preserving the routing headroom the paper needed;
    // threshold 1.0 packs BRAM to the wall before touching URAM.
    let profile = |threshold: f64| -> (Option<usize>, f64) {
        let mut mapper = MemoryCellMapper::new(&device);
        mapper.threshold = threshold;
        let mut first_spill = None;
        for core in 0..23 {
            let slr = SlrId(core % 3);
            for req in bundle() {
                let m = mapper.map(slr, &req).expect("23 cores map either way");
                if m.kind == CellKind::Uram && first_spill.is_none() {
                    first_spill = Some(core);
                }
            }
        }
        let worst_bram = (0..3)
            .map(|s| mapper.utilization(SlrId(s), CellKind::Bram))
            .fold(0.0f64, f64::max);
        (first_spill, worst_bram)
    };
    let (spill_rule, bram_rule) = profile(0.8);
    let (spill_off, bram_off) = profile(1.0);
    println!(
        "ablation datum: 80% rule: first URAM spill at core {spill_rule:?}, worst BRAM util {:.0}%",
        bram_rule * 100.0
    );
    println!(
        "ablation datum: rule off : first URAM spill at core {spill_off:?}, worst BRAM util {:.0}%",
        bram_off * 100.0
    );

    let mut group = c.benchmark_group("ablation_memory_mapping");
    group.bench_function("map_23_a3_cores", |b| {
        b.iter(|| {
            let mut mapper = MemoryCellMapper::new(&device);
            let mut mix = (0u64, 0u64);
            for core in 0..23 {
                for req in bundle() {
                    let m = mapper.map(SlrId(core % 3), &req).expect("maps");
                    match m.kind {
                        CellKind::Bram => mix.0 += m.blocks,
                        CellKind::Uram => mix.1 += m.blocks,
                        CellKind::Lutram => {}
                    }
                }
            }
            black_box(mix)
        })
    });
    group.finish();
}

fn ablation_bursts_and_ordering(c: &mut Criterion) {
    let bytes = 64 * 1024;
    // Burst-length control experiment (Figure 4's 16-beat Beethoven).
    for variant in [MemcpyVariant::Beethoven, MemcpyVariant::Beethoven16Beat] {
        let r = run_memcpy(variant, bytes);
        println!("ablation datum: {} {:.2} GB/s", variant.label(), r.gbps);
    }
    // Same-ID ordering (No-TLP vs TLP).
    for variant in [MemcpyVariant::BeethovenNoTlp, MemcpyVariant::Hls] {
        let r = run_memcpy(variant, bytes);
        println!("ablation datum: {} {:.2} GB/s", variant.label(), r.gbps);
    }
    let mut group = c.benchmark_group("ablation_transaction_shaping");
    group.sample_size(10);
    group.bench_function("tlp_64beat", |b| {
        b.iter(|| black_box(run_memcpy(MemcpyVariant::Beethoven, bytes)).cycles)
    });
    group.bench_function("no_tlp_64beat", |b| {
        b.iter(|| black_box(run_memcpy(MemcpyVariant::BeethovenNoTlp, bytes)).cycles)
    });
    group.finish();
}

/// Sequential-stream bandwidth under each DRAM address mapping: channel
/// interleaving (the default) turns streams into bank/channel-parallel
/// traffic; the linear mapping funnels them into one channel.
fn ablation_dram_mapping(c: &mut Criterion) {
    let run = |mapping: AddressMapping| -> f64 {
        let mut cfg = DramConfig::ddr4_2400();
        cfg.channels = 4;
        cfg.mapping = mapping;
        let bpb = cfg.bytes_per_burst();
        let mut dram = DramSystem::new(cfg);
        let bursts = 2048u64;
        let (mut issued, mut done, mut last, mut ps) = (0u64, 0u64, 0u64, 0u64);
        while done < bursts {
            while issued < bursts
                && dram
                    .enqueue(DramRequest::read(issued, issued * bpb))
                    .is_ok()
            {
                issued += 1;
            }
            ps += 100_000;
            dram.advance_to_ps(ps);
            while let Some(c) = dram.pop_completion() {
                done += 1;
                last = last.max(c.done_ps);
            }
            assert!(ps < 10_000_000_000, "stream stalled");
        }
        bursts as f64 * bpb as f64 / (last as f64 / 1e12) / 1e9
    };
    for (name, mapping) in [
        ("RoBaRaCoCh (interleaved)", AddressMapping::RoBaRaCoCh),
        ("RoRaBaChCo (page-interleaved)", AddressMapping::RoRaBaChCo),
        ("ChRaBaRoCo (linear)", AddressMapping::ChRaBaRoCo),
    ] {
        println!(
            "ablation datum: 4-channel sequential read, {name}: {:.1} GB/s",
            run(mapping)
        );
    }
    let mut group = c.benchmark_group("ablation_dram_mapping");
    group.sample_size(10);
    group.bench_function("interleaved_stream", |b| {
        b.iter(|| black_box(run(AddressMapping::RoBaRaCoCh)))
    });
    group.bench_function("linear_stream", |b| {
        b.iter(|| black_box(run(AddressMapping::ChRaBaRoCo)))
    });
    group.finish();
}

/// Active-set scheduler vs the naive stepper across three load shapes:
///
/// * **idle-heavy** — one memcpy command then a long refresh-only
///   stretch: the shape whole-simulation fast-forward collapses.
/// * **one-busy-core** — a many-core vector-add SoC with a single core
///   streaming commands: there is *no* quiescent gap to skip, so the win
///   comes from the active-set heap ticking only the busy core and its
///   memory path.
/// * **all-cores-busy** — every core streaming: the honest no-win case;
///   both schedulers do proportional work.
///
/// Simulated cycle counts are identical across modes by construction
/// (asserted here; guarded byte-for-byte by the scheduler equivalence
/// and property suites). The data are host wall-clock and the
/// ticked-vs-registered component-cycle economy reported in the
/// `sim rate:` footer.
fn ablation_active_set(c: &mut Criterion) {
    use bsim::{SimRate, SimRateExt};
    // Each scenario runs with the active-set scheduler on (`true`) or
    // under the naive oracle (`false`).
    type Scenario<'a> = (&'a str, Box<dyn Fn(bool) -> (SimRate, SimRateExt) + 'a>);
    // The widest vector-add SoC the AWS F1 floorplan holds (40 cores
    // elaborate, 44 do not): the schedulers' asymptotics only separate
    // when the idle majority is large.
    const CORES: u32 = 40;
    const ELES: u32 = 1 << 16;
    const VEC_BASE: u64 = 0x10_0000;
    const VEC_STRIDE: u64 = 0x10_0000;

    let idle_heavy = |event_driven: bool| -> (SimRate, SimRateExt) {
        const SRC: u64 = 0x10_0000;
        const DST: u64 = 0x80_0000;
        const BYTES: u64 = 16 * 1024;
        let timer = bsim::SimRateTimer::starting_at(0);
        let mut soc = bcore::elaborate(bkernels::memcpy::config(), &Platform::aws_f1())
            .expect("memcpy elaborates");
        soc.set_event_driven(event_driven);
        let payload: Vec<u8> = (0..BYTES).map(|i| (i % 251) as u8).collect();
        soc.memory().borrow_mut().write(SRC, &payload);
        let args = [
            ("src".to_owned(), SRC),
            ("dst".to_owned(), DST),
            ("len".to_owned(), BYTES),
        ]
        .into_iter()
        .collect();
        let token = soc.send_command(0, 0, &args).expect("send");
        soc.run_until_response(token, 100_000_000)
            .expect("copy completes");
        soc.run_for(1_000_000);
        (timer.finish(soc.now()), bbench::profile::sim_rate_ext(&soc))
    };

    // `busy` of the CORES vector-add cores stream `rounds` commands each;
    // the rest never see a command. The timer covers only the simulated
    // region — SoC elaboration (floorplanning, wiring) is identical
    // across scheduler modes and would otherwise flatten the comparison.
    let vecadd_run = |event_driven: bool, busy: u32, rounds: u32| -> (SimRate, SimRateExt) {
        let mut soc = bcore::elaborate(bkernels::vecadd::config(CORES), &Platform::aws_f1())
            .expect("vecadd elaborates");
        soc.set_event_driven(event_driven);
        let input: Vec<u8> = (0..ELES * 4).map(|i| (i % 251) as u8).collect();
        for core in 0..busy {
            soc.memory()
                .borrow_mut()
                .write(VEC_BASE + u64::from(core) * VEC_STRIDE, &input);
        }
        let timer = bsim::SimRateTimer::starting_at(soc.now());
        for round in 0..rounds {
            let tokens: Vec<_> = (0..busy)
                .map(|core| {
                    let addr = VEC_BASE + u64::from(core) * VEC_STRIDE;
                    soc.send_command(0, core as u16, &bkernels::vecadd::args(round, addr, ELES))
                        .expect("send")
                })
                .collect();
            for token in tokens {
                soc.run_until_response(token, 100_000_000)
                    .expect("vec-add completes");
            }
        }
        (timer.finish(soc.now()), bbench::profile::sim_rate_ext(&soc))
    };

    let scenarios: [Scenario; 3] = [
        ("idle-heavy    ", Box::new(idle_heavy)),
        ("one-busy-core ", Box::new(|on| vecadd_run(on, 1, 8))),
        // All-cores-busy costs O(cores) in every mode; two rounds keep
        // the honest no-win datum affordable.
        ("all-cores-busy", Box::new(|on| vecadd_run(on, CORES, 2))),
    ];
    for (name, run) in &scenarios {
        let (naive, _) = run(false);
        let (active, ext) = run(true);
        assert_eq!(
            naive.cycles, active.cycles,
            "{name}: active-set cycle drift"
        );
        println!("ablation datum: {name} naive     : {}", naive.render());
        println!(
            "ablation datum: {name} active-set: {}",
            active.render_with(&ext)
        );
        println!(
            "ablation datum: {name} active-set speedup: {:.1}x vs naive",
            naive.host_seconds / active.host_seconds
        );
    }

    let mut group = c.benchmark_group("ablation_active_set");
    group.sample_size(3);
    group.bench_function("one_busy_core_naive", |b| {
        b.iter(|| black_box(vecadd_run(false, 1, 8)))
    });
    group.bench_function("one_busy_core_active_set", |b| {
        b.iter(|| black_box(vecadd_run(true, 1, 8)))
    });
    group.finish();
}

/// Parallel sweep executor vs the serial path on the Figure 4 sweep:
/// 5 variants × 3 sizes = 15 independent SoC simulations, run on 1
/// worker and then on 4. Simulated cycle totals are identical by
/// construction (asserted here and byte-for-byte in the
/// `parallel_equivalence` test); the datum is host wall-clock.
fn ablation_parallel_sweep(c: &mut Criterion) {
    let sizes = [16 << 10, 64 << 10, 256 << 10];

    let drive = |workers: usize| -> (u64, f64) {
        let timer = bsim::SimRateTimer::starting_at(0);
        let (_, cycles) = bbench::fig4::run_on(&sizes, workers);
        (cycles, timer.finish(cycles).host_seconds)
    };

    let (serial_cycles, serial_secs) = drive(1);
    let (parallel_cycles, parallel_secs) = drive(4);
    assert_eq!(
        serial_cycles, parallel_cycles,
        "parallel sweep must simulate exactly the serial cycle total"
    );
    println!("ablation datum: fig4 sweep serial  : {serial_secs:.3} s ({serial_cycles} cycles)");
    println!("ablation datum: fig4 sweep 4 workers: {parallel_secs:.3} s (identical cycles)");
    println!(
        "ablation datum: sweep speedup: {:.1}x host wall-clock on {} hardware threads",
        serial_secs / parallel_secs,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut group = c.benchmark_group("ablation_parallel_sweep");
    group.sample_size(10);
    group.bench_function("fig4_sweep_serial", |b| b.iter(|| black_box(drive(1))));
    group.bench_function("fig4_sweep_4_workers", |b| b.iter(|| black_box(drive(4))));
    group.finish();
}

/// Dispatch-policy ablation on the runtime server: every policy replays
/// the same seeded open-loop schedule (small scale) on a fresh SoC. The
/// data are simulated — tail latency, goodput, and rejections per policy
/// — so the criterion timings only measure simulation cost; the policy
/// comparison itself is the printed datum (and the `loadgen` binary's
/// stdout artifact).
fn ablation_server_policies(c: &mut Criterion) {
    use bbench::loadgen::{plan, run_policy, LoadScale, RunOpts};
    use bserver::DispatchPolicy;

    let scale = LoadScale::small();
    let schedule = plan(42, &scale);
    let opts = RunOpts::default();
    for policy in DispatchPolicy::all() {
        let row = run_policy(policy, &schedule, &scale, &opts);
        println!(
            "ablation datum: {:<16} p50 {:>6} p99 {:>6} cyc, {}/{} completed, {} rejected, \
             makespan {} cyc",
            row.policy.name(),
            row.latency.0,
            row.latency.2,
            row.completed,
            row.offered,
            row.rejected,
            row.makespan_cycles
        );
    }

    let mut group = c.benchmark_group("ablation_server_policies");
    group.sample_size(10);
    group.bench_function("lock_arbitrated_small", |b| {
        b.iter(|| {
            black_box(run_policy(
                DispatchPolicy::LockArbitrated,
                &schedule,
                &scale,
                &opts,
            ))
        })
    });
    group.bench_function("sjf_small", |b| {
        b.iter(|| {
            black_box(run_policy(
                DispatchPolicy::ShortestJobFirst,
                &schedule,
                &scale,
                &opts,
            ))
        })
    });
    group.finish();
}

/// Fleet-sharding ablation: the same saturating open-loop schedule
/// served by a [`bserver::FleetServer`] of 1, 2, and 4 single-core
/// replicas. The printed data are simulated and deterministic
/// (`bbench::loadgen::render_fleet_ablation`, pinned against
/// `results/ablation_fleet.txt` by the `ablation_golden` test). The
/// criterion timings measure host simulation cost only (a 4-shard run
/// elaborates four SoCs and completes more jobs, so it is *not* expected
/// to be faster wall-clock at this scale).
fn ablation_fleet(c: &mut Criterion) {
    use bbench::loadgen::{ablation_row, render_fleet_ablation};
    use bserver::BatchPolicy;

    print!("{}", render_fleet_ablation());

    let fleet = |shards: usize| ablation_row(shards, BatchPolicy::default(), 2);
    let mut group = c.benchmark_group("ablation_fleet");
    group.sample_size(10);
    group.bench_function("fleet_1_shard", |b| b.iter(|| black_box(fleet(1))));
    group.bench_function("fleet_4_shards", |b| b.iter(|| black_box(fleet(4))));
    group.finish();
}

/// Batched-dispatch ablation: the same saturating open-loop schedule
/// served by a 4-shard fleet under admission micro-batching widths
/// 1, 4, 16, and the adaptive controller. The printed data are simulated
/// and deterministic (`bbench::loadgen::render_batching_ablation`, pinned
/// against `results/ablation_batching.txt` by the `ablation_golden`
/// test): goodput and p99 latency per batch setting, with `auto` held at
/// or above the batch-1 goodput.
fn ablation_batching(c: &mut Criterion) {
    use bbench::loadgen::{ablation_row, render_batching_ablation};
    use bserver::BatchPolicy;

    print!("{}", render_batching_ablation());

    let fleet = |batch: BatchPolicy| ablation_row(4, batch, 8);
    let mut group = c.benchmark_group("ablation_batching");
    group.sample_size(10);
    group.bench_function("fleet_batch_1", |b| {
        b.iter(|| black_box(fleet(BatchPolicy::Fixed(1))))
    });
    group.bench_function("fleet_batch_auto", |b| {
        b.iter(|| black_box(fleet(BatchPolicy::Auto)))
    });
    group.finish();
}

/// Network front-end ablation: the same seeded closed-loop schedule
/// dispatched through a localhost `bnet` socket (one connection per
/// tenant, wave-per-round) and through the in-process `replay_on`
/// path, at 1, 8, and 64 connections. The rigs are identical by
/// construction and the outcome digests are asserted equal — the wire
/// tier may never change results, only cost host wall-clock. The
/// printed data are commands/sec on each path (wall-clock, so the
/// socket numbers include framing, syscalls, and the per-wave barrier
/// handshake; simulated cycle counts are unaffected).
fn ablation_net(c: &mut Criterion) {
    use bbench::loadgen::{plan, LoadScale};
    use bbench::netgen::{rig_config, rounds_from_plan};
    use bnet::{replay_on, NetClient, NetConfig, NetServer, SubmitReply};
    use bserver::DispatchPolicy;

    // 3 waves of tenants×queue_capacity commands per connection count.
    let scale_for = |conns: usize| LoadScale {
        tenants: conns,
        jobs: conns * 8 * 3,
        n_cores: 4,
        mean_gap_cycles: 60,
        queue_capacity: 8,
    };

    let socket_cmds_per_sec = |conns: usize| -> (f64, u64) {
        let scale = scale_for(conns);
        let config = rig_config(&scale, DispatchPolicy::Fifo, 1);
        // Default quotas: the planned tenant mix is skewed within a
        // round, and a shed command would fork the two paths' digests.
        let server = NetServer::bind("127.0.0.1:0", NetConfig::new(config)).expect("bind");
        let addr = server.local_addr().to_string();
        let mut clients: Vec<NetClient> = (0..conns as u32)
            .map(|t| {
                NetClient::connect(&addr, t, bnet::tenant_token(bnet::DEFAULT_AUTH_SEED, t))
                    .expect("connect")
            })
            .collect();
        let addrs: Vec<u64> = clients.iter().map(|c| c.info().buffer_addr).collect();
        let rounds = rounds_from_plan(&plan(42, &scale), &scale, &addrs);
        let mut outcomes = Vec::new();
        let t0 = std::time::Instant::now();
        for round in &rounds {
            for cmd in round {
                match clients[cmd.tenant as usize]
                    .submit(cmd.seq, &cmd.job)
                    .expect("submit")
                {
                    SubmitReply::Accepted => {}
                    SubmitReply::Refused { code, .. } => panic!("shed in ablation: {code:?}"),
                }
            }
            for client in clients.iter_mut() {
                client.poll_send().expect("poll_send");
            }
            for client in clients.iter_mut() {
                let tenant = client.info().tenant;
                for (seq, outcome) in client.poll_recv().expect("poll_recv") {
                    outcomes.push((tenant, seq, outcome));
                }
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        for client in clients {
            client.bye().expect("bye");
        }
        server.stop();
        outcomes.sort_by_key(|(tenant, seq, _)| (*tenant, *seq));
        (scale.jobs as f64 / dt, bnet::outcome_digest(&outcomes))
    };

    let in_process_cmds_per_sec = |conns: usize| -> (f64, u64) {
        let scale = scale_for(conns);
        let config = rig_config(&scale, DispatchPolicy::Fifo, 1);
        let mut rig = bnet::build(&config);
        let addrs: Vec<u64> = rig.buffers.iter().map(|b| b.device_addr).collect();
        let rounds = rounds_from_plan(&plan(42, &scale), &scale, &addrs);
        let t0 = std::time::Instant::now();
        let outcomes = replay_on(&mut rig, &rounds);
        let dt = t0.elapsed().as_secs_f64();
        (scale.jobs as f64 / dt, bnet::outcome_digest(&outcomes))
    };

    for conns in [1usize, 8, 64] {
        let (wire_rate, wire_digest) = socket_cmds_per_sec(conns);
        let (local_rate, local_digest) = in_process_cmds_per_sec(conns);
        assert_eq!(
            wire_digest, local_digest,
            "{conns} connection(s): wire and in-process outcomes diverged"
        );
        println!(
            "ablation datum: net {conns:>2} conn(s): socket {wire_rate:>9.0} cmds/s, \
             in-process {local_rate:>9.0} cmds/s, overhead {:.2}x (digests identical)",
            local_rate / wire_rate
        );
    }

    let mut group = c.benchmark_group("ablation_net");
    group.sample_size(10);
    group.bench_function("socket_8_conns", |b| {
        b.iter(|| black_box(socket_cmds_per_sec(8)))
    });
    group.bench_function("in_process_8_conns", |b| {
        b.iter(|| black_box(in_process_cmds_per_sec(8)))
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_noc,
    ablation_spill,
    ablation_bursts_and_ordering,
    ablation_dram_mapping,
    ablation_active_set,
    ablation_parallel_sweep,
    ablation_server_policies,
    ablation_fleet,
    ablation_batching,
    ablation_net
);
criterion_main!(benches);
