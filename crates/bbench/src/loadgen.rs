//! Open-loop load harness for the multi-tenant runtime server
//! (`bserver`): seeded arrival schedules, mixed kernel sizes, one fresh
//! fleet per dispatch policy, and a deterministic report of offered
//! load, goodput, and latency percentiles.
//!
//! The generator is **open-loop**: arrivals follow the seeded schedule
//! regardless of how the server is coping, so a policy that falls behind
//! shows up as queue growth, latency blow-up, and admission rejections —
//! the contention regime behind Figure 6's measured-vs-ideal gap. Every
//! policy is driven with the *same* arrival schedule over the
//! shared-memory `kria` platform, so rows differ only by dispatch
//! behaviour.
//!
//! Every run is served by a [`FleetServer`] of [`RunOpts::shards`]
//! replicas; one shard is a single server. All randomness is a
//! [`SplitMix64`] stream from the CLI seed, all reported quantities are
//! integers (cycles and counts, percentiles from the
//! `server/latency_cycles` histograms in `bsim::perf`), and the
//! per-policy simulations run as independent [`bsim::host::run_ordered`]
//! jobs — so stdout is byte-identical at any `BBENCH_JOBS` and in either
//! scheduler mode (`BSIM_NAIVE`; enforced by the `loadgen_determinism` test),
//! and `results/loadgen.txt` is pinned by the `loadgen_cli` test.
//!
//! Runs can additionally carry telemetry ([`TelemetryOpts`]): request
//! spans merged into one Perfetto trace per policy, a windowed metrics
//! time-series in the JSON summary, and an optional stall watchdog with
//! flight-recorder dumps. Telemetry is pure observation — the rendered
//! table and every measured quantity stay byte-identical with it on or
//! off (the `telemetry_invariance` tests pin this).

use std::path::PathBuf;

use bcore::elaborate;
use bkernels::machsuite::SplitMix64;
use bplatform::Platform;
use bserver::{
    Arrival, BatchPolicy, DispatchPolicy, FleetConfig, FleetMetrics, FleetServer, JobSpec,
    MetricsSnapshot, ServerConfig, TelemetryConfig, WatchdogConfig,
};

/// Scale knobs for a load-generation run.
#[derive(Debug, Clone, Copy)]
pub struct LoadScale {
    /// Client sessions issuing jobs.
    pub tenants: usize,
    /// Total jobs across all tenants.
    pub jobs: usize,
    /// Vector-add cores in the SoC.
    pub n_cores: u32,
    /// Mean inter-arrival gap in fabric cycles (uniform over
    /// `1..=2*mean`, so the offered rate is `1/mean`).
    pub mean_gap_cycles: u64,
    /// Per-tenant admission bound ([`ServerConfig::queue_capacity`]).
    pub queue_capacity: usize,
}

impl LoadScale {
    /// The default run: 8 tenants offering work several times faster than
    /// 4 cores can drain it — queues hit the admission bound, so the
    /// policies separate and rejections are exercised.
    pub fn default_scale() -> Self {
        Self {
            tenants: 8,
            jobs: 160,
            n_cores: 4,
            mean_gap_cycles: 120,
            queue_capacity: 8,
        }
    }

    /// A scaled-down configuration for quick runs and tests.
    pub fn small() -> Self {
        Self {
            tenants: 4,
            jobs: 48,
            n_cores: 2,
            mean_gap_cycles: 120,
            queue_capacity: 6,
        }
    }
}

/// One planned submission: plain data, shared by every policy's run (each
/// run re-binds it to its own SoC's buffers).
#[derive(Debug, Clone, Copy)]
pub struct PlannedJob {
    /// Arrival cycle (absolute, starting from 0).
    pub at_cycle: u64,
    /// Issuing tenant.
    pub tenant: usize,
    /// Vector-add length — the size mix {64, 512, 4096} weighted 2:1:1,
    /// doubling as the SJF cost hint.
    pub n_eles: u32,
}

/// Expands `seed` into the arrival schedule every policy replays.
pub fn plan(seed: u64, scale: &LoadScale) -> Vec<PlannedJob> {
    let mut rng = SplitMix64(seed);
    let mut at_cycle = 0u64;
    (0..scale.jobs)
        .map(|_| {
            at_cycle += 1 + rng.next_u64() % (2 * scale.mean_gap_cycles.max(1));
            let tenant = (rng.next_u64() % scale.tenants as u64) as usize;
            let n_eles = match rng.next_u64() % 4 {
                0 | 1 => 64,
                2 => 512,
                _ => 4096,
            };
            PlannedJob {
                at_cycle,
                tenant,
                n_eles,
            }
        })
        .collect()
}

/// How a run is served: the three knobs the CLI sets (`--shards`,
/// `--batch`, and `--telemetry` with its `--window`/`--trace`/`--flight`
/// companions).
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Fleet replicas (at least 1), each a full SoC behind its own
    /// server. `BSERVER_SHARDS` only caps how many execute at once, so
    /// results depend on this count alone.
    pub shards: usize,
    /// Admission micro-batching for the event-driven policies (the
    /// lock-arbitrated baseline ignores it).
    pub batch: BatchPolicy,
    /// Request telemetry; `None` runs without it.
    pub telemetry: Option<TelemetryOpts>,
}

impl Default for RunOpts {
    /// One shard, batch 1, no telemetry: the plain `loadgen` run.
    fn default() -> Self {
        Self {
            shards: 1,
            batch: BatchPolicy::default(),
            telemetry: None,
        }
    }
}

/// Telemetry knobs for a run (the `--telemetry`, `--window`, `--trace`,
/// and `--flight` flags).
#[derive(Debug, Clone, Default)]
pub struct TelemetryOpts {
    /// Tumbling-window width in fabric cycles; `0` means the
    /// [`TelemetryConfig`] default.
    pub window_cycles: u64,
    /// Directory to write one merged Perfetto trace per policy into
    /// (`trace-<policy>.json`).
    pub trace_dir: Option<PathBuf>,
    /// Directory for flight-recorder dumps; arming the stall watchdog
    /// with a threshold far beyond any healthy run, so dumps appear only
    /// if the fleet genuinely wedges.
    pub flight_dir: Option<PathBuf>,
}

/// One policy's measured row.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// The dispatch policy.
    pub policy: DispatchPolicy,
    /// Jobs offered (the schedule length).
    pub offered: usize,
    /// Jobs completed (goodput numerator).
    pub completed: usize,
    /// Jobs rejected at admission.
    pub rejected: usize,
    /// Latency percentiles in fabric cycles, from the fleet-merged
    /// `server/latency_cycles` histogram: (p50, p90, p99, max).
    pub latency: (u64, u64, u64, u64),
    /// Cycle the last outcome resolved on the slowest shard
    /// (offered-load denominator).
    pub makespan_cycles: u64,
    /// Cycles spent inside the serialized submit path, summed over
    /// shards (`server/lock_wait_cycles`).
    pub lock_wait_cycles: u64,
    /// Peak summed queue depth on the deepest shard
    /// (`server/queue_depth_peak`).
    pub queue_depth_peak: u64,
    /// Per-shard serving counters (the JSON summary's `shard_stats`).
    pub shards: Vec<ShardRow>,
    /// Telemetry artifacts, when [`RunOpts::telemetry`] asked for them.
    pub telemetry: Option<PolicyTelemetry>,
}

/// One shard's slice of a run: admission-hashed tenant count and the
/// shard-local serving counters.
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// Shard index.
    pub shard: usize,
    /// Tenants admission hashed onto this shard.
    pub tenants: usize,
    /// Jobs dispatched on this shard (`server/dispatched`).
    pub dispatched: u64,
    /// Jobs completed on this shard.
    pub completed: u64,
    /// Jobs rejected on this shard.
    pub rejected: u64,
    /// Shard-local p99 latency in fabric cycles.
    pub p99: u64,
}

/// One policy's telemetry artifacts.
#[derive(Debug, Clone)]
pub struct PolicyTelemetry {
    /// Windowed time-series: the cross-shard aggregate plus per-shard
    /// snapshots.
    pub metrics: FleetMetrics,
    /// Where the merged Perfetto trace was written, if requested.
    pub trace_path: Option<PathBuf>,
}

/// Runs one policy against the schedule on a fresh fleet served as
/// `opts` says. Exposed so the ablation benches can time policies
/// individually. Telemetry is strictly off-path (never advances the
/// simulated clock), so every field but [`PolicyRow::telemetry`] is
/// byte-identical with it on or off.
pub fn run_policy(
    policy: DispatchPolicy,
    plan: &[PlannedJob],
    scale: &LoadScale,
    opts: &RunOpts,
) -> PolicyRow {
    let n_cores = scale.n_cores;
    let config = FleetConfig {
        shards: opts.shards.max(1),
        server: ServerConfig {
            policy,
            queue_capacity: scale.queue_capacity,
            batch: opts.batch,
            ..ServerConfig::default()
        },
    };
    let mut fleet = FleetServer::new(
        move |_| {
            elaborate(bkernels::vecadd::config(n_cores), &Platform::kria())
                .expect("vecadd elaborates")
        },
        bkernels::vecadd::SYSTEM,
        scale.tenants,
        config,
    )
    .expect("fleet opens");
    let n_shards = fleet.n_shards();
    if let Some(o) = &opts.telemetry {
        let defaults = TelemetryConfig::default();
        let watchdog = o.flight_dir.as_ref().map(|dir| {
            // Healthy runs complete jobs every few thousand cycles; a
            // 200M-cycle stall threshold only ever fires on a real wedge.
            let mut w = WatchdogConfig::new(200_000_000, dir);
            w.label = format!("loadgen-{}", policy.name());
            w
        });
        fleet.enable_telemetry(TelemetryConfig {
            window_cycles: if o.window_cycles > 0 {
                o.window_cycles
            } else {
                defaults.window_cycles
            },
            watchdog,
            ..defaults
        });
    }

    // One buffer per tenant, allocated through the handle of whichever
    // shard admission hashed it to (tenants on one shard share its
    // allocator), sized for the largest job in the mix. Jobs add in place;
    // concurrent cores touching one tenant's buffer is
    // timing-deterministic, and values are not checked here.
    let max_eles = plan.iter().map(|j| j.n_eles).max().unwrap_or(64);
    let buffers: Vec<bruntime::RemotePtr> = (0..scale.tenants)
        .map(|t| {
            let s = fleet.handle(fleet.shard_of(t));
            let mem = s.malloc(u64::from(max_eles) * 4).expect("tenant buffer");
            s.write_u32_slice(mem, &vec![1u32; max_eles as usize]);
            mem
        })
        .collect();

    // Per-shard clock origins, captured after setup so `at_cycle`
    // offsets mean the same thing on every replica.
    let t0: Vec<u64> = (0..n_shards).map(|s| fleet.handle(s).now()).collect();
    // Sequence numbers are arrival indices; only outcome counts are read,
    // so the keyed order does not matter.
    let arrivals = plan
        .iter()
        .enumerate()
        .map(|(seq, j)| {
            let spec = JobSpec::new(bkernels::vecadd::args(
                1,
                buffers[j.tenant].device_addr(),
                j.n_eles,
            ))
            .with_cost_hint(u64::from(j.n_eles));
            let arrival = Arrival {
                at_cycle: j.at_cycle,
                tenant: j.tenant,
                spec,
            };
            (seq as u64, arrival)
        })
        .collect();
    let outcomes = fleet.run_keyed(arrivals);
    fleet.sync_rollup();

    let completed = outcomes.values().filter(|o| o.is_completed()).count();
    let hist = fleet.latency_histogram();
    let counter = |s: usize, name: &str| {
        fleet
            .handle(s)
            .with_soc(|soc| soc.perf().counter(&format!("server/{name}")))
            .unwrap_or(0)
    };
    let shards = (0..n_shards)
        .map(|s| ShardRow {
            shard: s,
            tenants: fleet.tenants_of(s).len(),
            dispatched: counter(s, "dispatched"),
            completed: counter(s, "completed"),
            rejected: counter(s, "rejected"),
            p99: fleet
                .handle(s)
                .with_soc(|soc| soc.perf().histogram("server/latency_cycles"))
                .and_then(|h| h.p99())
                .unwrap_or(0),
        })
        .collect();
    let telemetry = opts.telemetry.as_ref().map(|o| PolicyTelemetry {
        metrics: fleet.metrics_snapshot().expect("telemetry enabled"),
        trace_path: o.trace_dir.as_ref().map(|dir| {
            let trace = fleet.merged_trace().expect("telemetry enabled");
            std::fs::create_dir_all(dir).expect("trace dir creatable");
            let path = dir.join(format!("trace-{}.json", policy.name()));
            std::fs::write(&path, trace).expect("merged trace writable");
            path
        }),
    });
    let row = PolicyRow {
        policy,
        offered: outcomes.len(),
        completed,
        rejected: outcomes.len() - completed,
        latency: (
            hist.p50().unwrap_or(0),
            hist.p90().unwrap_or(0),
            hist.p99().unwrap_or(0),
            hist.max().unwrap_or(0),
        ),
        makespan_cycles: (0..n_shards)
            .map(|s| fleet.handle(s).now() - t0[s])
            .max()
            .unwrap_or(0),
        lock_wait_cycles: fleet.counter_total("lock_wait_cycles"),
        queue_depth_peak: (0..n_shards)
            .map(|s| counter(s, "queue_depth_peak"))
            .max()
            .unwrap_or(0),
        shards,
        telemetry,
    };
    drop(outcomes);

    // Interleaved teardown across tenants: the shared allocator must
    // coalesce the holes (regression shape for multi-client `free`).
    for (t, mem) in buffers.into_iter().enumerate().rev() {
        fleet
            .handle(fleet.shard_of(t))
            .free(mem)
            .expect("free tenant buffer");
    }
    row
}

/// Runs every policy over the seeded schedule on `workers` host threads
/// (one fresh fleet per policy) and returns `(rows, total simulated
/// cycles)`. Rows come back in [`DispatchPolicy::all`] order — baseline
/// first — at any worker count.
pub fn run_on(
    seed: u64,
    scale: &LoadScale,
    opts: &RunOpts,
    workers: usize,
) -> (Vec<PolicyRow>, u64) {
    let plan = plan(seed, scale);
    let jobs: Vec<_> = DispatchPolicy::all()
        .into_iter()
        .map(|policy| {
            let plan = &plan;
            move || {
                let row = run_policy(policy, plan, scale, opts);
                eprintln!(
                    "loadgen: {} done ({} completed, {} rejected, {} cycles, {} shards)",
                    policy,
                    row.completed,
                    row.rejected,
                    row.makespan_cycles,
                    row.shards.len()
                );
                row
            }
        })
        .collect();
    let rows = bsim::host::run_ordered(jobs, workers);
    let total_cycles = rows.iter().map(|r| r.makespan_cycles).sum();
    (rows, total_cycles)
}

/// Renders the text report (the deterministic stdout artifact). With
/// more than one shard the header gains a `, N shards` annotation;
/// per-shard stats and telemetry live in the JSON summary, never in the
/// table.
pub fn render(seed: u64, scale: &LoadScale, opts: &RunOpts, rows: &[PolicyRow]) -> String {
    let suffix = if opts.shards > 1 {
        format!(", {} shards", opts.shards)
    } else {
        String::new()
    };
    let mut out = String::new();
    out.push_str(&format!(
        "Load generator: {} jobs, {} tenants, {} cores, mean gap {} cycles, seed {}{}\n\n",
        scale.jobs, scale.tenants, scale.n_cores, scale.mean_gap_cycles, seed, suffix
    ));
    out.push_str(&format!(
        "{:<16} {:>6} {:>6} {:>8} {:>9} {:>9} {:>9} {:>12} {:>11} {:>6}\n",
        "policy", "done", "rej", "p50", "p90", "p99", "max", "makespan", "lock_wait", "peakq"
    ));
    out.push_str(&"-".repeat(102));
    out.push('\n');
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:>6} {:>6} {:>8} {:>9} {:>9} {:>9} {:>12} {:>11} {:>6}\n",
            row.policy.name(),
            row.completed,
            row.rejected,
            row.latency.0,
            row.latency.1,
            row.latency.2,
            row.latency.3,
            row.makespan_cycles,
            row.lock_wait_cycles,
            row.queue_depth_peak,
        ));
    }
    out.push_str("\n(latencies in fabric cycles, from the server/latency_cycles histogram)\n");
    out
}

/// Renders the machine-readable JSON summary (the `--json` artifact; CI
/// parses it): run shape, the `"batch"` setting, the `"shards"` count,
/// and per policy the aggregate fields, a `"shard_stats"` array, and —
/// when telemetry ran — a `"telemetry"` object with the window width,
/// the aggregate and per-shard time-series, and the merged-trace path.
/// The vendored `serde` is a stub, so this is hand-rolled;
/// `bsim::perf::validate_json` guards its shape in tests.
pub fn render_json(seed: u64, scale: &LoadScale, opts: &RunOpts, rows: &[PolicyRow]) -> String {
    let mut out = format!(
        "{{\"seed\":{},\"tenants\":{},\"jobs\":{},\"cores\":{},\
         \"mean_gap_cycles\":{},\"queue_capacity\":{},\"batch\":\"{}\",\"shards\":{},\
         \"policies\":[",
        seed,
        scale.tenants,
        scale.jobs,
        scale.n_cores,
        scale.mean_gap_cycles,
        scale.queue_capacity,
        opts.batch,
        opts.shards
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"policy\":\"{}\",\"offered\":{},\"completed\":{},\"rejected\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\
             \"makespan_cycles\":{},\"lock_wait_cycles\":{},\"queue_depth_peak\":{},\
             \"shard_stats\":[",
            row.policy.name(),
            row.offered,
            row.completed,
            row.rejected,
            row.latency.0,
            row.latency.1,
            row.latency.2,
            row.latency.3,
            row.makespan_cycles,
            row.lock_wait_cycles,
            row.queue_depth_peak,
        ));
        for (j, s) in row.shards.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{},\"tenants\":{},\"dispatched\":{},\"completed\":{},\
                 \"rejected\":{},\"p99\":{}}}",
                s.shard, s.tenants, s.dispatched, s.completed, s.rejected, s.p99
            ));
        }
        out.push(']');
        if let Some(t) = &row.telemetry {
            out.push_str(&format!(",\"telemetry\":{}", telemetry_json(t)));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// One window row as a JSON object (hand-rolled; the vendored `serde`
/// is a stub).
fn window_row_json(w: &bserver::WindowRow) -> String {
    let mut out = format!(
        "{{\"start_cycle\":{},\"completed\":{},\"rejected\":{},\"breached\":{},\
         \"retried\":{},\"queue_depth_peak\":{},\
         \"latency_p50\":{},\"latency_p90\":{},\"latency_p99\":{},\
         \"queue_wait_p50\":{},\"queue_wait_p90\":{},\"queue_wait_p99\":{},\
         \"batch_occupancy_p50\":{},\"batch_occupancy_p90\":{},\"batch_occupancy_p99\":{},\
         \"tenant_completed\":[",
        w.start_cycle,
        w.completed,
        w.rejected,
        w.breached,
        w.retried,
        w.queue_depth_peak,
        w.latency.0,
        w.latency.1,
        w.latency.2,
        w.queue_wait.0,
        w.queue_wait.1,
        w.queue_wait.2,
        w.batch_occupancy.0,
        w.batch_occupancy.1,
        w.batch_occupancy.2,
    );
    for (i, (tenant, count)) in w.tenant_completed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{tenant},{count}]"));
    }
    out.push_str("]}");
    out
}

fn windows_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("[");
    for (i, w) in snap.windows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&window_row_json(w));
    }
    out.push(']');
    out
}

fn telemetry_json(t: &PolicyTelemetry) -> String {
    let mut out = format!(
        "{{\"window_cycles\":{},\"windows\":{},\"shard_windows\":[",
        t.metrics.aggregate.window_cycles,
        windows_json(&t.metrics.aggregate),
    );
    for (i, shard) in t.metrics.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"shard\":{i},\"windows\":{}}}",
            windows_json(shard)
        ));
    }
    out.push(']');
    if let Some(path) = &t.trace_path {
        let path = bsim::perf::json_string(&path.display().to_string());
        out.push_str(&format!(",\"trace_file\":{path}"));
    }
    out.push('}');
    out
}

/// One row of the fleet and batching ablations: seed 42's saturating
/// open-loop schedule (8 tenants, 800 jobs, a mean gap of 10 cycles)
/// served FIFO by `shards` single-core replicas.
pub fn ablation_row(shards: usize, batch: BatchPolicy, queue_capacity: usize) -> PolicyRow {
    let scale = LoadScale {
        tenants: 8,
        jobs: 800,
        n_cores: 1,
        mean_gap_cycles: 10,
        queue_capacity,
    };
    let opts = RunOpts {
        shards,
        batch,
        telemetry: None,
    };
    run_policy(DispatchPolicy::Fifo, &plan(42, &scale), &scale, &opts)
}

/// The fleet-sharding ablation's datum lines, `results/ablation_fleet.txt`:
/// goodput (completed jobs per megacycle of fleet makespan) at 1, 2 and 4
/// shards with 2-deep tenant queues. A single shard rejects most of the
/// offered load; admission hashing splits the tenants across
/// independent SoCs, so extra shards turn rejections into goodput.
///
/// # Panics
///
/// If 4 shards deliver less than 3× the 1-shard goodput.
pub fn render_fleet_ablation() -> String {
    let mut out = String::new();
    let mut goodput = |shards: usize| {
        let row = ablation_row(shards, BatchPolicy::default(), 2);
        let per_mcyc = row.completed as f64 * 1_000_000.0 / row.makespan_cycles as f64;
        out.push_str(&format!(
            "ablation datum: fleet {} shard(s): {}/{} completed, {} rejected, \
             makespan {} cyc, {:.1} jobs/Mcyc (p99 {} cyc, {} shards live)\n",
            shards,
            row.completed,
            row.offered,
            row.rejected,
            row.makespan_cycles,
            per_mcyc,
            row.latency.2,
            row.shards.len()
        ));
        per_mcyc
    };
    let (t1, t2, t4) = (goodput(1), goodput(2), goodput(4));
    out.push_str(&format!(
        "ablation datum: fleet aggregate-throughput scaling: {:.2}x at 2 shards, \
         {:.2}x at 4 shards (near-linear target: 2x / 4x)\n",
        t2 / t1,
        t4 / t1
    ));
    assert!(
        t4 / t1 >= 3.0,
        "4-shard fleet must deliver >= 3x aggregate goodput over 1 shard (got {:.2}x)",
        t4 / t1
    );
    out
}

/// The batched-dispatch ablation's datum lines,
/// `results/ablation_batching.txt`: goodput and p99 latency of a 4-shard
/// fleet with 8-deep tenant queues at batch widths 1, 4, 16 and `auto`.
/// Batch 1, the default, pays the per-command host costs; wider batches
/// amortize the lock and MMIO wakes across commands.
///
/// # Panics
///
/// If `auto` delivers less goodput than batch 1: the adaptive
/// controller may decline to batch, never regress.
pub fn render_batching_ablation() -> String {
    let mut out = String::new();
    let mut run = |batch: BatchPolicy| {
        let row = ablation_row(4, batch, 8);
        out.push_str(&format!(
            "ablation datum: batch {:<9}: {}/{} completed, {} rejected, makespan {} cyc, \
             {:.1} jobs/Mcyc (p99 {} cyc)\n",
            batch.to_string(),
            row.completed,
            row.offered,
            row.rejected,
            row.makespan_cycles,
            row.completed as f64 * 1_000_000.0 / row.makespan_cycles as f64,
            row.latency.2,
        ));
        (row.completed as u128, row.makespan_cycles as u128)
    };
    let (done1, mk1) = run(BatchPolicy::Fixed(1));
    run(BatchPolicy::Fixed(4));
    run(BatchPolicy::Fixed(16));
    let (done_auto, mk_auto) = run(BatchPolicy::Auto);
    // done_auto/mk_auto >= done1/mk1, cross-multiplied to stay exact.
    assert!(
        done_auto * mk1 >= done1 * mk_auto,
        "adaptive batching must never regress goodput vs batch=1 \
         ({done_auto}/{mk_auto} vs {done1}/{mk1})"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seed_deterministic_and_in_bounds() {
        let scale = LoadScale::small();
        let p1 = plan(7, &scale);
        let p2 = plan(7, &scale);
        assert_eq!(format!("{p1:?}"), format!("{p2:?}"));
        assert_eq!(p1.len(), scale.jobs);
        let mut last = 0;
        for j in &p1 {
            assert!(j.tenant < scale.tenants);
            assert!(matches!(j.n_eles, 64 | 512 | 4096));
            assert!(j.at_cycle > last, "arrival cycles strictly increase");
            last = j.at_cycle;
        }
        assert_ne!(
            format!("{:?}", plan(8, &scale)),
            format!("{p1:?}"),
            "different seeds give different schedules"
        );
    }

    #[test]
    fn improved_policies_beat_the_baseline_p99() {
        // The acceptance shape: at saturating load, round-robin or SJF
        // must beat the lock-arbitrated baseline on p99 latency.
        let scale = LoadScale::small();
        let (rows, _) = run_on(42, &scale, &RunOpts::default(), 1);
        assert_eq!(rows[0].policy, DispatchPolicy::LockArbitrated);
        let baseline_p99 = rows[0].latency.2;
        let best_improved = rows[1..].iter().map(|r| r.latency.2).min().unwrap();
        assert!(
            best_improved < baseline_p99,
            "an event-driven policy must beat the baseline p99 \
             ({best_improved} vs {baseline_p99})"
        );
        for row in &rows {
            assert!(row.completed > 0, "{}: some jobs must complete", row.policy);
            assert_eq!(row.offered, scale.jobs);
        }
    }

    #[test]
    fn fleet_run_is_deterministic_and_json_carries_shard_stats() {
        let scale = LoadScale {
            jobs: 10,
            ..LoadScale::small()
        };
        let opts = RunOpts {
            shards: 2,
            ..RunOpts::default()
        };
        let (a, _) = run_on(7, &scale, &opts, 2);
        let (b, _) = run_on(7, &scale, &opts, 1);
        assert_eq!(
            render(7, &scale, &opts, &a),
            render(7, &scale, &opts, &b),
            "same seed and shard count must render identically at any \
             execution width"
        );
        let json = render_json(7, &scale, &opts, &a);
        bsim::perf::validate_json(&json).expect("sharded summary must be valid JSON");
        assert!(json.contains("\"batch\":\"1\",\"shards\":2"));
        assert!(json.contains("\"shard_stats\":[{\"shard\":0,"));
        assert!(json.contains("\"policy\":\"lock-arbitrated\""));
        assert!(json.contains("\"p99\":"));
        // Aggregate counts equal the sum of the per-shard slices.
        for row in &a {
            let done: u64 = row.shards.iter().map(|s| s.completed).sum();
            assert_eq!(done, row.completed as u64, "{}", row.policy);
        }
    }
}
