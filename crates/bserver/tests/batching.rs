//! Batched-dispatch contracts.
//!
//! * The lock-arbitrated baseline ignores the batch setting entirely.
//! * Wider batches may re-time dispatches but must **conserve the
//!   outcome set**: with admission capacity for the whole schedule and
//!   no deadlines, every job completes under any batch width, with the
//!   per-tenant completion counts the schedule offered (no tenant is
//!   starved by another tenant's batch).
//! * An auto-batching fleet stays deterministic: results depend only on
//!   (schedule, shard count), never on worker threads or reruns.
//!
//! The single-server contracts run on 1-shard fleets.

use std::collections::BTreeMap;

use bcore::elaborate;
use bkernels::vecadd;
use bplatform::Platform;
use bruntime::RemotePtr;
use bserver::{
    Arrival, BatchPolicy, DispatchPolicy, FleetConfig, FleetServer, JobSpec, ServerConfig,
};
use proptest::prelude::*;

/// A deterministic mixed-size schedule with a few deadline-carrying jobs
/// (so the batched path's deadline-slack bound is exercised).
fn schedule(n_tenants: usize, jobs: usize) -> Vec<(u64, usize, u32, Option<u64>)> {
    (0..jobs)
        .map(|i| {
            let at = 40 * (i as u64 + 1);
            let tenant = (i * 5 + 1) % n_tenants;
            let n_eles = [64u32, 512, 4096][i % 3];
            let deadline = (i % 4 == 0).then_some(50_000u64);
            (at, tenant, n_eles, deadline)
        })
        .collect()
}

/// A fleet of `shards` 2-core vecadd replicas (one shard is a single
/// server) with one filled buffer per tenant, allocated through its
/// shard's handle in ascending tenant order.
fn vecadd_fleet(
    shards: usize,
    n_tenants: usize,
    server: ServerConfig,
) -> (FleetServer, Vec<RemotePtr>) {
    let fleet = FleetServer::new(
        |_| elaborate(vecadd::config(2), &Platform::kria()).expect("vecadd elaborates"),
        vecadd::SYSTEM,
        n_tenants,
        FleetConfig { shards, server },
    )
    .expect("fleet opens");
    let buffers = (0..n_tenants)
        .map(|t| {
            let s = fleet.handle(fleet.shard_of(t));
            let mem = s.malloc(4096 * 4).expect("tenant buffer");
            s.write_u32_slice(mem, &vec![1u32; 4096]);
            mem
        })
        .collect();
    (fleet, buffers)
}

fn job(buffer: RemotePtr, n_eles: u32) -> JobSpec {
    JobSpec::new(vecadd::args(1, buffer.device_addr(), n_eles)).with_cost_hint(u64::from(n_eles))
}

/// Everything a run observably produces: the outcome list, the final
/// cycle, the server counters, and the latency/queue-wait histograms.
struct RunFingerprint {
    outcomes: String,
    final_cycle: u64,
    counters: Vec<(&'static str, u64)>,
    histograms: String,
}

fn run_single(policy: DispatchPolicy, batch: BatchPolicy, n_tenants: usize) -> RunFingerprint {
    let config = ServerConfig {
        policy,
        queue_capacity: 8,
        batch,
        ..ServerConfig::default()
    };
    let (mut fleet, buffers) = vecadd_fleet(1, n_tenants, config);
    let arrivals = schedule(n_tenants, 24)
        .into_iter()
        .enumerate()
        .map(|(i, (at_cycle, tenant, n_eles, deadline))| {
            let mut spec = job(buffers[tenant], n_eles);
            if let Some(d) = deadline {
                spec = spec.with_deadline(d);
            }
            let arrival = Arrival {
                at_cycle,
                tenant,
                spec,
            };
            (i as u64, arrival)
        })
        .collect();
    let outcomes = format!("{:?}", fleet.run_keyed(arrivals));
    let counters = [
        "dispatched",
        "completed",
        "rejected",
        "retried",
        "lock_wait_cycles",
        "coalesced_wakes",
    ]
    .map(|name| (name, fleet.counter_total(name)))
    .to_vec();
    let handle = fleet.handle(0);
    let histograms = handle.with_soc(|soc| {
        format!(
            "{:?} {:?}",
            soc.perf().histogram("server/latency_cycles"),
            soc.perf().histogram("server/queue_wait_cycles"),
        )
    });
    RunFingerprint {
        outcomes,
        final_cycle: handle.now(),
        counters,
        histograms,
    }
}

#[test]
fn lock_arbitrated_baseline_ignores_the_batch_setting() {
    let one = run_single(DispatchPolicy::LockArbitrated, BatchPolicy::default(), 4);
    for batch in [BatchPolicy::Fixed(8), BatchPolicy::Auto] {
        let batched = run_single(DispatchPolicy::LockArbitrated, batch, 4);
        assert_eq!(one.outcomes, batched.outcomes, "{batch:?}");
        assert_eq!(one.final_cycle, batched.final_cycle, "{batch:?}");
        assert_eq!(one.counters, batched.counters, "{batch:?}");
        assert_eq!(one.histograms, batched.histograms, "{batch:?}");
    }
}

/// Runs an arbitrary no-deadline schedule with room for every job in
/// admission, returns per-tenant completion counts.
fn run_conservation(
    plan: &[(u64, usize, u32)],
    n_tenants: usize,
    batch: BatchPolicy,
) -> BTreeMap<usize, usize> {
    let config = ServerConfig {
        policy: DispatchPolicy::Fifo,
        queue_capacity: plan.len().max(1),
        batch,
        ..ServerConfig::default()
    };
    let (mut fleet, buffers) = vecadd_fleet(1, n_tenants, config);
    let mut at_cycle = 0;
    let arrivals = plan
        .iter()
        .enumerate()
        .map(|(i, &(gap, tenant, n_eles))| {
            at_cycle += gap;
            let arrival = Arrival {
                at_cycle,
                tenant,
                spec: job(buffers[tenant], n_eles),
            };
            (i as u64, arrival)
        })
        .collect();
    let mut per_tenant = BTreeMap::new();
    for ((tenant, i), o) in fleet.run_keyed(arrivals) {
        assert!(
            o.is_completed(),
            "job {i} must complete (capacity covers the whole schedule)"
        );
        *per_tenant.entry(tenant).or_insert(0) += 1;
    }
    per_tenant
}

fn plan_strategy() -> impl Strategy<Value = Vec<(u64, usize, u32)>> {
    proptest::collection::vec(
        (1u64..300, 0usize..4, prop_oneof![Just(64u32), Just(512u32)]),
        1..24,
    )
}

fn batch_strategy() -> impl Strategy<Value = BatchPolicy> {
    prop_oneof![
        (2usize..=16).prop_map(BatchPolicy::Fixed),
        Just(BatchPolicy::Auto),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Batched dispatch conserves the outcome set: with admission room
    /// for the whole schedule and no deadlines, every job completes at
    /// any batch width, and each tenant retires exactly the jobs it
    /// offered — no tenant is starved by another tenant's batches.
    #[test]
    fn batched_dispatch_conserves_outcomes_and_never_starves(
        plan in plan_strategy(),
        batch in batch_strategy(),
    ) {
        let offered: BTreeMap<usize, usize> =
            plan.iter().fold(BTreeMap::new(), |mut m, &(_, t, _)| {
                *m.entry(t).or_insert(0) += 1;
                m
            });
        let one = run_conservation(&plan, 4, BatchPolicy::default());
        let batched = run_conservation(&plan, 4, batch);
        prop_assert_eq!(&batched, &offered, "{:?} lost or invented jobs", batch);
        prop_assert_eq!(&batched, &one, "{:?} drifted from batch 1", batch);
    }
}

/// Runs the deterministic schedule through an auto-batching fleet;
/// returns the outcome string and the rollup.
fn run_auto_fleet(shards: usize) -> (String, BTreeMap<String, u64>) {
    let n_tenants = 6;
    let config = ServerConfig {
        policy: DispatchPolicy::Fifo,
        queue_capacity: 8,
        batch: BatchPolicy::Auto,
        ..ServerConfig::default()
    };
    let (mut fleet, buffers) = vecadd_fleet(shards, n_tenants, config);
    let arrivals = schedule(n_tenants, 24)
        .into_iter()
        .enumerate()
        .map(|(i, (at_cycle, tenant, n_eles, _))| {
            let arrival = Arrival {
                at_cycle,
                tenant,
                spec: job(buffers[tenant], n_eles),
            };
            (i as u64, arrival)
        })
        .collect();
    let outcomes = fleet.run_keyed(arrivals);
    (format!("{outcomes:?}"), fleet.sync_rollup())
}

/// Repeated auto-batch fleet runs match. The execution width is
/// `BSERVER_SHARDS`; running this suite at 1 and at 4 covers the serial
/// and the threaded executor.
#[test]
fn auto_batching_fleet_is_deterministic() {
    for shards in [2usize, 4] {
        assert_eq!(
            run_auto_fleet(shards),
            run_auto_fleet(shards),
            "{shards} shards: repeated auto-batch runs must match"
        );
    }
}
