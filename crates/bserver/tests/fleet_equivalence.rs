//! Fleet ↔ independent-server equivalence.
//!
//! The contract: shard `s` of an N-shard [`FleetServer`] is
//! byte-identical to a 1-shard fleet — a single server — over a freshly
//! elaborated SoC that serves only that shard's tenants and arrivals
//! (same outcomes, same final cycle, same counters). The reference has
//! one live shard, so it always runs on the calling thread, and the
//! contract holds at whatever execution width `BSERVER_SHARDS` sets.

use std::collections::BTreeMap;

use bcore::elaborate;
use bkernels::vecadd;
use bplatform::Platform;
use bruntime::{FpgaHandle, RemotePtr};
use bserver::{
    Arrival, DispatchPolicy, FleetConfig, FleetServer, JobOutcome, JobSpec, ServerConfig,
};

/// The whole serving stack must stay `Send`: the fleet moves its shard
/// servers (simulation, allocator, tenant and in-flight queues) onto
/// worker threads wholesale.
#[allow(dead_code)]
fn _assert_send<T: Send>() {}
#[allow(dead_code)]
fn _serving_stack_is_send() {
    _assert_send::<bsim::Simulation>();
    _assert_send::<bcore::SocSim>();
    _assert_send::<FpgaHandle>();
    _assert_send::<FleetServer>();
}

const N_TENANTS: usize = 6;

/// A deterministic mixed-size schedule over the tenants, with relative
/// arrival cycles (the fleet's convention).
fn schedule() -> Vec<(u64, usize, u32)> {
    (0..18)
        .map(|i| {
            let at = 50 * (i as u64 + 1);
            let tenant = (i * 7 + 3) % N_TENANTS;
            let n_eles = [64u32, 512, 4096][i % 3];
            (at, tenant, n_eles)
        })
        .collect()
}

fn server_config() -> ServerConfig {
    ServerConfig {
        policy: DispatchPolicy::Fifo,
        queue_capacity: 8,
        ..ServerConfig::default()
    }
}

fn soc() -> bcore::SocSim {
    elaborate(vecadd::config(2), &Platform::kria()).expect("vecadd elaborates")
}

/// Allocates and fills a tenant's buffer through its shard's handle.
fn tenant_buffer(handle: &FpgaHandle) -> RemotePtr {
    let mem = handle.malloc(4096 * 4).expect("tenant buffer");
    handle.write_u32_slice(mem, &vec![1u32; 4096]);
    mem
}

fn job(buffer: RemotePtr, n_eles: u32) -> JobSpec {
    JobSpec::new(vecadd::args(1, buffer.device_addr(), n_eles)).with_cost_hint(u64::from(n_eles))
}

/// Runs the schedule through a fleet of `shards` replicas, with sequence
/// number = arrival index; returns the fleet (rolled up) and the
/// outcomes in arrival order.
fn run_fleet(shards: usize) -> (FleetServer, Vec<JobOutcome>) {
    let mut fleet = FleetServer::new(
        |_| soc(),
        vecadd::SYSTEM,
        N_TENANTS,
        FleetConfig {
            shards,
            server: server_config(),
        },
    )
    .expect("fleet opens");
    assert_eq!(fleet.n_shards(), shards);
    let buffers: Vec<RemotePtr> = (0..N_TENANTS)
        .map(|t| tenant_buffer(fleet.handle(fleet.shard_of(t))))
        .collect();
    let arrivals = schedule()
        .into_iter()
        .enumerate()
        .map(|(i, (at_cycle, tenant, n_eles))| {
            let spec = job(buffers[tenant], n_eles);
            let arrival = Arrival {
                at_cycle,
                tenant,
                spec,
            };
            (i as u64, arrival)
        })
        .collect();
    let mut keyed: Vec<_> = fleet.run_keyed(arrivals).into_iter().collect();
    keyed.sort_by_key(|&((_, seq), _)| seq);
    fleet.sync_rollup();
    (
        fleet,
        keyed.into_iter().map(|(_, outcome)| outcome).collect(),
    )
}

/// One shard's reference: a 1-shard fleet over a fresh SoC whose
/// tenant `l` is global tenant `tenants[l]`, with buffers allocated in
/// the same order and arrivals at the same offsets. Returns the
/// reference and `(arrival index, outcome)` pairs.
fn independent_server(tenants: &[usize]) -> (FleetServer, Vec<(usize, JobOutcome)>) {
    let mut fleet = FleetServer::new(
        |_| soc(),
        vecadd::SYSTEM,
        tenants.len().max(1),
        FleetConfig {
            shards: 1,
            server: server_config(),
        },
    )
    .expect("server opens");
    let buffers: Vec<RemotePtr> = tenants
        .iter()
        .map(|_| tenant_buffer(fleet.handle(0)))
        .collect();
    let arrivals = schedule()
        .into_iter()
        .enumerate()
        .filter_map(|(i, (at_cycle, tenant, n_eles))| {
            let local = tenants.iter().position(|&t| t == tenant)?;
            let arrival = Arrival {
                at_cycle,
                tenant: local,
                spec: job(buffers[local], n_eles),
            };
            Some((i as u64, arrival))
        })
        .collect();
    let served = fleet.run_keyed(arrivals);
    let served = served
        .into_iter()
        .map(|((_, i), o)| (i as usize, o))
        .collect();
    (fleet, served)
}

/// Asserts every shard of a `shards`-replica fleet matches its
/// independent server: outcomes, final clock, and the whole rollup.
fn assert_fleet_matches_independent_servers(shards: usize) {
    let (fleet, outcomes) = run_fleet(shards);
    let mut rollup = BTreeMap::new();
    for s in 0..shards {
        let (reference, served) = independent_server(fleet.tenants_of(s));
        let handle = reference.handle(0);
        for (idx, outcome) in served {
            assert_eq!(
                outcomes[idx], outcome,
                "{shards} shards: arrival {idx} on shard {s}"
            );
        }
        assert_eq!(
            fleet.handle(s).now(),
            handle.now(),
            "{shards} shards: shard {s}"
        );
        for (name, value) in handle.counter_snapshot() {
            let Some(name) = name.strip_prefix("server/") else {
                continue;
            };
            rollup.insert(format!("shard{s}/{name}"), value);
            *rollup.entry(format!("fleet/{name}")).or_insert(0) += value;
        }
    }
    assert_eq!(fleet.rollup(), rollup, "{shards} shards: rollup");
}

#[test]
fn one_shard_fleet_matches_single_server_byte_for_byte() {
    assert_fleet_matches_independent_servers(1);
}

#[test]
fn n_shard_fleet_matches_independent_servers() {
    for shards in [2usize, 3, 4] {
        assert_fleet_matches_independent_servers(shards);
    }
}

#[test]
fn admission_hash_is_stable_and_in_range() {
    for shards in 1..=8 {
        for session in 0..64u64 {
            let a = bserver::shard_for_session(session, shards);
            let b = bserver::shard_for_session(session, shards);
            assert_eq!(a, b);
            assert!(a < shards);
        }
    }
    // The hash actually spreads sessions (not all on one shard).
    let hits: std::collections::BTreeSet<usize> = (0..64u64)
        .map(|s| bserver::shard_for_session(s, 4))
        .collect();
    assert!(hits.len() > 1, "64 sessions over 4 shards must spread");
}

#[test]
fn rollup_mirrors_per_shard_counters_into_primary_registry() {
    let rollup = run_fleet(2).0.rollup();
    assert!(rollup.contains_key("fleet/dispatched"), "{rollup:?}");
    assert!(rollup.contains_key("fleet/completed"), "{rollup:?}");
    let per_shard: u64 = (0..2)
        .map(|i| {
            rollup
                .get(&format!("shard{i}/dispatched"))
                .copied()
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(per_shard, rollup["fleet/dispatched"]);
    assert_eq!(rollup["fleet/completed"], 18, "all jobs complete");

    // And sync_rollup (called inside run_fleet) exposed the mirror on
    // the primary handle's registry.
    let n_tenants = 4;
    let mut fleet = FleetServer::new(
        |_| elaborate(vecadd::config(1), &Platform::kria()).expect("elaborates"),
        vecadd::SYSTEM,
        n_tenants,
        FleetConfig {
            shards: 2,
            server: server_config(),
        },
    )
    .expect("fleet opens");
    let shard0 = fleet.handle(fleet.shard_of(0));
    let mem = shard0.malloc(1024).expect("buffer");
    shard0.write_u32_slice(mem, &[1; 64]);
    let arrival = Arrival {
        at_cycle: 0,
        tenant: 0,
        spec: JobSpec::new(vecadd::args(1, mem.device_addr(), 64)),
    };
    let outcomes = fleet.run_keyed(vec![(0, arrival)]);
    assert!(outcomes[&(0, 0)].is_completed());
    fleet.sync_rollup();
    let names: Vec<String> = fleet
        .handle(0)
        .counter_snapshot()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert!(
        names.iter().any(|n| n == "server/fleet/dispatched"),
        "aggregate mirror missing: {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "server/shard1/dispatched"),
        "per-shard mirror missing: {names:?}"
    );
}
