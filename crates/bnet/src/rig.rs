//! The serving rig: the vecadd fleet + per-tenant device buffers that
//! both ends of the replay oracle elaborate identically.
//!
//! The network server and the in-process oracle must feed *the same*
//! simulated machine for outcomes to be byte-identical: same SoC
//! elaboration per shard, same tenant→shard admission hash, same buffer
//! allocation order (ascending tenant id, so device addresses match),
//! same clock origins. [`build`] is that one recipe; `bservd`, the
//! replay oracle, and the tests all call it with the same [`RigConfig`]
//! and get interchangeable rigs. `bbench`'s open-loop load generator
//! builds its fleets through the same recipe with its batch setting
//! ([`build_batched`]).

use bcore::elaborate;
use bplatform::Platform;
use bserver::{BatchPolicy, DispatchPolicy, FleetConfig, FleetServer, ServerConfig};

/// The auth seed everything defaults to when `--auth-seed` is not
/// given; `bservd` and `loadgen --net` must agree on it.
pub const DEFAULT_AUTH_SEED: u64 = 0xBEE7_5EED;

/// Deterministic per-tenant auth token: the SplitMix64 finalizer over
/// the auth seed and tenant id. Both sides derive tokens instead of
/// distributing them — the seed is the shared secret.
pub fn tenant_token(auth_seed: u64, tenant: u32) -> u64 {
    let mut z = auth_seed
        ^ u64::from(tenant)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x6A09_E667_F3BC_C909);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shape of the serving rig. Two rigs built from equal configs are
/// byte-for-byte interchangeable: same elaboration, same buffer
/// addresses, same clock origins.
#[derive(Debug, Clone, Copy)]
pub struct RigConfig {
    /// Dispatch policy every shard runs.
    pub policy: DispatchPolicy,
    /// Shard replicas (fixed, not resolved from the environment —
    /// `BSERVER_SHARDS` only caps execution width).
    pub shards: usize,
    /// Global tenant sessions.
    pub tenants: usize,
    /// Vecadd cores per shard.
    pub n_cores: u32,
    /// Per-tenant admission bound ([`ServerConfig::queue_capacity`]).
    pub queue_capacity: usize,
    /// Capacity of each tenant's pre-allocated buffer, in `u32`
    /// elements (the largest vecadd a command may name).
    pub buffer_eles: u32,
}

impl RigConfig {
    /// The scaled-down rig (`--small`): matches `bbench`'s small load
    /// scale so the networked and in-process load generators drive the
    /// same machine.
    pub fn small() -> Self {
        Self {
            policy: DispatchPolicy::Fifo,
            shards: 1,
            tenants: 4,
            n_cores: 2,
            queue_capacity: 6,
            buffer_eles: 4096,
        }
    }

    /// The default rig: matches `bbench`'s default load scale.
    pub fn default_rig() -> Self {
        Self {
            policy: DispatchPolicy::Fifo,
            shards: 1,
            tenants: 8,
            n_cores: 4,
            queue_capacity: 8,
            buffer_eles: 4096,
        }
    }
}

/// One tenant's pre-allocated device buffer.
#[derive(Debug, Clone, Copy)]
pub struct RigBuffer {
    /// Device address (what `HelloAck` advertises and vecadd args
    /// name).
    pub device_addr: u64,
    /// Capacity in `u32` elements.
    pub eles: u32,
}

/// A built serving rig: the fleet plus each tenant's buffer, indexed by
/// global tenant id.
pub struct Rig {
    /// The sharded fleet.
    pub fleet: FleetServer,
    /// Per-tenant buffers, by global tenant id.
    pub buffers: Vec<RigBuffer>,
}

impl std::fmt::Debug for Rig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rig")
            .field("fleet", &self.fleet)
            .field("buffers", &self.buffers.len())
            .finish()
    }
}

/// Elaborates the rig: one fresh vecadd SoC per shard on the `kria`
/// platform, a [`FleetServer`] over them with batch width 1, and one
/// buffer per tenant allocated through its shard's handle in ascending
/// tenant order, initialized to ones.
///
/// # Panics
///
/// On elaboration or allocation failure — rig construction is setup,
/// not input handling; every config this crate ships elaborates.
pub fn build(config: &RigConfig) -> Rig {
    build_batched(config, BatchPolicy::default())
}

/// [`build`] with the shards' admission micro-batching set to `batch`.
///
/// # Panics
///
/// As [`build`].
pub fn build_batched(config: &RigConfig, batch: BatchPolicy) -> Rig {
    let fleet = FleetServer::new(
        |_| {
            elaborate(bkernels::vecadd::config(config.n_cores), &Platform::kria())
                .expect("vecadd elaborates")
        },
        bkernels::vecadd::SYSTEM,
        config.tenants,
        FleetConfig {
            shards: config.shards,
            server: ServerConfig {
                policy: config.policy,
                queue_capacity: config.queue_capacity,
                batch,
                ..ServerConfig::default()
            },
        },
    )
    .expect("fleet opens");
    let buffers = (0..config.tenants)
        .map(|tenant| {
            let handle = fleet.handle(fleet.shard_of(tenant));
            let mem = handle
                .malloc(u64::from(config.buffer_eles) * 4)
                .expect("tenant buffer");
            handle.write_u32_slice(mem, &vec![1u32; config.buffer_eles as usize]);
            RigBuffer {
                device_addr: mem.device_addr(),
                eles: config.buffer_eles,
            }
        })
        .collect();
    Rig { fleet, buffers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_stable_and_tenant_distinct() {
        let a = tenant_token(DEFAULT_AUTH_SEED, 0);
        assert_eq!(a, tenant_token(DEFAULT_AUTH_SEED, 0));
        assert_ne!(a, tenant_token(DEFAULT_AUTH_SEED, 1));
        assert_ne!(a, tenant_token(DEFAULT_AUTH_SEED ^ 1, 0));
    }

    #[test]
    fn equal_configs_build_interchangeable_rigs() {
        let config = RigConfig::small();
        let a = build(&config);
        let b = build(&config);
        assert_eq!(a.fleet.n_shards(), b.fleet.n_shards());
        for (x, y) in a.buffers.iter().zip(&b.buffers) {
            assert_eq!(x.device_addr, y.device_addr);
            assert_eq!(x.eles, y.eles);
        }
    }
}
