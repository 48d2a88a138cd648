//! The sharded accelerator fleet: one [`AccelServer`]+SoC per worker
//! thread, with a deterministic admission layer hashing sessions to
//! shards.
//!
//! A single [`AccelServer`] arbitrates one SoC; since the arena refactor
//! made [`bsim::Simulation`] (and therefore [`bcore::SocSim`] and
//! [`bruntime::FpgaHandle`]) `Send`, a whole server — simulation, device
//! allocator, tenant and in-flight queues — can be built on one thread and
//! run on another. The fleet exploits that: it elaborates `shards`
//! independent replicas of the same system, assigns every tenant session
//! to exactly one replica with a seed-free hash ([`shard_for_session`]),
//! and serves each shard's slice of the arrival schedule on its own
//! worker thread.
//!
//! [`FleetServer::run_keyed`] is the one serving call. Determinism is
//! by construction: each shard is a closed simulation whose only inputs
//! are its tenant set and arrival slice, both fixed by the (shard-count,
//! schedule) pair before any thread starts; each live shard is one
//! [`bsim::host::run_ordered`] job, and outcomes go back under their
//! arrival's key. Host thread scheduling can reorder *execution*, never
//! *outcomes* — the results are byte-identical whether the shards run
//! serially or on every core. The `BSERVER_SHARDS` environment variable
//! caps the execution width; at width 1, or with one shard live, the
//! shards run on the calling thread.

use std::collections::BTreeMap;
use std::path::PathBuf;

use bcore::SocSim;
use bruntime::FpgaHandle;
use bsim::{Histogram, TraceEvent};

use crate::telemetry::{MetricsSnapshot, Telemetry, TelemetryConfig};
use crate::{AccelServer, Arrival, JobOutcome, ServerConfig, ServerError};

/// The fleet's shard count when the embedder does not pin one: the
/// `BSERVER_SHARDS` environment override if set, else the host's
/// available parallelism — resolved through the shared
/// [`bsim::host::worker_count`], exactly like `bbench`'s `BBENCH_JOBS`.
pub fn shard_count() -> usize {
    bsim::host::worker_count("BSERVER_SHARDS")
}

/// Deterministic session→shard admission hash: the SplitMix64 finalizer
/// over the session id, reduced mod `shards`. Seed-free and stable
/// across runs, platforms, and thread counts, so the same tenant always
/// lands on the same shard for a given shard count.
pub fn shard_for_session(session: u64, shards: usize) -> usize {
    assert!(shards > 0, "fleet needs at least one shard");
    let mut z = session.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % shards as u64) as usize
}

/// Fleet configuration: how many replicas, and the per-shard server
/// config every replica shares.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetConfig {
    /// Number of shard replicas. `0` means "resolve through
    /// [`shard_count`]" (`BSERVER_SHARDS`, else host parallelism). The
    /// resolved count is clamped to the tenant count — a shard with no
    /// possible tenant would never receive work.
    pub shards: usize,
    /// Per-shard [`AccelServer`] configuration.
    pub server: ServerConfig,
}

/// One replica: a full SoC behind its own server, plus the global tenant
/// ids assigned to it.
struct Shard {
    handle: FpgaHandle,
    server: AccelServer,
    /// Global tenant ids served here (ascending).
    tenants: Vec<usize>,
    /// Local trace id (this shard's running arrival count) → fleet-wide
    /// trace id, extended by every telemetry-enabled call so
    /// [`FleetServer::merged_trace`] can stitch one id space.
    trace_map: Vec<usize>,
}

/// A fleet of [`AccelServer`] replicas behind one deterministic
/// admission layer.
///
/// Tenants are global (`0..n_tenants`); the fleet maps each to
/// `(shard, local session)` at construction and keeps that mapping for
/// the fleet's lifetime. Per-shard perf counters stay in each shard's
/// own registry; [`FleetServer::sync_rollup`] mirrors them into the
/// primary (shard 0) registry under `server/shard{i}/…` plus an
/// aggregate `server/fleet/…`, so the existing `server/` observability
/// surface covers the whole fleet.
pub struct FleetServer {
    shards: Vec<Shard>,
    /// Global tenant → (shard index, local tenant index on that shard).
    tenant_map: Vec<(usize, usize)>,
    config: FleetConfig,
    /// Arrivals served by earlier calls since telemetry was enabled: the
    /// fleet-wide trace-id offset of the next call.
    traced: usize,
}

impl FleetServer {
    /// Builds a fleet of `config.shards` replicas (see [`FleetConfig`])
    /// for `system`, elaborating one fresh SoC per shard via `mk_soc`
    /// (called with the shard index) and hashing the `n_tenants` global
    /// sessions across them.
    ///
    /// # Errors
    ///
    /// Propagates [`ServerError`] from any shard's [`AccelServer::new`]
    /// (unknown system, or `n_tenants == 0`).
    pub fn new(
        mk_soc: impl Fn(usize) -> SocSim,
        system: &str,
        n_tenants: usize,
        config: FleetConfig,
    ) -> Result<Self, ServerError> {
        if n_tenants == 0 {
            return Err(ServerError::NoTenants);
        }
        let n_shards = if config.shards == 0 {
            shard_count()
        } else {
            config.shards
        }
        .clamp(1, n_tenants);
        // The admission hash fixes every tenant's shard before any
        // replica exists; local session indices follow ascending global
        // id, so a 1-shard fleet's session order is exactly the
        // single-server path's.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        let mut tenant_map = Vec::with_capacity(n_tenants);
        for tenant in 0..n_tenants {
            let shard = shard_for_session(tenant as u64, n_shards);
            tenant_map.push((shard, members[shard].len()));
            members[shard].push(tenant);
        }
        let mut shards = Vec::with_capacity(n_shards);
        for (i, tenants) in members.into_iter().enumerate() {
            let handle = FpgaHandle::new(mk_soc(i));
            // A shard the hash left empty still elaborates (replica
            // count is part of the fleet's shape) but opens a single idle
            // tenant queue so the server constructor's invariant holds.
            let server = AccelServer::new(&handle, system, tenants.len().max(1), config.server)?;
            shards.push(Shard {
                handle,
                server,
                tenants,
                trace_map: Vec::new(),
            });
        }
        Ok(Self {
            shards,
            tenant_map,
            config,
            traced: 0,
        })
    }

    /// Number of shard replicas.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total cores across all shards.
    pub fn n_cores_total(&self) -> u32 {
        self.shards
            .iter()
            .map(|s| u32::from(s.server.n_cores()))
            .sum()
    }

    /// The shard a global tenant's session lives on.
    pub fn shard_of(&self, tenant: usize) -> usize {
        self.tenant_map[tenant].0
    }

    /// The global tenant ids assigned to `shard`, ascending.
    pub fn tenants_of(&self, shard: usize) -> &[usize] {
        &self.shards[shard].tenants
    }

    /// A shard's device handle (e.g. for buffer setup or perf reads).
    pub fn handle(&self, shard: usize) -> &FpgaHandle {
        &self.shards[shard].handle
    }

    /// Serves one wave of open-loop arrivals to completion: the fleet's
    /// only serving call. Arrivals come in as `(seq, arrival)` with
    /// global tenant ids and client-chosen sequence numbers; outcomes
    /// come back keyed by `(tenant, seq)`, so a client's submission order
    /// and its outcome delivery order are decoupled from dispatch order.
    ///
    /// Arrival cycles are interpreted on each shard's own clock relative
    /// to its current cycle: `at_cycle` is an offset from "now", so the
    /// same schedule means the same thing on every shard regardless of
    /// how much setup (allocation, buffer writes) each replica ran.
    /// The shards this wave reaches run as [`bsim::host::run_ordered`]
    /// jobs on up to [`shard_count`] threads; the outcomes are identical
    /// at any width.
    ///
    /// # Panics
    ///
    /// If two arrivals share a `(tenant, seq)` key; the wire protocol
    /// refuses duplicates (`ERR{DuplicateSeq}`) before they get here.
    pub fn run_keyed(
        &mut self,
        arrivals: Vec<(u64, Arrival)>,
    ) -> BTreeMap<(usize, u64), JobOutcome> {
        let n = arrivals.len();
        // Partition by the tenant's shard, remapping to local session
        // indices and remembering each arrival's original slot.
        let mut keys = Vec::with_capacity(n);
        let mut parts: Vec<(Vec<usize>, Vec<Arrival>)> =
            (0..self.shards.len()).map(|_| Default::default()).collect();
        for (idx, (seq, a)) in arrivals.into_iter().enumerate() {
            keys.push((a.tenant, seq));
            let (shard, local) = self.tenant_map[a.tenant];
            let t0 = self.shards[shard].handle.now();
            parts[shard].0.push(idx);
            parts[shard].1.push(Arrival {
                at_cycle: t0 + a.at_cycle,
                tenant: local,
                spec: a.spec,
            });
        }
        let base = self.traced;
        let jobs: Vec<_> = self
            .shards
            .iter_mut()
            .zip(parts)
            .filter(|(_, (_, slice))| !slice.is_empty())
            .map(|(shard, (idxs, slice))| {
                // A shard's telemetry tags spans with its own running
                // arrival count; extend its local→fleet remap so
                // merged_trace() can stitch one trace-id space.
                if shard.server.telemetry_enabled() {
                    shard.trace_map.extend(idxs.iter().map(|&i| base + i));
                }
                move || {
                    let outcomes = shard.server.run_open_loop(slice);
                    idxs.into_iter().zip(outcomes).collect::<Vec<_>>()
                }
            })
            .collect();
        // Completion order is scheduling noise; the arrival indices put
        // every outcome back under its key.
        let served = bsim::host::run_ordered(jobs, shard_count());
        if self.telemetry_enabled() {
            self.traced += n;
        }
        let mut keyed = BTreeMap::new();
        for (idx, outcome) in served.into_iter().flatten() {
            let key = keys[idx];
            assert!(
                keyed.insert(key, outcome).is_none(),
                "duplicate (tenant, seq) key {key:?}"
            );
        }
        keyed
    }

    /// Turns on the telemetry event log on every shard. Each shard's
    /// local tenants are tagged with their *global* ids, and the watchdog
    /// label (if any) gets a `-shard{i}` suffix so dump files never
    /// collide. Telemetry is strictly off-path: enabling it never changes
    /// cycle counts or outcomes on any shard.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.traced = 0;
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.trace_map.clear();
            let mut cfg = config.clone();
            if let Some(w) = cfg.watchdog.as_mut() {
                w.label = format!("{}-shard{i}", w.label);
            }
            // An empty shard still opened one idle session; give its
            // (never-used) local tenant 0 a stable fake global id.
            let labels = if shard.tenants.is_empty() {
                vec![0]
            } else {
                shard.tenants.clone()
            };
            shard.server.enable_telemetry_labeled(cfg, labels);
        }
    }

    /// Whether [`FleetServer::enable_telemetry`] has been called.
    pub fn telemetry_enabled(&self) -> bool {
        self.shards.iter().any(|s| s.server.telemetry_enabled())
    }

    /// The fleet's windowed-telemetry time-series: the cross-shard
    /// aggregate, computed over every shard's event log at once, plus
    /// each shard's own snapshot.
    pub fn metrics_snapshot(&self) -> Option<FleetMetrics> {
        let logs: Vec<&Telemetry> = self
            .shards
            .iter()
            .filter_map(|s| s.server.telemetry_ref())
            .collect();
        let width = logs.first()?.window_cycles();
        Some(FleetMetrics {
            aggregate: MetricsSnapshot::from_log(width, logs.iter().flat_map(|t| &t.log)),
            shards: logs.iter().map(|t| t.snapshot()).collect(),
        })
    }

    /// One merged Perfetto trace for the whole fleet: shard `i` renders
    /// as process `shard{i}`, every span's local trace id is remapped to
    /// its fleet-wide id (arrival `i` of a call is `i` plus the arrivals
    /// of the earlier calls since telemetry was enabled), and flow arrows
    /// chain each request admission → tenant queue → core on the shard
    /// that served it. `None` until telemetry is enabled.
    pub fn merged_trace(&self) -> Option<String> {
        if !self.telemetry_enabled() {
            return None;
        }
        let period_ps = self.shards[0]
            .handle
            .with_soc(|soc| soc.clock().period_ps());
        let processes: Vec<(String, Vec<TraceEvent>)> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, shard)| {
                let mut spans = shard.server.telemetry_ref()?.spans();
                for span in &mut spans {
                    span.trace_id = span
                        .trace_id
                        .map(|id| shard.trace_map.get(id as usize).map_or(id, |&g| g as u64));
                }
                Some((format!("shard{i}"), spans))
            })
            .collect();
        let processes: Vec<(&str, &[TraceEvent])> = processes
            .iter()
            .map(|(name, spans)| (name.as_str(), spans.as_slice()))
            .collect();
        Some(bsim::perf::chrome_trace(&processes, &[], period_ps))
    }

    /// Every flight-recorder dump file any shard's watchdog has written.
    pub fn flight_dumps(&self) -> Vec<PathBuf> {
        self.shards
            .iter()
            .flat_map(|s| s.server.flight_dumps())
            .collect()
    }

    /// The fleet's aggregate `server/latency_cycles` histogram: every
    /// shard's bucket-merged into one (see [`Histogram::merge`]).
    pub fn latency_histogram(&self) -> Histogram {
        let mut merged = Histogram::new();
        for shard in &self.shards {
            if let Some(h) = shard
                .handle
                .with_soc(|soc| soc.perf().histogram("server/latency_cycles"))
            {
                merged.merge(&h);
            }
        }
        merged
    }

    /// Sums a `server/` counter across shards (e.g. `"dispatched"`).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.handle
                    .with_soc(|soc| soc.perf().counter(&format!("server/{name}")))
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Snapshot of every shard's `server/` counters, as
    /// `shard{i}/<name>` → value plus `fleet/<name>` aggregate sums.
    ///
    /// Counters a previous [`FleetServer::sync_rollup`] mirrored into
    /// the primary registry (`server/fleet/…`, `server/shard{i}/…`) are
    /// skipped: re-ingesting them would mint bogus `fleet/fleet/…`
    /// names and double-count every repeat rollup.
    pub fn rollup(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (i, shard) in self.shards.iter().enumerate() {
            for (name, value) in shard.handle.counter_snapshot() {
                let Some(rest) = name.strip_prefix("server/") else {
                    continue;
                };
                if is_mirrored(rest) {
                    continue;
                }
                out.insert(format!("shard{i}/{rest}"), value);
                *out.entry(format!("fleet/{rest}")).or_insert(0) += value;
            }
        }
        out
    }

    /// Mirrors [`FleetServer::rollup`] into the primary (shard 0) perf
    /// registry: per-shard counters under `server/shard{i}/…` and
    /// aggregates under `server/fleet/…`, next to shard 0's own live
    /// `server/` set — so one `counter_snapshot()`/`perf_report()` on
    /// the primary handle observes the whole fleet.
    pub fn sync_rollup(&self) {
        let perf = self.shards[0].handle.with_soc(|soc| soc.perf());
        for (name, value) in self.rollup() {
            let (path, leaf) = match name.rsplit_once('/') {
                Some((prefix, leaf)) => (format!("server/{prefix}"), leaf.to_owned()),
                None => ("server".to_owned(), name),
            };
            perf.set_value(&path, &leaf, value);
        }
    }
}

/// Whether a `server/`-relative counter name is a [`FleetServer::sync_rollup`]
/// mirror (`fleet/…` or `shard{digits}/…`) rather than a shard's own
/// counter.
fn is_mirrored(rest: &str) -> bool {
    if rest.starts_with("fleet/") {
        return true;
    }
    rest.strip_prefix("shard")
        .and_then(|r| r.split_once('/'))
        .is_some_and(|(digits, _)| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
}

/// The fleet's windowed telemetry: the cross-shard aggregate plus one
/// snapshot per shard (same order as the shard indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetMetrics {
    /// Windows over every shard's events together.
    pub aggregate: MetricsSnapshot,
    /// Each shard's own windows, by shard index.
    pub shards: Vec<MetricsSnapshot>,
}

impl std::fmt::Debug for FleetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetServer")
            .field("shards", &self.shards.len())
            .field("tenants", &self.tenant_map.len())
            .field("policy", &self.config.server.policy)
            .finish()
    }
}
