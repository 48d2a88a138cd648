//! The two serving workloads, both over the vecadd fleet that
//! `bnet::build` elaborates.
//!
//! * `serve-inproc` feeds a seeded open-loop schedule straight into
//!   `FleetServer::run_keyed`, a thousand commands per call. Each command
//!   simulates only ~10² cycles, so host time goes to the per-command cost
//!   of `bserver`, `bruntime` and `bcore` MMIO; there is no socket.
//! * `serve-net` drives a child process serving the same kind of rig over
//!   TCP (`bnet::NetServer`) with two `NetClient`s in closed-loop rounds,
//!   so the codec, per-SUBMIT ACK and wave barrier are on the path. The
//!   same rounds are replayed in process, untimed, and must give the same
//!   outcome digest.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdout, Command, Stdio};

use bcore::elaborate::{elaborate_with, ElaborationOptions};
use bnet::{
    canonical_sort, outcome_digest, KeyedOutcome, NetClient, NetConfig, NetServer, Rig, RigConfig,
    SubmitReply, TraceCmd, WireJob, WireOutcome,
};
use bplatform::Platform;
use bserver::{Arrival, DispatchPolicy};

use crate::layers::Hw;
use crate::spans::Spans;
use crate::stats::{median, percentile, ratio, Rng};
use crate::{peak_rss_mb, Pass, Workload};

/// `serve-inproc`: 2 shards × 2 vecadd cores, 8 tenants (4 per shard).
const INPROC_RIG: RigConfig = RigConfig {
    policy: DispatchPolicy::Fifo,
    shards: 2,
    tenants: 8,
    n_cores: 2,
    queue_capacity: 8,
    buffer_eles: 256,
};

/// `serve-net`: the shape `bservd --small --tenants 2` serves.
const NET_RIG: RigConfig = RigConfig {
    policy: DispatchPolicy::Fifo,
    shards: 1,
    tenants: 2,
    n_cores: 2,
    queue_capacity: 6,
    buffer_eles: 4096,
};

/// Vecadd lengths are uniform over this range, in elements.
const MIN_ELES: u64 = 16;
const MAX_ELES: u64 = 256;

/// Fabric cycles one vecadd core spends per command at these lengths,
/// measured on a saturated fleet.
const CORE_CYCLES_PER_CMD: f64 = 172.0;

/// The share of the fleet's capacity the schedules offer.
const LOAD: f64 = 0.7;

/// The flag that turns the benchmark binary into the `serve-net` server.
pub const SERVE_CHILD: &str = "--serve-child";

/// `groups` × `per_group` seeded vecadd commands offering [`LOAD`] to
/// `rig`; `tenant(rng, i)` picks who sends a group's `i`-th command.
/// Arrival cycles restart at 0 in every group, since each group is one
/// `run_keyed` call.
fn schedule(
    seed: u64,
    rig: &RigConfig,
    buffers: &[u64],
    groups: usize,
    per_group: usize,
    tenant: impl Fn(&mut Rng, usize) -> u32,
) -> Vec<Vec<TraceCmd>> {
    let cores = rig.shards as f64 * f64::from(rig.n_cores);
    let mean_gap = (CORE_CYCLES_PER_CMD / cores / LOAD).round() as u64;
    let mut rng = Rng::new(seed);
    (0..groups)
        .map(|g| {
            let mut at_cycle = 0;
            let mut group: Vec<TraceCmd> = (0..per_group)
                .map(|i| {
                    let tenant = tenant(&mut rng, i);
                    let n_eles = rng.range(MIN_ELES, MAX_ELES);
                    let cmd = TraceCmd {
                        tenant,
                        seq: (g * per_group + i) as u64,
                        job: WireJob {
                            at_cycle,
                            cost_hint: n_eles,
                            deadline_cycles: None,
                            args: vec![
                                ("addend".to_owned(), 1),
                                ("n_eles".to_owned(), n_eles),
                                ("vec_addr".to_owned(), buffers[tenant as usize]),
                            ],
                        },
                    };
                    at_cycle += rng.range(1, 2 * mean_gap - 1);
                    cmd
                })
                .collect();
            canonical_sort(&mut group);
            group
        })
        .collect()
}

fn buffers(rig: &Rig) -> Vec<u64> {
    rig.buffers.iter().map(|b| b.device_addr).collect()
}

fn clocks(rig: &Rig) -> Vec<u64> {
    (0..rig.fleet.n_shards())
        .map(|i| rig.fleet.handle(i).with_soc(|soc| soc.now()))
        .collect()
}

fn set_profiling(rig: &Rig) {
    for shard in 0..rig.fleet.n_shards() {
        rig.fleet.handle(shard).set_profiling(true);
    }
}

/// What feeding a rig its groups of commands took.
struct Ran {
    /// Host seconds of each `run_keyed` call.
    calls: Vec<f64>,
    outcomes: Vec<KeyedOutcome>,
    /// Simulated cycles the shards advanced, summed.
    sim_cycles: f64,
    /// The most cycles any one shard advanced.
    makespan: f64,
}

/// Feeds each group to `FleetServer::run_keyed` in turn. Building the
/// commands' `JobSpec`s is part of each timed call.
fn run_groups(rig: &mut Rig, groups: &[Vec<TraceCmd>], spans: &mut Spans) -> Ran {
    let before = clocks(rig);
    let mut calls = Vec::with_capacity(groups.len());
    let mut outcomes = Vec::new();
    for (i, group) in groups.iter().enumerate() {
        let (keyed, dt) = spans.call("bserver.run_keyed", Some(i), || {
            let arrivals = group.iter().map(|cmd| {
                let arrival = Arrival {
                    at_cycle: cmd.job.at_cycle,
                    tenant: cmd.tenant as usize,
                    spec: cmd.job.to_spec(),
                };
                (cmd.seq, arrival)
            });
            rig.fleet.run_keyed(arrivals.collect())
        });
        calls.push(dt);
        outcomes.extend(keyed.iter().map(|(&(tenant, seq), outcome)| {
            (tenant as u32, seq, WireOutcome::from_outcome(outcome))
        }));
    }
    let deltas: Vec<f64> = before
        .iter()
        .zip(clocks(rig))
        .map(|(b, a)| (a - b) as f64)
        .collect();
    Ran {
        calls,
        outcomes,
        sim_cycles: deltas.iter().sum(),
        makespan: deltas.iter().copied().fold(0.0, f64::max),
    }
}

/// What the simulated machine did with one pass's commands.
struct Served {
    offered: u64,
    completed: u64,
    rejected: u64,
    shed: u64,
    latencies: Vec<u64>,
    queue_waits: Vec<u64>,
    digest: u64,
}

/// Checks that every offered `(tenant, seq)` not `shed` at the socket
/// resolved exactly once, so completed + rejected + shed == offered; then
/// summarizes the outcomes.
fn serve_summary(
    offered: &[Vec<TraceCmd>],
    shed: &[(u32, u64)],
    mut outcomes: Vec<KeyedOutcome>,
) -> Result<Served, String> {
    outcomes.sort_by_key(|(tenant, seq, _)| (*tenant, *seq));
    let all: Vec<(u32, u64)> = offered
        .iter()
        .flatten()
        .map(|c| (c.tenant, c.seq))
        .collect();
    let mut keys: Vec<(u32, u64)> = all.iter().copied().filter(|k| !shed.contains(k)).collect();
    keys.sort_unstable();
    let resolved: Vec<(u32, u64)> = outcomes.iter().map(|(t, s, _)| (*t, *s)).collect();
    if resolved != keys || all.len() != keys.len() + shed.len() {
        return Err(format!(
            "{} commands offered and {} shed, but {} outcomes returned or their keys differ",
            all.len(),
            shed.len(),
            resolved.len()
        ));
    }
    let mut served = Served {
        offered: all.len() as u64,
        completed: 0,
        rejected: 0,
        shed: shed.len() as u64,
        latencies: Vec::new(),
        queue_waits: Vec::new(),
        digest: outcome_digest(&outcomes),
    };
    for (_, _, outcome) in &outcomes {
        match *outcome {
            WireOutcome::Completed {
                latency_cycles,
                queue_wait_cycles,
                ..
            } => {
                served.completed += 1;
                served.latencies.push(latency_cycles);
                served.queue_waits.push(queue_wait_cycles);
            }
            WireOutcome::Rejected { .. } => served.rejected += 1,
        }
    }
    Ok(served)
}

/// Per-layer values from a traced rig's counters and its outcomes.
fn rig_layers(rig: &Rig, host_s: f64, served: &Served) -> Vec<(&'static str, f64)> {
    let mut hw = Hw::new(host_s);
    for shard in 0..rig.fleet.n_shards() {
        hw.add_handle(rig.fleet.handle(shard));
    }
    let offered = served.offered as f64;
    let mut layers = hw.metrics();
    layers.extend([
        (
            "bserver.latency_p99_cycles",
            percentile(&served.latencies, 99.0) as f64,
        ),
        (
            "bserver.queue_wait_p99_cycles",
            percentile(&served.queue_waits, 99.0) as f64,
        ),
        (
            "bserver.reject_ratio",
            ratio(served.rejected as f64, offered),
        ),
    ]);
    layers
}

/// Elaborates the rig's vecadd SoC once per shard, as `bnet::build` does,
/// for the `bcore.elaborate_ms` metric.
fn elaborate_ms(rig: &RigConfig, spans: &mut Spans) -> Result<f64, String> {
    let mut seconds = 0.0;
    for _ in 0..rig.shards {
        let (soc, dt) = spans.call("bcore.elaborate_with", None, || {
            elaborate_with(
                bkernels::vecadd::config(rig.n_cores),
                &Platform::kria(),
                ElaborationOptions::default(),
            )
        });
        soc.map_err(|e| format!("vecadd elaboration failed: {e}"))?;
        seconds += dt;
    }
    Ok(seconds * 1e3)
}

pub struct ServeInproc {
    segments: Vec<Vec<TraceCmd>>,
}

impl ServeInproc {
    /// Segments of 1000 open-loop commands from tenants drawn uniformly.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let segments = if smoke { 1 } else { 24 };
        let buffers = buffers(&bnet::build(&INPROC_RIG));
        let tenants = INPROC_RIG.tenants as u64;
        Self {
            segments: schedule(seed, &INPROC_RIG, &buffers, segments, 1000, |rng, _| {
                rng.range(0, tenants - 1) as u32
            }),
        }
    }
}

impl Workload for ServeInproc {
    fn pass(&mut self, spans: &mut Spans) -> Result<Pass, String> {
        let (mut rig, build_s) = spans.call("bnet.build", None, || bnet::build(&INPROC_RIG));
        if spans.enabled() {
            set_profiling(&rig);
        }
        let ran = run_groups(&mut rig, &self.segments, spans);
        let served = serve_summary(&self.segments, &[], ran.outcomes)?;
        let mut layers = Vec::new();
        if spans.enabled() {
            layers = rig_layers(&rig, ran.calls.iter().sum(), &served);
            layers.push(("bcore.elaborate_ms", elaborate_ms(&INPROC_RIG, spans)?));
        }
        Ok(Pass {
            setup: vec![build_s],
            calls: ran.calls,
            sim_cycles: ran.sim_cycles,
            cmds: served.offered,
            failed: served.rejected,
            rss_mb: None,
            goodput_per_mcycle: ratio(served.completed as f64 * 1e6, ran.makespan),
            latency_p50_cycles: percentile(&served.latencies, 50.0),
            fingerprint: vec![served.digest],
            layers,
        })
    }
}

/// The in-process replay of the `serve-net` rounds: the oracle the socket
/// path must match, and each round's cost without the wire.
struct Replay {
    digest: u64,
    sim_cycles: f64,
    makespan: f64,
    round_s: Vec<f64>,
    layers: Vec<(&'static str, f64)>,
}

pub struct ServeNet {
    rounds: Vec<Vec<TraceCmd>>,
    buffers: Vec<u64>,
    replay: Replay,
}

impl ServeNet {
    /// Closed-loop rounds of `tenants × queue_capacity` commands, each
    /// tenant sending exactly its queue capacity per round, so admission
    /// never refuses. The rounds are replayed in process here, with the
    /// counters on when the run is traced.
    pub fn new(seed: u64, smoke: bool, traced: bool, spans: &mut Spans) -> Result<Self, String> {
        let n_rounds = if smoke { 25 } else { 1250 };
        let per_round = NET_RIG.tenants * NET_RIG.queue_capacity;
        let mut rig = bnet::build(&NET_RIG);
        let buffers = buffers(&rig);
        let tenants = NET_RIG.tenants;
        let rounds = schedule(seed, &NET_RIG, &buffers, n_rounds, per_round, |_, i| {
            (i % tenants) as u32
        });

        spans.set_enabled(traced, 0);
        if traced {
            set_profiling(&rig);
        }
        let open = spans.begin("perfbench.replay", None);
        let ran = run_groups(&mut rig, &rounds, spans);
        spans.end(open);
        let served = serve_summary(&rounds, &[], ran.outcomes)?;
        let layers = if traced {
            rig_layers(&rig, ran.calls.iter().sum(), &served)
        } else {
            Vec::new()
        };
        Ok(Self {
            rounds,
            buffers,
            replay: Replay {
                digest: served.digest,
                sim_cycles: ran.sim_cycles,
                makespan: ran.makespan,
                round_s: ran.calls,
                layers,
            },
        })
    }
}

impl Workload for ServeNet {
    fn pass(&mut self, spans: &mut Spans) -> Result<Pass, String> {
        let (server, bind_s) = spans.call("bnet.bind", None, ServerProc::spawn);
        let server = server?;
        let mut setup = vec![bind_s];
        let mut clients = Vec::new();
        for tenant in 0..NET_RIG.tenants as u32 {
            let token = bnet::tenant_token(bnet::DEFAULT_AUTH_SEED, tenant);
            let (client, dt) = spans.call("bnet.connect", None, || {
                NetClient::connect(server.addr.as_str(), tenant, token)
            });
            let client = client.map_err(|e| format!("tenant {tenant}: connect: {e}"))?;
            if client.info().buffer_addr != self.buffers[tenant as usize] {
                return Err(format!(
                    "tenant {tenant}: server buffer differs from the replay rig's"
                ));
            }
            clients.push(client);
            setup.push(dt);
        }

        let mut round_s = Vec::with_capacity(self.rounds.len());
        let mut outcomes = Vec::new();
        let mut shed = Vec::new();
        for (r, round) in self.rounds.iter().enumerate() {
            let open_round = spans.begin("perfbench.round", Some(r));
            for cmd in round {
                let client = &mut clients[cmd.tenant as usize];
                let (reply, _) =
                    spans.call("bnet.submit", Some(r), || client.submit(cmd.seq, &cmd.job));
                match reply.map_err(|e| format!("submit: {e}"))? {
                    SubmitReply::Accepted => {}
                    SubmitReply::Refused { .. } => shed.push((cmd.tenant, cmd.seq)),
                }
            }
            // Every connection polls before any reply is read: the wave
            // barrier releases only once all of them have.
            let open_poll = spans.begin("bnet.poll", Some(r));
            for client in &mut clients {
                client.poll_send().map_err(|e| format!("poll: {e}"))?;
            }
            for client in &mut clients {
                let tenant = client.info().tenant;
                let polled = client.poll_recv().map_err(|e| format!("poll: {e}"))?;
                outcomes.extend(polled.into_iter().map(|(seq, o)| (tenant, seq, o)));
            }
            spans.end(open_poll);
            round_s.push(spans.end(open_round));
        }
        let (counters, _) = spans.call("bnet.stats", None, || clients[0].server_stats());
        let counters = counters.map_err(|e| format!("stats: {e}"))?;
        let (bye, _) = spans.call("bnet.bye", None, || {
            clients.into_iter().try_for_each(NetClient::bye)
        });
        bye.map_err(|e| format!("bye: {e}"))?;
        let rss_mb = server.finish()?;

        let served = serve_summary(&self.rounds, &shed, outcomes)?;
        if served.digest != self.replay.digest {
            return Err(format!(
                "socket digest {:#018x} differs from the in-process replay's {:#018x}",
                served.digest, self.replay.digest
            ));
        }

        let mut layers = Vec::new();
        if spans.enabled() {
            let counter = |name: &str| {
                counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v as f64)
            };
            let offered = served.offered as f64;
            let wire: Vec<f64> = round_s
                .iter()
                .zip(&self.replay.round_s)
                .map(|(socket_s, inproc_s)| 1.0 - inproc_s / socket_s)
                .collect();
            layers.clone_from(&self.replay.layers);
            layers.extend([
                ("bnet.wire_share", median(&wire)),
                (
                    "bnet.bytes_per_cmd",
                    ratio(counter("net/bytes_in") + counter("net/bytes_out"), offered),
                ),
                (
                    "bnet.frames_per_cmd",
                    ratio(
                        counter("net/frames_in") + counter("net/frames_out"),
                        offered,
                    ),
                ),
                ("bnet.shed_ratio", ratio(served.shed as f64, offered)),
                ("bcore.elaborate_ms", elaborate_ms(&NET_RIG, spans)?),
            ]);
        }
        Ok(Pass {
            setup,
            calls: round_s,
            sim_cycles: self.replay.sim_cycles,
            cmds: served.offered,
            failed: served.rejected + served.shed,
            rss_mb: Some(rss_mb),
            goodput_per_mcycle: ratio(served.completed as f64 * 1e6, self.replay.makespan),
            latency_p50_cycles: percentile(&served.latencies, 50.0),
            fingerprint: vec![served.digest],
            layers,
        })
    }
}

/// The `serve-net` server: this same binary started with [`SERVE_CHILD`].
/// Dropping it kills the process and waits for it.
struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProc {
    fn spawn() -> Result<Self, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg(SERVE_CHILD)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the server: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Self {
            child,
            stdout,
            addr: String::new(),
        };
        server.addr = server.line("listening")?;
        Ok(server)
    }

    /// Reads the server's next stdout line, which must be `<key> <value>`.
    fn line(&mut self, key: &str) -> Result<String, String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server: {e}"))?;
        line.trim()
            .strip_prefix(key)
            .map(|v| v.trim().to_owned())
            .ok_or_else(|| format!("server said {line:?}, expected {key}"))
    }

    /// Closes the server's stdin, which stops it; returns its peak RSS.
    fn finish(mut self) -> Result<f64, String> {
        drop(self.child.stdin.take());
        let rss_mb: f64 = self
            .line("peak_rss_mb")?
            .parse()
            .map_err(|e| format!("server peak RSS: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(rss_mb)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `serve-net` server process: serves [`NET_RIG`] on an ephemeral
/// port until its stdin closes, then reports its peak RSS.
pub fn serve_child() -> Result<(), String> {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::new(NET_RIG))
        .map_err(|e| format!("bind: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "listening {}", server.local_addr())
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"))?;
    std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink())
        .map_err(|e| format!("stdin: {e}"))?;
    server.stop();
    let mib = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    writeln!(out, "peak_rss_mb {mib}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"))
}
