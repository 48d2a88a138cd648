//! The networked load generator (`loadgen --net ADDR`) and its
//! in-process replay oracle (`loadgen --oracle`).
//!
//! Both modes expand the same seeded [`plan`] into *rounds* — a
//! closed-loop client's submission windows, sized
//! `tenants × queue_capacity` commands — and replay them against the
//! same serving rig shape. The net mode drives a live `bservd` over
//! TCP with one [`NetClient`] per tenant (submit everything, then
//! flush every connection into the server's wave barrier); the oracle
//! mode calls [`bnet::replay_on`] directly. Each report carries an
//! FNV-1a digest of the canonically-encoded outcomes, whole-run and
//! per-tenant: the two modes ran byte-identical serving work iff the
//! digests match, which CI asserts.

use std::collections::BTreeMap;

use bnet::{
    outcome_digest, replay_on, tenant_digests, KeyedOutcome, NetClient, RigConfig, SubmitReply,
    TraceCmd, WireJob,
};
use bserver::DispatchPolicy;
use bsim::perf::json_string;
use bsim::Histogram;

use crate::loadgen::{plan, LoadScale, PlannedJob};

/// The serving-rig shape both modes elaborate for a given load scale —
/// `bservd` must be started with the same scale/policy/shards for the
/// digests to be comparable.
pub fn rig_config(scale: &LoadScale, policy: DispatchPolicy, shards: usize) -> RigConfig {
    RigConfig {
        policy,
        shards,
        tenants: scale.tenants,
        n_cores: scale.n_cores,
        queue_capacity: scale.queue_capacity,
        buffer_eles: 4096,
    }
}

/// Expands a planned schedule into submission rounds of
/// `tenants × queue_capacity` commands. `seq` is the plan index;
/// `at_cycle` is rebased to each round's first arrival so every round
/// replays as one serving wave with the same offsets on both paths.
/// `buffer_addrs\[tenant\]` names the vecadd operand buffer (from
/// `HelloAck` on the socket path, from the local rig on the oracle
/// path — identical by construction).
pub fn rounds_from_plan(
    jobs: &[PlannedJob],
    scale: &LoadScale,
    buffer_addrs: &[u64],
) -> Vec<Vec<TraceCmd>> {
    let round_len = (scale.tenants * scale.queue_capacity).max(1);
    let mut rounds = Vec::new();
    for (chunk_idx, chunk) in jobs.chunks(round_len).enumerate() {
        let base = chunk.first().map_or(0, |j| j.at_cycle);
        let round = chunk
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let args = bkernels::vecadd::args(1, buffer_addrs[job.tenant], job.n_eles);
                TraceCmd {
                    tenant: job.tenant as u32,
                    seq: (chunk_idx * round_len + i) as u64,
                    job: WireJob {
                        at_cycle: job.at_cycle - base,
                        cost_hint: u64::from(job.n_eles),
                        deadline_cycles: None,
                        args: args.into_iter().collect(),
                    },
                }
            })
            .collect();
        rounds.push(round);
    }
    rounds
}

/// One networked (or oracle) run's deterministic summary.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// `"net"` or `"oracle"`.
    pub mode: &'static str,
    /// Dispatch policy the serving rig ran (from `HelloAck` on the
    /// socket path).
    pub policy: String,
    /// Shards in the serving fleet.
    pub shards: u32,
    /// Tenant sessions driven.
    pub tenants: usize,
    /// Submission rounds driven (= serving waves).
    pub rounds: usize,
    /// Commands offered.
    pub offered: usize,
    /// Commands that completed.
    pub completed: usize,
    /// Commands the server's admission/deadline machinery rejected.
    pub rejected: usize,
    /// Commands shed at the network tier (`ERR{Overloaded}` /
    /// `ERR{QuotaExceeded}`); zero in a correctly-sized run.
    pub shed: usize,
    /// Client-observed completion-latency percentiles in cycles:
    /// (p50, p90, p99, max).
    pub latency: (u64, u64, u64, u64),
    /// FNV-1a digest over every canonically-encoded outcome.
    pub digest: u64,
    /// The same digest split per tenant.
    pub tenant_digests: BTreeMap<u32, u64>,
    /// The server's `net/…` counters and fleet rollup (socket mode
    /// only; empty for the oracle).
    pub net_counters: Vec<(String, u64)>,
}

/// Summarises the outcomes of `rounds`; the caller fills in `shed` and
/// `net_counters`, which only the socket path has.
fn report_from_outcomes(
    mode: &'static str,
    policy: String,
    shards: u32,
    scale: &LoadScale,
    rounds: &[Vec<TraceCmd>],
    outcomes: &[KeyedOutcome],
) -> NetReport {
    let mut hist = Histogram::new();
    let mut completed = 0;
    for (_, _, outcome) in outcomes {
        if let Some(latency) = outcome.latency_cycles() {
            completed += 1;
            hist.record(latency);
        }
    }
    NetReport {
        mode,
        policy,
        shards,
        tenants: scale.tenants,
        rounds: rounds.len(),
        offered: rounds.iter().map(Vec::len).sum(),
        completed,
        rejected: outcomes.len() - completed,
        shed: 0,
        latency: (
            hist.p50().unwrap_or(0),
            hist.p90().unwrap_or(0),
            hist.p99().unwrap_or(0),
            hist.max().unwrap_or(0),
        ),
        digest: outcome_digest(outcomes),
        tenant_digests: tenant_digests(outcomes),
        net_counters: Vec::new(),
    }
}

/// Drives a live `bservd` at `addr` with the seeded schedule: one
/// [`NetClient`] per tenant, closed-loop rounds (submit everything,
/// flush every connection, collect), then a `STATS` fetch and a `BYE`
/// per connection.
pub fn run_net(
    addr: &str,
    seed: u64,
    scale: &LoadScale,
    auth_seed: u64,
) -> Result<NetReport, bnet::ClientError> {
    let mut clients: Vec<NetClient> = (0..scale.tenants)
        .map(|tenant| {
            NetClient::connect(
                addr,
                tenant as u32,
                bnet::tenant_token(auth_seed, tenant as u32),
            )
        })
        .collect::<Result<_, _>>()?;
    let policy = clients[0].info().policy.clone();
    let shards = clients[0].info().shards;
    let buffer_addrs: Vec<u64> = clients.iter().map(|c| c.info().buffer_addr).collect();

    let jobs = plan(seed, scale);
    let rounds = rounds_from_plan(&jobs, scale, &buffer_addrs);
    let mut outcomes: Vec<KeyedOutcome> = Vec::with_capacity(jobs.len());
    let mut shed = 0;
    for round in &rounds {
        for cmd in round {
            match clients[cmd.tenant as usize].submit(cmd.seq, &cmd.job)? {
                SubmitReply::Accepted => {}
                SubmitReply::Refused { .. } => shed += 1,
            }
        }
        // Flush every connection before reading any reply: the wave
        // barrier releases only once all submitting connections have
        // polled (see the NetClient docs).
        for client in clients.iter_mut() {
            client.poll_send()?;
        }
        for client in clients.iter_mut() {
            let tenant = client.info().tenant;
            for (seq, outcome) in client.poll_recv()? {
                outcomes.push((tenant, seq, outcome));
            }
        }
    }
    let net_counters = clients[0].server_stats()?;
    for client in clients {
        client.bye()?;
    }
    outcomes.sort_by_key(|(tenant, seq, _)| (*tenant, *seq));
    let mut report = report_from_outcomes("net", policy, shards, scale, &rounds, &outcomes);
    report.shed = shed;
    report.net_counters = net_counters;
    Ok(report)
}

/// The in-process leg of the replay oracle: builds the same rig shape
/// locally and replays the same rounds through the fleet directly.
pub fn run_oracle(
    seed: u64,
    scale: &LoadScale,
    policy: DispatchPolicy,
    shards: usize,
) -> NetReport {
    let config = rig_config(scale, policy, shards);
    let mut rig = bnet::build(&config);
    let buffer_addrs: Vec<u64> = rig.buffers.iter().map(|b| b.device_addr).collect();
    let jobs = plan(seed, scale);
    let rounds = rounds_from_plan(&jobs, scale, &buffer_addrs);
    let outcomes = replay_on(&mut rig, &rounds);
    let shards = rig.fleet.n_shards() as u32;
    report_from_outcomes(
        "oracle",
        policy.name().to_owned(),
        shards,
        scale,
        &rounds,
        &outcomes,
    )
}

/// Renders the deterministic text summary (the stdout artifact).
pub fn render(seed: u64, report: &NetReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "netgen[{}]: seed={} policy={} shards={} tenants={} rounds={}\n",
        report.mode, seed, report.policy, report.shards, report.tenants, report.rounds
    ));
    out.push_str(&format!(
        "  offered {}  completed {}  rejected {}  shed {}\n",
        report.offered, report.completed, report.rejected, report.shed
    ));
    out.push_str(&format!(
        "  latency p50={} p90={} p99={} max={}\n",
        report.latency.0, report.latency.1, report.latency.2, report.latency.3
    ));
    out.push_str(&format!("  digest {:#018x}\n", report.digest));
    for (tenant, digest) in &report.tenant_digests {
        out.push_str(&format!("  tenant {tenant} digest {digest:#018x}\n"));
    }
    out
}

/// Renders the machine-readable JSON summary (hand-written like every
/// other bbench artifact — the vendored serde is a stub; CI parses it
/// with a real JSON parser).
pub fn render_json(seed: u64, report: &NetReport) -> String {
    let mut out = String::new();
    out.push('{');
    out.push_str(&format!("\"mode\":\"{}\",", report.mode));
    out.push_str(&format!("\"seed\":{seed},"));
    out.push_str(&format!("\"policy\":{},", json_string(&report.policy)));
    out.push_str(&format!("\"shards\":{},", report.shards));
    out.push_str(&format!("\"tenants\":{},", report.tenants));
    out.push_str(&format!("\"rounds\":{},", report.rounds));
    out.push_str(&format!("\"offered\":{},", report.offered));
    out.push_str(&format!("\"completed\":{},", report.completed));
    out.push_str(&format!("\"rejected\":{},", report.rejected));
    out.push_str(&format!("\"shed\":{},", report.shed));
    out.push_str(&format!(
        "\"latency\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},",
        report.latency.0, report.latency.1, report.latency.2, report.latency.3
    ));
    out.push_str(&format!("\"digest\":\"{:#018x}\",", report.digest));
    out.push_str("\"tenant_digests\":{");
    let mut first = true;
    for (tenant, digest) in &report.tenant_digests {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{tenant}\":\"{digest:#018x}\""));
    }
    out.push('}');
    if !report.net_counters.is_empty() {
        out.push_str(",\"net\":{");
        let mut first = true;
        for (name, value) in &report.net_counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{value}", json_string(name)));
        }
        out.push('}');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_cover_the_plan_in_order() {
        let scale = LoadScale::small();
        let jobs = plan(42, &scale);
        let addrs = vec![0x1000; scale.tenants];
        let rounds = rounds_from_plan(&jobs, &scale, &addrs);
        let flat: Vec<&TraceCmd> = rounds.iter().flatten().collect();
        assert_eq!(flat.len(), jobs.len());
        for (i, cmd) in flat.iter().enumerate() {
            assert_eq!(cmd.seq, i as u64);
            assert_eq!(cmd.tenant as usize, jobs[i].tenant);
        }
        // Every round's offsets are rebased to its first arrival.
        for round in &rounds {
            assert_eq!(round.first().map(|c| c.job.at_cycle), Some(0));
        }
    }

    #[test]
    fn json_summary_parses() {
        let scale = LoadScale::small();
        let report = run_oracle(42, &scale, DispatchPolicy::Fifo, 1);
        bsim::perf::validate_json(&render_json(42, &report)).expect("netgen JSON parses");
        assert_eq!(report.offered, scale.jobs);
        assert!(report.completed > 0);
    }

    #[test]
    fn json_summary_escapes_server_supplied_names() {
        let scale = LoadScale::small();
        let mut report = run_oracle(42, &scale, DispatchPolicy::Fifo, 1);
        report.policy = "fi\"fo\\\n".to_owned();
        report.net_counters = vec![("net/\"odd\"\\name\n".to_owned(), 3)];
        let json = render_json(42, &report);
        bsim::perf::validate_json(&json).expect("escaped names keep the JSON valid");
        assert!(json.contains(r#""policy":"fi\"fo\\\n""#), "{json}");
        assert!(json.contains(r#""net/\"odd\"\\name\n":3"#), "{json}");
    }
}
