//! The deterministic replay oracle: one recorded command trace, two
//! execution paths, byte-identical outcomes.
//!
//! A trace is a sequence of *rounds* — the closed-loop client's
//! submission windows. On the socket path each round becomes exactly
//! one serving wave (the server's wave barrier fires when every
//! connection with outstanding commands is parked in `POLL`); the
//! in-process path replays the same rounds directly. Both paths serve
//! a round through the one `serve_round` — canonical order by
//! `(at_cycle, tenant, seq)`, then [`FleetServer::run_keyed`] — and
//! both start from a freshly built [`Rig`], so shard clocks, buffer
//! addresses, and dispatch decisions coincide cycle-exactly; the
//! outcomes — compared as FNV-1a digests over their canonical wire
//! encoding — must match byte for byte, per tenant.

use std::collections::BTreeMap;

use bserver::{Arrival, FleetServer};

use crate::frame::{WireJob, WireOutcome};
use crate::rig::{build, Rig, RigConfig};

/// One recorded command: who sent it, its per-tenant sequence number,
/// and the wire job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCmd {
    /// Global tenant id.
    pub tenant: u32,
    /// Client-chosen sequence number (unique per tenant).
    pub seq: u64,
    /// The command.
    pub job: WireJob,
}

/// One keyed outcome: `(tenant, seq, outcome)`.
pub type KeyedOutcome = (u32, u64, WireOutcome);

/// Sorts a round into canonical submission order:
/// `(at_cycle, tenant, seq)`. Both execution paths apply this before
/// submitting, so wire arrival order within a round cannot perturb
/// dispatch.
pub fn canonical_sort(round: &mut [TraceCmd]) {
    round.sort_by_key(|c| (c.job.at_cycle, c.tenant, c.seq));
}

/// Serves one round as one serving wave: sorts it canonically, submits
/// it to [`FleetServer::run_keyed`], and returns the outcomes keyed
/// `(tenant, seq)`, sorted by key. The socket server's dispatcher and
/// [`replay_on`] both serve through here.
pub(crate) fn serve_round(fleet: &mut FleetServer, mut round: Vec<TraceCmd>) -> Vec<KeyedOutcome> {
    canonical_sort(&mut round);
    let arrivals = round
        .into_iter()
        .map(|cmd| {
            let arrival = Arrival {
                at_cycle: cmd.job.at_cycle,
                tenant: cmd.tenant as usize,
                spec: cmd.job.to_spec(),
            };
            (cmd.seq, arrival)
        })
        .collect();
    fleet
        .run_keyed(arrivals)
        .into_iter()
        .map(|((tenant, seq), outcome)| (tenant as u32, seq, WireOutcome::from_outcome(&outcome)))
        .collect()
}

/// Replays `rounds` on an already-built rig, one serving wave per
/// round; returns every outcome keyed `(tenant, seq)`, sorted by key.
pub fn replay_on(rig: &mut Rig, rounds: &[Vec<TraceCmd>]) -> Vec<KeyedOutcome> {
    let mut outcomes: Vec<KeyedOutcome> = rounds
        .iter()
        .flat_map(|round| serve_round(&mut rig.fleet, round.clone()))
        .collect();
    outcomes.sort_by_key(|(tenant, seq, _)| (*tenant, *seq));
    outcomes
}

/// [`replay_on`] against a fresh rig built from `config` — the
/// in-process leg of the oracle.
pub fn replay_in_process(config: &RigConfig, rounds: &[Vec<TraceCmd>]) -> Vec<KeyedOutcome> {
    replay_on(&mut build(config), rounds)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn digest_one(hash: &mut u64, tenant: u32, seq: u64, outcome: &WireOutcome) {
    fnv(hash, &tenant.to_le_bytes());
    fnv(hash, &seq.to_le_bytes());
    let mut bytes = Vec::with_capacity(32);
    outcome.encode_into(&mut bytes);
    fnv(hash, &bytes);
}

/// FNV-1a digest over the canonical wire encoding of every outcome, in
/// the order given (callers pass [`replay_on`]'s key-sorted output).
/// Two paths produced byte-identical outcomes iff their digests match.
pub fn outcome_digest(outcomes: &[KeyedOutcome]) -> u64 {
    let mut hash = FNV_OFFSET;
    for (tenant, seq, outcome) in outcomes {
        digest_one(&mut hash, *tenant, *seq, outcome);
    }
    hash
}

/// Per-tenant digests (same encoding as [`outcome_digest`], split by
/// tenant) — the oracle's "byte-identical outcomes *per tenant*".
pub fn tenant_digests(outcomes: &[KeyedOutcome]) -> BTreeMap<u32, u64> {
    let mut digests = BTreeMap::new();
    for (tenant, seq, outcome) in outcomes {
        let hash = digests.entry(*tenant).or_insert(FNV_OFFSET);
        digest_one(hash, *tenant, *seq, outcome);
    }
    digests
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::WireReject;

    fn outcome(value: u64) -> WireOutcome {
        WireOutcome::Completed {
            value,
            latency_cycles: 10,
            queue_wait_cycles: 1,
            core: 0,
            retries: 0,
        }
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let a = vec![(0, 0, outcome(1)), (1, 0, outcome(2))];
        let mut b = a.clone();
        b.swap(0, 1);
        assert_ne!(outcome_digest(&a), outcome_digest(&b));
        let mut c = a.clone();
        c[0].2 = WireOutcome::Rejected {
            reason: WireReject::AdmissionFull,
            retries: 0,
            queue_wait_cycles: 1,
        };
        assert_ne!(outcome_digest(&a), outcome_digest(&c));
        assert_eq!(outcome_digest(&a), outcome_digest(&a.clone()));
    }

    #[test]
    fn tenant_digests_split_the_stream() {
        let all = vec![(0, 0, outcome(1)), (0, 1, outcome(2)), (1, 0, outcome(3))];
        let per_tenant = tenant_digests(&all);
        assert_eq!(per_tenant.len(), 2);
        assert_eq!(per_tenant[&0], outcome_digest(&all[..2]));
        assert_eq!(per_tenant[&1], outcome_digest(&all[2..]));
    }
}
