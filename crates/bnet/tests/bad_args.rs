//! Typed rejection of bad command arguments: a job whose arguments do
//! not fit the vecadd command spec — a misspelt, missing, or over-wide
//! field — comes back as `Rejected { BadArgs }`, both through
//! `bnet::build` + `run_keyed` and over a live socket. The server stays
//! up, and another tenant's job in the same wave still completes. A
//! SUBMIT that names one argument twice never reaches the fleet: the
//! codec refuses it with `ERR{Malformed}`.

use bnet::{
    build, tenant_token, ErrCode, NetClient, NetConfig, NetServer, RigConfig, SubmitReply, WireJob,
    WireOutcome, WireReject, DEFAULT_AUTH_SEED,
};
use bserver::{Arrival, JobOutcome, RejectReason};

fn job(args: Vec<(&str, u64)>) -> WireJob {
    WireJob {
        at_cycle: 0,
        cost_hint: 64,
        deadline_cycles: None,
        args: args.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
    }
}

fn good_job(addr: u64) -> WireJob {
    job(vec![("addend", 1), ("vec_addr", addr), ("n_eles", 64)])
}

/// One job per way the arguments can miss the spec.
fn bad_jobs(addr: u64) -> Vec<WireJob> {
    vec![
        // `adend` for `addend`: an unknown field (and a missing one).
        job(vec![("adend", 1), ("vec_addr", addr), ("n_eles", 64)]),
        // `n_eles` left out.
        job(vec![("addend", 1), ("vec_addr", addr)]),
        // `n_eles` is a 20-bit field.
        job(vec![("addend", 1), ("vec_addr", addr), ("n_eles", 1 << 20)]),
    ]
}

fn arrival(tenant: usize, job: &WireJob) -> Arrival {
    Arrival {
        at_cycle: job.at_cycle,
        tenant,
        spec: job.to_spec(),
    }
}

#[test]
fn bad_arguments_are_rejected_in_process() {
    let mut rig = build(&RigConfig::small());
    let (a0, a1) = (rig.buffers[0].device_addr, rig.buffers[1].device_addr);
    let mut arrivals: Vec<(u64, Arrival)> = bad_jobs(a0)
        .iter()
        .enumerate()
        .map(|(seq, j)| (seq as u64, arrival(0, j)))
        .collect();
    arrivals.push((0, arrival(1, &good_job(a1))));
    let outcomes = rig.fleet.run_keyed(arrivals);
    for seq in 0..3 {
        assert!(
            matches!(
                outcomes[&(0, seq)],
                JobOutcome::Rejected {
                    reason: RejectReason::BadArgs,
                    ..
                }
            ),
            "bad job {seq}: {:?}",
            outcomes[&(0, seq)]
        );
    }
    assert!(outcomes[&(1, 0)].is_completed(), "the other tenant's job");
    // The fleet keeps serving the offending tenant.
    let again = rig.fleet.run_keyed(vec![(9, arrival(0, &good_job(a0)))]);
    assert!(again[&(0, 9)].is_completed());
}

#[test]
fn bad_arguments_are_rejected_over_the_socket() {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::new(RigConfig::small())).expect("bind");
    let addr = server.local_addr().to_string();
    let connect = |tenant: u32| {
        NetClient::connect(&addr, tenant, tenant_token(DEFAULT_AUTH_SEED, tenant)).expect("connect")
    };
    let mut bad = connect(0);
    let mut honest = connect(1);
    let (bad_addr, honest_addr) = (bad.info().buffer_addr, honest.info().buffer_addr);
    for (seq, j) in bad_jobs(bad_addr).iter().enumerate() {
        assert_eq!(bad.submit(seq as u64, j).unwrap(), SubmitReply::Accepted);
    }
    assert_eq!(
        honest.submit(0, &good_job(honest_addr)).unwrap(),
        SubmitReply::Accepted
    );
    bad.poll_send().expect("poll");
    honest.poll_send().expect("poll");
    let rejected = bad.poll_recv().expect("outcomes");
    assert_eq!(rejected.len(), 3);
    for (seq, outcome) in rejected {
        assert!(
            matches!(
                outcome,
                WireOutcome::Rejected {
                    reason: WireReject::BadArgs,
                    ..
                }
            ),
            "bad job {seq}: {outcome:?}"
        );
    }
    let served = honest.poll_recv().expect("outcomes");
    assert_eq!(served.len(), 1);
    assert!(served[0].1.is_completed(), "the other tenant's job");
    // The server is still up and serves the offending tenant again.
    assert_eq!(
        bad.submit(3, &good_job(bad_addr)).unwrap(),
        SubmitReply::Accepted
    );
    let outcomes = bad.poll().expect("outcomes");
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].1.is_completed());
    bad.bye().expect("bye");
    honest.bye().expect("bye");
    server.stop();
}

#[test]
fn repeated_argument_keys_are_refused_over_the_socket() {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::new(RigConfig::small())).expect("bind");
    let addr = server.local_addr().to_string();
    let connect = |tenant: u32| {
        NetClient::connect(&addr, tenant, tenant_token(DEFAULT_AUTH_SEED, tenant)).expect("connect")
    };
    let mut bad = connect(0);
    let buffer = bad.info().buffer_addr;
    // `n_eles` twice: which copy would run is not the client's to guess.
    let twice = job(vec![
        ("addend", 1),
        ("vec_addr", buffer),
        ("n_eles", 64),
        ("n_eles", 4096),
    ]);
    assert!(
        matches!(
            bad.submit(0, &twice).unwrap(),
            SubmitReply::Refused {
                code: ErrCode::Malformed,
                ..
            }
        ),
        "a repeated key must draw ERR{{Malformed}}"
    );
    // The server dropped that connection and stays up: the tenant
    // reconnects, and its well-formed job runs.
    let mut again = connect(0);
    assert_eq!(
        again.submit(0, &good_job(buffer)).unwrap(),
        SubmitReply::Accepted
    );
    let outcomes = again.poll().expect("outcomes");
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].1.is_completed());
    again.bye().expect("bye");
    server.stop();
}
