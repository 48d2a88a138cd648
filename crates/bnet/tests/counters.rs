//! The `net/` egress counters in a `STATS` reply: the server counts a
//! frame before writing it, so a reply requested after a client has
//! read a frame — on any connection — already includes it.

use bnet::{
    tenant_token, NetClient, NetConfig, NetServer, RigConfig, SubmitReply, WireJob,
    DEFAULT_AUTH_SEED,
};

fn job(buffer_addr: u64, at_cycle: u64) -> WireJob {
    WireJob {
        at_cycle,
        cost_hint: 64,
        deadline_cycles: None,
        args: bkernels::vecadd::args(1, buffer_addr, 64)
            .into_iter()
            .collect(),
    }
}

fn connect(addr: &str, tenant: u32) -> NetClient {
    NetClient::connect(addr, tenant, tenant_token(DEFAULT_AUTH_SEED, tenant)).expect("connect")
}

#[test]
fn stats_reply_counts_every_frame_both_clients_read() {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::new(RigConfig::small())).expect("bind");
    let addr = server.local_addr().to_string();
    let mut clients = [connect(&addr, 0), connect(&addr, 1)];
    // Frames the two clients have read so far: one `HelloAck` each.
    let mut read = 2u64;
    for wave in 0..250u64 {
        for client in &mut clients {
            let buffer_addr = client.info().buffer_addr;
            for i in 0..3 {
                let reply = client.submit(wave * 3 + i, &job(buffer_addr, i)).unwrap();
                assert_eq!(reply, SubmitReply::Accepted);
                read += 1; // the `Ack`
            }
        }
        for client in &mut clients {
            client.poll_send().expect("poll");
        }
        let [first, second] = &mut clients;
        for client in [&mut *second, &mut *first] {
            let outcomes = client.poll_recv().expect("outcomes");
            assert_eq!(outcomes.len(), 3);
            read += 4; // three `Outcome`s and the `Done`
        }
        // The first client has just read its last frame of the wave; the
        // second asks for the counters straight away.
        let counters = second.server_stats().expect("stats");
        let frames_out = counters
            .iter()
            .find(|(name, _)| name == "net/frames_out")
            .map_or(0, |&(_, value)| value);
        assert!(
            frames_out >= read,
            "wave {wave}: STATS counts {frames_out} frames out, the clients read {read}"
        );
        read += 1; // the `StatsReply`
    }
    for client in clients {
        client.bye().expect("bye");
    }
    server.stop();
}
