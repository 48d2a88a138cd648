//! `bservd` — the networked accelerator-fleet daemon.
//!
//! Binds a [`bnet::NetServer`] in front of a freshly elaborated serving
//! rig and prints one line to stdout announcing the bound address (ask
//! for port 0 and parse that line to find the real port — CI does):
//!
//! ```text
//! cargo run -p bbench --release --bin bservd -- --addr 127.0.0.1:0 --small
//! ```
//!
//! Flags: `--addr HOST:PORT` (default `127.0.0.1:0`), `--policy NAME`
//! (default `fifo`), `--shards N` (default 1), `--small` (the small
//! loadgen rig shape), `--tenants N`, `--auth-seed N` (must match the
//! clients' seed; default [`bnet::DEFAULT_AUTH_SEED`]), and
//! `--waves N`: serve until N waves have run and every connection has
//! said `BYE`, then shut down cleanly and print the final perf report
//! (with the `[net]` section) to stderr. Without `--waves` the daemon
//! serves until killed.

use std::io::Write as _;

use bbench::loadgen::LoadScale;
use bbench::netgen::rig_config;
use bbench::parse_flag;
use bnet::{NetConfig, NetServer};
use bserver::DispatchPolicy;

fn main() {
    let mut scale = if bbench::small_requested() {
        LoadScale::small()
    } else {
        LoadScale::default_scale()
    };
    if let Some(tenants) = parse_flag::<usize>("--tenants") {
        scale.tenants = tenants.max(1);
    }
    let addr = parse_flag("--addr").unwrap_or_else(|| "127.0.0.1:0".to_owned());
    let policy = parse_flag("--policy").unwrap_or(DispatchPolicy::Fifo);
    let shards = parse_flag("--shards").map_or(1, |n: usize| n.max(1));
    let auth_seed = parse_flag("--auth-seed").unwrap_or(bnet::DEFAULT_AUTH_SEED);
    let waves: Option<u64> = parse_flag("--waves");

    let mut config = NetConfig::new(rig_config(&scale, policy, shards));
    config.auth_seed = auth_seed;
    eprintln!("bservd: elaborating rig {:?}", config.rig);
    let server = NetServer::bind(&addr, config).unwrap_or_else(|e| {
        eprintln!("bservd: bind {addr}: {e}");
        std::process::exit(1);
    });
    println!(
        "bservd listening on {} policy={} shards={} tenants={}",
        server.local_addr(),
        policy.name(),
        shards,
        scale.tenants
    );
    std::io::stdout().flush().expect("flush stdout");

    match waves {
        Some(waves) => {
            server.wait_drained(waves);
            let report = server.stop();
            eprint!("{report}");
        }
        None => loop {
            std::thread::park();
        },
    }
}
