//! Open-loop load generator for the multi-tenant runtime server: replays
//! a seeded arrival schedule against every dispatch policy and reports
//! goodput and latency percentiles (see `bbench::loadgen`).
//!
//! ```text
//! cargo run -p bbench --release --bin loadgen -- --seed 42 --tenants 8
//! ```
//!
//! Flags: `--seed N` (default 42), `--tenants N`, `--small` (scaled-down
//! run), `--json` (machine-readable summary on stdout instead of the
//! table), `--shards N` (serve through a [`bserver::FleetServer`] of N
//! replicas with hashed session admission, default 1; per-shard stats
//! appear in the JSON summary), `--telemetry` (request tracing +
//! windowed metrics; the JSON summary gains a per-policy `"telemetry"`
//! time-series — the table stays byte-identical), `--window N`
//! (telemetry window width in cycles), `--trace DIR` (write one merged
//! Perfetto trace per policy, implies `--telemetry`), `--flight DIR`
//! (arm the stall watchdog; flight recorder dumps land here only if a
//! shard wedges, implies `--telemetry`), `--batch N|auto` (admission
//! micro-batching for the event-driven policies: dispatch up to N ready
//! commands per lock visit, default 1, or let the adaptive controller
//! pick the width; the lock-arbitrated baseline row ignores it
//! entirely). A numeric or named flag whose value does not parse exits
//! with status 2. stdout is byte-identical at any `BBENCH_JOBS`,
//! `BSERVER_SHARDS` (which only caps the fleet's execution width), and
//! scheduler mode, with or without telemetry; diagnostics go to stderr.
//!
//! Two further modes drive the network front-end (`bnet`) instead of
//! the in-process sweep: `--net ADDR` replays the seeded schedule
//! against a live `bservd` at `ADDR` as a closed-loop wire client (one
//! connection per tenant), and `--oracle` replays the identical rounds
//! through the fleet in-process. Both print the same summary shape —
//! including an FNV-1a outcome digest, whole-run and per-tenant — so
//! CI can diff the two paths byte for byte (`--policy NAME` and
//! `--shards N` pick the oracle's rig; `--auth-seed N` must match the
//! daemon's). See `bbench::netgen`.

use std::path::PathBuf;

use bbench::loadgen::{render, render_json, run_on, LoadScale, RunOpts, TelemetryOpts};
use bbench::parse_flag;
use bserver::DispatchPolicy;

fn net_mode(seed: u64, scale: &LoadScale, json: bool) -> ! {
    let report = if let Some(addr) = parse_flag::<String>("--net") {
        let auth_seed = parse_flag("--auth-seed").unwrap_or(bnet::DEFAULT_AUTH_SEED);
        eprintln!("driving bservd at {addr} with seed {seed}, scale {scale:?}");
        bbench::netgen::run_net(&addr, seed, scale, auth_seed).unwrap_or_else(|e| {
            eprintln!("loadgen: net run against {addr} failed: {e}");
            std::process::exit(1);
        })
    } else {
        let policy = parse_flag("--policy").unwrap_or(DispatchPolicy::Fifo);
        let shards = parse_flag("--shards").map_or(1, |n: usize| n.max(1));
        eprintln!("replaying the oracle in-process: seed {seed}, scale {scale:?}");
        bbench::netgen::run_oracle(seed, scale, policy, shards)
    };
    if json {
        println!("{}", bbench::netgen::render_json(seed, &report));
    } else {
        print!("{}", bbench::netgen::render(seed, &report));
    }
    std::process::exit(0);
}

fn main() {
    let mut scale = if bbench::small_requested() {
        LoadScale::small()
    } else {
        LoadScale::default_scale()
    };
    let seed = parse_flag("--seed").unwrap_or(42);
    if let Some(tenants) = parse_flag::<usize>("--tenants") {
        scale.tenants = tenants.max(1);
    }
    let json = std::env::args().any(|a| a == "--json");
    if std::env::args().any(|a| a == "--net" || a == "--oracle") {
        net_mode(seed, &scale, json);
    }
    let trace_dir = parse_flag::<PathBuf>("--trace");
    let flight_dir = parse_flag::<PathBuf>("--flight");
    let window_cycles = parse_flag("--window").unwrap_or(0);
    let telemetry =
        std::env::args().any(|a| a == "--telemetry") || trace_dir.is_some() || flight_dir.is_some();
    let opts = RunOpts {
        shards: parse_flag("--shards").map_or(1, |n: usize| n.max(1)),
        batch: parse_flag("--batch").unwrap_or_default(),
        telemetry: telemetry.then_some(TelemetryOpts {
            window_cycles,
            trace_dir,
            flight_dir,
        }),
    };
    eprintln!("running load generator at scale {scale:?}, seed {seed}");
    bbench::with_sim_rate(|| {
        let (rows, cycles) = run_on(seed, &scale, &opts, bbench::worker_count());
        if json {
            println!("{}", render_json(seed, &scale, &opts, &rows));
        } else {
            print!("{}", render(seed, &scale, &opts, &rows));
        }
        ((), cycles)
    });
}
