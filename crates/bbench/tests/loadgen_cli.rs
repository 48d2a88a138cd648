//! The load generator's checked-in artifact and its command line.
//!
//! `results/loadgen.txt` is the oracle for the whole serving path: every
//! dispatch policy, admission, batching at its default width, and the
//! fleet at one shard all feed those bytes, so any change to simulated
//! cycles shows up here as a diff.

use std::process::Command;

use bbench::loadgen::{render, run_on, LoadScale, RunOpts};

#[test]
fn default_run_reproduces_results_loadgen_txt() {
    let scale = LoadScale {
        tenants: 8,
        ..LoadScale::default_scale()
    };
    let opts = RunOpts::default();
    let (rows, _) = run_on(42, &scale, &opts, 2);
    assert_eq!(
        render(42, &scale, &opts, &rows),
        include_str!("../../../results/loadgen.txt"),
        "`loadgen --seed 42 --tenants 8` must reproduce results/loadgen.txt byte for byte"
    );
}

#[test]
fn unparsable_numeric_flags_exit_with_status_2() {
    for args in [["--shards", "two"], ["--seed", "abc"], ["--batch", "0"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args(args)
            .arg("--small")
            .output()
            .expect("loadgen runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must print no table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(args[0]),
            "{args:?}: message names the flag: {stderr}"
        );
    }
}
