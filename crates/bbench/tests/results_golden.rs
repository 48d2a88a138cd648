//! The checked-in paper artifacts, regenerated through their binaries.
//!
//! `results/` is the oracle for every kernel datapath and memory
//! primitive: at paper scale the seven deterministic figures and tables
//! and the design ablations must print their file byte for byte, and
//! `fig5` must write the three checked-in waveforms byte for byte, under
//! either scheduler. The `--small` runs pin what the results files do
//! not: the naive scheduler (`BSIM_NAIVE=1`) prints what the default one
//! prints, `all` prints the same at any sweep width (`BBENCH_JOBS`), and
//! `all` prints exactly what the nine single-artifact binaries print.
//! Each binary runs in a fresh directory of its own, since `fig5` writes
//! its VCDs and the profiled binaries their reports into the working
//! directory, and the variables are set on the child process only.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository's `results/` directory.
fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Runs `exe args` with `env` added to its environment, in a fresh
/// directory named after `tag`; returns the directory and the stdout.
fn run(tag: &str, exe: &str, args: &[&str], env: &[(&str, &str)]) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!(
        "bbench-results-golden-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a temporary directory");
    let out = Command::new(exe)
        .args(args)
        .envs(env.iter().copied())
        .current_dir(&dir)
        .output()
        .expect("artifact binary runs");
    assert!(out.status.success(), "{tag} exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    (dir, stdout)
}

/// Like [`run`], then removes the directory.
fn stdout_of(tag: &str, exe: &str, args: &[&str], env: &[(&str, &str)]) -> String {
    let (dir, stdout) = run(tag, exe, args, env);
    let _ = std::fs::remove_dir_all(&dir);
    stdout
}

/// `stdout` without table3's `measured here` row, the one host
/// wall-clock measurement in any artifact.
fn simulated(stdout: &str) -> String {
    stdout
        .split_inclusive('\n')
        .filter(|line| !line.contains("measured here"))
        .collect()
}

/// Panics unless `got == want`, naming the first differing line.
fn assert_same(what: &str, got: &str, want: &str) {
    if let Some((line, (g, w))) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!(
            "{what} differs at line {}:\n  got:  {g}\n  want: {w}",
            line + 1
        );
    }
    assert!(
        got == want,
        "{what} must match byte for byte ({} vs {} bytes)",
        got.len(),
        want.len()
    );
}

/// Runs the artifact binary `exe` with no arguments under `env`, and
/// checks its stdout against `results/<name>.txt` and each file in
/// `written` against its copy in `results/`.
fn reproduces(name: &str, exe: &str, written: &[&str], env: &[(&str, &str)]) {
    let tag = format!(
        "{name}{}",
        env.iter()
            .map(|(k, v)| format!("-{k}={v}"))
            .collect::<String>()
    );
    let (dir, stdout) = run(&tag, exe, &[], env);
    let golden = std::fs::read_to_string(results().join(format!("{name}.txt")))
        .expect("read the checked-in artifact");
    assert_same(
        &format!("{tag} against results/{name}.txt"),
        &stdout,
        &golden,
    );
    for file in written {
        let got =
            std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{tag} wrote no {file}: {e}"));
        let want = std::fs::read(results().join(file)).expect("read the checked-in file");
        assert!(
            got == want,
            "{file} must match results/{file} byte for byte ({tag})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checks that `exe args` prints the same simulated stdout under the
/// naive scheduler as under the default one.
fn schedulers_agree(name: &str, exe: &str, args: &[&str]) {
    let default = stdout_of(
        &format!("{name}-default"),
        exe,
        args,
        &[("BSIM_NAIVE", "0")],
    );
    let naive = stdout_of(&format!("{name}-naive"), exe, args, &[("BSIM_NAIVE", "1")]);
    assert_same(
        &format!("{name} {args:?} under BSIM_NAIVE=1 against =0"),
        &simulated(&naive),
        &simulated(&default),
    );
}

/// The waveforms `fig5` writes into its working directory.
const FIG5_WAVEFORMS: [&str; 3] = ["fig5_beethoven.vcd", "fig5_hls.vcd", "fig5_pure_hdl.vcd"];

#[test]
fn fig4_reproduces_results() {
    reproduces("fig4", env!("CARGO_BIN_EXE_fig4"), &[], &[]);
}

#[test]
fn fig5_and_its_waveforms_reproduce_results() {
    reproduces("fig5", env!("CARGO_BIN_EXE_fig5"), &FIG5_WAVEFORMS, &[]);
}

#[test]
fn fig6_reproduces_results() {
    reproduces("fig6", env!("CARGO_BIN_EXE_fig6"), &[], &[]);
}

#[test]
fn fig7_reproduces_results() {
    reproduces("fig7", env!("CARGO_BIN_EXE_fig7"), &[], &[]);
}

#[test]
fn fig8_reproduces_results() {
    reproduces("fig8", env!("CARGO_BIN_EXE_fig8"), &[], &[]);
}

#[test]
fn table1_reproduces_results() {
    reproduces("table1", env!("CARGO_BIN_EXE_table1"), &[], &[]);
}

#[test]
fn table2_reproduces_results() {
    reproduces("table2", env!("CARGO_BIN_EXE_table2"), &[], &[]);
}

#[test]
fn ablations_binary_reproduces_results() {
    reproduces("ablations", env!("CARGO_BIN_EXE_ablations"), &[], &[]);
}

#[test]
fn fig5_and_its_waveforms_reproduce_results_under_the_naive_scheduler() {
    reproduces(
        "fig5",
        env!("CARGO_BIN_EXE_fig5"),
        &FIG5_WAVEFORMS,
        &[("BSIM_NAIVE", "1")],
    );
}

#[test]
fn fig4_small_is_the_same_under_both_schedulers() {
    schedulers_agree("fig4", env!("CARGO_BIN_EXE_fig4"), &["--small"]);
}

#[test]
fn fig6_small_is_the_same_under_both_schedulers() {
    schedulers_agree("fig6", env!("CARGO_BIN_EXE_fig6"), &["--small"]);
}

#[test]
fn table3_small_is_the_same_under_both_schedulers() {
    schedulers_agree("table3", env!("CARGO_BIN_EXE_table3"), &["--small"]);
}

#[test]
fn all_small_is_width_independent_and_joins_the_nine_binaries() {
    let all = |jobs| {
        stdout_of(
            &format!("all-jobs{jobs}"),
            env!("CARGO_BIN_EXE_all"),
            &["--small"],
            &[("BBENCH_JOBS", jobs)],
        )
    };
    let serial = simulated(&all("1"));
    assert_same(
        "all --small under BBENCH_JOBS=4 against =1",
        &simulated(&all("4")),
        &serial,
    );
    // Section III order, ablations last: the binaries' stdout joined by
    // two newlines, plus one at the end.
    let binaries = [
        ("fig4", env!("CARGO_BIN_EXE_fig4")),
        ("fig5", env!("CARGO_BIN_EXE_fig5")),
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("fig6", env!("CARGO_BIN_EXE_fig6")),
        ("fig7", env!("CARGO_BIN_EXE_fig7")),
        ("fig8", env!("CARGO_BIN_EXE_fig8")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
        ("table3", env!("CARGO_BIN_EXE_table3")),
        ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ];
    let mut joined = binaries
        .iter()
        .map(|(name, exe)| stdout_of(&format!("{name}-small"), exe, &["--small"], &[]))
        .collect::<Vec<_>>()
        .join("\n\n");
    joined.push('\n');
    assert_same(
        "all --small against the nine binaries' --small stdout",
        &serial,
        &simulated(&joined),
    );
}
