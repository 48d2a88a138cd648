//! The checked-in paper artifacts, regenerated at paper scale through
//! their binaries.
//!
//! `results/` is the oracle for every kernel datapath and memory
//! primitive: the seven deterministic figures and tables and the design
//! ablations must print their file byte for byte, and `fig5` must write
//! the three checked-in waveforms byte for byte. Each binary runs in a
//! fresh directory of its own, since `fig5` writes its VCDs into the
//! working directory.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository's `results/` directory.
fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Runs the artifact binary `exe` with no arguments in a fresh directory,
/// and checks its stdout against `results/<name>.txt` and each file in
/// `written` against its copy in `results/`.
fn reproduces(name: &str, exe: &str, written: &[&str]) {
    let dir = std::env::temp_dir().join(format!(
        "bbench-results-golden-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a temporary directory");
    let out = Command::new(exe)
        .current_dir(&dir)
        .output()
        .expect("artifact binary runs");
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let golden = std::fs::read_to_string(results().join(format!("{name}.txt")))
        .expect("read the checked-in artifact");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if let Some((line, (got, want))) = stdout
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "{name} differs from results/{name}.txt at line {}:\n  got:  {got}\n  want: {want}",
            line + 1
        );
    }
    assert!(
        stdout == golden,
        "{name} must reproduce results/{name}.txt byte for byte ({} vs {} bytes)",
        stdout.len(),
        golden.len()
    );
    for file in written {
        let got =
            std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{name} wrote no {file}: {e}"));
        let want = std::fs::read(results().join(file)).expect("read the checked-in file");
        assert!(
            got == want,
            "{file} must match results/{file} byte for byte"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig4_reproduces_results() {
    reproduces("fig4", env!("CARGO_BIN_EXE_fig4"), &[]);
}

#[test]
fn fig5_and_its_waveforms_reproduce_results() {
    reproduces(
        "fig5",
        env!("CARGO_BIN_EXE_fig5"),
        &["fig5_beethoven.vcd", "fig5_hls.vcd", "fig5_pure_hdl.vcd"],
    );
}

#[test]
fn fig6_reproduces_results() {
    reproduces("fig6", env!("CARGO_BIN_EXE_fig6"), &[]);
}

#[test]
fn fig7_reproduces_results() {
    reproduces("fig7", env!("CARGO_BIN_EXE_fig7"), &[]);
}

#[test]
fn fig8_reproduces_results() {
    reproduces("fig8", env!("CARGO_BIN_EXE_fig8"), &[]);
}

#[test]
fn table1_reproduces_results() {
    reproduces("table1", env!("CARGO_BIN_EXE_table1"), &[]);
}

#[test]
fn table2_reproduces_results() {
    reproduces("table2", env!("CARGO_BIN_EXE_table2"), &[]);
}

#[test]
fn ablations_binary_reproduces_results() {
    reproduces("ablations", env!("CARGO_BIN_EXE_ablations"), &[]);
}
