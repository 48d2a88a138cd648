//! `perfbench`: end-to-end and per-layer performance of the Beethoven
//! reproduction on four workloads. See `README.md` next to this crate.
//!
//! ```text
//! perfbench --workload NAME --seed N [--seconds S] [--trace 0|1] [--trace-dir DIR]
//! perfbench --smoke [--workload NAME]
//! ```
//!
//! A run repeats identical passes of the workload until `--seconds` are
//! used up, checks that every pass simulated exactly the same thing, and
//! prints one JSON object as its last stdout line. With `--trace 0` it
//! holds the end-to-end metrics. With `--trace 1`
//! untraced and traced passes alternate; the object holds the per-layer
//! metrics, and the spans go to `DIR/<workload>.trace.json`. The exit
//! status is non-zero if any check fails.

mod layers;
mod machsuite;
mod memcpy;
mod serve;
mod spans;
mod speed;
mod stats;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use spans::Spans;
use stats::{median, ratio};

const USAGE: &str = "usage: perfbench --workload NAME --seed N [--seconds S] [--trace 0|1] \
                     [--trace-dir DIR]\n       perfbench --smoke [--workload NAME]";

const WORKLOADS: [&str; 4] = ["machsuite", "memcpy", "serve-inproc", "serve-net"];

/// `(name, unit)` of every end-to-end metric, in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_mcycles_per_s", "Mcycle/s"),
    ("cmds_per_s", "cmd/s"),
    ("goodput_per_mcycle", "cmd/Mcycle"),
    ("latency_p50_cycles", "cycle"),
];

/// Workloads whose host times are scaled by the host's speed (see
/// `speed`). `serve-net`'s rounds mostly wait on the server process and
/// the socket, which the reference loop does not track: scaling widened
/// the spread of its runs from 6% to 9%.
const SCALED: [&str; 3] = ["machsuite", "memcpy", "serve-inproc"];

/// Passes (pairs of passes when traced) a run makes however short
/// `--seconds` is, so every median has several samples.
const MIN_ROUNDS: usize = 3;

/// What one pass of a workload measured.
pub struct Pass {
    /// Host seconds of each set-up call (elaborating SoCs, building the
    /// rig, starting the server and connecting to it), in the same order
    /// every pass.
    pub setup: Vec<f64>,
    /// Host seconds of each measured call, in the same order every pass.
    pub calls: Vec<f64>,
    /// Simulated fabric cycles those calls advanced, summed over SoCs.
    pub sim_cycles: f64,
    /// Commands issued: kernel invocations, copies or serving commands.
    pub cmds: u64,
    /// Commands that did not complete: rejected, shed or errored.
    pub failed: u64,
    /// Peak RSS of a server process the pass ran, in MiB.
    pub rss_mb: Option<f64>,
    /// Commands completed per million simulated cycles.
    pub goodput_per_mcycle: f64,
    /// Median simulated command latency, in cycles.
    pub latency_p50_cycles: u64,
    /// Every simulated result of the pass; passes must agree exactly.
    pub fingerprint: Vec<u64>,
    /// Per-layer values a traced pass measured.
    pub layers: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Runs one pass; it is traced when `spans` is recording.
    fn pass(&mut self, spans: &mut Spans) -> Result<Pass, String>;
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    smoke: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_dir: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                args.workload = Some(value.clone())
            }
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self, workload: Option<&str>) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{{}\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            workload.map_or(String::new(), |w| format!("\"workload\": \"{w}\", ")),
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn make(
    name: &str,
    args: &Args,
    traced: bool,
    spans: &mut Spans,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "machsuite" => Box::new(machsuite::Machsuite::new(args.smoke)),
        "memcpy" => Box::new(memcpy::Memcpy::new(args.smoke)),
        "serve-inproc" => Box::new(serve::ServeInproc::new(args.seed, args.smoke)),
        "serve-net" => Box::new(serve::ServeNet::new(args.seed, args.smoke, traced, spans)?),
        _ => return Err(format!("unknown workload {name}")),
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_owned())
}

/// Runs `name` and gathers its metrics: end-to-end ones from the untraced
/// passes, or per-layer ones when `traced`.
fn run(name: &str, args: &Args, traced: bool) -> Report {
    let mut spans = Spans::new(SCALED.contains(&name));
    let mut failures = Vec::new();
    let mut untraced: Vec<(Pass, f64)> = Vec::new();
    let mut traced_passes: Vec<(Pass, f64)> = Vec::new();
    let start = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| make(name, args, traced, &mut spans))) {
        Ok(Ok(mut workload)) => {
            let mut round_walls = Vec::new();
            'rounds: loop {
                let mut round_wall = 0.0;
                for trace_this in [false, true].into_iter().take(1 + usize::from(traced)) {
                    let index = untraced.len() + traced_passes.len() + 1;
                    spans.set_enabled(trace_this, index);
                    let open = spans.begin(spans::PASS, None);
                    let result = catch_unwind(AssertUnwindSafe(|| workload.pass(&mut spans)));
                    let wall = spans.end(open);
                    round_wall += wall;
                    if let Ok(Ok(pass)) = &result {
                        eprintln!(
                            "perfbench: {name}: pass {index}{}: set-up {:.6} s, measured {:.6} s, {} cmds",
                            if trace_this { " (traced)" } else { "" },
                            pass.setup.iter().sum::<f64>(),
                            pass.calls.iter().sum::<f64>(),
                            pass.cmds
                        );
                    }
                    match result {
                        Ok(Ok(pass)) if trace_this => traced_passes.push((pass, wall)),
                        Ok(Ok(pass)) => untraced.push((pass, wall)),
                        Ok(Err(e)) => failures.push(format!("pass {index}: {e}")),
                        Err(p) => {
                            failures.push(format!("pass {index} panicked: {}", panic_message(&*p)))
                        }
                    }
                    if !failures.is_empty() {
                        break 'rounds;
                    }
                }
                round_walls.push(round_wall);
                let elapsed = start.elapsed().as_secs_f64();
                if args.smoke
                    || round_walls.len() >= MIN_ROUNDS
                        && elapsed + median(&round_walls) > args.seconds
                {
                    break;
                }
            }
        }
        Ok(Err(e)) => failures.push(format!("set-up: {e}")),
        Err(p) => failures.push(format!("set-up panicked: {}", panic_message(&*p))),
    }

    let all: Vec<&Pass> = untraced
        .iter()
        .chain(&traced_passes)
        .map(|(p, _)| p)
        .collect();
    if let Some(first) = all.first() {
        let differ = all
            .iter()
            .filter(|p| {
                p.fingerprint != first.fingerprint
                    || p.goodput_per_mcycle != first.goodput_per_mcycle
                    || p.latency_p50_cycles != first.latency_p50_cycles
            })
            .count();
        if differ > 0 {
            failures.push(format!(
                "{differ} of {} passes simulated differently from the first",
                all.len()
            ));
        }
    } else if failures.is_empty() {
        failures.push("no pass ran".to_owned());
    }

    let layers =
        traced.then(|| layer_metrics(name, args, &spans, &untraced, &traced_passes, &mut failures));
    let metrics = match layers {
        Some(layers) if !args.smoke => layers,
        _ => end_to_end(&untraced),
    };
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            failures.push(format!("metric {name} is {value}"));
        }
    }
    for failure in &failures {
        eprintln!("perfbench: {name}: FAILED: {failure}");
    }
    Report {
        correct: failures.is_empty(),
        attempted: all.iter().map(|p| p.cmds).sum::<u64>().max(1),
        failed: all.iter().map(|p| p.failed).sum(),
        metrics: metrics
            .into_iter()
            .map(|(name, value, unit)| (name, if value.is_finite() { value } else { 0.0 }, unit))
            .collect(),
    }
}

/// The time of a typical pass: each call's median over the passes,
/// summed. A host hiccup slows a few calls of one pass, and the
/// call-by-call median drops it.
fn typical(passes: &[(Pass, f64)], calls: impl Fn(&Pass) -> &[f64]) -> f64 {
    let n = passes
        .iter()
        .map(|(p, _)| calls(p).len())
        .min()
        .unwrap_or(0);
    (0..n)
        .map(|i| median(&passes.iter().map(|(p, _)| calls(p)[i]).collect::<Vec<_>>()))
        .sum()
}

fn end_to_end(passes: &[(Pass, f64)]) -> Vec<(&'static str, f64, &'static str)> {
    let Some((first, _)) = passes.first() else {
        return END_TO_END
            .iter()
            .map(|&(name, unit)| (name, 0.0, unit))
            .collect();
    };
    let host_s = typical(passes, |p| &p.calls);
    let servers: Vec<f64> = passes.iter().filter_map(|(p, _)| p.rss_mb).collect();
    let rss = if servers.is_empty() {
        peak_rss_mb().unwrap_or(0.0)
    } else {
        median(&servers)
    };
    let values = [
        typical(passes, |p| &p.setup),
        rss,
        ratio(first.sim_cycles, host_s) / 1e6,
        ratio(first.cmds as f64, host_s),
        first.goodput_per_mcycle,
        first.latency_p50_cycles as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect()
}

/// Per-layer metrics of a traced run: medians of what the traced passes
/// measured, span attribution, and the tracing overhead. Writes the trace
/// file and prints each layer's self time to stderr.
fn layer_metrics(
    workload: &str,
    args: &Args,
    spans: &Spans,
    untraced: &[(Pass, f64)],
    traced: &[(Pass, f64)],
    failures: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (pass, _) in traced {
        for &(name, value) in &pass.layers {
            samples.entry(name).or_default().push(value);
        }
        samples
            .entry("bsim.ns_per_cycle")
            .or_default()
            .push(ratio(pass.calls.iter().sum::<f64>() * 1e9, pass.sim_cycles));
    }
    let mut values: BTreeMap<&str, f64> =
        samples.iter().map(|(name, v)| (*name, median(v))).collect();

    let (by_layer, by_name) = spans.attribution();
    let pass_s = spans.pass_seconds();
    for &(metric, _) in layers::METRICS {
        let seconds = if let Some(layer) = metric.strip_suffix(".self_share") {
            by_layer.get(layer)
        } else if let Some(span) = metric.strip_suffix(".share") {
            by_name.get(span)
        } else {
            continue;
        };
        values.insert(metric, ratio(seconds.copied().unwrap_or(0.0), pass_s));
    }
    let walls =
        |passes: &[(Pass, f64)]| median(&passes.iter().map(|(_, w)| *w).collect::<Vec<_>>());
    let overhead = ratio(walls(traced), walls(untraced));
    values.insert("perfbench.trace_overhead", overhead);
    values.insert("perfbench.host_slowdown", spans.slowdown());

    eprintln!("perfbench: {workload}: host self time by layer over {pass_s:.3} s of traced passes");
    for (layer, self_s) in &by_layer {
        eprintln!(
            "  {layer:<10} {:>10.1} ms  {:>6.2}%",
            self_s * 1e3,
            100.0 * ratio(*self_s, pass_s)
        );
    }
    eprintln!("  trace_overhead {overhead:.4}");

    let dir = args.trace_dir.clone().unwrap_or_else(|| {
        std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|d| d.join("trace")))
            .unwrap_or_else(|| PathBuf::from("trace"))
    });
    let trace = spans.chrome_trace(&format!("perfbench {workload}"));
    let path = dir.join(format!("{workload}.trace.json"));
    match bsim::perf::validate_json(&trace)
        .and_then(|()| std::fs::create_dir_all(&dir).map_err(|e| e.to_string()))
        .and_then(|()| std::fs::write(&path, trace).map_err(|e| e.to_string()))
    {
        Ok(()) => eprintln!("perfbench: {workload}: trace written to {}", path.display()),
        Err(e) => failures.push(format!("trace {}: {e}", path.display())),
    }

    for name in values.keys() {
        if !layers::METRICS.iter().any(|(m, _)| m == name) {
            failures.push(format!("per-layer metric {name} is not in the list"));
        }
    }
    layers::METRICS
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn main() -> ExitCode {
    // Run the fleet's shards one after another on this thread: on a small
    // shared host a second simulation thread mostly adds noise.
    std::env::set_var("BSERVER_SHARDS", "1");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(serve::SERVE_CHILD) {
        return match serve::serve_child() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) if args.smoke || args.workload.is_some() => args,
        Ok(_) => {
            eprintln!("perfbench: --workload is required\n{USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        let start = Instant::now();
        let names: Vec<&str> = args
            .workload
            .as_deref()
            .map_or(WORKLOADS.to_vec(), |w| vec![w]);
        let mut correct = true;
        for name in names {
            let report = run(name, &args, true);
            println!("{}", report.json(Some(name)));
            correct &= report.correct;
        }
        eprintln!(
            "perfbench: smoke took {:.1} s",
            start.elapsed().as_secs_f64()
        );
        return if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let workload = args.workload.clone().expect("checked above");
    let report = run(&workload, &args, args.trace);
    println!("{}", report.json(None));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
