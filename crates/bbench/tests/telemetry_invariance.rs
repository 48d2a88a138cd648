//! Telemetry invariance for the load generator: turning on request
//! tracing + windowed metrics must not change a single byte of the
//! rendered table or any measured quantity, and the emitted time-series
//! must reconcile exactly with the whole-run aggregates it partitions.

use bbench::loadgen::{render, render_json, run_on, LoadScale, PolicyRow, RunOpts, TelemetryOpts};

fn small_scale() -> LoadScale {
    LoadScale {
        jobs: 12,
        ..LoadScale::small()
    }
}

fn with_telemetry(shards: usize, telemetry: TelemetryOpts) -> RunOpts {
    RunOpts {
        shards,
        telemetry: Some(telemetry),
        ..RunOpts::default()
    }
}

#[test]
fn telemetry_on_renders_identical_table_bytes() {
    let scale = small_scale();
    for shards in [1usize, 2] {
        let off_opts = RunOpts {
            shards,
            ..RunOpts::default()
        };
        let on_opts = with_telemetry(
            shards,
            TelemetryOpts {
                window_cycles: 2048,
                ..TelemetryOpts::default()
            },
        );
        let (off, _) = run_on(42, &scale, &off_opts, 1);
        let (on, _) = run_on(42, &scale, &on_opts, 1);
        assert_eq!(
            render(42, &scale, &off_opts, &off),
            render(42, &scale, &on_opts, &on),
            "telemetry must not change the {shards}-shard table"
        );
        // Every measured field matches, not just the rendered subset.
        for (a, b) in off.iter().zip(&on) {
            assert!(b.telemetry.is_some());
            let b = PolicyRow {
                telemetry: None,
                ..b.clone()
            };
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}

#[test]
fn telemetry_json_validates_and_windows_reconcile_with_totals() {
    let scale = small_scale();
    let opts = with_telemetry(
        2,
        TelemetryOpts {
            window_cycles: 4096,
            ..TelemetryOpts::default()
        },
    );
    let (rows, _) = run_on(42, &scale, &opts, 1);
    let json = render_json(42, &scale, &opts, &rows);
    bsim::perf::validate_json(&json).expect("telemetry summary must be valid JSON");
    assert!(json.contains("\"telemetry\":{\"window_cycles\":4096"));
    assert!(json.contains("\"windows\":["));
    assert!(json.contains("\"shard_windows\":[{\"shard\":0,"));
    assert!(json.contains("\"latency_p99\":"));

    for row in &rows {
        let t = row.telemetry.as_ref().expect("telemetry requested");
        // The aggregate time-series partitions the run totals exactly.
        let agg = &t.metrics.aggregate;
        assert_eq!(
            agg.windows.iter().map(|w| w.completed).sum::<u64>(),
            row.completed as u64,
            "{}: windowed completions must sum to the row total",
            row.policy
        );
        assert_eq!(
            agg.windows
                .iter()
                .map(|w| w.rejected + w.breached)
                .sum::<u64>(),
            row.rejected as u64,
            "{}: windowed rejections must sum to the row total",
            row.policy
        );
        // Per-shard series partition the aggregate the same way.
        assert_eq!(t.metrics.shards.len(), row.shards.len());
        for (snap, s) in t.metrics.shards.iter().zip(&row.shards) {
            assert_eq!(
                snap.windows.iter().map(|w| w.completed).sum::<u64>(),
                s.completed,
                "{}: shard {} windows must sum to its counter",
                row.policy,
                s.shard
            );
        }
        // Per-tenant window counts cover every completion.
        let tenant_total: u64 = agg
            .windows
            .iter()
            .flat_map(|w| w.tenant_completed.iter().map(|&(_, c)| c))
            .sum();
        assert_eq!(tenant_total, row.completed as u64);
    }
}

#[test]
fn merged_trace_file_is_written_and_valid() {
    let scale = small_scale();
    let dir = std::env::temp_dir().join(format!("bbench-trace-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = with_telemetry(
        2,
        TelemetryOpts {
            trace_dir: Some(dir.clone()),
            ..TelemetryOpts::default()
        },
    );
    let (rows, _) = run_on(42, &scale, &opts, 1);
    for row in &rows {
        let path = row
            .telemetry
            .as_ref()
            .and_then(|t| t.trace_path.as_ref())
            .expect("trace requested");
        let contents = std::fs::read_to_string(path).expect("trace readable");
        bsim::perf::validate_json(&contents)
            .unwrap_or_else(|e| panic!("{}: invalid merged trace: {e:?}", row.policy));
        assert!(contents.contains("\"name\":\"shard0\""), "{}", row.policy);
        // Completed requests thread flow arrows across tracks.
        assert!(
            contents.matches("\"ph\":\"s\"").count() >= row.completed.min(1),
            "{}: flow starts missing",
            row.policy
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
