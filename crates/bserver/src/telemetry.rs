//! Request-level telemetry for the runtime server: distributed spans,
//! windowed metrics, and a flight recorder with a stall/spike watchdog.
//!
//! Everything here is keyed to *simulation* cycles and sits strictly off
//! the simulated path: telemetry observes cycles the server already paid
//! for and never advances the clock, so enabling it cannot change cycle
//! counts or outcomes (the invariance tests pin this). When disabled
//! ([`AccelServer`](crate::AccelServer) without
//! [`enable_telemetry`](crate::AccelServer::enable_telemetry)) the hot
//! path pays one `Option` check per event.
//!
//! The three surfaces:
//!
//! * **Spans** ([`bsim::SpanRecorder`]): every job's admission → queue →
//!   execute intervals, tagged with a trace id (the job's arrival index)
//!   and exported as Perfetto flow events ([`bsim::perfetto_trace`]) —
//!   one process per fleet shard.
//! * **Windows** ([`bsim::WindowSeries`]): per-N-cycle goodput,
//!   rejections, breaches, queue-depth high-water, and queue-wait/latency
//!   percentiles, snapshot via
//!   [`metrics_snapshot`](crate::AccelServer::metrics_snapshot).
//! * **Flight recorder + watchdog** ([`bsim::FlightRecorder`]): a bounded
//!   ring of recent [`ServerEvent`]s, dumped to a JSON file when the
//!   watchdog sees no forward progress despite queued work, or a
//!   rejection/deadline-breach spike within one window.

use std::path::{Path, PathBuf};

use bsim::{Cycle, FlightRecorder, SpanRecorder, WindowSeries};

/// Telemetry configuration for one server (or one fleet shard).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Width of the tumbling metric windows, in fabric cycles.
    pub window_cycles: Cycle,
    /// Flight-recorder ring capacity (most recent events retained).
    pub flight_capacity: usize,
    /// Optional watchdog; `None` records flight events but never dumps.
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            window_cycles: 4096,
            flight_capacity: 256,
            watchdog: None,
        }
    }
}

/// Watchdog configuration: when to consider the server stuck and where
/// to drop the flight-recorder dump.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Cycles without a dispatch or completion — while work is queued or
    /// in flight — before the stall dump fires.
    pub stall_cycles: Cycle,
    /// Rejections + deadline breaches within one metric window that
    /// trigger a spike dump; `0` disables the spike trigger.
    pub breach_spike: u64,
    /// Directory the dump files are written into (created if missing).
    pub dump_dir: PathBuf,
    /// Label stamped into dumps and file names, e.g. `"shard0"`.
    pub label: String,
}

impl WatchdogConfig {
    /// A watchdog that dumps into `dump_dir` after `stall_cycles` of no
    /// progress, with the spike trigger disabled.
    pub fn new(stall_cycles: Cycle, dump_dir: impl Into<PathBuf>) -> Self {
        Self {
            stall_cycles,
            breach_spike: 0,
            dump_dir: dump_dir.into(),
            label: "server".to_owned(),
        }
    }
}

/// One structured flight-recorder event. `trace_id` is the job's arrival
/// index (the same id the spans carry); `tenant` is the global tenant id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerEvent {
    /// A job passed admission into its tenant queue.
    Enqueue {
        /// Job trace id.
        trace_id: u64,
        /// Global tenant id.
        tenant: usize,
    },
    /// A job bounced off a full tenant queue.
    AdmissionReject {
        /// Job trace id.
        trace_id: u64,
        /// Global tenant id.
        tenant: usize,
    },
    /// A job was dispatched to a core.
    Dispatch {
        /// Job trace id.
        trace_id: u64,
        /// Global tenant id.
        tenant: usize,
        /// Core the job went to.
        core: u16,
    },
    /// A job's response was harvested.
    Complete {
        /// Job trace id.
        trace_id: u64,
        /// Global tenant id.
        tenant: usize,
        /// Core the job ran on.
        core: u16,
        /// Arrival-to-completion latency in cycles.
        latency_cycles: Cycle,
    },
    /// A job missed its deadline and was re-enqueued.
    Retry {
        /// Job trace id.
        trace_id: u64,
        /// Global tenant id.
        tenant: usize,
        /// Retries consumed so far (including this one).
        retries: u32,
    },
    /// A job missed its deadline terminally and was rejected.
    DeadlineBreach {
        /// Job trace id.
        trace_id: u64,
        /// Global tenant id.
        tenant: usize,
        /// Cycles the job waited before breaching.
        queue_wait_cycles: Cycle,
    },
}

impl ServerEvent {
    fn json_fields(&self) -> String {
        match self {
            ServerEvent::Enqueue { trace_id, tenant } => {
                format!("\"kind\":\"enqueue\",\"trace_id\":{trace_id},\"tenant\":{tenant}")
            }
            ServerEvent::AdmissionReject { trace_id, tenant } => {
                format!("\"kind\":\"admission_reject\",\"trace_id\":{trace_id},\"tenant\":{tenant}")
            }
            ServerEvent::Dispatch {
                trace_id,
                tenant,
                core,
            } => format!(
                "\"kind\":\"dispatch\",\"trace_id\":{trace_id},\"tenant\":{tenant},\"core\":{core}"
            ),
            ServerEvent::Complete {
                trace_id,
                tenant,
                core,
                latency_cycles,
            } => format!(
                "\"kind\":\"complete\",\"trace_id\":{trace_id},\"tenant\":{tenant},\
                 \"core\":{core},\"latency_cycles\":{latency_cycles}"
            ),
            ServerEvent::Retry {
                trace_id,
                tenant,
                retries,
            } => format!(
                "\"kind\":\"retry\",\"trace_id\":{trace_id},\"tenant\":{tenant},\
                 \"retries\":{retries}"
            ),
            ServerEvent::DeadlineBreach {
                trace_id,
                tenant,
                queue_wait_cycles,
            } => format!(
                "\"kind\":\"deadline_breach\",\"trace_id\":{trace_id},\"tenant\":{tenant},\
                 \"queue_wait_cycles\":{queue_wait_cycles}"
            ),
        }
    }
}

/// One window's row in a [`MetricsSnapshot`] time-series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRow {
    /// First cycle of the window (aligned to the window width).
    pub start_cycle: Cycle,
    /// Jobs completed in this window.
    pub completed: u64,
    /// Jobs rejected at admission in this window.
    pub rejected: u64,
    /// Jobs terminally past their deadline in this window.
    pub breached: u64,
    /// Deadline retries in this window.
    pub retried: u64,
    /// Queue-depth high-water mark observed in this window.
    pub queue_depth_peak: u64,
    /// Completion-latency percentiles (p50, p90, p99) over this window's
    /// completions; zeros when nothing completed.
    pub latency: (u64, u64, u64),
    /// Queue-wait percentiles (p50, p90, p99) over this window's
    /// dispatches and breaches; zeros when nothing waited.
    pub queue_wait: (u64, u64, u64),
    /// Batch-occupancy percentiles (p50, p90, p99) — commands per
    /// dispatcher lock visit in this window; zeros for the
    /// lock-arbitrated baseline, which never batches.
    pub batch_occupancy: (u64, u64, u64),
    /// Per-tenant completions `(global tenant id, count)`, ascending.
    pub tenant_completed: Vec<(usize, u64)>,
}

/// The windowed-telemetry time-series of one server, shard, or fleet
/// aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Window width in cycles.
    pub window_cycles: Cycle,
    /// Non-empty windows in timeline order.
    pub windows: Vec<WindowRow>,
}

impl MetricsSnapshot {
    /// Builds the row view of a raw window series.
    pub fn from_series(series: &WindowSeries) -> Self {
        let windows = series
            .windows()
            .map(|(start_cycle, cell)| {
                let pct = |name: &str| {
                    cell.histogram(name)
                        .map(|h| {
                            (
                                h.p50().unwrap_or(0),
                                h.p90().unwrap_or(0),
                                h.p99().unwrap_or(0),
                            )
                        })
                        .unwrap_or((0, 0, 0))
                };
                let tenant_completed = cell
                    .counters()
                    .filter_map(|(name, value)| {
                        let id = name.strip_prefix("tenant")?.strip_suffix("/completed")?;
                        id.parse::<usize>().ok().map(|t| (t, value))
                    })
                    .collect();
                WindowRow {
                    start_cycle,
                    completed: cell.counter("completed"),
                    rejected: cell.counter("rejected"),
                    breached: cell.counter("breached"),
                    retried: cell.counter("retried"),
                    queue_depth_peak: cell.max("queue_depth").unwrap_or(0),
                    latency: pct("latency_cycles"),
                    queue_wait: pct("queue_wait_cycles"),
                    batch_occupancy: pct("batch_occupancy"),
                    tenant_completed,
                }
            })
            .collect();
        Self {
            window_cycles: series.width(),
            windows,
        }
    }
}

/// The per-server telemetry state, `Some` only after
/// [`enable_telemetry`](crate::AccelServer::enable_telemetry).
pub(crate) struct Telemetry {
    config: TelemetryConfig,
    /// Local tenant index → global tenant id (identity for a standalone
    /// server; the fleet passes each shard's assignment).
    labels: Vec<usize>,
    pub(crate) spans: SpanRecorder,
    pub(crate) windows: WindowSeries,
    flight: FlightRecorder<ServerEvent>,
    /// Cycle of the last dispatch or completion (watchdog datum).
    last_progress: Cycle,
    /// Rejections + breaches in the current spike-accounting window.
    spike: (u64, u64),
    /// Whether the stall dump already fired (one dump per trigger kind).
    stall_dumped: bool,
    spike_dumped: bool,
    /// Dump files produced so far.
    dumps: Vec<PathBuf>,
}

impl Telemetry {
    pub(crate) fn new(config: TelemetryConfig, labels: Vec<usize>, now: Cycle) -> Self {
        let windows = WindowSeries::new(config.window_cycles.max(1));
        let flight = FlightRecorder::new(config.flight_capacity.max(1));
        Self {
            config,
            labels,
            spans: SpanRecorder::enabled(),
            windows,
            flight,
            last_progress: now,
            spike: (0, 0),
            stall_dumped: false,
            spike_dumped: false,
            dumps: Vec::new(),
        }
    }

    fn global(&self, tenant: usize) -> usize {
        self.labels.get(tenant).copied().unwrap_or(tenant)
    }

    /// A job passed admission at `now` (scheduled at `scheduled`).
    pub(crate) fn on_admit(
        &mut self,
        now: Cycle,
        scheduled: Cycle,
        trace_id: u64,
        tenant: usize,
        depth: u64,
    ) {
        let tenant = self.global(tenant);
        self.spans
            .span(trace_id, "admission", "admit", scheduled, now);
        self.flight
            .push(now, ServerEvent::Enqueue { trace_id, tenant });
        self.windows.incr(now, "enqueued");
        self.windows.sample_max(now, "queue_depth", depth);
    }

    /// A job bounced off a full queue at `now`.
    pub(crate) fn on_admission_reject(
        &mut self,
        now: Cycle,
        scheduled: Cycle,
        trace_id: u64,
        tenant: usize,
    ) {
        let tenant = self.global(tenant);
        self.spans
            .span(trace_id, "admission", "reject", scheduled, now);
        self.flight
            .push(now, ServerEvent::AdmissionReject { trace_id, tenant });
        self.windows.incr(now, "rejected");
        self.note_spike(now);
    }

    /// A job went to `core` at `now` after waiting since `first_arrival`.
    pub(crate) fn on_dispatch(
        &mut self,
        now: Cycle,
        first_arrival: Cycle,
        trace_id: u64,
        tenant: usize,
        core: u16,
    ) {
        let tenant = self.global(tenant);
        self.spans.span(
            trace_id,
            format!("tenant{tenant}"),
            "queue",
            first_arrival,
            now,
        );
        self.flight.push(
            now,
            ServerEvent::Dispatch {
                trace_id,
                tenant,
                core,
            },
        );
        self.windows
            .record(now, "queue_wait_cycles", now.saturating_sub(first_arrival));
        self.last_progress = now;
    }

    /// One batched dispatcher visit submitted `occupancy` commands under
    /// a single lock acquisition at `now`.
    pub(crate) fn on_dispatch_batch(&mut self, now: Cycle, occupancy: u64) {
        self.windows.record(now, "batch_occupancy", occupancy);
    }

    /// A job's response was harvested at `now`.
    pub(crate) fn on_complete(
        &mut self,
        now: Cycle,
        dispatch_cycle: Cycle,
        trace_id: u64,
        tenant: usize,
        core: u16,
        latency_cycles: Cycle,
    ) {
        let tenant = self.global(tenant);
        self.spans.span(
            trace_id,
            format!("core{core}"),
            "execute",
            dispatch_cycle,
            now,
        );
        self.flight.push(
            now,
            ServerEvent::Complete {
                trace_id,
                tenant,
                core,
                latency_cycles,
            },
        );
        self.windows.incr(now, "completed");
        self.windows.incr(now, &format!("tenant{tenant}/completed"));
        self.windows.record(now, "latency_cycles", latency_cycles);
        self.last_progress = now;
    }

    /// A job's deadline expired and it was re-enqueued at `now`.
    pub(crate) fn on_retry(&mut self, now: Cycle, trace_id: u64, tenant: usize, retries: u32) {
        let tenant = self.global(tenant);
        self.spans
            .span(trace_id, format!("tenant{tenant}"), "retry", now, now);
        self.flight.push(
            now,
            ServerEvent::Retry {
                trace_id,
                tenant,
                retries,
            },
        );
        self.windows.incr(now, "retried");
    }

    /// A job's deadline expired terminally at `now`.
    pub(crate) fn on_breach(
        &mut self,
        now: Cycle,
        trace_id: u64,
        tenant: usize,
        queue_wait_cycles: Cycle,
    ) {
        let tenant = self.global(tenant);
        self.spans
            .span(trace_id, format!("tenant{tenant}"), "breach", now, now);
        self.flight.push(
            now,
            ServerEvent::DeadlineBreach {
                trace_id,
                tenant,
                queue_wait_cycles,
            },
        );
        self.windows.incr(now, "breached");
        self.windows
            .record(now, "queue_wait_cycles", queue_wait_cycles);
        self.note_spike(now);
    }

    /// Counts one rejection/breach toward the current window's spike
    /// total.
    fn note_spike(&mut self, now: Cycle) {
        let window = now / self.windows.width();
        if self.spike.0 != window {
            self.spike = (window, 0);
        }
        self.spike.1 += 1;
    }

    /// Whether the spike trigger is due (threshold crossed, not yet
    /// dumped).
    pub(crate) fn spike_due(&self) -> bool {
        match &self.config.watchdog {
            Some(w) => w.breach_spike > 0 && !self.spike_dumped && self.spike.1 >= w.breach_spike,
            None => false,
        }
    }

    /// The absolute cycle at which the stall watchdog wants to inspect
    /// the server, if armed: `last_progress + stall_cycles`, while the
    /// stall dump has not fired yet. The server caps its doorbell sleep
    /// at this deadline; waking early is cycle-neutral because re-arming
    /// the doorbell observes the response at the exact same cycle.
    pub(crate) fn stall_deadline(&self) -> Option<Cycle> {
        match &self.config.watchdog {
            Some(w) if !self.stall_dumped => {
                Some(self.last_progress.saturating_add(w.stall_cycles))
            }
            _ => None,
        }
    }

    /// Whether `now` is at or past the stall deadline.
    pub(crate) fn stalled(&self, now: Cycle) -> bool {
        self.stall_deadline().is_some_and(|d| now >= d)
    }

    /// Writes the flight-recorder dump and remembers the file. `trigger`
    /// is `"stall"` or `"breach_spike"`; `queued`/`inflight` snapshot the
    /// server's backlog at dump time.
    pub(crate) fn dump(&mut self, trigger: &str, now: Cycle, queued: u64, inflight: u64) {
        let Some(w) = self.config.watchdog.clone() else {
            return;
        };
        match trigger {
            "stall" if self.stall_dumped => return,
            "stall" => self.stall_dumped = true,
            _ if self.spike_dumped => return,
            _ => self.spike_dumped = true,
        }
        let mut out = format!(
            "{{\"label\":\"{}\",\"trigger\":\"{trigger}\",\"cycle\":{now},\
             \"window_cycles\":{},\"queued\":{queued},\"inflight\":{inflight},\
             \"last_progress_cycle\":{},\"evicted\":{},\"events\":[",
            w.label,
            self.windows.width(),
            self.last_progress,
            self.flight.evicted(),
        );
        for (i, entry) in self.flight.entries().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"cycle\":{},{}}}",
                entry.seq,
                entry.cycle,
                entry.event.json_fields()
            ));
        }
        out.push_str("]}");
        debug_assert!(
            bsim::perf::validate_json(&out).is_ok(),
            "flight dump must be valid JSON"
        );
        let path = w
            .dump_dir
            .join(format!("{}-{trigger}.flight.json", w.label));
        if let Err(e) = write_dump(&w.dump_dir, &path, &out) {
            eprintln!(
                "bserver: failed to write flight dump {}: {e}",
                path.display()
            );
            return;
        }
        eprintln!(
            "bserver: watchdog '{trigger}' fired at cycle {now}; flight recorder dumped to {}",
            path.display()
        );
        self.dumps.push(path);
    }

    /// Dump files written so far.
    pub(crate) fn dumps(&self) -> &[PathBuf] {
        &self.dumps
    }
}

fn write_dump(dir: &Path, path: &Path, contents: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_rows_carry_counts_and_percentiles() {
        let mut t = Telemetry::new(
            TelemetryConfig {
                window_cycles: 100,
                ..TelemetryConfig::default()
            },
            vec![5, 9],
            0,
        );
        t.on_admit(10, 10, 0, 0, 1);
        t.on_dispatch(20, 10, 0, 0, 0);
        t.on_complete(60, 20, 0, 0, 0, 50);
        t.on_breach(150, 1, 1, 140);
        let snap = MetricsSnapshot::from_series(&t.windows);
        assert_eq!(snap.window_cycles, 100);
        assert_eq!(snap.windows.len(), 2);
        let w0 = &snap.windows[0];
        assert_eq!(w0.start_cycle, 0);
        assert_eq!(w0.completed, 1);
        assert_eq!(w0.breached, 0);
        assert_eq!(w0.queue_depth_peak, 1);
        assert_eq!(w0.latency, (50, 50, 50));
        assert_eq!(w0.queue_wait, (10, 10, 10));
        // Local tenant 0 surfaces under its global id 5.
        assert_eq!(w0.tenant_completed, vec![(5, 1)]);
        let w1 = &snap.windows[1];
        assert_eq!(w1.start_cycle, 100);
        assert_eq!(w1.breached, 1);
        assert_eq!(w1.queue_wait, (140, 140, 140));
    }

    #[test]
    fn stall_deadline_follows_progress_and_disarms_after_dump() {
        let dir = std::env::temp_dir().join("bserver-telemetry-test-stall");
        let mut t = Telemetry::new(
            TelemetryConfig {
                watchdog: Some(WatchdogConfig::new(1_000, &dir)),
                ..TelemetryConfig::default()
            },
            vec![0],
            50,
        );
        assert_eq!(t.stall_deadline(), Some(1_050));
        assert!(!t.stalled(1_049));
        assert!(t.stalled(1_050));
        t.on_dispatch(400, 0, 0, 0, 0);
        assert_eq!(t.stall_deadline(), Some(1_400));
        t.dump("stall", 1_400, 3, 1);
        assert_eq!(t.stall_deadline(), None, "one stall dump per run");
        assert_eq!(t.dumps().len(), 1);
        let contents = std::fs::read_to_string(&t.dumps()[0]).expect("dump readable");
        bsim::perf::validate_json(&contents).expect("dump is valid JSON");
        assert!(contents.contains("\"trigger\":\"stall\""));
        assert!(contents.contains("\"kind\":\"dispatch\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spike_counts_within_one_window_only() {
        let mut t = Telemetry::new(
            TelemetryConfig {
                window_cycles: 100,
                watchdog: Some(WatchdogConfig {
                    breach_spike: 3,
                    ..WatchdogConfig::new(1_000_000, std::env::temp_dir())
                }),
                ..TelemetryConfig::default()
            },
            vec![0],
            0,
        );
        t.on_breach(10, 0, 0, 5);
        t.on_breach(20, 1, 0, 5);
        assert!(!t.spike_due(), "two breaches under the threshold");
        // The window turns over: the count restarts.
        t.on_breach(110, 2, 0, 5);
        assert!(!t.spike_due());
        t.on_breach(120, 3, 0, 5);
        t.on_breach(130, 4, 0, 5);
        assert!(t.spike_due(), "three breaches in window [100, 200)");
    }
}
