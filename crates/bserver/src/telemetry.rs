//! Request-level telemetry for the runtime server: one cycle-stamped
//! event log per server, and the views computed from it.
//!
//! Everything here is keyed to *simulation* cycles and sits strictly off
//! the simulated path: telemetry observes cycles the server already paid
//! for and never advances the clock, so enabling it cannot change cycle
//! counts or outcomes (the invariance tests pin this). When disabled
//! (a fleet without
//! [`enable_telemetry`](crate::FleetServer::enable_telemetry)) each
//! shard's hot path pays one `Option` check per event.
//!
//! Each observation is appended once, as a `ServerEvent` stamped with
//! its cycle and carrying the job's fleet-wide trace id and global
//! tenant id. Three views are computed from the log when read:
//!
//! * **Spans**: every job's admission → queue → execute intervals as
//!   [`bsim::TraceEvent`]s tagged with the trace id, rendered with flow
//!   arrows by [`bsim::perf::chrome_trace`] — one process per fleet
//!   shard ([`merged_trace`](crate::FleetServer::merged_trace)).
//! * **Windows** ([`MetricsSnapshot`]): per-N-cycle goodput, rejections,
//!   breaches, queue-depth high-water, and queue-wait/latency/batch
//!   percentiles.
//! * **Flight dump**: the last `flight_capacity` flight events, written
//!   as JSON when the watchdog sees no forward progress despite queued
//!   work, or a rejection/deadline-breach spike within one window. The
//!   two triggers are tracked incrementally, since they decide during the
//!   run when to dump.
//!
//! The log grows with the run, O(events).

use std::collections::BTreeMap;
use std::path::PathBuf;

use bsim::perf::json_string;
use bsim::{Cycle, Histogram, TraceEvent};

/// Telemetry configuration for one server (or one fleet shard).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Width of the tumbling metric windows, in fabric cycles.
    pub window_cycles: Cycle,
    /// Job events a flight dump keeps (the most recent).
    pub flight_capacity: usize,
    /// Optional watchdog; `None` logs events but never dumps.
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
/// to drop the flight dump.
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

/// One telemetry event, logged with the cycle it happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ServerEvent {
    /// A step in one job's life.
    Job {
        /// The fleet-wide trace id of the job's arrival.
        trace_id: u64,
        /// Global tenant id.
        tenant: usize,
        /// What happened.
        step: JobStep,
    },
    /// One batched dispatcher visit submitted `occupancy` commands under
    /// a single lock acquisition. Not part of the flight dump.
    DispatchBatch {
        /// Commands in the batch.
        occupancy: u64,
    },
}

/// What happened to a job in a [`ServerEvent::Job`]. Each step carries
/// what the spans, the windows and the flight dump need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobStep {
    /// The job passed admission into its tenant queue.
    Enqueue {
        /// Cycle the job was scheduled to arrive at.
        scheduled: Cycle,
        /// Total queued jobs after this one joined.
        queue_depth: u64,
    },
    /// The job bounced off a full tenant queue.
    AdmissionReject {
        /// Cycle the job was scheduled to arrive at.
        scheduled: Cycle,
    },
    /// The job was dispatched to a core.
    Dispatch {
        /// Core the job went to.
        core: u16,
        /// Cycle the job first arrived (before any retry).
        first_arrival: Cycle,
    },
    /// The job's response was harvested.
    Complete {
        /// Core the job ran on.
        core: u16,
        /// Cycle the job was dispatched.
        dispatched: Cycle,
        /// Arrival-to-completion latency in cycles.
        latency_cycles: Cycle,
    },
    /// The job missed its deadline and was re-enqueued.
    Retry {
        /// Retries consumed so far (including this one).
        retries: u32,
    },
    /// The job missed its deadline terminally and was rejected.
    DeadlineBreach {
        /// Cycles the job waited before breaching.
        queue_wait_cycles: Cycle,
    },
}

impl ServerEvent {
    /// The job event's trace id, tenant and step; `None` for other events.
    fn job(self) -> Option<(u64, usize, JobStep)> {
        match self {
            ServerEvent::Job {
                trace_id,
                tenant,
                step,
            } => Some((trace_id, tenant, step)),
            ServerEvent::DispatchBatch { .. } => None,
        }
    }

    /// The request span this event, logged at `now`, closes.
    fn span(&self, now: Cycle) -> Option<TraceEvent> {
        let (trace_id, tenant, step) = self.job()?;
        let (track, name, start) = match step {
            JobStep::Enqueue { scheduled, .. } => ("admission".to_owned(), "admit", scheduled),
            JobStep::AdmissionReject { scheduled } => ("admission".to_owned(), "reject", scheduled),
            JobStep::Dispatch { first_arrival, .. } => {
                (format!("tenant{tenant}"), "queue", first_arrival)
            }
            JobStep::Complete {
                core, dispatched, ..
            } => (format!("core{core}"), "execute", dispatched),
            JobStep::Retry { .. } => (format!("tenant{tenant}"), "retry", now),
            JobStep::DeadlineBreach { .. } => (format!("tenant{tenant}"), "breach", now),
        };
        Some(TraceEvent {
            start,
            end: now,
            track,
            id: 0,
            name: name.to_owned(),
            trace_id: Some(trace_id),
        })
    }
}

impl JobStep {
    /// The job step's JSON fields in a flight dump.
    fn json_fields(self, trace_id: u64, tenant: usize) -> String {
        let (kind, extra) = match self {
            JobStep::Enqueue { .. } => ("enqueue", String::new()),
            JobStep::AdmissionReject { .. } => ("admission_reject", String::new()),
            JobStep::Dispatch { core, .. } => ("dispatch", format!(",\"core\":{core}")),
            JobStep::Complete {
                core,
                latency_cycles,
                ..
            } => (
                "complete",
                format!(",\"core\":{core},\"latency_cycles\":{latency_cycles}"),
            ),
            JobStep::Retry { retries } => ("retry", format!(",\"retries\":{retries}")),
            JobStep::DeadlineBreach { queue_wait_cycles } => (
                "deadline_breach",
                format!(",\"queue_wait_cycles\":{queue_wait_cycles}"),
            ),
        };
        format!("\"kind\":\"{kind}\",\"trace_id\":{trace_id},\"tenant\":{tenant}{extra}")
    }
}

/// One window's row in a [`MetricsSnapshot`] time-series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// Per-tenant completions `(global tenant id, count)`, ordered by the
    /// tenant id's decimal text (`10` sorts before `2`).
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

/// One window's accumulators while a snapshot is computed.
#[derive(Default)]
struct Window {
    row: WindowRow,
    latency: Histogram,
    queue_wait: Histogram,
    batch_occupancy: Histogram,
    tenants: BTreeMap<usize, u64>,
}

/// (p50, p90, p99) of `h`, zeros when empty.
fn percentiles(h: &Histogram) -> (u64, u64, u64) {
    let p = |q: Option<u64>| q.unwrap_or(0);
    (p(h.p50()), p(h.p90()), p(h.p99()))
}

impl MetricsSnapshot {
    /// Partitions logged events into `window_cycles`-wide tumbling
    /// windows. Only windows that received an event appear. A fleet
    /// passes every shard's log: counts add and histograms pool, so the
    /// result equals one server having logged every event.
    pub(crate) fn from_log<'a>(
        window_cycles: Cycle,
        log: impl IntoIterator<Item = &'a (Cycle, ServerEvent)>,
    ) -> Self {
        let mut cells: BTreeMap<Cycle, Window> = BTreeMap::new();
        for (now, event) in log {
            let w = cells.entry(now / window_cycles).or_default();
            let row = &mut w.row;
            let (tenant, step) = match *event {
                ServerEvent::Job { tenant, step, .. } => (tenant, step),
                ServerEvent::DispatchBatch { occupancy } => {
                    w.batch_occupancy.record(occupancy);
                    continue;
                }
            };
            match step {
                JobStep::Enqueue { queue_depth, .. } => {
                    row.queue_depth_peak = row.queue_depth_peak.max(queue_depth);
                }
                JobStep::AdmissionReject { .. } => row.rejected += 1,
                JobStep::Dispatch { first_arrival, .. } => {
                    w.queue_wait.record(now.saturating_sub(first_arrival));
                }
                JobStep::Complete { latency_cycles, .. } => {
                    row.completed += 1;
                    *w.tenants.entry(tenant).or_insert(0) += 1;
                    w.latency.record(latency_cycles);
                }
                JobStep::Retry { .. } => row.retried += 1,
                JobStep::DeadlineBreach { queue_wait_cycles } => {
                    row.breached += 1;
                    w.queue_wait.record(queue_wait_cycles);
                }
            }
        }
        let windows = cells
            .into_iter()
            .map(|(idx, w)| {
                let mut tenant_completed: Vec<(usize, u64)> = w.tenants.into_iter().collect();
                tenant_completed.sort_by_key(|&(tenant, _)| tenant.to_string());
                WindowRow {
                    start_cycle: idx * window_cycles,
                    latency: percentiles(&w.latency),
                    queue_wait: percentiles(&w.queue_wait),
                    batch_occupancy: percentiles(&w.batch_occupancy),
                    tenant_completed,
                    ..w.row
                }
            })
            .collect();
        Self {
            window_cycles,
            windows,
        }
    }
}

/// One shard's telemetry state, `Some` only after
/// [`enable_telemetry`](crate::FleetServer::enable_telemetry).
pub(crate) struct Telemetry {
    config: TelemetryConfig,
    /// Every observation, in record order.
    pub(crate) log: Vec<(Cycle, ServerEvent)>,
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
    pub(crate) fn new(config: TelemetryConfig, now: Cycle) -> Self {
        Self {
            config,
            log: Vec::new(),
            last_progress: now,
            spike: (0, 0),
            stall_dumped: false,
            spike_dumped: false,
            dumps: Vec::new(),
        }
    }

    /// The metric window width in cycles.
    pub(crate) fn window_cycles(&self) -> Cycle {
        self.config.window_cycles.max(1)
    }

    /// This server's windowed time-series.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_log(self.window_cycles(), &self.log)
    }

    /// Every request span, in record order.
    pub(crate) fn spans(&self) -> Vec<TraceEvent> {
        self.log
            .iter()
            .filter_map(|(now, e)| e.span(*now))
            .collect()
    }

    /// Appends `event`, observed at `now`, to the log: a dispatch or
    /// completion counts as watchdog progress, and a rejection or breach
    /// counts toward the spike window.
    pub(crate) fn record(&mut self, now: Cycle, event: ServerEvent) {
        if let ServerEvent::Job { step, .. } = event {
            match step {
                JobStep::Dispatch { .. } | JobStep::Complete { .. } => self.last_progress = now,
                JobStep::AdmissionReject { .. } | JobStep::DeadlineBreach { .. } => {
                    self.note_spike(now);
                }
                _ => {}
            }
        }
        self.log.push((now, event));
    }

    /// Counts one rejection/breach toward the current window's spike
    /// total.
    fn note_spike(&mut self, now: Cycle) {
        let window = now / self.window_cycles();
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

    /// Writes the flight dump and remembers the file. `trigger`
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
        let flight: Vec<(Cycle, (u64, usize, JobStep))> = self
            .log
            .iter()
            .filter_map(|&(cycle, event)| Some((cycle, event.job()?)))
            .collect();
        let evicted = flight
            .len()
            .saturating_sub(self.config.flight_capacity.max(1));
        let mut out = format!(
            "{{\"label\":{},\"trigger\":{},\"cycle\":{now},\
             \"window_cycles\":{},\"queued\":{queued},\"inflight\":{inflight},\
             \"last_progress_cycle\":{},\"evicted\":{evicted},\"events\":[",
            json_string(&w.label),
            json_string(trigger),
            self.window_cycles(),
            self.last_progress,
        );
        for (seq, &(cycle, (trace_id, tenant, step))) in flight.iter().enumerate().skip(evicted) {
            if seq > evicted {
                out.push(',');
            }
            let fields = step.json_fields(trace_id, tenant);
            out.push_str(&format!("{{\"seq\":{seq},\"cycle\":{cycle},{fields}}}"));
        }
        out.push_str("]}");
        debug_assert!(
            bsim::perf::validate_json(&out).is_ok(),
            "flight dump must be valid JSON"
        );
        let path = w
            .dump_dir
            .join(format!("{}-{trigger}.flight.json", w.label));
        let written =
            std::fs::create_dir_all(&w.dump_dir).and_then(|()| std::fs::write(&path, &out));
        if let Err(e) = written {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn job(trace_id: u64, tenant: usize, step: JobStep) -> ServerEvent {
        ServerEvent::Job {
            trace_id,
            tenant,
            step,
        }
    }

    fn admit(trace_id: u64, scheduled: Cycle) -> ServerEvent {
        let queue_depth = 1;
        job(
            trace_id,
            0,
            JobStep::Enqueue {
                scheduled,
                queue_depth,
            },
        )
    }

    fn dispatch(trace_id: u64, first_arrival: Cycle) -> ServerEvent {
        let core = 0;
        job(
            trace_id,
            0,
            JobStep::Dispatch {
                core,
                first_arrival,
            },
        )
    }

    fn breach(trace_id: u64, tenant: usize, queue_wait_cycles: Cycle) -> ServerEvent {
        let step = JobStep::DeadlineBreach { queue_wait_cycles };
        job(trace_id, tenant, step)
    }

    #[test]
    fn snapshot_rows_carry_counts_and_percentiles() {
        let mut t = Telemetry::new(
            TelemetryConfig {
                window_cycles: 100,
                ..TelemetryConfig::default()
            },
            0,
        );
        t.record(10, admit(0, 10));
        t.record(20, dispatch(0, 10));
        let complete = JobStep::Complete {
            core: 0,
            dispatched: 20,
            latency_cycles: 50,
        };
        t.record(60, job(0, 5, complete));
        t.record(150, breach(1, 1, 140));
        let snap = t.snapshot();
        assert_eq!(snap.window_cycles, 100);
        assert_eq!(snap.windows.len(), 2);
        let w0 = &snap.windows[0];
        assert_eq!(w0.start_cycle, 0);
        assert_eq!(w0.completed, 1);
        assert_eq!(w0.breached, 0);
        assert_eq!(w0.queue_depth_peak, 1);
        assert_eq!(w0.latency, (50, 50, 50));
        assert_eq!(w0.queue_wait, (10, 10, 10));
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
                flight_capacity: 2,
                watchdog: Some(WatchdogConfig {
                    // A label that must be escaped to stay valid JSON.
                    label: "shard\"0\\".to_owned(),
                    ..WatchdogConfig::new(1_000, &dir)
                }),
                ..TelemetryConfig::default()
            },
            50,
        );
        assert_eq!(t.stall_deadline(), Some(1_050));
        assert!(!t.stalled(1_049));
        assert!(t.stalled(1_050));
        t.record(300, admit(0, 300));
        t.record(400, ServerEvent::DispatchBatch { occupancy: 1 });
        t.record(400, dispatch(0, 300));
        assert_eq!(t.stall_deadline(), Some(1_400));
        t.record(500, admit(1, 500));
        t.dump("stall", 1_400, 3, 1);
        assert_eq!(t.stall_deadline(), None, "one stall dump per run");
        assert_eq!(t.dumps().len(), 1);
        let contents = std::fs::read_to_string(&t.dumps()[0]).expect("dump readable");
        bsim::perf::validate_json(&contents).expect("dump is valid JSON");
        assert!(
            contents.starts_with("{\"label\":\"shard\\\"0\\\\\","),
            "{contents}"
        );
        assert!(contents.contains("\"trigger\":\"stall\""));
        // Three flight events were logged (the batch is not one): the
        // oldest is evicted and the last two keep their sequence numbers.
        assert!(contents.contains("\"evicted\":1,"), "{contents}");
        assert!(contents.contains("{\"seq\":1,\"cycle\":400,\"kind\":\"dispatch\""));
        assert!(contents.contains("{\"seq\":2,\"cycle\":500,\"kind\":\"enqueue\""));
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
            0,
        );
        t.record(10, breach(0, 0, 5));
        t.record(20, breach(1, 0, 5));
        assert!(!t.spike_due(), "two breaches under the threshold");
        // The window turns over: the count restarts.
        t.record(110, breach(2, 0, 5));
        assert!(!t.spike_due());
        t.record(120, breach(3, 0, 5));
        t.record(130, breach(4, 0, 5));
        assert!(t.spike_due(), "three breaches in window [100, 200)");
    }
}
