//! Event tracing — the reproduction's stand-in for waveform dumps.
//!
//! Every traced observation is one [`TraceEvent`]: a cycle interval on a
//! named track, optionally tagged with the trace id of the request it
//! belongs to. The memory system records AXI events as instants into a
//! [`Tracer`]; the runtime server derives request spans from its event
//! log. Both render through the same functions: [`to_vcd`] and
//! [`render_timeline`] here (the paper's Figure 5 timelines) and
//! [`chrome_trace`](crate::perf::chrome_trace) for Perfetto.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::time::Cycle;

/// One cycle-stamped event record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// First cycle of the event.
    pub start: Cycle,
    /// Last cycle of the event (`>= start`; instants use `end == start`).
    pub end: Cycle,
    /// Track the event renders on, e.g. `"AR"`, `"mem1/R"`, `"tenant3"`.
    pub track: String,
    /// Identifier within the track (e.g. the AXI ID).
    pub id: u32,
    /// Label, e.g. `"addr=0x40 beats=16"` or `"execute"`.
    pub name: String,
    /// The request the event belongs to, if any. Events sharing one are
    /// chained by flow arrows in the Chrome trace.
    pub trace_id: Option<u64>,
}

impl TraceEvent {
    /// An instant at `cycle` with no trace id.
    pub fn instant(cycle: Cycle, track: &str, id: u32, name: impl Into<String>) -> Self {
        Self {
            start: cycle,
            end: cycle,
            track: track.to_owned(),
            id,
            name: name.into(),
            trace_id: None,
        }
    }
}

#[derive(Debug, Default)]
struct TracerInner {
    enabled: AtomicBool,
    events: Mutex<Vec<TraceEvent>>,
}

/// A shared, cloneable event recorder, disabled when created: a disabled
/// record is one relaxed atomic load, with no lock taken.
#[derive(Debug, Default, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
    /// Prepended to the track of every event this handle records.
    prefix: String,
}

impl Tracer {
    /// A handle on the same recorder whose events land on tracks
    /// `{prefix}{track}`, e.g. one per memory port.
    pub fn prefixed(&self, prefix: String) -> Self {
        let inner = Arc::clone(&self.inner);
        Self { inner, prefix }
    }

    /// Enables or disables recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Records an instant if enabled; otherwise does nothing.
    pub fn record(&self, cycle: Cycle, track: &str, id: u32, name: impl Into<String>) {
        self.record_with(cycle, track, id, || name.into());
    }

    /// Like [`Tracer::record`], but builds the label only when the tracer
    /// is enabled, so a formatted label costs nothing while tracing is
    /// off.
    pub fn record_with(&self, cycle: Cycle, track: &str, id: u32, name: impl FnOnce() -> String) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let track = format!("{}{track}", self.prefix);
        let event = TraceEvent {
            track,
            ..TraceEvent::instant(cycle, "", id, name())
        };
        self.inner.events.lock().unwrap().push(event);
    }

    /// All recorded events in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.events.lock().unwrap().clone()
    }
}

/// Converts events to a VCD waveform: one 1-bit signal per (track, id)
/// pair, pulsing high on each event's start cycle. Open the result in any
/// waveform viewer.
pub fn to_vcd(events: &[TraceEvent], timescale_ps: u64) -> String {
    let mut vcd = crate::vcd::VcdRecorder::new(timescale_ps);
    let mut signals: BTreeMap<(&str, u32), crate::vcd::SignalId> = BTreeMap::new();
    for event in events {
        let id = *signals
            .entry((&event.track, event.id))
            .or_insert_with(|| vcd.declare(format!("{}/id{}", event.track, event.id), 1));
        vcd.change(event.start, id, 1);
        vcd.change(event.start + 1, id, 0);
    }
    vcd.render()
}

/// Renders an ASCII timeline, one row per (track, id) pair, one column
/// per `cycles_per_col` cycles; cells show `#` where events started.
pub fn render_timeline(events: &[TraceEvent], cycles_per_col: Cycle, width: usize) -> String {
    let Some(start) = events.iter().map(|e| e.start).min() else {
        return String::from("(no events)\n");
    };
    let mut rows: BTreeMap<String, Vec<bool>> = BTreeMap::new();
    for event in events {
        let col = ((event.start - start) / cycles_per_col) as usize;
        if col < width {
            let label = format!("{:>3}[{:>2}]", event.track, event.id);
            rows.entry(label).or_insert_with(|| vec![false; width])[col] = true;
        }
    }
    let mut out = String::new();
    for (label, cells) in rows {
        out.push_str(&label);
        out.push_str(" |");
        out.extend(cells.into_iter().map(|cell| if cell { '#' } else { '.' }));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::default();
        t.record(1, "AR", 0, "x");
        assert!(t.events().is_empty());
    }

    #[test]
    fn disabled_tracer_never_builds_a_lazy_detail() {
        let t = Tracer::default();
        t.record_with(1, "AR", 0, || unreachable!("label built while disabled"));
        assert!(t.events().is_empty());
        t.set_enabled(true);
        t.record_with(2, "AR", 0, || format!("addr={:#x}", 0x40));
        assert_eq!(t.events()[0].name, "addr=0x40");
        assert_eq!(t.events()[0].trace_id, None);
    }

    #[test]
    fn mid_run_toggle_yields_well_formed_timeline() {
        let t = Tracer::default();
        // Disabled stretch: cycles 0..3 discarded.
        for cycle in 0..3 {
            t.record(cycle, "AR", 0, "early");
        }
        t.set_enabled(true);
        t.record(5, "AR", 0, "mid");
        t.record(6, "R", 1, "beat");
        t.set_enabled(false);
        t.record(7, "R", 1, "late");
        assert_eq!(t.events().len(), 2);
        // The rendered timeline covers only the enabled window and stays
        // well-formed: one row per (track, id), uniform widths.
        let timeline = render_timeline(&t.events(), 1, 8);
        let widths: Vec<usize> = timeline.lines().map(str::len).collect();
        assert_eq!(timeline.lines().count(), 2);
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{timeline}");
        assert!(timeline.contains(" AR[ 0] |#"));
    }

    #[test]
    fn enabled_tracer_records() {
        let t = Tracer::default();
        t.set_enabled(true);
        t.record(5, "AR", 1, "read");
        t.record(6, "R", 1, "beat");
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], TraceEvent::instant(5, "AR", 1, "read"));
        assert_eq!((events[1].start, events[1].end), (6, 6));
    }

    #[test]
    fn timeline_renders_rows_per_channel_id() {
        let events = [
            TraceEvent::instant(0, "AR", 0, "a"),
            TraceEvent::instant(4, "AR", 1, "b"),
            TraceEvent::instant(2, "R", 0, "c"),
        ];
        let timeline = render_timeline(&events, 1, 8);
        assert!(timeline.contains(" AR[ 0] |#"));
        assert!(timeline.contains(" AR[ 1] |....#"));
        assert!(timeline.lines().count() == 3);
    }

    #[test]
    fn empty_timeline_is_marked() {
        assert_eq!(render_timeline(&[], 1, 4), "(no events)\n");
    }

    #[test]
    fn vcd_pulses_one_signal_per_track_id() {
        let events = [
            TraceEvent::instant(3, "AR", 0, "a"),
            TraceEvent::instant(5, "AR", 0, "b"),
            TraceEvent::instant(4, "mem1/AR", 0, "c"),
        ];
        let vcd = to_vcd(&events, 4_000);
        assert_eq!(vcd.matches("$var wire 1").count(), 2, "{vcd}");
        assert!(vcd.contains("$scope module mem1 $end"), "{vcd}");
    }
}
