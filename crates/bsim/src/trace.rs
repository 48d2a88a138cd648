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

/// Converts events to a VCD (Value Change Dump) waveform: one 1-bit
/// signal per (track, id) pair, high for the first half of each event's
/// start cycle. Any waveform viewer (GTKWave, Surfer) opens the result:
/// the paper's simulation platform exists "for debugging and performance
/// prediction" (§II-D), and hardware debugging means waveforms.
///
/// Times are in picoseconds: cycle `c` rises at `c * period_ps` and falls
/// half a period later, so events in consecutive cycles stay separate
/// pulses.
///
/// Signals are numbered in order of first event, and a `/` in a track
/// name opens a scope (`mem1/AR` id 0 is `id0` in scope `mem1/AR`).
///
/// # Panics
///
/// If `period_ps` is below 2, the shortest period with a high and a low
/// half.
pub fn to_vcd(events: &[TraceEvent], period_ps: u64) -> String {
    assert!(period_ps >= 2, "a {period_ps} ps period has no low half");
    let mut signals: BTreeMap<(&str, u32), usize> = BTreeMap::new();
    let mut root = VcdScope::default();
    // (time in ps, signal, value), in record order.
    let mut changes = Vec::new();
    for event in events {
        let next = signals.len();
        let signal = *signals.entry((&event.track, event.id)).or_insert_with(|| {
            root.declare(&format!("{}/id{}", event.track, event.id), next);
            next
        });
        let rise = event.start * period_ps;
        changes.push((rise, signal, 1));
        changes.push((rise + period_ps / 2, signal, 0));
    }
    // Time order; within a stamp by signal, then in record order (the
    // sort is stable).
    changes.sort_by_key(|&(ps, signal, _)| (ps, signal));

    let mut out = String::from("$date generated by beethoven bsim $end\n");
    out.push_str("$timescale 1 ps $end\n");
    root.emit(&mut out, "");
    out.push_str("$enddefinitions $end\n");
    let mut at = None;
    for (ps, signal, value) in changes {
        if at != Some(ps) {
            out.push_str(&format!("#{ps}\n"));
            at = Some(ps);
        }
        out.push_str(&format!("{value}{}\n", vcd_ident(signal)));
    }
    out
}

/// One module scope of a VCD header: its signals (index, leaf name) in
/// declaration order, then its child scopes by name.
#[derive(Default)]
struct VcdScope {
    children: BTreeMap<String, VcdScope>,
    vars: Vec<(usize, String)>,
}

impl VcdScope {
    /// Declares signal `index` under its `/`-separated hierarchical name.
    fn declare(&mut self, name: &str, index: usize) {
        let mut parts: Vec<&str> = name.split('/').collect();
        let leaf = parts.pop().expect("split yields a part").to_owned();
        let mut scope = self;
        for part in parts {
            scope = scope.children.entry(part.to_owned()).or_default();
        }
        scope.vars.push((index, leaf));
    }

    fn emit(&self, out: &mut String, name: &str) {
        if !name.is_empty() {
            out.push_str(&format!("$scope module {name} $end\n"));
        }
        for (index, leaf) in &self.vars {
            out.push_str(&format!("$var wire 1 {} {leaf} $end\n", vcd_ident(*index)));
        }
        for (child_name, child) in &self.children {
            child.emit(out, child_name);
        }
        if !name.is_empty() {
            out.push_str("$upscope $end\n");
        }
    }
}

/// Signal `index`'s VCD identifier: printable ASCII (`!` through `~`),
/// one character per base-94 digit, least significant first.
fn vcd_ident(index: usize) -> String {
    let mut n = index;
    let mut s = String::new();
    loop {
        s.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
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

    /// A minimal VCD reader for round-trip assertions: each variable's
    /// full hierarchical path and (time, value) change list, rebuilt
    /// from the rendered text alone.
    fn parse_vcd(text: &str) -> BTreeMap<String, Vec<(u64, u64)>> {
        let mut scopes: Vec<String> = Vec::new();
        let mut by_ident = std::collections::HashMap::new();
        let mut vars: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
        let mut time = 0;
        for line in text.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["$scope", "module", name, "$end"] => scopes.push((*name).to_owned()),
                ["$upscope", "$end"] => {
                    scopes.pop().expect("balanced $upscope");
                }
                ["$var", "wire", "1", ident, leaf, "$end"] => {
                    let mut path = scopes.join("/");
                    if !path.is_empty() {
                        path.push('/');
                    }
                    path.push_str(leaf);
                    by_ident.insert((*ident).to_owned(), path.clone());
                    vars.insert(path, Vec::new());
                }
                [stamp] if stamp.starts_with('#') => {
                    time = stamp[1..].parse().expect("time stamp");
                }
                [change] if change.starts_with(['0', '1']) => {
                    let value = u64::from(change.as_bytes()[0] - b'0');
                    let path = &by_ident[&change[1..]];
                    vars.get_mut(path).expect("declared").push((time, value));
                }
                _ => {}
            }
        }
        assert!(scopes.is_empty(), "every $scope must be closed");
        vars
    }

    /// Events on four tracks, three of them nested under `soc/`.
    fn nested_scope_events() -> [TraceEvent; 4] {
        [
            TraceEvent::instant(0, "soc/core0/reader", 0, "a"),
            TraceEvent::instant(1, "soc/core0/writer", 0, "b"),
            TraceEvent::instant(2, "soc/mem", 3, "c"),
            TraceEvent::instant(3, "flat", 1, "d"),
        ]
    }

    #[test]
    fn vcd_header_declares_signals_in_nested_scopes() {
        let text = to_vcd(&nested_scope_events(), 4000);
        assert!(text.contains("$timescale 1 ps $end"));
        assert!(text.contains("$scope module soc $end"));
        assert!(text.contains("$scope module core0 $end"));
        assert_eq!(text.matches("$var wire 1").count(), 4, "{text}");
        assert_eq!(
            text.matches("$scope").count(),
            text.matches("$upscope").count()
        );
    }

    #[test]
    fn vcd_hierarchical_scopes_round_trip() {
        let events = nested_scope_events();
        let parsed = parse_vcd(&to_vcd(&events, 10));
        let names: Vec<&str> = parsed.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            [
                "flat/id1",
                "soc/core0/reader/id0",
                "soc/core0/writer/id0",
                "soc/mem/id3"
            ]
        );
        for (i, event) in events.iter().enumerate() {
            let path = format!("{}/id{}", event.track, event.id);
            let at = 10 * i as u64;
            assert_eq!(parsed[&path], [(at, 1), (at + 5, 0)], "{path}");
        }
    }

    #[test]
    fn vcd_changes_are_deduplicated_and_time_ordered() {
        // Recorded out of time order, twice on one (track, id): one signal,
        // and every change lands under its own cycle in time order.
        let events = [
            TraceEvent::instant(7, "x", 0, "late"),
            TraceEvent::instant(3, "x", 0, "early"),
        ];
        let text = to_vcd(&events, 10);
        assert_eq!(text.matches("$var wire 1").count(), 1, "{text}");
        let stamps: Vec<&str> = text.lines().filter(|l| l.starts_with('#')).collect();
        assert_eq!(stamps, ["#30", "#35", "#70", "#75"]);
        assert_eq!(
            parse_vcd(&text)["x/id0"],
            [(30, 1), (35, 0), (70, 1), (75, 0)]
        );
    }

    #[test]
    fn vcd_events_in_consecutive_cycles_are_separate_pulses() {
        // Beats on one signal in back-to-back cycles, at the 250 MHz
        // fabric's 4000 ps period: each rises on its cycle's edge and
        // falls half a period later, before the next one rises.
        let events = [
            TraceEvent::instant(3, "R", 0, "beat0"),
            TraceEvent::instant(4, "R", 0, "beat1"),
        ];
        let text = to_vcd(&events, 4_000);
        assert!(text.contains("$timescale 1 ps $end"), "{text}");
        assert_eq!(
            parse_vcd(&text)["R/id0"],
            [(12_000, 1), (14_000, 0), (16_000, 1), (18_000, 0)]
        );
    }

    #[test]
    fn vcd_identifiers_stay_unique_past_94_signals() {
        let events: Vec<TraceEvent> = (0..200)
            .map(|i| TraceEvent::instant(i, "s", i as u32, "e"))
            .collect();
        let text = to_vcd(&events, 4_000);
        // Every $var line must carry a distinct identifier.
        let ids: std::collections::HashSet<&str> = text
            .lines()
            .filter(|l| l.starts_with("$var"))
            .map(|l| l.split_whitespace().nth(3).unwrap())
            .collect();
        assert_eq!(ids.len(), 200);
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
