//! Hierarchical performance-counter registry and the Chrome trace writer
//! — the reproduction's PMU.
//!
//! The paper's simulation platform exists "for debugging and performance
//! prediction" (§II-D). This module is the prediction half: every layer of
//! the elaborated SoC registers a [`CounterSet`] here (DRAM channels, AXI
//! controllers, Readers/Writers, the MMIO frontend, the scheduler itself),
//! and the host consumes the registry two ways, like a real PMU:
//!
//! 1. **Live**: an MMIO-mapped counter window (`bcore::mmio`) lets host
//!    programs select and read any counter mid-run.
//! 2. **Post-mortem**: [`PerfRegistry::report`] renders a text profile and
//!    [`chrome_trace`] emits Chrome trace-event JSON (openable at
//!    <https://ui.perfetto.dev>) from [`TraceEvent`] records and the
//!    registry's windowed counter samples.
//!
//! The observability substrate has three pieces. Counting uses one handle
//! type, [`StatCounter`]: each set owns a [`Stats`] bag, and
//! [`CounterSet::gated`] mints handles from it whose gate is the
//! registry's enable flag, so a disabled bump is a single
//! predictable-false branch. Events use one record, [`TraceEvent`], held
//! by one recorder, [`Tracer`](crate::Tracer). Rendering uses one writer,
//! [`chrome_trace`]. Counters never feed back into simulated behaviour,
//! so cycle counts are byte-identical with profiling on or off (guarded
//! by a lockstep test in `bkernels`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::stats::{Histogram, StatCounter, Stats};
use crate::time::Cycle;
use crate::trace::TraceEvent;

/// One set's sources: its own bag and the component bags attached to it.
#[derive(Default)]
struct SetEntries {
    /// The set's own bag: gated counters and `set_value` mirrors.
    own: Stats,
    /// Component bags attached with [`CounterSet::attach_stats`].
    attached: Vec<Stats>,
}

impl SetEntries {
    fn bags(&self) -> impl Iterator<Item = &Stats> {
        std::iter::once(&self.own).chain(&self.attached)
    }
}

#[derive(Default)]
struct RegistryInner {
    sets: BTreeMap<String, SetEntries>,
    /// Raw values captured at the last [`PerfRegistry::reset`], keyed by
    /// flattened `path/name`. Reads subtract this instead of zeroing the
    /// sources, because an attached bag belongs to its component, and
    /// other readers (the components' own `stats()` views, which reports
    /// and tests read) must not see a profiling reset.
    baseline: BTreeMap<String, u64>,
    /// Windowed samples for counter tracks: (cycle, counters at cycle).
    samples: Vec<(Cycle, Vec<(String, u64)>)>,
}

impl RegistryInner {
    /// The set registered under `path`, created if needed.
    fn entries(&mut self, path: &str) -> &mut SetEntries {
        if !self.sets.contains_key(path) {
            self.sets.insert(path.to_owned(), SetEntries::default());
        }
        self.sets.get_mut(path).expect("inserted above")
    }

    /// Current merged counter values for one set (raw, pre-baseline).
    fn set_values(&self, entries: &SetEntries) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (name, value) in entries.bags().flat_map(Stats::counters) {
            *out.entry(name).or_insert(0) += value;
        }
        out
    }

    /// All counters as flattened, baseline-subtracted `path/name` pairs.
    fn flat_counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (path, entries) in &self.sets {
            for (name, value) in self.set_values(entries) {
                let key = format!("{path}/{name}");
                let base = self.baseline.get(&key).copied().unwrap_or(0);
                out.push((key, value.saturating_sub(base)));
            }
        }
        out
    }
}

/// The SoC-wide registry: one per elaborated design. Clone freely —
/// clones share state, like handles to one PMU block.
#[derive(Clone, Default)]
pub struct PerfRegistry {
    enabled: Arc<AtomicBool>,
    inner: Arc<Mutex<RegistryInner>>,
}

impl PerfRegistry {
    /// Creates an empty, disabled registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens or closes the gate of every counter minted by
    /// [`CounterSet::gated`]. Attached [`Stats`] bags are *not* gated —
    /// they belong to the components, which count into them whether or
    /// not anyone profiles.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether gated counters are live.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Gets or creates the counter set registered under `path`
    /// (`/`-separated hierarchy, e.g. `"mem0"` or `"cores/Doubler0"`).
    pub fn set(&self, path: &str) -> CounterSet {
        let own = self.inner.lock().unwrap().entries(path).own.clone();
        CounterSet {
            path: path.to_owned(),
            own,
            enabled: Arc::clone(&self.enabled),
            inner: Arc::clone(&self.inner),
        }
    }

    /// Stores `value` as the raw value of `path/name` in the set's own
    /// bag, creating it if needed. Used for externally-owned values pushed
    /// into the registry (e.g. the scheduler's executed/skipped cycle
    /// counts, synced before reads).
    pub fn set_value(&self, path: &str, name: &str, value: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.entries(path).own.set(name, value);
    }

    /// All counters as sorted, flattened `path/name` pairs, with the reset
    /// baseline subtracted.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner.lock().unwrap().flat_counters()
    }

    /// Sorted flattened counter names — the MMIO window's index space.
    pub fn counter_names(&self) -> Vec<String> {
        self.counters().into_iter().map(|(n, _)| n).collect()
    }

    /// Value of one flattened counter name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// One histogram by its flattened `path/name`, if an attached stats bag
    /// recorded it (e.g. `server/tenant0/latency_cycles`).
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// All histograms from attached stats bags as sorted flattened pairs.
    /// Histograms are not baselined (samples cannot be un-recorded).
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        let inner = self.inner.lock().unwrap();
        let mut out = Vec::new();
        for (path, entries) in &inner.sets {
            for (name, h) in entries.bags().flat_map(Stats::histograms) {
                out.push((format!("{path}/{name}"), h));
            }
        }
        out
    }

    /// Snapshot-and-rebase: records current raw values as the new zero, so
    /// subsequent [`PerfRegistry::counters`] reads report deltas. The
    /// underlying sources are *not* zeroed — attached bags belong to
    /// their components and are read outside the registry too, so reset
    /// never writes back into them.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.baseline.clear();
        inner.baseline = inner.flat_counters().into_iter().collect();
    }

    /// Records a windowed sample of every counter at `cycle`, for the
    /// trace writer's counter tracks.
    pub fn sample(&self, cycle: Cycle) {
        let mut inner = self.inner.lock().unwrap();
        let snap = inner.flat_counters();
        inner.samples.push((cycle, snap));
    }

    /// All windowed samples recorded so far.
    pub fn samples(&self) -> Vec<(Cycle, Vec<(String, u64)>)> {
        self.inner.lock().unwrap().samples.clone()
    }

    /// Renders the text profile report: counters grouped by set, plus
    /// every histogram with count/mean/percentiles.
    pub fn report(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::from("perf report\n===========\n");
        for (path, entries) in &inner.sets {
            let values = inner.set_values(entries);
            let histograms: Vec<(String, Histogram)> =
                entries.bags().flat_map(Stats::histograms).collect();
            if values.is_empty() && histograms.is_empty() {
                continue;
            }
            out.push_str(&format!("[{path}]\n"));
            for (name, value) in values {
                let key = format!("{path}/{name}");
                let base = inner.baseline.get(&key).copied().unwrap_or(0);
                out.push_str(&format!("  {:<40} {}\n", name, value.saturating_sub(base)));
            }
            for (name, h) in histograms {
                out.push_str(&format!(
                    "  {:<40} count={} mean={:.1} p50={} p90={} p99={} min={} max={}\n",
                    name,
                    h.count(),
                    h.mean(),
                    h.p50().unwrap_or(0),
                    h.p90().unwrap_or(0),
                    h.p99().unwrap_or(0),
                    h.min().unwrap_or(0),
                    h.max().unwrap_or(0),
                ));
            }
        }
        out
    }
}

impl std::fmt::Debug for PerfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerfRegistry")
            .field("enabled", &self.is_enabled())
            .field("sets", &self.inner.lock().unwrap().sets.len())
            .finish()
    }
}

/// One component's slice of the registry, created via
/// [`PerfRegistry::set`]. Mint gated counters from it at elaboration time
/// and hand them to the component; attach existing [`Stats`] bags for
/// values the component already maintains.
#[derive(Clone)]
pub struct CounterSet {
    path: String,
    /// The set's own bag: gated counters and [`PerfRegistry::set_value`]
    /// mirrors live here, never in a component's bag.
    own: Stats,
    enabled: Arc<AtomicBool>,
    inner: Arc<Mutex<RegistryInner>>,
}

impl CounterSet {
    /// A counter `name` in this set's own bag, gated on the registry's
    /// enable flag. It is created at zero here, so it is listed whether or
    /// not profiling is ever on.
    pub fn gated(&self, name: &'static str) -> StatCounter {
        self.own.add(name, 0);
        self.own.gated_counter(name, &self.enabled)
    }

    /// Attaches an existing [`Stats`] bag: its counters and histograms are
    /// merged into this set on every read. The bag stays owned by the
    /// component and is never written by the registry.
    pub fn attach_stats(&self, stats: &Stats) {
        let mut inner = self.inner.lock().unwrap();
        inner.entries(&self.path).attached.push(stats.clone());
    }
}

impl std::fmt::Debug for CounterSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CounterSet({})", self.path)
    }
}

/// Renders one Chrome trace-event JSON document (Perfetto-compatible).
///
/// `processes[i]` renders as process `i`, named by its label, with one
/// thread per distinct track (numbered in first-seen order) and one `"X"`
/// slice per event. A slice spans `start..end` with a one-cycle floor, so
/// instants stay visible; its args carry the trace id when the event has
/// one, else the event's id. Events sharing a trace id are chained by
/// `"s"`/`"t"`/`"f"` flow arrows in `(start, end)` order, across tracks
/// and processes; a lone event gets no arrow. Each registry sample adds a
/// `"C"` counter record per counter on process 0. `period_ps` converts
/// cycles to trace microseconds.
pub fn chrome_trace(
    processes: &[(&str, &[TraceEvent])],
    samples: &[(Cycle, Vec<(String, u64)>)],
    period_ps: u64,
) -> String {
    let to_us = |cycle: Cycle| (cycle as f64) * (period_ps as f64) / 1e6;
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut push = |item: String| {
        if !out.ends_with('[') {
            out.push(',');
        }
        out.push_str(&item);
    };
    // trace id -> (start, end, pid, tid) of every event carrying it.
    let mut flows: BTreeMap<u64, Vec<(Cycle, Cycle, usize, usize)>> = BTreeMap::new();
    for (pid, (name, events)) in processes.iter().enumerate() {
        push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":{}}}}}",
            json_string(name)
        ));
        let mut tids: BTreeMap<&str, usize> = BTreeMap::new();
        for event in events.iter() {
            let next = tids.len() + 1;
            tids.entry(&event.track).or_insert(next);
        }
        for (track, tid) in &tids {
            push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json_string(track)
            ));
        }
        for event in events.iter() {
            let tid = tids[event.track.as_str()];
            let args = match event.trace_id {
                Some(trace_id) => {
                    flows
                        .entry(trace_id)
                        .or_default()
                        .push((event.start, event.end, pid, tid));
                    format!("\"trace_id\":{trace_id}")
                }
                None => format!("\"id\":{}", event.id),
            };
            push(format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.4},\"dur\":{:.4},\
                 \"name\":{},\"args\":{{{args}}}}}",
                to_us(event.start),
                to_us(event.end.saturating_sub(event.start).max(1)),
                json_string(&event.name),
            ));
        }
    }
    for (trace_id, mut steps) in flows {
        if steps.len() < 2 {
            continue;
        }
        steps.sort_unstable();
        let last = steps.len() - 1;
        for (i, (start, _end, pid, tid)) in steps.into_iter().enumerate() {
            // "f" binds to the enclosing slice like "s"/"t" do: ts at the
            // slice start, with bp:"e" so Perfetto attaches it there.
            let (ph, bp) = match i {
                0 => ("s", ""),
                i if i == last => ("f", ",\"bp\":\"e\""),
                _ => ("t", ""),
            };
            push(format!(
                "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.4},\
                 \"id\":{trace_id},\"cat\":\"request\",\"name\":\"job\"{bp}}}",
                to_us(start),
            ));
        }
    }
    for (cycle, counters) in samples {
        for (name, value) in counters {
            push(format!(
                "{{\"ph\":\"C\",\"pid\":0,\"ts\":{:.4},\"name\":{},\
                 \"args\":{{\"value\":{value}}}}}",
                to_us(*cycle),
                json_string(name),
            ));
        }
    }
    out.push_str("]}");
    out
}

/// Escapes `s` as a JSON string literal (with surrounding quotes). Every
/// hand-written JSON document in the workspace routes strings through
/// here (the vendored `serde` is a stub).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Validates that `s` is one well-formed JSON document. The vendored
/// `serde` is a no-op stub, so trace output is checked with this small
/// recursive-descent validator instead (used by the profile-smoke test).
///
/// # Errors
///
/// Returns a byte-offset description of the first syntax error.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    json_skip_ws(bytes, &mut pos);
    json_value(bytes, &mut pos)?;
    json_skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn json_skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn json_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b'{') => json_container(bytes, pos, b'}'),
        Some(b'[') => json_container(bytes, pos, b']'),
        Some(b'"') => json_str(bytes, pos),
        Some(b't') => json_lit(bytes, pos, b"true"),
        Some(b'f') => json_lit(bytes, pos, b"false"),
        Some(b'n') => json_lit(bytes, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => json_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}", pos = *pos)),
        None => Err("unexpected end of input".to_owned()),
    }
}

/// An object (`close == b'}'`, members `"key": value`) or an array
/// (`close == b']'`, elements `value`), starting at its opening bracket.
fn json_container(bytes: &[u8], pos: &mut usize, close: u8) -> Result<(), String> {
    *pos += 1;
    json_skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(());
    }
    loop {
        json_skip_ws(bytes, pos);
        if close == b'}' {
            json_str(bytes, pos)?;
            json_skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}", pos = *pos));
            }
            *pos += 1;
            json_skip_ws(bytes, pos);
        }
        json_value(bytes, pos)?;
        json_skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return Ok(());
            }
            _ => {
                let close = close as char;
                return Err(format!(
                    "expected ',' or '{close}' at byte {pos}",
                    pos = *pos
                ));
            }
        }
    }
}

fn json_str(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !bytes.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {pos}", pos = *pos));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
            }
            0x00..=0x1f => {
                return Err(format!(
                    "unescaped control char in string at byte {pos}",
                    pos = *pos
                ))
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_owned())
}

fn json_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = json_digits(bytes, pos);
    if int_digits == 0 {
        return Err(format!("expected digits at byte {pos}", pos = *pos));
    }
    let first = start + usize::from(bytes[start] == b'-');
    if int_digits > 1 && bytes[first] == b'0' {
        return Err(format!("leading zero at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if json_digits(bytes, pos) == 0 {
            return Err(format!(
                "expected fraction digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if json_digits(bytes, pos) == 0 {
            return Err(format!(
                "expected exponent digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    Ok(())
}

fn json_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

fn json_lit(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if bytes.len() >= *pos + lit.len() && &bytes[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_gated_on_enabled() {
        let perf = PerfRegistry::new();
        let c = perf.set("mem0").gated("beats");
        assert_eq!(perf.counter("mem0/beats"), Some(0), "listed while off");
        c.incr();
        assert_eq!(perf.counter("mem0/beats"), Some(0), "off must not count");
        perf.set_enabled(true);
        c.add(5);
        perf.set_enabled(false);
        c.incr();
        assert_eq!(perf.counter("mem0/beats"), Some(5));
    }

    #[test]
    fn counters_flatten_with_paths_and_sort() {
        let perf = PerfRegistry::new();
        perf.set_enabled(true);
        perf.set("b").gated("y").incr();
        perf.set("a").gated("x").add(2);
        let flat = perf.counters();
        assert_eq!(
            flat,
            vec![("a/x".to_owned(), 2), ("b/y".to_owned(), 1)],
            "sets sort by path"
        );
    }

    #[test]
    fn attached_stats_merge_into_the_set() {
        let perf = PerfRegistry::new();
        let stats = Stats::new();
        stats.add("reads", 7);
        stats.record("latency", 16);
        perf.set("dram").attach_stats(&stats);
        assert_eq!(perf.counter("dram/reads"), Some(7));
        let histograms = perf.histograms();
        assert_eq!(histograms.len(), 1);
        assert_eq!(histograms[0].0, "dram/latency");
        assert_eq!(histograms[0].1.count(), 1);
    }

    #[test]
    fn reset_rebases_without_zeroing_sources() {
        let perf = PerfRegistry::new();
        perf.set_enabled(true);
        let stats = Stats::new();
        stats.add("aw_issued", 4);
        let set = perf.set("writer");
        set.attach_stats(&stats);
        let c = set.gated("stalls");
        c.add(10);
        perf.reset();
        assert_eq!(perf.counter("writer/stalls"), Some(0));
        assert_eq!(perf.counter("writer/aw_issued"), Some(0));
        assert_eq!(stats.get("aw_issued"), 4, "source must not be zeroed");
        c.add(2);
        stats.incr("aw_issued");
        assert_eq!(perf.counter("writer/stalls"), Some(2));
        assert_eq!(perf.counter("writer/aw_issued"), Some(1));
    }

    #[test]
    fn set_value_forces_raw_counters() {
        let perf = PerfRegistry::new();
        let stats = Stats::new();
        perf.set("scheduler").attach_stats(&stats);
        perf.set_value("scheduler", "executed_cycles", 123);
        assert_eq!(perf.counter("scheduler/executed_cycles"), Some(123));
        perf.set_value("scheduler", "executed_cycles", 200);
        assert_eq!(perf.counter("scheduler/executed_cycles"), Some(200));
        assert!(
            stats.counters().is_empty(),
            "attached bags are never written"
        );
    }

    #[test]
    fn samples_capture_counter_progression() {
        let perf = PerfRegistry::new();
        perf.set_enabled(true);
        let c = perf.set("mem").gated("beats");
        perf.sample(0);
        c.add(8);
        perf.sample(100);
        let samples = perf.samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].1[0], ("mem/beats".to_owned(), 0));
        assert_eq!(samples[1].1[0], ("mem/beats".to_owned(), 8));
    }

    #[test]
    fn report_groups_by_set_and_shows_histograms() {
        let perf = PerfRegistry::new();
        perf.set_enabled(true);
        perf.set("mem0").gated("r_beats").add(42);
        let stats = Stats::new();
        for v in [4, 8, 100] {
            stats.record("read_latency_cycles", v);
        }
        perf.set("mem0").attach_stats(&stats);
        let report = perf.report();
        assert!(report.contains("[mem0]"));
        assert!(report.contains("r_beats"));
        assert!(report.contains("42"));
        assert!(report.contains("read_latency_cycles"));
        assert!(report.contains("count=3"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_slices_and_counters() {
        let perf = PerfRegistry::new();
        perf.set_enabled(true);
        perf.set("mem").gated("beats").add(1);
        perf.sample(10);
        let events = [
            TraceEvent::instant(5, "AR", 2, "read \"x\"\n"),
            TraceEvent::instant(9, "R", 2, "beat"),
        ];
        let json = chrome_trace(&[("beethoven-sim", &events)], &perf.samples(), 4_000);
        validate_json(&json).expect("trace must be valid JSON");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"args\":{\"id\":2}"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("thread_name"));
        assert!(!json.contains("\"ph\":\"s\""), "no trace ids, no flows");
    }

    #[test]
    fn chrome_trace_threads_flows_across_tracks_and_processes() {
        let span = |trace_id, track, name, start, end| TraceEvent {
            end,
            trace_id: Some(trace_id),
            ..TraceEvent::instant(start, track, 0, name)
        };
        let shard0 = [
            span(3, "admission", "admit", 0, 0),
            span(3, "tenant1", "queue", 0, 40),
            span(3, "core0", "execute", 40, 90),
        ];
        let shard1 = [span(8, "core0", "execute", 5, 25)];
        let json = chrome_trace(&[("shard0", &shard0), ("shard1", &shard1)], &[], 4_000);
        validate_json(&json).expect("merged trace must be valid JSON");
        assert!(json.contains("\"pid\":1,\"tid\":0,\"name\":\"process_name\""));
        // Request 3 crosses three tracks: one start, one step, one finish.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"ph\":\"t\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1, "{json}");
        // Request 8 has a single span: a slice, but no dangling arrow.
        assert!(json.contains("\"id\":3"));
        assert!(!json.contains("\"id\":8"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }

    #[test]
    fn empty_trace_is_still_valid() {
        validate_json(&chrome_trace(&[], &[], 1_000)).expect("empty trace must be valid JSON");
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-0.5e+3",
            "[1, 2.5, \"a\\u00e9\\n\", {\"k\": [true, false, null]}]",
            " { \"a\" : 1 } ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok} should parse: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "\"unterminated",
            "\"bad\\q\"",
            "tru",
            "{} {}",
            "[\"\u{1}\"]",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
