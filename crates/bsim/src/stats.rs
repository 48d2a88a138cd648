//! Counters and histograms shared between components and the host.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A latency/occupancy histogram with power-of-two buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// bucket\[i\] counts samples in `[2^(i-1), 2^i)`; bucket\[0\] counts 0..1.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    /// Same as [`Histogram::new`] — `min` must start at `u64::MAX` so the
    /// first sample sets it (a zero-initialized `min` silently reports 0
    /// for every histogram created through `entry(..).or_default()`).
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `p`-th percentile (`0.0 < p <= 100.0`), or `None` if empty.
    ///
    /// Resolution is bucket-granular: the answer is the inclusive upper
    /// bound of the power-of-two bucket containing the rank-`⌈p/100·n⌉`
    /// sample, clamped to the observed `[min, max]` range — so a
    /// single-valued histogram reports that exact value at every
    /// percentile, and the result never exceeds `max()`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &bucket_count) in self.buckets.iter().enumerate() {
            cumulative += bucket_count;
            if cumulative >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return Some(upper.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median (50th percentile), or `None` if empty.
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// 90th percentile, or `None` if empty.
    pub fn p90(&self) -> Option<u64> {
        self.percentile(90.0)
    }

    /// 99th percentile, or `None` if empty.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }

    /// Merges another histogram into this one, bucket-wise. Because the
    /// buckets are fixed power-of-two ranges, merging shard-local
    /// histograms and then reading percentiles gives the same answer as
    /// recording every sample into one histogram — which is how the
    /// `bserver` fleet rolls per-shard latency into one aggregate row.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &n) in other.buckets.iter().enumerate() {
            self.buckets[i] += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One counter's value, shared by the bag's name map and every
/// [`StatCounter`] for that name.
type Slot = Arc<AtomicU64>;

#[derive(Debug, Default)]
struct StatsInner {
    counters: BTreeMap<String, Slot>,
    histograms: BTreeMap<String, Histogram>,
}

impl StatsInner {
    /// All counters as sorted (name, value) pairs.
    fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }
}

/// A counter of a [`Stats`] bag named once (see [`Stats::counter`]). Its
/// first bump looks the name up, as a by-name [`Stats::add`] does; every
/// later bump takes no lock and searches no map.
///
/// It shares storage with the bag: by-name `add`s on the same name add to
/// the same value, and the name appears in [`Stats::counters`] from the
/// first bump through either path — an `add(0)` included — exactly as if
/// every bump had been by name.
#[derive(Debug, Clone)]
pub struct StatCounter {
    stats: Stats,
    name: &'static str,
    slot: OnceCell<Slot>,
}

impl StatCounter {
    /// Adds `delta`, creating the counter at zero if this is its first
    /// bump.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.slot
            .get_or_init(|| self.stats.slot(self.name))
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A shared, cloneable bag of named counters and histograms.
///
/// Components hold clones and increment counters during `tick`; the host
/// reads them after the run. Backed by `Arc<Mutex>` so a stats bag — and
/// the `Simulation` holding clones of it — stays `Send`; within one
/// simulation the lock is uncontended.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    inner: Arc<Mutex<StatsInner>>,
}

impl Stats {
    /// Creates an empty stats bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name`, creating it at zero if needed.
    /// Only a name's first insert allocates; later bumps are a lookup.
    /// Per-cycle paths resolve a [`StatCounter`] once instead.
    pub fn add(&self, name: &str, delta: u64) {
        let counters = &mut self.inner.lock().unwrap().counters;
        match counters.get(name) {
            Some(value) => {
                value.fetch_add(delta, Ordering::Relaxed);
            }
            None => {
                counters.insert(name.to_owned(), Arc::new(AtomicU64::new(delta)));
            }
        }
    }

    /// A [`StatCounter`] handle for counter `name`. Making one does no
    /// lookup, and the name stays absent from [`Stats::counters`] until
    /// the handle's (or a by-name) first bump.
    pub fn counter(&self, name: &'static str) -> StatCounter {
        StatCounter {
            stats: self.clone(),
            name,
            slot: OnceCell::new(),
        }
    }

    /// Counter `name`'s storage, created at zero if needed.
    fn slot(&self, name: &str) -> Slot {
        let counters = &mut self.inner.lock().unwrap().counters;
        match counters.get(name) {
            Some(value) => Arc::clone(value),
            None => Arc::clone(counters.entry(name.to_owned()).or_default()),
        }
    }

    /// Increments counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (zero if never written).
    pub fn get(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(name)
            .map_or(0, |value| value.load(Ordering::Relaxed))
    }

    /// Records a histogram sample under `name`. Only a name's first
    /// sample allocates its key.
    pub fn record(&self, name: &str, value: u64) {
        let histograms = &mut self.inner.lock().unwrap().histograms;
        match histograms.get_mut(name) {
            Some(histogram) => histogram.record(value),
            None => histograms.entry(name.to_owned()).or_default().record(value),
        }
    }

    /// A snapshot of histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.lock().unwrap().histograms.get(name).cloned()
    }

    /// All histograms as sorted (name, histogram) pairs.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        self.inner
            .lock()
            .unwrap()
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.clone()))
            .collect()
    }

    /// All counters as sorted (name, value) pairs.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner.lock().unwrap().counter_values()
    }

    /// A comparable snapshot of every counter and histogram, for
    /// equivalence checks such as [`crate::Lockstep`] guards.
    pub fn snapshot(&self) -> StatsSnapshot {
        let inner = self.inner.lock().unwrap();
        StatsSnapshot {
            counters: inner.counter_values(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSummary {
                            count: h.count,
                            sum: h.sum,
                            min: h.min(),
                            max: h.max(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// The comparable part of a [`Histogram`]: enough to detect any divergence
/// in what was recorded (bucket shapes follow from the samples).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample, if any.
    pub min: Option<u64>,
    /// Largest sample, if any.
    pub max: Option<u64>,
}

/// A point-in-time copy of a [`Stats`] bag, ordered by name and comparable
/// with `==`. Two runs that performed identical work produce identical
/// snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Sorted (name, value) counter pairs.
    pub counters: Vec<(String, u64)>,
    /// Sorted (name, summary) histogram pairs.
    pub histograms: Vec<(String, HistogramSummary)>,
}

/// Simulation throughput: how many simulated cycles one host second buys.
///
/// This is the headline number the active-set scheduler improves —
/// simulated time per run is fixed by the model, so host wall-clock is the
/// only thing fast-forwarding changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRate {
    /// Simulated base-clock cycles covered by the measurement.
    pub cycles: u64,
    /// Host wall-clock seconds the measurement took.
    pub host_seconds: f64,
}

impl SimRate {
    /// Simulated cycles per host second (0.0 for a zero-length interval).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.host_seconds > 0.0 {
            self.cycles as f64 / self.host_seconds
        } else {
            0.0
        }
    }

    /// One-line human rendering, e.g.
    /// `sim rate: 41.2 Mcycles/s (1000000 cycles in 24.3 ms)`.
    pub fn render(&self) -> String {
        let rate = self.cycles_per_sec();
        let (scaled, unit) = if rate >= 1e9 {
            (rate / 1e9, "Gcycles/s")
        } else if rate >= 1e6 {
            (rate / 1e6, "Mcycles/s")
        } else if rate >= 1e3 {
            (rate / 1e3, "kcycles/s")
        } else {
            (rate, "cycles/s")
        };
        format!(
            "sim rate: {:.1} {} ({} cycles in {:.1} ms)",
            scaled,
            unit,
            self.cycles,
            self.host_seconds * 1e3,
        )
    }

    /// [`SimRate::render`] extended with memory-system and scheduler
    /// context pulled from the performance counters, e.g.
    /// `sim rate: ... | dram: 32.5 MB @ 12.4 GB/s | skipped: 87.4% of cycles`.
    pub fn render_with(&self, ext: &SimRateExt) -> String {
        let mut line = self.render();
        let (scaled, unit) = if ext.dram_bytes >= 1 << 30 {
            (ext.dram_bytes as f64 / (1u64 << 30) as f64, "GB")
        } else if ext.dram_bytes >= 1 << 20 {
            (ext.dram_bytes as f64 / (1u64 << 20) as f64, "MB")
        } else {
            (ext.dram_bytes as f64 / (1u64 << 10) as f64, "KB")
        };
        let gbps = if ext.sim_seconds > 0.0 {
            ext.dram_bytes as f64 / ext.sim_seconds / 1e9
        } else {
            0.0
        };
        line.push_str(&format!(" | dram: {scaled:.1} {unit} @ {gbps:.1} GB/s"));
        if ext.total_cycles > 0 {
            line.push_str(&format!(
                " | skipped: {:.1}% of cycles",
                100.0 * ext.skipped_cycles as f64 / ext.total_cycles as f64
            ));
        }
        if ext.registered_component_cycles > 0 {
            line.push_str(&format!(
                " | ticked: {:.1}% of comp-cycles",
                100.0 * ext.ticked_component_cycles as f64 / ext.registered_component_cycles as f64
            ));
        }
        line
    }
}

/// A batch of per-job [`SimRate`] measurements merged over one shared
/// wall-clock span.
///
/// When independent simulations run concurrently on host threads, the
/// honest throughput number is **sum-of-cycles over the span the batch
/// took**, not the sum of per-job rates: per-job host times overlap, so
/// adding them (or their rates) overstates what one host second bought.
/// The merge therefore keeps two times — the span (for the rate) and the
/// serial estimate (the sum of per-job host times, what the same batch
/// would have cost on one worker) — whose ratio is the executor's
/// wall-clock speedup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergedSimRate {
    /// Summed per-job cycles over the batch's wall-clock span.
    pub rate: SimRate,
    /// Number of merged jobs.
    pub jobs: usize,
    /// Serial wall-clock estimate: the sum of per-job host times.
    pub serial_seconds: f64,
}

impl MergedSimRate {
    /// Merges per-job rates measured under a single span of
    /// `span_seconds` host time. Cycles add (each job simulated its own
    /// SoC); host time is the span, not the per-job sum.
    pub fn merge(per_job: impl IntoIterator<Item = SimRate>, span_seconds: f64) -> Self {
        let (mut cycles, mut jobs, mut serial) = (0u64, 0usize, 0.0f64);
        for r in per_job {
            cycles += r.cycles;
            jobs += 1;
            serial += r.host_seconds;
        }
        Self {
            rate: SimRate {
                cycles,
                host_seconds: span_seconds,
            },
            jobs,
            serial_seconds: serial,
        }
    }

    /// Wall-clock speedup over running the same jobs serially
    /// (serial estimate / span; 1.0 for a zero-length span).
    pub fn speedup(&self) -> f64 {
        if self.rate.host_seconds > 0.0 {
            self.serial_seconds / self.rate.host_seconds
        } else {
            1.0
        }
    }

    /// One-line rendering: the merged [`SimRate::render`] plus the batch
    /// context, e.g. `sim rate: ... | 30 jobs: serial estimate 10.1 s,
    /// actual 2.6 s (3.9x)`.
    pub fn render(&self) -> String {
        format!(
            "{} | {} jobs: serial estimate {:.1} s, actual {:.1} s ({:.1}x)",
            self.rate.render(),
            self.jobs,
            self.serial_seconds,
            self.rate.host_seconds,
            self.speedup(),
        )
    }
}

/// Memory-system and scheduler context for [`SimRate::render_with`],
/// typically measured on one representative profiled run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimRateExt {
    /// Total bytes moved to/from DRAM.
    pub dram_bytes: u64,
    /// Simulated seconds covered by `dram_bytes` (for achieved GB/s).
    pub sim_seconds: f64,
    /// Cycles the scheduler fast-forwarded across.
    pub skipped_cycles: u64,
    /// Total scheduler cycles (executed + skipped) for the percentage.
    pub total_cycles: u64,
    /// Component ticks the scheduler actually ran.
    pub ticked_component_cycles: u64,
    /// Component ticks the naive loop would have run (Σ per-component
    /// registered cycles); with `ticked_component_cycles` this shows how
    /// much per-cycle work the active-set scheduler avoided.
    pub registered_component_cycles: u64,
}

/// Stopwatch for producing a [`SimRate`]: start it at the current cycle,
/// run the simulation, and `finish` with the final cycle.
#[derive(Debug)]
pub struct SimRateTimer {
    started: std::time::Instant,
    start_cycle: u64,
}

impl SimRateTimer {
    /// Starts timing at simulated cycle `cycle`.
    pub fn starting_at(cycle: u64) -> Self {
        Self {
            started: std::time::Instant::now(),
            start_cycle: cycle,
        }
    }

    /// Stops timing at simulated cycle `cycle` and returns the rate.
    pub fn finish(self, cycle: u64) -> SimRate {
        SimRate {
            cycles: cycle.saturating_sub(self.start_cycle),
            host_seconds: self.started.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let stats = Stats::new();
        let clone = stats.clone();
        stats.incr("reads");
        clone.add("reads", 4);
        assert_eq!(stats.get("reads"), 5);
        assert_eq!(stats.get("never"), 0);
    }

    #[test]
    fn histogram_tracks_extremes_and_mean() {
        let mut h = Histogram::new();
        for v in [1, 2, 3, 4] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(4));
        assert!((h.mean() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_via_stats() {
        let stats = Stats::new();
        stats.record("latency", 10);
        stats.record("latency", 30);
        let h = stats.histogram("latency").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 40);
        // Regression: `record` creates histograms via `or_default()`; a
        // derived Default once zero-initialized `min`, making every
        // stats-bag histogram report min 0.
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(30));
        assert!(stats.histogram("missing").is_none());
    }

    #[test]
    fn extended_sim_rate_footer_reports_dram_and_skip_ratio() {
        let rate = SimRate {
            cycles: 1_000_000,
            host_seconds: 0.5,
        };
        let ext = SimRateExt {
            dram_bytes: 32 << 20,
            sim_seconds: 4e-3,
            skipped_cycles: 874_000,
            total_cycles: 1_000_000,
            ticked_component_cycles: 120_000,
            registered_component_cycles: 960_000,
        };
        let line = rate.render_with(&ext);
        assert!(line.starts_with("sim rate:"), "{line}");
        assert!(line.contains("dram: 32.0 MB"), "{line}");
        assert!(line.contains("@ 8.4 GB/s"), "{line}");
        assert!(line.contains("skipped: 87.4% of cycles"), "{line}");
        assert!(line.contains("ticked: 12.5% of comp-cycles"), "{line}");
        // Without scheduler context the skip clause is omitted entirely.
        let bare = rate.render_with(&SimRateExt::default());
        assert!(!bare.contains("skipped"), "{bare}");
        assert!(!bare.contains("ticked"), "{bare}");
    }

    #[test]
    fn counters_listing_is_sorted() {
        let stats = Stats::new();
        stats.incr("b");
        stats.incr("a");
        let names: Vec<String> = stats.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn add_and_record_create_on_first_insert_and_accumulate_after() {
        let stats = Stats::new();
        stats.add("zero", 0);
        assert_eq!(stats.counters(), vec![("zero".to_owned(), 0)]);
        stats.add("beats", 3);
        stats.incr("beats");
        stats.add("beats", 0);
        stats.add("zero", 0);
        assert_eq!(
            stats.counters(),
            vec![("beats".to_owned(), 4), ("zero".to_owned(), 0)]
        );
        stats.record("lat", 7);
        stats.record("lat", 9);
        let snap = stats.snapshot();
        assert_eq!(snap.counters, stats.counters());
        assert_eq!(
            snap.histograms,
            vec![(
                "lat".to_owned(),
                HistogramSummary {
                    count: 2,
                    sum: 16,
                    min: Some(7),
                    max: Some(9),
                }
            )]
        );
    }

    #[test]
    fn snapshots_compare_equal_iff_contents_match() {
        let a = Stats::new();
        let b = Stats::new();
        for s in [&a, &b] {
            s.add("reads", 3);
            s.record("latency", 12);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        b.incr("reads");
        assert_ne!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn sim_rate_scales_units() {
        let rate = SimRate {
            cycles: 2_000_000,
            host_seconds: 0.5,
        };
        assert!((rate.cycles_per_sec() - 4e6).abs() < 1.0);
        assert!(rate.render().contains("Mcycles/s"), "got {}", rate.render());
        let zero = SimRate {
            cycles: 100,
            host_seconds: 0.0,
        };
        assert_eq!(zero.cycles_per_sec(), 0.0);
    }

    #[test]
    fn merged_rate_sums_cycles_over_the_span() {
        let jobs = [
            SimRate {
                cycles: 1_000,
                host_seconds: 0.4,
            },
            SimRate {
                cycles: 2_000,
                host_seconds: 0.6,
            },
            SimRate {
                cycles: 3_000,
                host_seconds: 0.5,
            },
        ];
        let merged = MergedSimRate::merge(jobs, 0.75);
        assert_eq!(merged.rate.cycles, 6_000);
        assert_eq!(merged.jobs, 3);
        assert!((merged.serial_seconds - 1.5).abs() < 1e-12);
        assert!((merged.rate.host_seconds - 0.75).abs() < 1e-12);
        assert!((merged.speedup() - 2.0).abs() < 1e-9);
        let line = merged.render();
        assert!(line.starts_with("sim rate:"), "{line}");
        assert!(line.contains("3 jobs"), "{line}");
        assert!(line.contains("(2.0x)"), "{line}");
    }

    #[test]
    fn merged_rate_of_empty_batch_is_inert() {
        let merged = MergedSimRate::merge([], 0.0);
        assert_eq!(merged.rate.cycles, 0);
        assert_eq!(merged.jobs, 0);
        assert_eq!(merged.speedup(), 1.0);
    }

    #[test]
    fn sim_rate_timer_counts_cycles() {
        let timer = SimRateTimer::starting_at(100);
        let rate = timer.finish(350);
        assert_eq!(rate.cycles, 250);
        assert!(rate.host_seconds >= 0.0);
    }

    #[test]
    fn zero_sample_lands_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(0));
    }

    #[test]
    fn percentiles_of_empty_histogram_are_none() {
        let h = Histogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.p90(), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn single_value_histogram_reports_it_at_every_percentile() {
        // Exact powers of two sit on bucket boundaries; clamping to
        // [min, max] must still report the exact value.
        for v in [0u64, 1, 2, 16, 1 << 40, u64::MAX] {
            let mut h = Histogram::new();
            h.record(v);
            assert_eq!(h.p50(), Some(v), "p50 of single sample {v}");
            assert_eq!(h.p90(), Some(v), "p90 of single sample {v}");
            assert_eq!(h.p99(), Some(v), "p99 of single sample {v}");
        }
    }

    #[test]
    fn percentiles_are_monotonic_and_bucket_granular() {
        let mut h = Histogram::new();
        // 90 cheap samples, 9 mid, 1 huge: p50 lands in the cheap bucket,
        // p99 in the tail.
        for _ in 0..90 {
            h.record(3);
        }
        for _ in 0..9 {
            h.record(100);
        }
        h.record(5000);
        let (p50, p90, p99) = (h.p50().unwrap(), h.p90().unwrap(), h.p99().unwrap());
        assert!(p50 <= p90 && p90 <= p99, "{p50} <= {p90} <= {p99}");
        // Sample 3 lives in bucket [2, 4); its inclusive upper bound is 3.
        assert_eq!(p50, 3);
        // Rank 90 is the last cheap sample: still bucket [2, 4).
        assert_eq!(h.percentile(90.0), Some(3));
        // Rank 91 is the first mid sample: bucket [64, 128) caps at 127.
        assert_eq!(h.percentile(91.0), Some(127));
        // The p99 rank (99) is still a mid sample; p100 is the huge one.
        assert_eq!(p99, 127);
        assert_eq!(h.percentile(100.0), Some(5000));
    }

    #[test]
    fn percentile_upper_bounds_clamp_to_observed_max() {
        let mut h = Histogram::new();
        h.record(4); // bucket [4, 8) would report 7 unclamped
        h.record(5);
        assert_eq!(h.p99(), Some(5), "upper bound must clamp to max()");
        assert_eq!(h.p50(), Some(5), "bucket bound 7 clamps to max 5");
    }

    #[test]
    fn histograms_listing_is_sorted() {
        let stats = Stats::new();
        stats.record("b_lat", 2);
        stats.record("a_lat", 1);
        let names: Vec<String> = stats.histograms().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a_lat".to_owned(), "b_lat".to_owned()]);
    }
}
