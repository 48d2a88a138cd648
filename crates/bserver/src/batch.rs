//! Batched dispatch configuration and the adaptive batch-size controller.
//!
//! The paper's runtime server pays one lock acquisition, one doorbell
//! sleep, and one harvest per command. [`BatchPolicy`] lets the
//! dispatcher collect up to `B` ready commands and submit them under a
//! single lock visit ([`bruntime::FpgaHandle::call_batch`]), with the
//! matching response side coalesced by
//! `bcore::SocSim::drain_ready_responses`. `Fixed(1)`, the default, is
//! that one-command-per-visit server (a one-item `call_batch` is
//! cycle-identical to `call`), while `Auto` lets [`AutoBatcher`] widen
//! and narrow `B` from windowed queue-depth and queue-wait-p99 signals.

use bsim::Cycle;

/// Upper bound the adaptive controller will widen to (matches the
/// largest fixed setting the batching ablation sweeps).
const MAX_AUTO_BATCH: usize = 16;

/// Cycles per controller window; matches the telemetry default so the
/// controller reacts on the same timescale the `--telemetry` time-series
/// reports.
const AUTO_WINDOW_CYCLES: Cycle = 4096;

/// How many ready commands one dispatcher visit may submit under a
/// single lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Collect up to `n` ready commands per visit. `Fixed(1)` is the
    /// default: one command per lock visit.
    Fixed(usize),
    /// Let the per-server adaptive controller choose the width each window.
    Auto,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::Fixed(1)
    }
}

impl std::fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchPolicy::Fixed(n) => write!(f, "{n}"),
            BatchPolicy::Auto => write!(f, "auto"),
        }
    }
}

impl std::str::FromStr for BatchPolicy {
    type Err = String;

    /// Parses the `--batch` flag grammar: `auto` or a positive integer.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("auto") {
            return Ok(BatchPolicy::Auto);
        }
        match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(BatchPolicy::Fixed(n)),
            _ => Err(format!(
                "bad batch size '{s}' (want a positive integer or 'auto')"
            )),
        }
    }
}

/// The per-server adaptive batch-size controller.
///
/// Tumbling windows of [`AUTO_WINDOW_CYCLES`]; inside a window it tracks
/// the peak queued-job depth and every dispatched job's queue wait. At
/// rollover:
///
/// * queue-wait p99 more than doubled since the last window → halve `B`
///   (batching is hurting the tail);
/// * else peak depth ≥ 2·`B` → double `B` (backlog justifies a wider
///   window), capped at [`MAX_AUTO_BATCH`];
/// * else peak depth ≤ `B`/2 → halve `B` (demand fell), floored at 1.
///
/// Everything is a pure function of observed cycles and depths, so a
/// fleet of auto-batching shards stays deterministic for a given seed
/// and shard count regardless of worker threads.
pub(crate) struct AutoBatcher {
    window_start: Cycle,
    b: usize,
    depth_peak: u64,
    waits: Vec<u64>,
    prev_p99: Option<u64>,
}

impl AutoBatcher {
    pub(crate) fn new(start_cycle: Cycle) -> Self {
        Self {
            window_start: start_cycle,
            b: 1,
            depth_peak: 0,
            waits: Vec::new(),
            prev_p99: None,
        }
    }

    /// The batch width to use right now.
    pub(crate) fn current(&self) -> usize {
        self.b
    }

    /// Feeds one dispatcher visit: the queued-job depth it saw and the
    /// queue waits of the jobs it dispatched. Rolls any windows `now`
    /// has passed first, so the width already reflects closed windows.
    pub(crate) fn observe(&mut self, now: Cycle, depth: u64, waits: &[u64]) {
        self.roll_to(now);
        self.depth_peak = self.depth_peak.max(depth);
        self.waits.extend_from_slice(waits);
    }

    fn roll_to(&mut self, now: Cycle) {
        while now >= self.window_start + AUTO_WINDOW_CYCLES {
            self.window_start += AUTO_WINDOW_CYCLES;
            self.roll();
        }
    }

    fn roll(&mut self) {
        let p99 = if self.waits.is_empty() {
            None
        } else {
            self.waits.sort_unstable();
            let idx = (self.waits.len() * 99 / 100).min(self.waits.len() - 1);
            Some(self.waits[idx])
        };
        let tail_worsened = matches!(
            (p99, self.prev_p99),
            (Some(cur), Some(prev)) if cur > prev.saturating_mul(2)
        );
        if tail_worsened {
            self.b = (self.b / 2).max(1);
        } else if self.depth_peak >= 2 * self.b as u64 {
            self.b = (self.b * 2).min(MAX_AUTO_BATCH);
        } else if self.depth_peak <= (self.b / 2) as u64 {
            self.b = (self.b / 2).max(1);
        }
        if p99.is_some() {
            self.prev_p99 = p99;
        }
        self.depth_peak = 0;
        self.waits.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_flag_grammar() {
        assert_eq!("auto".parse::<BatchPolicy>(), Ok(BatchPolicy::Auto));
        assert_eq!("AUTO".parse::<BatchPolicy>(), Ok(BatchPolicy::Auto));
        assert_eq!("1".parse::<BatchPolicy>(), Ok(BatchPolicy::Fixed(1)));
        assert_eq!("16".parse::<BatchPolicy>(), Ok(BatchPolicy::Fixed(16)));
        assert!("0".parse::<BatchPolicy>().is_err());
        assert!("-3".parse::<BatchPolicy>().is_err());
        assert!("wide".parse::<BatchPolicy>().is_err());
        assert_eq!(BatchPolicy::default(), BatchPolicy::Fixed(1));
        assert_eq!(BatchPolicy::Fixed(4).to_string(), "4");
        assert_eq!(BatchPolicy::Auto.to_string(), "auto");
    }

    #[test]
    fn controller_widens_under_backlog_and_narrows_when_idle() {
        let mut ctl = AutoBatcher::new(0);
        assert_eq!(ctl.current(), 1);
        // Sustained deep backlog: doubles every window up to the cap.
        let mut now = 0;
        for _ in 0..8 {
            ctl.observe(now, 64, &[100, 100]);
            now += AUTO_WINDOW_CYCLES;
        }
        ctl.observe(now, 64, &[100]);
        assert_eq!(ctl.current(), MAX_AUTO_BATCH, "backlog widens to the cap");
        // Demand disappears: empty windows walk it back down to 1.
        now += 20 * AUTO_WINDOW_CYCLES;
        ctl.observe(now, 0, &[]);
        assert_eq!(ctl.current(), 1, "idle windows narrow back to 1");
    }

    #[test]
    fn controller_backs_off_when_tail_latency_doubles() {
        let mut ctl = AutoBatcher::new(0);
        // Window 0: backlog with a modest tail — widen to 2.
        ctl.observe(0, 8, &[100, 100, 100]);
        ctl.observe(AUTO_WINDOW_CYCLES, 8, &[500, 500, 500]);
        assert_eq!(ctl.current(), 2);
        // Window 1 closed with p99 500 (> 2×100): halve despite backlog.
        ctl.observe(2 * AUTO_WINDOW_CYCLES, 8, &[500]);
        assert_eq!(ctl.current(), 1, "tail regression overrides depth");
    }

    #[test]
    fn controller_is_deterministic() {
        let run = || {
            let mut ctl = AutoBatcher::new(100);
            let mut widths = Vec::new();
            for i in 0..50u64 {
                ctl.observe(100 + i * 1000, i % 17, &[i * 3, i * 5]);
                widths.push(ctl.current());
            }
            widths
        };
        assert_eq!(run(), run());
    }
}
