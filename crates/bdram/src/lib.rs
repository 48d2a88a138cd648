//! # bdram — a cycle-accurate DRAM timing model
//!
//! Plays the role DRAMSim3 plays in the paper's simulation platform
//! (§II-D): the Beethoven memory controller hands it single-burst requests
//! and it decides *when* each completes, modelling banks, row buffers,
//! per-bank timing constraints (tRCD/tRP/tRAS/CL/…), the shared data bus,
//! FR-FCFS scheduling, and periodic refresh.
//!
//! The model is time-driven in its own clock domain: callers advance it to
//! an absolute picosecond timestamp with [`DramSystem::advance_to_ps`], and
//! completions are reported with picosecond timestamps, so fabric and DRAM
//! clocks need not be related.
//!
//! ```rust
//! use bdram::{DramConfig, DramRequest, DramSystem};
//!
//! let mut dram = DramSystem::new(DramConfig::ddr4_2400());
//! dram.enqueue(DramRequest::read(1, 0x0)).unwrap();
//! dram.advance_to_ps(1_000_000); // run 1 us
//! let done = dram.pop_completion().expect("read completes within 1 us");
//! assert_eq!(done.id, 1);
//! ```

#![warn(missing_docs)]

mod addr;
mod bank;
mod channel;
mod config;

pub use addr::{AddressMapping, DecodedAddr};
pub use channel::{ChannelStats, DramChannel};
pub use config::{DramConfig, DramConfigError, DramTimings, PagePolicy};

use std::collections::VecDeque;

/// A single-burst DRAM request (one BL8 column access worth of data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Caller-chosen identifier returned with the completion.
    pub id: u64,
    /// Byte address.
    pub addr: u64,
    /// Whether this is a write.
    pub is_write: bool,
}

impl DramRequest {
    /// Creates a read request.
    pub fn read(id: u64, addr: u64) -> Self {
        Self {
            id,
            addr,
            is_write: false,
        }
    }

    /// Creates a write request.
    pub fn write(id: u64, addr: u64) -> Self {
        Self {
            id,
            addr,
            is_write: true,
        }
    }
}

/// A completed request and the picosecond time its data finished on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCompletion {
    /// The id passed in the request.
    pub id: u64,
    /// Byte address of the request.
    pub addr: u64,
    /// Whether it was a write.
    pub is_write: bool,
    /// Absolute completion time in picoseconds.
    pub done_ps: u64,
}

/// A multi-channel DRAM subsystem.
///
/// Requests are routed to channels by the configured address mapping; each
/// channel schedules independently (FR-FCFS) and shares nothing but the
/// caller's clock.
pub struct DramSystem {
    config: DramConfig,
    channels: Vec<DramChannel>,
    completions: VecDeque<DramCompletion>,
    /// DRAM cycles simulated so far.
    dram_cycle: u64,
    /// When true (the default), [`DramSystem::advance_to_ps`] skips DRAM
    /// cycles on which every channel is provably a no-op. Disabled by the
    /// same `BSIM_NAIVE` environment variable as the bsim scheduler, read
    /// through [`bsim::event_driven_from_env`], so guard-mode A/B runs
    /// exercise the plain cycle loop.
    event_driven: bool,
}

impl DramSystem {
    /// Creates a DRAM system from a configuration.
    pub fn new(config: DramConfig) -> Self {
        let channels = (0..config.channels)
            .map(|_| DramChannel::new(config.clone()))
            .collect();
        Self {
            config,
            channels,
            completions: VecDeque::new(),
            dram_cycle: 0,
            event_driven: bsim::event_driven_from_env(),
        }
    }

    /// Enables or disables idle-cycle skipping inside
    /// [`DramSystem::advance_to_ps`]. Results are identical either way;
    /// only host time changes.
    pub fn set_event_driven(&mut self, enabled: bool) {
        self.event_driven = enabled;
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Attempts to enqueue a request; fails (returning it) if the target
    /// channel's queue is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(request)` when the channel command queue is at capacity;
    /// the caller should retry after advancing time (backpressure).
    pub fn enqueue(&mut self, request: DramRequest) -> Result<(), DramRequest> {
        let decoded = self.config.mapping.decode(request.addr, &self.config);
        let channel = &mut self.channels[decoded.channel as usize];
        channel.enqueue(request, decoded, self.dram_cycle)
    }

    /// Whether the channel that `addr` maps to can accept another request.
    pub fn can_accept(&self, addr: u64) -> bool {
        let decoded = self.config.mapping.decode(addr, &self.config);
        self.channels[decoded.channel as usize].can_accept()
    }

    /// Advances the DRAM clock so that all cycles beginning strictly before
    /// `ps` have been simulated, collecting completions.
    ///
    /// Cycles on which no channel can act — no waiting request's next
    /// command is legal yet, no refresh event or pending auto-precharge
    /// (see [`DramChannel::next_active_at`]) — are skipped in one jump
    /// rather than executed, busy or not. Requests whose data finished
    /// before the new DRAM cycle retire at the end of the call, merged
    /// across channels in (done cycle, channel) order, the order
    /// cycle-by-cycle ticking retires them in; completions, freed queue
    /// slots and statistics are identical either way.
    pub fn advance_to_ps(&mut self, ps: u64) {
        let target_cycle = ps / self.config.timings.tck_ps;
        while self.dram_cycle < target_cycle {
            if self.event_driven {
                let wake = self
                    .channels
                    .iter()
                    .map(|c| c.next_active_at(self.dram_cycle))
                    .min()
                    .unwrap_or(target_cycle);
                if wake > self.dram_cycle {
                    self.dram_cycle = wake.min(target_cycle);
                    continue;
                }
            }
            for channel in &mut self.channels {
                channel.tick(self.dram_cycle);
            }
            self.dram_cycle += 1;
        }
        self.retire();
    }

    /// Moves every request whose data finished before the current DRAM
    /// cycle to the completion queue, earliest done cycle first and, on a
    /// tie, lowest channel first. Done cycles rise along each channel's
    /// in-flight FIFO, so when the earliest front has not finished, nothing
    /// has.
    fn retire(&mut self) {
        let end = self.dram_cycle;
        let tck = self.config.timings.tck_ps;
        loop {
            let next = self
                .channels
                .iter()
                .enumerate()
                .filter_map(|(idx, c)| c.next_done().map(|done| (done, idx)))
                .min();
            let Some((req, done)) = next.and_then(|(_, idx)| self.channels[idx].retire_before(end))
            else {
                return;
            };
            self.completions.push_back(DramCompletion {
                id: req.id,
                addr: req.addr,
                is_write: req.is_write,
                done_ps: done * tck,
            });
        }
    }

    /// The earliest absolute picosecond time at which advancing this system
    /// may do anything observable: immediately if completions are waiting
    /// to be popped, otherwise the earliest channel activity — a refresh
    /// event, a waiting request's next command becoming legal (see
    /// [`DramChannel::next_active_at`]), or an in-flight request's data
    /// finishing (see [`DramChannel::next_done`]). This is the DRAM clock's
    /// contribution to the memory controller's `next_event`.
    pub fn next_event_ps(&self) -> u64 {
        let tck = self.config.timings.tck_ps;
        if !self.completions.is_empty() {
            return self.dram_cycle * tck;
        }
        let wake = self
            .channels
            .iter()
            .map(|c| {
                let done = c.next_done().unwrap_or(u64::MAX);
                c.next_active_at(self.dram_cycle).min(done)
            })
            .min()
            .unwrap_or(self.dram_cycle);
        wake * tck
    }

    /// Pops the oldest completion, if any.
    pub fn pop_completion(&mut self) -> Option<DramCompletion> {
        self.completions.pop_front()
    }

    /// Whether any requests are still queued or in flight.
    pub fn is_busy(&self) -> bool {
        self.channels.iter().any(DramChannel::is_busy) || !self.completions.is_empty()
    }

    /// Aggregated statistics across channels.
    pub fn stats(&self) -> ChannelStats {
        let mut total = ChannelStats::default();
        for channel in &self.channels {
            total.merge(channel.stats());
        }
        total
    }

    /// Per-channel statistics snapshots, in channel order — the source of
    /// per-channel bandwidth counters in perf reports.
    pub fn per_channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(DramChannel::stats).collect()
    }

    /// Bytes transferred per burst (bus width × burst length).
    pub fn bytes_per_burst(&self) -> u64 {
        self.config.bytes_per_burst()
    }
}

impl std::fmt::Debug for DramSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramSystem")
            .field("channels", &self.channels.len())
            .field("dram_cycle", &self.dram_cycle)
            .field("pending_completions", &self.completions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(mut dram: DramSystem, req: DramRequest) -> DramCompletion {
        dram.enqueue(req).unwrap();
        dram.advance_to_ps(10_000_000);
        dram.pop_completion().expect("request should complete")
    }

    #[test]
    fn single_read_completes_with_activation_latency() {
        let cfg = DramConfig::ddr4_2400();
        let t = cfg.timings.clone();
        let done = run_one(DramSystem::new(cfg), DramRequest::read(7, 0));
        assert_eq!(done.id, 7);
        // Must include at least tRCD + CL + burst time.
        let min_ps = (t.t_rcd + t.cl + t.burst_cycles()) * t.tck_ps;
        assert!(done.done_ps >= min_ps, "{} < {}", done.done_ps, min_ps);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let cfg = DramConfig::ddr4_2400();
        let mut dram = DramSystem::new(cfg.clone());
        // Two reads to the same row: second should be a row hit.
        dram.enqueue(DramRequest::read(1, 0)).unwrap();
        dram.enqueue(DramRequest::read(2, 64)).unwrap();
        dram.advance_to_ps(10_000_000);
        let first = dram.pop_completion().unwrap();
        let second = dram.pop_completion().unwrap();
        let hit_gap = second.done_ps - first.done_ps;

        // Two reads to different rows of the same bank: row conflict.
        let mut dram = DramSystem::new(cfg.clone());
        let row_stride = cfg.row_stride_bytes();
        dram.enqueue(DramRequest::read(1, 0)).unwrap();
        dram.enqueue(DramRequest::read(2, row_stride)).unwrap();
        dram.advance_to_ps(10_000_000);
        let first = dram.pop_completion().unwrap();
        let second = dram.pop_completion().unwrap();
        let conflict_gap = second.done_ps - first.done_ps;

        assert!(
            conflict_gap > hit_gap,
            "row conflict ({conflict_gap} ps) should exceed row hit ({hit_gap} ps)"
        );
    }

    #[test]
    fn sequential_stream_reaches_high_bus_utilization() {
        let cfg = DramConfig::ddr4_2400();
        let bpb = cfg.bytes_per_burst();
        let mut dram = DramSystem::new(cfg.clone());
        let bursts = 512u64;
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut last_done = 0u64;
        let mut ps = 0u64;
        while completed < bursts {
            while issued < bursts {
                if dram
                    .enqueue(DramRequest::read(issued, issued * bpb))
                    .is_ok()
                {
                    issued += 1;
                } else {
                    break;
                }
            }
            ps += 100_000;
            dram.advance_to_ps(ps);
            while let Some(c) = dram.pop_completion() {
                completed += 1;
                last_done = last_done.max(c.done_ps);
            }
            assert!(ps < 1_000_000_000, "stream did not finish");
        }
        let bytes = bursts * bpb;
        let secs = last_done as f64 / 1e12;
        let bw = bytes as f64 / secs;
        let peak = cfg.peak_bandwidth_bytes_per_sec();
        assert!(
            bw > 0.5 * peak,
            "sequential read bandwidth {bw:.2e} should be >50% of peak {peak:.2e}"
        );
    }

    #[test]
    fn writes_complete_too() {
        let done = run_one(
            DramSystem::new(DramConfig::ddr4_2400()),
            DramRequest::write(3, 0x1000),
        );
        assert!(done.is_write);
        assert_eq!(done.id, 3);
    }

    #[test]
    fn backpressure_when_queue_full() {
        let mut cfg = DramConfig::ddr4_2400();
        cfg.queue_depth = 2;
        let mut dram = DramSystem::new(cfg);
        assert!(dram.enqueue(DramRequest::read(0, 0)).is_ok());
        assert!(dram.enqueue(DramRequest::read(1, 64)).is_ok());
        assert!(dram.enqueue(DramRequest::read(2, 128)).is_err());
        assert!(!dram.can_accept(128));
    }

    #[test]
    fn multi_channel_requests_all_complete() {
        let mut cfg = DramConfig::ddr4_2400();
        cfg.channels = 2;
        let mut dram = DramSystem::new(cfg);
        for i in 0..8 {
            dram.enqueue(DramRequest::read(i, i * 64)).unwrap();
        }
        dram.advance_to_ps(10_000_000);
        let stats = dram.stats();
        assert_eq!(stats.reads, 8);
        let mut seen = 0;
        while dram.pop_completion().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 8);
    }

    #[test]
    fn idle_skipping_advance_matches_naive() {
        // Bursts of traffic separated by idle gaps spanning several refresh
        // intervals: the skipping path must produce byte-identical
        // completions and stats (including refresh counts) to the naive one.
        let run = |event_driven: bool| {
            let mut dram = DramSystem::new(DramConfig::ddr4_2400());
            dram.set_event_driven(event_driven);
            let mut completions = Vec::new();
            let mut ps = 0u64;
            for burst in 0..4u64 {
                for i in 0..8u64 {
                    let id = burst * 8 + i;
                    dram.enqueue(DramRequest::read(id, id * 64)).unwrap();
                }
                ps += 60_000_000; // 60 us: tens of thousands of DRAM cycles
                dram.advance_to_ps(ps);
                while let Some(c) = dram.pop_completion() {
                    completions.push(c);
                }
            }
            (completions, dram.stats())
        };
        let naive = run(false);
        let fast = run(true);
        assert!(naive.1.refreshes > 0, "gaps should span refreshes");
        assert_eq!(naive, fast);
    }

    /// A read issued in one call finishes inside the next call's skipped
    /// gap (nothing else is due before the first refresh). It still pops
    /// from that call with the done time per-cycle ticking gives, and its
    /// queue slot is free when the call returns.
    #[test]
    fn request_finishing_in_a_skipped_gap_retires_in_that_call() {
        let mut cfg = DramConfig::ddr4_2400();
        cfg.queue_depth = 1;
        let t = cfg.timings.clone();
        let done = t.t_rcd + t.cl + t.burst_cycles();
        for event_driven in [false, true] {
            let mut dram = DramSystem::new(cfg.clone());
            dram.set_event_driven(event_driven);
            dram.enqueue(DramRequest::read(0, 0)).unwrap();
            // ACT at 0, RD at tRCD: in flight when this call returns.
            dram.advance_to_ps((t.t_rcd + 1) * t.tck_ps);
            assert!(dram.pop_completion().is_none());
            assert!(!dram.can_accept(64), "the in-flight read holds the slot");
            // A call ending on the done cycle has not simulated it yet.
            dram.advance_to_ps(done * t.tck_ps);
            assert!(dram.pop_completion().is_none());
            dram.advance_to_ps((t.t_refi - 1) * t.tck_ps);
            assert!(dram.can_accept(64), "slot freed in the same call");
            let c = dram.pop_completion().expect("retired in the gap");
            assert_eq!((c.id, c.done_ps), (0, done * t.tck_ps));
            assert_eq!(dram.stats().refreshes, 0, "nothing else ran");
            assert!(dram.enqueue(DramRequest::read(1, 64)).is_ok());
        }
    }

    /// Completions from several channels inside one call come out in
    /// done-cycle order, ties broken by channel index, whatever the
    /// request ids or enqueue order.
    #[test]
    fn completions_merge_across_channels_in_done_order() {
        let mut cfg = DramConfig::ddr4_2400();
        cfg.channels = 2;
        let t = cfg.timings.clone();
        // Under RoBaRaCoCh consecutive bursts alternate channels.
        let (ch0, ch1) = (0, cfg.bytes_per_burst());
        let run = |requests: [DramRequest; 2]| {
            let mut dram = DramSystem::new(cfg.clone());
            for req in requests {
                dram.enqueue(req).unwrap();
            }
            dram.advance_to_ps(1_000 * t.tck_ps);
            std::iter::from_fn(|| dram.pop_completion())
                .map(|c| (c.id, c.done_ps / t.tck_ps))
                .collect::<Vec<_>>()
        };
        // Both ACT at 0 and issue their column at tRCD; the write on
        // channel 1 finishes CL - CWL cycles before the read on channel 0.
        let read_done = t.t_rcd + t.cl + t.burst_cycles();
        let write_done = t.t_rcd + t.cwl + t.burst_cycles();
        assert!(write_done < read_done);
        assert_eq!(
            run([DramRequest::read(0, ch0), DramRequest::write(1, ch1)]),
            vec![(1, write_done), (0, read_done)]
        );
        // Same done cycle: channel 0 first.
        assert_eq!(
            run([DramRequest::read(0, ch1), DramRequest::read(1, ch0)]),
            vec![(1, read_done), (0, read_done)]
        );
    }

    #[test]
    fn is_busy_reflects_outstanding_work() {
        let mut dram = DramSystem::new(DramConfig::ddr4_2400());
        assert!(!dram.is_busy());
        dram.enqueue(DramRequest::read(0, 0)).unwrap();
        assert!(dram.is_busy());
        dram.advance_to_ps(10_000_000);
        assert!(dram.is_busy(), "completion not yet popped");
        dram.pop_completion();
        assert!(!dram.is_busy());
    }
}
