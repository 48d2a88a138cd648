//! The AXI memory controller: AXI transactions in, DRAM bursts out.
//!
//! Ordering model (the part that matters for the paper's Figure 4/5):
//!
//! * Transactions with **the same AXI ID** are processed in order, and at
//!   most [`ControllerConfig::same_id_inflight`] of them may have DRAM
//!   traffic in flight at once (default 1 — strict serialization, matching
//!   the behaviour the paper observed from the Xilinx DDR controller).
//! * Transactions with **different IDs** proceed concurrently, bounded only
//!   by `max_outstanding_reads`/`max_outstanding_writes`. This is the
//!   "transaction-level parallelism" Beethoven exploits by striping long
//!   copies across IDs.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use bdram::{DramRequest, DramSystem};
use bsim::perf::{Counter, CounterSet};
use bsim::{ClockDomain, Component, Cycle, SimCtx, SparseMemory, StatCounter, Stats, Tracer};

use crate::port::AxiSlavePort;
use crate::types::{validate_burst, AxiParams, BFlit, RFlit};

/// Shared handle to the functional memory image. Backed by `Arc<Mutex<..>>`
/// so a controller — and the `Simulation` holding it — stays `Send`; the
/// lock is uncontended within one simulation. The `borrow`/`borrow_mut`
/// accessor names are kept from the earlier `Rc<RefCell<..>>` incarnation.
#[derive(Debug, Clone)]
pub struct SharedMemory(Arc<Mutex<SparseMemory>>);

impl SharedMemory {
    /// Wraps a functional memory image in a shared handle.
    pub fn new(memory: SparseMemory) -> Self {
        Self(Arc::new(Mutex::new(memory)))
    }

    /// Locks the image for reading.
    pub fn borrow(&self) -> MutexGuard<'_, SparseMemory> {
        self.0.lock().unwrap()
    }

    /// Locks the image for writing.
    pub fn borrow_mut(&self) -> MutexGuard<'_, SparseMemory> {
        self.0.lock().unwrap()
    }
}

impl Default for SharedMemory {
    fn default() -> Self {
        Self::new(SparseMemory::new())
    }
}

/// Controller tuning knobs.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Bus parameters (width, ids, burst limits).
    pub axi: AxiParams,
    /// The fabric clock this controller ticks on.
    pub fabric: ClockDomain,
    /// Maximum same-ID transactions with DRAM traffic in flight (per
    /// direction). 1 reproduces the strict-ordering behaviour of the shell
    /// DDR controller; larger values model a reorder buffer.
    pub same_id_inflight: usize,
    /// Maximum concurrent read transactions across all IDs.
    pub max_outstanding_reads: usize,
    /// Maximum concurrent write transactions across all IDs.
    pub max_outstanding_writes: usize,
    /// DRAM sub-requests the controller may hand to the DRAM queue per
    /// fabric cycle (the DRAM command clock usually runs faster).
    pub dram_issue_per_cycle: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            axi: AxiParams::aws_f1(),
            fabric: ClockDomain::from_mhz(250),
            same_id_inflight: 1,
            max_outstanding_reads: 32,
            max_outstanding_writes: 32,
            dram_issue_per_cycle: 4,
        }
    }
}

#[derive(Debug)]
struct ReadTxn {
    seq: u64,
    id: u32,
    /// Live reads with the same ID accepted before this one (0 = head of
    /// its ID's queue).
    ahead: usize,
    addr: u64,
    beats: u32,
    sub_done: Vec<bool>,
    subs_issued: usize,
    beats_sent: u32,
    accepted_at: Cycle,
}

#[derive(Debug)]
struct WriteTxn {
    seq: u64,
    id: u32,
    /// Live writes with the same ID accepted before this one.
    ahead: usize,
    addr: u64,
    beats: u32,
    beats_recv: u32,
    data: Vec<u8>,
    /// Byte-enable mask accumulated from W strobes.
    mask: Vec<bool>,
    subs_total: usize,
    subs_done: usize,
    subs_issued: usize,
    applied: bool,
    accepted_at: Cycle,
}

/// Removes the transaction at `idx`, which must head its ID's queue, and
/// moves every later transaction with the same ID one place up. `key`
/// projects a transaction to its ID and its `ahead` count.
fn retire<T>(txns: &mut Vec<T>, idx: usize, key: fn(&mut T) -> (u32, &mut usize)) -> T {
    let mut txn = txns.remove(idx);
    let (id, ahead) = key(&mut txn);
    assert_eq!(
        *ahead, 0,
        "retiring a transaction that does not head its ID"
    );
    for later in &mut txns[idx..] {
        let (later_id, later_ahead) = key(later);
        if later_id == id {
            *later_ahead -= 1;
        }
    }
    txn
}

/// The per-ID stats name `{prefix}{id}` from `names`, which is indexed by
/// ID and extended (formatting each missing name once) on an ID's first
/// use.
fn per_id_name<'a>(names: &'a mut Vec<String>, prefix: &str, id: u32) -> &'a str {
    let id = id as usize;
    if id >= names.len() {
        extend_names(names, prefix, id);
    }
    &names[id]
}

#[cold]
fn extend_names(names: &mut Vec<String>, prefix: &str, id: usize) {
    while names.len() <= id {
        names.push(format!("{prefix}{}", names.len()));
    }
}

/// An AXI4 slave backed by a cycle-accurate DRAM model and a functional
/// byte store. Tick it on the fabric clock.
pub struct AxiMemoryController {
    config: ControllerConfig,
    port: AxiSlavePort,
    dram: DramSystem,
    memory: SharedMemory,
    stats: Stats,
    /// Per-beat or per-transaction counters of `stats`, named once.
    ar_accepted: StatCounter,
    aw_accepted: StatCounter,
    w_beats: StatCounter,
    r_beats: StatCounter,
    b_sent: StatCounter,
    /// `read_outstanding_id{N}` / `write_outstanding_id{N}` histogram
    /// names, indexed by AXI ID, each formatted the first time its ID is
    /// accepted.
    read_outstanding_names: Vec<String>,
    write_outstanding_names: Vec<String>,
    tracer: Tracer,

    /// Live reads in accept (seq) order: the first eligible entry is the
    /// oldest, and per-ID order is carried by each entry's `ahead`.
    reads: Vec<ReadTxn>,
    /// Live writes in accept (seq) order.
    writes: Vec<WriteTxn>,
    /// Index in `writes` of the first write still receiving W beats
    /// (`writes.len()` when none is): W beats attach in AW order.
    w_open: usize,
    /// Index in `reads` of the burst currently streaming on R (bursts
    /// don't interleave). Only retiring this burst removes a read, so the
    /// index stays valid while it streams.
    current_r: Option<usize>,
    /// DRAM requests in flight, indexed by `dram_id - dram_base`:
    /// (is_write, txn seq, sub index), `None` once completed. DRAM ids are
    /// handed out in order, so the slab only grows at the back and
    /// drains from the front.
    dram_pending: VecDeque<Option<(bool, u64, usize)>>,
    /// The DRAM id of `dram_pending`'s front slot.
    dram_base: u64,
    next_seq: u64,
    /// Cycles an R beat was ready but the fabric could not take it.
    /// Detached (never counts) until [`AxiMemoryController::attach_perf`].
    perf_r_backpressure: Counter,
    /// Cycles a B response was ready but the fabric could not take it.
    perf_b_backpressure: Counter,
}

impl AxiMemoryController {
    /// Creates a controller from its config, DRAM model, slave port, and a
    /// shared functional memory.
    pub fn new(
        config: ControllerConfig,
        dram: DramSystem,
        port: AxiSlavePort,
        memory: SharedMemory,
    ) -> Self {
        let stats = Stats::new();
        Self {
            config,
            port,
            dram,
            memory,
            ar_accepted: stats.counter("ar_accepted"),
            aw_accepted: stats.counter("aw_accepted"),
            w_beats: stats.counter("w_beats"),
            r_beats: stats.counter("r_beats"),
            b_sent: stats.counter("b_sent"),
            read_outstanding_names: Vec::new(),
            write_outstanding_names: Vec::new(),
            stats,
            tracer: Tracer::new(),
            reads: Vec::new(),
            writes: Vec::new(),
            w_open: 0,
            current_r: None,
            dram_pending: VecDeque::new(),
            dram_base: 0,
            next_seq: 0,
            perf_r_backpressure: Counter::detached(),
            perf_b_backpressure: Counter::detached(),
        }
    }

    /// Registers this controller with a perf [`CounterSet`]: the existing
    /// stats bag (beat counts, latency and occupancy histograms) is
    /// attached for merged reads, and the cheap backpressure counters are
    /// re-minted from the set so they obey the registry's enable flag.
    /// DRAM-side stats need a [`bsim::Shared`] handle and are attached by
    /// the elaborator as a pull provider instead.
    pub fn attach_perf(&mut self, set: &CounterSet) {
        set.attach_stats(&self.stats);
        self.perf_r_backpressure = set.counter("r_backpressure_cycles");
        self.perf_b_backpressure = set.counter("b_backpressure_cycles");
    }

    /// The stats bag (cloneable; counters: `ar_accepted`, `r_beats`,
    /// `aw_accepted`, `w_beats`, `b_sent`; histograms
    /// `read_latency_cycles`, `write_latency_cycles`, and the
    /// `read_outstanding`/`write_outstanding` occupancy families, sampled
    /// at accept time, aggregate and per AXI ID).
    pub fn stats(&self) -> Stats {
        self.stats.clone()
    }

    /// The event tracer (enable it to record Figure-5 style timelines).
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// The functional memory image.
    pub fn memory(&self) -> SharedMemory {
        self.memory.clone()
    }

    /// DRAM-side statistics.
    pub fn dram_stats(&self) -> bdram::ChannelStats {
        self.dram.stats()
    }

    /// DRAM-side statistics, one entry per channel (for per-channel
    /// bandwidth counters in the perf registry).
    pub fn dram_channel_stats(&self) -> Vec<bdram::ChannelStats> {
        self.dram.per_channel_stats()
    }

    /// Bytes one DRAM sub-burst moves (per-channel byte counters scale
    /// channel read/write counts by this).
    pub fn dram_bytes_per_burst(&self) -> u64 {
        self.dram.bytes_per_burst()
    }

    /// Whether no transactions are in flight.
    pub fn is_idle(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    /// Forces the DRAM model's idle-cycle skipping on or off (it defaults
    /// to on unless `BSIM_NAIVE` is set). Cycle-exact either way; exposed
    /// so equivalence tests can pin each mode explicitly.
    pub fn set_event_driven(&mut self, enabled: bool) {
        self.dram.set_event_driven(enabled);
    }

    /// Bytes per DRAM sub-burst.
    fn dram_burst(&self) -> u64 {
        self.dram.bytes_per_burst()
    }

    fn sub_count(&self, bytes: u64) -> usize {
        (bytes.div_ceil(self.dram_burst())) as usize
    }

    /// Which sub-bursts cover AXI beat `beat` of a txn at `addr`.
    fn subs_for_beat(&self, beat: u32) -> (usize, usize) {
        let db = u64::from(self.config.axi.data_bytes);
        let burst = self.dram_burst();
        let lo = (u64::from(beat) * db) / burst;
        let hi = ((u64::from(beat) + 1) * db - 1) / burst;
        (lo as usize, hi as usize)
    }

    /// Whether the DRAM data for `txn`'s next R beat is back.
    fn next_beat_ready(&self, txn: &ReadTxn) -> bool {
        let (lo, hi) = self.subs_for_beat(txn.beats_sent);
        txn.sub_done[lo..=hi].iter().all(|&d| d)
    }

    fn accept_ar(&mut self, ctx: &SimCtx, now: Cycle) {
        if self.reads.len() >= self.config.max_outstanding_reads {
            return;
        }
        let Some(ar) = self.port.ar.recv(ctx, now) else {
            return;
        };
        validate_burst(&self.config.axi, ar.id, ar.addr, ar.beats)
            .unwrap_or_else(|e| panic!("protocol violation on AR: {e}"));
        let bytes = u64::from(ar.beats) * u64::from(self.config.axi.data_bytes);
        let seq = self.next_seq;
        self.next_seq += 1;
        let subs = self.sub_count(bytes);
        let ahead = self.reads.iter().filter(|t| t.id == ar.id).count();
        self.reads.push(ReadTxn {
            seq,
            id: ar.id,
            ahead,
            addr: ar.addr,
            beats: ar.beats,
            sub_done: vec![false; subs],
            subs_issued: 0,
            beats_sent: 0,
            accepted_at: now,
        });
        self.ar_accepted.incr();
        // Occupancy at accept time: per-transaction, so it is identical
        // under the naive and idle-skipping schedulers.
        self.stats
            .record("read_outstanding", self.reads.len() as u64);
        let name = per_id_name(
            &mut self.read_outstanding_names,
            "read_outstanding_id",
            ar.id,
        );
        self.stats.record(name, ahead as u64 + 1);
        self.tracer.record_with(now, "AR", ar.id, || {
            format!("addr={:#x} beats={}", ar.addr, ar.beats)
        });
    }

    fn accept_aw(&mut self, ctx: &SimCtx, now: Cycle) {
        if self.writes.len() >= self.config.max_outstanding_writes {
            return;
        }
        let Some(aw) = self.port.aw.recv(ctx, now) else {
            return;
        };
        validate_burst(&self.config.axi, aw.id, aw.addr, aw.beats)
            .unwrap_or_else(|e| panic!("protocol violation on AW: {e}"));
        let bytes = u64::from(aw.beats) * u64::from(self.config.axi.data_bytes);
        let seq = self.next_seq;
        self.next_seq += 1;
        let ahead = self.writes.iter().filter(|t| t.id == aw.id).count();
        self.writes.push(WriteTxn {
            seq,
            id: aw.id,
            ahead,
            addr: aw.addr,
            beats: aw.beats,
            beats_recv: 0,
            data: vec![0u8; bytes as usize],
            mask: vec![false; bytes as usize],
            subs_total: self.sub_count(bytes),
            subs_done: 0,
            subs_issued: 0,
            applied: false,
            accepted_at: now,
        });
        self.aw_accepted.incr();
        self.stats
            .record("write_outstanding", self.writes.len() as u64);
        let name = per_id_name(
            &mut self.write_outstanding_names,
            "write_outstanding_id",
            aw.id,
        );
        self.stats.record(name, ahead as u64 + 1);
        self.tracer.record_with(now, "AW", aw.id, || {
            format!("addr={:#x} beats={}", aw.addr, aw.beats)
        });
    }

    fn accept_w(&mut self, ctx: &SimCtx, now: Cycle) {
        if self.w_open == self.writes.len() {
            // No open write burst: leave beats queued in the channel.
            return;
        }
        let Some(w) = self.port.w.recv(ctx, now) else {
            return;
        };
        let txn = &mut self.writes[self.w_open];
        let db = self.config.axi.data_bytes as usize;
        assert_eq!(w.data.len(), db, "W beat width mismatch");
        let off = txn.beats_recv as usize * db;
        match &w.strb {
            None => {
                txn.data[off..off + db].copy_from_slice(&w.data);
                txn.mask[off..off + db].fill(true);
            }
            Some(strb) => {
                assert_eq!(strb.len(), db, "W strobe width mismatch");
                for (i, (&byte, &en)) in w.data.iter().zip(strb.iter()).enumerate() {
                    if en {
                        txn.data[off + i] = byte;
                        txn.mask[off + i] = true;
                    }
                }
            }
        }
        txn.beats_recv += 1;
        let id = txn.id;
        let is_last_beat = txn.beats_recv == txn.beats;
        assert_eq!(
            w.last, is_last_beat,
            "W last flag mismatch: beat {}/{}",
            txn.beats_recv, txn.beats
        );
        if is_last_beat {
            self.w_open += 1;
        }
        self.w_beats.incr();
        self.tracer
            .record(now, "W", id, if w.last { "last" } else { "beat" });
    }

    /// Issues DRAM traffic for eligible transactions, oldest first: a
    /// transaction is eligible while fewer than `same_id_inflight` live
    /// transactions of its ID are ahead of it.
    fn issue_dram(&mut self, _now: Cycle) {
        let mut budget = self.config.dram_issue_per_cycle;
        let window = self.config.same_id_inflight;
        let burst = self.dram_burst();

        for txn in &mut self.reads {
            if txn.subs_issued == txn.sub_done.len() || txn.ahead >= window {
                continue;
            }
            if budget == 0 {
                return;
            }
            while budget > 0 && txn.subs_issued < txn.sub_done.len() {
                let sub = txn.subs_issued;
                let addr = txn.addr + sub as u64 * burst;
                let dram_id = self.dram_base + self.dram_pending.len() as u64;
                if self.dram.enqueue(DramRequest::read(dram_id, addr)).is_err() {
                    return; // DRAM queue full: stop issuing entirely.
                }
                self.dram_pending.push_back(Some((false, txn.seq, sub)));
                txn.subs_issued += 1;
                budget -= 1;
            }
        }

        // Writes: only once all data has arrived (store-and-forward).
        for txn in &mut self.writes {
            if txn.beats_recv != txn.beats
                || txn.subs_issued == txn.subs_total
                || txn.ahead >= window
            {
                continue;
            }
            if budget == 0 {
                return;
            }
            // Apply functional bytes once, when the first DRAM write issues.
            if !txn.applied {
                txn.applied = true;
                // Commit contiguous strobed runs so disabled bytes survive.
                let mut mem = self.memory.borrow_mut();
                let mut run_start: Option<usize> = None;
                for i in 0..=txn.mask.len() {
                    let on = i < txn.mask.len() && txn.mask[i];
                    match (run_start, on) {
                        (None, true) => run_start = Some(i),
                        (Some(start), false) => {
                            mem.write(txn.addr + start as u64, &txn.data[start..i]);
                            run_start = None;
                        }
                        _ => {}
                    }
                }
            }
            while budget > 0 && txn.subs_issued < txn.subs_total {
                let sub = txn.subs_issued;
                let addr = txn.addr + sub as u64 * burst;
                let dram_id = self.dram_base + self.dram_pending.len() as u64;
                if self
                    .dram
                    .enqueue(DramRequest::write(dram_id, addr))
                    .is_err()
                {
                    return;
                }
                self.dram_pending.push_back(Some((true, txn.seq, sub)));
                txn.subs_issued += 1;
                budget -= 1;
            }
        }
    }

    fn collect_dram(&mut self, _now: Cycle) {
        while let Some(done) = self.dram.pop_completion() {
            let (is_write, seq, sub) = done
                .id
                .checked_sub(self.dram_base)
                .and_then(|slot| self.dram_pending.get_mut(slot as usize))
                .and_then(Option::take)
                .expect("completion for unknown dram request");
            while let Some(None) = self.dram_pending.front() {
                self.dram_pending.pop_front();
                self.dram_base += 1;
            }
            // A transaction outlives its DRAM traffic: R and B responses
            // wait for every sub-burst.
            if is_write {
                let idx = self
                    .writes
                    .binary_search_by_key(&seq, |t| t.seq)
                    .expect("dram write for a live txn");
                self.writes[idx].subs_done += 1;
            } else {
                let idx = self
                    .reads
                    .binary_search_by_key(&seq, |t| t.seq)
                    .expect("dram read for a live txn");
                self.reads[idx].sub_done[sub] = true;
            }
        }
    }

    /// Emits at most one R beat per cycle; a burst streams contiguously.
    fn emit_r(&mut self, ctx: &SimCtx, now: Cycle) {
        if !self.port.r.can_send(ctx) {
            // Only counted while reads are in flight, so the controller is
            // dense-ticking in both scheduler modes (skip-invariant).
            if !self.reads.is_empty() {
                self.perf_r_backpressure.incr();
            }
            return;
        }
        if self.current_r.is_none() {
            // Pick the oldest head-of-ID txn whose next beat is ready.
            self.current_r = self
                .reads
                .iter()
                .position(|t| t.ahead == 0 && self.next_beat_ready(t));
        }
        let Some(idx) = self.current_r else { return };
        let txn = &self.reads[idx];
        if !self.next_beat_ready(txn) {
            return; // next beat's data not back from DRAM yet
        }
        let db = u64::from(self.config.axi.data_bytes);
        let beat_addr = txn.addr + u64::from(txn.beats_sent) * db;
        let data = self.memory.borrow().read_vec(beat_addr, db as usize);
        let last = txn.beats_sent + 1 == txn.beats;
        let id = txn.id;
        self.port.r.send(ctx, now, RFlit { id, data, last });
        self.r_beats.incr();
        self.tracer
            .record(now, "R", id, if last { "last" } else { "beat" });
        self.reads[idx].beats_sent += 1;
        if last {
            let txn = retire(&mut self.reads, idx, |t| (t.id, &mut t.ahead));
            self.stats
                .record("read_latency_cycles", now - txn.accepted_at);
            self.current_r = None;
        }
    }

    /// Emits at most one B response per cycle, per-ID in order.
    fn emit_b(&mut self, ctx: &SimCtx, now: Cycle) {
        if !self.port.b.can_send(ctx) {
            if !self.writes.is_empty() {
                self.perf_b_backpressure.incr();
            }
            return;
        }
        let Some(idx) = self.writes.iter().position(|t| {
            t.subs_done == t.subs_total
                && t.subs_total == t.subs_issued
                && t.beats_recv == t.beats
                && t.ahead == 0
        }) else {
            return;
        };
        let txn = retire(&mut self.writes, idx, |t| (t.id, &mut t.ahead));
        // A retiring write has all its beats, so it sits before `w_open`.
        self.w_open -= 1;
        self.port.b.send(ctx, now, BFlit { id: txn.id });
        self.b_sent.incr();
        self.stats
            .record("write_latency_cycles", now - txn.accepted_at);
        self.tracer.record(now, "B", txn.id, "resp");
    }
}

impl Component for AxiMemoryController {
    fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
        self.dram
            .advance_to_ps(self.config.fabric.cycles_to_ps(now));
        self.collect_dram(now);
        self.accept_ar(ctx, now);
        self.accept_aw(ctx, now);
        self.accept_w(ctx, now);
        self.issue_dram(now);
        self.emit_r(ctx, now);
        self.emit_b(ctx, now);
    }

    fn name(&self) -> &str {
        "axi-memory-controller"
    }

    fn next_event(&self, ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
        if !self.is_idle() {
            return Some(now + 1);
        }
        // Idle on the AXI side: wake when a request flit becomes visible...
        let mut wake = Cycle::MAX;
        for vis in [
            self.port.ar.next_visible_at(ctx),
            self.port.aw.next_visible_at(ctx),
            self.port.w.next_visible_at(ctx),
        ]
        .into_iter()
        .flatten()
        {
            wake = wake.min(vis.max(now + 1));
        }
        // ...or when the DRAM clock has scheduled work (refresh): a tick at
        // fabric cycle n advances DRAM to cycles strictly before
        // n * period / tck, so the first fabric cycle covering the DRAM
        // event at `event_ps` is ceil((event_ps + tck) / period). Waking
        // there keeps refresh counts identical to the naive loop at every
        // host observation point.
        let event_ps = self.dram.next_event_ps();
        let tck = self.dram.config().timings.tck_ps;
        let period = self.config.fabric.period_ps();
        let dram_wake = (event_ps.saturating_add(tck)).div_ceil(period).max(now + 1);
        Some(wake.min(dram_wake))
    }

    fn register_wakes(&self, ctx: &SimCtx, waker: &bsim::Waker) {
        // The three request directions are the only external inputs; R/B
        // are our outputs and the DRAM heartbeat in `next_event` already
        // bounds refresh work, so no other hook is needed.
        self.port.ar.wake_on_send(ctx, waker);
        self.port.aw.wake_on_send(ctx, waker);
        self.port.w.wake_on_send(ctx, waker);
    }
}

impl std::fmt::Debug for AxiMemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AxiMemoryController")
            .field("reads_in_flight", &self.reads.len())
            .field("writes_in_flight", &self.writes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::{axi_link, AxiMasterPort, PortDepths};
    use crate::types::{ArFlit, AwFlit, WFlit};
    use bdram::DramConfig;
    use bsim::Simulation;

    fn setup(
        cfg: ControllerConfig,
    ) -> (
        AxiMasterPort,
        bsim::Shared<AxiMemoryController>,
        Simulation,
        SharedMemory,
    ) {
        let mut sim = Simulation::new();
        let (master, slave) = axi_link(
            &mut sim,
            PortDepths {
                ar: 16,
                r: 128,
                aw: 16,
                w: 128,
                b: 16,
            },
        );
        let memory = SharedMemory::default();
        let dram = DramSystem::new(DramConfig::ddr4_2400());
        let ctrl = AxiMemoryController::new(cfg, dram, slave, memory.clone());
        let handle = sim.add_shared(ctrl);
        (master, handle, sim, memory)
    }

    #[test]
    fn single_read_returns_correct_data() {
        let (master, ctrl, mut sim, memory) = setup(ControllerConfig::default());
        let payload: Vec<u8> = (0..256).map(|i| (i % 251) as u8).collect();
        memory.borrow_mut().write(0x1000, &payload);
        master.ar.send(
            sim.ctx(),
            0,
            ArFlit {
                id: 2,
                addr: 0x1000,
                beats: 4,
            },
        );
        let mut got = Vec::new();
        let mut saw_last = false;
        sim.run_until(10_000, |_| false).ok();
        while let Some(r) = master.r.recv(sim.ctx(), sim.now()) {
            assert_eq!(r.id, 2);
            saw_last = r.last;
            got.extend_from_slice(&r.data);
        }
        assert!(saw_last, "burst should terminate with last");
        assert_eq!(got, payload);
        assert!(sim.get(ctrl).is_idle());
    }

    #[test]
    fn single_write_lands_in_memory_and_acks() {
        let (master, ctrl, mut sim, memory) = setup(ControllerConfig::default());
        master.aw.send(
            sim.ctx(),
            0,
            AwFlit {
                id: 1,
                addr: 0x2000,
                beats: 2,
            },
        );
        for beat in 0..2u8 {
            master
                .w
                .send(sim.ctx(), 0, WFlit::full(vec![beat + 1; 64], beat == 1));
        }
        let b = loop {
            sim.step();
            if let Some(b) = master.b.recv(sim.ctx(), sim.now()) {
                break b;
            }
            assert!(sim.now() < 10_000, "write never acknowledged");
        };
        assert_eq!(b.id, 1);
        assert_eq!(memory.borrow().read_vec(0x2000, 64), vec![1u8; 64]);
        assert_eq!(memory.borrow().read_vec(0x2040, 64), vec![2u8; 64]);
        assert!(sim.get(ctrl).is_idle());
    }

    #[test]
    fn strobed_write_touches_only_enabled_bytes() {
        let (master, _ctrl, mut sim, memory) = setup(ControllerConfig::default());
        memory.borrow_mut().write(0x3000, &[0xFFu8; 64]);
        let mut strb = vec![false; 64];
        strb[0] = true;
        strb[63] = true;
        master.aw.send(
            sim.ctx(),
            0,
            AwFlit {
                id: 0,
                addr: 0x3000,
                beats: 1,
            },
        );
        master.w.send(
            sim.ctx(),
            0,
            WFlit {
                data: vec![0xAA; 64],
                strb: Some(strb),
                last: true,
            },
        );
        loop {
            sim.step();
            if master.b.recv(sim.ctx(), sim.now()).is_some() {
                break;
            }
            assert!(sim.now() < 10_000);
        }
        let out = memory.borrow().read_vec(0x3000, 64);
        assert_eq!(out[0], 0xAA);
        assert_eq!(out[63], 0xAA);
        assert_eq!(out[1], 0xFF);
    }

    /// The paper's §III-A observation: four 16-beat reads on one ID finish
    /// slower than the same reads striped across four IDs.
    #[test]
    fn multi_id_reads_beat_same_id_reads() {
        let run = |ids: [u32; 4]| -> Cycle {
            let (master, _ctrl, mut sim, _memory) = setup(ControllerConfig::default());
            for (i, id) in ids.into_iter().enumerate() {
                master.ar.send(
                    sim.ctx(),
                    0,
                    ArFlit {
                        id,
                        addr: 0x10000 + i as u64 * 1024,
                        beats: 16,
                    },
                );
            }
            let mut lasts = 0;
            let mut finish = 0;
            while lasts < 4 {
                sim.step();
                while let Some(r) = master.r.recv(sim.ctx(), sim.now()) {
                    if r.last {
                        lasts += 1;
                        finish = sim.now();
                    }
                }
                assert!(sim.now() < 100_000, "reads never finished");
            }
            finish
        };
        let same_id = run([0, 0, 0, 0]);
        let multi_id = run([0, 1, 2, 3]);
        assert!(
            multi_id < same_id,
            "multi-ID ({multi_id} cycles) should beat same-ID ({same_id} cycles)"
        );
    }

    #[test]
    fn read_your_write() {
        let (master, _ctrl, mut sim, _memory) = setup(ControllerConfig::default());
        master.aw.send(
            sim.ctx(),
            0,
            AwFlit {
                id: 0,
                addr: 0x4000,
                beats: 1,
            },
        );
        master
            .w
            .send(sim.ctx(), 0, WFlit::full(vec![7u8; 64], true));
        loop {
            sim.step();
            if master.b.recv(sim.ctx(), sim.now()).is_some() {
                break;
            }
            assert!(sim.now() < 10_000);
        }
        master.ar.send(
            sim.ctx(),
            sim.now(),
            ArFlit {
                id: 0,
                addr: 0x4000,
                beats: 1,
            },
        );
        loop {
            sim.step();
            if let Some(r) = master.r.recv(sim.ctx(), sim.now()) {
                assert_eq!(r.data, vec![7u8; 64]);
                break;
            }
            assert!(sim.now() < 20_000);
        }
    }

    #[test]
    #[should_panic(expected = "protocol violation")]
    fn oversized_burst_panics() {
        let (master, _ctrl, mut sim, _memory) = setup(ControllerConfig::default());
        master.ar.send(
            sim.ctx(),
            0,
            ArFlit {
                id: 0,
                addr: 0,
                beats: 65,
            },
        );
        sim.run_for(5);
    }

    #[test]
    fn stats_count_traffic() {
        let (master, ctrl, mut sim, _memory) = setup(ControllerConfig::default());
        master.ar.send(
            sim.ctx(),
            0,
            ArFlit {
                id: 0,
                addr: 0,
                beats: 4,
            },
        );
        let mut lasts = 0;
        while lasts < 1 {
            sim.step();
            while let Some(r) = master.r.recv(sim.ctx(), sim.now()) {
                if r.last {
                    lasts += 1;
                }
            }
            assert!(sim.now() < 10_000);
        }
        let stats = sim.get(ctrl).stats();
        assert_eq!(stats.get("ar_accepted"), 1);
        assert_eq!(stats.get("r_beats"), 4);
        assert!(stats.histogram("read_latency_cycles").unwrap().count() == 1);
    }

    #[test]
    fn occupancy_histograms_track_outstanding_reads() {
        let (master, ctrl, mut sim, _memory) = setup(ControllerConfig::default());
        for i in 0..4u32 {
            master.ar.send(
                sim.ctx(),
                0,
                ArFlit {
                    id: i,
                    addr: u64::from(i) * 4096,
                    beats: 4,
                },
            );
        }
        let mut lasts = 0;
        while lasts < 4 {
            sim.step();
            while let Some(r) = master.r.recv(sim.ctx(), sim.now()) {
                lasts += u64::from(r.last);
            }
            assert!(sim.now() < 100_000);
        }
        let stats = sim.get(ctrl).stats();
        let occ = stats.histogram("read_outstanding").unwrap();
        assert_eq!(occ.count(), 4, "one occupancy sample per accepted AR");
        assert_eq!(occ.max(), Some(4), "all four reads overlapped");
        let per_id = stats.histogram("read_outstanding_id2").unwrap();
        assert_eq!(per_id.count(), 1);
        assert_eq!(per_id.max(), Some(1));
    }

    #[test]
    fn backpressure_counter_counts_only_when_enabled() {
        use bsim::PerfRegistry;
        // A tiny R queue the host never drains forces backpressure.
        let mut sim = Simulation::new();
        let (master, slave) = axi_link(
            &mut sim,
            PortDepths {
                ar: 16,
                r: 1,
                aw: 16,
                w: 16,
                b: 16,
            },
        );
        let memory = SharedMemory::default();
        let dram = DramSystem::new(DramConfig::ddr4_2400());
        let mut ctrl = AxiMemoryController::new(ControllerConfig::default(), dram, slave, memory);
        let perf = PerfRegistry::new();
        ctrl.attach_perf(&perf.set("mem0"));
        perf.set_enabled(true);
        sim.add_shared(ctrl);
        master.ar.send(
            sim.ctx(),
            0,
            ArFlit {
                id: 0,
                addr: 0,
                beats: 8,
            },
        );
        sim.run_for(5_000);
        let stalled = perf.counter("mem0/r_backpressure_cycles").unwrap();
        assert!(stalled > 0, "an undrained R queue must register stalls");
        assert_eq!(perf.counter("mem0/ar_accepted"), Some(1));
    }

    #[test]
    fn tracer_records_channel_events() {
        let (master, ctrl, mut sim, _memory) = setup(ControllerConfig::default());
        sim.get(ctrl).tracer().set_enabled(true);
        master.ar.send(
            sim.ctx(),
            0,
            ArFlit {
                id: 3,
                addr: 0,
                beats: 2,
            },
        );
        let mut done = false;
        while !done {
            sim.step();
            while let Some(r) = master.r.recv(sim.ctx(), sim.now()) {
                done |= r.last;
            }
            assert!(sim.now() < 10_000);
        }
        let tracer = sim.get(ctrl).tracer();
        assert_eq!(tracer.events_on("AR").len(), 1);
        assert_eq!(tracer.events_on("R").len(), 2);
    }
}
