//! Memory stream primitives: [`Reader`], [`Writer`], [`Scratchpad`].
//!
//! These are the paper's §II-B abstractions: a core declares logically
//! separate memory streams; Beethoven generates the machinery that turns
//! them into efficient AXI traffic. The key performance feature is
//! *transaction-level parallelism* (TLP): a long stream is emitted as
//! multiple concurrent AXI transactions on **different IDs**, letting the
//! memory controller reorder across them, with prefetched data reassembled
//! in stream order inside the Reader.

use std::cell::Cell;
use std::collections::VecDeque;

use baxi::{strobe_mask, ArFlit, AwFlit, AxiMasterPort, Beat, WFlit};
use bsim::perf::CounterSet;
use bsim::{Cycle, SimCtx, StatCounter, Stats};

/// Moves the first `out.len()` bytes of `queue` into `out` (the caller
/// checks that `queue` holds that many).
fn drain_into(queue: &mut VecDeque<u8>, out: &mut [u8]) {
    let n = out.len();
    let (front, back) = queue.as_slices();
    let split = front.len().min(n);
    out[..split].copy_from_slice(&front[..split]);
    out[split..].copy_from_slice(&back[..n - split]);
    queue.drain(..n);
}

/// Returned when a stream request is issued while a previous one is still
/// active (hardware would deassert `ready`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyError;

impl std::fmt::Display for BusyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "previous stream request still active")
    }
}

impl std::error::Error for BusyError {}

/// Tuning of a [`Reader`] (derived from [`crate::ReadChannelConfig`] and
/// platform knobs at elaboration).
#[derive(Debug, Clone)]
pub struct ReaderConfig {
    /// Stream name (for stats and reports).
    pub name: String,
    /// Core-side port width in bytes (the paper's `dataBytes`).
    pub data_bytes: u32,
    /// Memory-bus beat width in bytes (platform property).
    pub bus_bytes: u32,
    /// Beats per AXI transaction (64 on the paper's F1 target).
    pub burst_beats: u32,
    /// Maximum concurrent AXI transactions (the TLP degree; 1 = no TLP).
    pub max_inflight: u32,
    /// AXI IDs this reader may use (assigned by the elaborator). TLP
    /// rotates across them; a single entry reproduces the No-TLP ablation.
    pub ids: Vec<u32>,
    /// Prefetch buffer capacity in bytes (on-chip memory backing the
    /// reader; bounds outstanding-data).
    pub prefetch_bytes: usize,
}

impl ReaderConfig {
    /// A reasonable default for a given port width on an F1-like bus.
    pub fn new(name: impl Into<String>, data_bytes: u32) -> Self {
        Self {
            name: name.into(),
            data_bytes,
            bus_bytes: 64,
            burst_beats: 64,
            max_inflight: 4,
            ids: vec![0, 1, 2, 3],
            prefetch_bytes: 4 * 4096,
        }
    }
}

/// The cap that held a [`Reader`]'s fetch back at the end of its last
/// tick. Only an R beat (for the inflight cap) or a core pop (for a full
/// prefetch buffer) can lift either.
#[derive(Debug, Clone, Copy)]
enum FetchCap {
    Inflight,
    PrefetchFull,
}

#[derive(Debug)]
struct ReadTxn {
    id: u32,
    /// Bytes of useful payload expected (after skip).
    take: usize,
    /// Prefix bytes of the first beat to discard (alignment).
    skip: usize,
    received: Vec<u8>,
    complete: bool,
    /// Bytes already moved to the stream.
    drained: usize,
}

/// A streaming read port into external memory.
///
/// Lifecycle: `request(addr, len)` → (internally: AR bursts, R beats,
/// reassembly) → `pop_into(buf)` fills `buf` from the stream in stream
/// order. `busy()` is false once all data has been delivered.
#[derive(Debug)]
pub struct Reader {
    cfg: ReaderConfig,
    port: AxiMasterPort,
    /// (next_fetch_addr, bytes_left_to_fetch) of the active request.
    fetch: Option<(u64, u64)>,
    txns: VecDeque<ReadTxn>,
    stream: VecDeque<u8>,
    next_id: usize,
    outstanding_bytes: usize,
    stats: Stats,
    /// Per-beat or per-transaction counters of `stats`, named once.
    ar_issued: StatCounter,
    r_beats: StatCounter,
    /// Cycles an AR issue was blocked by the TLP inflight cap.
    perf_stall_inflight: StatCounter,
    /// Cycles an AR issue was blocked by AR-channel backpressure.
    perf_stall_ar: StatCounter,
    /// Cycles an AR issue was blocked by a full prefetch buffer.
    perf_stall_prefetch: StatCounter,
    /// `Some((c, cap))` while the last tick ended with the fetch held back
    /// by `cap`: the reader then declares no tick until an R beat (or a
    /// pop, made inside the owning harness's tick), and `cap`'s stall
    /// counter holds the blocked cycles through `c`. The skipped ones are
    /// charged on the next tick or by [`Reader::settle_capped`].
    capped_through: Cell<Option<(Cycle, FetchCap)>>,
}

impl Reader {
    /// Creates a reader over its AXI master port.
    pub fn new(cfg: ReaderConfig, port: AxiMasterPort) -> Self {
        assert!(!cfg.ids.is_empty(), "reader needs at least one AXI id");
        assert!(cfg.data_bytes > 0 && cfg.burst_beats > 0);
        let stats = Stats::new();
        Self {
            cfg,
            port,
            fetch: None,
            txns: VecDeque::new(),
            stream: VecDeque::new(),
            next_id: 0,
            outstanding_bytes: 0,
            ar_issued: stats.counter("ar_issued"),
            r_beats: stats.counter("r_beats"),
            stats,
            perf_stall_inflight: StatCounter::default(),
            perf_stall_ar: StatCounter::default(),
            perf_stall_prefetch: StatCounter::default(),
            capped_through: Cell::new(None),
        }
    }

    /// Registers this reader's stats and stall counters under `set`.
    ///
    /// The stall counters never feed back into the reader's behaviour, so
    /// enabling them cannot perturb event-driven skipping. A reader whose
    /// fetch waits on the inflight cap or a full prefetch buffer is not
    /// ticked until an R beat arrives; the cycles it skips are charged to
    /// `stall_inflight_cycles` or `stall_prefetch_full_cycles` on its next
    /// tick and before every host counter read, so both counters read the
    /// same in both scheduler modes.
    pub fn attach_perf(&mut self, set: &CounterSet) {
        set.attach_stats(&self.stats);
        self.perf_stall_inflight = set.gated("stall_inflight_cycles");
        self.perf_stall_ar = set.gated("stall_ar_backpressure_cycles");
        self.perf_stall_prefetch = set.gated("stall_prefetch_full_cycles");
    }

    /// Starts streaming `len` bytes from `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`BusyError`] if a request is already active.
    pub fn request(&mut self, addr: u64, len: u64) -> Result<(), BusyError> {
        if self.busy() {
            return Err(BusyError);
        }
        if len == 0 {
            return Ok(());
        }
        self.fetch = Some((addr, len));
        self.stats.add("requested_bytes", len);
        Ok(())
    }

    /// Whether a request is still fetching or undelivered data remains.
    pub fn busy(&self) -> bool {
        self.fetch.is_some() || !self.txns.is_empty() || !self.stream.is_empty()
    }

    /// Bytes currently available to pop.
    pub fn available(&self) -> usize {
        self.stream.len()
    }

    /// Fills `buf` with the next `buf.len()` stream bytes and returns
    /// true, or leaves the stream untouched and returns false while fewer
    /// are available.
    pub fn pop_into(&mut self, buf: &mut [u8]) -> bool {
        if self.stream.len() < buf.len() {
            return false;
        }
        drain_into(&mut self.stream, buf);
        true
    }

    /// Pops a little-endian u32 (requires `data_bytes >= 4`; narrower
    /// streams should use [`Reader::pop_into`]).
    pub fn pop_u32(&mut self) -> Option<u32> {
        let mut word = [0u8; 4];
        self.pop_into(&mut word).then(|| u32::from_le_bytes(word))
    }

    /// Advances the reader one fabric cycle.
    pub fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
        if let Some((through, cap)) = self.capped_through.take() {
            self.stall_counter(cap).add(now - through - 1);
        }
        self.issue_ar(ctx, now);
        self.collect_r(ctx, now);
        self.drain_to_stream();
        // Retiring the head lifts an inflight cap `issue_ar` met this
        // cycle (already charged), so the fetch resumes next cycle.
        if matches!(self.capped_through.get(), Some((_, FetchCap::Inflight)))
            && self.txns.len() < self.cfg.max_inflight as usize
        {
            self.capped_through.set(None);
        }
    }

    fn stall_counter(&self, cap: FetchCap) -> &StatCounter {
        match cap {
            FetchCap::Inflight => &self.perf_stall_inflight,
            FetchCap::PrefetchFull => &self.perf_stall_prefetch,
        }
    }

    /// Charges the capped cycles this reader skipped through cycle
    /// `through` (inclusive) to the cap's stall counter, so a host counter
    /// read between runs sees what dense ticking would have counted. A
    /// no-op unless the last tick ended with the fetch capped.
    pub(crate) fn settle_capped(&self, through: Cycle) {
        if let Some((charged, cap)) = self.capped_through.get() {
            if through > charged {
                self.stall_counter(cap).add(through - charged);
                self.capped_through.set(Some((through, cap)));
            }
        }
    }

    /// Counts one cycle of the fetch held back by `cap` and remembers it,
    /// so [`Reader::next_event`] waits on R alone.
    fn cap_fetch(&self, now: Cycle, cap: FetchCap) {
        self.stall_counter(cap).incr();
        self.capped_through.set(Some((now, cap)));
    }

    fn issue_ar(&mut self, ctx: &SimCtx, now: Cycle) {
        while let Some((addr, remaining)) = self.fetch {
            if self.txns.len() >= self.cfg.max_inflight as usize {
                self.cap_fetch(now, FetchCap::Inflight);
                return;
            }
            if !self.port.ar.can_send(ctx) {
                self.perf_stall_ar.incr();
                return;
            }
            let bus = u64::from(self.cfg.bus_bytes);
            let aligned = addr & !(bus - 1);
            let skip = (addr - aligned) as usize;
            // Stay within burst_beats, the remaining length, and the 4 KiB
            // AXI boundary.
            let max_bytes = u64::from(self.cfg.burst_beats) * bus;
            let to_4k = 4096 - (aligned & 0xFFF);
            let span = (skip as u64 + remaining).min(max_bytes).min(to_4k);
            let beats = span.div_ceil(bus) as u32;
            let fetch_bytes = u64::from(beats) * bus;
            let take = (remaining.min(fetch_bytes - skip as u64)) as usize;
            if self.outstanding_bytes + self.stream.len() + take > self.cfg.prefetch_bytes {
                self.cap_fetch(now, FetchCap::PrefetchFull);
                return;
            }
            let id = self.cfg.ids[self.next_id % self.cfg.ids.len()];
            self.next_id += 1;
            self.port.ar.send(
                ctx,
                now,
                ArFlit {
                    id,
                    addr: aligned,
                    beats,
                },
            );
            self.txns.push_back(ReadTxn {
                id,
                take,
                skip,
                received: Vec::with_capacity(fetch_bytes as usize),
                complete: false,
                drained: 0,
            });
            self.outstanding_bytes += take;
            self.ar_issued.incr();
            let consumed = take as u64;
            if consumed >= remaining {
                self.fetch = None;
            } else {
                self.fetch = Some((addr + consumed, remaining - consumed));
            }
        }
    }

    fn collect_r(&mut self, ctx: &SimCtx, now: Cycle) {
        while let Some(r) = self.port.r.recv(ctx, now) {
            let txn = self
                .txns
                .iter_mut()
                .find(|t| t.id == r.id && !t.complete)
                .expect("R beat for unknown transaction");
            txn.received.extend_from_slice(&r.data);
            if r.last {
                txn.complete = true;
            }
            self.r_beats.incr();
        }
    }

    fn drain_to_stream(&mut self) {
        while let Some(front) = self.txns.front_mut() {
            let usable = front.received.len().saturating_sub(front.skip);
            let deliverable = usable.min(front.take);
            if deliverable > front.drained {
                let start = front.skip + front.drained;
                let end = front.skip + deliverable;
                self.stream.extend(&front.received[start..end]);
                self.outstanding_bytes -= deliverable - front.drained;
                front.drained = deliverable;
            }
            if front.complete && front.drained == front.take {
                self.txns.pop_front();
            } else {
                break; // stream order: wait for the head
            }
        }
    }

    /// Reader statistics (`ar_issued`, `r_beats`, `requested_bytes`).
    pub fn stats(&self) -> Stats {
        self.stats.clone()
    }

    /// Earliest cycle after `now` at which [`Reader::tick`] can make
    /// progress, or `None` while the reader only waits for a new request.
    ///
    /// Only a fetch held back by AR-channel backpressure keeps the reader
    /// ticking every cycle. Otherwise it waits on R alone: outstanding
    /// transactions complete only through R beats, and the issuing
    /// controller stays active until it has sent them. A fetch held back
    /// by the inflight cap resumes only once an R beat retires the head
    /// transaction; a retire in the tick that met the cap lifts it before
    /// the tick ends, so the reader then declares the next cycle. One held
    /// back by a full prefetch buffer resumes only once the core pops,
    /// since moving R data into the stream leaves the buffer's occupancy
    /// unchanged; popping is a core-side call, made while the owning
    /// harness is awake. Undelivered stream bytes do not keep the reader
    /// awake either, for the same reason.
    pub fn next_event(&self, ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
        if self.fetch.is_some() && self.capped_through.get().is_none() {
            return Some(now + 1);
        }
        self.port.r.next_visible_at(ctx).map(|v| v.max(now + 1))
    }

    /// Hooks the channels [`Reader::next_event`] depends on: only the R
    /// channel can start work while the reader is idle (`request` is a
    /// core-side call, made while the owning harness is already awake).
    pub fn register_wakes(&self, ctx: &SimCtx, waker: &bsim::Waker) {
        self.port.r.wake_on_send(ctx, waker);
    }
}

/// Tuning of a [`Writer`].
#[derive(Debug, Clone)]
pub struct WriterConfig {
    /// Stream name.
    pub name: String,
    /// Core-side port width in bytes.
    pub data_bytes: u32,
    /// Memory-bus beat width in bytes.
    pub bus_bytes: u32,
    /// Beats per AXI transaction.
    pub burst_beats: u32,
    /// Maximum concurrent write transactions (TLP degree).
    pub max_inflight: u32,
    /// AXI IDs available.
    pub ids: Vec<u32>,
    /// Staging buffer capacity in bytes.
    pub staging_bytes: usize,
}

impl WriterConfig {
    /// A reasonable default for a given port width on an F1-like bus.
    pub fn new(name: impl Into<String>, data_bytes: u32) -> Self {
        Self {
            name: name.into(),
            data_bytes,
            bus_bytes: 64,
            burst_beats: 64,
            max_inflight: 4,
            ids: vec![0, 1, 2, 3],
            staging_bytes: 4 * 4096,
        }
    }
}

/// A paced push ([`Writer::push_paced`]): `len` bytes staged at once that
/// count as pushed `per_cycle` bytes a cycle from cycle `from` on.
#[derive(Debug, Clone, Copy)]
struct Pace {
    from: Cycle,
    per_cycle: usize,
    len: usize,
}

impl Pace {
    /// Bytes of the push still not due by the end of cycle `now`.
    fn undue(&self, now: Cycle) -> usize {
        let due = (now + 1 - self.from) as usize * self.per_cycle;
        self.len.saturating_sub(due)
    }

    /// The first cycle by which all but `undue` bytes of the push are due.
    fn due_at(&self, undue: usize) -> Cycle {
        let cycles = self.len.saturating_sub(undue).div_ceil(self.per_cycle) as Cycle;
        (self.from + cycles).saturating_sub(1)
    }
}

/// A streaming write port into external memory.
///
/// Lifecycle: `request(addr, len)` → `push_chunk(..)` (or `push_paced`)
/// until `len` bytes are supplied → `done()` turns true once every burst
/// is acknowledged.
#[derive(Debug)]
pub struct Writer {
    cfg: WriterConfig,
    port: AxiMasterPort,
    /// (next_write_addr, bytes_not_yet_bursted) of the active request.
    emit: Option<(u64, u64)>,
    /// Bytes the core still owes us via push_chunk.
    unpushed: u64,
    /// Pushed bytes not yet sent on W, in stream order.
    staging: VecDeque<u8>,
    /// Bytes at the front of `staging` that belong to the burst streaming
    /// on W (0 while none is). Its AW has issued, so they no longer count
    /// against the staging capacity; each W beat drains its bytes straight
    /// into the flit.
    burst_left: usize,
    inflight_bs: usize,
    /// Rotation counter over `cfg.ids`: burst `k` goes out on
    /// `ids[k % ids.len()]`.
    next_id: usize,
    stats: Stats,
    /// Per-beat or per-transaction counters of `stats`, named once.
    aw_issued: StatCounter,
    w_beats: StatCounter,
    b_received: StatCounter,
    /// Cycles an AW issue was blocked by the TLP inflight cap.
    perf_stall_inflight: StatCounter,
    /// Cycles an AW issue was blocked by AW-channel backpressure.
    perf_stall_aw: StatCounter,
    /// Cycles an AW issue waited on core data to fill the staging buffer.
    perf_stall_data: StatCounter,
    /// Cycles a W beat was blocked by W-channel backpressure.
    perf_stall_w: StatCounter,
    /// `Some(c)` while the last tick ended data-starved: the writer then
    /// declares no tick until a B response (or a push, made inside the
    /// owning harness's tick), and `perf_stall_data` holds the starved
    /// cycles through `c`. The skipped ones are charged on the next tick
    /// or by [`Writer::settle_starved`].
    starved_through: Cell<Option<Cycle>>,
    /// The last paced push; its bytes at the back of `staging` that are
    /// not yet due cannot start a burst.
    pace: Option<Pace>,
}

impl Writer {
    /// Creates a writer over its AXI master port.
    ///
    /// # Panics
    ///
    /// Panics on empty id list or zero widths.
    pub fn new(cfg: WriterConfig, port: AxiMasterPort) -> Self {
        assert!(!cfg.ids.is_empty(), "writer needs at least one AXI id");
        assert!(cfg.data_bytes > 0 && cfg.burst_beats > 0);
        let stats = Stats::new();
        Self {
            cfg,
            port,
            emit: None,
            unpushed: 0,
            staging: VecDeque::new(),
            burst_left: 0,
            inflight_bs: 0,
            next_id: 0,
            aw_issued: stats.counter("aw_issued"),
            w_beats: stats.counter("w_beats"),
            b_received: stats.counter("b_received"),
            stats,
            perf_stall_inflight: StatCounter::default(),
            perf_stall_aw: StatCounter::default(),
            perf_stall_data: StatCounter::default(),
            perf_stall_w: StatCounter::default(),
            starved_through: Cell::new(None),
            pace: None,
        }
    }

    /// Registers this writer's stats and stall counters under `set`.
    ///
    /// The stall counters never feed back into the writer's behaviour, so
    /// enabling them cannot perturb event-driven skipping. A data-starved
    /// writer is not ticked until its state can change; the cycles it
    /// skips are charged to `stall_data_starved_cycles` on its next tick
    /// and before every host counter read, so the counter reads the same
    /// in both scheduler modes.
    pub fn attach_perf(&mut self, set: &CounterSet) {
        set.attach_stats(&self.stats);
        self.perf_stall_inflight = set.gated("stall_inflight_cycles");
        self.perf_stall_aw = set.gated("stall_aw_backpressure_cycles");
        self.perf_stall_data = set.gated("stall_data_starved_cycles");
        self.perf_stall_w = set.gated("stall_w_backpressure_cycles");
    }

    /// Starts a write of `len` bytes to `addr` (beat-aligned).
    ///
    /// # Errors
    ///
    /// Returns [`BusyError`] while a previous request is still active.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not aligned to the bus beat width.
    pub fn request(&mut self, addr: u64, len: u64) -> Result<(), BusyError> {
        if !self.done() {
            return Err(BusyError);
        }
        assert_eq!(
            addr % u64::from(self.cfg.bus_bytes),
            0,
            "writer addresses must be bus-aligned"
        );
        if len == 0 {
            return Ok(());
        }
        self.emit = Some((addr, len));
        self.unpushed = len;
        self.stats.add("requested_bytes", len);
        Ok(())
    }

    /// Whether all requested data has been written and acknowledged.
    pub fn done(&self) -> bool {
        self.emit.is_none()
            && self.unpushed == 0
            && self.staging.is_empty()
            && self.inflight_bs == 0
    }

    /// Staged bytes counted against the staging capacity.
    fn staged(&self) -> usize {
        self.staging.len() - self.burst_left
    }

    /// Whether a chunk of the port width can be pushed now.
    pub fn can_push(&self) -> bool {
        self.unpushed > 0 && self.staged() + self.cfg.data_bytes as usize <= self.cfg.staging_bytes
    }

    /// Pushes one chunk of stream data (`data_bytes` wide, except possibly
    /// the final chunk of a request).
    ///
    /// # Panics
    ///
    /// Panics if more data is pushed than the request declared, or the
    /// staging buffer would overflow (callers must check
    /// [`Writer::can_push`]).
    pub fn push_chunk(&mut self, data: &[u8]) {
        assert!(
            data.len() as u64 <= self.unpushed,
            "writer '{}' got more data than requested",
            self.cfg.name
        );
        assert!(
            self.staged() + data.len() <= self.cfg.staging_bytes,
            "writer '{}' staging overflow",
            self.cfg.name
        );
        self.staging.extend(data);
        self.unpushed -= data.len() as u64;
    }

    /// Pushes a little-endian u32.
    pub fn push_u32(&mut self, value: u32) {
        self.push_chunk(&value.to_le_bytes());
    }

    /// How many back-to-back pushes of `chunk` bytes [`Writer::can_push`]
    /// is sure to accept now, counting no drain. While a paced run
    /// ([`Writer::push_paced`]) is under way the staged count only falls,
    /// so pushes this count allows at once stay allowed spread over later
    /// cycles.
    pub fn pushable(&self, chunk: usize) -> usize {
        let width = self.cfg.data_bytes as usize;
        let Some(spare) = self.cfg.staging_bytes.checked_sub(self.staged() + width) else {
            return 0;
        };
        (spare / chunk + 1).min(self.unpushed.div_ceil(chunk as u64) as usize)
    }

    /// Stages `data` at once but counts it as pushed `per_cycle` bytes a
    /// cycle from cycle `now` on: the bytes due by a cycle are those a
    /// core pushing `per_cycle` bytes on each cycle from `now` would have
    /// pushed by then, so bursts start on the same cycles. The caller
    /// sleeps through the run ([`crate::CoreContext::sleep_for`]) and
    /// sizes it with [`Writer::pushable`], so every one of those per-cycle
    /// pushes would have been accepted.
    ///
    /// # Panics
    ///
    /// Panics like [`Writer::push_chunk`], if `per_cycle` is zero, or if an
    /// earlier paced run still has bytes that are not due.
    pub fn push_paced(&mut self, now: Cycle, data: impl IntoIterator<Item = u8>, per_cycle: usize) {
        assert!(per_cycle > 0, "a paced push needs a rate");
        assert!(
            self.pace.is_none_or(|p| p.undue(now) == 0),
            "writer '{}' got a paced push during another",
            self.cfg.name
        );
        let before = self.staging.len();
        self.staging.extend(data);
        let len = self.staging.len() - before;
        assert!(
            len as u64 <= self.unpushed,
            "writer '{}' got more data than requested",
            self.cfg.name
        );
        assert!(
            self.staged() <= self.cfg.staging_bytes,
            "writer '{}' staging overflow",
            self.cfg.name
        );
        self.unpushed -= len as u64;
        self.pace = Some(Pace {
            from: now,
            per_cycle,
            len,
        });
    }

    /// Staged bytes that are due by cycle `now` (all of them, unless a
    /// paced run is under way).
    fn due(&self, now: Cycle) -> usize {
        self.staging.len() - self.pace.map_or(0, |p| p.undue(now))
    }

    /// Bytes of the next burst to issue, given its start address and the
    /// request's remaining length.
    fn burst_span(&self, addr: u64, remaining: u64) -> u64 {
        let max_bytes = u64::from(self.cfg.burst_beats) * u64::from(self.cfg.bus_bytes);
        let to_4k = 4096 - (addr & 0xFFF);
        remaining.min(max_bytes).min(to_4k)
    }

    /// Advances the writer one fabric cycle.
    pub fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
        if let Some(through) = self.starved_through.take() {
            self.perf_stall_data.add(now - through - 1);
        }
        self.collect_b(ctx, now);
        self.start_burst(ctx, now);
        self.stream_w(ctx, now);
    }

    /// Charges the data-starved cycles this writer skipped through cycle
    /// `through` (inclusive) to `stall_data_starved_cycles`, so a host
    /// counter read between runs sees what dense ticking would have
    /// counted. A no-op unless the last tick ended data-starved.
    pub(crate) fn settle_starved(&self, through: Cycle) {
        if let Some(charged) = self.starved_through.get() {
            if through > charged {
                self.perf_stall_data.add(through - charged);
                self.starved_through.set(Some(through));
            }
        }
    }

    fn collect_b(&mut self, ctx: &SimCtx, now: Cycle) {
        while self.port.b.recv(ctx, now).is_some() {
            self.inflight_bs -= 1;
            self.b_received.incr();
        }
    }

    fn start_burst(&mut self, ctx: &SimCtx, now: Cycle) {
        if self.burst_left > 0 {
            return;
        }
        let Some((addr, remaining)) = self.emit else {
            return;
        };
        if self.inflight_bs >= self.cfg.max_inflight as usize {
            self.perf_stall_inflight.incr();
            return;
        }
        if !self.port.aw.can_send(ctx) {
            self.perf_stall_aw.incr();
            return;
        }
        let span = self.burst_span(addr, remaining);
        // Need the whole burst's data staged (store-and-forward keeps the
        // W channel dense, as real DMA engines do).
        if (self.due(now) as u64) < span {
            self.perf_stall_data.incr();
            self.starved_through.set(Some(now));
            return;
        }
        let beats = span.div_ceil(u64::from(self.cfg.bus_bytes)) as u32;
        let id = self.cfg.ids[self.next_id % self.cfg.ids.len()];
        self.next_id += 1;
        self.port.aw.send(ctx, now, AwFlit { id, addr, beats });
        self.burst_left = span as usize;
        self.aw_issued.incr();
        if span >= remaining {
            self.emit = None;
        } else {
            self.emit = Some((addr + span, remaining - span));
        }
    }

    fn stream_w(&mut self, ctx: &SimCtx, now: Cycle) {
        if self.burst_left == 0 {
            return;
        }
        if !self.port.w.can_send(ctx) {
            self.perf_stall_w.incr();
            return;
        }
        // Only a request's last beat can be partial: bursts start
        // bus-aligned and span whole beats until the request's tail.
        let bus = self.cfg.bus_bytes as usize;
        let valid = self.burst_left.min(bus);
        let mut data = Beat::zeroed(bus);
        drain_into(&mut self.staging, &mut data[..valid]);
        let strb = (valid < bus).then(|| strobe_mask(valid));
        self.burst_left -= valid;
        let last = self.burst_left == 0;
        self.port.w.send(ctx, now, WFlit { data, strb, last });
        self.w_beats.incr();
        if last {
            self.inflight_bs += 1;
        }
    }

    /// Writer statistics (`aw_issued`, `w_beats`, `b_received`).
    pub fn stats(&self) -> Stats {
        self.stats.clone()
    }

    /// Earliest cycle after `now` at which [`Writer::tick`] can make
    /// progress, or `None` while the writer only waits for a new request.
    ///
    /// Outstanding B responses wake the writer through its B channel's
    /// visibility horizon; the issuing controller stays active until it has
    /// sent them, so the scheduler cannot skip past their arrival.
    ///
    /// A writer whose last tick ended data-starved waits only on B and on
    /// the cycle its pending burst's bytes are all due: no burst is
    /// streaming, the inflight count is below the cap and can only fall,
    /// its AW channel has room and only this writer fills it, and the due
    /// bytes grow only through a push — a core-side call, made while the
    /// owning harness is awake — or as a paced run comes due.
    pub fn next_event(&self, ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
        if self.starved_through.get().is_none() && (self.emit.is_some() || !self.staging.is_empty())
        {
            return Some(now + 1);
        }
        [self.burst_due_at(), self.port.b.next_visible_at(ctx)]
            .into_iter()
            .flatten()
            .min()
            .map(|e| e.max(now + 1))
    }

    /// The cycle a starved writer's pending burst has all its bytes due,
    /// if a paced run still owes them.
    fn burst_due_at(&self) -> Option<Cycle> {
        let (addr, remaining) = self.emit?;
        let pace = self.pace?;
        let span = self.burst_span(addr, remaining) as usize;
        let spare = self.staging.len().checked_sub(span)?;
        Some(pace.due_at(spare))
    }

    /// Hooks the channels [`Writer::next_event`] depends on: only the B
    /// channel can start work while the writer is idle (`request` and
    /// `push_chunk` are core-side calls, made while the owning harness is
    /// already awake).
    pub fn register_wakes(&self, ctx: &SimCtx, waker: &bsim::Waker) {
        self.port.b.wake_on_send(ctx, waker);
    }
}

/// An on-chip memory with an initialization routine (§II-B): storage plus
/// a DMA-style fill that streams operands in through a [`Reader`].
#[derive(Debug)]
pub struct Scratchpad {
    name: String,
    width_bits: u32,
    storage: Vec<u64>,
    /// Words filled so far by an active init.
    init_progress: Option<usize>,
    /// Configured access latency (cycles); cores model their pipelines
    /// against this value.
    pub latency: u32,
    stats: Stats,
    /// Per-beat or per-transaction counters of `stats`, named once.
    inits_started: StatCounter,
    init_words: StatCounter,
}

impl Scratchpad {
    /// Creates a zeroed scratchpad of `n_datas` words of `width_bits` each.
    ///
    /// # Panics
    ///
    /// Panics if `width_bits` is 0 or exceeds 64.
    pub fn new(name: impl Into<String>, width_bits: u32, n_datas: usize, latency: u32) -> Self {
        assert!(
            (1..=64).contains(&width_bits),
            "scratchpad words limited to 64 bits"
        );
        let stats = Stats::new();
        Self {
            name: name.into(),
            width_bits,
            storage: vec![0; n_datas],
            init_progress: None,
            latency,
            inits_started: stats.counter("inits_started"),
            init_words: stats.counter("init_words"),
            stats,
        }
    }

    /// Registers this scratchpad's init statistics under `set`.
    pub fn attach_perf(&mut self, set: &CounterSet) {
        set.attach_stats(&self.stats);
    }

    /// Scratchpad statistics (`inits_started`, `init_words`).
    pub fn stats(&self) -> Stats {
        self.stats.clone()
    }

    /// The scratchpad name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// Whether the scratchpad has zero words.
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }

    /// Word width in bits.
    pub fn width_bits(&self) -> u32 {
        self.width_bits
    }

    /// Bytes each word occupies in memory during init.
    pub fn word_bytes(&self) -> usize {
        (self.width_bits as usize).div_ceil(8)
    }

    /// Reads word `idx`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn read(&self, idx: usize) -> u64 {
        self.storage[idx]
    }

    /// Writes word `idx`.
    ///
    /// # Panics
    ///
    /// Panics if out of range or the value exceeds the word width.
    pub fn write(&mut self, idx: usize, value: u64) {
        let bits = self.width_bits;
        assert!(
            bits == 64 || value >> bits == 0,
            "value wider than scratchpad word"
        );
        self.storage[idx] = value;
    }

    /// Begins filling the scratchpad from memory via `reader`: issues the
    /// stream request covering `len()` words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the reader's [`BusyError`].
    pub fn start_init(&mut self, reader: &mut Reader, addr: u64) -> Result<(), BusyError> {
        reader.request(addr, (self.len() * self.word_bytes()) as u64)?;
        self.init_progress = Some(0);
        self.inits_started.incr();
        Ok(())
    }

    /// Moves any data the reader has delivered into storage. Call it on
    /// every cycle of the initialization, or through
    /// [`crate::CoreContext::service_init`], which skips the cycles on which
    /// nothing has arrived.
    pub fn service_init(&mut self, reader: &mut Reader) {
        let Some(mut filled) = self.init_progress else {
            return;
        };
        let wb = self.word_bytes();
        let start = filled;
        let mut word = [0u8; 8];
        while filled < self.storage.len() && reader.pop_into(&mut word[..wb]) {
            self.storage[filled] = u64::from_le_bytes(word);
            filled += 1;
        }
        if filled > start {
            self.init_words.add((filled - start) as u64);
        }
        self.init_progress = if filled == self.storage.len() {
            None
        } else {
            Some(filled)
        };
    }

    /// Whether an initialization is still in progress.
    pub fn initializing(&self) -> bool {
        self.init_progress.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baxi::{axi_link, AxiMemoryController, ControllerConfig, PortDepths, SharedMemory};
    use bdram::{DramConfig, DramSystem};
    use bsim::{Component, Simulation};

    /// A harness: one reader and one writer wired straight to a controller.
    struct Rig {
        sim: Simulation,
        reader: bsim::Shared<TickPrim<Reader>>,
        writer: bsim::Shared<TickPrim<Writer>>,
        memory: SharedMemory,
    }

    /// Owns a primitive and ticks it as a component; tests reach the
    /// primitive through `sim.get_mut(handle).0`.
    struct TickPrim<T>(T, fn(&mut T, &SimCtx, Cycle));

    impl<T: Send + 'static> Component for TickPrim<T> {
        fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
            (self.1)(&mut self.0, ctx, now);
        }
    }

    fn rig(reader_cfg: ReaderConfig, writer_cfg: WriterConfig) -> Rig {
        // Two independent AXI links, two controllers sharing one memory
        // image (keeps the unit test free of the interconnect, which is
        // exercised in interconnect.rs).
        let memory = SharedMemory::default();
        let mut sim = Simulation::new();

        let (rd_master, rd_slave) = axi_link(
            &mut sim,
            PortDepths {
                ar: 8,
                r: 64,
                aw: 8,
                w: 64,
                b: 8,
            },
        );
        let ctrl_r = AxiMemoryController::new(
            ControllerConfig::default(),
            DramSystem::new(DramConfig::ddr4_2400()),
            rd_slave,
            memory.clone(),
        );
        sim.add(ctrl_r);
        let reader = sim.add_shared(TickPrim(
            Reader::new(reader_cfg, rd_master),
            |r, ctx, now| r.tick(ctx, now),
        ));

        let (wr_master, wr_slave) = axi_link(
            &mut sim,
            PortDepths {
                ar: 8,
                r: 64,
                aw: 8,
                w: 64,
                b: 8,
            },
        );
        let ctrl_w = AxiMemoryController::new(
            ControllerConfig::default(),
            DramSystem::new(DramConfig::ddr4_2400()),
            wr_slave,
            memory.clone(),
        );
        sim.add(ctrl_w);
        let writer = sim.add_shared(TickPrim(
            Writer::new(writer_cfg, wr_master),
            |w, ctx, now| w.tick(ctx, now),
        ));

        Rig {
            sim,
            reader,
            writer,
            memory,
        }
    }

    #[test]
    fn reader_streams_a_buffer_in_order() {
        let mut r = rig(ReaderConfig::new("in", 4), WriterConfig::new("out", 4));
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 256) as u8).collect();
        r.memory.borrow_mut().write(0x10_000, &data);
        r.sim.get_mut(r.reader).0.request(0x10_000, 4096).unwrap();
        let mut got = Vec::new();
        let mut chunk = [0u8; 4];
        while got.len() < 4096 {
            r.sim.step();
            while r.sim.get_mut(r.reader).0.pop_into(&mut chunk) {
                got.extend(chunk);
            }
            assert!(r.sim.now() < 100_000, "reader stalled");
        }
        assert_eq!(got, data);
        assert!(!r.sim.get(r.reader).0.busy());
    }

    #[test]
    fn reader_handles_unaligned_addresses() {
        let mut r = rig(ReaderConfig::new("in", 4), WriterConfig::new("out", 4));
        let data: Vec<u8> = (0..100).collect();
        r.memory.borrow_mut().write(0x10_004, &data);
        r.sim.get_mut(r.reader).0.request(0x10_004, 100).unwrap();
        let mut got = Vec::new();
        let mut chunk = [0u8; 4];
        while got.len() < 100 {
            r.sim.step();
            while r.sim.get_mut(r.reader).0.pop_into(&mut chunk) {
                got.extend(chunk);
            }
            assert!(r.sim.now() < 100_000);
        }
        assert_eq!(got, data);
    }

    #[test]
    fn reader_rejects_overlapping_requests() {
        let mut r = rig(ReaderConfig::new("in", 4), WriterConfig::new("out", 4));
        r.sim.get_mut(r.reader).0.request(0, 64).unwrap();
        assert!(r.sim.get_mut(r.reader).0.request(64, 64).is_err());
        r.sim.run_for(1);
    }

    #[test]
    fn reader_tlp_uses_multiple_ids() {
        let mut cfg = ReaderConfig::new("in", 64);
        cfg.burst_beats = 16;
        cfg.max_inflight = 4;
        let mut r = rig(cfg, WriterConfig::new("out", 4));
        r.sim.get_mut(r.reader).0.request(0, 16384).unwrap();
        let mut drained = 0usize;
        let mut chunk = [0u8; 64];
        while drained < 16384 {
            r.sim.step();
            while r.sim.get_mut(r.reader).0.pop_into(&mut chunk) {
                drained += chunk.len();
            }
            assert!(r.sim.now() < 100_000);
        }
        assert!(r.sim.get(r.reader).0.stats().get("ar_issued") >= 4);
    }

    /// Streams 2 KiB through a one-transaction reader, ticked on every
    /// cycle or only on the cycles its `next_event` declares, and returns
    /// `(ar_issued, r_beats, stall_inflight_cycles)` after every cycle
    /// until the stream holds all of it. Nothing pops, so only the
    /// inflight cap holds the fetch back.
    fn inflight_capped_trace(skipping: bool) -> Vec<(u64, u64, u64)> {
        let mut cfg = ReaderConfig::new("in", 4);
        cfg.burst_beats = 4;
        cfg.max_inflight = 1;
        let mut r = rig(cfg, WriterConfig::new("out", 4));
        let perf = bsim::PerfRegistry::new();
        perf.set_enabled(true);
        let reader = r.sim.get_mut(r.reader);
        reader.0.attach_perf(&perf.set("in"));
        if skipping {
            reader.1 = |r, ctx, now| {
                let declared = now.checked_sub(1).and_then(|t| r.next_event(ctx, t));
                if now == 0 || declared.is_some_and(|e| e <= now) {
                    r.tick(ctx, now);
                }
            };
        }
        reader.0.request(0x10_000, 2048).unwrap();
        let mut trace = Vec::new();
        while r.sim.get(r.reader).0.available() < 2048 {
            r.sim.step();
            let reader = &r.sim.get(r.reader).0;
            reader.settle_capped(r.sim.now() - 1);
            let stats = reader.stats();
            let stalled = perf.counter("in/stall_inflight_cycles").unwrap();
            trace.push((stats.get("ar_issued"), stats.get("r_beats"), stalled));
            assert!(r.sim.now() < 100_000, "reader stalled");
        }
        trace
    }

    #[test]
    fn inflight_capped_reader_resumes_the_cycle_after_its_head_retires() {
        // With one transaction in flight, the beat that retires it is the
        // last R beat in sight: the next AR must still go out the next
        // cycle, and the capped cycles must count as they do densely.
        let dense = inflight_capped_trace(false);
        assert!(dense.last().unwrap().2 > 0, "the cap never held");
        assert_eq!(inflight_capped_trace(true), dense);
    }

    #[test]
    fn writer_roundtrip_through_memory() {
        let mut r = rig(ReaderConfig::new("in", 4), WriterConfig::new("out", 4));
        r.sim.get_mut(r.writer).0.request(0x20_000, 1024).unwrap();
        let mut pushed = 0u32;
        while !r.sim.get(r.writer).0.done() {
            {
                let w = &mut r.sim.get_mut(r.writer).0;
                while pushed < 256 && w.can_push() {
                    w.push_u32(pushed * 7);
                    pushed += 1;
                }
            }
            r.sim.step();
            assert!(r.sim.now() < 100_000, "writer never finished");
        }
        let out = r.memory.borrow().read_u32_slice(0x20_000, 256);
        let expect: Vec<u32> = (0..256).map(|i| i * 7).collect();
        assert_eq!(out, expect);
    }

    /// Feeds a 1000-byte write `per_cycle` bytes a cycle, either pushed on
    /// each cycle or staged at once by one paced push, and returns the
    /// writer's `(aw_issued, w_beats)` after every cycle until it is done.
    /// A paced writer must also do nothing before the cycle its
    /// `next_event` declares.
    fn paced_trace(paced: bool, per_cycle: usize) -> Vec<(u64, u64)> {
        let mut cfg = WriterConfig::new("out", 4);
        cfg.burst_beats = 2;
        let mut r = rig(ReaderConfig::new("in", 4), cfg);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 253) as u8).collect();
        r.sim.get_mut(r.writer).0.request(0x20_000, 1000).unwrap();
        if paced {
            let now = r.sim.now();
            let w = &mut r.sim.get_mut(r.writer).0;
            assert!(w.pushable(per_cycle) * per_cycle >= data.len());
            w.push_paced(now, data.iter().copied(), per_cycle);
        }
        let mut trace = vec![(0, 0)];
        let mut pushed = 0;
        let mut declared = 0;
        while !r.sim.get(r.writer).0.done() {
            if !paced && pushed < data.len() {
                let w = &mut r.sim.get_mut(r.writer).0;
                assert!(w.can_push());
                let end = (pushed + per_cycle).min(data.len());
                w.push_chunk(&data[pushed..end]);
                pushed = end;
            }
            let now = r.sim.now();
            r.sim.step();
            let w = &r.sim.get(r.writer).0;
            let stats = w.stats();
            let step = (stats.get("aw_issued"), stats.get("w_beats"));
            if paced && now < declared {
                assert_eq!(
                    step,
                    trace[trace.len() - 1],
                    "acted at {now}, declared {declared}"
                );
            }
            declared = w.next_event(r.sim.ctx(), now).unwrap_or(Cycle::MAX);
            trace.push(step);
            assert!(r.sim.now() < 100_000, "writer never finished");
        }
        assert_eq!(r.memory.borrow().read_vec(0x20_000, 1000), data);
        trace
    }

    #[test]
    fn paced_push_issues_bursts_on_the_dense_cycles() {
        // 1000 bytes are not a multiple of either rate, so the last
        // cycle's push is partial; at 24 bytes a cycle the W beats outrun
        // the pushes, so bursts wait for their bytes to come due.
        for per_cycle in [24, 100] {
            assert_eq!(
                paced_trace(true, per_cycle),
                paced_trace(false, per_cycle),
                "per_cycle={per_cycle}"
            );
        }
    }

    #[test]
    fn pushable_counts_the_pushes_can_push_accepts() {
        let mut cfg = WriterConfig::new("out", 16);
        cfg.burst_beats = 2;
        cfg.staging_bytes = 256;
        let mut r = rig(ReaderConfig::new("in", 4), cfg);
        // Room binds first, then the request's remaining length.
        for len in [1000, 60] {
            let w = &mut r.sim.get_mut(r.writer).0;
            w.request(0x1000 * len, len).unwrap();
            let promised = w.pushable(4);
            let mut accepted = 0;
            while w.can_push() {
                w.push_u32(0);
                accepted += 1;
            }
            assert_eq!(promised, accepted, "len={len}");
            while !r.sim.get(r.writer).0.done() {
                let w = &mut r.sim.get_mut(r.writer).0;
                while w.can_push() {
                    w.push_u32(0);
                }
                r.sim.step();
                assert!(r.sim.now() < 100_000, "writer never finished");
            }
        }
    }

    #[test]
    fn writer_partial_tail_beat_is_strobed() {
        let mut r = rig(ReaderConfig::new("in", 4), WriterConfig::new("out", 4));
        // Pre-fill so we can detect clobbering beyond the 100-byte write.
        r.memory.borrow_mut().write(0x30_000, &[0xEE; 256]);
        r.sim.get_mut(r.writer).0.request(0x30_000, 100).unwrap();
        let mut pushed = 0usize;
        while !r.sim.get(r.writer).0.done() {
            {
                let w = &mut r.sim.get_mut(r.writer).0;
                while pushed < 100 && w.can_push() {
                    let n = 4.min(100 - pushed);
                    let chunk: Vec<u8> = (pushed..pushed + n).map(|i| i as u8).collect();
                    w.push_chunk(&chunk);
                    pushed += n;
                }
            }
            r.sim.step();
            assert!(r.sim.now() < 100_000);
        }
        let out = r.memory.borrow().read_vec(0x30_000, 101);
        for (i, item) in out.iter().enumerate().take(100) {
            assert_eq!(*item, i as u8);
        }
        assert_eq!(out[100], 0xEE, "bytes beyond the write must survive");
    }

    #[test]
    fn scratchpad_init_from_memory() {
        let mut r = rig(ReaderConfig::new("spin", 4), WriterConfig::new("out", 4));
        let words: Vec<u32> = (0..320).map(|i| i * 3 + 1).collect();
        r.memory.borrow_mut().write_u32_slice(0x40_000, &words);
        let mut sp = Scratchpad::new("keys", 32, 320, 2);
        sp.start_init(&mut r.sim.get_mut(r.reader).0, 0x40_000)
            .unwrap();
        while sp.initializing() {
            r.sim.step();
            sp.service_init(&mut r.sim.get_mut(r.reader).0);
            assert!(r.sim.now() < 100_000, "init stalled");
        }
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(sp.read(i), u64::from(w));
        }
    }

    #[test]
    fn scratchpad_write_width_checked() {
        let mut sp = Scratchpad::new("s", 8, 4, 1);
        sp.write(0, 255);
        assert_eq!(sp.read(0), 255);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sp.write(1, 256);
        }));
        assert!(result.is_err(), "over-wide write should panic");
    }

    #[test]
    fn zero_length_request_is_a_noop() {
        let mut r = rig(ReaderConfig::new("in", 4), WriterConfig::new("out", 4));
        r.sim.get_mut(r.reader).0.request(0, 0).unwrap();
        assert!(!r.sim.get(r.reader).0.busy());
        r.sim.get_mut(r.writer).0.request(0, 0).unwrap();
        assert!(r.sim.get(r.writer).0.done());
    }

    /// Swallows AW and W flits and records each burst's AXI id, never
    /// acknowledging (so a writer's inflight cap is the only throttle).
    struct AwRecorder {
        port: baxi::AxiSlavePort,
        ids: Vec<u32>,
    }

    impl Component for AwRecorder {
        fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
            while let Some(aw) = self.port.aw.recv(ctx, now) {
                self.ids.push(aw.id);
            }
            while self.port.w.recv(ctx, now).is_some() {}
        }
    }

    #[test]
    fn writer_rotates_burst_ids_independently_of_stats() {
        let mut sim = Simulation::new();
        let (master, slave) = axi_link(
            &mut sim,
            PortDepths {
                ar: 8,
                r: 8,
                aw: 8,
                w: 64,
                b: 8,
            },
        );
        let mut cfg = WriterConfig::new("out", 4);
        cfg.burst_beats = 1;
        cfg.max_inflight = 8;
        let writer = sim.add_shared(TickPrim(Writer::new(cfg, master), |w, ctx, now| {
            w.tick(ctx, now)
        }));
        let sink = sim.add_shared(AwRecorder {
            port: slave,
            ids: Vec::new(),
        });
        // Five one-beat (64-byte) bursts on a 4-id writer.
        sim.get_mut(writer).0.request(0x1000, 5 * 64).unwrap();
        for v in 0..5 * 16 {
            sim.get_mut(writer).0.push_u32(v);
        }
        while sim.get(sink).ids.len() < 5 {
            sim.step();
            assert!(sim.now() < 1_000, "bursts never issued");
        }
        assert_eq!(sim.get(sink).ids, vec![0, 1, 2, 3, 0]);
        assert_eq!(sim.get(writer).0.stats().get("aw_issued"), 5);
    }
}
