//! A single DRAM channel: FR-FCFS scheduling, shared data bus, refresh.

use std::collections::VecDeque;

use crate::addr::DecodedAddr;
use crate::bank::{Bank, NextCommand};
use crate::config::{DramConfig, PagePolicy};
use crate::DramRequest;

/// Counters exposed by a channel (merged across channels by
/// [`crate::DramSystem::stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChannelStats {
    /// Column reads issued.
    pub reads: u64,
    /// Column writes issued.
    pub writes: u64,
    /// Row activations issued.
    pub activates: u64,
    /// Precharges issued.
    pub precharges: u64,
    /// Column accesses that hit an already-open row.
    pub row_hits: u64,
    /// Demand precharges: a queued access forced a different open row to
    /// close (the row-conflict case, as opposed to policy precharges).
    pub row_conflicts: u64,
    /// Refresh commands issued.
    pub refreshes: u64,
    /// DRAM cycles the channel was blocked by an in-progress refresh
    /// (tRFC per refresh, charged at refresh start so the count is
    /// identical under the naive and idle-skipping schedulers).
    pub refresh_stall_cycles: u64,
    /// DRAM cycles during which the data bus carried data.
    pub data_bus_busy_cycles: u64,
}

impl ChannelStats {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: ChannelStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.activates += other.activates;
        self.precharges += other.precharges;
        self.row_hits += other.row_hits;
        self.row_conflicts += other.row_conflicts;
        self.refreshes += other.refreshes;
        self.refresh_stall_cycles += other.refresh_stall_cycles;
        self.data_bus_busy_cycles += other.data_bus_busy_cycles;
    }

    /// Row-hit rate over all column accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let cols = self.reads + self.writes;
        if cols == 0 {
            0.0
        } else {
            self.row_hits as f64 / cols as f64
        }
    }
}

/// A request waiting for its column command.
#[derive(Debug)]
struct Entry {
    request: DramRequest,
    row: u64,
    bank_group: u64,
    /// `decoded.flat_bank(config)`, computed once at enqueue.
    flat_bank: usize,
    /// Whether this request needed its own row activation (row miss).
    needed_act: bool,
}

impl Entry {
    /// Bank, row and direction: requests with equal keys need the same
    /// next command, legal from the same cycle.
    fn key(&self) -> (usize, u64, bool) {
        (self.flat_bank, self.row, self.request.is_write)
    }
}

/// Whether a run headed in `heads` wants `row` of bank `flat_bank`.
fn wants_row(waiting: &[Entry], heads: &[usize], flat_bank: usize, row: Option<u64>) -> bool {
    heads
        .iter()
        .map(|&idx| &waiting[idx])
        .any(|e| e.flat_bank == flat_bank && Some(e.row) == row)
}

/// The queue's next command: the first cycle a waiting request's next
/// command is legal, and the command FR-FCFS issues then.
struct Plan {
    /// That cycle, never before the cycle the plan was made from;
    /// `u64::MAX` with nothing waiting.
    wake: u64,
    /// The run (its position in `heads`) whose command issues at `wake`,
    /// and the command.
    pick: Option<(usize, NextCommand)>,
}

impl Plan {
    const IDLE: Plan = Plan {
        wake: u64::MAX,
        pick: None,
    };

    /// Folds in run `pos`, whose next command `cmd` is legal from
    /// `ready`. It becomes the pick if legal earlier, or legal at the same
    /// cycle as a column command when the pick is an ACT or PRE. Folded
    /// oldest first, runs leave the oldest ready column command at
    /// `wake`, or else the oldest ready ACT or PRE.
    fn fold(&mut self, pos: usize, cmd: NextCommand, ready: u64) {
        let column_over_prepare =
            cmd == NextCommand::Column && self.pick.is_some_and(|(_, c)| c != NextCommand::Column);
        if ready < self.wake || (ready == self.wake && column_over_prepare) {
            *self = Plan {
                wake: ready,
                pick: Some((pos, cmd)),
            };
        }
    }
}

/// What the refresh state machine left the channel free to do on a tick.
enum Refresh {
    /// No refresh is in progress: the queue may issue.
    Free,
    /// A refresh started this cycle: every bank is closed.
    Started,
    /// A refresh is in progress.
    Stalled,
}

/// What one age-ordered pass over every waiting request found at a
/// cycle: the reference the plan is checked against.
#[cfg(any(test, debug_assertions))]
struct Scan {
    /// The oldest request whose column command is legal at that cycle;
    /// the pass stops there.
    column: Option<usize>,
    /// The oldest request before it whose ACT or PRE is legal then.
    prepare: Option<(usize, NextCommand)>,
    /// The earliest cycle a scanned request's next command is legal:
    /// exact when no column command was found, at most the scan cycle
    /// otherwise, `u64::MAX` with nothing waiting.
    wake: u64,
}

/// One channel's command scheduler and banks.
pub struct DramChannel {
    config: DramConfig,
    banks: Vec<Bank>,
    /// Requests waiting for their column command, oldest first.
    waiting: Vec<Entry>,
    /// The index in `waiting` of the first request of each run: a maximal
    /// stretch of consecutive requests with one key (bank, row and
    /// direction). Only a run's first request can issue, so planning
    /// visits these alone.
    heads: Vec<usize>,
    /// Requests whose column command has issued, with the cycle their data
    /// finishes, in issue order. The data bus is serialized, so done
    /// cycles strictly increase and the front always retires first.
    in_flight: VecDeque<(DramRequest, u64)>,
    /// Cycle until which the shared data bus is claimed.
    data_bus_free_at: u64,
    /// Most recent data-bus op was a write (for turnaround penalties).
    last_was_write: bool,
    /// Next refresh deadline.
    next_refresh_at: u64,
    /// While Some, the channel is refreshing until this cycle.
    refreshing_until: Option<u64>,
    /// Recent ACT issue cycles, for tFAW (keep last 4).
    recent_activates: VecDeque<u64>,
    /// (cycle, bank_group) of the most recent column command, for the
    /// rank-level tCCD_S / tCCD_L constraint.
    last_column: Option<(u64, u64)>,
    /// Banks awaiting an auto-precharge (closed-page policy).
    auto_precharge: Vec<usize>,
    /// Scratch for [`DramChannel::plan`], one flag per bank: whether a
    /// run earlier in the pass wants the bank's open row.
    row_wanted: Vec<bool>,
    /// The next command, in the state left by the last command,
    /// auto-precharge, refresh start or enqueue.
    plan: Plan,
    stats: ChannelStats,
}

impl DramChannel {
    /// Creates an idle channel.
    pub fn new(config: DramConfig) -> Self {
        let next_refresh_at = config.timings.t_refi;
        let bank_count = config.banks_per_channel() as usize;
        Self {
            config,
            banks: vec![Bank::new(); bank_count],
            waiting: Vec::new(),
            heads: Vec::new(),
            in_flight: VecDeque::new(),
            data_bus_free_at: 0,
            last_was_write: false,
            next_refresh_at,
            refreshing_until: None,
            recent_activates: VecDeque::new(),
            last_column: None,
            auto_precharge: Vec::new(),
            row_wanted: vec![false; bank_count],
            plan: Plan::IDLE,
            stats: ChannelStats::default(),
        }
    }

    /// Whether another request fits in the scheduler queue, which holds
    /// waiting and in-flight requests alike.
    pub fn can_accept(&self) -> bool {
        self.waiting.len() + self.in_flight.len() < self.config.queue_depth
    }

    /// Enqueues a pre-decoded request at DRAM cycle `now`: the next
    /// [`tick`](DramChannel::tick) simulates `now` or a later cycle.
    ///
    /// # Errors
    ///
    /// Returns `Err(request)` when the queue is full.
    pub fn enqueue(
        &mut self,
        request: DramRequest,
        decoded: DecodedAddr,
        now: u64,
    ) -> Result<(), DramRequest> {
        if !self.can_accept() {
            return Err(request);
        }
        let entry = Entry {
            request,
            row: decoded.row,
            bank_group: decoded.bank_group,
            flat_bank: decoded.flat_bank(&self.config) as usize,
            needed_act: false,
        };
        // A request that extends the last run cannot issue before that
        // run's head, so the plan stands. A newer run never delays an
        // older one's command, so the plan only needs the newcomer's own,
        // no earlier than `now`.
        if self.waiting.last().map(Entry::key) != Some(entry.key()) {
            let bank = &self.banks[entry.flat_bank];
            let cmd = bank.next_command_for(entry.row);
            let blocked = cmd == NextCommand::Precharge
                && wants_row(&self.waiting, &self.heads, entry.flat_bank, bank.open_row());
            let ready = self.ready_at(&entry, cmd, blocked).max(now);
            self.plan.fold(self.heads.len(), cmd, ready);
            self.heads.push(self.waiting.len());
        }
        self.waiting.push(entry);
        Ok(())
    }

    /// Whether work remains queued or in flight.
    pub fn is_busy(&self) -> bool {
        !self.waiting.is_empty() || !self.in_flight.is_empty()
    }

    /// The earliest DRAM cycle `>= from` at which [`tick`] may do anything
    /// observable; ticks at cycles in `[from, next_active_at(from))` are
    /// guaranteed no-ops (mirroring `bsim`'s `next_event` contract, in this
    /// channel's command-clock domain).
    ///
    /// The bound is exact: the minimum of the end of an in-progress
    /// refresh (or the next refresh deadline) and the plan's cycle, the
    /// first at which some waiting request's next command (column, ACT or
    /// PRE) becomes legal in the current state. Every condition [`tick`]
    /// tests is a threshold that only opens as time passes, and a tick
    /// that issues nothing changes no state, so nothing can happen before
    /// that minimum and something does at it. While an auto-precharge is
    /// pending or a refresh is due the channel is active every cycle. Data
    /// finishing on the bus is not a tick's activity: in-flight requests
    /// retire through [`retire_before`] whenever the caller asks (see
    /// [`next_done`]).
    ///
    /// [`tick`]: DramChannel::tick
    /// [`retire_before`]: DramChannel::retire_before
    /// [`next_done`]: DramChannel::next_done
    pub fn next_active_at(&self, from: u64) -> u64 {
        if !self.auto_precharge.is_empty() {
            return from;
        }
        let refresh_wake = self.refreshing_until.unwrap_or(self.next_refresh_at);
        refresh_wake.min(self.plan.wake).max(from)
    }

    /// The cycle the oldest in-flight request's data finishes: the next
    /// request to retire.
    pub fn next_done(&self) -> Option<u64> {
        self.in_flight.front().map(|&(_, done)| done)
    }

    /// Retires the oldest in-flight request if its data finished before
    /// cycle `end`, returning it with its done cycle and freeing its queue
    /// slot.
    pub fn retire_before(&mut self, end: u64) -> Option<(DramRequest, u64)> {
        if self.next_done()? < end {
            self.in_flight.pop_front()
        } else {
            None
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Advances one DRAM command-clock cycle. Each change of bank or bus
    /// state (a command, an auto-precharge, a refresh start) plans the
    /// next command once; a tick that changes nothing plans nothing.
    pub fn tick(&mut self, now: u64) {
        let closed = self.service_auto_precharge(now);
        let changed = match self.handle_refresh(now) {
            Refresh::Started => true,
            Refresh::Stalled => closed,
            Refresh::Free => {
                // A closed bank's runs now need an ACT. If nothing issues
                // at `now` either, this plan already starts at `now + 1`.
                if closed {
                    self.plan(now);
                }
                self.issue_planned(now)
            }
        };
        if changed {
            self.plan(now + 1);
        }
    }

    /// Closed-page policy: close banks whose access finished, unless a
    /// waiting request still wants the open row (then it is a free hit).
    /// Returns whether a bank closed.
    fn service_auto_precharge(&mut self, now: u64) -> bool {
        let (banks, stats) = (&mut self.banks, &mut self.stats);
        let (waiting, heads) = (&self.waiting, &self.heads);
        let t = &self.config.timings;
        let mut closed = false;
        self.auto_precharge.retain(|&bank_idx| {
            let bank = &mut banks[bank_idx];
            let open = bank.open_row();
            if open.is_none() || wants_row(waiting, heads, bank_idx, open) {
                return false; // already closed, or a pending hit cancels it
            }
            if !bank.can_precharge(now) {
                return true;
            }
            bank.precharge(now, t);
            stats.precharges += 1;
            closed = true;
            false
        });
        closed
    }

    /// Refresh state machine: whether the queue may issue this cycle.
    fn handle_refresh(&mut self, now: u64) -> Refresh {
        let t = &self.config.timings;
        if let Some(until) = self.refreshing_until {
            if now < until {
                return Refresh::Stalled;
            }
            self.refreshing_until = None;
            self.next_refresh_at = now + t.t_refi;
            return Refresh::Free;
        }
        if now >= self.next_refresh_at {
            // All-bank refresh: precharge-all first (close any open banks
            // that are allowed to close; if some cannot yet, try next cycle).
            let all_closable = self
                .banks
                .iter()
                .all(|b| b.open_row().is_none() || b.can_precharge(now));
            if !all_closable {
                return Refresh::Free; // keep draining; refresh pending
            }
            let until = now + t.t_rfc;
            for bank in &mut self.banks {
                if bank.open_row().is_some() {
                    bank.precharge(now, t);
                    self.stats.precharges += 1;
                }
                bank.block_until(until);
            }
            self.refreshing_until = Some(until);
            self.stats.refreshes += 1;
            self.stats.refresh_stall_cycles += t.t_rfc;
            return Refresh::Started;
        }
        Refresh::Free
    }

    /// tFAW: the first cycle a fourth-plus ACT may issue.
    fn faw_ready_at(&self) -> u64 {
        match self.recent_activates.len() {
            n if n < 4 => 0,
            n => self.recent_activates[n - 4] + self.config.timings.t_faw,
        }
    }

    /// The first cycle `entry`'s column command is legal, for an entry
    /// whose row is open: the bank's read/write timer, rank-level
    /// column-to-column spacing (tCCD_L within a bank group, tCCD_S across
    /// groups — DDR4's bank-group architecture), and the shared data bus
    /// including read/write turnaround.
    fn column_ready_at(&self, entry: &Entry) -> u64 {
        let t = &self.config.timings;
        let bank = &self.banks[entry.flat_bank];
        let is_write = entry.request.is_write;
        let mut at = if is_write {
            bank.next_write()
        } else {
            bank.next_read()
        };
        if let Some((last, group)) = self.last_column {
            let gap = if group == entry.bank_group {
                t.t_ccd_l
            } else {
                t.t_ccd
            };
            at = at.max(last + gap);
        }
        let turnaround = if self.last_was_write != is_write {
            t.t_wtr.min(4)
        } else {
            0
        };
        let latency = if is_write { t.cwl } else { t.cl };
        at.max((self.data_bus_free_at + turnaround).saturating_sub(latency))
    }

    /// The first cycle `entry`'s next command `cmd` is legal. A PRE never
    /// closes a row that an older request still wants (`blocked`): such
    /// an entry waits on that request's column command and has no bound
    /// of its own (`u64::MAX`).
    fn ready_at(&self, entry: &Entry, cmd: NextCommand, blocked: bool) -> u64 {
        let bank = &self.banks[entry.flat_bank];
        match cmd {
            NextCommand::Column => self.column_ready_at(entry),
            NextCommand::Activate => bank.next_activate().max(self.faw_ready_at()),
            NextCommand::Precharge if blocked => u64::MAX,
            NextCommand::Precharge => bank.next_precharge(),
        }
    }

    /// `entry`'s next command and the first cycle it is legal, given
    /// which banks' open rows an older request wants.
    fn next_ready(&self, entry: &Entry, row_wanted: &[bool]) -> (NextCommand, u64) {
        let cmd = self.banks[entry.flat_bank].next_command_for(entry.row);
        let blocked = cmd == NextCommand::Precharge && row_wanted[entry.flat_bank];
        (cmd, self.ready_at(entry, cmd, blocked))
    }

    /// Plans the next command from cycle `floor` on, in one pass over the
    /// run heads, oldest first (see [`Plan::fold`]). Marking each bank
    /// whose open row a run wants as the pass goes tells every later PRE
    /// whether an older request blocks it. The pass stops at a column
    /// command legal at `floor`: nothing later can issue ahead of it.
    ///
    /// Ready cycles move only with a command, an auto-precharge or a
    /// refresh start, and each of those plans again, so the plan holds
    /// until then; `enqueue` folds newcomers in.
    fn plan(&mut self, floor: u64) {
        let mut row_wanted = std::mem::take(&mut self.row_wanted);
        row_wanted.fill(false);
        let mut plan = Plan::IDLE;
        for (pos, &idx) in self.heads.iter().enumerate() {
            let entry = &self.waiting[idx];
            let (cmd, ready) = self.next_ready(entry, &row_wanted);
            let ready = ready.max(floor);
            plan.fold(pos, cmd, ready);
            if cmd == NextCommand::Column {
                if ready == floor {
                    break;
                }
                row_wanted[entry.flat_bank] = true;
            }
        }
        self.row_wanted = row_wanted;
        self.plan = plan;
    }

    /// Issues the planned command if it is due at `now`, and reports
    /// whether it did. Before the plan's cycle no waiting request's next
    /// command is legal.
    fn issue_planned(&mut self, now: u64) -> bool {
        let pick = self.plan.pick.filter(|_| self.plan.wake <= now);
        #[cfg(any(test, debug_assertions))]
        self.check_plan(now, pick);
        match pick {
            None => false,
            Some((pos, NextCommand::Column)) => {
                self.issue_column(pos, now);
                true
            }
            Some((pos, cmd)) => {
                self.issue_prepare(pos, cmd, now);
                true
            }
        }
    }

    /// Test and debug builds check the plan on every tick that may issue:
    /// `heads` marks exactly the runs, the tick lands no later than the
    /// plan's cycle, and the planned command is the one a fresh
    /// [`scan`](DramChannel::scan) of every waiting request picks, with
    /// the same wake when nothing is due.
    #[cfg(any(test, debug_assertions))]
    fn check_plan(&mut self, now: u64, pick: Option<(usize, NextCommand)>) {
        let w = &self.waiting;
        let starts = (0..w.len()).filter(|&i| i == 0 || w[i - 1].key() != w[i].key());
        assert!(
            self.heads.iter().copied().eq(starts),
            "run heads out of date"
        );
        assert!(
            now <= self.plan.wake,
            "cycle {now}: tick after the planned wake"
        );
        let planned = pick.map(|(pos, cmd)| (self.heads[pos], cmd));
        let scan = self.scan(now);
        let fresh = scan.column.map(|idx| (idx, NextCommand::Column));
        assert_eq!(planned, fresh.or(scan.prepare), "cycle {now}: plan vs scan");
        if planned.is_none() {
            assert_eq!(self.plan.wake, scan.wake, "cycle {now}: planned wake");
        }
    }

    /// One pass over every waiting request, oldest first, at cycle `now`:
    /// the first whose column command is legal (the pass stops there), the
    /// first whose ACT or PRE is legal, and the earliest cycle any next
    /// command becomes legal.
    #[cfg(any(test, debug_assertions))]
    fn scan(&mut self, now: u64) -> Scan {
        let mut row_wanted = std::mem::take(&mut self.row_wanted);
        row_wanted.fill(false);
        let mut scan = Scan {
            column: None,
            prepare: None,
            wake: u64::MAX,
        };
        for (idx, entry) in self.waiting.iter().enumerate() {
            let (cmd, ready) = self.next_ready(entry, &row_wanted);
            if cmd == NextCommand::Column {
                row_wanted[entry.flat_bank] = true;
            }
            scan.wake = scan.wake.min(ready);
            if ready > now {
                continue;
            }
            if cmd == NextCommand::Column {
                scan.column = Some(idx);
                break;
            }
            scan.prepare = scan.prepare.or(Some((idx, cmd)));
        }
        self.row_wanted = row_wanted;
        scan
    }

    /// Issues run `pos`'s column command and moves its first request in
    /// flight. The run's next request becomes its head; if there is none,
    /// the runs either side now touch and join when they share a key.
    fn issue_column(&mut self, pos: usize, now: u64) {
        let idx = self.heads[pos];
        let entry = self.waiting.remove(idx);
        for head in &mut self.heads[pos + 1..] {
            *head -= 1;
        }
        if self.waiting.get(idx).map(Entry::key) != Some(entry.key()) {
            self.heads.remove(pos);
            let joined = pos > 0
                && pos < self.heads.len()
                && self.waiting[self.heads[pos - 1]].key() == self.waiting[self.heads[pos]].key();
            if joined {
                self.heads.remove(pos);
            }
        }
        let t = &self.config.timings;
        let is_write = entry.request.is_write;
        let bank = &mut self.banks[entry.flat_bank];
        let (start, end) = if is_write {
            bank.write(now, t)
        } else {
            bank.read(now, t)
        };
        self.last_column = Some((now, entry.bank_group));
        self.data_bus_free_at = end;
        self.last_was_write = is_write;
        self.stats.data_bus_busy_cycles += end - start;
        if !entry.needed_act {
            self.stats.row_hits += 1;
        }
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        if self.config.page_policy == PagePolicy::Closed
            && !self.auto_precharge.contains(&entry.flat_bank)
        {
            self.auto_precharge.push(entry.flat_bank);
        }
        self.in_flight.push_back((entry.request, end));
    }

    /// Issues run `pos`'s ACT or PRE.
    fn issue_prepare(&mut self, pos: usize, cmd: NextCommand, now: u64) {
        let t = &self.config.timings;
        let entry = &mut self.waiting[self.heads[pos]];
        let flat_bank = entry.flat_bank;
        if cmd == NextCommand::Activate {
            entry.needed_act = true;
            self.banks[flat_bank].activate(now, entry.row, t);
            // tRRD to all other banks in the rank (we apply channel-wide;
            // conservative).
            for (b, bank) in self.banks.iter_mut().enumerate() {
                if b != flat_bank {
                    bank.delay_activate_until(now + t.t_rrd);
                }
            }
            self.recent_activates.push_back(now);
            if self.recent_activates.len() > 8 {
                self.recent_activates.pop_front();
            }
            self.stats.activates += 1;
        } else {
            self.banks[flat_bank].precharge(now, t);
            self.stats.precharges += 1;
            self.stats.row_conflicts += 1;
        }
    }
}

impl std::fmt::Debug for DramChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramChannel")
            .field("waiting", &self.waiting.len())
            .field("in_flight", &self.in_flight.len())
            .field("banks", &self.banks.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    /// A channel ticked one cycle at a time from cycle 0.
    struct Rig {
        cfg: DramConfig,
        ch: DramChannel,
        /// The next cycle to tick.
        now: u64,
    }

    impl Rig {
        fn new(cfg: DramConfig) -> Self {
            let ch = DramChannel::new(cfg.clone());
            Self { cfg, ch, now: 0 }
        }

        fn enqueue(&mut self, request: DramRequest) {
            let decoded = self.cfg.mapping.decode(request.addr, &self.cfg);
            self.ch.enqueue(request, decoded, self.now).unwrap();
        }

        /// Ticks the next `cycles` cycles, retiring each request on its
        /// done cycle.
        fn run(&mut self, cycles: u64) -> Vec<(DramRequest, u64)> {
            let mut out = Vec::new();
            for _ in 0..cycles {
                self.ch.tick(self.now);
                self.now += 1;
                while let Some(c) = self.ch.retire_before(self.now) {
                    out.push(c);
                }
            }
            out
        }
    }

    #[test]
    fn read_latency_decomposes_into_act_cas_burst() {
        let cfg = DramConfig::ddr4_2400();
        let t = cfg.timings.clone();
        let mut rig = Rig::new(cfg);
        rig.enqueue(DramRequest::read(0, 0));
        let done = rig.run(500);
        assert_eq!(done.len(), 1);
        // ACT at 0, RD at tRCD, data ends at tRCD + CL + BL/2.
        assert_eq!(done[0].1, t.t_rcd + t.cl + t.burst_cycles());
    }

    #[test]
    fn bank_parallelism_beats_single_bank_conflicts() {
        let cfg = DramConfig::ddr4_2400();
        // Same bank, different rows: serialized by tRAS+tRP.
        let mut rig = Rig::new(cfg.clone());
        let stride = cfg.row_stride_bytes();
        for i in 0..4u64 {
            rig.enqueue(DramRequest::read(i, i * stride));
        }
        let conflict_done = rig.run(4000).iter().map(|c| c.1).max().unwrap();

        // Different banks: overlapped activations.
        let mut rig = Rig::new(cfg.clone());
        let bank_stride = cfg.row_bytes(); // next bank under RoBaRaCoCh (after columns come rank/bank bits)
        for i in 0..4u64 {
            rig.enqueue(DramRequest::read(i, i * bank_stride));
        }
        let parallel_done = rig.run(4000).iter().map(|c| c.1).max().unwrap();
        assert!(
            parallel_done < conflict_done,
            "bank-parallel ({parallel_done}) should beat same-bank conflicts ({conflict_done})"
        );
    }

    #[test]
    fn refresh_fires_periodically() {
        let cfg = DramConfig::ddr4_2400();
        let trefi = cfg.timings.t_refi;
        let mut rig = Rig::new(cfg);
        rig.run(trefi * 3 + 100);
        assert!(
            rig.ch.stats().refreshes >= 2,
            "refreshes = {}",
            rig.ch.stats().refreshes
        );
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        let cfg = DramConfig::ddr4_2400();
        let mut rig = Rig::new(cfg.clone());
        let stride = cfg.row_stride_bytes();
        // Oldest request conflicts (different row, same bank as #1 after it);
        // the row-hit to the already-open row should still be served quickly.
        rig.enqueue(DramRequest::read(0, 0));
        let done1 = rig.run(200);
        assert_eq!(done1.len(), 1);
        // Row 0 is now open. Queue a conflict and a hit.
        rig.enqueue(DramRequest::read(1, stride));
        rig.enqueue(DramRequest::read(2, 64));
        let done = rig.run(2000);
        assert_eq!(done.len(), 2);
        let hit = done.iter().find(|c| c.0.id == 2).unwrap().1;
        let conflict = done.iter().find(|c| c.0.id == 1).unwrap().1;
        assert!(
            hit < conflict,
            "row hit ({hit}) should finish before conflict ({conflict})"
        );
    }

    #[test]
    fn closed_page_policy_precharges_after_access() {
        let mut cfg = DramConfig::ddr4_2400();
        cfg.page_policy = PagePolicy::Closed;
        let mut rig = Rig::new(cfg);
        rig.enqueue(DramRequest::read(0, 0));
        rig.run(500);
        // After the access retires, the bank must be closed again.
        let stats = rig.ch.stats();
        assert_eq!(stats.precharges, 1, "auto-precharge should have fired");
    }

    #[test]
    fn closed_page_speeds_up_row_conflicts() {
        // Alternating rows of one bank: closed-page pre-pays tRP during
        // idle time; open-page pays PRE on the critical path.
        let run = |policy: PagePolicy| {
            let mut cfg = DramConfig::ddr4_2400();
            cfg.page_policy = policy;
            let stride = cfg.row_stride_bytes();
            let mut rig = Rig::new(cfg);
            for i in 0..6u64 {
                rig.enqueue(DramRequest::read(i, (i % 2) * stride));
                // Idle gap between arrivals lets closed-page hide tRP.
                rig.run(200);
            }
            rig.ch.stats()
        };
        let closed = run(PagePolicy::Closed);
        let open = run(PagePolicy::Open);
        // Closed-page turns every access into a (pre-opened) miss but
        // never pays a demand precharge; with alternating rows both do
        // the same activations, and closed does its precharges early.
        assert_eq!(closed.reads, open.reads);
        assert!(closed.precharges >= open.precharges);
    }

    #[test]
    fn closed_page_keeps_pending_hits_open() {
        let mut cfg = DramConfig::ddr4_2400();
        cfg.page_policy = PagePolicy::Closed;
        let mut rig = Rig::new(cfg);
        // Two same-row requests queued together: the auto-precharge must
        // not fire between them.
        rig.enqueue(DramRequest::read(0, 0));
        rig.enqueue(DramRequest::read(1, 64));
        rig.run(500);
        let stats = rig.ch.stats();
        assert_eq!(stats.activates, 1, "second access should still row-hit");
        assert_eq!(stats.row_hits, 1);
    }

    #[test]
    fn bank_group_spacing_tccd_l_vs_tccd_s() {
        let cfg = DramConfig::ddr4_2400();
        let t = cfg.timings.clone();
        // Same bank group, same row: column commands spaced by tCCD_L.
        let mut rig = Rig::new(cfg.clone());
        rig.enqueue(DramRequest::read(0, 0));
        rig.enqueue(DramRequest::read(1, 64));
        let done = rig.run(500);
        let same_group_gap = done[1].1 - done[0].1;
        assert_eq!(same_group_gap, t.t_ccd_l.max(t.burst_cycles()));

        // Different bank groups with both rows already open (warm-up reads
        // first so no ACT is in the way): tCCD_S applies.
        let mut rig = Rig::new(cfg.clone());
        // Under RoBaRaCoCh the bank-group bits sit above the column bits.
        let other_group = cfg.row_bytes();
        let d0 = cfg.mapping.decode(0, &cfg);
        let d1 = cfg.mapping.decode(other_group, &cfg);
        assert_ne!(
            d0.bank_group, d1.bank_group,
            "addresses must differ in bank group"
        );
        rig.enqueue(DramRequest::read(100, 0));
        rig.enqueue(DramRequest::read(101, other_group));
        rig.run(500);
        rig.enqueue(DramRequest::read(0, 64));
        rig.enqueue(DramRequest::read(1, other_group + 64));
        let done = rig.run(1000);
        let cross_group_gap = done[1].1 - done[0].1;
        assert_eq!(cross_group_gap, t.t_ccd.max(t.burst_cycles()));
        assert!(cross_group_gap < same_group_gap);
    }

    #[test]
    fn refresh_stall_cycles_accumulate_trfc_per_refresh() {
        let cfg = DramConfig::ddr4_2400();
        let trefi = cfg.timings.t_refi;
        let trfc = cfg.timings.t_rfc;
        let mut rig = Rig::new(cfg);
        rig.run(trefi * 3 + 100);
        let s = rig.ch.stats();
        assert!(s.refreshes >= 2);
        assert_eq!(s.refresh_stall_cycles, s.refreshes * trfc);
    }

    #[test]
    fn demand_precharges_count_as_row_conflicts() {
        let cfg = DramConfig::ddr4_2400();
        let stride = cfg.row_stride_bytes();
        let mut rig = Rig::new(cfg);
        // Open row 0, then force a conflicting access to row 1 of the bank.
        rig.enqueue(DramRequest::read(0, 0));
        rig.run(300);
        assert_eq!(rig.ch.stats().row_conflicts, 0);
        rig.enqueue(DramRequest::read(1, stride));
        rig.run(500);
        assert_eq!(rig.ch.stats().row_conflicts, 1);
    }

    /// The busy-channel bound is exact: a tick before it changes nothing,
    /// and a tick at it issues a command or moves the refresh state
    /// machine — except while a refresh is due and waiting for banks to
    /// become closable. Retiring a request is not a tick's activity: the
    /// test retires each one on its done cycle, outside the tick.
    #[test]
    fn busy_bound_is_exact() {
        let cfg = DramConfig::ddr4_2400();
        let trefi = cfg.timings.t_refi;
        let mut ch = DramChannel::new(cfg.clone());
        let enqueue_batch = |ch: &mut DramChannel, first: u64, now: u64| {
            // Row hits, same-bank row conflicts, cross-group reads, writes.
            for i in first..first + 24 {
                let addr = match i % 3 {
                    0 => i * 64,
                    1 => (i % 4) * cfg.row_stride_bytes(),
                    _ => (i % 16) * cfg.row_bytes(),
                };
                let req = if i % 5 == 0 {
                    DramRequest::write(i, addr)
                } else {
                    DramRequest::read(i, addr)
                };
                ch.enqueue(req, cfg.mapping.decode(addr, &cfg), now)
                    .unwrap();
            }
        };
        enqueue_batch(&mut ch, 0, 0);
        let (mut skipped, mut active) = (0, 0);
        for now in 0..trefi + 2_000 {
            if now == trefi - 40 {
                enqueue_batch(&mut ch, 100, now); // busy when refresh falls due
            }
            let wake = ch.next_active_at(now);
            let refresh_due = ch.refreshing_until.is_none() && now >= ch.next_refresh_at;
            let state = |ch: &DramChannel| (ch.waiting.len(), ch.stats, ch.refreshing_until);
            let before = state(&ch);
            ch.tick(now);
            let acted = state(&ch) != before;
            if wake > now {
                assert!(!acted, "cycle {now}: tick acted before the bound {wake}");
                skipped += 1;
            } else if !refresh_due {
                assert!(acted, "cycle {now}: bound said active, tick was a no-op");
                active += 1;
            }
            while ch.retire_before(now + 1).is_some() {}
        }
        assert!(!ch.is_busy(), "traffic drained");
        assert_eq!(ch.stats().refreshes, 1);
        assert!(skipped > active, "skipped {skipped}, active {active}");
    }

    #[test]
    fn stats_count_hits_and_activates() {
        let cfg = DramConfig::ddr4_2400();
        let mut rig = Rig::new(cfg);
        for i in 0..8u64 {
            rig.enqueue(DramRequest::read(i, i * 64));
        }
        rig.run(2000);
        let s = rig.ch.stats();
        assert_eq!(s.reads, 8);
        assert_eq!(s.activates, 1, "one row serves all eight bursts");
        // The first access misses (it triggered the ACT); the rest hit.
        assert_eq!(s.row_hits, 7);
        assert!(s.row_hit_rate() > 0.85);
    }

    /// A-B-A: B is a row hit on an open bank and issues first, which
    /// leaves the two requests to A's key adjacent. They must act as one
    /// run: one head, one ACT, and the second request a row hit.
    #[test]
    fn runs_to_one_key_join_when_the_run_between_them_drains() {
        let cfg = DramConfig::ddr4_2400();
        let other_bank = cfg.row_bytes();
        let mut rig = Rig::new(cfg);
        rig.enqueue(DramRequest::read(0, other_bank));
        rig.run(200);
        let warm = rig.ch.stats();
        rig.enqueue(DramRequest::read(1, 0)); // A: closed bank, needs an ACT
        rig.enqueue(DramRequest::read(2, other_bank + 64)); // B: row hit
        rig.enqueue(DramRequest::read(3, 64)); // A again
        assert_eq!(rig.ch.heads, [0, 1, 2]);
        // The hit and A's ACT are both legal now; the column goes first.
        let done = rig.run(1);
        assert!(done.is_empty());
        assert_eq!(rig.ch.stats().reads, warm.reads + 1);
        assert_eq!(rig.ch.stats().activates, warm.activates);
        assert_eq!(rig.ch.waiting.len(), 2);
        assert_eq!(rig.ch.heads, [0], "A's two requests form one run");
        let done = rig.run(500);
        let ids: Vec<u64> = done.iter().map(|(r, _)| r.id).collect();
        assert_eq!(ids, [2, 1, 3]);
        let s = rig.ch.stats();
        assert_eq!(s.activates - warm.activates, 1);
        assert_eq!(s.row_hits - warm.row_hits, 2, "B and the second A hit");
    }

    /// SplitMix64, for seeded traffic.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// The plan against a fresh scan of every waiting request, on every
    /// shipped preset plus closed-page DDR4 and a 128-bank DDR4. Each
    /// tick that may issue checks, in test builds, that the planned
    /// command is the scan's and that the planned wake is the scan's when
    /// nothing is due (`check_plan`). Seeded traffic keeps the queue near
    /// full across two refreshes: same-key runs broken by other keys,
    /// row conflicts on a few banks, reads and writes.
    #[test]
    fn planned_commands_match_a_fresh_scan_on_every_preset() {
        let mut closed = DramConfig::ddr4_2400();
        closed.page_policy = PagePolicy::Closed;
        let mut wide = DramConfig::ddr4_2400();
        (wide.ranks, wide.banks_per_group, wide.rows) = (2, 16, 16384);
        let presets = [
            DramConfig::ddr4_2400(),
            DramConfig::ddr4_2400_quad(),
            DramConfig::hbm2(),
            DramConfig::lpddr4_embedded(),
            closed,
            wide,
        ];
        for (seed, cfg) in presets.into_iter().enumerate() {
            let trefi = cfg.timings.t_refi;
            let mut rng = Rng(seed as u64);
            let mut rig = Rig::new(cfg.clone());
            let mut id = 0;
            let mut done = 0;
            while rig.now < 2 * trefi + trefi / 2 || rig.ch.is_busy() {
                // Bursts of arrivals, then gaps that let the queue drain.
                let arrivals = if rig.now < 2 * trefi && rng.below(8) < 5 {
                    3
                } else {
                    0
                };
                for _ in 0..arrivals {
                    if !rig.ch.can_accept() {
                        break;
                    }
                    let decoded = DecodedAddr {
                        channel: 0,
                        rank: rng.below(cfg.ranks),
                        bank_group: rng.below(cfg.bank_groups.min(2)),
                        bank: rng.below(cfg.banks_per_group.min(2)),
                        row: rng.below(3),
                        column: 0,
                    };
                    let req = DramRequest {
                        id,
                        addr: 0,
                        is_write: rng.below(3) == 0,
                    };
                    rig.ch.enqueue(req, decoded, rig.now).unwrap();
                    id += 1;
                }
                done += rig.run(1 + rng.below(4)).len();
            }
            let s = rig.ch.stats();
            assert_eq!(done as u64, id);
            assert_eq!(s.reads + s.writes, id);
            assert!(s.refreshes >= 2, "{s:?}");
            assert!(s.row_hits > 0 && s.row_conflicts > 0, "{s:?}");
        }
    }
}
