//! Per-bank state machines and timing registers.

use crate::config::DramTimings;

/// What a bank would need next to serve a request for `row`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextCommand {
    /// Row already open: issue the column access.
    Column,
    /// Bank closed: activate the row first.
    Activate,
    /// A different row is open: precharge first.
    Precharge,
}

/// One DRAM bank: the open row (if any) and the earliest cycle at which each
/// command class may legally issue.
#[derive(Debug, Clone)]
pub struct Bank {
    open_row: Option<u64>,
    next_activate: u64,
    next_precharge: u64,
    next_read: u64,
    next_write: u64,
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    /// A closed, idle bank.
    pub fn new() -> Self {
        Self {
            open_row: None,
            next_activate: 0,
            next_precharge: 0,
            next_read: 0,
            next_write: 0,
        }
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// First cycle an ACT may issue (once the bank is closed).
    pub fn next_activate(&self) -> u64 {
        self.next_activate
    }

    /// First cycle a PRE may issue (while a row is open).
    pub fn next_precharge(&self) -> u64 {
        self.next_precharge
    }

    /// First cycle a RD may issue (while a row is open).
    pub fn next_read(&self) -> u64 {
        self.next_read
    }

    /// First cycle a WR may issue (while a row is open).
    pub fn next_write(&self) -> u64 {
        self.next_write
    }

    /// Classifies what command is needed to access `row`.
    pub fn next_command_for(&self, row: u64) -> NextCommand {
        match self.open_row {
            Some(open) if open == row => NextCommand::Column,
            Some(_) => NextCommand::Precharge,
            None => NextCommand::Activate,
        }
    }

    /// Whether an ACT may issue at cycle `now`.
    pub fn can_activate(&self, now: u64) -> bool {
        self.open_row.is_none() && now >= self.next_activate
    }

    /// Whether a PRE may issue at cycle `now`.
    pub fn can_precharge(&self, now: u64) -> bool {
        self.open_row.is_some() && now >= self.next_precharge
    }

    /// Whether a RD may issue at cycle `now` for the open row.
    pub fn can_read(&self, now: u64) -> bool {
        self.open_row.is_some() && now >= self.next_read
    }

    /// Whether a WR may issue at cycle `now` for the open row.
    pub fn can_write(&self, now: u64) -> bool {
        self.open_row.is_some() && now >= self.next_write
    }

    /// Issues ACT(row) at `now`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the activation is not yet legal.
    pub fn activate(&mut self, now: u64, row: u64, t: &DramTimings) {
        debug_assert!(self.can_activate(now), "illegal ACT at {now}");
        self.open_row = Some(row);
        self.next_read = now + t.t_rcd;
        self.next_write = now + t.t_rcd;
        self.next_precharge = now + t.t_ras;
    }

    /// Issues PRE at `now`.
    pub fn precharge(&mut self, now: u64, t: &DramTimings) {
        debug_assert!(self.can_precharge(now), "illegal PRE at {now}");
        self.open_row = None;
        self.next_activate = self.next_activate.max(now + t.t_rp);
    }

    /// Issues RD at `now`; returns the half-open data-bus interval.
    pub fn read(&mut self, now: u64, t: &DramTimings) -> (u64, u64) {
        debug_assert!(self.can_read(now), "illegal RD at {now}");
        let start = now + t.cl;
        let end = start + t.burst_cycles();
        self.next_read = self.next_read.max(now + t.t_ccd);
        self.next_write = self.next_write.max(now + t.t_ccd);
        self.next_precharge = self.next_precharge.max(now + t.t_rtp);
        (start, end)
    }

    /// Issues WR at `now`; returns the half-open data-bus interval.
    pub fn write(&mut self, now: u64, t: &DramTimings) -> (u64, u64) {
        debug_assert!(self.can_write(now), "illegal WR at {now}");
        let start = now + t.cwl;
        let end = start + t.burst_cycles();
        self.next_read = self.next_read.max(end + t.t_wtr);
        self.next_write = self.next_write.max(now + t.t_ccd);
        self.next_precharge = self.next_precharge.max(end + t.t_wr);
        (start, end)
    }

    /// Forces the bank's activate timer forward (used by refresh).
    pub fn block_until(&mut self, cycle: u64) {
        self.next_activate = self.next_activate.max(cycle);
    }

    /// Applies an inter-bank ACT constraint (tRRD/tFAW) to this bank.
    pub fn delay_activate_until(&mut self, cycle: u64) {
        self.next_activate = self.next_activate.max(cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn t() -> DramTimings {
        DramConfig::ddr4_2400().timings
    }

    #[test]
    fn fresh_bank_needs_activate() {
        let bank = Bank::new();
        assert_eq!(bank.next_command_for(5), NextCommand::Activate);
        assert!(bank.can_activate(0));
        assert!(!bank.can_read(0));
    }

    #[test]
    fn activate_opens_row_and_gates_columns_by_trcd() {
        let timings = t();
        let mut bank = Bank::new();
        bank.activate(10, 3, &timings);
        assert_eq!(bank.open_row(), Some(3));
        assert_eq!(bank.next_command_for(3), NextCommand::Column);
        assert_eq!(bank.next_command_for(4), NextCommand::Precharge);
        assert!(!bank.can_read(10 + timings.t_rcd - 1));
        assert!(bank.can_read(10 + timings.t_rcd));
    }

    #[test]
    fn precharge_respects_tras_then_trp() {
        let timings = t();
        let mut bank = Bank::new();
        bank.activate(0, 0, &timings);
        assert!(!bank.can_precharge(timings.t_ras - 1));
        assert!(bank.can_precharge(timings.t_ras));
        bank.precharge(timings.t_ras, &timings);
        assert!(!bank.can_activate(timings.t_ras + timings.t_rp - 1));
        assert!(bank.can_activate(timings.t_ras + timings.t_rp));
    }

    #[test]
    fn read_returns_cl_delayed_burst_window() {
        let timings = t();
        let mut bank = Bank::new();
        bank.activate(0, 0, &timings);
        let now = timings.t_rcd;
        let (start, end) = bank.read(now, &timings);
        assert_eq!(start, now + timings.cl);
        assert_eq!(end, start + timings.burst_cycles());
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let timings = t();
        let mut bank = Bank::new();
        bank.activate(0, 0, &timings);
        let now = timings.t_rcd;
        let (_, end) = bank.write(now, &timings);
        assert!(!bank.can_precharge(end + timings.t_wr - 1));
        assert!(bank.can_precharge(end + timings.t_wr.max(timings.t_ras)));
    }

    #[test]
    fn write_to_read_turnaround() {
        let timings = t();
        let mut bank = Bank::new();
        bank.activate(0, 0, &timings);
        let now = timings.t_rcd;
        let (_, end) = bank.write(now, &timings);
        assert!(!bank.can_read(end + timings.t_wtr - 1));
        assert!(bank.can_read(end + timings.t_wtr));
    }

    #[test]
    fn consecutive_reads_gated_by_tccd() {
        let timings = t();
        let mut bank = Bank::new();
        bank.activate(0, 0, &timings);
        let now = timings.t_rcd;
        bank.read(now, &timings);
        assert!(!bank.can_read(now + timings.t_ccd - 1));
        assert!(bank.can_read(now + timings.t_ccd));
    }
}
