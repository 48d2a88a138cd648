//! Seeded busy traffic shared by the DRAM integration tests: a SplitMix64
//! generator, request groups in six address patterns, and a driver that
//! advances a [`DramSystem`] in small fabric steps while keeping its queues
//! full.

use std::collections::VecDeque;

use bdram::{ChannelStats, DramConfig, DramRequest, DramSystem};

/// SplitMix64, for the busy-channel traffic generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The byte address of burst `col` in (`row`, `bank_group`, `bank`) on
/// channel `ch` under the default `RoBaRaCoCh` mapping (rank 0).
fn coord_addr(cfg: &DramConfig, ch: u64, bank_group: u64, bank: u64, row: u64, col: u64) -> u64 {
    let bursts_per_row = cfg.columns / cfg.timings.burst_length;
    let above_col = (row * cfg.banks_per_group + bank) * cfg.bank_groups + bank_group;
    let burst = (above_col * cfg.ranks * bursts_per_row + col) * cfg.channels + ch;
    burst * cfg.bytes_per_burst()
}

/// Appends one group of requests in a randomly chosen pattern: a
/// sequential stream, same-bank row conflicts, a same-bank-group stream
/// (tCCD_L), a cross-bank-group stream (tCCD_S), an activation storm
/// across banks dense enough to hit tFAW, or random addresses.
fn push_group(
    cfg: &DramConfig,
    rng: &mut Rng,
    cursor: &mut u64,
    next_id: &mut u64,
    backlog: &mut VecDeque<DramRequest>,
) {
    let count = 1 + rng.below(12);
    let pattern = rng.below(6);
    let ch = rng.below(cfg.channels);
    let (bank_group, bank) = (rng.below(cfg.bank_groups), rng.below(cfg.banks_per_group));
    let row = rng.below(cfg.rows);
    let bursts_per_row = cfg.columns / cfg.timings.burst_length;
    for i in 0..count {
        let col = rng.below(bursts_per_row);
        let addr = match pattern {
            0 => {
                *cursor += cfg.bytes_per_burst();
                *cursor
            }
            1 => coord_addr(cfg, ch, bank_group, bank, rng.below(cfg.rows), col),
            2 => coord_addr(cfg, ch, bank_group, i % cfg.banks_per_group, row, col),
            3 => coord_addr(cfg, ch, i % cfg.bank_groups, bank, row, col),
            4 => {
                let flat = i % (cfg.bank_groups * cfg.banks_per_group);
                let (g, b) = (flat % cfg.bank_groups, flat / cfg.bank_groups);
                coord_addr(cfg, ch, g, b, rng.below(cfg.rows), col)
            }
            _ => rng.below(cfg.capacity_bytes()) & !63,
        };
        backlog.push_back(if rng.below(3) == 0 {
            DramRequest::write(*next_id, addr)
        } else {
            DramRequest::read(*next_id, addr)
        });
        *next_id += 1;
    }
}

/// Completions as (step, id, done_ps), where step is the fabric step
/// they were popped at, the per-channel stats, and whether a refresh
/// started while requests were queued on both sides of a step.
pub type BusyRun = (Vec<(usize, u64, u64)>, Vec<ChannelStats>, bool);

/// Drives one DRAM system with busy traffic in small fabric steps.
pub fn drive_busy(cfg: &DramConfig, seed: u64, event_driven: bool) -> BusyRun {
    const FABRIC_PS: u64 = 4_000; // 250 MHz
    let mut dram = DramSystem::new(cfg.clone());
    dram.set_event_driven(event_driven);
    let mut rng = Rng(seed);
    let mut cursor = rng.below(cfg.capacity_bytes() / 2) & !63;
    let mut backlog: VecDeque<DramRequest> = VecDeque::new();
    let mut completions = Vec::new();
    let mut refresh_while_busy = false;
    // Keep traffic coming for 3.5 refresh intervals, then drain: three
    // refreshes, so at least one lands while requests are queued even
    // when the queue runs dry inside a long step.
    let busy_until = cfg.timings.t_refi * cfg.timings.tck_ps * 7 / 2;
    let mut next_id = 0u64;
    let mut ps = 0u64;
    for step in 0.. {
        // Mostly keep a deep backlog; every fourth step or so, let the
        // queue drain instead.
        let target = if rng.below(4) == 0 { 0 } else { 48 };
        while ps < busy_until && backlog.len() < target {
            push_group(cfg, &mut rng, &mut cursor, &mut next_id, &mut backlog);
        }
        while let Some(&req) = backlog.front() {
            if dram.enqueue(req).is_err() {
                break;
            }
            backlog.pop_front();
        }
        if backlog.is_empty() && !dram.is_busy() && ps >= busy_until {
            break;
        }
        let (busy_before, refreshes_before) = (dram.is_busy(), dram.stats().refreshes);
        ps += (1 + rng.below(50)) * FABRIC_PS;
        dram.advance_to_ps(ps);
        while let Some(c) = dram.pop_completion() {
            completions.push((step, c.id, c.done_ps));
        }
        refresh_while_busy |=
            busy_before && dram.is_busy() && dram.stats().refreshes > refreshes_before;
        assert!(ps < busy_until * 4, "busy traffic never drained");
    }
    (completions, dram.per_channel_stats(), refresh_while_busy)
}
