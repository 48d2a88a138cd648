//! DRAM schedule golden: seeded busy traffic (the `drive_busy` mix of
//! streams, row conflicts, bank-group strides, activation storms and random
//! addresses) runs through each shipped configuration, closed-page DDR4 and
//! a 128-bank DDR4 geometry. Every completion `(step, id, done_ps)` and
//! every per-channel counter is folded into an FNV digest pinned below.
//!
//! `busy_channel_advance_is_cycle_exact` compares the naive advance with
//! the event-driven one, but both run the same command scheduler, so a
//! scheduling change they share passes it. These digests catch that: any
//! change to which command issues when, to the completion order, or to a
//! counter moves one. Each digest holds under both advances, which is also
//! what `BSIM_NAIVE=1` selects.

mod common;

use bdram::{DramConfig, PagePolicy};
use common::drive_busy;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Seeds per configuration.
const RUNS: u64 = 3;

/// The (completions, per-channel stats) digests of `RUNS` seeded busy
/// runs from `seed` on.
fn digests(cfg: &DramConfig, seed: u64, event_driven: bool) -> (u64, u64) {
    let (mut done, mut counters) = (Fnv::new(), Fnv::new());
    for run in 0..RUNS {
        let (completions, stats, _) = drive_busy(cfg, seed + run, event_driven);
        for (step, id, done_ps) in completions {
            done.u64(step as u64);
            done.u64(id);
            done.u64(done_ps);
        }
        for s in stats {
            for v in [
                s.reads,
                s.writes,
                s.activates,
                s.precharges,
                s.row_hits,
                s.row_conflicts,
                s.refreshes,
                s.refresh_stall_cycles,
                s.data_bus_busy_cycles,
            ] {
                counters.u64(v);
            }
        }
    }
    (done.0, counters.0)
}

fn check(name: &str, cfg: DramConfig, seed: u64, golden: (u64, u64)) {
    for event_driven in [false, true] {
        let got = digests(&cfg, seed, event_driven);
        assert_eq!(
            got, golden,
            "{name} (event_driven = {event_driven}): got ({:#018x}, {:#018x})",
            got.0, got.1
        );
    }
}

#[test]
fn ddr4_2400_schedule_matches_golden() {
    check("ddr4_2400", DramConfig::ddr4_2400(), 0xd4_0001, DDR4);
}

#[test]
fn ddr4_2400_quad_schedule_matches_golden() {
    check(
        "ddr4_2400_quad",
        DramConfig::ddr4_2400_quad(),
        0xd4_0004,
        DDR4_QUAD,
    );
}

#[test]
fn hbm2_schedule_matches_golden() {
    check("hbm2", DramConfig::hbm2(), 0x4b_0002, HBM2);
}

#[test]
fn lpddr4_embedded_schedule_matches_golden() {
    check(
        "lpddr4_embedded",
        DramConfig::lpddr4_embedded(),
        0x1d_0004,
        LPDDR4,
    );
}

#[test]
fn closed_page_ddr4_schedule_matches_golden() {
    let mut cfg = DramConfig::ddr4_2400();
    cfg.page_policy = PagePolicy::Closed;
    check("closed-page ddr4", cfg, 0xc1_05ed, DDR4_CLOSED);
}

/// Two ranks of 4 × 16 banks: 128 banks per channel, more than one
/// machine word of per-bank flags.
#[test]
fn ddr4_128_bank_schedule_matches_golden() {
    let mut cfg = DramConfig::ddr4_2400();
    cfg.ranks = 2;
    cfg.banks_per_group = 16;
    cfg.rows = 16384;
    assert_eq!(cfg.banks_per_channel(), 128);
    check("128-bank ddr4", cfg, 0x80_0128, DDR4_128_BANKS);
}

const DDR4: (u64, u64) = (0xbc1c_a468_3507_48b3, 0x165a_aff1_2560_3318);
const DDR4_QUAD: (u64, u64) = (0x8e7f_4ae8_961e_9ab2, 0xff6e_df96_8de8_ee68);
const HBM2: (u64, u64) = (0xabc5_b5f8_f943_c932, 0xa106_461c_7987_b8f9);
const LPDDR4: (u64, u64) = (0xae55_73f0_14b3_1f88, 0xdae9_d291_23e5_59af);
const DDR4_CLOSED: (u64, u64) = (0x3a1a_c885_849a_2162, 0x2326_7f92_010e_502c);
const DDR4_128_BANKS: (u64, u64) = (0xf015_b135_159a_5893, 0xea03_d733_9920_19bd);
