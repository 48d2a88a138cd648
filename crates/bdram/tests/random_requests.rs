//! Property tests for the DRAM model: every enqueued request completes
//! exactly once, in bounded time, with sane statistics — regardless of the
//! address pattern or read/write mix.

mod common;

use bdram::{AddressMapping, DramConfig, DramRequest, DramSystem, PagePolicy};
use common::drive_busy;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_request_completes_exactly_once(
        addrs in proptest::collection::vec(0u64..(1 << 24), 1..40),
        write_mask in any::<u64>(),
    ) {
        let mut dram = DramSystem::new(DramConfig::ddr4_2400());
        let mut pending: Vec<DramRequest> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let addr = a & !63; // burst aligned
                if write_mask >> (i % 64) & 1 == 1 {
                    DramRequest::write(i as u64, addr)
                } else {
                    DramRequest::read(i as u64, addr)
                }
            })
            .collect();
        let total = pending.len();
        let mut issued = 0usize;
        let mut completions = Vec::new();
        let mut ps = 0u64;
        while completions.len() < total {
            while issued < total {
                match dram.enqueue(pending[issued]) {
                    Ok(()) => issued += 1,
                    Err(_) => break, // backpressure
                }
            }
            ps += 500_000;
            dram.advance_to_ps(ps);
            while let Some(c) = dram.pop_completion() {
                completions.push(c);
            }
            prop_assert!(ps < 2_000_000_000, "stalled");
        }
        pending.sort_by_key(|r| r.id);
        let mut seen: Vec<u64> = completions.iter().map(|c| c.id).collect();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..total as u64).collect();
        prop_assert_eq!(seen, expect, "each id completes exactly once");
        // Completion times are positive and monotone in drain order per
        // channel is not guaranteed globally, but all must be > 0.
        prop_assert!(completions.iter().all(|c| c.done_ps > 0));
        let stats = dram.stats();
        prop_assert_eq!(stats.reads + stats.writes, total as u64);
    }

    #[test]
    fn all_mappings_service_strided_patterns(
        stride_shift in 6u32..16,
        count in 1usize..48,
    ) {
        for mapping in [
            AddressMapping::RoBaRaCoCh,
            AddressMapping::RoRaBaChCo,
            AddressMapping::ChRaBaRoCo,
        ] {
            let mut cfg = DramConfig::ddr4_2400();
            cfg.channels = 2;
            cfg.mapping = mapping;
            let mut dram = DramSystem::new(cfg);
            let mut issued = 0usize;
            let mut got = 0usize;
            let mut ps = 0u64;
            while got < count {
                while issued < count {
                    let addr = (issued as u64) << stride_shift;
                    if dram.enqueue(DramRequest::read(issued as u64, addr)).is_err() {
                        break;
                    }
                    issued += 1;
                }
                ps += 500_000;
                dram.advance_to_ps(ps);
                while dram.pop_completion().is_some() {
                    got += 1;
                }
                prop_assert!(ps < 2_000_000_000, "{mapping:?} stalled");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The idle-skipping `advance_to_ps` path must be invisible: identical
    /// completion ids *and times* and identical channel statistics
    /// (including refresh counts across the skipped gaps) to the naive
    /// cycle-by-cycle advance, on randomized bursts separated by randomized
    /// idle gaps long enough to span refresh windows.
    #[test]
    fn idle_skipping_advance_is_cycle_exact(
        bursts in proptest::collection::vec(
            (1usize..12, 0u64..(1 << 22), 8u64..80), 1..6),
        write_mask in any::<u64>(),
    ) {
        let mut naive = DramSystem::new(DramConfig::ddr4_2400());
        naive.set_event_driven(false);
        let mut event = DramSystem::new(DramConfig::ddr4_2400());
        event.set_event_driven(true);

        let drive = |dram: &mut DramSystem| {
            let mut completions: Vec<(u64, u64)> = Vec::new();
            let mut ps = 0u64;
            let mut id = 0u64;
            for &(count, base, gap_us) in &bursts {
                for i in 0..count {
                    let addr = (base + (i as u64) * 64) & !63;
                    let req = if write_mask >> (id % 64) & 1 == 1 {
                        DramRequest::write(id, addr)
                    } else {
                        DramRequest::read(id, addr)
                    };
                    while dram.enqueue(req).is_err() {
                        ps += 100_000;
                        dram.advance_to_ps(ps);
                        while let Some(c) = dram.pop_completion() {
                            completions.push((c.id, c.done_ps));
                        }
                    }
                    id += 1;
                }
                // Idle gap: long enough that refresh dominates.
                ps += gap_us * 1_000_000;
                dram.advance_to_ps(ps);
                while let Some(c) = dram.pop_completion() {
                    completions.push((c.id, c.done_ps));
                }
            }
            (completions, dram.stats())
        };

        let (naive_completions, naive_stats) = drive(&mut naive);
        let (event_completions, event_stats) = drive(&mut event);
        prop_assert_eq!(naive_completions, event_completions);
        prop_assert_eq!(naive_stats, event_stats);
        prop_assert!(naive_stats.refreshes > 0, "gaps must be refresh-active");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The event-driven advance must be invisible while channels are busy
    /// too: the exact next-command bound may skip only cycles on which no
    /// command could issue. Identical `(id, done_ps)` completions, popped
    /// at the same step, and identical per-channel statistics against the
    /// naive cycle-by-cycle advance, on every shipped configuration plus
    /// closed-page DDR4.
    #[test]
    fn busy_channel_advance_is_cycle_exact(seed in any::<u64>()) {
        let mut closed = DramConfig::ddr4_2400();
        closed.page_policy = PagePolicy::Closed;
        for cfg in [
            DramConfig::ddr4_2400(),
            DramConfig::ddr4_2400_quad(),
            DramConfig::hbm2(),
            DramConfig::lpddr4_embedded(),
            closed,
        ] {
            let (naive_done, naive_stats, busy_refresh) = drive_busy(&cfg, seed, false);
            let (event_done, event_stats, _) = drive_busy(&cfg, seed, true);
            prop_assert_eq!(&naive_done, &event_done);
            prop_assert_eq!(&naive_stats, &event_stats);
            prop_assert!(busy_refresh, "a refresh must land while requests are queued");
            let total: u64 = naive_stats.iter().map(|s| s.reads + s.writes).sum();
            prop_assert_eq!(total, naive_done.len() as u64);
        }
    }
}

#[test]
fn row_locality_shows_up_in_hit_rate() {
    // Sequential bursts within rows: hit rate should be high; random rows
    // of one bank: hit rate near zero.
    let cfg = DramConfig::ddr4_2400();
    let mut sequential = DramSystem::new(cfg.clone());
    for i in 0..64u64 {
        sequential.enqueue(DramRequest::read(i, i * 64)).ok();
        sequential.advance_to_ps((i + 1) * 200_000);
    }
    sequential.advance_to_ps(100_000_000);
    let seq_rate = sequential.stats().row_hit_rate();

    let mut conflicted = DramSystem::new(cfg.clone());
    let stride = cfg.row_stride_bytes();
    for i in 0..64u64 {
        conflicted.enqueue(DramRequest::read(i, i * stride)).ok();
        conflicted.advance_to_ps((i + 1) * 200_000);
    }
    conflicted.advance_to_ps(100_000_000);
    let conflict_rate = conflicted.stats().row_hit_rate();
    assert!(
        seq_rate > 0.9 && conflict_rate < 0.1,
        "hit rates: sequential {seq_rate:.2}, conflicted {conflict_rate:.2}"
    );
}
