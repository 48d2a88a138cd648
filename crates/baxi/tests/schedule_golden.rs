//! Schedule golden test: seeded mixed read/write traffic over four AXI IDs
//! drives the controller, and the exact R/B response schedule the master
//! observes — every flit as `(cycle, kind, id, last)` — plus the
//! controller's stats snapshot and the DRAM counters are folded into FNV
//! digests pinned below. Any change to when a beat or response leaves the
//! controller, or to what the stats bags record, moves a digest.
//!
//! The digests are scheduler-independent: the same values hold under the
//! default idle-skipping DRAM advance and under `BSIM_NAIVE=1`.

use std::collections::VecDeque;

use baxi::{
    axi_link, ArFlit, AwFlit, AxiMemoryController, ControllerConfig, PortDepths, SharedMemory,
    WFlit,
};
use bdram::{DramConfig, DramSystem};
use bsim::Simulation;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// SplitMix64: a tiny seeded generator so the traffic is reproducible.
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

#[derive(Debug, Clone, Copy)]
struct Txn {
    at: u64,
    write: bool,
    id: u32,
    addr: u64,
    beats: u32,
}

/// Seeded mixed traffic: reads and writes over IDs 0..4, bursts of 1..=16
/// beats, addresses mixing a sequential stream with row-conflicting jumps.
/// Every burst starts on a 1 KiB slot, so none crosses a 4 KiB boundary.
fn traffic(seed: u64, count: usize) -> Vec<Txn> {
    let mut rng = Rng(seed);
    let row_stride = DramConfig::ddr4_2400().row_stride_bytes();
    let mut at = 0;
    let mut stream = 0x10_0000u64;
    (0..count)
        .map(|_| {
            at += rng.below(12);
            let beats = 1 + rng.below(16) as u32;
            let addr = if rng.below(3) == 0 {
                rng.below(8) * row_stride + rng.below(4) * 1024
            } else {
                stream += 1024;
                stream
            };
            Txn {
                at,
                write: rng.below(2) == 0,
                id: rng.below(4) as u32,
                addr,
                beats,
            }
        })
        .collect()
}

/// Runs `txns` through a controller and returns (flit digest, stats digest).
fn run(same_id_inflight: usize, txns: &[Txn]) -> (u64, u64) {
    let mut sim = Simulation::new();
    let (master, slave) = axi_link(
        &mut sim,
        PortDepths {
            ar: 4,
            r: 8,
            aw: 4,
            w: 8,
            b: 4,
        },
    );
    let config = ControllerConfig {
        same_id_inflight,
        max_outstanding_reads: 12,
        max_outstanding_writes: 12,
        ..ControllerConfig::default()
    };
    let ctrl = sim.add_shared(AxiMemoryController::new(
        config,
        DramSystem::new(DramConfig::ddr4_2400()),
        slave,
        SharedMemory::default(),
    ));

    let mut flits = Fnv::new();
    let mut next = 0;
    let mut w_beats: VecDeque<(u8, bool)> = VecDeque::new();
    let expected_lasts = txns.len();
    let mut lasts = 0;
    while lasts < expected_lasts {
        let now = sim.now();
        // Address phase: in program order, once the txn's time has come.
        while next < txns.len() && txns[next].at <= now {
            let t = txns[next];
            let ch_ok = if t.write {
                master.aw.can_send(sim.ctx())
            } else {
                master.ar.can_send(sim.ctx())
            };
            if !ch_ok {
                break;
            }
            if t.write {
                master.aw.send(
                    sim.ctx(),
                    now,
                    AwFlit {
                        id: t.id,
                        addr: t.addr,
                        beats: t.beats,
                    },
                );
                for b in 0..t.beats {
                    w_beats.push_back((next as u8 ^ b as u8, b + 1 == t.beats));
                }
            } else {
                master.ar.send(
                    sim.ctx(),
                    now,
                    ArFlit {
                        id: t.id,
                        addr: t.addr,
                        beats: t.beats,
                    },
                );
            }
            next += 1;
        }
        // Data phase: W beats in AW order as the channel allows.
        while let Some(&(fill, last)) = w_beats.front() {
            if !master.w.can_send(sim.ctx()) {
                break;
            }
            master
                .w
                .send(sim.ctx(), now, WFlit::full(&[fill; 64], last));
            w_beats.pop_front();
        }
        sim.step();
        let now = sim.now();
        while let Some(r) = master.r.recv(sim.ctx(), now) {
            flits.u64(now);
            flits.bytes(b"R");
            flits.u64(u64::from(r.id));
            flits.u64(u64::from(r.last));
            lasts += usize::from(r.last);
        }
        while let Some(b) = master.b.recv(sim.ctx(), now) {
            flits.u64(now);
            flits.bytes(b"B");
            flits.u64(u64::from(b.id));
            flits.u64(1);
            lasts += 1;
        }
        assert!(now < 2_000_000, "traffic never drained");
    }
    assert!(sim.get(ctrl).is_idle());

    let mut stats = Fnv::new();
    let controller = sim.get(ctrl);
    stats.bytes(format!("{:?}", controller.stats().snapshot()).as_bytes());
    stats.bytes(format!("{:?}", controller.dram_stats()).as_bytes());
    (flits.0, stats.0)
}

#[test]
fn schedule_matches_golden_with_strict_same_id_ordering() {
    let txns = traffic(0x5eed_0001, 160);
    let (flits, stats) = run(1, &txns);
    assert_eq!(
        (flits, stats),
        (FLITS_WINDOW_1, STATS_WINDOW_1),
        "got ({flits:#018x}, {stats:#018x})"
    );
}

#[test]
fn schedule_matches_golden_with_two_same_id_in_flight() {
    let txns = traffic(0x5eed_0002, 160);
    let (flits, stats) = run(2, &txns);
    assert_eq!(
        (flits, stats),
        (FLITS_WINDOW_2, STATS_WINDOW_2),
        "got ({flits:#018x}, {stats:#018x})"
    );
}

const FLITS_WINDOW_1: u64 = 0x92a2_6cf3_62ed_61e9;
const STATS_WINDOW_1: u64 = 0xd145_718c_ee8b_2544;
const FLITS_WINDOW_2: u64 = 0x4872_1270_ba19_38ad;
const STATS_WINDOW_2: u64 = 0xb65e_8f29_4bce_50bc;
