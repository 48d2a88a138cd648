//! The memory datapath end to end: Reader → memcpy core → Writer through
//! the interconnect and the AXI controller, on a 64-byte bus (AWS F1) and
//! a 16-byte bus (Kria, where every beat is narrower than its inline
//! capacity).

use bcore::elaborate::{elaborate_with, ElaborationOptions};
use bcore::{elaborate, ElaborationError};
use bdram::{DramConfig, DramConfigError};
use bkernels::memcpy::{self, MemcpyVariant};
use bplatform::Platform;

/// splitmix64: a seeded stream of test inputs.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Copies `cases` random buffers on `platform`: unaligned sources, lengths
/// from one byte to three bursts. Each destination sits in memory
/// prefilled with a canary, so a Writer whose partial final beat were not
/// strobed would clobber the bytes just past the copy.
fn random_copies(platform: &Platform, seed: u64, cases: u64) {
    const CANARY: u8 = 0xA5;
    let bus = u64::from(platform.mem_bus_bytes);
    let burst = u64::from(ElaborationOptions::default().burst_beats) * bus;
    let mut soc = elaborate(memcpy::config(), platform).expect("memcpy elaborates");
    let mut state = seed;
    let mut partial_tails = 0;
    for case in 0..cases {
        let len = 1 + next(&mut state) % (3 * burst);
        let src = platform.mem_base + 0x10_0000 + case * 0x1_0000 + next(&mut state) % 4096;
        let dst = platform.mem_base + 0x100_0000 + case * 0x1_0000;
        let payload: Vec<u8> = (0..len).map(|_| next(&mut state) as u8).collect();
        // The canary covers the rest of the final beat and one more beat.
        let tail = len.next_multiple_of(bus) - len + bus;
        partial_tails += u32::from(!len.is_multiple_of(bus));
        {
            let mem = soc.memory();
            let mut mem = mem.borrow_mut();
            mem.write(src, &payload);
            mem.write(dst - bus, &vec![CANARY; (bus + len + tail) as usize]);
        }
        let args = [
            ("src".to_owned(), src),
            ("dst".to_owned(), dst),
            ("len".to_owned(), len),
        ]
        .into_iter()
        .collect();
        let token = soc.send_command(0, 0, &args).expect("send");
        soc.run_until_response(token, 10_000_000)
            .unwrap_or_else(|e| {
                panic!(
                    "{}: copy of {len} bytes from {src:#x}: {e:?}",
                    platform.name
                )
            });
        let mem = soc.memory();
        let mem = mem.borrow();
        let what = format!(
            "{} case {case}: {len} bytes {src:#x} -> {dst:#x}",
            platform.name
        );
        assert!(
            mem.read_vec(dst, len as usize) == payload,
            "{what}: wrong bytes"
        );
        assert!(
            mem.read_vec(dst + len, tail as usize)
                .iter()
                .all(|&b| b == CANARY),
            "{what}: bytes past the copy were written"
        );
        assert!(
            mem.read_vec(dst - bus, bus as usize)
                .iter()
                .all(|&b| b == CANARY),
            "{what}: bytes before the copy were written"
        );
    }
    assert!(partial_tails > 0, "no case ended in a partial beat");
}

#[test]
fn random_copies_are_byte_exact_on_a_64_byte_bus() {
    random_copies(&Platform::aws_f1(), 0xF1, 12);
}

#[test]
fn random_copies_are_byte_exact_on_a_16_byte_bus() {
    random_copies(&Platform::kria(), 0x0C0A, 24);
}

/// A prefetch or staging buffer below one burst used to elaborate into a
/// copy that never issued and hung until the cycle limit.
#[test]
fn buffers_below_one_burst_are_rejected_at_elaboration() {
    let base = MemcpyVariant::Beethoven.options();
    for (short, prefetch_bytes, staging_bytes) in [
        ("prefetch_bytes", 1024, base.staging_bytes),
        ("staging_bytes", base.prefetch_bytes, 1024),
    ] {
        let opts = ElaborationOptions {
            prefetch_bytes,
            staging_bytes,
            ..base.clone()
        };
        let Err(err) = elaborate_with(memcpy::config(), &Platform::aws_f1(), opts) else {
            panic!("a {short} below one burst must be rejected");
        };
        assert!(
            matches!(
                err,
                ElaborationError::BufferBelowBurst {
                    buffer,
                    bytes: 1024,
                    burst_bytes: 4096,
                } if buffer == short
            ),
            "{err}"
        );
    }
}

/// DRAM configurations the model cannot simulate used to fail far from
/// their cause: a zero queue depth never accepted a request and an 8 KiB
/// copy gave up at its cycle limit, a zero burst length divided by zero in
/// the AXI controller, and a geometry that is not a power of two was
/// decoded wrongly without a word in release builds.
#[test]
fn unsimulatable_dram_configs_are_rejected_at_elaboration() {
    let rejection = |edit: fn(&mut DramConfig)| {
        let mut platform = Platform::aws_f1();
        edit(&mut platform.dram);
        match elaborate(memcpy::config(), &platform) {
            Err(ElaborationError::Dram(e)) => e,
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("elaborated"),
        }
    };
    assert_eq!(
        rejection(|d| d.queue_depth = 0),
        DramConfigError::Zero("queue_depth")
    );
    assert_eq!(
        rejection(|d| d.timings.burst_length = 0),
        DramConfigError::BurstLength(0)
    );
    assert_eq!(
        rejection(|d| d.bank_groups = 3),
        DramConfigError::NotPowerOfTwo {
            field: "bank_groups",
            value: 3,
        }
    );
}

/// 128 banks per channel: more banks than one machine word of per-bank
/// scheduler flags.
#[test]
fn random_copies_are_byte_exact_with_128_banks_per_channel() {
    let mut platform = Platform::aws_f1();
    platform.dram.ranks = 2;
    platform.dram.banks_per_group = 16;
    platform.dram.rows = 16384;
    assert_eq!(platform.dram.banks_per_channel(), 128);
    random_copies(&platform, 0x128, 12);
}
