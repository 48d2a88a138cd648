//! Beats and W strobes: the inline [`Beat`] at every platform bus width,
//! the bit-per-byte strobe, and how the controller commits strobed bursts.

use baxi::{
    axi_link, strobe_mask, AwFlit, AxiMasterPort, AxiMemoryController, AxiParams, Beat,
    ControllerConfig, PortDepths, SharedMemory, WFlit, MAX_BEAT_BYTES,
};
use bdram::{DramConfig, DramSystem};
use bsim::Simulation;

#[test]
fn beat_round_trips_at_every_platform_width() {
    for width in [16, 32, 64] {
        let data: Vec<u8> = (0..width as u8)
            .map(|i| i.wrapping_mul(37) ^ 0x5A)
            .collect();
        let beat = Beat::from_slice(&data);
        assert_eq!(beat.len(), width);
        assert_eq!(&*beat, &data[..]);
        let mut zeroed = Beat::zeroed(width);
        assert!(zeroed.iter().all(|&b| b == 0));
        zeroed.copy_from_slice(&data);
        assert_eq!(zeroed, beat);
    }
}

#[test]
#[should_panic(expected = "exceeds MAX_BEAT_BYTES")]
fn beat_wider_than_capacity_panics() {
    Beat::zeroed(MAX_BEAT_BYTES + 1);
}

#[test]
fn strobe_mask_enables_low_bytes() {
    assert_eq!(strobe_mask(1), 1);
    assert_eq!(strobe_mask(16), 0xFFFF);
    assert_eq!(strobe_mask(64), u64::MAX);
}

/// A controller on a Kria HP port (16-byte beats) over `memory`.
fn kria_rig(memory: &SharedMemory) -> (Simulation, AxiMasterPort) {
    let mut sim = Simulation::new();
    let (master, slave) = axi_link(&mut sim, PortDepths::default());
    let cfg = ControllerConfig {
        axi: AxiParams::kria_hp(),
        ..ControllerConfig::default()
    };
    let dram = DramSystem::new(DramConfig::lpddr4_embedded());
    sim.add(AxiMemoryController::new(cfg, dram, slave, memory.clone()));
    (sim, master)
}

/// Writes one burst of `strobes.len()` beats of `0xAA` at `addr`, beat `i`
/// strobed by `strobes[i]`, and waits for its B response.
fn strobed_burst(sim: &mut Simulation, master: &AxiMasterPort, addr: u64, strobes: &[u64]) {
    let beats = strobes.len() as u32;
    master.aw.send(sim.ctx(), 0, AwFlit { id: 0, addr, beats });
    for (i, &strb) in strobes.iter().enumerate() {
        let w = WFlit {
            data: Beat::from_slice(&[0xAA; 16]),
            strb: Some(strb),
            last: i + 1 == strobes.len(),
        };
        master.w.send(sim.ctx(), 0, w);
    }
    while master.b.recv(sim.ctx(), sim.now()).is_none() {
        sim.step();
        assert!(sim.now() < 10_000, "write never acknowledged");
    }
}

#[test]
fn strobed_runs_commit_across_beat_boundaries() {
    let memory = SharedMemory::default();
    memory.borrow_mut().write(0x3000, &[0xFF; 64]);
    let (mut sim, master) = kria_rig(&memory);
    // Beat 0 enables bytes 2.., beat 1 is full, beat 2 enables bytes 0..3
    // and 5, beat 3 nothing: bytes 2..35 and 37 change, no other.
    strobed_burst(&mut sim, &master, 0x3000, &[0xFFFC, 0xFFFF, 0b10_0111, 0]);
    let out = memory.borrow().read_vec(0x3000, 64);
    for (i, &byte) in out.iter().enumerate() {
        let written = (2..35).contains(&i) || i == 37;
        assert_eq!(byte, if written { 0xAA } else { 0xFF }, "byte {i}");
    }
}

#[test]
#[should_panic(expected = "W strobe width mismatch")]
fn strobe_beyond_bus_width_panics() {
    let memory = SharedMemory::default();
    let (mut sim, master) = kria_rig(&memory);
    strobed_burst(&mut sim, &master, 0x3000, &[1 << 16]);
}
