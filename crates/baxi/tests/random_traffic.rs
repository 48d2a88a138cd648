//! Property tests: arbitrary interleaved AXI read/write traffic through
//! the controller must behave like an ideal memory (reads observe the
//! most recent completed write), and every transaction must complete with
//! protocol-correct framing.

use std::collections::HashMap;

use baxi::{
    axi_link, ArFlit, AwFlit, AxiMasterPort, AxiMemoryController, ControllerConfig, PortDepths,
    SharedMemory, WFlit,
};
use bdram::{DramConfig, DramSystem};
use bsim::Simulation;
use proptest::prelude::*;

struct Rig {
    sim: Simulation,
    master: AxiMasterPort,
}

fn rig() -> (Rig, SharedMemory) {
    let mut sim = Simulation::new();
    let (master, slave) = axi_link(
        &mut sim,
        PortDepths {
            ar: 16,
            r: 256,
            aw: 16,
            w: 256,
            b: 16,
        },
    );
    let memory = SharedMemory::default();
    let ctrl = AxiMemoryController::new(
        ControllerConfig::default(),
        DramSystem::new(DramConfig::ddr4_2400()),
        slave,
        memory.clone(),
    );
    sim.add(ctrl);
    (Rig { sim, master }, memory)
}

/// One generated operation over a small block-addressed space.
#[derive(Debug, Clone)]
enum Op {
    /// Write `beats` beats of `fill` starting at block `block`.
    Write { block: u8, beats: u8, fill: u8 },
    /// Read `beats` beats from block `block`.
    Read { block: u8, beats: u8, id: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16, 1u8..8, any::<u8>()).prop_map(|(block, beats, fill)| Op::Write {
            block,
            beats,
            fill
        }),
        (0u8..16, 1u8..8, 0u8..4).prop_map(|(block, beats, id)| Op::Read { block, beats, id }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn controller_behaves_like_ideal_memory(ops in proptest::collection::vec(op_strategy(), 1..20)) {
        let (mut rig, _memory) = rig();
        // A software model of what each byte should hold.
        let mut model: HashMap<u64, u8> = HashMap::new();
        let base = 0x100_0000u64;

        for (op_idx, op) in ops.iter().enumerate() {
            match *op {
                Op::Write { block, beats, fill } => {
                    let addr = base + u64::from(block) * 4096;
                    rig.master.aw.send(rig.sim.ctx(), rig.sim.now(), AwFlit { id: 0, addr, beats: u32::from(beats) });
                    // Feed beats as channel space allows while ticking.
                    let mut sent = 0u8;
                    let mut acked = false;
                    let mut guard = 0;
                    while !acked {
                        while sent < beats && rig.master.w.can_send(rig.sim.ctx()) {
                            let value = fill.wrapping_add(sent);
                            rig.master.w.send(
                                rig.sim.ctx(),
                                rig.sim.now(),
                                WFlit::full(&[value; 64], sent + 1 == beats),
                            );
                            for b in 0..64u64 {
                                model.insert(addr + u64::from(sent) * 64 + b, value);
                            }
                            sent += 1;
                        }
                        rig.sim.step();
                        if rig.master.b.recv(rig.sim.ctx(), rig.sim.now()).is_some() {
                            acked = true;
                        }
                        guard += 1;
                        prop_assert!(guard < 100_000, "write {op_idx} never acknowledged");
                    }
                }
                Op::Read { block, beats, id } => {
                    let addr = base + u64::from(block) * 4096;
                    rig.master.ar.send(
                        rig.sim.ctx(),
                        rig.sim.now(),
                        ArFlit { id: u32::from(id), addr, beats: u32::from(beats) },
                    );
                    let mut got: Vec<u8> = Vec::new();
                    let mut last_seen = false;
                    let mut guard = 0;
                    while !last_seen {
                        rig.sim.step();
                        while let Some(r) = rig.master.r.recv(rig.sim.ctx(), rig.sim.now()) {
                            prop_assert_eq!(r.id, u32::from(id));
                            got.extend_from_slice(&r.data);
                            last_seen |= r.last;
                        }
                        guard += 1;
                        prop_assert!(guard < 100_000, "read {op_idx} never finished");
                    }
                    prop_assert_eq!(got.len(), usize::from(beats) * 64, "beat count framing");
                    for (i, &byte) in got.iter().enumerate() {
                        let expect = model.get(&(addr + i as u64)).copied().unwrap_or(0);
                        prop_assert_eq!(byte, expect, "byte {} of read {}", i, op_idx);
                    }
                }
            }
        }
    }
}
