//! The memory-side interconnect: many core ports muxed onto one memory
//! controller port, with ID remapping.
//!
//! The A³ case study routed "92 distinct memory interfaces" through
//! Beethoven's generated interconnect at ≈0.6% resource overhead (§III-C).
//! This module is the behavioural equivalent: a round-robin AXI mux that
//! allocates controller-side IDs per transaction (so distinct masters — or
//! one master's TLP transactions — retain memory-controller parallelism)
//! and routes responses back by table lookup.

use std::collections::VecDeque;

use baxi::{ArFlit, AwFlit, AxiMasterPort, AxiSlavePort, BFlit, RFlit};
use bsim::{Component, Cycle, SimCtx, StatCounter, Stats};

/// The controller-side IDs of one direction, in a slab indexed by
/// controller ID holding `(master, original id, outstanding txns)`, so
/// routing a response beat is one index.
///
/// The mapping is *stable per (master, original id)* while any
/// transaction is outstanding: AXI ordering requires same-ID requests to
/// stay on one downstream ID, which is exactly what preserves the No-TLP
/// ablation's serialization.
#[derive(Debug)]
struct IdTable {
    routes: Vec<Option<(usize, u32, u32)>>,
    /// Free controller IDs, popped from the back.
    free: Vec<u32>,
}

impl IdTable {
    fn new(num_ids: u32) -> Self {
        Self {
            routes: vec![None; num_ids as usize],
            free: (0..num_ids).rev().collect(),
        }
    }

    /// Opens one transaction from `master`'s `id` on the controller ID
    /// already carrying that pair, else on a free one; `None` when every
    /// ID is taken.
    fn open(&mut self, master: usize, id: u32) -> Option<u32> {
        let mapped = self
            .routes
            .iter()
            .position(|r| matches!(*r, Some((m, i, _)) if (m, i) == (master, id)));
        let ctrl = match mapped {
            Some(ctrl) => ctrl as u32,
            None => self.free.pop()?,
        };
        self.routes[ctrl as usize].get_or_insert((master, id, 0)).2 += 1;
        Some(ctrl)
    }

    /// The `(master, original id)` a response on `ctrl` belongs to.
    fn route(&self, ctrl: u32) -> (usize, u32) {
        let (master, id, _) =
            self.routes[ctrl as usize].expect("response with unmapped controller id");
        (master, id)
    }

    /// Retires one transaction on `ctrl`, freeing the ID with its last.
    fn close(&mut self, ctrl: u32) {
        let slot = &mut self.routes[ctrl as usize];
        let outstanding = &mut slot.as_mut().expect("mapped").2;
        *outstanding -= 1;
        if *outstanding == 0 {
            *slot = None;
            self.free.push(ctrl);
        }
    }

    /// Controller IDs currently mapped.
    fn in_flight(&self) -> usize {
        self.routes.len() - self.free.len()
    }
}

/// A round-robin AXI interconnect with per-transaction ID remapping.
pub struct AxiInterconnect {
    /// Upstream ports, one per core memory port (we are the slave side).
    masters: Vec<AxiSlavePort>,
    /// Downstream port toward the memory controller.
    downstream: AxiMasterPort,
    reads: IdTable,
    writes: IdTable,
    /// Masters whose accepted AW bursts still owe W beats, in AW order.
    w_route: VecDeque<(usize, u32)>,
    rr_ar: usize,
    rr_aw: usize,
    stats: Stats,
    /// Per-beat or per-transaction counters of `stats`, named once.
    ar_forwarded: StatCounter,
    aw_forwarded: StatCounter,
    id_stalls: StatCounter,
}

impl AxiInterconnect {
    /// Creates an interconnect over `masters` feeding `downstream`, with
    /// `num_ids` controller-side IDs available per direction.
    ///
    /// # Panics
    ///
    /// Panics if `masters` is empty or `num_ids` is zero.
    pub fn new(masters: Vec<AxiSlavePort>, downstream: AxiMasterPort, num_ids: u32) -> Self {
        assert!(
            !masters.is_empty(),
            "interconnect needs at least one master"
        );
        assert!(num_ids > 0, "interconnect needs at least one id");
        let stats = Stats::new();
        Self {
            masters,
            downstream,
            reads: IdTable::new(num_ids),
            writes: IdTable::new(num_ids),
            w_route: VecDeque::new(),
            rr_ar: 0,
            rr_aw: 0,
            ar_forwarded: stats.counter("ar_forwarded"),
            aw_forwarded: stats.counter("aw_forwarded"),
            id_stalls: stats.counter("id_stalls"),
            stats,
        }
    }

    /// Stats (`ar_forwarded`, `aw_forwarded`, `id_stalls`).
    pub fn stats(&self) -> Stats {
        self.stats.clone()
    }

    fn route_r(&mut self, ctx: &SimCtx, now: Cycle) {
        // Forward as many R beats as the upstream ports can take.
        while let Some(ctrl_id) = self.downstream.r.peek_with(ctx, now, |f| f.id) {
            let (master, id) = self.reads.route(ctrl_id);
            if !self.masters[master].r.can_send(ctx) {
                break;
            }
            let flit = self.downstream.r.recv(ctx, now).expect("peeked");
            self.masters[master].r.send(ctx, now, RFlit { id, ..flit });
            if flit.last {
                self.reads.close(ctrl_id);
            }
        }
    }

    fn route_b(&mut self, ctx: &SimCtx, now: Cycle) {
        while let Some(ctrl_id) = self.downstream.b.peek_with(ctx, now, |f| f.id) {
            let (master, id) = self.writes.route(ctrl_id);
            if !self.masters[master].b.can_send(ctx) {
                break;
            }
            self.downstream.b.recv(ctx, now).expect("peeked");
            self.masters[master].b.send(ctx, now, BFlit { id });
            self.writes.close(ctrl_id);
        }
    }

    fn accept_ar(&mut self, ctx: &SimCtx, now: Cycle) {
        if !self.downstream.ar.can_send(ctx) {
            return;
        }
        let n = self.masters.len();
        for offset in 0..n {
            let m = (self.rr_ar + offset) % n;
            let Some(orig_id) = self.masters[m].ar.peek_with(ctx, now, |f| f.id) else {
                continue;
            };
            let Some(id) = self.reads.open(m, orig_id) else {
                self.id_stalls.incr();
                continue; // this master must wait for a free id
            };
            let ar = self.masters[m].ar.recv(ctx, now).expect("peeked");
            self.downstream.ar.send(ctx, now, ArFlit { id, ..ar });
            self.ar_forwarded.incr();
            self.rr_ar = (m + 1) % n;
            return; // one AR per cycle
        }
    }

    fn accept_aw(&mut self, ctx: &SimCtx, now: Cycle) {
        if !self.downstream.aw.can_send(ctx) {
            return;
        }
        let n = self.masters.len();
        for offset in 0..n {
            let m = (self.rr_aw + offset) % n;
            let Some(orig_id) = self.masters[m].aw.peek_with(ctx, now, |f| f.id) else {
                continue;
            };
            let Some(id) = self.writes.open(m, orig_id) else {
                self.id_stalls.incr();
                continue;
            };
            let aw = self.masters[m].aw.recv(ctx, now).expect("peeked");
            self.downstream.aw.send(ctx, now, AwFlit { id, ..aw });
            self.w_route.push_back((m, aw.beats));
            self.aw_forwarded.incr();
            self.rr_aw = (m + 1) % n;
            return;
        }
    }

    fn stream_w(&mut self, ctx: &SimCtx, now: Cycle) {
        // W data must follow AW order downstream; stream the front burst.
        while let Some(&(master, beats_left)) = self.w_route.front() {
            if beats_left == 0 {
                self.w_route.pop_front();
                continue;
            }
            if !self.downstream.w.can_send(ctx) {
                return;
            }
            let Some(w) = self.masters[master].w.recv(ctx, now) else {
                return;
            };
            self.downstream.w.send(ctx, now, w);
            let front = self.w_route.front_mut().expect("non-empty");
            front.1 -= 1;
            debug_assert_eq!(w.last, front.1 == 0, "W last flag mismatches AW beat count");
            if front.1 == 0 {
                self.w_route.pop_front();
            }
        }
    }
}

impl Component for AxiInterconnect {
    fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
        self.route_r(ctx, now);
        self.route_b(ctx, now);
        self.accept_ar(ctx, now);
        self.accept_aw(ctx, now);
        self.stream_w(ctx, now);
    }

    fn name(&self) -> &str {
        "axi-interconnect"
    }

    fn next_event(&self, ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
        // Any routed transaction still in flight keeps the mux active: R/B
        // beats can arrive and W beats can stream on any cycle.
        if self.reads.in_flight() > 0 || self.writes.in_flight() > 0 || !self.w_route.is_empty() {
            return Some(now + 1);
        }
        // Otherwise wake when a request flit from a core (or a stray
        // downstream response) becomes visible.
        let mut wake: Option<Cycle> = None;
        let mut consider = |vis: Option<Cycle>| {
            if let Some(v) = vis {
                let v = v.max(now + 1);
                wake = Some(wake.map_or(v, |w: Cycle| w.min(v)));
            }
        };
        for m in &self.masters {
            consider(m.ar.next_visible_at(ctx));
            consider(m.aw.next_visible_at(ctx));
        }
        consider(self.downstream.r.next_visible_at(ctx));
        consider(self.downstream.b.next_visible_at(ctx));
        wake
    }

    fn register_wakes(&self, ctx: &SimCtx, waker: &bsim::Waker) {
        // The in-flight branch of `next_event` only holds while IDs are
        // mapped, and the tables only change inside our own tick; the
        // idle branch depends exactly on these four channel directions.
        for m in &self.masters {
            m.ar.wake_on_send(ctx, waker);
            m.aw.wake_on_send(ctx, waker);
        }
        self.downstream.r.wake_on_send(ctx, waker);
        self.downstream.b.wake_on_send(ctx, waker);
    }
}

impl std::fmt::Debug for AxiInterconnect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AxiInterconnect")
            .field("masters", &self.masters.len())
            .field("reads_in_flight", &self.reads.in_flight())
            .field("writes_in_flight", &self.writes.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::{Reader, ReaderConfig, Writer, WriterConfig};
    use baxi::{axi_link, AxiMemoryController, ControllerConfig, PortDepths, SharedMemory};
    use bdram::{DramConfig, DramSystem};
    use bsim::{Shared, Simulation};

    struct TickReader(Reader);
    impl Component for TickReader {
        fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
            self.0.tick(ctx, now);
        }
        // always-on: deliberately left without `next_event`/`register_wakes`
        // so these tests exercise the scheduler's polled fallback set with a
        // primitive that *does* have real event structure. The host drives
        // `request` through the arena handle between steps, which the
        // always-tick fallback absorbs without any wake plumbing.
    }
    struct TickWriter(Writer);
    impl Component for TickWriter {
        fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
            self.0.tick(ctx, now);
        }
        // always-on: see TickReader.
    }

    /// n readers and one writer share a single controller through the mux.
    fn build(
        n_readers: usize,
    ) -> (
        Simulation,
        Vec<Shared<TickReader>>,
        Shared<TickWriter>,
        SharedMemory,
    ) {
        let memory = SharedMemory::default();
        let mut sim = Simulation::new();
        let depths = PortDepths {
            ar: 8,
            r: 64,
            aw: 8,
            w: 64,
            b: 8,
        };

        let mut slave_ports = Vec::new();
        let mut readers = Vec::new();
        for i in 0..n_readers {
            let (master, slave) = axi_link(&mut sim, depths);
            slave_ports.push(slave);
            let mut cfg = ReaderConfig::new(format!("r{i}"), 64);
            cfg.burst_beats = 8;
            let reader = sim.add_shared(TickReader(Reader::new(cfg, master)));
            readers.push(reader);
        }
        let (wmaster, wslave) = axi_link(&mut sim, depths);
        slave_ports.push(wslave);
        let mut wcfg = WriterConfig::new("w", 64);
        wcfg.burst_beats = 8;
        let writer = sim.add_shared(TickWriter(Writer::new(wcfg, wmaster)));

        let (down_master, down_slave) = axi_link(
            &mut sim,
            PortDepths {
                ar: 16,
                r: 128,
                aw: 16,
                w: 128,
                b: 16,
            },
        );
        sim.add(AxiInterconnect::new(slave_ports, down_master, 16));
        let ctrl = AxiMemoryController::new(
            ControllerConfig::default(),
            DramSystem::new(DramConfig::ddr4_2400()),
            down_slave,
            memory.clone(),
        );
        sim.add(ctrl);
        (sim, readers, writer, memory)
    }

    #[test]
    fn concurrent_readers_each_get_their_own_data() {
        let (mut sim, readers, _writer, memory) = build(4);
        for i in 0..4u8 {
            let block: Vec<u8> = vec![i + 1; 2048];
            memory
                .borrow_mut()
                .write(0x10_000 + u64::from(i) * 0x1000, &block);
            sim.get_mut(readers[i as usize])
                .0
                .request(0x10_000 + u64::from(i) * 0x1000, 2048)
                .unwrap();
        }
        let mut collected: Vec<Vec<u8>> = vec![Vec::new(); 4];
        let mut chunk = [0u8; 64];
        while collected.iter().any(|c| c.len() < 2048) {
            sim.step();
            for (i, reader) in readers.iter().enumerate() {
                while sim.get_mut(*reader).0.pop_into(&mut chunk) {
                    collected[i].extend(chunk);
                }
            }
            assert!(sim.now() < 200_000, "readers stalled");
        }
        for (i, data) in collected.iter().enumerate() {
            assert!(
                data.iter().all(|&b| b == i as u8 + 1),
                "reader {i} got foreign data"
            );
        }
    }

    #[test]
    fn reads_and_writes_interleave_safely() {
        let (mut sim, readers, writer, memory) = build(1);
        memory.borrow_mut().write(0x50_000, &vec![9u8; 4096]);
        sim.get_mut(readers[0]).0.request(0x50_000, 4096).unwrap();
        sim.get_mut(writer).0.request(0x80_000, 4096).unwrap();
        let mut read_bytes = 0usize;
        let mut pushed = 0usize;
        while read_bytes < 4096 || !sim.get(writer).0.done() {
            {
                let w = &mut sim.get_mut(writer).0;
                while pushed < 4096 && w.can_push() {
                    w.push_chunk(&[0xAB; 64]);
                    pushed += 64;
                }
            }
            sim.step();
            while sim.get_mut(readers[0]).0.pop_into(&mut [0u8; 64]) {
                read_bytes += 64;
            }
            assert!(sim.now() < 200_000);
        }
        assert_eq!(memory.borrow().read_vec(0x80_000, 4096), vec![0xAB; 4096]);
    }

    #[test]
    fn id_exhaustion_stalls_but_recovers() {
        // Two readers with aggressive TLP against only 16 controller ids:
        // the interconnect must backpressure, not corrupt.
        let (mut sim, readers, _writer, memory) = build(2);
        memory.borrow_mut().write(0x10_000, &vec![1u8; 32768]);
        memory.borrow_mut().write(0x20_000, &vec![2u8; 32768]);
        sim.get_mut(readers[0]).0.request(0x10_000, 32768).unwrap();
        sim.get_mut(readers[1]).0.request(0x20_000, 32768).unwrap();
        let mut got = [0usize; 2];
        let mut chunk = [0u8; 64];
        while got[0] < 32768 || got[1] < 32768 {
            sim.step();
            for i in 0..2 {
                while sim.get_mut(readers[i]).0.pop_into(&mut chunk) {
                    assert!(chunk.iter().all(|&b| b == i as u8 + 1));
                    got[i] += chunk.len();
                }
            }
            assert!(sim.now() < 400_000);
        }
    }
}
