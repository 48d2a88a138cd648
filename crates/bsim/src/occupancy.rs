//! Occupancy bitmaps: one bit per registered receiver, set exactly while
//! its channel holds an item.
//!
//! An arbiter over many inputs (the memory interconnect muxes every core
//! port of a memory channel) would otherwise poll each input on every
//! cycle to find the few that are requesting. Instead it registers its
//! inputs once, as one [`OccupancyBlock`] from
//! [`Simulation::occupancy_block`](crate::Simulation::occupancy_block),
//! and walks only the set bits: [`Sender::send`](crate::Sender::send)
//! sets a receiver's bit (host-side sends included) and the
//! [`Receiver::recv`](crate::Receiver::recv) that empties the channel
//! clears it. A bit says the channel holds an item, visible or not; the
//! walker still checks visibility itself.
//!
//! Host code that drains channels itself registers them the same way,
//! with [`Simulation::watch_receivers`](crate::Simulation::watch_receivers):
//! the scheduler never fast-forwards past the visibility cycle of an item
//! in a watched block, and the host drains the channels whose bits are
//! set.
//!
//! The bits live in the [`SimCtx`] arena, in one word array shared by
//! every block. Blocks are allocated back to back and may straddle word
//! boundaries, so a block can have any size. Registering a receiver with
//! [`Simulation::occupancy_block`](crate::Simulation::occupancy_block)
//! attaches no wake hook and changes no scheduling.

use crate::ctx::SimCtx;
use std::cell::Cell;

/// A contiguous run of occupancy bits, one per registered receiver, in
/// registration order. `Copy`: it names bits in its simulation's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyBlock {
    pub(crate) base: u32,
    pub(crate) len: u32,
    pub(crate) serial: u32,
}

impl OccupancyBlock {
    /// The indices of the set bits in round-robin order from `start`:
    /// `start..len`, then `0..start`. Each word is read when the walk
    /// reaches it, so a bit cleared after that may still be reported.
    ///
    /// # Panics
    ///
    /// Panics if `start > len` or the block belongs to a different
    /// simulation.
    pub fn iter_from<'a>(&self, ctx: &'a SimCtx, start: usize) -> impl Iterator<Item = usize> + 'a {
        ctx.assert_serial(self.serial, "OccupancyBlock");
        assert!(
            start <= self.len as usize,
            "round-robin start {start} out of range"
        );
        let (base, end) = (self.base as usize, (self.base + self.len) as usize);
        let words = &ctx.occupied[..];
        SetBits::new(words, base, base + start, end).chain(SetBits::new(
            words,
            base,
            base,
            base + start,
        ))
    }

    /// The block's set bits, low to high, as indices into the whole
    /// bitmap (and so into `SimCtx::bit_chan`).
    pub(crate) fn set_bits<'a>(&self, ctx: &'a SimCtx) -> impl Iterator<Item = usize> + 'a {
        let base = self.base as usize;
        SetBits::new(&ctx.occupied, 0, base, base + self.len as usize)
    }
}

/// The set bits of `[next, end)`, as offsets from `base`.
struct SetBits<'a> {
    words: &'a [Cell<u64>],
    base: usize,
    next: usize,
    end: usize,
    /// The word `pending` was read from.
    word: usize,
    /// The set bits of that word not yet yielded.
    pending: u64,
}

impl<'a> SetBits<'a> {
    fn new(words: &'a [Cell<u64>], base: usize, next: usize, end: usize) -> Self {
        SetBits {
            words,
            base,
            next,
            end,
            word: 0,
            pending: 0,
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.pending == 0 {
            if self.next >= self.end {
                return None;
            }
            let word = self.next / 64;
            let word_end = ((word + 1) * 64).min(self.end);
            let width = word_end - self.next;
            let mask = (u64::MAX >> (64 - width)) << (self.next % 64);
            self.pending = self.words[word].get() & mask;
            self.word = word;
            self.next = word_end;
        }
        let bit = self.pending.trailing_zeros() as usize;
        self.pending &= self.pending - 1;
        Some(self.word * 64 + bit - self.base)
    }
}

#[cfg(test)]
mod tests {
    use crate::{OccupancyBlock, SimCtx, Simulation};

    fn set_bits(block: OccupancyBlock, ctx: &SimCtx) -> Vec<usize> {
        block.iter_from(ctx, 0).collect()
    }

    #[test]
    fn send_sets_the_bit_until_the_emptying_recv() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u32>(4);
        let block = sim.occupancy_block([rx]);
        let ctx = sim.ctx();
        assert_eq!(set_bits(block, ctx), []);
        tx.send(ctx, 0, 1);
        assert_eq!(
            set_bits(block, ctx),
            [0],
            "set on the send, before visibility"
        );
        tx.send(ctx, 0, 2);
        assert_eq!(rx.recv(ctx, 1), Some(1));
        assert_eq!(set_bits(block, ctx), [0], "an item remains");
        assert_eq!(rx.recv(ctx, 1), Some(2));
        assert_eq!(set_bits(block, ctx), [], "cleared by the emptying recv");
        assert_eq!(rx.recv(ctx, 1), None);
        assert_eq!(set_bits(block, ctx), []);
    }

    #[test]
    fn component_sends_set_the_bit() {
        struct Once(crate::Sender<u8>, bool);
        impl crate::Component for Once {
            fn tick(&mut self, ctx: &crate::SimCtx, now: crate::Cycle) {
                if !self.1 {
                    self.0.send(ctx, now, 7);
                    self.1 = true;
                }
            }
        }
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>(1);
        let block = sim.occupancy_block([rx]);
        sim.add(Once(tx, false));
        sim.step();
        assert_eq!(set_bits(block, sim.ctx()), [0]);
        sim.step();
        assert_eq!(set_bits(block, sim.ctx()), [0], "nobody consumed it");
    }

    #[test]
    fn registration_reports_preexisting_items() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>(2);
        tx.send(sim.ctx(), 0, 1);
        let block = sim.occupancy_block([rx]);
        assert_eq!(set_bits(block, sim.ctx()), [0]);
    }

    #[test]
    fn a_block_straddling_a_word_boundary_walks_in_round_robin_order() {
        let mut sim = Simulation::new();
        // A 5-bit block first, so the 100-bit block starts mid-word and
        // spans three words.
        let (_, small_rxs): (Vec<_>, Vec<_>) = (0..5).map(|_| sim.channel::<u8>(1)).unzip();
        sim.occupancy_block(small_rxs);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..100).map(|_| sim.channel::<u8>(1)).unzip();
        let block = sim.occupancy_block(rxs.iter().copied());
        let ctx = sim.ctx();
        let set = [0, 58, 59, 63, 64, 99];
        for &i in &set {
            txs[i].send(ctx, 0, 1);
        }
        assert_eq!(set_bits(block, ctx), set);
        assert_eq!(
            block.iter_from(ctx, 60).collect::<Vec<_>>(),
            [63, 64, 99, 0, 58, 59]
        );
        assert_eq!(block.iter_from(ctx, 100).collect::<Vec<_>>(), set);
        rxs[63].recv(ctx, 1);
        assert_eq!(
            block.iter_from(ctx, 59).collect::<Vec<_>>(),
            [59, 64, 99, 0, 58]
        );
    }

    #[test]
    fn blocks_never_alias() {
        let mut sim = Simulation::new();
        let (a_tx, a_rx): (Vec<_>, Vec<_>) = (0..70).map(|_| sim.channel::<u8>(1)).unzip();
        let (b_tx, b_rx): (Vec<_>, Vec<_>) = (0..70).map(|_| sim.channel::<u16>(1)).unzip();
        let a = sim.occupancy_block(a_rx);
        let b = sim.occupancy_block(b_rx);
        let ctx = sim.ctx();
        for i in (0..70).step_by(3) {
            a_tx[i].send(ctx, 0, 1);
        }
        for i in (1..70).step_by(5) {
            b_tx[i].send(ctx, 0, 1);
        }
        assert_eq!(set_bits(a, ctx), (0..70).step_by(3).collect::<Vec<_>>());
        assert_eq!(set_bits(b, ctx), (1..70).step_by(5).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "already has an occupancy bit")]
    fn a_receiver_gets_one_bit() {
        let mut sim = Simulation::new();
        let (_tx, rx) = sim.channel::<u8>(1);
        sim.occupancy_block([rx]);
        sim.occupancy_block([rx]);
    }
}
