//! Ready/valid ("Decoupled") channels between components.
//!
//! A channel is a bounded FIFO with a visibility latency: an item sent on
//! cycle `n` can be received no earlier than cycle `n + latency`. The default
//! latency of 1 models the output register every synchronous queue has, and
//! makes simulation results independent of the order in which producer and
//! consumer tick within a cycle (for the forward data path).
//!
//! Backpressure is modelled by capacity: [`Sender::can_send`] is the `ready`
//! signal, [`Receiver::has_data`] is the `valid` signal.
//!
//! Each channel's front-item visibility cycle is mirrored in a dense array
//! in the arena, outside the channel's `RefCell`: `has_data`,
//! `next_visible_at`, and a `recv`/`peek_with` that finds nothing visible
//! read only that array, so polling an idle input costs one load.
//!
//! Channels are created through
//! [`Simulation::channel`](crate::Simulation::channel) and stored in the
//! simulation's [`SimCtx`] arena; the [`Sender`]/[`Receiver`] endpoints are
//! `Copy` IDs into that arena, so handing them to components or cloning
//! them for the host costs nothing and shares no ownership. Every
//! operation takes the owning `&SimCtx` — inside a component that is the
//! `ctx` argument of [`tick`](crate::Component::tick); from host code use
//! [`Simulation::ctx`](crate::Simulation::ctx).

use std::collections::VecDeque;
use std::marker::PhantomData;

use crate::ctx::{RawChan, SimCtx};
use crate::time::Cycle;
use crate::wake::Waker;

/// Observable occupancy information about a channel, shared by both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelState {
    /// Items currently buffered (visible or not).
    pub occupancy: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Total items ever sent.
    pub total_sent: u64,
    /// Total items ever received.
    pub total_received: u64,
}

/// The producer endpoint of a channel: a `Copy` ID resolved through the
/// owning simulation's [`SimCtx`]. See
/// [`Simulation::channel`](crate::Simulation::channel).
pub struct Sender<T> {
    pub(crate) chan: u32,
    pub(crate) serial: u32,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

/// The consumer endpoint of a channel: a `Copy` ID resolved through the
/// owning simulation's [`SimCtx`]. See
/// [`Simulation::channel`](crate::Simulation::channel).
pub struct Receiver<T> {
    pub(crate) chan: u32,
    pub(crate) serial: u32,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Sender<T> {}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Receiver<T> {}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender").field("chan", &self.chan).finish()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("chan", &self.chan)
            .finish()
    }
}

/// Creates a channel in `ctx`'s arena and returns the endpoint IDs.
/// Callers go through [`Simulation::channel_with_latency`](crate::Simulation::channel_with_latency).
pub(crate) fn make_channel<T: Send + 'static>(
    ctx: &mut SimCtx,
    capacity: usize,
    latency: u64,
) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be nonzero");
    let id = u32::try_from(ctx.chans.len()).expect("channel arena overflow");
    ctx.front.push(std::cell::Cell::new(Cycle::MAX));
    ctx.chans.push(std::cell::RefCell::new(RawChan {
        capacity,
        latency,
        visible: VecDeque::with_capacity(capacity),
        payloads: Box::new(VecDeque::<T>::with_capacity(capacity)),
        total_sent: 0,
        total_received: 0,
        send_hooks: Vec::new(),
        recv_hooks: Vec::new(),
        watched: false,
        ready_key: None,
        ready_queued: false,
    }));
    (
        Sender {
            chan: id,
            serial: ctx.serial,
            _marker: PhantomData,
        },
        Receiver {
            chan: id,
            serial: ctx.serial,
            _marker: PhantomData,
        },
    )
}

impl<T: Send + 'static> Sender<T> {
    /// Whether the channel can accept another item this cycle (the `ready`
    /// signal seen by the producer).
    pub fn can_send(&self, ctx: &SimCtx) -> bool {
        let c = ctx.chan(self.chan, self.serial).borrow();
        c.visible.len() < c.capacity
    }

    /// Number of additional items the channel can accept.
    pub fn free_slots(&self, ctx: &SimCtx) -> usize {
        let c = ctx.chan(self.chan, self.serial).borrow();
        c.capacity - c.visible.len()
    }

    /// Enqueues `value` at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if the channel is full; callers must check [`Sender::can_send`]
    /// first (matching the fire = ready && valid discipline of real RTL).
    pub fn send(&self, ctx: &SimCtx, now: Cycle, value: T) {
        let mut c = ctx.chan(self.chan, self.serial).borrow_mut();
        assert!(
            c.visible.len() < c.capacity,
            "send on full channel (capacity {})",
            c.capacity
        );
        let visible = now + c.latency;
        if c.visible.is_empty() {
            ctx.front[self.chan as usize].set(visible);
        }
        c.visible.push_back(visible);
        c.payloads_mut::<T>().push_back(value);
        c.total_sent += 1;
        for &hook in &c.send_hooks {
            ctx.wake_component(hook);
        }
        if c.watched {
            ctx.watch_dirty.set(true);
        }
        if c.ready_key.is_some() && !c.ready_queued {
            c.ready_queued = true;
            ctx.host_ready.borrow_mut().push_back(self.chan);
        }
    }

    /// Attempts to enqueue; returns `Err(value)` if the channel is full.
    pub fn try_send(&self, ctx: &SimCtx, now: Cycle, value: T) -> Result<(), T> {
        if self.can_send(ctx) {
            self.send(ctx, now, value);
            Ok(())
        } else {
            Err(value)
        }
    }

    /// The cycle at which the channel's front item becomes receivable, or
    /// `None` if the channel is empty. See
    /// [`Receiver::next_visible_at`].
    pub fn next_visible_at(&self, ctx: &SimCtx) -> Option<Cycle> {
        next_visible(ctx, self.chan, self.serial)
    }

    /// Registers `waker` to fire whenever an item is *received* from this
    /// channel, i.e. whenever backpressure eases.
    ///
    /// Only needed by a producer that sleeps (returns `None` or a
    /// far-future [`next_event`](crate::Component::next_event)) while this
    /// channel is full; a producer that stays awake (`Some(now + 1)`)
    /// while output-blocked — the common pattern — needs no hook here.
    pub fn wake_on_recv(&self, ctx: &SimCtx, waker: &Waker) {
        ctx.assert_serial(waker.serial, "Waker");
        ctx.chan(self.chan, self.serial)
            .borrow_mut()
            .recv_hooks
            .push(waker.idx);
        ctx.mark_hooked(waker.idx);
    }

    /// Occupancy snapshot.
    pub fn state(&self, ctx: &SimCtx) -> ChannelState {
        state_of(ctx, self.chan, self.serial)
    }
}

impl<T: Send + 'static> Receiver<T> {
    /// Returns whether an item is visible at cycle `now` (the `valid`
    /// signal seen by the consumer).
    pub fn has_data(&self, ctx: &SimCtx, now: Cycle) -> bool {
        ctx.front_visible(self.chan, self.serial) <= now
    }

    /// Dequeues the front item if one is visible at cycle `now`.
    pub fn recv(&self, ctx: &SimCtx, now: Cycle) -> Option<T> {
        if !self.has_data(ctx, now) {
            return None;
        }
        let mut c = ctx.chans[self.chan as usize].borrow_mut();
        c.visible.pop_front();
        ctx.front[self.chan as usize].set(c.visible.front().copied().unwrap_or(Cycle::MAX));
        c.total_received += 1;
        let item = c.payloads_mut::<T>().pop_front();
        for &hook in &c.recv_hooks {
            ctx.wake_component(hook);
        }
        item
    }

    /// Applies `f` to the front item, without consuming it, if one is
    /// visible at cycle `now`.
    ///
    /// The channel stays borrowed while `f` runs, so `f` must not operate
    /// on this channel.
    pub fn peek_with<R>(&self, ctx: &SimCtx, now: Cycle, f: impl FnOnce(&T) -> R) -> Option<R> {
        if !self.has_data(ctx, now) {
            return None;
        }
        let c = ctx.chans[self.chan as usize].borrow();
        c.payloads::<T>().front().map(f)
    }

    /// Number of items visible at cycle `now` (occupancy of the visible
    /// prefix of the queue).
    pub fn visible_len(&self, ctx: &SimCtx, now: Cycle) -> usize {
        if !self.has_data(ctx, now) {
            return 0;
        }
        ctx.chans[self.chan as usize]
            .borrow()
            .visible
            .iter()
            .take_while(|vis| **vis <= now)
            .count()
    }

    /// The cycle at which the channel's front item becomes receivable, or
    /// `None` if the channel is empty.
    ///
    /// This is the channel's contribution to an idle consumer's
    /// [`next_event`](crate::Component::next_event): a component whose only
    /// pending work is this channel may report
    /// `rx.next_visible_at(ctx).map(|v| v.max(now + 1))` and be
    /// fast-forwarded until the item is due. Because sends carry
    /// non-decreasing cycle stamps and recv is head-of-line, the front
    /// item's visibility is exactly when the channel next changes state
    /// for the consumer.
    pub fn next_visible_at(&self, ctx: &SimCtx) -> Option<Cycle> {
        next_visible(ctx, self.chan, self.serial)
    }

    /// Re-arms the host-ready registration for this channel, if it has
    /// one (see
    /// [`Simulation::watch_receiver_keyed`](crate::Simulation::watch_receiver_keyed)).
    ///
    /// [`SimCtx::take_ready_keys`] clears a channel's ready flag when it
    /// emits its key, on the assumption the host drains the channel. A
    /// host that stops draining while items remain (e.g. the rest are
    /// not yet visible, or it only consumed a prefix) must call this
    /// before re-entering the simulation, or those items will never be
    /// reported again. No-op for unregistered or empty channels.
    pub fn mark_host_ready(&self, ctx: &SimCtx) {
        let mut c = ctx.chan(self.chan, self.serial).borrow_mut();
        if c.ready_key.is_some() && !c.ready_queued && !c.visible.is_empty() {
            c.ready_queued = true;
            ctx.host_ready.borrow_mut().push_back(self.chan);
        }
    }

    /// Registers `waker` to fire whenever an item is *sent* on this
    /// channel.
    ///
    /// This is how a consumer joins the active-set scheduler's heap: hook
    /// every input channel its [`next_event`](crate::Component::next_event)
    /// declarations depend on, and the scheduler re-examines it the moment
    /// a producer (or host code) enqueues new work — even if it was asleep
    /// (`None`). Fires on the send itself, before the item is visible;
    /// the woken component is re-examined conservatively at its next
    /// clock-domain fire, matching the naive loop exactly.
    pub fn wake_on_send(&self, ctx: &SimCtx, waker: &Waker) {
        ctx.assert_serial(waker.serial, "Waker");
        ctx.chan(self.chan, self.serial)
            .borrow_mut()
            .send_hooks
            .push(waker.idx);
        ctx.mark_hooked(waker.idx);
    }

    /// Occupancy snapshot.
    pub fn state(&self, ctx: &SimCtx) -> ChannelState {
        state_of(ctx, self.chan, self.serial)
    }
}

#[inline]
fn next_visible(ctx: &SimCtx, chan: u32, serial: u32) -> Option<Cycle> {
    let at = ctx.front_visible(chan, serial);
    (at != Cycle::MAX).then_some(at)
}

fn state_of(ctx: &SimCtx, chan: u32, serial: u32) -> ChannelState {
    let c = ctx.chan(chan, serial).borrow();
    ChannelState {
        occupancy: c.visible.len(),
        capacity: c.capacity,
        total_sent: c.total_sent,
        total_received: c.total_received,
    }
}

#[cfg(test)]
mod tests {
    use crate::Simulation;

    #[test]
    fn latency_hides_items_until_due() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u32>(2);
        let ctx = sim.ctx();
        tx.send(ctx, 5, 42);
        assert!(
            !rx.has_data(ctx, 5),
            "item must not be visible on its send cycle"
        );
        assert!(rx.has_data(ctx, 6));
        assert_eq!(rx.recv(ctx, 6), Some(42));
    }

    #[test]
    fn zero_latency_is_combinational() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel_with_latency::<u32>(1, 0);
        let ctx = sim.ctx();
        tx.send(ctx, 3, 7);
        assert_eq!(rx.recv(ctx, 3), Some(7));
    }

    #[test]
    fn capacity_backpressure() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u32>(2);
        let ctx = sim.ctx();
        assert!(tx.try_send(ctx, 0, 1).is_ok());
        assert!(tx.try_send(ctx, 0, 2).is_ok());
        assert_eq!(tx.try_send(ctx, 0, 3), Err(3));
        assert!(!tx.can_send(ctx));
        assert_eq!(rx.recv(ctx, 1), Some(1));
        assert!(tx.can_send(ctx));
        assert_eq!(tx.free_slots(ctx), 1);
    }

    #[test]
    #[should_panic]
    fn send_on_full_panics() {
        let mut sim = Simulation::new();
        let (tx, _rx) = sim.channel::<u8>(1);
        let ctx = sim.ctx();
        tx.send(ctx, 0, 1);
        tx.send(ctx, 0, 2);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u32>(8);
        let ctx = sim.ctx();
        for i in 0..8 {
            tx.send(ctx, i, i as u32);
        }
        for i in 0..8 {
            assert_eq!(rx.recv(ctx, 100), Some(i));
        }
        assert_eq!(rx.recv(ctx, 100), None);
    }

    #[test]
    fn visible_len_respects_latency() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel_with_latency::<u8>(4, 2);
        let ctx = sim.ctx();
        tx.send(ctx, 0, 1);
        tx.send(ctx, 1, 2);
        assert_eq!(rx.visible_len(ctx, 1), 0);
        assert_eq!(rx.visible_len(ctx, 2), 1);
        assert_eq!(rx.visible_len(ctx, 3), 2);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>(1);
        let ctx = sim.ctx();
        tx.send(ctx, 0, 9);
        assert_eq!(rx.peek_with(ctx, 0, |v| *v), None, "not visible yet");
        assert_eq!(rx.peek_with(ctx, 1, |v| *v), Some(9));
        assert_eq!(rx.peek_with(ctx, 1, |v| *v + 1), Some(10));
        assert_eq!(rx.recv(ctx, 1), Some(9));
        assert_eq!(rx.peek_with(ctx, 1, |v| *v), None);
    }

    #[test]
    fn counters_track_totals() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u8>(4);
        let ctx = sim.ctx();
        tx.send(ctx, 0, 1);
        tx.send(ctx, 0, 2);
        rx.recv(ctx, 1);
        let s = tx.state(ctx);
        assert_eq!(s.total_sent, 2);
        assert_eq!(s.total_received, 1);
        assert_eq!(s.occupancy, 1);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let mut sim = Simulation::new();
        sim.channel::<u8>(0);
    }

    #[test]
    #[should_panic(expected = "different Simulation")]
    fn cross_sim_endpoint_use_is_caught() {
        let mut a = Simulation::new();
        let b = Simulation::new();
        let (tx, _rx) = a.channel::<u8>(1);
        tx.send(b.ctx(), 0, 1);
    }

    #[test]
    fn ready_list_reports_keyed_sends_once() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u32>(4);
        sim.watch_receiver_keyed(&rx, 7);
        let ctx = sim.ctx();
        assert_eq!(ctx.take_ready_keys(0), Vec::<u64>::new());
        tx.send(ctx, 0, 1);
        tx.send(ctx, 0, 2);
        assert_eq!(
            ctx.take_ready_keys(1),
            vec![7],
            "dedupe: one entry per channel"
        );
        assert_eq!(rx.recv(ctx, 1), Some(1));
        assert_eq!(rx.recv(ctx, 1), Some(2));
        assert_eq!(ctx.take_ready_keys(1), Vec::<u64>::new());
    }

    #[test]
    fn ready_list_defers_items_still_in_flight() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel_with_latency::<u32>(4, 3);
        sim.watch_receiver_keyed(&rx, 9);
        let ctx = sim.ctx();
        tx.send(ctx, 0, 1);
        assert_eq!(
            ctx.take_ready_keys(1),
            Vec::<u64>::new(),
            "item is not visible until cycle 3"
        );
        assert_eq!(
            ctx.take_ready_keys(3),
            vec![9],
            "stays queued until visible"
        );
    }

    #[test]
    fn ready_list_rearms_after_partial_drain() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u32>(4);
        sim.watch_receiver_keyed(&rx, 3);
        let ctx = sim.ctx();
        tx.send(ctx, 0, 1);
        tx.send(ctx, 5, 2);
        assert_eq!(ctx.take_ready_keys(1), vec![3]);
        assert_eq!(rx.recv(ctx, 1), Some(1));
        assert_eq!(rx.recv(ctx, 1), None, "second item not visible until 6");
        rx.mark_host_ready(ctx);
        assert_eq!(ctx.take_ready_keys(1), Vec::<u64>::new());
        assert_eq!(ctx.take_ready_keys(6), vec![3]);
        assert_eq!(rx.recv(ctx, 6), Some(2));
    }

    #[test]
    fn ready_list_clears_externally_drained_channels() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u32>(4);
        sim.watch_receiver_keyed(&rx, 11);
        let ctx = sim.ctx();
        tx.send(ctx, 0, 1);
        assert_eq!(
            rx.recv(ctx, 1),
            Some(1),
            "full-scan path empties the channel"
        );
        assert_eq!(ctx.take_ready_keys(1), Vec::<u64>::new());
        tx.send(ctx, 1, 2);
        assert_eq!(
            ctx.take_ready_keys(2),
            vec![11],
            "flag was cleared, re-queue works"
        );
    }

    #[test]
    fn keyed_registration_reports_preexisting_items() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u32>(4);
        tx.send(sim.ctx(), 0, 1);
        sim.watch_receiver_keyed(&rx, 5);
        assert_eq!(sim.ctx().take_ready_keys(1), vec![5]);
    }

    #[test]
    fn unkeyed_channels_never_enter_ready_list() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u32>(4);
        sim.watch_receiver(&rx);
        let ctx = sim.ctx();
        tx.send(ctx, 0, 1);
        rx.mark_host_ready(ctx);
        assert_eq!(ctx.take_ready_keys(1), Vec::<u64>::new());
    }
}
