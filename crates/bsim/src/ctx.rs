//! [`SimCtx`]: the arena a [`Simulation`](crate::Simulation) owns.
//!
//! Everything that used to be shared through `Rc` handles — channel
//! storage, the wake queue, per-component wake flags, the host-ready
//! queue of watched channels — lives here, in plain `Vec`s indexed by the IDs that
//! [`Sender`](crate::Sender)/[`Receiver`](crate::Receiver)/
//! [`Shared`](crate::Shared)/[`Waker`](crate::Waker) handles carry. The
//! handles themselves are `Copy` integers; every operation resolves
//! through a `&SimCtx`, which the simulation passes into
//! [`Component::tick`](crate::Component::tick) and which host code
//! reaches via [`Simulation::ctx`](crate::Simulation::ctx).
//!
//! Because no `Rc` remains, the whole ownership tree is `Send`: a
//! `Simulation` (and any SoC built on it) can be constructed on one
//! thread and moved to another — the property the sharded `bserver`
//! fleet is built on. Interior mutability survives (`RefCell`/`Cell`
//! inside the arena), which is `Send`-compatible because the arena has
//! exactly one owner; only *shared* ownership had to go.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::num::NonZeroU32;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::time::Cycle;

/// Process-wide counter minting one serial per [`SimCtx`], so a handle
/// accidentally resolved against another simulation's arena (easy to do
/// in tests that pair a naive and an event-driven copy) fails loudly
/// instead of silently indexing the wrong storage.
static NEXT_SERIAL: AtomicU32 = AtomicU32::new(1);

/// Type-erased storage for one channel: the visibility stamps are kept
/// unerased (the scheduler reads them without knowing `T`), the payloads
/// behind `dyn Any`.
pub(crate) struct RawChan {
    pub(crate) capacity: usize,
    pub(crate) latency: u64,
    /// Per-item visibility cycles, front = oldest. Parallel to `payloads`.
    pub(crate) visible: VecDeque<Cycle>,
    /// A `VecDeque<T>` behind `Any` (the endpoint's type parameter
    /// recovers it).
    pub(crate) payloads: Box<dyn Any + Send>,
    pub(crate) total_sent: u64,
    pub(crate) total_received: u64,
    /// Component indices woken on every send (consumers sleeping on an
    /// empty channel).
    pub(crate) send_hooks: Vec<usize>,
    /// Component indices woken on every successful recv (producers
    /// sleeping on a full channel).
    pub(crate) recv_hooks: Vec<usize>,
    /// The key of a host-watched channel (see
    /// [`Simulation::watch_receiver`](crate::Simulation::watch_receiver)),
    /// which [`SimCtx::take_ready_keys`] reports it under; `None` for a
    /// channel only components consume.
    pub(crate) ready_key: Option<u64>,
    /// Whether this channel is in the host-ready queue (dedupe: a
    /// channel appears at most once however many sends land between
    /// reads of the queue).
    pub(crate) ready_queued: bool,
    /// This receiver's bit in [`SimCtx::occupied`], set while the channel
    /// holds an item; `None` unless it was registered in an
    /// [`OccupancyBlock`](crate::OccupancyBlock).
    pub(crate) occupancy_bit: Option<NonZeroU32>,
}

impl RawChan {
    pub(crate) fn payloads<T: 'static>(&self) -> &VecDeque<T> {
        self.payloads
            .downcast_ref::<VecDeque<T>>()
            .expect("channel payload type matches its endpoints")
    }

    pub(crate) fn payloads_mut<T: 'static>(&mut self) -> &mut VecDeque<T> {
        self.payloads
            .downcast_mut::<VecDeque<T>>()
            .expect("channel payload type matches its endpoints")
    }
}

/// Per-component wake bookkeeping (what the old `Rc<WakeTarget>` held).
#[derive(Default)]
pub(crate) struct WakeState {
    /// Already enqueued and not yet drained (dedupe: a hot channel fires
    /// its hooks every cycle, but each component appears at most once).
    pub(crate) queued: Cell<bool>,
    /// Whether any hook was ever registered through this component's
    /// waker.
    pub(crate) hooked: Cell<bool>,
}

/// The arena behind a [`Simulation`](crate::Simulation): channel storage,
/// the wake queue, and per-component wake flags, all resolved through
/// the `Copy` ID handles this crate hands out.
///
/// Components receive `&SimCtx` in [`tick`](crate::Component::tick) and
/// thread it into every channel operation; host code borrows it with
/// [`Simulation::ctx`](crate::Simulation::ctx). The interior `RefCell`s
/// make channel ops possible while the simulation is mid-tick, exactly
/// like the old shared handles — but with single ownership, so the
/// whole structure stays `Send`.
pub struct SimCtx {
    pub(crate) serial: u32,
    pub(crate) chans: Vec<RefCell<RawChan>>,
    /// Per channel, the cycle its front item becomes visible
    /// (`Cycle::MAX` when empty): a copy of `chans[id].visible.front()`
    /// kept outside the `RefCell`, so the common polls — an empty or
    /// not-yet-visible input — never borrow the channel. Maintained by
    /// [`Sender::send`](crate::Sender::send) and
    /// [`Receiver::recv`](crate::Receiver::recv).
    pub(crate) front: Vec<Cell<Cycle>>,
    /// Indices enqueued by [`Waker::wake`](crate::Waker::wake) (channel
    /// hooks or host code), drained by the scheduler between ticks.
    pub(crate) wake_queue: RefCell<Vec<usize>>,
    /// Indexed by component registration order.
    pub(crate) wake_state: Vec<WakeState>,
    /// The host-ready queue: the IDs of watched channels, in the order
    /// they were queued. Invariant: every watched channel that holds an
    /// item is in it. [`Sender::send`](crate::Sender::send) queues the
    /// channel (deduplicated); an entry found empty is dropped the next
    /// time the queue is read. It is the one record of what the host
    /// watches: [`SimCtx::take_ready_keys`] reports the channels with a
    /// visible item, and the scheduler's fast-forward bound is the
    /// earliest front item in it, so both cost O(channels holding items),
    /// not O(watched channels).
    pub(crate) host_ready: RefCell<Vec<u32>>,
    /// The occupancy bitmap, 64 bits a word: bit `b` is set exactly while
    /// the channel registered for it holds an item. Maintained by
    /// [`Sender::send`](crate::Sender::send) and
    /// [`Receiver::recv`](crate::Receiver::recv); read through
    /// [`OccupancyBlock`](crate::OccupancyBlock)s.
    pub(crate) occupied: Vec<Cell<u64>>,
    /// Where the next block starts. Bit 0 is never allocated, so a bit
    /// index fits a `NonZeroU32` and `RawChan::occupancy_bit` costs no
    /// more space than the bit itself.
    pub(crate) occupied_len: u32,
}

impl SimCtx {
    pub(crate) fn new() -> Self {
        SimCtx {
            serial: NEXT_SERIAL.fetch_add(1, Ordering::Relaxed),
            chans: Vec::new(),
            front: Vec::new(),
            wake_queue: RefCell::new(Vec::new()),
            wake_state: Vec::new(),
            host_ready: RefCell::new(Vec::new()),
            occupied: Vec::new(),
            occupied_len: 1,
        }
    }

    /// Resolves a channel ID minted by this simulation.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint belongs to a different simulation.
    #[inline]
    pub(crate) fn chan(&self, id: u32, serial: u32) -> &RefCell<RawChan> {
        self.assert_chan_serial(serial);
        &self.chans[id as usize]
    }

    /// The cycle channel `id`'s front item becomes visible, `Cycle::MAX`
    /// when it is empty — read without borrowing the channel.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint belongs to a different simulation.
    #[inline]
    pub(crate) fn front_visible(&self, id: u32, serial: u32) -> Cycle {
        self.assert_chan_serial(serial);
        self.front[id as usize].get()
    }

    #[inline]
    fn assert_chan_serial(&self, serial: u32) {
        assert_eq!(
            serial, self.serial,
            "channel endpoint used with a different Simulation than the one that created it"
        );
    }

    #[inline]
    pub(crate) fn assert_serial(&self, serial: u32, what: &str) {
        assert_eq!(
            serial, self.serial,
            "{what} used with a different Simulation than the one that created it"
        );
    }

    /// Enqueues component `idx` for re-examination (deduped).
    #[inline]
    pub(crate) fn wake_component(&self, idx: usize) {
        if !self.wake_state[idx].queued.replace(true) {
            self.wake_queue.borrow_mut().push(idx);
        }
    }

    #[inline]
    pub(crate) fn clear_queued(&self, idx: usize) {
        self.wake_state[idx].queued.set(false);
    }

    pub(crate) fn mark_hooked(&self, idx: usize) {
        self.wake_state[idx].hooked.set(true);
    }

    #[inline]
    pub(crate) fn is_hooked(&self, idx: usize) -> bool {
        self.wake_state[idx].hooked.get()
    }

    /// Sets occupancy bit `bit`. Cold and out of line: only a channel
    /// registered in a block calls it, and keeping it out of every
    /// inlined `send` keeps the path of all other channels short.
    #[cold]
    pub(crate) fn set_occupied(&self, bit: NonZeroU32) {
        let bit = bit.get();
        let word = &self.occupied[bit as usize / 64];
        word.set(word.get() | 1 << (bit % 64));
    }

    /// Clears occupancy bit `bit`. Cold for the reason `set_occupied` is.
    #[cold]
    pub(crate) fn clear_occupied(&self, bit: NonZeroU32) {
        let bit = bit.get();
        let word = &self.occupied[bit as usize / 64];
        word.set(word.get() & !(1 << (bit % 64)));
    }

    /// Queues watched channel `id` in the host-ready queue unless it is
    /// already there.
    pub(crate) fn queue_ready(&self, id: u32, chan: &mut RawChan) {
        if chan.ready_key.is_some() && !chan.ready_queued {
            chan.ready_queued = true;
            self.host_ready.borrow_mut().push(id);
        }
    }

    /// Visits each channel of the host-ready queue with the cycle its
    /// front item becomes visible, dropping the entries found empty.
    fn for_each_ready(&self, mut f: impl FnMut(u32, Cycle)) {
        self.host_ready.borrow_mut().retain(|&id| {
            let at = self.front[id as usize].get();
            if at == Cycle::MAX {
                self.chans[id as usize].borrow_mut().ready_queued = false;
                return false;
            }
            f(id, at);
            true
        });
    }

    /// The registration keys of the watched channels whose front item is
    /// visible at `now`, in queue order.
    ///
    /// Reported channels stay queued: one the host drains only partly
    /// (its later items are still in flight) is reported again once they
    /// are visible, and one it empties is dropped on a later read. Costs
    /// O(channels holding items), not O(watched channels).
    pub fn take_ready_keys(&self, now: Cycle) -> Vec<u64> {
        let mut keys = Vec::new();
        self.for_each_ready(|id, at| {
            if at <= now {
                let chan = self.chans[id as usize].borrow();
                keys.push(chan.ready_key.expect("queued channel has a ready key"));
            }
        });
        keys
    }

    /// The earliest cycle a watched channel's front item becomes visible
    /// (possibly past, if the host has not drained it yet), `Cycle::MAX`
    /// when no watched channel holds an item: the bound the scheduler
    /// never fast-forwards past.
    pub(crate) fn ready_horizon(&self) -> Cycle {
        let mut earliest = Cycle::MAX;
        self.for_each_ready(|_, at| earliest = earliest.min(at));
        earliest
    }
}

impl std::fmt::Debug for SimCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCtx")
            .field("serial", &self.serial)
            .field("channels", &self.chans.len())
            .field("components", &self.wake_state.len())
            .finish()
    }
}
