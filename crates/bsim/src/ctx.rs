//! [`SimCtx`]: the arena a [`Simulation`](crate::Simulation) owns.
//!
//! Everything that used to be shared through `Rc` handles — channel
//! storage, the wake queue, per-component wake flags, the occupancy
//! bitmap — lives here, in plain `Vec`s indexed by the IDs that
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

use crate::occupancy::OccupancyBlock;
use crate::time::Cycle;

/// Process-wide counter minting one serial per [`SimCtx`], so a handle
/// accidentally resolved against another simulation's arena (easy to do
/// in tests that pair a naive and an event-driven copy) fails loudly
/// instead of silently indexing the wrong storage.
static NEXT_SERIAL: AtomicU32 = AtomicU32::new(1);

/// Type-erased storage for one channel: one queue of items, each with
/// the cycle it becomes visible, behind `dyn Any` (the endpoint's type
/// parameter recovers it). Everything the scheduler reads without knowing
/// `T` is kept beside it: the item count, as the totals' difference, and
/// the front item's visibility cycle, in [`SimCtx::front`].
pub(crate) struct RawChan {
    pub(crate) capacity: usize,
    pub(crate) latency: u64,
    /// A `VecDeque<(Cycle, T)>`, front = oldest: each item with the cycle
    /// it becomes receivable.
    pub(crate) items: Box<dyn Any + Send>,
    pub(crate) total_sent: u64,
    pub(crate) total_received: u64,
    /// Component indices woken on every send (consumers sleeping on an
    /// empty channel).
    pub(crate) send_hooks: Vec<usize>,
    /// Component indices woken on every successful recv (producers
    /// sleeping on a full channel).
    pub(crate) recv_hooks: Vec<usize>,
    /// This receiver's bit in [`SimCtx::occupied`], set while the channel
    /// holds an item; `None` unless it was registered in an
    /// [`OccupancyBlock`].
    pub(crate) occupancy_bit: Option<NonZeroU32>,
}

impl RawChan {
    /// Items buffered, visible or not.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        (self.total_sent - self.total_received) as usize
    }

    pub(crate) fn items<T: 'static>(&self) -> &VecDeque<(Cycle, T)> {
        self.items
            .downcast_ref::<VecDeque<(Cycle, T)>>()
            .expect("channel payload type matches its endpoints")
    }

    pub(crate) fn items_mut<T: 'static>(&mut self) -> &mut VecDeque<(Cycle, T)> {
        self.items
            .downcast_mut::<VecDeque<(Cycle, T)>>()
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
    /// (`Cycle::MAX` when empty): the front item's stamp, kept outside the
    /// `RefCell`, so the common polls — an empty or not-yet-visible input
    /// — never borrow the channel. Maintained by
    /// [`Sender::send`](crate::Sender::send) and
    /// [`Receiver::recv`](crate::Receiver::recv).
    pub(crate) front: Vec<Cell<Cycle>>,
    /// Indices enqueued by [`Waker::wake`](crate::Waker::wake) (channel
    /// hooks or host code), drained by the scheduler between ticks.
    pub(crate) wake_queue: RefCell<Vec<usize>>,
    /// Indexed by component registration order.
    pub(crate) wake_state: Vec<WakeState>,
    /// The occupancy bitmap, 64 bits a word: bit `b` is set exactly while
    /// the channel registered for it holds an item. Maintained by
    /// [`Sender::send`](crate::Sender::send) and
    /// [`Receiver::recv`](crate::Receiver::recv); read through
    /// [`OccupancyBlock`]s. It is the one record of which channels hold
    /// items, for arbiters and host watches alike.
    pub(crate) occupied: Vec<Cell<u64>>,
    /// Per occupancy bit, the ID of the channel registered for it; its
    /// length is where the next block starts. Bit 0 is never allocated
    /// (its entry is a placeholder), so a bit index fits a `NonZeroU32`
    /// and `RawChan::occupancy_bit` costs no more space than the bit
    /// itself.
    pub(crate) bit_chan: Vec<u32>,
    /// The blocks registered with
    /// [`Simulation::watch_receivers`](crate::Simulation::watch_receivers):
    /// channels host code drains, whose items bound fast-forward.
    pub(crate) watched: Vec<OccupancyBlock>,
}

impl SimCtx {
    pub(crate) fn new() -> Self {
        SimCtx {
            serial: NEXT_SERIAL.fetch_add(1, Ordering::Relaxed),
            chans: Vec::new(),
            front: Vec::new(),
            wake_queue: RefCell::new(Vec::new()),
            wake_state: Vec::new(),
            occupied: Vec::new(),
            bit_chan: vec![u32::MAX],
            watched: Vec::new(),
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

    /// The earliest cycle a watched channel's front item becomes visible
    /// (possibly past, if the host has not drained it yet), `Cycle::MAX`
    /// when no watched channel holds an item: the bound the scheduler
    /// never fast-forwards past. Walks the watched blocks' set bits, so it
    /// costs O(words + watched channels holding items).
    pub(crate) fn ready_horizon(&self) -> Cycle {
        let mut earliest = Cycle::MAX;
        for block in &self.watched {
            for bit in block.set_bits(self) {
                earliest = earliest.min(self.front[self.bit_chan[bit] as usize].get());
            }
        }
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
