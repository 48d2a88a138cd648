//! [`SimCtx`]: the arena a [`Simulation`](crate::Simulation) owns.
//!
//! Everything that used to be shared through `Rc` handles — channel
//! storage, the wake queue, per-component wake flags, the watched-channel
//! dirty flag — lives here, in plain `Vec`s indexed by the IDs that
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
use std::sync::atomic::{AtomicU32, Ordering};

use crate::time::Cycle;

/// Process-wide counter minting one serial per [`SimCtx`], so a handle
/// accidentally resolved against another simulation's arena (easy to do
/// in paired-sim tests like [`Lockstep`](crate::Lockstep)) fails loudly
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
    /// Whether this channel is host-watched: sends set the sim-wide
    /// dirty flag so the cached watch horizon is re-scanned (see
    /// [`Simulation::watch_receiver`](crate::Simulation::watch_receiver)).
    pub(crate) watched: bool,
    /// Host-ready registration: channels registered through
    /// [`Simulation::watch_receiver_keyed`](crate::Simulation::watch_receiver_keyed)
    /// carry an opaque key the host uses to identify the channel in
    /// [`SimCtx::take_ready_keys`] without scanning every channel.
    pub(crate) ready_key: Option<u64>,
    /// Whether this channel is currently sitting in the host-ready queue
    /// (dedupe: a channel appears at most once no matter how many sends
    /// land between host drains).
    pub(crate) ready_queued: bool,
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
    /// Set by any watched channel's `send`; forces a re-scan of the
    /// cached watched-channel horizon.
    pub(crate) watch_dirty: Cell<bool>,
    /// Channel IDs with a host-ready registration that received at least
    /// one send since the host last drained them. Maintained by
    /// [`Sender::send`](crate::Sender::send); drained (and re-armed for
    /// not-yet-visible items) by [`SimCtx::take_ready_keys`]. Lets the
    /// host service doorbell wakes in time proportional to the number of
    /// *ready* channels instead of rescanning every response channel.
    pub(crate) host_ready: RefCell<VecDeque<u32>>,
}

impl SimCtx {
    pub(crate) fn new() -> Self {
        SimCtx {
            serial: NEXT_SERIAL.fetch_add(1, Ordering::Relaxed),
            chans: Vec::new(),
            front: Vec::new(),
            wake_queue: RefCell::new(Vec::new()),
            wake_state: Vec::new(),
            watch_dirty: Cell::new(false),
            host_ready: RefCell::new(VecDeque::new()),
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

    /// Drains the host-ready queue, returning the registration keys of
    /// every keyed channel whose front item is visible at `now`.
    ///
    /// Three cases per queued channel:
    /// - front item visible at `now` → ready flag cleared, key emitted
    ///   (the host is expected to drain the channel before re-entering
    ///   the simulation);
    /// - front item still in flight (latency) → left queued for a later
    ///   drain, key not emitted;
    /// - channel already emptied by another path (e.g. a full-scan
    ///   drain) → ready flag cleared, nothing emitted.
    ///
    /// Examines at most the channels queued when the call starts, so the
    /// cost scales with ready channels, not with SoC size.
    pub fn take_ready_keys(&self, now: Cycle) -> Vec<u64> {
        let mut queue = self.host_ready.borrow_mut();
        let mut keys = Vec::new();
        for _ in 0..queue.len() {
            let id = match queue.pop_front() {
                Some(id) => id,
                None => break,
            };
            let mut chan = self.chans[id as usize].borrow_mut();
            match chan.visible.front() {
                Some(&at) if at <= now => {
                    chan.ready_queued = false;
                    keys.push(chan.ready_key.expect("queued channel has a ready key"));
                }
                Some(_) => queue.push_back(id),
                None => chan.ready_queued = false,
            }
        }
        keys
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
