//! Wake hooks: how channel activity re-arms sleeping components under the
//! active-set scheduler.
//!
//! Re-querying every component's
//! [`next_event`](crate::Component::next_event) before each scheduling
//! decision would keep a declaration *stale by zero cycles*, at O(n) per
//! cycle. The active-set scheduler instead trusts declarations across
//! many executed cycles — a sleeping component is not looked at while
//! others run — so a declaration can be invalidated by an input change
//! the component never sees. Wake hooks close that hole: a [`Waker`]
//! handed to
//! [`Component::register_wakes`](crate::Component::register_wakes) is
//! attached to the component's input channels, and every
//! [`send`](crate::Sender::send) (or, for backpressure sleepers, every
//! [`recv`](crate::Receiver::recv)) on a hooked channel enqueues the
//! component for re-examination.
//!
//! A `Waker` is a `Copy` ID into the simulation's [`SimCtx`] arena: the
//! wake queue and the per-component queued/hooked flags live in the
//! arena, not behind shared `Rc` handles, so registering hooks never
//! creates a second owner of scheduler state.
//!
//! Waking is intentionally conservative: a woken component is scheduled
//! for the next cycle regardless of whether the new input is visible
//! yet. Extra ticks are always sound — they are exactly what the naive
//! loop executes — and the component's post-tick `next_event` re-arms it
//! precisely.

use crate::ctx::SimCtx;

/// Re-arms one registered component in its [`Simulation`](crate::Simulation).
///
/// A `Waker` is handed to each component once, via
/// [`Component::register_wakes`](crate::Component::register_wakes), when
/// the component is added to a simulation. The component attaches it
/// to the channels whose state its
/// [`next_event`](crate::Component::next_event) declarations depend on:
///
/// * [`Receiver::wake_on_send`](crate::Receiver::wake_on_send) on every
///   input channel, so new data re-arms it;
/// * [`Sender::wake_on_recv`](crate::Sender::wake_on_recv) on an output
///   channel **only if** the component ever sleeps while blocked on that
///   channel being full (most components stay awake — `Some(now + 1)` —
///   while output-blocked, which needs no hook).
///
/// A component that registers at least one hook promises its hooks cover
/// *every* input that can invalidate a `next_event` declaration. In
/// return the active-set scheduler lets it sleep without polling.
/// Components that register nothing stay in the always-tick fallback set
/// (naive semantics on every executed cycle). See `DESIGN.md`.
#[derive(Clone, Copy)]
pub struct Waker {
    /// Index of the component in the simulation's registration order.
    pub(crate) idx: usize,
    /// Serial of the owning simulation's arena (cross-sim misuse check).
    pub(crate) serial: u32,
}

impl Waker {
    pub(crate) fn new(idx: usize, serial: u32) -> Self {
        Waker { idx, serial }
    }

    /// Enqueues the owning component for re-examination by the scheduler.
    ///
    /// Channels call this from their hook lists; host code may also call
    /// it directly after mutating a sleeping component's state through a
    /// [`Shared`](crate::Shared) handle outside any channel.
    pub fn wake(&self, ctx: &SimCtx) {
        ctx.assert_serial(self.serial, "Waker");
        ctx.wake_component(self.idx);
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker")
            .field("component", &self.idx)
            .finish()
    }
}
