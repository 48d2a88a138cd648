//! The [`Component`] trait and the [`Simulation`] driver.
//!
//! Every component ticks on the simulation's one clock. The driver
//! supports two cycle-exact scheduling modes, switched with
//! [`Simulation::set_event_driven`]:
//!
//! * **Naive** — tick every component every cycle: the oracle.
//! * **Active-set** (the default) — when every component declares (via
//!   [`Component::next_event`]) that its next activity lies in the
//!   future, fast-forward the clock across the globally quiescent gap in
//!   one jump; and make each *executed* cycle cost proportional to the
//!   number of *awake* components: every registered component carries a
//!   due-cycle derived from its `next_event`, and a cycle ticks only the
//!   components due now. A component due on the very next cycle — the
//!   common case — sits in a next-cycle bitset; only later deadlines go
//!   to a min-heap keyed by cycle. The components of a cycle are
//!   collected in a due bitset and ticked in registration order.
//!   Channel activity re-arms sleeping consumers through [`Waker`] hooks
//!   (see [`Component::register_wakes`]); components that register no
//!   hooks stay in an always-tick fallback set with exact naive
//!   semantics.
//!
//! Both modes produce bit-identical cycle counts and component state.
//! See `DESIGN.md` for the full contract.
//!
//! Ownership follows the arena model (see [`SimCtx`]): the simulation
//! owns all component and channel storage in `Vec`s, and the handles this
//! module hands out ([`Shared`], [`Waker`], channel endpoints) are `Copy`
//! IDs resolved through the owning simulation. No `Rc` remains anywhere
//! in the tree, so `Simulation` is `Send` and a fully built SoC can be
//! moved to another thread (the `bserver` fleet does exactly that).

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

use crate::chan::{Receiver, Sender};
use crate::ctx::{SimCtx, WakeState};
use crate::time::Cycle;
use crate::wake::Waker;

/// A hardware module with per-cycle behaviour.
///
/// `tick(ctx, now)` is called exactly once per simulation cycle, from the
/// cycle the component was added on. All communication with other
/// components flows through channels ([`Simulation::channel`]), whose
/// default 1-cycle visibility latency keeps results independent of tick
/// order; the `ctx` argument is the owning simulation's arena, through
/// which every channel operation resolves.
pub trait Component {
    /// Advances the component by one cycle; `now` is the simulation's
    /// current cycle.
    fn tick(&mut self, ctx: &SimCtx, now: Cycle);

    /// A human-readable name for traces and error messages.
    fn name(&self) -> &str {
        "component"
    }

    /// Declares the earliest cycle at which this component may do
    /// anything observable, given that its most recent `tick` ran at
    /// cycle `now`.
    ///
    /// The scheduler calls this between cycles with `now` equal to the
    /// just-completed cycle. The contract:
    ///
    /// - `Some(e)` with `e > now` promises that ticks at cycles in
    ///   `(now, e)` would be no-ops: no internal state change, no channel
    ///   sends or receives, no stats updates. The scheduler may then skip
    ///   those ticks entirely.
    /// - `None` promises the component is a no-op indefinitely — until some
    ///   *other* agent (another component, or host code between cycles)
    ///   changes one of its inputs. A component waiting on an empty input
    ///   channel must instead return the channel's
    ///   [`next_visible_at`](crate::Receiver::next_visible_at) so buffered
    ///   but not-yet-visible items wake it on time.
    /// - The default, `Some(now + 1)`, declares "possibly active every
    ///   cycle" and reproduces the naive scheduler exactly.
    ///
    /// Returning `Some(e)` with `e <= now` is treated as `Some(now + 1)`.
    /// The promise only needs to hold while the component's inputs are
    /// untouched: under the active-set scheduler an input change re-arms
    /// the component through its [wake hooks](Component::register_wakes)
    /// (or, for components without hooks, through the always-tick fallback
    /// set).
    fn next_event(&self, ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
        let _ = ctx;
        Some(now + 1)
    }

    /// Attaches wake hooks to the channels this component's
    /// [`next_event`](Component::next_event) declarations depend on.
    ///
    /// Called once, when the component is added to a [`Simulation`]. A
    /// typical implementation hooks every input channel with
    /// [`Receiver::wake_on_send`](crate::Receiver::wake_on_send) (and any
    /// output channel it sleeps on while full with
    /// [`Sender::wake_on_recv`](crate::Sender::wake_on_recv)).
    ///
    /// Registering at least one hook promises the hooks cover *every*
    /// input that can invalidate a `next_event` declaration; the
    /// active-set scheduler then lets the component sleep without polling
    /// it. The default registers nothing, which keeps the component in
    /// the always-tick fallback set: it ticks on every executed cycle
    /// (exact naive semantics) and its `next_event` only bounds
    /// whole-simulation fast-forward jumps — correct for every component,
    /// merely slower for ones that could have slept.
    fn register_wakes(&self, ctx: &SimCtx, waker: &Waker) {
        let _ = (ctx, waker);
    }
}

/// An inspectable handle to a component that has been added to a
/// [`Simulation`]: a `Copy` ID into the simulation's component arena.
///
/// The simulation owns and ticks the component; the host resolves the
/// handle with [`Simulation::get`] / [`Simulation::get_mut`] between
/// cycles to read results or inject stimuli. Handles are plain indices —
/// cloning them shares no ownership, and using one against a different
/// simulation than the one that minted it panics.
pub struct Shared<T> {
    pub(crate) idx: usize,
    pub(crate) serial: u32,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<T> {}

impl<T> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("idx", &self.idx).finish()
    }
}

/// Object-safe erasure over [`Component`] plus `Any`, so [`Shared`]
/// handles can downcast back to the concrete type.
trait ErasedComponent {
    fn tick(&mut self, ctx: &SimCtx, now: Cycle);
    fn name(&self) -> &str;
    fn next_event(&self, ctx: &SimCtx, now: Cycle) -> Option<Cycle>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Component + Send + 'static> ErasedComponent for T {
    fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
        Component::tick(self, ctx, now);
    }
    fn name(&self) -> &str {
        Component::name(self)
    }
    fn next_event(&self, ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
        Component::next_event(self, ctx, now)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Registered {
    component: Box<dyn ErasedComponent + Send>,
    /// The cycle the component was added on: its first tick, and the
    /// start of its count in [`Simulation::registered_component_cycles`].
    added_at: Cycle,
    /// Active-set: the cycle this component is scheduled to tick at — in
    /// the next-cycle set when that is the next cycle to execute, in the
    /// heap otherwise — or `Cycle::MAX` when sleeping (or in the polled
    /// fallback set, which is never scheduled). Heap entries whose cycle
    /// no longer equals `sched_at` are stale and discarded on pop.
    sched_at: Cycle,
}

/// A set of component indices, one bit each, iterated low to high.
#[derive(Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Makes room for indices `0..n`.
    fn grow(&mut self, n: usize) {
        self.words.resize(n.div_ceil(64), 0);
    }

    /// Adds `i`; returns whether it was absent.
    #[inline]
    fn insert(&mut self, i: usize) -> bool {
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Moves every member into `dst`, leaving `self` empty.
    fn drain_into(&mut self, dst: &mut BitSet) {
        for (d, s) in dst.words.iter_mut().zip(&mut self.words) {
            *d |= std::mem::take(s);
        }
    }

    /// Removes and returns the lowest member in word `*word` or above,
    /// advancing `*word` past empty words. The current word is re-read on
    /// every call, so members added above the last one returned are
    /// still found, in order.
    #[inline]
    fn pop_from(&mut self, word: &mut usize) -> Option<usize> {
        while let Some(w) = self.words.get_mut(*word) {
            if *w != 0 {
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some(*word * 64 + bit);
            }
            *word += 1;
        }
        None
    }
}

/// Owns a set of components and drives the clock.
///
/// By default the driver uses the active-set (event-driven) scheduler:
/// executed cycles tick only the components that are due (see
/// [`Component::next_event`] and [`Component::register_wakes`]) and
/// globally quiescent gaps are fast-forwarded. Set the `BSIM_NAIVE`
/// environment variable to a non-empty value other than `0` (or call
/// [`Simulation::set_event_driven`]`(false)`) to force the naive
/// cycle-by-cycle loop; results are bit-identical, only slower.
///
/// A `Simulation` owns its entire object graph — components, channels,
/// wake queue — through the [`SimCtx`] arena, so it is `Send`: build an
/// SoC on one thread and move it to a worker (checked by a compile-time
/// assertion below).
pub struct Simulation {
    /// The arena: channel storage, wake queue, per-component wake flags.
    /// Handed to components as `&SimCtx` on every tick; host code borrows
    /// it via [`Simulation::ctx`].
    ctx: SimCtx,
    components: Vec<Registered>,
    now: Cycle,
    /// Whether the active-set scheduler drives the clock; `false` is the
    /// naive oracle that ticks every component on every cycle.
    event_driven: bool,
    /// Whether an active-set cycle is executing, so the next cycle to
    /// schedule into is `now + 1`; between cycles it is `now`.
    mid_cycle: bool,
    /// Active-set: components scheduled for the next cycle to execute.
    /// Moved into the due set when that cycle starts.
    next: BitSet,
    /// Members of `next`.
    queued: usize,
    /// Active-set: min-heap of `(due_cycle, component_index)` entries for
    /// deadlines past the next cycle. Entries are lazily invalidated: one
    /// is live iff its cycle equals the component's `sched_at`.
    heap: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Active-set: the always-tick fallback set — indices of components
    /// that registered no wake hooks. They tick on every executed cycle
    /// and are re-queried for every fast-forward decision.
    polled: Vec<usize>,
    /// Active-set scratch: the components due on the cycle being
    /// executed, ticked in registration order (empty between cycles).
    due: BitSet,
    /// Cycles executed in full (every due component ticked).
    executed_cycles: Cycle,
    /// Cycles crossed by fast-forward jumps instead of being executed.
    /// `executed + skipped == now`.
    skipped_cycles: Cycle,
    /// Component ticks actually executed, across all modes. Under naive
    /// this equals the registered component-cycles; the active-set win is
    /// the gap between the two (see
    /// [`Simulation::registered_component_cycles`]).
    ticked_component_cycles: Cycle,
    /// Debug conservatism check: re-query sleeping components on every
    /// executed cycle and panic if one of them should have ticked.
    verify_idle: bool,
}

/// `Simulation` must stay `Send` — the `bserver` fleet and the parallel
/// sweep executor move fully built SoCs across threads. If a field
/// regresses to `Rc` or a non-`Send` trait object, this fails to compile.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Simulation>()
};

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

fn event_driven_from_env() -> bool {
    !std::env::var("BSIM_NAIVE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn verify_idle_from_env() -> bool {
    cfg!(debug_assertions)
        && std::env::var("BSIM_VERIFY_IDLE").is_ok_and(|v| !v.is_empty() && v != "0")
}

impl Simulation {
    /// Creates an empty simulation at cycle 0 using the active-set
    /// scheduler, unless the `BSIM_NAIVE` environment variable selects
    /// the naive one.
    pub fn new() -> Self {
        Simulation {
            ctx: SimCtx::new(),
            components: Vec::new(),
            now: 0,
            event_driven: event_driven_from_env(),
            mid_cycle: false,
            next: BitSet::default(),
            queued: 0,
            heap: BinaryHeap::new(),
            polled: Vec::new(),
            due: BitSet::default(),
            executed_cycles: 0,
            skipped_cycles: 0,
            ticked_component_cycles: 0,
            verify_idle: verify_idle_from_env(),
        }
    }

    /// Borrows the simulation's arena, through which host code performs
    /// channel operations between cycles:
    /// `tx.send(sim.ctx(), sim.now(), v)`.
    pub fn ctx(&self) -> &SimCtx {
        &self.ctx
    }

    /// Creates a bounded channel with the default 1-cycle visibility
    /// latency and returns its `Copy` endpoint IDs ([`Sender`],
    /// [`Receiver`]): an item sent on cycle `n` is receivable from cycle
    /// `n + 1`, and `capacity` bounds the items in flight.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn channel<T: Send + 'static>(&mut self, capacity: usize) -> (Sender<T>, Receiver<T>) {
        self.channel_with_latency(capacity, 1)
    }

    /// [`Simulation::channel`] with an explicit visibility latency.
    /// Latency 0 is combinational: an item is receivable on its send
    /// cycle (making results dependent on component tick order — use
    /// deliberately).
    pub fn channel_with_latency<T: Send + 'static>(
        &mut self,
        capacity: usize,
        latency: u64,
    ) -> (Sender<T>, Receiver<T>) {
        crate::chan::make_channel(&mut self.ctx, capacity, latency)
    }

    /// Selects the active-set scheduler (`true`) or the naive
    /// cycle-by-cycle oracle (`false`). Cycle counts and component state
    /// are identical either way; this only affects host wall-clock time.
    ///
    /// Safe at any between-cycles point: entering active-set mode
    /// rebuilds its schedule from fresh declarations.
    pub fn set_event_driven(&mut self, enabled: bool) {
        if enabled == self.event_driven {
            return;
        }
        self.event_driven = enabled;
        if enabled {
            self.rebuild_schedule();
        }
    }

    /// Whether the event-driven (active-set) scheduler is selected.
    pub fn event_driven(&self) -> bool {
        self.event_driven
    }

    /// Enables the debug conservatism check: on every executed cycle the
    /// active-set scheduler re-queries each sleeping hook-covered
    /// component and panics if its fresh [`Component::next_event`] says it
    /// should have ticked — i.e. an input changed without any wake hook
    /// firing, or a declaration was broken. Costs one query per component
    /// per executed cycle; also enabled by `BSIM_VERIFY_IDLE=1` in debug
    /// builds.
    pub fn set_verify_idle(&mut self, enabled: bool) {
        self.verify_idle = enabled;
    }

    /// Adds a component; it first ticks on the current cycle.
    pub fn add<C: Component + Send + 'static>(&mut self, component: C) {
        self.add_shared(component);
    }

    /// Adds a component and returns a [`Shared`] handle for host
    /// inspection via [`Simulation::get`] / [`Simulation::get_mut`].
    pub fn add_shared<C: Component + Send + 'static>(&mut self, component: C) -> Shared<C> {
        let idx = self.components.len();
        // The wake-state slot must exist before `register_wakes` runs:
        // hooks mark it, and `wake_component` indexes it.
        self.ctx.wake_state.push(WakeState::default());
        let waker = Waker::new(idx, self.ctx.serial);
        component.register_wakes(&self.ctx, &waker);
        let hooked = self.ctx.is_hooked(idx);
        self.components.push(Registered {
            component: Box::new(component),
            added_at: self.now,
            sched_at: Cycle::MAX,
        });
        self.due.grow(idx + 1);
        self.next.grow(idx + 1);
        if hooked {
            // A component's first tick is never skipped (it has not yet
            // had a chance to declare anything), so schedule it for the
            // next cycle.
            if self.event_driven {
                self.schedule(idx, self.now);
            }
        } else {
            self.polled.push(idx);
        }
        Shared {
            idx,
            serial: self.ctx.serial,
            _marker: PhantomData,
        }
    }

    /// Resolves a [`Shared`] handle to the component it names.
    ///
    /// # Panics
    ///
    /// Panics if the handle was minted by a different simulation.
    pub fn get<T: Component + Send + 'static>(&self, handle: Shared<T>) -> &T {
        self.ctx.assert_serial(handle.serial, "Shared handle");
        self.components[handle.idx]
            .component
            .as_any()
            .downcast_ref::<T>()
            .expect("Shared handle type matches the registered component")
    }

    /// Mutably resolves a [`Shared`] handle. Host code that mutates a
    /// sleeping hooked component this way is covered by the re-arm pass
    /// at every public run entry point (see
    /// [`Component::register_wakes`]).
    ///
    /// # Panics
    ///
    /// Panics if the handle was minted by a different simulation.
    pub fn get_mut<T: Component + Send + 'static>(&mut self, handle: Shared<T>) -> &mut T {
        self.ctx.assert_serial(handle.serial, "Shared handle");
        self.components[handle.idx]
            .component
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("Shared handle type matches the registered component")
    }

    /// Registers `rx` as a host-side wake source under an opaque `key`:
    /// the scheduler will not fast-forward past the cycle the channel's
    /// front item becomes visible, and
    /// [`SimCtx::take_ready_keys`](crate::SimCtx::take_ready_keys)
    /// reports `key` while it is. Use for channels consumed by host code
    /// rather than by a registered component.
    ///
    /// The fast-forward scheduler only sees [`Component::next_event`]; a
    /// channel whose consumer is *host code* (polled between cycles, e.g. a
    /// response queue drained by a `run_until` predicate) is invisible to it
    /// and could be skipped past. A watched receiver closes that hole.
    /// Both the bound and the keys come from the arena's host-ready
    /// queue, which holds every watched channel with an item, so quiet
    /// cycles cost O(channels holding items) however many channels the
    /// host watches. The channel is queued at once, so items it already
    /// holds are reported too.
    ///
    /// # Panics
    ///
    /// Panics if the channel is already watched.
    pub fn watch_receiver<T: Send + 'static>(&mut self, rx: &Receiver<T>, key: u64) {
        let mut c = self.ctx.chan(rx.chan, rx.serial).borrow_mut();
        assert!(c.ready_key.is_none(), "channel is already watched");
        c.ready_key = Some(key);
        self.ctx.queue_ready(rx.chan, &mut c);
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether no components are registered.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Advances the clock by one cycle, ticking every component (under
    /// the active-set scheduler: every *due* component — the executed
    /// cycle is still bit-identical). Always executes the cycle in full —
    /// fast-forwarding only happens inside [`Simulation::run_for`] and
    /// [`Simulation::run_until`], never within a single `step`.
    pub fn step(&mut self) {
        self.rearm_hooked();
        self.execute_cycle();
    }

    /// Executes one cycle in the current mode and advances `now`.
    fn execute_cycle(&mut self) {
        if self.event_driven {
            return self.execute_cycle_active();
        }
        let now = self.now;
        for reg in &mut self.components {
            reg.component.tick(&self.ctx, now);
        }
        self.ticked_component_cycles += self.components.len() as Cycle;
        self.finish_cycle();
    }

    /// Advances `now` past the cycle just executed.
    fn finish_cycle(&mut self) {
        self.now += 1;
        self.executed_cycles += 1;
        self.mid_cycle = false;
    }

    /// Active-set cycle execution: move the next-cycle set into the due
    /// set, drain wakes, pop due heap entries, sweep the polled fallback
    /// set, then tick the due components in registration order — waking
    /// same-cycle listeners exactly where the naive loop would reach
    /// them.
    fn execute_cycle_active(&mut self) {
        let now = self.now;
        self.mid_cycle = true;
        if self.queued > 0 {
            self.next.drain_into(&mut self.due);
            self.queued = 0;
        }
        // Wakes pending from host activity or earlier cycles. A woken
        // component may tick a no-op (its new input might not be visible
        // yet) — exactly what the naive loop does.
        while let Some(idx) = self.pop_wake() {
            self.due.insert(idx);
        }
        // Heap-scheduled components due now (stale entries discarded).
        while let Some(&Reverse((at, idx))) = self.heap.peek() {
            if at > now {
                break;
            }
            self.heap.pop();
            if self.components[idx].sched_at == at {
                debug_assert_eq!(at, now, "active-set heap missed a scheduled cycle");
                self.due.insert(idx);
            }
        }
        // The always-tick fallback set: naive semantics on every executed
        // cycle.
        for &idx in &self.polled {
            self.due.insert(idx);
        }
        if self.verify_idle {
            self.verify_sleepers();
        }
        // Same-cycle wakes only add indices above the one ticking, so one
        // forward scan of the due set visits every component in order.
        let mut word = 0;
        while let Some(idx) = self.due.pop_from(&mut word) {
            let reg = &mut self.components[idx];
            // The next-cycle set only fills during a cycle from ticked or
            // already-passed components, so no due component is in it.
            debug_assert!(reg.sched_at != now + 1 || !self.next.contains(idx));
            reg.sched_at = Cycle::MAX;
            reg.component.tick(&self.ctx, now);
            self.ticked_component_cycles += 1;
            // Re-arm from the fresh declaration. Polled components skip
            // this: they are swept every executed cycle instead.
            if self.ctx.is_hooked(idx) {
                if let Some(e) = self.components[idx].component.next_event(&self.ctx, now) {
                    self.schedule(idx, e.max(now + 1));
                }
            }
            // Same-cycle wake rule: a send (or freed slot) from the
            // component that just ticked is observable, this cycle, only
            // to components the naive loop ticks *after* it; everyone
            // else sees the change on the next cycle.
            while let Some(j) = self.pop_wake() {
                if self.due.contains(j) {
                    // Due this cycle and not yet ticked: its own tick and
                    // post-tick re-arm will observe the change.
                    continue;
                }
                if j > idx {
                    self.due.insert(j);
                } else {
                    self.schedule(j, now + 1);
                }
            }
        }
        self.finish_cycle();
    }

    /// Pops one pending wake, clearing its queued flag so later input
    /// changes enqueue the component again.
    #[inline]
    fn pop_wake(&mut self) -> Option<usize> {
        let idx = self.ctx.wake_queue.borrow_mut().pop()?;
        self.ctx.clear_queued(idx);
        Some(idx)
    }

    /// Schedules component `idx` to tick at cycle `at`, unless it is
    /// already scheduled at least as early: into the next-cycle set when
    /// `at` is the next cycle to execute, into the heap otherwise.
    fn schedule(&mut self, idx: usize, at: Cycle) {
        let next_cycle = self.now + Cycle::from(self.mid_cycle);
        let reg = &mut self.components[idx];
        if at >= reg.sched_at {
            return;
        }
        reg.sched_at = at;
        debug_assert!(at >= next_cycle, "scheduled before the next cycle");
        if at == next_cycle {
            if self.next.insert(idx) {
                self.queued += 1;
            }
        } else {
            self.heap.push(Reverse((at, idx)));
        }
    }

    /// The earliest cycle at which component `idx` may act, per its
    /// current `next_event` declaration (evaluated between cycles).
    /// `None` = idle until an input changes.
    fn component_event_base(&self, idx: usize) -> Option<Cycle> {
        let reg = &self.components[idx];
        if reg.added_at == self.now {
            // Never skip a component's first tick: it has not yet had a
            // chance to declare anything.
            return Some(self.now);
        }
        // Stale or self-referential declarations clamp to the next cycle
        // (no skipping for this component).
        reg.component
            .next_event(&self.ctx, self.now - 1)
            .map(|e| e.max(self.now))
    }

    /// Rebuilds the active-set heap from scratch by re-querying every
    /// hook-covered component (used when switching into active-set mode).
    fn rebuild_schedule(&mut self) {
        self.heap.clear();
        self.next.clear();
        self.queued = 0;
        for idx in 0..self.components.len() {
            self.components[idx].sched_at = Cycle::MAX;
        }
        self.rearm_hooked();
    }

    /// Re-examines every hook-covered component, called at the start of
    /// each public run entry point. Host code may mutate component state
    /// directly through a [`Shared`] handle between runs — no channel
    /// send, so no hook fires; this bounds that blind spot to one
    /// `next_event` query per component per *call* rather than per cycle.
    fn rearm_hooked(&mut self) {
        if !self.event_driven {
            return;
        }
        for idx in 0..self.components.len() {
            if self.ctx.is_hooked(idx) {
                if let Some(base) = self.component_event_base(idx) {
                    self.schedule(idx, base);
                }
            }
        }
    }

    /// Debug conservatism check (see [`Simulation::set_verify_idle`]):
    /// panics if a component that is *not* due on the cycle about to
    /// execute freshly reports work at or before it.
    fn verify_sleepers(&self) {
        let now = self.now;
        for idx in 0..self.components.len() {
            if self.due.contains(idx) || !self.ctx.is_hooked(idx) {
                continue;
            }
            if let Some(base) = self.component_event_base(idx) {
                assert!(
                    base > now,
                    "conservatism violation: sleeping component '{}' (index {idx}) reports \
                     work at cycle {base} <= {now} without having been woken; its wake-hook \
                     coverage (Component::register_wakes) misses an input, or an earlier \
                     next_event declaration was broken",
                    self.components[idx].component.name(),
                );
            }
        }
    }

    /// Debug conservatism check for fast-forward jumps: a sleeping
    /// hook-covered component whose fresh declaration places work inside
    /// the about-to-be-skipped gap `[now, target)` means its hooks missed
    /// an input change (the active-set horizon trusted a stale `None`).
    fn verify_skip(&self, target: Cycle) {
        if !self.verify_idle || !self.event_driven {
            return;
        }
        for idx in 0..self.components.len() {
            let reg = &self.components[idx];
            if !self.ctx.is_hooked(idx) || reg.sched_at != Cycle::MAX {
                continue;
            }
            if let Some(base) = self.component_event_base(idx) {
                assert!(
                    base >= target,
                    "conservatism violation: sleeping component '{}' (index {idx}) reports \
                     work at cycle {base} inside the quiescent gap {}..{target} the scheduler \
                     is about to skip; its wake-hook coverage (Component::register_wakes) \
                     misses an input, or an earlier next_event declaration was broken",
                    reg.component.name(),
                    self.now,
                );
            }
        }
    }

    /// Cycles executed in full so far (the scheduler's "ticked" perf
    /// counter; see also [`Simulation::skipped_cycles`]).
    pub fn executed_cycles(&self) -> Cycle {
        self.executed_cycles
    }

    /// Cycles fast-forwarded across without execution. Zero under the
    /// naive scheduler; `executed_cycles + skipped_cycles` always equals
    /// the total cycles elapsed since construction.
    pub fn skipped_cycles(&self) -> Cycle {
        self.skipped_cycles
    }

    /// Component ticks actually executed so far, in any mode.
    pub fn ticked_component_cycles(&self) -> Cycle {
        self.ticked_component_cycles
    }

    /// Component ticks the naive loop would have executed by now: the sum
    /// over components of the cycles since their registration. The
    /// ratio `ticked / registered` is the per-component analogue of
    /// `executed / (executed + skipped)` cycles — under naive the two
    /// counts are equal; the active-set scheduler's win is the gap.
    pub fn registered_component_cycles(&self) -> Cycle {
        self.components
            .iter()
            .map(|reg| self.now - reg.added_at)
            .sum()
    }

    /// The earliest cycle at which any component or wake source may be
    /// active. Returns `self.now` as soon as one is active *this* cycle
    /// (the common dense case short-circuits after one query), and
    /// `Cycle::MAX` if everything is idle indefinitely.
    fn earliest_event(&mut self) -> Cycle {
        let components = self.active_component_horizon();
        if components <= self.now {
            return self.now;
        }
        components.min(self.ctx.ready_horizon()).max(self.now)
    }

    /// Active-set component horizon: pending wakes are folded into the
    /// schedule, then the answer is `now` if the next-cycle set is
    /// non-empty, else the earliest live heap entry, combined with a
    /// re-query of the polled fallback set only — sleeping hook-covered
    /// components cost nothing here.
    fn active_component_horizon(&mut self) -> Cycle {
        while let Some(idx) = self.pop_wake() {
            self.schedule(idx, self.now);
        }
        if self.queued > 0 {
            return self.now;
        }
        let mut earliest = Cycle::MAX;
        while let Some(&Reverse((at, idx))) = self.heap.peek() {
            if self.components[idx].sched_at == at {
                earliest = at;
                break;
            }
            self.heap.pop();
        }
        if earliest <= self.now {
            return self.now;
        }
        for i in 0..self.polled.len() {
            let idx = self.polled[i];
            if let Some(base) = self.component_event_base(idx) {
                if base <= self.now {
                    return self.now;
                }
                earliest = earliest.min(base);
            }
        }
        earliest
    }

    /// Fast-forwards the clock to `target` without executing ticks
    /// (active-set mode only). Sound only when every tick in
    /// `[now, target)` is a proven no-op.
    fn skip_to(&mut self, target: Cycle) {
        debug_assert!(target > self.now);
        self.skipped_cycles += target - self.now;
        self.now = target;
    }

    /// Runs for `cycles` cycles, fast-forwarding across quiescent gaps
    /// when event-driven scheduling is enabled.
    pub fn run_for(&mut self, cycles: Cycle) {
        self.rearm_hooked();
        let end = self.now.saturating_add(cycles);
        while self.now < end {
            if self.event_driven {
                let earliest = self.earliest_event();
                if earliest > self.now {
                    let target = earliest.min(end);
                    self.verify_skip(target);
                    self.skip_to(target);
                    continue;
                }
            }
            self.execute_cycle();
        }
    }
    /// Runs until `done(&sim)` returns true or `max_cycles` elapse,
    /// whichever is first. Returns `Ok(cycles_elapsed)` on completion and
    /// `Err(max_cycles)` on timeout. `done` is evaluated between cycles
    /// and receives the simulation itself, through which it can read
    /// component state ([`Simulation::get`]) and channels
    /// (`rx.has_data(sim.ctx(), sim.now())`).
    pub fn run_until(
        &mut self,
        max_cycles: Cycle,
        done: impl FnMut(&Simulation) -> bool,
    ) -> Result<Cycle, Cycle> {
        self.run_until_strided(max_cycles, 1, done)
    }

    /// [`Simulation::run_until`] with the completion check amortised: `done`
    /// is evaluated before the first cycle, then after every `stride`
    /// executed cycles, before every fast-forward jump, and once at the
    /// timeout.
    ///
    /// With `stride == 1` this is exactly `run_until`. A larger stride
    /// reduces host overhead for expensive predicates, at the cost of
    /// possibly observing completion up to `stride - 1` executed cycles
    /// late — the returned elapsed count is still exact whenever completion
    /// is signalled by a [watched](Simulation::watch_receiver) channel or
    /// coincides with the system going quiescent (a forced check fires on
    /// the first such cycle), which is the common shape for "run until
    /// this response arrives" loops.
    ///
    /// `done` should be a function of component state and
    /// [watched](Simulation::watch_receiver) channels; consulting an
    /// unwatched channel's visibility clock from `done` may observe
    /// fast-forwarded time.
    ///
    /// ## Strides never race wakes
    ///
    /// A stride larger than the gap to the first wake cannot observe
    /// completion on a different cycle than `stride == 1` would, in either
    /// scheduler mode: predicate-visible state is only mutated by
    /// component `tick`s (and by `done` itself), never during a
    /// fast-forward jump, and the cycles at which `done` can first turn
    /// true are exactly the cycles a watched channel or quiescence forces
    /// a check on. Between those forced checks the predicate's value
    /// cannot change, so skipping it there is unobservable. The
    /// `strided_run_until_*` tests pin this down.
    pub fn run_until_strided(
        &mut self,
        max_cycles: Cycle,
        stride: Cycle,
        mut done: impl FnMut(&Simulation) -> bool,
    ) -> Result<Cycle, Cycle> {
        assert!(stride > 0, "stride must be nonzero");
        self.rearm_hooked();
        let start = self.now;
        let end = start.saturating_add(max_cycles);
        // Counts executed cycles since `done` last ran; starting at
        // `stride` forces the same up-front check the naive loop does.
        let mut since_check = stride;
        loop {
            if self.now >= end {
                return if done(self) {
                    Ok(self.now - start)
                } else {
                    Err(max_cycles)
                };
            }
            // A due wake source means the host may be able to react right
            // now (e.g. a watched response just became visible): force a
            // `done` check regardless of the stride, in every scheduler
            // mode, so strided results do not depend on the mode.
            let watch_due = self.ctx.ready_horizon() <= self.now;
            let jump_target = if self.event_driven {
                let e = self.earliest_event();
                (e > self.now).then(|| e.min(end))
            } else {
                None
            };
            if since_check >= stride || watch_due || (jump_target.is_some() && since_check > 0) {
                if done(self) {
                    return Ok(self.now - start);
                }
                since_check = 0;
                if jump_target.is_some() {
                    // `done` may have mutated host-visible state (e.g.
                    // drained a watched channel), so the horizon computed
                    // above is stale; recompute before jumping.
                    continue;
                }
            }
            match jump_target {
                Some(target) => {
                    self.verify_skip(target);
                    self.skip_to(target);
                }
                None => {
                    self.execute_cycle();
                    since_check += 1;
                }
            }
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("components", &self.components.len())
            .field("event_driven", &self.event_driven)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        ticks: u64,
    }

    impl Component for Counter {
        fn tick(&mut self, _ctx: &SimCtx, _now: Cycle) {
            self.ticks += 1;
        }
    }

    #[test]
    fn simulation_is_send() {
        fn _assert_send<T: Send>() {}
        _assert_send::<Simulation>();
        // And prove it dynamically: build on this thread, run on another.
        let mut sim = Simulation::new();
        let c = sim.add_shared(Counter { ticks: 0 });
        let handle = std::thread::spawn(move || {
            sim.run_for(10);
            (sim.now(), sim.get(c).ticks)
        });
        assert_eq!(handle.join().unwrap(), (10, 10));
    }

    #[test]
    fn step_ticks_all_components() {
        let mut sim = Simulation::new();
        let a = sim.add_shared(Counter { ticks: 0 });
        let b = sim.add_shared(Counter { ticks: 0 });
        sim.run_for(10);
        assert_eq!(sim.get(a).ticks, 10);
        assert_eq!(sim.get(b).ticks, 10);
        assert_eq!(sim.now(), 10);
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let mut sim = Simulation::new();
        let c = sim.add_shared(Counter { ticks: 0 });
        let elapsed = sim
            .run_until(1000, move |sim| sim.get(c).ticks >= 7)
            .unwrap();
        assert_eq!(elapsed, 7);
        assert_eq!(sim.get(c).ticks, 7);
    }

    #[test]
    fn run_until_times_out() {
        let mut sim = Simulation::new();
        sim.add(Counter { ticks: 0 });
        assert_eq!(sim.run_until(5, |_| false), Err(5));
    }

    #[test]
    #[should_panic(expected = "different Simulation")]
    fn shared_handle_cross_sim_use_is_caught() {
        let mut a = Simulation::new();
        let b = Simulation::new();
        let h = a.add_shared(Counter { ticks: 0 });
        let _ = b.get(h);
    }

    struct Pipe {
        rx: Receiver<u64>,
        tx: Sender<u64>,
    }

    impl Component for Pipe {
        fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
            if self.tx.can_send(ctx) {
                if let Some(v) = self.rx.recv(ctx, now) {
                    self.tx.send(ctx, now, v + 1);
                }
            }
        }
    }

    #[test]
    fn chained_pipes_accumulate_latency() {
        // Three pipe stages each add a +1 and a cycle of channel latency.
        let mut sim = Simulation::new();
        let (tx0, rx0) = sim.channel::<u64>(1);
        let (tx1, rx1) = sim.channel::<u64>(1);
        let (tx2, rx2) = sim.channel::<u64>(1);
        let (tx3, rx3) = sim.channel::<u64>(1);
        sim.add(Pipe { rx: rx0, tx: tx1 });
        sim.add(Pipe { rx: rx1, tx: tx2 });
        sim.add(Pipe { rx: rx2, tx: tx3 });
        tx0.send(sim.ctx(), 0, 100);
        let mut result = None;
        for _ in 0..20 {
            sim.step();
            if let Some(v) = rx3.recv(sim.ctx(), sim.now()) {
                result = Some((v, sim.now()));
                break;
            }
        }
        let (v, cycle) = result.expect("value should traverse the pipeline");
        assert_eq!(v, 103);
        assert!(
            cycle >= 3,
            "three stages imply at least three cycles, got {cycle}"
        );
    }

    #[test]
    fn empty_sim_is_empty() {
        let sim = Simulation::new();
        assert!(sim.is_empty());
        assert_eq!(sim.len(), 0);
    }

    /// Ticks only every `period`-th cycle and proves it via
    /// `next_event`, so the scheduler can skip the gaps.
    struct Burster {
        period: u64,
        fires: u64,
        tick_log: Vec<Cycle>,
    }

    impl Component for Burster {
        fn tick(&mut self, _ctx: &SimCtx, now: Cycle) {
            if now.is_multiple_of(self.period) {
                self.fires += 1;
                self.tick_log.push(now);
            }
        }

        fn next_event(&self, _ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
            Some(now + (self.period - now % self.period))
        }
    }

    #[test]
    fn fast_forward_matches_naive_fires_and_now() {
        let run = |event_driven: bool| {
            let mut sim = Simulation::new();
            sim.set_event_driven(event_driven);
            let b = sim.add_shared(Burster {
                period: 97,
                fires: 0,
                tick_log: Vec::new(),
            });
            sim.run_for(1000);
            (sim.now(), sim.get(b).fires, sim.get(b).tick_log.clone())
        };
        let naive = run(false);
        let fast = run(true);
        assert_eq!(naive, fast);
        assert_eq!(fast.0, 1000);
        assert_eq!(fast.1, 11); // cycles 0, 97, ..., 970
    }

    /// Sends one value after `delay` cycles, then goes idle forever.
    struct OneShot {
        tx: Sender<u64>,
        delay: Cycle,
        sent: bool,
    }

    impl Component for OneShot {
        fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
            if now == self.delay && !self.sent {
                self.tx.send(ctx, now, now);
                self.sent = true;
            }
        }

        fn next_event(&self, _ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
            if self.sent {
                None
            } else {
                Some(self.delay.max(now + 1))
            }
        }
    }

    #[test]
    fn watched_receiver_bounds_fast_forward() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u64>(1);
        sim.add(OneShot {
            tx,
            delay: 40,
            sent: false,
        });
        sim.watch_receiver(&rx, 0);
        let elapsed = sim
            .run_until(10_000, move |sim| rx.has_data(sim.ctx(), 41))
            .expect("value should arrive");
        // Sent at 40, visible at 41: identical to the naive loop's answer.
        assert_eq!(elapsed, 41);
        assert_eq!(rx.recv(sim.ctx(), sim.now()), Some(40));
    }

    #[test]
    fn drained_watch_source_stops_bounding_fast_forward() {
        let mut sim = Simulation::new();
        sim.set_event_driven(true);
        let (tx, rx) = sim.channel::<u64>(1);
        sim.add(OneShot {
            tx,
            delay: 40,
            sent: false,
        });
        sim.watch_receiver(&rx, 0);
        sim.run_until(10_000, move |sim| rx.has_data(sim.ctx(), sim.now()))
            .expect("value should arrive");
        assert_eq!(rx.recv(sim.ctx(), sim.now()), Some(40));
        // Nothing is left to happen: the drained channel must not pin the
        // scheduler to executing cycles.
        let executed = sim.executed_cycles();
        sim.run_for(1_000_000);
        assert!(
            sim.executed_cycles() - executed <= 1,
            "a drained watched channel kept bounding fast-forward"
        );
    }

    #[test]
    fn unwatched_idle_sim_skips_to_horizon() {
        let mut sim = Simulation::new();
        let (tx, _rx) = sim.channel::<u64>(1);
        sim.add(OneShot {
            tx,
            delay: 3,
            sent: false,
        });
        sim.run_for(1_000_000);
        assert_eq!(sim.now(), 1_000_000);
    }

    #[test]
    fn strided_run_until_returns_same_elapsed_count() {
        // Completion coincides with the system going quiescent, so every
        // stride returns the identical elapsed-cycle count.
        let run = |stride: Cycle| {
            let mut sim = Simulation::new();
            let (tx, rx) = sim.channel::<u64>(1);
            sim.add(OneShot {
                tx,
                delay: 523,
                sent: false,
            });
            sim.watch_receiver(&rx, 0);
            sim.run_until_strided(100_000, stride, move |sim| {
                rx.has_data(sim.ctx(), sim.now())
            })
            .expect("value should arrive")
        };
        let baseline = run(1);
        assert_eq!(baseline, 524);
        for stride in [2, 7, 64, 1000] {
            assert_eq!(
                run(stride),
                baseline,
                "stride {stride} changed the elapsed count"
            );
        }
    }

    #[test]
    fn shared_name_reports_wrapped_component() {
        struct Named;
        impl Component for Named {
            fn tick(&mut self, _ctx: &SimCtx, _now: Cycle) {}
            fn name(&self) -> &str {
                "alu0"
            }
        }
        let mut sim = Simulation::new();
        sim.add_shared(Named);
        assert_eq!(sim.components[0].component.name(), "alu0");
    }

    #[test]
    fn bsim_naive_env_disables_fast_forward() {
        // Save and clear the scheduler env so this test is meaningful even
        // when the whole suite runs under BSIM_NAIVE=1 (the CI
        // naive-oracle leg does exactly that).
        let saved_naive = std::env::var("BSIM_NAIVE").ok();
        std::env::remove_var("BSIM_NAIVE");
        assert!(
            Simulation::new().event_driven(),
            "fast-forward should default on"
        );
        std::env::set_var("BSIM_NAIVE", "1");
        let naive = Simulation::new();
        std::env::set_var("BSIM_NAIVE", "0");
        let zero = Simulation::new();
        match saved_naive {
            Some(v) => std::env::set_var("BSIM_NAIVE", v),
            None => std::env::remove_var("BSIM_NAIVE"),
        }
        assert!(!naive.event_driven());
        assert!(zero.event_driven());
    }

    #[test]
    fn executed_plus_skipped_always_equals_now() {
        let run = |event_driven: bool| {
            let mut sim = Simulation::new();
            sim.set_event_driven(event_driven);
            sim.add(Burster {
                period: 97,
                fires: 0,
                tick_log: Vec::new(),
            });
            sim.run_for(1000);
            (sim.now(), sim.executed_cycles(), sim.skipped_cycles())
        };
        let (now, executed, skipped) = run(false);
        assert_eq!((executed, skipped), (now, 0), "naive mode never skips");
        let (now, executed, skipped) = run(true);
        assert_eq!(executed + skipped, now);
        assert!(skipped > 0, "a period-97 burster must allow skipping");
    }

    #[test]
    fn components_added_mid_run_tick_on_the_simulation_cycle() {
        /// Logs every cycle it ticks on; optionally hooked on an idle
        /// channel, so the active-set scheduler keeps it out of the
        /// polled fallback set.
        struct Late {
            rx: Receiver<u64>,
            hooked: bool,
            ticks: Vec<Cycle>,
        }
        impl Component for Late {
            fn tick(&mut self, _ctx: &SimCtx, now: Cycle) {
                self.ticks.push(now);
            }
            fn register_wakes(&self, ctx: &SimCtx, waker: &Waker) {
                if self.hooked {
                    self.rx.wake_on_send(ctx, waker);
                }
            }
        }
        for hooked in [false, true] {
            let run = |event_driven: bool| {
                let mut sim = Simulation::new();
                sim.set_event_driven(event_driven);
                let (_tx, rx) = sim.channel::<u64>(1);
                // Idle after its first tick, so the active-set run
                // fast-forwards to the registration cycle.
                sim.add(Burster {
                    period: 97,
                    fires: 0,
                    tick_log: Vec::new(),
                });
                sim.run_for(7);
                let late = sim.add_shared(Late {
                    rx,
                    hooked,
                    ticks: Vec::new(),
                });
                assert_eq!(sim.registered_component_cycles(), 7);
                sim.run_for(7);
                (
                    sim.now(),
                    sim.get(late).ticks.clone(),
                    sim.registered_component_cycles(),
                )
            };
            let naive = run(false);
            assert_eq!(naive, run(true), "hooked={hooked}");
            // The late component first ticks on cycle 7 and counts the
            // seven cycles since its registration.
            assert_eq!(naive, (14, (7..14).collect(), 14 + 7), "hooked={hooked}");
        }
    }

    /// A consumer that sleeps (`None`) whenever its input is empty and
    /// registers a wake hook on it — the canonical active-set citizen.
    struct HookedSink {
        rx: Receiver<u64>,
        got: Vec<(Cycle, u64)>,
        ticks: u64,
    }

    impl Component for HookedSink {
        fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
            self.ticks += 1;
            while let Some(v) = self.rx.recv(ctx, now) {
                self.got.push((now, v));
            }
        }

        fn next_event(&self, ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
            self.rx.next_visible_at(ctx).map(|v| v.max(now + 1))
        }

        fn register_wakes(&self, ctx: &SimCtx, waker: &Waker) {
            self.rx.wake_on_send(ctx, waker);
        }
    }

    #[test]
    fn hooked_sink_sleeps_and_wakes_on_send() {
        let run = |event_driven: bool| {
            let mut sim = Simulation::new();
            let (tx, rx) = sim.channel::<u64>(4);
            sim.set_event_driven(event_driven);
            sim.add(OneShot {
                tx,
                delay: 500,
                sent: false,
            });
            let sink = sim.add_shared(HookedSink {
                rx,
                got: Vec::new(),
                ticks: 0,
            });
            sim.run_for(1000);
            (
                sim.now(),
                sim.get(sink).got.clone(),
                sim.get(sink).ticks,
                sim.ticked_component_cycles(),
            )
        };
        let naive = run(false);
        let active = run(true);
        // Observable results are identical...
        assert_eq!(naive.0, active.0);
        assert_eq!(naive.1, active.1);
        assert_eq!(active.1, vec![(501, 500)]);
        // ...but the active-set sink slept through nearly everything: it
        // ticks at most a handful of times (wake at 500, drain at 501),
        // while the naive sink ticked all 1000 cycles.
        assert_eq!(naive.2, 1000);
        assert!(
            active.2 <= 4,
            "hooked sink should sleep while idle, ticked {} times",
            active.2
        );
        assert!(active.3 < naive.3);
    }

    #[test]
    fn ticked_vs_registered_component_cycles() {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u64>(4);
        sim.set_event_driven(true);
        sim.add(OneShot {
            tx,
            delay: 100,
            sent: false,
        });
        sim.add(HookedSink {
            rx,
            got: Vec::new(),
            ticks: 0,
        });
        sim.run_for(1000);
        // Registered = what the naive loop would have run: 2 components x
        // 1000 cycles. Ticked = what actually ran, far less.
        assert_eq!(sim.registered_component_cycles(), 2000);
        assert!(
            sim.ticked_component_cycles() < 20,
            "ticked {} of 2000 component-cycles",
            sim.ticked_component_cycles()
        );
    }

    /// Forwards items with a latency-0 channel so same-cycle wake ordering
    /// is observable: a send from an earlier-indexed producer must be seen
    /// by a later-indexed hooked consumer in the *same* cycle, exactly as
    /// the naive in-order loop would.
    #[test]
    fn same_cycle_wake_matches_naive_ordering() {
        let run = |event_driven: bool, producer_first: bool| {
            let mut sim = Simulation::new();
            let (tx, rx) = sim.channel_with_latency::<u64>(4, 0);
            sim.set_event_driven(event_driven);
            let producer = OneShot {
                tx,
                delay: 50,
                sent: false,
            };
            let sink = HookedSink {
                rx,
                got: Vec::new(),
                ticks: 0,
            };
            let s = if producer_first {
                sim.add(producer);
                sim.add_shared(sink)
            } else {
                let s = sim.add_shared(sink);
                sim.add(producer);
                s
            };
            sim.run_for(200);
            sim.get(s).got.clone()
        };
        for producer_first in [true, false] {
            let naive = run(false, producer_first);
            let active = run(true, producer_first);
            assert_eq!(
                naive, active,
                "same-cycle wake ordering diverged (producer_first={producer_first})"
            );
        }
        // Producer at index 0, sink at index 1: the zero-latency send is
        // observed the same cycle. Reversed registration: one cycle later.
        assert_eq!(run(true, true), vec![(50, 50)]);
        assert_eq!(run(true, false), vec![(51, 50)]);
    }

    #[test]
    fn next_fire_member_woken_by_lower_index_producer_ticks_once() {
        // The sink declares work every cycle, so between cycles it sits
        // in the next-cycle set; at cycle 50 the lower-index
        // producer's zero-latency send wakes it as well. It must tick
        // exactly once that cycle, and see the item, as under naive.
        struct EagerSink {
            rx: Receiver<u64>,
            got: Vec<(Cycle, u64)>,
            ticks: Vec<Cycle>,
        }
        impl Component for EagerSink {
            fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
                self.ticks.push(now);
                while let Some(v) = self.rx.recv(ctx, now) {
                    self.got.push((now, v));
                }
            }
            fn register_wakes(&self, ctx: &SimCtx, waker: &Waker) {
                self.rx.wake_on_send(ctx, waker);
            }
        }
        let run = |event_driven: bool| {
            let mut sim = Simulation::new();
            let (tx, rx) = sim.channel_with_latency::<u64>(4, 0);
            sim.set_event_driven(event_driven);
            sim.add(OneShot {
                tx,
                delay: 50,
                sent: false,
            });
            let sink = sim.add_shared(EagerSink {
                rx,
                got: Vec::new(),
                ticks: Vec::new(),
            });
            sim.run_for(50);
            if event_driven {
                assert!(sim.next.contains(1), "sink waits in the next-cycle set");
                assert_eq!(sim.components[1].sched_at, 50);
            }
            sim.run_for(4);
            (sim.get(sink).got.clone(), sim.get(sink).ticks.clone())
        };
        let naive = run(false);
        let active = run(true);
        assert_eq!(naive, active);
        assert_eq!(active.0, vec![(50, 50)]);
        assert_eq!(
            active.1,
            (0..54).collect::<Vec<Cycle>>(),
            "one tick per cycle"
        );
    }

    #[test]
    fn mode_switching_mid_run_stays_cycle_exact() {
        let sequence = [true, false, true, false];
        let run = |switch: bool| {
            let mut sim = Simulation::new();
            let (tx, rx) = sim.channel::<u64>(4);
            if !switch {
                sim.set_event_driven(false);
            }
            sim.add(OneShot {
                tx,
                delay: 130,
                sent: false,
            });
            let b = sim.add_shared(Burster {
                period: 7,
                fires: 0,
                tick_log: Vec::new(),
            });
            let sink = sim.add_shared(HookedSink {
                rx,
                got: Vec::new(),
                ticks: 0,
            });
            for event_driven in sequence {
                if switch {
                    sim.set_event_driven(event_driven);
                }
                sim.run_for(50);
            }
            (
                sim.now(),
                sim.get(b).tick_log.clone(),
                sim.get(sink).got.clone(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn host_poke_through_shared_handle_rearms_hooked_component() {
        // The sink is hooked (so it heap-sleeps), but the host feeds it
        // through a Shared handle, not a channel: the rearm pass at every
        // run_for/step entry must still pick the work up.
        struct Poked {
            rx: Receiver<u64>,
            pending: u64,
            done: Vec<Cycle>,
        }
        impl Component for Poked {
            fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
                let _ = self.rx.recv(ctx, now);
                if self.pending > 0 {
                    self.pending -= 1;
                    self.done.push(now);
                }
            }
            fn next_event(&self, ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
                if self.pending > 0 {
                    return Some(now + 1);
                }
                self.rx.next_visible_at(ctx).map(|v| v.max(now + 1))
            }
            fn register_wakes(&self, ctx: &SimCtx, waker: &Waker) {
                self.rx.wake_on_send(ctx, waker);
            }
        }
        let mut sim = Simulation::new();
        let (_tx, rx) = sim.channel::<u64>(1);
        sim.set_event_driven(true);
        let p = sim.add_shared(Poked {
            rx,
            pending: 0,
            done: Vec::new(),
        });
        sim.run_for(10);
        assert!(sim.get(p).done.is_empty());
        sim.get_mut(p).pending = 2;
        sim.run_for(10);
        assert_eq!(sim.get(p).done, vec![10, 11]);
        sim.get_mut(p).pending = 1;
        sim.step();
        assert_eq!(sim.get(p).done, vec![10, 11, 20]);
    }

    #[test]
    #[should_panic(expected = "conservatism violation")]
    fn verify_idle_catches_missing_hook() {
        // The sink hooks a decoy channel but its `next_event` depends on
        // `rx` — with the debug verifier on, the first sleeping cycle where
        // `rx` holds work must panic instead of silently diverging.
        struct BadHooks {
            rx: Receiver<u64>,
            decoy: Receiver<u64>,
        }
        impl Component for BadHooks {
            fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
                let _ = self.rx.recv(ctx, now);
            }
            fn next_event(&self, ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
                self.rx.next_visible_at(ctx).map(|v| v.max(now + 1))
            }
            fn register_wakes(&self, ctx: &SimCtx, waker: &Waker) {
                self.decoy.wake_on_send(ctx, waker);
            }
        }
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel::<u64>(4);
        let (_decoy_tx, decoy) = sim.channel::<u64>(4);
        sim.set_event_driven(true);
        sim.set_verify_idle(true);
        sim.add(OneShot {
            tx,
            delay: 5,
            sent: false,
        });
        sim.add(BadHooks { rx, decoy });
        sim.run_for(100);
    }

    #[test]
    fn stride_never_races_a_wake() {
        // Satellite: `done()` through a stride must observe the response on
        // exactly the same cycle in every mode, even when the stride is far
        // larger than the gap to the first wake (send at 3, stride 64).
        let run = |event_driven: bool, stride: Cycle| {
            let mut sim = Simulation::new();
            let (tx, rx) = sim.channel::<u64>(4);
            sim.set_event_driven(event_driven);
            sim.add(OneShot {
                tx,
                delay: 3,
                sent: false,
            });
            sim.watch_receiver(&rx, 0);
            sim.run_until_strided(1000, stride, move |sim| rx.has_data(sim.ctx(), sim.now()))
                .expect("value should arrive")
        };
        let baseline = run(false, 1);
        assert_eq!(baseline, 4, "sent at 3, visible at 4");
        for event_driven in [false, true] {
            for stride in [1, 2, 64, 1000] {
                assert_eq!(
                    run(event_driven, stride),
                    baseline,
                    "event_driven={event_driven} with stride {stride} raced the wake"
                );
            }
        }
    }
}
