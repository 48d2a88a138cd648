//! Property tests for the active-set scheduler: on randomized component
//! graphs — DAGs of producers, forwarding stages, and sinks with random
//! channel latencies/capacities and a random *scheduler flavor* per
//! node — the naive stepper and the active-set scheduler
//! produce bit-identical results: the same final cycle, the same per-item
//! logs (value, arrival cycle), and the same channel totals.
//!
//! The flavors cover every citizenship class the scheduler supports:
//!
//! * `Legacy` — plain `tick`, default `next_event` (`Some(now + 1)`), no
//!   hooks: lives in the always-tick polled fallback set and suppresses
//!   fast-forward entirely.
//! * `Aware` — honest `next_event`, no hooks: polled fallback set, but its
//!   declarations extend the fast-forward horizon.
//! * `Hooked` — `next_event` plus `wake_on_send` hooks on every input:
//!   heap-scheduled, sleeps between events.
//! * `HookedSleepy` — additionally sleeps (`None`) while output-blocked,
//!   relying on a `wake_on_recv` hook on its output channel.
//!
//! The active-set run additionally enables the debug conservatism checker
//! ([`Simulation::set_verify_idle`]), so any missing-wake hole on any
//! random graph panics instead of silently diverging.
//!
//! A second property runs graphs of 60–140 nodes, so the scheduler's
//! per-component bitsets span several 64-bit words, and switches the
//! active-set run to naive and back mid-run.

use bsim::{ChannelState, Component, Cycle, Receiver, Sender, Shared, SimCtx, Simulation, Waker};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavor {
    Legacy,
    Aware,
    Hooked,
    HookedSleepy,
}

/// One graph node. With no inputs it produces `items` sequence numbers on
/// a fixed period; otherwise it forwards items from its inputs (holding
/// each for `delay` cycles) to its output, or just logs them if it
/// is a sink (no output).
struct Node {
    flavor: Flavor,
    inputs: Vec<Receiver<u64>>,
    tx: Option<Sender<u64>>,
    // Producer state.
    period: u64,
    items: u64,
    sent: u64,
    // Stage state.
    delay: u64,
    holding: Option<(u64, Cycle)>,
    /// Every item this node accepted, with its arrival cycle.
    log: Vec<(u64, Cycle)>,
}

impl Node {
    fn producer_due(&self, now: Cycle) -> bool {
        !self.inputs.is_empty() || self.sent >= self.items || now < self.sent * self.period
    }

    fn quiescent(&self, ctx: &SimCtx) -> bool {
        (!self.inputs.is_empty() || self.sent == self.items)
            && self.holding.is_none()
            && self.inputs.iter().all(|rx| rx.state(ctx).occupancy == 0)
    }
}

impl Component for Node {
    fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
        // Producer role: emit the next sequence number when due.
        if self.inputs.is_empty() && self.sent < self.items && now >= self.sent * self.period {
            if let Some(tx) = &self.tx {
                if tx.can_send(ctx) {
                    tx.send(ctx, now, self.sent);
                    self.sent += 1;
                }
            }
        }
        // Stage role: release the held item once its delay has elapsed.
        if let Some((v, ready_at)) = self.holding {
            if now >= ready_at {
                if let Some(tx) = &self.tx {
                    if tx.can_send(ctx) {
                        tx.send(ctx, now, v);
                        self.holding = None;
                    }
                }
            }
        }
        // Accept at most one new item per tick (sinks drain greedily).
        if self.holding.is_none() && !self.inputs.is_empty() {
            if self.tx.is_none() {
                for rx in &self.inputs {
                    while let Some(v) = rx.recv(ctx, now) {
                        self.log.push((v, now));
                    }
                }
            } else {
                for rx in &self.inputs {
                    if let Some(v) = rx.recv(ctx, now) {
                        self.log.push((v, now));
                        self.holding = Some((v, now + self.delay));
                        break;
                    }
                }
            }
        }
    }

    fn next_event(&self, ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
        if self.flavor == Flavor::Legacy {
            return Some(now + 1);
        }
        let mut wake: Option<Cycle> = None;
        let mut consider = |e: Option<Cycle>| {
            if let Some(e) = e {
                let e = e.max(now + 1);
                wake = Some(wake.map_or(e, |w: Cycle| w.min(e)));
            }
        };
        if self.inputs.is_empty() && self.sent < self.items {
            if self.producer_due(now) {
                consider(Some(self.sent * self.period));
            } else if self.tx.as_ref().is_some_and(|tx| tx.can_send(ctx)) {
                consider(Some(now + 1));
            } else if self.flavor != Flavor::HookedSleepy {
                // Output-blocked: stay awake and retry (Sleepy instead
                // sleeps on its wake_on_recv hook).
                consider(Some(now + 1));
            }
        }
        match self.holding {
            Some((_, ready_at)) if ready_at > now => consider(Some(ready_at)),
            Some(_) => {
                if self.tx.as_ref().is_some_and(|tx| tx.can_send(ctx))
                    || self.flavor != Flavor::HookedSleepy
                {
                    consider(Some(now + 1));
                }
            }
            None => {
                for rx in &self.inputs {
                    consider(rx.next_visible_at(ctx));
                }
            }
        }
        wake
    }

    fn register_wakes(&self, ctx: &SimCtx, waker: &Waker) {
        match self.flavor {
            Flavor::Legacy | Flavor::Aware => {}
            Flavor::Hooked | Flavor::HookedSleepy => {
                for rx in &self.inputs {
                    rx.wake_on_send(ctx, waker);
                }
                if self.flavor == Flavor::HookedSleepy {
                    if let Some(tx) = &self.tx {
                        tx.wake_on_recv(ctx, waker);
                    }
                }
            }
        }
    }
}

/// One randomized graph node description. `parent_raw % i` picks an input
/// edge from an earlier node (making the graph a DAG by construction).
#[derive(Debug, Clone)]
struct NodeSpec {
    flavor: Flavor,
    period: u64,
    items: u64,
    delay: u64,
    latency: u64,
    capacity: usize,
    parent_raw: usize,
    /// Whether to also attach a second input edge (`second_raw % i`).
    second_edge: bool,
    second_raw: usize,
}

fn flavor_strategy() -> impl Strategy<Value = Flavor> {
    prop_oneof![
        1 => Just(Flavor::Legacy),
        2 => Just(Flavor::Aware),
        3 => Just(Flavor::Hooked),
        2 => Just(Flavor::HookedSleepy),
    ]
}

fn node_strategy() -> impl Strategy<Value = NodeSpec> {
    (
        (flavor_strategy(), 1u64..48, 1u64..12),
        (0u64..24, 0u64..5, 1usize..5),
        (any::<usize>(), any::<bool>(), any::<usize>()),
    )
        .prop_map(
            |(
                (flavor, period, items),
                (delay, latency, capacity),
                (parent_raw, second_edge, second_raw),
            )| NodeSpec {
                flavor,
                period,
                items,
                delay,
                latency,
                capacity,
                parent_raw,
                second_edge,
                second_raw,
            },
        )
}

/// Builds the graph in `sim`. Node `i > 0` reads from `parent(i) < i`
/// (and maybe one more earlier node), any earlier node. Node 0 is the
/// producer; nodes nobody reads from are sinks (no output channel).
fn build(sim: &mut Simulation, specs: &[NodeSpec]) -> Vec<Shared<Node>> {
    let n = specs.len();
    // Edge list: (from, to) with from < to.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (i, spec) in specs.iter().enumerate().skip(1) {
        edges.push((spec.parent_raw % i, i));
        if spec.second_edge {
            let from = spec.second_raw % i;
            if !edges.contains(&(from, i)) {
                edges.push((from, i));
            }
        }
    }
    // One output channel per node that has at least one reader; its
    // receiver is copied per child (children steal work deterministically
    // in tick order, identically in every scheduler mode).
    let mut txs: Vec<Option<Sender<u64>>> = Vec::with_capacity(n);
    let mut rxs: Vec<Option<Receiver<u64>>> = Vec::with_capacity(n);
    for (i, spec) in specs.iter().enumerate() {
        if edges.iter().any(|&(from, _)| from == i) {
            let (tx, rx) = sim.channel_with_latency::<u64>(spec.capacity, spec.latency);
            txs.push(Some(tx));
            rxs.push(Some(rx));
        } else {
            txs.push(None);
            rxs.push(None);
        }
    }
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let inputs: Vec<Receiver<u64>> = edges
                .iter()
                .filter(|&&(_, to)| to == i)
                .map(|&(from, _)| rxs[from].expect("edge source has a channel"))
                .collect();
            sim.add_shared(Node {
                flavor: spec.flavor,
                inputs,
                tx: txs[i].take(),
                period: spec.period,
                items: spec.items,
                sent: 0,
                delay: spec.delay,
                holding: None,
                log: Vec::new(),
            })
        })
        .collect()
}

/// Everything observable about a graph, for cross-scheduler comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observation {
    now: Cycle,
    sent: Vec<u64>,
    holding: Vec<Option<(u64, Cycle)>>,
    logs: Vec<Vec<(u64, Cycle)>>,
    channels: Vec<Option<ChannelState>>,
}

fn observe(sim: &Simulation, nodes: &[Shared<Node>]) -> Observation {
    Observation {
        now: sim.now(),
        sent: nodes.iter().map(|n| sim.get(*n).sent).collect(),
        holding: nodes.iter().map(|n| sim.get(*n).holding).collect(),
        logs: nodes.iter().map(|n| sim.get(*n).log.clone()).collect(),
        channels: nodes
            .iter()
            .map(|n| sim.get(*n).tx.as_ref().map(|tx| tx.state(sim.ctx())))
            .collect(),
    }
}

fn quiescent(sim: &Simulation, nodes: &[Shared<Node>]) -> bool {
    nodes.iter().all(|n| sim.get(*n).quiescent(sim.ctx()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn schedulers_are_cycle_exact_on_random_graphs(
        specs in proptest::collection::vec(node_strategy(), 2..7),
        warmup in 0u64..200,
    ) {
        let mut sims: Vec<Simulation> = [false, true]
            .into_iter()
            .map(|event_driven| {
                let mut sim = Simulation::new();
                sim.set_event_driven(event_driven);
                if event_driven {
                    // Panic on any wake-coverage hole the random graph finds.
                    sim.set_verify_idle(true);
                }
                sim
            })
            .collect();
        let graphs: Vec<Vec<Shared<Node>>> =
            sims.iter_mut().map(|sim| build(sim, &specs)).collect();

        // Phase 1: a fixed-length run (exercises `run_for` fast-forward).
        for sim in &mut sims {
            sim.run_for(warmup);
        }
        let baseline = observe(&sims[0], &graphs[0]);
        for (sim, nodes) in sims.iter().zip(&graphs).skip(1) {
            prop_assert_eq!(&baseline, &observe(sim, nodes));
        }

        // Phase 2: single-step through a few cycles (exercises `step`).
        for _ in 0..3 {
            for sim in &mut sims {
                sim.step();
            }
        }
        let baseline = observe(&sims[0], &graphs[0]);
        for (sim, nodes) in sims.iter().zip(&graphs).skip(1) {
            prop_assert_eq!(&baseline, &observe(sim, nodes));
        }

        // Phase 3: run until the graph fully drains (exercises the
        // `run_until` jump path); elapsed counts must agree exactly.
        let max = 500_000;
        let elapsed: Vec<Result<Cycle, Cycle>> = sims
            .iter_mut()
            .zip(&graphs)
            .map(|(sim, nodes)| {
                let nodes = nodes.clone();
                sim.run_until(max, move |sim| quiescent(sim, &nodes))
            })
            .collect();
        prop_assert_eq!(elapsed[0], elapsed[1]);
        prop_assert!(
            elapsed[0].is_ok(),
            "graph must drain within {} cycles; specs: {:?}; obs: {:?}",
            max,
            &specs,
            observe(&sims[0], &graphs[0])
        );
        let baseline = observe(&sims[0], &graphs[0]);
        for (sim, nodes) in sims.iter().zip(&graphs).skip(1) {
            prop_assert_eq!(&baseline, &observe(sim, nodes));
        }

        // Scheduler-economics invariants: the registered (naive-equivalent)
        // component-cycle count is mode-invariant; the naive scheduler
        // ticks exactly that much; no scheduler ticks more.
        let registered: Vec<Cycle> =
            sims.iter().map(Simulation::registered_component_cycles).collect();
        prop_assert_eq!(registered[0], registered[1]);
        prop_assert_eq!(sims[0].ticked_component_cycles(), registered[0]);
        for sim in &sims {
            prop_assert!(sim.ticked_component_cycles() <= registered[0]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn schedulers_are_cycle_exact_on_large_graphs(
        specs in proptest::collection::vec(node_strategy(), 60..140),
        warmup in 0u64..300,
        naive_leg in 1u64..64,
    ) {
        // The oracle runs naive throughout; the subject runs active-set
        // with the conservatism checker, except for one naive leg.
        let mut oracle = Simulation::new();
        oracle.set_event_driven(false);
        let mut subject = Simulation::new();
        subject.set_event_driven(true);
        subject.set_verify_idle(true);
        let oracle_nodes = build(&mut oracle, &specs);
        let subject_nodes = build(&mut subject, &specs);

        oracle.run_for(warmup);
        subject.run_for(warmup);
        prop_assert_eq!(observe(&oracle, &oracle_nodes), observe(&subject, &subject_nodes));

        // Mid-run switch: naive for a leg, then back to active-set, which
        // rebuilds its schedule from fresh declarations.
        subject.set_event_driven(false);
        oracle.run_for(naive_leg);
        subject.run_for(naive_leg);
        subject.set_event_driven(true);
        prop_assert_eq!(observe(&oracle, &oracle_nodes), observe(&subject, &subject_nodes));

        for _ in 0..5 {
            oracle.step();
            subject.step();
        }
        prop_assert_eq!(observe(&oracle, &oracle_nodes), observe(&subject, &subject_nodes));

        let max = 500_000;
        let drained = |sim: &mut Simulation, nodes: &[Shared<Node>]| {
            let nodes = nodes.to_vec();
            sim.run_until(max, move |sim| quiescent(sim, &nodes))
        };
        let elapsed = drained(&mut oracle, &oracle_nodes);
        prop_assert!(elapsed.is_ok(), "graph must drain within {} cycles", max);
        prop_assert_eq!(elapsed, drained(&mut subject, &subject_nodes));
        prop_assert_eq!(observe(&oracle, &oracle_nodes), observe(&subject, &subject_nodes));
        prop_assert_eq!(
            oracle.registered_component_cycles(),
            subject.registered_component_cycles()
        );
        prop_assert!(subject.ticked_component_cycles() <= oracle.ticked_component_cycles());
    }
}
