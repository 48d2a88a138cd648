//! Property tests pinning the tentpole guarantee of the event-aware
//! scheduler: on randomized pipelines — producer → stage → sink chains with
//! random channel latencies, capacities and processing delays, several
//! side by side in one simulation — the event-driven driver produces
//! *bit-identical* results to the naive cycle-by-cycle stepper:
//! the same final cycle, the same per-item delivery cycles, and the same
//! channel totals.

use bsim::{ChannelState, Component, Cycle, Receiver, Sender, Shared, SimCtx, Simulation};
use proptest::prelude::*;

/// Emits sequence numbers on a fixed period (item `i` becomes due at cycle
/// `i * period`), retrying every cycle while the channel is full.
struct Producer {
    tx: Sender<u64>,
    period: u64,
    items: u64,
    sent: u64,
}

impl Producer {
    fn due(&self, now: Cycle) -> bool {
        self.sent < self.items && now >= self.sent * self.period
    }
}

impl Component for Producer {
    fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
        if self.due(now) && self.tx.can_send(ctx) {
            self.tx.send(ctx, now, self.sent);
            self.sent += 1;
        }
    }

    fn next_event(&self, _ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
        if self.sent == self.items {
            return None;
        }
        if self.due(now) {
            // Blocked on a full channel; freeing it is not observable
            // through any receiver of ours, so stay awake.
            return Some(now + 1);
        }
        Some(self.sent * self.period)
    }
}

/// Holds one item for `delay` cycles, then forwards it.
struct Stage {
    rx: Receiver<u64>,
    tx: Sender<u64>,
    delay: u64,
    holding: Option<(u64, Cycle)>,
}

impl Component for Stage {
    fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
        if let Some((v, ready_at)) = self.holding {
            if now >= ready_at && self.tx.can_send(ctx) {
                self.tx.send(ctx, now, v);
                self.holding = None;
            }
        }
        if self.holding.is_none() {
            if let Some(v) = self.rx.recv(ctx, now) {
                self.holding = Some((v, now + self.delay));
            }
        }
    }

    fn next_event(&self, ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
        match self.holding {
            Some((_, ready_at)) => Some(ready_at.max(now + 1)),
            None => self.rx.next_visible_at(ctx).map(|v| v.max(now + 1)),
        }
    }
}

/// Records every delivered item with the cycle it arrived on.
struct Sink {
    rx: Receiver<u64>,
    received: Vec<(u64, Cycle)>,
}

impl Component for Sink {
    fn tick(&mut self, ctx: &SimCtx, now: Cycle) {
        while let Some(v) = self.rx.recv(ctx, now) {
            self.received.push((v, now));
        }
    }

    fn next_event(&self, ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
        self.rx.next_visible_at(ctx).map(|v| v.max(now + 1))
    }
}

/// One randomized pipeline; several run side by side in one simulation.
#[derive(Debug, Clone)]
struct PipelineSpec {
    period: u64,
    items: u64,
    latency: u64,
    capacity: usize,
    delay: u64,
}

fn pipeline_strategy() -> impl Strategy<Value = PipelineSpec> {
    (1u64..48, 1u64..12, 0u64..5, 1usize..5, 0u64..24).prop_map(
        |(period, items, latency, capacity, delay)| PipelineSpec {
            period,
            items,
            latency,
            capacity,
            delay,
        },
    )
}

struct BuiltPipeline {
    producer: Shared<Producer>,
    stage: Shared<Stage>,
    sink: Shared<Sink>,
}

fn build(sim: &mut Simulation, spec: &PipelineSpec) -> BuiltPipeline {
    let (tx_a, rx_a) = sim.channel_with_latency::<u64>(spec.capacity, spec.latency);
    let (tx_b, rx_b) = sim.channel_with_latency::<u64>(spec.capacity, spec.latency);
    let producer = sim.add_shared(Producer {
        tx: tx_a,
        period: spec.period,
        items: spec.items,
        sent: 0,
    });
    let stage = sim.add_shared(Stage {
        rx: rx_a,
        tx: tx_b,
        delay: spec.delay,
        holding: None,
    });
    let sink = sim.add_shared(Sink {
        rx: rx_b,
        received: Vec::new(),
    });
    BuiltPipeline {
        producer,
        stage,
        sink,
    }
}

/// Everything observable about a pipeline, for cross-scheduler comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observation {
    now: Cycle,
    sent: Vec<u64>,
    holding: Vec<Option<(u64, Cycle)>>,
    received: Vec<Vec<(u64, Cycle)>>,
    channels: Vec<ChannelState>,
}

fn observe(sim: &Simulation, pipelines: &[BuiltPipeline]) -> Observation {
    Observation {
        now: sim.now(),
        sent: pipelines.iter().map(|p| sim.get(p.producer).sent).collect(),
        holding: pipelines.iter().map(|p| sim.get(p.stage).holding).collect(),
        received: pipelines
            .iter()
            .map(|p| sim.get(p.sink).received.clone())
            .collect(),
        channels: pipelines
            .iter()
            .flat_map(|p| {
                [
                    sim.get(p.producer).tx.state(sim.ctx()),
                    sim.get(p.stage).tx.state(sim.ctx()),
                ]
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn idle_skipping_matches_naive_stepper(
        specs in proptest::collection::vec(pipeline_strategy(), 1..4),
        warmup in 0u64..200,
    ) {
        let mut naive = Simulation::new();
        naive.set_event_driven(false);
        let mut event = Simulation::new();
        event.set_event_driven(true);
        let naive_pipes: Vec<_> = specs.iter().map(|s| build(&mut naive, s)).collect();
        let event_pipes: Vec<_> = specs.iter().map(|s| build(&mut event, s)).collect();

        // Phase 1: a fixed-length run (exercises `run_for` fast-forward).
        naive.run_for(warmup);
        event.run_for(warmup);
        prop_assert_eq!(observe(&naive, &naive_pipes), observe(&event, &event_pipes));

        // Phase 2: run to completion (exercises `run_until` jumps); the
        // elapsed count must match the naive stepper exactly.
        let total: u64 = specs.iter().map(|s| s.items).sum();
        let done = |pipes: &[BuiltPipeline]| {
            let sinks: Vec<Shared<Sink>> = pipes.iter().map(|p| p.sink).collect();
            move |sim: &Simulation| {
                sinks.iter().map(|s| sim.get(*s).received.len() as u64).sum::<u64>() == total
            }
        };
        let max = 1_000_000;
        let naive_elapsed = naive.run_until(max, done(&naive_pipes));
        let event_elapsed = event.run_until(max, done(&event_pipes));
        prop_assert_eq!(naive_elapsed, event_elapsed);
        prop_assert!(naive_elapsed.is_ok(), "pipelines must drain within {} cycles", max);
        let final_naive = observe(&naive, &naive_pipes);
        prop_assert_eq!(&final_naive, &observe(&event, &event_pipes));
        // Every item arrived, in order, in both schedulers.
        for (pipe, spec) in final_naive.received.iter().zip(&specs) {
            let order: Vec<u64> = pipe.iter().map(|&(v, _)| v).collect();
            let expect: Vec<u64> = (0..spec.items).collect();
            prop_assert_eq!(order, expect);
        }
    }
}
