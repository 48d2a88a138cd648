//! Property tests for the simulation kernel's channels: FIFO order,
//! conservation, and latency bounds under arbitrary interleavings of
//! sends, receives, and clock advances; agreement of the arena's
//! front-visibility array with a model of the queue; and the cross-
//! simulation check on every path that reads that array.

use std::collections::VecDeque;

use bsim::{Cycle, Receiver, Sender, SimCtx, Simulation};
use proptest::prelude::*;

/// A script step for the channel exerciser.
#[derive(Debug, Clone)]
enum Step {
    /// Try to send the next sequence number.
    Send,
    /// Try to receive.
    Recv,
    /// Advance the clock by up to 3 cycles.
    Tick(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => Just(Step::Send),
        2 => Just(Step::Recv),
        1 => (1u8..4).prop_map(Step::Tick),
    ]
}

proptest! {
    #[test]
    fn fifo_order_conservation_and_latency(
        steps in proptest::collection::vec(step_strategy(), 1..200),
        capacity in 1usize..8,
        latency in 0u64..4,
    ) {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel_with_latency::<u64>(capacity, latency);
        let ctx = sim.ctx();
        let mut now: Cycle = 0;
        let mut next_seq = 0u64;
        let mut sent: Vec<(u64, Cycle)> = Vec::new();
        let mut received: Vec<u64> = Vec::new();
        for step in steps {
            match step {
                Step::Send => {
                    if tx.can_send(ctx) {
                        tx.send(ctx, now, next_seq);
                        sent.push((next_seq, now));
                        next_seq += 1;
                    }
                }
                Step::Recv => {
                    if let Some(v) = rx.recv(ctx, now) {
                        // Latency respected: the item's send cycle must be
                        // at least `latency` cycles ago.
                        let (_, sent_at) = sent[v as usize];
                        prop_assert!(now >= sent_at + latency,
                            "item {v} sent at {sent_at} received at {now} (latency {latency})");
                        received.push(v);
                    }
                }
                Step::Tick(n) => now += u64::from(n),
            }
            // Occupancy never exceeds capacity.
            prop_assert!(tx.state(ctx).occupancy <= capacity);
        }
        // FIFO: received is a prefix of the sent order.
        let expect: Vec<u64> = (0..received.len() as u64).collect();
        prop_assert_eq!(&received, &expect, "receive order must be send order");
        // Conservation: everything still in flight is accounted for.
        let s = tx.state(ctx);
        prop_assert_eq!(s.total_sent - s.total_received, s.occupancy as u64);
        prop_assert_eq!(s.total_sent, sent.len() as u64);
    }

    #[test]
    fn drain_after_quiesce_recovers_everything(count in 1usize..50) {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel_with_latency::<u64>(64, 2);
        let ctx = sim.ctx();
        for i in 0..count as u64 {
            tx.send(ctx, i, i);
        }
        let settle = count as u64 + 2;
        let mut got = Vec::new();
        while let Some(v) = rx.recv(ctx, settle) {
            got.push(v);
        }
        let expect: Vec<u64> = (0..count as u64).collect();
        prop_assert_eq!(got, expect);
    }

    /// `has_data`, both `next_visible_at`s, `visible_len`, `peek_with`
    /// and `recv` answer from the arena's front-visibility array on the
    /// fast path; they must agree with a model of the queue's per-item
    /// visibility stamps after every step.
    #[test]
    fn visibility_queries_match_a_queue_model(
        steps in proptest::collection::vec(step_strategy(), 1..300),
        capacity in 1usize..6,
        latency in 0u64..4,
    ) {
        let mut sim = Simulation::new();
        let (tx, rx) = sim.channel_with_latency::<u64>(capacity, latency);
        let ctx = sim.ctx();
        let mut now: Cycle = 0;
        let mut next_seq = 0u64;
        // (value, visible-at) per buffered item, front = oldest.
        let mut model: VecDeque<(u64, Cycle)> = VecDeque::new();
        for step in steps {
            match step {
                Step::Send => {
                    if tx.can_send(ctx) {
                        tx.send(ctx, now, next_seq);
                        model.push_back((next_seq, now + latency));
                        next_seq += 1;
                    }
                }
                Step::Recv => {
                    let expect = match model.front() {
                        Some(&(v, at)) if at <= now => model.pop_front().map(|_| v),
                        _ => None,
                    };
                    prop_assert_eq!(rx.recv(ctx, now), expect);
                }
                Step::Tick(n) => now += u64::from(n),
            }
            let front = model.front().map(|&(_, at)| at);
            prop_assert_eq!(rx.next_visible_at(ctx), front);
            prop_assert_eq!(tx.next_visible_at(ctx), front);
            for probe in [now, now + 1, now + 3] {
                let visible = model.iter().take_while(|&&(_, at)| at <= probe).count();
                prop_assert_eq!(rx.visible_len(ctx, probe), visible);
                prop_assert_eq!(rx.has_data(ctx, probe), visible > 0);
                let head = model.front().filter(|&&(_, at)| at <= probe).map(|&(v, _)| v);
                prop_assert_eq!(rx.peek_with(ctx, probe, |v| *v), head);
            }
        }
    }
}

/// Runs `f` on a channel of one simulation against another simulation's
/// arena.
fn with_foreign_ctx(f: impl FnOnce(&SimCtx, Sender<u8>, Receiver<u8>)) {
    let mut a = Simulation::new();
    let b = Simulation::new();
    let (tx, rx) = a.channel::<u8>(2);
    tx.send(a.ctx(), 0, 1);
    f(b.ctx(), tx, rx);
}

#[test]
#[should_panic(expected = "different Simulation")]
fn foreign_has_data_panics() {
    with_foreign_ctx(|ctx, _, rx| {
        rx.has_data(ctx, 5);
    });
}

#[test]
#[should_panic(expected = "different Simulation")]
fn foreign_receiver_next_visible_at_panics() {
    with_foreign_ctx(|ctx, _, rx| {
        rx.next_visible_at(ctx);
    });
}

#[test]
#[should_panic(expected = "different Simulation")]
fn foreign_sender_next_visible_at_panics() {
    with_foreign_ctx(|ctx, tx, _| {
        tx.next_visible_at(ctx);
    });
}

#[test]
#[should_panic(expected = "different Simulation")]
fn foreign_recv_before_visibility_panics() {
    // Cycle 0: the item is not visible yet, the path that never borrows
    // the channel.
    with_foreign_ctx(|ctx, _, rx| {
        rx.recv(ctx, 0);
    });
}

#[test]
#[should_panic(expected = "different Simulation")]
fn foreign_peek_with_panics() {
    with_foreign_ctx(|ctx, _, rx| {
        rx.peek_with(ctx, 0, |v| *v);
    });
}

#[test]
#[should_panic(expected = "different Simulation")]
fn foreign_visible_len_panics() {
    with_foreign_ctx(|ctx, _, rx| {
        rx.visible_len(ctx, 0);
    });
}
