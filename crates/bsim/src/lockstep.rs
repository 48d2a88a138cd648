//! Lockstep guard mode: run a naive and an event-driven simulation of the
//! same model side by side and cross-check them.
//!
//! Components are boxed trait objects and cannot be cloned, so the caller
//! builds the model twice — once into each simulation — and registers
//! checks over the observable state (cycle counts, [`Stats`] bags, channel
//! totals). [`Lockstep`] then advances both simulations in bounded chunks
//! and panics with the offending check's label on the first divergence,
//! pinning down *when* an incorrect `next_event` implementation first
//! changed behaviour.

use crate::component::Simulation;
use crate::stats::Stats;
use crate::time::Cycle;

type Check = Box<dyn Fn() -> Option<String>>;

/// Cross-checks a naive ([`Simulation::set_event_driven`]`(false)`) and an
/// event-driven run of the same model. See the module docs.
pub struct Lockstep {
    naive: Simulation,
    event: Simulation,
    checks: Vec<(String, Check)>,
    /// Base cycles advanced between cross-checks inside `run_for`.
    granularity: Cycle,
}

impl Lockstep {
    /// Pairs two independently built copies of the same model. The first
    /// is forced to the naive scheduler, the second to the active-set
    /// one; everything else about them should be identical.
    pub fn new(mut naive: Simulation, mut event: Simulation) -> Self {
        naive.set_event_driven(false);
        event.set_event_driven(true);
        Lockstep {
            naive,
            event,
            checks: Vec::new(),
            granularity: 1024,
        }
    }

    /// Sets how many base cycles `run_for` advances between cross-checks
    /// (default 1024). Smaller values localise divergences more precisely.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn set_granularity(&mut self, cycles: Cycle) {
        assert!(cycles > 0, "lockstep granularity must be nonzero");
        self.granularity = cycles;
    }

    /// Registers a divergence check: return `None` while the runs agree,
    /// or a description of the mismatch.
    pub fn add_check(
        &mut self,
        label: impl Into<String>,
        check: impl Fn() -> Option<String> + 'static,
    ) {
        self.checks.push((label.into(), Box::new(check)));
    }

    /// Registers a check that two [`Stats`] bags (one observing each run)
    /// hold identical counters and histograms.
    pub fn check_stats(&mut self, label: impl Into<String>, naive: Stats, event: Stats) {
        self.add_check(label, move || {
            let (a, b) = (naive.snapshot(), event.snapshot());
            (a != b).then(|| format!("naive {a:?} != event {b:?}"))
        });
    }

    /// The naive run, e.g. for sending stimuli (mirror every mutation onto
    /// [`Lockstep::event_mut`]).
    pub fn naive_mut(&mut self) -> &mut Simulation {
        &mut self.naive
    }

    /// The event-driven run.
    pub fn event_mut(&mut self) -> &mut Simulation {
        &mut self.event
    }

    /// The naive run, read-only.
    pub fn naive(&self) -> &Simulation {
        &self.naive
    }

    /// The event-driven run, read-only.
    pub fn event(&self) -> &Simulation {
        &self.event
    }

    /// Advances both runs one base cycle and cross-checks.
    pub fn step(&mut self) {
        self.naive.step();
        self.event.step();
        self.verify();
    }

    /// Advances both runs `cycles` base cycles, cross-checking every
    /// [granularity](Lockstep::set_granularity) cycles and at the end.
    pub fn run_for(&mut self, cycles: Cycle) {
        let mut remaining = cycles;
        while remaining > 0 {
            let chunk = remaining.min(self.granularity);
            self.naive.run_for(chunk);
            self.event.run_for(chunk);
            self.verify();
            remaining -= chunk;
        }
    }

    /// Runs every registered check now.
    ///
    /// # Panics
    ///
    /// Panics with the check's label on the first divergence, including a
    /// cycle-count mismatch between the two runs.
    pub fn verify(&self) {
        assert_eq!(
            self.naive.now(),
            self.event.now(),
            "lockstep divergence: cycle counts differ",
        );
        for (label, check) in &self.checks {
            if let Some(diff) = check() {
                panic!(
                    "lockstep divergence in `{label}` at cycle {}: {diff}",
                    self.naive.now(),
                );
            }
        }
    }
}

impl std::fmt::Debug for Lockstep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lockstep")
            .field("now", &self.naive.now())
            .field("checks", &self.checks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use crate::ctx::SimCtx;

    /// Counts ticks; correct `next_event` when `honest`, a lying one (skips
    /// cycles that actually do work) when not.
    struct Sparse {
        period: u64,
        stats: Stats,
        honest: bool,
    }

    impl Component for Sparse {
        fn tick(&mut self, _ctx: &SimCtx, now: Cycle) {
            if now.is_multiple_of(self.period) {
                self.stats.incr("fires");
            }
        }

        fn next_event(&self, _ctx: &SimCtx, now: Cycle) -> Option<Cycle> {
            if self.honest {
                Some(now + (self.period - now % self.period))
            } else {
                // Wrong: claims idle twice as long as it really is.
                Some(now + 2 * (self.period - now % self.period))
            }
        }
    }

    fn build(honest: bool) -> (Simulation, Stats) {
        let mut sim = Simulation::new();
        let stats = Stats::new();
        sim.add(Sparse {
            period: 13,
            stats: stats.clone(),
            honest,
        });
        (sim, stats)
    }

    #[test]
    fn honest_model_stays_in_lockstep() {
        let (naive, s_naive) = build(true);
        let (event, s_event) = build(true);
        let mut lock = Lockstep::new(naive, event);
        lock.set_granularity(64);
        lock.check_stats("fires", s_naive.clone(), s_event.clone());
        lock.run_for(10_000);
        assert_eq!(lock.naive().now(), 10_000);
        assert_eq!(s_naive.get("fires"), s_event.get("fires"));
    }

    #[test]
    #[should_panic(expected = "lockstep divergence in `fires`")]
    fn lying_next_event_is_caught() {
        let (naive, s_naive) = build(false);
        let (event, s_event) = build(false);
        // The naive run ignores next_event and executes every cycle, so its
        // stats are the ground truth the event run fails to match.
        let mut lock = Lockstep::new(naive, event);
        lock.set_granularity(64);
        lock.check_stats("fires", s_naive, s_event);
        lock.run_for(10_000);
    }
}
