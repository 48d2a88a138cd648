//! How fast the host runs right now, from a fixed reference loop.
//!
//! On a shared host, other tenants' work slows this benchmark's calls by
//! 5-15% for seconds to minutes at a time, so raw host times of two runs a
//! minute apart differ by more than most changes worth measuring. The
//! benchmark times a small allocation-heavy loop (its own code, the same
//! in every commit it measures) between the measured calls and scales
//! their host time by the loop's reference time over its current time.
//! Over ten 20 s runs of each in-process workload this cut the spread of
//! the runs' host throughput from 6-9% to 1.5-3.7%; pointer-chasing and
//! arithmetic loops tracked the slowdowns far worse.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{median, Rng};

/// Seconds the loop takes on the reference host (a 2-vCPU Xeon VM);
/// scaled host times read as seconds on that host.
const REFERENCE_S: f64 = 0.001;

/// How long a measured speed stays current.
const INTERVAL: Duration = Duration::from_millis(250);

pub struct Speed {
    measured_at: Option<Instant>,
    factor: f64,
    timings: Vec<f64>,
}

impl Speed {
    pub fn new() -> Self {
        // The first run pays for growing the heap; later ones do not.
        Self::time_loop();
        Self {
            measured_at: None,
            factor: 1.0,
            timings: Vec::new(),
        }
    }

    /// Builds and drops a map of 5000 small strings and vectors.
    fn time_loop() -> f64 {
        let start = Instant::now();
        let mut rng = Rng::new(9);
        let mut map: HashMap<String, Vec<u64>> = HashMap::new();
        for i in 0..5_000 {
            map.insert(format!("key{}", rng.range(0, 99_999)), vec![i; 8]);
        }
        black_box(&map);
        drop(map);
        start.elapsed().as_secs_f64()
    }

    /// Re-times the loop once [`INTERVAL`] has passed since the last
    /// timing.
    pub fn update(&mut self) {
        if self.measured_at.is_none_or(|t| t.elapsed() >= INTERVAL) {
            let timing = Self::time_loop();
            self.factor = REFERENCE_S / timing;
            self.timings.push(timing);
            self.measured_at = Some(Instant::now());
        }
    }

    /// The factor that turns host seconds into reference seconds.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The loop's median time over its reference time.
    pub fn slowdown(&self) -> f64 {
        median(&self.timings) / REFERENCE_S
    }
}
