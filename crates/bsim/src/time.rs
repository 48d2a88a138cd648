//! Clock and time bookkeeping.
//!
//! Simulations advance in integer [`Cycle`]s of one clock. Wall-clock
//! quantities (bandwidth, latency in nanoseconds) are derived through a
//! [`ClockDomain`], which records the period of the clock in picoseconds.

use serde::{Deserialize, Serialize};

/// A cycle count of the simulation clock.
pub type Cycle = u64;

/// A duration or timestamp measured in picoseconds.
pub type Picoseconds = u64;

/// Picoseconds per second, for bandwidth math.
pub const PICOS_PER_SEC: u64 = 1_000_000_000_000;

/// A clock domain: a frequency and the conversions that follow from it.
///
/// ```rust
/// use bsim::ClockDomain;
/// let ddr = ClockDomain::from_mhz(250);
/// assert_eq!(ddr.period_ps(), 4000);
/// assert_eq!(ddr.cycles_to_ps(250_000), 1_000_000_000); // 1 ms
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClockDomain {
    period_ps: u64,
}

impl ClockDomain {
    /// Creates a clock domain from a frequency in megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero or exceeds 1 THz.
    pub fn from_mhz(mhz: u64) -> Self {
        assert!(
            mhz > 0 && mhz <= 1_000_000,
            "clock frequency out of range: {mhz} MHz"
        );
        Self {
            period_ps: 1_000_000 / mhz,
        }
    }

    /// The clock period in picoseconds.
    pub fn period_ps(&self) -> u64 {
        self.period_ps
    }

    /// The frequency in megahertz (rounded down).
    pub fn freq_mhz(&self) -> u64 {
        1_000_000 / self.period_ps
    }

    /// The frequency in hertz.
    pub fn freq_hz(&self) -> f64 {
        1e12 / self.period_ps as f64
    }

    /// Converts a cycle count in this domain to picoseconds.
    pub fn cycles_to_ps(&self, cycles: Cycle) -> Picoseconds {
        cycles * self.period_ps
    }

    /// Converts a cycle count in this domain to seconds.
    pub fn cycles_to_secs(&self, cycles: Cycle) -> f64 {
        self.cycles_to_ps(cycles) as f64 / PICOS_PER_SEC as f64
    }

    /// Converts a picosecond duration to whole cycles of this domain,
    /// rounding up (a partial cycle still occupies the whole cycle).
    pub fn ps_to_cycles(&self, ps: Picoseconds) -> Cycle {
        ps.div_ceil(self.period_ps)
    }
}

impl Default for ClockDomain {
    /// The paper's default fabric clock: 250 MHz.
    fn default() -> Self {
        Self::from_mhz(250)
    }
}

impl std::fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} MHz", self.freq_mhz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mhz_roundtrip() {
        for mhz in [100, 125, 200, 250, 500, 1000] {
            let cd = ClockDomain::from_mhz(mhz);
            assert_eq!(cd.freq_mhz(), mhz);
        }
    }

    #[test]
    fn period_of_250mhz_is_4ns() {
        assert_eq!(ClockDomain::from_mhz(250).period_ps(), 4000);
    }

    #[test]
    fn ps_to_cycles_rounds_up() {
        let cd = ClockDomain::from_mhz(250);
        assert_eq!(cd.ps_to_cycles(1), 1);
        assert_eq!(cd.ps_to_cycles(4000), 1);
        assert_eq!(cd.ps_to_cycles(4001), 2);
    }

    #[test]
    fn bandwidth_math() {
        let cd = ClockDomain::from_mhz(250);
        // 64 bytes per cycle at 250MHz = 16 GB/s.
        let bw = 64.0 * 250e6 / cd.cycles_to_secs(250_000_000);
        assert!((bw - 16e9).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_freq_panics() {
        ClockDomain::from_mhz(0);
    }

    #[test]
    fn display() {
        assert_eq!(ClockDomain::from_mhz(125).to_string(), "125 MHz");
    }
}
