//! DRAM device geometry, timing parameters, and presets.

use serde::{Deserialize, Serialize};

use crate::addr::AddressMapping;

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PagePolicy {
    /// Keep rows open after column accesses (exploits locality; pays tRP+tRCD
    /// on conflicts).
    Open,
    /// Precharge as soon as a request's column accesses are done.
    Closed,
}

/// Core timing parameters, all in DRAM command-clock cycles except `tck_ps`.
///
/// Names follow JEDEC: `cl` is CAS latency, `cwl` CAS write latency, `t_rcd`
/// activate-to-column, `t_rp` precharge, `t_ras` activate-to-precharge,
/// `t_rfc` refresh cycle, `t_refi` refresh interval, `t_ccd` column-to-column,
/// `t_rrd` activate-to-activate (different banks), `t_wr` write recovery,
/// `t_wtr` write-to-read turnaround, `t_rtp` read-to-precharge, `t_faw`
/// four-activate window, `burst_length` in beats (8 for DDR4 BL8).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct DramTimings {
    pub tck_ps: u64,
    pub cl: u64,
    pub cwl: u64,
    pub t_rcd: u64,
    pub t_rp: u64,
    pub t_ras: u64,
    pub t_rfc: u64,
    pub t_refi: u64,
    pub t_ccd: u64,
    pub t_ccd_l: u64,
    pub t_rrd: u64,
    pub t_wr: u64,
    pub t_wtr: u64,
    pub t_rtp: u64,
    pub t_faw: u64,
    pub burst_length: u64,
}

impl DramTimings {
    /// Data-bus cycles occupied by one burst (double data rate: BL/2).
    pub fn burst_cycles(&self) -> u64 {
        self.burst_length / 2
    }
}

/// Full DRAM configuration: geometry + timing + policies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Independent channels (each with its own command/data bus).
    pub channels: u64,
    /// Ranks per channel.
    pub ranks: u64,
    /// Bank groups per rank.
    pub bank_groups: u64,
    /// Banks per bank group.
    pub banks_per_group: u64,
    /// Rows per bank.
    pub rows: u64,
    /// Columns per row (in bus-width units).
    pub columns: u64,
    /// Data bus width in bytes (8 for x64 DDR4 DIMM, 16 for an HBM channel
    /// pair as we model it).
    pub bus_bytes: u64,
    /// Timing parameters.
    pub timings: DramTimings,
    /// Address decode scheme.
    pub mapping: AddressMapping,
    /// Row-buffer policy.
    pub page_policy: PagePolicy,
    /// Per-channel scheduler queue depth.
    pub queue_depth: usize,
}

impl DramConfig {
    /// A single-channel DDR4-2400 x64 DIMM (AWS F1 / Alveo U200 style),
    /// CL17-17-17, 1 Gb x8 devices: 19.2 GB/s peak.
    pub fn ddr4_2400() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 65536,
            columns: 128,
            bus_bytes: 8,
            timings: DramTimings {
                tck_ps: 833, // 1.2 GHz command clock
                cl: 17,
                cwl: 12,
                t_rcd: 17,
                t_rp: 17,
                t_ras: 39,
                t_rfc: 420,
                t_refi: 9360,
                t_ccd: 4,
                t_ccd_l: 6,
                t_rrd: 7,
                t_wr: 18,
                t_wtr: 9,
                t_rtp: 9,
                t_faw: 26,
                burst_length: 8,
            },
            mapping: AddressMapping::RoBaRaCoCh,
            page_policy: PagePolicy::Open,
            queue_depth: 32,
        }
    }

    /// A four-channel DDR4-2400 configuration matching the Alveo U200 card's
    /// four DIMMs (76.8 GB/s aggregate).
    pub fn ddr4_2400_quad() -> Self {
        Self {
            channels: 4,
            ..Self::ddr4_2400()
        }
    }

    /// An HBM2-like stack channel: wider bus, lower clock, more banks.
    pub fn hbm2() -> Self {
        Self {
            channels: 8,
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 16384,
            columns: 64,
            bus_bytes: 16,
            timings: DramTimings {
                tck_ps: 2000, // 500 MHz command clock (1 GT/s data)
                cl: 14,
                cwl: 7,
                t_rcd: 14,
                t_rp: 14,
                t_ras: 34,
                t_rfc: 160,
                t_refi: 1950,
                t_ccd: 2,
                t_ccd_l: 4,
                t_rrd: 4,
                t_wr: 8,
                t_wtr: 6,
                t_rtp: 5,
                t_faw: 16,
                burst_length: 4,
            },
            mapping: AddressMapping::RoBaRaCoCh,
            page_policy: PagePolicy::Open,
            queue_depth: 32,
        }
    }

    /// An LPDDR4-like embedded memory (Kria KV260 class): single channel,
    /// 4.2 GB/s class bandwidth as the PS DDR controller exposes to the PL.
    pub fn lpddr4_embedded() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            bank_groups: 1,
            banks_per_group: 8,
            rows: 32768,
            columns: 128,
            bus_bytes: 4,
            timings: DramTimings {
                tck_ps: 938, // ~1066 MHz
                cl: 20,
                cwl: 10,
                t_rcd: 20,
                t_rp: 22,
                t_ras: 45,
                t_rfc: 450,
                t_refi: 8300,
                t_ccd: 8,
                t_ccd_l: 8,
                t_rrd: 10,
                t_wr: 20,
                t_wtr: 10,
                t_rtp: 8,
                t_faw: 40,
                burst_length: 16,
            },
            mapping: AddressMapping::RoBaRaCoCh,
            page_policy: PagePolicy::Open,
            queue_depth: 16,
        }
    }

    /// Total banks per channel.
    pub fn banks_per_channel(&self) -> u64 {
        self.ranks * self.bank_groups * self.banks_per_group
    }

    /// Bytes moved by one burst.
    pub fn bytes_per_burst(&self) -> u64 {
        self.bus_bytes * self.timings.burst_length
    }

    /// Bytes covered by one row (per bank): `columns × bus_bytes`.
    pub fn row_bytes(&self) -> u64 {
        self.columns * self.bus_bytes
    }

    /// Address stride, in bytes, between consecutive rows of the *same*
    /// bank under the configured mapping (used by locality tests).
    pub fn row_stride_bytes(&self) -> u64 {
        // Everything below the row field: columns, channel, rank, bank bits.
        self.row_bytes() * self.channels * self.ranks * self.bank_groups * self.banks_per_group
    }

    /// Theoretical peak bandwidth across all channels, bytes/second.
    pub fn peak_bandwidth_bytes_per_sec(&self) -> f64 {
        // Two transfers per command-clock cycle (DDR).
        let per_channel = 2.0 * self.bus_bytes as f64 * (1e12 / self.timings.tck_ps as f64);
        per_channel * self.channels as f64
    }

    /// Total addressable bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.channels
            * self.ranks
            * self.bank_groups
            * self.banks_per_group
            * self.rows
            * self.row_bytes()
    }

    /// Checks that the model can simulate this configuration: the address
    /// decoder slices every geometry field out of address bits, a burst
    /// must occupy the data bus for at least one cycle, and the queue,
    /// bus and clock must not be empty. The bank count has no cap.
    ///
    /// # Errors
    ///
    /// The first problem found, as a [`DramConfigError`].
    pub fn validate(&self) -> Result<(), DramConfigError> {
        for (field, value) in [
            ("channels", self.channels),
            ("ranks", self.ranks),
            ("bank_groups", self.bank_groups),
            ("banks_per_group", self.banks_per_group),
            ("rows", self.rows),
            ("columns", self.columns),
        ] {
            if !value.is_power_of_two() {
                return Err(DramConfigError::NotPowerOfTwo { field, value });
            }
        }
        let burst_length = self.timings.burst_length;
        if burst_length < 2 || !burst_length.is_power_of_two() {
            return Err(DramConfigError::BurstLength(burst_length));
        }
        if self.columns < burst_length {
            return Err(DramConfigError::RowBelowBurst {
                columns: self.columns,
                burst_length,
            });
        }
        for (field, value) in [
            ("queue_depth", self.queue_depth as u64),
            ("bus_bytes", self.bus_bytes),
            ("timings.tck_ps", self.timings.tck_ps),
        ] {
            if value == 0 {
                return Err(DramConfigError::Zero(field));
            }
        }
        Ok(())
    }
}

/// Why [`DramConfig::validate`] rejected a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DramConfigError {
    /// A geometry field is zero or not a power of two.
    NotPowerOfTwo {
        /// The field's name.
        field: &'static str,
        /// Its value.
        value: u64,
    },
    /// `timings.burst_length` is below 2 or not a power of two: a burst
    /// must fill at least one data-bus cycle (two beats).
    BurstLength(u64),
    /// A row holds fewer columns than one burst.
    RowBelowBurst {
        /// Columns per row.
        columns: u64,
        /// Beats per burst.
        burst_length: u64,
    },
    /// A field that must be positive is zero: `queue_depth` (no request
    /// would ever be accepted), `bus_bytes` or `timings.tck_ps`.
    Zero(&'static str),
}

impl std::fmt::Display for DramConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DramConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "{field} = {value} is not a power of two")
            }
            DramConfigError::BurstLength(bl) => write!(
                f,
                "burst_length = {bl} must be a power of two of at least 2"
            ),
            DramConfigError::RowBelowBurst {
                columns,
                burst_length,
            } => write!(
                f,
                "a row of {columns} columns cannot hold one {burst_length}-beat burst"
            ),
            DramConfigError::Zero(field) => write!(f, "{field} must be positive"),
        }
    }
}

impl std::error::Error for DramConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_2400_peak_bandwidth_is_19_2_gb() {
        let cfg = DramConfig::ddr4_2400();
        let peak = cfg.peak_bandwidth_bytes_per_sec();
        assert!((peak - 19.2e9).abs() / 19.2e9 < 0.01, "peak = {peak:.3e}");
    }

    #[test]
    fn burst_moves_64_bytes_on_ddr4() {
        assert_eq!(DramConfig::ddr4_2400().bytes_per_burst(), 64);
    }

    #[test]
    fn quad_channel_quadruples_peak() {
        let single = DramConfig::ddr4_2400().peak_bandwidth_bytes_per_sec();
        let quad = DramConfig::ddr4_2400_quad().peak_bandwidth_bytes_per_sec();
        assert!((quad / single - 4.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_is_positive_and_large() {
        let cfg = DramConfig::ddr4_2400();
        assert!(cfg.capacity_bytes() >= 1 << 30, "at least 1 GiB");
    }

    #[test]
    fn presets_validate() {
        for cfg in [
            DramConfig::ddr4_2400(),
            DramConfig::ddr4_2400_quad(),
            DramConfig::hbm2(),
            DramConfig::lpddr4_embedded(),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_names_the_first_bad_field() {
        let base = DramConfig::ddr4_2400();
        let check = |edit: fn(&mut DramConfig), want: DramConfigError| {
            let mut cfg = base.clone();
            edit(&mut cfg);
            assert_eq!(cfg.validate(), Err(want));
        };
        check(
            |c| c.banks_per_group = 3,
            DramConfigError::NotPowerOfTwo {
                field: "banks_per_group",
                value: 3,
            },
        );
        check(
            |c| c.channels = 0,
            DramConfigError::NotPowerOfTwo {
                field: "channels",
                value: 0,
            },
        );
        check(
            |c| c.timings.burst_length = 0,
            DramConfigError::BurstLength(0),
        );
        check(
            |c| c.timings.burst_length = 1,
            DramConfigError::BurstLength(1),
        );
        check(
            |c| c.timings.burst_length = 6,
            DramConfigError::BurstLength(6),
        );
        check(
            |c| c.columns = 4,
            DramConfigError::RowBelowBurst {
                columns: 4,
                burst_length: 8,
            },
        );
        check(|c| c.queue_depth = 0, DramConfigError::Zero("queue_depth"));
        check(|c| c.bus_bytes = 0, DramConfigError::Zero("bus_bytes"));
        check(
            |c| c.timings.tck_ps = 0,
            DramConfigError::Zero("timings.tck_ps"),
        );
        // No cap on the bank count.
        let mut many = base.clone();
        many.ranks = 4;
        many.banks_per_group = 64;
        assert_eq!(many.banks_per_channel(), 1024);
        assert_eq!(many.validate(), Ok(()));
    }

    #[test]
    fn burst_cycles_is_half_burst_length() {
        assert_eq!(DramConfig::ddr4_2400().timings.burst_cycles(), 4);
        assert_eq!(DramConfig::hbm2().timings.burst_cycles(), 2);
    }
}
