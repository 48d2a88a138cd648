//! Multi-die device models (SLR geometry and capacities).

use serde::{Deserialize, Serialize};

use crate::resources::ResourceVector;

/// Index of a Super Logic Region (die) on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SlrId(pub usize);

impl std::fmt::Display for SlrId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SLR{}", self.0)
    }
}

/// One SLR: its raw capacity and the slice the platform shell permanently
/// occupies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlrModel {
    /// Total fabric resources on this die.
    pub capacity: ResourceVector,
    /// Resources consumed by the platform shell (host link, DDR
    /// controllers, …) on this die.
    pub shell: ResourceVector,
    /// Whether external memory controllers terminate on this die.
    pub has_memory_interface: bool,
    /// Whether the host (PCIe/MMIO) interface terminates on this die.
    pub has_host_interface: bool,
}

impl SlrModel {
    /// Resources available to user logic.
    pub fn free(&self) -> ResourceVector {
        self.capacity.saturating_sub(&self.shell)
    }
}

/// A physical device: one or more SLRs plus inter-die crossing costs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceModel {
    /// Device name, e.g. `"xcu200"`.
    pub name: String,
    /// Dies, index 0 first.
    pub slrs: Vec<SlrModel>,
    /// Extra register stages inserted on every SLR crossing (the paper's
    /// networks buffer crossings to meet timing).
    pub crossing_latency_cycles: u64,
    /// Inter-SLR routing tracks available per crossing (a congestion proxy).
    pub crossing_tracks: u64,
}

impl DeviceModel {
    /// The Alveo U200 / VU9P of the paper's AWS F1 evaluation: three SLRs,
    /// shell resident on SLR0 and SLR1 (§III-C), memory + host on SLR0/1.
    ///
    /// Capacities follow the public VU9P tables (per-SLR thirds):
    /// 1,182k LUT / 2,364k FF / 2,160 BRAM36 / 960 URAM / 6,840 DSP /
    /// ~147k CLB total.
    pub fn alveo_u200() -> Self {
        let third = ResourceVector::new(49_260, 394_080, 788_160, 720, 320, 2_280);
        DeviceModel {
            name: "xcu200".to_owned(),
            slrs: vec![
                SlrModel {
                    capacity: third,
                    // The AWS F1 shell: DMA engines, PCIe, DDR-C on SLR0.
                    shell: ResourceVector::new(20_000, 100_000, 150_000, 140, 30, 100),
                    has_memory_interface: true,
                    has_host_interface: true,
                },
                SlrModel {
                    capacity: third,
                    shell: ResourceVector::new(11_000, 50_000, 56_000, 60, 13, 40),
                    has_memory_interface: true,
                    has_host_interface: false,
                },
                SlrModel {
                    capacity: third,
                    shell: ResourceVector::ZERO,
                    has_memory_interface: false,
                    has_host_interface: false,
                },
            ],
            crossing_latency_cycles: 2,
            crossing_tracks: 7_680,
        }
    }

    /// The Alveo U280: three SLRs with an HBM2 stack attached to SLR0.
    /// Slightly smaller fabric than the U200, but vastly more memory
    /// bandwidth — the device class the paper's intro points at for
    /// bandwidth-hungry accelerators.
    pub fn alveo_u280() -> Self {
        let third = ResourceVector::new(44_928, 434_880, 869_760, 672, 320, 3_008);
        DeviceModel {
            name: "xcu280".to_owned(),
            slrs: vec![
                SlrModel {
                    capacity: third,
                    shell: ResourceVector::new(18_000, 90_000, 130_000, 120, 25, 90),
                    has_memory_interface: true, // HBM stack sits below SLR0
                    has_host_interface: true,
                },
                SlrModel {
                    capacity: third,
                    shell: ResourceVector::new(9_000, 40_000, 48_000, 50, 10, 30),
                    has_memory_interface: false,
                    has_host_interface: false,
                },
                SlrModel {
                    capacity: third,
                    shell: ResourceVector::ZERO,
                    has_memory_interface: false,
                    has_host_interface: false,
                },
            ],
            crossing_latency_cycles: 2,
            crossing_tracks: 7_680,
        }
    }

    /// The Kria KV260's XCK26 Zynq UltraScale+: a single die.
    pub fn kria_k26() -> Self {
        DeviceModel {
            name: "xck26".to_owned(),
            slrs: vec![SlrModel {
                capacity: ResourceVector::new(14_616, 117_120, 234_240, 144, 64, 1_248),
                shell: ResourceVector::new(500, 4_000, 6_000, 4, 0, 0),
                has_memory_interface: true,
                has_host_interface: true,
            }],
            crossing_latency_cycles: 0,
            crossing_tracks: 0,
        }
    }

    /// A notional ASIC "die" with effectively unconstrained logic; SRAM is
    /// accounted by the [`crate::SramCompiler`] instead.
    pub fn asic_die() -> Self {
        DeviceModel {
            name: "asic".to_owned(),
            slrs: vec![SlrModel {
                capacity: ResourceVector::new(
                    u64::MAX / 4,
                    u64::MAX / 4,
                    u64::MAX / 4,
                    u64::MAX / 4,
                    0,
                    u64::MAX / 4,
                ),
                shell: ResourceVector::ZERO,
                has_memory_interface: true,
                has_host_interface: true,
            }],
            crossing_latency_cycles: 0,
            crossing_tracks: 0,
        }
    }

    /// Number of SLRs.
    pub fn num_slrs(&self) -> usize {
        self.slrs.len()
    }

    /// Total raw capacity across SLRs.
    pub fn total_capacity(&self) -> ResourceVector {
        self.slrs
            .iter()
            .fold(ResourceVector::ZERO, |acc, slr| acc + slr.capacity)
    }

    /// The SLR hosting the host interface.
    ///
    /// # Panics
    ///
    /// Panics if the device declares no host interface.
    pub fn host_slr(&self) -> SlrId {
        SlrId(
            self.slrs
                .iter()
                .position(|s| s.has_host_interface)
                .expect("device has no host interface SLR"),
        )
    }

    /// Crossing distance between two SLRs (dies are arranged linearly).
    pub fn crossing_hops(&self, a: SlrId, b: SlrId) -> u64 {
        a.0.abs_diff(b.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u200_has_three_slrs_with_shell_on_first_two() {
        let dev = DeviceModel::alveo_u200();
        assert_eq!(dev.num_slrs(), 3);
        assert!(dev.slrs[0].shell.lut > 0);
        assert!(dev.slrs[1].shell.lut > 0);
        assert_eq!(dev.slrs[2].shell, ResourceVector::ZERO);
        assert_eq!(dev.host_slr(), SlrId(0));
    }

    #[test]
    fn u200_totals_match_public_tables() {
        let dev = DeviceModel::alveo_u200();
        let total = dev.total_capacity();
        assert_eq!(total.lut, 1_182_240);
        assert_eq!(total.bram, 2_160);
        assert_eq!(total.uram, 960);
    }

    #[test]
    fn free_subtracts_shell() {
        let dev = DeviceModel::alveo_u200();
        let slr0 = &dev.slrs[0];
        assert_eq!(slr0.free().lut, slr0.capacity.lut - slr0.shell.lut);
        // SLR2 is untouched.
        assert_eq!(dev.slrs[2].free(), dev.slrs[2].capacity);
    }

    #[test]
    fn crossing_hops_is_linear_distance() {
        let dev = DeviceModel::alveo_u200();
        assert_eq!(dev.crossing_hops(SlrId(0), SlrId(2)), 2);
        assert_eq!(dev.crossing_hops(SlrId(2), SlrId(0)), 2);
        assert_eq!(dev.crossing_hops(SlrId(1), SlrId(1)), 0);
    }

    #[test]
    fn kria_is_single_die() {
        let dev = DeviceModel::kria_k26();
        assert_eq!(dev.num_slrs(), 1);
        assert_eq!(dev.crossing_latency_cycles, 0);
    }

    #[test]
    fn slr_display() {
        assert_eq!(SlrId(2).to_string(), "SLR2");
    }
}
