//! AXI4 flit types and bus parameters.

use serde::{Deserialize, Serialize};

/// Static parameters of an AXI bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AxiParams {
    /// Data bus width in bytes per beat (the AWS F1 shell exposes 64).
    pub data_bytes: u32,
    /// Number of ID bits (⇒ `1 << id_bits` distinct IDs).
    pub id_bits: u32,
    /// Address width in bits.
    pub addr_bits: u32,
    /// Maximum beats per burst the slave accepts (AXI4 allows 256; the
    /// Xilinx DDR controller recommends 64 for full throughput).
    pub max_burst_beats: u32,
}

impl AxiParams {
    /// The AWS F1 shell's DDR-facing AXI: 512-bit data, 16 IDs, 64-bit
    /// addresses, 64-beat bursts.
    pub fn aws_f1() -> Self {
        Self {
            data_bytes: 64,
            id_bits: 4,
            addr_bits: 64,
            max_burst_beats: 64,
        }
    }

    /// A Zynq/Kria HP port: 128-bit data, 6 IDs bits, 40-bit addresses.
    pub fn kria_hp() -> Self {
        Self {
            data_bytes: 16,
            id_bits: 6,
            addr_bits: 40,
            max_burst_beats: 64,
        }
    }

    /// Number of distinct AXI IDs.
    pub fn num_ids(&self) -> u32 {
        1 << self.id_bits
    }

    /// Maximum bytes a single burst can move.
    pub fn max_burst_bytes(&self) -> u64 {
        u64::from(self.data_bytes) * u64::from(self.max_burst_beats)
    }
}

impl Default for AxiParams {
    fn default() -> Self {
        Self::aws_f1()
    }
}

/// Errors from validating a burst against [`AxiParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxiBurstError {
    /// Burst length exceeds `max_burst_beats`.
    TooManyBeats {
        /// Requested beats.
        beats: u32,
        /// Allowed maximum.
        max: u32,
    },
    /// ID out of range for `id_bits`.
    BadId {
        /// Requested id.
        id: u32,
        /// Number of valid ids.
        num_ids: u32,
    },
    /// Burst crosses the AXI 4 KiB boundary.
    Crosses4k {
        /// Start address.
        addr: u64,
        /// Bytes in the burst.
        bytes: u64,
    },
    /// Address is not beat-aligned.
    Misaligned {
        /// Start address.
        addr: u64,
        /// Required alignment.
        align: u32,
    },
}

impl std::fmt::Display for AxiBurstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AxiBurstError::TooManyBeats { beats, max } => {
                write!(f, "burst of {beats} beats exceeds maximum of {max}")
            }
            AxiBurstError::BadId { id, num_ids } => {
                write!(f, "axi id {id} out of range (bus has {num_ids} ids)")
            }
            AxiBurstError::Crosses4k { addr, bytes } => {
                write!(
                    f,
                    "burst at {addr:#x} of {bytes} bytes crosses a 4KiB boundary"
                )
            }
            AxiBurstError::Misaligned { addr, align } => {
                write!(f, "address {addr:#x} not aligned to {align}-byte beat")
            }
        }
    }
}

impl std::error::Error for AxiBurstError {}

/// A read-address (AR) flit: one read burst request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArFlit {
    /// Transaction ID.
    pub id: u32,
    /// Start byte address (beat aligned).
    pub addr: u64,
    /// Beats in the burst (AXI `ARLEN + 1`).
    pub beats: u32,
}

/// The widest memory-bus beat any platform declares, in bytes.
pub const MAX_BEAT_BYTES: usize = 64;

/// One beat of AXI data held inline: up to [`MAX_BEAT_BYTES`] bytes and
/// the beat's width. It derefs to exactly its width; the bytes past it
/// stay zero, so equality compares the visible bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Beat {
    bytes: [u8; MAX_BEAT_BYTES],
    len: u8,
}

impl Beat {
    /// An all-zero beat `len` bytes wide. Panics above [`MAX_BEAT_BYTES`].
    pub fn zeroed(len: usize) -> Self {
        assert!(
            len <= MAX_BEAT_BYTES,
            "beat of {len} bytes exceeds MAX_BEAT_BYTES ({MAX_BEAT_BYTES})"
        );
        Self {
            bytes: [0; MAX_BEAT_BYTES],
            len: len as u8,
        }
    }

    /// A beat holding a copy of `data`, as wide as `data`.
    pub fn from_slice(data: &[u8]) -> Self {
        let mut beat = Self::zeroed(data.len());
        beat.copy_from_slice(data);
        beat
    }
}

impl std::ops::Deref for Beat {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl std::ops::DerefMut for Beat {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[..usize::from(self.len)]
    }
}

/// The W strobe enabling the low `bytes` (1 to 64) bytes of a beat.
pub fn strobe_mask(bytes: usize) -> u64 {
    u64::MAX >> (MAX_BEAT_BYTES - bytes)
}

/// A read-data (R) flit: one beat of read data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RFlit {
    /// Transaction ID this beat belongs to.
    pub id: u32,
    /// One beat of data (`data_bytes` wide).
    pub data: Beat,
    /// Whether this is the final beat of the burst.
    pub last: bool,
}

/// A write-address (AW) flit: one write burst request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AwFlit {
    /// Transaction ID.
    pub id: u32,
    /// Start byte address (beat aligned).
    pub addr: u64,
    /// Beats in the burst (AXI `AWLEN + 1`).
    pub beats: u32,
}

/// A write-data (W) flit: one beat of write data.
///
/// Note W carries no ID in AXI4: write data arrives in AW order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WFlit {
    /// One beat of data (`data_bytes` wide).
    pub data: Beat,
    /// Byte-enable mask, bit `i` enabling byte `i`; `None` means all
    /// bytes valid.
    pub strb: Option<u64>,
    /// Whether this is the final beat of the burst.
    pub last: bool,
}

impl WFlit {
    /// A full-width beat carrying a copy of `data`, all bytes enabled.
    pub fn full(data: &[u8], last: bool) -> Self {
        Self {
            data: Beat::from_slice(data),
            strb: None,
            last,
        }
    }
}

/// A write-response (B) flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BFlit {
    /// Transaction ID being acknowledged.
    pub id: u32,
}

/// Validates a burst request against the bus parameters.
///
/// # Errors
///
/// See [`AxiBurstError`] for each rejected condition.
pub fn validate_burst(
    params: &AxiParams,
    id: u32,
    addr: u64,
    beats: u32,
) -> Result<(), AxiBurstError> {
    if beats == 0 || beats > params.max_burst_beats {
        return Err(AxiBurstError::TooManyBeats {
            beats,
            max: params.max_burst_beats,
        });
    }
    if id >= params.num_ids() {
        return Err(AxiBurstError::BadId {
            id,
            num_ids: params.num_ids(),
        });
    }
    if !addr.is_multiple_of(u64::from(params.data_bytes)) {
        return Err(AxiBurstError::Misaligned {
            addr,
            align: params.data_bytes,
        });
    }
    let bytes = u64::from(beats) * u64::from(params.data_bytes);
    if (addr & !0xFFF) != ((addr + bytes - 1) & !0xFFF) {
        return Err(AxiBurstError::Crosses4k { addr, bytes });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aws_f1_params() {
        let p = AxiParams::aws_f1();
        assert_eq!(p.num_ids(), 16);
        assert_eq!(p.max_burst_bytes(), 4096);
    }

    #[test]
    fn validate_accepts_legal_burst() {
        let p = AxiParams::aws_f1();
        assert!(validate_burst(&p, 3, 0x1000, 64).is_ok());
    }

    #[test]
    fn validate_rejects_zero_and_oversize_beats() {
        let p = AxiParams::aws_f1();
        assert!(matches!(
            validate_burst(&p, 0, 0, 0),
            Err(AxiBurstError::TooManyBeats { .. })
        ));
        assert!(matches!(
            validate_burst(&p, 0, 0, 65),
            Err(AxiBurstError::TooManyBeats { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_id() {
        let p = AxiParams::aws_f1();
        assert!(matches!(
            validate_burst(&p, 16, 0, 1),
            Err(AxiBurstError::BadId { .. })
        ));
    }

    #[test]
    fn validate_rejects_4k_crossing() {
        let p = AxiParams::aws_f1();
        // 64 beats × 64 B = 4096 B starting at 0x40 crosses 0x1000.
        assert!(matches!(
            validate_burst(&p, 0, 0x40, 64),
            Err(AxiBurstError::Crosses4k { .. })
        ));
    }

    #[test]
    fn validate_rejects_misaligned() {
        let p = AxiParams::aws_f1();
        assert!(matches!(
            validate_burst(&p, 0, 0x21, 1),
            Err(AxiBurstError::Misaligned { .. })
        ));
    }

    #[test]
    fn error_display_is_descriptive() {
        let e = AxiBurstError::TooManyBeats {
            beats: 100,
            max: 64,
        };
        assert!(e.to_string().contains("100"));
    }
}
