//! RoCC commands and custom-command packing.
//!
//! Beethoven's host↔core commands travel in the Rocket Custom Co-processor
//! (RoCC) instruction format (§II-A): each instruction carries two 64-bit
//! source payloads plus routing metadata. Developer-declared custom
//! commands ([`AccelCommandSpec`]) are "transparently mapped onto the RoCC
//! instruction format inside the Core design" — a wide command becomes a
//! multi-beat sequence of RoCC instructions.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Payload bits carried by one RoCC instruction (rs1 ‖ rs2).
pub const ROCC_PAYLOAD_BITS: u32 = 128;

/// One RoCC instruction as it crosses the MMIO command system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoccCommand {
    /// Target system (accelerator function) id.
    pub system_id: u16,
    /// Target core within the system.
    pub core_id: u16,
    /// funct7-style minor opcode: beat index within a multi-beat command.
    pub beat: u8,
    /// Total beats in this command.
    pub total_beats: u8,
    /// First 64 payload bits.
    pub rs1: u64,
    /// Second 64 payload bits.
    pub rs2: u64,
    /// Whether the command expects a response (RoCC `xd`).
    pub expects_response: bool,
}

/// A RoCC response returned by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoccResponse {
    /// System that responded.
    pub system_id: u16,
    /// Core that responded.
    pub core_id: u16,
    /// 64-bit response payload.
    pub data: u64,
}

/// Types a command field may take (paper Figure 2: `UInt(32.W)`,
/// `Address()`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FieldType {
    /// An unsigned integer of the given bit width (1–64).
    U(u32),
    /// A memory address (platform address width; packed as 64 bits).
    Address,
    /// A signed integer of the given bit width (1–64), two's complement.
    I(u32),
}

impl FieldType {
    /// Bits the field occupies in the packed payload.
    pub fn bits(&self) -> u32 {
        match self {
            FieldType::U(b) | FieldType::I(b) => *b,
            FieldType::Address => 64,
        }
    }
}

/// A developer-declared custom command: named fields mapped onto RoCC
/// beats in declaration order, LSB first.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccelCommandSpec {
    /// Command (and generated binding) name.
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<(String, FieldType)>,
    /// Whether a response is produced.
    pub expects_response: bool,
}

impl AccelCommandSpec {
    /// Creates a command spec.
    ///
    /// # Panics
    ///
    /// Panics if a field has a zero or >64 bit width, or names repeat.
    pub fn new(name: impl Into<String>, fields: Vec<(String, FieldType)>) -> Self {
        let name = name.into();
        let mut seen = std::collections::HashSet::new();
        for (fname, ty) in &fields {
            assert!(
                (1..=64).contains(&ty.bits()),
                "field '{fname}' width {} out of range",
                ty.bits()
            );
            assert!(seen.insert(fname.clone()), "duplicate field name '{fname}'");
        }
        Self {
            name,
            fields,
            expects_response: true,
        }
    }

    /// Total payload bits.
    pub fn payload_bits(&self) -> u32 {
        self.fields.iter().map(|(_, t)| t.bits()).sum()
    }

    /// RoCC beats needed to carry the payload (at least one).
    pub fn beats(&self) -> u8 {
        self.payload_bits().div_ceil(ROCC_PAYLOAD_BITS).max(1) as u8
    }

    /// Checks that `args` names exactly this spec's fields, each within
    /// its declared width — the validation [`pack_command`] performs, for
    /// callers that must reject a command before it reaches the device.
    ///
    /// # Errors
    ///
    /// A [`CommandPackError`] for the first unknown, missing, or
    /// over-wide argument.
    pub fn check(&self, args: &CommandArgs) -> Result<(), CommandPackError> {
        for name in args.keys() {
            if !self.fields.iter().any(|(f, _)| f == name) {
                return Err(CommandPackError::UnknownField(name.clone()));
            }
        }
        for (name, ty) in &self.fields {
            let value = *args
                .get(name)
                .ok_or_else(|| CommandPackError::MissingField(name.clone()))?;
            let bits = ty.bits();
            if bits < 64 && value >> bits != 0 {
                return Err(CommandPackError::ValueTooWide {
                    field: name.clone(),
                    value,
                    bits,
                });
            }
        }
        Ok(())
    }
}

/// A response declaration (the paper's `EmptyAccelResponse()` or a custom
/// payload of up to 64 bits).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccelResponseSpec {
    /// Response type name for bindings.
    pub name: String,
    /// Payload bits (0 for empty).
    pub bits: u32,
}

impl AccelResponseSpec {
    /// The empty response.
    pub fn empty() -> Self {
        Self {
            name: "EmptyAccelResponse".to_owned(),
            bits: 0,
        }
    }

    /// A response carrying `bits` (≤64) of payload.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 64`.
    pub fn with_bits(name: impl Into<String>, bits: u32) -> Self {
        assert!(bits <= 64, "response payload limited to 64 bits");
        Self {
            name: name.into(),
            bits,
        }
    }
}

/// Argument values for a command, by field name.
pub type CommandArgs = BTreeMap<String, u64>;

/// A command after packing: the RoCC beat sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedCommand {
    /// The beats, in order.
    pub beats: Vec<RoccCommand>,
}

/// A command after routing and unpacking, as a core receives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnpackedCommand {
    /// Command name (matches the spec).
    pub name: String,
    /// Field values by name.
    pub args: CommandArgs,
    /// Whether the host awaits a response.
    pub expects_response: bool,
}

impl UnpackedCommand {
    /// Fetches a field value.
    ///
    /// # Panics
    ///
    /// Panics if the field is absent (a spec mismatch — programmer error).
    pub fn arg(&self, name: &str) -> u64 {
        *self
            .args
            .get(name)
            .unwrap_or_else(|| panic!("command '{}' has no field '{name}'", self.name))
    }
}

/// Errors from packing arguments against a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandPackError {
    /// An argument was not supplied.
    MissingField(String),
    /// A value does not fit in its declared width.
    ValueTooWide {
        /// Field name.
        field: String,
        /// Supplied value.
        value: u64,
        /// Declared width.
        bits: u32,
    },
    /// An argument name not present in the spec was supplied.
    UnknownField(String),
}

impl std::fmt::Display for CommandPackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandPackError::MissingField(name) => write!(f, "missing argument '{name}'"),
            CommandPackError::ValueTooWide { field, value, bits } => {
                write!(
                    f,
                    "value {value:#x} does not fit field '{field}' of {bits} bits"
                )
            }
            CommandPackError::UnknownField(name) => write!(f, "unknown argument '{name}'"),
        }
    }
}

impl std::error::Error for CommandPackError {}

/// A 128-bit-wide little-endian bit cursor over RoCC beats.
struct BitWriter {
    words: Vec<u64>,
    bit: usize,
}

impl BitWriter {
    fn new() -> Self {
        Self {
            words: vec![0],
            bit: 0,
        }
    }

    fn push(&mut self, value: u64, bits: u32) {
        let mut remaining = bits as usize;
        let mut value = value;
        while remaining > 0 {
            let word = self.bit / 64;
            let offset = self.bit % 64;
            if word >= self.words.len() {
                self.words.push(0);
            }
            let take = remaining.min(64 - offset);
            let mask = if take == 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            self.words[word] |= (value & mask) << offset;
            value = if take == 64 { 0 } else { value >> take };
            self.bit += take;
            remaining -= take;
        }
    }
}

struct BitReader<'a> {
    words: &'a [u64],
    bit: usize,
}

impl<'a> BitReader<'a> {
    fn new(words: &'a [u64]) -> Self {
        Self { words, bit: 0 }
    }

    fn pull(&mut self, bits: u32) -> u64 {
        let mut out = 0u64;
        let mut got = 0usize;
        let mut remaining = bits as usize;
        while remaining > 0 {
            let word = self.bit / 64;
            let offset = self.bit % 64;
            let take = remaining.min(64 - offset);
            let chunk = if word < self.words.len() {
                let mask = if take == 64 {
                    u64::MAX
                } else {
                    (1u64 << take) - 1
                };
                (self.words[word] >> offset) & mask
            } else {
                0
            };
            out |= chunk << got;
            got += take;
            self.bit += take;
            remaining -= take;
        }
        out
    }
}

/// Packs `args` against `spec` into a RoCC beat sequence addressed to
/// `(system_id, core_id)`.
///
/// # Errors
///
/// Returns a [`CommandPackError`] for missing, unknown, or over-wide
/// arguments.
pub fn pack_command(
    spec: &AccelCommandSpec,
    system_id: u16,
    core_id: u16,
    args: &CommandArgs,
) -> Result<PackedCommand, CommandPackError> {
    spec.check(args)?;
    let mut writer = BitWriter::new();
    for (name, ty) in &spec.fields {
        writer.push(args[name], ty.bits());
    }
    let total_beats = spec.beats();
    // Ensure we have 2 words per beat.
    writer.words.resize(total_beats as usize * 2, 0);
    let beats = (0..total_beats)
        .map(|beat| RoccCommand {
            system_id,
            core_id,
            beat,
            total_beats,
            rs1: writer.words[beat as usize * 2],
            rs2: writer.words[beat as usize * 2 + 1],
            expects_response: spec.expects_response,
        })
        .collect();
    Ok(PackedCommand { beats })
}

/// Reassembles a beat sequence back into field values (the hardware-side
/// half of the transparent mapping).
///
/// # Panics
///
/// Panics if the beats are inconsistent (wrong count or ordering) —
/// hardware assembles beats from a reliable FIFO, so this is an internal
/// invariant, not an input validation concern.
pub fn unpack_command(spec: &AccelCommandSpec, beats: &[RoccCommand]) -> UnpackedCommand {
    assert_eq!(beats.len(), spec.beats() as usize, "beat count mismatch");
    for (i, beat) in beats.iter().enumerate() {
        assert_eq!(beat.beat as usize, i, "beats out of order");
    }
    let words: Vec<u64> = beats.iter().flat_map(|b| [b.rs1, b.rs2]).collect();
    let mut reader = BitReader::new(&words);
    let mut args = CommandArgs::new();
    for (name, ty) in &spec.fields {
        args.insert(name.clone(), reader.pull(ty.bits()));
    }
    UnpackedCommand {
        name: spec.name.clone(),
        args,
        expects_response: spec.expects_response,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vecadd_spec() -> AccelCommandSpec {
        // The paper's Figure 2 command: addend, vec_addr, n_eles.
        AccelCommandSpec::new(
            "my_accel",
            vec![
                ("addend".to_owned(), FieldType::U(32)),
                ("vec_addr".to_owned(), FieldType::Address),
                ("n_eles".to_owned(), FieldType::U(20)),
            ],
        )
    }

    fn args(pairs: &[(&str, u64)]) -> CommandArgs {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
    }

    #[test]
    fn figure2_command_packs_into_one_beat() {
        let spec = vecadd_spec();
        assert_eq!(spec.payload_bits(), 116);
        assert_eq!(spec.beats(), 1);
        let packed = pack_command(
            &spec,
            1,
            3,
            &args(&[("addend", 0xCAFE), ("vec_addr", 0x1000), ("n_eles", 256)]),
        )
        .unwrap();
        assert_eq!(packed.beats.len(), 1);
        assert_eq!(packed.beats[0].system_id, 1);
        assert_eq!(packed.beats[0].core_id, 3);
    }

    #[test]
    fn roundtrip_preserves_values() {
        let spec = vecadd_spec();
        let a = args(&[
            ("addend", 0xDEAD_BEEF),
            ("vec_addr", 0x0123_4567_89AB_CDEF),
            ("n_eles", 0xFFFFF),
        ]);
        let packed = pack_command(&spec, 0, 0, &a).unwrap();
        let unpacked = unpack_command(&spec, &packed.beats);
        assert_eq!(unpacked.arg("addend"), 0xDEAD_BEEF);
        assert_eq!(unpacked.arg("vec_addr"), 0x0123_4567_89AB_CDEF);
        assert_eq!(unpacked.arg("n_eles"), 0xFFFFF);
    }

    #[test]
    fn wide_command_spans_multiple_beats() {
        let spec = AccelCommandSpec::new(
            "wide",
            vec![
                ("a".to_owned(), FieldType::Address),
                ("b".to_owned(), FieldType::Address),
                ("c".to_owned(), FieldType::Address),
                ("d".to_owned(), FieldType::U(17)),
            ],
        );
        assert_eq!(spec.beats(), 2);
        let a = args(&[("a", u64::MAX), ("b", 1), ("c", 2), ("d", 0x1ABCD)]);
        let packed = pack_command(&spec, 0, 0, &a).unwrap();
        assert_eq!(packed.beats.len(), 2);
        let unpacked = unpack_command(&spec, &packed.beats);
        assert_eq!(unpacked.arg("a"), u64::MAX);
        assert_eq!(unpacked.arg("d"), 0x1ABCD);
    }

    #[test]
    fn value_too_wide_is_rejected() {
        let spec = vecadd_spec();
        let err = pack_command(
            &spec,
            0,
            0,
            &args(&[("addend", 1 << 40), ("vec_addr", 0), ("n_eles", 0)]),
        )
        .unwrap_err();
        assert!(matches!(err, CommandPackError::ValueTooWide { .. }));
    }

    #[test]
    fn missing_and_unknown_fields_rejected() {
        let spec = vecadd_spec();
        assert!(matches!(
            pack_command(&spec, 0, 0, &args(&[("addend", 1)])),
            Err(CommandPackError::MissingField(_))
        ));
        assert!(matches!(
            pack_command(
                &spec,
                0,
                0,
                &args(&[("addend", 1), ("vec_addr", 0), ("n_eles", 0), ("bogus", 9)])
            ),
            Err(CommandPackError::UnknownField(_))
        ));
    }

    #[test]
    fn empty_field_list_still_one_beat() {
        let spec = AccelCommandSpec::new("ping", vec![]);
        assert_eq!(spec.beats(), 1);
        let packed = pack_command(&spec, 2, 5, &CommandArgs::new()).unwrap();
        assert_eq!(packed.beats.len(), 1);
        let unpacked = unpack_command(&spec, &packed.beats);
        assert!(unpacked.args.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate field")]
    fn duplicate_fields_panic() {
        AccelCommandSpec::new(
            "dup",
            vec![
                ("x".to_owned(), FieldType::U(8)),
                ("x".to_owned(), FieldType::U(8)),
            ],
        );
    }

    #[test]
    fn response_spec_limits() {
        assert_eq!(AccelResponseSpec::empty().bits, 0);
        assert_eq!(AccelResponseSpec::with_bits("sum", 32).bits, 32);
    }

    proptest! {
        #[test]
        fn pack_unpack_roundtrip(
            widths in proptest::collection::vec(1u32..=64, 1..8),
            seed in any::<u64>(),
        ) {
            let fields: Vec<(String, FieldType)> = widths
                .iter()
                .enumerate()
                .map(|(i, &w)| (format!("f{i}"), FieldType::U(w)))
                .collect();
            let spec = AccelCommandSpec::new("prop", fields.clone());
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state
            };
            let mut a = CommandArgs::new();
            for (name, ty) in &fields {
                let bits = ty.bits();
                let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
                a.insert(name.clone(), next() & mask);
            }
            let packed = pack_command(&spec, 0, 0, &a).unwrap();
            let unpacked = unpack_command(&spec, &packed.beats);
            prop_assert_eq!(unpacked.args, a);
        }
    }
}
