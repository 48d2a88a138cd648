//! Accelerator configuration: the paper's Figure 3a objects.
//!
//! "Configurations allow the developer to declare memory interfaces for a
//! Core, change the number of Cores in a System, or add new Systems to
//! Beethoven without modifying the functional description of their
//! design." (§II-B.)

use bplatform::ResourceVector;

use crate::command::{AccelCommandSpec, AccelResponseSpec};
use crate::core::{AcceleratorCore, PortTable};
use crate::intracore::{IntraCoreMemoryPortInConfig, IntraCoreMemoryPortOutConfig};

/// Declares a read stream (`ReadChannelConfig(name, dataBytes, nChannels)`
/// in the paper's appendix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadChannelConfig {
    /// Stream name, resolved by [`PortTable::reader`].
    pub name: String,
    /// Core-side port width in bytes.
    pub data_bytes: u32,
    /// Number of independent channels under this name.
    pub n_channels: u32,
}

impl ReadChannelConfig {
    /// A single-channel read stream.
    pub fn new(name: impl Into<String>, data_bytes: u32) -> Self {
        Self {
            name: name.into(),
            data_bytes,
            n_channels: 1,
        }
    }

    /// Sets the channel count.
    pub fn with_channels(mut self, n: u32) -> Self {
        self.n_channels = n;
        self
    }
}

/// Declares a write stream (`WriteChannelConfig` in the appendix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteChannelConfig {
    /// Stream name, resolved by [`PortTable::writer`].
    pub name: String,
    /// Core-side port width in bytes.
    pub data_bytes: u32,
    /// Number of independent channels under this name.
    pub n_channels: u32,
}

impl WriteChannelConfig {
    /// A single-channel write stream.
    pub fn new(name: impl Into<String>, data_bytes: u32) -> Self {
        Self {
            name: name.into(),
            data_bytes,
            n_channels: 1,
        }
    }

    /// Sets the channel count.
    pub fn with_channels(mut self, n: u32) -> Self {
        self.n_channels = n;
        self
    }
}

/// Declares a scratchpad (`ScratchpadConfig` in the appendix). When
/// `init_reader` names a read channel, [`crate::Scratchpad::start_init`]
/// fills the memory from DRAM through that channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScratchpadConfig {
    /// Scratchpad name, resolved by [`PortTable::scratchpad`].
    pub name: String,
    /// Word width in bits (≤ 64 in this reproduction).
    pub data_width_bits: u32,
    /// Number of words.
    pub n_datas: usize,
    /// Access ports.
    pub n_ports: u32,
    /// Access latency in cycles.
    pub latency: u32,
    /// Physical replication/banking factor: memories read wider than two
    /// ports per cycle are replicated on FPGAs (BRAM/URAM are dual-ported).
    /// Counted by the elaborator's resource accounting; functionally
    /// transparent.
    pub copies: u32,
}

impl ScratchpadConfig {
    /// A single-port scratchpad with 1-cycle latency.
    pub fn new(name: impl Into<String>, data_width_bits: u32, n_datas: usize) -> Self {
        Self {
            name: name.into(),
            data_width_bits,
            n_datas,
            n_ports: 1,
            latency: 1,
            copies: 1,
        }
    }

    /// Sets the physical replication factor (see the `copies` field).
    pub fn with_copies(mut self, copies: u32) -> Self {
        self.copies = copies.max(1);
        self
    }

    /// Sets the port count.
    pub fn with_ports(mut self, n: u32) -> Self {
        self.n_ports = n;
        self
    }

    /// Sets the access latency.
    pub fn with_latency(mut self, latency: u32) -> Self {
        self.latency = latency;
        self
    }

    /// Total bits stored.
    pub fn bits(&self) -> u64 {
        u64::from(self.data_width_bits) * self.n_datas as u64
    }
}

/// One memory interface declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryChannelConfig {
    /// A streaming read port.
    Read(ReadChannelConfig),
    /// A streaming write port.
    Write(WriteChannelConfig),
    /// An on-chip scratchpad.
    Scratchpad(ScratchpadConfig),
    /// A scratchpad writable from other cores on chip.
    IntraIn(IntraCoreMemoryPortInConfig),
    /// A write port into another system's In port.
    IntraOut(IntraCoreMemoryPortOutConfig),
}

impl MemoryChannelConfig {
    /// The declared channel name.
    pub fn name(&self) -> &str {
        match self {
            MemoryChannelConfig::Read(c) => &c.name,
            MemoryChannelConfig::Write(c) => &c.name,
            MemoryChannelConfig::Scratchpad(c) => &c.name,
            MemoryChannelConfig::IntraIn(c) => &c.name,
            MemoryChannelConfig::IntraOut(c) => &c.name,
        }
    }
}

/// Builds fresh core instances at elaboration (`moduleConstructor` in the
/// paper's configuration). It receives the core's [`PortTable`] and
/// resolves there the handles of every port the core uses.
pub type CoreFactory = Box<dyn Fn(&PortTable) -> Box<dyn AcceleratorCore + Send>>;

/// One Beethoven *System*: `nCores` identical cores sharing a command
/// format and memory interface declarations.
pub struct SystemConfig {
    /// System name (becomes the generated binding namespace).
    pub name: String,
    /// Number of identical cores.
    pub n_cores: u32,
    /// The custom command the cores accept.
    pub command: AccelCommandSpec,
    /// The response they produce.
    pub response: AccelResponseSpec,
    /// Declared memory interfaces.
    pub memory_channels: Vec<MemoryChannelConfig>,
    /// Logic-only resource footprint of one core (kernel datapath,
    /// excluding Beethoven-managed memories, which are accounted by the
    /// elaborator). Defaults to a small-kernel estimate.
    pub core_logic: ResourceVector,
    pub(crate) factory: CoreFactory,
}

impl SystemConfig {
    /// Creates a system; customize with the `with_*` builders.
    pub fn new(
        name: impl Into<String>,
        n_cores: u32,
        command: AccelCommandSpec,
        factory: impl Fn(&PortTable) -> Box<dyn AcceleratorCore + Send> + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            n_cores,
            command,
            response: AccelResponseSpec::empty(),
            memory_channels: Vec::new(),
            core_logic: ResourceVector::new(1_500, 9_000, 9_000, 0, 0, 8),
            factory: Box::new(factory),
        }
    }

    /// Adds a memory channel declaration.
    pub fn with_channel(mut self, channel: MemoryChannelConfig) -> Self {
        self.memory_channels.push(channel);
        self
    }

    /// Adds a read channel.
    pub fn with_read(self, cfg: ReadChannelConfig) -> Self {
        self.with_channel(MemoryChannelConfig::Read(cfg))
    }

    /// Adds a write channel.
    pub fn with_write(self, cfg: WriteChannelConfig) -> Self {
        self.with_channel(MemoryChannelConfig::Write(cfg))
    }

    /// Adds a scratchpad.
    pub fn with_scratchpad(self, cfg: ScratchpadConfig) -> Self {
        self.with_channel(MemoryChannelConfig::Scratchpad(cfg))
    }

    /// Adds a remotely-writable scratchpad (core-to-core In port).
    pub fn with_intra_in(self, cfg: IntraCoreMemoryPortInConfig) -> Self {
        self.with_channel(MemoryChannelConfig::IntraIn(cfg))
    }

    /// Adds a write port into another system's In port.
    pub fn with_intra_out(self, cfg: IntraCoreMemoryPortOutConfig) -> Self {
        self.with_channel(MemoryChannelConfig::IntraOut(cfg))
    }

    /// Overrides the per-core logic footprint estimate.
    pub fn with_core_logic(mut self, logic: ResourceVector) -> Self {
        self.core_logic = logic;
        self
    }

    /// Total streaming ports (read + write channels) per core.
    /// Scratchpads initialize through an already-declared Reader, so they
    /// add no port of their own.
    pub fn ports_per_core(&self) -> u32 {
        self.memory_channels
            .iter()
            .map(|c| match c {
                MemoryChannelConfig::Read(r) => r.n_channels,
                MemoryChannelConfig::Write(w) => w.n_channels,
                MemoryChannelConfig::Scratchpad(_)
                | MemoryChannelConfig::IntraIn(_)
                | MemoryChannelConfig::IntraOut(_) => 0,
            })
            .sum()
    }
}

impl std::fmt::Debug for SystemConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemConfig")
            .field("name", &self.name)
            .field("n_cores", &self.n_cores)
            .field("command", &self.command.name)
            .field("memory_channels", &self.memory_channels.len())
            .finish()
    }
}

/// The top-level accelerator: one or more Systems (§II-A: "The developer
/// may instantiate multiple Beethoven Systems if they desire multiple
/// functions on their accelerator").
#[derive(Default)]
pub struct AcceleratorConfig {
    /// The systems to compose.
    pub systems: Vec<SystemConfig>,
}

impl AcceleratorConfig {
    /// An empty accelerator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a system (chainable).
    #[must_use]
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.systems.push(system);
        self
    }

    /// Looks up a system id by name.
    pub fn system_id(&self, name: &str) -> Option<u16> {
        self.systems
            .iter()
            .position(|s| s.name == name)
            .map(|i| i as u16)
    }

    /// Total cores across systems.
    pub fn total_cores(&self) -> u32 {
        self.systems.iter().map(|s| s.n_cores).sum()
    }
}

impl std::fmt::Debug for AcceleratorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcceleratorConfig")
            .field("systems", &self.systems)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::FieldType;
    use crate::core::CoreContext;

    struct NullCore;

    impl AcceleratorCore for NullCore {
        fn tick(&mut self, _sim: &bsim::SimCtx, _ctx: &mut CoreContext) {}
    }

    fn spec() -> AccelCommandSpec {
        AccelCommandSpec::new("go", vec![("n".to_owned(), FieldType::U(16))])
    }

    #[test]
    fn builder_chain_produces_expected_shape() {
        let sys = SystemConfig::new("vecadd", 4, spec(), |_| Box::new(NullCore))
            .with_read(ReadChannelConfig::new("vec_in", 4))
            .with_write(WriteChannelConfig::new("vec_out", 4))
            .with_scratchpad(ScratchpadConfig::new("lut", 32, 256).with_latency(2));
        assert_eq!(sys.n_cores, 4);
        assert_eq!(sys.memory_channels.len(), 3);
        assert_eq!(sys.ports_per_core(), 2, "scratchpads add no streaming port");
    }

    #[test]
    fn accelerator_indexes_systems_by_name() {
        let acc = AcceleratorConfig::new()
            .with_system(SystemConfig::new("a", 1, spec(), |_| Box::new(NullCore)))
            .with_system(SystemConfig::new("b", 2, spec(), |_| Box::new(NullCore)));
        assert_eq!(acc.system_id("a"), Some(0));
        assert_eq!(acc.system_id("b"), Some(1));
        assert_eq!(acc.system_id("c"), None);
        assert_eq!(acc.total_cores(), 3);
    }

    #[test]
    fn multichannel_counts() {
        let sys = SystemConfig::new("x", 1, spec(), |_| Box::new(NullCore))
            .with_read(ReadChannelConfig::new("a", 8).with_channels(3));
        assert_eq!(sys.ports_per_core(), 3);
    }

    #[test]
    fn scratchpad_bits() {
        let sp = ScratchpadConfig::new("sp", 18, 1000);
        assert_eq!(sp.bits(), 18_000);
    }
}
