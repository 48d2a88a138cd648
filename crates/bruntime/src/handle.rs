//! [`FpgaHandle`]: the user-library + runtime-server pair of §II-C.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bcore::{CommandToken, MmioRegister, SocSim};
use bplatform::AddressSpace;
use bsim::{Cycle, SparseMemory};

use crate::alloc::{AllocError, DeviceAllocator};

/// A pointer into accelerator-visible memory (the paper's `remote_ptr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemotePtr {
    addr: u64,
    len: u64,
}

impl RemotePtr {
    /// The device address (what gets packed into `Address` command fields).
    pub fn device_addr(&self) -> u64 {
        self.addr
    }

    /// Allocation length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the allocation is zero-length (never true for live ptrs).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-range of this allocation, `offset` bytes in.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the allocation.
    pub fn offset(&self, offset: u64) -> RemotePtr {
        assert!(offset <= self.len, "offset beyond allocation");
        RemotePtr {
            addr: self.addr + offset,
            len: self.len - offset,
        }
    }
}

/// Host-side timing knobs for the runtime server model.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOptions {
    /// Cost of acquiring/releasing the runtime server lock per command
    /// (mutex + queueing in the userspace server).
    pub lock_overhead_ns: u64,
    /// Interval between response-poll reads while blocked in `get()`.
    pub poll_interval_ns: u64,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        Self {
            lock_overhead_ns: 400,
            poll_interval_ns: 500,
        }
    }
}

/// Aggregate runtime statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RuntimeStats {
    /// Commands submitted.
    pub commands: u64,
    /// Responses retrieved.
    pub responses: u64,
    /// DMA bytes moved host→device.
    pub dma_to_device_bytes: u64,
    /// DMA bytes moved device→host.
    pub dma_from_device_bytes: u64,
    /// Host nanoseconds spent inside the serialized runtime server
    /// (lock + MMIO) — the Figure-6 contention term.
    pub server_busy_ns: u64,
}

/// Errors from [`FpgaHandle::call`] and friends.
#[derive(Debug)]
pub enum CallError {
    /// No system with that name exists on the device.
    UnknownSystem(String),
    /// The underlying send failed (bad core index or arguments).
    Send(bcore::soc::SendError),
    /// Allocation failed. Carries enough context for a multi-session
    /// caller to distinguish genuine memory pressure from fragmentation
    /// without reaching back into the shared allocator.
    Alloc {
        /// The underlying allocator failure.
        error: AllocError,
        /// Bytes the caller asked for (pre-alignment).
        requested: u64,
        /// The shared allocator's peak concurrently-allocated bytes at
        /// failure time ([`DeviceAllocator::high_water_mark`]).
        high_water: u64,
    },
    /// A blocking `get` exceeded its cycle budget.
    Timeout {
        /// Cycles waited.
        waited: Cycle,
    },
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::UnknownSystem(name) => write!(f, "no system named '{name}'"),
            CallError::Send(e) => write!(f, "command send failed: {e}"),
            CallError::Alloc {
                error,
                requested,
                high_water,
            } => write!(
                f,
                "allocation failed: {error} (requested {requested} bytes, \
                 allocator high-water mark {high_water} bytes)"
            ),
            CallError::Timeout { waited } => write!(f, "response timed out after {waited} cycles"),
        }
    }
}

impl std::error::Error for CallError {}

struct Inner {
    soc: SocSim,
    allocator: DeviceAllocator,
    /// Host-side shadow of device memory for discrete platforms: sparse,
    /// so an allocation costs host memory only for the pages written.
    host_shadow: SparseMemory,
    opts: RuntimeOptions,
    stats: RuntimeStats,
    /// Default budget for blocking `get`s, fabric cycles.
    get_timeout_cycles: Cycle,
    /// Session ids handed out so far (see [`FpgaHandle::open_session`]).
    next_session: u32,
}

impl Inner {
    /// Panics unless `ptr` names a live allocation: a freed range of the
    /// shadow reads as zeros and must not be reached through a stale
    /// pointer.
    fn assert_live(&self, ptr: RemotePtr) {
        assert!(
            self.allocator.allocation_len(ptr.addr).is_some(),
            "discrete-platform access through a freed or foreign pointer"
        );
    }

    /// Advances the device while `ns` of host time passes.
    ///
    /// The poll cadence is part of the modelled host timing (responses are
    /// observed at poll boundaries); the underlying `run_for` fast-forwards
    /// across quiescent stretches inside each chunk, so idle polling is
    /// cheap in host time without changing any observed cycle.
    fn advance_ns(&mut self, ns: u64) {
        let cycles = self.soc.clock().ps_to_cycles(ns * 1000);
        self.soc.run_for(cycles);
    }
}

/// The paper's `fpga_handle_t`: owns the device simulation, the allocator,
/// and the (serialized) runtime server. Clone freely — clones share state,
/// like multiple library handles talking to one runtime server.
#[derive(Clone)]
pub struct FpgaHandle {
    inner: Arc<Mutex<Inner>>,
}

/// The paper's `response_handle<T>`: poll or block for a command's
/// completion.
#[derive(Clone)]
pub struct ResponseHandle {
    inner: Arc<Mutex<Inner>>,
    token: CommandToken,
    resolved: Arc<Mutex<Option<u64>>>,
}

impl FpgaHandle {
    /// Opens a handle over a composed SoC.
    pub fn new(soc: SocSim) -> Self {
        Self::with_options(soc, RuntimeOptions::default())
    }

    /// Opens a handle with explicit runtime timing options.
    pub fn with_options(soc: SocSim, opts: RuntimeOptions) -> Self {
        let platform = soc.platform().clone();
        let allocator = DeviceAllocator::new(platform.mem_base.max(4096), platform.mem_size);
        Self {
            inner: Arc::new(Mutex::new(Inner {
                soc,
                allocator,
                host_shadow: SparseMemory::new(),
                opts,
                stats: RuntimeStats::default(),
                get_timeout_cycles: 2_000_000_000,
                next_session: 0,
            })),
        }
    }

    /// Allocates accelerator-visible memory.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn malloc(&self, n_bytes: u64) -> Result<RemotePtr, CallError> {
        let mut inner = self.inner.lock().expect("runtime lock poisoned");
        let addr = inner
            .allocator
            .malloc(n_bytes)
            .map_err(|error| CallError::Alloc {
                error,
                requested: n_bytes,
                high_water: inner.allocator.high_water_mark(),
            })?;
        let len = inner
            .allocator
            .allocation_len(addr)
            .expect("just allocated");
        Ok(RemotePtr { addr, len })
    }

    /// Releases an allocation.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures (double free, foreign pointer).
    pub fn free(&self, ptr: RemotePtr) -> Result<(), CallError> {
        let mut inner = self.inner.lock().expect("runtime lock poisoned");
        inner
            .allocator
            .free(ptr.addr)
            .map_err(|error| CallError::Alloc {
                error,
                requested: ptr.len,
                high_water: inner.allocator.high_water_mark(),
            })?;
        // A later allocation of this range must read zeros, as a fresh
        // shadow would.
        inner.host_shadow.clear_range(ptr.addr, ptr.len);
        Ok(())
    }

    /// Writes host data at `ptr + offset`. On embedded (shared-memory)
    /// platforms this is immediately accelerator-visible; on discrete
    /// platforms it lands in the host shadow until
    /// [`FpgaHandle::copy_to_fpga`].
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the allocation.
    pub fn write_at(&self, ptr: RemotePtr, offset: u64, data: &[u8]) {
        assert!(
            offset + data.len() as u64 <= ptr.len,
            "write beyond allocation"
        );
        let mut inner = self.inner.lock().expect("runtime lock poisoned");
        match inner.soc.platform().address_space {
            AddressSpace::Shared => {
                inner
                    .soc
                    .memory()
                    .borrow_mut()
                    .write(ptr.addr + offset, data);
            }
            AddressSpace::Discrete => {
                inner.assert_live(ptr);
                inner.host_shadow.write(ptr.addr + offset, data);
            }
        }
    }

    /// Reads host-visible data at `ptr + offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the allocation.
    pub fn read_at(&self, ptr: RemotePtr, offset: u64, len: usize) -> Vec<u8> {
        assert!(offset + len as u64 <= ptr.len, "read beyond allocation");
        let inner = self.inner.lock().expect("runtime lock poisoned");
        match inner.soc.platform().address_space {
            AddressSpace::Shared => inner.soc.memory().borrow().read_vec(ptr.addr + offset, len),
            AddressSpace::Discrete => {
                inner.assert_live(ptr);
                inner.host_shadow.read_vec(ptr.addr + offset, len)
            }
        }
    }

    /// Convenience: write a `u32` slice at offset 0.
    pub fn write_u32_slice(&self, ptr: RemotePtr, values: &[u32]) {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write_at(ptr, 0, &bytes);
    }

    /// Convenience: read a `u32` slice from offset 0.
    pub fn read_u32_slice(&self, ptr: RemotePtr, count: usize) -> Vec<u32> {
        self.read_at(ptr, 0, count * 4)
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// DMA host→device (no-op on shared-memory platforms). Advances
    /// simulated time by the platform's DMA cost model.
    pub fn copy_to_fpga(&self, ptr: RemotePtr) {
        let mut inner = self.inner.lock().expect("runtime lock poisoned");
        if inner.soc.platform().address_space == AddressSpace::Shared {
            return;
        }
        inner.assert_live(ptr);
        let data = inner.host_shadow.read_vec(ptr.addr, ptr.len as usize);
        inner.soc.memory().borrow_mut().write(ptr.addr, &data);
        let link = inner.soc.platform().host_link;
        let ns = link.dma_setup_ns + data.len() as u64 * 1_000_000_000 / link.dma_bytes_per_sec;
        inner.stats.dma_to_device_bytes += data.len() as u64;
        inner.advance_ns(ns);
    }

    /// DMA device→host (no-op on shared-memory platforms).
    pub fn copy_from_fpga(&self, ptr: RemotePtr) {
        let mut inner = self.inner.lock().expect("runtime lock poisoned");
        if inner.soc.platform().address_space == AddressSpace::Shared {
            return;
        }
        let data = inner
            .soc
            .memory()
            .borrow()
            .read_vec(ptr.addr, ptr.len as usize);
        let link = inner.soc.platform().host_link;
        let ns = link.dma_setup_ns + data.len() as u64 * 1_000_000_000 / link.dma_bytes_per_sec;
        inner.stats.dma_from_device_bytes += data.len() as u64;
        inner.host_shadow.write(ptr.addr, &data);
        inner.advance_ns(ns);
    }

    /// Sends a custom command through the runtime server. `args` are the
    /// command's named fields (the generated bindings build this map).
    ///
    /// Models the serialized server: lock acquisition plus one MMIO write
    /// per RoCC beat, during which the device keeps running.
    ///
    /// # Errors
    ///
    /// [`CallError::UnknownSystem`] or a packing/routing failure.
    pub fn call(
        &self,
        system: &str,
        core_idx: u16,
        args: std::collections::BTreeMap<String, u64>,
    ) -> Result<ResponseHandle, CallError> {
        let mut inner = self.inner.lock().expect("runtime lock poisoned");
        let sys_id = inner
            .soc
            .system_id(system)
            .ok_or_else(|| CallError::UnknownSystem(system.to_owned()))?;
        let link = inner.soc.platform().host_link;
        // Serialized server work: lock + MMIO writes (5 words per beat).
        let server_ns = inner.opts.lock_overhead_ns + link.mmio_latency_ns;
        inner.advance_ns(server_ns);
        inner.stats.server_busy_ns += server_ns;
        let token = loop {
            match inner.soc.send_command(sys_id, core_idx, &args) {
                Ok(t) => break t,
                Err(bcore::soc::SendError::QueueFull) => {
                    // Command FIFO full: the server spins on the MMIO
                    // status register.
                    let spin = inner.opts.poll_interval_ns.max(1);
                    inner.advance_ns(spin);
                    inner.stats.server_busy_ns += spin;
                }
                Err(e) => return Err(CallError::Send(e)),
            }
        };
        inner.stats.commands += 1;
        Ok(ResponseHandle {
            inner: Arc::clone(&self.inner),
            token,
            resolved: Arc::new(Mutex::new(None)),
        })
    }

    /// Sends a batch of commands to `system` under a single lock
    /// acquisition — the micro-batched server visit. The first command
    /// pays exactly what [`FpgaHandle::call`] pays (lock overhead plus
    /// one MMIO write), each subsequent command only its own MMIO write:
    /// the serialized bus traffic stays, the per-command lock trip is
    /// amortized. A one-item batch is cycle-identical to `call`.
    ///
    /// Returns one `(handle, cycle)` pair per item, where the cycle is
    /// the fabric time that command entered its core's FIFO (later items
    /// land later by the MMIO gap). Callers are expected to have
    /// verified FIFO capacity via [`FpgaHandle::with_soc`]; unlike
    /// `call`, a full queue is an error here, not a spin — though the
    /// lock and first-MMIO time has already been charged by then, as it
    /// would be on the real server.
    ///
    /// # Errors
    ///
    /// [`CallError::UnknownSystem`] or a packing/routing/capacity
    /// failure ([`CallError::Send`]). Failed batches send nothing.
    pub fn call_batch(
        &self,
        system: &str,
        items: &[(u16, std::collections::BTreeMap<String, u64>)],
    ) -> Result<Vec<(ResponseHandle, Cycle)>, CallError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let mut inner = self.inner.lock().expect("runtime lock poisoned");
        let sys_id = inner
            .soc
            .system_id(system)
            .ok_or_else(|| CallError::UnknownSystem(system.to_owned()))?;
        let link = inner.soc.platform().host_link;
        // First command: same serialized server work as `call`.
        let server_ns = inner.opts.lock_overhead_ns + link.mmio_latency_ns;
        inner.advance_ns(server_ns);
        // Each later command holds the server for one more MMIO write;
        // the device-time gaps are applied inside `submit_batch` (same
        // ns→cycle arithmetic as `advance_ns`, one conversion per item,
        // so a batch matches the equivalent serial MMIO advances).
        inner.stats.server_busy_ns += server_ns + (items.len() as u64 - 1) * link.mmio_latency_ns;
        let gap_cycles = inner.soc.clock().ps_to_cycles(link.mmio_latency_ns * 1000);
        let refs: Vec<(u16, &std::collections::BTreeMap<String, u64>)> =
            items.iter().map(|(core, args)| (*core, args)).collect();
        let sent = inner
            .soc
            .submit_batch(sys_id, &refs, gap_cycles)
            .map_err(CallError::Send)?;
        inner.stats.commands += items.len() as u64;
        Ok(sent
            .into_iter()
            .map(|(token, at)| {
                (
                    ResponseHandle {
                        inner: Arc::clone(&self.inner),
                        token,
                        resolved: Arc::new(Mutex::new(None)),
                    },
                    at,
                )
            })
            .collect())
    }

    /// Runs the device for `cycles` fabric cycles (host idle).
    pub fn run_for(&self, cycles: Cycle) {
        self.inner
            .lock()
            .expect("runtime lock poisoned")
            .soc
            .run_for(cycles);
    }

    /// Current fabric cycle.
    pub fn now(&self) -> Cycle {
        self.inner.lock().expect("runtime lock poisoned").soc.now()
    }

    /// Elapsed simulated wall-clock seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.inner
            .lock()
            .expect("runtime lock poisoned")
            .soc
            .elapsed_secs()
    }

    /// Runtime statistics.
    pub fn stats(&self) -> RuntimeStats {
        self.inner.lock().expect("runtime lock poisoned").stats
    }

    /// Borrows the device for direct inspection (stats, tracer, report).
    pub fn with_soc<R>(&self, f: impl FnOnce(&mut SocSim) -> R) -> R {
        f(&mut self.inner.lock().expect("runtime lock poisoned").soc)
    }

    /// Turns the device's gated performance counters on or off (a debug
    /// control register in the real shell; free of host-time cost here).
    pub fn set_profiling(&self, enabled: bool) {
        self.inner
            .lock()
            .expect("runtime lock poisoned")
            .soc
            .set_profiling(enabled);
    }

    /// Sorted flattened counter names — the MMIO counter window's index
    /// space. The real runtime gets this map from the generated platform
    /// header, so reading it costs no device traffic.
    pub fn counter_names(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("runtime lock poisoned")
            .soc
            .perf()
            .counter_names()
    }

    /// Reads one performance counter by name through the MMIO counter
    /// window — usable mid-run. Costs three MMIO round trips of simulated
    /// host time (select write, then the two data-word reads); the select
    /// write latches the 64-bit value, so the device advancing between the
    /// two reads cannot tear it.
    ///
    /// Returns `None` for a name the window does not expose.
    pub fn read_counter(&self, name: &str) -> Option<u64> {
        let mut inner = self.inner.lock().expect("runtime lock poisoned");
        let link_ns = inner.soc.platform().host_link.mmio_latency_ns;
        inner.advance_ns(link_ns);
        // Resolve the index only after the link delay: counter names
        // materialize lazily as components first touch their stats bags, so
        // advancing the device could shift the window's index space.
        let idx = inner
            .soc
            .perf()
            .counter_names()
            .iter()
            .position(|n| n == name)? as u32;
        inner.soc.mmio_write(MmioRegister::PerfSelect, idx);
        inner.advance_ns(link_ns);
        let lo = u64::from(inner.soc.mmio_read(MmioRegister::PerfDataLo));
        inner.advance_ns(link_ns);
        let hi = u64::from(inner.soc.mmio_read(MmioRegister::PerfDataHi));
        Some((hi << 32) | lo)
    }

    /// Snapshot of every counter (sorted `path/name` pairs, baseline-
    /// subtracted). A host-side bulk read; costs no simulated time.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        self.inner
            .lock()
            .expect("runtime lock poisoned")
            .soc
            .perf_counters()
    }

    /// Per-counter difference between the current values and an earlier
    /// [`FpgaHandle::counter_snapshot`] (counters absent from `before`
    /// count from zero).
    pub fn counter_delta(&self, before: &[(String, u64)]) -> Vec<(String, u64)> {
        let base: HashMap<&str, u64> = before.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        self.counter_snapshot()
            .into_iter()
            .map(|(n, v)| {
                let b = base.get(n.as_str()).copied().unwrap_or(0);
                (n, v.saturating_sub(b))
            })
            .collect()
    }

    /// Rebases every counter to zero (snapshot-subtract semantics: the
    /// device-side sources are never written, matching a real PMU whose
    /// counters may be load-bearing).
    pub fn reset_counters(&self) {
        self.inner
            .lock()
            .expect("runtime lock poisoned")
            .soc
            .reset_perf();
    }

    /// Sets the blocking-`get` budget in fabric cycles.
    pub fn set_get_timeout(&self, cycles: Cycle) {
        self.inner
            .lock()
            .expect("runtime lock poisoned")
            .get_timeout_cycles = cycles;
    }

    /// The runtime timing options this handle was opened with.
    pub fn options(&self) -> RuntimeOptions {
        self.inner.lock().expect("runtime lock poisoned").opts
    }

    /// Advances the device while `ns` of host time passes — the primitive a
    /// runtime-server layer (`bserver`) uses to charge its own host-side
    /// costs (lock arbitration, MMIO traffic) against the shared clock.
    pub fn advance_ns(&self, ns: u64) {
        self.inner
            .lock()
            .expect("runtime lock poisoned")
            .advance_ns(ns);
    }

    /// Opens a client session over this handle's runtime server. Sessions
    /// share the device, the allocator, and simulated time (one `SocSim`
    /// behind one server), but keep their own submission statistics — the
    /// multi-tenant shape `bserver` arbitrates between.
    pub fn open_session(&self) -> SessionHandle {
        let id = {
            let mut inner = self.inner.lock().expect("runtime lock poisoned");
            let id = inner.next_session;
            inner.next_session += 1;
            id
        };
        SessionHandle {
            handle: self.clone(),
            id,
            stats: Arc::new(Mutex::new(SessionStats::default())),
        }
    }
}

/// Per-session statistics (see [`FpgaHandle::open_session`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Commands this session submitted.
    pub commands: u64,
    /// Allocations this session performed.
    pub mallocs: u64,
    /// Frees this session performed.
    pub frees: u64,
    /// Bytes currently allocated by this session (post-alignment).
    pub live_bytes: u64,
}

/// One client session over a shared [`FpgaHandle`]: same device, same
/// allocator, same simulated clock, separate bookkeeping. Clone freely —
/// clones share the session.
#[derive(Clone)]
pub struct SessionHandle {
    handle: FpgaHandle,
    id: u32,
    stats: Arc<Mutex<SessionStats>>,
}

impl SessionHandle {
    /// The session's id (dense, in open order).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The shared handle this session was opened from.
    pub fn handle(&self) -> &FpgaHandle {
        &self.handle
    }

    /// This session's statistics.
    pub fn stats(&self) -> SessionStats {
        *self.stats.lock().expect("runtime lock poisoned")
    }

    /// Allocates accelerator-visible memory from the shared allocator.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures with request/high-water context.
    pub fn malloc(&self, n_bytes: u64) -> Result<RemotePtr, CallError> {
        let ptr = self.handle.malloc(n_bytes)?;
        let mut stats = self.stats.lock().expect("runtime lock poisoned");
        stats.mallocs += 1;
        stats.live_bytes += ptr.len();
        Ok(ptr)
    }

    /// Releases an allocation back to the shared allocator.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures (double free, foreign pointer).
    pub fn free(&self, ptr: RemotePtr) -> Result<(), CallError> {
        self.handle.free(ptr)?;
        let mut stats = self.stats.lock().expect("runtime lock poisoned");
        stats.frees += 1;
        stats.live_bytes = stats.live_bytes.saturating_sub(ptr.len());
        Ok(())
    }

    /// Writes host data at `ptr + offset` (see [`FpgaHandle::write_at`]).
    pub fn write_at(&self, ptr: RemotePtr, offset: u64, data: &[u8]) {
        self.handle.write_at(ptr, offset, data);
    }

    /// Reads host-visible data at `ptr + offset` (see
    /// [`FpgaHandle::read_at`]).
    pub fn read_at(&self, ptr: RemotePtr, offset: u64, len: usize) -> Vec<u8> {
        self.handle.read_at(ptr, offset, len)
    }

    /// Convenience: write a `u32` slice at offset 0.
    pub fn write_u32_slice(&self, ptr: RemotePtr, values: &[u32]) {
        self.handle.write_u32_slice(ptr, values);
    }

    /// Convenience: read a `u32` slice from offset 0.
    pub fn read_u32_slice(&self, ptr: RemotePtr, count: usize) -> Vec<u32> {
        self.handle.read_u32_slice(ptr, count)
    }

    /// DMA host→device (see [`FpgaHandle::copy_to_fpga`]).
    pub fn copy_to_fpga(&self, ptr: RemotePtr) {
        self.handle.copy_to_fpga(ptr);
    }

    /// DMA device→host (see [`FpgaHandle::copy_from_fpga`]).
    pub fn copy_from_fpga(&self, ptr: RemotePtr) {
        self.handle.copy_from_fpga(ptr);
    }

    /// Sends a command through the shared runtime server (see
    /// [`FpgaHandle::call`]).
    ///
    /// # Errors
    ///
    /// See [`FpgaHandle::call`].
    pub fn call(
        &self,
        system: &str,
        core_idx: u16,
        args: std::collections::BTreeMap<String, u64>,
    ) -> Result<ResponseHandle, CallError> {
        let resp = self.handle.call(system, core_idx, args)?;
        self.stats.lock().expect("runtime lock poisoned").commands += 1;
        Ok(resp)
    }

    /// Credits `n` submitted commands to this session's statistics.
    ///
    /// A batched server visit ([`FpgaHandle::call_batch`]) can carry
    /// commands from several sessions at once, so the shared-handle call
    /// cannot do the per-session bookkeeping itself; the dispatcher
    /// calls this per session after the batch lands.
    pub fn note_commands(&self, n: u64) {
        self.stats.lock().expect("runtime lock poisoned").commands += n;
    }
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("id", &self.id)
            .field("stats", &*self.stats.lock().expect("runtime lock poisoned"))
            .finish()
    }
}

impl std::fmt::Debug for FpgaHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("runtime lock poisoned");
        f.debug_struct("FpgaHandle")
            .field("platform", &inner.soc.platform().name)
            .field("now", &inner.soc.now())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl ResponseHandle {
    /// Non-blocking check (the paper's `try_get()`), at one MMIO read cost.
    pub fn try_get(&self) -> Option<u64> {
        if let Some(v) = *self.resolved.lock().expect("runtime lock poisoned") {
            return Some(v);
        }
        let mut inner = self.inner.lock().expect("runtime lock poisoned");
        let link_ns = inner.soc.platform().host_link.mmio_latency_ns;
        inner.advance_ns(link_ns);
        let polled = inner.soc.poll(self.token);
        if let Some(v) = polled {
            inner.stats.responses += 1;
            *self.resolved.lock().expect("runtime lock poisoned") = Some(v);
        }
        polled
    }

    /// Blocks (simulated) until the response arrives (the paper's
    /// `get()`), polling the MMIO response FIFO at the configured interval.
    ///
    /// # Errors
    ///
    /// [`CallError::Timeout`] if the cycle budget set via
    /// [`FpgaHandle::set_get_timeout`] is exceeded.
    pub fn get(&self) -> Result<u64, CallError> {
        if let Some(v) = *self.resolved.lock().expect("runtime lock poisoned") {
            return Ok(v);
        }
        let start = self.inner.lock().expect("runtime lock poisoned").soc.now();
        loop {
            if let Some(v) = self.try_get() {
                return Ok(v);
            }
            let mut inner = self.inner.lock().expect("runtime lock poisoned");
            let waited = inner.soc.now() - start;
            if waited > inner.get_timeout_cycles {
                return Err(CallError::Timeout { waited });
            }
            let interval = inner.opts.poll_interval_ns.max(1);
            inner.advance_ns(interval);
        }
    }

    /// The underlying command token.
    pub fn token(&self) -> CommandToken {
        self.token
    }
}

impl std::fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseHandle")
            .field("token", &self.token)
            .field(
                "resolved",
                &self
                    .resolved
                    .lock()
                    .expect("runtime lock poisoned")
                    .is_some(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcore::{
        elaborate, AccelCommandSpec, AcceleratorConfig, AcceleratorCore, CoreContext, FieldType,
        ReadChannelConfig, ReaderId, SystemConfig, WriteChannelConfig, WriterId,
    };
    use bplatform::Platform;

    /// Minimal streaming doubler core for runtime tests.
    struct DoubleCore {
        src: ReaderId,
        dst: WriterId,
        remaining: u32,
        active: bool,
    }

    impl AcceleratorCore for DoubleCore {
        fn tick(&mut self, sim: &bsim::SimCtx, ctx: &mut CoreContext) {
            if !self.active {
                if let Some(cmd) = ctx.take_command(sim) {
                    let n = cmd.arg("n") as u32;
                    let addr = cmd.arg("addr");
                    self.remaining = n;
                    self.active = true;
                    ctx.reader(self.src)
                        .request(addr, u64::from(n) * 4)
                        .expect("idle");
                    ctx.writer(self.dst)
                        .request(addr, u64::from(n) * 4)
                        .expect("idle");
                }
                return;
            }
            while self.remaining > 0 && ctx.writer(self.dst).can_push() {
                let Some(v) = ctx.reader(self.src).pop_u32() else {
                    break;
                };
                ctx.writer(self.dst).push_u32(v.wrapping_mul(2));
                self.remaining -= 1;
            }
            if self.remaining == 0 && ctx.writer(self.dst).done() && ctx.respond(sim, 1) {
                self.active = false;
            }
        }
    }

    fn make_handle(platform: &Platform, n_cores: u32) -> FpgaHandle {
        let spec = AccelCommandSpec::new(
            "double",
            vec![
                ("addr".to_owned(), FieldType::Address),
                ("n".to_owned(), FieldType::U(24)),
            ],
        );
        let cfg = AcceleratorConfig::new().with_system(
            SystemConfig::new("Doubler", n_cores, spec, |ports| {
                Box::new(DoubleCore {
                    src: ports.reader("src"),
                    dst: ports.writer("dst"),
                    remaining: 0,
                    active: false,
                })
            })
            .with_read(ReadChannelConfig::new("src", 4))
            .with_write(WriteChannelConfig::new("dst", 4)),
        );
        FpgaHandle::new(elaborate(cfg, platform).expect("elaboration"))
    }

    fn call_args(addr: u64, n: u64) -> std::collections::BTreeMap<String, u64> {
        [("addr".to_owned(), addr), ("n".to_owned(), n)]
            .into_iter()
            .collect()
    }

    #[test]
    fn figure_3c_flow_on_discrete_platform() {
        // The exact sequence of the paper's Figure 3c.
        let handle = make_handle(&Platform::aws_f1(), 1);
        let mem = handle.malloc(1024).unwrap();
        let input: Vec<u32> = (0..256).collect();
        handle.write_u32_slice(mem, &input);
        handle.copy_to_fpga(mem);
        let resp = handle
            .call("Doubler", 0, call_args(mem.device_addr(), 256))
            .unwrap();
        assert_eq!(resp.get().unwrap(), 1);
        handle.copy_from_fpga(mem);
        let out = handle.read_u32_slice(mem, 256);
        let expect: Vec<u32> = input.iter().map(|v| v * 2).collect();
        assert_eq!(out, expect);
        let stats = handle.stats();
        assert_eq!(stats.commands, 1);
        assert_eq!(stats.responses, 1);
        assert!(stats.dma_to_device_bytes >= 1024);
    }

    #[test]
    fn shared_platform_needs_no_dma() {
        let handle = make_handle(&Platform::kria(), 1);
        let mem = handle.malloc(1024).unwrap();
        let input: Vec<u32> = (0..256).map(|v| v * 3).collect();
        handle.write_u32_slice(mem, &input);
        // No copy_to_fpga: the memory is shared and coherent.
        let resp = handle
            .call("Doubler", 0, call_args(mem.device_addr(), 256))
            .unwrap();
        resp.get().unwrap();
        let out = handle.read_u32_slice(mem, 256);
        assert_eq!(out[17], 17 * 3 * 2);
        assert_eq!(handle.stats().dma_to_device_bytes, 0);
    }

    #[test]
    fn discrete_writes_invisible_until_dma() {
        let handle = make_handle(&Platform::aws_f1(), 1);
        let mem = handle.malloc(64).unwrap();
        handle.write_at(mem, 0, &[0xAB; 64]);
        let device_view =
            handle.with_soc(|soc| soc.memory().borrow().read_vec(mem.device_addr(), 64));
        assert_eq!(
            device_view,
            vec![0u8; 64],
            "host write must not leak before DMA"
        );
        handle.copy_to_fpga(mem);
        let device_view =
            handle.with_soc(|soc| soc.memory().borrow().read_vec(mem.device_addr(), 64));
        assert_eq!(device_view, vec![0xAB; 64]);
    }

    #[test]
    fn try_get_is_nonblocking_then_resolves() {
        let handle = make_handle(&Platform::sim(), 1);
        let mem = handle.malloc(4096).unwrap();
        handle.write_u32_slice(mem, &vec![1u32; 1024]);
        let resp = handle
            .call("Doubler", 0, call_args(mem.device_addr(), 1024))
            .unwrap();
        // Immediately after submission the kernel cannot be done.
        assert!(resp.try_get().is_none());
        assert_eq!(resp.get().unwrap(), 1);
        // Subsequent gets return the cached value without advancing time.
        let t = handle.now();
        assert_eq!(resp.get().unwrap(), 1);
        assert_eq!(handle.now(), t);
    }

    #[test]
    fn commands_to_all_cores_overlap() {
        let handle = make_handle(&Platform::sim(), 4);
        let n = 4096u64;
        let mut handles = Vec::new();
        for core in 0..4u16 {
            let mem = handle.malloc(n * 4).unwrap();
            handle.write_u32_slice(mem, &vec![u32::from(core) + 1; n as usize]);
            handle.copy_to_fpga(mem);
            handles.push((
                core,
                mem,
                handle
                    .call("Doubler", core, call_args(mem.device_addr(), n))
                    .unwrap(),
            ));
        }
        for (core, mem, resp) in handles {
            resp.get().unwrap();
            handle.copy_from_fpga(mem);
            let out = handle.read_u32_slice(mem, n as usize);
            assert!(out.iter().all(|&v| v == (u32::from(core) + 1) * 2));
        }
        assert_eq!(handle.stats().responses, 4);
    }

    #[test]
    fn unknown_system_and_bad_core_error() {
        let handle = make_handle(&Platform::sim(), 1);
        assert!(matches!(
            handle.call("Nope", 0, call_args(0, 0)),
            Err(CallError::UnknownSystem(_))
        ));
        assert!(matches!(
            handle.call("Doubler", 7, call_args(0, 0)),
            Err(CallError::Send(_))
        ));
    }

    #[test]
    fn malloc_free_cycle() {
        let handle = make_handle(&Platform::sim(), 1);
        let a = handle.malloc(1 << 20).unwrap();
        handle.free(a).unwrap();
        let b = handle.malloc(1 << 20).unwrap();
        assert_eq!(a.device_addr(), b.device_addr());
        // The stale ptr aliases b's live allocation, so this free succeeds
        // (frees b); the next free of the same address must then fail.
        handle.free(a).unwrap();
        assert!(handle.free(b).is_err(), "double free of the same region");
    }

    #[test]
    fn freed_discrete_range_reads_zero_when_reallocated() {
        let handle = make_handle(&Platform::sim(), 1);
        assert!(handle.with_soc(|soc| soc.platform().needs_dma()));
        let a = handle.malloc(3 * 4096).unwrap();
        handle.write_at(a, 4000, &[0xAB; 200]);
        assert_eq!(handle.read_at(a, 4000, 200), vec![0xAB; 200]);
        handle.free(a).unwrap();
        let b = handle.malloc(3 * 4096).unwrap();
        assert_eq!(a.device_addr(), b.device_addr());
        assert_eq!(handle.read_at(b, 0, 3 * 4096), vec![0; 3 * 4096]);
    }

    #[test]
    #[should_panic(expected = "freed or foreign pointer")]
    fn discrete_access_through_a_freed_pointer_panics() {
        let handle = make_handle(&Platform::sim(), 1);
        let a = handle.malloc(4096).unwrap();
        handle.free(a).unwrap();
        handle.read_at(a, 0, 4);
    }

    #[test]
    fn alloc_errors_carry_request_and_high_water_context() {
        // sim platform: 256 MiB of device memory.
        let handle = make_handle(&Platform::sim(), 1);
        let total = handle.with_soc(|soc| soc.platform().mem_size);
        let big = handle.malloc(total / 2).unwrap();
        let err = handle.malloc(total).unwrap_err();
        match err {
            CallError::Alloc {
                error: AllocError::OutOfMemory { .. },
                requested,
                high_water,
            } => {
                assert_eq!(requested, total, "carries the caller's byte count");
                assert_eq!(
                    high_water,
                    big.len(),
                    "high-water mark reflects the peak at failure time"
                );
            }
            other => panic!("expected contextful Alloc error, got {other:?}"),
        }
        let msg = handle.malloc(total).unwrap_err().to_string();
        assert!(
            msg.contains("requested"),
            "display shows the request: {msg}"
        );
        assert!(msg.contains("high-water"), "display shows the mark: {msg}");
    }

    #[test]
    fn two_sessions_share_the_allocator_without_fragmenting() {
        // Alloc–free–alloc patterns interleaved across two sessions over
        // one SocSim must coalesce back to a fully reusable region: the
        // regression this guards is per-session state leaking into the
        // shared free list.
        let handle = make_handle(&Platform::sim(), 1);
        let s0 = handle.open_session();
        let s1 = handle.open_session();
        assert_ne!(s0.id(), s1.id());

        let a = s0.malloc(8 * 4096).unwrap();
        let b = s1.malloc(4 * 4096).unwrap();
        let c = s0.malloc(4096).unwrap();
        // Free the middle allocation from the *other* session's sibling
        // and re-fill the hole: first-fit must reuse it exactly.
        s1.free(b).unwrap();
        let b2 = s0.malloc(2 * 4096).unwrap();
        assert_eq!(b2.device_addr(), b.device_addr(), "hole reused first-fit");

        // Interleaved teardown in neither allocation nor session order.
        s0.free(a).unwrap();
        s0.free(b2).unwrap();
        s0.free(c).unwrap();

        // After full teardown the whole region must be one coalesced block:
        // a single max-size allocation succeeds again.
        let total = handle.with_soc(|soc| soc.platform().mem_size);
        let whole = handle.malloc(total).unwrap();
        handle.free(whole).unwrap();

        let st0 = s0.stats();
        assert_eq!(st0.mallocs, 3);
        assert_eq!(st0.frees, 3);
        assert_eq!(st0.live_bytes, 0);
        assert_eq!(s1.stats().mallocs, 1);
        assert_eq!(s1.stats().frees, 1);
    }

    #[test]
    fn sessions_share_device_and_clock() {
        // Shared-memory platform: session writes are immediately
        // device-visible, no DMA staging.
        let handle = make_handle(&Platform::kria(), 2);
        let s0 = handle.open_session();
        let s1 = handle.open_session();
        let m0 = s0.malloc(4096).unwrap();
        let m1 = s1.malloc(4096).unwrap();
        s0.write_u32_slice(m0, &[5; 16]);
        s1.write_u32_slice(m1, &[9; 16]);
        let r0 = s0
            .call("Doubler", 0, call_args(m0.device_addr(), 16))
            .unwrap();
        let r1 = s1
            .call("Doubler", 1, call_args(m1.device_addr(), 16))
            .unwrap();
        r0.get().unwrap();
        r1.get().unwrap();
        assert_eq!(s0.read_u32_slice(m0, 16), vec![10; 16]);
        assert_eq!(s1.read_u32_slice(m1, 16), vec![18; 16]);
        assert_eq!(s0.stats().commands, 1);
        assert_eq!(s1.stats().commands, 1);
        // Both sessions observe the same clock (one device underneath).
        assert_eq!(s0.handle().now(), s1.handle().now());
        // The shared handle's aggregate stats see both sessions.
        assert_eq!(handle.stats().commands, 2);
    }

    #[test]
    fn server_lock_serializes_submissions() {
        // Submitting k commands costs at least k × (lock + mmio) of
        // simulated host time even if the device is idle.
        let handle = make_handle(&Platform::aws_f1(), 4);
        let mem = handle.malloc(4096).unwrap();
        handle.copy_to_fpga(mem);
        let t0 = handle.elapsed_secs();
        let mut responses = Vec::new();
        for core in 0..4 {
            responses.push(
                handle
                    .call("Doubler", core, call_args(mem.device_addr(), 1))
                    .unwrap(),
            );
        }
        let t1 = handle.elapsed_secs();
        let link = 800e-9 + 400e-9; // mmio + lock for aws_f1 defaults
        assert!(
            t1 - t0 >= 4.0 * link * 0.9,
            "4 submissions should cost ≥ 4×(lock+mmio): {} vs {}",
            t1 - t0,
            4.0 * link
        );
        for r in responses {
            r.get().unwrap();
        }
    }

    #[test]
    fn host_reads_live_counter_through_mmio_window_mid_run() {
        let handle = make_handle(&Platform::aws_f1(), 1);
        handle.set_profiling(true);
        let n = 200_000u64;
        let mem = handle.malloc(n * 4).unwrap();
        handle.write_u32_slice(mem, &vec![7u32; n as usize]);
        handle.copy_to_fpga(mem);
        let resp = handle
            .call("Doubler", 0, call_args(mem.device_addr(), n))
            .unwrap();

        // Let the kernel make some progress, then sample it while it is
        // still in flight. (Counter names materialize lazily, so the name
        // map is queried after the device has run.)
        handle.run_for(5_000);
        let names = handle.counter_names();
        assert!(names.iter().any(|n| n == "mem0/r_beats"));
        let snap = handle.counter_snapshot();
        let t0 = handle.now();
        let mid = handle
            .read_counter("mem0/r_beats")
            .expect("window exposes the counter");
        assert!(mid > 0, "reader traffic should be visible mid-run");
        assert!(handle.now() > t0, "window access costs simulated MMIO time");
        assert_eq!(handle.read_counter("no/such_counter"), None);

        assert_eq!(resp.get().unwrap(), 1);
        let finished = handle.read_counter("mem0/r_beats").unwrap();
        assert!(finished >= mid);
        let delta = handle.counter_delta(&snap);
        let grew = delta.iter().find(|(n, _)| n == "mem0/r_beats").unwrap().1;
        assert!(grew > 0, "counter must keep advancing after the snapshot");

        handle.reset_counters();
        assert_eq!(
            handle.read_counter("mem0/r_beats"),
            Some(0),
            "reset rebases the window to zero"
        );
    }

    #[test]
    fn one_item_batch_is_cycle_identical_to_call() {
        let run = |batched: bool| {
            let handle = make_handle(&Platform::sim(), 1);
            let mem = handle.malloc(4096).unwrap();
            handle.write_u32_slice(mem, &vec![3u32; 64]);
            let args = call_args(mem.device_addr(), 64);
            let (resp, submitted_at) = if batched {
                let mut sent = handle.call_batch("Doubler", &[(0, args)]).unwrap();
                let (resp, at) = sent.pop().unwrap();
                (resp, at)
            } else {
                let resp = handle.call("Doubler", 0, args).unwrap();
                (resp, handle.now())
            };
            let after_submit = handle.now();
            let value = resp.get().unwrap();
            (
                submitted_at,
                after_submit,
                handle.now(),
                value,
                handle.stats(),
            )
        };
        assert_eq!(
            run(false),
            run(true),
            "a one-item batch must be indistinguishable from call()"
        );
    }

    #[test]
    fn batch_amortizes_the_lock_across_commands() {
        // kria: shared memory (no DMA staging) with a nonzero MMIO
        // latency, so per-item gaps are observable.
        let handle = make_handle(&Platform::kria(), 4);
        let mut items = Vec::new();
        let mut mems = Vec::new();
        for core in 0..4u16 {
            let mem = handle.malloc(4096).unwrap();
            handle.write_u32_slice(mem, &vec![u32::from(core) + 1; 64]);
            items.push((core, call_args(mem.device_addr(), 64)));
            mems.push(mem);
        }
        let opts = handle.options();
        let mmio_ns = handle.with_soc(|soc| soc.platform().host_link.mmio_latency_ns);
        let sent = handle.call_batch("Doubler", &items).unwrap();
        assert_eq!(sent.len(), 4);
        // Later items enter their FIFOs later: one MMIO gap each.
        for pair in sent.windows(2) {
            assert!(pair[0].1 < pair[1].1, "batch items land in order");
        }
        for (core, (resp, _)) in sent.into_iter().enumerate() {
            assert_eq!(resp.get().unwrap(), 1);
            let out = handle.read_u32_slice(mems[core], 64);
            assert!(out.iter().all(|&v| v == (core as u32 + 1) * 2));
        }
        let stats = handle.stats();
        assert_eq!(stats.commands, 4);
        assert_eq!(
            stats.server_busy_ns,
            opts.lock_overhead_ns + 4 * mmio_ns,
            "one lock acquisition, four MMIO writes"
        );
    }

    #[test]
    fn batch_rejects_overfull_core_without_side_effects() {
        let handle = make_handle(&Platform::sim(), 1);
        let mem = handle.malloc(4096).unwrap();
        handle.write_u32_slice(mem, &[1u32; 16]);
        let args = call_args(mem.device_addr(), 16);
        let free = handle.with_soc(|soc| soc.cmd_queue_free(0, 0).unwrap());
        let items: Vec<_> = (0..free + 1).map(|_| (0u16, args.clone())).collect();
        let before = handle.stats().commands;
        let err = handle.call_batch("Doubler", &items).unwrap_err();
        assert!(matches!(
            err,
            CallError::Send(bcore::soc::SendError::QueueFull)
        ));
        assert_eq!(
            handle.stats().commands,
            before,
            "failed batch sends nothing"
        );
        assert!(!handle.with_soc(|soc| soc.has_outstanding()));
    }
}
