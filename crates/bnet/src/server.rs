//! The network front-end: a TCP acceptor, one worker thread per
//! connection, and a dispatcher thread that owns the serving [`Rig`].
//!
//! ## Threading
//!
//! ```text
//!   acceptor ──spawns──▶ worker (conn 1) ─┐
//!                        worker (conn 2) ─┤  shared State (Mutex+Condvar)
//!                        worker (conn N) ─┘  pending cmds / ready outcomes
//!                                               │            ▲
//!                                          wave barrier      │ keyed outcomes
//!                                               ▼            │
//!                                          dispatcher ── FleetServer (owns the Rig)
//! ```
//!
//! Workers never touch the fleet; they validate frames, enforce
//! auth/quota/admission, and move commands into the shared pending set.
//! The dispatcher runs a *serving wave* — the pending set served as one
//! round through `serve_round`, the replay oracle's own path — only
//! when every connection with outstanding commands is parked in `POLL`.
//! That wave
//! barrier is what makes the socket path deterministic: wave membership
//! is fixed by client behaviour (submit, then poll), never by thread or
//! packet timing, so a recorded trace replays to byte-identical
//! outcomes (see [`crate::replay`]).
//!
//! Load shedding is synchronous: a `SUBMIT` beyond the global admission
//! cap is answered `ERR{Overloaded}` with a retry-after hint, beyond
//! the per-tenant cap `ERR{QuotaExceeded}` — the connection stays
//! usable, and a malformed frame draws `ERR{Malformed}` and a
//! disconnect without wedging anyone else. The barrier itself is
//! guarded against abuse: a connection that submits and then neither
//! polls nor disconnects past [`NetConfig::stall_timeout_ms`] is
//! evicted (socket shut down, unserved commands dropped, seqs freed)
//! so other tenants' waves keep running.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bsim::Stats;

use crate::frame::{
    frame_bytes, read_frame, ErrCode, Frame, FrameError, WireJob, WireOutcome, MAX_KEY_LEN,
    MAX_STATS,
};
use crate::replay::{serve_round, TraceCmd};
use crate::rig::{build, tenant_token, Rig, RigConfig, DEFAULT_AUTH_SEED};

/// Network front-end configuration: the rig to serve plus the
/// auth/quota/admission knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// The serving rig's shape (see [`RigConfig`]).
    pub rig: RigConfig,
    /// Seed every tenant's auth token derives from
    /// ([`tenant_token`]).
    pub auth_seed: u64,
    /// Connections one tenant may hold at once; the next `HELLO` draws
    /// `ERR{ConnLimit}`.
    pub max_conns_per_tenant: usize,
    /// Pending (submitted, unserved) commands one tenant may hold; the
    /// next `SUBMIT` draws `ERR{QuotaExceeded}`.
    pub max_pending_per_tenant: usize,
    /// Pending commands across all tenants — the admission-control
    /// shed point; the next `SUBMIT` draws `ERR{Overloaded}`.
    pub max_pending_total: usize,
    /// Retry-after hint (microseconds) carried by shed responses.
    pub retry_after_us: u32,
    /// Submit-to-poll deadline (milliseconds): a connection that holds
    /// outstanding commands without parking in `POLL` for this long is
    /// evicted (socket shut down, unserved commands dropped, seqs
    /// freed) so the wave barrier cannot be held hostage by a stalling
    /// or dead client.
    pub stall_timeout_ms: u64,
}

impl NetConfig {
    /// Defaults around `rig`: [`DEFAULT_AUTH_SEED`], 4 connections and
    /// 256 pending commands per tenant, 4096 pending total, 500 µs
    /// retry-after, 5 s stall timeout.
    pub fn new(rig: RigConfig) -> Self {
        Self {
            rig,
            auth_seed: DEFAULT_AUTH_SEED,
            max_conns_per_tenant: 4,
            max_pending_per_tenant: 256,
            max_pending_total: 4096,
            retry_after_us: 500,
            stall_timeout_ms: 5_000,
        }
    }
}

/// One registered connection, as the barrier sees it.
struct ConnState {
    /// The tenant that authenticated this connection.
    tenant: u32,
    /// Parked in `POLL`, waiting for its outstanding seqs.
    waiting: bool,
    /// Seqs submitted here and not yet delivered.
    outstanding: BTreeSet<u64>,
    /// Last `SUBMIT` accepted here — the stall clock the dispatcher
    /// evicts against when this connection blocks the barrier.
    last_activity: Instant,
}

/// One accepted command awaiting the next serving wave.
struct PendingCmd {
    /// The connection that submitted it.
    conn: u64,
    cmd: TraceCmd,
}

/// Everything the worker/dispatcher threads coordinate through.
struct State {
    conns: BTreeMap<u64, ConnState>,
    pending: Vec<PendingCmd>,
    pending_per_tenant: BTreeMap<u32, usize>,
    conns_per_tenant: BTreeMap<u32, usize>,
    /// Every in-flight `(tenant, seq)` — duplicate submissions are
    /// refused while a command is pending or served-but-undelivered,
    /// so outcome keys stay unique. Entries clear on delivery, and
    /// when a dead or evicted connection's unserved commands are
    /// discarded (a reconnect may then resubmit the same seq), so the
    /// set is bounded by in-flight work, not server lifetime.
    seen: BTreeSet<(u32, u64)>,
    /// Served outcomes not yet delivered to their connection.
    ready: BTreeMap<(u32, u64), WireOutcome>,
    waves_run: u64,
    /// Post-wave fleet rollup (aggregate `server/fleet/…` counters),
    /// served alongside the `net/…` counters in `StatsReply`.
    fleet_counters: Vec<(String, u64)>,
    stopping: bool,
    /// The dispatcher's final `perf_report()`, written as it exits.
    report: Option<String>,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    stats: Stats,
    config: NetConfig,
    /// Per-tenant `(buffer_addr, buffer_eles)` advertised in
    /// `HelloAck`.
    buffers: Vec<(u64, u32)>,
    shards: u32,
    cores: u32,
    policy: &'static str,
    stop: AtomicBool,
    next_conn: AtomicU64,
    /// Every accepted stream, keyed by connection id; workers register
    /// before first read so `stop` can always unblock them, and remove
    /// their entry on exit so long-running servers do not leak fds.
    /// The dispatcher also uses it to shut down an evicted stalling
    /// connection. Lock order: `state` before `live`, never the
    /// reverse.
    live: Mutex<BTreeMap<u64, TcpStream>>,
}

/// The serving process: bound listener, acceptor + worker threads, and
/// the dispatcher that owns the rig. Dropping the server stops it;
/// [`NetServer::stop`] does the same and returns the final
/// `perf_report()` (which includes the `net/` counter set).
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port),
    /// builds the rig, and starts the acceptor and dispatcher threads.
    /// The `net/` [`Stats`] set is attached to the rig's primary perf
    /// registry, so it shows up in `perf_report()` beside `server/…`.
    pub fn bind(addr: &str, config: NetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let rig = build(&config.rig);
        let stats = Stats::new();
        rig.fleet
            .handle(0)
            .with_soc(|soc| soc.perf().set("net").attach_stats(&stats));
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                conns: BTreeMap::new(),
                pending: Vec::new(),
                pending_per_tenant: BTreeMap::new(),
                conns_per_tenant: BTreeMap::new(),
                seen: BTreeSet::new(),
                ready: BTreeMap::new(),
                waves_run: 0,
                fleet_counters: Vec::new(),
                stopping: false,
                report: None,
            }),
            cv: Condvar::new(),
            stats,
            config,
            buffers: rig
                .buffers
                .iter()
                .map(|b| (b.device_addr, b.eles))
                .collect(),
            shards: rig.fleet.n_shards() as u32,
            cores: rig.fleet.n_cores_total(),
            policy: config.rig.policy.name(),
            stop: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            live: Mutex::new(BTreeMap::new()),
        });
        let workers = Arc::new(Mutex::new(Vec::new()));
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatcher_loop(rig, &shared))
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            let workers = Arc::clone(&workers);
            std::thread::spawn(move || acceptor_loop(&listener, &shared, &workers))
        };
        Ok(Self {
            shared,
            addr,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
            workers,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle to the live `net/` counters.
    pub fn stats(&self) -> Stats {
        self.shared.stats.clone()
    }

    /// Blocks until at least `waves` serving waves have run *and*
    /// every connection has closed — `bservd --waves N` uses this to
    /// exit only after its clients said `BYE`.
    pub fn wait_drained(&self, waves: u64) {
        let mut st = self.shared.state.lock().expect("bnet state");
        while !(st.stopping || st.waves_run >= waves && st.conns.is_empty()) {
            st = self.shared.cv.wait(st).expect("bnet state");
        }
    }

    /// Stops the server — refuses new connections, unblocks and joins
    /// every thread — and returns the final `perf_report()` (with the
    /// `net/` set and the fleet's `server/…` rollup).
    pub fn stop(mut self) -> String {
        self.shutdown().unwrap_or_default()
    }

    fn shutdown(&mut self) -> Option<String> {
        self.dispatcher.as_ref()?;
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            // Holding `live` while the flag is up: any worker that
            // registered first gets its stream shut down here, any that
            // registers later sees the flag.
            let live = self.shared.live.lock().expect("bnet live streams");
            for stream in live.values() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        {
            let mut st = self.shared.state.lock().expect("bnet state");
            st.stopping = true;
        }
        self.shared.cv.notify_all();
        // A throwaway connection unblocks the acceptor's `accept()`.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        loop {
            let drained = std::mem::take(&mut *self.workers.lock().expect("bnet workers"));
            if drained.is_empty() {
                break;
            }
            for h in drained {
                let _ = h.join();
            }
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        self.shared.state.lock().expect("bnet state").report.take()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("policy", &self.shared.policy)
            .field("shards", &self.shared.shards)
            .finish()
    }
}

fn acceptor_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    workers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || worker_loop(stream, id, &shared));
        let mut ws = workers.lock().expect("bnet workers");
        // Reap exited workers as connections churn so a long-running
        // server does not accumulate one JoinHandle per connection.
        for h in std::mem::take(&mut *ws) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                ws.push(h);
            }
        }
        ws.push(handle);
    }
}

/// Sends one frame, charging the `net/` egress counters (and the
/// per-code error counter for `ERR`). The counters are charged before
/// the write, so a `STATS` reply never misses a frame some client has
/// already read; a frame whose write then fails still counts.
fn send(stream: &mut TcpStream, stats: &Stats, frame: &Frame) -> io::Result<()> {
    let bytes = frame_bytes(frame)?;
    stats.incr("frames_out");
    stats.add("bytes_out", bytes.len() as u64);
    if let Frame::Err { code, .. } = frame {
        stats.incr(&format!("err_{}", code.name()));
    }
    stream.write_all(&bytes)
}

fn refuse(stream: &mut TcpStream, stats: &Stats, code: ErrCode, retry_after_us: u32, detail: &str) {
    let _ = send(
        stream,
        stats,
        &Frame::Err {
            code,
            retry_after_us,
            detail: detail.to_owned(),
        },
    );
}

/// Reads one frame, charging the `net/` ingress counters. Protocol
/// errors answer `ERR{Malformed}` and return `None` (disconnect); so
/// does EOF.
fn recv(stream: &mut TcpStream, stats: &Stats) -> Option<Frame> {
    match read_frame(stream) {
        Ok(Some((frame, n))) => {
            stats.incr("frames_in");
            stats.add("bytes_in", n as u64);
            Some(frame)
        }
        Ok(None) => None,
        Err(FrameError::Oversized(len)) => {
            stats.incr("proto_errors");
            refuse(
                stream,
                stats,
                ErrCode::Malformed,
                0,
                &format!("frame length {len} exceeds cap"),
            );
            None
        }
        Err(FrameError::Decode(e)) => {
            stats.incr("proto_errors");
            refuse(stream, stats, ErrCode::Malformed, 0, &e.to_string());
            None
        }
        Err(FrameError::Io(_)) => None,
    }
}

fn worker_loop(mut stream: TcpStream, id: u64, shared: &Arc<Shared>) {
    {
        let mut live = shared.live.lock().expect("bnet live streams");
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if let Ok(clone) = stream.try_clone() {
            live.insert(id, clone);
        }
    }
    let _ = stream.set_nodelay(true);
    if let Some(tenant) = hello(&mut stream, id, shared) {
        serve(&mut stream, id, tenant, shared);
        deregister(id, shared);
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    shared.live.lock().expect("bnet live streams").remove(&id);
}

/// Runs the `HELLO` exchange; registers the connection and returns its
/// tenant, or refuses and returns `None`.
fn hello(stream: &mut TcpStream, id: u64, shared: &Arc<Shared>) -> Option<u32> {
    let stats = &shared.stats;
    let cfg = &shared.config;
    let (tenant, token, proto) = match recv(stream, stats)? {
        Frame::Hello {
            proto,
            tenant,
            token,
        } => (tenant, token, proto),
        Frame::Bye => return None,
        _ => {
            stats.incr("conns_rejected");
            refuse(stream, stats, ErrCode::NoHello, 0, "expected HELLO first");
            return None;
        }
    };
    let refusal = if proto != crate::frame::PROTO_VERSION {
        Some((ErrCode::BadVersion, 0))
    } else if tenant as usize >= cfg.rig.tenants {
        Some((ErrCode::UnknownTenant, 0))
    } else if token != tenant_token(cfg.auth_seed, tenant) {
        Some((ErrCode::AuthFailed, 0))
    } else {
        None
    };
    if let Some((code, retry)) = refusal {
        stats.incr("conns_rejected");
        refuse(stream, stats, code, retry, "HELLO refused");
        return None;
    }
    {
        let mut st = shared.state.lock().expect("bnet state");
        if st.stopping {
            return None;
        }
        let held = st.conns_per_tenant.get(&tenant).copied().unwrap_or(0);
        if held >= cfg.max_conns_per_tenant {
            drop(st);
            stats.incr("conns_rejected");
            refuse(
                stream,
                stats,
                ErrCode::ConnLimit,
                cfg.retry_after_us,
                "tenant connection quota reached",
            );
            return None;
        }
        st.conns.insert(
            id,
            ConnState {
                tenant,
                waiting: false,
                outstanding: BTreeSet::new(),
                last_activity: Instant::now(),
            },
        );
        *st.conns_per_tenant.entry(tenant).or_insert(0) += 1;
    }
    stats.incr("conns_accepted");
    let (buffer_addr, buffer_eles) = shared.buffers[tenant as usize];
    let acked = send(
        stream,
        stats,
        &Frame::HelloAck {
            tenant,
            shards: shared.shards,
            cores: shared.cores,
            policy: shared.policy.to_owned(),
            buffer_addr,
            buffer_eles,
        },
    );
    if acked.is_err() {
        // The client vanished between HELLO and the ack: roll the
        // registration back, or the tenant's conn slot leaks forever
        // and `wait_drained` never sees the map empty.
        deregister(id, shared);
        return None;
    }
    Some(tenant)
}

/// The post-`HELLO` command loop.
fn serve(stream: &mut TcpStream, id: u64, tenant: u32, shared: &Arc<Shared>) {
    let stats = &shared.stats;
    while let Some(frame) = recv(stream, stats) {
        match frame {
            Frame::Submit { seq, job } => {
                let reply = submit(id, tenant, seq, job, shared);
                if send(stream, stats, &reply).is_err() {
                    return;
                }
            }
            Frame::Poll => {
                let Some(outcomes) = poll_wait(id, tenant, shared) else {
                    return; // stopping
                };
                let count = outcomes.len() as u32;
                for (seq, outcome) in outcomes {
                    if send(stream, stats, &Frame::Outcome { seq, outcome }).is_err() {
                        return;
                    }
                }
                if send(stream, stats, &Frame::Done { count }).is_err() {
                    return;
                }
            }
            Frame::StatsReq => {
                let mut counters: Vec<(String, u64)> = stats
                    .counters()
                    .into_iter()
                    .map(|(name, value)| (format!("net/{name}"), value))
                    .collect();
                let st = shared.state.lock().expect("bnet state");
                counters.extend(st.fleet_counters.iter().cloned());
                drop(st);
                // Keep the reply inside the decoder's own caps — a
                // frame the peer would refuse must never be sent.
                counters.retain(|(name, _)| name.len() <= MAX_KEY_LEN);
                counters.truncate(MAX_STATS);
                if send(stream, stats, &Frame::StatsReply { counters }).is_err() {
                    return;
                }
            }
            Frame::Bye => return,
            // A client frame the state machine does not expect here —
            // or a server-only frame echoed back. Refuse and drop.
            _ => {
                stats.incr("proto_errors");
                refuse(stream, stats, ErrCode::Malformed, 0, "unexpected frame");
                return;
            }
        }
    }
}

/// Admission control for one `SUBMIT`: duplicate, per-tenant quota,
/// then global shed point, in that order.
fn submit(id: u64, tenant: u32, seq: u64, job: WireJob, shared: &Arc<Shared>) -> Frame {
    let cfg = &shared.config;
    let mut st = shared.state.lock().expect("bnet state");
    if st.seen.contains(&(tenant, seq)) {
        return Frame::Err {
            code: ErrCode::DuplicateSeq,
            retry_after_us: 0,
            detail: format!("seq {seq} already submitted"),
        };
    }
    let tenant_pending = st.pending_per_tenant.get(&tenant).copied().unwrap_or(0);
    if tenant_pending >= cfg.max_pending_per_tenant {
        return Frame::Err {
            code: ErrCode::QuotaExceeded,
            retry_after_us: cfg.retry_after_us,
            detail: format!(
                "tenant pending quota {} reached",
                cfg.max_pending_per_tenant
            ),
        };
    }
    if st.pending.len() >= cfg.max_pending_total {
        shared.stats.incr("shed_commands");
        return Frame::Err {
            code: ErrCode::Overloaded,
            retry_after_us: cfg.retry_after_us,
            detail: format!("admission queue at {}", cfg.max_pending_total),
        };
    }
    st.seen.insert((tenant, seq));
    st.pending.push(PendingCmd {
        conn: id,
        cmd: TraceCmd { tenant, seq, job },
    });
    *st.pending_per_tenant.entry(tenant).or_insert(0) += 1;
    let conn = st.conns.get_mut(&id).expect("registered connection");
    conn.outstanding.insert(seq);
    conn.last_activity = Instant::now();
    Frame::Ack { seq }
}

/// Parks the connection in the wave barrier and waits until every one
/// of its outstanding seqs has been served (or the server is
/// stopping). Returns the outcomes in seq order.
fn poll_wait(id: u64, tenant: u32, shared: &Arc<Shared>) -> Option<Vec<(u64, WireOutcome)>> {
    let mut st = shared.state.lock().expect("bnet state");
    st.conns
        .get_mut(&id)
        .expect("registered connection")
        .waiting = true;
    shared.cv.notify_all();
    loop {
        if st.stopping {
            return None;
        }
        let conn = st.conns.get(&id).expect("registered connection");
        if conn
            .outstanding
            .iter()
            .all(|seq| st.ready.contains_key(&(tenant, *seq)))
        {
            break;
        }
        st = shared.cv.wait(st).expect("bnet state");
    }
    let conn = st.conns.get_mut(&id).expect("registered connection");
    conn.waiting = false;
    let seqs: Vec<u64> = std::mem::take(&mut conn.outstanding).into_iter().collect();
    Some(
        seqs.into_iter()
            .map(|seq| {
                let outcome = st.ready.remove(&(tenant, seq)).expect("served outcome");
                // Delivery retires the seq's duplicate-check
                // reservation, keeping `seen` bounded by in-flight
                // work.
                st.seen.remove(&(tenant, seq));
                (seq, outcome)
            })
            .collect(),
    )
}

impl State {
    /// Drops the work of connection `id` (tenant `tenant`): its unserved
    /// commands leave the pending set, so they can never gate a wave,
    /// and its `outstanding` seqs lose their undelivered outcomes and
    /// their `seen` reservations, so a reconnect can resubmit them.
    fn discard(&mut self, id: u64, tenant: u32, outstanding: BTreeSet<u64>) {
        let before = self.pending.len();
        self.pending.retain(|p| p.conn != id);
        let removed = before - self.pending.len();
        if let Some(n) = self.pending_per_tenant.get_mut(&tenant) {
            *n = n.saturating_sub(removed);
        }
        for seq in outstanding {
            self.ready.remove(&(tenant, seq));
            self.seen.remove(&(tenant, seq));
        }
    }
}

fn deregister(id: u64, shared: &Arc<Shared>) {
    let mut st = shared.state.lock().expect("bnet state");
    let Some(conn) = st.conns.remove(&id) else {
        return;
    };
    if let Some(held) = st.conns_per_tenant.get_mut(&conn.tenant) {
        *held = held.saturating_sub(1);
    }
    st.discard(id, conn.tenant, conn.outstanding);
    drop(st);
    shared.cv.notify_all();
}

/// Ejects a connection that is blocking the wave barrier past the
/// stall deadline: its socket is shut down (the worker unblocks, then
/// runs the normal [`deregister`] path) and its work is discarded.
/// Counted in `net/evicted_conns`.
fn evict(id: u64, st: &mut State, shared: &Arc<Shared>) {
    shared.stats.incr("evicted_conns");
    if let Some(stream) = shared.live.lock().expect("bnet live streams").get(&id) {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    let Some(conn) = st.conns.get_mut(&id) else {
        return;
    };
    let tenant = conn.tenant;
    let outstanding = std::mem::take(&mut conn.outstanding);
    st.discard(id, tenant, outstanding);
}

/// The dispatcher: owns the rig, runs one serving wave whenever the
/// barrier allows, and writes the final perf report as it exits.
///
/// The barrier cannot be held hostage: while pending work exists, any
/// connection blocking it (outstanding seqs, not parked in `POLL`)
/// past [`NetConfig::stall_timeout_ms`] since its last `SUBMIT` is
/// evicted, so one tenant's submit-and-idle client can never wedge
/// another tenant's `POLL`.
fn dispatcher_loop(mut rig: Rig, shared: &Arc<Shared>) {
    let stall = Duration::from_millis(shared.config.stall_timeout_ms);
    loop {
        let batch: Vec<PendingCmd> = {
            let mut st = shared.state.lock().expect("bnet state");
            loop {
                if st.stopping {
                    finish(&mut rig, st, shared);
                    return;
                }
                let barrier_open = !st.pending.is_empty()
                    && st
                        .conns
                        .values()
                        .all(|c| c.outstanding.is_empty() || c.waiting);
                if barrier_open {
                    st.pending_per_tenant.clear();
                    break std::mem::take(&mut st.pending);
                }
                // With work pending, bound the wait by the earliest
                // stall deadline among barrier blockers; without
                // blockers (or without pending work) just sleep on the
                // condvar.
                let mut wait_for: Option<Duration> = None;
                if !st.pending.is_empty() {
                    let now = Instant::now();
                    let stalled: Vec<u64> = st
                        .conns
                        .iter()
                        .filter(|(_, c)| !c.waiting && !c.outstanding.is_empty())
                        .filter(|(_, c)| now.duration_since(c.last_activity) >= stall)
                        .map(|(id, _)| *id)
                        .collect();
                    if !stalled.is_empty() {
                        for id in stalled {
                            evict(id, &mut st, shared);
                        }
                        continue; // the barrier may be open now
                    }
                    wait_for = st
                        .conns
                        .values()
                        .filter(|c| !c.waiting && !c.outstanding.is_empty())
                        .map(|c| stall.saturating_sub(now.duration_since(c.last_activity)))
                        .min();
                }
                st = match wait_for {
                    Some(d) => shared.cv.wait_timeout(st, d).expect("bnet state").0,
                    None => shared.cv.wait(st).expect("bnet state"),
                };
            }
        };
        let round = batch.into_iter().map(|p| p.cmd).collect();
        let outcomes = serve_round(&mut rig.fleet, round);
        shared.stats.add("cmds_run", outcomes.len() as u64);
        shared.stats.incr("waves");
        let fleet_counters: Vec<(String, u64)> = rig
            .fleet
            .sync_rollup()
            .into_iter()
            .filter(|(name, _)| name.starts_with("fleet/"))
            .map(|(name, value)| (format!("server/{name}"), value))
            .collect();
        {
            let mut st = shared.state.lock().expect("bnet state");
            for (tenant, seq, outcome) in outcomes {
                st.ready.insert((tenant, seq), outcome);
            }
            st.waves_run += 1;
            st.fleet_counters = fleet_counters;
        }
        shared.cv.notify_all();
    }
}

fn finish(rig: &mut Rig, mut st: MutexGuard<'_, State>, shared: &Arc<Shared>) {
    st.pending.clear();
    rig.fleet.sync_rollup();
    st.report = Some(rig.fleet.handle(0).with_soc(|soc| soc.perf().report()));
    drop(st);
    shared.cv.notify_all();
}
