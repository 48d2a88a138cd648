//! The multi-tenant runtime server: queues, dispatcher, outcome model.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bcore::{AccelCommandSpec, CommandToken};
use bruntime::FpgaHandle;
use bsim::{Cycle, Stats};

use crate::batch::{AutoBatcher, BatchPolicy};
use crate::policy::DispatchPolicy;
use crate::telemetry::{JobStep, ServerEvent, Telemetry, TelemetryConfig};

/// A command the server accepts from a tenant.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Named command arguments (what the generated bindings build).
    pub args: BTreeMap<String, u64>,
    /// Caller-supplied cost hint in arbitrary monotone units (e.g.
    /// elements to process). Only `ShortestJobFirst` reads it.
    pub cost_hint: u64,
    /// Maximum fabric cycles the job may wait in the submission queue
    /// before the deadline action fires. `None` waits forever.
    pub deadline_cycles: Option<Cycle>,
}

impl JobSpec {
    /// A job with no deadline and a zero cost hint.
    pub fn new(args: BTreeMap<String, u64>) -> Self {
        Self {
            args,
            cost_hint: 0,
            deadline_cycles: None,
        }
    }

    /// Sets the cost hint (builder style).
    pub fn with_cost_hint(mut self, cost_hint: u64) -> Self {
        self.cost_hint = cost_hint;
        self
    }

    /// Sets the queue-wait deadline (builder style).
    pub fn with_deadline(mut self, cycles: Cycle) -> Self {
        self.deadline_cycles = Some(cycles);
        self
    }
}

/// One scheduled submission for [`FleetServer::run_keyed`](crate::FleetServer::run_keyed).
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Fabric cycle at which the tenant submits the job.
    pub at_cycle: Cycle,
    /// Submitting tenant (dense index, `< n_tenants`; the fleet maps it to
    /// its shard's local index).
    pub tenant: usize,
    /// The job itself.
    pub spec: JobSpec,
}

/// Why the server refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's submission queue was at capacity on arrival.
    AdmissionFull,
    /// The job's queue-wait deadline expired (and retries, if any, were
    /// exhausted).
    DeadlineExpired,
    /// The job's arguments do not match the system's command spec
    /// (unknown, missing, or over-wide field); refused at admission.
    BadArgs,
}

/// What happened to a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job ran; carries its response and measured latencies.
    Completed {
        /// The accelerator's response payload.
        value: u64,
        /// Cycles from scheduled arrival to host-observed completion.
        latency_cycles: Cycle,
        /// Cycles from scheduled arrival to dispatch (queue + lock wait).
        queue_wait_cycles: Cycle,
        /// Core the job ran on.
        core: u16,
        /// Deadline retries the job went through before completing.
        retries: u32,
    },
    /// The server refused the job.
    Rejected {
        /// Why.
        reason: RejectReason,
        /// Deadline retries consumed before the rejection.
        retries: u32,
        /// Cycles from scheduled arrival to the rejection — the wait the
        /// client paid for nothing. Rejections contribute to the
        /// `queue_wait_cycles` histogram just like dispatches, so tail
        /// percentiles do not silently exclude the worst outcomes.
        queue_wait_cycles: Cycle,
    },
}

impl JobOutcome {
    /// The completion latency, if the job completed.
    pub fn latency_cycles(&self) -> Option<Cycle> {
        match self {
            JobOutcome::Completed { latency_cycles, .. } => Some(*latency_cycles),
            JobOutcome::Rejected { .. } => None,
        }
    }

    /// Whether the job completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }
}

/// What the server does when a queued job's deadline expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineAction {
    /// Drop the job with [`RejectReason::DeadlineExpired`].
    Reject,
    /// Re-enqueue at the tenant's tail with a re-armed deadline, up to
    /// `max_retries` times; then reject. Models a client that resubmits.
    Retry {
        /// Retries before giving up.
        max_retries: u32,
    },
}

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// Per-tenant submission-queue bound (admission control).
    pub queue_capacity: usize,
    /// What expired deadlines do.
    pub deadline_action: DeadlineAction,
    /// Budget for a single "wait for any completion" step; exceeding it
    /// means the device wedged and the server panics rather than hanging.
    pub response_budget_cycles: Cycle,
    /// Admission micro-batching for the event policies: how many ready
    /// commands one dispatcher visit may submit under a single lock
    /// acquisition (default `Fixed(1)`). Ignored by
    /// [`DispatchPolicy::LockArbitrated`] (the baseline models the
    /// paper's per-command server verbatim).
    pub batch: BatchPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            policy: DispatchPolicy::Fifo,
            queue_capacity: 64,
            deadline_action: DeadlineAction::Reject,
            response_budget_cycles: 2_000_000_000,
            batch: BatchPolicy::default(),
        }
    }
}

/// Errors constructing a [`FleetServer`](crate::FleetServer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// No system with that name exists on the device.
    UnknownSystem(String),
    /// The server needs at least one tenant.
    NoTenants,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownSystem(name) => write!(f, "no system named '{name}'"),
            ServerError::NoTenants => write!(f, "server needs at least one tenant"),
        }
    }
}

impl std::error::Error for ServerError {}

/// A job sitting in a tenant's submission queue.
struct Queued {
    /// Index into the outcome vector (arrival order).
    idx: usize,
    /// Fleet-wide trace id its telemetry events carry.
    trace_id: u64,
    tenant: usize,
    spec: JobSpec,
    /// Scheduled arrival cycle (re-armed on deadline retry).
    arrival_cycle: Cycle,
    /// Original scheduled arrival (latency is measured from here even
    /// across retries).
    first_arrival_cycle: Cycle,
    /// Global arrival sequence (FIFO and tie-break key).
    seq: u64,
    retries: u32,
}

/// A dispatched job awaiting its response.
struct InFlight {
    idx: usize,
    trace_id: u64,
    tenant: usize,
    token: CommandToken,
    first_arrival_cycle: Cycle,
    dispatch_cycle: Cycle,
    retries: u32,
}

/// The multi-tenant runtime server over one [`bcore::SocSim`]: one
/// shard of a [`FleetServer`](crate::FleetServer).
///
/// One server arbitrates one accelerator system's cores between its
/// shard's tenants. Jobs flow: admission → per-tenant queue →
/// dispatcher (policy) → core command FIFO → completion harvest →
/// [`JobOutcome`]. All host-side costs advance the shared simulated
/// clock; nothing here consumes wall-clock time.
pub(crate) struct AccelServer {
    handle: FpgaHandle,
    system: String,
    sys_id: u16,
    /// The system's command spec, against which admission checks every
    /// job's arguments.
    spec: AccelCommandSpec,
    n_cores: u16,
    config: ServerConfig,
    /// Local tenant index → global tenant id, the id telemetry events
    /// carry.
    tenants: Vec<usize>,
    queues: Vec<VecDeque<Queued>>,
    /// Per-core FIFOs of dispatched jobs (responses return in order).
    inflight: Vec<VecDeque<InFlight>>,
    /// Cores with an empty in-flight queue (invariant: `c ∈ idle_cores`
    /// ⟺ `inflight[c].is_empty()`). Lets dispatch find an idle core
    /// without rescanning every core's state on every visit.
    idle_cores: BTreeSet<u16>,
    /// The adaptive batch-width controller (consulted only under
    /// [`BatchPolicy::Auto`]).
    auto: AutoBatcher,
    /// Round-robin tenant cursor.
    rr_cursor: usize,
    /// Global submission sequence (the baseline's `seq % n_cores` core
    /// binding and every policy's tie-break).
    next_seq: u64,
    /// Counters and histograms registered under `server/`, including the
    /// queued-job count `queue_depth` and its peak `queue_depth_peak`.
    stats: Stats,
    /// The telemetry event log and its watchdog; `None`
    /// (the default) keeps the hot path at one branch per event.
    telemetry: Option<Telemetry>,
}

impl AccelServer {
    /// Opens a server for `system` with one client per entry of
    /// `tenants` (their global ids), each with its own submission queue.
    ///
    /// Registers the `server/` counter set in the SoC's perf registry:
    /// `queue_depth` / `queue_depth_peak` (kept current on every queue
    /// change),
    /// `lock_wait_cycles`, `rejected`, `retried`, `dispatched`,
    /// `completed`, and per-tenant `tenant{i}/latency_cycles` histograms
    /// (plus an aggregate `latency_cycles`).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSystem`].
    pub(crate) fn new(
        handle: &FpgaHandle,
        system: &str,
        tenants: Vec<usize>,
        config: ServerConfig,
    ) -> Result<Self, ServerError> {
        let (sys_id, n_cores, spec) = handle
            .with_soc(|soc| {
                let id = soc.system_id(system)?;
                Some((id, soc.cores_in(id), soc.command_spec(id)?.clone()))
            })
            .ok_or_else(|| ServerError::UnknownSystem(system.to_owned()))?;
        assert!(n_cores > 0, "system '{system}' has no cores");
        let stats = Stats::new();
        // Listed from cycle 0, so the MMIO window's index space does not
        // move when the first job queues.
        stats.set("queue_depth", 0);
        stats.set("queue_depth_peak", 0);
        handle.with_soc(|soc| soc.perf().set("server").attach_stats(&stats));
        Ok(Self {
            handle: handle.clone(),
            system: system.to_owned(),
            sys_id,
            spec,
            n_cores,
            config,
            queues: tenants.iter().map(|_| VecDeque::new()).collect(),
            tenants,
            inflight: (0..n_cores as usize).map(|_| VecDeque::new()).collect(),
            idle_cores: (0..n_cores).collect(),
            auto: AutoBatcher::new(handle.now()),
            rr_cursor: 0,
            next_seq: 0,
            stats,
            telemetry: None,
        })
    }

    /// Turns on the telemetry event log, from which request spans,
    /// windowed metrics, and watchdog dumps are computed. Telemetry
    /// observes cycles the server already paid for and never advances the
    /// clock: enabling it cannot change cycle counts, outcomes, or any
    /// existing counter (pinned by the invariance tests).
    pub(crate) fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry = Some(Telemetry::new(config, self.handle.now()));
    }

    /// The telemetry log, if enabled (the fleet computes every view).
    pub(crate) fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// The global ids of this server's tenants, by local index.
    pub(crate) fn tenants(&self) -> &[usize] {
        &self.tenants
    }

    /// Number of cores the dispatcher allocates over.
    pub(crate) fn n_cores(&self) -> u16 {
        self.n_cores
    }

    /// Serves an open-loop arrival schedule to completion and returns one
    /// outcome per arrival, in input order. Each arrival comes with the
    /// fleet-wide trace id its telemetry events carry.
    ///
    /// Arrivals are stably sorted by cycle; the clock never waits for
    /// admission — if the server is busy when a job's cycle passes, the
    /// job is ingested late but its latency still counts from the
    /// scheduled arrival (open-loop semantics). A closed batch is every
    /// arrival at the current cycle.
    pub(crate) fn run_open_loop(&mut self, arrivals: Vec<(u64, Arrival)>) -> Vec<JobOutcome> {
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by_key(|&i| arrivals[i].1.at_cycle);
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; arrivals.len()];
        let mut next = 0usize;
        let poll_cycles = self
            .ns_to_cycles(self.handle.options().poll_interval_ns)
            .max(1);
        let mmio_ns = self
            .handle
            .with_soc(|soc| soc.platform().host_link.mmio_latency_ns);
        // The baseline's pending response-poll tick, if armed.
        let mut next_poll: Option<Cycle> = None;
        let baseline = self.config.policy == DispatchPolicy::LockArbitrated;
        // Set after a doorbell sleep observes a completion; the harvest
        // that follows tells us how many responses that one wake
        // serviced (doorbell coalescing).
        let mut doorbell_woke = false;

        loop {
            let now = self.handle.now();
            // 1. Ingest every arrival whose cycle has passed (admission).
            while next < order.len() && arrivals[order[next]].1.at_cycle <= now {
                let idx = order[next];
                let (trace_id, a) = &arrivals[idx];
                next += 1;
                self.admit(idx, *trace_id, a, &mut outcomes);
            }
            // 2. Harvest completions that are already host-visible. The
            //    baseline only looks at poll boundaries (and pays for the
            //    status read); event-driven policies observe for free on
            //    the doorbell cycle.
            if baseline {
                if next_poll.is_some_and(|t| t <= now) {
                    self.handle.advance_ns(mmio_ns);
                    self.stats
                        .add("poll_mmio_cycles", self.ns_to_cycles(mmio_ns));
                    self.harvest(&mut outcomes);
                    next_poll = None;
                }
            } else {
                let harvested = self.harvest(&mut outcomes);
                if doorbell_woke {
                    doorbell_woke = false;
                    if harvested >= 2 {
                        // One wake retired several in-flight jobs.
                        self.stats.incr("coalesced_wakes");
                    }
                }
            }
            // 3. Dispatch if the policy allows; time moves under us
            //    (lock + MMIO), so loop back to re-ingest. The baseline
            //    takes its verbatim per-command path, every event policy
            //    the batched dispatcher.
            let moved = if baseline {
                self.dispatch_one(&mut outcomes)
            } else {
                self.dispatch_batch(&mut outcomes)
            };
            if moved {
                continue;
            }
            let busy = self.inflight.iter().any(|q| !q.is_empty());
            if busy && baseline && next_poll.is_none() {
                next_poll = Some(self.handle.now() + poll_cycles);
            }
            // 4. Nothing dispatchable: decide how long to sleep.
            let now = self.handle.now();
            let next_arrival = (next < order.len()).then(|| arrivals[order[next]].1.at_cycle);
            if busy {
                let bound = match (next_poll, next_arrival) {
                    (Some(p), Some(a)) => Some(p.min(a)),
                    (Some(p), None) => Some(p),
                    (None, a) => a,
                };
                match bound {
                    // The baseline sleeps to its poll tick (or the next
                    // arrival); event-driven policies sleep on the
                    // response doorbell, bounded by the next arrival.
                    Some(t) if baseline => self.handle.run_for(t.saturating_sub(now)),
                    bound => {
                        let mut budget = bound
                            .map(|t| t.saturating_sub(now))
                            .unwrap_or(self.config.response_budget_cycles)
                            .max(1);
                        // Cap the doorbell sleep at the stall watchdog's
                        // deadline. Waking early is cycle-neutral: re-arming
                        // the doorbell observes the response at the exact
                        // same cycle it would have anyway.
                        let wd = self.telemetry.as_ref().and_then(|t| t.stall_deadline());
                        if let Some(d) = wd {
                            budget = budget.min(d.saturating_sub(now)).max(1);
                        }
                        let result = self
                            .handle
                            .with_soc(|soc| soc.run_until_any_response(budget));
                        doorbell_woke = result.is_ok();
                        if result.is_err() {
                            // The stall dump fires at most once; the
                            // deadline then disarms, so a truly wedged
                            // device still reaches the assert below on the
                            // next pass with the full response budget.
                            self.watchdog_poll();
                            if next_arrival.is_none() && wd.is_none() {
                                assert!(
                                    budget < self.config.response_budget_cycles,
                                    "device wedged: no completion within the response budget"
                                );
                            }
                        }
                    }
                }
            } else if let Some(t) = next_arrival {
                self.handle.run_for(t.saturating_sub(now));
            } else {
                // No work in flight, nothing queued (dispatch returned
                // false with idle cores ⇒ queues are drained), no arrivals
                // left: done.
                break;
            }
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every arrival resolves to an outcome"))
            .collect()
    }

    /// Admission control: jobs whose arguments do not fit the system's
    /// command spec are refused, the rest enter bounded per-tenant queues.
    fn admit(
        &mut self,
        idx: usize,
        trace_id: u64,
        a: &Arrival,
        outcomes: &mut [Option<JobOutcome>],
    ) {
        assert!(a.tenant < self.queues.len(), "tenant index out of range");
        let now = self.handle.now();
        let seq = self.next_seq;
        self.next_seq += 1;
        let reject = if self.spec.check(&a.spec.args).is_err() {
            Some(RejectReason::BadArgs)
        } else if self.queues[a.tenant].len() >= self.config.queue_capacity {
            Some(RejectReason::AdmissionFull)
        } else {
            None
        };
        if let Some(reason) = reject {
            let waited = now.saturating_sub(a.at_cycle);
            self.stats.incr("rejected");
            // Rejections count toward queue-wait like everything else:
            // the tail of this histogram must include the jobs that
            // waited and lost.
            self.stats.record("queue_wait_cycles", waited);
            self.observe_job(
                now,
                trace_id,
                a.tenant,
                JobStep::AdmissionReject {
                    scheduled: a.at_cycle,
                },
            );
            self.spike_poll();
            outcomes[idx] = Some(JobOutcome::Rejected {
                reason,
                retries: 0,
                queue_wait_cycles: waited,
            });
            return;
        }
        self.queues[a.tenant].push_back(Queued {
            idx,
            trace_id,
            tenant: a.tenant,
            spec: a.spec.clone(),
            arrival_cycle: a.at_cycle,
            first_arrival_cycle: a.at_cycle,
            seq,
            retries: 0,
        });
        let queue_depth = self.bump_depth();
        self.observe_job(
            now,
            trace_id,
            a.tenant,
            JobStep::Enqueue {
                scheduled: a.at_cycle,
                queue_depth,
            },
        );
    }

    /// Stores the queued-job count and its peak into the `server/` bag;
    /// returns the count.
    fn bump_depth(&self) -> u64 {
        let d = self.queues.iter().map(|q| q.len() as u64).sum();
        self.stats.set("queue_depth", d);
        if d > self.stats.get("queue_depth_peak") {
            self.stats.set("queue_depth_peak", d);
        }
        d
    }

    /// Pops the job the policy wants next, handling expired deadlines
    /// (lazily, at pick time) along the way.
    fn pick(&mut self, outcomes: &mut [Option<JobOutcome>]) -> Option<Queued> {
        loop {
            let now = self.handle.now();
            let picked = match self.config.policy {
                // Baseline and Fifo both take the global arrival order;
                // they differ in core binding and completion observation.
                DispatchPolicy::LockArbitrated | DispatchPolicy::Fifo => self
                    .queues
                    .iter()
                    .enumerate()
                    .filter_map(|(t, q)| q.front().map(|j| (j.seq, t, 0usize)))
                    .min()
                    .map(|(_, t, i)| (t, i)),
                DispatchPolicy::RoundRobin => {
                    let n = self.queues.len();
                    let found = (0..n)
                        .map(|o| (self.rr_cursor + o) % n)
                        .find(|&t| !self.queues[t].is_empty());
                    if let Some(t) = found {
                        self.rr_cursor = (t + 1) % n;
                    }
                    found.map(|t| (t, 0usize))
                }
                DispatchPolicy::ShortestJobFirst => self
                    .queues
                    .iter()
                    .enumerate()
                    .flat_map(|(t, q)| {
                        q.iter()
                            .enumerate()
                            .map(move |(i, j)| (j.spec.cost_hint, j.seq, t, i))
                    })
                    .min()
                    .map(|(_, _, t, i)| (t, i)),
            };
            let (tenant, pos) = picked?;
            let job = self.queues[tenant].remove(pos).expect("picked index live");
            self.bump_depth();
            // Lazy deadline check: the job is examined when it reaches
            // the dispatcher, not on a timer.
            let expired = job
                .spec
                .deadline_cycles
                .is_some_and(|d| now.saturating_sub(job.arrival_cycle) > d);
            if !expired {
                return Some(job);
            }
            match self.config.deadline_action {
                DeadlineAction::Retry { max_retries } if job.retries < max_retries => {
                    self.stats.incr("retried");
                    self.observe_job(
                        now,
                        job.trace_id,
                        tenant,
                        JobStep::Retry {
                            retries: job.retries + 1,
                        },
                    );
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.queues[tenant].push_back(Queued {
                        arrival_cycle: now,
                        seq,
                        retries: job.retries + 1,
                        ..job
                    });
                    self.bump_depth();
                }
                _ => {
                    let waited = now.saturating_sub(job.first_arrival_cycle);
                    self.stats.incr("rejected");
                    // Breached jobs waited too — their wait belongs in the
                    // same histogram the completions feed.
                    self.stats.record("queue_wait_cycles", waited);
                    self.observe_job(
                        now,
                        job.trace_id,
                        tenant,
                        JobStep::DeadlineBreach {
                            queue_wait_cycles: waited,
                        },
                    );
                    self.spike_poll();
                    outcomes[job.idx] = Some(JobOutcome::Rejected {
                        reason: RejectReason::DeadlineExpired,
                        retries: job.retries,
                        queue_wait_cycles: waited,
                    });
                }
            }
        }
    }

    /// The lock-arbitrated baseline's dispatch: at most one job per lock
    /// visit, bound to core `seq % n_cores` blind to core state (a full
    /// command FIFO is discovered by spinning inside the lock, never
    /// avoided). Returns whether anything moved.
    fn dispatch_one(&mut self, outcomes: &mut [Option<JobOutcome>]) -> bool {
        let Some(job) = self.pick(outcomes) else {
            return false;
        };
        let core = (job.seq % u64::from(self.n_cores)) as u16;
        let before = self.handle.now();
        // The serialized server spins on the chosen core's status
        // register while its response thread keeps draining completions
        // — without the drain, a core whose (bounded) response channel
        // fills can never retire a command and the spin would wedge
        // forever.
        let poll_ns = self.handle.options().poll_interval_ns.max(1);
        while self
            .handle
            .with_soc(|soc| soc.cmd_queue_free(self.sys_id, core))
            .unwrap_or(1)
            == 0
        {
            self.handle.advance_ns(poll_ns);
            self.harvest(outcomes);
            // A wedged core turns this spin into the livelock the flight
            // recorder exists for: dump, then die loudly.
            if self
                .telemetry
                .as_ref()
                .is_some_and(|t| t.stalled(self.handle.now()))
            {
                self.watchdog_poll();
                panic!("device wedged: command queue never drained (flight recorder dumped)");
            }
        }
        let token = self
            .handle
            .call(&self.system, core, job.spec.args.clone())
            .expect("admission checked the arguments; the server owns the core choice")
            .token();
        let now = self.handle.now();
        self.stats
            .add("lock_wait_cycles", now.saturating_sub(before));
        self.stats.incr("dispatched");
        self.stats.record(
            "queue_wait_cycles",
            now.saturating_sub(job.first_arrival_cycle),
        );
        self.observe_job(
            now,
            job.trace_id,
            job.tenant,
            JobStep::Dispatch {
                core,
                first_arrival: job.first_arrival_cycle,
            },
        );
        self.inflight[core as usize].push_back(InFlight {
            idx: job.idx,
            trace_id: job.trace_id,
            tenant: job.tenant,
            token,
            first_arrival_cycle: job.first_arrival_cycle,
            dispatch_cycle: now,
            retries: job.retries,
        });
        self.idle_cores.remove(&core);
        true
    }

    /// Dispatches up to `B` ready jobs under a single lock acquisition
    /// (admission micro-batching). Returns whether anything moved.
    ///
    /// Core selection: the batch's *first* job goes to an idle core with
    /// command-FIFO space, lowest index first (the idle-core cache makes
    /// this O(idle)); no such core, no batch. Later jobs may also prime
    /// *busy* cores' command FIFOs (least-loaded first, counting slots
    /// already claimed this batch), which is where the throughput win
    /// comes from: a core finishing its current job finds the next one
    /// already in its FIFO instead of idling through the server's next
    /// lock/MMIO/wake round trip.
    ///
    /// The batch width is bounded by the tightest queued deadline: a
    /// batch of `k` holds the lock for `lock + k·mmio` cycles, so `B` is
    /// clamped to what the most urgent waiting job can absorb.
    fn dispatch_batch(&mut self, outcomes: &mut [Option<JobOutcome>]) -> bool {
        let b_max = match self.config.batch {
            BatchPolicy::Fixed(n) => n.max(1),
            BatchPolicy::Auto => self.auto.current(),
        };
        let now = self.handle.now();
        let b_eff = self.deadline_slack_bound(now, b_max);
        // Command-FIFO slots still unclaimed, and each core's load
        // (in-flight + claimed this batch) for least-loaded placement.
        let mut free: Vec<usize> = (0..self.n_cores)
            .map(|c| {
                self.handle
                    .with_soc(|soc| soc.cmd_queue_free(self.sys_id, c))
                    .unwrap_or(0)
            })
            .collect();
        let mut load: Vec<usize> = self.inflight.iter().map(VecDeque::len).collect();
        let mut batch: Vec<(u16, Queued)> = Vec::new();
        while batch.len() < b_eff {
            let core = if batch.is_empty() {
                // First item: the lowest-index idle core with space.
                match self
                    .idle_cores
                    .iter()
                    .copied()
                    .find(|&c| free[c as usize] > 0)
                {
                    Some(c) => c,
                    None => return false,
                }
            } else {
                // Top-up items: least-loaded core with remaining FIFO
                // space, ties to the lowest index.
                match (0..self.n_cores)
                    .filter(|&c| free[c as usize] > 0)
                    .min_by_key(|&c| (load[c as usize], c))
                {
                    Some(c) => c,
                    None => break,
                }
            };
            let Some(job) = self.pick(outcomes) else {
                break;
            };
            free[core as usize] -= 1;
            load[core as usize] += 1;
            batch.push((core, job));
        }
        if batch.is_empty() {
            return false;
        }
        let items: Vec<(u16, BTreeMap<String, u64>)> = batch
            .iter()
            .map(|(core, job)| (*core, job.spec.args.clone()))
            .collect();
        let before = self.handle.now();
        let sent = self
            .handle
            .call_batch(&self.system, &items)
            .expect("admission checked the arguments; the batch fits the free FIFO slots");
        let after = self.handle.now();
        self.stats
            .add("lock_wait_cycles", after.saturating_sub(before));
        self.stats.record("batch_occupancy", batch.len() as u64);
        let mut waits = Vec::with_capacity(batch.len());
        for ((core, job), (resp, at)) in batch.into_iter().zip(sent) {
            self.stats.incr("dispatched");
            let wait = at.saturating_sub(job.first_arrival_cycle);
            self.stats.record("queue_wait_cycles", wait);
            waits.push(wait);
            self.observe_job(
                at,
                job.trace_id,
                job.tenant,
                JobStep::Dispatch {
                    core,
                    first_arrival: job.first_arrival_cycle,
                },
            );
            self.inflight[core as usize].push_back(InFlight {
                idx: job.idx,
                trace_id: job.trace_id,
                tenant: job.tenant,
                token: resp.token(),
                first_arrival_cycle: job.first_arrival_cycle,
                dispatch_cycle: at,
                retries: job.retries,
            });
            self.idle_cores.remove(&core);
        }
        if let Some(t) = self.telemetry.as_mut() {
            let occupancy = waits.len() as u64;
            t.record(after, ServerEvent::DispatchBatch { occupancy });
        }
        if self.config.batch == BatchPolicy::Auto {
            let depth = self.stats.get("queue_depth");
            self.auto.observe(after, depth, &waits);
        }
        true
    }

    /// How many commands the tightest queued deadline can absorb in one
    /// lock visit: a batch of `k` delays its last command by
    /// `lock + k·mmio` cycles, so the bound is the largest `k ≤ b_max`
    /// that fits inside the minimum remaining slack. No deadlines (or a
    /// free MMIO link) leaves `b_max` unchanged; an already-breached
    /// deadline clamps to 1 (the pick path will reject it lazily).
    fn deadline_slack_bound(&self, now: Cycle, b_max: usize) -> usize {
        let min_slack = self
            .queues
            .iter()
            .flatten()
            .filter_map(|job| {
                job.spec
                    .deadline_cycles
                    .map(|d| (job.arrival_cycle + d).saturating_sub(now))
            })
            .min();
        let Some(slack) = min_slack else {
            return b_max;
        };
        let opts = self.handle.options();
        let mmio_ns = self
            .handle
            .with_soc(|soc| soc.platform().host_link.mmio_latency_ns);
        let lock_cycles = self.ns_to_cycles(opts.lock_overhead_ns);
        let mmio_cycles = self.ns_to_cycles(mmio_ns);
        if mmio_cycles == 0 {
            return b_max;
        }
        let fits = (slack.saturating_sub(lock_cycles) / mmio_cycles) as usize;
        fits.clamp(1, b_max)
    }

    /// Harvests every host-visible completion (responses return per core
    /// in dispatch order) and returns how many jobs retired.
    ///
    /// One ready-list drain collects everything visible this cycle
    /// (`SocSim::drain_ready_responses`), then each core's in-flight
    /// FIFO is popped front-first — same core-major order, same cycle,
    /// same outcomes as the old per-token polling, without rescanning
    /// every response channel per job.
    fn harvest(&mut self, outcomes: &mut [Option<JobOutcome>]) -> usize {
        let now = self.handle.now();
        let handle = self.handle.clone();
        let inflight = &mut self.inflight;
        let done: Vec<(usize, InFlight, u64)> = handle.with_soc(|soc| {
            soc.drain_ready_responses();
            let mut done = Vec::new();
            for (core, fifo) in inflight.iter_mut().enumerate() {
                while let Some(front) = fifo.front() {
                    let Some(value) = soc.take_completed(front.token) else {
                        break;
                    };
                    let job = fifo.pop_front().expect("front exists");
                    done.push((core, job, value));
                }
            }
            done
        });
        let harvested = done.len();
        for (core, job, value) in done {
            let latency = now.saturating_sub(job.first_arrival_cycle);
            self.record_completion(job.tenant, latency);
            self.observe_job(
                now,
                job.trace_id,
                job.tenant,
                JobStep::Complete {
                    core: core as u16,
                    dispatched: job.dispatch_cycle,
                    latency_cycles: latency,
                },
            );
            outcomes[job.idx] = Some(JobOutcome::Completed {
                value,
                latency_cycles: latency,
                queue_wait_cycles: job.dispatch_cycle.saturating_sub(job.first_arrival_cycle),
                core: core as u16,
                retries: job.retries,
            });
            if self.inflight[core].is_empty() {
                self.idle_cores.insert(core as u16);
            }
        }
        harvested
    }

    /// Logs `step` of the job `trace_id` from local tenant `tenant`,
    /// under the tenant's global id, if telemetry is on.
    fn observe_job(&mut self, now: Cycle, trace_id: u64, tenant: usize, step: JobStep) {
        if let Some(t) = self.telemetry.as_mut() {
            let tenant = self.tenants[tenant];
            t.record(
                now,
                ServerEvent::Job {
                    trace_id,
                    tenant,
                    step,
                },
            );
        }
    }

    /// Dumps the flight recorder if the stall watchdog's deadline has
    /// passed (at most once per run).
    fn watchdog_poll(&mut self) {
        let now = self.handle.now();
        if !self.telemetry.as_ref().is_some_and(|t| t.stalled(now)) {
            return;
        }
        let queued: u64 = self.queues.iter().map(|q| q.len() as u64).sum();
        let inflight: u64 = self.inflight.iter().map(|q| q.len() as u64).sum();
        if let Some(t) = self.telemetry.as_mut() {
            t.dump("stall", now, queued, inflight);
        }
    }

    /// Dumps the flight recorder if the rejection/breach spike threshold
    /// was crossed inside the current window (at most once per run).
    fn spike_poll(&mut self) {
        if !self.telemetry.as_ref().is_some_and(|t| t.spike_due()) {
            return;
        }
        let now = self.handle.now();
        let queued: u64 = self.queues.iter().map(|q| q.len() as u64).sum();
        let inflight: u64 = self.inflight.iter().map(|q| q.len() as u64).sum();
        if let Some(t) = self.telemetry.as_mut() {
            t.dump("breach_spike", now, queued, inflight);
        }
    }

    fn record_completion(&self, tenant: usize, latency: Cycle) {
        self.stats.incr("completed");
        self.stats.record("latency_cycles", latency);
        self.stats
            .record(&format!("tenant{tenant}/latency_cycles"), latency);
    }

    fn ns_to_cycles(&self, ns: u64) -> Cycle {
        self.handle
            .with_soc(|soc| soc.clock().ps_to_cycles(ns * 1000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcore::elaborate;
    use bkernels::vecadd;
    use bplatform::Platform;

    /// A 1-core vecadd SoC on the shared-memory platform with one live
    /// buffer per tenant, plus a job factory.
    fn setup(
        n_cores: u32,
        n_tenants: usize,
        config: ServerConfig,
    ) -> (FpgaHandle, AccelServer, bruntime::RemotePtr) {
        let soc = elaborate(vecadd::config(n_cores), &Platform::kria()).expect("elaboration");
        let handle = FpgaHandle::new(soc);
        let tenants = (0..n_tenants).collect();
        let server =
            AccelServer::new(&handle, vecadd::SYSTEM, tenants, config).expect("server opens");
        let mem = handle.malloc(64 * 1024).expect("buffer");
        handle.write_u32_slice(mem, &vec![1u32; 16 * 1024]);
        (handle, server, mem)
    }

    /// A vecadd job over `n` elements (cost hint = elements).
    fn job(mem: bruntime::RemotePtr, n: u32) -> JobSpec {
        JobSpec::new(vecadd::args(1, mem.device_addr(), n)).with_cost_hint(u64::from(n))
    }

    /// Serves `arrivals` (telemetry is off, so trace ids are unused).
    fn serve(server: &mut AccelServer, arrivals: Vec<Arrival>) -> Vec<JobOutcome> {
        server.run_open_loop(arrivals.into_iter().map(|a| (0, a)).collect())
    }

    /// A closed batch: every `(tenant, job)` arrives at the current cycle.
    fn now_arrivals(handle: &FpgaHandle, jobs: Vec<(usize, JobSpec)>) -> Vec<Arrival> {
        let now = handle.now();
        jobs.into_iter()
            .map(|(tenant, spec)| Arrival {
                at_cycle: now,
                tenant,
                spec,
            })
            .collect()
    }

    #[test]
    fn unknown_system_and_zero_tenants_error() {
        let open = |system, n_tenants| {
            let soc = |_| elaborate(vecadd::config(1), &Platform::kria()).unwrap();
            crate::FleetServer::new(soc, system, n_tenants, crate::FleetConfig::default())
        };
        assert!(matches!(
            open("Nope", 1),
            Err(ServerError::UnknownSystem(_))
        ));
        assert!(matches!(
            open(vecadd::SYSTEM, 0),
            Err(ServerError::NoTenants)
        ));
    }

    #[test]
    fn batch_completes_under_every_policy() {
        for policy in DispatchPolicy::all() {
            let config = ServerConfig {
                policy,
                ..ServerConfig::default()
            };
            let (handle, mut server, mem) = setup(2, 2, config);
            let jobs = vec![(0, job(mem, 64)), (1, job(mem, 64)), (0, job(mem, 64))];
            let outcomes = serve(&mut server, now_arrivals(&handle, jobs));
            assert_eq!(outcomes.len(), 3, "{policy}");
            for o in &outcomes {
                assert!(o.is_completed(), "{policy}: {o:?}");
            }
            assert_eq!(server.stats.get("completed"), 3, "{policy}");
        }
    }

    #[test]
    fn admission_control_bounds_each_tenant_queue() {
        // One slow job occupies the single core; a burst beyond the
        // 2-deep tenant queue must be rejected at admission.
        let config = ServerConfig {
            policy: DispatchPolicy::Fifo,
            queue_capacity: 2,
            ..ServerConfig::default()
        };
        let (handle, mut server, mem) = setup(1, 1, config);
        let t0 = handle.now();
        let arrivals: Vec<Arrival> = (0..8)
            .map(|i| Arrival {
                at_cycle: t0 + i,
                tenant: 0,
                spec: job(mem, 4096),
            })
            .collect();
        let outcomes = serve(&mut server, arrivals);
        let rejected = outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    JobOutcome::Rejected {
                        reason: RejectReason::AdmissionFull,
                        ..
                    }
                )
            })
            .count();
        // Core takes job 0; jobs fill the 2-deep queue; the rest of the
        // burst (arriving while the queue is full) bounces.
        assert!(rejected > 0, "burst beyond capacity must reject");
        assert_eq!(server.stats.get("rejected"), rejected as u64);
        assert_eq!(
            server.stats.get("completed") as usize,
            outcomes.len() - rejected
        );
        // The peak depth counter must have seen the bound, never more.
        let peak = handle
            .with_soc(|soc| soc.perf().counter("server/queue_depth_peak"))
            .expect("counter registered");
        assert_eq!(peak, 2, "peak queue depth clamps at capacity");
    }

    #[test]
    fn sjf_beats_fifo_on_mean_latency_under_backlog() {
        // One core, mixed sizes arriving back to back: letting the short
        // jobs jump the queue must lower mean latency versus FIFO.
        let run = |policy| {
            let config = ServerConfig {
                policy,
                ..ServerConfig::default()
            };
            let (handle, mut server, mem) = setup(1, 1, config);
            let t0 = handle.now();
            let sizes = [8192u32, 64, 4096, 64, 2048, 64];
            let arrivals = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| Arrival {
                    at_cycle: t0 + i as Cycle,
                    tenant: 0,
                    spec: job(mem, n),
                })
                .collect();
            let outcomes = serve(&mut server, arrivals);
            let total: u64 = outcomes
                .iter()
                .map(|o| o.latency_cycles().expect("all complete"))
                .sum();
            total / outcomes.len() as u64
        };
        let fifo = run(DispatchPolicy::Fifo);
        let sjf = run(DispatchPolicy::ShortestJobFirst);
        assert!(
            sjf < fifo,
            "SJF must lower mean latency (sjf {sjf} vs fifo {fifo})"
        );
    }

    #[test]
    fn sjf_reorders_queue_by_cost_hint() {
        // Saturate the core with a long job, then queue long-then-short.
        // SJF must dispatch the short one first despite arrival order.
        let config = ServerConfig {
            policy: DispatchPolicy::ShortestJobFirst,
            ..ServerConfig::default()
        };
        let (handle, mut server, mem) = setup(1, 1, config);
        let t0 = handle.now();
        let arrivals = vec![
            Arrival {
                at_cycle: t0,
                tenant: 0,
                spec: job(mem, 4096), // occupies the core
            },
            Arrival {
                at_cycle: t0 + 1,
                tenant: 0,
                spec: job(mem, 2048), // queued long
            },
            Arrival {
                at_cycle: t0 + 2,
                tenant: 0,
                spec: job(mem, 32), // queued short, arrives last
            },
        ];
        let outcomes = serve(&mut server, arrivals);
        let (
            JobOutcome::Completed {
                queue_wait_cycles: w_long,
                ..
            },
            JobOutcome::Completed {
                queue_wait_cycles: w_short,
                ..
            },
        ) = (&outcomes[1], &outcomes[2])
        else {
            panic!("queued jobs must complete: {outcomes:?}");
        };
        assert!(
            w_short < w_long,
            "SJF dispatches the short job first (short waited {w_short}, long {w_long})"
        );
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        // Tenant 0 floods the queue before tenant 1's single job arrives.
        // Round-robin must not make tenant 1 wait behind the whole flood.
        let mk = |policy| ServerConfig {
            policy,
            ..ServerConfig::default()
        };
        let run = |policy| {
            let (handle, mut server, mem) = setup(1, 2, mk(policy));
            let t0 = handle.now();
            let mut arrivals: Vec<Arrival> = (0..6)
                .map(|i| Arrival {
                    at_cycle: t0 + i,
                    tenant: 0,
                    spec: job(mem, 1024),
                })
                .collect();
            arrivals.push(Arrival {
                at_cycle: t0 + 6,
                tenant: 1,
                spec: job(mem, 1024),
            });
            let outcomes = serve(&mut server, arrivals);
            outcomes
                .last()
                .unwrap()
                .latency_cycles()
                .expect("tenant 1's job completes")
        };
        let fifo = run(DispatchPolicy::Fifo);
        let rr = run(DispatchPolicy::RoundRobin);
        assert!(
            rr < fifo,
            "round-robin must serve tenant 1 ahead of tenant 0's backlog \
             (rr {rr} vs fifo {fifo})"
        );
    }

    #[test]
    fn deadline_reject_drops_stale_jobs() {
        let config = ServerConfig {
            policy: DispatchPolicy::Fifo,
            deadline_action: DeadlineAction::Reject,
            ..ServerConfig::default()
        };
        let (handle, mut server, mem) = setup(1, 1, config);
        let t0 = handle.now();
        let arrivals = vec![
            Arrival {
                at_cycle: t0,
                tenant: 0,
                spec: job(mem, 8192), // occupies the core for a long time
            },
            Arrival {
                at_cycle: t0 + 1,
                tenant: 0,
                spec: job(mem, 64).with_deadline(10), // cannot make it
            },
        ];
        let outcomes = serve(&mut server, arrivals);
        assert!(outcomes[0].is_completed());
        let JobOutcome::Rejected {
            reason: RejectReason::DeadlineExpired,
            retries: 0,
            queue_wait_cycles,
        } = outcomes[1]
        else {
            panic!("stale job must be rejected: {:?}", outcomes[1]);
        };
        assert!(
            queue_wait_cycles > 10,
            "rejection reports the wait that breached the 10-cycle deadline \
             (waited {queue_wait_cycles})"
        );
        assert_eq!(server.stats.get("rejected"), 1);
    }

    #[test]
    fn deadline_retry_reenqueues_then_completes_or_rejects() {
        // Retried jobs re-arm their deadline from the retry cycle, so a
        // job that keeps missing eventually completes (core frees up) and
        // records its retry count.
        let config = ServerConfig {
            policy: DispatchPolicy::Fifo,
            deadline_action: DeadlineAction::Retry { max_retries: 50 },
            ..ServerConfig::default()
        };
        let (handle, mut server, mem) = setup(1, 1, config);
        let t0 = handle.now();
        let arrivals = vec![
            Arrival {
                at_cycle: t0,
                tenant: 0,
                spec: job(mem, 8192),
            },
            Arrival {
                at_cycle: t0 + 1,
                tenant: 0,
                spec: job(mem, 64).with_deadline(10),
            },
        ];
        let outcomes = serve(&mut server, arrivals);
        match outcomes[1] {
            JobOutcome::Completed { retries, .. } => {
                assert!(retries > 0, "job must have been retried before completing")
            }
            other => panic!("retry budget of 50 should suffice: {other:?}"),
        }
        assert!(server.stats.get("retried") > 0);

        // With a tiny retry budget and competing traffic the retried job
        // lands behind the competitor (retry re-enqueues at the tail), its
        // re-armed deadline expires again, and the budget runs out.
        let config = ServerConfig {
            deadline_action: DeadlineAction::Retry { max_retries: 1 },
            ..config
        };
        let (handle, mut server, mem) = setup(1, 1, config);
        let t0 = handle.now();
        let arrivals = vec![
            Arrival {
                at_cycle: t0,
                tenant: 0,
                spec: job(mem, 8192),
            },
            Arrival {
                at_cycle: t0 + 1,
                tenant: 0,
                spec: job(mem, 64).with_deadline(10),
            },
            Arrival {
                at_cycle: t0 + 2,
                tenant: 0,
                spec: job(mem, 8192),
            },
        ];
        let outcomes = serve(&mut server, arrivals);
        assert!(
            matches!(
                outcomes[1],
                JobOutcome::Rejected {
                    reason: RejectReason::DeadlineExpired,
                    retries: 1,
                    ..
                }
            ),
            "retry budget of 1 must be consumed then rejected: {:?}",
            outcomes[1]
        );
    }

    #[test]
    fn server_counters_surface_through_perf_registry() {
        let (handle, mut server, mem) = setup(2, 2, ServerConfig::default());
        let jobs = vec![(0, job(mem, 64)), (1, job(mem, 128))];
        let outcomes = serve(&mut server, now_arrivals(&handle, jobs));
        assert!(outcomes.iter().all(JobOutcome::is_completed));
        let names = handle.counter_names();
        for expected in [
            "server/completed",
            "server/dispatched",
            "server/queue_depth",
            "server/queue_depth_peak",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "{expected} missing from {names:?}"
            );
        }
        // Histograms: aggregate + per-tenant latency, through the registry.
        let perf = handle.with_soc(|soc| soc.perf());
        let agg = perf.histogram("server/latency_cycles").expect("aggregate");
        assert_eq!(agg.count(), 2);
        assert_eq!(
            perf.histogram("server/tenant0/latency_cycles")
                .expect("tenant 0")
                .count(),
            1
        );
        assert_eq!(
            perf.histogram("server/tenant1/latency_cycles")
                .expect("tenant 1")
                .count(),
            1
        );
        // The MMIO counter window can read a live server counter.
        assert_eq!(handle.read_counter("server/completed"), Some(2));
        // And the text report includes the set.
        let report = handle.with_soc(|soc| soc.perf().report());
        assert!(report.contains("[server]"));
        assert!(report.contains("latency_cycles"));
    }

    #[test]
    fn open_loop_results_are_deterministic() {
        let run = || {
            let config = ServerConfig {
                policy: DispatchPolicy::RoundRobin,
                ..ServerConfig::default()
            };
            let (handle, mut server, mem) = setup(2, 3, config);
            let t0 = handle.now();
            let arrivals: Vec<Arrival> = (0..12)
                .map(|i| Arrival {
                    at_cycle: t0 + i * 700,
                    tenant: (i % 3) as usize,
                    spec: job(mem, 64 << (i % 3)),
                })
                .collect();
            let outcomes = serve(&mut server, arrivals);
            (format!("{outcomes:?}"), handle.now())
        };
        assert_eq!(run(), run(), "same schedule, same cycles, same outcomes");
    }
}
