//! The async serving front end: a deterministic event loop over bounded
//! per-tenant ingress queues.
//!
//! [`PlanService::serve_batch`](crate::service::PlanService::serve_batch)
//! is synchronous: callers block while a batch drains, queue depth is
//! invisible to the admission policy, and one stalled worker stalls the
//! fleet.  [`AsyncFrontend`] closes that gap with a small event-driven
//! runtime (no async executor — the container is offline and the loop is
//! deterministic by construction, the same replay-equals-live shape as
//! event-driven backtesting engines):
//!
//! * **bounded ingress** — [`submit`](AsyncFrontend::submit) never blocks:
//!   it enqueues into the tenant's bounded queue and returns a [`Ticket`];
//!   a full queue sheds the request *at ingress*
//!   ([`RejectReason::QueueFull`]) so queue memory stays under the
//!   configured bound whatever the arrival rate;
//! * **logical time** — the loop advances in ticks
//!   ([`tick`](AsyncFrontend::tick)).  Each tick applies due completion
//!   events in dispatch order, then dequeues up to
//!   [`dispatch_per_tick`](FrontendConfig::dispatch_per_tick) requests
//!   round-robin across tenants, then updates the shed level.  Every
//!   decision (admission, shedding, deadlines, dedup, store/quarantine
//!   bookkeeping) happens on the loop thread in logical time, so outcomes
//!   are **identical across worker-thread counts** — only wall latency
//!   varies;
//! * **adaptive backpressure** — the backlog (queued requests) feeds back
//!   into the [`AdmissionPolicy`](crate::admission::AdmissionPolicy)
//!   thresholds: each shed level halves the admit/reject costs
//!   ([`decide_at`](crate::admission::AdmissionPolicy::decide_at)), levels
//!   move one step per tick between the
//!   [`backlog_high`](FrontendConfig::backlog_high)/
//!   [`backlog_low`](FrontendConfig::backlog_low) watermarks
//!   (hysteresis — no flapping), and a request shed *only because* of the
//!   tightened threshold reports [`RejectReason::Shed`] with the level
//!   that shed it;
//! * **deadline propagation** — a request may carry a deadline in ticks;
//!   one that has already expired when dequeued is cancelled
//!   ([`RejectReason::DeadlineExpired`]) instead of solved uselessly, and
//!   one *predicted* to miss (dequeue tick + modelled solve latency past
//!   the deadline) is degraded — solved under the admission policy's
//!   degrade deadline rather than at full budget;
//! * **stall detection** — workers heartbeat by recording when they pick a
//!   job up; the loop's completion wait times a started solve out after
//!   [`stall_timeout`](FrontendConfig::stall_timeout), settles it as a
//!   [`RejectReason::WorkerStall`] failure (quarantining the fingerprint),
//!   resolves the ticket and its dedup followers, spawns a replacement
//!   worker, and the abandoned solve's late result is discarded — a wedged
//!   solve costs one worker, never the fleet.
//!
//! Everything else is the owning [`PlanService`]'s: the loop calls the
//! same admit → execute → settle → respond stages as the batch path, over
//! the same plan store, quarantine, retained caches, request ordinals and
//! counters, so the two doors are one serving tier.  Completion events are
//! applied in dispatch order (due ticks are monotone in dispatch order),
//! which makes store and quarantine contents a pure function of the
//! submission sequence: the fault-replay digests in `fsw_sim` assert
//! byte-equality across 1/2/4 workers on exactly this property.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::ops::Bound;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fsw_core::CoreResult;
use fsw_obs::{LogHistogram, SpanTimer, TrafficSketch};

use crate::service::{
    Job, PlanRequest, PlanService, Prepared, RejectReason, Rejection, ServeOutcome, ServeSource,
    SolveResult, Solved,
};
use crate::stats::{FrontendStats, ServeStats};
use crate::store::PlanKey;

/// Hard cap on the modelled solve latency, in ticks (keeps due ticks from
/// running away on jumbo estimates; the cap is the degrade band anyway).
const MAX_LATENCY_TICKS: u64 = 8;
/// Replacement workers the pool may spawn over its lifetime when stalls
/// consume the original ones.
const MAX_REPLACEMENT_WORKERS: usize = 16;
/// Rows of the per-tenant traffic sketches (`tenant.*`).
const TENANT_SKETCH_DEPTH: usize = 4;
/// Counters per row of the per-tenant traffic sketches.
const TENANT_SKETCH_WIDTH: usize = 64;

/// Tuning of one [`AsyncFrontend`] (all thresholds in logical units; see
/// the module docs for how each feeds the loop).
#[derive(Clone, Copy, Debug)]
pub struct FrontendConfig {
    /// Worker threads solving dispatched requests (wall parallelism only —
    /// outcomes are identical for any value ≥ 1).
    pub workers: usize,
    /// Bound on each tenant's ingress queue; arrivals beyond it are shed
    /// at ingress with [`RejectReason::QueueFull`].
    pub queue_capacity: usize,
    /// Requests dequeued (round-robin across tenants) per tick.
    pub dispatch_per_tick: usize,
    /// Backlog at or above which the shed level rises (one step per tick).
    pub backlog_high: usize,
    /// Backlog at or below which the shed level falls (one step per tick).
    pub backlog_low: usize,
    /// Ceiling on the shed level (each level halves the admission
    /// thresholds).
    pub max_shed_level: u32,
    /// Structural cost per logical tick — the latency model dividing an
    /// admission estimate into a scheduled completion tick.
    pub cost_per_tick: u128,
    /// Default deadline (in ticks from submission) stamped on every
    /// request; `None` leaves requests deadline-free unless
    /// [`submit_with_deadline`](AsyncFrontend::submit_with_deadline) is
    /// used.
    pub deadline_ticks: Option<u64>,
    /// Wall-clock watchdog: a solve still running this long after a worker
    /// picked it up is declared stalled.
    pub stall_timeout: Duration,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            workers: 1,
            queue_capacity: 64,
            dispatch_per_tick: 8,
            backlog_high: 48,
            backlog_low: 16,
            max_shed_level: 8,
            cost_per_tick: 1 << 18,
            deadline_ticks: None,
            stall_timeout: Duration::from_secs(2),
        }
    }
}

/// A claim on one submitted request; resolves to exactly one
/// [`Completion`] from [`AsyncFrontend::tick`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// The ticket's id (issue order within its front end).
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// One resolved ticket: the completion event the loop emits.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The ticket being resolved.
    pub ticket: Ticket,
    /// The tenant that submitted it.
    pub tenant: usize,
    /// The request's lifetime arrival ordinal (the fault-injection key,
    /// shared with the owning service's sync path).
    pub ordinal: u64,
    /// Tick at which the request was submitted.
    pub submitted_tick: u64,
    /// Tick at which the ticket resolved (logical latency =
    /// `completed_tick - submitted_tick`).
    pub completed_tick: u64,
    /// The outcome, same three-way contract as the sync path.
    pub outcome: ServeOutcome,
}

/// A deterministic async-layer fault injected by the replay harness,
/// keyed by request ordinal (see
/// [`AsyncFrontend::with_fault_injection`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontendFault {
    /// The worker solving this request stalls for the duration before
    /// doing any work — longer than the watchdog, it exercises stall
    /// detection end to end.
    StallWorker(Duration),
    /// The store shard holding this request's fingerprint responds slowly:
    /// the dequeue path sleeps before the lookup.  Wall-clock only — the
    /// decision sequence (and hence the digest) is unaffected.
    SlowShard(Duration),
}

/// A ticket's identity: everything a completion reports besides the
/// outcome.
#[derive(Clone, Copy)]
struct TicketId {
    ticket: Ticket,
    tenant: usize,
    ordinal: u64,
    submitted_tick: u64,
}

/// One request sitting in a tenant's ingress queue.
struct QueuedRequest {
    id: TicketId,
    deadline_tick: Option<u64>,
    request: PlanRequest,
}

/// A dequeued request waiting on a solve.
struct Waiting {
    id: TicketId,
    prep: Arc<Prepared>,
}

/// One dispatched solve the loop is waiting on.
struct PendingJob {
    job: u64,
    due_tick: u64,
    /// The leader, then its dedup followers in join order.
    riders: Vec<Waiting>,
}

/// Observability handles of one front end, present when its service has
/// a registry attached.  Wall-clock span durations are observability-only;
/// the latency histogram records **logical ticks** — a pure function of
/// the logical timeline, safe next to the replay digests.
struct LoopInstruments {
    /// `frontend.tick` — one span per event-loop tick.
    tick: SpanTimer,
    /// `frontend.watchdog` — one span per blocking completion wait.
    watchdog: SpanTimer,
    /// `frontend.latency_ticks` — logical latency of every resolved ticket.
    latency_ticks: Arc<LogHistogram>,
    /// `tenant.requests` — per-tenant submission traffic (sketched).
    tenant_requests: Arc<TrafficSketch>,
    /// `tenant.sheds` — per-tenant shed traffic (queue-full + backpressure).
    tenant_sheds: Arc<TrafficSketch>,
    /// `tenant.degrades` — per-tenant degraded responses (sketched).
    tenant_degrades: Arc<TrafficSketch>,
}

/// State shared between the loop and the workers.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    ready: Condvar,
}

struct PoolQueue {
    items: VecDeque<(u64, Job)>,
    /// Heartbeats: when each in-flight job was picked up.
    started: HashMap<u64, Instant>,
    /// Finished solves awaiting the loop.
    results: HashMap<u64, SolveResult>,
    shutdown: bool,
}

/// The fixed-size worker pool behind the loop (std threads; the loop is
/// the only consumer of results, so ordering lives entirely on its side).
struct WorkerPool {
    service: Arc<PlanService>,
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    replacements: usize,
}

impl WorkerPool {
    fn new(service: Arc<PlanService>, workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                items: VecDeque::new(),
                started: HashMap::new(),
                results: HashMap::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let mut pool = WorkerPool {
            service,
            shared,
            handles: Vec::new(),
            replacements: 0,
        };
        for _ in 0..workers.max(1) {
            pool.spawn_worker();
        }
        pool
    }

    fn spawn_worker(&mut self) {
        let shared = Arc::clone(&self.shared);
        let service = Arc::clone(&self.service);
        self.handles.push(std::thread::spawn(move || loop {
            let (id, job) = {
                let mut queue = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
                loop {
                    if queue.shutdown {
                        return;
                    }
                    if let Some((id, job)) = queue.items.pop_front() {
                        queue.started.insert(id, Instant::now());
                        break (id, job);
                    }
                    queue = shared.ready.wait(queue).unwrap_or_else(|p| p.into_inner());
                }
            };
            let result = service.execute(&job);
            let mut queue = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            queue.started.remove(&id);
            queue.results.insert(id, result);
            shared.ready.notify_all();
        }));
    }

    fn submit(&self, id: u64, job: Job) {
        let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        queue.items.push_back((id, job));
        self.shared.ready.notify_all();
    }

    /// Blocks until `job` finishes or its heartbeat exceeds
    /// `stall_timeout`, which settles it as a [`RejectReason::WorkerStall`]
    /// failure.  Due ticks are monotone in dispatch order, so every earlier
    /// job has already been applied when this is called — a job that has
    /// not started yet is about to be picked up by a free worker, never
    /// blocked behind unhandled work.
    fn wait(&mut self, job: u64, stall_timeout: Duration) -> SolveResult {
        let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = queue.results.remove(&job) {
                return result;
            }
            let wait_for = match queue.started.get(&job) {
                Some(started) => {
                    let elapsed = started.elapsed();
                    if elapsed >= stall_timeout {
                        drop(queue);
                        // The worker is wedged: restore pool capacity so
                        // queued jobs keep flowing (the abandoned worker
                        // rejoins whenever its solve finally returns).
                        if self.replacements < MAX_REPLACEMENT_WORKERS {
                            self.replacements += 1;
                            self.spawn_worker();
                        }
                        return Err(RejectReason::WorkerStall);
                    }
                    stall_timeout - elapsed
                }
                None => stall_timeout,
            };
            let (guard, _) = self
                .shared
                .ready
                .wait_timeout(queue, wait_for)
                .unwrap_or_else(|p| p.into_inner());
            queue = guard;
        }
    }

    /// Forgets a late result of an abandoned (stalled) job, if present.
    fn discard(&self, job: u64) -> bool {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .results
            .remove(&job)
            .is_some()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            queue.shutdown = true;
            queue.items.clear();
        }
        self.shared.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The deterministic event loop (see the module docs).  Single ownership:
/// the loop itself is not `Sync` — submissions and ticks happen on one
/// driver thread, parallelism lives in the worker pool behind it.  Its
/// counters are its service's, so a service drives one front end at a
/// time.
pub struct AsyncFrontend {
    service: Arc<PlanService>,
    config: FrontendConfig,
    fault_hook: Option<Box<dyn Fn(u64) -> Option<FrontendFault> + Send + Sync>>,
    tick: u64,
    next_ticket: u64,
    next_job: u64,
    last_due: u64,
    shed_level: u32,
    /// Per-tenant bounded ingress queues (BTreeMap: deterministic
    /// round-robin order over tenant ids).
    queues: BTreeMap<usize, VecDeque<QueuedRequest>>,
    /// Round-robin position: the next dequeue starts *after* this tenant.
    rr_after: Option<usize>,
    /// Dispatched jobs in dispatch order (due ticks are monotone, so the
    /// front is always the next completion to apply).
    pending: VecDeque<PendingJob>,
    /// Job id currently in flight per key (dedup joins attach here).
    in_flight: HashMap<PlanKey, u64>,
    /// Jobs abandoned by the stall watchdog whose late results must be
    /// discarded when they eventually surface.
    abandoned: HashSet<u64>,
    /// Completions produced since the last `tick`/`drain` returned.
    ready: Vec<Completion>,
    pool: WorkerPool,
    /// Span, histogram and sketch handles, when the service has a
    /// registry attached.
    metrics: Option<LoopInstruments>,
}

impl AsyncFrontend {
    /// A front end over `service` (whose store, quarantine, caches,
    /// budget, counters and registry are shared with the sync path) under
    /// `config`.  With a registry attached to the service, the loop also
    /// records `frontend.tick`/`frontend.watchdog` spans, the logical-tick
    /// latency histogram (`frontend.latency_ticks`) and per-tenant traffic
    /// sketches (`tenant.requests` / `tenant.sheds` / `tenant.degrades`).
    pub fn new(service: Arc<PlanService>, config: FrontendConfig) -> Self {
        let metrics = service.metrics_registry().map(|registry| {
            let sketch = |name| registry.sketch(name, TENANT_SKETCH_DEPTH, TENANT_SKETCH_WIDTH);
            LoopInstruments {
                tick: registry.span("frontend.tick"),
                watchdog: registry.span("frontend.watchdog"),
                latency_ticks: registry.histogram("frontend.latency_ticks"),
                tenant_requests: sketch("tenant.requests"),
                tenant_sheds: sketch("tenant.sheds"),
                tenant_degrades: sketch("tenant.degrades"),
            }
        });
        AsyncFrontend {
            pool: WorkerPool::new(Arc::clone(&service), config.workers),
            service,
            config,
            fault_hook: None,
            tick: 0,
            next_ticket: 0,
            next_job: 0,
            last_due: 0,
            shed_level: 0,
            queues: BTreeMap::new(),
            rr_after: None,
            pending: VecDeque::new(),
            in_flight: HashMap::new(),
            abandoned: HashSet::new(),
            ready: Vec::new(),
            metrics,
        }
    }

    /// Installs a deterministic async-layer fault hook keyed by request
    /// ordinal (stalls and slow shards; solver-level faults — panics,
    /// slowdowns, deadline blowouts — come from the owning service's own
    /// [`with_fault_injection`](PlanService::with_fault_injection) hook,
    /// keyed by the same ordinals).
    pub fn with_fault_injection<F>(mut self, hook: F) -> Self
    where
        F: Fn(u64) -> Option<FrontendFault> + Send + Sync + 'static,
    {
        self.fault_hook = Some(Box::new(hook));
        self
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Lifetime counters.
    pub fn stats(&self) -> FrontendStats {
        self.service.counters().frontend()
    }

    /// One tier-wide snapshot of the owning service (see [`ServeStats`]).
    pub fn serve_stats(&self) -> ServeStats {
        self.service.serve_stats()
    }

    /// Tickets not yet resolved (queued + in flight).
    pub fn outstanding(&self) -> usize {
        let c = self.service.counters();
        (c.ingress.get() - c.completions.get()) as usize
    }

    /// Submits one request under the configured default deadline.  Never
    /// blocks: the ticket resolves through [`tick`](Self::tick) (a full
    /// tenant queue resolves it immediately as
    /// [`RejectReason::QueueFull`]).  Validation errors fail the submit
    /// itself — an invalid application never earns a ticket.
    pub fn submit(&mut self, tenant: usize, request: PlanRequest) -> CoreResult<Ticket> {
        let deadline = self.config.deadline_ticks;
        self.submit_inner(tenant, request, deadline)
    }

    /// Submits one request with an explicit deadline `deadline_ticks`
    /// ticks from now (overriding the configured default).
    pub fn submit_with_deadline(
        &mut self,
        tenant: usize,
        request: PlanRequest,
        deadline_ticks: u64,
    ) -> CoreResult<Ticket> {
        self.submit_inner(tenant, request, Some(deadline_ticks))
    }

    fn submit_inner(
        &mut self,
        tenant: usize,
        request: PlanRequest,
        deadline_ticks: Option<u64>,
    ) -> CoreResult<Ticket> {
        request.app.validate()?;
        let id = TicketId {
            ticket: Ticket(self.next_ticket),
            tenant,
            ordinal: self.service.next_ordinals(1),
            submitted_tick: self.tick,
        };
        self.next_ticket += 1;
        self.service.counters().ingress.inc();
        if let Some(m) = &self.metrics {
            m.tenant_requests.record(tenant as u64, 1);
        }
        let queue = self.queues.entry(tenant).or_default();
        if queue.len() >= self.config.queue_capacity {
            self.reject(id, RejectReason::QueueFull);
            return Ok(id.ticket);
        }
        queue.push_back(QueuedRequest {
            id,
            deadline_tick: deadline_ticks.map(|d| self.tick + d),
            request,
        });
        let depth = queue.len() as u64;
        self.service.counters().tenant_queue.set(depth);
        Ok(id.ticket)
    }

    /// Advances one logical tick: applies due completion events, dequeues
    /// up to `dispatch_per_tick` requests, updates the shed level, and
    /// returns every completion produced since the last call.
    pub fn tick(&mut self) -> Vec<Completion> {
        let _tick_span = self.metrics.as_ref().map(|m| m.tick.start());
        self.tick += 1;
        self.apply_due_completions();
        for _ in 0..self.config.dispatch_per_tick {
            let Some(item) = self.next_queued() else {
                break;
            };
            self.decide_one(item);
        }
        self.update_shed_level();
        std::mem::take(&mut self.ready)
    }

    /// Ticks until every outstanding ticket has resolved, returning all
    /// completions produced along the way.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut all = Vec::new();
        while self.outstanding() > 0 || !self.ready.is_empty() {
            all.extend(self.tick());
        }
        all
    }

    /// Applies every pending completion whose due tick has arrived, in
    /// dispatch order: settle, then respond to the leader and its
    /// followers.  Blocks on the worker's actual result (bounded by the
    /// stall watchdog): parallelism is preserved — later jobs keep solving
    /// while the loop waits — but store and quarantine effects land in
    /// deterministic order.
    fn apply_due_completions(&mut self) {
        // Purge late results of previously abandoned jobs.
        self.abandoned.retain(|&job| !self.pool.discard(job));
        while self
            .pending
            .front()
            .is_some_and(|job| job.due_tick <= self.tick)
        {
            let job = self.pending.pop_front().expect("front checked");
            let key = &job.riders[0].prep.key;
            self.in_flight.remove(key);
            let result = {
                let _watchdog = self.metrics.as_ref().map(|m| m.watchdog.start());
                self.pool.wait(job.job, self.config.stall_timeout)
            };
            if matches!(result, Err(RejectReason::WorkerStall)) {
                self.abandoned.insert(job.job);
            }
            self.service.settle(key, &result);
            let mut source = ServeSource::Cold;
            for waiting in job.riders {
                let outcome = self.service.respond(&waiting.prep, &result, source);
                self.complete(waiting.id, outcome);
                source = ServeSource::Dedup;
            }
        }
    }

    /// Resolves one ticket now: counts its outcome and queues the
    /// completion event.
    fn complete(&mut self, id: TicketId, outcome: ServeOutcome) {
        let counters = self.service.counters();
        counters.record(&outcome);
        counters.completions.inc();
        if let Some(m) = &self.metrics {
            m.latency_ticks.record(self.tick - id.submitted_tick);
            let tenant = id.tenant as u64;
            match &outcome {
                ServeOutcome::Degraded { .. } => m.tenant_degrades.record(tenant, 1),
                ServeOutcome::Rejected(Rejection {
                    reason: RejectReason::QueueFull | RejectReason::Shed { .. },
                    ..
                }) => m.tenant_sheds.record(tenant, 1),
                _ => {}
            }
        }
        self.ready.push(Completion {
            ticket: id.ticket,
            tenant: id.tenant,
            ordinal: id.ordinal,
            submitted_tick: id.submitted_tick,
            completed_tick: self.tick,
            outcome,
        });
    }

    fn reject(&mut self, id: TicketId, reason: RejectReason) {
        let rejection = Rejection {
            reason,
            estimate: None,
            source: None,
        };
        self.complete(id, ServeOutcome::Rejected(rejection));
    }

    /// The next queued request in round-robin tenant order, if any: the
    /// first non-empty queue after the last served tenant, wrapping round.
    fn next_queued(&mut self) -> Option<QueuedRequest> {
        let after = self.rr_after.map_or(Bound::Unbounded, Bound::Excluded);
        let tenant = self
            .queues
            .range((after, Bound::Unbounded))
            .chain(&self.queues)
            .find(|(_, queue)| !queue.is_empty())
            .map(|(&tenant, _)| tenant)?;
        self.rr_after = Some(tenant);
        self.queues
            .get_mut(&tenant)
            .and_then(|queue| queue.pop_front())
    }

    /// The dequeue decision pipeline for one request: deadline →
    /// (slow-shard fault) → store → dedup → admit at the shed level →
    /// (predicted deadline miss) → dispatch.
    fn decide_one(&mut self, item: QueuedRequest) {
        let QueuedRequest {
            id,
            deadline_tick,
            request,
        } = item;
        // 1. Cancellation: an expired deadline is not worth a lookup.
        if deadline_tick.is_some_and(|deadline| self.tick > deadline) {
            return self.reject(id, RejectReason::DeadlineExpired);
        }
        let prep = Arc::new(Prepared::new(request, self.service.budget()));
        // 2. Injected slow shard: wall-clock stall before the lookup, no
        // effect on any decision.
        if let Some(FrontendFault::SlowShard(delay)) = self.frontend_fault(id.ordinal) {
            std::thread::sleep(delay);
        }
        // 3. Store hit: resolved this tick.
        if let Some(plan) = self.service.store().get(&prep.key) {
            let hit = Ok(Solved { plan, floor: None });
            let outcome = self.service.respond(&prep, &hit, ServeSource::Store);
            return self.complete(id, outcome);
        }
        // 4. Dedup join: ride the in-flight solve of the same key.
        if let Some(&job) = self.in_flight.get(&prep.key) {
            if let Some(pending) = self.pending.iter_mut().find(|p| p.job == job) {
                pending.riders.push(Waiting { id, prep });
            }
            return;
        }
        // 5. Quarantine and admission under backlog-scaled thresholds.
        let mut admitted = match self.service.admit(&prep, self.shed_level) {
            Ok(admitted) => admitted,
            Err(rejection) => return self.complete(id, ServeOutcome::Rejected(rejection)),
        };
        let latency = 1
            + (admitted.cost / self.config.cost_per_tick.max(1)).min(u128::from(MAX_LATENCY_TICKS))
                as u64;
        // 6. Deadline propagation: predicted to miss at full budget →
        // degrade instead of solving uselessly.
        if let Some(deadline) = deadline_tick {
            if admitted.time_limit.is_none() && self.tick + latency > deadline {
                self.service.counters().deadline_degrades.inc();
                admitted.time_limit = Some(self.service.admission().degrade_time_limit);
            }
        }
        // 7. Dispatch.  Due ticks are monotone in dispatch order
        // (completion events are applied FIFO), which is what makes the
        // loop's store/quarantine effects — and the fault-replay digests —
        // thread-count independent.
        let job_id = self.next_job;
        self.next_job += 1;
        let mut job = self.service.job(Arc::clone(&prep), id.ordinal, admitted);
        if let Some(FrontendFault::StallWorker(stall)) = self.frontend_fault(id.ordinal) {
            job.stall = Some(stall);
        }
        self.pool.submit(job_id, job);
        let due_tick = (self.tick + latency).max(self.last_due);
        self.last_due = due_tick;
        self.in_flight.insert(prep.key.clone(), job_id);
        self.pending.push_back(PendingJob {
            job: job_id,
            due_tick,
            riders: vec![Waiting { id, prep }],
        });
    }

    fn frontend_fault(&self, ordinal: u64) -> Option<FrontendFault> {
        self.fault_hook.as_ref().and_then(|hook| hook(ordinal))
    }

    /// One hysteresis step: the backlog after this tick's dispatches
    /// moves the shed level at most one notch.
    fn update_shed_level(&mut self) {
        let backlog: usize = self.queues.values().map(VecDeque::len).sum();
        let counters = self.service.counters();
        if backlog >= self.config.backlog_high {
            let raised = (self.shed_level + 1).min(self.config.max_shed_level);
            if raised != self.shed_level {
                self.shed_level = raised;
                counters.shed_raises.inc();
            }
        } else if backlog <= self.config.backlog_low && self.shed_level > 0 {
            self.shed_level -= 1;
            counters.shed_lowers.inc();
        }
        counters.backlog.set(backlog as u64);
        counters.shed_level.set(u64::from(self.shed_level));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use fsw_core::{Application, CommModel};
    use fsw_sched::orchestrator::{Objective, SearchBudget};

    fn service() -> Arc<PlanService> {
        Arc::new(PlanService::new(SearchBudget::default(), 64))
    }

    fn small_request(seed: u32) -> PlanRequest {
        PlanRequest::new(
            Application::independent(&[(1.0 + f64::from(seed), 0.5), (2.0, 0.25)]),
            CommModel::Overlap,
            Objective::MinPeriod,
        )
    }

    #[test]
    fn tickets_resolve_without_blocking_submission() {
        let mut frontend = AsyncFrontend::new(service(), FrontendConfig::default());
        let t0 = frontend.submit(0, small_request(0)).unwrap();
        let t1 = frontend.submit(1, small_request(0)).unwrap();
        assert_eq!(frontend.outstanding(), 2, "submit never blocks");
        let completions = frontend.drain();
        assert_eq!(completions.len(), 2);
        let by_ticket: HashMap<Ticket, &Completion> =
            completions.iter().map(|c| (c.ticket, c)).collect();
        // Same fingerprint: one cold solve, one dedup/store ride-along.
        let a = by_ticket[&t0].outcome.expect_exact();
        let b = by_ticket[&t1].outcome.expect_exact();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        let stats = frontend.stats();
        assert_eq!(stats.dispatches, 1, "identical keys share one solve");
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn full_tenant_queues_shed_at_ingress() {
        let config = FrontendConfig {
            queue_capacity: 2,
            ..FrontendConfig::default()
        };
        let mut frontend = AsyncFrontend::new(service(), config);
        for i in 0..4u32 {
            frontend.submit(7, small_request(i)).unwrap();
        }
        // Two queued, two shed immediately.
        let stats = frontend.stats();
        assert_eq!(stats.queue_full_sheds, 2);
        assert_eq!(stats.peak_tenant_queue, 2);
        let completions = frontend.drain();
        let shed = completions
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome.rejection().map(|r| &r.reason),
                    Some(RejectReason::QueueFull)
                )
            })
            .count();
        assert_eq!(shed, 2);
        assert_eq!(completions.len(), 4, "every ticket resolves");
    }

    #[test]
    fn expired_deadlines_cancel_at_dequeue() {
        let config = FrontendConfig {
            dispatch_per_tick: 1,
            ..FrontendConfig::default()
        };
        let mut frontend = AsyncFrontend::new(service(), config);
        // Three distinct requests, deadline 1 tick: with one dequeue per
        // tick, the third is dequeued at tick 3 — past its deadline.
        for i in 0..3u32 {
            frontend
                .submit_with_deadline(0, small_request(i), 1)
                .unwrap();
        }
        let completions = frontend.drain();
        let cancelled = completions
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome.rejection().map(|r| &r.reason),
                    Some(RejectReason::DeadlineExpired)
                )
            })
            .count();
        assert!(cancelled >= 1, "late dequeues must cancel");
        assert_eq!(frontend.stats().deadline_cancels, cancelled);
        assert_eq!(completions.len(), 3);
    }

    #[test]
    fn stalled_workers_are_timed_out_and_quarantined() {
        let config = FrontendConfig {
            workers: 2,
            stall_timeout: Duration::from_millis(40),
            ..FrontendConfig::default()
        };
        let service = service();
        let mut frontend =
            AsyncFrontend::new(Arc::clone(&service), config).with_fault_injection(|ordinal| {
                (ordinal == 0).then_some(FrontendFault::StallWorker(Duration::from_millis(400)))
            });
        let stalled = frontend.submit(0, small_request(0)).unwrap();
        let fine = frontend.submit(1, small_request(1)).unwrap();
        let completions = frontend.drain();
        let by_ticket: HashMap<Ticket, &Completion> =
            completions.iter().map(|c| (c.ticket, c)).collect();
        assert_eq!(
            by_ticket[&stalled].outcome.rejection().map(|r| &r.reason),
            Some(&RejectReason::WorkerStall)
        );
        assert!(by_ticket[&fine].outcome.is_exact());
        assert_eq!(frontend.stats().stalls, 1);
        // The stalled fingerprint is now in the shared quarantine: the
        // sync path rejects it too.
        let next = service.serve_one(&small_request(0)).unwrap();
        assert_eq!(
            next.rejection().map(|r| &r.reason),
            Some(&RejectReason::Quarantined { permanent: false })
        );
    }

    #[test]
    fn backpressure_tightens_and_relaxes_with_hysteresis() {
        // Degrade-band requests (admitted at baseline) must be shed while
        // the backlog holds the shed level up, and admitted again after
        // the queues drain.
        let config = FrontendConfig {
            queue_capacity: 256,
            dispatch_per_tick: 4,
            backlog_high: 8,
            backlog_low: 2,
            max_shed_level: 8,
            ..FrontendConfig::default()
        };
        let mut frontend = AsyncFrontend::new(service(), config);
        // A burst of cheap distinct requests builds the backlog…
        for i in 0..64u32 {
            frontend.submit(i as usize % 4, small_request(i)).unwrap();
        }
        // …the level climbs one notch per tick while the backlog holds…
        let mut completions = Vec::new();
        for _ in 0..6 {
            completions.extend(frontend.tick());
        }
        assert!(
            frontend.stats().shed_level >= 5,
            "backlog must raise the level"
        );
        // …and a degrade-band request (n = 8 distinct, admitted with a
        // deadline at baseline) arriving mid-burst is shed at the
        // tightened threshold.
        let specs: Vec<(f64, f64)> = (0..8).map(|k| (1.0 + k as f64, 0.4)).collect();
        let degrade_band = PlanRequest::new(
            Application::independent(&specs),
            CommModel::Overlap,
            Objective::MinPeriod,
        );
        frontend.submit(9, degrade_band.clone()).unwrap();
        completions.extend(frontend.drain());
        // Idle ticks after the drain decay the level back to baseline.
        for _ in 0..10 {
            completions.extend(frontend.tick());
        }
        let stats = frontend.stats();
        assert!(stats.peak_shed_level > 0, "burst must raise the level");
        assert_eq!(stats.shed_level, 0, "drain must relax the level");
        let shed = completions
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome.rejection().map(|r| &r.reason),
                    Some(RejectReason::Shed { .. })
                )
            })
            .count();
        assert_eq!(shed, stats.backpressure_sheds);
        assert!(
            shed >= 1,
            "the degrade-band request under load must be shed (levels {})",
            stats.peak_shed_level
        );
        // After the drain the same request is admitted (degrade band).
        let mut calm = AsyncFrontend::new(service(), config);
        calm.submit(9, degrade_band).unwrap();
        let outcome = &calm.drain()[0].outcome;
        assert!(
            matches!(outcome, ServeOutcome::Degraded { .. }),
            "baseline must still degrade-admit, got {outcome:?}"
        );
    }

    #[test]
    fn open_admission_skips_pricing_but_still_flows() {
        let service = Arc::new(
            PlanService::new(SearchBudget::default(), 16).with_admission(AdmissionPolicy::open()),
        );
        let mut frontend = AsyncFrontend::new(service, FrontendConfig::default());
        frontend.submit(0, small_request(3)).unwrap();
        let completions = frontend.drain();
        assert!(completions[0].outcome.is_exact());
    }
}
