//! Replay of a serving trace through either front door of the planning
//! service.
//!
//! Where [`crate::replay_oplist`] executes one *schedule* against the
//! resource rules, this harness executes a whole *serving timeline*
//! ([`fsw_workloads::streaming::ArrivalTrace`]) against the `fsw_serve`
//! stack.  Tenants are admitted into [`TenantSession`]s and mutate through
//! [`TenantSession::apply`]; their requests reach a fresh [`PlanService`]
//! through the door the [`ReplayConfig`] picks:
//!
//! * [`Door::Batch`] — the requests of one step form one
//!   [`PlanService::serve_batch`] call, except that a tenant mutated since
//!   its last request re-plans online ([`TenantSession::replan`], warm
//!   started from its adopted plan) and publishes the result to the store;
//! * [`Door::Async`] — every request is submitted to an
//!   [`AsyncFrontend`] that ticks once per step and drains at the end, so
//!   **every ticket resolves**.
//!
//! Both doors report the same [`RequestOutcome`]s, [`ReplayReport`] and
//! [`digest`](ReplayReport::digest).  With [`ReplayConfig::verify`] on,
//! every **exactly answered** request also runs a **shadow cold solve** of
//! the application it submitted, outside the serving path and its wall
//! time: served `Exact` values must match it bit-for-bit, and warm
//! re-plans must not evaluate more candidates.  Shadows are memoised by
//! the exact service list, so a 100 000-request trace over a handful of
//! templates costs a handful of them.
//!
//! A [`FaultPlan`] injects solver panics, slowdowns and deadline blowouts
//! through the service, worker stalls and slow shards through the front
//! end, and ingress bursts through this driver — all keyed by **request
//! ordinal** (arrival order at the service), so a faulted replay takes the
//! same path whatever the worker thread count: the foundation of the
//! robustness digests asserted in tests and experiments E15–E17.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsw_core::{Application, CommModel, CoreError, CoreResult};
use fsw_obs::{LogHistogram, MetricsRegistry};
use fsw_sched::engine::EvalCache;
use fsw_sched::orchestrator::{solve_warm, Objective, Problem, SearchBudget};
use fsw_serve::{
    AsyncFrontend, FrontendConfig, FrontendFault, FrontendStats, InjectedFault, PlanRequest,
    PlanService, RejectReason, ServeOutcome, ServeSource, ServiceStats, StoreStats, TenantEvent,
    TenantSession,
};
use fsw_workloads::streaming::{ArrivalTrace, TraceEventKind};

/// How a request was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestPath {
    /// Missed the store and did not join an in-flight solve: the leader
    /// of a cold solve, or turned away before one.
    Cold,
    /// Served from the plan store.
    Store,
    /// Rode an in-flight solve of its key (sharing its outcome, failures
    /// included).
    Dedup,
    /// Warm-started online re-plan after a service-set mutation (batch
    /// door).
    Replan,
}

/// How a request resolved: the answer's quality tier, or why it got no
/// plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Exhaustive answer, bit-identical to a cold solve.
    Exact,
    /// Best incumbent under a fired deadline, breached cap, or predicted
    /// deadline miss.
    Degraded,
    /// Shed at ingress: the tenant's bounded queue was full.
    QueueFull,
    /// Shed at dequeue by adaptive backpressure at the recorded level.
    Shed {
        /// The shed level in force at the decision.
        level: u32,
    },
    /// Priced above the *baseline* reject threshold by admission.
    AdmissionCost,
    /// The fingerprint was quarantined.
    Quarantined,
    /// The deadline had expired at dequeue: cancelled, never solved.
    DeadlineExpired,
    /// The worker solving this fingerprint stalled past the watchdog.
    WorkerStall,
    /// The solve panicked (leader or follower of the panicking key).
    SolverPanic,
}

/// One request's outcome in the replay.
#[derive(Clone, Debug)]
pub struct RequestOutcome {
    /// The request ordinal at the service (`None` for a re-plan, which
    /// never reaches the service).
    pub ordinal: Option<u64>,
    /// The trace step the request fired at.
    pub step: usize,
    /// The requesting tenant.
    pub tenant: usize,
    /// `true` when a scheduled ingress burst injected this request.
    pub burst_extra: bool,
    /// How it was answered.
    pub path: RequestPath,
    /// How it resolved.
    pub disposition: Disposition,
    /// The served objective value (`NaN` when no plan was served).
    pub value: f64,
    /// Certified admissible lower bound of a degraded answer (or the floor
    /// quoted with a rejection), when one was priced.
    pub lower_bound: Option<f64>,
    /// The logical tick the request was submitted at (one tick per step).
    pub submitted_tick: u64,
    /// The logical tick it resolved at (the batch door resolves every
    /// request of a step at the end of its tick).
    pub completed_tick: u64,
    /// Wall-clock latency attributed to the request: its batch's serving
    /// time (shared across the batch), its re-plan's solve time, or the
    /// time from its step's submissions to the tick that resolved it.
    pub latency: Duration,
    /// Plan churn of a re-plan (moved parent assignments); `None` off the
    /// replan path.
    pub churn: Option<usize>,
    /// Candidates evaluated by a re-plan's search (0 off the replan path).
    pub evaluated: usize,
    /// Ground-truth value from the shadow cold solve (verify mode, exact
    /// answers only).
    pub cold_value: Option<f64>,
    /// Candidates the shadow cold solve evaluated (verify mode).
    pub cold_evaluated: Option<usize>,
}

impl RequestOutcome {
    /// Queueing + service latency in logical ticks.
    pub fn latency_ticks(&self) -> u64 {
        self.completed_tick - self.submitted_tick
    }

    /// `true` when the request was shed by overload protection (ingress
    /// queue full or backpressure scaling) rather than priced out at
    /// baseline.
    pub fn is_shed(&self) -> bool {
        matches!(
            self.disposition,
            Disposition::QueueFull | Disposition::Shed { .. }
        )
    }
}

/// One row of [`ReplayReport::digest`]: `(ordinal, step, tenant, path,
/// disposition, value bits, churn, latency ticks)`.
pub type DigestRow = (
    Option<u64>,
    usize,
    usize,
    RequestPath,
    Disposition,
    u64,
    Option<usize>,
    u64,
);

/// Aggregate report of one trace replay.
#[derive(Debug)]
pub struct ReplayReport {
    /// Per-request outcomes: in timeline order on the batch door (a
    /// step's re-plans before its batch), in ordinal order on the async
    /// door.
    pub outcomes: Vec<RequestOutcome>,
    /// Tenants in the trace.
    pub tenants: usize,
    /// Logical ticks the replay ran (one per step, plus the async drain).
    pub ticks: u64,
    /// Wall time spent inside the door's serving calls (batches,
    /// re-plans, submissions and ticks; shadow solves and bookkeeping
    /// excluded).
    pub serve_wall: Duration,
    /// The service's final counters (re-plans are not service requests).
    pub service: ServiceStats,
    /// The plan store's final counters.
    pub store: StoreStats,
    /// The front end's final counters (async door only).
    pub frontend: Option<FrontendStats>,
    /// Plan-store entries holding a non-exhaustive plan at the end of the
    /// replay — the store-purity invariant says this is always `0`.
    pub store_non_exhaustive: usize,
}

impl ReplayReport {
    /// Total requests resolved (service requests + re-plans).
    pub fn requests(&self) -> usize {
        self.outcomes.len()
    }

    /// Requests answered without a solve of their own (store + dedup).
    pub fn served(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.path, RequestPath::Store | RequestPath::Dedup))
            .filter(|o| matches!(o.disposition, Disposition::Exact | Disposition::Degraded))
            .count()
    }

    /// Fraction of requests served from cache or dedup.
    pub fn served_ratio(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.served() as f64 / self.outcomes.len() as f64
    }

    /// Number of re-plan outcomes.
    pub fn replans(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.path == RequestPath::Replan)
            .count()
    }

    /// `(exact, degraded, rejected)` — the answer-quality mix.
    pub fn mix(&self) -> (usize, usize, usize) {
        self.outcomes
            .iter()
            .fold((0, 0, 0), |(e, d, r), o| match o.disposition {
                Disposition::Exact => (e + 1, d, r),
                Disposition::Degraded => (e, d + 1, r),
                _ => (e, d, r + 1),
            })
    }

    /// Fraction of requests *submitted* in `[from_tick, to_tick)` that
    /// were shed — the shed-rate curve overload contracts assert on (rises
    /// under a burst, returns to baseline after the drain).
    pub fn shed_rate_between(&self, from_tick: u64, to_tick: u64) -> f64 {
        let window: Vec<&RequestOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.submitted_tick >= from_tick && o.submitted_tick < to_tick)
            .collect();
        if window.is_empty() {
            return 0.0;
        }
        window.iter().filter(|o| o.is_shed()).count() as f64 / window.len() as f64
    }

    /// The `p`-th percentile (0–100, nearest-rank) of per-request wall
    /// latency.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        if self.outcomes.is_empty() {
            return Duration::ZERO;
        }
        let mut latencies: Vec<Duration> = self.outcomes.iter().map(|o| o.latency).collect();
        latencies.sort_unstable();
        let rank = ((p / 100.0) * (latencies.len() - 1) as f64).round() as usize;
        latencies[rank.min(latencies.len() - 1)]
    }

    /// The `p`-th percentile (0–100, nearest-rank) of per-request latency
    /// in logical ticks — deterministic, unlike wall latency.  Answered
    /// from a log₂-scale histogram, exact in the region tick latencies
    /// live in (one bucket per value under 1024), so it equals a
    /// sorted-vector nearest-rank scan.
    pub fn latency_tick_percentile(&self, p: f64) -> u64 {
        let histogram = LogHistogram::new();
        for outcome in &self.outcomes {
            histogram.record(outcome.latency_ticks());
        }
        histogram.quantile(p)
    }

    /// Sum of plan churn over all re-plans.
    pub fn total_churn(&self) -> usize {
        self.outcomes.iter().filter_map(|o| o.churn).sum()
    }

    /// `(warm, cold)` evaluation totals over the re-plans that carry shadow
    /// counts (verify mode): the warm side must never exceed the cold side.
    pub fn replan_evaluations(&self) -> (usize, usize) {
        self.outcomes
            .iter()
            .filter(|o| o.path == RequestPath::Replan && o.cold_evaluated.is_some())
            .fold((0, 0), |(w, c), o| {
                (w + o.evaluated, c + o.cold_evaluated.unwrap_or(0))
            })
    }

    /// Requests whose served value differs (bitwise) from the shadow cold
    /// solve's value — must be `0` in verify mode (only `Exact` answers
    /// carry a ground truth; degraded and rejected ones promise none).
    pub fn value_mismatches(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| {
                o.cold_value
                    .is_some_and(|cold| cold.to_bits() != o.value.to_bits())
            })
            .count()
    }

    /// Serving throughput in requests per second.
    pub fn requests_per_second(&self) -> f64 {
        let secs = self.serve_wall.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        self.outcomes.len() as f64 / secs
    }

    /// A worker- and thread-count-independent digest of the replay for
    /// determinism tests, one [`DigestRow`] per request.  Wall latencies
    /// and evaluation counts are excluded — parallel searches return
    /// identical *results* but different timings, and may probe more
    /// candidates against a staler incumbent.
    pub fn digest(&self) -> Vec<DigestRow> {
        self.digest_rows().collect()
    }

    /// The [`digest`](Self::digest) rows, unmaterialised (comparing two
    /// million-request replays then costs no extra memory).
    pub fn digest_rows(&self) -> impl Iterator<Item = DigestRow> + '_ {
        self.outcomes.iter().map(|o| {
            let value = o.value.to_bits();
            let (path, ticks) = (o.path, o.latency_ticks());
            (
                o.ordinal,
                o.step,
                o.tenant,
                path,
                o.disposition,
                value,
                o.churn,
                ticks,
            )
        })
    }
}

/// A deterministic fault schedule for a replay: faults are keyed by the
/// **request ordinal** at the service (arrival order across the replay),
/// so the same plan replayed under any worker thread count injects the
/// same faults into the same requests.  A solver fault fires when its
/// request leads a cold solve; ordinals answered from the store,
/// deduplicated, or rejected before the pool leave their fault unused.
///
/// Beyond the solver-level faults (panic / slow / deadline blowout), the
/// plan carries **async-layer faults** for the event-loop front end
/// ([`fsw_serve::AsyncFrontend`]; ignored by the batch door): worker
/// stalls and slow store shards ([`FrontendFault`], same ordinal keying),
/// and **ingress bursts** — at the scheduled ordinal the replay driver
/// injects that many extra copies of the request, on either door,
/// modelling an arrival spike.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: HashMap<u64, InjectedFault>,
    frontend_faults: HashMap<u64, FrontendFault>,
    bursts: HashMap<u64, usize>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a solver panic at request `ordinal`.
    pub fn panic_at(mut self, ordinal: u64) -> Self {
        self.faults.insert(ordinal, InjectedFault::Panic);
        self
    }

    /// Schedules an artificial `stall` before the solve at `ordinal`.
    pub fn slow_at(mut self, ordinal: u64, stall: Duration) -> Self {
        self.faults.insert(ordinal, InjectedFault::Slow(stall));
        self
    }

    /// Schedules a deadline blowout (the solve starts with its deadline
    /// already expired and degrades to the deterministic fallback) at
    /// `ordinal`.
    pub fn blowout_at(mut self, ordinal: u64) -> Self {
        self.faults.insert(ordinal, InjectedFault::DeadlineBlowout);
        self
    }

    /// Schedules a **worker stall** at `ordinal` (async front end): the
    /// worker sleeps for `stall` before solving, and the loop's watchdog —
    /// provided `stall` comfortably exceeds the configured
    /// `stall_timeout` — times the solve out as a
    /// [`fsw_serve::RejectReason::WorkerStall`].
    pub fn stall_worker_at(mut self, ordinal: u64, stall: Duration) -> Self {
        self.frontend_faults
            .insert(ordinal, FrontendFault::StallWorker(stall));
        self
    }

    /// Schedules a **slow store shard** at `ordinal` (async front end):
    /// the dequeue path sleeps for `delay` before the store lookup.
    /// Wall-clock only — decisions and digests are unaffected.
    pub fn slow_shard_at(mut self, ordinal: u64, delay: Duration) -> Self {
        self.frontend_faults
            .insert(ordinal, FrontendFault::SlowShard(delay));
        self
    }

    /// Schedules an **ingress burst** at `ordinal`: when the replay driver
    /// submits that ordinal, it follows up with `extra` copies of the same
    /// tenant's request in the same step.
    pub fn burst_at(mut self, ordinal: u64, extra: usize) -> Self {
        self.bursts.insert(ordinal, extra);
        self
    }

    /// The solver fault scheduled at `ordinal`, if any.
    pub fn at(&self, ordinal: u64) -> Option<InjectedFault> {
        self.faults.get(&ordinal).copied()
    }

    /// The async-layer fault scheduled at `ordinal`, if any.
    pub fn frontend_at(&self, ordinal: u64) -> Option<FrontendFault> {
        self.frontend_faults.get(&ordinal).copied()
    }

    /// The ingress burst scheduled at `ordinal`, if any.
    pub fn burst_of(&self, ordinal: u64) -> Option<usize> {
        self.bursts.get(&ordinal).copied()
    }

    /// `true` when no fault of any layer is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.frontend_faults.is_empty() && self.bursts.is_empty()
    }
}

/// Which front door of the service a replay drives.
#[derive(Clone, Copy, Debug)]
pub enum Door {
    /// One [`PlanService::serve_batch`] call per step, with online
    /// re-plans for mutated tenants.
    Batch,
    /// An [`AsyncFrontend`] with these knobs (workers, queue bounds,
    /// dispatch rate, hysteresis watermarks, deadlines, stall watchdog),
    /// ticked once per step and drained at the end.
    Async(FrontendConfig),
}

/// Parameters of a trace replay.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Budget of every solve (serving and re-planning); its `time_limit` is
    /// armed per request.
    pub budget: SearchBudget,
    /// Plan-store capacity.  Note that eviction weighs entries by measured
    /// wall time, so an over-subscribed store makes replays timing
    /// dependent; determinism tests size it above the fingerprint count.
    pub store_capacity: usize,
    /// The communication model every request plans for.
    pub model: CommModel,
    /// The objective every request optimises.
    pub objective: Objective,
    /// Faults to inject, by request ordinal (empty = fault-free).
    pub faults: FaultPlan,
    /// Observability registry to thread through the whole request path
    /// (service, front end, store, engine stages).  `None` replays with
    /// instrumentation disabled — the overhead baseline.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Run a shadow cold solve per exactly-answered request (ground truth
    /// + node counts).
    pub verify: bool,
    /// The front door every request goes through.
    pub door: Door,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            budget: SearchBudget::default(),
            store_capacity: 256,
            model: CommModel::Overlap,
            objective: Objective::MinPeriod,
            faults: FaultPlan::new(),
            metrics: None,
            verify: false,
            door: Door::Batch,
        }
    }
}

/// The replay's per-run state, shared by both doors.
struct Replay<'a> {
    config: &'a ReplayConfig,
    sessions: Vec<Option<TenantSession>>,
    /// A tenant is dirty between a mutation and its next request: on the
    /// batch door that request re-plans online instead of joining the
    /// batch.
    dirty: Vec<bool>,
    /// The next ordinal the service will hand out (fresh services count
    /// from 0 in submission order, so the driver keys bursts without a
    /// round-trip).
    next_ordinal: u64,
    bursts: HashSet<u64>,
    /// Each tick's trace step, and when its submissions started (async
    /// wall latency).
    ticks: Vec<(usize, Instant)>,
    /// Applications as submitted, by ordinal (verify mode only).
    submitted: HashMap<u64, Application>,
    /// Shadow ground truths memoised by the exact service list (in label
    /// order — only an *identical* application may share a shadow).
    shadows: HashMap<Vec<(u64, u64)>, (f64, usize)>,
    outcomes: Vec<RequestOutcome>,
    serve_wall: Duration,
}

impl Replay<'_> {
    fn session(&mut self, tenant: usize) -> CoreResult<&mut TenantSession> {
        self.sessions
            .get_mut(tenant)
            .and_then(|s| s.as_mut())
            .ok_or(CoreError::Unsupported {
                reason: "trace event for a tenant that was never admitted",
            })
    }

    /// Admissions and mutations of one step.
    fn apply(&mut self, kind: &TraceEventKind, tenant: usize) -> CoreResult<()> {
        let event = match kind {
            TraceEventKind::Admit { services } => {
                let session = TenantSession::new(
                    Application::independent(services),
                    self.config.model,
                    self.config.objective,
                    self.config.budget,
                )?;
                let slot = self
                    .sessions
                    .get_mut(tenant)
                    .ok_or(CoreError::Unsupported {
                        reason: "trace event for a tenant out of range",
                    })?;
                *slot = Some(session);
                return Ok(());
            }
            TraceEventKind::Request => return Ok(()),
            TraceEventKind::Arrive { cost, selectivity } => TenantEvent::Arrive {
                cost: *cost,
                selectivity: *selectivity,
            },
            TraceEventKind::Depart { service } => TenantEvent::Depart { service: *service },
            TraceEventKind::Reweight {
                service,
                cost,
                selectivity,
            } => TenantEvent::Reweight {
                service: *service,
                cost: *cost,
                selectivity: *selectivity,
            },
        };
        self.session(tenant)?.apply(event)?;
        self.dirty[tenant] = true;
        Ok(())
    }

    /// Claims the ordinals of one request and its scheduled burst extras,
    /// queueing the tenant once per ordinal onto `claimed`.
    fn claim(&mut self, tenant: usize, claimed: &mut Vec<usize>) {
        let extra = self.config.faults.burst_of(self.next_ordinal);
        for burst in 0..=extra.unwrap_or(0) {
            if burst > 0 {
                self.bursts.insert(self.next_ordinal);
            }
            claimed.push(tenant);
            self.next_ordinal += 1;
        }
    }

    /// The request a tenant submits now (remembered for its shadow solve
    /// in verify mode).
    fn request(&mut self, tenant: usize, ordinal: u64) -> CoreResult<PlanRequest> {
        let app = self.session(tenant)?.app().clone();
        if self.config.verify {
            self.submitted.insert(ordinal, app.clone());
        }
        Ok(PlanRequest::new(
            app,
            self.config.model,
            self.config.objective,
        ))
    }

    /// A mutated tenant's request on the batch door: re-plan online and
    /// publish the result.
    fn replan(&mut self, service: &PlanService, tenant: usize, tick: u64) -> CoreResult<()> {
        let config = self.config;
        let session = self.session(tenant)?;
        let started = Instant::now();
        let replan = session.replan()?;
        let elapsed = started.elapsed();
        // Sessions and service run under the same config budget, so the
        // budget-equality gate of `publish` accepts here (the
        // exhaustiveness gate still applies: an interrupted re-plan is
        // served to the tenant but never cached).
        service.publish(
            session.app(),
            config.model,
            config.objective,
            &config.budget,
            replan.value,
            &replan.graph,
            replan.exhaustive,
            elapsed.as_micros().min(u64::MAX as u128) as u64,
        );
        let app = session.app().clone();
        self.serve_wall += elapsed;
        let shadow = match config.verify && replan.exhaustive {
            true => Some(self.shadow(&app)?),
            false => None,
        };
        self.outcomes.push(RequestOutcome {
            ordinal: None,
            step: self.ticks[tick as usize].0,
            tenant,
            burst_extra: false,
            path: RequestPath::Replan,
            disposition: if replan.exhaustive {
                Disposition::Exact
            } else {
                Disposition::Degraded
            },
            value: replan.value,
            lower_bound: None,
            submitted_tick: tick,
            completed_tick: tick + 1,
            latency: elapsed,
            churn: Some(replan.churn),
            evaluated: replan.evaluated,
            cold_value: shadow.map(|s| s.0),
            cold_evaluated: shadow.map(|s| s.1),
        });
        Ok(())
    }

    /// Records one resolved service request, submitted and resolved at
    /// the logical `ticks`.
    fn resolve(
        &mut self,
        ordinal: u64,
        tenant: usize,
        (submitted_tick, completed_tick): (u64, u64),
        latency: Duration,
        outcome: &ServeOutcome,
    ) -> CoreResult<()> {
        let (path, disposition, lower_bound) = match outcome {
            ServeOutcome::Exact(response) => {
                (path_of(Some(response.source)), Disposition::Exact, None)
            }
            ServeOutcome::Degraded {
                response,
                lower_bound,
                ..
            } => (
                path_of(Some(response.source)),
                Disposition::Degraded,
                (*lower_bound > 0.0).then_some(*lower_bound),
            ),
            ServeOutcome::Rejected(rejection) => (
                path_of(rejection.source),
                match rejection.reason {
                    RejectReason::QueueFull => Disposition::QueueFull,
                    RejectReason::Shed { level } => Disposition::Shed { level },
                    RejectReason::AdmissionCost => Disposition::AdmissionCost,
                    RejectReason::Quarantined { .. } => Disposition::Quarantined,
                    RejectReason::DeadlineExpired => Disposition::DeadlineExpired,
                    RejectReason::WorkerStall => Disposition::WorkerStall,
                    RejectReason::SolverPanic { .. } => Disposition::SolverPanic,
                },
                rejection.estimate.and_then(|e| e.value_floor),
            ),
        };
        let submitted = self.submitted.remove(&ordinal);
        let shadow = match (submitted, disposition) {
            (Some(app), Disposition::Exact) => Some(self.shadow(&app)?),
            _ => None,
        };
        self.outcomes.push(RequestOutcome {
            ordinal: Some(ordinal),
            step: self.ticks[submitted_tick as usize].0,
            tenant,
            burst_extra: self.bursts.contains(&ordinal),
            path,
            disposition,
            value: outcome.value().unwrap_or(f64::NAN),
            lower_bound,
            submitted_tick,
            completed_tick,
            latency,
            churn: None,
            evaluated: 0,
            cold_value: shadow.map(|s| s.0),
            cold_evaluated: shadow.map(|s| s.1),
        });
        Ok(())
    }

    /// A from-scratch solve of `app` outside the serving path: the
    /// ground-truth value and the number of candidates a cold search
    /// evaluates.  Memoised by the exact service list (label order
    /// included), so identical applications pay for one shadow solve
    /// however many requests they issue.
    fn shadow(&mut self, app: &Application) -> CoreResult<(f64, usize)> {
        let key: Vec<(u64, u64)> = app
            .services()
            .iter()
            .map(|s| (s.cost.to_bits(), s.selectivity.to_bits()))
            .collect();
        if let Some(&cached) = self.shadows.get(&key) {
            return Ok(cached);
        }
        let cache = EvalCache::new(app);
        let problem = Problem::new(app, self.config.model, self.config.objective);
        let (solution, stats) = solve_warm(&problem, &self.config.budget, &cache, None)?;
        self.shadows.insert(key, (solution.value, stats.evaluated));
        Ok((solution.value, stats.evaluated))
    }
}

fn path_of(source: Option<ServeSource>) -> RequestPath {
    match source {
        Some(ServeSource::Store) => RequestPath::Store,
        Some(ServeSource::Dedup) => RequestPath::Dedup,
        Some(ServeSource::Cold) | None => RequestPath::Cold,
    }
}

/// Replays `trace` through a fresh [`PlanService`] behind the configured
/// door (see the module docs).  One trace step is one logical tick: the
/// step's admissions and mutations land first, then its requests (plus
/// any scheduled burst extras) are served; the async door drains after
/// the timeline, so the report covers every request.
///
/// Rejected requests (admission, quarantine, shedding, injected failures)
/// are reported like any other outcome — the tenant keeps its previous
/// plan, nothing is adopted and no shadow solve runs.
pub fn replay_trace(trace: &ArrivalTrace, config: &ReplayConfig) -> CoreResult<ReplayReport> {
    let mut service = PlanService::new(config.budget, config.store_capacity);
    if !config.faults.is_empty() {
        let faults = config.faults.clone();
        service = service.with_fault_injection(move |ordinal| faults.at(ordinal));
    }
    if let Some(registry) = &config.metrics {
        service = service.with_metrics(Arc::clone(registry));
    }
    let service = Arc::new(service);
    let mut frontend = match config.door {
        Door::Batch => None,
        Door::Async(frontend_config) => {
            let faults = config.faults.clone();
            Some(
                AsyncFrontend::new(Arc::clone(&service), frontend_config)
                    .with_fault_injection(move |ordinal| faults.frontend_at(ordinal)),
            )
        }
    };
    let mut replay = Replay {
        config,
        sessions: (0..trace.tenants).map(|_| None).collect(),
        dirty: vec![false; trace.tenants],
        next_ordinal: 0,
        bursts: HashSet::new(),
        ticks: Vec::new(),
        submitted: HashMap::new(),
        shadows: HashMap::new(),
        outcomes: Vec::new(),
        serve_wall: Duration::ZERO,
    };
    let mut at = 0;
    while at < trace.events.len() {
        let step = trace.events[at].step;
        let mut end = at;
        while end < trace.events.len() && trace.events[end].step == step {
            end += 1;
        }
        let events = &trace.events[at..end];
        at = end;
        let tick = replay.ticks.len() as u64;
        replay.ticks.push((step, Instant::now()));
        for event in events {
            replay.apply(&event.kind, event.tenant)?;
        }
        // The step's requests in submission order; on the batch door a
        // tenant mutated since its last request re-plans instead.
        let mut claimed: Vec<usize> = Vec::new();
        for event in events.iter().filter(|e| e.kind == TraceEventKind::Request) {
            let tenant = event.tenant;
            if frontend.is_none() && std::mem::replace(&mut replay.dirty[tenant], false) {
                replay.replan(&service, tenant, tick)?;
            } else {
                replay.claim(tenant, &mut claimed);
            }
        }
        let base = replay.next_ordinal - claimed.len() as u64;
        let requests = (claimed.iter().zip(base..))
            .map(|(&tenant, ordinal)| replay.request(tenant, ordinal))
            .collect::<CoreResult<Vec<_>>>()?;
        match &mut frontend {
            None if requests.is_empty() => {}
            None => {
                let started = Instant::now();
                let served = service.serve_batch(&requests)?;
                let latency = started.elapsed();
                replay.serve_wall += latency;
                for ((&tenant, outcome), ordinal) in claimed.iter().zip(served).zip(base..) {
                    if let Some(response) = outcome.response() {
                        replay.session(tenant)?.adopt(response.graph.clone())?;
                    }
                    replay.resolve(ordinal, tenant, (tick, tick + 1), latency, &outcome)?;
                }
            }
            Some(frontend) => {
                let started = Instant::now();
                for (&tenant, request) in claimed.iter().zip(requests) {
                    frontend.submit(tenant, request)?;
                }
                replay.serve_wall += started.elapsed();
                tick_async(frontend, &mut replay)?;
            }
        }
    }
    if let Some(frontend) = &mut frontend {
        while frontend.outstanding() > 0 {
            tick_async(frontend, &mut replay)?;
        }
        replay.outcomes.sort_by_key(|o| o.ordinal);
    }
    Ok(ReplayReport {
        tenants: trace.tenants,
        ticks: frontend
            .as_ref()
            .map_or(replay.ticks.len() as u64, AsyncFrontend::now),
        serve_wall: replay.serve_wall,
        service: service.stats(),
        store: service.store().stats(),
        frontend: frontend.as_ref().map(AsyncFrontend::stats),
        store_non_exhaustive: service.store().non_exhaustive_len(),
        outcomes: replay.outcomes,
    })
}

/// One tick of the async door, recording what it resolved.
fn tick_async(frontend: &mut AsyncFrontend, replay: &mut Replay<'_>) -> CoreResult<()> {
    let started = Instant::now();
    let completions = frontend.tick();
    let now = Instant::now();
    replay.serve_wall += now - started;
    for c in completions {
        let latency = now - replay.ticks[c.submitted_tick as usize].1;
        let ticks = (c.submitted_tick, c.completed_tick);
        replay.resolve(c.ordinal, c.tenant, ticks, latency, &c.outcome)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsw_workloads::streaming::{serving_trace, TraceConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_trace() -> ArrivalTrace {
        serving_trace(
            &TraceConfig {
                tenants: 6,
                steps: 8,
                templates: 2,
                services_per_tenant: 4,
                mutation_rate: 0.5,
                requests_per_step: 3,
                ..TraceConfig::default()
            },
            &mut StdRng::seed_from_u64(42),
        )
    }

    fn async_door(workers: usize) -> ReplayConfig {
        ReplayConfig {
            door: Door::Async(FrontendConfig {
                workers,
                ..FrontendConfig::default()
            }),
            ..ReplayConfig::default()
        }
    }

    #[test]
    fn both_doors_serve_every_request_and_match_ground_truth() {
        let trace = small_trace();
        for config in [ReplayConfig::default(), async_door(2)] {
            let config = ReplayConfig {
                verify: true,
                ..config
            };
            let report = replay_trace(&trace, &config).unwrap();
            assert_eq!(report.requests(), trace.request_count());
            assert_eq!(report.value_mismatches(), 0, "served != ground truth");
            assert!(report.served() > 0, "store/dedup never fired");
            let (exact, degraded, rejected) = report.mix();
            assert_eq!(exact, report.requests(), "fault-free small trace is exact");
            assert_eq!((degraded, rejected), (0, 0));
            assert_eq!(report.store_non_exhaustive, 0);
            let (warm, cold) = report.replan_evaluations();
            assert!(warm <= cold, "warm re-plans evaluated more than cold");
        }
    }

    #[test]
    fn batch_replay_is_deterministic_and_replans_only_there() {
        let trace = small_trace();
        let a = replay_trace(&trace, &ReplayConfig::default()).unwrap();
        let b = replay_trace(&trace, &ReplayConfig::default()).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.store, b.store);
        assert_eq!(a.service, b.service);
        assert!(a.replans() > 0 && a.frontend.is_none());
        let async_report = replay_trace(&trace, &async_door(1)).unwrap();
        assert_eq!(async_report.replans(), 0, "the async door never re-plans");
        let fs = async_report.frontend.expect("async door");
        assert_eq!(fs.submitted, fs.completed);
    }

    #[test]
    fn injected_panics_reject_deterministically_and_keep_the_store_pure() {
        let trace = small_trace();
        // Panic the very first cold solve and blow the deadline of a later
        // one; the replay must complete with every request answered.
        let config = ReplayConfig {
            faults: FaultPlan::new().panic_at(0).blowout_at(7),
            ..ReplayConfig::default()
        };
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = replay_trace(&trace, &config).unwrap();
        let again = replay_trace(&trace, &config).unwrap();
        std::panic::set_hook(quiet);
        assert_eq!(report.requests(), trace.request_count(), "nothing hangs");
        let (_, _, rejected) = report.mix();
        assert!(rejected > 0, "the injected panic rejected its request");
        assert_eq!(report.service.panics, 1);
        assert_eq!(report.store_non_exhaustive, 0, "store purity");
        assert_eq!(report.digest(), again.digest(), "faulted replays replay");
        let p50 = report.latency_percentile(50.0);
        assert!(p50 <= report.latency_percentile(99.0));
    }

    #[test]
    fn async_digest_is_worker_count_independent_under_faults() {
        let trace = small_trace();
        // The first dispatched request is always a cold leader and carries
        // one of the first few ordinals (step 0 has at most three
        // requests), so stalling all of them guarantees the watchdog path
        // fires whatever the trace's dedup structure looks like.
        let faulted = |workers: usize| {
            let mut config = async_door(workers);
            if let Door::Async(frontend) = &mut config.door {
                frontend.stall_timeout = Duration::from_millis(40);
            }
            config.faults = FaultPlan::new()
                .stall_worker_at(0, Duration::from_millis(400))
                .stall_worker_at(1, Duration::from_millis(400))
                .stall_worker_at(2, Duration::from_millis(400))
                .panic_at(9)
                .slow_shard_at(5, Duration::from_millis(1))
                .burst_at(7, 4);
            replay_trace(&trace, &config).unwrap()
        };
        // A silent panic hook: printing a backtrace for the injected panic
        // can outlast the 40 ms watchdog and turn it into a stall.
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let base = faulted(1);
        let others = [faulted(2), faulted(4)];
        std::panic::set_hook(quiet);
        assert!(
            base.frontend.unwrap().stalls > 0,
            "injected stall must fire"
        );
        assert!(
            base.outcomes.iter().any(|o| o.burst_extra),
            "injected burst must fire"
        );
        for other in &others {
            assert_eq!(base.digest(), other.digest());
        }
    }

    #[test]
    fn bursts_overflow_the_bounded_queue_into_ingress_sheds() {
        let trace = small_trace();
        let mut config = async_door(2);
        if let Door::Async(frontend) = &mut config.door {
            frontend.queue_capacity = 4;
            frontend.dispatch_per_tick = 2;
        }
        config.faults = FaultPlan::new().burst_at(2, 32);
        let report = replay_trace(&trace, &config).unwrap();
        assert_eq!(report.requests(), trace.request_count() + 32);
        let fs = report.frontend.unwrap();
        assert!(fs.queue_full_sheds > 0, "burst must overflow");
        assert!(fs.peak_tenant_queue <= 4, "queue bound");
        assert_eq!(fs.submitted, fs.completed);
        // The batch door takes the same burst as 32 extra batch entries.
        let batch = ReplayConfig {
            faults: FaultPlan::new().burst_at(2, 32),
            ..ReplayConfig::default()
        };
        let report = replay_trace(&trace, &batch).unwrap();
        assert_eq!(report.requests(), trace.request_count() + 32);
        assert_eq!(report.outcomes.iter().filter(|o| o.burst_extra).count(), 32);
    }
}
