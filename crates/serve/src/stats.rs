//! One set of request counters for the whole serving tier.
//!
//! Every count the tier keeps is one [`fsw_obs::Counter`] (or a
//! [`fsw_obs::Gauge`] for levels and peaks) resolved once from the owning
//! [`PlanService`](crate::PlanService)'s registry — the attached one
//! ([`with_metrics`](crate::PlanService::with_metrics)), or a private one
//! when none is attached.  Each count has a single increment site, and
//! both front doors share the stages they have in common: a store hit, a
//! dedup join or an admission reject counts the same whether the batch
//! path or the event loop produced it.  The stats structs below are typed
//! views over those counters, read on demand.
//!
//! Per-ticket tallies (store hits, dedup joins, degraded answers and every
//! per-ticket rejection) are derived from the outcome each door emits, in
//! `Counters::record`; the per-solve ones (cold solves, panics, stalls,
//! recoveries) are counted where the solve is dispatched and settled.

use std::sync::Arc;

use fsw_obs::{Counter, Gauge, MetricsRegistry};

use crate::service::{RejectReason, ServeOutcome, ServeSource};
use crate::store::StoreStats;

/// The tier's counter handles (see the module docs).
pub(crate) struct Counters {
    /// `serve.cold` — cold solves dispatched (both doors).
    pub(crate) cold: Arc<Counter>,
    pub(crate) store_hits: Arc<Counter>,
    pub(crate) dedup: Arc<Counter>,
    pub(crate) deadline_admits: Arc<Counter>,
    pub(crate) degraded: Arc<Counter>,
    pub(crate) admission_rejects: Arc<Counter>,
    pub(crate) quarantine_rejects: Arc<Counter>,
    pub(crate) sheds: Arc<Counter>,
    pub(crate) panics: Arc<Counter>,
    pub(crate) recovered: Arc<Counter>,
    /// `frontend.*` — stages only the async front end has.
    pub(crate) ingress: Arc<Counter>,
    pub(crate) completions: Arc<Counter>,
    pub(crate) queue_full_sheds: Arc<Counter>,
    pub(crate) deadline_cancels: Arc<Counter>,
    pub(crate) deadline_degrades: Arc<Counter>,
    pub(crate) stalls: Arc<Counter>,
    pub(crate) shed_raises: Arc<Counter>,
    pub(crate) shed_lowers: Arc<Counter>,
    pub(crate) shed_level: Arc<Gauge>,
    pub(crate) backlog: Arc<Gauge>,
    /// Depth of the tenant queue an arrival joined (peak = deepest queue).
    pub(crate) tenant_queue: Arc<Gauge>,
}

impl Counters {
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        Counters {
            cold: registry.counter("serve.cold"),
            store_hits: registry.counter("serve.store_hits"),
            dedup: registry.counter("serve.dedup"),
            deadline_admits: registry.counter("serve.deadline_admits"),
            degraded: registry.counter("serve.degraded"),
            admission_rejects: registry.counter("serve.admission_rejects"),
            quarantine_rejects: registry.counter("serve.quarantine_rejects"),
            sheds: registry.counter("serve.sheds"),
            panics: registry.counter("serve.panics"),
            recovered: registry.counter("serve.recovered"),
            ingress: registry.counter("frontend.ingress"),
            completions: registry.counter("frontend.completions"),
            queue_full_sheds: registry.counter("frontend.queue_full_sheds"),
            deadline_cancels: registry.counter("frontend.deadline_cancels"),
            deadline_degrades: registry.counter("frontend.deadline_degrades"),
            stalls: registry.counter("frontend.stalls"),
            shed_raises: registry.counter("frontend.shed_raises"),
            shed_lowers: registry.counter("frontend.shed_lowers"),
            shed_level: registry.gauge("frontend.shed_level"),
            backlog: registry.gauge("frontend.backlog"),
            tenant_queue: registry.gauge("frontend.tenant_queue"),
        }
    }

    /// Counts the per-ticket tallies of one emitted outcome: where it was
    /// answered from, whether it degraded, and why it was rejected.
    /// Solver failures count once per solve when settled, not here.
    pub(crate) fn record(&self, outcome: &ServeOutcome) {
        let source = match outcome {
            ServeOutcome::Exact(response) => Some(response.source),
            ServeOutcome::Degraded { response, .. } => {
                self.degraded.inc();
                Some(response.source)
            }
            ServeOutcome::Rejected(rejection) => {
                let counter = match rejection.reason {
                    RejectReason::AdmissionCost => Some(&self.admission_rejects),
                    RejectReason::Quarantined { .. } => Some(&self.quarantine_rejects),
                    RejectReason::Shed { .. } => Some(&self.sheds),
                    RejectReason::QueueFull => Some(&self.queue_full_sheds),
                    RejectReason::DeadlineExpired => Some(&self.deadline_cancels),
                    RejectReason::SolverPanic { .. } | RejectReason::WorkerStall => None,
                };
                if let Some(counter) = counter {
                    counter.inc();
                }
                rejection.source
            }
        };
        match source {
            Some(ServeSource::Store) => self.store_hits.inc(),
            Some(ServeSource::Dedup) => self.dedup.inc(),
            Some(ServeSource::Cold) | None => {}
        }
    }

    /// The request-path view; `requests` is the service's arrival-ordinal
    /// sequence, which counts every request of either door.
    pub(crate) fn service(&self, requests: u64) -> ServiceStats {
        ServiceStats {
            requests: requests as usize,
            cold: get(&self.cold),
            store_hits: get(&self.store_hits),
            dedup_hits: get(&self.dedup),
            deadline_admits: get(&self.deadline_admits),
            degraded: get(&self.degraded),
            admission_rejects: get(&self.admission_rejects),
            quarantine_rejects: get(&self.quarantine_rejects),
            panics: get(&self.panics),
            recovered: get(&self.recovered),
        }
    }

    /// The async front end's view.
    pub(crate) fn frontend(&self) -> FrontendStats {
        FrontendStats {
            submitted: get(&self.ingress),
            completed: get(&self.completions),
            queue_full_sheds: get(&self.queue_full_sheds),
            backpressure_sheds: get(&self.sheds),
            admission_rejects: get(&self.admission_rejects),
            quarantine_rejects: get(&self.quarantine_rejects),
            deadline_cancels: get(&self.deadline_cancels),
            deadline_degrades: get(&self.deadline_degrades),
            store_hits: get(&self.store_hits),
            dedup_joins: get(&self.dedup),
            dispatches: get(&self.cold),
            degraded: get(&self.degraded),
            panics: get(&self.panics),
            stalls: get(&self.stalls),
            recovered: get(&self.recovered),
            shed_level: self.shed_level.get() as u32,
            peak_shed_level: self.shed_level.peak() as u32,
            shed_raises: get(&self.shed_raises),
            shed_lowers: get(&self.shed_lowers),
            peak_backlog: self.backlog.peak() as usize,
            peak_tenant_queue: self.tenant_queue.peak() as usize,
        }
    }
}

fn get(counter: &Counter) -> usize {
    counter.get() as usize
}

/// Lifetime request counters of a [`PlanService`](crate::PlanService),
/// over both front doors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests received.
    pub requests: usize,
    /// Cold solves performed (fingerprint leaders).
    pub cold: usize,
    /// Requests answered from the plan store.
    pub store_hits: usize,
    /// Requests deduplicated in flight against a leader of their key.
    pub dedup_hits: usize,
    /// Leaders admitted into the degrade band (solved under a deadline).
    pub deadline_admits: usize,
    /// Degraded responses served (leaders and followers).
    pub degraded: usize,
    /// Requests rejected by the admission policy.
    pub admission_rejects: usize,
    /// Requests rejected by the quarantine (backoff or permanent).
    pub quarantine_rejects: usize,
    /// Solver panics caught (one per failed leader).
    pub panics: usize,
    /// Quarantined fingerprints that completed a retry successfully.
    pub recovered: usize,
}

impl ServiceStats {
    /// Fraction of requests served without a cold solve (store + dedup).
    pub fn served_ratio(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.store_hits + self.dedup_hits) as f64 / self.requests as f64
    }
}

/// Lifetime counters of an [`AsyncFrontend`](crate::AsyncFrontend).  The
/// stages it shares with the batch path (store hits, dedup joins,
/// dispatches, admission and quarantine rejects, degraded answers, panics,
/// recoveries) read the same counters as [`ServiceStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Tickets issued (including those resolved at ingress).
    pub submitted: usize,
    /// Tickets resolved.
    pub completed: usize,
    /// Requests shed at ingress because the tenant queue was full.
    pub queue_full_sheds: usize,
    /// Requests shed by adaptive backpressure (admitted at baseline,
    /// rejected at the tightened threshold).
    pub backpressure_sheds: usize,
    /// Requests rejected by the baseline admission policy.
    pub admission_rejects: usize,
    /// Requests rejected by the quarantine.
    pub quarantine_rejects: usize,
    /// Requests cancelled at dequeue because their deadline had expired.
    pub deadline_cancels: usize,
    /// Requests demoted to the degrade band because they were predicted to
    /// miss their deadline at full budget.
    pub deadline_degrades: usize,
    /// Requests answered from the plan store at dequeue.
    pub store_hits: usize,
    /// Requests that rode an in-flight solve of their key (counted when
    /// the solve resolves them).
    pub dedup_joins: usize,
    /// Cold solves dispatched to the worker pool.
    pub dispatches: usize,
    /// Degraded responses served.
    pub degraded: usize,
    /// Solver panics caught.
    pub panics: usize,
    /// Solves timed out by the stall watchdog.
    pub stalls: usize,
    /// Quarantined fingerprints that completed a retry successfully.
    pub recovered: usize,
    /// Current shed level.
    pub shed_level: u32,
    /// Highest shed level reached.
    pub peak_shed_level: u32,
    /// Shed-level **raises**: ticks on which the backpressure controller
    /// stepped the level up (not counting ticks already at the ceiling).
    pub shed_raises: usize,
    /// Shed-level **lowers**: ticks on which the controller stepped the
    /// level back down.
    pub shed_lowers: usize,
    /// Largest backlog (total queued requests) observed at a tick end.
    pub peak_backlog: usize,
    /// Largest single-tenant queue depth observed (≤ the configured
    /// capacity, by the ingress bound).
    pub peak_tenant_queue: usize,
}

/// One public snapshot of the whole serving tier: the request counters
/// ([`ServiceStats`]), the store counters ([`StoreStats`]), the
/// **quarantine occupancy** — how many fingerprints are currently held in
/// backoff and how many are permanently banned — and the async-only
/// shed-transition and deadline-cancellation totals (`0` while no front
/// end has run on the service).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Request-path lifetime counters.
    pub service: ServiceStats,
    /// Plan-store lifetime counters.
    pub store: StoreStats,
    /// Fingerprints currently quarantined (in a backoff window or
    /// permanent) — live occupancy, not a lifetime count.
    pub quarantine_active: usize,
    /// Fingerprints whose quarantine is permanent (failure budget spent).
    pub quarantine_permanent: usize,
    /// Shed-level raises of the async front end's controller.
    pub shed_raises: usize,
    /// Shed-level lowers of the async front end's controller.
    pub shed_lowers: usize,
    /// Requests cancelled at dequeue because their deadline expired.
    pub deadline_cancels: usize,
}
