//! # fsw-serve — the multi-tenant planning service
//!
//! The serving layer above `fsw_sched::orchestrator`: a fleet of tenant
//! applications sends planning requests, and most of them are the same
//! problem wearing different labels.  This crate turns that observation into
//! throughput with four pieces:
//!
//! * **fingerprinting** — every request is keyed by its
//!   [`fsw_core::AppFingerprint`] plus model and objective (the canonical
//!   weight multiset and constraint set, see [`store::PlanKey`]): tenants
//!   identical after canonicalisation share one solve;
//! * **a plan store** ([`store::PlanStore`]) — fingerprint-keyed cached
//!   plans with *cost-aware eviction*: entries are weighed by the wall time
//!   their solve cost, so a 0.2 s exhaustive result outlives a crowd of
//!   millisecond tree solves;
//! * **a batched request queue** ([`service::PlanService`]) — a batch is
//!   canonicalised, answered from the store where possible, deduplicated
//!   in flight (one solve per distinct fingerprint per batch) and the
//!   remaining cold solves drain onto the `fsw_sched::par` thread pool,
//!   each under its own [`SearchBudget`](fsw_sched::orchestrator::SearchBudget)
//!   deadline;
//! * **online re-planning** ([`online::TenantSession`]) — a tenant's
//!   service set evolves (arrivals, departures, weight changes) and the
//!   session re-plans *incrementally*: the previous plan is adapted to the
//!   mutated instance, its value seeds the search incumbent
//!   ([`fsw_sched::orchestrator::solve_warm`]), and a **plan-churn** metric
//!   reports how many parent assignments moved, so stability is measurable.
//!
//! Every request is also **priced before it is solved** ([`admission`]):
//! an O(shapes) structural cost estimate decides Admit /
//! AdmitWithDeadline / Shed / Reject before any enumeration starts,
//! responses are a three-way [`ServeOutcome`](service::ServeOutcome)
//! (`Exact` / `Degraded` / `Rejected`), solver panics are caught and
//! quarantined instead of poisoning the queue, and a deterministic fault
//! hook ([`PlanService::with_fault_injection`](service::PlanService::with_fault_injection))
//! makes all of it testable under replay.
//!
//! The service has two front doors over **one pipeline**: the synchronous
//! [`serve_batch`](service::PlanService::serve_batch), and the
//! event-loop [`AsyncFrontend`](frontend::AsyncFrontend), whose callers
//! get a [`Ticket`](frontend::Ticket) from a bounded per-tenant ingress
//! queue instead of blocking, whose live backlog tightens the admission
//! thresholds (adaptive load shedding with hysteresis), and whose worker
//! heartbeats time stalled solves out into the quarantine — all decisions
//! on one loop thread in logical ticks, so replays are deterministic
//! across worker counts.  Both doors call the same stage functions of
//! [`PlanService`](service::PlanService) (admit → execute → settle →
//! respond) and count into one set of counters ([`stats`]).  The request
//! lifecycle, end to end (`[async]` marks the event loop's own stages):
//!
//! ```text
//!   request (app, model, objective)
//!        │ [async] submit → bounded tenant queue ──full──► Rejected{QueueFull}
//!        │ [async] dequeue round-robin ──deadline expired──► Rejected{DeadlineExpired}
//!        │ canonicalise                  fsw_core::CanonicalApplication
//!        ▼
//!   fingerprint ──► plan store ──hit──────► respond: relabel ──► Exact
//!        │ miss                                ▲
//!        ▼                                     │
//!   in-flight dedup (one leader per key) ──followers share the leader's result
//!        │ leaders                             │
//!        ▼                                     │
//!   admit: quarantine ──backoff/permanent──► Rejected{Quarantined}
//!        │ clear                               │
//!        ▼                                     │
//!   admit: pricing at thresholds >> shed level │  ([async] level from backlog)
//!        │    │    ├─over scaled reject only─► Rejected{Shed{level}}
//!        │    │    └─over reject_cost───────► Rejected{AdmissionCost, estimate}
//!        │    └─degrade band (or [async] predicted deadline miss): arm deadline
//!        ▼                                     │
//!   execute: par pool / [async] worker pool    │
//!     fault hook + catch_unwind + cold solve   │
//!        ▼                                     │
//!   settle (leader order) ┬─ exhaustive ─► store insert ─► Exact
//!                         ├─ interrupted ─► Degraded{floor, gap}
//!                         ├─ panic ─► quarantine ─► Rejected{SolverPanic}
//!                         └─ [async] heartbeat timeout ─► quarantine
//!                                                  ─► Rejected{WorkerStall}
//! ```
//!
//! Every served **`Exact`** value is bit-identical to a cold solve of the
//! tenant's own application: the permutation collapse only engages on
//! solve paths that are provably label-invariant (see
//! [`service::permutation_collapse_allowed`]), warm-started re-plans
//! return the same winner as cold ones by the strict-clearance pruning
//! contract, and the plan store never holds a non-exhaustive entry (store
//! writes and [`PlanService::publish`](service::PlanService::publish) are
//! both gated on exhaustiveness).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod frontend;
pub mod online;
pub mod service;
pub mod stats;
pub mod store;

pub use admission::{AdmissionDecision, AdmissionPolicy, CostEstimate};
pub use frontend::{AsyncFrontend, Completion, FrontendConfig, FrontendFault, Ticket};
pub use online::{ReplanOutcome, TenantEvent, TenantSession};
pub use service::{
    permutation_collapse_allowed, solve_all, InjectedFault, PlanRequest, PlanResponse, PlanService,
    RejectReason, Rejection, ServeOutcome, ServeSource,
};
pub use stats::{FrontendStats, ServeStats, ServiceStats};
pub use store::{PlanKey, PlanStore, StoreStats, StoredPlan};
