//! `serve_hot`: open-loop Poisson arrivals through the async front end
//! (`AsyncFrontend::submit` / `tick`, driven from this thread, one worker
//! thread), stepped over a fixed ladder of rates.
//!
//! Traffic is the E16 fleet without faults: 32 tenants from 4 templates of
//! 6 distinct-weight services deployed as rotated permutations, every 16th
//! tenant a 24-service jumbo, no mutations.  After the warm-up the store
//! holds the whole working set, so a request is canonicalise → store hit,
//! or canonicalise → store miss → O(1) admission reject for a jumbo:
//! fingerprinting, the store read path and the tick loop do nearly all the
//! work and the engine almost none.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsw_core::{Application, CanonicalApplication, CommModel};
use fsw_sched::orchestrator::{solve, Objective, Problem, SearchBudget};
use fsw_serve::service::permutation_collapse_allowed;
use fsw_serve::{
    AsyncFrontend, Completion, FrontendConfig, PlanKey, PlanRequest, PlanService, ServeOutcome,
};
use fsw_workloads::{serving_trace, TraceConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::probe::{self, HostProbe};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{
    held_verdict, judge_step, max_passing_rate, median, ratio, respects_bound, same_value,
    summarize, Outcome, StepObservation, StepVerdict, Summary, Tally,
};
use crate::trace::{span, SpanTotals, Tracer};
use crate::RunArgs;

/// Latency limit of the ladder verdict, milliseconds from the due time.
pub const LIMIT_MS: f64 = 1.0;
/// The fixed ladder of offered rates, requests per second.  Dense around
/// the rate the front end sustains flat out on a 2-vCPU host (~270k/s
/// when submitting in bulk), and reaching past it so a faster front end
/// still finds its ceiling.
pub const LADDER: [f64; 12] = [
    60_000.0, 120_000.0, 150_000.0, 170_000.0, 180_000.0, 190_000.0, 200_000.0, 210_000.0,
    220_000.0, 240_000.0, 270_000.0, 320_000.0,
];
/// The rung whose latency percentiles and answer shares are reported.
pub const REFERENCE_RATE: f64 = 60_000.0;
/// Rounds over the ladder.  Each round offers every rate for a short
/// step, so a fast or slow stretch of a shared host hits every rate alike;
/// a rate passes when it passes in `stats::HOLD_SHARE` of its rounds, and
/// the latency figures combine the per-round percentiles (see `run`).
pub const ROUNDS: usize = 10;
/// Time to the next arrival beyond which the idle thread takes a host
/// micro-sample (one takes about a microsecond) instead of spinning.
const MICRO_SAMPLE_ROOM: Duration = Duration::from_micros(4);
/// Set-up repetitions after each round (`setup_s` is the median of these
/// and the first).
const SETUPS_PER_ROUND: usize = 3;
/// Backlog growth tolerated across a step: one tick's dispatch quota.
const BACKLOG_SLACK: usize = 16;
/// Requests of the traced pass (a fixed count, so its counts repeat).
const TRACE_REQUESTS: usize = 100_000;
/// Seed of the pool the fleet's weights come from (not the workload seed).
const POOL_SEED: u64 = 0x5eed_0407;
const TENANTS: usize = 32;
const MODEL: CommModel = CommModel::Overlap;
const OBJECTIVE: Objective = Objective::MinPeriod;

fn frontend_config() -> FrontendConfig {
    FrontendConfig {
        workers: 1,
        queue_capacity: 64,
        dispatch_per_tick: 16,
        backlog_high: 8,
        backlog_low: 4,
        max_shed_level: 8,
        cost_per_tick: 1 << 18,
        deadline_ticks: None,
        stall_timeout: Duration::from_secs(2),
    }
}

/// The fleet's applications, one per tenant.  Weights come from a pool
/// fixed with the benchmark (`POOL_SEED`); the workload seed relabels each
/// tenant's services (and drives the arrivals).  The store keys requests
/// by canonical fingerprint, so the set-up's solves and the hit path cost
/// the same across seeds while each seed's labelled inputs differ.
fn fleet(seed: u64) -> Vec<Application> {
    let mut pool = StdRng::seed_from_u64(POOL_SEED);
    let trace = serving_trace(
        &TraceConfig {
            tenants: TENANTS,
            admissions_per_step: 8,
            steps: 0,
            templates: 4,
            services_per_tenant: 6,
            max_services: 7,
            mutation_rate: 0.0,
            requests_per_step: 8,
            jumbo_every: 16,
            jumbo_services: 24,
        },
        &mut pool,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    trace
        .admitted_apps()
        .iter()
        .map(|app| {
            let mut order: Vec<usize> = (0..app.n()).collect();
            order.shuffle(&mut rng);
            let specs: Vec<(f64, f64)> = order
                .iter()
                .map(|&k| (app.cost(k), app.selectivity(k)))
                .collect();
            Application::independent(&specs)
        })
        .collect()
}

/// A fresh service and front end with the store warmed by one request
/// per tenant.
fn build(apps: &[Application]) -> (Arc<PlanService>, AsyncFrontend) {
    let service = Arc::new(PlanService::new(SearchBudget::default(), 256));
    let mut frontend = AsyncFrontend::new(Arc::clone(&service), frontend_config());
    for (tenant, app) in apps.iter().enumerate() {
        frontend
            .submit(tenant, PlanRequest::new(app.clone(), MODEL, OBJECTIVE))
            .expect("fleet applications are valid");
    }
    frontend.drain();
    (service, frontend)
}

/// Per-request bookkeeping of one step: due times, resolution, oracle.
/// Reset between steps (every ticket of a step resolves before the next
/// starts), so its memory is bounded by one step's arrivals.
struct Ledger {
    due: Vec<Instant>,
    tenant: Vec<usize>,
    resolved: Vec<bool>,
    /// Ticket id of the step's first arrival.
    base: u64,
    expected: Vec<Option<f64>>,
    failures: Vec<String>,
}

impl Ledger {
    /// Starts a step whose first ticket will be `base`, with room for
    /// `arrivals` arrivals.
    fn reset(&mut self, base: u64, arrivals: usize) {
        self.base = base;
        self.due.clear();
        self.due.reserve(arrivals);
        self.tenant.clear();
        self.tenant.reserve(arrivals);
        self.resolved.clear();
        self.resolved.reserve(arrivals);
    }

    fn push(&mut self, ticket: u64, due: Instant, tenant: usize) {
        debug_assert_eq!(ticket - self.base, self.due.len() as u64);
        self.due.push(due);
        self.tenant.push(tenant);
        self.resolved.push(false);
    }

    /// Checks one completion; returns its outcome and latency from due.
    fn settle(&mut self, completion: &Completion, now: Instant) -> (Outcome, f64) {
        let Some(idx) = completion
            .ticket
            .id()
            .checked_sub(self.base)
            .map(|i| i as usize)
            .filter(|&i| i < self.due.len())
        else {
            self.failures.push(format!(
                "completion for unknown ticket {}",
                completion.ticket.id()
            ));
            return (Outcome::Failed, f64::INFINITY);
        };
        let latency_ms = now.saturating_duration_since(self.due[idx]).as_secs_f64() * 1e3;
        if std::mem::replace(&mut self.resolved[idx], true) {
            self.failures.push(format!("ticket {idx} resolved twice"));
            return (Outcome::Failed, latency_ms);
        }
        let tenant = self.tenant[idx];
        let outcome = match &completion.outcome {
            ServeOutcome::Exact(response) => match self.expected[tenant] {
                Some(want) if same_value(response.value, want) => Outcome::Exact,
                Some(want) => {
                    self.failures.push(format!(
                        "tenant {tenant}: exact value {} != cold solve {want}",
                        response.value
                    ));
                    Outcome::Failed
                }
                None => {
                    self.failures.push(format!(
                        "tenant {tenant}: exact answer with no reference solve"
                    ));
                    Outcome::Failed
                }
            },
            ServeOutcome::Degraded {
                response,
                lower_bound,
                ..
            } => {
                if respects_bound(response.value, *lower_bound) {
                    Outcome::Degraded
                } else {
                    self.failures.push(format!(
                        "tenant {tenant}: degraded value {} below its bound {lower_bound}",
                        response.value
                    ));
                    Outcome::Failed
                }
            }
            ServeOutcome::Rejected(rejection) => match rejection.reason {
                fsw_serve::RejectReason::SolverPanic { .. }
                | fsw_serve::RejectReason::WorkerStall => {
                    self.failures
                        .push(format!("tenant {tenant}: {:?}", rejection.reason));
                    Outcome::Failed
                }
                _ => Outcome::Refused,
            },
        };
        (outcome, latency_ms)
    }
}

/// The exact service list of an application, in label order: the
/// oracles' memo key (only an identical application shares a reference).
pub fn service_list(app: &Application) -> Vec<(u64, u64)> {
    (0..app.n())
        .map(|k| (app.cost(k).to_bits(), app.selectivity(k).to_bits()))
        .collect()
}

/// Reference values: a cold solve of every tenant's own application,
/// memoised per exact service list.  Jumbo tenants (too large for an exact
/// reference) get none; an exact answer for one counts as a failure.
fn reference_values(apps: &[Application]) -> Vec<Option<f64>> {
    let budget = SearchBudget::default();
    let mut memo: HashMap<Vec<(u64, u64)>, Option<f64>> = HashMap::new();
    apps.iter()
        .map(|app| {
            if app.n() > 12 {
                return None;
            }
            *memo.entry(service_list(app)).or_insert_with(|| {
                solve(&Problem::new(app, MODEL, OBJECTIVE), &budget)
                    .ok()
                    .filter(|s| s.exhaustive)
                    .map(|s| s.value)
            })
        })
        .collect()
}

/// Exponential inter-arrival gap for `rate` requests per second.
fn gap(rng: &mut StdRng, rate: f64) -> Duration {
    let u: f64 = rng.gen();
    Duration::from_secs_f64(-(1.0 - u).ln() / rate)
}

/// What one step produced, besides its verdict inputs.
struct StepRun {
    observation: StepObservation,
    tally: Tally,
    latencies_ms: Vec<f64>,
    /// `latencies_ms`, each divided by the host's slowdown when the
    /// request completed.
    normalised_ms: Vec<f64>,
    completed: usize,
    wall_s: f64,
}

/// Offers `rate` for `duration` (or `count` arrivals, whichever ends
/// first), then drains.  Whenever the thread would spin until the next
/// arrival, it takes a micro-sample of `probe` instead, so each latency
/// can be host-normalised by the speed of the moment.  Spans are recorded
/// when `tracer` is set.
#[allow(clippy::too_many_arguments)]
fn run_step(
    frontend: &mut AsyncFrontend,
    service: &PlanService,
    requests: &[PlanRequest],
    ledger: &mut Ledger,
    rng: &mut StdRng,
    rate: f64,
    duration: Duration,
    count: usize,
    tracer: Option<&Tracer>,
    layer: &mut LayerSamples,
    probe: &mut HostProbe,
) -> StepRun {
    let arrivals = ((rate * duration.as_secs_f64() * 1.1) as usize + 1024).min(count);
    ledger.reset(frontend.stats().submitted as u64, arrivals);
    let backlog_start = frontend.outstanding();
    let start = Instant::now();
    let end = start + duration;
    let mut next_due = start + gap(rng, rate);
    let mut lags_ms = Vec::with_capacity(arrivals);
    let mut latencies_ms = Vec::with_capacity(arrivals);
    let mut normalised_ms = Vec::with_capacity(arrivals);
    let mut tally = Tally::default();
    let mut sent = 0usize;
    let mut ticks = 0u64;
    let mut peak_outstanding = 0usize;
    let mut backlog_end = None;
    loop {
        let now = Instant::now();
        if backlog_end.is_none() {
            while next_due <= now && next_due < end && sent < count {
                lags_ms.push((now - next_due).as_secs_f64() * 1e3);
                let tenant = rng.gen_range(0..requests.len());
                let request = requests[tenant].clone();
                let ticket = match tracer {
                    None => frontend.submit(tenant, request),
                    Some(t) => traced_submit(t, frontend, service, tenant, request, layer),
                }
                .expect("fleet applications are valid");
                ledger.push(ticket.id(), next_due, tenant);
                sent += 1;
                peak_outstanding = peak_outstanding.max(frontend.outstanding());
                next_due += gap(rng, rate);
            }
            if now >= end || sent >= count {
                backlog_end = Some(frontend.outstanding());
            }
        }
        if frontend.outstanding() > 0 {
            let completions = {
                let _s = span(tracer, "serve.frontend.tick", ticks);
                frontend.tick()
            };

            ticks += 1;
            let at = Instant::now();
            let slowdown = probe.current_slowdown();
            for completion in &completions {
                let (outcome, latency_ms) = ledger.settle(completion, at);
                tally.record(outcome, latency_ms, LIMIT_MS);
                latencies_ms.push(latency_ms);
                normalised_ms.push(latency_ms / slowdown);
            }
        } else if backlog_end.is_some() {
            break;
        } else if next_due.saturating_duration_since(now) > MICRO_SAMPLE_ROOM {
            probe.micro_sample();
        } else {
            std::hint::spin_loop();
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    // A ticket of this step that never resolved is a failure.
    let unresolved = ledger.resolved.iter().filter(|r| !**r).count();
    for _ in 0..unresolved {
        tally.record(Outcome::Failed, f64::INFINITY, LIMIT_MS);
    }
    if unresolved > 0 {
        ledger
            .failures
            .push(format!("{unresolved} tickets never resolved"));
    }
    layer.ticks += ticks;
    layer.peak_outstanding = layer.peak_outstanding.max(peak_outstanding);
    StepRun {
        observation: StepObservation {
            rate,
            sent,
            within_limit: tally.within_limit,
            lag_p99_ms: summarize(&lags_ms, 99.0).tail,
            backlog_start,
            backlog_end: backlog_end.unwrap_or(0),
        },
        completed: latencies_ms.len(),
        tally,
        latencies_ms,
        normalised_ms,
        wall_s,
    }
}

/// Per-layer samples of the traced pass.
#[derive(Default)]
struct LayerSamples {
    ticks: u64,
    /// Highest outstanding-ticket count the bench thread saw after a submit.
    peak_outstanding: usize,
    bench_hits: usize,
    bench_misses: usize,
    admission_rejects: usize,
}

/// Submits one request with spans around the layer calls the front end
/// makes for it: the fingerprint and store lookup (repeated from outside,
/// exactly as the front end keys the request), admission pricing on a
/// miss, and the submit itself.
fn traced_submit(
    tracer: &Tracer,
    frontend: &mut AsyncFrontend,
    service: &PlanService,
    tenant: usize,
    request: PlanRequest,
    layer: &mut LayerSamples,
) -> fsw_core::CoreResult<fsw_serve::Ticket> {
    let op = (layer.bench_hits + layer.bench_misses) as u64;
    let _req = tracer.span("req", op);
    let budget = service.budget();
    let key = {
        let _s = tracer.span("core.fingerprint", op);
        let collapse =
            permutation_collapse_allowed(&request.app, request.model, request.objective, budget);
        let canon = CanonicalApplication::with_collapse(&request.app, collapse);
        PlanKey {
            fingerprint: canon.fingerprint,
            model: request.model,
            objective: request.objective,
        }
    };
    let hit = {
        let _s = tracer.span("serve.store.get", op);
        service.store().get(&key).is_some()
    };
    if hit {
        layer.bench_hits += 1;
    } else {
        layer.bench_misses += 1;
        let _s = tracer.span("serve.admission.decide", op);
        let decision =
            service
                .admission()
                .decide(&request.app, request.model, request.objective, budget);
        if matches!(decision, fsw_serve::AdmissionDecision::Reject { .. }) {
            layer.admission_rejects += 1;
        }
    }
    let _s = tracer.span("serve.frontend.submit", op);
    frontend.submit(tenant, request)
}

/// Runs the workload (see the module docs).
pub fn run(args: &RunArgs) -> (Report, Tally) {
    let mut probe = HostProbe::new();
    let mut setup_s = Vec::with_capacity(ROUNDS * SETUPS_PER_ROUND + 1);
    let set_up = |setup_s: &mut Vec<(f64, f64)>, probe: &mut HostProbe| {
        let ((apps, (service, frontend)), seconds, slowdown) = probe.time(|| {
            let apps = fleet(args.seed);
            let built = build(&apps);
            (apps, built)
        });
        setup_s.push((seconds, slowdown));
        (apps, service, frontend)
    };
    let (apps, service, mut frontend) = set_up(&mut setup_s, &mut probe);
    let requests: Vec<PlanRequest> = apps
        .iter()
        .map(|app| PlanRequest::new(app.clone(), MODEL, OBJECTIVE))
        .collect();
    let mut ledger = Ledger {
        due: Vec::new(),
        tenant: Vec::new(),
        resolved: Vec::new(),
        base: 0,
        expected: reference_values(&apps),
        failures: Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0a11_7e5c);
    let mut report = Report::default();
    let mut tally = Tally::default();
    let mut step = |frontend: &mut AsyncFrontend,
                    service: &PlanService,
                    ledger: &mut Ledger,
                    rate: f64,
                    duration: Duration,
                    count: usize,
                    tracer: Option<&Tracer>,
                    layer: &mut LayerSamples,
                    probe: &mut HostProbe| {
        let run = run_step(
            frontend, service, &requests, ledger, &mut rng, rate, duration, count, tracer, layer,
            probe,
        );
        tally.merge(&run.tally);
        run
    };
    if !args.trace {
        let step_time = Duration::from_secs_f64(args.seconds / (LADDER.len() * ROUNDS) as f64);
        let mut rounds: Vec<Vec<(StepObservation, StepVerdict)>> = vec![Vec::new(); LADDER.len()];
        let mut reference = Vec::new();
        let (mut completed, mut wall_s) = (0usize, 0.0);
        for _ in 0..ROUNDS {
            // Highest rate first: the reference rate then follows a calm
            // step, never the previous round's overload.
            for (rung, &rate) in LADDER.iter().enumerate().rev() {
                let run = step(
                    &mut frontend,
                    &service,
                    &mut ledger,
                    rate,
                    step_time,
                    usize::MAX,
                    None,
                    &mut LayerSamples::default(),
                    &mut probe,
                );
                completed += run.completed;
                wall_s += run.wall_s;
                probe.sample();
                let verdict = judge_step(&run.observation, LIMIT_MS, BACKLOG_SLACK);
                rounds[rung].push((run.observation, verdict));
                if rate == REFERENCE_RATE {
                    reference.push(run);
                }
            }
            // More set-ups after every round, outside the steps, so their
            // median spans the run instead of one instant of a shared host.
            for _ in 0..SETUPS_PER_ROUND {
                drop(set_up(&mut setup_s, &mut probe));
            }
        }
        let steps: Vec<(StepObservation, StepVerdict)> = rounds
            .iter()
            .map(|observed| {
                report.note(
                    observed
                        .iter()
                        .map(|(o, v)| step_line(o, *v))
                        .collect::<Vec<_>>()
                        .join("\n"),
                );
                held_verdict(observed)
            })
            .collect();
        // Per-round percentiles at the reference rate, raw and
        // host-normalised.
        let per_round = |normalised: bool, p: f64| -> Vec<Summary> {
            reference
                .iter()
                .map(|r| {
                    let samples = if normalised {
                        &r.normalised_ms
                    } else {
                        &r.latencies_ms
                    };
                    summarize(samples, p)
                })
                .collect()
        };
        let pick = |summaries: &[Summary], tail: bool| -> Vec<f64> {
            summaries
                .iter()
                .map(|s| if tail { s.tail } else { s.p50 })
                .collect()
        };
        let round_p50 = pick(&per_round(false, 50.0), false);
        let round_p90 = pick(&per_round(false, 90.0), true);
        let round_p99 = pick(&per_round(false, 99.0), true);
        let norm_p50 = pick(&per_round(true, 50.0), false);
        let norm_p90 = pick(&per_round(true, 90.0), true);
        let n: usize = reference.iter().map(|r| r.latencies_ms.len()).sum();
        let mut at_reference = Tally::default();
        for run in &reference {
            at_reference.merge(&run.tally);
        }
        report.note(format!(
            "serve_hot: {ROUNDS} rounds of {:.3} s steps; at {REFERENCE_RATE} req/s per round: p50 {round_p50:?} ms, p90 {round_p90:?} ms, p99 {round_p99:?} ms; normalised p50 {norm_p50:?} ms, p90 {norm_p90:?} ms; {} micro-samples",
            step_time.as_secs_f64(),
            probe.micro_samples()
        ));
        let throughput = completed as f64 / wall_s;
        let (setup_raw, setup_local) = probe::setup_medians(&setup_s);
        report.note(probe.describe());
        report.note(format!(
            "RAW setup {setup_raw:.6e} setup_local {setup_local:.6e} tput {throughput:.6} p50 {:.6} p90 {:.6}",
            median(&round_p50),
            median(&round_p90)
        ));
        report.add("setup_s", setup_local, "s", setup_s.len());
        report.add("throughput_rps", throughput, "req/s", completed);
        report.add(
            "max_rate_rps",
            max_passing_rate(&steps),
            "req/s",
            steps.len() * ROUNDS,
        );
        report.add("latency_ms_p50", median(&norm_p50), "ms", n);
        report.add("latency_ms_p90", median(&norm_p90), "ms", n);
        report.note(format!(
            "latency_ms_p99 {} ms (reported by traced runs, not gated: at this scale it follows the host's scheduling noise)",
            median(&round_p99)
        ));
        let t = &at_reference;
        report.add("answered_frac", t.answered_frac(), "ratio", t.attempted);
        report.add("exact_frac", t.exact_frac(), "ratio", t.attempted);
        report.add("peak_rss_mb", peak_rss_mb() - probe::RESIDENT_MB, "MiB", 1);
    } else {
        // Untraced baseline, then the traced pass on a fresh front end:
        // the same fixed number of arrivals at the reference rate.
        let forever = Duration::from_secs(600);
        let baseline = step(
            &mut frontend,
            &service,
            &mut ledger,
            REFERENCE_RATE,
            forever,
            TRACE_REQUESTS,
            None,
            &mut LayerSamples::default(),
            &mut probe,
        );
        drop(frontend);
        let (service, mut frontend) = build(&apps);
        let tracer = Tracer::default();
        let mut layer = LayerSamples::default();
        let before = frontend.stats();
        let store_before = service.store().stats();
        let traced = step(
            &mut frontend,
            &service,
            &mut ledger,
            REFERENCE_RATE,
            forever,
            TRACE_REQUESTS,
            Some(&tracer),
            &mut layer,
            &mut probe,
        );
        let after = frontend.stats();
        let store_after = service.store().stats();
        let spans = tracer.totals();
        let attempted = traced.tally.attempted;
        span_metrics(&mut report, &spans);
        // The store counted the bench's own lookups too; subtract them.
        let hits = store_after.hits - store_before.hits - layer.bench_hits;
        let misses = store_after.misses - store_before.misses - layer.bench_misses;
        let lookups = hits + misses;
        report.add("serve.store.hits", hits as f64, "count", lookups);
        report.add("serve.store.misses", misses as f64, "count", lookups);
        let evictions = store_after.evictions - store_before.evictions;
        report.add("serve.store.evictions", evictions as f64, "count", lookups);
        report.add(
            "serve.store.hit_ratio",
            ratio(hits, lookups),
            "ratio",
            lookups,
        );
        let decides = layer.bench_misses;
        report.add("serve.admission.calls", decides as f64, "count", decides);
        let rejects = ratio(layer.admission_rejects, decides);
        report.add("serve.admission.reject_frac", rejects, "ratio", decides);
        let dispatches = (after.dispatches - before.dispatches) as f64;
        report.add("serve.service.cold_solves", dispatches, "count", attempted);
        let dedup = (after.dedup_joins - before.dedup_joins) as f64;
        report.add("serve.service.dedup_hits", dedup, "count", attempted);
        // Served without a cold solve: store hits plus dedup joins.
        let submitted = after.submitted - before.submitted;
        let served =
            (after.store_hits - before.store_hits) + (after.dedup_joins - before.dedup_joins);
        report.add(
            "serve.service.served_ratio",
            ratio(served, submitted),
            "ratio",
            submitted,
        );
        let busy_ms = ["serve.frontend.tick", "serve.frontend.submit"]
            .iter()
            .filter_map(|name| spans.get(name))
            .map(|t| t.total_ms())
            .sum::<f64>();
        let busy = busy_ms / (traced.wall_s * 1e3);
        report.add("serve.frontend.busy_frac", busy, "ratio", attempted);
        report.add(
            "serve.frontend.ticks",
            layer.ticks as f64,
            "count",
            attempted,
        );
        report.add("serve.frontend.dispatches", dispatches, "count", attempted);
        let peak = layer.peak_outstanding as f64;
        report.add("serve.frontend.peak_backlog", peak, "count", attempted);
        let sheds = (after.queue_full_sheds + after.backpressure_sheds)
            - (before.queue_full_sheds + before.backpressure_sheds);
        report.add("serve.frontend.sheds", sheds as f64, "count", attempted);
        let lag = traced.observation.lag_p99_ms;
        report.add("gen.lag_ms_p99", lag, "ms", traced.observation.sent);
        let traced_p50 = summarize(&traced.latencies_ms, 50.0).p50;
        let untraced = summarize(&baseline.latencies_ms, 99.0);
        report.add("latency_ms_p99", untraced.tail, "ms", untraced.n);
        let overhead = traced_p50 / untraced.p50 - 1.0;
        report.add(
            "trace.overhead_frac",
            overhead,
            "ratio",
            traced.latencies_ms.len(),
        );
        crate::write_spans(&tracer, args);
    }
    for message in ledger.failures.iter().take(20) {
        report.note(format!("FAILED {message}"));
    }
    (report, tally)
}

fn step_line(step: &StepObservation, verdict: StepVerdict) -> String {
    let shown = match verdict {
        StepVerdict::Invalid => "invalid (generator lag over the limit)".to_string(),
        v => format!(
            "{v:?}: {:.4} within {LIMIT_MS} ms, backlog {} -> {}",
            step.within_limit as f64 / step.sent.max(1) as f64,
            step.backlog_start,
            step.backlog_end
        ),
    };
    format!(
        "step {:>7.0} req/s: sent {:>7}, lag p99 {:.3} ms, {shown}",
        step.rate, step.sent, step.lag_p99_ms
    )
}

/// Span-derived layer timings shared by the serve workloads: each metric
/// is reported when its span was recorded.
pub fn span_metrics(report: &mut Report, spans: &BTreeMap<&'static str, SpanTotals>) {
    let timings: [(&str, &str, f64); 7] = [
        ("core.fingerprint", "core.fingerprint.us_p50", 50.0),
        ("serve.store.get", "serve.store.get_us_p50", 50.0),
        (
            "serve.admission.decide",
            "serve.admission.decide_us_p50",
            50.0,
        ),
        (
            "serve.admission.decide",
            "serve.admission.decide_us_p99",
            99.0,
        ),
        ("serve.frontend.tick", "serve.frontend.tick_us_p50", 50.0),
        ("serve.frontend.tick", "serve.frontend.tick_us_p99", 99.0),
        (
            "serve.frontend.submit",
            "serve.frontend.submit_us_p50",
            50.0,
        ),
    ];
    for (span_name, metric, p) in timings {
        if let Some(totals) = spans.get(span_name) {
            let s = summarize(&totals.durations_ms, p);
            let value = if p <= 50.0 { s.p50 } else { s.tail };
            report.add(metric, value * 1e3, "us", s.n);
        }
    }
    if let Some(totals) = spans.get("core.fingerprint") {
        report.add(
            "core.fingerprint.calls",
            totals.calls() as f64,
            "count",
            totals.calls(),
        );
    }
}
