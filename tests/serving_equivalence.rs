//! Property tests of the serving layer (`fsw_serve`), guarding the PR-5
//! acceptance criteria:
//!
//! * a cache-hit response is **byte-identical** to a cold solve of the same
//!   request (value, winning graph and exhaustiveness flag);
//! * an online re-plan's value equals a from-scratch solve of the mutated
//!   instance, bit for bit, while evaluating **no more** candidates (and
//!   strictly fewer in aggregate across a trace);
//! * the plan store's eviction respects the solve-cost weighting;
//! * a trace replay is deterministic across worker-thread counts;
//! * the two front doors agree: a mutation-free trace replayed through the
//!   batch path and through the async front end (no shedding, no
//!   deadlines, 1 or 2 workers) resolves every request identically;
//! * the per-fingerprint evaluation caches are **retained across cold
//!   solves**: a fingerprint evicted from the plan store re-solves against
//!   its memoised ordering searches, strictly cheaper than the first cold
//!   solve and byte-identical to it.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fsw::core::{Application, CommModel};
use fsw::sched::orchestrator::{solve, Objective, Problem, SearchBudget};
use fsw::serve::{
    FrontendConfig, PlanRequest, PlanService, PlanStore, ServeSource, StoredPlan, TenantEvent,
    TenantSession,
};
use fsw::sim::{replay_trace, Disposition, Door, ReplayConfig, ReplayReport, RequestPath};
use fsw::workloads::streaming::{serving_trace, TraceConfig};
use fsw::workloads::{random_application, RandomAppConfig};

fn graph_edges(graph: &fsw::core::ExecutionGraph) -> Vec<(usize, usize)> {
    graph.edges().collect()
}

#[test]
fn cache_hits_are_byte_identical_to_cold_solves() {
    let mut rng = StdRng::seed_from_u64(0x5e01);
    let budget = SearchBudget::default();
    for case in 0..6 {
        let app = random_application(&RandomAppConfig::independent(4 + case % 3), &mut rng);
        for (model, objective) in [
            (CommModel::Overlap, Objective::MinPeriod),
            (CommModel::InOrder, Objective::MinPeriod),
            (CommModel::Overlap, Objective::MinLatency),
        ] {
            let service = PlanService::new(budget, 8);
            let request = PlanRequest::new(app.clone(), model, objective);
            let cold_outcome = service.serve_one(&request).unwrap();
            let cold_response = cold_outcome.expect_exact();
            assert_eq!(cold_response.source, ServeSource::Cold);
            let hit_outcome = service.serve_one(&request).unwrap();
            let hit = hit_outcome.expect_exact();
            assert_eq!(hit.source, ServeSource::Store, "case {case} {model}");
            // Byte identity between the hit and the cold response…
            assert_eq!(hit.value.to_bits(), cold_response.value.to_bits());
            assert_eq!(graph_edges(&hit.graph), graph_edges(&cold_response.graph));
            assert_eq!(hit.exhaustive, cold_response.exhaustive);
            // …and between both and a direct orchestrator solve.
            let direct = solve(&Problem::new(&app, model, objective), &budget).unwrap();
            assert_eq!(hit.value.to_bits(), direct.value.to_bits());
            assert_eq!(hit.exhaustive, direct.exhaustive);
        }
    }
}

#[test]
fn permuted_tenants_served_from_one_solve_match_their_own_cold_solves() {
    let mut rng = StdRng::seed_from_u64(0x5e02);
    let budget = SearchBudget::default();
    for case in 0..6 {
        let app = random_application(&RandomAppConfig::independent(5), &mut rng);
        // A rotated twin of the same weight multiset.
        let n = app.n();
        let rotated = Application::independent(
            &(0..n)
                .map(|k| {
                    let src = (k + 1 + case % (n - 1)) % n;
                    (app.cost(src), app.selectivity(src))
                })
                .collect::<Vec<_>>(),
        );
        let service = PlanService::new(budget, 8);
        let outcomes = service
            .serve_batch(&[
                PlanRequest::new(app.clone(), CommModel::Overlap, Objective::MinPeriod),
                PlanRequest::new(rotated.clone(), CommModel::Overlap, Objective::MinPeriod),
            ])
            .unwrap();
        let responses: Vec<_> = outcomes.iter().map(|o| o.expect_exact()).collect();
        assert_eq!(responses[0].source, ServeSource::Cold, "case {case}");
        assert_eq!(responses[1].source, ServeSource::Dedup, "case {case}");
        for (tenant_app, response) in [(&app, responses[0]), (&rotated, responses[1])] {
            let cold = solve(
                &Problem::new(tenant_app, CommModel::Overlap, Objective::MinPeriod),
                &budget,
            )
            .unwrap();
            assert_eq!(
                response.value.to_bits(),
                cold.value.to_bits(),
                "case {case}"
            );
            response.graph.respects(tenant_app).unwrap();
        }
    }
}

#[test]
fn online_replan_equals_from_scratch_solve_on_the_mutated_instance() {
    let mut rng = StdRng::seed_from_u64(0x5e03);
    let budget = SearchBudget::default();
    for case in 0..5 {
        let app = random_application(&RandomAppConfig::independent(5), &mut rng);
        let mut session =
            TenantSession::new(app, CommModel::Overlap, Objective::MinPeriod, budget).unwrap();
        let first = session.replan().unwrap();
        let events = [
            TenantEvent::Arrive {
                cost: 2.5 + case as f64,
                selectivity: 0.4,
            },
            TenantEvent::Reweight {
                service: case % 5,
                cost: 1.5,
                selectivity: 0.8,
            },
            TenantEvent::Depart { service: case % 5 },
        ];
        for (step, event) in events.into_iter().enumerate() {
            session.apply(event).unwrap();
            let outcome = session.replan().unwrap();
            assert!(outcome.warm_value.is_some(), "case {case} step {step}");
            let cold = solve(
                &Problem::new(session.app(), CommModel::Overlap, Objective::MinPeriod),
                &budget,
            )
            .unwrap();
            assert_eq!(
                outcome.value.to_bits(),
                cold.value.to_bits(),
                "case {case} step {step}: warm re-plan must equal a cold solve"
            );
            assert_eq!(outcome.exhaustive, cold.exhaustive);
        }
        let _ = first;
    }
}

#[test]
fn eviction_respects_the_cost_weighting() {
    use fsw::core::{CanonicalApplication, ExecutionGraph};
    use fsw::serve::PlanKey;
    // Two slots: one expensive plan and a parade of cheap ones.  The
    // expensive plan must survive; among the cheap ones the most recently
    // used stays.
    let store = PlanStore::new(2);
    let key = |cost: f64| PlanKey {
        fingerprint: CanonicalApplication::of(&Application::independent(&[(cost, 0.5)]))
            .fingerprint,
        model: CommModel::Overlap,
        objective: Objective::MinPeriod,
    };
    let plan = |micros: u64| StoredPlan {
        value: 1.0,
        graph: ExecutionGraph::new(1),
        exhaustive: true,
        solve_micros: micros,
    };
    let expensive = key(100.0);
    store.insert(expensive.clone(), plan(1_000_000));
    for i in 0..10 {
        store.insert(key(1.0 + i as f64), plan(10 + i));
    }
    let stats = store.stats();
    assert_eq!(stats.len, 2);
    assert_eq!(stats.evictions, 9);
    assert!(
        store.get(&expensive).is_some(),
        "cost weighting must keep the expensive plan"
    );
    assert!(store.get(&key(10.0)).is_some(), "newest cheap plan stays");
}

/// Evaluation caches survive plan-store eviction.  With a capacity-1 store
/// and two models on one application, the store can hold only one of the
/// two plans (eviction is weighed by measured solve wall time, so *which*
/// one survives depends on timing) — re-serving both keys therefore always
/// produces exactly one genuine repeat cold-miss.  That repeat cold solve
/// must answer from the retained per-fingerprint `EvalCache`: strictly
/// fewer fresh evaluations than the cold-cache baseline, with memo hits,
/// and byte-identical to its own first response.  (MINLATENCY routes its
/// non-forest one-port ordering searches through the cache under the
/// default budget; MINPERIOD's default lower-bound evaluation never
/// consults it.)
#[test]
fn eval_caches_are_retained_across_repeat_cold_misses() {
    let mut rng = StdRng::seed_from_u64(0x5e06);
    for case in 0..3 {
        // n = 5 keeps the DAG phase (the cache-routed evaluations) active.
        let app = random_application(&RandomAppConfig::independent(5), &mut rng);
        let service = PlanService::new(SearchBudget::default(), 1);
        let warm_up = PlanRequest::new(app.clone(), CommModel::Overlap, Objective::MinLatency);
        let target = PlanRequest::new(app.clone(), CommModel::InOrder, Objective::MinLatency);
        assert!(
            service.eval_cache_stats(&warm_up).is_none(),
            "case {case}: no cache before the first cold solve"
        );
        let first = service.serve_one(&warm_up).unwrap().expect_exact().clone();
        assert_eq!(first.source, ServeSource::Cold, "case {case}");
        let (_, cold_baseline) = service.eval_cache_stats(&warm_up).unwrap();
        assert!(cold_baseline > 0, "case {case}: a cold solve must evaluate");
        let second = service.serve_one(&target).unwrap().expect_exact().clone();
        assert_eq!(second.source, ServeSource::Cold, "case {case}");
        // Exactly one of the two keys is resident in the capacity-1 store;
        // a store hit never touches the evaluation cache, so the stats
        // snapshot stays valid across the probing re-serve.
        let (hits_before, misses_before) = service.eval_cache_stats(&target).unwrap();
        let probe = service.serve_one(&target).unwrap().expect_exact().clone();
        let (repeat, original) = if probe.source == ServeSource::Cold {
            (probe, &second)
        } else {
            assert_eq!(probe.source, ServeSource::Store, "case {case}");
            let other = service.serve_one(&warm_up).unwrap().expect_exact().clone();
            assert_eq!(
                other.source,
                ServeSource::Cold,
                "case {case}: one of the two plans must have been evicted"
            );
            (other, &first)
        };
        let (hits_after, misses_after) = service.eval_cache_stats(&target).unwrap();
        assert!(
            misses_after - misses_before < cold_baseline,
            "case {case}: repeat cold solve ran {} fresh searches, the \
             cold-cache baseline ran {cold_baseline} — retention saved nothing",
            misses_after - misses_before
        );
        assert!(
            hits_after > hits_before,
            "case {case}: repeat cold solve must hit the retained memo"
        );
        // Retention is a pure memo: the repeat answer is byte-identical.
        assert_eq!(
            repeat.value.to_bits(),
            original.value.to_bits(),
            "case {case}"
        );
        assert_eq!(
            graph_edges(&repeat.graph),
            graph_edges(&original.graph),
            "case {case}"
        );
        assert_eq!(repeat.exhaustive, original.exhaustive, "case {case}");
    }
}

#[test]
fn trace_replay_is_deterministic_across_thread_counts() {
    let trace = serving_trace(
        &TraceConfig {
            tenants: 8,
            steps: 12,
            templates: 3,
            services_per_tenant: 5,
            mutation_rate: 0.5,
            requests_per_step: 3,
            ..TraceConfig::default()
        },
        &mut StdRng::seed_from_u64(0x5e04),
    );
    let reference = replay_trace(
        &trace,
        &ReplayConfig {
            budget: SearchBudget::default().with_threads(1),
            ..ReplayConfig::default()
        },
    )
    .unwrap();
    assert!(reference.served() > 0);
    for threads in [2, 4] {
        let other = replay_trace(
            &trace,
            &ReplayConfig {
                budget: SearchBudget::default().with_threads(threads),
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            reference.digest(),
            other.digest(),
            "x{threads}: replay outcomes must not depend on the thread count"
        );
        assert_eq!(reference.store, other.store, "x{threads}: store counters");
        assert_eq!(
            reference.service, other.service,
            "x{threads}: service counters"
        );
    }
}

#[test]
fn warm_replans_never_evaluate_more_than_cold_and_save_in_aggregate() {
    let trace = serving_trace(
        &TraceConfig {
            tenants: 10,
            steps: 20,
            templates: 4,
            services_per_tenant: 6,
            mutation_rate: 0.5,
            requests_per_step: 3,
            ..TraceConfig::default()
        },
        &mut StdRng::seed_from_u64(0x5e05),
    );
    let report = replay_trace(
        &trace,
        &ReplayConfig {
            verify: true,
            ..ReplayConfig::default()
        },
    )
    .unwrap();
    assert_eq!(
        report.value_mismatches(),
        0,
        "served values != ground truth"
    );
    assert!(report.replans() > 0, "trace produced no re-plans");
    for outcome in &report.outcomes {
        if outcome.path == RequestPath::Replan {
            let cold = outcome.cold_evaluated.expect("verify mode");
            assert!(
                outcome.evaluated <= cold,
                "step {} tenant {}: warm evaluated {} > cold {}",
                outcome.step,
                outcome.tenant,
                outcome.evaluated,
                cold
            );
        }
    }
    let (warm, cold) = report.replan_evaluations();
    assert!(
        warm < cold,
        "warm starts must prune in aggregate: warm {warm} vs cold {cold}"
    );
}

#[test]
fn batch_and_async_doors_resolve_a_trace_identically() {
    // Mutation-free, so the batch door never re-plans: every request of
    // both doors goes through the service's stages, and the two doors may
    // differ only in how they batch and wait — not in any outcome.
    let trace = serving_trace(
        &TraceConfig {
            tenants: 12,
            steps: 16,
            templates: 3,
            services_per_tenant: 5,
            mutation_rate: 0.0,
            requests_per_step: 4,
            ..TraceConfig::default()
        },
        &mut StdRng::seed_from_u64(0x5e07),
    );
    let rows = |report: &ReplayReport| -> Vec<(Option<u64>, usize, Disposition, u64)> {
        report
            .outcomes
            .iter()
            .map(|o| (o.ordinal, o.tenant, o.disposition, o.value.to_bits()))
            .collect()
    };
    let batch = replay_trace(&trace, &ReplayConfig::default()).unwrap();
    assert_eq!(batch.requests(), trace.request_count());
    assert_eq!(batch.replans(), 0, "a mutation-free trace never re-plans");
    for workers in [1, 2] {
        let door = Door::Async(FrontendConfig {
            workers,
            queue_capacity: trace.request_count(),
            backlog_high: usize::MAX,
            deadline_ticks: None,
            ..FrontendConfig::default()
        });
        let config = ReplayConfig {
            door,
            verify: true,
            ..ReplayConfig::default()
        };
        let report = replay_trace(&trace, &config).unwrap();
        assert_eq!(
            rows(&batch),
            rows(&report),
            "workers={workers}: the async door resolved a request differently"
        );
        assert_eq!(report.value_mismatches(), 0, "workers={workers}");
        assert!(
            report.outcomes.iter().all(|o| o.cold_value.is_some()),
            "workers={workers}: every exact answer was verified"
        );
    }
}
