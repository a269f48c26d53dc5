//! Pruning-correctness property tests (seeded random instances): the
//! branch-and-bound, cutoff-bounded and memoised searches of the
//! prune-and-memoise engine must return the **same optimum values, winning
//! graphs and feasibility verdicts** as the unpruned seed solvers
//! (`exhaustive_forest_best` / `exhaustive_dag_best` and the unbounded
//! ordering searches) they accelerate.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fsw::core::{CommModel, ExecutionGraph, PlanMetrics};
use fsw::sched::engine::{PartialPrune, Symmetry};
use fsw::sched::latency::{oneport_latency_search, oneport_latency_search_bounded};
use fsw::sched::minlatency::{evaluate_latency, minimize_latency};
use fsw::sched::minperiod::{
    evaluate_period, exhaustive_forest_search, minimize_period, PeriodEvaluation,
};
use fsw::sched::oneport::{oneport_period_search, oneport_period_search_bounded, OnePortStyle};
use fsw::sched::oracle::{exhaustive_dag_best, exhaustive_forest_best};
use fsw::sched::orchestrator::{solve, solve_all, Objective, Problem, SearchBudget};
use fsw::sched::tree::tree_latency;
use fsw::sched::Exec;
use fsw::workloads::{random_application, random_compatible_graph, RandomAppConfig};

const CASES: usize = 6;

fn graph_edges(graph: &ExecutionGraph) -> Vec<(usize, usize)> {
    graph.edges().collect()
}

/// The pruned forest enumeration returns the brute force's value *and*
/// tie-broken winner, for both admissible bounds.
#[test]
fn pruned_forest_enumeration_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xBB01);
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        for model in CommModel::ALL {
            let eval = |g: &ExecutionGraph| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            };
            let brute = exhaustive_forest_best(&app, eval).unwrap();
            let pruned = exhaustive_forest_search(
                &app,
                2_000_000,
                Exec::serial(),
                PartialPrune::Period(model),
                Symmetry::Auto, // heterogeneous weights: falls back to the full space
                &|g, _| eval(g),
            )
            .unwrap();
            assert_eq!(brute.0, pruned.value, "case {case} {model}: period value");
            assert_eq!(
                graph_edges(&brute.1),
                graph_edges(&pruned.graph),
                "case {case} {model}: period winner"
            );
            assert!(pruned.complete);
        }
        let eval = |g: &ExecutionGraph| tree_latency(&app, g).unwrap_or(f64::INFINITY);
        let brute = exhaustive_forest_best(&app, eval).unwrap();
        let pruned = exhaustive_forest_search(
            &app,
            2_000_000,
            Exec::serial(),
            PartialPrune::Latency,
            Symmetry::Auto,
            &|g, _| eval(g),
        )
        .unwrap();
        assert_eq!(brute.0, pruned.value, "case {case}: latency value");
        assert_eq!(
            graph_edges(&brute.1),
            graph_edges(&pruned.graph),
            "case {case}: latency winner"
        );
    }
}

/// Full MINPERIOD solves (pruned, memoised) equal a brute-force sweep of the
/// same candidate space with the same evaluation.
#[test]
fn minimize_period_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xBB02);
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        for model in CommModel::ALL {
            for evaluation in [PeriodEvaluation::LowerBound, PeriodEvaluation::Orchestrated] {
                // OUTORDER's orchestrated evaluation runs a backtracking
                // search per candidate: keep it to the cheap evaluation.
                if model == CommModel::OutOrder && evaluation != PeriodEvaluation::LowerBound {
                    continue;
                }
                let budget = SearchBudget {
                    max_orderings: 2_000,
                    ..SearchBudget::default()
                }
                .with_period_evaluation(evaluation);
                let result = minimize_period(&app, model, &budget).unwrap();
                assert!(result.exhaustive, "case {case} {model} {evaluation:?}");
                let brute = exhaustive_forest_best(&app, |g| {
                    evaluate_period(&app, g, model, &budget).unwrap_or(f64::INFINITY)
                })
                .unwrap();
                assert_eq!(
                    brute.0, result.period,
                    "case {case} {model} {evaluation:?}: value"
                );
                assert_eq!(
                    graph_edges(&brute.1),
                    graph_edges(&result.graph),
                    "case {case} {model} {evaluation:?}: winner"
                );
            }
        }
    }
}

/// Constrained MINPERIOD routes through the (seed-less) DAG enumeration and
/// must equal the brute-force DAG sweep.
#[test]
fn constrained_minimize_period_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xBB03);
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::constrained(4, 0.4), &mut rng);
        for model in CommModel::ALL {
            let budget = SearchBudget::default();
            let result = minimize_period(&app, model, &budget).unwrap();
            let brute = exhaustive_dag_best(&app, 5, |g| {
                evaluate_period(&app, g, model, &budget).unwrap_or(f64::INFINITY)
            })
            .unwrap();
            assert_eq!(brute.0, result.period, "case {case} {model}: value");
            assert_eq!(
                graph_edges(&brute.1),
                graph_edges(&result.graph),
                "case {case} {model}: winner"
            );
        }
    }
}

/// Full MINLATENCY solves (incumbent-seeded DAG phase, canonical ordering
/// cache) equal the legacy forest-then-DAG brute-force composition.
#[test]
fn minimize_latency_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xBB04);
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        for model in CommModel::ALL {
            let budget = SearchBudget::default();
            let result = minimize_latency(&app, model, &budget).unwrap();
            assert!(result.exhaustive, "case {case} {model}");
            let forest =
                exhaustive_forest_best(&app, |g| tree_latency(&app, g).unwrap_or(f64::INFINITY))
                    .unwrap();
            let dag = exhaustive_dag_best(&app, budget.dag_enumeration_max_n, |g| {
                evaluate_latency(&app, g, model, &budget).unwrap_or(f64::INFINITY)
            })
            .unwrap();
            let (expected_value, expected_graph) = if dag.0 < forest.0 - 1e-12 {
                (dag.0, dag.1)
            } else {
                (forest.0, forest.1)
            };
            assert_eq!(expected_value, result.latency, "case {case} {model}: value");
            assert_eq!(
                graph_edges(&expected_graph),
                graph_edges(&result.graph),
                "case {case} {model}: winner"
            );
        }
    }
}

/// Cutoff-bounded ordering searches: exact below the cutoff, and pruned only
/// when the true optimum indeed exceeds it.
#[test]
fn bounded_ordering_searches_match_unbounded() {
    let mut rng = StdRng::seed_from_u64(0xBB05);
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::independent(5), &mut rng);
        let graph = random_compatible_graph(&app, 0.5, &mut rng);

        let unbounded = oneport_latency_search(&app, &graph, 50_000).unwrap();
        assert!(unbounded.exhaustive);
        for factor in [0.5, 0.9, 1.0, 1.5] {
            let cutoff = unbounded.latency * factor;
            match oneport_latency_search_bounded(&app, &graph, 50_000, Exec::serial(), cutoff)
                .unwrap()
            {
                None => assert!(
                    unbounded.latency > cutoff,
                    "case {case} x{factor}: pruned although optimum {} <= cutoff {cutoff}",
                    unbounded.latency
                ),
                Some(result) => {
                    if result.latency <= cutoff {
                        assert_eq!(result.latency, unbounded.latency, "case {case} x{factor}");
                        assert_eq!(result.orderings, unbounded.orderings);
                    } else {
                        assert!(unbounded.latency > cutoff);
                    }
                }
            }
        }

        let unbounded = oneport_period_search(&app, &graph, OnePortStyle::InOrder, 50_000).unwrap();
        for factor in [0.5, 1.0, 2.0] {
            let cutoff = unbounded.period * factor;
            match oneport_period_search_bounded(
                &app,
                &graph,
                OnePortStyle::InOrder,
                50_000,
                Exec::serial(),
                cutoff,
            )
            .unwrap()
            {
                None => assert!(
                    unbounded.period > cutoff,
                    "case {case} x{factor}: pruned although optimum {} <= cutoff {cutoff}",
                    unbounded.period
                ),
                Some(result) => {
                    assert_eq!(result.period, unbounded.period, "case {case} x{factor}");
                    assert_eq!(result.orderings, unbounded.orderings);
                }
            }
        }
    }
}

/// `solve_all` (one shared evaluation cache across the sweep) is
/// bit-identical to independent `solve` calls.
#[test]
fn solve_all_matches_individual_solves() {
    let mut rng = StdRng::seed_from_u64(0xBB06);
    let requests: Vec<(CommModel, Objective)> = CommModel::ALL
        .into_iter()
        .flat_map(|model| {
            [Objective::MinPeriod, Objective::MinLatency]
                .into_iter()
                .map(move |objective| (model, objective))
        })
        .collect();
    for case in 0..CASES / 2 {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        let budget = SearchBudget::default();
        let batch = solve_all(&app, &requests, &budget).unwrap();
        for (&(model, objective), batched) in requests.iter().zip(&batch) {
            let single = solve(&Problem::new(&app, model, objective), &budget).unwrap();
            assert_eq!(
                single.value, batched.value,
                "case {case} {model} {objective}"
            );
            assert_eq!(
                graph_edges(&single.graph),
                graph_edges(&batched.graph),
                "case {case} {model} {objective}"
            );
            assert_eq!(single.exhaustive, batched.exhaustive);
        }
    }
}

/// The canonical path: on uniform-weight instances the full solver stack
/// (symmetry-reduced, pruned, memoised) still returns the brute force's
/// optimum values.
#[test]
fn canonical_minimize_period_matches_brute_force_on_uniform_weights() {
    let mut rng = StdRng::seed_from_u64(0xBB07);
    for case in 0..CASES {
        // One weight pair shared by all services: filters and expanders.
        let shared = (
            0.5 + 3.0 * (case as f64) / CASES as f64,
            0.3 + 0.25 * case as f64,
        );
        let app = fsw::core::Application::independent(&[shared; 5]);
        let _ = &mut rng;
        for model in CommModel::ALL {
            let budget = SearchBudget::default();
            let result = minimize_period(&app, model, &budget).unwrap();
            assert!(result.exhaustive, "case {case} {model}");
            let brute = exhaustive_forest_best(&app, |g| {
                evaluate_period(&app, g, model, &budget).unwrap_or(f64::INFINITY)
            })
            .unwrap();
            assert_eq!(brute.0, result.period, "case {case} {model}: value");
            // The canonical winner is a representative of an optimal orbit:
            // it must achieve the optimum itself (the labelled witness may
            // differ from the raw enumeration's — the documented tie-break).
            let winner_value =
                evaluate_period(&app, &result.graph, model, &budget).unwrap_or(f64::INFINITY);
            assert_eq!(winner_value, result.period, "case {case} {model}: winner");
        }
    }
}

/// The OUTORDER cyclic backtracker now honours `SearchBudget::time_limit`:
/// an expired deadline still yields a feasible (INORDER-fallback) schedule,
/// flagged non-optimal.
#[test]
fn outorder_honours_time_limit() {
    let app = fsw::core::Application::independent(&[(4.0, 1.0); 5]);
    let graph = ExecutionGraph::from_edges(5, &[(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]).unwrap();
    let solution = solve(
        &Problem::on_graph(&app, CommModel::OutOrder, Objective::MinPeriod, &graph),
        &SearchBudget::default().with_time_limit(Duration::ZERO),
    )
    .unwrap();
    assert!(solution.value.is_finite());
    // The backtracker cannot reach the lower bound 7 within a zero budget;
    // the INORDER fallback is feasible but above it.
    assert!(solution.value > 7.0 + 1e-9);
    assert!(!solution.exhaustive);

    // With no limit the backtracker proves the bound (the legacy behaviour).
    let solution = solve(
        &Problem::on_graph(&app, CommModel::OutOrder, Objective::MinPeriod, &graph),
        &SearchBudget::default(),
    )
    .unwrap();
    assert!((solution.value - 7.0).abs() < 1e-9);
    assert!(solution.exhaustive);
}
