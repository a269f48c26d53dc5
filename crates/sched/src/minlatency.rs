//! MINLATENCY: choosing the execution graph that minimises the latency.
//!
//! All three variants are NP-hard (Theorem 4), and the restriction to forests
//! is NP-hard too (Proposition 17, by reduction from 2-Partition), while the
//! restriction to chains is polynomial (Proposition 16).  The solvers mirror
//! the MINPERIOD module:
//!
//! * exhaustive enumeration of forests (exact latency by Algorithm 1 /
//!   Proposition 12) and of all DAGs for tiny instances (the optimal graph
//!   need not be a forest for the latency — the Proposition 13 gadget is a
//!   fork-join);
//! * the Proposition 16 chain and the independent plan as constructive seeds,
//!   followed by hill-climbing local search over parent reassignments;
//! * latency of a candidate graph measured exactly for forests, and by the
//!   one-port / multi-port orchestration searches for general DAGs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use fsw_core::{Application, CommModel, CoreResult, ExecutionGraph, PlanMetrics};

use crate::chain::{chain_graph, chain_minlatency_order};
use crate::engine::frontier::StreamProbe;
use crate::engine::{prune_threshold, tags, CanonicalSpace, EvalCache, PartialPrune, Symmetry};
use crate::latency::{
    latency_lower_bound_with, multiport_proportional_latency, oneport_latency_search,
    oneport_latency_search_prepared, LatencyEvaluator,
};
use crate::minperiod::{exhaustive_dag_search, exhaustive_forest_search_probed, hill_climb};
use crate::orchestrator::SearchBudget;
use crate::orderings::CommOrderings;
use crate::par::Exec;
use crate::tree::tree_latency;

/// Result of a MINLATENCY solve.
#[derive(Clone, Debug)]
pub struct MinLatencyResult {
    /// The best latency found.
    pub latency: f64,
    /// The execution graph achieving it.
    pub graph: ExecutionGraph,
    /// `true` when the result comes from an exhaustive enumeration.
    pub exhaustive: bool,
}

/// Evaluates the latency of a candidate execution graph under the requested model.
///
/// Forests are evaluated exactly (Proposition 12); general DAGs use the
/// ordering search (exhaustive within [`SearchBudget::max_orderings`], hill
/// climbing beyond), and the `Overlap` model additionally considers the
/// proportional multi-port schedule.
pub fn evaluate_latency(
    app: &Application,
    graph: &ExecutionGraph,
    model: CommModel,
    budget: &SearchBudget,
) -> CoreResult<f64> {
    if graph.is_forest() {
        return tree_latency(app, graph);
    }
    let oneport = oneport_latency_search(app, graph, budget.max_orderings)?;
    let mut best = oneport.latency;
    if model == CommModel::Overlap {
        let (fluid, _) = multiport_proportional_latency(app, graph)?;
        best = best.min(fluid);
    }
    Ok(best)
}

/// Bounded (branch-and-bound aware) candidate evaluation: like
/// [`evaluate_latency`], but may return `∞` for candidates whose critical
/// path already clears `cutoff`, and memoises the one-port ordering searches
/// in `cache` (one search per canonical equivalence class).
fn evaluate_latency_bounded(
    app: &Application,
    graph: &ExecutionGraph,
    model: CommModel,
    budget: &SearchBudget,
    cache: &EvalCache,
    cutoff: f64,
    deadline: Option<Instant>,
) -> f64 {
    if graph.is_forest() {
        // Exact by Algorithm 1 — cheap enough to skip the cache entirely.
        return tree_latency(app, graph).unwrap_or(f64::INFINITY);
    }
    // Every one-port or multi-port schedule dominates the critical path, so
    // a critical path above the cutoff proves the candidate cannot improve
    // the incumbent.  The metrics are computed once here and shared with the
    // ordering search on a cache miss.
    let Ok(metrics) = PlanMetrics::compute(app, graph) else {
        return f64::INFINITY;
    };
    let Ok(lower) = latency_lower_bound_with(app, graph, &metrics) else {
        return f64::INFINITY;
    };
    if lower > prune_threshold(cutoff) {
        return f64::INFINITY;
    }
    // The (cheap, exact) proportional multi-port schedule further tightens
    // the cutoff handed to the expensive one-port ordering search.
    let fluid = if model == CommModel::Overlap {
        multiport_proportional_latency(app, graph)
            .ok()
            .map(|(value, _)| value)
    } else {
        None
    };
    let inner_cutoff = fluid.map_or(cutoff, |f| cutoff.min(f));
    // The evaluator (operation skeleton) is built lazily so cache hits never
    // pay for it; it reuses the metrics computed above.
    let search = |c: f64| {
        let Ok(evaluator) = LatencyEvaluator::with_metrics(app, graph, &metrics) else {
            return f64::INFINITY;
        };
        let inner_exec = Exec {
            threads: 1,
            deadline,
        };
        match oneport_latency_search_prepared(
            graph,
            &evaluator,
            budget.max_orderings,
            inner_exec,
            c,
        ) {
            Ok(Some(result)) => result.latency,
            Ok(None) | Err(_) => f64::INFINITY,
        }
    };
    // With a deadline, inner searches may return deadline-truncated values:
    // honour the time limit, but never memoise wall-clock-dependent results.
    let oneport = if deadline.is_some() {
        search(inner_cutoff)
    } else {
        let exhaustive = CommOrderings::search_space_size(graph) <= budget.max_orderings;
        cache.get_or_compute(
            tags::ONEPORT_LATENCY,
            graph,
            exhaustive,
            inner_cutoff,
            search,
        )
    };
    fluid.map_or(oneport, |f| f.min(oneport))
}

/// Constructive seeds for the heuristic search.
fn seed_graphs(app: &Application) -> Vec<ExecutionGraph> {
    let n = app.n();
    let mut seeds = Vec::new();
    if app.has_constraints() {
        if let Ok(g) = ExecutionGraph::from_edges(n, app.constraints()) {
            seeds.push(g);
        }
        return seeds;
    }
    seeds.push(ExecutionGraph::new(n));
    if let Ok(order) = chain_minlatency_order(app) {
        if let Ok(g) = chain_graph(n, &order) {
            seeds.push(g);
        }
    }
    seeds
}

/// Heuristic MINLATENCY: best constructive seed followed by the shared
/// single-parent hill climbing, every candidate valued by
/// [`evaluate_latency`].
pub fn minlatency_local_search(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
) -> CoreResult<MinLatencyResult> {
    let (latency, graph) = hill_climb(app, seed_graphs(app), |g| {
        evaluate_latency(app, g, model, budget).unwrap_or(f64::INFINITY)
    });
    Ok(MinLatencyResult {
        latency,
        graph,
        exhaustive: false,
    })
}

/// The MINLATENCY plan search under `budget`.
///
/// For unconstrained instances the forest space is enumerated exhaustively
/// when it fits [`SearchBudget::max_graphs`]; instances up to
/// [`SearchBudget::dag_enumeration_max_n`] are additionally searched over
/// all DAGs (the latency optimum may require a join, unlike the period).
/// Larger instances fall back to the local-search heuristic.  The
/// exhaustive phases fan out over [`SearchBudget::threads`] workers
/// (bit-identical to the serial run) and honour
/// [`SearchBudget::time_limit`], returning the best graph found so far with
/// `exhaustive == false` when it interrupts the enumeration.
///
/// This is the plan search alone: [`crate::orchestrator::solve`] also
/// schedules the winner, and its `exhaustive` flag combines both.
pub fn minimize_latency(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
) -> CoreResult<MinLatencyResult> {
    minimize_latency_engine_seeded(
        app,
        model,
        budget,
        budget.exec(),
        &EvalCache::new(app),
        f64::INFINITY,
        &AtomicUsize::new(0),
        None,
    )
}

/// The body of [`minimize_latency`] with a caller-provided evaluation cache,
/// the execution strategy resolved once per solve, a warm-start incumbent
/// seed and an evaluation counter (the latency twin of
/// `minimize_period_engine_seeded`): `incumbent_seed` pre-loads the forest
/// phase's incumbent and tightens the DAG phase's seed, `evals` counts full
/// candidate evaluations.  Winners are bit-identical to the cold solve for
/// any seed that upper-bounds the **forest** optimum (callers seed from
/// forest plans only — `orchestrator::warm_seed` enforces this; a DAG value
/// below every forest would starve the forest phase and flip the near-tie
/// arbitration between the two phases).
#[allow(clippy::too_many_arguments)]
pub(crate) fn minimize_latency_engine_seeded(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
    exec: Exec,
    cache: &EvalCache,
    incumbent_seed: f64,
    evals: &AtomicUsize,
    probe: Option<&StreamProbe>,
) -> CoreResult<MinLatencyResult> {
    let mut best: Option<MinLatencyResult> = None;
    if !app.has_constraints() {
        let eval = |g: &ExecutionGraph, _cutoff: f64| {
            evals.fetch_add(1, Ordering::Relaxed);
            tree_latency(app, g).unwrap_or(f64::INFINITY)
        };
        if let Some(out) = exhaustive_forest_search_probed(
            app,
            budget.max_graphs,
            exec,
            PartialPrune::Latency,
            // Algorithm 1 is exact and purely structural, hence invariant
            // under class-preserving relabellings (the `Classes` gate).
            Symmetry::Classes,
            incumbent_seed,
            &eval,
            probe,
        ) {
            best = Some(MinLatencyResult {
                latency: out.value,
                graph: out.graph,
                exhaustive: out.complete,
            });
        }
    }
    if app.n() <= budget.dag_enumeration_max_n {
        // Seed the DAG phase's incumbent with the forest optimum (tightened
        // by the warm-start seed): a DAG only matters when it strictly beats
        // every forest, so candidates whose critical path already clears the
        // seed skip their ordering search.
        let seed = best
            .as_ref()
            .map_or(f64::INFINITY, |b| b.latency)
            .min(incumbent_seed);
        let eval = |g: &ExecutionGraph, cutoff: f64| {
            evals.fetch_add(1, Ordering::Relaxed);
            evaluate_latency_bounded(app, g, model, budget, cache, cutoff, exec.deadline)
        };
        // The DAG evaluation is label-invariant only while every candidate's
        // ordering search stays exhaustive (beyond the budget it falls back
        // to label-following hill climbing), so the symmetry reduction is
        // gated on the worst DAG's ordering space fitting the budget.
        let symmetry = if CanonicalSpace::max_dag_ordering_space(app.n()) <= budget.max_orderings {
            Symmetry::Auto
        } else {
            Symmetry::Full
        };
        let dag = exhaustive_dag_search(
            app,
            budget.dag_enumeration_max_n,
            exec,
            seed,
            symmetry,
            &eval,
        );
        if let Some(out) = dag {
            if best.as_ref().is_none_or(|b| out.value < b.latency - 1e-12) {
                best = Some(MinLatencyResult {
                    latency: out.value,
                    graph: out.graph,
                    exhaustive: out.complete,
                });
            }
        }
    }
    match best {
        Some(b) => Ok(b),
        None => minlatency_local_search(app, model, budget),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_filter_is_chained_in_front() {
        let app = Application::independent(&[(1.0, 0.1), (10.0, 1.0)]);
        let result = minimize_latency(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        assert!(result.exhaustive);
        assert!(result.graph.has_edge(0, 1));
        // in(1) + c0(1) + comm(0.1) + c1(0.1*10=1) + out(0.1)
        assert!((result.latency - 3.2).abs() < 1e-9);
    }

    #[test]
    fn expanders_are_not_chained_for_latency() {
        // Chaining an expander in front of anything only increases the latency.
        let app = Application::independent(&[(1.0, 3.0), (1.0, 3.0)]);
        let result = minimize_latency(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        assert!(result.exhaustive);
        assert_eq!(result.graph.edge_count(), 0);
        // Each runs independently: 1 + 1 + 3 = 5.
        assert!((result.latency - 5.0).abs() < 1e-9);
    }

    #[test]
    fn chain_restriction_matches_greedy() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 0.8), (3.0, 0.2)]);
        let order = chain_minlatency_order(&app).unwrap();
        let chain_value = crate::chain::chain_latency(&app, &order);
        // The unrestricted optimum can only be better or equal.
        let result = minimize_latency(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        assert!(result.latency <= chain_value + 1e-9);
    }

    #[test]
    fn local_search_close_to_exhaustive() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.0, 0.6)]);
        let budget = SearchBudget::default();
        let exhaustive = minimize_latency(&app, CommModel::Overlap, &budget).unwrap();
        assert!(exhaustive.exhaustive);
        let local = minlatency_local_search(&app, CommModel::Overlap, &budget).unwrap();
        assert!(local.latency >= exhaustive.latency - 1e-9);
        assert!(local.latency <= exhaustive.latency * 1.25 + 1e-9);
    }

    #[test]
    fn constraints_are_respected() {
        let mut app = Application::independent(&[(1.0, 0.5), (2.0, 0.5), (3.0, 1.0)]);
        app.add_constraint(1, 2).unwrap();
        let result = minimize_latency(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        result.graph.respects(&app).unwrap();
    }

    #[test]
    fn forest_evaluation_matches_orchestration_for_trees() {
        // For a tree the exact Algorithm-1 value and the ordering search agree.
        let app = Application::independent(&[(1.0, 1.0), (2.0, 0.5), (3.0, 2.0), (1.0, 1.0)]);
        let g = ExecutionGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3)]).unwrap();
        let by_tree = tree_latency(&app, &g).unwrap();
        let by_search = oneport_latency_search(&app, &g, 10_000).unwrap();
        assert!(by_search.exhaustive);
        assert!((by_tree - by_search.latency).abs() < 1e-9);
        assert!(
            (evaluate_latency(&app, &g, CommModel::Overlap, &SearchBudget::default()).unwrap()
                - by_tree)
                .abs()
                < 1e-9
        );
    }
}
