//! MINPERIOD: choosing the execution graph that minimises the period.
//!
//! All three variants (OVERLAP, OUTORDER, INORDER) are NP-hard (Theorem 2),
//! so this module offers a ladder of solvers:
//!
//! * exhaustive enumeration of forest execution graphs — justified by
//!   Proposition 4: without precedence constraints there is always an optimal
//!   plan whose execution graph is a forest;
//! * exhaustive enumeration of *all* DAGs for very small instances (used to
//!   validate Proposition 4 experimentally, experiment E9);
//! * constructive seeds (independent services, the Proposition 8 chain, the
//!   no-communication structure) followed by hill-climbing local search over
//!   parent reassignments;
//! * the period of a candidate graph is measured by a pluggable
//!   [`PeriodEvaluation`] — the exact polynomial value for OVERLAP, and either
//!   the one-port lower bound or an actual ordering search for the one-port
//!   models.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use fsw_core::{
    canonical_classed_member, Application, CommModel, CoreResult, ExecutionGraph,
    PartialForestMetrics, PlanMetrics, ServiceId, WeightClasses,
};

use crate::chain::{chain_graph, chain_minperiod_order};
use crate::engine::frontier::{
    streamed_canonical_search_observed, EngineMetrics, StreamProbe, StreamStats,
    DEFAULT_FRONTIER_CAP,
};
use crate::engine::{
    prune_threshold, tags, CanonicalSpace, EvalCache, Incumbent, PartialPrune, Symmetry,
};
use crate::oneport::{oneport_period_search, oneport_period_search_prepared, OnePortStyle};
use crate::orchestrator::SearchBudget;
use crate::orderings::CommOrderings;
use crate::outorder::outorder_period_search_bounded;
use crate::par::{fold_min, par_chunks, Exec};

/// How the period of a candidate execution graph is evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeriodEvaluation {
    /// `max_k Cexec(k)` — exact for OVERLAP (Theorem 1), a lower bound for the
    /// one-port models.  Cheap; used inside search loops.
    LowerBound,
    /// Run the orchestration machinery for the chosen model: exact for
    /// OVERLAP, ordering search for INORDER, cyclic-scheduling search for
    /// OUTORDER, both capped by [`SearchBudget::max_orderings`].  More
    /// faithful, considerably more expensive.
    Orchestrated,
}

/// Result of a MINPERIOD solve.
#[derive(Clone, Debug)]
pub struct MinPeriodResult {
    /// The best period found (as measured by the requested evaluation).
    pub period: f64,
    /// The execution graph achieving it.
    pub graph: ExecutionGraph,
    /// `true` when the result comes from an exhaustive enumeration (optimal
    /// for the requested evaluation), `false` for heuristics.
    pub exhaustive: bool,
}

/// Evaluates the period of a candidate execution graph under the requested
/// model, with the budget's [`SearchBudget::period_evaluation`] (serially and
/// without a deadline: a value, not a search outcome).
pub fn evaluate_period(
    app: &Application,
    graph: &ExecutionGraph,
    model: CommModel,
    budget: &SearchBudget,
) -> CoreResult<f64> {
    let lower = PlanMetrics::compute(app, graph)?.period_lower_bound(model);
    match (budget.period_evaluation, model) {
        (PeriodEvaluation::LowerBound, _) | (_, CommModel::Overlap) => Ok(lower),
        (PeriodEvaluation::Orchestrated, CommModel::InOrder) => {
            Ok(
                oneport_period_search(app, graph, OnePortStyle::InOrder, budget.max_orderings)?
                    .period,
            )
        }
        (PeriodEvaluation::Orchestrated, CommModel::OutOrder) => Ok(
            outorder_period_search_bounded(app, graph, budget, Exec::serial(), f64::INFINITY)?
                .expect("an infinite cutoff never prunes")
                .period,
        ),
    }
}

/// Outcome of a budgeted exhaustive search: the best candidate found and
/// whether the enumeration ran to completion (`complete == false` means a
/// deadline interrupted it, so the value is only an upper bound on the
/// optimum of the enumerated space).
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Best objective value found.
    pub value: f64,
    /// The execution graph achieving it.
    pub graph: ExecutionGraph,
    /// `true` when every candidate of the space was examined.
    pub complete: bool,
}

/// The budgeted, parallel, branch-and-bound exhaustive forest search: the
/// reference semantics are those of the brute force
/// ([`crate::oracle::exhaustive_forest_best`], first minimum in enumeration
/// order), and an optional deadline interrupts the enumeration (flagged via
/// [`SearchOutcome::complete`]).
///
/// `eval` receives the current incumbent as a *cutoff*: it may return any
/// value above the cutoff (typically `∞`) for candidates it can prove cannot
/// beat it, and must return the exact value otherwise.  `prune` selects the
/// admissible partial-assignment bound (maintained incrementally by
/// [`PartialForestMetrics`]) used to discard whole subtrees; subtrees are
/// pruned only when their bound *strictly* clears the shared incumbent, so
/// the first-minimum winner always survives, whatever the thread count.
///
/// The walk is a fact of the instance, not an option:
///
/// * under [`Symmetry::Auto`] on a reducible instance (uniform weights, no
///   constraints — see [`CanonicalSpace`]), or under [`Symmetry::Classes`]
///   on a class-reducible one (several weight classes, some with two or
///   more members), the search streams the **canonical orbit
///   representatives** bound-first without materialising them
///   ([`crate::engine::frontier::streamed_canonical_search`]).  The cap is
///   measured against the shape count (1 842 shapes at `n = 10` versus
///   `10^10` parent functions), the optimum *value* is unchanged, and the
///   winner is the canonical tie-break representative.  Callers passing
///   `Auto` assert that `eval` is label-invariant on uniform weights,
///   callers passing `Classes` the stronger class-invariance — see the
///   bit-safety discussion on [`Symmetry`].  A classed space whose shape
///   count exceeds the cap falls back to the raw labelled space;
/// * every other space is walked **depth-first** over the labelled parent
///   functions: the first one or two enumeration levels (see
///   [`Exec::split_depth`]) are expanded into tasks, split over
///   `exec.effective_threads()` workers and reduced in enumeration order, so
///   the result is bit-identical to the serial run.
pub fn exhaustive_forest_search<F>(
    app: &Application,
    cap: usize,
    exec: Exec,
    prune: PartialPrune,
    symmetry: Symmetry,
    eval: &F,
) -> Option<SearchOutcome>
where
    F: Fn(&ExecutionGraph, f64) -> f64 + Sync,
{
    exhaustive_forest_search_probed(app, cap, exec, prune, symmetry, f64::INFINITY, eval, None)
}

/// [`exhaustive_forest_search`] with the shared incumbent **seeded** with a
/// known upper bound (the warm-start entry of the serving layer: the value
/// of a previous plan adapted to the mutated instance) and an optional
/// [`StreamProbe`] recording the walk's [`StreamStats`] — the telemetry
/// channel behind `SolveStats::stream`.
///
/// Seeding preserves bit-identity as long as `incumbent_seed` is an upper
/// bound on the searched space's optimum (any feasible candidate's value
/// is): both the subtree pruning and the bound-clearance certificate fire
/// only on a *strict* clearance of the incumbent, so every candidate tying
/// the optimum is still evaluated and the first-minimum winner is unchanged
/// — the search merely skips the hopeless region it would otherwise have
/// walked to re-discover the bound.  `f64::INFINITY` recovers the cold
/// search exactly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exhaustive_forest_search_probed<F>(
    app: &Application,
    cap: usize,
    exec: Exec,
    prune: PartialPrune,
    symmetry: Symmetry,
    incumbent_seed: f64,
    eval: &F,
    probe: Option<&StreamProbe>,
) -> Option<SearchOutcome>
where
    F: Fn(&ExecutionGraph, f64) -> f64 + Sync,
{
    let n = app.n();
    if n == 0 {
        return None;
    }
    let reducible = symmetry != Symmetry::Full && CanonicalSpace::reducible(app);
    let classed = symmetry == Symmetry::Classes && CanonicalSpace::class_reducible(app);
    if (reducible || classed) && CanonicalSpace::forest_class_count(n) <= cap as u128 {
        // The streamed walk never materialises the coloured space, so its
        // budget gate is the *shape* count (A000081, 32 973 at n = 13)
        // rather than the coloured class count — tiered spaces whose
        // coloured count dwarfs the cap stay exhaustively searchable.  On
        // uniform instances the single-class partition degenerates the
        // colouring walk to a linear pass with one colouring per shape.
        // Stage spans resolve once per solve, and only when the probe
        // carries a registry — the plain path pays nothing.
        let engine_obs = probe
            .and_then(|p| p.metrics())
            .map(|registry| EngineMetrics::new(registry));
        let (outcome, stats) = streamed_canonical_search_observed(
            app,
            &WeightClasses::of(app),
            exec,
            prune,
            DEFAULT_FRONTIER_CAP,
            incumbent_seed,
            eval,
            engine_obs.as_ref(),
        );
        if let Some(p) = probe {
            p.record(stats);
        }
        // `None` means the deadline expired before any candidate was
        // examined: degrade to the heuristic fallback, not the raw walk.
        return outcome;
    }
    if reducible {
        // The uniform canonical space is the smallest space this instance
        // has: beyond the cap there is nothing left to walk.  (A classed
        // space over the shape cap falls through: the raw space may fit.)
        return None;
    }
    let space = forest_space_size(n)?;
    if space > cap {
        return None;
    }
    // Raw labelled walks carry telemetry too (`shapes` stays 0 — no shape
    // plan exists on the labelled space — and `orbits` reports the labelled
    // space size itself, every orbit being trivial).
    let expanded = AtomicU64::new(0);
    let counted = |graph: &ExecutionGraph, incumbent: f64| {
        expanded.fetch_add(1, Ordering::Relaxed);
        eval(graph, incumbent)
    };
    let incumbent = Incumbent::seeded(incumbent_seed);
    let prefixes = forest_task_prefixes(n, exec.split_depth());
    let parts = par_chunks(exec.effective_threads(), &prefixes, |_base, chunk| {
        let mut best: Option<(f64, ExecutionGraph)> = None;
        let mut complete = true;
        let mut partial = PartialForestMetrics::new(app);
        for prefix in chunk {
            for &p in prefix {
                partial.push(p);
            }
            let ok = enumerate_parents_pruned(
                app,
                &mut partial,
                &mut best,
                &incumbent,
                prune,
                &counted,
                exec.deadline,
            );
            for _ in prefix {
                partial.pop();
            }
            if !ok {
                complete = false;
                break;
            }
        }
        (best, complete)
    });
    let complete = parts.iter().all(|(_, c)| *c);
    let best = fold_min(parts.into_iter().map(|(b, _)| b).collect());
    if let Some(p) = probe {
        p.record(StreamStats {
            shapes: 0,
            orbits: Some(space as u128),
            expanded: expanded.load(Ordering::Relaxed),
            peak_resident: exec.effective_threads(),
            certified_shapes: 0,
        });
    }
    best.map(|(value, graph)| SearchOutcome {
        value,
        graph,
        complete,
    })
}

/// Choices for service `k`'s parent, in the order the serial enumeration
/// tries them: entry node first, then every other service.
fn parent_choices(n: usize, k: usize) -> impl Iterator<Item = Option<ServiceId>> {
    std::iter::once(None).chain((0..n).filter(move |&p| p != k).map(Some))
}

/// The task prefixes of the forest enumeration: its first one or two levels
/// expanded in serial enumeration order (`n` or `n²` tasks), so per-chunk
/// winners fold back to the exact serial result.
fn forest_task_prefixes(n: usize, levels: usize) -> Vec<Vec<Option<ServiceId>>> {
    if levels >= 2 && n >= 2 {
        let mut prefixes = Vec::with_capacity(n * n);
        for c0 in parent_choices(n, 0) {
            for c1 in parent_choices(n, 1) {
                prefixes.push(vec![c0, c1]);
            }
        }
        prefixes
    } else {
        parent_choices(n, 0).map(|c| vec![c]).collect()
    }
}

/// Branch-and-bound enumeration of parent functions from the current prefix
/// of `partial`.  Returns `false` when the deadline interrupted this subtree.
fn enumerate_parents_pruned<F>(
    app: &Application,
    partial: &mut PartialForestMetrics<'_>,
    best: &mut Option<(f64, ExecutionGraph)>,
    incumbent: &Incumbent,
    prune: PartialPrune,
    eval: &F,
    deadline: Option<Instant>,
) -> bool
where
    F: Fn(&ExecutionGraph, f64) -> f64,
{
    if prune != PartialPrune::Off && partial.assigned() > 0 {
        let bound = match prune {
            PartialPrune::Off => unreachable!(),
            PartialPrune::Period(model) => partial.period_bound(model),
            PartialPrune::Latency => partial.latency_bound(),
        };
        // An infinite bound flags a cycle inside the prefix: no completion is
        // feasible.  Otherwise prune only on a strict clearance of the
        // incumbent, so optimum-tying subtrees are never discarded.
        if bound == f64::INFINITY || bound > prune_threshold(incumbent.get()) {
            return true;
        }
    }
    let n = app.n();
    let k = partial.assigned();
    if k >= n {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        let Ok(graph) = ExecutionGraph::from_parents(partial.parents()) else {
            return true; // the parent function contains a cycle
        };
        if graph.respects(app).is_err() {
            return true;
        }
        let value = eval(&graph, incumbent.get());
        if best.as_ref().is_none_or(|(b, _)| value < *b) {
            incumbent.offer(value);
            *best = Some((value, graph));
        }
        return true;
    }
    partial.push(None);
    let ok = enumerate_parents_pruned(app, partial, best, incumbent, prune, eval, deadline);
    partial.pop();
    if !ok {
        return false;
    }
    for p in 0..n {
        if p == k {
            continue;
        }
        partial.push(Some(p));
        let ok = enumerate_parents_pruned(app, partial, best, incumbent, prune, eval, deadline);
        partial.pop();
        if !ok {
            return false;
        }
    }
    true
}

/// Size of the parent-function space (`n^n`, saturating); `None` for `n == 0`.
pub(crate) fn forest_space_size(n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let mut size = 1usize;
    for _ in 0..n {
        size = size.saturating_mul(n);
    }
    Some(size)
}

/// Largest instance size the DAG enumeration supports: the forward-edge
/// subsets of a permutation are encoded as a `u64` mask, so `n(n-1)/2` must
/// stay below 64 (and the space is astronomically large well before that).
pub const DAG_ENUMERATION_HARD_MAX_N: usize = 11;

/// The budgeted, parallel, branch-and-bound exhaustive DAG search (reference
/// semantics: [`crate::oracle::exhaustive_dag_best`]): DAGs are generated as
/// (topological permutation, subset of forward edges), which enumerates
/// every DAG at least once; the first one or two permutation positions (see
/// [`Exec::split_depth`]) are expanded into tasks, split over
/// `exec.effective_threads()` workers and reduced in enumeration order,
/// so the result is bit-identical to the serial run; an optional deadline
/// interrupts the enumeration.  Instances larger than
/// [`DAG_ENUMERATION_HARD_MAX_N`] return `None` regardless of `max_n`.
///
/// `eval` receives the current incumbent as a *cutoff* (see
/// [`exhaustive_forest_search`]).  `incumbent_seed` pre-loads the shared
/// incumbent with an upper bound from an earlier phase (e.g. the forest
/// optimum): candidates that cannot strictly beat the seed may then be
/// valued `∞`, so when the outcome's value is not below the seed only the
/// seed phase's result is meaningful.  Pass `f64::INFINITY` for an
/// unseeded, self-contained search (its value is then always exact).
///
/// Under [`Symmetry::Auto`] (or [`Symmetry::Classes`], which the DAG space
/// treats identically — coloured DAG canonicalisation is not implemented,
/// and DAG joins are exactly where cross-class sums could tie-break
/// differently) on a reducible instance (uniform weights, no constraints)
/// only the DAGs whose edges are forward edges of the **identity
/// permutation** are enumerated: every DAG is isomorphic to one of those,
/// so with a label-invariant `eval` the optimum value is unchanged while
/// the `n!` topological-permutation factor disappears.  The
/// winner is the first optimum in ascending edge-mask order (the canonical
/// tie-break).  Caveat on exactness: joins of in-degree ≥ 3 accumulate
/// their `Cin` sum in label order, so across relabellings the value can
/// move by an ulp — the reduced optimum matches the full enumeration up to
/// that summation-order rounding (exactly, whenever the weights make the
/// sums exact, e.g. dyadic values or selectivity 1).
pub fn exhaustive_dag_search<F>(
    app: &Application,
    max_n: usize,
    exec: Exec,
    incumbent_seed: f64,
    symmetry: Symmetry,
    eval: &F,
) -> Option<SearchOutcome>
where
    F: Fn(&ExecutionGraph, f64) -> f64 + Sync,
{
    let n = app.n();
    if n == 0 || n > max_n.min(DAG_ENUMERATION_HARD_MAX_N) {
        return None;
    }
    let incumbent = Incumbent::seeded(incumbent_seed);
    if symmetry != Symmetry::Full && CanonicalSpace::reducible(app) {
        return canonical_dag_search(app, exec, &incumbent, eval);
    }
    // Task prefixes: positions swapped into the first one or two permutation
    // slots, in the order the serial recursion (`items.swap(level, i)`)
    // visits them.
    let prefixes: Vec<Vec<usize>> = if exec.split_depth() >= 2 && n >= 2 {
        (0..n)
            .flat_map(|i| (1..n).map(move |j| vec![i, j]))
            .collect()
    } else {
        (0..n).map(|i| vec![i]).collect()
    };
    let parts = par_chunks(exec.effective_threads(), &prefixes, |_base, chunk| {
        let mut best: Option<(f64, ExecutionGraph)> = None;
        let mut complete = true;
        // Per-worker duplicate filter over labelled edge sets: a DAG is
        // generated once per linear extension (≈4× over-visitation at
        // n = 5), and a repeat visit of a deterministic `eval` can never
        // displace a first-strict-minimum, so skipping repeats inside one
        // worker's enumeration-ordered chunk is bit-safe.
        let mut seen = std::collections::HashSet::new();
        for prefix in chunk {
            let mut order: Vec<ServiceId> = (0..n).collect();
            for (level, &pos) in prefix.iter().enumerate() {
                order.swap(level, pos);
            }
            let ok = permute_orders(&mut order, prefix.len(), &mut |perm| {
                visit_dags_of_permutation_pruned(
                    app,
                    perm,
                    &mut best,
                    &incumbent,
                    eval,
                    exec.deadline,
                    &mut seen,
                )
            });
            if !ok {
                complete = false;
                break;
            }
        }
        (best, complete)
    });
    let complete = parts.iter().all(|(_, c)| *c);
    let best = fold_min(parts.into_iter().map(|(b, _)| b).collect());
    best.map(|(value, graph)| SearchOutcome {
        value,
        graph,
        complete,
    })
}

/// The symmetry-reduced DAG search: enumerates the forward-edge masks of
/// the identity permutation only (ascending, chunked into contiguous ranges
/// per worker so the fold reproduces the serial first-minimum).
fn canonical_dag_search<F>(
    app: &Application,
    exec: Exec,
    incumbent: &Incumbent,
    eval: &F,
) -> Option<SearchOutcome>
where
    F: Fn(&ExecutionGraph, f64) -> f64 + Sync,
{
    let n = app.n();
    let m = n * (n - 1) / 2;
    debug_assert!(m < 64, "callers bound n by DAG_ENUMERATION_HARD_MAX_N");
    let total = 1u64 << m;
    let workers = (exec.effective_threads() as u64).clamp(1, total);
    let span = total.div_ceil(workers);
    let ranges: Vec<(u64, u64)> = (0..workers)
        .map(|w| (w * span, ((w + 1) * span).min(total)))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    let identity: Vec<ServiceId> = (0..n).collect();
    let parts = par_chunks(ranges.len(), &ranges, |_base, chunk| {
        let mut best: Option<(f64, ExecutionGraph)> = None;
        let mut complete = true;
        'ranges: for &(lo, hi) in chunk {
            for mask in lo..hi {
                if exec.deadline.is_some_and(|d| Instant::now() >= d) {
                    complete = false;
                    break 'ranges;
                }
                // Reducible instances have no precedence constraints, so
                // every forward-edge DAG is feasible.
                let graph = ExecutionGraph::from_permutation_mask(&identity, mask);
                let value = eval(&graph, incumbent.get());
                if best.as_ref().is_none_or(|(b, _)| value < *b) {
                    incumbent.offer(value);
                    best = Some((value, graph));
                }
            }
        }
        (best, complete)
    });
    let complete = parts.iter().all(|(_, c)| *c);
    let best = fold_min(parts.into_iter().map(|(b, _)| b).collect());
    best.map(|(value, graph)| SearchOutcome {
        value,
        graph,
        complete,
    })
}

/// Evaluates every DAG whose edges are forward edges of `perm`, threading the
/// shared incumbent into every evaluation.  Returns `false` when the deadline
/// interrupted the mask enumeration.
fn visit_dags_of_permutation_pruned<F>(
    app: &Application,
    perm: &[ServiceId],
    best: &mut Option<(f64, ExecutionGraph)>,
    incumbent: &Incumbent,
    eval: &F,
    deadline: Option<Instant>,
    seen: &mut std::collections::HashSet<u64>,
) -> bool
where
    F: Fn(&ExecutionGraph, f64) -> f64,
{
    let n = perm.len();
    let m = n * (n - 1) / 2;
    debug_assert!(m < 64, "callers bound n by DAG_ENUMERATION_HARD_MAX_N");
    for mask in 0u64..(1u64 << m) {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        // A labelled edge set reappears once per linear extension; key it
        // by directed label pairs (two bits per unordered pair) and skip
        // repeats before paying for graph construction and evaluation.
        let mut key = 0u64;
        let mut bit = 0u32;
        for a in 0..n {
            for c in (a + 1)..n {
                if mask & (1u64 << bit) != 0 {
                    let (u, v) = (perm[a], perm[c]);
                    let (lo, hi, dir) = if u < v { (u, v, 0) } else { (v, u, 1) };
                    // Unordered pair index in the a < c triangular order.
                    let pair = lo * (2 * n - lo - 1) / 2 + (hi - lo - 1);
                    key |= 1u64 << (2 * pair as u32 + dir);
                }
                bit += 1;
            }
        }
        if !seen.insert(key) {
            continue;
        }
        let graph = ExecutionGraph::from_permutation_mask(perm, mask);
        if graph.respects(app).is_err() {
            continue;
        }
        let value = eval(&graph, incumbent.get());
        if best.as_ref().is_none_or(|(b, _)| value < *b) {
            incumbent.offer(value);
            *best = Some((value, graph));
        }
    }
    true
}

/// Visits every permutation of `items[start..]`; `visit` returns `false` to
/// abort the whole enumeration (deadline), which is propagated to the caller.
pub(crate) fn permute_orders<F: FnMut(&[ServiceId]) -> bool>(
    items: &mut Vec<ServiceId>,
    start: usize,
    visit: &mut F,
) -> bool {
    if start >= items.len() {
        return visit(items);
    }
    for i in start..items.len() {
        items.swap(start, i);
        let ok = permute_orders(items, start + 1, visit);
        items.swap(start, i);
        if !ok {
            return false;
        }
    }
    true
}

/// Constructive seeds for the heuristic search.
fn seed_graphs(app: &Application, model: CommModel) -> Vec<ExecutionGraph> {
    let n = app.n();
    let mut seeds = Vec::new();
    if app.has_constraints() {
        // The minimal graph containing exactly the precedence constraints.
        if let Ok(g) = ExecutionGraph::from_edges(n, app.constraints()) {
            seeds.push(g);
        }
        return seeds;
    }
    // All services independent.
    seeds.push(ExecutionGraph::new(n));
    // The Proposition 8 chain.
    if let Ok(order) = chain_minperiod_order(app, model) {
        if let Ok(g) = chain_graph(n, &order) {
            seeds.push(g);
        }
    }
    // The no-communication optimal structure (filters chained, expanders attached).
    if let Ok(g) = crate::baseline::nocomm_minperiod_plan(app) {
        seeds.push(g);
    }
    seeds
}

/// Passes of the hill-climbing local search used beyond
/// [`SearchBudget::max_graphs`].
const LOCAL_SEARCH_PASSES: usize = 32;

/// Hill climbing over single-parent reassignments (`set parent of k to None
/// / to p`), keeping the application's precedence constraints satisfied:
/// starts from the first best of `seeds`, accepts a move only when it
/// improves the value by more than `1e-12`, and stops after a pass without
/// improvement or after [`LOCAL_SEARCH_PASSES`] passes.  The local search of
/// both plan searches.
pub(crate) fn hill_climb<F>(
    app: &Application,
    seeds: Vec<ExecutionGraph>,
    eval: F,
) -> (f64, ExecutionGraph)
where
    F: Fn(&ExecutionGraph) -> f64,
{
    let mut best_graph = ExecutionGraph::new(app.n());
    let mut best_value = f64::INFINITY;
    for seed in seeds {
        let value = eval(&seed);
        if value < best_value {
            best_value = value;
            best_graph = seed;
        }
    }
    let n = app.n();
    for _pass in 0..LOCAL_SEARCH_PASSES {
        let mut improved = false;
        for k in 0..n {
            // Candidate moves: make k an entry node, or give it any other parent.
            let current_preds: Vec<ServiceId> = best_graph.preds(k).to_vec();
            for cand in parent_choices(n, k) {
                let mut graph = best_graph.clone();
                for &p in &current_preds {
                    graph.remove_edge(p, k);
                }
                if let Some(p) = cand {
                    if graph.add_edge(p, k).is_err() {
                        continue;
                    }
                }
                if graph.respects(app).is_err() {
                    continue;
                }
                let value = eval(&graph);
                if value + 1e-12 < best_value {
                    best_value = value;
                    best_graph = graph;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    (best_value, best_graph)
}

/// Heuristic MINPERIOD: best constructive seed followed by hill climbing
/// over single-parent reassignments, every candidate valued by
/// [`evaluate_period`].
pub fn minperiod_local_search(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
) -> CoreResult<MinPeriodResult> {
    let (period, graph) = hill_climb(app, seed_graphs(app, model), |g| {
        evaluate_period(app, g, model, budget).unwrap_or(f64::INFINITY)
    });
    Ok(MinPeriodResult {
        period,
        graph,
        exhaustive: false,
    })
}

/// The MINPERIOD plan search under `budget`: exhaustive forest enumeration
/// when the instance is small enough (optimal for the budget's
/// [`SearchBudget::period_evaluation`], by Proposition 4), falling back to
/// the local-search heuristic otherwise.  The exhaustive phases fan out over
/// [`SearchBudget::threads`] workers (bit-identical to the serial run) and
/// honour [`SearchBudget::time_limit`], returning the best graph found so
/// far with `exhaustive == false` when it interrupts the enumeration.
///
/// This is the plan search alone: [`crate::orchestrator::solve`] also
/// schedules the winner, and its `exhaustive` flag combines both.
pub fn minimize_period(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
) -> CoreResult<MinPeriodResult> {
    minimize_period_engine_seeded(
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

/// Bounded (branch-and-bound aware) candidate evaluation: like
/// [`evaluate_period`], but may return `∞` for candidates whose structural
/// lower bound already clears `cutoff`, and memoises the expensive ordering
/// searches in `cache`.
fn evaluate_period_bounded(
    app: &Application,
    graph: &ExecutionGraph,
    model: CommModel,
    budget: &SearchBudget,
    cache: &EvalCache,
    cutoff: f64,
    deadline: Option<Instant>,
) -> f64 {
    let Ok(metrics) = PlanMetrics::compute(app, graph) else {
        return f64::INFINITY;
    };
    let lower = metrics.period_lower_bound(model);
    if budget.period_evaluation == PeriodEvaluation::LowerBound || model == CommModel::Overlap {
        // Theorem 1: for OVERLAP the lower bound is achieved.
        return lower;
    }
    // Every orchestrated period dominates the structural bound, so a bound
    // above the cutoff proves the candidate cannot improve the incumbent.
    if lower > prune_threshold(cutoff) {
        return f64::INFINITY;
    }
    // With a deadline, inner searches may return deadline-truncated values:
    // honour the time limit inside the candidate evaluation, but never
    // memoise a value that depends on the wall clock.
    let inner_exec = Exec {
        threads: 1,
        deadline,
    };
    match model {
        CommModel::Overlap => unreachable!("handled above"),
        CommModel::InOrder => {
            let search = |c: f64| match oneport_period_search_prepared(
                app,
                graph,
                &metrics,
                OnePortStyle::InOrder,
                budget.max_orderings,
                inner_exec,
                c,
            ) {
                Ok(Some(result)) => result.period,
                Ok(None) | Err(_) => f64::INFINITY,
            };
            if deadline.is_some() {
                return search(cutoff);
            }
            let exhaustive = CommOrderings::search_space_size(graph) <= budget.max_orderings;
            cache.get_or_compute(tags::INORDER_PERIOD, graph, exhaustive, cutoff, search)
        }
        CommModel::OutOrder => {
            // The OUTORDER backtracker is label-dependent (its trajectory
            // follows node ids), so its raw value is shared between
            // identical labelled graphs only.  On instances with weight
            // symmetry the evaluation therefore **canonicalises the graph
            // first** (`fsw_core::canonical_classed_member`: the
            // deterministic member of the candidate's class-preserving
            // orbit) and evaluates that member instead: the value becomes a
            // pure function of the orbit — a faithful feasible period for
            // every member, since class-preserving isomorphisms map
            // schedules to schedules — and the memo collapses to one
            // backtracking search per canonical shape + class signature,
            // which is what lets repeated orbit evaluations across a
            // `solve_all` sweep hit the cache.  The search stays
            // incumbent-aware: the shared incumbent is threaded in as a
            // cutoff that skips candidates whose lower bound clears it and
            // stops the bisection once every remaining probe provably sits
            // above it.
            //
            // The partition comes from the cache (computed once per solve),
            // not per candidate — this branch runs for every enumerated
            // graph.  Reduced-path candidates are already their own
            // canonical member, so for them the canonicalisation merely
            // re-derives the input; that O(n² log n) is noise next to the
            // backtracking search each evaluation runs, and paying it
            // unconditionally keeps the memo key correct on the raw
            // (cap-overflow) path too.
            let classes = cache.weight_classes();
            let canonical =
                if deadline.is_none() && CanonicalSpace::class_reducible_with(app, classes) {
                    canonical_classed_member(classes, graph).ok()
                } else {
                    None
                };
            let eval_graph = canonical.as_ref().unwrap_or(graph);
            let search = |c: f64| match outorder_period_search_bounded(
                app, eval_graph, budget, inner_exec, c,
            ) {
                Ok(Some(result)) => result.period,
                Ok(None) | Err(_) => f64::INFINITY,
            };
            if deadline.is_some() {
                return search(cutoff);
            }
            cache.get_or_compute(tags::OUTORDER_PERIOD, eval_graph, false, cutoff, search)
        }
    }
}

/// The body of [`minimize_period`], with a caller-provided evaluation cache
/// (so a batch sweep — [`crate::orchestrator::solve_all`] — can share one
/// memo), the execution strategy resolved once per solve, a warm-start
/// incumbent seed and an evaluation counter: `incumbent_seed` pre-loads every
/// exhaustive phase's incumbent (pass the value of a previous plan adapted to
/// the instance; `∞` for a cold solve — winners are bit-identical either
/// way, see [`exhaustive_forest_search_probed`]), and `evals` is incremented
/// once per full candidate evaluation, so callers can measure how much of
/// the space a warm start skipped.
#[allow(clippy::too_many_arguments)]
pub(crate) fn minimize_period_engine_seeded(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
    exec: Exec,
    cache: &EvalCache,
    incumbent_seed: f64,
    evals: &AtomicUsize,
    probe: Option<&StreamProbe>,
) -> CoreResult<MinPeriodResult> {
    let eval = |g: &ExecutionGraph, cutoff: f64| -> f64 {
        evals.fetch_add(1, Ordering::Relaxed);
        evaluate_period_bounded(app, g, model, budget, cache, cutoff, exec.deadline)
    };
    if !app.has_constraints() {
        // Both evaluations dominate the model's structural period bound, so
        // the incremental period bound is an admissible subtree pruner.
        let prune = PartialPrune::Period(model);
        // Symmetry reduction is engaged only when the candidate evaluation
        // is provably invariant under the matching relabelling group (the
        // bit-safety gate on `Symmetry`): the structural bounds are
        // class-invariant since the metrics rework (path-order input
        // factors, no cross-class sums on forests), and so is the OUTORDER
        // orchestrated evaluation — it canonicalises the candidate graph
        // before backtracking, making its value a pure function of the
        // orbit.  The INORDER ordering search's schedule accumulation
        // follows node ids, so it engages the uniform-only reduction when
        // every forest's ordering search stays exhaustive and falls back to
        // the value-exact full enumeration on multi-class instances.
        let symmetry = match (budget.period_evaluation, model) {
            (PeriodEvaluation::Orchestrated, CommModel::InOrder) => {
                if CanonicalSpace::max_forest_ordering_space(app.n()) <= budget.max_orderings {
                    Symmetry::Auto
                } else {
                    Symmetry::Full
                }
            }
            _ => Symmetry::Classes,
        };
        if let Some(out) = exhaustive_forest_search_probed(
            app,
            budget.max_graphs,
            exec,
            prune,
            symmetry,
            incumbent_seed,
            &eval,
            probe,
        ) {
            return Ok(MinPeriodResult {
                period: out.value,
                graph: out.graph,
                exhaustive: out.complete,
            });
        }
    } else {
        // With precedence constraints the optimal plan need not be a forest;
        // use the DAG enumeration for tiny instances.  (Constraints break
        // reducibility, so the symmetry flag is moot here.)
        if app.n() <= 5 {
            if let Some(out) =
                exhaustive_dag_search(app, 5, exec, incumbent_seed, Symmetry::Full, &eval)
            {
                return Ok(MinPeriodResult {
                    period: out.value,
                    graph: out.graph,
                    exhaustive: out.complete,
                });
            }
        }
    }
    minperiod_local_search(app, model, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{exhaustive_dag_best, exhaustive_forest_best};

    #[test]
    fn single_filter_chain_beats_independence() {
        // One strong filter in front of an expensive service: the optimal plan
        // chains them (OVERLAP model).
        let app = Application::independent(&[(1.0, 0.1), (10.0, 1.0)]);
        let result = minimize_period(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        assert!(result.exhaustive);
        assert!(result.graph.has_edge(0, 1));
        assert!((result.period - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expensive_communication_prevents_chaining() {
        // A filter whose selectivity is close to 1 brings almost nothing, but
        // its outgoing communication would become the bottleneck if it fed
        // many successors (miniature counter-example B.1, OVERLAP model).
        // Parameters are tuned so that the only period-2 plans split the four
        // expensive services evenly between the two filters.
        let mut specs = vec![(2.0, 0.9), (2.0, 0.9)];
        for _ in 0..4 {
            specs.push((2.0 / 0.9, 2.2));
        }
        let app = Application::independent(&specs);
        let result = minimize_period(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        assert!(result.exhaustive);
        assert!((result.period - 2.0).abs() < 1e-9);
        // The two filters must not be chained one behind the other: each keeps
        // exactly half of the expensive services.
        assert!(!result.graph.has_edge(0, 1) && !result.graph.has_edge(1, 0));
        let out0 = result.graph.succs(0).len();
        let out1 = result.graph.succs(1).len();
        assert_eq!(out0 + out1, 4);
        assert!(out0 >= 2 && out1 >= 2);
    }

    #[test]
    fn forest_optimum_matches_dag_optimum_without_constraints() {
        // Proposition 4: forests suffice for MINPERIOD without constraints.
        let apps = [
            Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8)]),
            Application::independent(&[(1.0, 1.0), (2.0, 0.4), (1.5, 1.6), (0.5, 0.9)]),
        ];
        for app in apps {
            for model in CommModel::ALL {
                let eval = |g: &ExecutionGraph| {
                    evaluate_period(&app, g, model, &SearchBudget::default())
                        .unwrap_or(f64::INFINITY)
                };
                let forest = exhaustive_forest_best(&app, eval).unwrap();
                let dag = exhaustive_dag_best(&app, 5, eval).unwrap();
                assert!(
                    forest.0 <= dag.0 + 1e-9,
                    "{model}: forest {} vs dag {}",
                    forest.0,
                    dag.0
                );
            }
        }
    }

    #[test]
    fn local_search_matches_exhaustive_on_small_instances() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.0, 0.6)]);
        let budget = SearchBudget::default();
        let exhaustive = minimize_period(&app, CommModel::Overlap, &budget).unwrap();
        assert!(exhaustive.exhaustive);
        let local = minperiod_local_search(&app, CommModel::Overlap, &budget).unwrap();
        assert!(local.period <= exhaustive.period * 1.2 + 1e-9);
        assert!(local.period >= exhaustive.period - 1e-9);
    }

    #[test]
    fn constraints_are_respected() {
        let mut app = Application::independent(&[(1.0, 0.5), (2.0, 0.5), (3.0, 1.0)]);
        app.add_constraint(2, 0).unwrap();
        let result = minimize_period(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        result.graph.respects(&app).unwrap();
        // Service 0 must be (transitively) after service 2.
        assert!(result.graph.ancestors(0).contains(&2));
    }

    #[test]
    fn canonical_forest_search_matches_brute_force_on_uniform_weights() {
        // Uniform weights: the symmetry-reduced enumeration must return the
        // same optimum value as the raw n^n space, for filters and expanders.
        for specs in [(2.0, 0.5), (1.0, 1.5), (4.0, 1.0)] {
            for n in [3usize, 5] {
                let app = Application::independent(&vec![specs; n]);
                assert!(CanonicalSpace::reducible(&app));
                for model in CommModel::ALL {
                    let eval = |g: &ExecutionGraph| {
                        PlanMetrics::compute(&app, g)
                            .map(|m| m.period_lower_bound(model))
                            .unwrap_or(f64::INFINITY)
                    };
                    let brute = exhaustive_forest_best(&app, eval).unwrap();
                    let reduced = exhaustive_forest_search(
                        &app,
                        2_000_000,
                        Exec::serial(),
                        PartialPrune::Period(model),
                        Symmetry::Auto,
                        &|g, _| eval(g),
                    )
                    .unwrap();
                    assert_eq!(brute.0, reduced.value, "{specs:?} n={n} {model}");
                    assert!(reduced.complete);
                    // The canonical winner evaluates to the optimum too.
                    assert_eq!(eval(&reduced.graph), reduced.value);
                }
            }
        }
    }

    #[test]
    fn canonical_dag_search_matches_brute_force_on_uniform_weights() {
        let app = Application::independent(&[(4.0, 1.0); 4]);
        for model in CommModel::ALL {
            let eval = |g: &ExecutionGraph| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            };
            let brute = exhaustive_dag_best(&app, 4, eval).unwrap();
            let reduced = exhaustive_dag_search(
                &app,
                4,
                Exec::serial(),
                f64::INFINITY,
                Symmetry::Auto,
                &|g, _| eval(g),
            )
            .unwrap();
            assert_eq!(brute.0, reduced.value, "{model}");
            assert_eq!(eval(&reduced.graph), reduced.value);
        }
    }

    #[test]
    fn uniform_minperiod_clears_n10_within_the_default_budget() {
        // n^n = 10^10 parent functions dwarf the 2M cap, but the canonical
        // space holds 1 842 classes: the default budget is now exhaustive.
        let app = Application::independent(&[(3.0, 0.9); 10]);
        let result = minimize_period(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        assert!(result.exhaustive, "canonical space fits the default cap");
        // Sanity: never worse than the all-independent plan.
        let independent = evaluate_period(
            &app,
            &ExecutionGraph::new(10),
            CommModel::Overlap,
            &SearchBudget::default(),
        )
        .unwrap();
        assert!(result.period <= independent + 1e-9);
    }

    #[test]
    fn two_level_split_is_bit_identical_to_serial() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.0, 0.6)]);
        let eval = |g: &ExecutionGraph, _c: f64| {
            PlanMetrics::compute(&app, g)
                .map(|m| m.period_lower_bound(CommModel::InOrder))
                .unwrap_or(f64::INFINITY)
        };
        let serial = exhaustive_forest_search(
            &app,
            2_000_000,
            Exec::serial(),
            PartialPrune::Period(CommModel::InOrder),
            Symmetry::Full,
            &eval,
        )
        .unwrap();
        for threads in [2, 5] {
            let par = exhaustive_forest_search(
                &app,
                2_000_000,
                Exec::threaded(threads),
                PartialPrune::Period(CommModel::InOrder),
                Symmetry::Full,
                &eval,
            )
            .unwrap();
            assert_eq!(serial.value, par.value, "x{threads}");
            assert_eq!(
                serial.graph.edges().collect::<Vec<_>>(),
                par.graph.edges().collect::<Vec<_>>(),
                "x{threads}: winner"
            );
        }
    }

    #[test]
    fn orchestrated_evaluation_is_at_least_the_lower_bound() {
        let app = Application::independent(&[(1.0, 1.0); 4]);
        let g = ExecutionGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let orchestrated = SearchBudget {
            max_orderings: 1000,
            ..SearchBudget::default()
        }
        .with_period_evaluation(PeriodEvaluation::Orchestrated);
        for model in CommModel::ALL {
            let lb = evaluate_period(&app, &g, model, &SearchBudget::default()).unwrap();
            let orch = evaluate_period(&app, &g, model, &orchestrated).unwrap();
            assert!(orch >= lb - 1e-9, "{model}: {orch} < {lb}");
        }
    }
}
