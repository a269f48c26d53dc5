//! Brute-force reference searches — for tests and experiments only.
//!
//! Every function here walks its candidate space in full: no pruning, no
//! shared incumbent, no threads, no deadline.  Each keeps the **first strict
//! minimum** in its enumeration order, which is the winner the pruned,
//! symmetry-reduced and parallel searches promise to reproduce:
//!
//! * [`exhaustive_forest_best`] — every parent function (`n^n`), the
//!   reference of the labelled forest walk of
//!   [`crate::minperiod::exhaustive_forest_search`];
//! * [`exhaustive_dag_best`] — every DAG as (topological permutation, subset
//!   of forward edges), the reference of
//!   [`crate::minperiod::exhaustive_dag_search`];
//! * [`classed_scan`] over the materialised canonical representatives
//!   ([`classed_representatives`], [`forest_representatives`]) — the
//!   reference of the streamed bound-ordered walk
//!   ([`crate::engine::frontier::streamed_canonical_search`]) on uniform and
//!   class-reducible spaces.
//!
//! No solver calls into this module; the equivalence suites under `tests/`
//! and the experiment tables do.

use fsw_core::{Application, CanonicalForests, ExecutionGraph, ServiceId, WeightClasses};

use crate::engine::CanonicalRep;
use crate::minperiod::{forest_space_size, permute_orders, DAG_ENUMERATION_HARD_MAX_N};

/// Largest parent-function space [`exhaustive_forest_best`] enumerates.
const FOREST_SPACE_CAP: usize = 2_000_000;

/// Enumerates every forest execution graph (as a parent function) compatible
/// with the application's precedence constraints and returns the first one
/// minimising `eval`.  Returns `None` when the space holds more than two
/// million parent functions or when no feasible forest exists.
pub fn exhaustive_forest_best<F: FnMut(&ExecutionGraph) -> f64>(
    app: &Application,
    mut eval: F,
) -> Option<(f64, ExecutionGraph)> {
    if forest_space_size(app.n())? > FOREST_SPACE_CAP {
        return None;
    }
    let mut parents: Vec<Option<ServiceId>> = vec![None; app.n()];
    let mut best: Option<(f64, ExecutionGraph)> = None;
    enumerate_parents(app, &mut parents, 0, &mut best, &mut eval);
    best
}

/// Recursive enumeration of parent functions from level `k`: entry node
/// first, then every other service in ascending order.
fn enumerate_parents<F: FnMut(&ExecutionGraph) -> f64>(
    app: &Application,
    parents: &mut [Option<ServiceId>],
    k: usize,
    best: &mut Option<(f64, ExecutionGraph)>,
    eval: &mut F,
) {
    let n = app.n();
    if k >= n {
        let Ok(graph) = ExecutionGraph::from_parents(parents) else {
            return; // the parent function contains a cycle
        };
        if graph.respects(app).is_ok() {
            offer(best, eval(&graph), graph);
        }
        return;
    }
    parents[k] = None;
    enumerate_parents(app, parents, k + 1, best, eval);
    for p in (0..n).filter(|&p| p != k) {
        parents[k] = Some(p);
        enumerate_parents(app, parents, k + 1, best, eval);
    }
    parents[k] = None;
}

/// Enumerates every DAG execution graph on at most `max_n` services (tiny
/// instances only) and returns the first one minimising `eval`.
///
/// DAGs are generated as (topological permutation, subset of forward edges),
/// which enumerates every DAG at least once.  Instances larger than
/// [`DAG_ENUMERATION_HARD_MAX_N`] return `None` regardless of `max_n` (the
/// edge-subset mask would overflow its 64-bit encoding).
pub fn exhaustive_dag_best<F: FnMut(&ExecutionGraph) -> f64>(
    app: &Application,
    max_n: usize,
    mut eval: F,
) -> Option<(f64, ExecutionGraph)> {
    let n = app.n();
    if n == 0 || n > max_n.min(DAG_ENUMERATION_HARD_MAX_N) {
        return None;
    }
    let mut order: Vec<ServiceId> = (0..n).collect();
    let mut best: Option<(f64, ExecutionGraph)> = None;
    permute_orders(&mut order, 0, &mut |perm| {
        visit_dags_of_permutation(app, perm, &mut best, &mut eval);
        true
    });
    best
}

/// Evaluates every DAG whose edges are forward edges of `perm`.
fn visit_dags_of_permutation<F: FnMut(&ExecutionGraph) -> f64>(
    app: &Application,
    perm: &[ServiceId],
    best: &mut Option<(f64, ExecutionGraph)>,
    eval: &mut F,
) {
    let n = perm.len();
    let pairs: Vec<(ServiceId, ServiceId)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .collect();
    let m = pairs.len();
    debug_assert!(m < 64, "callers bound n by DAG_ENUMERATION_HARD_MAX_N");
    for mask in 0u64..(1u64 << m) {
        let mut graph = ExecutionGraph::new(n);
        for (bit, &(a, b)) in pairs.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                graph
                    .add_edge(perm[a], perm[b])
                    .expect("forward edges of a permutation are acyclic");
            }
        }
        if graph.respects(app).is_ok() {
            offer(best, eval(&graph), graph);
        }
    }
}

/// Materialises the canonical forest representatives on `n` nodes, in
/// canonical enumeration order, each with its orbit size, with identity
/// weights.
pub fn forest_representatives(n: usize) -> Vec<CanonicalRep> {
    let identity: Vec<ServiceId> = (0..n).collect();
    let mut stream = CanonicalForests::new(n);
    let mut reps = Vec::new();
    while let Some(class) = stream.next() {
        reps.push(CanonicalRep::new(class.parents, &identity, class.orbit));
    }
    reps
}

/// Materialises one representative per **class-preserving** relabelling
/// orbit (coloured-forest class) of `app`'s forest space, in canonical
/// enumeration order, with each position pinned to a concrete service of its
/// weight class.  Returns `None` once the coloured class space exceeds `cap`.
pub fn classed_representatives(app: &Application, cap: usize) -> Option<Vec<CanonicalRep>> {
    let classes = WeightClasses::of(app);
    let reps = fsw_core::classed_forest_representatives(&classes, cap)?;
    Some(
        reps.into_iter()
            .map(|rep| {
                let weights = classes
                    .service_assignment(&rep.classes)
                    .expect("generator colourings match the partition");
                CanonicalRep::new(&rep.parents, &weights, rep.orbit)
            })
            .collect(),
    )
}

/// Evaluates every representative of [`classed_representatives`] in
/// canonical order and returns the first minimum — the winner the streamed
/// walk must reproduce bit-for-bit on a class-reducible (or uniform)
/// instance.  Returns `None` when the coloured space exceeds `cap`.
pub fn classed_scan<F: FnMut(&ExecutionGraph) -> f64>(
    app: &Application,
    cap: usize,
    mut eval: F,
) -> Option<(f64, ExecutionGraph)> {
    let mut best: Option<(f64, ExecutionGraph)> = None;
    for rep in classed_representatives(app, cap)? {
        let graph = rep.graph();
        offer(&mut best, eval(&graph), graph);
    }
    best
}

/// Keeps `(value, graph)` when it strictly improves on `best`.
fn offer(best: &mut Option<(f64, ExecutionGraph)>, value: f64, graph: ExecutionGraph) {
    if best.as_ref().is_none_or(|(b, _)| value < *b) {
        *best = Some((value, graph));
    }
}
