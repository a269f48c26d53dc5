//! Latency orchestration.
//!
//! The latency (response time) of a plan is the completion time of a single
//! data set.  For the one-port models the distinction between `INORDER` and
//! `OUTORDER` disappears (only one data set is in flight), but the *order* in
//! which every server performs its receptions and its emissions still matters
//! and choosing it optimally is NP-hard (Theorem 3).  For the multi-port
//! model, bandwidth sharing can strictly beat any one-port schedule
//! (counter-example B.2 of the paper).
//!
//! This module provides:
//!
//! * [`oneport_latency_for_orderings`] — the exact makespan of a fixed
//!   ordering (a longest-path computation over the operation DAG, with
//!   deadlock detection for inconsistent rendezvous orders);
//! * [`oneport_latency_search`] — exhaustive search over orderings when the
//!   space is small, hill climbing otherwise;
//! * [`multiport_proportional_latency`] — a constructive bounded multi-port
//!   schedule in which every transfer of server `k` reserves a
//!   `volume / max(Cout(k), Cin(recv))` bandwidth share, so all transfers of a
//!   port may proceed concurrently (this reproduces the strict multi-port
//!   advantage of counter-example B.2);
//! * [`multiport_latency`] — the better of the two (any one-port schedule is
//!   also a valid multi-port schedule);
//! * [`latency_lower_bound`] — the critical-path lower bound valid for every model.

use std::collections::BTreeMap;

use fsw_core::{
    in_edges, out_edges, plan_edges, Application, CoreError, CoreResult, EdgeRef, ExecutionGraph,
    Interval, OperationList, PlanMetrics,
};

use crate::engine::prune_threshold;
use crate::orderings::{CommOrderings, OrderingSpace};
use crate::par::{fold_min, par_chunks, Exec};

/// Critical-path lower bound on the latency, valid for every communication model.
///
/// The weight of a path is the sum of the communication volumes and
/// computation costs along it, starting with the input transfer and ending
/// with the output transfer of an exit node.
pub fn latency_lower_bound(app: &Application, graph: &ExecutionGraph) -> CoreResult<f64> {
    let metrics = PlanMetrics::compute(app, graph)?;
    latency_lower_bound_with(app, graph, &metrics)
}

/// [`latency_lower_bound`] with pre-computed plan metrics.
pub(crate) fn latency_lower_bound_with(
    app: &Application,
    graph: &ExecutionGraph,
    metrics: &PlanMetrics,
) -> CoreResult<f64> {
    let order = graph.topological_order()?;
    let mut done = vec![0.0f64; graph.n()];
    let mut best = 0.0f64;
    for &k in &order {
        let mut ready = 0.0f64;
        for e in in_edges(graph, k) {
            let volume = metrics.edge_volume(app, e);
            let from = match e {
                EdgeRef::Input(_) => 0.0,
                EdgeRef::Link(i, _) => done[i],
                EdgeRef::Output(_) => unreachable!("output edges are never incoming"),
            };
            ready = ready.max(from + volume);
        }
        done[k] = ready + metrics.c_comp(k);
        if graph.succs(k).is_empty() {
            best = best.max(done[k] + metrics.edge_volume(app, EdgeRef::Output(k)));
        }
    }
    Ok(best)
}

/// An operation of the single-data-set schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum LatOp {
    Comm(EdgeRef),
    Calc(usize),
}

/// Pre-computed state for evaluating many communication orderings of one
/// `(application, graph)` pair.
///
/// The operation set, its durations and the plan metrics do not depend on
/// the ordering — only the per-server sequence arcs do — so an exhaustive
/// ordering search builds this once and pays only the longest-path run per
/// candidate, instead of recomputing `PlanMetrics` (ancestor sets and all)
/// for every one of thousands of orderings.
pub struct LatencyEvaluator<'a> {
    graph: &'a ExecutionGraph,
    ops: Vec<LatOp>,
    index: BTreeMap<LatOp, usize>,
    durations: Vec<f64>,
    lower_bound: f64,
}

impl<'a> LatencyEvaluator<'a> {
    /// Precomputes the operation DAG skeleton for `graph`.
    pub fn new(app: &Application, graph: &'a ExecutionGraph) -> CoreResult<Self> {
        let metrics = PlanMetrics::compute(app, graph)?;
        Self::with_metrics(app, graph, &metrics)
    }

    /// [`LatencyEvaluator::new`] with caller-provided plan metrics, so a
    /// caller that already computed them does not pay for them twice.
    pub fn with_metrics(
        app: &Application,
        graph: &'a ExecutionGraph,
        metrics: &PlanMetrics,
    ) -> CoreResult<Self> {
        let lower_bound = latency_lower_bound_with(app, graph, metrics)?;
        // Operation set:
        //  * per server: receptions, the computation, emissions;
        //  * rendezvous: a transfer is a single operation shared by both
        //    sequences — data flow is implied by the per-server sequences.
        let mut ops: Vec<LatOp> = Vec::new();
        let mut index: BTreeMap<LatOp, usize> = BTreeMap::new();
        let mut add = |op: LatOp| {
            index.entry(op).or_insert_with(|| {
                ops.push(op);
                ops.len() - 1
            });
        };
        for edge in plan_edges(graph) {
            add(LatOp::Comm(edge));
        }
        for k in 0..graph.n() {
            add(LatOp::Calc(k));
        }
        let durations: Vec<f64> = ops
            .iter()
            .map(|op| match op {
                LatOp::Comm(e) => metrics.edge_volume(app, *e),
                LatOp::Calc(k) => metrics.c_comp(*k),
            })
            .collect();
        Ok(LatencyEvaluator {
            graph,
            ops,
            index,
            durations,
            lower_bound,
        })
    }

    /// The critical-path latency lower bound of the underlying graph
    /// ([`latency_lower_bound`], computed once at construction).
    pub fn lower_bound(&self) -> f64 {
        self.lower_bound
    }

    /// Longest path over the operation DAG induced by `ords` (Kahn), with
    /// cycle (deadlock) detection.
    ///
    /// Returns `Ok(None)` when some operation provably ends after `cutoff` —
    /// every operation end bounds the makespan from below, so the true
    /// latency then exceeds `cutoff` and the caller can abandon the
    /// candidate early.  With `cutoff = ∞` the result is always exact.
    fn run(
        &self,
        ords: &CommOrderings,
        cutoff: f64,
        starts_out: Option<&mut Vec<f64>>,
    ) -> CoreResult<Option<f64>> {
        let m = self.ops.len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut indeg: Vec<usize> = vec![0; m];
        for k in 0..self.graph.n() {
            let mut seq: Vec<usize> =
                Vec::with_capacity(ords.incoming[k].len() + 1 + ords.outgoing[k].len());
            for e in &ords.incoming[k] {
                seq.push(self.index[&LatOp::Comm(*e)]);
            }
            seq.push(self.index[&LatOp::Calc(k)]);
            for e in &ords.outgoing[k] {
                seq.push(self.index[&LatOp::Comm(*e)]);
            }
            for w in seq.windows(2) {
                succs[w[0]].push(w[1]);
                indeg[w[1]] += 1;
            }
        }
        let mut start = vec![0.0f64; m];
        let mut stack: Vec<usize> = (0..m).filter(|&i| indeg[i] == 0).collect();
        let mut visited = 0usize;
        let mut makespan = 0.0f64;
        while let Some(i) = stack.pop() {
            visited += 1;
            let end = start[i] + self.durations[i];
            if end > cutoff {
                return Ok(None);
            }
            makespan = makespan.max(end);
            for &j in &succs[i] {
                if end > start[j] {
                    start[j] = end;
                }
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    stack.push(j);
                }
            }
        }
        if visited != m {
            return Err(CoreError::CyclicGraph);
        }
        if let Some(out) = starts_out {
            *out = start;
        }
        Ok(Some(makespan))
    }

    /// Latency of a fixed ordering, abandoning early (`Ok(None)`) once it
    /// provably exceeds `cutoff`; `Err(CyclicGraph)` on deadlock.
    pub fn value(&self, ords: &CommOrderings, cutoff: f64) -> CoreResult<Option<f64>> {
        self.run(ords, cutoff, None)
    }

    /// Latency *and* concrete operation list of a fixed ordering.
    pub fn schedule(&self, ords: &CommOrderings) -> CoreResult<(f64, OperationList)> {
        let mut start = Vec::new();
        let makespan = self
            .run(ords, f64::INFINITY, Some(&mut start))?
            .expect("an infinite cutoff never abandons");
        // Assemble the operation list; its period is set to the makespan so
        // the schedule trivially has no cross-data-set conflict (the "fully
        // serialise each data set" strategy of Section 2.2 for the latency).
        let lambda = if makespan > 0.0 { makespan } else { 1.0 };
        let mut oplist = OperationList::new(self.graph.n(), lambda);
        for (i, op) in self.ops.iter().enumerate() {
            let iv = Interval::with_duration(start[i], self.durations[i]);
            match op {
                LatOp::Comm(e) => oplist.set_comm(*e, iv),
                LatOp::Calc(k) => oplist.set_calc(*k, iv),
            }
        }
        Ok((oplist.latency(), oplist))
    }
}

/// Latency (and operation list) achieved by a fixed communication ordering
/// under one-port communications.
///
/// Returns `Err(CoreError::CyclicGraph)` when the orderings dead-lock (the
/// rendezvous orders of two servers are mutually inconsistent).
pub fn oneport_latency_for_orderings(
    app: &Application,
    graph: &ExecutionGraph,
    ords: &CommOrderings,
) -> CoreResult<(f64, OperationList)> {
    if !ords.is_consistent_with(graph) {
        return Err(CoreError::SizeMismatch {
            expected: graph.n(),
            found: ords.n(),
        });
    }
    LatencyEvaluator::new(app, graph)?.schedule(ords)
}

/// Result of a latency ordering search.
#[derive(Clone, Debug)]
pub struct LatencySearchResult {
    /// Best latency found.
    pub latency: f64,
    /// Operation list achieving it.
    pub oplist: OperationList,
    /// Ordering achieving it.
    pub orderings: CommOrderings,
    /// `true` when the whole ordering space was enumerated.
    pub exhaustive: bool,
}

/// Searches the communication orderings minimising the one-port latency.
///
/// Exhaustive when the ordering space does not exceed `exhaustive_limit`;
/// otherwise hill climbing over adjacent swaps from the natural ordering.
pub fn oneport_latency_search(
    app: &Application,
    graph: &ExecutionGraph,
    exhaustive_limit: usize,
) -> CoreResult<LatencySearchResult> {
    Ok(
        oneport_latency_search_bounded(
            app,
            graph,
            exhaustive_limit,
            Exec::serial(),
            f64::INFINITY,
        )?
        .expect("an infinite cutoff never prunes the search"),
    )
}

/// Branch-and-bound variant of [`oneport_latency_search`] under an explicit
/// execution strategy: the exhaustive enumeration is split over `exec`
/// worker threads (chunks in enumeration order, reduced with the serial
/// tie-breaking rule, so the result is bit-identical to the serial run) and
/// honours its deadline, and a `cutoff` carried in from an incumbent lets
/// the search abandon work that cannot matter.
///
/// * Returns `Ok(None)` when every ordering provably exceeds `cutoff`
///   (including the cheap case where already the critical-path lower bound
///   does) — the caller's incumbent cannot be improved by this graph.  An
///   infinite cutoff never returns `None`.
/// * Otherwise the result is exactly what the unbounded search would have
///   returned (value, winning ordering and schedule are bit-identical):
///   partial schedules are abandoned only once some operation provably ends
///   after both the cutoff and the best latency found so far.
pub fn oneport_latency_search_bounded(
    app: &Application,
    graph: &ExecutionGraph,
    exhaustive_limit: usize,
    exec: Exec,
    cutoff: f64,
) -> CoreResult<Option<LatencySearchResult>> {
    let evaluator = LatencyEvaluator::new(app, graph)?;
    oneport_latency_search_prepared(graph, &evaluator, exhaustive_limit, exec, cutoff)
}

/// [`oneport_latency_search_bounded`] with a caller-provided evaluator, so a
/// caller that already built one (e.g. the memoised MINLATENCY candidate
/// evaluation) does not recompute the plan metrics.
pub(crate) fn oneport_latency_search_prepared(
    graph: &ExecutionGraph,
    evaluator: &LatencyEvaluator<'_>,
    exhaustive_limit: usize,
    exec: Exec,
    cutoff: f64,
) -> CoreResult<Option<LatencySearchResult>> {
    if evaluator.lower_bound() > prune_threshold(cutoff) {
        return Ok(None);
    }
    if let Some(space) = OrderingSpace::new(graph, exhaustive_limit) {
        let indices: Vec<usize> = (0..space.len()).collect();
        let parts = par_chunks(exec.effective_threads(), &indices, |_base, chunk| {
            let mut best: Option<(f64, usize)> = None;
            let mut complete = true;
            for &i in chunk {
                if exec.expired() {
                    complete = false;
                    break;
                }
                let ords = space.get(i);
                // Anything that cannot strictly beat both the cutoff and the
                // chunk's own best is abandoned mid-evaluation; ties are
                // evaluated in full so first-minimum-wins is preserved.
                let dynamic_cutoff = best.map_or(cutoff, |(b, _)| cutoff.min(b));
                match evaluator.value(&ords, dynamic_cutoff) {
                    Err(_) => continue,   // dead-locked ordering
                    Ok(None) => continue, // provably above the bar
                    // No early exit at the critical-path bound: a computed
                    // makespan can land an ulp below it (different float
                    // paths), so stopping there could miss the bitwise
                    // minimum and break serial/parallel equivalence.
                    Ok(Some(latency)) => {
                        if best.is_none_or(|(b, _)| latency < b) {
                            best = Some((latency, i));
                        }
                    }
                }
            }
            (best, complete)
        });
        let complete = parts.iter().all(|(_, c)| *c);
        let best = fold_min(parts.into_iter().map(|(b, _)| b).collect());
        match best {
            Some((latency, winner)) => {
                if latency > cutoff {
                    return Ok(None);
                }
                // Rebuild the winning operation list (deterministic for a
                // fixed ordering, so this matches the serial run exactly).
                let orderings = space.get(winner);
                let (_, oplist) = evaluator.schedule(&orderings)?;
                return Ok(Some(LatencySearchResult {
                    latency,
                    oplist,
                    orderings,
                    exhaustive: complete,
                }));
            }
            None if complete => {
                if cutoff.is_finite() {
                    // Everything was either dead-locked or above the cutoff.
                    return Ok(None);
                }
                return Err(CoreError::CyclicGraph);
            }
            // Deadline expired before anything was evaluated: fall through to
            // the (cheap) topological-ordering fallback below.
            None => {}
        }
    }
    // Start the hill climbing from the (always feasible) topological
    // ordering.  The climb itself is not cutoff-bounded: its value must stay
    // bit-identical to the legacy heuristic whatever incumbent is carried in.
    let mut current = CommOrderings::topological(graph);
    let (mut current_latency, mut current_oplist) = evaluator.schedule(&current)?;
    let mut improved = true;
    while improved && !exec.expired() {
        improved = false;
        for server in 0..graph.n() {
            for outgoing in [false, true] {
                let len = if outgoing {
                    current.outgoing[server].len()
                } else {
                    current.incoming[server].len()
                };
                for pos in 0..len.saturating_sub(1) {
                    let mut candidate = current.clone();
                    candidate.swap_adjacent(server, outgoing, pos);
                    if let Ok((latency, oplist)) = evaluator.schedule(&candidate) {
                        if latency + 1e-12 < current_latency {
                            current = candidate;
                            current_latency = latency;
                            current_oplist = oplist;
                            improved = true;
                        }
                    }
                }
            }
        }
    }
    Ok(Some(LatencySearchResult {
        latency: current_latency,
        oplist: current_oplist,
        orderings: current,
        exhaustive: false,
    }))
}

/// Constructive bounded multi-port latency schedule.
///
/// Every transfer leaving server `i` towards server `j` reserves the bandwidth
/// fraction `volume / D` with `D = max(Cout(i), Cin(j))` (input and output
/// transfers use the one-sided bound), so all transfers of a port can be in
/// flight simultaneously without exceeding the capacity; transfers start as
/// soon as their data is available and computations start once all inputs have
/// arrived.  The schedule is always a valid `OVERLAP` operation list.
pub fn multiport_proportional_latency(
    app: &Application,
    graph: &ExecutionGraph,
) -> CoreResult<(f64, OperationList)> {
    let metrics = PlanMetrics::compute(app, graph)?;
    let order = graph.topological_order()?;
    let n = graph.n();
    let mut calc_end = vec![0.0f64; n];
    let lambda_placeholder = 1.0;
    let mut oplist = OperationList::new(n, lambda_placeholder);
    for &k in &order {
        let mut ready = 0.0f64;
        for e in in_edges(graph, k) {
            let volume = metrics.edge_volume(app, e);
            let duration = match e {
                EdgeRef::Input(_) => metrics.c_in(k).max(volume),
                EdgeRef::Link(i, _) => metrics.c_out(i).max(metrics.c_in(k)).max(volume),
                EdgeRef::Output(_) => unreachable!("output edges are never incoming"),
            };
            let begin = match e {
                EdgeRef::Input(_) => 0.0,
                EdgeRef::Link(i, _) => calc_end[i],
                EdgeRef::Output(_) => unreachable!(),
            };
            let iv = Interval::with_duration(begin, duration);
            ready = ready.max(iv.end);
            oplist.set_comm(e, iv);
        }
        let begin = ready;
        let end = begin + metrics.c_comp(k);
        oplist.set_calc(k, Interval::new(begin, end));
        calc_end[k] = end;
        for e in out_edges(graph, k) {
            if let EdgeRef::Output(_) = e {
                let volume = metrics.edge_volume(app, e);
                let duration = metrics.c_out(k).max(volume);
                oplist.set_comm(e, Interval::with_duration(end, duration));
            }
        }
    }
    let latency = oplist.latency();
    let oplist = oplist.with_lambda(latency.max(1e-9));
    Ok((latency, oplist))
}

/// Best multi-port latency schedule available: the better of the proportional
/// multi-port construction and the best one-port schedule (any one-port
/// schedule is also multi-port feasible).
pub fn multiport_latency(
    app: &Application,
    graph: &ExecutionGraph,
    exhaustive_limit: usize,
) -> CoreResult<(f64, OperationList)> {
    let (fluid_latency, fluid_oplist) = multiport_proportional_latency(app, graph)?;
    let oneport = oneport_latency_search(app, graph, exhaustive_limit)?;
    if fluid_latency <= oneport.latency {
        Ok((fluid_latency, fluid_oplist))
    } else {
        Ok((oneport.latency, oneport.oplist))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsw_core::{validate_oplist, CommModel};

    fn section23() -> (Application, ExecutionGraph) {
        let app = Application::independent(&[(4.0, 1.0); 5]);
        let g = ExecutionGraph::from_edges(5, &[(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]).unwrap();
        (app, g)
    }

    #[test]
    fn section23_optimal_latency_is_21() {
        let (app, g) = section23();
        let result = oneport_latency_search(&app, &g, 1000).unwrap();
        assert!(result.exhaustive);
        assert!(
            (result.latency - 21.0).abs() < 1e-9,
            "got {}",
            result.latency
        );
        // The schedule is valid for every model (one data set at a time).
        for model in CommModel::ALL {
            validate_oplist(&app, &g, &result.oplist, model)
                .unwrap_or_else(|v| panic!("{model}: {v:?}"));
        }
        // Multi-port does not improve the latency on this example (the paper
        // notes this).
        let (multi, _) = multiport_latency(&app, &g, 1000).unwrap();
        assert!((multi - 21.0).abs() < 1e-9);
    }

    #[test]
    fn latency_lower_bound_is_a_lower_bound() {
        let (app, g) = section23();
        let lb = latency_lower_bound(&app, &g).unwrap();
        // Longest path: in->C1(1) + C1(4) + C1->C2(1) + C2(4) + C2->C3(1) + C3(4)
        //               + C3->C5(1) + C5(4) + C5->out(1) = 21
        assert!((lb - 21.0).abs() < 1e-9);
        let result = oneport_latency_search(&app, &g, 1000).unwrap();
        assert!(result.latency >= lb - 1e-9);
    }

    #[test]
    fn chain_latency_matches_closed_form() {
        // Chain 0 -> 1 with costs (2, 3) and selectivities (0.5, 1):
        // latency = 1 + 2 + 0.5 + 0.5*3 + 0.5*1 = 5.5
        let app = Application::independent(&[(2.0, 0.5), (3.0, 1.0)]);
        let g = ExecutionGraph::chain_of(2, &[0, 1]).unwrap();
        let result = oneport_latency_search(&app, &g, 10).unwrap();
        assert!((result.latency - 5.5).abs() < 1e-9);
        validate_oplist(&app, &g, &result.oplist, CommModel::InOrder).unwrap();
        let lb = latency_lower_bound(&app, &g).unwrap();
        assert!((lb - 5.5).abs() < 1e-9);
    }

    #[test]
    fn star_latency_orders_children_longest_first() {
        // A root feeding three children with very different costs: the best
        // ordering sends to the expensive child first.
        let app = Application::independent(&[(1.0, 1.0), (9.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let g = ExecutionGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let result = oneport_latency_search(&app, &g, 1000).unwrap();
        assert!(result.exhaustive);
        // in->C0: 1, C0: 1, send to C1 at 2..3, C1 computes 3..12, C1->out 12..13.
        assert!(
            (result.latency - 13.0).abs() < 1e-9,
            "got {}",
            result.latency
        );
        // A bad ordering (expensive child last) costs 2 more.
        let mut bad = CommOrderings::natural(&g);
        bad.outgoing[0] = vec![
            EdgeRef::Link(0, 2),
            EdgeRef::Link(0, 3),
            EdgeRef::Link(0, 1),
        ];
        let (bad_latency, _) = oneport_latency_for_orderings(&app, &g, &bad).unwrap();
        assert!((bad_latency - 15.0).abs() < 1e-9, "got {bad_latency}");
    }

    #[test]
    fn deadlocked_orderings_are_detected() {
        // Two senders (0, 1) and two receivers (2, 3) with crossing priorities.
        let app = Application::independent(&[(1.0, 1.0); 4]);
        let g = ExecutionGraph::from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        let mut ords = CommOrderings::natural(&g);
        ords.outgoing[0] = vec![EdgeRef::Link(0, 2), EdgeRef::Link(0, 3)];
        ords.outgoing[1] = vec![EdgeRef::Link(1, 3), EdgeRef::Link(1, 2)];
        ords.incoming[2] = vec![EdgeRef::Link(1, 2), EdgeRef::Link(0, 2)];
        ords.incoming[3] = vec![EdgeRef::Link(0, 3), EdgeRef::Link(1, 3)];
        assert!(matches!(
            oneport_latency_for_orderings(&app, &g, &ords),
            Err(CoreError::CyclicGraph)
        ));
        // The exhaustive search skips dead-locked orderings and still finds one.
        let result = oneport_latency_search(&app, &g, 10000).unwrap();
        assert!(result.latency.is_finite());
    }

    #[test]
    fn multiport_proportional_schedule_is_valid_overlap() {
        let (app, g) = section23();
        let (latency, ol) = multiport_proportional_latency(&app, &g).unwrap();
        assert!(latency >= 21.0 - 1e-9);
        validate_oplist(&app, &g, &ol, CommModel::Overlap).unwrap_or_else(|v| panic!("{v:?}"));
    }
}
