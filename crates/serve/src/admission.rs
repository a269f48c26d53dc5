//! Predictive admission control: price a request **before** enumerating.
//!
//! The serving layer must not discover that a request is intractable by
//! burning its deadline on it.  This module prices every request in
//! O(shapes) from the structural counts the canonical machinery already
//! knows how to compute cheaply —
//!
//! * the **plan-space size**: the exact canonical class count for uniform
//!   instances ([`CanonicalSpace::forest_class_count`], closed form), the
//!   exact coloured-orbit count for partially symmetric ones
//!   ([`fsw_core::classed_class_count_within`], a counting pass that never
//!   materialises an orbit), and the raw `n^n` parent-function space where
//!   no symmetry reduces it;
//! * the **per-plan ordering weight**: `1` on structural evaluation paths
//!   (OVERLAP / lower-bound MINPERIOD, forest-phase MINLATENCY via exact
//!   Algorithm 1), the budget-capped worst-case ordering-search size on
//!   orchestrated paths;
//! * an optional **admissible value floor**: the head bound of the
//!   bound-ordered shape plan ([`fsw_core::bound_ordered_shape_plan`] +
//!   [`ShapeBounder`]) — every candidate plan belongs to some shape and
//!   costs at least its shape bound, so the smallest shape bound lower
//!   bounds the instance optimum.  Rejected callers learn what they are
//!   missing; degraded answers ship with a certified gap.
//!
//! The product of the first two is the **estimated cost** — the number of
//! candidate evaluations an exhaustive solve would pay — and the
//! [`AdmissionPolicy`] turns it into one of four decisions: [`Admit`]
//! (solve exactly), [`AdmitWithDeadline`] (worth trying under a degrade
//! deadline; the response may come back `Degraded`), [`Shed`] (admissible
//! at baseline, but over the threshold a backlog has tightened), or
//! [`Reject`] (the exact answer is out of reach; the caller gets the
//! estimate and the floor, and the solve pool is never touched).
//!
//! [`Admit`]: AdmissionDecision::Admit
//! [`AdmitWithDeadline`]: AdmissionDecision::AdmitWithDeadline
//! [`Shed`]: AdmissionDecision::Shed
//! [`Reject`]: AdmissionDecision::Reject

use std::time::{Duration, Instant};

use fsw_core::{
    bound_ordered_shape_plan, classed_class_count_within, Application, ClassedCount, CommModel,
    ShapeBounder, ShapeObjective, ShapeScan, WeightClasses,
};
use fsw_sched::engine::CanonicalSpace;
use fsw_sched::minperiod::PeriodEvaluation;
use fsw_sched::orchestrator::{Objective, SearchBudget};

/// Largest service count for which pricing attempts the bound-ordered
/// value floor: `n = 10` (1 842 `A000081` forest shapes) is in, `n = 11`
/// (4 766) is out.  The floor pass runs **without a wall-clock deadline** —
/// its cost is bounded structurally by this limit instead, so the floor
/// (and everything downstream of it: degraded gaps, replay digests) is a
/// pure function of the instance, never of machine load.  A plain size
/// check, so oversized requests skip the floor in O(1).
const FLOOR_MAX_SERVICES: usize = 10;

/// The structural price of one request, computed before any enumeration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimate {
    /// Plan-space size: canonical classes (uniform), coloured orbits
    /// (partial symmetry) or raw `n^n` parent functions (no symmetry /
    /// constrained).  Saturating.
    pub plans: u128,
    /// Whether `plans` is the exact size of the space an exhaustive solve
    /// enumerates (`false` when counting was capped, timed out, or
    /// constraints prune an unknown amount of the raw space).
    pub plans_exact: bool,
    /// Worst-case candidate evaluations *per plan* (ordering searches on
    /// orchestrated paths, `1` on structural ones), capped by the budget.
    pub ordering_weight: u128,
    /// `plans × ordering_weight`, saturating — the estimated number of
    /// candidate evaluations an exhaustive solve would pay.
    pub cost: u128,
    /// Admissible lower bound on the instance optimum (the head bound of
    /// the bound-ordered shape plan), when one was certified.  `None` on
    /// the plain-admit fast path (not priced there), on the MINLATENCY DAG
    /// phase (DAGs can beat every forest-shape floor) and when the shape
    /// space is too large to price.
    pub value_floor: Option<f64>,
}

/// The admission verdict for one request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdmissionDecision {
    /// Cheap enough to solve exactly under the service budget.
    Admit,
    /// Too big for an exact promise, small enough to try: solve under
    /// `time_limit` and degrade to the best incumbent if it fires.
    AdmitWithDeadline {
        /// Deadline the solve runs under.
        time_limit: Duration,
        /// The price that put the request in the degrade band.
        estimate: CostEstimate,
    },
    /// Admissible at baseline, but priced above the reject threshold
    /// scaled down by `level` halvings (backlog feedback): shed, not
    /// solved.
    Shed {
        /// The shed level in force (≥ 1).
        level: u32,
        /// The price that shed the request (no floor: sheds are cheap).
        estimate: CostEstimate,
    },
    /// The exact answer is out of reach; the solve pool is never touched.
    Reject {
        /// The price that rejected the request, floor included.
        estimate: CostEstimate,
    },
}

/// Thresholds turning a [`CostEstimate`] into an [`AdmissionDecision`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionPolicy {
    /// Requests pricing at most this many candidate evaluations are
    /// admitted unconditionally.
    pub admit_cost: u128,
    /// Requests pricing above `admit_cost` but at most this are admitted
    /// under `degrade_time_limit`; anything above is rejected.
    pub reject_cost: u128,
    /// Deadline armed on solves in the degrade band.
    pub degrade_time_limit: Duration,
    /// Wall-clock budget of the coloured-orbit counting pass (the value
    /// floor is bounded structurally instead, so it stays deterministic).
    pub pricing_budget: Duration,
}

impl AdmissionPolicy {
    /// The hardened default for `budget`: admit up to the enumeration cap
    /// the budget could cover exactly (`max_graphs`), allow a 64× overshoot
    /// band under a 50 ms degrade deadline, and spend at most 5 ms pricing.
    pub fn for_budget(budget: &SearchBudget) -> Self {
        let admit_cost = (budget.max_graphs as u128).max(1);
        AdmissionPolicy {
            admit_cost,
            reject_cost: admit_cost.saturating_mul(64),
            degrade_time_limit: Duration::from_millis(50),
            pricing_budget: Duration::from_millis(5),
        }
    }

    /// Admit everything without pricing — the pre-admission behaviour,
    /// used by [`crate::solve_all`] where the caller owns the fleet and
    /// wants an answer (possibly degraded) for every member.
    pub fn open() -> Self {
        AdmissionPolicy {
            admit_cost: u128::MAX,
            reject_cost: u128::MAX,
            degrade_time_limit: Duration::from_millis(50),
            pricing_budget: Duration::ZERO,
        }
    }

    /// `true` when this policy admits everything (no pricing runs).
    pub fn is_open(&self) -> bool {
        self.admit_cost == u128::MAX
    }

    /// Prices `app` and decides at baseline thresholds:
    /// [`decide_at`](Self::decide_at) with shed level 0.
    pub fn decide(
        &self,
        app: &Application,
        model: CommModel,
        objective: Objective,
        budget: &SearchBudget,
    ) -> AdmissionDecision {
        self.decide_at(app, model, objective, budget, 0)
    }

    /// Prices `app` and decides with both thresholds halved `shed_level`
    /// times (backlog feedback).  O(shapes) worst case, bounded by
    /// `pricing_budget`; open policies return [`AdmissionDecision::Admit`]
    /// without pricing at all.  A request only the scaled reject threshold
    /// turns away is [`Shed`](AdmissionDecision::Shed).
    pub fn decide_at(
        &self,
        app: &Application,
        model: CommModel,
        objective: Objective,
        budget: &SearchBudget,
        shed_level: u32,
    ) -> AdmissionDecision {
        self.priced(app, model, objective, budget, shed_level).0
    }

    /// [`decide_at`](Self::decide_at) plus the estimated cost behind the
    /// decision (`0` when an open policy skipped pricing) — the async
    /// front end models solve latency from it.
    pub(crate) fn priced(
        &self,
        app: &Application,
        model: CommModel,
        objective: Objective,
        budget: &SearchBudget,
        shed_level: u32,
    ) -> (AdmissionDecision, u128) {
        if self.is_open() {
            return (AdmissionDecision::Admit, 0);
        }
        let mut estimate = self.estimate(app, model, objective, budget);
        let cost = estimate.cost;
        let level = shed_level.min(127);
        let reject_cost = self.reject_cost >> level;
        if cost > reject_cost && cost <= self.reject_cost {
            return (AdmissionDecision::Shed { level, estimate }, cost);
        }
        if cost <= self.admit_cost >> level {
            return (AdmissionDecision::Admit, cost);
        }
        // The floor is only priced when the caller will see it — the
        // degrade band (it becomes the response's certified gap) and the
        // reject band (feedback on what is out of reach).  It is O(shapes)
        // like the rest of the pricing, but with a larger constant, so the
        // admit fast path and sheds skip it.
        estimate.value_floor = self.certified_floor(app, model, objective, budget);
        let decision = if cost <= reject_cost {
            AdmissionDecision::AdmitWithDeadline {
                time_limit: self.degrade_time_limit,
                estimate,
            }
        } else {
            AdmissionDecision::Reject { estimate }
        };
        (decision, cost)
    }

    /// The structural price of `(app, model, objective)` under `budget`
    /// (see the module docs for the cost model).
    pub fn estimate(
        &self,
        app: &Application,
        model: CommModel,
        objective: Objective,
        budget: &SearchBudget,
    ) -> CostEstimate {
        let n = app.n();
        // MINLATENCY's DAG phase (n within `dag_enumeration_max_n`) is one
        // combined walk over level-ordered insertions, not a per-plan
        // ordering search: its size is the DAG ordering space itself, so it
        // prices as a single "plan" space with weight 1 (an upper bound —
        // the walk prunes, hence `plans_exact: false`).
        if objective == Objective::MinLatency && n <= budget.dag_enumeration_max_n {
            let space = (CanonicalSpace::max_dag_ordering_space(n) as u128).max(1);
            return CostEstimate {
                plans: space,
                plans_exact: false,
                ordering_weight: 1,
                cost: space,
                value_floor: None,
            };
        }
        let classes = WeightClasses::of(app);
        // A budget past the clock's range means no deadline.
        let pricing_deadline = Instant::now().checked_add(self.pricing_budget);
        let ordering_weight = ordering_weight(n, model, objective, budget);
        // Count exactly up to the first quantity that forces a rejection;
        // saturate beyond it (the decision is the same either way).
        let count_cap = self
            .reject_cost
            .checked_div(ordering_weight)
            .unwrap_or(u128::MAX)
            .saturating_add(1);
        let raw = raw_parent_functions(n);
        let (plans, plans_exact) = if app.has_constraints() {
            // Constraints prune an unknown amount of the raw space and
            // disable every symmetry reduction.
            (raw, false)
        } else if classes.is_uniform() {
            (CanonicalSpace::forest_class_count(n), true)
        } else if classes.has_symmetry() {
            match classed_class_count_within(&classes, count_cap, pricing_deadline) {
                ClassedCount::Exact(count) => (count, true),
                ClassedCount::ExceedsCap => (count_cap, false),
                ClassedCount::DeadlineExpired | ClassedCount::Intractable => (raw, false),
            }
        } else {
            (raw, true)
        };
        let cost = plans.saturating_mul(ordering_weight);
        CostEstimate {
            plans,
            plans_exact,
            ordering_weight,
            cost,
            // Attached by `decide` on the degrade/reject bands (and by the
            // service's degraded-response path) via `certified_floor`; the
            // plain estimate stays O(cheap counts).
            value_floor: None,
        }
    }

    /// Certifies an admissible lower bound for `(app, model, objective)`
    /// within the pricing budget — the degraded-response path uses this to
    /// attach a floor to solves that were admitted without one.
    pub fn certified_floor(
        &self,
        app: &Application,
        model: CommModel,
        objective: Objective,
        budget: &SearchBudget,
    ) -> Option<f64> {
        self.value_floor(app, model, objective, budget)
    }

    /// Admissible instance-wide lower bound from the bound-ordered shape
    /// plan: the plan is sorted by shape bound and every candidate costs at
    /// least its shape's bound, so the head bound floors the whole forest
    /// space (constrained plans are a subset of it, so the floor holds for
    /// them too).  `None` when the DAG phase could beat it or when the
    /// instance exceeds [`FLOOR_MAX_SERVICES`] — the structural gate that
    /// bounds this pass instead of a wall-clock deadline, keeping the floor
    /// deterministic.
    fn value_floor(
        &self,
        app: &Application,
        model: CommModel,
        objective: Objective,
        budget: &SearchBudget,
    ) -> Option<f64> {
        let n = app.n();
        let shape_objective = match objective {
            Objective::MinPeriod => ShapeObjective::Period(model),
            Objective::MinLatency if n > budget.dag_enumeration_max_n => ShapeObjective::Latency,
            Objective::MinLatency => return None,
        };
        if n > FLOOR_MAX_SERVICES {
            return None;
        }
        let bounder = ShapeBounder::new(app, shape_objective);
        let classes = WeightClasses::of(app);
        match bound_ordered_shape_plan(&classes, Some(&bounder), f64::INFINITY, None) {
            ShapeScan::Planned { shapes, .. } => shapes.first().map(|shape| shape.bound),
            ShapeScan::DeadlineExpired => None,
        }
    }
}

/// Worst-case candidate evaluations per plan, capped by the budget: `1` on
/// structural paths (the evaluation is a closed-form metric of the plan),
/// the ordering-search space on orchestrated ones.
fn ordering_weight(
    n: usize,
    model: CommModel,
    objective: Objective,
    budget: &SearchBudget,
) -> u128 {
    let cap = (budget.max_orderings as u128).max(1);
    match objective {
        Objective::MinPeriod => {
            if model == CommModel::Overlap
                || matches!(budget.period_evaluation, PeriodEvaluation::LowerBound)
            {
                1
            } else {
                cap.min((CanonicalSpace::max_forest_ordering_space(n) as u128).max(1))
            }
        }
        // MINLATENCY: the forest-only phase is exact Algorithm 1, purely
        // structural; the DAG phase never reaches here (priced as its
        // combined walk in `estimate`).
        Objective::MinLatency => 1,
    }
}

/// Raw parent-function space `n^n`, saturating — what an unreduced
/// exhaustive enumeration walks.
fn raw_parent_functions(n: usize) -> u128 {
    let mut raw = 1u128;
    for _ in 0..n {
        raw = raw.saturating_mul(n.max(1) as u128);
    }
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> SearchBudget {
        SearchBudget::default()
    }

    #[test]
    fn small_instances_admit_instantly() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8)]);
        let policy = AdmissionPolicy::for_budget(&budget());
        for (model, objective) in [
            (CommModel::Overlap, Objective::MinPeriod),
            (CommModel::InOrder, Objective::MinPeriod),
            (CommModel::InOrder, Objective::MinLatency),
        ] {
            assert_eq!(
                policy.decide(&app, model, objective, &budget()),
                AdmissionDecision::Admit,
                "{model} {objective}"
            );
        }
    }

    #[test]
    fn uniform_instances_price_by_canonical_classes_not_raw_space() {
        // n = 14 uniform: 14^14 raw parent functions (~1.1e16) but only
        // 87 811 canonical classes — must admit.
        let app = Application::independent(&[(2.0, 0.5); 14]);
        let policy = AdmissionPolicy::for_budget(&budget());
        let estimate = policy.estimate(&app, CommModel::Overlap, Objective::MinPeriod, &budget());
        assert_eq!(estimate.plans, fsw_core::forest_classes(14));
        assert!(estimate.plans_exact);
        assert_eq!(
            policy.decide(&app, CommModel::Overlap, Objective::MinPeriod, &budget()),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn oversized_distinct_instances_reject_with_a_structural_estimate() {
        // n = 24, all-distinct weights: no symmetry, raw space 24^24 — the
        // decision must be an instant closed-form rejection.
        let specs: Vec<(f64, f64)> = (0..24)
            .map(|k| (1.0 + k as f64, 0.3 + 0.02 * k as f64))
            .collect();
        let app = Application::independent(&specs);
        let policy = AdmissionPolicy::for_budget(&budget());
        let started = Instant::now();
        let decision = policy.decide(&app, CommModel::Overlap, Objective::MinPeriod, &budget());
        assert!(
            started.elapsed() < Duration::from_millis(10),
            "pricing slow"
        );
        let AdmissionDecision::Reject { estimate } = decision else {
            panic!("n=24 distinct must reject, got {decision:?}");
        };
        assert!(estimate.cost > policy.reject_cost);
        assert!(estimate.plans_exact, "24^24 is the exact raw space");
    }

    #[test]
    fn an_unrepresentable_pricing_budget_means_no_deadline() {
        // `Instant + Duration::MAX` overflows; the pricing pass must treat it
        // as "no deadline" and count the tiered space exactly.
        let mut specs = vec![(2.0, 0.5); 5];
        specs.extend([(1.0, 0.8); 5]);
        let app = Application::independent(&specs);
        let policy = AdmissionPolicy {
            pricing_budget: Duration::MAX,
            ..AdmissionPolicy::for_budget(&budget())
        };
        let estimate = policy.estimate(&app, CommModel::Overlap, Objective::MinPeriod, &budget());
        assert!(estimate.plans_exact, "{estimate:?}");
        assert_eq!(
            policy.decide(&app, CommModel::Overlap, Objective::MinPeriod, &budget()),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn the_degrade_band_sits_between_admit_and_reject() {
        // n = 8, all-distinct: 8^8 ≈ 16.7M raw plans — above the 2M admit
        // cap, below the 128M reject threshold.
        let specs: Vec<(f64, f64)> = (0..8)
            .map(|k| (1.0 + k as f64, 0.4 + 0.05 * k as f64))
            .collect();
        let app = Application::independent(&specs);
        let policy = AdmissionPolicy::for_budget(&budget());
        match policy.decide(&app, CommModel::Overlap, Objective::MinPeriod, &budget()) {
            AdmissionDecision::AdmitWithDeadline {
                time_limit,
                estimate,
            } => {
                assert_eq!(time_limit, policy.degrade_time_limit);
                assert_eq!(estimate.plans, 8u128.pow(8));
            }
            other => panic!("n=8 distinct must enter the degrade band, got {other:?}"),
        }
    }

    #[test]
    fn the_value_floor_is_admissible() {
        use fsw_sched::orchestrator::{solve, Problem};
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.5, 0.6)]);
        let policy = AdmissionPolicy::for_budget(&budget());
        for model in [CommModel::Overlap, CommModel::InOrder] {
            let floor = policy
                .certified_floor(&app, model, Objective::MinPeriod, &budget())
                .expect("small instance has a floor");
            let optimum = solve(&Problem::new(&app, model, Objective::MinPeriod), &budget())
                .unwrap()
                .value;
            assert!(
                floor <= optimum,
                "floor {floor} exceeds the optimum {optimum} under {model}"
            );
            assert!(floor > 0.0, "positive costs imply a positive floor");
        }
    }

    #[test]
    fn the_floor_gate_admits_at_most_two_thousand_shapes() {
        assert_eq!(fsw_core::forest_classes(FLOOR_MAX_SERVICES), 1_842);
        assert_eq!(fsw_core::forest_classes(FLOOR_MAX_SERVICES + 1), 4_766);
    }

    #[test]
    fn shed_levels_scale_both_thresholds() {
        // n = 8 distinct sits in the degrade band at baseline; halving the
        // thresholds enough times sheds it, and the shed carries no floor.
        let specs: Vec<(f64, f64)> = (0..8)
            .map(|k| (1.0 + k as f64, 0.4 + 0.05 * k as f64))
            .collect();
        let app = Application::independent(&specs);
        let policy = AdmissionPolicy::for_budget(&budget());
        let at = |level| {
            policy.decide_at(
                &app,
                CommModel::Overlap,
                Objective::MinPeriod,
                &budget(),
                level,
            )
        };
        assert!(matches!(at(0), AdmissionDecision::AdmitWithDeadline { .. }));
        match at(4) {
            AdmissionDecision::Shed { level, estimate } => {
                assert_eq!(level, 4);
                assert_eq!(estimate.value_floor, None);
            }
            other => panic!("level 4 must shed the degrade band, got {other:?}"),
        }
        // Baseline rejects stay rejects at any level, floor priced.
        let jumbo: Vec<(f64, f64)> = (0..24).map(|k| (1.0 + k as f64, 0.5)).collect();
        let jumbo = Application::independent(&jumbo);
        assert!(matches!(
            policy.decide_at(
                &jumbo,
                CommModel::Overlap,
                Objective::MinPeriod,
                &budget(),
                3
            ),
            AdmissionDecision::Reject { .. }
        ));
    }

    #[test]
    fn open_policies_admit_everything_without_pricing() {
        let specs: Vec<(f64, f64)> = (0..24).map(|k| (1.0 + k as f64, 0.5)).collect();
        let app = Application::independent(&specs);
        let policy = AdmissionPolicy::open();
        assert!(policy.is_open());
        assert_eq!(
            policy.decide(&app, CommModel::Overlap, Objective::MinPeriod, &budget()),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn orchestrated_paths_carry_an_ordering_weight() {
        // MINLATENCY at n <= dag_enumeration_max_n is one combined DAG walk:
        // it prices as that walk's ordering space with weight 1, keeping
        // small instances (the only ones the engine routes into the DAG
        // phase) inside the admit band.
        let b = budget();
        let policy = AdmissionPolicy::for_budget(&b);
        let specs: Vec<(f64, f64)> = (0..4).map(|k| (1.0 + k as f64, 0.5)).collect();
        let app = Application::independent(&specs);
        let estimate = policy.estimate(&app, CommModel::InOrder, Objective::MinLatency, &b);
        assert_eq!(estimate.ordering_weight, 1);
        assert_eq!(
            estimate.cost,
            CanonicalSpace::max_dag_ordering_space(4) as u128
        );
        assert!(
            !estimate.plans_exact,
            "the walk bound is not an exact count"
        );
        assert_eq!(
            ordering_weight(9, CommModel::InOrder, Objective::MinLatency, &b),
            1,
            "forest-only MINLATENCY is structural"
        );
        assert_eq!(
            ordering_weight(6, CommModel::Overlap, Objective::MinPeriod, &b),
            1
        );
    }
}
