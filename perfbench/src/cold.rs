//! `cold_solve`: closed loop, one caller, serial exhaustive plan searches.
//!
//! Every operation is a cold `orchestrator::solve_warm` on a fresh
//! `EvalCache`, or a model × objective sweep of a small distinct-weight
//! instance through `orchestrator::solve_all` (one shared cache, so the
//! MINLATENCY DAG phase and cache reuse do work).  The engine does all the
//! work; store, admission and front end do none.
//!
//! Instance weights come from a pool fixed with the benchmark
//! (`POOL_SEED`), whose optima were recorded at the benchmark's parent
//! commit (`reference/cold_solve.txt`), so every seed's answers can be
//! checked.  The workload seed relabels each instance's services and
//! shuffles the operation order: the program sees a different labelled
//! input per seed, while the cost mix — heavy-tailed per instance — stays
//! the same, which keeps runs of different seeds comparable.

use std::collections::HashMap;
use std::time::Instant;

use fsw_core::canonical::{bound_ordered_shape_plan, ShapeBounder, ShapeObjective};
use fsw_core::{validate_oplist, Application, CommModel, WeightClasses};
use fsw_sched::engine::EvalCache;
use fsw_sched::orchestrator::{solve, solve_all, solve_warm, Objective, Problem, SearchBudget};
use fsw_sched::Solution;
use fsw_workloads::scenarios::{
    query_optimization, tiered_query_optimization, uniform_query_optimization,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::probe::{self, HostProbe};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, same_value, summarize, Outcome, Tally};
use crate::trace::{span, Tracer};
use crate::RunArgs;

/// Seed of the recorded instance pool (not the workload seed).
const POOL_SEED: u64 = 0x5eed_0c01d;
/// Pool variants per instance family.
const VARIANTS: u64 = 2;
/// Distinct-weight n = 5 instances solved as full sweeps.
const SWEEPS: u64 = 16;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 51;

/// Every (model, objective) pair, in sweep order.
pub const SWEEP: [(CommModel, Objective); 6] = [
    (CommModel::Overlap, Objective::MinPeriod),
    (CommModel::Overlap, Objective::MinLatency),
    (CommModel::InOrder, Objective::MinPeriod),
    (CommModel::InOrder, Objective::MinLatency),
    (CommModel::OutOrder, Objective::MinPeriod),
    (CommModel::OutOrder, Objective::MinLatency),
];

/// Recorded optima, `app id, model, objective, value` per line.
const REFERENCE: &str = include_str!("../reference/cold_solve.txt");

/// One pool instance over its recorded labelling.
struct PoolApp {
    id: String,
    family: &'static str,
    specs: Vec<(f64, f64)>,
}

type Family = (&'static str, fn(&mut StdRng) -> Application);

fn pool() -> (Vec<PoolApp>, Vec<PoolApp>) {
    let families: [Family; 7] = [
        ("u12", |r| uniform_query_optimization(12, r)),
        ("u13", |r| uniform_query_optimization(13, r)),
        ("u14", |r| uniform_query_optimization(14, r)),
        ("t6-6", |r| tiered_query_optimization(&[6, 6], r)),
        ("t7-6", |r| tiered_query_optimization(&[7, 6], r)),
        ("t4-4-4", |r| tiered_query_optimization(&[4, 4, 4], r)),
        ("t4-4-3", |r| tiered_query_optimization(&[4, 4, 3], r)),
    ];
    let specs_of = |app: &Application| -> Vec<(f64, f64)> {
        (0..app.n())
            .map(|k| (app.cost(k), app.selectivity(k)))
            .collect()
    };
    let mut solves = Vec::new();
    for (row, (family, make)) in families.iter().enumerate() {
        for v in 0..VARIANTS {
            let mut rng = StdRng::seed_from_u64(POOL_SEED + 100 * row as u64 + v);
            solves.push(PoolApp {
                id: format!("{family}.v{v}"),
                family,
                specs: specs_of(&make(&mut rng)),
            });
        }
    }
    let sweeps = (0..SWEEPS)
        .map(|v| {
            let mut rng = StdRng::seed_from_u64(POOL_SEED + 10_000 + v);
            PoolApp {
                id: format!("q5.v{v}"),
                family: "q5",
                specs: specs_of(&query_optimization(5, &mut rng)),
            }
        })
        .collect();
    (solves, sweeps)
}

enum Kind {
    Solve(CommModel, Objective),
    Sweep,
}

/// One operation of the run, over the seed's relabelling of a pool app.
struct Op {
    pool: usize,
    kind: Kind,
    app: Application,
}

impl Op {
    fn is_sweep(&self) -> bool {
        matches!(self.kind, Kind::Sweep)
    }

    /// The pool instance this operation relabels.
    fn source<'a>(&self, solves: &'a [PoolApp], sweeps: &'a [PoolApp]) -> &'a PoolApp {
        if self.is_sweep() {
            &sweeps[self.pool]
        } else {
            &solves[self.pool]
        }
    }

    /// The (model, objective) requests the operation solves.
    fn requests(&self) -> Vec<(CommModel, Objective)> {
        match self.kind {
            Kind::Solve(model, objective) => vec![(model, objective)],
            Kind::Sweep => SWEEP.to_vec(),
        }
    }
}

fn objective_name(objective: Objective) -> &'static str {
    match objective {
        Objective::MinPeriod => "minperiod",
        Objective::MinLatency => "minlatency",
    }
}

/// The seed's operation list: each pool instance relabelled by a seeded
/// permutation, every (model, objective) solve of it plus every sweep,
/// in seeded order.
fn ops_for_seed(seed: u64, solves: &[PoolApp], sweeps: &[PoolApp]) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut relabel = |specs: &[(f64, f64)]| -> Application {
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.shuffle(&mut rng);
        Application::independent(&order.iter().map(|&k| specs[k]).collect::<Vec<_>>())
    };
    let mut ops = Vec::new();
    for (pool, app) in solves.iter().enumerate() {
        for &(model, objective) in &SWEEP {
            ops.push(Op {
                pool,
                kind: Kind::Solve(model, objective),
                app: relabel(&app.specs),
            });
        }
    }
    for (pool, app) in sweeps.iter().enumerate() {
        ops.push(Op {
            pool,
            kind: Kind::Sweep,
            app: relabel(&app.specs),
        });
    }
    ops.shuffle(&mut rng);
    ops
}

fn parse_reference() -> HashMap<(String, String), f64> {
    REFERENCE
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 4, "malformed reference line {line:?}");
            let value: f64 = fields[3].parse().expect("reference value parses");
            (
                (
                    fields[0].to_string(),
                    format!("{} {}", fields[1], fields[2]),
                ),
                value,
            )
        })
        .collect()
}

fn pair_key(model: CommModel, objective: Objective) -> String {
    format!("{model:?} {objective:?}")
}

/// The oracle for one solution: exhaustive, equal to the recorded optimum,
/// and every OVERLAP/INORDER operation list valid.
fn check(
    app: &Application,
    id: &str,
    model: CommModel,
    objective: Objective,
    solution: &Solution,
    reference: &HashMap<(String, String), f64>,
) -> Result<(), String> {
    let want = reference
        .get(&(id.to_string(), pair_key(model, objective)))
        .ok_or_else(|| format!("{id} {model:?} {objective:?}: no recorded optimum"))?;
    if !solution.exhaustive {
        return Err(format!("{id} {model:?} {objective:?}: not exhaustive"));
    }
    if !same_value(solution.value, *want) {
        return Err(format!(
            "{id} {model:?} {objective:?}: value {} != recorded {want}",
            solution.value
        ));
    }
    if matches!(model, CommModel::Overlap | CommModel::InOrder) {
        if let Some(oplist) = &solution.oplist {
            if let Err(violations) = validate_oplist(app, &solution.graph, oplist, model) {
                return Err(format!(
                    "{id} {model:?} {objective:?}: invalid oplist ({} violations)",
                    violations.len()
                ));
            }
        }
    }
    Ok(())
}

/// Per-objective layer totals of the traced pass.
#[derive(Default)]
struct LayerTotals {
    solves: usize,
    solve_ms: f64,
    prelude_ms: f64,
    orchestrate_ms: f64,
    evaluated: usize,
    shapes: usize,
    expanded: u64,
    certified: usize,
    peak_resident: usize,
    cache_hits: usize,
    cache_misses: usize,
}

/// Per-row breakdown line of the traced pass (family, model, objective).
#[derive(Default)]
struct RowTotals {
    solves: usize,
    solve_ms: f64,
    prelude_ms: f64,
    orchestrate_ms: f64,
}

/// Runs one pass of `ops` and returns per-op latencies in milliseconds.
/// Correctness checks, and `between` before each operation, run outside
/// the timed calls.
fn timed_pass(
    ops: &[Op],
    solves: &[PoolApp],
    sweeps: &[PoolApp],
    reference: &HashMap<(String, String), f64>,
    tally: &mut Tally,
    failures: &mut Vec<String>,
    between: &mut dyn FnMut(),
) -> Vec<f64> {
    let budget = SearchBudget::default();
    let mut latencies = Vec::with_capacity(ops.len());
    for op in ops {
        between();
        let started = Instant::now();
        let result: Result<Vec<(CommModel, Objective, Solution)>, String> = match op.kind {
            Kind::Solve(model, objective) => {
                let cache = EvalCache::new(&op.app);
                solve_warm(
                    &Problem::new(&op.app, model, objective),
                    &budget,
                    &cache,
                    None,
                )
                .map(|(solution, _)| vec![(model, objective, solution)])
                .map_err(|e| e.to_string())
            }
            Kind::Sweep => solve_all(&op.app, &SWEEP, &budget)
                .map(|solutions| {
                    SWEEP
                        .iter()
                        .zip(solutions)
                        .map(|(&(m, o), s)| (m, o, s))
                        .collect()
                })
                .map_err(|e| e.to_string()),
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let id = &op.source(solves, sweeps).id;
        let verdict = result.and_then(|solved| {
            solved.iter().try_for_each(|(model, objective, solution)| {
                check(&op.app, id, *model, *objective, solution, reference)
            })
        });
        match verdict {
            Ok(()) => tally.record(Outcome::Exact, ms, f64::INFINITY),
            Err(message) => {
                tally.record(Outcome::Failed, ms, f64::INFINITY);
                failures.push(message);
            }
        }
        latencies.push(ms);
    }
    latencies
}

/// Runs the workload (see the module docs).
pub fn run(args: &RunArgs) -> (Report, Tally) {
    let reference = parse_reference();
    let mut probe = HostProbe::new();
    // Set-up: input generation only (there is no service to build).
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let set_up = |setup_s: &mut Vec<(f64, f64)>, probe: &mut HostProbe| {
        let (inputs, seconds, slowdown) = probe.time(|| {
            let (solves, sweeps) = pool();
            let ops = ops_for_seed(args.seed, &solves, &sweeps);
            (solves, sweeps, ops)
        });
        setup_s.push((seconds, slowdown));
        inputs
    };
    let (solves, sweeps, ops) = set_up(&mut setup_s, &mut probe);
    // The host probe samples before every operation, and the other
    // set-ups run after every second one, all outside the timed window,
    // so the set-ups' median spans the run instead of one instant of a
    // shared host.
    let mut slowdowns = Vec::new();
    let mut calls = 0usize;
    let mut between = || {
        slowdowns.push(probe.sample());
        calls += 1;
        if calls.is_multiple_of(2) && setup_s.len() < SETUP_REPEATS {
            std::hint::black_box(set_up(&mut setup_s, &mut probe));
        }
    };

    let mut tally = Tally::default();
    let mut failures = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut pass_times = Vec::new();
    // Whole passes over the list while the next one fits the window (the
    // first always runs), so every run measures the same instance mix.
    loop {
        let started = Instant::now();
        latencies.extend(timed_pass(
            &ops,
            &solves,
            &sweeps,
            &reference,
            &mut tally,
            &mut failures,
            &mut between,
        ));
        let pass_s = started.elapsed().as_secs_f64();
        pass_times.push(pass_s);
        if pass_times.iter().sum::<f64>() + pass_s > args.seconds {
            break;
        }
    }
    slowdowns.push(probe.sample());
    // The timed window: the operations' own wall times.
    let busy_s = latencies.iter().sum::<f64>() / 1e3;
    let mut report = Report::default();
    report.note(format!("cold_solve: pass times {pass_times:.3?} s"));
    for message in failures.iter().take(20) {
        report.note(format!("FAILED {message}"));
    }
    let summary = summarize(&latencies, 90.0);
    let tail99 = summarize(&latencies, 99.0);
    let throughput = latencies.len() as f64 / busy_s;
    if !args.trace {
        let n = latencies.len();
        let normalised = probe::normalise(&latencies, &slowdowns);
        let norm = summarize(&normalised, 90.0);
        let norm_throughput = n as f64 * 1e3 / normalised.iter().sum::<f64>();
        let (setup_raw, setup_local) = probe::setup_medians(&setup_s);
        report.note(probe.describe());
        report.note(format!(
            "RAW setup {setup_raw:.6e} setup_local {setup_local:.6e} tput {throughput:.6} p50 {:.6} p90 {:.6}",
            summary.p50, summary.tail
        ));
        report.add("setup_s", setup_local, "s", setup_s.len());
        report.add("throughput_rps", norm_throughput, "req/s", n);
        report.add("max_rate_rps", norm_throughput, "req/s", n);
        report.add("latency_ms_p50", norm.p50, "ms", n);
        report.add("latency_ms_p90", norm.tail, "ms", n);
        report.note(format!(
            "latency_ms_p99 {} ms at p{:.1} (reported by traced runs, not gated)",
            tail99.tail, tail99.tail_p
        ));
        report.add(
            "answered_frac",
            tally.answered_frac(),
            "ratio",
            tally.attempted,
        );
        report.add("exact_frac", tally.exact_frac(), "ratio", tally.attempted);
        report.add("peak_rss_mb", peak_rss_mb() - probe::RESIDENT_MB, "MiB", 1);
        return (report, tally);
    }

    // Traced pass: the same list once more, with spans around each layer
    // call and the layer's own stats structs.
    let tracer = Tracer::default();
    let budget = SearchBudget::default();
    let mut by_objective: HashMap<&'static str, LayerTotals> = HashMap::new();
    let mut rows: std::collections::BTreeMap<String, RowTotals> = Default::default();
    let mut traced_op_ms = Vec::with_capacity(ops.len());
    for (op_id, op) in ops.iter().enumerate() {
        let op_id = op_id as u64;
        let mut op_solve_ms = 0.0;
        let _op_span = span(Some(&tracer), "op", op_id);
        let family = op.source(&solves, &sweeps).family;
        // A sweep shares one cache across its requests, exactly as
        // `solve_all` does; a single solve gets a fresh one.
        let shared = EvalCache::new(&op.app);
        for (model, objective) in op.requests() {
            let fresh;
            let cache = if op.is_sweep() {
                &shared
            } else {
                fresh = EvalCache::new(&op.app);
                &fresh
            };
            let before = cache.stats();
            let solved_at = Instant::now();
            let solved = {
                let _s = span(Some(&tracer), "sched.solve", op_id);
                solve_warm(
                    &Problem::new(&op.app, model, objective),
                    &budget,
                    cache,
                    None,
                )
            };
            let solve_ms = solved_at.elapsed().as_secs_f64() * 1e3;
            op_solve_ms += solve_ms;
            let Ok((solution, stats)) = solved else {
                continue; // counted as a failure by the untraced pass
            };
            let after = cache.stats();
            // The prelude, run again from outside exactly as the streamed
            // walk runs it (only where the solve used a shape plan).
            let mut prelude_ms = 0.0;
            if stats.stream.is_some_and(|s| s.shapes > 0) {
                let at = Instant::now();
                let _s = span(Some(&tracer), "core.prelude", op_id);
                let classes = WeightClasses::of(&op.app);
                let shape_objective = match objective {
                    Objective::MinPeriod => ShapeObjective::Period(model),
                    Objective::MinLatency => ShapeObjective::Latency,
                };
                let bounder = ShapeBounder::new(&op.app, shape_objective);
                std::hint::black_box(bound_ordered_shape_plan(
                    &classes,
                    Some(&bounder),
                    f64::INFINITY,
                    None,
                ));
                prelude_ms = at.elapsed().as_secs_f64() * 1e3;
            }
            // Orchestration of the winning graph, run again as a
            // fixed-graph solve.
            let at = Instant::now();
            {
                let _s = span(Some(&tracer), "sched.orchestrate", op_id);
                let fixed = Problem::on_graph(&op.app, model, objective, &solution.graph);
                std::hint::black_box(solve(&fixed, &budget).ok());
            }
            let orchestrate_ms = at.elapsed().as_secs_f64() * 1e3;
            let totals = by_objective.entry(objective_name(objective)).or_default();
            totals.solves += 1;
            totals.solve_ms += solve_ms;
            totals.prelude_ms += prelude_ms;
            totals.orchestrate_ms += orchestrate_ms;
            totals.evaluated += stats.evaluated;
            if let Some(stream) = stats.stream {
                totals.shapes += stream.shapes;
                totals.expanded += stream.expanded;
                totals.certified += stream.certified_shapes;
                totals.peak_resident = totals.peak_resident.max(stream.peak_resident);
            }
            totals.cache_hits += after.0 - before.0;
            totals.cache_misses += after.1 - before.1;
            let row = rows
                .entry(format!("{family} {model:?} {objective:?}"))
                .or_default();
            row.solves += 1;
            row.solve_ms += solve_ms;
            row.prelude_ms += prelude_ms;
            row.orchestrate_ms += orchestrate_ms;
        }
        traced_op_ms.push(op_solve_ms);
    }
    let spans = tracer.totals();
    report.note(format!(
        "traced pass: {} spans over {} operations",
        spans.values().map(|t| t.calls()).sum::<usize>(),
        ops.len()
    ));
    for (name, totals) in &spans {
        report.note(format!(
            "span {name:<20} calls {:>6} total {:>10.1} ms self {:>10.1} ms",
            totals.calls(),
            totals.total_ms(),
            totals.self_ms
        ));
    }
    report.note("row breakdown (per solve, ms): family model objective | solve | prelude | orchestrate | search est");
    for (row, t) in &rows {
        let k = t.solves as f64;
        report.note(format!(
            "row {row:<28} solves {:>3} solve {:>8.1} prelude {:>8.1} orchestrate {:>8.1} search {:>8.1}",
            t.solves,
            t.solve_ms / k,
            t.prelude_ms / k,
            t.orchestrate_ms / k,
            (t.solve_ms - t.prelude_ms - t.orchestrate_ms) / k
        ));
    }
    for objective in ["minperiod", "minlatency"] {
        let t = by_objective.remove(objective).unwrap_or_default();
        let solves_n = t.solves;
        report.add(
            format!("sched.solve.ms_total.{objective}"),
            t.solve_ms,
            "ms",
            solves_n,
        );
        report.add(
            format!("sched.solve.evaluated.{objective}"),
            t.evaluated as f64,
            "count",
            solves_n,
        );
        report.add(
            format!("sched.orchestrate.ms_total.{objective}"),
            t.orchestrate_ms,
            "ms",
            solves_n,
        );
        report.add(
            format!("sched.engine.prelude_ms_total.{objective}"),
            t.prelude_ms,
            "ms",
            solves_n,
        );
        report.add(
            format!("sched.engine.prelude_share.{objective}"),
            if t.solve_ms > 0.0 {
                t.prelude_ms / t.solve_ms
            } else {
                0.0
            },
            "ratio",
            solves_n,
        );
        report.add(
            format!("sched.engine.search_ms_est.{objective}"),
            t.solve_ms - t.prelude_ms - t.orchestrate_ms,
            "ms",
            solves_n,
        );
        report.add(
            format!("sched.engine.shapes.{objective}"),
            t.shapes as f64,
            "count",
            solves_n,
        );
        report.add(
            format!("sched.engine.expanded.{objective}"),
            t.expanded as f64,
            "count",
            solves_n,
        );
        report.add(
            format!("sched.engine.certified_shapes.{objective}"),
            t.certified as f64,
            "count",
            solves_n,
        );
        report.add(
            format!("sched.engine.peak_resident.{objective}"),
            t.peak_resident as f64,
            "count",
            solves_n,
        );
        let lookups = t.cache_hits + t.cache_misses;
        report.add(
            format!("sched.engine.eval_cache.hits.{objective}"),
            t.cache_hits as f64,
            "count",
            lookups,
        );
        report.add(
            format!("sched.engine.eval_cache.misses.{objective}"),
            t.cache_misses as f64,
            "count",
            lookups,
        );
        report.add(
            format!("sched.engine.eval_cache.hit_ratio.{objective}"),
            if lookups > 0 {
                t.cache_hits as f64 / lookups as f64
            } else {
                0.0
            },
            "ratio",
            lookups,
        );
    }
    // Tracing overhead: the traced median operation time (its solve
    // spans only; the duplicate prelude and orchestration calls are
    // excluded) against the untraced median.
    report.add("latency_ms_p99", tail99.tail, "ms", tail99.n);
    report.add(
        "trace.overhead_frac",
        median(&traced_op_ms) / summary.p50 - 1.0,
        "ratio",
        traced_op_ms.len(),
    );
    crate::write_spans(&tracer, args);
    (report, tally)
}

/// Solves every pool instance over its recorded labelling and prints the
/// optima in the format of `reference/cold_solve.txt`.
pub fn record_reference() -> Result<(), String> {
    let budget = SearchBudget::default();
    let (solves, sweeps) = pool();
    println!("# cold_solve pool optima: app id, model, objective, value.");
    println!("# Recorded with `perfbench --record-reference` (default SearchBudget, serial).");
    let emit = |id: &str, model: CommModel, objective: Objective, solution: &Solution| {
        if !solution.exhaustive {
            return Err(format!("{id} {model:?} {objective:?}: not exhaustive"));
        }
        println!("{id} {model:?} {objective:?} {:?}", solution.value);
        Ok(())
    };
    for app in &solves {
        let application = Application::independent(&app.specs);
        for &(model, objective) in &SWEEP {
            let problem = Problem::new(&application, model, objective);
            let solution = solve(&problem, &budget).map_err(|e| e.to_string())?;
            emit(&app.id, model, objective, &solution)?;
        }
    }
    for app in &sweeps {
        let application = Application::independent(&app.specs);
        let solutions = solve_all(&application, &SWEEP, &budget).map_err(|e| e.to_string())?;
        for (&(model, objective), solution) in SWEEP.iter().zip(&solutions) {
            emit(&app.id, model, objective, solution)?;
        }
    }
    Ok(())
}
