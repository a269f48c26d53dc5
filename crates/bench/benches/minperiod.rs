//! Benchmarks for the MINPERIOD solvers (experiments E2, E9, E10):
//! exhaustive forest enumeration vs local search vs the no-communication
//! baseline on query-optimisation workloads of growing size.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fsw_core::CommModel;
use fsw_sched::baseline::nocomm_minperiod_plan;
use fsw_sched::minperiod::{minimize_period, minperiod_local_search};
use fsw_sched::orchestrator::SearchBudget;
use fsw_workloads::query_optimization;

fn bench_minperiod(c: &mut Criterion) {
    let mut group = c.benchmark_group("minperiod");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let budget = SearchBudget::default();
    let mut rng = StdRng::seed_from_u64(1);
    for n in [4usize, 5, 6] {
        let app = query_optimization(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("exhaustive_forests", n), &n, |b, _| {
            b.iter(|| minimize_period(&app, CommModel::Overlap, &budget).unwrap())
        });
    }
    for n in [6usize, 10, 14] {
        let app = query_optimization(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("local_search", n), &n, |b, _| {
            b.iter(|| minperiod_local_search(&app, CommModel::Overlap, &budget).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("nocomm_baseline", n), &n, |b, _| {
            b.iter(|| nocomm_minperiod_plan(&app).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_minperiod);
criterion_main!(benches);
