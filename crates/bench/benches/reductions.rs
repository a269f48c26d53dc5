//! Benchmarks for the NP-hardness gadgets (experiments E5–E7): how long the
//! exact solvers take on YES instances of growing size, illustrating the
//! exponential behaviour the complexity results predict.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fsw_rn3dm::{prop2_period_outorder, prop9_latency_forkjoin, yes_instance};
use fsw_sched::latency::oneport_latency_search;
use fsw_sched::orchestrator::SearchBudget;
use fsw_sched::outorder::outorder_schedule_at;

fn bench_reductions(c: &mut Criterion) {
    let mut group = c.benchmark_group("reductions");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    for n in [2usize, 3, 4] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let (inst, _) = yes_instance(n, &mut rng);
        let prop2 = prop2_period_outorder(&inst);
        group.bench_with_input(
            BenchmarkId::new("prop2_outorder_at_bound", n),
            &n,
            |b, _| {
                b.iter(|| {
                    outorder_schedule_at(
                        &prop2.app,
                        &prop2.graph,
                        prop2.bound,
                        &SearchBudget::default(),
                    )
                    .unwrap()
                })
            },
        );
        let prop9 = prop9_latency_forkjoin(&inst);
        group.bench_with_input(
            BenchmarkId::new("prop9_latency_exhaustive", n),
            &n,
            |b, _| b.iter(|| oneport_latency_search(&prop9.app, &prop9.graph, 1_000_000).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_reductions);
criterion_main!(benches);
