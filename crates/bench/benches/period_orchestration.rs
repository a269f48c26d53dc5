//! Benchmarks for period orchestration (experiments E1 and E4):
//! the Proposition 1 OVERLAP construction, the INORDER ordering search and the
//! OUTORDER cyclic scheduler on the paper's instances and on fork-joins of
//! growing width.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fsw_sched::oneport::{oneport_period_search, OnePortStyle};
use fsw_sched::orchestrator::SearchBudget;
use fsw_sched::outorder::outorder_period_search;
use fsw_sched::overlap::overlap_period_oplist;
use fsw_workloads::{counterexample_b3, fork_join, section23};

fn bench_period_orchestration(c: &mut Criterion) {
    let mut group = c.benchmark_group("period_orchestration");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));

    let s23 = section23();
    group.bench_function("overlap_prop1/section23", |b| {
        b.iter(|| overlap_period_oplist(&s23.app, s23.graph()).unwrap())
    });
    group.bench_function("inorder_search/section23", |b| {
        b.iter(|| {
            oneport_period_search(&s23.app, s23.graph(), OnePortStyle::InOrder, 1_000).unwrap()
        })
    });
    // The 20 000-ordering INORDER fallback cap this bench has always used.
    let outorder_budget = SearchBudget {
        max_orderings: 20_000,
        ..SearchBudget::default()
    };
    group.bench_function("outorder_search/section23", |b| {
        b.iter(|| outorder_period_search(&s23.app, s23.graph(), &outorder_budget).unwrap())
    });

    let b3 = counterexample_b3();
    group.bench_function("overlap_prop1/b3", |b| {
        b.iter(|| overlap_period_oplist(&b3.app, b3.graph()).unwrap())
    });
    group.bench_function("oneport_overlap_search/b3", |b| {
        b.iter(|| {
            oneport_period_search(&b3.app, b3.graph(), OnePortStyle::OverlapPorts, 500).unwrap()
        })
    });

    for width in [2usize, 4, 8, 16] {
        let inst = fork_join(width, 2.0, 1.0);
        group.bench_with_input(
            BenchmarkId::new("overlap_prop1/fork_join", width),
            &width,
            |b, _| b.iter(|| overlap_period_oplist(&inst.app, inst.graph()).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("inorder_heuristic/fork_join", width),
            &width,
            |b, _| {
                b.iter(|| {
                    oneport_period_search(&inst.app, inst.graph(), OnePortStyle::InOrder, 1)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_period_orchestration);
criterion_main!(benches);
