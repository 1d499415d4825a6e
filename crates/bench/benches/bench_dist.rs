//! Criterion bench for the distributed (BSP-simulated) MS-BFS-Graft
//! engine across rank counts — measures the simulation overhead of the
//! paper's future-work algorithm against the shared-memory engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graft_core::{init::random_greedy, solve_from, Algorithm, SolveOptions};
use graft_dist::distributed_ms_bfs_graft;
use graft_gen::{suite::by_name, Scale};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("dist_engine");
    group.sample_size(10);
    for name in ["cit-Patents", "wikipedia"] {
        let entry = by_name(name).expect("suite graph");
        let g = entry.build(Scale::Tiny);
        let m0 = random_greedy(&g, 0xC0FFEE);
        group.bench_with_input(BenchmarkId::new("shared", name), &g, |b, g| {
            b.iter(|| {
                let opts = SolveOptions::default();
                let out = solve_from(g, m0.clone(), Algorithm::MsBfsGraftParallel, &opts);
                std::hint::black_box(out.matching.cardinality())
            })
        });
        for ranks in [1usize, 4, 16] {
            group.bench_with_input(
                BenchmarkId::new(format!("bsp_p{ranks}"), name),
                &g,
                |b, g| {
                    b.iter(|| {
                        let out = distributed_ms_bfs_graft(g, m0.clone(), ranks);
                        std::hint::black_box(out.matching.cardinality())
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
