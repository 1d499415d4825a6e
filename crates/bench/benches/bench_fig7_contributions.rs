//! Criterion bench for Fig. 7: plain MS-BFS vs. +direction-optimization
//! vs. +grafting (the paper's two-technique ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graft_core::{init::random_greedy, solve_from, Algorithm, MsBfsOptions, SolveOptions};
use graft_gen::suite::GraphClass;
use graft_gen::{suite::suite, Scale};

fn bench(c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let configs: [(&str, MsBfsOptions); 3] = [
        ("plain", MsBfsOptions::plain()),
        ("dirOpt", MsBfsOptions::dir_opt_only()),
        ("graft", MsBfsOptions::graft()),
    ];
    let mut group = c.benchmark_group("fig7_contributions");
    group.sample_size(10);
    // One scientific and one low-matching analog: the classes where
    // grafting helps least and most.
    for entry in suite()
        .into_iter()
        .filter(|e| e.name == "kkt_power" || e.class == GraphClass::Web)
        .take(3)
    {
        let g = entry.build(Scale::Tiny);
        let m0 = random_greedy(&g, 0xC0FFEE);
        for (label, ms_bfs) in configs {
            let opts = SolveOptions {
                threads,
                ms_bfs,
                ..SolveOptions::default()
            };
            group.bench_with_input(BenchmarkId::new(label, entry.name), &g, |b, g| {
                b.iter(|| {
                    let out = solve_from(g, m0.clone(), Algorithm::MsBfsGraftParallel, &opts);
                    std::hint::black_box(out.matching.cardinality())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
