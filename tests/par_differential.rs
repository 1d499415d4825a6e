//! Differential testing of the parallel engines against their serial
//! counterparts across real thread counts.
//!
//! With the rayon shim now executing genuinely concurrently, the key
//! invariant is that concurrency changes the *schedule*, never the
//! *answer*: every parallel engine, on every graph shape, at every thread
//! width, must produce a valid maximum matching of the same cardinality
//! as its serial twin — certified both ways (König cover and Berge "no
//! augmenting path"). A 1-thread solve must additionally be bit-for-bit
//! deterministic (the shim guarantees the exact sequential code path).
//!
//! The CI concurrency-stress step loops this binary with varied
//! `GRAFT_DIFF_SEED` values under `GRAFT_THREADS=4`, so the initializer
//! seed is env-overridable.

use ms_bfs_graft::prelude::*;

/// Thread widths exercised; mirrors the scaling benchmark sweep.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Three structurally distinct suite shapes: near-regular mesh-like
/// (kkt_power), skewed power-law (RMAT), and bow-tie web (wikipedia).
const GRAPHS: [&str; 3] = ["kkt_power", "RMAT", "wikipedia"];

/// (parallel engine, serial twin) pairs under test.
const ENGINE_PAIRS: [(Algorithm, Algorithm); 3] = [
    (Algorithm::PothenFanParallel, Algorithm::PothenFan),
    (Algorithm::MsBfsGraftParallel, Algorithm::MsBfsGraft),
    (Algorithm::PushRelabelParallel, Algorithm::PushRelabel),
];

/// `ms-bfs-graft-par` from the empty matching. The Karp-Sipser starts
/// leave every top-down level below the engine's split grain, so none of
/// their visited claims is concurrent. From the empty matching the first
/// level is all of X: plain MS-BFS sweeps it top-down with concurrent
/// claims, MS-BFS-Graft bottom-up.
fn empty_start_cases() -> [(&'static str, MsBfsOptions); 2] {
    [
        (" from empty (plain)", MsBfsOptions::plain()),
        (" from empty (graft)", MsBfsOptions::graft()),
    ]
}

/// Base initializer seed; the stress loop varies it per iteration.
fn base_seed() -> u64 {
    std::env::var("GRAFT_DIFF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn opts(threads: usize, seed: u64) -> SolveOptions {
    SolveOptions {
        threads,
        seed,
        ..SolveOptions::default()
    }
}

/// Full mate vector — equality here is "byte-identical matching", much
/// stronger than equal cardinality.
fn mates(g: &graph::BipartiteCsr, m: &Matching) -> Vec<u32> {
    (0..g.num_x() as u32).map(|x| m.mate_of_x(x)).collect()
}

#[test]
fn parallel_engines_match_serial_at_every_width() {
    let seeds = [base_seed(), base_seed().wrapping_add(17)];
    for name in GRAPHS {
        let g = gen::suite::by_name(name).unwrap().build(gen::Scale::Tiny);
        for seed in seeds {
            let mut cases: Vec<(Algorithm, Algorithm, &str, SolveOptions)> = ENGINE_PAIRS
                .iter()
                .map(|&(par, serial)| (par, serial, "", opts(1, seed)))
                .collect();
            for (label, ms_bfs) in empty_start_cases() {
                let o = SolveOptions {
                    initializer: matching::init::Initializer::None,
                    ms_bfs,
                    ..opts(1, seed)
                };
                cases.push((
                    Algorithm::MsBfsGraftParallel,
                    Algorithm::MsBfsGraft,
                    label,
                    o,
                ));
            }
            for (par, serial, label, o) in cases {
                let baseline = solve(&g, serial, &o);
                baseline.matching.validate(&g).unwrap();
                let want = baseline.matching.cardinality();
                for t in THREAD_COUNTS {
                    let out = solve(&g, par, &SolveOptions { threads: t, ..o });
                    let ctx = format!("{} on {name} seed={seed} threads={t}{label}", par.name());
                    out.matching
                        .validate(&g)
                        .unwrap_or_else(|e| panic!("{ctx}: invalid matching: {e}"));
                    assert_eq!(
                        out.matching.cardinality(),
                        want,
                        "{ctx}: cardinality disagrees with serial {}",
                        serial.name()
                    );
                    // König certificate: a vertex cover of equal size.
                    matching::verify::certify_maximum(&g, &out.matching)
                        .unwrap_or_else(|e| panic!("{ctx}: König certificate failed: {e}"));
                    // Berge certificate: no augmenting path survives.
                    assert!(
                        matching::verify::find_augmenting_path(&g, &out.matching).is_none(),
                        "{ctx}: augmenting path exists — matching not maximum"
                    );
                }
            }
        }
    }
}

#[test]
fn one_thread_solves_are_bit_identical() {
    // threads=1 takes the exact sequential code path in the shim, so two
    // runs must agree on every mate, not just on cardinality — this is
    // the anchor that keeps recorded artifacts reproducible.
    let seed = base_seed();
    for name in GRAPHS {
        let g = gen::suite::by_name(name).unwrap().build(gen::Scale::Tiny);
        for (par, _) in ENGINE_PAIRS {
            let a = solve(&g, par, &opts(1, seed));
            let b = solve(&g, par, &opts(1, seed));
            assert_eq!(
                mates(&g, &a.matching),
                mates(&g, &b.matching),
                "{} on {name}: threads=1 reruns disagree",
                par.name()
            );
        }
    }
}

#[test]
fn one_thread_parallel_engines_match_installed_singleton_pool() {
    // Pinning threads=1 through SolveOptions and running inside an
    // explicitly installed 1-thread pool are the same configuration by
    // two routes; both must yield the same mates.
    let seed = base_seed();
    let g = gen::suite::by_name("RMAT").unwrap().build(gen::Scale::Tiny);
    for (par, _) in ENGINE_PAIRS {
        let direct = solve(&g, par, &opts(1, seed));
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let installed = pool.install(|| solve(&g, par, &opts(0, seed)));
        assert_eq!(
            mates(&g, &direct.matching),
            mates(&g, &installed.matching),
            "{}: threads=1 vs installed 1-thread pool disagree",
            par.name()
        );
    }
}

#[test]
fn one_thread_parallel_graft_is_the_serial_engine() {
    // At width 1 the paper's parallel MS-BFS-Graft must be the serial
    // engine, not merely agree with it: same mates, same counters, in all
    // three Fig. 7 configurations and from both a Karp-Sipser and an
    // empty start.
    let configs = [
        MsBfsOptions::plain(),
        MsBfsOptions::dir_opt_only(),
        MsBfsOptions::graft(),
    ];
    let inits = [
        matching::init::Initializer::KarpSipser,
        matching::init::Initializer::None,
    ];
    for name in GRAPHS.iter().chain(&["road_usa"]) {
        let g = gen::suite::by_name(name).unwrap().build(gen::Scale::Tiny);
        for ms_bfs in configs {
            for initializer in inits {
                let o = SolveOptions {
                    threads: 1,
                    seed: base_seed(),
                    initializer,
                    ms_bfs,
                    ..SolveOptions::default()
                };
                let s = solve(&g, Algorithm::MsBfsGraft, &o);
                let p = solve(&g, Algorithm::MsBfsGraftParallel, &o);
                let ctx = format!("{name} {initializer:?} {ms_bfs:?}");
                assert_eq!(p.matching.mates_x(), s.matching.mates_x(), "{ctx}");
                assert_eq!(p.matching.mates_y(), s.matching.mates_y(), "{ctx}");
                assert_eq!(p.stats.phases, s.stats.phases, "{ctx}");
                assert_eq!(p.stats.edges_traversed, s.stats.edges_traversed, "{ctx}");
                assert_eq!(p.stats.augmenting_paths, s.stats.augmenting_paths, "{ctx}");
                assert_eq!(
                    p.stats.total_augmenting_path_edges, s.stats.total_augmenting_path_edges,
                    "{ctx}"
                );
            }
        }
    }
}
