//! Regression pin of the serial MS-BFS engine's exact output.
//!
//! For the three Fig. 7 configurations on four tiny suite graphs, started
//! from the default Karp-Sipser matching and from the empty matching (on
//! RMAT and wikipedia Karp-Sipser is already maximum, so only the empty
//! start exercises augmentation and grafting there), the engine's full
//! mate vectors (as an FNV-1a fingerprint) and its search counters are
//! recorded here.
//! Any change to the engine — a refactor of how it executes, of its
//! buffers, of its sweep order — must reproduce every value unchanged.

use matching::init::Initializer;
use ms_bfs_graft::prelude::*;

/// FNV-1a over both mate vectors: equal fingerprints mean (with
/// overwhelming probability) byte-identical matchings.
fn fingerprint(m: &Matching) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in m.mates_x().iter().chain(m.mates_y()) {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(graph, initializer, algorithm, fingerprint, |M|, phases,
/// edges_traversed, augmenting_paths, total_augmenting_path_edges)`.
type Pin = (
    &'static str,
    Initializer,
    Algorithm,
    u64,
    usize,
    u32,
    u64,
    u64,
    u64,
);

/// Recorded from the engine before it was made generic over its
/// execution strategy.
#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("kkt_power", Initializer::KarpSipser, Algorithm::MsBfs, 3111177668698107425, 1500, 4, 12394, 16, 156),
    ("kkt_power", Initializer::KarpSipser, Algorithm::MsBfsDirOpt, 13736525074720792401, 1500, 3, 13771, 16, 212),
    ("kkt_power", Initializer::KarpSipser, Algorithm::MsBfsGraft, 6473966836122611977, 1500, 4, 32654, 16, 334),
    ("kkt_power", Initializer::None, Algorithm::MsBfs, 12576240206151215981, 1500, 14, 104697, 1500, 2822),
    ("kkt_power", Initializer::None, Algorithm::MsBfsDirOpt, 5490005681045835677, 1500, 2, 5625, 1500, 1500),
    ("kkt_power", Initializer::None, Algorithm::MsBfsGraft, 5490005681045835677, 1500, 2, 5625, 1500, 1500),
    ("RMAT", Initializer::KarpSipser, Algorithm::MsBfs, 11677580744580948221, 953, 1, 2234, 0, 0),
    ("RMAT", Initializer::KarpSipser, Algorithm::MsBfsDirOpt, 11677580744580948221, 953, 1, 9089, 0, 0),
    ("RMAT", Initializer::KarpSipser, Algorithm::MsBfsGraft, 11677580744580948221, 953, 1, 9089, 0, 0),
    ("RMAT", Initializer::None, Algorithm::MsBfs, 18310339712657928035, 953, 7, 33105, 953, 1255),
    ("RMAT", Initializer::None, Algorithm::MsBfsDirOpt, 855361197044962001, 953, 18, 185445, 953, 1791),
    ("RMAT", Initializer::None, Algorithm::MsBfsGraft, 18223566209571949918, 953, 24, 83352, 953, 1989),
    ("wikipedia", Initializer::KarpSipser, Algorithm::MsBfs, 11335366572005803969, 969, 1, 1765, 0, 0),
    ("wikipedia", Initializer::KarpSipser, Algorithm::MsBfsDirOpt, 11335366572005803969, 969, 1, 5478, 0, 0),
    ("wikipedia", Initializer::KarpSipser, Algorithm::MsBfsGraft, 11335366572005803969, 969, 1, 5478, 0, 0),
    ("wikipedia", Initializer::None, Algorithm::MsBfs, 16749435180601898831, 969, 5, 29146, 969, 1079),
    ("wikipedia", Initializer::None, Algorithm::MsBfsDirOpt, 14416647476753347024, 969, 12, 67669, 969, 1261),
    ("wikipedia", Initializer::None, Algorithm::MsBfsGraft, 449905844384610316, 969, 16, 19025, 969, 1263),
    ("road_usa", Initializer::KarpSipser, Algorithm::MsBfs, 6884587796012220195, 2021, 9, 48065, 35, 1405),
    ("road_usa", Initializer::KarpSipser, Algorithm::MsBfsDirOpt, 11711914697533348976, 2021, 9, 48236, 35, 1407),
    ("road_usa", Initializer::KarpSipser, Algorithm::MsBfsGraft, 17006877722537845047, 2021, 11, 80308, 35, 1627),
    ("road_usa", Initializer::None, Algorithm::MsBfs, 16209665061210412973, 2021, 10, 47595, 2021, 4235),
    ("road_usa", Initializer::None, Algorithm::MsBfsDirOpt, 1302283637625883133, 2021, 7, 29928, 2021, 2611),
    ("road_usa", Initializer::None, Algorithm::MsBfsGraft, 2686718002675690649, 2021, 7, 38033, 2021, 2783),
];

#[test]
fn serial_ms_bfs_output_is_pinned() {
    let mut seen = Vec::new();
    for name in ["kkt_power", "RMAT", "wikipedia", "road_usa"] {
        let g = gen::suite::by_name(name).unwrap().build(gen::Scale::Tiny);
        for (init, alg) in [Initializer::KarpSipser, Initializer::None]
            .into_iter()
            .flat_map(|i| {
                [
                    Algorithm::MsBfs,
                    Algorithm::MsBfsDirOpt,
                    Algorithm::MsBfsGraft,
                ]
                .map(|a| (i, a))
            })
        {
            let opts = SolveOptions {
                initializer: init,
                ..SolveOptions::default()
            };
            let out = solve(&g, alg, &opts);
            let s = &out.stats;
            seen.push((
                name,
                init,
                alg,
                fingerprint(&out.matching),
                out.matching.cardinality(),
                s.phases,
                s.edges_traversed,
                s.augmenting_paths,
                s.total_augmenting_path_edges,
            ));
        }
    }
    assert_eq!(seen.len(), PINS.len());
    for (got, want) in seen.iter().zip(PINS) {
        assert_eq!(got, want, "pinned serial output changed");
    }
}
