//! Phase anatomy: a per-phase dissection of one MS-BFS-Graft run,
//! showing the mechanism behind Figs. 7 and 8 — early phases harvest
//! many short augmenting paths and often rebuild; later phases graft,
//! start with big frontiers, and chase the few remaining long paths.

use super::load_instance;
use crate::report::Report;
use crate::Config;
use graft_core::trace::{replay, MemorySink};
use graft_core::{solve_from_traced_in, Algorithm, SolveOptions, SolveWorkspace, Tracer};
use graft_gen::suite::by_name;
use std::sync::Arc;

/// Prints the phase-by-phase trace of MS-BFS-Graft on the coPapersDBLP
/// and wikipedia analogs (one high-, one low-matching-number instance),
/// as [`replay`] reconstructs and validates it from the run's events.
pub fn anatomy(cfg: &Config) -> std::io::Result<()> {
    let mut r = Report::new(
        "anatomy_phases",
        "Phase anatomy of MS-BFS-Graft (per-phase trace)",
        &[
            "graph",
            "phase",
            "levels",
            "bottom-up",
            "peak |F|",
            "edges",
            "aug paths",
            "avg |P|",
            "activeX",
            "renewY",
            "next",
        ],
    );
    for name in ["coPapersDBLP", "wikipedia"] {
        let entry = by_name(name).expect("suite graph");
        let inst = load_instance(entry, cfg);
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::to_sink(Arc::clone(&sink) as _);
        let (alg, opts) = (Algorithm::MsBfsGraft, SolveOptions::default());
        let m0 = inst.init.clone();
        solve_from_traced_in(
            &inst.graph,
            m0,
            alg,
            &opts,
            &tracer,
            &mut SolveWorkspace::new(),
        );
        let runs = replay(&sink.take()).map_err(std::io::Error::other)?;
        for p in &runs[0].phases {
            let avg_p = if p.augmentations == 0 {
                0.0
            } else {
                p.path_edges as f64 / p.augmentations as f64
            };
            // Only the final phase, which found no path, has no decision.
            let (active_x, renewable_y, next) = match p.graft {
                Some(g) => (
                    g.active_x,
                    g.renewable_y,
                    if g.grafted { "graft" } else { "rebuild" },
                ),
                None => (0, 0, "done"),
            };
            r.row(vec![
                name.into(),
                p.phase.to_string(),
                p.levels.to_string(),
                p.bottom_up_levels.to_string(),
                p.frontier_peak.to_string(),
                p.edges_traversed.to_string(),
                p.augmentations.to_string(),
                format!("{avg_p:.1}"),
                active_x.to_string(),
                renewable_y.to_string(),
                next.into(),
            ]);
        }
    }
    r.note("paper expectation (§III-B): 'tree-grafting is usually not beneficial in the first few phases when a large number of augmenting paths is discovered' — the early phases should say rebuild, the late ones graft.");
    r.emit(&cfg.out_dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn anatomy_runs_at_tiny_scale() {
        let cfg = Config {
            scale: Scale::Tiny,
            reps: 1,
            threads: 2,
            out_dir: std::env::temp_dir().join("graft_bench_anatomy_test"),
            ..Config::default()
        };
        anatomy(&cfg).unwrap();
        let csv = std::fs::read_to_string(cfg.out_dir.join("anatomy_phases.csv")).unwrap();
        for graph in ["coPapersDBLP", "wikipedia"] {
            assert!(
                csv.lines()
                    .skip(1)
                    .any(|row| row.split(',').next() == Some(graph)),
                "no {graph} row in\n{csv}"
            );
        }
    }
}
