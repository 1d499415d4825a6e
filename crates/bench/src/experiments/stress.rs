//! Seeded, time-budgeted concurrency stress: the par-differential
//! invariant loop promoted from a fixed 20× CI shell loop into a
//! first-class subcommand.
//!
//! Each iteration solves three structurally distinct suite graphs with
//! every (parallel, serial) engine pair at widths 1/2/4/8, under a fresh
//! initializer seed, plus `ms-bfs-graft-par` from the empty matching, and
//! demands that concurrency changes the *schedule*, never the *answer*:
//! equal cardinality with the serial twin, a valid matching, a König
//! cover of equal size, and no surviving augmenting path (Berge).
//! Iterations repeat until the wall-clock budget is spent (always at
//! least one). On failure the exact replay command — same seed, one
//! iteration — is printed.

use crate::report::Report;
use crate::Config;
use graft_core::init::Initializer;
use graft_core::{solve, Algorithm, MsBfsOptions, SolveOptions};
use graft_gen::suite::by_name;
use std::time::{Duration, Instant};

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

/// Knobs for [`stress`]; both surface as `experiments stress` CLI flags.
#[derive(Clone, Copy, Debug)]
pub struct StressOptions {
    /// Base seed; iteration `i` perturbs it deterministically.
    pub seed: u64,
    /// Wall-clock budget. At least one iteration always runs; no new
    /// iteration starts after the budget is spent.
    pub budget: Duration,
}

impl Default for StressOptions {
    fn default() -> Self {
        StressOptions {
            seed: 7919,
            budget: Duration::from_secs(60),
        }
    }
}

/// Seed for iteration `i`: the same prime stride the old CI shell loop
/// used, so historical failure seeds remain reachable.
fn iter_seed(base: u64, i: u64) -> u64 {
    base.wrapping_add(i.wrapping_mul(7919))
}

/// One full differential sweep at `seed`. Returns the number of solves
/// checked, or a description of the first violated invariant.
fn one_iteration(cfg: &Config, seed: u64) -> Result<usize, String> {
    let mut checked = 0usize;
    for name in GRAPHS {
        let g = by_name(name)
            .unwrap_or_else(|| panic!("suite graph {name} missing"))
            .build(cfg.scale);
        let base_opts = SolveOptions {
            threads: 1,
            seed,
            ..SolveOptions::default()
        };
        let mut cases: Vec<(Algorithm, Algorithm, &str, SolveOptions)> = ENGINE_PAIRS
            .iter()
            .map(|&(par, serial)| (par, serial, "", base_opts))
            .collect();
        for (label, ms_bfs) in empty_start_cases() {
            cases.push((
                Algorithm::MsBfsGraftParallel,
                Algorithm::MsBfsGraft,
                label,
                SolveOptions {
                    initializer: Initializer::None,
                    ms_bfs,
                    ..base_opts
                },
            ));
        }
        for (par, serial, label, base_opts) in cases {
            let baseline = solve(&g, serial, &base_opts);
            baseline.matching.validate(&g).map_err(|e| {
                format!("{} on {name}: invalid serial baseline: {e}", serial.name())
            })?;
            let want = baseline.matching.cardinality();
            for threads in THREAD_COUNTS {
                let out = solve(
                    &g,
                    par,
                    &SolveOptions {
                        threads,
                        ..base_opts
                    },
                );
                let ctx = format!(
                    "{} on {name} seed={seed} threads={threads}{label}",
                    par.name()
                );
                out.matching
                    .validate(&g)
                    .map_err(|e| format!("{ctx}: invalid matching: {e}"))?;
                if out.matching.cardinality() != want {
                    return Err(format!(
                        "{ctx}: cardinality {} disagrees with serial {} ({want})",
                        out.matching.cardinality(),
                        serial.name()
                    ));
                }
                // König certificate: a vertex cover of equal size.
                graft_core::verify::certify_maximum(&g, &out.matching)
                    .map_err(|e| format!("{ctx}: König certificate failed: {e}"))?;
                // Berge certificate: no augmenting path survives.
                if graft_core::verify::find_augmenting_path(&g, &out.matching).is_some() {
                    return Err(format!("{ctx}: augmenting path exists — not maximum"));
                }
                checked += 1;
            }
        }
    }
    Ok(checked)
}

/// Runs the stress loop; exits with an error (after printing the replay
/// command) on the first violated invariant.
pub fn stress(cfg: &Config, opts: &StressOptions) -> std::io::Result<()> {
    let start = Instant::now();
    let mut r = Report::new(
        "stress_differential",
        format!(
            "concurrency stress — König+Berge-certified par-vs-serial differential, \
             base seed {}, budget {:?}",
            opts.seed, opts.budget
        ),
        &["iteration", "seed", "solves checked", "elapsed (s)"],
    );
    let mut total = 0usize;
    let mut iterations = 0u64;
    loop {
        let seed = iter_seed(opts.seed, iterations);
        match one_iteration(cfg, seed) {
            Ok(n) => {
                total += n;
                r.row(vec![
                    iterations.to_string(),
                    seed.to_string(),
                    n.to_string(),
                    format!("{:.2}", start.elapsed().as_secs_f64()),
                ]);
            }
            Err(msg) => {
                eprintln!("stress iteration {iterations} failed: {msg}");
                eprintln!(
                    "replay with: experiments stress --seed {seed} --budget-secs 0 --scale {}",
                    format!("{:?}", cfg.scale).to_lowercase()
                );
                return Err(std::io::Error::other(msg));
            }
        }
        iterations += 1;
        if start.elapsed() >= opts.budget {
            break;
        }
    }
    r.note(format!(
        "{iterations} iteration(s), {total} certified solves in {:.2}s — every parallel \
         engine agreed with its serial twin at widths {THREAD_COUNTS:?}",
        start.elapsed().as_secs_f64()
    ));
    r.emit(&cfg.out_dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn stress_runs_one_iteration_at_tiny_scale() {
        let cfg = Config {
            scale: Scale::Tiny,
            reps: 1,
            threads: 2,
            out_dir: std::env::temp_dir().join("graft_bench_stress_test"),
            ..Config::default()
        };
        let opts = StressOptions {
            seed: 1,
            budget: Duration::ZERO, // at-least-one semantics
        };
        stress(&cfg, &opts).unwrap();
    }

    #[test]
    fn iter_seeds_match_the_old_ci_stride() {
        assert_eq!(iter_seed(0, 1), 7919);
        assert_eq!(iter_seed(0, 20), 20 * 7919);
        assert_eq!(iter_seed(5, 2), 5 + 2 * 7919);
    }
}
