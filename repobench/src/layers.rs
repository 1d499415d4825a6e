//! Direct calls into each layer's public functions, timed and recorded
//! as spans, on the same graph the service holds.

use crate::report::Metrics;
use crate::spans::SpanLog;
use crate::stats::{median, Samples};
use crate::workload::Op;
use graft_core::init::Initializer;
use graft_core::stats::Breakdown;
use graft_core::trace::{MemorySink, TraceEvent};
use graft_core::{solve_from_in, solve_from_traced_in, verify, Algorithm, Matching};
use graft_core::{SolveOptions, SolveWorkspace, Tracer};
use graft_dyn::{DynConfig, DynamicMatching, UpdateOutcome, UpdateReport};
use graft_graph::BipartiteCsr;
use std::sync::Arc;
use std::time::Instant;

/// Karp-Sipser seed the service uses (`SolveOptions::default().seed`).
pub const KS_SEED: u64 = 1;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The five timed steps of an MS-BFS phase (Fig. 6), in ms.
fn steps_ms(b: &Breakdown) -> [(&'static str, f64); 5] {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    [
        ("top_down", ms(b.top_down)),
        ("bottom_up", ms(b.bottom_up)),
        ("augment", ms(b.augment)),
        ("graft", ms(b.graft)),
        ("statistics", ms(b.statistics)),
    ]
}

/// Repeated engine runs from one start matching.
struct EngineRuns {
    engine_ms: Vec<f64>,
    steps: Vec<[(&'static str, f64); 5]>,
    edges: u64,
    phases: u32,
    paths: u64,
}

impl EngineRuns {
    fn step_median(&self, i: usize) -> f64 {
        median(&self.steps.iter().map(|s| s[i].1).collect::<Vec<_>>())
    }

    /// Engine span minus the five steps, per run, median.
    fn unattributed_median(&self) -> f64 {
        let v: Vec<f64> = self
            .engine_ms
            .iter()
            .zip(&self.steps)
            .map(|(e, s)| e - s.iter().map(|p| p.1).sum::<f64>())
            .collect();
        median(&v)
    }
}

/// Runs `alg` at `threads` from `m0` `reps` times against one reused
/// workspace, one span per run with its steps as children.
#[allow(clippy::too_many_arguments)]
fn engine_runs(
    g: &BipartiteCsr,
    m0: &Matching,
    alg: Algorithm,
    threads: usize,
    reps: usize,
    span: &str,
    log: &mut SpanLog,
    root: u64,
) -> EngineRuns {
    let opts = SolveOptions {
        threads,
        ..SolveOptions::default()
    };
    let mut ws = SolveWorkspace::new();
    let mut runs = EngineRuns {
        engine_ms: Vec::new(),
        steps: Vec::new(),
        edges: 0,
        phases: 0,
        paths: 0,
    };
    for _ in 0..reps {
        let start = m0.clone();
        let t = Instant::now();
        let out = std::hint::black_box(solve_from_in(g, start, alg, &opts, &mut ws));
        let end = Instant::now();
        let id = log.record(span, t, end, Some(root), 0);
        let steps = steps_ms(&out.stats.breakdown);
        let parts: Vec<(String, f64)> = steps
            .iter()
            .map(|&(n, ms)| (format!("{span}.{n}"), ms * 1e3))
            .collect();
        let parts: Vec<(&str, f64)> = parts.iter().map(|(n, d)| (n.as_str(), *d)).collect();
        log.push_sequence(id, 0, log.at(t), &parts);
        runs.engine_ms.push((end - t).as_secs_f64() * 1e3);
        runs.steps.push(steps);
        runs.edges = out.stats.edges_traversed;
        runs.phases = out.stats.phases;
        runs.paths = out.stats.augmenting_paths;
    }
    runs
}

/// Times every layer's public entry points on `g` and adds the per-layer
/// metrics to `m`. `oracle` is a certified maximum matching of `g`.
pub fn measure(
    g: &BipartiteCsr,
    oracle: &Matching,
    threads: usize,
    reps: usize,
    log: &mut SpanLog,
    m: &mut Metrics,
) {
    let t_root = Instant::now();
    let root = log.record("layers", t_root, t_root, None, 0);

    // init: Karp-Sipser, as the service runs it before a cold solve.
    let mut ks = Samples::new();
    let mut m0 = Matching::for_graph(g);
    for _ in 0..reps {
        let t = Instant::now();
        m0 = std::hint::black_box(Initializer::KarpSipser.run(g, KS_SEED));
        log.record("init.karp_sipser", t, Instant::now(), Some(root), 0);
        ks.push(ms_since(t));
    }
    m.add_n("init.karp_sipser_ms.p50", ks.pct(0.5), "ms", ks.len());
    m.add(
        "init.free_x",
        (g.num_x() - m0.cardinality()) as f64,
        "count",
    );

    // ms_bfs: the serial engine from the Karp-Sipser matching.
    let serial = engine_runs(
        g,
        &m0,
        Algorithm::MsBfsGraft,
        1,
        reps,
        "ms_bfs.solve",
        log,
        root,
    );
    let serial_ms = median(&serial.engine_ms);
    m.add_n("ms_bfs.engine_ms.p50", serial_ms, "ms", reps);
    for (i, (step, _)) in serial.steps[0].iter().enumerate() {
        m.add(&format!("ms_bfs.{step}_ms"), serial.step_median(i), "ms");
    }
    m.add("ms_bfs.unattributed_ms", serial.unattributed_median(), "ms");
    let (levels, bu_levels) = level_counts(g, &m0);
    m.add("ms_bfs.phases", f64::from(serial.phases), "count");
    m.add("ms_bfs.levels", levels as f64, "count");
    m.add("ms_bfs.bottom_up_levels", bu_levels as f64, "count");
    m.add("ms_bfs.edges_traversed", serial.edges as f64, "count");
    m.add("ms_bfs.augmenting_paths", serial.paths as f64, "count");
    m.add(
        "ms_bfs.mteps",
        serial.edges as f64 / serial_ms / 1e3,
        "MTEPS",
    );
    m.add(
        "ms_bfs.edges_per_path",
        serial.edges as f64 / serial.paths.max(1) as f64,
        "edges/path",
    );

    // par: the parallel engine at one thread and at N threads.
    let t1 = engine_runs(
        g,
        &m0,
        Algorithm::MsBfsGraftParallel,
        1,
        reps,
        "par.t1.solve",
        log,
        root,
    );
    let tn = engine_runs(
        g,
        &m0,
        Algorithm::MsBfsGraftParallel,
        threads,
        reps,
        "par.tN.solve",
        log,
        root,
    );
    let (t1_ms, tn_ms) = (median(&t1.engine_ms), median(&tn.engine_ms));
    m.add_n("par.t1.engine_ms.p50", t1_ms, "ms", reps);
    m.add_n("par.tN.engine_ms.p50", tn_ms, "ms", reps);
    for (i, (step, _)) in tn.steps[0].iter().enumerate() {
        m.add(&format!("par.tN.{step}_ms"), tn.step_median(i), "ms");
    }
    m.add("par.tN.unattributed_ms", tn.unattributed_median(), "ms");
    m.add(
        "par.tN.work_ratio",
        tn.edges as f64 / serial.edges.max(1) as f64,
        "ratio",
    );
    m.add("par.tN.speedup", serial_ms / tn_ms, "ratio");
    m.add("par.t1.overhead", t1_ms / serial_ms, "ratio");
    let warm = engine_runs(
        g,
        oracle,
        Algorithm::MsBfsGraftParallel,
        threads,
        reps,
        "par.warm",
        log,
        root,
    );
    m.add_n("par.warm_ms.p50", median(&warm.engine_ms), "ms", reps);

    // pool: what each parallel solve pays to stand up its pool.
    let mut pool = Samples::new();
    for _ in 0..4 * reps {
        let t = Instant::now();
        let p = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool builds");
        p.install(|| std::hint::black_box(()));
        drop(p);
        log.record("pool.build", t, Instant::now(), Some(root), 0);
        pool.push(ms_since(t));
    }
    m.add_n("pool.build_ms", pool.pct(0.5), "ms", pool.len());

    // verify: König certification of the result.
    let mut cert = Samples::new();
    for _ in 0..3 {
        let t = Instant::now();
        let r = std::hint::black_box(verify::certify_maximum(g, oracle));
        log.record("verify.certify", t, Instant::now(), Some(root), 0);
        cert.push(ms_since(t));
        assert!(r.is_ok(), "the oracle certified before the run");
    }
    m.add_n("verify.certify_ms", cert.pct(0.5), "ms", cert.len());

    // dyn: creation as the service does it on a graph's first UPDATE.
    let mut create = Samples::new();
    for _ in 0..3 {
        let t = Instant::now();
        let dm = Replay::create(g, oracle);
        log.record("dyn.create", t, Instant::now(), Some(root), 0);
        create.push(ms_since(t));
        drop(std::hint::black_box(dm));
    }
    m.add_n("dyn.create_ms", create.pct(0.5), "ms", create.len());
    log.close(root, Instant::now());
}

/// BFS levels and bottom-up levels of one serial solve, from a
/// `MemorySink` tracer.
fn level_counts(g: &BipartiteCsr, m0: &Matching) -> (u64, u64) {
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::to_sink(sink.clone());
    let mut ws = SolveWorkspace::new();
    solve_from_traced_in(
        g,
        m0.clone(),
        Algorithm::MsBfsGraft,
        &SolveOptions::default(),
        &tracer,
        &mut ws,
    );
    sink.take().iter().fold((0, 0), |(l, b), ev| match ev {
        TraceEvent::Level { bottom_up, .. } => (l + 1, b + u64::from(*bottom_up)),
        _ => (l, b),
    })
}

/// The read/write mix's updates replayed on an in-process dynamic
/// matching, created the way the service creates it.
pub struct Replay {
    /// The replayed dynamic matching.
    pub dm: DynamicMatching,
    /// Insert latencies, µs.
    pub insert_us: Samples,
    /// Delete latencies, µs.
    pub delete_us: Samples,
    /// Edges traversed by all repair searches.
    pub edges: u64,
    /// Updates applied.
    pub updates: u64,
    /// Matched-edge deletes whose cardinality was restored.
    pub repaired: u64,
    /// Matched-edge deletes that lowered the maximum.
    pub degraded: u64,
}

impl Replay {
    fn create(g: &BipartiteCsr, m: &Matching) -> DynamicMatching {
        DynamicMatching::with_warm_start(g.clone(), m.clone(), DynConfig::default())
    }

    /// A replay starting from `g` and its maximum matching `m`.
    pub fn new(g: &BipartiteCsr, m: &Matching) -> Replay {
        Replay {
            dm: Self::create(g, m),
            insert_us: Samples::new(),
            delete_us: Samples::new(),
            edges: 0,
            updates: 0,
            repaired: 0,
            degraded: 0,
        }
    }

    /// Applies one update (reads are not updates and return `None`),
    /// recording a span when `log` is given.
    pub fn apply(
        &mut self,
        op: Op,
        log: Option<&mut SpanLog>,
    ) -> Option<Result<UpdateReport, String>> {
        let t = Instant::now();
        let (r, name) = match op {
            Op::Read => return None,
            Op::Add(x, y) => (self.dm.insert_edge(x, y), "dyn.insert"),
            Op::Del(x, y) => (self.dm.delete_edge(x, y), "dyn.delete"),
        };
        let end = Instant::now();
        let us = (end - t).as_secs_f64() * 1e6;
        if let Some(log) = log {
            log.record(name, t, end, None, 0);
        }
        let r = r.map_err(|e| e.to_string());
        if let Ok(rep) = &r {
            match op {
                Op::Add(..) => self.insert_us.push(us),
                _ => self.delete_us.push(us),
            }
            self.updates += 1;
            self.edges += rep.edges_traversed;
            match rep.outcome {
                UpdateOutcome::Repaired => self.repaired += 1,
                UpdateOutcome::Degraded => self.degraded += 1,
                _ => {}
            }
        }
        Some(r)
    }

    /// Adds the `dyn.*` update metrics.
    pub fn metrics(&mut self, m: &mut Metrics) {
        let n = self.delete_us.len();
        m.add_n("dyn.delete_us.p50", self.delete_us.pct(0.5), "us", n);
        let n = self.insert_us.len();
        m.add_n("dyn.insert_us.p50", self.insert_us.pct(0.5), "us", n);
        m.add_n("dyn.insert_us.p99", self.insert_us.pct(0.99), "us", n);
        m.add(
            "dyn.edges_per_update",
            self.edges as f64 / self.updates.max(1) as f64,
            "edges",
        );
        m.add("dyn.rebuilds", self.dm.rebuilds() as f64, "count");
        let matched = self.repaired + self.degraded;
        m.add(
            "dyn.repair_ratio",
            self.repaired as f64 / matched.max(1) as f64,
            "ratio",
        );
    }
}
