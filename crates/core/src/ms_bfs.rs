//! The MS-BFS engine with direction-optimizing BFS and tree grafting
//! (Algorithms 3–7 of the paper), written once for every thread count.
//!
//! One engine implements three of the paper's algorithms through the
//! [`MsBfsOptions`] toggles, which is exactly the ablation axis of Fig. 7:
//!
//! | configuration | paper name |
//! |---|---|
//! | `direction_optimizing = false, grafting = false` | MS-BFS |
//! | `direction_optimizing = true, grafting = false` | MS-BFS + direction optimization |
//! | `direction_optimizing = true, grafting = true` | **MS-BFS-Graft** |
//!
//! ## Execution strategies
//!
//! The phase loop, the α rule, visit, augment and the graft-or-rebuild
//! decision are generic over a small `Exec` trait that says how one
//! sweep over vertices runs. Both implementations are monomorphized:
//!
//! * `Seq` — plain loops on the calling thread, appending straight into
//!   the workspace's frontier vectors; the visited claim is
//!   load-compare-store. A warm solve performs no heap allocation.
//! * `Pool` — rayon sweeps over the installed pool; the visited claim is
//!   a `compare_exchange`. A sweep over fewer than `GRAIN` (1,024) items
//!   runs as the `Seq` loop on the driving thread, CAS claim included.
//!
//! `ms-bfs`, `ms-bfs-do` and `ms-bfs-graft` run `Seq`. `ms-bfs-graft-par`
//! runs `Seq` too whenever its effective width is 1 (`threads = 1`, or
//! `threads = 0` under an ambient pool of one), and `Pool` otherwise — so
//! at width 1 the parallel algorithm *is* the serial engine.
//!
//! ## Phase anatomy (Algorithm 3)
//!
//! Each phase (1) grows an alternating BFS forest from the frontier until
//! it is empty, choosing top-down vs. bottom-up per level by the frontier
//! size against `numUnvisitedY / α`; (2) augments the matching along the
//! one augmenting path recorded per *renewable* tree (`leaf[root] ≠ NONE`);
//! (3) rebuilds the next frontier, either by **grafting** the `Y` vertices
//! of renewable trees onto active trees (a bottom-up step restricted to
//! `renewableY`) or, when grafting would not pay (`|activeX| ≤
//! |renewableY|/α`), by destroying the forest and restarting from the
//! unmatched `X` vertices.
//!
//! ## Pointer roles (§III-B)
//!
//! * `visited[y]` — `y` belongs to some tree this phase (trees stay
//!   vertex-disjoint);
//! * `parent[y]` — the `X` parent through which `y` was discovered;
//! * `root[v]` — the unmatched root of the tree containing `v`;
//! * `leaf[x₀]` — `NONE` while `T(x₀)` is *active*; the free `Y` endpoint
//!   of the discovered augmenting path once the tree is *renewable*.
//!
//! Matched `X` vertices are only ever reached through their unique mate,
//! so they need neither a visited flag nor a parent pointer.
//!
//! ## Parallel structure
//!
//! The `Pool` strategy maps the paper's OpenMP implementation onto rayon:
//!
//! * **Private queues → fold/reduce.** The paper gives each thread a small
//!   private queue that spills into a shared global queue (the Graph500
//!   `omp-csr` scheme). Rayon's `fold` creates exactly that: a per-task
//!   local `Vec` filled lock-free, and `reduce` concatenates them into the
//!   global next frontier — no hot-path locks.
//! * **Vertex-disjoint trees → visited CAS.** A `Y` vertex joins exactly
//!   one tree because discovery happens through a `compare_exchange` on its
//!   visited flag. A cheap relaxed load screens out already-visited
//!   vertices before attempting the CAS, mirroring the paper's
//!   "check the flags before performing the atomic operations".
//! * **Benign `leaf` race.** Threads finding augmenting paths in the same
//!   tree all store to `leaf[root]`; the last write wins and exactly one
//!   path per tree is augmented. Free endpoints whose record was
//!   overwritten are recycled by the renewable-tree reset, so no matching
//!   opportunity is lost (the sequential strategy has the same overwrite
//!   semantics).
//! * **Bottom-up needs no atomics.** Each unvisited `Y` vertex is owned by
//!   one task, which is the only writer of its flags (§III-B).
//! * **Parallel augmentation.** Augmenting paths live in distinct trees and
//!   are therefore vertex-disjoint; each is flipped by one task.
//! * **Small sweeps stay on the driving thread.** The frontier size that
//!   picks a level's direction also decides whether to split it. On a
//!   2-vCPU Xeon host a pool batch costs about 14 µs with the other
//!   worker parked (3 µs hot) and a top-down frontier vertex about 50 ns,
//!   so two threads win back a parked batch only above about 560
//!   vertices. Of `road_usa:small`'s 5,782 top-down levels from
//!   Karp-Sipser, 520 hold ≤ 32 vertices, 4,973 hold 33–256, 270 hold
//!   257–1,023 and 19 more; split, they made the 2-thread solve 2.3×
//!   slower than serial. Its bottom-up levels and per-phase passes sweep
//!   a whole side (32,400) and stay on the pool (DESIGN.md §17).
//!
//! Memory ordering: claims use `AcqRel` CAS; all other pointer stores are
//! `Relaxed` and become visible to the next level / step through the
//! happens-before edges of the rayon joins that end every parallel region
//! (the level-synchronous barrier the paper relies on). Since the shim
//! gained a real work-stealing pool these joins are genuine cross-thread
//! barriers: every batch ends with the submitting thread acquiring a latch
//! mutex that each worker released after finishing its piece, so all
//! `Relaxed` stores from a level are ordered before every read in the next
//! level. A sweep run on the driving thread is ordered before the next
//! by program order, and a batch's submission (a deque push behind a
//! `Release` fence, or the injector mutex) publishes the driving
//! thread's stores to the workers. The engine code needed no changes to
//! run multithreaded; see DESIGN.md §17 for the full argument.

use crate::stats::{SearchStats, Step};
use crate::trace::{TraceEvent, Tracer};
use crate::workspace::{Marks, MsBuffers, SolveWorkspace};
use crate::{Matching, RunOutcome};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// A cooperative phase-boundary observer, invoked at the same point the
/// engines check [`MsBfsOptions::deadline`]: once before every phase,
/// with the number of completed phases as argument.
///
/// The `&'static` borrow keeps [`MsBfsOptions`] `Copy`; long-lived
/// callers (the service's fault-injection plan) leak one allocation per
/// process to obtain it. The hook may sleep (delay injection) or panic
/// (fault injection) — the engines make no attempt to catch unwinds,
/// that is the caller's job.
#[derive(Clone, Copy)]
pub struct PhaseHook(pub &'static (dyn Fn(u32) + Sync));

impl PhaseHook {
    /// Invokes the hook for the phase about to start.
    #[inline]
    pub fn call(&self, phases_done: u32) {
        (self.0)(phases_done)
    }
}

impl std::fmt::Debug for PhaseHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PhaseHook(..)")
    }
}

/// A replacement time source for the [`MsBfsOptions::deadline`] checks.
///
/// The engines compare `now_hook` (or `Instant::now` when unset) against
/// the deadline at every phase boundary; a simulation harness installs a
/// virtual clock here so cooperative cancellation runs on simulated time.
/// Like [`PhaseHook`], the `&'static` borrow keeps the options `Copy` —
/// long-lived callers leak one allocation per process.
#[derive(Clone, Copy)]
pub struct NowHook(pub &'static (dyn Fn() -> Instant + Sync));

impl NowHook {
    /// The hook's idea of "now".
    #[inline]
    pub fn now(&self) -> Instant {
        (self.0)()
    }
}

impl std::fmt::Debug for NowHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("NowHook(..)")
    }
}

/// Configuration of the MS-BFS engine (serial and parallel).
#[derive(Clone, Copy, Debug)]
pub struct MsBfsOptions {
    /// Direction-optimization threshold α: top-down is used while
    /// `|F| < numUnvisitedY / α`, and the graft-vs-rebuild decision uses
    /// `|activeX| > |renewableY| / α`. The paper found α ≈ 5 best.
    pub alpha: f64,
    /// Enable direction-optimizing BFS (bottom-up steps).
    pub direction_optimizing: bool,
    /// Enable tree grafting between phases.
    pub grafting: bool,
    /// Cooperative cancellation: when set, the engine checks the clock at
    /// every phase boundary and stops early once the deadline has passed,
    /// returning the (valid, maximal-so-far) matching with
    /// [`SearchStats::timed_out`](crate::stats::SearchStats::timed_out)
    /// set. The matching is *not* guaranteed maximum in that case.
    pub deadline: Option<Instant>,
    /// Observer called at every phase boundary, immediately after the
    /// deadline check (the same cooperative cancellation point). `None`
    /// costs one branch per phase; the service's fault-injection harness
    /// uses it to panic or stall a solve mid-run.
    pub phase_hook: Option<PhaseHook>,
    /// Time source for the deadline checks; `None` means `Instant::now`.
    /// The simulation harness points this at its virtual clock so that
    /// deadlines expire on simulated time.
    pub now_hook: Option<NowHook>,
}

impl Default for MsBfsOptions {
    fn default() -> Self {
        Self {
            alpha: 5.0,
            direction_optimizing: true,
            grafting: true,
            deadline: None,
            phase_hook: None,
            now_hook: None,
        }
    }
}

impl MsBfsOptions {
    /// Plain MS-BFS: always top-down, rebuild every phase.
    pub fn plain() -> Self {
        Self {
            direction_optimizing: false,
            grafting: false,
            ..Self::default()
        }
    }

    /// MS-BFS with direction-optimization but no grafting (Fig. 7 middle
    /// bar).
    pub fn dir_opt_only() -> Self {
        Self {
            direction_optimizing: true,
            grafting: false,
            ..Self::default()
        }
    }

    /// The full MS-BFS-Graft configuration (default).
    pub fn graft() -> Self {
        Self::default()
    }
}

/// The running totals of one sweep that grows the forest: the next
/// frontier, the newly visited `Y` vertices and the edges traversed.
/// `Pool` keeps one per task — the paper's private queue — and merges
/// them; `Seq` keeps one that owns the workspace's `next` vector.
#[derive(Default)]
struct Level {
    next: Vec<VertexId>,
    visited: u64,
    edges: u64,
}

impl Level {
    fn merge(mut a: Level, mut b: Level) -> Level {
        // Append the smaller into the larger to keep the reduction linear.
        if a.next.len() < b.next.len() {
            std::mem::swap(&mut a.next, &mut b.next);
        }
        a.next.append(&mut b.next);
        a.visited += b.visited;
        a.edges += b.edges;
        a
    }
}

/// How the engine's sweeps over vertices execute (see the module docs).
trait Exec {
    /// Claims the `Y` vertex whose visited slot is `slot` for the caller:
    /// `false` if it was already visited in `epoch`.
    fn claim(slot: &AtomicU32, epoch: u32) -> bool;
    /// Runs `step` on every item, collecting the next frontier into `out`
    /// (cleared first). Returns `(newly visited, edges traversed)`.
    fn expand(
        items: &[VertexId],
        out: &mut Vec<VertexId>,
        step: impl Fn(VertexId, &mut Level) + Sync,
    ) -> (u64, u64);
    /// Replaces `out` with the vertices of `0..n` that satisfy `keep`.
    fn filter(n: usize, out: &mut Vec<VertexId>, keep: impl Fn(VertexId) -> bool + Sync);
    /// Keeps the items of `list` that satisfy `keep`.
    fn retain(list: &mut Vec<VertexId>, keep: impl Fn(VertexId) -> bool + Sync);
    /// Calls `f` on every vertex of `0..n`.
    fn for_range(n: usize, f: impl Fn(VertexId) + Sync);
    /// Sums the pairs `f` returns over `0..n`.
    fn sum(n: usize, f: impl Fn(VertexId) -> (u64, u64) + Sync) -> (u64, u64);
}

fn add(a: (u64, u64), b: (u64, u64)) -> (u64, u64) {
    (a.0 + b.0, a.1 + b.1)
}

/// Plain loops on the calling thread, in vertex order.
struct Seq;

impl Exec for Seq {
    #[inline]
    fn claim(slot: &AtomicU32, epoch: u32) -> bool {
        let fresh = slot.load(Ordering::Relaxed) != epoch;
        if fresh {
            slot.store(epoch, Ordering::Relaxed);
        }
        fresh
    }

    fn expand(
        items: &[VertexId],
        out: &mut Vec<VertexId>,
        step: impl Fn(VertexId, &mut Level) + Sync,
    ) -> (u64, u64) {
        out.clear();
        let mut acc = Level {
            next: std::mem::take(out),
            ..Level::default()
        };
        for &v in items {
            step(v, &mut acc);
        }
        *out = acc.next;
        (acc.visited, acc.edges)
    }

    fn filter(n: usize, out: &mut Vec<VertexId>, keep: impl Fn(VertexId) -> bool + Sync) {
        out.clear();
        out.extend((0..n as VertexId).filter(|&v| keep(v)));
    }

    fn retain(list: &mut Vec<VertexId>, keep: impl Fn(VertexId) -> bool + Sync) {
        list.retain(|&v| keep(v));
    }

    fn for_range(n: usize, f: impl Fn(VertexId) + Sync) {
        (0..n as VertexId).for_each(f);
    }

    fn sum(n: usize, f: impl Fn(VertexId) -> (u64, u64) + Sync) -> (u64, u64) {
        (0..n as VertexId).map(f).fold((0, 0), add)
    }
}

/// `Pool` runs sweeps over fewer items than this as the `Seq` loop.
const GRAIN: usize = 1024;

/// Rayon sweeps on the current pool, or `Seq` below [`GRAIN`] items.
/// Results land in the workspace vectors by copy, so their reserved
/// capacity survives for later `Seq` solves on the same workspace.
struct Pool;

impl Exec for Pool {
    #[inline]
    fn claim(slot: &AtomicU32, epoch: u32) -> bool {
        // Screen with a relaxed load before the CAS. The observed stale
        // value (0 or an old epoch) is the CAS expectation: a lost race
        // means another task already wrote the current epoch.
        let cur = slot.load(Ordering::Relaxed);
        cur != epoch
            && slot
                .compare_exchange(cur, epoch, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
    }

    fn expand(
        items: &[VertexId],
        out: &mut Vec<VertexId>,
        step: impl Fn(VertexId, &mut Level) + Sync,
    ) -> (u64, u64) {
        if items.len() < GRAIN {
            return Seq::expand(items, out, step);
        }
        let acc = items
            .par_iter()
            .fold(Level::default, |mut acc, &v| {
                step(v, &mut acc);
                acc
            })
            .reduce(Level::default, Level::merge);
        out.clear();
        out.extend_from_slice(&acc.next);
        (acc.visited, acc.edges)
    }

    fn filter(n: usize, out: &mut Vec<VertexId>, keep: impl Fn(VertexId) -> bool + Sync) {
        if n < GRAIN {
            return Seq::filter(n, out, keep);
        }
        let kept: Vec<VertexId> = (0..n as VertexId)
            .into_par_iter()
            .filter(|&v| keep(v))
            .collect();
        out.clear();
        out.extend_from_slice(&kept);
    }

    fn retain(list: &mut Vec<VertexId>, keep: impl Fn(VertexId) -> bool + Sync) {
        if list.len() < GRAIN {
            return Seq::retain(list, keep);
        }
        let kept: Vec<VertexId> = list.par_iter().filter(|&&v| keep(v)).map(|&v| v).collect();
        list.clear();
        list.extend_from_slice(&kept);
    }

    fn for_range(n: usize, f: impl Fn(VertexId) + Sync) {
        if n < GRAIN {
            return Seq::for_range(n, f);
        }
        (0..n as VertexId).into_par_iter().for_each(&f);
    }

    fn sum(n: usize, f: impl Fn(VertexId) -> (u64, u64) + Sync) -> (u64, u64) {
        if n < GRAIN {
            return Seq::sum(n, f);
        }
        (0..n as VertexId)
            .into_par_iter()
            .map(&f)
            .reduce(|| (0, 0), add)
    }
}

/// Maximum matching by the MS-BFS engine configured by `opts`, from `m`,
/// at `threads` (`0` = the ambient rayon pool). Width 1 runs the `Seq`
/// strategy, wider runs `Pool` (in a pool of its own when `threads ≥ 2`).
///
/// The per-vertex marks live in `ws` and are recycled across solves under
/// the epoch scheme; a warm `Seq` solve allocates nothing (pinned by
/// `tests/workspace_alloc.rs`) and every solve is identical to a
/// fresh-workspace one (pinned by `tests/workspace_reuse.rs`). Event
/// closures only read engine state, and all are emitted from the driving
/// thread between sweeps, so a disabled tracer changes nothing (pinned by
/// `tests/trace_noninterference.rs`).
pub(crate) fn solve_in(
    g: &BipartiteCsr,
    m: Matching,
    opts: &MsBfsOptions,
    threads: usize,
    tracer: &Tracer,
    ws: &mut SolveWorkspace,
) -> RunOutcome {
    match threads {
        0 if rayon::current_num_threads() > 1 => run::<Pool>(g, m, opts, tracer, ws),
        0 | 1 => run::<Seq>(g, m, opts, tracer, ws),
        _ => rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build rayon pool")
            .install(|| run::<Pool>(g, m, opts, tracer, ws)),
    }
}

fn run<E: Exec>(
    g: &BipartiteCsr,
    m: Matching,
    opts: &MsBfsOptions,
    tracer: &Tracer,
    ws: &mut SolveWorkspace,
) -> RunOutcome {
    let start = Instant::now();
    let initial_cardinality = m.cardinality();
    ws.ms.begin_solve(g.num_x(), g.num_y());
    let MsBuffers {
        marks,
        frontier,
        next,
        unvisited,
        renewable,
        ..
    } = &mut ws.ms;
    // The engine works on the arena's atomic mate slots; the input's
    // vectors carry the result back out, so the warm path allocates no
    // fresh matching.
    let (mut mx, mut my) = m.into_mates();
    for (a, &v) in marks.mate_x.iter().zip(&mx) {
        a.store(v, Ordering::Relaxed);
    }
    for (a, &v) in marks.mate_y.iter().zip(&my) {
        a.store(v, Ordering::Relaxed);
    }
    let mut e = Engine {
        f: Forest { g, m: marks },
        opts,
        tracer,
        stats: SearchStats {
            initial_cardinality,
            ..Default::default()
        },
        num_unvisited_y: g.num_y(),
        unvisited_valid: false,
        frontier,
        next,
        unvisited,
        renewable,
    };
    e.run::<E>();
    let mut stats = e.stats;
    for (v, a) in mx.iter_mut().zip(&marks.mate_x) {
        *v = a.load(Ordering::Relaxed);
    }
    for (v, a) in my.iter_mut().zip(&marks.mate_y) {
        *v = a.load(Ordering::Relaxed);
    }
    let cardinality = initial_cardinality + stats.augmenting_paths as usize;
    let matching = Matching::from_mates_unchecked(mx, my, cardinality);
    stats.final_cardinality = cardinality;
    stats.elapsed = start.elapsed();
    // Whatever the five steps did not cover is "Other" (Fig. 6), so the
    // breakdown sums to the solve time. `other` is still zero here.
    stats.breakdown.other = stats.elapsed.saturating_sub(stats.breakdown.total());
    RunOutcome { matching, stats }
}

/// What every task of a sweep shares: the graph and the per-vertex marks.
#[derive(Clone, Copy)]
struct Forest<'a> {
    g: &'a BipartiteCsr,
    m: &'a Marks,
}

impl Forest<'_> {
    /// `x` is in an active tree (root known and not yet renewable).
    #[inline]
    fn x_is_active(self, x: VertexId) -> bool {
        let root = self.m.root_of_x(x);
        root != NONE && self.m.leaf_of(root) == NONE
    }

    /// Makes the unmatched `x` the root of a new tree; `false` (and no
    /// change) when `x` is matched.
    #[inline]
    fn root_if_free(self, x: VertexId) -> bool {
        let free = self.m.mate_of_x(x) == NONE;
        if free {
            self.m.set_root_x(x, x);
        }
        free
    }

    /// Algorithm 4 for one frontier vertex: claim its unvisited neighbors.
    #[inline]
    fn top_down<E: Exec>(self, x: VertexId, acc: &mut Level) {
        // The tree may have turned renewable earlier this level.
        if !self.x_is_active(x) {
            return;
        }
        for &y in self.g.x_neighbors(x) {
            acc.edges += 1;
            if E::claim(&self.m.visited[y as usize], self.m.epoch) {
                self.visit(y, x, acc);
            }
        }
    }

    /// Algorithm 6 for one candidate: scans the neighbors of the unvisited
    /// vertex `y` for a member of an active tree; on success `y` (and its
    /// mate) join that tree. Each candidate is owned by one task, so its
    /// visited flag needs no claim.
    #[inline]
    fn adopt(self, y: VertexId, acc: &mut Level) {
        for &x in self.g.y_neighbors(y) {
            acc.edges += 1;
            if self.x_is_active(x) {
                self.m.set_visited(y);
                self.visit(y, x, acc);
                return; // stop exploring y's neighbors (Algorithm 6 line 7)
            }
        }
    }

    /// Algorithm 5: record the claimed `y`'s discovery from `x`, extending
    /// the tree.
    #[inline]
    fn visit(self, y: VertexId, x: VertexId, acc: &mut Level) {
        let root = self.m.root_of_x(x);
        self.m.set_parent(y, x);
        self.m.root_y[y as usize].store(root, Ordering::Relaxed);
        acc.visited += 1;
        let mate = self.m.mate_of_y(y);
        if mate != NONE {
            self.m.set_root_x(mate, root);
            acc.next.push(mate);
        } else {
            // Augmenting path found: mark T(root) renewable. Later finds in
            // the same tree overwrite — one path per tree survives (a
            // benign last-writer-wins race under `Pool`).
            self.m.set_leaf(root, y);
        }
    }

    /// Flips the augmenting path of the renewable tree rooted at `x0`,
    /// returning `(1, path length in edges)`, or `(0, 0)` when `x0` is not
    /// the unmatched root of a renewable tree. Paths of distinct trees are
    /// vertex-disjoint, so concurrent flips never touch the same slots.
    #[inline]
    fn augment(self, x0: VertexId) -> (u64, u64) {
        let m = self.m;
        let leaf = m.leaf_of(x0);
        if leaf == NONE || m.mate_of_x(x0) != NONE || m.root_of_x(x0) != x0 {
            return (0, 0);
        }
        let mut edges = 0u64;
        let mut y = leaf;
        loop {
            let x = m.parent_of(y);
            let next_y = m.mate_of_x(x);
            m.mate_y[y as usize].store(x, Ordering::Relaxed);
            m.mate_x[x as usize].store(y, Ordering::Relaxed);
            edges += 1;
            if x == x0 {
                break;
            }
            y = next_y;
            edges += 1;
        }
        (1, edges)
    }
}

/// What one phase paid and gained, accumulated for its `PhaseEnd` and
/// `Graft` trace events.
#[derive(Default)]
struct PhaseTally {
    phase: u32,
    levels: u32,
    bottom_up_levels: u32,
    frontier_peak: usize,
    edges_traversed: u64,
    augmenting_paths: u64,
    path_edges: u64,
    active_x: usize,
    renewable_y: usize,
    grafted: bool,
}

struct Engine<'a> {
    f: Forest<'a>,
    opts: &'a MsBfsOptions,
    tracer: &'a Tracer,
    stats: SearchStats,
    num_unvisited_y: usize,
    /// When set, `unvisited` holds every unvisited `Y` vertex (and maybe
    /// some visited since): each bottom-up level filters it rather than
    /// rescanning all of `Y`. A graft/destroy reset un-visits vertices and
    /// clears the flag, so the next bottom-up level rebuilds the list from
    /// a full scan.
    unvisited_valid: bool,
    frontier: &'a mut Vec<VertexId>,
    next: &'a mut Vec<VertexId>,
    unvisited: &'a mut Vec<VertexId>,
    renewable: &'a mut Vec<VertexId>,
}

impl Engine<'_> {
    fn run<E: Exec>(&mut self) {
        let f = self.f;
        // Initial frontier: all unmatched X vertices become roots.
        E::filter(f.g.num_x(), self.frontier, |x| f.root_if_free(x));

        loop {
            let now = || self.opts.now_hook.map_or_else(Instant::now, |h| h.now());
            if self.opts.deadline.is_some_and(|deadline| now() >= deadline) {
                self.stats.timed_out = true;
                break;
            }
            if let Some(hook) = self.opts.phase_hook {
                hook.call(self.stats.phases);
            }
            self.stats.phases += 1;
            let phase = self.stats.phases;
            let mut trace = PhaseTally {
                phase,
                ..Default::default()
            };
            let edges_at_start = self.stats.edges_traversed;
            // Phase stopwatch exists only while tracing: the untraced hot
            // path must not pay for a clock read per phase.
            let phase_t0 = self.tracer.is_enabled().then(Instant::now);

            // ---- Step 1: grow the alternating BFS forest. ----
            let mut level: u32 = 0;
            while !self.frontier.is_empty() {
                let width = self.frontier.len();
                let bottom_up = self.opts.direction_optimizing
                    && (width as f64) >= self.num_unvisited_y as f64 / self.opts.alpha;
                self.tracer.emit(|| TraceEvent::Level {
                    phase: u64::from(phase),
                    level: u64::from(level),
                    frontier: width as u64,
                    unvisited_y: self.num_unvisited_y as u64,
                    bottom_up,
                });
                trace.frontier_peak = trace.frontier_peak.max(width);
                trace.bottom_up_levels += u32::from(bottom_up);
                let t0 = Instant::now();
                let (visited, edges) = if bottom_up {
                    self.bottom_up_level::<E>()
                } else {
                    E::expand(self.frontier, self.next, |x, acc| f.top_down::<E>(x, acc))
                };
                let step = if bottom_up {
                    Step::BottomUp
                } else {
                    Step::TopDown
                };
                self.stats.breakdown.add(step, t0.elapsed());
                self.num_unvisited_y -= visited as usize;
                self.stats.edges_traversed += edges;
                std::mem::swap(self.frontier, self.next);
                level += 1;
            }
            trace.levels = level;

            // ---- Step 2: augment along one path per renewable tree. ----
            let t0 = Instant::now();
            let (augmented, path_edges) = E::sum(f.g.num_x(), |x0| f.augment(x0));
            self.stats.breakdown.add(Step::Augment, t0.elapsed());
            self.stats.augmenting_paths += augmented;
            self.stats.total_augmenting_path_edges += path_edges;
            trace.augmenting_paths = augmented;
            trace.path_edges = path_edges;
            if augmented == 0 {
                trace.edges_traversed = self.stats.edges_traversed - edges_at_start;
                self.end_phase(trace, phase_t0);
                break; // no augmenting path in this phase: maximum reached
            }

            // ---- Step 3: rebuild the frontier (Algorithm 7). ----
            let (active_x, renewable_y, grafted) = self.rebuild_frontier::<E>();
            trace.active_x = active_x;
            trace.renewable_y = renewable_y;
            trace.grafted = grafted;
            trace.edges_traversed = self.stats.edges_traversed - edges_at_start;
            self.end_phase(trace, phase_t0);
        }
    }

    /// Emits the phase's trace events. A phase that augmented nothing ends
    /// the solve without a rebuild, so it has no `Graft` event.
    fn end_phase(&self, trace: PhaseTally, phase_t0: Option<Instant>) {
        self.tracer.emit(|| TraceEvent::PhaseEnd {
            phase: u64::from(trace.phase),
            levels: u64::from(trace.levels),
            bottom_up_levels: u64::from(trace.bottom_up_levels),
            frontier_peak: trace.frontier_peak as u64,
            augmentations: trace.augmenting_paths,
            path_edges: trace.path_edges,
            edges_traversed: trace.edges_traversed,
            elapsed_us: phase_t0.map_or(0, |t| t.elapsed().as_micros() as u64),
        });
        if trace.augmenting_paths > 0 {
            self.tracer.emit(|| TraceEvent::Graft {
                phase: u64::from(trace.phase),
                active_x: trace.active_x as u64,
                renewable_y: trace.renewable_y as u64,
                grafted: trace.grafted,
            });
        }
    }

    /// Algorithm 6: one bottom-up level over the unvisited `Y` vertices.
    fn bottom_up_level<E: Exec>(&mut self) -> (u64, u64) {
        let f = self.f;
        let unvisited = |y: VertexId| !f.m.is_visited(y);
        if self.unvisited_valid {
            E::retain(self.unvisited, unvisited);
        } else {
            E::filter(f.g.num_y(), self.unvisited, unvisited);
        }
        // Vertices adopted by this level stay in the list: the next
        // bottom-up level of the phase filters it before use.
        self.unvisited_valid = true;
        E::expand(self.unvisited, self.next, |y, acc| f.adopt(y, acc))
    }

    /// Algorithm 7: construct the next phase's frontier by tree grafting,
    /// or destroy the forest and restart from the unmatched vertices.
    /// Returns `(|activeX|, |renewableY|, grafted)`.
    fn rebuild_frontier<E: Exec>(&mut self) -> (usize, usize, bool) {
        let f = self.f;
        let (nx, ny) = (f.g.num_x(), f.g.num_y());
        // -- Statistics driving the decision (timed separately: Fig. 6). --
        let t_stats = Instant::now();
        let active_x = E::sum(nx, |x| (u64::from(f.x_is_active(x)), 0)).0 as usize;
        // The visited check must come first: `root_y` is only meaningful
        // (and only guaranteed in-range after a graph change) for
        // vertices visited in the current epoch.
        E::filter(ny, self.renewable, |y| {
            f.m.is_visited(y) && {
                let r = f.m.root_y[y as usize].load(Ordering::Relaxed);
                r != NONE && f.m.leaf_of(r) != NONE
            }
        });
        self.stats
            .breakdown
            .add(Step::Statistics, t_stats.elapsed());

        let t_graft = Instant::now();
        // Resets below un-visit vertices: the cached unvisited list is no
        // longer a superset and must be rebuilt at the next bottom-up.
        // (They run between sweeps, never concurrently with claims.)
        self.unvisited_valid = false;
        let renewable_count = self.renewable.len();
        let graft_profitable =
            self.opts.grafting && active_x as f64 > renewable_count as f64 / self.opts.alpha;
        if graft_profitable {
            // Tree grafting: reset each renewable Y vertex for reuse, then
            // run a bottom-up step on it; one adjacent to an active tree
            // is adopted and its mate becomes part of the new frontier.
            // Adoption reads only X-side marks, so resetting each vertex
            // just before its own step equals resetting them all first.
            let (visited, edges) = E::expand(self.renewable, self.frontier, |y, acc| {
                f.m.unvisit(y);
                f.adopt(y, acc);
            });
            self.num_unvisited_y = self.num_unvisited_y + renewable_count - visited as usize;
            self.stats.edges_traversed += edges;
        } else {
            // Destroy everything and restart from the unmatched vertices.
            E::for_range(ny, |y| f.m.unvisit(y));
            self.num_unvisited_y = ny;
            E::filter(nx, self.frontier, |x| {
                f.m.clear_x(x);
                f.root_if_free(x)
            });
        }
        self.stats.breakdown.add(Step::Graft, t_graft.elapsed());
        (active_x, renewable_count, graft_profitable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximum;

    /// Widths every behavioral test runs at: `Seq`, then `Pool` in pools
    /// of two and four threads.
    const WIDTHS: [usize; 3] = [1, 2, 4];

    fn run_at(g: &BipartiteCsr, m: Matching, opts: &MsBfsOptions, threads: usize) -> RunOutcome {
        solve_in(
            g,
            m,
            opts,
            threads,
            &Tracer::disabled(),
            &mut SolveWorkspace::new(),
        )
    }

    fn serial(g: &BipartiteCsr, m: Matching, opts: &MsBfsOptions) -> RunOutcome {
        run_at(g, m, opts, 1)
    }

    fn all_configs() -> [MsBfsOptions; 3] {
        [
            MsBfsOptions::plain(),
            MsBfsOptions::dir_opt_only(),
            MsBfsOptions::graft(),
        ]
    }

    /// The worked example of Fig. 2: 6 X vertices, 6 Y vertices.
    /// x1..x6 → 0-indexed x0..x5, same for y.
    fn fig2_graph() -> BipartiteCsr {
        BipartiteCsr::from_edges(
            6,
            6,
            &[
                (0, 0), // x1-y1
                (0, 1), // x1-y2
                (1, 1), // x2-y2  (matched in the example's initial matching)
                (1, 2), // x2-y3
                (2, 0), // x3-y1  (matched)
                (2, 2), // x3-y3
                (3, 1), // x4-y2
                (3, 3), // x4-y4  (matched)
                (4, 2), // x5-y3  (matched... actually x5-y5 matched)
                (4, 4), // x5-y5
                (5, 3), // x6-y4
                (5, 5), // x6-y6
            ],
        )
    }

    /// The maximal matching of Fig. 2(a): (x2,y2), (x3,y1), (x4,y4), (x5,y5).
    fn fig2_start(g: &BipartiteCsr) -> Matching {
        let mut m0 = Matching::for_graph(g);
        m0.match_pair(1, 1);
        m0.match_pair(2, 0);
        m0.match_pair(3, 3);
        m0.match_pair(4, 4);
        m0
    }

    /// A deficient graph: 80 X vertices compete for 8 Y vertices.
    fn deficient() -> BipartiteCsr {
        let mut edges = Vec::new();
        for x in 0..80u32 {
            edges.push((x, x % 5));
            edges.push((x, 5 + (x % 3)));
        }
        BipartiteCsr::from_edges(80, 8, &edges)
    }

    fn chain(k: u32) -> BipartiteCsr {
        let mut edges = Vec::new();
        for i in 0..k {
            edges.push((i, i));
            if i > 0 {
                edges.push((i, i - 1));
            }
        }
        BipartiteCsr::from_edges(k as usize, k as usize, &edges)
    }

    #[test]
    fn fig2_example_reaches_maximum() {
        let g = fig2_graph();
        let m0 = fig2_start(&g);
        for t in WIDTHS {
            for opts in all_configs() {
                let out = run_at(&g, m0.clone(), &opts, t);
                assert!(is_maximum(&g, &out.matching), "not maximum under {opts:?}");
                assert_eq!(out.matching.cardinality(), 6);
            }
        }
    }

    #[test]
    fn all_configs_agree_on_hard_graphs() {
        let graphs = [
            BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]),
            BipartiteCsr::from_edges(4, 2, &[(0, 0), (1, 0), (2, 0), (2, 1), (3, 1)]),
            BipartiteCsr::from_edges(1, 1, &[(0, 0)]),
            BipartiteCsr::from_edges(3, 3, &[]),
            BipartiteCsr::from_edges(0, 5, &[]),
            deficient(),
            BipartiteCsr::from_edges(
                5,
                5,
                &[
                    (0, 0),
                    (0, 1),
                    (1, 0),
                    (2, 1),
                    (2, 2),
                    (3, 2),
                    (3, 3),
                    (4, 3),
                    (4, 4),
                    (0, 4),
                ],
            ),
        ];
        for g in &graphs {
            let oracle = crate::hopcroft_karp(g, Matching::for_graph(g))
                .matching
                .cardinality();
            for t in WIDTHS {
                for opts in all_configs() {
                    let out = run_at(g, Matching::for_graph(g), &opts, t);
                    assert_eq!(out.matching.cardinality(), oracle, "{opts:?} t={t}");
                    assert!(is_maximum(g, &out.matching));
                }
            }
        }
    }

    #[test]
    fn long_chain_all_configs() {
        // From the empty matching, from Karp-Sipser, and from the
        // adversarial matching that leaves one augmenting path through
        // the whole chain.
        let k = 80;
        let g = chain(k as u32);
        let mut adversarial = Matching::for_graph(&g);
        for i in 1..k as VertexId {
            adversarial.match_pair(i, i - 1);
        }
        let starts = [
            Matching::for_graph(&g),
            crate::init::Initializer::KarpSipser.run(&g, 42),
            adversarial,
        ];
        for t in WIDTHS {
            for m0 in &starts {
                for opts in all_configs() {
                    let out = run_at(&g, m0.clone(), &opts, t);
                    assert_eq!(out.matching.cardinality(), k, "{opts:?} t={t}");
                    assert!(is_maximum(&g, &out.matching));
                }
            }
        }
    }

    #[test]
    fn repeated_runs_keep_the_cardinality() {
        // Scheduling nondeterminism must never change the result size.
        let mut edges = Vec::new();
        for x in 0..60u32 {
            edges.push((x, (x * 7) % 40));
            edges.push((x, (x * 13 + 5) % 40));
            edges.push((x, (x * 3 + 11) % 40));
        }
        let g = BipartiteCsr::from_edges(60, 40, &edges);
        let oracle = crate::hopcroft_karp(&g, Matching::for_graph(&g))
            .matching
            .cardinality();
        for t in WIDTHS {
            for _ in 0..5 {
                let out = run_at(&g, Matching::for_graph(&g), &MsBfsOptions::graft(), t);
                assert_eq!(out.matching.cardinality(), oracle, "t={t}");
                assert!(is_maximum(&g, &out.matching));
            }
        }
    }

    #[test]
    fn grafting_reduces_traversals_on_low_matching_graph() {
        // Deficient graph: a few hubs serve many X vertices; most X stay
        // unmatched, so ungrafted MS-BFS rebuilds dead trees every phase.
        let mut edges = Vec::new();
        let nx = 300u32;
        for x in 0..nx {
            edges.push((x, x % 10));
            edges.push((x, 10 + (x % 7)));
        }
        // A tail of private vertices creating some augmenting-path churn.
        for i in 0..10u32 {
            edges.push((i, 17 + i));
        }
        let g = BipartiteCsr::from_edges(nx as usize, 27, &edges);
        let plain = serial(&g, Matching::for_graph(&g), &MsBfsOptions::plain());
        let graft = serial(&g, Matching::for_graph(&g), &MsBfsOptions::graft());
        assert_eq!(plain.matching.cardinality(), graft.matching.cardinality());
        assert!(
            graft.stats.edges_traversed <= plain.stats.edges_traversed,
            "grafting should not traverse more edges: {} vs {}",
            graft.stats.edges_traversed,
            plain.stats.edges_traversed
        );
    }

    /// A traced `ms-bfs-graft-par` solve configured by `ms_bfs` at
    /// `threads` (width 1 runs `Seq`) and its event stream.
    fn traced_at(
        g: &BipartiteCsr,
        m: Matching,
        ms_bfs: MsBfsOptions,
        threads: usize,
    ) -> (RunOutcome, Vec<TraceEvent>) {
        let sink = std::sync::Arc::new(crate::trace::MemorySink::new());
        let tracer = Tracer::to_sink(std::sync::Arc::clone(&sink) as _);
        let opts = crate::SolveOptions {
            threads,
            ms_bfs,
            ..crate::SolveOptions::default()
        };
        let alg = crate::Algorithm::MsBfsGraftParallel;
        let out =
            crate::solve_from_traced_in(g, m, alg, &opts, &tracer, &mut SolveWorkspace::new());
        (out, sink.take())
    }

    /// Replays `events` as one run whose phase count is the engine's.
    fn replay_one(events: &[TraceEvent], out: &RunOutcome) -> crate::trace::RunSummary {
        let mut runs = crate::trace::replay(events).expect("trace replays");
        assert_eq!(runs.len(), 1);
        let phase_ends = events
            .iter()
            .filter(|ev| matches!(ev, TraceEvent::PhaseEnd { .. }))
            .count();
        assert_eq!(phase_ends, out.stats.phases as usize);
        runs.pop().expect("one run")
    }

    #[test]
    fn frontier_levels_are_traced() {
        for t in WIDTHS {
            for g in [fig2_graph(), chain(50)] {
                let (out, events) =
                    traced_at(&g, Matching::for_graph(&g), MsBfsOptions::graft(), t);
                replay_one(&events, &out);
                let levels: Vec<u64> = events
                    .iter()
                    .filter_map(|ev| match ev {
                        TraceEvent::Level { level, .. } => Some(*level),
                        _ => None,
                    })
                    .collect();
                assert!(!levels.is_empty(), "t={t}");
                assert_eq!(levels[0], 0, "t={t}");
            }
        }
    }

    #[test]
    fn fig2_phase_trace_is_stable() {
        // Regression pin of the engine's deterministic behavior on the
        // paper's Fig. 2 instance: with direction optimization both free
        // roots resolve in one phase (two disjoint augmenting paths of
        // lengths 1 and 3), and the second phase certifies termination.
        let g = fig2_graph();
        let m0 = fig2_start(&g);
        for t in WIDTHS {
            let (out, events) = traced_at(&g, m0.clone(), MsBfsOptions::graft(), t);
            assert_eq!(out.matching.cardinality(), 6);
            let p = replay_one(&events, &out).phases;
            assert_eq!(p.len(), 2, "t={t}");
            assert_eq!(p[0].augmentations, 2, "t={t}");
            assert_eq!(p[0].path_edges, 4, "t={t}"); // lengths 1 + 3
            let graft = p[0].graft.expect("phase 1 rebuilds its frontier");
            assert_eq!(graft.renewable_y, 5, "t={t}");
            assert_eq!(graft.active_x, 0, "t={t}"); // every tree found a path
            assert_eq!(p[1].augmentations, 0, "t={t}"); // certification phase
        }
    }

    #[test]
    fn wide_sweeps_run_on_the_pool() {
        // From the empty matching the first level spans all of X: plain
        // MS-BFS sweeps it top-down (concurrent visited claims) and
        // MS-BFS-Graft bottom-up over all of Y, both at least `GRAIN`
        // vertices wide, so both take the `Pool` path at widths 2 and 4.
        // A grain above this graph's size fails the level checks.
        let n = 4096;
        let g = crate::tests_support::random_graph(n, n, 3 * n, 7);
        let oracle = crate::hopcroft_karp(&g, Matching::for_graph(&g))
            .matching
            .cardinality();
        for t in [2, 4] {
            let (mut top_down, mut bottom_up) = (false, false);
            for opts in [MsBfsOptions::plain(), MsBfsOptions::graft()] {
                let (out, events) = traced_at(&g, Matching::for_graph(&g), opts, t);
                replay_one(&events, &out);
                assert!(is_maximum(&g, &out.matching), "t={t}");
                assert_eq!(out.matching.cardinality(), oracle, "t={t}");
                for ev in &events {
                    // A top-down level sweeps the frontier, a bottom-up
                    // level the unvisited Y vertices.
                    match *ev {
                        TraceEvent::Level {
                            frontier,
                            bottom_up: false,
                            ..
                        } => top_down |= frontier >= GRAIN as u64,
                        TraceEvent::Level {
                            unvisited_y,
                            bottom_up: true,
                            ..
                        } => bottom_up |= unvisited_y >= GRAIN as u64,
                        _ => {}
                    }
                }
            }
            assert!(top_down, "t={t}: no top-down level of GRAIN vertices");
            assert!(bottom_up, "t={t}: no bottom-up level of GRAIN vertices");
        }
    }

    #[test]
    fn sweeps_below_the_grain_match_width_one() {
        // Every sweep on these graphs is shorter than `GRAIN`, so a wider
        // solve runs the same loops in the same order as width 1.
        let (fig2, chain, deficient) = (fig2_graph(), chain(200), deficient());
        let cases = [
            (&fig2, Matching::for_graph(&fig2)),
            (&fig2, fig2_start(&fig2)),
            (&chain, Matching::for_graph(&chain)),
            (&deficient, Matching::for_graph(&deficient)),
        ];
        for (g, m0) in cases {
            assert!(g.num_x().max(g.num_y()) < GRAIN);
            for opts in all_configs() {
                let want = run_at(g, m0.clone(), &opts, 1);
                for t in [2, 4] {
                    let out = run_at(g, m0.clone(), &opts, t);
                    let ctx = format!("{opts:?} t={t}");
                    assert_eq!(out.matching.mates_x(), want.matching.mates_x(), "{ctx}");
                    assert_eq!(out.matching.mates_y(), want.matching.mates_y(), "{ctx}");
                    let (a, b) = (&out.stats, &want.stats);
                    assert_eq!(a.phases, b.phases, "{ctx}");
                    assert_eq!(a.edges_traversed, b.edges_traversed, "{ctx}");
                    assert_eq!(a.augmenting_paths, b.augmenting_paths, "{ctx}");
                    assert_eq!(
                        a.total_augmenting_path_edges, b.total_augmenting_path_edges,
                        "{ctx}"
                    );
                }
            }
        }
    }

    #[test]
    fn breakdown_sums_to_the_solve_time() {
        for t in [1, 2] {
            let g = chain(200);
            let out = run_at(&g, Matching::for_graph(&g), &MsBfsOptions::graft(), t);
            assert_eq!(out.stats.breakdown.total(), out.stats.elapsed, "t={t}");
        }
    }

    #[test]
    fn stats_consistency() {
        let g = fig2_graph();
        for t in WIDTHS {
            let out = run_at(&g, Matching::for_graph(&g), &MsBfsOptions::graft(), t);
            assert_eq!(
                out.stats.final_cardinality - out.stats.initial_cardinality,
                out.stats.augmenting_paths as usize
            );
            assert!(out.stats.phases >= 1);
        }
    }

    #[test]
    fn expired_deadline_stops_before_first_phase() {
        let opts = MsBfsOptions {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..MsBfsOptions::graft()
        };
        for (g, t) in [(fig2_graph(), 1), (chain(30), 2), (chain(30), 4)] {
            let out = run_at(&g, Matching::for_graph(&g), &opts, t);
            assert!(out.stats.timed_out);
            assert_eq!(out.stats.phases, 0);
            assert_eq!(out.matching.cardinality(), 0); // initial matching returned
        }
    }

    #[test]
    fn generous_deadline_does_not_time_out() {
        let g = fig2_graph();
        let opts = MsBfsOptions {
            deadline: Some(Instant::now() + std::time::Duration::from_secs(3600)),
            ..MsBfsOptions::graft()
        };
        let out = serial(&g, Matching::for_graph(&g), &opts);
        assert!(!out.stats.timed_out);
        assert_eq!(out.matching.cardinality(), 6);
    }

    #[test]
    fn phase_hook_fires_once_per_phase() {
        use std::sync::atomic::AtomicU32;
        static CALLS: AtomicU32 = AtomicU32::new(0);
        static LAST: AtomicU32 = AtomicU32::new(u32::MAX);
        let opts = MsBfsOptions {
            phase_hook: Some(PhaseHook(&|done| {
                CALLS.fetch_add(1, Ordering::Relaxed);
                LAST.store(done, Ordering::Relaxed);
            })),
            ..MsBfsOptions::graft()
        };
        let g = fig2_graph();
        let out = serial(&g, Matching::for_graph(&g), &opts);
        assert_eq!(out.matching.cardinality(), 6);
        assert_eq!(CALLS.load(Ordering::Relaxed), out.stats.phases);
        assert_eq!(LAST.load(Ordering::Relaxed), out.stats.phases - 1);
    }

    #[test]
    fn panicking_phase_hook_unwinds_out_of_the_engine() {
        let opts = MsBfsOptions {
            phase_hook: Some(PhaseHook(&|_| panic!("injected"))),
            ..MsBfsOptions::graft()
        };
        let g = fig2_graph();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serial(&g, Matching::for_graph(&g), &opts)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn starts_from_perfect_matching() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 1)]);
        let mut m0 = Matching::for_graph(&g);
        m0.match_pair(0, 0);
        m0.match_pair(1, 1);
        let out = serial(&g, m0, &MsBfsOptions::graft());
        assert_eq!(out.stats.phases, 1); // one phase discovers nothing
        assert_eq!(out.stats.augmenting_paths, 0);
        assert_eq!(out.matching.cardinality(), 2);
    }
}
