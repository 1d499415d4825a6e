//! The benchmark's workloads and the seeded request schedules they send.
//!
//! Every workload runs the same three passes against an in-process
//! service holding one generated graph; what differs is the graph (and so
//! which layer the time goes to) and how the run's seconds are shared
//! between the passes:
//!
//! * **cold** — closed loop on one connection, alternating cold serial
//!   and cold parallel `SOLVE`s (seeded order within each pair);
//! * **open** — open loop at a fixed rate on one connection, a seeded mix
//!   of edge `UPDATE`s with one warm parallel `SOLVE` per block;
//! * **capacity** — the same mix as a closed loop on N connections, each
//!   connection owning the edges with `x % N == c`, so the final graph
//!   does not depend on how the connections interleave.
//!
//! A run cycles through the three passes in several rounds, so each pass
//! samples the whole run rather than one stretch of it; every read/write
//! segment ends by re-adding its deleted edge, so each round starts from
//! the generated graph.

use std::sync::Arc;

/// One workload's input and pass layout.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// graft-gen suite entry the service generates (`GEN g <suite>:<scale>`).
    pub suite: &'static str,
    /// Suite scale.
    pub scale: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Share of `--seconds` for the cold pass.
    pub cold_share: f64,
    /// Share of `--seconds` for the open-loop pass.
    pub open_share: f64,
    /// Share of `--seconds` for the capacity pass.
    pub capacity_share: f64,
    /// Arrival rate of the open-loop pass, requests/s.
    pub open_rate: f64,
    /// One warm read per block of this many requests.
    pub read_every: usize,
    /// Repetitions of each direct layer call in the traced run.
    pub reps: usize,
    /// The host probe's reference time on this graph, ms: timings are
    /// reported as on a host where the probe takes this long.
    pub probe_ref_ms: f64,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "deep-road",
        suite: "road_usa",
        scale: "small",
        why: "few free vertices after Karp-Sipser and long augmenting paths: the MS-BFS phase and level machinery does most of a cold solve",
        cold_share: 0.55,
        open_share: 0.22,
        capacity_share: 0.15,
        open_rate: 800.0,
        read_every: 6,
        reps: 9,
        probe_ref_ms: 12.5,
    },
    Workload {
        name: "rw-mix",
        suite: "RMAT",
        scale: "small",
        why: "scale-free graph under edge updates and warm reads: service overhead and incremental-repair tails dominate; Karp-Sipser dominates its cold solves",
        cold_share: 0.3,
        open_share: 0.4,
        capacity_share: 0.2,
        open_rate: 200.0,
        read_every: 3,
        reps: 15,
        probe_ref_ms: 16.0,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A small seeded generator (SplitMix64).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// The kind of a request, for per-kind latency and attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// Cold serial MS-BFS-Graft solve.
    Serial,
    /// Cold parallel MS-BFS-Graft solve at N threads.
    Par,
    /// Warm parallel solve in the read/write mix.
    Read,
    /// Edge update in the read/write mix.
    Update,
}

impl Kind {
    /// Label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Serial => "serial",
            Kind::Par => "par",
            Kind::Read => "read",
            Kind::Update => "update",
        }
    }
}

/// Seeded order of the cold pass: each pair holds one serial and one
/// parallel solve, in an order drawn from `rng`.
pub fn cold_pair(rng: &mut Rng) -> [Kind; 2] {
    if rng.coin() {
        [Kind::Serial, Kind::Par]
    } else {
        [Kind::Par, Kind::Serial]
    }
}

/// One request of the read/write mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Warm parallel `SOLVE`.
    Read,
    /// `UPDATE g ADD x y` of a live or previously deleted edge.
    Add(u32, u32),
    /// `UPDATE g DEL x y` of a live edge.
    Del(u32, u32),
}

impl Op {
    /// The request line for graph `g` at solver width `threads`.
    pub fn line(self, g: &str, threads: usize) -> String {
        match self {
            Op::Read => format!("SOLVE {g} ms-bfs-graft-par threads={threads}"),
            Op::Add(x, y) => format!("UPDATE {g} ADD {x} {y}"),
            Op::Del(x, y) => format!("UPDATE {g} DEL {x} {y}"),
        }
    }

    /// The request kind.
    pub fn kind(self) -> Kind {
        match self {
            Op::Read => Kind::Read,
            _ => Kind::Update,
        }
    }
}

/// The seeded read/write mix over one graph's edges. Each block of
/// `read_every` requests holds exactly one read at a seeded position, so
/// every seed sends the same share of reads. At most one edge is deleted
/// at a time: with none deleted, an update deletes a live edge with odds
/// 1/2; with one deleted, it re-adds that edge (the update that can start
/// an augmenting search) with odds 1/2; every other update adds an edge
/// that is already live, a no-op the service still has to look up. That
/// is about 25% deletes, 25% re-adds and 50% no-ops — enough updates that
/// search for the p90 to fall among them rather than on the edge between
/// them and the cheap ones — and the graph stays
/// within an edge of the generated one, so the cost of a re-add's search
/// does not drift with the seed over a long pass. A delete never targets
/// an edge that is not live.
#[derive(Clone, Debug)]
pub struct RwMix {
    edges: Arc<Vec<(u32, u32)>>,
    deleted: Option<(u32, u32)>,
    part: (u32, u32),
    rng: Rng,
    read_every: usize,
    pos: usize,
    read_slot: usize,
}

impl RwMix {
    /// A mix over `edges` (deduplicated base edges of the graph).
    pub fn new(edges: Arc<Vec<(u32, u32)>>, seed: u64, read_every: usize) -> Self {
        Self::part(edges, seed, read_every, 1, 0)
    }

    /// A mix that only updates the edges with `x % parts == part`, so
    /// mixes of different parts can run concurrently and still leave a
    /// final graph that does not depend on how they interleave.
    pub fn part(
        edges: Arc<Vec<(u32, u32)>>,
        seed: u64,
        read_every: usize,
        parts: u32,
        part: u32,
    ) -> Self {
        assert!(read_every >= 2, "a block needs room for updates");
        assert!(part < parts, "part out of range");
        Self {
            edges,
            deleted: None,
            part: (parts, part),
            rng: Rng::new(seed),
            read_every,
            pos: 0,
            read_slot: 0,
        }
    }

    /// The update that re-adds the deleted edge, if one is deleted,
    /// leaving the graph as generated.
    pub fn finish(&mut self) -> Option<Op> {
        self.deleted.take().map(|(x, y)| Op::Add(x, y))
    }

    /// Whether `(x, y)` is live in this mix's view.
    pub fn is_live(&self, x: u32, y: u32) -> bool {
        self.deleted != Some((x, y))
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        if self.pos == 0 {
            self.read_slot = self.rng.below(self.read_every);
        }
        let slot = self.pos;
        self.pos = (self.pos + 1) % self.read_every;
        if slot == self.read_slot {
            return Op::Read;
        }
        let (x, y) = match (self.rng.coin(), self.deleted) {
            (true, None) => {
                let e = self.live_edge();
                self.deleted = Some(e);
                return Op::Del(e.0, e.1);
            }
            (true, Some(e)) => {
                self.deleted = None;
                e
            }
            _ => self.live_edge(),
        };
        Op::Add(x, y)
    }

    /// A uniformly drawn live edge of this mix's part.
    fn live_edge(&mut self) -> (u32, u32) {
        loop {
            let (x, y) = self.edges[self.rng.below(self.edges.len())];
            if x % self.part.0 == self.part.1 && self.is_live(x, y) {
                return (x, y);
            }
        }
    }
}
