//! The host-speed probe: fixed work of the benchmark's own, timed between
//! the passes, that shows how fast the shared host runs code at the time.
//!
//! The probe runs one breadth-first search per CPU at once over
//! [`COPIES`] copies of the workload's graph, held in the probe's own
//! adjacency arrays with the copies' vertex ids scattered over one range:
//! the memory-bound traversal a solve does, over a working set larger than
//! a core's own cache, as the service's graph, matching and dynamic state
//! together are, without calling the program. The run's timings are scaled
//! by it (see `main.rs`), so a stretch in which the host runs everything
//! slower does not pass for a slower program.

use std::time::Instant;

/// Copies of the workload's graph the probe traverses.
const COPIES: usize = 4;

/// BFS probes per sample.
const RUNS: usize = 2;

/// The probe's graph and its measurements.
pub struct HostProbe {
    /// Undirected adjacency over `COPIES` copies of X ∪ Y.
    off: Vec<u32>,
    adj: Vec<u32>,
    threads: usize,
    /// Every probe time so far, ms.
    pub times: Vec<f64>,
}

impl HostProbe {
    /// Builds the probe graph from the workload's edges.
    pub fn new(nx: u32, ny: u32, edges: &[(u32, u32)], threads: usize) -> Self {
        let side = (nx + ny) as usize;
        let n = COPIES * side;
        // Vertex v of copy c (Y after X) gets id (c * side + v) * K mod n:
        // K is a prime larger than n, so this is a permutation, and
        // neighbours land far apart.
        const K: usize = 2_654_435_761;
        let id = |c: usize, v: usize| (c * side + v) * K % n;
        let arcs = || {
            (0..COPIES).flat_map(move |c| {
                edges
                    .iter()
                    .map(move |&(x, y)| (id(c, x as usize), id(c, (nx + y) as usize)))
            })
        };
        let mut off = vec![0u32; n + 1];
        for (u, v) in arcs() {
            off[u + 1] += 1;
            off[v + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut fill = off.clone();
        let mut adj = vec![0u32; off[n] as usize];
        for (u, v) in arcs() {
            adj[fill[u] as usize] = v as u32;
            fill[u] += 1;
            adj[fill[v] as usize] = u as u32;
            fill[v] += 1;
        }
        HostProbe {
            off,
            adj,
            threads,
            times: Vec::new(),
        }
    }

    /// Takes `RUNS` probes; returns their mean, ms.
    pub fn sample(&mut self) -> f64 {
        let mut sum = 0.0;
        for _ in 0..RUNS {
            let t = self.once_ms();
            self.times.push(t);
            sum += t;
        }
        sum / RUNS as f64
    }

    /// One BFS per CPU at once, each from its own root and each covering
    /// the whole graph; the mean of their times, ms.
    fn once_ms(&self) -> f64 {
        let n = self.off.len() - 1;
        let times: Vec<f64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..self.threads)
                .map(|t| {
                    let root = t * n / self.threads;
                    s.spawn(move || {
                        // Both buffers written once before the clock
                        // starts, so no page is first touched while timed.
                        let mut seen = vec![true; n];
                        seen.fill(false);
                        let mut queue = vec![1u32; n];
                        queue.clear();
                        let t0 = Instant::now();
                        for r in (root..n).chain(0..root) {
                            if seen[r] {
                                continue;
                            }
                            seen[r] = true;
                            queue.push(r as u32);
                            let mut head = queue.len() - 1;
                            while head < queue.len() {
                                let u = queue[head] as usize;
                                head += 1;
                                let (a, b) = (self.off[u] as usize, self.off[u + 1] as usize);
                                for &v in &self.adj[a..b] {
                                    if !seen[v as usize] {
                                        seen[v as usize] = true;
                                        queue.push(v);
                                    }
                                }
                            }
                        }
                        assert_eq!(queue.len(), n, "the probe visits every vertex");
                        t0.elapsed().as_secs_f64() * 1e3
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }
}
