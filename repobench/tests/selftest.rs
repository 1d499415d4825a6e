//! Self-tests of the benchmark's own arithmetic and schedules.

use repobench::probe::HostProbe;
use repobench::spans::{self_time, SpanLog};
use repobench::stats::{
    block_percentile, checked_percentile, min_samples, percentile, samples_beyond, tail_percentile,
    Samples,
};
use repobench::svcstats::{delta, field_u64, get, mean_ms, parse_stats};
use repobench::workload::{cold_pair, Kind, Op, Rng, RwMix};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn percentile_rule_needs_ten_samples_beyond() {
    assert_eq!(min_samples(0.5), 20);
    assert_eq!(min_samples(0.9), 100);
    assert_eq!(min_samples(0.99), 1000);
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert_eq!(samples_beyond(99, 0.9), 9);

    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(0.5));
    assert_eq!(tail_percentile(99), Some(0.75));
    assert_eq!(tail_percentile(100), Some(0.9));
    assert_eq!(tail_percentile(999), Some(0.95));
    assert_eq!(tail_percentile(1000), Some(0.99));

    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), 50.0);
    assert_eq!(percentile(&v, 0.9), 90.0);
    assert_eq!(checked_percentile(&v, 0.9), Ok(90.0));
    assert!(checked_percentile(&v, 0.95).is_err());
    assert!(checked_percentile(&v[..99], 0.9).is_err());
}

#[test]
fn samples_report_their_count_and_tail() {
    let mut s = Samples::new();
    for i in (1..=200).rev() {
        s.push(f64::from(i));
    }
    assert_eq!(s.len(), 200);
    assert_eq!(s.pct(0.5), 100.0);
    assert_eq!(s.checked(0.9), Ok(180.0));
    assert_eq!(s.summary(), "n=200 p50=100.000 p95=190.000");
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // No children: the whole span.
    assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
    // Disjoint children.
    assert_eq!(self_time(0.0, 10.0, &[(1.0, 2.0), (5.0, 7.0)]), 7.0);
    // Overlapping children count once.
    assert_eq!(self_time(0.0, 10.0, &[(1.0, 4.0), (3.0, 6.0)]), 5.0);
    // A child nested inside another child.
    assert_eq!(self_time(0.0, 10.0, &[(2.0, 8.0), (3.0, 4.0)]), 4.0);
    // Children sticking out of the parent are clipped.
    assert_eq!(self_time(0.0, 10.0, &[(-5.0, 2.0), (9.0, 20.0)]), 7.0);
    // Touching children and an empty child.
    assert_eq!(
        self_time(0.0, 10.0, &[(0.0, 5.0), (5.0, 10.0), (3.0, 3.0)]),
        0.0
    );
}

#[test]
fn span_log_self_times_follow_parents() {
    let t0 = Instant::now();
    let at = |us: u64| t0 + Duration::from_micros(us);
    let mut log = SpanLog::new(t0);
    let root = log.record("client.serial", at(0), at(100), None, 7);
    let server = log.record("svc.server", at(10), at(90), Some(root), 7);
    log.push_sequence(server, 7, 20.0, &[("a", 30.0), ("b", 20.0)]);
    let grandchild_overlap = log.record("c", at(60), at(80), Some(server), 7);
    let st = log.self_times();
    assert!((st[&root] - 20.0).abs() < 1e-6);
    // [20,50] + [50,70] + [60,80] cover [20,80]: 60 of 80 µs.
    assert!((st[&server] - 20.0).abs() < 1e-6);
    assert!((st[&grandchild_overlap] - 20.0).abs() < 1e-6);
    let a = log.spans().iter().find(|s| s.name == "a").unwrap();
    assert!((st[&a.id] - 30.0).abs() < 1e-6);
    assert!(log.spans().iter().all(|s| s.rid == 7));
}

#[test]
fn stats_parser_and_deltas() {
    let before =
        parse_stats("OK uptime_us=10 wait_count=4 wait_us_sum=400 rejected=1 health=ready")
            .unwrap();
    let after =
        parse_stats("OK uptime_us=50 wait_count=10 wait_us_sum=1600 rejected=1 updates_err=2")
            .unwrap();
    assert!(
        !before.contains_key("health"),
        "non-numeric values are skipped"
    );
    let d = delta(&before, &after);
    assert_eq!(get(&d, "wait_count"), 6);
    assert_eq!(get(&d, "wait_us_sum"), 1200);
    assert_eq!(get(&d, "rejected"), 0);
    assert_eq!(
        get(&d, "updates_err"),
        2,
        "a key new in `after` counts from zero"
    );
    assert_eq!(get(&d, "missing"), 0);
    assert!((mean_ms(&d, "wait_us_sum", "wait_count") - 0.2).abs() < 1e-12);
    assert!(mean_ms(&d, "solve_us_sum", "solve_count").is_nan());
    // A counter that went backwards (a restarted service) gives zero.
    let d = delta(&after, &before);
    assert_eq!(get(&d, "uptime_us"), 0);
    assert!(parse_stats("ERR internal boom").is_err());

    let reply = "OK graph=g op=add x=1 y=2 outcome=noop cardinality=41 rebuilds=0 elapsed_us=17";
    assert_eq!(field_u64(reply, "cardinality"), Some(41));
    assert_eq!(field_u64(reply, "elapsed_us"), Some(17));
    assert_eq!(field_u64(reply, "outcome"), None);
}

fn grid_edges(n: u32) -> Arc<Vec<(u32, u32)>> {
    let mut e = Vec::new();
    for x in 0..n {
        for y in [x, (x + 1) % n, (x + 3) % n] {
            e.push((x, y));
        }
    }
    e.sort_unstable();
    e.dedup();
    Arc::new(e)
}

#[test]
fn same_seed_same_schedule() {
    let edges = grid_edges(2000);
    let a: Vec<Op> = {
        let mut m = RwMix::new(Arc::clone(&edges), 42, 12);
        (0..2000).map(|_| m.next_op()).collect()
    };
    let b: Vec<Op> = {
        let mut m = RwMix::new(Arc::clone(&edges), 42, 12);
        (0..2000).map(|_| m.next_op()).collect()
    };
    let c: Vec<Op> = {
        let mut m = RwMix::new(Arc::clone(&edges), 43, 12);
        (0..2000).map(|_| m.next_op()).collect()
    };
    assert_eq!(a, b);
    assert_ne!(a, c);

    let pairs = |seed| {
        let mut rng = Rng::new(seed);
        (0..100).map(|_| cold_pair(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(pairs(9), pairs(9));
    assert!(pairs(9)
        .iter()
        .all(|p| p.contains(&Kind::Serial) && p.contains(&Kind::Par)));
}

/// Applies `ops` to a live-edge set, checking every delete hits a live
/// edge and every block holds exactly one read; returns how many adds
/// re-inserted a deleted edge.
fn check_ops(live: &mut HashSet<(u32, u32)>, ops: &[Op], read_every: usize) -> usize {
    for block in ops.chunks(read_every) {
        if block.len() == read_every {
            assert_eq!(block.iter().filter(|o| **o == Op::Read).count(), 1);
        }
    }
    let mut re_adds = 0;
    for op in ops {
        match *op {
            Op::Read => {}
            Op::Del(x, y) => assert!(live.remove(&(x, y)), "DEL of a non-live edge ({x}, {y})"),
            Op::Add(x, y) => re_adds += usize::from(live.insert((x, y))),
        }
    }
    re_adds
}

#[test]
fn deletes_only_target_live_edges() {
    let edges = grid_edges(2000);
    let mut live: HashSet<(u32, u32)> = edges.iter().copied().collect();
    let mut mix = RwMix::new(Arc::clone(&edges), 7, 12);
    let ops: Vec<Op> = (0..3000).map(|_| mix.next_op()).collect();
    let re_adds = check_ops(&mut live, &ops, 12);
    let adds = ops.iter().filter(|o| matches!(o, Op::Add(..))).count();
    assert!(
        re_adds > 0 && re_adds < adds,
        "adds mix re-inserts and no-ops"
    );
    check_ops(&mut live, &Vec::from_iter(mix.finish()), 12);
    assert_eq!(
        live.len(),
        edges.len(),
        "a finished mix leaves the graph as generated"
    );

    // Each part keeps to its own edges and still deletes only live ones,
    // whatever order the parts run in; finishing re-adds what it deleted.
    for c in 0..3u32 {
        let mut part = RwMix::part(Arc::clone(&edges), 11 + u64::from(c), 12, 3, c);
        let mut ops: Vec<Op> = (0..1000).map(|_| part.next_op()).collect();
        ops.extend(part.finish());
        for op in &ops {
            if let Op::Add(x, _) | Op::Del(x, _) = op {
                assert_eq!(*x % 3, c);
            }
        }
        check_ops(&mut live, &ops, 12);
        assert_eq!(part.finish(), None);
    }
    assert_eq!(live.len(), edges.len());
}

#[test]
fn host_probe_covers_every_component() {
    // Two components: a path x0-y0-x1-y1 and the lone edge x2-y2; each
    // BFS must cover both (the probe asserts it), from either root.
    let edges = [(0, 0), (1, 0), (1, 1), (2, 2)];
    let mut p = HostProbe::new(3, 3, &edges, 2);
    p.sample();
    let per_sample = p.times.len();
    p.sample();
    assert!(per_sample > 0);
    assert_eq!(p.times.len(), 2 * per_sample);
    assert!(p.times.iter().all(|&t| t > 0.0 && t.is_finite()));
}

#[test]
fn block_percentile_merges_rounds_and_takes_the_median() {
    // 8 rounds of 50: p50 blocks are single rounds, p90 blocks pairs.
    let rounds: Vec<Vec<f64>> = (0..8)
        .map(|r| (1..=50).map(|i| f64::from(i + 100 * r)).collect())
        .collect();
    let (p50, n) = block_percentile(&rounds, 0.5).unwrap();
    assert_eq!(n, 400);
    // Round medians are 25 + 100r; the median of the eight is 375.
    assert_eq!(p50, 375.0);
    // Blocks are the pairs r, r+1 for r = 0, 2, 4, 6; a pair's 90th of
    // 100 is the 40th of round r+1, 40 + 100(r+1): 140, 340, 540, 740.
    let (p90, _) = block_percentile(&rounds, 0.9).unwrap();
    assert_eq!(p90, 440.0);
    // A round 100 times slower moves the median by one block's rank only.
    let mut slow = rounds.clone();
    slow[3] = slow[3].iter().map(|v| v * 100.0).collect();
    assert_eq!(block_percentile(&slow, 0.5).unwrap().0, 475.0);
    // A short remainder joins the last block; too few samples are refused.
    let (v, n) = block_percentile(&rounds[..3], 0.9).unwrap();
    assert_eq!((v, n), (percentile(&rounds[..3].concat(), 0.9), 150));
    assert!(block_percentile(&rounds[..1], 0.9).is_err());
}
