//! `repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against an in-process matching service and prints
//! every metric by name and unit, then, as the last line of standard
//! output, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics and writes the run's spans to
//! `out/spans-<workload>-s<seed>.jsonl` under the package directory.
//! Exits non-zero when any reply is wrong.

use graft_core::{hopcroft_karp, solve, verify, Algorithm, Matching, SolveOptions};
use graft_gen::Scale;
use graft_graph::BipartiteCsr;
use repobench::client::{self, record_request, Record, Service};
use repobench::layers::{self, Replay};
use repobench::probe::HostProbe;
use repobench::report::{peak_rss_mb, reset_peak_rss, result_line, Host, Metrics};
use repobench::spans::SpanLog;
use repobench::stats::{block_percentile, median, min_samples, percentile, Samples};
use repobench::svcstats::{self, delta, field_u64, parse_stats, StatsSnapshot};
use repobench::workload::{self, Kind, Op, RwMix, Workload};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds of the three passes per run, each on a service set up for it;
/// `setup_s` is the median of the set-ups.
const ROUNDS: usize = 16;

const USAGE: &str =
    "usage: repobench --workload <deep-road|rw-mix> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                w = Some(workload::by_name(&v).ok_or_else(|| format!("unknown workload `{v}`"))?)
            }
            "--seed" => seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?),
            "--seconds" => {
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds `{v}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{v}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: w.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("repobench: {e}");
            std::process::exit(1);
        }
    }
}

/// Replies checked wrong, and why (the first few are printed).
#[derive(Default)]
struct Failures {
    count: u64,
    notes: Vec<String>,
}

impl Failures {
    fn add(&mut self, note: String) {
        self.count += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// The graph the service will hold, built in-process, and its certified
/// maximum matching.
struct Oracle {
    g: BipartiteCsr,
    matching: Matching,
    cardinality: u64,
    edges: Arc<Vec<(u32, u32)>>,
    build_ms: f64,
}

fn oracle(w: &Workload) -> Result<Oracle, String> {
    let entry = graft_gen::suite::by_name(w.suite).ok_or("unknown suite entry")?;
    let scale = Scale::parse(w.scale).ok_or("unknown scale")?;
    let t = Instant::now();
    let g = entry.build(scale);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let hk = hopcroft_karp(&g, Matching::for_graph(&g));
    verify::certify_maximum(&g, &hk.matching).map_err(|e| format!("oracle not maximum: {e}"))?;
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.sort_unstable();
    edges.dedup();
    Ok(Oracle {
        cardinality: hk.matching.cardinality() as u64,
        matching: hk.matching,
        edges: Arc::new(edges),
        g,
        build_ms,
    })
}

fn stats(svc: &mut Service) -> Result<StatsSnapshot, String> {
    let reply = svc.admin.req("STATS").map_err(|e| format!("STATS: {e}"))?;
    parse_stats(&reply)
}

/// Checks a set-up reply: `GEN` must describe the oracle's graph, a
/// `SOLVE` or the no-op `UPDATE` must report the oracle's cardinality.
fn check_setup(o: &Oracle, line: &str, reply: &str) -> Result<(), String> {
    let want: Vec<(&str, u64)> = if line.starts_with("GEN") {
        vec![
            ("nx", o.g.num_x() as u64),
            ("ny", o.g.num_y() as u64),
            ("edges", o.g.num_edges() as u64),
        ]
    } else {
        vec![("cardinality", o.cardinality)]
    };
    for (k, v) in want {
        if field_u64(reply, k) != Some(v) {
            return Err(format!("`{line}` -> `{reply}`: want {k}={v}"));
        }
    }
    Ok(())
}

/// Latency samples (ms) of one kind; a failed request counts as missing
/// every limit, so it enters as +inf.
fn latencies(recs: &[&Record], kind: Kind, f: impl Fn(&Record) -> f64) -> Samples {
    let mut s = Samples::new();
    for r in recs.iter().filter(|r| r.kind == kind) {
        s.push(if r.ok() { f(r) } else { f64::INFINITY });
    }
    s
}

/// Unit of a timing scaled to the reference host.
const REF_MS: &str = "ref_ms";

/// Each round's latencies (ms) of `kind`, in round order; a failed
/// request counts as missing every limit, so it enters as +inf.
fn round_latencies(rounds: &[&[Record]], kind: Kind) -> Vec<Vec<f64>> {
    rounds
        .iter()
        .map(|recs| {
            recs.iter()
                .filter(|r| r.kind == kind)
                .map(|r| {
                    if r.ok() {
                        r.latency_ms()
                    } else {
                        f64::INFINITY
                    }
                })
                .collect()
        })
        .collect()
}

/// Adds `name`: the [`block_percentile`] `q` of per-round latencies,
/// scaled to the reference host by `scale`.
fn add_pct(
    m: &mut Metrics,
    name: &str,
    rounds: &[Vec<f64>],
    q: f64,
    scale: f64,
) -> Result<(), String> {
    let (v, n) = block_percentile(rounds, q).map_err(|e| format!("{name}: {e}"))?;
    println!("  {name} unscaled: {v:.4}");
    m.add_n(name, v * scale, REF_MS, n);
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pkg = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let host = Host::probe(&std::env::current_dir().map_err(|e| e.to_string())?);
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    println!(
        "repobench: workload={} seed={} seconds={} trace={} threads={threads}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!("host: {}", host.json());
    println!("why: {}", w.why);

    // Correctness oracle, before any service exists.
    let t = Instant::now();
    let o = oracle(w)?;
    log.record(
        "gen.build",
        t,
        t + Duration::from_secs_f64(o.build_ms / 1e3),
        None,
        0,
    );
    println!(
        "oracle: {}:{} nx={} ny={} edges={} maximum={} (Hopcroft-Karp, König-certified)",
        w.suite,
        w.scale,
        o.g.num_x(),
        o.g.num_y(),
        o.g.num_edges(),
        o.cardinality
    );
    let mut probe = HostProbe::new(o.g.num_x() as u32, o.g.num_y() as u32, &o.edges, threads);
    // The probe is sampled before the first set-up and then before each
    // pass and after each capacity pass, never while a pass runs.
    probe.sample();
    // `peak_rss_mb` is the growth over what the oracle and the probe keep
    // resident, while the first round's service runs.
    let rss_base = reset_peak_rss()?;

    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut set_up = |log: &mut SpanLog| -> Result<Service, String> {
        let t = Instant::now();
        let (s, timing) = client::set_up(w, threads, o.edges[0], |l, r| check_setup(&o, l, r))
            .map_err(|e| format!("set-up: {e}"))?;
        log.record("setup", t, Instant::now(), None, 0);
        setup_s.push(timing.total_s);
        gen_ms.push(timing.gen_ms);
        Ok(s)
    };

    // The three passes, in rounds, with STATS around each pass. Each round
    // sets up a service of its own and stops it at the end, so the figures
    // are medians over sixteen services (thread placement and memory
    // layout differ between them) and the peak resident set holds one.
    let secs = args.seconds;
    let budget = |share: f64| Duration::from_secs_f64(secs * share / ROUNDS as f64);
    // Every round must hold enough reads for its own median.
    let blocks = min_samples(0.5).max(
        (w.open_rate * secs * w.open_share / w.read_every as f64 / ROUNDS as f64).ceil() as usize,
    );
    let mut deltas = [
        StatsSnapshot::new(),
        StatsSnapshot::new(),
        StatsSnapshot::new(),
    ];
    let mut fails = Failures::default();
    let mut cold = Vec::new();
    // Where each round's cold records start.
    let mut cold_start = Vec::new();
    let mut open_rounds = Vec::new();
    let mut cap_ops = Vec::new();
    let mut cap_attempted = 0;
    let mut cap_traced = Vec::new();
    let mut cap_rps = Vec::new();
    let mut cap_scaled = Vec::new();
    let mut peak_rss = 0.0;
    for round in 0..ROUNDS as u64 {
        let seed = args.seed ^ (round + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut svc = set_up(&mut log)?;
        let before = stats(&mut svc)?;
        cold_start.push(cold.len());
        let rid_base = 1 + cold.len() as u64;
        cold.extend(
            client::cold_pass(
                &svc.addr,
                threads,
                seed,
                budget(w.cold_share),
                min_samples(0.9).div_ceil(ROUNDS),
                args.trace.then_some(&mut log),
                rid_base,
            )
            .map_err(|e| format!("cold pass: {e}"))?,
        );
        let after_cold = stats(&mut svc)?;

        let mut mix = RwMix::new(Arc::clone(&o.edges), seed ^ 0x5EED_0FB4, w.read_every);
        let mut ops: Vec<Op> = (0..blocks * w.read_every).map(|_| mix.next_op()).collect();
        ops.extend(mix.finish());
        probe.sample();
        let awake = client::KeepAwake::start(threads);
        let open = client::open_pass(&svc.addr, threads, &ops, w.open_rate);
        awake.stop();
        open_rounds.push(open.map_err(|e| format!("open pass: {e}"))?);
        let after_open = stats(&mut svc)?;

        let before_cap = probe.sample();
        let mixes = (0..threads as u32)
            .map(|c| {
                let part_seed = seed ^ (u64::from(c) + 1).wrapping_mul(0xCA9A_C17E_A076_1D65);
                RwMix::part(
                    Arc::clone(&o.edges),
                    part_seed,
                    w.read_every,
                    threads as u32,
                    c,
                )
            })
            .collect();
        let (recs, wall) =
            client::capacity_pass(&svc.addr, threads, mixes, budget(w.capacity_share))
                .map_err(|e| format!("capacity pass: {e}"))?;
        let ok = recs.iter().flatten().filter(|r| r.ok()).count();
        let rps = ok as f64 / wall.as_secs_f64();
        // Capacity runs every CPU flat out, as the probe does, and moved
        // with the probes just around it: it is scaled per round by them.
        let around = (before_cap + probe.sample()) / 2.0;
        cap_rps.push(rps);
        cap_scaled.push(rps * around / w.probe_ref_ms);
        // Checked now and kept as bare ops: the number of capacity
        // requests grows with throughput, and their records would
        // otherwise grow `peak_rss_mb` with it.
        cap_attempted += recs.iter().map(Vec::len).sum::<usize>();
        cap_ops.push(check_capacity(&o, threads, &recs, &mut fails));
        if args.trace {
            cap_traced.extend(recs.into_iter().flatten());
        }
        let after_cap = stats(&mut svc)?;
        // Every pass leaves the graph as generated: a no-op update must
        // report the oracle's cardinality.
        let (x, y) = o.edges[0];
        let reply = svc
            .admin
            .req(&format!("UPDATE {} ADD {x} {y}", client::GRAPH))
            .map_err(|e| format!("round-end update: {e}"))?;
        if field_u64(&reply, "cardinality") != Some(o.cardinality)
            || svcstats::field(&reply, "outcome") != Some("noop")
        {
            fails.add(format!(
                "round {round} end: service `{reply}`, oracle {}",
                o.cardinality
            ));
        }
        Service::stop(svc).map_err(|e| format!("service stop: {e}"))?;
        if round == 0 {
            // One service set up and driven through all three passes;
            // later rounds reuse memory the allocator kept from earlier
            // services, so their peaks vary with what it kept.
            peak_rss = peak_rss_mb() - rss_base;
        }
        for (acc, (a, b)) in deltas.iter_mut().zip([
            (&before, &after_cold),
            (&after_cold, &after_open),
            (&after_open, &after_cap),
        ]) {
            svcstats::accumulate(acc, &delta(a, b));
        }
    }
    // Correctness: solves against the oracle, updates against a replay.
    let open: Vec<&Record> = open_rounds.iter().flatten().collect();
    for r in cold.iter().chain(open.iter().copied()) {
        if !r.ok() {
            fails.add(format!("{:?}: {}", r.kind, r.reply));
        } else if r.kind != Kind::Update && r.cardinality() != Some(o.cardinality) {
            fails.add(format!(
                "solve cardinality {:?} != {}: {}",
                r.cardinality(),
                o.cardinality,
                r.reply
            ));
        }
    }
    // Replayed round by round in service order: a round's open-loop
    // updates one by one, then its capacity updates, whose connections
    // touch disjoint edges and each end with the graph as generated.
    let mut replay = Replay::new(&o.g, &o.matching);
    let mut dyn_log = args.trace.then_some(&mut log);
    for (open_round, cap_round) in open_rounds.iter().zip(&cap_ops) {
        for r in open_round {
            let op = r.op.expect("open-pass records carry their op");
            match replay.apply(op, dyn_log.as_deref_mut()) {
                Some(Err(e)) => return Err(format!("replay rejected {op:?}: {e}")),
                Some(Ok(rep)) if r.ok() && r.cardinality() != Some(rep.cardinality as u64) => {
                    fails.add(format!(
                        "update cardinality {:?} != replay {}: {}",
                        r.cardinality(),
                        rep.cardinality,
                        r.reply
                    ));
                }
                _ => {}
            }
        }
        for &op in cap_round.iter().flatten() {
            if let Some(Err(e)) = replay.apply(op, dyn_log.as_deref_mut()) {
                return Err(format!("replay rejected {op:?}: {e}"));
            }
        }
    }
    let final_card = replay.dm.cardinality() as u64;
    if final_card != o.cardinality {
        fails.add(format!(
            "replay ends at cardinality {final_card}, oracle {}",
            o.cardinality
        ));
    }
    let (probe_ms, probe_n) = (median(&probe.times), probe.times.len());
    drop(probe);
    let h = replay.dm.materialize();
    let fresh = solve(&h, Algorithm::MsBfsGraft, &SolveOptions::default());
    if let Err(e) = verify::certify_maximum(&h, &fresh.matching) {
        fails.add(format!(
            "from-scratch solve of the final graph not certified: {e}"
        ));
    } else if fresh.matching.cardinality() as u64 != final_card {
        fails.add(format!(
            "replay cardinality {final_card} != certified from-scratch {}",
            fresh.matching.cardinality()
        ));
    }
    let attempted = (cold.len() + open.len() + cap_attempted) as u64;
    let correct = fails.count == 0;

    // End-to-end metrics: timings scaled to the reference host by the
    // run's median probe; the unscaled figures are printed beside them.
    let scale = w.probe_ref_ms / probe_ms;
    println!(
        "host probe: median {probe_ms:.4} ms over {probe_n}, reference {} ms, scale {scale:.4}",
        w.probe_ref_ms
    );
    let mut e2e = Metrics::default();
    let setup = median(&setup_s);
    println!("  setup_s unscaled: {setup:.4}");
    e2e.add_n("setup_s", setup * scale, "s", setup_s.len());
    let cold_refs: Vec<&Record> = cold.iter().collect();
    let mut serial = latencies(&cold_refs, Kind::Serial, Record::latency_ms);
    let mut par = latencies(&cold_refs, Kind::Par, Record::latency_ms);
    let mut read = latencies(&open, Kind::Read, Record::latency_ms);
    let mut update = latencies(&open, Kind::Update, Record::latency_ms);
    for (name, s) in [
        ("serial_solve_ms", &mut serial),
        ("par_solve_ms", &mut par),
        ("read_ms", &mut read),
        ("update_ms", &mut update),
    ] {
        println!("{name} unscaled: {}", s.summary());
    }
    cold_start.push(cold.len());
    let cold_rounds: Vec<&[Record]> = cold_start.windows(2).map(|b| &cold[b[0]..b[1]]).collect();
    let open_by_round: Vec<&[Record]> = open_rounds.iter().map(Vec::as_slice).collect();
    // Printed, not end-to-end metrics: under other tenants' load the host
    // sets these. A cold solve repeats the same work on the same graph, so
    // its tail is the host's; a stall of a few milliseconds outweighs a
    // deep-road read or update, so under load it sets their p90, and the
    // capacity of every CPU flat out falls with the host's speed.
    let mut tails = Metrics::default();
    for (gated, name, rounds, kind, q) in [
        (true, "serial_solve_ms.p50", &cold_rounds, Kind::Serial, 0.5),
        (
            false,
            "serial_solve_ms.p90",
            &cold_rounds,
            Kind::Serial,
            0.9,
        ),
        (true, "par_solve_ms.p50", &cold_rounds, Kind::Par, 0.5),
        (false, "par_solve_ms.p90", &cold_rounds, Kind::Par, 0.9),
        (true, "read_ms.p50", &open_by_round, Kind::Read, 0.5),
        (false, "read_ms.p90", &open_by_round, Kind::Read, 0.9),
        (true, "update_ms.p50", &open_by_round, Kind::Update, 0.5),
        (false, "update_ms.p90", &open_by_round, Kind::Update, 0.9),
    ] {
        let m = if gated { &mut e2e } else { &mut tails };
        add_pct(m, name, &round_latencies(rounds, kind), q, scale)?;
    }
    // The rate the service kept up in its better rounds: the upper
    // quartile over rounds, since other tenants' bursts only ever lower
    // a round's capacity.
    let mut cap = cap_scaled.clone();
    cap.sort_by(f64::total_cmp);
    tails.add_n(
        "rw_capacity_rps",
        percentile(&cap, 0.75),
        "1/s",
        cap_attempted,
    );
    println!(
        "  capacity per round, scaled: {}",
        cap_scaled
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "  capacity per round, unscaled: {}",
        cap_rps
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    e2e.add("peak_rss_mb", peak_rss, "MiB");

    println!("end-to-end ({} connections in the capacity pass):", threads);
    print!("{}", e2e.table());
    println!("tails and capacity (printed, not end-to-end metrics):");
    print!("{}", tails.table());
    println!(
        "  {:<40} {:>14.4} {:<8} ({} of {} requests)",
        "failed_frac",
        fails.count as f64 / attempted as f64,
        "ratio",
        fails.count,
        attempted
    );
    let lag = open
        .iter()
        .map(|r| r.sent.saturating_duration_since(r.due).as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    println!(
        "  open loop: {} requests at {}/s in {ROUNDS} rounds, sender ran at most {lag:.3} ms late",
        open.len(),
        w.open_rate
    );
    for note in &fails.notes {
        println!("  FAILED: {note}");
    }

    let reported = if args.trace {
        let mut pl = Metrics::default();
        pl.add("gen.build_ms", o.build_ms, "ms");
        pl.add_n("svc.gen_ms", median(&gen_ms), "ms", gen_ms.len());
        svc_metrics(&mut pl, &deltas, &cold_refs, &open);
        pl.add("client.send_lag_ms.max", lag, "ms");
        pl.add_n("host.probe_ms", probe_ms, "ms", probe_n);
        layers::measure(&o.g, &o.matching, threads, w.reps, &mut log, &mut pl);
        extend_replay(&mut replay, &o, args.seed, &mut log);
        replay.metrics(&mut pl);
        let cap_refs: Vec<&Record> = cap_traced.iter().collect();
        trace_metrics(&mut pl, &cold, &mut log, &open, &cap_refs);
        let path = pkg
            .join("out")
            .join(format!("spans-{}-s{}.jsonl", w.name, args.seed));
        log.write_jsonl(&path)
            .map_err(|e| format!("writing spans: {e}"))?;
        println!("per-layer (spans in {}):", path.display());
        print!("{}", pl.table());
        pl
    } else {
        e2e
    };
    let line = result_line(correct, attempted, fails.count, &reported);
    let out_dir = pkg.join("out");
    let _ = std::fs::create_dir_all(&out_dir);
    let _ = std::fs::write(
        out_dir.join(format!(
            "result-{}-s{}-t{}.json",
            w.name, args.seed, args.trace as u8
        )),
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {}, \"result\": {line}}}\n",
            w.name,
            args.seed,
            host.json()
        ),
    );
    println!("{line}");
    Ok(correct)
}

/// Checks one capacity round's replies and returns, per connection, the
/// updates the service applied, in order. Every `SOLVE` must carry the
/// oracle's cardinality. Concurrent updates have no single service order
/// to replay, but the matching stays maximum and each connection has at
/// most one edge deleted at a time, so every `UPDATE` reply lies within N
/// of the oracle.
fn check_capacity(
    o: &Oracle,
    threads: usize,
    recs: &[Vec<Record>],
    fails: &mut Failures,
) -> Vec<Vec<Op>> {
    let lowest = o.cardinality.saturating_sub(threads as u64);
    recs.iter()
        .map(|conn| {
            let mut ops = Vec::new();
            for r in conn {
                let want = match r.kind {
                    Kind::Update => lowest..=o.cardinality,
                    _ => o.cardinality..=o.cardinality,
                };
                if !r.ok() {
                    fails.add(format!("{:?}: {}", r.kind, r.reply));
                    continue;
                }
                if !matches!(r.cardinality(), Some(c) if want.contains(&c)) {
                    fails.add(format!(
                        "capacity {:?} cardinality {:?} outside {want:?}: {}",
                        r.kind,
                        r.cardinality(),
                        r.reply
                    ));
                }
                if let Some(op @ (Op::Add(..) | Op::Del(..))) = r.op {
                    ops.push(op);
                }
            }
            ops
        })
        .collect()
}

/// Service attribution from `STATS` deltas (cold, open and capacity
/// passes) and per-reply `elapsed_us`.
fn svc_metrics(m: &mut Metrics, deltas: &[StatsSnapshot; 3], cold: &[&Record], open: &[&Record]) {
    let [d_cold, d_open, d_cap] = deltas;
    let mut d_all = StatsSnapshot::new();
    for d in deltas {
        svcstats::accumulate(&mut d_all, d);
    }
    let wait = |d| svcstats::mean_ms(d, "wait_us_sum", "wait_count");
    m.add("svc.queue_wait_ms.mean", wait(d_open), "ms");
    m.add("svc.queue_wait_ms.cold_mean", wait(d_cold), "ms");
    m.add("svc.queue_wait_ms.capacity_mean", wait(d_cap), "ms");
    m.add(
        "svc.solve_ms.cold_mean",
        svcstats::mean_ms(d_cold, "solve_us_sum", "solve_count"),
        "ms",
    );
    for (key, name) in [
        ("rejected", "svc.rejected"),
        ("updates_err", "svc.updates_err"),
        ("rebuilds", "svc.rebuilds"),
    ] {
        m.add(name, svcstats::get(&d_all, key) as f64, "count");
    }
    for (kind, recs) in [
        (Kind::Serial, cold),
        (Kind::Par, cold),
        (Kind::Read, open),
        (Kind::Update, open),
    ] {
        let mut server = Samples::new();
        let mut unattributed = Samples::new();
        for r in recs.iter().filter(|r| r.kind == kind && r.ok()) {
            if let Some(s) = r.server_ms() {
                server.push(s);
                unattributed.push(r.round_trip_ms() - s);
            }
        }
        let label = kind.label();
        m.add_n(
            &format!("svc.server_ms.{label}.p50"),
            server.pct(0.5),
            "ms",
            server.len(),
        );
        m.add_n(
            &format!("svc.unattributed_ms.{label}.p50"),
            unattributed.pct(0.5),
            "ms",
            unattributed.len(),
        );
    }
}

/// Continues the replay with fresh seeded updates until the insert
/// sample supports a p99, so `dyn.insert_us.p99` is always defined.
fn extend_replay(replay: &mut Replay, o: &Oracle, seed: u64, log: &mut SpanLog) {
    let mut mix = RwMix::new(Arc::clone(&o.edges), seed ^ 0xD1E5_7E4D, 2);
    while replay.insert_us.len() < min_samples(0.99) {
        let op = mix.next_op();
        if matches!(op, Op::Del(x, y) if !replay.dm.has_edge(x, y)) {
            continue;
        }
        if let Some(Err(e)) = replay.apply(op, Some(&mut *log)) {
            panic!("extension replay rejected {op:?}: {e}");
        }
    }
}

/// Client spans, tracing overhead, and how the layers account for the
/// traced client latency of a cold solve.
fn trace_metrics(
    m: &mut Metrics,
    cold: &[Record],
    log: &mut SpanLog,
    open: &[&Record],
    cap: &[&Record],
) {
    let base = 1 + cold.len() as u64;
    for (i, r) in open.iter().chain(cap).enumerate() {
        record_request(log, r.kind, r.sent, r.recv, &r.reply, base + i as u64);
    }
    let mut traced = Samples::new();
    let mut untraced = Samples::new();
    for r in cold.iter().filter(|r| r.kind == Kind::Serial && r.ok()) {
        if r.traced {
            traced.push(r.latency_ms());
        } else {
            untraced.push(r.latency_ms());
        }
    }
    let (t50, u50) = (traced.pct(0.5), untraced.pct(0.5));
    m.add_n(
        "trace.overhead_pct",
        (t50 - u50) / u50 * 100.0,
        "%",
        traced.len() + untraced.len(),
    );

    // Self times of the traced cold solves: client span = unattributed
    // service time + the server's elapsed time; the server's time splits
    // into Karp-Sipser and the engine, measured by the direct calls.
    let self_us = log.self_times();
    let get = |name: &str| {
        m.0.iter()
            .find(|x| x.name == name)
            .map_or(f64::NAN, |x| x.value)
    };
    let ks = get("init.karp_sipser_ms.p50");
    let engines = [
        (
            Kind::Serial,
            "ms_bfs.engine_ms.p50",
            get("ms_bfs.engine_ms.p50"),
        ),
        (
            Kind::Par,
            "par.tN.engine_ms.p50",
            get("par.tN.engine_ms.p50"),
        ),
    ];
    for (kind, engine, e) in engines {
        let mut client_ms = Samples::new();
        let mut unattributed = Samples::new();
        for s in log
            .spans()
            .iter()
            .filter(|s| s.name == format!("client.{}", kind.label()))
        {
            if s.rid <= cold.len() as u64 {
                client_ms.push(s.dur_us() / 1e3);
                unattributed.push(self_us[&s.id] / 1e3);
            }
        }
        let (c, u) = (client_ms.pct(0.5), unattributed.pct(0.5));
        let residual = c - u - ks - e;
        println!(
            "accounting, traced cold {} solve p50: client {c:.3} ms = unattributed {u:.3} + init.karp_sipser {ks:.3} + {engine} {e:.3} + residual {residual:.3}",
            kind.label()
        );
        m.add(
            &format!("trace.{}.residual_ms", kind.label()),
            residual,
            "ms",
        );
    }
}
