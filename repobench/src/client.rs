//! The service under test and the client passes that drive it over TCP.

use crate::spans::SpanLog;
use crate::workload::{cold_pair, Kind, Op, Rng, RwMix, Workload};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Name the graph is registered under.
pub const GRAPH: &str = "g";

/// One line-oriented connection to the service.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    /// Reads one reply line.
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "service closed the connection",
            ));
        }
        Ok(reply.trim_end().to_string())
    }

    /// One round trip.
    pub fn req(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Record {
    /// Request kind.
    pub kind: Kind,
    /// The update sent, for read/write requests.
    pub op: Option<Op>,
    /// When the request was due (equals `sent` in a closed loop).
    pub due: Instant,
    /// When it was written to the socket.
    pub sent: Instant,
    /// When its reply was read.
    pub recv: Instant,
    /// The reply line.
    pub reply: String,
    /// Whether the request was traced while it ran.
    pub traced: bool,
}

impl Record {
    /// Latency from due time to reply, ms.
    pub fn latency_ms(&self) -> f64 {
        self.recv.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// Round trip from send to reply, ms.
    pub fn round_trip_ms(&self) -> f64 {
        self.recv.saturating_duration_since(self.sent).as_secs_f64() * 1e3
    }

    /// Whether the service answered `OK`.
    pub fn ok(&self) -> bool {
        self.reply.starts_with("OK ")
    }

    /// The reply's server-side `elapsed_us`, in ms.
    pub fn server_ms(&self) -> Option<f64> {
        crate::svcstats::field_u64(&self.reply, "elapsed_us").map(|us| us as f64 / 1e3)
    }

    /// The reply's `cardinality=`.
    pub fn cardinality(&self) -> Option<u64> {
        crate::svcstats::field_u64(&self.reply, "cardinality")
    }
}

/// A running in-process service with its admin connection.
pub struct Service {
    /// Loopback address.
    pub addr: String,
    /// Connection used for `STATS` and set-up requests.
    pub admin: Conn,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Service {
    /// Binds a service with `workers` workers on an ephemeral loopback
    /// port and starts it, as `graftmatch serve` would.
    pub fn start(workers: usize) -> std::io::Result<Service> {
        let server = graft_svc::Server::bind(&graft_svc::ServeConfig {
            workers,
            ..graft_svc::ServeConfig::default()
        })?;
        let addr = server.local_addr()?.to_string();
        let thread = std::thread::spawn(move || server.run());
        let admin = Conn::connect(&addr)?;
        Ok(Service {
            addr,
            admin,
            thread: Some(thread),
        })
    }

    /// `SHUTDOWN`, then waits for the server thread.
    pub fn stop(mut self) -> std::io::Result<()> {
        let reply = self.admin.req("SHUTDOWN")?;
        if reply != "OK bye" {
            return Err(std::io::Error::other(format!("SHUTDOWN: {reply}")));
        }
        let thread = self.thread.take().expect("service thread present");
        thread
            .join()
            .map_err(|_| std::io::Error::other("service thread panicked"))?
    }
}

/// One yielding spinner per CPU, so no CPU goes idle while the open
/// pass runs: a request then never waits for the host to wake an idle virtual
/// CPU, a delay set by other tenants of the machine rather than by the
/// service. A spinner yields on every turn, so any runnable thread takes
/// the CPU first.
pub struct KeepAwake {
    done: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts `n` spinners.
    pub fn start(n: usize) -> KeepAwake {
        let done = Arc::new(AtomicBool::new(false));
        let spinners = (0..n)
            .map(|_| {
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { done, spinners }
    }

    /// Stops the spinners and waits for them.
    pub fn stop(self) {
        self.done.store(true, Ordering::Relaxed);
        for t in self.spinners {
            t.join().expect("spinner thread panicked");
        }
    }
}

/// The request line of a cold solve.
pub fn cold_line(kind: Kind, threads: usize) -> String {
    match kind {
        Kind::Serial => format!("SOLVE {GRAPH} ms-bfs-graft cold"),
        _ => format!("SOLVE {GRAPH} ms-bfs-graft-par threads={threads} cold"),
    }
}

/// Records a client request as a span, with the server's reported
/// `elapsed_us` as a child ending when the reply arrived; the client
/// span's self time is then the time the service did not account for.
pub fn record_request(
    log: &mut SpanLog,
    kind: Kind,
    sent: Instant,
    recv: Instant,
    reply: &str,
    rid: u64,
) {
    let id = log.record(&format!("client.{}", kind.label()), sent, recv, None, rid);
    if let Some(us) = crate::svcstats::field_u64(reply, "elapsed_us") {
        let end = log.at(recv);
        log.push_us("svc.server", end - us as f64, end, Some(id), rid);
    }
}

/// Cold pass: closed loop on one connection, pairs of one serial and one
/// parallel cold solve, until `budget` is spent and both kinds have at
/// least `min_each` samples. With a span log, every other pair is traced
/// as it runs (the span is recorded before the reply's timestamp is
/// taken, so a traced request pays for its tracing) and request ids
/// start at `rid_base`.
pub fn cold_pass(
    addr: &str,
    threads: usize,
    seed: u64,
    budget: Duration,
    min_each: usize,
    mut log: Option<&mut SpanLog>,
    rid_base: u64,
) -> std::io::Result<Vec<Record>> {
    let mut conn = Conn::connect(addr)?;
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    let t0 = Instant::now();
    let mut pair = 0usize;
    while t0.elapsed() < budget || out.len() < 2 * min_each {
        let traced = pair.is_multiple_of(2);
        pair += 1;
        for kind in cold_pair(&mut rng) {
            let sent = Instant::now();
            let reply = conn.req(&cold_line(kind, threads))?;
            let traced = match log.as_deref_mut() {
                Some(log) if traced => {
                    let rid = rid_base + out.len() as u64;
                    record_request(log, kind, sent, Instant::now(), &reply, rid);
                    true
                }
                _ => false,
            };
            out.push(Record {
                kind,
                op: None,
                due: sent,
                sent,
                recv: Instant::now(),
                reply,
                traced,
            });
        }
    }
    Ok(out)
}

/// How long before a request is due the open-loop sender stops sleeping.
const WAKE_AHEAD: Duration = Duration::from_micros(300);

/// Open-loop pass: `ops` sent at `rate` per second on one connection by
/// a sender thread while this thread reads the replies. Latency counts
/// from each request's due time.
pub fn open_pass(
    addr: &str,
    threads: usize,
    ops: &[Op],
    rate: f64,
) -> std::io::Result<Vec<Record>> {
    let mut conn = Conn::connect(addr)?;
    let mut writer = conn.writer.try_clone()?;
    let lines: Vec<String> = ops.iter().map(|op| op.line(GRAPH, threads)).collect();
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> std::io::Result<Vec<Instant>> {
            let mut sent = Vec::with_capacity(lines.len());
            for (i, line) in lines.iter().enumerate() {
                // Sleep to just short of the due time, then yield until it,
                // so the sender's wake-up delay does not pass for service
                // latency while a runnable service thread still gets the CPU.
                let d = due(i);
                let now = Instant::now();
                if d > now + WAKE_AHEAD {
                    std::thread::sleep(d - now - WAKE_AHEAD);
                }
                while Instant::now() < d {
                    std::thread::yield_now();
                }
                sent.push(Instant::now());
                writer.write_all(format!("{line}\n").as_bytes())?;
            }
            Ok(sent)
        });
        let mut replies = Vec::with_capacity(ops.len());
        let mut read_err = None;
        for _ in ops {
            match conn.recv() {
                Ok(r) => replies.push((r, Instant::now())),
                Err(e) => {
                    read_err = Some(e);
                    break;
                }
            }
        }
        let sent = sender
            .join()
            .map_err(|_| std::io::Error::other("open-loop sender panicked"))??;
        if let Some(e) = read_err {
            return Err(e);
        }
        Ok(ops
            .iter()
            .zip(sent)
            .zip(replies)
            .enumerate()
            .map(|(i, ((&op, sent), (reply, recv)))| Record {
                kind: op.kind(),
                op: Some(op),
                due: due(i),
                sent,
                recv,
                reply,
                traced: false,
            })
            .collect())
    })
}

/// Capacity pass: one closed loop per mix, each on its own connection,
/// all starting together and stopping once `budget` has passed (each then
/// re-adds the edge its mix left deleted). Returns
/// each connection's records (in its send order) and the pass's wall time.
pub fn capacity_pass(
    addr: &str,
    threads: usize,
    mixes: Vec<RwMix>,
    budget: Duration,
) -> std::io::Result<(Vec<Vec<Record>>, Duration)> {
    let barrier = Arc::new(Barrier::new(mixes.len() + 1));
    let handles: Vec<_> = mixes
        .into_iter()
        .map(|mut mix| {
            let addr = addr.to_string();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> std::io::Result<Vec<Record>> {
                let conn = Conn::connect(&addr);
                barrier.wait();
                let mut conn = conn?;
                let t0 = Instant::now();
                let mut out = Vec::new();
                let ops = std::iter::from_fn(|| {
                    if t0.elapsed() < budget {
                        Some(mix.next_op())
                    } else {
                        mix.finish()
                    }
                });
                for op in ops {
                    let sent = Instant::now();
                    let reply = conn.req(&op.line(GRAPH, threads))?;
                    out.push(Record {
                        kind: op.kind(),
                        op: Some(op),
                        due: sent,
                        sent,
                        recv: Instant::now(),
                        reply,
                        traced: false,
                    });
                }
                Ok(out)
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    let mut per_conn = Vec::new();
    let mut first_err = None;
    for h in handles {
        match h.join() {
            Ok(Ok(recs)) => per_conn.push(recs),
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err = first_err.or(Some(std::io::Error::other("capacity client panicked")))
            }
        }
    }
    let wall = t0.elapsed();
    match first_err {
        Some(e) => Err(e),
        None => Ok((per_conn, wall)),
    }
}

/// What one set-up of the service cost.
pub struct SetupTiming {
    /// Bind, `GEN` and warm-up, seconds.
    pub total_s: f64,
    /// Round trip of the `GEN` request, ms.
    pub gen_ms: f64,
}

/// Starts a service, registers the workload's graph and runs the lazy
/// set-up a first client would pay for: a first cold solve, a first warm
/// parallel solve, and a first (no-op) update that creates the graph's
/// dynamic state. `check` validates each reply.
pub fn set_up(
    w: &Workload,
    threads: usize,
    live_edge: (u32, u32),
    mut check: impl FnMut(&str, &str) -> Result<(), String>,
) -> std::io::Result<(Service, SetupTiming)> {
    let t0 = Instant::now();
    let mut svc = Service::start(threads)?;
    let gen_line = format!("GEN {GRAPH} {}:{}", w.suite, w.scale);
    let g0 = Instant::now();
    let reply = svc.admin.req(&gen_line)?;
    let gen_ms = g0.elapsed().as_secs_f64() * 1e3;
    let warm = [
        gen_line,
        cold_line(Kind::Serial, threads),
        Op::Read.line(GRAPH, threads),
        format!("UPDATE {GRAPH} ADD {} {}", live_edge.0, live_edge.1),
    ];
    let mut replies = vec![reply];
    for line in &warm[1..] {
        replies.push(svc.admin.req(line)?);
    }
    let total_s = t0.elapsed().as_secs_f64();
    for (line, reply) in warm.iter().zip(&replies) {
        check(line, reply).map_err(std::io::Error::other)?;
    }
    Ok((svc, SetupTiming { total_s, gen_ms }))
}
