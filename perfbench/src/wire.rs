//! `wire_durable`: an open loop at a fixed offered rate into
//! `NetServer` over two TCP connections, with a file `Wal` (real fsync,
//! default group-commit quantum), and recovery from that file once the
//! server has shut down.
//!
//! Each pair's first member is submitted on connection A; its closer
//! follows on connection B [`CLOSER_GAP`] later, with a `Stats` probe
//! between them. Requests are pipelined by correlation id, encoded with
//! the public protocol encoders and reassembled with `FrameBuf`. One
//! generator thread sends every request on its connection when it falls
//! due (sleeping in between), and one reader thread per connection
//! timestamps each reply and push as it arrives.

use std::collections::{BTreeSet, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use youtopia_core::{
    compile, compile_sql, CoreError, ShardedCoordinator, Submission, SystemClock, SystemStats,
    TenantQuotas, TenantRegistry,
};
use youtopia_net::{
    encode_frame, FrameBuf, NetServer, Outcome, Request, Response, ServerConfig, PROTOCOL_VERSION,
};
use youtopia_sql::{parse_statement, Statement};
use youtopia_storage::{Database, Wal};
use youtopia_travel::WorkloadGen;

use crate::hostspeed::{time_setup, SetupTime};
use crate::inproc::{overhead_pct, pair_requests, work_metrics, MIN_P99_SAMPLES};
use crate::stats::{median, ms_between, Report, Samples, Schedule};
use crate::trace::{SpanId, Tracer};
use crate::{Args, CITIES, DEST, FLIGHTS, RELATIONS, SETUP_REPEATS, SPAN_CAPACITY};

/// Standing never-matching queries, registered before the server starts.
const STANDING: usize = 1000;
/// Offered load: pairs per second (two submits and one probe each).
/// `--calibrate` measured a pipelined capacity of 650–760 pairs/s on a
/// 2-vCPU host; at half of that the open loop's backlog grew (p99 near
/// 230 ms), so the rate is half of the ~350 pairs/s it sustains.
const PAIRS_PER_S: f64 = 175.0;
/// Time from a first member's due time to its closer's.
const CLOSER_GAP: Duration = Duration::from_millis(2);
/// Pairs of the untimed warm-up storm that precedes each timed one,
/// so connection buffers, the WAL file and the reactor's tables have
/// grown before anything is timed.
const WARMUP_PAIRS: u64 = 200;
/// A request still unanswered this long after its due time has timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Lead between building a phase's schedule and its first due time.
const LEAD: Duration = Duration::from_millis(20);
/// Longest a reader blocks before re-checking whether it is done.
const READ_POLL: Duration = Duration::from_millis(100);
/// Correlation ids of probes start here (submits use pair id + 1).
const PROBE_CORR: u64 = 1 << 40;

/// One client connection: the socket plus its frame reassembly buffer.
struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    buf: Vec<u8>,
}

fn frame(request: &Request) -> Vec<u8> {
    encode_frame(&request.encode())
}

fn corr_of(response: &Response) -> u64 {
    match response {
        Response::Accepted { corr, .. }
        | Response::Done { corr, .. }
        | Response::CancelOk { corr }
        | Response::StatsReply { corr, .. }
        | Response::ByeOk { corr }
        | Response::Error { corr, .. }
        | Response::AuditReply { corr, .. } => *corr,
        Response::Welcome { .. } => 0,
    }
}

impl Conn {
    /// Connects and completes the `Hello` handshake as `owner`.
    fn open(addr: SocketAddr, owner: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let mut conn = Conn {
            stream,
            frames: FrameBuf::new(),
            buf: vec![0; 64 * 1024],
        };
        conn.send(&frame(&Request::Hello {
            version: PROTOCOL_VERSION,
            owner: owner.to_string(),
        }))?;
        let give_up = Instant::now() + REPLY_TIMEOUT;
        let mut responses = Vec::new();
        while Instant::now() < give_up {
            conn.recv(Duration::from_millis(100), &mut responses)?;
            if let Some(first) = responses.pop() {
                return match first {
                    Response::Welcome { .. } => Ok(conn),
                    other => Err(format!("handshake answered {other:?}")),
                };
            }
        }
        Err("handshake timed out".into())
    }

    /// A second handle on the same connection, for a reader thread.
    fn reader(&self) -> Result<Conn, String> {
        Ok(Conn {
            stream: self.stream.try_clone().map_err(|e| format!("clone: {e}"))?,
            frames: FrameBuf::new(),
            buf: vec![0; 64 * 1024],
        })
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(frame)
            .map_err(|e| format!("write: {e}"))
    }

    /// Waits up to `wait` for bytes; decodes every complete response
    /// into `out` and returns the instant the bytes arrived.
    fn recv(&mut self, wait: Duration, out: &mut Vec<Response>) -> Result<Option<Instant>, String> {
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_millis(1))))
            .map_err(|e| format!("read timeout: {e}"))?;
        let n = match self.stream.read(&mut self.buf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(None)
            }
            Err(e) => return Err(format!("read: {e}")),
        };
        let at = Instant::now();
        self.frames.push(&self.buf[..n]);
        while let Some(payload) = self
            .frames
            .next_frame()
            .map_err(|e| format!("frame: {e}"))?
        {
            out.push(Response::decode(&payload).map_err(|e| format!("decode: {e}"))?);
        }
        Ok(Some(at))
    }
}

/// A request scheduled on one of the two connections.
struct Outgoing {
    due: Instant,
    /// Sent on connection B (probes and closers) rather than A.
    on_b: bool,
    corr: u64,
    frame: Vec<u8>,
}

/// What one connection's reader saw.
#[derive(Default)]
struct ConnLog {
    /// Replies by correlation id (a well-behaved server sends one each).
    replies: HashMap<u64, Vec<(Instant, Response)>>,
    /// `Done` pushes (correlation id 0): arrival, query id, outcome.
    pushes: Vec<(Instant, u64, Outcome)>,
    error: Option<String>,
}

/// The generator: sends every request in schedule order on its
/// connection, sleeping until each is due. Returns the send instants.
fn send_schedule(
    a: &mut Conn,
    b: &mut Conn,
    out: &[Outgoing],
    tracer: &mut Tracer,
) -> Result<Vec<Instant>, String> {
    let mut sent = Vec::with_capacity(out.len());
    for o in out {
        let now = Instant::now();
        if o.due > now {
            std::thread::sleep(o.due - now);
        }
        let span = tracer.begin("net.write", o.corr);
        sent.push(Instant::now());
        if o.on_b {
            b.send(&o.frame)
        } else {
            a.send(&o.frame)
        }?;
        tracer.end(span);
    }
    Ok(sent)
}

/// Reads one connection until each of its `expect` requests has a
/// reply and each accepted query its push, or `stop_at` passes.
/// `on_reply` sees each reply as it arrives.
fn read_replies(
    mut conn: Conn,
    expect: usize,
    stop_at: Instant,
    tracer: &mut Tracer,
    mut on_reply: impl FnMut(&Response),
) -> ConnLog {
    let mut log = ConnLog::default();
    let (mut replies, mut accepted) = (0usize, 0usize);
    let mut responses = Vec::new();
    loop {
        let now = Instant::now();
        let settled = replies >= expect && log.pushes.len() >= accepted;
        if settled || now >= stop_at {
            return log;
        }
        match conn.recv((stop_at - now).min(READ_POLL), &mut responses) {
            Err(e) => {
                log.error = Some(e);
                return log;
            }
            Ok(None) => {}
            Ok(Some(at)) => {
                let decoded = Instant::now();
                for response in responses.drain(..) {
                    match response {
                        Response::Done {
                            corr: 0,
                            qid,
                            outcome,
                        } => log.pushes.push((at, qid, outcome)),
                        response => {
                            let corr = corr_of(&response);
                            tracer.record("net.decode", corr, at, decoded, SpanId::NONE);
                            accepted += usize::from(matches!(response, Response::Accepted { .. }));
                            replies += 1;
                            on_reply(&response);
                            log.replies.entry(corr).or_default().push((at, response));
                        }
                    }
                }
            }
        }
    }
}

/// A running server with its two client connections.
struct Wire {
    server: NetServer,
    co: Arc<ShardedCoordinator>,
    a: Conn,
    b: Conn,
    wal_path: PathBuf,
    /// Query ids of the standing preload.
    standing: Vec<u64>,
    build_ms: f64,
}

/// Builds the database on a fresh file WAL, registers the standing
/// load, spawns the server and opens both connections.
fn wire_setup(seed: u64, index: usize, tracer: &mut Tracer) -> Result<Wire, String> {
    let wal_path = crate::out_dir().join(format!("wire-{seed}-{index}.wal"));
    let _ = std::fs::remove_file(&wal_path);
    let wal = Wal::open(&wal_path).map_err(|e| format!("open WAL: {e}"))?;
    let mut generator = WorkloadGen::new(seed);
    let started = Instant::now();
    let db = tracer
        .span("exec.build", 0, || {
            generator.build_database_with_wal(FLIGHTS, CITIES, wal)
        })
        .map_err(|e| format!("build database: {e}"))?;
    let build_ms = ms_between(started, Instant::now());
    let co = Arc::new(ShardedCoordinator::with_config(db, crate::sharded_config()));
    // the standing load registers in-process as one durable batch: a
    // few group commits instead of a thousand fsyncs, so set-up time
    // does not follow the disk's fsync jitter
    let noise = generator.noise_multi(STANDING, DEST, RELATIONS);
    let batch = noise
        .iter()
        .map(|r| (r.owner.clone(), compile_sql(&r.sql), r.opts()))
        .collect();
    let mut standing = Vec::with_capacity(STANDING);
    for outcome in co.submit_batch_with(batch) {
        match outcome {
            Ok(Submission::Pending(ticket)) => standing.push(ticket.id.0),
            other => return Err(format!("standing preload answered {other:?}")),
        }
    }
    let server = NetServer::spawn(
        Arc::clone(&co),
        TenantRegistry::new(TenantQuotas::unlimited()),
        ServerConfig {
            // no request in a run lives long enough to be reaped
            connection_timeout_millis: 3_600_000,
            ..ServerConfig::default()
        },
        Arc::new(SystemClock),
    )
    .map_err(|e| format!("spawn server: {e}"))?;
    let a = Conn::open(server.local_addr(), "bench/a")?;
    let b = Conn::open(server.local_addr(), "bench/b")?;
    Ok(Wire {
        server,
        co,
        a,
        b,
        wal_path,
        standing,
        build_ms,
    })
}

impl Wire {
    /// Shuts the server down and releases every handle on the database,
    /// so the WAL file is complete; returns its path.
    fn shut_down(self) -> PathBuf {
        let Wire {
            mut server,
            co,
            a,
            b,
            wal_path,
            ..
        } = self;
        drop((a, b));
        server.shutdown();
        drop(server);
        drop(co);
        wal_path
    }
}

/// What one open-loop phase measured.
#[derive(Default)]
struct WirePhase {
    /// First member due → its `Accepted` (the registration ack).
    register: Samples,
    /// Closer due → its `Done` reply.
    matched: Samples,
    /// Closer due → the first member's `Done` push.
    done: Samples,
    /// First member's push − closer's reply (negative when the push
    /// arrives first).
    push_gap: Samples,
    /// Probe due → its `StatsReply`.
    probe: Samples,
    /// Send − due, every request.
    lag: Samples,
    pairs: u64,
    requests: u64,
    failed: u64,
    wall_s: f64,
    wal_bytes: u64,
    before: SystemStats,
    after: SystemStats,
    queued_bytes_max: u64,
    skew: (f64, u64),
    /// Pairs whose closer reached the server before its first member.
    swapped: u64,
}

/// Milliseconds from `from` to `to`, negative when `to` is earlier.
fn signed_ms(from: Instant, to: Instant) -> f64 {
    ms_between(from, to) - ms_between(to, from)
}

/// Pair `pair`'s answer row as pushed or replied: (relation, fno).
fn booked(outcome: &Outcome) -> Option<(String, youtopia_storage::Value)> {
    match outcome {
        Outcome::Answered { answers } => {
            let (rel, row) = answers.first()?;
            Some((rel.clone(), row.get(1)?.clone()))
        }
        _ => None,
    }
}

/// Runs `pairs` pairs at [`PAIRS_PER_S`] starting with pair id
/// `*next_pair`, then checks and times every reply and push.
fn storm(
    w: &mut Wire,
    report: &mut Report,
    next_pair: &mut u64,
    pairs: u64,
    tracer: &mut Tracer,
) -> WirePhase {
    let first_pair = *next_pair;
    *next_pair += pairs;
    let interval = Duration::from_secs_f64(1.0 / PAIRS_PER_S);
    assert!(
        CLOSER_GAP < interval,
        "a pair's requests are due before the next pair's"
    );
    // per pair k: out[3k] first member (A), out[3k+1] probe and
    // out[3k+2] closer (B), which is also due order
    let mut texts = Vec::with_capacity(pairs as usize);
    for k in 0..pairs {
        let pair = first_pair + k;
        let (first, closer) = pair_requests(pair);
        if tracer.enabled() {
            // the generator checks each text compiles, timing the layers
            for sql in [&first.sql, &closer.sql] {
                let parsed = tracer.span("sql.parse", pair + 1, || parse_statement(sql));
                let compiled = match parsed {
                    Ok(Statement::Entangled(ent)) => {
                        tracer.span("core.compile", pair + 1, || compile(&ent, sql))
                    }
                    Ok(_) => Err(CoreError::NotEntangled),
                    Err(e) => Err(CoreError::Parse(e.to_string())),
                };
                report.check(compiled.is_ok(), format!("pair {pair} does not compile"));
            }
        }
        texts.push((first.sql, closer.sql));
    }
    let schedule = Schedule {
        start: Instant::now() + LEAD,
        interval,
    };
    let mut out = Vec::with_capacity(3 * pairs as usize);
    let mut firsts = Vec::with_capacity(pairs as usize);
    for (k, (first, closer)) in texts.into_iter().enumerate() {
        let pair = first_pair + k as u64;
        let corr = pair + 1;
        let submit = |sql: String| {
            frame(&Request::Submit {
                corr,
                deadline: None,
                sql,
            })
        };
        let probe = PROBE_CORR + pair;
        out.push(Outgoing {
            due: schedule.due(k, Duration::ZERO),
            on_b: false,
            corr,
            frame: submit(first),
        });
        out.push(Outgoing {
            due: schedule.due(k, CLOSER_GAP / 2),
            on_b: true,
            corr: probe,
            frame: frame(&Request::Stats { corr: probe }),
        });
        out.push(Outgoing {
            due: schedule.due(k, CLOSER_GAP),
            on_b: true,
            corr,
            frame: submit(closer),
        });
        firsts.push(corr);
    }
    let start = schedule.start;
    let stop_at = out.last().map_or(start, |o| o.due) + REPLY_TIMEOUT;

    let mut phase = WirePhase {
        pairs,
        before: w.co.stats(),
        ..WirePhase::default()
    };
    let wal_before = w.co.db().wal_len().unwrap_or(0);
    let readers = w.a.reader().and_then(|a| Ok((a, w.b.reader()?)));
    let (a_reader, b_reader) = match readers {
        Ok(readers) => readers,
        Err(e) => {
            report.check(false, format!("reader: {e}"));
            return phase;
        }
    };
    let child = |t: &Tracer| {
        if t.enabled() {
            Tracer::on(t.epoch(), SPAN_CAPACITY)
        } else {
            Tracer::off()
        }
    };
    let (mut a_tracer, mut b_tracer) = (child(tracer), child(tracer));
    let (sent, a_log, b_log) = {
        let (server, co) = (&w.server, &w.co);
        let (queued, skew) = (&mut phase.queued_bytes_max, &mut phase.skew);
        let (a_tracer, b_tracer) = (&mut a_tracer, &mut b_tracer);
        std::thread::scope(|s| {
            let a_thread =
                s.spawn(move || read_replies(a_reader, pairs as usize, stop_at, a_tracer, |_| {}));
            let b_thread = s.spawn(move || {
                read_replies(b_reader, 2 * pairs as usize, stop_at, b_tracer, |r| {
                    if let Response::StatsReply { .. } = r {
                        *queued = (*queued).max(server.stats().queued_bytes);
                        let per_shard = co.pending_per_shard();
                        let mean = per_shard.iter().sum::<usize>() as f64 / per_shard.len() as f64;
                        let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
                        skew.0 += max / mean.max(1.0);
                        skew.1 += 1;
                    }
                })
            });
            let sent = send_schedule(&mut w.a, &mut w.b, &out, tracer);
            (
                sent,
                a_thread.join().expect("connection A reader"),
                b_thread.join().expect("connection B reader"),
            )
        })
    };
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.after = w.co.stats();
    phase.wal_bytes = w.co.db().wal_len().unwrap_or(0) - wal_before;
    tracer.absorb(a_tracer);
    tracer.absorb(b_tracer);
    for log in [&a_log, &b_log] {
        if let Some(e) = &log.error {
            report.check(false, format!("connection failed: {e}"));
        }
    }
    // generator lateness, every request
    match &sent {
        Ok(sent) => {
            for (o, at) in out.iter().zip(sent) {
                phase.lag.push_between(o.due, *at);
            }
        }
        Err(e) => report.check(false, format!("send failed: {e}")),
    }
    phase.requests = out.len() as u64;

    let only = |log: &ConnLog, corr: u64| -> Option<(Instant, Response)> {
        match log.replies.get(&corr).map(Vec::as_slice) {
            Some([one]) => Some(one.clone()),
            _ => None,
        }
    };
    let mut pushes: HashMap<u64, Vec<(Instant, Outcome)>> = HashMap::new();
    for (at, qid, outcome) in a_log.pushes.iter().chain(&b_log.pushes) {
        pushes.entry(*qid).or_default().push((*at, outcome.clone()));
    }
    for (k, &corr) in firsts.iter().enumerate() {
        let pair = first_pair + k as u64;
        let (due_a, due_probe, due_b) = (out[3 * k].due, out[3 * k + 1].due, out[3 * k + 2].due);
        // every submit gets exactly one Accepted or Done; the member the
        // server reads first registers (Accepted, later its push) and the
        // other closes the pair (Done). Connections are not ordered with
        // each other, so a reactor stall longer than the gap can swap them.
        let roles = match (only(&a_log, corr), only(&b_log, corr)) {
            (
                Some((accepted_at, Response::Accepted { qid, .. })),
                Some((closed_at, Response::Done { outcome, .. })),
            ) => Some(((due_a, accepted_at, qid), (due_b, closed_at, outcome))),
            (
                Some((closed_at, Response::Done { outcome, .. })),
                Some((accepted_at, Response::Accepted { qid, .. })),
            ) => {
                phase.swapped += 1;
                Some(((due_b, accepted_at, qid), (due_a, closed_at, outcome)))
            }
            (a, b) => {
                report.check(false, format!("pair {pair}: replies {a:?} and {b:?}"));
                None
            }
        };
        let Some(((first_due, accepted_at, qid), (closer_due, closed_at, replied))) = roles else {
            for series in [&mut phase.register, &mut phase.matched, &mut phase.done] {
                series.push_failed();
            }
            phase.failed += 2;
            continue;
        };
        phase.register.push_between(first_due, accepted_at);
        phase.matched.push_between(closer_due, closed_at);

        match pushes.remove(&qid).as_deref() {
            Some([(push_at, pushed)]) => {
                phase.done.push_between(closer_due, *push_at);
                phase.push_gap.push(signed_ms(closed_at, *push_at));
                let (x, y) = (booked(pushed), booked(&replied));
                report.check(
                    x.is_some() && x == y,
                    format!("pair {pair} booked {x:?} vs {y:?}"),
                );
                tracer.record(
                    "wire.pair",
                    corr,
                    due_a,
                    closed_at.max(*push_at),
                    SpanId::NONE,
                );
            }
            other => {
                phase.done.push_failed();
                phase.failed += 1;
                report.check(false, format!("pair {pair}: first member pushes {other:?}"));
            }
        }
        match only(&b_log, PROBE_CORR + pair) {
            Some((at, Response::StatsReply { .. })) => {
                phase.probe.push_between(due_probe, at);
                tracer.record("net.probe", PROBE_CORR + pair, due_probe, at, SpanId::NONE);
            }
            other => {
                phase.probe.push_failed();
                phase.failed += 1;
                report.check(false, format!("pair {pair}: probe got {other:?}"));
            }
        }
    }
    report.check(
        pushes.is_empty(),
        format!(
            "{} pushes for queries that were not first members",
            pushes.len()
        ),
    );
    phase
}

/// Recovery outcome: the `recover` call's duration, plus its report.
struct Recovered {
    recover_s: f64,
    sweep_ms: f64,
    events_replayed: usize,
    replay_ms: Option<f64>,
}

/// Rebuilds the coordinator from the run's WAL and checks that exactly
/// the acked, still-pending registrations came back. With `replay`, also
/// times a bare storage replay of a copy of the file.
fn recover(
    report: &mut Report,
    wal_path: &Path,
    expected: &BTreeSet<u64>,
    replay: bool,
) -> Option<Recovered> {
    let replay_ms = if replay {
        let copy = wal_path.with_extension("copy");
        let timed = std::fs::copy(wal_path, &copy).ok().and_then(|_| {
            let wal = Wal::open(&copy).ok()?;
            let started = Instant::now();
            let replayed = Database::recover_full(wal).ok()?;
            let ms = ms_between(started, Instant::now());
            drop(replayed);
            Some(ms)
        });
        let _ = std::fs::remove_file(&copy);
        report.check(timed.is_some(), "storage replay of the WAL copy failed");
        timed
    } else {
        None
    };
    let wal = match Wal::open(wal_path) {
        Ok(wal) => wal,
        Err(e) => {
            report.check(false, format!("reopen WAL: {e}"));
            return None;
        }
    };
    let started = Instant::now();
    let recovered = ShardedCoordinator::recover(wal, crate::sharded_config());
    let recover_s = started.elapsed().as_secs_f64();
    let (co, rec) = match recovered {
        Ok(ok) => ok,
        Err(e) => {
            report.check(false, format!("recover: {e}"));
            return None;
        }
    };
    let pending: BTreeSet<u64> = co.pending_snapshot().iter().map(|p| p.id.0).collect();
    report.check(
        &pending == expected,
        format!(
            "recovered {} pending, expected {} (missing {}, extra {})",
            pending.len(),
            expected.len(),
            expected.difference(&pending).count(),
            pending.difference(expected).count()
        ),
    );
    drop(co);
    Some(Recovered {
        recover_s,
        sweep_ms: rec.sweep_micros as f64 / 1e3,
        events_replayed: rec.events_replayed,
        replay_ms,
    })
}

fn pairs_for(seconds: f64, min: usize) -> u64 {
    ((seconds * PAIRS_PER_S).ceil() as u64).max(min as u64)
}

fn add_phase_metrics(report: &mut Report, phase: &WirePhase) {
    report.count(phase.requests, phase.failed);
    report.add(
        "failed_frac",
        "ratio",
        phase.failed as f64 / phase.requests.max(1) as f64,
        phase.requests as usize,
    );
    report.add_latency("match", &phase.matched, 50);
    report.add_latency("match", &phase.matched, 99);
    report.add_latency("register", &phase.register, 50);
    report.add_latency("register", &phase.register, 99);
    report.add_latency("accept", &phase.register, 50);
    report.add_latency("accept", &phase.register, 99);
    report.add_latency("done", &phase.done, 50);
    report.add_latency("done", &phase.done, 99);
    let arrivals = 2 * phase.pairs;
    report.add(
        "arrivals_per_s",
        "1/s",
        arrivals as f64 / phase.wall_s,
        arrivals as usize,
    );
    report.add(
        "churn_ops_per_s",
        "1/s",
        arrivals as f64 / phase.wall_s,
        arrivals as usize,
    );
    report.add_latency("bench.lag", &phase.lag, 99);
    report.add(
        "swapped_pairs",
        "count",
        phase.swapped as f64,
        phase.pairs as usize,
    );
}

/// `wire_durable`: the open-loop TCP workload over a durable WAL.
pub fn wire_durable(args: &Args) -> Report {
    let mut report = Report::default();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut tracer = if args.trace {
        Tracer::on(Instant::now(), SPAN_CAPACITY)
    } else {
        Tracer::off()
    };
    let mut setups = Vec::with_capacity(repeats);
    let mut wire = None;
    for index in 0..repeats {
        if let Some(w) = wire.take() {
            let path = Wire::shut_down(w);
            let _ = std::fs::remove_file(path);
        }
        let (made, time) = time_setup(|| wire_setup(args.seed, index, &mut tracer));
        match made {
            Ok(w) => wire = Some(w),
            Err(e) => {
                report.check(false, format!("wire set-up: {e}"));
                return report;
            }
        }
        setups.push(time);
    }
    let mut w = wire.expect("at least one set-up");
    let mut next_pair = 0u64;
    // every acked standing query, and no pair member, must survive
    let expected: BTreeSet<u64> = w.standing.iter().copied().collect();
    storm(
        &mut w,
        &mut report,
        &mut next_pair,
        WARMUP_PAIRS,
        &mut Tracer::off(),
    );

    if !args.trace {
        let pairs = pairs_for(args.seconds, MIN_P99_SAMPLES);
        let phase = storm(
            &mut w,
            &mut report,
            &mut next_pair,
            pairs,
            &mut Tracer::off(),
        );
        let setup_s = |f: fn(&SetupTime) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        report.add("setup_s", "s", setup_s(|t| t.s), setups.len());
        report.add("raw.setup_s", "s", setup_s(|t| t.raw_s), setups.len());
        add_phase_metrics(&mut report, &phase);
        let path = w.shut_down();
        if let Some(r) = recover(&mut report, &path, &expected, false) {
            report.add("recover_s", "s", r.recover_s, 1);
        }
        let _ = std::fs::remove_file(path);
        report.add("rss_mb", "MiB", crate::peak_rss_mb(), 1);
        return report;
    }

    let pairs = pairs_for(args.seconds / 2.0, 0);
    let untraced = storm(
        &mut w,
        &mut report,
        &mut next_pair,
        pairs,
        &mut Tracer::off(),
    );
    let traced = storm(&mut w, &mut report, &mut next_pair, pairs, &mut tracer);
    report.count(
        untraced.requests + traced.requests,
        untraced.failed + traced.failed,
    );
    let build_ms = w.build_ms;
    let spans = tracer.by_name();
    for (metric, span) in [
        ("sql.parse_us", "sql.parse"),
        ("core.compile_us", "core.compile"),
    ] {
        let s = spans.get(span).copied().unwrap_or_default();
        report.add(metric, "us", s.mean_us(), s.count as usize);
    }
    work_metrics(
        &mut report,
        &[(traced.before, traced.after)],
        2 * traced.pairs,
    );
    let (sum, n) = traced.skew;
    report.add(
        "core.pending_skew",
        "ratio",
        sum / n.max(1) as f64,
        n as usize,
    );
    report.add("exec.build_ms", "ms", build_ms, 1);
    let mean_latency = |p: &WirePhase| (p.register.mean() + p.matched.mean()) / 2.0;
    report.add(
        "bench.trace_overhead_pct",
        "%",
        overhead_pct(mean_latency(&untraced), mean_latency(&traced)),
        traced.requests as usize,
    );
    report.add(
        "storage.wal_bytes_per_arrival",
        "B",
        traced.wal_bytes as f64 / (2 * traced.pairs).max(1) as f64,
        2 * traced.pairs as usize,
    );
    report.add_latency("net.probe", &traced.probe, 50);
    report.add_latency("net.probe", &traced.probe, 99);
    let gap = traced.push_gap.percentile(50).map_or(0.0, |q| q.value);
    report.add("net.push_gap_ms", "ms", gap, traced.push_gap.len());
    report.add(
        "net.queued_bytes_max",
        "B",
        traced.queued_bytes_max as f64,
        traced.skew.1 as usize,
    );
    let server_stats = w.server.stats();
    report.add(
        "net.slow_peer_disconnects",
        "count",
        server_stats.slow_peer_disconnects as f64,
        1,
    );
    report.add_latency("bench.lag", &traced.lag, 99);
    for (metric, span) in [
        ("net.write_us", "net.write"),
        ("net.decode_us", "net.decode"),
    ] {
        let s = spans.get(span).copied().unwrap_or_default();
        report.add(metric, "us", s.mean_us(), s.count as usize);
    }
    let path = w.shut_down();
    if let Some(r) = recover(&mut report, &path, &expected, true) {
        report.add("storage.replay_ms", "ms", r.replay_ms.unwrap_or(0.0), 1);
        report.add("core.recovery_sweep_ms", "ms", r.sweep_ms, 1);
        report.add("core.events_replayed", "count", r.events_replayed as f64, 1);
    }
    let _ = std::fs::remove_file(path);
    crate::inproc::self_times(&mut report, &tracer);
    let dump = crate::out_dir().join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    if let Err(e) = tracer.write_tsv(&dump) {
        report.check(false, format!("writing {}: {e}", dump.display()));
    }
    report
}

/// Measures the pipelined capacity the offered rate is derived from:
/// all first members sent at once on A, then all closers on B.
pub fn calibrate(args: &Args) {
    let pairs = 2000u64;
    let mut w = match wire_setup(args.seed, 99, &mut Tracer::off()) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: calibrate set-up: {e}");
            return;
        }
    };
    let blast = |conn: &mut Conn, texts: Vec<String>| -> Result<f64, String> {
        let started = Instant::now();
        let mut frames = Vec::new();
        for (i, sql) in texts.into_iter().enumerate() {
            frames.extend(frame(&Request::Submit {
                corr: i as u64 + 1,
                deadline: None,
                sql,
            }));
        }
        conn.send(&frames)?;
        let (mut got, mut responses) = (0usize, Vec::new());
        while got < pairs as usize {
            if conn.recv(REPLY_TIMEOUT, &mut responses)?.is_none() {
                return Err("calibration timed out".into());
            }
            got += responses
                .drain(..)
                .filter(|r| !matches!(r, Response::Done { corr: 0, .. }))
                .count();
        }
        Ok(started.elapsed().as_secs_f64())
    };
    let (firsts, closers): (Vec<_>, Vec<_>) = (0..pairs)
        .map(|p| {
            let (a, b) = pair_requests(p);
            (a.sql, b.sql)
        })
        .unzip();
    let result = blast(&mut w.a, firsts).and_then(|ta| Ok((ta, blast(&mut w.b, closers)?)));
    match result {
        Ok((ta, tb)) => println!(
            "pipelined capacity: {:.0} pairs/s ({pairs} first members in {ta:.3}s, \
             {pairs} closers in {tb:.3}s)",
            pairs as f64 / (ta + tb)
        ),
        Err(e) => eprintln!("perfbench: calibrate: {e}"),
    }
    let path = w.shut_down();
    let _ = std::fs::remove_file(path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_core::QueryId;

    #[test]
    fn offered_rate_fills_every_p99() {
        assert!(pairs_for(1.0, MIN_P99_SAMPLES) >= MIN_P99_SAMPLES as u64);
        assert_eq!(pairs_for(10.0, 0), (10.0 * PAIRS_PER_S) as u64);
    }

    #[test]
    fn responses_carry_their_correlation_id() {
        let done = Response::Done {
            corr: 9,
            qid: QueryId(3).0,
            outcome: Outcome::Cancelled,
        };
        assert_eq!(corr_of(&done), 9);
        assert_eq!(
            corr_of(&Response::Welcome {
                session: 1,
                reattached: 0
            }),
            0
        );
    }
}
