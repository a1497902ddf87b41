//! The in-process workloads, `match_standing` and `register_churn`:
//! closed loops on one thread, no WAL, each arrival going from SQL text
//! through `compile_sql` to `ShardedCoordinator::submit_with`.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use youtopia_core::{
    compile, compile_sql, CoreError, CoreResult, MatchNotification, QueryId, ShardedCoordinator,
    Submission, SubmitOptions, SystemStats, Ticket,
};
use youtopia_sql::{parse_statement, Statement};
use youtopia_travel::{drive_batched, Request, WorkloadGen};

use crate::hostspeed::{time_setup, HostSpeed, SetupTime, PROBE_EVERY, WINDOW};
use crate::stats::{median, ms_between, Report, Samples};
use crate::trace::Tracer;
use crate::{Args, CITIES, DEST, FLIGHTS, RELATIONS, SPAN_CAPACITY};

/// Standing never-matching queries under `match_standing`.
const STANDING: usize = 8000;
/// Pairs per storm round: all first members, then all closers.
const ROUND_PAIRS: u64 = 100;
/// Pairs per `match_standing` epoch.
const EPOCH_PAIRS: u64 = 2000;
/// Steps per `register_churn` epoch.
const EPOCH_STEPS: u64 = 30_000;
/// Samples every p99 series needs before an untraced run may stop.
pub const MIN_P99_SAMPLES: usize = 1000;
/// Logical lifetime of a `register_churn` query, in steps; with half
/// cancelled midway this holds about 1k standing.
const LIFETIME: u64 = 1333;
/// `register_churn` calls `expire_due` every this many steps.
const EXPIRE_EVERY: u64 = 16;
/// Chance that a `register_churn` step also starts a pair (pairs are
/// about a tenth of arrivals).
const PAIR_CHANCE: f64 = 0.055;
/// Chance that a `register_churn` query is cancelled before its deadline.
const CANCEL_CHANCE: f64 = 0.5;
/// Arrivals between samples of the per-shard pending counts.
const SKEW_EVERY: u64 = 256;

/// Pair `pair`'s first member and closer: the generator's pair request
/// under a unique pair id, so no pair can be answered from an earlier
/// pair's committed rows.
pub fn pair_requests(pair: u64) -> (Request, Request) {
    let rel = format!("Reservation{}", pair % RELATIONS as u64);
    let (a, b) = (format!("p{pair}a"), format!("p{pair}b"));
    (
        WorkloadGen::pair_request_on(&rel, &a, &b, DEST),
        WorkloadGen::pair_request_on(&rel, &b, &a, DEST),
    )
}

/// The flight a notification's (single) answer row books.
fn booked(n: &MatchNotification) -> Option<(String, youtopia_storage::Value)> {
    let (rel, row) = n.answers.first()?;
    Some((rel.clone(), row.get(1)?.clone()))
}

/// Checks that a closed pair's two answer rows share one relation and
/// one `fno`: the closer's notification against its partner's ticket.
fn check_pair(report: &mut Report, partner: Ticket, closer: &MatchNotification) {
    match partner.receiver.try_recv() {
        Ok(first) => {
            let (a, b) = (booked(&first), booked(closer));
            report.check(
                a.is_some() && a == b,
                format!("pair {:?}/{:?} booked {a:?} vs {b:?}", first.id, closer.id),
            );
        }
        Err(_) => report.check(
            false,
            format!("partner {:?} got no notification", partner.id),
        ),
    }
}

/// Submits arrivals, timing each from SQL text to the submit's return.
/// With tracing on, an arrival is split into `sql.parse`,
/// `core.compile` and `core.submit_*` spans under one `arrival` span,
/// and the matcher time inside each answered submit is read from the
/// coordinator's counters around the call. A probing submitter also
/// times the host-speed probe every [`PROBE_EVERY`] arrivals, outside
/// the arrivals' timings.
struct Submitter {
    tracer: Tracer,
    /// The host-speed probe, when this submitter probes.
    host: Option<HostSpeed>,
    next_req: u64,
    /// Answered submit time minus the matcher time inside it, µs.
    outside_matcher: Samples,
    /// Sum and count of max ÷ mean pending per shard.
    skew: (f64, u64),
}

impl Submitter {
    /// A probing submitter starts with a full window of probes.
    fn new(tracer: Tracer, probing: bool) -> Submitter {
        let host = probing.then(|| {
            let mut host = HostSpeed::default();
            for salt in 0..WINDOW as u64 {
                host.probe(salt);
            }
            host
        });
        Submitter {
            tracer,
            host,
            next_req: 1,
            outside_matcher: Samples::default(),
            skew: (0.0, 0),
        }
    }

    /// Wall time this submitter has spent probing, in seconds.
    fn probed_s(&self) -> f64 {
        self.host.as_ref().map_or(0.0, HostSpeed::spent_s)
    }

    fn arrive(
        &mut self,
        co: &ShardedCoordinator,
        owner: &str,
        sql: &str,
        opts: SubmitOptions,
    ) -> (CoreResult<Submission>, Timing) {
        let req = self.next_req;
        self.next_req += 1;
        if let Some(host) = self
            .host
            .as_mut()
            .filter(|_| req.is_multiple_of(PROBE_EVERY))
        {
            host.probe(req);
        }
        if !self.tracer.enabled() {
            let started = Instant::now();
            let out = compile_sql(sql).and_then(|q| co.submit_with(owner, q, opts));
            return (out, self.timing(started, Instant::now()));
        }
        let root = self.tracer.begin("arrival", req);
        let started = Instant::now();
        let compiled = match self.tracer.span("sql.parse", req, || parse_statement(sql)) {
            Ok(Statement::Entangled(ent)) => {
                self.tracer.span("core.compile", req, || compile(&ent, sql))
            }
            Ok(_) => Err(CoreError::NotEntangled),
            Err(e) => Err(CoreError::Parse(e.to_string())),
        };
        let matcher_before = co.stats().matching_nanos;
        let span = self.tracer.begin("core.submit", req);
        let submit_started = Instant::now();
        let out = compiled.and_then(|q| co.submit_with(owner, q, opts));
        let submit_ns = submit_started.elapsed().as_nanos();
        self.tracer.end(span);
        let finished = Instant::now();
        match &out {
            Ok(Submission::Answered(_)) => {
                self.tracer.rename(span, "core.submit_answered");
                let matcher = co.stats().matching_nanos - matcher_before;
                self.outside_matcher
                    .push(submit_ns.saturating_sub(matcher) as f64 / 1e3);
            }
            Ok(Submission::Pending(_)) => self.tracer.rename(span, "core.submit_pending"),
            Err(_) => self.tracer.rename(span, "core.submit_failed"),
        }
        if req.is_multiple_of(SKEW_EVERY) {
            let per_shard = co.pending_per_shard();
            let mean = per_shard.iter().sum::<usize>() as f64 / per_shard.len() as f64;
            if mean > 0.0 {
                self.skew.0 += per_shard.iter().copied().max().unwrap_or(0) as f64 / mean;
                self.skew.1 += 1;
            }
        }
        self.tracer.end(root);
        (out, self.timing(started, finished))
    }

    /// An arrival's latency, scaled by the host's speed just before it.
    fn timing(&self, started: Instant, finished: Instant) -> Timing {
        let raw_ms = ms_between(started, finished);
        let scale = self.host.as_ref().map_or(1.0, HostSpeed::window_scale);
        Timing {
            raw_ms,
            ms: raw_ms * scale,
        }
    }
}

/// One arrival's latency, SQL text to the submit's return.
#[derive(Debug, Clone, Copy)]
struct Timing {
    /// As measured.
    raw_ms: f64,
    /// At the nominal host speed.
    ms: f64,
}

/// One latency series, at the nominal host speed and as measured.
#[derive(Debug, Default)]
struct Series {
    scaled: Samples,
    raw: Samples,
}

impl Series {
    fn push(&mut self, t: Timing) {
        self.scaled.push(t.ms);
        self.raw.push(t.raw_ms);
    }

    fn push_failed(&mut self) {
        self.scaled.push_failed();
        self.raw.push_failed();
    }

    fn extend(&mut self, other: Series) {
        self.scaled.extend(other.scaled);
        self.raw.extend(other.raw);
    }

    fn len(&self) -> usize {
        self.raw.len()
    }
}

/// What one epoch measured.
#[derive(Debug, Default)]
struct Phase {
    /// SQL text → `Pending` ack.
    register: Series,
    /// SQL text → `Answered`, for arrivals that close a group.
    matched: Series,
    arrivals: u64,
    /// Submits + cancels + expirations.
    ops: u64,
    failed: u64,
    wall_s: f64,
    /// Coordinator counters before and after each epoch.
    windows: Vec<(SystemStats, SystemStats)>,
}

impl Phase {
    /// Records a submit that should register as pending; returns its
    /// ticket.
    fn pending(
        &mut self,
        report: &mut Report,
        out: CoreResult<Submission>,
        timing: Timing,
        what: &str,
    ) -> Option<Ticket> {
        self.arrivals += 1;
        self.ops += 1;
        match out {
            Ok(Submission::Pending(ticket)) => {
                self.register.push(timing);
                Some(ticket)
            }
            Ok(Submission::Answered(n)) => {
                self.register.push(timing);
                report.check(false, format!("{what} {:?} answered on arrival", n.id));
                None
            }
            Err(e) => {
                self.register.push_failed();
                self.failed += 1;
                report.check(false, format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// Records a submit that should close its pair against `partner`.
    fn close(
        &mut self,
        report: &mut Report,
        out: CoreResult<Submission>,
        timing: Timing,
        partner: Option<Ticket>,
    ) {
        self.arrivals += 1;
        self.ops += 1;
        match out {
            Ok(Submission::Answered(n)) => {
                self.matched.push(timing);
                if let Some(partner) = partner {
                    check_pair(report, partner, &n);
                }
            }
            Ok(Submission::Pending(ticket)) => {
                self.matched.push(timing);
                report.check(false, format!("closer {:?} left pending", ticket.id));
            }
            Err(e) => {
                self.matched.push_failed();
                self.failed += 1;
                report.check(false, format!("closer failed: {e}"));
            }
        }
    }

    /// Adds another epoch's measurements.
    fn absorb(&mut self, other: Phase) {
        self.register.extend(other.register);
        self.matched.extend(other.matched);
        self.arrivals += other.arrivals;
        self.ops += other.ops;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.windows.extend(other.windows);
    }

    fn per_op_s(&self) -> f64 {
        self.wall_s / self.ops.max(1) as f64
    }
}

/// Times one epoch on `co`: `body` runs the epoch's requests into a
/// fresh [`Phase`], which also gets the coordinator counters around it.
fn timed_epoch(co: &ShardedCoordinator, body: impl FnOnce(&mut Phase)) -> Phase {
    let before = co.stats();
    let started = Instant::now();
    let mut phase = Phase::default();
    body(&mut phase);
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.windows.push((before, co.stats()));
    phase
}

/// The sum of `field` over each window's after − before.
fn delta(windows: &[(SystemStats, SystemStats)], field: impl Fn(&SystemStats) -> u64) -> u64 {
    windows.iter().map(|(b, a)| field(a) - field(b)).sum()
}

/// The end-to-end metrics of the untraced epochs. Set-up time, the
/// latencies and the rates are reported at the nominal host speed (see
/// [`crate::hostspeed`]); their unscaled values are printed as `raw.*`.
fn end_to_end(report: &mut Report, e: &Epochs) {
    let phase = &e.plain;
    let host = e
        .untraced_submitter
        .host
        .as_ref()
        .expect("the untraced submitter probes");
    let setup_s = |f: fn(&SetupTime) -> f64| median(&e.setups.iter().map(f).collect::<Vec<_>>());
    report.add("setup_s", "s", setup_s(|t| t.s), e.setups.len());
    report.add("rss_mb", "MiB", e.rss_mb, 1);
    report.count(phase.ops, phase.failed);
    report.add(
        "failed_frac",
        "ratio",
        phase.failed as f64 / phase.ops.max(1) as f64,
        phase.ops as usize,
    );
    report.add_latency("match", &phase.matched.scaled, 50);
    report.add_latency("match", &phase.matched.scaled, 99);
    report.add_latency("register", &phase.register.scaled, 50);
    report.add_latency("register", &phase.register.scaled, 99);
    let n = phase.arrivals as usize;
    let arrivals_per_s = phase.arrivals as f64 / phase.wall_s;
    let ops_per_s = phase.ops as f64 / phase.wall_s;
    let rate_scale = host.mean_scale();
    report.add("arrivals_per_s", "1/s", arrivals_per_s / rate_scale, n);
    report.add(
        "churn_ops_per_s",
        "1/s",
        ops_per_s / rate_scale,
        phase.ops as usize,
    );

    report.add("host.probe_p50_us", "us", host.median_us(), host.len());
    report.add("host.probe_mean_us", "us", host.mean_us(), host.len());
    report.add("raw.setup_s", "s", setup_s(|t| t.raw_s), e.setups.len());
    report.add_latency("raw.match", &phase.matched.raw, 50);
    report.add_latency("raw.register", &phase.register.raw, 50);
    report.add("raw.arrivals_per_s", "1/s", arrivals_per_s, n);
    report.add("raw.churn_ops_per_s", "1/s", ops_per_s, phase.ops as usize);
}

/// Matcher counters per arrival, from the coordinator's cumulative
/// `SystemStats` around each window (shared with the wire workload).
pub fn work_metrics(report: &mut Report, windows: &[(SystemStats, SystemStats)], arrivals: u64) {
    let n = arrivals.max(1) as f64;
    let count = arrivals as usize;
    let attempts = delta(windows, |s| s.match_attempts);
    let matcher_ns: u128 = windows
        .iter()
        .map(|(b, a)| a.matching_nanos - b.matching_nanos)
        .sum();
    report.add(
        "core.matcher_us",
        "us",
        matcher_ns as f64 / attempts.max(1) as f64 / 1e3,
        attempts as usize,
    );
    let work =
        |field: fn(&youtopia_core::MatchStats) -> u64| delta(windows, |s| field(&s.match_work));
    let scanned = work(|w| w.candidates_scanned);
    let pruned = work(|w| w.index_pruned);
    let tries = work(|w| w.unify_attempts);
    report.add(
        "core.candidates_scanned",
        "count",
        scanned as f64 / n,
        count,
    );
    report.add("core.index_pruned", "count", pruned as f64 / n, count);
    let prune_rate = pruned as f64 / (pruned + scanned).max(1) as f64;
    report.add("core.index_prune_rate", "ratio", prune_rate, count);
    report.add(
        "core.triggers_pruned",
        "count",
        work(|w| w.triggers_pruned) as f64 / n,
        count,
    );
    report.add("core.unify_attempts", "count", tries as f64 / n, count);
    let hit_rate = work(|w| w.unify_successes) as f64 / tries.max(1) as f64;
    report.add("core.unify_hit_rate", "ratio", hit_rate, count);
    report.add(
        "core.nodes_expanded",
        "count",
        work(|w| w.nodes_expanded) as f64 / n,
        count,
    );
    report.add(
        "core.rows_scanned",
        "count",
        work(|w| w.rows_scanned) as f64 / n,
        count,
    );
    report.add(
        "core.pool_misses",
        "count",
        work(|w| w.pool_misses) as f64 / n,
        count,
    );
}

/// Tracing overhead: the traced phase's time per operation against the
/// untraced phase's, in percent.
pub fn overhead_pct(untraced_s_per_op: f64, traced_s_per_op: f64) -> f64 {
    (traced_s_per_op / untraced_s_per_op - 1.0) * 100.0
}

/// The per-layer metrics of the traced epochs.
fn per_layer(
    report: &mut Report,
    submitter: &Submitter,
    traced: &Phase,
    untraced: &Phase,
    build_ms: &[f64],
) {
    let spans = submitter.tracer.by_name();
    let span_us = |report: &mut Report, metric: &str, span: &str| {
        let s = spans.get(span).copied().unwrap_or_default();
        report.add(metric, "us", s.mean_us(), s.count as usize);
    };
    span_us(report, "sql.parse_us", "sql.parse");
    span_us(report, "core.compile_us", "core.compile");
    span_us(report, "core.submit_pending_us", "core.submit_pending");
    span_us(report, "core.submit_answered_us", "core.submit_answered");
    report.add(
        "core.outside_matcher_us",
        "us",
        submitter.outside_matcher.mean(),
        submitter.outside_matcher.len(),
    );
    work_metrics(report, &traced.windows, traced.arrivals);
    let (sum, n) = submitter.skew;
    report.add(
        "core.pending_skew",
        "ratio",
        sum / n.max(1) as f64,
        n as usize,
    );
    report.add("exec.build_ms", "ms", median(build_ms), build_ms.len());
    report.add(
        "bench.trace_overhead_pct",
        "%",
        overhead_pct(untraced.per_op_s(), traced.per_op_s()),
        traced.ops as usize,
    );
}

/// Mean self time per span name, and the span count (shared with the
/// wire workload).
pub fn self_times(report: &mut Report, tracer: &Tracer) {
    for (name, s) in tracer.by_name() {
        report.add(
            &format!("self.{name}_us"),
            "us",
            s.mean_self_us(),
            s.count as usize,
        );
    }
    report.add("bench.spans", "count", tracer.spans().len() as f64, 1);
}

/// Writes the traced run's spans at exit.
pub fn dump_spans(report: &mut Report, tracer: &Tracer, args: &Args) {
    let path = crate::out_dir().join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    if let Err(e) = tracer.write_tsv(&path) {
        report.check(false, format!("writing {}: {e}", path.display()));
    }
}

/// Everything an in-process run measured: set-up times, database build
/// times, peak RSS, and the untraced and traced epochs with their
/// submitters.
struct Epochs {
    setups: Vec<SetupTime>,
    builds: Vec<f64>,
    /// Peak RSS at the end of the first epoch, MiB: the system at its
    /// full standing load, before the run's latency samples (whose
    /// number follows the host's speed) take up memory of their own.
    rss_mb: f64,
    plain: Phase,
    traced: Phase,
    untraced_submitter: Submitter,
    traced_submitter: Submitter,
}

/// Runs epochs, each from a fresh set-up, until `--seconds` of timed
/// epochs are done (and, untraced, the p99 series are full). Every
/// epoch starts from the same state, so a run's samples do not depend
/// on how far it got. A traced run alternates untraced and traced
/// epochs and stops early if the span buffer fills.
///
/// `setup` builds one epoch's state given the tracer for the
/// `exec.build` span and returns it with its database build time; `run`
/// drives one epoch. Both record their output checks in `report`.
fn run_epochs<S>(
    args: &Args,
    report: &mut Report,
    mut setup: impl FnMut(&mut Report, &mut Tracer) -> (S, f64),
    mut run: impl FnMut(&mut S, &mut Submitter, &mut Report) -> Phase,
) -> Epochs {
    let mut e = Epochs {
        setups: Vec::new(),
        builds: Vec::new(),
        rss_mb: 0.0,
        plain: Phase::default(),
        traced: Phase::default(),
        untraced_submitter: Submitter::new(Tracer::off(), true),
        traced_submitter: Submitter::new(
            if args.trace {
                Tracer::on(Instant::now(), SPAN_CAPACITY)
            } else {
                Tracer::off()
            },
            true,
        ),
    };
    for epoch in 0.. {
        let trace_this = args.trace && epoch % 2 == 1;
        let ((mut state, build_ms), setup_time) =
            time_setup(|| setup(report, &mut e.traced_submitter.tracer));
        e.setups.push(setup_time);
        e.builds.push(build_ms);
        let submitter = if trace_this {
            &mut e.traced_submitter
        } else {
            &mut e.untraced_submitter
        };
        let probed_s = submitter.probed_s();
        let mut phase = run(&mut state, submitter, report);
        // the probe's own time is not the workload's
        phase.wall_s -= submitter.probed_s() - probed_s;
        if trace_this {
            e.traced.absorb(phase);
        } else {
            e.plain.absorb(phase);
        }
        drop(state);
        if epoch == 0 {
            e.rss_mb = crate::peak_rss_mb();
        }
        let timed = e.plain.wall_s + e.traced.wall_s;
        let done = if args.trace {
            e.traced.wall_s > 0.0 && (timed >= args.seconds || e.traced_submitter.tracer.full())
        } else {
            timed >= args.seconds
                && e.plain.register.len() >= MIN_P99_SAMPLES
                && e.plain.matched.len() >= MIN_P99_SAMPLES
        };
        if done {
            break;
        }
    }
    e
}

// ------------------------------------------------------------------ //
// match_standing
// ------------------------------------------------------------------ //

/// Builds the database and preloads [`STANDING`] never-matching
/// queries over [`RELATIONS`] answer relations; returns the coordinator
/// and the database build time.
fn standing_setup(
    report: &mut Report,
    seed: u64,
    tracer: &mut Tracer,
) -> (ShardedCoordinator, f64) {
    let mut generator = WorkloadGen::new(seed);
    let started = Instant::now();
    let db = tracer
        .span("exec.build", 0, || {
            generator.build_database(FLIGHTS, CITIES)
        })
        .expect("the travel database builds");
    let build_ms = ms_between(started, Instant::now());
    let co = ShardedCoordinator::with_config(db, crate::sharded_config());
    let noise = generator.noise_multi(STANDING, DEST, RELATIONS);
    let drive = drive_batched(&co, &noise, 128);
    report.check(
        drive.pending == STANDING && co.pending_count() == STANDING,
        format!(
            "standing preload registered {} of {STANDING}",
            drive.pending
        ),
    );
    (co, build_ms)
}

/// One epoch: [`EPOCH_PAIRS`] pairs in rounds of [`ROUND_PAIRS`] (all
/// first members, then all closers, each shuffled), one arrival per
/// call; stops early only when the span buffer fills.
fn pair_storm(
    co: &ShardedCoordinator,
    submitter: &mut Submitter,
    report: &mut Report,
    rng: &mut StdRng,
) -> Phase {
    let mut pairs = 0u64;
    let phase = timed_epoch(co, |phase| {
        while pairs < EPOCH_PAIRS && !submitter.tracer.full() {
            let mut round: Vec<(Request, Request)> =
                (pairs..pairs + ROUND_PAIRS).map(pair_requests).collect();
            round.shuffle(rng);
            let mut tickets = HashMap::with_capacity(round.len());
            for (i, (first, _)) in round.iter().enumerate() {
                let (out, timing) =
                    submitter.arrive(co, &first.owner, &first.sql, SubmitOptions::default());
                if let Some(t) = phase.pending(report, out, timing, "first member") {
                    tickets.insert(i, t);
                }
            }
            let mut order: Vec<usize> = (0..round.len()).collect();
            order.shuffle(rng);
            for i in order {
                let closer = &round[i].1;
                let (out, timing) =
                    submitter.arrive(co, &closer.owner, &closer.sql, SubmitOptions::default());
                phase.close(report, out, timing, tickets.remove(&i));
            }
            pairs += ROUND_PAIRS;
        }
    });
    let answered = delta(&phase.windows, |s| s.answered);
    report.check(
        answered == 2 * pairs,
        format!("answered {answered} for {pairs} pairs"),
    );
    let pending = co.pending_count();
    report.check(
        pending == STANDING,
        format!("pending {pending} after the storm, standing {STANDING}"),
    );
    phase
}

/// `match_standing`: 8k standing never-matching queries, then pair
/// storms one arrival per call.
pub fn match_standing(args: &Args) -> Report {
    let mut report = Report::default();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x6d61_7463);
    let e = run_epochs(
        args,
        &mut report,
        |report, tracer| standing_setup(report, args.seed, tracer),
        |co, submitter, report| pair_storm(co, submitter, report, &mut rng),
    );
    if !args.trace {
        end_to_end(&mut report, &e);
        return report;
    }
    report.count(e.plain.ops + e.traced.ops, e.plain.failed + e.traced.failed);
    per_layer(
        &mut report,
        &e.traced_submitter,
        &e.traced,
        &e.plain,
        &e.builds,
    );
    self_times(&mut report, &e.traced_submitter.tracer);
    dump_spans(&mut report, &e.traced_submitter.tracer, args);
    report
}

// ------------------------------------------------------------------ //
// register_churn
// ------------------------------------------------------------------ //

/// The `register_churn` generator and its ledger of what the
/// coordinator must hold.
struct Churn {
    rng: StdRng,
    step: u64,
    next_noise: u64,
    next_pair: u64,
    /// Live never-matching queries and their deadlines.
    live: HashMap<QueryId, u64>,
    /// Deadline → queries due then (cancelled ones are skipped).
    due: BTreeMap<u64, Vec<QueryId>>,
    /// Step → queries to cancel then.
    cancel_at: BTreeMap<u64, Vec<QueryId>>,
    /// Step → pairs to close then: (pair id, first member's ticket).
    close_at: BTreeMap<u64, Vec<(u64, Option<Ticket>)>>,
    cancelled: u64,
    expired: u64,
}

impl Churn {
    fn new(seed: u64) -> Churn {
        Churn {
            rng: StdRng::seed_from_u64(seed ^ 0x6368_7572),
            step: 0,
            next_noise: 0,
            next_pair: 0,
            live: HashMap::new(),
            due: BTreeMap::new(),
            cancel_at: BTreeMap::new(),
            close_at: BTreeMap::new(),
            cancelled: 0,
            expired: 0,
        }
    }

    /// Queries the coordinator must hold pending right now.
    fn expected_pending(&self) -> usize {
        self.live.len() + self.close_at.values().map(Vec::len).sum::<usize>()
    }

    /// One logical step: a never-matching arrival with a deadline,
    /// maybe a pair's first member, the closers, cancels and (every
    /// [`EXPIRE_EVERY`] steps) the expiry sweep that fall due now.
    fn step(
        &mut self,
        co: &ShardedCoordinator,
        submitter: &mut Submitter,
        report: &mut Report,
        phase: &mut Phase,
    ) {
        self.step += 1;
        let now = self.step;

        let n = self.next_noise;
        self.next_noise += 1;
        let rel = format!("Reservation{}", n % RELATIONS as u64);
        let request = WorkloadGen::pair_request_on(&rel, &format!("c{n}"), &format!("x{n}"), DEST);
        let deadline = now + LIFETIME;
        let (out, timing) = submitter.arrive(
            co,
            &request.owner,
            &request.sql,
            SubmitOptions::with_deadline(deadline),
        );
        if let Some(ticket) = phase.pending(report, out, timing, "churn query") {
            self.live.insert(ticket.id, deadline);
            self.due.entry(deadline).or_default().push(ticket.id);
            if self.rng.random_bool(CANCEL_CHANCE) {
                let at = now + self.rng.random_range(1..LIFETIME);
                self.cancel_at.entry(at).or_default().push(ticket.id);
            }
        }

        if self.rng.random_bool(PAIR_CHANCE) {
            let pair = self.next_pair;
            self.next_pair += 1;
            let (first, _) = pair_requests(pair);
            let (out, timing) =
                submitter.arrive(co, &first.owner, &first.sql, SubmitOptions::default());
            let ticket = phase.pending(report, out, timing, "first member");
            let at = now + self.rng.random_range(1..=8u64);
            self.close_at.entry(at).or_default().push((pair, ticket));
        }

        for (pair, ticket) in self.close_at.remove(&now).unwrap_or_default() {
            let (_, closer) = pair_requests(pair);
            let (out, timing) =
                submitter.arrive(co, &closer.owner, &closer.sql, SubmitOptions::default());
            phase.close(report, out, timing, ticket);
        }

        for qid in self.cancel_at.remove(&now).unwrap_or_default() {
            let result = submitter
                .tracer
                .span("core.cancel", qid.0, || co.cancel(qid));
            phase.ops += 1;
            match result {
                Ok(()) => {
                    self.live.remove(&qid);
                    self.cancelled += 1;
                }
                Err(e) => {
                    phase.failed += 1;
                    report.check(false, format!("cancel {qid:?}: {e}"));
                }
            }
        }

        if now.is_multiple_of(EXPIRE_EVERY) {
            let mut got = submitter
                .tracer
                .span("core.expire_due", now, || co.expire_due(now));
            let mut expected: Vec<QueryId> = Vec::new();
            while let Some(entry) = self.due.first_entry() {
                if *entry.key() > now {
                    break;
                }
                expected.extend(
                    entry
                        .remove()
                        .into_iter()
                        .filter(|q| self.live.contains_key(q)),
                );
            }
            got.sort();
            expected.sort();
            report.check(
                got == expected,
                format!(
                    "expire_due({now}) retired {} of {} due",
                    got.len(),
                    expected.len()
                ),
            );
            for qid in &got {
                self.live.remove(qid);
            }
            self.expired += got.len() as u64;
            phase.ops += got.len() as u64;
        }
    }
}

/// One epoch: [`EPOCH_STEPS`] churn steps (fewer only when the span
/// buffer fills), then the ledger reconciliation.
fn churn_epoch(
    co: &ShardedCoordinator,
    churn: &mut Churn,
    submitter: &mut Submitter,
    report: &mut Report,
) -> Phase {
    let expired = churn.expired;
    let last = churn.step + EPOCH_STEPS;
    let phase = timed_epoch(co, |phase| {
        while churn.step < last && !submitter.tracer.full() {
            churn.step(co, submitter, report, phase);
        }
    });
    let pending = co.pending_count();
    report.check(
        pending == churn.expected_pending(),
        format!("pending {pending}, ledger {}", churn.expected_pending()),
    );
    let expired_delta = delta(&phase.windows, |s| s.expired);
    report.check(
        expired_delta == churn.expired - expired,
        format!(
            "stats expired {expired_delta}, ledger {}",
            churn.expired - expired
        ),
    );
    let answered = delta(&phase.windows, |s| s.answered);
    report.check(
        answered == 2 * phase.matched.len() as u64,
        format!("answered {answered} for {} closers", phase.matched.len()),
    );
    phase
}

/// Builds the database and churns, untimed, until the standing count
/// is steady (about 1k); returns the coordinator, the generator and the
/// database build time.
fn churn_setup(
    report: &mut Report,
    seed: u64,
    tracer: &mut Tracer,
) -> ((ShardedCoordinator, Churn), f64) {
    let mut generator = WorkloadGen::new(seed);
    let started = Instant::now();
    let db = tracer
        .span("exec.build", 0, || {
            generator.build_database(FLIGHTS, CITIES)
        })
        .expect("the travel database builds");
    let build_ms = ms_between(started, Instant::now());
    let co = ShardedCoordinator::with_config(db, crate::sharded_config());
    let mut churn = Churn::new(seed);
    let mut submitter = Submitter::new(Tracer::off(), false);
    let mut warm = Phase::default();
    while churn.step < LIFETIME + EXPIRE_EVERY {
        churn.step(&co, &mut submitter, report, &mut warm);
    }
    ((co, churn), build_ms)
}

/// `register_churn`: about 1k standing queries held steady by
/// deadline-bearing arrivals, cancels and logical-time expiry sweeps.
pub fn register_churn(args: &Args) -> Report {
    let mut report = Report::default();
    let mut standing = 0usize;
    let e = run_epochs(
        args,
        &mut report,
        |report, tracer| churn_setup(report, args.seed, tracer),
        |(co, churn), submitter, report| {
            let phase = churn_epoch(co, churn, submitter, report);
            standing = churn.live.len();
            phase
        },
    );
    if !args.trace {
        end_to_end(&mut report, &e);
        report.add("standing", "count", standing as f64, 1);
        return report;
    }
    report.count(e.plain.ops + e.traced.ops, e.plain.failed + e.traced.failed);
    per_layer(
        &mut report,
        &e.traced_submitter,
        &e.traced,
        &e.plain,
        &e.builds,
    );
    let spans = e.traced_submitter.tracer.by_name();
    for (metric, span) in [
        ("core.cancel_us", "core.cancel"),
        ("core.expire_due_us", "core.expire_due"),
    ] {
        let s = spans.get(span).copied().unwrap_or_default();
        report.add(metric, "us", s.mean_us(), s.count as usize);
    }
    let sweeps = spans.get("core.expire_due").map_or(0, |s| s.count);
    let expired = delta(&e.traced.windows, |s| s.expired);
    report.add(
        "core.expired",
        "count",
        expired as f64 / sweeps.max(1) as f64,
        sweeps as usize,
    );
    self_times(&mut report, &e.traced_submitter.tracer);
    dump_spans(&mut report, &e.traced_submitter.tracer, args);
    report
}
