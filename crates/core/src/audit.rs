//! The coordination audit subsystem: every terminal [`CoordEvent`]
//! (plus submit-time registration) is mirrored into **insert-only
//! system relations** that the engine's own SQL layer can query — the
//! system dogfoods itself for observability.
//!
//! Two relations are maintained:
//!
//! * [`AUDIT_TABLE`] (`sys_audit`) — one row per audit-relevant event:
//!   `(qid, tenant, owner, kind, submitted_at, resolved_at, outcome,
//!   latency_micros, shard)`. Registration writes a `submit` row with
//!   outcome `pending`; a match / cancellation / expiry writes a
//!   terminal row carrying the resolution time and the
//!   submit-to-resolution latency.
//! * [`LATENCY_TABLE`] (`sys_tenant_latency`) — a rolled-up latency
//!   histogram with fixed log2 buckets, updated **in place** per
//!   `(tenant, outcome, bucket)`: bucket `b` counts resolutions whose
//!   latency in microseconds lies in `[2^(b-1), 2^b)` (bucket 0 counts
//!   zero-latency resolutions).
//!
//! Both relations are *transient system tables* (the `sys_` prefix,
//! see [`youtopia_storage::db::TRANSIENT_PREFIX`]): fully readable
//! through `SELECT`, but never WAL-logged and skipped by checkpoints —
//! audit writes cost **zero** extra fsyncs. Durability comes from the
//! coordination log itself: the events already carry audit stamps
//! (wire tags 6–9, written only while auditing is enabled), so
//! `recover` rebuilds the relations from the replayed frames and the
//! post-crash audit history matches the pre-crash run.
//!
//! Retention is ring-style and bounded by [`AuditConfig`]: when
//! `sys_audit` exceeds `max_rows`, the oldest `rotate` rows are
//! deleted in the same transaction. The histogram is naturally bounded
//! (tenants × outcomes × 65 buckets) and is never rotated.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use youtopia_storage::{
    Column, DataType, Database, RowId, Schema, StorageResult, Transaction, Tuple, Value,
};

use crate::engine::CoordEvent;
use crate::ir::QueryId;
use crate::lifecycle::Clock;
use crate::tenant::tenant_of;

/// Name of the per-event audit relation.
pub const AUDIT_TABLE: &str = "sys_audit";

/// Name of the per-tenant latency histogram relation.
pub const LATENCY_TABLE: &str = "sys_tenant_latency";

/// Number of log2 latency buckets (bucket index 0..=64 fits any u64).
pub const LATENCY_BUCKETS: u32 = 65;

/// Configuration of the audit sink. Disabled by default: a coordinator
/// without auditing stamps no events and writes no rows, so existing
/// logs and benchmarks are byte- and cost-identical to the pre-audit
/// system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Master switch. When off, no audit stamps are written to the
    /// coordination log and no system relations are touched.
    pub enabled: bool,
    /// Ring-retention cap on `sys_audit` rows. When an insert pushes
    /// the table past this bound, the oldest `rotate` rows are deleted.
    pub max_rows: usize,
    /// How many oldest rows one rotation discards (clamped to ≥ 1).
    pub rotate: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            enabled: false,
            max_rows: 8192,
            rotate: 512,
        }
    }
}

impl AuditConfig {
    /// An enabled config with the default bounds.
    pub fn enabled() -> Self {
        AuditConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// The log2 bucket of a latency: 0 for zero, else `floor(log2(x)) + 1`
/// — bucket `b ≥ 1` covers `[2^(b-1), 2^b)`.
pub fn latency_bucket(latency_micros: u64) -> u32 {
    (u64::BITS - latency_micros.leading_zeros()).min(LATENCY_BUCKETS - 1)
}

/// A submit-time entry awaiting its terminal event.
struct OpenEntry {
    owner: String,
    submitted_at: u64,
    shard: u32,
}

#[derive(Default)]
struct SinkInner {
    /// Registered-but-unresolved queries: qid → submit-time facts.
    open: HashMap<u64, OpenEntry>,
    /// `sys_audit` row ids in insertion order (the retention ring).
    ring: VecDeque<RowId>,
    /// `(tenant, outcome, bucket)` → histogram row + in-memory count
    /// (kept here so in-place updates never re-read the table).
    latency: HashMap<(String, String, u32), (RowId, u64)>,
}

/// Transforms coordination events into rows of the audit relations.
/// One sink is shared by all shards of a coordinator; writes are
/// serialized by an internal mutex and go through ordinary storage
/// transactions (which, on transient tables, never reach the WAL).
pub struct AuditSink {
    db: Database,
    config: AuditConfig,
    clock: Arc<dyn Clock>,
    inner: Mutex<SinkInner>,
    /// Whether the system relations are known to exist — set after a
    /// successful bootstrap so the hot path skips the per-transaction
    /// catalog probes.
    tables_ready: std::sync::atomic::AtomicBool,
}

impl AuditSink {
    /// Creates the sink and eagerly bootstraps the (empty) system
    /// relations so dashboards can `SELECT` before any traffic.
    pub(crate) fn new(db: Database, config: AuditConfig, clock: Arc<dyn Clock>) -> AuditSink {
        let sink = AuditSink {
            db,
            config,
            clock,
            inner: Mutex::new(SinkInner::default()),
            tables_ready: std::sync::atomic::AtomicBool::new(false),
        };
        if sink.db.with_txn(ensure_audit_tables).is_ok() {
            sink.tables_ready
                .store(true, std::sync::atomic::Ordering::Release);
        }
        sink
    }

    /// The sink's clock reading, used to stamp events before logging.
    pub(crate) fn now(&self) -> u64 {
        self.clock.now_millis()
    }

    /// The submit stamp of a still-open (pending) query, used by
    /// checkpoints to re-emit surviving registrations without losing
    /// their audit history.
    pub(crate) fn reg_stamp_of(&self, qid: QueryId) -> Option<crate::engine::RegStamp> {
        let inner = self.inner.lock();
        inner.open.get(&qid.0).map(|e| crate::engine::RegStamp {
            at: e.submitted_at,
            shard: e.shard,
        })
    }

    /// Mirrors one coordination event into the audit relations.
    /// Events without audit stamps (written while auditing was off)
    /// are ignored, as are terminal events whose registration was
    /// never seen — the open-entry map is the arbiter, which makes
    /// live observation and log-replay rebuilds agree exactly.
    pub(crate) fn observe(&self, event: &CoordEvent) {
        self.observe_batch(std::slice::from_ref(event));
    }

    /// Mirrors a batch of events in one storage transaction (the
    /// batch-drain and rebuild fast path).
    pub(crate) fn observe_batch(&self, events: &[CoordEvent]) {
        if !self.config.enabled || events.is_empty() {
            return;
        }
        let ready = self.tables_ready.load(std::sync::atomic::Ordering::Acquire);
        let mut inner = self.inner.lock();
        // Audit is telemetry: a failed write must never fail the
        // coordination path, so the result is deliberately dropped.
        let written = self.db.with_txn(|txn| {
            if !ready {
                ensure_audit_tables(txn)?;
            }
            for event in events {
                apply_event(&mut inner, txn, event)?;
            }
            enforce_retention(&mut inner, &self.config, txn)
        });
        if !ready && written.is_ok() {
            self.tables_ready
                .store(true, std::sync::atomic::Ordering::Release);
        }
    }

    /// Rebuilds the audit relations from a recovered log's
    /// coordination frames (called with the tables empty, before the
    /// recovered coordinator processes new traffic). Frames that fail
    /// to decode are skipped — recovery already validated the log.
    pub(crate) fn rebuild_from_frames(&self, frames: &[Vec<u8>]) {
        let events: Vec<CoordEvent> = frames
            .iter()
            .filter_map(|f| CoordEvent::decode(f).ok())
            .collect();
        self.observe_batch(&events);
    }
}

fn ensure_audit_tables(txn: &mut Transaction) -> StorageResult<()> {
    if !txn.catalog().has_table(AUDIT_TABLE) {
        txn.create_table(
            AUDIT_TABLE,
            Schema::new(vec![
                Column::new("qid", DataType::Int64),
                Column::new("tenant", DataType::Str),
                Column::new("owner", DataType::Str),
                Column::new("kind", DataType::Str),
                Column::new("submitted_at", DataType::Int64),
                Column::nullable("resolved_at", DataType::Int64),
                Column::new("outcome", DataType::Str),
                Column::nullable("latency_micros", DataType::Int64),
                Column::new("shard", DataType::Int64),
            ]),
        )?;
    }
    if !txn.catalog().has_table(LATENCY_TABLE) {
        txn.create_table(
            LATENCY_TABLE,
            Schema::new(vec![
                Column::new("tenant", DataType::Str),
                Column::new("outcome", DataType::Str),
                Column::new("bucket", DataType::Int64),
                Column::new("count", DataType::Int64),
            ]),
        )?;
    }
    Ok(())
}

fn apply_event(
    inner: &mut SinkInner,
    txn: &mut Transaction,
    event: &CoordEvent,
) -> StorageResult<()> {
    match event {
        CoordEvent::QueryRegistered {
            owner,
            qid,
            stamp: Some(stamp),
            ..
        } => {
            inner.open.insert(
                qid.0,
                OpenEntry {
                    owner: owner.clone(),
                    submitted_at: stamp.at,
                    shard: stamp.shard,
                },
            );
            let rid = txn.insert(
                AUDIT_TABLE,
                Tuple::new(vec![
                    Value::Int(qid.0 as i64),
                    Value::from(tenant_of(owner)),
                    Value::from(owner.as_str()),
                    Value::from("submit"),
                    Value::Int(stamp.at as i64),
                    Value::Null,
                    Value::from("pending"),
                    Value::Null,
                    Value::Int(stamp.shard as i64),
                ]),
            )?;
            inner.ring.push_back(rid);
        }
        CoordEvent::QueryCancelled { qid, at: Some(at) } => {
            resolve(inner, txn, *qid, "cancel", "cancelled", *at)?;
        }
        CoordEvent::QueryExpired { qid, at: Some(at) } => {
            resolve(inner, txn, *qid, "expire", "expired", *at)?;
        }
        CoordEvent::MatchCommitted {
            qids, at: Some(at), ..
        } => {
            for qid in qids {
                resolve(inner, txn, *qid, "match", "answered", *at)?;
            }
        }
        // stamp-less events (auditing was off when they were logged)
        // and watermarks carry nothing to mirror
        _ => {}
    }
    Ok(())
}

/// Writes the terminal `sys_audit` row for `qid` and bumps its
/// latency-histogram bucket. A qid with no open entry is skipped (its
/// registration predates auditing, or it already resolved).
fn resolve(
    inner: &mut SinkInner,
    txn: &mut Transaction,
    qid: QueryId,
    kind: &str,
    outcome: &str,
    at: u64,
) -> StorageResult<()> {
    let Some(entry) = inner.open.remove(&qid.0) else {
        return Ok(());
    };
    let tenant = tenant_of(&entry.owner).to_string();
    let latency_micros = at.saturating_sub(entry.submitted_at).saturating_mul(1000);
    let rid = txn.insert(
        AUDIT_TABLE,
        Tuple::new(vec![
            Value::Int(qid.0 as i64),
            Value::from(tenant.as_str()),
            Value::from(entry.owner.as_str()),
            Value::from(kind),
            Value::Int(entry.submitted_at as i64),
            Value::Int(at as i64),
            Value::from(outcome),
            Value::Int(latency_micros as i64),
            Value::Int(entry.shard as i64),
        ]),
    )?;
    inner.ring.push_back(rid);

    let bucket = latency_bucket(latency_micros);
    let key = (tenant.clone(), outcome.to_string(), bucket);
    match inner.latency.get_mut(&key) {
        Some((rid, count)) => {
            *count += 1;
            let row = Tuple::new(vec![
                Value::from(tenant.as_str()),
                Value::from(outcome),
                Value::Int(bucket as i64),
                Value::Int(*count as i64),
            ]);
            txn.update(LATENCY_TABLE, *rid, row)?;
        }
        None => {
            let rid = txn.insert(
                LATENCY_TABLE,
                Tuple::new(vec![
                    Value::from(tenant.as_str()),
                    Value::from(outcome),
                    Value::Int(bucket as i64),
                    Value::Int(1),
                ]),
            )?;
            inner.latency.insert(key, (rid, 1));
        }
    }
    Ok(())
}

fn enforce_retention(
    inner: &mut SinkInner,
    config: &AuditConfig,
    txn: &mut Transaction,
) -> StorageResult<()> {
    let rotate = config.rotate.max(1);
    while inner.ring.len() > config.max_rows {
        for _ in 0..rotate.min(inner.ring.len()) {
            if let Some(rid) = inner.ring.pop_front() {
                txn.delete(AUDIT_TABLE, rid)?;
            }
        }
    }
    Ok(())
}

/// One `sys_audit` row, decoded for programmatic consumers (the net
/// protocol's `AuditQuery`, the admin console).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Query id.
    pub qid: u64,
    /// Tenant (owner prefix before the first `/`).
    pub tenant: String,
    /// Full owner string.
    pub owner: String,
    /// Event kind: `submit`, `match`, `cancel`, or `expire`.
    pub kind: String,
    /// Submit time in clock milliseconds.
    pub submitted_at: u64,
    /// Resolution time (`None` on `submit` rows).
    pub resolved_at: Option<u64>,
    /// Outcome: `pending`, `answered`, `cancelled`, or `expired`.
    pub outcome: String,
    /// Submit-to-resolution latency (`None` on `submit` rows).
    pub latency_micros: Option<u64>,
    /// Shard that accepted the query (0 on a one-shard coordinator).
    pub shard: u32,
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => Some(*i as u64),
        _ => None,
    }
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => "",
    }
}

fn decode_audit_row(tuple: &Tuple) -> Option<AuditRecord> {
    let v = tuple.values();
    if v.len() != 9 {
        return None;
    }
    Some(AuditRecord {
        qid: as_u64(&v[0])?,
        tenant: as_str(&v[1]).to_string(),
        owner: as_str(&v[2]).to_string(),
        kind: as_str(&v[3]).to_string(),
        submitted_at: as_u64(&v[4])?,
        resolved_at: as_u64(&v[5]),
        outcome: as_str(&v[6]).to_string(),
        latency_micros: as_u64(&v[7]),
        shard: as_u64(&v[8])? as u32,
    })
}

/// Reads the newest `limit` audit rows of one tenant (in row order,
/// oldest first). Used by the tenant-scoped net `AuditQuery` — callers
/// enforce that a tenant may only read its own slice. Returns empty
/// when the audit relation does not exist (auditing disabled).
pub fn tenant_audit(db: &Database, tenant: &str, limit: usize) -> Vec<AuditRecord> {
    let read = db.read();
    let Ok(table) = read.table(AUDIT_TABLE) else {
        return Vec::new();
    };
    let mut rows: Vec<AuditRecord> = table
        .scan()
        .filter_map(|(_, tuple)| decode_audit_row(tuple))
        .filter(|r| r.tenant == tenant)
        .collect();
    if rows.len() > limit {
        rows.drain(..rows.len() - limit);
    }
    rows
}

/// One `sys_tenant_latency` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyBucket {
    /// Tenant the bucket belongs to.
    pub tenant: String,
    /// Terminal outcome the bucket counts.
    pub outcome: String,
    /// Log2 bucket index: bucket `b ≥ 1` covers latencies in
    /// `[2^(b-1), 2^b)` microseconds; bucket 0 counts zero latency.
    pub bucket: u32,
    /// Resolutions counted in this bucket.
    pub count: u64,
}

/// Reads the latency histogram, optionally filtered to one tenant,
/// sorted by (tenant, outcome, bucket). Empty when the relation does
/// not exist.
pub fn latency_histogram(db: &Database, tenant: Option<&str>) -> Vec<LatencyBucket> {
    let read = db.read();
    let Ok(table) = read.table(LATENCY_TABLE) else {
        return Vec::new();
    };
    let mut rows: Vec<LatencyBucket> = table
        .scan()
        .filter_map(|(_, tuple)| {
            let v = tuple.values();
            if v.len() != 4 {
                return None;
            }
            Some(LatencyBucket {
                tenant: as_str(&v[0]).to_string(),
                outcome: as_str(&v[1]).to_string(),
                bucket: as_u64(&v[2])? as u32,
                count: as_u64(&v[3])?,
            })
        })
        .filter(|b| tenant.is_none_or(|t| b.tenant == t))
        .collect();
    rows.sort_by(|a, b| (&a.tenant, &a.outcome, a.bucket).cmp(&(&b.tenant, &b.outcome, b.bucket)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RegStamp;
    use crate::lifecycle::MockClock;

    fn sink(config: AuditConfig) -> (Database, AuditSink) {
        let db = Database::new();
        let clock = Arc::new(MockClock::new(1_000));
        let sink = AuditSink::new(db.clone(), config, clock);
        (db, sink)
    }

    fn reg(qid: u64, owner: &str, at: u64, shard: u32) -> CoordEvent {
        CoordEvent::QueryRegistered {
            owner: owner.into(),
            sql: format!("q{qid}"),
            qid: QueryId(qid),
            seq: qid,
            deadline: None,
            stamp: Some(RegStamp { at, shard }),
        }
    }

    #[test]
    fn latency_buckets_are_log2() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 1);
        assert_eq!(latency_bucket(2), 2);
        assert_eq!(latency_bucket(3), 2);
        assert_eq!(latency_bucket(4), 3);
        assert_eq!(latency_bucket(1000), 10);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn lifecycle_produces_submit_and_terminal_rows() {
        let (db, sink) = sink(AuditConfig::enabled());
        sink.observe(&reg(1, "acme/alice", 1_000, 2));
        sink.observe(&reg(2, "acme/bob", 1_010, 0));
        sink.observe(&reg(3, "zebra/carol", 1_020, 1));
        sink.observe(&CoordEvent::MatchCommitted {
            qids: vec![QueryId(1)],
            answer_writes: Vec::new(),
            at: Some(1_500),
        });
        sink.observe(&CoordEvent::QueryCancelled {
            qid: QueryId(2),
            at: Some(1_600),
        });
        sink.observe(&CoordEvent::QueryExpired {
            qid: QueryId(3),
            at: Some(1_700),
        });

        let acme = tenant_audit(&db, "acme", 100);
        assert_eq!(acme.len(), 4); // 2 submits + 2 terminals
        let answered: Vec<_> = acme.iter().filter(|r| r.outcome == "answered").collect();
        assert_eq!(answered.len(), 1);
        assert_eq!(answered[0].qid, 1);
        assert_eq!(answered[0].latency_micros, Some(500_000));
        assert_eq!(answered[0].resolved_at, Some(1_500));
        assert_eq!(answered[0].shard, 2);

        let zebra = tenant_audit(&db, "zebra", 100);
        assert_eq!(zebra.len(), 2);
        assert!(zebra.iter().any(|r| r.outcome == "expired"));

        // histogram: one count per terminal, in the right bucket
        let hist = latency_histogram(&db, Some("acme"));
        assert_eq!(hist.len(), 2);
        assert!(hist
            .iter()
            .any(|b| b.outcome == "answered" && b.bucket == latency_bucket(500_000)));
        // tenant isolation of the read helpers
        assert!(latency_histogram(&db, Some("zebra"))
            .iter()
            .all(|b| b.tenant == "zebra"));
    }

    #[test]
    fn unstamped_events_and_unknown_qids_are_ignored() {
        let (db, sink) = sink(AuditConfig::enabled());
        sink.observe(&CoordEvent::QueryRegistered {
            owner: "a/x".into(),
            sql: "q".into(),
            qid: QueryId(1),
            seq: 1,
            deadline: None,
            stamp: None, // logged while auditing was off
        });
        sink.observe(&CoordEvent::QueryCancelled {
            qid: QueryId(99), // never registered
            at: Some(10),
        });
        assert!(tenant_audit(&db, "a", 100).is_empty());
    }

    #[test]
    fn ring_retention_bounds_the_relation() {
        let config = AuditConfig {
            enabled: true,
            max_rows: 10,
            rotate: 4,
        };
        let (db, sink) = sink(config);
        for i in 0..40 {
            sink.observe(&reg(i, "t/u", 1_000 + i, 0));
        }
        let rows = tenant_audit(&db, "t", 1000);
        assert!(
            rows.len() <= 10,
            "retention must bound rows: {}",
            rows.len()
        );
        // the newest rows survive
        assert!(rows.iter().any(|r| r.qid == 39));
        assert!(!rows.iter().any(|r| r.qid == 0));
    }

    #[test]
    fn rebuild_from_frames_reproduces_the_relation() {
        let events = vec![
            reg(1, "acme/a", 1_000, 0),
            reg(2, "acme/b", 1_005, 1),
            CoordEvent::MatchCommitted {
                qids: vec![QueryId(1), QueryId(2)],
                answer_writes: Vec::new(),
                at: Some(1_200),
            },
            reg(3, "acme/c", 1_300, 0),
            CoordEvent::QueryExpired {
                qid: QueryId(3),
                at: Some(1_900),
            },
        ];

        let (db_live, live) = sink(AuditConfig::enabled());
        for e in &events {
            live.observe(e);
        }

        let frames: Vec<Vec<u8>> = events.iter().map(CoordEvent::encode).collect();
        let (db_rebuilt, rebuilt) = sink(AuditConfig::enabled());
        rebuilt.rebuild_from_frames(&frames);

        let mut a = tenant_audit(&db_live, "acme", 1000);
        let mut b = tenant_audit(&db_rebuilt, "acme", 1000);
        a.sort_by_key(|r| (r.qid, r.kind.clone()));
        b.sort_by_key(|r| (r.qid, r.kind.clone()));
        assert_eq!(a, b);
        assert_eq!(
            latency_histogram(&db_live, None),
            latency_histogram(&db_rebuilt, None)
        );
    }

    #[test]
    fn disabled_sink_writes_nothing() {
        let (db, sink) = sink(AuditConfig::default());
        sink.observe(&reg(1, "t/u", 1_000, 0));
        assert!(tenant_audit(&db, "t", 100).is_empty());
    }
}
