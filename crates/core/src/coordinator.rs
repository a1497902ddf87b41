//! The coordinator's public vocabulary: configuration, submission
//! outcomes, tickets, statistics and the admin views. The coordinator
//! itself is [`crate::ShardedCoordinator`]; with one shard
//! ([`crate::ShardedCoordinator::single`]) it is the paper's serial
//! coordination component.

use youtopia_storage::Tuple;

use crate::audit::AuditConfig;
use crate::future::TicketReceiver;
use crate::ir::QueryId;
use crate::matcher::{MatchConfig, MatchStats};
use crate::safety::SafetyMode;

/// Which matching algorithm the coordinator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatcherKind {
    /// The incremental, index-pruned matcher (the system's algorithm).
    #[default]
    Incremental,
    /// The exhaustive subset baseline (for experiments).
    Naive,
}

/// Coordinator construction options.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// Safety condition enforced at submission.
    pub safety: SafetyMode,
    /// Matcher tuning (group-size bound, forward checking, randomize).
    pub match_config: MatchConfig,
    /// Use the registry's constant-position index (E10 ablation).
    pub use_const_index: bool,
    /// Which matcher runs on arrival.
    pub matcher: MatcherKind,
    /// RNG seed for the nondeterministic `CHOOSE`.
    pub seed: u64,
    /// Coordination audit trail (the `sys_audit` / `sys_tenant_latency`
    /// system relations). Disabled by default.
    pub audit: AuditConfig,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            safety: SafetyMode::Relaxed,
            match_config: MatchConfig::default(),
            use_const_index: true,
            matcher: MatcherKind::Incremental,
            seed: 0xD3C0_FFEE,
            audit: AuditConfig::default(),
        }
    }
}

/// Cumulative system counters, exposed to the admin interface and the
/// benchmark harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemStats {
    /// Entangled queries accepted (registered or answered).
    pub submitted: u64,
    /// Queries rejected by the safety analysis.
    pub rejected_unsafe: u64,
    /// Submissions rejected by a tenant quota
    /// ([`crate::TenantRegistry`]) before registration.
    pub rejected_quota: u64,
    /// Queries answered so far.
    pub answered: u64,
    /// Groups matched so far.
    pub groups_matched: u64,
    /// Match attempts (one per arrival, plus retries).
    pub match_attempts: u64,
    /// Total time spent inside the matcher, in nanoseconds.
    pub matching_nanos: u128,
    /// Aggregated matcher work counters.
    pub match_work: MatchStats,
    /// Queries retired by deadline sweeps (`expire_due`), as opposed
    /// to answered or cancelled.
    pub expired: u64,
    /// WAL size in bytes at the time of the stats read (0 without a
    /// WAL). A log-surface gauge set by `stats()` itself — per-shard
    /// counters never carry it and [`SystemStats::merge`] never sums
    /// it.
    pub wal_bytes: u64,
    /// Bytes appended to the WAL since the last coordinator
    /// checkpoint (since construction until one runs). Gauge, like
    /// `wal_bytes`.
    pub wal_bytes_since_checkpoint: u64,
    /// Milliseconds since the last coordinator checkpoint (since
    /// construction when none ran yet), by the coordinator's clock.
    /// Gauge, like `wal_bytes`.
    pub checkpoint_age_millis: u64,
    /// Checkpoints triggered automatically by the WAL size threshold
    /// ([`crate::ShardedConfig::auto_checkpoint_bytes`]).
    pub auto_checkpoints: u64,
}

impl SystemStats {
    /// Accumulates `other`'s counters into `self` (used to merge
    /// per-shard stats). The log-surface gauges (`wal_bytes`,
    /// `wal_bytes_since_checkpoint`, `checkpoint_age_millis`,
    /// `auto_checkpoints`) describe the whole coordinator, not a
    /// shard, and are deliberately not summed — `stats()` sets them
    /// once after merging.
    pub fn merge(&mut self, other: &SystemStats) {
        self.submitted += other.submitted;
        self.rejected_unsafe += other.rejected_unsafe;
        self.rejected_quota += other.rejected_quota;
        self.answered += other.answered;
        self.groups_matched += other.groups_matched;
        self.match_attempts += other.match_attempts;
        self.matching_nanos += other.matching_nanos;
        self.match_work.merge(&other.match_work);
        self.expired += other.expired;
    }
}

/// What a submitter gets back when its group matches: its own answers.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchNotification {
    /// This query's id.
    pub id: QueryId,
    /// Every member of the matched group.
    pub group: Vec<QueryId>,
    /// This query's answers: one `(relation, tuple)` per head.
    pub answers: Vec<(String, Tuple)>,
}

/// Outcome of a submission.
#[derive(Debug)]
pub enum Submission {
    /// The query was answered immediately (its arrival completed a
    /// group).
    Answered(MatchNotification),
    /// The query is pending; the ticket delivers the notification when
    /// a later arrival completes a group.
    Pending(Ticket),
}

impl Submission {
    /// The query id in either case.
    pub fn id(&self) -> QueryId {
        match self {
            Submission::Answered(n) => n.id,
            Submission::Pending(t) => t.id,
        }
    }

    /// The notification if already answered.
    pub fn answered(self) -> Option<MatchNotification> {
        match self {
            Submission::Answered(n) => Some(n),
            Submission::Pending(_) => None,
        }
    }
}

/// Handle to a pending query: the sync view of its
/// [`crate::CoordinationFuture`].
#[derive(Debug)]
pub struct Ticket {
    /// The pending query's id (usable with
    /// [`crate::ShardedCoordinator::cancel`]).
    pub id: QueryId,
    /// Receives the notification when the query is answered; reports a
    /// disconnect when it terminates any other way.
    pub receiver: TicketReceiver,
}

/// One potential-satisfaction edge of the match graph: `from`'s
/// constraint could be satisfied by `to`'s head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchEdge {
    /// The constrained (waiting) query.
    pub from: QueryId,
    /// Rendering of the constraint atom.
    pub constraint: String,
    /// The query whose head could satisfy it.
    pub to: QueryId,
    /// Rendering of that head atom.
    pub head: String,
}

/// The admin interface's view of matcher state (§3.2): which pending
/// queries could entangle with which.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MatchGraph {
    /// Potential-satisfaction edges.
    pub edges: Vec<MatchEdge>,
    /// Constraints with no possible provider right now:
    /// `(query, constraint index, rendered atom)` — the reason those
    /// queries wait.
    pub dangling: Vec<(QueryId, usize, String)>,
}

/// A row of the admin interface's pending-query view.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingInfo {
    /// Query id.
    pub id: QueryId,
    /// Submitting user.
    pub owner: String,
    /// Original SQL text.
    pub sql: String,
    /// Rendered IR (heads / predicates / constraints).
    pub ir: String,
    /// Submission sequence number.
    pub seq: u64,
    /// Absolute deadline in clock milliseconds, when the submission
    /// carried one.
    pub deadline: Option<u64>,
}

/// What a coordinator recovery replayed and rebuilt (diagnostics; also
/// the measured quantity of the `recovery_replay` bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Coordination events decoded from the log.
    pub events_replayed: usize,
    /// Registrations that survived (pending at the crash) and were
    /// restored into the registry.
    pub restored_pending: usize,
    /// Groups matched by the post-restore matching sweep (arrivals that
    /// were logged but whose match had not committed before the crash).
    pub rematched_groups: u64,
    /// Restored queries whose logged deadline was already past due at
    /// recovery time and were expired immediately (their expiry is
    /// logged like any sweep's).
    pub expired_at_recovery: usize,
    /// Candidate triggers discarded by the post-restore matching
    /// sweep's index pruning (from the matcher's work counters).
    pub triggers_pruned: u64,
    /// Wall-clock duration of the post-restore matching sweep, in
    /// microseconds.
    pub sweep_micros: u64,
}
