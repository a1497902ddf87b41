//! The coordinator: Youtopia's coordination component (paper,
//! Figure 2), partitioned into shards and draining submissions in
//! batches.
//!
//! It owns the pending-query registry, runs the matcher on every
//! arrival, applies matched groups atomically to the database (answer
//! tuples are inserted into real answer-relation tables inside one
//! storage transaction, alongside any application side effects
//! registered through the apply hook), and notifies waiting submitters
//! through their futures or tickets — the "Facebook message" of the
//! demo. **Do not submit while holding a
//! [`youtopia_storage::ReadTransaction`] on the same database** — the
//! apply phase needs the write lock and would deadlock with your read
//! guard.
//!
//! With one shard ([`ShardedCoordinator::single`]) this is the paper's
//! serial algorithm: one matching domain, every arrival matched against
//! the whole pending registry in submission order.
//!
//! # Why sharding is sound
//!
//! Entangled queries interact **only** through answer relations: a
//! member of a coordination group satisfies another member's
//! postcondition with one of its heads, so every edge of every possible
//! coordination group connects two queries whose answer-relation
//! signatures ([`EntangledQuery::answer_relations`]) overlap. Queries
//! whose signatures are *not* connected (directly or transitively) can
//! never appear in one group, never provide each other's committed
//! answers, and never trigger each other's cascades — the same
//! independence between non-overlapping components that makes
//! decomposition tractable in probabilistic-database conditioning. The
//! pending registry can therefore be partitioned by connected component
//! of the relation-overlap graph and matched concurrently, with no
//! cross-shard matching pass at all.
//!
//! # Routing rule
//!
//! A union-find over answer-relation names maintains those connected
//! components incrementally. Each arriving query unions all relations
//! in its signature; the resulting root carries a shard assignment
//! (round-robin at component birth). When a query's signature spans
//! components previously assigned *different* shards, the components
//! merge and the smaller side's pending queries are **rebalanced**
//! (migrated) into the surviving shard, then re-matched there — an
//! overlap means those queries can now coordinate, so they must be
//! co-sharded from that point on. Many components can share one shard
//! (assignment is surjective, not bijective); correctness only requires
//! that one component never spans two shards.
//!
//! # Locking protocol
//!
//! Lock order is strictly `router → shard(i) → shard(j>i) → database`:
//!
//! * the **router lock** serializes routing decisions and migrations;
//!   migrations take the two affected shard locks in ascending index
//!   order while the router lock is held, so a migration's view of
//!   "who lives where" is never stale;
//! * each **shard lock** guards that shard's state (registry, RNG,
//!   waiters, counters) while its bucket drains; a thread holding a
//!   shard lock never takes the router lock — answered queries are
//!   logged under the shard lock and retired from the router *after*
//!   it is released;
//! * the **database lock** (inside [`Database`]) is the leaf: matching
//!   takes the shared read lock, applies take the exclusive write
//!   lock, and no coordinator lock is ever requested while holding it.
//!   Coordination logging no longer takes this lock at all — events
//!   enqueue to the WAL's pipelined group-commit writer and block on
//!   their completion slot, so shards draining concurrently share one
//!   fsync per writer quantum instead of serializing on the database.
//!
//! A query routed by one thread is not yet visible in its shard's
//! registry until that thread drains it; a concurrent migration can
//! therefore decide placement without seeing it. Drains heal this
//! *stale placement* after releasing the shard lock: still-pending
//! queries are re-checked against the router and moved (and
//! re-matched) if a merge re-routed their component mid-flight.
//!
//! # Batch draining
//!
//! [`ShardedCoordinator::submit_batch_sql`] compiles and safety-checks
//! the whole batch outside any lock, routes it in one router pass
//! (bucketing after all unions, so intra-batch merges cannot strand an
//! earlier entry), then drains each shard's bucket on a small worker
//! pool — one scoped thread per busy shard, capped by
//! [`ShardedConfig::workers`]. Within one shard the bucket is processed
//! arrival-by-arrival — insert, match, cascade — which keeps per-shard
//! semantics *identical* to one-at-a-time submission on a single shard
//! under a fixed seed with randomization disabled (property-tested in
//! `tests/prop_shard_equivalence.rs`). Each shard's RNG is seeded with
//! `seed ^ shard_id` so `CHOOSE` stays reproducible independent of
//! drain interleaving, and each matched group still commits through one
//! atomic storage transaction.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use youtopia_storage::{Database, StorageResult, Transaction, Tuple, Wal};

use crate::audit::AuditSink;
use crate::compile::compile_sql;
use crate::coordinator::{
    CoordinatorConfig, MatchGraph, MatchNotification, PendingInfo, RecoveryReport, Submission,
    SystemStats, Ticket,
};
use crate::engine::{
    match_graph_of, replay_coordination_frames, CoordEvent, CoordinationLog, Engine, RegStamp,
    ShardState,
};
use crate::error::{CoreError, CoreResult};
use crate::future::{CoordinationFuture, CoordinationOutcome, TicketShared};
use crate::ir::{EntangledQuery, QueryId};
use crate::lifecycle::{Clock, DeadlineHost, SubmitOptions, SweepSignal, SystemClock};
use crate::matcher::{GroupMatch, MatchStats};
use crate::registry::Pending;
use crate::safety::check_safety;
use crate::tenant::{tenant_of, Admission, TenantOutcome, TenantRegistry};

/// Application side effects applied atomically with a match (e.g. the
/// travel site decrements seat counts and inserts reservation rows),
/// shared by every shard — applies can run concurrently on different
/// shards, hence `Send + Sync`.
pub type SharedApplyHook =
    Arc<dyn Fn(&mut Transaction, &GroupMatch) -> StorageResult<()> + Send + Sync + 'static>;

/// When the background sweeper should trigger a coordinator
/// checkpoint, evaluated on every sweep tick (so a quiet system still
/// checkpoints on schedule — the in-line
/// [`ShardedConfig::auto_checkpoint_bytes`] trigger only fires on
/// write traffic). A field set to `0` disables that criterion; the
/// default policy is fully disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint when at least this many bytes were appended to the
    /// WAL since the last checkpoint (`0` = never by size).
    pub max_wal_bytes: u64,
    /// Checkpoint when the last one is at least this many clock
    /// milliseconds old (`0` = never by age).
    pub max_age_millis: u64,
}

impl CheckpointPolicy {
    /// Whether the gauges warrant a checkpoint under this policy.
    pub fn due(&self, wal_bytes_since_checkpoint: u64, checkpoint_age_millis: u64) -> bool {
        (self.max_wal_bytes > 0 && wal_bytes_since_checkpoint >= self.max_wal_bytes)
            || (self.max_age_millis > 0 && checkpoint_age_millis >= self.max_age_millis)
    }
}

/// Construction options for [`ShardedCoordinator`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of shards (independent matching domains). More shards
    /// shrink each cascade/sweep scan and raise drain parallelism.
    pub shards: usize,
    /// Worker threads used to drain a batch (`0` = one per available
    /// CPU). Capped by the number of busy shards per batch.
    pub workers: usize,
    /// Auto-checkpoint threshold: when more than this many bytes have
    /// been appended to the WAL since the last checkpoint, the
    /// coordinator triggers [`ShardedCoordinator::checkpoint`] after
    /// the group commit that crossed the line. `0` (the default)
    /// disables auto-checkpointing; non-durable databases ignore it.
    pub auto_checkpoint_bytes: u64,
    /// Fair tenant interleaving: when set, each batch drain reorders
    /// its bucket round-robin across tenants ([`tenant_of`] on the
    /// owner) in first-appearance order, so one tenant's storm cannot
    /// monopolize a drain quantum. Off by default — with it off the
    /// drain order (and thus the match outcome under a fixed seed) is
    /// exactly the submission order, which the serial-equivalence
    /// properties pin. Workloads where every owner is its own tenant
    /// are order-identical either way.
    pub fair_drain: bool,
    /// Sweeper-tick checkpoint policy (size and/or age), evaluated by
    /// the [`crate::DeadlineSweeper`]'s periodic tick. Disabled by
    /// default.
    pub checkpoint: CheckpointPolicy,
    /// Per-shard coordinator behavior; `base.seed` is xored with the
    /// shard id to seed each shard's RNG.
    pub base: CoordinatorConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            workers: 0,
            auto_checkpoint_bytes: 0,
            fair_drain: false,
            checkpoint: CheckpointPolicy::default(),
            base: CoordinatorConfig::default(),
        }
    }
}

/// Per-request outcome of a batch submission.
pub type BatchOutcome = CoreResult<Submission>;

/// One shard's drain bucket: `(input index, prepared pending query,
/// tenant admission to bind once the registration is durable)`.
type Bucket = Vec<(usize, Pending, Option<Admission>)>;

/// What a drain hands back: per-slot outcomes, the answered log, and
/// the ids that may still be pending (for placement healing).
type DrainResult = (
    Vec<(usize, CoreResult<CoordinationFuture>)>,
    Vec<QueryId>,
    Vec<QueryId>,
);

/// Reorders a drain bucket round-robin across tenants, tenants ordered
/// by first appearance and each tenant's own entries kept in
/// submission order ([`ShardedConfig::fair_drain`]). A bucket whose
/// owners are all distinct tenants comes back unchanged.
fn fair_interleave(bucket: Bucket) -> Bucket {
    let mut queues: Vec<std::collections::VecDeque<(usize, Pending, Option<Admission>)>> =
        Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let total = bucket.len();
    for entry in bucket {
        let tenant = tenant_of(&entry.1.owner).to_string();
        let qi = *index.entry(tenant).or_insert_with(|| {
            queues.push(std::collections::VecDeque::new());
            queues.len() - 1
        });
        queues[qi].push_back(entry);
    }
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        for queue in &mut queues {
            if let Some(entry) = queue.pop_front() {
                out.push(entry);
            }
        }
    }
    out
}

// ------------------------------------------------------------------ //
// Router: union-find over answer-relation signatures
// ------------------------------------------------------------------ //

/// A pending-query migration decided while merging two relation
/// components.
#[derive(Debug)]
struct Migration {
    from: usize,
    to: usize,
    qids: Vec<QueryId>,
}

/// Union-find over relation names with per-component shard assignment
/// and live-membership tracking (the membership sets are what a merge
/// migrates).
struct Router {
    /// Union-find parent per node (a node is one relation name).
    parent: Vec<usize>,
    rank: Vec<u8>,
    /// Shard assignment; meaningful at root nodes.
    shard: Vec<usize>,
    /// Live queries of the component (pending *or* routed-but-not-yet-
    /// drained); meaningful at roots.
    members: Vec<HashSet<QueryId>>,
    /// Lowercased relation name → node.
    rel_node: HashMap<String, usize>,
    /// Routed query → any node of its signature.
    qid_node: HashMap<QueryId, usize>,
    /// Round-robin cursor for newborn components.
    next_rr: usize,
    num_shards: usize,
}

impl Router {
    fn new(num_shards: usize) -> Router {
        Router {
            parent: Vec::new(),
            rank: Vec::new(),
            shard: Vec::new(),
            members: Vec::new(),
            rel_node: HashMap::new(),
            qid_node: HashMap::new(),
            next_rr: 0,
            num_shards,
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    /// The node of `relation`, created (with a fresh round-robin shard)
    /// on first sight.
    fn node_for(&mut self, relation: &str) -> usize {
        if let Some(&n) = self.rel_node.get(relation) {
            return n;
        }
        let n = self.parent.len();
        self.parent.push(n);
        self.rank.push(0);
        self.shard.push(self.next_rr);
        self.next_rr = (self.next_rr + 1) % self.num_shards;
        self.members.push(HashSet::new());
        self.rel_node.insert(relation.to_string(), n);
        n
    }

    /// Routes a query over its (lowercased) answer-relation signature:
    /// unions the signature into one component, decides the surviving
    /// shard, and reports which already-routed queries must migrate
    /// because their component just changed shards.
    fn route(&mut self, qid: QueryId, relations: &BTreeSet<String>) -> (usize, Vec<Migration>) {
        let Some(first) = relations.iter().next() else {
            // no answer relations at all: the query coordinates with
            // nobody; spread it round-robin
            let s = self.next_rr;
            self.next_rr = (self.next_rr + 1) % self.num_shards;
            return (s, Vec::new());
        };
        let nodes: Vec<usize> = relations.iter().map(|r| self.node_for(r)).collect();
        let mut roots: Vec<usize> = nodes.iter().map(|&n| self.find(n)).collect();
        roots.sort_unstable();
        roots.dedup();

        // the surviving root: the component with the most live queries
        // keeps its shard (cheapest migration); ties break toward the
        // lowest shard index for determinism
        let winner = roots
            .iter()
            .copied()
            .min_by_key(|&r| (std::cmp::Reverse(self.members[r].len()), self.shard[r]))
            .expect("at least one root");
        let winner_shard = self.shard[winner];

        // the losers' migrations are decided before their members fold
        // into the winner's set, which grows in place: a route costs
        // O(signature + migrated), never O(component)
        let mut migrations = Vec::new();
        for &r in &roots {
            if r == winner {
                continue;
            }
            let members = std::mem::take(&mut self.members[r]);
            if self.shard[r] != winner_shard && !members.is_empty() {
                migrations.push(Migration {
                    from: self.shard[r],
                    to: winner_shard,
                    qids: members.iter().copied().collect(),
                });
            }
            self.members[winner].extend(members);
        }

        // union all roots; the merged membership and the surviving
        // shard move to the final root
        let mut root = roots[0];
        for &r in &roots[1..] {
            root = self.union(root, r);
        }
        self.shard[root] = winner_shard;
        if root != winner {
            self.members.swap(root, winner);
        }
        self.members[root].insert(qid);
        self.qid_node.insert(qid, self.rel_node[first]);

        (winner_shard, migrations)
    }

    /// Union by rank; returns the surviving root.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (winner, loser) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[loser] = winner;
        if self.rank[ra] == self.rank[rb] {
            self.rank[winner] += 1;
        }
        winner
    }

    /// Retires an answered/cancelled query from its component.
    fn purge(&mut self, qid: QueryId) {
        if let Some(node) = self.qid_node.remove(&qid) {
            let root = self.find(node);
            self.members[root].remove(&qid);
        }
    }

    /// The shard a known relation currently routes to.
    fn shard_of_relation(&mut self, relation: &str) -> Option<usize> {
        let &node = self.rel_node.get(&relation.to_ascii_lowercase())?;
        let root = self.find(node);
        Some(self.shard[root])
    }

    /// The shard a routed query's component currently maps to.
    fn shard_of_query(&mut self, qid: QueryId) -> Option<usize> {
        let &node = self.qid_node.get(&qid)?;
        let root = self.find(node);
        Some(self.shard[root])
    }
}

// ------------------------------------------------------------------ //
// Per-shard monitoring counters (lock-free read paths)
// ------------------------------------------------------------------ //

/// A lock-free mirror of one shard's monitoring counters, refreshed
/// with relaxed stores every time the shard lock is released (see
/// [`ShardGuard`]). Monitoring reads ([`ShardedCoordinator::stats`],
/// [`ShardedCoordinator::pending_count`],
/// [`ShardedCoordinator::pending_per_shard`]) load these atomics and
/// never contend with draining; [`ShardedCoordinator::pending_snapshot`]
/// remains the consistent (locking) slow path.
struct ShardMonitor {
    pending: AtomicUsize,
    /// Earliest deadline of this shard's pending queries, in clock
    /// millis; `u64::MAX` when none carries one. The deadline
    /// sweeper's lock-free wakeup hint: `expire_due` skips a shard
    /// whose hint lies in the future without touching its lock.
    min_deadline: AtomicU64,
    submitted: AtomicU64,
    answered: AtomicU64,
    expired: AtomicU64,
    groups_matched: AtomicU64,
    match_attempts: AtomicU64,
    matching_nanos: AtomicU64,
    candidates_considered: AtomicU64,
    committed_considered: AtomicU64,
    unify_attempts: AtomicU64,
    unify_successes: AtomicU64,
    groundings_attempted: AtomicU64,
    rows_scanned: AtomicU64,
    nodes_expanded: AtomicU64,
    subsets_tested: AtomicU64,
    candidates_scanned: AtomicU64,
    index_pruned: AtomicU64,
    triggers_pruned: AtomicU64,
    cascade_checked: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
}

impl Default for ShardMonitor {
    fn default() -> Self {
        ShardMonitor {
            pending: AtomicUsize::new(0),
            min_deadline: AtomicU64::new(u64::MAX),
            submitted: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            groups_matched: AtomicU64::new(0),
            match_attempts: AtomicU64::new(0),
            matching_nanos: AtomicU64::new(0),
            candidates_considered: AtomicU64::new(0),
            committed_considered: AtomicU64::new(0),
            unify_attempts: AtomicU64::new(0),
            unify_successes: AtomicU64::new(0),
            groundings_attempted: AtomicU64::new(0),
            rows_scanned: AtomicU64::new(0),
            nodes_expanded: AtomicU64::new(0),
            subsets_tested: AtomicU64::new(0),
            candidates_scanned: AtomicU64::new(0),
            index_pruned: AtomicU64::new(0),
            triggers_pruned: AtomicU64::new(0),
            cascade_checked: AtomicU64::new(0),
            pool_hits: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
        }
    }
}

impl ShardMonitor {
    fn publish(&self, state: &ShardState) {
        self.pending.store(state.registry.len(), Ordering::Relaxed);
        self.min_deadline.store(
            state.registry.min_deadline().unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        let s = &state.stats;
        self.submitted.store(s.submitted, Ordering::Relaxed);
        self.answered.store(s.answered, Ordering::Relaxed);
        self.expired.store(s.expired, Ordering::Relaxed);
        self.groups_matched
            .store(s.groups_matched, Ordering::Relaxed);
        self.match_attempts
            .store(s.match_attempts, Ordering::Relaxed);
        self.matching_nanos
            .store(s.matching_nanos as u64, Ordering::Relaxed);
        let w = &s.match_work;
        self.candidates_considered
            .store(w.candidates_considered, Ordering::Relaxed);
        self.committed_considered
            .store(w.committed_considered, Ordering::Relaxed);
        self.unify_attempts
            .store(w.unify_attempts, Ordering::Relaxed);
        self.unify_successes
            .store(w.unify_successes, Ordering::Relaxed);
        self.groundings_attempted
            .store(w.groundings_attempted, Ordering::Relaxed);
        self.rows_scanned.store(w.rows_scanned, Ordering::Relaxed);
        self.nodes_expanded
            .store(w.nodes_expanded, Ordering::Relaxed);
        self.subsets_tested
            .store(w.subsets_tested, Ordering::Relaxed);
        self.candidates_scanned
            .store(w.candidates_scanned, Ordering::Relaxed);
        self.index_pruned.store(w.index_pruned, Ordering::Relaxed);
        self.triggers_pruned
            .store(w.triggers_pruned, Ordering::Relaxed);
        self.cascade_checked
            .store(w.cascade_checked, Ordering::Relaxed);
        self.pool_hits.store(w.pool_hits, Ordering::Relaxed);
        self.pool_misses.store(w.pool_misses, Ordering::Relaxed);
    }

    fn stats(&self) -> SystemStats {
        SystemStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected_unsafe: 0, // tracked globally, not per shard
            rejected_quota: 0,  // tracked globally, not per shard
            answered: self.answered.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            groups_matched: self.groups_matched.load(Ordering::Relaxed),
            match_attempts: self.match_attempts.load(Ordering::Relaxed),
            matching_nanos: self.matching_nanos.load(Ordering::Relaxed) as u128,
            match_work: MatchStats {
                candidates_considered: self.candidates_considered.load(Ordering::Relaxed),
                committed_considered: self.committed_considered.load(Ordering::Relaxed),
                unify_attempts: self.unify_attempts.load(Ordering::Relaxed),
                unify_successes: self.unify_successes.load(Ordering::Relaxed),
                groundings_attempted: self.groundings_attempted.load(Ordering::Relaxed),
                rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
                nodes_expanded: self.nodes_expanded.load(Ordering::Relaxed),
                subsets_tested: self.subsets_tested.load(Ordering::Relaxed),
                candidates_scanned: self.candidates_scanned.load(Ordering::Relaxed),
                index_pruned: self.index_pruned.load(Ordering::Relaxed),
                triggers_pruned: self.triggers_pruned.load(Ordering::Relaxed),
                cascade_checked: self.cascade_checked.load(Ordering::Relaxed),
                pool_hits: self.pool_hits.load(Ordering::Relaxed),
                pool_misses: self.pool_misses.load(Ordering::Relaxed),
            },
            // log-surface gauges are coordinator-wide, not per shard;
            // ShardedCoordinator::stats sets them after merging
            wal_bytes: 0,
            wal_bytes_since_checkpoint: 0,
            checkpoint_age_millis: 0,
            auto_checkpoints: 0,
        }
    }
}

/// One shard: its mutable state behind the shard lock, plus the
/// lock-free monitor mirror.
struct ShardSlot {
    state: Mutex<ShardState>,
    monitor: ShardMonitor,
}

/// A shard-lock guard that republishes the shard's monitor counters
/// when dropped, so the lock-free read paths stay fresh no matter
/// which code path mutated the shard — and only then, still under the
/// lock, delivers the terminal outcomes the holder decided.
struct ShardGuard<'a> {
    state: MutexGuard<'a, ShardState>,
    monitor: &'a ShardMonitor,
}

impl Deref for ShardGuard<'_> {
    type Target = ShardState;
    fn deref(&self) -> &ShardState {
        &self.state
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut ShardState {
        &mut self.state
    }
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        self.monitor.publish(&self.state);
        self.state.deliver_resolved();
    }
}

// ------------------------------------------------------------------ //
// The sharded coordinator
// ------------------------------------------------------------------ //

/// The coordination component: partitions the pending registry into
/// shards keyed by answer-relation signature and drains submissions per
/// shard — see the module docs for the routing rule and locking
/// protocol. Besides single and batch submission it offers durable
/// recovery ([`ShardedCoordinator::recover`]), WAL compaction
/// ([`ShardedCoordinator::checkpoint`]) and waiter reattachment
/// ([`ShardedCoordinator::reattach`]). Build it with one shard
/// ([`ShardedCoordinator::single`]) for the serial algorithm.
pub struct ShardedCoordinator {
    engine: Engine,
    shards: Vec<ShardSlot>,
    router: Mutex<Router>,
    next_id: AtomicU64,
    seq: AtomicU64,
    rejected_unsafe: AtomicU64,
    rejected_quota: AtomicU64,
    apply_hook: Mutex<Option<SharedApplyHook>>,
    /// Optional per-tenant admission control, consulted on every
    /// submission path before a query id is allocated.
    tenants: Mutex<Option<Arc<TenantRegistry>>>,
    /// Serializes whole-owner reattaches. Each shard's swap is atomic
    /// under its own lock, but a reattach spans every shard; without
    /// the gate two concurrent reattaches for one owner interleave
    /// across shards and both come back holding live waiters for
    /// disjoint subsets. Held before any shard lock (lock order:
    /// gate → shard(i)).
    reattach_gate: Mutex<()>,
    /// Round-robin tenant interleaving in batch drains
    /// ([`ShardedConfig::fair_drain`]).
    fair_drain: bool,
    workers: usize,
    /// The coordinator clock (checkpoint age, recovery expiry); tests
    /// inject a [`crate::MockClock`] via
    /// [`ShardedCoordinator::with_clock`].
    clock: Arc<dyn Clock>,
    /// Notified (outside any shard lock) whenever a deadline-carrying
    /// query registers; the [`crate::DeadlineSweeper`] waits on it.
    sweep_signal: Arc<SweepSignal>,
    /// Auto-checkpoint threshold in bytes (0 = disabled).
    auto_checkpoint_bytes: u64,
    /// WAL length right after the last checkpoint (or at
    /// construction), for the bytes-since-checkpoint gauge.
    wal_len_at_checkpoint: AtomicU64,
    /// Clock millis of the last checkpoint (or construction).
    last_checkpoint_at: AtomicU64,
    /// Checkpoints triggered by the size threshold.
    auto_checkpoints: AtomicU64,
    /// Collapses concurrent auto-checkpoint triggers into one run.
    checkpointing: std::sync::atomic::AtomicBool,
    /// Sweeper-tick checkpoint policy ([`ShardedConfig::checkpoint`]).
    checkpoint_policy: CheckpointPolicy,
}

impl ShardedCoordinator {
    /// Creates a sharded coordinator over `db` (timed by the system
    /// clock).
    pub fn with_config(db: Database, config: ShardedConfig) -> ShardedCoordinator {
        Self::with_clock(db, config, Arc::new(SystemClock))
    }

    /// [`ShardedCoordinator::with_config`] with an injected clock —
    /// checkpoint-age accounting and recovery expiry read this clock,
    /// so deadline tests run on a [`crate::MockClock`] with no
    /// wall-clock sleeps.
    pub fn with_clock(
        db: Database,
        config: ShardedConfig,
        clock: Arc<dyn Clock>,
    ) -> ShardedCoordinator {
        let shards = config.shards.max(1);
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let wal_len = db.wal_len().unwrap_or(0);
        let now = clock.now_millis();
        let audit = config
            .base
            .audit
            .enabled
            .then(|| Arc::new(AuditSink::new(db.clone(), config.base.audit, clock.clone())));
        ShardedCoordinator {
            shards: (0..shards)
                .map(|i| ShardSlot {
                    state: Mutex::new(ShardState::new(
                        config.base.use_const_index,
                        config.base.seed ^ i as u64,
                    )),
                    monitor: ShardMonitor::default(),
                })
                .collect(),
            router: Mutex::new(Router::new(shards)),
            next_id: AtomicU64::new(1),
            seq: AtomicU64::new(0),
            rejected_unsafe: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            apply_hook: Mutex::new(None),
            tenants: Mutex::new(None),
            reattach_gate: Mutex::new(()),
            fair_drain: config.fair_drain,
            workers,
            clock,
            sweep_signal: Arc::new(SweepSignal::new()),
            auto_checkpoint_bytes: config.auto_checkpoint_bytes,
            wal_len_at_checkpoint: AtomicU64::new(wal_len),
            last_checkpoint_at: AtomicU64::new(now),
            auto_checkpoints: AtomicU64::new(0),
            checkpointing: std::sync::atomic::AtomicBool::new(false),
            checkpoint_policy: config.checkpoint,
            engine: Engine {
                db,
                config: config.base,
                audit,
            },
        }
    }

    /// A sharded coordinator with the default four shards.
    pub fn new(db: Database) -> ShardedCoordinator {
        ShardedCoordinator::with_config(db, ShardedConfig::default())
    }

    /// A one-shard coordinator: a single matching domain over the whole
    /// pending registry, i.e. the paper's serial algorithm. Shard 0's
    /// RNG is seeded with `base.seed ^ 0 = base.seed`.
    pub fn single(db: Database, base: CoordinatorConfig) -> ShardedCoordinator {
        ShardedCoordinator::with_config(
            db,
            ShardedConfig {
                shards: 1,
                base,
                ..Default::default()
            },
        )
    }

    /// The underlying database handle.
    pub fn db(&self) -> &Database {
        &self.engine.db
    }

    /// The per-shard coordinator configuration.
    pub fn config(&self) -> &CoordinatorConfig {
        &self.engine.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Locks one shard; the returned guard republishes the shard's
    /// monitor counters on drop.
    fn shard_lock(&self, shard: usize) -> ShardGuard<'_> {
        let slot = &self.shards[shard];
        ShardGuard {
            state: slot.state.lock(),
            monitor: &slot.monitor,
        }
    }

    /// Registers the application side-effect hook, shared by all
    /// shards and run inside each match's storage transaction.
    pub fn set_apply_hook(&self, hook: SharedApplyHook) {
        *self.apply_hook.lock() = Some(hook);
    }

    /// Installs per-tenant admission control: every later submission is
    /// checked against its tenant's quotas before a query id is
    /// allocated, and every termination updates the tenant's ledger.
    /// Queries already pending (e.g. after
    /// [`ShardedCoordinator::recover`]) are adopted into their tenants'
    /// in-flight counts without quota checks.
    pub fn set_tenant_registry(&self, registry: Arc<TenantRegistry>) {
        for shard in 0..self.shards.len() {
            let state = self.shard_lock(shard);
            for p in state.registry.iter() {
                registry.adopt(&p.owner, p.id, p.deadline);
            }
        }
        *self.tenants.lock() = Some(registry);
    }

    /// The installed tenant registry, if any.
    pub fn tenant_registry(&self) -> Option<Arc<TenantRegistry>> {
        self.tenants.lock().clone()
    }

    /// Submits one entangled query given as SQL text.
    pub fn submit_sql(&self, owner: &str, sql: &str) -> CoreResult<Submission> {
        self.submit_sql_with(owner, sql, SubmitOptions::default())
    }

    /// [`ShardedCoordinator::submit_sql`] with per-submission options
    /// (e.g. a deadline).
    pub fn submit_sql_with(
        &self,
        owner: &str,
        sql: &str,
        opts: SubmitOptions,
    ) -> CoreResult<Submission> {
        let compiled = compile_sql(sql)?;
        self.submit_with(owner, compiled, opts)
    }

    /// Submits one compiled entangled query: routes it to its shard and
    /// runs arrival-driven matching there. Submissions routed to
    /// different shards proceed concurrently.
    ///
    /// Log-before-ack: on a durable (WAL-backed) database the
    /// registration is committed to the coordination log — under the
    /// shard lock, so a concurrent checkpoint cannot lose it — before
    /// the arrival is processed or acknowledged.
    pub fn submit(&self, owner: &str, query: EntangledQuery) -> CoreResult<Submission> {
        self.submit_with(owner, query, SubmitOptions::default())
    }

    /// [`ShardedCoordinator::submit`] with per-submission options: a
    /// deadline rides the registration's log frame and is enforced by
    /// `expire_due` sweeps.
    pub fn submit_with(
        &self,
        owner: &str,
        query: EntangledQuery,
        opts: SubmitOptions,
    ) -> CoreResult<Submission> {
        self.submit_async_with(owner, query, opts)
            .map(CoordinationFuture::into_submission)
    }

    /// Submits one entangled query given as SQL text, returning a
    /// [`CoordinationFuture`] instead of a blocking ticket.
    pub fn submit_sql_async(&self, owner: &str, sql: &str) -> CoreResult<CoordinationFuture> {
        self.submit_sql_async_with(owner, sql, SubmitOptions::default())
    }

    /// [`ShardedCoordinator::submit_sql_async`] with per-submission
    /// options.
    pub fn submit_sql_async_with(
        &self,
        owner: &str,
        sql: &str,
        opts: SubmitOptions,
    ) -> CoreResult<CoordinationFuture> {
        let compiled = compile_sql(sql)?;
        self.submit_async_with(owner, compiled, opts)
    }

    /// Submits one compiled entangled query asynchronously: identical
    /// routing, logging and matching as [`ShardedCoordinator::submit`],
    /// but the returned handle is a poll-based future whose waker is
    /// fired — under the owning shard's lock — by whichever path
    /// terminates the query: a match commit, a cancellation, an expiry
    /// sweep, or a reattach. Thousands of these can be held in flight
    /// by one [`crate::WaiterSet`] thread.
    pub fn submit_async(
        &self,
        owner: &str,
        query: EntangledQuery,
    ) -> CoreResult<CoordinationFuture> {
        self.submit_async_with(owner, query, SubmitOptions::default())
    }

    /// [`ShardedCoordinator::submit_async`] with per-submission
    /// options. Every single submission runs through here; the sync
    /// entry points convert the returned future.
    pub fn submit_async_with(
        &self,
        owner: &str,
        query: EntangledQuery,
        opts: SubmitOptions,
    ) -> CoreResult<CoordinationFuture> {
        if let Err(e) = check_safety(&query, self.engine.config.safety) {
            self.rejected_unsafe.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        // admission control runs before the query id is allocated so a
        // quota rejection leaves no trace in the id space, the router
        // or the log; the reservation is released (as `aborted`) if the
        // registration never becomes durable
        let tenants = self.tenants.lock().clone();
        let admission = match &tenants {
            Some(reg) => match reg.admit(owner, opts.deadline) {
                Ok(admission) => Some(admission),
                Err(e) => {
                    self.rejected_quota.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
            },
            None => None,
        };
        let relations = query.answer_relations();
        let qid = QueryId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let pending = Pending {
            id: qid,
            owner: owner.to_string(),
            query: query.namespaced(qid),
            seq,
            deadline: opts.deadline,
        };
        let hook = self.apply_hook.lock().clone();

        let (shard, moves) = {
            let mut router = self.router.lock();
            let (shard, migrations) = router.route(qid, &relations);
            let moves = self.apply_migrations(&mut router, &migrations);
            (shard, moves)
        };
        self.rematch_moved(moves, &hook);

        let (result, answered) = {
            let mut state = self.shard_lock(shard);
            let event = CoordEvent::QueryRegistered {
                owner: owner.to_string(),
                sql: query.sql.clone(),
                qid,
                seq,
                deadline: opts.deadline,
                stamp: self.engine.audit_now().map(|at| RegStamp {
                    at,
                    shard: shard as u32,
                }),
            };
            match self.engine.db.log_event(&event) {
                Ok(()) => {
                    // the registration is durable: bind the tenant
                    // reservation to its id
                    if let (Some(reg), Some(admission)) = (&tenants, admission) {
                        reg.track(admission, qid);
                    }
                    // audit submit row before any terminal row this
                    // arrival could produce
                    self.engine.observe(&event);
                    let result = self
                        .engine
                        .process_arrival(&mut state, pending, hook_ref(&hook));
                    self.engine.flush_audit(&mut state);
                    (result, std::mem::take(&mut state.answered_log))
                }
                Err(e) => {
                    // never registered: retire the routed-but-unlogged id
                    // so the router does not leak its membership (the
                    // still-held admission rolls back on drop below)
                    (Err(CoreError::Storage(e)), vec![qid])
                }
            }
        };
        if let Some(reg) = &tenants {
            // the answered log carries every member of any group this
            // arrival completed; a qid that was never tracked (the log
            // failure above) is ignored by the ledger
            reg.finish_all(&answered, TenantOutcome::Answered);
        }
        self.retire(answered);
        // heal on Err as well: an apply failure reinstates the query as
        // pending, and a concurrent merge may have re-routed it
        if !matches!(&result, Ok(f) if f.answered_on_arrival()) {
            self.heal_placement(shard, &[qid], &hook);
        }
        if opts.deadline.is_some() {
            // after every shard lock is released: the sweeper's next
            // hint read sees the published per-shard minimum
            self.sweep_signal.notify();
        }
        self.maybe_auto_checkpoint();
        result
    }

    /// Submits a batch of `(owner, sql)` requests: compiles and
    /// safety-checks outside any lock, routes the whole batch in one
    /// router pass, then drains each shard's bucket on the worker pool.
    /// Outcomes are returned in input order.
    pub fn submit_batch_sql(&self, requests: &[(String, String)]) -> Vec<BatchOutcome> {
        let compiled: Vec<(String, CoreResult<EntangledQuery>)> = requests
            .iter()
            .map(|(owner, sql)| (owner.clone(), compile_sql(sql)))
            .collect();
        self.submit_batch(compiled)
    }

    /// Batch submission of pre-compiled queries (entries may carry a
    /// compile error, which is passed through to the outcome slot).
    pub fn submit_batch(
        &self,
        requests: Vec<(String, CoreResult<EntangledQuery>)>,
    ) -> Vec<BatchOutcome> {
        self.submit_batch_with(
            requests
                .into_iter()
                .map(|(owner, q)| (owner, q, SubmitOptions::default()))
                .collect(),
        )
    }

    /// [`ShardedCoordinator::submit_batch`] with per-entry options:
    /// each request may carry its own deadline, logged in its
    /// registration frame of the bucket's group commit.
    pub fn submit_batch_with(
        &self,
        requests: Vec<(String, CoreResult<EntangledQuery>, SubmitOptions)>,
    ) -> Vec<BatchOutcome> {
        self.submit_batch_async_with(requests)
            .into_iter()
            .map(|r| r.map(CoordinationFuture::into_submission))
            .collect()
    }

    /// [`ShardedCoordinator::submit_batch_sql`], async flavor: every
    /// accepted request comes back as a [`CoordinationFuture`] (already
    /// resolved when its arrival completed a group within the batch).
    pub fn submit_batch_sql_async(
        &self,
        requests: &[(String, String)],
    ) -> Vec<CoreResult<CoordinationFuture>> {
        let compiled: Vec<(String, CoreResult<EntangledQuery>)> = requests
            .iter()
            .map(|(owner, sql)| (owner.clone(), compile_sql(sql)))
            .collect();
        self.submit_batch_async(compiled)
    }

    /// [`ShardedCoordinator::submit_batch`], async flavor. Outcomes are
    /// returned in input order; the same routing, group-commit and
    /// drain machinery runs underneath, so matches are identical to a
    /// sync batch of the same requests under a fixed seed.
    pub fn submit_batch_async(
        &self,
        requests: Vec<(String, CoreResult<EntangledQuery>)>,
    ) -> Vec<CoreResult<CoordinationFuture>> {
        self.submit_batch_async_with(
            requests
                .into_iter()
                .map(|(owner, q)| (owner, q, SubmitOptions::default()))
                .collect(),
        )
    }

    /// [`ShardedCoordinator::submit_batch_async`] with per-entry
    /// options. Every batch submission runs through here; the sync
    /// entry points convert the returned futures.
    pub fn submit_batch_async_with(
        &self,
        requests: Vec<(String, CoreResult<EntangledQuery>, SubmitOptions)>,
    ) -> Vec<CoreResult<CoordinationFuture>> {
        let mut outcomes: Vec<Option<CoreResult<CoordinationFuture>>> =
            Vec::with_capacity(requests.len());
        outcomes.resize_with(requests.len(), || None);

        // Phase 1 (no locks): compile outcomes + safety + tenant
        // admission, id allocation in input order so ids match a serial
        // submission of the batch (admission precedes allocation, like
        // the single-submit path, so a rejected entry burns no id).
        let tenants = self.tenants.lock().clone();
        let mut any_deadline = false;
        let mut accepted: Vec<(usize, Pending, BTreeSet<String>, Option<Admission>)> = Vec::new();
        for (idx, (owner, compiled, opts)) in requests.into_iter().enumerate() {
            let query = match compiled {
                Ok(q) => q,
                Err(e) => {
                    outcomes[idx] = Some(Err(e));
                    continue;
                }
            };
            if let Err(e) = check_safety(&query, self.engine.config.safety) {
                self.rejected_unsafe.fetch_add(1, Ordering::Relaxed);
                outcomes[idx] = Some(Err(e));
                continue;
            }
            let admission = match &tenants {
                Some(reg) => match reg.admit(&owner, opts.deadline) {
                    Ok(admission) => Some(admission),
                    Err(e) => {
                        self.rejected_quota.fetch_add(1, Ordering::Relaxed);
                        outcomes[idx] = Some(Err(e));
                        continue;
                    }
                },
                None => None,
            };
            let relations = query.answer_relations();
            let qid = QueryId(self.next_id.fetch_add(1, Ordering::Relaxed));
            let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            any_deadline |= opts.deadline.is_some();
            let pending = Pending {
                id: qid,
                owner,
                query: query.namespaced(qid),
                seq,
                deadline: opts.deadline,
            };
            accepted.push((idx, pending, relations, admission));
        }

        // Phase 2 (router lock): union every signature first, then
        // bucket by the *final* component placement — bucketing after
        // all unions means an intra-batch merge can never strand an
        // earlier entry on a stale shard.
        let hook = self.apply_hook.lock().clone();
        let mut buckets: Vec<Bucket> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut all_moves: HashMap<usize, Vec<QueryId>> = HashMap::new();
        {
            let mut router = self.router.lock();
            let mut routed = Vec::with_capacity(accepted.len());
            for (idx, pending, relations, admission) in accepted {
                let (_, migrations) = router.route(pending.id, &relations);
                for (shard, mut qids) in self.apply_migrations(&mut router, &migrations) {
                    all_moves.entry(shard).or_default().append(&mut qids);
                }
                routed.push((idx, pending, admission));
            }
            for (idx, pending, admission) in routed {
                let shard = router
                    .shard_of_query(pending.id)
                    .expect("query was routed in this pass");
                buckets[shard].push((idx, pending, admission));
            }
        }
        self.rematch_moved(all_moves, &hook);

        // Phase 3 (worker pool): drain each busy shard independently,
        // arrival-by-arrival within the bucket.
        let busy: Vec<usize> = (0..buckets.len())
            .filter(|&s| !buckets[s].is_empty())
            .collect();
        let buckets: Vec<Option<Mutex<Bucket>>> = buckets
            .into_iter()
            .map(|b| {
                if b.is_empty() {
                    None
                } else {
                    Some(Mutex::new(b))
                }
            })
            .collect();
        let worker_count = self.workers.min(busy.len()).max(1);

        let mut drained: Vec<(usize, CoreResult<CoordinationFuture>)> = Vec::new();
        let mut answered: Vec<QueryId> = Vec::new();
        let mut still_pending: Vec<(usize, QueryId)> = Vec::new(); // (shard, qid)
        let cursor = AtomicU64::new(0);
        let worker = |results: &mut Vec<(usize, CoreResult<CoordinationFuture>)>,
                      log: &mut Vec<QueryId>,
                      pending_out: &mut Vec<(usize, QueryId)>| {
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(&shard) = busy.get(i) else { break };
                let bucket = buckets[shard]
                    .as_ref()
                    .expect("busy shard has a bucket")
                    .lock()
                    .drain(..)
                    .collect::<Vec<_>>();
                let (mut r, mut l, maybe_pending) = self.drain_shard(shard, bucket, &hook);
                pending_out.extend(maybe_pending.into_iter().map(|qid| (shard, qid)));
                results.append(&mut r);
                log.append(&mut l);
            }
        };
        if worker_count <= 1 {
            worker(&mut drained, &mut answered, &mut still_pending);
        } else {
            let results = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..worker_count)
                    .map(|_| {
                        let worker = &worker;
                        scope.spawn(move || {
                            let (mut r, mut l, mut p) = (Vec::new(), Vec::new(), Vec::new());
                            worker(&mut r, &mut l, &mut p);
                            (r, l, p)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("drain worker panicked"))
                    .collect::<Vec<_>>()
            });
            for (mut r, mut l, mut p) in results {
                drained.append(&mut r);
                answered.append(&mut l);
                still_pending.append(&mut p);
            }
        }
        if let Some(reg) = &tenants {
            // every member of any group the batch completed; untracked
            // ids (log-failure slots) are ignored by the ledger
            reg.finish_all(&answered, TenantOutcome::Answered);
        }
        self.retire(answered);

        // Phase 4: heal any placement made stale by a concurrent merge.
        let mut by_shard: HashMap<usize, Vec<QueryId>> = HashMap::new();
        for (shard, qid) in still_pending {
            by_shard.entry(shard).or_default().push(qid);
        }
        for (shard, qids) in by_shard {
            self.heal_placement(shard, &qids, &hook);
        }

        if any_deadline {
            self.sweep_signal.notify();
        }
        self.maybe_auto_checkpoint();

        for (idx, outcome) in drained {
            outcomes[idx] = Some(outcome);
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every batch slot received an outcome"))
            .collect()
    }

    /// Drains one shard's bucket under its lock: group-commits the
    /// bucket's registrations to the coordination log as one
    /// marker-delimited commit group (buckets draining on other
    /// shards share the pipeline writer's fsync), then
    /// insert → match → cascade per arrival, in bucket (= submission)
    /// order. Returns the per-request outcomes,
    /// the answered-query log, and the ids that may still be pending
    /// afterwards (`Pending` outcomes, plus `Err` outcomes — an apply
    /// failure reinstates the query), which the caller must
    /// placement-heal.
    fn drain_shard(
        &self,
        shard: usize,
        bucket: Bucket,
        hook: &Option<SharedApplyHook>,
    ) -> DrainResult {
        // Fair tenant interleaving reorders the bucket *before* the log
        // events are built, so the durable registration order equals
        // the processing order, exactly as in the unfair drain.
        let bucket = if self.fair_drain {
            fair_interleave(bucket)
        } else {
            bucket
        };
        let tenants = self.tenants.lock().clone();
        let mut state = self.shard_lock(shard);
        // log-before-ack, batch flavor: every registration of the
        // bucket is durable before any of its arrivals is processed
        let stamp = self.engine.audit_now().map(|at| RegStamp {
            at,
            shard: shard as u32,
        });
        let events: Vec<CoordEvent> = bucket
            .iter()
            .map(|(_, p, _)| CoordEvent::QueryRegistered {
                owner: p.owner.clone(),
                sql: p.query.sql.clone(),
                qid: p.id,
                seq: p.seq,
                deadline: p.deadline,
                stamp,
            })
            .collect();
        if let Err(e) = self.engine.db.log_events(&events) {
            // none were registered: fail every slot and retire the
            // routed-but-unlogged ids from the router (via the
            // answered log, whose entries the caller purges). The
            // bucket's admissions roll back as they drop here.
            let mut results = Vec::with_capacity(bucket.len());
            let mut unregistered = Vec::with_capacity(bucket.len());
            for (idx, pending, _admission) in bucket {
                unregistered.push(pending.id);
                results.push((idx, Err(CoreError::Storage(e.clone()))));
            }
            return (results, unregistered, Vec::new());
        }
        // audit submit rows for the whole bucket, in one transaction,
        // before any of its arrivals can produce a terminal row
        self.engine.observe_all(&events);
        let mut results = Vec::with_capacity(bucket.len());
        let mut maybe_pending = Vec::new();
        for (idx, pending, admission) in bucket {
            let qid = pending.id;
            // durably registered: bind the tenant reservation to its id
            if let (Some(reg), Some(admission)) = (&tenants, admission) {
                reg.track(admission, qid);
            }
            let outcome = self
                .engine
                .process_arrival(&mut state, pending, hook_ref(hook));
            if !matches!(&outcome, Ok(f) if f.answered_on_arrival()) {
                maybe_pending.push(qid);
            }
            results.push((idx, outcome));
        }
        // one audit transaction for every match the bucket produced
        self.engine.flush_audit(&mut state);
        let log = std::mem::take(&mut state.answered_log);
        (results, log, maybe_pending)
    }

    /// Executes migrations decided by the router (caller holds the
    /// router lock). Shard locks are taken in ascending index order —
    /// the global lock order — so concurrent drains cannot deadlock.
    /// Only *moves* entries (cheap: registry + waiter transfers);
    /// matching is deliberately left to [`Self::rematch_moved`], which
    /// runs after the router lock is released so routing never
    /// serializes behind match work or database writes. Returns the
    /// moved queries grouped by destination shard.
    fn apply_migrations(
        &self,
        _router: &mut Router,
        migrations: &[Migration],
    ) -> HashMap<usize, Vec<QueryId>> {
        let mut moves: HashMap<usize, Vec<QueryId>> = HashMap::new();
        for m in migrations {
            if m.from == m.to {
                continue;
            }
            let (lo, hi) = (m.from.min(m.to), m.from.max(m.to));
            let mut lo_guard = self.shard_lock(lo);
            let mut hi_guard = self.shard_lock(hi);
            let (src, dst) = if m.from == lo {
                (&mut *lo_guard, &mut *hi_guard)
            } else {
                (&mut *hi_guard, &mut *lo_guard)
            };
            for qid in &m.qids {
                // answered/cancelled entries may linger in the
                // membership until retired; routed-but-undrained ones
                // are healed by their own drain. Skip both.
                if let Some(pending) = src.registry.remove(*qid) {
                    dst.registry.insert(pending);
                    moves.entry(m.to).or_default().push(*qid);
                }
                if let Some(waiter) = src.waiters.remove(qid) {
                    dst.waiters.insert(*qid, waiter);
                }
            }
        }
        moves
    }

    /// Re-matches queries that [`Self::apply_migrations`] moved: the
    /// merge that triggered the migration may have made them matchable
    /// against their new shard's pending set. Runs *without* the router
    /// lock; matching, applies and cascades happen under the shard lock
    /// only, exactly like a drain. Best-effort: apply failures leave
    /// the group pending, like a cascade round.
    fn rematch_moved(&self, moves: HashMap<usize, Vec<QueryId>>, hook: &Option<SharedApplyHook>) {
        let mut answered = Vec::new();
        for (shard, qids) in moves {
            let mut state = self.shard_lock(shard);
            // Index-first pruning: a moved query whose candidate index
            // and committed probe both come up empty cannot match in
            // its new shard either — skip it without a db read lock.
            // Recomputed after every fired match, so skips are exactly
            // the try_match calls that would return None.
            let mut skip = self.engine.prunable_triggers(&state);
            for qid in qids {
                if state.registry.get(qid).is_none() {
                    continue; // answered earlier in this loop or moved on
                }
                if skip.contains(&qid) {
                    state.stats.match_work.triggers_pruned += 1;
                    continue;
                }
                if let Ok(Some(gm)) = self.engine.try_match(&mut state, qid) {
                    let fresh: Vec<(String, Tuple)> = gm.all_answers().cloned().collect();
                    if self
                        .engine
                        .apply_and_notify(&mut state, gm, hook_ref(hook))
                        .is_ok()
                    {
                        let _ = self.engine.cascade(&mut state, fresh, hook_ref(hook));
                        skip = self.engine.prunable_triggers(&state);
                    } // on Err the group was reinstated and stays pending
                }
            }
            self.engine.flush_audit(&mut state);
            answered.append(&mut state.answered_log);
        }
        if let Some(reg) = self.tenants.lock().clone() {
            reg.finish_all(&answered, TenantOutcome::Answered);
        }
        self.retire(answered);
    }

    /// Re-checks where `qids` (just drained as pending on `shard`)
    /// should live according to the router, migrating and re-matching
    /// any that a concurrent component merge re-routed mid-flight.
    fn heal_placement(&self, shard: usize, qids: &[QueryId], hook: &Option<SharedApplyHook>) {
        let moves = {
            let mut router = self.router.lock();
            let mut by_target: HashMap<usize, Vec<QueryId>> = HashMap::new();
            for &qid in qids {
                if let Some(target) = router.shard_of_query(qid) {
                    if target != shard {
                        by_target.entry(target).or_default().push(qid);
                    }
                }
            }
            if by_target.is_empty() {
                return;
            }
            let migrations: Vec<Migration> = by_target
                .into_iter()
                .map(|(to, qids)| Migration {
                    from: shard,
                    to,
                    qids,
                })
                .collect();
            self.apply_migrations(&mut router, &migrations)
        };
        self.rematch_moved(moves, hook);
    }

    /// Retires answered queries from the router's membership sets.
    /// Must be called without holding any shard lock (lock order).
    fn retire(&self, answered: Vec<QueryId>) {
        if answered.is_empty() {
            return;
        }
        let mut router = self.router.lock();
        for qid in answered {
            router.purge(qid);
        }
    }

    /// Cancels a pending query. The cancellation is logged before the
    /// entry disappears from the registry (log-before-ack).
    pub fn cancel(&self, qid: QueryId) -> CoreResult<()> {
        let mut router = self.router.lock();
        let Some(shard) = router.shard_of_query(qid) else {
            return Err(CoreError::UnknownQuery(qid.0));
        };
        {
            let mut state = self.shard_lock(shard);
            if state.registry.get(qid).is_none() {
                drop(state);
                return Err(CoreError::UnknownQuery(qid.0));
            }
            let cancelled = CoordEvent::QueryCancelled {
                qid,
                at: self.engine.audit_now(),
            };
            self.engine
                .db
                .log_event(&cancelled)
                .map_err(CoreError::Storage)?;
            self.engine.observe(&cancelled);
            if let Some(waiter) = state.waiters.remove(&qid) {
                // a parked future must resolve, not hang forever
                state
                    .resolved
                    .push((waiter, CoordinationOutcome::Cancelled));
            }
            state.registry.remove(qid);
        }
        router.purge(qid);
        drop(router);
        if let Some(reg) = self.tenants.lock().clone() {
            reg.finish(qid, TenantOutcome::Cancelled);
        }
        Ok(())
    }

    /// Cancels every pending query belonging to `owner`. Returns how
    /// many were withdrawn. Log-before-ack holds per shard: each
    /// shard's cancellations group-commit before that shard's removals
    /// happen, and a shard whose log write fails is skipped entirely —
    /// so the returned count may be partial under log failure, but
    /// never includes an unlogged removal.
    pub fn cancel_owner(&self, owner: &str) -> usize {
        let at = self.engine.audit_now();
        self.sweep(
            |p| p.owner == owner,
            |qid| CoordEvent::QueryCancelled { qid, at },
            CoordinationOutcome::Cancelled,
        )
        .len()
    }

    /// Expires pending queries whose submission sequence number is
    /// older than `min_seq` — the legacy caller-driven sweep, now a
    /// seq-selection over the same per-shard lifecycle helper as
    /// [`ShardedCoordinator::expire_due`] (pairs with
    /// [`ShardedCoordinator::current_seq`]). Returns the expired ids;
    /// like [`ShardedCoordinator::cancel_owner`], a shard whose log
    /// write fails is skipped (partial result, never an unlogged
    /// removal).
    pub fn expire_before(&self, min_seq: u64) -> Vec<QueryId> {
        let at = self.engine.audit_now();
        let expired = self.sweep(
            |p| p.seq < min_seq,
            |qid| CoordEvent::QueryExpired { qid, at },
            CoordinationOutcome::Expired,
        );
        if !expired.is_empty() {
            self.maybe_auto_checkpoint();
        }
        expired
    }

    /// Expires every pending query whose deadline
    /// ([`SubmitOptions::deadline`]) is at or before `now_millis` —
    /// the clock-driven sweep a [`crate::DeadlineSweeper`] runs in the
    /// background. Per shard: the lock-free monitor hint is consulted
    /// first (a shard whose earliest deadline lies in the future is
    /// skipped without touching its lock), then the registry's
    /// deadline index selects the victims and the shared lifecycle
    /// helper logs-then-removes them under the shard lock. Returns the
    /// expired ids.
    pub fn expire_due(&self, now_millis: u64) -> Vec<QueryId> {
        let mut victims = Vec::new();
        for (index, slot) in self.shards.iter().enumerate() {
            // the hint may trail an in-flight registration by one
            // publish, but that registration's sweep-signal notify
            // happens after its guard drop, so the sweeper always
            // re-reads a fresh hint before sleeping
            if slot.monitor.min_deadline.load(Ordering::Relaxed) > now_millis {
                continue;
            }
            let mut state = self.shard_lock(index);
            let due = state.registry.due_before(now_millis);
            let at = self.engine.audit_now();
            let expired = self.engine.retire_ids(
                &mut state,
                &due,
                |qid| CoordEvent::QueryExpired { qid, at },
                &CoordinationOutcome::Expired,
            );
            state.stats.expired += expired.len() as u64;
            drop(state);
            victims.extend(expired);
        }
        if let Some(reg) = self.tenants.lock().clone() {
            reg.finish_all(&victims, TenantOutcome::Expired);
        }
        self.retire(victims.clone());
        if !victims.is_empty() {
            self.maybe_auto_checkpoint();
        }
        victims
    }

    /// The earliest deadline across all shards (the sweeper's wakeup
    /// hint). Lock-free: reads the per-shard monitor atomics.
    pub fn next_deadline(&self) -> Option<u64> {
        let min = self
            .shards
            .iter()
            .map(|s| s.monitor.min_deadline.load(Ordering::Relaxed))
            .min()
            .unwrap_or(u64::MAX);
        (min != u64::MAX).then_some(min)
    }

    /// Removes every pending query matching `select` through the
    /// shared lifecycle helper ([`Engine::retire_ids`]): per shard,
    /// one group commit of the events, then the removals — parked
    /// waiters resolve with `outcome`, so async futures terminate
    /// instead of hanging. Returns the removed ids.
    fn sweep(
        &self,
        select: impl Fn(&Pending) -> bool,
        event: impl Fn(QueryId) -> CoordEvent,
        outcome: CoordinationOutcome,
    ) -> Vec<QueryId> {
        let mut victims = Vec::new();
        for shard in 0..self.shards.len() {
            let mut state = self.shard_lock(shard);
            let ids: Vec<QueryId> = state
                .registry
                .iter()
                .filter(|p| select(p))
                .map(|p| p.id)
                .collect();
            let removed = self.engine.retire_ids(&mut state, &ids, &event, &outcome);
            if matches!(outcome, CoordinationOutcome::Expired) {
                state.stats.expired += removed.len() as u64;
            }
            drop(state);
            victims.extend(removed);
        }
        if let Some(reg) = self.tenants.lock().clone() {
            let tenant_outcome = match &outcome {
                CoordinationOutcome::Cancelled => Some(TenantOutcome::Cancelled),
                CoordinationOutcome::Expired => Some(TenantOutcome::Expired),
                _ => None,
            };
            if let Some(tenant_outcome) = tenant_outcome {
                reg.finish_all(&victims, tenant_outcome);
            }
        }
        self.retire(victims.clone());
        victims
    }

    /// Re-issues tickets for `owner`'s still-pending queries after a
    /// reconnect: waiters do not survive a crash (or a dropped ticket),
    /// but the pending queries themselves do. Any previous handle for
    /// the same query stops receiving notifications. The blocking view
    /// of [`ShardedCoordinator::reattach_async`].
    pub fn reattach(&self, owner: &str) -> Vec<Ticket> {
        self.reattach_async(owner)
            .into_iter()
            .map(CoordinationFuture::into_ticket)
            .collect()
    }

    /// Hands the reconnecting owner a live [`CoordinationFuture`] per
    /// still-pending query — including queries restored by
    /// [`ShardedCoordinator::recover`], whose pre-crash waiters died
    /// with the process. The fresh waiter is re-armed under the owning
    /// shard's lock, so a match racing in on another thread either sees
    /// it or has already retired the query. Any previous handle for the
    /// same query resolves [`CoordinationOutcome::Superseded`].
    pub fn reattach_async(&self, owner: &str) -> Vec<CoordinationFuture> {
        // gate: serialize whole-owner reattaches (first-writer-wins —
        // the loser's entire handle set resolves `Superseded`)
        let _gate = self.reattach_gate.lock();
        let mut futures = Vec::new();
        for shard in 0..self.shards.len() {
            let mut state = self.shard_lock(shard);
            let ids: Vec<QueryId> = state
                .registry
                .iter()
                .filter(|p| p.owner == owner)
                .map(|p| p.id)
                .collect();
            for qid in ids {
                let shared = Arc::new(TicketShared::default());
                if let Some(old) = state.waiters.insert(qid, Arc::clone(&shared)) {
                    state.resolved.push((old, CoordinationOutcome::Superseded));
                }
                futures.push(CoordinationFuture::new(qid, shared));
            }
        }
        futures.sort_by_key(|f| f.id().0);
        futures
    }

    /// Retries matching for every pending query on every shard (useful
    /// after database updates, and the workhorse of the recovery
    /// re-match sweep). Shards hold disjoint pending sets behind
    /// separate locks, so the sweep fans out across the worker pool —
    /// one task per shard, claimed off a shared cursor — and each
    /// worker runs the index-first pruned retry sweep on its shard.
    /// Results are reassembled in shard order, so notifications and
    /// error propagation are identical to a sweep of one shard at a
    /// time.
    pub fn retry_all(&self) -> CoreResult<Vec<MatchNotification>> {
        let hook = self.apply_hook.lock().clone();
        let shard_count = self.shards.len();
        let worker_count = self.workers.min(shard_count).max(1);

        let mut per_shard: Vec<Option<CoreResult<Vec<MatchNotification>>>> = Vec::new();
        per_shard.resize_with(shard_count, || None);
        let mut answered: Vec<QueryId> = Vec::new();

        let cursor = AtomicU64::new(0);
        let worker = |results: &mut Vec<(usize, CoreResult<Vec<MatchNotification>>)>,
                      log: &mut Vec<QueryId>| {
            loop {
                let shard = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                if shard >= shard_count {
                    break;
                }
                let mut state = self.shard_lock(shard);
                let r = self.engine.retry_all(&mut state, hook_ref(&hook));
                self.engine.flush_audit(&mut state);
                log.append(&mut state.answered_log);
                results.push((shard, r));
            }
        };
        if worker_count <= 1 {
            let mut results = Vec::new();
            worker(&mut results, &mut answered);
            for (shard, r) in results {
                per_shard[shard] = Some(r);
            }
        } else {
            let collected = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..worker_count)
                    .map(|_| {
                        let worker = &worker;
                        scope.spawn(move || {
                            let (mut r, mut l) = (Vec::new(), Vec::new());
                            worker(&mut r, &mut l);
                            (r, l)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("retry worker panicked"))
                    .collect::<Vec<_>>()
            });
            for (results, mut log) in collected {
                answered.append(&mut log);
                for (shard, r) in results {
                    per_shard[shard] = Some(r);
                }
            }
        }
        if let Some(reg) = self.tenants.lock().clone() {
            reg.finish_all(&answered, TenantOutcome::Answered);
        }
        self.retire(answered);

        let mut notifications = Vec::new();
        for slot in per_shard {
            notifications.extend(slot.expect("every shard was swept")?);
        }
        Ok(notifications)
    }

    /// Total number of pending queries across shards. Lock-free: sums
    /// the per-shard monitor atomics, so monitoring never contends with
    /// draining (may trail an in-flight drain by one publish).
    pub fn pending_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.monitor.pending.load(Ordering::Relaxed))
            .sum()
    }

    /// Pending queries per shard (diagnostics / load inspection).
    /// Lock-free, like [`ShardedCoordinator::pending_count`].
    pub fn pending_per_shard(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.monitor.pending.load(Ordering::Relaxed))
            .collect()
    }

    /// Merged statistics across shards (plus global safety rejections
    /// and the log-surface gauges: WAL size, bytes and time since the
    /// last checkpoint, auto-checkpoint count — the first slice of the
    /// log-aware admin surface). Lock-free: reads the per-shard
    /// monitor atomics; counters may trail an in-flight drain by one
    /// publish.
    pub fn stats(&self) -> SystemStats {
        let mut total = SystemStats::default();
        for shard in &self.shards {
            total.merge(&shard.monitor.stats());
        }
        total.rejected_unsafe += self.rejected_unsafe.load(Ordering::Relaxed);
        total.rejected_quota += self.rejected_quota.load(Ordering::Relaxed);
        total.wal_bytes = self.engine.db.wal_len().unwrap_or(0);
        total.wal_bytes_since_checkpoint = total
            .wal_bytes
            .saturating_sub(self.wal_len_at_checkpoint.load(Ordering::Relaxed));
        total.checkpoint_age_millis = self
            .clock
            .now_millis()
            .saturating_sub(self.last_checkpoint_at.load(Ordering::Relaxed));
        total.auto_checkpoints = self.auto_checkpoints.load(Ordering::Relaxed);
        total
    }

    /// The current submission sequence number.
    pub fn current_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Snapshot of all pending queries, sorted by id.
    pub fn pending_snapshot(&self) -> Vec<PendingInfo> {
        let mut all: Vec<PendingInfo> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.state
                    .lock()
                    .registry
                    .iter()
                    .map(|p| PendingInfo {
                        id: p.id,
                        owner: p.owner.clone(),
                        sql: p.query.sql.clone(),
                        ir: p.query.to_string(),
                        seq: p.seq,
                        deadline: p.deadline,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by_key(|p| p.id.0);
        all
    }

    /// The union of the per-shard match graphs. Co-sharding guarantees
    /// no potential-satisfaction edge ever crosses shards, so this is
    /// the complete system match graph.
    pub fn match_graph(&self) -> MatchGraph {
        let mut graph = MatchGraph::default();
        for shard in &self.shards {
            let part = match_graph_of(&shard.state.lock().registry);
            graph.edges.extend(part.edges);
            graph.dangling.extend(part.dangling);
        }
        graph
    }

    /// Reads the current content of an answer relation.
    pub fn answers(&self, relation: &str) -> Vec<Tuple> {
        self.engine.answers(relation)
    }

    /// The shard `relation` currently routes to (`None` until some
    /// query has touched it). Exposed for tests and diagnostics.
    pub fn shard_of_relation(&self, relation: &str) -> Option<usize> {
        self.router.lock().shard_of_relation(relation)
    }

    /// Rebuilds a sharded coordinator (database **and** coordination
    /// state) from a WAL:
    ///
    /// 1. storage ops replay into a fresh database (answer relations
    ///    included);
    /// 2. the coordination frames fold into the surviving pending set
    ///    (`registered − (matched ∪ cancelled ∪ expired)`);
    /// 3. each survivor's SQL is re-compiled, routed through a rebuilt
    ///    union-find router, and re-registered on its shard — with the
    ///    same `seed ^ shard_id` RNG discipline as a fresh coordinator,
    ///    so subsequent `CHOOSE` behavior is reproducible;
    /// 4. a matching sweep re-runs arrivals that were logged but whose
    ///    match had not committed before the crash (those matches are
    ///    logged now, like any other).
    ///
    /// Waiters do not survive; reconnecting clients obtain fresh
    /// handles through [`ShardedCoordinator::reattach`] or
    /// [`ShardedCoordinator::reattach_async`]. The
    /// rebuilt coordinator keeps logging to the same WAL.
    ///
    /// The apply hook is `None` during the recovery sweep; use
    /// [`ShardedCoordinator::recover_with_hook`] when matches must run
    /// application side effects.
    pub fn recover(
        wal: Wal,
        config: ShardedConfig,
    ) -> CoreResult<(ShardedCoordinator, RecoveryReport)> {
        Self::recover_with(wal, config, None, Arc::new(SystemClock))
    }

    /// [`ShardedCoordinator::recover`] with an apply hook installed
    /// *before* the post-restore matching sweep runs.
    pub fn recover_with_hook(
        wal: Wal,
        config: ShardedConfig,
        hook: Option<SharedApplyHook>,
    ) -> CoreResult<(ShardedCoordinator, RecoveryReport)> {
        Self::recover_with(wal, config, hook, Arc::new(SystemClock))
    }

    /// The full-control recovery entry point: apply hook plus an
    /// injected [`Clock`]. Deadlines are rebuilt from the log into
    /// each survivor's registry entry, and — after the rematch sweep —
    /// anything already past due *by that clock* is expired
    /// immediately, so no client can reattach to a query that should
    /// be dead. The rebuilt coordinator keeps the clock.
    pub fn recover_with(
        wal: Wal,
        config: ShardedConfig,
        hook: Option<SharedApplyHook>,
        clock: Arc<dyn Clock>,
    ) -> CoreResult<(ShardedCoordinator, RecoveryReport)> {
        let (db, frames) = Database::recover_full(wal).map_err(CoreError::Storage)?;
        let replayed = replay_coordination_frames(&frames)?;
        let co = ShardedCoordinator::with_clock(db, config, clock);
        if let Some(hook) = hook {
            co.set_apply_hook(hook);
        }
        co.next_id.store(replayed.max_qid + 1, Ordering::Relaxed);
        co.seq.store(replayed.max_seq, Ordering::Relaxed);
        // the audit relations are transient (never checkpointed), so
        // they rebuild from the coordination frames — before the retry
        // sweep, whose matches are then observed live like any other
        if let Some(audit) = &co.engine.audit {
            audit.rebuild_from_frames(&frames);
        }
        let mut report = RecoveryReport {
            events_replayed: replayed.events,
            restored_pending: replayed.survivors.len(),
            ..RecoveryReport::default()
        };

        // re-compile outside any lock; a failure means the log (or the
        // compiler) changed underneath us, which recovery must surface
        let mut restored: Vec<Pending> = Vec::with_capacity(replayed.survivors.len());
        for survivor in replayed.survivors {
            let query = compile_sql(&survivor.sql)?;
            restored.push(Pending {
                id: survivor.qid,
                owner: survivor.owner,
                query: query.namespaced(survivor.qid),
                seq: survivor.seq,
                deadline: survivor.deadline,
            });
        }

        // rebuild the router in submission order, then place every
        // survivor on its final shard. Routing first and inserting
        // after means intra-rebuild component merges never migrate
        // anything (the registries are still empty), exactly like the
        // batch path's route-then-bucket discipline.
        {
            let mut router = co.router.lock();
            for p in &restored {
                let relations = p.query.answer_relations();
                let _ = router.route(p.id, &relations);
            }
            let mut by_shard: HashMap<usize, Vec<Pending>> = HashMap::new();
            for p in restored {
                let shard = router
                    .shard_of_query(p.id)
                    .expect("survivor was routed in this pass");
                by_shard.entry(shard).or_default().push(p);
            }
            for (shard, entries) in by_shard {
                let mut state = co.shard_lock(shard);
                for p in entries {
                    state.stats.submitted += 1;
                    state.registry.insert(p);
                }
            }
        }

        // re-run matching for arrivals that were logged but not yet
        // matched; any match that fires commits and logs normally
        let sweep_started = std::time::Instant::now();
        co.retry_all()?;
        report.sweep_micros = sweep_started.elapsed().as_micros() as u64;
        let swept = co.stats();
        report.rematched_groups = swept.groups_matched;
        report.triggers_pruned = swept.match_work.triggers_pruned;
        // deadlines that lapsed while the coordinator was down expire
        // now (logged like any sweep), matching the uncrashed run's
        // sweep at the same clock instant
        report.expired_at_recovery = co.expire_due(co.clock.now_millis()).len();
        Ok((co, report))
    }

    /// Compacts the WAL under a full quiesce: the storage snapshot plus
    /// one registration frame per *surviving* pending query replace the
    /// log's history, so matched, cancelled and expired registrations
    /// stop occupying log space. Holding the router lock and every
    /// shard lock (in index order) excludes every mutation path —
    /// including the log appends they perform — so the snapshot is
    /// consistent with the rewritten log.
    pub fn checkpoint(&self) -> CoreResult<()> {
        let _router = self.router.lock();
        let guards: Vec<ShardGuard<'_>> =
            (0..self.shards.len()).map(|i| self.shard_lock(i)).collect();
        let mut events: Vec<(u64, CoordEvent)> = Vec::new();
        for guard in &guards {
            for p in guard.registry.iter() {
                events.push((
                    p.seq,
                    // the deadline rides the compacted frame too — a
                    // checkpoint must never turn a bounded query into
                    // an immortal one. So does the audit submit stamp:
                    // a post-checkpoint recovery rebuilds the survivor's
                    // audit row with its original submission time.
                    CoordEvent::QueryRegistered {
                        owner: p.owner.clone(),
                        sql: p.query.sql.clone(),
                        qid: p.id,
                        seq: p.seq,
                        deadline: p.deadline,
                        stamp: co_stamp(&self.engine, p.id),
                    },
                ));
            }
        }
        events.sort_by_key(|(seq, _)| *seq);
        // the matched/cancelled history being compacted away carried
        // the allocation high-water mark; persist it explicitly so a
        // post-checkpoint recovery never re-issues a handed-out id or
        // regresses the sequence clock
        let watermark = CoordEvent::Watermark {
            qid: QueryId(self.next_id.load(Ordering::Relaxed).saturating_sub(1)),
            seq: self.seq.load(Ordering::Relaxed),
        };
        let mut payloads: Vec<Vec<u8>> = vec![watermark.encode()];
        payloads.extend(events.iter().map(|(_, e)| e.encode()));
        self.engine
            .db
            .checkpoint_with_coordination(&payloads)
            .map_err(CoreError::Storage)?;
        // reset the log-surface gauges while still quiesced
        self.wal_len_at_checkpoint
            .store(self.engine.db.wal_len().unwrap_or(0), Ordering::Relaxed);
        self.last_checkpoint_at
            .store(self.clock.now_millis(), Ordering::Relaxed);
        Ok(())
    }

    /// Triggers [`ShardedCoordinator::checkpoint`] when the bytes
    /// appended since the last checkpoint exceed the configured
    /// threshold ([`ShardedConfig::auto_checkpoint_bytes`]). Called
    /// after group commits; concurrent triggers collapse into one run.
    /// Auto-checkpoint failures are swallowed (the log keeps growing
    /// and the next trigger retries) — compaction is an optimization,
    /// never a correctness requirement.
    fn maybe_auto_checkpoint(&self) {
        if self.auto_checkpoint_bytes == 0 {
            return;
        }
        let Some(len) = self.engine.db.wal_len() else {
            return; // non-durable database: nothing to compact
        };
        let since = len.saturating_sub(self.wal_len_at_checkpoint.load(Ordering::Relaxed));
        if since <= self.auto_checkpoint_bytes {
            return;
        }
        if self
            .checkpointing
            .compare_exchange(
                false,
                true,
                std::sync::atomic::Ordering::Acquire,
                std::sync::atomic::Ordering::Relaxed,
            )
            .is_err()
        {
            return; // another thread is already checkpointing
        }
        if self.checkpoint().is_ok() {
            self.auto_checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        self.checkpointing
            .store(false, std::sync::atomic::Ordering::Release);
    }

    /// Verifies the routing invariants at a quiescent point, returning
    /// a description of the first violation: (a) every pending query
    /// lives on the shard its relation component routes to, (b) a
    /// query's whole signature maps to a single component, and (c)
    /// every pending query is tracked in its component's membership
    /// set. Used by the invariant unit tests and the concurrency soak.
    pub fn check_routing_invariants(&self) -> Result<(), String> {
        // collect shard placements first, then consult the router —
        // the lock order forbids taking the router lock while holding
        // a shard lock
        let mut placements: Vec<(usize, QueryId, BTreeSet<String>)> = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            let state = shard.state.lock();
            for p in state.registry.iter() {
                placements.push((si, p.id, p.query.answer_relations()));
            }
        }
        let mut router = self.router.lock();
        for (si, qid, relations) in placements {
            let mut component = None;
            for rel in &relations {
                let Some(&node) = router.rel_node.get(rel) else {
                    return Err(format!("query {qid}: relation {rel} unknown to the router"));
                };
                let root = router.find(node);
                if *component.get_or_insert(root) != root {
                    return Err(format!("query {qid}: signature spans two components"));
                }
                let routed = router.shard[root];
                if routed != si {
                    return Err(format!(
                        "query {qid} lives on shard {si} but {rel} routes to shard {routed}"
                    ));
                }
            }
            if let Some(root) = component {
                if !router.members[root].contains(&qid) {
                    return Err(format!("query {qid} missing from its component membership"));
                }
            }
        }
        Ok(())
    }
}

impl DeadlineHost for ShardedCoordinator {
    fn next_deadline_millis(&self) -> Option<u64> {
        self.next_deadline()
    }

    fn expire_due(&self, now_millis: u64) -> Vec<QueryId> {
        ShardedCoordinator::expire_due(self, now_millis)
    }

    fn sweep_signal(&self) -> Arc<SweepSignal> {
        Arc::clone(&self.sweep_signal)
    }

    fn sweep_tick(&self, now_millis: u64) {
        // refresh the lock-free monitor mirrors so admin gauge reads
        // stay live on an idle system (no drain has released a shard
        // lock to republish them). try_lock only: a busy shard's own
        // guard drop publishes fresher numbers anyway, and the sweeper
        // must never stall behind a drain.
        for slot in &self.shards {
            if let Some(state) = slot.state.try_lock() {
                slot.monitor.publish(&state);
            }
        }
        // time/size checkpoint policy: evaluated here (not only after
        // group commits) so a quiet coordinator still compacts its WAL
        // on schedule
        let policy = self.checkpoint_policy;
        if policy == CheckpointPolicy::default() {
            return;
        }
        let Some(len) = self.engine.db.wal_len() else {
            return; // non-durable database: nothing to compact
        };
        let since = len.saturating_sub(self.wal_len_at_checkpoint.load(Ordering::Relaxed));
        let age = now_millis.saturating_sub(self.last_checkpoint_at.load(Ordering::Relaxed));
        if !policy.due(since, age) {
            return;
        }
        if self
            .checkpointing
            .compare_exchange(
                false,
                true,
                std::sync::atomic::Ordering::Acquire,
                std::sync::atomic::Ordering::Relaxed,
            )
            .is_err()
        {
            return; // another thread is already checkpointing
        }
        if self.checkpoint().is_ok() {
            self.auto_checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        self.checkpointing
            .store(false, std::sync::atomic::Ordering::Release);
    }
}

/// Borrows the shared hook as the engine's `&dyn Fn`.
type HookDyn<'a> = &'a dyn Fn(&mut Transaction, &GroupMatch) -> StorageResult<()>;

fn hook_ref(hook: &Option<SharedApplyHook>) -> Option<HookDyn<'_>> {
    hook.as_ref()
        .map(|h| h.as_ref() as &dyn Fn(&mut Transaction, &GroupMatch) -> StorageResult<()>)
}

/// The audit submit stamp a checkpoint re-emits for a surviving
/// registration (`None` when auditing is off, or when the sink never
/// saw the registration — e.g. it was logged before auditing was
/// enabled).
fn co_stamp(engine: &Engine, qid: QueryId) -> Option<RegStamp> {
    engine.audit.as_ref().and_then(|a| a.reg_stamp_of(qid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_exec::run_sql;

    fn flights_db() -> Database {
        let db = Database::new();
        for sql in [
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
            "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris'), \
             (136, 'Rome')",
        ] {
            run_sql(&db, sql).unwrap();
        }
        db
    }

    fn pair_sql_on(rel: &str, me: &str, friend: &str) -> String {
        format!(
            "SELECT '{me}', fno INTO ANSWER {rel} \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND ('{friend}', fno) IN ANSWER {rel} CHOOSE 1"
        )
    }

    #[test]
    fn pair_coordination_end_to_end() {
        let co = ShardedCoordinator::new(flights_db());
        let a = co
            .submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();
        let Submission::Pending(ticket) = a else {
            panic!("kramer must wait")
        };
        let b = co
            .submit_sql("jerry", &pair_sql_on("Reservation", "Jerry", "Kramer"))
            .unwrap();
        assert!(matches!(b, Submission::Answered(_)));
        ticket.receiver.try_recv().expect("kramer notified");
        assert_eq!(co.pending_count(), 0);
        assert_eq!(co.stats().groups_matched, 1);
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn distinct_relations_land_on_distinct_shards() {
        let co = ShardedCoordinator::with_config(
            flights_db(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        );
        for k in 0..4 {
            let rel = format!("Res{k}");
            co.submit_sql("a", &pair_sql_on(&rel, "A", "Ghost"))
                .unwrap();
        }
        let shards: BTreeSet<usize> = (0..4)
            .map(|k| co.shard_of_relation(&format!("Res{k}")).unwrap())
            .collect();
        assert_eq!(shards.len(), 4, "round-robin spreads fresh components");
        assert_eq!(co.pending_per_shard(), vec![1, 1, 1, 1]);
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn batch_matches_pairs_and_reports_in_order() {
        let co = ShardedCoordinator::new(flights_db());
        let requests: Vec<(String, String)> = (0..8)
            .map(|k| {
                let rel = format!("Res{}", k % 4);
                let (me, friend) = if k < 4 {
                    (format!("L{k}"), format!("R{k}"))
                } else {
                    (format!("R{}", k - 4), format!("L{}", k - 4))
                };
                (me.clone(), pair_sql_on(&rel, &me, &friend))
            })
            .collect();
        let outcomes = co.submit_batch_sql(&requests);
        assert_eq!(outcomes.len(), 8);
        for outcome in &outcomes[..4] {
            assert!(
                matches!(outcome, Ok(Submission::Pending(_))),
                "first halves wait"
            );
        }
        for outcome in &outcomes[4..] {
            assert!(
                matches!(outcome, Ok(Submission::Answered(_))),
                "second halves close"
            );
        }
        assert_eq!(co.pending_count(), 0);
        assert_eq!(co.stats().groups_matched, 4);
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn bridging_query_merges_components_and_migrates() {
        let co = ShardedCoordinator::with_config(
            flights_db(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        );
        co.submit_sql("a", &pair_sql_on("RelA", "A", "GhostA"))
            .unwrap();
        co.submit_sql("b", &pair_sql_on("RelB", "B", "GhostB"))
            .unwrap();
        let sa = co.shard_of_relation("RelA").unwrap();
        let sb = co.shard_of_relation("RelB").unwrap();
        assert_ne!(sa, sb, "fresh components start on different shards");

        // a query spanning both relations forces the components together
        let bridge = "SELECT 'C', fno INTO ANSWER RelA, 'C', fno INTO ANSWER RelB \
                      WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                      AND ('GhostC', fno) IN ANSWER RelA CHOOSE 1";
        co.submit_sql("c", bridge).unwrap();
        assert_eq!(
            co.shard_of_relation("RelA").unwrap(),
            co.shard_of_relation("RelB").unwrap(),
            "merged components co-shard"
        );
        co.check_routing_invariants().unwrap();
        assert_eq!(co.pending_count(), 3);
    }

    #[test]
    fn migration_rematches_newly_coordinable_queries() {
        let co = ShardedCoordinator::with_config(
            flights_db(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        );
        // two halves of a pair on relations that start out separate:
        // X's constraint lives on RelP, its head on RelQ and vice versa,
        // so neither can match until the components merge... which their
        // own signatures already force. Use disjoint relations instead:
        // a pending pair split across components cannot exist by
        // construction (signatures overlap ⇒ same component), so the
        // rematch path is exercised through a bridge that *completes* a
        // match: X waits on RelA; the bridge has heads on RelA and RelB
        // and waits on X's head relation.
        let x = "SELECT 'X', fno INTO ANSWER RelA \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('Y', fno) IN ANSWER RelB CHOOSE 1";
        let sub_x = co.submit_sql("x", x).unwrap();
        let Submission::Pending(ticket_x) = sub_x else {
            panic!("x waits")
        };
        // RelA and RelB are already one component (X touches both), so
        // add an unrelated pending on RelC to create a second component
        co.submit_sql("noise", &pair_sql_on("RelC", "N", "GhostN"))
            .unwrap();
        // Y bridges: head on RelB (satisfies X) + constraint on RelA
        // (satisfied by X) + also touches RelC, merging all components
        let y = "SELECT 'Y', fno INTO ANSWER RelB, 'Y', fno INTO ANSWER RelC \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('X', fno) IN ANSWER RelA CHOOSE 1";
        let sub_y = co.submit_sql("y", y).unwrap();
        assert!(
            matches!(sub_y, Submission::Answered(_)),
            "merge makes the pair matchable"
        );
        ticket_x
            .receiver
            .try_recv()
            .expect("x notified after merge");
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn const_index_stays_consistent_across_submit_retract_rebalance() {
        use crate::ir::{Atom, Term};

        let co = ShardedCoordinator::with_config(
            flights_db(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        );
        // submit: X waits on RelA with a constant-name head
        let sub = co
            .submit_sql("x", &pair_sql_on("RelA", "X", "GhostX"))
            .unwrap();
        let xid = sub.id();
        co.submit_sql("m", &pair_sql_on("RelM", "M", "GhostM"))
            .unwrap();
        let shard_a = co.shard_of_relation("RelA").unwrap();
        let shard_m = co.shard_of_relation("RelM").unwrap();
        assert_ne!(shard_a, shard_m);

        // the constant-position index on X's shard finds X's head for a
        // constraint naming X, and nothing for a stranger
        let probe_x = Atom::new("RelA", vec![Term::constant("X"), Term::var("f")]);
        let probe_stranger = Atom::new("RelA", vec![Term::constant("Z"), Term::var("f")]);
        {
            let state = co.shards[shard_a].state.lock();
            assert_eq!(state.registry.candidates_for(&probe_x).len(), 1);
            assert!(state.registry.candidates_for(&probe_stranger).is_empty());
        }

        // rebalance: a bridge spanning RelA and RelM merges the
        // components (union-find merge path) and migrates one side
        let bridge = "SELECT 'B', fno INTO ANSWER RelA, 'B', fno INTO ANSWER RelM \
                      WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                      AND ('GhostB', fno) IN ANSWER RelA CHOOSE 1";
        co.submit_sql("b", bridge).unwrap();
        let merged = co.shard_of_relation("RelA").unwrap();
        assert_eq!(merged, co.shard_of_relation("RelM").unwrap());
        co.check_routing_invariants().unwrap();

        // after the rebalance the index travelled with the entries:
        // the merged shard finds X's head, every other shard finds none
        for (i, shard) in co.shards.iter().enumerate() {
            let state = shard.state.lock();
            let found = state.registry.candidates_for(&probe_x).len();
            if i == merged {
                assert_eq!(
                    found, 1,
                    "migrated head must be indexed on the merged shard"
                );
            } else {
                assert_eq!(found, 0, "no stale index entries on shard {i}");
            }
        }

        // retract: cancelling X must drop it from the index on the
        // merged shard too
        co.cancel(xid).unwrap();
        {
            let state = co.shards[merged].state.lock();
            assert!(state.registry.candidates_for(&probe_x).is_empty());
        }
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn repeated_merges_keep_membership_exact() {
        // chain merges: RelC0..RelC3 born separately, then bridges fold
        // them left to right; membership and routing stay consistent
        let co = ShardedCoordinator::with_config(
            flights_db(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        );
        for k in 0..4 {
            co.submit_sql(
                "w",
                &pair_sql_on(&format!("RelC{k}"), &format!("W{k}"), "Ghost"),
            )
            .unwrap();
        }
        for k in 0..3 {
            let bridge = format!(
                "SELECT 'B{k}', fno INTO ANSWER RelC{k}, 'B{k}', fno INTO ANSWER RelC{next} \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('GhostB{k}', fno) IN ANSWER RelC{k} CHOOSE 1",
                next = k + 1
            );
            co.submit_sql("b", &bridge).unwrap();
            co.check_routing_invariants().unwrap();
        }
        let home = co.shard_of_relation("RelC0").unwrap();
        for k in 1..4 {
            assert_eq!(co.shard_of_relation(&format!("RelC{k}")).unwrap(), home);
        }
        // all 7 pending queries live together now
        assert_eq!(co.pending_per_shard()[home], 7);
        assert_eq!(co.pending_count(), 7);
    }

    /// Two equal-size components on different shards, bridged by one
    /// query: the tie goes to the lower shard index whichever component
    /// the router saw first, the other component migrates, and the
    /// merged membership is exactly both components plus the bridge.
    #[test]
    fn tied_merge_migrates_the_higher_shard_component() {
        // (relations born before the pair, lower-shard relation,
        // higher-shard relation): first the tie winner is the older
        // node, then a younger node whose shard wrapped around to 0
        let cases: [(&[&str], &str, &str); 2] = [
            (&[], "RelA", "RelB"),
            (&["RelP", "RelQ", "RelR"], "RelT", "RelS"),
        ];
        for (born, low, high) in cases {
            let co = ShardedCoordinator::with_config(
                flights_db(),
                ShardedConfig {
                    shards: 4,
                    ..Default::default()
                },
            );
            for rel in born {
                co.submit_sql("w", &pair_sql_on(rel, "W", "Ghost")).unwrap();
            }
            let on = |rel: &str| -> Vec<QueryId> {
                (0..2)
                    .map(|k| {
                        co.submit_sql("w", &pair_sql_on(rel, &format!("{rel}{k}"), "Ghost"))
                            .unwrap()
                            .id()
                    })
                    .collect()
            };
            // submit the higher-shard relation's pair first when it was
            // born first, so neither node order nor arrival order
            // decides the winner
            let (mut lows, highs) = if born.is_empty() {
                (on(low), on(high))
            } else {
                let highs = on(high);
                (on(low), highs)
            };
            let (s_low, s_high) = (
                co.shard_of_relation(low).unwrap(),
                co.shard_of_relation(high).unwrap(),
            );
            assert!(s_low < s_high, "{low} on {s_low}, {high} on {s_high}");
            let before = co.pending_per_shard()[s_low];

            let bridge = format!(
                "SELECT 'Z', fno INTO ANSWER {low}, 'Z', fno INTO ANSWER {high} \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('GhostZ', fno) IN ANSWER {low} CHOOSE 1"
            );
            let z = co.submit_sql("z", &bridge).unwrap().id();

            assert_eq!(
                co.shard_of_relation(low),
                Some(s_low),
                "the tie keeps the lower shard"
            );
            assert_eq!(
                co.shard_of_relation(high),
                Some(s_low),
                "{high} moved with its component"
            );
            assert_eq!(
                co.pending_per_shard()[s_high],
                0,
                "the loser's queries migrated"
            );
            assert_eq!(co.pending_per_shard()[s_low], before + 3);
            lows.extend(highs);
            lows.push(z);
            let expected: HashSet<QueryId> = lows.into_iter().collect();
            {
                let mut router = co.router.lock();
                let node = router.rel_node[&low.to_ascii_lowercase()];
                let root = router.find(node);
                assert_eq!(router.members[root], expected, "exact merged membership");
            }
            co.check_routing_invariants().unwrap();
        }
    }

    /// The sync ticket is a view over the future's slot and keeps the
    /// channel semantics it replaced: the answer once, then a
    /// disconnect; a disconnect (never an answer) for cancel, expiry
    /// and supersession; blocking receives that wake on a cross-thread
    /// completion; and only the newest handle answered after a reattach.
    #[test]
    fn ticket_view_behaves_like_a_channel() {
        use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
        use std::time::Duration;

        let co = Arc::new(ShardedCoordinator::single(
            flights_db(),
            CoordinatorConfig::default(),
        ));
        let pend = |owner: &str, me: &str, friend: &str, opts: SubmitOptions| -> Ticket {
            match co
                .submit_sql_with(owner, &pair_sql_on("Reservation", me, friend), opts)
                .unwrap()
            {
                Submission::Pending(t) => t,
                Submission::Answered(_) => panic!("{me} must wait"),
            }
        };

        // answered: Ok exactly once, then Disconnected
        let kramer = pend("kramer", "Kramer", "Jerry", SubmitOptions::default());
        assert_eq!(kramer.receiver.try_recv(), Err(TryRecvError::Empty));
        co.submit_sql("jerry", &pair_sql_on("Reservation", "Jerry", "Kramer"))
            .unwrap();
        let n = kramer.receiver.try_recv().expect("answered");
        assert_eq!(n.id, kramer.id);
        assert_eq!(kramer.receiver.try_recv(), Err(TryRecvError::Disconnected));
        assert!(kramer.receiver.recv().is_err(), "the answer is taken");

        // cancel, expiry and a superseding async reattach disconnect
        let cancelled = pend("a", "A", "GhostA", SubmitOptions::default());
        co.cancel(cancelled.id).unwrap();
        assert_eq!(
            cancelled.receiver.try_recv(),
            Err(TryRecvError::Disconnected)
        );
        let expired = pend("b", "B", "GhostB", SubmitOptions::with_deadline(10));
        assert_eq!(co.expire_due(10), vec![expired.id]);
        assert_eq!(
            expired.receiver.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
        let superseded = pend("c", "C", "GhostC", SubmitOptions::default());
        let fresh = co.reattach_async("c");
        assert_eq!(fresh.len(), 1);
        assert_eq!(
            superseded.receiver.try_recv(),
            Err(TryRecvError::Disconnected)
        );

        // recv_timeout wakes when another thread's submission closes
        // the pair; in flight it times out
        let elaine = pend("elaine", "Elaine", "George", SubmitOptions::default());
        assert_eq!(
            elaine.receiver.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        let closer = {
            let co = Arc::clone(&co);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                co.submit_sql("george", &pair_sql_on("Reservation", "George", "Elaine"))
                    .unwrap()
            })
        };
        let n = elaine
            .receiver
            .recv_timeout(Duration::from_secs(10))
            .expect("woken by the closing arrival");
        assert_eq!(n.id, elaine.id);
        assert!(matches!(closer.join().unwrap(), Submission::Answered(_)));

        // after a reattach only the newest handle gets the answer
        let old = pend("newman", "Newman", "Puddy", SubmitOptions::default());
        let mut tickets = co.reattach("newman");
        assert_eq!(tickets.len(), 1);
        let newest = tickets.pop().unwrap();
        assert_eq!(newest.id, old.id);
        co.submit_sql("puddy", &pair_sql_on("Reservation", "Puddy", "Newman"))
            .unwrap();
        assert_eq!(old.receiver.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(newest.receiver.try_recv().map(|n| n.id), Ok(old.id));

        // dropping the coordinator with the query in flight disconnects
        // a blocked receiver, like a dropped channel sender
        let orphan = pend("d", "D", "GhostD", SubmitOptions::default());
        let waiter = std::thread::spawn(move || orphan.receiver.recv());
        std::thread::sleep(Duration::from_millis(20));
        drop(fresh);
        drop(co);
        assert!(waiter.join().unwrap().is_err());
    }

    #[test]
    fn unsafe_queries_are_rejected_and_counted() {
        let co = ShardedCoordinator::new(flights_db());
        let err = co
            .submit_sql("x", "SELECT 'X', v INTO ANSWER R CHOOSE 1")
            .unwrap_err();
        assert!(matches!(err, CoreError::Unsafe(_)));
        assert_eq!(co.stats().rejected_unsafe, 1);
        assert_eq!(co.pending_count(), 0);
    }

    #[test]
    fn cancel_and_cancel_owner() {
        let co = ShardedCoordinator::new(flights_db());
        let s = co
            .submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();
        co.submit_sql("kramer", &pair_sql_on("Res2", "Kramer", "Jerry2"))
            .unwrap();
        co.submit_sql("elaine", &pair_sql_on("Res3", "Elaine", "Ghost"))
            .unwrap();
        co.cancel(s.id()).unwrap();
        assert!(matches!(co.cancel(s.id()), Err(CoreError::UnknownQuery(_))));
        assert_eq!(co.cancel_owner("kramer"), 1);
        assert_eq!(co.pending_count(), 1);
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn retry_all_matches_after_data_arrives() {
        let db = Database::new();
        run_sql(
            &db,
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
        )
        .unwrap();
        let co = ShardedCoordinator::new(db.clone());
        co.submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();
        co.submit_sql("jerry", &pair_sql_on("Reservation", "Jerry", "Kramer"))
            .unwrap();
        assert!(co.retry_all().unwrap().is_empty());
        run_sql(&db, "INSERT INTO Flights VALUES (122, 'Paris')").unwrap();
        assert_eq!(co.retry_all().unwrap().len(), 2);
        assert_eq!(co.pending_count(), 0);
        co.check_routing_invariants().unwrap();
    }

    fn flights_db_wal() -> Database {
        let db = Database::with_wal(Wal::in_memory());
        for sql in [
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
            "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris'), \
             (136, 'Rome')",
        ] {
            run_sql(&db, sql).unwrap();
        }
        db
    }

    #[test]
    fn recover_restores_shards_router_and_completes_pairs() {
        let db = flights_db_wal();
        let co = ShardedCoordinator::new(db.clone());
        // first halves on 4 distinct relations + one matched pair
        for k in 0..4 {
            co.submit_sql(
                &format!("l{k}"),
                &pair_sql_on(&format!("Res{k}"), &format!("L{k}"), &format!("R{k}")),
            )
            .unwrap();
        }
        co.submit_sql("m1", &pair_sql_on("Done", "M1", "M2"))
            .unwrap();
        co.submit_sql("m2", &pair_sql_on("Done", "M2", "M1"))
            .unwrap();
        let bytes = db.wal_bytes().unwrap();
        drop(co); // kill

        let (co2, report) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        assert_eq!(report.restored_pending, 4, "the matched pair is gone");
        assert_eq!(co2.pending_count(), 4);
        co2.check_routing_invariants().unwrap();
        assert_eq!(co2.answers("Done").len(), 2, "pre-crash answers replayed");

        // reattach before the partners arrive, then close every pair
        let tickets: Vec<Ticket> = (0..4)
            .flat_map(|k| co2.reattach(&format!("l{k}")))
            .collect();
        assert_eq!(tickets.len(), 4);
        for k in 0..4 {
            let s = co2
                .submit_sql(
                    &format!("r{k}"),
                    &pair_sql_on(&format!("Res{k}"), &format!("R{k}"), &format!("L{k}")),
                )
                .unwrap();
            assert!(matches!(s, Submission::Answered(_)), "pair {k} closes");
        }
        for t in tickets {
            t.receiver.try_recv().expect("reattached waiter notified");
        }
        assert_eq!(co2.pending_count(), 0);
        co2.check_routing_invariants().unwrap();
    }

    #[test]
    fn recover_rematches_logged_but_unmatched_arrivals() {
        // a log holding two matchable registrations whose match never
        // committed (crash between the registration group-commit and
        // the match apply): the recovery sweep completes it
        let db = flights_db_wal();
        for (qid, me, friend, seq) in [(1, "X", "Y", 1), (2, "Y", "X", 2)] {
            db.append_coordination(
                &CoordEvent::QueryRegistered {
                    owner: me.to_lowercase(),
                    sql: pair_sql_on("Res", me, friend),
                    qid: QueryId(qid),
                    seq,
                    deadline: None,
                    stamp: None,
                }
                .encode(),
            )
            .unwrap();
        }
        let bytes = db.wal_bytes().unwrap();
        drop(db);

        let (co, report) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        assert_eq!(report.restored_pending, 2);
        assert_eq!(report.rematched_groups, 1);
        assert_eq!(co.pending_count(), 0);
        assert_eq!(co.answers("Res").len(), 2);
        co.check_routing_invariants().unwrap();
        // the recovery-sweep match was itself logged: recovering again
        // finds nothing pending and the same answers
        let bytes = co.db().wal_bytes().unwrap();
        drop(co);
        let (co2, report2) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        assert_eq!(report2.restored_pending, 0);
        assert_eq!(co2.answers("Res").len(), 2);
    }

    #[test]
    fn expire_before_sweeps_old_requests_across_shards() {
        let co = ShardedCoordinator::new(flights_db());
        co.submit_sql("a", &pair_sql_on("Res0", "A", "GhostA"))
            .unwrap();
        co.submit_sql("b", &pair_sql_on("Res1", "B", "GhostB"))
            .unwrap();
        let cutoff = co.current_seq();
        co.submit_sql("c", &pair_sql_on("Res2", "C", "GhostC"))
            .unwrap();
        let expired = co.expire_before(cutoff);
        assert_eq!(expired.len(), 1);
        assert_eq!(co.pending_count(), 2);
        assert_eq!(co.expire_before(u64::MAX).len(), 2);
        assert_eq!(co.pending_count(), 0);
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn expirations_and_cancels_survive_recovery() {
        let db = flights_db_wal();
        let co = ShardedCoordinator::new(db.clone());
        co.submit_sql("a", &pair_sql_on("Res0", "A", "GhostA"))
            .unwrap();
        let b = co
            .submit_sql("b", &pair_sql_on("Res1", "B", "GhostB"))
            .unwrap();
        co.submit_sql("c", &pair_sql_on("Res2", "C", "GhostC"))
            .unwrap();
        co.cancel(b.id()).unwrap();
        let expired = co.expire_before(2); // sweeps only "a" (seq 1)
        assert_eq!(expired.len(), 1);
        let bytes = db.wal_bytes().unwrap();
        drop(co);
        let (co2, _) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        let snap = co2.pending_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].owner, "c");
    }

    #[test]
    fn checkpoint_compacts_the_coordination_log() {
        let db = flights_db_wal();
        let co = ShardedCoordinator::new(db.clone());
        // churn: 20 matched pairs plus 3 survivors
        for p in 0..20 {
            co.submit_sql("l", &pair_sql_on("Res", &format!("L{p}"), &format!("R{p}")))
                .unwrap();
            co.submit_sql("r", &pair_sql_on("Res", &format!("R{p}"), &format!("L{p}")))
                .unwrap();
        }
        for k in 0..3 {
            co.submit_sql(
                &format!("s{k}"),
                &pair_sql_on(&format!("Surv{k}"), &format!("S{k}"), "Ghost"),
            )
            .unwrap();
        }
        let before = db.wal_bytes().unwrap().len();
        co.checkpoint().unwrap();
        let after = db.wal_bytes().unwrap().len();
        assert!(
            after < before / 2,
            "checkpoint must shrink the log: {before} -> {after}"
        );
        // recovery from the compacted log reproduces the state
        let bytes = db.wal_bytes().unwrap();
        drop(co);
        let (co2, report) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        assert_eq!(report.restored_pending, 3);
        assert_eq!(co2.pending_count(), 3);
        assert_eq!(co2.answers("Res").len(), 40);
        co2.check_routing_invariants().unwrap();
    }

    #[test]
    fn checkpoint_preserves_the_id_and_seq_watermark() {
        // the survivor is submitted FIRST, so the matched pair holds
        // the highest qids/seqs — which the checkpoint compacts away.
        // Recovery must still resume allocation above them.
        let db = flights_db_wal();
        let co = ShardedCoordinator::new(db.clone());
        let survivor = co
            .submit_sql("s", &pair_sql_on("Surv", "S", "Ghost"))
            .unwrap();
        co.submit_sql("m1", &pair_sql_on("Done", "M1", "M2"))
            .unwrap();
        co.submit_sql("m2", &pair_sql_on("Done", "M2", "M1"))
            .unwrap(); // matches: qids 2,3 retired
        let seq_before = co.current_seq();
        co.checkpoint().unwrap();
        let bytes = db.wal_bytes().unwrap();
        drop(co);

        let (co2, _) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        assert_eq!(
            co2.current_seq(),
            seq_before,
            "sequence clock must not regress past handed-out values"
        );
        let next = co2
            .submit_sql("n", &pair_sql_on("New", "N", "Ghost"))
            .unwrap();
        assert!(
            next.id().0 > 3,
            "fresh ids must not collide with pre-crash ids (got {})",
            next.id().0
        );
        // the pre-crash client's handle still refers to its own query
        co2.cancel(survivor.id()).unwrap();
        assert_eq!(co2.pending_count(), 1);
    }

    #[test]
    fn lock_free_monitors_track_state() {
        let co = ShardedCoordinator::new(flights_db());
        co.submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();
        assert_eq!(co.pending_count(), 1);
        assert_eq!(co.pending_per_shard().iter().sum::<usize>(), 1);
        assert_eq!(co.stats().submitted, 1);
        co.submit_sql("jerry", &pair_sql_on("Reservation", "Jerry", "Kramer"))
            .unwrap();
        assert_eq!(co.pending_count(), 0);
        let stats = co.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.answered, 2);
        assert_eq!(stats.groups_matched, 1);
        assert!(stats.matching_nanos > 0);
    }

    #[test]
    fn async_batch_resolves_futures_across_shards() {
        use crate::future::WaiterSet;

        let co = ShardedCoordinator::new(flights_db());
        // 4 pairs over 4 relations: first halves pend, second halves
        // close each group during the same batch drain
        let requests: Vec<(String, String)> = (0..8)
            .map(|k| {
                let rel = format!("Res{}", k % 4);
                let (me, friend) = if k < 4 {
                    (format!("L{k}"), format!("R{k}"))
                } else {
                    (format!("R{}", k - 4), format!("L{}", k - 4))
                };
                (me.clone(), pair_sql_on(&rel, &me, &friend))
            })
            .collect();
        let mut set = WaiterSet::new();
        for outcome in co.submit_batch_sql_async(&requests) {
            set.insert(outcome.expect("batch queries are safe"));
        }
        assert_eq!(set.len(), 8);
        let completed = set.drain_timeout(std::time::Duration::from_secs(5));
        assert_eq!(completed.len(), 8, "every future resolves");
        assert!(set.is_empty());
        assert!(completed
            .iter()
            .all(|(_, o)| matches!(o, crate::future::CoordinationOutcome::Answered(_))));
        assert_eq!(co.pending_count(), 0);
        co.check_routing_invariants().unwrap();
    }

    /// Regression (async-submission PR, satellite 1): sharded `cancel`
    /// and `expire_before` must wake parked future waiters with their
    /// terminal outcomes.
    #[test]
    fn sharded_cancel_and_expire_wake_parked_futures() {
        use crate::future::CoordinationOutcome;

        let co = ShardedCoordinator::new(flights_db());
        let mut a = co
            .submit_sql_async("a", &pair_sql_on("Res0", "A", "GhostA"))
            .unwrap();
        let mut b = co
            .submit_sql_async("b", &pair_sql_on("Res1", "B", "GhostB"))
            .unwrap();
        let mut c = co
            .submit_sql_async("c", &pair_sql_on("Res2", "C", "GhostC"))
            .unwrap();
        co.cancel(a.id()).unwrap();
        assert_eq!(
            a.wait_timeout(std::time::Duration::from_secs(5)),
            Some(CoordinationOutcome::Cancelled)
        );
        assert_eq!(co.cancel_owner("b"), 1);
        assert_eq!(b.try_take(), Some(CoordinationOutcome::Cancelled));
        assert_eq!(co.expire_before(u64::MAX).len(), 1);
        assert_eq!(c.try_take(), Some(CoordinationOutcome::Expired));
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn migrated_future_still_resolves_after_component_merge() {
        use crate::future::CoordinationOutcome;

        let co = ShardedCoordinator::with_config(
            flights_db(),
            ShardedConfig {
                shards: 4,
                ..Default::default()
            },
        );
        // X waits on RelA/RelB; Y's bridge merges in RelC and completes
        // the pair — X's future must survive the waiter migration
        let x = "SELECT 'X', fno INTO ANSWER RelA \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('Y', fno) IN ANSWER RelB CHOOSE 1";
        let mut fx = co.submit_sql_async("x", x).unwrap();
        co.submit_sql("noise", &pair_sql_on("RelC", "N", "GhostN"))
            .unwrap();
        let y = "SELECT 'Y', fno INTO ANSWER RelB, 'Y', fno INTO ANSWER RelC \
                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                 AND ('X', fno) IN ANSWER RelA CHOOSE 1";
        let sub_y = co.submit_sql("y", y).unwrap();
        assert!(matches!(sub_y, Submission::Answered(_)));
        assert!(matches!(
            fx.wait_timeout(std::time::Duration::from_secs(5)),
            Some(CoordinationOutcome::Answered(_))
        ));
        co.check_routing_invariants().unwrap();
    }

    #[test]
    fn recover_then_reattach_async_resumes_futures() {
        let db = flights_db_wal();
        let co = ShardedCoordinator::new(db.clone());
        let f0 = co
            .submit_sql_async("kramer", &pair_sql_on("Res0", "Kramer", "Jerry"))
            .unwrap();
        let f1 = co
            .submit_sql_async("kramer", &pair_sql_on("Res1", "Kramer", "Elaine"))
            .unwrap();
        let bytes = db.wal_bytes().unwrap();
        drop((f0, f1)); // the front-end dies with its futures
        drop(co);

        let (co2, report) =
            ShardedCoordinator::recover(Wal::from_bytes(bytes), ShardedConfig::default()).unwrap();
        assert_eq!(report.restored_pending, 2);
        let mut futures = co2.reattach_async("kramer");
        assert_eq!(futures.len(), 2);
        co2.submit_sql("jerry", &pair_sql_on("Res0", "Jerry", "Kramer"))
            .unwrap();
        co2.submit_sql("elaine", &pair_sql_on("Res1", "Elaine", "Kramer"))
            .unwrap();
        for f in &mut futures {
            let outcome = f
                .wait_timeout(std::time::Duration::from_secs(5))
                .expect("reattached future resolves");
            assert!(outcome.answered().is_some());
        }
        assert_eq!(co2.pending_count(), 0);
    }

    #[test]
    fn apply_hook_runs_in_the_match_transaction() {
        let db = flights_db();
        run_sql(&db, "CREATE TABLE Log (qid INT)").unwrap();
        let co = ShardedCoordinator::new(db.clone());
        co.set_apply_hook(Arc::new(|txn, m| {
            for &qid in &m.members {
                txn.insert(
                    "Log",
                    Tuple::new(vec![youtopia_storage::Value::Int(qid.0 as i64)]),
                )?;
            }
            Ok(())
        }));
        co.submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();
        co.submit_sql("jerry", &pair_sql_on("Reservation", "Jerry", "Kramer"))
            .unwrap();
        assert_eq!(db.read().table("Log").unwrap().len(), 2);
    }

    #[test]
    fn checkpoint_policy_due_semantics() {
        let off = CheckpointPolicy::default();
        assert!(!off.due(u64::MAX, u64::MAX), "default policy never fires");

        let by_size = CheckpointPolicy {
            max_wal_bytes: 100,
            max_age_millis: 0,
        };
        assert!(!by_size.due(99, u64::MAX), "age leg disabled at 0");
        assert!(by_size.due(100, 0));

        let by_age = CheckpointPolicy {
            max_wal_bytes: 0,
            max_age_millis: 50,
        };
        assert!(!by_age.due(u64::MAX, 49), "size leg disabled at 0");
        assert!(by_age.due(0, 50));
    }

    /// The age leg of [`CheckpointPolicy`] fires from the sweeper tick
    /// alone — no group commit involved — so a quiet coordinator still
    /// compacts its WAL on schedule.
    #[test]
    fn sweep_tick_checkpoints_by_age() {
        use crate::lifecycle::MockClock;

        let db = flights_db_wal();
        let clock = Arc::new(MockClock::new(1_000));
        let config = ShardedConfig {
            checkpoint: CheckpointPolicy {
                max_wal_bytes: 0,
                max_age_millis: 5_000,
            },
            ..Default::default()
        };
        let co = ShardedCoordinator::with_clock(db.clone(), config, clock.clone());
        co.submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();

        // young enough: the tick is a no-op
        co.sweep_tick(clock.now_millis());
        let stats = co.stats();
        assert_eq!(stats.auto_checkpoints, 0);
        assert!(stats.wal_bytes_since_checkpoint > 0, "submit hit the log");

        // past the age bound: the tick checkpoints and resets gauges
        clock.advance(5_000);
        co.sweep_tick(clock.now_millis());
        let stats = co.stats();
        assert_eq!(stats.auto_checkpoints, 1);
        assert_eq!(stats.wal_bytes_since_checkpoint, 0);
        assert_eq!(stats.checkpoint_age_millis, 0);

        // the compacted log still carries the surviving registration
        let (co2, report) = ShardedCoordinator::recover(
            Wal::from_bytes(db.wal_bytes().unwrap()),
            ShardedConfig::default(),
        )
        .unwrap();
        assert_eq!(report.restored_pending, 1);
        assert_eq!(co2.pending_count(), 1);

        // another tick inside the fresh window does nothing
        co.sweep_tick(clock.now_millis());
        assert_eq!(co.stats().auto_checkpoints, 1);
    }

    /// An idle coordinator's lock-free gauge mirrors can go stale (no
    /// drain releases a shard lock to republish them); the sweeper tick
    /// must refresh every shard's monitor from its true registry.
    #[test]
    fn sweep_tick_republishes_stale_monitor_gauges() {
        let co = ShardedCoordinator::new(flights_db());
        co.submit_sql("kramer", &pair_sql_on("Reservation", "Kramer", "Jerry"))
            .unwrap();
        assert_eq!(co.pending_count(), 1);

        // simulate a stale mirror: clobber every shard's published
        // gauges (the test module sees the private atomics)
        for slot in &co.shards {
            slot.monitor.pending.store(99, Ordering::Relaxed);
            slot.monitor.min_deadline.store(0, Ordering::Relaxed);
        }
        assert_ne!(co.pending_count(), 1, "reads serve the stale mirror");

        co.sweep_tick(0);
        assert_eq!(co.pending_count(), 1, "tick republished the registry");
        assert_eq!(co.pending_per_shard().iter().sum::<usize>(), 1);
        let min = co
            .shards
            .iter()
            .map(|s| s.monitor.min_deadline.load(Ordering::Relaxed))
            .min()
            .unwrap();
        assert_eq!(min, u64::MAX, "no deadline set: sentinel restored");
    }

    /// The one-shard coordinator: the paper's serial algorithm, one
    /// matching domain over the whole pending registry.
    mod single_shard {
        use std::collections::HashMap;

        use super::*;
        use crate::coordinator::MatcherKind;
        use crate::safety::SafetyMode;
        use youtopia_storage::Value;

        fn pair_sql(me: &str, friend: &str) -> String {
            pair_sql_on("Reservation", me, friend)
        }

        fn one_shard() -> ShardedConfig {
            ShardedConfig {
                shards: 1,
                ..Default::default()
            }
        }

        #[test]
        fn paper_walkthrough_end_to_end() {
            let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
            // Kramer submits; his constraint cannot be satisfied yet.
            let kramer = co
                .submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            let Submission::Pending(ticket) = kramer else {
                panic!("kramer must wait")
            };
            assert_eq!(co.pending_count(), 1);

            // Jerry submits the symmetric query: both answered at once.
            let jerry = co
                .submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
                .unwrap();
            let Submission::Answered(jn) = jerry else {
                panic!("jerry completes the group")
            };
            let kn = ticket.receiver.try_recv().expect("kramer is notified");

            assert_eq!(jn.group, kn.group);
            assert_eq!(jn.answers[0].0, "Reservation");
            let j_fno = &jn.answers[0].1.values()[1];
            let k_fno = &kn.answers[0].1.values()[1];
            assert_eq!(j_fno, k_fno);
            assert!([122i64, 123, 134].contains(&j_fno.as_int().unwrap()));

            // the answer relation now holds both tuples
            assert_eq!(co.answers("Reservation").len(), 2);
            assert_eq!(co.pending_count(), 0);

            let stats = co.stats();
            assert_eq!(stats.submitted, 2);
            assert_eq!(stats.answered, 2);
            assert_eq!(stats.groups_matched, 1);
        }

        #[test]
        fn unsafe_queries_are_rejected_and_counted() {
            let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
            let err = co
                .submit_sql("x", "SELECT 'X', v INTO ANSWER R CHOOSE 1")
                .unwrap_err();
            assert!(matches!(err, CoreError::Unsafe(_)));
            assert_eq!(co.stats().rejected_unsafe, 1);
            assert_eq!(co.pending_count(), 0);
        }

        #[test]
        fn strict_mode_rejects_constraint_bound_vars() {
            let config = CoordinatorConfig {
                safety: SafetyMode::Strict,
                ..Default::default()
            };
            let co = ShardedCoordinator::single(flights_db(), config);
            let err = co
                .submit_sql(
                    "k",
                    "SELECT 'K', fno INTO ANSWER R WHERE ('J', fno) IN ANSWER R CHOOSE 1",
                )
                .unwrap_err();
            assert!(matches!(err, CoreError::Unsafe(_)));
        }

        #[test]
        fn cancel_removes_pending_query() {
            let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
            let s = co
                .submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            let id = s.id();
            co.cancel(id).unwrap();
            assert_eq!(co.pending_count(), 0);
            assert!(matches!(co.cancel(id), Err(CoreError::UnknownQuery(_))));
            // Jerry now waits forever — no partner
            let s2 = co
                .submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
                .unwrap();
            assert!(matches!(s2, Submission::Pending(_)));
        }

        #[test]
        fn retry_all_matches_after_data_arrives() {
            let db = Database::new();
            run_sql(
                &db,
                "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
            )
            .unwrap();
            let co = ShardedCoordinator::single(db.clone(), CoordinatorConfig::default());
            // no Paris flights yet: the pair cannot ground
            let t1 = co
                .submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            let t2 = co
                .submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
                .unwrap();
            assert!(matches!(t1, Submission::Pending(_)));
            assert!(matches!(t2, Submission::Pending(_)));
            assert!(co.retry_all().unwrap().is_empty());

            run_sql(&db, "INSERT INTO Flights VALUES (122, 'Paris')").unwrap();
            let notifications = co.retry_all().unwrap();
            assert_eq!(notifications.len(), 2);
            assert_eq!(co.pending_count(), 0);
        }

        #[test]
        fn pending_snapshot_shows_sql_and_ir() {
            let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
            co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            let snap = co.pending_snapshot();
            assert_eq!(snap.len(), 1);
            assert_eq!(snap[0].owner, "kramer");
            assert!(snap[0].sql.contains("INTO ANSWER Reservation"));
            assert!(snap[0].ir.contains("Reservation('Kramer'"));
        }

        #[test]
        fn apply_hook_runs_in_the_match_transaction() {
            let db = flights_db();
            run_sql(&db, "CREATE TABLE Log (qid INT)").unwrap();
            let co = ShardedCoordinator::single(db.clone(), CoordinatorConfig::default());
            co.set_apply_hook(Arc::new(|txn, m| {
                for &qid in &m.members {
                    txn.insert("Log", Tuple::new(vec![Value::Int(qid.0 as i64)]))?;
                }
                Ok(())
            }));
            co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            co.submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
                .unwrap();
            let read = db.read();
            assert_eq!(read.table("Log").unwrap().len(), 2);
        }

        #[test]
        fn failing_hook_reinstates_the_group() {
            let db = flights_db();
            let co = ShardedCoordinator::single(db.clone(), CoordinatorConfig::default());
            co.set_apply_hook(Arc::new(|_, _| {
                Err(youtopia_storage::StorageError::Internal("no seats".into()))
            }));
            co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            let err = co
                .submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
                .unwrap_err();
            assert!(matches!(err, CoreError::Storage(_)));
            // both queries are still pending; no answers were written
            assert_eq!(co.pending_count(), 2);
            assert!(co.answers("Reservation").is_empty());
            assert_eq!(co.stats().groups_matched, 0);
        }

        #[test]
        fn pre_created_answer_table_is_reused() {
            let db = flights_db();
            run_sql(&db, "CREATE TABLE Reservation (traveler STRING, fno INT)").unwrap();
            let co = ShardedCoordinator::single(db.clone(), CoordinatorConfig::default());
            co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            co.submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
                .unwrap();
            let read = db.read();
            let t = read.table("Reservation").unwrap();
            assert_eq!(t.len(), 2);
            assert_eq!(t.schema().columns()[0].name, "traveler");
        }

        #[test]
        fn naive_matcher_config_works_end_to_end() {
            let config = CoordinatorConfig {
                matcher: MatcherKind::Naive,
                ..Default::default()
            };
            let co = ShardedCoordinator::single(flights_db(), config);
            co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            let s = co
                .submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
                .unwrap();
            assert!(matches!(s, Submission::Answered(_)));
            assert!(co.stats().match_work.subsets_tested > 0);
        }

        #[test]
        fn concurrent_submissions_from_threads() {
            let co = std::sync::Arc::new(ShardedCoordinator::single(
                flights_db(),
                CoordinatorConfig::default(),
            ));
            let mut handles = Vec::new();
            for pair in 0..8 {
                for side in 0..2 {
                    let co = co.clone();
                    handles.push(std::thread::spawn(move || {
                        let (me, friend) = if side == 0 {
                            (format!("L{pair}"), format!("R{pair}"))
                        } else {
                            (format!("R{pair}"), format!("L{pair}"))
                        };
                        let sql = format!(
                            "SELECT '{me}', fno INTO ANSWER Reservation \
                             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                             AND ('{friend}', fno) IN ANSWER Reservation CHOOSE 1"
                        );
                        match co.submit_sql(&me, &sql).unwrap() {
                            Submission::Answered(n) => n,
                            Submission::Pending(t) => t
                                .receiver
                                .recv_timeout(std::time::Duration::from_secs(5))
                                .unwrap(),
                        }
                    }));
                }
            }
            let notifications: Vec<MatchNotification> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(notifications.len(), 16);
            assert_eq!(co.pending_count(), 0);
            assert_eq!(co.stats().groups_matched, 8);
            // each pair shares a flight
            let by_id: HashMap<QueryId, &MatchNotification> =
                notifications.iter().map(|n| (n.id, n)).collect();
            for n in &notifications {
                assert_eq!(n.group.len(), 2);
                let partner = n.group.iter().find(|&&g| g != n.id).unwrap();
                let pn = by_id[partner];
                assert_eq!(n.answers[0].1.values()[1], pn.answers[0].1.values()[1]);
            }
        }

        #[test]
        fn cancel_owner_withdraws_all_of_a_users_requests() {
            let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
            co.submit_sql("kramer", &pair_sql("Kramer", "Ghost1"))
                .unwrap();
            co.submit_sql("kramer", &pair_sql("Kramer", "Ghost2"))
                .unwrap();
            co.submit_sql("elaine", &pair_sql("Elaine", "Ghost3"))
                .unwrap();
            assert_eq!(co.cancel_owner("kramer"), 2);
            assert_eq!(co.pending_count(), 1);
            assert_eq!(co.cancel_owner("kramer"), 0);
        }

        #[test]
        fn expire_before_sweeps_old_requests() {
            let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
            co.submit_sql("a", &pair_sql("A", "GhostA")).unwrap();
            co.submit_sql("b", &pair_sql("B", "GhostB")).unwrap();
            let cutoff = co.current_seq(); // == 2
            co.submit_sql("c", &pair_sql("C", "GhostC")).unwrap();
            let expired = co.expire_before(cutoff);
            assert_eq!(expired.len(), 1, "only the first submission predates seq 2");
            assert_eq!(co.pending_count(), 2);
            // expiring everything
            let expired = co.expire_before(u64::MAX);
            assert_eq!(expired.len(), 2);
            assert_eq!(co.pending_count(), 0);
        }

        #[test]
        fn recover_restores_pending_and_completes_the_pair() {
            let db = flights_db_wal();
            let co = ShardedCoordinator::single(db.clone(), CoordinatorConfig::default());
            co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            let bytes = db.wal_bytes().unwrap();
            drop(co); // "kill" the process; only the log survives

            let (co2, report) =
                ShardedCoordinator::recover(youtopia_storage::Wal::from_bytes(bytes), one_shard())
                    .unwrap();
            assert_eq!(report.restored_pending, 1);
            assert_eq!(co2.pending_count(), 1);
            let snap = co2.pending_snapshot();
            assert_eq!(snap[0].owner, "kramer");

            // the reconnecting owner gets a fresh ticket, and the pair
            // completes exactly as it would have without the crash
            let tickets = co2.reattach("kramer");
            assert_eq!(tickets.len(), 1);
            let jerry = co2
                .submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
                .unwrap();
            assert!(matches!(jerry, Submission::Answered(_)));
            tickets[0]
                .receiver
                .try_recv()
                .expect("reattached waiter is notified");
            assert_eq!(co2.answers("Reservation").len(), 2);
        }

        #[test]
        fn recover_drops_matched_and_cancelled_queries() {
            let db = flights_db_wal();
            let co = ShardedCoordinator::single(db.clone(), CoordinatorConfig::default());
            co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            co.submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
                .unwrap(); // matches
            let c = co.submit_sql("a", &pair_sql("A", "GhostA")).unwrap();
            co.cancel(c.id()).unwrap();
            co.submit_sql("b", &pair_sql("B", "GhostB")).unwrap(); // survives
            co.expire_before(0); // no-op sweep, logs nothing harmful
            let seq_before = co.current_seq();
            let bytes = db.wal_bytes().unwrap();
            drop(co);

            let (co2, report) =
                ShardedCoordinator::recover(youtopia_storage::Wal::from_bytes(bytes), one_shard())
                    .unwrap();
            assert_eq!(report.restored_pending, 1);
            let snap = co2.pending_snapshot();
            assert_eq!(snap.len(), 1);
            assert_eq!(snap[0].owner, "b");
            // answers from the pre-crash match were replayed from storage
            assert_eq!(co2.answers("Reservation").len(), 2);
            // id/seq allocation resumes after the watermark
            assert_eq!(co2.current_seq(), seq_before);
            let next = co2.submit_sql("c", &pair_sql("C", "GhostC")).unwrap();
            assert!(next.id().0 > snap[0].id.0);
        }

        #[test]
        fn recover_rematches_logged_but_unmatched_arrivals() {
            // craft a log whose registrations form a completable pair that
            // never matched (the crash hit between the registration commits
            // and the match apply)
            let db = flights_db_wal();
            for (qid, owner, friend, seq) in [(1, "Kramer", "Jerry", 1), (2, "Jerry", "Kramer", 2)]
            {
                db.append_coordination(
                    &CoordEvent::QueryRegistered {
                        owner: owner.to_lowercase(),
                        sql: pair_sql(owner, friend),
                        qid: QueryId(qid),
                        seq,
                        deadline: None,
                        stamp: None,
                    }
                    .encode(),
                )
                .unwrap();
            }
            let bytes = db.wal_bytes().unwrap();
            drop(db);

            let (co, report) =
                ShardedCoordinator::recover(youtopia_storage::Wal::from_bytes(bytes), one_shard())
                    .unwrap();
            assert_eq!(report.restored_pending, 2);
            assert_eq!(report.rematched_groups, 1, "the sweep completes the pair");
            assert_eq!(co.pending_count(), 0);
            assert_eq!(co.answers("Reservation").len(), 2);
        }

        #[test]
        fn async_pair_resolves_both_futures() {
            let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
            let mut kramer = co
                .submit_sql_async("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            assert!(!kramer.is_complete());
            assert!(kramer.try_take().is_none(), "in flight: nothing to take");
            let mut jerry = co
                .submit_sql_async("jerry", &pair_sql("Jerry", "Kramer"))
                .unwrap();
            // jerry completed the group on arrival; kramer's waker fired
            let jn = jerry.try_take().unwrap().answered().expect("answered");
            let kn = kramer.try_take().unwrap().answered().expect("answered");
            assert_eq!(jn.group, kn.group);
            assert_eq!(
                jn.answers[0].1.values()[1],
                kn.answers[0].1.values()[1],
                "coordinated pair shares its flight"
            );
            assert_eq!(co.pending_count(), 0);
        }

        /// Regression (async-submission PR, satellite 1): `cancel` on a
        /// query with a parked future waiter must wake it with the terminal
        /// `Cancelled` outcome — not leave the future pending forever.
        #[test]
        fn cancel_wakes_parked_future_with_cancelled() {
            let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
            let mut f = co
                .submit_sql_async("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            co.cancel(f.id()).unwrap();
            assert_eq!(
                f.wait_timeout(std::time::Duration::from_secs(5)),
                Some(crate::future::CoordinationOutcome::Cancelled),
                "cancel must resolve the parked future"
            );
            // cancel_owner takes the same path
            let mut g = co
                .submit_sql_async("elaine", &pair_sql("Elaine", "Ghost"))
                .unwrap();
            assert_eq!(co.cancel_owner("elaine"), 1);
            assert_eq!(
                g.try_take(),
                Some(crate::future::CoordinationOutcome::Cancelled)
            );
        }

        /// Regression (async-submission PR, satellite 1): `expire_before`
        /// must wake a parked future waiter with `Expired`.
        #[test]
        fn expire_wakes_parked_future_with_expired() {
            let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
            let mut f = co.submit_sql_async("a", &pair_sql("A", "GhostA")).unwrap();
            let expired = co.expire_before(u64::MAX);
            assert_eq!(expired, vec![f.id()]);
            assert_eq!(
                f.wait_timeout(std::time::Duration::from_secs(5)),
                Some(crate::future::CoordinationOutcome::Expired),
                "expiry must resolve the parked future"
            );
        }

        #[test]
        fn reattach_supersedes_previous_future() {
            let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
            let mut old = co
                .submit_sql_async("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            let mut fresh = co.reattach_async("kramer");
            assert_eq!(fresh.len(), 1);
            assert_eq!(
                old.try_take(),
                Some(crate::future::CoordinationOutcome::Superseded),
                "the replaced handle resolves instead of hanging"
            );
            // the fresh future receives the answer
            co.submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
                .unwrap();
            let outcome = fresh[0].try_take().unwrap();
            assert!(outcome.answered().is_some());
            // a sync reattach supersedes an async handle too
            let mut h = co.submit_sql_async("b", &pair_sql("B", "GhostB")).unwrap();
            let tickets = co.reattach("b");
            assert_eq!(tickets.len(), 1);
            assert_eq!(
                h.try_take(),
                Some(crate::future::CoordinationOutcome::Superseded)
            );
        }

        #[test]
        fn recover_then_reattach_async_resumes_the_future() {
            let db = flights_db_wal();
            let co = ShardedCoordinator::single(db.clone(), CoordinatorConfig::default());
            let f = co
                .submit_sql_async("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            assert!(!f.is_complete());
            let bytes = db.wal_bytes().unwrap();
            drop(f); // the front-end dies with its futures
            drop(co);

            let (co2, report) =
                ShardedCoordinator::recover(youtopia_storage::Wal::from_bytes(bytes), one_shard())
                    .unwrap();
            assert_eq!(report.restored_pending, 1);
            let mut futures = co2.reattach_async("kramer");
            assert_eq!(futures.len(), 1);
            co2.submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
                .unwrap();
            let outcome = futures[0]
                .wait_timeout(std::time::Duration::from_secs(5))
                .expect("reattached future resolves");
            assert!(outcome.answered().is_some());
        }

        /// Deadline-lifecycle PR: `expire_due` retires exactly the pending
        /// queries whose deadline has passed, resolves their futures with
        /// `Expired`, and leaves deadline-less queries alone.
        #[test]
        fn expire_due_sweeps_past_deadlines_only() {
            use crate::lifecycle::SubmitOptions;

            let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
            let mut early = co
                .submit_sql_async_with(
                    "a",
                    &pair_sql("A", "GhostA"),
                    SubmitOptions::with_deadline(100),
                )
                .unwrap();
            co.submit_sql_with(
                "b",
                &pair_sql("B", "GhostB"),
                SubmitOptions::with_deadline(200),
            )
            .unwrap();
            co.submit_sql("c", &pair_sql("C", "GhostC")).unwrap();
            assert_eq!(co.next_deadline(), Some(100));

            assert!(co.expire_due(99).is_empty(), "nothing due yet");
            let expired = co.expire_due(150);
            assert_eq!(expired, vec![early.id()]);
            assert_eq!(
                early.try_take(),
                Some(crate::future::CoordinationOutcome::Expired)
            );
            assert_eq!(co.next_deadline(), Some(200));
            assert_eq!(co.expire_due(1_000).len(), 1);
            assert_eq!(co.pending_count(), 1, "deadline-less query survives");
            assert_eq!(co.next_deadline(), None);
            assert_eq!(co.stats().expired, 2);
        }

        /// A deadline logged at submission survives kill + recover, and a
        /// deadline already past due at recovery time is expired before
        /// any client can reattach to it.
        #[test]
        fn recovery_restores_and_enforces_deadlines() {
            use crate::lifecycle::{MockClock, SubmitOptions};

            let db = flights_db_wal();
            let co = ShardedCoordinator::single(db.clone(), CoordinatorConfig::default());
            co.submit_sql_with(
                "a",
                &pair_sql("A", "GhostA"),
                SubmitOptions::with_deadline(100),
            )
            .unwrap();
            co.submit_sql_with(
                "b",
                &pair_sql("B", "GhostB"),
                SubmitOptions::with_deadline(5_000),
            )
            .unwrap();
            let bytes = db.wal_bytes().unwrap();
            drop(co);

            // recover "at" t=900: a's deadline (100) lapsed while down
            let clock = Arc::new(MockClock::new(900));
            let (co2, report) = ShardedCoordinator::recover_with(
                youtopia_storage::Wal::from_bytes(bytes),
                one_shard(),
                None,
                clock.clone(),
            )
            .unwrap();
            assert_eq!(report.restored_pending, 2);
            assert_eq!(report.expired_at_recovery, 1);
            let snap = co2.pending_snapshot();
            assert_eq!(snap.len(), 1);
            assert_eq!(snap[0].owner, "b");
            assert_eq!(snap[0].deadline, Some(5_000), "deadline rebuilt from log");
            // the recovery-time expiry was logged: a second recovery agrees
            let bytes2 = co2.db().wal_bytes().unwrap();
            drop(co2);
            let (co3, report3) = ShardedCoordinator::recover_with(
                youtopia_storage::Wal::from_bytes(bytes2),
                one_shard(),
                None,
                clock.clone(),
            )
            .unwrap();
            assert_eq!(report3.restored_pending, 1);
            assert_eq!(report3.expired_at_recovery, 0);
            assert_eq!(co3.pending_count(), 1);
        }

        #[test]
        fn matching_time_is_recorded() {
            let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
            co.submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
                .unwrap();
            co.submit_sql("jerry", &pair_sql("Jerry", "Kramer"))
                .unwrap();
            let stats = co.stats();
            assert!(stats.matching_nanos > 0);
            assert_eq!(stats.match_attempts, 2);
        }
    }
}
