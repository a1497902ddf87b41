//! Poll-based coordination futures, the blocking [`TicketReceiver`]
//! view over the same completion slot, and the [`WaiterSet`] driver.
//!
//! Every pending query parks exactly one waiter in the coordinator's
//! waiter table: a completion slot (`TicketShared`) that whichever
//! code path terminates the query fills in — a match commit, a
//! cancellation, an expiry sweep (seq-based, or the deadline-driven
//! `expire_due` run by the background [`crate::DeadlineSweeper`]), or a
//! reattach that supersedes the handle. The submitter reads that slot
//! through one of two handles:
//!
//! * a [`CoordinationFuture`]: a plain `std::future::Future` whose
//!   waker is parked in the slot, so one thread can hold thousands of
//!   in-flight coordinations;
//! * a sync [`crate::Ticket`], whose [`TicketReceiver`] reads the slot
//!   with the `std::sync::mpsc` receiver vocabulary (`try_recv`,
//!   `recv`, `recv_timeout`) and blocks on a thread-parking waker.
//!
//! The sync submission entry points are conversions of their async
//! twins ([`CoordinationFuture`] → [`crate::Submission`]), so both
//! handles are fed by one submission pipeline.
//!
//! No external async runtime is required (and none is linked): the
//! future is poll-based over `std::task`, so it works under any
//! executor — or under no executor at all, via [`WaiterSet`], a small
//! driver that lets **one** thread hold thousands of in-flight futures
//! and harvest completions as they fire, and
//! [`CoordinationFuture::wait_timeout`], a single-future blocking wait
//! built on a thread-parking waker.
//!
//! # Waker lifecycle
//!
//! A handle's shared slot lives in two places: the handle itself, and
//! the owning coordinator's per-shard waiter table. The coordinator
//! completes the slot **while holding the shard lock** — as the lock is
//! released, right after the shard's monitor counters are republished —
//! so a completion cannot race a migration moving the waiter between
//! shards, and fires the parked waker *after* taking it out of the
//! slot's own mutex — waker callbacks never run under a slot lock, and
//! the slot mutex is a leaf: no coordinator lock is ever taken inside
//! it. The first terminal outcome wins; later completions (e.g. a
//! reattach superseding an already-answered handle) are no-ops.
//! Dropping a handle without reading it is safe — the slot completes
//! into the void, which is exactly what a crashed front-end looks like;
//! [`crate::ShardedCoordinator::reattach_async`] hands the reconnect a
//! fresh future for the same query. See `docs/async.md`.

use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::mpsc::{RecvError, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use crate::coordinator::{MatchNotification, Submission, Ticket};
use crate::ir::QueryId;

/// Terminal result of an asynchronously submitted entangled query.
/// Every future resolves to exactly one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinationOutcome {
    /// The query's group matched; these are its answers.
    Answered(MatchNotification),
    /// The query was withdrawn by its owner
    /// ([`crate::ShardedCoordinator::cancel`] /
    /// [`crate::ShardedCoordinator::cancel_owner`]).
    Cancelled,
    /// The query was retired by an expiry sweep — a deadline-driven
    /// `expire_due` (usually run by the background
    /// [`crate::DeadlineSweeper`] when the query's
    /// [`crate::SubmitOptions::deadline`] lapses) or the legacy
    /// seq-based [`crate::ShardedCoordinator::expire_before`].
    Expired,
    /// A newer handle for the same query was issued (the owner
    /// reattached); this future will never receive the answer.
    Superseded,
}

impl CoordinationOutcome {
    /// The notification, when the outcome is [`Answered`].
    ///
    /// [`Answered`]: CoordinationOutcome::Answered
    pub fn answered(self) -> Option<MatchNotification> {
        match self {
            CoordinationOutcome::Answered(n) => Some(n),
            _ => None,
        }
    }
}

/// The completion slot shared between a submitter's handle (a
/// [`CoordinationFuture`] or a [`TicketReceiver`]) and the
/// coordinator's waiter table: the terminal outcome (set once) and the
/// parked waker of whoever waited last.
#[derive(Debug, Default)]
pub(crate) struct TicketShared {
    slot: Mutex<Slot>,
}

#[derive(Debug, Default)]
struct Slot {
    outcome: Option<CoordinationOutcome>,
    taken: bool,
    waker: Option<Waker>,
}

impl TicketShared {
    /// A slot that is already terminal (for queries answered on
    /// arrival).
    pub(crate) fn completed(outcome: CoordinationOutcome) -> TicketShared {
        TicketShared {
            slot: Mutex::new(Slot {
                outcome: Some(outcome),
                taken: false,
                waker: None,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sets the terminal outcome (first writer wins) and fires the
    /// parked waker, outside the slot lock. Idempotent.
    pub(crate) fn complete(&self, outcome: CoordinationOutcome) {
        let waker = {
            let mut slot = self.lock();
            if slot.outcome.is_some() || slot.taken {
                return; // the first terminal result wins
            }
            slot.outcome = Some(outcome);
            slot.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Releases the coordinator's side of an unresolved slot (the
    /// coordinator is being dropped with the query still in flight)
    /// and wakes whoever is parked on it, so a blocked
    /// [`TicketReceiver`] observes the disconnect. A future stays
    /// pending: nothing will ever complete it.
    pub(crate) fn abandon(self: Arc<Self>) {
        let waker = self.lock().waker.take();
        drop(self);
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

/// A pending (or already-answered) asynchronously submitted entangled
/// query. Resolves to its [`CoordinationOutcome`] when the coordinator
/// terminates the query — match commit, cancel, expiry, or
/// supersession by a reattach.
///
/// Plain `std::future::Future`, no runtime attached: await it under any
/// executor, drive many at once from one thread with a [`WaiterSet`],
/// or block on a single one with
/// [`CoordinationFuture::wait_timeout`]. The query id is available
/// immediately via [`CoordinationFuture::id`] (usable with
/// [`crate::ShardedCoordinator::cancel`] while in flight).
#[derive(Debug)]
pub struct CoordinationFuture {
    id: QueryId,
    shared: Arc<TicketShared>,
    /// The query's own arrival completed its group, so the submitter
    /// got the answer back directly (the sync API's
    /// [`Submission::Answered`]).
    answered_on_arrival: bool,
}

impl CoordinationFuture {
    pub(crate) fn new(id: QueryId, shared: Arc<TicketShared>) -> CoordinationFuture {
        CoordinationFuture {
            id,
            shared,
            answered_on_arrival: false,
        }
    }

    /// A future that is already terminal (queries answered on arrival).
    pub(crate) fn ready(id: QueryId, outcome: CoordinationOutcome) -> CoordinationFuture {
        CoordinationFuture {
            id,
            shared: Arc::new(TicketShared::completed(outcome)),
            answered_on_arrival: true,
        }
    }

    /// Whether the query was answered by its own arrival (as opposed
    /// to registered as pending, whatever happened to it since).
    pub(crate) fn answered_on_arrival(&self) -> bool {
        self.answered_on_arrival
    }

    /// The sync view of a submission: the answer itself when the
    /// arrival completed a group, otherwise a [`Ticket`] over this
    /// future's slot.
    pub(crate) fn into_submission(self) -> Submission {
        let answered_on_arrival = self.answered_on_arrival;
        let ticket = self.into_ticket();
        if answered_on_arrival {
            if let Ok(n) = ticket.receiver.try_recv() {
                return Submission::Answered(n);
            }
        }
        Submission::Pending(ticket)
    }

    /// The blocking [`Ticket`] view over this future's slot.
    pub(crate) fn into_ticket(self) -> Ticket {
        Ticket {
            id: self.id,
            receiver: TicketReceiver {
                shared: self.shared,
            },
        }
    }

    /// The submitted query's id.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Whether a terminal outcome has been set (the future would
    /// resolve on its next poll).
    pub fn is_complete(&self) -> bool {
        self.shared.lock().outcome.is_some()
    }

    /// Takes the outcome if the future is complete, without a waker
    /// (non-blocking probe; the async analogue of
    /// [`crate::Ticket`]`.receiver.try_recv()`). Returns `None` while
    /// in flight and after the outcome was already taken.
    pub fn try_take(&mut self) -> Option<CoordinationOutcome> {
        let mut slot = self.shared.lock();
        if slot.taken {
            return None;
        }
        let outcome = slot.outcome.clone()?;
        slot.taken = true;
        Some(outcome)
    }

    /// Blocks the calling thread until the future resolves or `timeout`
    /// elapses — the drop-in replacement for a sync ticket's
    /// `recv_timeout`, built on a thread-parking waker (still no
    /// runtime). Returns `None` on timeout; the future stays armed.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<CoordinationOutcome> {
        let deadline = Instant::now() + timeout;
        let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
        let mut cx = Context::from_waker(&waker);
        loop {
            if let Poll::Ready(outcome) = Pin::new(&mut *self).poll(&mut cx) {
                return Some(outcome);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            std::thread::park_timeout(deadline - now);
        }
    }
}

impl Future for CoordinationFuture {
    type Output = CoordinationOutcome;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<CoordinationOutcome> {
        let mut slot = self.shared.lock();
        // the outcome is delivered exactly once across poll and
        // try_take; re-polling a consumed future is a caller bug (the
        // std Future contract allows panicking here) — never deliver
        // the same completion twice
        assert!(
            !slot.taken,
            "CoordinationFuture polled after its outcome was taken"
        );
        if let Some(outcome) = slot.outcome.clone() {
            slot.taken = true;
            return Poll::Ready(outcome);
        }
        // park (or refresh) the waker; the completing path takes it out
        // under this same slot lock, so a completion either sees this
        // waker or has already set the outcome we just checked
        slot.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// The receiving side of a sync [`Ticket`]: a blocking view over the
/// same completion slot a [`CoordinationFuture`] polls, with the
/// `std::sync::mpsc::Receiver` vocabulary and error types.
///
/// * The answer is received exactly once: `Ok` the first time, then
///   `Disconnected`.
/// * `Empty` (or a timeout) while the query is in flight.
/// * `Disconnected` when the query terminated without an answer for
///   this handle — cancelled, expired, superseded by a reattach — or
///   when the coordinator was dropped with the query unresolved.
///
/// Every method takes `&self`; the slot's own mutex serializes them.
#[derive(Debug)]
pub struct TicketReceiver {
    shared: Arc<TicketShared>,
}

impl TicketReceiver {
    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<MatchNotification, TryRecvError> {
        self.read(None)
    }

    /// Blocks until the answer arrives or the query terminates without
    /// one.
    pub fn recv(&self) -> Result<MatchNotification, RecvError> {
        self.wait(None).map_err(|_| RecvError)
    }

    /// Blocks for at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<MatchNotification, RecvTimeoutError> {
        // an unrepresentable deadline waits forever, like `recv`
        let deadline = Instant::now().checked_add(timeout);
        self.wait(deadline).map_err(|e| match e {
            TryRecvError::Empty => RecvTimeoutError::Timeout,
            TryRecvError::Disconnected => RecvTimeoutError::Disconnected,
        })
    }

    /// Reads the slot; while in flight, parks `waker` (when given)
    /// under the same lock the completing path takes it out under, so
    /// a completion either sees the waker or is seen by this read.
    fn read(&self, waker: Option<&Waker>) -> Result<MatchNotification, TryRecvError> {
        let mut slot = self.shared.lock();
        if slot.taken {
            return Err(TryRecvError::Disconnected);
        }
        // a resolved slot is read once: the answer moves out, any
        // other outcome disconnects
        match slot.outcome.take() {
            Some(outcome) => {
                slot.taken = true;
                outcome.answered().ok_or(TryRecvError::Disconnected)
            }
            // the coordinator's waiter table dropped its side unresolved
            None if Arc::strong_count(&self.shared) == 1 => Err(TryRecvError::Disconnected),
            None => {
                if let Some(waker) = waker {
                    slot.waker = Some(waker.clone());
                }
                Err(TryRecvError::Empty)
            }
        }
    }

    /// Blocks on a thread-parking waker until the slot resolves or
    /// `deadline` passes (`Err(Empty)`).
    fn wait(&self, deadline: Option<Instant>) -> Result<MatchNotification, TryRecvError> {
        let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
        loop {
            match self.read(Some(&waker)) {
                Err(TryRecvError::Empty) => {}
                resolved => return resolved,
            }
            match deadline {
                None => std::thread::park(),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(TryRecvError::Empty);
                    }
                    std::thread::park_timeout(deadline - now);
                }
            }
        }
    }
}

/// Wakes a parked thread ([`CoordinationFuture::wait_timeout`],
/// [`TicketReceiver::recv`]).
struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// The wake signal shared by a [`WaiterSet`] and the wakers of every
/// future it drives: the queue of query ids whose futures fired, the
/// condvar a blocked [`WaiterSet::wait_timeout`] sleeps on, and an
/// optional external wake hook for owners that sleep on something
/// other than the condvar (e.g. the net reactor parked in `epoll_wait`
/// — the hook writes its eventfd).
#[derive(Default)]
struct SetSignal {
    woken: Mutex<Vec<QueryId>>,
    condvar: Condvar,
    hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl SetSignal {
    fn push(&self, qid: QueryId) {
        let mut woken = self.woken.lock().unwrap_or_else(|e| e.into_inner());
        woken.push(qid);
        drop(woken);
        self.condvar.notify_all();
        let hook = self.hook.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hook) = hook.as_ref() {
            hook();
        }
    }
}

/// One future's waker inside a [`WaiterSet`]: records *which* future
/// fired and pokes the set's condvar.
struct SetWaker {
    qid: QueryId,
    signal: Arc<SetSignal>,
}

impl Wake for SetWaker {
    fn wake(self: Arc<Self>) {
        self.signal.push(self.qid);
    }
}

/// An executor-agnostic driver that lets **one** thread hold thousands
/// of in-flight [`CoordinationFuture`]s and harvest completions as
/// they fire — the front-end loop the async API exists for.
///
/// Not a general executor: it only drives coordination futures, which
/// never need re-polling except when their waker fires (a terminal
/// outcome is the only state change). The set therefore polls a future
/// exactly once on insert (parking its waker) and again only when the
/// waker fired, so a quiescent set of 10k pending futures costs zero
/// CPU.
///
/// Single-owner by design (`&mut self` everywhere): share work across
/// threads by sending futures to the owning thread, not the set.
pub struct WaiterSet {
    entries: HashMap<QueryId, CoordinationFuture>,
    /// Inserted but never polled (their wakers are not parked yet).
    fresh: Vec<QueryId>,
    signal: Arc<SetSignal>,
}

impl Default for WaiterSet {
    fn default() -> Self {
        WaiterSet::new()
    }
}

impl WaiterSet {
    /// An empty set.
    pub fn new() -> WaiterSet {
        WaiterSet {
            entries: HashMap::new(),
            fresh: Vec::new(),
            signal: Arc::new(SetSignal::default()),
        }
    }

    /// Installs a hook invoked every time one of this set's futures
    /// fires its waker — possibly from another thread, and (per the
    /// waker contract in `docs/async.md`) possibly while the
    /// completing coordinator still holds a shard lock, so the hook
    /// must be O(1) and must not call back into the coordinator. An
    /// owner that multiplexes the set with I/O readiness (the net
    /// reactor sleeping in `epoll_wait`) uses this to bridge
    /// completion wakes into its own wait primitive; pure
    /// [`WaiterSet::wait_timeout`] users never need it, the built-in
    /// condvar is always notified first.
    pub fn set_wake_hook(&mut self, hook: impl Fn() + Send + Sync + 'static) {
        let mut slot = self.signal.hook.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(Box::new(hook));
    }

    /// Adds a future to the set. It is polled (and its waker parked) on
    /// the next [`WaiterSet::poll_ready`] / [`WaiterSet::wait_timeout`];
    /// already-completed futures surface there immediately.
    ///
    /// Returns the future previously held for the same query id, if
    /// any — e.g. the pre-reattach handle when a reconnecting front-end
    /// inserts `reattach_async`'s fresh futures into the same set. The
    /// displaced future is still armed (it resolves
    /// [`CoordinationOutcome::Superseded`] in that pattern); resolve or
    /// drop it deliberately rather than letting its outcome vanish from
    /// the ledger.
    pub fn insert(&mut self, future: CoordinationFuture) -> Option<CoordinationFuture> {
        let qid = future.id();
        self.fresh.push(qid);
        self.entries.insert(qid, future)
    }

    /// Number of futures currently held (in-flight + completed-but-not-
    /// yet-harvested).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set holds no futures.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The ids still held by the set (the async pending set, plus any
    /// completions not yet harvested).
    pub fn ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self.entries.keys().copied().collect();
        ids.sort_by_key(|q| q.0);
        ids
    }

    /// Removes a future without resolving it (e.g. after cancelling the
    /// query through the coordinator and not caring about the terminal
    /// outcome). Returns it, still armed.
    pub fn remove(&mut self, qid: QueryId) -> Option<CoordinationFuture> {
        self.entries.remove(&qid)
    }

    /// Polls every future whose waker fired (plus the freshly inserted
    /// ones), removing and returning the completed ones. Non-blocking;
    /// returns an empty vec when nothing resolved.
    pub fn poll_ready(&mut self) -> Vec<(QueryId, CoordinationOutcome)> {
        let mut candidates = std::mem::take(&mut self.fresh);
        {
            let mut woken = self.signal.woken.lock().unwrap_or_else(|e| e.into_inner());
            candidates.append(&mut woken);
        }
        let mut completed = Vec::new();
        for qid in candidates {
            let Some(future) = self.entries.get_mut(&qid) else {
                continue; // removed, or completed by an earlier duplicate wake
            };
            let waker = Waker::from(Arc::new(SetWaker {
                qid,
                signal: Arc::clone(&self.signal),
            }));
            let mut cx = Context::from_waker(&waker);
            if let Poll::Ready(outcome) = Pin::new(future).poll(&mut cx) {
                self.entries.remove(&qid);
                completed.push((qid, outcome));
            }
        }
        completed
    }

    /// Blocks until at least one future resolves or `timeout` elapses,
    /// then harvests like [`WaiterSet::poll_ready`]. Returns an empty
    /// vec on timeout or when the set is empty.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Vec<(QueryId, CoordinationOutcome)> {
        let deadline = Instant::now() + timeout;
        loop {
            let completed = self.poll_ready();
            if !completed.is_empty() || self.entries.is_empty() {
                return completed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Vec::new();
            }
            let woken = self.signal.woken.lock().unwrap_or_else(|e| e.into_inner());
            if woken.is_empty() {
                // a wake between the drop inside poll_ready and this
                // re-acquire lands in `woken` and is seen here, so the
                // sleep never misses a completion
                let _ = self
                    .signal
                    .condvar
                    .wait_timeout(woken, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    /// Drives the set until it is empty or `timeout` elapses, returning
    /// everything harvested. The workhorse of tests and the example
    /// front-end.
    pub fn drain_timeout(&mut self, timeout: Duration) -> Vec<(QueryId, CoordinationOutcome)> {
        let deadline = Instant::now() + timeout;
        let mut all = Vec::new();
        while !self.entries.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            all.extend(self.wait_timeout(deadline - now));
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn notification(qid: u64) -> MatchNotification {
        MatchNotification {
            id: QueryId(qid),
            group: vec![QueryId(qid)],
            answers: Vec::new(),
        }
    }

    fn armed(qid: u64) -> (CoordinationFuture, Arc<TicketShared>) {
        let shared = Arc::new(TicketShared::default());
        (
            CoordinationFuture::new(QueryId(qid), Arc::clone(&shared)),
            shared,
        )
    }

    #[test]
    fn ready_future_resolves_immediately() {
        let mut f =
            CoordinationFuture::ready(QueryId(1), CoordinationOutcome::Answered(notification(1)));
        assert!(f.is_complete());
        assert!(matches!(
            f.try_take(),
            Some(CoordinationOutcome::Answered(_))
        ));
        assert!(f.try_take().is_none(), "outcome is taken once");
    }

    #[test]
    fn first_terminal_outcome_wins() {
        let (mut f, shared) = armed(2);
        shared.complete(CoordinationOutcome::Cancelled);
        shared.complete(CoordinationOutcome::Answered(notification(2)));
        assert_eq!(f.try_take(), Some(CoordinationOutcome::Cancelled));
    }

    #[test]
    fn wait_timeout_returns_none_then_outcome() {
        let (mut f, shared) = armed(3);
        assert!(f.wait_timeout(Duration::from_millis(10)).is_none());
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            shared.complete(CoordinationOutcome::Expired);
        });
        assert_eq!(
            f.wait_timeout(Duration::from_secs(5)),
            Some(CoordinationOutcome::Expired)
        );
        handle.join().unwrap();
    }

    #[test]
    fn waiter_set_harvests_completions_in_any_order() {
        let mut set = WaiterSet::new();
        let mut shares = Vec::new();
        for qid in 0..100u64 {
            let (f, s) = armed(qid);
            set.insert(f);
            shares.push(s);
        }
        assert_eq!(set.len(), 100);
        assert!(set.poll_ready().is_empty(), "nothing completed yet");

        // complete out of order, some before the next poll, some after
        for qid in (0..50usize).rev() {
            shares[qid].complete(CoordinationOutcome::Cancelled);
        }
        let first = set.poll_ready();
        assert_eq!(first.len(), 50);
        for (qid, share) in shares.iter().enumerate().skip(50) {
            share.complete(CoordinationOutcome::Answered(notification(qid as u64)));
        }
        let second = set.drain_timeout(Duration::from_secs(5));
        assert_eq!(second.len(), 50);
        assert!(set.is_empty());
    }

    #[test]
    fn waiter_set_wait_blocks_until_completion() {
        let mut set = WaiterSet::new();
        let (f, shared) = armed(7);
        set.insert(f);
        assert!(set.poll_ready().is_empty());
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            shared.complete(CoordinationOutcome::Superseded);
        });
        let got = set.wait_timeout(Duration::from_secs(5));
        assert_eq!(got, vec![(QueryId(7), CoordinationOutcome::Superseded)]);
        handle.join().unwrap();
    }

    #[test]
    fn waiter_set_remove_forgets_without_resolving() {
        let mut set = WaiterSet::new();
        let (f, shared) = armed(9);
        set.insert(f);
        let future = set.remove(QueryId(9)).expect("present");
        assert!(set.is_empty());
        shared.complete(CoordinationOutcome::Cancelled);
        let mut future = future;
        assert_eq!(future.try_take(), Some(CoordinationOutcome::Cancelled));
        // waking a removed entry must not wedge the set
        assert!(set.poll_ready().is_empty());
    }

    #[test]
    fn insert_returns_the_displaced_future_for_a_duplicate_id() {
        let mut set = WaiterSet::new();
        let (old, old_shared) = armed(13);
        let (new, _new_shared) = armed(13);
        assert!(set.insert(old).is_none());
        let mut displaced = set.insert(new).expect("duplicate id displaces");
        assert_eq!(set.len(), 1, "one entry per query id");
        // the displaced handle is still armed and resolvable
        old_shared.complete(CoordinationOutcome::Superseded);
        assert_eq!(
            displaced.try_take(),
            Some(CoordinationOutcome::Superseded),
            "the displaced future's outcome is not lost"
        );
    }

    #[test]
    #[should_panic(expected = "polled after its outcome was taken")]
    fn poll_after_try_take_panics_instead_of_double_delivering() {
        let (mut f, shared) = armed(15);
        shared.complete(CoordinationOutcome::Cancelled);
        assert_eq!(f.try_take(), Some(CoordinationOutcome::Cancelled));
        // delivering the same terminal outcome twice would corrupt any
        // exactly-once ledger; re-polling a consumed future is loud
        let _ = f.wait_timeout(Duration::from_millis(1));
    }

    #[test]
    fn wake_hook_fires_on_cross_thread_completion() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut set = WaiterSet::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&hits);
        set.set_wake_hook(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let (f, shared) = armed(21);
        set.insert(f);
        assert!(set.poll_ready().is_empty(), "waker parked, nothing fired");
        assert_eq!(hits.load(Ordering::SeqCst), 0, "no spurious hook calls");
        std::thread::spawn(move || shared.complete(CoordinationOutcome::Cancelled))
            .join()
            .unwrap();
        assert!(hits.load(Ordering::SeqCst) >= 1, "hook saw the wake");
        assert_eq!(set.poll_ready().len(), 1);
    }

    #[test]
    fn already_completed_future_surfaces_on_first_poll() {
        let mut set = WaiterSet::new();
        let (f, shared) = armed(11);
        shared.complete(CoordinationOutcome::Expired);
        set.insert(f);
        let got = set.poll_ready();
        assert_eq!(got, vec![(QueryId(11), CoordinationOutcome::Expired)]);
    }
}
