//! Per-client fair admission: token buckets refilled from the shared
//! query pool by deficit round-robin (DRR).
//!
//! PR 2's admission control metered one *global* pool first-come-first-
//! served, so a greedy bulk client that resubmits the instant a refund
//! lands can starve every interactive caller indefinitely. This module
//! makes the pool client-aware:
//!
//! * Every submission carries a [`ClientId`]. Tokens a client has been
//!   granted sit in its private **bucket**; a reservation draws from the
//!   bucket first.
//! * While nobody is waiting, a submission may top its bucket up
//!   directly from the shared pool — the uncontended path behaves
//!   exactly like PR 2's global pool (existing budget tests hold
//!   bit-for-bit).
//! * When the pool cannot cover a blocking submission, the submitter
//!   registers its unmet **demand** and parks on a condvar. Refunds and
//!   [`add_budget`](crate::AnnotationService::add_budget) top-ups run
//!   [`AdmissionState::distribute`]: tokens flow into the buckets of
//!   *waiting* clients in round-robin order, at most `quantum + deficit`
//!   per client per visit — classic DRR. A bulk client with a mountain
//!   of queued demand therefore gets one quantum per round, the same as
//!   a trickle client, whose small need fills (and wakes) within a
//!   round or two no matter how hungry the bulk client is.
//! * Because demand is registered *before* tokens are handed out, a
//!   refund can never be sniped by a fast resubmitter racing a parked
//!   waiter: distribution happens under the same mutex the waiters park
//!   on, and the fast path only sees tokens left over after every
//!   registered demand had its round.
//!
//! The same structure fixes two PR 2 robustness bugs: the pool lives
//! under a mutex + condvar (so a dry-pool waiter *parks* instead of
//! re-polling an atomic every 5 ms), and every lock/wait recovers from
//! poisoning with [`PoisonError::into_inner`] (the state has no
//! partially-applied invariants — each mutation completes before the
//! guard drops), so a panicking thread cannot wedge later submissions
//! or stats polls.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::stats::ClientStats;

/// A cancellable blocking reservation observed its raised cancel flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cancelled;

/// Identifies one admission-control client (a connection, a tenant, a
/// pipeline). Cheap to clone; compared and hashed by name.
///
/// Callers that never cared about fairness keep working: a bare
/// `Arc<Table>` handed to
/// [`AnnotationService::submit`](crate::AnnotationService::submit) runs
/// as [`ClientId::ANONYMOUS`], which is just one more client in the
/// round-robin.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(Option<std::sync::Arc<str>>);

impl ClientId {
    /// The default identity of unattributed submissions. Reported as
    /// `"anonymous"`.
    pub const ANONYMOUS: ClientId = ClientId(None);

    /// A named client. `ClientId::new("anonymous")` *is*
    /// [`ClientId::ANONYMOUS`] — a wire client naming itself after the
    /// default identity shares its bucket and counters instead of
    /// producing a second, indistinguishable "anonymous" stats line.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        if name == "anonymous" {
            return ClientId::ANONYMOUS;
        }
        ClientId(Some(std::sync::Arc::from(name)))
    }

    /// The client's name (`"anonymous"` for [`ClientId::ANONYMOUS`]).
    pub fn name(&self) -> &str {
        self.0.as_deref().unwrap_or("anonymous")
    }
}

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&str> for ClientId {
    fn from(name: &str) -> Self {
        ClientId::new(name)
    }
}

/// Per-client admission state: the fairness machinery plus the counters
/// surfaced through [`ClientStats`].
#[derive(Debug, Default)]
struct ClientState {
    /// Global activity tick at the client's last touch (LRU recency for
    /// the registry bound).
    last_active: u64,
    /// Tokens this client owns (granted but not yet spent).
    bucket: u64,
    /// DRR deficit counter; reset whenever the client has no unmet
    /// demand so an idle client cannot hoard credit.
    deficit: u64,
    /// Total tokens wanted by this client's currently-parked submitters.
    demand: u64,
    /// Parked submitters (diagnostic; keeps `demand` honest in tests).
    waiting: u64,
    submitted: u64,
    completed: u64,
    failed: u64,
    shed: u64,
    /// Tokens ever drawn from the shared pool (direct + DRR grants).
    granted: u64,
}

/// Everything the admission mutex protects.
#[derive(Debug)]
struct AdmissionState {
    /// Unassigned tokens in the shared pool; `None` = unmetered.
    available: Option<u64>,
    clients: HashMap<ClientId, ClientState>,
    /// Round-robin rotation, in client registration order.
    rr: Vec<ClientId>,
    cursor: usize,
    /// Monotonic activity tick: bumped on every client touch, copied
    /// into the touched client's `last_active` for LRU eviction.
    tick: u64,
    /// Registry bound: registering a client beyond this evicts the
    /// least-recently-active *idle* one first (see [`evict_idle`]).
    max_tracked: usize,
    /// DRR grant per client per rotation (kept with the state so
    /// eviction can redistribute a victim's reclaimed tokens inside the
    /// same critical section that freed them).
    quantum: u64,
    /// Set when an eviction folded reclaimed tokens back into the pool:
    /// the public entry points notify the refill condvar on their way
    /// out so a parked waiter whose bucket just filled re-checks.
    pending_wake: bool,
}

impl AdmissionState {
    fn client(&mut self, id: &ClientId) -> &mut ClientState {
        self.tick += 1;
        let tick = self.tick;
        if !self.clients.contains_key(id) {
            if self.clients.len() >= self.max_tracked {
                self.evict_idle();
            }
            self.clients.insert(id.clone(), ClientState::default());
            self.rr.push(id.clone());
        }
        let c = self.clients.get_mut(id).expect("inserted above");
        c.last_active = tick;
        c
    }

    /// Evicts the least-recently-active client that is safe to forget:
    /// no parked submitters (a waiter's registered demand must survive
    /// until it is granted or cancelled) and no tokens owed toward one.
    /// Bucket tokens of the victim return to the shared pool — they
    /// were granted toward demand that no longer exists, and dropping
    /// them would leak allowance. Counters go with the client: the
    /// registry bound trades per-client history beyond `max_tracked`
    /// identities for bounded memory (the aggregate service counters
    /// are unaffected). When every tracked client is parked, nothing is
    /// evicted and the registry temporarily exceeds the bound —
    /// correctness over the limit.
    fn evict_idle(&mut self) {
        let victim = self
            .clients
            .iter()
            .filter(|(_, c)| c.waiting == 0 && c.demand == 0)
            .min_by_key(|(_, c)| c.last_active)
            .map(|(id, _)| id.clone());
        let Some(id) = victim else {
            return;
        };
        let evicted = self.clients.remove(&id).expect("victim is tracked");
        // Drop the victim from the rotation *before* redistributing:
        // distribute() walks `rr` and every listed id must resolve.
        if let Some(pos) = self.rr.iter().position(|c| *c == id) {
            self.rr.remove(pos);
            if pos < self.cursor {
                self.cursor -= 1;
            }
            if self.cursor >= self.rr.len() {
                self.cursor = 0;
            }
        }
        if let (Some(avail), true) = (self.available, evicted.bucket > 0) {
            // The victim's stranded grant returns to the pool and flows
            // straight to any registered demand: a parked waiter must
            // not sleep through tokens that could cover it, and with no
            // further traffic there may never be another refund to
            // deliver them.
            self.available = Some(avail.saturating_add(evicted.bucket));
            self.distribute();
            self.pending_wake = true;
        }
    }

    /// Moves shared tokens into the buckets of clients with unmet
    /// demand, deficit-round-robin: each visit adds one quantum of
    /// credit and grants `min(deficit, shortfall, available)`. Stops
    /// when the pool is dry or a full rotation found no demand.
    fn distribute(&mut self) {
        let Some(mut avail) = self.available else {
            return;
        };
        let n = self.rr.len();
        if n == 0 {
            return;
        }
        let mut idle = 0usize;
        while avail > 0 && idle < n {
            let id = self.rr[self.cursor].clone();
            self.cursor = (self.cursor + 1) % n;
            let c = self.clients.get_mut(&id).expect("rr ids are registered");
            let shortfall = c.demand.saturating_sub(c.bucket);
            if shortfall == 0 {
                c.deficit = 0;
                idle += 1;
                continue;
            }
            idle = 0;
            c.deficit = c.deficit.saturating_add(self.quantum.max(1));
            let grant = c.deficit.min(shortfall).min(avail);
            c.bucket += grant;
            c.granted = c.granted.saturating_add(grant);
            c.deficit -= grant;
            avail -= grant;
            if c.demand <= c.bucket {
                c.deficit = 0;
            }
        }
        self.available = Some(avail);
    }
}

/// The client-aware admission controller: shared pool + per-client
/// token buckets behind one mutex, with a condvar for parked waiters.
#[derive(Debug)]
pub(crate) struct Admission {
    state: Mutex<AdmissionState>,
    /// Signalled whenever tokens enter the system (refunds, top-ups,
    /// eviction reclaims) — i.e. whenever a parked reservation may now
    /// be coverable.
    refill: Condvar,
}

impl Admission {
    /// `pool` is the initial shared allowance (`None` = unmetered);
    /// `quantum` the DRR grant per client per rotation; `max_tracked`
    /// bounds the client registry (rounded up to 1) — beyond it, idle
    /// clients are forgotten LRU-by-last-activity so one-id-per-request
    /// abuse cannot grow memory without bound.
    pub(crate) fn new(pool: Option<u64>, quantum: u64, max_tracked: usize) -> Self {
        Admission {
            state: Mutex::new(AdmissionState {
                available: pool,
                clients: HashMap::new(),
                rr: Vec::new(),
                cursor: 0,
                tick: 0,
                max_tracked: max_tracked.max(1),
                quantum: quantum.max(1),
                pending_wake: false,
            }),
            refill: Condvar::new(),
        }
    }

    /// Locks the state, recovering from poisoning: every critical
    /// section completes its mutation before unlocking, so the state a
    /// panicking thread leaves behind is always consistent.
    fn lock(&self) -> MutexGuard<'_, AdmissionState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Flushes a wake-up queued by registry eviction: the reclaimed
    /// bucket tokens were already folded into the pool and distributed
    /// inside the critical section that evicted, so all that is left is
    /// notifying the condvar so parked waiters whose buckets just
    /// filled re-check. Called with the state lock held — waiters
    /// simply reacquire once the caller releases it.
    fn flush_eviction_wake(&self, st: &mut AdmissionState) {
        if std::mem::take(&mut st.pending_wake) {
            self.refill.notify_all();
        }
    }

    /// Counts one rejected submission (oversize, or shed after the
    /// reservation already succeeded) against `client`.
    pub(crate) fn note_shed(&self, client: &ClientId) {
        let mut st = self.lock();
        st.client(client).shed += 1;
        self.flush_eviction_wake(&mut st);
    }

    /// Counts one submission attempt that is rejected before any
    /// reservation (the oversize path): submitted + shed in one lock.
    pub(crate) fn note_rejected(&self, client: &ClientId) {
        let mut st = self.lock();
        let c = st.client(client);
        c.submitted += 1;
        c.shed += 1;
        self.flush_eviction_wake(&mut st);
    }

    /// Non-blocking reservation (counts the submission attempt):
    /// bucket first, then the shared pool's surplus. `false` means the
    /// pool cannot cover the request now — the shed is already counted
    /// against the client; the caller sheds with
    /// `Rejection::BudgetExhausted`.
    pub(crate) fn try_reserve(&self, client: &ClientId, need: u64) -> bool {
        let mut st = self.lock();
        st.client(client).submitted += 1;
        self.flush_eviction_wake(&mut st);
        let c = st.client(client);
        if c.bucket >= need {
            c.bucket -= need;
            return true;
        }
        let shortfall = need - c.bucket;
        let Some(avail) = st.available else {
            return true; // unmetered
        };
        if avail < shortfall {
            st.client(client).shed += 1;
            return false;
        }
        let c = st.client(client);
        c.bucket = 0;
        c.granted = c.granted.saturating_add(shortfall);
        st.available = Some(avail - shortfall);
        true
    }

    /// Blocking reservation (counts the submission attempt): parks on
    /// the condvar until the bucket (fed by DRR distribution) or the
    /// pool's surplus covers `need`. `Ok(true)` means the caller had to
    /// wait at least once.
    ///
    /// Without a `cancel` flag, a permanently dry pool waits
    /// indefinitely — the paper's "stream paused until the next daily
    /// quota" semantics. There is no timeout backstop: registration of
    /// demand and distribution of refunds happen under the same mutex,
    /// so a wake-up cannot be lost. With a `cancel` flag, a raised flag
    /// plus a [`kick`](Self::kick) deregisters the demand and returns
    /// `Err(Cancelled)` (counted as a shed) — how the wire server
    /// unparks its connection threads on shutdown.
    pub(crate) fn reserve_blocking(
        &self,
        client: &ClientId,
        need: u64,
        cancel: Option<&AtomicBool>,
    ) -> Result<bool, Cancelled> {
        let mut st = self.lock();
        st.client(client).submitted += 1;
        self.flush_eviction_wake(&mut st);
        if st.available.is_none() {
            return Ok(false); // unmetered
        }
        let mut stalled = false;
        let mut registered = false;
        loop {
            if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                let c = st.client(client);
                if registered {
                    c.demand -= need;
                    c.waiting -= 1;
                }
                c.shed += 1;
                return Err(Cancelled);
            }
            let avail = st.available.expect("checked metered above");
            let c = st.client(client);
            if c.bucket >= need {
                c.bucket -= need;
                if registered {
                    c.demand -= need;
                    c.waiting -= 1;
                }
                return Ok(stalled);
            }
            let shortfall = need - c.bucket;
            if avail >= shortfall {
                c.bucket = 0;
                c.granted = c.granted.saturating_add(shortfall);
                if registered {
                    c.demand -= need;
                    c.waiting -= 1;
                }
                st.available = Some(avail - shortfall);
                return Ok(stalled);
            }
            if !registered {
                c.demand = c.demand.saturating_add(need);
                c.waiting += 1;
                registered = true;
                // Newly-registered demand may claim what little is left.
                st.distribute();
                continue;
            }
            stalled = true;
            st = self.refill.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wakes every parked waiter without adding tokens — a spurious
    /// wake-up for plain waiters (they re-check and re-park), the
    /// cancellation signal for waiters carrying a raised `cancel` flag.
    /// The lock is held across the notify so a waiter between its
    /// flag-check and its park cannot miss the signal.
    pub(crate) fn kick(&self) {
        let _guard = self.lock();
        self.refill.notify_all();
    }

    /// Returns `n` tokens to the shared pool, distributes them over any
    /// parked demand, and wakes the waiters. No-op when unmetered.
    pub(crate) fn refund(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut st = self.lock();
        let Some(avail) = st.available else {
            return;
        };
        st.available = Some(avail.saturating_add(n));
        st.distribute();
        drop(st);
        self.refill.notify_all();
    }

    /// Completion bookkeeping: per-client counter plus the refund of the
    /// unused share of the reservation, in one critical section.
    pub(crate) fn on_complete(&self, client: &ClientId, unused: u64) {
        let mut st = self.lock();
        st.client(client).completed += 1;
        self.flush_eviction_wake(&mut st);
        if unused > 0 {
            if let Some(avail) = st.available {
                st.available = Some(avail.saturating_add(unused));
                st.distribute();
                drop(st);
                self.refill.notify_all();
            }
        }
    }

    /// Failure bookkeeping (worker panic: the reservation is *not*
    /// refunded, true usage unknown).
    pub(crate) fn on_failed(&self, client: &ClientId) {
        let mut st = self.lock();
        st.client(client).failed += 1;
        self.flush_eviction_wake(&mut st);
    }

    /// Tokens still reservable: the shared pool plus every bucket.
    /// `None` when unmetered.
    pub(crate) fn remaining(&self) -> Option<u64> {
        let st = self.lock();
        st.available
            .map(|avail| avail.saturating_add(st.clients.values().map(|c| c.bucket).sum::<u64>()))
    }

    /// Per-client counters, sorted by client name for deterministic
    /// reports.
    pub(crate) fn client_stats(&self) -> Vec<ClientStats> {
        let st = self.lock();
        let mut out: Vec<ClientStats> = st
            .clients
            .iter()
            .map(|(id, c)| ClientStats {
                client: id.name().to_owned(),
                submitted: c.submitted,
                completed: c.completed,
                failed: c.failed,
                shed: c.shed,
                granted: c.granted,
                bucket: c.bucket,
                waiting: c.waiting,
            })
            .collect();
        out.sort_by(|a, b| a.client.cmp(&b.client));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn client_id_names_and_equality() {
        assert_eq!(ClientId::ANONYMOUS.name(), "anonymous");
        assert_eq!(ClientId::new("bulk"), ClientId::from("bulk"));
        assert_ne!(ClientId::new("bulk"), ClientId::new("ui"));
        assert_eq!(ClientId::new("ui").to_string(), "ui");
        // Naming yourself after the default identity IS the default
        // identity — no second indistinguishable "anonymous" bucket.
        assert_eq!(ClientId::new("anonymous"), ClientId::ANONYMOUS);
    }

    #[test]
    fn raised_cancel_flag_plus_kick_unparks_a_waiter() {
        let adm = Arc::new(Admission::new(Some(0), 8, 1024));
        let cancel = Arc::new(AtomicBool::new(false));
        let (done_tx, done) = mpsc::channel();
        let a = Arc::clone(&adm);
        let flag = Arc::clone(&cancel);
        let waiter = std::thread::spawn(move || {
            let c = ClientId::new("conn");
            done_tx
                .send(a.reserve_blocking(&c, 10, Some(&flag)))
                .unwrap();
        });
        assert!(
            done.recv_timeout(Duration::from_millis(100)).is_err(),
            "the dry pool must park the waiter first"
        );
        cancel.store(true, Ordering::Relaxed);
        adm.kick();
        let outcome = done
            .recv_timeout(Duration::from_secs(5))
            .expect("kick must deliver the cancellation");
        waiter.join().unwrap();
        assert_eq!(outcome, Err(Cancelled));
        // Demand was deregistered: a later refill stays in the pool.
        adm.refund(4);
        assert_eq!(adm.remaining(), Some(4));
        let stats = adm.client_stats();
        assert_eq!(
            (stats[0].shed, stats[0].waiting, stats[0].bucket),
            (1, 0, 0)
        );
    }

    #[test]
    fn unmetered_admission_always_reserves() {
        let adm = Admission::new(None, 8, 1024);
        let c = ClientId::new("a");
        assert!(adm.try_reserve(&c, u64::MAX));
        assert_eq!(adm.reserve_blocking(&c, u64::MAX, None), Ok(false));
        assert_eq!(adm.remaining(), None);
    }

    #[test]
    fn uncontended_pool_behaves_like_a_global_counter() {
        let adm = Admission::new(Some(10), 8, 1024);
        let c = ClientId::new("solo");
        assert!(adm.try_reserve(&c, 4));
        assert_eq!(adm.remaining(), Some(6));
        assert!(adm.try_reserve(&c, 6));
        assert!(!adm.try_reserve(&c, 1), "dry pool sheds");
        adm.refund(3);
        assert_eq!(adm.remaining(), Some(3));
        assert!(adm.try_reserve(&c, 3));
    }

    #[test]
    fn drr_serves_the_trickle_before_the_hog_finishes() {
        let adm = Arc::new(Admission::new(Some(0), 4, 1024));
        let hog = ClientId::new("hog");
        let trickle = ClientId::new("trickle");

        let (hog_done_tx, hog_done) = mpsc::channel();
        let (trickle_done_tx, trickle_done) = mpsc::channel();
        let a = Arc::clone(&adm);
        let h = hog.clone();
        let hog_thread = std::thread::spawn(move || {
            assert_eq!(
                a.reserve_blocking(&h, 100, None),
                Ok(true),
                "hog must stall"
            );
            hog_done_tx.send(()).unwrap();
        });
        // Let the hog register its demand first: it is at the head of
        // the round-robin and still must not lock the trickle out.
        std::thread::sleep(Duration::from_millis(30));
        let a = Arc::clone(&adm);
        let t = trickle.clone();
        let trickle_thread = std::thread::spawn(move || {
            assert_eq!(
                a.reserve_blocking(&t, 4, None),
                Ok(true),
                "trickle must stall"
            );
            trickle_done_tx.send(()).unwrap();
        });
        std::thread::sleep(Duration::from_millis(30));

        // 8 tokens: DRR gives the hog one quantum (4) and the trickle
        // its full need (4) in the same round.
        adm.refund(8);
        trickle_done
            .recv_timeout(Duration::from_secs(5))
            .expect("trickle must be served from the first refill round");
        assert!(
            hog_done.try_recv().is_err(),
            "hog's 100-token demand cannot be covered by an 8-token refill"
        );

        // Top the rest up; the hog drains it and completes.
        adm.refund(96);
        hog_done
            .recv_timeout(Duration::from_secs(5))
            .expect("hog completes once the pool covers it");
        hog_thread.join().unwrap();
        trickle_thread.join().unwrap();
        assert_eq!(adm.remaining(), Some(0));

        let stats = adm.client_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].client, "hog");
        assert_eq!(stats[0].granted, 100);
        assert_eq!(stats[1].client, "trickle");
        assert_eq!(stats[1].granted, 4);
        assert!(stats.iter().all(|c| c.waiting == 0 && c.bucket == 0));
    }

    #[test]
    fn surplus_after_demand_stays_in_the_pool() {
        let adm = Arc::new(Admission::new(Some(0), 64, 1024));
        let c = ClientId::new("one");
        let (done_tx, done) = mpsc::channel();
        let a = Arc::clone(&adm);
        let id = c.clone();
        let waiter = std::thread::spawn(move || {
            a.reserve_blocking(&id, 5, None).unwrap();
            done_tx.send(()).unwrap();
        });
        std::thread::sleep(Duration::from_millis(30));
        adm.refund(12);
        done.recv_timeout(Duration::from_secs(5)).unwrap();
        waiter.join().unwrap();
        // 5 of the 12 went to the waiter; the rest is surplus.
        assert_eq!(adm.remaining(), Some(7));
    }

    #[test]
    fn registry_is_bounded_under_one_id_per_request_abuse() {
        // Regression: the round-robin registry used to grow with every
        // ClientId ever seen — an abuser minting a fresh id per request
        // grew memory without bound. Now idle clients are evicted LRU.
        let adm = Admission::new(Some(1_000_000), 8, 16);
        for i in 0..10_000 {
            let c = ClientId::new(format!("abuser-{i}"));
            assert!(adm.try_reserve(&c, 1));
        }
        let stats = adm.client_stats();
        assert!(
            stats.len() <= 16,
            "registry holds {} clients over a bound of 16",
            stats.len()
        );
        // The rotation list is bounded too (it drives distribute()).
        let st = adm.lock();
        assert!(st.rr.len() <= 16);
        assert!(st.cursor < st.rr.len().max(1));
    }

    #[test]
    fn eviction_is_lru_by_last_activity() {
        // Capacity 2: "old" and "warm" fill it; touching "warm" again
        // makes "old" the LRU victim when "new" registers.
        let adm = Admission::new(Some(10), 8, 2);
        assert!(adm.try_reserve(&ClientId::new("old"), 1));
        assert!(adm.try_reserve(&ClientId::new("warm"), 1));
        assert!(adm.try_reserve(&ClientId::new("warm"), 1));
        assert!(adm.try_reserve(&ClientId::new("new"), 1));
        let stats = adm.client_stats();
        let tracked: Vec<&str> = stats.iter().map(|c| c.client.as_str()).collect();
        assert_eq!(tracked, vec!["new", "warm"], "LRU victim was \"old\"");
        // No tokens leaked by the eviction: 10 − 4 spent = 6 left.
        assert_eq!(adm.remaining(), Some(6));
    }

    #[test]
    fn eviction_returns_stranded_bucket_tokens_to_the_pool() {
        // A waiter that received a partial DRR grant and then cancelled
        // leaves tokens parked in its bucket with no demand behind
        // them. Evicting that client must hand the tokens back to the
        // shared pool, not leak allowance.
        let adm = Arc::new(Admission::new(Some(0), 2, 1));
        let cancel = Arc::new(AtomicBool::new(false));
        let (done_tx, done) = mpsc::channel();
        let a = Arc::clone(&adm);
        let flag = Arc::clone(&cancel);
        let waiter = std::thread::spawn(move || {
            let c = ClientId::new("stranded");
            done_tx
                .send(a.reserve_blocking(&c, 10, Some(&flag)))
                .unwrap();
        });
        assert!(done.recv_timeout(Duration::from_millis(100)).is_err());
        adm.refund(4); // partial grant: bucket 4, still 6 short
        cancel.store(true, Ordering::Relaxed);
        adm.kick();
        assert_eq!(
            done.recv_timeout(Duration::from_secs(5)).unwrap(),
            Err(Cancelled)
        );
        waiter.join().unwrap();
        assert_eq!(
            adm.remaining(),
            Some(4),
            "the partial grant sits in the cancelled client's bucket"
        );
        // A fresh identity forces the eviction (capacity 1): the
        // stranded 4 tokens come home and cover the new reservation.
        assert!(adm.try_reserve(&ClientId::new("next"), 1));
        assert_eq!(adm.remaining(), Some(3));
        assert_eq!(adm.client_stats().len(), 1);
    }

    /// Regression (liveness): tokens reclaimed by evicting an idle
    /// client must reach — and *wake* — a parked waiter whose demand
    /// they cover. In a quiet system there may never be another refund
    /// to deliver them.
    #[test]
    fn eviction_reclaimed_tokens_wake_a_parked_waiter() {
        let adm = Arc::new(Admission::new(Some(0), 8, 2));

        // Client "stranded": a cancelled partial grant leaves 5 tokens
        // in its bucket with no demand behind them.
        let cancel = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let a = Arc::clone(&adm);
        let flag = Arc::clone(&cancel);
        let stranded = std::thread::spawn(move || {
            tx.send(a.reserve_blocking(&ClientId::new("stranded"), 10, Some(&flag)))
                .unwrap();
        });
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        adm.refund(5);
        cancel.store(true, Ordering::Relaxed);
        adm.kick();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Err(Cancelled)
        );
        stranded.join().unwrap();
        assert_eq!(adm.remaining(), Some(5), "5 tokens stranded in the bucket");

        // Client "parked": waits for 4 tokens on the (empty) pool.
        let (parked_tx, parked_rx) = mpsc::channel();
        let a = Arc::clone(&adm);
        let parked = std::thread::spawn(move || {
            parked_tx
                .send(a.reserve_blocking(&ClientId::new("parked"), 4, None))
                .unwrap();
        });
        assert!(parked_rx.recv_timeout(Duration::from_millis(100)).is_err());

        // A third identity pushes the registry past its bound of 2:
        // "stranded" (idle) is evicted, its 5 tokens return to the pool
        // — and the parked waiter must be granted and woken by THAT,
        // with no refund ever arriving.
        assert!(adm.try_reserve(&ClientId::new("fresh"), 1));
        assert_eq!(
            parked_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(true),
            "eviction-reclaimed tokens must wake the parked waiter"
        );
        parked.join().unwrap();
        // 5 reclaimed − 4 granted to the waiter − 1 to "fresh" = 0.
        assert_eq!(adm.remaining(), Some(0));
    }

    #[test]
    fn parked_waiters_are_never_evicted() {
        let adm = Arc::new(Admission::new(Some(0), 8, 1));
        let parked = ClientId::new("parked");
        let (done_tx, done) = mpsc::channel();
        let a = Arc::clone(&adm);
        let id = parked.clone();
        let waiter = std::thread::spawn(move || {
            done_tx.send(a.reserve_blocking(&id, 5, None)).unwrap();
        });
        assert!(
            done.recv_timeout(Duration::from_millis(100)).is_err(),
            "the dry pool must park the waiter first"
        );
        // A flood of fresh identities wants the single registry slot;
        // the parked client must survive every round.
        for i in 0..64 {
            let _ = adm.try_reserve(&ClientId::new(format!("churn-{i}")), 1);
        }
        assert!(
            adm.client_stats().iter().any(|c| c.client == "parked"),
            "a parked waiter was evicted from the registry"
        );
        // Its registered demand still routes the refill correctly.
        adm.refund(5);
        assert_eq!(done.recv_timeout(Duration::from_secs(5)).unwrap(), Ok(true));
        waiter.join().unwrap();
    }

    #[test]
    fn poisoned_admission_state_recovers() {
        let adm = Arc::new(Admission::new(Some(10), 8, 1024));
        let a = Arc::clone(&adm);
        let _ = std::thread::spawn(move || {
            let _guard = a.state.lock().unwrap();
            panic!("poison the admission mutex");
        })
        .join();
        // Every path must keep working on the poisoned mutex.
        let c = ClientId::new("after");
        assert!(adm.try_reserve(&c, 4));
        adm.refund(4);
        assert_eq!(adm.remaining(), Some(10));
        assert_eq!(adm.reserve_blocking(&c, 10, None), Ok(false));
        assert_eq!(adm.client_stats().len(), 1);
    }
}
