//! `teda-memo` — the sharded single-flight memo behind `teda-core`'s
//! query cache and snippet-class memo and `teda-geo`'s geocoding memo.
//!
//! [`Memo`] maps a text key plus a small integer tag (the query cache's
//! `k`; 0 for an address or a snippet) to a value that is costly to
//! compute. A lookup locks one shard of a sharded map. A miss installs
//! an in-flight marker, releases the shard lock, and computes the value
//! outside it. Callers racing on the *same* key block on that flight,
//! not on the shard, while callers on *different* keys of the same
//! shard proceed at once. So there is one computation per distinct live
//! key, every caller gets the same value, and the expensive backend
//! (search engine, geocoder, classifier) sees deterministic traffic. A
//! computation that unwinds abandons its flight, and the callers
//! waiting on it retry. [`Memo::get_or_compute_many`] resolves a batch
//! of keys with one computation over its misses, under the same single
//! flight.
//!
//! Each shard holds at most its share of the capacity and evicts its
//! least recently used ready entry beyond it (exact LRU by a per-shard
//! tick; shards hold a few entries, so the eviction scan is a short,
//! bounded critical section). An in-flight entry is never a victim.
//! The shard count follows the capacity: 64 when unbounded, else
//! `clamp(capacity / 4, 1, 64)`. A consumer is a typed front-end: it
//! supplies the computation, the counter names it reports under, and
//! whatever it keeps beside the value.
//!
//! Keys are stored compactly. A key's stable FNV-1a hash, mixed with
//! its tag, both routes it to its shard (so shard assignment, and lock
//! interleaving, is reproducible across runs and processes) and keys
//! the shard's index, so a lookup hashes its key once. Each shard keeps
//! its keys back to back in one byte buffer, and an index entry names
//! its key's bytes there, so no key gets an allocation of its own. A
//! hash match whose stored text or tag differs is a miss, and its claim
//! replaces the entry: a collision costs a recomputation, never a wrong
//! value. A removed or evicted key leaves dead bytes behind; a shard
//! whose dead bytes pass half its buffer rewrites the buffer with only
//! its live keys, so the buffer stays within twice the live key bytes.
//! A shard holds under 4 GiB of key bytes.
//!
//! [`CacheStats`] is the hit/miss/eviction snapshot every memo reports.
//! Its counters and the optional `cache_lookup` timing come from
//! `teda-obs`, the crate's one dependency.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, TryLockError};

use teda_obs::{Counter, Histogram, Registry, Stopwatch};

/// Shards of an unbounded [`Memo`], and the most a bounded one gets.
const MAX_SHARDS: usize = 64;

/// Ready entries per shard a bounded [`Memo`] aims for when it derives
/// its shard count from the capacity.
const ENTRIES_PER_SHARD: usize = 4;

/// Rendezvous for callers waiting on another caller's in-flight
/// computation of the same key.
#[derive(Debug)]
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

#[derive(Debug, Clone)]
enum FlightState<V> {
    /// The leader is still computing.
    InFlight,
    /// The leader published a value; followers clone it.
    Done(V),
    /// The leader unwound; followers retry from the shard map.
    Abandoned,
}

impl<V: Clone> Flight<V> {
    /// A fresh in-flight marker, ready to be stored in a [`Slot`].
    #[allow(clippy::new_ret_no_self)]
    fn new() -> Arc<Self> {
        Arc::new(Flight {
            state: Mutex::new(FlightState::InFlight),
            done: Condvar::new(),
        })
    }

    /// Publishes the outcome: `Some` resolves every waiter with the
    /// value, `None` abandons the flight (waiters retry).
    fn finish(&self, outcome: Option<V>) {
        *self.state.lock().expect("memo flight poisoned") = match outcome {
            Some(v) => FlightState::Done(v),
            None => FlightState::Abandoned,
        };
        self.done.notify_all();
    }

    /// Blocks until the flight resolves; `None` means the leader unwound
    /// and the caller should race to become the new leader.
    fn wait(&self) -> Option<V> {
        let mut state = self.state.lock().expect("memo flight poisoned");
        loop {
            match &*state {
                FlightState::InFlight => {
                    state = self.done.wait(state).expect("memo flight poisoned");
                }
                FlightState::Done(v) => return Some(v.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }
}

/// What one [`Memo`] probe found.
enum Lookup<V> {
    /// The memoized value.
    Ready(V),
    /// Another caller's computation, to wait on.
    Pending(Arc<Flight<V>>),
    /// Nothing: the caller installed this flight and must publish it.
    Claimed(Arc<Flight<V>>),
}

/// One memo cell: a finished value, or a computation currently in
/// flight.
#[derive(Debug, Clone)]
enum Slot<V> {
    /// The value is memoized.
    Ready(V),
    /// The first caller is computing; later callers wait on the flight.
    Pending(Arc<Flight<V>>),
}

impl<V> Slot<V> {
    /// Whether this slot holds a finished value (Pending slots are never
    /// eviction victims).
    fn is_ready(&self) -> bool {
        matches!(self, Slot::Ready(_))
    }

    /// Whether this slot holds exactly `flight` (leaders check before
    /// publishing, in case a concurrent `clear` or a colliding claim
    /// dropped the slot).
    fn holds(&self, flight: &Arc<Flight<V>>) -> bool {
        matches!(self, Slot::Pending(f) if Arc::ptr_eq(f, flight))
    }
}

/// Stable FNV-1a over the key bytes. Independent of the process's hash
/// seed, so shard assignment — and therefore lock interleaving — is
/// reproducible across runs.
fn fnv1a(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The hash of `(key, tag)` that routes it to a shard and keys that
/// shard's index: the key's [`fnv1a`] mixed with the tag (tag 0 leaves
/// it as is).
fn key_hash(key: &str, tag: usize) -> u64 {
    fnv1a(key.as_bytes()) ^ (tag as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The hasher of a shard's index, whose keys are already [`key_hash`]es.
/// The shard was chosen by the hash's low bits, so the index takes its
/// high half instead.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(bytes).rotate_left(32);
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash.rotate_left(32);
    }
}

/// A fixed array of independently locked shards, routed by hash.
#[derive(Debug)]
struct Shards<S> {
    shards: Vec<Mutex<S>>,
}

impl<S: Default> Shards<S> {
    /// `n` default-initialized shards (rounded up to 1).
    fn new(n: usize) -> Self {
        Shards {
            shards: (0..n.max(1)).map(|_| Mutex::new(S::default())).collect(),
        }
    }
}

impl<S> Shards<S> {
    /// Number of shards.
    fn len(&self) -> usize {
        self.shards.len()
    }

    /// Locks the shard `hash` routes to.
    fn lock(&self, hash: u64) -> MutexGuard<'_, S> {
        self.shard(hash).lock().expect("memo shard poisoned")
    }

    /// Locks the shard `hash` routes to if no one holds it; `None` when
    /// the lock is taken (a timed lookup starts its clock only then).
    fn try_lock(&self, hash: u64) -> Option<MutexGuard<'_, S>> {
        match self.shard(hash).try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(_)) => panic!("memo shard poisoned"),
        }
    }

    /// The shard `hash` routes to.
    fn shard(&self, hash: u64) -> &Mutex<S> {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Locks every shard in turn (stats, clears).
    fn for_each(&self, mut f: impl FnMut(&mut S)) {
        for s in &self.shards {
            f(&mut s.lock().expect("memo shard poisoned"));
        }
    }
}

/// Runs `compute` as the leader of an installed flight, guaranteeing
/// `publish` is called exactly once before the value is returned or a
/// panic resumes: with `Some(&value)` on success, with `None` if
/// `compute` unwinds.
fn lead<V>(compute: impl FnOnce() -> V, publish: impl FnOnce(Option<&V>)) -> V {
    struct Guard<V, P: FnOnce(Option<&V>)> {
        publish: Option<P>,
        _value: std::marker::PhantomData<fn(&V)>,
    }
    impl<V, P: FnOnce(Option<&V>)> Drop for Guard<V, P> {
        fn drop(&mut self) {
            if let Some(publish) = self.publish.take() {
                publish(None);
            }
        }
    }
    let mut guard = Guard {
        publish: Some(publish),
        _value: std::marker::PhantomData,
    };
    let value = compute();
    (guard.publish.take().expect("publish consumed twice"))(Some(&value));
    value
}

/// The flights one [`Memo::get_or_compute_many`] round claimed, by
/// claim order; a published one is taken out. Dropping the claims
/// abandons every flight still open, so a batch that unwinds frees its
/// waiters as a single leader's [`lead`] does.
struct Claims<'a, 'k, V: Clone> {
    memo: &'a Memo<V>,
    keys: &'a [(&'k str, usize)],
    open: Vec<Option<(usize, Arc<Flight<V>>)>>,
}

impl<V: Clone> Drop for Claims<'_, '_, V> {
    fn drop(&mut self) {
        for (i, flight) in self.open.iter_mut().filter_map(Option::take) {
            let (key, tag) = self.keys[i];
            self.memo.publish(key_hash(key, tag), &flight, None);
        }
    }
}

/// A point-in-time copy of a memo's accounting: hits (computations
/// saved), misses (computations run) and evictions (entries dropped
/// for capacity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that ran the computation.
    pub misses: u64,
    /// Entries dropped to honour a capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One memo entry: where its key's bytes sit in the shard's buffer, its
/// tag, its slot and its recency.
#[derive(Debug)]
struct Entry<V> {
    start: u32,
    len: u32,
    tag: usize,
    slot: Slot<V>,
    /// Shard tick at the last hit (LRU recency). Pending entries carry
    /// their install tick but are never eviction victims.
    last_used: u64,
}

impl<V> Entry<V> {
    /// The entry's key bytes in its shard's buffer `keys`.
    fn key_in<'k>(&self, keys: &'k [u8]) -> &'k [u8] {
        &keys[self.start as usize..][..self.len as usize]
    }
}

/// One shard: an index from [`key_hash`] to entry, the entries' keys
/// back to back in one buffer, the buffer's dead bytes, the shard-local
/// LRU tick and the count of `Ready` entries the capacity bound applies
/// to.
#[derive(Debug)]
struct Shard<V> {
    index: HashMap<u64, Entry<V>, BuildHasherDefault<Prehashed>>,
    keys: Vec<u8>,
    /// Bytes of `keys` no entry names any more.
    dead: usize,
    tick: u64,
    ready: usize,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            index: HashMap::default(),
            keys: Vec::new(),
            dead: 0,
            tick: 0,
            ready: 0,
        }
    }
}

impl<V> Shard<V> {
    /// Advances the LRU tick: every lookup, publish and restore is one
    /// shard operation.
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The `(key, tag)` entry, ready or pending, under its `hash`. An
    /// entry under the same hash with other text or another tag is not
    /// it.
    fn get_mut(&mut self, hash: u64, key: &str, tag: usize) -> Option<&mut Entry<V>> {
        let entry = self.index.get_mut(&hash)?;
        (entry.tag == tag && entry.key_in(&self.keys) == key.as_bytes()).then_some(entry)
    }

    /// Installs `(key, tag)` under its `hash`, replacing the entry a
    /// colliding key holds there, and appends the key to the buffer.
    fn insert(&mut self, hash: u64, key: &str, tag: usize, slot: Slot<V>, tick: u64) {
        self.remove(hash);
        let start = u32::try_from(self.keys.len()).expect("a memo shard holds under 4 GiB of keys");
        let len = u32::try_from(key.len()).expect("a memo key is under 4 GiB");
        self.keys.extend_from_slice(key.as_bytes());
        if slot.is_ready() {
            self.ready += 1;
        }
        self.index.insert(
            hash,
            Entry {
                start,
                len,
                tag,
                slot,
                last_used: tick,
            },
        );
    }

    /// Removes the entry under `hash` if present, keeping the ready
    /// count. Its key bytes go dead, and a buffer more than half dead is
    /// rewritten with only the live keys.
    fn remove(&mut self, hash: u64) {
        let Some(entry) = self.index.remove(&hash) else {
            return;
        };
        if entry.slot.is_ready() {
            self.ready -= 1;
        }
        self.dead += entry.len as usize;
        if self.dead * 2 > self.keys.len() {
            let mut keys = Vec::with_capacity(self.keys.len() - self.dead);
            for entry in self.index.values_mut() {
                let start = keys.len() as u32;
                keys.extend_from_slice(entry.key_in(&self.keys));
                entry.start = start;
            }
            self.keys = keys;
            self.dead = 0;
        }
    }

    /// Evicts least recently used `Ready` entries until at most
    /// `capacity` remain, and returns how many went. Pending entries are
    /// never victims.
    fn evict_over(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.ready > capacity {
            // last_used ticks are unique (one per shard op), so the
            // minimum is independent of the index's order.
            let victim = self
                .index
                .iter()
                .filter(|(_, e)| e.slot.is_ready())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&hash, _)| hash);
            let Some(hash) = victim else {
                break;
            };
            self.remove(hash);
            evicted += 1;
        }
        evicted
    }
}

/// A sharded, thread-safe, optionally bounded single-flight memo of
/// `(text, tag) → V`. See the crate doc for the protocol, the key
/// layout and the eviction rule.
#[derive(Debug)]
pub struct Memo<V> {
    shards: Shards<Shard<V>>,
    /// `Ready` entries allowed per shard; `usize::MAX` when unbounded.
    per_shard_capacity: usize,
    /// Lookups answered from the memo (computations saved).
    hits: Arc<Counter>,
    /// Lookups that ran the computation.
    misses: Arc<Counter>,
    /// Entries evicted to honour the capacity bound.
    evictions: Arc<Counter>,
    /// Time from lookup to a memoized answer (fast-path hits and
    /// follower waits), one observation per hit. Only waits are timed:
    /// a hit that took its shard lock at the first try holds it for one
    /// map probe, far below the histogram's 1 µs resolution, and records
    /// 0 µs without reading the clock. Unset (the default) records
    /// nothing; see [`time_lookups`](Self::time_lookups).
    lookup: OnceLock<Arc<Histogram>>,
}

impl<V: Clone> Memo<V> {
    /// An empty memo holding at most `capacity` ready entries (`None`:
    /// unbounded). The shard count follows the capacity: 64 when
    /// unbounded, else `clamp(capacity / 4, 1, 64)`, and the bound is
    /// split evenly across the shards (at least one entry each).
    pub fn new(capacity: Option<usize>) -> Self {
        let (shards, per_shard_capacity) = match capacity {
            Some(cap) => {
                let n = (cap / ENTRIES_PER_SHARD).clamp(1, MAX_SHARDS);
                (n, cap.div_ceil(n).max(1))
            }
            None => (MAX_SHARDS, usize::MAX),
        };
        Memo {
            shards: Shards::new(shards),
            per_shard_capacity,
            hits: Arc::default(),
            misses: Arc::default(),
            evictions: Arc::default(),
            lookup: OnceLock::new(),
        }
    }

    /// Registers the memo's hit, miss and eviction counters on a serving
    /// node's registry under `names`, in that order.
    pub fn register_counters(&self, obs: &Registry, names: [&'static str; 3]) {
        let [hits, misses, evictions] = names;
        obs.register_counter(hits, &self.hits);
        obs.register_counter(misses, &self.misses);
        obs.register_counter(evictions, &self.evictions);
    }

    /// Records every hit's lookup time into `hist` from now on (the
    /// first call wins).
    pub fn time_lookups(&self, hist: Arc<Histogram>) {
        let _ = self.lookup.set(hist);
    }

    /// A stopwatch running only when the lookup histogram is set and
    /// recording.
    fn lookup_watch(&self) -> Stopwatch {
        Stopwatch::started_if(self.lookup.get().is_some_and(|h| h.is_enabled()))
    }

    /// Starts `watch` unless it runs already: the lookup is about to
    /// wait.
    fn time_wait(&self, watch: &mut Stopwatch) {
        if !watch.is_running() {
            *watch = self.lookup_watch();
        }
    }

    /// Counts one hit and records its lookup time: the waited time when
    /// `watch` runs, else 0 µs.
    fn hit(&self, value: V, watch: Stopwatch) -> V {
        self.hits.inc();
        if let Some(h) = self.lookup.get() {
            h.record(watch.elapsed_us());
        }
        value
    }

    /// The memoized value of `(key, tag)`, running `compute` once per
    /// distinct *live* key across all threads: racing callers of the
    /// same key wait for the first caller's flight, distinct keys never
    /// wait on each other's computations, and an evicted key is simply
    /// computed again. `compute` runs on the calling thread, so it needs
    /// neither `Send` nor `Sync`.
    pub fn get_or_compute(&self, key: &str, tag: usize, compute: impl FnOnce() -> V) -> V {
        let hash = key_hash(key, tag);
        let mut watch = Stopwatch::started_if(false);
        let flight = loop {
            match self.lookup(hash, key, tag, &mut watch) {
                Lookup::Ready(value) => return self.hit(value, watch),
                Lookup::Claimed(flight) => break flight,
                // Follower: wait for the leader's value (a hit — the
                // memo saved this computation). `None` means the leader
                // unwound; loop and race to become the new leader.
                Lookup::Pending(flight) => {
                    self.time_wait(&mut watch);
                    if let Some(value) = flight.wait() {
                        return self.hit(value, watch);
                    }
                }
            }
        };
        // Leader: on unwind the slot is removed, so followers retry
        // instead of hanging.
        lead(compute, |value| self.publish(hash, &flight, value))
    }

    /// One probe of `(key, tag)`, whose [`key_hash`] is `hash`, under its
    /// shard lock (a contended lock starts `watch`): a ready value is
    /// touched and returned; a pending one hands back its flight to wait
    /// on; an absent one is claimed, counted as a miss, by installing a
    /// fresh flight the caller must publish.
    fn lookup(&self, hash: u64, key: &str, tag: usize, watch: &mut Stopwatch) -> Lookup<V> {
        let mut shard = match self.shards.try_lock(hash) {
            Some(shard) => shard,
            None => {
                self.time_wait(watch);
                self.shards.lock(hash)
            }
        };
        let tick = shard.next_tick();
        match shard.get_mut(hash, key, tag) {
            Some(entry) => match &entry.slot {
                Slot::Ready(value) => {
                    entry.last_used = tick;
                    Lookup::Ready(value.clone())
                }
                Slot::Pending(flight) => Lookup::Pending(Arc::clone(flight)),
            },
            None => {
                self.misses.inc();
                let flight = Flight::new();
                shard.insert(hash, key, tag, Slot::Pending(Arc::clone(&flight)), tick);
                Lookup::Claimed(flight)
            }
        }
    }

    /// The memoized values of a batch of `(key, tag)` pairs, in batch
    /// order, with [`get_or_compute`](Self::get_or_compute)'s contract
    /// per distinct key. The batch resolves in four steps:
    ///
    /// 1. repeated keys collapse onto their first position;
    /// 2. every absent key is claimed by installing its flight, while
    ///    ready keys answer at once;
    /// 3. `compute` runs once over the claimed keys (distinct, in batch
    ///    order) and must call `publish(j, value)` exactly once per
    ///    claimed key `j`; each value is published to the memo, and to
    ///    any thread waiting on it, as soon as it is handed over;
    /// 4. only then does the caller wait on keys other threads lead.
    ///
    /// A leader therefore never waits before it has published, so
    /// overlapping batches on several threads cannot deadlock, and a key
    /// repeated within the batch is never waited on by its own leader.
    /// A key whose leader unwound is claimed afresh in another round, so
    /// `compute` may run more than once. If `compute` unwinds, or returns
    /// leaving a claimed key unpublished, that key's flight is abandoned
    /// (its waiters retry) and the call panics.
    ///
    /// Counters and `cache_lookup` observations are per position, as a
    /// loop of `get_or_compute` calls would count them: a claimed key is
    /// a miss, and every other position (ready, waited on, or a repeat)
    /// a hit.
    pub fn get_or_compute_many(
        &self,
        keys: &[(&str, usize)],
        mut compute: impl FnMut(&[(&str, usize)], &mut dyn FnMut(usize, V)),
    ) -> Vec<V> {
        let mut first: HashMap<(&str, usize), usize> = HashMap::with_capacity(keys.len());
        let mut todo = Vec::new();
        let origin: Vec<usize> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                *first.entry(*key).or_insert_with(|| {
                    todo.push(i);
                    i
                })
            })
            .collect();
        let mut out: Vec<Option<V>> = vec![None; keys.len()];
        while !todo.is_empty() {
            let mut claimed = Claims {
                memo: self,
                keys,
                open: Vec::new(),
            };
            let mut waiting = Vec::new();
            for &i in &todo {
                let (key, tag) = keys[i];
                let mut watch = Stopwatch::started_if(false);
                match self.lookup(key_hash(key, tag), key, tag, &mut watch) {
                    Lookup::Ready(value) => out[i] = Some(self.hit(value, watch)),
                    Lookup::Pending(flight) => waiting.push((i, flight, watch)),
                    Lookup::Claimed(flight) => claimed.open.push(Some((i, flight))),
                }
            }
            if !claimed.open.is_empty() {
                let batch: Vec<(&str, usize)> = claimed
                    .open
                    .iter()
                    .flatten()
                    .map(|&(i, _)| keys[i])
                    .collect();
                compute(&batch, &mut |j, value| {
                    let (i, flight) = claimed.open[j]
                        .take()
                        .expect("each claimed key is published once");
                    let (key, tag) = keys[i];
                    self.publish(key_hash(key, tag), &flight, Some(&value));
                    out[i] = Some(value);
                });
                assert!(
                    claimed.open.iter().all(Option::is_none),
                    "compute left a claimed key unpublished"
                );
            }
            todo.clear();
            for (i, flight, mut watch) in waiting {
                self.time_wait(&mut watch);
                match flight.wait() {
                    Some(value) => out[i] = Some(self.hit(value, watch)),
                    None => todo.push(i),
                }
            }
        }
        origin
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let value = out[f].clone().expect("every distinct key resolved");
                if f == i {
                    value
                } else {
                    self.hit(value, Stopwatch::started_if(false))
                }
            })
            .collect()
    }

    /// Publishes a flight's outcome to the entry under `hash`: `Some`
    /// marks it ready (and enforces the capacity bound), `None` (abandon)
    /// removes it. Only touches the entry if it still holds this very
    /// flight (a concurrent `clear` or a colliding claim may have dropped
    /// it); the flight's waiters are resolved either way.
    fn publish(&self, hash: u64, flight: &Arc<Flight<V>>, value: Option<&V>) {
        let mut shard = self.shards.lock(hash);
        let tick = shard.next_tick();
        if let Some(entry) = shard.index.get_mut(&hash).filter(|e| e.slot.holds(flight)) {
            match value {
                Some(v) => {
                    entry.slot = Slot::Ready(v.clone());
                    entry.last_used = tick;
                    shard.ready += 1;
                    let evicted = shard.evict_over(self.per_shard_capacity);
                    self.evictions.add(evicted);
                }
                None => shard.remove(hash),
            }
        }
        drop(shard);
        flight.finish(value.cloned());
    }

    /// Installs `value` as a ready `(key, tag)` entry unless the memo
    /// holds that key already (live state wins), enforcing the capacity
    /// bound as a publish does. Hits and misses are untouched: a restore
    /// is not traffic. Returns whether the entry was installed.
    pub fn restore(&self, key: &str, tag: usize, value: V) -> bool {
        let hash = key_hash(key, tag);
        let mut shard = self.shards.lock(hash);
        let tick = shard.next_tick();
        if shard.get_mut(hash, key, tag).is_some() {
            return false;
        }
        shard.insert(hash, key, tag, Slot::Ready(value), tick);
        let evicted = shard.evict_over(self.per_shard_capacity);
        self.evictions.add(evicted);
        true
    }

    /// Every ready entry as `(key, tag, value)`, sorted by `(key, tag)`
    /// so that equal memo states list equal entries whatever the shard
    /// order. In-flight entries have nothing to list.
    pub fn ready_entries(&self) -> Vec<(String, usize, V)> {
        let mut out = Vec::new();
        self.shards.for_each(|shard| {
            for entry in shard.index.values() {
                if let Slot::Ready(value) = &entry.slot {
                    let key = String::from_utf8(entry.key_in(&shard.keys).to_vec())
                        .expect("a memo key is the bytes of a str");
                    out.push((key, entry.tag, value.clone()));
                }
            }
        });
        out.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }
}

impl<V> Memo<V> {
    /// The effective total capacity (`None` when unbounded): the
    /// per-shard bound times the shard count, so a capacity that does
    /// not divide evenly rounds up.
    pub fn capacity(&self) -> Option<usize> {
        (self.per_shard_capacity != usize::MAX).then(|| self.per_shard_capacity * self.shards.len())
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Number of memoized entries (in-flight computations not counted).
    pub fn len(&self) -> usize {
        let mut total = 0;
        self.shards.for_each(|s| total += s.ready);
        total
    }

    /// Whether nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry. In-flight computations finish and answer their
    /// waiters, but leave nothing behind. The counters keep counting:
    /// they are monotonic, so a scraper never sees a reset.
    pub fn clear(&self) {
        self.shards.for_each(|shard| {
            shard.index.clear();
            shard.keys.clear();
            shard.dead = 0;
            shard.ready = 0;
            shard.tick = 0;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn flight_resolves_waiters_with_the_value() {
        let flight: Arc<Flight<u32>> = Flight::new();
        let waiter = {
            let flight = Arc::clone(&flight);
            std::thread::spawn(move || flight.wait())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        flight.finish(Some(7));
        assert_eq!(waiter.join().unwrap(), Some(7));
        // late waiters see the resolved state immediately
        assert_eq!(flight.wait(), Some(7));
    }

    #[test]
    fn abandoned_flight_wakes_waiters_with_none() {
        let flight: Arc<Flight<u32>> = Flight::new();
        let waiter = {
            let flight = Arc::clone(&flight);
            std::thread::spawn(move || flight.wait())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        flight.finish(None);
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn lead_publishes_some_on_success() {
        let published = std::cell::Cell::new(0u32);
        let v = lead(
            || 41 + 1,
            |out| {
                published.set(*out.expect("success publishes Some"));
            },
        );
        assert_eq!(v, 42);
        assert_eq!(published.get(), 42);
    }

    #[test]
    fn lead_publishes_none_on_unwind() {
        let aborted = Arc::new(AtomicUsize::new(0));
        let a = Arc::clone(&aborted);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lead::<u32>(
                || panic!("compute exploded"),
                move |out| {
                    assert!(out.is_none());
                    a.fetch_add(1, Ordering::Relaxed);
                },
            )
        }));
        assert!(unwound.is_err(), "the panic must propagate");
        assert_eq!(aborted.load(Ordering::Relaxed), 1, "publish ran once");
    }

    #[test]
    fn shards_route_stably_and_lock_independently() {
        let shards: Shards<HashMap<String, u32>> = Shards::new(4);
        assert_eq!(shards.len(), 4);
        shards.lock(key_hash("alpha", 0)).insert("alpha".into(), 1);
        shards.lock(key_hash("beta", 0)).insert("beta".into(), 2);
        // the same key routes to the same shard every time
        assert_eq!(shards.lock(key_hash("alpha", 0)).get("alpha"), Some(&1));
        assert_eq!(shards.lock(fnv1a(b"beta")).get("beta"), Some(&2));
        let mut total = 0;
        shards.for_each(|m| total += m.len());
        assert_eq!(total, 2);
    }

    #[test]
    fn zero_shards_rounds_up_to_one() {
        let shards: Shards<Vec<u8>> = Shards::new(0);
        assert_eq!(shards.len(), 1);
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a("a") per the published test vectors.
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        // tag 0 hashes the key alone; another tag moves it
        assert_eq!(key_hash("a", 0), fnv1a(b"a"));
        assert_ne!(key_hash("a", 1), key_hash("a", 0));
    }

    #[test]
    fn slot_helpers() {
        let flight: Arc<Flight<u8>> = Flight::new();
        let pending = Slot::Pending(Arc::clone(&flight));
        let other: Slot<u8> = Slot::Pending(Flight::new());
        assert!(!pending.is_ready());
        assert!(pending.holds(&flight));
        assert!(!other.holds(&flight));
        assert!(Slot::Ready(1u8).is_ready());
    }

    #[test]
    fn layout_follows_the_capacity() {
        let layout = |capacity| {
            let memo: Memo<u8> = Memo::new(capacity);
            (memo.shards.len(), memo.per_shard_capacity, memo.capacity())
        };
        assert_eq!(
            layout(Some(256)),
            (64, 4, Some(256)),
            "the served 256-entry cache"
        );
        assert_eq!(layout(None), (64, usize::MAX, None), "unbounded");
        for cap in 1..=7 {
            assert_eq!(layout(Some(cap)), (1, cap, Some(cap)), "capacity {cap}");
        }
        assert_eq!(layout(Some(0)), (1, 1, Some(1)), "at least one entry");
        assert_eq!(
            layout(Some(9)),
            (2, 5, Some(10)),
            "an uneven split rounds up"
        );
        assert_eq!(layout(Some(65_536)), (64, 1024, Some(65_536)));
    }

    /// The memo's answer to one lookup of the reference runs below.
    fn value_of(key: &str, tag: usize) -> String {
        format!("{key}#{tag}")
    }

    /// A reference LRU per shard: `(key, tag)` pairs from least to most
    /// recently used, routed as the memo routes them.
    struct Model {
        shards: Vec<Vec<(String, usize)>>,
        per_shard: usize,
        stats: CacheStats,
    }

    impl Model {
        fn of(memo: &Memo<String>) -> Model {
            Model {
                shards: vec![Vec::new(); memo.shards.len()],
                per_shard: memo.per_shard_capacity,
                stats: CacheStats::default(),
            }
        }

        /// Looks `(key, tag)` up; returns whether it was a hit.
        fn lookup(&mut self, key: &str, tag: usize) -> bool {
            let n = self.shards.len() as u64;
            let shard = &mut self.shards[(key_hash(key, tag) % n) as usize];
            let pair = (key.to_owned(), tag);
            let hit = match shard.iter().position(|e| *e == pair) {
                Some(pos) => {
                    shard.remove(pos);
                    true
                }
                None => false,
            };
            shard.push(pair);
            if hit {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
                if shard.len() > self.per_shard {
                    shard.remove(0);
                    self.stats.evictions += 1;
                }
            }
            hit
        }
    }

    /// Each shard's ready entries from least to most recently used.
    fn recency(memo: &Memo<String>) -> Vec<Vec<(String, usize)>> {
        let mut out = Vec::new();
        memo.shards.for_each(|shard| {
            let mut entries: Vec<(u64, String, usize)> = shard
                .index
                .values()
                .map(|e| {
                    let key = String::from_utf8(e.key_in(&shard.keys).to_vec()).unwrap();
                    (e.last_used, key, e.tag)
                })
                .collect();
            entries.sort();
            out.push(
                entries
                    .into_iter()
                    .map(|(_, key, tag)| (key, tag))
                    .collect(),
            );
        });
        out
    }

    /// The keys of the reference runs: mixed lengths, the empty key, a
    /// key that is a prefix of another, and multi-byte UTF-8.
    fn model_keys() -> Vec<String> {
        let short = [
            "",
            "a",
            "ab",
            "é",
            "日本語のキー",
            "🦀🦀",
            "key1",
            "key10",
            "ключ",
        ];
        let long = ["k".repeat(300), "ü".repeat(120), "a b\tc\n".repeat(7)];
        short.map(String::from).into_iter().chain(long).collect()
    }

    proptest! {
        /// Random lookups and clears against the reference LRU, at
        /// capacities 1–9 and unbounded: every answer, the recency order
        /// of every shard (so each eviction's victim), the size bound and
        /// the counters agree after every step.
        #[test]
        fn lru_matches_a_reference_model(
            capacity in 1usize..=10,
            ops in collection::vec((0usize..12, 0usize..2, 0usize..40), 0..150),
        ) {
            let memo: Memo<String> = Memo::new((capacity <= 9).then_some(capacity));
            let mut model = Model::of(&memo);
            let keys = model_keys();
            let computed = std::cell::Cell::new(0u64);
            for (key, tag, roll) in ops {
                if roll == 0 {
                    memo.clear();
                    model.shards.iter_mut().for_each(Vec::clear);
                    continue;
                }
                let key = &keys[key];
                let hit = model.lookup(key, tag);
                let before = computed.get();
                let value = memo.get_or_compute(key, tag, || {
                    computed.set(computed.get() + 1);
                    value_of(key, tag)
                });
                prop_assert_eq!(value, value_of(key, tag));
                prop_assert_eq!(computed.get() == before, hit, "hit or miss of {}#{}", key, tag);
                prop_assert_eq!(recency(&memo), model.shards.clone());
                prop_assert_eq!(memo.stats(), model.stats);
                prop_assert!(memo.len() <= memo.capacity().unwrap_or(usize::MAX));
            }
        }
    }

    /// End-to-end: the memo assembled from [`Shards`] and [`Flight`]
    /// computes once per distinct key under concurrency.
    #[test]
    fn assembled_memo_is_single_flight() {
        let memo: Memo<Arc<str>> = Memo::new(None);
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in ["melisse", "louvre", "bayona"] {
                        let value = memo.get_or_compute(key, 10, || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            Arc::from(value_of(key, 10))
                        });
                        assert_eq!(*value, value_of(key, 10));
                    }
                });
            }
        });
        assert_eq!(
            calls.load(Ordering::Relaxed),
            3,
            "single flight per distinct key"
        );
        let stats = memo.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 21);
    }

    #[test]
    fn distinct_keys_do_not_serialize_behind_a_slow_search() {
        use std::sync::mpsc;
        use std::time::Duration;

        // One shard: both keys *must* share it. Each computation waits
        // until the other has started, so both finish only if they run
        // at once: outside the shard lock.
        let memo: Memo<String> = Memo::new(Some(4));
        assert_eq!(memo.shards.len(), 1);
        let (alpha_started, alpha_seen) = mpsc::channel();
        let (beta_started, beta_seen) = mpsc::channel();
        std::thread::scope(|s| {
            for (key, started, other) in [
                ("alpha", alpha_started, beta_seen),
                ("beta", beta_started, alpha_seen),
            ] {
                let memo = &memo;
                s.spawn(move || {
                    let value = memo.get_or_compute(key, 2, || {
                        started.send(()).unwrap();
                        other
                            .recv_timeout(Duration::from_secs(10))
                            .expect("two distinct computations serialized");
                        value_of(key, 2)
                    });
                    assert_eq!(value, value_of(key, 2));
                });
            }
        });
        assert_eq!(memo.stats().misses, 2);
    }

    #[test]
    fn abandoned_flight_lets_the_next_caller_retry() {
        let memo: Memo<String> = Memo::new(Some(4));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute("boom", 3, || panic!("backend exploded"))
        }));
        assert!(unwound.is_err(), "first call must propagate the panic");
        // The abandoned flight's slot was removed — the retry computes
        // again instead of hanging on a dead Pending marker.
        assert_eq!(
            memo.get_or_compute("boom", 3, || value_of("boom", 3)),
            "boom#3"
        );
        assert_eq!(memo.stats().misses, 2, "both attempts were misses");
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn pending_flights_are_never_evicted() {
        use std::sync::mpsc;

        let memo: Memo<String> = Memo::new(Some(1));
        let (started, flight_installed) = mpsc::channel();
        let (release, gate) = mpsc::channel();
        std::thread::scope(|s| {
            let slow = s.spawn(|| {
                memo.get_or_compute("slow", 2, move || {
                    started.send(()).unwrap();
                    gate.recv().unwrap();
                    value_of("slow", 2)
                })
            });
            // While "slow" is in flight, fill the shard past capacity:
            // "b" evicts "a" and "c" evicts "b", never the pending entry.
            flight_installed.recv().unwrap();
            for key in ["a", "b", "c"] {
                memo.get_or_compute(key, 2, || value_of(key, 2));
            }
            assert_eq!(memo.stats().evictions, 2);
            release.send(()).unwrap();
            let value = slow.join().expect("slow computation panicked");
            assert_eq!(value, "slow#2");
        });
        // Its publish then evicts "c", and the bound holds again.
        let keys: Vec<String> = memo
            .ready_entries()
            .into_iter()
            .map(|(key, _, _)| key)
            .collect();
        assert_eq!(keys, ["slow"]);
        assert_eq!(memo.stats().evictions, 3);
    }

    #[test]
    fn lookups_read_no_clock_unless_they_can_record() {
        let memo: Memo<u8> = Memo::new(Some(1));
        assert!(!memo.lookup_watch().is_running(), "no histogram");
        memo.time_lookups(Registry::noop("off").histogram(teda_obs::stage::CACHE_LOOKUP));
        assert!(!memo.lookup_watch().is_running(), "disabled histogram");

        let live: Memo<u8> = Memo::new(Some(1));
        live.time_lookups(Registry::new("on").histogram(teda_obs::stage::CACHE_LOOKUP));
        assert!(live.lookup_watch().is_running(), "recording histogram");
    }

    /// A batch computation that answers every claimed key with
    /// [`value_of`], counting each key it computes in `calls`.
    fn answer_all(
        calls: &Mutex<HashMap<String, usize>>,
        batch: &[(&str, usize)],
        publish: &mut dyn FnMut(usize, String),
    ) {
        for (j, &(key, tag)) in batch.iter().enumerate() {
            *calls.lock().unwrap().entry(key.to_owned()).or_default() += 1;
            publish(j, value_of(key, tag));
        }
    }

    /// Runs `f` on the `(key, tag)` entry of `memo`, ready or pending,
    /// under its shard lock.
    fn with_entry<V, R>(
        memo: &Memo<V>,
        key: &str,
        tag: usize,
        f: impl FnOnce(Option<&mut Entry<V>>) -> R,
    ) -> R {
        let hash = key_hash(key, tag);
        f(memo.shards.lock(hash).get_mut(hash, key, tag))
    }

    /// Whether `(key, tag)` is in the memo, ready or pending.
    fn present(memo: &Memo<String>, key: &str, tag: usize) -> bool {
        with_entry(memo, key, tag, |e| e.is_some())
    }

    /// Overlapping batches from 2 and from 8 threads: every key is
    /// computed exactly once, and every thread returns with the right
    /// values. Each computation holds its values back until every key
    /// of the batch is installed, so a thread's claimed keys are still
    /// pending while the others look them up: the threads must wait on
    /// each other's flights, and a leader that waited before publishing
    /// would deadlock here.
    #[test]
    fn overlapping_batches_compute_each_key_once() {
        for (threads, n_keys, rounds) in [(2usize, 2usize, 50), (8, 16, 20)] {
            for _ in 0..rounds {
                let memo: Memo<String> = Memo::new(None);
                let calls = Mutex::new(HashMap::new());
                let keys: Vec<String> = (0..n_keys).map(|k| format!("key{k}")).collect();
                let start = std::sync::Barrier::new(threads);
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let (memo, calls, keys, start) = (&memo, &calls, &keys, &start);
                        s.spawn(move || {
                            // Thread t starts at key t and repeats one.
                            let mut batch: Vec<(&str, usize)> = (0..n_keys)
                                .map(|i| (keys[(t + i) % n_keys].as_str(), 1))
                                .collect();
                            batch.push(batch[0]);
                            start.wait();
                            let values = memo.get_or_compute_many(&batch, |claimed, publish| {
                                while !keys.iter().all(|k| present(memo, k, 1)) {
                                    std::thread::yield_now();
                                }
                                answer_all(calls, claimed, publish)
                            });
                            let want: Vec<String> =
                                batch.iter().map(|&(k, tag)| value_of(k, tag)).collect();
                            assert_eq!(values, want);
                        });
                    }
                });
                let calls = calls.into_inner().unwrap();
                assert_eq!(calls.len(), n_keys);
                assert!(
                    calls.values().all(|&n| n == 1),
                    "{threads} threads: {calls:?}"
                );
                let stats = memo.stats();
                assert_eq!(stats.misses, n_keys as u64);
                assert_eq!(stats.hits, (threads * (n_keys + 1) - n_keys) as u64);
            }
        }
    }

    /// Whether `(key, tag)` holds a published value.
    fn ready(memo: &Memo<String>, key: &str, tag: usize) -> bool {
        with_entry(memo, key, tag, |e| e.is_some_and(|e| e.slot.is_ready()))
    }

    /// The order that makes overlapping batches safe, forced: another
    /// leader holds "b" and will publish it only once "a" is ready,
    /// while this batch leads "a" and needs "b". The batch must publish
    /// "a" before it waits on "b"; one that waited first would never
    /// see "b", and the other leader gives up after 10 s.
    #[test]
    fn a_leader_publishes_before_it_waits() {
        use std::time::{Duration, Instant};

        let memo: Memo<String> = Memo::new(None);
        let (claimed_b, b_claimed) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let memo = &memo;
            let other = s.spawn(move || {
                memo.get_or_compute_many(&[("b", 0)], |batch, publish| {
                    claimed_b.send(()).unwrap();
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !ready(memo, "a", 0) {
                        assert!(
                            Instant::now() < deadline,
                            "the batch waited before publishing"
                        );
                        std::thread::yield_now();
                    }
                    publish(0, value_of(batch[0].0, 0));
                })
            });
            b_claimed.recv().unwrap();
            let values = memo.get_or_compute_many(&[("a", 0), ("b", 0)], |batch, publish| {
                assert_eq!(batch, [("a", 0)], "b is the other leader's");
                publish(0, value_of("a", 0));
            });
            assert_eq!(values, ["a#0", "b#0"]);
            assert_eq!(other.join().unwrap(), ["b#0"]);
        });
    }

    #[test]
    fn a_key_repeated_in_one_batch_is_computed_once_and_counted_per_position() {
        let memo: Memo<String> = Memo::new(Some(1));
        let calls = Mutex::new(HashMap::new());
        let batch = [("a", 0), ("b", 0), ("a", 0), ("a", 1), ("b", 0)];
        let values = memo.get_or_compute_many(&batch, |b, p| answer_all(&calls, b, p));
        assert_eq!(values, ["a#0", "b#0", "a#0", "a#1", "b#0"]);
        let calls = calls.into_inner().unwrap();
        assert_eq!(
            (calls["a"], calls["b"]),
            (2, 1),
            "a#0, a#1 and b#0 once each"
        );
        assert_eq!(
            memo.stats(),
            CacheStats {
                hits: 2,
                misses: 3,
                evictions: 2
            },
            "the capacity-1 memo keeps only the last publish"
        );
    }

    /// A batch whose computation publishes one key and then panics: the
    /// published key stays, the other claimed keys' flights are
    /// abandoned, and a thread already waiting on one of them retries
    /// and computes it itself.
    #[test]
    fn a_panicking_batch_abandons_only_its_unpublished_flights() {
        let memo: Memo<String> = Memo::new(None);
        let waiters = |key: &str| {
            with_entry(&memo, key, 0, |e| match e {
                Some(Entry {
                    slot: Slot::Pending(flight),
                    ..
                }) => Arc::strong_count(flight),
                _ => 0,
            })
        };
        let (claimed, was_claimed) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let (memo, waiters) = (&memo, &waiters);
            let leader = s.spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    memo.get_or_compute_many(&[("a", 0), ("b", 0), ("c", 0)], |batch, publish| {
                        assert_eq!(batch.len(), 3);
                        publish(0, value_of("a", 0));
                        claimed.send(()).unwrap();
                        // The slot, the batch's claim and the waiter.
                        while waiters("b") < 3 {
                            std::thread::yield_now();
                        }
                        panic!("backend exploded mid-batch");
                    })
                }))
            });
            was_claimed.recv().unwrap();
            let waiter = s.spawn(|| memo.get_or_compute("b", 0, || "retried".to_owned()));
            assert!(leader.join().unwrap().is_err(), "the panic propagates");
            assert_eq!(waiter.join().unwrap(), "retried");
        });
        assert_eq!(memo.get_or_compute("a", 0, || unreachable!()), "a#0");
        assert_eq!(memo.get_or_compute("c", 0, || "fresh".into()), "fresh");
        assert_eq!(memo.len(), 3);
        assert_eq!(
            memo.stats(),
            CacheStats {
                hits: 1,
                misses: 5,
                evictions: 0
            },
            "a, b, c, then b and c again are misses; a's second lookup a hit"
        );
    }

    #[test]
    fn a_batch_that_leaves_a_key_unpublished_abandons_it() {
        let memo: Memo<String> = Memo::new(None);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute_many(&[("a", 0), ("b", 0)], |_, publish| {
                publish(1, value_of("b", 0))
            })
        }));
        assert!(unwound.is_err());
        assert!(!present(&memo, "a", 0), "the unpublished flight is gone");
        assert_eq!(memo.get_or_compute("b", 0, || unreachable!()), "b#0");
    }

    #[test]
    fn pending_batch_entries_are_never_evicted() {
        use std::sync::mpsc;

        let memo: Memo<String> = Memo::new(Some(1));
        let (started, flights_installed) = mpsc::channel();
        let (release, gate) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let slow = s.spawn(|| {
                memo.get_or_compute_many(&[("slow", 2), ("slower", 2)], move |batch, publish| {
                    started.send(()).unwrap();
                    gate.recv().unwrap();
                    for (j, &(key, tag)) in batch.iter().enumerate() {
                        publish(j, value_of(key, tag));
                    }
                })
            });
            // While both keys are in flight, fill the shard past
            // capacity: "b" evicts "a" and "c" evicts "b", never a
            // pending entry.
            flights_installed.recv().unwrap();
            for key in ["a", "b", "c"] {
                memo.get_or_compute(key, 2, || value_of(key, 2));
            }
            assert_eq!(memo.stats().evictions, 2);
            assert!(present(&memo, "slow", 2) && present(&memo, "slower", 2));
            release.send(()).unwrap();
            assert_eq!(slow.join().unwrap(), ["slow#2", "slower#2"]);
        });
        // Each publish then evicts the least recent ready entry.
        let keys: Vec<String> = memo
            .ready_entries()
            .into_iter()
            .map(|(key, _, _)| key)
            .collect();
        assert_eq!(keys, ["slower"]);
        assert_eq!(memo.stats().evictions, 4);
    }

    proptest! {
        /// The batch path counts as a loop of single lookups over the
        /// same sequence: the same values, hits, misses, memo contents
        /// and `cache_lookup` observations, batch after batch.
        #[test]
        fn batches_count_like_the_per_key_path(
            batches in collection::vec(
                collection::vec((0usize..8, 0usize..2), 0..10),
                0..12,
            ),
        ) {
            let batched: Memo<String> = Memo::new(None);
            let single: Memo<String> = Memo::new(None);
            let hist_batched = Registry::new("batched").histogram(teda_obs::stage::CACHE_LOOKUP);
            let hist_single = Registry::new("single").histogram(teda_obs::stage::CACHE_LOOKUP);
            batched.time_lookups(Arc::clone(&hist_batched));
            single.time_lookups(Arc::clone(&hist_single));
            let calls = Mutex::new(HashMap::new());
            for batch in batches {
                let keys: Vec<String> = batch.iter().map(|(k, _)| format!("key{k}")).collect();
                let batch: Vec<(&str, usize)> = keys
                    .iter()
                    .zip(&batch)
                    .map(|(key, &(_, tag))| (key.as_str(), tag))
                    .collect();
                let got = batched.get_or_compute_many(&batch, |b, p| answer_all(&calls, b, p));
                let want: Vec<String> = batch
                    .iter()
                    .map(|&(key, tag)| single.get_or_compute(key, tag, || value_of(key, tag)))
                    .collect();
                prop_assert_eq!(got, want);
                prop_assert_eq!(batched.stats(), single.stats());
                prop_assert_eq!(batched.ready_entries(), single.ready_entries());
                prop_assert_eq!(hist_batched.snapshot(), hist_single.snapshot());
            }
        }
    }

    #[test]
    fn restore_keeps_live_entries_and_enforces_the_bound() {
        let memo: Memo<String> = Memo::new(Some(2));
        memo.get_or_compute("a", 0, || "live".into());
        assert!(!memo.restore("a", 0, "snapshot".into()), "live state wins");
        assert!(memo.restore("b", 0, "b".into()));
        assert!(
            memo.restore("c", 0, "c".into()),
            "evicts a, the least recent"
        );
        assert_eq!(
            memo.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                evictions: 1
            }
        );
        let keys: Vec<String> = memo
            .ready_entries()
            .into_iter()
            .map(|(key, _, _)| key)
            .collect();
        assert_eq!(keys, ["b", "c"]);
    }

    /// Two `(key, tag)` pairs forged onto one index key, as a hash
    /// collision would put them: neither ever answers with the other's
    /// value. Each claim replaces the other's entry, and a pending entry
    /// that is replaced still resolves its waiters.
    #[test]
    fn a_hash_match_with_other_text_is_a_miss() {
        let memo: Memo<&str> = Memo::new(None);
        let hash = key_hash("menu cuisine", 0);
        let probe = |key, tag| memo.lookup(hash, key, tag, &mut Stopwatch::started_if(false));
        let claim = |key, tag| match probe(key, tag) {
            Lookup::Claimed(flight) => flight,
            _ => panic!("{key}#{tag} must miss"),
        };

        let restaurant = claim("menu cuisine", 0);
        memo.publish(hash, &restaurant, Some(&"restaurant"));
        assert!(matches!(
            probe("menu cuisine", 0),
            Lookup::Ready("restaurant")
        ));

        // Other text, then the same text under another tag, at the same
        // index key: each misses, and its claim replaces the entry.
        let museum = claim("gallery", 0);
        let waiter = match probe("gallery", 0) {
            Lookup::Pending(flight) => flight,
            _ => panic!("the claim is pending"),
        };
        let other_tag = claim("menu cuisine", 1);
        memo.publish(hash, &museum, Some(&"museum"));
        assert_eq!(waiter.wait(), Some("museum"), "a replaced flight resolves");
        assert_eq!(memo.len(), 0, "but leaves nothing behind");
        memo.publish(hash, &other_tag, Some(&"other"));

        assert!(matches!(probe("menu cuisine", 1), Lookup::Ready("other")));
        let again = claim("gallery", 0);
        memo.publish(hash, &again, Some(&"museum"));
        assert!(matches!(probe("gallery", 0), Lookup::Ready("museum")));
        let again = claim("menu cuisine", 0);
        memo.publish(hash, &again, Some(&"restaurant"));
        assert_eq!(
            memo.ready_entries(),
            [("menu cuisine".into(), 0, "restaurant")]
        );
        assert_eq!(
            memo.stats().evictions,
            0,
            "a replacement is not an eviction"
        );
    }

    /// Thousands of evictions at capacity 8 over keys of mixed lengths
    /// and scripts: every shard's buffer stays within twice its live key
    /// bytes, and `ready_entries` then `restore` round-trip every key
    /// byte for byte.
    #[test]
    fn churn_keeps_each_key_buffer_within_twice_its_live_bytes() {
        let key_of =
            |i: usize| format!("{}{i}", ["", "é", "日本", "🦀", "k"][i % 5].repeat(i % 23));
        let memo: Memo<usize> = Memo::new(Some(8));
        assert_eq!(memo.shards.len(), 2);
        for i in 0..5_000 {
            let key = key_of(i);
            assert_eq!(memo.get_or_compute(&key, i % 3, || i), i);
            if i % 7 == 0 {
                // An abandoned flight removes its entry too.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    memo.get_or_compute(&format!("{key}!"), 0, || panic!("unwound"))
                }));
            }
            memo.shards.for_each(|shard| {
                let live: usize = shard.index.values().map(|e| e.len as usize).sum();
                assert_eq!(shard.keys.len() - shard.dead, live, "step {i}");
                assert!(shard.keys.len() <= 2 * live, "step {i}");
            });
        }
        assert!(memo.stats().evictions > 4_900);

        let entries = memo.ready_entries();
        assert_eq!(entries.len(), 8);
        for (key, tag, i) in &entries {
            assert_eq!(key.as_bytes(), key_of(*i).as_bytes());
            assert_eq!(*tag, i % 3);
        }
        let restored: Memo<usize> = Memo::new(Some(8));
        for (key, tag, i) in &entries {
            assert!(restored.restore(key, *tag, *i));
        }
        assert_eq!(restored.ready_entries(), entries);
        assert_eq!(restored.stats().evictions, 0);
    }
}
