//! `teda-memo` — the sharded single-flight memoization machinery shared
//! by `teda-core`'s query cache and `teda-geo`'s geocoding memo.
//!
//! Both caches follow the same concurrency protocol: a lookup locks one
//! shard of a sharded map, and a miss installs an in-flight marker (a
//! [`Flight`]), releases the shard lock, and computes the value outside
//! it. Callers racing on the *same* key block on that flight — not on
//! the shard — while callers on *different* keys of the same shard
//! proceed immediately. One computation per distinct live key, identical
//! values for every caller, and the expensive backend (search engine,
//! geocoder) sees deterministic traffic.
//!
//! What stays with each consumer is the part that genuinely differs:
//! the map layout (the query cache keys entries by query string with a
//! per-`k` list; the geocode memo is a flat address map) and the
//! **eviction policy** (exact per-shard LRU vs. wholesale shard
//! flush). This crate owns everything else:
//!
//! * [`Flight`] — the rendezvous a miss leader publishes through and
//!   followers wait on, including the abandoned-on-unwind state;
//! * [`Slot`] — the ready-or-pending cell a shard map stores;
//! * [`Shards`] — the lock array with stable FNV-1a key routing, so
//!   shard assignment (and therefore lock interleaving) is reproducible
//!   across runs and processes;
//! * [`lead`] — leader execution: runs the computation and guarantees
//!   the publish callback fires exactly once, with `None` if the
//!   computation unwinds, so followers retry instead of hanging;
//! * [`CacheStats`] — the hit/miss/eviction snapshot every memo
//!   reports. Each memo keeps its own `teda-obs` counters and registers
//!   them on the node it serves.
//!
//! The crate is dependency-free (std only) so both consumers can use it
//! without widening the workspace graph.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};

/// Rendezvous for callers waiting on another caller's in-flight
/// computation of the same key.
#[derive(Debug)]
pub struct Flight<V> {
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
    pub fn new() -> Arc<Self> {
        Arc::new(Flight {
            state: Mutex::new(FlightState::InFlight),
            done: Condvar::new(),
        })
    }

    /// Publishes the outcome: `Some` resolves every waiter with the
    /// value, `None` abandons the flight (waiters retry).
    pub fn finish(&self, outcome: Option<V>) {
        *self.state.lock().expect("memo flight poisoned") = match outcome {
            Some(v) => FlightState::Done(v),
            None => FlightState::Abandoned,
        };
        self.done.notify_all();
    }

    /// Blocks until the flight resolves; `None` means the leader unwound
    /// and the caller should race to become the new leader.
    pub fn wait(&self) -> Option<V> {
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

/// One memo cell: a finished value, or a computation currently in
/// flight. Consumers store this in whatever map layout suits their key.
#[derive(Debug, Clone)]
pub enum Slot<V> {
    /// The value is memoized.
    Ready(V),
    /// The first caller is computing; later callers wait on the flight.
    Pending(Arc<Flight<V>>),
}

impl<V> Slot<V> {
    /// Whether this slot holds a finished value (Pending slots are never
    /// eviction victims in either consumer).
    pub fn is_ready(&self) -> bool {
        matches!(self, Slot::Ready(_))
    }

    /// Whether this slot holds exactly `flight` (leaders check before
    /// publishing, in case a concurrent `clear` dropped the slot).
    pub fn holds(&self, flight: &Arc<Flight<V>>) -> bool {
        matches!(self, Slot::Pending(f) if Arc::ptr_eq(f, flight))
    }
}

/// Stable FNV-1a over the key bytes. Independent of the process's hash
/// seed, so shard assignment — and therefore lock interleaving — is
/// reproducible across runs.
pub fn fnv1a(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fixed array of independently locked shards with stable key routing.
#[derive(Debug)]
pub struct Shards<S> {
    shards: Vec<Mutex<S>>,
}

impl<S: Default> Shards<S> {
    /// `n` default-initialized shards (rounded up to 1).
    pub fn new(n: usize) -> Self {
        Shards {
            shards: (0..n.max(1)).map(|_| Mutex::new(S::default())).collect(),
        }
    }
}

impl<S> Shards<S> {
    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Always at least one shard.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Locks the shard `key` routes to.
    pub fn lock(&self, key: &[u8]) -> MutexGuard<'_, S> {
        self.lock_hashed(fnv1a(key))
    }

    /// Locks the shard a key whose [`fnv1a`] is `hash` routes to, for a
    /// caller that keeps the hash (to key its shard map by it, say), so
    /// a lookup hashes its key once.
    pub fn lock_hashed(&self, hash: u64) -> MutexGuard<'_, S> {
        self.shard(hash).lock().expect("memo shard poisoned")
    }

    /// Locks the shard `key` routes to if no one holds it; `None` when
    /// the lock is taken (callers that time their waits start the clock
    /// only then).
    pub fn try_lock(&self, key: &[u8]) -> Option<MutexGuard<'_, S>> {
        match self.shard(fnv1a(key)).try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(_)) => panic!("memo shard poisoned"),
        }
    }

    /// The shard a key whose [`fnv1a`] is `hash` routes to.
    fn shard(&self, hash: u64) -> &Mutex<S> {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Locks every shard in turn (stats, clears).
    pub fn for_each(&self, mut f: impl FnMut(&mut S)) {
        for s in &self.shards {
            f(&mut s.lock().expect("memo shard poisoned"));
        }
    }
}

/// Runs `compute` as the leader of an installed flight, guaranteeing
/// `publish` is called exactly once before the value is returned or a
/// panic resumes: with `Some(&value)` on success, with `None` if
/// `compute` unwinds. The publish callback is where the consumer
/// re-locks the shard, swaps the Pending slot for Ready (or removes it),
/// enforces its eviction policy, and calls [`Flight::finish`].
pub fn lead<V>(compute: impl FnOnce() -> V, publish: impl FnOnce(Option<&V>)) -> V {
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

#[cfg(test)]
mod tests {
    use super::*;
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
        shards.lock(b"alpha").insert("alpha".into(), 1);
        shards.lock(b"beta").insert("beta".into(), 2);
        // the same key routes to the same shard every time, by key or
        // by its hash
        assert_eq!(shards.lock(b"alpha").get("alpha"), Some(&1));
        assert_eq!(shards.lock_hashed(fnv1a(b"beta")).get("beta"), Some(&2));
        let mut total = 0;
        shards.for_each(|m| total += m.len());
        assert_eq!(total, 2);
    }

    #[test]
    fn zero_shards_rounds_up_to_one() {
        let shards: Shards<Vec<u8>> = Shards::new(0);
        assert_eq!(shards.len(), 1);
        assert!(!shards.is_empty());
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a("a") per the published test vectors.
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
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

    /// End-to-end: a tiny memo assembled from the pieces behaves like the
    /// consumers do — one computation per distinct key under concurrency.
    #[test]
    fn assembled_memo_is_single_flight() {
        struct TinyMemo {
            shards: Shards<HashMap<String, Slot<Arc<str>>>>,
            hits: AtomicUsize,
            misses: AtomicUsize,
        }
        impl TinyMemo {
            fn get_or_compute(
                &self,
                key: &str,
                compute: &(impl Fn(&str) -> String + Sync),
            ) -> Arc<str> {
                loop {
                    let flight = {
                        let mut shard = self.shards.lock(key.as_bytes());
                        match shard.get(key) {
                            Some(Slot::Ready(v)) => {
                                self.hits.fetch_add(1, Ordering::Relaxed);
                                return Arc::clone(v);
                            }
                            Some(Slot::Pending(f)) => Arc::clone(f),
                            None => {
                                self.misses.fetch_add(1, Ordering::Relaxed);
                                let flight = Flight::new();
                                shard.insert(key.to_owned(), Slot::Pending(Arc::clone(&flight)));
                                drop(shard);
                                return lead(
                                    || Arc::<str>::from(compute(key)),
                                    |out| {
                                        let mut shard = self.shards.lock(key.as_bytes());
                                        let held = shard.get(key).is_some_and(|s| s.holds(&flight));
                                        if held {
                                            match out {
                                                Some(v) => {
                                                    shard.insert(
                                                        key.to_owned(),
                                                        Slot::Ready(Arc::clone(v)),
                                                    );
                                                }
                                                None => {
                                                    shard.remove(key);
                                                }
                                            }
                                        }
                                        drop(shard);
                                        flight.finish(out.cloned());
                                    },
                                );
                            }
                        }
                    };
                    if let Some(v) = flight.wait() {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return v;
                    }
                }
            }
        }

        let memo = TinyMemo {
            shards: Shards::new(2),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        };
        let calls = AtomicUsize::new(0);
        let compute = |key: &str| {
            calls.fetch_add(1, Ordering::Relaxed);
            format!("value-of-{key}")
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in ["a", "b", "c"] {
                        assert_eq!(
                            &*memo.get_or_compute(key, &compute),
                            format!("value-of-{key}")
                        );
                    }
                });
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 3, "one computation per key");
        assert_eq!(memo.misses.load(Ordering::Relaxed), 3);
        assert_eq!(memo.hits.load(Ordering::Relaxed), 21);
    }
}
