//! In-workspace stand-in for `rayon`.
//!
//! The build environment has no network access, so the workspace vendors
//! the small slice of rayon's API the batch annotation engine uses:
//! `slice.par_iter().map(f).collect::<Vec<_>>()` (order-preserving) and
//! [`current_num_threads`]. Parallelism is fork/join over
//! `std::thread::scope` with **chunked dynamic scheduling**: the input is
//! split into several chunks per worker and idle workers pull the next
//! chunk off a shared atomic counter. That is not full work stealing,
//! but it removes the tail latency the old one-contiguous-chunk-per-
//! worker split left on skewed inputs (one worker stuck with all the
//! expensive tables while the rest sat idle); a straggler now strands at
//! most one chunk, not a whole 1/N share.
//!
//! Thread count honours the `RAYON_NUM_THREADS` environment variable, as
//! upstream rayon does, falling back to the machine's available
//! parallelism.
//!
//! On top of the slice API, [`par_map_windowed`] is the streaming
//! primitive the annotation pipeline's source/sink driver uses: a
//! pull-based producer is mapped through a worker pool with a bounded
//! number of items in flight, and results are delivered to a consumer in
//! input order. Upstream rayon has no direct equivalent (its bridges
//! want an indexed collection up front); this stays in the compat crate
//! so a future swap to real rayon only has to reimplement this one
//! function on `rayon::scope`.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Mutex};

pub mod prelude {
    //! Glob-import target mirroring `rayon::prelude`.
    pub use crate::{FromParMap, IntoParallelRefIterator, ParIter, ParMap};
}

/// Number of worker threads a parallel operation will use.
pub fn current_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Entry point: `.par_iter()` on slices and `Vec`s.
pub trait IntoParallelRefIterator<'a> {
    type Item: Sync + 'a;

    /// A parallel iterator borrowing the elements.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// A borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps every element through `f` in parallel; output order matches
    /// input order exactly (rayon's indexed guarantee).
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// The result of [`ParIter::map`], awaiting a `collect`.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Runs the map and collects the results in input order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
        C: FromParMap<R>,
    {
        C::from_ordered(par_map_ordered(self.items, &self.f))
    }
}

/// Collection types `ParMap::collect` can build (only `Vec` is needed).
pub trait FromParMap<R> {
    fn from_ordered(items: Vec<R>) -> Self;
}

impl<R> FromParMap<R> for Vec<R> {
    fn from_ordered(items: Vec<R>) -> Self {
        items
    }
}

/// Chunks handed out per worker. More chunks, better balance on skewed
/// inputs; fewer chunks, less claiming overhead. 4 keeps the worst-case
/// straggler tail at ~1/(4·workers) of the input while the atomic
/// counter stays ice-cold next to the per-item work this workspace
/// fans out (search + classify per cell or table).
const CHUNKS_PER_WORKER: usize = 4;

/// Order-preserving parallel map with chunked dynamic scheduling: the
/// input is split into `CHUNKS_PER_WORKER × workers` chunks, workers
/// claim the next chunk off a shared atomic counter, and the results
/// are stitched back in chunk order — output order matches input order
/// exactly, whatever the claim interleaving was.
fn par_map_ordered<'a, T, R, F>(items: &'a [T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let workers = current_num_threads().min(items.len()).max(1);
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let n_chunks = (workers * CHUNKS_PER_WORKER).min(items.len());
    let chunk = items.len().div_ceil(n_chunks);
    let parts: Vec<&'a [T]> = items.chunks(chunk).collect();
    let next = AtomicUsize::new(0);

    let mut claimed: Vec<(usize, Vec<R>)> = Vec::with_capacity(parts.len());
    std::thread::scope(|scope| {
        let parts = &parts;
        let next = &next;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut mine: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(part) = parts.get(i) else { break };
                        mine.push((i, part.iter().map(f).collect()));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            claimed.extend(h.join().expect("rayon-compat worker panicked"));
        }
    });
    claimed.sort_unstable_by_key(|(i, _)| *i);
    claimed.into_iter().flat_map(|(_, part)| part).collect()
}

/// Maps a pull-based producer through `f` across worker threads with at
/// most `window` items in flight, delivering `(index, item, result)` to
/// `consume` strictly in production order.
///
/// The in-flight bound counts every item that has been pulled from
/// `produce` but not yet handed to `consume` — whether it is queued for
/// a worker, being mapped, or parked in the reorder buffer waiting for
/// an earlier straggler. Memory is therefore O(`window`), independent of
/// the stream length.
///
/// `produce` and `consume` both run on the caller's thread only (they
/// need no synchronization); `f` runs on the workers. Worker count is
/// `min(current_num_threads(), window)`, so `window == 1` degrades to a
/// strictly sequential pull → map → push loop. A panic in `f` or
/// `produce` propagates to the caller.
///
/// Because the one driver thread alternates between pulling and
/// emitting, already-finished results are always drained to `consume`
/// before each (potentially blocking) `produce` call; results that
/// finish *while* a pull is blocked (a quiet live feed) are delivered
/// as soon as it returns.
pub fn par_map_windowed<T, R, P, F, C>(window: usize, mut produce: P, f: F, mut consume: C)
where
    T: Send,
    R: Send,
    P: FnMut() -> Option<T>,
    F: Fn(&T) -> R + Sync,
    C: FnMut(usize, T, R),
{
    let window = window.max(1);
    let workers = current_num_threads().min(window);
    if workers == 1 {
        // One worker cannot overlap anything: skip the thread machinery
        // (and its channel hops) entirely.
        let mut index = 0;
        while let Some(item) = produce() {
            let result = f(&item);
            consume(index, item, result);
            index += 1;
        }
        return;
    }

    // work: driver → workers; done: workers → driver. Both bounded by
    // the window, so neither queue can grow past the in-flight cap. A
    // panic in `f` travels through the done channel as its payload, so
    // the driver can never block on a completion that will not come.
    type Mapped<T, R> = (usize, T, Result<R, Box<dyn std::any::Any + Send>>);
    let (work_tx, work_rx) = mpsc::sync_channel::<(usize, T)>(window);
    let (done_tx, done_rx) = mpsc::sync_channel::<Mapped<T, R>>(window);
    let work_rx = Mutex::new(work_rx);

    std::thread::scope(|scope| {
        let f = &f;
        let work_rx = &work_rx;
        for _ in 0..workers {
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                loop {
                    // Hold the receiver lock only for the handoff; the
                    // map runs unlocked so workers overlap.
                    let next = {
                        let rx = work_rx.lock().expect("windowed work queue poisoned");
                        rx.recv()
                    };
                    let Ok((index, item)) = next else { break };
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&item)));
                    if done_tx.send((index, item, result)).is_err() {
                        break; // driver unwound
                    }
                }
            });
        }
        drop(done_tx);

        let drive = || drive_window(window, &mut produce, &mut consume, &work_tx, &done_rx);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(drive));
        // Close the work queue (on success *and* unwind) so workers exit
        // and the scope can join them instead of deadlocking.
        drop(work_tx);
        if let Err(payload) = outcome {
            std::panic::resume_unwind(payload);
        }
    });
}

/// The driver loop of [`par_map_windowed`]: issue until the window is
/// full, then block on one completion, then emit the contiguous prefix.
#[allow(clippy::type_complexity)]
fn drive_window<T, R>(
    window: usize,
    produce: &mut impl FnMut() -> Option<T>,
    consume: &mut impl FnMut(usize, T, R),
    work_tx: &SyncSender<(usize, T)>,
    done_rx: &Receiver<(usize, T, Result<R, Box<dyn std::any::Any + Send>>)>,
) {
    let mut issued = 0usize; // pulled from the producer
    let mut emitted = 0usize; // handed to the consumer
    let mut reorder: BTreeMap<usize, (T, R)> = BTreeMap::new();
    let mut source_done = false;

    /// Parks one completion and emits the contiguous prefix.
    fn settle<T, R>(
        completion: (usize, T, Result<R, Box<dyn std::any::Any + Send>>),
        reorder: &mut BTreeMap<usize, (T, R)>,
        emitted: &mut usize,
        consume: &mut impl FnMut(usize, T, R),
    ) {
        let (index, item, result) = completion;
        match result {
            Ok(result) => {
                reorder.insert(index, (item, result));
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
        while let Some((item, result)) = reorder.remove(&*emitted) {
            consume(*emitted, item, result);
            *emitted += 1;
        }
    }

    loop {
        // Refill: pull while the window has room. `send` cannot block —
        // the channel holds at most `in flight ≤ window` items. Before
        // each (potentially blocking) pull, deliver whatever already
        // finished, so a slow or idle source never withholds completed
        // results that are ready to emit.
        while !source_done && issued - emitted < window {
            while let Ok(completion) = done_rx.try_recv() {
                settle(completion, &mut reorder, &mut emitted, consume);
            }
            match produce() {
                Some(item) => {
                    work_tx
                        .send((issued, item))
                        .expect("windowed workers exited early");
                    issued += 1;
                }
                None => source_done = true,
            }
        }
        if issued == emitted {
            debug_assert!(source_done, "window empty only at end of stream");
            break;
        }
        // Drain: block for one completion, park it, emit in order.
        let completion = done_rx
            .recv()
            .expect("windowed workers exited with work in flight");
        settle(completion, &mut reorder, &mut emitted, consume);
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = Vec::new();
        let out: Vec<u32> = none.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        // One item per worker, hence one item per chunk. Each item
        // waits (bounded) until every item has arrived: they can only
        // all arrive if they run at once, on distinct threads. A serial
        // pool times out here instead of hanging.
        let n = super::current_num_threads();
        let rendezvous = (Mutex::new(0usize), Condvar::new());
        let xs: Vec<usize> = (0..n).collect();
        let ids: Vec<std::thread::ThreadId> = xs
            .par_iter()
            .map(|_| {
                let (arrived, all_here) = &rendezvous;
                let mut count = arrived.lock().expect("rendezvous lock");
                *count += 1;
                all_here.notify_all();
                let _ = all_here
                    .wait_timeout_while(count, Duration::from_secs(5), |c| *c < n)
                    .expect("rendezvous lock");
                std::thread::current().id()
            })
            .collect();
        let distinct: HashSet<_> = ids.iter().collect();
        assert_eq!(
            distinct.len(),
            n,
            "expected {n} items on {n} distinct threads"
        );
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn skewed_workloads_preserve_order() {
        use std::time::Duration;
        // Heavily skewed per-item cost (front-loaded): dynamic chunk
        // claiming must still stitch results back in input order.
        let xs: Vec<u64> = (0..64).collect();
        let out: Vec<u64> = xs
            .par_iter()
            .map(|&x| {
                if x < 4 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                x * 3
            })
            .collect();
        assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn every_item_is_mapped_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // The shared-counter claim loop must cover all chunks exactly
        // once — no item dropped, none mapped twice.
        let calls = AtomicUsize::new(0);
        let xs: Vec<u32> = (0..1023).collect();
        let out: Vec<u32> = xs
            .par_iter()
            .map(|&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x
            })
            .collect();
        assert_eq!(out, xs);
        assert_eq!(calls.load(Ordering::Relaxed), 1023);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            let xs: Vec<u32> = (0..128).collect();
            let _: Vec<u32> = xs
                .par_iter()
                .map(|&x| {
                    if x == 77 {
                        panic!("boom");
                    }
                    x
                })
                .collect();
        });
        assert!(caught.is_err(), "a worker panic must reach the caller");
    }

    mod windowed {
        use super::super::par_map_windowed;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;

        /// Runs a 0..n counter stream through the window and returns the
        /// consumed (index, item, result) triples.
        fn run(n: u64, window: usize, f: impl Fn(&u64) -> u64 + Sync) -> Vec<(usize, u64, u64)> {
            let mut next = 0u64;
            let mut out = Vec::new();
            par_map_windowed(
                window,
                || {
                    if next < n {
                        next += 1;
                        Some(next - 1)
                    } else {
                        None
                    }
                },
                f,
                |i, item, result| out.push((i, item, result)),
            );
            out
        }

        #[test]
        fn results_arrive_in_input_order() {
            for window in [1, 2, 3, 7, 64, 1000] {
                let out = run(100, window, |&x| x * 2);
                let expected: Vec<(usize, u64, u64)> =
                    (0..100).map(|x| (x as usize, x, x * 2)).collect();
                assert_eq!(out, expected, "window {window}");
            }
        }

        #[test]
        fn skewed_work_still_emits_in_order() {
            // Early items are slow: later completions must park in the
            // reorder buffer, not overtake.
            let out = run(32, 8, |&x| {
                if x < 3 {
                    std::thread::sleep(Duration::from_millis(25));
                }
                x + 100
            });
            let indices: Vec<usize> = out.iter().map(|&(i, _, _)| i).collect();
            assert_eq!(indices, (0..32).collect::<Vec<_>>());
        }

        #[test]
        fn in_flight_never_exceeds_the_window() {
            // produce/consume run on the driver thread, so plain counters
            // observe the true pulled-minus-emitted gap.
            for window in [1, 2, 5] {
                let pulled = std::cell::Cell::new(0usize);
                let emitted = std::cell::Cell::new(0usize);
                let peak = std::cell::Cell::new(0usize);
                let mut next = 0u64;
                par_map_windowed(
                    window,
                    || {
                        if next < 50 {
                            next += 1;
                            pulled.set(pulled.get() + 1);
                            peak.set(peak.get().max(pulled.get() - emitted.get()));
                            Some(next - 1)
                        } else {
                            None
                        }
                    },
                    |&x| {
                        std::thread::sleep(Duration::from_micros(200));
                        x
                    },
                    |_, _, _| emitted.set(emitted.get() + 1),
                );
                assert!(
                    peak.get() <= window,
                    "window {window} held {} items in flight",
                    peak.get()
                );
                assert_eq!(emitted.get(), 50);
            }
        }

        #[test]
        fn empty_stream_is_fine() {
            let out = run(0, 4, |&x| x);
            assert!(out.is_empty());
        }

        #[test]
        fn map_panic_reaches_the_caller() {
            for window in [1, 4] {
                let caught = std::panic::catch_unwind(|| {
                    run(64, window, |&x| {
                        if x == 13 {
                            panic!("boom");
                        }
                        x
                    })
                });
                assert!(caught.is_err(), "window {window} swallowed the panic");
            }
        }

        #[test]
        fn finished_results_are_delivered_before_the_next_blocking_pull() {
            // A slow producer (stand-in for a quiet live feed): by the
            // time it yields item i, every earlier item has long been
            // mapped — the driver must have delivered them to the
            // consumer already, not parked them until the window fills
            // or the stream ends.
            let consumed = std::cell::Cell::new(0usize);
            let mut next = 0u64;
            par_map_windowed(
                4,
                || {
                    if next >= 8 {
                        return None;
                    }
                    if next > 0 {
                        // Let in-flight items finish before this pull
                        // returns (the pull itself is the stall).
                        std::thread::sleep(Duration::from_millis(40));
                        assert!(
                            consumed.get() + 2 >= next as usize,
                            "stalled source withheld finished results: \
                             {} delivered before pull {}",
                            consumed.get(),
                            next
                        );
                    }
                    next += 1;
                    Some(next - 1)
                },
                |&x| x,
                |_, _, _| consumed.set(consumed.get() + 1),
            );
            assert_eq!(consumed.get(), 8);
        }

        #[test]
        fn every_item_maps_exactly_once() {
            let calls = AtomicUsize::new(0);
            let out = run(257, 6, |&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x
            });
            assert_eq!(out.len(), 257);
            assert_eq!(calls.load(Ordering::Relaxed), 257);
        }
    }
}
