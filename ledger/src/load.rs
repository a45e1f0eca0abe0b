//! Load generation: closed-loop wire clients, and the corpus writer of
//! `ingest_live`, clocked by their request stream.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use teda_kb::{EntityId, EntityType, TypeCategory, World};
use teda_service::AnnotationService;
use teda_simkit::{derive_seed, rng_from_seed};
use teda_websim::template::{entity_page, PageFlavour};
use teda_wire::WireClient;

use crate::catalogue::WORKERS;
use crate::fixture::Request;
use crate::stats::percentile;

/// What one closed-loop drive observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Send-to-reply time of every successful request, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// When each of those replies arrived, in nanoseconds since the drive
    /// began (parallel to `latencies_ns`).
    pub done_ns: Vec<u64>,
    pub attempted: u64,
    /// Transport errors, typed refusals and replies that differ from the
    /// expected rendering.
    pub failed: u64,
    /// Wire bytes of every frame sent and received.
    pub bytes: u64,
    pub elapsed: Duration,
}

impl Outcome {
    pub fn completed(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    pub fn req_per_s(&self) -> f64 {
        self.completed() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The median latency of each second of the drive, averaged over its
    /// `seconds` whole seconds (replies after the last one count in it).
    ///
    /// Two closed-loop clients on two cores see a bimodal latency:
    /// requests that end up sharing a core take twice as long, in spells
    /// of a few seconds. The pooled median jumps between the modes as
    /// their shares cross one half; this average moves with the share.
    pub fn median_latency_ns(&self, seconds: f64) -> f64 {
        let n_bins = (seconds.floor() as usize).max(1);
        let mut bins = vec![Vec::new(); n_bins];
        for (&done, &latency) in self.done_ns.iter().zip(&self.latencies_ns) {
            bins[((done / 1_000_000_000) as usize).min(n_bins - 1)].push(latency);
        }
        let medians: Vec<f64> = bins
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| percentile(b, 0.5) as f64)
            .collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    }

    /// Folds one client's counts into the drive's.
    fn merge(&mut self, client: Outcome) {
        self.latencies_ns.extend(client.latencies_ns);
        self.done_ns.extend(client.done_ns);
        self.attempted += client.attempted;
        self.failed += client.failed;
        self.bytes += client.bytes;
    }
}

/// Bytes of the reply frame carrying `payload`: `OK `, the escaped
/// payload (each of `\ \n \r \t` doubles) and the newline.
fn reply_frame_len(payload: &str) -> u64 {
    let escaped = payload
        .bytes()
        .filter(|b| matches!(b, b'\\' | b'\n' | b'\r' | b'\t'))
        .count();
    (4 + payload.len() + escaped) as u64
}

/// Drives the wire server closed-loop: [`WORKERS`] connections, each
/// sending its next request only after the previous reply arrived.
/// Stream position `p` (shared through one cursor) sends `reqs[pick(p)]`;
/// the drive ends when `pick` runs dry or at `deadline`. With `expect`,
/// a reply must equal `expect[index]` byte for byte.
pub fn drive(
    addr: SocketAddr,
    reqs: &[Request],
    pick: &(dyn Fn(u64) -> Option<usize> + Sync),
    deadline: Option<Instant>,
    expect: Option<&[String]>,
) -> Outcome {
    let cursor = AtomicU64::new(0);
    let total = Mutex::new(Outcome::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| {
                let mut out = Outcome::default();
                let mut client = match WireClient::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("ledger: connect {addr}: {e}");
                        out.attempted = 1;
                        out.failed = 1;
                        total.lock().expect("outcome lock").merge(out);
                        return;
                    }
                };
                while deadline.is_none_or(|d| Instant::now() < d) {
                    let Some(index) = pick(cursor.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let req = &reqs[index];
                    out.attempted += 1;
                    out.bytes += req.frame_bytes;
                    let t = Instant::now();
                    match client.annotate(&req.name, &req.csv) {
                        Ok(reply) => {
                            let ns = t.elapsed().as_nanos() as u64;
                            out.bytes += reply_frame_len(&reply);
                            if expect.is_some_and(|e| e[index] != reply) {
                                eprintln!(
                                    "ledger: reply for {} differs from the reference",
                                    req.name
                                );
                                out.failed += 1;
                            } else {
                                out.latencies_ns.push(ns);
                                out.done_ns.push(start.elapsed().as_nanos() as u64);
                            }
                        }
                        Err(e) => {
                            eprintln!("ledger: {} failed: {e}", req.name);
                            out.failed += 1;
                        }
                    }
                }
                total.lock().expect("outcome lock").merge(out);
            });
        }
    });
    let mut total = total.into_inner().expect("outcome lock");
    total.elapsed = start.elapsed();
    total
}

/// Every item of `indices` once, in order (warm-up and verification
/// passes).
pub fn each<'a>(indices: &'a [usize]) -> impl Fn(u64) -> Option<usize> + Sync + 'a {
    move |pos| indices.get(pos as usize).copied()
}

/// The `ingest_live` writer's record.
#[derive(Debug, Default)]
pub struct WriterStats {
    /// Per tick: from the tick falling due until its add and remove were
    /// both published, so waiting for the writer counts.
    pub publish_ns: Vec<u64>,
    pub add_ns: Vec<u64>,
    pub remove_ns: Vec<u64>,
    /// Longest wait of a due tick for the writer to take it.
    pub lateness_max_ns: u64,
    pub folds: u64,
    pub merges: u64,
    pub segments_max: u64,
    pub errors: u64,
}

/// Stream positions per writer tick: at the baseline's read rate, about
/// nine ticks a second.
pub const READS_PER_TICK: u64 = 48;
/// Review pages added per tick.
pub const PAGES_PER_TICK: usize = 64;
/// A batch is removed this many ticks after it was added, so the corpus
/// size stays stationary.
pub const REMOVE_LAG: usize = 8;

/// Whether stream position `pos` is due a writer tick.
pub fn tick_due(pos: u64) -> bool {
    pos > 0 && pos.is_multiple_of(READS_PER_TICK)
}

/// One writer tick: when it fell due, and where to say it is published.
pub struct Tick {
    pub due: Instant,
    pub done: SyncSender<()>,
}

/// Hands the writer a tick and waits until it is published.
pub fn publish_tick(writer: &SyncSender<Tick>) {
    let (done, published) = mpsc::sync_channel(1);
    let tick = Tick {
        due: Instant::now(),
        done,
    };
    writer.send(tick).expect("the writer outlives the load");
    published.recv().expect("the writer finishes every tick");
}

/// The `ingest_live` writer, clocked by the request stream. The client
/// that draws a [`tick_due`] position hands the writer thread a tick and
/// waits for it, while the other client goes on reading; each tick
/// publishes [`PAGES_PER_TICK`] seeded review pages of POI entities and
/// removes the batch added [`REMOVE_LAG`] ticks earlier.
///
/// A writer on a wall-clock schedule does a fixed amount of work per
/// second, so whenever the shared host slows down it takes a larger share
/// of the two cores and the reads lose more than the slowdown (and, with
/// fewer reads between memo clears, hit the cache less). Clocked by the
/// reads, the mix of reads, publishes and memo clears is the same on
/// every run, and no more threads compute at once than there are
/// clients. The pages are built and published on one thread, so the
/// allocator's per-thread arenas do not make peak memory depend on which
/// client drew the tick.
pub struct LiveWriter<'a> {
    service: &'a AnnotationService,
    world: &'a World,
    poi: Vec<EntityId>,
    rng: StdRng,
    batches: VecDeque<Vec<String>>,
    stats: WriterStats,
}

impl<'a> LiveWriter<'a> {
    pub fn new(service: &'a AnnotationService, world: &'a World, seed: u64) -> LiveWriter<'a> {
        let poi = EntityType::TARGETS
            .into_iter()
            .filter(|t| t.category() == TypeCategory::Poi)
            .flat_map(|t| world.entities_of(t).iter().copied())
            .collect();
        LiveWriter {
            service,
            world,
            poi,
            rng: rng_from_seed(derive_seed(seed, "ledger-ingest")),
            batches: VecDeque::new(),
            stats: WriterStats::default(),
        }
    }

    /// Runs one tick per [`Tick`] received until every sender is dropped.
    pub fn run(mut self, ticks: Receiver<Tick>) -> WriterStats {
        for (tick, Tick { due, done }) in ticks.into_iter().enumerate() {
            self.tick(tick as u32, due);
            // A client that panicked no longer waits; the tick stands.
            let _ = done.send(());
        }
        self.stats
    }

    fn tick(&mut self, tick: u32, due: Instant) {
        let stats = &mut self.stats;
        stats.lateness_max_ns = stats.lateness_max_ns.max(due.elapsed().as_nanos() as u64);
        let pages: Vec<_> = (0..PAGES_PER_TICK)
            .map(|i| {
                let entity = self
                    .world
                    .entity(self.poi[self.rng.gen_range(0..self.poi.len())]);
                let serial = 100_000 + tick * PAGES_PER_TICK as u32 + i as u32;
                entity_page(
                    &mut self.rng,
                    self.world,
                    entity,
                    PageFlavour::Review,
                    serial,
                )
            })
            .collect();
        self.batches
            .push_back(pages.iter().map(|p| p.url.clone()).collect());

        let t = Instant::now();
        let mut reports = vec![self.service.add_pages(pages)];
        stats.add_ns.push(t.elapsed().as_nanos() as u64);
        if self.batches.len() > REMOVE_LAG {
            let old = self
                .batches
                .pop_front()
                .expect("more than REMOVE_LAG batches");
            let t = Instant::now();
            reports.push(self.service.remove_pages(old));
            stats.remove_ns.push(t.elapsed().as_nanos() as u64);
        }
        stats.publish_ns.push(due.elapsed().as_nanos() as u64);
        for report in reports {
            match report {
                Ok(r) => {
                    stats.folds += u64::from(r.full_fold);
                    stats.merges += r.merges as u64;
                }
                Err(e) => {
                    eprintln!("ledger: live update failed: {e}");
                    stats.errors += 1;
                }
            }
        }
        if let Some(live) = self.service.live_corpus() {
            stats.segments_max = stats
                .segments_max
                .max(live.corpus().segments().len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_latency_averages_the_per_second_medians() {
        let s = 1_000_000_000u64;
        let outcome = Outcome {
            // Second 0: medians 10; second 1: 30; a straggler after the
            // window counts in the last second.
            latencies_ns: vec![10, 10, 50, 30, 30, 20, 30],
            done_ns: vec![0, s / 2, s - 1, s, s + 1, 2 * s - 1, 3 * s],
            ..Outcome::default()
        };
        assert_eq!(outcome.median_latency_ns(2.0), 20.0);
        // A window under a second is one bin: the pooled median.
        assert_eq!(outcome.median_latency_ns(0.5), 30.0);
        assert_eq!(Outcome::default().median_latency_ns(2.0), 0.0);
    }

    #[test]
    fn the_writer_ticks_once_per_reads_per_tick_positions() {
        let due: Vec<u64> = (0..3 * READS_PER_TICK + 1)
            .filter(|&p| tick_due(p))
            .collect();
        assert_eq!(
            due,
            [READS_PER_TICK, 2 * READS_PER_TICK, 3 * READS_PER_TICK]
        );
    }
}
