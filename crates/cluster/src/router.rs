//! The stateless router: scatter a query to every shard's replica
//! group, gather each shard's local top-`k`, merge under the shared
//! tie rules ([`merge_topk`]).
//!
//! The router holds no index — only pooled wire connections and the
//! topology. Correctness rests on two facts proven elsewhere and merely
//! *preserved* here: each shard's scores are bit-identical to the
//! single node's (manifest-carried global statistics, see
//! `shard.rs`), and any global top-`k` document beats all but fewer
//! than `k` documents globally, hence fewer than `k` in its own shard —
//! so it appears in that shard's local top-`k` and survives the merge.
//! The merge itself is `flatten → sort_by(rank_order) → truncate(k)`,
//! the same comparator as every single-node ranking.
//!
//! Scatter: a search spawns no thread. The router writes one frame to
//! each group's first replica, then reads the replies in shard order,
//! so the shards rank concurrently while one thread waits. Reading in
//! shard order cannot change the answer: the merge sorts the set of
//! replies. A group whose first try fails resumes its retry schedule
//! after the other replies are in; only when two or more groups fail at
//! once do their schedules run on scoped threads, so a scatter still
//! ends within one schedule.
//!
//! Batches: [`ClusterRouter::try_search_many`] (and the trait's
//! `search_many`) scatter up to [`MAX_BATCH`] queries as one
//! `SEARCH-MANY` frame per group, so a table's cache misses cost one
//! round trip per shard instead of one per miss. A single search with
//! fields (the trait's `search_results`) is a one-query frame, and each
//! query of a frame is merged on its own, so batching changes no answer.
//!
//! Failover: each shard is a replica group. A query rotates through the
//! group's replicas (round-robin start, healthy replicas first),
//! retries transport failures on a bounded backoff schedule, and only
//! when the whole schedule runs dry declares the shard down. A dead
//! shard never panics and never silently shrinks the answer: the typed
//! path returns [`ClusterError::PartialResults`] naming the dead
//! shards, and the [`SearchBackend`] path bumps the `partial_results`
//! counter of the router's registry, which the annotation service's
//! `ServiceStats` surfaces.

use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use teda_obs::{stage, Counter, Histogram, Registry, SpanGuard, StageTimer, Trace, TraceCtx};
use teda_websim::scoring::{merge_topk, rank_order};
use teda_websim::{PageId, SearchBackend, SearchResult};
use teda_wire::protocol::{parse_many, parse_scored, MAX_BATCH};
use teda_wire::{Request, SearchHit, WireClient, WireError};

use crate::error::ClusterError;

/// A replica considered unhealthy after this many consecutive failures;
/// unhealthy replicas are tried last (never skipped — a group whose
/// every replica is unhealthy still gets the full schedule, which is
/// also how a recovered replica earns its health back).
const UNHEALTHY_AFTER: u32 = 3;

/// Router knobs. The defaults suit loopback tests and small clusters;
/// production deployments mostly tune the timeouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Full passes over a replica group before the shard is declared
    /// down (each pass tries every replica once).
    pub attempts: u32,
    /// Base backoff between passes: pass `i` sleeps `backoff * i`.
    pub backoff: Duration,
    /// TCP connect deadline when dialling a replica.
    pub connect_timeout: Duration,
    /// Read/write deadline on every round-trip (a half-dead replica
    /// errors out instead of stalling the whole scatter).
    pub io_timeout: Duration,
    /// Idle connections kept pooled per replica.
    pub pool_per_replica: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            attempts: 3,
            backoff: Duration::from_millis(20),
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(2),
            pool_per_replica: 4,
        }
    }
}

/// One read-only replica of a shard: its address, a consecutive-failure
/// counter, and a small pool of idle connections.
struct Replica {
    addr: SocketAddr,
    failures: AtomicU32,
    pool: Mutex<Vec<WireClient>>,
}

impl Replica {
    fn new(addr: SocketAddr) -> Replica {
        Replica {
            addr,
            failures: AtomicU32::new(0),
            pool: Mutex::new(Vec::new()),
        }
    }
}

/// One shard's replica group with its round-robin cursor.
struct ReplicaGroup {
    shard: u32,
    /// `shard<N>`, the name of this group's scatter span.
    span_name: &'static str,
    replicas: Vec<Replica>,
    rr: AtomicUsize,
}

impl ReplicaGroup {
    /// The replica order for one call: rotate the starting replica per
    /// call, then bring healthy replicas to the front (the stable sort
    /// keeps the rotation order within each health class).
    fn order(&self) -> Vec<usize> {
        let n = self.replicas.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let mut order: Vec<usize> = (0..n).map(|i| (start + i) % n).collect();
        order
            .sort_by_key(|&i| self.replicas[i].failures.load(Ordering::Relaxed) >= UNHEALTHY_AFTER);
        order
    }
}

/// The scatter-gather router. Implements [`SearchBackend`], so anything
/// that searches a single node — `teda-core`'s `BatchAnnotator`
/// included — searches the cluster unchanged.
pub struct ClusterRouter {
    groups: Vec<ReplicaGroup>,
    global_docs: u64,
    config: RouterConfig,
    /// The router's observability surface: the counters below,
    /// `shard_scatter`/`merge` histograms and one trace per routed
    /// search. All timing goes through `teda-obs` types — this is a
    /// scoring/merge module, and the no-wallclock invariant
    /// (`wallclock_in_scoring`) still holds: observation never feeds
    /// back into ranking.
    obs: Arc<Registry>,
    hist_scatter: Arc<Histogram>,
    hist_merge: Arc<Histogram>,
    /// Shard queries fanned out (the group count of each scatter).
    shard_fanouts: Arc<Counter>,
    /// Searches answered without a whole replica group — each one is a
    /// degraded result, never a silent one.
    partial_results: Arc<Counter>,
    /// Failover retries against another replica.
    replica_retries: Arc<Counter>,
}

impl std::fmt::Debug for ClusterRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterRouter")
            .field("shards", &self.groups.len())
            .field("global_docs", &self.global_docs)
            .field("config", &self.config)
            .finish()
    }
}

impl ClusterRouter {
    /// Connects to a cluster: `topology[shard]` lists that shard's
    /// replica addresses. Validates the topology against what the
    /// shards themselves report (`SHARD-STATS`): every group's replica
    /// must identify as the expected shard index, agree on the shard
    /// count, and all groups must agree on the global document count —
    /// a router wired to a stale or shuffled deployment is a typed
    /// [`ClusterError::Config`], not a wrong ranking.
    pub fn connect(
        topology: &[Vec<SocketAddr>],
        config: RouterConfig,
    ) -> Result<ClusterRouter, ClusterError> {
        if topology.is_empty() {
            return Err(ClusterError::Config("topology lists no shards".into()));
        }
        if config.attempts == 0 {
            return Err(ClusterError::Config("attempts must be positive".into()));
        }
        let groups = topology
            .iter()
            .enumerate()
            .map(|(shard, addrs)| {
                if addrs.is_empty() {
                    return Err(ClusterError::Config(format!(
                        "shard {shard} has no replicas"
                    )));
                }
                Ok(ReplicaGroup {
                    shard: shard as u32,
                    span_name: teda_obs::static_name(&format!("shard{shard}")),
                    replicas: addrs.iter().copied().map(Replica::new).collect(),
                    rr: AtomicUsize::new(0),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let obs = Registry::new("router");
        let router = ClusterRouter {
            groups,
            global_docs: 0,
            config,
            hist_scatter: obs.histogram(stage::SHARD_SCATTER),
            hist_merge: obs.histogram(stage::MERGE),
            shard_fanouts: obs.counter("shard_fanouts"),
            partial_results: obs.counter("partial_results"),
            replica_retries: obs.counter("replica_retries"),
            obs,
        };
        let mut router = router;
        router.global_docs = router.validate_topology()?;
        Ok(router)
    }

    /// Fetches `SHARD-STATS` from every group and cross-checks the
    /// reported identities; returns the agreed global document count.
    fn validate_topology(&self) -> Result<u64, ClusterError> {
        let n_shards = self.groups.len() as u32;
        let mut global_docs: Option<u64> = None;
        for group in &self.groups {
            let report = self.on_group(group, &|c| c.shard_stats())?;
            if report.shard != group.shard || report.n_shards != n_shards {
                return Err(ClusterError::Config(format!(
                    "replica group {} serves shard {}/{} (expected {}/{n_shards})",
                    group.shard, report.shard, report.n_shards, group.shard
                )));
            }
            match global_docs {
                None => global_docs = Some(report.global_docs),
                Some(g) if g != report.global_docs => {
                    return Err(ClusterError::Config(format!(
                        "shard {} reports {} global docs, shard 0 reported {g} \
                         (mixed corpus versions?)",
                        group.shard, report.global_docs
                    )));
                }
                Some(_) => {}
            }
        }
        Ok(global_docs.expect("topology has at least one shard"))
    }

    /// The router's registry, [`obs`](Self::obs), as
    /// `AnnotationService::attach_cluster_telemetry` takes it, so the
    /// service's `STATS` surfaces the fan-out/partial/retry counters.
    pub fn telemetry(&self) -> Arc<Registry> {
        self.obs()
    }

    /// The router's observability registry: the `shard_fanouts`,
    /// `partial_results` and `replica_retries` counters, `shard_scatter`
    /// and `merge` stage histograms, plus one completed trace per routed
    /// search (deterministic ids 1, 2, 3, …). `METRICS`-style exposition
    /// and `BENCH_obs.json` read from here.
    pub fn obs(&self) -> Arc<Registry> {
        Arc::clone(&self.obs)
    }

    /// Starts a routed trace rooted at `root` and wraps `request` in
    /// `TRACE <id>` under the router's deterministic id, so the
    /// shard-side trees share it and
    /// [`reconstruct_trace`](Self::reconstruct_trace) can reassemble the
    /// whole request. With tracing off the request goes out bare.
    fn traced(&self, root: &'static str, request: Request) -> (TraceCtx, Request) {
        let trace = self.obs.start_trace(root);
        let request = match trace.id() {
            Some(id) => Request::Traced {
                id,
                inner: Box::new(request),
            },
            None => request,
        };
        (trace, request)
    }

    /// Reassembles the cross-node span tree of one routed search: the
    /// router's own trace for `id`, with every live shard's tree (its
    /// `TRACE-DUMP <id>` over the wire) grafted under the root. `None`
    /// when the router never completed a trace with this id; shards
    /// that no longer remember the id (ring eviction, restart) are
    /// skipped, dead shards are skipped — the tree spans whoever still
    /// answers.
    pub fn reconstruct_trace(&self, id: u64) -> Option<Trace> {
        let mut root = self.obs.trace(id)?;
        for group in &self.groups {
            if let Ok(shard_tree) = self.on_group(group, &|c| c.trace_dump(id)) {
                root.graft(&shard_tree);
            }
        }
        Some(root)
    }

    /// Shard count.
    pub fn n_shards(&self) -> usize {
        self.groups.len()
    }

    /// Pops a pooled connection or dials a fresh one.
    fn checkout(&self, replica: &Replica) -> Result<WireClient, WireError> {
        if let Some(client) = replica.pool.lock().unwrap().pop() {
            return Ok(client);
        }
        let mut client = WireClient::connect_timeout(&replica.addr, self.config.connect_timeout)
            .map_err(|e| WireError::Transport(format!("connect {}: {e}", replica.addr)))?;
        client
            .set_io_timeout(Some(self.config.io_timeout))
            .map_err(|e| WireError::Transport(e.to_string()))?;
        Ok(client)
    }

    /// Returns a healthy connection to the pool (bounded; extras drop).
    /// A connection that lost its frame boundary (an over-long reply
    /// left unread) drops too: its next read would be the old tail.
    fn checkin(&self, replica: &Replica, client: WireClient) {
        if !client.is_framed() {
            return;
        }
        let mut pool = replica.pool.lock().unwrap();
        if pool.len() < self.config.pool_per_replica {
            pool.push(client);
        }
    }

    /// Runs one operation against a replica group with rotation, health
    /// ordering and bounded retry.
    fn on_group<T>(
        &self,
        group: &ReplicaGroup,
        op: &(dyn Fn(&mut WireClient) -> Result<T, WireError> + Sync),
    ) -> Result<T, ClusterError> {
        let last = WireError::Transport("no replica tried".into());
        self.on_group_from(group, &group.order(), 0, last, op)
    }

    /// Runs a group's retry schedule from try `from` on: try `t` goes to
    /// replica `order[t % n]` in pass `t / n`, each pass after the first
    /// opens with a `backoff × pass` sleep, and every try after the
    /// first counts as a retry. `last` is the error to report should no
    /// try be left to make.
    fn on_group_from<T>(
        &self,
        group: &ReplicaGroup,
        order: &[usize],
        from: usize,
        mut last: WireError,
        op: &(dyn Fn(&mut WireClient) -> Result<T, WireError> + Sync),
    ) -> Result<T, ClusterError> {
        let n = order.len();
        for t in from..n * self.config.attempts as usize {
            let pass = (t / n) as u32;
            if pass > 0 && t % n == 0 {
                std::thread::sleep(self.config.backoff * pass);
            }
            if t > 0 {
                self.replica_retries.inc();
            }
            let replica = &group.replicas[order[t % n]];
            match self.attempt(group, replica, self.checkout(replica), op) {
                ControlFlow::Break(outcome) => return outcome,
                ControlFlow::Continue(e) => last = e,
            }
        }
        Err(ClusterError::ShardDown {
            shard: group.shard,
            error: last,
        })
    }

    /// Settles one try on `replica` over `conn` (the checked-out
    /// connection, or why there is none). A value, or a typed server
    /// error — every replica would answer the same, so it fails fast —
    /// returns the connection to the pool and ends the group's schedule.
    /// A transport failure or a server mid-shutdown drops the connection
    /// (it may be desynchronized), counts against the replica's health
    /// and hands the error back so the schedule moves on.
    fn attempt<T>(
        &self,
        group: &ReplicaGroup,
        replica: &Replica,
        conn: Result<WireClient, WireError>,
        op: impl FnOnce(&mut WireClient) -> Result<T, WireError>,
    ) -> ControlFlow<Result<T, ClusterError>, WireError> {
        let outcome = conn.map(|mut client| {
            let value = op(&mut client);
            (client, value)
        });
        match outcome {
            Ok((client, Ok(value))) => {
                replica.failures.store(0, Ordering::Relaxed);
                self.checkin(replica, client);
                ControlFlow::Break(Ok(value))
            }
            Err(e) | Ok((_, Err(e @ (WireError::Transport(_) | WireError::ShuttingDown)))) => {
                replica.failures.fetch_add(1, Ordering::Relaxed);
                ControlFlow::Continue(e)
            }
            Ok((client, Err(e))) => {
                replica.failures.store(0, Ordering::Relaxed);
                self.checkin(replica, client);
                ControlFlow::Break(Err(ClusterError::Wire {
                    shard: group.shard,
                    error: e,
                }))
            }
        }
    }

    /// Sends `request` to every shard and parses each reply with
    /// `parse`; returns per-group outcomes in shard order.
    ///
    /// The happy path spawns no thread: one frame goes to each group's
    /// first replica (rotation and health order) before any reply is
    /// read, so the shards work concurrently while the router reads
    /// their replies in shard order. A group whose first try fails
    /// resumes its retry schedule from the next replica once every
    /// reply is in; when several groups do, their schedules run
    /// concurrently, so a scatter still ends within one schedule. The
    /// whole fan-out records into the `shard_scatter` histogram and
    /// each group stamps a `shard<i>` child span, send to final reply,
    /// on `trace` — pass a disabled context to observe nothing.
    fn scatter<T: Send>(
        &self,
        request: &Request,
        parse: &(dyn Fn(&str) -> Result<T, WireError> + Sync),
        trace: &TraceCtx,
    ) -> Vec<Result<T, ClusterError>> {
        self.shard_fanouts.add(self.groups.len() as u64);
        let timer = StageTimer::start(&self.hist_scatter);
        let sent: Vec<_> = self
            .groups
            .iter()
            .map(|group| {
                let span = trace.span(group.span_name);
                let order = group.order();
                let conn = self
                    .checkout(&group.replicas[order[0]])
                    .and_then(|mut client| client.send(request).map(|()| client));
                (group, order, conn, span)
            })
            .collect();

        let mut outcomes = Vec::with_capacity(sent.len());
        let mut resume = Vec::new();
        for (group, order, conn, span) in sent {
            let replica = &group.replicas[order[0]];
            match self.attempt(group, replica, conn, |c| parse(&c.receive()?)) {
                ControlFlow::Break(outcome) => outcomes.push(Some(outcome)),
                ControlFlow::Continue(error) => {
                    resume.push((outcomes.len(), group, order, error, span));
                    outcomes.push(None);
                }
            }
        }

        if !resume.is_empty() {
            let op = |c: &mut WireClient| {
                c.send(request)?;
                parse(&c.receive()?)
            };
            // `_span` binds the group's span, which closes when `run`
            // returns: after the group's last try.
            type Job<'a> = (
                usize,
                &'a ReplicaGroup,
                Vec<usize>,
                WireError,
                SpanGuard<'a>,
            );
            let run = |(slot, group, order, error, _span): Job<'_>| {
                (slot, self.on_group_from(group, &order, 1, error, &op))
            };
            let resumed: Vec<_> = if resume.len() == 1 {
                resume.into_iter().map(run).collect()
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = resume
                        .into_iter()
                        .map(|job| scope.spawn(move || run(job)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("scatter fallback panicked"))
                        .collect()
                })
            };
            for (slot, outcome) in resumed {
                outcomes[slot] = Some(outcome);
            }
        }
        timer.finish();
        outcomes
            .into_iter()
            .map(|o| o.expect("every group settled"))
            .collect()
    }

    /// Splits scatter outcomes into live results and dead shards.
    /// Non-retryable wire errors propagate as hard errors; whole-group
    /// outages degrade to the partial path. Bumps `partial_results` by
    /// `queries`, the queries the scatter carried, when it degraded.
    fn gather<T>(
        &self,
        outcomes: Vec<Result<T, ClusterError>>,
        queries: u64,
    ) -> Result<(Vec<T>, Vec<u32>), ClusterError> {
        let mut live = Vec::with_capacity(outcomes.len());
        let mut dead = Vec::new();
        for (shard, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(v) => live.push(v),
                Err(ClusterError::ShardDown { .. }) => dead.push(shard as u32),
                Err(e) => return Err(e),
            }
        }
        if !dead.is_empty() {
            self.partial_results.add(queries);
        }
        Ok((live, dead))
    }

    /// The cluster's top-`k` for `query`: bit-identical to the
    /// single-node index when every shard answers, and a typed
    /// [`ClusterError::PartialResults`] (carrying the exact merge over
    /// the live shards) when one or more whole replica groups are down.
    pub fn try_search(&self, query: &str, k: usize) -> Result<Vec<(PageId, f64)>, ClusterError> {
        let search = Request::Search {
            k,
            query: query.into(),
        };
        let (trace, request) = self.traced("search", search);
        let outcomes = self.scatter(&request, &parse_scored, &trace);
        let (live, dead) = self.gather(outcomes, 1)?;
        let hits = {
            let timer = StageTimer::start(&self.hist_merge);
            let _span = trace.span(stage::MERGE);
            let hits = merge_topk(live, k);
            timer.finish();
            hits
        };
        trace.finish();
        if dead.is_empty() {
            Ok(hits)
        } else {
            Err(ClusterError::PartialResults {
                dead_shards: dead,
                hits,
            })
        }
    }

    /// The top-`k` with hydrated url/title/snippet fields for every
    /// `(query, k)` pair, in order, with one `SEARCH-MANY` frame per
    /// replica group for each [`MAX_BATCH`] queries instead of one frame
    /// per group per query. Each query keeps the single-query
    /// semantics: its answer is bit-identical to the single node (and to
    /// a one-query batch), a frame that fails on one replica is retried
    /// whole on the group's next one, and a dead group makes each query
    /// of the frame its own [`ClusterError::PartialResults`] (counted
    /// once per query), carrying the scored ids of the degraded merge.
    pub fn try_search_many(
        &self,
        queries: &[(&str, usize)],
    ) -> Vec<Result<Vec<SearchHit>, ClusterError>> {
        queries
            .chunks(MAX_BATCH)
            .flat_map(|frame| self.search_frame(frame))
            .collect()
    }

    /// One `SEARCH-MANY` scatter of at most [`MAX_BATCH`] queries, traced
    /// and forwarded under the router's trace id like `try_search`. A
    /// hard wire error on a frame of several queries falls back to one
    /// frame per query, so an error stays with the query that caused it.
    fn search_frame(&self, frame: &[(&str, usize)]) -> Vec<Result<Vec<SearchHit>, ClusterError>> {
        let many = Request::SearchMany {
            queries: frame.iter().map(|&(q, k)| (k, q.to_owned())).collect(),
        };
        let (trace, request) = self.traced("search_many", many);
        let sent = frame.len();
        let outcomes = self.scatter(&request, &|payload| parse_many(payload, sent), &trace);
        let (live, dead) = match self.gather(outcomes, sent as u64) {
            Ok(gathered) => gathered,
            Err(error) if sent == 1 => return vec![Err(error)],
            Err(_) => {
                trace.finish();
                return frame
                    .iter()
                    .flat_map(|&pair| self.search_frame(&[pair]))
                    .collect();
            }
        };
        let mut per_query: Vec<Vec<SearchHit>> = vec![Vec::new(); sent];
        for group in live {
            for (hits, answer) in per_query.iter_mut().zip(group) {
                hits.extend(answer);
            }
        }
        let merge_span = trace.span(stage::MERGE);
        let outcomes = per_query
            .into_iter()
            .zip(frame)
            .map(|(hits, &(_, k))| full_outcome(self.merge_hits(hits, k), &dead))
            .collect();
        drop(merge_span);
        trace.finish();
        outcomes
    }

    /// The merge of one query's gathered hits, timed into `merge`: the
    /// comparator of `merge_topk`, applied through each hit's (id,
    /// score) key, so full hits rank exactly like scored pairs.
    fn merge_hits(&self, mut hits: Vec<SearchHit>, k: usize) -> Vec<SearchHit> {
        let timer = StageTimer::start(&self.hist_merge);
        hits.sort_by(|a, b| rank_order(&(a.id, a.score), &(b.id, b.score)));
        hits.truncate(k);
        timer.finish();
        hits
    }
}

/// A merged full answer, or its degraded form when `dead` names shards.
fn full_outcome(hits: Vec<SearchHit>, dead: &[u32]) -> Result<Vec<SearchHit>, ClusterError> {
    if dead.is_empty() {
        Ok(hits)
    } else {
        Err(ClusterError::PartialResults {
            dead_shards: dead.to_vec(),
            hits: hits.iter().map(|h| (h.id, h.score)).collect(),
        })
    }
}

/// The infallible trait path's answer: the results of a full answer, or
/// none at all when the answer degraded or failed.
fn results_of_full(outcome: Result<Vec<SearchHit>, ClusterError>) -> Vec<SearchResult> {
    match outcome {
        Ok(hits) => hits.into_iter().map(|h| h.result).collect(),
        Err(_) => Vec::new(),
    }
}

impl SearchBackend for ClusterRouter {
    /// The infallible trait path: a degraded scatter returns the merge
    /// over the live shards (observable via the `partial_results`
    /// counter), and a hard failure returns no hits — never a panic,
    /// and the telemetry always tells the two apart from "no matches".
    fn search(&self, query: &str, k: usize) -> Vec<(PageId, f64)> {
        match self.try_search(query, k) {
            Ok(hits) | Err(ClusterError::PartialResults { hits, .. }) => hits,
            Err(_) => Vec::new(),
        }
    }

    /// A one-query `SEARCH-MANY` scatter.
    fn search_results(&self, query: &str, k: usize) -> Vec<SearchResult> {
        self.search_frame(&[(query, k)])
            .pop()
            .map_or_else(Vec::new, results_of_full)
    }

    /// One `SEARCH-MANY` frame per replica group for each [`MAX_BATCH`]
    /// queries ([`try_search_many`](ClusterRouter::try_search_many)),
    /// each frame's answers handed back as soon as it is merged, and
    /// each answer the one [`search_results`](SearchBackend::search_results)
    /// gives.
    fn search_many(
        &self,
        queries: &[(&str, usize)],
        answer: &mut dyn FnMut(usize, Vec<SearchResult>),
    ) {
        for (f, frame) in queries.chunks(MAX_BATCH).enumerate() {
            for (i, outcome) in self.search_frame(frame).into_iter().enumerate() {
                answer(f * MAX_BATCH + i, results_of_full(outcome));
            }
        }
    }

    /// The corpus-wide document count, as agreed by every shard at
    /// connect time.
    fn n_docs(&self) -> usize {
        self.global_docs as usize
    }
}
