//! The stateless router: scatter a query to every shard's replica
//! group, gather each shard's local top-`k`, merge under the shared
//! tie rules ([`merge_topk`](teda_websim::scoring::merge_topk)).
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
//! Query then fetch: a search with fields runs in two phases. Phase 1
//! scatters up to [`MAX_BATCH`] queries as one `SEARCH-MANY` frame per
//! group, whose reply is each query's local top-`k` as scored ids; the
//! router merges each query on its own. Phase 2 sends one `FETCH` per
//! group that holds a merged winner (per [`MAX_FETCH`] winners),
//! carrying the frame's distinct winners on that shard, so the shards
//! hydrate `k` pages per query in all instead of `k` each. A table's
//! cache misses ([`ClusterRouter::try_search_many`], the trait's
//! `search_many`) thus cost two round trips per shard per frame instead
//! of one per miss; a single search with fields (`search_results`) is a
//! one-query frame, and the ids-only `try_search` (the trait's
//! `search`) is phase 1 alone. Batching changes no answer.
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
use teda_websim::scoring::rank_order;
use teda_websim::{PageId, SearchBackend, SearchResult};
use teda_wire::protocol::{parse_fetched, parse_many, MAX_BATCH, MAX_FETCH};
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

/// One live group's phase-1 answer: its index and, per query of the
/// frame, its local scored top-`k`.
type Ranked = (usize, Vec<Vec<(PageId, f64)>>);

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
    /// Shard queries fanned out (the group count of each phase-1
    /// scatter; `FETCH` frames are not counted).
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

    /// Wraps `request` in `TRACE <id>` under `trace`'s id, so the
    /// shard-side trees of both phases share the router's id and
    /// [`reconstruct_trace`](Self::reconstruct_trace) can reassemble the
    /// whole request. With tracing off the request goes out bare.
    fn traced(trace: &TraceCtx, request: Request) -> Request {
        match trace.id() {
            Some(id) => Request::Traced {
                id,
                inner: Box::new(request),
            },
            None => request,
        }
    }

    /// Reassembles the cross-node span tree of one routed search: the
    /// router's own trace for `id`, with every live shard's tree (its
    /// `TRACE-DUMP <id>` over the wire, both phases in one tree)
    /// grafted under the root. `None`
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

    /// Sends each `(group, request)` of `sends` to its replica group and
    /// parses the reply to send `i` with `parse(i, payload)`; returns
    /// the outcomes in `sends` order.
    ///
    /// The happy path spawns no thread: every frame goes to its group's
    /// first replica (rotation and health order) before any reply is
    /// read, so the shards work concurrently while the router reads
    /// their replies in order. A send whose first try fails resumes its
    /// group's retry schedule from the next replica once every reply is
    /// in; when several do, their schedules run concurrently, so a
    /// scatter still ends within one schedule. Each send stamps a
    /// `shard<i>` child span, send to final reply, on `trace` — pass a
    /// disabled context to observe nothing.
    fn scatter<T: Send>(
        &self,
        sends: &[(usize, &Request)],
        parse: &(dyn Fn(usize, &str) -> Result<T, WireError> + Sync),
        trace: &TraceCtx,
    ) -> Vec<Result<T, ClusterError>> {
        let sent: Vec<_> = sends
            .iter()
            .map(|&(g, request)| {
                let group = &self.groups[g];
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
        for (i, (group, order, conn, span)) in sent.into_iter().enumerate() {
            let replica = &group.replicas[order[0]];
            match self.attempt(group, replica, conn, |c| parse(i, &c.receive()?)) {
                ControlFlow::Break(outcome) => outcomes.push(Some(outcome)),
                ControlFlow::Continue(error) => {
                    resume.push((i, group, order, error, span));
                    outcomes.push(None);
                }
            }
        }

        if !resume.is_empty() {
            // `_span` binds the send's span, which closes when `run`
            // returns: after the group's last try.
            type Job<'a> = (
                usize,
                &'a ReplicaGroup,
                Vec<usize>,
                WireError,
                SpanGuard<'a>,
            );
            let run = |(i, group, order, error, _span): Job<'_>| {
                let op = |c: &mut WireClient| {
                    c.send(sends[i].1)?;
                    parse(i, &c.receive()?)
                };
                (i, self.on_group_from(group, &order, 1, error, &op))
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
            for (i, outcome) in resumed {
                outcomes[i] = Some(outcome);
            }
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every send settled"))
            .collect()
    }

    /// Phase 1 of a routed search: one `SEARCH-MANY` of `frame` to every
    /// group, each reply the group's scored top-`k` per query. Live
    /// groups come back as `(group, answers)` in shard order beside the
    /// dead shards; a non-retryable wire error is a hard error.
    fn rank(
        &self,
        frame: &[(&str, usize)],
        trace: &TraceCtx,
    ) -> Result<(Vec<Ranked>, Vec<u32>), ClusterError> {
        let request = Self::traced(
            trace,
            Request::SearchMany {
                queries: frame.iter().map(|&(q, k)| (k, q.to_owned())).collect(),
            },
        );
        self.shard_fanouts.add(self.groups.len() as u64);
        let sends: Vec<(usize, &Request)> = (0..self.groups.len()).map(|g| (g, &request)).collect();
        let outcomes = self.scatter(
            &sends,
            &|_, payload| parse_many(payload, frame.len()),
            trace,
        );
        let mut live = Vec::with_capacity(outcomes.len());
        let mut dead = Vec::new();
        for (g, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(answers) => live.push((g, answers)),
                Err(ClusterError::ShardDown { .. }) => dead.push(g as u32),
                Err(e) => return Err(e),
            }
        }
        Ok((live, dead))
    }

    /// The merge of one query's hits from the groups `live` answered
    /// with, each hit tagged with its group, timed into `merge`: the
    /// comparator of `merge_topk` over every live group's local top-`k`.
    fn merge(
        &self,
        live: &[Ranked],
        query: usize,
        k: usize,
        skip: &[u32],
    ) -> Vec<(PageId, f64, usize)> {
        let timer = StageTimer::start(&self.hist_merge);
        let mut hits: Vec<(PageId, f64, usize)> = live
            .iter()
            .filter(|(g, _)| !skip.contains(&(*g as u32)))
            .flat_map(|(g, answers)| answers[query].iter().map(|&(id, score)| (id, score, *g)))
            .collect();
        hits.sort_by(|a, b| rank_order(&(a.0, a.1), &(b.0, b.1)));
        hits.truncate(k);
        timer.finish();
        hits
    }

    /// Counts the degraded answers among `outcomes` into
    /// `partial_results`, one per query.
    fn count_partials<T>(&self, outcomes: &[Result<T, ClusterError>]) {
        let partial = outcomes
            .iter()
            .filter(|o| matches!(o, Err(ClusterError::PartialResults { .. })))
            .count();
        self.partial_results.add(partial as u64);
    }

    /// The cluster's top-`k` for `query`, ranked without fields (one
    /// query of phase 1): bit-identical to the single-node index when
    /// every shard answers, and a typed [`ClusterError::PartialResults`]
    /// (carrying the exact merge over the live shards) when one or more
    /// whole replica groups are down.
    pub fn try_search(&self, query: &str, k: usize) -> Result<Vec<(PageId, f64)>, ClusterError> {
        let trace = self.obs.start_trace("search");
        let timer = StageTimer::start(&self.hist_scatter);
        let ranked = self.rank(&[(query, k)], &trace);
        timer.finish();
        let outcome = ranked.and_then(|(live, dead)| {
            let hits = {
                let _span = trace.span(stage::MERGE);
                self.merge(&live, 0, k, &[])
            };
            if dead.is_empty() {
                Ok(hits.into_iter().map(|(id, score, _)| (id, score)).collect())
            } else {
                Err(partial(&dead, &hits))
            }
        });
        trace.finish();
        self.count_partials(std::slice::from_ref(&outcome));
        outcome
    }

    /// The top-`k` with hydrated url/title/snippet fields for every
    /// `(query, k)` pair, in order: per [`MAX_BATCH`] queries, one
    /// `SEARCH-MANY` frame of scored ids per replica group, then one
    /// `FETCH` per group that holds a merged winner, carrying those
    /// winners only. Each query keeps the single-query semantics: its
    /// answer is bit-identical to the single node (and to a one-query
    /// batch), a frame that fails on one replica is retried whole on
    /// the group's next one, and a group dead in either phase makes
    /// each query it held a winner for its own
    /// [`ClusterError::PartialResults`] (counted once per query),
    /// carrying the scored ids of the merge over the other groups.
    pub fn try_search_many(
        &self,
        queries: &[(&str, usize)],
    ) -> Vec<Result<Vec<SearchHit>, ClusterError>> {
        queries
            .chunks(MAX_BATCH)
            .flat_map(|frame| self.search_frame(frame))
            .collect()
    }

    /// Both phases of at most [`MAX_BATCH`] queries, traced under one
    /// router trace id and timed as one `shard_scatter` observation. A
    /// hard wire error in either phase of a frame of several queries
    /// falls back to one frame per query, so an error stays with the
    /// query that caused it.
    fn search_frame(&self, frame: &[(&str, usize)]) -> Vec<Result<Vec<SearchHit>, ClusterError>> {
        let trace = self.obs.start_trace("search_many");
        let timer = StageTimer::start(&self.hist_scatter);
        let outcome = self.rank_then_fetch(frame, &trace);
        timer.finish();
        trace.finish();
        match outcome {
            Ok(answers) => {
                self.count_partials(&answers);
                answers
            }
            Err(error) if frame.len() == 1 => vec![Err(error)],
            Err(_) => frame
                .iter()
                .flat_map(|&pair| self.search_frame(&[pair]))
                .collect(),
        }
    }

    /// Ranks `frame` (phase 1), merges each query, then fetches the
    /// fields of the merged winners (phase 2): one `FETCH` per group
    /// per [`MAX_FETCH`] of its distinct winners, in ascending id
    /// order. A group dead in phase 1 degrades every query, and nothing
    /// is fetched; a group that dies before its `FETCH` degrades
    /// exactly the queries with a winner on it, each to the answer a
    /// group dead from the start would give.
    fn rank_then_fetch(
        &self,
        frame: &[(&str, usize)],
        trace: &TraceCtx,
    ) -> Result<Vec<Result<Vec<SearchHit>, ClusterError>>, ClusterError> {
        let (live, dead) = self.rank(frame, trace)?;
        let merged: Vec<Vec<(PageId, f64, usize)>> = {
            let _span = trace.span(stage::MERGE);
            frame
                .iter()
                .enumerate()
                .map(|(q, &(_, k))| self.merge(&live, q, k, &[]))
                .collect()
        };
        if !dead.is_empty() {
            return Ok(merged
                .into_iter()
                .map(|hits| Err(partial(&dead, &hits)))
                .collect());
        }

        // Each group's distinct winners, ascending, cut at MAX_FETCH.
        let mut winners: Vec<Vec<PageId>> = vec![Vec::new(); self.groups.len()];
        for &(id, _, g) in merged.iter().flatten() {
            winners[g].push(id);
        }
        let mut chunks: Vec<(usize, &[PageId])> = Vec::new();
        for (g, ids) in winners.iter_mut().enumerate() {
            ids.sort_unstable();
            ids.dedup();
            chunks.extend(ids.chunks(MAX_FETCH).map(|chunk| (g, chunk)));
        }
        let requests: Vec<Request> = chunks
            .iter()
            .map(|&(_, ids)| Self::traced(trace, Request::Fetch { ids: ids.to_vec() }))
            .collect();
        let sends: Vec<(usize, &Request)> = chunks
            .iter()
            .zip(&requests)
            .map(|(&(g, _), request)| (g, request))
            .collect();
        let fetched = self.scatter(
            &sends,
            &|i, payload| parse_fetched(payload, chunks[i].1),
            trace,
        );

        // Each group's fetched fields, ascending by id like its winners.
        let mut fields: Vec<Vec<SearchResult>> = vec![Vec::new(); self.groups.len()];
        let mut died: Vec<u32> = Vec::new();
        for (&(g, _), outcome) in chunks.iter().zip(fetched) {
            match outcome {
                Ok(pages) => fields[g].extend(pages),
                Err(ClusterError::ShardDown { .. }) => died.push(g as u32),
                Err(e) => return Err(e),
            }
        }
        died.dedup();
        Ok(merged
            .into_iter()
            .zip(frame)
            .enumerate()
            .map(|(q, (hits, &(_, k)))| {
                if hits.iter().any(|&(_, _, g)| died.contains(&(g as u32))) {
                    let _span = trace.span(stage::MERGE);
                    return Err(partial(&died, &self.merge(&live, q, k, &died)));
                }
                Ok(hits
                    .into_iter()
                    .map(|(id, score, g)| {
                        let at = winners[g]
                            .binary_search(&id)
                            .expect("every winner was fetched");
                        SearchHit {
                            id,
                            score,
                            result: fields[g][at].clone(),
                        }
                    })
                    .collect())
            })
            .collect())
    }
}

/// The degraded answer of a query whose merged hits miss the `dead`
/// shards: their scored ids, typed as partial.
fn partial(dead: &[u32], hits: &[(PageId, f64, usize)]) -> ClusterError {
    ClusterError::PartialResults {
        dead_shards: dead.to_vec(),
        hits: hits.iter().map(|&(id, score, _)| (id, score)).collect(),
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

    /// A one-query two-phase search: ranked ids, then the winners'
    /// fields.
    fn search_results(&self, query: &str, k: usize) -> Vec<SearchResult> {
        self.search_frame(&[(query, k)])
            .pop()
            .map_or_else(Vec::new, results_of_full)
    }

    /// One `SEARCH-MANY` frame per replica group for each [`MAX_BATCH`]
    /// queries, then the winners' `FETCH` frames
    /// ([`try_search_many`](ClusterRouter::try_search_many)),
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
