//! The TCP front-end: a std-thread acceptor plus one reader thread per
//! connection, each driving the node's [`AnnotationService`] or its
//! [`SearchBackend`] — a node serves one of the two (a cluster shard
//! process is a search-only node).
//!
//! Shape: the acceptor blocks in `accept`; every connection gets a
//! thread that reads one frame at a time, parses it with
//! [`Request::parse`], and answers with exactly one [`Reply`] frame —
//! strict request/response, so one connection has at most one request
//! in flight and a bulk client is naturally rate-limited to its own
//! round-trips while the fairness layer meters its tokens. One dispatch
//! answers every verb; a `TRACE <id>` prefix only hands it the caller's
//! trace id.
//!
//! Identity: a connection starts as [`ClientId::ANONYMOUS`]; a `CLIENT
//! <name>` frame switches every later submission on that connection to
//! the named client, which is what the per-client admission buckets and
//! [`ServiceStats::clients`](teda_service::ServiceStats) key on.
//!
//! Shutdown: [`WireServer::shutdown`] (also run on drop) raises a stop
//! flag, force-closes the live connection sockets, pokes the acceptor
//! awake with a loopback connect, and joins every thread. In-flight
//! requests finish or fail through the service's own drain. A
//! connection that ends before shutdown releases its socket and its
//! thread handle as it ends, so the server holds only live connections.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use teda_corpus::table_from_csv;
use teda_obs::{stage, Counter, Registry as ObsRegistry, TraceCtx};
use teda_service::{AnnotationService, ClientId, SubmitRequest, Wait};
use teda_websim::SearchBackend;

use crate::protocol::{
    read_frame, render_annotations, render_fetched, render_many, render_shard_stats, render_stats,
    render_stats_json, Reply, Request, ShardInfo, ShardStatsReport, WireError, TRACEABLE,
};

/// The live connections by number: a clone of each socket, for forced
/// close on shutdown, and its reader thread. A thread removes its own
/// entry as it ends.
type Connections = Mutex<BTreeMap<usize, (Option<TcpStream>, JoinHandle<()>)>>;

/// What a wire node serves: the annotation service, or a search backend.
/// A verb of the other kind is a typed `bad-request`, not a panic.
enum Node {
    Service(Arc<AnnotationService>),
    Search(SearchNode),
}

/// The search-serving node: any [`SearchBackend`] plus its optional
/// cluster identity. With `info = None` the node reports itself as shard
/// 0 of 1 with `global_docs = n_docs()` — a single-node server is just a
/// one-shard cluster.
struct SearchNode {
    backend: Arc<dyn SearchBackend>,
    info: Option<ShardInfo>,
    /// Lifetime count of queries searched (one per query of a
    /// `SEARCH-MANY`), for `SHARD-STATS`; registered on the node's
    /// registry as `searches`.
    searches: Arc<Counter>,
    /// Lifetime count of pages hydrated by `FETCH`; registered on the
    /// node's registry as `fetched`, so `METRICS` shows it.
    fetched: Arc<Counter>,
}

impl SearchNode {
    /// The cluster identity this node advertises.
    fn info(&self) -> ShardInfo {
        self.info.unwrap_or(ShardInfo {
            shard: 0,
            n_shards: 1,
            global_docs: self.backend.n_docs() as u64,
        })
    }
}

/// What the connection threads share.
struct NodeParts {
    node: Node,
    /// The node's observability surface: the service's registry on an
    /// annotation node (so `METRICS` sees the scheduler's stage
    /// histograms), a fresh per-node registry on a search-only node.
    obs: Arc<ObsRegistry>,
}

impl NodeParts {
    /// A search-only node's parts. It has no service registry, so it
    /// gets its own, labelled with its shard identity so grafted
    /// cross-node traces name the shard that produced them.
    fn search(backend: Arc<dyn SearchBackend>, info: Option<ShardInfo>) -> NodeParts {
        let name = match info {
            Some(info) => format!("shard{}", info.shard),
            None => "node".to_string(),
        };
        let obs = ObsRegistry::new(&name);
        let searches = obs.counter("searches");
        let fetched = obs.counter("fetched");
        NodeParts {
            node: Node::Search(SearchNode {
                backend,
                info,
                searches,
                fetched,
            }),
            obs,
        }
    }
}

/// The line-protocol TCP front-end over one [`AnnotationService`] or
/// one [`SearchBackend`].
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Connections>,
    acceptor: Option<JoinHandle<()>>,
    /// Kept so shutdown can unpark connection threads waiting on a dry
    /// query pool (`wake_blocked_submitters`).
    parts: Arc<NodeParts>,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port; read it back
    /// with [`local_addr`](Self::local_addr)) and starts the acceptor.
    /// The service rides behind an `Arc` so in-process callers can keep
    /// submitting beside the wire clients. `SEARCH-MANY`, `FETCH` and
    /// `SHARD-STATS` are `bad-request` on such a node; see
    /// [`start_search_only`](Self::start_search_only).
    pub fn start(
        service: Arc<AnnotationService>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<WireServer> {
        let obs = service.obs();
        Self::start_node(
            NodeParts {
                node: Node::Service(service),
                obs,
            },
            addr,
        )
    }

    /// Starts a search-only node — what a cluster shard process runs:
    /// no annotation pipeline, just `SEARCH-MANY`/`FETCH`/`SHARD-STATS`
    /// (plus `METRICS`, `TRACE-DUMP` and `QUIT`) over the given backend.
    pub fn start_search_only(
        backend: Arc<dyn SearchBackend>,
        info: Option<ShardInfo>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<WireServer> {
        Self::start_node(NodeParts::search(backend, info), addr)
    }

    fn start_node(parts: NodeParts, addr: impl ToSocketAddrs) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Connections::default());
        let parts = Arc::new(parts);

        let acceptor = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let parts = Arc::clone(&parts);
            std::thread::Builder::new()
                .name("teda-wire-acceptor".into())
                .spawn(move || accept_loop(&listener, &parts, &stop, &conns))
                .expect("spawn wire acceptor")
        };
        Ok(WireServer {
            addr,
            stop,
            conns,
            acceptor: Some(acceptor),
            parts,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node's registry, what `METRICS` renders: on a search-only
    /// node its `searches` and `fetched` counters.
    pub fn obs(&self) -> Arc<ObsRegistry> {
        Arc::clone(&self.parts.obs)
    }

    /// Stops accepting, closes every connection, joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept awake; the connection is refused a
        // frame because the stop flag is already up.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let live = std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for stream in live.values().filter_map(|(stream, _)| stream.as_ref()) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Connection threads parked on a dry query pool are not
        // unblocked by the socket close — kick the admission condvar so
        // their cancellable submissions observe the stop flag, or the
        // joins below would deadlock.
        if let Node::Service(service) = &self.parts.node {
            service.wake_blocked_submitters();
        }
        for (_, thread) in live.into_values() {
            let _ = thread.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Accepts until the stop flag rises; spawns one reader per connection.
fn accept_loop(
    listener: &TcpListener,
    parts: &Arc<NodeParts>,
    stop: &Arc<AtomicBool>,
    conns: &Arc<Connections>,
) {
    let mut conn_id = 0usize;
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            // Persistent accept errors (fd exhaustion, ECONNABORTED
            // storms) must not busy-spin the acceptor at 100% CPU —
            // back off briefly and retry.
            std::thread::sleep(std::time::Duration::from_millis(10));
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return; // the shutdown poke (or a late client) — drop it
        }
        conn_id += 1;
        let parts = Arc::clone(parts);
        let stop_flag = Arc::clone(stop);
        let registered = stream.try_clone().ok();
        let own = Arc::clone(conns);
        // Spawn under the lock, so the thread cannot remove its entry
        // before the entry is in. Removing it drops the socket clone and
        // the thread's own handle: the connection is over, and all the
        // thread has left to do is return.
        let mut live = conns.lock().unwrap_or_else(PoisonError::into_inner);
        let thread = std::thread::Builder::new()
            .name(format!("teda-wire-conn-{conn_id}"))
            .spawn(move || {
                handle_connection(&parts, stream, &stop_flag);
                own.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&conn_id);
            })
            .expect("spawn wire connection thread");
        live.insert(conn_id, (registered, thread));
    }
}

/// One connection: frame in, frame out, until EOF/`QUIT`/shutdown.
fn handle_connection(parts: &NodeParts, stream: TcpStream, stop: &AtomicBool) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut client = ClientId::ANONYMOUS;

    while !stop.load(Ordering::SeqCst) {
        let line = match read_frame(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => return, // orderly EOF
            Err(e @ WireError::BadRequest(_)) => {
                // Over-long frame: report, then drop the connection —
                // there is no way to find the next frame boundary.
                let _ = writer.write_all(Reply::Err(e).encode().as_bytes());
                return;
            }
            // A transport error, or a frame cut off by EOF: nothing
            // complete arrived, so nothing runs.
            Err(_) => return,
        };
        let request = Request::parse(&line);
        let quit = matches!(request, Ok(Request::Quit));
        let reply = match request {
            Ok(request) => dispatch(parts, &mut client, request, None, stop),
            Err(e) => Reply::Err(e),
        };
        if writer.write_all(reply.encode().as_bytes()).is_err() || quit {
            return;
        }
        let _ = writer.flush();
    }
}

/// Answers one request as `client`. `trace` is the caller's id when the
/// request came under a `TRACE <id>` prefix: the verb then runs under a
/// trace context carrying that id, so the tree this node records can be
/// fetched with `TRACE-DUMP <id>` and grafted into the caller's tree —
/// one id reconstructs a cross-node request. Tracing changes no reply.
fn dispatch(
    parts: &NodeParts,
    client: &mut ClientId,
    request: Request,
    trace: Option<u64>,
    stop: &AtomicBool,
) -> Reply {
    match request {
        Request::Quit => Reply::Ok("bye".into()),
        Request::Client { name } => {
            *client = ClientId::new(&name);
            Reply::Ok(format!("client {name}"))
        }
        Request::Metrics => Reply::Ok(parts.obs.to_prometheus()),
        Request::TraceDump { id } => match parts.obs.trace(id) {
            Some(trace) => Reply::Ok(trace.render()),
            None => Reply::Err(WireError::BadRequest(format!(
                "no completed trace {id:016x}"
            ))),
        },
        Request::Traced { id, inner } if inner.is_traceable() => {
            dispatch(parts, client, *inner, Some(id), stop)
        }
        // `Request::parse` only wraps traceable verbs; an in-process
        // caller handing us another is a bad request, not a panic.
        Request::Traced { .. } => Reply::Err(WireError::BadRequest(TRACEABLE.into())),
        request => match &parts.node {
            Node::Service(service) => {
                serve_service(service, &parts.obs, client, request, trace, stop)
            }
            Node::Search(node) => serve_search(node, &parts.obs, request, trace),
        },
    }
}

/// The annotation node's verbs; a traced `ANNOTATE`/`TRY` runs under a
/// `request` trace.
fn serve_service(
    service: &AnnotationService,
    obs: &ObsRegistry,
    client: &ClientId,
    request: Request,
    trace: Option<u64>,
    stop: &AtomicBool,
) -> Reply {
    let trace = || trace.map(|id| obs.trace_with_id(id, "request"));
    match request {
        Request::Stats => Reply::Ok(render_stats(&service.stats())),
        Request::StatsJson => Reply::Ok(render_stats_json(&service.stats())),
        Request::Budget => Reply::Ok(match service.remaining_budget() {
            Some(n) => format!("budget {n}"),
            None => "budget unmetered".into(),
        }),
        // Persist the query-cache snapshot on demand (an operator
        // checkpoint before a planned restart). Store trouble —
        // including "no store configured" — is a typed failure on this
        // request only; the connection lives on.
        Request::Snapshot => match service.snapshot_now() {
            Ok(entries) => Reply::Ok(format!("snapshot {entries}")),
            Err(e) => Reply::Err(WireError::Failed(e.to_string())),
        },
        Request::Annotate { name, csv } => annotate(
            service,
            client,
            &name,
            &csv,
            Wait::Block(Some(stop)),
            trace(),
        ),
        Request::Try { name, csv } => annotate(service, client, &name, &csv, Wait::Shed, trace()),
        _ => Reply::Err(WireError::BadRequest(
            "this node serves no search backend".into(),
        )),
    }
}

/// The search node's verbs; a traced search or fetch runs in one span
/// (`search` or `page_hydration`) under a root named for its verb
/// (`search_many` or `fetch`).
fn serve_search(
    node: &SearchNode,
    obs: &ObsRegistry,
    request: Request,
    trace: Option<u64>,
) -> Reply {
    let traced = |root: &'static str, span: &'static str, serve: &dyn Fn() -> Reply| {
        let ctx = trace.map_or_else(TraceCtx::disabled, |id| obs.trace_with_id(id, root));
        let reply = {
            let _span = ctx.span(span);
            serve()
        };
        ctx.finish();
        reply
    };
    match request {
        // Scored ids only, one ranking per query: the fields go out in
        // a later `FETCH` of the ids the caller keeps.
        Request::SearchMany { queries } => traced("search_many", stage::SEARCH, &|| {
            node.searches.add(queries.len() as u64);
            let answers: Vec<Vec<_>> = queries
                .iter()
                .map(|(k, query)| node.backend.search(query, *k))
                .collect();
            Reply::Ok(render_many(&answers))
        }),
        Request::Fetch { ids } => traced("fetch", stage::PAGE_HYDRATION, &|| {
            let global_docs = node.info().global_docs;
            if let Some(past) = ids.iter().find(|id| u64::from(id.0) >= global_docs) {
                return Reply::Err(WireError::BadRequest(format!(
                    "page {} is past the corpus of {global_docs}",
                    past.0
                )));
            }
            match node.backend.fetch(&ids) {
                Ok(pages) => {
                    node.fetched.add(pages.len() as u64);
                    Reply::Ok(render_fetched(&ids, &pages))
                }
                Err(reason) => Reply::Err(WireError::BadRequest(reason)),
            }
        }),
        Request::ShardStats => {
            let info = node.info();
            Reply::Ok(render_shard_stats(&ShardStatsReport {
                shard: info.shard,
                n_shards: info.n_shards,
                docs: node.backend.n_docs() as u64,
                global_docs: info.global_docs,
                searches: node.searches.get(),
            }))
        }
        _ => Reply::Err(WireError::BadRequest(
            "this node serves no annotation service".into(),
        )),
    }
}

/// Parses and submits one table, waiting for the outcome. Every failure
/// mode maps onto a typed wire error; nothing from untrusted input can
/// unwind this thread. `wait` is the verb's admission mode: `ANNOTATE`
/// blocks, cancellable by server shutdown so a connection parked on a
/// dry pool cannot deadlock the join; `TRY` sheds. A `Some(trace)` runs
/// the request under the caller's `TRACE <id>`.
fn annotate(
    service: &AnnotationService,
    client: &ClientId,
    name: &str,
    csv: &str,
    wait: Wait<'_>,
    trace: Option<TraceCtx>,
) -> Reply {
    let table = match table_from_csv(csv, name) {
        Ok(table) => Arc::new(table),
        Err(e) => return Reply::Err(WireError::BadRequest(e.message().to_owned())),
    };
    let submitted = service.submit(SubmitRequest {
        table,
        client: client.clone(),
        trace,
        wait,
    });
    let handle = match submitted {
        Ok(handle) => handle,
        Err(rejection) => return Reply::Err(rejection.into()),
    };
    match handle.wait() {
        Ok(outcome) => Reply::Ok(render_annotations(&outcome.annotations)),
        Err(_) => Reply::Err(WireError::Failed(
            "annotation worker failed (engine panic)".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireClient;
    use std::time::{Duration, Instant};
    use teda_websim::{WebCorpus, WebPage};

    fn corpus() -> Arc<WebCorpus> {
        let page = |url: &str, body: &str| WebPage {
            url: url.into(),
            title: url.to_uppercase(),
            body: body.into(),
        };
        Arc::new(WebCorpus::from_pages(vec![
            page("p0", "harbor museum"),
            page("p1", "harbor jazz"),
        ]))
    }

    fn held(server: &WireServer) -> usize {
        server
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// A connection that ends gives its socket and its thread back, so
    /// the server holds only live connections however many it has
    /// served; shutdown still closes the ones that are open.
    #[test]
    fn ended_connections_are_released_and_open_ones_closed_at_shutdown() {
        let server = WireServer::start_search_only(corpus(), None, "127.0.0.1:0").unwrap();
        for _ in 0..64 {
            let mut client = WireClient::connect(server.local_addr()).unwrap();
            assert_eq!(client.search("harbor", 3).unwrap().len(), 2);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while held(&server) > 0 {
            assert!(
                Instant::now() < deadline,
                "{} ended connections still held",
                held(&server)
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        let mut open = WireClient::connect(server.local_addr()).unwrap();
        open.search("harbor", 3).unwrap();
        assert_eq!(held(&server), 1, "an open connection stays held");
        server.shutdown();
        assert!(
            matches!(open.search("harbor", 3), Err(WireError::Transport(_))),
            "shutdown must close an open connection"
        );
    }

    /// The dispatch refuses, typed, a `TRACE` around a request that
    /// cannot be traced, however it was built: no trace is recorded, no
    /// search runs, and a wrapped `CLIENT` renames nobody.
    #[test]
    fn a_non_traceable_request_handed_in_process_is_a_bad_request() {
        let parts = NodeParts::search(corpus(), None);
        let stop = AtomicBool::new(false);
        let mut client = ClientId::ANONYMOUS;
        let search = || Request::SearchMany {
            queries: vec![(3, "harbor".into())],
        };
        for inner in [
            Request::Stats,
            Request::Quit,
            Request::ShardStats,
            Request::Client { name: "x".into() },
            Request::Traced {
                id: 2,
                inner: Box::new(search()),
            },
        ] {
            let traced = Request::Traced {
                id: 1,
                inner: Box::new(inner),
            };
            assert_eq!(
                dispatch(&parts, &mut client, traced, None, &stop),
                Reply::Err(WireError::BadRequest(TRACEABLE.into()))
            );
        }
        assert_eq!(client, ClientId::ANONYMOUS);
        assert!(parts.obs.trace_ids().is_empty(), "nothing was traced");
        let Node::Search(node) = &parts.node else {
            panic!("a search node");
        };
        assert_eq!(node.searches.get(), 0, "nothing was searched");

        // A plain search records no trace; the same search traced does.
        let plain = dispatch(&parts, &mut client, search(), None, &stop);
        assert!(parts.obs.trace_ids().is_empty());
        let traced = Request::Traced {
            id: 7,
            inner: Box::new(search()),
        };
        assert_eq!(dispatch(&parts, &mut client, traced, None, &stop), plain);
        assert_eq!(parts.obs.trace_ids(), vec![7]);
        assert_eq!(node.searches.get(), 2);
    }
}
