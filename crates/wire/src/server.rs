//! The TCP front-end: a std-thread acceptor plus one reader thread per
//! connection, each driving the shared [`AnnotationService`] and/or
//! [`SearchBackend`] — a node may serve either half or both (a cluster
//! shard process is a search-only node).
//!
//! Shape: the acceptor blocks in `accept`; every connection gets a
//! thread that reads one frame at a time, parses it with
//! [`Request::parse`], and answers with exactly one [`Reply`] frame —
//! strict request/response, so one connection has at most one request
//! in flight and a bulk client is naturally rate-limited to its own
//! round-trips while the fairness layer meters its tokens.
//!
//! Identity: a connection starts as [`ClientId::ANONYMOUS`]; a `CLIENT
//! <name>` frame switches every later submission on that connection to
//! the named client, which is what the per-client admission buckets and
//! [`ServiceStats::clients`](teda_service::ServiceStats) key on.
//!
//! Shutdown: [`WireServer::shutdown`] (also run on drop) raises a stop
//! flag, force-closes the registered connection sockets, pokes the
//! acceptor awake with a loopback connect, and joins every thread. In-
//! flight requests finish or fail through the service's own drain.

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
    read_frame, render_annotations, render_hits, render_many, render_scored, render_shard_stats,
    render_stats, render_stats_json, Reply, Request, SearchHit, ShardInfo, ShardStatsReport,
    WireError, TRACEABLE,
};

/// Threads and sockets the server must reap on shutdown.
#[derive(Default)]
struct Registry {
    /// One clone of each live connection's stream, for forced close.
    streams: Vec<TcpStream>,
    /// Connection reader threads.
    handles: Vec<JoinHandle<()>>,
}

/// The search-serving half of a wire node: any [`SearchBackend`] plus
/// its optional cluster identity. With `info = None` the node reports
/// itself as shard 0 of 1 with `global_docs = n_docs()` — a single-node
/// server is just a one-shard cluster.
pub struct SearchNode {
    /// What `SEARCH`/`SEARCH-FULL` rank against.
    pub backend: Arc<dyn SearchBackend>,
    /// The node's place in a cluster, if it serves a shard image.
    pub info: Option<ShardInfo>,
}

/// What the connection threads share: each half of the node is
/// optional, and verbs against a missing half are `bad-request`, not
/// panics. A shard server runs search-only; the classic annotation
/// front-end runs service-only; a full node runs both.
struct NodeParts {
    service: Option<Arc<AnnotationService>>,
    search: Option<SearchNode>,
    /// Lifetime count of queries searched (one per `SEARCH`/
    /// `SEARCH-FULL`, one per query of a `SEARCH-MANY`), for
    /// `SHARD-STATS`; registered on `obs` as `searches` when the node
    /// serves search.
    searches: Arc<Counter>,
    /// The node's observability surface: the service's registry when
    /// this node runs one (so `METRICS` sees the scheduler's stage
    /// histograms), a fresh per-node registry on a search-only node.
    obs: Arc<ObsRegistry>,
}

/// The line-protocol TCP front-end over one [`AnnotationService`],
/// one [`SearchBackend`], or both.
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    registry: Arc<Mutex<Registry>>,
    acceptor: Option<JoinHandle<()>>,
    /// Kept so shutdown can unpark connection threads waiting on a dry
    /// query pool (`wake_blocked_submitters`).
    parts: Arc<NodeParts>,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port; read it back
    /// with [`local_addr`](Self::local_addr)) and starts the acceptor.
    /// The service rides behind an `Arc` so in-process callers can keep
    /// submitting beside the wire clients. `SEARCH`/`SHARD-STATS` are
    /// `bad-request` on such a node; see
    /// [`start_search_only`](Self::start_search_only) and
    /// [`start_with_search`](Self::start_with_search).
    pub fn start(
        service: Arc<AnnotationService>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<WireServer> {
        Self::start_node(Some(service), None, addr)
    }

    /// Starts a search-only node — what a cluster shard process runs:
    /// no annotation pipeline, just `SEARCH`/`SEARCH-FULL`/
    /// `SHARD-STATS` (plus `QUIT`) over the given backend.
    pub fn start_search_only(
        backend: Arc<dyn SearchBackend>,
        info: Option<ShardInfo>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<WireServer> {
        Self::start_node(None, Some(SearchNode { backend, info }), addr)
    }

    /// Starts a node serving both halves: the annotation verbs against
    /// `service` and the search verbs against `backend`.
    pub fn start_with_search(
        service: Arc<AnnotationService>,
        backend: Arc<dyn SearchBackend>,
        info: Option<ShardInfo>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<WireServer> {
        Self::start_node(Some(service), Some(SearchNode { backend, info }), addr)
    }

    fn start_node(
        service: Option<Arc<AnnotationService>>,
        search: Option<SearchNode>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Mutex::new(Registry::default()));
        let obs = match &service {
            Some(service) => service.obs(),
            None => {
                // A search-only node has no service registry — give it
                // its own, labelled with its shard identity so grafted
                // cross-node traces name the shard that produced them.
                let name = match search.as_ref().and_then(|s| s.info) {
                    Some(info) => format!("shard{}", info.shard),
                    None => "node".to_string(),
                };
                ObsRegistry::new(&name)
            }
        };
        let searches = match &search {
            Some(_) => obs.counter("searches"),
            None => Arc::default(),
        };
        let parts = Arc::new(NodeParts {
            service,
            search,
            searches,
            obs,
        });

        let acceptor = {
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            let parts = Arc::clone(&parts);
            std::thread::Builder::new()
                .name("teda-wire-acceptor".into())
                .spawn(move || accept_loop(&listener, &parts, &stop, &registry))
                .expect("spawn wire acceptor")
        };
        Ok(WireServer {
            addr,
            stop,
            registry,
            acceptor: Some(acceptor),
            parts,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
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
        let (streams, handles) = {
            let mut reg = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
            (
                std::mem::take(&mut reg.streams),
                std::mem::take(&mut reg.handles),
            )
        };
        for stream in streams {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Connection threads parked on a dry query pool are not
        // unblocked by the socket close — kick the admission condvar so
        // their cancellable submissions observe the stop flag, or the
        // joins below would deadlock.
        if let Some(service) = &self.parts.service {
            service.wake_blocked_submitters();
        }
        for handle in handles {
            let _ = handle.join();
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
    registry: &Arc<Mutex<Registry>>,
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
        let handle = std::thread::Builder::new()
            .name(format!("teda-wire-conn-{conn_id}"))
            .spawn(move || handle_connection(&parts, stream, &stop_flag))
            .expect("spawn wire connection thread");
        let mut reg = registry.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(stream) = registered {
            reg.streams.push(stream);
        }
        reg.handles.push(handle);
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
    // A verb against a half this node does not serve is a typed
    // per-request failure; the connection lives on.
    let no_service = || {
        Reply::Err(WireError::BadRequest(
            "this node serves no annotation service".into(),
        ))
    };

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
            Err(_) => return, // transport error
        };
        let reply = match Request::parse(&line) {
            Err(e) => Reply::Err(e),
            Ok(Request::Quit) => {
                let _ = writer.write_all(Reply::Ok("bye".into()).encode().as_bytes());
                return;
            }
            Ok(Request::Client { name }) => {
                client = ClientId::new(&name);
                Reply::Ok(format!("client {name}"))
            }
            Ok(Request::Stats) => match &parts.service {
                Some(service) => Reply::Ok(render_stats(&service.stats())),
                None => no_service(),
            },
            Ok(Request::StatsJson) => match &parts.service {
                Some(service) => Reply::Ok(render_stats_json(&service.stats())),
                None => no_service(),
            },
            Ok(Request::Metrics) => Reply::Ok(parts.obs.to_prometheus()),
            Ok(Request::TraceDump { id }) => match parts.obs.trace(id) {
                Some(trace) => Reply::Ok(trace.render()),
                None => Reply::Err(WireError::BadRequest(format!(
                    "no completed trace {id:016x}"
                ))),
            },
            Ok(Request::Traced { id, inner }) => serve_traced(parts, &client, id, *inner, stop),
            Ok(Request::Budget) => match &parts.service {
                Some(service) => Reply::Ok(match service.remaining_budget() {
                    Some(n) => format!("budget {n}"),
                    None => "budget unmetered".into(),
                }),
                None => no_service(),
            },
            // Persist the query-cache snapshot on demand (an operator
            // checkpoint before a planned restart). Store trouble —
            // including "no store configured" — is a typed failure on
            // this request only; the connection lives on.
            Ok(Request::Snapshot) => match &parts.service {
                Some(service) => match service.snapshot_now() {
                    Ok(entries) => Reply::Ok(format!("snapshot {entries}")),
                    Err(e) => Reply::Err(WireError::Failed(e.to_string())),
                },
                None => no_service(),
            },
            Ok(Request::Annotate { name, csv }) => match &parts.service {
                Some(service) => {
                    annotate(service, &client, &name, &csv, Wait::Block(Some(stop)), None)
                }
                None => no_service(),
            },
            Ok(Request::Try { name, csv }) => match &parts.service {
                Some(service) => annotate(service, &client, &name, &csv, Wait::Shed, None),
                None => no_service(),
            },
            Ok(Request::Search { k, query, full }) => match &parts.search {
                Some(node) => {
                    parts.searches.inc();
                    serve_search(node, &query, k, full)
                }
                None => no_search(),
            },
            Ok(Request::SearchMany { queries }) => match &parts.search {
                Some(node) => serve_search_many(parts, node, &queries),
                None => no_search(),
            },
            Ok(Request::ShardStats) => match &parts.search {
                Some(node) => {
                    let docs = node.backend.n_docs() as u64;
                    let info = node.info.unwrap_or(ShardInfo {
                        shard: 0,
                        n_shards: 1,
                        global_docs: docs,
                    });
                    Reply::Ok(render_shard_stats(&ShardStatsReport {
                        shard: info.shard,
                        n_shards: info.n_shards,
                        docs,
                        global_docs: info.global_docs,
                        searches: parts.searches.get(),
                    }))
                }
                None => no_search(),
            },
        };
        if writer.write_all(reply.encode().as_bytes()).is_err() {
            return;
        }
        let _ = writer.flush();
    }
}

/// The reply to a search verb on a node that serves no search backend.
fn no_search() -> Reply {
    Reply::Err(WireError::BadRequest(
        "this node serves no search backend".into(),
    ))
}

/// Serves one `SEARCH-MANY` request: each query ranked once, as
/// `SEARCH-FULL` ranks it, and answered in request order. Each query
/// counts as one search.
fn serve_search_many(parts: &NodeParts, node: &SearchNode, queries: &[(usize, String)]) -> Reply {
    parts.searches.add(queries.len() as u64);
    let answers: Vec<Vec<SearchHit>> = queries
        .iter()
        .map(|(k, query)| full_hits(node, query, *k))
        .collect();
    Reply::Ok(render_many(&answers))
}

/// Serves one `SEARCH`/`SEARCH-FULL` request. The full path takes ids,
/// scores and fields from one ranking ([`SearchBackend::search_hits`]),
/// so a hot-swapped backend can never pair a hit with another corpus's
/// page.
fn serve_search(node: &SearchNode, query: &str, k: usize, full: bool) -> Reply {
    if !full {
        return Reply::Ok(render_scored(&node.backend.search(query, k)));
    }
    Reply::Ok(render_hits(&full_hits(node, query, k)))
}

/// A node's `SEARCH-FULL` answer to one query: ids, scores and fields
/// from one ranking.
fn full_hits(node: &SearchNode, query: &str, k: usize) -> Vec<SearchHit> {
    node.backend
        .search_hits(query, k)
        .into_iter()
        .map(|(id, score, result)| SearchHit { id, score, result })
        .collect()
}

/// Serves one `TRACE <id>`-prefixed request: the inner request runs
/// under a trace context carrying the caller's id, so the tree this
/// node records can be fetched with `TRACE-DUMP <id>` and grafted into
/// the caller's tree — one id reconstructs a cross-node request.
fn serve_traced(
    parts: &NodeParts,
    client: &ClientId,
    id: u64,
    inner: Request,
    stop: &AtomicBool,
) -> Reply {
    match inner {
        Request::Search { k, query, full } => match &parts.search {
            Some(node) => {
                parts.searches.inc();
                let ctx = parts.obs.trace_with_id(id, "search");
                let reply = {
                    let _span = ctx.span(stage::SEARCH);
                    serve_search(node, &query, k, full)
                };
                ctx.finish();
                reply
            }
            None => no_search(),
        },
        Request::SearchMany { queries } => match &parts.search {
            Some(node) => {
                let ctx = parts.obs.trace_with_id(id, "search_many");
                let reply = {
                    let _span = ctx.span(stage::SEARCH);
                    serve_search_many(parts, node, &queries)
                };
                ctx.finish();
                reply
            }
            None => no_search(),
        },
        Request::Annotate { name, csv } => match &parts.service {
            Some(service) => annotate(
                service,
                client,
                &name,
                &csv,
                Wait::Block(Some(stop)),
                Some(parts.obs.trace_with_id(id, "request")),
            ),
            None => Reply::Err(WireError::BadRequest(
                "this node serves no annotation service".into(),
            )),
        },
        Request::Try { name, csv } => match &parts.service {
            Some(service) => annotate(
                service,
                client,
                &name,
                &csv,
                Wait::Shed,
                Some(parts.obs.trace_with_id(id, "request")),
            ),
            None => Reply::Err(WireError::BadRequest(
                "this node serves no annotation service".into(),
            )),
        },
        // `Request::parse` only wraps the verbs above; an
        // in-process caller handing us something else is a bad request,
        // not a panic.
        _ => Reply::Err(WireError::BadRequest(TRACEABLE.into())),
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
