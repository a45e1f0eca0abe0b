//! A minimal blocking client for the wire protocol — what the
//! experiments, tests and examples drive the server with, and a
//! reference implementation for clients in other languages.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use teda_websim::{PageId, SearchResult};

use crate::protocol::{
    parse_fetched, parse_many, parse_shard_stats, read_frame, Reply, Request, ShardStatsReport,
    WireError,
};

/// One connection to a [`WireServer`](crate::WireServer): one reply
/// frame per request frame, in order. The verb methods are round-trips;
/// [`send`](Self::send) and [`receive`](Self::receive) split one, so a
/// caller can have a request in flight on several connections at once.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The server's address, remembered so auto-reconnect can redial.
    addr: Option<SocketAddr>,
    /// The timeout to reinstall on a redialled socket.
    io_timeout: Option<Duration>,
    auto_reconnect: bool,
    /// False once a read failed mid-frame (an over-long reply, a
    /// transport error): the stream's next frame boundary is unknown.
    framed: bool,
}

impl WireClient {
    /// Connects to a running wire server. No I/O deadline: a blocking
    /// `ANNOTATE` against a backpressured server may legitimately stall
    /// for as long as admission takes (see
    /// [`set_io_timeout`](Self::set_io_timeout) to bound it anyway).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<WireClient> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects with a deadline on the TCP handshake **and** installs
    /// the same deadline as the connection's I/O timeout — a server
    /// that accepts but never answers (half-dead process, partitioned
    /// network) errors the pending call out instead of blocking the
    /// caller forever.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        let mut client = Self::from_stream(stream)?;
        client.set_io_timeout(Some(timeout))?;
        Ok(client)
    }

    /// Sets (or with `None` clears) the read/write timeout of every
    /// later round-trip. A request whose reply does not arrive in time
    /// fails with [`WireError::Transport`]; the connection should be
    /// dropped afterwards — the late reply would desynchronize the
    /// strict request/response framing.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        // Reader and writer are clones of one socket: the timeouts are
        // per-fd, but set both halves explicitly so the intent survives
        // any future move away from `try_clone`.
        self.writer.set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)?;
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.reader.get_ref().set_write_timeout(timeout)?;
        self.io_timeout = timeout;
        Ok(())
    }

    /// Opts this connection into transparent reconnection: when a
    /// **read-only** request ([`Request::is_read_only`]) fails with a
    /// transport error (server restarted, idle connection reaped), the
    /// client redials once and retries that one request. Mutating
    /// requests are never retried — a lost `ANNOTATE` reply leaves the
    /// submission's fate unknown, and a replay could double-apply it.
    pub fn set_auto_reconnect(&mut self, on: bool) {
        self.auto_reconnect = on;
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<WireClient> {
        stream.set_nodelay(true).ok(); // request/response latency
        let addr = stream.peer_addr().ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(WireClient {
            reader,
            writer: stream,
            addr,
            io_timeout: None,
            auto_reconnect: false,
            framed: true,
        })
    }

    /// Redials the remembered server address and swaps the socket in
    /// place, reinstalling the configured I/O timeout.
    fn reconnect(&mut self) -> Result<(), WireError> {
        let addr = self
            .addr
            .ok_or_else(|| WireError::Transport("no server address to reconnect to".into()))?;
        let stream = match self.io_timeout {
            Some(t) => TcpStream::connect_timeout(&addr, t),
            None => TcpStream::connect(addr),
        }
        .map_err(|e| WireError::Transport(format!("reconnect to {addr}: {e}")))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.io_timeout).ok();
        stream.set_write_timeout(self.io_timeout).ok();
        self.reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| WireError::Transport(e.to_string()))?,
        );
        self.writer = stream;
        self.framed = true;
        Ok(())
    }

    /// Whether the next [`receive`](Self::receive) starts at a frame
    /// boundary. A reply that could not be read to its end (longer than
    /// [`MAX_FRAME`](crate::protocol::MAX_FRAME), or cut by a transport
    /// error or by EOF) leaves the stream mid-line, so the connection
    /// must be dropped, never reused: its next read would be that tail.
    pub fn is_framed(&self) -> bool {
        self.framed
    }

    /// `CLIENT <name>`: attributes every later submission on this
    /// connection to `name` for fair admission and per-client stats.
    pub fn set_client(&mut self, name: &str) -> Result<String, WireError> {
        self.roundtrip(&Request::Client { name: name.into() })
    }

    /// `ANNOTATE`: blocking submission — stalls under backpressure,
    /// returns the deterministic annotation rendering
    /// ([`crate::protocol::render_annotations`]).
    pub fn annotate(&mut self, name: &str, csv: &str) -> Result<String, WireError> {
        self.roundtrip(&Request::Annotate {
            name: name.into(),
            csv: csv.into(),
        })
    }

    /// `TRY`: non-blocking submission — sheds with a typed error when
    /// the queue or the budget cannot take the table now.
    pub fn try_annotate(&mut self, name: &str, csv: &str) -> Result<String, WireError> {
        self.roundtrip(&Request::Try {
            name: name.into(),
            csv: csv.into(),
        })
    }

    /// `STATS`: the service counters, rendered
    /// ([`crate::protocol::render_stats`]).
    pub fn stats(&mut self) -> Result<String, WireError> {
        self.roundtrip(&Request::Stats)
    }

    /// `BUDGET`: `"budget <n>"` or `"budget unmetered"`.
    pub fn budget(&mut self) -> Result<String, WireError> {
        self.roundtrip(&Request::Budget)
    }

    /// `SNAPSHOT`: persist the service's query-cache snapshot now —
    /// `"snapshot <entries>"`, or `failed` when the service has no
    /// store directory or the write fails.
    pub fn snapshot(&mut self) -> Result<String, WireError> {
        self.roundtrip(&Request::Snapshot)
    }

    /// A one-query `SEARCH-MANY`: the node's scored top-`k` for
    /// `query` — global page ids with exact score bits, in rank order.
    pub fn search(&mut self, query: &str, k: usize) -> Result<Vec<(PageId, f64)>, WireError> {
        Ok(self.search_many(&[(query, k)])?.remove(0))
    }

    /// `SEARCH-MANY`: the scored top-`k` for each `(query, k)` pair, in
    /// one frame and in request order. At most
    /// [`MAX_BATCH`](crate::protocol::MAX_BATCH) pairs fit a frame; an
    /// empty or larger batch is a `bad-request`.
    pub fn search_many(
        &mut self,
        queries: &[(&str, usize)],
    ) -> Result<Vec<Vec<(PageId, f64)>>, WireError> {
        let payload = self.roundtrip(&Self::search_request(queries))?;
        parse_many(&payload, queries.len())
    }

    fn search_request(queries: &[(&str, usize)]) -> Request {
        Request::SearchMany {
            queries: queries.iter().map(|&(q, k)| (k, q.to_owned())).collect(),
        }
    }

    /// `FETCH`: the url, title and snippet of each page in `ids`
    /// (strictly ascending, at most
    /// [`MAX_FETCH`](crate::protocol::MAX_FETCH)), in that order. A
    /// reply that answers other ids than those asked for is a
    /// `bad-request`, as is an id the node does not hold.
    pub fn fetch(&mut self, ids: &[PageId]) -> Result<Vec<SearchResult>, WireError> {
        let payload = self.roundtrip(&Request::Fetch { ids: ids.to_vec() })?;
        parse_fetched(&payload, ids)
    }

    /// `SHARD-STATS`: the node's shard identity, document counts and
    /// lifetime search counter.
    pub fn shard_stats(&mut self) -> Result<ShardStatsReport, WireError> {
        let payload = self.roundtrip(&Request::ShardStats)?;
        parse_shard_stats(&payload)
    }

    /// `STATS JSON`: the full service counters — per-stage histograms
    /// included — as one JSON object
    /// ([`crate::protocol::render_stats_json`]).
    pub fn stats_json(&mut self) -> Result<String, WireError> {
        self.roundtrip(&Request::StatsJson)
    }

    /// `METRICS`: the node's stage histograms and counters in
    /// Prometheus text exposition format.
    pub fn metrics(&mut self) -> Result<String, WireError> {
        self.roundtrip(&Request::Metrics)
    }

    /// `TRACE-DUMP <id>`: one completed span tree from the node's trace
    /// ring, parsed back into a [`teda_obs::Trace`].
    pub fn trace_dump(&mut self, id: u64) -> Result<teda_obs::Trace, WireError> {
        let payload = self.roundtrip(&Request::TraceDump { id })?;
        teda_obs::Trace::parse(&payload).map_err(WireError::BadRequest)
    }

    /// `TRACE <id> SEARCH-MANY …`: a one-query scored search run under
    /// the caller's trace id — the node records its span tree under
    /// `id`, ready for [`trace_dump`](Self::trace_dump) and cross-node
    /// grafting.
    pub fn search_traced(
        &mut self,
        id: u64,
        query: &str,
        k: usize,
    ) -> Result<Vec<(PageId, f64)>, WireError> {
        let payload = self.roundtrip(&Request::Traced {
            id,
            inner: Box::new(Self::search_request(&[(query, k)])),
        })?;
        Ok(parse_many(&payload, 1)?.remove(0))
    }

    /// `TRACE <id> ANNOTATE …`: a blocking submission run under the
    /// caller's trace id.
    pub fn annotate_traced(&mut self, id: u64, name: &str, csv: &str) -> Result<String, WireError> {
        self.roundtrip(&Request::Traced {
            id,
            inner: Box::new(Request::Annotate {
                name: name.into(),
                csv: csv.into(),
            }),
        })
    }

    /// `QUIT`: orderly close (the server answers `OK bye` first).
    pub fn quit(mut self) -> Result<String, WireError> {
        self.roundtrip(&Request::Quit)
    }

    /// Sends one request frame and reads one reply frame (through the
    /// same bounded [`read_frame`] the server uses). With
    /// [`set_auto_reconnect`](Self::set_auto_reconnect) on, a transport
    /// failure on a read-only request redials the server once and
    /// retries that request on the fresh connection.
    fn roundtrip(&mut self, request: &Request) -> Result<String, WireError> {
        match self.roundtrip_once(request) {
            Err(WireError::Transport(_)) if self.auto_reconnect && request.is_read_only() => {
                self.reconnect()?;
                self.roundtrip_once(request)
            }
            other => other,
        }
    }

    fn roundtrip_once(&mut self, request: &Request) -> Result<String, WireError> {
        self.send(request)?;
        self.receive()
    }

    /// Writes one request frame without waiting for its reply. Pair
    /// every `send` with one [`receive`](Self::receive): the server
    /// answers frames in order, so a caller may write to several
    /// connections first and collect the replies afterwards. No
    /// auto-reconnect here — after a transport error the connection
    /// should be dropped. On a connection that is no longer
    /// [framed](Self::is_framed) it sends nothing and fails with
    /// [`WireError::Transport`], so no reply is ever read off a stale
    /// tail.
    pub fn send(&mut self, request: &Request) -> Result<(), WireError> {
        if !self.framed {
            return Err(WireError::Transport(
                "connection lost its frame boundary".into(),
            ));
        }
        self.writer.write_all(request.encode().as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the reply frame to the oldest unanswered
    /// [`send`](Self::send), through the same bounded [`read_frame`]
    /// the server uses: the `OK` payload, or the typed error the server
    /// answered with.
    pub fn receive(&mut self) -> Result<String, WireError> {
        let line = read_frame(&mut self.reader)
            .inspect_err(|_| self.framed = false)?
            .ok_or_else(|| WireError::Transport("server closed the connection".into()))?;
        match Reply::parse(&line)? {
            Reply::Ok(payload) => Ok(payload),
            Reply::Err(e) => Err(e),
        }
    }
}
