//! The wire grammar: newline-delimited frames, backslash escaping,
//! typed errors mirroring [`Rejection`].
//!
//! Every request and every reply is exactly one `\n`-terminated line.
//! Payloads that themselves contain newlines (CSV documents, annotation
//! listings, stats reports) ride inside a frame with `\`-escaping:
//! `\\` ↔ `\`, `\n` ↔ newline, `\r` ↔ carriage return, `\t` ↔ tab — so
//! a quoted POI address spanning lines is still one frame, tab-separated
//! result fields cannot be forged by field content, and framing survives
//! arbitrary untrusted input.
//!
//! ```text
//! request  = "CLIENT" SP name LF            ; set this connection's ClientId
//!          | "ANNOTATE" SP name SP csv LF   ; blocking submit (backpressure)
//!          | "TRY" SP name SP csv LF        ; non-blocking submit (sheds)
//!          | "STATS" LF                     ; ServiceStats snapshot
//!          | "BUDGET" LF                    ; remaining query pool
//!          | "SNAPSHOT" LF                  ; persist the query-cache snapshot
//!          | "SEARCH-MANY" SP n SP item *(HTAB item) LF
//!                                         ; scored top-k page ids,
//!                                         ; for n queries at once
//!          | "FETCH" SP m 1*(SP page)  LF   ; the fields of m pages by id
//!          | "SHARD-STATS" LF               ; shard identity + global stats
//!          | "STATS" SP "JSON" LF           ; ServiceStats as one JSON object
//!          | "METRICS" LF                   ; Prometheus-style exposition
//!          | "TRACE-DUMP" SP id LF          ; one completed span tree by id
//!          | "TRACE" SP id SP request LF    ; run request under trace id
//!          | "QUIT" LF                      ; close the connection
//! name     = 1*VCHAR                        ; no spaces, ≤ 256 bytes
//! k        = 1*DIGIT                        ; ≤ MAX_K
//! n        = 1*DIGIT                        ; 1 ≤ n ≤ MAX_BATCH, the item count
//! item     = k SP query                     ; the query escaped, so tab-free
//! m        = 1*DIGIT                        ; 1 ≤ m ≤ MAX_FETCH, the id count
//! page     = 1*DIGIT                        ; a global page id, strictly
//!                                           ; ascending along the list
//! id       = 16HEXDIG                       ; a trace id, zero-padded hex
//! csv      = escaped CSV document, optionally led by a "#types" row
//!
//! reply    = "OK" [SP payload] LF
//!          | "ERR" SP code [SP detail] LF
//! code     = "queue-full" | "budget-exhausted" | "too-large"
//!          | "shutting-down" | "failed" | "bad-request"
//! ```
//!
//! A search is two verbs, query then fetch. A `SEARCH-MANY` reply
//! ([`render_many`]) is a `queries=<n>` header, then one `hits=<m>` body
//! per query in request order, one `<id> <score-hex>` line per hit.
//! Scores travel as 16-hex-digit IEEE-754 bit patterns, so cluster
//! bit-identity is never at the mercy of decimal formatting. A `FETCH`
//! reply ([`render_fetched`]) is a `pages=<m>` header, then one
//! `<id>\t<url>\t<title>\t<snippet>` line per requested id in request
//! order, the fields escaped so the columns cannot be forged by page
//! text. A cluster router ranks with the first and hydrates only its
//! merged winners with the second.
//!
//! `ANNOTATE`/`TRY` payloads parse through
//! [`teda_corpus::table_from_csv`], i.e. the exact format
//! `teda_corpus::export` writes; the `OK` payload is
//! [`render_annotations`] — a deterministic text rendering, so "wire
//! result bit-identical to the offline batch path" is a string
//! comparison.

use teda_core::pipeline::TableAnnotations;
use teda_service::{Rejection, ServiceStats};
use teda_websim::{PageId, SearchResult};

/// Hard bound on one frame (request or reply), escape included. A line
/// longer than this is a `bad-request` and the connection is dropped —
/// the reader cannot resynchronize inside an oversized frame.
pub const MAX_FRAME: usize = 4 * 1024 * 1024;

/// Bound on client and table names.
pub const MAX_NAME: usize = 256;

/// Bound on a search's `k`, enforced at parse time so a hostile frame
/// cannot make the server pre-size unbounded result buffers.
pub const MAX_K: usize = 100_000;

/// Bound on the queries of one `SEARCH-MANY` frame, enforced at parse
/// time; a caller with more splits them over several frames. A frame
/// carries scored ids only. Measured on the Standard `serve_cluster`
/// fixture (64 tables over 4 shards, `k = 10`): a query's answer is
/// about 240 B per shard, so a full frame's reply stays under 4 KB
/// (largest seen 3,880 B). The fields travel in `FETCH` replies, about
/// 195 B per page, which averaged 5.5 KB per frame and shard (largest
/// 11.3 KB). A frame of hydrated answers, about 2 KB per query per
/// shard, was near 35 KB. Every reply is thus far under [`MAX_FRAME`]
/// and under the 128 KiB above which glibc maps a buffer with `mmap`
/// and, once it is freed, raises that threshold, keeping later buffers
/// of that size in its per-thread arenas (which is how 64-query
/// hydrated frames once raised `serve_cluster`'s peak RSS by ~7%).
/// Size is no longer what bounds the batch. Doubling it to 32 puts a
/// table's ~25 misses in one frame instead of two; over 10 interleaved
/// Standard `serve_cluster` pairs that won every pair, but by a median
/// of 25.3 req/s (+7.5%), inside the 25.5 req/s interquartile range of
/// the runs at 16, and peak RSS rose in 9 of the 10 pairs (+0.5 MB), so
/// the bound stays 16 until a longer measurement settles it.
pub const MAX_BATCH: usize = 16;

/// Bound on the page ids of one `FETCH` frame, enforced at parse time;
/// a caller with more splits them over several frames. It covers the
/// winners of one full `SEARCH-MANY` frame at the served `k`
/// ([`MAX_BATCH`] × 10 = 160) in one frame.
pub const MAX_FETCH: usize = 256;

/// Reads one bounded frame from a buffered stream — the one framing
/// routine both the server and the client use, so the [`MAX_FRAME`]
/// bound cannot drift between the two sides. `Ok(None)` is a clean
/// EOF; an over-long frame is a [`WireError::BadRequest`] and the
/// caller must drop the connection (there is no way to find the next
/// frame boundary inside an unterminated line). A line cut off by EOF
/// before its newline is a [`WireError::Transport`]: the peer went away
/// mid-frame, so what arrived is not a frame at all.
pub fn read_frame<R: std::io::BufRead>(reader: &mut R) -> Result<Option<String>, WireError> {
    use std::io::{BufRead, Read};

    let mut line = String::new();
    let n = reader
        .by_ref()
        .take(MAX_FRAME as u64 + 1)
        .read_line(&mut line)
        .map_err(|e| WireError::Transport(e.to_string()))?;
    if n == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') {
        return Err(if line.len() > MAX_FRAME {
            WireError::BadRequest(format!("frame longer than {MAX_FRAME} bytes"))
        } else {
            WireError::Transport(format!("frame cut off by EOF after {n} bytes"))
        });
    }
    Ok(Some(line))
}

/// Escapes a payload into single-line form (`\` → `\\`, newline →
/// `\n`, carriage return → `\r`, tab → `\t`). Tab is escaped so an
/// escaped field can never collide with the tab separators of
/// [`render_many`] hit lines.
pub fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + raw.len() / 8);
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`]. A dangling `\` or an unknown escape is a
/// [`WireError::BadRequest`] — untrusted input never panics.
pub fn unescape(line: &str) -> Result<String, WireError> {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some(other) => {
                return Err(WireError::BadRequest(format!(
                    "unknown escape \\{other} in payload"
                )))
            }
            None => {
                return Err(WireError::BadRequest(
                    "dangling escape at end of payload".into(),
                ))
            }
        }
    }
    Ok(out)
}

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `CLIENT <name>` — all later submissions on this connection run
    /// as this [`teda_service::ClientId`].
    Client { name: String },
    /// `ANNOTATE <name> <csv>` — blocking admission (a full queue or a
    /// dry pool stalls this connection, never the others).
    Annotate { name: String, csv: String },
    /// `TRY <name> <csv>` — non-blocking admission; sheds with a typed
    /// error when the queue or the budget cannot take it.
    Try { name: String, csv: String },
    /// `STATS` — a [`ServiceStats`] snapshot.
    Stats,
    /// `BUDGET` — the remaining query pool.
    Budget,
    /// `SNAPSHOT` — persist the service's query-cache snapshot to its
    /// store directory now (`OK snapshot <entries>`); `ERR failed …`
    /// when the service runs without a store or the write fails.
    Snapshot,
    /// `SEARCH-MANY <n> <k> <query>\t…` — the scored top-`k` page ids
    /// for each of `1..=`[`MAX_BATCH`] `(k, query)` pairs in one frame,
    /// answered in request order ([`render_many`]).
    SearchMany {
        /// The `(k, query)` pairs (each `k` ≤ [`MAX_K`]).
        queries: Vec<(usize, String)>,
    },
    /// `FETCH <m> <id>…` — the url, title and snippet of each of
    /// `1..=`[`MAX_FETCH`] global page ids, strictly ascending, answered
    /// in request order ([`render_fetched`]).
    Fetch {
        /// The page ids, strictly ascending.
        ids: Vec<PageId>,
    },
    /// `SHARD-STATS` — this node's shard identity and the global corpus
    /// statistics it scores with ([`render_shard_stats`]).
    ShardStats,
    /// `STATS JSON` — the full [`ServiceStats`] snapshot (per-stage
    /// histograms included) as one JSON object ([`render_stats_json`]).
    StatsJson,
    /// `METRICS` — the node's stage histograms and counters in
    /// Prometheus text exposition format (stable ordering).
    Metrics,
    /// `TRACE-DUMP <id>` — one completed span tree from the node's
    /// trace ring, rendered by `teda_obs::Trace::render`.
    TraceDump {
        /// The trace id (16 zero-padded hex digits on the wire).
        id: u64,
    },
    /// `TRACE <id> <request>` — run the inner request under the
    /// caller's trace id, so a cross-node request reconstructs from one
    /// id. Only `SEARCH-MANY`/`FETCH`/`ANNOTATE`/`TRY` can be traced.
    Traced {
        /// The caller-minted trace id.
        id: u64,
        /// The request to run under that id.
        inner: Box<Request>,
    },
    /// `QUIT` — orderly connection close.
    Quit,
}

impl Request {
    /// Parses one frame (trailing newline already stripped).
    pub fn parse(line: &str) -> Result<Request, WireError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, Some(r)),
            None => (line, None),
        };
        match (verb, rest) {
            ("STATS", None) => Ok(Request::Stats),
            ("STATS", Some("JSON")) => Ok(Request::StatsJson),
            ("BUDGET", None) => Ok(Request::Budget),
            ("SNAPSHOT", None) => Ok(Request::Snapshot),
            ("SHARD-STATS", None) => Ok(Request::ShardStats),
            ("METRICS", None) => Ok(Request::Metrics),
            ("TRACE-DUMP", Some(id)) => Ok(Request::TraceDump {
                id: parse_trace_id(id)?,
            }),
            ("TRACE", Some(rest)) => {
                let (id, inner_line) = rest.split_once(' ').ok_or_else(|| {
                    WireError::BadRequest("TRACE needs an id and a request".into())
                })?;
                let id = parse_trace_id(id)?;
                let inner = Request::parse(inner_line)?;
                if !inner.is_traceable() {
                    return Err(WireError::BadRequest(TRACEABLE.into()));
                }
                Ok(Request::Traced {
                    id,
                    inner: Box::new(inner),
                })
            }
            ("QUIT", None) => Ok(Request::Quit),
            ("CLIENT", Some(name)) => Ok(Request::Client {
                name: valid_name(name)?.to_owned(),
            }),
            ("ANNOTATE", Some(rest)) | ("TRY", Some(rest)) => {
                let (name, payload) = rest.split_once(' ').ok_or_else(|| {
                    WireError::BadRequest(format!("{verb} needs a name and a payload"))
                })?;
                let name = valid_name(name)?.to_owned();
                let csv = unescape(payload)?;
                if verb == "ANNOTATE" {
                    Ok(Request::Annotate { name, csv })
                } else {
                    Ok(Request::Try { name, csv })
                }
            }
            ("SEARCH-MANY", Some(rest)) => {
                let (n, items) = rest.split_once(' ').unwrap_or((rest, ""));
                let n = parse_count(n, verb, MAX_BATCH)?;
                let mut queries = Vec::with_capacity(n);
                for item in items.split('\t') {
                    if queries.len() == n {
                        return Err(WireError::BadRequest(format!(
                            "SEARCH-MANY promised {n} queries, carried more"
                        )));
                    }
                    queries.push(parse_query(item, verb)?);
                }
                if queries.len() != n {
                    return Err(WireError::BadRequest(format!(
                        "SEARCH-MANY promised {n} queries, carried {}",
                        queries.len()
                    )));
                }
                Ok(Request::SearchMany { queries })
            }
            ("FETCH", Some(rest)) => {
                let mut words = rest.split(' ');
                let m = parse_count(words.next().unwrap_or(""), verb, MAX_FETCH)?;
                let mut ids: Vec<PageId> = Vec::with_capacity(m);
                for word in words {
                    if ids.len() == m {
                        return Err(WireError::BadRequest(format!(
                            "FETCH promised {m} ids, carried more"
                        )));
                    }
                    let id = PageId(parse_page_id(word)?);
                    if let Some(&last) = ids.last().filter(|&&last| last >= id) {
                        return Err(WireError::BadRequest(format!(
                            "FETCH ids must be strictly ascending, got {} after {}",
                            id.0, last.0
                        )));
                    }
                    ids.push(id);
                }
                if ids.len() != m {
                    return Err(WireError::BadRequest(format!(
                        "FETCH promised {m} ids, carried {}",
                        ids.len()
                    )));
                }
                Ok(Request::Fetch { ids })
            }
            ("STATS", Some(_)) => Err(WireError::BadRequest(
                "STATS takes no arguments (or the single word JSON)".into(),
            )),
            ("BUDGET" | "SNAPSHOT" | "SHARD-STATS" | "METRICS" | "QUIT", Some(_)) => {
                Err(WireError::BadRequest(format!("{verb} takes no arguments")))
            }
            (
                "CLIENT" | "ANNOTATE" | "TRY" | "SEARCH-MANY" | "FETCH" | "TRACE-DUMP" | "TRACE",
                None,
            ) => Err(WireError::BadRequest(format!("{verb} needs arguments"))),
            ("", _) => Err(WireError::BadRequest("empty request".into())),
            (other, _) => Err(WireError::BadRequest(format!(
                "unknown verb {:?}",
                other.chars().take(32).collect::<String>()
            ))),
        }
    }

    /// Encodes the request as one frame, newline included.
    pub fn encode(&self) -> String {
        match self {
            Request::Client { name } => format!("CLIENT {name}\n"),
            Request::Annotate { name, csv } => format!("ANNOTATE {name} {}\n", escape(csv)),
            Request::Try { name, csv } => format!("TRY {name} {}\n", escape(csv)),
            Request::Stats => "STATS\n".into(),
            Request::Budget => "BUDGET\n".into(),
            Request::Snapshot => "SNAPSHOT\n".into(),
            Request::SearchMany { queries } => {
                let items: Vec<String> = queries
                    .iter()
                    .map(|(k, query)| format!("{k} {}", escape(query)))
                    .collect();
                format!("SEARCH-MANY {} {}\n", queries.len(), items.join("\t"))
            }
            Request::Fetch { ids } => {
                use std::fmt::Write;

                let mut line = format!("FETCH {}", ids.len());
                for id in ids {
                    // teda-lint: allow(panic_on_untrusted) -- fmt::Write into String is infallible
                    write!(line, " {}", id.0).expect("string write");
                }
                line.push('\n');
                line
            }
            Request::ShardStats => "SHARD-STATS\n".into(),
            Request::StatsJson => "STATS JSON\n".into(),
            Request::Metrics => "METRICS\n".into(),
            Request::TraceDump { id } => format!("TRACE-DUMP {id:016x}\n"),
            Request::Traced { id, inner } => {
                let inner_line = inner.encode();
                format!("TRACE {id:016x} {}", inner_line)
            }
            Request::Quit => "QUIT\n".into(),
        }
    }

    /// Whether the request is read-only and idempotent — safe for a
    /// client to retry on a fresh connection after a transport failure.
    /// Submissions (`ANNOTATE`/`TRY`) and state changes (`CLIENT`,
    /// `SNAPSHOT`) are excluded: a retry could double-apply them. A
    /// `TRACE`-prefixed request inherits the inner request's answer —
    /// retrying a traced search re-records its trace, but telemetry is
    /// not service state.
    pub fn is_read_only(&self) -> bool {
        match self {
            Request::Stats
            | Request::Budget
            | Request::SearchMany { .. }
            | Request::Fetch { .. }
            | Request::ShardStats
            | Request::StatsJson
            | Request::Metrics
            | Request::TraceDump { .. } => true,
            Request::Traced { inner, .. } => inner.is_read_only(),
            _ => false,
        }
    }

    /// Whether a `TRACE <id>` prefix may wrap this request: the two
    /// search verbs and the two submissions, never another `TRACE`.
    pub(crate) fn is_traceable(&self) -> bool {
        matches!(
            self,
            Request::SearchMany { .. }
                | Request::Fetch { .. }
                | Request::Annotate { .. }
                | Request::Try { .. }
        )
    }
}

/// What a `TRACE` prefix may wrap, as its `bad-request` says.
pub(crate) const TRACEABLE: &str = "TRACE only prefixes SEARCH-MANY/FETCH/ANNOTATE/TRY";

/// Parses the item count of a batch verb: `1..=max`.
fn parse_count(n: &str, verb: &str, max: usize) -> Result<usize, WireError> {
    let n: usize = n
        .parse()
        .map_err(|_| WireError::BadRequest(format!("bad {verb} count {n:?}")))?;
    match n {
        0 => Err(WireError::BadRequest(format!("{verb} of nothing"))),
        n if n > max => Err(WireError::BadRequest(format!(
            "{verb} of {n} items exceeds {max}"
        ))),
        n => Ok(n),
    }
}

fn parse_page_id(word: &str) -> Result<u32, WireError> {
    word.parse()
        .map_err(|_| WireError::BadRequest(format!("bad page id {word:?}")))
}

/// Parses one `<k> <query>` pair of a search verb: `k` bounded by
/// [`MAX_K`], the query unescaped.
fn parse_query(item: &str, verb: &str) -> Result<(usize, String), WireError> {
    let (k, query) = item
        .split_once(' ')
        .ok_or_else(|| WireError::BadRequest(format!("{verb} needs a k and a query")))?;
    let k: usize = k
        .parse()
        .map_err(|_| WireError::BadRequest(format!("bad k {k:?}")))?;
    if k > MAX_K {
        return Err(WireError::BadRequest(format!("k {k} exceeds {MAX_K}")));
    }
    Ok((k, unescape(query)?))
}

fn parse_trace_id(hex: &str) -> Result<u64, WireError> {
    if hex.len() != 16 {
        return Err(WireError::BadRequest(format!(
            "trace id must be 16 hex digits, got {:?}",
            hex.chars().take(20).collect::<String>()
        )));
    }
    u64::from_str_radix(hex, 16).map_err(|_| WireError::BadRequest(format!("bad trace id {hex:?}")))
}

fn valid_name(name: &str) -> Result<&str, WireError> {
    if name.is_empty() {
        return Err(WireError::BadRequest("empty name".into()));
    }
    if name.len() > MAX_NAME {
        return Err(WireError::BadRequest(format!(
            "name longer than {MAX_NAME} bytes"
        )));
    }
    if name.chars().any(|c| c.is_whitespace() || c.is_control()) {
        return Err(WireError::BadRequest(
            "name must not contain whitespace or control characters".into(),
        ));
    }
    Ok(name)
}

/// A typed wire-level error. The first four variants mirror
/// [`Rejection`] one to one; `Failed` is a worker panic surfaced to the
/// caller; `BadRequest` covers framing/parse problems; `Transport` is
/// client-side I/O and never appears on the wire itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The submission queue was full (`TRY` only — `ANNOTATE` waits).
    QueueFull,
    /// The query pool cannot cover the request (`TRY` only).
    BudgetExhausted,
    /// The request alone exceeds the per-request budget.
    TooLarge {
        /// Worst-case queries the table may need.
        need: u64,
        /// The configured per-request bound.
        budget: u64,
    },
    /// The service is shutting down.
    ShuttingDown,
    /// The annotation worker failed (engine panic).
    Failed(String),
    /// The frame could not be parsed (bad verb, bad escape, bad CSV).
    BadRequest(String),
    /// Client-side transport failure (never encoded on the wire).
    Transport(String),
}

impl From<Rejection> for WireError {
    fn from(r: Rejection) -> Self {
        match r {
            Rejection::QueueFull => WireError::QueueFull,
            Rejection::BudgetExhausted => WireError::BudgetExhausted,
            Rejection::RequestTooLarge { need, budget } => WireError::TooLarge { need, budget },
            // A cancelled submission only happens when the server is
            // tearing the connection down — same story on the wire.
            Rejection::ShuttingDown | Rejection::Cancelled => WireError::ShuttingDown,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Transport(e.to_string())
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::QueueFull => write!(f, "submission queue full"),
            WireError::BudgetExhausted => write!(f, "query pool exhausted"),
            WireError::TooLarge { need, budget } => {
                write!(f, "request needs up to {need} queries, budget is {budget}")
            }
            WireError::ShuttingDown => write!(f, "service shutting down"),
            WireError::Failed(m) => write!(f, "annotation failed: {m}"),
            WireError::BadRequest(m) => write!(f, "bad request: {m}"),
            WireError::Transport(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One reply frame: `OK` with a payload, or a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Success; the payload is verb-specific (already unescaped).
    Ok(String),
    /// Failure with the typed reason.
    Err(WireError),
}

impl Reply {
    /// Encodes the reply as one frame, newline included.
    pub fn encode(&self) -> String {
        match self {
            Reply::Ok(payload) if payload.is_empty() => "OK\n".into(),
            Reply::Ok(payload) => format!("OK {}\n", escape(payload)),
            Reply::Err(e) => {
                let (code, detail) = match e {
                    WireError::QueueFull => ("queue-full", String::new()),
                    WireError::BudgetExhausted => ("budget-exhausted", String::new()),
                    WireError::TooLarge { need, budget } => {
                        ("too-large", format!("{need} {budget}"))
                    }
                    WireError::ShuttingDown => ("shutting-down", String::new()),
                    WireError::Failed(m) => ("failed", escape(m)),
                    WireError::BadRequest(m) => ("bad-request", escape(m)),
                    // Transport errors are local; encode defensively.
                    WireError::Transport(m) => ("failed", escape(m)),
                };
                if detail.is_empty() {
                    format!("ERR {code}\n")
                } else {
                    format!("ERR {code} {detail}\n")
                }
            }
        }
    }

    /// Parses one reply frame (trailing newline tolerated).
    pub fn parse(line: &str) -> Result<Reply, WireError> {
        let line = line.trim_end_matches(['\r', '\n']);
        if line == "OK" {
            return Ok(Reply::Ok(String::new()));
        }
        if let Some(payload) = line.strip_prefix("OK ") {
            return Ok(Reply::Ok(unescape(payload)?));
        }
        let Some(rest) = line.strip_prefix("ERR ") else {
            return Err(WireError::BadRequest(format!(
                "reply is neither OK nor ERR: {:?}",
                line.chars().take(32).collect::<String>()
            )));
        };
        let (code, detail) = match rest.split_once(' ') {
            Some((c, d)) => (c, d),
            None => (rest, ""),
        };
        let err = match code {
            "queue-full" => WireError::QueueFull,
            "budget-exhausted" => WireError::BudgetExhausted,
            "shutting-down" => WireError::ShuttingDown,
            "failed" => WireError::Failed(unescape(detail)?),
            "bad-request" => WireError::BadRequest(unescape(detail)?),
            "too-large" => {
                let (need, budget) = detail
                    .split_once(' ')
                    .ok_or_else(|| WireError::BadRequest("too-large needs `need budget`".into()))?;
                WireError::TooLarge {
                    need: need
                        .parse()
                        .map_err(|_| WireError::BadRequest("bad too-large need".into()))?,
                    budget: budget
                        .parse()
                        .map_err(|_| WireError::BadRequest("bad too-large budget".into()))?,
                }
            }
            other => {
                return Err(WireError::BadRequest(format!(
                    "unknown error code {other:?}"
                )))
            }
        };
        Ok(Reply::Err(err))
    }
}

/// Deterministic text rendering of a table's annotations — the
/// `ANNOTATE`/`TRY` success payload.
///
/// One header line, then one `row,col,type,score,votes` line per cell
/// annotation in pipeline order. `f64` scores print with Rust's
/// shortest-round-trip formatting, so two [`TableAnnotations`] render
/// identically iff they are bit-identical — the wire determinism check
/// is a string comparison against the offline batch path.
pub fn render_annotations(a: &TableAnnotations) -> String {
    use std::fmt::Write;

    let mut out = format!(
        "cells={} skipped={} queried={}\n",
        a.cells.len(),
        a.skipped_cells,
        a.queried_cells
    );
    for c in &a.cells {
        writeln!(
            out,
            "{},{},{},{},{}",
            c.cell.row, c.cell.col, c.etype, c.score, c.votes
        )
        // teda-lint: allow(panic_on_untrusted) -- fmt::Write into String is infallible
        .expect("string write");
    }
    out
}

/// Text rendering of a [`ServiceStats`] snapshot — the `STATS` payload.
/// One `key=value` summary line (every counter in name order, then the
/// latency summary), then one `client …` line per client in name order.
pub fn render_stats(s: &ServiceStats) -> String {
    use std::fmt::Write;

    let mut out = String::new();
    for (name, count) in &s.counters {
        // teda-lint: allow(panic_on_untrusted) -- fmt::Write into String is infallible
        write!(out, "{name}={count} ").expect("string write");
    }
    writeln!(
        out,
        "p50_us={} p99_us={} max_us={}",
        s.latency.p50.as_micros(),
        s.latency.p99.as_micros(),
        s.latency.max.as_micros(),
    )
    // teda-lint: allow(panic_on_untrusted) -- fmt::Write into String is infallible
    .expect("string write");
    for c in &s.clients {
        writeln!(
            out,
            "client {} submitted={} completed={} failed={} shed={} granted={} bucket={} waiting={}",
            c.client, c.submitted, c.completed, c.failed, c.shed, c.granted, c.bucket, c.waiting
        )
        // teda-lint: allow(panic_on_untrusted) -- fmt::Write into String is infallible
        .expect("string write");
    }
    out
}

/// Renders a [`ServiceStats`] snapshot as one JSON object — the
/// `STATS JSON` payload. The gauges, every counter, the latency
/// summary, the per-stage histogram summaries and the per-client table
/// ride in a single machine-readable frame, so a scraper never
/// reassembles them from the `key=value` text form. A counter named
/// `group.key` lands in a nested `"group"` object (`cache.hits` at
/// `cache` → `hits`). Key order is fixed (counters, stages and clients
/// are pre-sorted by name), so equal snapshots render identically.
pub fn render_stats_json(s: &ServiceStats) -> String {
    use std::fmt::Write;
    use teda_obs::json;

    let mut out = String::with_capacity(1024);
    // teda-lint: allow(panic_on_untrusted) -- fmt::Write into String is infallible
    let mut put = |frag: std::fmt::Arguments<'_>| out.write_fmt(frag).expect("string write");
    put(format_args!(
        "{{\"mapped_bytes\":{},\"resident_bytes\":{},\"page_hydrations\":{},\
         \"inflight\":{},\"inflight_oldest_ms\":{}",
        s.mapped_bytes, s.resident_bytes, s.page_hydrations, s.inflight, s.inflight_oldest_ms,
    ));
    // Counters arrive sorted, so each group's members are adjacent.
    let mut open: Option<&str> = None;
    for &(name, count) in &s.counters {
        let (group, key) = match name.split_once('.') {
            Some((group, key)) => (Some(group), key),
            None => (None, name),
        };
        let sep = if group.is_some() && group == open {
            ","
        } else {
            if open.is_some() {
                put(format_args!("}}"));
            }
            open = group;
            match group {
                Some(group) => {
                    put(format_args!(",{}:{{", json::string(group)));
                    ""
                }
                None => ",",
            }
        };
        put(format_args!("{sep}{}:{count}", json::string(key)));
    }
    if open.is_some() {
        put(format_args!("}}"));
    }
    put(format_args!(
        ",\"latency\":{{\"p50_us\":{},\"p99_us\":{},\"max_us\":{}}}",
        s.latency.p50.as_micros(),
        s.latency.p99.as_micros(),
        s.latency.max.as_micros(),
    ));
    put(format_args!(",\"stages\":["));
    for (i, st) in s.stages.iter().enumerate() {
        put(format_args!(
            "{}{{\"stage\":{},\"count\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            if i == 0 { "" } else { "," },
            json::string(&st.stage),
            st.count,
            st.p50_us,
            st.p99_us,
            st.max_us,
        ));
    }
    put(format_args!("],\"clients\":["));
    for (i, c) in s.clients.iter().enumerate() {
        put(format_args!(
            "{}{{\"client\":{},\"submitted\":{},\"completed\":{},\"failed\":{},\
             \"shed\":{},\"granted\":{},\"bucket\":{},\"waiting\":{}}}",
            if i == 0 { "" } else { "," },
            json::string(&c.client),
            c.submitted,
            c.completed,
            c.failed,
            c.shed,
            c.granted,
            c.bucket,
            c.waiting,
        ));
    }
    put(format_args!("]}}"));
    out
}

/// What a search-serving node knows about its place in a cluster: its
/// shard index, the shard count, and the whole corpus's document count
/// (the BM25 `N` it scores with). A single-node server uses
/// `shard = 0, n_shards = 1, global_docs = local docs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// This node's shard index in `0..n_shards`.
    pub shard: u32,
    /// How many shards the corpus is partitioned into.
    pub n_shards: u32,
    /// Documents in the whole corpus.
    pub global_docs: u64,
}

/// The `SHARD-STATS` payload: the node's [`ShardInfo`] plus its local
/// document count and lifetime search counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatsReport {
    /// This node's shard index.
    pub shard: u32,
    /// Total shard count.
    pub n_shards: u32,
    /// Documents this node holds.
    pub docs: u64,
    /// Documents in the whole corpus.
    pub global_docs: u64,
    /// Queries searched since start: one per query of a `SEARCH-MANY`.
    pub searches: u64,
}

/// One routed hit: the global page id and exact score bits a
/// `SEARCH-MANY` ranked it with, and the fields a `FETCH` hydrated.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Global page id.
    pub id: PageId,
    /// BM25 score (travels as exact bits).
    pub score: f64,
    /// Hydrated url/title/snippet.
    pub result: SearchResult,
}

fn score_hex(score: f64) -> String {
    format!("{:016x}", score.to_bits())
}

fn parse_score(hex: &str) -> Result<f64, WireError> {
    if hex.len() != 16 {
        return Err(WireError::BadRequest(format!(
            "score must be 16 hex digits, got {:?}",
            hex.chars().take(20).collect::<String>()
        )));
    }
    u64::from_str_radix(hex, 16)
        .map(f64::from_bits)
        .map_err(|_| WireError::BadRequest(format!("bad score hex {hex:?}")))
}

/// Reads a `<key>=<n>` header line (`None`: the payload ended first).
fn parse_header(header: Option<&str>, key: &str) -> Result<usize, WireError> {
    let header = header.ok_or_else(|| WireError::BadRequest(format!("no {key} header")))?;
    header
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| WireError::BadRequest(format!("bad {key} header {header:?}")))
}

/// Renders a `SEARCH-MANY` success payload: a `queries=<n>` header,
/// then per query, in request order, a `hits=<m>` header and one
/// `<id> <score-hex>` line per hit in rank order. Scores are IEEE-754
/// bit patterns, so [`parse_many`] gives back every score bit for bit,
/// NaNs and signed zeros included.
pub fn render_many(answers: &[Vec<(PageId, f64)>]) -> String {
    use std::fmt::Write;

    let mut out = format!("queries={}\n", answers.len());
    for hits in answers {
        // teda-lint: allow(panic_on_untrusted) -- fmt::Write into String is infallible
        writeln!(out, "hits={}", hits.len()).expect("string write");
        for (id, score) in hits {
            // teda-lint: allow(panic_on_untrusted) -- fmt::Write into String is infallible
            writeln!(out, "{} {}", id.0, score_hex(*score)).expect("string write");
        }
    }
    out
}

/// Reverses [`render_many`] for a request of `sent` queries. A count
/// other than `sent`, a hit count past [`MAX_K`], a truncated or
/// malformed body, or trailing lines are a [`WireError::BadRequest`].
pub fn parse_many(payload: &str, sent: usize) -> Result<Vec<Vec<(PageId, f64)>>, WireError> {
    let mut lines = payload.lines();
    let n = parse_header(lines.next(), "queries")?;
    if n != sent {
        return Err(WireError::BadRequest(format!(
            "SEARCH-MANY answered {n} queries, {sent} were sent"
        )));
    }
    let mut answers = Vec::with_capacity(n);
    for _ in 0..n {
        let m = parse_header(lines.next(), "hits")?;
        if m > MAX_K {
            return Err(WireError::BadRequest(format!(
                "search payload claims {m} hits (max {MAX_K})"
            )));
        }
        let mut hits = Vec::with_capacity(m);
        for line in lines.by_ref().take(m) {
            let (id, hex) = line
                .split_once(' ')
                .ok_or_else(|| WireError::BadRequest(format!("bad hit line {line:?}")))?;
            hits.push((PageId(parse_page_id(id)?), parse_score(hex)?));
        }
        if hits.len() != m {
            return Err(WireError::BadRequest(format!(
                "search payload promised {m} hits, carried {}",
                hits.len()
            )));
        }
        answers.push(hits);
    }
    if lines.next().is_some() {
        return Err(WireError::BadRequest(
            "SEARCH-MANY payload carries trailing lines".into(),
        ));
    }
    Ok(answers)
}

/// Renders a `FETCH` success payload: a `pages=<m>` header, then one
/// `<id>\t<url>\t<title>\t<snippet>` line per page, `ids[i]` beside
/// `pages[i]`, each text field [`escape`]d so tabs in page text cannot
/// forge a column.
pub fn render_fetched(ids: &[PageId], pages: &[SearchResult]) -> String {
    use std::fmt::Write;

    let mut out = format!("pages={}\n", pages.len());
    for (id, page) in ids.iter().zip(pages) {
        writeln!(
            out,
            "{}\t{}\t{}\t{}",
            id.0,
            escape(&page.url),
            escape(&page.title),
            escape(&page.snippet),
        )
        // teda-lint: allow(panic_on_untrusted) -- fmt::Write into String is infallible
        .expect("string write");
    }
    out
}

/// Reverses [`render_fetched`] for a `FETCH` of `sent`: the fields of
/// each page, in `sent`'s order. A page count other than `sent`'s, a
/// line echoing another id than the one sent at its position, a
/// malformed line or trailing lines are a [`WireError::BadRequest`],
/// so a forged reply can never put one page's fields under another id.
pub fn parse_fetched(payload: &str, sent: &[PageId]) -> Result<Vec<SearchResult>, WireError> {
    let mut lines = payload.lines();
    let m = parse_header(lines.next(), "pages")?;
    if m != sent.len() {
        return Err(WireError::BadRequest(format!(
            "FETCH answered {m} pages, {} were asked for",
            sent.len()
        )));
    }
    let mut pages = Vec::with_capacity(m);
    for &want in sent {
        let line = lines.next().ok_or_else(|| {
            WireError::BadRequest(format!("FETCH reply ends before page {}", want.0))
        })?;
        let mut cols = line.splitn(4, '\t');
        let mut col = |what: &'static str| {
            cols.next()
                .ok_or_else(|| WireError::BadRequest(format!("page line missing {what}")))
        };
        let id = parse_page_id(col("page id")?)?;
        if id != want.0 {
            return Err(WireError::BadRequest(format!(
                "FETCH answered page {id} where page {} was asked for",
                want.0
            )));
        }
        pages.push(SearchResult {
            url: unescape(col("url")?)?,
            title: unescape(col("title")?)?,
            snippet: unescape(col("snippet")?)?,
        });
    }
    if lines.next().is_some() {
        return Err(WireError::BadRequest(
            "FETCH payload carries trailing lines".into(),
        ));
    }
    Ok(pages)
}

/// Renders the `SHARD-STATS` payload: one
/// `shard=<s> shards=<n> docs=<d> global_docs=<g> searches=<c>` line.
pub fn render_shard_stats(r: &ShardStatsReport) -> String {
    format!(
        "shard={} shards={} docs={} global_docs={} searches={}",
        r.shard, r.n_shards, r.docs, r.global_docs, r.searches
    )
}

/// Reverses [`render_shard_stats`]; any missing or malformed field is a
/// [`WireError::BadRequest`].
pub fn parse_shard_stats(payload: &str) -> Result<ShardStatsReport, WireError> {
    let mut tokens = payload.split_whitespace();
    let mut field = |key: &'static str| -> Result<u64, WireError> {
        let token = tokens
            .next()
            .ok_or_else(|| WireError::BadRequest(format!("shard stats missing {key}")))?;
        token
            .strip_prefix(key)
            .and_then(|t| t.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| WireError::BadRequest(format!("bad shard stats field {token:?}")))
    };
    let shard = field("shard")? as u32;
    let n_shards = field("shards")? as u32;
    let docs = field("docs")?;
    let global_docs = field("global_docs")?;
    let searches = field("searches")?;
    Ok(ShardStatsReport {
        shard,
        n_shards,
        docs,
        global_docs,
        searches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_csv_with_quoted_newlines() {
        let csv = "#types,Text,Location\nname,addr\n\"Bar,\nGrill\",\"1 Main\tSt\r\nSuite 2\"\n";
        let line = escape(csv);
        assert!(!line.contains('\n'), "escaped payload must be one line");
        assert!(!line.contains('\r'));
        assert!(!line.contains('\t'), "tabs must be escaped too");
        assert_eq!(unescape(&line).unwrap(), csv);
    }

    #[test]
    fn bad_escapes_are_errors_not_panics() {
        assert!(matches!(unescape("a\\"), Err(WireError::BadRequest(_))));
        assert!(matches!(unescape("a\\x"), Err(WireError::BadRequest(_))));
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Client {
                name: "bulk".into(),
            },
            Request::Annotate {
                name: "t1".into(),
                csv: "a,b\n1,\"x\ny\"\n".into(),
            },
            Request::Try {
                name: "t2".into(),
                csv: "a\n1\n".into(),
            },
            Request::Stats,
            Request::Budget,
            Request::Snapshot,
            Request::SearchMany {
                queries: vec![(10, "french restaurant\tparis".into())],
            },
            Request::Fetch {
                ids: vec![PageId(0), PageId(7), PageId(u32::MAX)],
            },
            Request::SearchMany {
                queries: vec![
                    (10, "harbor\tmuseum".into()),
                    (0, String::new()),
                    (3, "multi\nline \\ q".into()),
                    (10, "harbor\tmuseum".into()),
                ],
            },
            Request::ShardStats,
            Request::StatsJson,
            Request::Metrics,
            Request::TraceDump { id: 0x2a },
            Request::Traced {
                id: 9,
                inner: Box::new(Request::SearchMany {
                    queries: vec![(1, "q".into())],
                }),
            },
            Request::Traced {
                id: u64::MAX,
                inner: Box::new(Request::Fetch {
                    ids: vec![PageId(3)],
                }),
            },
            Request::Traced {
                id: 7,
                inner: Box::new(Request::Annotate {
                    name: "t3".into(),
                    csv: "a\n1\n".into(),
                }),
            },
            Request::Quit,
        ];
        for req in reqs {
            let line = req.encode();
            assert!(line.ends_with('\n'));
            assert_eq!(line.matches('\n').count(), 1, "one frame per request");
            assert_eq!(Request::parse(&line).unwrap(), req);
        }
    }

    #[test]
    fn trace_prefix_is_bounded_to_traceable_verbs() {
        // A trace id is exactly 16 zero-padded hex digits.
        assert!(Request::parse("TRACE-DUMP 000000000000002a\n").is_ok());
        for bad in [
            "TRACE-DUMP 2a",
            "TRACE-DUMP 00000000000000zz",
            "TRACE-DUMP",
            "TRACE 000000000000002a",
            "TRACE 2a SEARCH-MANY 1 1 q",
        ] {
            assert!(
                matches!(Request::parse(bad), Err(WireError::BadRequest(_))),
                "{bad:?} must be a bad-request"
            );
        }
        // Only SEARCH-MANY/FETCH/ANNOTATE/TRY can ride under TRACE —
        // in particular a nested TRACE cannot.
        for inner in [
            "STATS",
            "QUIT",
            "METRICS",
            "TRACE 0000000000000001 SEARCH-MANY 1 1 q",
        ] {
            let line = format!("TRACE 000000000000002a {inner}\n");
            assert!(
                matches!(Request::parse(&line), Err(WireError::BadRequest(_))),
                "{inner:?} must not be traceable"
            );
        }
        let ok = Request::parse("TRACE 000000000000002a SEARCH-MANY 1 3 pizza\n").unwrap();
        assert_eq!(
            ok,
            Request::Traced {
                id: 0x2a,
                inner: Box::new(Request::SearchMany {
                    queries: vec![(3, "pizza".into())],
                }),
            }
        );
        let ok = Request::parse("TRACE 000000000000002a FETCH 2 4 9\n").unwrap();
        assert_eq!(
            ok,
            Request::Traced {
                id: 0x2a,
                inner: Box::new(Request::Fetch {
                    ids: vec![PageId(4), PageId(9)],
                }),
            }
        );
    }

    /// The retired single-query verbs, hydrated (`SEARCH-FULL`) and
    /// scored (`SEARCH`), are unknown verbs, bare or under a `TRACE`
    /// prefix: a one-query `SEARCH-MANY` replaced both.
    #[test]
    fn search_full_is_an_unknown_verb() {
        for (verb, line) in [
            ("SEARCH-FULL", "SEARCH-FULL 3 harbor\n"),
            ("SEARCH-FULL", "SEARCH-FULL"),
            (
                "SEARCH-FULL",
                "TRACE 000000000000002a SEARCH-FULL 3 harbor\n",
            ),
            ("SEARCH", "SEARCH 3 harbor\n"),
            ("SEARCH", "SEARCH"),
            ("SEARCH", "TRACE 000000000000002a SEARCH 3 harbor\n"),
        ] {
            match Request::parse(line) {
                Err(WireError::BadRequest(m)) => {
                    assert_eq!(m, format!("unknown verb {verb:?}"), "{line:?}")
                }
                other => panic!("{line:?} must be an unknown verb, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_line_cut_off_by_eof_is_a_transport_error() {
        let mut cut = std::io::Cursor::new(b"OK queries=1\\nhits=0".to_vec());
        assert!(matches!(read_frame(&mut cut), Err(WireError::Transport(_))));
        let mut whole = std::io::Cursor::new(b"OK\nSTATS".to_vec());
        assert_eq!(read_frame(&mut whole).unwrap().as_deref(), Some("OK\n"));
        assert!(matches!(
            read_frame(&mut whole),
            Err(WireError::Transport(_))
        ));
        assert_eq!(read_frame(&mut whole).unwrap(), None, "then a clean EOF");
    }

    #[test]
    fn read_only_requests_are_exactly_the_retryable_ones() {
        let read_only = [
            Request::Stats,
            Request::Budget,
            Request::ShardStats,
            Request::SearchMany {
                queries: vec![(1, "q".into())],
            },
            Request::Fetch {
                ids: vec![PageId(1)],
            },
            Request::StatsJson,
            Request::Metrics,
            Request::TraceDump { id: 1 },
            Request::Traced {
                id: 1,
                inner: Box::new(Request::SearchMany {
                    queries: vec![(1, "q".into())],
                }),
            },
        ];
        assert!(read_only.iter().all(Request::is_read_only));
        let mutating = [
            Request::Client { name: "c".into() },
            Request::Annotate {
                name: "t".into(),
                csv: "a\n1\n".into(),
            },
            Request::Try {
                name: "t".into(),
                csv: "a\n1\n".into(),
            },
            Request::Snapshot,
            Request::Quit,
            // A traced submission is still a submission.
            Request::Traced {
                id: 1,
                inner: Box::new(Request::Annotate {
                    name: "t".into(),
                    csv: "a\n1\n".into(),
                }),
            },
        ];
        assert!(!mutating.iter().any(Request::is_read_only));
    }

    #[test]
    fn stats_json_renders_every_section_with_escaped_names() {
        use std::time::Duration;
        use teda_service::{ClientStats, LatencySummary, StageStats};

        let stats = ServiceStats {
            counters: vec![
                ("cache.evictions", 1),
                ("cache.hits", 4),
                ("completed", 2),
                ("geocode.hits", 5),
                ("submitted", 3),
            ],
            inflight: 1,
            inflight_oldest_ms: 40,
            latency: LatencySummary {
                p50: Duration::from_micros(100),
                p99: Duration::from_micros(900),
                max: Duration::from_micros(1000),
            },
            stages: vec![StageStats {
                stage: "annotate".into(),
                count: 2,
                p50_us: 64,
                p99_us: 128,
                max_us: 128,
            }],
            clients: vec![ClientStats {
                client: "bulk \"loader\"\n".into(),
                submitted: 3,
                ..ClientStats::default()
            }],
            ..ServiceStats::default()
        };
        let json = render_stats_json(&stats);
        // One frame, structurally balanced, with every section present.
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        for key in [
            "\"submitted\":3",
            "\"inflight\":1",
            "\"inflight_oldest_ms\":40",
            "\"latency\":{\"p50_us\":100,\"p99_us\":900,\"max_us\":1000}",
            "\"stage\":\"annotate\"",
            "\"cache\":{",
            "\"geocode\":{",
            "\"cache\":{\"evictions\":1,\"hits\":4},\"completed\":2,\"geocode\":{\"hits\":5}",
            "\"client\":\"bulk \\\"loader\\\"\\n\"",
        ] {
            assert!(json.contains(key), "missing {key:?} in {json}");
        }
        // The hostile client name must not leak a raw quote or newline.
        assert!(!json.contains('\n'));
    }

    #[test]
    fn search_k_is_bounded_at_parse() {
        assert!(Request::parse(&format!("SEARCH-MANY 1 {MAX_K} q\n")).is_ok());
        assert!(matches!(
            Request::parse(&format!("SEARCH-MANY 1 {} q\n", MAX_K + 1)),
            Err(WireError::BadRequest(_))
        ));
        for bad in [
            "SEARCH-MANY 1",
            "SEARCH-MANY 1 5",
            "SEARCH-MANY 1 x q",
            "SHARD-STATS now",
        ] {
            assert!(
                matches!(Request::parse(bad), Err(WireError::BadRequest(_))),
                "{bad:?} must be a bad-request"
            );
        }
    }

    #[test]
    fn search_many_frames_are_bounded_and_typed() {
        let batch = |n: usize| {
            let items: Vec<String> = (0..n).map(|i| format!("10 q{i}")).collect();
            format!("SEARCH-MANY {n} {}\n", items.join("\t"))
        };
        assert!(Request::parse(&batch(1)).is_ok());
        assert!(Request::parse(&batch(MAX_BATCH)).is_ok());
        let ok = Request::parse("SEARCH-MANY 2 10 a\t0 \n").unwrap();
        assert_eq!(
            ok,
            Request::SearchMany {
                queries: vec![(10, "a".into()), (0, String::new())]
            }
        );
        for bad in [
            // a truncated frame
            "SEARCH-MANY",
            "SEARCH-MANY 2",
            "SEARCH-MANY 2 10",
            "SEARCH-MANY 2 10 a\t10",
            // a count that does not match the queries sent
            "SEARCH-MANY 2 10 a",
            "SEARCH-MANY 1 10 a\t10 b",
            "SEARCH-MANY x 10 a",
            // k past MAX_K, and a bad k
            &format!("SEARCH-MANY 2 10 a\t{} b", MAX_K + 1),
            "SEARCH-MANY 1 ten a",
            // an empty batch, and one past the per-frame bound
            "SEARCH-MANY 0 ",
            "SEARCH-MANY 0",
            &batch(MAX_BATCH + 1),
            // a bad escape inside one query
            "SEARCH-MANY 2 10 a\t10 b\\q",
        ] {
            assert!(
                matches!(Request::parse(bad), Err(WireError::BadRequest(_))),
                "{bad:?} must be a bad-request"
            );
        }
    }

    #[test]
    fn many_hits_round_trip_and_reject_truncation() {
        let answers = vec![
            vec![(PageId(3), 1.5), (PageId(1), 0.75)],
            Vec::new(),
            vec![(PageId(7), 0.0)],
        ];
        let payload = render_many(&answers);
        assert_eq!(parse_many(&payload, 3).unwrap(), answers);
        let framed = Reply::Ok(payload.clone()).encode();
        assert_eq!(framed.matches('\n').count(), 1, "one frame");
        let Reply::Ok(unframed) = Reply::parse(&framed).unwrap() else {
            panic!("expected OK");
        };
        assert_eq!(parse_many(&unframed, 3).unwrap(), answers);

        // A count that does not match the queries sent.
        for sent in [0, 2, 4] {
            assert!(parse_many(&payload, sent).is_err(), "sent {sent}");
        }
        // Every payload cut at a line boundary is truncated.
        let lines: Vec<&str> = payload.lines().collect();
        for cut in 0..lines.len() {
            let truncated = lines[..cut].join("\n");
            assert!(
                matches!(parse_many(&truncated, 3), Err(WireError::BadRequest(_))),
                "cut after {cut} lines"
            );
        }
        assert!(parse_many(&format!("{payload}extra\n"), 3).is_err());
        assert!(parse_many("queries=1\nhits=999999999\n", 1).is_err());
    }

    #[test]
    fn scored_hits_round_trip_exact_bits() {
        let hits = vec![
            (PageId(7), 1.5),
            (PageId(0), f64::from_bits(0x7ff8_0000_0000_0001)), // a NaN payload
            (PageId(42), -0.0),
            (PageId(9), 0.1 + 0.2), // not representable exactly in decimal
        ];
        let payload = render_many(std::slice::from_ref(&hits));
        let back = parse_many(&payload, 1).unwrap().remove(0);
        assert_eq!(back.len(), hits.len());
        for ((id, s), (bid, bs)) in hits.iter().zip(&back) {
            assert_eq!(id, bid);
            assert_eq!(s.to_bits(), bs.to_bits(), "score bits must survive");
        }
        assert!(parse_many("queries=1\nhits=2\n1 0000000000000000\n", 1).is_err());
        assert!(parse_many(&format!("queries=1\nhits={}\n", MAX_K + 1), 1).is_err());
        assert!(parse_many("queries=1\nhits=1\n1 xyz\n", 1).is_err());
    }

    #[test]
    fn full_hits_round_trip_with_hostile_fields() {
        let ids = [PageId(3), PageId(8)];
        let pages = vec![
            SearchResult {
                url: "http://web.sim/p\t3".into(),
                title: "Tab\there \\ and\nnewline".into(),
                snippet: "plain words".into(),
            },
            SearchResult {
                url: String::new(),
                title: "8\t9".into(),
                snippet: String::new(),
            },
        ];
        let payload = render_fetched(&ids, &pages);
        assert_eq!(parse_fetched(&payload, &ids).unwrap(), pages);
        // The whole payload survives a frame round-trip (the reply layer
        // escapes it once more).
        let framed = Reply::Ok(payload.clone()).encode();
        let Reply::Ok(unframed) = Reply::parse(&framed).unwrap() else {
            panic!("expected OK");
        };
        assert_eq!(parse_fetched(&unframed, &ids).unwrap(), pages);
    }

    /// `FETCH` takes 1..=MAX_FETCH strictly ascending page ids; anything
    /// else is a typed `bad-request` at parse time, never a panic.
    #[test]
    fn fetch_frames_are_bounded_and_typed() {
        let fetch = |ids: &[u64]| {
            let words: Vec<String> = ids.iter().map(u64::to_string).collect();
            format!("FETCH {} {}\n", ids.len(), words.join(" "))
        };
        let bound: Vec<u64> = (0..MAX_FETCH as u64).collect();
        assert_eq!(
            Request::parse(&fetch(&bound)).unwrap(),
            Request::Fetch {
                ids: (0..MAX_FETCH as u32).map(PageId).collect()
            }
        );
        assert!(Request::parse(&fetch(&[u64::from(u32::MAX)])).is_ok());
        let over: Vec<u64> = (0..=MAX_FETCH as u64).collect();
        for (case, bad) in [
            ("empty list", "FETCH 0\n".to_string()),
            ("empty list, no count", "FETCH".to_string()),
            ("over the bound", fetch(&over)),
            ("unsorted", fetch(&[5, 3])),
            ("repeated", fetch(&[3, 3])),
            ("past u32", fetch(&[u64::from(u32::MAX) + 1])),
            ("not a number", "FETCH 1 x\n".to_string()),
            ("negative", "FETCH 1 -1\n".to_string()),
            ("fewer than promised", "FETCH 2 1\n".to_string()),
            ("more than promised", "FETCH 1 1 2\n".to_string()),
            ("a doubled space", "FETCH 2 1  2\n".to_string()),
            ("a bad count", "FETCH two 1 2\n".to_string()),
        ] {
            assert!(
                matches!(Request::parse(&bad), Err(WireError::BadRequest(_))),
                "{case}: {bad:?} must be a bad-request"
            );
        }
    }

    /// A `FETCH` reply must answer exactly the ids sent, in their order:
    /// another count, another id at any position, a malformed line or
    /// trailing lines are typed errors, so a forged reply never puts a
    /// page's fields under another id.
    #[test]
    fn fetched_replies_must_echo_the_ids_sent() {
        let page = |n: u32| SearchResult {
            url: format!("http://web.sim/{n}"),
            title: format!("page {n}"),
            snippet: "words".into(),
        };
        let ids = [PageId(2), PageId(5), PageId(9)];
        let pages: Vec<SearchResult> = ids.iter().map(|id| page(id.0)).collect();
        let payload = render_fetched(&ids, &pages);
        assert_eq!(parse_fetched(&payload, &ids).unwrap(), pages);

        // Count: fewer or more ids asked for than answered.
        assert!(parse_fetched(&payload, &ids[..2]).is_err());
        assert!(parse_fetched(&payload, &[PageId(2), PageId(5), PageId(9), PageId(11)]).is_err());
        // An echoed id differs, at each position in turn.
        for at in 0..ids.len() {
            let mut asked = ids;
            asked[at] = PageId(asked[at].0 + 100);
            assert!(
                matches!(
                    parse_fetched(&payload, &asked),
                    Err(WireError::BadRequest(_))
                ),
                "a reply naming page {} where {} was asked",
                ids[at].0,
                asked[at].0
            );
        }
        // The right ids in the wrong order.
        let swapped = render_fetched(&[ids[1], ids[0], ids[2]], &pages);
        assert!(parse_fetched(&swapped, &ids).is_err());
        // Truncated at every line boundary, trailing lines, bad lines.
        let lines: Vec<&str> = payload.lines().collect();
        for cut in 0..lines.len() {
            assert!(
                parse_fetched(&lines[..cut].join("\n"), &ids).is_err(),
                "cut {cut}"
            );
        }
        assert!(parse_fetched(&format!("{payload}extra\n"), &ids).is_err());
        assert!(parse_fetched("pages=1\n2\thttp://x\n", &ids[..1]).is_err());
        assert!(parse_fetched("pages=1\nx\ta\tb\tc\n", &ids[..1]).is_err());
        assert!(parse_fetched("pages=one\n", &ids[..1]).is_err());
        assert!(parse_fetched("", &ids[..1]).is_err());
    }

    #[test]
    fn shard_stats_round_trip() {
        let r = ShardStatsReport {
            shard: 2,
            n_shards: 8,
            docs: 125,
            global_docs: 1000,
            searches: 31,
        };
        assert_eq!(parse_shard_stats(&render_shard_stats(&r)).unwrap(), r);
        assert!(parse_shard_stats("shard=1 shards=2").is_err());
        assert!(parse_shard_stats("shards=2 shard=1 docs=0 global_docs=0 searches=0").is_err());
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            "",
            "NOPE",
            "NOPE x y",
            "CLIENT",
            "CLIENT two words",
            "ANNOTATE onlyname",
            "STATS extra",
            "SNAPSHOT now",
            "ANNOTATE t a\\qb",
        ] {
            assert!(
                matches!(Request::parse(bad), Err(WireError::BadRequest(_))),
                "{bad:?} must be a bad-request"
            );
        }
    }

    #[test]
    fn replies_round_trip_including_typed_errors() {
        let replies = [
            Reply::Ok(String::new()),
            Reply::Ok("cells=1\n0,0,Restaurant,0.75,3\n".into()),
            Reply::Err(WireError::QueueFull),
            Reply::Err(WireError::BudgetExhausted),
            Reply::Err(WireError::TooLarge {
                need: 20,
                budget: 10,
            }),
            Reply::Err(WireError::ShuttingDown),
            Reply::Err(WireError::Failed("engine panic".into())),
            Reply::Err(WireError::BadRequest("unknown verb \"X\"".into())),
        ];
        for reply in replies {
            let line = reply.encode();
            assert_eq!(line.matches('\n').count(), 1, "one frame per reply");
            assert_eq!(Reply::parse(&line).unwrap(), reply);
        }
    }

    #[test]
    fn wire_errors_mirror_rejections() {
        assert_eq!(WireError::from(Rejection::QueueFull), WireError::QueueFull);
        assert_eq!(
            WireError::from(Rejection::BudgetExhausted),
            WireError::BudgetExhausted
        );
        assert_eq!(
            WireError::from(Rejection::RequestTooLarge { need: 9, budget: 4 }),
            WireError::TooLarge { need: 9, budget: 4 }
        );
        assert_eq!(
            WireError::from(Rejection::ShuttingDown),
            WireError::ShuttingDown
        );
    }

    #[test]
    fn render_annotations_is_line_per_cell() {
        use teda_core::annotate::CellAnnotation;
        use teda_kb::EntityType;
        use teda_tabular::CellId;

        let a = TableAnnotations {
            cells: vec![CellAnnotation {
                cell: CellId::new(2, 1),
                etype: EntityType::Restaurant,
                score: 0.625,
                votes: 5,
            }],
            skipped_cells: 3,
            queried_cells: 4,
        };
        let text = render_annotations(&a);
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("cells=1 skipped=3 queried=4"));
        let cell = lines.next().unwrap();
        assert!(cell.starts_with("2,1,"));
        assert!(cell.ends_with(",0.625,5"));
        assert_eq!(lines.next(), None);
    }
}
