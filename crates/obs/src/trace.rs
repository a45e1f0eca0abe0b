//! Per-request trace spans.
//!
//! A [`TraceCtx`] carries a request-scoped id (deterministically
//! assigned per registry — request *i* gets id *i*, so a test can
//! predict them) and collects timed spans as the request crosses
//! pipeline stages. Spans form a tree stored flat: `spans[0]` is the
//! root, every other span names its parent by index. When the request
//! completes the finished tree is pushed into the owning registry's
//! bounded ring of completed traces, where `TRACE-DUMP <id>` finds it.
//!
//! Recording is fire-and-forget: a disabled context (`TraceCtx::
//! disabled()`, or any context minted by a no-op registry) carries no
//! allocation, reads no clock, and every operation on it is a cheap
//! no-op — the request path is identical either way, which is half of
//! the "telemetry never changes a result bit" contract.
//!
//! A live context is cheap too. Node, root and span names are
//! `&'static str`, so recording a span copies a pointer, not a string;
//! span guards borrow their context instead of cloning its handle; and
//! the root span sits at index 0 from the start, so finishing a trace
//! moves its span list into the ring without copying it. Names that
//! come off the wire ([`Trace::parse`], [`Trace::graft`]) are owned.
//!
//! Cross-node: the wire layer forwards the id with an optional
//! `TRACE <id>` frame prefix; each shard records its own tree under
//! the same id, and [`Trace::graft`] reassembles one tree spanning
//! router and shards from the per-node dumps.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One timed span. `start_us`/`end_us` are microseconds since the
/// trace's origin (the creation of its root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the parent span in the trace's flat span list; the
    /// root (index 0) points at itself.
    pub parent: u32,
    /// Stage name, e.g. `queue_wait` or `shard0`: borrowed when
    /// recorded here, owned when parsed from a dump.
    pub name: Cow<'static, str>,
    /// Start offset from the trace origin, µs.
    pub start_us: u64,
    /// End offset from the trace origin, µs.
    pub end_us: u64,
}

/// A completed span tree for one request on one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Request-scoped id, shared across nodes via the `TRACE` prefix.
    pub id: u64,
    /// Which node recorded this tree (e.g. `router`, `shard1`).
    pub node: Cow<'static, str>,
    /// Flat span tree; `spans[0]` is the root.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Renders the trace as the `TRACE-DUMP` payload: a header line,
    /// then one `index parent start_us end_us name` line per span.
    /// Names go last so they may contain spaces; the wire layer
    /// escapes the newlines into one frame.
    pub fn render(&self) -> String {
        use std::fmt::Write;

        let mut out = format!(
            "trace {:016x} node={} spans={}\n",
            self.id,
            self.node,
            self.spans.len()
        );
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{} {} {} {} {}",
                i, s.parent, s.start_us, s.end_us, s.name
            )
            .expect("string write");
        }
        out
    }

    /// Reverses [`render`](Self::render). Any malformed line yields a
    /// typed error string — trace dumps arrive over the wire, so this
    /// must not panic.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty trace payload")?;
        let mut fields = header.split_whitespace();
        if fields.next() != Some("trace") {
            return Err(format!("bad trace header {header:?}"));
        }
        let id = fields
            .next()
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad trace id in {header:?}"))?;
        let node: Cow<'static, str> = fields
            .next()
            .and_then(|f| f.strip_prefix("node="))
            .ok_or_else(|| format!("missing node in {header:?}"))?
            .to_string()
            .into();
        let n: usize = fields
            .next()
            .and_then(|f| f.strip_prefix("spans="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("missing span count in {header:?}"))?;
        let mut spans = Vec::new();
        for line in lines {
            let mut cols = line.splitn(5, ' ');
            let mut num = |what: &str| -> Result<u64, String> {
                cols.next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad {what} in span line {line:?}"))
            };
            let index = num("index")?;
            let parent = num("parent")?;
            let start_us = num("start")?;
            let end_us = num("end")?;
            if index != spans.len() as u64 || parent > u32::MAX as u64 {
                return Err(format!("out-of-order span line {line:?}"));
            }
            let name: Cow<'static, str> = cols
                .next()
                .ok_or_else(|| format!("missing name in span line {line:?}"))?
                .to_string()
                .into();
            spans.push(Span {
                parent: parent as u32,
                name,
                start_us,
                end_us,
            });
        }
        if spans.len() != n {
            return Err(format!("trace promised {n} spans, carried {}", spans.len()));
        }
        for (i, s) in spans.iter().enumerate() {
            if s.parent as usize >= spans.len() {
                return Err(format!("span {i} has dangling parent {}", s.parent));
            }
        }
        Ok(Trace { id, node, spans })
    }

    /// Grafts another node's tree under this trace's root: `other`'s
    /// root becomes a child span named `<other.node>` here, and its
    /// descendants keep their shape. Reassembles one cross-node tree
    /// from per-node dumps that share an id.
    pub fn graft(&mut self, other: &Trace) {
        if other.spans.is_empty() {
            return;
        }
        let offset = self.spans.len() as u32;
        for (i, s) in other.spans.iter().enumerate() {
            self.spans.push(Span {
                // The grafted root hangs off our root; everything else
                // shifts by the offset.
                parent: if i == 0 { 0 } else { s.parent + offset },
                name: if i == 0 {
                    format!("{}:{}", other.node, s.name).into()
                } else {
                    s.name.clone()
                },
                start_us: s.start_us,
                end_us: s.end_us,
            });
        }
    }

    /// Indices of the direct children of span `i`.
    pub fn children(&self, i: u32) -> Vec<u32> {
        self.spans
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, s)| s.parent == i)
            .map(|(j, _)| j as u32)
            .collect()
    }
}

/// Bounded ring of completed traces — the registry's memory of recent
/// requests. Push is O(1); lookups scan newest-first.
#[derive(Debug)]
pub struct TraceRing {
    ring: Mutex<std::collections::VecDeque<Trace>>,
    cap: usize,
}

impl TraceRing {
    pub fn new(cap: usize) -> TraceRing {
        TraceRing {
            ring: Mutex::new(std::collections::VecDeque::with_capacity(cap)),
            cap,
        }
    }

    /// Appends a completed trace, evicting the oldest past capacity.
    pub fn append(&self, trace: Trace) {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let evicted = if ring.len() == self.cap {
            ring.pop_front()
        } else {
            None
        };
        ring.push_back(trace);
        drop(ring);
        // Outside the lock: keep the evicted tree's span list as this
        // thread's spare.
        if let Some(Trace { mut spans, .. }) = evicted {
            spans.clear();
            SPARE_SPANS.set(Some(spans));
        }
    }

    /// Every completed trace with this id as one tree: the oldest is
    /// the root, and each later one (the fetch phase of a routed search,
    /// a retried frame) is grafted under it with [`Trace::graft`], as a
    /// child named `<node>:<root>`.
    pub fn get(&self, id: u64) -> Option<Trace> {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let mut trees = ring.iter().filter(|t| t.id == id);
        let mut tree = trees.next()?.clone();
        for later in trees {
            tree.graft(later);
        }
        Some(tree)
    }

    /// Ids of every completed trace, oldest first.
    pub fn ids(&self) -> Vec<u64> {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.iter().map(|t| t.id).collect()
    }

    /// How many completed traces are held.
    pub fn completed(&self) -> usize {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.completed() == 0
    }
}

/// Returns a `&'static` copy of `name`, leaking it the first time each
/// distinct name is seen. For names drawn from configuration (node and
/// shard labels), so the table grows with the topology, never with
/// traffic; never pass it request data.
pub fn static_name(name: &str) -> &'static str {
    static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&known) = names.get(name) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    names.insert(leaked);
    leaked
}

/// Spans a trace has room for before its list first grows: the root,
/// queue wait and annotate of a service request, or a router's root,
/// per-shard scatter spans and merge.
const SPANS_PREALLOCATED: usize = 8;

thread_local! {
    /// The emptied span list of the last trace this thread evicted from
    /// a ring. The next trace started on this thread takes it, so a
    /// thread that both starts and finishes traces (a service worker)
    /// allocates no span lists once its ring is full.
    static SPARE_SPANS: Cell<Option<Vec<Span>>> = const { Cell::new(None) };
}

struct TraceInner {
    id: u64,
    node: &'static str,
    origin: Instant,
    /// The span tree so far: `spans[0]` is the root, whose end is set
    /// at finish.
    spans: Mutex<Vec<Span>>,
    ring: Arc<TraceRing>,
    finished: AtomicBool,
}

/// A live, clonable handle to one request's trace. All clones feed the
/// same span list; the trace completes on [`finish`](Self::finish) (or
/// when the last clone drops, so a panicking worker still leaves a
/// tree behind).
#[derive(Clone)]
pub struct TraceCtx {
    inner: Option<Arc<TraceInner>>,
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "TraceCtx({:016x})", inner.id),
            None => write!(f, "TraceCtx(disabled)"),
        }
    }
}

impl TraceCtx {
    pub(crate) fn new(
        id: u64,
        node: &'static str,
        root_name: &'static str,
        origin: Instant,
        ring: Arc<TraceRing>,
    ) -> TraceCtx {
        let mut spans = SPARE_SPANS
            .take()
            .unwrap_or_else(|| Vec::with_capacity(SPANS_PREALLOCATED));
        spans.push(Span {
            parent: 0,
            name: Cow::Borrowed(root_name),
            start_us: 0,
            end_us: 0,
        });
        TraceCtx {
            inner: Some(Arc::new(TraceInner {
                id,
                node,
                origin,
                spans: Mutex::new(spans),
                ring,
                finished: AtomicBool::new(false),
            })),
        }
    }

    /// The inert context: no id, no clock, every method a no-op.
    pub fn disabled() -> TraceCtx {
        TraceCtx { inner: None }
    }

    /// Whether spans recorded here go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The request-scoped id, if tracing is live.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.id)
    }

    /// Microseconds since the trace origin (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| u64::try_from(i.origin.elapsed().as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }

    /// The offset of an instant the caller already read, in microseconds
    /// since the trace origin (0 when disabled, or for an instant before
    /// the origin). Lets a caller that reads the clock anyway place
    /// spans without a second read.
    pub fn offset_us(&self, at: Instant) -> u64 {
        self.inner
            .as_ref()
            .map(|i| {
                u64::try_from(at.saturating_duration_since(i.origin).as_micros())
                    .unwrap_or(u64::MAX)
            })
            .unwrap_or(0)
    }

    /// Records one completed child-of-root span with explicit offsets —
    /// for stages whose start predates the code that reports them
    /// (e.g. queue wait, measured from the enqueue instant).
    pub fn add_span(&self, name: &'static str, start_us: u64, end_us: u64) {
        if let Some(inner) = &self.inner {
            let mut spans = inner.spans.lock().unwrap_or_else(PoisonError::into_inner);
            spans.push(Span {
                parent: 0,
                name: Cow::Borrowed(name),
                start_us,
                end_us,
            });
        }
    }

    /// Opens a child-of-root span now; it records itself when the
    /// guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            ctx: self,
            name,
            start_us: self.now_us(),
        }
    }

    /// Completes the trace: closes the root span now and pushes the
    /// tree into the registry ring. Idempotent; later clones dropping
    /// change nothing.
    pub fn finish(&self) {
        if let Some(inner) = &self.inner {
            inner.finish(Instant::now());
        }
    }

    /// [`finish`](Self::finish) with the root span closed at `end`, an
    /// instant the caller already read.
    pub fn finish_at(&self, end: Instant) {
        if let Some(inner) = &self.inner {
            inner.finish(end);
        }
    }
}

impl TraceInner {
    fn finish(&self, end: Instant) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        let end_us = u64::try_from(end.saturating_duration_since(self.origin).as_micros())
            .unwrap_or(u64::MAX);
        let mut spans = {
            let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *spans)
        };
        // Children were recorded with parent 0, which is exactly where
        // the root has sat since the trace began.
        if let Some(root) = spans.first_mut() {
            root.end_us = end_us;
        }
        self.ring.append(Trace {
            id: self.id,
            node: Cow::Borrowed(self.node),
            spans,
        });
    }
}

impl Drop for TraceInner {
    fn drop(&mut self) {
        // The last handle went away without an explicit finish (worker
        // panic, early return) — complete the tree anyway so the
        // request is not invisible post-mortem.
        if !self.finished.load(Ordering::SeqCst) {
            self.finish(Instant::now());
        }
    }
}

/// Guard for an open span; records `[start, drop)` as a child of the
/// trace root.
pub struct SpanGuard<'a> {
    ctx: &'a TraceCtx,
    name: &'static str,
    start_us: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.ctx.is_enabled() {
            self.ctx
                .add_span(self.name, self.start_us, self.ctx.now_us());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Arc<TraceRing> {
        Arc::new(TraceRing::new(8))
    }

    #[test]
    fn disabled_ctx_is_inert() {
        let ctx = TraceCtx::disabled();
        assert!(!ctx.is_enabled());
        assert_eq!(ctx.id(), None);
        assert_eq!(ctx.now_us(), 0);
        ctx.add_span("x", 0, 1);
        drop(ctx.span("y"));
        ctx.finish();
    }

    #[test]
    fn finish_pushes_one_tree_with_root_first() {
        let ring = ring();
        let ctx = TraceCtx::new(7, "node-a", "annotate", Instant::now(), Arc::clone(&ring));
        ctx.add_span("queue_wait", 0, 5);
        drop(ctx.span("work"));
        ctx.finish();
        ctx.finish(); // idempotent
        assert_eq!(ring.completed(), 1);
        let t = ring.get(7).expect("trace recorded");
        assert_eq!(t.node, "node-a");
        assert_eq!(t.spans[0].name, "annotate");
        assert_eq!(t.spans.len(), 3);
        assert!(t.spans.iter().all(|s| s.parent == 0));
    }

    #[test]
    fn dropping_the_last_clone_finishes_the_trace() {
        let ring = ring();
        let ctx = TraceCtx::new(1, "n", "root", Instant::now(), Arc::clone(&ring));
        let clone = ctx.clone();
        drop(ctx);
        assert!(ring.is_empty(), "live clone must keep the trace open");
        drop(clone);
        assert_eq!(ring.completed(), 1);
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let ring = TraceRing::new(2);
        for id in 0..5u64 {
            ring.append(Trace {
                id,
                node: "n".into(),
                spans: vec![],
            });
        }
        assert_eq!(ring.ids(), vec![3, 4]);
        assert!(ring.get(0).is_none());
    }

    #[test]
    fn get_grafts_every_tree_recorded_under_an_id() {
        let span = |parent: u32, name: &'static str| Span {
            parent,
            name: name.into(),
            start_us: 0,
            end_us: 1,
        };
        let tree = |id: u64, spans: Vec<Span>| Trace {
            id,
            node: "shard0".into(),
            spans,
        };
        let ring = TraceRing::new(3);
        ring.append(tree(5, vec![span(0, "search_many"), span(0, "search")]));
        ring.append(tree(6, vec![span(0, "other")]));
        ring.append(tree(5, vec![span(0, "fetch"), span(0, "page_hydration")]));

        let both = ring.get(5).expect("id 5 was recorded");
        let names: Vec<&str> = both.spans.iter().map(|s| &*s.name).collect();
        assert_eq!(
            names,
            ["search_many", "search", "shard0:fetch", "page_hydration"]
        );
        assert_eq!(both.children(0), vec![1, 2], "both phases under one root");
        assert_eq!(both.children(2), vec![3]);
        assert_eq!(ring.get(6).unwrap().spans.len(), 1, "other ids untouched");

        // Once the first tree is evicted, the later one stands alone.
        ring.append(tree(7, vec![span(0, "x")]));
        assert_eq!(ring.get(5).unwrap().spans[0].name, "fetch");
        assert!(ring.get(8).is_none());
    }

    #[test]
    fn render_parse_round_trip() {
        let t = Trace {
            id: 0xdead_beef,
            node: "router".into(),
            spans: vec![
                Span {
                    parent: 0,
                    name: "search".into(),
                    start_us: 0,
                    end_us: 100,
                },
                Span {
                    parent: 0,
                    name: "shard 1 scatter".into(),
                    start_us: 3,
                    end_us: 60,
                },
            ],
        };
        assert_eq!(Trace::parse(&t.render()).unwrap(), t);
        assert!(Trace::parse("").is_err());
        assert!(Trace::parse("trace xyz node=a spans=0\n").is_err());
        assert!(Trace::parse("trace 01 node=a spans=2\n0 0 0 1 x\n").is_err());
    }

    #[test]
    fn graft_builds_one_cross_node_tree() {
        let mut root = Trace {
            id: 9,
            node: "router".into(),
            spans: vec![Span {
                parent: 0,
                name: "search".into(),
                start_us: 0,
                end_us: 100,
            }],
        };
        let shard = Trace {
            id: 9,
            node: "shard0".into(),
            spans: vec![
                Span {
                    parent: 0,
                    name: "search".into(),
                    start_us: 0,
                    end_us: 40,
                },
                Span {
                    parent: 0,
                    name: "score".into(),
                    start_us: 1,
                    end_us: 30,
                },
            ],
        };
        root.graft(&shard);
        assert_eq!(root.spans.len(), 3);
        assert_eq!(root.spans[1].name, "shard0:search");
        assert_eq!(root.spans[1].parent, 0);
        assert_eq!(root.spans[2].parent, 1, "shard child must follow its root");
        assert_eq!(root.children(0), vec![1]);
        assert_eq!(root.children(1), vec![2]);
    }
}
