//! The streaming annotation API: [`TableSource`] in, [`AnnotationSink`]
//! out.
//!
//! The paper's pipeline annotates one table at a time; the first two
//! batch drivers took a fully materialized `Vec<Table>`, so memory
//! scaled with corpus size and every entry point (offline batch, the
//! service, the experiments) re-implemented its own driver loop. This
//! module is the redesigned seam between *where tables come from* and
//! *where annotations go*:
//!
//! * [`TableSource`] — a pull-based, fallible stream of tables. Adapters
//!   cover the common shapes: borrowed slices ([`SliceSource`]), owned
//!   vectors ([`VecSource`]), arbitrary fallible iterators
//!   ([`IterSource`]), and a bounded-channel push handle for live feeds
//!   ([`table_channel`]) whose `push` blocks when the annotator falls
//!   behind — backpressure into the producer, not unbounded buffering.
//! * [`AnnotationSink`] — receives each [`AnnotatedTable`] plus
//!   per-table [`SourceError`]s, in stream order. [`Collect`] preserves
//!   the era of `Vec<TableAnnotations>` return types for callers that
//!   do want everything in memory.
//!
//! The driver between them is
//! [`BatchAnnotator::annotate_stream`](crate::pipeline::BatchAnnotator::annotate_stream):
//! `source → bounded in-flight window → sink`, holding at most
//! `max_in_flight` tables' worth of annotation state live while keeping
//! the output bit-identical to the offline batch path (see
//! `crates/core/src/README.md` for the ordering argument).

use std::borrow::Borrow;
use std::error::Error;
use std::fmt;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};

use teda_tabular::Table;

use crate::pipeline::TableAnnotations;

/// A per-table failure reported by a [`TableSource`] (parse error, I/O
/// error, producer-side fault) or by a streaming driver on behalf of a
/// table it could not annotate.
///
/// One bad table must not sink an unbounded stream, so sources yield
/// errors *in-band* — the stream continues after one — and sinks receive
/// them at the failed table's position.
#[derive(Debug)]
pub struct SourceError {
    message: String,
    cause: Option<Box<dyn Error + Send + Sync>>,
}

impl SourceError {
    /// Wraps an underlying error.
    pub fn new(cause: impl Error + Send + Sync + 'static) -> Self {
        SourceError {
            message: cause.to_string(),
            cause: Some(Box::new(cause)),
        }
    }

    /// A free-form message with no underlying cause.
    pub fn msg(message: impl Into<String>) -> Self {
        SourceError {
            message: message.into(),
            cause: None,
        }
    }

    /// The human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl Error for SourceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.cause.as_deref().map(|e| e as &(dyn Error + 'static))
    }
}

/// A pull-based, fallible stream of tables — the input half of the
/// streaming annotation API.
///
/// Implementations yield `Some(Ok(table))` per table, `Some(Err(e))` for
/// a table that could not be produced (the stream continues), and `None`
/// at end of stream. Drivers pull only as fast as their in-flight window
/// allows, so a source backed by a parser or a socket is naturally
/// throttled — that is the backpressure story.
pub trait TableSource {
    /// What the source yields: an owned [`Table`], an [`Arc<Table>`], or
    /// a borrow — anything a driver can view as a table and move across
    /// its worker threads.
    type Item: Borrow<Table> + Send;

    /// Pulls the next table (or per-table error); `None` ends the stream.
    fn next_table(&mut self) -> Option<Result<Self::Item, SourceError>>;

    /// `(lower, upper)` bound on the tables remaining, `Iterator`-style.
    /// Purely advisory (sinks may preallocate); defaults to unknown.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// A source over a borrowed slice: how a corpus already in memory is
/// streamed. Infallible.
pub struct SliceSource<'a> {
    tables: std::slice::Iter<'a, Table>,
}

impl<'a> SliceSource<'a> {
    /// Streams `tables` in order.
    pub fn new(tables: &'a [Table]) -> Self {
        SliceSource {
            tables: tables.iter(),
        }
    }
}

impl<'a> TableSource for SliceSource<'a> {
    type Item = &'a Table;

    fn next_table(&mut self) -> Option<Result<&'a Table, SourceError>> {
        self.tables.next().map(Ok)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.tables.size_hint()
    }
}

/// A source that owns its tables. Infallible.
pub struct VecSource {
    tables: std::vec::IntoIter<Table>,
}

impl VecSource {
    /// Streams `tables` in order, consuming them.
    pub fn new(tables: Vec<Table>) -> Self {
        VecSource {
            tables: tables.into_iter(),
        }
    }
}

impl From<Vec<Table>> for VecSource {
    fn from(tables: Vec<Table>) -> Self {
        VecSource::new(tables)
    }
}

impl TableSource for VecSource {
    type Item = Table;

    fn next_table(&mut self) -> Option<Result<Table, SourceError>> {
        self.tables.next().map(Ok)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.tables.size_hint()
    }
}

/// Adapts any fallible iterator into a source — the bridge for lazy
/// generators, parser pipelines and test harnesses.
pub struct IterSource<I> {
    iter: I,
}

impl<I, T> IterSource<I>
where
    I: Iterator<Item = Result<T, SourceError>>,
    T: Borrow<Table> + Send,
{
    /// Streams whatever `iter` yields.
    pub fn new(iter: I) -> Self {
        IterSource { iter }
    }
}

impl<I, T> TableSource for IterSource<I>
where
    I: Iterator<Item = Result<T, SourceError>>,
    T: Borrow<Table> + Send,
{
    type Item = T;

    fn next_table(&mut self) -> Option<Result<T, SourceError>> {
        self.iter.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

/// The feed was dropped on the consuming side; the pushed table is
/// handed back.
#[derive(Debug)]
pub struct FeedClosed<T>(pub T);

impl<T> fmt::Display for FeedClosed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table feed closed: the consuming source was dropped")
    }
}

impl<T: fmt::Debug> Error for FeedClosed<T> {}

/// The push handle of a [`table_channel`]: the producer half of a live
/// table feed.
///
/// `push` **blocks** while the channel is at capacity — that is the
/// point: a parser thread feeding a slower annotator is throttled to
/// the annotation rate instead of buffering the whole stream. Dropping
/// the feed (or all clones of it) ends the stream cleanly.
#[derive(Clone)]
pub struct TableFeed {
    tx: SyncSender<Result<Table, SourceError>>,
}

impl TableFeed {
    /// Pushes one table, blocking while the channel is full. Errs only
    /// when the consuming [`ChannelSource`] was dropped.
    pub fn push(&self, table: Table) -> Result<(), FeedClosed<Table>> {
        self.tx.send(Ok(table)).map_err(|e| match e.0 {
            Ok(table) => FeedClosed(table),
            Err(_) => unreachable!("pushed an Ok"),
        })
    }

    /// Pushes one table without blocking; hands the table back if the
    /// channel is full right now.
    pub fn try_push(&self, table: Table) -> Result<(), TrySendError<Table>> {
        self.tx.try_send(Ok(table)).map_err(|e| match e {
            TrySendError::Full(Ok(table)) => TrySendError::Full(table),
            TrySendError::Disconnected(Ok(table)) => TrySendError::Disconnected(table),
            _ => unreachable!("pushed an Ok"),
        })
    }

    /// Reports a per-table failure in-band (the stream continues).
    pub fn push_error(&self, error: SourceError) -> Result<(), FeedClosed<SourceError>> {
        self.tx.send(Err(error)).map_err(|e| match e.0 {
            Err(error) => FeedClosed(error),
            Ok(_) => unreachable!("pushed an Err"),
        })
    }
}

/// The pull half of a [`table_channel`].
pub struct ChannelSource {
    rx: Receiver<Result<Table, SourceError>>,
}

impl TableSource for ChannelSource {
    type Item = Table;

    fn next_table(&mut self) -> Option<Result<Table, SourceError>> {
        // A recv error means every feed handle was dropped: end of
        // stream, not a failure.
        self.rx.recv().ok()
    }
}

/// A bounded push-based table feed: returns the producer handle and the
/// [`TableSource`] a driver consumes. At most `capacity` tables buffer
/// between the two; a faster producer blocks in [`TableFeed::push`].
pub fn table_channel(capacity: usize) -> (TableFeed, ChannelSource) {
    let (tx, rx) = mpsc::sync_channel(capacity.max(1));
    (TableFeed { tx }, ChannelSource { rx })
}

/// One annotated table as delivered to an [`AnnotationSink`]: the
/// stream position, the table itself (for sinks that persist or route),
/// and its annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedTable<T> {
    /// 0-based position in the stream (errors occupy positions too).
    pub index: usize,
    /// The annotated table, as the source yielded it.
    pub table: T,
    /// The annotation result, bit-identical to
    /// `BatchAnnotator::annotate_table` on the same table.
    pub annotations: TableAnnotations,
}

/// The output half of the streaming annotation API: receives results
/// and per-table errors **in stream order**, one call per stream
/// position.
///
/// Sinks run on the driver's thread; a slow sink therefore slows the
/// pull rate — backpressure propagates from sink through window to
/// source.
pub trait AnnotationSink<T> {
    /// One table annotated successfully.
    fn on_annotated(&mut self, result: AnnotatedTable<T>);

    /// The table at `index` failed (source-side or admission error); the
    /// stream continues.
    fn on_error(&mut self, index: usize, error: SourceError);
}

/// The sink that collects one `Result<TableAnnotations, SourceError>`
/// per stream position, in order; over a [`SliceSource`],
/// [`into_annotations`](Collect::into_annotations) unwraps them.
#[derive(Debug, Default)]
pub struct Collect {
    results: Vec<Result<TableAnnotations, SourceError>>,
}

impl Collect {
    /// An empty collector.
    pub fn new() -> Self {
        Collect::default()
    }

    /// One slot per stream position, in order.
    pub fn into_results(self) -> Vec<Result<TableAnnotations, SourceError>> {
        self.results
    }

    /// All annotations, or the first per-table error: the whole corpus
    /// of an infallible stream.
    pub fn into_annotations(self) -> Result<Vec<TableAnnotations>, SourceError> {
        self.results.into_iter().collect()
    }

    /// Results received so far.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether nothing arrived yet.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }
}

impl<T> AnnotationSink<T> for Collect {
    fn on_annotated(&mut self, result: AnnotatedTable<T>) {
        debug_assert_eq!(result.index, self.results.len(), "sink order violated");
        self.results.push(Ok(result.annotations));
    }

    fn on_error(&mut self, index: usize, error: SourceError) {
        debug_assert_eq!(index, self.results.len(), "sink order violated");
        self.results.push(Err(error));
    }
}

/// Conversion into the `Arc<Table>` the annotation service schedules:
/// free for owned and shared tables, one clone for borrows.
pub trait IntoArcTable: Borrow<Table> {
    /// The table as a shareable handle.
    fn into_arc_table(self) -> Arc<Table>;
}

impl IntoArcTable for Table {
    fn into_arc_table(self) -> Arc<Table> {
        Arc::new(self)
    }
}

impl IntoArcTable for Arc<Table> {
    fn into_arc_table(self) -> Arc<Table> {
        self
    }
}

impl IntoArcTable for &Table {
    fn into_arc_table(self) -> Arc<Table> {
        Arc::new(self.clone())
    }
}

/// What one streaming run did: stream length, failure count, and the
/// observed in-flight high-water mark (always `≤ max_in_flight` — the
/// memory bound the streaming driver exists to provide).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Tables annotated and delivered to the sink.
    pub annotated: usize,
    /// Per-table errors delivered to the sink.
    pub errors: usize,
    /// Most tables ever live in the window at once (pulled from the
    /// source but not yet emitted to the sink).
    pub peak_in_flight: usize,
}

impl StreamSummary {
    /// Stream positions processed (annotations + errors).
    pub fn total(&self) -> usize {
        self.annotated + self.errors
    }
}

/// The default in-flight window of the streaming shims: enough tables
/// to keep every worker busy through skew (same 4× factor as the rayon
/// compat's chunked scheduler) while keeping resident state O(threads),
/// not O(corpus).
pub fn default_max_in_flight() -> usize {
    rayon::current_num_threads().saturating_mul(4).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teda_tabular::ColumnType;

    fn tiny_table(name: &str) -> Table {
        Table::builder(2)
            .name(name)
            .column_type(1, ColumnType::Number)
            .row(vec!["Melisse", "4.5"])
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn slice_source_yields_in_order_with_exact_hint() {
        let tables = vec![tiny_table("a"), tiny_table("b")];
        let mut src = SliceSource::new(&tables);
        assert_eq!(src.size_hint(), (2, Some(2)));
        assert_eq!(src.next_table().unwrap().unwrap().name(), "a");
        assert_eq!(src.next_table().unwrap().unwrap().name(), "b");
        assert!(src.next_table().is_none());
        assert_eq!(src.size_hint(), (0, Some(0)));
    }

    #[test]
    fn vec_source_owns_and_yields() {
        let mut src = VecSource::new(vec![tiny_table("a")]);
        let t = src.next_table().unwrap().unwrap();
        assert_eq!(t.name(), "a");
        assert!(src.next_table().is_none());
    }

    #[test]
    fn iter_source_carries_errors_in_band() {
        let items: Vec<Result<Table, SourceError>> = vec![
            Ok(tiny_table("ok")),
            Err(SourceError::msg("bad table")),
            Ok(tiny_table("after")),
        ];
        let mut src = IterSource::new(items.into_iter());
        assert!(src.next_table().unwrap().is_ok());
        let err = src.next_table().unwrap().unwrap_err();
        assert_eq!(err.message(), "bad table");
        assert!(src.next_table().unwrap().is_ok(), "stream continues");
        assert!(src.next_table().is_none());
    }

    #[test]
    fn channel_blocks_at_capacity_and_ends_on_drop() {
        let (feed, mut source) = table_channel(1);
        feed.push(tiny_table("first")).unwrap();
        // capacity 1: a second non-blocking push must report Full
        match feed.try_push(tiny_table("second")) {
            Err(TrySendError::Full(t)) => assert_eq!(t.name(), "second"),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(source.next_table().unwrap().unwrap().name(), "first");
        feed.push_error(SourceError::msg("mid-stream")).unwrap();
        assert!(source.next_table().unwrap().is_err());
        drop(feed);
        assert!(source.next_table().is_none(), "drop ends the stream");
    }

    #[test]
    fn blocked_push_resumes_when_the_consumer_drains() {
        let (feed, mut source) = table_channel(1);
        feed.push(tiny_table("a")).unwrap();
        let producer = std::thread::spawn(move || {
            // blocks until the consumer pulls "a"
            feed.push(tiny_table("b")).unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(source.next_table().unwrap().unwrap().name(), "a");
        producer.join().unwrap();
        assert_eq!(source.next_table().unwrap().unwrap().name(), "b");
    }

    #[test]
    fn push_to_a_dropped_source_hands_the_table_back() {
        let (feed, source) = table_channel(2);
        drop(source);
        let FeedClosed(table) = feed.push(tiny_table("orphan")).unwrap_err();
        assert_eq!(table.name(), "orphan");
    }

    #[test]
    fn collect_preserves_order_and_first_error() {
        let mut sink = Collect::new();
        AnnotationSink::<Table>::on_annotated(
            &mut sink,
            AnnotatedTable {
                index: 0,
                table: tiny_table("a"),
                annotations: TableAnnotations::default(),
            },
        );
        AnnotationSink::<Table>::on_error(&mut sink, 1, SourceError::msg("boom"));
        assert_eq!(sink.len(), 2);
        let results = sink.into_results();
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().unwrap_err().message(), "boom");
    }

    #[test]
    fn into_annotations_unwraps_infallible_streams() {
        let mut sink = Collect::new();
        AnnotationSink::<Table>::on_annotated(
            &mut sink,
            AnnotatedTable {
                index: 0,
                table: tiny_table("a"),
                annotations: TableAnnotations::default(),
            },
        );
        let all = sink.into_annotations().expect("no errors pushed");
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn source_error_exposes_cause_chain() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err = SourceError::new(io);
        assert_eq!(err.message(), "gone");
        assert!(Error::source(&err).is_some());
        assert!(Error::source(&SourceError::msg("plain")).is_none());
    }

    #[test]
    fn into_arc_table_is_identity_for_arcs() {
        let arc = Arc::new(tiny_table("shared"));
        let again = Arc::clone(&arc).into_arc_table();
        assert!(Arc::ptr_eq(&arc, &again));
        let owned = tiny_table("owned").into_arc_table();
        assert_eq!(owned.name(), "owned");
        let borrowed = (&tiny_table("borrowed")).into_arc_table();
        assert_eq!(borrowed.name(), "borrowed");
    }

    #[test]
    fn default_window_scales_with_threads() {
        let w = default_max_in_flight();
        assert!(w >= 1);
        assert_eq!(w, rayon::current_num_threads() * 4);
    }
}
