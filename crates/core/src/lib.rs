//! `teda-core` — the paper's contribution: discovery and annotation of
//! entities in tables.
//!
//! Given a table `T` and a set of target types Γ from an ontology, the
//! algorithm (§5) finds the rows holding entities of those types and the
//! cells holding their names, in three steps:
//!
//! 1. **Pre-processing** ([`preprocess`]) — rule out cells that cannot
//!    name entities: pattern-shaped values (phones, URLs, emails, numbers,
//!    coordinates), verbose descriptions, and cells in GFT
//!    `Location`/`Date`/`Number` columns.
//! 2. **Annotation** ([`annotate`]) — query the search engine with each
//!    remaining cell (optionally disambiguated with spatial context from
//!    the same row, [`query`]); classify the top-k snippets; annotate with
//!    type `t_max` when more than `k/2` snippets agree (Eq. 1:
//!    `S_ij = s_t / k`).
//! 3. **Post-processing** ([`postprocess`]) — eliminate spurious
//!    annotations with the column-coherence score (Eq. 2:
//!    `S_j = Σ_i ln(S_ij / o_ij + 1)`), keeping each type's annotations
//!    only in its winning column.
//!
//! The crate also provides the classifier trainer of §5.2.1 ([`trainer`]),
//! the TIN/TIS baselines of §6.2 ([`baselines`]), the Limaye-style
//! catalogue annotator of §6.3 ([`catalogue_annotator`]), the
//! catalogue-first/Web-fallback hybrid the paper sketches as future work
//! ([`hybrid`]), and gold-standard evaluation with the paper's P/R/F
//! definitions ([`evaluate`]).

pub mod annotate;
pub mod baselines;
pub mod cache;
pub mod catalogue_annotator;
pub mod cluster;
pub mod config;
pub mod evaluate;
pub mod hybrid;
pub mod model;
pub mod pipeline;
pub mod postprocess;
pub mod preprocess;
pub mod query;
pub mod report;
pub mod stream;
pub mod trainer;

pub use annotate::{annotate_cells, CellAnnotation};
pub use cache::{CacheConfig, CacheEntrySnapshot, CacheStats, QueryCache};
pub use config::AnnotatorConfig;
pub use evaluate::evaluate_type;
pub use model::{SnippetClassifier, TypeLabels};
pub use pipeline::{Annotator, BatchAnnotator, TableAnnotations};
pub use stream::{
    default_max_in_flight, table_channel, AnnotatedTable, AnnotationSink, ChannelSource, Collect,
    FeedClosed, IntoArcTable, IterSource, SliceSource, SourceError, StreamSummary, TableFeed,
    TableSource, VecSource,
};
