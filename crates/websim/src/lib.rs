//! `teda-websim` — the synthetic Web and search engine (the Bing stand-in).
//!
//! The paper's annotator "submits the content of the cell to a Web search
//! engine" and classifies the returned snippets (§5). Microsoft Bing is
//! replaced here with a deterministic synthetic Web:
//!
//! * [`template`] — page text generators conditioned on entity type
//!   (official sites, review pages, directory listings, news), with the
//!   type-word frequencies calibrated in `teda-kb::types`;
//! * [`corpus`] — builds the whole Web for a [`teda_kb::World`]: several
//!   pages per entity, per-type directory pages (what the bare query
//!   "Museum" retrieves — the Figure 8 failure mode), and pure noise;
//! * [`index`] — an inverted index with BM25 ranking (the [`scoring`]
//!   module holds the shared BM25 kernel and tie rules);
//! * [`segment`] — a segmented view of a corpus: a base index plus
//!   journaled add/remove segments merged at read time, bit-identical
//!   to a full rebuild — the O(delta) ingest path;
//! * [`backend`] — the [`backend::SearchBackend`] seam the engine and
//!   services consume, with [`backend::SwappableBackend`] for live
//!   hot-swap after a segment lands;
//! * [`engine`] — the [`engine::SearchEngine`] trait and [`engine::BingSim`],
//!   which returns `(url, title, snippet)` triples (snippets truncated to
//!   ~20 words, as the paper observes of real snippets) and charges
//!   virtual latency per query.
//!
//! Ambiguity is inherited from the world: "Melisse" the restaurant and
//! "Melisse" the jazz label both have pages, and an unaugmented query
//! retrieves a mix; appending the city (§5.2.2) shifts BM25 toward the
//! right entity because official pages mention their city.

pub mod backend;
pub mod corpus;
pub mod engine;
pub mod index;
pub mod page;
pub mod scoring;
pub mod segment;
pub mod template;

pub use backend::{results_of, BaseCorpus, PageFields, SearchBackend, SwappableBackend};
pub use corpus::{WebCorpus, WebCorpusSpec};
pub use engine::{BingSim, SearchEngine, SearchResult};
pub use index::{IndexParts, InvalidIndexParts, InvertedIndex};
pub use page::{PageId, WebPage};
pub use scoring::{merge_topk, rank_order};
pub use segment::{Segment, SegmentOp, SegmentedCorpus};
