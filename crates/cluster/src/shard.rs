//! The shard process: a [`ShardBackend`] scoring its local pages with
//! the manifest's *global* BM25 statistics, served over the wire
//! protocol by a search-only [`WireServer`].
//!
//! The backend ranks through the shared [`scoring`] kernel as one more
//! [`scoring::ScoreSource`]: its postings are the local ones, but `N`
//! and each term's document frequency come from the manifest (global),
//! not the local index, and `avg_len` is the manifest's exact global
//! bit pattern. Per document, the contributions are the same values added
//! in the same order as the single node — so every local score is
//! bit-identical to that document's global score, and the router's
//! merge can be bit-identical to the single-node ranking.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

use teda_store::{CorpusStore, ShardManifest, StoreError, ViewBackend};
use teda_websim::{results_of, scoring, BaseCorpus, PageId, SearchBackend, SearchResult};
use teda_wire::{ShardInfo, WireServer};

use crate::error::ClusterError;

/// One shard's search backend: any [`BaseCorpus`] (heap-loaded
/// [`WebCorpus`](teda_websim::WebCorpus) or mmap'd [`ViewBackend`])
/// plus the manifest that makes its scores globally comparable.
#[derive(Debug)]
pub struct ShardBackend {
    base: Arc<dyn BaseCorpus>,
    manifest: ShardManifest,
    /// `manifest.avg_len_bits` decoded once.
    avg_len: f64,
}

impl ShardBackend {
    /// Opens a shard image heap-resident: snapshot (plus any delta
    /// journal) through [`CorpusStore::load`], manifest validated
    /// against the loaded corpus.
    pub fn open(dir: &std::path::Path) -> Result<ShardBackend, ClusterError> {
        let store = CorpusStore::open(dir)?;
        let loaded = store.load()?;
        let manifest = ShardManifest::load(dir)?;
        Self::from_parts(Arc::new(loaded.corpus), manifest)
    }

    /// Opens a shard image mmap'd: queries walk postings in place and
    /// hydrate page text lazily, exactly like a single mapped node.
    pub fn open_mapped(dir: &std::path::Path) -> Result<ShardBackend, ClusterError> {
        let store = CorpusStore::open(dir)?;
        let snap = store.open_mapped()?;
        let view = ViewBackend::new(snap)?;
        let manifest = ShardManifest::load(dir)?;
        Self::from_parts(Arc::new(view), manifest)
    }

    /// Wraps an already-loaded base behind a manifest, enforcing the
    /// cross-checks that make later scoring panic-free: document counts
    /// agree, the df table covers exactly the local vocabulary, and no
    /// global df is below its local posting count. A mismatched pair is
    /// a corrupt (or mixed-up) shard image — a typed error, never a
    /// wrong ranking.
    pub fn from_parts(
        base: Arc<dyn BaseCorpus>,
        manifest: ShardManifest,
    ) -> Result<ShardBackend, ClusterError> {
        manifest.validate()?;
        let corrupt = |msg: String| {
            Err(ClusterError::Store(StoreError::Corrupt(format!(
                "shard image: {msg}"
            ))))
        };
        if base.n_docs() != manifest.global_ids.len() {
            return corrupt(format!(
                "corpus holds {} documents, manifest maps {}",
                base.n_docs(),
                manifest.global_ids.len()
            ));
        }
        if base.n_terms() != manifest.global_dfs.len() {
            return corrupt(format!(
                "corpus interns {} terms, manifest carries {} global dfs",
                base.n_terms(),
                manifest.global_dfs.len()
            ));
        }
        for tid in 0..base.n_terms() as u32 {
            let local = base.postings_len(tid);
            let global = manifest.global_dfs[tid as usize];
            if (local as u64) > global {
                return corrupt(format!(
                    "term {tid} has {local} local postings but global df {global}"
                ));
            }
        }
        let avg_len = f64::from_bits(manifest.avg_len_bits);
        Ok(ShardBackend {
            base,
            manifest,
            avg_len,
        })
    }

    /// The shard's manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// The wire-level identity a server over this backend advertises.
    pub fn info(&self) -> ShardInfo {
        ShardInfo {
            shard: self.manifest.shard,
            n_shards: self.manifest.n_shards,
            global_docs: self.manifest.global_docs,
        }
    }

    /// The shard's top-`k` in **local** ids. Because `global_ids` is
    /// strictly ascending, ranking local ids with the shared tie rules
    /// and translating afterwards gives the same order as ranking the
    /// global ids directly.
    fn search_local(&self, query: &str, k: usize) -> Vec<(PageId, f64)> {
        scoring::top_k(self, query, k)
    }

    fn to_global(&self, local: PageId) -> PageId {
        PageId(self.manifest.global_ids[local.0 as usize])
    }
}

/// The shard flavour of the BM25 kernel: local postings in local ids,
/// scored with the manifest's global `N`, dfs and `avg_len`.
impl scoring::ScoreSource for ShardBackend {
    type Term = u32;

    fn n_docs(&self) -> usize {
        self.base.n_docs()
    }

    fn avg_len(&self) -> f64 {
        self.avg_len
    }

    fn idf(&self, token: &str) -> Option<(f64, u32)> {
        let tid = self.base.term_id(token)?;
        let df = self.manifest.global_dfs[tid as usize] as usize;
        Some((scoring::idf(self.manifest.global_docs as usize, df), tid))
    }

    fn postings(&self, &tid: &u32, mut visit: impl FnMut(u32, f32, f64)) {
        self.base.for_each_posting(tid, &mut |page, tf| {
            visit(page, tf, self.base.doc_len_of(page as usize));
        });
    }
}

impl SearchBackend for ShardBackend {
    /// Global-id hits with globally comparable scores.
    fn search(&self, query: &str, k: usize) -> Vec<(PageId, f64)> {
        self.search_local(query, k)
            .into_iter()
            .map(|(local, score)| (self.to_global(local), score))
            .collect()
    }

    fn search_results(&self, query: &str, k: usize) -> Vec<SearchResult> {
        results_of(self.search_local(query, k), |local| {
            self.base.page_fields(local)
        })
    }

    /// The fields of global pages `ids`, each found among this shard's
    /// pages by binary search over the manifest's strictly ascending
    /// `global_ids`; an id the shard does not hold is refused.
    fn fetch(&self, ids: &[PageId]) -> Result<Vec<SearchResult>, String> {
        ids.iter()
            .map(|&id| match self.manifest.global_ids.binary_search(&id.0) {
                Ok(local) => Ok(self.base.page_fields(PageId(local as u32)).to_result()),
                Err(_) => Err(format!(
                    "page {} is not on shard {}",
                    id.0, self.manifest.shard
                )),
            })
            .collect()
    }

    /// The **local** document count (what `SHARD-STATS` reports as
    /// `docs`; `global_docs` travels via [`ShardInfo`]).
    fn n_docs(&self) -> usize {
        self.base.n_docs()
    }
}

/// One shard process: a search-only [`WireServer`] over a
/// [`ShardBackend`], advertising the shard's identity on `SHARD-STATS`.
pub struct ShardServer {
    server: WireServer,
    info: ShardInfo,
}

impl ShardServer {
    /// Opens the shard image at `dir` (heap-resident when `mapped` is
    /// false, mmap'd when true) and serves it on `addr` (port 0 for an
    /// ephemeral port).
    pub fn start(
        dir: &std::path::Path,
        mapped: bool,
        addr: impl ToSocketAddrs,
    ) -> Result<ShardServer, ClusterError> {
        let backend = if mapped {
            ShardBackend::open_mapped(dir)?
        } else {
            ShardBackend::open(dir)?
        };
        Self::start_with(Arc::new(backend), addr)
    }

    /// Serves an already-opened backend (how replicas share one mmap'd
    /// image in-process, and how the tests inject in-memory shards).
    pub fn start_with(
        backend: Arc<ShardBackend>,
        addr: impl ToSocketAddrs,
    ) -> Result<ShardServer, ClusterError> {
        let info = backend.info();
        let server = WireServer::start_search_only(backend, Some(info), addr)
            .map_err(|e| ClusterError::Io(format!("bind shard server: {e}")))?;
        Ok(ShardServer { server, info })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The shard identity this server advertises.
    pub fn info(&self) -> ShardInfo {
        self.info
    }

    /// The server's registry: its `searches` counter (queries ranked)
    /// and `fetched` counter (pages hydrated by `FETCH`).
    pub fn obs(&self) -> Arc<teda_obs::Registry> {
        self.server.obs()
    }

    /// Stops accepting, closes every connection, joins every thread.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{build_shard, partition_pages};
    use teda_websim::{scoring, WebCorpus, WebPage};

    fn corpus() -> WebCorpus {
        WebCorpus::from_pages(
            (0..19)
                .map(|i| WebPage {
                    url: format!("http://web.sim/{i}"),
                    title: format!("page {i} storage"),
                    body: format!(
                        "distributed storage engine number {} with shared terms {}",
                        i,
                        ["alpha", "beta", "gamma"][i % 3]
                    ),
                })
                .collect(),
        )
    }

    fn shard_backends(c: &WebCorpus, n_shards: u32) -> Vec<ShardBackend> {
        let assignment = partition_pages(c.len(), n_shards);
        (0..n_shards)
            .map(|s| {
                let (local, manifest) = build_shard(c, s, n_shards, &assignment).unwrap();
                ShardBackend::from_parts(Arc::new(local), manifest).unwrap()
            })
            .collect()
    }

    #[test]
    fn shard_scores_are_bit_identical_to_the_global_index() {
        let c = corpus();
        let shards = shard_backends(&c, 3);
        for query in ["storage engine", "alpha", "beta gamma", "absent-term", ""] {
            // Global scores for every document, via a full-length search.
            let global = SearchBackend::search(&c, query, c.len());
            for shard in &shards {
                for (id, score) in SearchBackend::search(shard, query, c.len()) {
                    let oracle = global
                        .iter()
                        .find(|(gid, _)| *gid == id)
                        .unwrap_or_else(|| panic!("shard hit {id:?} unknown globally"));
                    assert_eq!(
                        score.to_bits(),
                        oracle.1.to_bits(),
                        "score of {id:?} for {query:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn merged_shard_topk_equals_single_node_topk() {
        let c = corpus();
        for n_shards in [1u32, 2, 3, 7] {
            let shards = shard_backends(&c, n_shards);
            for query in ["storage", "alpha storage", "gamma engine"] {
                for k in [1usize, 3, 10, 100] {
                    let expected = SearchBackend::search(&c, query, k);
                    let merged = scoring::merge_topk(
                        shards.iter().map(|s| SearchBackend::search(s, query, k)),
                        k,
                    );
                    assert_eq!(expected, merged, "{n_shards} shards, {query:?}, k={k}");
                }
            }
        }
    }

    #[test]
    fn mismatched_manifest_is_a_typed_error() {
        let c = corpus();
        let assignment = partition_pages(c.len(), 2);
        let (local, manifest) = build_shard(&c, 0, 2, &assignment).unwrap();

        // Manifest from the *other* shard: document counts disagree.
        let (_, other) = build_shard(&c, 1, 2, &assignment).unwrap();
        assert!(matches!(
            ShardBackend::from_parts(Arc::new(local.clone()), other),
            Err(ClusterError::Store(StoreError::Corrupt(_)))
        ));

        // Global df below the local posting count: impossible corpus.
        let mut broken = manifest.clone();
        broken.global_dfs[0] = 0;
        let err = ShardBackend::from_parts(Arc::new(local.clone()), broken);
        assert!(err.is_err());

        // The untouched pair is fine.
        assert!(ShardBackend::from_parts(Arc::new(local), manifest).is_ok());
    }

    #[test]
    fn shard_server_answers_search_and_stats_over_tcp() {
        let c = corpus();
        let shards = shard_backends(&c, 2);
        let backend = Arc::new(shards.into_iter().next().unwrap());
        let expected = SearchBackend::search(backend.as_ref(), "storage", 5);
        let server = ShardServer::start_with(Arc::clone(&backend), "127.0.0.1:0").unwrap();

        let mut client = teda_wire::WireClient::connect(server.local_addr()).unwrap();
        let hits = client.search("storage", 5).unwrap();
        assert_eq!(hits, expected, "wire transport must preserve score bits");

        let scored = client.search_many(&[("storage", 5)]).unwrap().remove(0);
        assert_eq!(scored, expected);
        // FETCH hydrates the ranked pages by global id, as the backend
        // assembles them, in the ascending order asked for.
        let mut ids: Vec<PageId> = expected.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        let pages = client.fetch(&ids).unwrap();
        assert_eq!(pages, backend.fetch(&ids).unwrap());
        for (page, id) in pages.iter().zip(&ids) {
            assert_eq!(page.url, format!("http://web.sim/{}", id.0));
        }
        // A page of the other shard, and one past the corpus, are
        // typed refusals that leave the connection usable.
        let foreign = (0..19u32)
            .map(PageId)
            .find(|id| backend.manifest().global_ids.binary_search(&id.0).is_err())
            .expect("shard 1 holds a page");
        for bad in [foreign, PageId(19)] {
            assert!(
                matches!(
                    client.fetch(&[bad]),
                    Err(teda_wire::WireError::BadRequest(_))
                ),
                "page {} must be refused",
                bad.0
            );
        }
        let metrics = client.metrics().unwrap();
        assert!(
            metrics.contains(&format!(
                "teda_counter_total{{node=\"shard0\",counter=\"fetched\"}} {}",
                ids.len()
            )),
            "{metrics}"
        );

        let report = client.shard_stats().unwrap();
        assert_eq!(report.shard, 0);
        assert_eq!(report.n_shards, 2);
        assert_eq!(report.global_docs, 19);
        assert_eq!(report.docs, backend.n_docs() as u64);
        assert_eq!(report.searches, 2, "both search verbs counted");

        server.shutdown();
    }
}
