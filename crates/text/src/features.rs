//! Sparse feature vectors with the paper's normalized-TF weighting.
//!
//! §5.2.1: "Each token is associated with its normalized frequency in the
//! snippet, that is obtained by dividing the number of its occurrences by
//! the length of the snippet. The set of tokens, along with their relative
//! frequencies, form the features used by the text classifier."
//!
//! "Length of the snippet" is taken as the number of content tokens after
//! stop-word removal (so weights of a snippet always sum to 1 when at
//! least one token survives) — the convention LingPipe-era pipelines used.
//!
//! # One pass per snippet
//!
//! [`FeatureExtractor`] featurizes a snippet in one scan that allocates
//! only the returned vector:
//!
//! * [`TokenScanner`] lowercases each token into a per-thread buffer;
//! * a **surface lexicon** maps each lowercase token seen in training
//!   straight to "stopword" or to its feature id, so a hit skips the
//!   stopword search, the Porter stemmer and the vocabulary lookup. Only
//!   a miss pays for those three steps;
//! * feature ids are collected in a per-thread `Vec<u32>`, and the term
//!   counts come from sort + run-length over it.
//!
//! The lexicon is seeded with [`STOPWORDS`] and written only by
//! [`FeatureExtractor::fit_transform`], so its size is bounded by the
//! training text (the stopwords plus every distinct training surface
//! token), never by the traffic [`FeatureExtractor::transform`] sees.
//!
//! Output is bit-identical to the plain recipe (tokenize → stop-filter →
//! stem → vocabulary lookup → count / length). A lexicon entry is the
//! value that recipe computes for its token: stemming is a pure function
//! of the surface token, and a fitted stem keeps its id forever. Each
//! weight is the same single `f64` division of an integer count by the
//! integer length.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::porter::Stemmer;
use crate::stopwords::{is_stopword, STOPWORDS};
use crate::tokenize::TokenScanner;
use crate::vocab::Vocabulary;

/// A sparse feature vector: `(feature id, weight)` pairs sorted by id,
/// each id unique.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector {
    entries: Vec<(u32, f64)>,
}

impl SparseVector {
    /// Builds a vector from unsorted, possibly duplicated pairs; duplicate
    /// ids are summed.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(id, _)| id);
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(pairs.len());
        for (id, w) in pairs {
            match entries.last_mut() {
                Some((last_id, last_w)) if *last_id == id => *last_w += w,
                _ => entries.push((id, w)),
            }
        }
        SparseVector { entries }
    }

    /// The entries, sorted by feature id.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Number of non-zero features.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no features (e.g. the snippet was all stopwords).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight of feature `id`, 0.0 when absent.
    pub fn get(&self, id: u32) -> f64 {
        self.entries
            .binary_search_by_key(&id, |&(i, _)| i)
            .map(|idx| self.entries[idx].1)
            .unwrap_or(0.0)
    }

    /// Sum of weights (≈ 1.0 for normalized-TF vectors).
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt()
    }

    /// Dot product with another sparse vector (merge join).
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.entries, &other.entries);
        let mut acc = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Dot product with a dense weight slice; out-of-range ids contribute 0.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        self.entries
            .iter()
            .map(|&(id, w)| dense.get(id as usize).copied().unwrap_or(0.0) * w)
            .sum()
    }

    /// Adds `scale * self` into a dense accumulator (grows implicitly via
    /// the caller sizing `dense` to the vocabulary).
    pub fn add_scaled_into(&self, dense: &mut [f64], scale: f64) {
        for &(id, w) in &self.entries {
            if let Some(slot) = dense.get_mut(id as usize) {
                *slot += scale * w;
            }
        }
    }

    /// Squared Euclidean distance to another sparse vector.
    pub fn distance_sq(&self, other: &SparseVector) -> f64 {
        // |a|² + |b|² − 2·a·b
        let na = self.entries.iter().map(|&(_, w)| w * w).sum::<f64>();
        let nb = other.entries.iter().map(|&(_, w)| w * w).sum::<f64>();
        (na + nb - 2.0 * self.dot(other)).max(0.0)
    }
}

/// Turns raw text into [`SparseVector`]s via the §5.2.1 recipe:
/// lowercase → tokenize → stop-filter → Porter stem → normalized TF.
///
/// During training, call [`fit_transform`](FeatureExtractor::fit_transform)
/// so new tokens extend the vocabulary; at prediction time call
/// [`transform`](FeatureExtractor::transform), which skips unseen tokens.
///
/// `transform` is the extractor's *frozen* mode: it takes `&self`, never
/// touches the vocabulary or the surface lexicon, and keeps its scratch
/// (token buffer, stemmer, id list) in thread-local storage — so one
/// extractor can featurize snippets from many threads concurrently (the
/// batch annotation engine classifies cells in parallel against a single
/// shared extractor).
#[derive(Debug, Clone, Default)]
pub struct FeatureExtractor {
    vocab: Vocabulary,
    lexicon: Lexicon,
}

/// What a lowercase surface token resolves to.
#[derive(Debug, Clone, Copy)]
enum Surface {
    Stopword,
    Feature(u32),
}

/// Lowercase surface token → [`Surface`], for every stopword and every
/// token `fit_transform` has seen. Grows only in `fit_transform`.
#[derive(Debug, Clone)]
struct Lexicon(HashMap<Box<str>, Surface, BuildHasherDefault<SurfaceHasher>>);

impl Default for Lexicon {
    fn default() -> Self {
        Lexicon(
            STOPWORDS
                .iter()
                .map(|&w| (Box::from(w), Surface::Stopword))
                .collect(),
        )
    }
}

/// A multiply-rotate hasher over 8-byte words (the FxHash scheme):
/// deterministic, std-only, and a few cycles per lexicon key, where
/// SipHash costs more than the rest of a lookup. It has no keyed
/// protection against crafted collisions; the lexicon does not need it,
/// because only `fit_transform` inserts (training text), and a lookup
/// of any inference-time token probes a fixed table.
#[derive(Debug, Default, Clone, Copy)]
struct SurfaceHasher(u64);

impl SurfaceHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for SurfaceHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // The tail's length rides in the byte it can never fill, so
            // "ab" and "ab\0" pad to different words.
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            w[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.add(u64::from(b));
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply mixes upward; rotate the well-mixed high bits down
        // to where the table takes its bucket index.
        self.0.rotate_left(26)
    }
}

/// Per-thread featurization scratch: reused across calls, so a snippet
/// allocates only its output vector.
#[derive(Default)]
struct Scratch {
    token: String,
    stemmer: Stemmer,
    ids: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The one featurization pass. `resolve` maps a lowercase token to its
/// [`Surface`], or `None` for a content token outside the vocabulary
/// (skipped, but counted toward the snippet length).
fn featurize(
    text: &str,
    mut resolve: impl FnMut(&str, &mut Stemmer) -> Option<Surface>,
) -> SparseVector {
    SCRATCH.with(|cell| {
        let Scratch {
            token,
            stemmer,
            ids,
        } = &mut *cell.borrow_mut();
        ids.clear();
        let mut total = 0u32;
        let mut scanner = TokenScanner::new(text);
        while scanner.next_into(token) {
            match resolve(token, stemmer) {
                Some(Surface::Stopword) => continue,
                Some(Surface::Feature(id)) => ids.push(id),
                None => {}
            }
            total += 1;
        }
        normalized_tf(ids, total)
    })
}

/// The recipe's answer for a token the lexicon does not hold: stopword
/// search, then `id_of` the Porter stem.
fn resolve_miss(
    token: &str,
    stemmer: &mut Stemmer,
    id_of: impl FnOnce(&str) -> Option<u32>,
) -> Option<Surface> {
    if is_stopword(token) {
        Some(Surface::Stopword)
    } else {
        id_of(stemmer.stem(token)).map(Surface::Feature)
    }
}

/// Counts by sort + run-length; each weight is `count / total`.
fn normalized_tf(ids: &mut [u32], total: u32) -> SparseVector {
    if total == 0 {
        return SparseVector::default();
    }
    ids.sort_unstable();
    let denom = f64::from(total);
    let runs = ids.chunk_by(|a, b| a == b);
    let mut entries = Vec::with_capacity(runs.clone().count());
    for run in runs {
        let count = u32::try_from(run.len()).expect("count fits the u32 total");
        entries.push((run[0], f64::from(count) / denom));
    }
    SparseVector { entries }
}

impl FeatureExtractor {
    /// Creates an extractor with an empty vocabulary.
    pub fn new() -> Self {
        FeatureExtractor::default()
    }

    /// The current vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Vocabulary size; classifiers size their weight vectors from this.
    pub fn dim(&self) -> usize {
        self.vocab.len()
    }

    /// Entries in the surface lexicon: the stopwords plus every distinct
    /// content token `fit_transform` has seen. `transform` never adds one.
    pub fn lexicon_len(&self) -> usize {
        self.lexicon.0.len()
    }

    /// Extracts features, interning unseen tokens (training mode).
    pub fn fit_transform(&mut self, text: &str) -> SparseVector {
        let FeatureExtractor { vocab, lexicon } = self;
        featurize(text, |token, stemmer| {
            if let Some(&surface) = lexicon.0.get(token) {
                return Some(surface);
            }
            let surface = resolve_miss(token, stemmer, |stem| Some(vocab.intern(stem)));
            if let Some(surface) = surface {
                lexicon.0.insert(Box::from(token), surface);
            }
            surface
        })
    }

    /// Extracts features against the frozen vocabulary (prediction mode);
    /// unseen tokens are skipped but still count toward the snippet length,
    /// as they would for a classifier that has never seen the word.
    ///
    /// Takes `&self`: the vocabulary and lexicon are read-only here and the
    /// scratch is thread-local, so concurrent inference needs no locking.
    pub fn transform(&self, text: &str) -> SparseVector {
        featurize(text, |token, stemmer| match self.lexicon.0.get(token) {
            Some(&surface) => Some(surface),
            None => resolve_miss(token, stemmer, |stem| self.vocab.get(stem)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = SparseVector::from_pairs(vec![(3, 1.0), (1, 0.5), (3, 2.0)]);
        assert_eq!(v.entries(), &[(1, 0.5), (3, 3.0)]);
        assert_eq!(v.get(3), 3.0);
        assert_eq!(v.get(2), 0.0);
    }

    #[test]
    fn dot_products() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (2, 2.0)]);
        let b = SparseVector::from_pairs(vec![(1, 5.0), (2, 3.0)]);
        assert_eq!(a.dot(&b), 6.0);
        assert_eq!(a.dot_dense(&[1.0, 1.0, 1.0]), 3.0);
        assert_eq!(a.dot_dense(&[1.0]), 1.0); // id 2 out of range → 0
    }

    #[test]
    fn norms_and_distance() {
        let a = SparseVector::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        assert_eq!(a.norm(), 5.0);
        let b = SparseVector::from_pairs(vec![(0, 0.0), (1, 0.0)]);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
        assert_eq!(a.distance_sq(&a), 0.0);
    }

    #[test]
    fn add_scaled_accumulates() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (2, 2.0)]);
        let mut dense = vec![0.0; 3];
        a.add_scaled_into(&mut dense, 2.0);
        assert_eq!(dense, vec![2.0, 0.0, 4.0]);
    }

    #[test]
    fn fit_transform_normalizes_to_one() {
        let mut fx = FeatureExtractor::new();
        let v = fx.fit_transform("The Louvre museum is a museum in Paris");
        // content tokens: louvre museum museum paris → weights sum to 1
        assert!((v.sum() - 1.0).abs() < 1e-12);
        let museum_id = fx.vocab().get("museum").unwrap();
        assert!((v.get(museum_id) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transform_skips_unseen_but_counts_length() {
        let mut fx = FeatureExtractor::new();
        fx.fit_transform("museum paris");
        let v = fx.transform("museum zanzibar"); // zanzibar unseen
        let museum_id = fx.vocab().get("museum").unwrap();
        // length 2, museum count 1 → weight 0.5
        assert!((v.get(museum_id) - 0.5).abs() < 1e-12);
        assert_eq!(v.nnz(), 1);
        assert_eq!(fx.dim(), 2, "transform must not grow the vocabulary");
    }

    #[test]
    fn all_stopword_text_yields_empty_vector() {
        let mut fx = FeatureExtractor::new();
        let v = fx.fit_transform("the of and");
        assert!(v.is_empty());
        assert_eq!(v.sum(), 0.0);
    }

    #[test]
    fn lexicon_grows_only_in_fit_transform() {
        let mut fx = FeatureExtractor::new();
        assert_eq!(fx.lexicon_len(), STOPWORDS.len(), "seeded with stopwords");
        fx.fit_transform("Museums museum THE Louvre");
        // museums, museum, louvre: three surfaces, two stems.
        assert_eq!(fx.lexicon_len(), STOPWORDS.len() + 3);
        assert_eq!(fx.dim(), 2);
        fx.transform("zanzibar museums tower");
        assert_eq!(fx.lexicon_len(), STOPWORDS.len() + 3);
    }

    #[test]
    fn surface_hasher_is_deterministic() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<SurfaceHasher>::default();
        assert_eq!(build.hash_one("museum"), build.hash_one("museum"));
        assert_ne!(build.hash_one("museum"), build.hash_one("museums"));
        assert_ne!(build.hash_one(""), build.hash_one("\0"));
    }

    #[test]
    fn stemming_merges_inflections() {
        let mut fx = FeatureExtractor::new();
        let v = fx.fit_transform("museums museum");
        assert_eq!(v.nnz(), 1, "museums and museum share a stem");
        assert!((v.sum() - 1.0).abs() < 1e-12);
    }
}
