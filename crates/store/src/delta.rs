//! Delta segments: corpus updates journaled over a base snapshot.
//!
//! A segment file is one container of kind [`KIND_DELTA`] holding a
//! **base binding** (the CRC-32 and length of the exact snapshot file
//! the segment was journaled over) followed by the operations of one
//! [`CorpusStore::add_pages`](crate::CorpusStore) /
//! [`remove_pages`](crate::CorpusStore) call, one section per operation
//! **in call order** (section tags repeat; order is the journal's
//! semantics). Segments are numbered (`delta-000001.seg`, …) and each
//! is written atomically, so the journal only ever grows by whole,
//! checksummed operations — a crash mid-append leaves a sweepable
//! `.tmp`, never a half-written segment.
//!
//! The base binding is what makes snapshot-plus-journal crash-safe
//! *as a pair* even though only single-file renames are atomic: a
//! compaction that renames the folded snapshot into place but dies
//! before deleting the journal leaves segments bound to the *old*
//! snapshot bytes — the next load sees the binding mismatch, skips
//! them, and sweeps them, instead of double-applying operations the
//! snapshot already contains. (A segment can only bind to a snapshot
//! byte-identical to its base; since the codec is a pure function of
//! the page list, byte-identical snapshots mean an identical base
//! corpus, over which replay is exactly the journal's semantics.)
//!
//! Replay semantics (deterministic by construction): starting from the
//! base snapshot's page list, apply segments in file order and
//! operations in section order — `AddPages` appends in given order,
//! `RemovePages` drops every current page whose URL matches (URLs are
//! unique within a corpus, and a removal can target base pages and
//! previously added pages alike). The resulting **logical corpus** is a
//! plain page list; re-indexing it with the deterministic sharded build
//! yields the same index a from-scratch sequential build would, which
//! is the whole compaction correctness argument.

use teda_websim::{IndexParts, WebPage};

use crate::corpus_snapshot::{decode_index_parts, encode_index_parts};
use crate::format::{
    decode_container, encode_container, put_string, put_u32, put_u64, Cursor, KIND_DELTA,
};
use crate::StoreError;

const SEC_BASE: u32 = 3;
const SEC_ADD: u32 = 1;
const SEC_REMOVE: u32 = 2;
/// A partial index over the pages of the immediately preceding
/// [`SEC_ADD`] section — the segment-level indexing that makes loads
/// O(delta). Readers that predate (or distrust) it skip it and
/// re-tokenize; [`decode_segment`] is exactly that tolerant reader.
const SEC_ADD_INDEX: u32 = 4;

/// Identifies the exact snapshot file a segment applies to: the CRC-32
/// over the whole file plus its length (a second discriminator against
/// CRC collisions). Derived from snapshot bytes by [`BaseId::of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseId {
    /// CRC-32 (IEEE) over the entire snapshot file.
    pub crc: u32,
    /// Snapshot file length in bytes.
    pub len: u64,
}

impl BaseId {
    /// The binding of a snapshot file image.
    pub fn of(snapshot_bytes: &[u8]) -> Self {
        BaseId {
            crc: crate::format::crc32(snapshot_bytes),
            len: snapshot_bytes.len() as u64,
        }
    }
}

/// One journaled corpus update.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Append these pages to the corpus, in order.
    AddPages(Vec<WebPage>),
    /// Remove every page whose URL is in this list.
    RemovePages(Vec<String>),
}

impl DeltaOp {
    /// Applies the operation to a logical page list.
    pub fn apply(&self, pages: &mut Vec<WebPage>) {
        match self {
            DeltaOp::AddPages(added) => pages.extend(added.iter().cloned()),
            DeltaOp::RemovePages(urls) => {
                let doomed: std::collections::HashSet<&str> =
                    urls.iter().map(String::as_str).collect();
                pages.retain(|p| !doomed.contains(p.url.as_str()));
            }
        }
    }
}

fn op_section(op: &DeltaOp) -> (u32, Vec<u8>) {
    match op {
        DeltaOp::AddPages(pages) => {
            let mut payload = Vec::new();
            put_u64(&mut payload, pages.len() as u64);
            for page in pages {
                put_string(&mut payload, &page.url);
                put_string(&mut payload, &page.title);
                put_string(&mut payload, &page.body);
            }
            (SEC_ADD, payload)
        }
        DeltaOp::RemovePages(urls) => {
            let mut payload = Vec::new();
            put_u64(&mut payload, urls.len() as u64);
            for url in urls {
                put_string(&mut payload, url);
            }
            (SEC_REMOVE, payload)
        }
    }
}

fn base_section(base: BaseId) -> (u32, Vec<u8>) {
    let mut binding = Vec::new();
    put_u32(&mut binding, base.crc);
    put_u64(&mut binding, base.len);
    (SEC_BASE, binding)
}

/// Serializes one segment: the base binding first, then the operations
/// in order (no embedded partial indexes — a reader of this file
/// re-tokenizes the added pages).
pub fn encode_segment(base: BaseId, ops: &[DeltaOp]) -> Vec<u8> {
    let sections: Vec<(u32, Vec<u8>)> = std::iter::once(base_section(base))
        .chain(ops.iter().map(op_section))
        .collect();
    encode_container(KIND_DELTA, &sections)
}

/// Serializes one segment with per-add partial indexes: each `AddPages`
/// section is followed by a `SEC_ADD_INDEX` section holding the
/// [`IndexParts`] built over exactly that op's pages. `indexes` runs
/// parallel to `ops` (`None` for removals, or for adds the caller
/// declines to index).
///
/// # Panics
/// If the slices differ in length or an index is attached to a removal
/// — programmer errors, not data errors.
pub fn encode_segment_indexed(
    base: BaseId,
    ops: &[DeltaOp],
    indexes: &[Option<IndexParts>],
) -> Vec<u8> {
    assert_eq!(ops.len(), indexes.len(), "one index slot per operation");
    let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(1 + ops.len() * 2);
    sections.push(base_section(base));
    for (op, parts) in ops.iter().zip(indexes) {
        sections.push(op_section(op));
        if let Some(parts) = parts {
            assert!(
                matches!(op, DeltaOp::AddPages(_)),
                "only additions carry a partial index"
            );
            sections.push((SEC_ADD_INDEX, encode_index_parts(parts)));
        }
    }
    encode_container(KIND_DELTA, &sections)
}

/// A fully decoded segment: the binding, the operations, and — aligned
/// with `ops` — the partial index each `AddPages` brought along
/// (`None` when the segment was written without one).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentPayload {
    /// The snapshot this segment applies to.
    pub base: BaseId,
    /// The journaled operations, in order.
    pub ops: Vec<DeltaOp>,
    /// `add_indexes[i]` is the partial index of `ops[i]`, if present.
    pub add_indexes: Vec<Option<IndexParts>>,
}

fn decode_base(payload: &[u8]) -> Result<BaseId, StoreError> {
    let mut cur = Cursor::new(payload);
    let crc = cur.u32("delta base crc")?;
    let len = cur.u64("delta base length")?;
    if !cur.is_empty() {
        return Err(StoreError::Corrupt(
            "trailing bytes in delta base binding".into(),
        ));
    }
    Ok(BaseId { crc, len })
}

fn decode_op(tag: u32, payload: &[u8]) -> Result<DeltaOp, StoreError> {
    let mut cur = Cursor::new(payload);
    let op = match tag {
        SEC_ADD => {
            let n = cur.len_prefix(24, "added page count")?;
            let mut pages = Vec::with_capacity(n);
            for _ in 0..n {
                pages.push(WebPage {
                    url: cur.string("added page url")?,
                    title: cur.string("added page title")?,
                    body: cur.string("added page body")?,
                });
            }
            DeltaOp::AddPages(pages)
        }
        SEC_REMOVE => {
            let n = cur.len_prefix(8, "removed url count")?;
            let mut urls = Vec::with_capacity(n);
            for _ in 0..n {
                urls.push(cur.string("removed url")?);
            }
            DeltaOp::RemovePages(urls)
        }
        other => {
            return Err(StoreError::Corrupt(format!(
                "unknown delta section tag {other}"
            )))
        }
    };
    if !cur.is_empty() {
        return Err(StoreError::Corrupt(format!(
            "trailing bytes in delta section {tag}"
        )));
    }
    Ok(op)
}

/// Deserializes one segment back into its base binding and operations,
/// in order, **skipping** any embedded partial-index sections — the
/// tolerant reader the O(corpus) re-index fallback uses, so a segment
/// whose index bytes rotted still replays its operations. The binding
/// must be the first section — a segment without one cannot be safely
/// applied to anything.
pub fn decode_segment(bytes: &[u8]) -> Result<(BaseId, Vec<DeltaOp>), StoreError> {
    let sections = decode_container(bytes, KIND_DELTA)?;
    let mut base = None;
    let mut ops = Vec::with_capacity(sections.len());
    for (i, (tag, payload)) in sections.into_iter().enumerate() {
        match tag {
            SEC_BASE => {
                if i != 0 || base.is_some() {
                    return Err(StoreError::Corrupt(
                        "delta base binding must be the first and only binding section".into(),
                    ));
                }
                base = Some(decode_base(payload)?);
            }
            // Tolerated without being decoded: the ops alone fully
            // determine the logical corpus.
            SEC_ADD_INDEX => {}
            _ => ops.push(decode_op(tag, payload)?),
        }
    }
    let Some(base) = base else {
        return Err(StoreError::Corrupt(
            "delta segment has no base binding".into(),
        ));
    };
    Ok((base, ops))
}

/// Deserializes one segment *with* its embedded partial indexes — the
/// strict reader the O(delta) load path uses. Any defect in an index
/// section (structural rot, an index preceding any add, two indexes on
/// one add) is a typed error; the caller then falls back to
/// [`decode_segment`] and re-tokenizes, so corrupt index bytes degrade
/// to the slow path instead of corrupt search results.
pub fn decode_segment_full(bytes: &[u8]) -> Result<SegmentPayload, StoreError> {
    let sections = decode_container(bytes, KIND_DELTA)?;
    let mut base = None;
    let mut ops = Vec::with_capacity(sections.len());
    let mut add_indexes: Vec<Option<IndexParts>> = Vec::with_capacity(sections.len());
    for (i, (tag, payload)) in sections.into_iter().enumerate() {
        match tag {
            SEC_BASE => {
                if i != 0 || base.is_some() {
                    return Err(StoreError::Corrupt(
                        "delta base binding must be the first and only binding section".into(),
                    ));
                }
                base = Some(decode_base(payload)?);
            }
            SEC_ADD_INDEX => {
                let parts = decode_index_parts(payload)?;
                match (ops.last(), add_indexes.last_mut()) {
                    (Some(DeltaOp::AddPages(pages)), Some(slot @ None)) => {
                        if parts.n_docs != pages.len() as u64 {
                            return Err(StoreError::Corrupt(format!(
                                "segment partial index covers {} documents but the op adds {}",
                                parts.n_docs,
                                pages.len()
                            )));
                        }
                        *slot = Some(parts);
                    }
                    _ => {
                        return Err(StoreError::Corrupt(
                            "partial-index section must directly follow its add section".into(),
                        ))
                    }
                }
            }
            _ => {
                ops.push(decode_op(tag, payload)?);
                add_indexes.push(None);
            }
        }
    }
    let Some(base) = base else {
        return Err(StoreError::Corrupt(
            "delta segment has no base binding".into(),
        ));
    };
    Ok(SegmentPayload {
        base,
        ops,
        add_indexes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(url: &str) -> WebPage {
        WebPage {
            url: url.into(),
            title: format!("title of {url}"),
            body: format!("body of {url}"),
        }
    }

    #[test]
    fn segments_round_trip_preserving_operation_order_and_base() {
        let base = BaseId::of(b"pretend this is a snapshot");
        let ops = vec![
            DeltaOp::AddPages(vec![page("a"), page("b")]),
            DeltaOp::RemovePages(vec!["a".into()]),
            DeltaOp::AddPages(vec![page("c")]),
        ];
        let (decoded_base, decoded) =
            decode_segment(&encode_segment(base, &ops)).expect("own bytes decode");
        assert_eq!(decoded_base, base);
        assert_eq!(decoded, ops);
        assert_ne!(base, BaseId::of(b"a different snapshot"));
    }

    #[test]
    fn replay_applies_adds_and_removes_in_order() {
        let mut pages = vec![page("base0"), page("base1")];
        for op in [
            DeltaOp::AddPages(vec![page("new0")]),
            // Removal reaches base pages and freshly added pages alike.
            DeltaOp::RemovePages(vec!["base0".into(), "new0".into(), "ghost".into()]),
            DeltaOp::AddPages(vec![page("new1")]),
        ] {
            op.apply(&mut pages);
        }
        let urls: Vec<&str> = pages.iter().map(|p| p.url.as_str()).collect();
        assert_eq!(urls, vec!["base1", "new1"]);
    }

    #[test]
    fn indexed_segments_round_trip_and_tolerant_reader_skips_indexes() {
        let base = BaseId::of(b"snapshot bytes");
        let added = vec![page("a"), page("b")];
        let parts = teda_websim::InvertedIndex::build(&added).to_parts();
        let ops = vec![
            DeltaOp::AddPages(added),
            DeltaOp::RemovePages(vec!["a".into()]),
        ];
        let indexes = vec![Some(parts.clone()), None];
        let bytes = encode_segment_indexed(base, &ops, &indexes);

        let full = decode_segment_full(&bytes).expect("own bytes decode");
        assert_eq!(full.base, base);
        assert_eq!(full.ops, ops);
        assert_eq!(full.add_indexes, indexes);

        // The tolerant reader sees identical operations, no indexes.
        let (b2, ops2) = decode_segment(&bytes).expect("tolerant reader decodes");
        assert_eq!(b2, base);
        assert_eq!(ops2, ops);
    }

    #[test]
    fn misplaced_or_mismatched_index_sections_are_corrupt() {
        let base = BaseId::of(b"snapshot bytes");
        let added = vec![page("a")];
        let parts = teda_websim::InvertedIndex::build(&added).to_parts();

        // Index bound to a remove op (nothing it could cover).
        let remove = op_section(&DeltaOp::RemovePages(vec!["a".into()]));
        let bad = encode_container(
            KIND_DELTA,
            &[
                base_section(base),
                remove,
                (SEC_ADD_INDEX, encode_index_parts(&parts)),
            ],
        );
        assert!(matches!(
            decode_segment_full(&bad),
            Err(StoreError::Corrupt(_))
        ));
        // ...but the tolerant reader still recovers the operations.
        assert!(decode_segment(&bad).is_ok());

        // Index whose document count disagrees with its add.
        let two = op_section(&DeltaOp::AddPages(vec![page("a"), page("b")]));
        let bad = encode_container(
            KIND_DELTA,
            &[
                base_section(base),
                two,
                (SEC_ADD_INDEX, encode_index_parts(&parts)),
            ],
        );
        assert!(matches!(
            decode_segment_full(&bad),
            Err(StoreError::Corrupt(_))
        ));

        // Structurally rotten index payload: strict reader errors,
        // tolerant reader still replays.
        let add = op_section(&DeltaOp::AddPages(added));
        let bad = encode_container(
            KIND_DELTA,
            &[base_section(base), add, (SEC_ADD_INDEX, vec![0xFF; 12])],
        );
        assert!(decode_segment_full(&bad).is_err());
        let (_, ops) = decode_segment(&bad).expect("ops survive rotten index bytes");
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn corrupt_segments_are_typed_errors() {
        let base = BaseId::of(b"base");
        let bytes = encode_segment(base, &[DeltaOp::AddPages(vec![page("x")])]);
        for cut in 20..bytes.len() {
            assert!(
                decode_segment(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(decode_segment(&flipped).is_err());
        // A segment without its base binding is unusable by definition.
        let unbound = crate::format::encode_container(KIND_DELTA, &[]);
        assert!(matches!(
            decode_segment(&unbound),
            Err(StoreError::Corrupt(_))
        ));
    }
}
