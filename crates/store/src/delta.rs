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

use teda_websim::{IndexParts, InvertedIndex, WebPage};

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
/// O(delta). [`read_segment`] hands it over undecoded and
/// [`adopt_index`] decides whether it is used; an add without a usable
/// one is re-tokenized.
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
/// in order, each `AddPages` section followed by a `SEC_ADD_INDEX`
/// section holding the [`IndexParts`] built over exactly that op's
/// pages. `indexes` runs parallel to `ops` (`None` for removals, or for
/// adds the caller declines to index — a reader re-tokenizes those).
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
    encode_segment_sections(
        base,
        ops,
        indexes
            .iter()
            .map(|parts| parts.as_ref().map(encode_index_parts)),
    )
}

/// [`encode_segment_indexed`] over index sections already encoded —
/// what a tier merge copies verbatim from its sources. `index_sections`
/// runs parallel to `ops`.
pub(crate) fn encode_segment_sections(
    base: BaseId,
    ops: &[DeltaOp],
    index_sections: impl IntoIterator<Item = Option<Vec<u8>>>,
) -> Vec<u8> {
    let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(1 + ops.len() * 2);
    sections.push(base_section(base));
    for (op, index) in ops.iter().zip(index_sections) {
        sections.push(op_section(op));
        if let Some(index) = index {
            assert!(
                matches!(op, DeltaOp::AddPages(_)),
                "only additions carry a partial index"
            );
            sections.push((SEC_ADD_INDEX, index));
        }
    }
    encode_container(KIND_DELTA, &sections)
}

/// A segment as [`read_segment`] finds it: the binding, the operations,
/// and — aligned with `ops` — the partial-index section journaled
/// directly after each `AddPages`, **undecoded** (`None` for removals
/// and for adds written without one). Borrows the segment bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentPayload<'a> {
    /// The snapshot this segment applies to.
    pub base: BaseId,
    /// The journaled operations, in order.
    pub ops: Vec<DeltaOp>,
    /// `add_indexes[i]` is the raw index section of `ops[i]`, if any;
    /// [`adopt_index`] decides whether it is used.
    pub add_indexes: Vec<Option<&'a [u8]>>,
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

/// Walks a segment's sections, every one CRC-checked: the base binding,
/// which must be the first section, is decoded here and every other
/// section goes to `visit` in order. A segment without a binding cannot
/// be safely applied to anything.
fn walk_sections<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(u32, &'a [u8]) -> Result<(), StoreError>,
) -> Result<BaseId, StoreError> {
    let mut base = None;
    for (i, (tag, payload)) in decode_container(bytes, KIND_DELTA)?.into_iter().enumerate() {
        match tag {
            SEC_BASE if i == 0 => base = Some(decode_base(payload)?),
            SEC_BASE => {
                return Err(StoreError::Corrupt(
                    "delta base binding must be the first and only binding section".into(),
                ))
            }
            _ => visit(tag, payload)?,
        }
    }
    base.ok_or_else(|| StoreError::Corrupt("delta segment has no base binding".into()))
}

/// Reads one segment: its base binding, its operations in order, and
/// each add's partial-index section left undecoded — so a caller that
/// only needs the operations never pays for an index. An index section
/// that does not directly follow an add (after a removal, before any
/// op, a second one on the same add) is dropped here. Defects in the
/// binding or in an operation are typed errors.
pub fn read_segment(bytes: &[u8]) -> Result<SegmentPayload<'_>, StoreError> {
    let mut ops = Vec::new();
    let mut add_indexes: Vec<Option<&[u8]>> = Vec::new();
    let base = walk_sections(bytes, |tag, payload| {
        if tag == SEC_ADD_INDEX {
            if let (Some(DeltaOp::AddPages(_)), Some(slot @ None)) =
                (ops.last(), add_indexes.last_mut())
            {
                *slot = Some(payload);
            }
        } else {
            ops.push(decode_op(tag, payload)?);
            add_indexes.push(None);
        }
        Ok(())
    })?;
    Ok(SegmentPayload {
        base,
        ops,
        add_indexes,
    })
}

/// A segment's base binding and the number of URLs its removals list —
/// all the tier policy counts. Checks every section as [`read_segment`]
/// does, but never decodes an add's pages.
pub(crate) fn count_removed_urls(bytes: &[u8]) -> Result<(BaseId, usize), StoreError> {
    let mut removed = 0usize;
    let base = walk_sections(bytes, |tag, payload| {
        match tag {
            SEC_ADD | SEC_ADD_INDEX => {}
            _ => {
                if let DeltaOp::RemovePages(urls) = decode_op(tag, payload)? {
                    removed += urls.len();
                }
            }
        }
        Ok(())
    })?;
    Ok((base, removed))
}

/// The one adoption rule for a journaled partial index: `section` is
/// used for the add of `pages` only if it decodes into a valid index
/// covering exactly those pages. Anything else — no section, rotten or
/// forged bytes, a document count that disagrees — is `None`, and the
/// caller re-tokenizes that add alone: damage costs speed, never a
/// wrong result.
pub fn adopt_index(section: Option<&[u8]>, pages: &[WebPage]) -> Option<InvertedIndex> {
    let parts = decode_index_parts(section?).ok()?;
    if parts.n_docs != pages.len() as u64 {
        return None;
    }
    InvertedIndex::from_parts(parts).ok()
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
        let bytes = encode_segment_indexed(base, &ops, &[None, None, None]);
        let decoded = read_segment(&bytes).expect("own bytes decode");
        assert_eq!(decoded.base, base);
        assert_eq!(decoded.ops, ops);
        assert_eq!(decoded.add_indexes, vec![None; 3]);
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
        let built = teda_websim::InvertedIndex::build(&added);
        let ops = vec![
            DeltaOp::AddPages(added.clone()),
            DeltaOp::RemovePages(vec!["a".into()]),
        ];
        let bytes = encode_segment_indexed(base, &ops, &[Some(built.to_parts()), None]);

        // The reader returns the index section as bytes, not decoded.
        let read = read_segment(&bytes).expect("own bytes decode");
        assert_eq!(read.base, base);
        assert_eq!(read.ops, ops);
        assert_eq!(
            read.add_indexes,
            vec![Some(encode_index_parts(&built.to_parts()).as_slice()), None]
        );
        // Adoption decodes it back into the very index that was built...
        assert_eq!(adopt_index(read.add_indexes[0], &added), Some(built));
        // ...and an add without one degrades to a re-tokenize.
        assert_eq!(adopt_index(None, &added), None);
    }

    #[test]
    fn misplaced_or_mismatched_index_sections_degrade_to_a_re_index() {
        let base = BaseId::of(b"snapshot bytes");
        let added = vec![page("a")];
        let parts = teda_websim::InvertedIndex::build(&added).to_parts();
        let index_section = || (SEC_ADD_INDEX, encode_index_parts(&parts));

        // Index bound to a remove op (nothing it could cover), one
        // before any op, and a second one on the same add: each is
        // dropped where it stands, and the ops still replay.
        let remove = op_section(&DeltaOp::RemovePages(vec!["a".into()]));
        let add = op_section(&DeltaOp::AddPages(added.clone()));
        let bytes = encode_container(
            KIND_DELTA,
            &[
                base_section(base),
                index_section(),
                remove,
                index_section(),
                add,
                index_section(),
                (SEC_ADD_INDEX, vec![0xFF; 12]),
            ],
        );
        let read = read_segment(&bytes).expect("misplaced indexes are dropped, not fatal");
        assert_eq!(read.ops.len(), 2);
        assert_eq!(
            read.add_indexes[0], None,
            "an index after a removal is dropped"
        );
        assert_eq!(
            read.add_indexes[1],
            Some(encode_index_parts(&parts).as_slice()),
            "the add keeps the index directly after it, not the second one"
        );
        assert!(adopt_index(read.add_indexes[1], &added).is_some());

        // Index whose document count disagrees with its add.
        let two = vec![page("a"), page("b")];
        let bytes = encode_container(
            KIND_DELTA,
            &[
                base_section(base),
                op_section(&DeltaOp::AddPages(two.clone())),
                index_section(),
            ],
        );
        let read = read_segment(&bytes).expect("structurally sound");
        assert!(read.add_indexes[0].is_some());
        assert_eq!(adopt_index(read.add_indexes[0], &two), None);

        // Structurally rotten index payload: the segment still reads,
        // and only adoption refuses the bytes.
        let bytes = encode_container(
            KIND_DELTA,
            &[
                base_section(base),
                op_section(&DeltaOp::AddPages(added.clone())),
                (SEC_ADD_INDEX, vec![0xFF; 12]),
            ],
        );
        let read = read_segment(&bytes).expect("ops survive rotten index bytes");
        assert_eq!(read.ops, vec![DeltaOp::AddPages(added.clone())]);
        assert_eq!(adopt_index(read.add_indexes[0], &added), None);
    }

    #[test]
    fn the_removal_count_reads_what_the_full_reader_reads() {
        let base = BaseId::of(b"snapshot bytes");
        let ops = vec![
            DeltaOp::AddPages(vec![page("a"), page("b")]),
            DeltaOp::RemovePages(vec!["a".into(), "ghost".into()]),
            DeltaOp::AddPages(vec![page("c")]),
            DeltaOp::RemovePages(vec!["c".into()]),
        ];
        let parts = teda_websim::InvertedIndex::build(&[page("c")]).to_parts();
        let bytes = encode_segment_indexed(base, &ops, &[None, None, Some(parts), None]);
        assert_eq!(count_removed_urls(&bytes).expect("reads"), (base, 3));

        // Rot anywhere, in an add's pages included, is an error for both.
        for at in [bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            let mut rotten = bytes.clone();
            rotten[at] ^= 0x40;
            assert!(read_segment(&rotten).is_err());
            assert!(count_removed_urls(&rotten).is_err(), "flip at {at}");
        }
        let unbound = encode_container(KIND_DELTA, &[]);
        assert!(count_removed_urls(&unbound).is_err());
    }

    #[test]
    fn corrupt_segments_are_typed_errors() {
        let base = BaseId::of(b"base");
        let bytes = encode_segment_indexed(base, &[DeltaOp::AddPages(vec![page("x")])], &[None]);
        for cut in 20..bytes.len() {
            assert!(
                read_segment(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(read_segment(&flipped).is_err());
        // A segment without its base binding is unusable by definition.
        let unbound = crate::format::encode_container(KIND_DELTA, &[]);
        assert!(matches!(
            read_segment(&unbound),
            Err(StoreError::Corrupt(_))
        ));
        // A binding anywhere but first, and an op section with trailing
        // bytes, are typed errors too.
        let add = op_section(&DeltaOp::AddPages(vec![page("x")]));
        let late = encode_container(KIND_DELTA, &[add.clone(), base_section(base)]);
        assert!(matches!(read_segment(&late), Err(StoreError::Corrupt(_))));
        let mut padded = add;
        padded.1.push(0);
        let padded = encode_container(KIND_DELTA, &[base_section(base), padded]);
        assert!(matches!(read_segment(&padded), Err(StoreError::Corrupt(_))));
    }
}
