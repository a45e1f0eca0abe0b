//! The on-disk container every `teda-store` file uses: a fixed header
//! (magic, format version, file kind) followed by length-prefixed,
//! CRC-checksummed sections.
//!
//! ```text
//! offset 0   magic    8 bytes  b"TEDASTOR"
//!        8   version  u32 LE   FORMAT_VERSION
//!       12   kind     u32 LE   corpus snapshot | cache snapshot | delta segment
//!       16   count    u32 LE   number of sections
//!       20   sections…
//!
//! section    tag      u32 LE   section-kind discriminator (file-kind specific)
//!            len      u64 LE   payload length in bytes
//!            crc      u32 LE   CRC-32 (IEEE) over the payload bytes
//!            payload  len bytes
//! ```
//!
//! All integers are little-endian; floats never appear here — the
//! payload codecs move them as IEEE-754 bit patterns so a load
//! reproduces every value bit for bit. Every read is bounds-checked and
//! every section is verified against its CRC before a payload codec
//! sees a single byte: truncation, bit rot and version skew surface as
//! typed [`StoreError`]s, never as a panic or a silently wrong index.
//! The mmap'd serving path relaxes *when* the CRC runs, not *whether*:
//! [`decode_container_deferred`] validates the structure up front and
//! [`verify_section`] checks each payload on first touch.

use std::path::{Path, PathBuf};

use crate::StoreError;

/// The file magic. Eight bytes so a `file`-style sniff and a hexdump
/// both identify a store file instantly.
pub const MAGIC: [u8; 8] = *b"TEDASTOR";

/// Current format version. Bump on any layout change; readers reject
/// other versions with [`StoreError::UnsupportedVersion`] and the
/// caller falls back to a rebuild.
pub const FORMAT_VERSION: u32 = 1;

/// File kind: a full corpus snapshot (pages + index).
pub const KIND_CORPUS: u32 = 1;
/// File kind: a query-cache snapshot.
pub const KIND_CACHE: u32 = 2;
/// File kind: one journaled delta segment.
pub const KIND_DELTA: u32 = 3;
/// File kind: a cluster shard manifest (global ranking statistics
/// riding beside a shard's `corpus.snap` — see [`crate::shard`]).
pub const KIND_SHARD: u32 = 4;

/// Slice-by-8 CRC-32 lookup tables, generated at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte through `k` further zero bytes, so eight table reads
/// fold a whole `u64` per iteration. The checksum runs over every byte
/// of every section — on a fully verified open it *is* the warm-open
/// cost, so one-byte-per-iteration was the wrong shape for the hottest
/// loop in the crate.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), slice-by-8: eight
/// bytes folded per iteration through eight precomputed tables, with a
/// byte-at-a-time tail. Bit-identical to [`crc32_table_driven`] on
/// every input (a property test holds the two against each other).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The original byte-at-a-time CRC-32 — kept as the reference
/// implementation the slice-by-8 fast path is property-tested against
/// (same polynomial, same init/finalize, one table).
pub fn crc32_table_driven(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Serializes a container: header plus `sections` in the given order.
/// Section tags may repeat (delta segments journal one section per
/// operation, in order).
pub fn encode_container(kind: u32, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let total: usize = sections.iter().map(|(_, p)| p.len() + 16).sum();
    let mut out = Vec::with_capacity(20 + total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(sections.len())
            .expect("section count fits u32")
            .to_le_bytes(),
    );
    for (tag, payload) in sections {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// Parses and verifies a container of the expected `kind`, returning
/// the sections in file order. Every section's CRC is checked here, so
/// payload codecs downstream may assume structurally intact bytes (they
/// still bounds-check every field — a *valid* checksum over a malformed
/// payload must degrade to [`StoreError::Corrupt`], not a panic).
pub fn decode_container(bytes: &[u8], kind: u32) -> Result<Vec<(u32, &[u8])>, StoreError> {
    decode_container_deferred(bytes, kind)?
        .into_iter()
        .map(|section| Ok((section.tag, verify_section(bytes, &section)?)))
        .collect()
}

/// One section as laid out in the container, structurally validated
/// (its payload span is in bounds) but with the CRC **not yet**
/// verified — pair with [`verify_section`] before trusting the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSection {
    /// Section-kind discriminator (file-kind specific).
    pub tag: u32,
    /// Payload byte range within the container.
    pub span: std::ops::Range<usize>,
    /// Declared CRC-32 over the payload bytes.
    pub crc: u32,
}

/// Checks `section`'s payload bytes against its declared CRC and returns
/// them, verified.
pub fn verify_section<'a>(bytes: &'a [u8], section: &RawSection) -> Result<&'a [u8], StoreError> {
    // The container parser only produces in-bounds spans, but this is a
    // public entry point — an out-of-range `RawSection` from elsewhere
    // must degrade to `Corrupt`, not panic.
    let payload = bytes.get(section.span.clone()).ok_or_else(|| {
        StoreError::Corrupt(format!(
            "section {} span {}..{} exceeds container length {}",
            section.tag,
            section.span.start,
            section.span.end,
            bytes.len()
        ))
    })?;
    if crc32(payload) != section.crc {
        return Err(StoreError::ChecksumMismatch {
            section: section.tag,
        });
    }
    Ok(payload)
}

/// Structure-only container parse: header checks and the full section
/// walk (every declared length validated against the remaining input)
/// **without** touching payload bytes — O(section count), not O(file).
/// This is what the mmap'd snapshot opens with, deferring each
/// section's CRC to first touch via [`verify_section`].
///
/// A length prefix pointing past the end of the container — whether
/// forged or the result of truncation mid-section — is a typed
/// [`StoreError::Corrupt`], never a panic or an allocation.
pub fn decode_container_deferred(bytes: &[u8], kind: u32) -> Result<Vec<RawSection>, StoreError> {
    let mut cur = Cursor::new(bytes);
    let magic = cur.take(8, "file magic")?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = cur.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let found_kind = cur.u32("file kind")?;
    if found_kind != kind {
        return Err(StoreError::WrongKind {
            found: found_kind,
            expected: kind,
        });
    }
    let count = cur.u32("section count")? as usize;
    let mut sections = Vec::with_capacity(count.min(64));
    for i in 0..count {
        let tag = cur.u32("section tag")?;
        let len = cur.u64("section length")?;
        let crc = cur.u32("section checksum")?;
        let len = usize::try_from(len)
            .map_err(|_| StoreError::Corrupt(format!("section {i} length overflows usize")))?;
        if len > cur.remaining() {
            return Err(StoreError::Corrupt(format!(
                "section {i} (tag {tag}) length {len} points past the end of the container \
                 ({} bytes remain)",
                cur.remaining()
            )));
        }
        let start = cur.position();
        cur.take(len, "section payload")?;
        sections.push(RawSection {
            tag,
            span: start..start + len,
            crc,
        });
    }
    if !cur.is_empty() {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after the last section",
            cur.remaining()
        )));
    }
    Ok(sections)
}

/// Writes `bytes` to `path` atomically: the full content lands in a
/// uniquely named `<path>.<pid>.<seq>.tmp` first, is fsynced, and only
/// then renamed over `path` — so a crash at any point leaves either the
/// old file or the new one, never a torn mixture, and two concurrent
/// writers of the same path (e.g. two wire connections both sending
/// `SNAPSHOT`) each flush their own temp file instead of trampling a
/// shared one; the renames then serialize at the filesystem and the
/// published file is always one writer's complete image; the parent
/// directory is synced after the rename, so the new name survives a
/// power loss. Stale `.tmp` leftovers from a crash between write and
/// rename are swept by [`crate::clean_stale_tmps`] at store open.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = tmp_path(path);
    let io = |e: std::io::Error| StoreError::io(&tmp, e);
    std::fs::write(&tmp, bytes).map_err(io)?;
    let file = std::fs::File::open(&tmp).map_err(io)?;
    file.sync_all().map_err(io)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| StoreError::io(path, e))?;
    sync_dir(path)
}

/// Makes a rename over, or an unlink of, `path` durable by fsyncing
/// the directory that holds it: until the directory entry reaches the
/// disk, a power loss can undo the rename or resurrect the file. A
/// no-op off Unix, where directories cannot be opened for syncing.
pub fn sync_dir(path: &Path) -> Result<(), StoreError> {
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let dir = dir.unwrap_or(Path::new("."));
        std::fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| StoreError::Io {
                path: dir.to_path_buf(),
                error: e.to_string(),
            })?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// A process-unique temp sibling of `path`
/// (`corpus.snap` → `corpus.snap.1234.7.tmp`): the pid separates
/// processes, the sequence number separates threads within one.
pub fn tmp_path(path: &Path) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut name = path.as_os_str().to_owned();
    name.push(format!(".{}.{}.tmp", std::process::id(), seq));
    PathBuf::from(name)
}

/// A bounds-checked reader over untrusted payload bytes. Every accessor
/// returns [`StoreError::Truncated`] instead of slicing past the end,
/// and length prefixes are validated against the remaining input before
/// any allocation — a forged 2⁶⁰-element count cannot trigger an OOM.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The current read position from the start of the buffer — span
    /// builders record it just before a `take` to address the taken
    /// bytes later.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether the input is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, StoreError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes taken")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, StoreError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes taken")))
    }

    /// A `u64` length prefix validated to fit both `usize` and the
    /// remaining input (each counted item occupies ≥ `min_item_bytes`).
    pub fn len_prefix(
        &mut self,
        min_item_bytes: usize,
        context: &'static str,
    ) -> Result<usize, StoreError> {
        let n = self.u64(context)?;
        let n = usize::try_from(n)
            .map_err(|_| StoreError::Corrupt(format!("{context}: count overflows usize")))?;
        if n.checked_mul(min_item_bytes.max(1))
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(StoreError::Corrupt(format!(
                "{context}: count {n} exceeds the remaining input"
            )));
        }
        Ok(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self, context: &'static str) -> Result<String, StoreError> {
        let len = self.len_prefix(1, context)?;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("{context}: invalid UTF-8")))
    }
}

/// Append-side primitives mirroring [`Cursor`].
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_publishes_and_sync_dir_types_its_failures() {
        let dir = std::env::temp_dir().join(format!("teda_format_sync_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("published.bin");
        write_atomic(&path, b"payload").expect("write + rename + dir sync");
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        sync_dir(&path).expect("syncing an existing directory");
        #[cfg(unix)]
        assert!(matches!(
            sync_dir(&dir.join("missing").join("file")),
            Err(StoreError::Io { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_table_driven(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_table_driven(b""), 0);
    }

    #[test]
    fn out_of_range_section_span_is_corrupt_not_panic() {
        // `RawSection` is a public type: a span forged (or stale) past
        // the container end must come back as a typed error. This used
        // to be a slice-index panic.
        let bytes = encode_container(7, &[(1, vec![0xAA; 16])]);
        let bogus = RawSection {
            tag: 1,
            span: bytes.len() - 4..bytes.len() + 4,
            crc: 0,
        };
        match verify_section(&bytes, &bogus) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("exceeds container length"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Inverted start > end degenerates the same way. (The reversed
        // range is the malformed input under test, not an iteration.)
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = RawSection {
            tag: 1,
            span: 8..4,
            crc: 0,
        };
        assert!(matches!(
            verify_section(&bytes, &inverted),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn crc32_agrees_across_the_chunk_boundary() {
        // Lengths straddling the 8-byte fold: 0..=7 run entirely in the
        // tail loop, 8 is one clean fold, 9..=23 mix folds and tail.
        let data: Vec<u8> = (0..=255u8).cycle().take(64).collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_table_driven(&data[..len]),
                "len {len}"
            );
        }
    }

    proptest::proptest! {
        /// The slice-by-8 fast path is bit-identical to the reference
        /// byte-at-a-time implementation on arbitrary bytes.
        #[test]
        fn slice_by_8_is_bit_identical_to_reference(
            data in proptest::collection::vec(0u8..=255, 0..300),
        ) {
            proptest::prop_assert_eq!(crc32(&data), crc32_table_driven(&data));
        }
    }

    #[test]
    fn container_round_trips_in_order_with_duplicate_tags() {
        let sections = vec![(7u32, vec![1, 2, 3]), (9, vec![]), (7, vec![4])];
        let bytes = encode_container(KIND_DELTA, &sections);
        let decoded = decode_container(&bytes, KIND_DELTA).expect("own bytes are valid");
        assert_eq!(
            decoded,
            vec![(7u32, &[1u8, 2, 3][..]), (9, &[][..]), (7, &[4][..])]
        );
    }

    #[test]
    fn header_violations_are_typed() {
        let bytes = encode_container(KIND_CORPUS, &[(1, vec![42])]);

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            decode_container(&bad, KIND_CORPUS),
            Err(StoreError::BadMagic)
        );

        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(
            decode_container(&bad, KIND_CORPUS),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));

        assert!(matches!(
            decode_container(&bytes, KIND_CACHE),
            Err(StoreError::WrongKind {
                found: KIND_CORPUS,
                expected: KIND_CACHE
            })
        ));
    }

    #[test]
    fn flipped_payload_bits_fail_the_checksum() {
        let mut bytes = encode_container(KIND_CORPUS, &[(3, vec![10, 20, 30])]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert_eq!(
            decode_container(&bytes, KIND_CORPUS),
            Err(StoreError::ChecksumMismatch { section: 3 })
        );
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = encode_container(KIND_CORPUS, &[(1, vec![5; 16]), (2, vec![6; 8])]);
        for cut in 0..bytes.len() {
            let err = decode_container(&bytes[..cut], KIND_CORPUS)
                .expect_err("truncated container must not decode");
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. }
                        | StoreError::BadMagic
                        | StoreError::Corrupt(_)
                        | StoreError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            decode_container(&long, KIND_CORPUS),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn section_lengths_past_the_end_are_typed_corrupt() {
        let bytes = encode_container(KIND_CORPUS, &[(1, vec![7; 32])]);

        // Forge the first section's length field (header is 20 bytes,
        // then tag u32 at 20..24, len u64 at 24..32) to point far past
        // the buffer.
        let mut forged = bytes.clone();
        forged[24..32].copy_from_slice(&(1u64 << 40).to_le_bytes());
        match decode_container(&forged, KIND_CORPUS) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("points past"), "got {msg:?}");
            }
            other => panic!("forged length must be Corrupt, got {other:?}"),
        }

        // Truncation mid-payload leaves an honest length with too few
        // bytes behind it: the same typed shape, never a panic.
        let cut = &bytes[..20 + 16 + 16];
        match decode_container(cut, KIND_CORPUS) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("points past"), "got {msg:?}");
            }
            other => panic!("mid-section truncation must be Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn deferred_parse_skips_payload_crcs_until_verify() {
        let mut bytes = encode_container(KIND_CORPUS, &[(1, vec![9; 24]), (2, vec![8; 8])]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // rot inside section 2's payload
        let raw = decode_container_deferred(&bytes, KIND_CORPUS)
            .expect("structure parse must not touch payload bytes");
        assert_eq!(raw.len(), 2);
        assert_eq!(raw[0].tag, 1);
        verify_section(&bytes, &raw[0]).expect("untouched section passes");
        assert_eq!(
            verify_section(&bytes, &raw[1]),
            Err(StoreError::ChecksumMismatch { section: 2 })
        );
    }

    #[test]
    fn forged_length_prefixes_cannot_allocate_unbounded() {
        let mut payload = Vec::new();
        put_u64(&mut payload, u64::MAX); // count: 2^64 - 1 strings
        let mut cur = Cursor::new(&payload);
        assert!(matches!(
            cur.len_prefix(1, "strings"),
            Err(StoreError::Corrupt(_))
        ));
    }
}
