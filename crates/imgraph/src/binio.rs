//! Compact binary on-disk format for graphs and derived artifacts.
//!
//! The plain-text edge lists of [`crate::io`] are convenient for interchange
//! but far too slow for a serving path that must reload a prebuilt index in
//! milliseconds. This module provides the binary framing every persisted
//! artifact in the workspace shares, plus the codec for [`InfluenceGraph`]:
//!
//! ```text
//! magic (4 bytes) | version (u32 LE) | section* | checksum (u64 LE)
//! section := tag (4 bytes) | payload length (u64 LE) | payload bytes
//! ```
//!
//! The trailing checksum is FNV-1a 64 over every preceding byte (magic and
//! version included), so any truncation or single-byte corruption anywhere in
//! the file is rejected with a typed [`BinError`] before any payload is
//! interpreted. All integers are little-endian; floats are IEEE-754 bit
//! patterns, so round-trips are byte-identical.

use crate::{DiGraph, Edge, InfluenceGraph};

/// Errors produced while encoding or decoding binary artifacts.
#[derive(Debug)]
pub enum BinError {
    /// Underlying I/O failure (file-level save/load helpers).
    Io(std::io::Error),
    /// The leading magic bytes did not match the expected format.
    BadMagic {
        /// The magic the caller expected.
        expected: [u8; 4],
        /// The bytes actually found (zero-padded if the input was short).
        found: [u8; 4],
    },
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// Version stored in the artifact.
        found: u32,
        /// Highest version this build can decode.
        supported: u32,
    },
    /// The input ended before a declared length was satisfied.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The trailing checksum did not match the content.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum computed over the content.
        computed: u64,
    },
    /// Structurally valid framing carrying semantically invalid content.
    Corrupt(String),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Io(e) => write!(f, "I/O error: {e}"),
            BinError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            BinError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported version {found} (this build reads <= {supported})"
                )
            }
            BinError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, have {available}"
                )
            }
            BinError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            BinError::Corrupt(reason) => write!(f, "corrupt artifact: {reason}"),
        }
    }
}

impl std::error::Error for BinError {}

impl From<std::io::Error> for BinError {
    fn from(e: std::io::Error) -> Self {
        BinError::Io(e)
    }
}

/// Section tag for a serialized mutation log ([`crate::delta::DeltaLog`]),
/// shared by the standalone log artifact and the `imserve` index artifact so
/// every persisted delta log is recognizable by the same four bytes.
pub const DELTA_TAG: [u8; 4] = *b"DLTA";

/// Section tag for a compaction watermark: the epoch a snapshot was folded at
/// (see [`crate::delta::GraphSnapshot`]). Shared by the standalone snapshot
/// artifact and version-3 `imserve` index artifacts so every epoch stamp is
/// recognizable by the same four bytes.
pub const SNAPSHOT_TAG: [u8; 4] = *b"SNAP";

/// FNV-1a 64-bit hash of `bytes` (the format's integrity checksum). The one
/// copy in the workspace: `impool`'s `PCMP` payload, a section of the index
/// artifact, checksums its body with it too.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Payload encoding helpers
// ---------------------------------------------------------------------------

/// Append a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Append a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern in little-endian order.
pub fn put_f64(buf: &mut Vec<u8>, x: f64) {
    buf.extend_from_slice(&x.to_bits().to_le_bytes());
}

/// Append a length-prefixed `f64` slice.
pub fn put_f64_slice(buf: &mut Vec<u8>, xs: &[f64]) {
    put_u64(buf, xs.len() as u64);
    for &x in xs {
        put_f64(buf, x);
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds one framed artifact: header, tagged sections, trailing checksum.
#[derive(Debug)]
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    /// Start an artifact with the given magic and version.
    #[must_use]
    pub fn new(magic: [u8; 4], version: u32) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&magic);
        put_u32(&mut buf, version);
        Self { buf }
    }

    /// Append one tagged, length-prefixed section.
    pub fn section(&mut self, tag: [u8; 4], payload: &[u8]) {
        self.buf.extend_from_slice(&tag);
        put_u64(&mut self.buf, payload.len() as u64);
        self.buf.extend_from_slice(payload);
    }

    /// Finish the artifact: append the checksum and return the bytes.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let checksum = fnv1a64(&self.buf);
        put_u64(&mut self.buf, checksum);
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Cursor over one payload's bytes with bounds-checked primitive reads.
#[derive(Debug, Clone, Copy)]
pub struct Payload<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Payload<'a> {
    /// Wrap raw payload bytes.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        let available = self.bytes.len() - self.pos;
        if n > available {
            return Err(BinError::Truncated {
                needed: n,
                available,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, BinError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read the length declared by `self.u64()` and validate it against the
    /// remaining bytes, guarding against lengths forged to exhaust memory.
    fn checked_len(&mut self, elem_size: usize) -> Result<usize, BinError> {
        let declared = self.u64()?;
        let available = self.bytes.len() - self.pos;
        let len = usize::try_from(declared).map_err(|_| BinError::Truncated {
            needed: usize::MAX,
            available,
        })?;
        match len.checked_mul(elem_size) {
            Some(total) if total <= available => Ok(len),
            _ => Err(BinError::Truncated {
                needed: len.saturating_mul(elem_size),
                available,
            }),
        }
    }

    /// Read a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self) -> Result<Vec<u32>, BinError> {
        let len = self.checked_len(4)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    /// Read a length-prefixed `f64` slice.
    pub fn f64_slice(&mut self) -> Result<Vec<f64>, BinError> {
        let len = self.checked_len(8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], BinError> {
        let len = self.checked_len(1)?;
        self.take(len)
    }

    /// Number of unread bytes.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// All unread bytes, consuming the payload (for nested artifacts whose
    /// length the section framing already established).
    #[must_use]
    pub fn rest(mut self) -> &'a [u8] {
        self.take(self.remaining()).expect("remaining bytes exist")
    }
}

/// Walks the sections of one framed artifact after verifying its integrity.
#[derive(Debug)]
pub struct BinReader<'a> {
    /// Content between the header and the checksum trailer.
    body: &'a [u8],
    pos: usize,
    /// Format version decoded from the header.
    version: u32,
}

impl<'a> BinReader<'a> {
    /// Verify magic, version and checksum, returning a section iterator.
    ///
    /// `supported_version` is the highest version this caller understands;
    /// older versions are accepted (sections are tagged, so decoders skip
    /// unknown tags).
    pub fn new(bytes: &'a [u8], magic: [u8; 4], supported_version: u32) -> Result<Self, BinError> {
        // Header (4 + 4) plus checksum trailer (8).
        if bytes.len() < 16 {
            return Err(BinError::Truncated {
                needed: 16,
                available: bytes.len(),
            });
        }
        let mut found = [0u8; 4];
        found.copy_from_slice(&bytes[..4]);
        if found != magic {
            return Err(BinError::BadMagic {
                expected: magic,
                found,
            });
        }
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        let computed = fnv1a64(&bytes[..bytes.len() - 8]);
        if stored != computed {
            return Err(BinError::ChecksumMismatch { stored, computed });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version > supported_version {
            return Err(BinError::UnsupportedVersion {
                found: version,
                supported: supported_version,
            });
        }
        Ok(Self {
            body: &bytes[8..bytes.len() - 8],
            pos: 0,
            version,
        })
    }

    /// The format version stored in the artifact header (already validated
    /// to be `<= supported_version`). Lets decoders gate on *older* versions
    /// without re-parsing the header layout themselves.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The next `(tag, payload)` section, or `None` when all are consumed.
    pub fn next_section(&mut self) -> Result<Option<([u8; 4], Payload<'a>)>, BinError> {
        if self.pos == self.body.len() {
            return Ok(None);
        }
        let available = self.body.len() - self.pos;
        if available < 12 {
            return Err(BinError::Truncated {
                needed: 12,
                available,
            });
        }
        let mut tag = [0u8; 4];
        tag.copy_from_slice(&self.body[self.pos..self.pos + 4]);
        let len = u64::from_le_bytes(
            self.body[self.pos + 4..self.pos + 12]
                .try_into()
                .expect("8 bytes"),
        );
        let len = usize::try_from(len).map_err(|_| BinError::Truncated {
            needed: usize::MAX,
            available,
        })?;
        if available - 12 < len {
            return Err(BinError::Truncated {
                needed: len + 12,
                available,
            });
        }
        let payload = Payload::new(&self.body[self.pos + 12..self.pos + 12 + len]);
        self.pos += 12 + len;
        Ok(Some((tag, payload)))
    }

    /// Collect all sections, erroring on malformed framing.
    pub fn sections(mut self) -> Result<Vec<([u8; 4], Payload<'a>)>, BinError> {
        let mut out = Vec::new();
        while let Some(section) = self.next_section()? {
            out.push(section);
        }
        Ok(out)
    }
}

/// Find the payload of a required section by tag.
pub fn require_section<'a>(
    sections: &[([u8; 4], Payload<'a>)],
    tag: [u8; 4],
) -> Result<Payload<'a>, BinError> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, p)| *p)
        .ok_or_else(|| {
            BinError::Corrupt(format!(
                "missing section {:?}",
                String::from_utf8_lossy(&tag)
            ))
        })
}

// ---------------------------------------------------------------------------
// InfluenceGraph codec
// ---------------------------------------------------------------------------

/// Magic bytes of a serialized [`InfluenceGraph`].
pub const GRAPH_MAGIC: [u8; 4] = *b"IMGB";
/// Current [`InfluenceGraph`] format version.
pub const GRAPH_VERSION: u32 = 1;

const HEAD_TAG: [u8; 4] = *b"HEAD";
const EDGE_TAG: [u8; 4] = *b"EDGE";
const PROB_TAG: [u8; 4] = *b"PROB";

/// Serialize an [`InfluenceGraph`] to the binary format.
///
/// Edges are stored in insertion (edge-id) order, so probabilities — which are
/// indexed by edge id — follow positionally and the CSR rebuilt on load is
/// structurally identical to the original.
#[must_use]
pub fn influence_graph_to_bytes(ig: &InfluenceGraph) -> Vec<u8> {
    let mut w = BinWriter::new(GRAPH_MAGIC, GRAPH_VERSION);

    let mut head = Vec::with_capacity(16);
    put_u64(&mut head, ig.num_vertices() as u64);
    put_u64(&mut head, ig.num_edges() as u64);
    w.section(HEAD_TAG, &head);

    let edges = ig.graph().edges_in_insertion_order();
    let mut flat = Vec::with_capacity(edges.len() * 8);
    for (u, v) in edges {
        put_u32(&mut flat, u);
        put_u32(&mut flat, v);
    }
    w.section(EDGE_TAG, &flat);

    let mut probs = Vec::with_capacity(ig.num_edges() * 8 + 8);
    put_f64_slice(&mut probs, ig.probabilities());
    w.section(PROB_TAG, &probs);

    w.finish()
}

/// Deserialize an [`InfluenceGraph`] written by [`influence_graph_to_bytes`].
///
/// All invariants the in-memory constructors assert (endpoint ranges, edge
/// count consistency, probabilities in `(0, 1]`) are re-validated here and
/// reported as [`BinError::Corrupt`] instead of panicking, so a damaged file
/// that happens to pass the checksum still cannot crash a server.
pub fn influence_graph_from_bytes(bytes: &[u8]) -> Result<InfluenceGraph, BinError> {
    let sections = BinReader::new(bytes, GRAPH_MAGIC, GRAPH_VERSION)?.sections()?;

    let mut head = require_section(&sections, HEAD_TAG)?;
    let n = usize::try_from(head.u64()?)
        .map_err(|_| BinError::Corrupt("vertex count exceeds usize".into()))?;
    let m = usize::try_from(head.u64()?)
        .map_err(|_| BinError::Corrupt("edge count exceeds usize".into()))?;

    let mut edge_payload = require_section(&sections, EDGE_TAG)?;
    if edge_payload.remaining()
        != m.checked_mul(8)
            .ok_or_else(|| BinError::Corrupt("edge section size overflows".into()))?
    {
        return Err(BinError::Corrupt(format!(
            "edge section holds {} bytes, expected {}",
            edge_payload.remaining(),
            m * 8
        )));
    }
    let mut edges: Vec<Edge> = Vec::with_capacity(m);
    for _ in 0..m {
        let u = edge_payload.u32()?;
        let v = edge_payload.u32()?;
        if u as usize >= n || v as usize >= n {
            return Err(BinError::Corrupt(format!(
                "edge ({u}, {v}) out of range for {n} vertices"
            )));
        }
        edges.push((u, v));
    }

    let mut prob_payload = require_section(&sections, PROB_TAG)?;
    let probabilities = prob_payload.f64_slice()?;
    if probabilities.len() != m {
        return Err(BinError::Corrupt(format!(
            "{} probabilities for {m} edges",
            probabilities.len()
        )));
    }
    for (i, &p) in probabilities.iter().enumerate() {
        if !crate::is_valid_probability(p) {
            return Err(BinError::Corrupt(format!(
                "edge {i} has invalid probability {p}"
            )));
        }
    }

    Ok(InfluenceGraph::new(
        DiGraph::from_edges(n, &edges),
        probabilities,
    ))
}

/// Write an [`InfluenceGraph`] to a file in the binary format.
pub fn save_influence_graph(
    ig: &InfluenceGraph,
    path: impl AsRef<std::path::Path>,
) -> Result<(), BinError> {
    std::fs::write(path, influence_graph_to_bytes(ig))?;
    Ok(())
}

/// Read an [`InfluenceGraph`] from a file written by [`save_influence_graph`].
pub fn load_influence_graph(path: impl AsRef<std::path::Path>) -> Result<InfluenceGraph, BinError> {
    influence_graph_from_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> InfluenceGraph {
        let g = DiGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        InfluenceGraph::new(g, vec![0.5, 0.25, 1.0, 0.125, 0.0625])
    }

    #[test]
    fn graph_round_trip_is_byte_identical() {
        let ig = sample_graph();
        let bytes = influence_graph_to_bytes(&ig);
        let back = influence_graph_from_bytes(&bytes).unwrap();
        assert_eq!(back.num_vertices(), ig.num_vertices());
        assert_eq!(back.probabilities(), ig.probabilities());
        assert_eq!(
            back.graph().edges_in_insertion_order(),
            ig.graph().edges_in_insertion_order()
        );
        assert_eq!(influence_graph_to_bytes(&back), bytes);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = influence_graph_to_bytes(&sample_graph());
        for cut in 0..bytes.len() {
            let err = influence_graph_from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = influence_graph_to_bytes(&sample_graph());
        for i in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[i] ^= 0x40;
            assert!(
                influence_graph_from_bytes(&damaged).is_err(),
                "flip at byte {i} must fail"
            );
        }
    }

    #[test]
    fn wrong_magic_and_future_version_are_typed_errors() {
        let bytes = influence_graph_to_bytes(&sample_graph());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        // Re-stamp the checksum so the magic check is what fires.
        let len = wrong_magic.len();
        let sum = fnv1a64(&wrong_magic[..len - 8]);
        wrong_magic[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            influence_graph_from_bytes(&wrong_magic),
            Err(BinError::BadMagic { .. })
        ));

        let mut future = bytes;
        future[4..8].copy_from_slice(&99u32.to_le_bytes());
        let len = future.len();
        let sum = fnv1a64(&future[..len - 8]);
        future[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            influence_graph_from_bytes(&future),
            Err(BinError::UnsupportedVersion {
                found: 99,
                supported: GRAPH_VERSION
            })
        ));
    }

    #[test]
    fn invalid_probability_is_corrupt_not_panic() {
        let ig = sample_graph();
        // Hand-build an artifact with a probability of 0.0.
        let mut w = BinWriter::new(GRAPH_MAGIC, GRAPH_VERSION);
        let mut head = Vec::new();
        put_u64(&mut head, ig.num_vertices() as u64);
        put_u64(&mut head, 1);
        w.section(HEAD_TAG, &head);
        let mut flat = Vec::new();
        put_u32(&mut flat, 0);
        put_u32(&mut flat, 1);
        w.section(EDGE_TAG, &flat);
        let mut probs = Vec::new();
        put_f64_slice(&mut probs, &[0.0]);
        w.section(PROB_TAG, &probs);
        assert!(matches!(
            influence_graph_from_bytes(&w.finish()),
            Err(BinError::Corrupt(_))
        ));
    }

    #[test]
    fn file_round_trip() {
        let ig = sample_graph();
        let path = std::env::temp_dir().join("imgraph_binio_test.imgb");
        save_influence_graph(&ig, &path).unwrap();
        let back = load_influence_graph(&path).unwrap();
        assert_eq!(back.probabilities(), ig.probabilities());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn payload_reads_are_bounds_checked() {
        let mut p = Payload::new(&[1, 2, 3]);
        assert!(matches!(p.u32(), Err(BinError::Truncated { .. })));
        let mut q = Payload::new(&[0xFF; 8]);
        // A forged length prefix far beyond the available bytes must not
        // trigger a huge allocation.
        assert!(matches!(q.u32_slice(), Err(BinError::Truncated { .. })));
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
