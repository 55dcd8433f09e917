//! The mutation write-ahead log: crash durability between index saves.
//!
//! A served index only touches disk when someone exports it, so before this
//! module every mutation accepted after the last save died with the process.
//! `serve --wal <path>` closes that gap: the engine appends every accepted
//! mutation batch to a sidecar `DLTA` file *before* answering, and replays
//! the pending tail on startup.
//!
//! File layout — an identity header naming the index the log belongs to,
//! then a sequence of length-prefixed records, each wrapping the standalone
//! checksummed `IMDL` artifact [`DeltaLog`] already knows how to encode:
//!
//! ```text
//! header  := "IMWL" | u32 version | u64 base_seed | u32 len | identity(len)
//! record  := u32 len | payload(len)
//! payload := u64 epoch_before | u64 graph_hash_before
//!          | DeltaLog::to_bytes()                      ("IMDL", checksummed)
//! ```
//!
//! The header makes pointing the wrong index at an existing WAL (a reused
//! unit file, a copy-pasted path) a loud startup error instead of a silent
//! replay of foreign mutations whose epochs happen to line up. Each record
//! additionally carries the lineage fingerprint
//! ([`imgraph::lineage::fingerprint`]) of the graph it was applied *to*, so
//! even two indexes with identical identity and lined-up epochs but
//! different graph content (e.g. one rebuilt with a different `--deltas`
//! script) cannot replay each other's records — the engine checks the
//! fingerprint against its own graph before applying. The engine never
//! hashes the graph to stamp or check a record: the dynamic oracle maintains
//! the fingerprint row by row as deltas land, so both sides are O(1) reads.
//!
//! Version 2 is the first version whose `graph_hash_before` is that
//! maintainable row hash; version 1 stamped FNV-1a64 of the serialized
//! graph, which a v2 engine cannot reproduce. A v1 file is therefore
//! refused by version — not misreported as a foreign lineage — and there is
//! no v1 read path (no deployed logs exist).
//!
//! `epoch_before` is the engine epoch the batch was applied at, which makes
//! replay idempotent against index saves: records whose whole span is at or
//! below the loaded artifact's epoch are already folded into it and are
//! skipped; the first record *at* the artifact's epoch resumes replay; a
//! record *beyond* it means history is missing and recovery fails loudly
//! rather than serving a diverged index.
//!
//! Crash anatomy: an append interrupted mid-write leaves a truncated final
//! record. Recovery tolerates exactly that — the valid prefix is kept, the
//! torn tail is truncated away before new appends — while a record whose
//! inner `IMDL` checksum fails is *corruption*, not a crash artifact, and is
//! a hard error.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use imgraph::{DeltaLog, GraphDelta};

use crate::error::ServeError;

/// One appended mutation batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The engine epoch immediately before the batch was applied.
    pub epoch_before: u64,
    /// Lineage fingerprint ([`imgraph::lineage::fingerprint`]: the graph's
    /// rows, in the order traversals read them) of the influence graph the
    /// batch was applied to, at `epoch_before` — the lineage check replay
    /// and replication perform before applying this record.
    pub graph_hash_before: u64,
    /// The batch's deltas, in application order.
    pub deltas: Vec<GraphDelta>,
}

impl WalRecord {
    /// The engine epoch immediately after the batch.
    #[must_use]
    pub fn epoch_after(&self) -> u64 {
        self.epoch_before + self.deltas.len() as u64
    }

    /// Encode this record's payload — `u64 epoch_before | u64
    /// graph_hash_before | DeltaLog::to_bytes()` — exactly as it sits on
    /// disk after a record's length prefix. The replication stream ships
    /// the same payload behind the same `u32` length prefix, so a follower
    /// applies bytes bit-identical to what the leader fsynced.
    #[must_use]
    pub fn encode_payload(&self) -> Vec<u8> {
        let body = DeltaLog::from_deltas(self.deltas.clone()).to_bytes();
        let mut payload = Vec::with_capacity(16 + body.len());
        payload.extend_from_slice(&self.epoch_before.to_le_bytes());
        payload.extend_from_slice(&self.graph_hash_before.to_le_bytes());
        payload.extend_from_slice(&body);
        payload
    }

    /// Decode one record payload (the bytes behind a record's length
    /// prefix, on disk or on the replication stream). The inner `IMDL`
    /// checksum makes a corrupt payload a typed error, never a silently
    /// wrong batch.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ServeError> {
        if payload.len() < 16 {
            return Err(ServeError::Wal(format!(
                "record payload of {} bytes cannot hold an epoch + lineage header",
                payload.len()
            )));
        }
        let epoch_before = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let graph_hash_before = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
        let log = DeltaLog::from_bytes(&payload[16..])
            .map_err(|e| ServeError::Wal(format!("record is corrupt: {e}")))?;
        Ok(WalRecord {
            epoch_before,
            graph_hash_before,
            deltas: log.deltas().to_vec(),
        })
    }
}

/// What [`WriteAheadLog::recover`] found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// The valid records, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail discarded (non-zero after a crash mid-append).
    pub truncated_bytes: usize,
    /// The log, positioned for appending after the last valid record.
    pub log: WriteAheadLog,
}

/// An open write-ahead log, appending one record per accepted batch.
#[derive(Debug)]
pub struct WriteAheadLog {
    file: File,
    path: PathBuf,
}

/// Magic bytes opening a WAL file's identity header.
const WAL_MAGIC: [u8; 4] = *b"IMWL";
/// Current WAL header version (2: `graph_hash_before` is the maintainable
/// lineage fingerprint; see the module docs).
const WAL_VERSION: u32 = 2;

/// Build the identity header for an index. `identity` is the full identity
/// string the engine derives from its metadata (dataset, model, pool
/// dimensions, shard offset), so two indexes that differ in *any* of those
/// — including two shards of one layout — never accept each other's log.
/// Public because a WAL *tailer* (the replication leader loop) verifies the
/// same bytes before streaming records out of the file.
#[must_use]
pub fn encode_header(identity: &str, base_seed: u64) -> Vec<u8> {
    let id = identity.as_bytes();
    let mut header = Vec::with_capacity(20 + id.len());
    header.extend_from_slice(&WAL_MAGIC);
    header.extend_from_slice(&WAL_VERSION.to_le_bytes());
    header.extend_from_slice(&base_seed.to_le_bytes());
    header.extend_from_slice(&(id.len() as u32).to_le_bytes());
    header.extend_from_slice(id);
    header
}

/// The payload of the record framed at the start of `bytes` (a `u32` length
/// prefix, then that many bytes), or `None` while the frame is torn — how
/// recovery and the replication tailer both walk a log.
#[must_use]
pub(crate) fn framed_payload(bytes: &[u8]) -> Option<&[u8]> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().expect("4 bytes"));
    bytes[4..].get(..len as usize)
}

/// The header version of a WAL file written by another format version, if
/// `bytes` opens with a complete magic + version prefix naming one.
fn foreign_version(bytes: &[u8]) -> Option<u32> {
    let version = u32::from_le_bytes(bytes.get(4..8)?.try_into().expect("4 bytes"));
    (bytes[..4] == WAL_MAGIC && version != WAL_VERSION).then_some(version)
}

impl WriteAheadLog {
    /// Open (creating if absent) the log at `path` for the index identified
    /// by `identity`/`base_seed`, validate the identity header and every
    /// record, truncate any torn tail, and return the valid records plus
    /// the log positioned for appending.
    ///
    /// Fails on I/O errors, on a header of another format version (named in
    /// the error), on a header naming a *different* index (a WAL must never
    /// be replayed onto an index it was not recorded against),
    /// and on records whose inner `IMDL` artifact is corrupt (a failed
    /// checksum is not a crash artifact — see the module docs).
    pub fn recover(
        path: impl AsRef<Path>,
        identity: &str,
        base_seed: u64,
    ) -> Result<Recovery, ServeError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let expected_header = encode_header(identity, base_seed);
        // Header triage, byte-exact against the header *this* index would
        // write. A torn creation-time header is necessarily a strict prefix
        // of the expected bytes (only this index ever initializes its own
        // log, and no record can precede a complete header), so exactly
        // that case restarts the file. Anything else that is not the
        // expected header in full — wrong identity, corrupt length field,
        // bit rot — is a hard error: it may sit in front of acknowledged
        // records and must never be silently reinitialized.
        let header_len = if bytes.is_empty() {
            // Fresh log: stamp the identity before anything else.
            file.write_all(&expected_header)?;
            file.sync_data()?;
            expected_header.len()
        } else if bytes.len() < expected_header.len() && expected_header.starts_with(&bytes) {
            // Torn header from a crash mid-creation: start the file over.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&expected_header)?;
            file.sync_data()?;
            bytes.clear();
            expected_header.len()
        } else if bytes.len() >= expected_header.len()
            && bytes[..expected_header.len()] == expected_header[..]
        {
            expected_header.len()
        } else if let Some(version) = foreign_version(&bytes) {
            return Err(ServeError::Wal(format!(
                "WAL at {} is format version {version}; this build reads and writes version \
                 {WAL_VERSION} only (record lineage fingerprints are not comparable across \
                 versions) — export the index from the build that wrote the log, or remove the \
                 stale file",
                path.display()
            )));
        } else if bytes.len() >= 4 && bytes[..4] == WAL_MAGIC {
            return Err(ServeError::Wal(format!(
                "WAL at {} was recorded for a different index, or its header is corrupt \
                 (this index is {identity:?} seed {base_seed}); refusing to replay foreign \
                 mutations — point this index at its own WAL path or remove the stale file",
                path.display()
            )));
        } else {
            // Not a WAL at all: refuse to touch it.
            return Err(ServeError::Wal(format!(
                "{} is not a WAL file (bad magic)",
                path.display()
            )));
        };

        let mut records = Vec::new();
        let mut at = header_len.min(bytes.len());
        // A torn tail is a length prefix that outran the file.
        while let Some(payload) = framed_payload(&bytes[at..]) {
            let record = WalRecord::decode_payload(payload)
                .map_err(|e| ServeError::Wal(format!("record {}: {e}", records.len())))?;
            records.push(record);
            at += 4 + payload.len();
        }
        let truncated_bytes = bytes.len() - at;
        if truncated_bytes > 0 {
            // Drop the torn tail so the next append starts on a record
            // boundary.
            file.set_len(at as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Recovery {
            records,
            truncated_bytes,
            log: WriteAheadLog { file, path },
        })
    }

    /// Append one accepted batch — stamped with the epoch and the
    /// fingerprint of the graph it was applied to — flushing and syncing
    /// before returning so an acknowledged mutation survives a crash of
    /// this process. Returns the on-disk size of the appended record
    /// (length prefix included), for the caller's byte accounting.
    pub fn append(
        &mut self,
        epoch_before: u64,
        graph_hash_before: u64,
        deltas: &[GraphDelta],
    ) -> Result<u64, ServeError> {
        let payload = WalRecord {
            epoch_before,
            graph_hash_before,
            deltas: deltas.to_vec(),
        }
        .encode_payload();
        let mut record = Vec::with_capacity(4 + payload.len());
        record.extend_from_slice(
            &u32::try_from(payload.len())
                .map_err(|_| {
                    ServeError::Wal(format!(
                        "batch of {} deltas overflows a record",
                        deltas.len()
                    ))
                })?
                .to_le_bytes(),
        );
        record.extend_from_slice(&payload);
        self.file.write_all(&record)?;
        self.file.flush()?;
        self.file.sync_data()?;
        Ok(record.len() as u64)
    }

    /// The path this log appends to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("imserve_wal_{tag}_{}.dlta", std::process::id()))
    }

    fn sample_deltas() -> Vec<GraphDelta> {
        vec![
            GraphDelta::InsertEdge {
                source: 0,
                target: 33,
                probability: 0.5,
            },
            GraphDelta::DeleteEdge {
                source: 0,
                target: 1,
            },
        ]
    }

    #[test]
    fn append_then_recover_round_trips_records() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let recovery = WriteAheadLog::recover(&path, "Karate", 7).unwrap();
            assert!(recovery.records.is_empty());
            assert_eq!(recovery.truncated_bytes, 0);
            let mut log = recovery.log;
            log.append(0, 0xAB, &sample_deltas()).unwrap();
            log.append(
                2,
                0xCD,
                &[GraphDelta::SetProbability {
                    source: 2,
                    target: 3,
                    probability: 1.0,
                }],
            )
            .unwrap();
        }
        let recovery = WriteAheadLog::recover(&path, "Karate", 7).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.records.len(), 2);
        assert_eq!(recovery.records[0].epoch_before, 0);
        assert_eq!(recovery.records[0].graph_hash_before, 0xAB);
        assert_eq!(recovery.records[0].deltas, sample_deltas());
        assert_eq!(recovery.records[0].epoch_after(), 2);
        assert_eq!(recovery.records[1].epoch_before, 2);
        assert_eq!(recovery.records[1].graph_hash_before, 0xCD);
        assert_eq!(recovery.records[1].epoch_after(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_payloads_round_trip_through_the_codec() {
        let record = WalRecord {
            epoch_before: 5,
            graph_hash_before: 0xDEAD_BEEF,
            deltas: sample_deltas(),
        };
        let payload = record.encode_payload();
        let back = WalRecord::decode_payload(&payload).unwrap();
        assert_eq!(back, record);
        // Too short for the epoch + lineage header: typed error.
        assert!(WalRecord::decode_payload(&payload[..12]).is_err());
        // A flipped body byte fails the inner IMDL checksum.
        let mut corrupt = payload.clone();
        let mid = 16 + (corrupt.len() - 16) / 2;
        corrupt[mid] ^= 0x01;
        assert!(WalRecord::decode_payload(&corrupt).is_err());
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = WriteAheadLog::recover(&path, "Karate", 7).unwrap().log;
            log.append(0, 0xAB, &sample_deltas()).unwrap();
        }
        // Simulate a crash mid-append: a dangling half-record.
        let valid_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(&999u32.to_le_bytes()).unwrap();
            file.write_all(&[0xAB; 11]).unwrap();
        }
        let recovery = WriteAheadLog::recover(&path, "Karate", 7).unwrap();
        assert_eq!(recovery.records.len(), 1, "the valid prefix survives");
        assert_eq!(recovery.truncated_bytes, 15);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), valid_len);
        // Appending after recovery lands on a clean boundary.
        let mut log = recovery.log;
        log.append(2, 0xEF, &sample_deltas()[..1]).unwrap();
        let recovery = WriteAheadLog::recover(&path, "Karate", 7).unwrap();
        assert_eq!(recovery.records.len(), 2);
        assert_eq!(recovery.records[1].epoch_before, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_records_are_hard_errors() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = WriteAheadLog::recover(&path, "Karate", 7).unwrap().log;
            log.append(0, 0xAB, &sample_deltas()).unwrap();
        }
        // Flip a byte inside the first record's IMDL body (past the file
        // header, the record length prefix and the epoch stamp): checksum
        // failure, not a torn tail.
        let mut bytes = std::fs::read(&path).unwrap();
        let body_start = 20 + "Karate".len() + 4 + 16;
        let mid = body_start + (bytes.len() - body_start) / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = WriteAheadLog::recover(&path, "Karate", 7).unwrap_err();
        assert!(matches!(err, ServeError::Wal(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_old_version_log_is_refused_by_version() {
        let path = temp_path("version");
        let mut v1 = encode_header("Karate", 7);
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        // A v1 record would follow; the refusal must not depend on it.
        std::fs::write(&path, &v1).unwrap();
        let err = WriteAheadLog::recover(&path, "Karate", 7).unwrap_err();
        assert!(matches!(err, ServeError::Wal(_)), "{err}");
        let message = err.to_string();
        assert!(message.contains("format version 1"), "{message}");
        assert!(message.contains("version 2 only"), "{message}");
        assert!(!message.contains("different index"), "{message}");
        // Refused, not reinitialized: the file is untouched.
        assert_eq!(std::fs::read(&path).unwrap(), v1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_wal_identities_are_rejected() {
        let path = temp_path("identity");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = WriteAheadLog::recover(&path, "Karate", 7).unwrap().log;
            log.append(0, 0xAB, &sample_deltas()).unwrap();
        }
        // Same path, different index: wrong seed, wrong graph, or both.
        for (graph, seed) in [("Karate", 8u64), ("Physicians", 7), ("Ka", 7)] {
            let err = WriteAheadLog::recover(&path, graph, seed).unwrap_err();
            assert!(
                err.to_string().contains("different index"),
                "{graph}/{seed}: {err}"
            );
        }
        // The rightful owner still recovers everything.
        let recovery = WriteAheadLog::recover(&path, "Karate", 7).unwrap();
        assert_eq!(recovery.records.len(), 1);
        // A corrupt header length field in front of real records is a hard
        // error — never a silent reinitialization that would destroy them.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16] ^= 0x80; // id_len high bit: claims a header longer than the file
        std::fs::write(&path, &bytes).unwrap();
        let err = WriteAheadLog::recover(&path, "Karate", 7).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        // A non-WAL file is refused outright rather than reinitialized.
        std::fs::write(&path, b"definitely not a write-ahead log").unwrap();
        let err = WriteAheadLog::recover(&path, "Karate", 7).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        // A torn header (crash during creation) restarts the file.
        std::fs::write(&path, &encode_header("Karate", 7)[..9]).unwrap();
        let recovery = WriteAheadLog::recover(&path, "Karate", 7).unwrap();
        assert!(recovery.records.is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
