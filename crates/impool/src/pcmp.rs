//! `PCMP` section payload: the persisted form of a compressed pool.
//!
//! Layout (all fixed-width integers little-endian):
//!
//! ```text
//! magic            4B   b"IMCP"
//! codec version    u32  (= PCMP_CODEC_VERSION)
//! layout hint      u8   1 = compressed, 2 = tiered
//! block size       u32  ids per block (= codec::BLOCK_IDS)
//! num_vertices     u64
//! pool_size        u64
//! has_traces       u8   0 | 1
//! postings segment
//! [traces segment]      iff has_traces
//! checksum         u64  fnv1a64 over every preceding byte
//!
//! segment := dir_len:u64  offsets:u32[dir_len]
//!            skip_lists:u32  { list:u32 blocks:u32 (first:u32 off:u32)[blocks] }*
//!            data_len:u64  data:u8[data_len]
//! ```
//!
//! The data region is the delta-varint blocked encoding of
//! [`crate::codec`]; the directory and skip headers are persisted so a
//! tiered loader keeps them resident while leaving the data region cold in
//! the file. Decoding validates *everything* eagerly — checksum, directory
//! monotonicity, per-list strict monotonicity and id bounds, exact byte
//! lengths, and skip-header agreement with the data — so scans never have
//! to re-check and corruption is always rejected typed at load time.

use crate::codec::{read_varint, PoolCodecError, SkipEntry, BLOCK_IDS};
use crate::packed::{PackedPool, Region, SegmentStore};
use crate::PoolLayout;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Magic prefix of a `PCMP` payload.
pub const PCMP_MAGIC: [u8; 4] = *b"IMCP";
/// Current (and only) payload codec version.
pub const PCMP_CODEC_VERSION: u32 = 1;

const HINT_COMPRESSED: u8 = 1;
const HINT_TIERED: u8 = 2;

/// 64-bit FNV-1a, the payload's integrity checksum.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn get_u8(bytes: &[u8], pos: &mut usize, context: &'static str) -> Result<u8, PoolCodecError> {
    let Some(&b) = bytes.get(*pos) else {
        return Err(PoolCodecError::Truncated { context });
    };
    *pos += 1;
    Ok(b)
}

fn get_u32(bytes: &[u8], pos: &mut usize, context: &'static str) -> Result<u32, PoolCodecError> {
    let end = *pos + 4;
    let Some(chunk) = bytes.get(*pos..end) else {
        return Err(PoolCodecError::Truncated { context });
    };
    *pos = end;
    Ok(u32::from_le_bytes(chunk.try_into().expect("4-byte slice")))
}

fn get_u64(bytes: &[u8], pos: &mut usize, context: &'static str) -> Result<u64, PoolCodecError> {
    let end = *pos + 8;
    let Some(chunk) = bytes.get(*pos..end) else {
        return Err(PoolCodecError::Truncated { context });
    };
    *pos = end;
    Ok(u64::from_le_bytes(chunk.try_into().expect("8-byte slice")))
}

/// Encode `pool` (overlay folded in) as a `PCMP` payload with `hint` as the
/// recorded layout. Deterministic: the bytes depend only on the logical
/// lists, never on mutation history or current residency.
pub(crate) fn encode(pool: &PackedPool, hint: PoolLayout) -> Vec<u8> {
    let hint_byte = match hint {
        PoolLayout::Tiered => HINT_TIERED,
        // A raw hint is meaningless in a PCMP section; store compressed.
        PoolLayout::Compressed | PoolLayout::Raw => HINT_COMPRESSED,
    };
    let mut out = Vec::new();
    out.extend_from_slice(&PCMP_MAGIC);
    put_u32(&mut out, PCMP_CODEC_VERSION);
    out.push(hint_byte);
    put_u32(&mut out, BLOCK_IDS as u32);
    put_u64(&mut out, pool.num_vertices as u64);
    put_u64(&mut out, pool.pool_size as u64);
    out.push(u8::from(pool.has_traces()));
    encode_segment(&mut out, &pool.postings);
    if let Some(traces) = &pool.traces {
        encode_segment(&mut out, traces);
    }
    let checksum = fnv1a64(&out);
    put_u64(&mut out, checksum);
    out
}

/// Encode one direction by materializing each list in one sweep of `store`
/// and re-encoding it fresh (canonicalizes any overlay).
fn encode_segment(out: &mut Vec<u8>, store: &SegmentStore) {
    let mut data = Vec::new();
    let mut offsets: Vec<u32> = Vec::with_capacity(store.count() + 1);
    offsets.push(0);
    let mut skip_dir: Vec<(u32, Vec<SkipEntry>)> = Vec::new();
    let mut scratch = Vec::new();
    store.sweep(|i, ids| {
        scratch.clear();
        ids.for_each(|id| scratch.push(id));
        let entries = crate::codec::encode_list(&scratch, &mut data);
        if entries.len() > 1 {
            skip_dir.push((i, entries));
        }
        offsets.push(u32::try_from(data.len()).expect("pool segment data exceeds 4 GiB"));
    });
    put_u64(out, offsets.len() as u64);
    for off in &offsets {
        put_u32(out, *off);
    }
    put_u32(out, skip_dir.len() as u32);
    for (list, entries) in &skip_dir {
        put_u32(out, *list);
        put_u32(out, entries.len() as u32);
        for e in entries {
            put_u32(out, e.first_id);
            put_u32(out, e.offset);
        }
    }
    put_u64(out, data.len() as u64);
    out.extend_from_slice(&data);
}

/// Fully validate one encoded list slice and derive its skip entries.
fn validate_list(slice: &[u8], bound: u32) -> Result<Vec<SkipEntry>, PoolCodecError> {
    let mut pos = 0;
    let len = read_varint(slice, &mut pos)? as usize;
    let mut skips = Vec::with_capacity(len.div_ceil(BLOCK_IDS));
    let mut remaining = len;
    let mut last: Option<u32> = None;
    while remaining > 0 {
        let take = remaining.min(BLOCK_IDS);
        let block_off = u32::try_from(pos).expect("list shorter than 4 GiB");
        let first = read_varint(slice, &mut pos)?;
        if let Some(prev) = last {
            if first <= prev {
                return Err(PoolCodecError::Corrupt {
                    reason: "block restart id not increasing",
                });
            }
        }
        skips.push(SkipEntry {
            first_id: first,
            offset: block_off,
        });
        let mut prev = first;
        for _ in 1..take {
            let gap = read_varint(slice, &mut pos)?;
            prev = prev.checked_add(gap).and_then(|x| x.checked_add(1)).ok_or(
                PoolCodecError::Corrupt {
                    reason: "delta overflows u32 id space",
                },
            )?;
        }
        last = Some(prev);
        remaining -= take;
    }
    if let Some(max) = last {
        if max >= bound {
            return Err(PoolCodecError::Corrupt {
                reason: "list id out of range",
            });
        }
    }
    if pos != slice.len() {
        return Err(PoolCodecError::Corrupt {
            reason: "list length disagrees with directory",
        });
    }
    Ok(skips)
}

struct DecodedSegment {
    store: SegmentStore,
    data_off: u64,
}

fn decode_segment(
    bytes: &[u8],
    pos: &mut usize,
    count: usize,
    bound: u32,
) -> Result<DecodedSegment, PoolCodecError> {
    let dir_len = get_u64(bytes, pos, "segment directory length")? as usize;
    if dir_len != count + 1 {
        return Err(PoolCodecError::Corrupt {
            reason: "segment directory length disagrees with header",
        });
    }
    let mut offsets = Vec::with_capacity(dir_len);
    for _ in 0..dir_len {
        offsets.push(get_u32(bytes, pos, "segment directory entry")?);
    }
    if offsets[0] != 0 {
        return Err(PoolCodecError::Corrupt {
            reason: "segment directory does not start at zero",
        });
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(PoolCodecError::Corrupt {
            reason: "segment directory not monotonic",
        });
    }
    let skip_lists = get_u32(bytes, pos, "skip directory length")? as usize;
    let mut skips: FxHashMap<u32, Box<[SkipEntry]>> = FxHashMap::default();
    for _ in 0..skip_lists {
        let list = get_u32(bytes, pos, "skip directory list id")?;
        if list as usize >= count || skips.contains_key(&list) {
            return Err(PoolCodecError::Corrupt {
                reason: "skip directory references invalid list",
            });
        }
        let blocks = get_u32(bytes, pos, "skip directory block count")? as usize;
        let mut entries = Vec::with_capacity(blocks.min(1 << 16));
        for _ in 0..blocks {
            let first_id = get_u32(bytes, pos, "skip entry first id")?;
            let offset = get_u32(bytes, pos, "skip entry offset")?;
            entries.push(SkipEntry { first_id, offset });
        }
        skips.insert(list, entries.into_boxed_slice());
    }
    let data_len = get_u64(bytes, pos, "segment data length")? as usize;
    if *offsets.last().expect("non-empty directory") as usize != data_len {
        return Err(PoolCodecError::Corrupt {
            reason: "segment directory end disagrees with data length",
        });
    }
    let data_off = *pos as u64;
    let Some(data) = bytes.get(*pos..*pos + data_len) else {
        return Err(PoolCodecError::Truncated {
            context: "segment data region",
        });
    };
    *pos += data_len;
    // Per-list validation: strict monotonicity, bounds, exact byte length,
    // and skip-header agreement with the data.
    for i in 0..count {
        let slice = &data[offsets[i] as usize..offsets[i + 1] as usize];
        let derived = validate_list(slice, bound)?;
        let stored = skips.get(&(i as u32));
        if derived.len() > 1 {
            match stored {
                Some(entries) if **entries == *derived => {}
                _ => {
                    return Err(PoolCodecError::Corrupt {
                        reason: "skip headers disagree with data",
                    })
                }
            }
        } else if stored.is_some() {
            return Err(PoolCodecError::Corrupt {
                reason: "skip headers present for single-block list",
            });
        }
    }
    Ok(DecodedSegment {
        store: SegmentStore {
            offsets: Arc::new(offsets),
            skips: Arc::new(skips),
            region: Region::Resident(Arc::new(data.to_vec())),
            overlay: FxHashMap::default(),
        },
        data_off,
    })
}

/// Decode (and fully validate) a `PCMP` payload into a resident
/// [`PackedPool`] plus the layout hint it was built with.
///
/// The returned pool remembers where each data region sits inside the
/// payload, so [`crate::Pool::attach_cold_file`] can demote it against the
/// artifact file the payload was read from.
pub fn decode_pcmp_payload(bytes: &[u8]) -> Result<(PackedPool, PoolLayout), PoolCodecError> {
    let mut pos = 0;
    let magic = bytes.get(..4).ok_or(PoolCodecError::Truncated {
        context: "PCMP magic",
    })?;
    if magic != PCMP_MAGIC {
        return Err(PoolCodecError::Corrupt {
            reason: "bad PCMP magic",
        });
    }
    pos += 4;
    let version = get_u32(bytes, &mut pos, "PCMP codec version")?;
    if version > PCMP_CODEC_VERSION {
        return Err(PoolCodecError::UnsupportedVersion {
            found: version,
            supported: PCMP_CODEC_VERSION,
        });
    }
    // Checksum next: everything after this is parsed from verified bytes.
    if bytes.len() < pos + 8 {
        return Err(PoolCodecError::Truncated {
            context: "PCMP checksum trailer",
        });
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(
        bytes[bytes.len() - 8..]
            .try_into()
            .expect("8-byte checksum"),
    );
    if fnv1a64(body) != stored {
        return Err(PoolCodecError::ChecksumMismatch);
    }
    let hint = match get_u8(body, &mut pos, "PCMP layout hint")? {
        HINT_COMPRESSED => PoolLayout::Compressed,
        HINT_TIERED => PoolLayout::Tiered,
        _ => {
            return Err(PoolCodecError::Corrupt {
                reason: "unknown PCMP layout hint",
            })
        }
    };
    let block = get_u32(body, &mut pos, "PCMP block size")?;
    if block as usize != BLOCK_IDS {
        return Err(PoolCodecError::Corrupt {
            reason: "unsupported PCMP block size",
        });
    }
    let num_vertices = get_u64(body, &mut pos, "PCMP vertex count")?;
    let pool_size = get_u64(body, &mut pos, "PCMP pool size")?;
    if num_vertices >= u64::from(u32::MAX) || pool_size >= u64::from(u32::MAX) {
        return Err(PoolCodecError::Corrupt {
            reason: "PCMP dimensions exceed u32 id space",
        });
    }
    let num_vertices = num_vertices as usize;
    let pool_size = pool_size as usize;
    let has_traces = match get_u8(body, &mut pos, "PCMP trace flag")? {
        0 => false,
        1 => true,
        _ => {
            return Err(PoolCodecError::Corrupt {
                reason: "invalid PCMP trace flag",
            })
        }
    };
    let postings = decode_segment(body, &mut pos, num_vertices, pool_size as u32)?;
    let traces = if has_traces {
        Some(decode_segment(
            body,
            &mut pos,
            pool_size,
            num_vertices as u32,
        )?)
    } else {
        None
    };
    if pos != body.len() {
        return Err(PoolCodecError::Corrupt {
            reason: "trailing bytes in PCMP payload",
        });
    }
    let (trace_store, traces_data_off) = match traces {
        Some(seg) => (Some(seg.store), Some(seg.data_off)),
        None => (None, None),
    };
    Ok((
        PackedPool {
            num_vertices,
            pool_size,
            postings: postings.store,
            traces: trace_store,
            postings_data_off: Some(postings.data_off),
            traces_data_off,
        },
        hint,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;

    fn sample_pool() -> Pool {
        let postings = vec![
            (0..300u32).map(|i| i * 2).collect(),
            vec![1, 599],
            vec![],
            (0..600).collect(),
        ];
        let mut pool = Pool::raw(4, 600, postings, None).convert(PoolLayout::Compressed);
        pool.build_traces();
        pool
    }

    #[test]
    fn payload_round_trips() {
        let pool = sample_pool();
        let payload = pool.encode_pcmp_payload(PoolLayout::Tiered);
        let (decoded, hint) = decode_pcmp_payload(&payload).expect("round trip");
        assert_eq!(hint, PoolLayout::Tiered);
        assert_eq!(decoded.num_vertices, 4);
        assert_eq!(decoded.pool_size, 600);
        for v in 0..4u32 {
            assert_eq!(decoded.postings(v), pool.postings(v));
        }
        for s in 0..600u32 {
            assert_eq!(decoded.trace(s), pool.trace(s));
        }
    }

    #[test]
    fn encode_is_deterministic_and_history_free() {
        let pool = sample_pool();
        let mut mutated = pool.clone();
        // Dirty a list, then put it back: bytes must equal the original.
        let trace1 = mutated.trace(1);
        mutated.replace_set(1, &trace1, &[0, 2]);
        mutated.replace_set(1, &[0, 2], &trace1);
        assert_eq!(
            pool.encode_pcmp_payload(PoolLayout::Compressed),
            mutated.encode_pcmp_payload(PoolLayout::Compressed)
        );
    }

    #[test]
    fn every_truncation_is_rejected_typed() {
        let payload = sample_pool().encode_pcmp_payload(PoolLayout::Compressed);
        // Sampled cuts keep this O(payload) instead of O(payload^2).
        for cut in (0..payload.len()).step_by(7).chain([payload.len() - 1]) {
            let err = decode_pcmp_payload(&payload[..cut]).expect_err("truncation must fail");
            assert!(
                matches!(
                    err,
                    PoolCodecError::Truncated { .. }
                        | PoolCodecError::ChecksumMismatch
                        | PoolCodecError::Corrupt { .. }
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let payload = sample_pool().encode_pcmp_payload(PoolLayout::Compressed);
        for at in (0..payload.len()).step_by(11) {
            let mut corrupted = payload.clone();
            corrupted[at] ^= 0x40;
            assert!(
                decode_pcmp_payload(&corrupted).is_err(),
                "bit flip at {at} accepted"
            );
        }
    }

    #[test]
    fn future_version_is_rejected_typed() {
        let mut payload = sample_pool().encode_pcmp_payload(PoolLayout::Compressed);
        payload[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = decode_pcmp_payload(&payload).expect_err("future version must fail");
        assert_eq!(
            err,
            PoolCodecError::UnsupportedVersion {
                found: 99,
                supported: PCMP_CODEC_VERSION
            }
        );
    }

    #[test]
    fn id_out_of_bounds_is_rejected() {
        // Posting id 600 is in range at pool_size 601, out of range at 600.
        let postings = vec![vec![600u32]];
        let bad = PackedPool::from_lists(1, 601, &postings, None);
        let mut payload = encode(&bad, PoolLayout::Compressed);
        assert!(decode_pcmp_payload(&payload).is_ok());
        // Splice the smaller pool_size into the header and re-checksum.
        payload[21..29].copy_from_slice(&600u64.to_le_bytes());
        let body_len = payload.len() - 8;
        let sum = fnv1a64(&payload[..body_len]);
        payload[body_len..].copy_from_slice(&sum.to_le_bytes());
        let err = decode_pcmp_payload(&payload).expect_err("out-of-range id must fail");
        assert_eq!(
            err,
            PoolCodecError::Corrupt {
                reason: "list id out of range"
            }
        );
    }

    #[test]
    fn tiered_attach_after_decode_matches_resident() {
        let pool = sample_pool();
        let payload = pool.encode_pcmp_payload(PoolLayout::Tiered);
        let path = std::env::temp_dir().join(format!(
            "impool-pcmp-test-{}-{:p}",
            std::process::id(),
            &payload
        ));
        let artifact_prefix = 37u64; // pretend the payload sits mid-artifact
        let mut file_bytes = vec![0x55u8; artifact_prefix as usize];
        file_bytes.extend_from_slice(&payload);
        std::fs::write(&path, &file_bytes).expect("write artifact");
        let (decoded, _) = decode_pcmp_payload(&payload).expect("decode");
        let mut tiered = Pool::Tiered(decoded);
        let file = std::fs::File::open(&path).expect("open artifact");
        tiered.attach_cold_file(
            Arc::new(file),
            artifact_prefix,
            crate::TieredConfig { hot_list_bytes: 64 },
        );
        for v in 0..4u32 {
            assert_eq!(tiered.postings(v), pool.postings(v), "vertex {v}");
        }
        for s in 0..600u32 {
            assert_eq!(tiered.trace(s), pool.trace(s), "set {s}");
        }
        std::fs::remove_file(&path).ok();
    }
}
