//! Property tests of the binary index format: serialize→deserialize is
//! byte-identical, and corrupted or truncated input is rejected with a typed
//! error — never a panic.

use im_core::sampler::Backend;
use imgraph::binio::BinError;
use imgraph::{DiGraph, InfluenceGraph};
use imserve::index::ShardInfo;
use imserve::IndexArtifact;
use proptest::prelude::*;

/// Strategy: a random influence graph over `2..=20` vertices.
fn arb_influence_graph() -> impl Strategy<Value = InfluenceGraph> {
    (2usize..20).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 1..60).prop_flat_map(move |edges| {
            let len = edges.len();
            (
                Just(n),
                Just(edges),
                proptest::collection::vec(0.05f64..1.0, len),
            )
                .prop_map(|(n, edges, probs)| {
                    InfluenceGraph::new(DiGraph::from_edges(n, &edges), probs)
                })
        })
    })
}

/// Strategy: a complete artifact with a small pool, in a random pool-store
/// layout (so the framing properties cover every layout hint the `PCMP`
/// section is stamped with).
fn arb_artifact() -> impl Strategy<Value = IndexArtifact> {
    (arb_influence_graph(), 1usize..200, 0u64..1000, 0usize..3).prop_map(
        |(graph, pool, seed, layout)| {
            let layout = [
                im_core::PoolLayout::Raw,
                im_core::PoolLayout::Compressed,
                im_core::PoolLayout::Tiered,
            ][layout];
            let mut artifact = IndexArtifact::build("prop-graph", "prop-model", graph, pool, seed);
            artifact.convert_pool_layout(layout);
            artifact
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// serialize → deserialize → serialize is byte-identical, and the decoded
    /// oracle answers every singleton query bit-identically.
    #[test]
    fn round_trip_is_byte_identical(artifact in arb_artifact()) {
        let bytes = artifact.to_bytes();
        let back = IndexArtifact::from_bytes(&bytes).expect("round trip");
        prop_assert_eq!(back.to_bytes(), bytes);
        prop_assert_eq!(&back.meta, &artifact.meta);
        let n = artifact.graph.num_vertices();
        prop_assert_eq!(back.graph.num_vertices(), n);
        prop_assert_eq!(back.graph.probabilities(), artifact.graph.probabilities());
        for v in 0..n as u32 {
            prop_assert_eq!(back.oracle.estimate(&[v]), artifact.oracle.estimate(&[v]));
        }
    }

    /// Any single flipped byte is rejected with an error, not a panic.
    #[test]
    fn corruption_is_rejected(artifact in arb_artifact(), position in 0usize..10_000, flip in 1u8..=255) {
        let bytes = artifact.to_bytes();
        let mut damaged = bytes.clone();
        let position = position % damaged.len();
        damaged[position] ^= flip;
        prop_assert!(IndexArtifact::from_bytes(&damaged).is_err());
    }

    /// Any strict prefix is rejected with an error, not a panic.
    #[test]
    fn truncation_is_rejected(artifact in arb_artifact(), cut in 0usize..10_000) {
        let bytes = artifact.to_bytes();
        let cut = cut % bytes.len();
        prop_assert!(IndexArtifact::from_bytes(&bytes[..cut]).is_err());
    }
}

#[test]
fn loading_cannot_resample_the_pool() {
    // The type-level guarantee: `from_bytes` receives bytes only — no graph
    // traversal context and no random generator exist in the load path, so a
    // reload can never redraw the pool. Pin the behavioural consequence:
    // loading twice (and loading the re-encoding) yields bit-identical
    // estimates for every seed set, with no sampling work observable.
    let graph = InfluenceGraph::new(
        DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
        vec![0.5; 6],
    );
    let built = IndexArtifact::build("ring", "uc0.5", graph, 4_000, 11);
    let bytes = built.to_bytes();
    let first = IndexArtifact::from_bytes(&bytes).unwrap();
    let second = IndexArtifact::from_bytes(&first.to_bytes()).unwrap();
    for seeds in [vec![0u32], vec![1, 4], vec![0, 1, 2, 3, 4, 5]] {
        let reference = built.oracle.estimate(&seeds);
        assert_eq!(first.oracle.estimate(&seeds), reference);
        assert_eq!(second.oracle.estimate(&seeds), reference);
    }
    // The pool is carried verbatim: posting lists match the built oracle's.
    assert_eq!(first.oracle.to_bytes(), built.oracle.to_bytes());
}

#[test]
fn mismatched_splice_is_rejected() {
    // Splicing the pool of one artifact into the graph of another must fail
    // the cross-checks even though both halves are individually valid.
    let small = InfluenceGraph::new(DiGraph::from_edges(3, &[(0, 1), (1, 2)]), vec![0.5, 0.5]);
    let large = InfluenceGraph::new(
        DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]),
        vec![0.5; 4],
    );
    let mut spliced = IndexArtifact::build("small", "uc0.5", small, 100, 1);
    let donor = IndexArtifact::build("large", "uc0.5", large, 100, 1);
    spliced.oracle = donor.oracle;
    let bytes = spliced.to_bytes();
    match IndexArtifact::from_bytes(&bytes) {
        Err(BinError::Corrupt(reason)) => {
            assert!(reason.contains("vertices"), "unexpected reason: {reason}");
        }
        other => panic!("splice must be rejected, got {other:?}"),
    }
}

#[test]
fn sequential_and_parallel_builds_persist_identically() {
    // The artifact inherits the sampler's backend-independence: a pool drawn
    // on the parallel backend serializes to the same bytes as the sequential
    // one for the same seed.
    let mk_graph = || {
        InfluenceGraph::new(
            DiGraph::from_edges(8, &[(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7)]),
            vec![0.3; 6],
        )
    };
    let seq = im_core::InfluenceOracle::builder(2_000)
        .seed(5)
        .backend(Backend::Sequential)
        .sample(&mk_graph());
    let par = im_core::InfluenceOracle::builder(2_000)
        .seed(5)
        .backend(Backend::Parallel { threads: 4 })
        .sample(&mk_graph());
    assert_eq!(seq.to_bytes(), par.to_bytes());
}

/// A forged artifact whose `SNAP` epoch disagrees with the watermark plus
/// the pending log must be rejected (the cross-check exists to catch spliced
/// or hand-edited logs).
#[test]
fn inconsistent_snapshot_watermarks_are_rejected() {
    use imgraph::binio::fnv1a64;

    let artifact = IndexArtifact::build(
        "snap-check",
        "uc0.5",
        InfluenceGraph::new(DiGraph::from_edges(3, &[(0, 1), (1, 2)]), vec![0.5, 0.5]),
        50,
        3,
    );
    let mut bytes = artifact.to_bytes();
    // The SNAP section is the last one: tag(4) + len(8) + payload(16), then
    // the 8-byte checksum. Bump the stored total epoch and re-stamp the
    // checksum so the watermark cross-check is what fires.
    let epoch_at = bytes.len() - 8 - 8;
    let forged = u64::from_le_bytes(bytes[epoch_at..epoch_at + 8].try_into().unwrap()) + 1;
    bytes[epoch_at..epoch_at + 8].copy_from_slice(&forged.to_le_bytes());
    let len = bytes.len();
    let sum = fnv1a64(&bytes[..len - 8]);
    bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
    match IndexArtifact::from_bytes(&bytes) {
        Err(BinError::Corrupt(reason)) => {
            assert!(reason.contains("snapshot section"), "{reason}");
        }
        other => panic!("forged watermark must be rejected, got {other:?}"),
    }
}

/// A tiered artifact loaded from disk demotes cold pool blocks onto the
/// artifact file: far fewer bytes stay resident than for the compressed
/// in-memory load of the same artifact, and every answer is bit-identical to
/// the raw build's.
#[test]
fn tiered_artifacts_load_cold_and_answer_identically() {
    use im_core::PoolLayout;

    let graph = InfluenceGraph::new(
        DiGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
            ],
        ),
        vec![0.6; 8],
    );
    let raw = IndexArtifact::build("tier-check", "uc0.6", graph, 6_000, 23);
    let mut tiered = raw.clone();
    tiered.convert_pool_layout(PoolLayout::Tiered);

    let path = std::env::temp_dir().join(format!(
        "imserve-tiered-roundtrip-{}.imx",
        std::process::id()
    ));
    tiered.save(path.to_str().unwrap()).unwrap();
    let loaded = IndexArtifact::load(path.to_str().unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);

    assert_eq!(loaded.pool_layout(), PoolLayout::Tiered);
    // Cold demotion happened: the tiered load keeps less resident than the
    // fully-resident in-memory pool of either other layout.
    assert!(
        loaded.oracle.pool_resident_bytes() < tiered.oracle.pool_resident_bytes(),
        "tiered load must shed resident bytes ({} vs {})",
        loaded.oracle.pool_resident_bytes(),
        tiered.oracle.pool_resident_bytes()
    );
    // ...and answers stay bit-identical to the raw reference, pool bytes
    // included.
    assert_eq!(loaded.oracle.to_bytes(), raw.oracle.to_bytes());
    for seeds in [vec![0u32], vec![1, 5], vec![0, 2, 4, 6]] {
        assert_eq!(loaded.oracle.estimate(&seeds), raw.oracle.estimate(&seeds));
    }
}

/// The pool travels only as `PCMP`. A current-version artifact whose pool
/// sits under version 5's raw-pool tag instead is refused typed as missing
/// `PCMP`, never read through a second codec.
#[test]
fn conflicting_pool_sections_are_rejected() {
    use imgraph::binio::fnv1a64;

    let artifact = IndexArtifact::build(
        "pcmp-check",
        "uc0.5",
        InfluenceGraph::new(DiGraph::from_edges(3, &[(0, 1), (1, 2)]), vec![0.5, 0.5]),
        50,
        3,
    );
    let mut bytes = artifact.to_bytes();
    // Walk the sections (tag, u64 length, payload) after the 8-byte header
    // and retag the pool section, re-stamping the checksum so the missing
    // section is what fires.
    let mut at = 8;
    while &bytes[at..at + 4] != b"PCMP" {
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        at += 12 + len as usize;
    }
    bytes[at..at + 4].copy_from_slice("POOL".as_bytes());
    let len = bytes.len();
    let sum = fnv1a64(&bytes[..len - 8]);
    bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
    match IndexArtifact::from_bytes(&bytes) {
        Err(BinError::Corrupt(reason)) => {
            assert!(reason.contains("missing section \"PCMP\""), "{reason}");
        }
        other => panic!("a pool outside PCMP must be rejected, got {other:?}"),
    }
}

/// A forged shard section whose offset plus the pool size overflows `u64`
/// is refused typed, naming the shard section, in debug and release alike.
#[test]
fn overflowing_shard_offsets_are_rejected() {
    let mut artifact = IndexArtifact::build_shard(
        "shard-check",
        "uc0.5",
        InfluenceGraph::new(DiGraph::from_edges(3, &[(0, 1), (1, 2)]), vec![0.5, 0.5]),
        50,
        3,
        0,
        2,
    );
    artifact.shard = Some(ShardInfo {
        offset: u64::MAX - 10,
        global_pool: u64::MAX,
    });
    match IndexArtifact::from_bytes(&artifact.to_bytes()) {
        Err(BinError::Corrupt(reason)) => {
            assert!(reason.contains("shard section"), "{reason}");
        }
        other => panic!("an overflowing shard offset must be rejected, got {other:?}"),
    }
}

/// Only the current format version is read: an artifact stamped with any
/// earlier version is refused with a typed error naming the version found
/// and the rebuild command — never migrated, never a panic.
#[test]
fn earlier_format_versions_are_rejected_with_a_rebuild_hint() {
    let artifact = IndexArtifact::build(
        "version-check",
        "uc0.5",
        InfluenceGraph::new(DiGraph::from_edges(3, &[(0, 1), (1, 2)]), vec![0.5, 0.5]),
        50,
        3,
    );
    for version in 1..imserve::index::INDEX_VERSION {
        let mut bytes = artifact.to_bytes();
        // Stamp the header back and fix up the checksum so the version check
        // is what fires.
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        let len = bytes.len();
        let sum = imgraph::binio::fnv1a64(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        match IndexArtifact::from_bytes(&bytes) {
            Err(BinError::Corrupt(reason)) => {
                assert!(reason.contains(&format!("version {version} ")), "{reason}");
                assert!(reason.contains("imserve build"), "{reason}");
            }
            other => panic!("v{version} artifact must be rejected as Corrupt, got {other:?}"),
        }
    }
}

/// Saving an artifact over a served file replaces the file instead of
/// rewriting it in place: an engine that loaded the old tiered artifact keeps
/// reading its cold blocks through the handle it holds and answers bit for
/// bit as before, and no temporary file is left beside the target.
#[test]
fn saving_over_a_served_artifact_leaves_its_answers_unchanged() {
    use std::sync::Arc;

    use im_core::PoolLayout;
    use imserve::engine::QueryEngine;
    use imserve::service::{InfluenceService, LocalService};

    let tiered = |seed| {
        let mut artifact =
            imserve::index::build_dataset_index("karate", "uc0.1", 20_000, seed).unwrap();
        artifact.convert_pool_layout(PoolLayout::Tiered);
        artifact
    };
    let name = format!("imserve-save-over-served-{}.imx", std::process::id());
    let path = std::env::temp_dir().join(&name);
    tiered(7).save(&path).unwrap();
    let engine = QueryEngine::builder(IndexArtifact::load(&path).unwrap())
        .build()
        .unwrap();
    let mut service = LocalService::new(Arc::new(engine));
    let seed_sets: [Vec<u32>; 4] = [vec![10], vec![0, 33], vec![11, 16, 26], (0..34).collect()];
    let answers = |service: &mut LocalService| -> Vec<(u64, u64, u64)> {
        seed_sets
            .iter()
            .map(|seeds| {
                let e = service.estimate(seeds).unwrap();
                (e.covered, e.pool, e.spread.to_bits())
            })
            .collect()
    };
    let before = answers(&mut service);

    tiered(8).save(&path).unwrap();
    let after = answers(&mut service);
    let leftovers: Vec<String> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|file| file.starts_with(&name) && *file != name)
        .collect();
    let _ = std::fs::remove_file(&path);
    assert_eq!(after, before);
    assert!(leftovers.is_empty(), "temporary files left: {leftovers:?}");
}
