//! The crash-durability contract of `serve --wal`: every acknowledged
//! mutation survives an abrupt process death between index saves, and
//! replay composes correctly with artifacts saved mid-stream.

mod fixtures;

use imgraph::GraphDelta;
use imserve::engine::QueryEngine;
use imserve::index::build_dataset_index;
use imserve::ServeError;

const POOL: usize = 2_000;
const SEED: u64 = 7;

fn temp_wal(tag: &str) -> fixtures::TempPath {
    fixtures::temp_path(&format!("walrec_{tag}"), "dlta")
}

fn batches() -> Vec<Vec<GraphDelta>> {
    vec![
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
        ],
        vec![GraphDelta::SetProbability {
            source: 33,
            target: 32,
            probability: 1.0,
        }],
    ]
}

#[test]
fn a_fresh_engine_replays_the_wal_and_matches_the_survivor() {
    let wal = temp_wal("replay");

    // "Process one": accepts two batches, then dies without saving.
    let first = QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
        .wal(&*wal)
        .build()
        .unwrap();
    for batch in batches() {
        first.mutate_batch(&batch).unwrap();
    }
    assert_eq!(first.epoch(), 3);
    let surviving_pool = first.state().dynamic.oracle().to_bytes();
    drop(first);

    // "Process two": same artifact, same WAL path — the pending records
    // replay on startup and the served pool is byte-identical.
    let second = QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
        .wal(&*wal)
        .build()
        .unwrap();
    assert_eq!(second.epoch(), 3, "all acknowledged mutations recovered");
    assert_eq!(second.state().dynamic.oracle().to_bytes(), surviving_pool);

    // The recovered engine keeps appending: one more batch, one more
    // restart, still byte-identical to a continuously-running engine.
    second
        .mutate_batch(&[GraphDelta::InsertEdge {
            source: 16,
            target: 0,
            probability: 0.9,
        }])
        .unwrap();
    let continuous = second.state().dynamic.oracle().to_bytes();
    drop(second);
    let third = QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
        .wal(&*wal)
        .build()
        .unwrap();
    assert_eq!(third.epoch(), 4);
    assert_eq!(third.state().dynamic.oracle().to_bytes(), continuous);
}

#[test]
fn saved_artifacts_skip_already_folded_records() {
    let wal = temp_wal("skip");

    let engine = QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
        .wal(&*wal)
        .build()
        .unwrap();
    for batch in batches() {
        engine.mutate_batch(&batch).unwrap();
    }
    // Operator saves the index *after* the mutations: the artifact is ahead
    // of nothing — the whole WAL span is folded in.
    let saved = engine.state().to_artifact();
    assert_eq!(saved.epoch(), 3);
    drop(engine);

    let resumed = QueryEngine::builder(saved).wal(&*wal).build().unwrap();
    assert_eq!(
        resumed.epoch(),
        3,
        "records at or below the artifact epoch replay as no-ops"
    );
    // New mutations append after the old records with the right epochs.
    resumed
        .mutate_batch(&[GraphDelta::DeleteEdge {
            source: 2,
            target: 3,
        }])
        .unwrap();
    assert_eq!(resumed.epoch(), 4);
    drop(resumed);
    // A fresh (unmutated) artifact now replays the whole log: 3 + 1 deltas.
    let replayed =
        QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
            .wal(&*wal)
            .build()
            .unwrap();
    assert_eq!(replayed.epoch(), 4);
}

#[test]
fn epoch_gaps_fail_loudly_instead_of_serving_diverged_state() {
    let wal = temp_wal("gap");
    let engine = QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
        .wal(&*wal)
        .build()
        .unwrap();
    for batch in batches() {
        engine.mutate_batch(&batch).unwrap();
    }
    // An artifact that saw *more* history than the WAL start but less than
    // its end cannot exist via the supported flows; simulate a stale mix by
    // loading an artifact that is ahead of record 0 but behind record 1 —
    // i.e. epoch 1 (mid-record): replay must refuse.
    let mut stale = build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap();
    stale.snapshot_epoch = 1; // epoch 1: inside record 0's span
    let err = QueryEngine::builder(stale).wal(&*wal).build().unwrap_err();
    match err {
        ServeError::Wal(message) => assert!(message.contains("history is missing"), "{message}"),
        other => panic!("expected a WAL error, got {other}"),
    }
}

/// Same identity, lined-up epochs, *different graph lineage*: an index
/// rebuilt with a different `--deltas` script must refuse the WAL instead
/// of skipping/replaying records recorded against another graph.
#[test]
fn wal_from_a_different_graph_lineage_is_rejected() {
    use imserve::index::build_dataset_index_with_deltas;

    let wal = temp_wal("lineage");
    let engine = QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
        .wal(&*wal)
        .build()
        .unwrap();
    for batch in batches() {
        engine.mutate_batch(&batch).unwrap();
    }
    // A new record past the epoch-2 artifacts below.
    engine
        .mutate_batch(&[GraphDelta::InsertEdge {
            source: 16,
            target: 0,
            probability: 0.9,
        }])
        .unwrap();
    drop(engine);

    // An artifact at epoch 2 whose baked history differs from the WAL's
    // first record (same dataset/model/pool/seed → same identity header).
    let foreign_history = vec![
        GraphDelta::DeleteEdge {
            source: 33,
            target: 32,
        },
        GraphDelta::DeleteEdge {
            source: 2,
            target: 3,
        },
    ];
    let rebuilt =
        build_dataset_index_with_deltas("karate", "uc0.1", POOL, SEED, &foreign_history).unwrap();
    assert_eq!(rebuilt.epoch(), 2);
    let err = QueryEngine::builder(rebuilt)
        .wal(&*wal)
        .build()
        .unwrap_err();
    match err {
        ServeError::Wal(message) => {
            assert!(message.contains("different graph"), "{message}")
        }
        other => panic!("expected a WAL lineage error, got {other}"),
    }
}
