//! Proof that a `PCMP` payload whose traces are not the inverse of its
//! posting lists is refused at load, typed.
//!
//! A gain pass computes `gain(v) = |P(v)| − #{covered sets s : v ∈ T(s)}`
//! from the traces, so traces that disagree with the postings would answer
//! wrong gains with no error — or a trace naming a vertex its posting list
//! lacks would take more from a length than it holds. The checksum cannot
//! catch such a payload: each forgery below is encoded by the pool's own
//! encoder from inconsistent lists, so every list is well formed and the
//! checksum is recomputed over the forged bytes.

use impool::{decode_pcmp_payload, PackedPool, Pool, PoolCodecError, PoolLayout};

/// 4 vertices, 6 sets: the postings and their exact inverse.
fn lists() -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let postings = vec![vec![0, 2, 5], vec![1, 2], vec![], vec![0, 1, 2, 3, 4, 5]];
    let traces = vec![
        vec![0, 3],
        vec![1, 3],
        vec![0, 1, 3],
        vec![3],
        vec![3],
        vec![0, 3],
    ];
    (postings, traces)
}

/// A payload of `postings` with `traces`, as the encoder writes it.
fn payload(postings: &[Vec<u32>], traces: &[Vec<u32>]) -> Vec<u8> {
    let packed = PackedPool::from_lists(postings.len(), traces.len(), postings, Some(traces));
    Pool::Compressed(packed).encode_pcmp_payload(PoolLayout::Tiered)
}

/// An edit that makes traces stop inverting the postings.
type Forgery = fn(&mut Vec<Vec<u32>>);

#[test]
fn traces_that_do_not_invert_the_postings_are_refused_typed() {
    let (postings, traces) = lists();
    let (pool, hint) = decode_pcmp_payload(&payload(&postings, &traces)).expect("exact inverse");
    assert_eq!(hint, PoolLayout::Tiered);
    assert!(!pool.has_overlay());

    let forgeries: [(&str, Forgery); 5] = [
        // Set 0 loses member 0: vertex 0's gain would count set 0 uncovered.
        ("a member dropped", |t| t[0] = vec![3]),
        // Set 3 gains vertex 2, whose posting list is empty: 0 − 1.
        ("a member added", |t| t[3] = vec![2, 3]),
        // Same id totals, one member moved to another vertex.
        ("a member moved", |t| t[0] = vec![1, 3]),
        // Same id totals, two sets' traces exchanged.
        ("two traces swapped", |t| t.swap(1, 3)),
        // Every member dropped from one set, added to another.
        ("a trace emptied into another", |t| {
            t[2] = vec![];
            t[4] = vec![0, 1, 3];
        }),
    ];
    for (what, forge) in forgeries {
        let mut forged = traces.clone();
        forge(&mut forged);
        let decoded = decode_pcmp_payload(&payload(&postings, &forged));
        assert_eq!(
            decoded.map(|(_, hint)| hint),
            Err(PoolCodecError::Corrupt {
                reason: "traces do not invert postings"
            }),
            "{what}"
        );
    }
}

/// Postings that disagree with exact traces are refused the same way: the
/// check is symmetric in the two directions.
#[test]
fn postings_that_do_not_invert_the_traces_are_refused_typed() {
    let (mut postings, traces) = lists();
    postings[2] = vec![4];
    let decoded = decode_pcmp_payload(&payload(&postings, &traces));
    assert_eq!(
        decoded.map(|(_, hint)| hint),
        Err(PoolCodecError::Corrupt {
            reason: "traces do not invert postings"
        })
    );
}
