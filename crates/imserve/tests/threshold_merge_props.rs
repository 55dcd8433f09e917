//! The router's threshold merge as a pure function, against the thing it
//! replaces: over synthetic per-shard gain vectors, whenever
//! [`threshold_round`] names vertices they are the head of the summed
//! vectors' `(total desc, id asc)` ranking — the first argmax for a greedy
//! round, the top `k` for the singleton ranking — and it declines exactly
//! when its own rule says the lists prove nothing (the `want`-th candidate
//! total is not strictly above the summed bounds). Gains come from a tiny
//! range and lists are cut short, so ties at the cut are the common case,
//! not the corner.

use imserve::service::{GainCandidates, GainVector, ServiceError};
use imserve::shard::threshold_round;
use proptest::prelude::*;

/// One synthetic round: per-shard gain vectors over the same `n` vertices,
/// which vertices are already selected, the per-shard list length, and how
/// many top vertices the caller wants.
#[derive(Debug, Clone)]
struct Round {
    shards: Vec<GainVector>,
    is_selected: Vec<bool>,
    limit: usize,
    want: usize,
}

fn arb_round() -> impl Strategy<Value = Round> {
    // `max_gain == 0` is the all-zero round; lists of 64 over n <= 300 are
    // both complete and truncated, short lists truncate almost always.
    (1usize..300, 1usize..5, 0u64..4, 0usize..16)
        .prop_flat_map(|(n, shards, max_gain, limit)| {
            (
                proptest::collection::vec(proptest::collection::vec(0..=max_gain, n), shards),
                proptest::collection::vec(0u8..10, n),
                Just(if limit < 8 { limit + 1 } else { 64 }),
                1usize..6,
            )
        })
        .prop_map(|(gains, selected, limit, want)| Round {
            shards: gains
                .into_iter()
                .map(|gains| GainVector {
                    pool: gains.iter().sum::<u64>() + 7,
                    covered: 3,
                    gains,
                })
                .collect(),
            is_selected: selected.into_iter().map(|s| s == 0).collect(),
            limit,
            want,
        })
}

/// Every unselected vertex by `(summed gain desc, id asc)` — what the router
/// computes from the full vectors.
fn summed_ranking(round: &Round) -> Vec<(u32, u64)> {
    let mut ranked: Vec<(u32, u64)> = (0..round.is_selected.len())
        .filter(|&v| !round.is_selected[v])
        .map(|v| (v as u32, round.shards.iter().map(|s| s.gains[v]).sum()))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

/// Run the merge over the synthetic shards, returning its verdict and how
/// many fan-outs it made.
fn run(round: &Round) -> (Option<Vec<u32>>, usize) {
    let mut asks = 0;
    let top = threshold_round(
        round.want,
        round.limit,
        round.is_selected.len(),
        |v| round.is_selected[v as usize],
        |limit, probe| {
            asks += 1;
            Ok(round
                .shards
                .iter()
                .map(|s| s.candidates(limit, probe))
                .collect())
        },
    )
    .unwrap();
    (top, asks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `GainVector::candidates` is sort-and-truncate: the head of the
    /// `(gain desc, id asc)` ranking, the best gain left out as the bound
    /// (the uncovered remainder when nothing is listed), the probes read
    /// off the vector.
    #[test]
    fn candidates_are_the_sorted_head_and_the_best_gain_left_out(
        round in arb_round(),
        limit in (0usize..82).prop_map(|l| if l > 80 { usize::MAX } else { l }),
    ) {
        let vector = &round.shards[0];
        let n = vector.gains.len();
        let probe: Vec<u32> = (0..n as u32).rev().step_by(7).collect();
        let mut ranked: Vec<(u32, u64)> = (0u32..).zip(vector.gains.iter().copied()).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let cut = limit.min(n);
        let expected = GainCandidates {
            vertices: ranked[..cut].iter().map(|r| r.0).collect(),
            counts: ranked[..cut].iter().map(|r| r.1).collect(),
            bound: match cut {
                0 => vector.pool - vector.covered,
                _ => ranked.get(cut).map_or(0, |r| r.1),
            },
            probed: probe.iter().map(|&v| vector.gains[v as usize]).collect(),
            covered: vector.covered,
            pool: vector.pool,
        };
        prop_assert_eq!(vector.candidates(limit, &probe), expected);
    }

    /// The merge answers with the head of the summed ranking or not at all,
    /// and "not at all" is exactly its stated rule.
    #[test]
    fn the_merge_names_the_summed_head_or_declines_by_its_rule(round in arb_round()) {
        let ranking = summed_ranking(&round);
        let (top, asks) = run(&round);
        prop_assert!(asks == 1 || asks == 2);

        // The rule, recomputed from the lists alone.
        let lists: Vec<GainCandidates> =
            round.shards.iter().map(|s| s.candidates(round.limit, &[])).collect();
        let bound: u64 = lists.iter().map(|l| l.bound).sum();
        let listed = |v: u32| lists.iter().any(|l| l.vertices.contains(&v));
        let candidates: Vec<(u32, u64)> =
            ranking.iter().copied().filter(|&(v, _)| listed(v)).collect();
        let proven = candidates.get(round.want - 1).is_some_and(|&(_, total)| total > bound);

        match top {
            Some(top) => {
                // A wrong answer first (what `>=` in the rule produces at a
                // tie with an unlisted lower id), an unproven right one next.
                let head: Vec<u32> = ranking.iter().take(round.want).map(|r| r.0).collect();
                prop_assert_eq!(&top, &head, "bound {}", bound);
                prop_assert!(proven, "answered {:?} without proof (bound {})", top, bound);
            }
            None => {
                prop_assert!(!proven, "declined a proven round (bound {})", bound);
            }
        }
        // One fan-out suffices exactly when every list holds every candidate.
        let complete = candidates
            .iter()
            .all(|&(v, _)| lists.iter().all(|l| l.vertices.contains(&v)));
        prop_assert_eq!(asks == 1, complete);
    }
}

/// The tie at the cut, spelled out: every vertex totals 2, both lists (one
/// entry each) leave vertex 0 out at exactly their bound, so the candidates'
/// best (vertex 1, total 2) *equals* `U = 2`. Accepting it — `>=` in the rule
/// — would name vertex 1 where the union pool's first argmax is the unlisted
/// vertex 0; the strict rule declines and the full vectors decide.
#[test]
fn a_candidate_tying_the_summed_bounds_is_not_proof() {
    let shard = |gains: Vec<u64>| GainVector {
        gains,
        covered: 0,
        pool: 10,
    };
    let round = Round {
        shards: vec![shard(vec![1, 0, 2]), shard(vec![1, 2, 0])],
        is_selected: vec![false; 3],
        limit: 1,
        want: 1,
    };
    assert_eq!(summed_ranking(&round)[0], (0, 2));
    assert_eq!(run(&round), (None, 2));
    // One more set on vertex 1 lifts it strictly above the bounds.
    let mut separated = round;
    separated.shards[1].gains[1] = 3;
    assert_eq!(run(&separated), (Some(vec![1]), 2));
}

/// A reply the router cannot index is a typed shard error naming the shard,
/// never a panic: a vertex past the graph, arrays of different lengths, the
/// wrong number of probe answers.
#[test]
fn malformed_shard_replies_are_typed_errors() {
    let reply = |vertices: Vec<u32>, counts: Vec<u64>, probed: Vec<u64>| GainCandidates {
        vertices,
        counts,
        bound: 1,
        probed,
        covered: 0,
        pool: 10,
    };
    let good = reply(vec![0, 1], vec![5, 4], vec![]);
    let cases = [
        (
            reply(vec![0, 9], vec![5, 4], vec![]),
            "listed vertex 9 of 4",
        ),
        (
            reply(vec![0, 1], vec![5], vec![]),
            "2 candidates with 1 counts",
        ),
    ];
    for (bad, needle) in cases {
        let replies = vec![good.clone(), bad];
        let err = threshold_round(1, 2, 4, |_| false, |_, _| Ok(replies.clone())).unwrap_err();
        assert!(
            matches!(&err, ServiceError::Shard(m) if m.contains("shard 1") && m.contains(needle)),
            "{err}"
        );
    }
    // Phase 2: shard 1 lists a vertex shard 0 does not, so probes go out —
    // and shard 0 answers one probe for two candidates.
    let lists = vec![
        reply(vec![0], vec![5], vec![]),
        reply(vec![1], vec![4], vec![]),
    ];
    let err = threshold_round(
        1,
        1,
        4,
        |_| false,
        |limit, _| {
            Ok(match limit {
                0 => vec![reply(vec![], vec![], vec![5]), good.clone()],
                _ => lists.clone(),
            })
        },
    )
    .unwrap_err();
    assert!(
        matches!(&err, ServiceError::Shard(m) if m.contains("shard 0") && m.contains("1 probes for 2")),
        "{err}"
    );
}
