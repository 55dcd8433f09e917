//! `im_core::drive_greedy` over fake pool shards: the one greedy round loop,
//! driven the way the shard router drives it, against the k-pass argmax over
//! the summed pools. Each shard is an explicit list pool and lists only its
//! top few vertices per pass, so lists truncate, shards disagree, and the
//! bound carried between rounds is the loose sum of the shards' bounds —
//! the cases where settling a round from carried candidates is most easily
//! wrong: a carried candidate shrunk to exactly the carried bound beside a
//! lower unlisted id, a tie at one shard's cut, all-zero rounds, `k > n`.

use std::collections::BTreeSet;

use im_study::im_core::{drive_greedy, settle_round, GreedyPass, GreedyRounds, TopGains};
use im_study::prelude::*;
use proptest::prelude::*;

/// Pool shards over the same `n` vertices, each an oracle assembled from
/// per-vertex lists of its own set ids.
fn shards_of(n: usize, pools: Vec<(usize, Vec<Vec<u32>>)>) -> Vec<InfluenceOracle> {
    pools
        .into_iter()
        .map(|(pool, mut lists)| {
            lists.resize(n, Vec::new());
            for list in &mut lists {
                list.sort_unstable();
                list.dedup();
            }
            InfluenceOracle::builder(pool.max(1))
                .assemble(n, lists)
                .expect("valid lists")
        })
        .collect()
}

/// Every vertex's gain summed over the shards.
fn summed_gains(shards: &[InfluenceOracle], selected: &[u32]) -> Vec<u64> {
    let mut sum = vec![0u64; shards[0].num_vertices()];
    for shard in shards {
        for (total, gain) in sum.iter_mut().zip(shard.coverage_gains(selected).0) {
            *total += gain;
        }
    }
    sum
}

/// The first argmax over the unselected vertices.
fn first_argmax(gains: &[u64], selected: &[u32]) -> Option<u32> {
    let mut best: Option<(u32, u64)> = None;
    for (v, &gain) in gains.iter().enumerate() {
        if selected.contains(&(v as u32)) {
            continue;
        }
        match best {
            Some((_, best_gain)) if gain <= best_gain => {}
            _ => best = Some((v as u32, gain)),
        }
    }
    best.map(|(v, _)| v)
}

/// The reference: one pass over the summed pools per round.
fn k_pass(shards: &[InfluenceOracle], k: usize) -> Vec<u32> {
    let mut selected = Vec::new();
    for _ in 0..k.min(shards[0].num_vertices()) {
        let Some(v) = first_argmax(&summed_gains(shards, &selected), &selected) else {
            break;
        };
        selected.push(v);
    }
    selected
}

/// A router's view of the shards: a pass is a listed round — each shard's
/// top `limit` and bound, the union's exact totals, and the summed full
/// vectors when the lists do not prove the winner.
struct FakeRouter<'a> {
    shards: &'a [InfluenceOracle],
    limit: usize,
    passes: usize,
    /// The last pass's union, to check every probe against.
    carried: Vec<u32>,
}

impl GreedyRounds for FakeRouter<'_> {
    type Error = String;

    fn pass(&mut self, selected: &[u32]) -> Result<Option<GreedyPass>, String> {
        self.passes += 1;
        let mut union = BTreeSet::new();
        let mut bound = 0u64;
        for shard in self.shards {
            let mut top = TopGains::new(self.limit);
            for (v, gain) in shard.coverage_gains(selected).0.into_iter().enumerate() {
                if !selected.contains(&(v as u32)) {
                    top.offer(v as u32, gain);
                }
            }
            let (listed, shard_bound) = top.finish();
            union.extend(listed.into_iter().map(|(v, _)| v));
            bound += shard_bound;
        }
        let candidates: Vec<u32> = union.into_iter().collect();
        let totals = summed_gains(self.shards, selected);
        let ranked = candidates.iter().map(|&v| (v, totals[v as usize]));
        let winner = match settle_round(ranked.collect(), 1, bound) {
            Some(top) => top[0],
            None => match first_argmax(&totals, selected) {
                Some(v) => v,
                None => return Ok(None),
            },
        };
        self.carried = candidates.clone();
        Ok(Some(GreedyPass {
            winner,
            candidates,
            bound,
        }))
    }

    fn probe(&mut self, selected: &[u32], candidates: &[u32]) -> Result<Vec<u64>, String> {
        let carried: Vec<u32> = (self.carried.iter().copied())
            .filter(|v| !selected.contains(v))
            .collect();
        if candidates != carried {
            return Err(format!(
                "probed {candidates:?} after picking {selected:?}; the last pass carried \
                 {:?}",
                self.carried
            ));
        }
        let totals = summed_gains(self.shards, selected);
        Ok(candidates.iter().map(|&v| totals[v as usize]).collect())
    }
}

/// The driver's picks and pass count with lists of `limit` per shard.
fn driven(shards: &[InfluenceOracle], limit: usize, k: usize) -> Result<(Vec<u32>, usize), String> {
    let mut router = FakeRouter {
        shards,
        limit,
        passes: 0,
        carried: Vec::new(),
    };
    let picks = drive_greedy(&mut router, shards[0].num_vertices(), k)?;
    Ok((picks, router.passes))
}

/// The driver against the k-pass loop for every `k` in `ks`; at most one
/// pass per round.
fn check(shards: &[InfluenceOracle], limit: usize, ks: &[usize]) -> Result<(), String> {
    for &k in ks {
        let want = k_pass(shards, k);
        let (picks, passes) = driven(shards, limit, k)?;
        if picks != want {
            return Err(format!(
                "{} shards, lists of {limit}, k={k}: {picks:?} against the k-pass loop's \
                 {want:?}",
                shards.len()
            ));
        }
        if passes > picks.len().max(1) {
            return Err(format!("{passes} passes for {} picks", picks.len()));
        }
    }
    Ok(())
}

/// A pool in which vertex `v` owns `gains[v]` sets of its own.
fn disjoint(gains: &[u32]) -> (usize, Vec<Vec<u32>>) {
    let mut next = 0u32;
    let lists = (gains.iter())
        .map(|&g| {
            next += g;
            (next - g..next).collect()
        })
        .collect();
    (next as usize, lists)
}

/// [`disjoint`] on every one of `count` shards.
fn spread_evenly(gains: &[u32], count: usize) -> Vec<InfluenceOracle> {
    shards_of(gains.len(), vec![disjoint(gains); count])
}

/// Gains that never shrink and a bound the listed vertices clear: one pass
/// settles every round, on any number of shards.
#[test]
fn carried_candidates_settle_every_later_round_with_one_pass() {
    for count in 1..=3 {
        let shards = spread_evenly(&[20, 19, 18, 17, 16, 3, 2, 1], count);
        for k in 1..=4 {
            let (picks, passes) = driven(&shards, 4, k).unwrap();
            assert_eq!(picks, (0..k as u32).collect::<Vec<_>>());
            assert_eq!(passes, 1, "{count} shards, k={k}");
        }
        check(&shards, 4, &[5, 8, 12]).unwrap();
    }
}

/// Lists of one per shard. Round 1 lists 3 (shard 0) and 2 (shard 1) with
/// bounds 4 + 3 = 7, and picks 3. Vertex 3 covers two of vertex 2's sets,
/// so round 2's carried candidate 2 shrinks to exactly 7, where the
/// unlisted vertex 1 also stands (4 + 3): the lower id is the first argmax,
/// so the round must make a pass, not settle on 2.
#[test]
fn a_carried_candidate_shrunk_to_the_bound_loses_to_a_lower_unlisted_id() {
    let shards = shards_of(
        4,
        vec![
            (
                28,
                vec![
                    vec![],
                    (20..24).collect(),
                    (24..28).collect(),
                    (0..20).collect(),
                ],
            ),
            (
                8,
                vec![vec![], (5..8).collect(), (0..5).collect(), vec![0, 1]],
            ),
        ],
    );
    let (picks, passes) = driven(&shards, 1, 3).unwrap();
    assert_eq!(picks, [3, 1, 2]);
    assert_eq!(passes, 3);
    check(&shards, 1, &[1, 2, 3, 4, 9]).unwrap();
}

/// Shard 0 cuts its list inside a three-way tie at gain 5 and shard 1
/// inside another, so each shard's bound equals the gain of a vertex it
/// listed.
#[test]
fn a_tie_at_one_shards_cut() {
    let shards = shards_of(
        6,
        vec![
            disjoint(&[10, 5, 5, 5, 1, 0]),
            disjoint(&[2, 0, 6, 6, 6, 1]),
        ],
    );
    for limit in 1..=3 {
        check(&shards, limit, &[1, 2, 3, 4, 6, 7]).unwrap();
    }
}

/// Three vertices cover every set; the rounds after them are all zeros and
/// hand out the lowest unselected ids.
#[test]
fn all_zero_rounds_pick_the_lowest_ids() {
    let mut lists = vec![Vec::new(); 12];
    lists[5] = (0..10).collect();
    lists[9] = (8..16).collect();
    lists[11] = vec![15, 16, 17];
    for count in 1..=3 {
        let shards = shards_of(12, vec![(18, lists.clone()); count]);
        let (picks, _) = driven(&shards, 2, 7).unwrap();
        assert_eq!(picks, [5, 9, 11, 0, 1, 2, 3]);
        check(&shards, 2, &[3, 4, 7, 12]).unwrap();
    }
}

/// `k` past `n` stops at `n` picks, every vertex once.
#[test]
fn k_past_the_vertex_count_picks_every_vertex_once() {
    let shards = spread_evenly(&[3, 0, 7, 7, 1], 2);
    let (picks, _) = driven(&shards, 2, 50).unwrap();
    assert_eq!(picks, [2, 3, 0, 4, 1]);
    check(&shards, 1, &[5, 6, 50]).unwrap();
}

/// One to three shards of random lists over small pools: gains tie often,
/// shrink unevenly and differ from shard to shard.
fn arb_shards() -> impl Strategy<Value = (Vec<InfluenceOracle>, usize)> {
    (1usize..40, 1usize..=3, 1usize..=4).prop_flat_map(|(n, count, limit)| {
        let shard = (1u32..60).prop_flat_map(move |pool| {
            let list = proptest::collection::vec(0..pool, 0..8);
            (Just(pool as usize), proptest::collection::vec(list, n))
        });
        (
            proptest::collection::vec(shard, count).prop_map(move |pools| shards_of(n, pools)),
            Just(limit),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_shards_select_like_the_k_pass_loop((shards, limit) in arb_shards()) {
        let n = shards[0].num_vertices();
        if let Err(msg) = check(&shards, limit, &[1, 2, 3, 5, n, n + 3]) {
            prop_assert!(false, "{}", msg);
        }
    }
}
