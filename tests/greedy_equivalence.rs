//! `InfluenceOracle::greedy_seed_set` settles most rounds from the last
//! pass's candidate list instead of making a whole-pool pass per round. This
//! suite holds it to the k-pass loop it replaced: the same seeds in the same
//! order and a bit-identical influence, on raw, compressed and file-backed
//! tiered pools, including the cases the threshold rule must refuse — a tie
//! at the candidate cut, a tie between a shrunken candidate and an unlisted
//! vertex with a lower id, all-zero rounds, and `k` past the vertices with
//! any gain.

use im_study::im_core::{PoolLayout, TieredConfig, ROUND_CANDIDATES};
use im_study::imexp::fixture::ScaleFixture;
use im_study::prelude::*;
use proptest::prelude::*;

/// The reference: one whole-pool pass per round, keeping the first vertex
/// of strictly greater gain — the loop `greedy_seed_set` ran before it kept
/// a candidate list.
fn eager_greedy(oracle: &InfluenceOracle, k: usize) -> (Vec<u32>, f64) {
    let pool = oracle.pool();
    let n = oracle.num_vertices();
    let k = k.min(n);
    let mut covered = vec![false; oracle.pool_size()];
    let mut covered_count = 0usize;
    let mut selected = Vec::with_capacity(k);
    let mut is_selected = vec![false; n];
    for _ in 0..k {
        let mut best: Option<(u32, usize)> = None;
        pool.sweep_postings(|v, list| {
            if is_selected[v as usize] {
                return;
            }
            let mut gain = 0usize;
            list.for_each(|id| gain += usize::from(!covered[id as usize]));
            match best {
                Some((_, best_gain)) if gain <= best_gain => {}
                _ => best = Some((v, gain)),
            }
        });
        let Some((chosen, _)) = best else { break };
        is_selected[chosen as usize] = true;
        pool.for_each_posting_inline(chosen, |id| {
            if !covered[id as usize] {
                covered[id as usize] = true;
                covered_count += 1;
            }
        });
        selected.push(chosen);
    }
    let influence = n as f64 * covered_count as f64 / oracle.pool_size() as f64;
    (selected, influence)
}

/// A `PCMP` payload file removed when the case ends, pass or fail.
struct PayloadFile(std::path::PathBuf);

impl Drop for PayloadFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// `oracle` in all three layouts; the tiered one is round-tripped through a
/// payload file and demoted onto it with a hot threshold of a few bytes, so
/// short lists are read back from disk and long ones stay pinned.
fn every_layout(oracle: &InfluenceOracle) -> (Vec<InfluenceOracle>, PayloadFile) {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let mut compressed = oracle.clone();
    compressed.convert_layout(PoolLayout::Compressed);
    let payload = oracle.encode_pcmp_payload(PoolLayout::Tiered);
    let path = std::env::temp_dir().join(format!(
        "greedy-equivalence-{}-{}.pcmp",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::write(&path, &payload).expect("write payload file");
    let guard = PayloadFile(path);
    let (mut tiered, hint) = InfluenceOracle::from_pcmp_payload(&payload).expect("own payload");
    assert_eq!(hint, PoolLayout::Tiered);
    let file = std::sync::Arc::new(std::fs::File::open(&guard.0).expect("open payload file"));
    tiered.attach_cold_pool_file(file, 0, TieredConfig { hot_list_bytes: 24 });
    let mut raw = oracle.clone();
    raw.convert_layout(PoolLayout::Raw);
    (vec![raw, compressed, tiered], guard)
}

/// Compare every layout's `greedy_seed_set(k)` with the reference for each
/// `k`: seeds in order, influence to the bit.
fn check(oracle: &InfluenceOracle, ks: &[usize]) -> Result<(), String> {
    let (layouts, _file) = every_layout(oracle);
    for &k in ks {
        let (want_seeds, want_influence) = eager_greedy(oracle, k);
        for o in &layouts {
            let (seeds, influence) = o.greedy_seed_set(k);
            if seeds != want_seeds || influence.to_bits() != want_influence.to_bits() {
                return Err(format!(
                    "{} k={k}: {seeds:?} / {influence} against the k-pass loop's \
                     {want_seeds:?} / {want_influence}",
                    o.pool_layout()
                ));
            }
        }
    }
    Ok(())
}

/// Assemble an oracle from per-vertex lists of set ids (sorted and
/// deduplicated here).
fn assembled(pool: usize, mut lists: Vec<Vec<u32>>) -> InfluenceOracle {
    for list in &mut lists {
        list.sort_unstable();
        list.dedup();
    }
    InfluenceOracle::builder(pool)
        .assemble(lists.len(), lists)
        .expect("valid lists")
}

/// Disjoint lists of the given lengths, vertex `v` owning the next
/// `lengths[v]` set ids.
fn disjoint(lengths: &[u32]) -> (usize, Vec<Vec<u32>>) {
    let mut next = 0u32;
    let lists = lengths
        .iter()
        .map(|&len| {
            let list = (next..next + len).collect();
            next += len;
            list
        })
        .collect();
    (next.max(1) as usize, lists)
}

/// The 64th and 65th vertices of the first pass tie, so the bound equals the
/// last candidate's gain: once the strictly better candidates are used up,
/// the round holding that tie must fall back to a pass.
#[test]
fn a_tie_at_the_candidate_cut_falls_back_to_a_pass() {
    let lengths: Vec<u32> = (0..130u32)
        .map(|v| if v < 63 { 100 - v } else { 10 })
        .collect();
    let (pool, lists) = disjoint(&lengths);
    let oracle = assembled(pool, lists);
    assert_eq!(ROUND_CANDIDATES, 64, "the fixture places its tie at 64");
    check(&oracle, &[1, 63, 64, 65, 70, 130, 200]).unwrap();
}

/// A listed vertex shrinks to exactly the bound while an unlisted vertex
/// with a lower id holds it: the lower id is the first argmax, so the rule
/// must not accept the candidate at equality.
#[test]
fn a_candidate_shrunk_to_the_bound_loses_to_a_lower_unlisted_id() {
    // Vertex 0 owns 300 sets; vertices 1..=62 own 100 each; vertices
    // 63..200 own 5 each; vertex 200 holds 85 of vertex 0's sets and 5 of
    // its own, so it is listed at 90 and falls to 5 once vertex 0 is chosen.
    let mut lengths = vec![300u32];
    lengths.extend(std::iter::repeat_n(100, 62));
    lengths.extend(std::iter::repeat_n(5, 137));
    let (pool, mut lists) = disjoint(&lengths);
    let own: Vec<u32> = (pool as u32..pool as u32 + 5).collect();
    lists.push(lists[0][..85].iter().copied().chain(own).collect());
    let oracle = assembled(pool + 5, lists);
    let (seeds, _) = oracle.greedy_seed_set(65);
    assert_eq!(
        seeds[63..],
        [63, 64],
        "the shrunken candidate 200 must wait"
    );
    check(&oracle, &[2, 63, 64, 65, 66, 201]).unwrap();
}

/// Three vertices cover everything; every later round is all zeros and
/// picks the lowest unselected ids, past `k = n`.
#[test]
fn all_zero_rounds_and_k_past_the_covering_vertices() {
    let mut lists = vec![Vec::new(); 100];
    lists[5] = (0..40).collect();
    lists[50] = (30..60).collect();
    lists[70] = vec![59, 60, 61];
    let oracle = assembled(62, lists);
    let (seeds, _) = oracle.greedy_seed_set(8);
    assert_eq!(seeds, [5, 50, 70, 0, 1, 2, 3, 4]);
    check(&oracle, &[3, 4, 8, 99, 100, 150]).unwrap();
}

/// A sampled pool on a power-law fixture, where most rounds settle from the
/// candidate list.
#[test]
fn a_sampled_power_law_pool_selects_like_the_k_pass_loop() {
    let fixture = ScaleFixture::new(3_000, 4.0, 7);
    let graph = fixture.influence_graph(ProbabilityModel::InDegreeWeighted);
    let oracle = InfluenceOracle::builder(20_000).seed(11).sample(&graph);
    check(&oracle, &[1, 4, 16, 50, 200]).unwrap();
}

/// Random per-vertex lists: skewed lengths over a small pool, so gains tie
/// often and shrink unevenly.
fn arb_lists() -> impl Strategy<Value = (usize, Vec<Vec<u32>>)> {
    (1usize..200, 1u32..400).prop_flat_map(|(n, pool)| {
        let list =
            (0u32..7).prop_flat_map(move |e| proptest::collection::vec(0..pool, 0..(1usize << e)));
        (Just(pool as usize), proptest::collection::vec(list, n))
    })
}

/// A random influence graph on up to 40 vertices.
fn arb_graph() -> impl Strategy<Value = InfluenceGraph> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.05f64..1.0);
        proptest::collection::vec(edge, 0..120).prop_map(move |edges| {
            let edges: Vec<(u32, u32, f64)> =
                edges.into_iter().filter(|(u, v, _)| u != v).collect();
            let pairs: Vec<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
            let probs = edges.iter().map(|&(_, _, p)| p).collect();
            InfluenceGraph::new(DiGraph::from_edges(n, &pairs), probs)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_pools_select_like_the_k_pass_loop((pool, lists) in arb_lists()) {
        let n = lists.len();
        let oracle = assembled(pool, lists);
        if let Err(msg) = check(&oracle, &[1, 3, 8, n, n + 5]) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn random_graphs_select_like_the_k_pass_loop(graph in arb_graph(), seed in 0u64..1_000) {
        let n = graph.num_vertices();
        let oracle = InfluenceOracle::builder(1_500).seed(seed).sample(&graph);
        if let Err(msg) = check(&oracle, &[1, 3, 8, n, n + 5]) {
            prop_assert!(false, "{}", msg);
        }
    }
}
