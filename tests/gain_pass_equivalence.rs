//! A whole-pool gain pass on a pool with traces subtracts the covered sets'
//! trace hits from posting-list lengths instead of decoding every list
//! (`InfluenceOracle::coverage_gains`, and the pass behind
//! `greedy_seed_set`). This suite holds it to the decode it replaced — every
//! posting list decoded, each id tested against the covered marks — on
//! random pools and random selections, in every shape a pool is served in:
//! raw, compressed, file-backed tiered, file-backed tiered with an overlay
//! shadowing cold lists after incremental maintenance, and without traces.

use std::sync::atomic::{AtomicUsize, Ordering};

use im_study::im_core::{Pool, PoolLayout, TieredConfig};
use im_study::imexp::fixture::ScaleFixture;
use im_study::prelude::*;
use proptest::prelude::*;

/// The reference: mark what `selected` covers, then decode every posting
/// list and count its ids left uncovered.
fn decoded_gains(oracle: &InfluenceOracle, selected: &[u32]) -> (Vec<u64>, u64) {
    let pool = oracle.pool();
    let mut covered = vec![false; oracle.pool_size()];
    let mut covered_count = 0u64;
    for &s in selected {
        pool.for_each_posting_inline(s, |id| {
            if !covered[id as usize] {
                covered[id as usize] = true;
                covered_count += 1;
            }
        });
    }
    let mut gains = Vec::with_capacity(oracle.num_vertices());
    pool.sweep_postings(|_, list| {
        let mut gain = 0u64;
        list.for_each(|id| gain += u64::from(!covered[id as usize]));
        gains.push(gain);
    });
    (gains, covered_count)
}

/// The greedy reference: a decoded pass per round, keeping the first
/// unselected vertex of strictly greater gain.
fn decoded_greedy(oracle: &InfluenceOracle, k: usize) -> (Vec<u32>, f64) {
    let n = oracle.num_vertices();
    let mut selected: Vec<u32> = Vec::new();
    while selected.len() < k.min(n) {
        let (gains, _) = decoded_gains(oracle, &selected);
        let mut best: Option<(u32, u64)> = None;
        for (v, &gain) in gains.iter().enumerate() {
            if selected.contains(&(v as u32)) {
                continue;
            }
            if best.is_none_or(|(_, best_gain)| gain > best_gain) {
                best = Some((v as u32, gain));
            }
        }
        selected.push(best.expect("an unselected vertex is left").0);
    }
    let covered = decoded_gains(oracle, &selected).1;
    let influence = n as f64 * covered as f64 / oracle.pool_size() as f64;
    (selected, influence)
}

/// A `PCMP` payload file removed when the case ends, pass or fail.
struct PayloadFile(std::path::PathBuf);

impl Drop for PayloadFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// `oracle` round-tripped through a payload file and demoted onto it with a
/// hot threshold of a few bytes, so short posting lists and traces are read
/// back from disk while long ones stay pinned. Keeps the incremental stamp,
/// so the result can be maintained under deltas.
fn file_backed(oracle: &InfluenceOracle) -> (InfluenceOracle, PayloadFile) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let payload = oracle.encode_pcmp_payload(PoolLayout::Tiered);
    let path = std::env::temp_dir().join(format!(
        "gain-pass-equivalence-{}-{}.pcmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, &payload).expect("write payload file");
    let guard = PayloadFile(path);
    let (mut tiered, _) = InfluenceOracle::from_pcmp_payload(&payload).expect("own payload");
    if let (Some(seed), Some(offset)) = (oracle.incremental_base_seed(), oracle.set_id_offset()) {
        tiered.attach_incremental(seed, offset);
    }
    let file = std::sync::Arc::new(std::fs::File::open(&guard.0).expect("open payload file"));
    tiered.attach_cold_pool_file(file, 0, TieredConfig { hot_list_bytes: 12 });
    (tiered, guard)
}

/// `oracle`'s gains for every selection, and its greedy picks for every
/// `k`, against the decode reference on the same pool.
fn check(oracle: &InfluenceOracle, selections: &[Vec<u32>], ks: &[usize]) -> Result<(), String> {
    let layout = oracle.pool_layout();
    for selected in selections {
        let (gains, covered) = oracle.coverage_gains(selected);
        let (want_gains, want_covered) = decoded_gains(oracle, selected);
        if gains != want_gains || covered != want_covered {
            return Err(format!(
                "{layout} (traces: {}) coverage_gains({selected:?}) = {gains:?} covering \
                 {covered}; decoding gives {want_gains:?} covering {want_covered}",
                oracle.pool().has_traces()
            ));
        }
    }
    for &k in ks {
        let (seeds, influence) = oracle.greedy_seed_set(k);
        let (want_seeds, want_influence) = decoded_greedy(oracle, k);
        if seeds != want_seeds || influence.to_bits() != want_influence.to_bits() {
            return Err(format!(
                "{layout} greedy_seed_set({k}) = {seeds:?} / {influence}; a decoded pass \
                 per round gives {want_seeds:?} / {want_influence}"
            ));
        }
    }
    Ok(())
}

/// `oracle` raw, compressed and file-backed tiered, each checked.
fn check_every_layout(
    oracle: &InfluenceOracle,
    selections: &[Vec<u32>],
    ks: &[usize],
) -> Result<(), String> {
    let mut compressed = oracle.clone();
    compressed.convert_layout(PoolLayout::Compressed);
    let (tiered, _file) = file_backed(oracle);
    for o in [oracle, &compressed, &tiered] {
        if o.pool().has_traces() != oracle.pool().has_traces() {
            return Err(format!("{} lost or gained traces", o.pool_layout()));
        }
        check(o, selections, ks)?;
    }
    Ok(())
}

/// Random per-vertex lists of set ids (sorted and deduplicated), skewed in
/// length over a small pool so that selections overlap.
fn arb_lists() -> impl Strategy<Value = (usize, Vec<Vec<u32>>)> {
    (1usize..60, 1u32..120).prop_flat_map(|(n, pool)| {
        let list =
            (0u32..6).prop_flat_map(move |e| proptest::collection::vec(0..pool, 0..(1usize << e)));
        (Just(pool as usize), proptest::collection::vec(list, n))
    })
}

/// Random selections, vertex ids taken modulo `n` (repeats allowed).
fn arb_selections() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..1_000, 0..6), 1..4)
}

fn modulo(selections: &[Vec<u32>], n: usize) -> Vec<Vec<u32>> {
    selections
        .iter()
        .map(|s| s.iter().map(|&v| v % n as u32).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random pools without traces (the decode fallback), then the same
    /// pools with traces inverted from their postings.
    #[test]
    fn random_pools_gain_like_the_decode(
        (pool, mut lists) in arb_lists(),
        selections in arb_selections(),
    ) {
        for list in &mut lists {
            list.sort_unstable();
            list.dedup();
        }
        let n = lists.len();
        let selections = modulo(&selections, n);
        let mut oracle = InfluenceOracle::builder(pool)
            .assemble(n, lists)
            .expect("valid lists");
        prop_assert!(!oracle.pool().has_traces());
        if let Err(msg) = check_every_layout(&oracle, &selections, &[1, 3, n]) {
            prop_assert!(false, "{}", msg);
        }
        oracle.attach_incremental(5, 0);
        prop_assert!(oracle.pool().has_traces());
        if let Err(msg) = check_every_layout(&oracle, &selections, &[1, 3, n]) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// A sampled incremental pool, then the same pool after a delta batch:
    /// the file-backed tiered copy keeps the batch in an overlay that
    /// shadows its cold lists, and gains from those traces must still equal
    /// the decode — and the raw copy's gains.
    #[test]
    fn a_tiered_overlay_gains_like_the_decode(
        seed in 0u64..1_000,
        heads in proptest::collection::vec(0u32..1_000, 1..6),
        selections in arb_selections(),
    ) {
        let n = 300;
        let fixture = ScaleFixture::new(n, 4.0, seed);
        let graph = fixture.influence_graph(ProbabilityModel::uc01());
        let mut raw = InfluenceOracle::builder(800).seed(seed).incremental().sample(&graph);
        let selections = modulo(&selections, n);
        if let Err(msg) = check_every_layout(&raw, &selections, &[1, 4]) {
            prop_assert!(false, "{}", msg);
        }
        let (mut tiered, _file) = file_backed(&raw);
        let deltas: Vec<GraphDelta> = heads
            .iter()
            .map(|&h| GraphDelta::InsertEdge {
                source: (h + 1) % n as u32,
                target: h % n as u32,
                probability: 0.9,
            })
            .collect();
        let mut mutable = MutableInfluenceGraph::from_graph(&graph);
        let deltas: Vec<GraphDelta> = deltas
            .into_iter()
            .filter(|d| mutable.apply(d).is_ok())
            .collect();
        let after = mutable.materialize();
        let resampled = raw.apply_delta_batch(&after, &deltas).expect("raw batch");
        prop_assert_eq!(tiered.apply_delta_batch(&after, &deltas).expect("tiered batch"), resampled);
        let shadowed = matches!(tiered.pool(), Pool::Tiered(p) if p.has_overlay());
        prop_assert_eq!(shadowed, resampled > 0);
        for o in [&raw, &tiered] {
            if let Err(msg) = check(o, &selections, &[1, 4]) {
                prop_assert!(false, "after the batch: {}", msg);
            }
        }
        for selected in &selections {
            prop_assert_eq!(tiered.coverage_gains(selected), raw.coverage_gains(selected));
        }
    }
}
