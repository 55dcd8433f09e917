//! Cross-layout equivalence — the fifth load-bearing invariant.
//!
//! The pool store's three physical layouts (raw, delta-varint compressed,
//! memory-tiered — resident, and genuinely demoted onto a file with hot and
//! cold lists side by side) are storage decisions, never semantic ones: for random
//! graphs and random atomic mutation batches, oracles maintained under each
//! layout must stay **byte-identical** in `to_bytes`, bit-identical in every
//! estimate, and identical in both `TopK` algorithms at *every* epoch. This
//! suite maintains one `DynamicOracle` per layout through the same workload
//! and compares after every batch — so the incremental-maintenance contract
//! (per-set PRNG streams keyed by global id, dirty resample through the
//! posting lists) is proven to survive the re-layout, not just the initial
//! conversion.

use im_core::sampler::Backend;
use im_core::{InfluenceOracle, PoolLayout, TieredConfig};
use imdyn::{workload, DynamicOracle};
use imgraph::{DeltaLog, DiGraph, InfluenceGraph, MutableInfluenceGraph};
use imrand::Pcg32;
use proptest::prelude::*;

/// Strategy: a random influence graph over `2..=10` vertices with `0..=24`
/// edges (parallel edges and self-loops included — both are legal).
fn arb_influence_graph() -> impl Strategy<Value = InfluenceGraph> {
    (2usize..10).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..24).prop_flat_map(move |edges| {
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

/// A `PCMP` payload file that is removed when the case ends, pass or fail.
struct PayloadFile(std::path::PathBuf);

impl Drop for PayloadFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The file-backed participant: `source`'s pool round-tripped through a
/// `PCMP` payload file and demoted onto it, so cold lists are read back from
/// disk. Lists of at least `hot_list_bytes` encoded bytes stay pinned — on
/// these small pools a threshold of a few bytes leaves both kinds present.
fn demoted_onto_file(
    source: &DynamicOracle,
    hot_list_bytes: usize,
) -> (DynamicOracle, PayloadFile) {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let payload = source.oracle().encode_pcmp_payload(PoolLayout::Tiered);
    let path = std::env::temp_dir().join(format!(
        "imdyn-layout-cold-{}-{}.pcmp",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::write(&path, &payload).expect("write payload file");
    let guard = PayloadFile(path);
    let (mut oracle, hint) = InfluenceOracle::from_pcmp_payload(&payload).expect("own payload");
    assert_eq!(hint, PoolLayout::Tiered);
    oracle.attach_incremental(source.base_seed(), 0);
    let file = std::sync::Arc::new(std::fs::File::open(&guard.0).expect("open payload file"));
    oracle.attach_cold_pool_file(file, 0, TieredConfig { hot_list_bytes });
    let cold = DynamicOracle::from_parts(source.graph().clone(), oracle, DeltaLog::new(), 0)
        .expect("incremental oracle over the same graph");
    (cold, guard)
}

/// Every layout answers exactly like the raw reference: serialized pool,
/// singleton and joint estimates, and both top-k selection algorithms.
fn assert_layouts_agree(
    raw: &DynamicOracle,
    others: &[&DynamicOracle],
    context: &str,
) -> Result<(), proptest::TestCaseError> {
    let reference_bytes = raw.oracle().to_bytes();
    let n = raw.graph().num_vertices();
    let k = (n / 2).max(1);
    let (reference_seeds, reference_spread) = raw.oracle().greedy_seed_set(k);
    let reference_rank = raw.oracle().top_influential_vertices(k);
    for other in others {
        let layout = other.oracle().pool_layout();
        prop_assert_eq!(
            other.oracle().to_bytes(),
            reference_bytes.clone(),
            "{layout} to_bytes diverged {context}"
        );
        prop_assert_eq!(other.epoch(), raw.epoch());
        for v in 0..n as u32 {
            prop_assert_eq!(
                other.oracle().estimate(&[v]).to_bits(),
                raw.oracle().estimate(&[v]).to_bits(),
                "{layout} estimate([{v}]) diverged {context}"
            );
        }
        let all: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(
            other.oracle().estimate(&all).to_bits(),
            raw.oracle().estimate(&all).to_bits(),
            "{layout} joint estimate diverged {context}"
        );
        let (seeds, spread) = other.oracle().greedy_seed_set(k);
        prop_assert_eq!(
            (seeds, spread.to_bits()),
            (reference_seeds.clone(), reference_spread.to_bits()),
            "{layout} greedy top-k diverged {context}"
        );
        prop_assert_eq!(
            other.oracle().coverage_gains(&reference_seeds[..1]),
            raw.oracle().coverage_gains(&reference_seeds[..1]),
            "{layout} coverage gains diverged {context}"
        );
        for set in 0..raw.pool_size() as u32 {
            prop_assert_eq!(
                other.oracle().trace(set),
                raw.oracle().trace(set),
                "{layout} trace({set}) diverged {context}"
            );
        }
        let rank = other.oracle().top_influential_vertices(k);
        prop_assert_eq!(rank.len(), reference_rank.len());
        for (got, want) in rank.iter().zip(&reference_rank) {
            prop_assert_eq!(got.0, want.0, "{layout} singleton rank diverged {context}");
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random atomic mutation batches keep all three layouts byte-identical
    /// in `to_bytes`, bit-identical in estimates and identical in both
    /// `TopK` algorithms at every epoch.
    #[test]
    fn all_layouts_stay_identical_at_every_epoch(
        graph in arb_influence_graph(),
        pool in 1usize..64,
        base_seed in 0u64..1_000,
        workload_seed in 0u64..1_000,
        batches in proptest::collection::vec(1usize..4, 0..4),
        hot_list_bytes in 2usize..8,
    ) {
        let raw = DynamicOracle::build(graph.clone(), pool, base_seed, Backend::Sequential);
        let mut compressed = raw.clone();
        compressed.convert_pool_layout(PoolLayout::Compressed);
        let mut tiered = raw.clone();
        tiered.convert_pool_layout(PoolLayout::Tiered);
        let (mut cold, _payload_file) = demoted_onto_file(&raw, hot_list_bytes);
        let mut raw = raw;
        prop_assert_eq!(compressed.oracle().pool_layout(), PoolLayout::Compressed);
        prop_assert_eq!(tiered.oracle().pool_layout(), PoolLayout::Tiered);
        prop_assert_eq!(cold.oracle().pool_layout(), PoolLayout::Tiered);
        assert_layouts_agree(&raw, &[&compressed, &tiered, &cold], "after conversion")?;
        prop_assert_eq!(tiered.oracle().pool().cold_reads(), (0, 0));
        prop_assert!(cold.oracle().pool().cold_reads().0 > 0, "answers came off the file");

        let mut rng = Pcg32::seed_from_u64(workload_seed);
        for (step, batch_len) in batches.into_iter().enumerate() {
            let mutable = MutableInfluenceGraph::from_graph(raw.graph());
            let deltas = workload::random_deltas(&mutable, batch_len, &mut rng);
            prop_assume!(!deltas.is_empty());
            raw.apply_batch(&deltas).expect("workload deltas are valid");
            compressed.apply_batch(&deltas).expect("workload deltas are valid");
            tiered.apply_batch(&deltas).expect("workload deltas are valid");
            // On the file-backed pool the overlay now shadows cold lists.
            cold.apply_batch(&deltas).expect("workload deltas are valid");
            // The conversion must stick across mutations …
            prop_assert_eq!(compressed.oracle().pool_layout(), PoolLayout::Compressed);
            prop_assert_eq!(tiered.oracle().pool_layout(), PoolLayout::Tiered);
            // … and every layout must still match raw — which itself must
            // still match a from-scratch rebuild.
            assert_layouts_agree(
                &raw,
                &[&compressed, &tiered, &cold],
                &format!("at epoch {}", step + 1),
            )?;
            prop_assert!(raw.matches_rebuild());
        }
    }

    /// Converting *after* a mutated history equals converting before it:
    /// layout changes commute with maintenance.
    #[test]
    fn conversion_commutes_with_maintenance(
        graph in arb_influence_graph(),
        pool in 1usize..48,
        base_seed in 0u64..500,
        workload_seed in 0u64..1_000,
        steps in 1usize..6,
    ) {
        let mut convert_first = DynamicOracle::build(graph.clone(), pool, base_seed, Backend::Sequential);
        convert_first.convert_pool_layout(PoolLayout::Compressed);
        let mut convert_last = DynamicOracle::build(graph, pool, base_seed, Backend::Sequential);

        let mut rng = Pcg32::seed_from_u64(workload_seed);
        let mutable = MutableInfluenceGraph::from_graph(convert_last.graph());
        let deltas = workload::random_deltas(&mutable, steps, &mut rng);
        for delta in deltas {
            convert_first.apply(delta).expect("workload deltas are valid");
            convert_last.apply(delta).expect("workload deltas are valid");
        }
        convert_last.convert_pool_layout(PoolLayout::Compressed);
        prop_assert_eq!(convert_first.oracle().to_bytes(), convert_last.oracle().to_bytes());
        // Mutation overlays may fragment the in-memory blocks differently,
        // but the history-free `PCMP` encoding must come out byte-equal.
        prop_assert_eq!(
            convert_first.oracle().encode_pcmp_payload(PoolLayout::Compressed),
            convert_last.oracle().encode_pcmp_payload(PoolLayout::Compressed),
            "same logical pool must encode to the same PCMP payload"
        );
    }
}
