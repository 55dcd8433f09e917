//! Space reduction for Snapshot and RIS: coarsening, sketches and compressed
//! RR sets.
//!
//! ```text
//! cargo run --release --example space_reduction
//! ```
//!
//! The paper's concluding Section 7 asks: "Can we cut down the memory usage of
//! Snapshot and RIS, e.g., by compressing reverse-reachable sets?" This example
//! measures three answers this repository implements:
//!
//! 1. **Compressed RR sets** (`PoolLayout::Compressed`) — store the shared
//!    oracle's RR-set pool delta/varint-encoded, the layout the server ships,
//!    and report its resident bytes against the raw layout;
//! 2. **Bottom-k reachability sketches** (`imsketch::ReachabilitySketches`) —
//!    replace Snapshot's per-snapshot reachable sets by fixed-size sketches and
//!    report the estimation error they introduce;
//! 3. **Influence-graph coarsening** (`imgraph::coarsen`) — contract
//!    probability-1 strongly connected components and report how much smaller
//!    every subsequent sample becomes.

use im_core::PoolLayout;
use im_study::prelude::*;
use imgraph::coarsen::coarsen_by_certain_edges;
use imgraph::live_edge::sample_snapshot;
use imgraph::reach::reachable_count;
use imsketch::descendant_counts;

fn main() {
    let graph = Dataset::CaGrQc.influence_graph(ProbabilityModel::uc01(), 0);
    println!(
        "instance: ca-GrQc analog (uc0.1), n = {}, m = {}\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    // --- 1. Compressed RR sets ----------------------------------------------
    let theta = 20_000usize;
    let mut oracle = InfluenceOracle::builder(theta).sample_with_rng(&graph, &mut default_rng(1));
    let raw = oracle.pool_resident_bytes();
    oracle.convert_layout(PoolLayout::Compressed);
    let compressed = oracle.pool_resident_bytes();
    println!("1. compressed RR sets (θ = {theta}):");
    println!("   raw pool               : {raw} resident bytes");
    println!("   delta/varint pool      : {compressed} resident bytes");
    println!(
        "   compression ratio      : {:.2}×\n",
        raw as f64 / compressed as f64
    );

    // --- 2. Bottom-k sketches versus exact reachability ---------------------
    let mut rng = default_rng(2);
    let snapshot = sample_snapshot(&graph, &mut rng);
    let k_sketch = 32;
    let sketches = ReachabilitySketches::build(snapshot.graph(), k_sketch, &mut rng);
    let exact = descendant_counts(snapshot.graph());
    let mut total_abs_err = 0.0f64;
    let mut worst = 0.0f64;
    for v in 0..graph.num_vertices() as VertexId {
        let err = (sketches.estimate_reachable(v) - exact[v as usize] as f64).abs();
        total_abs_err += err;
        worst = worst.max(err);
    }
    let n = graph.num_vertices() as f64;
    println!("2. bottom-{k_sketch} sketches on one live-edge snapshot:");
    println!(
        "   exact reachable sets   : {} vertex entries",
        exact.iter().sum::<usize>()
    );
    println!(
        "   sketch storage         : {} ranks (≤ k·n = {})",
        sketches.stored_ranks(),
        k_sketch * graph.num_vertices()
    );
    println!(
        "   mean |error|           : {:.2} vertices",
        total_abs_err / n
    );
    println!("   max |error|            : {worst:.1} vertices\n");

    // --- 3. Coarsening -------------------------------------------------------
    // Promote the strongest edges to "certain" to mimic a network with
    // deterministic sub-structures, then contract.
    let boosted = ProbabilityModel::Uniform(1.0).assign(&Dataset::Karate.build(0));
    let coarse = coarsen_by_certain_edges(&boosted, 1.0);
    println!("3. coarsening Karate with all edges certain (the lossless extreme):");
    println!("   original vertices      : {}", boosted.num_vertices());
    println!("   supervertices          : {}", coarse.num_supervertices());
    println!(
        "   reduction ratio        : {:.1}%",
        100.0 * coarse.reduction_ratio()
    );
    let largest = coarse.sizes.iter().max().copied().unwrap_or(0);
    println!("   largest supervertex    : {largest} members");
    let full_reach = reachable_count(boosted.graph(), &[0]);
    println!(
        "   sanity: vertex 0 reaches {full_reach} vertices, its supervertex has size {}",
        coarse.sizes[coarse.membership[0] as usize]
    );
    println!("\nTake-away: RR-set compression gives a few-fold memory saving for free,");
    println!("sketches cap Snapshot's per-vertex state at k ranks with small error, and");
    println!("coarsening helps exactly when near-deterministic substructures exist.");
}
