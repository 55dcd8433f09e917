//! Influence maximization under the linear threshold model.
//!
//! ```text
//! cargo run --release --example linear_threshold
//! ```
//!
//! The paper's experiments use the independent cascade (IC) model, but its
//! three algorithmic approaches only need an unbiased influence estimator, so
//! the same estimators run under the linear threshold (LT) model when built
//! with `under(Lt, …)`. This example runs LT-Oneshot, LT-Snapshot and LT-RIS
//! on the Karate club with the in-degree weighted cascade (whose weights sum
//! to exactly 1 per vertex — the canonical LT weight assignment), compares the
//! seed sets and influence they find, and contrasts the LT spread with the IC
//! spread of the same seeds.

use im_core::lt::{monte_carlo_lt_influence, weights_are_valid};
use im_core::{greedy_select, Lt};
use im_study::prelude::*;

fn main() {
    let k = 3;
    let graph = Dataset::Karate.influence_graph(ProbabilityModel::InDegreeWeighted, 0);
    assert!(
        weights_are_valid(&graph, 1e-9),
        "iwc weights satisfy the LT constraint"
    );
    println!(
        "instance: Karate (iwc as LT weights), n = {}, m = {}, k = {k}\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Reference: a large LT Monte-Carlo evaluation reused for every seed set.
    let mut eval_rng = default_rng(1);
    let mut evaluate =
        |seeds: &[VertexId]| monte_carlo_lt_influence(&graph, seeds, 20_000, &mut eval_rng);

    println!(
        "{:<14} {:>8} {:<22} {:>12} {:>14}",
        "approach", "samples", "seeds", "LT spread", "vertices cost"
    );

    // LT-Oneshot.
    let mut oneshot = OneshotEstimator::under(Lt, &graph, 256, default_rng(2));
    let oneshot_pick = greedy_select(&mut oneshot, k, &mut default_rng(3));
    let oneshot_seeds = oneshot_pick.seed_set();
    println!(
        "{:<14} {:>8} {:<22} {:>12.3} {:>14}",
        "LT-Oneshot",
        256,
        oneshot_seeds.to_string(),
        evaluate(oneshot_seeds.vertices()),
        oneshot.traversal_cost().vertices
    );

    // LT-Snapshot.
    let mut snapshot = SnapshotEstimator::under(Lt, &graph, 512, &mut default_rng(4), true);
    let snapshot_pick = greedy_select(&mut snapshot, k, &mut default_rng(5));
    let snapshot_seeds = snapshot_pick.seed_set();
    println!(
        "{:<14} {:>8} {:<22} {:>12.3} {:>14}",
        "LT-Snapshot",
        512,
        snapshot_seeds.to_string(),
        evaluate(snapshot_seeds.vertices()),
        snapshot.traversal_cost().vertices
    );

    // LT-RIS.
    let mut ris = RisEstimator::under(Lt, &graph, 65_536, &mut default_rng(6));
    let ris_pick = greedy_select(&mut ris, k, &mut default_rng(7));
    let ris_seeds = ris_pick.seed_set();
    println!(
        "{:<14} {:>8} {:<22} {:>12.3} {:>14}",
        "LT-RIS",
        65_536,
        ris_seeds.to_string(),
        evaluate(ris_seeds.vertices()),
        ris.traversal_cost().vertices
    );

    // How do the LT seeds fare under IC with the same probabilities?
    let mut ic_rng = default_rng(8);
    let ic_oracle = InfluenceOracle::builder(200_000).sample_with_rng(&graph, &mut ic_rng);
    println!("\nsame seeds evaluated under the IC model with identical edge parameters:");
    for (name, seeds) in [
        ("LT-Oneshot", &oneshot_seeds),
        ("LT-Snapshot", &snapshot_seeds),
        ("LT-RIS", &ris_seeds),
    ] {
        println!(
            "  {:<12} LT {:>7.3}   IC {:>7.3}",
            name,
            evaluate(seeds.vertices()),
            ic_oracle.estimate_seed_set(seeds)
        );
    }
    println!("\nUnder iwc the LT spread dominates the IC spread for the same seeds: LT lets");
    println!("incoming weights accumulate across neighbours, IC gives each edge an independent");
    println!("one-shot trial. The three LT estimators agree with each other, mirroring the");
    println!(
        "paper's IC finding that all approaches share the same limit behaviour (Section 5.1)."
    );
}
