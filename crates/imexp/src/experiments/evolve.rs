//! The `evolve` driver: evolving-network influence queries (extension).
//!
//! The paper's workloads are static — build once, query forever. This driver
//! opens the evolving-graph workload the `imdyn` subsystem enables: sweep
//! mutation-batch sizes against a served-size RR-set pool and report, per
//! rate, the incremental maintenance cost (dirty sets resampled, per-delta
//! latency percentiles via `imstats`) next to the cost of the from-scratch
//! rebuild each mutation would otherwise force, plus the measured speedup.
//! Every sweep ends by verifying `imdyn`'s byte-identity contract on the
//! final state.

use std::time::Instant;

use im_core::sampler::Backend;
use imdyn::{workload, DynamicOracle};
use imgraph::MutableInfluenceGraph;
use imnet::{Dataset, ProbabilityModel};
use imrand::{derive_seed, Pcg32};
use imstats::SummaryStats;

use crate::config::ExperimentScale;
use crate::experiments::{instance_for, ExperimentReport};
use crate::report::{fmt_float, TextTable};

/// Mutation-batch sizes swept per instance.
const RATES: [usize; 4] = [1, 4, 16, 64];

/// Base seed of the pool builds and mutation workloads.
const BASE_SEED: u64 = 29;

/// Pool size for the dynamic oracle: large enough that a rebuild visibly
/// dominates maintenance, small enough that the quick scale stays in the
/// seconds range.
fn pool_for(scale: ExperimentScale) -> usize {
    match scale {
        ExperimentScale::Quick => 20_000,
        ExperimentScale::Standard => 100_000,
        ExperimentScale::Paper => 1_000_000,
    }
}

/// The instances the driver evolves: the exact Karate network plus, beyond
/// quick scale, the BA_d analog under a weighted cascade.
fn instances(scale: ExperimentScale) -> Vec<(Dataset, ProbabilityModel)> {
    let mut all = vec![(Dataset::Karate, ProbabilityModel::uc01())];
    if scale != ExperimentScale::Quick {
        all.push((Dataset::BaDense, ProbabilityModel::InDegreeWeighted));
    }
    all
}

/// Run the evolving-network sweep at the given scale.
#[must_use]
pub fn run(scale: ExperimentScale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "evolve",
        "incremental RR-set maintenance vs full rebuild under graph mutation (extension)",
    );
    let pool = pool_for(scale);
    for (dataset, model) in instances(scale) {
        let instance = instance_for(dataset, model, scale);
        let graph = instance
            .spec
            .influence_graph(instance.model, instance.dataset_seed);
        let mut table = TextTable::new(
            format!(
                "{} — pool {pool}, n = {}, m = {}",
                instance.label(),
                graph.num_vertices(),
                graph.num_edges()
            ),
            &[
                "deltas",
                "resampled sets",
                "apply µs (median)",
                "apply µs (mean)",
                "apply µs (p99)",
                "rebuild µs",
                "speedup (rebuild / mean apply)",
            ],
        );

        // One shared reference rebuild timing per instance: what every
        // mutation would cost without incremental maintenance.
        let rebuild_started = Instant::now();
        let reference = DynamicOracle::build(graph.clone(), pool, BASE_SEED, Backend::Sequential);
        let rebuild_micros = rebuild_started.elapsed().as_secs_f64() * 1e6;

        for (rate_index, &rate) in RATES.iter().enumerate() {
            let mut dynamic = reference.clone();
            // The edge-list reference model the workload draws valid deltas
            // from, fed the same deltas as the engine.
            let mut model = MutableInfluenceGraph::from_graph(&graph);
            let mut rng = Pcg32::seed_from_u64(derive_seed(BASE_SEED, rate_index as u64));
            let mut latencies = Vec::with_capacity(rate);
            let mut resampled_total = 0u64;
            for _ in 0..rate {
                let delta = workload::random_delta(&model, &mut rng);
                let started = Instant::now();
                let outcome = dynamic.apply(delta).expect("workload deltas are valid");
                latencies.push(started.elapsed().as_secs_f64() * 1e6);
                model.apply(&delta).expect("workload deltas are valid");
                resampled_total += outcome.resampled as u64;
            }
            let stats = SummaryStats::from_values(&latencies);
            table.add_row(vec![
                rate.to_string(),
                resampled_total.to_string(),
                fmt_float(stats.median),
                fmt_float(stats.mean),
                fmt_float(stats.p99),
                fmt_float(rebuild_micros),
                fmt_float(rebuild_micros / stats.mean.max(1e-9)),
            ]);
            if rate == *RATES.last().expect("rates are non-empty") {
                let consistent = dynamic.matches_rebuild();
                assert!(
                    consistent,
                    "maintained pool diverged from rebuild on {}",
                    instance.label()
                );
                report.notes.push(format!(
                    "{}: after {} deltas the maintained pool is byte-identical to a \
                     from-scratch rebuild (epoch {}, {} sets resampled lifetime)",
                    instance.label(),
                    rate,
                    dynamic.epoch(),
                    dynamic.stats().sets_resampled
                ));
            }
        }
        report.tables.push(table);
    }
    report.notes.push(
        "timings are wall-clock on the current machine; the speedup column is the \
         quantity of interest (resampled sets scale with pool·Inf(head)/n, the \
         rebuild with the whole pool)"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evolve_reports_every_rate_and_verifies_equivalence() {
        let report = run(ExperimentScale::Quick);
        assert_eq!(report.id, "evolve");
        assert_eq!(report.tables.len(), 1, "quick scale evolves Karate only");
        assert_eq!(report.tables[0].num_rows(), RATES.len());
        assert!(
            report.notes.iter().any(|n| n.contains("byte-identical")),
            "the equivalence note must be present: {:?}",
            report.notes
        );
    }
}
