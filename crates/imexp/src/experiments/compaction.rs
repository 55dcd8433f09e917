//! The `compaction` driver: index-lifecycle cost sweep (extension).
//!
//! A long-lived influence service pays three distinct maintenance costs: the
//! *apply* cost of landing mutations in the RR-set pool, the *compact* cost
//! of folding the pending delta log into the snapshot watermark, and — if it
//! had neither — the *rebuild* cost of resampling the whole pool. This driver
//! sweeps mutation **batch size × compaction threshold** on a
//! structural-delta-heavy workload (the regime where the per-delta path pays
//! one CSR re-materialization per delta) and reports, per configuration, the
//! batched apply cost percentiles next to the per-delta path and the
//! from-scratch rebuild, plus what auto-compaction actually cost. Every
//! configuration ends by verifying `imdyn`'s byte-identity contract on the
//! final state.

use std::time::Instant;

use im_core::sampler::Backend;
use imdyn::{workload, CompactionPolicy, DynamicOracle};
use imgraph::MutableInfluenceGraph;
use imnet::{Dataset, ProbabilityModel};
use imrand::{derive_seed, Pcg32};
use imstats::SummaryStats;

use crate::config::ExperimentScale;
use crate::experiments::{instance_for, ExperimentReport};
use crate::report::{fmt_float, TextTable};

/// Mutation-batch sizes swept per instance.
const BATCH_SIZES: [usize; 4] = [1, 4, 16, 64];

/// Compaction log-length thresholds swept per batch size (`None` = never).
const THRESHOLDS: [Option<usize>; 3] = [None, Some(16), Some(64)];

/// Structural deltas fed through every configuration.
const TOTAL_DELTAS: usize = 64;

/// Base seed of the pool builds and mutation workloads.
const BASE_SEED: u64 = 31;

/// Pool size per scale (same ladder as the `evolve` driver).
fn pool_for(scale: ExperimentScale) -> usize {
    match scale {
        ExperimentScale::Quick => 20_000,
        ExperimentScale::Standard => 100_000,
        ExperimentScale::Paper => 1_000_000,
    }
}

/// The instances the driver sweeps: the exact Karate network plus, beyond
/// quick scale, the BA_d analog under a weighted cascade.
fn instances(scale: ExperimentScale) -> Vec<(Dataset, ProbabilityModel)> {
    let mut all = vec![(Dataset::Karate, ProbabilityModel::uc01())];
    if scale != ExperimentScale::Quick {
        all.push((Dataset::BaDense, ProbabilityModel::InDegreeWeighted));
    }
    all
}

/// Run the lifecycle sweep at the given scale.
#[must_use]
pub fn run(scale: ExperimentScale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "compaction",
        "batched mutation and delta-log compaction vs per-delta apply and full rebuild \
         (extension)",
    );
    let pool = pool_for(scale);
    for (dataset, model) in instances(scale) {
        let instance = instance_for(dataset, model, scale);
        let graph = instance
            .spec
            .influence_graph(instance.model, instance.dataset_seed);
        let mut table = TextTable::new(
            format!(
                "{} — pool {pool}, n = {}, m = {}, {TOTAL_DELTAS} structural deltas",
                instance.label(),
                graph.num_vertices(),
                graph.num_edges()
            ),
            &[
                "batch",
                "compact@",
                "apply µs/delta (median)",
                "apply µs/delta (p99)",
                "per-delta µs/delta (median)",
                "batch speedup",
                "compactions",
                "compact µs (mean)",
                "rebuild µs",
            ],
        );

        // One shared base state and one reference rebuild timing per
        // instance: what every configuration would pay without maintenance.
        let rebuild_started = Instant::now();
        let reference = DynamicOracle::build(graph.clone(), pool, BASE_SEED, Backend::Sequential);
        let rebuild_micros = rebuild_started.elapsed().as_secs_f64() * 1e6;
        // The edge-list reference model the workload draws valid deltas from.
        let model = MutableInfluenceGraph::from_graph(&graph);

        for (batch_index, &batch) in BATCH_SIZES.iter().enumerate() {
            // The workload is fixed per batch size, so threshold rows of the
            // same batch size are directly comparable.
            let mut rng = Pcg32::seed_from_u64(derive_seed(BASE_SEED, batch_index as u64));
            let deltas = workload::random_structural_deltas(&model, TOTAL_DELTAS, &mut rng);

            // The per-delta reference: same deltas, one CSR rebuild each.
            let mut per_delta = reference.clone();
            let mut per_delta_latencies = Vec::with_capacity(TOTAL_DELTAS);
            for delta in &deltas {
                let started = Instant::now();
                per_delta.apply(*delta).expect("workload deltas are valid");
                per_delta_latencies.push(started.elapsed().as_secs_f64() * 1e6);
            }
            let per_delta_stats = SummaryStats::from_values(&per_delta_latencies);

            for &threshold in &THRESHOLDS {
                let policy = match threshold {
                    Some(len) => CompactionPolicy::log_len(len),
                    None => CompactionPolicy::DISABLED,
                };
                let mut dynamic = reference.clone().with_policy(policy);
                let mut apply_latencies = Vec::with_capacity(TOTAL_DELTAS / batch + 1);
                let mut compact_latencies: Vec<f64> = Vec::new();
                for chunk in deltas.chunks(batch) {
                    let started = Instant::now();
                    dynamic
                        .apply_batch(chunk)
                        .expect("workload deltas are valid");
                    // Per-delta share of the batch's cost, so rows with
                    // different batch sizes stay comparable.
                    apply_latencies
                        .push(started.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64);
                    let started = Instant::now();
                    if dynamic.maybe_compact().is_some() {
                        compact_latencies.push(started.elapsed().as_secs_f64() * 1e6);
                    }
                }
                let apply_stats = SummaryStats::from_values(&apply_latencies);
                let compactions = dynamic.stats().compactions;
                let compact_mean = if compact_latencies.is_empty() {
                    0.0
                } else {
                    compact_latencies.iter().sum::<f64>() / compact_latencies.len() as f64
                };
                table.add_row(vec![
                    batch.to_string(),
                    threshold.map_or_else(|| "never".to_string(), |t| t.to_string()),
                    fmt_float(apply_stats.median),
                    fmt_float(apply_stats.p99),
                    fmt_float(per_delta_stats.median),
                    fmt_float(per_delta_stats.median / apply_stats.median.max(1e-9)),
                    compactions.to_string(),
                    fmt_float(compact_mean),
                    fmt_float(rebuild_micros),
                ]);

                // Lifecycle invariants, per configuration: the batched,
                // policy-compacted state equals both the per-delta state and
                // a from-scratch rebuild, and compaction never moved the
                // epoch.
                assert_eq!(
                    dynamic.oracle().to_bytes(),
                    per_delta.oracle().to_bytes(),
                    "batched path diverged from per-delta path on {}",
                    instance.label()
                );
                assert_eq!(dynamic.epoch(), TOTAL_DELTAS as u64);
                assert!(
                    dynamic.matches_rebuild(),
                    "maintained pool diverged from rebuild on {}",
                    instance.label()
                );
            }
        }
        report.tables.push(table);
        report.notes.push(format!(
            "{}: every (batch, threshold) configuration ends byte-identical to both the \
             per-delta path and a from-scratch rebuild at epoch {TOTAL_DELTAS}; compaction \
             is pure bookkeeping and never moves the epoch",
            instance.label()
        ));
    }
    report.notes.push(
        "structural deltas force a CSR re-materialization per delta on the per-delta path \
         but only one per batch on apply_batch; the speedup column is that effect plus \
         dirty-union resampling (a set dirtied by k deltas resamples once, not k times)"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_sweeps_every_configuration_and_verifies_equivalence() {
        let report = run(ExperimentScale::Quick);
        assert_eq!(report.id, "compaction");
        assert_eq!(report.tables.len(), 1, "quick scale sweeps Karate only");
        assert_eq!(
            report.tables[0].num_rows(),
            BATCH_SIZES.len() * THRESHOLDS.len()
        );
        assert!(
            report.notes.iter().any(|n| n.contains("byte-identical")),
            "the equivalence note must be present: {:?}",
            report.notes
        );
    }
}
