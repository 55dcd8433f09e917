//! Drivers for the extensions beyond the paper's evaluation: the §3.6
//! heuristic baselines and the §7 sample-number-determination direction.
//!
//! Both drivers follow the same conventions as the per-table/figure drivers —
//! they return an [`ExperimentReport`] with rendered tables — so the `imexp`
//! binary and the tests can treat them uniformly.

use im_core::determination::{determine_all_sample_numbers, AccuracyTarget};
use imheur::{
    DegreeDiscount, IrieSelector, MaxDegree, PageRankSelector, RandomSelector, SeedSelector,
    SingleDiscount, WeightedDegree,
};
use imnet::{Dataset, ProbabilityModel};
use imrand::default_rng;
use imsketch::SketchGreedy;

use crate::config::{ApproachKind, ExperimentScale};
use crate::experiments::{instance_for, least_samples, ExperimentReport};
use crate::report::{fmt_float, fmt_option, TextTable};
use crate::runner::PreparedInstance;

/// The instances both extension drivers evaluate: one real network and one
/// synthetic, under a uniform and a weighted cascade. The quick scale keeps
/// only the Karate instances so the drivers (and the test suite that runs
/// them) stay in the seconds range; the BA_d instances join at standard scale.
fn extension_instances(scale: ExperimentScale) -> Vec<(Dataset, ProbabilityModel, usize)> {
    let all = vec![
        (Dataset::Karate, ProbabilityModel::uc01(), 2),
        (Dataset::Karate, ProbabilityModel::InDegreeWeighted, 2),
        (Dataset::BaDense, ProbabilityModel::uc001(), 8),
        (Dataset::BaDense, ProbabilityModel::InDegreeWeighted, 8),
    ];
    let keep = match scale {
        ExperimentScale::Quick => 2,
        _ => 4,
    };
    all.into_iter().take(keep).collect()
}

/// The §3.6 heuristics driver: score every heuristic baseline, the sketch-space
/// greedy and one RIS run against the shared oracle's greedy reference.
#[must_use]
pub fn heuristics(scale: ExperimentScale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "heuristics",
        "Section 3.6 heuristic baselines vs oracle greedy and RIS (extension)",
    );
    for (dataset, model, k) in extension_instances(scale) {
        let instance =
            PreparedInstance::prepare(instance_for(dataset, model, scale), scale.oracle_pool(), 17);
        let (_, greedy_influence) = instance.exact_greedy(k);
        let mut table = TextTable::new(
            format!(
                "{} — k = {k}, oracle greedy = {}",
                instance.label(),
                fmt_float(greedy_influence)
            ),
            &["method", "influence", "% of greedy", "edges touched"],
        );
        let selectors: Vec<(&str, Box<dyn SeedSelector>)> = vec![
            ("MaxDegree", Box::new(MaxDegree)),
            ("WeightedDegree", Box::new(WeightedDegree)),
            ("SingleDiscount", Box::new(SingleDiscount)),
            (
                "DegreeDiscount",
                Box::new(DegreeDiscount::with_mean_probability(&instance.graph)),
            ),
            ("PageRank", Box::new(PageRankSelector::default())),
            ("IRIE", Box::new(IrieSelector::default())),
            ("Random", Box::new(RandomSelector::new(1))),
        ];
        for (name, selector) in &selectors {
            let result = selector.select(&instance.graph, k);
            let influence = instance.oracle.estimate(&result.seeds);
            table.add_row(vec![
                (*name).to_string(),
                fmt_float(influence),
                fmt_float(100.0 * influence / greedy_influence),
                result.edges_examined.to_string(),
            ]);
        }
        let sketch = SketchGreedy::new(32, 16).select(&instance.graph, k, &mut default_rng(5));
        let sketch_influence = instance.oracle.estimate(&sketch.seeds);
        table.add_row(vec![
            "SketchGreedy".to_string(),
            fmt_float(sketch_influence),
            fmt_float(100.0 * sketch_influence / greedy_influence),
            sketch.traversal_cost.to_string(),
        ]);
        let ris = ApproachKind::Ris
            .with_sample_number(8_192)
            .run(&instance.graph, k, 3);
        let ris_influence = instance.oracle.estimate_seed_set(&ris.seeds);
        table.add_row(vec![
            "RIS(θ=8192)".to_string(),
            fmt_float(ris_influence),
            fmt_float(100.0 * ris_influence / greedy_influence),
            ris.traversal_cost.edges.to_string(),
        ]);
        report.tables.push(table);
    }
    report.notes.push(
        "The paper sets heuristics aside as 'faster but less influential' (Section 3.6); \
         this table quantifies both halves of that sentence on the shared oracle."
            .to_string(),
    );
    report
}

/// The §7 determination driver: worst-case sample numbers (θ from IMM, β/τ via
/// the adapted bounds) next to the empirical least sample numbers of Table 5.
#[must_use]
pub fn determination(scale: ExperimentScale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "determination",
        "Section 7 open direction: worst-case sample-number determination vs empirical requirement",
    );
    let criterion = least_samples::NearOptimalCriterion {
        quality_fraction: 0.95,
        confidence: 0.9,
    };
    let mut table = TextTable::new(
        "determined (ε = 0.1, δ = 0.05) vs empirical least sample numbers",
        &[
            "instance",
            "k",
            "OPT lower bound",
            "θ det.",
            "β det.",
            "τ det.",
            "β*",
            "τ*",
            "θ*",
        ],
    );
    for (dataset, model, k) in extension_instances(scale) {
        // The weighted BA_d instance repeats the bound-gap story without new
        // information and dominates the driver's runtime at quick scale.
        if dataset == Dataset::BaDense && model == ProbabilityModel::InDegreeWeighted {
            continue;
        }
        let instance =
            PreparedInstance::prepare(instance_for(dataset, model, scale), scale.oracle_pool(), 17);
        let target = AccuracyTarget {
            epsilon: 0.1,
            delta: 0.05,
            k,
        };
        let determined =
            determine_all_sample_numbers(&instance.graph, &target, &mut default_rng(3));
        let empirical = least_samples::least_sample_numbers(
            &instance,
            k,
            scale,
            scale.trials_small().min(50),
            criterion,
        );
        table.add_row(vec![
            instance.label(),
            k.to_string(),
            fmt_float(determined.opt_lower_bound),
            fmt_float(determined.theta),
            fmt_float(determined.beta),
            fmt_float(determined.tau),
            fmt_option(empirical[0].least_sample_number),
            fmt_option(empirical[1].least_sample_number),
            fmt_option(empirical[2].least_sample_number),
        ]);
    }
    report.tables.push(table);
    report.notes.push(
        "Determined numbers are worst-case guarantees computed from an RIS-estimated optimum; \
         the starred columns are the empirical least sample numbers under the Table 5 criterion. \
         The gap of several orders of magnitude mirrors Section 5.2.1."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristics_driver_produces_one_table_per_instance() {
        let report = heuristics(ExperimentScale::Quick);
        assert_eq!(report.id, "heuristics");
        assert_eq!(
            report.tables.len(),
            extension_instances(ExperimentScale::Quick).len()
        );
        for table in &report.tables {
            assert_eq!(table.num_rows(), 9, "7 heuristics + sketch greedy + RIS");
        }
        assert!(!report.notes.is_empty());
    }

    #[test]
    fn determination_driver_reports_the_bound_gap() {
        let report = determination(ExperimentScale::Quick);
        assert_eq!(report.id, "determination");
        assert_eq!(report.tables.len(), 1);
        assert!(report.tables[0].num_rows() >= 2);
        let rendered = report.render();
        assert!(rendered.contains("OPT lower bound"));
    }
}
