//! One driver per table/figure of the paper's evaluation.
//!
//! | Driver | Paper content |
//! |---|---|
//! | [`table1`] | theoretical per-sample traversal-cost model (Table 1) |
//! | [`table3`] | network statistics (Table 3) |
//! | [`entropy::fig1`] | entropy decay on Karate, k ∈ {1, 4, 16} (Figure 1) |
//! | [`entropy::fig2`] | entropy plateaus (Figure 2) |
//! | [`entropy::fig3`] | entropy decay per probability model on BA_s/BA_d (Figure 3) |
//! | [`influence::table4`] | top-3 single-vertex influence (Table 4) |
//! | [`influence::fig4`] | influence box plots on Physicians (Figure 4) |
//! | [`least_samples::table5`] | least sample number for near-optimal seeds (Table 5) |
//! | [`influence::fig5`] | convergence contrast on ca-GrQc (Figure 5) |
//! | [`influence::fig6`] | mean vs SD / 1st percentile (Figure 6) |
//! | [`comparable::table6`] | Oneshot↔Snapshot comparable ratios (Figure 7, Table 6) |
//! | [`comparable::table7`] | RIS↔Snapshot comparable ratios (Figure 8, Table 7) |
//! | [`traversal::table8`] | per-sample traversal cost (Table 8) |
//! | [`traversal::table9`] | traversal cost at identical accuracy (Table 9) |
//! | [`least_samples::bound_gap`] | worst-case bound vs empirical gap (Section 5.2.1) |
//! | [`extensions::heuristics`] | §3.6 heuristic baselines vs oracle greedy (extension) |
//! | [`extensions::determination`] | §7 sample-number determination vs empirical requirement (extension) |
//! | [`evolve`] | incremental RR-set maintenance vs full rebuild under graph mutation (extension) |
//! | [`compaction`] | batched mutation + delta-log compaction vs per-delta apply and rebuild (extension) |

pub mod compaction;
pub mod comparable;
pub mod entropy;
pub mod evolve;
pub mod extensions;
pub mod influence;
pub mod least_samples;
pub mod table1;
pub mod table3;
pub mod traversal;

use imnet::{Dataset, DatasetSpec, ProbabilityModel};
use serde::{Deserialize, Serialize};

use crate::config::{ExperimentScale, InstanceConfig};
use crate::report::TextTable;

/// The result of one experiment driver: a set of text tables mirroring the
/// corresponding figure/table of the paper, plus free-form notes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Short identifier (`"fig1"`, `"table8"`, …).
    pub id: String,
    /// What the experiment reproduces.
    pub description: String,
    /// The rendered tables.
    pub tables: Vec<TextTable>,
    /// Free-form observations produced by the driver (convergence points,
    /// detected plateaus, …).
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Create an empty report.
    #[must_use]
    pub fn new(id: impl Into<String>, description: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            description: description.into(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Render every table and note as one text block.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n\n", self.id, self.description);
        for table in &self.tables {
            out.push_str(&table.render());
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str("note: ");
            out.push_str(note);
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// The paper's numbers as one document: what `imexp all --json` prints and
/// `BENCH_paper.json` commits. The reports keep their run order, which is
/// [`experiment_names`] order, and `invocation` is the command line that
/// regenerates the document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PaperDocument {
    /// The schema tag, `imexp-paper/v1`.
    pub schema: String,
    /// The `imexp` command line that printed this document.
    pub invocation: String,
    /// The scale every report ran at (`quick`, `standard` or `paper`).
    pub scale: String,
    /// One report per experiment, in run order.
    pub reports: Vec<ExperimentReport>,
}

impl PaperDocument {
    /// The document of an `imexp all --scale <scale> --json` run that
    /// produced `reports`.
    #[must_use]
    pub fn new(scale: ExperimentScale, reports: Vec<ExperimentReport>) -> Self {
        Self {
            schema: "imexp-paper/v1".to_string(),
            invocation: format!("imexp all --scale {} --json", scale.name()),
            scale: scale.name().to_string(),
            reports,
        }
    }
}

/// The dataset specification an experiment should use at a given scale:
/// exact data sets are untouched, analogs are scaled down by the scale's
/// factor (1 at paper scale).
#[must_use]
pub fn spec_for(dataset: Dataset, scale: ExperimentScale) -> DatasetSpec {
    let default = dataset.spec();
    if dataset.is_exact() || default.num_vertices <= 1_000 {
        default
    } else {
        let factor = scale.analog_scale_factor();
        if factor <= 1 {
            dataset.spec()
        } else {
            // Scale relative to the *default* spec (which already shrinks the
            // two web-scale networks), not the original Table 3 size.
            let default = dataset.spec();
            DatasetSpec {
                dataset,
                num_vertices: (default.num_vertices / factor).max(64),
                num_edges: (default.num_edges / factor).max(64),
            }
        }
    }
}

/// An instance configuration at the given scale.
#[must_use]
pub fn instance_for(
    dataset: Dataset,
    model: ProbabilityModel,
    scale: ExperimentScale,
) -> InstanceConfig {
    InstanceConfig {
        spec: spec_for(dataset, scale),
        model,
        dataset_seed: 0,
    }
}

/// Number of trials appropriate for a dataset at a scale (the paper uses
/// 1,000 for small networks and 20 for the ⋆-marked large ones).
#[must_use]
pub fn trials_for(dataset: Dataset, scale: ExperimentScale) -> usize {
    if dataset.is_large() {
        scale.trials_large()
    } else {
        scale.trials_small()
    }
}

/// The registry of all experiment drivers, in the order `imexp all` runs
/// them and `BENCH_paper.json` lists them.
#[must_use]
pub fn experiment_names() -> Vec<&'static str> {
    vec![
        "table1",
        "table3",
        "fig1",
        "fig2",
        "fig3",
        "table4",
        "fig4",
        "table5",
        "fig5",
        "fig6",
        "table6",
        "table7",
        "table8",
        "table9",
        "bound_gap",
        "heuristics",
        "determination",
        "evolve",
        "compaction",
    ]
}

/// Run an experiment by name. Returns `None` for unknown names.
#[must_use]
pub fn run_by_name(name: &str, scale: ExperimentScale) -> Option<ExperimentReport> {
    let report = match name {
        "table1" => table1::run(scale),
        "table3" => table3::run(scale),
        "fig1" => entropy::fig1(scale),
        "fig2" => entropy::fig2(scale),
        "fig3" => entropy::fig3(scale),
        "table4" => influence::table4(scale),
        "fig4" => influence::fig4(scale),
        "table5" => least_samples::table5(scale),
        "fig5" => influence::fig5(scale),
        "fig6" => influence::fig6(scale),
        "table6" => comparable::table6(scale),
        "table7" => comparable::table7(scale),
        "table8" => traversal::table8(scale),
        "table9" => traversal::table9(scale),
        "bound_gap" => least_samples::bound_gap(scale),
        "heuristics" => extensions::heuristics(scale),
        "determination" => extensions::determination(scale),
        "evolve" => evolve::run(scale),
        "compaction" => compaction::run(scale),
        _ => return None,
    };
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rendering_includes_tables_and_notes() {
        let mut report = ExperimentReport::new("demo", "demo experiment");
        let mut t = TextTable::new("T", &["a"]);
        t.add_row(vec!["1".into()]);
        report.tables.push(t);
        report.notes.push("something".into());
        let rendered = report.render();
        assert!(rendered.contains("== demo"));
        assert!(rendered.contains("note: something"));
        assert!(format!("{report}").contains("demo experiment"));
    }

    #[test]
    fn the_paper_document_embeds_its_invocation_and_keeps_report_order() {
        let reports = vec![
            ExperimentReport::new("table3", "network statistics"),
            ExperimentReport::new("fig1", "entropy decay"),
        ];
        let document = PaperDocument::new(ExperimentScale::Quick, reports);
        let json = serde_json::to_string_pretty(&document).unwrap();
        for field in [
            r#""schema": "imexp-paper/v1""#,
            r#""invocation": "imexp all --scale quick --json""#,
            r#""scale": "quick""#,
        ] {
            assert!(json.contains(field), "{field} in {json}");
        }
        let parsed: PaperDocument = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, document);
        let ids: Vec<&str> = parsed.reports.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["table3", "fig1"]);
        assert_eq!(
            PaperDocument::new(ExperimentScale::Standard, Vec::new()).invocation,
            "imexp all --scale standard --json"
        );
    }

    #[test]
    fn spec_for_scales_only_analogs() {
        let karate = spec_for(Dataset::Karate, ExperimentScale::Quick);
        assert_eq!(karate.num_vertices, 34);
        let wiki_quick = spec_for(Dataset::WikiVote, ExperimentScale::Quick);
        let wiki_paper = spec_for(Dataset::WikiVote, ExperimentScale::Paper);
        assert!(wiki_quick.num_vertices < wiki_paper.num_vertices);
        assert_eq!(wiki_paper.num_vertices, 7_115);
    }

    #[test]
    fn trials_distinguish_large_datasets() {
        assert_eq!(trials_for(Dataset::Karate, ExperimentScale::Paper), 1_000);
        assert_eq!(trials_for(Dataset::ComYoutube, ExperimentScale::Paper), 20);
    }

    #[test]
    fn registry_contains_every_paper_artifact() {
        let names = experiment_names();
        // 15 paper artifacts (Tables 1, 3–9, Figures 1–6 with 7/8 folded into
        // Tables 6/7, plus the bound-gap report) and 4 extension drivers.
        assert_eq!(names.len(), 19);
        assert!(names.contains(&"heuristics") && names.contains(&"determination"));
        assert!(names.contains(&"evolve") && names.contains(&"compaction"));
        assert!(run_by_name("definitely-not-an-experiment", ExperimentScale::Quick).is_none());
    }
}
