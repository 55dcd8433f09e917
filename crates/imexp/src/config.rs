//! Experiment configuration.

use imnet::{Dataset, DatasetSpec, ProbabilityModel};
use serde::{Deserialize, Serialize};

/// One of the three algorithmic approaches, without a sample number attached
/// (the sweep attaches the sample number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ApproachKind {
    /// Monte-Carlo simulation on the spot (sample number β).
    Oneshot,
    /// Pre-sampled live-edge graphs (sample number τ).
    Snapshot,
    /// Reverse influence sampling (sample number θ).
    Ris,
}

impl ApproachKind {
    /// All three approaches, in the paper's order.
    #[must_use]
    pub fn all() -> [ApproachKind; 3] {
        [
            ApproachKind::Oneshot,
            ApproachKind::Snapshot,
            ApproachKind::Ris,
        ]
    }

    /// The paper's display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ApproachKind::Oneshot => "Oneshot",
            ApproachKind::Snapshot => "Snapshot",
            ApproachKind::Ris => "RIS",
        }
    }

    /// Attach a sample number, producing a runnable [`im_core::Algorithm`].
    #[must_use]
    pub fn with_sample_number(&self, s: u64) -> im_core::Algorithm {
        match self {
            ApproachKind::Oneshot => im_core::Algorithm::Oneshot { beta: s },
            ApproachKind::Snapshot => im_core::Algorithm::Snapshot { tau: s },
            ApproachKind::Ris => im_core::Algorithm::Ris { theta: s },
        }
    }
}

impl std::fmt::Display for ApproachKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A problem instance: which network, which edge-probability model, which
/// dataset generation seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceConfig {
    /// The dataset build specification (size included).
    pub spec: DatasetSpec,
    /// The edge-probability model.
    pub model: ProbabilityModel,
    /// Seed for the dataset generator (analogs only; exact data ignore it).
    pub dataset_seed: u64,
}

impl InstanceConfig {
    /// An instance at the default specification of `dataset`.
    #[must_use]
    pub fn new(dataset: Dataset, model: ProbabilityModel) -> Self {
        Self {
            spec: dataset.spec(),
            model,
            dataset_seed: 0,
        }
    }

    /// An instance scaled down by `factor` (see [`DatasetSpec::scaled`]).
    #[must_use]
    pub fn scaled(dataset: Dataset, model: ProbabilityModel, factor: usize) -> Self {
        Self {
            spec: DatasetSpec::scaled(dataset, factor),
            model,
            dataset_seed: 0,
        }
    }

    /// Human-readable label like `Karate (uc0.1)`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} ({})", self.spec.dataset.name(), self.model.label())
    }
}

/// The sweep a driver runs per instance and approach: which sample numbers,
/// how many trials each, from which base seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// The sample numbers to evaluate (powers of two in the paper).
    pub sample_numbers: Vec<u64>,
    /// Number of independent trials per sample number (`T`).
    pub trials: usize,
    /// Base seed; trial `i` at sweep position `j` derives its own seed.
    pub base_seed: u64,
    /// Worker threads spreading the trials: `0` = one per core, `1` =
    /// sequential, `n` = exactly `n` workers. The thread count never changes
    /// the outcomes (each trial derives its own seed).
    pub threads: usize,
}

impl SweepConfig {
    /// Sample numbers `2^0 .. 2^max_exponent`.
    #[must_use]
    pub fn powers_of_two(max_exponent: u32, trials: usize) -> Self {
        Self {
            sample_numbers: (0..=max_exponent).map(|e| 1u64 << e).collect(),
            trials,
            base_seed: 0x0B5E_55ED,
            threads: 0,
        }
    }

    /// Replace the base seed (builder style).
    #[must_use]
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Set the worker-thread knob (builder style; `0` = one per core).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Keep only sample numbers `≤ cap` (the per-approach caps differ: β and τ
    /// go up to 2¹⁶ in the paper, θ up to 2²⁴).
    #[must_use]
    pub fn capped_at(&self, cap: u64) -> Self {
        Self {
            sample_numbers: self
                .sample_numbers
                .iter()
                .copied()
                .filter(|&s| s <= cap)
                .collect(),
            trials: self.trials,
            base_seed: self.base_seed,
            threads: self.threads,
        }
    }
}

/// How large an experiment to run. The paper's full protocol (1,000 trials,
/// sample numbers to 2²⁴, 10⁷-RR-set oracle) takes days; the quick scale keeps
/// every driver under a few seconds so tests and benches stay fast, while the
/// paper scale approaches the original protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// Small trial counts and sample caps — seconds per driver.
    Quick,
    /// Intermediate scale — minutes per driver.
    Standard,
    /// Close to the paper's protocol — hours per driver.
    Paper,
}

impl ExperimentScale {
    /// The scale's name on the command line (`--scale quick`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentScale::Quick => "quick",
            ExperimentScale::Standard => "standard",
            ExperimentScale::Paper => "paper",
        }
    }

    /// Trials per configuration on small networks (`T` in the paper: 1,000).
    #[must_use]
    pub fn trials_small(&self) -> usize {
        match self {
            ExperimentScale::Quick => 50,
            ExperimentScale::Standard => 200,
            ExperimentScale::Paper => 1_000,
        }
    }

    /// Trials per configuration on the ⋆-marked large networks (paper: 20).
    #[must_use]
    pub fn trials_large(&self) -> usize {
        match self {
            ExperimentScale::Quick => 5,
            ExperimentScale::Standard => 10,
            ExperimentScale::Paper => 20,
        }
    }

    /// Maximum exponent of the Oneshot/Snapshot sample-number sweep
    /// (paper: 16).
    #[must_use]
    pub fn max_exponent_simulation(&self) -> u32 {
        match self {
            ExperimentScale::Quick => 7,
            ExperimentScale::Standard => 12,
            ExperimentScale::Paper => 16,
        }
    }

    /// Maximum exponent of the RIS sample-number sweep (paper: 24).
    #[must_use]
    pub fn max_exponent_ris(&self) -> u32 {
        match self {
            ExperimentScale::Quick => 12,
            ExperimentScale::Standard => 16,
            ExperimentScale::Paper => 24,
        }
    }

    /// Size of the shared influence-oracle RR-set pool (paper: 10⁷).
    #[must_use]
    pub fn oracle_pool(&self) -> usize {
        match self {
            ExperimentScale::Quick => 100_000,
            ExperimentScale::Standard => 1_000_000,
            ExperimentScale::Paper => 10_000_000,
        }
    }

    /// Scale-down factor applied to analog data sets larger than Physicians
    /// so the quick drivers stay interactive (1 = original analog size).
    #[must_use]
    pub fn analog_scale_factor(&self) -> usize {
        match self {
            ExperimentScale::Quick => 8,
            ExperimentScale::Standard => 2,
            ExperimentScale::Paper => 1,
        }
    }

    /// Default sweep for Oneshot/Snapshot on this scale.
    #[must_use]
    pub fn simulation_sweep(&self, trials: usize) -> SweepConfig {
        SweepConfig::powers_of_two(self.max_exponent_simulation(), trials)
    }

    /// Default sweep for RIS on this scale.
    #[must_use]
    pub fn ris_sweep(&self, trials: usize) -> SweepConfig {
        SweepConfig::powers_of_two(self.max_exponent_ris(), trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approach_kind_round_trip() {
        assert_eq!(ApproachKind::all().len(), 3);
        assert_eq!(ApproachKind::Oneshot.name(), "Oneshot");
        assert_eq!(format!("{}", ApproachKind::Ris), "RIS");
        assert_eq!(
            ApproachKind::Snapshot.with_sample_number(7),
            im_core::Algorithm::Snapshot { tau: 7 }
        );
        assert_eq!(
            ApproachKind::Oneshot.with_sample_number(3).sample_number(),
            3
        );
        assert_eq!(
            ApproachKind::Ris.with_sample_number(9),
            im_core::Algorithm::Ris { theta: 9 }
        );
    }

    #[test]
    fn instance_labels() {
        let c = InstanceConfig::new(Dataset::Karate, ProbabilityModel::uc01());
        assert_eq!(c.label(), "Karate (uc0.1)");
        let scaled =
            InstanceConfig::scaled(Dataset::WikiVote, ProbabilityModel::InDegreeWeighted, 10);
        assert!(scaled.spec.num_vertices < Dataset::WikiVote.spec().num_vertices);
        assert_eq!(scaled.label(), "Wiki-Vote (iwc)");
    }

    #[test]
    fn sweep_powers_of_two() {
        let sweep = SweepConfig::powers_of_two(4, 10);
        assert_eq!(sweep.sample_numbers, vec![1, 2, 4, 8, 16]);
        assert_eq!(sweep.trials, 10);
        let capped = sweep.capped_at(5);
        assert_eq!(capped.sample_numbers, vec![1, 2, 4]);
        let reseeded = capped.with_base_seed(7).with_threads(1);
        assert_eq!(reseeded.base_seed, 7);
        assert_eq!(reseeded.threads, 1);
        assert_eq!(reseeded.with_threads(4).threads, 4);
    }

    #[test]
    fn scales_are_ordered() {
        let quick = ExperimentScale::Quick;
        let paper = ExperimentScale::Paper;
        assert!(quick.trials_small() < paper.trials_small());
        assert!(quick.trials_large() < paper.trials_large());
        assert!(quick.max_exponent_simulation() < paper.max_exponent_simulation());
        assert!(quick.max_exponent_ris() < paper.max_exponent_ris());
        assert!(quick.oracle_pool() < paper.oracle_pool());
        assert!(quick.analog_scale_factor() > paper.analog_scale_factor());
        assert_eq!(paper.trials_small(), 1_000, "the paper runs 1,000 trials");
        assert_eq!(
            paper.max_exponent_ris(),
            24,
            "θ goes up to 2^24 in the paper"
        );
    }

    #[test]
    fn scale_default_sweeps() {
        let s = ExperimentScale::Quick;
        assert_eq!(
            s.simulation_sweep(5).sample_numbers.len() as u32,
            s.max_exponent_simulation() + 1
        );
        assert_eq!(
            s.ris_sweep(5).sample_numbers.len() as u32,
            s.max_exponent_ris() + 1
        );
    }
}
