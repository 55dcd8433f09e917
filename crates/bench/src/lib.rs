//! Shared fixtures for the Criterion benches.
//!
//! The bench targets in `benches/` time kernels and ablations: the CELF,
//! lazy/pruned, snapshot and space reductions, the parallel sampler, the LT
//! model, the heuristics, sample-number determination, `imdyn` delta
//! application and the serving engine's estimate path. The paper's tables and
//! figures are not benches: `imexp all --scale quick --json` regenerates them
//! as the committed `BENCH_paper.json`. The fixtures here keep the bench
//! bodies small and make sure every bench uses the same instances and seeds,
//! so numbers are comparable across benches.

use imexp::{InstanceConfig, PreparedInstance};
use imnet::{Dataset, ProbabilityModel};

/// The Karate club under a given probability model, with a medium oracle.
#[must_use]
pub fn karate(model: ProbabilityModel) -> PreparedInstance {
    PreparedInstance::prepare(InstanceConfig::new(Dataset::Karate, model), 50_000, 17)
}

/// A scaled-down ca-GrQc analog (factor 8) under a given probability model.
#[must_use]
pub fn grqc_small(model: ProbabilityModel) -> PreparedInstance {
    PreparedInstance::prepare(
        InstanceConfig::scaled(Dataset::CaGrQc, model, 8),
        50_000,
        17,
    )
}

/// The BA_d synthetic network under a given probability model.
#[must_use]
pub fn ba_dense(model: ProbabilityModel) -> PreparedInstance {
    PreparedInstance::prepare(InstanceConfig::new(Dataset::BaDense, model), 50_000, 17)
}

/// The BA_s synthetic network under a given probability model.
#[must_use]
pub fn ba_sparse(model: ProbabilityModel) -> PreparedInstance {
    PreparedInstance::prepare(InstanceConfig::new(Dataset::BaSparse, model), 50_000, 17)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let k = karate(ProbabilityModel::uc01());
        assert_eq!(k.graph.num_vertices(), 34);
        let g = grqc_small(ProbabilityModel::OutDegreeWeighted);
        assert!(g.graph.num_vertices() < 1_000);
    }
}
