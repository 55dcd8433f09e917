//! Golden outcomes of the paper's RIS (Algorithm 3.4) at θ = 4 096, k = 4.
//!
//! Each case draws one RIS estimator and pins what a greedy run over it
//! observes: the selection order, the internal estimates (as `f64` bits),
//! the traversal cost and sample size of Build, and the estimate of the
//! selected set over all RR sets. A second estimator drawn the same way is
//! driven by CELF++, the one caller of `estimate_with_pending`, whose
//! promotion count pins that path too.
//!
//! The cases cover both models and both sampling disciplines: IC on Karate
//! and on `BA_s` (uc0.1), LT on Karate under the in-degree weighted cascade,
//! each through the stream discipline (`RisEstimator::under`, one shared
//! generator) and the batched one (`under_backend` on the sequential
//! backend). Any change to how RR sets are drawn, stored or counted shows
//! here as a differing constant; a failing case prints the whole observed
//! outcome.

use im_core::celf_pp_select;
use im_core::ris::RisEstimator;
use im_core::{Diffusion, Ic, Lt};
use im_study::prelude::*;

const THETA: u64 = 4_096;
const K: usize = 4;

/// What one case observes.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    selection: Vec<VertexId>,
    estimate_bits: Vec<u64>,
    /// Build's traversal cost, `(vertices, edges)`.
    traversal: (u64, u64),
    /// Build's sample size, `(vertices, edges)`.
    sample_size: (u64, u64),
    /// `estimate_set` of the selection, as `f64` bits.
    union_bits: u64,
    /// CELF++ over an identically drawn estimator.
    celfpp_selection: Vec<VertexId>,
    celfpp_estimate_bits: Vec<u64>,
    /// CELF++'s `(estimate_calls, promotions)`.
    celfpp_calls: (u64, u64),
}

#[derive(Clone, Copy)]
enum Discipline {
    Stream,
    Batched,
}

fn draw<D: Diffusion>(model: D, graph: &InfluenceGraph, how: Discipline) -> RisEstimator {
    match how {
        Discipline::Stream => RisEstimator::under(model, graph, THETA, &mut default_rng(11)),
        Discipline::Batched => {
            RisEstimator::under_backend(model, graph, THETA, 11, Backend::Sequential)
        }
    }
}

fn observe<D: Diffusion>(model: D, graph: &InfluenceGraph, how: Discipline) -> Outcome {
    let mut est = draw(model, graph, how);
    let greedy = im_core::greedy_select(&mut est, K, &mut default_rng(12));
    let (cost, size) = (est.traversal_cost(), est.sample_size());
    let union = est.estimate_set(&greedy.selection_order);
    let mut lazy = draw(model, graph, how);
    let (celfpp, stats) = celf_pp_select(&mut lazy, K, &mut default_rng(12));
    let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect();
    Outcome {
        estimate_bits: bits(&greedy.estimates),
        selection: greedy.selection_order,
        traversal: (cost.vertices, cost.edges),
        sample_size: (size.vertices, size.edges),
        union_bits: union.to_bits(),
        celfpp_estimate_bits: bits(&celfpp.estimates),
        celfpp_selection: celfpp.selection_order,
        celfpp_calls: (stats.estimate_calls, stats.promotions),
    }
}

fn karate_uc() -> InfluenceGraph {
    Dataset::Karate.influence_graph(ProbabilityModel::uc01(), 0)
}

fn ba_s_uc() -> InfluenceGraph {
    Dataset::BaSparse.influence_graph(ProbabilityModel::uc01(), 0)
}

fn karate_iwc() -> InfluenceGraph {
    Dataset::Karate.influence_graph(ProbabilityModel::InDegreeWeighted, 0)
}

#[test]
fn ic_karate_stream() {
    let got = observe(Ic, &karate_uc(), Discipline::Stream);
    assert_eq!(
        got,
        Outcome {
            selection: vec![0, 33, 32, 1],
            estimate_bits: vec![
                4615126390310699008,
                4613743204682956800,
                4610753632567033856,
                4609295680148602880
            ],
            traversal: (8037, 45326),
            sample_size: (8037, 0),
            union_bits: 4621652266699456512,
            celfpp_selection: vec![0, 33, 32, 1],
            celfpp_estimate_bits: vec![
                4615126390310699008,
                4613743204682956800,
                4610753632567033856,
                4609295680148602880
            ],
            celfpp_calls: (125, 7),
        },
        "observed: {got:?}"
    );
}

#[test]
fn ic_karate_batched() {
    let got = observe(Ic, &karate_uc(), Discipline::Batched);
    assert_eq!(
        got,
        Outcome {
            selection: vec![0, 33, 2, 32],
            estimate_bits: vec![
                4615163773706043392,
                4613855354868989952,
                4610379798613590016,
                4608697545823092736
            ],
            traversal: (8076, 45653),
            sample_size: (8076, 0),
            union_bits: 4621568154059931648,
            celfpp_selection: vec![0, 33, 2, 32],
            celfpp_estimate_bits: vec![
                4615163773706043392,
                4613855354868989952,
                4610379798613590016,
                4608697545823092736
            ],
            celfpp_calls: (131, 5),
        },
        "observed: {got:?}"
    );
}

#[test]
fn ic_ba_s_stream() {
    let got = observe(Ic, &ba_s_uc(), Discipline::Stream);
    assert_eq!(
        got,
        Outcome {
            selection: vec![2, 5, 137, 368],
            estimate_bits: vec![
                4618008210287099904,
                4616358942845435904,
                4614329244380561408,
                4613779488566673408
            ],
            traversal: (4646, 5579),
            sample_size: (4646, 0),
            union_bits: 4625123150030438400,
            celfpp_selection: vec![2, 5, 137, 368],
            celfpp_estimate_bits: vec![
                4618008210287099904,
                4616358942845435904,
                4614329244380561408,
                4613779488566673408
            ],
            celfpp_calls: (2005, 1),
        },
        "observed: {got:?}"
    );
}

#[test]
fn ic_ba_s_batched() {
    let got = observe(Ic, &ba_s_uc(), Discipline::Batched);
    assert_eq!(
        got,
        Outcome {
            selection: vec![2, 84, 188, 271],
            estimate_bits: vec![
                4617733332380155904,
                4614329244380561408,
                4614329244380561408,
                4613779488566673408
            ],
            traversal: (4664, 5233),
            sample_size: (4664, 0),
            union_bits: 4624435955263078400,
            celfpp_selection: vec![2, 84, 188, 271],
            celfpp_estimate_bits: vec![
                4617733332380155904,
                4614329244380561408,
                4614329244380561408,
                4613779488566673408
            ],
            celfpp_calls: (2003, 1),
        },
        "observed: {got:?}"
    );
}

#[test]
fn lt_karate_stream() {
    let got = observe(Lt, &karate_iwc(), Discipline::Stream);
    assert_eq!(
        got,
        Outcome {
            selection: vec![33, 0, 32, 1],
            estimate_bits: vec![
                4623596203257364480,
                4621404601705299968,
                4614060963543384064,
                4612023568497115136
            ],
            traversal: (17751, 70582),
            sample_size: (17751, 0),
            union_bits: 4628468963913760768,
            celfpp_selection: vec![33, 0, 32, 1],
            celfpp_estimate_bits: vec![
                4623596203257364480,
                4621404601705299968,
                4614060963543384064,
                4612023568497115136
            ],
            celfpp_calls: (133, 1),
        },
        "observed: {got:?}"
    );
}

#[test]
fn lt_karate_batched() {
    let got = observe(Lt, &karate_iwc(), Discipline::Batched);
    assert_eq!(
        got,
        Outcome {
            selection: vec![33, 0, 32, 1],
            estimate_bits: vec![
                4623456015524823040,
                4621829837827342336,
                4614509564287516672,
                4610977932939100160
            ],
            traversal: (17842, 71085),
            sample_size: (17842, 0),
            union_bits: 4628581114099793920,
            celfpp_selection: vec![33, 0, 32, 1],
            celfpp_estimate_bits: vec![
                4623456015524823040,
                4621829837827342336,
                4614509564287516672,
                4610977932939100160
            ],
            celfpp_calls: (133, 1),
        },
        "observed: {got:?}"
    );
}
