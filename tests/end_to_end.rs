//! Cross-crate integration tests: the full pipeline from data set to analysed
//! solution distribution, exercised through the public facade API.

use im_study::prelude::*;

/// The Karate club under uc0.1 with a shared oracle, the work-horse instance
/// of these tests (identical to the paper's smallest instance).
fn karate_instance() -> PreparedInstance {
    PreparedInstance::prepare(
        InstanceConfig::new(Dataset::Karate, ProbabilityModel::uc01()),
        60_000,
        1,
    )
}

#[test]
fn all_three_approaches_converge_to_the_same_seed_set_on_karate() {
    // Section 5.1: for a sufficiently large sample number the seed-set
    // distribution degenerates, and the limit set is the same for Oneshot,
    // Snapshot and RIS.
    let instance = karate_instance();
    let (exact, _) = instance.exact_greedy(1);

    // Sample numbers in the convergence regime of Figure 1a (the paper needed
    // β up to 2^16 before Oneshot's seed-set distribution degenerated; the two
    // most influential Karate vertices are close in influence).
    let algorithms = [
        Algorithm::Oneshot { beta: 32_768 },
        Algorithm::Snapshot { tau: 16_384 },
        Algorithm::Ris { theta: 131_072 },
    ];
    for algorithm in algorithms {
        let batch = instance.run_trials(algorithm, 1, 6, 77, true);
        let distribution = batch.seed_set_distribution();
        assert!(
            distribution.is_degenerate(),
            "{algorithm} should return a unique seed set at this sample number; got {} distinct",
            distribution.num_distinct()
        );
        let (modal, _) = distribution.mode().expect("non-empty distribution");
        assert_eq!(
            modal, &exact,
            "{algorithm} limit set should equal exact greedy"
        );
    }
}

#[test]
fn entropy_decreases_and_mean_influence_increases_with_sample_number() {
    // The two monotone trends behind Figures 1 and 4.
    let instance = karate_instance();
    let sweep = SweepConfig {
        sample_numbers: vec![1, 16, 256, 4_096],
        trials: 40,
        base_seed: 5,
        threads: 0,
    };
    let analyzed = instance.sweep(ApproachKind::Ris, 4, &sweep);
    let entropies: Vec<f64> = analyzed.analyses.iter().map(|a| a.entropy).collect();
    let means: Vec<f64> = analyzed
        .analyses
        .iter()
        .map(|a| a.influence_stats.mean)
        .collect();
    assert!(
        entropies.first().unwrap() > entropies.last().unwrap(),
        "entropy should fall from θ=1 ({}) to θ=4096 ({})",
        entropies[0],
        entropies[3]
    );
    assert!(
        means.last().unwrap() > means.first().unwrap(),
        "mean influence should rise from θ=1 ({}) to θ=4096 ({})",
        means[0],
        means[3]
    );
    // The influence distribution tightens as well.
    let first_sd = analyzed.analyses.first().unwrap().influence_stats.std_dev;
    let last_sd = analyzed.analyses.last().unwrap().influence_stats.std_dev;
    assert!(
        last_sd <= first_sd,
        "SD should not grow: {first_sd} -> {last_sd}"
    );
}

#[test]
fn oracle_and_monte_carlo_agree_on_greedy_seed_sets() {
    // The shared RR-set oracle and an independent forward Monte-Carlo
    // estimator must agree on the influence of the same seed set.
    let instance = karate_instance();
    let outcome = Algorithm::Snapshot { tau: 256 }.run(&instance.graph, 4, 3);
    let oracle_estimate = instance.oracle.estimate_seed_set(&outcome.seeds);
    let seeds: Vec<VertexId> = outcome.seeds.iter().collect();
    let mut rng = default_rng(123);
    let mc_estimate = im_study::im_core::diffusion::monte_carlo_influence(
        &instance.graph,
        &seeds,
        60_000,
        &mut rng,
    );
    let diff = (oracle_estimate - mc_estimate).abs();
    assert!(
        diff < 0.15,
        "oracle ({oracle_estimate:.3}) and Monte-Carlo ({mc_estimate:.3}) disagree by {diff:.3}"
    );
}

#[test]
fn snapshot_and_ris_sample_sizes_follow_the_paper_model() {
    // Table 1: Snapshot stores ≈ τ·(n + m̃) items, RIS stores ≈ θ·EPT vertices
    // and no edges, and EPT ≤ 1 + m̃.
    let instance = karate_instance();
    let n = instance.graph.num_vertices() as f64;
    let m_tilde = instance.graph.probability_sum();
    let tau = 64u64;
    let snapshot = Algorithm::Snapshot { tau }.run(&instance.graph, 1, 9);
    let snapshot_size = snapshot.sample_size.total() as f64;
    let expected = tau as f64 * (n + m_tilde);
    assert!(
        (snapshot_size - expected).abs() / expected < 0.2,
        "Snapshot sample size {snapshot_size} should be near τ(n + m̃) = {expected}"
    );

    let theta = 4_096u64;
    let ris = Algorithm::Ris { theta }.run(&instance.graph, 1, 9);
    assert_eq!(ris.sample_size.edges, 0, "RIS stores vertices only");
    let ept_hat = ris.sample_size.vertices as f64 / theta as f64;
    assert!(
        ept_hat <= 1.0 + m_tilde,
        "empirical EPT {ept_hat} must satisfy EPT ≤ 1 + m̃ = {}",
        1.0 + m_tilde
    );

    // Oneshot stores nothing.
    let oneshot = Algorithm::Oneshot { beta: 8 }.run(&instance.graph, 1, 9);
    assert_eq!(oneshot.sample_size.total(), 0);
}

#[test]
fn different_probability_models_change_the_optimal_seed() {
    // Section 5.1.2: experimental conclusions depend on the probability
    // assignment, which is why the paper evaluates four of them. On BA_d the
    // most influential vertex under uc0.01 (hub-driven) need not be the most
    // influential under owc (everyone spreads one unit).
    let uc = PreparedInstance::prepare(
        InstanceConfig::new(Dataset::BaDense, ProbabilityModel::uc001()),
        40_000,
        2,
    );
    let owc = PreparedInstance::prepare(
        InstanceConfig::new(Dataset::BaDense, ProbabilityModel::OutDegreeWeighted),
        40_000,
        2,
    );
    let top_uc = uc.oracle.top_influential_vertices(1)[0];
    let top_owc = owc.oracle.top_influential_vertices(1)[0];
    // The influence magnitudes certainly differ strongly.
    assert!(
        (top_uc.1 - top_owc.1).abs() > 1.0,
        "uc0.01 and owc should produce very different top influences ({} vs {})",
        top_uc.1,
        top_owc.1
    );
}

#[test]
fn run_outcomes_are_fully_reproducible_across_processes() {
    // Determinism is what makes every experiment in EXPERIMENTS.md auditable:
    // the same (dataset, model, algorithm, k, seed) tuple must give the same
    // seeds and the same traversal cost, bit for bit.
    let a = Dataset::Karate.influence_graph(ProbabilityModel::InDegreeWeighted, 0);
    let b = Dataset::Karate.influence_graph(ProbabilityModel::InDegreeWeighted, 0);
    let run_a = Algorithm::Ris { theta: 512 }.run(&a, 4, 2020);
    let run_b = Algorithm::Ris { theta: 512 }.run(&b, 4, 2020);
    assert_eq!(run_a, run_b);
}

#[test]
fn experiment_registry_runs_a_cheap_driver_end_to_end() {
    // The experiment drivers are part of the public API surface; make sure the
    // registry dispatch works and produces non-empty tables.
    let report = im_study::imexp::experiments::run_by_name("table3", ExperimentScale::Quick)
        .expect("table3 is registered");
    assert_eq!(report.id, "table3");
    assert!(!report.tables.is_empty());
    assert_eq!(report.tables[0].num_rows(), 8);
    assert!(report.render().contains("Karate"));
}

#[test]
fn a_served_index_refuses_bad_lines_and_bad_batches_without_side_effects() {
    // The serving layer's two refusal contracts, on a WAL-backed Karate
    // index behind both front ends at once:
    // (a) a line that is not a protocol frame gets one typed error frame and
    //     the connection keeps serving;
    // (b) a rejected mutation batch leaves epoch, pool and WAL untouched.
    use im_study::imserve::protocol::{
        self, ErrorKind, Outcome, Request, RequestFrame, Response, ResponseFrame,
    };
    use im_study::imserve::{client::ServiceConnection, reactor, server, ServiceError};
    use std::io::{BufRead, BufReader, Write};

    let wal = std::env::temp_dir().join(format!("im_study_e2e_{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let graph = Dataset::Karate.influence_graph(ProbabilityModel::uc01(), 0);
    let artifact = IndexArtifact::build("Karate", "uc0.1", graph, 2_000, 5);
    let expected = artifact.oracle.estimate(&[0, 33]);
    let engine = std::sync::Arc::new(QueryEngine::builder(artifact).wal(&wal).build().unwrap());
    let threaded = server::spawn("127.0.0.1:0", engine.clone(), &Default::default()).unwrap();
    let reactor = reactor::spawn("127.0.0.1:0", engine.clone(), &Default::default()).unwrap();

    // (a) An unframed request, garbage, then a valid frame — one socket.
    let estimate = RequestFrame::new(7, Request::Estimate { seeds: vec![0, 33] });
    let script = format!(
        "\"Ping\"\nnot json\n{}\n",
        protocol::encode(&estimate).unwrap()
    );
    let transcripts = [threaded.addr(), reactor.addr()].map(|addr| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(script.as_bytes()).unwrap();
        BufReader::new(stream)
            .lines()
            .take(3)
            .collect::<Result<Vec<String>, _>>()
            .unwrap()
    });
    assert_eq!(
        transcripts[0], transcripts[1],
        "front ends answer byte-identically"
    );
    let frames: Vec<ResponseFrame> = transcripts[0]
        .iter()
        .map(|line| protocol::decode(line).unwrap())
        .collect();
    for refused in &frames[..2] {
        assert_eq!(refused.id, 0, "nothing to echo");
        match &refused.body {
            Outcome::Err(e) => {
                assert_eq!(e.kind, ErrorKind::Protocol);
                assert!(e.message.contains("protocol v2"), "{}", e.message);
            }
            other => panic!("expected a typed error frame, got {other:?}"),
        }
    }
    assert_eq!(frames[2].id, 7);
    match &frames[2].body {
        Outcome::Ok(Response::Estimate { spread, .. }) => assert_eq!(*spread, expected),
        other => panic!("the connection must keep serving, got {other:?}"),
    }
    assert_eq!(
        engine.obs().parse_errors.get(),
        4,
        "two lines on each front end"
    );

    // (b) A valid batch moves all three; an invalid one moves none of them.
    let delete = |source, target| GraphDelta::DeleteEdge { source, target };
    let mut connection = ServiceConnection::connect(reactor.addr()).unwrap();
    let valid = Request::MutateBatch {
        deltas: vec![delete(0, 1)],
    };
    assert!(connection.call(&valid).is_ok());
    let before = (
        engine.epoch(),
        engine.state().dynamic.oracle().to_bytes(),
        std::fs::metadata(&wal).unwrap().len(),
    );
    assert_eq!(before.0, 1);
    let invalid = Request::MutateBatch {
        deltas: vec![delete(0, 2), delete(999, 0)],
    };
    match connection.call(&invalid) {
        Err(ServiceError::Mutation(message)) => {
            assert!(message.contains("delta 2 of 2"), "{message}")
        }
        other => panic!("expected a typed Mutation refusal, got {other:?}"),
    }
    let after = (
        engine.epoch(),
        engine.state().dynamic.oracle().to_bytes(),
        std::fs::metadata(&wal).unwrap().len(),
    );
    assert!(
        before == after,
        "a refused batch must leave epoch, pool and WAL as they were"
    );

    threaded.shutdown();
    reactor.shutdown();
    let _ = std::fs::remove_file(&wal);
}
