//! Fault injection for the sharded router's concurrent fan-out: a shard
//! that drops its connection mid-request, answers from a stale epoch, or
//! exceeds its deadline must surface as a **typed**
//! [`ServiceError::Shard`] naming the failing shard index — never as a
//! silently merged wrong answer — and the router's `(k, algorithm, epoch)`
//! selection memo must survive the episode intact: once the fault clears,
//! selections come back byte-identical to the single-pool reference.
//!
//! The faults are injected through a mock backend wrapping a healthy
//! [`LocalService`], so the suite exercises exactly the router's error
//! paths, not the transport's.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use imgraph::GraphDelta;
use imserve::engine::QueryEngine;
use imserve::index::{build_dataset_index, IndexArtifact};
use imserve::protocol::{Request, Response, TopKAlgorithm};
use imserve::service::{
    InfluenceService, LocalService, ServiceError, ServiceResult, TopKSelection,
};
use imserve::shard::ShardedService;

const POOL: usize = 3_000;
const SEED: u64 = 7;
const SHARDS: usize = 3;

/// What a [`FaultyShard`] does to its next requests (until cleared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// The connection is gone: every request fails with a transport error.
    Drop,
    /// The shard is unresponsive past its deadline: requests time out.
    Timeout,
    /// The shard answers `stats` from an epoch one ahead of its peers —
    /// the signature of an out-of-band mutation behind the router's back.
    StaleEpoch,
    /// The shard answers a selection round's candidate list, then dies
    /// before the exact-count probes that follow reach it.
    DropBeforeProbes,
    /// The shard answers an `Estimate` claiming `u64::MAX` covered sets, a
    /// count no union of pools can sum to.
    InflatedCovered,
    /// The shard answers exact-count probes (`GainCandidates` with no list)
    /// with one count fewer than it was asked for.
    ShortProbes,
}

/// Shared remote control of one shard's injected fault.
type FaultSwitch = Arc<Mutex<Option<Fault>>>;

/// A mock shard backend: a healthy [`LocalService`] whose requests can be
/// made to fail (or report a skewed epoch) on demand.
struct FaultyShard {
    inner: LocalService,
    fault: FaultSwitch,
    /// Deadlines the router propagated to this shard, in call order.
    deadlines: Arc<Mutex<Vec<Option<Duration>>>>,
}

impl FaultyShard {
    fn gate(&self) -> ServiceResult<()> {
        match *self.fault.lock().unwrap() {
            Some(Fault::Drop) => Err(ServiceError::Transport(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "connection reset by shard",
            ))),
            Some(Fault::Timeout) => Err(ServiceError::Transport(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "shard deadline exceeded",
            ))),
            Some(
                Fault::StaleEpoch
                | Fault::DropBeforeProbes
                | Fault::InflatedCovered
                | Fault::ShortProbes,
            )
            | None => Ok(()),
        }
    }
}

impl InfluenceService for FaultyShard {
    fn call(&mut self, request: &Request) -> ServiceResult<Response> {
        self.gate()?;
        let fault = *self.fault.lock().unwrap();
        if let (Some(Fault::DropBeforeProbes), Request::GainCandidates { limit: 0, .. }) =
            (fault, request)
        {
            return Err(ServiceError::Transport(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "connection reset by shard",
            )));
        }
        let mut response = self.inner.call(request)?;
        match (fault, &mut response) {
            (Some(Fault::StaleEpoch), Response::Stats { epoch, .. }) => *epoch += 1,
            (Some(Fault::InflatedCovered), Response::Estimate { covered, .. }) => {
                *covered = u64::MAX;
            }
            (Some(Fault::ShortProbes), Response::GainCandidates(reply)) => {
                reply.probed.pop();
            }
            _ => {}
        }
        Ok(response)
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> ServiceResult<()> {
        self.deadlines.lock().unwrap().push(deadline);
        Ok(())
    }
}

struct Fixture {
    router: ShardedService<FaultyShard>,
    switches: Vec<FaultSwitch>,
    deadlines: Vec<Arc<Mutex<Vec<Option<Duration>>>>>,
}

fn fixture() -> Fixture {
    fixture_over("karate")
}

fn fixture_over(dataset: &str) -> Fixture {
    let graph = imserve::index::parse_dataset(dataset)
        .unwrap()
        .influence_graph(imserve::index::parse_model("uc0.1").unwrap(), SEED);
    let mut switches = Vec::with_capacity(SHARDS);
    let mut deadlines = Vec::with_capacity(SHARDS);
    let shards: Vec<FaultyShard> = (0..SHARDS)
        .map(|i| {
            let artifact =
                IndexArtifact::build_shard(dataset, "uc0.1", graph.clone(), POOL, SEED, i, SHARDS);
            let fault: FaultSwitch = Arc::new(Mutex::new(None));
            let log = Arc::new(Mutex::new(Vec::new()));
            switches.push(Arc::clone(&fault));
            deadlines.push(Arc::clone(&log));
            FaultyShard {
                inner: LocalService::new(Arc::new(QueryEngine::builder(artifact).build().unwrap())),
                fault,
                deadlines: log,
            }
        })
        .collect();
    Fixture {
        router: ShardedService::new(shards).unwrap(),
        switches,
        deadlines,
    }
}

fn reference_selection(k: usize) -> TopKSelection {
    let engine = QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
        .build()
        .unwrap();
    LocalService::new(Arc::new(engine))
        .top_k(k, TopKAlgorithm::Greedy)
        .unwrap()
}

fn set_fault(fx: &Fixture, shard: usize, fault: Option<Fault>) {
    *fx.switches[shard].lock().unwrap() = fault;
}

#[test]
fn dropped_shard_surfaces_as_typed_error_naming_the_index() {
    let mut fx = fixture();
    // Warm the router's selection memo while everything is healthy.
    let before = fx.router.top_k(2, TopKAlgorithm::Greedy).unwrap();

    set_fault(&fx, 1, Some(Fault::Drop));
    let err = fx.router.estimate(&[0, 5]).unwrap_err();
    match &err {
        ServiceError::Shard(message) => {
            assert!(message.contains("shard 1"), "names the shard: {message}");
        }
        other => panic!("expected a Shard error, got {other:?}"),
    }
    // Selections fail the same way (the pre-selection epoch check fans out).
    assert!(matches!(
        fx.router.top_k(2, TopKAlgorithm::Greedy),
        Err(ServiceError::Shard(_))
    ));

    // Once the fault clears, the memoized selection is served again,
    // byte-identical to before the episode and to the single-pool answer.
    set_fault(&fx, 1, None);
    let after = fx.router.top_k(2, TopKAlgorithm::Greedy).unwrap();
    assert_eq!(after.seeds, before.seeds);
    assert_eq!(after.spread.to_bits(), before.spread.to_bits());
    let expected = reference_selection(2);
    assert_eq!(after.seeds, expected.seeds);
    assert_eq!(after.spread.to_bits(), expected.spread.to_bits());
}

/// A selection round is two fan-outs once the candidate lists are cut short
/// (241 vertices against 64-entry lists): a shard lost between them must
/// fail the selection with the typed error naming it, not settle the round
/// on the counts that did arrive.
#[test]
fn shard_lost_between_the_candidate_lists_and_the_probes_is_named() {
    let mut fx = fixture_over("physicians");
    let before = fx.router.top_k(3, TopKAlgorithm::Greedy).unwrap();

    set_fault(&fx, 2, Some(Fault::DropBeforeProbes));
    match fx.router.top_k(2, TopKAlgorithm::Greedy) {
        Err(ServiceError::Shard(message)) => {
            assert!(message.contains("shard 2"), "names the shard: {message}");
            assert!(message.contains("connection reset"), "{message}");
        }
        other => panic!("expected a Shard error, got {other:?}"),
    }
    // Nothing half-settled was memoized: healthy again, the same selection.
    set_fault(&fx, 2, None);
    let after = fx.router.top_k(3, TopKAlgorithm::Greedy).unwrap();
    assert_eq!(after.seeds, before.seeds);
    assert_eq!(after.spread.to_bits(), before.spread.to_bits());
}

/// On Karate every shard lists all 34 vertices, so the first round needs
/// no probe and the only probes are the later rounds' reads of the
/// candidates carried over: a shard that answers them short must fail the
/// selection with the typed error naming it, and nothing may be memoized.
#[test]
fn short_answers_to_carried_probes_are_named_and_never_memoized() {
    let mut fx = fixture();
    // Memoize another selection, so a hit cannot hide the fault.
    fx.router.top_k(2, TopKAlgorithm::Greedy).unwrap();

    set_fault(&fx, 1, Some(Fault::ShortProbes));
    match fx.router.top_k(3, TopKAlgorithm::Greedy) {
        Err(ServiceError::Shard(message)) => {
            assert!(message.contains("shard 1"), "names the shard: {message}");
            assert!(message.contains("probes"), "names the cause: {message}");
        }
        other => panic!("expected a Shard error, got {other:?}"),
    }

    set_fault(&fx, 1, None);
    let after = fx.router.top_k(3, TopKAlgorithm::Greedy).unwrap();
    let expected = reference_selection(3);
    assert_eq!(after.seeds, expected.seeds);
    assert_eq!(after.spread.to_bits(), expected.spread.to_bits());
}

#[test]
fn timed_out_shard_surfaces_as_typed_error_naming_the_index() {
    let mut fx = fixture();
    set_fault(&fx, 2, Some(Fault::Timeout));
    let err = fx.router.estimate(&[3]).unwrap_err();
    match &err {
        ServiceError::Shard(message) => {
            assert!(message.contains("shard 2"), "names the shard: {message}");
            assert!(
                message.contains("timed out") || message.contains("deadline"),
                "carries the transport cause: {message}"
            );
        }
        other => panic!("expected a Shard error, got {other:?}"),
    }
    set_fault(&fx, 2, None);
    fx.router.estimate(&[3]).unwrap();
}

#[test]
fn stale_epoch_shard_is_caught_before_a_selection_is_served() {
    let mut fx = fixture();
    let before = fx.router.top_k(3, TopKAlgorithm::Greedy).unwrap();

    // Shard 1 now reports an epoch its peers have not reached — exactly
    // what an out-of-band mutation looks like from the router's seat.
    set_fault(&fx, 1, Some(Fault::StaleEpoch));
    let err = fx.router.top_k(3, TopKAlgorithm::Greedy).unwrap_err();
    match &err {
        ServiceError::Shard(message) => {
            assert!(message.contains("shard 1"), "names the shard: {message}");
            assert!(message.contains("epoch"), "names the cause: {message}");
        }
        other => panic!("expected a Shard error, got {other:?}"),
    }
    assert!(matches!(fx.router.stats(), Err(ServiceError::Shard(_))));

    // The memo keyed by the healthy epoch is still intact underneath.
    set_fault(&fx, 1, None);
    let after = fx.router.top_k(3, TopKAlgorithm::Greedy).unwrap();
    assert_eq!(after.seeds, before.seeds);
    assert_eq!(after.spread.to_bits(), before.spread.to_bits());
}

/// The router sums the integers its shards report, and those come off the
/// wire: a count that overflows the union's sum is a typed error naming the
/// shard, never a panic or a silently wrapped total.
#[test]
fn an_overflowing_shard_count_is_a_typed_error_naming_the_shard() {
    let mut fx = fixture();
    let healthy = fx.router.estimate(&[0, 33]).unwrap();

    set_fault(&fx, 1, Some(Fault::InflatedCovered));
    match fx.router.estimate(&[0, 33]) {
        Err(ServiceError::Shard(message)) => {
            assert!(message.contains("shard 1"), "names the shard: {message}");
            assert!(message.contains("covered"), "names the count: {message}");
        }
        other => panic!("expected a Shard error, got {other:?}"),
    }

    set_fault(&fx, 1, None);
    assert_eq!(fx.router.estimate(&[0, 33]).unwrap(), healthy);
}

#[test]
fn uniformly_rejected_batch_is_not_a_shard_failure() {
    let mut fx = fixture();
    let before = fx.router.top_k(2, TopKAlgorithm::Greedy).unwrap();
    // Every shard rejects an invalid batch alike: nothing applied anywhere,
    // so the caller sees the same typed rejection a single pool returns.
    let bad = vec![GraphDelta::DeleteEdge {
        source: 0,
        target: 0,
    }];
    assert!(matches!(
        fx.router.mutate_batch(&bad),
        Err(ServiceError::Mutation(_))
    ));
    // Epoch and memo untouched.
    let after = fx.router.top_k(2, TopKAlgorithm::Greedy).unwrap();
    assert_eq!(after.seeds, before.seeds);
    assert_eq!(after.spread.to_bits(), before.spread.to_bits());
}

#[test]
fn partially_applied_broadcast_reports_a_torn_broadcast() {
    let mut fx = fixture();
    fx.router.top_k(2, TopKAlgorithm::Greedy).unwrap();

    // Shard 1 drops while its peers apply the batch: the union invariant is
    // genuinely gone and the router must say so, naming the shard.
    set_fault(&fx, 1, Some(Fault::Drop));
    let batch = vec![GraphDelta::InsertEdge {
        source: 16,
        target: 0,
        probability: 0.9,
    }];
    let err = fx.router.mutate_batch(&batch).unwrap_err();
    match &err {
        ServiceError::Shard(message) => {
            assert!(
                message.contains("broadcast torn"),
                "states the condition: {message}"
            );
            assert!(message.contains("shard 1"), "names the shard: {message}");
        }
        other => panic!("expected a Shard error, got {other:?}"),
    }

    // The shards really did diverge (0 and 2 applied, 1 did not), so the
    // next selection must fail loudly instead of serving a cross-epoch
    // merge — even with the fault cleared.
    set_fault(&fx, 1, None);
    assert!(matches!(
        fx.router.top_k(2, TopKAlgorithm::Greedy),
        Err(ServiceError::Shard(_))
    ));
}

#[test]
fn deadlines_propagate_to_every_shard() {
    let mut fx = fixture();
    fx.router
        .set_deadline(Some(Duration::from_millis(250)))
        .unwrap();
    fx.router.set_deadline(None).unwrap();
    for (i, log) in fx.deadlines.iter().enumerate() {
        let calls = log.lock().unwrap();
        assert_eq!(
            calls.as_slice(),
            &[Some(Duration::from_millis(250)), None],
            "shard {i} saw both deadline updates"
        );
    }
}
