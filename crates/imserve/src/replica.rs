//! Replica-aware routing: fail reads over to a caught-up follower.
//!
//! A [`ReplicaSet`] wraps an ordered list of [`InfluenceService`] backends
//! serving the *same* shard — the leader first, then its followers — and is
//! itself an `InfluenceService`, so `imserve route` composes it under
//! [`crate::shard::ShardedService`] unchanged (`--addr "leader|follower"`
//! syntax, see [`parse_replica_addrs`]).
//!
//! Routing discipline:
//!
//! * **Reads** go to the *active* member (initially the leader). When it
//!   fails at the transport or protocol layer, the set fails over: each
//!   remaining member is probed for its epoch, and the first one **caught
//!   up** to the highest epoch this set has observed becomes active —
//!   byte-identity of the replication stream guarantees its answers match
//!   the leader's at that epoch. A stale follower is never promoted to
//!   active silently; if no member is eligible the caller gets a typed
//!   [`ServiceError::Transport`] naming every attempt.
//! * **Writes** (`mutate_batch`, `compact`) iterate members in declared
//!   order, skipping only unreachable ones: the first reachable member
//!   answers. An unpromoted follower's typed
//!   [`ServiceError::ReadOnly`] is a *correct* answer — it propagates to
//!   the caller, who decides whether to `imserve promote` (writes never
//!   silently land on a replica).
//! * **Admin** (`reload`, `promote`) is deliberately *not* failed over:
//!   those target one specific node, so the set forwards them to the active
//!   member only.
//!
//! Failed-over reads keep flowing to the follower until it fails in turn —
//! a returning leader re-enters the rotation as a failover *candidate*, not
//! by preemption, so the set never flaps between two half-healthy nodes.

use std::time::Duration;

use imgraph::GraphDelta;

use crate::protocol::TopKAlgorithm;
use crate::service::{
    CompactionReport, EventRecord, GainCandidates, GainVector, HealthReport, InfluenceService,
    MetricsReport, MutationOutcome, PromotionOutcome, ReloadOutcome, ServiceError, ServiceInfo,
    ServiceResult, ServiceStats, SpreadEstimate, TopKSelection,
};

/// An ordered set of interchangeable backends for one shard: the leader
/// first, then its replication followers.
#[derive(Debug)]
pub struct ReplicaSet<S> {
    members: Vec<Member<S>>,
    active: usize,
    /// Highest epoch observed through this set — the catch-up bar a
    /// failover candidate must meet.
    observed_epoch: u64,
}

#[derive(Debug)]
struct Member<S> {
    service: S,
    label: String,
}

impl<S: InfluenceService> ReplicaSet<S> {
    /// Build a set from `(label, service)` pairs, leader first.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    #[must_use]
    pub fn new(members: Vec<(String, S)>) -> Self {
        assert!(
            !members.is_empty(),
            "a replica set needs at least one member"
        );
        Self {
            members: members
                .into_iter()
                .map(|(label, service)| Member { service, label })
                .collect(),
            active: 0,
            observed_epoch: 0,
        }
    }

    /// Number of members (leader included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty (never true — construction requires one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The label of the member currently answering reads.
    #[must_use]
    pub fn active_label(&self) -> &str {
        &self.members[self.active].label
    }

    /// Run a read on the active member, failing over to a caught-up
    /// candidate when the active one is unreachable.
    fn read<T>(&mut self, op: impl Fn(&mut S) -> ServiceResult<T>) -> ServiceResult<T> {
        match op(&mut self.members[self.active].service) {
            Ok(value) => Ok(value),
            Err(e @ (ServiceError::Transport(_) | ServiceError::Protocol(_))) => {
                let mut attempts = vec![format!("{}: {e}", self.members[self.active].label)];
                let candidates: Vec<usize> = (0..self.members.len())
                    .filter(|&i| i != self.active)
                    .collect();
                for i in candidates {
                    // A candidate must have replicated up to the highest
                    // epoch this set has seen — otherwise its (internally
                    // consistent) answers could travel back in time from
                    // the caller's perspective.
                    let epoch = match self.members[i].service.stats() {
                        Ok(stats) => stats.epoch,
                        Err(probe) => {
                            attempts.push(format!("{}: {probe}", self.members[i].label));
                            continue;
                        }
                    };
                    if epoch < self.observed_epoch {
                        attempts.push(format!(
                            "{}: behind at epoch {epoch} (set has observed {})",
                            self.members[i].label, self.observed_epoch
                        ));
                        continue;
                    }
                    match op(&mut self.members[i].service) {
                        Ok(value) => {
                            self.active = i;
                            self.observed_epoch = self.observed_epoch.max(epoch);
                            return Ok(value);
                        }
                        Err(retry) => {
                            attempts.push(format!("{}: {retry}", self.members[i].label));
                        }
                    }
                }
                Err(ServiceError::Transport(std::io::Error::new(
                    std::io::ErrorKind::NotConnected,
                    format!("no replica could answer; tried {}", attempts.join("; ")),
                )))
            }
            Err(e) => Err(e),
        }
    }

    /// Run a write against members in declared order, skipping only
    /// unreachable ones.
    fn write<T>(&mut self, op: impl Fn(&mut S) -> ServiceResult<T>) -> ServiceResult<T> {
        let mut attempts = Vec::new();
        for member in &mut self.members {
            match op(&mut member.service) {
                Ok(value) => return Ok(value),
                Err(e @ (ServiceError::Transport(_) | ServiceError::Protocol(_))) => {
                    attempts.push(format!("{}: {e}", member.label));
                }
                // Everything else — ReadOnly included — is the backend's
                // real answer and belongs to the caller.
                Err(e) => return Err(e),
            }
        }
        Err(ServiceError::Transport(std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            format!(
                "no replica accepted the write; tried {}",
                attempts.join("; ")
            ),
        )))
    }

    /// Note an epoch observed through this set (raises the catch-up bar).
    fn observe_epoch(&mut self, epoch: u64) {
        self.observed_epoch = self.observed_epoch.max(epoch);
    }
}

impl<S: InfluenceService> InfluenceService for ReplicaSet<S> {
    fn info(&mut self) -> ServiceResult<ServiceInfo> {
        self.read(|s| s.info())
    }

    fn estimate(&mut self, seeds: &[u32]) -> ServiceResult<SpreadEstimate> {
        self.read(|s| s.estimate(seeds))
    }

    fn top_k(&mut self, k: usize, algorithm: TopKAlgorithm) -> ServiceResult<TopKSelection> {
        self.read(move |s| s.top_k(k, algorithm))
    }

    fn gains(&mut self, selected: &[u32]) -> ServiceResult<GainVector> {
        self.read(|s| s.gains(selected))
    }

    fn gain_candidates(
        &mut self,
        selected: &[u32],
        limit: usize,
        probe: &[u32],
    ) -> ServiceResult<GainCandidates> {
        self.read(|s| s.gain_candidates(selected, limit, probe))
    }

    fn mutate_batch(&mut self, deltas: &[GraphDelta]) -> ServiceResult<MutationOutcome> {
        let outcome = self.write(|s| s.mutate_batch(deltas))?;
        self.observe_epoch(outcome.epoch);
        Ok(outcome)
    }

    fn compact(&mut self) -> ServiceResult<CompactionReport> {
        let report = self.write(|s| s.compact())?;
        self.observe_epoch(report.epoch);
        Ok(report)
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> ServiceResult<()> {
        for member in &mut self.members {
            member.service.set_deadline(deadline)?;
        }
        Ok(())
    }

    fn stats(&mut self) -> ServiceResult<ServiceStats> {
        let stats = self.read(|s| s.stats())?;
        self.observe_epoch(stats.epoch);
        Ok(stats)
    }

    fn metrics(&mut self) -> ServiceResult<MetricsReport> {
        self.read(|s| s.metrics())
    }

    fn health(&mut self) -> ServiceResult<HealthReport> {
        self.read(|s| s.health())
    }

    fn events(&mut self) -> ServiceResult<Vec<EventRecord>> {
        self.read(|s| s.events())
    }

    fn reload(&mut self, path: &str) -> ServiceResult<ReloadOutcome> {
        self.members[self.active].service.reload(path)
    }

    fn promote(&mut self, expected_epoch: Option<u64>) -> ServiceResult<PromotionOutcome> {
        self.members[self.active].service.promote(expected_epoch)
    }

    fn set_trace(&mut self, trace: Option<u64>) {
        for member in &mut self.members {
            member.service.set_trace(trace);
        }
    }
}

/// Split one `--addr` operand into its replica addresses: `"a|b|c"` →
/// `["a", "b", "c"]` (leader first). Empty segments are rejected.
pub fn parse_replica_addrs(operand: &str) -> Result<Vec<String>, crate::error::ServeError> {
    let addrs: Vec<String> = operand.split('|').map(str::to_string).collect();
    if addrs.iter().any(|a| a.trim().is_empty()) {
        return Err(crate::error::ServeError::Build(format!(
            "empty replica address in {operand:?} (expected leader|follower|… )"
        )));
    }
    Ok(addrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::RequestTypeCounts;

    /// A scripted fake backend: answers reads at a fixed epoch, or fails
    /// every call at the transport layer when `dead`.
    struct FakeNode {
        epoch: u64,
        dead: bool,
        read_only: bool,
        calls: u64,
    }

    impl FakeNode {
        fn alive(epoch: u64) -> Self {
            Self {
                epoch,
                dead: false,
                read_only: false,
                calls: 0,
            }
        }

        fn follower(epoch: u64) -> Self {
            Self {
                read_only: true,
                ..Self::alive(epoch)
            }
        }

        fn check(&mut self) -> ServiceResult<()> {
            self.calls += 1;
            if self.dead {
                return Err(ServiceError::Transport(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "node is down",
                )));
            }
            Ok(())
        }

        fn stats_at(&self) -> ServiceStats {
            ServiceStats {
                requests: self.calls,
                topk_cache_hits: 0,
                topk_cache_misses: 0,
                pool_size: 10,
                epoch: self.epoch,
                deltas_applied: 0,
                sets_resampled: 0,
                log_len: 0,
                snapshot_epoch: 0,
                compactions: 0,
                uptime_secs: 0,
                requests_by_type: RequestTypeCounts::default(),
                pool_resident_bytes: 0,
                pool_layout: "raw".to_string(),
                shards: Vec::new(),
            }
        }
    }

    impl InfluenceService for FakeNode {
        fn info(&mut self) -> ServiceResult<ServiceInfo> {
            self.check()?;
            Ok(ServiceInfo {
                graph_id: "karate".into(),
                model: "uc0.1".into(),
                num_vertices: 34,
                num_edges: 78,
                pool_size: 10,
                confidence_99: 0.0,
                shard_offset: 0,
                global_pool: 10,
            })
        }

        fn estimate(&mut self, seeds: &[u32]) -> ServiceResult<SpreadEstimate> {
            self.check()?;
            Ok(SpreadEstimate {
                seeds: seeds.to_vec(),
                // Epoch-dependent answer: a stale replica is detectable.
                spread: self.epoch as f64,
                covered: self.epoch,
                pool: 10,
            })
        }

        fn top_k(&mut self, k: usize, algorithm: TopKAlgorithm) -> ServiceResult<TopKSelection> {
            self.check()?;
            Ok(TopKSelection {
                seeds: (0..k as u32).collect(),
                spread: 0.0,
                algorithm,
            })
        }

        fn gains(&mut self, _selected: &[u32]) -> ServiceResult<GainVector> {
            self.check()?;
            Ok(GainVector {
                gains: vec![0; 3],
                covered: 0,
                pool: 10,
            })
        }

        fn mutate_batch(&mut self, deltas: &[GraphDelta]) -> ServiceResult<MutationOutcome> {
            self.check()?;
            if self.read_only {
                return Err(ServiceError::ReadOnly("write to the leader".into()));
            }
            self.epoch += deltas.len() as u64;
            Ok(MutationOutcome {
                epoch: self.epoch,
                applied: deltas.len(),
                resampled: 0,
                compacted: false,
            })
        }

        fn compact(&mut self) -> ServiceResult<CompactionReport> {
            self.check()?;
            Ok(CompactionReport {
                epoch: self.epoch,
                folded: 0,
            })
        }

        fn stats(&mut self) -> ServiceResult<ServiceStats> {
            self.check()?;
            Ok(self.stats_at())
        }
    }

    fn delta() -> GraphDelta {
        GraphDelta::SetProbability {
            source: 0,
            target: 1,
            probability: 0.5,
        }
    }

    #[test]
    fn reads_stick_to_the_leader_while_it_is_healthy() {
        let mut set = ReplicaSet::new(vec![
            ("leader".to_string(), FakeNode::alive(5)),
            ("follower".to_string(), FakeNode::alive(5)),
        ]);
        for _ in 0..3 {
            set.estimate(&[0]).unwrap();
        }
        assert_eq!(set.active_label(), "leader");
        assert_eq!(set.members[1].service.calls, 0, "follower untouched");
    }

    #[test]
    fn reads_fail_over_to_a_caught_up_follower() {
        let mut set = ReplicaSet::new(vec![
            ("leader".to_string(), FakeNode::alive(5)),
            ("follower".to_string(), FakeNode::alive(5)),
        ]);
        set.observe_epoch(5);
        set.members[0].service.dead = true;
        let estimate = set.estimate(&[0]).unwrap();
        assert_eq!(estimate.covered, 5, "the follower answered at the bar");
        assert_eq!(set.active_label(), "follower");
        // Later reads stay on the follower (no flapping back to probe the
        // dead leader).
        set.estimate(&[0]).unwrap();
        assert_eq!(set.active_label(), "follower");
    }

    #[test]
    fn stale_followers_are_not_eligible_for_failover() {
        let mut set = ReplicaSet::new(vec![
            ("leader".to_string(), FakeNode::alive(9)),
            ("stale".to_string(), FakeNode::alive(4)),
        ]);
        set.observe_epoch(9);
        set.members[0].service.dead = true;
        let err = set.estimate(&[0]).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("behind at epoch 4"),
            "the refusal names the gap: {message}"
        );
        assert!(matches!(err, ServiceError::Transport(_)));
    }

    #[test]
    fn writes_skip_dead_members_but_surface_read_only_refusals() {
        // Dead leader, unpromoted follower: the follower's typed ReadOnly
        // refusal is the user-visible outcome, not a silent skip.
        let mut set = ReplicaSet::new(vec![
            ("leader".to_string(), FakeNode::alive(5)),
            ("follower".to_string(), FakeNode::follower(5)),
        ]);
        set.members[0].service.dead = true;
        let err = set.mutate_batch(&[delta()]).unwrap_err();
        assert!(matches!(err, ServiceError::ReadOnly(_)), "{err}");

        // Promote the follower (out of band): the same write now lands.
        set.members[1].service.read_only = false;
        let outcome = set.mutate_batch(&[delta()]).unwrap();
        assert_eq!(outcome.epoch, 6);
        assert_eq!(set.observed_epoch, 6, "writes raise the catch-up bar");
    }

    #[test]
    fn replica_addr_operands_split_on_pipes() {
        assert_eq!(
            parse_replica_addrs("a:1|b:2|c:3").unwrap(),
            vec!["a:1", "b:2", "c:3"]
        );
        assert_eq!(parse_replica_addrs("a:1").unwrap(), vec!["a:1"]);
        assert!(parse_replica_addrs("a:1||b:2").is_err());
        assert!(parse_replica_addrs("").is_err());
    }
}
