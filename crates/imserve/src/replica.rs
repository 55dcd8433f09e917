//! Replica-aware routing: fail reads over to a caught-up follower.
//!
//! A [`ReplicaSet`] wraps an ordered list of [`InfluenceService`] backends
//! serving the *same* shard — the leader first, then its followers — and is
//! itself an `InfluenceService`, so `imserve route` composes it under
//! [`crate::shard::ShardedService`] unchanged (`--addr "leader|follower"`
//! syntax, see [`parse_replica_addrs`]).
//!
//! Routing is one table over the request's kind:
//!
//! * **Reads** (every request not listed below) go to the *active* member
//!   (initially the leader). When it fails at the transport or protocol
//!   layer, the set fails over: each remaining member is probed for its
//!   epoch, and the first one **caught up** to the highest epoch this set
//!   has observed becomes active — byte-identity of the replication stream
//!   guarantees its answers match the leader's at that epoch. A stale
//!   follower is never promoted to active silently; if no member is
//!   eligible the caller gets a typed [`ServiceError::Transport`] naming
//!   every attempt. A reply of the wrong kind is not such a failure: the
//!   member answered, and the typed method above the set rejects it.
//! * **Writes** (`MutateBatch`, `Compact`) iterate members in declared
//!   order, skipping only unreachable ones: the first reachable member
//!   answers. An unpromoted follower's typed
//!   [`ServiceError::ReadOnly`] is a *correct* answer — it propagates to
//!   the caller, who decides whether to `imserve promote` (writes never
//!   silently land on a replica).
//! * **Admin** (`Reload`, `Promote`) is deliberately *not* failed over:
//!   those target one specific node, so the set forwards them to the active
//!   member only, and a dead active member's error is the answer.
//!
//! The catch-up bar rises with the epoch of every `MutateBatch`, `Compact`
//! and `Stats` reply that passes through the set.
//!
//! Failed-over reads keep flowing to the follower until it fails in turn —
//! a returning leader re-enters the rotation as a failover *candidate*, not
//! by preemption, so the set never flaps between two half-healthy nodes.

use std::time::Duration;

use crate::protocol::{Request, Response};
use crate::service::{
    CompactionReport, InfluenceService, MutationOutcome, Pending, ServiceError, ServiceResult,
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
    /// The read between [`InfluenceService::begin`] and `finish`, kept for
    /// the failover its answer may call for.
    reading: Option<Request>,
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
            reading: None,
        }
    }

    /// Raise the catch-up bar to the epoch `response` reports, if any.
    fn observe(&mut self, response: Response) -> Response {
        if let Response::MutateBatch(MutationOutcome { epoch, .. })
        | Response::Compact(CompactionReport { epoch, .. })
        | Response::Stats { epoch, .. } = response
        {
            self.observed_epoch = self.observed_epoch.max(epoch);
        }
        response
    }

    /// The label of the member currently answering reads.
    #[must_use]
    pub fn active_label(&self) -> &str {
        &self.members[self.active].label
    }

    /// Send a read to the active member, failing over to a caught-up
    /// candidate when the active one is unreachable.
    fn read(&mut self, request: &Request) -> ServiceResult<Response> {
        let first = self.members[self.active].service.call(request);
        self.fail_over(request, first)
    }

    /// Settle a read the active member answered with `first`: its answer,
    /// unless it failed at the transport or protocol layer — then the first
    /// caught-up candidate's.
    fn fail_over(
        &mut self,
        request: &Request,
        first: ServiceResult<Response>,
    ) -> ServiceResult<Response> {
        match first {
            Ok(value) => Ok(value),
            Err(e @ (ServiceError::Transport(_) | ServiceError::Protocol(_))) => {
                let active = self.active;
                let mut attempts = vec![format!("{}: {e}", self.members[active].label)];
                for i in (0..self.members.len()).filter(|&i| i != active) {
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
                    match self.members[i].service.call(request) {
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

    /// Send a write to members in declared order, skipping only unreachable
    /// ones.
    fn write(&mut self, request: &Request) -> ServiceResult<Response> {
        let mut attempts = Vec::new();
        for member in &mut self.members {
            match member.service.call(request) {
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
}

impl<S: InfluenceService> InfluenceService for ReplicaSet<S> {
    /// Route by request kind: writes in declared order, admin to the active
    /// member alone, everything else as a read. Every epoch a reply reports
    /// raises the catch-up bar.
    fn call(&mut self, request: &Request) -> ServiceResult<Response> {
        let response = match request {
            Request::MutateBatch { .. } | Request::Compact => self.write(request)?,
            Request::Reload { .. } | Request::Promote { .. } => {
                return self.members[self.active].service.call(request)
            }
            _ => self.read(request)?,
        };
        Ok(self.observe(response))
    }

    /// A read goes out on the active member now; a failover, if its answer
    /// calls for one, happens in [`InfluenceService::finish`]. Writes and
    /// admin are answered here.
    fn begin(&mut self, request: &Request) -> Pending {
        match request {
            Request::MutateBatch { .. }
            | Request::Compact
            | Request::Reload { .. }
            | Request::Promote { .. } => Pending::Answered(self.call(request)),
            _ => {
                self.reading = Some(request.clone());
                self.members[self.active].service.begin(request)
            }
        }
    }

    fn finish(&mut self, pending: Pending) -> ServiceResult<Response> {
        let Some(request) = self.reading.take() else {
            return match pending {
                Pending::Answered(answer) => answer,
                Pending::Sent(id) => Err(ServiceError::Protocol(format!(
                    "frame {id} was not sent by this replica set"
                ))),
            };
        };
        let first = self.members[self.active].service.finish(pending);
        let response = self.fail_over(&request, first)?;
        Ok(self.observe(response))
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> ServiceResult<()> {
        for member in &mut self.members {
            member.service.set_deadline(deadline)?;
        }
        Ok(())
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
    use imgraph::GraphDelta;

    use super::*;
    use crate::service::{PromotionOutcome, ReloadOutcome, RequestTypeCounts, ServiceInfo};

    /// A scripted fake backend: answers at a fixed epoch, or fails every
    /// call at the transport layer when `dead`.
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
    }

    impl InfluenceService for FakeNode {
        fn call(&mut self, request: &Request) -> ServiceResult<Response> {
            self.calls += 1;
            if self.dead {
                return Err(ServiceError::Transport(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "node is down",
                )));
            }
            Ok(match request {
                // Epoch-dependent answer: a stale replica is detectable.
                Request::Estimate { seeds } => Response::Estimate {
                    seeds: seeds.clone(),
                    spread: self.epoch as f64,
                    covered: self.epoch,
                    pool: 10,
                },
                Request::Stats => Response::Stats {
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
                },
                Request::MutateBatch { .. } if self.read_only => {
                    return Err(ServiceError::ReadOnly("write to the leader".into()))
                }
                Request::MutateBatch { deltas } => {
                    self.epoch += deltas.len() as u64;
                    Response::MutateBatch(MutationOutcome {
                        epoch: self.epoch,
                        applied: deltas.len(),
                        resampled: 0,
                        compacted: false,
                    })
                }
                Request::Reload { .. } => Response::Reloaded(ReloadOutcome {
                    epoch: self.epoch,
                    pool_size: 10,
                    log_len: 0,
                    swap_micros: 0,
                }),
                Request::Promote { .. } => Response::Promoted(PromotionOutcome {
                    epoch: self.epoch,
                    was_read_only: std::mem::take(&mut self.read_only),
                }),
                other => unreachable!("no scripted answer to {other:?}"),
            })
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
        set.observed_epoch = 5;
        set.members[0].service.dead = true;
        let estimate = set.estimate(&[0]).unwrap();
        assert_eq!(estimate.covered, 5, "the follower answered at the bar");
        assert_eq!(set.active_label(), "follower");
        // Later reads stay on the follower (no flapping back to probe the
        // dead leader).
        set.estimate(&[0]).unwrap();
        assert_eq!(set.active_label(), "follower");
    }

    /// A router puts a read on every shard with `begin` before it collects
    /// any reply with `finish`: the split read fails over exactly like a call.
    #[test]
    fn a_read_begun_and_finished_apart_fails_over_like_a_call() {
        let mut set = ReplicaSet::new(vec![
            ("leader".to_string(), FakeNode::alive(5)),
            ("follower".to_string(), FakeNode::alive(5)),
        ]);
        set.observed_epoch = 5;
        set.members[0].service.dead = true;
        let pending = set.begin(&Request::Estimate { seeds: vec![0] });
        let reply = set.finish(pending).unwrap();
        assert!(matches!(reply, Response::Estimate { covered: 5, .. }));
        assert_eq!(set.active_label(), "follower");
        // A write is answered inside `begin`, in declared order.
        set.members[0].service.dead = false;
        let pending = set.begin(&Request::MutateBatch {
            deltas: vec![delta()],
        });
        assert!(matches!(pending, Pending::Answered(Ok(_))));
        assert_eq!(set.members[0].service.epoch, 6, "the leader took it");
        set.finish(pending).unwrap();
        assert_eq!(set.observed_epoch, 6);
    }

    /// The replies that report an epoch (a batch, a compaction, stats)
    /// raise the catch-up bar to it, never lower it; any other reply leaves
    /// the bar alone, even one whose counts happen to exceed it. Every reply
    /// passes through unchanged.
    #[test]
    fn only_epoch_reports_move_the_catch_up_bar() {
        let batch = |epoch| {
            Response::MutateBatch(MutationOutcome {
                epoch,
                applied: 1,
                resampled: 0,
                compacted: false,
            })
        };
        let info = Response::Info(ServiceInfo {
            graph_id: "g".into(),
            model: "uc0.1".into(),
            num_vertices: 9,
            num_edges: 9,
            pool_size: 9,
            confidence_99: 1.0,
            shard_offset: 0,
            global_pool: 9,
        });
        for (reply, bar) in [
            (batch(7), 7),
            (batch(2), 5),
            (
                Response::Compact(CompactionReport {
                    epoch: 7,
                    folded: 2,
                }),
                7,
            ),
            (FakeNode::alive(7).call(&Request::Stats).unwrap(), 7),
            (info, 5),
            (
                FakeNode::alive(9)
                    .call(&Request::Estimate { seeds: vec![0] })
                    .unwrap(),
                5,
            ),
        ] {
            let mut set = ReplicaSet::new(vec![("leader".to_string(), FakeNode::alive(5))]);
            set.observed_epoch = 5;
            assert_eq!(set.observe(reply.clone()), reply);
            assert_eq!(set.observed_epoch, bar, "after {reply:?}");
        }
    }

    #[test]
    fn stale_followers_are_not_eligible_for_failover() {
        let mut set = ReplicaSet::new(vec![
            ("leader".to_string(), FakeNode::alive(9)),
            ("stale".to_string(), FakeNode::alive(4)),
        ]);
        set.observed_epoch = 9;
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
    fn admin_requests_reach_only_the_active_member_and_never_fail_over() {
        let mut set = ReplicaSet::new(vec![
            ("leader".to_string(), FakeNode::alive(5)),
            ("follower".to_string(), FakeNode::follower(5)),
        ]);
        set.reload("k.imx").unwrap();
        assert!(!set.promote(None).unwrap().was_read_only);
        assert_eq!(set.members[0].service.calls, 2);
        assert_eq!(set.members[1].service.calls, 0, "follower untouched");

        // A dead active member's own error is the answer: admin is neither
        // failed over nor iterated through the set.
        set.members[0].service.dead = true;
        for err in [
            set.reload("k.imx").unwrap_err(),
            set.promote(Some(5)).unwrap_err(),
        ] {
            assert!(matches!(err, ServiceError::Transport(_)), "{err}");
            assert!(err.to_string().contains("node is down"), "{err}");
        }
        assert_eq!(set.members[1].service.calls, 0, "follower never tried");
        assert_eq!(set.active_label(), "leader");

        // Admin follows the active member: once a read has failed over, a
        // promotion reaches the follower (and only it).
        set.estimate(&[0]).unwrap();
        assert_eq!(set.active_label(), "follower");
        assert!(set.promote(Some(5)).unwrap().was_read_only);
        assert_eq!(set.members[0].service.calls, 5, "leader: 4 admin + 1 read");
        assert_eq!(
            set.members[1].service.calls, 3,
            "follower: probe, read, promote"
        );
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
