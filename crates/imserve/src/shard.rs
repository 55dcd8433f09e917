//! [`ShardedService`]: one influence service over N disjoint pool shards.
//!
//! The scale wall for a single serving process is the RR-set pool: it must
//! fit one machine's memory, and every estimate touches it. Sharding cuts
//! the global pool into N contiguous slices ([`im_core::shard_layout`]),
//! each held by its own backend (in-process engine or remote server), and
//! routes every query through this module.
//!
//! **The shard-union invariant.** Every RR set's PRNG stream derives from
//! its *global* id (SplitMix64 over `base_seed` and the id), so shard `i`'s
//! local sets are byte-identical to the corresponding slice of the single
//! pool drawn at the same seed — including after mutations, because each
//! shard resamples its dirty sets from the same global streams a whole-pool
//! engine would use. Merging is therefore exact, not approximate:
//!
//! * `estimate` sums the shards' integer **covered counts** and re-derives
//!   `spread = n · Σcovered / Σpool` — bit-identical to the single-pool
//!   answer (combining per-shard floating-point spreads would not be);
//! * `top_k` runs the greedy rounds *in the router*: each round finds the
//!   first argmax of the shards' elementwise-summed integer gain vectors —
//!   reproducing, pick for pick, the selection greedy makes on the union
//!   pool — without, as a rule, moving those vectors or making a pool pass
//!   per round (see *Output-sensitive selection* below);
//! * mutations are **broadcast** to every shard and the returned epochs are
//!   verified to stay in lockstep; any divergence (a torn broadcast) is
//!   reported as [`ServiceError::Shard`] rather than silently merged.
//!
//! **Write ownership.** A shard group has one writer: the router (or a
//! single upstream feed all routers share). Mutating shard servers *behind*
//! a router's back can interleave with a fan-out so that different shards
//! answer one query at different epochs — a cross-epoch merge no single
//! pool could produce. The router verifies lockstep epochs wherever it can
//! do so without taxing the hot path: at construction, on every broadcast
//! outcome, on `stats`, and before every `top_k` (whose memo must never
//! serve a selection for an epoch the shards have left). A fresh
//! out-of-band mutation therefore surfaces as [`ServiceError::Shard`] at
//! the next selection or stats call instead of staying invisible.
//!
//! The router is itself an [`InfluenceService`], so sharded deployments nest
//! (shards of shards) and every caller — CLI, load generator, experiment
//! harness — works unchanged.
//!
//! **Output-sensitive selection.** A round's answer is one vertex (or `k`,
//! for the singleton ranking), so a round should not cost `n` integers per
//! shard. Each shard answers [`InfluenceService::gain_candidates`]: its top
//! [`im_core::ROUND_CANDIDATES`] (64) vertices by `(gain desc, id asc)` and
//! one *bound*, the largest gain it did not list. The candidates are the
//! union of the lists (minus the seeds already picked); a vertex outside
//! every list gains at most `bound_s` on shard `s`, hence at most
//! `U = Σ bound_s` in total. The router asks every
//! shard for the exact gain of each candidate (point reads, no pool pass —
//! skipped when every list already holds every candidate), sums them in
//! shard-index order, and accepts the first argmax over the candidates
//! **iff its total is strictly greater than `U`**. Strictness is what keeps
//! the tie rule: at `total == U` an unlisted vertex could tie the winner,
//! and if its id is lower the union pool would have picked *it*. When the
//! bounds do not separate a winner (a tie at the cut, an all-zero round,
//! fewer candidates than the ranking needs) the round falls back to summing
//! the full vectors — the same integers, so the same pick either way. See
//! [`threshold_round`]; `imserve_router_topk_rounds_total{path=…}` counts
//! how rounds were settled.
//!
//! **Candidates carried across rounds.** Listing is a whole-pool pass on
//! every shard, and a greedy `TopK(k)` pays it once, not `k` times. Gains
//! only shrink as seeds are added, so a vertex outside the union a listed
//! round drew gains at most that round's `U` in every later round too. A
//! later round therefore first probes the carried union minus the picks
//! since (one `limit: 0` fan-out: point reads, answered on each shard's
//! front-end loop) and settles by the same strict rule against the carried
//! `U`; only a round that probe cannot prove lists afresh, which refreshes
//! the union and `U`. The round loop is [`im_core::drive_greedy`], the one
//! in-process greedy runs too; `RoutedRounds` is the router's side of it.
//! Such rounds count as `path="threshold"`, and
//! `imserve_router_shard_passes_total` counts the pass fan-outs.
//!
//! **Pipelined fan-out.** A fan-out is one [`Request`] put on every shard
//! with [`InfluenceService::begin`] before any reply is awaited, then the
//! replies collected with [`InfluenceService::finish`] in shard-index order,
//! all on the calling thread. Remote shards therefore compute and answer
//! concurrently — every frame is on the wire before the first read — and a
//! fan-out spawns no thread: a routed point request costs one write and one
//! read per shard, not a thread start and a join besides. In-process shards
//! answer inside `begin`, one after another. The results are merged in
//! shard-index order, so the merged integers — and
//! therefore the derived spreads and selections — are byte-identical to the
//! sequential fan-out and to a single-pool backend. Failure semantics are
//! typed: a shard that rejects the *request* (a [`ServiceError::Query`] or
//! [`ServiceError::Mutation`]) fails the fan-out with that same error, since
//! every shard rejects deterministically alike; a shard that breaks
//! *mid-fan-out* (dropped connection, timeout, protocol violation) surfaces
//! as [`ServiceError::Shard`] naming the shard index. Set a per-shard
//! deadline with [`InfluenceService::set_deadline`] so a dead shard degrades
//! the answer loudly instead of hanging the router.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use im_core::{drive_greedy, settle_round, GreedyPass, GreedyRounds, ROUND_CANDIDATES};
use imdyn::EpochReport;
use imgraph::GraphDelta;
use imobs::EventField;

use crate::obs::{ServingMetrics, ShardLane};
use crate::protocol::{Request, Response, TopKAlgorithm, PROTOCOL_VERSION};
use crate::service::{
    check_vertices, CompactionReport, EventRecord, FamilyHelp, GainCandidates, GainVector,
    GaugeSample, HealthReport, InfluenceService, MetricsReport, MutationOutcome, Pending,
    ServiceError, ServiceInfo, ServiceResult, ServiceStats, SpreadEstimate, TopKSelection,
};

/// Settle one selection round from per-shard candidate lists: the top `want`
/// vertices of the shards' summed gains by `(total desc, id asc)` — `1` for
/// a greedy round's first argmax, `k` for the singleton ranking — or `None`
/// when the lists cannot prove them: [`settle_round`], the rule in-process
/// greedy settles its rounds by, over the summed totals with the sum of the
/// shards' bounds as the bound (see the module docs for why it is strict).
///
/// `ask(limit, probe)` fans one `gain_candidates` request out and returns
/// the shards' replies in shard-index order. It is called once with
/// `(limit, [])` and, unless every list already holds every candidate, once
/// more with `(0, candidates)`. Vertices for which `is_selected` holds are
/// never candidates. A reply that lists a vertex outside `num_vertices`, or
/// whose arrays disagree in length, is a typed [`ServiceError::Shard`]
/// naming the shard.
pub fn threshold_round(
    want: usize,
    limit: usize,
    num_vertices: usize,
    is_selected: impl Fn(u32) -> bool,
    ask: impl FnMut(usize, &[u32]) -> ServiceResult<Vec<GainCandidates>>,
) -> ServiceResult<Option<Vec<u32>>> {
    let (ranked, bound) = listed_round(limit, num_vertices, is_selected, ask)?;
    Ok(settle_round(ranked, want, bound))
}

/// The candidates of one listed round — the union of the shards' lists,
/// each with its exact summed gain, by ascending id — and the sum of the
/// shards' bounds, the most any other unselected vertex gains
/// ([`threshold_round`] before it settles).
fn listed_round(
    limit: usize,
    num_vertices: usize,
    is_selected: impl Fn(u32) -> bool,
    mut ask: impl FnMut(usize, &[u32]) -> ServiceResult<Vec<GainCandidates>>,
) -> ServiceResult<(Vec<(u32, u64)>, u64)> {
    let lists = ask(limit, &[])?;
    // vertex -> (gain summed over the lists holding it, how many do).
    let mut listed: BTreeMap<u32, (u64, usize)> = BTreeMap::new();
    let mut unlisted_bound = 0u64;
    for (i, list) in lists.iter().enumerate() {
        if list.vertices.len() != list.counts.len() {
            return Err(ServiceError::Shard(format!(
                "shard {i} listed {} candidates with {} counts",
                list.vertices.len(),
                list.counts.len()
            )));
        }
        // Saturating: these integers come off the wire.
        unlisted_bound = unlisted_bound.saturating_add(list.bound);
        for (&v, &count) in list.vertices.iter().zip(&list.counts) {
            if v as usize >= num_vertices {
                return Err(ServiceError::Shard(format!(
                    "shard {i} listed vertex {v} of {num_vertices}"
                )));
            }
            if !is_selected(v) {
                let entry = listed.entry(v).or_default();
                entry.0 = entry.0.saturating_add(count);
                entry.1 += 1;
            }
        }
    }
    let ranked: Vec<(u32, u64)> = if listed.values().all(|&(_, hits)| hits == lists.len()) {
        listed.iter().map(|(&v, &(total, _))| (v, total)).collect()
    } else {
        let candidates: Vec<u32> = listed.keys().copied().collect();
        let totals = probe_totals(&ask(0, &candidates)?, &candidates)?;
        candidates.into_iter().zip(totals).collect()
    };
    Ok((ranked, unlisted_bound))
}

/// The summed exact gains of `candidates` from the shards' probe replies,
/// in shard-index order; a reply with a count missing or extra is a typed
/// [`ServiceError::Shard`] naming the shard.
fn probe_totals(replies: &[GainCandidates], candidates: &[u32]) -> ServiceResult<Vec<u64>> {
    let mut totals = vec![0u64; candidates.len()];
    for (i, reply) in replies.iter().enumerate() {
        if reply.probed.len() != candidates.len() {
            return Err(ServiceError::Shard(format!(
                "shard {i} answered {} probes for {} candidates",
                reply.probed.len(),
                candidates.len()
            )));
        }
        for (total, gain) in totals.iter_mut().zip(&reply.probed) {
            // Saturating: these integers come off the wire.
            *total = total.saturating_add(*gain);
        }
    }
    Ok(totals)
}

/// `sum + count` for a count shard `i` reported, or a typed
/// [`ServiceError::Shard`] naming the shard when the sum leaves `u64`: these
/// integers come off the wire, and no union pool can hold that many sets.
fn add_shard_count(i: usize, what: &str, sum: u64, count: u64) -> ServiceResult<u64> {
    sum.checked_add(count).ok_or_else(|| {
        ServiceError::Shard(format!(
            "shard {i} reported {what} {count}, overflowing the union's sum {sum}"
        ))
    })
}

/// A router over N shard backends (see the module docs for the invariant).
#[derive(Debug)]
pub struct ShardedService<S: InfluenceService> {
    shards: Vec<S>,
    /// Merged metadata, validated at construction and after every mutation.
    info: ServiceInfo,
    /// The lockstep epoch as of the last verification (construction,
    /// broadcast outcome, `stats`, or the pre-`top_k` refresh).
    epoch: u64,
    /// One memoized selection: `(k, algorithm, epoch) -> selection`. The
    /// router-driven greedy costs each shard a pool pass plus a probe per
    /// later round, so repeated identical selections (the common loadtest
    /// shape) shouldn't pay it twice; backend-side LRU caches cannot help
    /// here because the router never calls backend `top_k`. Guarded by the
    /// pre-`top_k` epoch refresh, so a selection computed for a departed
    /// epoch cannot be served.
    memo: Option<(usize, TopKAlgorithm, u64, TopKSelection)>,
    /// Router-side metrics: fan-out counts plus one labelled lane per shard.
    obs: Arc<ServingMetrics>,
    /// Pre-fetched per-shard lane handles (index-aligned with `shards`), so
    /// fan-out legs record without touching the registry.
    lanes: Vec<ShardLane>,
    /// The caller's active trace id (also broadcast to every shard by
    /// [`InfluenceService::set_trace`]), retained so router-side events —
    /// torn broadcasts, deadline misses — carry the trace that hit them.
    trace: Option<u64>,
}

impl<S: InfluenceService> ShardedService<S> {
    /// Assemble a router over `shards`, validating that they serve the same
    /// graph at the same epoch (anything else means the backends were not
    /// built from one shard layout, or have diverged).
    pub fn new(mut shards: Vec<S>) -> ServiceResult<Self> {
        if shards.is_empty() {
            return Err(ServiceError::Shard("no shard backends given".into()));
        }
        let mut merged: Option<ServiceInfo> = None;
        let mut epoch: Option<u64> = None;
        // Each backend's claimed global range, for the coverage check below.
        let mut ranges: Vec<(u64, u64, u64)> = Vec::with_capacity(shards.len());
        for (i, shard) in shards.iter_mut().enumerate() {
            let info = shard.info()?;
            let stats = shard.stats()?;
            ranges.push((
                info.shard_offset,
                info.shard_offset + info.pool_size as u64,
                info.global_pool,
            ));
            match &mut merged {
                None => {
                    merged = Some(info);
                    epoch = Some(stats.epoch);
                }
                Some(m) => {
                    if info.graph_id != m.graph_id
                        || info.model != m.model
                        || info.num_vertices != m.num_vertices
                        || info.num_edges != m.num_edges
                    {
                        return Err(ServiceError::Shard(format!(
                            "shard {i} serves {}/{} ({}x{}) but shard 0 serves {}/{} ({}x{})",
                            info.graph_id,
                            info.model,
                            info.num_vertices,
                            info.num_edges,
                            m.graph_id,
                            m.model,
                            m.num_vertices,
                            m.num_edges
                        )));
                    }
                    if Some(stats.epoch) != epoch {
                        return Err(ServiceError::Shard(format!(
                            "shard {i} is at epoch {} but shard 0 is at {}",
                            stats.epoch,
                            epoch.unwrap_or(0)
                        )));
                    }
                    m.pool_size += info.pool_size;
                }
            }
        }
        // The backends must cover one contiguous, disjoint slice of the
        // global set-id space — no duplicates (the same address listed
        // twice would double-count its covered sets), no overlaps, no
        // interior gaps. Every backend reports its global range via `info`,
        // so a misconfigured shard set fails here instead of merging wrong
        // answers. (A group covering a contiguous *sub*-range is legal: it
        // behaves as one larger shard, which is what lets routers nest; the
        // merged `info` exposes `pool_size < global_pool` so partial
        // coverage stays observable.)
        let global = ranges[0].2;
        if let Some((i, _)) = ranges.iter().enumerate().find(|(_, r)| r.2 != global) {
            return Err(ServiceError::Shard(format!(
                "shard {i} claims a global pool of {} but shard 0 claims {global}",
                ranges[i].2
            )));
        }
        let mut sorted = ranges.clone();
        sorted.sort_unstable();
        let group_start = sorted[0].0;
        let mut expected_start = group_start;
        for &(start, end, _) in &sorted {
            if start != expected_start {
                return Err(ServiceError::Shard(format!(
                    "shard backends do not tile the global pool of {global}: sets \
                     {expected_start}..{start} are {} — merged answers would not equal the \
                     single-pool ones (is the same shard address listed twice, or one missing?)",
                    if start < expected_start {
                        "covered twice"
                    } else {
                        "covered by no backend"
                    }
                )));
            }
            expected_start = end;
        }
        if expected_start > global {
            return Err(ServiceError::Shard(format!(
                "shard backends claim sets up to {expected_start}, past the global pool \
                 of {global}"
            )));
        }
        let mut info = merged.expect("at least one shard");
        info.shard_offset = group_start;
        info.global_pool = global;
        info.confidence_99 = 1.29 * info.num_vertices as f64 / (info.pool_size as f64).sqrt();
        // Router-side observability: its own registry (fan-out counters and
        // per-shard labelled lanes), separate from any engine's — the router
        // measures the fan-out layer, the shards measure themselves.
        let obs = ServingMetrics::with_defaults();
        let lanes: Vec<ShardLane> = (0..shards.len()).map(|i| obs.shard_lane(i)).collect();
        Ok(Self {
            shards,
            info,
            epoch: epoch.unwrap_or(0),
            memo: None,
            obs,
            lanes,
            trace: None,
        })
    }

    /// Number of shard backends behind this router.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The router-side observability surface (fan-out counters, per-shard
    /// send/recv/error lanes and round-trip histograms).
    #[must_use]
    pub fn obs(&self) -> &Arc<ServingMetrics> {
        &self.obs
    }

    /// Federate the cluster's metrics into one report: fan a `Metrics`
    /// request out to every shard concurrently, tag each answering shard's
    /// series with a leading `shard="i"` label, and merge both the tagged
    /// copy *and* the untagged original into the router's own report — so a
    /// single scrape shows the merged cluster value for every family
    /// (counters summed, cumulative histogram buckets added elementwise,
    /// keeping quantile bounds within one log₂ bucket) next to the
    /// per-shard series that sum to it, and renders through the same
    /// [`MetricsReport::render_prometheus`] a single server's `/metrics`
    /// uses, help text included. A shard that cannot answer (dead,
    /// or an older server without the `Metrics` request) degrades the
    /// report instead of failing it: its series are absent and its
    /// `imserve_shard_up{shard="i"}` gauge reads `0`.
    pub fn cluster_metrics(&mut self) -> MetricsReport {
        let results = self.fan_out::<MetricsReport>(&Request::Metrics);
        let mut merged = self.obs.report();
        merged.help.push(FamilyHelp {
            family: "imserve_shard_up".into(),
            help: "1 if the shard answered this scrape's Metrics fan-out, 0 otherwise.".into(),
        });
        for (i, result) in results.into_iter().enumerate() {
            let up = match result {
                Ok(report) => {
                    merged.merge(&report.with_shard_label(i));
                    merged.merge(&report);
                    1
                }
                Err(_) => 0,
            };
            merged.gauges.push(GaugeSample {
                name: format!("imserve_shard_up{{shard=\"{i}\"}}"),
                value: up,
            });
        }
        merged
    }

    /// Put `request` on every shard, then collect the replies as `T` in
    /// shard-index order, the order every merge below depends on (see
    /// *Pipelined fan-out* in the module docs): no thread is spawned, and
    /// every leg is collected, failed or not, so no connection is left with
    /// a reply unread. Each leg records into its shard's lane (send/recv/error
    /// counters and the round-trip histogram, from its `begin` to its
    /// `finish`); `obs` counts the fan-out itself and its event log receives
    /// one event per failing leg — `shard_deadline_missed` for a transport
    /// timeout, `shard_fanout_error` otherwise — stamped with the caller's
    /// active trace id (`0` when untraced).
    fn fan_out<T>(&mut self, request: &Request) -> Vec<ServiceResult<T>>
    where
        T: TryFrom<Response, Error = ServiceError>,
    {
        self.obs.shard_fanouts.inc();
        if matches!(
            request,
            Request::Gains { .. } | Request::GainCandidates { limit: 1.., .. }
        ) {
            self.obs.router_shard_passes.inc();
        }
        let legs: Vec<(Instant, Pending)> = (self.shards.iter_mut().zip(&self.lanes))
            .map(|(shard, lane)| {
                lane.sends.inc();
                (Instant::now(), shard.begin(request))
            })
            .collect();
        let trace = self.trace.unwrap_or(0);
        let replies = self.shards.iter_mut().zip(&self.lanes).zip(legs);
        (replies.enumerate())
            .map(|(i, ((shard, lane), (began, pending)))| {
                let result = shard.finish(pending).and_then(T::try_from);
                lane.rtt_micros.record(began.elapsed().as_micros() as u64);
                match &result {
                    Ok(_) => lane.recvs.inc(),
                    Err(e) => {
                        lane.errors.inc();
                        let deadline_missed = matches!(
                            e,
                            ServiceError::Transport(io) if matches!(
                                io.kind(),
                                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                            )
                        );
                        let code = if deadline_missed {
                            "shard_deadline_missed"
                        } else {
                            "shard_fanout_error"
                        };
                        self.obs.event_log.warn(
                            code,
                            trace,
                            vec![
                                EventField::u64("shard", i as u64),
                                EventField::text("error", e.to_string()),
                            ],
                        );
                    }
                }
                result
            })
            .collect()
    }

    /// [`ShardedService::fan_out`], failing on the lowest-indexed shard
    /// error (see [`ShardedService::merge_results`]).
    fn fan_out_all<T>(&mut self, request: &Request) -> ServiceResult<Vec<T>>
    where
        T: TryFrom<Response, Error = ServiceError>,
    {
        Self::merge_results(self.fan_out(request))
    }

    /// Type a shard's fan-out failure. Request-level rejections (`Query`,
    /// `Mutation`) pass through untouched — every shard rejects an invalid
    /// request deterministically alike, so the caller sees the same typed
    /// error a single-pool backend returns. Anything else means shard `i`
    /// itself broke (dropped connection, deadline expiry, protocol
    /// violation): the union invariant is gone and the error says which
    /// shard took it.
    fn shard_error(i: usize, e: ServiceError) -> ServiceError {
        match e {
            ServiceError::Query(_) | ServiceError::Mutation(_) | ServiceError::Shard(_) => e,
            other => ServiceError::Shard(format!("shard {i} failed during fan-out: {other}")),
        }
    }

    /// Unwrap a fan-out's results, failing on the lowest-indexed shard error.
    fn merge_results<T>(results: Vec<ServiceResult<T>>) -> ServiceResult<Vec<T>> {
        let mut values = Vec::with_capacity(results.len());
        for (i, result) in results.into_iter().enumerate() {
            values.push(result.map_err(|e| Self::shard_error(i, e))?);
        }
        Ok(values)
    }

    /// Re-read every shard's epoch (concurrently), verify they are still in
    /// lockstep, and record the common value (one cheap `stats` round per
    /// shard). Makes out-of-band mutations visible — and the `top_k` memo
    /// safe — at the cost of the verification round.
    fn refresh_epoch(&mut self) -> ServiceResult<u64> {
        let all = self.fan_out_all::<ServiceStats>(&Request::Stats)?;
        let mut epoch: Option<u64> = None;
        for (i, stats) in all.iter().enumerate() {
            let observed = stats.epoch;
            match epoch {
                None => epoch = Some(observed),
                Some(e) if e == observed => {}
                Some(e) => {
                    return Err(ServiceError::Shard(format!(
                        "shard {i} is at epoch {observed} but shard 0 is at {e}; the shards \
                         were mutated outside this router or a broadcast was torn"
                    )))
                }
            }
        }
        let epoch = epoch.expect("at least one shard");
        self.epoch = epoch;
        Ok(epoch)
    }

    /// One listed round over this router's fan-out ([`listed_round`] with
    /// lists of `limit`): the union's exact totals and the summed bound.
    fn listed_round(
        &mut self,
        selected: &[u32],
        is_selected: impl Fn(u32) -> bool,
        limit: usize,
    ) -> ServiceResult<(Vec<(u32, u64)>, u64)> {
        listed_round(
            limit,
            self.info.num_vertices,
            is_selected,
            |limit, probe| {
                self.fan_out_all(&Request::GainCandidates {
                    selected: selected.to_vec(),
                    limit,
                    probe: probe.to_vec(),
                })
            },
        )
    }

    /// Router-driven greedy maximum coverage over the union pool:
    /// [`drive_greedy`], the round loop of
    /// [`im_core::InfluenceOracle::greedy_seed_set`], over the shards (see
    /// [`RoutedRounds`]), so the picks are the union pool's pick for pick.
    fn greedy(&mut self, k: usize) -> ServiceResult<Vec<u32>> {
        let n = self.info.num_vertices;
        drive_greedy(
            &mut RoutedRounds {
                router: self,
                full_round: false,
            },
            n,
            k,
        )
    }

    /// Rank vertices by singleton coverage (the integer form of singleton
    /// influence) and take the best `k` — replicates
    /// [`im_core::InfluenceOracle::top_influential_vertices`] (ties broken
    /// by vertex id; coverage order equals influence order because the
    /// union pool divisor is shared).
    fn singleton_rank(&mut self, k: usize) -> ServiceResult<Vec<u32>> {
        let (ranked, bound) = self.listed_round(&[], |_| false, k.max(ROUND_CANDIDATES))?;
        if let Some(top) = settle_round(ranked, k, bound) {
            self.obs.router_rounds_threshold.inc();
            return Ok(top);
        }
        self.obs.router_rounds_full.inc();
        let singles = self.gains(&[])?;
        let mut ranked: Vec<(u32, u64)> = singles
            .gains
            .iter()
            .enumerate()
            .map(|(v, &g)| (v as u32, g))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        Ok(ranked.into_iter().map(|(v, _)| v).collect())
    }
}

/// The router's side of [`drive_greedy`]. A pass is a listed round: every
/// shard's top [`ROUND_CANDIDATES`] and bound, the union probed when the
/// lists disagree, and — when the bound does not separate a winner — the
/// summed full vectors. A probe is one `GainCandidates{limit: 0}` fan-out,
/// point reads that each shard's front end answers without a pool pass.
/// Each round is counted at its pick: `path="full"` when its pass summed
/// the full vectors, `path="threshold"` otherwise (from the lists, or from
/// the carried candidates).
struct RoutedRounds<'a, S: InfluenceService> {
    router: &'a mut ShardedService<S>,
    /// Whether the round in progress fell back to the full vectors.
    full_round: bool,
}

impl<S: InfluenceService> GreedyRounds for RoutedRounds<'_, S> {
    type Error = ServiceError;

    #[inline]
    fn pass(&mut self, selected: &[u32]) -> ServiceResult<Option<GreedyPass>> {
        let mut is_selected = vec![false; self.router.info.num_vertices];
        for &v in selected {
            is_selected[v as usize] = true;
        }
        let (ranked, bound) =
            self.router
                .listed_round(selected, |v| is_selected[v as usize], ROUND_CANDIDATES)?;
        let candidates = ranked.iter().map(|&(v, _)| v).collect();
        let winner = match settle_round(ranked, 1, bound) {
            Some(top) => top[0],
            None => {
                self.full_round = true;
                let round = self.router.gains(selected)?;
                // The first argmax: the highest gain, then the lowest id.
                let best = (round.gains.iter().enumerate())
                    .filter(|&(v, _)| !is_selected[v])
                    .min_by_key(|&(v, &gain)| (Reverse(gain), v));
                let Some((winner, _)) = best else {
                    return Ok(None);
                };
                winner as u32
            }
        };
        Ok(Some(GreedyPass {
            winner,
            candidates,
            bound,
        }))
    }

    #[inline]
    fn probe(&mut self, selected: &[u32], candidates: &[u32]) -> ServiceResult<Vec<u64>> {
        let replies: Vec<GainCandidates> = self.router.fan_out_all(&Request::GainCandidates {
            selected: selected.to_vec(),
            limit: 0,
            probe: candidates.to_vec(),
        })?;
        probe_totals(&replies, candidates)
    }

    #[inline]
    fn select(&mut self, _v: u32) {
        let obs = &self.router.obs;
        if std::mem::take(&mut self.full_round) {
            obs.router_rounds_full.inc();
        } else {
            obs.router_rounds_threshold.inc();
        }
    }
}

impl<S: InfluenceService> InfluenceService for ShardedService<S> {
    /// Dispatch onto this router's own methods. `Reload` and `Promote`
    /// target one node, which a router is not: they are refused here, since
    /// a provided method would call back into `call`.
    fn call(&mut self, request: &Request) -> ServiceResult<Response> {
        Ok(match request {
            Request::Ping => Response::Pong,
            Request::Hello { .. } => Response::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Info => self.info()?.into(),
            Request::Estimate { seeds } => self.estimate(seeds)?.into(),
            Request::TopK { k, algorithm } => self.top_k(*k, *algorithm)?.into(),
            Request::Gains { selected } => self.gains(selected)?.into(),
            Request::GainCandidates {
                selected,
                limit,
                probe,
            } => self.gain_candidates(selected, *limit, probe)?.into(),
            Request::MutateBatch { deltas } => self.mutate_batch(deltas)?.into(),
            Request::Compact => self.compact()?.into(),
            Request::Stats => self.stats()?.into(),
            Request::Metrics => self.metrics()?.into(),
            Request::Health => self.health()?.into(),
            Request::Events => self.events()?.into(),
            Request::Reload { .. } => {
                return Err(ServiceError::Backend(
                    "hot-swap reload not supported by this backend".into(),
                ))
            }
            Request::Promote { .. } => {
                return Err(ServiceError::Backend(
                    "promotion not supported by this backend".into(),
                ))
            }
        })
    }

    fn info(&mut self) -> ServiceResult<ServiceInfo> {
        Ok(self.info.clone())
    }

    fn estimate(&mut self, seeds: &[u32]) -> ServiceResult<SpreadEstimate> {
        let all: Vec<SpreadEstimate> = self.fan_out_all(&Request::Estimate {
            seeds: seeds.to_vec(),
        })?;
        let (mut covered, mut pool) = (0u64, 0u64);
        for (i, estimate) in all.iter().enumerate() {
            covered = add_shard_count(i, "covered", covered, estimate.covered)?;
            pool = add_shard_count(i, "pool", pool, estimate.pool)?;
        }
        // Re-derive the union spread from the summed integers: the same
        // expression a whole-pool oracle evaluates, hence bit-identical.
        Ok(SpreadEstimate {
            seeds: seeds.to_vec(),
            spread: self.info.num_vertices as f64 * covered as f64 / pool as f64,
            covered,
            pool,
        })
    }

    fn top_k(&mut self, k: usize, algorithm: TopKAlgorithm) -> ServiceResult<TopKSelection> {
        if k == 0 {
            return Err(ServiceError::Query("k must be positive".into()));
        }
        // Selections are expensive and memoized, so verify the lockstep
        // epoch first: a mutation applied behind this router's back must
        // invalidate the memo (and a torn broadcast must surface) rather
        // than silently serving a stale seed set.
        let epoch = self.refresh_epoch()?;
        if let Some((mk, malg, mepoch, selection)) = &self.memo {
            if *mk == k && *malg == algorithm && *mepoch == epoch {
                return Ok(selection.clone());
            }
        }
        let seeds = match algorithm {
            TopKAlgorithm::Greedy => self.greedy(k)?,
            TopKAlgorithm::SingletonRank => self.singleton_rank(k)?,
        };
        let spread = self.estimate(&seeds)?.spread;
        let selection = TopKSelection {
            seeds,
            spread,
            algorithm,
        };
        self.memo = Some((k, algorithm, self.epoch, selection.clone()));
        Ok(selection)
    }

    /// Sum every shard's gain vector elementwise (one greedy round over the
    /// union pool). The vectors are fetched concurrently and summed in
    /// shard-index order; integer addition commutes, so the sums equal the
    /// sequential ones bit for bit.
    fn gains(&mut self, selected: &[u32]) -> ServiceResult<GainVector> {
        let n = self.info.num_vertices;
        let all: Vec<GainVector> = self.fan_out_all(&Request::Gains {
            selected: selected.to_vec(),
        })?;
        let mut sum = vec![0u64; n];
        let (mut covered, mut pool) = (0u64, 0u64);
        for (i, gv) in all.iter().enumerate() {
            if gv.gains.len() != n {
                return Err(ServiceError::Shard(format!(
                    "shard {i} answered {} gains for {n} vertices",
                    gv.gains.len()
                )));
            }
            // One flag for the whole vector, not a branch per vertex, so the
            // loop stays as cheap as the unchecked sum.
            let mut overflowed = false;
            for (acc, &g) in sum.iter_mut().zip(&gv.gains) {
                let (total, carry) = acc.overflowing_add(g);
                *acc = total;
                overflowed |= carry;
            }
            if overflowed {
                return Err(ServiceError::Shard(format!(
                    "shard {i} reported gains overflowing the union's sums"
                )));
            }
            covered = add_shard_count(i, "covered", covered, gv.covered)?;
            pool = add_shard_count(i, "pool", pool, gv.pool)?;
        }
        Ok(GainVector {
            gains: sum,
            covered,
            pool,
        })
    }

    /// Cut out of the summed vectors ([`GainVector::candidates`]); the
    /// router's own rounds use the threshold merge instead.
    fn gain_candidates(
        &mut self,
        selected: &[u32],
        limit: usize,
        probe: &[u32],
    ) -> ServiceResult<GainCandidates> {
        let gains = self.gains(selected)?;
        check_vertices("probed vertex", probe, gains.gains.len())?;
        Ok(gains.candidates(limit, probe))
    }

    fn mutate_batch(&mut self, deltas: &[GraphDelta]) -> ServiceResult<MutationOutcome> {
        // Broadcast to every shard concurrently. Shard-local batches are
        // atomic, so the only torn state is *between* shards: if some shards
        // applied the batch and others rejected it, the union invariant is
        // broken and we say so loudly instead of returning a
        // mergeable-looking answer. If *every* shard rejected, nothing was
        // applied anywhere and the batch is simply invalid — the caller sees
        // shard 0's error untouched, exactly as a single-pool backend would
        // report it.
        let results = self.fan_out::<MutationOutcome>(&Request::MutateBatch {
            deltas: deltas.to_vec(),
        });
        if results.iter().all(Result::is_err) {
            let first = results.into_iter().next().expect("at least one shard");
            return Err(first.expect_err("all results are errors"));
        }
        if let Some((i, Err(e))) = results
            .iter()
            .enumerate()
            .find(|(_, r)| r.is_err())
            .map(|(i, r)| (i, r.as_ref()))
        {
            // Partial application: the epochs have diverged, so the memo
            // (keyed by the lockstep epoch) must not survive.
            self.memo = None;
            self.obs.event_log.error(
                "torn_broadcast",
                self.trace.unwrap_or(0),
                vec![
                    EventField::u64("shard", i as u64),
                    EventField::u64("epoch_before", self.epoch),
                    EventField::u64("deltas", deltas.len() as u64),
                    EventField::text("error", e.to_string()),
                ],
            );
            return Err(ServiceError::Shard(format!(
                "broadcast torn: shard {i} rejected the batch ({e}) while other shards \
                 applied it; shards have diverged and must be re-synchronized"
            )));
        }
        let outcomes: Vec<MutationOutcome> =
            results.into_iter().map(|r| r.expect("no errors")).collect();
        let mut first: Option<MutationOutcome> = None;
        let mut resampled = 0usize;
        let mut compacted = false;
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match &first {
                None => {
                    resampled += outcome.resampled;
                    compacted |= outcome.compacted;
                    first = Some(outcome);
                }
                Some(f) => {
                    if outcome.epoch != f.epoch || outcome.applied != f.applied {
                        return Err(ServiceError::Shard(format!(
                            "shard {i} reports epoch {} ({} applied) but shard 0 reports \
                             epoch {} ({} applied)",
                            outcome.epoch, outcome.applied, f.epoch, f.applied
                        )));
                    }
                    resampled += outcome.resampled;
                    compacted |= outcome.compacted;
                }
            }
        }
        let first = first.expect("at least one shard");
        self.epoch = first.epoch;
        self.memo = None;
        // Mutations change edge counts; refresh the merged metadata from
        // shard 0 (dimension equality was just verified via the outcomes).
        let refreshed = self.shards[0].info()?;
        self.info.num_edges = refreshed.num_edges;
        Ok(MutationOutcome {
            epoch: first.epoch,
            applied: first.applied,
            resampled,
            compacted,
        })
    }

    fn compact(&mut self) -> ServiceResult<CompactionReport> {
        let all = self.fan_out_all::<CompactionReport>(&Request::Compact)?;
        let mut epoch: Option<u64> = None;
        let mut folded = 0usize;
        for (i, report) in all.into_iter().enumerate() {
            match epoch {
                None => epoch = Some(report.epoch),
                Some(e) if e == report.epoch => {}
                Some(e) => {
                    return Err(ServiceError::Shard(format!(
                        "shard {i} compacted at epoch {} but shard 0 at {e}",
                        report.epoch
                    )))
                }
            }
            folded += report.folded;
        }
        Ok(CompactionReport {
            epoch: epoch.expect("at least one shard"),
            folded,
        })
    }

    fn set_deadline(&mut self, deadline: Option<std::time::Duration>) -> ServiceResult<()> {
        // Propagate to every shard so a dead backend fails its fan-out leg
        // within the deadline instead of hanging the whole router. A local
        // setting, not a request: nothing crosses the wire.
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard
                .set_deadline(deadline)
                .map_err(|e| Self::shard_error(i, e))?;
        }
        Ok(())
    }

    fn stats(&mut self) -> ServiceResult<ServiceStats> {
        let all = self.fan_out_all::<ServiceStats>(&Request::Stats)?;
        let mut merged: Option<ServiceStats> = None;
        let mut shard_reports: Vec<EpochReport> = Vec::with_capacity(all.len());
        for (i, stats) in all.into_iter().enumerate() {
            shard_reports.push(EpochReport {
                epoch: stats.epoch,
                snapshot_epoch: stats.snapshot_epoch,
                log_len: stats.log_len,
            });
            match &mut merged {
                None => merged = Some(stats),
                Some(m) => {
                    // Epochs are lockstep-critical; watermarks may differ
                    // (shards compact on their own policies), so the merged
                    // view reports the most conservative pair.
                    if stats.epoch != m.epoch {
                        return Err(ServiceError::Shard(format!(
                            "shard {i} is at epoch {} but shard 0 is at {}",
                            stats.epoch, m.epoch
                        )));
                    }
                    m.requests += stats.requests;
                    m.topk_cache_hits += stats.topk_cache_hits;
                    m.topk_cache_misses += stats.topk_cache_misses;
                    m.pool_size += stats.pool_size;
                    m.deltas_applied += stats.deltas_applied;
                    m.sets_resampled += stats.sets_resampled;
                    m.log_len = m.log_len.max(stats.log_len);
                    m.snapshot_epoch = m.snapshot_epoch.min(stats.snapshot_epoch);
                    m.compactions += stats.compactions;
                    // The group has served as long as its oldest member.
                    m.uptime_secs = m.uptime_secs.max(stats.uptime_secs);
                    m.requests_by_type = m.requests_by_type.merged(&stats.requests_by_type);
                    m.pool_resident_bytes += stats.pool_resident_bytes;
                    if m.pool_layout != stats.pool_layout {
                        m.pool_layout = "mixed".to_string();
                    }
                }
            }
        }
        let mut stats = merged.expect("at least one shard");
        stats.shards = shard_reports;
        Ok(stats)
    }

    /// Federated cluster metrics — see [`ShardedService::cluster_metrics`].
    fn metrics(&mut self) -> ServiceResult<MetricsReport> {
        Ok(self.cluster_metrics())
    }

    /// Cluster readiness from real signals: one `shard_{i}_reachable` signal
    /// per backend (from a concurrent `stats` fan-out, so a dead shard is
    /// named with the error that killed its leg) plus one `epoch_lockstep`
    /// signal over the reachable shards (naming the diverging shards and
    /// epochs when a torn broadcast or out-of-band mutation split them).
    /// Never fails: an unreachable shard degrades the report, it does not
    /// error the probe — `/readyz` must keep answering while degraded.
    fn health(&mut self) -> ServiceResult<HealthReport> {
        let results = self.fan_out::<ServiceStats>(&Request::Stats);
        let mut report = HealthReport::new();
        let mut epochs: Vec<(usize, u64)> = Vec::with_capacity(results.len());
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok(stats) => {
                    report.push(
                        format!("shard_{i}_reachable"),
                        true,
                        format!("epoch {}, {} requests served", stats.epoch, stats.requests),
                    );
                    epochs.push((i, stats.epoch));
                }
                Err(e) => {
                    report.push(
                        format!("shard_{i}_reachable"),
                        false,
                        format!("shard {i} is unreachable: {e}"),
                    );
                }
            }
        }
        match epochs.split_first() {
            Some((&(first_idx, first_epoch), rest)) => {
                match rest.iter().find(|&&(_, e)| e != first_epoch) {
                    Some(&(i, e)) => report.push(
                        "epoch_lockstep",
                        false,
                        format!(
                            "shard {i} is at epoch {e} but shard {first_idx} is at \
                             {first_epoch}; merged answers would mix epochs"
                        ),
                    ),
                    None => report.push(
                        "epoch_lockstep",
                        true,
                        format!("all reachable shards at epoch {first_epoch}"),
                    ),
                }
            }
            None => report.push("epoch_lockstep", false, "no shard is reachable"),
        }
        Ok(report)
    }

    /// The router's own event ring: torn broadcasts, deadline misses and
    /// fan-out errors observed at this layer. Shard-side events stay on
    /// their shards (ask them directly) — unlike metrics, events are
    /// discrete records whose interleaving across layers would be
    /// misleading without a merge key the wire does not carry.
    fn events(&mut self) -> ServiceResult<Vec<EventRecord>> {
        Ok(self
            .obs
            .event_log
            .entries()
            .iter()
            .map(EventRecord::from)
            .collect())
    }

    /// Propagate the caller's trace id to every shard: each fan-out leg
    /// stamps it onto its frames ([`crate::client::RemoteService`] hops), so
    /// the per-shard sub-requests stitch into the original request's trace.
    /// The router also retains it so its own events (torn broadcasts,
    /// deadline misses) carry the trace that hit them.
    fn set_trace(&mut self, trace: Option<u64>) {
        self.trace = trace;
        for shard in &mut self.shards {
            shard.set_trace(trace);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    use super::*;
    use crate::engine::QueryEngine;
    use crate::index::{parse_dataset, parse_model, IndexArtifact};
    use crate::service::LocalService;

    /// `(shard, half, thread)` for every `begin` and `finish`, in order.
    type Log = Arc<Mutex<Vec<(usize, &'static str, ThreadId)>>>;

    /// A local shard that logs each half of every call it is asked.
    struct Logged {
        inner: LocalService,
        shard: usize,
        log: Log,
    }

    impl Logged {
        fn note(&self, half: &'static str) {
            let thread = std::thread::current().id();
            self.log.lock().unwrap().push((self.shard, half, thread));
        }
    }

    impl InfluenceService for Logged {
        fn call(&mut self, request: &Request) -> ServiceResult<Response> {
            self.inner.call(request)
        }

        fn begin(&mut self, request: &Request) -> Pending {
            self.note("begin");
            Pending::Answered(self.inner.call(request))
        }

        fn finish(&mut self, pending: Pending) -> ServiceResult<Response> {
            self.note("finish");
            match pending {
                Pending::Answered(answer) => answer,
                Pending::Sent(_) => unreachable!("a local shard answers in begin"),
            }
        }
    }

    /// Every fan-out puts its request on all shards before it collects any
    /// reply, and runs every leg on the caller's thread.
    #[test]
    fn a_fan_out_sends_to_every_shard_before_it_reads_and_spawns_no_thread() {
        const SHARDS: usize = 3;
        let graph = parse_dataset("karate")
            .unwrap()
            .influence_graph(parse_model("uc0.1").unwrap(), 7);
        let log = Log::default();
        let shards = (0..SHARDS)
            .map(|shard| {
                let artifact =
                    IndexArtifact::build_shard("karate", "uc0.1", graph.clone(), 900, 7, shard, 3);
                let engine = Arc::new(QueryEngine::builder(artifact).build().unwrap());
                let inner = LocalService::new(engine);
                let log = Arc::clone(&log);
                Logged { inner, shard, log }
            })
            .collect();
        let mut router = ShardedService::new(shards).unwrap();
        router.estimate(&[0, 33]).unwrap();
        router.top_k(3, TopKAlgorithm::Greedy).unwrap();
        router.gains(&[0]).unwrap();
        let log = log.lock().unwrap();
        let caller = std::thread::current().id();
        let fan_out: Vec<(usize, &str)> = (0..SHARDS)
            .map(|shard| (shard, "begin"))
            .chain((0..SHARDS).map(|shard| (shard, "finish")))
            .collect();
        assert!(log.len() >= 4 * fan_out.len(), "{} halves", log.len());
        for chunk in log.chunks(fan_out.len()) {
            let halves: Vec<(usize, &str)> = chunk.iter().map(|&(s, h, _)| (s, h)).collect();
            assert_eq!(halves, fan_out);
            assert!(chunk.iter().all(|&(_, _, thread)| thread == caller));
        }
    }
}
