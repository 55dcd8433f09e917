//! The one metrics pipeline, tested on the code production runs:
//! `ServingMetrics::report()` → `MetricsReport::{merge, with_shard_label,
//! since, render_prometheus, quantile_micros}`. Merging K shards' reports is
//! indistinguishable from the report of one registry that saw every sample
//! (so a federated p99 is honest), `since` is the report of the samples in
//! between, and the one renderer prints what the deleted live-registry
//! renderer printed.

use std::sync::Arc;

use proptest::prelude::*;

use imobs::{bucket_index, bucket_upper_bound};
use imserve::loadtest::ServerMetricsDelta;
use imserve::service::{FamilyHelp, HistogramSample, MetricSample, MetricsReport};
use imserve::ServingMetrics;

const LATENCY: &str = "imserve_request_latency_micros{type=\"estimate\"}";
const REQUESTS: &str = "imserve_requests_total{type=\"estimate\"}";

/// Serve one estimate per sample.
fn record(m: &ServingMetrics, samples: &[u64]) {
    for &v in samples {
        m.estimate.count.inc();
        m.estimate.latency_micros.record(v);
    }
}

/// One process's metric set after serving `samples`.
fn served(samples: &[u64]) -> Arc<ServingMetrics> {
    let m = ServingMetrics::with_defaults();
    record(&m, samples);
    m
}

/// Fold `reports` left to right with the production merge.
fn merged<'a>(reports: impl IntoIterator<Item = &'a MetricsReport>) -> MetricsReport {
    let mut reports = reports.into_iter();
    let mut out = reports.next().expect("at least one report").clone();
    reports.for_each(|report| out.merge(report));
    out
}

/// What `ShardedService::cluster_metrics` builds: onto the router's own
/// report, each shard's `shard="i"`-labelled copy *and* its original.
fn federated(shards: &[MetricsReport]) -> MetricsReport {
    let mut cluster = ServingMetrics::with_defaults().report();
    for (i, report) in shards.iter().enumerate() {
        cluster.merge(&report.with_shard_label(i));
        cluster.merge(report);
    }
    cluster
}

fn latency(report: &MetricsReport) -> &HistogramSample {
    report.histogram(LATENCY).expect("estimate latency family")
}

fn sample_sets(min: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(proptest::collection::vec(0u64..10_000_000, min..120), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merged reports equal the report of the concatenated samples — every
    /// histogram's cumulative buckets, count and sum, every counter, the
    /// help text — in either order (shards may be empty, and their trimmed
    /// bucket lists differ in length). Federated, the unlabelled series is
    /// that union and each labelled series its shard's own.
    #[test]
    fn merging_k_reports_equals_the_report_of_concatenated_samples(shards in sample_sets(0)) {
        let whole = served(&shards.concat()).report();
        let reports: Vec<MetricsReport> = shards.iter().map(|s| served(s).report()).collect();
        for m in [merged(&reports), merged(reports.iter().rev())] {
            prop_assert_eq!(&m.histograms, &whole.histograms);
            prop_assert_eq!(&m.counters, &whole.counters);
            prop_assert_eq!(&m.help, &whole.help);
        }
        let cluster = federated(&reports);
        prop_assert_eq!(latency(&cluster), latency(&whole));
        prop_assert_eq!(cluster.counter(REQUESTS), whole.counter(REQUESTS));
        prop_assert_eq!(&cluster.help, &whole.help);
        let mut labelled_total = 0;
        for (i, report) in reports.iter().enumerate() {
            let own = cluster
                .histogram(&LATENCY.replace('{', &format!("{{shard=\"{i}\",")))
                .expect("per-shard series");
            prop_assert_eq!((&own.buckets, own.count), (&latency(report).buckets, shards[i].len() as u64));
            labelled_total += cluster.counter(&REQUESTS.replace('{', &format!("{{shard=\"{i}\",")));
        }
        prop_assert_eq!(labelled_total, cluster.counter(REQUESTS));
    }

    /// A merged quantile keeps the one-bucket bound with respect to the
    /// *cluster-wide* sample stream: it is the upper bound of the true
    /// quantile's bucket.
    #[test]
    fn merged_quantile_keeps_the_one_bucket_bound(
        shards in sample_sets(1),
        q_permille in 0u64..=1000,
    ) {
        let q = q_permille as f64 / 1000.0;
        let reports: Vec<MetricsReport> = shards.iter().map(|s| served(s).report()).collect();
        let mut all = shards.concat();
        all.sort_unstable();
        let truth = all[((q * all.len() as f64).ceil() as usize).max(1) - 1];
        let estimate = latency(&merged(&reports)).quantile_micros(q);
        prop_assert!(estimate >= truth, "estimate {estimate} < true quantile {truth}");
        prop_assert_eq!(estimate, bucket_upper_bound(bucket_index(truth)));
    }

    /// `after.since(before)` is the report of only the samples recorded in
    /// between: counter, count, sum, every cumulative bucket (saturating
    /// past the in-between samples' own tail) and therefore every quantile.
    #[test]
    fn since_equals_the_report_of_the_samples_in_between(
        earlier in proptest::collection::vec(0u64..10_000_000, 0..80),
        later in proptest::collection::vec(0u64..10_000_000, 0..80),
        q_permille in 0u64..=1000,
    ) {
        let m = served(&earlier);
        let before = m.report();
        record(&m, &later);
        let delta = m.report().since(&before);
        let only_later = served(&later).report();
        let (got, want) = (latency(&delta), latency(&only_later));
        prop_assert_eq!(delta.counter(REQUESTS), later.len() as u64);
        prop_assert_eq!((got.count, got.sum), (want.count, want.sum));
        for (i, bucket) in got.buckets.iter().enumerate() {
            let expected = want.buckets.get(i).map_or(want.count, |b| b.count);
            prop_assert_eq!(bucket.count, expected, "bucket {}", i);
        }
        let q = q_permille as f64 / 1000.0;
        prop_assert_eq!(got.quantile_micros(q), want.quantile_micros(q));
    }
}

/// The cases that reach `merge_cumulative_buckets`' past-the-tail
/// saturation, by value: an empty shard, and a shard whose trimmed bucket
/// list is strictly shorter than its peer's — in both merge orders.
#[test]
fn cumulative_buckets_saturate_past_a_shorter_shards_tail() {
    let empty = served(&[]).report(); // one bucket, le=0
    let short = served(&[1, 2, 3]).report(); // buckets le=0,1,3
    let long = served(&[70_000]).report(); // buckets le=0..=131071
    let lens = [&empty, &short, &long].map(|r| latency(r).buckets.len());
    assert_eq!(lens, [1, 3, 18]);
    for pair in [[&short, &long], [&long, &short]] {
        let merged = merged(pair);
        let h = latency(&merged);
        // 0 | 1 | 2,3 | `short` stays at its total of 3 until 70 000 lands.
        let mut expected = vec![0, 1, 3];
        expected.resize(17, 3);
        expected.push(4);
        assert_eq!(
            h.buckets.iter().map(|b| b.count).collect::<Vec<_>>(),
            expected
        );
        assert_eq!((h.count, h.sum, h.buckets[17].le), (4, 70_006, 131_071));
        assert_eq!(
            (h.quantile_micros(0.75), h.quantile_micros(1.0)),
            (3, 131_071)
        );
    }
    for pair in [[&empty, &short], [&short, &empty]] {
        assert_eq!(latency(&merged(pair)), latency(&short));
    }
}

/// The loadtest's server-side delta is lookups on `since`: request lanes
/// sum to the total, shard-labelled copies feed the per-shard slots instead
/// of double-counting, and the queue-wait p99 is the in-between samples'.
#[test]
fn server_metrics_delta_reads_the_difference_of_two_federated_reports() {
    let shards = [served(&[10, 20]), served(&[])];
    let snapshot = || federated(&shards.each_ref().map(|m| m.report()));
    shards[0].queue_wait_micros.record(1_000_000);
    shards[1].topk_cache_hits.add(5);
    let before = snapshot();
    // The run: 3 + 1 estimates, a TopK miss and a hit, fast queue waits.
    record(&shards[0], &[30, 40, 50]);
    record(&shards[1], &[60]);
    shards[1].top_k.count.add(2);
    shards[1].topk_cache_hits.inc();
    shards[1].topk_cache_misses.inc();
    for wait in [3, 5, 100] {
        shards[1].queue_wait_micros.record(wait);
    }
    let expected = ServerMetricsDelta {
        requests_total: 6,
        topk_cache_hits: 1,
        topk_cache_misses: 1,
        backpressure_stalls: 0,
        slow_queries: 0,
        queue_wait_p99_micros: 127,
        per_shard_requests: vec![3, 3],
    };
    assert_eq!(ServerMetricsDelta::between(&before, &snapshot()), expected);
    // Against an unsharded backend there are no per-shard slots.
    let before = shards[0].report();
    record(&shards[0], &[70]);
    let single = ServerMetricsDelta::between(&before, &shards[0].report());
    assert_eq!(
        (single.requests_total, single.per_shard_requests),
        (1, vec![])
    );
}

/// A scrape body cut down to a slice of families that has one of every
/// construct: a labelled counter family, a labelled histogram family with a
/// populated and an empty series, a negative gauge, a lazily registered
/// gauge, and the slow-query comments.
fn slice(text: &str) -> String {
    const KEEP: [&str; 6] = [
        "imserve_reactor_wakeups_total",
        "imserve_requests_total",
        "imserve_shard_rtt_micros",
        "imserve_epoch",
        "imserve_maintenance_compactions",
        "# slowlog",
    ];
    let kept = text.lines().filter(|l| KEEP.iter().any(|k| l.contains(k)));
    kept.map(|l| format!("{l}\n")).collect()
}

/// A single server's `/metrics` bytes did not move when the live-registry
/// renderer was deleted: the fixture is that renderer's output at `86dbc6f`
/// for this registry state, [`slice`]d, plus what was registered since: the
/// `gain_candidates` request lane and the reactor's wake-up family (a second
/// labelled counter family, all zero here: no reactor runs). (Values, cumulative buckets and one
/// `# HELP` / `# TYPE` pair per family, labelled ones included, are
/// `imobs`' old render assertions, now read off the fixture.)
#[test]
fn single_server_scrape_is_byte_identical_to_the_deleted_renderer() {
    let m = ServingMetrics::new(100);
    m.estimate.count.add(3);
    m.top_k.count.inc();
    m.epoch.set(-1);
    m.shard_lane(1).rtt_micros.record(900);
    m.set_maintenance("compactions", 4);
    let mut span = imobs::Span::begin(0x42);
    span.event_with_micros("queue_wait", 10);
    span.event_with_micros("execute", 200);
    let mut record = span.finish();
    record.total_micros = 250; // force it over the threshold
    m.observe_span(record);
    let rendered = m.report().render_prometheus();
    assert_eq!(
        slice(&rendered),
        include_str!("fixtures/metrics_scrape.prom")
    );
    assert!(rendered.ends_with("stages[queue_wait=10,execute=200]\n"));
}

/// Scrape bytes do not depend on the order series were registered in
/// (re-homed from `imobs`): families and labelled series sort, each family
/// gets one header pair, and one without help text its `# TYPE` line alone.
#[test]
fn render_is_byte_stable_across_registration_orders() {
    let names = [
        "obs_requests_total{type=\"estimate\"}",
        "obs_requests_total{type=\"apply\"}",
        "obs_zeta_total",
        "obs_alpha_total",
    ];
    let report = |order: &[&str], help: &str| MetricsReport {
        counters: (order.iter().map(|name| name.to_string()))
            .map(|name| MetricSample { name, value: 1 })
            .collect(),
        help: (order.iter().filter(|_| !help.is_empty()))
            .map(|name| FamilyHelp {
                family: imobs::family_of(name).to_string(),
                help: help.to_string(),
            })
            .collect(),
        ..MetricsReport::default()
    };
    let sorted = "# TYPE obs_alpha_total counter\nobs_alpha_total 1\n\
        # TYPE obs_requests_total counter\nobs_requests_total{type=\"apply\"} 1\n\
        obs_requests_total{type=\"estimate\"} 1\n\
        # TYPE obs_zeta_total counter\nobs_zeta_total 1\n";
    let helped: String = (sorted.lines())
        .map(|l| match l.strip_prefix("# TYPE ") {
            Some(rest) => format!(
                "# HELP {} Requests.\n{l}\n",
                rest.trim_end_matches(" counter")
            ),
            None => format!("{l}\n"),
        })
        .collect();
    let reversed: Vec<&str> = names.iter().rev().copied().collect();
    for order in [&names[..], &reversed[..]] {
        assert_eq!(report(order, "").render_prometheus(), sorted);
        assert_eq!(report(order, "Requests.").render_prometheus(), helped);
    }
}

/// `/metrics` and the typed `Metrics` answer are one snapshot through one
/// renderer: on a quiescent engine they differ only in the lane the typed
/// read counts itself on (and, across a second boundary, the uptime line).
#[test]
fn scrape_and_typed_report_differ_only_in_the_metrics_lane() {
    let index = imserve::build_dataset_index("karate", "uc0.1", 500, 7).unwrap();
    let engine = imserve::QueryEngine::builder(index).build().unwrap();
    engine.top_k(2, imserve::TopKAlgorithm::Greedy).unwrap();
    let scrape = engine.render_metrics();
    let typed = engine.metrics_report().render_prometheus();
    assert_eq!(scrape.lines().count(), typed.lines().count());
    let differing: Vec<(&str, &str)> = (scrape.lines().zip(typed.lines()))
        .filter(|(a, b)| a != b && !a.starts_with("imserve_uptime_seconds "))
        .collect();
    let lane = "imserve_requests_total{type=\"metrics\"}";
    let (scraped, read) = (format!("{lane} 0"), format!("{lane} 1"));
    assert_eq!(differing, [(scraped.as_str(), read.as_str())]);
}
