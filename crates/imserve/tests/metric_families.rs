//! The metric families, pinned. Every family the serving stack exports —
//! its `# HELP` text, its `# TYPE`, its series names and the order the
//! typed `Metrics` reply lists them in — is compared against a committed
//! fixture with the values masked, so moving a declaration around can
//! never rename, retype or reorder what a scraper sees. And every request
//! lane times what it counts: `imserve_requests_total{type}` and
//! `imserve_request_latency_micros{type}` move together for every kind,
//! error replies included.

use std::sync::Arc;

use imgraph::GraphDelta;
use imserve::engine::QueryEngine;
use imserve::index::{build_dataset_index, parse_dataset, parse_model, IndexArtifact};
use imserve::protocol::{Request, TopKAlgorithm, PROTOCOL_VERSION};
use imserve::service::{LocalService, MetricsReport};
use imserve::shard::ShardedService;
use imserve::ServingMetrics;

const POOL: usize = 2_000;
const SEED: u64 = 7;

const FIXTURE: &str = include_str!("fixtures/metric_families.txt");

/// The `# HELP`, `# TYPE` and series-name lines of a Prometheus body, with
/// every value dropped. Histogram bucket lines are dropped too: how many a
/// series renders depends on the values it recorded.
fn masked_exposition(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|line| {
            if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
                Some(line.to_string())
            } else if line.starts_with('#') || line.contains("_bucket{") {
                None
            } else {
                Some(
                    line.rsplit_once(' ')
                        .map_or(line, |(name, _)| name)
                        .to_string(),
                )
            }
        })
        .collect()
}

/// The typed report's family and series names, in the order it lists them.
fn report_names(report: &MetricsReport) -> Vec<String> {
    let help = report.help.iter().map(|h| format!("help {}", h.family));
    let counters = report
        .counters
        .iter()
        .map(|s| format!("counter {}", s.name));
    let gauges = report.gauges.iter().map(|s| format!("gauge {}", s.name));
    let histograms = report
        .histograms
        .iter()
        .map(|s| format!("histogram {}", s.name));
    help.chain(counters)
        .chain(gauges)
        .chain(histograms)
        .collect()
}

fn shard_engine(index: usize, shards: usize) -> Arc<QueryEngine> {
    let ds = parse_dataset("karate").unwrap();
    let model = parse_model("uc0.1").unwrap();
    let graph = ds.influence_graph(model, SEED);
    let artifact =
        IndexArtifact::build_shard(ds.name(), &model.label(), graph, POOL, SEED, index, shards);
    Arc::new(QueryEngine::builder(artifact).build().unwrap())
}

/// The three faces the fixture pins, one `## section` each.
fn family_list() -> String {
    let engine = QueryEngine::builder(build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap())
        .build()
        .unwrap();
    let shards = (0..2)
        .map(|i| LocalService::new(shard_engine(i, 2)))
        .collect();
    let mut router = ShardedService::new(shards).unwrap();
    let sections = [
        (
            "engine render_metrics",
            masked_exposition(&engine.render_metrics()),
        ),
        (
            "router cluster_metrics",
            masked_exposition(&router.cluster_metrics().render_prometheus()),
        ),
        (
            "ServingMetrics report",
            report_names(&ServingMetrics::with_defaults().report()),
        ),
    ];
    let mut out = String::new();
    for (title, lines) in sections {
        out.push_str(&format!("## {title}\n"));
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn the_family_list_matches_the_committed_fixture() {
    let actual = family_list();
    if actual != FIXTURE {
        let first = actual
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, f)| a != f)
            .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "the family list moved at line {}: got {:?}, fixture has {:?}\n--- actual ---\n{actual}",
            first + 1,
            actual.lines().nth(first),
            FIXTURE.lines().nth(first)
        );
    }
}

#[test]
fn every_request_lane_times_what_it_counts() {
    let artifact = build_dataset_index("karate", "uc0.1", POOL, SEED).unwrap();
    let engine = QueryEngine::builder(artifact).build().unwrap();
    let path = std::env::temp_dir().join(format!("imserve_lane_timing_{}.imx", std::process::id()));
    engine.state().to_artifact().save(&path).unwrap();
    let requests = [
        Request::Ping,
        Request::Hello {
            max_version: PROTOCOL_VERSION,
        },
        Request::Info,
        Request::Estimate { seeds: vec![0, 33] },
        Request::Estimate { seeds: vec![34] },
        Request::TopK {
            k: 2,
            algorithm: TopKAlgorithm::Greedy,
        },
        Request::TopK {
            k: 0,
            algorithm: TopKAlgorithm::Greedy,
        },
        Request::Gains { selected: vec![0] },
        Request::GainCandidates {
            selected: vec![0],
            limit: 4,
            probe: vec![33],
        },
        Request::Reload {
            path: path.display().to_string(),
        },
        Request::MutateBatch {
            deltas: vec![GraphDelta::InsertEdge {
                source: 0,
                target: 33,
                probability: 0.5,
            }],
        },
        Request::Compact,
        Request::Stats,
        Request::Metrics,
        Request::Health,
        Request::Events,
        Request::Promote {
            expected_epoch: None,
        },
    ];
    let mut scratch = engine.new_scratch();
    let mut errors = 0;
    for request in &requests {
        if engine.handle_service(request, &mut scratch).is_err() {
            errors += 1;
        }
    }
    std::fs::remove_file(&path).ok();
    assert_eq!(errors, 2, "the out-of-range estimate and k = 0 are refused");

    let report = engine.obs().report();
    let lanes: Vec<(&str, u64)> = report
        .counters
        .iter()
        .filter_map(|s| {
            let kind = s.name.strip_prefix("imserve_requests_total{type=\"")?;
            Some((kind.strip_suffix("\"}")?, s.value))
        })
        .collect();
    assert_eq!(lanes.len(), 15, "one lane per request kind: {lanes:?}");
    for (kind, count) in lanes {
        assert!(count >= 1, "{kind} was never sent");
        let timed = report
            .histogram(&format!(
                "imserve_request_latency_micros{{type=\"{kind}\"}}"
            ))
            .map_or(0, |h| h.count);
        assert_eq!(
            timed, count,
            "the {kind} lane counted {count} but timed {timed}"
        );
    }
}
