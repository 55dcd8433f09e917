//! `imexp pool` — the pool-store layout benchmark behind `BENCH_pool.json`.
//!
//! One oracle is sampled once on the streamed Chung–Lu fixture
//! ([`crate::fixture::ScaleFixture`]), then measured under all three
//! `impool` backends:
//!
//! * `raw`        — the reference `Vec<Vec<u32>>` layout;
//! * `compressed` — delta-varint blocks with skip headers, fully resident;
//! * `tiered`     — the same blocks demoted to a `PCMP` payload file, with
//!   only hot lists, skip headers and directories resident (the measurement
//!   round-trips through an actual file, exactly like `IndexArtifact::load`
//!   on a v6 tiered index).
//!
//! Per layout the driver records resident pool bytes, bytes per RR set, the
//! coverage-scan throughput of one greedy gain pass with the most
//! influential vertex selected (`coverage_gains(&[top])`, a greedy's second
//! round: every posting list's length plus the traces of the sets the top
//! vertex covers; with nothing selected a pass would only read lengths) and
//! the latency distribution of single `estimate` queries over a
//! deterministic stream of seed sets. Before any
//! timing it asserts the layouts are *bit-identical* on a probe set —
//! spreads compared by `f64::to_bits` — so the numbers can never come from
//! diverging answers.

use std::time::Instant;

use serde::Serialize;

use im_core::{InfluenceOracle, PoolLayout, TieredConfig};
use imserve::index::parse_model;
use imserve::service::ServiceError;

use crate::fixture::ScaleFixture;
use crate::report::TextTable;

/// Everything `imexp pool` needs for one layout comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolBenchSpec {
    /// Fixture vertices (the issue's floor for committed numbers is 10⁶).
    pub nodes: usize,
    /// Fixture mean degree.
    pub degree: f64,
    /// Probability-model label.
    pub model: String,
    /// RR sets to draw into the pool.
    pub pool: usize,
    /// Seed of both the fixture and the pool sample.
    pub seed: u64,
    /// Timed `estimate` queries per layout.
    pub queries: usize,
    /// Seed-set size of each timed query.
    pub k: usize,
    /// Write the results as a JSON benchmark document.
    pub bench_out: Option<String>,
}

impl Default for PoolBenchSpec {
    fn default() -> Self {
        Self {
            nodes: 1_000_000,
            degree: 4.0,
            model: "iwc".to_string(),
            pool: 100_000,
            seed: 7,
            queries: 200,
            k: 8,
            bench_out: None,
        }
    }
}

/// One layout's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct LayoutRun {
    /// Layout label (`raw`, `compressed`, `tiered`).
    pub layout: String,
    /// Pool bytes resident in process memory under this layout.
    pub resident_bytes: u64,
    /// `resident_bytes / pool` — the headline metric of the comparison.
    pub bytes_per_set: f64,
    /// Wall micros of one `coverage_gains` pass over the pool with the most
    /// influential vertex selected (median of three).
    pub coverage_scan_micros: f64,
    /// RR sets scanned per second by that pass.
    pub coverage_scan_sets_per_sec: f64,
    /// Median single-`estimate` latency in microseconds.
    pub estimate_p50_micros: f64,
    /// 99th-percentile single-`estimate` latency in microseconds.
    pub estimate_p99_micros: f64,
}

/// The completed benchmark: fixture shape plus one [`LayoutRun`] per layout.
#[derive(Debug)]
pub struct PoolBenchResult {
    /// Realised fixture edges (the spec stores only the expectation).
    pub edges: usize,
    /// Measurements, in `raw`, `compressed`, `tiered` order.
    pub layouts: Vec<LayoutRun>,
    /// Probes confirmed bit-identical across the three layouts.
    pub verified_probes: usize,
}

impl PoolBenchResult {
    /// `raw bytes/set ÷ compressed bytes/set` — the acceptance bar is ≥ 2.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        let per_set = |label: &str| {
            self.layouts
                .iter()
                .find(|l| l.layout == label)
                .map_or(f64::NAN, |l| l.bytes_per_set)
        };
        per_set("raw") / per_set("compressed")
    }

    /// Render the comparison as a text table.
    #[must_use]
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Pool-store layouts",
            &[
                "layout",
                "resident MiB",
                "bytes/RR-set",
                "scan Msets/s",
                "estimate p50 µs",
                "estimate p99 µs",
            ],
        );
        for l in &self.layouts {
            t.add_row(vec![
                l.layout.clone(),
                format!("{:.1}", l.resident_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.1}", l.bytes_per_set),
                format!("{:.2}", l.coverage_scan_sets_per_sec / 1e6),
                format!("{:.0}", l.estimate_p50_micros),
                format!("{:.0}", l.estimate_p99_micros),
            ]);
        }
        t
    }
}

/// The deterministic query stream: `count` seed sets of size `k`, drawn
/// without replacement from the vertex range. Shared by the probe check and
/// the timed runs so every layout answers the identical workload.
fn seed_sets(n: usize, k: usize, count: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = imrand::default_rng(seed ^ 0x706f_6f6c); // "pool"
    (0..count)
        .map(|_| imrand::seq::sample_distinct(n, k.min(n), &mut rng))
        .collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Measure one oracle under its current layout.
fn measure(oracle: &InfluenceOracle, queries: &[Vec<u32>]) -> LayoutRun {
    let pool = oracle.pool_size().max(1);
    // A greedy's second-round pass: with the top vertex selected it decodes
    // the traces of the sets that vertex covers, where a pass with nothing
    // selected would read list lengths only.
    let top = oracle.top_influential_vertices(1)[0].0;
    // Median of three passes: at reduced scale one pass is tens of
    // microseconds, too short for CI's tiered-vs-compressed latency envelope
    // to rest on a single sample.
    let mut scans: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let (gains, _) = oracle.coverage_gains(&[top]);
            let micros = start.elapsed().as_secs_f64() * 1e6;
            // Keep the scan from being optimised away.
            assert!(!gains.is_empty(), "coverage scan returned no gains");
            micros
        })
        .collect();
    scans.sort_by(f64::total_cmp);
    let scan_micros = scans[1];
    let mut scratch = oracle.scratch();
    let mut lat: Vec<f64> = Vec::with_capacity(queries.len());
    for seeds in queries {
        let start = Instant::now();
        let spread = oracle.estimate_with(seeds, &mut scratch);
        lat.push(start.elapsed().as_secs_f64() * 1e6);
        assert!(spread.is_finite());
    }
    lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    LayoutRun {
        layout: oracle.pool_layout().label().to_string(),
        resident_bytes: oracle.pool_resident_bytes() as u64,
        bytes_per_set: oracle.pool_resident_bytes() as f64 / pool as f64,
        coverage_scan_micros: scan_micros,
        coverage_scan_sets_per_sec: pool as f64 / (scan_micros / 1e6).max(1e-9),
        estimate_p50_micros: percentile(&lat, 0.50),
        estimate_p99_micros: percentile(&lat, 0.99),
    }
}

/// Estimates on `probes` must be bit-identical between `reference` and
/// `candidate`; anything else voids the benchmark.
fn verify_identical(
    reference: &InfluenceOracle,
    candidate: &InfluenceOracle,
    probes: &[Vec<u32>],
) -> Result<usize, ServiceError> {
    for seeds in probes {
        let a = reference.estimate(seeds);
        let b = candidate.estimate(seeds);
        if a.to_bits() != b.to_bits() {
            return Err(ServiceError::Query(format!(
                "layout {} diverged from {} on estimate({seeds:?}): {a} vs {b}",
                candidate.pool_layout(),
                reference.pool_layout(),
            )));
        }
    }
    Ok(probes.len())
}

/// Run the full comparison: sample once, measure raw, re-layout in place to
/// compressed, then demote through a real `PCMP` payload file for tiered.
pub fn run(spec: &PoolBenchSpec) -> Result<PoolBenchResult, ServiceError> {
    let model = parse_model(&spec.model)?;
    let fixture = ScaleFixture::new(spec.nodes, spec.degree, spec.seed);
    eprintln!(
        "pool bench: generating Chung-Lu fixture ({} vertices, ~{} edges) …",
        spec.nodes,
        fixture.expected_edges()
    );
    let graph = fixture.influence_graph(model);
    let edges = graph.num_edges();
    eprintln!(
        "pool bench: sampling {} RR sets ({} realised edges) …",
        spec.pool, edges
    );
    let mut oracle = InfluenceOracle::builder(spec.pool)
        .seed(spec.seed)
        .incremental()
        .sample(&graph);

    let queries = seed_sets(spec.nodes, spec.k, spec.queries, spec.seed);
    let probes = seed_sets(spec.nodes, spec.k, 16, spec.seed.wrapping_add(1));

    let mut layouts = Vec::with_capacity(3);
    let mut verified_probes = 0;
    eprintln!("pool bench: measuring raw layout …");
    layouts.push(measure(&oracle, &queries));

    eprintln!("pool bench: measuring compressed layout …");
    let raw_reference = spec.nodes <= 200_000;
    // At full scale a second resident copy of the raw pool is exactly the
    // memory wall this crate removes, so the bit-identity probes compare
    // against raw only when the fixture is small enough to keep both.
    let reference = if raw_reference {
        Some(oracle.clone())
    } else {
        None
    };
    oracle.convert_layout(PoolLayout::Compressed);
    if let Some(reference) = &reference {
        verified_probes += verify_identical(reference, &oracle, &probes)?;
    }
    layouts.push(measure(&oracle, &queries));

    eprintln!("pool bench: measuring tiered layout (cold blocks on disk) …");
    let payload = oracle.encode_pcmp_payload(PoolLayout::Tiered);
    let dir = std::env::temp_dir().join(format!("imexp-pool-{}-{}", spec.seed, spec.nodes));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("pool.pcmp");
    std::fs::write(&path, &payload)?;
    let (mut tiered, hint) = InfluenceOracle::from_pcmp_payload(&payload)
        .map_err(|e| ServiceError::Query(format!("tiered payload rejected: {e}")))?;
    debug_assert_eq!(hint, PoolLayout::Tiered);
    // The decoded oracle lost the incremental stamp the sampled one carried;
    // restore it so the tiered measurement covers the same contract.
    if let (Some(base), Some(offset)) = (oracle.incremental_base_seed(), oracle.set_id_offset()) {
        tiered.attach_incremental(base, offset);
    }
    let file = std::sync::Arc::new(std::fs::File::open(&path)?);
    tiered.attach_cold_pool_file(file, 0, TieredConfig::default());
    verified_probes += verify_identical(&oracle, &tiered, &probes)?;
    layouts.push(measure(&tiered, &queries));
    drop(tiered);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);

    Ok(PoolBenchResult {
        edges,
        layouts,
        verified_probes,
    })
}

/// The canonical reproducing invocation (recorded in the document).
#[must_use]
pub fn invocation(spec: &PoolBenchSpec) -> String {
    let mut cmd = format!(
        "imexp pool --nodes {} --degree {} --model {} --pool {} --seed {} --queries {} --k {}",
        spec.nodes, spec.degree, spec.model, spec.pool, spec.seed, spec.queries, spec.k
    );
    if let Some(out) = &spec.bench_out {
        cmd.push_str(&format!(" --bench-out {out}"));
    }
    cmd
}

/// The committed benchmark document (`BENCH_pool.json`).
#[derive(Debug, Serialize)]
pub struct PoolBenchDocument {
    /// Document format tag, bumped on breaking field changes.
    pub schema: String,
    /// The exact command line reproducing these numbers.
    pub invocation: String,
    /// CPU cores available to the run.
    pub cores: usize,
    /// The fixture and workload shape.
    pub fixture: PoolBenchFixture,
    /// One entry per layout, in `raw`, `compressed`, `tiered` order.
    pub layouts: Vec<LayoutRun>,
    /// `raw bytes/set ÷ compressed bytes/set` (acceptance bar: ≥ 2).
    pub compression_ratio: f64,
    /// Probes confirmed bit-identical across layouts before timing.
    pub verified_probes: usize,
}

/// Fixture metadata recorded in a [`PoolBenchDocument`].
#[derive(Debug, Serialize)]
pub struct PoolBenchFixture {
    /// Fixture vertices.
    pub nodes: usize,
    /// Realised fixture edges.
    pub edges: usize,
    /// Target mean degree.
    pub degree: f64,
    /// Probability-model label.
    pub model: String,
    /// RR sets in the pool.
    pub pool: usize,
    /// Seed of fixture, pool and query streams.
    pub seed: u64,
    /// Timed queries per layout.
    pub queries: usize,
    /// Seed-set size of each timed query.
    pub k: usize,
}

/// Assemble the JSON document from a completed run.
#[must_use]
pub fn bench_document(spec: &PoolBenchSpec, result: &PoolBenchResult) -> PoolBenchDocument {
    PoolBenchDocument {
        schema: "imexp-pool/v1".to_string(),
        invocation: invocation(spec),
        cores: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        fixture: PoolBenchFixture {
            nodes: spec.nodes,
            edges: result.edges,
            degree: spec.degree,
            model: spec.model.clone(),
            pool: spec.pool,
            seed: spec.seed,
            queries: spec.queries,
            k: spec.k,
        },
        layouts: result.layouts.clone(),
        compression_ratio: result.compression_ratio(),
        verified_probes: result.verified_probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> PoolBenchSpec {
        PoolBenchSpec {
            nodes: 2_000,
            degree: 3.0,
            pool: 4_000,
            queries: 40,
            ..PoolBenchSpec::default()
        }
    }

    #[test]
    fn bench_runs_all_three_layouts_and_compresses() {
        let spec = small_spec();
        let result = run(&spec).expect("bench runs");
        let labels: Vec<&str> = result.layouts.iter().map(|l| l.layout.as_str()).collect();
        assert_eq!(labels, ["raw", "compressed", "tiered"]);
        assert!(result.verified_probes >= 32, "both comparisons probed");
        assert!(
            result.compression_ratio() >= 2.0,
            "compressed should be >=2x smaller per set (got {:.2}x)",
            result.compression_ratio()
        );
        let tiered = &result.layouts[2];
        let compressed = &result.layouts[1];
        assert!(
            tiered.resident_bytes < compressed.resident_bytes,
            "tiered must keep fewer bytes resident ({} vs {})",
            tiered.resident_bytes,
            compressed.resident_bytes
        );
        for l in &result.layouts {
            assert!(l.coverage_scan_sets_per_sec > 0.0);
            assert!(l.estimate_p99_micros >= l.estimate_p50_micros);
        }
    }

    #[test]
    fn document_carries_schema_and_reproducing_invocation() {
        let spec = small_spec();
        let result = run(&spec).expect("bench runs");
        let doc = bench_document(&spec, &result);
        assert_eq!(doc.schema, "imexp-pool/v1");
        assert!(doc.invocation.starts_with("imexp pool --nodes 2000"));
        assert_eq!(doc.layouts.len(), 3);
        assert_eq!(doc.fixture.pool, 4_000);
        let json = serde_json::to_string_pretty(&doc).expect("serialises");
        for key in [
            "schema",
            "compression_ratio",
            "bytes_per_set",
            "coverage_scan_sets_per_sec",
            "estimate_p50_micros",
            "estimate_p99_micros",
        ] {
            assert!(json.contains(key), "document is missing {key}");
        }
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let sorted = vec![1.0, 2.0, 3.0, 4.0, 100.0];
        assert!((percentile(&sorted, 0.5) - 3.0).abs() < 1e-9);
        assert!((percentile(&sorted, 0.99) - 100.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
