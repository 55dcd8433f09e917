//! The persisted index artifact: influence graph + RR-set pool + metadata.
//!
//! RIS's trade-off (small traversal cost, large storage) is exactly what makes
//! a precomputed index the right serving architecture: the expensive part —
//! drawing the pool of RR sets — happens once in `imserve build`, and every
//! later `imserve serve` reloads the pool from disk in milliseconds instead of
//! resampling for minutes. The load path is structurally incapable of
//! sampling: it receives bytes only, never a graph generator or an RNG.
//!
//! On-disk layout (framing from `imgraph::binio`):
//!
//! ```text
//! magic "IMSX" | version | META (JSON)   — graph_id, model, dimensions, seed
//!                        | GRPH (nested) — InfluenceGraph artifact ("IMGB")
//!                        | POOL (nested) — RR-set pool artifact ("IMPL")
//!                        |   or
//!                        | PCMP          — compressed pool payload ("IMCP");
//!                        |                 exactly one of POOL/PCMP present
//!                        | DLTA          — pending mutation log
//!                        | SNAP          — snapshot epoch + log watermark
//!                        | SHRD          — shard stream offset + global pool
//!                        |                 (shard artifacts only)
//!                        | checksum
//! ```
//!
//! `GRPH` and the pool section always hold the *current* version of the graph
//! and pool;
//! the `DLTA` section records the deltas applied since the last compaction,
//! so a reloaded index can keep mutating (the pool is incrementally
//! maintainable, see `imdyn`) and its recent lineage stays auditable. The
//! `SNAP` section records the **snapshot epoch**: how many deltas were folded
//! away by compactions before the pending log, so the index epoch —
//! `snapshot_epoch + log length` — stays monotonic across compactions. One
//! format version is read (see [`INDEX_VERSION`]); any other is refused on
//! load with a rebuild hint.
//!
//! The nested artifacts carry their own magic and checksum, so each layer can
//! also be produced and validated independently.

use std::path::Path;

use im_core::sampler::Backend;
use im_core::{InfluenceOracle, PoolLayout, TieredConfig};
use imgraph::binio::{
    self, influence_graph_from_bytes, influence_graph_to_bytes, BinError, BinReader, BinWriter,
    DELTA_TAG, SNAPSHOT_TAG,
};
use imgraph::{DeltaError, DeltaLog, GraphDelta, InfluenceGraph, MutableInfluenceGraph};
use imnet::{Dataset, ProbabilityModel};
use serde::{Deserialize, Serialize};

use crate::error::ServeError;

/// Magic bytes of a serialized index artifact.
pub const INDEX_MAGIC: [u8; 4] = *b"IMSX";
/// The index format version — the only one read or written. `SHRD` is
/// optional (shard artifacts only), `SNAP` and `DLTA` are required, and
/// exactly one of `POOL` (raw layout) / `PCMP` (compressed or tiered layout)
/// carries the pool. No deployed artifacts exist, so there is no read path
/// for earlier versions: they are refused on load naming the version found
/// and `imserve build`.
pub const INDEX_VERSION: u32 = 5;

const META_TAG: [u8; 4] = *b"META";
const GRAPH_TAG: [u8; 4] = *b"GRPH";
const POOL_TAG: [u8; 4] = *b"POOL";
const PACKED_POOL_TAG: [u8; 4] = *b"PCMP";
const SHARD_TAG: [u8; 4] = *b"SHRD";

/// Descriptive metadata persisted with (and keyed into) every index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexMeta {
    /// Stable identifier of the graph the index was built from (dataset name
    /// for registry builds, caller-chosen for ad-hoc graphs).
    pub graph_id: String,
    /// Label of the edge-probability model (`uc0.1`, `iwc`, …).
    pub model: String,
    /// Number of vertices of the indexed graph.
    pub num_vertices: usize,
    /// Number of edges of the indexed graph.
    pub num_edges: usize,
    /// Number of RR sets in the persisted pool.
    pub pool_size: usize,
    /// Base seed the pool was drawn from (provenance; never used on load).
    pub base_seed: u64,
}

/// A shard artifact's position in its global pool: which global set ids its
/// local sets correspond to. Persisted as the `SHRD` section so a reloaded
/// shard keeps resampling dirty sets from its *global* streams — the
/// shard-union invariant would silently break otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// First global set id of this shard (its PRNG stream offset).
    pub offset: u64,
    /// RR sets in the whole global pool this shard was cut from.
    pub global_pool: u64,
}

/// A complete loaded index: metadata, graph, the shared RR-set oracle, the
/// pending mutation log and the compaction watermark.
#[derive(Debug, Clone)]
pub struct IndexArtifact {
    /// Persisted metadata.
    pub meta: IndexMeta,
    /// The influence graph the pool was sampled from (current version).
    pub graph: InfluenceGraph,
    /// The shared estimator over the persisted RR-set pool (current version;
    /// carries incremental state so the serving layer can keep mutating it).
    pub oracle: InfluenceOracle,
    /// Mutations applied since the last compaction (provenance; already
    /// folded into `graph` and `oracle`).
    pub log: DeltaLog,
    /// Deltas folded away by compactions *before* `log` — the snapshot
    /// watermark. The index epoch is `snapshot_epoch + log.len()`.
    pub snapshot_epoch: u64,
    /// `Some` iff this index holds one shard of a larger global pool.
    pub shard: Option<ShardInfo>,
}

impl IndexArtifact {
    /// Build a fresh index: sample `pool_size` RR sets from `graph` with the
    /// batched sampler (deterministic per `base_seed`, parallel when the
    /// `parallel` feature provides worker threads).
    ///
    /// # Panics
    ///
    /// Panics if `pool_size == 0` or the graph is empty (the oracle's own
    /// build contract).
    #[must_use]
    pub fn build(
        graph_id: &str,
        model: &str,
        graph: InfluenceGraph,
        pool_size: usize,
        base_seed: u64,
    ) -> Self {
        // Per-set incremental streams rather than per-batch ones: a served
        // pool must stay maintainable under graph mutation. Still
        // deterministic per seed and backend-independent.
        let oracle = InfluenceOracle::builder(pool_size)
            .seed(base_seed)
            .backend(default_backend())
            .incremental()
            .sample(&graph);
        let meta = IndexMeta {
            graph_id: graph_id.to_string(),
            model: model.to_string(),
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            pool_size,
            base_seed,
        };
        Self {
            meta,
            graph,
            oracle,
            log: DeltaLog::new(),
            snapshot_epoch: 0,
            shard: None,
        }
    }

    /// Build shard `shard_index` of `shard_count` over a `global_pool`-set
    /// pool: the local sets' PRNG streams derive from their *global* ids, so
    /// the shards of one layout union byte-identically into the single pool
    /// [`IndexArtifact::build`] would draw at the same seed.
    ///
    /// # Panics
    ///
    /// Panics if `shard_index >= shard_count`, `shard_count == 0`,
    /// `global_pool < shard_count`, or the graph is empty.
    #[must_use]
    pub fn build_shard(
        graph_id: &str,
        model: &str,
        graph: InfluenceGraph,
        global_pool: usize,
        base_seed: u64,
        shard_index: usize,
        shard_count: usize,
    ) -> Self {
        assert!(
            shard_index < shard_count,
            "shard index {shard_index} out of range for {shard_count} shards"
        );
        let range = im_core::shard_layout(global_pool, shard_count)[shard_index];
        let oracle = InfluenceOracle::builder(range.len)
            .seed(base_seed)
            .backend(default_backend())
            .shard_offset(range.offset)
            .sample(&graph);
        let meta = IndexMeta {
            graph_id: graph_id.to_string(),
            model: model.to_string(),
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            pool_size: range.len,
            base_seed,
        };
        Self {
            meta,
            graph,
            oracle,
            log: DeltaLog::new(),
            snapshot_epoch: 0,
            shard: Some(ShardInfo {
                offset: range.offset,
                global_pool: global_pool as u64,
            }),
        }
    }

    /// Build an index for `base_graph` *after* applying a delta script to it:
    /// the deltas mutate the graph first, then the pool is sampled from
    /// scratch on the mutated graph. This is the from-scratch rebuild the
    /// incremental path (`MutateBatch` requests against a served index) must match
    /// byte-for-byte, which is exactly what the CI smoke step diffs.
    pub fn build_with_deltas(
        graph_id: &str,
        model: &str,
        base_graph: InfluenceGraph,
        deltas: &[GraphDelta],
        pool_size: usize,
        base_seed: u64,
    ) -> Result<Self, DeltaError> {
        let mut mutable = MutableInfluenceGraph::from_graph(&base_graph);
        for delta in deltas {
            mutable.apply(delta)?;
        }
        let graph = mutable.materialize();
        let mut artifact = Self::build(graph_id, model, graph, pool_size, base_seed);
        artifact.log = DeltaLog::from_deltas(deltas.to_vec());
        Ok(artifact)
    }

    /// The index epoch: deltas folded behind the snapshot watermark plus the
    /// pending log.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.snapshot_epoch + self.log.len() as u64
    }

    /// Convert the pool store to another physical layout in place (the
    /// `--pool-layout` switch behind `imserve build` and `serve`). Purely
    /// physical: queries and the `DLTA`/`SNAP` lineage are unchanged, and
    /// [`IndexArtifact::to_bytes`] picks the matching pool section (`POOL`
    /// for raw, `PCMP` otherwise).
    pub fn convert_pool_layout(&mut self, layout: PoolLayout) {
        self.oracle.convert_layout(layout);
    }

    /// The physical layout of the pool store.
    #[must_use]
    pub fn pool_layout(&self) -> PoolLayout {
        self.oracle.pool_layout()
    }

    /// Compact the artifact offline: fold the pending log into the snapshot
    /// watermark, leaving the log empty.
    ///
    /// The graph and pool already hold the current version (maintenance keeps
    /// them at the head), so compaction is pure bookkeeping — the epoch is
    /// unchanged and a server loading the compacted artifact answers
    /// byte-identically to one loading the uncompacted original. Returns the
    /// number of deltas folded.
    pub fn compact(&mut self) -> usize {
        let folded = self.log.len();
        self.snapshot_epoch += folded as u64;
        self.log = DeltaLog::new();
        folded
    }

    /// Serialize the artifact to the binary index format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = BinWriter::new(INDEX_MAGIC, INDEX_VERSION);
        let meta_json =
            serde_json::to_string(&self.meta).expect("index metadata always serializes");
        w.section(META_TAG, meta_json.as_bytes());
        w.section(GRAPH_TAG, &influence_graph_to_bytes(&self.graph));
        // The pool travels raw (`POOL`, the "IMPL" artifact) or delta-varint
        // compressed (`PCMP`) depending on its layout; the persisted hint
        // restores the same layout on load.
        match self.oracle.pool_layout() {
            PoolLayout::Raw => w.section(POOL_TAG, &self.oracle.to_bytes()),
            layout => w.section(PACKED_POOL_TAG, &self.oracle.encode_pcmp_payload(layout)),
        }
        w.section(DELTA_TAG, &self.log.encode_payload());
        // The watermark: snapshot epoch plus the total epoch as a
        // cross-check against a spliced or hand-edited log section.
        let mut snap = Vec::with_capacity(16);
        binio::put_u64(&mut snap, self.snapshot_epoch);
        binio::put_u64(&mut snap, self.epoch());
        w.section(SNAPSHOT_TAG, &snap);
        // The shard position, only for shard artifacts.
        if let Some(shard) = self.shard {
            let mut shrd = Vec::with_capacity(16);
            binio::put_u64(&mut shrd, shard.offset);
            binio::put_u64(&mut shrd, shard.global_pool);
            w.section(SHARD_TAG, &shrd);
        }
        w.finish()
    }

    /// Deserialize an artifact written by [`IndexArtifact::to_bytes`].
    ///
    /// Pure decoding: no sampling, no RNG, no graph traversal beyond the CSR
    /// rebuild. Cross-checks the metadata against the decoded graph and pool
    /// so a mismatched splice of two valid artifacts is rejected.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, BinError> {
        Ok(Self::from_bytes_tracking_pool(bytes)?.0)
    }

    /// [`IndexArtifact::from_bytes`] plus the absolute byte offset of the
    /// `PCMP` payload within `bytes` (`None` for `POOL` artifacts), which is
    /// what [`IndexArtifact::load`] needs to demote a tiered pool onto the
    /// backing file.
    fn from_bytes_tracking_pool(bytes: &[u8]) -> Result<(Self, Option<u64>), BinError> {
        let reader = BinReader::new(bytes, INDEX_MAGIC, INDEX_VERSION)?;
        // `BinReader` refused anything newer; anything older is refused here.
        let version = reader.version();
        if version != INDEX_VERSION {
            return Err(BinError::Corrupt(format!(
                "index artifact version {version} is not supported (this build reads and writes \
                 version {INDEX_VERSION} only); rebuild it with `imserve build`"
            )));
        }
        let sections = reader.sections()?;

        let meta_payload = binio::require_section(&sections, META_TAG)?;
        let meta_str = std::str::from_utf8(meta_payload.rest())
            .map_err(|e| BinError::Corrupt(format!("metadata is not UTF-8: {e}")))?;
        let meta: IndexMeta = serde_json::from_str(meta_str)
            .map_err(|e| BinError::Corrupt(format!("metadata does not parse: {e}")))?;

        let graph_payload = binio::require_section(&sections, GRAPH_TAG)?;
        let graph = influence_graph_from_bytes(graph_payload.rest())?;

        // The shard position must be known before the incremental state is
        // attached: a shard's dirty sets resample from *global* streams.
        let shard = match sections.iter().find(|(tag, _)| *tag == SHARD_TAG) {
            Some((_, payload)) => {
                let mut shrd = *payload;
                let offset = shrd.u64()?;
                let global_pool = shrd.u64()?;
                if shrd.remaining() != 0 {
                    return Err(BinError::Corrupt(format!(
                        "{} trailing bytes in shard section",
                        shrd.remaining()
                    )));
                }
                Some(ShardInfo {
                    offset,
                    global_pool,
                })
            }
            None => None,
        };

        // Exactly one pool section: raw `POOL` or compressed `PCMP`. Both
        // decode to the same logical pool — the layouts are byte-identical
        // under every query — but only `PCMP` records the block structure a
        // tiered load can leave cold.
        let pool_section = sections.iter().find(|(tag, _)| *tag == POOL_TAG);
        let pcmp_section = sections.iter().find(|(tag, _)| *tag == PACKED_POOL_TAG);
        let (mut oracle, pcmp_offset) = match (pool_section, pcmp_section) {
            (Some(_), Some(_)) => {
                return Err(BinError::Corrupt(
                    "artifact carries both POOL and PCMP sections".into(),
                ))
            }
            (Some((_, payload)), None) => (InfluenceOracle::from_bytes(payload.rest())?, None),
            (None, Some((_, payload))) => {
                let payload_bytes = payload.rest();
                // Where the payload sits in the artifact: the slice borrows
                // from `bytes`, so the offset is plain pointer arithmetic.
                let offset = payload_bytes.as_ptr() as usize - bytes.as_ptr() as usize;
                let (oracle, _hint) = InfluenceOracle::from_pcmp_payload(payload_bytes)
                    .map_err(|e| BinError::Corrupt(format!("compressed pool section: {e}")))?;
                (oracle, Some(offset as u64))
            }
            (None, None) => {
                binio::require_section(&sections, POOL_TAG)?;
                unreachable!("require_section errors on a missing POOL section")
            }
        };
        // The metadata records the seed the per-set streams derive from; the
        // traces themselves are the inverse of the posting lists, so the
        // incremental state is reconstructible without storing it. Shards
        // additionally re-attach their global stream offset.
        oracle.attach_incremental(meta.base_seed, shard.map_or(0, |s| s.offset));

        // Always written (empty for fresh builds), so a missing section means
        // a damaged or spliced artifact.
        let log = DeltaLog::decode_payload(binio::require_section(&sections, DELTA_TAG)?)?;

        let mut snap = binio::require_section(&sections, SNAPSHOT_TAG)?;
        let snapshot_epoch = snap.u64()?;
        let epoch = snap.u64()?;
        if snap.remaining() != 0 {
            return Err(BinError::Corrupt(format!(
                "{} trailing bytes in snapshot section",
                snap.remaining()
            )));
        }
        let expected = snapshot_epoch + log.len() as u64;
        if epoch != expected {
            return Err(BinError::Corrupt(format!(
                "snapshot section claims epoch {epoch} but watermark {snapshot_epoch} \
                 plus {} pending deltas is {expected}",
                log.len()
            )));
        }

        if graph.num_vertices() != meta.num_vertices || graph.num_edges() != meta.num_edges {
            return Err(BinError::Corrupt(format!(
                "metadata claims {}x{} but graph is {}x{}",
                meta.num_vertices,
                meta.num_edges,
                graph.num_vertices(),
                graph.num_edges()
            )));
        }
        if oracle.num_vertices() != graph.num_vertices() {
            return Err(BinError::Corrupt(format!(
                "pool indexes {} vertices but graph has {}",
                oracle.num_vertices(),
                graph.num_vertices()
            )));
        }
        if oracle.pool_size() != meta.pool_size {
            return Err(BinError::Corrupt(format!(
                "metadata claims pool of {} but pool holds {}",
                meta.pool_size,
                oracle.pool_size()
            )));
        }

        if let Some(s) = shard {
            let end = s.offset + meta.pool_size as u64;
            if end > s.global_pool {
                return Err(BinError::Corrupt(format!(
                    "shard section claims sets {}..{end} of a global pool of {}",
                    s.offset, s.global_pool
                )));
            }
        }

        Ok((
            Self {
                meta,
                graph,
                oracle,
                log,
                snapshot_epoch,
                shard,
            },
            pcmp_offset,
        ))
    }

    /// Write the artifact to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        std::fs::write(path, self.to_bytes()).map_err(ServeError::from)
    }

    /// Read an artifact from a file.
    ///
    /// A tiered artifact (`PCMP` section stamped with the tiered hint) is
    /// additionally demoted onto the file it was read from: after full
    /// validation only the list directories, skip headers and hot lists stay
    /// resident, and cold posting/trace blocks are re-read on demand.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ServeError> {
        let path = path.as_ref();
        let (mut artifact, pcmp_offset) = Self::from_bytes_tracking_pool(&std::fs::read(path)?)?;
        if artifact.oracle.pool_layout() == PoolLayout::Tiered {
            if let Some(offset) = pcmp_offset {
                let file = std::sync::Arc::new(std::fs::File::open(path)?);
                artifact
                    .oracle
                    .attach_cold_pool_file(file, offset, TieredConfig::default());
            }
        }
        Ok(artifact)
    }
}

/// The sampling backend used for index builds.
fn default_backend() -> Backend {
    #[cfg(feature = "parallel")]
    {
        Backend::parallel()
    }
    #[cfg(not(feature = "parallel"))]
    {
        Backend::Sequential
    }
}

/// Parse a dataset name as accepted by `imserve build --dataset`.
///
/// Accepts the paper's names case-insensitively plus common aliases
/// (`karate`, `ba_s`/`ba-sparse`, `ba_d`/`ba-dense`, …).
pub fn parse_dataset(name: &str) -> Result<Dataset, ServeError> {
    let normalized = name.to_ascii_lowercase().replace('_', "-");
    let dataset = match normalized.as_str() {
        "karate" => Dataset::Karate,
        "physicians" => Dataset::Physicians,
        "ca-grqc" | "cagrqc" => Dataset::CaGrQc,
        "wiki-vote" | "wikivote" => Dataset::WikiVote,
        "com-youtube" | "comyoutube" => Dataset::ComYoutube,
        "soc-pokec" | "socpokec" => Dataset::SocPokec,
        "ba-s" | "ba-sparse" | "basparse" => Dataset::BaSparse,
        "ba-d" | "ba-dense" | "badense" => Dataset::BaDense,
        _ => {
            return Err(ServeError::Build(format!(
                "unknown dataset {name:?} (expected one of: karate, physicians, ca-grqc, \
                 wiki-vote, com-youtube, soc-pokec, ba-s, ba-d)"
            )))
        }
    };
    Ok(dataset)
}

/// Parse a probability-model label as accepted by `imserve build --model`.
///
/// Accepts the paper's labels: `uc0.1`, `uc0.01`, a general `uc<p>`, `iwc`
/// and `owc`.
pub fn parse_model(label: &str) -> Result<ProbabilityModel, ServeError> {
    match label {
        "iwc" => return Ok(ProbabilityModel::InDegreeWeighted),
        "owc" => return Ok(ProbabilityModel::OutDegreeWeighted),
        _ => {}
    }
    if let Some(p) = label.strip_prefix("uc") {
        let p: f64 = p.parse().map_err(|_| {
            ServeError::Build(format!(
                "malformed uniform-cascade probability in {label:?}"
            ))
        })?;
        if !(p > 0.0 && p <= 1.0) {
            return Err(ServeError::Build(format!(
                "uniform-cascade probability {p} out of (0, 1]"
            )));
        }
        return Ok(ProbabilityModel::Uniform(p));
    }
    Err(ServeError::Build(format!(
        "unknown probability model {label:?} (expected uc<p>, iwc or owc)"
    )))
}

/// Build an index for a registry dataset (`imserve build`'s core).
pub fn build_dataset_index(
    dataset: &str,
    model: &str,
    pool_size: usize,
    base_seed: u64,
) -> Result<IndexArtifact, ServeError> {
    build_dataset_index_with_deltas(dataset, model, pool_size, base_seed, &[])
}

/// [`build_dataset_index`] with a delta script applied to the dataset graph
/// before the pool is sampled (`imserve build --deltas`): the from-scratch
/// reference for a mutated served index.
pub fn build_dataset_index_with_deltas(
    dataset: &str,
    model: &str,
    pool_size: usize,
    base_seed: u64,
    deltas: &[GraphDelta],
) -> Result<IndexArtifact, ServeError> {
    if pool_size == 0 {
        return Err(ServeError::Build("pool size must be positive".into()));
    }
    let ds = parse_dataset(dataset)?;
    let pm = parse_model(model)?;
    let graph = ds.influence_graph(pm, base_seed);
    IndexArtifact::build_with_deltas(ds.name(), &pm.label(), graph, deltas, pool_size, base_seed)
        .map_err(|e| ServeError::Build(format!("delta script failed: {e}")))
}
