//! The shared batch-sampling execution layer.
//!
//! All three approaches spend their time drawing independent samples — forward
//! Monte-Carlo simulations (Oneshot), live-edge graphs (Snapshot) and
//! reverse-reachable sets (RIS) — so the workspace funnels every such loop
//! through this module. Two sampling disciplines are offered:
//!
//! * **Stream** ([`fold_stream`]): all samples are drawn in order from one
//!   shared generator, exactly as the paper's reference implementation does
//!   (Section 4.1 seeds one MT19937 per run). This is what the classic
//!   `new(graph, s, rng)` estimator constructors use; it is inherently
//!   sequential.
//! * **Batched** ([`run_batches`] / [`sample_batched`]): the sample budget is
//!   split into fixed batches and every batch draws from its *own* PCG32
//!   stream, seeded by running the base seed and the batch index through
//!   SplitMix64 ([`imrand::derive_seed`]). Because each batch is
//!   self-contained and results are merged in batch order, the output is a
//!   pure function of `(budget, base_seed)` — the sequential and the parallel
//!   [`Backend`] produce byte-identical samples, so parallelism never changes
//!   a seed set.
//!
//! The parallel backend is feature-gated (`parallel`) and fans batches out to
//! a crew of workers via `rayon::scope`; without the feature,
//! [`Backend::Parallel`] silently degrades to the sequential executor, which
//! keeps every caller correct on single-threaded builds.

use imrand::{derive_seed, Pcg32, Rng32};

/// How many samples to draw, and how they are grouped into batches.
///
/// The grouping is part of the deterministic contract: two runs with the same
/// budget and base seed produce identical samples on every backend. The
/// default grouping is therefore derived from `total` alone, never from the
/// machine's thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleBudget {
    total: u64,
    batch_size: u64,
}

impl SampleBudget {
    /// Largest default batch size; keeps per-batch PRNG setup amortised while
    /// leaving enough batches for load balancing.
    const MAX_BATCH: u64 = 8_192;

    /// A budget of `total` samples with the default batch grouping
    /// (`total / 128`, clamped to `1..=8192`).
    #[must_use]
    pub fn new(total: u64) -> Self {
        Self::with_batch_size(total, (total / 128).clamp(1, Self::MAX_BATCH))
    }

    /// A budget with an explicit batch size (`>= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    #[must_use]
    pub fn with_batch_size(total: u64, batch_size: u64) -> Self {
        assert!(batch_size >= 1, "batch size must be positive");
        Self { total, batch_size }
    }

    /// Total number of samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Size of every batch except possibly the last.
    #[must_use]
    pub fn batch_size(&self) -> u64 {
        self.batch_size
    }

    /// Number of batches the budget splits into.
    #[must_use]
    pub fn num_batches(&self) -> u64 {
        self.total.div_ceil(self.batch_size)
    }

    /// The `index`-th batch.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_batches()` (in release builds too — a
    /// wrapped subtraction here would silently yield a near-`u64::MAX`
    /// batch length).
    #[must_use]
    pub fn batch(&self, index: u64) -> Batch {
        let start = index * self.batch_size;
        assert!(
            start < self.total,
            "batch index {index} out of range for a budget of {} batches",
            self.num_batches()
        );
        Batch {
            index,
            start,
            len: self.batch_size.min(self.total - start),
        }
    }
}

/// One contiguous slice of a [`SampleBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// Position of the batch in the budget (also its PRNG stream index).
    pub index: u64,
    /// Global index of the batch's first sample.
    pub start: u64,
    /// Number of samples in the batch.
    pub len: u64,
}

/// Which executor drives the batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Run batches in index order on the calling thread.
    #[default]
    Sequential,
    /// Fan batches out to worker threads (`threads == 0` means one worker per
    /// available core). Requires the `parallel` feature; without it this
    /// degrades to the sequential executor.
    Parallel {
        /// Worker count, `0` = auto.
        threads: usize,
    },
}

impl Backend {
    /// The auto-sized parallel backend.
    #[must_use]
    pub fn parallel() -> Self {
        Backend::Parallel { threads: 0 }
    }

    /// The number of worker threads this backend will actually use.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        match self {
            Backend::Sequential => 1,
            #[cfg(feature = "parallel")]
            Backend::Parallel { threads: 0 } => rayon::current_num_threads(),
            #[cfg(not(feature = "parallel"))]
            Backend::Parallel { threads: 0 } => 1,
            Backend::Parallel { threads } => (*threads).max(1),
        }
    }
}

/// The generator type batched sampling hands to each batch: one small-state
/// PCG32 per batch, per [`imrand`]'s guidance for worker streams.
pub type BatchRng = Pcg32;

/// The deterministic per-batch generator: `base_seed` and the batch index are
/// mixed through SplitMix64 so nearby batches get unrelated streams.
#[must_use]
pub fn batch_rng(base_seed: u64, batch_index: u64) -> BatchRng {
    Pcg32::seed_from_u64(derive_seed(base_seed, batch_index))
}

/// Stream discipline: fold `total` samples drawn in order from `rng`.
///
/// This is the paper-faithful sequential path used by the classic estimator
/// constructors; it exists here so every sampling loop in the workspace goes
/// through one module.
pub fn fold_stream<R: Rng32, Acc, F>(total: u64, rng: &mut R, init: Acc, mut f: F) -> Acc
where
    F: FnMut(Acc, u64, &mut R) -> Acc,
{
    let mut acc = init;
    for i in 0..total {
        acc = f(acc, i, rng);
    }
    acc
}

/// Batched discipline: run every batch of `budget` and return the per-batch
/// outputs **in batch order**, whatever the backend.
///
/// `make_scratch` builds one scratch value per worker (and one per call);
/// scratch exists only to avoid reallocation and must not influence the
/// sampled values. `run` receives the batch descriptor and the batch's own
/// deterministic generator.
pub fn run_batches<B, S, FS, F>(
    budget: &SampleBudget,
    base_seed: u64,
    backend: Backend,
    make_scratch: FS,
    run: F,
) -> Vec<B>
where
    B: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, Batch, &mut BatchRng) -> B + Sync,
{
    let mut scratch = make_scratch();
    run_batches_reusing(budget, base_seed, backend, &mut scratch, make_scratch, run)
}

/// [`run_batches`] with a caller-owned scratch value: when the backend
/// resolves to a single worker the batches run on `scratch` directly, so a
/// long-lived caller (e.g. Oneshot's per-Estimate simulation loop) avoids
/// rebuilding O(n) scratch on every invocation. Parallel execution still
/// builds one scratch per worker via `make_scratch`. Output is identical to
/// [`run_batches`] either way — scratch never influences sampled values.
pub fn run_batches_reusing<B, S, FS, F>(
    budget: &SampleBudget,
    base_seed: u64,
    backend: Backend,
    scratch: &mut S,
    make_scratch: FS,
    run: F,
) -> Vec<B>
where
    B: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, Batch, &mut BatchRng) -> B + Sync,
{
    if budget.total() == 0 {
        return Vec::new();
    }
    let workers = backend
        .effective_threads()
        .min(budget.num_batches() as usize);
    #[cfg(feature = "parallel")]
    if workers > 1 {
        return run_batches_parallel(budget, base_seed, workers, &make_scratch, &run);
    }
    let _ = (workers, &make_scratch);
    let mut out = Vec::with_capacity(budget.num_batches() as usize);
    for index in 0..budget.num_batches() {
        let mut rng = batch_rng(base_seed, index);
        out.push(run(scratch, budget.batch(index), &mut rng));
    }
    out
}

#[cfg(feature = "parallel")]
fn run_batches_parallel<B, S, FS, F>(
    budget: &SampleBudget,
    base_seed: u64,
    workers: usize,
    make_scratch: &FS,
    run: &F,
) -> Vec<B>
where
    B: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, Batch, &mut BatchRng) -> B + Sync,
{
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    let num_batches = budget.num_batches();
    let next = AtomicU64::new(0);
    let collected: Mutex<Vec<(u64, B)>> = Mutex::new(Vec::with_capacity(num_batches as usize));
    rayon::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| {
                let mut scratch = make_scratch();
                let mut local: Vec<(u64, B)> = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= num_batches {
                        break;
                    }
                    let mut rng = batch_rng(base_seed, index);
                    local.push((index, run(&mut scratch, budget.batch(index), &mut rng)));
                }
                collected
                    .lock()
                    .expect("batch results poisoned")
                    .extend(local);
            });
        }
    });
    let mut tagged = collected.into_inner().expect("batch results poisoned");
    debug_assert_eq!(tagged.len() as u64, num_batches);
    tagged.sort_unstable_by_key(|(index, _)| *index);
    tagged.into_iter().map(|(_, b)| b).collect()
}

/// Batched discipline, one output per *sample*: `sample_one` is called with
/// the sample's global index and its batch's generator; outputs come back in
/// global sample order on every backend.
pub fn sample_batched<T, S, FS, F>(
    budget: &SampleBudget,
    base_seed: u64,
    backend: Backend,
    make_scratch: FS,
    sample_one: F,
) -> Vec<T>
where
    T: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, u64, &mut BatchRng) -> T + Sync,
{
    run_batches(
        budget,
        base_seed,
        backend,
        make_scratch,
        |scratch, batch, rng| {
            (0..batch.len)
                .map(|i| sample_one(scratch, batch.start + i, rng))
                .collect::<Vec<T>>()
        },
    )
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_covers_every_sample_exactly_once() {
        for total in [1u64, 7, 128, 129, 8_191, 100_000] {
            let budget = SampleBudget::new(total);
            let mut covered = 0u64;
            for b in 0..budget.num_batches() {
                let batch = budget.batch(b);
                assert_eq!(batch.start, covered);
                covered += batch.len;
            }
            assert_eq!(covered, total);
        }
    }

    #[test]
    fn default_batching_depends_only_on_total() {
        let a = SampleBudget::new(50_000);
        let b = SampleBudget::new(50_000);
        assert_eq!(a, b);
    }

    #[test]
    fn fold_stream_visits_in_order() {
        let mut rng = Pcg32::seed_from_u64(1);
        let seen = fold_stream(5, &mut rng, Vec::new(), |mut acc, i, _| {
            acc.push(i);
            acc
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn backends_produce_identical_outputs() {
        let budget = SampleBudget::with_batch_size(1_000, 13);
        let draw = |_: &mut (), i: u64, rng: &mut BatchRng| (i, rng.next_u32());
        let seq = sample_batched(&budget, 42, Backend::Sequential, || (), draw);
        let par = sample_batched(&budget, 42, Backend::Parallel { threads: 4 }, || (), draw);
        assert_eq!(seq, par);
        let par_auto = sample_batched(&budget, 42, Backend::parallel(), || (), draw);
        assert_eq!(seq, par_auto);
    }

    #[test]
    fn different_seeds_give_different_samples() {
        let budget = SampleBudget::new(64);
        let draw = |_: &mut (), _: u64, rng: &mut BatchRng| rng.next_u32();
        let a = sample_batched(&budget, 1, Backend::Sequential, || (), draw);
        let b = sample_batched(&budget, 2, Backend::Sequential, || (), draw);
        assert_ne!(a, b);
    }

    #[test]
    fn run_batches_reports_batches_in_order() {
        let budget = SampleBudget::with_batch_size(100, 9);
        let indexes = run_batches(
            &budget,
            7,
            Backend::Parallel { threads: 3 },
            || (),
            |_, b, _| b.index,
        );
        let expected: Vec<u64> = (0..budget.num_batches()).collect();
        assert_eq!(indexes, expected);
    }

    #[test]
    fn empty_budget_runs_nothing() {
        let budget = SampleBudget::new(0);
        let out = sample_batched(&budget, 3, Backend::Sequential, || (), |_, i, _| i);
        assert!(out.is_empty());
    }

    #[test]
    fn effective_threads_are_sane() {
        assert_eq!(Backend::Sequential.effective_threads(), 1);
        assert_eq!(Backend::Parallel { threads: 3 }.effective_threads(), 3);
        assert!(Backend::parallel().effective_threads() >= 1);
    }
}
