//! Response-time and concurrency instrumentation for the performance
//! evaluation (§6.2).

use crate::asynchronous::PipelineStats;
use crate::engine::DisclosureEngine;
use browserflow_store::StoreStats;
use std::time::Duration;

/// A collection of response-time samples with percentile and CDF helpers.
///
/// # Example
///
/// ```rust
/// use browserflow::ResponseTimes;
/// use std::time::Duration;
///
/// let mut times = ResponseTimes::new();
/// for ms in [10u64, 20, 30, 40, 50] {
///     times.record(Duration::from_millis(ms));
/// }
/// assert_eq!(times.percentile(0.5), Duration::from_millis(30));
/// assert_eq!(times.max(), Some(Duration::from_millis(50)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResponseTimes {
    samples: Vec<Duration>,
}

impl ResponseTimes {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        self.samples.push(sample);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples in recording order.
    pub fn samples(&self) -> &[Duration] {
        &self.samples
    }

    /// The `p`-th percentile (`p ∈ [0, 1]`, nearest-rank method).
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    pub fn percentile(&self, p: f64) -> Duration {
        assert!(!self.samples.is_empty(), "no samples recorded");
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let total: Duration = self.samples.iter().sum();
        Some(total / self.samples.len() as u32)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<Duration> {
        self.samples.iter().max().copied()
    }

    /// Fraction of samples at or below `bound`.
    pub fn fraction_within(&self, bound: Duration) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|&&s| s <= bound).count() as f64 / self.samples.len() as f64
    }

    /// `(duration, cumulative_fraction)` points of the empirical CDF, one
    /// per sample, sorted — the series plotted in Figure 12.
    pub fn cdf(&self) -> Vec<(Duration, f64)> {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        sorted
            .into_iter()
            .enumerate()
            .map(|(i, d)| (d, (i + 1) as f64 / n))
            .collect()
    }
}

impl Extend<Duration> for ResponseTimes {
    fn extend<I: IntoIterator<Item = Duration>>(&mut self, iter: I) {
        self.samples.extend(iter)
    }
}

/// Counters of how disclosure checks reached the fingerprinting layer.
///
/// `full` checks re-normalise, re-hash and re-winnow the whole text;
/// `incremental` checks splice one edit into engine-held state
/// ([`DisclosureEngine::apply_paragraph_edit`]) and re-process only the
/// dirty window; `absorbed` edits updated that state without evaluating
/// disclosure (superseded coalesced keystrokes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct FingerprintModeStats {
    /// Checks that fingerprinted the whole text from scratch.
    pub full_checks: u64,
    /// Keystroke edits checked through the incremental path.
    pub incremental_checks: u64,
    /// Keystroke edits absorbed into session state without a verdict.
    pub incremental_absorbs: u64,
    /// Which fingerprint kernel the engine dispatches to (scalar
    /// reference, or a runtime-detected SIMD path).
    pub kernel: browserflow_fingerprint::KernelKind,
}

impl FingerprintModeStats {
    /// Fraction of fingerprinting work served incrementally (checked or
    /// absorbed), or `None` when nothing ran yet.
    pub fn incremental_fraction(&self) -> Option<f64> {
        let incremental = self.incremental_checks + self.incremental_absorbs;
        let total = self.full_checks + incremental;
        if total == 0 {
            return None;
        }
        Some(incremental as f64 / total as f64)
    }
}

/// A point-in-time snapshot of an engine's concurrency behaviour: per-shard
/// occupancy, lock contention and the parallel/sequential check split of
/// both granularity stores.
///
/// # Example
///
/// ```rust
/// use browserflow::{ConcurrencyMetrics, DisclosureEngine, DocKey, EngineConfig};
///
/// let engine = DisclosureEngine::new(EngineConfig::default());
/// engine.observe_paragraph(&DocKey::new("wiki", "memo"), 0, "some tracked text here", None);
/// let metrics = ConcurrencyMetrics::of(&engine);
/// assert!(metrics.paragraphs.shard_count >= 1);
/// assert_eq!(metrics.total_fingerprints(), metrics.paragraphs.total_entries());
/// ```
#[derive(Debug, Clone)]
pub struct ConcurrencyMetrics {
    /// Stats of the paragraph-granularity store.
    pub paragraphs: StoreStats,
    /// Stats of the document-granularity store.
    pub documents: StoreStats,
    /// How checks reached the fingerprinting layer (full vs incremental).
    pub fingerprint_mode: FingerprintModeStats,
    /// Health of the asynchronous decision pipeline, when one is running
    /// (attach with [`ConcurrencyMetrics::with_pipeline`]).
    pub pipeline: Option<PipelineStats>,
}

impl ConcurrencyMetrics {
    /// Snapshots both stores of `engine`.
    pub fn of(engine: &DisclosureEngine) -> Self {
        let (full_checks, incremental_checks, incremental_absorbs) = engine.fingerprint_mode();
        Self {
            paragraphs: engine.paragraph_store().stats(),
            documents: engine.document_store().stats(),
            fingerprint_mode: FingerprintModeStats {
                full_checks,
                incremental_checks,
                incremental_absorbs,
                kernel: engine.fingerprint_kernel(),
            },
            pipeline: None,
        }
    }

    /// Attaches a pipeline snapshot (builder style) — typically
    /// [`AsyncDecider::stats`](crate::AsyncDecider::stats).
    pub fn with_pipeline(mut self, stats: PipelineStats) -> Self {
        self.pipeline = Some(stats);
        self
    }

    /// Stored segment fingerprints across both granularities.
    pub fn total_fingerprints(&self) -> usize {
        self.paragraphs.total_entries() + self.documents.total_entries()
    }

    /// Lock acquisitions (across both stores) that found their shard
    /// already held and had to block.
    pub fn total_lock_contention(&self) -> u64 {
        self.paragraphs.hash_lock_contention
            + self.paragraphs.segment_lock_contention
            + self.documents.hash_lock_contention
            + self.documents.segment_lock_contention
    }

    /// Ingest counters summed across both granularity stores:
    /// `(observations, hashes_recorded, lock_acquisitions)`. Every
    /// observation goes through the batched store path; taking one lock
    /// round-trip per hash would have cost `hashes_recorded`, so
    /// `hashes_recorded` minus `lock_acquisitions` approximates the
    /// round-trips batching saved.
    pub fn batch_totals(&self) -> (u64, u64, u64) {
        (
            self.paragraphs.batched_observes + self.documents.batched_observes,
            self.paragraphs.batch_hashes_recorded + self.documents.batch_hashes_recorded,
            self.paragraphs.batch_lock_acquisitions + self.documents.batch_lock_acquisitions,
        )
    }

    /// Eviction sweep counters summed across both granularity stores:
    /// `(sweeps, segments_inspected, segments_evicted)`.
    pub fn eviction_totals(&self) -> (u64, u64, u64) {
        (
            self.paragraphs.eviction_scans + self.documents.eviction_scans,
            self.paragraphs.eviction_scanned + self.documents.eviction_scanned,
            self.paragraphs.eviction_evicted + self.documents.eviction_evicted,
        )
    }

    /// Fraction of Algorithm 1 runs that took the parallel fan-out path,
    /// or `None` when no checks ran yet.
    pub fn parallel_check_fraction(&self) -> Option<f64> {
        let parallel = self.paragraphs.parallel_checks + self.documents.parallel_checks;
        let total = parallel + self.paragraphs.sequential_checks + self.documents.sequential_checks;
        if total == 0 {
            return None;
        }
        Some(parallel as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(ms: &[u64]) -> ResponseTimes {
        let mut t = ResponseTimes::new();
        t.extend(ms.iter().map(|&m| Duration::from_millis(m)));
        t
    }

    #[test]
    fn percentiles_nearest_rank() {
        let t = times(&[100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]);
        assert_eq!(t.percentile(0.95), Duration::from_millis(1000));
        assert_eq!(t.percentile(0.9), Duration::from_millis(900));
        assert_eq!(t.percentile(0.0), Duration::from_millis(100));
        assert_eq!(t.percentile(1.0), Duration::from_millis(1000));
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = times(&[300, 100, 200]);
        let b = times(&[100, 200, 300]);
        assert_eq!(a.percentile(0.5), b.percentile(0.5));
    }

    #[test]
    fn mean_and_max() {
        let t = times(&[10, 20, 30]);
        assert_eq!(t.mean(), Some(Duration::from_millis(20)));
        assert_eq!(t.max(), Some(Duration::from_millis(30)));
        assert_eq!(ResponseTimes::new().mean(), None);
    }

    #[test]
    fn fraction_within() {
        let t = times(&[10, 20, 30, 40]);
        assert_eq!(t.fraction_within(Duration::from_millis(20)), 0.5);
        assert_eq!(t.fraction_within(Duration::from_millis(5)), 0.0);
        assert_eq!(t.fraction_within(Duration::from_millis(100)), 1.0);
    }

    #[test]
    fn cdf_reaches_one() {
        let t = times(&[30, 10, 20]);
        let cdf = t.cdf();
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[0].0, Duration::from_millis(10));
        assert!((cdf[2].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn percentile_of_empty_panics() {
        ResponseTimes::new().percentile(0.5);
    }

    #[test]
    fn fingerprint_mode_fraction() {
        let none = FingerprintModeStats::default();
        assert_eq!(none.incremental_fraction(), None);
        let mixed = FingerprintModeStats {
            full_checks: 1,
            incremental_checks: 2,
            incremental_absorbs: 1,
            ..Default::default()
        };
        assert_eq!(mixed.incremental_fraction(), Some(0.75));
    }

    #[test]
    fn metrics_surface_keystroke_and_eviction_counters() {
        use crate::{DocKey, EngineConfig};
        use browserflow_fingerprint::TextEdit;
        let engine = DisclosureEngine::new(EngineConfig::default());
        let doc = DocKey::new("gdocs", "draft");
        engine
            .apply_paragraph_edit(&doc, 0, &TextEdit::insert(0, "typed text"))
            .unwrap();
        engine.check_paragraph(&doc, 1, "full text check");
        engine.observe_paragraphs(
            &doc,
            &[(2, "one batched paragraph"), (3, "another one entirely")],
            None,
        );
        engine.evict_paragraphs_older_than_now();
        let metrics = ConcurrencyMetrics::of(&engine);
        let (batched, _batch_hashes, batch_locks) = metrics.batch_totals();
        assert_eq!(batched, 2);
        assert!(batch_locks >= 1, "the batch upserts take at least one lock");
        assert_eq!(metrics.fingerprint_mode.incremental_checks, 1);
        assert_eq!(metrics.fingerprint_mode.full_checks, 1);
        assert_eq!(metrics.fingerprint_mode.incremental_fraction(), Some(0.5));
        let (sweeps, _, _) = metrics.eviction_totals();
        assert_eq!(sweeps, 1);
        assert_eq!(
            metrics.paragraphs.hash_shard_contention.len(),
            metrics.paragraphs.shard_count
        );
    }

    #[test]
    fn with_pipeline_attaches_stats() {
        let engine = DisclosureEngine::new(crate::EngineConfig::default());
        let metrics = ConcurrencyMetrics::of(&engine);
        assert!(metrics.pipeline.is_none());
        let stats = PipelineStats {
            submitted: 5,
            completed: 3,
            coalesced: 2,
            ..PipelineStats::default()
        };
        let metrics = metrics.with_pipeline(stats);
        assert_eq!(metrics.pipeline.unwrap().coalesced, 2);
    }
}
