//! Fingerprint databases and the information disclosure computation of
//! BrowserFlow (§4.2–§4.4 of the paper).
//!
//! The central type is [`FingerprintStore`], which combines the two data
//! structures of Algorithm 1:
//!
//! - **`DBhash`** ([`hash_db`]): associations from fingerprint hashes to
//!   the segment in which each hash was *first* observed, with a logical
//!   timestamp. This answers `oldestParagraphWith(h)` and underpins
//!   *authoritative fingerprints* — the overlap-compensation mechanism of
//!   §4.3 (Figure 7).
//! - **`DBpar`** ([`segment_db`]): associations from segments to the last
//!   fingerprint calculated for each, plus the segment's disclosure
//!   threshold.
//!
//! On top of these, [`FingerprintStore::disclosing_sources`] implements the
//! paper's Algorithm 1: given a segment's fingerprint, find every stored
//! source segment whose *authoritative* content it discloses beyond that
//! source's threshold. The same machinery serves both tracking
//! granularities (paragraphs and whole documents, §4.1) — BrowserFlow
//! instantiates one store per granularity.
//!
//! # Example
//!
//! ```rust
//! use browserflow_fingerprint::Fingerprinter;
//! use browserflow_store::{FingerprintStore, SegmentId};
//!
//! let fp = Fingerprinter::default();
//! let mut store = FingerprintStore::new();
//!
//! let secret = "the acquisition of initech will be announced on the first of march \
//!               at a press event in zurich";
//! store.observe(SegmentId::new(1), &fp.fingerprint(secret), 0.5);
//!
//! // A user pastes the text (lightly edited) into another document.
//! let pasted = format!("meeting notes: {secret} -- please keep this quiet");
//! let reports = store.disclosing_sources(SegmentId::new(2), &fp.fingerprint(&pasted));
//! assert_eq!(reports.len(), 1);
//! assert_eq!(reports[0].source, SegmentId::new(1));
//! assert!(reports[0].disclosure >= 0.5);
//! ```

#![warn(missing_docs)]
// `unsafe` is denied crate-wide and allowed in exactly one module:
// `mmap`, which maps cold shard files for the zero-copy read path.
#![deny(unsafe_code)]

mod cache;
mod clock;
pub mod codec;
mod disclosure;
mod encryption;
pub mod fx;
pub mod hash_db;
mod incremental;
mod intersect;
mod mmap;
pub mod persist;
pub mod pool;
pub mod segment_db;
pub mod sharded;
mod tier;

pub use cache::{DecisionCache, FingerprintDigest};
pub use clock::{LogicalClock, Timestamp};
pub use codec::{CodecError, RestoreReport, SealedStore};
pub use disclosure::{disclosure_between, DisclosureReport};
#[doc(hidden)]
pub use disclosure::{probe_disclosing_sources, probe_evaluate_candidate};
pub use encryption::{EncryptionError, SealedBytes, StoreKey};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hash_db::{HashDb, Sighting, SightingOutcome};
pub use incremental::IncrementalChecker;
pub use intersect::intersection_count;
pub use persist::{PersistError, PersistOptions, StoreFormat, StoreOpenOptions, TierMode};
pub use segment_db::{SegmentDb, StoredSegment};
pub use sharded::{BatchSightings, SegmentWrite, ShardedHashDb, ShardedSegmentDb};
pub use tier::{SegmentHandle, TierSweep};

use browserflow_fingerprint::Fingerprint;
use std::collections::HashSet;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies a tracked text segment (a paragraph or a whole document,
/// depending on which granularity the store serves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(u64);

impl SegmentId {
    /// Creates a segment id from a raw value.
    pub const fn new(id: u64) -> Self {
        Self(id)
    }

    /// The raw value.
    pub const fn get(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "segment-{}", self.0)
    }
}

impl From<u64> for SegmentId {
    fn from(id: u64) -> Self {
        Self(id)
    }
}

/// A point-in-time snapshot of the store's concurrency counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of stripes in each sharded database.
    pub shard_count: usize,
    /// Per-shard entry counts of `DBhash`.
    pub hash_shard_sizes: Vec<usize>,
    /// Per-shard entry counts of `DBpar`.
    pub segment_shard_sizes: Vec<usize>,
    /// `DBhash` lock acquisitions that had to wait for another holder.
    pub hash_lock_contention: u64,
    /// `DBpar` lock acquisitions that had to wait for another holder.
    pub segment_lock_contention: u64,
    /// Per-shard breakdown of `hash_lock_contention`.
    pub hash_shard_contention: Vec<u64>,
    /// Per-shard breakdown of `segment_lock_contention`.
    pub segment_shard_contention: Vec<u64>,
    /// Algorithm 1 runs that fanned candidates out over worker threads.
    pub parallel_checks: u64,
    /// Algorithm 1 runs evaluated on the calling thread.
    pub sequential_checks: u64,
    /// Age-based eviction sweeps ([`FingerprintStore::evict_older_than`]).
    pub eviction_scans: u64,
    /// Segments inspected across all eviction sweeps.
    pub eviction_scanned: u64,
    /// Segments actually evicted across all sweeps.
    pub eviction_evicted: u64,
    /// Stripes currently backed by a cold (mmap'd) shard file.
    pub cold_shards: usize,
    /// Cold stripes whose file view is a real `mmap` — the remainder
    /// fell back to an aligned heap copy (non-unix, or a failed map).
    pub cold_mapped_shards: usize,
    /// Live segment records served from cold files.
    pub cold_segments: usize,
    /// Live first-sighting records served from cold files.
    pub cold_sightings: usize,
    /// Cold segment records copied into the hot tier for mutation.
    pub tier_promoted_segments: u64,
    /// Cold sightings displaced into the hot tier by earlier observations.
    pub tier_promoted_sightings: u64,
    /// Stripes rewritten as cold files by demotion sweeps.
    pub tier_demoted_shards: u64,
    /// Observations ingested — every one goes through
    /// [`FingerprintStore::observe_batch`] (a plain `observe` is a
    /// one-entry batch), and each batch entry counts once.
    pub batched_observes: u64,
    /// Stripe lock round-trips taken by all ingest passes: one per
    /// touched `DBhash` stripe plus one per touched `DBpar` stripe, per
    /// batch. Against `batch_hashes_recorded` (what one round-trip per
    /// hash would have cost) it shows what batching saved.
    pub batch_lock_acquisitions: u64,
    /// Hash sightings submitted by all ingest passes (each observed
    /// fingerprint's distinct hashes).
    pub batch_hashes_recorded: u64,
}

impl StoreStats {
    /// Total stored segment fingerprints (sum over `DBpar` shards).
    pub fn total_entries(&self) -> usize {
        self.segment_shard_sizes.iter().sum()
    }

    /// Total distinct first-sighting hashes (sum over `DBhash` shards).
    pub fn total_hashes(&self) -> usize {
        self.hash_shard_sizes.iter().sum()
    }
}

/// The combined fingerprint store: `DBhash` + `DBpar` + a logical clock.
///
/// All operations are deterministic; time is a logical counter advanced on
/// every observation, which is all `oldestParagraphWith` needs (a total
/// order on first sightings).
///
/// The store is internally lock-striped ([`sharded`]): every method takes
/// `&self` and the store is [`Sync`], so concurrent checkers and observers
/// need no external lock. An individual [`FingerprintStore::observe_batch`]
/// is atomic per shard, not globally: a concurrent checker may see some of
/// an in-flight batch's first sightings before its `DBpar` entries land.
/// First-sighting ownership stays deterministic regardless, because each
/// observation draws a unique logical timestamp and `DBhash` keeps the
/// earliest per hash.
#[derive(Debug, Default)]
pub struct FingerprintStore {
    clock: LogicalClock,
    hashes: ShardedHashDb,
    segments: ShardedSegmentDb,
    parallel_checks: AtomicU64,
    sequential_checks: AtomicU64,
    eviction_scans: AtomicU64,
    eviction_scanned: AtomicU64,
    eviction_evicted: AtomicU64,
    /// The cold directory this store is attached to, if any: where
    /// demotion sweeps write shard files and the manifest state they
    /// maintain. Also serialises demotion sweeps.
    pub(crate) tier: parking_lot::Mutex<Option<tier::TierState>>,
    pub(crate) tier_demoted_shards: AtomicU64,
    batched_observes: AtomicU64,
    batch_lock_acquisitions: AtomicU64,
    batch_hashes_recorded: AtomicU64,
}

impl FingerprintStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store with an explicit stripe count (rounded up to
    /// a power of two, minimum 1). A cold open uses this to match the
    /// stripe count of the on-disk manifest so shard files attach 1:1.
    pub fn with_shard_count(shards: usize) -> Self {
        Self {
            hashes: ShardedHashDb::with_shards(shards),
            segments: ShardedSegmentDb::with_shards(shards),
            ..Self::default()
        }
    }

    /// Records (or re-records after an edit) the fingerprint of `segment`:
    /// a one-entry [`FingerprintStore::observe_batch`].
    ///
    /// Hashes never seen before anywhere are credited to `segment` as
    /// their authoritative first sighting, timestamped now. The segment's
    /// previous fingerprint, if any, is replaced — `DBpar` stores only the
    /// *last* fingerprint per segment — but historical first-sighting
    /// records in `DBhash` are retained, as §4.3 requires.
    ///
    /// `threshold` is the segment's disclosure threshold `T ∈ [0, 1]`
    /// (clamped).
    pub fn observe(&self, segment: SegmentId, fingerprint: &Fingerprint, threshold: f64) {
        self.observe_batch(&[(segment, fingerprint, threshold)]);
    }

    /// Records a whole batch of observations with one stripe lock
    /// round-trip per touched stripe instead of one per hash. This is the
    /// store's only ingest path; [`FingerprintStore::observe`] is a
    /// one-entry batch.
    ///
    /// Semantically the batch is its entries observed one after another:
    /// each entry draws its own logical timestamp (one atomic clock
    /// advance reserves the whole contiguous range), duplicate segments
    /// resolve last-write-wins, and first-sighting ownership,
    /// authoritative sets and revocations come out identical to a
    /// per-hash sequential loop (property-tested against such a reference
    /// in `tests/properties.rs`). Mechanically, sightings are grouped by
    /// hash stripe and `DBpar` writes by segment stripe, so each stripe
    /// lock is taken once per batch.
    ///
    /// Alongside the first-sighting records, the batch maintains each
    /// segment's **authoritative hash set** incrementally: the ownership
    /// bitmap says which hashes the segment now owns, and every
    /// displacement names the previous owner whose stored authoritative
    /// set is pruned in place. No per-check `DBhash` probing is needed
    /// afterwards — candidate evaluation intersects the stored sorted
    /// slices directly.
    ///
    /// A displacement that races the batch (an out-of-order insert by a
    /// concurrent observer between our sightings and our `DBpar` writes)
    /// may invalidate ownership just written, so when the store's
    /// displacement epoch moved the batch revalidates its owned hashes
    /// once, after the grouped writes. For a single writer this matches a
    /// per-entry check: batch timestamps strictly increase, so within the
    /// batch a hash's ownership can only move *from* a pre-batch record
    /// *to* the first batch entry carrying it — never away from a batch
    /// entry. The revalidation is revoke-only: it never *adds* authority,
    /// so it cannot resurrect a hash another thread revoked concurrently.
    pub fn observe_batch(&self, entries: &[(SegmentId, &Fingerprint, f64)]) {
        if entries.is_empty() {
            return;
        }
        let base = self.clock.tick_many(entries.len() as u64);
        let epoch_before = self.hashes.displacement_epoch();

        // Entry `index` observes at `base + index`.
        let time = |index: usize| Timestamp::new(base.get() + index as u64);
        let sighted = self
            .hashes
            .record_sightings_indexed(entries, |index, entry| {
                (entry.0, time(index), entry.1.distinct_hashes())
            });
        let hash_locks = sighted.locks;

        // Turn the ownership bitmap into the `DBpar` write sequence of
        // entries observed one at a time: upsert, then that entry's
        // revocations, then the next entry. Bucketing preserves
        // per-segment order, so interleavings against duplicate segments
        // resolve identically.
        let mut writes: Vec<SegmentWrite> = Vec::with_capacity(entries.len());
        let mut displaced = sighted.displaced.iter().peekable();
        let mut end = 0;
        for (index, (segment, fingerprint, threshold)) in entries.iter().enumerate() {
            let hashes = fingerprint.distinct_hashes();
            let start = end;
            end += hashes.len();
            let mut owned: Vec<u32> = Vec::with_capacity(hashes.len());
            for (&hash, &is_owned) in hashes.iter().zip(&sighted.owned[start..end]) {
                if is_owned {
                    owned.push(hash);
                }
            }
            writes.push(SegmentWrite::Upsert {
                segment: *segment,
                hashes: hashes.to_vec(),
                authoritative: owned,
                threshold: threshold.clamp(0.0, 1.0),
                now: time(index),
            });
            // Displacements arrive in submission order, so this entry's
            // are exactly the next ones that fall inside its span.
            while let Some(&&(at, previous)) = displaced.peek() {
                if at as usize >= end {
                    break;
                }
                displaced.next();
                if previous != *segment {
                    writes.push(SegmentWrite::Revoke {
                        segment: previous,
                        hash: hashes[at as usize - start],
                    });
                }
            }
        }
        let mut segment_locks = self.segments.apply_writes_batch(writes);

        // Revalidation, once over the whole batch (see the doc comment).
        // Displacements are rare — the epoch only moves on out-of-order
        // inserts — so this is normally skipped.
        if self.hashes.displacement_epoch() != epoch_before {
            let mut revalidations: Vec<SegmentWrite> = Vec::new();
            let sightings = entries.iter().flat_map(|(segment, fingerprint, _)| {
                let segment = *segment;
                fingerprint
                    .distinct_hashes()
                    .iter()
                    .map(move |&hash| (segment, hash))
            });
            for ((segment, hash), &is_owned) in sightings.zip(&sighted.owned) {
                if is_owned && self.oldest_segment_with(hash) != Some(segment) {
                    revalidations.push(SegmentWrite::Revoke { segment, hash });
                }
            }
            if !revalidations.is_empty() {
                segment_locks += self.segments.apply_writes_batch(revalidations);
            }
        }

        self.batched_observes
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        self.batch_lock_acquisitions
            .fetch_add(hash_locks + segment_locks, Ordering::Relaxed);
        self.batch_hashes_recorded
            .fetch_add(sighted.owned.len() as u64, Ordering::Relaxed);
    }

    /// Updates just the disclosure threshold of an already-observed
    /// segment. Returns `false` if the segment is unknown.
    pub fn set_threshold(&self, segment: SegmentId, threshold: f64) -> bool {
        self.segments
            .set_threshold(segment, threshold.clamp(0.0, 1.0))
    }

    /// The segment in which `hash` was first observed, if any
    /// (`oldestParagraphWith` of Algorithm 1).
    pub fn oldest_segment_with(&self, hash: u32) -> Option<SegmentId> {
        self.hashes.oldest_with(hash).map(|s| s.segment)
    }

    /// The *authoritative* part of a stored segment's fingerprint: the
    /// hashes of its current fingerprint whose first sighting anywhere was
    /// this segment (§4.3).
    ///
    /// Served from the incrementally maintained index — no `DBhash`
    /// probing (equivalence with the probe-based computation is
    /// property-tested).
    pub fn authoritative_fingerprint(&self, segment: SegmentId) -> HashSet<u32> {
        let Some(stored) = self.segment(segment) else {
            return HashSet::new();
        };
        stored.authoritative().iter().copied().collect()
    }

    /// The disclosure `D(source, target)` of stored segment `source`
    /// towards a fingerprint `target`:
    ///
    /// `|F_authoritative(source) ∩ target| / |F_authoritative(source)|`
    ///
    /// Both sides of the ratio use the authoritative fingerprint, as in
    /// the paper's `computeDisclosure(F_A(p), ·)` — a source is judged on
    /// how much of *its own* content leaked, not on content it borrowed
    /// from older segments (which those segments report themselves).
    ///
    /// Returns 0.0 if the source is unknown or owns no hashes.
    pub fn disclosure_from<S: BuildHasher>(
        &self,
        source: SegmentId,
        target: &HashSet<u32, S>,
    ) -> f64 {
        let Some(stored) = self.segment(source) else {
            return 0.0;
        };
        let authoritative = stored.authoritative();
        if authoritative.is_empty() {
            return 0.0;
        }
        let mut sorted_target: Vec<u32> = target.iter().copied().collect();
        sorted_target.sort_unstable();
        let overlap = intersect::intersection_count(authoritative, &sorted_target);
        overlap as f64 / authoritative.len() as f64
    }

    /// Algorithm 1: the stored source segments whose disclosure
    /// requirement the fingerprint of `target` violates.
    ///
    /// A source `p` with threshold `t` is reported when
    /// `|F_authoritative(p) ∩ F(target)| ≥ max(1, t · |F_authoritative(p)|)`, i.e. the
    /// paper's "at least `t` of the original is found elsewhere" reading of
    /// §4.2/§6.1 (`Dpar ≥ Tpar`), with the extra requirement of at least
    /// one shared hash so that `t = 0` means "any leaked hash" rather than
    /// "everything always".
    ///
    /// `target` itself is never reported, even if stored.
    pub fn disclosing_sources(
        &self,
        target: SegmentId,
        fingerprint: &Fingerprint,
    ) -> Vec<DisclosureReport> {
        // `distinct_hashes` is the cached sorted slice — no allocation and
        // no re-sorting on the hot path.
        self.disclosing_sources_of_sorted(target, fingerprint.distinct_hashes())
    }

    /// [`FingerprintStore::disclosing_sources`] over a pre-computed set of
    /// distinct hashes (sorted once internally).
    pub fn disclosing_sources_of_hashes<S: BuildHasher>(
        &self,
        target: SegmentId,
        target_hashes: &HashSet<u32, S>,
    ) -> Vec<DisclosureReport> {
        let mut sorted: Vec<u32> = target_hashes.iter().copied().collect();
        sorted.sort_unstable();
        self.disclosing_sources_of_sorted(target, &sorted)
    }

    /// [`FingerprintStore::disclosing_sources`] over a sorted,
    /// deduplicated slice of distinct hashes — the zero-copy entry point
    /// for callers that already hold `Fingerprint::distinct_hashes`.
    pub fn disclosing_sources_of_sorted(
        &self,
        target: SegmentId,
        target_sorted: &[u32],
    ) -> Vec<DisclosureReport> {
        disclosure::run_algorithm_1(self, target, target_sorted, disclosure::default_workers())
    }

    /// [`FingerprintStore::disclosing_sources_of_hashes`] with an explicit
    /// worker-thread budget for the candidate-evaluation fan-out.
    ///
    /// `workers <= 1` forces the sequential path; larger values fan the
    /// candidates over the persistent worker pool once there are enough
    /// candidates to amortise the hand-off. The output is byte-identical
    /// across worker counts (property-tested).
    pub fn disclosing_sources_with_workers<S: BuildHasher>(
        &self,
        target: SegmentId,
        target_hashes: &HashSet<u32, S>,
        workers: usize,
    ) -> Vec<DisclosureReport> {
        let mut sorted: Vec<u32> = target_hashes.iter().copied().collect();
        sorted.sort_unstable();
        disclosure::run_algorithm_1(self, target, &sorted, workers)
    }

    /// Removes a segment's stored fingerprint and every first-sighting
    /// record it owns.
    ///
    /// Subsequent observations of those hashes establish fresh ownership.
    /// This backs the periodic removal of old fingerprints recommended in
    /// §4.4. Returns `true` if the segment was stored.
    pub fn remove_segment(&self, segment: SegmentId) -> bool {
        let existed = self.segments.remove(segment);
        if existed {
            self.hashes.remove_sightings_of(segment);
        }
        existed
    }

    /// Evicts every segment last updated strictly before `cutoff`,
    /// returning how many were removed.
    ///
    /// Each call counts one eviction sweep in [`StoreStats`]; the number of
    /// segments the sweep inspected and the number actually evicted are
    /// accumulated alongside, so long-running deployments can tell how much
    /// work the periodic cleanup of §4.4 costs.
    pub fn evict_older_than(&self, cutoff: Timestamp) -> usize {
        self.evict_segments_older_than(cutoff).len()
    }

    /// Like [`FingerprintStore::evict_older_than`], but returns the ids of
    /// the evicted segments so callers holding derived per-segment state
    /// (registries, keystroke sessions, caches) can clean up alongside.
    pub fn evict_segments_older_than(&self, cutoff: Timestamp) -> Vec<SegmentId> {
        self.eviction_scans.fetch_add(1, Ordering::Relaxed);
        self.eviction_scanned
            .fetch_add(self.segments.len() as u64, Ordering::Relaxed);
        let victims = self.segments.segments_older_than(cutoff);
        for &segment in &victims {
            self.remove_segment(segment);
        }
        self.eviction_evicted
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        victims
    }

    /// Number of stored segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of distinct hashes with a first-sighting record.
    pub fn hash_count(&self) -> usize {
        self.hashes.len()
    }

    /// Number of lock stripes in the sharded databases (also the shard
    /// count the v2 codec uses by default).
    pub fn shard_count(&self) -> usize {
        self.hashes.shard_count()
    }

    /// Read access to a stored segment, as an owned handle: no shard lock
    /// is held while the caller inspects it. Cold-tier records are copied
    /// out — use [`FingerprintStore::segment_handle`] for the zero-copy
    /// path.
    pub fn segment(&self, segment: SegmentId) -> Option<Arc<StoredSegment>> {
        self.segments.get(segment)
    }

    /// A zero-copy [`SegmentHandle`] to a stored segment, wherever it
    /// lives: hot records hand out an `Arc` clone, cold records a view
    /// straight into the mapped shard file. This is the handle Algorithm 1
    /// evaluates candidates through.
    pub fn segment_handle(&self, segment: SegmentId) -> Option<SegmentHandle> {
        self.segments.get_handle(segment)
    }

    /// Iterates over all stored segment ids.
    pub fn segment_ids(&self) -> impl Iterator<Item = SegmentId> + 'static {
        self.segments.ids().into_iter()
    }

    /// A snapshot of the shard-occupancy, lock-contention,
    /// parallel-vs-sequential check and eviction counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            shard_count: self.hashes.shard_count(),
            hash_shard_sizes: self.hashes.shard_sizes(),
            segment_shard_sizes: self.segments.shard_sizes(),
            hash_lock_contention: self.hashes.contention_count(),
            segment_lock_contention: self.segments.contention_count(),
            hash_shard_contention: self.hashes.contention_counts(),
            segment_shard_contention: self.segments.contention_counts(),
            parallel_checks: self.parallel_checks.load(Ordering::Relaxed),
            sequential_checks: self.sequential_checks.load(Ordering::Relaxed),
            eviction_scans: self.eviction_scans.load(Ordering::Relaxed),
            eviction_scanned: self.eviction_scanned.load(Ordering::Relaxed),
            eviction_evicted: self.eviction_evicted.load(Ordering::Relaxed),
            cold_shards: self.segments.cold_shard_count(),
            cold_mapped_shards: self.segments.cold_mapped_count(),
            cold_segments: self.segments.cold_live(),
            cold_sightings: self.hashes.cold_live(),
            tier_promoted_segments: self.segments.promoted_count(),
            tier_promoted_sightings: self.hashes.promoted_count(),
            tier_demoted_shards: self.tier_demoted_shards.load(Ordering::Relaxed),
            batched_observes: self.batched_observes.load(Ordering::Relaxed),
            batch_lock_acquisitions: self.batch_lock_acquisitions.load(Ordering::Relaxed),
            batch_hashes_recorded: self.batch_hashes_recorded.load(Ordering::Relaxed),
        }
    }

    /// Counts one Algorithm 1 run against the parallel or sequential path
    /// (called by the disclosure module).
    pub(crate) fn count_check(&self, parallel: bool) {
        if parallel {
            self.parallel_checks.fetch_add(1, Ordering::Relaxed);
        } else {
            self.sequential_checks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The current logical time (the timestamp the *next* observation will
    /// receive).
    pub fn now(&self) -> Timestamp {
        self.clock.peek()
    }

    /// A snapshot of every first-sighting record (for serialisation).
    pub fn sightings(&self) -> Vec<(u32, Sighting)> {
        self.hashes.entries()
    }

    /// Restores a segment with an explicit timestamp, bypassing the clock
    /// (deserialisation path; see [`codec`]). `hashes` must be sorted and
    /// deduplicated. The authoritative set is left empty: sightings are
    /// replayed in arbitrary shard order during a restore, so ownership is
    /// only known once every record landed —
    /// [`FingerprintStore::rebuild_authoritative_index`] must run after
    /// the last restore call.
    pub(crate) fn restore_segment(
        &self,
        segment: SegmentId,
        hashes: Vec<u32>,
        threshold: f64,
        updated: Timestamp,
    ) {
        self.segments
            .upsert(segment, hashes, Vec::new(), threshold, updated);
    }

    /// Restores a first-sighting record (deserialisation path).
    pub(crate) fn restore_sighting(&self, hash: u32, segment: SegmentId, time: Timestamp) {
        self.hashes.record_sighting(hash, segment, time);
    }

    /// Restores the clock so future observations are timestamped after
    /// every restored record (deserialisation path).
    pub(crate) fn restore_clock(&self, at_least: Timestamp) {
        self.clock.advance_to(at_least);
    }

    /// Recomputes every stored segment's authoritative set from `DBhash`
    /// (one probe per stored hash), fanning segments out over `workers`
    /// scoped threads. Called once at the end of a restore — the per-check
    /// paths never probe.
    pub(crate) fn rebuild_authoritative_index(&self, workers: usize) {
        let ids = self.segments.ids();
        let rebuild_one = |id: SegmentId| {
            let Some(stored) = self.segment(id) else {
                return;
            };
            let owned: Vec<u32> = stored
                .hashes()
                .iter()
                .copied()
                .filter(|&hash| self.oldest_segment_with(hash) == Some(id))
                .collect();
            self.segments.set_authoritative(id, owned);
        };
        if workers > 1 && ids.len() >= workers * 4 {
            let chunk_len = ids.len().div_ceil(workers);
            crossbeam::thread::scope(|scope| {
                for chunk in ids.chunks(chunk_len) {
                    scope.spawn(move |_| chunk.iter().copied().for_each(rebuild_one));
                }
            })
            .expect("index rebuild threads join cleanly");
        } else {
            ids.into_iter().for_each(rebuild_one);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browserflow_fingerprint::{FingerprintConfig, Fingerprinter};

    fn fp() -> Fingerprinter {
        Fingerprinter::new(
            FingerprintConfig::builder()
                .ngram_len(6)
                .window(4)
                .build()
                .unwrap(),
        )
    }

    const SECRET: &str = "the acquisition of initech will be announced on the first of march \
                          at a press event in zurich by the chief executive";

    #[test]
    fn copy_paste_is_detected() {
        let fp = fp();
        let store = FingerprintStore::new();
        store.observe(SegmentId::new(1), &fp.fingerprint(SECRET), 0.5);
        let pasted = format!("notes from the meeting follow {SECRET} end of notes");
        let reports = store.disclosing_sources(SegmentId::new(2), &fp.fingerprint(&pasted));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].source, SegmentId::new(1));
        assert!(reports[0].disclosure > 0.8);
    }

    #[test]
    fn unrelated_text_is_not_reported() {
        let fp = fp();
        let store = FingerprintStore::new();
        store.observe(SegmentId::new(1), &fp.fingerprint(SECRET), 0.5);
        let other = "completely unrelated prose about gardening tulips and daffodils in spring";
        assert!(store
            .disclosing_sources(SegmentId::new(2), &fp.fingerprint(other))
            .is_empty());
    }

    #[test]
    fn target_never_reports_itself() {
        let fp = fp();
        let store = FingerprintStore::new();
        let print = fp.fingerprint(SECRET);
        store.observe(SegmentId::new(1), &print, 0.5);
        assert!(store
            .disclosing_sources(SegmentId::new(1), &print)
            .is_empty());
    }

    #[test]
    fn authoritative_fingerprint_excludes_borrowed_hashes() {
        // Figure 7: B is a superset of A; B's authoritative fingerprint
        // contains only B's new text.
        let fp = fp();
        let store = FingerprintStore::new();
        let a_text = SECRET;
        let b_text = format!(
            "{SECRET} additionally the deal includes all overseas subsidiaries and patents"
        );
        let a_print = fp.fingerprint(a_text);
        let b_print = fp.fingerprint(&b_text);
        store.observe(SegmentId::new(1), &a_print, 0.5);
        store.observe(SegmentId::new(2), &b_print, 0.5);

        let b_auth = store.authoritative_fingerprint(SegmentId::new(2));
        let a_hashes = a_print.hash_set();
        // No hash of A's fingerprint is authoritative for B.
        assert!(b_auth.is_disjoint(&a_hashes));
        // A's own fingerprint stays fully authoritative.
        assert_eq!(store.authoritative_fingerprint(SegmentId::new(1)), a_hashes);
    }

    #[test]
    fn overlap_compensation_reports_only_true_source() {
        // Figure 7 end-to-end: paste A's text into C after B (a superset of
        // A) was stored. Only A must be reported.
        let fp = fp();
        let store = FingerprintStore::new();
        let b_text = format!("{SECRET} additionally the deal includes all overseas subsidiaries");
        store.observe(SegmentId::new(1), &fp.fingerprint(SECRET), 0.5);
        store.observe(SegmentId::new(2), &fp.fingerprint(&b_text), 0.5);

        let c_print = fp.fingerprint(SECRET);
        let reports = store.disclosing_sources(SegmentId::new(3), &c_print);
        let sources: Vec<SegmentId> = reports.iter().map(|r| r.source).collect();
        assert_eq!(sources, vec![SegmentId::new(1)]);
    }

    #[test]
    fn editing_a_segment_replaces_its_fingerprint() {
        let fp = fp();
        let store = FingerprintStore::new();
        let id = SegmentId::new(1);
        store.observe(id, &fp.fingerprint(SECRET), 0.5);
        let before = store.segment(id).unwrap().hashes().len();
        assert!(before > 0);
        let rewritten = "entirely different content now lives here with nothing in common";
        store.observe(id, &fp.fingerprint(rewritten), 0.5);
        let stored: HashSet<u32> = store
            .segment(id)
            .unwrap()
            .hashes()
            .iter()
            .copied()
            .collect();
        assert_eq!(stored, fp.fingerprint(rewritten).hash_set());
        // The old hashes still have first-sighting records (DBhash keeps
        // history) but the segment's current fingerprint changed.
        assert!(store.hash_count() >= stored.len());
    }

    #[test]
    fn threshold_zero_fires_on_any_shared_hash() {
        let fp = fp();
        let store = FingerprintStore::new();
        store.observe(SegmentId::new(1), &fp.fingerprint(SECRET), 0.0);
        // Take a fragment long enough to guarantee one shared hash.
        let fragment = &SECRET[..60];
        let reports = store.disclosing_sources(SegmentId::new(2), &fp.fingerprint(fragment));
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn threshold_one_requires_full_disclosure() {
        let fp = fp();
        let store = FingerprintStore::new();
        store.observe(SegmentId::new(1), &fp.fingerprint(SECRET), 1.0);
        // A fragment does not fully disclose.
        let fragment = &SECRET[..SECRET.len() / 2];
        assert!(store
            .disclosing_sources(SegmentId::new(2), &fp.fingerprint(fragment))
            .is_empty());
        // The full text does.
        let reports = store.disclosing_sources(SegmentId::new(2), &fp.fingerprint(SECRET));
        assert_eq!(reports.len(), 1);
        assert!((reports[0].disclosure - 1.0).abs() < 1e-12);
    }

    #[test]
    fn remove_segment_releases_hash_ownership() {
        let fp = fp();
        let store = FingerprintStore::new();
        let print = fp.fingerprint(SECRET);
        store.observe(SegmentId::new(1), &print, 0.5);
        assert!(store.remove_segment(SegmentId::new(1)));
        assert!(!store.remove_segment(SegmentId::new(1)));
        assert_eq!(store.segment_count(), 0);
        // Ownership is re-established by the next observer.
        store.observe(SegmentId::new(2), &print, 0.5);
        let some_hash = *print.hash_set().iter().next().unwrap();
        assert_eq!(
            store.oldest_segment_with(some_hash),
            Some(SegmentId::new(2))
        );
    }

    #[test]
    fn eviction_by_age() {
        let fp = fp();
        let store = FingerprintStore::new();
        store.observe(SegmentId::new(1), &fp.fingerprint(SECRET), 0.5);
        let cutoff = store.now();
        store.observe(
            SegmentId::new(2),
            &fp.fingerprint("some other long enough text to produce a fingerprint"),
            0.5,
        );
        assert_eq!(store.evict_older_than(cutoff), 1);
        assert!(store.segment(SegmentId::new(1)).is_none());
        assert!(store.segment(SegmentId::new(2)).is_some());
    }

    #[test]
    fn eviction_counters_track_sweeps() {
        let fp = fp();
        let store = FingerprintStore::new();
        store.observe(SegmentId::new(1), &fp.fingerprint(SECRET), 0.5);
        let cutoff = store.now();
        store.observe(
            SegmentId::new(2),
            &fp.fingerprint("some other long enough text to produce a fingerprint"),
            0.5,
        );
        assert_eq!(store.evict_older_than(cutoff), 1);
        // Second sweep with the same cutoff inspects the survivor and
        // evicts nothing.
        assert_eq!(store.evict_older_than(cutoff), 0);
        let stats = store.stats();
        assert_eq!(stats.eviction_scans, 2);
        assert_eq!(stats.eviction_scanned, 3); // 2 segments, then 1.
        assert_eq!(stats.eviction_evicted, 1);
        // Per-shard contention vectors line up with the shard count and sum
        // to the aggregate counters.
        assert_eq!(stats.hash_shard_contention.len(), stats.shard_count);
        assert_eq!(stats.segment_shard_contention.len(), stats.shard_count);
        assert_eq!(
            stats.hash_shard_contention.iter().sum::<u64>(),
            stats.hash_lock_contention
        );
        assert_eq!(
            stats.segment_shard_contention.iter().sum::<u64>(),
            stats.segment_lock_contention
        );
    }

    #[test]
    fn observe_batch_matches_sequential_observes() {
        let fp = fp();
        let texts = [
            SECRET,
            "notes from the meeting follow with some of the acquisition details repeated",
            "completely unrelated prose about gardening tulips and daffodils in spring",
            SECRET, // duplicate content: ownership stays with the first entry
        ];
        let prints: Vec<_> = texts.iter().map(|t| fp.fingerprint(t)).collect();
        let sequential = FingerprintStore::new();
        for (i, print) in prints.iter().enumerate() {
            sequential.observe(SegmentId::new(i as u64 + 1), print, 0.5);
        }
        let batched = FingerprintStore::new();
        let entries: Vec<(SegmentId, &Fingerprint, f64)> = prints
            .iter()
            .enumerate()
            .map(|(i, print)| (SegmentId::new(i as u64 + 1), print, 0.5))
            .collect();
        batched.observe_batch(&entries);

        assert_eq!(batched.now(), sequential.now());
        assert_eq!(batched.hash_count(), sequential.hash_count());
        for i in 1..=texts.len() as u64 {
            assert_eq!(
                batched.authoritative_fingerprint(SegmentId::new(i)),
                sequential.authoritative_fingerprint(SegmentId::new(i)),
                "authoritative set of segment {i} diverged"
            );
        }
        let probe = fp.fingerprint(SECRET);
        assert_eq!(
            batched.disclosing_sources(SegmentId::new(99), &probe),
            sequential.disclosing_sources(SegmentId::new(99), &probe)
        );

        let stats = batched.stats();
        assert_eq!(stats.batched_observes, texts.len() as u64);
        assert!(stats.batch_hashes_recorded > 0);
        assert!(stats.batch_lock_acquisitions > 0);
        assert!(stats.batch_lock_acquisitions < stats.batch_hashes_recorded);
        // `observe` is a one-entry batch, so the loop counts every entry.
        assert_eq!(sequential.stats().batched_observes, texts.len() as u64);
    }

    #[test]
    fn observe_batch_of_one_and_empty() {
        let fp = fp();
        let store = FingerprintStore::new();
        store.observe_batch(&[]);
        assert_eq!(store.now(), Timestamp::ZERO);
        let print = fp.fingerprint(SECRET);
        store.observe_batch(&[(SegmentId::new(1), &print, 0.5)]);
        assert_eq!(store.segment_count(), 1);
        assert_eq!(
            store.authoritative_fingerprint(SegmentId::new(1)),
            print.hash_set()
        );
    }

    #[test]
    fn empty_fingerprints_never_report() {
        let fp = fp();
        let store = FingerprintStore::new();
        store.observe(SegmentId::new(1), &fp.fingerprint("tiny"), 0.0);
        assert!(store
            .disclosing_sources(SegmentId::new(2), &fp.fingerprint("tiny"))
            .is_empty());
        assert_eq!(
            store.disclosure_from(SegmentId::new(1), &HashSet::new()),
            0.0
        );
    }
}
