//! Lock-striped, sharded variants of `DBhash` and `DBpar`, tiered over an
//! optional cold overlay.
//!
//! §6.2 of the paper measures BrowserFlow against stores holding tens of
//! millions of hashes; a single engine-wide lock serialises every check
//! against every observation. [`ShardedHashDb`] and [`ShardedSegmentDb`]
//! stripe the two databases over `N = next_pow2(cores)` independent
//! [`RwLock`]-protected stripes (clamped to `[8, 64]` so even a one-core
//! container exercises real striping), keyed by `hash % N` and
//! `segment % N` respectively. Checks — which are read-dominated — take
//! shared locks on exactly the stripes their hashes live in, so concurrent
//! checkers proceed in parallel and writers block only one stripe at a
//! time.
//!
//! # The hot/cold tiers
//!
//! Each stripe is a [`HashStripe`] / [`SegmentStripe`]: the mutable
//! in-memory **hot** database layered over at most one immutable, mmap'd
//! **cold** shard ([`crate::tier::ColdShard`]). Reads consult hot first and
//! fall through to the cold file; writes always land hot, with the
//! touched cold record suppressed by a tombstone:
//!
//! - a segment write (upsert, threshold/authoritative edit, removal)
//!   tombstones the id in [`ColdSegments::dead`] — edits first copy the
//!   cold record out (*promotion-on-write*);
//! - an earlier-timestamped sighting of a cold-owned hash installs hot and
//!   marks the hash [`ColdHashes::shadowed`]; a removed segment's cold
//!   sightings die with it via [`ColdHashes::dead`]. Shadowed hashes stay
//!   suppressed even if the displacing hot record is later evicted — the
//!   pure-hot store would have dropped the record entirely.
//!
//! The overlay lives *inside* the stripe lock, so the existing
//! single-stripe locking discipline (and the per-stripe contention
//! counters feeding `browserflow-core`'s metrics) carries over unchanged.
//! Demotion (`FingerprintStore::demote_idle_shards`) is the only operation
//! that replaces an overlay: it rewrites the merged stripe as a fresh cold
//! file and swaps it in with empty tombstone sets.

use crate::fx::FxHashSet;
use crate::hash_db::{HashDb, Sighting, SightingOutcome};
use crate::segment_db::{SegmentDb, StoredSegment};
use crate::tier::{ColdShard, SegmentHandle};
use crate::{SegmentId, Timestamp};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of stripes: the next power of two at or above the core count,
/// clamped to `[8, 64]`.
pub(crate) fn default_shard_count() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cores.next_power_of_two().clamp(8, 64)
}

/// Stripe counts up to which the stripe counting sorts keep their
/// per-stripe counters on the stack — the default count's ceiling, so a
/// small batch (a one-entry `observe`) pays no heap allocation for them.
const INLINE_STRIPES: usize = 64;

/// Zeroed per-stripe counters for `stripes` stripes: borrowed from
/// `inline` when they fit, from `heap` otherwise.
fn stripe_counts<'a>(
    stripes: usize,
    inline: &'a mut [u32; INLINE_STRIPES],
    heap: &'a mut Vec<u32>,
) -> &'a mut [u32] {
    if stripes <= INLINE_STRIPES {
        &mut inline[..stripes]
    } else {
        heap.resize(stripes, 0);
        heap
    }
}

/// Turns per-stripe counts into run starts in place (exclusive prefix
/// sum) — the middle step of the stripe counting sorts.
fn prefix_starts(counts: &mut [u32]) {
    let mut start = 0;
    for slot in counts {
        let count = *slot;
        *slot = start;
        start += count;
    }
}

/// Acquires a read guard, counting the acquisition as contended if it
/// could not be taken without blocking.
macro_rules! read_shard {
    ($self:expr, $index:expr) => {{
        let index = $index;
        let shard = &$self.shards[index];
        match shard.try_read() {
            Some(guard) => guard,
            None => {
                $self.contended[index].fetch_add(1, Ordering::Relaxed);
                shard.read()
            }
        }
    }};
}

/// Acquires a write guard, counting the acquisition as contended if it
/// could not be taken without blocking.
macro_rules! write_shard {
    ($self:expr, $index:expr) => {{
        let index = $index;
        let shard = &$self.shards[index];
        match shard.try_write() {
            Some(guard) => guard,
            None => {
                $self.contended[index].fetch_add(1, Ordering::Relaxed);
                shard.write()
            }
        }
    }};
}

// --- Hash stripes ----------------------------------------------------------

/// The cold overlay of one hash stripe: an immutable sighting table plus
/// the tombstones that hide records superseded or removed since attach.
#[derive(Debug)]
pub(crate) struct ColdHashes {
    shard: Arc<ColdShard>,
    /// Raw ids of segments whose cold sightings were removed with them.
    dead: FxHashSet<u64>,
    /// Hashes whose cold sighting was displaced by an earlier hot record
    /// (or is otherwise permanently superseded).
    shadowed: FxHashSet<u32>,
    /// Live (non-tombstoned) cold sightings, maintained eagerly so
    /// occupancy reads stay O(1).
    live: usize,
}

/// One lock-protected hash stripe: hot `DBhash` over an optional cold
/// overlay.
#[derive(Debug, Default)]
pub(crate) struct HashStripe {
    hot: HashDb,
    cold: Option<ColdHashes>,
}

impl HashStripe {
    fn cold_live_sighting(&self, hash: u32) -> Option<Sighting> {
        let cold = self.cold.as_ref()?;
        if cold.shadowed.contains(&hash) {
            return None;
        }
        let sighting = cold.shard.oldest_with(hash)?;
        (!cold.dead.contains(&sighting.segment.get())).then_some(sighting)
    }

    /// Records a sighting against the tier pair. The second value reports
    /// whether the write displaced (promoted over) a live cold record.
    pub(crate) fn record_sighting(
        &mut self,
        hash: u32,
        segment: SegmentId,
        time: Timestamp,
    ) -> (SightingOutcome, bool) {
        if self.hot.oldest_with(hash).is_some() {
            // A hot record always predates (or shadows) any cold one.
            return (self.hot.record_sighting(hash, segment, time), false);
        }
        if let Some(existing) = self.cold_live_sighting(hash) {
            if time >= existing.time {
                return (SightingOutcome::Kept(existing.segment), false);
            }
            let cold = self.cold.as_mut().expect("cold sighting implies overlay");
            cold.shadowed.insert(hash);
            cold.live -= 1;
            let installed = self.hot.record_sighting(hash, segment, time);
            debug_assert!(matches!(installed, SightingOutcome::Installed));
            return (SightingOutcome::Displaced(existing.segment), true);
        }
        (self.hot.record_sighting(hash, segment, time), false)
    }

    pub(crate) fn oldest_with(&self, hash: u32) -> Option<Sighting> {
        self.hot
            .oldest_with(hash)
            .or_else(|| self.cold_live_sighting(hash))
    }

    pub(crate) fn len(&self) -> usize {
        self.hot.len() + self.cold.as_ref().map_or(0, |c| c.live)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hot plus live cold entries, arbitrary order.
    pub(crate) fn entries(&self) -> Vec<(u32, Sighting)> {
        let mut all = self.hot.entries();
        if let Some(cold) = &self.cold {
            if cold.live > 0 {
                for index in 0..cold.shard.sighting_count() {
                    let (hash, sighting) = cold.shard.sighting_at(index);
                    if !cold.shadowed.contains(&hash)
                        && !cold.dead.contains(&sighting.segment.get())
                    {
                        all.push((hash, sighting));
                    }
                }
            }
        }
        all
    }

    pub(crate) fn remove_sightings_of(&mut self, segment: SegmentId) {
        self.hot.remove_sightings_of(segment);
        if let Some(cold) = &mut self.cold {
            if cold.dead.insert(segment.get()) {
                let removed = (0..cold.shard.sighting_count())
                    .filter(|&index| {
                        let (hash, sighting) = cold.shard.sighting_at(index);
                        sighting.segment == segment && !cold.shadowed.contains(&hash)
                    })
                    .count();
                cold.live -= removed;
            }
        }
    }

    /// Replaces the stripe with a freshly sealed cold overlay (the hot
    /// side and all tombstones are dropped: the file is the merged truth).
    pub(crate) fn attach_cold(&mut self, shard: Arc<ColdShard>) {
        let live = shard.sighting_count();
        self.hot = HashDb::new();
        self.cold = Some(ColdHashes {
            shard,
            dead: FxHashSet::default(),
            shadowed: FxHashSet::default(),
            live,
        });
    }

    /// Whether the stripe has diverged from its cold file (or has no cold
    /// file at all while holding data).
    pub(crate) fn is_dirty(&self) -> bool {
        !self.hot.is_empty()
            || self
                .cold
                .as_ref()
                .is_some_and(|c| !c.dead.is_empty() || !c.shadowed.is_empty())
    }

    pub(crate) fn cold_live(&self) -> usize {
        self.cold.as_ref().map_or(0, |c| c.live)
    }

    /// The merged stripe contents sorted by hash — the demotion snapshot.
    pub(crate) fn merged_sightings(&self) -> Vec<(u32, Sighting)> {
        let mut all = self.entries();
        all.sort_unstable_by_key(|(hash, _)| *hash);
        all
    }

    /// Whether the cold overlay carries tombstones — sightings shadowed
    /// by promoted hot copies or dead with their segment — that a
    /// compaction rewrite would drop from the shard file.
    pub(crate) fn cold_has_tombstones(&self) -> bool {
        self.cold
            .as_ref()
            .is_some_and(|c| !c.dead.is_empty() || !c.shadowed.is_empty())
    }

    /// The *live* cold sightings only, sorted by hash — the compaction
    /// snapshot. Hot records are deliberately excluded: compaction
    /// rewrites the cold file in place while the hot tier stays put.
    pub(crate) fn cold_live_sightings(&self) -> Vec<(u32, Sighting)> {
        let mut all = Vec::new();
        if let Some(cold) = &self.cold {
            for index in 0..cold.shard.sighting_count() {
                let (hash, sighting) = cold.shard.sighting_at(index);
                if !cold.shadowed.contains(&hash) && !cold.dead.contains(&sighting.segment.get()) {
                    all.push((hash, sighting));
                }
            }
        }
        all.sort_unstable_by_key(|(hash, _)| *hash);
        all
    }

    /// Swaps in a compacted cold overlay, keeping the hot tier in place.
    /// The new file already excludes every tombstoned record, so both
    /// tombstone sets reset to empty.
    pub(crate) fn replace_cold(&mut self, shard: Arc<ColdShard>) {
        let live = shard.sighting_count();
        self.cold = Some(ColdHashes {
            shard,
            dead: FxHashSet::default(),
            shadowed: FxHashSet::default(),
            live,
        });
    }
}

/// Compact result of [`ShardedHashDb::record_sightings_batch`].
///
/// Deliberately *not* a per-sighting [`SightingOutcome`] vector: the
/// batch path only needs "does the sighted segment own this hash" per
/// sighting plus the (rare) displacements, and a one-byte-per-sighting
/// bitmap keeps the writeback near-sequential where a 16-byte outcome
/// vector would stride a cache line per store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSightings {
    /// For each input sighting (same order), whether the sighted segment
    /// owns the hash after its sighting — `true` exactly when the
    /// per-sighting path would have yielded `Installed`, `Displaced(_)`,
    /// or `Kept(owner)` with `owner` equal to the sighted segment.
    pub owned: Vec<bool>,
    /// `(input index, previous owner)` for every sighting that displaced
    /// an existing owner, in submission order.
    pub displaced: Vec<(u32, SegmentId)>,
    /// Stripe locks taken (one per touched stripe).
    pub locks: u64,
}

/// `DBhash` striped over `N` lock-protected stripes, keyed by `hash % N`.
///
/// All operations take `&self`; per-stripe exclusion preserves the
/// earliest-sighting-wins invariant of [`HashDb`] because each hash lives
/// in exactly one stripe (hot or cold).
#[derive(Debug)]
pub struct ShardedHashDb {
    shards: Box<[RwLock<HashStripe>]>,
    mask: usize,
    /// One contended-acquisition counter per stripe.
    contended: Box<[AtomicU64]>,
    /// Bumped on every ownership displacement (an out-of-order insert that
    /// replaced an existing first sighting). Observers compare the epoch
    /// around a batch to detect racing displacements and re-validate their
    /// authoritative sets; see `FingerprintStore::observe_batch`.
    displacements: AtomicU64,
    /// Cold sightings displaced into the hot tier since open.
    promoted: AtomicU64,
}

impl Default for ShardedHashDb {
    fn default() -> Self {
        Self::with_shards(default_shard_count())
    }
}

impl ShardedHashDb {
    /// Creates an empty database with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty database with `shards` stripes (rounded up to a
    /// power of two, minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        let shards: Vec<RwLock<HashStripe>> = (0..count)
            .map(|_| RwLock::new(HashStripe::default()))
            .collect();
        let contended: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
        Self {
            shards: shards.into_boxed_slice(),
            mask: count - 1,
            contended: contended.into_boxed_slice(),
            displacements: AtomicU64::new(0),
            promoted: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, hash: u32) -> usize {
        hash as usize & self.mask
    }

    /// Records that `hash` was observed in `segment` at `time`, unless an
    /// earlier sighting already exists. Returns `true` if this became the
    /// hash's first sighting.
    pub fn record_first_sighting(&self, hash: u32, segment: SegmentId, time: Timestamp) -> bool {
        !matches!(
            self.record_sighting(hash, segment, time),
            SightingOutcome::Kept(_)
        )
    }

    /// Like [`ShardedHashDb::record_first_sighting`], but reports what
    /// happened to the hash's ownership. Displacements bump the
    /// displacement epoch.
    pub fn record_sighting(
        &self,
        hash: u32,
        segment: SegmentId,
        time: Timestamp,
    ) -> SightingOutcome {
        let (outcome, promoted) =
            write_shard!(self, self.shard_of(hash)).record_sighting(hash, segment, time);
        if promoted {
            self.promoted.fetch_add(1, Ordering::Relaxed);
        }
        if matches!(outcome, SightingOutcome::Displaced(_)) {
            self.displacements.fetch_add(1, Ordering::SeqCst);
        }
        outcome
    }

    /// Records a whole batch of sightings, taking each touched stripe lock
    /// **once** instead of once per hash.
    ///
    /// Sightings are partitioned into contiguous per-stripe runs with a
    /// stable counting sort, so all sightings of any given hash are
    /// processed in the order they appear in `sightings` —
    /// outcome-identical to calling [`ShardedHashDb::record_sighting`] for
    /// each tuple in order (per-hash state is independent across hashes,
    /// and every occurrence of a hash lands in the same stripe run). The
    /// contiguous layout matters for throughput as much as the lock
    /// batching: each stripe's pass streams its inputs sequentially and
    /// keeps that stripe's map cache-resident instead of striding across
    /// the whole batch once per stripe. Promotion and displacement
    /// counters advance exactly as the per-sighting path would advance
    /// them.
    pub fn record_sightings_batch(
        &self,
        sightings: &[(u32, SegmentId, Timestamp)],
    ) -> BatchSightings {
        self.record_sightings_indexed(sightings, |_, (hash, segment, time)| {
            (*segment, *time, std::slice::from_ref(hash))
        })
    }

    /// The core of [`ShardedHashDb::record_sightings_batch`] for bulk
    /// callers whose entries each carry many hashes (a fingerprint's
    /// worth): `row(i, &entries[i])` yields entry `i`'s
    /// `(segment, timestamp, hashes)`, and the batch's sightings are the
    /// entries' hashes in entry order. Semantics are exactly the general
    /// form's: sighting `k` of that sequence behaves like
    /// `record_sighting(hash, segment, timestamp)` issued in submission
    /// order. Hashes are read straight from the entries, so the batch is
    /// never copied into a flattened sighting list.
    pub fn record_sightings_indexed<'e, E>(
        &self,
        entries: &'e [E],
        row: impl Fn(usize, &'e E) -> (SegmentId, Timestamp, &'e [u32]),
    ) -> BatchSightings {
        let rows = || entries.iter().enumerate().map(|(entry, e)| row(entry, e));
        // Stable counting sort into contiguous per-stripe runs of
        // `(hash, submission index, entry)`. `ends[s]` holds stripe s's
        // count, then its run start, then — after the scatter advanced it
        // as the insertion cursor — its run end.
        let (mut inline, mut heap) = ([0u32; INLINE_STRIPES], Vec::new());
        let ends = stripe_counts(self.shards.len(), &mut inline, &mut heap);
        let mut total = 0;
        for (_, _, hashes) in rows() {
            total += hashes.len();
            for &hash in hashes {
                ends[self.shard_of(hash)] += 1;
            }
        }
        prefix_starts(ends);
        let mut ordered: Vec<(u32, u32, u32)> = vec![(0, 0, 0); total];
        let mut index = 0u32;
        for (entry, (_, _, hashes)) in rows().enumerate() {
            for &hash in hashes {
                let cursor = &mut ends[self.shard_of(hash)];
                ordered[*cursor as usize] = (hash, index, entry as u32);
                *cursor += 1;
                index += 1;
            }
        }

        let mut owned = vec![false; total];
        let mut displaced: Vec<(u32, SegmentId)> = Vec::new();
        let mut locks = 0u64;
        let mut promotions = 0u64;
        let mut start = 0;
        for (stripe, &end) in ends.iter().enumerate() {
            let run = &ordered[start..end as usize];
            start = end as usize;
            if run.is_empty() {
                continue;
            }
            locks += 1;
            let mut guard = write_shard!(self, stripe);
            for &(hash, index, entry) in run {
                let (segment, time, _) = row(entry as usize, &entries[entry as usize]);
                let (outcome, promoted) = guard.record_sighting(hash, segment, time);
                if promoted {
                    promotions += 1;
                }
                owned[index as usize] = match outcome {
                    SightingOutcome::Installed => true,
                    SightingOutcome::Displaced(previous) => {
                        displaced.push((index, previous));
                        true
                    }
                    SightingOutcome::Kept(owner) => owner == segment,
                };
            }
        }
        if promotions > 0 {
            self.promoted.fetch_add(promotions, Ordering::Relaxed);
        }
        if !displaced.is_empty() {
            self.displacements
                .fetch_add(displaced.len() as u64, Ordering::SeqCst);
        }
        // Stripe runs interleave submissions, so displacements come out in
        // stripe order; restore submission order for callers that replay
        // them as revocations.
        displaced.sort_unstable_by_key(|&(index, _)| index);
        BatchSightings {
            owned,
            displaced,
            locks,
        }
    }

    /// The current displacement epoch: total ownership displacements so
    /// far. An unchanged epoch across an observation proves no concurrent
    /// displacement raced it.
    pub fn displacement_epoch(&self) -> u64 {
        self.displacements.load(Ordering::SeqCst)
    }

    /// `oldestParagraphWith(h)`: the first sighting of `hash`, if any.
    pub fn oldest_with(&self, hash: u32) -> Option<Sighting> {
        read_shard!(self, self.shard_of(hash)).oldest_with(hash)
    }

    /// Number of distinct hashes on record (hot plus live cold).
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| read_shard!(self, i).len())
            .sum()
    }

    /// Whether no hashes are on record.
    pub fn is_empty(&self) -> bool {
        (0..self.shards.len()).all(|i| read_shard!(self, i).is_empty())
    }

    /// A snapshot of all (hash, sighting) entries in arbitrary order. The
    /// snapshot is per-stripe consistent, not globally atomic.
    pub fn entries(&self) -> Vec<(u32, Sighting)> {
        let mut all = Vec::new();
        for i in 0..self.shards.len() {
            all.extend(read_shard!(self, i).entries());
        }
        all
    }

    /// Drops every first-sighting record owned by `segment`.
    pub fn remove_sightings_of(&self, segment: SegmentId) {
        for i in 0..self.shards.len() {
            write_shard!(self, i).remove_sightings_of(segment);
        }
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-stripe entry counts (hot plus live cold occupancy).
    pub fn shard_sizes(&self) -> Vec<usize> {
        (0..self.shards.len())
            .map(|i| read_shard!(self, i).len())
            .collect()
    }

    /// Total lock acquisitions that had to wait for another holder.
    pub fn contention_count(&self) -> u64 {
        self.contended
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-stripe contended-acquisition counts.
    pub fn contention_counts(&self) -> Vec<u64> {
        self.contended
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Cold sightings displaced into the hot tier since open.
    pub(crate) fn promoted_count(&self) -> u64 {
        self.promoted.load(Ordering::Relaxed)
    }

    /// Live sightings currently served from cold files.
    pub(crate) fn cold_live(&self) -> usize {
        (0..self.shards.len())
            .map(|i| read_shard!(self, i).cold_live())
            .sum()
    }

    /// Attaches `shard` as stripe `index`'s cold overlay (replacing hot
    /// contents — the file is the merged truth).
    pub(crate) fn attach_cold(&self, index: usize, shard: Arc<ColdShard>) {
        write_shard!(self, index).attach_cold(shard);
    }

    /// Direct stripe access for the demotion sweep, which must hold the
    /// matching segment and hash stripe locks together.
    pub(crate) fn stripe(&self, index: usize) -> &RwLock<HashStripe> {
        &self.shards[index]
    }
}

// --- Segment stripes --------------------------------------------------------

/// The cold overlay of one segment stripe.
#[derive(Debug)]
pub(crate) struct ColdSegments {
    shard: Arc<ColdShard>,
    /// Raw ids tombstoned since attach. Invariant: every member is
    /// present in the cold directory, so the live count is
    /// `segment_count - dead.len()`.
    dead: FxHashSet<u64>,
}

/// One lock-protected segment stripe: hot `DBpar` over an optional cold
/// overlay.
#[derive(Debug, Default)]
pub(crate) struct SegmentStripe {
    hot: SegmentDb,
    cold: Option<ColdSegments>,
}

impl SegmentStripe {
    fn cold_live_index(&self, segment: SegmentId) -> Option<usize> {
        let cold = self.cold.as_ref()?;
        if cold.dead.contains(&segment.get()) {
            return None;
        }
        cold.shard.find(segment)
    }

    /// Tombstones `segment` in the cold overlay if it lives there.
    fn bury_cold(&mut self, segment: SegmentId) {
        if self.cold_live_index(segment).is_some() {
            let cold = self.cold.as_mut().expect("cold hit implies overlay");
            cold.dead.insert(segment.get());
        }
    }

    /// Copies a live cold record into the hot tier so it can be mutated.
    /// Returns the hot copy; the cold original is tombstoned.
    fn promote(&mut self, segment: SegmentId, index: usize) -> StoredSegment {
        let cold = self.cold.as_mut().expect("cold index implies overlay");
        let copy = cold.shard.materialize(index);
        cold.dead.insert(segment.get());
        copy
    }

    pub(crate) fn upsert(
        &mut self,
        segment: SegmentId,
        hashes: Vec<u32>,
        authoritative: Vec<u32>,
        threshold: f64,
        now: Timestamp,
    ) {
        self.hot
            .upsert(segment, hashes, authoritative, threshold, now);
        self.bury_cold(segment);
    }

    /// Replaces a segment's authoritative set; `false` if unknown. The
    /// second value reports whether a cold record was promoted to do it.
    pub(crate) fn set_authoritative(
        &mut self,
        segment: SegmentId,
        authoritative: Vec<u32>,
    ) -> (bool, bool) {
        if self.hot.set_authoritative(segment, authoritative.clone()) {
            return (true, false);
        }
        let Some(index) = self.cold_live_index(segment) else {
            return (false, false);
        };
        let copy = self.promote(segment, index);
        self.hot.upsert(
            segment,
            copy.hashes().to_vec(),
            authoritative,
            copy.threshold(),
            copy.updated(),
        );
        (true, true)
    }

    /// Removes `hash` from a segment's authoritative set; `true` if it was
    /// present. The second value reports a promotion.
    pub(crate) fn revoke_authoritative(&mut self, segment: SegmentId, hash: u32) -> (bool, bool) {
        if self.hot.revoke_authoritative(segment, hash) {
            return (true, false);
        }
        if self.hot.get(segment).is_some() {
            // Known hot, hash simply absent: no need to consult cold.
            return (false, false);
        }
        let Some(index) = self.cold_live_index(segment) else {
            return (false, false);
        };
        let cold = self.cold.as_ref().expect("cold index implies overlay");
        if cold
            .shard
            .authoritative_at(index)
            .binary_search(&hash)
            .is_err()
        {
            // Absent from the cold authoritative set: nothing to revoke,
            // so leave the record cold.
            return (false, false);
        }
        let copy = self.promote(segment, index);
        let mut authoritative = copy.authoritative().to_vec();
        if let Ok(position) = authoritative.binary_search(&hash) {
            authoritative.remove(position);
        }
        self.hot.upsert(
            segment,
            copy.hashes().to_vec(),
            authoritative,
            copy.threshold(),
            copy.updated(),
        );
        (true, true)
    }

    /// Updates a segment's threshold; `false` if unknown. The second value
    /// reports a promotion.
    pub(crate) fn set_threshold(&mut self, segment: SegmentId, threshold: f64) -> (bool, bool) {
        if self.hot.set_threshold(segment, threshold) {
            return (true, false);
        }
        let Some(index) = self.cold_live_index(segment) else {
            return (false, false);
        };
        let copy = self.promote(segment, index);
        self.hot.upsert(
            segment,
            copy.hashes().to_vec(),
            copy.authoritative().to_vec(),
            threshold,
            copy.updated(),
        );
        (true, true)
    }

    /// A zero-copy handle to the segment, wherever it lives.
    pub(crate) fn get_handle(&self, segment: SegmentId) -> Option<SegmentHandle> {
        if let Some(stored) = self.hot.get_shared(segment) {
            return Some(SegmentHandle::hot(stored));
        }
        let index = self.cold_live_index(segment)?;
        let cold = self.cold.as_ref().expect("cold index implies overlay");
        Some(SegmentHandle::cold(Arc::clone(&cold.shard), index))
    }

    /// An owned copy of the segment (cold records are materialised).
    pub(crate) fn get_shared(&self, segment: SegmentId) -> Option<Arc<StoredSegment>> {
        if let Some(stored) = self.hot.get_shared(segment) {
            return Some(stored);
        }
        let index = self.cold_live_index(segment)?;
        let cold = self.cold.as_ref().expect("cold index implies overlay");
        Some(Arc::new(cold.shard.materialize(index)))
    }

    pub(crate) fn remove(&mut self, segment: SegmentId) -> bool {
        let hot = self.hot.remove(segment);
        if hot {
            // An id never lives in both tiers, but bury defensively.
            self.bury_cold(segment);
            return true;
        }
        if self.cold_live_index(segment).is_some() {
            let cold = self.cold.as_mut().expect("cold hit implies overlay");
            cold.dead.insert(segment.get());
            return true;
        }
        false
    }

    pub(crate) fn len(&self) -> usize {
        self.hot.len() + self.cold_live_count()
    }

    fn cold_live_count(&self) -> usize {
        self.cold
            .as_ref()
            .map_or(0, |c| c.shard.segment_count() - c.dead.len())
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn for_each_cold_live(&self, mut f: impl FnMut(usize, SegmentId)) {
        if let Some(cold) = &self.cold {
            if cold.shard.segment_count() > cold.dead.len() {
                for index in 0..cold.shard.segment_count() {
                    let id = cold.shard.dir_id(index);
                    if !cold.dead.contains(&id.get()) {
                        f(index, id);
                    }
                }
            }
        }
    }

    pub(crate) fn ids(&self) -> Vec<SegmentId> {
        let mut all: Vec<SegmentId> = self.hot.ids().collect();
        self.for_each_cold_live(|_, id| all.push(id));
        all
    }

    pub(crate) fn segments_older_than(&self, cutoff: Timestamp) -> Vec<SegmentId> {
        let mut all = self.hot.segments_older_than(cutoff);
        if let Some(cold) = &self.cold {
            self.for_each_cold_live(|index, id| {
                if cold.shard.dir_updated(index) < cutoff {
                    all.push(id);
                }
            });
        }
        all
    }

    /// Whether every hot segment is idle (updated strictly before
    /// `cutoff`). Vacuously true for an empty hot tier.
    pub(crate) fn hot_is_idle(&self, cutoff: Timestamp) -> bool {
        self.hot.segments_older_than(cutoff).len() == self.hot.len()
    }

    /// Whether the stripe has diverged from its cold file.
    pub(crate) fn is_dirty(&self) -> bool {
        !self.hot.is_empty() || self.cold.as_ref().is_some_and(|c| !c.dead.is_empty())
    }

    pub(crate) fn has_cold(&self) -> bool {
        self.cold.is_some()
    }

    /// The merged stripe contents sorted by id — the demotion snapshot.
    pub(crate) fn merged_segments(&self) -> Vec<(SegmentId, Arc<StoredSegment>)> {
        let hot_ids: Vec<SegmentId> = self.hot.ids().collect();
        let mut all: Vec<(SegmentId, Arc<StoredSegment>)> = hot_ids
            .into_iter()
            .filter_map(|id| self.hot.get_shared(id).map(|s| (id, s)))
            .collect();
        if let Some(cold) = &self.cold {
            self.for_each_cold_live(|index, id| {
                all.push((id, Arc::new(cold.shard.materialize(index))));
            });
        }
        all.sort_unstable_by_key(|(id, _)| *id);
        all
    }

    /// Whether the cold overlay carries tombstones (records superseded by
    /// promoted hot copies or removed outright) that a compaction rewrite
    /// would drop from the shard file.
    pub(crate) fn cold_has_tombstones(&self) -> bool {
        self.cold.as_ref().is_some_and(|c| !c.dead.is_empty())
    }

    /// The *live* cold records only, sorted by id — the compaction
    /// snapshot. Hot records are deliberately excluded: compaction
    /// rewrites the cold file in place while the hot tier stays put.
    pub(crate) fn cold_live_segments(&self) -> Vec<(SegmentId, Arc<StoredSegment>)> {
        let mut all = Vec::new();
        if let Some(cold) = &self.cold {
            self.for_each_cold_live(|index, id| {
                all.push((id, Arc::new(cold.shard.materialize(index))));
            });
        }
        all.sort_unstable_by_key(|(id, _)| *id);
        all
    }

    /// Swaps in a compacted cold overlay, keeping the hot tier in place.
    /// The new file already excludes every tombstoned record, so the dead
    /// set resets to empty.
    pub(crate) fn replace_cold(&mut self, shard: Arc<ColdShard>) {
        self.cold = Some(ColdSegments {
            shard,
            dead: FxHashSet::default(),
        });
    }

    /// Replaces the stripe with a freshly sealed cold overlay.
    pub(crate) fn attach_cold(&mut self, shard: Arc<ColdShard>) {
        self.hot = SegmentDb::new();
        self.cold = Some(ColdSegments {
            shard,
            dead: FxHashSet::default(),
        });
    }
}

/// One deferred `DBpar` write inside a batched ingest pass
/// ([`ShardedSegmentDb::apply_writes_batch`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentWrite {
    /// Insert or replace a segment's stored fingerprint
    /// ([`ShardedSegmentDb::upsert`]).
    Upsert {
        /// The segment being written.
        segment: SegmentId,
        /// Sorted, deduplicated fingerprint hashes.
        hashes: Vec<u32>,
        /// Sorted authoritative subset (`authoritative ⊆ hashes`).
        authoritative: Vec<u32>,
        /// The segment's disclosure threshold.
        threshold: f64,
        /// The observation's logical timestamp.
        now: Timestamp,
    },
    /// Remove `hash` from a segment's authoritative set
    /// ([`ShardedSegmentDb::revoke_authoritative`]).
    Revoke {
        /// The segment losing authority.
        segment: SegmentId,
        /// The hash being revoked.
        hash: u32,
    },
}

impl SegmentWrite {
    fn segment(&self) -> SegmentId {
        match self {
            SegmentWrite::Upsert { segment, .. } | SegmentWrite::Revoke { segment, .. } => *segment,
        }
    }
}

/// `DBpar` striped over `N` lock-protected stripes, keyed by `segment % N`.
#[derive(Debug)]
pub struct ShardedSegmentDb {
    shards: Box<[RwLock<SegmentStripe>]>,
    mask: usize,
    /// One contended-acquisition counter per stripe.
    contended: Box<[AtomicU64]>,
    /// Cold records copied into the hot tier for mutation since open.
    promoted: AtomicU64,
}

impl Default for ShardedSegmentDb {
    fn default() -> Self {
        Self::with_shards(default_shard_count())
    }
}

impl ShardedSegmentDb {
    /// Creates an empty database with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty database with `shards` stripes (rounded up to a
    /// power of two, minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        let shards: Vec<RwLock<SegmentStripe>> = (0..count)
            .map(|_| RwLock::new(SegmentStripe::default()))
            .collect();
        let contended: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
        Self {
            shards: shards.into_boxed_slice(),
            mask: count - 1,
            contended: contended.into_boxed_slice(),
            promoted: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, segment: SegmentId) -> usize {
        segment.get() as usize & self.mask
    }

    fn count_promotion(&self, promoted: bool) {
        if promoted {
            self.promoted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Inserts or replaces the stored fingerprint of `segment`. Both hash
    /// lists must be sorted and deduplicated, `authoritative ⊆ hashes`.
    pub fn upsert(
        &self,
        segment: SegmentId,
        hashes: Vec<u32>,
        authoritative: Vec<u32>,
        threshold: f64,
        now: Timestamp,
    ) {
        write_shard!(self, self.shard_of(segment)).upsert(
            segment,
            hashes,
            authoritative,
            threshold,
            now,
        );
    }

    /// Applies a batch of deferred writes, taking each touched stripe lock
    /// **once** instead of once per write.
    ///
    /// Writes are bucketed by stripe in submission order, so all writes
    /// against any given segment apply in the order they appear in
    /// `writes` — outcome-identical to issuing them one by one (writes to
    /// different segments commute, and every write against a segment lands
    /// in the same stripe bucket). Returns the number of stripe locks
    /// taken; the promotion counter advances exactly as the per-write path
    /// would advance it.
    pub fn apply_writes_batch(&self, mut writes: Vec<SegmentWrite>) -> u64 {
        // Stable counting sort of write *indices* by stripe: the enum
        // values stay in place (their heap payloads never move) and each
        // stripe's pass pulls its writes out with `mem::replace`, so
        // grouping costs index traffic only, not a payload shuffle.
        // `ends` works as in `record_sightings_indexed`.
        let (mut inline, mut heap) = ([0u32; INLINE_STRIPES], Vec::new());
        let ends = stripe_counts(self.shards.len(), &mut inline, &mut heap);
        for write in &writes {
            ends[self.shard_of(write.segment())] += 1;
        }
        prefix_starts(ends);
        let mut order: Vec<u32> = vec![0; writes.len()];
        for (index, write) in writes.iter().enumerate() {
            let cursor = &mut ends[self.shard_of(write.segment())];
            order[*cursor as usize] = index as u32;
            *cursor += 1;
        }
        let placeholder = || SegmentWrite::Revoke {
            segment: SegmentId::new(u64::MAX),
            hash: 0,
        };
        let mut locks = 0u64;
        let mut promotions = 0u64;
        let mut start = 0;
        for (stripe, &end) in ends.iter().enumerate() {
            let run = &order[start..end as usize];
            start = end as usize;
            if run.is_empty() {
                continue;
            }
            locks += 1;
            let mut guard = write_shard!(self, stripe);
            for &index in run {
                let write = std::mem::replace(&mut writes[index as usize], placeholder());
                match write {
                    SegmentWrite::Upsert {
                        segment,
                        hashes,
                        authoritative,
                        threshold,
                        now,
                    } => guard.upsert(segment, hashes, authoritative, threshold, now),
                    SegmentWrite::Revoke { segment, hash } => {
                        let (_, promoted) = guard.revoke_authoritative(segment, hash);
                        if promoted {
                            promotions += 1;
                        }
                    }
                }
            }
        }
        if promotions > 0 {
            self.promoted.fetch_add(promotions, Ordering::Relaxed);
        }
        locks
    }

    /// Replaces a segment's authoritative set; `false` if unknown.
    pub fn set_authoritative(&self, segment: SegmentId, authoritative: Vec<u32>) -> bool {
        let (found, promoted) =
            write_shard!(self, self.shard_of(segment)).set_authoritative(segment, authoritative);
        self.count_promotion(promoted);
        found
    }

    /// Removes `hash` from a segment's authoritative set; `true` if it was
    /// present.
    pub fn revoke_authoritative(&self, segment: SegmentId, hash: u32) -> bool {
        let (revoked, promoted) =
            write_shard!(self, self.shard_of(segment)).revoke_authoritative(segment, hash);
        self.count_promotion(promoted);
        revoked
    }

    /// Updates a segment's threshold; `false` if unknown.
    pub fn set_threshold(&self, segment: SegmentId, threshold: f64) -> bool {
        let (found, promoted) =
            write_shard!(self, self.shard_of(segment)).set_threshold(segment, threshold);
        self.count_promotion(promoted);
        found
    }

    /// Fetches a stored segment as an owned handle, so no stripe lock is
    /// held while the caller inspects it. Cold records are copied out;
    /// use [`ShardedSegmentDb::get_handle`] for the zero-copy path.
    pub fn get(&self, segment: SegmentId) -> Option<Arc<StoredSegment>> {
        read_shard!(self, self.shard_of(segment)).get_shared(segment)
    }

    /// Fetches a zero-copy [`SegmentHandle`] to the segment, wherever it
    /// lives: an `Arc` clone for hot records, a (shard, index) view for
    /// cold ones.
    pub fn get_handle(&self, segment: SegmentId) -> Option<SegmentHandle> {
        read_shard!(self, self.shard_of(segment)).get_handle(segment)
    }

    /// Removes a segment; `true` if it was stored.
    pub fn remove(&self, segment: SegmentId) -> bool {
        write_shard!(self, self.shard_of(segment)).remove(segment)
    }

    /// Number of stored segments (hot plus live cold).
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| read_shard!(self, i).len())
            .sum()
    }

    /// Whether no segments are stored.
    pub fn is_empty(&self) -> bool {
        (0..self.shards.len()).all(|i| read_shard!(self, i).is_empty())
    }

    /// All stored segment ids (arbitrary order; per-stripe consistent).
    pub fn ids(&self) -> Vec<SegmentId> {
        let mut all = Vec::new();
        for i in 0..self.shards.len() {
            all.extend(read_shard!(self, i).ids());
        }
        all
    }

    /// Ids of segments last updated strictly before `cutoff`.
    pub fn segments_older_than(&self, cutoff: Timestamp) -> Vec<SegmentId> {
        let mut all = Vec::new();
        for i in 0..self.shards.len() {
            all.extend(read_shard!(self, i).segments_older_than(cutoff));
        }
        all
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-stripe entry counts (hot plus live cold occupancy).
    pub fn shard_sizes(&self) -> Vec<usize> {
        (0..self.shards.len())
            .map(|i| read_shard!(self, i).len())
            .collect()
    }

    /// Total lock acquisitions that had to wait for another holder.
    pub fn contention_count(&self) -> u64 {
        self.contended
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-stripe contended-acquisition counts.
    pub fn contention_counts(&self) -> Vec<u64> {
        self.contended
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Cold records copied into the hot tier for mutation since open.
    pub(crate) fn promoted_count(&self) -> u64 {
        self.promoted.load(Ordering::Relaxed)
    }

    /// Live segments currently served from cold files.
    pub(crate) fn cold_live(&self) -> usize {
        (0..self.shards.len())
            .map(|i| read_shard!(self, i).cold_live_count())
            .sum()
    }

    /// Stripes currently backed by a cold file.
    pub(crate) fn cold_shard_count(&self) -> usize {
        (0..self.shards.len())
            .filter(|&i| read_shard!(self, i).has_cold())
            .count()
    }

    /// Cold stripes served by a real `mmap` (the rest fell back to an
    /// aligned heap copy).
    pub(crate) fn cold_mapped_count(&self) -> usize {
        (0..self.shards.len())
            .filter(|&i| {
                read_shard!(self, i)
                    .cold
                    .as_ref()
                    .is_some_and(|c| c.shard.is_mapped())
            })
            .count()
    }

    /// Attaches `shard` as stripe `index`'s cold overlay.
    pub(crate) fn attach_cold(&self, index: usize, shard: Arc<ColdShard>) {
        write_shard!(self, index).attach_cold(shard);
    }

    /// Direct stripe access for the demotion sweep.
    pub(crate) fn stripe(&self, index: usize) -> &RwLock<SegmentStripe> {
        &self.shards[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_is_power_of_two_and_clamped() {
        let n = default_shard_count();
        assert!(n.is_power_of_two());
        assert!((8..=64).contains(&n));
        assert_eq!(ShardedHashDb::with_shards(3).shard_count(), 4);
        assert_eq!(ShardedSegmentDb::with_shards(0).shard_count(), 1);
    }

    #[test]
    fn sharded_hash_db_behaves_like_plain() {
        let sharded = ShardedHashDb::with_shards(8);
        let mut plain = HashDb::new();
        for i in 0..200u32 {
            let seg = SegmentId::new(u64::from(i % 7));
            let t = Timestamp::new(u64::from(i / 3));
            assert_eq!(
                sharded.record_first_sighting(i % 50, seg, t),
                plain.record_first_sighting(i % 50, seg, t),
                "insert {i} diverged"
            );
        }
        assert_eq!(sharded.len(), plain.len());
        for h in 0..50 {
            assert_eq!(sharded.oldest_with(h), plain.oldest_with(h));
        }
        sharded.remove_sightings_of(SegmentId::new(3));
        plain.remove_sightings_of(SegmentId::new(3));
        assert_eq!(sharded.len(), plain.len());
        let total: usize = sharded.shard_sizes().iter().sum();
        assert_eq!(total, sharded.len());
    }

    #[test]
    fn sharded_segment_db_round_trips() {
        let db = ShardedSegmentDb::with_shards(8);
        for i in 0..32u64 {
            db.upsert(
                SegmentId::new(i),
                vec![i as u32, i as u32 + 1],
                vec![i as u32],
                0.5,
                Timestamp::new(i),
            );
        }
        assert_eq!(db.len(), 32);
        let stored = db.get(SegmentId::new(5)).unwrap();
        assert_eq!(stored.hashes(), &[5, 6]);
        assert!(db.set_threshold(SegmentId::new(5), 0.9));
        assert_eq!(db.get(SegmentId::new(5)).unwrap().threshold(), 0.9);
        // The handle taken before the update still reads consistently.
        assert_eq!(stored.threshold(), 0.5);
        assert!(db.remove(SegmentId::new(5)));
        assert!(db.get(SegmentId::new(5)).is_none());
        assert_eq!(db.segments_older_than(Timestamp::new(2)).len(), 2);
        let mut ids = db.ids();
        ids.sort_unstable();
        assert_eq!(ids.len(), 31);
        // Hot handles report hot.
        assert!(!db.get_handle(SegmentId::new(6)).unwrap().is_cold());
    }

    #[test]
    fn per_shard_contention_counts_sum_to_total() {
        let db = ShardedHashDb::with_shards(4);
        let counts = db.contention_counts();
        assert_eq!(counts.len(), db.shard_count());
        assert_eq!(counts.iter().sum::<u64>(), db.contention_count());
        // Uncontended single-threaded use never bumps any shard counter.
        for i in 0..100u32 {
            db.record_first_sighting(i, SegmentId::new(1), Timestamp::new(0));
            db.oldest_with(i);
        }
        assert_eq!(db.contention_count(), 0);
        assert!(db.contention_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn batched_sightings_match_sequential_and_count_locks() {
        let sequential = ShardedHashDb::with_shards(8);
        let batched = ShardedHashDb::with_shards(8);
        let sightings: Vec<(u32, SegmentId, Timestamp)> = (0..200u32)
            .map(|i| {
                (
                    i % 37,
                    SegmentId::new(u64::from(i % 5)),
                    Timestamp::new(u64::from(i)),
                )
            })
            .collect();
        let expected: Vec<SightingOutcome> = sightings
            .iter()
            .map(|&(h, s, t)| sequential.record_sighting(h, s, t))
            .collect();
        let sighted = batched.record_sightings_batch(&sightings);
        let expected_owned: Vec<bool> = expected
            .iter()
            .zip(&sightings)
            .map(|(outcome, &(_, segment, _))| match *outcome {
                SightingOutcome::Installed | SightingOutcome::Displaced(_) => true,
                SightingOutcome::Kept(owner) => owner == segment,
            })
            .collect();
        let expected_displaced: Vec<(u32, SegmentId)> = expected
            .iter()
            .enumerate()
            .filter_map(|(index, outcome)| match *outcome {
                SightingOutcome::Displaced(previous) => Some((index as u32, previous)),
                _ => None,
            })
            .collect();
        assert_eq!(sighted.owned, expected_owned);
        assert_eq!(sighted.displaced, expected_displaced);
        assert_eq!(batched.len(), sequential.len());
        for h in 0..37 {
            assert_eq!(batched.oldest_with(h), sequential.oldest_with(h));
        }
        // 37 distinct hashes over 8 stripes touch every stripe, but each
        // lock is taken once — far fewer round-trips than 200 sightings.
        assert_eq!(sighted.locks, 8);
        assert_eq!(
            batched.displacement_epoch(),
            sequential.displacement_epoch()
        );
    }

    #[test]
    fn batched_segment_writes_match_sequential() {
        let sequential = ShardedSegmentDb::with_shards(8);
        let batched = ShardedSegmentDb::with_shards(8);
        let mut writes: Vec<SegmentWrite> = Vec::new();
        for i in 0..16u64 {
            writes.push(SegmentWrite::Upsert {
                segment: SegmentId::new(i % 6),
                hashes: vec![i as u32, i as u32 + 1, i as u32 + 2],
                authoritative: vec![i as u32],
                threshold: 0.25 + (i as f64) / 32.0,
                now: Timestamp::new(i),
            });
            writes.push(SegmentWrite::Revoke {
                segment: SegmentId::new(i % 6),
                hash: i as u32,
            });
        }
        for write in &writes {
            match write.clone() {
                SegmentWrite::Upsert {
                    segment,
                    hashes,
                    authoritative,
                    threshold,
                    now,
                } => sequential.upsert(segment, hashes, authoritative, threshold, now),
                SegmentWrite::Revoke { segment, hash } => {
                    sequential.revoke_authoritative(segment, hash);
                }
            }
        }
        let locks = batched.apply_writes_batch(writes);
        assert!(locks <= 6, "6 distinct segments need at most 6 stripes");
        assert_eq!(batched.len(), sequential.len());
        for i in 0..6u64 {
            let a = batched.get(SegmentId::new(i)).unwrap();
            let b = sequential.get(SegmentId::new(i)).unwrap();
            assert_eq!(a.hashes(), b.hashes());
            assert_eq!(a.authoritative(), b.authoritative());
            assert_eq!(a.threshold(), b.threshold());
            assert_eq!(a.updated(), b.updated());
        }
    }

    #[test]
    fn concurrent_writers_do_not_lose_entries() {
        let db = Arc::new(ShardedHashDb::with_shards(8));
        std::thread::scope(|s| {
            for worker in 0..4u32 {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for i in 0..500u32 {
                        let hash = worker * 500 + i;
                        db.record_first_sighting(
                            hash,
                            SegmentId::new(u64::from(worker)),
                            Timestamp::new(u64::from(hash)),
                        );
                    }
                });
            }
        });
        assert_eq!(db.len(), 2000);
    }
}
