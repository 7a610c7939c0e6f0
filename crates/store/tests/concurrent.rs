//! Concurrency tests of the sharded [`FingerprintStore`]: the parallel
//! Algorithm 1 fan-out must be byte-identical to the sequential path, and
//! the store must survive concurrent writers and checkers without losing
//! entries or panicking.

use browserflow_fingerprint::{Fingerprint, SelectedHash};
use browserflow_store::{FingerprintStore, SegmentId};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

fn fingerprint_of(hashes: &[u32]) -> Fingerprint {
    hashes
        .iter()
        .enumerate()
        .map(|(i, &h)| SelectedHash::new(h, i, i..i + 1))
        .collect()
}

/// Many small segments drawn from a narrow hash space, so a broad target
/// yields well over the parallel cutoff (32) of candidate sources.
fn populated_store(seed_sets: &[Vec<u32>]) -> FingerprintStore {
    let store = FingerprintStore::new();
    for (i, hashes) in seed_sets.iter().enumerate() {
        store.observe(SegmentId::new(i as u64), &fingerprint_of(hashes), 0.1);
    }
    store
}

/// Observes `entries` in order through `observe_batch` calls of
/// `per_call` entries each (the last call takes the remainder).
fn observe_in_batches(
    store: &FingerprintStore,
    entries: &[(SegmentId, Fingerprint, f64)],
    per_call: usize,
) {
    for chunk in entries.chunks(per_call) {
        let refs: Vec<(SegmentId, &Fingerprint, f64)> = chunk
            .iter()
            .map(|(id, print, t)| (*id, print, *t))
            .collect();
        store.observe_batch(&refs);
    }
}

/// Quiescent consistency of the authoritative-set index: once the racing
/// threads have joined, every segment's incrementally maintained
/// authoritative set must equal the pre-index derivation (one `DBhash`
/// probe per stored hash) — races may only ever delay revocation, never
/// leave it wrong at rest. `per_call` names the batch size under test.
fn assert_index_quiescent(store: &FingerprintStore, per_call: usize) {
    for id in store.segment_ids() {
        let stored = store.segment(id).expect("listed segment exists");
        let probed: HashSet<u32> = stored
            .hashes()
            .iter()
            .copied()
            .filter(|&h| store.oldest_segment_with(h) == Some(id))
            .collect();
        assert_eq!(
            store.authoritative_fingerprint(id),
            probed,
            "authoritative index diverged for segment {id:?} after the race \
             ({per_call} entries per observe_batch call)"
        );
    }
}

proptest! {
    /// Parallel Algorithm 1 returns exactly the sequential reports, in the
    /// same order, for every worker count — the determinism contract of
    /// the fan-out.
    #[test]
    fn parallel_reports_match_sequential(
        seed_sets in proptest::collection::vec(
            proptest::collection::vec(0u32..300, 1..8), 40..120),
        target in proptest::collection::vec(0u32..300, 1..200),
    ) {
        let store = populated_store(&seed_sets);
        let target_id = SegmentId::new(10_000);
        let target_hashes: HashSet<u32> = target.iter().copied().collect();
        let sequential =
            store.disclosing_sources_with_workers(target_id, &target_hashes, 1);
        for workers in [2usize, 3, 4, 8] {
            let parallel =
                store.disclosing_sources_with_workers(target_id, &target_hashes, workers);
            prop_assert_eq!(
                &sequential, &parallel,
                "worker count {} diverged from sequential", workers
            );
        }
    }
}

#[test]
fn parallel_path_is_actually_taken_and_counted() {
    // 64 single-hash segments -> 64 candidates for a target containing
    // every hash, comfortably past the 32-candidate cutoff.
    let seed_sets: Vec<Vec<u32>> = (0..64u32).map(|h| vec![h]).collect();
    let store = populated_store(&seed_sets);
    let all: HashSet<u32> = (0..64u32).collect();
    let reports = store.disclosing_sources_with_workers(SegmentId::new(999), &all, 4);
    assert_eq!(reports.len(), 64);
    let stats = store.stats();
    assert_eq!(stats.parallel_checks, 1);
    assert_eq!(stats.sequential_checks, 0);
    // Below the cutoff (or with one worker) the run is counted sequential.
    store.disclosing_sources_with_workers(SegmentId::new(999), &all, 1);
    assert_eq!(store.stats().sequential_checks, 1);
}

#[test]
fn concurrent_writers_and_checkers_converge() {
    for per_call in [1, 4] {
        writers_and_checkers_converge(per_call);
    }
}

fn writers_and_checkers_converge(per_call: usize) {
    const WRITERS: usize = 4;
    const CHECKERS: usize = 3;
    const PER_WRITER: u64 = 50;

    let store = Arc::new(FingerprintStore::new());
    std::thread::scope(|s| {
        for w in 0..WRITERS as u64 {
            let store = Arc::clone(&store);
            s.spawn(move || {
                // Writer-disjoint hash ranges keep final ownership easy
                // to assert; interleaving still contends on shards.
                let entries: Vec<(SegmentId, Fingerprint, f64)> = (0..PER_WRITER)
                    .map(|i| {
                        let id = w * PER_WRITER + i;
                        let hashes: Vec<u32> = (0..4u32).map(|k| (id as u32) * 4 + k).collect();
                        (SegmentId::new(id), fingerprint_of(&hashes), 0.5)
                    })
                    .collect();
                observe_in_batches(&store, &entries, per_call);
            });
        }
        for c in 0..CHECKERS {
            let store = Arc::clone(&store);
            s.spawn(move || {
                let probe: HashSet<u32> = (0..200u32).collect();
                for round in 0..20 {
                    // Checks racing the writers must never panic and must
                    // only ever report stored sources.
                    let reports = store.disclosing_sources_with_workers(
                        SegmentId::new(90_000 + c as u64),
                        &probe,
                        if round % 2 == 0 { 1 } else { 4 },
                    );
                    for report in &reports {
                        assert!(report.disclosure > 0.0 && report.disclosure <= 1.0);
                        assert!(report.source.get() < WRITERS as u64 * PER_WRITER);
                    }
                }
            });
        }
    });

    // Quiescent state: nothing was lost and ownership is exact.
    let total = WRITERS as u64 * PER_WRITER;
    assert_eq!(store.segment_count(), total as usize);
    assert_eq!(store.hash_count(), total as usize * 4);
    for id in 0..total {
        assert_eq!(
            store.oldest_segment_with(id as u32 * 4),
            Some(SegmentId::new(id))
        );
    }
    // And a full check after the dust settles is deterministic across
    // worker counts.
    let probe: HashSet<u32> = (0..total as u32 * 4).collect();
    let sequential = store.disclosing_sources_with_workers(SegmentId::new(70_000), &probe, 1);
    let parallel = store.disclosing_sources_with_workers(SegmentId::new(70_000), &probe, 8);
    assert_eq!(sequential, parallel);
    assert_eq!(sequential.len(), total as usize);
    assert_index_quiescent(&store, per_call);
}

#[test]
fn concurrent_observers_of_the_same_hash_agree_on_one_owner() {
    // The same hash observed by many threads at once: exactly one segment
    // must end up owning it, and that ownership must be internally
    // consistent with the sighting's timestamp ordering.
    const THREADS: u64 = 8;
    let store = Arc::new(FingerprintStore::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            s.spawn(move || {
                store.observe(SegmentId::new(t), &fingerprint_of(&[42]), 0.5);
            });
        }
    });
    let owner = store.oldest_segment_with(42).expect("hash was observed");
    assert!(owner.get() < THREADS);
    // All eight segments stored their fingerprint.
    assert_eq!(store.segment_count(), THREADS as usize);
    // Exactly one segment holds 42 in its authoritative set, and it is
    // the owner DBhash names.
    assert_index_quiescent(&store, 1);
}

#[test]
fn racing_overlapping_observers_keep_index_consistent() {
    for per_call in [1, 4] {
        racing_overlapping_observers(per_call);
    }
}

fn racing_overlapping_observers(per_call: usize) {
    // Every hash is contested by several threads at once, so ownership is
    // displaced repeatedly while other observers are mid-flight — the
    // exact race the displacement-epoch revalidation exists for.
    const THREADS: u64 = 8;
    const ROUNDS: u64 = 25;
    let store = Arc::new(FingerprintStore::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            s.spawn(move || {
                let entries: Vec<(SegmentId, Fingerprint, f64)> = (0..ROUNDS)
                    .map(|r| {
                        let base = ((t + r) % THREADS) as u32 * 8;
                        let hashes: Vec<u32> = (base..base + 16).collect();
                        (SegmentId::new(t * ROUNDS + r), fingerprint_of(&hashes), 0.4)
                    })
                    .collect();
                observe_in_batches(&store, &entries, per_call);
            });
        }
    });
    assert_eq!(store.segment_count(), (THREADS * ROUNDS) as usize);
    assert_index_quiescent(&store, per_call);
}
