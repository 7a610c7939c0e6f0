//! Property-based tests of fingerprint-store invariants.

use browserflow_fingerprint::{Fingerprint, SelectedHash};
use browserflow_store::{disclosure_between, FingerprintStore, SegmentId};
use proptest::prelude::*;
use std::collections::HashSet;

fn fingerprint_of(hashes: &[u32]) -> Fingerprint {
    hashes
        .iter()
        .enumerate()
        .map(|(i, &h)| SelectedHash::new(h, i, i..i + 1))
        .collect()
}

fn hash_vec() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..500, 0..40)
}

proptest! {
    /// The first observer of a hash stays its authoritative owner no
    /// matter how many later segments also contain it.
    #[test]
    fn first_observer_owns_hashes(first in hash_vec(), later in proptest::collection::vec(hash_vec(), 0..5)) {
        let store = FingerprintStore::new();
        store.observe(SegmentId::new(0), &fingerprint_of(&first), 0.5);
        for (i, hashes) in later.iter().enumerate() {
            store.observe(SegmentId::new(i as u64 + 1), &fingerprint_of(hashes), 0.5);
        }
        for &h in &first {
            prop_assert_eq!(store.oldest_segment_with(h), Some(SegmentId::new(0)));
        }
    }

    /// Authoritative fingerprints of distinct segments are disjoint.
    #[test]
    fn authoritative_fingerprints_are_disjoint(sets in proptest::collection::vec(hash_vec(), 1..6)) {
        let store = FingerprintStore::new();
        for (i, hashes) in sets.iter().enumerate() {
            store.observe(SegmentId::new(i as u64), &fingerprint_of(hashes), 0.5);
        }
        let auth: Vec<HashSet<u32>> = (0..sets.len())
            .map(|i| store.authoritative_fingerprint(SegmentId::new(i as u64)))
            .collect();
        for i in 0..auth.len() {
            for j in i + 1..auth.len() {
                prop_assert!(auth[i].is_disjoint(&auth[j]),
                    "segments {i} and {j} share authoritative hashes");
            }
        }
        // And each authoritative fingerprint is a subset of the stored one.
        for (i, hashes) in sets.iter().enumerate() {
            let full: HashSet<u32> = hashes.iter().copied().collect();
            prop_assert!(auth[i].is_subset(&full));
        }
    }

    /// Reported disclosures always lie in (0, 1], meet the source's
    /// threshold, and never include the target itself.
    #[test]
    fn reports_respect_threshold_and_bounds(
        stored in proptest::collection::vec(hash_vec(), 0..6),
        target in hash_vec(),
        threshold in 0.0f64..=1.0,
    ) {
        let store = FingerprintStore::new();
        for (i, hashes) in stored.iter().enumerate() {
            store.observe(SegmentId::new(i as u64), &fingerprint_of(hashes), threshold);
        }
        let target_id = SegmentId::new(999);
        let reports = store.disclosing_sources(target_id, &fingerprint_of(&target));
        for report in &reports {
            prop_assert!(report.source != target_id);
            prop_assert!(report.disclosure > 0.0 && report.disclosure <= 1.0);
            prop_assert!(report.shared_hashes >= 1);
            prop_assert!(report.disclosure >= report.threshold - 1e-12);
        }
        // Output is sorted by decreasing disclosure.
        for pair in reports.windows(2) {
            prop_assert!(pair[0].disclosure >= pair[1].disclosure);
        }
    }

    /// With a single stored segment there is no overlap compensation, so
    /// Algorithm 1 agrees with the plain pairwise metric of §4.2.
    #[test]
    fn single_source_matches_plain_containment(source in hash_vec(), target in hash_vec()) {
        let store = FingerprintStore::new();
        store.observe(SegmentId::new(1), &fingerprint_of(&source), 0.0);
        let reports = store.disclosing_sources(SegmentId::new(2), &fingerprint_of(&target));
        let source_set: HashSet<u32> = source.iter().copied().collect();
        let target_set: HashSet<u32> = target.iter().copied().collect();
        let plain = disclosure_between(&source_set, &target_set);
        if plain > 0.0 {
            prop_assert_eq!(reports.len(), 1);
            prop_assert!((reports[0].disclosure - plain).abs() < 1e-12);
        } else {
            prop_assert!(reports.is_empty());
        }
    }

    /// Removing a segment means it is never reported again, and its hashes
    /// become ownable by others.
    #[test]
    fn removed_segments_do_not_report(hashes in hash_vec()) {
        prop_assume!(!hashes.is_empty());
        let store = FingerprintStore::new();
        store.observe(SegmentId::new(1), &fingerprint_of(&hashes), 0.0);
        store.remove_segment(SegmentId::new(1));
        let reports = store.disclosing_sources(SegmentId::new(2), &fingerprint_of(&hashes));
        prop_assert!(reports.is_empty());
        store.observe(SegmentId::new(3), &fingerprint_of(&hashes), 0.0);
        prop_assert_eq!(store.oldest_segment_with(hashes[0]), Some(SegmentId::new(3)));
    }

    /// Re-observing the same fingerprint for the same segment is
    /// idempotent with respect to disclosure results.
    #[test]
    fn observation_is_idempotent(source in hash_vec(), target in hash_vec()) {
        let store_once = FingerprintStore::new();
        store_once.observe(SegmentId::new(1), &fingerprint_of(&source), 0.3);
        let store_twice = FingerprintStore::new();
        store_twice.observe(SegmentId::new(1), &fingerprint_of(&source), 0.3);
        store_twice.observe(SegmentId::new(1), &fingerprint_of(&source), 0.3);
        let target_fp = fingerprint_of(&target);
        prop_assert_eq!(
            store_once.disclosing_sources(SegmentId::new(2), &target_fp),
            store_twice.disclosing_sources(SegmentId::new(2), &target_fp)
        );
    }
}

mod batched_ingest_equivalence {
    use browserflow_fingerprint::{Fingerprint, SelectedHash};
    use browserflow_store::{
        FingerprintStore, LogicalClock, SegmentId, ShardedHashDb, ShardedSegmentDb, Sighting,
        SightingOutcome, Timestamp,
    };
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn fingerprint_of(hashes: &[u32]) -> Fingerprint {
        hashes
            .iter()
            .enumerate()
            .map(|(i, &h)| SelectedHash::new(h, i, i..i + 1))
            .collect()
    }

    /// The per-hash sequential ingest the store shipped before
    /// `observe_batch` became its only write path, kept as the reference
    /// the batched path is compared against: one `DBhash` round-trip per
    /// hash, one `DBpar` upsert, then the displaced owners' revocations.
    #[derive(Default)]
    struct SequentialReference {
        clock: LogicalClock,
        hashes: ShardedHashDb,
        segments: ShardedSegmentDb,
    }

    impl SequentialReference {
        fn oldest_segment_with(&self, hash: u32) -> Option<SegmentId> {
            self.hashes.oldest_with(hash).map(|s| s.segment)
        }

        fn observe(&self, segment: SegmentId, fingerprint: &Fingerprint, threshold: f64) {
            let now = self.clock.tick();
            let distinct = fingerprint.distinct_hashes();
            let epoch_before = self.hashes.displacement_epoch();
            let mut owned: Vec<u32> = Vec::with_capacity(distinct.len());
            let mut revoked: Vec<(SegmentId, u32)> = Vec::new();
            for &hash in distinct {
                match self.hashes.record_sighting(hash, segment, now) {
                    SightingOutcome::Installed => owned.push(hash),
                    SightingOutcome::Displaced(previous) => {
                        owned.push(hash);
                        if previous != segment {
                            revoked.push((previous, hash));
                        }
                    }
                    SightingOutcome::Kept(owner) => {
                        if owner == segment {
                            owned.push(hash);
                        }
                    }
                }
            }
            self.segments.upsert(
                segment,
                distinct.to_vec(),
                owned.clone(),
                threshold.clamp(0.0, 1.0),
                now,
            );
            for &(previous, hash) in &revoked {
                self.segments.revoke_authoritative(previous, hash);
            }
            if self.hashes.displacement_epoch() != epoch_before {
                for &hash in &owned {
                    if self.oldest_segment_with(hash) != Some(segment) {
                        self.segments.revoke_authoritative(segment, hash);
                    }
                }
            }
        }
    }

    /// One batch entry: a segment id from a deliberately small range (so
    /// duplicate segments are common), a hash set from a small universe
    /// (so cross-segment collisions are common), and a threshold.
    fn entry() -> impl Strategy<Value = (u64, Vec<u32>, f64)> {
        (
            0u64..8,
            proptest::collection::vec(0u32..200, 0..24),
            0.0f64..=1.0,
        )
    }

    /// The store must agree with the reference on every surface
    /// Algorithm 1 reads: the clock, first sightings, stored segment ids
    /// and every stored record (hashes, authoritative set, threshold,
    /// last update).
    fn assert_matches_reference(
        batched: &FingerprintStore,
        reference: &SequentialReference,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(batched.now(), reference.clock.peek());
        let sort = |mut v: Vec<(u32, Sighting)>| {
            v.sort_unstable_by_key(|&(h, s)| (h, s.segment, s.time));
            v
        };
        prop_assert_eq!(sort(batched.sightings()), sort(reference.hashes.entries()));
        let mut ids = reference.segments.ids();
        ids.sort_unstable();
        let mut batched_ids: Vec<SegmentId> = batched.segment_ids().collect();
        batched_ids.sort_unstable();
        prop_assert_eq!(&batched_ids, &ids);
        for id in ids {
            let a = batched.segment(id).expect("stored");
            let b = reference.segments.get(id).expect("stored");
            prop_assert_eq!(
                batched.authoritative_fingerprint(id),
                b.authoritative().iter().copied().collect::<HashSet<u32>>(),
                "authoritative set diverged for {:?}",
                id
            );
            prop_assert_eq!(a.hashes(), b.hashes());
            prop_assert_eq!(a.authoritative(), b.authoritative());
            prop_assert_eq!(a.threshold(), b.threshold());
            prop_assert_eq!(a.updated(), b.updated());
        }
        Ok(())
    }

    proptest! {
        /// `observe_batch` over an arbitrary entry sequence — duplicate
        /// segments and colliding hashes included — leaves `DBhash`, the
        /// clock and every stored record identical to the per-hash
        /// sequential reference observing the same entries in order.
        #[test]
        fn observe_batch_equals_sequential_observes(
            entries in proptest::collection::vec(entry(), 0..24),
        ) {
            let prints: Vec<(SegmentId, Fingerprint, f64)> = entries
                .iter()
                .map(|(id, hashes, t)| (SegmentId::new(*id), fingerprint_of(hashes), *t))
                .collect();
            let reference = SequentialReference::default();
            for (id, print, threshold) in &prints {
                reference.observe(*id, print, *threshold);
            }
            let batched = FingerprintStore::new();
            let refs: Vec<(SegmentId, &Fingerprint, f64)> =
                prints.iter().map(|(id, p, t)| (*id, p, *t)).collect();
            batched.observe_batch(&refs);
            assert_matches_reference(&batched, &reference)?;
        }

        /// Splitting the same sequence into consecutive `observe_batch`
        /// calls (arbitrary chunking, interleaving batch sizes of one)
        /// changes nothing either.
        #[test]
        fn chunked_batches_equal_sequential_observes(
            entries in proptest::collection::vec(entry(), 0..24),
            chunk in 1usize..6,
        ) {
            let prints: Vec<(SegmentId, Fingerprint, f64)> = entries
                .iter()
                .map(|(id, hashes, t)| (SegmentId::new(*id), fingerprint_of(hashes), *t))
                .collect();
            let reference = SequentialReference::default();
            for (id, print, threshold) in &prints {
                reference.observe(*id, print, *threshold);
            }
            let batched = FingerprintStore::new();
            let refs: Vec<(SegmentId, &Fingerprint, f64)> =
                prints.iter().map(|(id, p, t)| (*id, p, *t)).collect();
            for piece in refs.chunks(chunk) {
                batched.observe_batch(piece);
            }
            assert_matches_reference(&batched, &reference)?;
        }

        /// At the `DBhash` level the batched pass must reproduce the
        /// sequential outcomes even for *displacement-inducing* inputs:
        /// arbitrary timestamps make later tuples steal ownership with
        /// earlier times, exactly what racing observers produce.
        #[test]
        fn batched_sightings_equal_sequential_with_displacements(
            tuples in proptest::collection::vec((0u32..100, 0u64..8, 0u64..50), 0..80),
        ) {
            let sightings: Vec<(u32, SegmentId, Timestamp)> = tuples
                .iter()
                .map(|&(h, s, t)| (h, SegmentId::new(s), Timestamp::new(t)))
                .collect();
            let sequential = ShardedHashDb::with_shards(8);
            let expected: Vec<_> = sightings
                .iter()
                .map(|&(h, s, t)| sequential.record_sighting(h, s, t))
                .collect();
            let batched = ShardedHashDb::with_shards(8);
            let sighted = batched.record_sightings_batch(&sightings);
            // The compact form must agree with the sequential outcomes:
            // ownership bit per sighting, displacements in submission order.
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
            prop_assert_eq!(sighted.owned, expected_owned);
            prop_assert_eq!(sighted.displaced, expected_displaced);
            prop_assert_eq!(batched.displacement_epoch(), sequential.displacement_epoch());
            for h in 0..100 {
                prop_assert_eq!(batched.oldest_with(h), sequential.oldest_with(h));
            }
        }
    }
}

mod incremental_equivalence {
    use browserflow_fingerprint::{Fingerprint, SelectedHash};
    use browserflow_store::{FingerprintStore, IncrementalChecker, SegmentId};
    use proptest::prelude::*;

    fn fingerprint_of(hashes: &[u32]) -> Fingerprint {
        hashes
            .iter()
            .enumerate()
            .map(|(i, &h)| SelectedHash::new(h, i, i..i + 1))
            .collect()
    }

    proptest! {
        /// After any interleaving of adds and removes, the incremental
        /// checker reports exactly what a full Algorithm 1 run over the
        /// current hash set reports (§4.3's incrementality claim).
        #[test]
        fn incremental_equals_full_recompute(
            stored in proptest::collection::vec(proptest::collection::vec(0u32..300, 0..30), 0..5),
            deltas in proptest::collection::vec(
                (proptest::collection::vec(0u32..300, 0..10),
                 proptest::collection::vec(0u32..300, 0..10)),
                1..12,
            ),
        ) {
            let store = FingerprintStore::new();
            for (i, hashes) in stored.iter().enumerate() {
                store.observe(SegmentId::new(i as u64), &fingerprint_of(hashes), 0.3);
            }
            let target = SegmentId::new(999);
            let mut checker = IncrementalChecker::new(target);
            for (added, removed) in &deltas {
                let incremental = checker.update(&store, added, removed);
                let full = store.disclosing_sources_of_hashes(target, checker.hashes());
                prop_assert_eq!(incremental, full);
            }
        }
    }
}

mod indexed_evaluation {
    use browserflow_fingerprint::{Fingerprint, SelectedHash};
    use browserflow_store::{
        codec, intersection_count, probe_disclosing_sources, FingerprintStore, SegmentId,
    };
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn fingerprint_of(hashes: &[u32]) -> Fingerprint {
        hashes
            .iter()
            .enumerate()
            .map(|(i, &h)| SelectedHash::new(h, i, i..i + 1))
            .collect()
    }

    fn sorted_dedup(mut values: Vec<u32>) -> Vec<u32> {
        values.sort_unstable();
        values.dedup();
        values
    }

    /// The pre-index definition of a segment's authoritative set: one
    /// `DBhash` probe per stored hash.
    fn probe_authoritative(store: &FingerprintStore, id: SegmentId) -> HashSet<u32> {
        let stored = store.segment(id).expect("segment exists");
        stored
            .hashes()
            .iter()
            .copied()
            .filter(|&h| store.oldest_segment_with(h) == Some(id))
            .collect()
    }

    /// Every segment's incrementally maintained authoritative set must
    /// equal the probe-derived one.
    fn assert_index_matches_probe(store: &FingerprintStore) -> Result<(), TestCaseError> {
        for id in store.segment_ids() {
            prop_assert_eq!(
                store.authoritative_fingerprint(id),
                probe_authoritative(store, id),
                "authoritative index diverged for segment {:?}",
                id
            );
        }
        Ok(())
    }

    /// One random op against the store.
    #[derive(Debug, Clone)]
    enum Op {
        Observe(u64, Vec<u32>),
        Remove(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Remove is rare-ish: ids 8..40 in the second arm are mapped back
        // into 0..8, biasing the mix toward observations via the id range.
        (0u64..40, proptest::collection::vec(0u32..200, 0..24)).prop_map(|(id, hashes)| {
            if id < 32 {
                Op::Observe(id % 8, hashes)
            } else {
                Op::Remove(id % 8)
            }
        })
    }

    #[test]
    fn kernel_edge_cases() {
        assert_eq!(intersection_count(&[], &[]), 0);
        assert_eq!(intersection_count(&[1, 2, 3], &[]), 0);
        assert_eq!(intersection_count(&[], &[1, 2, 3]), 0);
        // Disjoint, interleaved and block-separated.
        assert_eq!(intersection_count(&[1, 3, 5], &[2, 4, 6]), 0);
        assert_eq!(intersection_count(&[1, 2, 3], &[100, 200]), 0);
        // Subset (exercises the galloping path when sizes diverge).
        let big: Vec<u32> = (0..4096).map(|i| i * 3).collect();
        let small: Vec<u32> = big.iter().copied().step_by(97).collect();
        assert_eq!(intersection_count(&small, &big), small.len());
        assert_eq!(intersection_count(&big, &small), small.len());
        // Identity.
        assert_eq!(intersection_count(&big, &big), big.len());
    }

    proptest! {
        /// The merge/galloping kernel equals the `HashSet` intersection
        /// size on arbitrary sorted-dedup inputs, in both argument orders.
        #[test]
        fn kernel_matches_hashset_reference(
            a in proptest::collection::vec(0u32..400, 0..300),
            b in proptest::collection::vec(0u32..400, 0..300),
        ) {
            let a = sorted_dedup(a);
            let b = sorted_dedup(b);
            let sa: HashSet<u32> = a.iter().copied().collect();
            let sb: HashSet<u32> = b.iter().copied().collect();
            let expected = sa.intersection(&sb).count();
            prop_assert_eq!(intersection_count(&a, &b), expected);
            prop_assert_eq!(intersection_count(&b, &a), expected);
        }

        /// Galloping is forced by blowing one side up; the count still
        /// equals the set-semantics reference.
        #[test]
        fn kernel_gallops_correctly(
            small in proptest::collection::vec(0u32..10_000, 0..12),
            seed in 0u32..1000,
        ) {
            let small = sorted_dedup(small);
            let big: Vec<u32> = (0..2_000u32).map(|i| i * 5 + seed % 5).collect();
            let sb: HashSet<u32> = big.iter().copied().collect();
            let expected = small.iter().filter(|h| sb.contains(h)).count();
            prop_assert_eq!(intersection_count(&small, &big), expected);
            prop_assert_eq!(intersection_count(&big, &small), expected);
        }

        /// After any sequence of observations (with displacement-heavy
        /// hash overlap) and removals, the incrementally maintained
        /// authoritative index equals the per-hash-probe derivation, and
        /// full Algorithm 1 reports equal the probe-based reference.
        #[test]
        fn index_matches_probe_after_random_ops(
            ops in proptest::collection::vec(op(), 1..40),
            target in proptest::collection::vec(0u32..200, 0..60),
        ) {
            let store = FingerprintStore::new();
            for op in &ops {
                match op {
                    Op::Observe(id, hashes) => {
                        store.observe(SegmentId::new(*id), &fingerprint_of(hashes), 0.3);
                    }
                    Op::Remove(id) => {
                        store.remove_segment(SegmentId::new(*id));
                    }
                }
            }
            assert_index_matches_probe(&store)?;
            let target_id = SegmentId::new(999);
            let target: HashSet<u32> = target.into_iter().collect();
            prop_assert_eq!(
                store.disclosing_sources_of_hashes(target_id, &target),
                probe_disclosing_sources(&store, target_id, &target)
            );
        }

        /// The index is derived state: a v2 encode→decode roundtrip (which
        /// replays sightings shard by shard, i.e. out of observation
        /// order) rebuilds an index identical to the probe derivation and
        /// to the original store's.
        #[test]
        fn index_survives_codec_roundtrip(
            ops in proptest::collection::vec(op(), 1..30),
            shards in 1usize..8,
            workers in 1usize..4,
        ) {
            let store = FingerprintStore::new();
            for op in &ops {
                match op {
                    Op::Observe(id, hashes) => {
                        store.observe(SegmentId::new(*id), &fingerprint_of(hashes), 0.3);
                    }
                    Op::Remove(id) => {
                        store.remove_segment(SegmentId::new(*id));
                    }
                }
            }
            let blob = codec::encode_v2_with_shards(&store, shards).expect("encodes");
            let restored = codec::decode_with_workers(&blob, workers).expect("decodes");
            assert_index_matches_probe(&restored)?;
            let mut ids: Vec<SegmentId> = store.segment_ids().collect();
            ids.sort_unstable();
            for id in ids {
                prop_assert_eq!(
                    restored.authoritative_fingerprint(id),
                    store.authoritative_fingerprint(id)
                );
            }
        }
    }
}
