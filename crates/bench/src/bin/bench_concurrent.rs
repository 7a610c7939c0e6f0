//! Regenerates **BENCH_concurrent.json**: the batch-vs-sequential
//! round-trip comparison of [`AsyncDecider`], plus the sharded store's
//! contention, eviction-sweep and batched-ingest counters after a
//! corpus-shaped ingest.
//!
//! The binary asserts that the batched request reaches the decider as
//! one batch of all 32 paragraphs (`max_batch == 32`); the timings are
//! reported, not gated.
//!
//! Run with `--release`.

use browserflow::{AsyncDecider, BrowserFlow, CheckRequest, EnforcementMode};
use browserflow_bench::{report, warn_if_single_core};
use browserflow_corpus::TextGen;
use browserflow_fingerprint::Fingerprinter;
use browserflow_store::{FingerprintStore, SegmentId, Timestamp};
use browserflow_tdm::Service;
use serde::Serialize;
use std::time::Instant;

const STORE_PARAGRAPHS: usize = 1_500;
/// Paragraphs per document-wide recheck in the async round-trip bench.
const BATCH_PARAGRAPHS: usize = 32;

#[derive(Serialize)]
struct AsyncRoundtrip {
    paragraphs: usize,
    sequential_ms: f64,
    batch_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct StoreCounters {
    shard_count: usize,
    hash_lock_contention: u64,
    segment_lock_contention: u64,
    hash_shard_contention: Vec<u64>,
    segment_shard_contention: Vec<u64>,
    eviction_sweeps: u64,
    eviction_segments_scanned: u64,
    eviction_segments_evicted: u64,
    batched_observes: u64,
    batch_hashes_recorded: u64,
    batch_lock_acquisitions: u64,
}

#[derive(Serialize)]
struct Report {
    store_paragraphs: usize,
    async_batch_roundtrip: AsyncRoundtrip,
    store_counters: StoreCounters,
}

fn paragraphs(count: usize, seed: u64) -> Vec<String> {
    let mut gen = TextGen::new(seed);
    (0..count).map(|_| gen.paragraph(7)).collect()
}

fn filled_store(fp: &Fingerprinter, texts: &[String]) -> FingerprintStore {
    let store = FingerprintStore::new();
    // Seed through the corpus-shaped batched path (proptest-pinned
    // outcome-identical to the per-paragraph loop), so the batch
    // counters in `store_counters` reflect a real ingest.
    let prints: Vec<_> = texts.iter().map(|text| fp.fingerprint(text)).collect();
    let entries: Vec<_> = prints
        .iter()
        .enumerate()
        .map(|(i, print)| (SegmentId::new(i as u64), print, 0.5))
        .collect();
    store.observe_batch(&entries);
    store
}

/// Measures the asynchronous pipeline's round-trip cost: the same 32
/// paragraphs checked as 32 sequential blocking `check` calls (32 worker
/// round-trips) versus one `check_request` batch (a single round-trip
/// served by one Algorithm 1 fan-out). Keystroke-scale texts and a warmed
/// decision cache keep the per-paragraph engine work small, so the
/// measured difference is pipeline overhead — the quantity batching
/// removes — not fingerprinting throughput.
/// Returns (sequential_secs, batch_secs) per sweep of all 32 paragraphs.
fn run_async_roundtrip() -> (f64, f64) {
    let flow = BrowserFlow::builder()
        .mode(EnforcementMode::Advisory)
        .service(Service::new("gdocs", "Google Docs"))
        .build()
        .expect("policy builds");
    let texts: Vec<String> = (0..BATCH_PARAGRAPHS)
        .map(|i| format!("note {i}: ok"))
        .collect();
    let decider = AsyncDecider::spawn(flow);
    let warm_request = CheckRequest::batch("gdocs", "draft", texts.iter().map(String::as_str));
    decider
        .check_request(warm_request.clone())
        .expect("gdocs registered");
    for (i, text) in texts.iter().enumerate() {
        decider
            .check("gdocs", "draft", i, text.as_str())
            .expect("gdocs registered");
    }

    const ROUNDS: usize = 50;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for (i, text) in texts.iter().enumerate() {
            std::hint::black_box(
                decider
                    .check("gdocs", "draft", i, text.as_str())
                    .expect("gdocs registered"),
            );
        }
    }
    let sequential = start.elapsed().as_secs_f64() / ROUNDS as f64;

    let start = Instant::now();
    for _ in 0..ROUNDS {
        std::hint::black_box(
            decider
                .check_request(warm_request.clone())
                .expect("gdocs registered"),
        );
    }
    let batch = start.elapsed().as_secs_f64() / ROUNDS as f64;

    let stats = decider.stats();
    assert_eq!(stats.max_batch, BATCH_PARAGRAPHS as u64);
    (sequential, batch)
}

/// The store's counters after one eviction sweep whose cutoff lies below
/// every observation timestamp: the scan counters show the cost of an
/// eviction pass without evicting data.
fn store_counters(store: &FingerprintStore) -> StoreCounters {
    store.evict_older_than(Timestamp::ZERO);
    let stats = store.stats();
    StoreCounters {
        shard_count: stats.shard_count,
        hash_lock_contention: stats.hash_lock_contention,
        segment_lock_contention: stats.segment_lock_contention,
        hash_shard_contention: stats.hash_shard_contention,
        segment_shard_contention: stats.segment_shard_contention,
        eviction_sweeps: stats.eviction_scans,
        eviction_segments_scanned: stats.eviction_scanned,
        eviction_segments_evicted: stats.eviction_evicted,
        batched_observes: stats.batched_observes,
        batch_hashes_recorded: stats.batch_hashes_recorded,
        batch_lock_acquisitions: stats.batch_lock_acquisitions,
    }
}

fn main() {
    warn_if_single_core();
    let store = filled_store(&Fingerprinter::default(), &paragraphs(STORE_PARAGRAPHS, 17));

    // Warm-up pass, then keep the best of three (least-noise estimate of
    // the fixed overhead).
    run_async_roundtrip();
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (seq, batch) = run_async_roundtrip();
        best = (best.0.min(seq), best.1.min(batch));
    }
    println!(
        "async round-trip: sequential {:.3} ms, batch {:.3} ms, speedup {:.1}x",
        best.0 * 1e3,
        best.1 * 1e3,
        best.0 / best.1
    );

    report::write(
        "concurrent",
        "async_batch_roundtrip compares 32 sequential blocking checks (32 worker \
         round-trips) against one batched CheckRequest (1 round-trip), best of 3 \
         after a warm-up; store_counters are the striped store's contention, \
         eviction-sweep and batched-ingest counters after one batched ingest of \
         store_paragraphs corpus paragraphs and one no-op eviction sweep (the \
         ingest is single-threaded, so the contention counters read 0)",
        &Report {
            store_paragraphs: STORE_PARAGRAPHS,
            async_batch_roundtrip: AsyncRoundtrip {
                paragraphs: BATCH_PARAGRAPHS,
                sequential_ms: best.0 * 1e3,
                batch_ms: best.1 * 1e3,
                speedup: best.0 / best.1,
            },
            store_counters: store_counters(&store),
        },
    );
}
