//! Bulk-ingest microbench for the shard-batched observe pipeline.
//!
//! Sweeps the store sizes in [`algorithm1::STORE_SIZES`], ingesting the
//! same synthetic corpus two ways per size: the per-paragraph
//! `FingerprintStore::observe` loop and a single
//! `FingerprintStore::observe_batch` call. Reports wall time for both
//! plus the stripe lock round-trips each shape pays, asserts the CI
//! lock-reduction floor at the middle (15k) size, and writes
//! `BENCH_ingest.json` at the repo root.
//!
//! The gated metric is the *lock round-trip reduction*, which is
//! deterministic: every `observe_batch` call takes each touched stripe
//! lock once, so the per-paragraph loop (one-entry batches) pays up to
//! one `DBhash` lock per stripe plus one `DBpar` lock per paragraph,
//! while the single batch pays each stripe lock once in total. Both
//! counts are read from the stores' `batch_lock_acquisitions`. Wall
//! time is reported alongside but not gated — on a single core both
//! shapes are bound by the same per-hash map work, so the wall-clock win
//! only materialises with cores for the stripes (and the pool-parallel
//! fingerprint fan-out above this layer) to spread over.
//!
//! The floor defaults to 3.0x and can be overridden with
//! `BF_INGEST_FLOOR`.

use browserflow_bench::{algorithm1, host_cores, ingest, print_header};

fn write_report(results: &[ingest::SizeResult]) {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"paragraphs\": {}, \"hashes_recorded\": {}, \
                 \"per_paragraph_ms\": {:.3}, \"batched_ms\": {:.3}, \
                 \"wall_speedup\": {:.2}, \"per_paragraph_locks\": {}, \
                 \"batched_locks\": {}, \"lock_reduction\": {:.1}}}",
                r.paragraphs,
                r.hashes_recorded,
                r.per_paragraph_ms,
                r.batched_ms,
                r.wall_speedup(),
                r.per_paragraph_locks,
                r.batched_locks,
                r.lock_reduction()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ingest\",\n  \
         \"note\": \"per-paragraph observe loop (one-entry batches) vs one \
         observe_batch call over the Algorithm 1 corpus; both lock columns are the \
         stores' batch_lock_acquisitions counters (one round-trip per touched \
         stripe per call, so the loop pays up to one per DBhash stripe plus one \
         DBpar round-trip per paragraph); batched ingest is asserted \
         observation-equivalent to the loop before timing; lock_reduction is the \
         CI-gated metric, wall times are informational\",\n  \
         \"sizes\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn main() {
    let floor: f64 = std::env::var("BF_INGEST_FLOOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);

    print_header(
        "Batched ingest: per-paragraph observe loop vs one observe_batch call",
        &format!(
            "stripe lock round-trips and wall time per ingest shape; host_cores = {}",
            host_cores()
        ),
    );
    println!(
        "{:>12} {:>10} {:>12} {:>9} {:>14} {:>13} {:>10}",
        "paragraphs", "seq_ms", "batched_ms", "speedup", "seq_locks", "batch_locks", "reduction"
    );

    let results = ingest::run(algorithm1::STORE_SIZES);
    for r in &results {
        println!(
            "{:>12} {:>10.1} {:>12.1} {:>8.2}x {:>14} {:>13} {:>9.0}x",
            r.paragraphs,
            r.per_paragraph_ms,
            r.batched_ms,
            r.wall_speedup(),
            r.per_paragraph_locks,
            r.batched_locks,
            r.lock_reduction()
        );
    }

    write_report(&results);

    let gated = results
        .iter()
        .find(|r| r.paragraphs == 15_000)
        .or_else(|| results.last())
        .expect("STORE_SIZES is non-empty");
    let reduction = gated.lock_reduction();
    println!(
        "\n{} paragraphs: batched ingest takes {reduction:.0}x fewer stripe lock \
         round-trips than the per-paragraph loop (floor {floor:.1}x)",
        gated.paragraphs
    );
    assert!(
        reduction >= floor,
        "batched ingest must take >= {floor:.1}x fewer stripe lock round-trips than \
         the per-paragraph observe loop at {} paragraphs; measured {reduction:.2}x",
        gated.paragraphs
    );
}
