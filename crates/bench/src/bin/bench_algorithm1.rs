//! Old-vs-new microbench for Algorithm 1 candidate evaluation.
//!
//! Sweeps the store sizes in [`algorithm1::STORE_SIZES`], timing one
//! document-wide disclosure check under the pre-index probe-based
//! reference and under the production path (authoritative-set index +
//! sorted-slice intersection kernel) on identical data, writes
//! `BENCH_algorithm1.json` at the repo root, and asserts the CI speedup
//! floor on the largest store.
//!
//! The floor defaults to 3.0x and can be overridden with `BF_A1_FLOOR`
//! (e.g. for debug builds, where relative timings differ).

use browserflow_bench::{
    algorithm1, env_floor, host_cores, print_header, report, warn_if_single_core,
};
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    target_sources: usize,
    target_hashes_per_source: usize,
    own_hashes: usize,
    shared_hashes: usize,
    sizes: Vec<algorithm1::SizeResult>,
}

fn main() {
    warn_if_single_core();
    let floor = env_floor("BF_A1_FLOOR", 3.0);

    print_header(
        "Algorithm 1 candidate evaluation: probe-based reference vs authoritative index",
        &format!(
            "target quotes {} of {} hashes from each of {} stored paragraphs; host_cores = {}",
            algorithm1::TARGET_HASHES_PER_SOURCE,
            algorithm1::OWN_HASHES,
            algorithm1::TARGET_SOURCES,
            host_cores()
        ),
    );
    println!(
        "{:>12} {:>14} {:>9} {:>12} {:>12} {:>9}",
        "paragraphs", "target_hashes", "reports", "probe_ms", "indexed_ms", "speedup"
    );

    let results = algorithm1::run(algorithm1::STORE_SIZES);
    for r in &results {
        println!(
            "{:>12} {:>14} {:>9} {:>12.3} {:>12.3} {:>8.2}x",
            r.paragraphs, r.target_hashes, r.reports, r.probe_ms, r.indexed_ms, r.speedup
        );
    }

    let largest = *results.last().expect("STORE_SIZES is non-empty");
    report::write(
        "algorithm1",
        "one document-wide disclosure check per store size, timed best-of-3 after a \
         warm-up: 'probe' is the pre-index reference (probe_disclosing_sources derives \
         each candidate's authoritative set by probing DBhash per stored hash), \
         'indexed' the production authoritative-set index + sorted-slice intersection \
         kernel; both are asserted to report identical sources before timing; the \
         speedup on the largest store is the CI-gated metric (BF_A1_FLOOR, default 3x)",
        &Report {
            target_sources: algorithm1::TARGET_SOURCES,
            target_hashes_per_source: algorithm1::TARGET_HASHES_PER_SOURCE,
            own_hashes: algorithm1::OWN_HASHES,
            shared_hashes: algorithm1::SHARED_HASHES,
            sizes: results,
        },
    );

    let speedup = largest.speedup;
    println!(
        "\nlargest store ({} paragraphs): {:.2}x speedup (floor {:.1}x)",
        largest.paragraphs, speedup, floor
    );
    assert!(
        speedup >= floor,
        "indexed Algorithm 1 must be >= {floor:.1}x faster than the probe-based \
         reference on the largest store; measured {speedup:.2}x"
    );
    println!("PASS: speedup floor met");
}
