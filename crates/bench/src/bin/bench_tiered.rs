//! Restart-latency microbench for the tiered persistence redesign.
//!
//! Sweeps the store sizes in [`algorithm1::STORE_SIZES`], persisting each
//! synthetic store as a plain v2 directory and as a v3 cold-shard
//! directory, then times a restart two ways per format: the open alone
//! (v2 full decode vs v3 checksum-validate-and-map) and the open plus the
//! first document-wide disclosure check. Asserts the CI cold-open speedup
//! floor on the largest store and writes `BENCH_tiered.json` at the repo
//! root.
//!
//! The floor defaults to 10.0x and can be overridden with `BF_TIER_FLOOR`
//! (e.g. for debug builds, where relative timings differ).

use browserflow_bench::{algorithm1, env_floor, host_cores, print_header, report, tiered};
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    sizes: Vec<tiered::SizeResult>,
}

fn main() {
    let floor = env_floor("BF_TIER_FLOOR", 10.0);

    print_header(
        "Tiered persistence: v2 full-decode open vs v3 cold (mapped) open",
        &format!(
            "restart cost per snapshot format over the Algorithm 1 corpus; host_cores = {}",
            host_cores()
        ),
    );
    println!(
        "{:>12} {:>11} {:>13} {:>9} {:>15} {:>17} {:>9}",
        "paragraphs",
        "v2_open_ms",
        "cold_open_ms",
        "speedup",
        "v2_first_chk_ms",
        "cold_first_chk_ms",
        "speedup"
    );

    let results = tiered::run(algorithm1::STORE_SIZES);
    for r in &results {
        println!(
            "{:>12} {:>11.3} {:>13.3} {:>8.2}x {:>15.3} {:>17.3} {:>8.2}x",
            r.paragraphs,
            r.v2_open_ms,
            r.cold_open_ms,
            r.open_speedup,
            r.v2_first_check_ms,
            r.cold_first_check_ms,
            r.first_check_speedup
        );
    }

    let largest = *results.last().expect("STORE_SIZES is non-empty");
    println!(
        "\nlargest store ({} paragraphs): {}/{} shards cold ({} mapped), \
         {} cold segments, {} cold sightings",
        largest.paragraphs,
        largest.cold_shards,
        largest.shard_count,
        largest.cold_mapped_shards,
        largest.cold_segments,
        largest.cold_sightings
    );
    let speedup = largest.open_speedup;
    println!(
        "largest store cold open: {speedup:.2}x faster than v2 full decode (floor {floor:.1}x)"
    );

    report::write(
        "tiered",
        "daemon-restart cost per snapshot format; 'v2_open' decodes every record into \
         the hot tier (StoreOpenOptions, TierMode::Hot), 'cold_open' validates v3 shard \
         headers and CRCs and maps the files in place (TierMode::Cold); \
         '*_first_check' adds one document-wide disclosure check on top of the open; \
         cold reports are asserted identical to the hot reference before timing",
        &Report { sizes: results },
    );

    assert!(
        speedup >= floor,
        "v3 cold open must be >= {floor:.1}x faster than v2 full decode on the \
         largest store; measured {speedup:.2}x"
    );
    println!("PASS: cold-open speedup floor met");
}
