//! Decode-scaling microbench for the wire protocol's JSON parser.
//!
//! Decodes `Request::Check` frames of 8, 32 and 128 paragraphs of about
//! 380 bytes each (see [`decode`]) and writes every repeat's ns/byte,
//! with the median and quartiles, to `BENCH_decode.json` at the repo
//! root.
//!
//! The gate: the median ns/byte at 128 paragraphs is at most [`CEILING`]
//! times the median at 8. A decoder that is linear in frame size holds
//! the ratio near 1 on any host; one that re-scans the rest of the input
//! per character grows it with the frame (about 10x).

use browserflow_bench::{decode, host_cores, print_header, report};
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    ceiling: f64,
    scaling: f64,
    sizes: Vec<decode::SizeResult>,
}

/// Largest allowed ratio of ns/byte at 128 paragraphs over 8.
const CEILING: f64 = 2.0;

fn main() {
    print_header(
        "Wire decode scaling: serde_json::from_slice::<Request> on Check frames",
        &format!(
            "{} timed repeats per size after one warm-up, sizes interleaved; host_cores = {}",
            decode::REPEATS,
            host_cores()
        ),
    );
    let sizes = decode::run();
    println!(
        "{:>11} {:>12} {:>11} {:>11} {:>9} {:>9}",
        "paragraphs", "frame_bytes", "iterations", "median_ns/B", "p25", "p75"
    );
    for r in &sizes {
        println!(
            "{:>11} {:>12} {:>11} {:>11.2} {:>9.2} {:>9.2}",
            r.paragraphs,
            r.frame_bytes,
            r.iterations,
            r.median_ns_per_byte,
            r.p25_ns_per_byte,
            r.p75_ns_per_byte
        );
    }

    let (smallest, largest) = (&sizes[0], &sizes[sizes.len() - 1]);
    let scaling = largest.median_ns_per_byte / smallest.median_ns_per_byte;
    let (small_n, large_n) = (smallest.paragraphs, largest.paragraphs);
    report::write(
        "decode",
        "serde_json::from_slice::<Request> on one Request::Check frame body per size, \
         decoded `iterations` times per repeat; ns_per_byte lists every timed repeat in \
         run order (one untimed warm-up first; each round times every size once), quartiles as Python's \
         statistics.quantiles(n=4); scaling = median ns/byte at the largest size over \
         the smallest, the CI-gated figure",
        &Report {
            ceiling: CEILING,
            scaling,
            sizes,
        },
    );

    println!(
        "\ndecode ns/byte at {large_n} paragraphs is {scaling:.2}x the value at \
         {small_n} (ceiling {CEILING:.1}x)"
    );
    assert!(
        scaling <= CEILING,
        "JSON decode must stay linear: ns/byte at {large_n} paragraphs may be at most \
         {CEILING:.1}x the value at {small_n}; measured {scaling:.2}x"
    );
}
