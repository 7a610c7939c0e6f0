//! Shared helpers for the experiment binaries and the `bench_*` micro-benches.
//!
//! Every table and figure of the paper's evaluation (§6) has a binary in
//! `src/bin` that regenerates it:
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Table 1 (dataset inventory) |
//! | `fig08`  | Figure 8 (CDF of article-length change) |
//! | `fig09`  | Figure 9a/9b (paragraph disclosure across Wikipedia revisions) |
//! | `fig10`  | Figure 10a–d (manual chapters vs ground truth) |
//! | `fig11`  | Figure 11 (impact of the paragraph disclosure threshold) |
//! | `fig12`  | Figure 12 (response-time CDF for three editing workflows) |
//! | `fig13`  | Figure 13 (response time vs hash-database size) |
//!
//! Each binary prints a self-describing table to stdout. Scale is
//! controlled by the `BF_SCALE` environment variable: `small` (default,
//! laptop-friendly) or `paper` (the sizes reported in the paper — the
//! e-book corpus then reaches ~10 M distinct hashes and takes several
//! minutes to load).

use browserflow_corpus::datasets::{EbooksConfig, WikipediaConfig};
use browserflow_fingerprint::{Fingerprint, Fingerprinter};
use browserflow_store::disclosure_between;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-friendly sizes; shapes match the paper, absolute counts are
    /// smaller.
    Small,
    /// The paper's dataset sizes.
    Paper,
}

impl Scale {
    /// Reads `BF_SCALE` from the environment (`paper` or `small`).
    pub fn from_env() -> Self {
        match std::env::var("BF_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Small,
        }
    }

    /// The Wikipedia dataset configuration at this scale.
    pub fn wikipedia(&self) -> WikipediaConfig {
        match self {
            Scale::Small => WikipediaConfig {
                articles: 8,
                revisions: 100,
                paragraphs: 20,
                sentences: 4,
                high_churn_fraction: 0.5,
            },
            Scale::Paper => WikipediaConfig::paper_scale(),
        }
    }

    /// The e-books dataset configuration at this scale.
    pub fn ebooks(&self) -> EbooksConfig {
        match self {
            Scale::Small => EbooksConfig {
                books: 12,
                min_bytes: 30_000,
                max_bytes: 120_000,
                size_skew: 1,
            },
            Scale::Paper => EbooksConfig::paper_scale(),
        }
    }
}

/// The evaluation's fingerprint configuration (§6.1): 32-bit hashes over
/// 15-character n-grams, window 30.
pub fn paper_fingerprinter() -> Fingerprinter {
    Fingerprinter::default()
}

/// Fraction of `base_paragraphs` that `revision_print` discloses at
/// threshold `tpar`, ignoring paragraphs whose fingerprint is empty
/// (§6.1 excludes them as systematic errors).
///
/// This is the per-revision quantity plotted in Figures 9 and 10: for a
/// base paragraph `Ap` and revision document `B`, disclosure is
/// `Dpar(Ap, B) = |F(Ap) ∩ F(B)| / |F(Ap)| ≥ Tpar`.
pub fn disclosed_fraction(
    base_paragraphs: &[Fingerprint],
    revision_print: &Fingerprint,
    tpar: f64,
) -> f64 {
    let revision_hashes = revision_print.hash_set();
    let mut considered = 0usize;
    let mut disclosed = 0usize;
    for paragraph in base_paragraphs {
        let hashes = paragraph.hash_set();
        if hashes.is_empty() {
            continue;
        }
        considered += 1;
        let d = disclosure_between(&hashes, &revision_hashes);
        if d >= tpar && d > 0.0 {
            disclosed += 1;
        }
    }
    if considered == 0 {
        return 0.0;
    }
    disclosed as f64 / considered as f64
}

/// Indices of base paragraphs disclosed by `revision_print` at `tpar`
/// (same rules as [`disclosed_fraction`]; empty-fingerprint paragraphs are
/// never reported).
pub fn disclosed_indices(
    base_paragraphs: &[Fingerprint],
    revision_print: &Fingerprint,
    tpar: f64,
) -> Vec<usize> {
    let revision_hashes = revision_print.hash_set();
    base_paragraphs
        .iter()
        .enumerate()
        .filter(|(_, p)| {
            let hashes = p.hash_set();
            if hashes.is_empty() {
                return false;
            }
            let d = disclosure_between(&hashes, &revision_hashes);
            d >= tpar && d > 0.0
        })
        .map(|(i, _)| i)
        .collect()
}

/// Prints a horizontal rule and a titled header for experiment output.
pub fn print_header(title: &str, detail: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    if !detail.is_empty() {
        println!("{detail}");
    }
    println!("{}", "=".repeat(72));
}

/// The host's core count as seen by `std::thread::available_parallelism`.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Prints a one-line warning when the host has a single core: the
/// asynchronous decider's worker then shares that core with the thread
/// submitting to it (fig12, fig13 and the `async_batch_roundtrip` entry of
/// `BENCH_concurrent.json`), and Algorithm 1's candidate fan-out has no
/// second core to spread over, so those timings reflect the hardware
/// rather than the implementation.
pub fn warn_if_single_core() {
    if host_cores() == 1 {
        eprintln!(
            "warning: single-core host; worker threads share one core — async and \
             fan-out timings reflect the hardware, not the implementation"
        );
    }
}

/// The gate floor `name` overrides from the environment, or `default`
/// when it is unset.
///
/// Panics, naming the variable, when it is set to anything but a finite
/// number: a typo such as `BF_INGEST_FLOOR=3x` must fail the run, not
/// silently gate at the default.
pub fn env_floor(name: &str, default: f64) -> f64 {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Ok(raw) => parse_floor(name, &raw),
        Err(e) => panic!("{name}: {e}"),
    }
}

fn parse_floor(name: &str, raw: &str) -> f64 {
    match raw.trim().parse::<f64>() {
        Ok(floor) if floor.is_finite() => floor,
        _ => panic!("{name}={raw:?} is not a finite number; unset it to gate at the default"),
    }
}

/// The one writer behind every `BENCH_<bench>.json` the micro-benches emit.
pub mod report {
    use serde::content::{to_content, Content};
    use serde::Serialize;
    use std::path::Path;
    use std::process::{Command, Stdio};

    /// Writes `BENCH_<bench>.json` at the repository root: a header with
    /// `bench`, `commit`, `host_cores`, the fingerprint `kernel` dispatch
    /// runs (`scalar` under `BF_FORCE_SCALAR`) and `note`, followed by
    /// `body`'s fields.
    ///
    /// Panics when the report cannot be rendered (a non-finite float) or
    /// written, so a bench never exits 0 beside a stale checked-in file.
    pub fn write(bench: &str, note: &str, body: &impl Serialize) {
        let json = render(bench, note, body);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/bench sits two levels below the repository root")
            .join(format!("BENCH_{bench}.json"));
        std::fs::write(&path, json)
            .unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }

    fn render(bench: &str, note: &str, body: &impl Serialize) -> String {
        let mut entries = vec![
            ("bench".to_string(), Content::Str(bench.to_string())),
            ("commit".to_string(), Content::Str(commit())),
            (
                "host_cores".to_string(),
                Content::U64(super::host_cores() as u64),
            ),
            (
                "kernel".to_string(),
                Content::Str(browserflow_fingerprint::active_kernel().name().to_string()),
            ),
            ("note".to_string(), Content::Str(note.to_string())),
        ];
        let Ok(Content::Map(fields)) = to_content(body) else {
            panic!("BENCH_{bench}.json body must serialise to an object");
        };
        entries.extend(fields);
        let mut json = serde_json::to_string_pretty(&Content::Map(entries))
            .unwrap_or_else(|e| panic!("BENCH_{bench}.json does not render: {e}"));
        json.push('\n');
        json
    }

    /// `git rev-parse --short HEAD`, or `unknown` outside a git checkout.
    fn commit() -> String {
        Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    }

    #[cfg(test)]
    mod tests {
        use super::render;
        use serde::Serialize;

        #[derive(Serialize)]
        struct Body {
            ratio: f64,
        }

        #[test]
        fn header_precedes_body_fields() {
            let json = render("unit", "a note", &Body { ratio: 2.5 });
            let keys: Vec<&str> = json
                .lines()
                .filter_map(|line| line.trim().strip_prefix('"')?.split('"').next())
                .collect();
            assert_eq!(
                keys,
                ["bench", "commit", "host_cores", "kernel", "note", "ratio"]
            );
            assert!(json.contains("\"kernel\": \""), "{json}");
        }

        #[test]
        #[should_panic(expected = "BENCH_unit.json does not render")]
        fn non_finite_floats_fail_the_report() {
            render("unit", "", &Body { ratio: f64::NAN });
        }
    }
}

/// Old-vs-new microbench for Algorithm 1's candidate evaluation.
///
/// Builds synthetic stores at several paragraph counts and times one
/// document-wide disclosure check two ways over identical data: the
/// pre-index reference ([`browserflow_store::probe_disclosing_sources`],
/// which derives each candidate's authoritative set by probing `DBhash`
/// once per stored hash) against the production path (incrementally
/// maintained authoritative index + sorted-slice intersection kernel).
///
/// The synthetic corpus models the paper's accidental-disclosure setting:
/// every paragraph carries [`OWN_HASHES`] hashes of its own plus
/// [`SHARED_HASHES`] hashes drawn from a common boilerplate pool whose
/// authoritative owners are the oldest paragraphs. The shared tail is what
/// the pre-index path pays for — it probes `DBhash` for *every* stored
/// hash of every candidate — while the indexed path intersects only the
/// (smaller) authoritative sets.
pub mod algorithm1 {
    use browserflow_fingerprint::{Fingerprint, SelectedHash};
    use browserflow_store::{probe_disclosing_sources, FingerprintStore, SegmentId};
    use serde::Serialize;
    use std::collections::HashSet;
    use std::time::Instant;

    /// Store sizes (paragraph counts) the microbench sweeps.
    pub const STORE_SIZES: &[usize] = &[1_500, 15_000, 150_000];
    /// Hashes unique to each paragraph.
    pub const OWN_HASHES: usize = 48;
    /// Hashes each paragraph draws from the shared boilerplate pool.
    pub const SHARED_HASHES: usize = 144;
    /// Size of the shared boilerplate pool.
    const POOL: usize = 4_096;
    /// Paragraphs sampled into the document-wide target check.
    pub const TARGET_SOURCES: usize = 200;
    /// Own-hashes each sampled paragraph contributes to the target: the
    /// document quotes a quarter of each source, the partial-overlap shape
    /// §4.3's threshold test exists for.
    pub const TARGET_HASHES_PER_SOURCE: usize = 12;
    /// Observation threshold; 0.25 of each source is quoted, so 0.2 keeps
    /// every sampled source reporting.
    const THRESHOLD: f64 = 0.2;
    /// Measured passes per implementation (best-of, after one warm-up).
    const ROUNDS: usize = 3;

    /// One store size's old-vs-new comparison.
    #[derive(Debug, Clone, Copy, Serialize)]
    pub struct SizeResult {
        /// Paragraphs stored.
        pub paragraphs: usize,
        /// Distinct hashes in the target document.
        pub target_hashes: usize,
        /// Sources both implementations report.
        pub reports: usize,
        /// Best-of-[`ROUNDS`] wall time of the probe-based reference, ms.
        pub probe_ms: f64,
        /// Best-of-[`ROUNDS`] wall time of the indexed production path, ms.
        pub indexed_ms: f64,
        /// probe/indexed wall-time ratio.
        pub speedup: f64,
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn pool_hash(k: usize) -> u32 {
        (splitmix64(0x00B0_11E4_0000 + k as u64) >> 32) as u32
    }

    fn own_hash(paragraph: usize, j: usize) -> u32 {
        (splitmix64(paragraph as u64 * 1_000_003 + j as u64) >> 32) as u32
    }

    /// The synthetic fingerprint of one paragraph: its own hashes plus a
    /// paragraph-dependent slice of the boilerplate pool.
    fn paragraph_fingerprint(paragraph: usize) -> Fingerprint {
        let mut entries = Vec::with_capacity(OWN_HASHES + SHARED_HASHES);
        for j in 0..OWN_HASHES {
            entries.push(SelectedHash::new(own_hash(paragraph, j), j, j..j + 15));
        }
        for k in 0..SHARED_HASHES {
            let pos = OWN_HASHES + k;
            let pool_index = (paragraph.wrapping_mul(7) + k.wrapping_mul(13)) % POOL;
            entries.push(SelectedHash::new(pool_hash(pool_index), pos, pos..pos + 15));
        }
        Fingerprint::from_entries(entries)
    }

    /// The synthetic fingerprints of paragraphs `0..paragraphs`, in id
    /// order (the corpus [`build_store`] observes, materialised for
    /// callers that need the same fingerprints more than once).
    pub fn paragraph_fingerprints(paragraphs: usize) -> Vec<Fingerprint> {
        (0..paragraphs).map(paragraph_fingerprint).collect()
    }

    /// The corpus's observation threshold (what [`build_store`] passes).
    pub const fn threshold() -> f64 {
        THRESHOLD
    }

    /// Builds the store: `paragraphs` observations at threshold 0.5, in
    /// id order, so pool hashes are authoritative to the oldest holders.
    pub fn build_store(paragraphs: usize) -> FingerprintStore {
        let store = FingerprintStore::new();
        for i in 0..paragraphs {
            store.observe(
                SegmentId::new(i as u64),
                &paragraph_fingerprint(i),
                THRESHOLD,
            );
        }
        store
    }

    /// The target document's hash set: [`TARGET_HASHES_PER_SOURCE`]
    /// own-hashes from each of [`TARGET_SOURCES`] paragraphs sampled
    /// evenly across the store — a document quoting part of many stored
    /// sources at once, so candidate evaluation (not discovery) is the
    /// dominant cost.
    pub fn target_hashes(paragraphs: usize) -> HashSet<u32> {
        let step = (paragraphs / TARGET_SOURCES).max(1);
        let mut hashes = HashSet::new();
        for source in (0..paragraphs).step_by(step).take(TARGET_SOURCES) {
            for j in 0..TARGET_HASHES_PER_SOURCE {
                hashes.insert(own_hash(source, j));
            }
        }
        hashes
    }

    /// Runs one store size: builds the store, then times the probe-based
    /// reference against the indexed path on the identical check, keeping
    /// the best of [`ROUNDS`] passes each. Panics if the two
    /// implementations ever disagree on the reports.
    pub fn run_size(paragraphs: usize) -> SizeResult {
        let store = build_store(paragraphs);
        let target = target_hashes(paragraphs);
        let target_id = SegmentId::new(u64::MAX);

        let best_of = |f: &dyn Fn() -> f64| {
            f(); // warm-up
            (0..ROUNDS).map(|_| f()).fold(f64::INFINITY, f64::min)
        };

        let probe_reports = probe_disclosing_sources(&store, target_id, &target);
        let indexed_reports = store.disclosing_sources_of_hashes(target_id, &target);
        assert_eq!(
            probe_reports, indexed_reports,
            "probe and indexed implementations must agree"
        );

        let probe_ms = best_of(&|| {
            let start = Instant::now();
            std::hint::black_box(probe_disclosing_sources(&store, target_id, &target));
            start.elapsed().as_secs_f64() * 1e3
        });
        let indexed_ms = best_of(&|| {
            let start = Instant::now();
            std::hint::black_box(store.disclosing_sources_of_hashes(target_id, &target));
            start.elapsed().as_secs_f64() * 1e3
        });

        SizeResult {
            paragraphs,
            target_hashes: target.len(),
            reports: indexed_reports.len(),
            probe_ms,
            indexed_ms,
            speedup: probe_ms / indexed_ms,
        }
    }

    /// Sweeps `sizes` (use [`STORE_SIZES`]) and returns one result each.
    pub fn run(sizes: &[usize]) -> Vec<SizeResult> {
        sizes.iter().map(|&n| run_size(n)).collect()
    }
}

/// Bulk-ingest microbench: the per-paragraph `observe` loop against one
/// [`FingerprintStore::observe_batch`] call over the same corpus.
///
/// Reuses [`algorithm1`]'s synthetic corpus so the hash distribution
/// (own hashes plus a shared boilerplate pool) matches the rest of the
/// evaluation. Each pass ingests into a fresh store; the batched store is
/// asserted observation-equivalent to the sequential one (same clock,
/// same sighting count, same segment count, same disclosure reports on
/// the Algorithm 1 target) before any timing is reported.
///
/// Two metrics come out per store size:
///
/// - wall time (best-of after a warm-up), where the batched path's win is
///   host-dependent — on a single core both paths are bound by the same
///   per-hash map work, so expect parity there and real wins only with
///   cores to spread stripes over;
/// - stripe lock round-trips, where the win is *deterministic*: every
///   `observe_batch` call pays one round-trip per touched stripe, so the
///   per-paragraph loop pays up to one `DBhash` round-trip per stripe
///   plus one `DBpar` round-trip for every paragraph, while the single
///   batch pays each stripe once. Both sides are read from the store's
///   `batch_lock_acquisitions` counter. This is the ratio the CI floor
///   gates.
pub mod ingest {
    use super::algorithm1;
    use browserflow_fingerprint::Fingerprint;
    use browserflow_store::{FingerprintStore, SegmentId};
    use serde::Serialize;
    use std::time::Instant;

    /// Measured passes per implementation (best-of, after one warm-up).
    const ROUNDS: usize = 3;

    /// One store size's per-paragraph vs batched comparison.
    #[derive(Debug, Clone, Copy, Serialize)]
    pub struct SizeResult {
        /// Paragraphs ingested per pass.
        pub paragraphs: usize,
        /// First-sighting records each pass writes.
        pub hashes_recorded: u64,
        /// Best-of wall time of the per-paragraph `observe` loop, ms.
        pub per_paragraph_ms: f64,
        /// Best-of wall time of one `observe_batch` call, ms.
        pub batched_ms: f64,
        /// Wall-time ratio (>1 means batched is faster).
        pub wall_speedup: f64,
        /// Stripe lock round-trips the per-paragraph loop paid (measured
        /// via the store's `batch_lock_acquisitions` counter).
        pub per_paragraph_locks: u64,
        /// Stripe lock round-trips the batched pass paid (measured via
        /// the store's `batch_lock_acquisitions` counter).
        pub batched_locks: u64,
        /// Lock round-trip ratio (>1 means batched takes fewer).
        pub lock_reduction: f64,
    }

    fn sequential_pass(prints: &[Fingerprint]) -> (FingerprintStore, f64) {
        let store = FingerprintStore::new();
        let start = Instant::now();
        for (i, print) in prints.iter().enumerate() {
            store.observe(SegmentId::new(i as u64), print, algorithm1::threshold());
        }
        (store, start.elapsed().as_secs_f64() * 1e3)
    }

    fn batched_pass(prints: &[Fingerprint]) -> (FingerprintStore, f64) {
        let store = FingerprintStore::new();
        let entries: Vec<(SegmentId, &Fingerprint, f64)> = prints
            .iter()
            .enumerate()
            .map(|(i, print)| (SegmentId::new(i as u64), print, algorithm1::threshold()))
            .collect();
        let start = Instant::now();
        store.observe_batch(&entries);
        (store, start.elapsed().as_secs_f64() * 1e3)
    }

    fn assert_equivalent(batched: &FingerprintStore, sequential: &FingerprintStore, n: usize) {
        assert_eq!(batched.now(), sequential.now(), "clock advance differs");
        let b = batched.stats();
        let s = sequential.stats();
        assert_eq!(b.total_hashes(), s.total_hashes(), "DBhash size differs");
        assert_eq!(b.total_entries(), s.total_entries(), "DBpar size differs");
        let target = algorithm1::target_hashes(n);
        let target_id = SegmentId::new(u64::MAX);
        assert_eq!(
            batched.disclosing_sources_of_hashes(target_id, &target),
            sequential.disclosing_sources_of_hashes(target_id, &target),
            "disclosure reports differ between batched and sequential ingest"
        );
    }

    /// Runs one store size; panics if batched ingest is not
    /// observation-equivalent to the sequential loop.
    pub fn run_size(paragraphs: usize) -> SizeResult {
        let prints = algorithm1::paragraph_fingerprints(paragraphs);
        let hashes_recorded: u64 = prints
            .iter()
            .map(|p| p.distinct_hashes().len() as u64)
            .sum();

        // Warm-up pass of each shape, with the equivalence check on the
        // warm-up stores (every later pass repeats identical work).
        let (sequential_store, _) = sequential_pass(&prints);
        let (batched_store, _) = batched_pass(&prints);
        assert_equivalent(&batched_store, &sequential_store, paragraphs);
        let per_paragraph_locks = sequential_store.stats().batch_lock_acquisitions;
        let batched_locks = batched_store.stats().batch_lock_acquisitions;
        drop(sequential_store);
        drop(batched_store);

        let mut per_paragraph_ms = f64::INFINITY;
        let mut batched_ms = f64::INFINITY;
        for _ in 0..ROUNDS {
            per_paragraph_ms = per_paragraph_ms.min(sequential_pass(&prints).1);
            batched_ms = batched_ms.min(batched_pass(&prints).1);
        }

        SizeResult {
            paragraphs,
            hashes_recorded,
            per_paragraph_ms,
            batched_ms,
            wall_speedup: per_paragraph_ms / batched_ms,
            per_paragraph_locks,
            batched_locks,
            lock_reduction: per_paragraph_locks as f64 / batched_locks as f64,
        }
    }

    /// Sweeps `sizes` (use [`algorithm1::STORE_SIZES`]).
    pub fn run(sizes: &[usize]) -> Vec<SizeResult> {
        sizes.iter().map(|&n| run_size(n)).collect()
    }
}

/// Restart-latency microbench for the tiered persistence redesign.
///
/// Persists one synthetic store (reusing [`algorithm1`]'s corpus) twice —
/// as a plain v2 directory and as a v3 cold-shard directory — then times
/// what a daemon restart actually pays two ways: the open alone, and the
/// open plus the first document-wide disclosure check. The v2 path decodes
/// every record into the hot tier; the v3 path validates headers and CRCs
/// and maps the shard files in place ([`TierMode::Cold`]), so its open
/// cost is checksum-bound rather than decode-bound.
///
/// Every run also asserts that the cold store's disclosure reports are
/// identical to the in-memory reference the files were persisted from —
/// the speedup is only meaningful if the mapped tier answers exactly like
/// the decoded one.
pub mod tiered {
    use super::algorithm1;
    use browserflow_store::{
        FingerprintStore, PersistOptions, SegmentId, StoreFormat, StoreOpenOptions, TierMode,
    };
    use serde::Serialize;
    use std::path::{Path, PathBuf};
    use std::time::Instant;

    /// Measured passes per open path (best-of, after one warm-up).
    const ROUNDS: usize = 3;

    /// One store size's v2-decode vs v3-map restart comparison. The
    /// `cold_*` and `shard_count` fields come from the cold-opened store's
    /// stats: how much of the snapshot is served from mapped files.
    #[derive(Debug, Clone, Copy, Serialize)]
    pub struct SizeResult {
        /// Paragraphs persisted.
        pub paragraphs: usize,
        /// Best-of-[`ROUNDS`] full-decode open of the v2 directory, ms.
        pub v2_open_ms: f64,
        /// Best-of-[`ROUNDS`] cold (mapped) open of the v3 directory, ms.
        pub cold_open_ms: f64,
        /// v2-decode / v3-map open-time ratio — the CI-gated number.
        pub open_speedup: f64,
        /// v2 open plus first document-wide check, ms (best-of).
        pub v2_first_check_ms: f64,
        /// Cold open plus first document-wide check, ms (best-of).
        pub cold_first_check_ms: f64,
        /// Restart-to-first-verdict ratio (open + first check).
        pub first_check_speedup: f64,
        /// Sources the check reports (identical hot and cold, asserted).
        pub reports: usize,
        /// Shards served cold.
        pub cold_shards: usize,
        /// Shards in the store.
        pub shard_count: usize,
        /// Cold shards backed by a memory map.
        pub cold_mapped_shards: usize,
        /// Segments served from cold shards.
        pub cold_segments: usize,
        /// Sightings served from cold shards.
        pub cold_sightings: usize,
    }

    /// A scratch directory under the system temp dir, unique per process.
    pub fn scratch_dir() -> PathBuf {
        std::env::temp_dir().join(format!("bf-bench-tiered-{}", std::process::id()))
    }

    fn timed_ms(f: &dyn Fn()) -> f64 {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64() * 1e3
    }

    fn best_of(f: &dyn Fn()) -> f64 {
        f(); // warm-up (page cache, allocator)
        (0..ROUNDS)
            .map(|_| timed_ms(f))
            .fold(f64::INFINITY, f64::min)
    }

    /// Runs one store size: builds the corpus, persists it v2 and v3 under
    /// `scratch`, asserts cold/hot report equivalence, then times the four
    /// restart paths. Panics on any persistence or equivalence failure.
    pub fn run_size(paragraphs: usize, scratch: &Path) -> SizeResult {
        let store = algorithm1::build_store(paragraphs);
        let target = algorithm1::target_hashes(paragraphs);
        let target_id = SegmentId::new(u64::MAX);
        let expected = store.disclosing_sources_of_hashes(target_id, &target);

        let v2_dir = scratch.join(format!("v2-{paragraphs}"));
        let v3_dir = scratch.join(format!("v3-{paragraphs}"));
        PersistOptions::new()
            .persist(&store, &v2_dir)
            .expect("persist v2 snapshot");
        PersistOptions::new()
            .format(StoreFormat::V3)
            .persist(&store, &v3_dir)
            .expect("persist v3 snapshot");
        drop(store);

        let open_v2 = || -> FingerprintStore {
            StoreOpenOptions::new()
                .open(&v2_dir)
                .expect("open v2 snapshot")
                .0
        };
        let open_cold = || -> FingerprintStore {
            StoreOpenOptions::new()
                .tier(TierMode::Cold)
                .open(&v3_dir)
                .expect("cold-open v3 snapshot")
                .0
        };

        // Equivalence gate: the mapped tier must answer exactly like the
        // decoded reference before any of its timings count.
        let cold = open_cold();
        let cold_reports = cold.disclosing_sources_of_hashes(target_id, &target);
        assert_eq!(
            expected, cold_reports,
            "cold-tier disclosure reports must match the hot reference"
        );
        let cold_stats = cold.stats();
        assert!(
            cold_stats.cold_shards > 0,
            "v3 cold open must serve at least one mapped shard"
        );
        drop(cold);

        let v2_open_ms = best_of(&|| {
            std::hint::black_box(open_v2().segment_count());
        });
        let cold_open_ms = best_of(&|| {
            std::hint::black_box(open_cold().segment_count());
        });
        let v2_first_check_ms = best_of(&|| {
            let store = open_v2();
            std::hint::black_box(store.disclosing_sources_of_hashes(target_id, &target));
        });
        let cold_first_check_ms = best_of(&|| {
            let store = open_cold();
            std::hint::black_box(store.disclosing_sources_of_hashes(target_id, &target));
        });

        let _ = std::fs::remove_dir_all(&v2_dir);
        let _ = std::fs::remove_dir_all(&v3_dir);

        SizeResult {
            paragraphs,
            v2_open_ms,
            cold_open_ms,
            open_speedup: v2_open_ms / cold_open_ms,
            v2_first_check_ms,
            cold_first_check_ms,
            first_check_speedup: v2_first_check_ms / cold_first_check_ms,
            reports: expected.len(),
            cold_shards: cold_stats.cold_shards,
            shard_count: cold_stats.shard_count,
            cold_mapped_shards: cold_stats.cold_mapped_shards,
            cold_segments: cold_stats.cold_segments,
            cold_sightings: cold_stats.cold_sightings,
        }
    }

    /// Sweeps `sizes` (use [`algorithm1::STORE_SIZES`]) under one scratch
    /// directory, removing it afterwards.
    pub fn run(sizes: &[usize]) -> Vec<SizeResult> {
        let scratch = scratch_dir();
        std::fs::create_dir_all(&scratch).expect("create bench scratch dir");
        let results = sizes.iter().map(|&n| run_size(n, &scratch)).collect();
        let _ = std::fs::remove_dir_all(&scratch);
        results
    }
}

/// Decode-scaling microbench for the wire protocol's JSON parser.
///
/// Builds one `Request::Check` frame body per size — [`PARAGRAPH_COUNTS`]
/// paragraphs of about [`PARAGRAPH_BYTES`] bytes each, the shape of a
/// pre-upload sweep — and times `serde_json::from_slice::<Request>` on it
/// the way the daemon decodes every request. A linear decoder spends the
/// same time per byte at every size; the gated figure is the ratio of the
/// largest size's median ns/byte to the smallest's.
pub mod decode {
    use browserflow_daemon::{ParagraphSlot, Request};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use serde::Serialize;
    use std::hint::black_box;
    use std::time::Instant;

    /// Paragraph counts per frame, smallest first.
    pub const PARAGRAPH_COUNTS: &[usize] = &[8, 32, 128];
    /// Approximate length of one paragraph, bytes.
    pub const PARAGRAPH_BYTES: usize = 380;
    /// Timed repeats per size (after one warm-up).
    pub const REPEATS: usize = 7;
    /// Frame bytes each repeat decodes, summed over its iterations.
    const BYTES_PER_REPEAT: usize = 2 << 20;

    /// Mostly plain words, like the text `bfd` sees; a few carry
    /// non-ASCII characters and one needs an escape.
    const VOCABULARY: &str = "the candidate interview panel rated design review notes \
        confidential quarterly Zürich naïve score follow-up data flow upload draft budget \
        hiring committee \"quoted\" salary offer";

    /// One size's timings: every repeat's ns/byte and their spread.
    #[derive(Debug, Clone, Serialize)]
    pub struct SizeResult {
        /// Paragraphs in the frame.
        pub paragraphs: usize,
        /// Frame body length, bytes.
        pub frame_bytes: usize,
        /// Decodes per repeat.
        pub iterations: usize,
        /// ns per frame byte of every repeat, in run order.
        pub ns_per_byte: Vec<f64>,
        /// Median of `ns_per_byte`.
        pub median_ns_per_byte: f64,
        /// Lower quartile of `ns_per_byte`.
        pub p25_ns_per_byte: f64,
        /// Upper quartile of `ns_per_byte`.
        pub p75_ns_per_byte: f64,
    }

    /// `count` paragraphs of about [`PARAGRAPH_BYTES`] bytes, drawn from
    /// a fixed seed so every run decodes the same frames.
    pub fn paragraphs(count: usize) -> Vec<ParagraphSlot> {
        let words: Vec<&str> = VOCABULARY.split(' ').collect();
        let mut rng = StdRng::seed_from_u64(0xDEC0DE);
        (0..count)
            .map(|index| {
                let mut text = String::new();
                while text.len() < PARAGRAPH_BYTES {
                    if !text.is_empty() {
                        text.push(' ');
                    }
                    text.push_str(words[rng.gen_range(0..words.len())]);
                }
                ParagraphSlot { index, text }
            })
            .collect()
    }

    /// The request a pre-upload sweep of `paragraphs` paragraphs sends.
    pub fn check_request(paragraphs: usize) -> Request {
        Request::Check {
            tenant: "bench".into(),
            service: "gdocs".into(),
            document: "draft".into(),
            paragraphs: self::paragraphs(paragraphs),
        }
    }

    /// Quartiles the way Python's `statistics.quantiles(n=4)` computes
    /// them (the `benchmark` harness's convention): `(p25, median, p75)`.
    pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        assert!(n >= 2, "quartiles need at least two values");
        let cut = |i: usize| {
            let m = i * (n + 1);
            let j = (m / 4).clamp(1, n - 1);
            let delta = m as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        (cut(1), cut(2), cut(3))
    }

    /// Times every size of [`PARAGRAPH_COUNTS`], one repeat of each size
    /// in turn, so a burst of host noise lands on all sizes alike rather
    /// than on one size's block of repeats. Panics if a frame does not
    /// decode back to the request it was encoded from.
    pub fn run() -> Vec<SizeResult> {
        let frames: Vec<(usize, Vec<u8>, usize)> = PARAGRAPH_COUNTS
            .iter()
            .map(|&paragraphs| {
                let request = check_request(paragraphs);
                let body = serde_json::to_vec(&request).expect("request encodes");
                let decoded: Request = serde_json::from_slice(&body).expect("frame decodes");
                assert_eq!(decoded, request, "decode must round-trip the frame");
                let iterations = (BYTES_PER_REPEAT / body.len()).max(3);
                (paragraphs, body, iterations)
            })
            .collect();
        let mut timings = vec![Vec::with_capacity(REPEATS); frames.len()];
        for repeat in 0..=REPEATS {
            for ((_, body, iterations), ns_per_byte) in frames.iter().zip(&mut timings) {
                let start = Instant::now();
                for _ in 0..*iterations {
                    let request: Request =
                        serde_json::from_slice(black_box(body)).expect("frame decodes");
                    black_box(request);
                }
                // Repeat 0 is the warm-up.
                if repeat > 0 {
                    ns_per_byte
                        .push(start.elapsed().as_nanos() as f64 / (iterations * body.len()) as f64);
                }
            }
        }
        frames
            .into_iter()
            .zip(timings)
            .map(|((paragraphs, body, iterations), ns_per_byte)| {
                let (p25, median, p75) = quartiles(&ns_per_byte);
                SizeResult {
                    paragraphs,
                    frame_bytes: body.len(),
                    iterations,
                    ns_per_byte,
                    median_ns_per_byte: median,
                    p25_ns_per_byte: p25,
                    p75_ns_per_byte: p75,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_small() {
        // Note: avoid mutating the environment in tests; just check the
        // default path when BF_SCALE is unset or unrecognised.
        if std::env::var("BF_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Small);
        }
        assert!(Scale::Small.wikipedia().articles <= Scale::Paper.wikipedia().articles);
        assert!(Scale::Small.ebooks().books <= Scale::Paper.ebooks().books);
    }

    #[test]
    fn env_floor_defaults_when_unset_and_parses_overrides() {
        assert_eq!(env_floor("BF_TEST_FLOOR_NEVER_SET", 3.0), 3.0);
        assert_eq!(parse_floor("BF_INGEST_FLOOR", "2.5"), 2.5);
        assert_eq!(parse_floor("BF_INGEST_FLOOR", " 4 "), 4.0);
    }

    #[test]
    #[should_panic(expected = "BF_INGEST_FLOOR=\"3x\"")]
    fn env_floor_rejects_a_typo() {
        parse_floor("BF_INGEST_FLOOR", "3x");
    }

    #[test]
    #[should_panic(expected = "BF_A1_FLOOR")]
    fn env_floor_rejects_non_finite_values() {
        parse_floor("BF_A1_FLOOR", "inf");
    }

    #[test]
    fn decode_frames_have_the_stated_shape() {
        let browserflow_daemon::Request::Check { paragraphs, .. } = decode::check_request(8) else {
            panic!("a check frame");
        };
        assert_eq!(paragraphs.len(), 8);
        for p in &paragraphs {
            assert!((decode::PARAGRAPH_BYTES..decode::PARAGRAPH_BYTES + 40).contains(&p.text.len()));
        }
        assert_eq!(
            paragraphs,
            decode::paragraphs(8),
            "frames are deterministic"
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(
            decode::quartiles(&[7.0, 1.0, 3.0, 2.0, 6.0, 5.0, 4.0]),
            (2.0, 4.0, 6.0)
        );
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(decode::quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(decode::quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
    }

    #[test]
    fn disclosed_fraction_full_and_none() {
        let fp = paper_fingerprinter();
        let text = "a reasonably long paragraph with enough characters to fingerprint well \
                    and then some more text to be safe";
        let base = vec![fp.fingerprint(text)];
        let same = fp.fingerprint(text);
        assert_eq!(disclosed_fraction(&base, &same, 0.5), 1.0);
        let other = fp.fingerprint(
            "totally different content about completely unrelated topics and words \
             that share nothing with the base paragraph at all",
        );
        assert_eq!(disclosed_fraction(&base, &other, 0.5), 0.0);
        assert_eq!(disclosed_indices(&base, &same, 0.5), vec![0]);
    }

    #[test]
    fn empty_fingerprints_are_ignored() {
        let fp = paper_fingerprinter();
        let base = vec![fp.fingerprint("tiny"), fp.fingerprint("also tiny")];
        let revision = fp.fingerprint("tiny");
        // All base paragraphs have empty fingerprints -> fraction 0, not NaN.
        assert_eq!(disclosed_fraction(&base, &revision, 0.0), 0.0);
    }
}
