//! Regenerates **BENCH_fingerprint.json**: per-keystroke disclosure-check
//! latency and heap-allocation counts for the full re-fingerprinting path
//! ([`DisclosureEngine::check_paragraph`]) versus the incremental edit path
//! ([`DisclosureEngine::apply_paragraph_edit`]), at paragraph sizes of
//! 256 / 1 k / 4 k / 16 k characters — with the full path measured twice,
//! once pinned to the scalar fingerprint kernel and once on the
//! runtime-detected SIMD kernel, plus a corpus bulk-ingest series
//! ([`DisclosureEngine::observe_paragraphs`]) under the same split.
//!
//! The binary installs a counting global allocator (the bench crate is the
//! one workspace member without `#![forbid(unsafe_code)]`), so
//! "allocations per check" is an exact count, not an estimate. The full
//! path re-normalises, re-hashes and re-winnows the whole paragraph per
//! keystroke; the incremental path splices the edit into engine-held
//! session state and re-processes only the `w + n - 1` dirty window, so
//! its cost is independent of paragraph length.
//!
//! Regression gates (CI):
//! - incremental ≥ 5x faster than the (SIMD) full path at 4 k chars;
//! - SIMD full path ≥ `BF_SIMD_FLOOR`x (default 2) faster than the
//!   scalar full path at 4 k and 16 k chars — skipped with a loud
//!   warning when the host has no SIMD kernel;
//! - the kernel the engine reports must match what each pass requested.
//!
//! Run with `--release`.

use browserflow::{DisclosureEngine, DocKey, EngineConfig, TextEdit};
use browserflow_bench::print_header;
use browserflow_corpus::TextGen;
use browserflow_fingerprint::{detected_kernel, force_scalar, KernelKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Paragraph lengths swept (characters).
const SIZES: [usize; 4] = [256, 1024, 4096, 16384];
/// Keystrokes measured per paragraph size.
const KEYSTROKES: usize = 160;
/// Library paragraphs indexed before measuring, so every check resolves
/// candidates against a populated store.
const LIBRARY_PARAGRAPHS: usize = 200;
/// Measurement passes per path; the fastest is reported.
const PASSES: usize = 3;
/// Corpus paragraphs ingested per bulk pass.
const BULK_PARAGRAPHS: usize = 600;
/// Sentences per bulk corpus paragraph (~500 chars each).
const BULK_SENTENCES: usize = 6;

/// Allocation ceiling per observed paragraph for both observe paths
/// (batched and single-call). The steady-state cost is the fingerprint's
/// output buffers plus the store's record inserts; a fresh
/// `FingerprintScratch` per call would blow well past this.
const OBSERVE_ALLOC_CEILING: u64 = 20;

/// Delegates to [`System`] and counts `alloc`/`realloc` calls.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout
// untouched; the counter is a relaxed atomic add and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// One measured series: mean latency and exact allocations per check.
#[derive(Debug, Clone, Copy)]
struct PathCost {
    us_per_check: f64,
    allocs_per_check: u64,
}

/// One row of the keystroke sweep.
struct SizeResult {
    paragraph_chars: usize,
    /// Full path pinned to the scalar kernel.
    full_scalar: PathCost,
    /// Full path on the native (runtime-detected) kernel.
    full: PathCost,
    incremental: PathCost,
}

impl SizeResult {
    fn speedup(&self) -> f64 {
        self.full.us_per_check / self.incremental.us_per_check
    }

    fn simd_speedup(&self) -> f64 {
        self.full_scalar.us_per_check / self.full.us_per_check
    }
}

/// The corpus bulk-ingest series (scalar vs native kernel).
struct BulkResult {
    paragraphs: usize,
    total_chars: usize,
    scalar_us_per_paragraph: f64,
    native_us_per_paragraph: f64,
    /// Exact allocations per paragraph of the batched observe path
    /// (`DisclosureEngine::observe_paragraphs`), native kernel.
    batched_allocs_per_paragraph: u64,
    /// Exact allocations per paragraph of the per-call observe path
    /// (`DisclosureEngine::observe_paragraph`), native kernel.
    single_allocs_per_paragraph: u64,
}

impl BulkResult {
    fn simd_speedup(&self) -> f64 {
        self.scalar_us_per_paragraph / self.native_us_per_paragraph
    }

    fn native_paragraphs_per_sec(&self) -> f64 {
        1e6 / self.native_us_per_paragraph
    }
}

/// Pins the fingerprint kernel and asserts the engine reports exactly the
/// kernel that was requested (the bench is CI's check that dispatch and
/// stats agree).
fn pin_kernel(engine: &DisclosureEngine, scalar: bool) {
    force_scalar(scalar);
    let requested = if scalar || scalar_env_forced() {
        KernelKind::Scalar
    } else {
        detected_kernel()
    };
    let reported = engine.fingerprint_kernel();
    assert_eq!(
        reported, requested,
        "engine reports kernel {reported} but the bench requested {requested}"
    );
}

/// Whether `BF_FORCE_SCALAR` pinned the whole process to scalar.
fn scalar_env_forced() -> bool {
    std::env::var("BF_FORCE_SCALAR").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Deterministic text of exactly `len` characters.
fn base_text(len: usize, gen: &mut TextGen) -> String {
    let mut text = String::new();
    while text.chars().count() < len {
        text.push_str(&gen.sentence());
        text.push(' ');
    }
    text.chars().take(len).collect()
}

/// An engine whose paragraph store holds the library corpus.
fn library_engine() -> DisclosureEngine {
    let engine = DisclosureEngine::new(EngineConfig::default());
    let mut gen = TextGen::new(41);
    let library = DocKey::new("library", "corpus");
    for index in 0..LIBRARY_PARAGRAPHS {
        engine.observe_paragraph(&library, index, &gen.paragraph(6), None);
    }
    engine
}

/// The keystrokes appended during measurement (deterministic, mostly
/// letters so the normaliser keeps them).
fn tail_chars() -> Vec<char> {
    "the quick brown fox jumps over the lazy dog and keeps typing more prose "
        .chars()
        .cycle()
        .take(KEYSTROKES)
        .collect()
}

/// Types `tail` onto `base` re-checking the whole paragraph per keystroke.
fn full_pass(engine: &DisclosureEngine, doc: &DocKey, base: &str, tail: &[char]) -> PathCost {
    let mut text = String::with_capacity(base.len() + tail.len() * 4);
    text.push_str(base);
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    for &ch in tail {
        text.push(ch);
        std::hint::black_box(engine.check_paragraph(doc, 0, &text));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    PathCost {
        us_per_check: elapsed * 1e6 / tail.len() as f64,
        allocs_per_check: allocs / tail.len() as u64,
    }
}

/// Types `tail` onto `base` through the keystroke session, one splice per
/// keystroke. The edits are built outside the timed region — in the
/// plug-in they arrive ready-made from the editor's mutation events.
fn incremental_pass(
    engine: &DisclosureEngine,
    doc: &DocKey,
    base: &str,
    tail: &[char],
) -> PathCost {
    engine.reset_keystroke_session(doc, 0);
    engine
        .apply_paragraph_edit(doc, 0, &TextEdit::insert(0, base))
        .expect("fresh session accepts the seed edit");
    let mut at = base.len();
    let edits: Vec<TextEdit> = tail
        .iter()
        .map(|&ch| {
            let edit = TextEdit::insert(at, ch.to_string());
            at += ch.len_utf8();
            edit
        })
        .collect();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    for edit in &edits {
        std::hint::black_box(
            engine
                .apply_paragraph_edit(doc, 0, edit)
                .expect("sequential edits stay in sync"),
        );
    }
    let elapsed = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    PathCost {
        us_per_check: elapsed * 1e6 / edits.len() as f64,
        allocs_per_check: allocs / edits.len() as u64,
    }
}

fn best(costs: impl IntoIterator<Item = PathCost>) -> PathCost {
    costs
        .into_iter()
        .min_by(|a, b| a.us_per_check.total_cmp(&b.us_per_check))
        .expect("at least one pass")
}

fn measure(size: usize) -> SizeResult {
    let engine = library_engine();
    let mut gen = TextGen::new(size as u64 + 1);
    let base = base_text(size, &mut gen);
    let tail = tail_chars();

    let full_doc = DocKey::new("gdocs", format!("full-{size}"));
    pin_kernel(&engine, true);
    full_pass(&engine, &full_doc, &base, &tail); // warm-up
    let full_scalar = best((0..PASSES).map(|_| full_pass(&engine, &full_doc, &base, &tail)));

    pin_kernel(&engine, false);
    full_pass(&engine, &full_doc, &base, &tail); // warm-up
    let full = best((0..PASSES).map(|_| full_pass(&engine, &full_doc, &base, &tail)));

    let inc_doc = DocKey::new("gdocs", format!("incremental-{size}"));
    incremental_pass(&engine, &inc_doc, &base, &tail); // warm-up
    let incremental = best((0..PASSES).map(|_| incremental_pass(&engine, &inc_doc, &base, &tail)));

    SizeResult {
        paragraph_chars: size,
        full_scalar,
        full,
        incremental,
    }
}

/// One timed bulk ingest of `texts` into a fresh engine; also returns
/// the exact allocations per paragraph.
fn bulk_pass(texts: &[String]) -> (f64, u64) {
    let engine = DisclosureEngine::new(EngineConfig::default());
    let doc = DocKey::new("wiki", "bulk-ingest");
    let slots: Vec<(usize, &str)> = texts.iter().map(String::as_str).enumerate().collect();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    let ids = engine.observe_paragraphs(&doc, &slots, None);
    let elapsed = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    assert_eq!(ids.len(), texts.len());
    (
        elapsed * 1e6 / texts.len() as f64,
        allocs / texts.len() as u64,
    )
}

/// One ingest of `texts` through the per-call observe path; returns the
/// exact allocations per paragraph. Guards the observe paths' use of the
/// shared fingerprint scratch: a fresh scratch per call would show up
/// here as a step change in the count.
fn single_observe_allocs(texts: &[String]) -> u64 {
    let engine = DisclosureEngine::new(EngineConfig::default());
    let doc = DocKey::new("wiki", "single-ingest");
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    for (index, text) in texts.iter().enumerate() {
        engine.observe_paragraph(&doc, index, text, None);
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - allocs_before) / texts.len() as u64
}

fn measure_bulk() -> BulkResult {
    let mut gen = TextGen::new(97);
    let texts: Vec<String> = (0..BULK_PARAGRAPHS)
        .map(|_| gen.paragraph(BULK_SENTENCES))
        .collect();
    let total_chars = texts.iter().map(|t| t.chars().count()).sum();

    let engine = DisclosureEngine::new(EngineConfig::default());
    pin_kernel(&engine, true);
    bulk_pass(&texts); // warm-up
    let scalar = (0..PASSES)
        .map(|_| bulk_pass(&texts).0)
        .fold(f64::INFINITY, f64::min);

    pin_kernel(&engine, false);
    bulk_pass(&texts); // warm-up
    let mut native = f64::INFINITY;
    let mut batched_allocs = u64::MAX;
    for _ in 0..PASSES {
        let (us, allocs) = bulk_pass(&texts);
        native = native.min(us);
        batched_allocs = batched_allocs.min(allocs);
    }
    single_observe_allocs(&texts); // warm-up
    let single_allocs = (0..PASSES)
        .map(|_| single_observe_allocs(&texts))
        .min()
        .expect("at least one pass");

    BulkResult {
        paragraphs: BULK_PARAGRAPHS,
        total_chars,
        scalar_us_per_paragraph: scalar,
        native_us_per_paragraph: native,
        batched_allocs_per_paragraph: batched_allocs,
        single_allocs_per_paragraph: single_allocs,
    }
}

fn write_report(results: &[SizeResult], bulk: &BulkResult, kernel: KernelKind) {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"paragraph_chars\": {}, \"full_us_per_check\": {:.3}, \
                 \"full_scalar_us_per_check\": {:.3}, \"simd_speedup\": {:.2}, \
                 \"incremental_us_per_check\": {:.3}, \"speedup\": {:.2}, \
                 \"full_allocs_per_check\": {}, \"incremental_allocs_per_check\": {}}}",
                r.paragraph_chars,
                r.full.us_per_check,
                r.full_scalar.us_per_check,
                r.simd_speedup(),
                r.incremental.us_per_check,
                r.speedup(),
                r.full.allocs_per_check,
                r.incremental.allocs_per_check
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fingerprint\",\n  \"kernel\": \"{}\",\n  \
         \"keystrokes_per_size\": {KEYSTROKES},\n  \
         \"library_paragraphs\": {LIBRARY_PARAGRAPHS},\n  \
         \"note\": \"per-keystroke disclosure check; 'full' re-fingerprints the whole \
         paragraph (DisclosureEngine::check_paragraph) on the runtime-detected kernel, \
         'full_scalar' is the same path pinned to the scalar kernel (BF_FORCE_SCALAR), \
         'incremental' splices one edit into the keystroke session and re-winnows only \
         the dirty window (DisclosureEngine::apply_paragraph_edit); allocations counted \
         by a global counting allocator, so they are exact\",\n  \
         \"sizes\": [\n{}\n  ],\n  \
         \"bulk_ingest\": {{\"paragraphs\": {}, \"total_chars\": {}, \
         \"scalar_us_per_paragraph\": {:.3}, \"native_us_per_paragraph\": {:.3}, \
         \"simd_speedup\": {:.2}, \"native_paragraphs_per_sec\": {:.0}, \
         \"batched_allocs_per_paragraph\": {}, \"single_allocs_per_paragraph\": {}}}\n}}\n",
        kernel.name(),
        rows.join(",\n"),
        bulk.paragraphs,
        bulk.total_chars,
        bulk.scalar_us_per_paragraph,
        bulk.native_us_per_paragraph,
        bulk.simd_speedup(),
        bulk.native_paragraphs_per_sec(),
        bulk.batched_allocs_per_paragraph,
        bulk.single_allocs_per_paragraph,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fingerprint.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn simd_floor() -> f64 {
    std::env::var("BF_SIMD_FLOOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0)
}

fn main() {
    let native_kernel = if scalar_env_forced() {
        KernelKind::Scalar
    } else {
        detected_kernel()
    };
    print_header(
        "Keystroke fingerprinting: scalar vs SIMD full path vs incremental edit path",
        &format!(
            "{KEYSTROKES} keystrokes per size; best of {PASSES} passes; \
             {LIBRARY_PARAGRAPHS} library paragraphs indexed; native kernel: {native_kernel}"
        ),
    );
    println!(
        "{:>10} {:>14} {:>14} {:>9} {:>14} {:>9} {:>11} {:>11}",
        "chars",
        "scalar µs/key",
        "simd µs/key",
        "simd ×",
        "incr µs/key",
        "incr ×",
        "full allocs",
        "incr allocs"
    );
    let results: Vec<SizeResult> = SIZES.into_iter().map(measure).collect();
    for r in &results {
        println!(
            "{:>10} {:>14.3} {:>14.3} {:>8.1}x {:>14.3} {:>8.1}x {:>11} {:>11}",
            r.paragraph_chars,
            r.full_scalar.us_per_check,
            r.full.us_per_check,
            r.simd_speedup(),
            r.incremental.us_per_check,
            r.speedup(),
            r.full.allocs_per_check,
            r.incremental.allocs_per_check
        );
    }
    println!();
    let bulk = measure_bulk();
    println!(
        "bulk ingest: {} corpus paragraphs ({} chars): scalar {:.1} µs/para, \
         native {:.1} µs/para ({:.1}x, {:.0} paragraphs/s)",
        bulk.paragraphs,
        bulk.total_chars,
        bulk.scalar_us_per_paragraph,
        bulk.native_us_per_paragraph,
        bulk.simd_speedup(),
        bulk.native_paragraphs_per_sec()
    );
    println!(
        "observe allocations: {} per paragraph batched (observe_paragraphs), \
         {} per paragraph single-call (observe_paragraph) — both ride the shared \
         fingerprint scratch",
        bulk.batched_allocs_per_paragraph, bulk.single_allocs_per_paragraph
    );
    println!(
        "(the incremental path re-hashes only the w + n - 1 dirty window, so its \
         latency is flat in paragraph length while the full path grows linearly)"
    );
    write_report(&results, &bulk, native_kernel);

    // The observe paths reuse the thread-local fingerprint scratch; a
    // regression to a fresh scratch per call adds a step change (several
    // buffer allocations per paragraph) that this ceiling catches.
    assert!(
        bulk.single_allocs_per_paragraph <= OBSERVE_ALLOC_CEILING
            && bulk.batched_allocs_per_paragraph <= OBSERVE_ALLOC_CEILING,
        "observe paths must stay on the shared fingerprint scratch: expected <= {} \
         allocations per paragraph, measured {} batched / {} single-call",
        OBSERVE_ALLOC_CEILING,
        bulk.batched_allocs_per_paragraph,
        bulk.single_allocs_per_paragraph
    );

    let at_4k = results
        .iter()
        .find(|r| r.paragraph_chars == 4096)
        .expect("4096 is in the sweep");
    assert!(
        at_4k.speedup() >= 5.0,
        "incremental keystroke checks must be >= 5x faster than full \
         re-fingerprinting at 4 k chars, got {:.1}x",
        at_4k.speedup()
    );
    println!(
        "regression gate: incremental is {:.1}x faster at 4096 chars (floor: 5x) — ok",
        at_4k.speedup()
    );

    if !native_kernel.is_simd() {
        eprintln!(
            "WARNING: no SIMD kernel available on this host (native kernel: \
             {native_kernel}) — the BF_SIMD_FLOOR >= {:.1}x gate at 4k/16k chars was \
             SKIPPED, not passed",
            simd_floor()
        );
        return;
    }
    let floor = simd_floor();
    for &chars in &[4096usize, 16384] {
        let row = results
            .iter()
            .find(|r| r.paragraph_chars == chars)
            .expect("gated size is in the sweep");
        assert!(
            row.simd_speedup() >= floor,
            "SIMD full path must be >= {floor:.1}x faster than scalar at {chars} chars \
             (BF_SIMD_FLOOR), got {:.2}x",
            row.simd_speedup()
        );
        println!(
            "regression gate: SIMD full path is {:.1}x faster than scalar at {chars} \
             chars (floor: {floor:.1}x) — ok",
            row.simd_speedup()
        );
    }
}
