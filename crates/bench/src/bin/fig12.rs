//! Regenerates **Figure 12**: the distribution of response times for
//! disclosure decisions under three editing workflows in a Google-Docs-like
//! editor, with the e-book corpus loaded into the fingerprint database.
//!
//! - **W1 creation-with-overlap**: a user creates a new document and types
//!   a page from an existing e-book.
//! - **W2 creation-without-overlap**: a user types an article that shares
//!   no text with the corpus.
//! - **W3 modification**: a user edits a previously-modified version of an
//!   e-book page to make it match the original.
//! - **W1i creation-with-overlap, incremental**: W1 again, but each
//!   keystroke is submitted as a [`TextEdit`] splice through the
//!   incremental session path instead of re-sending the whole paragraph.
//!
//! Decisions run asynchronously on a worker thread (as in the plug-in);
//! each sample is the end-to-end latency from keystroke to decision.
//! Run with `--release`; set `BF_SCALE=paper` for the 90 MB / ~10 M hash
//! corpus.

use browserflow::{
    AsyncDecider, BrowserFlow, ConcurrencyMetrics, EnforcementMode, ResponseTimes, TextEdit,
};
use browserflow_bench::{print_header, warn_if_single_core, Scale};
use browserflow_corpus::datasets::EbooksDataset;
use browserflow_corpus::TextGen;
use browserflow_tdm::{Service, ServiceId, Tag, TagSet};
use std::time::Duration;

/// Keystrokes simulated per workflow (one disclosure check each).
const KEYSTROKES: usize = 600;

fn load_corpus(scale: Scale) -> (BrowserFlow, EbooksDataset) {
    let lib = Tag::new("library").expect("valid tag");
    let flow = BrowserFlow::builder()
        .mode(EnforcementMode::Advisory)
        .service(
            Service::new("library", "Corporate Library")
                .with_privilege(TagSet::from_iter([lib.clone()]))
                .with_confidentiality(TagSet::from_iter([lib])),
        )
        .service(Service::new("gdocs", "Google Docs"))
        .build()
        .expect("policy builds");
    let ebooks = EbooksDataset::generate(3, &scale.ebooks());
    let library: ServiceId = "library".into();
    for (book_index, book) in ebooks.books().iter().enumerate() {
        let doc = format!("book-{book_index}");
        for (par_index, paragraph) in book.paragraphs().iter().enumerate() {
            flow.index_paragraph(&library, &doc, par_index, &paragraph.text())
                .expect("library registered");
        }
    }
    (flow, ebooks)
}

/// Types `text` into paragraph 0 of a fresh document, checking after every
/// keystroke chunk, and returns the latency samples.
fn type_and_measure(decider: &AsyncDecider, document: &str, text: &str, times: &mut ResponseTimes) {
    let gdocs: ServiceId = "gdocs".into();
    let chars: Vec<char> = text.chars().collect();
    let step = (chars.len() / KEYSTROKES).max(1);
    let mut typed = String::new();
    let mut i = 0;
    while i < chars.len() {
        let end = (i + step).min(chars.len());
        typed.extend(&chars[i..end]);
        let timed = decider
            .check(&gdocs, document, 0, typed.as_str())
            .expect("gdocs registered");
        times.record(timed.latency);
        // The paragraph's new content is observed (asynchronously in the
        // plug-in; sequentially here to keep the state realistic).
        decider
            .observe(&gdocs, document, 0, typed.as_str())
            .expect("gdocs registered");
        i = end;
    }
}

/// Like [`type_and_measure`], but each keystroke chunk travels as a
/// [`TextEdit`] splice through the incremental keystroke session — the
/// observation is implicit (the session *is* the tracked state).
fn type_and_measure_incremental(
    decider: &AsyncDecider,
    document: &str,
    text: &str,
    times: &mut ResponseTimes,
) {
    let gdocs: ServiceId = "gdocs".into();
    let chars: Vec<char> = text.chars().collect();
    let step = (chars.len() / KEYSTROKES).max(1);
    let mut at = 0usize;
    let mut i = 0;
    while i < chars.len() {
        let end = (i + step).min(chars.len());
        let chunk: String = chars[i..end].iter().collect();
        let edit = TextEdit::insert(at, chunk.as_str());
        at += chunk.len();
        let timed = decider
            .submit_keystroke_edit(&gdocs, document, 0, edit)
            .expect("queue accepts sequential keystrokes")
            .wait()
            .expect("worker replies");
        times.record(timed.latency);
        i = end;
    }
}

fn report(label: &str, times: &ResponseTimes) {
    println!(
        "{label:>28}: n={:<5} p50={:>9.3?} p85={:>9.3?} p99={:>9.3?} max={:>9.3?}  \
         <=30ms {:>5.1}%  <=200ms {:>5.1}%",
        times.len(),
        times.percentile(0.50),
        times.percentile(0.85),
        times.percentile(0.99),
        times.max().unwrap_or_default(),
        times.fraction_within(Duration::from_millis(30)) * 100.0,
        times.fraction_within(Duration::from_millis(200)) * 100.0,
    );
}

fn main() {
    warn_if_single_core();
    let scale = Scale::from_env();
    print_header(
        "Figure 12: Distribution of response times for disclosure decisions",
        &format!("scale = {scale:?}; {KEYSTROKES} checks per workflow; async worker decisions"),
    );
    let (flow, ebooks) = load_corpus(scale);
    println!(
        "corpus loaded: {} books, {} paragraphs, {} distinct hashes",
        ebooks.books().len(),
        flow.engine().paragraph_count(),
        flow.engine().paragraph_hash_count()
    );
    let decider = AsyncDecider::spawn(flow);

    // W1: a page (~4 paragraphs) from an existing book.
    let book = &ebooks.books()[ebooks.books().len() / 2];
    let page: String = book
        .paragraphs()
        .iter()
        .take(4)
        .map(|p| p.text())
        .collect::<Vec<_>>()
        .join(" ");
    let mut w1 = ResponseTimes::new();
    type_and_measure(&decider, "w1-doc", &page, &mut w1);

    // W2: novel text of the same length.
    let mut gen = TextGen::new(999);
    let mut novel = String::new();
    while novel.len() < page.len() {
        novel.push_str(&gen.sentence());
        novel.push(' ');
    }
    let mut w2 = ResponseTimes::new();
    type_and_measure(&decider, "w2-doc", &novel, &mut w2);

    // W3: edit a modified book page back towards the original.
    let original = book.paragraphs()[0].text();
    let mut w3 = ResponseTimes::new();
    {
        let gdocs: ServiceId = "gdocs".into();
        // Build the modified version: ~30% of words replaced.
        let mut modified = browserflow_corpus::Paragraph::fresh(
            original.split_whitespace().map(|w| w.to_string()),
        );
        let mut edit_gen = TextGen::new(1234);
        browserflow_corpus::edits::replace_words(&mut modified, 0.3, &mut edit_gen);
        let modified_words: Vec<String> = modified
            .tokens()
            .iter()
            .map(|t| t.word().to_string())
            .collect();
        let original_words: Vec<String> = original
            .split_whitespace()
            .map(|w| w.trim_matches('.').to_string())
            .collect();
        decider
            .observe(&gdocs, "w3-doc", 0, modified_words.join(" "))
            .expect("gdocs registered");
        // Word by word, restore the original.
        let mut current = modified_words.clone();
        let steps = current.len().min(original_words.len());
        for i in 0..steps {
            current[i] = original_words[i].clone();
            let text = current.join(" ");
            let timed = decider
                .check(&gdocs, "w3-doc", 0, text.as_str())
                .expect("gdocs registered");
            w3.record(timed.latency);
            decider
                .observe(&gdocs, "w3-doc", 0, text.as_str())
                .expect("gdocs registered");
        }
    }

    // W1i: the same overlapping page, typed as incremental edit splices.
    let mut w1i = ResponseTimes::new();
    type_and_measure_incremental(&decider, "w1i-doc", &page, &mut w1i);

    println!();
    report("W1 creation-with-overlap", &w1);
    report("W2 creation-without-overlap", &w2);
    report("W3 modification", &w3);
    report("W1i incremental edits", &w1i);

    println!();
    println!("response-time CDF (ms at cumulative fraction):");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "fraction", "W1", "W2", "W3", "W1i"
    );
    for p in [0.1, 0.25, 0.5, 0.75, 0.85, 0.95, 0.99, 1.0] {
        println!(
            "{:>10.2} {:>12.3?} {:>12.3?} {:>12.3?} {:>12.3?}",
            p,
            w1.percentile(p),
            w2.percentile(p),
            w3.percentile(p),
            w1i.percentile(p)
        );
    }
    println!();
    println!(
        "(paper shape: 99% of decisions within 200 ms; ~85% under 30 ms thanks to \
         fingerprint-digest caching; overlap workflows W1/W3 slower than W2)"
    );
    let stats = decider.stats();
    println!();
    println!(
        "pipeline: submitted={} completed={} coalesced={} rejected={} timeouts={} \
         batches={} mean_batch={:.2} max_batch={} queue_depth={}",
        stats.submitted,
        stats.completed,
        stats.coalesced,
        stats.rejected,
        stats.timeouts,
        stats.batches,
        stats.mean_batch(),
        stats.max_batch,
        stats.queue_depth,
    );

    let flow = decider.shutdown().expect("pipeline shuts down cleanly");
    let metrics = ConcurrencyMetrics::of(flow.engine()).with_pipeline(stats);
    let mode = metrics.fingerprint_mode;
    println!(
        "fingerprint mode: full={} incremental={} absorbed={} (incremental fraction {})",
        mode.full_checks,
        mode.incremental_checks,
        mode.incremental_absorbs,
        mode.incremental_fraction()
            .map(|f| format!("{:.1}%", f * 100.0))
            .unwrap_or_else(|| "n/a".into()),
    );
    let (sweeps, scanned, evicted) = metrics.eviction_totals();
    println!(
        "store locks: contended acquisitions={} across {} hash shards \
         (per-shard max {}); eviction sweeps={} scanned={} evicted={}",
        metrics.total_lock_contention(),
        metrics.paragraphs.shard_count,
        metrics
            .paragraphs
            .hash_shard_contention
            .iter()
            .max()
            .copied()
            .unwrap_or(0),
        sweeps,
        scanned,
        evicted,
    );
    let (batched, batch_hashes, batch_locks) = metrics.batch_totals();
    println!(
        "batched ingest: observations={batched} hashes_recorded={batch_hashes} \
         lock_acquisitions={batch_locks} (one round-trip per hash would have paid \
         hashes_recorded)",
    );
}
