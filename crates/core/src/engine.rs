//! The disclosure engine: fingerprinting + the two-granularity stores +
//! decision caching, keyed by human-meaningful segment keys.

use browserflow_fingerprint::{
    Fingerprint, FingerprintConfig, Fingerprinter, IncrementalFingerprinter, KernelKind, TextEdit,
};
use browserflow_store::pool::{fan_out, WorkerPool};
use browserflow_store::{
    DecisionCache, FingerprintDigest, FingerprintStore, FxHashMap, IncrementalChecker, SegmentId,
    Timestamp,
};
use browserflow_tdm::ServiceId;
use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Minimum batch size before bulk ingest fans fingerprinting out over the
/// worker pool — below this the pool hand-off costs more than it saves
/// (mirrors the candidate-evaluation cutoff in `browserflow-store`).
const INGEST_PARALLEL_CUTOFF: usize = 32;

/// Identifies a document within a service.
#[derive(
    Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct DocKey {
    /// The service hosting the document.
    pub service: ServiceId,
    /// Service-local document name.
    pub document: String,
}

impl DocKey {
    /// Creates a document key.
    pub fn new(service: impl Into<ServiceId>, document: impl Into<String>) -> Self {
        Self {
            service: service.into(),
            document: document.into(),
        }
    }
}

/// Which granularity a tracked segment belongs to (§4.1: paragraphs and
/// entire documents are tracked independently).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum SegmentScope {
    /// The `index`-th paragraph of the document.
    Paragraph(usize),
    /// The document as a whole.
    Document,
}

/// A fully-qualified segment key: (service, document, scope).
#[derive(
    Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct SegmentKey {
    /// The document the segment belongs to.
    pub doc: DocKey,
    /// Paragraph index or whole-document scope.
    pub scope: SegmentScope,
}

impl SegmentKey {
    /// Key for a paragraph.
    pub fn paragraph(doc: DocKey, index: usize) -> Self {
        Self {
            doc,
            scope: SegmentScope::Paragraph(index),
        }
    }

    /// Key for a whole document.
    pub fn document(doc: DocKey) -> Self {
        Self {
            doc,
            scope: SegmentScope::Document,
        }
    }
}

impl std::fmt::Display for SegmentKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.scope {
            SegmentScope::Paragraph(index) => {
                write!(f, "{}/{}#p{}", self.doc.service, self.doc.document, index)
            }
            SegmentScope::Document => {
                write!(f, "{}/{}", self.doc.service, self.doc.document)
            }
        }
    }
}

/// An edit submitted through the incremental keystroke path does not apply
/// to the engine's view of the paragraph being edited.
///
/// Keystroke sessions replay the editor's edits against engine-held state;
/// an edit whose byte range is out of bounds or off a `char` boundary for
/// that state means the two sides diverged (e.g. the editor was reloaded).
/// The caller should reset the session
/// ([`DisclosureEngine::reset_keystroke_session`]) and reseed it with the
/// paragraph's full text.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct StaleEditError {
    /// The paragraph whose session rejected the edit.
    pub key: SegmentKey,
}

impl fmt::Display for StaleEditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "edit does not apply to the tracked text of {} (session out of sync)",
            self.key
        )
    }
}

impl std::error::Error for StaleEditError {}

/// A worker thread servicing part of a batched check panicked.
///
/// One poisoned paragraph check must not take down the process — in a
/// multi-tenant deployment the same engine serves every tenant's checks.
/// The panic is caught at the join boundary and surfaced as this typed
/// error; the stores are sharded and lock-free to readers, so the engine
/// remains usable for subsequent checks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct WorkerPanic {
    /// The panic payload, when it was a string (the common case).
    pub detail: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a paragraph-check worker panicked: {}", self.detail)
    }
}

impl std::error::Error for WorkerPanic {}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Test-only fault injection for the check path.
///
/// Hidden from docs and disabled by default (one relaxed atomic load on
/// the check path). Integration tests enable a hook, embed the marker in
/// a paragraph, and verify that the engine, middleware, decider and
/// daemon all survive a poisoned check with a typed error instead of a
/// process abort.
#[doc(hidden)]
pub mod test_hooks {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// Text marker that triggers the enabled faults.
    pub const FAULT_MARKER: &str = "\u{7f}bf-fault\u{7f}";

    pub(crate) static PANIC_ON_MARKER: AtomicBool = AtomicBool::new(false);
    pub(crate) static DELAY_MS_ON_MARKER: AtomicU64 = AtomicU64::new(0);

    /// When enabled, any checked paragraph containing [`FAULT_MARKER`]
    /// panics inside the check worker.
    pub fn set_panic_on_marker(enabled: bool) {
        PANIC_ON_MARKER.store(enabled, Ordering::SeqCst);
    }

    /// When non-zero, any checked paragraph containing [`FAULT_MARKER`]
    /// sleeps this many milliseconds before being checked (deterministic
    /// worker stalls for queue/backpressure tests).
    pub fn set_delay_ms_on_marker(millis: u64) {
        DELAY_MS_ON_MARKER.store(millis, Ordering::SeqCst);
    }

    /// Serialises tests that arm the global hooks, so a disarm in one
    /// test cannot race another test's marker check.
    pub fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn apply(text: &str) {
        let delay = DELAY_MS_ON_MARKER.load(Ordering::Relaxed);
        let panic_armed = PANIC_ON_MARKER.load(Ordering::Relaxed);
        if (delay == 0 && !panic_armed) || !text.contains(FAULT_MARKER) {
            return;
        }
        if delay > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delay));
        }
        if panic_armed {
            panic!("injected test panic");
        }
    }
}

/// A disclosure detected by the engine: a stored source segment whose
/// disclosure requirement the checked text violates.
#[derive(Debug, Clone, PartialEq)]
pub struct DisclosureMatch {
    /// The source segment.
    pub source: SegmentKey,
    /// Measured disclosure `D(source, text) ∈ (0, 1]`.
    pub disclosure: f64,
    /// The source's threshold.
    pub threshold: f64,
    /// Byte ranges of the checked text whose n-grams match the source's
    /// stored fingerprint — what the UI highlights (paper Figure 2).
    ///
    /// Advisory: when a cached decision is reused after a cosmetic edit
    /// (same winnowed hash set, different punctuation), offsets refer to
    /// the text the decision was computed for.
    pub matching_spans: Vec<std::ops::Range<usize>>,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EngineConfig {
    /// Fingerprinting parameters (paper default: 15-char n-grams,
    /// window 30, 32-bit hashes).
    pub fingerprint: FingerprintConfig,
    /// Default paragraph disclosure threshold `Tpar` (paper default 0.5).
    pub default_tpar: f64,
    /// Default document disclosure threshold `Tdoc`.
    pub default_tdoc: f64,
    /// Whether to cache disclosure decisions per segment fingerprint.
    pub cache_decisions: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            fingerprint: FingerprintConfig::default(),
            default_tpar: 0.5,
            default_tdoc: 0.5,
            cache_decisions: true,
        }
    }
}

/// The disclosure engine: owns the fingerprinter, the paragraph-granularity
/// and document-granularity stores, the segment-key registry, and the
/// decision cache.
///
/// # Example
///
/// ```rust
/// use browserflow::{DisclosureEngine, DocKey, EngineConfig};
///
/// let engine = DisclosureEngine::new(EngineConfig::default());
/// let source = DocKey::new("wiki", "guidelines");
/// let text = "score candidates on communication, coding fluency, systems design \
///             depth and the quality of their clarifying questions";
/// engine.observe_paragraph(&source, 0, text, None);
///
/// let target = DocKey::new("gdocs", "draft");
/// let matches = engine.check_paragraph(&target, 0, text);
/// assert_eq!(matches.len(), 1);
/// assert!(matches[0].disclosure > 0.99);
/// ```
#[derive(Debug)]
pub struct DisclosureEngine {
    config: EngineConfig,
    fingerprinter: Fingerprinter,
    paragraphs: FingerprintStore,
    documents: FingerprintStore,
    registry: RwLock<SegmentRegistry>,
    cache: DecisionCache<Vec<DisclosureMatch>>,
    /// Per-paragraph incremental state for the keystroke hot path.
    keystrokes: Mutex<FxHashMap<SegmentId, KeystrokeState>>,
    full_checks: AtomicU64,
    incremental_checks: AtomicU64,
    incremental_absorbs: AtomicU64,
}

/// One paragraph's keystroke session: the incrementally maintained
/// fingerprint of the text under edit plus the incremental Algorithm 1
/// state feeding on its deltas.
#[derive(Debug)]
struct KeystrokeState {
    fingerprinter: IncrementalFingerprinter,
    checker: IncrementalChecker,
    edits_since_compact: u64,
    /// Paragraph-store logical time of the session's last validated edit,
    /// so the eviction sweep can drop sessions idle since before the
    /// sweep's cutoff.
    last_activity: Timestamp,
}

/// Keystroke sessions drop zero-overlap candidates this often (§4.3's
/// incremental mode accumulates candidates monotonically; compaction keeps
/// long sessions from re-evaluating dead ones forever).
const COMPACT_INTERVAL: u64 = 256;

/// The key↔id registry, kept under one lock so both directions stay
/// consistent when concurrent callers allocate ids.
#[derive(Debug, Default)]
struct SegmentRegistry {
    ids: FxHashMap<SegmentKey, SegmentId>,
    keys: FxHashMap<SegmentId, SegmentKey>,
    next_id: u64,
}

impl DisclosureEngine {
    /// Creates an engine.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            fingerprinter: Fingerprinter::new(config.fingerprint),
            paragraphs: FingerprintStore::new(),
            documents: FingerprintStore::new(),
            registry: RwLock::new(SegmentRegistry::default()),
            cache: DecisionCache::new(),
            keystrokes: Mutex::new(FxHashMap::default()),
            full_checks: AtomicU64::new(0),
            incremental_checks: AtomicU64::new(0),
            incremental_absorbs: AtomicU64::new(0),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The fingerprinter in use.
    pub fn fingerprinter(&self) -> &Fingerprinter {
        &self.fingerprinter
    }

    /// Resolves (or allocates) the [`SegmentId`] for a key.
    pub fn segment_id(&self, key: &SegmentKey) -> SegmentId {
        if let Some(&id) = self.registry.read().ids.get(key) {
            return id;
        }
        let mut registry = self.registry.write();
        // A concurrent caller may have allocated between the two locks.
        if let Some(&id) = registry.ids.get(key) {
            return id;
        }
        let id = SegmentId::new(registry.next_id);
        registry.next_id += 1;
        registry.ids.insert(key.clone(), id);
        registry.keys.insert(id, key.clone());
        id
    }

    /// The key for a known segment id.
    pub fn segment_key(&self, id: SegmentId) -> Option<SegmentKey> {
        self.registry.read().keys.get(&id).cloned()
    }

    /// Read-only id lookup: `None` if the key was never observed or
    /// checked (unlike [`DisclosureEngine::segment_id`], never allocates).
    pub fn segment_id_readonly(&self, key: &SegmentKey) -> Option<SegmentId> {
        self.registry.read().ids.get(key).copied()
    }

    /// Records (or re-records) a paragraph's fingerprint: a one-item
    /// [`DisclosureEngine::observe_paragraphs`]. `threshold` falls back to
    /// the configured `Tpar` default. Returns the segment id.
    pub fn observe_paragraph(
        &self,
        doc: &DocKey,
        index: usize,
        text: &str,
        threshold: Option<f64>,
    ) -> SegmentId {
        self.observe_paragraphs(doc, &[(index, text)], threshold)[0]
    }

    /// Bulk-ingests many paragraphs of one document through the batched
    /// store path.
    ///
    /// Semantically identical to observing each `(index, text)` pair in
    /// turn, but mechanically batched end to end: fingerprinting fans the
    /// paragraphs out over the persistent worker pool (each worker runs
    /// the SIMD bulk kernel against its own thread-local scratch, see
    /// [`DisclosureEngine::fingerprint_kernel`]), and all observations
    /// land through one [`FingerprintStore::observe_batch`] call — one
    /// stripe-lock round-trip per touched stripe instead of one per hash.
    /// This is the shape corpus ingest, document indexing and
    /// restore-verify use.
    pub fn observe_paragraphs(
        &self,
        doc: &DocKey,
        paragraphs: &[(usize, &str)],
        threshold: Option<f64>,
    ) -> Vec<SegmentId> {
        let threshold = threshold.unwrap_or(self.config.default_tpar);
        let ids: Vec<SegmentId> = paragraphs
            .iter()
            .map(|&(index, _)| self.segment_id(&SegmentKey::paragraph(doc.clone(), index)))
            .collect();
        let prints = self.fingerprint_batch(paragraphs);
        let entries: Vec<(SegmentId, &Fingerprint, f64)> = ids
            .iter()
            .zip(prints.iter())
            .map(|(&id, print)| (id, print, threshold))
            .collect();
        self.paragraphs.observe_batch(&entries);
        for &id in &ids {
            self.cache.invalidate(id);
        }
        ids
    }

    /// Fingerprints a batch of texts, fanning chunks out over the
    /// persistent worker pool once the batch is large enough to amortise
    /// the hand-off. Every pool worker fingerprints through its own
    /// thread-local scratch, so the bulk kernels run in parallel without
    /// per-call buffer allocations; results come back in input order.
    fn fingerprint_batch(&self, items: &[(usize, &str)]) -> Vec<Fingerprint> {
        let workers = WorkerPool::worker_count();
        if items.len() < INGEST_PARALLEL_CUTOFF || workers <= 1 {
            return items
                .iter()
                .map(|&(_, text)| self.fingerprinter.fingerprint(text))
                .collect();
        }
        // Pool jobs must be `'static`, so each chunk ships owned copies of
        // its texts (one copy per paragraph — dwarfed by hashing cost).
        let chunk_len = items.len().div_ceil(workers);
        let jobs: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| {
                let fingerprinter = self.fingerprinter.clone();
                let texts: Vec<String> = chunk.iter().map(|&(_, text)| text.to_owned()).collect();
                move || {
                    texts
                        .iter()
                        .map(|text| fingerprinter.fingerprint(text))
                        .collect::<Vec<Fingerprint>>()
                }
            })
            .collect();
        WorkerPool::global()
            .scatter(jobs)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Records (or re-records) a whole document's fingerprint.
    pub fn observe_document(&self, doc: &DocKey, text: &str, threshold: Option<f64>) -> SegmentId {
        let key = SegmentKey::document(doc.clone());
        let id = self.segment_id(&key);
        let print = self.fingerprinter.fingerprint(text);
        self.documents
            .observe(id, &print, threshold.unwrap_or(self.config.default_tdoc));
        self.cache.invalidate(id);
        id
    }

    /// Updates a stored paragraph's disclosure threshold.
    pub fn set_paragraph_threshold(&self, doc: &DocKey, index: usize, threshold: f64) -> bool {
        let key = SegmentKey::paragraph(doc.clone(), index);
        match self.segment_id_readonly(&key) {
            Some(id) => self.paragraphs.set_threshold(id, threshold),
            None => false,
        }
    }

    /// Updates a stored document's disclosure threshold `Tdoc`.
    pub fn set_document_threshold(&self, doc: &DocKey, threshold: f64) -> bool {
        let key = SegmentKey::document(doc.clone());
        match self.segment_id_readonly(&key) {
            Some(id) => self.documents.set_threshold(id, threshold),
            None => false,
        }
    }

    /// Paragraph-granularity disclosure check: which stored paragraphs does
    /// `text` (about to live at `doc`/`index`) disclose?
    ///
    /// The segment itself is never reported. Results are cached per
    /// segment until its fingerprint changes (§6.2: one keystroke usually
    /// leaves the winnowed fingerprint unchanged, so the previous response
    /// is reused).
    pub fn check_paragraph(&self, doc: &DocKey, index: usize, text: &str) -> Vec<DisclosureMatch> {
        let key = SegmentKey::paragraph(doc.clone(), index);
        let id = self.segment_id(&key);
        self.check_paragraph_by_id(id, text)
    }

    /// [`DisclosureEngine::check_paragraph`] once the id is resolved.
    fn check_paragraph_by_id(&self, id: SegmentId, text: &str) -> Vec<DisclosureMatch> {
        test_hooks::apply(text);
        self.full_checks.fetch_add(1, Ordering::Relaxed);
        let print = self.fingerprinter.fingerprint(text);
        // The cached sorted slice feeds both the digest and Algorithm 1 —
        // no HashSet is materialised on the check path.
        let hashes = print.distinct_hashes();
        if self.config.cache_decisions {
            let digest = FingerprintDigest::of_sorted(hashes);
            if let Some(cached) = self.cache.get(id, digest) {
                return cached;
            }
            let reports = self.paragraphs.disclosing_sources_of_sorted(id, hashes);
            let result = self.resolve_matches(reports, &print, &self.paragraphs);
            self.cache.put(id, digest, result.clone());
            result
        } else {
            let reports = self.paragraphs.disclosing_sources_of_sorted(id, hashes);
            self.resolve_matches(reports, &print, &self.paragraphs)
        }
    }

    /// Batched paragraph-granularity check: fingerprints and checks every
    /// paragraph of a document, fanning the per-paragraph work over worker
    /// threads (the stores are lock-striped, so checkers proceed in
    /// parallel). Results are returned in input order, identical to calling
    /// [`DisclosureEngine::check_paragraph`] per paragraph.
    ///
    /// `workers <= 1`, or fewer than two paragraphs, runs on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`WorkerPanic`] if a paragraph check panicked; the engine
    /// remains usable for subsequent checks.
    pub fn check_paragraphs(
        &self,
        doc: &DocKey,
        paragraphs: &[&str],
        workers: usize,
    ) -> Result<Vec<Vec<DisclosureMatch>>, WorkerPanic> {
        let items: Vec<(usize, &str)> = paragraphs.iter().copied().enumerate().collect();
        self.check_paragraphs_at(doc, &items, workers)
    }

    /// [`DisclosureEngine::check_paragraphs`] with explicit paragraph
    /// indices: each `(index, text)` item is checked as if by
    /// [`DisclosureEngine::check_paragraph`], fanned out over `workers`
    /// threads, with results in item order. This is the primitive behind
    /// the unified [`CheckRequest`](crate::CheckRequest) surface, where a
    /// batch need not start at paragraph 0 or be contiguous.
    ///
    /// # Errors
    ///
    /// Returns [`WorkerPanic`] if any chunk's check panicked — the panic
    /// is contained at the join boundary instead of aborting the process
    /// (a multi-tenant daemon must survive one poisoned check). Every
    /// remaining chunk is still joined so no worker is leaked.
    pub fn check_paragraphs_at(
        &self,
        doc: &DocKey,
        paragraphs: &[(usize, &str)],
        workers: usize,
    ) -> Result<Vec<Vec<DisclosureMatch>>, WorkerPanic> {
        // Allocate every id up front so worker threads never race on the
        // registry write lock in allocation order.
        let jobs: Vec<(SegmentId, &str)> = paragraphs
            .iter()
            .map(|&(index, text)| {
                let key = SegmentKey::paragraph(doc.clone(), index);
                (self.segment_id(&key), text)
            })
            .collect();
        // A panicking check is contained on either path: the engine's
        // interior mutability is panic-tolerant here, since a check only
        // reads the stores and updates the (per-entry consistent)
        // decision cache, and parking_lot locks do not poison.
        fan_out(&jobs, workers, |&(id, text)| {
            self.check_paragraph_by_id(id, text)
        })
        .map_err(|payload| WorkerPanic {
            detail: panic_detail(payload.as_ref()),
        })
    }

    /// Document-granularity disclosure check (uncached; document checks are
    /// issued per upload, not per keystroke).
    pub fn check_document(&self, doc: &DocKey, text: &str) -> Vec<DisclosureMatch> {
        let key = SegmentKey::document(doc.clone());
        let id = self.segment_id(&key);
        self.full_checks.fetch_add(1, Ordering::Relaxed);
        let print = self.fingerprinter.fingerprint(text);
        let reports = self
            .documents
            .disclosing_sources_of_sorted(id, print.distinct_hashes());
        self.resolve_matches(reports, &print, &self.documents)
    }

    /// Applies one editor edit to the paragraph's keystroke session and
    /// returns the sources the *edited* text now discloses — the
    /// incremental counterpart of [`DisclosureEngine::check_paragraph`].
    ///
    /// A session starts from empty text the first time a paragraph is
    /// edited, so the opening edit is typically `TextEdit::insert(0, ..)`
    /// carrying the paragraph's current content; subsequent keystrokes
    /// submit just their splice. Per keystroke this re-hashes and
    /// re-winnows only the dirty window around the edit and feeds the
    /// resulting `{added, removed}` hash delta into Algorithm 1's
    /// incremental mode (§4.3), instead of re-fingerprinting the whole
    /// paragraph. Results are identical to
    /// [`DisclosureEngine::check_paragraph`] on the full text
    /// (property-tested); only the counters under
    /// [`DisclosureEngine::fingerprint_mode`] distinguish the two paths.
    ///
    /// # Errors
    ///
    /// Returns [`StaleEditError`] (leaving the session untouched) when the
    /// edit does not apply to the session's current text — the caller's
    /// editor state and the engine diverged. Reset with
    /// [`DisclosureEngine::reset_keystroke_session`] and reseed.
    pub fn apply_paragraph_edit(
        &self,
        doc: &DocKey,
        index: usize,
        edit: &TextEdit,
    ) -> Result<Vec<DisclosureMatch>, StaleEditError> {
        let key = SegmentKey::paragraph(doc.clone(), index);
        let id = self.segment_id(&key);
        let mut sessions = self.keystrokes.lock();
        let state = self.edit_session(&mut sessions, id, &key, edit)?;
        self.incremental_checks.fetch_add(1, Ordering::Relaxed);
        let delta = state.fingerprinter.apply_edit(edit);
        let reports = state
            .checker
            .update(&self.paragraphs, &delta.added, &delta.removed);
        state.edits_since_compact += 1;
        if state.edits_since_compact >= COMPACT_INTERVAL {
            state.checker.compact(&self.paragraphs);
            state.edits_since_compact = 0;
        }
        if reports.is_empty() {
            return Ok(Vec::new());
        }
        let print = state.fingerprinter.fingerprint();
        drop(sessions);
        Ok(self.resolve_matches(reports, &print, &self.paragraphs))
    }

    /// Applies an edit to the keystroke session *without* evaluating
    /// disclosure — for edits whose verdict nobody will read (e.g. a
    /// coalesced keystroke superseded by a newer one). The fingerprint
    /// delta still reaches the incremental checker, so the session stays
    /// exactly as if [`DisclosureEngine::apply_paragraph_edit`] had run.
    ///
    /// # Errors
    ///
    /// Returns [`StaleEditError`] under the same conditions as
    /// [`DisclosureEngine::apply_paragraph_edit`].
    pub fn absorb_paragraph_edit(
        &self,
        doc: &DocKey,
        index: usize,
        edit: &TextEdit,
    ) -> Result<(), StaleEditError> {
        let key = SegmentKey::paragraph(doc.clone(), index);
        let id = self.segment_id(&key);
        let mut sessions = self.keystrokes.lock();
        let state = self.edit_session(&mut sessions, id, &key, edit)?;
        self.incremental_absorbs.fetch_add(1, Ordering::Relaxed);
        let delta = state.fingerprinter.apply_edit(edit);
        state
            .checker
            .absorb(&self.paragraphs, &delta.added, &delta.removed);
        state.edits_since_compact += 1;
        if state.edits_since_compact >= COMPACT_INTERVAL {
            state.checker.compact(&self.paragraphs);
            state.edits_since_compact = 0;
        }
        Ok(())
    }

    /// Runs `f` on the keystroke session's current text for a paragraph,
    /// or returns `None` if no session exists. Borrows the text in place —
    /// no copy — which is what per-keystroke scans (e.g. short-secret
    /// matching) want.
    pub fn with_keystroke_text<R>(
        &self,
        doc: &DocKey,
        index: usize,
        f: impl FnOnce(&str) -> R,
    ) -> Option<R> {
        let key = SegmentKey::paragraph(doc.clone(), index);
        let id = self.segment_id_readonly(&key)?;
        let sessions = self.keystrokes.lock();
        sessions.get(&id).map(|state| f(state.fingerprinter.text()))
    }

    /// Drops a paragraph's keystroke session (if any), e.g. after the
    /// editor reloaded the document or a [`StaleEditError`]. The next edit
    /// starts a fresh session from empty text. Returns whether a session
    /// existed.
    pub fn reset_keystroke_session(&self, doc: &DocKey, index: usize) -> bool {
        let key = SegmentKey::paragraph(doc.clone(), index);
        let Some(id) = self.segment_id_readonly(&key) else {
            return false;
        };
        self.keystrokes.lock().remove(&id).is_some()
    }

    /// Number of live keystroke sessions.
    pub fn keystroke_session_count(&self) -> usize {
        self.keystrokes.lock().len()
    }

    /// Validates `edit` against the session for `id` (creating an empty
    /// session on first use) and hands out the mutable state.
    fn edit_session<'s>(
        &self,
        sessions: &'s mut FxHashMap<SegmentId, KeystrokeState>,
        id: SegmentId,
        key: &SegmentKey,
        edit: &TextEdit,
    ) -> Result<&'s mut KeystrokeState, StaleEditError> {
        let now = self.paragraphs.now();
        let state = sessions.entry(id).or_insert_with(|| KeystrokeState {
            fingerprinter: IncrementalFingerprinter::new(self.config.fingerprint),
            checker: IncrementalChecker::new(id),
            edits_since_compact: 0,
            last_activity: now,
        });
        if !edit.applies_to(state.fingerprinter.text()) {
            return Err(StaleEditError { key: key.clone() });
        }
        state.last_activity = now;
        Ok(state)
    }

    /// Counters of how checks reached the fingerprinting layer: full
    /// recomputations vs incremental keystroke edits (checked or merely
    /// absorbed). Returned as
    /// `(full_checks, incremental_checks, incremental_absorbs)`.
    pub fn fingerprint_mode(&self) -> (u64, u64, u64) {
        (
            self.full_checks.load(Ordering::Relaxed),
            self.incremental_checks.load(Ordering::Relaxed),
            self.incremental_absorbs.load(Ordering::Relaxed),
        )
    }

    /// Which fingerprint kernel this engine's checks dispatch to (scalar
    /// reference or a runtime-detected SIMD path); surfaced through
    /// [`FingerprintModeStats`](crate::FingerprintModeStats).
    pub fn fingerprint_kernel(&self) -> KernelKind {
        browserflow_fingerprint::active_kernel()
    }

    fn resolve_matches(
        &self,
        reports: Vec<browserflow_store::DisclosureReport>,
        target: &Fingerprint,
        store: &FingerprintStore,
    ) -> Vec<DisclosureMatch> {
        let registry = self.registry.read();
        reports
            .into_iter()
            .filter_map(|r| {
                let key = registry.keys.get(&r.source)?;
                let matching_spans = match store.segment(r.source) {
                    Some(stored) => target
                        .iter()
                        .filter(|entry| stored.contains(entry.hash()))
                        .map(|entry| entry.span())
                        .collect(),
                    None => Vec::new(),
                };
                Some(DisclosureMatch {
                    source: key.clone(),
                    disclosure: r.disclosure,
                    threshold: r.threshold,
                    matching_spans,
                })
            })
            .collect()
    }

    /// Number of distinct hashes across the paragraph store (used by the
    /// Figure 13 scalability experiment).
    pub fn paragraph_hash_count(&self) -> usize {
        self.paragraphs.hash_count()
    }

    /// Number of tracked paragraph segments.
    pub fn paragraph_count(&self) -> usize {
        self.paragraphs.segment_count()
    }

    /// Number of tracked document segments.
    pub fn document_count(&self) -> usize {
        self.documents.segment_count()
    }

    /// Cache (hits, misses) counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// The paragraph-granularity store (read access, for persistence).
    pub fn paragraph_store(&self) -> &FingerprintStore {
        &self.paragraphs
    }

    /// The document-granularity store (read access, for persistence).
    pub fn document_store(&self) -> &FingerprintStore {
        &self.documents
    }

    /// A snapshot of the key↔id registry (for persistence).
    pub fn key_map(&self) -> Vec<(SegmentKey, SegmentId)> {
        let registry = self.registry.read();
        let mut entries: Vec<(SegmentKey, SegmentId)> =
            registry.ids.iter().map(|(k, &v)| (k.clone(), v)).collect();
        entries.sort_by_key(|entry| entry.1);
        entries
    }

    /// Reassembles an engine from persisted parts (see
    /// [`crate::BrowserFlow::export_sealed`]). The decision cache starts
    /// cold.
    pub fn from_parts(
        config: EngineConfig,
        paragraphs: FingerprintStore,
        documents: FingerprintStore,
        key_map: Vec<(SegmentKey, SegmentId)>,
    ) -> Self {
        let mut registry = SegmentRegistry::default();
        for (key, id) in key_map {
            registry.next_id = registry.next_id.max(id.get() + 1);
            registry.ids.insert(key.clone(), id);
            registry.keys.insert(id, key);
        }
        Self {
            config,
            fingerprinter: Fingerprinter::new(config.fingerprint),
            paragraphs,
            documents,
            registry: RwLock::new(registry),
            cache: DecisionCache::new(),
            keystrokes: Mutex::new(FxHashMap::default()),
            full_checks: AtomicU64::new(0),
            incremental_checks: AtomicU64::new(0),
            incremental_absorbs: AtomicU64::new(0),
        }
    }

    /// Number of entries in the key↔id registry.
    pub fn registered_segment_count(&self) -> usize {
        self.registry.read().ids.len()
    }

    /// Evicts every paragraph fingerprint stored before this call (the
    /// periodic old-fingerprint removal of §4.4). Evicted segments are no
    /// longer reported as sources; re-observing re-establishes tracking.
    /// Returns how many segments were evicted.
    ///
    /// Derived per-segment state rides along with the sweep: the evicted
    /// segments' key↔id registry entries are dropped (they would otherwise
    /// accumulate forever under churn), and keystroke sessions that are
    /// either attached to a victim or idle since before the cutoff are
    /// closed, so million-user traffic cannot grow the session map without
    /// bound.
    pub fn evict_paragraphs_older_than_now(&self) -> usize {
        let cutoff = self.paragraphs.now();
        let victims = self.paragraphs.evict_segments_older_than(cutoff);
        if !victims.is_empty() {
            let mut registry = self.registry.write();
            for id in &victims {
                if let Some(key) = registry.keys.remove(id) {
                    registry.ids.remove(&key);
                }
            }
        }
        // A victim's session must go regardless of activity (its store
        // entry is gone); an idle survivor's session goes too, since no
        // edit has touched it since before every currently-stored
        // fingerprint. Sessions touched after the last observation have
        // `last_activity == cutoff` and survive.
        self.keystrokes
            .lock()
            .retain(|id, state| !victims.contains(id) && state.last_activity >= cutoff);
        if !victims.is_empty() {
            self.cache.clear();
        }
        victims.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browserflow_fingerprint::FingerprintConfig;

    fn engine() -> DisclosureEngine {
        DisclosureEngine::new(EngineConfig {
            fingerprint: FingerprintConfig::builder()
                .ngram_len(6)
                .window(4)
                .build()
                .unwrap(),
            ..EngineConfig::default()
        })
    }

    const SECRET: &str = "the confidential interview rubric awards extra points for \
                          candidates who ask incisive clarifying questions early";

    #[test]
    fn observe_then_check_roundtrip() {
        let engine = engine();
        let wiki = DocKey::new("wiki", "rubric");
        engine.observe_paragraph(&wiki, 0, SECRET, None);
        let gdocs = DocKey::new("gdocs", "draft");
        let matches = engine.check_paragraph(&gdocs, 0, SECRET);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].source, SegmentKey::paragraph(wiki, 0));
        assert!(matches[0].disclosure > 0.99);
    }

    #[test]
    fn batched_observe_matches_sequential() {
        let singles = engine();
        let batched = engine();
        let doc = DocKey::new("wiki", "handbook");
        let paragraphs: Vec<(usize, String)> = (0..12)
            .map(|i| {
                (
                    i,
                    format!("{SECRET} with paragraph-specific suffix number {i}"),
                )
            })
            .collect();
        let mut single_ids = Vec::new();
        for (i, text) in &paragraphs {
            single_ids.push(singles.observe_paragraph(&doc, *i, text, None));
        }
        let slots: Vec<(usize, &str)> = paragraphs.iter().map(|(i, t)| (*i, t.as_str())).collect();
        let batch_ids = batched.observe_paragraphs(&doc, &slots, None);
        assert_eq!(batch_ids, single_ids);
        // Both ingests must answer checks identically.
        let probe = DocKey::new("gdocs", "draft");
        for (_, text) in &paragraphs {
            let a = singles.check_paragraph(&probe, 0, text);
            let b = batched.check_paragraph(&probe, 0, text);
            assert_eq!(a.len(), b.len());
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn kernel_is_surfaced() {
        let engine = engine();
        assert_eq!(
            engine.fingerprint_kernel(),
            browserflow_fingerprint::active_kernel()
        );
    }

    #[test]
    fn self_check_reports_nothing() {
        let engine = engine();
        let wiki = DocKey::new("wiki", "rubric");
        engine.observe_paragraph(&wiki, 0, SECRET, None);
        assert!(engine.check_paragraph(&wiki, 0, SECRET).is_empty());
    }

    #[test]
    fn cache_hits_on_unchanged_fingerprint() {
        let engine = engine();
        let wiki = DocKey::new("wiki", "rubric");
        engine.observe_paragraph(&wiki, 0, SECRET, None);
        let gdocs = DocKey::new("gdocs", "draft");
        engine.check_paragraph(&gdocs, 0, SECRET);
        let (hits_before, _) = engine.cache_stats();
        engine.check_paragraph(&gdocs, 0, SECRET);
        let (hits_after, _) = engine.cache_stats();
        assert_eq!(hits_after, hits_before + 1);
    }

    #[test]
    fn observation_invalidates_cache() {
        let engine = engine();
        let wiki = DocKey::new("wiki", "rubric");
        engine.observe_paragraph(&wiki, 0, SECRET, None);
        let gdocs = DocKey::new("gdocs", "draft");
        assert_eq!(engine.check_paragraph(&gdocs, 0, SECRET).len(), 1);
        // The gdocs paragraph is observed (stored); its cached decision must
        // be invalidated so the next check is recomputed.
        engine.observe_paragraph(&gdocs, 0, SECRET, None);
        let matches = engine.check_paragraph(&gdocs, 0, SECRET);
        assert_eq!(matches.len(), 1, "still discloses the wiki source");
    }

    #[test]
    fn document_and_paragraph_granularities_are_independent() {
        let engine = engine();
        let wiki = DocKey::new("wiki", "rubric");
        engine.observe_document(&wiki, SECRET, None);
        // Only the document store knows the text.
        let gdocs = DocKey::new("gdocs", "draft");
        assert!(engine.check_paragraph(&gdocs, 0, SECRET).is_empty());
        assert_eq!(engine.check_document(&gdocs, SECRET).len(), 1);
        // Checks allocate ids but only observations store fingerprints.
        assert_eq!(engine.document_count(), 1);
        assert_eq!(engine.paragraph_count(), 0);
    }

    #[test]
    fn segment_keys_display() {
        let doc = DocKey::new("wiki", "rubric");
        assert_eq!(
            SegmentKey::paragraph(doc.clone(), 3).to_string(),
            "wiki/rubric#p3"
        );
        assert_eq!(SegmentKey::document(doc).to_string(), "wiki/rubric");
    }

    #[test]
    fn keystroke_session_matches_full_checks() {
        let engine = engine();
        let wiki = DocKey::new("wiki", "rubric");
        engine.observe_paragraph(&wiki, 0, SECRET, None);
        let gdocs = DocKey::new("gdocs", "draft");

        // Type the secret character by character through the edit path;
        // every step must agree with the full-text check.
        let mut typed = String::new();
        for ch in SECRET.chars() {
            let at = typed.len();
            let incremental = engine
                .apply_paragraph_edit(&gdocs, 0, &TextEdit::insert(at, ch.to_string()))
                .unwrap();
            typed.push(ch);
            let full = engine.check_paragraph(&gdocs, 0, &typed);
            assert_eq!(incremental, full, "divergence after {:?}", typed.len());
        }
        let (full, incremental, absorbs) = engine.fingerprint_mode();
        assert_eq!(incremental, SECRET.chars().count() as u64);
        assert_eq!(absorbs, 0);
        assert!(full >= incremental); // one full check per comparison step
        assert_eq!(engine.keystroke_session_count(), 1);
    }

    #[test]
    fn keystroke_deletions_clear_matches() {
        let engine = engine();
        let wiki = DocKey::new("wiki", "rubric");
        engine.observe_paragraph(&wiki, 0, SECRET, None);
        let gdocs = DocKey::new("gdocs", "draft");
        let matches = engine
            .apply_paragraph_edit(&gdocs, 0, &TextEdit::insert(0, SECRET))
            .unwrap();
        assert_eq!(matches.len(), 1);
        // Delete everything: no disclosure left.
        let matches = engine
            .apply_paragraph_edit(&gdocs, 0, &TextEdit::delete(0..SECRET.len()))
            .unwrap();
        assert!(matches.is_empty());
    }

    #[test]
    fn absorbed_edits_keep_the_session_consistent() {
        let engine = engine();
        let wiki = DocKey::new("wiki", "rubric");
        engine.observe_paragraph(&wiki, 0, SECRET, None);
        let gdocs = DocKey::new("gdocs", "draft");
        // Absorb the paste (superseded keystroke), then check a trailing
        // edit: the verdict reflects the absorbed content too.
        engine
            .absorb_paragraph_edit(&gdocs, 0, &TextEdit::insert(0, SECRET))
            .unwrap();
        let matches = engine
            .apply_paragraph_edit(&gdocs, 0, &TextEdit::insert(SECRET.len(), " x"))
            .unwrap();
        assert_eq!(matches.len(), 1);
        let (_, incremental, absorbs) = engine.fingerprint_mode();
        assert_eq!((incremental, absorbs), (1, 1));
    }

    #[test]
    fn stale_edit_is_rejected_and_session_resettable() {
        let engine = engine();
        let gdocs = DocKey::new("gdocs", "draft");
        // Out-of-bounds against the (empty) fresh session.
        let err = engine
            .apply_paragraph_edit(&gdocs, 0, &TextEdit::delete(0..4))
            .unwrap_err();
        assert_eq!(err.key, SegmentKey::paragraph(gdocs.clone(), 0));
        // The session survives a stale edit untouched and can be reset.
        engine
            .apply_paragraph_edit(&gdocs, 0, &TextEdit::insert(0, "abc"))
            .unwrap();
        assert!(engine
            .with_keystroke_text(&gdocs, 0, |text| text == "abc")
            .unwrap());
        assert!(engine.reset_keystroke_session(&gdocs, 0));
        assert!(!engine.reset_keystroke_session(&gdocs, 0));
        assert_eq!(engine.with_keystroke_text(&gdocs, 0, str::len), None);
    }

    #[test]
    fn eviction_sweep_cleans_registry_and_idle_sessions() {
        let engine = engine();
        let wiki = DocKey::new("wiki", "rubric");
        let gdocs = DocKey::new("gdocs", "draft");
        engine.observe_paragraph(&wiki, 0, SECRET, None);
        // An idle keystroke session, last touched before the next store
        // observation.
        engine
            .apply_paragraph_edit(&gdocs, 0, &TextEdit::insert(0, "typed early"))
            .unwrap();
        engine.observe_paragraph(
            &wiki,
            1,
            "another paragraph with enough words to fingerprint",
            None,
        );
        // A fresh session, touched after every store observation.
        engine
            .apply_paragraph_edit(&gdocs, 1, &TextEdit::insert(0, "typed late"))
            .unwrap();
        assert_eq!(engine.registered_segment_count(), 4);
        assert_eq!(engine.keystroke_session_count(), 2);

        assert_eq!(engine.evict_paragraphs_older_than_now(), 2);
        // Both evicted paragraphs left the registry; the checked-only
        // gdocs keys stay (they own no store entry to evict).
        assert_eq!(engine.registered_segment_count(), 2);
        assert_eq!(engine.paragraph_count(), 0);
        assert!(engine
            .segment_id_readonly(&SegmentKey::paragraph(wiki.clone(), 0))
            .is_none());
        // The idle session died with the sweep; the fresh one survives.
        assert_eq!(engine.keystroke_session_count(), 1);
        assert!(engine.with_keystroke_text(&gdocs, 0, str::len).is_none());
        assert!(engine
            .with_keystroke_text(&gdocs, 1, |text| text == "typed late")
            .unwrap());
    }

    #[test]
    fn threshold_override() {
        let engine = engine();
        let wiki = DocKey::new("wiki", "rubric");
        engine.observe_paragraph(&wiki, 0, SECRET, Some(1.0));
        let gdocs = DocKey::new("gdocs", "draft");
        // Half the text does not meet a 1.0 threshold.
        let half = &SECRET[..SECRET.len() / 2];
        assert!(engine.check_paragraph(&gdocs, 0, half).is_empty());
        assert!(engine.set_paragraph_threshold(&wiki, 0, 0.1));
        // Invalidate the cached decision by changing the checked text
        // (different digest) — then the lower threshold fires.
        let half_edited = format!("{half} trailing words");
        assert_eq!(engine.check_paragraph(&gdocs, 0, &half_edited).len(), 1);
    }

    #[test]
    fn worker_panic_is_a_typed_error_not_an_abort() {
        let _guard = test_hooks::lock();
        let engine = engine();
        let wiki = DocKey::new("wiki", "rubric");
        engine.observe_paragraph(&wiki, 0, SECRET, None);
        let gdocs = DocKey::new("gdocs", "draft");
        let poisoned = format!("{SECRET} {}", test_hooks::FAULT_MARKER);
        let batch: Vec<(usize, &str)> = vec![(0, SECRET), (1, &poisoned), (2, SECRET)];

        test_hooks::set_panic_on_marker(true);
        // Single-threaded path: the panic is caught, not propagated.
        let single = engine.check_paragraphs_at(&gdocs, &batch, 1);
        assert!(matches!(single, Err(WorkerPanic { .. })));
        // Fan-out path: every worker handle is joined, the first panic wins.
        let threaded = engine.check_paragraphs_at(&gdocs, &batch, 3);
        assert_eq!(threaded.unwrap_err().detail, "injected test panic");
        test_hooks::set_panic_on_marker(false);

        // The engine survives the poisoned batch: stores and registry are
        // intact and the same request now succeeds.
        let ok = engine
            .check_paragraphs_at(&gdocs, &batch, 3)
            .expect("engine usable after a contained panic");
        assert_eq!(ok.len(), 3);
        assert_eq!(ok[0].len(), 1, "clean paragraph still discloses");
    }
}
