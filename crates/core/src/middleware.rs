//! The BrowserFlow middleware: policy lookup + policy enforcement.
//!
//! Figure 1 of the paper: the plug-in intercepts data from browser tabs
//! before it is sent to the remote servers. A *policy lookup* module
//! extracts the security label associated with the text being uploaded
//! (via imprecise data flow tracking), and a *policy enforcement* module
//! compares that label with the destination service's privilege label and
//! takes the appropriate action — permit, warn, block, or encrypt.

use crate::engine::{
    DisclosureEngine, DisclosureMatch, DocKey, EngineConfig, SegmentKey, StaleEditError,
    WorkerPanic,
};
use crate::lineage::{
    ContainmentReceipt, ExfiltrationAlert, ExfiltrationSentinel, FlowOperation, LineageCodecError,
    LineageGraph, SentinelConfig,
};
use crate::request::CheckRequest;
use crate::short_secret::ShortSecret;
use browserflow_fingerprint::TextEdit;
use browserflow_store::{SegmentId, StoreKey};
use browserflow_tdm::{Policy, PolicyError, SegmentLabel, Service, ServiceId, Tag, TagSet, UserId};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// What the enforcement module does when an upload violates the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnforcementMode {
    /// Advisory (the paper's default posture): record a warning — shown as
    /// a red paragraph background — but let the upload proceed; the user
    /// makes the final disclosure decision.
    #[default]
    Advisory,
    /// Suppress violating uploads.
    Block,
    /// Encrypt violating uploads before transmission (§5: "can also
    /// encrypt confidential data before upload").
    Encrypt,
}

/// The action BrowserFlow takes for one upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UploadAction {
    /// No violation: release in plain text.
    Allow,
    /// Violation under [`EnforcementMode::Advisory`]: warn but release.
    Warn,
    /// Violation under [`EnforcementMode::Block`]: suppress.
    Block,
    /// Violation under [`EnforcementMode::Encrypt`]: encrypt before upload.
    Encrypt,
}

/// One policy violation behind a non-allow decision.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Violation {
    /// The source segment whose data the upload would disclose.
    pub source: SegmentKey,
    /// Measured disclosure of that source by the uploaded text.
    pub disclosure: f64,
    /// The tags the destination service lacks.
    pub missing_tags: TagSet,
    /// Byte ranges of the uploaded text that match the source — what the
    /// UI highlights when warning the user (paper Figure 2).
    pub matching_spans: Vec<std::ops::Range<usize>>,
}

/// The outcome of one checked upload ([`BrowserFlow::check_one`]).
#[derive(Debug, Clone, PartialEq)]
pub struct UploadDecision {
    /// What to do with the upload.
    pub action: UploadAction,
    /// The violations (empty when `action` is [`UploadAction::Allow`]).
    pub violations: Vec<Violation>,
}

impl UploadDecision {
    /// Whether the upload may reach the service in plain text.
    pub fn releases_plaintext(&self) -> bool {
        matches!(self.action, UploadAction::Allow | UploadAction::Warn)
    }
}

/// A recorded warning (the advisory UI trail: which paragraph went red,
/// when, and why).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Warning {
    /// The segment the user was editing.
    pub segment: SegmentKey,
    /// The destination service of the intercepted upload.
    pub destination: ServiceId,
    /// The violations that triggered the warning.
    pub violations: Vec<Violation>,
}

/// The status of a paragraph after [`BrowserFlow::observe_paragraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParagraphStatus {
    /// The paragraph's segment id.
    pub segment: SegmentId,
    /// The label the lookup module computed for it.
    pub label: SegmentLabel,
    /// Sources it currently discloses.
    pub matches: Vec<DisclosureMatch>,
    /// Whether the paragraph should be flagged in the UI (it discloses
    /// data its own service is not privileged to hold).
    pub flagged: bool,
}

/// Errors from middleware operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MiddlewareError {
    /// The policy rejected the operation.
    Policy(PolicyError),
    /// The referenced segment has never been observed.
    UnknownSegment {
        /// The key that failed to resolve.
        key: String,
    },
    /// A keystroke edit does not apply to the engine's session state (the
    /// editor and the middleware diverged); reset the session and reseed.
    StaleEdit(StaleEditError),
    /// A check worker panicked; the panic was contained at the join
    /// boundary and the middleware remains usable.
    WorkerPanic(WorkerPanic),
}

impl fmt::Display for MiddlewareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiddlewareError::Policy(e) => write!(f, "policy error: {e}"),
            MiddlewareError::UnknownSegment { key } => {
                write!(f, "segment {key} has never been observed")
            }
            MiddlewareError::StaleEdit(e) => write!(f, "{e}"),
            MiddlewareError::WorkerPanic(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MiddlewareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MiddlewareError::Policy(e) => Some(e),
            MiddlewareError::UnknownSegment { .. } => None,
            MiddlewareError::StaleEdit(e) => Some(e),
            MiddlewareError::WorkerPanic(e) => Some(e),
        }
    }
}

impl From<StaleEditError> for MiddlewareError {
    fn from(e: StaleEditError) -> Self {
        MiddlewareError::StaleEdit(e)
    }
}

impl From<WorkerPanic> for MiddlewareError {
    fn from(e: WorkerPanic) -> Self {
        MiddlewareError::WorkerPanic(e)
    }
}

impl From<PolicyError> for MiddlewareError {
    fn from(e: PolicyError) -> Self {
        MiddlewareError::Policy(e)
    }
}

/// Error building a [`BrowserFlow`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// A service was registered twice.
    Policy(PolicyError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Policy(e) => write!(f, "invalid policy: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`BrowserFlow`].
#[derive(Debug, Default)]
pub struct BrowserFlowBuilder {
    policy: Option<Policy>,
    services: Vec<Service>,
    engine: EngineConfig,
    mode: EnforcementMode,
    store_key: Option<StoreKey>,
    sentinel: SentinelConfig,
}

impl BrowserFlowBuilder {
    /// Starts from a complete policy (e.g. loaded from a `bfctl`-authored
    /// JSON file). Services added with [`BrowserFlowBuilder::service`] are
    /// registered on top.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Registers a service with its labels.
    pub fn service(mut self, service: Service) -> Self {
        self.services.push(service);
        self
    }

    /// Sets the engine configuration (fingerprinting + thresholds).
    pub fn engine(mut self, config: EngineConfig) -> Self {
        self.engine = config;
        self
    }

    /// Sets the enforcement mode for violations.
    pub fn mode(mut self, mode: EnforcementMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the key used to encrypt uploads under
    /// [`EnforcementMode::Encrypt`] and fingerprint data at rest.
    pub fn store_key(mut self, key: StoreKey) -> Self {
        self.store_key = Some(key);
        self
    }

    /// Tunes the exfiltration sentinel (chain-length floor, walk depth,
    /// alert retention).
    pub fn sentinel(mut self, config: SentinelConfig) -> Self {
        self.sentinel = config;
        self
    }

    /// Builds the middleware.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Policy`] if two services share an id.
    pub fn build(self) -> Result<BrowserFlow, BuildError> {
        let mut policy = self.policy.unwrap_or_default();
        for service in self.services {
            policy.register(service).map_err(BuildError::Policy)?;
        }
        Ok(BrowserFlow {
            engine: DisclosureEngine::new(self.engine),
            policy,
            labels: RwLock::new(HashMap::new()),
            mode: self.mode,
            warnings: Mutex::new(Vec::new()),
            store_key: self
                .store_key
                .unwrap_or_else(|| StoreKey::from_bytes([0u8; 32])),
            short_secrets: Vec::new(),
            lineage: LineageGraph::new(),
            sentinel: ExfiltrationSentinel::new(self.sentinel),
            alerts: Mutex::new(Vec::new()),
            alert_seq: AtomicU64::new(0),
        })
    }
}

/// The BrowserFlow middleware.
///
/// Observation and enforcement (`observe_*`, `check_*`, `seal_body`) take
/// `&self`: the label map sits behind an [`RwLock`], the warning trail
/// behind a [`Mutex`], seal nonces come from a process-wide counter, and
/// the engine's stores are internally sharded — so concurrent interception
/// hooks share one instance without an external lock. Administrative operations
/// (policy edits, tag suppression, mode changes) still take `&mut self`.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct BrowserFlow {
    engine: DisclosureEngine,
    policy: Policy,
    labels: RwLock<HashMap<SegmentId, SegmentLabel>>,
    mode: EnforcementMode,
    warnings: Mutex<Vec<Warning>>,
    store_key: StoreKey,
    short_secrets: Vec<ShortSecret>,
    lineage: LineageGraph,
    sentinel: ExfiltrationSentinel,
    alerts: Mutex<Vec<ExfiltrationAlert>>,
    alert_seq: AtomicU64,
}

impl BrowserFlow {
    /// Starts building a middleware instance.
    pub fn builder() -> BrowserFlowBuilder {
        BrowserFlowBuilder::default()
    }

    /// The data disclosure policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Mutable policy access (admin operations).
    pub fn policy_mut(&mut self) -> &mut Policy {
        &mut self.policy
    }

    /// The disclosure engine.
    pub fn engine(&self) -> &DisclosureEngine {
        &self.engine
    }

    /// Mutable engine access.
    pub fn engine_mut(&mut self) -> &mut DisclosureEngine {
        &mut self.engine
    }

    /// The enforcement mode.
    pub fn mode(&self) -> EnforcementMode {
        self.mode
    }

    /// Changes the enforcement mode.
    pub fn set_mode(&mut self, mode: EnforcementMode) {
        self.mode = mode;
    }

    /// A snapshot of the recorded warnings, oldest first.
    pub fn warnings(&self) -> Vec<Warning> {
        self.warnings.lock().clone()
    }

    /// Warnings whose intercepted upload targeted `service`.
    pub fn warnings_for(&self, service: &ServiceId) -> Vec<Warning> {
        self.warnings
            .lock()
            .iter()
            .filter(|w| &w.destination == service)
            .cloned()
            .collect()
    }

    /// Clears the warning trail (e.g. after the user reviewed it).
    pub fn clear_warnings(&mut self) {
        self.warnings.lock().clear();
    }

    /// The cross-service lineage graph (append-only flow-edge record).
    pub fn lineage(&self) -> &LineageGraph {
        &self.lineage
    }

    /// Alerts raised by the exfiltration sentinel, oldest first.
    pub fn alerts(&self) -> Vec<ExfiltrationAlert> {
        self.alerts.lock().clone()
    }

    /// Serialises the lineage graph and alert trail into the deterministic
    /// snapshot format ([`crate::lineage::encode_snapshot`]): identical
    /// state always yields identical bytes, so drain → restore round-trips
    /// are byte-for-byte.
    pub fn lineage_snapshot(&self) -> Vec<u8> {
        crate::lineage::encode_snapshot(&self.lineage, &self.alerts.lock())
    }

    /// Restores the lineage graph and alert trail from snapshot bytes
    /// (persistence path). Fails closed on damaged snapshots.
    ///
    /// # Errors
    ///
    /// Returns the codec error when the snapshot is truncated, corrupt,
    /// or from an unknown format version; the flow is left unchanged.
    pub fn restore_lineage(&mut self, bytes: &[u8]) -> Result<(), LineageCodecError> {
        let (graph, alerts) = crate::lineage::decode_snapshot(bytes)?;
        self.alert_seq = AtomicU64::new(alerts.iter().map(|a| a.id).max().unwrap_or(0));
        self.lineage = graph;
        *self.alerts.lock() = alerts;
        Ok(())
    }

    /// **Policy lookup** (Figure 1, §3): text appeared (or changed) in a
    /// paragraph of `document` in `service`.
    ///
    /// Computes the paragraph's label — the service's confidentiality
    /// label as explicit tags, plus the explicit tags of every source it
    /// currently discloses as implicit tags (§3.2) — stores its
    /// fingerprint, and reports whether the paragraph should be flagged in
    /// the UI.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Policy`] if `service` is not registered.
    pub fn observe_paragraph(
        &self,
        service: &ServiceId,
        document: &str,
        index: usize,
        text: &str,
    ) -> Result<ParagraphStatus, MiddlewareError> {
        let doc = DocKey::new(service.clone(), document);
        // Lookup must run before observation so the segment does not
        // shadow its own sources' hashes.
        let matches = self.engine.check_paragraph(&doc, index, text);
        let mut label = self.policy.initial_label(service)?;
        {
            let labels = self.labels.read();
            for m in &matches {
                if let Some(source_id) = self.lookup_segment_id(&m.source) {
                    if let Some(source_label) = labels.get(&source_id) {
                        label.absorb_source(source_label);
                    }
                }
            }
        }
        let segment = self.engine.observe_paragraph(&doc, index, text, None);
        self.labels.write().insert(segment, label.clone());
        // Lineage: tracked text from another service landed here. All
        // edges of this observation append as one batch — a single graph
        // lock round-trip with consecutive clocks.
        let into_key = SegmentKey::paragraph(doc, index);
        let edges: Vec<_> = matches
            .iter()
            .filter(|m| m.source.doc.service != *service)
            .map(|m| {
                (
                    m.source.doc.service.as_str().to_string(),
                    service.as_str().to_string(),
                    m.source.to_string(),
                    into_key.to_string(),
                    FlowOperation::Observe,
                )
            })
            .collect();
        self.lineage.record_batch(edges);
        // Flag when the paragraph's own service lacks privilege for it.
        let flagged = !self.policy.check_release(&label, service)?.is_permitted();
        Ok(ParagraphStatus {
            segment,
            label,
            matches,
            flagged,
        })
    }

    /// Indexes a whole plain-text document: splits it into
    /// blank-line-separated paragraphs, observes each at paragraph
    /// granularity and the full text at document granularity (§4.1's two
    /// independent granularities, for callers without a DOM — clipboard
    /// payloads, file uploads, `bfctl` inputs).
    ///
    /// All paragraphs ingest through the batched path
    /// ([`DisclosureEngine::observe_paragraphs`]): fingerprinting fans out
    /// over the worker pool and the store takes one stripe-lock round-trip
    /// per touched stripe — semantically identical to indexing each
    /// paragraph with [`BrowserFlow::index_paragraph`] in order.
    ///
    /// Returns the number of paragraphs indexed.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Policy`] if `service` is not registered.
    pub fn index_text_document(
        &self,
        service: &ServiceId,
        document: &str,
        text: &str,
    ) -> Result<usize, MiddlewareError> {
        self.policy.service(service)?;
        let label = self.policy.initial_label(service)?;
        let segments = browserflow_fingerprint::segment::split_paragraphs(text);
        let doc = DocKey::new(service.clone(), document);
        let items: Vec<(usize, &str)> = segments
            .iter()
            .enumerate()
            .map(|(index, segment)| (index, segment.text))
            .collect();
        let ids = self.engine.observe_paragraphs(&doc, &items, None);
        {
            let mut labels = self.labels.write();
            for &id in &ids {
                labels.insert(id, label.clone());
            }
        }
        self.observe_document(service, document, text)?;
        Ok(segments.len())
    }

    /// Fast-path observation for indexing an existing corpus: assigns the
    /// service's confidentiality label and stores the fingerprint
    /// *without* running the disclosure lookup first.
    ///
    /// Use this when provisioning BrowserFlow with a large body of
    /// already-trusted content (the paper loads 90 MB of e-books); use
    /// [`BrowserFlow::observe_paragraph`] for interactive edits, where the
    /// lookup derives implicit tags.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Policy`] if `service` is not registered.
    pub fn index_paragraph(
        &self,
        service: &ServiceId,
        document: &str,
        index: usize,
        text: &str,
    ) -> Result<SegmentId, MiddlewareError> {
        let label = self.policy.initial_label(service)?;
        let doc = DocKey::new(service.clone(), document);
        let segment = self.engine.observe_paragraph(&doc, index, text, None);
        self.labels.write().insert(segment, label);
        Ok(segment)
    }

    /// Bulk-ingests pre-split paragraph slots of one document — the
    /// batched counterpart of [`BrowserFlow::index_paragraph`], and what
    /// the daemon's `ObserveBatch` request lands on.
    ///
    /// Like `index_paragraph`, this is the fast provisioning path: each
    /// slot gets the service's confidentiality label and its fingerprint
    /// stored *without* a per-paragraph disclosure lookup first.
    /// Mechanically it rides the batched pipeline end to end —
    /// pool-parallel fingerprinting into one
    /// [`observe_batch`](browserflow_store::FingerprintStore::observe_batch)
    /// — so a whole document costs one stripe-lock round-trip per touched
    /// stripe. Returns the number of paragraphs observed.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Policy`] if `service` is not registered.
    pub fn observe_paragraphs(
        &self,
        service: &ServiceId,
        document: &str,
        paragraphs: &[(usize, &str)],
    ) -> Result<usize, MiddlewareError> {
        self.policy.service(service)?;
        let label = self.policy.initial_label(service)?;
        let doc = DocKey::new(service.clone(), document);
        let ids = self.engine.observe_paragraphs(&doc, paragraphs, None);
        let mut labels = self.labels.write();
        for &id in &ids {
            labels.insert(id, label.clone());
        }
        Ok(ids.len())
    }

    /// Observes a whole document (document-granularity tracking, §4.1).
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Policy`] if `service` is not registered.
    pub fn observe_document(
        &self,
        service: &ServiceId,
        document: &str,
        text: &str,
    ) -> Result<SegmentId, MiddlewareError> {
        self.policy.service(service)?; // validate
        let doc = DocKey::new(service.clone(), document);
        let segment = self.engine.observe_document(&doc, text, None);
        let label = self.policy.initial_label(service)?;
        self.labels.write().insert(segment, label);
        Ok(segment)
    }

    /// **Policy enforcement** (Figure 1, §3) — the unified entry point:
    /// every paragraph slot of `request` is about to be uploaded to the
    /// request's service, and all slots are checked as one batch (one
    /// Algorithm 1 fan-out over up to [`CheckRequest::workers`] threads).
    ///
    /// Decisions come back in slot order, and warnings are recorded in
    /// slot order too, exactly as the equivalent sequence of
    /// single-paragraph requests would produce; under
    /// [`EnforcementMode::Advisory`] each violation is recorded in
    /// [`BrowserFlow::warnings`].
    ///
    /// Sync callers use this directly; async callers submit the same
    /// [`CheckRequest`] through
    /// [`AsyncDecider::check_request`](crate::AsyncDecider::check_request),
    /// which serves it in a single worker round-trip.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Policy`] if the request's service is not
    /// registered.
    pub fn check(
        &self,
        request: &CheckRequest<'_>,
    ) -> Result<Vec<UploadDecision>, MiddlewareError> {
        let service = request.service();
        self.policy.service(service)?; // validate the destination exists
        let doc = DocKey::new(service.clone(), request.document());
        let items: Vec<(usize, &str)> = request
            .paragraphs()
            .iter()
            .map(|p| (p.index, p.text.as_ref()))
            .collect();
        let all_matches = self
            .engine
            .check_paragraphs_at(&doc, &items, request.workers())?;
        let mut decisions = Vec::with_capacity(items.len());
        for (&(index, text), matches) in items.iter().zip(all_matches.iter()) {
            let mut decision = self.decide(service, matches)?;
            let secret_violations = self.short_secret_violations(service, text)?;
            if !secret_violations.is_empty() {
                decision.violations.extend(secret_violations);
                decision.action = self.violation_action();
            }
            let slot_key = SegmentKey::paragraph(doc.clone(), index);
            let warning_index = self.record_warning(service, &slot_key, &decision);
            self.record_flows_and_alerts(
                service,
                &slot_key,
                matches,
                &decision,
                FlowOperation::Check,
                warning_index,
            );
            decisions.push(decision);
        }
        Ok(decisions)
    }

    /// [`BrowserFlow::check`] for single-slot requests: returns the first
    /// (typically only) decision. An empty request yields an allow
    /// decision with no violations.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Policy`] if the request's service is not
    /// registered.
    pub fn check_one(&self, request: &CheckRequest<'_>) -> Result<UploadDecision, MiddlewareError> {
        Ok(self
            .check(request)?
            .into_iter()
            .next()
            .unwrap_or(UploadDecision {
                action: UploadAction::Allow,
                violations: Vec::new(),
            }))
    }

    /// Keystroke-path enforcement: applies one editor edit to the
    /// paragraph's incremental session and decides on the *edited* text.
    ///
    /// The first edit of a session typically inserts the paragraph's
    /// current content at offset 0; each subsequent keystroke submits just
    /// its splice. The engine re-fingerprints only the dirty window around
    /// the edit (§4.3's incremental Algorithm 1), so the per-keystroke cost
    /// is bounded by the edit size plus one winnowing window — not the
    /// paragraph length. Decisions (including short-secret scanning and
    /// the warning trail) are identical to
    /// [`BrowserFlow::check_one`] on the full text.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Policy`] if `service` is not registered,
    /// and [`MiddlewareError::StaleEdit`] if the edit does not apply to the
    /// session (reset with [`BrowserFlow::reset_keystroke_session`] and
    /// reseed with the full text).
    pub fn check_keystroke(
        &self,
        service: &ServiceId,
        document: &str,
        index: usize,
        edit: &TextEdit,
    ) -> Result<UploadDecision, MiddlewareError> {
        self.policy.service(service)?; // validate the destination exists
        let doc = DocKey::new(service.clone(), document);
        let matches = self.engine.apply_paragraph_edit(&doc, index, edit)?;
        let mut decision = self.decide(service, &matches)?;
        let secret_violations = self
            .engine
            .with_keystroke_text(&doc, index, |text| {
                self.short_secret_violations(service, text)
            })
            .transpose()?
            .unwrap_or_default();
        if !secret_violations.is_empty() {
            decision.violations.extend(secret_violations);
            decision.action = self.violation_action();
        }
        let slot_key = SegmentKey::paragraph(doc, index);
        let warning_index = self.record_warning(service, &slot_key, &decision);
        self.record_flows_and_alerts(
            service,
            &slot_key,
            &matches,
            &decision,
            FlowOperation::Keystroke,
            warning_index,
        );
        Ok(decision)
    }

    /// Applies a keystroke edit to the session *without* producing a
    /// decision — the bookkeeping half of [`BrowserFlow::check_keystroke`],
    /// for edits whose verdict nobody will read (a coalesced keystroke
    /// superseded by a newer one). The session state afterwards is exactly
    /// as if the full check had run.
    ///
    /// # Errors
    ///
    /// Same as [`BrowserFlow::check_keystroke`].
    pub fn absorb_keystroke(
        &self,
        service: &ServiceId,
        document: &str,
        index: usize,
        edit: &TextEdit,
    ) -> Result<(), MiddlewareError> {
        self.policy.service(service)?;
        let doc = DocKey::new(service.clone(), document);
        self.engine.absorb_paragraph_edit(&doc, index, edit)?;
        Ok(())
    }

    /// Drops a paragraph's keystroke session (see
    /// [`DisclosureEngine::reset_keystroke_session`]). Returns whether a
    /// session existed.
    pub fn reset_keystroke_session(
        &self,
        service: &ServiceId,
        document: &str,
        index: usize,
    ) -> bool {
        let doc = DocKey::new(service.clone(), document);
        self.engine.reset_keystroke_session(&doc, index)
    }

    /// Document-granularity enforcement: an entire document is about to be
    /// uploaded to `service`.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Policy`] if `service` is not registered.
    pub fn check_document_upload(
        &self,
        service: &ServiceId,
        document: &str,
        text: &str,
    ) -> Result<UploadDecision, MiddlewareError> {
        self.policy.service(service)?; // validate the destination exists
        let doc = DocKey::new(service.clone(), document);
        let matches = self.engine.check_document(&doc, text);
        let mut decision = self.decide(service, &matches)?;
        let secret_violations = self.short_secret_violations(service, text)?;
        if !secret_violations.is_empty() {
            decision.violations.extend(secret_violations);
            decision.action = self.violation_action();
        }
        let slot_key = SegmentKey::document(doc);
        let warning_index = self.record_warning(service, &slot_key, &decision);
        self.record_flows_and_alerts(
            service,
            &slot_key,
            &matches,
            &decision,
            FlowOperation::Upload,
            warning_index,
        );
        Ok(decision)
    }

    fn decide(
        &self,
        service: &ServiceId,
        matches: &[DisclosureMatch],
    ) -> Result<UploadDecision, MiddlewareError> {
        let mut violations = Vec::new();
        let labels = self.labels.read();
        for m in matches {
            let Some(source_id) = self.lookup_segment_id(&m.source) else {
                continue;
            };
            let Some(source_label) = labels.get(&source_id) else {
                continue;
            };
            let release = self.policy.check_release(source_label, service)?;
            let missing = release.missing_tags();
            if !missing.is_empty() {
                violations.push(Violation {
                    source: m.source.clone(),
                    disclosure: m.disclosure,
                    missing_tags: missing,
                    matching_spans: m.matching_spans.clone(),
                });
            }
        }
        let action = if violations.is_empty() {
            UploadAction::Allow
        } else {
            self.violation_action()
        };
        Ok(UploadDecision { action, violations })
    }

    /// Records a warning for a violating decision and returns its index in
    /// the warning trail, read under the same lock as the push so that a
    /// concurrent check cannot slip its own warning in between.
    fn record_warning(
        &self,
        service: &ServiceId,
        segment: &SegmentKey,
        decision: &UploadDecision,
    ) -> Option<u64> {
        if decision.violations.is_empty() {
            return None;
        }
        let mut warnings = self.warnings.lock();
        warnings.push(Warning {
            segment: segment.clone(),
            destination: service.clone(),
            violations: decision.violations.clone(),
        });
        Some((warnings.len() - 1) as u64)
    }

    /// Lineage bookkeeping for a completed check: records a flow edge for
    /// every cross-service source the checked text disclosed, then — when
    /// the check violated, so [`BrowserFlow::record_warning`] returned
    /// `warning_index` — walks the graph backwards from each violating
    /// edge and raises an [`ExfiltrationAlert`] for every multi-hop chain,
    /// with a [`ContainmentReceipt`] tying it to that warning and the
    /// policy audit log.
    fn record_flows_and_alerts(
        &self,
        service: &ServiceId,
        sink_segment: &SegmentKey,
        matches: &[DisclosureMatch],
        decision: &UploadDecision,
        operation: FlowOperation,
        warning_index: Option<u64>,
    ) {
        let into = sink_segment.to_string();
        let edges: Vec<_> = matches
            .iter()
            .filter(|m| m.source.doc.service != *service)
            .map(|m| {
                (
                    m.source.doc.service.as_str().to_string(),
                    service.as_str().to_string(),
                    m.source.to_string(),
                    into.clone(),
                    operation,
                )
            })
            .collect();
        self.lineage.record_batch(edges);
        let Some(warning_index) = warning_index else {
            return;
        };
        let action = match decision.action {
            UploadAction::Allow => "allow",
            UploadAction::Warn => "warn",
            UploadAction::Block => "block",
            UploadAction::Encrypt => "encrypt",
        };
        let audit_len = self.policy.audit_log().len() as u64;
        let config = self.sentinel.config();
        for violation in &decision.violations {
            if violation.source.doc.service == *service {
                continue;
            }
            // Short-secret violations have no recorded flow edge; lookup
            // fails and they stay ordinary warnings.
            let Some(final_hop) = self.lineage.lookup(
                violation.source.doc.service.as_str(),
                service.as_str(),
                &violation.source.to_string(),
                &into,
                operation,
            ) else {
                continue;
            };
            let Some(hops) = self.sentinel.trace(&self.lineage, &final_hop) else {
                continue;
            };
            let hop_clocks: Vec<u64> = hops.iter().map(|h| h.clock).collect();
            let mut alerts = self.alerts.lock();
            // One alert per distinct chain into a sink segment; keystroke
            // storms and re-checks of the same flow raise nothing new.
            if alerts
                .iter()
                .any(|a| a.segment == into && a.receipt.hop_clocks == hop_clocks)
            {
                continue;
            }
            let id = self.alert_seq.fetch_add(1, Ordering::Relaxed) + 1;
            let alert = ExfiltrationAlert {
                id,
                sink: service.as_str().to_string(),
                segment: into.clone(),
                missing_tags: violation
                    .missing_tags
                    .iter()
                    .map(|t| t.name().to_string())
                    .collect(),
                disclosure: violation.disclosure,
                hops,
                clock: self.lineage.clock(),
                receipt: ContainmentReceipt {
                    alert_id: id,
                    action: action.to_string(),
                    hop_clocks,
                    warning_index,
                    audit_len,
                },
            };
            if alerts.len() >= config.max_alerts {
                alerts.remove(0);
            }
            alerts.push(alert);
        }
    }

    /// Sets a tracked paragraph's disclosure threshold `Tpar` (§4.2:
    /// "users should adjust the paragraph and document disclosure
    /// thresholds of the text that they generate according to [...] the
    /// confidentiality of the text"). Returns `false` if the paragraph
    /// was never observed.
    pub fn set_paragraph_threshold(
        &self,
        service: &ServiceId,
        document: &str,
        index: usize,
        threshold: f64,
    ) -> bool {
        let doc = DocKey::new(service.clone(), document);
        self.engine.set_paragraph_threshold(&doc, index, threshold)
    }

    /// Sets a tracked document's disclosure threshold `Tdoc`. Returns
    /// `false` if the document was never observed.
    pub fn set_document_threshold(
        &self,
        service: &ServiceId,
        document: &str,
        threshold: f64,
    ) -> bool {
        let doc = DocKey::new(service.clone(), document);
        self.engine.set_document_threshold(&doc, threshold)
    }

    /// Registers a short secret (password, API key, ...) belonging to
    /// `service`, enforced by normalised exact matching — the specialised
    /// companion to fingerprinting for text below the winnowing guarantee
    /// threshold (§4.4).
    ///
    /// `name` identifies the secret in violation reports; the secret value
    /// itself is never echoed back.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Policy`] if `service` is not registered.
    pub fn register_short_secret(
        &mut self,
        service: &ServiceId,
        name: &str,
        secret: &str,
    ) -> Result<(), MiddlewareError> {
        let label = self.policy.initial_label(service)?;
        let entry = ShortSecret::new(name, service.clone(), label, secret);
        if entry.is_usable() {
            self.short_secrets.push(entry);
        }
        Ok(())
    }

    /// Number of registered (usable) short secrets.
    pub fn short_secret_count(&self) -> usize {
        self.short_secrets.len()
    }

    /// Violations from short secrets appearing in `text` bound for
    /// `service`.
    fn short_secret_violations(
        &self,
        service: &ServiceId,
        text: &str,
    ) -> Result<Vec<Violation>, MiddlewareError> {
        let mut violations = Vec::new();
        for secret in &self.short_secrets {
            let spans = secret.find_in(text);
            if spans.is_empty() {
                continue;
            }
            let release = self.policy.check_release(&secret.label, service)?;
            let missing = release.missing_tags();
            if !missing.is_empty() {
                violations.push(Violation {
                    source: SegmentKey::document(DocKey::new(
                        secret.service.clone(),
                        format!("secret:{}", secret.name),
                    )),
                    disclosure: 1.0,
                    missing_tags: missing,
                    matching_spans: spans,
                });
            }
        }
        Ok(violations)
    }

    /// The stored label of a segment, if it has been observed.
    pub fn segment_label(&self, key: &SegmentKey) -> Option<SegmentLabel> {
        let id = self.lookup_segment_id(key)?;
        self.labels.read().get(&id).cloned()
    }

    /// Suppresses `tag` on an observed paragraph's label on behalf of
    /// `user` (declassification with an audit trail, §3.1).
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::UnknownSegment`] if the paragraph has
    /// never been observed.
    pub fn suppress_tag(
        &mut self,
        key: &SegmentKey,
        tag: &Tag,
        user: &UserId,
        justification: impl Into<String>,
    ) -> Result<bool, MiddlewareError> {
        let id = self
            .lookup_segment_id(key)
            .ok_or_else(|| MiddlewareError::UnknownSegment {
                key: key.to_string(),
            })?;
        let mut labels = self.labels.write();
        let label = labels
            .get_mut(&id)
            .ok_or_else(|| MiddlewareError::UnknownSegment {
                key: key.to_string(),
            })?;
        let suppressed = self.policy.suppress_tag(label, tag, user, justification);
        Ok(suppressed)
    }

    /// Allocates a custom tag for `user` and attaches it (explicit) to an
    /// observed paragraph. The hosting service automatically receives the
    /// tag in its privilege label, so re-observing the same text never
    /// violates (Figure 5 step 2/4).
    ///
    /// # Errors
    ///
    /// Returns a policy error for duplicate tags or unknown services, and
    /// [`MiddlewareError::UnknownSegment`] for unobserved paragraphs.
    pub fn protect_with_custom_tag(
        &mut self,
        key: &SegmentKey,
        tag: Tag,
        user: &UserId,
    ) -> Result<(), MiddlewareError> {
        let id = self
            .lookup_segment_id(key)
            .ok_or_else(|| MiddlewareError::UnknownSegment {
                key: key.to_string(),
            })?;
        self.policy.allocate_custom_tag(tag.clone(), user)?;
        self.policy
            .grant_privilege_unchecked(&key.doc.service, &tag)?;
        let mut labels = self.labels.write();
        let label = labels
            .get_mut(&id)
            .ok_or_else(|| MiddlewareError::UnknownSegment {
                key: key.to_string(),
            })?;
        label.add_explicit(tag);
        Ok(())
    }

    /// Encrypts an upload body under the configured store key (the
    /// [`EnforcementMode::Encrypt`] path). Returns a printable
    /// `bf-sealed:`-prefixed hex payload.
    ///
    /// The key defaults to a zero key if none was configured (tests);
    /// production deployments set one via
    /// [`BrowserFlowBuilder::store_key`]. Nonces come from the
    /// process-wide counter behind [`StoreKey::seal_auto`], so concurrent
    /// sealers — and repeated seals of the same body — never reuse a
    /// keystream.
    pub fn seal_body(&self, body: &str) -> String {
        let sealed = self.store_key.seal_auto(body.as_bytes());
        let mut hex = String::with_capacity(sealed.len() * 2);
        for byte in sealed.ciphertext() {
            use std::fmt::Write as _;
            let _ = write!(hex, "{byte:02x}");
        }
        format!("bf-sealed:{}:{hex}", sealed.nonce())
    }

    /// The action taken for any violation under the current mode.
    fn violation_action(&self) -> UploadAction {
        match self.mode {
            EnforcementMode::Advisory => UploadAction::Warn,
            EnforcementMode::Block => UploadAction::Block,
            EnforcementMode::Encrypt => UploadAction::Encrypt,
        }
    }

    fn lookup_segment_id(&self, key: &SegmentKey) -> Option<SegmentId> {
        // Read-only lookup: never allocates ids for unobserved keys.
        self.engine.segment_id_readonly(key)
    }

    /// A snapshot of all segment labels (persistence path).
    pub(crate) fn labels_snapshot(&self) -> Vec<(SegmentId, SegmentLabel)> {
        let mut entries: Vec<(SegmentId, SegmentLabel)> = self
            .labels
            .read()
            .iter()
            .map(|(&id, label)| (id, label.clone()))
            .collect();
        entries.sort_by_key(|entry| entry.0);
        entries
    }

    /// The store key (persistence path; the zero-key default is
    /// materialised at build time).
    pub(crate) fn store_key_ref(&self) -> &StoreKey {
        &self.store_key
    }

    /// Reassembles a middleware instance from persisted parts.
    pub(crate) fn from_restored(
        engine: DisclosureEngine,
        policy: Policy,
        labels: HashMap<SegmentId, SegmentLabel>,
        mode: EnforcementMode,
        store_key: StoreKey,
        short_secrets: Vec<ShortSecret>,
    ) -> Self {
        Self {
            engine,
            policy,
            labels: RwLock::new(labels),
            mode,
            warnings: Mutex::new(Vec::new()),
            store_key,
            short_secrets,
            lineage: LineageGraph::new(),
            sentinel: ExfiltrationSentinel::default(),
            alerts: Mutex::new(Vec::new()),
            alert_seq: AtomicU64::new(0),
        }
    }

    /// A snapshot of the registered short secrets (persistence path).
    pub(crate) fn short_secrets_snapshot(&self) -> Vec<ShortSecret> {
        self.short_secrets.clone()
    }

    /// Restores the warning trail (persistence path).
    pub(crate) fn restore_warnings(&mut self, warnings: Vec<Warning>) {
        *self.warnings.lock() = warnings;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browserflow_fingerprint::FingerprintConfig;

    const SECRET: &str = "the confidential interview rubric awards extra points for \
                          candidates who ask incisive clarifying questions early";

    fn tag(name: &str) -> Tag {
        Tag::new(name).unwrap()
    }

    fn flow(mode: EnforcementMode) -> BrowserFlow {
        BrowserFlow::builder()
            .mode(mode)
            .engine(EngineConfig {
                fingerprint: FingerprintConfig::builder()
                    .ngram_len(6)
                    .window(4)
                    .build()
                    .unwrap(),
                ..EngineConfig::default()
            })
            .service(
                Service::new("itool", "Interview Tool")
                    .with_privilege(TagSet::from_iter([tag("ti")]))
                    .with_confidentiality(TagSet::from_iter([tag("ti")])),
            )
            .service(
                Service::new("wiki", "Internal Wiki")
                    .with_privilege(TagSet::from_iter([tag("tw")]))
                    .with_confidentiality(TagSet::from_iter([tag("tw")])),
            )
            .service(Service::new("gdocs", "Google Docs"))
            .build()
            .unwrap()
    }

    #[test]
    fn clean_upload_is_allowed() {
        let flow = flow(EnforcementMode::Block);
        let decision = flow
            .check_one(&CheckRequest::paragraph(
                "gdocs",
                "draft",
                0,
                "totally public prose",
            ))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Allow);
        assert!(decision.violations.is_empty());
        assert!(flow.warnings().is_empty());
    }

    #[test]
    fn paste_to_untrusted_service_blocks() {
        let flow = flow(EnforcementMode::Block);
        flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
            .unwrap();
        let decision = flow
            .check_one(&CheckRequest::paragraph("gdocs", "draft", 0, SECRET))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Block);
        assert_eq!(decision.violations.len(), 1);
        assert!(decision.violations[0].missing_tags.contains(&tag("ti")));
        assert_eq!(flow.warnings().len(), 1);
    }

    #[test]
    fn advisory_mode_warns_but_releases() {
        let flow = flow(EnforcementMode::Advisory);
        flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
            .unwrap();
        let decision = flow
            .check_one(&CheckRequest::paragraph("gdocs", "draft", 0, SECRET))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Warn);
        assert!(decision.releases_plaintext());
        assert_eq!(flow.warnings().len(), 1);
    }

    #[test]
    fn privileged_destination_is_allowed() {
        let flow = flow(EnforcementMode::Block);
        flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
            .unwrap();
        // itool itself is privileged for ti.
        let decision = flow
            .check_one(&CheckRequest::paragraph("itool", "eval-copy", 0, SECRET))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Allow);
    }

    #[test]
    fn observe_flags_paragraph_disclosing_foreign_data() {
        let flow = flow(EnforcementMode::Advisory);
        flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
            .unwrap();
        // The user pastes itool text into a Google Docs paragraph: the
        // paragraph label picks up ti (implicit) and gdocs lacks it.
        let status = flow
            .observe_paragraph(&"gdocs".into(), "draft", 0, SECRET)
            .unwrap();
        assert!(status.flagged);
        assert!(status.label.implicit_tags().contains(&tag("ti")));
        assert_eq!(status.matches.len(), 1);
    }

    #[test]
    fn suppression_declassifies_for_future_checks() {
        let mut flow = flow(EnforcementMode::Block);
        flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
            .unwrap();
        let source_key = SegmentKey::paragraph(DocKey::new("itool", "eval"), 0);
        let suppressed = flow
            .suppress_tag(
                &source_key,
                &tag("ti"),
                &"alice".into(),
                "approved by legal",
            )
            .unwrap();
        assert!(suppressed);
        let decision = flow
            .check_one(&CheckRequest::paragraph("gdocs", "draft", 0, SECRET))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Allow);
        // Audit trail exists.
        assert_eq!(flow.policy().audit_log().len(), 1);
    }

    #[test]
    fn custom_tag_restricts_privileged_flows() {
        let mut flow = flow(EnforcementMode::Block);
        // Admin lets itool receive wiki data.
        flow.policy_mut()
            .grant_privilege_unchecked(&"itool".into(), &tag("tw"))
            .unwrap();
        flow.observe_paragraph(&"wiki".into(), "memo", 0, SECRET)
            .unwrap();
        // Without a custom tag the flow is permitted.
        let decision = flow
            .check_one(&CheckRequest::paragraph("itool", "copy", 0, SECRET))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Allow);
        // The author protects the paragraph with tn.
        let key = SegmentKey::paragraph(DocKey::new("wiki", "memo"), 0);
        flow.protect_with_custom_tag(&key, tag("tn"), &"bob".into())
            .unwrap();
        // Now itool (no tn in Lp) is refused; wiki still works.
        let decision = flow
            .check_one(&CheckRequest::paragraph("itool", "copy2", 0, SECRET))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Block);
        let decision = flow
            .check_one(&CheckRequest::paragraph("wiki", "another", 0, SECRET))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Allow);
    }

    #[test]
    fn outdated_tags_do_not_propagate_transitively() {
        // Figure 6: gdocs paragraph copies wiki text that itself once
        // disclosed itool data but is no longer similar to it.
        let mut flow = flow(EnforcementMode::Block);
        // Admin lets wiki hold itool data.
        flow.policy_mut()
            .grant_privilege_unchecked(&"wiki".into(), &tag("ti"))
            .unwrap();
        let itool_text = SECRET;
        let wiki_own = "the wiki howto explains deployment runbooks and paging rotations \
                        for the storage team in ample detail";
        flow.observe_paragraph(&"itool".into(), "eval", 0, itool_text)
            .unwrap();
        // Wiki paragraph B starts as a copy of A (absorbs ti implicitly).
        let combined = format!("{itool_text} {wiki_own}");
        let status = flow
            .observe_paragraph(&"wiki".into(), "memo", 0, &combined)
            .unwrap();
        assert!(status.label.implicit_tags().contains(&tag("ti")));
        // B is edited to pure wiki content (loses resemblance to A).
        let status = flow
            .observe_paragraph(&"wiki".into(), "memo", 0, wiki_own)
            .unwrap();
        assert!(!status.label.implicit_tags().contains(&tag("ti")));
        // Copying B's current text to gdocs violates only tw, not ti.
        let decision = flow
            .check_one(&CheckRequest::paragraph("gdocs", "draft", 0, wiki_own))
            .unwrap();
        assert_eq!(decision.violations.len(), 1);
        let missing = &decision.violations[0].missing_tags;
        assert!(missing.contains(&tag("tw")));
        assert!(!missing.contains(&tag("ti")));
    }

    #[test]
    fn unknown_service_errors() {
        let flow = flow(EnforcementMode::Block);
        assert!(matches!(
            flow.observe_paragraph(&"nope".into(), "d", 0, "text"),
            Err(MiddlewareError::Policy(_))
        ));
        assert!(matches!(
            flow.check_one(&CheckRequest::paragraph("nope", "d", 0, "text")),
            Err(MiddlewareError::Policy(_))
        ));
    }

    #[test]
    fn unknown_segment_errors() {
        let mut flow = flow(EnforcementMode::Block);
        let key = SegmentKey::paragraph(DocKey::new("wiki", "never"), 0);
        assert!(matches!(
            flow.suppress_tag(&key, &tag("tw"), &"u".into(), "r"),
            Err(MiddlewareError::UnknownSegment { .. })
        ));
    }

    #[test]
    fn seal_body_produces_printable_payload() {
        let flow = flow(EnforcementMode::Encrypt);
        let sealed = flow.seal_body("secret text");
        assert!(sealed.starts_with("bf-sealed:"));
        assert!(!sealed.contains("secret"));
        // Sealing the same body twice must draw fresh nonces and so
        // produce different payloads (keystream reuse regression).
        let sealed2 = flow.seal_body("secret text");
        assert_ne!(sealed, sealed2);
    }

    #[test]
    fn builder_accepts_a_preassembled_policy() {
        let mut policy = Policy::new();
        policy
            .register(
                Service::new("itool", "Interview Tool")
                    .with_privilege(TagSet::from_iter([tag("ti")]))
                    .with_confidentiality(TagSet::from_iter([tag("ti")])),
            )
            .unwrap();
        let flow = BrowserFlow::builder()
            .policy(policy)
            .service(Service::new("gdocs", "Google Docs"))
            .mode(EnforcementMode::Block)
            .build()
            .unwrap();
        assert_eq!(flow.policy().services().count(), 2);
        flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
            .unwrap();
        assert_eq!(
            flow.check_one(&CheckRequest::paragraph("gdocs", "d", 0, SECRET))
                .unwrap()
                .action,
            UploadAction::Block
        );
    }

    #[test]
    fn index_text_document_tracks_both_granularities() {
        let flow = flow(EnforcementMode::Block);
        let text = format!("{SECRET}

second paragraph about travel reimbursements and the                             approval chain for expenses over five hundred euros");
        let count = flow
            .index_text_document(&"itool".into(), "handbook", &text)
            .unwrap();
        assert_eq!(count, 2);
        // Paragraph granularity: the second paragraph alone violates.
        let second = text
            .split(
                "

",
            )
            .nth(1)
            .unwrap();
        assert_eq!(
            flow.check_one(&CheckRequest::paragraph("gdocs", "d", 0, second))
                .unwrap()
                .action,
            UploadAction::Block
        );
        // Document granularity: the whole text violates too.
        assert_eq!(
            flow.check_document_upload(&"gdocs".into(), "d", &text)
                .unwrap()
                .action,
            UploadAction::Block
        );
    }

    #[test]
    fn per_segment_thresholds_are_settable_through_the_middleware() {
        let flow = flow(EnforcementMode::Block);
        flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
            .unwrap();
        assert!(flow.set_paragraph_threshold(&"itool".into(), "eval", 0, 0.1));
        assert!(!flow.set_paragraph_threshold(&"itool".into(), "never", 0, 0.1));
        // A small quote now violates at the lowered threshold.
        let quote = &SECRET[..SECRET.len() / 4];
        let decision = flow
            .check_one(&CheckRequest::paragraph("gdocs", "d", 0, quote))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Block);

        flow.observe_document(&"itool".into(), "eval", SECRET)
            .unwrap();
        assert!(flow.set_document_threshold(&"itool".into(), "eval", 0.2));
        assert!(!flow.set_document_threshold(&"itool".into(), "never", 0.2));
    }

    #[test]
    fn short_secrets_are_caught_regardless_of_length() {
        let mut flow = flow(EnforcementMode::Block);
        flow.register_short_secret(&"itool".into(), "ats-api-key", "Kx9#q2!z")
            .unwrap();
        assert_eq!(flow.short_secret_count(), 1);
        // The secret is far below the fingerprint guarantee threshold, yet
        // embedding it anywhere in an upload is caught.
        let decision = flow
            .check_one(&CheckRequest::paragraph(
                "gdocs",
                "draft",
                0,
                "token is kx9 q2 z ok?",
            ))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Block);
        let violation = &decision.violations[0];
        assert!(violation.source.to_string().contains("secret:ats-api-key"));
        assert_eq!(violation.disclosure, 1.0);
        assert!(!violation.matching_spans.is_empty());
        // Uploading it to the owning service is fine.
        let decision = flow
            .check_one(&CheckRequest::paragraph(
                "itool",
                "notes",
                0,
                "key Kx9#q2!z rotated",
            ))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Allow);
        // Unrelated short text is untouched.
        let decision = flow
            .check_one(&CheckRequest::paragraph(
                "gdocs",
                "draft",
                1,
                "nothing secret here",
            ))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Allow);
    }

    #[test]
    fn short_secret_for_unknown_service_errors() {
        let mut flow = flow(EnforcementMode::Block);
        assert!(matches!(
            flow.register_short_secret(&"nope".into(), "x", "value"),
            Err(MiddlewareError::Policy(_))
        ));
        // Unusable (normalises to empty) secrets are dropped.
        flow.register_short_secret(&"itool".into(), "noise", "!!!")
            .unwrap();
        assert_eq!(flow.short_secret_count(), 0);
    }

    #[test]
    fn keystroke_checks_match_full_checks() {
        let typed_flow = flow(EnforcementMode::Block);
        let full_flow = flow(EnforcementMode::Block);
        for f in [&typed_flow, &full_flow] {
            f.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
                .unwrap();
        }
        let gdocs: ServiceId = "gdocs".into();
        let mut typed = String::new();
        for ch in SECRET.chars() {
            let edit = TextEdit::insert(typed.len(), ch.to_string());
            let incremental = typed_flow
                .check_keystroke(&gdocs, "draft", 0, &edit)
                .unwrap();
            typed.push(ch);
            let full = full_flow
                .check_one(&CheckRequest::paragraph(
                    "gdocs",
                    "draft",
                    0,
                    typed.as_str(),
                ))
                .unwrap();
            assert_eq!(incremental, full, "divergence at {} chars", typed.len());
        }
        // Both paths recorded the same number of warnings.
        assert_eq!(typed_flow.warnings().len(), full_flow.warnings().len());
        assert!(!typed_flow.warnings().is_empty());
    }

    #[test]
    fn keystroke_path_catches_short_secrets() {
        let mut flow = flow(EnforcementMode::Block);
        flow.register_short_secret(&"itool".into(), "ats-api-key", "Kx9#q2!z")
            .unwrap();
        let gdocs: ServiceId = "gdocs".into();
        // Type the secret into a fresh paragraph, one character at a time.
        let mut text = String::new();
        let mut blocked = false;
        for ch in "token kx9 q2 z".chars() {
            let edit = TextEdit::insert(text.len(), ch.to_string());
            let decision = flow.check_keystroke(&gdocs, "draft", 0, &edit).unwrap();
            text.push(ch);
            blocked = decision.action == UploadAction::Block;
        }
        assert!(blocked, "secret embedded via keystrokes must be caught");
    }

    #[test]
    fn stale_keystroke_edit_is_a_typed_error() {
        let flow = flow(EnforcementMode::Block);
        let gdocs: ServiceId = "gdocs".into();
        let err = flow
            .check_keystroke(&gdocs, "draft", 0, &TextEdit::delete(0..9))
            .unwrap_err();
        assert!(matches!(err, MiddlewareError::StaleEdit(_)));
        // Absorb path reports the same error; reset clears the session.
        flow.check_keystroke(&gdocs, "draft", 0, &TextEdit::insert(0, "abc"))
            .unwrap();
        assert!(matches!(
            flow.absorb_keystroke(&gdocs, "draft", 0, &TextEdit::delete(0..9)),
            Err(MiddlewareError::StaleEdit(_))
        ));
        assert!(flow.reset_keystroke_session(&gdocs, "draft", 0));
        assert!(!flow.reset_keystroke_session(&gdocs, "draft", 0));
    }

    #[test]
    fn batched_upload_check_matches_sequential_checks() {
        let sequential = flow(EnforcementMode::Block);
        let batched = flow(EnforcementMode::Block);
        for flow in [&sequential, &batched] {
            flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
                .unwrap();
        }
        let own = "a harmless paragraph about the office coffee machine rota";
        let paragraphs = [SECRET, own, SECRET];
        let expected: Vec<UploadDecision> = paragraphs
            .iter()
            .enumerate()
            .map(|(i, &text)| {
                sequential
                    .check_one(&CheckRequest::paragraph("gdocs", "draft", i, text))
                    .unwrap()
            })
            .collect();
        for workers in [1usize, 4] {
            let decisions = batched
                .check(
                    &CheckRequest::batch("gdocs", "draft", paragraphs.iter().copied())
                        .with_workers(workers),
                )
                .unwrap();
            assert_eq!(decisions, expected);
        }
        assert_eq!(
            expected.iter().map(|d| d.action).collect::<Vec<_>>(),
            [
                UploadAction::Block,
                UploadAction::Allow,
                UploadAction::Block
            ]
        );
        // Warning trail: 2 violations per batch run × 2 worker settings.
        assert_eq!(batched.warnings().len(), 4);
        assert_eq!(batched.warnings()[0].segment.to_string(), "gdocs/draft#p0");
    }

    #[test]
    fn concurrent_checkers_share_one_middleware() {
        let flow = flow(EnforcementMode::Advisory);
        flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
            .unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let flow = &flow;
                s.spawn(move || {
                    for i in 0..10 {
                        let decision = flow
                            .check_one(&CheckRequest::paragraph(
                                "gdocs",
                                "draft",
                                t * 10 + i,
                                SECRET,
                            ))
                            .unwrap();
                        assert_eq!(decision.action, UploadAction::Warn);
                    }
                });
            }
        });
        assert_eq!(flow.warnings().len(), 40);
    }

    #[test]
    fn document_granularity_upload_check() {
        let flow = flow(EnforcementMode::Block);
        let doc_text = format!("{SECRET}\n\nmore interview material follows here with details");
        flow.observe_document(&"itool".into(), "eval", &doc_text)
            .unwrap();
        let decision = flow
            .check_document_upload(&"gdocs".into(), "draft", &doc_text)
            .unwrap();
        assert_eq!(decision.action, UploadAction::Block);
    }

    #[test]
    fn sentinel_raises_alert_with_receipt_for_multi_hop_chain() {
        let flow = flow(EnforcementMode::Block);
        let secret = SECRET;
        // Hop 1: itool secret lands in a wiki memo with extra framing (the
        // memo becomes authoritative for its own rendition).
        flow.observe_paragraph(&"itool".into(), "eval", 0, secret)
            .unwrap();
        let memo = format!("{secret} as summarised for the quarterly hiring wiki page");
        flow.observe_paragraph(&"wiki".into(), "memo", 0, &memo)
            .unwrap();
        assert_eq!(flow.lineage().len(), 1);
        // Hop 2: the memo is uploaded to gdocs — violating check.
        let decision = flow
            .check_one(&CheckRequest::paragraph("gdocs", "draft", 0, &memo))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Block);

        let alerts = flow.alerts();
        assert_eq!(alerts.len(), 1);
        let alert = &alerts[0];
        assert_eq!(alert.sink, "gdocs");
        assert_eq!(alert.segment, "gdocs/draft#p0");
        assert_eq!(alert.hops.len(), 2);
        // Origin first: itool → wiki, then wiki → gdocs.
        assert_eq!(alert.hops[0].source, "itool");
        assert_eq!(alert.hops[0].sink, "wiki");
        assert_eq!(alert.hops[1].source, "wiki");
        assert_eq!(alert.hops[1].sink, "gdocs");
        assert!(alert.missing_tags.iter().any(|t| t == "ti"));
        // The receipt references every hop and ties into the report trail.
        assert_eq!(alert.receipt.alert_id, alert.id);
        assert_eq!(alert.receipt.action, "block");
        assert_eq!(
            alert.receipt.hop_clocks,
            alert.hops.iter().map(|h| h.clock).collect::<Vec<_>>()
        );
        let warning = &flow.warnings()[alert.receipt.warning_index as usize];
        assert_eq!(warning.segment.to_string(), alert.segment);

        // Re-checking the same flow raises nothing new.
        flow.check_one(&CheckRequest::paragraph("gdocs", "draft", 0, &memo))
            .unwrap();
        assert_eq!(flow.alerts().len(), 1);
    }

    #[test]
    fn concurrent_checks_keep_each_receipt_on_its_own_warning() {
        // One thread uploads relayed memos (each the last hop of a two-hop
        // chain, so each raises an alert); the other pastes the secrets
        // directly (ordinary warnings). Their warnings interleave, yet
        // every receipt must point at the warning its own check recorded.
        const CHAINS: usize = 300;
        let flow = flow(EnforcementMode::Block);
        let mut gen = browserflow_corpus::TextGen::new(27);
        let secrets: Vec<String> = (0..CHAINS).map(|_| gen.paragraph(3)).collect();
        let memos: Vec<String> = secrets
            .iter()
            .map(|secret| format!("{secret} as summarised for the hiring wiki"))
            .collect();
        for (i, (secret, memo)) in secrets.iter().zip(&memos).enumerate() {
            flow.observe_paragraph(&"itool".into(), &format!("eval{i}"), 0, secret)
                .unwrap();
            flow.observe_paragraph(&"wiki".into(), &format!("memo{i}"), 0, memo)
                .unwrap();
        }
        let check_all = |prefix: &str, texts: &[String]| {
            for (i, text) in texts.iter().enumerate() {
                let document = format!("{prefix}{i}");
                flow.check_one(&CheckRequest::paragraph("gdocs", document, 0, text))
                    .unwrap();
            }
        };
        std::thread::scope(|scope| {
            scope.spawn(|| check_all("relay", &memos));
            scope.spawn(|| check_all("paste", &secrets));
        });

        let warnings = flow.warnings();
        let alerts = flow.alerts();
        assert!(alerts.len() >= CHAINS, "only {} alerts", alerts.len());
        let mismatched = alerts
            .iter()
            .filter(|alert| {
                warnings[alert.receipt.warning_index as usize]
                    .segment
                    .to_string()
                    != alert.segment
            })
            .count();
        assert_eq!(
            mismatched,
            0,
            "{mismatched} of {} receipts point at another check's warning",
            alerts.len()
        );
    }

    #[test]
    fn single_hop_violation_raises_no_alert() {
        let flow = flow(EnforcementMode::Block);
        flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
            .unwrap();
        let decision = flow
            .check_one(&CheckRequest::paragraph("gdocs", "draft", 0, SECRET))
            .unwrap();
        // The direct paste violates — ordinary warning, no chain alert.
        assert_eq!(decision.action, UploadAction::Block);
        assert_eq!(flow.warnings().len(), 1);
        assert!(flow.alerts().is_empty());
    }

    #[test]
    fn batch_check_surfaces_worker_panic_as_typed_error() {
        use crate::engine::test_hooks;
        let _guard = test_hooks::lock();
        let flow = flow(EnforcementMode::Block);
        flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
            .unwrap();

        test_hooks::set_panic_on_marker(true);
        let poisoned = format!("{SECRET} {}", test_hooks::FAULT_MARKER);
        let err = flow
            .check(&CheckRequest::batch("gdocs", "draft", [SECRET, &poisoned]).with_workers(2))
            .unwrap_err();
        assert!(matches!(err, MiddlewareError::WorkerPanic(_)));
        assert!(err.to_string().contains("worker panicked"));
        test_hooks::set_panic_on_marker(false);

        // The middleware remains serviceable after the contained panic.
        let decisions = flow
            .check(&CheckRequest::batch("gdocs", "draft", [SECRET]).with_workers(2))
            .unwrap();
        assert_eq!(decisions[0].action, UploadAction::Block);
    }
}
