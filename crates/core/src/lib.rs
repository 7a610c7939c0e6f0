//! **BrowserFlow** — browser-based middleware that tracks the propagation
//! of unstructured text across cloud services and alerts users before they
//! accidentally disclose sensitive data.
//!
//! This is the primary crate of the reproduction of *BrowserFlow:
//! Imprecise Data Flow Tracking to Prevent Accidental Data Disclosure*
//! (Middleware 2016). It combines:
//!
//! - imprecise data flow tracking ([`browserflow_fingerprint`] +
//!   [`browserflow_store`]): text segments are fingerprinted with a
//!   winnowing scheme and data flows are inferred from fingerprint
//!   similarity rather than byte-level taint;
//! - the Text Disclosure Model ([`browserflow_tdm`]): services carry
//!   privilege/confidentiality labels, segments carry tag labels, and a
//!   segment may be released to a service only if its effective tags are a
//!   subset of the service's privilege label;
//! - a browser integration ([`plugin`]) for the simulated browser
//!   substrate ([`browserflow_browser`]): mutation observers feed the
//!   policy lookup module, and an `XMLHttpRequest.prototype.send` hook plus
//!   form submit listeners feed the policy enforcement module.
//!
//! # Quickstart
//!
//! ```rust
//! use browserflow::{BrowserFlow, CheckRequest, EnforcementMode, UploadAction};
//! use browserflow_tdm::{Service, Tag, TagSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ti = Tag::new("interview-data")?;
//! let mut flow = BrowserFlow::builder()
//!     .mode(EnforcementMode::Block)
//!     .service(Service::new("itool", "Interview Tool")
//!         .with_privilege(TagSet::from_iter([ti.clone()]))
//!         .with_confidentiality(TagSet::from_iter([ti.clone()])))
//!     .service(Service::new("gdocs", "Google Docs"))
//!     .build()?;
//!
//! // Sensitive text appears in the Interview Tool.
//! let notes = "the candidate showed excellent systems knowledge but was weak \
//!              on distributed consensus and needs a follow-up interview round";
//! flow.observe_paragraph(&"itool".into(), "eval-doc", 0, notes)?;
//!
//! // The user pastes it into Google Docs: BrowserFlow blocks the upload.
//! let decision = flow.check_one(&CheckRequest::paragraph("gdocs", "draft", 0, notes))?;
//! assert_eq!(decision.action, UploadAction::Block);
//! assert!(!decision.violations.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod asynchronous;
pub mod baseline;
mod engine;
pub mod lineage;
mod metrics;
mod middleware;
pub mod plugin;
pub mod report;
mod request;
mod short_secret;
mod state;
pub mod tenancy;

pub use asynchronous::{
    AsyncDecider, DeciderConfig, DeciderError, PendingBatch, PendingDecision, PipelineStats,
    TimedBatch, TimedDecision, TrySubmitError,
};
pub use engine::{
    DisclosureEngine, DisclosureMatch, DocKey, EngineConfig, SegmentKey, SegmentScope,
    StaleEditError, WorkerPanic,
};

#[doc(hidden)]
pub use engine::test_hooks;
pub use lineage::{
    ContainmentReceipt, ExfiltrationAlert, ExfiltrationSentinel, FlowEdge, FlowOperation,
    LineageGraph, SentinelConfig,
};
pub use metrics::{ConcurrencyMetrics, FingerprintModeStats, ResponseTimes};
pub use middleware::{
    BrowserFlow, BrowserFlowBuilder, BuildError, EnforcementMode, MiddlewareError, ParagraphStatus,
    UploadAction, UploadDecision, Violation, Warning,
};
pub use request::{CheckRequest, ParagraphRef};
pub use state::{StateError, StateRestoreReport, METADATA_FILE as STATE_METADATA_FILE};
pub use tenancy::{
    AdmissionError, InFlightPermit, RegistryError, Tenant, TenantConfig, TenantDrainReport,
    TenantId, TenantIdError, TenantRegistry,
};

// The keystroke hot path speaks in edits and deltas; re-export the types
// so plug-in callers need not depend on the fingerprint crate directly.
pub use browserflow_fingerprint::{FingerprintDelta, IncrementalFingerprinter, TextEdit};
