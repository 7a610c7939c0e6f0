//! Persistence of the full middleware state.
//!
//! §4.4 requires that long-term fingerprint storage be encrypted at rest.
//! Two forms are supported:
//!
//! - [`BrowserFlow::export_sealed`] — one sealed envelope holding the
//!   complete middleware state: policy (including the audit log), segment
//!   labels, the key registry and both fingerprint stores. Convenient for
//!   small deployments and transport.
//! - [`BrowserFlow::persist_to_dir`] / [`BrowserFlow::load_from_dir`] —
//!   a directory layout that persists each store shard as its own sealed,
//!   atomically written file (see [`browserflow_store::persist`]), so a
//!   torn write loses one shard instead of everything and large stores
//!   load in parallel. The registry/policy metadata is sealed into
//!   `state.bfmeta`, written last.
//! - [`BrowserFlow::persist_tiered_to_dir`] — the same layout, but each
//!   fingerprint store is written as a plain v3 tiered directory whose
//!   sealed cold shards the next [`BrowserFlow::load_from_dir`] maps in
//!   place ([`TierMode::Cold`]) instead of decoding, so restart latency
//!   and resident memory track the hot set, not the store size. Only the
//!   `state.bfmeta` metadata stays sealed; use the fully sealed layout
//!   when fingerprints themselves must be ciphertext at rest.
//!
//! [`BrowserFlow::load_from_dir`] auto-detects which layout each store
//! directory uses, so operators can switch between them snapshot by
//! snapshot.
//!
//! Envelope wire layout (inside the seal):
//!
//! ```text
//! u32 json_len | json metadata (policy, labels, keys, config)
//! u32 par_len  | paragraph-store codec bytes
//! u32 doc_len  | document-store codec bytes
//! ```

use crate::engine::{DisclosureEngine, EngineConfig, SegmentKey};
use crate::middleware::{BrowserFlow, EnforcementMode, Warning};
use crate::short_secret::ShortSecret;
use browserflow_store::persist::write_atomic;
use browserflow_store::{
    codec, CodecError, PersistError, PersistOptions, RestoreReport, SealedBytes, SegmentId,
    StoreFormat, StoreKey, StoreOpenOptions, TierMode,
};
use browserflow_tdm::{Policy, SegmentLabel};
use std::fmt;
use std::path::Path;

/// File holding the sealed registry/policy metadata in a state directory.
pub const METADATA_FILE: &str = "state.bfmeta";
/// Subdirectory holding the paragraph store's sealed shards.
const PARAGRAPHS_DIR: &str = "paragraphs";
/// Subdirectory holding the document store's sealed shards.
const DOCUMENTS_DIR: &str = "documents";

/// Error restoring persisted middleware state.
#[derive(Debug)]
#[non_exhaustive]
pub enum StateError {
    /// The sealed envelope or a store blob was rejected.
    Codec(CodecError),
    /// The JSON metadata was malformed.
    Metadata(serde_json::Error),
    /// The payload structure was invalid (lengths out of range).
    Malformed,
    /// A state directory could not be read or written.
    Io(std::io::Error),
    /// The persistence layer refused the requested option combination.
    Unsupported(&'static str),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Codec(e) => write!(f, "store payload rejected: {e}"),
            StateError::Metadata(e) => write!(f, "metadata rejected: {e}"),
            StateError::Malformed => write!(f, "state payload is malformed"),
            StateError::Io(e) => write!(f, "state directory I/O error: {e}"),
            StateError::Unsupported(why) => write!(f, "unsupported persistence option: {why}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<CodecError> for StateError {
    fn from(e: CodecError) -> Self {
        StateError::Codec(e)
    }
}

impl From<std::io::Error> for StateError {
    fn from(e: std::io::Error) -> Self {
        StateError::Io(e)
    }
}

impl From<PersistError> for StateError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Io(e) => StateError::Io(e),
            PersistError::Codec(e) => StateError::Codec(e),
            PersistError::Unsupported(why) => StateError::Unsupported(why),
        }
    }
}

/// Per-store [`RestoreReport`]s from [`BrowserFlow::load_from_dir`]: which
/// shards of each fingerprint store survived the restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateRestoreReport {
    /// Shard outcome for the paragraph store.
    pub paragraphs: RestoreReport,
    /// Shard outcome for the document store.
    pub documents: RestoreReport,
}

impl StateRestoreReport {
    /// Whether every shard of both stores was restored.
    pub fn is_complete(&self) -> bool {
        self.paragraphs.is_complete() && self.documents.is_complete()
    }
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Metadata {
    engine: EngineConfig,
    mode: ModeRepr,
    policy: Policy,
    keys: Vec<(SegmentKey, u64)>,
    labels: Vec<(u64, SegmentLabel)>,
    #[serde(default)]
    short_secrets: Vec<ShortSecret>,
    #[serde(default)]
    warnings: Vec<Warning>,
    /// Lineage graph + alert trail, as the deterministic snapshot bytes of
    /// [`crate::lineage::encode_snapshot`] (empty in pre-lineage states).
    #[serde(default)]
    lineage: Vec<u8>,
}

/// Serde-friendly enforcement-mode representation.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
enum ModeRepr {
    Advisory,
    Block,
    Encrypt,
}

impl From<EnforcementMode> for ModeRepr {
    fn from(mode: EnforcementMode) -> Self {
        match mode {
            EnforcementMode::Advisory => ModeRepr::Advisory,
            EnforcementMode::Block => ModeRepr::Block,
            EnforcementMode::Encrypt => ModeRepr::Encrypt,
        }
    }
}

impl From<ModeRepr> for EnforcementMode {
    fn from(mode: ModeRepr) -> Self {
        match mode {
            ModeRepr::Advisory => EnforcementMode::Advisory,
            ModeRepr::Block => EnforcementMode::Block,
            ModeRepr::Encrypt => EnforcementMode::Encrypt,
        }
    }
}

fn push_chunk(out: &mut Vec<u8>, chunk: &[u8]) {
    out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
    out.extend_from_slice(chunk);
}

fn read_chunk<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], StateError> {
    // The envelope is untrusted (sealed state files come off disk): both
    // the length prefix and the chunk body are taken through checked
    // arithmetic and `get`, so a truncated buffer fails closed with
    // `StateError::Malformed` instead of panicking.
    let mut take = |n: usize| -> Result<&'a [u8], StateError> {
        let end = pos.checked_add(n).ok_or(StateError::Malformed)?;
        let slice = bytes.get(*pos..end).ok_or(StateError::Malformed)?;
        *pos = end;
        Ok(slice)
    };
    let len_bytes = take(4)?;
    let len = u32::from_le_bytes(len_bytes.try_into().expect("4-byte slice")) as usize;
    take(len)
}

impl BrowserFlow {
    fn metadata_snapshot(&self) -> Metadata {
        Metadata {
            engine: *self.engine().config(),
            mode: self.mode().into(),
            policy: self.policy().clone(),
            keys: self
                .engine()
                .key_map()
                .into_iter()
                .map(|(k, id)| (k, id.get()))
                .collect(),
            labels: self
                .labels_snapshot()
                .into_iter()
                .map(|(id, label)| (id.get(), label))
                .collect(),
            short_secrets: self.short_secrets_snapshot(),
            warnings: self.warnings(),
            lineage: self.lineage_snapshot(),
        }
    }

    fn from_metadata(
        metadata: Metadata,
        paragraphs: browserflow_store::FingerprintStore,
        documents: browserflow_store::FingerprintStore,
        key: StoreKey,
    ) -> Result<Self, StateError> {
        let engine = DisclosureEngine::from_parts(
            metadata.engine,
            paragraphs,
            documents,
            metadata
                .keys
                .into_iter()
                .map(|(k, id)| (k, SegmentId::new(id)))
                .collect(),
        );
        let mut flow = BrowserFlow::from_restored(
            engine,
            metadata.policy,
            metadata
                .labels
                .into_iter()
                .map(|(id, label)| (SegmentId::new(id), label))
                .collect(),
            metadata.mode.into(),
            key,
            metadata.short_secrets,
        );
        flow.restore_warnings(metadata.warnings);
        if !metadata.lineage.is_empty() {
            flow.restore_lineage(&metadata.lineage)
                .map_err(|_| StateError::Malformed)?;
        }
        Ok(flow)
    }

    /// Serialises the complete middleware state and seals it under the
    /// configured store key (a zero key is used if none was configured —
    /// set one via [`crate::BrowserFlowBuilder::store_key`] in production).
    /// The seal nonce is drawn from the process-wide counter, so repeated
    /// exports never reuse a keystream.
    pub fn export_sealed(&self) -> SealedBytes {
        let json = serde_json::to_vec(&self.metadata_snapshot()).expect("state always serialises");
        let mut payload = Vec::new();
        push_chunk(&mut payload, &json);
        push_chunk(
            &mut payload,
            &codec::encode(self.engine().paragraph_store())
                .expect("in-memory store fits the format"),
        );
        push_chunk(
            &mut payload,
            &codec::encode(self.engine().document_store())
                .expect("in-memory store fits the format"),
        );
        self.store_key_ref().seal_auto(&payload)
    }

    /// Restores a middleware instance exported with
    /// [`BrowserFlow::export_sealed`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on key mismatch, tampering, or a malformed
    /// payload.
    pub fn import_sealed(key: StoreKey, sealed: &SealedBytes) -> Result<Self, StateError> {
        let payload = key
            .unseal(sealed)
            .map_err(|e| StateError::Codec(CodecError::Sealed(e)))?;
        let mut pos = 0usize;
        let json = read_chunk(&payload, &mut pos)?;
        let par_bytes = read_chunk(&payload, &mut pos)?;
        let doc_bytes = read_chunk(&payload, &mut pos)?;
        if pos != payload.len() {
            return Err(StateError::Malformed);
        }
        let metadata: Metadata = serde_json::from_slice(json).map_err(StateError::Metadata)?;
        let paragraphs = codec::decode(par_bytes)?;
        let documents = codec::decode(doc_bytes)?;
        Self::from_metadata(metadata, paragraphs, documents, key)
    }

    /// Persists the complete middleware state to `dir` as a sealed,
    /// sharded directory: each fingerprint-store shard is its own
    /// atomically written file, and the registry/policy metadata lands
    /// last, so a crash at any point leaves a loadable snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Io`] on filesystem failure and
    /// [`StateError::Codec`] if a store exceeds the format's length
    /// fields.
    pub fn persist_to_dir(&self, dir: &Path) -> Result<(), StateError> {
        let key = self.store_key_ref();
        let options = PersistOptions::sealed(key.clone());
        options.persist(self.engine().paragraph_store(), &dir.join(PARAGRAPHS_DIR))?;
        options.persist(self.engine().document_store(), &dir.join(DOCUMENTS_DIR))?;
        self.persist_metadata(dir)
    }

    /// Persists the complete middleware state to `dir` with both
    /// fingerprint stores written as plain v3 tiered directories, so the
    /// next [`BrowserFlow::load_from_dir`] maps their cold shards in
    /// place instead of decoding them — restart cost tracks the hot set,
    /// not the store size. The registry/policy metadata is still sealed
    /// into `state.bfmeta`, written last.
    ///
    /// Fingerprint records land on disk in the clear; prefer
    /// [`BrowserFlow::persist_to_dir`] when the store itself must be
    /// encrypted at rest.
    ///
    /// # Errors
    ///
    /// Same as [`BrowserFlow::persist_to_dir`].
    pub fn persist_tiered_to_dir(&self, dir: &Path) -> Result<(), StateError> {
        let options = PersistOptions::new().format(StoreFormat::V3);
        options.persist(self.engine().paragraph_store(), &dir.join(PARAGRAPHS_DIR))?;
        options.persist(self.engine().document_store(), &dir.join(DOCUMENTS_DIR))?;
        self.persist_metadata(dir)
    }

    fn persist_metadata(&self, dir: &Path) -> Result<(), StateError> {
        let key = self.store_key_ref();
        let json = serde_json::to_vec(&self.metadata_snapshot()).expect("state always serialises");
        write_atomic(&dir.join(METADATA_FILE), &key.seal_auto(&json).to_bytes())?;
        Ok(())
    }

    /// Loads a state directory written by [`BrowserFlow::persist_to_dir`]
    /// or [`BrowserFlow::persist_tiered_to_dir`], degrading gracefully:
    /// store shards that are torn or fail integrity are dropped and
    /// reported in the [`StateRestoreReport`] while every healthy shard
    /// loads (in parallel). Fingerprints in lost shards are simply no
    /// longer tracked — re-observing re-establishes them.
    ///
    /// Each store directory's layout is auto-detected: a plain manifest
    /// (tiered v3 snapshot) opens with its cold shards mapped in place
    /// ([`TierMode::Cold`]); a sealed manifest unseals under `key` as
    /// before.
    ///
    /// # Errors
    ///
    /// Fails hard when the metadata file or a store manifest is missing,
    /// will not unseal under `key`, or is malformed.
    pub fn load_from_dir(
        key: StoreKey,
        dir: &Path,
    ) -> Result<(Self, StateRestoreReport), StateError> {
        let wire = std::fs::read(dir.join(METADATA_FILE))?;
        let sealed =
            SealedBytes::from_bytes(&wire).map_err(|e| StateError::Codec(CodecError::Sealed(e)))?;
        let json = key
            .unseal(&sealed)
            .map_err(|e| StateError::Codec(CodecError::Sealed(e)))?;
        let metadata: Metadata = serde_json::from_slice(&json).map_err(StateError::Metadata)?;
        // The open options carry the key for sealed layouts and the cold
        // tier preference for plain v3 layouts; `open` dispatches on
        // whatever is actually on disk, so mixed-layout state roots work.
        let options = StoreOpenOptions::sealed(key.clone()).tier(TierMode::Cold);
        let (paragraphs, par_report) = options.open(&dir.join(PARAGRAPHS_DIR))?;
        let (documents, doc_report) = options.open(&dir.join(DOCUMENTS_DIR))?;
        let flow = Self::from_metadata(metadata, paragraphs, documents, key)?;
        Ok((
            flow,
            StateRestoreReport {
                paragraphs: par_report,
                documents: doc_report,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckRequest, DocKey, SegmentKey, UploadAction};
    use browserflow_tdm::{Service, Tag, TagSet, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::PathBuf;

    const SECRET: &str = "the confidential interview rubric awards extra points for \
                          candidates who ask incisive clarifying questions early";

    fn sample_flow() -> BrowserFlow {
        let ti = Tag::new("ti").unwrap();
        let flow = BrowserFlow::builder()
            .mode(EnforcementMode::Block)
            .store_key(StoreKey::from_bytes([3u8; 32]))
            .service(
                Service::new("itool", "Interview Tool")
                    .with_privilege(TagSet::from_iter([ti.clone()]))
                    .with_confidentiality(TagSet::from_iter([ti])),
            )
            .service(Service::new("gdocs", "Google Docs"))
            .build()
            .unwrap();
        flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
            .unwrap();
        flow
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bf-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn export_import_roundtrip_preserves_decisions() {
        let flow = sample_flow();
        let before = flow
            .check_one(&CheckRequest::paragraph("gdocs", "d", 0, SECRET))
            .unwrap();
        assert_eq!(before.action, UploadAction::Block);

        let sealed = flow.export_sealed();
        let restored =
            BrowserFlow::import_sealed(StoreKey::from_bytes([3u8; 32]), &sealed).unwrap();
        let after = restored
            .check_one(&CheckRequest::paragraph("gdocs", "d2", 0, SECRET))
            .unwrap();
        assert_eq!(after.action, UploadAction::Block);
        assert_eq!(after.violations[0].source, before.violations[0].source);
        assert_eq!(restored.mode(), EnforcementMode::Block);
    }

    #[test]
    fn roundtrip_preserves_suppressions_and_audit() {
        let mut flow = sample_flow();
        let key = SegmentKey::paragraph(DocKey::new("itool", "eval"), 0);
        flow.suppress_tag(&key, &Tag::new("ti").unwrap(), &UserId::new("alice"), "ok")
            .unwrap();
        let sealed = flow.export_sealed();
        let restored =
            BrowserFlow::import_sealed(StoreKey::from_bytes([3u8; 32]), &sealed).unwrap();
        // The suppression survives: the upload is now allowed.
        assert_eq!(
            restored
                .check_one(&CheckRequest::paragraph("gdocs", "d", 0, SECRET))
                .unwrap()
                .action,
            UploadAction::Allow
        );
        assert_eq!(restored.policy().audit_log().len(), 1);
    }

    #[test]
    fn wrong_key_is_rejected() {
        let flow = sample_flow();
        let sealed = flow.export_sealed();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            BrowserFlow::import_sealed(StoreKey::generate(&mut rng), &sealed),
            Err(StateError::Codec(CodecError::Sealed(_)))
        ));
    }

    #[test]
    fn truncated_envelope_fails_closed_for_every_prefix() {
        // The chunked envelope inside the sealed state file is untrusted
        // once the AEAD layer is peeled off. Re-seal every strict prefix
        // of a valid plaintext payload and prove the import path returns
        // a typed error for each — no length-prefix slice panic.
        let key = StoreKey::from_bytes([3u8; 32]);
        let flow = sample_flow();
        let payload = key.unseal(&flow.export_sealed()).unwrap();
        assert!(BrowserFlow::import_sealed(key.clone(), &key.seal_auto(&payload)).is_ok());
        for len in 0..payload.len() {
            let sealed = key.seal_auto(&payload[..len]);
            assert!(
                BrowserFlow::import_sealed(key.clone(), &sealed).is_err(),
                "import accepted a {len}-byte prefix of {}",
                payload.len()
            );
        }
    }

    #[test]
    fn hostile_chunk_length_fails_closed() {
        // A metadata chunk whose length prefix overflows the cursor (or
        // simply runs past the buffer) must surface `StateError::Malformed`.
        let key = StoreKey::from_bytes([3u8; 32]);
        for hostile in [u32::MAX, u32::MAX - 3, 1 << 30] {
            let mut payload = Vec::new();
            payload.extend_from_slice(&hostile.to_le_bytes());
            payload.extend_from_slice(b"tiny");
            assert!(matches!(
                BrowserFlow::import_sealed(key.clone(), &key.seal_auto(&payload)),
                Err(StateError::Malformed)
            ));
        }
        // Trailing garbage after three well-formed chunks is also rejected.
        let valid = key.unseal(&sample_flow().export_sealed()).unwrap();
        let mut padded = valid;
        padded.push(0);
        assert!(matches!(
            BrowserFlow::import_sealed(key.clone(), &key.seal_auto(&padded)),
            Err(StateError::Malformed)
        ));
    }

    #[test]
    fn restored_flow_keeps_allocating_fresh_segment_ids() {
        let flow = sample_flow();
        let sealed = flow.export_sealed();
        let restored =
            BrowserFlow::import_sealed(StoreKey::from_bytes([3u8; 32]), &sealed).unwrap();
        // New observations must not collide with restored ids.
        let status = restored
            .observe_paragraph(&"gdocs".into(), "new-doc", 0, "fresh text here")
            .unwrap();
        let existing = restored
            .engine()
            .segment_id_readonly(&SegmentKey::paragraph(DocKey::new("itool", "eval"), 0))
            .unwrap();
        assert_ne!(status.segment, existing);
    }

    #[test]
    fn short_secrets_survive_restore() {
        let mut flow = sample_flow();
        flow.register_short_secret(&"itool".into(), "api-key", "Kx9#q2!z")
            .unwrap();
        let sealed = flow.export_sealed();
        let restored =
            BrowserFlow::import_sealed(StoreKey::from_bytes([3u8; 32]), &sealed).unwrap();
        assert_eq!(restored.short_secret_count(), 1);
        let decision = restored
            .check_one(&CheckRequest::paragraph(
                "gdocs",
                "d",
                0,
                "leaking kx9q2z now",
            ))
            .unwrap();
        assert_eq!(decision.action, UploadAction::Block);
    }

    #[test]
    fn warning_trail_survives_restore() {
        let flow = sample_flow();
        flow.check_one(&CheckRequest::paragraph("gdocs", "d", 0, SECRET))
            .unwrap();
        assert_eq!(flow.warnings().len(), 1);
        let sealed = flow.export_sealed();
        let restored =
            BrowserFlow::import_sealed(StoreKey::from_bytes([3u8; 32]), &sealed).unwrap();
        assert_eq!(restored.warnings().len(), 1);
        assert_eq!(restored.warnings()[0].destination.as_str(), "gdocs");
    }

    #[test]
    fn lineage_graph_survives_restore_byte_for_byte() {
        let ti = Tag::new("ti").unwrap();
        let flow = BrowserFlow::builder()
            .mode(EnforcementMode::Block)
            .store_key(StoreKey::from_bytes([3u8; 32]))
            .service(
                Service::new("itool", "Interview Tool")
                    .with_privilege(TagSet::from_iter([ti.clone()]))
                    .with_confidentiality(TagSet::from_iter([ti])),
            )
            .service(Service::new("gdocs", "Google Docs"))
            .service(Service::new("wiki", "Wiki"))
            .build()
            .unwrap();
        // A two-hop covert chain: the itool secret lands in a gdocs draft
        // with extra framing (hop 1, observe — the draft becomes
        // authoritative for its own rendition), then the draft is uploaded
        // to wiki (hop 2, a violating check) — the sentinel raises an
        // alert referencing both hops.
        flow.observe_paragraph(&"itool".into(), "eval", 0, SECRET)
            .unwrap();
        let draft = format!(
            "{SECRET} — drafting notes: we should summarise this rubric for \
             the hiring committee and circulate before the next debrief"
        );
        flow.observe_paragraph(&"gdocs".into(), "draft", 0, &draft)
            .unwrap();
        flow.check_one(&CheckRequest::paragraph("wiki", "page", 0, &draft))
            .unwrap();
        assert!(!flow.lineage().is_empty());
        assert!(!flow.alerts().is_empty());
        let snapshot = flow.lineage_snapshot();

        let sealed = flow.export_sealed();
        let restored =
            BrowserFlow::import_sealed(StoreKey::from_bytes([3u8; 32]), &sealed).unwrap();
        // Byte-for-byte: the restored instance reproduces the exact
        // snapshot, so drain → restore loses nothing and changes nothing.
        assert_eq!(restored.lineage_snapshot(), snapshot);
        assert_eq!(restored.lineage().edges(), flow.lineage().edges());
        assert_eq!(restored.alerts(), flow.alerts());

        // The directory layout round-trips identically.
        let dir = temp_dir("lineage");
        flow.persist_to_dir(&dir).unwrap();
        let (from_dir, report) =
            BrowserFlow::load_from_dir(StoreKey::from_bytes([3u8; 32]), &dir).unwrap();
        assert!(report.is_complete());
        assert_eq!(from_dir.lineage_snapshot(), snapshot);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lineage_snapshot_fails_closed_on_import() {
        let flow = sample_flow();
        flow.observe_paragraph(&"gdocs".into(), "draft", 0, SECRET)
            .unwrap();
        // Build a metadata snapshot with a damaged lineage blob and seal it
        // into an otherwise valid envelope: import must reject it as
        // malformed state, not panic or silently drop the graph.
        let mut metadata = flow.metadata_snapshot();
        assert!(!metadata.lineage.is_empty());
        metadata.lineage[10] ^= 0x5A;
        let json = serde_json::to_vec(&metadata).unwrap();
        let mut payload = Vec::new();
        push_chunk(&mut payload, &json);
        push_chunk(
            &mut payload,
            &codec::encode(flow.engine().paragraph_store()).unwrap(),
        );
        push_chunk(
            &mut payload,
            &codec::encode(flow.engine().document_store()).unwrap(),
        );
        let sealed = StoreKey::from_bytes([3u8; 32]).seal_auto(&payload);
        assert!(matches!(
            BrowserFlow::import_sealed(StoreKey::from_bytes([3u8; 32]), &sealed),
            Err(StateError::Malformed)
        ));
    }

    #[test]
    fn consecutive_exports_never_share_a_ciphertext() {
        // Nonce-reuse regression: the old API sealed every export under a
        // caller-chosen nonce; two exports with the same nonce handed an
        // attacker the XOR of the plaintexts. seal_auto must differ.
        let flow = sample_flow();
        let first = flow.export_sealed();
        let second = flow.export_sealed();
        assert_ne!(first.nonce(), second.nonce());
        assert_ne!(first.ciphertext(), second.ciphertext());
        // Both restore fine.
        assert!(BrowserFlow::import_sealed(StoreKey::from_bytes([3u8; 32]), &first).is_ok());
        assert!(BrowserFlow::import_sealed(StoreKey::from_bytes([3u8; 32]), &second).is_ok());
    }

    #[test]
    fn state_directory_roundtrip() {
        let dir = temp_dir("roundtrip");
        let flow = sample_flow();
        flow.persist_to_dir(&dir).unwrap();
        let (restored, report) =
            BrowserFlow::load_from_dir(StoreKey::from_bytes([3u8; 32]), &dir).unwrap();
        assert!(report.is_complete());
        assert_eq!(
            restored
                .check_one(&CheckRequest::paragraph("gdocs", "d", 0, SECRET))
                .unwrap()
                .action,
            UploadAction::Block
        );
        assert_eq!(restored.mode(), EnforcementMode::Block);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiered_state_directory_roundtrip_maps_cold_shards() {
        let dir = temp_dir("tiered");
        let flow = sample_flow();
        flow.persist_tiered_to_dir(&dir).unwrap();
        // The store directories hold plain v3 manifests (mapped cold on
        // load); the metadata stays sealed.
        assert!(dir.join(PARAGRAPHS_DIR).join("manifest.bfm").is_file());
        assert!(dir.join(METADATA_FILE).is_file());
        let (restored, report) =
            BrowserFlow::load_from_dir(StoreKey::from_bytes([3u8; 32]), &dir).unwrap();
        assert!(report.is_complete());
        // The fingerprints are served from cold (mmap'd) shard files.
        let stats = restored.engine().paragraph_store().stats();
        assert!(stats.cold_shards > 0, "no cold shards after tiered load");
        assert_eq!(stats.cold_segments, 1);
        assert_eq!(
            restored
                .check_one(&CheckRequest::paragraph("gdocs", "d", 0, SECRET))
                .unwrap()
                .action,
            UploadAction::Block
        );
        assert_eq!(restored.mode(), EnforcementMode::Block);
        // Metadata under the wrong key is still rejected outright.
        let mut rng = StdRng::seed_from_u64(7);
        assert!(matches!(
            BrowserFlow::load_from_dir(StoreKey::generate(&mut rng), &dir),
            Err(StateError::Codec(CodecError::Sealed(_)))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mixed_layout_state_root_auto_detects_per_store() {
        // A sealed snapshot re-persisted tiered (or vice versa) must keep
        // loading: detection is per store directory, not per state root.
        let dir = temp_dir("mixed");
        let flow = sample_flow();
        flow.persist_to_dir(&dir).unwrap();
        // Overwrite just the paragraph store with a tiered layout.
        std::fs::remove_dir_all(dir.join(PARAGRAPHS_DIR)).unwrap();
        PersistOptions::new()
            .format(StoreFormat::V3)
            .persist(flow.engine().paragraph_store(), &dir.join(PARAGRAPHS_DIR))
            .unwrap();
        let (restored, report) =
            BrowserFlow::load_from_dir(StoreKey::from_bytes([3u8; 32]), &dir).unwrap();
        assert!(report.is_complete());
        assert!(restored.engine().paragraph_store().stats().cold_shards > 0);
        assert_eq!(restored.engine().document_store().stats().cold_shards, 0);
        assert_eq!(
            restored
                .check_one(&CheckRequest::paragraph("gdocs", "d", 0, SECRET))
                .unwrap()
                .action,
            UploadAction::Block
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn state_directory_with_torn_shard_degrades_gracefully() {
        let dir = temp_dir("torn");
        let flow = sample_flow();
        flow.persist_to_dir(&dir).unwrap();
        // Tear one paragraph-store shard file (truncate its sealed bytes).
        let shards = dir.join(PARAGRAPHS_DIR);
        let mut torn = false;
        for entry in std::fs::read_dir(&shards).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("shard-") {
                let bytes = std::fs::read(&path).unwrap();
                if bytes.len() > 40 {
                    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
                    torn = true;
                    break;
                }
            }
        }
        assert!(torn, "found a shard with sealed content to tear");
        let (restored, report) =
            BrowserFlow::load_from_dir(StoreKey::from_bytes([3u8; 32]), &dir).unwrap();
        assert_eq!(report.paragraphs.lost_shards.len(), 1);
        assert!(report.documents.is_complete());
        assert!(!report.is_complete());
        // The flow still works; the lost fingerprints are just untracked.
        restored
            .check_one(&CheckRequest::paragraph("gdocs", "d", 0, SECRET))
            .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_key_is_rejected_for_directories() {
        let dir = temp_dir("wrongkey");
        let flow = sample_flow();
        flow.persist_to_dir(&dir).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(matches!(
            BrowserFlow::load_from_dir(StoreKey::generate(&mut rng), &dir),
            Err(StateError::Codec(CodecError::Sealed(_)))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
