//! Shared fixtures for the fuzz targets.
//!
//! The store-codec and state-metadata targets need realistic persisted
//! snapshots to corrupt; building them is expensive relative to one fuzz
//! iteration, so they are constructed once per process and the
//! per-iteration work is a single file overwrite plus an open.

use std::fs;
use std::path::{Path, PathBuf};

use browserflow::{
    BrowserFlow, CheckRequest, EnforcementMode, TenantConfig, TenantId, TenantRegistry,
    STATE_METADATA_FILE,
};
use browserflow_fingerprint::Fingerprinter;
use browserflow_store::persist::MANIFEST_FILE;
use browserflow_store::{FingerprintStore, PersistOptions, SegmentId, StoreFormat, StoreKey};
use browserflow_tdm::{Service, Tag, TagSet};

/// Builds the small but non-trivial store every snapshot fixture persists:
/// enough segments to span multiple shards, with overlapping text so the
/// hash side of the codec sees shared and unique values.
pub fn sample_store() -> FingerprintStore {
    let fp = Fingerprinter::default();
    let store = FingerprintStore::new();
    for i in 0..24u64 {
        let text = format!(
            "fuzz corpus paragraph number {i} with enough distinct words to \
             fingerprint cleanly and a shared clause that repeats verbatim \
             across every paragraph of the fixture"
        );
        store.observe(SegmentId::new(i + 1), &fp.fingerprint(&text), 0.5);
    }
    store
}

/// A persisted snapshot directory plus the paths the fuzzer overwrites.
pub struct SnapshotFixture {
    /// Snapshot directory (manifest + shards).
    pub dir: PathBuf,
    /// Path of the first shard file, sorted by name.
    pub shard: PathBuf,
    /// Path of the manifest file.
    pub manifest: PathBuf,
}

impl SnapshotFixture {
    /// Persists [`sample_store`] in `format` under a fresh process-scoped
    /// temp directory tagged `tag`.
    pub fn create(tag: &str, format: StoreFormat) -> Self {
        let dir = std::env::temp_dir().join(format!("bf-fuzz-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = sample_store();
        PersistOptions::new()
            .format(format)
            .persist(&store, &dir)
            .expect("fixture snapshot persists");
        let shard = first_shard(&dir);
        let manifest = dir.join(MANIFEST_FILE);
        Self {
            dir,
            shard,
            manifest,
        }
    }
}

/// First (by name) non-manifest file of a snapshot directory.
pub fn first_shard(dir: &Path) -> PathBuf {
    let mut shards: Vec<PathBuf> = fs::read_dir(dir)
        .expect("snapshot dir readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.is_file() && p.file_name().map(|n| n.to_string_lossy() != MANIFEST_FILE) == Some(true)
        })
        .collect();
    shards.sort();
    shards.into_iter().next().expect("snapshot has shards")
}

/// Key the drained-state fixture is sealed under.
pub const STATE_KEY: [u8; 32] = [7u8; 32];

/// A tenant drained the way `bfd --tiered-state` drains one, plus the
/// pieces the state-metadata target splices hostile bytes into.
pub struct DrainedState {
    /// The tenant's state directory (sealed metadata + two tiered stores).
    pub dir: PathBuf,
    /// Path of the sealed metadata file inside `dir`.
    pub metadata: PathBuf,
    /// The two store chunks that follow the metadata chunk in an
    /// [`BrowserFlow::export_sealed`] envelope of the same state.
    pub store_chunks: Vec<u8>,
}

impl DrainedState {
    /// Drains a small but non-trivial tenant (observations, a blocked
    /// check, lineage, audit) into a fresh process-scoped temp directory
    /// tagged `tag`.
    pub fn create(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("bf-fuzz-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let registry = TenantRegistry::new();
        let tenant = registry
            .create(
                TenantId::new("fuzz").expect("valid tenant id"),
                sample_flow(),
                TenantConfig::default(),
            )
            .expect("fresh registry");
        for i in 0..6 {
            tenant
                .observe("itool", "notes", i, sample_paragraph(i))
                .expect("tenant accepts observations");
        }
        let (pending, _permit) = tenant
            .try_check(CheckRequest::paragraph(
                "gdocs",
                "leak",
                0,
                sample_paragraph(2),
            ))
            .expect("tenant admits a check");
        pending.wait().expect("check decided");
        let reports = registry.drain_all_with(Some(&root), true);
        assert!(
            reports.iter().all(|r| r.error.is_none()),
            "fixture drain failed: {reports:?}"
        );
        let dir = root.join("fuzz");
        let metadata = dir.join(STATE_METADATA_FILE);
        let key = StoreKey::from_bytes(STATE_KEY);
        let (flow, _) = BrowserFlow::load_from_dir(key.clone(), &dir).expect("drain restores");
        let envelope = key.unseal(&flow.export_sealed()).expect("export unseals");
        let json_len = u32::from_le_bytes(envelope[..4].try_into().expect("chunk header")) as usize;
        let store_chunks = envelope[4 + json_len..].to_vec();
        Self {
            dir,
            metadata,
            store_chunks,
        }
    }
}

/// The flow every drained-state fixture starts from: an interview tool
/// whose paragraphs may not reach Google Docs.
pub fn sample_flow() -> BrowserFlow {
    let ti = Tag::new("ti").expect("valid tag");
    BrowserFlow::builder()
        .mode(EnforcementMode::Block)
        .store_key(StoreKey::from_bytes(STATE_KEY))
        .service(
            Service::new("itool", "Interview Tool")
                .with_privilege(TagSet::from_iter([ti.clone()]))
                .with_confidentiality(TagSet::from_iter([ti])),
        )
        .service(Service::new("gdocs", "Google Docs"))
        .build()
        .expect("fixture flow builds")
}

/// Paragraph `i` of the fixtures: long enough to fingerprint, with
/// escapes and non-ASCII text so encoded frames carry both.
pub fn sample_paragraph(i: usize) -> String {
    format!(
        "candidate {i} \"quoted\" notes: the panel rated the Zürich \
         interview 4/5, with a follow-up on system design \u{1F4DD} and a\t\
         tab-separated score sheet that stays strictly confidential"
    )
}
