//! Directory-backed store persistence with torn-write recovery and a
//! tiered (hot/cold) layout.
//!
//! The manifest + per-shard records map one-to-one onto files:
//!
//! ```text
//! <dir>/manifest.bfm     (plain)  or  <dir>/manifest.bfm.sealed
//! <dir>/shard-0000.bfs   (plain)  or  <dir>/shard-0000.bfs.sealed
//! <dir>/shard-0001.bfs   ...
//! ```
//!
//! Two record formats share that layout:
//!
//! * **v2** — length-prefixed records that are decoded into the hot
//!   (in-memory) tier on open. Plain or sealed.
//! * **v3** — alignment-safe records ([`crate::tier`]) that a cold open
//!   maps read-only and queries in place: no decode pass, no heap copy of
//!   the fingerprint data. Plain only — ciphertext cannot be mapped, so
//!   sealing stays a v2 affair (see [`PersistError::Unsupported`]).
//!
//! Every file is written atomically (temp file in the same directory →
//! `fsync` → `rename`), shards before the manifest, so a crash at any
//! point leaves either the previous consistent snapshot or the new one —
//! never a half-written manifest pointing at nothing. If a crash lands
//! between shard writes, the old manifest's CRCs disown the new shard
//! bytes, and opening degrades gracefully: the mismatched shards are
//! reported in the [`RestoreReport`] while every healthy shard loads.
//!
//! # The builder pair
//!
//! [`PersistOptions`] and [`StoreOpenOptions`] cover plain and sealed
//! snapshots in every format:
//!
//! ```no_run
//! use browserflow_store::{FingerprintStore, PersistOptions, StoreFormat, StoreOpenOptions, TierMode};
//! # fn main() -> Result<(), browserflow_store::PersistError> {
//! let store = FingerprintStore::new();
//! // Write a cold-mappable v3 snapshot…
//! PersistOptions::new()
//!     .format(StoreFormat::V3)
//!     .persist(&store, "state/store".as_ref())?;
//! // …and re-open it without decoding: segments stay in the mapped file.
//! let (reopened, report) = StoreOpenOptions::new()
//!     .tier(TierMode::Cold)
//!     .open("state/store".as_ref())?;
//! assert!(report.is_complete());
//! # let _ = reopened; Ok(()) }
//! ```

use crate::codec::{self, CodecError, Manifest, RestoreReport, ShardMeta};
use crate::tier::{ColdShard, TierState, TierSweep};
use crate::{FingerprintStore, SealedStore, StoreKey, Timestamp};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the snapshot manifest inside a persisted store directory.
/// Public so external tooling (corruption drills, the fuzz harness) can
/// address snapshot files without re-deriving the layout.
pub const MANIFEST_FILE: &str = "manifest.bfm";
const SEALED_SUFFIX: &str = ".sealed";
/// Magic of the single-file sealed container ([`SealedStore`]).
const SEALED_FILE_MAGIC: &[u8; 4] = b"BFSS";
/// Magic of plain serialised stores (v1/v2 single file, and manifests).
const PLAIN_FILE_MAGIC: &[u8; 4] = b"BFST";

pub(crate) fn shard_file(index: usize) -> String {
    format!("shard-{index:04}.bfs")
}

/// Error persisting or loading a store directory.
#[derive(Debug)]
pub enum PersistError {
    /// The filesystem said no.
    Io(std::io::Error),
    /// The on-disk bytes are not a valid store (or the wrong key was
    /// supplied for a sealed directory).
    Codec(CodecError),
    /// The requested option combination is not supported (for example a
    /// sealed v3 snapshot: cold shards must stay plaintext to be mapped,
    /// or opening a sealed directory without a key).
    Unsupported(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "store persistence I/O error: {e}"),
            PersistError::Codec(e) => write!(f, "store persistence codec error: {e}"),
            PersistError::Unsupported(what) => write!(f, "unsupported store operation: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Codec(e) => Some(e),
            PersistError::Unsupported(_) => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Codec(e)
    }
}

/// On-disk record format of a persisted snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreFormat {
    /// Length-prefixed v2 records, decoded into memory on open. The only
    /// format that supports sealing.
    #[default]
    V2,
    /// Alignment-safe v3 records a cold open maps and queries in place.
    V3,
}

/// How [`StoreOpenOptions::open`] materialises the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierMode {
    /// Decode every record into the mutable in-memory tier (v2 behaviour;
    /// also forced for v2 snapshots, which have no mappable layout).
    #[default]
    Hot,
    /// Map v3 shard files read-only and serve them in place; records are
    /// only promoted to memory when first written to. Restart cost and
    /// resident set scale with the hot working set, not the store.
    Cold,
}

/// Writes `bytes` to `path` atomically: a temp file in the same directory
/// is written, fsynced, then renamed over the destination, so readers and
/// crash recovery only ever observe the old bytes or the new bytes.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), std::io::Error> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself: fsync the containing directory.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Removes shard files at `first_stale` and above (both plain and sealed
/// spellings) left over from a previous, wider snapshot so they cannot
/// shadow a future layout.
fn remove_stale_shards(dir: &Path, first_stale: usize) {
    let mut stale = first_stale;
    loop {
        let plain = dir.join(shard_file(stale));
        let sealed = dir.join(format!("{}{SEALED_SUFFIX}", shard_file(stale)));
        let removed_plain = fs::remove_file(&plain).is_ok();
        let removed_sealed = fs::remove_file(&sealed).is_ok();
        if !removed_plain && !removed_sealed {
            break;
        }
        stale += 1;
    }
}

fn persist_parts(dir: &Path, manifest: &[u8], records: &[Vec<u8>]) -> Result<(), PersistError> {
    fs::create_dir_all(dir)?;
    // Shards first, manifest last: until the new manifest lands, loaders
    // still see the previous snapshot's directory.
    for (index, record) in records.iter().enumerate() {
        write_atomic(&dir.join(shard_file(index)), record)?;
    }
    write_atomic(&dir.join(MANIFEST_FILE), manifest)?;
    remove_stale_shards(dir, records.len());
    Ok(())
}

fn shard_meta_for(
    bytes: &[u8],
    segments: usize,
    sightings: usize,
) -> Result<ShardMeta, CodecError> {
    Ok(ShardMeta {
        crc: codec::crc32(bytes),
        byte_len: u64::try_from(bytes.len()).map_err(|_| CodecError::TooLarge)?,
        segment_count: segments as u64,
        sighting_count: sightings as u64,
    })
}

/// Encodes every stripe of `store` as a v3 shard record (in parallel) and
/// returns `(manifest, records)` ready for [`persist_parts`].
fn encode_v3_parts(
    store: &FingerprintStore,
    workers: usize,
) -> Result<(Vec<u8>, Vec<Vec<u8>>), PersistError> {
    let shard_count = store.shard_count();
    // Per-stripe snapshots under the stripe read locks: each shard file is
    // internally consistent, matching the v2 encoder's consistency model.
    let snapshots: Vec<_> = (0..shard_count)
        .map(|index| {
            let segments = store.segments.stripe(index).read().merged_segments();
            let sightings = store.hashes.stripe(index).read().merged_sightings();
            (index, segments, sightings)
        })
        .collect();

    let encoded: Vec<Result<Vec<u8>, CodecError>> = if workers > 1 && shard_count > 1 {
        let chunk_len = shard_count.div_ceil(workers);
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = snapshots
                .chunks(chunk_len)
                .map(|chunk| {
                    scope.spawn(move |_| {
                        chunk
                            .iter()
                            .map(|(index, segments, sightings)| {
                                crate::tier::encode_v3_shard(
                                    *index,
                                    shard_count,
                                    segments,
                                    sightings,
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard encoding must not panic"))
                .collect()
        })
        .expect("scoped encoding threads join cleanly")
    } else {
        snapshots
            .iter()
            .map(|(index, segments, sightings)| {
                crate::tier::encode_v3_shard(*index, shard_count, segments, sightings)
            })
            .collect()
    };

    let mut records = Vec::with_capacity(shard_count);
    let mut metas = Vec::with_capacity(shard_count);
    for (result, (_, segments, sightings)) in encoded.into_iter().zip(&snapshots) {
        let bytes = result?;
        metas.push(shard_meta_for(&bytes, segments.len(), sightings.len())?);
        records.push(bytes);
    }
    let manifest = codec::encode_manifest(codec::VERSION_V3, store.now().get(), &metas);
    Ok((manifest, records))
}

/// How to write a store snapshot: plain or sealed, v2 or v3.
///
/// Replaces `persist_to_dir` / `persist_sealed_to_dir`; the v3 format knob
/// is the reason the surface was collapsed — tiering slots in as one
/// builder option instead of a third pair of free functions.
#[derive(Debug, Clone, Default)]
pub struct PersistOptions {
    key: Option<StoreKey>,
    format: StoreFormat,
    workers: Option<usize>,
}

impl PersistOptions {
    /// Plain (unsealed) v2 snapshot — the former `persist_to_dir`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sealed snapshot under `key` (encrypted at rest, §4.4) — the former
    /// `persist_sealed_to_dir`. Only valid with [`StoreFormat::V2`].
    pub fn sealed(key: StoreKey) -> Self {
        Self {
            key: Some(key),
            ..Self::default()
        }
    }

    /// Selects the on-disk record format (default [`StoreFormat::V2`]).
    #[must_use]
    pub fn format(mut self, format: StoreFormat) -> Self {
        self.format = format;
        self
    }

    /// Caps the encoder worker threads (default: the disclosure worker
    /// count).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    fn worker_count(&self) -> usize {
        self.workers
            .unwrap_or_else(crate::disclosure::default_workers)
    }

    /// Writes `store` into `dir` per the selected options. Atomic in the
    /// same shards-then-manifest sense as every other writer here.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failure, [`PersistError::Codec`]
    /// if the store exceeds the format's length fields, and
    /// [`PersistError::Unsupported`] for sealed + [`StoreFormat::V3`]
    /// (mapped cold shards must stay plaintext).
    pub fn persist(&self, store: &FingerprintStore, dir: &Path) -> Result<(), PersistError> {
        match (self.format, &self.key) {
            (StoreFormat::V3, Some(_)) => Err(PersistError::Unsupported(
                "sealed v3 snapshots: cold shards are mapped in place and cannot be ciphertext; \
                 seal v2 or persist v3 plain",
            )),
            (StoreFormat::V3, None) => {
                let (manifest, records) = encode_v3_parts(store, self.worker_count())?;
                persist_parts(dir, &manifest, &records)
            }
            (StoreFormat::V2, None) => {
                let (manifest, records) =
                    codec::encode_v2_parts(store, store.shard_count(), self.worker_count())?;
                persist_parts(dir, &manifest, &records)
            }
            (StoreFormat::V2, Some(key)) => {
                let (manifest, records) =
                    codec::encode_v2_parts(store, store.shard_count(), self.worker_count())?;
                fs::create_dir_all(dir)?;
                for (index, record) in records.iter().enumerate() {
                    let sealed = key.seal_auto(record).to_bytes();
                    write_atomic(
                        &dir.join(format!("{}{SEALED_SUFFIX}", shard_file(index))),
                        &sealed,
                    )?;
                }
                write_atomic(
                    &dir.join(format!("{MANIFEST_FILE}{SEALED_SUFFIX}")),
                    &key.seal_auto(&manifest).to_bytes(),
                )?;
                remove_stale_shards(dir, records.len());
                Ok(())
            }
        }
    }
}

/// How to open a persisted snapshot: plain or sealed, hot or cold.
///
/// Replaces `load_from_dir` / `load_sealed_from_dir` and also accepts
/// single-file payloads (plain v1/v2 blobs and sealed containers), so any
/// snapshot ever written by this crate opens through one entry point.
#[derive(Debug, Clone, Default)]
pub struct StoreOpenOptions {
    key: Option<StoreKey>,
    tier: TierMode,
    workers: Option<usize>,
}

impl StoreOpenOptions {
    /// Plain open, hot tier — the former `load_from_dir`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open with `key` available for sealed payloads — the former
    /// `load_sealed_from_dir`.
    pub fn sealed(key: StoreKey) -> Self {
        Self {
            key: Some(key),
            ..Self::default()
        }
    }

    /// Selects the tier records land in (default [`TierMode::Hot`]).
    /// [`TierMode::Cold`] only takes effect for v3 directories; every
    /// other payload has no mappable layout and decodes hot.
    #[must_use]
    pub fn tier(mut self, tier: TierMode) -> Self {
        self.tier = tier;
        self
    }

    /// Caps the decoder worker threads (default: the disclosure worker
    /// count).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    fn worker_count(&self) -> usize {
        self.workers
            .unwrap_or_else(crate::disclosure::default_workers)
    }

    /// Opens the snapshot at `path` — a directory written by
    /// [`PersistOptions::persist`] (or the pre-0.7.0 free functions), or a
    /// single-file payload (plain v1/v2 bytes, or a sealed container).
    ///
    /// Degrades gracefully: shards that are missing, truncated, or
    /// checksum-failing are reported lost in the [`RestoreReport`]; every
    /// healthy shard loads (in parallel).
    ///
    /// # Errors
    ///
    /// Fails hard only when nothing can be restored at all: the manifest
    /// is unreadable, malformed, fails its checksum, or a sealed payload
    /// is found and no key was supplied ([`PersistError::Unsupported`]).
    pub fn open(&self, path: &Path) -> Result<(FingerprintStore, RestoreReport), PersistError> {
        if path.is_dir() {
            let plain_manifest = path.join(MANIFEST_FILE);
            let sealed_manifest = path.join(format!("{MANIFEST_FILE}{SEALED_SUFFIX}"));
            if plain_manifest.exists() {
                self.open_plain_dir(path)
            } else if sealed_manifest.exists() {
                self.open_sealed_dir(path)
            } else {
                // Surface the underlying NotFound.
                Err(PersistError::Io(
                    fs::read(&plain_manifest).expect_err("manifest known missing"),
                ))
            }
        } else {
            self.open_file(path)
        }
    }

    fn open_plain_dir(
        &self,
        dir: &Path,
    ) -> Result<(FingerprintStore, RestoreReport), PersistError> {
        let manifest_bytes = fs::read(dir.join(MANIFEST_FILE))?;
        let (version, manifest) = codec::parse_manifest_bytes(&manifest_bytes)?;
        if version == codec::VERSION_V3 {
            match self.tier {
                TierMode::Cold => open_cold_dir(dir, manifest),
                TierMode::Hot => self.open_v3_hot(dir, manifest),
            }
        } else {
            // v2: decode into the hot tier (there is no mappable layout).
            let regions: Vec<Option<Vec<u8>>> = (0..manifest.shards.len())
                .map(|index| fs::read(dir.join(shard_file(index))).ok())
                .collect();
            let (store, report) =
                codec::assemble_from_parts(&manifest, &regions, self.worker_count(), true)?;
            Ok((store, report))
        }
    }

    fn open_sealed_dir(
        &self,
        dir: &Path,
    ) -> Result<(FingerprintStore, RestoreReport), PersistError> {
        let Some(key) = &self.key else {
            return Err(PersistError::Unsupported(
                "directory holds a sealed snapshot; supply a key via StoreOpenOptions::sealed",
            ));
        };
        let manifest_wire = fs::read(dir.join(format!("{MANIFEST_FILE}{SEALED_SUFFIX}")))?;
        let manifest_sealed =
            crate::SealedBytes::from_bytes(&manifest_wire).map_err(CodecError::Sealed)?;
        let manifest_bytes = key.unseal(&manifest_sealed).map_err(CodecError::Sealed)?;
        let (version, manifest) = codec::parse_manifest_bytes(&manifest_bytes)?;
        if version != codec::VERSION_V2 {
            // Sealed directories carry v2 records only (cold v3 shards are
            // plain so they can be mapped).
            return Err(CodecError::UnsupportedVersion { found: version }.into());
        }
        let regions: Vec<Option<Vec<u8>>> = (0..manifest.shards.len())
            .map(|index| {
                let wire =
                    fs::read(dir.join(format!("{}{SEALED_SUFFIX}", shard_file(index)))).ok()?;
                let sealed = crate::SealedBytes::from_bytes(&wire).ok()?;
                key.unseal(&sealed).ok()
            })
            .collect();
        let (store, report) =
            codec::assemble_from_parts(&manifest, &regions, self.worker_count(), true)?;
        Ok((store, report))
    }

    /// Decodes a v3 directory fully into the hot tier (no mapping kept):
    /// the authoritative sets are persisted in v3, so unlike the v2 path
    /// no post-restore index rebuild is needed.
    fn open_v3_hot(
        &self,
        dir: &Path,
        manifest: Manifest,
    ) -> Result<(FingerprintStore, RestoreReport), PersistError> {
        let shard_count = manifest.shards.len();
        let store = FingerprintStore::with_shard_count(shard_count);
        if store.shard_count() != shard_count {
            return Err(CodecError::Truncated.into());
        }
        let shards = open_cold_shards(dir, &manifest, self.worker_count());
        let mut report = RestoreReport::default();
        for (index, result) in shards {
            match result {
                Ok(None) => report.loaded_shards += 1,
                Ok(Some(cold)) => {
                    for entry in 0..cold.segment_count() {
                        store.segments.upsert(
                            cold.dir_id(entry),
                            cold.hashes_at(entry).to_vec(),
                            cold.authoritative_at(entry).to_vec(),
                            cold.dir_threshold(entry),
                            cold.dir_updated(entry),
                        );
                    }
                    for entry in 0..cold.sighting_count() {
                        let (hash, sighting) = cold.sighting_at(entry);
                        store.restore_sighting(hash, sighting.segment, sighting.time);
                    }
                    report.loaded_shards += 1;
                }
                Err(_) => {
                    report.lost_shards.push(index);
                    report.lost_segments += manifest.shards[index].segment_count;
                }
            }
        }
        store.restore_clock(Timestamp::new(manifest.clock));
        Ok((store, report))
    }

    fn open_file(&self, path: &Path) -> Result<(FingerprintStore, RestoreReport), PersistError> {
        let bytes = fs::read(path)?;
        match bytes.get(..4) {
            Some(magic) if magic == PLAIN_FILE_MAGIC => {
                let (store, report) =
                    codec::decode_lossy_with_workers(&bytes, self.worker_count())?;
                Ok((store, report))
            }
            Some(magic) if magic == SEALED_FILE_MAGIC => {
                let Some(key) = &self.key else {
                    return Err(PersistError::Unsupported(
                        "file is a sealed container; supply a key via StoreOpenOptions::sealed",
                    ));
                };
                let sealed = SealedStore::from_bytes(&bytes).map_err(CodecError::Sealed)?;
                let (store, report) = FingerprintStore::import_sealed_lossy(key, &sealed)?;
                Ok((store, report))
            }
            _ => Err(CodecError::BadMagic.into()),
        }
    }
}

/// One shard's cold-open outcome: `Ok(None)` for an empty
/// (`byte_len == 0`) meta, `Ok(Some(shard))` on success, the per-shard
/// error otherwise.
type ColdOpenResult = Result<Option<Arc<ColdShard>>, CodecError>;

/// Opens every non-empty shard file of a v3 directory in parallel,
/// returning each shard's [`ColdOpenResult`] in index order.
fn open_cold_shards(
    dir: &Path,
    manifest: &Manifest,
    workers: usize,
) -> Vec<(usize, ColdOpenResult)> {
    let shard_count = manifest.shards.len();
    let open_one = |index: usize| -> ColdOpenResult {
        let meta = &manifest.shards[index];
        if meta.byte_len == 0 {
            return Ok(None);
        }
        ColdShard::open(&dir.join(shard_file(index)), index, shard_count, meta)
            .map(|shard| Some(Arc::new(shard)))
    };
    let mut results: Vec<(usize, ColdOpenResult)> = if workers > 1 && shard_count > 1 {
        let indices: Vec<usize> = (0..shard_count).collect();
        let chunk_len = shard_count.div_ceil(workers);
        crossbeam::thread::scope(|scope| {
            let open_one = &open_one;
            let handles: Vec<_> = indices
                .chunks(chunk_len)
                .map(|chunk| {
                    scope.spawn(move |_| {
                        chunk
                            .iter()
                            .map(|&index| (index, open_one(index)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard mapping must not panic"))
                .collect()
        })
        .expect("scoped mapping threads join cleanly")
    } else {
        (0..shard_count)
            .map(|index| (index, open_one(index)))
            .collect()
    };
    results.sort_unstable_by_key(|(index, _)| *index);
    results
}

/// The cold open: map every shard file, validate it once, and attach the
/// mapping to both stripe sides — no record is decoded. A shard that
/// fails validation is lost (its meta is zeroed so later demotion sweeps
/// rewrite it from scratch) but never aborts the open.
fn open_cold_dir(
    dir: &Path,
    manifest: Manifest,
) -> Result<(FingerprintStore, RestoreReport), PersistError> {
    let shard_count = manifest.shards.len();
    let store = FingerprintStore::with_shard_count(shard_count);
    if store.shard_count() != shard_count {
        // The stripe count clamps to a power of two; a CRC-valid manifest
        // always records one, so a mismatch means a malformed payload.
        return Err(CodecError::Truncated.into());
    }
    let mut metas = manifest.shards.clone();
    let shards = open_cold_shards(dir, &manifest, crate::disclosure::default_workers());
    let mut report = RestoreReport::default();
    for (index, result) in shards {
        match result {
            Ok(None) => report.loaded_shards += 1,
            Ok(Some(cold)) => {
                store.hashes.attach_cold(index, Arc::clone(&cold));
                store.segments.attach_cold(index, cold);
                report.loaded_shards += 1;
            }
            Err(_) => {
                report.lost_shards.push(index);
                report.lost_segments += manifest.shards[index].segment_count;
                metas[index] = ShardMeta::default();
            }
        }
    }
    store.restore_clock(Timestamp::new(manifest.clock));
    *store.tier.lock() = Some(TierState {
        dir: dir.to_path_buf(),
        metas,
    });
    Ok((store, report))
}

impl FingerprintStore {
    /// Attaches an empty cold tier rooted at `dir` to a store that was not
    /// opened cold, enabling [`demote_idle_shards`] sweeps. Writes an
    /// initial all-empty v3 manifest so the directory is a valid (empty)
    /// snapshot from the first moment.
    ///
    /// [`demote_idle_shards`]: FingerprintStore::demote_idle_shards
    ///
    /// # Errors
    ///
    /// [`PersistError::Unsupported`] if a tier is already attached or
    /// `dir` already holds a snapshot (open that instead), and
    /// [`PersistError::Io`] on filesystem failure.
    pub fn attach_tier(&self, dir: &Path) -> Result<(), PersistError> {
        let mut tier = self.tier.lock();
        if tier.is_some() {
            return Err(PersistError::Unsupported(
                "a cold tier is already attached to this store",
            ));
        }
        if dir.join(MANIFEST_FILE).exists() {
            return Err(PersistError::Unsupported(
                "directory already holds a snapshot; open it with StoreOpenOptions instead",
            ));
        }
        fs::create_dir_all(dir)?;
        let metas = vec![ShardMeta::default(); self.shard_count()];
        let manifest = codec::encode_manifest(codec::VERSION_V3, self.now().get(), &metas);
        write_atomic(&dir.join(MANIFEST_FILE), &manifest)?;
        *tier = Some(TierState {
            dir: dir.to_path_buf(),
            metas,
        });
        Ok(())
    }

    /// The eviction sweep's demotion half: rewrites every *idle* dirty
    /// stripe (no hot segment updated at or after `cutoff`) as a sealed
    /// cold shard file and re-attaches the mapping, dropping the stripe's
    /// hot memory. Stripes that are still hot but whose cold file carries
    /// promotion shadows — records superseded by promoted hot copies —
    /// get a *compaction* rewrite instead: the file is rewritten with
    /// only the live cold records, the hot tier stays put, and the bytes
    /// dropped are reported as [`TierSweep::reclaimed_bytes`]. The
    /// manifest is rewritten once at the end, so a crash mid-sweep leaves
    /// the previous manifest disowning the newer shard bytes — the
    /// standard torn-write story.
    ///
    /// Requires a cold tier (a cold open or [`attach_tier`]).
    ///
    /// [`attach_tier`]: FingerprintStore::attach_tier
    ///
    /// # Errors
    ///
    /// [`PersistError::Unsupported`] without an attached tier;
    /// [`PersistError::Io`] / [`PersistError::Codec`] from writing or
    /// re-mapping a shard file.
    pub fn demote_idle_shards(&self, cutoff: Timestamp) -> Result<TierSweep, PersistError> {
        // The tier mutex serialises sweeps and protects the meta table.
        let mut tier = self.tier.lock();
        let Some(state) = tier.as_mut() else {
            return Err(PersistError::Unsupported(
                "no cold tier attached; open cold or call attach_tier first",
            ));
        };
        let shard_count = self.shard_count();
        debug_assert_eq!(state.metas.len(), shard_count);
        let mut sweep = TierSweep::default();
        for index in 0..shard_count {
            // Lock order (segments, then hashes) is shared with nothing
            // else: all other paths take exactly one stripe lock.
            let mut segments = self.segments.stripe(index).write();
            let mut hashes = self.hashes.stripe(index).write();
            let dirty = segments.is_dirty() || hashes.is_dirty();
            if !dirty || !segments.hot_is_idle(cutoff) {
                // The stripe stays hot, but its cold file may still carry
                // records superseded by promoted hot copies (promotion
                // shadows). Rewrite the file cold-live-only — the hot tier
                // is untouched — and account the bytes dropped.
                if !segments.cold_has_tombstones() && !hashes.cold_has_tombstones() {
                    continue;
                }
                let live_segments = segments.cold_live_segments();
                let live_sightings = hashes.cold_live_sightings();
                let bytes = crate::tier::encode_v3_shard(
                    index,
                    shard_count,
                    &live_segments,
                    &live_sightings,
                )?;
                let path = state.dir.join(shard_file(index));
                write_atomic(&path, &bytes)?;
                let meta = shard_meta_for(&bytes, live_segments.len(), live_sightings.len())?;
                let cold = Arc::new(ColdShard::open(&path, index, shard_count, &meta)?);
                segments.replace_cold(Arc::clone(&cold));
                hashes.replace_cold(cold);
                sweep.reclaimed_bytes += state.metas[index].byte_len.saturating_sub(meta.byte_len);
                state.metas[index] = meta;
                sweep.compacted_shards += 1;
                continue;
            }
            let merged_segments = segments.merged_segments();
            let merged_sightings = hashes.merged_sightings();
            let bytes = crate::tier::encode_v3_shard(
                index,
                shard_count,
                &merged_segments,
                &merged_sightings,
            )?;
            let path = state.dir.join(shard_file(index));
            write_atomic(&path, &bytes)?;
            let meta = shard_meta_for(&bytes, merged_segments.len(), merged_sightings.len())?;
            let cold = Arc::new(ColdShard::open(&path, index, shard_count, &meta)?);
            segments.attach_cold(Arc::clone(&cold));
            hashes.attach_cold(cold);
            sweep.reclaimed_bytes += state.metas[index].byte_len.saturating_sub(meta.byte_len);
            state.metas[index] = meta;
            sweep.demoted_shards += 1;
            sweep.demoted_segments += merged_segments.len();
            sweep.demoted_sightings += merged_sightings.len();
        }
        if sweep.demoted_shards > 0 || sweep.compacted_shards > 0 {
            let manifest =
                codec::encode_manifest(codec::VERSION_V3, self.now().get(), &state.metas);
            write_atomic(&state.dir.join(MANIFEST_FILE), &manifest)?;
            self.tier_demoted_shards.fetch_add(
                sweep.demoted_shards as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
        }
        Ok(sweep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegmentId;
    use browserflow_fingerprint::Fingerprinter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bf-persist-{tag}-{}-{:p}",
            std::process::id(),
            &tag
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_store() -> FingerprintStore {
        let fp = Fingerprinter::default();
        let store = FingerprintStore::new();
        for i in 0..20u64 {
            store.observe(
                SegmentId::new(i + 1),
                &fp.fingerprint(&format!(
                    "paragraph number {i} with enough distinct words to fingerprint cleanly"
                )),
                0.5,
            );
        }
        store
    }

    #[test]
    fn plain_directory_roundtrip() {
        let dir = temp_dir("plain");
        let store = sample_store();
        PersistOptions::new().persist(&store, &dir).unwrap();
        let (loaded, report) = StoreOpenOptions::new().open(&dir).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.loaded_shards, store.shard_count());
        assert_eq!(loaded.segment_count(), store.segment_count());
        assert_eq!(loaded.hash_count(), store.hash_count());
        assert_eq!(loaded.now(), store.now());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sealed_directory_roundtrip_and_wrong_key() {
        let dir = temp_dir("sealed");
        let mut rng = StdRng::seed_from_u64(11);
        let key = StoreKey::generate(&mut rng);
        let store = sample_store();
        PersistOptions::sealed(key.clone())
            .persist(&store, &dir)
            .unwrap();
        let (loaded, report) = StoreOpenOptions::sealed(key).open(&dir).unwrap();
        assert!(report.is_complete());
        assert_eq!(loaded.segment_count(), store.segment_count());

        let wrong = StoreKey::generate(&mut rng);
        assert!(matches!(
            StoreOpenOptions::sealed(wrong).open(&dir),
            Err(PersistError::Codec(CodecError::Sealed(_)))
        ));
        // And no key at all is rejected up front.
        assert!(matches!(
            StoreOpenOptions::new().open(&dir),
            Err(PersistError::Unsupported(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_shard_is_reported_lost_not_fatal() {
        let dir = temp_dir("missing");
        let store = sample_store();
        PersistOptions::new().persist(&store, &dir).unwrap();
        fs::remove_file(dir.join(shard_file(0))).unwrap();
        let (_, report) = StoreOpenOptions::new().open(&dir).unwrap();
        assert_eq!(report.lost_shards, vec![0]);
        assert_eq!(report.loaded_shards, store.shard_count() - 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repersist_drops_stale_wider_shards() {
        let dir = temp_dir("stale");
        let store = sample_store();
        PersistOptions::new().persist(&store, &dir).unwrap();
        let count = store.shard_count();
        // Fake a leftover shard from a previous, wider snapshot.
        fs::write(dir.join(shard_file(count)), b"stale").unwrap();
        PersistOptions::new().persist(&store, &dir).unwrap();
        assert!(!dir.join(shard_file(count)).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sealed_v3_is_unsupported() {
        let dir = temp_dir("sealed-v3");
        let mut rng = StdRng::seed_from_u64(7);
        let key = StoreKey::generate(&mut rng);
        let store = sample_store();
        assert!(matches!(
            PersistOptions::sealed(key)
                .format(StoreFormat::V3)
                .persist(&store, &dir),
            Err(PersistError::Unsupported(_))
        ));
        assert!(!dir.exists());
    }
}
