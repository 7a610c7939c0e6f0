//! Binary serialisation of the fingerprint store, with sealed (encrypted)
//! export for at-rest protection (§4.4).
//!
//! Two little-endian formats share the `BFST` magic:
//!
//! **v1 (legacy, decode-only)** — one monolithic record:
//!
//! ```text
//! magic "BFST" | u16 version=1 | u64 clock
//! u64 segment_count | per segment: u64 id, f64 threshold, u64 updated,
//!                                   u32 hash_count, [u32 hashes...]
//! u64 sighting_count | per sighting: u32 hash, u64 segment, u64 time
//! ```
//!
//! **v2 (current)** — a checksummed manifest followed by independently
//! decodable per-shard records that mirror the in-memory lock striping
//! (segments keyed by `id & mask`, sightings by `hash & mask`):
//!
//! ```text
//! manifest: magic "BFST" | u16 version=2 | u64 clock | u32 shard_count
//!           per shard: u32 crc32, u64 byte_len, u64 segment_count,
//!                      u64 sighting_count
//!           u32 manifest_crc32 (over every preceding manifest byte)
//! records:  shard 0 bytes | shard 1 bytes | ...
//! shard record: u64 segment_count | segments... |
//!               u64 sighting_count | sightings...   (v1 record layouts)
//! ```
//!
//! Shards are encoded and decoded in parallel (contiguous runs of shards
//! per worker, through [`crate::pool::fan_out`]), and each shard stands
//! alone: a torn write or bit flip is confined to the shard it hits. The lossy
//! decoders ([`decode_lossy`], [`FingerprintStore::import_sealed_lossy`])
//! load every healthy shard and report the damaged ones in a
//! [`RestoreReport`] instead of failing the whole restore.

use crate::hash_db::Sighting;
use crate::segment_db::StoredSegment;
use crate::{FingerprintStore, SealedBytes, SegmentId, StoreKey, Timestamp};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"BFST";
const VERSION_V1: u16 = 1;
pub(crate) const VERSION_V2: u16 = 2;
/// Manifest version announcing v3 (zero-copy cold shard) record files.
/// The manifest layout is byte-identical to v2 — only the version field
/// and the referenced shard format ([`crate::tier`]) differ.
pub(crate) const VERSION_V3: u16 = 3;
/// Upper bound on the shard count a payload may declare.
const MAX_SHARDS: usize = 1 << 16;
/// Magic for the per-shard sealed container ([`SealedStore`]).
const SEALED_MAGIC: &[u8; 4] = b"BFSS";

/// Error decoding a serialised store.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The payload does not start with the store magic bytes.
    BadMagic,
    /// The payload's format version is not supported.
    UnsupportedVersion {
        /// The version found in the payload.
        found: u16,
    },
    /// The payload ended prematurely or contains trailing garbage.
    Truncated,
    /// The manifest's own checksum did not verify: the shard directory
    /// cannot be trusted, so nothing can be restored.
    ManifestChecksum,
    /// A shard record's bytes did not match the CRC the manifest recorded.
    ShardChecksum {
        /// Index of the failing shard.
        shard: usize,
    },
    /// A shard record contained data belonging to a different shard, or
    /// disagreed with the manifest about its record counts.
    ShardMismatch {
        /// Index of the failing shard.
        shard: usize,
    },
    /// The payload listed the same segment id twice.
    DuplicateSegment {
        /// The repeated raw segment id.
        segment: u64,
    },
    /// The payload listed two first-sighting records for the same hash.
    DuplicateSighting {
        /// The repeated hash.
        hash: u32,
        /// The segment of the second (rejected) record.
        segment: u64,
    },
    /// A collection is too large for the format's length fields.
    TooLarge,
    /// The sealed payload failed to decrypt.
    Sealed(crate::EncryptionError),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "payload is not a serialised fingerprint store"),
            CodecError::UnsupportedVersion { found } => {
                write!(f, "unsupported store format version {found}")
            }
            CodecError::Truncated => write!(f, "payload is truncated or malformed"),
            CodecError::ManifestChecksum => write!(f, "manifest checksum mismatch"),
            CodecError::ShardChecksum { shard } => {
                write!(f, "shard {shard} failed its checksum")
            }
            CodecError::ShardMismatch { shard } => {
                write!(f, "shard {shard} contains records that do not belong to it")
            }
            CodecError::DuplicateSegment { segment } => {
                write!(f, "payload lists segment {segment} twice")
            }
            CodecError::DuplicateSighting { hash, segment } => {
                write!(
                    f,
                    "payload lists two sightings of hash {hash} (second in segment {segment})"
                )
            }
            CodecError::TooLarge => write!(f, "store is too large for the format's length fields"),
            CodecError::Sealed(e) => write!(f, "sealed payload rejected: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Outcome of a lossy restore: which shards loaded and which were
/// sacrificed to corruption (§4.4's torn-write robustness).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RestoreReport {
    /// Shards that decoded and installed cleanly.
    pub loaded_shards: usize,
    /// Indices of shards that were torn, missing, or failed their
    /// checksum, in ascending order.
    pub lost_shards: Vec<usize>,
    /// Total segment fingerprints recorded in the manifest for the lost
    /// shards (what the corruption cost).
    pub lost_segments: u64,
}

impl RestoreReport {
    /// Whether every shard was restored.
    pub fn is_complete(&self) -> bool {
        self.lost_shards.is_empty()
    }
}

impl fmt::Display for RestoreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complete() {
            write!(f, "{} shard(s) restored", self.loaded_shards)
        } else {
            write!(
                f,
                "{} shard(s) restored, {} lost {:?} ({} segment(s) gone)",
                self.loaded_shards,
                self.lost_shards.len(),
                self.lost_shards,
                self.lost_segments
            )
        }
    }
}

// --- CRC32 (IEEE 802.3 polynomial, slicing-by-8) --------------------------
//
// Cold-tier opens are checksum-bound (validation is otherwise O(1) header
// checks plus linear directory scans), so the CRC is the hot loop of the
// ≥10x cold-open floor: slicing-by-8 processes 8 bytes per iteration with
// 8 independent table lookups instead of one byte at a time.

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `bytes`: the checksum
/// of every store manifest and shard, and of the lineage snapshot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().expect("4-byte chunk")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().expect("4-byte chunk"));
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

// --- Length-field guards --------------------------------------------------

/// Narrows a collection length to the format's `u32` field, failing with
/// [`CodecError::TooLarge`] instead of silently truncating (`as u32` would
/// corrupt the payload for a segment with more than 2^32 hashes).
pub(crate) fn len_u32(len: usize) -> Result<u32, CodecError> {
    u32::try_from(len).map_err(|_| CodecError::TooLarge)
}

fn len_u64(len: usize) -> Result<u64, CodecError> {
    u64::try_from(len).map_err(|_| CodecError::TooLarge)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        // `n` comes from untrusted length fields: both the addition and
        // the slice bounds must fail closed, never panic or wrap.
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn position(&self) -> usize {
        self.pos
    }

    /// The bytes consumed so far (for checksumming a parsed prefix).
    fn consumed(&self) -> &'a [u8] {
        &self.bytes[..self.pos]
    }

    /// Validates that `count` records of at least `min_record_bytes` each
    /// can still fit in the remaining payload, so corrupted counts cannot
    /// trigger huge up-front allocations.
    fn check_count(&self, count: u64, min_record_bytes: usize) -> Result<usize, CodecError> {
        let count = usize::try_from(count).map_err(|_| CodecError::Truncated)?;
        if count
            .checked_mul(min_record_bytes)
            .is_none_or(|needed| needed > self.remaining())
        {
            return Err(CodecError::Truncated);
        }
        Ok(count)
    }
}

// --- Manifest -------------------------------------------------------------

/// One shard's entry in the v2/v3 manifest. The `Default` value describes
/// an empty shard with no record file (`byte_len == 0`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct ShardMeta {
    pub(crate) crc: u32,
    pub(crate) byte_len: u64,
    pub(crate) segment_count: u64,
    pub(crate) sighting_count: u64,
}

/// The parsed v2 manifest: the shard directory a restore trusts after its
/// checksum verifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    pub(crate) clock: u64,
    pub(crate) shards: Vec<ShardMeta>,
}

/// Parses the manifest body. The caller has already consumed the magic and
/// the version field (== 2); the manifest CRC covers everything from byte 0
/// of the payload through the last shard entry.
fn parse_manifest(reader: &mut Reader) -> Result<Manifest, CodecError> {
    let clock = reader.u64()?;
    let shard_count = u64::from(reader.u32()?);
    let shard_count = reader.check_count(shard_count, 28)?;
    if shard_count == 0 || shard_count > MAX_SHARDS || !shard_count.is_power_of_two() {
        return Err(CodecError::Truncated);
    }
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        shards.push(ShardMeta {
            crc: reader.u32()?,
            byte_len: reader.u64()?,
            segment_count: reader.u64()?,
            sighting_count: reader.u64()?,
        });
    }
    let computed = crc32(reader.consumed());
    if reader.u32()? != computed {
        return Err(CodecError::ManifestChecksum);
    }
    Ok(Manifest { clock, shards })
}

/// Parses a standalone manifest payload (magic + version + manifest), as
/// written by the directory persistence layer, returning the version tag
/// (v2 and v3 share the manifest layout; the shard record format they
/// point at differs) alongside the parsed directory.
pub(crate) fn parse_manifest_bytes(bytes: &[u8]) -> Result<(u16, Manifest), CodecError> {
    let mut reader = Reader::new(bytes);
    if reader.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = reader.u16()?;
    if version != VERSION_V2 && version != VERSION_V3 {
        return Err(CodecError::UnsupportedVersion { found: version });
    }
    let manifest = parse_manifest(&mut reader)?;
    if !reader.finished() {
        return Err(CodecError::Truncated);
    }
    Ok((version, manifest))
}

/// Serialises a manifest (magic, version, clock, shard directory,
/// trailing CRC) — the standalone payload the directory persistence layer
/// writes, shared by v2 and v3.
pub(crate) fn encode_manifest(version: u16, clock: u64, shards: &[ShardMeta]) -> Vec<u8> {
    let mut manifest = Vec::with_capacity(4 + 2 + 8 + 4 + shards.len() * 28 + 4);
    manifest.extend_from_slice(MAGIC);
    manifest.extend_from_slice(&version.to_le_bytes());
    manifest.extend_from_slice(&clock.to_le_bytes());
    manifest.extend_from_slice(&(shards.len() as u32).to_le_bytes());
    for shard in shards {
        manifest.extend_from_slice(&shard.crc.to_le_bytes());
        manifest.extend_from_slice(&shard.byte_len.to_le_bytes());
        manifest.extend_from_slice(&shard.segment_count.to_le_bytes());
        manifest.extend_from_slice(&shard.sighting_count.to_le_bytes());
    }
    let crc = crc32(&manifest);
    manifest.extend_from_slice(&crc.to_le_bytes());
    manifest
}

// --- Encoding -------------------------------------------------------------

struct EncodedShard {
    bytes: Vec<u8>,
    segment_count: u64,
    sighting_count: u64,
}

/// Encodes one shard's segments and sightings into a standalone record.
/// Segments removed between the snapshot and this call are skipped — the
/// written count is the count of records actually present.
fn encode_shard_record(
    store: &FingerprintStore,
    segments: &[SegmentId],
    sightings: &[(u32, Sighting)],
) -> Result<EncodedShard, CodecError> {
    let stored: Vec<(SegmentId, Arc<StoredSegment>)> = segments
        .iter()
        .filter_map(|&id| store.segment(id).map(|s| (id, s)))
        .collect();
    let mut out = Vec::new();
    out.extend_from_slice(&len_u64(stored.len())?.to_le_bytes());
    for (id, segment) in &stored {
        out.extend_from_slice(&id.get().to_le_bytes());
        out.extend_from_slice(&segment.threshold().to_le_bytes());
        out.extend_from_slice(&segment.updated().get().to_le_bytes());
        out.extend_from_slice(&len_u32(segment.hashes().len())?.to_le_bytes());
        for &hash in segment.hashes() {
            out.extend_from_slice(&hash.to_le_bytes());
        }
    }
    out.extend_from_slice(&len_u64(sightings.len())?.to_le_bytes());
    for (hash, sighting) in sightings {
        out.extend_from_slice(&hash.to_le_bytes());
        out.extend_from_slice(&sighting.segment.get().to_le_bytes());
        out.extend_from_slice(&sighting.time.get().to_le_bytes());
    }
    Ok(EncodedShard {
        segment_count: stored.len() as u64,
        sighting_count: sightings.len() as u64,
        bytes: out,
    })
}

/// Encodes the store as (manifest bytes, per-shard record bytes). The
/// blob form is the concatenation; the directory persistence layer writes
/// the parts to separate files.
pub(crate) fn encode_v2_parts(
    store: &FingerprintStore,
    shards: usize,
    workers: usize,
) -> Result<(Vec<u8>, Vec<Vec<u8>>), CodecError> {
    let shard_count = shards.clamp(1, MAX_SHARDS).next_power_of_two();
    let mask = (shard_count - 1) as u64;

    // Snapshot and bucket by the same keys as the in-memory striping.
    let mut ids: Vec<SegmentId> = store.segment_ids().collect();
    ids.sort_unstable();
    let mut sightings = store.sightings();
    sightings.sort_unstable_by_key(|(hash, s)| (*hash, s.time));
    let mut segment_buckets: Vec<Vec<SegmentId>> = vec![Vec::new(); shard_count];
    for id in ids {
        segment_buckets[(id.get() & mask) as usize].push(id);
    }
    let mut sighting_buckets: Vec<Vec<(u32, Sighting)>> = vec![Vec::new(); shard_count];
    for (hash, sighting) in sightings {
        sighting_buckets[(u64::from(hash) & mask) as usize].push((hash, sighting));
    }

    let shards: Vec<usize> = (0..shard_count).collect();
    let encoded = crate::pool::fan_out(&shards, workers, |&shard| {
        encode_shard_record(store, &segment_buckets[shard], &sighting_buckets[shard])
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    let encoded: Vec<EncodedShard> = encoded.into_iter().collect::<Result<_, _>>()?;

    let metas: Vec<ShardMeta> = encoded
        .iter()
        .map(|shard| {
            Ok(ShardMeta {
                crc: crc32(&shard.bytes),
                byte_len: len_u64(shard.bytes.len())?,
                segment_count: shard.segment_count,
                sighting_count: shard.sighting_count,
            })
        })
        .collect::<Result<_, CodecError>>()?;
    let manifest = encode_manifest(VERSION_V2, store.now().get(), &metas);
    Ok((manifest, encoded.into_iter().map(|s| s.bytes).collect()))
}

/// Serialises the store to plain bytes (v2, sharded to match the store's
/// in-memory striping).
///
/// # Errors
///
/// Returns [`CodecError::TooLarge`] if a collection exceeds the format's
/// length fields.
pub fn encode(store: &FingerprintStore) -> Result<Vec<u8>, CodecError> {
    encode_v2_with_shards(store, store.shard_count())
}

/// Serialises the store to plain v2 bytes with an explicit shard count
/// (rounded up to a power of two, clamped to `[1, 65536]`).
///
/// # Errors
///
/// Returns [`CodecError::TooLarge`] if a collection exceeds the format's
/// length fields.
pub fn encode_v2_with_shards(
    store: &FingerprintStore,
    shards: usize,
) -> Result<Vec<u8>, CodecError> {
    let (manifest, records) = encode_v2_parts(store, shards, crate::disclosure::default_workers())?;
    let mut out = manifest;
    for record in &records {
        out.extend_from_slice(record);
    }
    Ok(out)
}

/// Serialises the store in the legacy monolithic v1 layout (kept for
/// migration tooling and back-compat tests; new snapshots use v2).
///
/// # Errors
///
/// Returns [`CodecError::TooLarge`] if a collection exceeds the format's
/// length fields.
pub fn encode_v1(store: &FingerprintStore) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION_V1.to_le_bytes());
    out.extend_from_slice(&store.now().get().to_le_bytes());

    let segment_ids: Vec<SegmentId> = {
        let mut ids: Vec<SegmentId> = store.segment_ids().collect();
        ids.sort_unstable();
        ids
    };
    let stored: Vec<(SegmentId, Arc<StoredSegment>)> = segment_ids
        .iter()
        .filter_map(|&id| store.segment(id).map(|s| (id, s)))
        .collect();
    out.extend_from_slice(&len_u64(stored.len())?.to_le_bytes());
    for (id, segment) in &stored {
        out.extend_from_slice(&id.get().to_le_bytes());
        out.extend_from_slice(&segment.threshold().to_le_bytes());
        out.extend_from_slice(&segment.updated().get().to_le_bytes());
        out.extend_from_slice(&len_u32(segment.hashes().len())?.to_le_bytes());
        for &hash in segment.hashes() {
            out.extend_from_slice(&hash.to_le_bytes());
        }
    }

    let mut sightings = store.sightings();
    sightings.sort_unstable_by_key(|(hash, s)| (*hash, s.time));
    out.extend_from_slice(&len_u64(sightings.len())?.to_le_bytes());
    for (hash, sighting) in sightings {
        out.extend_from_slice(&hash.to_le_bytes());
        out.extend_from_slice(&sighting.segment.get().to_le_bytes());
        out.extend_from_slice(&sighting.time.get().to_le_bytes());
    }
    Ok(out)
}

// --- Decoding -------------------------------------------------------------

/// A parsed-but-not-yet-installed shard: validation happens entirely on
/// worker threads; installation into the shared store is commutative
/// (explicit timestamps, earliest-sighting-wins).
struct ShardData {
    segments: Vec<(SegmentId, Vec<u32>, f64, Timestamp)>,
    sightings: Vec<(u32, SegmentId, Timestamp)>,
}

fn parse_shard_record(
    bytes: &[u8],
    shard: usize,
    mask: u64,
    meta: &ShardMeta,
) -> Result<ShardData, CodecError> {
    if crc32(bytes) != meta.crc {
        return Err(CodecError::ShardChecksum { shard });
    }
    let mut reader = Reader::new(bytes);
    let segment_count = reader.u64()?;
    // Each segment record is at least 28 bytes (id, threshold, updated,
    // hash count); a corrupted count must fail instead of allocating.
    let segment_count = reader.check_count(segment_count, 28)?;
    let mut seen_segments: HashSet<u64> = HashSet::with_capacity(segment_count);
    let mut segments = Vec::with_capacity(segment_count);
    for _ in 0..segment_count {
        let raw = reader.u64()?;
        if raw & mask != shard as u64 {
            return Err(CodecError::ShardMismatch { shard });
        }
        if !seen_segments.insert(raw) {
            return Err(CodecError::DuplicateSegment { segment: raw });
        }
        let threshold = reader.f64()?;
        let updated = Timestamp::new(reader.u64()?);
        let hash_count = u64::from(reader.u32()?);
        let hash_count = reader.check_count(hash_count, 4)?;
        let mut hashes = Vec::with_capacity(hash_count);
        for _ in 0..hash_count {
            hashes.push(reader.u32()?);
        }
        // Stored-segment invariant: sorted, deduplicated (repeats in the
        // payload are tolerated, as the old set-based parse did).
        hashes.sort_unstable();
        hashes.dedup();
        segments.push((SegmentId::new(raw), hashes, threshold, updated));
    }
    let sighting_count = reader.u64()?;
    let sighting_count = reader.check_count(sighting_count, 20)?;
    let mut seen_hashes: HashSet<u32> = HashSet::with_capacity(sighting_count);
    let mut sightings = Vec::with_capacity(sighting_count);
    for _ in 0..sighting_count {
        let hash = reader.u32()?;
        let segment = reader.u64()?;
        let time = Timestamp::new(reader.u64()?);
        if u64::from(hash) & mask != shard as u64 {
            return Err(CodecError::ShardMismatch { shard });
        }
        // DBhash keeps exactly one (earliest) sighting per hash, so a
        // repeated hash — let alone a repeated (hash, segment) pair — is a
        // malformed payload, not data to be silently last-writer-won.
        if !seen_hashes.insert(hash) {
            return Err(CodecError::DuplicateSighting { hash, segment });
        }
        sightings.push((hash, SegmentId::new(segment), time));
    }
    if !reader.finished() {
        return Err(CodecError::Truncated);
    }
    if segments.len() as u64 != meta.segment_count || sightings.len() as u64 != meta.sighting_count
    {
        return Err(CodecError::ShardMismatch { shard });
    }
    Ok(ShardData {
        segments,
        sightings,
    })
}

/// Parses and installs every shard region, fanning the per-shard work over
/// `workers` scoped threads. `None` regions are already known lost (a
/// missing file or a failed unseal). In strict mode (`lossy == false`) the
/// first shard error aborts the restore; in lossy mode damaged shards are
/// recorded in the [`RestoreReport`] and every healthy shard still loads.
pub(crate) fn assemble_from_parts<R: AsRef<[u8]> + Sync>(
    manifest: &Manifest,
    regions: &[Option<R>],
    workers: usize,
    lossy: bool,
) -> Result<(FingerprintStore, RestoreReport), CodecError> {
    let shard_count = manifest.shards.len();
    if regions.len() != shard_count {
        return Err(CodecError::Truncated);
    }
    let mask = (shard_count - 1) as u64;
    let store = FingerprintStore::new();

    let shards: Vec<usize> = (0..shard_count).collect();
    let results = crate::pool::fan_out(&shards, workers, |&shard| -> Result<(), CodecError> {
        let meta = &manifest.shards[shard];
        let Some(bytes) = regions[shard].as_ref() else {
            return Err(CodecError::Truncated);
        };
        let data = parse_shard_record(bytes.as_ref(), shard, mask, meta)?;
        for (id, hashes, threshold, updated) in data.segments {
            store.restore_segment(id, hashes, threshold, updated);
        }
        for (hash, segment, time) in data.sightings {
            store.restore_sighting(hash, segment, time);
        }
        Ok(())
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));

    let mut report = RestoreReport::default();
    let mut first_error = None;
    for (shard, result) in results.into_iter().enumerate() {
        match result {
            Ok(()) => report.loaded_shards += 1,
            Err(error) => {
                if first_error.is_none() {
                    first_error = Some(error);
                }
                report.lost_shards.push(shard);
                report.lost_segments += manifest.shards[shard].segment_count;
            }
        }
    }
    if !lossy {
        if let Some(error) = first_error {
            return Err(error);
        }
    }
    store.restore_clock(Timestamp::new(manifest.clock));
    // Sightings were replayed in arbitrary shard order, so per-segment
    // ownership is only known now: rebuild the authoritative index once
    // (the v2 wire format itself is unchanged — the index is derived
    // state, recomputed on load rather than persisted).
    store.rebuild_authoritative_index(workers);
    Ok((store, report))
}

fn decode_any(
    bytes: &[u8],
    workers: usize,
    lossy: bool,
) -> Result<(FingerprintStore, RestoreReport), CodecError> {
    let mut reader = Reader::new(bytes);
    if reader.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = reader.u16()?;
    match version {
        VERSION_V1 => {
            let store = decode_v1(&mut reader)?;
            store.rebuild_authoritative_index(workers);
            Ok((
                store,
                RestoreReport {
                    loaded_shards: 1,
                    ..RestoreReport::default()
                },
            ))
        }
        VERSION_V2 => {
            let manifest = parse_manifest(&mut reader)?;
            // Shard offsets follow deterministically from the (verified)
            // manifest, so a damaged region never shifts its neighbours.
            let mut offset = reader.position();
            let mut regions: Vec<Option<&[u8]>> = Vec::with_capacity(manifest.shards.len());
            for meta in &manifest.shards {
                let len = usize::try_from(meta.byte_len).map_err(|_| CodecError::Truncated)?;
                let region = offset
                    .checked_add(len)
                    .and_then(|end| bytes.get(offset..end));
                if region.is_none() && !lossy {
                    return Err(CodecError::Truncated);
                }
                offset = offset.saturating_add(len);
                regions.push(region);
            }
            if !lossy && offset != bytes.len() {
                return Err(CodecError::Truncated);
            }
            assemble_from_parts(&manifest, &regions, workers, lossy)
        }
        found => Err(CodecError::UnsupportedVersion { found }),
    }
}

fn decode_v1(reader: &mut Reader) -> Result<FingerprintStore, CodecError> {
    let clock = reader.u64()?;
    let store = FingerprintStore::new();

    let segment_count = reader.u64()?;
    let segment_count = reader.check_count(segment_count, 28)?;
    let mut seen_segments: HashSet<u64> = HashSet::with_capacity(segment_count);
    for _ in 0..segment_count {
        let raw = reader.u64()?;
        if !seen_segments.insert(raw) {
            return Err(CodecError::DuplicateSegment { segment: raw });
        }
        let threshold = reader.f64()?;
        let updated = Timestamp::new(reader.u64()?);
        let hash_count = u64::from(reader.u32()?);
        let hash_count = reader.check_count(hash_count, 4)?;
        let mut hashes = Vec::with_capacity(hash_count);
        for _ in 0..hash_count {
            hashes.push(reader.u32()?);
        }
        hashes.sort_unstable();
        hashes.dedup();
        store.restore_segment(SegmentId::new(raw), hashes, threshold, updated);
    }

    let sighting_count = reader.u64()?;
    let sighting_count = reader.check_count(sighting_count, 20)?;
    let mut seen_hashes: HashSet<u32> = HashSet::with_capacity(sighting_count);
    for _ in 0..sighting_count {
        let hash = reader.u32()?;
        let segment = reader.u64()?;
        let time = Timestamp::new(reader.u64()?);
        if !seen_hashes.insert(hash) {
            return Err(CodecError::DuplicateSighting { hash, segment });
        }
        store.restore_sighting(hash, SegmentId::new(segment), time);
    }
    store.restore_clock(Timestamp::new(clock));
    if !reader.finished() {
        return Err(CodecError::Truncated);
    }
    Ok(store)
}

/// Reconstructs a store from [`encode`]d bytes (either format version,
/// dispatched on the version field). Strict: any corruption fails the
/// whole decode — use [`decode_lossy`] to salvage healthy shards.
///
/// # Errors
///
/// Returns a [`CodecError`] if the payload is not a well-formed store.
pub fn decode(bytes: &[u8]) -> Result<FingerprintStore, CodecError> {
    decode_with_workers(bytes, crate::disclosure::default_workers())
}

/// [`decode`] with an explicit worker budget for the per-shard fan-out.
///
/// # Errors
///
/// Returns a [`CodecError`] if the payload is not a well-formed store.
pub fn decode_with_workers(bytes: &[u8], workers: usize) -> Result<FingerprintStore, CodecError> {
    decode_any(bytes, workers, false).map(|(store, _)| store)
}

/// Reconstructs as much of a v2 store as its healthy shards allow.
///
/// Damaged shards (torn, checksum-failing, or claiming foreign records)
/// are dropped and reported in the [`RestoreReport`]; every other shard
/// loads. v1 payloads have a single implicit shard, so for them lossy and
/// strict decoding coincide.
///
/// # Errors
///
/// Fails hard only when nothing can be trusted: a bad magic/version, or a
/// manifest that is truncated or fails its own checksum.
pub fn decode_lossy(bytes: &[u8]) -> Result<(FingerprintStore, RestoreReport), CodecError> {
    decode_lossy_with_workers(bytes, crate::disclosure::default_workers())
}

/// [`decode_lossy`] with an explicit worker budget for the per-shard
/// fan-out.
///
/// # Errors
///
/// See [`decode_lossy`].
pub fn decode_lossy_with_workers(
    bytes: &[u8],
    workers: usize,
) -> Result<(FingerprintStore, RestoreReport), CodecError> {
    decode_any(bytes, workers, true)
}

// --- Sealed export --------------------------------------------------------

/// A store sealed shard-by-shard: the manifest and every shard record are
/// separately encrypted, so the at-rest form inherits the v2 format's
/// blast-radius containment (one damaged ciphertext loses one shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedStore {
    manifest: SealedBytes,
    shards: Vec<SealedBytes>,
}

impl SealedStore {
    /// Number of sealed shard records.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total ciphertext bytes across the manifest and all shards.
    pub fn len(&self) -> usize {
        self.manifest.len() + self.shards.iter().map(SealedBytes::len).sum::<usize>()
    }

    /// Whether the container holds no ciphertext at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialises the container to a self-describing byte format (magic
    /// `BFSS`, version, entry count, length-prefixed sealed payloads)
    /// suitable for writing to disk as a single file.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SEALED_MAGIC);
        out.extend_from_slice(&1u16.to_le_bytes());
        out.extend_from_slice(&(1 + self.shards.len() as u32).to_le_bytes());
        for entry in std::iter::once(&self.manifest).chain(&self.shards) {
            let bytes = entry.to_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// Parses a container produced by [`SealedStore::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::EncryptionError::MalformedPayload`] if the bytes
    /// are not a well-formed container. Integrity is only verified per
    /// entry on unseal.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, crate::EncryptionError> {
        use crate::EncryptionError::MalformedPayload;
        // Untrusted decode surface (the daemon restores tenant state from
        // disk through here): every length is taken through a checked
        // cursor so a truncated or hostile container fails closed with
        // `MalformedPayload` — no slice panic, no wrapping arithmetic.
        fn take<'a>(
            bytes: &'a [u8],
            pos: &mut usize,
            n: usize,
        ) -> Result<&'a [u8], crate::EncryptionError> {
            let end = pos.checked_add(n).ok_or(MalformedPayload)?;
            let slice = bytes.get(*pos..end).ok_or(MalformedPayload)?;
            *pos = end;
            Ok(slice)
        }
        let mut pos = 0usize;
        if take(bytes, &mut pos, 4)? != SEALED_MAGIC {
            return Err(MalformedPayload);
        }
        let version = take(bytes, &mut pos, 2)?;
        if u16::from_le_bytes(version.try_into().expect("2-byte slice")) != 1 {
            return Err(MalformedPayload);
        }
        let count_bytes = take(bytes, &mut pos, 4)?;
        let count = u32::from_le_bytes(count_bytes.try_into().expect("4-byte slice")) as usize;
        if count == 0 || count > 1 + MAX_SHARDS {
            return Err(MalformedPayload);
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let len_bytes = take(bytes, &mut pos, 4)?;
            let len = u32::from_le_bytes(len_bytes.try_into().expect("4-byte slice")) as usize;
            entries.push(SealedBytes::from_bytes(take(bytes, &mut pos, len)?)?);
        }
        if pos != bytes.len() {
            return Err(MalformedPayload);
        }
        let manifest = entries.remove(0);
        Ok(Self {
            manifest,
            shards: entries,
        })
    }
}

impl FingerprintStore {
    /// Serialises and seals the store under `key`, shard by shard (the
    /// recommended at-rest form, §4.4). Nonces are drawn from the
    /// process-wide counter ([`StoreKey::seal_auto`]), so two exports of
    /// the same store never reuse a keystream.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::TooLarge`] if a collection exceeds the
    /// format's length fields.
    pub fn export_sealed(&self, key: &StoreKey) -> Result<SealedStore, CodecError> {
        let (manifest, records) = encode_v2_parts(
            self,
            self.shard_count(),
            crate::disclosure::default_workers(),
        )?;
        Ok(SealedStore {
            manifest: key.seal_auto(&manifest),
            shards: records.iter().map(|record| key.seal_auto(record)).collect(),
        })
    }

    /// Unseals and reconstructs a store exported with
    /// [`FingerprintStore::export_sealed`]. Strict: any unseal or decode
    /// failure rejects the whole restore.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Sealed`] on key mismatch/tampering, or any
    /// other [`CodecError`] if a decrypted payload is malformed.
    pub fn import_sealed(
        key: &StoreKey,
        sealed: &SealedStore,
    ) -> Result<FingerprintStore, CodecError> {
        Self::import_sealed_inner(key, sealed, false).map(|(store, _)| store)
    }

    /// Unseals as much of the store as its healthy shards allow, reporting
    /// shards whose ciphertext failed integrity or whose plaintext was
    /// malformed as lost.
    ///
    /// # Errors
    ///
    /// Fails hard only when the manifest itself cannot be unsealed or
    /// parsed.
    pub fn import_sealed_lossy(
        key: &StoreKey,
        sealed: &SealedStore,
    ) -> Result<(FingerprintStore, RestoreReport), CodecError> {
        Self::import_sealed_inner(key, sealed, true)
    }

    fn import_sealed_inner(
        key: &StoreKey,
        sealed: &SealedStore,
        lossy: bool,
    ) -> Result<(FingerprintStore, RestoreReport), CodecError> {
        let manifest_bytes = key.unseal(&sealed.manifest).map_err(CodecError::Sealed)?;
        let (version, manifest) = parse_manifest_bytes(&manifest_bytes)?;
        if version != VERSION_V2 {
            // Sealed containers carry v2 records only; cold (v3) shards
            // are plain so they can be mapped.
            return Err(CodecError::UnsupportedVersion { found: version });
        }
        if manifest.shards.len() != sealed.shards.len() {
            return Err(CodecError::Truncated);
        }
        let mut regions: Vec<Option<Vec<u8>>> = Vec::with_capacity(sealed.shards.len());
        for shard in &sealed.shards {
            match key.unseal(shard) {
                Ok(bytes) => regions.push(Some(bytes)),
                Err(error) if !lossy => return Err(CodecError::Sealed(error)),
                Err(_) => regions.push(None),
            }
        }
        assemble_from_parts(
            &manifest,
            &regions,
            crate::disclosure::default_workers(),
            lossy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browserflow_fingerprint::Fingerprinter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_store() -> FingerprintStore {
        let fp = Fingerprinter::default();
        let store = FingerprintStore::new();
        store.observe(
            SegmentId::new(1),
            &fp.fingerprint(
                "the first confidential paragraph about quarterly earnings and margins",
            ),
            0.5,
        );
        store.observe(
            SegmentId::new(2),
            &fp.fingerprint("the second paragraph describing the reorganisation plan in detail"),
            0.3,
        );
        // Overlap: segment 3 repeats segment 1 (non-authoritative hashes).
        store.observe(
            SegmentId::new(3),
            &fp.fingerprint(
                "the first confidential paragraph about quarterly earnings and margins plus extra",
            ),
            0.7,
        );
        store
    }

    fn assert_equivalent(a: &FingerprintStore, b: &FingerprintStore) {
        assert_eq!(a.segment_count(), b.segment_count());
        assert_eq!(a.hash_count(), b.hash_count());
        assert_eq!(a.now(), b.now());
        let mut ids: Vec<SegmentId> = a.segment_ids().collect();
        ids.sort_unstable();
        for id in ids {
            let sa = a.segment(id).unwrap();
            let sb = b.segment(id).unwrap();
            assert_eq!(sa.hashes(), sb.hashes());
            assert_eq!(sa.threshold(), sb.threshold());
            assert_eq!(sa.updated(), sb.updated());
            assert_eq!(
                a.authoritative_fingerprint(id),
                b.authoritative_fingerprint(id),
                "authoritative fingerprints differ for {id}"
            );
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let store = sample_store();
        let decoded = decode(&encode(&store).unwrap()).unwrap();
        assert_equivalent(&store, &decoded);
    }

    #[test]
    fn v1_payloads_still_decode() {
        let store = sample_store();
        let v1 = encode_v1(&store).unwrap();
        let decoded = decode(&v1).unwrap();
        assert_equivalent(&store, &decoded);
        // Lossy decoding treats a v1 blob as one implicit shard.
        let (lossy, report) = decode_lossy(&v1).unwrap();
        assert_equivalent(&store, &lossy);
        assert_eq!(report.loaded_shards, 1);
        assert!(report.is_complete());
    }

    #[test]
    fn v2_output_is_deterministic_across_worker_counts() {
        let store = sample_store();
        let (manifest_1, records_1) = encode_v2_parts(&store, 8, 1).unwrap();
        let (manifest_4, records_4) = encode_v2_parts(&store, 8, 4).unwrap();
        assert_eq!(manifest_1, manifest_4);
        assert_eq!(records_1, records_4);
        let decoded = decode_with_workers(&encode_v2_with_shards(&store, 8).unwrap(), 4).unwrap();
        assert_equivalent(&store, &decoded);
    }

    #[test]
    fn roundtrip_preserves_disclosure_behaviour() {
        let fp = Fingerprinter::default();
        let store = sample_store();
        let decoded = decode(&encode(&store).unwrap()).unwrap();
        let probe =
            fp.fingerprint("the first confidential paragraph about quarterly earnings and margins");
        assert_eq!(
            store.disclosing_sources(SegmentId::new(99), &probe),
            decoded.disclosing_sources(SegmentId::new(99), &probe)
        );
    }

    #[test]
    fn clock_continues_after_restore() {
        let fp = Fingerprinter::default();
        let store = sample_store();
        let decoded = decode(&encode(&store).unwrap()).unwrap();
        // New observations get timestamps after every restored one.
        decoded.observe(
            SegmentId::new(50),
            &fp.fingerprint("a brand new paragraph observed after the restore completed"),
            0.5,
        );
        let updated = decoded.segment(SegmentId::new(50)).unwrap().updated();
        assert!(updated >= store.now());
    }

    #[test]
    fn sealed_roundtrip_and_tamper_detection() {
        let mut rng = StdRng::seed_from_u64(9);
        let key = StoreKey::generate(&mut rng);
        let store = sample_store();
        let sealed = store.export_sealed(&key).unwrap();
        let restored = FingerprintStore::import_sealed(&key, &sealed).unwrap();
        assert_equivalent(&store, &restored);

        let wrong_key = StoreKey::generate(&mut rng);
        assert!(matches!(
            FingerprintStore::import_sealed(&wrong_key, &sealed),
            Err(CodecError::Sealed(_))
        ));
    }

    #[test]
    fn sealed_store_roundtrips_through_wire_format() {
        let mut rng = StdRng::seed_from_u64(10);
        let key = StoreKey::generate(&mut rng);
        let store = sample_store();
        let sealed = store.export_sealed(&key).unwrap();
        let parsed = SealedStore::from_bytes(&sealed.to_bytes()).unwrap();
        assert_eq!(parsed, sealed);
        let restored = FingerprintStore::import_sealed(&key, &parsed).unwrap();
        assert_equivalent(&store, &restored);
        assert!(SealedStore::from_bytes(b"nope").is_err());
        let mut wire = sealed.to_bytes();
        wire.pop();
        assert!(SealedStore::from_bytes(&wire).is_err());
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(matches!(decode(b"nope"), Err(CodecError::BadMagic)));
        assert!(matches!(decode(b"BFS"), Err(CodecError::Truncated)));
        let mut bad_version = encode(&sample_store()).unwrap();
        bad_version[4] = 0xFF;
        assert!(matches!(
            decode(&bad_version),
            Err(CodecError::UnsupportedVersion { .. })
        ));
        let mut truncated = encode(&sample_store()).unwrap();
        truncated.truncate(truncated.len() - 3);
        assert!(matches!(decode(&truncated), Err(CodecError::Truncated)));
        let mut trailing = encode(&sample_store()).unwrap();
        trailing.push(0);
        assert!(matches!(decode(&trailing), Err(CodecError::Truncated)));
    }

    #[test]
    fn corrupted_counts_fail_without_allocating() {
        // Flip the v1 segment-count field to a huge value: decode must
        // return Truncated instead of attempting a huge allocation.
        let mut bytes = encode_v1(&sample_store()).unwrap();
        for byte in &mut bytes[14..22] {
            *byte = 0xFF; // segment_count field (after magic+ver+clock)
        }
        assert!(matches!(decode(&bytes), Err(CodecError::Truncated)));
        // Same for a per-segment hash count.
        let mut bytes = encode_v1(&sample_store()).unwrap();
        let hash_count_offset = 14 + 8 + 8 + 8 + 8; // first segment's count
        for byte in &mut bytes[hash_count_offset..hash_count_offset + 4] {
            *byte = 0xFF;
        }
        assert!(matches!(decode(&bytes), Err(CodecError::Truncated)));
    }

    #[test]
    fn duplicate_segments_are_rejected() {
        // Hand-build a v1 payload listing the same segment id twice (with
        // empty hash sets). The old decoder silently overwrote the first
        // record; now it is a hard error.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION_V1.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // clock
        bytes.extend_from_slice(&2u64.to_le_bytes()); // segment count
        for _ in 0..2 {
            bytes.extend_from_slice(&7u64.to_le_bytes()); // same id twice
            bytes.extend_from_slice(&0.5f64.to_le_bytes());
            bytes.extend_from_slice(&0u64.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes()); // no hashes
        }
        bytes.extend_from_slice(&0u64.to_le_bytes()); // sighting count
        assert_eq!(
            decode(&bytes).unwrap_err(),
            CodecError::DuplicateSegment { segment: 7 }
        );
    }

    #[test]
    fn duplicate_sightings_are_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION_V1.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // clock
        bytes.extend_from_slice(&0u64.to_le_bytes()); // segment count
        bytes.extend_from_slice(&2u64.to_le_bytes()); // sighting count
        for segment in [3u64, 4] {
            bytes.extend_from_slice(&99u32.to_le_bytes()); // same hash twice
            bytes.extend_from_slice(&segment.to_le_bytes());
            bytes.extend_from_slice(&1u64.to_le_bytes());
        }
        assert_eq!(
            decode(&bytes).unwrap_err(),
            CodecError::DuplicateSighting {
                hash: 99,
                segment: 4
            }
        );
    }

    #[test]
    fn oversized_lengths_error_instead_of_truncating() {
        // The u32 length guard is what `encode` relies on for segments
        // with more hashes than the field can carry; exercising it
        // directly avoids materialising a >4-billion-entry store.
        assert_eq!(len_u32(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(len_u32(u32::MAX as usize + 1), Err(CodecError::TooLarge));
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = FingerprintStore::new();
        let decoded = decode(&encode(&store).unwrap()).unwrap();
        assert_eq!(decoded.segment_count(), 0);
        assert_eq!(decoded.hash_count(), 0);
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
