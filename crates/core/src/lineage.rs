//! Cross-service lineage graph + exfiltration sentinel.
//!
//! The TDM answers "may this upload happen?" one hop at a time; a
//! multi-hop covert flow (docs → wiki → interview tool) is judged with
//! no memory of the path the data took. This module adds that memory:
//!
//! - [`LineageGraph`] — an append-only graph of [`FlowEdge`]s
//!   `(source service, sink service, segment, operation, clock)`,
//!   recorded by the middleware at observe/check/keystroke time whenever
//!   tracked text crosses a service boundary. Edges are content-keyed
//!   (re-observing the same flow never duplicates an edge) and ordered
//!   deterministically, so replaying the same edges in any order yields
//!   the same graph — and the same snapshot bytes.
//! - [`ExfiltrationSentinel`] — walks the graph backwards when a check
//!   fires and raises a structured [`ExfiltrationAlert`] when a tag
//!   crossed an unauthorized boundary through a *multi-hop* chain. Every
//!   hop of the chain is referenced in the alert.
//! - [`ContainmentReceipt`] — a machine-readable receipt attached to each
//!   alert, tying it to the existing report trail (the index of the
//!   warning recorded for the violating check) and the policy audit log
//!   (its length at issue time), plus the clock of every hop so the chain
//!   can be re-derived from the persisted graph.
//!
//! The graph serialises through a length-checked binary snapshot codec
//! ([`encode_snapshot`] / [`decode_snapshot`]) with a trailing CRC-32:
//! truncated or corrupted snapshots fail closed with
//! [`LineageCodecError`], never panic, and identical graphs always encode
//! to identical bytes (drain → restore round-trips are byte-for-byte).

use browserflow_store::codec::crc32;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// How data moved across a service boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FlowOperation {
    /// Tracked text from another service appeared in an observed
    /// paragraph (copy/paste, re-typing, sync).
    Observe,
    /// A batch/paragraph check found tracked text bound for the sink.
    Check,
    /// A keystroke check found tracked text bound for the sink.
    Keystroke,
    /// A document-granularity upload check found tracked text.
    Upload,
}

impl FlowOperation {
    fn to_u8(self) -> u8 {
        match self {
            FlowOperation::Observe => 0,
            FlowOperation::Check => 1,
            FlowOperation::Keystroke => 2,
            FlowOperation::Upload => 3,
        }
    }

    fn from_u8(byte: u8) -> Option<Self> {
        Some(match byte {
            0 => FlowOperation::Observe,
            1 => FlowOperation::Check,
            2 => FlowOperation::Keystroke,
            3 => FlowOperation::Upload,
            _ => return None,
        })
    }

    /// Stable lowercase name (what the wire/CLI shows).
    pub fn as_str(self) -> &'static str {
        match self {
            FlowOperation::Observe => "observe",
            FlowOperation::Check => "check",
            FlowOperation::Keystroke => "keystroke",
            FlowOperation::Upload => "upload",
        }
    }
}

impl fmt::Display for FlowOperation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded flow: tracked text from a segment of `source` crossed
/// into `sink`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowEdge {
    /// Service the data originated from (the matched source segment's
    /// service).
    pub source: String,
    /// Service the data crossed into.
    pub sink: String,
    /// The matched source segment (rendered [`SegmentKey`], e.g.
    /// `itool/eval#p0`).
    ///
    /// [`SegmentKey`]: crate::SegmentKey
    pub segment: String,
    /// The sink-side segment the data landed in (or was checked against);
    /// chains link through this field.
    pub into: String,
    /// How the data crossed.
    pub operation: FlowOperation,
    /// Logical clock of the first recording of this edge.
    pub clock: u64,
}

/// Content identity of an edge — everything but the clock. The graph is
/// keyed on this, so replays and re-observations merge instead of
/// duplicating.
type EdgeKey = (String, String, String, String, FlowOperation);

fn edge_key(edge: &FlowEdge) -> EdgeKey {
    (
        edge.source.clone(),
        edge.sink.clone(),
        edge.segment.clone(),
        edge.into.clone(),
        edge.operation,
    )
}

/// Append-only graph of cross-service flows.
///
/// Internally a content-keyed [`BTreeMap`] (edge → earliest clock), so
/// iteration order — and therefore the snapshot encoding — is a pure
/// function of the edge *set*, independent of recording order.
#[derive(Debug, Default)]
pub struct LineageGraph {
    edges: Mutex<BTreeMap<EdgeKey, u64>>,
    clock: AtomicU64,
}

impl LineageGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a batch of flow edges under **one** lock acquisition,
    /// drawing consecutive clock values in batch order (the lock is held
    /// across the whole batch, so no other recorder can interleave its
    /// clocks). The graph is append-only and content-deduplicated: an
    /// identical flow (same source, sink, segments and operation) —
    /// already stored or earlier in the same batch — is skipped without
    /// consuming a clock. Returns the edges that were actually stored.
    pub fn record_batch(
        &self,
        batch: Vec<(String, String, String, String, FlowOperation)>,
    ) -> Vec<FlowEdge> {
        if batch.is_empty() {
            return Vec::new();
        }
        let mut stored = Vec::with_capacity(batch.len());
        let mut edges = self.edges.lock();
        for (source, sink, segment, into, operation) in batch {
            let edge = FlowEdge {
                source,
                sink,
                segment,
                into,
                operation,
                clock: 0,
            };
            let key = edge_key(&edge);
            if edges.contains_key(&key) {
                continue;
            }
            let clock = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            edges.insert(key, clock);
            stored.push(FlowEdge { clock, ..edge });
        }
        stored
    }

    /// Replays an edge that already carries a clock.
    /// Order-insensitive per clock: merging the same edges in any order
    /// produces the same graph, because a duplicate keeps the *smallest*
    /// clock and the graph clock advances to the maximum seen.
    pub fn replay(&self, edge: FlowEdge) {
        let key = edge_key(&edge);
        let mut edges = self.edges.lock();
        let entry = edges.entry(key).or_insert(edge.clock);
        if edge.clock < *entry {
            *entry = edge.clock;
        }
        self.clock.fetch_max(edge.clock, Ordering::Relaxed);
    }

    /// Fetches a recorded edge (with its clock) by content identity.
    pub fn lookup(
        &self,
        source: &str,
        sink: &str,
        segment: &str,
        into: &str,
        operation: FlowOperation,
    ) -> Option<FlowEdge> {
        let key = (
            source.to_string(),
            sink.to_string(),
            segment.to_string(),
            into.to_string(),
            operation,
        );
        self.edges.lock().get(&key).map(|&clock| FlowEdge {
            source: source.to_string(),
            sink: sink.to_string(),
            segment: segment.to_string(),
            into: into.to_string(),
            operation,
            clock,
        })
    }

    /// Every recorded edge in deterministic (content) order.
    pub fn edges(&self) -> Vec<FlowEdge> {
        self.edges
            .lock()
            .iter()
            .map(
                |((source, sink, segment, into, operation), clock)| FlowEdge {
                    source: source.clone(),
                    sink: sink.clone(),
                    segment: segment.clone(),
                    into: into.clone(),
                    operation: *operation,
                    clock: *clock,
                },
            )
            .collect()
    }

    /// Number of recorded edges.
    pub fn len(&self) -> usize {
        self.edges.lock().len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.lock().is_empty()
    }

    /// Current logical clock (number of ticks issued / max replayed).
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Finds the latest-recorded edge whose data landed in `segment`
    /// (matching the [`FlowEdge::into`] field) strictly before `clock`.
    /// This is the sentinel's one-step backwards walk.
    fn incoming_before(&self, segment: &str, clock: u64) -> Option<FlowEdge> {
        let edges = self.edges.lock();
        let mut best: Option<FlowEdge> = None;
        for ((source, sink, seg, into, operation), edge_clock) in edges.iter() {
            if into != segment || *edge_clock >= clock {
                continue;
            }
            if best.as_ref().is_none_or(|b| *edge_clock > b.clock) {
                best = Some(FlowEdge {
                    source: source.clone(),
                    sink: sink.clone(),
                    segment: seg.clone(),
                    into: into.clone(),
                    operation: *operation,
                    clock: *edge_clock,
                });
            }
        }
        best
    }
}

// --- Sentinel --------------------------------------------------------------

/// Tunables for the [`ExfiltrationSentinel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentinelConfig {
    /// Minimum chain length (in edges) before an alert is raised. The
    /// default of 2 means single-hop violations stay ordinary warnings;
    /// alerts are reserved for flows that *moved through* an intermediate
    /// service.
    pub min_hops: usize,
    /// Maximum backwards-walk depth (cycle/space guard).
    pub max_hops: usize,
    /// Maximum alerts retained; older alerts are dropped first.
    pub max_alerts: usize,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        Self {
            min_hops: 2,
            max_hops: 16,
            max_alerts: 1024,
        }
    }
}

/// A structured alert: a tag crossed an unauthorized boundary through a
/// multi-hop chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExfiltrationAlert {
    /// Monotonic alert id (per middleware instance).
    pub id: u64,
    /// The destination service of the violating check.
    pub sink: String,
    /// The sink-side segment of the violating check.
    pub segment: String,
    /// Tags the destination lacked (rendered).
    pub missing_tags: Vec<String>,
    /// Measured disclosure of the immediate source by the checked text.
    pub disclosure: f64,
    /// The flow chain, origin first; the last hop is the violating check
    /// itself. Always at least [`SentinelConfig::min_hops`] long.
    pub hops: Vec<FlowEdge>,
    /// Graph clock when the alert was raised.
    pub clock: u64,
    /// The machine-readable containment receipt.
    pub receipt: ContainmentReceipt,
}

/// Machine-readable proof of what was contained and where the evidence
/// lives, tied to the existing audit/report trail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContainmentReceipt {
    /// The alert this receipt belongs to.
    pub alert_id: u64,
    /// The enforcement applied to the violating upload (`"block"`,
    /// `"warn"`, `"encrypt"`).
    pub action: String,
    /// Clock of every hop in the chain (origin first) — stable references
    /// into the persisted lineage graph.
    pub hop_clocks: Vec<u64>,
    /// Index of the warning recorded for this violation in the
    /// middleware's report trail ([`crate::BrowserFlow::warnings`]).
    pub warning_index: u64,
    /// Length of the policy audit log when the receipt was issued — the
    /// anchor into the append-only suppression audit trail.
    pub audit_len: u64,
}

/// Walks the [`LineageGraph`] when a check fires and raises
/// [`ExfiltrationAlert`]s for multi-hop chains.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExfiltrationSentinel {
    config: SentinelConfig,
}

impl ExfiltrationSentinel {
    /// A sentinel with explicit tunables.
    pub fn new(config: SentinelConfig) -> Self {
        Self { config }
    }

    /// The sentinel's configuration.
    pub fn config(&self) -> SentinelConfig {
        self.config
    }

    /// Traces the chain that fed `final_hop` (the just-recorded edge of a
    /// violating check) backwards through the graph. Returns the chain
    /// origin-first — `None` unless it spans at least
    /// [`SentinelConfig::min_hops`] edges.
    pub fn trace(&self, graph: &LineageGraph, final_hop: &FlowEdge) -> Option<Vec<FlowEdge>> {
        let mut chain = vec![final_hop.clone()];
        let mut cursor = final_hop.clone();
        while chain.len() < self.config.max_hops {
            let Some(prev) = graph.incoming_before(&cursor.segment, cursor.clock) else {
                break;
            };
            // Cycle guard: never revisit a segment already on the chain.
            if chain.iter().any(|e| e.segment == prev.segment) {
                break;
            }
            chain.push(prev.clone());
            cursor = prev;
        }
        if chain.len() < self.config.min_hops {
            return None;
        }
        chain.reverse();
        Some(chain)
    }
}

// --- Snapshot codec --------------------------------------------------------

/// Why a lineage snapshot was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LineageCodecError {
    /// The snapshot was shorter than its header or a declared length ran
    /// past the end (truncation).
    Truncated,
    /// Magic or version did not match.
    BadHeader,
    /// The trailing CRC-32 did not match the payload (corruption).
    BadChecksum,
    /// A field held an invalid value (operation byte, non-UTF-8 string,
    /// oversized length, out-of-order or duplicate edge, an edge clock
    /// past the graph clock, a non-canonical alert chunk, trailing
    /// garbage).
    Malformed,
}

impl fmt::Display for LineageCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => f.write_str("lineage snapshot is truncated"),
            Self::BadHeader => f.write_str("lineage snapshot has an unknown header"),
            Self::BadChecksum => f.write_str("lineage snapshot failed its checksum"),
            Self::Malformed => f.write_str("lineage snapshot is malformed"),
        }
    }
}

impl std::error::Error for LineageCodecError {}

const MAGIC: &[u8; 4] = b"BFLG";
const VERSION: u16 = 1;
/// Upper bound on any single length field — snapshots are small; a
/// multi-gigabyte declared length is hostile input, not data.
const MAX_FIELD_LEN: usize = 1 << 24;

fn push_str(out: &mut Vec<u8>, value: &str) {
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], LineageCodecError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(LineageCodecError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(LineageCodecError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, LineageCodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, LineageCodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2B")))
    }

    fn u32(&mut self) -> Result<u32, LineageCodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    fn u64(&mut self) -> Result<u64, LineageCodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    fn string(&mut self) -> Result<String, LineageCodecError> {
        let len = self.u32()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(LineageCodecError::Malformed);
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LineageCodecError::Malformed)
    }
}

/// Serialises a graph plus its alert trail into the deterministic binary
/// snapshot format. Identical graph/alert contents always produce
/// identical bytes.
pub fn encode_snapshot(graph: &LineageGraph, alerts: &[ExfiltrationAlert]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&graph.clock().to_le_bytes());
    let edges = graph.edges();
    out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
    for edge in &edges {
        out.push(edge.operation.to_u8());
        out.extend_from_slice(&edge.clock.to_le_bytes());
        push_str(&mut out, &edge.source);
        push_str(&mut out, &edge.sink);
        push_str(&mut out, &edge.segment);
        push_str(&mut out, &edge.into);
    }
    // Alerts carry nested structure; serde_json over a fixed field order
    // is deterministic, and the chunk rides inside the same CRC.
    let alerts_json = serde_json::to_vec(alerts).expect("alerts always serialise");
    out.extend_from_slice(&(alerts_json.len() as u32).to_le_bytes());
    out.extend_from_slice(&alerts_json);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Restores a graph and its alert trail from snapshot bytes.
///
/// Only the encoder's own form is accepted: edges in strictly ascending
/// content order, no edge clock above the graph clock, and the alert
/// chunk exactly as [`encode_snapshot`] writes it. So a snapshot that
/// decodes re-encodes to the same bytes.
///
/// # Errors
///
/// Fails closed with [`LineageCodecError`] on truncation, corruption,
/// bad headers, hostile lengths, non-canonical content or trailing
/// garbage — never panics.
pub fn decode_snapshot(
    bytes: &[u8],
) -> Result<(LineageGraph, Vec<ExfiltrationAlert>), LineageCodecError> {
    if bytes.len() < MAGIC.len() + 2 + 8 + 4 + 4 + 4 {
        return Err(LineageCodecError::Truncated);
    }
    let (payload, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4B"));
    if crc32(payload) != stored {
        return Err(LineageCodecError::BadChecksum);
    }
    let mut reader = Reader {
        bytes: payload,
        pos: 0,
    };
    if reader.take(4)? != MAGIC {
        return Err(LineageCodecError::BadHeader);
    }
    if reader.u16()? != VERSION {
        return Err(LineageCodecError::BadHeader);
    }
    let clock = reader.u64()?;
    let edge_count = reader.u32()? as usize;
    if edge_count > MAX_FIELD_LEN {
        return Err(LineageCodecError::Malformed);
    }
    let mut edges: Vec<(EdgeKey, u64)> = Vec::new();
    for _ in 0..edge_count {
        let operation = FlowOperation::from_u8(reader.u8()?).ok_or(LineageCodecError::Malformed)?;
        let edge_clock = reader.u64()?;
        let source = reader.string()?;
        let sink = reader.string()?;
        let segment = reader.string()?;
        let into = reader.string()?;
        let key = (source, sink, segment, into, operation);
        if edge_clock > clock || edges.last().is_some_and(|(last, _)| *last >= key) {
            return Err(LineageCodecError::Malformed);
        }
        edges.push((key, edge_clock));
    }
    let alerts_len = reader.u32()? as usize;
    if alerts_len > MAX_FIELD_LEN {
        return Err(LineageCodecError::Malformed);
    }
    let alerts_json = reader.take(alerts_len)?;
    let alerts: Vec<ExfiltrationAlert> =
        serde_json::from_slice(alerts_json).map_err(|_| LineageCodecError::Malformed)?;
    if reader.pos != payload.len()
        || serde_json::to_vec(&alerts).ok().as_deref() != Some(alerts_json)
    {
        return Err(LineageCodecError::Malformed);
    }
    let graph = LineageGraph {
        edges: Mutex::new(edges.into_iter().collect()),
        clock: AtomicU64::new(clock),
    };
    Ok((graph, alerts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Records one edge as a one-entry batch; `None` if it was a duplicate.
    fn record(
        graph: &LineageGraph,
        source: &str,
        sink: &str,
        segment: &str,
        into: &str,
        operation: FlowOperation,
    ) -> Option<FlowEdge> {
        graph
            .record_batch(vec![(
                source.into(),
                sink.into(),
                segment.into(),
                into.into(),
                operation,
            )])
            .pop()
    }

    fn edge(source: &str, sink: &str, segment: &str, into: &str, clock: u64) -> FlowEdge {
        FlowEdge {
            source: source.into(),
            sink: sink.into(),
            segment: segment.into(),
            into: into.into(),
            operation: FlowOperation::Observe,
            clock,
        }
    }

    #[test]
    fn record_dedupes_identical_flows() {
        let graph = LineageGraph::new();
        assert!(record(
            &graph,
            "docs",
            "wiki",
            "docs/d#p0",
            "wiki/w#p0",
            FlowOperation::Observe
        )
        .is_some());
        assert!(record(
            &graph,
            "docs",
            "wiki",
            "docs/d#p0",
            "wiki/w#p0",
            FlowOperation::Observe
        )
        .is_none());
        assert_eq!(graph.len(), 1);
        assert_eq!(graph.clock(), 1);
        // A different operation is a different edge.
        assert!(record(
            &graph,
            "docs",
            "wiki",
            "docs/d#p0",
            "wiki/w#p0",
            FlowOperation::Check
        )
        .is_some());
        assert_eq!(graph.len(), 2);
    }

    #[test]
    fn trace_walks_multi_hop_chains_and_stops_at_origin() {
        let graph = LineageGraph::new();
        let hop1 = record(
            &graph,
            "docs",
            "wiki",
            "docs/d#p0",
            "wiki/w#p0",
            FlowOperation::Observe,
        )
        .unwrap();
        let hop2 = record(
            &graph,
            "wiki",
            "itool",
            "wiki/w#p0",
            "itool/i#p0",
            FlowOperation::Check,
        )
        .unwrap();
        let sentinel = ExfiltrationSentinel::default();
        let chain = sentinel.trace(&graph, &hop2).expect("two-hop chain");
        assert_eq!(chain, vec![hop1.clone(), hop2]);
        // A single hop with no ancestry stays below min_hops.
        assert!(sentinel.trace(&graph, &hop1).is_none());
    }

    #[test]
    fn trace_survives_cycles() {
        let graph = LineageGraph::new();
        let _ = record(&graph, "a", "b", "a/x#p0", "b/y#p0", FlowOperation::Observe);
        let _ = record(&graph, "b", "a", "b/y#p0", "a/x#p0", FlowOperation::Observe);
        let last = record(&graph, "a", "c", "a/x#p0", "c/z#p0", FlowOperation::Check).unwrap();
        let sentinel = ExfiltrationSentinel::default();
        // Must terminate despite a↔b forming a cycle.
        let chain = sentinel.trace(&graph, &last).expect("chain");
        assert!(chain.len() <= sentinel.config().max_hops);
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let graph = LineageGraph::new();
        record(
            &graph,
            "docs",
            "wiki",
            "docs/d#p0",
            "wiki/w#p0",
            FlowOperation::Observe,
        );
        record(
            &graph,
            "wiki",
            "itool",
            "wiki/w#p0",
            "itool/i#p0",
            FlowOperation::Check,
        );
        let alerts = vec![ExfiltrationAlert {
            id: 1,
            sink: "itool".into(),
            segment: "itool/i#p0".into(),
            missing_tags: vec!["#secret".into()],
            disclosure: 0.9,
            hops: graph.edges(),
            clock: graph.clock(),
            receipt: ContainmentReceipt {
                alert_id: 1,
                action: "block".into(),
                hop_clocks: vec![1, 2],
                warning_index: 0,
                audit_len: 0,
            },
        }];
        let bytes = encode_snapshot(&graph, &alerts);
        let (restored, restored_alerts) = decode_snapshot(&bytes).unwrap();
        assert_eq!(restored.edges(), graph.edges());
        assert_eq!(restored.clock(), graph.clock());
        assert_eq!(restored_alerts, alerts);
        // Re-encoding the restored graph reproduces the bytes exactly.
        assert_eq!(encode_snapshot(&restored, &restored_alerts), bytes);
    }

    #[test]
    fn truncation_matrix_fails_closed_for_every_prefix() {
        let graph = LineageGraph::new();
        record(
            &graph,
            "docs",
            "wiki",
            "docs/d#p0",
            "wiki/w#p0",
            FlowOperation::Observe,
        );
        record(
            &graph,
            "wiki",
            "itool",
            "wiki/w#p0",
            "itool/i#p0",
            FlowOperation::Keystroke,
        );
        let bytes = encode_snapshot(&graph, &[]);
        assert!(decode_snapshot(&bytes).is_ok());
        for len in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..len]).is_err(),
                "decoder accepted a {len}-byte prefix of {}",
                bytes.len()
            );
        }
    }

    #[test]
    fn corruption_matrix_fails_closed_for_every_byte_flip() {
        let graph = LineageGraph::new();
        record(
            &graph,
            "docs",
            "wiki",
            "docs/d#p0",
            "wiki/w#p0",
            FlowOperation::Observe,
        );
        let bytes = encode_snapshot(&graph, &[]);
        for index in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[index] ^= 0x5A;
            // The CRC catches every single-byte flip; no panic, no accept.
            assert!(
                decode_snapshot(&corrupt).is_err(),
                "decoder accepted a flip at byte {index}"
            );
        }
        // Trailing garbage is rejected too (CRC no longer trails).
        let mut padded = bytes;
        padded.push(0);
        assert!(decode_snapshot(&padded).is_err());
    }

    #[test]
    fn hostile_lengths_fail_closed() {
        // A declared string length far past the buffer must error, not
        // panic or allocate unboundedly. Build a payload with a hostile
        // length and a valid CRC so the length check itself is exercised.
        let mut payload = Vec::new();
        payload.extend_from_slice(MAGIC);
        payload.extend_from_slice(&VERSION.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes()); // one edge
        payload.push(0); // op
        payload.extend_from_slice(&1u64.to_le_bytes()); // clock
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile len
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&payload),
            Err(LineageCodecError::Malformed)
        ));
    }

    #[test]
    fn non_canonical_snapshots_fail_closed() {
        // Each payload carries a valid CRC, so only the canonical-form
        // checks stand between it and a graph that would re-encode to
        // other bytes.
        fn snapshot(clock: u64, edges: &[(&str, u64)], alerts: &str) -> Vec<u8> {
            let mut out = Vec::new();
            out.extend_from_slice(MAGIC);
            out.extend_from_slice(&VERSION.to_le_bytes());
            out.extend_from_slice(&clock.to_le_bytes());
            out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
            for &(source, edge_clock) in edges {
                out.push(FlowOperation::Observe.to_u8());
                out.extend_from_slice(&edge_clock.to_le_bytes());
                for field in [source, "wiki", "docs/d#p0", "wiki/w#p0"] {
                    push_str(&mut out, field);
                }
            }
            push_str(&mut out, alerts);
            let crc = crc32(&out);
            out.extend_from_slice(&crc.to_le_bytes());
            out
        }
        let canonical = snapshot(2, &[("a", 1), ("b", 2)], "[]");
        let (graph, alerts) = decode_snapshot(&canonical).unwrap();
        assert_eq!(encode_snapshot(&graph, &alerts), canonical);
        for (case, bytes) in [
            ("out of order", snapshot(2, &[("b", 2), ("a", 1)], "[]")),
            ("duplicate edge", snapshot(2, &[("a", 1), ("a", 2)], "[]")),
            (
                "edge past the clock",
                snapshot(1, &[("a", 1), ("b", 2)], "[]"),
            ),
            ("alerts not as encoded", snapshot(2, &[("a", 1)], "[ ]")),
        ] {
            assert!(
                matches!(decode_snapshot(&bytes), Err(LineageCodecError::Malformed)),
                "{case}"
            );
        }
    }

    proptest! {
        /// Replay is order-insensitive per clock: any permutation of the
        /// same clocked edges produces the same graph, the same snapshot
        /// bytes, and the same clock.
        #[test]
        fn replay_order_insensitive(
            edges in proptest::collection::vec(
                ((0u8..4, 0u8..4), (0u8..6, 0u8..6), 1u64..64),
                0..24,
            ),
            seed in 0u64..1024,
        ) {
            let make = |((s, k), (g, i), c): &((u8, u8), (u8, u8), u64)| {
                edge(
                    &format!("svc{s}"),
                    &format!("svc{k}"),
                    &format!("svc{s}/d#p{g}"),
                    &format!("svc{k}/d#p{i}"),
                    *c,
                )
            };
            let forward = LineageGraph::new();
            for e in &edges {
                forward.replay(make(e));
            }
            // A deterministic shuffle driven by the seed.
            let mut shuffled: Vec<_> = edges.clone();
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
            for i in (1..shuffled.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                shuffled.swap(i, (state as usize) % (i + 1));
            }
            let backward = LineageGraph::new();
            for e in &shuffled {
                backward.replay(make(e));
            }
            prop_assert_eq!(forward.edges(), backward.edges());
            prop_assert_eq!(forward.clock(), backward.clock());
            prop_assert_eq!(
                encode_snapshot(&forward, &[]),
                encode_snapshot(&backward, &[])
            );
        }
    }
}
