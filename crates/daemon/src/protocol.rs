//! The `bfd` wire protocol: length-prefixed JSON frames over a Unix
//! domain socket.
//!
//! Every frame is a 4-byte little-endian length followed by that many
//! bytes of JSON (one [`Request`] or [`Reply`]). The length is capped at
//! [`MAX_FRAME_LEN`]; both sides treat the peer as untrusted and fail
//! closed on truncated, oversized or malformed frames — the decode path
//! never panics, never over-allocates ahead of received bytes, and never
//! silently resynchronises.
//!
//! The protocol is strictly request→reply: the client writes one frame
//! and reads exactly one frame back. Backpressure is in-band — an
//! admission refusal is a [`Reply::Backpressure`] frame, not a closed
//! socket, so an overloaded daemon is indistinguishable from a lossless
//! one at the transport layer.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

use serde::{Deserialize, Serialize};

/// Upper bound on a frame body (16 MiB): generous for document batches,
/// small enough that a hostile length prefix cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Protocol version spoken by this build (replied to `Ping`).
pub const PROTOCOL_VERSION: &str = "bfd/1";

// --- Frame codec ----------------------------------------------------------

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure.
    Io(io::Error),
    /// The peer closed the connection mid-frame.
    Truncated,
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    TooLarge {
        /// The hostile length prefix.
        declared: u64,
    },
    /// The frame body was not valid JSON for the expected type.
    Malformed(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "frame transport error: {e}"),
            Self::Truncated => f.write_str("peer closed the connection mid-frame"),
            Self::TooLarge { declared } => {
                write!(f, "frame length {declared} exceeds {MAX_FRAME_LEN} bytes")
            }
            Self::Malformed(detail) => write!(f, "malformed frame: {detail}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Writes one `len ‖ body` frame as a vectored write of the header and
/// the body, so an unbuffered socket pays one syscall (`writev`), the
/// peer never wakes on a header alone, and the body is not copied. A
/// short write is resumed where it stopped.
///
/// # Errors
///
/// [`FrameError::TooLarge`] when `body` exceeds [`MAX_FRAME_LEN`];
/// otherwise transport errors.
pub fn write_frame(writer: &mut impl Write, body: &[u8]) -> Result<(), FrameError> {
    if body.len() > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge {
            declared: body.len() as u64,
        });
    }
    let header = (body.len() as u32).to_le_bytes();
    let mut sent = 0;
    while sent < header.len() + body.len() {
        let parts = [
            IoSlice::new(&header[sent.min(header.len())..]),
            IoSlice::new(&body[sent.saturating_sub(header.len())..]),
        ];
        match writer.write_vectored(&parts) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    writer.flush()?;
    Ok(())
}

/// Reads one frame body. Returns `Ok(None)` on a clean EOF *before* the
/// first header byte (the peer hung up between requests).
///
/// # Errors
///
/// [`FrameError::Truncated`] when the peer disappears mid-frame,
/// [`FrameError::TooLarge`] on a hostile length prefix, transport errors
/// otherwise. Timeout errors (`WouldBlock`/`TimedOut`) surface as
/// [`FrameError::Io`] so pollers can keep their own loop.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(reader, &mut header)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Partial => return Err(FrameError::Truncated),
        ReadOutcome::Full => {}
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge {
            declared: len as u64,
        });
    }
    // Read incrementally rather than pre-allocating `len` bytes: the
    // length field is attacker-controlled until the body actually
    // arrives.
    let mut body = Vec::new();
    let mut chunk = [0u8; 8192];
    while body.len() < len {
        let want = (len - body.len()).min(chunk.len());
        let got = reader.read(&mut chunk[..want])?;
        if got == 0 {
            return Err(FrameError::Truncated);
        }
        body.extend_from_slice(&chunk[..got]);
    }
    Ok(Some(body))
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        let got = reader.read(&mut buf[filled..])?;
        if got == 0 {
            return Ok(if filled == 0 {
                ReadOutcome::Eof
            } else {
                ReadOutcome::Partial
            });
        }
        filled += got;
    }
    Ok(ReadOutcome::Full)
}

/// Serialises and writes one request frame.
///
/// # Errors
///
/// Transport errors from [`write_frame`].
pub fn write_request(writer: &mut impl Write, request: &Request) -> Result<(), FrameError> {
    let body = serde_json::to_vec(request).map_err(|e| FrameError::Malformed(e.to_string()))?;
    write_frame(writer, &body)
}

/// Serialises and writes one reply frame.
///
/// # Errors
///
/// Transport errors from [`write_frame`].
pub fn write_reply(writer: &mut impl Write, reply: &Reply) -> Result<(), FrameError> {
    let body = serde_json::to_vec(reply).map_err(|e| FrameError::Malformed(e.to_string()))?;
    write_frame(writer, &body)
}

/// Reads and decodes one request frame (`Ok(None)` on clean EOF).
///
/// # Errors
///
/// [`FrameError::Malformed`] when the body is not a [`Request`].
pub fn read_request(reader: &mut impl Read) -> Result<Option<Request>, FrameError> {
    match read_frame(reader)? {
        None => Ok(None),
        Some(body) => serde_json::from_slice(&body)
            .map(Some)
            .map_err(|e| FrameError::Malformed(e.to_string())),
    }
}

/// Reads and decodes one reply frame (`Ok(None)` on clean EOF).
///
/// # Errors
///
/// [`FrameError::Malformed`] when the body is not a [`Reply`].
pub fn read_reply(reader: &mut impl Read) -> Result<Option<Reply>, FrameError> {
    match read_frame(reader)? {
        None => Ok(None),
        Some(body) => serde_json::from_slice(&body)
            .map(Some)
            .map_err(|e| FrameError::Malformed(e.to_string())),
    }
}

// --- Requests -------------------------------------------------------------

/// One indexed paragraph in a check batch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParagraphSlot {
    /// The paragraph's index within the document.
    pub index: usize,
    /// The paragraph text.
    pub text: String,
}

/// A client request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Registers a tenant with its own isolated store, labels and audit
    /// trail.
    TenantCreate {
        /// The tenant id (validated server-side).
        tenant: String,
        /// Enforcement mode: `advisory`, `block` or `encrypt`.
        mode: String,
        /// The tenant's policy as JSON (same format `bfctl policy
        /// validate` accepts).
        policy_json: String,
        /// Per-tenant in-flight quota; `0` takes the server default.
        max_in_flight: u64,
        /// Decider queue capacity; `0` takes the server default.
        queue_capacity: u64,
    },
    /// Lists registered tenants.
    TenantList,
    /// Observes (stores) a paragraph in the tenant's flow.
    Observe {
        /// The tenant.
        tenant: String,
        /// Service the paragraph appeared in.
        service: String,
        /// Document id.
        document: String,
        /// Paragraph index.
        index: usize,
        /// Paragraph text.
        text: String,
    },
    /// Observes (stores) a whole document's paragraph slots in one frame —
    /// the bulk-ingest counterpart of [`Request::Observe`]. The server
    /// lands all slots through the batched store path (one stripe-lock
    /// round-trip per touched stripe) and replies [`Reply::Observed`].
    ObserveBatch {
        /// The tenant.
        tenant: String,
        /// Service the document lives in.
        service: String,
        /// Document id.
        document: String,
        /// The paragraph slots to observe.
        paragraphs: Vec<ParagraphSlot>,
    },
    /// Checks a batch of paragraphs for disclosure before upload.
    Check {
        /// The tenant.
        tenant: String,
        /// Destination service.
        service: String,
        /// Document id.
        document: String,
        /// The paragraphs to check.
        paragraphs: Vec<ParagraphSlot>,
    },
    /// A coalescing keystroke check for one paragraph slot.
    Keystroke {
        /// The tenant.
        tenant: String,
        /// Destination service.
        service: String,
        /// Document id.
        document: String,
        /// Paragraph index.
        index: usize,
        /// Full paragraph text after the keystroke.
        text: String,
    },
    /// Pipeline counters for one tenant.
    Stats {
        /// The tenant.
        tenant: String,
    },
    /// The tenant's cross-service lineage graph: every recorded flow
    /// edge, read consistently on the tenant's worker.
    Lineage {
        /// The tenant.
        tenant: String,
    },
    /// The tenant's exfiltration alerts (multi-hop covert chains the
    /// sentinel confirmed), with their containment receipts.
    Alerts {
        /// The tenant.
        tenant: String,
    },
    /// Graceful drain: finish queued work, persist every tenant, reply
    /// with the per-tenant reports, then shut the daemon down.
    Drain,
}

// --- Replies --------------------------------------------------------------

/// One violation behind a non-allow decision, flattened for the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireViolation {
    /// The disclosing source segment (`service/document#pN` form).
    pub source: String,
    /// Measured disclosure of that source.
    pub disclosure: f64,
    /// Tags the destination service lacks.
    pub missing_tags: Vec<String>,
    /// Byte ranges of the checked text that match the source.
    pub matching_spans: Vec<(usize, usize)>,
}

/// One upload decision, flattened for the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireDecision {
    /// `allow`, `warn`, `block` or `encrypt`.
    pub action: String,
    /// The violations behind a non-allow action.
    pub violations: Vec<WireViolation>,
}

/// One registered tenant, as listed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireTenant {
    /// The tenant id.
    pub tenant: String,
    /// Checks currently in flight.
    pub in_flight: u64,
    /// The tenant's in-flight quota.
    pub max_in_flight: u64,
}

/// One tenant's drain outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireDrainReport {
    /// The tenant id.
    pub tenant: String,
    /// Checks the tenant completed over its lifetime.
    pub completed: u64,
    /// Where the sealed state directory was written (empty when the
    /// daemon runs without a state root).
    pub persisted_to: String,
    /// First drain/persist error, empty on success.
    pub error: String,
}

/// A server reply frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// Liveness answer.
    Pong {
        /// Protocol version ([`PROTOCOL_VERSION`]).
        version: String,
    },
    /// The tenant was registered.
    TenantCreated {
        /// The validated tenant id.
        tenant: String,
    },
    /// The registered tenants.
    Tenants {
        /// One entry per tenant, sorted by id.
        tenants: Vec<WireTenant>,
    },
    /// The paragraph was observed and fingerprinted.
    Observed,
    /// Decisions for a check batch, in request order.
    Decisions {
        /// One decision per requested paragraph.
        decisions: Vec<WireDecision>,
        /// Queue-to-decision latency in microseconds.
        latency_us: u64,
    },
    /// The request was refused at admission — *backpressure, not loss*.
    /// The check did not run. Transient refusals (`quota-exceeded`,
    /// `queue-full`) clear if retried after `retry_after_ms`; a
    /// `terminal` refusal (`draining`) will never succeed against this
    /// daemon instance, so `retry_after_ms` is the suggested delay
    /// before probing for a *restarted* daemon instead.
    Backpressure {
        /// `quota-exceeded`, `queue-full` or `draining`.
        reason: String,
        /// Checks in flight for the tenant at refusal time.
        in_flight: u64,
        /// The limit that refused (quota or queue capacity).
        limit: u64,
        /// Suggested retry delay — always non-zero; see `terminal` for
        /// whether a retry can succeed here at all.
        retry_after_ms: u64,
        /// `true` when the refusal is permanent for this daemon
        /// instance (the tenant is draining for good). Absent frames
        /// from older peers decode as `false`.
        #[serde(default)]
        terminal: bool,
    },
    /// A newer keystroke for the same slot superseded this check before
    /// it ran (normal coalescing, not an error).
    Superseded,
    /// Pipeline counters for one tenant.
    Stats {
        /// The decider's counters.
        pipeline: browserflow::PipelineStats,
        /// Checks currently in flight (admission view).
        in_flight: u64,
        /// The tenant's quota.
        max_in_flight: u64,
    },
    /// The tenant's lineage graph.
    Lineage {
        /// Every recorded flow edge, in deterministic (content-key)
        /// order.
        edges: Vec<browserflow::FlowEdge>,
        /// The graph's logical clock (edges recorded so far).
        clock: u64,
    },
    /// The tenant's exfiltration alerts.
    Alerts {
        /// Confirmed multi-hop covert chains, oldest first, each with
        /// its containment receipt.
        alerts: Vec<browserflow::ExfiltrationAlert>,
    },
    /// Drain finished; the daemon exits after this reply.
    Drained {
        /// Per-tenant outcomes, sorted by tenant id.
        reports: Vec<WireDrainReport>,
    },
    /// The request failed (unknown tenant, bad policy, middleware
    /// error, …).
    Error {
        /// Human-readable cause.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            &Request::Check {
                tenant: "alice".into(),
                service: "gdocs".into(),
                document: "draft".into(),
                paragraphs: vec![ParagraphSlot {
                    index: 3,
                    text: "hello".into(),
                }],
            },
        )
        .unwrap();
        let mut cursor = &wire[..];
        let parsed = read_request(&mut cursor).unwrap().unwrap();
        assert!(matches!(parsed, Request::Check { ref tenant, .. } if tenant == "alice"));
        // Clean EOF after the single frame.
        assert!(read_request(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn reply_roundtrip() {
        let mut wire = Vec::new();
        write_reply(
            &mut wire,
            &Reply::Backpressure {
                reason: "queue-full".into(),
                in_flight: 7,
                limit: 8,
                retry_after_ms: 25,
                terminal: false,
            },
        )
        .unwrap();
        let parsed = read_reply(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(
            parsed,
            Reply::Backpressure {
                reason: "queue-full".into(),
                in_flight: 7,
                limit: 8,
                retry_after_ms: 25,
                terminal: false,
            }
        );
    }

    #[test]
    fn truncated_frames_fail_closed() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::Ping).unwrap();
        // Every strict prefix must error (or report clean EOF at 0..4),
        // never panic and never hand back a half-frame.
        for len in 0..wire.len() {
            match read_frame(&mut &wire[..len]) {
                Ok(None) => assert!(len == 0, "EOF only before the first header byte"),
                Ok(Some(_)) => panic!("{len}-byte prefix decoded as a full frame"),
                Err(FrameError::Truncated) => {}
                Err(other) => panic!("unexpected error on {len}-byte prefix: {other}"),
            }
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(b"tiny");
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn each_frame_is_one_write() {
        #[derive(Default)]
        struct CountingSink {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                self.writes += 1;
                let before = self.bytes.len();
                for buf in bufs {
                    self.bytes.extend_from_slice(buf);
                }
                Ok(self.bytes.len() - before)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = CountingSink::default();
        write_request(&mut sink, &Request::Ping).unwrap();
        assert_eq!(sink.writes, 1, "header and body go out together");
        assert_eq!(
            read_request(&mut &sink.bytes[..]).unwrap(),
            Some(Request::Ping)
        );
    }

    #[test]
    fn short_writes_still_send_the_whole_frame() {
        /// Accepts at most three bytes per call, from the first buffer
        /// only (the default `write_vectored`).
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let request = Request::Stats {
            tenant: "trickle".into(),
        };
        let mut sink = Trickle(Vec::new());
        write_request(&mut sink, &request).unwrap();
        assert_eq!(read_request(&mut &sink.0[..]).unwrap(), Some(request));
    }

    #[test]
    fn raw_control_byte_in_a_string_is_malformed() {
        let body = serde_json::to_vec(&Request::Stats {
            tenant: "a\u{1}b".into(),
        })
        .unwrap();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        assert!(read_request(&mut &wire[..]).unwrap().is_some());
        // The same frame with the control byte unescaped fails closed.
        let raw = String::from_utf8(body).unwrap().replace("\\u0001", "\u{1}");
        assert!(raw.contains('\u{1}'));
        let mut wire = Vec::new();
        write_frame(&mut wire, raw.as_bytes()).unwrap();
        assert!(matches!(
            read_request(&mut &wire[..]),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn garbage_json_is_malformed_not_panic() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{not json").unwrap();
        assert!(matches!(
            read_request(&mut &wire[..]),
            Err(FrameError::Malformed(_))
        ));
    }
}
