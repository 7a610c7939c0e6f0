//! The asynchronous decision pipeline (§6.2).
//!
//! "When a user modifies a document in Google Docs, BrowserFlow is
//! triggered asynchronously on each key press. This means that users do
//! not perceive any additional delay when typing — independently of
//! BrowserFlow's response time — because the disclosure calculation
//! occurs in a different process."
//!
//! [`AsyncDecider`] runs the middleware on a dedicated worker thread
//! behind a **bounded** request queue:
//!
//! - **Batching** — a [`CheckRequest`] travels through the queue as a
//!   single message regardless of how many paragraphs it carries, so a
//!   document-wide recheck costs one worker round-trip and is served by
//!   the engine's parallel Algorithm 1 fan-out.
//! - **Backpressure** — the queue holds at most
//!   [`DeciderConfig::queue_capacity`] requests. [`AsyncDecider::submit`]
//!   blocks until space frees up; [`AsyncDecider::try_submit`] and
//!   [`AsyncDecider::submit_keystroke`] refuse with
//!   [`TrySubmitError::QueueFull`] instead, which is what a keystroke
//!   handler wants: drop the check, never stall the editor.
//! - **Coalescing** — keystroke checks are keyed by
//!   `(service, document, paragraph)`. When several checks for the same
//!   slot are queued, only the newest runs; the stale ones resolve as
//!   [`DeciderError::Superseded`] without touching the engine.
//! - **Timeouts** — [`DeciderConfig::check_timeout`] bounds how long a
//!   blocking check waits for its reply.
//! - **Typed failure** — every path reports [`DeciderError`] instead of
//!   panicking; dropping the decider fails outstanding replies with
//!   [`DeciderError::Closed`], while [`AsyncDecider::shutdown`] drains
//!   them first.
//!
//! Each successful response carries the end-to-end latency (submission to
//! decision), which is the quantity Figures 12 and 13 report, and the
//! pipeline exposes its health counters through
//! [`AsyncDecider::stats`].

use crate::engine::{panic_detail, WorkerPanic};
use crate::middleware::{BrowserFlow, MiddlewareError, UploadAction, UploadDecision};
use crate::request::CheckRequest;
use browserflow_fingerprint::TextEdit;
use browserflow_tdm::ServiceId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{
    sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError,
};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why an asynchronous decision could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeciderError {
    /// The pipeline has shut down (or shut down before replying).
    Closed,
    /// A newer check for the same `(service, document, paragraph)` slot
    /// superseded this one before it ran.
    Superseded,
    /// The reply did not arrive within the configured timeout.
    Timeout,
    /// The middleware rejected the request (e.g. unknown service).
    Middleware(MiddlewareError),
}

impl fmt::Display for DeciderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Closed => f.write_str("decision pipeline is closed"),
            Self::Superseded => {
                f.write_str("check superseded by a newer keystroke for the same slot")
            }
            Self::Timeout => f.write_str("timed out waiting for a decision"),
            Self::Middleware(e) => write!(f, "middleware error: {e}"),
        }
    }
}

impl std::error::Error for DeciderError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Middleware(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MiddlewareError> for DeciderError {
    fn from(e: MiddlewareError) -> Self {
        Self::Middleware(e)
    }
}

/// Why a non-blocking submission was refused at the queue boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySubmitError {
    /// The bounded request queue is at capacity; retry later or drop the
    /// check (a newer keystroke will re-cover the slot).
    QueueFull,
    /// The pipeline has shut down.
    Closed,
}

impl fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull => f.write_str("decision pipeline queue is full"),
            Self::Closed => f.write_str("decision pipeline is closed"),
        }
    }
}

impl std::error::Error for TrySubmitError {}

/// Tunables for the asynchronous pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeciderConfig {
    /// Maximum number of requests the queue holds before submissions
    /// block ([`AsyncDecider::submit`]) or are refused
    /// ([`AsyncDecider::try_submit`]).
    pub queue_capacity: usize,
    /// Upper bound on how long blocking checks wait for their reply;
    /// `None` waits indefinitely.
    pub check_timeout: Option<Duration>,
}

impl Default for DeciderConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            check_timeout: None,
        }
    }
}

/// A point-in-time snapshot of the pipeline's health counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct PipelineStats {
    /// Requests currently queued (or blocked waiting for queue space).
    pub queue_depth: usize,
    /// Requests accepted into the queue since spawn.
    pub submitted: u64,
    /// Check requests that produced decisions.
    pub completed: u64,
    /// Stale keystroke checks skipped because a newer check for the same
    /// slot was already queued.
    pub coalesced: u64,
    /// Non-blocking submissions refused with
    /// [`TrySubmitError::QueueFull`].
    pub rejected: u64,
    /// Blocking waits that gave up with [`DeciderError::Timeout`].
    pub timeouts: u64,
    /// Check batches executed by the worker.
    pub batches: u64,
    /// Total paragraphs across executed batches.
    pub batch_paragraphs: u64,
    /// Largest batch executed.
    pub max_batch: u64,
    /// Checks that failed (middleware error, or abandoned at shutdown).
    pub failed: u64,
}

impl PipelineStats {
    /// Mean paragraphs per executed batch (0 when nothing ran yet).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_paragraphs as f64 / self.batches as f64
        }
    }
}

/// A batch of decisions with the end-to-end latency of the whole batch.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedBatch {
    /// One decision per requested paragraph, in request order.
    pub decisions: Vec<UploadDecision>,
    /// Time from request submission to batch availability.
    pub latency: Duration,
}

impl TimedBatch {
    /// Collapses the batch to its first decision (the single-paragraph
    /// shape); an empty batch allows.
    pub fn into_single(self) -> TimedDecision {
        let decision = self.decisions.into_iter().next().unwrap_or(UploadDecision {
            action: UploadAction::Allow,
            violations: Vec::new(),
        });
        TimedDecision {
            decision,
            latency: self.latency,
        }
    }
}

/// A single decision with its end-to-end latency.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedDecision {
    /// The middleware's decision.
    pub decision: UploadDecision,
    /// Time from request submission to decision availability.
    pub latency: Duration,
}

type CoalesceKey = (ServiceId, String, usize);
type CheckReply = Result<TimedBatch, DeciderError>;

struct CheckJob {
    request: CheckRequest<'static>,
    /// `Some((key, seq))` for keystroke checks: the job runs only if it
    /// is still the newest submission for `key`.
    coalesce: Option<(CoalesceKey, u64)>,
    submitted: Instant,
    reply: SyncSender<CheckReply>,
}

/// A keystroke travelling through the queue as an *edit* instead of the
/// full paragraph text. Superseded edits are still absorbed into the
/// middleware's keystroke session (state must see every edit, verdicts
/// only the newest), so coalescing skips the disclosure evaluation — the
/// expensive half — without desynchronising the session.
struct EditJob {
    service: ServiceId,
    document: String,
    index: usize,
    edit: TextEdit,
    coalesce: (CoalesceKey, u64),
    submitted: Instant,
    reply: SyncSender<CheckReply>,
}

enum Request {
    Observe {
        service: ServiceId,
        document: String,
        index: usize,
        text: String,
        reply: SyncSender<Result<(), DeciderError>>,
    },
    ObserveBatch {
        service: ServiceId,
        document: String,
        paragraphs: Vec<(usize, String)>,
        reply: SyncSender<Result<usize, DeciderError>>,
    },
    Check(Box<CheckJob>),
    EditCheck(Box<EditJob>),
    /// Runs a read-only closure against the worker's middleware (lineage
    /// queries, stats, background snapshots) in queue order; the closure
    /// carries its own reply channel.
    Inspect(Box<dyn FnOnce(&BrowserFlow) + Send>),
}

#[derive(Debug, Default)]
struct Counters {
    depth: AtomicUsize,
    submitted: AtomicU64,
    completed: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    batches: AtomicU64,
    batch_paragraphs: AtomicU64,
    max_batch: AtomicU64,
    failed: AtomicU64,
}

#[derive(Debug, Default)]
struct Shared {
    counters: Counters,
    /// Newest pending sequence number per coalescing key.
    latest: Mutex<HashMap<CoalesceKey, u64>>,
    seq: AtomicU64,
    /// Set when the decider is dropped without a graceful shutdown:
    /// the worker fails remaining replies instead of computing them.
    closing: AtomicBool,
}

impl Shared {
    fn snapshot(&self) -> PipelineStats {
        let c = &self.counters;
        PipelineStats {
            queue_depth: c.depth.load(Ordering::Relaxed),
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batch_paragraphs: c.batch_paragraphs.load(Ordering::Relaxed),
            max_batch: c.max_batch.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
        }
    }
}

/// A check in flight: a receipt for one [`CheckRequest`] travelling
/// through the pipeline.
#[derive(Debug)]
pub struct PendingBatch {
    response: Receiver<CheckReply>,
    shared: Arc<Shared>,
}

impl PendingBatch {
    /// Blocks until the batch decision arrives.
    pub fn wait(self) -> Result<TimedBatch, DeciderError> {
        self.response.recv().map_err(|_| DeciderError::Closed)?
    }

    /// Blocks for at most `timeout`, then gives up with
    /// [`DeciderError::Timeout`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<TimedBatch, DeciderError> {
        match self.response.recv_timeout(timeout) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                self.shared
                    .counters
                    .timeouts
                    .fetch_add(1, Ordering::Relaxed);
                Err(DeciderError::Timeout)
            }
            Err(RecvTimeoutError::Disconnected) => Err(DeciderError::Closed),
        }
    }

    /// Non-blocking probe: `None` while the check is still in flight.
    pub fn poll(&self) -> Option<Result<TimedBatch, DeciderError>> {
        match self.response.try_recv() {
            Ok(result) => Some(result),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(DeciderError::Closed)),
        }
    }
}

/// A single-paragraph check in flight (the keystroke shape).
#[derive(Debug)]
pub struct PendingDecision {
    inner: PendingBatch,
}

impl From<PendingBatch> for PendingDecision {
    fn from(inner: PendingBatch) -> Self {
        Self { inner }
    }
}

impl PendingDecision {
    /// Blocks until the decision arrives.
    pub fn wait(self) -> Result<TimedDecision, DeciderError> {
        self.inner.wait().map(TimedBatch::into_single)
    }

    /// Blocks for at most `timeout`, then gives up with
    /// [`DeciderError::Timeout`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<TimedDecision, DeciderError> {
        self.inner
            .wait_timeout(timeout)
            .map(TimedBatch::into_single)
    }

    /// Non-blocking probe: `None` while the check is still in flight.
    pub fn poll(&self) -> Option<Result<TimedDecision, DeciderError>> {
        self.inner
            .poll()
            .map(|result| result.map(TimedBatch::into_single))
    }
}

/// Handle to a middleware instance running on a worker thread behind a
/// bounded request queue.
///
/// # Example
///
/// ```rust
/// use browserflow::{AsyncDecider, BrowserFlow, CheckRequest, UploadAction};
/// use browserflow_tdm::Service;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let flow = BrowserFlow::builder()
///     .service(Service::new("gdocs", "Google Docs"))
///     .build()?;
/// let decider = AsyncDecider::spawn(flow);
///
/// // One keystroke check:
/// let timed = decider.check("gdocs", "draft", 0, "harmless text")?;
/// assert_eq!(timed.decision.action, UploadAction::Allow);
///
/// // A document-wide recheck: one round-trip for the whole batch.
/// let batch = decider.check_request(
///     CheckRequest::batch("gdocs", "draft", ["first paragraph", "second paragraph"]),
/// )?;
/// assert_eq!(batch.decisions.len(), 2);
///
/// let _flow = decider.shutdown()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AsyncDecider {
    requests: Option<SyncSender<Request>>,
    worker: Option<JoinHandle<BrowserFlow>>,
    shared: Arc<Shared>,
    config: DeciderConfig,
}

impl AsyncDecider {
    /// Moves `flow` onto a worker thread with the default
    /// [`DeciderConfig`].
    pub fn spawn(flow: BrowserFlow) -> Self {
        Self::spawn_with(flow, DeciderConfig::default())
    }

    /// Moves `flow` onto a worker thread with an explicit configuration.
    pub fn spawn_with(flow: BrowserFlow, config: DeciderConfig) -> Self {
        let (requests, inbox) = sync_channel(config.queue_capacity.max(1));
        let shared = Arc::new(Shared::default());
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("browserflow-decider".into())
            .spawn(move || run_worker(flow, inbox, worker_shared))
            .expect("worker thread spawns");
        Self {
            requests: Some(requests),
            worker: Some(worker),
            shared,
            config,
        }
    }

    /// The configuration the pipeline was spawned with.
    pub fn config(&self) -> DeciderConfig {
        self.config
    }

    /// A snapshot of the pipeline's health counters.
    pub fn stats(&self) -> PipelineStats {
        self.shared.snapshot()
    }

    fn sender(&self) -> Result<&SyncSender<Request>, DeciderError> {
        self.requests.as_ref().ok_or(DeciderError::Closed)
    }

    /// Blocking enqueue: waits for queue space under backpressure.
    fn enqueue(&self, request: Request) -> Result<(), DeciderError> {
        let sender = self.sender()?;
        let counters = &self.shared.counters;
        counters.depth.fetch_add(1, Ordering::Relaxed);
        match sender.send(request) {
            Ok(()) => {
                counters.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(_) => {
                counters.depth.fetch_sub(1, Ordering::Relaxed);
                Err(DeciderError::Closed)
            }
        }
    }

    /// Non-blocking enqueue: refuses instead of waiting.
    fn try_enqueue(&self, request: Request) -> Result<(), TrySubmitError> {
        let sender = self.requests.as_ref().ok_or(TrySubmitError::Closed)?;
        let counters = &self.shared.counters;
        counters.depth.fetch_add(1, Ordering::Relaxed);
        match sender.try_send(request) {
            Ok(()) => {
                counters.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                counters.depth.fetch_sub(1, Ordering::Relaxed);
                counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(TrySubmitError::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => {
                counters.depth.fetch_sub(1, Ordering::Relaxed);
                Err(TrySubmitError::Closed)
            }
        }
    }

    /// Observes a paragraph on the worker and waits for completion.
    pub fn observe(
        &self,
        service: impl Into<ServiceId>,
        document: impl Into<String>,
        index: usize,
        text: impl Into<String>,
    ) -> Result<(), DeciderError> {
        let (reply, response) = sync_channel(1);
        self.enqueue(Request::Observe {
            service: service.into(),
            document: document.into(),
            index,
            text: text.into(),
            reply,
        })?;
        response.recv().map_err(|_| DeciderError::Closed)?
    }

    /// Bulk-ingests a document's paragraph slots on the worker in **one**
    /// queue round-trip ([`BrowserFlow::observe_paragraphs`]) and waits
    /// for completion. Returns the number of paragraphs observed.
    pub fn observe_batch(
        &self,
        service: impl Into<ServiceId>,
        document: impl Into<String>,
        paragraphs: Vec<(usize, String)>,
    ) -> Result<usize, DeciderError> {
        let (reply, response) = sync_channel(1);
        self.enqueue(Request::ObserveBatch {
            service: service.into(),
            document: document.into(),
            paragraphs,
            reply,
        })?;
        response.recv().map_err(|_| DeciderError::Closed)?
    }

    /// Submits a [`CheckRequest`] without waiting for the reply. Blocks
    /// only for queue space (backpressure).
    pub fn submit(&self, request: CheckRequest<'_>) -> Result<PendingBatch, DeciderError> {
        let (job, pending) = self.make_job(request, None);
        self.enqueue(Request::Check(job))?;
        Ok(pending)
    }

    /// Submits a [`CheckRequest`] without waiting at all: refuses with
    /// [`TrySubmitError::QueueFull`] when the queue is at capacity.
    pub fn try_submit(&self, request: CheckRequest<'_>) -> Result<PendingBatch, TrySubmitError> {
        let (job, pending) = self.make_job(request, None);
        self.try_enqueue(Request::Check(job))?;
        Ok(pending)
    }

    /// Submits a coalescing keystroke check for one
    /// `(service, document, paragraph)` slot.
    ///
    /// When several checks for the same slot pile up in the queue, only
    /// the newest runs; older pending checks resolve as
    /// [`DeciderError::Superseded`]. Never blocks: a full queue refuses
    /// with [`TrySubmitError::QueueFull`].
    pub fn submit_keystroke(
        &self,
        service: impl Into<ServiceId>,
        document: impl Into<String>,
        index: usize,
        text: impl Into<String>,
    ) -> Result<PendingDecision, TrySubmitError> {
        let service = service.into();
        let document = document.into();
        let key: CoalesceKey = (service.clone(), document.clone(), index);
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let request = CheckRequest::paragraph(service, document, index, text.into());
        let (job, pending) = self.make_job(request, Some((key.clone(), seq)));
        // Hold the coalescing map across the enqueue so the worker cannot
        // observe the new sequence number before the job is queued, and
        // so a refused job never becomes the slot's "newest" entry.
        let mut latest = self.shared.latest.lock();
        self.try_enqueue(Request::Check(job))?;
        latest.insert(key, seq);
        drop(latest);
        Ok(PendingDecision::from(pending))
    }

    /// Submits a coalescing keystroke *edit* for one
    /// `(service, document, paragraph)` slot — the incremental counterpart
    /// of [`AsyncDecider::submit_keystroke`].
    ///
    /// The edit crosses the queue instead of the whole paragraph text and
    /// is applied to the middleware's keystroke session
    /// ([`BrowserFlow::check_keystroke`]) on the worker. When several edits
    /// for the same slot pile up, only the newest produces a decision;
    /// older ones are *absorbed* — their splice still reaches the session,
    /// they just skip the disclosure evaluation — and resolve as
    /// [`DeciderError::Superseded`]. Never blocks: a full queue refuses
    /// with [`TrySubmitError::QueueFull`]; a refused edit never touches
    /// the session, so the caller can resubmit it unchanged.
    pub fn submit_keystroke_edit(
        &self,
        service: impl Into<ServiceId>,
        document: impl Into<String>,
        index: usize,
        edit: TextEdit,
    ) -> Result<PendingDecision, TrySubmitError> {
        let service = service.into();
        let document = document.into();
        let key: CoalesceKey = (service.clone(), document.clone(), index);
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let (reply, response) = sync_channel(1);
        let job = Box::new(EditJob {
            service,
            document,
            index,
            edit,
            coalesce: (key.clone(), seq),
            submitted: Instant::now(),
            reply,
        });
        let pending = PendingBatch {
            response,
            shared: Arc::clone(&self.shared),
        };
        // Same ordering discipline as `submit_keystroke`: hold the
        // coalescing map across the enqueue.
        let mut latest = self.shared.latest.lock();
        self.try_enqueue(Request::EditCheck(job))?;
        latest.insert(key, seq);
        drop(latest);
        Ok(PendingDecision::from(pending))
    }

    /// Submits a disclosure check and blocks until the timed decision
    /// arrives (or [`DeciderConfig::check_timeout`] elapses).
    pub fn check(
        &self,
        service: impl Into<ServiceId>,
        document: impl Into<String>,
        index: usize,
        text: impl Into<String>,
    ) -> Result<TimedDecision, DeciderError> {
        let request = CheckRequest::paragraph(service.into(), document.into(), index, text.into());
        self.check_request(request).map(TimedBatch::into_single)
    }

    /// Runs a closure against the worker's middleware and waits for its
    /// result. The closure runs on the worker thread in queue order —
    /// after every check already queued — with shared (`&`) access, so it
    /// can read lineage, alerts, warnings, or persist a snapshot without
    /// draining the decider.
    ///
    /// # Errors
    ///
    /// Returns [`DeciderError::Closed`] if the decider is shutting down or
    /// the closure panicked (the panic is contained on the worker).
    pub fn with_flow<T: Send + 'static>(
        &self,
        f: impl FnOnce(&BrowserFlow) -> T + Send + 'static,
    ) -> Result<T, DeciderError> {
        let (reply, response) = sync_channel(1);
        self.enqueue(Request::Inspect(Box::new(move |flow: &BrowserFlow| {
            let _ = reply.send(f(flow));
        })))?;
        response.recv().map_err(|_| DeciderError::Closed)
    }

    /// Submits a [`CheckRequest`] and blocks until the whole batch
    /// resolves (or [`DeciderConfig::check_timeout`] elapses). The batch
    /// crosses the queue as one message and is served by a single
    /// Algorithm 1 fan-out.
    pub fn check_request(&self, request: CheckRequest<'_>) -> Result<TimedBatch, DeciderError> {
        let pending = self.submit(request)?;
        match self.config.check_timeout {
            Some(timeout) => pending.wait_timeout(timeout),
            None => pending.wait(),
        }
    }

    /// Submits a check without waiting; the reply arrives on the returned
    /// [`PendingDecision`]. This is the fire-and-forget path a keystroke
    /// handler uses when it must not coalesce.
    pub fn check_nonblocking(
        &self,
        service: impl Into<ServiceId>,
        document: impl Into<String>,
        index: usize,
        text: impl Into<String>,
    ) -> Result<PendingDecision, DeciderError> {
        let request = CheckRequest::paragraph(service.into(), document.into(), index, text.into());
        self.submit(request).map(PendingDecision::from)
    }

    fn make_job(
        &self,
        request: CheckRequest<'_>,
        coalesce: Option<(CoalesceKey, u64)>,
    ) -> (Box<CheckJob>, PendingBatch) {
        let (reply, response) = sync_channel(1);
        let job = Box::new(CheckJob {
            request: request.into_owned(),
            coalesce,
            submitted: Instant::now(),
            reply,
        });
        let pending = PendingBatch {
            response,
            shared: Arc::clone(&self.shared),
        };
        (job, pending)
    }

    /// Closes the queue. With `fail_pending`, queued checks resolve as
    /// [`DeciderError::Closed`] instead of being computed.
    fn close(&mut self, fail_pending: bool) -> Option<BrowserFlow> {
        if fail_pending {
            self.shared.closing.store(true, Ordering::Relaxed);
        }
        self.requests.take();
        self.worker.take().and_then(|worker| worker.join().ok())
    }

    /// Gracefully stops the worker — every queued request is still
    /// served — and returns the middleware (with all its state).
    pub fn shutdown(mut self) -> Result<BrowserFlow, DeciderError> {
        self.close(false).ok_or(DeciderError::Closed)
    }
}

impl Drop for AsyncDecider {
    fn drop(&mut self) {
        // Fast path out: pending checks resolve as `Closed` rather than
        // being computed for nobody.
        self.close(true);
    }
}

/// Runs a middleware operation with panic containment: a panicking check
/// resolves as [`MiddlewareError::WorkerPanic`] instead of unwinding the
/// decider's worker thread — which would fail every queued and future
/// request of the tenant with [`DeciderError::Closed`]. parking_lot locks
/// do not poison and check paths only read the stores, so the middleware
/// stays consistent across a contained panic.
fn contain_panic<T>(op: impl FnOnce() -> Result<T, MiddlewareError>) -> Result<T, MiddlewareError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).unwrap_or_else(|payload| {
        Err(MiddlewareError::WorkerPanic(WorkerPanic {
            detail: panic_detail(payload.as_ref()),
        }))
    })
}

fn run_worker(flow: BrowserFlow, inbox: Receiver<Request>, shared: Arc<Shared>) -> BrowserFlow {
    let counters = &shared.counters;
    for request in inbox.iter() {
        counters.depth.fetch_sub(1, Ordering::Relaxed);
        let closing = shared.closing.load(Ordering::Relaxed);
        match request {
            Request::Observe {
                service,
                document,
                index,
                text,
                reply,
            } => {
                if closing {
                    let _ = reply.send(Err(DeciderError::Closed));
                    continue;
                }
                let result = contain_panic(|| {
                    flow.observe_paragraph(&service, &document, index, &text)
                        .map(|_| ())
                })
                .map_err(DeciderError::from);
                let _ = reply.send(result);
            }
            Request::ObserveBatch {
                service,
                document,
                paragraphs,
                reply,
            } => {
                if closing {
                    let _ = reply.send(Err(DeciderError::Closed));
                    continue;
                }
                let result = contain_panic(|| {
                    let slots: Vec<(usize, &str)> = paragraphs
                        .iter()
                        .map(|(index, text)| (*index, text.as_str()))
                        .collect();
                    flow.observe_paragraphs(&service, &document, &slots)
                })
                .map_err(DeciderError::from);
                let _ = reply.send(result);
            }
            Request::Check(job) => {
                if closing {
                    counters.failed.fetch_add(1, Ordering::Relaxed);
                    let _ = job.reply.send(Err(DeciderError::Closed));
                    continue;
                }
                if let Some((key, seq)) = &job.coalesce {
                    let mut latest = shared.latest.lock();
                    match latest.get(key) {
                        Some(&newest) if newest != *seq => {
                            drop(latest);
                            counters.coalesced.fetch_add(1, Ordering::Relaxed);
                            let _ = job.reply.send(Err(DeciderError::Superseded));
                            continue;
                        }
                        _ => {
                            latest.remove(key);
                        }
                    }
                }
                let paragraphs = job.request.len() as u64;
                let result = contain_panic(|| flow.check(&job.request));
                counters.batches.fetch_add(1, Ordering::Relaxed);
                counters
                    .batch_paragraphs
                    .fetch_add(paragraphs, Ordering::Relaxed);
                counters.max_batch.fetch_max(paragraphs, Ordering::Relaxed);
                let reply = match result {
                    Ok(decisions) => {
                        counters.completed.fetch_add(1, Ordering::Relaxed);
                        Ok(TimedBatch {
                            decisions,
                            latency: job.submitted.elapsed(),
                        })
                    }
                    Err(e) => {
                        counters.failed.fetch_add(1, Ordering::Relaxed);
                        Err(DeciderError::Middleware(e))
                    }
                };
                let _ = job.reply.send(reply);
            }
            Request::EditCheck(job) => {
                if closing {
                    counters.failed.fetch_add(1, Ordering::Relaxed);
                    let _ = job.reply.send(Err(DeciderError::Closed));
                    continue;
                }
                let (key, seq) = &job.coalesce;
                let superseded = {
                    let mut latest = shared.latest.lock();
                    match latest.get(key) {
                        Some(&newest) if newest != *seq => true,
                        _ => {
                            latest.remove(key);
                            false
                        }
                    }
                };
                if superseded {
                    // The session must see every edit in order; only the
                    // verdict is skipped. An absorb error (stale session)
                    // resurfaces on the surviving newest edit.
                    let _ = contain_panic(|| {
                        flow.absorb_keystroke(&job.service, &job.document, job.index, &job.edit)
                    });
                    counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    let _ = job.reply.send(Err(DeciderError::Superseded));
                    continue;
                }
                counters.batches.fetch_add(1, Ordering::Relaxed);
                counters.batch_paragraphs.fetch_add(1, Ordering::Relaxed);
                counters.max_batch.fetch_max(1, Ordering::Relaxed);
                let reply = match contain_panic(|| {
                    flow.check_keystroke(&job.service, &job.document, job.index, &job.edit)
                }) {
                    Ok(decision) => {
                        counters.completed.fetch_add(1, Ordering::Relaxed);
                        Ok(TimedBatch {
                            decisions: vec![decision],
                            latency: job.submitted.elapsed(),
                        })
                    }
                    Err(e) => {
                        counters.failed.fetch_add(1, Ordering::Relaxed);
                        Err(DeciderError::Middleware(e))
                    }
                };
                let _ = job.reply.send(reply);
            }
            Request::Inspect(job) => {
                if closing {
                    // Dropping the closure drops its reply sender; the
                    // caller's recv resolves as Closed.
                    continue;
                }
                let _ = contain_panic(|| {
                    job(&flow);
                    Ok(())
                });
            }
        }
    }
    flow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::middleware::UploadAction;
    use browserflow_tdm::{Service, Tag, TagSet};

    fn flow() -> BrowserFlow {
        let ti = Tag::new("ti").unwrap();
        BrowserFlow::builder()
            .mode(crate::EnforcementMode::Block)
            .service(
                Service::new("itool", "Interview Tool")
                    .with_privilege(TagSet::from_iter([ti.clone()]))
                    .with_confidentiality(TagSet::from_iter([ti])),
            )
            .service(Service::new("gdocs", "Google Docs"))
            .build()
            .unwrap()
    }

    const SECRET: &str = "a long enough confidential paragraph about interview scoring \
                          criteria to produce a solid fingerprint for matching";

    #[test]
    fn async_observe_then_check() {
        let decider = AsyncDecider::spawn(flow());
        decider.observe("itool", "eval", 0, SECRET).unwrap();
        let timed = decider.check("gdocs", "draft", 0, SECRET).unwrap();
        assert_eq!(timed.decision.action, UploadAction::Block);
        assert!(timed.latency > Duration::ZERO);
        let flow = decider.shutdown().unwrap();
        assert_eq!(flow.warnings().len(), 1);
    }

    #[test]
    fn batch_request_is_one_round_trip() {
        let decider = AsyncDecider::spawn(flow());
        decider.observe("itool", "eval", 0, SECRET).unwrap();
        let texts = vec![SECRET, "harmless paragraph", SECRET];
        let batch = decider
            .check_request(CheckRequest::batch("gdocs", "draft", texts))
            .unwrap();
        assert_eq!(batch.decisions.len(), 3);
        assert_eq!(batch.decisions[0].action, UploadAction::Block);
        assert_eq!(batch.decisions[1].action, UploadAction::Allow);
        assert_eq!(batch.decisions[2].action, UploadAction::Block);
        let stats = decider.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batch_paragraphs, 3);
        assert_eq!(stats.max_batch, 3);
    }

    #[test]
    fn nonblocking_check_delivers_later() {
        let decider = AsyncDecider::spawn(flow());
        let response = decider
            .check_nonblocking("gdocs", "draft", 0, "public text")
            .unwrap();
        let timed = response.wait().unwrap();
        assert_eq!(timed.decision.action, UploadAction::Allow);
    }

    #[test]
    fn requests_are_processed_in_order() {
        let decider = AsyncDecider::spawn(flow());
        // Observe must complete before the dependent check even when both
        // are queued back to back.
        decider.observe("itool", "eval", 0, SECRET).unwrap();
        let pending: Vec<_> = (0..8)
            .map(|i| {
                decider
                    .check_nonblocking("gdocs", "draft", i, SECRET)
                    .unwrap()
            })
            .collect();
        for response in pending {
            assert_eq!(
                response.wait().unwrap().decision.action,
                UploadAction::Block
            );
        }
    }

    #[test]
    fn unknown_service_is_a_typed_error() {
        let decider = AsyncDecider::spawn(flow());
        let err = decider.check("nope", "draft", 0, "text").unwrap_err();
        assert!(matches!(err, DeciderError::Middleware(_)));
        let stats = decider.stats();
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn coalesced_keystrokes_supersede_older_checks() {
        let decider = AsyncDecider::spawn(flow());
        // Stall the worker so the keystrokes pile up behind it.
        let slow = "x ".repeat(100_000);
        let _stall = decider
            .submit(CheckRequest::paragraph("gdocs", "stall", 0, slow))
            .unwrap();
        let first = decider
            .submit_keystroke("gdocs", "draft", 0, "dra")
            .unwrap();
        let second = decider
            .submit_keystroke("gdocs", "draft", 0, "draf")
            .unwrap();
        let third = decider
            .submit_keystroke("gdocs", "draft", 0, "draft")
            .unwrap();
        assert_eq!(first.wait().unwrap_err(), DeciderError::Superseded);
        assert_eq!(second.wait().unwrap_err(), DeciderError::Superseded);
        let timed = third.wait().unwrap();
        assert_eq!(timed.decision.action, UploadAction::Allow);
        let stats = decider.stats();
        assert_eq!(stats.coalesced, 2);
        // The stall check and the surviving keystroke completed.
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn keystroke_edits_coalesce_but_are_all_absorbed() {
        let decider = AsyncDecider::spawn(flow());
        decider.observe("itool", "eval", 0, SECRET).unwrap();
        // Stall the worker so the edits pile up behind it.
        let slow = "x ".repeat(100_000);
        let _stall = decider
            .submit(CheckRequest::paragraph("gdocs", "stall", 0, slow))
            .unwrap();
        // The secret arrives as three consecutive splices; the first two
        // are superseded but their content must still count.
        let bytes: Vec<&str> = {
            let third = SECRET.len() / 3;
            let mut cuts = vec![third, 2 * third];
            cuts.retain(|&c| SECRET.is_char_boundary(c));
            vec![
                &SECRET[..cuts[0]],
                &SECRET[cuts[0]..cuts[1]],
                &SECRET[cuts[1]..],
            ]
        };
        let mut offset = 0;
        let mut pending = Vec::new();
        for piece in &bytes {
            pending.push(
                decider
                    .submit_keystroke_edit("gdocs", "draft", 0, TextEdit::insert(offset, *piece))
                    .unwrap(),
            );
            offset += piece.len();
        }
        let mut results: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();
        let last = results.pop().unwrap().unwrap();
        // Older edits coalesced away...
        for stale in results {
            assert_eq!(stale.unwrap_err(), DeciderError::Superseded);
        }
        // ...yet the surviving decision sees the whole typed secret.
        assert_eq!(last.decision.action, UploadAction::Block);
        let stats = decider.stats();
        assert_eq!(stats.coalesced, 2);
        // Session state on the returned middleware holds the full text.
        let flow = decider.shutdown().unwrap();
        assert!(flow
            .engine()
            .with_keystroke_text(&crate::DocKey::new("gdocs", "draft"), 0, |t| t == SECRET)
            .unwrap());
        let (_, incremental, absorbs) = flow.engine().fingerprint_mode();
        assert_eq!((incremental, absorbs), (1, 2));
    }

    #[test]
    fn queue_full_is_reported_and_recoverable() {
        let decider = AsyncDecider::spawn_with(
            flow(),
            DeciderConfig {
                queue_capacity: 1,
                check_timeout: None,
            },
        );
        // Stall the worker, then saturate the 1-slot queue.
        let slow = "y ".repeat(100_000);
        let _stall = decider
            .submit(CheckRequest::paragraph("gdocs", "stall", 0, slow))
            .unwrap();
        let mut accepted = Vec::new();
        let rejected = loop {
            match decider.try_submit(CheckRequest::paragraph("gdocs", "d", 0, "text")) {
                Ok(pending) => accepted.push(pending),
                Err(e) => break e,
            }
        };
        assert_eq!(rejected, TrySubmitError::QueueFull);
        assert!(decider.stats().rejected >= 1);
        // Accepted requests still resolve, and the queue recovers.
        for pending in accepted {
            pending.wait().unwrap();
        }
        decider
            .check_request(CheckRequest::paragraph("gdocs", "d", 1, "more text"))
            .unwrap();
    }

    #[test]
    fn check_timeout_reports_timeout() {
        let decider = AsyncDecider::spawn_with(
            flow(),
            DeciderConfig {
                queue_capacity: 8,
                check_timeout: Some(Duration::ZERO),
            },
        );
        let _stall = decider
            .submit(CheckRequest::paragraph(
                "gdocs",
                "stall",
                0,
                "z ".repeat(100_000),
            ))
            .unwrap();
        let err = decider.check("gdocs", "draft", 0, "text").unwrap_err();
        assert_eq!(err, DeciderError::Timeout);
        assert_eq!(decider.stats().timeouts, 1);
    }

    #[test]
    fn shutdown_drains_pending_checks() {
        let decider = AsyncDecider::spawn(flow());
        let pending: Vec<_> = (0..4)
            .map(|i| {
                decider
                    .submit(CheckRequest::paragraph("gdocs", "draft", i, "text"))
                    .unwrap()
            })
            .collect();
        decider.shutdown().unwrap();
        for receipt in pending {
            // Graceful shutdown computes queued checks before exiting.
            receipt.wait().unwrap();
        }
    }

    #[test]
    fn drop_fails_pending_checks_with_closed() {
        let decider = AsyncDecider::spawn(flow());
        let _stall = decider
            .submit(CheckRequest::paragraph(
                "gdocs",
                "stall",
                0,
                "w ".repeat(100_000),
            ))
            .unwrap();
        let pending: Vec<_> = (0..4)
            .map(|i| {
                decider
                    .submit(CheckRequest::paragraph("gdocs", "draft", i, "text"))
                    .unwrap()
            })
            .collect();
        drop(decider);
        for receipt in pending {
            // No hang, no panic: a typed Closed (or a served decision if
            // the worker got to it before the flag was set).
            match receipt.wait() {
                Ok(_) | Err(DeciderError::Closed) => {}
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
    }

    #[test]
    fn drop_without_shutdown_does_not_hang() {
        let decider = AsyncDecider::spawn(flow());
        drop(decider);
    }

    #[test]
    fn stats_track_queue_and_submissions() {
        let decider = AsyncDecider::spawn(flow());
        decider.check("gdocs", "draft", 0, "text").unwrap();
        let stats = decider.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.mean_batch(), 1.0);
    }

    #[test]
    fn worker_thread_survives_a_panicking_check() {
        use crate::engine::test_hooks;
        let _guard = test_hooks::lock();
        let decider = AsyncDecider::spawn(flow());
        decider.observe("itool", "eval", 0, SECRET).unwrap();

        test_hooks::set_panic_on_marker(true);
        let poisoned = format!("{SECRET} {}", test_hooks::FAULT_MARKER);
        let err = decider
            .check("gdocs", "draft", 0, &poisoned)
            .expect_err("poisoned check must fail, not hang or abort");
        assert!(matches!(
            err,
            DeciderError::Middleware(MiddlewareError::WorkerPanic(_))
        ));
        test_hooks::set_panic_on_marker(false);

        // The decider's worker thread caught the panic in place, so the
        // pipeline keeps serving: a follow-up check on the same decider
        // completes with a real decision.
        let timed = decider.check("gdocs", "draft", 1, SECRET).unwrap();
        assert_eq!(timed.decision.action, UploadAction::Block);
        let stats = decider.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
        // Graceful shutdown still hands the flow back.
        let flow = decider.shutdown().unwrap();
        assert!(!flow.warnings().is_empty());
    }
}
