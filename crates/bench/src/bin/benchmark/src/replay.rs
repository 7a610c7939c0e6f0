//! The traced run's per-layer accounting.
//!
//! Client-side numbers come from the live run: the traced half of the
//! requests split their round trip into encode, socket and decode, and
//! every decision reply carries `bfd`'s own queue-to-decision
//! `latency_us`. Everything else comes from replaying the exact frames
//! the live run sent, in send order, through each layer's public
//! functions on in-process replicas built from the same seed:
//!
//! - a [`TenantRegistry`] tenant: the path behind `bfd`'s socket
//!   (admission, decider queue, middleware); its verdicts must equal
//!   `bfd`'s;
//! - a [`BrowserFlow`] driven directly (the middleware layer); its
//!   verdicts must equal `bfd`'s too;
//! - a bare [`DisclosureEngine`] fed through the store's `observe_batch`,
//!   whose decision cache sees the same checks in the same order, plus
//!   side-effect-free calls into the fingerprinter, Algorithm 1 and the
//!   TDM policy, and a private [`LineageGraph`] for edge recording.
//!
//! Each replica tenant is also persisted and restored, which times the
//! state and tier layers.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use browserflow::tenancy::{Tenant, TenantConfig, TenantId, TenantRegistry};
use browserflow::{
    BrowserFlow, CheckRequest, DisclosureEngine, DocKey, FlowOperation, LineageGraph, PendingBatch,
    PendingDecision, SegmentKey, TimedBatch, UploadAction, UploadDecision,
};
use browserflow_daemon::protocol::{read_request, write_reply, write_request};
use browserflow_daemon::{ParagraphSlot, Reply, Request, WireDecision};
use browserflow_store::{StoreKey, StoreOpenOptions, TierMode};
use browserflow_tdm::ServiceId;

use crate::corpus::tenant_flow;
use crate::stats::{median, percentile_of};
use crate::workload::{Kind, Outcome, Plan, Run};

/// Spans are kept for the first requests only; the metrics use all.
const SPAN_REQUESTS: u64 = 2_000;

/// The on-disk names inside a persisted tenant directory
/// (`BrowserFlow::persist_tiered_to_dir`).
const PARAGRAPHS_DIR: &str = "paragraphs";
const DOCUMENTS_DIR: &str = "documents";
const METADATA_FILE: &str = "state.bfmeta";

/// One timed interval. Live spans count from the start of the measured
/// phase, replay spans (`replay.` names) from the start of the replay.
#[derive(serde::Serialize)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    fn push(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
    ) -> Option<usize> {
        if request >= SPAN_REQUESTS {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Ends a span pushed with a provisional end.
    fn close(&mut self, span: Option<usize>, end: Duration) {
        if let Some(span) = span {
            self.spans[span].end_ns = end.as_nanos() as u64;
        }
    }
}

/// Times `f` and records it as a replay span.
fn timed<T>(
    tracer: &mut Tracer,
    origin: Instant,
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    tracer.push(name, request, parent, start - origin, end - origin);
    (value, end - start)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One tenant's three replicas.
struct Replica {
    tenant: Arc<Tenant>,
    flow: BrowserFlow,
    engine: DisclosureEngine,
    lineage: LineageGraph,
}

/// Raw per-call samples, aggregated into metrics at the end.
#[derive(Default)]
struct Samples {
    /// Server-side protocol work per request kind.
    request_decode: Vec<(Kind, f64)>,
    reply_encode: Vec<(Kind, f64)>,
    admit: Vec<f64>,
    handoff: Vec<f64>,
    middleware_check: Vec<f64>,
    middleware_observe: Vec<f64>,
    middleware_self: Vec<f64>,
    engine_check: Vec<f64>,
    fingerprint_us: f64,
    fingerprinted: u64,
    hashes: u64,
    alg1: Vec<f64>,
    reports: u64,
    checked: u64,
    observe_batch: Vec<f64>,
    observe_locks: u64,
    tdm_us: f64,
    tdm_calls: u64,
    check_requests: u64,
    lineage_us: f64,
    lineage_calls: u64,
    load_s: f64,
    open_s: f64,
    persist_s: f64,
    metadata_bytes: u64,
}

fn observe_slots(request: &Request) -> Option<(ServiceId, &str, &[ParagraphSlot])> {
    match request {
        Request::ObserveBatch {
            service,
            document,
            paragraphs,
            ..
        } => Some((
            ServiceId::from(service.as_str()),
            document.as_str(),
            paragraphs,
        )),
        _ => None,
    }
}

fn tenant_of(request: &Request) -> &str {
    match request {
        Request::ObserveBatch { tenant, .. }
        | Request::Check { tenant, .. }
        | Request::Keystroke { tenant, .. } => tenant,
        _ => "",
    }
}

/// Feeds one `ObserveBatch` frame to the middleware and engine replicas,
/// timing the middleware call, each fingerprint and the store write.
fn observe_direct(
    flow: &BrowserFlow,
    engine: &DisclosureEngine,
    frame: &Request,
    s: &mut Samples,
) -> Result<(), String> {
    let (service, document, slots) = observe_slots(frame).ok_or("not an ObserveBatch")?;
    let pairs: Vec<(usize, &str)> = slots.iter().map(|p| (p.index, p.text.as_str())).collect();
    let start = Instant::now();
    flow.observe_paragraphs(&service, document, &pairs)
        .map_err(|e| e.to_string())?;
    s.middleware_observe.push(us(start.elapsed()));

    let doc = DocKey::new(service, document);
    let mut entries = Vec::with_capacity(pairs.len());
    for &(index, text) in &pairs {
        let id = engine.segment_id(&SegmentKey::paragraph(doc.clone(), index));
        let start = Instant::now();
        let print = engine.fingerprinter().fingerprint(text);
        s.fingerprint_us += us(start.elapsed());
        s.fingerprinted += 1;
        s.hashes += print.distinct_hashes().len() as u64;
        entries.push((id, print));
    }
    let batch: Vec<_> = entries
        .iter()
        .map(|(id, print)| (*id, print, engine.config().default_tpar))
        .collect();
    let store = engine.paragraph_store();
    let locks_before = store.stats().batch_lock_acquisitions;
    let start = Instant::now();
    store.observe_batch(&batch);
    s.observe_batch.push(us(start.elapsed()));
    s.observe_locks += store.stats().batch_lock_acquisitions - locks_before;
    Ok(())
}

fn observe_tenant(tenant: &Tenant, frame: &Request) -> Result<(), String> {
    let (service, document, slots) = observe_slots(frame).ok_or("not an ObserveBatch")?;
    let owned = slots.iter().map(|p| (p.index, p.text.clone())).collect();
    tenant
        .observe_batch(service, document.to_string(), owned)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Builds every tenant's replicas from the seed frames, timing persistence
/// and restore of the seeded state on the way.
fn build_replicas(
    plan: &Plan,
    registry: &TenantRegistry,
    state_root: &Path,
    s: &mut Samples,
) -> Result<Vec<Replica>, String> {
    let key = StoreKey::from_bytes([0u8; 32]);
    let mut replicas = Vec::with_capacity(plan.corpora.len());
    for corpus in &plan.corpora {
        let frames: Vec<&Request> = plan
            .seed_frames
            .iter()
            .filter(|f| tenant_of(f) == corpus.tenant)
            .collect();
        let mut flow = tenant_flow()?;
        let mut engine = DisclosureEngine::new(*flow.engine().config());
        for frame in &frames {
            observe_direct(&flow, &engine, frame, s)?;
        }

        let dir = state_root.join(format!("{}-seeded", corpus.tenant));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        flow.persist_tiered_to_dir(&dir)
            .map_err(|e| e.to_string())?;
        let start = Instant::now();
        let (restored, _) =
            BrowserFlow::load_from_dir(key.clone(), &dir).map_err(|e| e.to_string())?;
        s.load_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let cold = StoreOpenOptions::new().tier(TierMode::Cold);
        let (paragraphs, _) = cold
            .open(&dir.join(PARAGRAPHS_DIR))
            .map_err(|e| e.to_string())?;
        let (documents, _) = cold
            .open(&dir.join(DOCUMENTS_DIR))
            .map_err(|e| e.to_string())?;
        s.open_s += start.elapsed().as_secs_f64();

        let id = TenantId::new(corpus.tenant.as_str()).map_err(|e| e.to_string())?;
        let tenant = if plan.restart {
            // bfd serves a restored tenant from cold shards; so do the
            // replicas.
            engine = DisclosureEngine::from_parts(
                *restored.engine().config(),
                paragraphs,
                documents,
                restored.engine().key_map(),
            );
            flow = restored;
            let (for_tenant, _) =
                BrowserFlow::load_from_dir(key.clone(), &dir).map_err(|e| e.to_string())?;
            registry
                .create(id, for_tenant, TenantConfig::default())
                .map_err(|e| e.to_string())?
        } else {
            let tenant = registry
                .create(id, tenant_flow()?, TenantConfig::default())
                .map_err(|e| e.to_string())?;
            for frame in &frames {
                observe_tenant(&tenant, frame)?;
            }
            tenant
        };
        replicas.push(Replica {
            tenant,
            flow,
            engine,
            lineage: LineageGraph::new(),
        });
    }
    Ok(replicas)
}

/// A decision the tenancy replica admitted and has yet to deliver.
enum Pending {
    Check(PendingBatch),
    Keystroke(PendingDecision),
}

fn action_str(action: UploadAction) -> &'static str {
    match action {
        UploadAction::Allow => "allow",
        UploadAction::Warn => "warn",
        UploadAction::Block => "block",
        UploadAction::Encrypt => "encrypt",
    }
}

/// Whether an in-process decision list says exactly what `bfd` said:
/// same actions and the same violating sources, paragraph by paragraph.
fn same_verdicts(wire: &[WireDecision], local: &[UploadDecision]) -> bool {
    wire.len() == local.len()
        && wire.iter().zip(local).all(|(w, l)| {
            let mut a: Vec<&str> = w.violations.iter().map(|v| v.source.as_str()).collect();
            let mut b: Vec<String> = l.violations.iter().map(|v| v.source.to_string()).collect();
            a.sort_unstable();
            b.sort_unstable();
            w.action == action_str(l.action) && a.iter().copied().eq(b.iter().map(String::as_str))
        })
}

/// Replays one check-like request (a `Keystroke` or a `Check`).
fn replay_check(
    replica: &Replica,
    request: &Request,
    wire: &[WireDecision],
    (rid, root): (u64, Option<usize>),
    origin: Instant,
    tracer: &mut Tracer,
    s: &mut Samples,
) -> Result<(), String> {
    let (service, document, slots): (&str, &str, Vec<(usize, &str)>) = match request {
        Request::Keystroke {
            service,
            document,
            index,
            text,
            ..
        } => (service, document, vec![(*index, text.as_str())]),
        Request::Check {
            service,
            document,
            paragraphs,
            ..
        } => (
            service,
            document,
            paragraphs
                .iter()
                .map(|p| (p.index, p.text.as_str()))
                .collect(),
        ),
        _ => return Err("not a check".to_string()),
    };
    let mut check = CheckRequest::new(service, document);
    for &(index, text) in &slots {
        check = check.with_paragraph(index, text);
    }

    // Tenancy: admission, then the decider queue and middleware behind it.
    let tenant = &replica.tenant;
    let (admitted, admit) =
        timed(
            tracer,
            origin,
            "replay.tenancy.admit",
            rid,
            root,
            || match request {
                Request::Keystroke { index, text, .. } => tenant
                    .try_keystroke(service, document, *index, text.as_str())
                    .map(|(pending, permit)| (Pending::Keystroke(pending), permit)),
                _ => tenant
                    .try_check(check.clone())
                    .map(|(pending, permit)| (Pending::Check(pending), permit)),
            },
        );
    let (pending, permit) = admitted.map_err(|e| format!("replica refused admission: {e}"))?;
    let (waited, _) = timed(
        tracer,
        origin,
        "replay.asynchronous.wait",
        rid,
        root,
        || match pending {
            Pending::Check(batch) => batch.wait(),
            Pending::Keystroke(one) => one.wait().map(|t| TimedBatch {
                decisions: vec![t.decision],
                latency: t.latency,
            }),
        },
    );
    drop(permit);
    let batch = waited.map_err(|e| format!("replica decider failed: {e}"))?;
    if !same_verdicts(wire, &batch.decisions) {
        return Err(format!("tenancy replica disagrees with bfd on {document}"));
    }

    // Middleware.
    let (decided, middleware) = timed(tracer, origin, "replay.middleware.check", rid, root, || {
        replica.flow.check(&check)
    });
    let decisions = decided.map_err(|e| e.to_string())?;
    if !same_verdicts(wire, &decisions) {
        return Err(format!(
            "middleware replica disagrees with bfd on {document}"
        ));
    }
    s.admit.push(us(admit));
    s.middleware_check.push(us(middleware));
    s.handoff.push(us(batch.latency) - us(middleware));
    s.check_requests += 1;

    // Engine, then its parts one call at a time.
    let engine = &replica.engine;
    let doc = DocKey::new(service, document);
    let (_, engine_time) = timed(tracer, origin, "replay.engine.check", rid, root, || {
        engine.check_paragraphs_at(&doc, &slots, check.workers())
    });
    s.engine_check.push(us(engine_time));
    let destination = ServiceId::from(service);
    let mut alg1 = Duration::ZERO;
    let mut tdm = Duration::ZERO;
    let mut lineage = Duration::ZERO;
    for &(index, text) in &slots {
        let (print, fp) = timed(tracer, origin, "replay.fingerprint", rid, root, || {
            engine.fingerprinter().fingerprint(text)
        });
        s.fingerprint_us += us(fp);
        s.fingerprinted += 1;
        s.hashes += print.distinct_hashes().len() as u64;
        let into = SegmentKey::paragraph(doc.clone(), index);
        let id = engine.segment_id(&into);
        let (reports, a) = timed(tracer, origin, "replay.store.alg1", rid, root, || {
            engine
                .paragraph_store()
                .disclosing_sources_of_sorted(id, print.distinct_hashes())
        });
        alg1 += a;
        s.checked += 1;
        s.reports += reports.len() as u64;
        let mut edges = Vec::new();
        for report in &reports {
            let Some(source) = engine.segment_key(report.source) else {
                continue;
            };
            if let Some(label) = replica.flow.segment_label(&source) {
                let (_, t) = timed(
                    tracer,
                    origin,
                    "replay.tdm.check_release",
                    rid,
                    root,
                    || replica.flow.policy().check_release(&label, &destination),
                );
                tdm += t;
                s.tdm_calls += 1;
            }
            if source.doc.service != destination {
                edges.push((
                    source.doc.service.as_str().to_string(),
                    service.to_string(),
                    source.to_string(),
                    into.to_string(),
                    FlowOperation::Check,
                ));
            }
        }
        if !edges.is_empty() {
            let (_, t) = timed(
                tracer,
                origin,
                "replay.lineage.record_batch",
                rid,
                root,
                || replica.lineage.record_batch(edges),
            );
            lineage += t;
            s.lineage_calls += 1;
        }
    }
    s.alg1.push(us(alg1));
    s.tdm_us += us(tdm);
    s.lineage_us += us(lineage);
    s.middleware_self
        .push(us(middleware) - us(engine_time) - us(tdm) - us(lineage));
    Ok(())
}

/// The traced run's layer metrics, checked against `bfd`'s verdicts.
/// Writes the spans to `trace-<workload>.json` under `out`.
pub fn layers(plan: &Plan, run: &Run, out: &Path) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut tracer = Tracer::default();
    let mut s = Samples::default();
    let state_root = out.join(format!("replica-{}-{}", plan.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&state_root);
    let registry = TenantRegistry::new();
    let result = (|| {
        let replicas = build_replicas(plan, &registry, &state_root, &mut s)?;
        let index: BTreeMap<&str, usize> = plan
            .corpora
            .iter()
            .enumerate()
            .map(|(i, c)| (c.tenant.as_str(), i))
            .collect();

        let origin = Instant::now();
        for (rid, exchange) in run.exchanges.iter().enumerate() {
            let rid = rid as u64;
            if exchange.outcome != Outcome::Ok {
                continue;
            }
            let request = &plan.conns[exchange.conn][exchange.item].request;
            let reply = exchange
                .reply
                .as_ref()
                .ok_or("a traced run keeps every reply")?;
            let replica = &replicas[index[tenant_of(request)]];
            let begin = origin.elapsed();
            let root = tracer.push("replay.request", rid, None, begin, begin);
            let mut frame = Vec::new();
            write_request(&mut frame, request).map_err(|e| e.to_string())?;
            let (decoded, t) = timed(
                &mut tracer,
                origin,
                "replay.protocol.request_decode",
                rid,
                root,
                || read_request(&mut frame.as_slice()),
            );
            decoded.map_err(|e| e.to_string())?;
            s.request_decode.push((exchange.kind, us(t)));
            let mut sink = Vec::new();
            let (_, t) = timed(
                &mut tracer,
                origin,
                "replay.protocol.reply_encode",
                rid,
                root,
                || write_reply(&mut sink, reply),
            );
            s.reply_encode.push((exchange.kind, us(t)));
            match (request, reply) {
                (Request::ObserveBatch { .. }, _) => {
                    observe_tenant(&replica.tenant, request)?;
                    observe_direct(&replica.flow, &replica.engine, request, &mut s)?;
                }
                (_, Reply::Decisions { decisions, .. }) => {
                    replay_check(
                        replica,
                        request,
                        decisions,
                        (rid, root),
                        origin,
                        &mut tracer,
                        &mut s,
                    )?;
                }
                (_, other) => return Err(format!("cannot replay a {other:?} reply")),
            }
            tracer.close(root, origin.elapsed());
        }

        let mut metrics = BTreeMap::new();
        let mut hits = 0;
        let mut lookups = 0;
        let mut hashes = 0;
        let mut edges = 0;
        for (replica, corpus) in replicas.iter().zip(&plan.corpora) {
            let (h, m) = replica.engine.cache_stats();
            hits += h;
            lookups += h + m;
            hashes += replica.engine.paragraph_store().hash_count();
            edges += replica.flow.lineage().len();
            let dir = state_root.join(format!("{}-final", corpus.tenant));
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let start = Instant::now();
            replica
                .flow
                .persist_tiered_to_dir(&dir)
                .map_err(|e| e.to_string())?;
            s.persist_s += start.elapsed().as_secs_f64();
            s.metadata_bytes += std::fs::metadata(dir.join(METADATA_FILE))
                .map_err(|e| e.to_string())?
                .len();
        }
        metrics.insert(
            "engine.cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
        );
        metrics.insert("store.hashes", hashes as f64);
        metrics.insert("lineage.edges", edges as f64);
        aggregate(plan, &s, &mut metrics)?;
        Ok(metrics)
    })();
    registry.drain_all(None);
    let _ = std::fs::remove_dir_all(&state_root);
    let mut metrics = result?;
    live_metrics(plan, run, &s, &mut tracer, &mut metrics)?;
    write_spans(
        &tracer,
        &out.join(format!("trace-{}.json", plan.name)),
        plan.name,
    )?;
    Ok(metrics)
}

fn median_of(values: &[f64], what: &str) -> Result<f64, String> {
    if values.is_empty() {
        Err(format!("the traced run measured no {what}"))
    } else {
        Ok(median(values))
    }
}

/// The samples of one request kind.
fn of_kind(samples: &[(Kind, f64)], kind: Kind) -> Vec<f64> {
    samples
        .iter()
        .filter(|(k, _)| *k == kind)
        .map(|(_, v)| *v)
        .collect()
}

fn aggregate(plan: &Plan, s: &Samples, m: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let kind = plan.throughput_kind;
    m.insert(
        "protocol.request_decode_us",
        median_of(&of_kind(&s.request_decode, kind), "request decode")?,
    );
    m.insert(
        "protocol.reply_encode_us",
        median_of(&of_kind(&s.reply_encode, kind), "reply encode")?,
    );
    m.insert("tenancy.admit_us", median_of(&s.admit, "admission")?);
    m.insert(
        "asynchronous.handoff_us",
        median_of(&s.handoff, "hand-off")?,
    );
    m.insert(
        "middleware.check_us",
        median_of(&s.middleware_check, "middleware check")?,
    );
    m.insert(
        "middleware.observe_us",
        median_of(&s.middleware_observe, "middleware observe")?,
    );
    m.insert(
        "middleware.self_us",
        median_of(&s.middleware_self, "middleware self time")?,
    );
    m.insert(
        "engine.check_us",
        median_of(&s.engine_check, "engine check")?,
    );
    m.insert(
        "fingerprint.us_per_paragraph",
        s.fingerprint_us / s.fingerprinted.max(1) as f64,
    );
    m.insert(
        "fingerprint.hashes_per_paragraph",
        s.hashes as f64 / s.fingerprinted.max(1) as f64,
    );
    m.insert("store.alg1_us", median_of(&s.alg1, "Algorithm 1")?);
    m.insert(
        "store.reports_per_paragraph",
        s.reports as f64 / s.checked.max(1) as f64,
    );
    m.insert(
        "store.observe_batch_us",
        median_of(&s.observe_batch, "observe_batch")?,
    );
    m.insert(
        "store.locks_per_batch",
        s.observe_locks as f64 / s.observe_batch.len().max(1) as f64,
    );
    m.insert("tdm.check_release_us", s.tdm_us / s.tdm_calls.max(1) as f64);
    m.insert(
        "tdm.checks_per_request",
        s.tdm_calls as f64 / s.check_requests.max(1) as f64,
    );
    m.insert(
        "lineage.record_us",
        s.lineage_us / s.lineage_calls.max(1) as f64,
    );
    m.insert("state.load_s", s.load_s);
    m.insert("state.metadata_s", s.load_s - s.open_s);
    m.insert("state.persist_s", s.persist_s);
    m.insert("state.metadata_bytes", s.metadata_bytes as f64);
    m.insert("tier.open_s", s.open_s);
    Ok(())
}

/// Metrics from the live half of the traced run, plus the printed
/// tracing overhead and the layer sum of the latency metric's requests.
fn live_metrics(
    plan: &Plan,
    run: &Run,
    s: &Samples,
    tracer: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut request_bytes = Vec::new();
    let mut reply_bytes = Vec::new();
    let mut transport = Vec::new();
    let mut decider = Vec::new();
    let mut late = Vec::new();
    let mut traced_latency = Vec::new();
    let mut plain_latency = Vec::new();
    let mut path = [const { Vec::new() }; 4];
    for (rid, e) in run.exchanges.iter().enumerate() {
        late.push(us(e.late()));
        if let Some(t) = &e.timing {
            let rid = rid as u64;
            let root = tracer.push("client.request", rid, None, e.due, e.done);
            let encoded = e.sent + t.encode;
            let received = encoded + t.socket;
            tracer.push("protocol.request_encode", rid, root, e.sent, encoded);
            tracer.push("socket.round_trip", rid, root, encoded, received);
            tracer.push(
                "protocol.reply_decode",
                rid,
                root,
                received,
                received + t.decode,
            );
            if e.kind == plan.throughput_kind {
                encode.push(us(t.encode));
                decode.push(us(t.decode));
                request_bytes.push(t.request_bytes as f64);
                reply_bytes.push(t.reply_bytes as f64);
            }
        }
        if e.kind != plan.latency_kind {
            continue;
        }
        if let Some(server) = e.server_us {
            transport.push(us(e.done - e.sent) - server as f64);
            decider.push(server as f64);
            if let Some(t) = &e.timing {
                path[0].push(us(e.late()));
                path[1].push(us(t.encode));
                path[2].push(server as f64);
                path[3].push(us(t.decode));
            }
        }
        if e.timing.is_some() {
            traced_latency.push(us(e.latency()));
        } else {
            plain_latency.push(us(e.latency()));
        }
    }
    m.insert(
        "protocol.request_encode_us",
        median_of(&encode, "request encode")?,
    );
    m.insert(
        "protocol.reply_decode_us",
        median_of(&decode, "reply decode")?,
    );
    m.insert(
        "protocol.request_bytes",
        median_of(&request_bytes, "request bytes")?,
    );
    m.insert(
        "protocol.reply_bytes",
        median_of(&reply_bytes, "reply bytes")?,
    );
    m.insert(
        "server.transport_p50_us",
        median_of(&transport, "transport")?,
    );
    m.insert("server.transport_p99_us", percentile_of(&transport, 99.0));
    m.insert(
        "asynchronous.decider_p50_us",
        median_of(&decider, "decider latency")?,
    );
    let batches: u64 = run.stats.iter().map(|s| s.batches).sum();
    let paragraphs: u64 = run.stats.iter().map(|s| s.batch_paragraphs).sum();
    m.insert(
        "asynchronous.mean_batch",
        paragraphs as f64 / batches.max(1) as f64,
    );
    m.insert("loadgen.late_p50_us", median_of(&late, "send lateness")?);
    m.insert("loadgen.late_p99_us", percentile_of(&late, 99.0));

    let traced = median_of(&traced_latency, "traced latency")?;
    let plain = median_of(&plain_latency, "untraced latency")?;
    println!(
        "{}: tracing overhead {:+.1} us on the request p50 (traced {traced:.1} us, untraced {plain:.1} us)",
        plan.name,
        traced - plain
    );
    let parts = path
        .iter()
        .map(|p| median_of(p, "traced decisions"))
        .collect::<Result<Vec<f64>, String>>()?;
    // Medians of separate distributions: the remainder is the socket
    // and thread hand-offs no span covers, plus the skew between them.
    let kind = plan.latency_kind;
    let decode = median_of(&of_kind(&s.request_decode, kind), "request decode")?;
    let reply_encode = median_of(&of_kind(&s.reply_encode, kind), "reply encode")?;
    let admit = m["tenancy.admit_us"];
    let attributed = parts[0] + parts[1] + decode + admit + parts[2] + reply_encode + parts[3];
    println!(
        "{}: request p50 {traced:.1} us = late {:.1} + encode {:.1} + request decode {decode:.1} \
         + admission {admit:.1} + decider {:.1} + reply encode {reply_encode:.1} + decode {:.1} \
         + unattributed {:.1}",
        plan.name,
        parts[0],
        parts[1],
        parts[2],
        parts[3],
        traced - attributed
    );
    Ok(())
}

fn write_spans(tracer: &Tracer, path: &Path, workload: &str) -> Result<(), String> {
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let write = |w: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
        writeln!(w, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (i, span) in tracer.spans.iter().enumerate() {
            let line = serde_json::to_string(span).expect("spans serialise");
            let comma = if i + 1 < tracer.spans.len() { "," } else { "" };
            writeln!(w, "{line}{comma}")?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    };
    write(&mut w).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
