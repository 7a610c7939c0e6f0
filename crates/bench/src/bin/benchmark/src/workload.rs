//! The four workloads: what each sends, how it is set up, the measured
//! phase against a live `bfd`, and the end-to-end metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use browserflow::PipelineStats;
use browserflow_daemon::{Reply, Request};

use crate::bfd::{tighten_timer_slack, wait_until, Bfd, Conn, Timing};
use crate::config::{ClosedChecks, IngestMixed, Params, Typing};
use crate::corpus::{ingest_frame, policy_json, Rng, TenantCorpus, TextGen, Typist, Verdict};
use crate::stats::{median, percentile_of};

/// What a reply must be.
#[derive(Debug, Clone)]
pub enum Expect {
    /// One decision per paragraph, with these actions.
    Verdicts(Vec<Verdict>),
    /// `Observed`.
    Observed,
}

/// One request of the measured phase.
pub struct Item {
    /// Open loop: when to send, from the start of the phase. Closed loop:
    /// `None`, send as soon as the previous reply arrived.
    pub due: Option<Duration>,
    pub request: Request,
    pub expect: Expect,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Keystroke,
    Check,
    Observe,
}

pub fn kind_of(request: &Request) -> Kind {
    match request {
        Request::Keystroke { .. } => Kind::Keystroke,
        Request::ObserveBatch { .. } => Kind::Observe,
        _ => Kind::Check,
    }
}

pub fn paragraphs_of(request: &Request) -> usize {
    match request {
        Request::Check { paragraphs, .. } | Request::ObserveBatch { paragraphs, .. } => {
            paragraphs.len()
        }
        _ => 1,
    }
}

/// Everything a workload sends, generated up front from the seed.
pub struct Plan {
    pub name: &'static str,
    pub corpora: Vec<TenantCorpus>,
    pub seed_frames: Vec<Request>,
    /// One document per set-up, checked right after it.
    pub first_checks: Vec<(Request, Expect)>,
    /// One item list per client connection.
    pub conns: Vec<Vec<Item>>,
    /// The request kind behind `request_p50_us` and `request_p95_us`.
    pub latency_kind: Kind,
    /// The request kind behind `paragraphs_per_s`.
    pub throughput_kind: Kind,
    /// Set-ups restore a drained tenant instead of seeding a new one.
    pub restart: bool,
}

impl Plan {
    pub fn build(name: &str, params: &Params, seed: u64, seconds: f64, text: &TextGen) -> Self {
        let corpora_of = |shape: &crate::corpus::CorpusShape| -> Vec<TenantCorpus> {
            (0..shape.tenants)
                .map(|t| TenantCorpus::generate(text, seed, t, shape))
                .collect()
        };
        let (name, corpora, conns, latency_kind, throughput_kind, restart) = match name {
            "keystroke-open" => {
                let w = &params.keystroke_open;
                let corpora = corpora_of(&w.corpus);
                let conns =
                    typing_conns(&corpora, text, seed, params.connections, &w.typing, seconds);
                (
                    "keystroke-open",
                    corpora,
                    conns,
                    Kind::Keystroke,
                    Kind::Keystroke,
                    false,
                )
            }
            "recheck-closed" => {
                let w = &params.recheck_closed;
                let corpora = corpora_of(&w.corpus);
                let conns = check_conns(&corpora[0], text, seed, params.connections, w);
                (
                    "recheck-closed",
                    corpora,
                    conns,
                    Kind::Check,
                    Kind::Check,
                    false,
                )
            }
            "ingest-mixed" => {
                let w = &params.ingest_mixed;
                let corpora = corpora_of(&w.corpus);
                let writer = ingest_items(&corpora[0], text, seed, w, seconds);
                let reader = typing_conns(&corpora, text, seed, 1, &w.typing, seconds)
                    .pop()
                    .expect("one reader connection");
                let conns = vec![writer, reader];
                (
                    "ingest-mixed",
                    corpora,
                    conns,
                    Kind::Keystroke,
                    Kind::Observe,
                    false,
                )
            }
            "restart-tiered" => {
                let w = &params.restart_tiered;
                let corpora = corpora_of(&w.corpus);
                let conns = check_conns(&corpora[0], text, seed, params.connections, w);
                (
                    "restart-tiered",
                    corpora,
                    conns,
                    Kind::Check,
                    Kind::Check,
                    true,
                )
            }
            other => panic!("unknown workload {other:?}"),
        };
        let seed_frames = corpora
            .iter()
            .flat_map(|c| c.seed_frames(params.seed_frame_paragraphs))
            .collect();
        let first_checks = (0..params.setup_repeats.max(1))
            .map(|setup| {
                let mut rng = Rng::fork(seed, 0xF125_7000 + setup as u64);
                let (request, verdicts) = corpora[0].check_document(
                    text,
                    &mut rng,
                    format!("first-check-{setup}"),
                    &params.first_check,
                );
                (request, Expect::Verdicts(verdicts))
            })
            .collect();
        Self {
            name,
            corpora,
            seed_frames,
            first_checks,
            conns,
            latency_kind,
            throughput_kind,
            restart,
        }
    }
}

/// Open-loop typing: Poisson arrivals at `rate_per_s` split evenly over
/// `conns` connections, each with its own sessions.
fn typing_conns(
    corpora: &[TenantCorpus],
    text: &TextGen,
    seed: u64,
    conns: usize,
    typing: &Typing,
    seconds: f64,
) -> Vec<Vec<Item>> {
    let mean_gap = Duration::from_secs_f64(conns as f64 / typing.rate_per_s);
    let horizon = Duration::from_secs_f64(seconds);
    (0..conns)
        .map(|c| {
            let mut rng = Rng::fork(seed, 0x5E55_0000 + c as u64);
            let mut typist = Typist::new(
                corpora,
                text,
                Rng::fork(seed, 0x7195_0000 + c as u64),
                format!("k{c}"),
                typing.leaky_share,
                (typing.min_chars, typing.max_chars),
            );
            let mut items = Vec::new();
            let mut due = rng.exp_gap(mean_gap);
            while due < horizon {
                let (request, verdict) = typist.keystroke();
                items.push(Item {
                    due: Some(due),
                    request,
                    expect: Expect::Verdicts(vec![verdict]),
                });
                due += rng.exp_gap(mean_gap);
            }
            items
        })
        .collect()
}

/// Closed-loop document checks: `requests` fresh documents split evenly
/// over `conns` connections.
fn check_conns(
    corpus: &TenantCorpus,
    text: &TextGen,
    seed: u64,
    conns: usize,
    w: &ClosedChecks,
) -> Vec<Vec<Item>> {
    (0..conns)
        .map(|c| {
            let mut rng = Rng::fork(seed, 0xC4EC_0000 + c as u64);
            (0..w.requests.div_ceil(conns))
                .map(|i| {
                    let (request, verdicts) =
                        corpus.check_document(text, &mut rng, format!("r{c}-{i}"), &w.document);
                    Item {
                        due: None,
                        request,
                        expect: Expect::Verdicts(verdicts),
                    }
                })
                .collect()
        })
        .collect()
}

/// Open-loop bulk ingest: Poisson arrivals at `frames_per_s`, a share of
/// whose frames repeat an earlier one.
fn ingest_items(
    corpus: &TenantCorpus,
    text: &TextGen,
    seed: u64,
    w: &IngestMixed,
    seconds: f64,
) -> Vec<Item> {
    let mut rng = Rng::fork(seed, 0x1A6E_0000);
    let mean_gap = Duration::from_secs_f64(1.0 / w.frames_per_s);
    let horizon = Duration::from_secs_f64(seconds);
    let mut items: Vec<Item> = Vec::new();
    let mut due = rng.exp_gap(mean_gap);
    while due < horizon {
        let i = items.len();
        let request = if i > 0 && rng.unit() < w.reobserve_share {
            items[rng.below(i)].request.clone()
        } else {
            ingest_frame(
                text,
                &mut rng,
                &corpus.tenant,
                format!("ingest-{i}"),
                w.frame_paragraphs,
            )
        };
        items.push(Item {
            due: Some(due),
            request,
            expect: Expect::Observed,
        });
        due += rng.exp_gap(mean_gap);
    }
    items
}

/// How one measured request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The reply was the expected one.
    Ok,
    /// A newer keystroke for the same slot replaced it (coalescing).
    Superseded,
    Backpressure,
    Error(String),
    Transport(String),
    /// A wrong verdict or an unexpected reply.
    Wrong(String),
}

/// One measured request/reply, with times relative to the phase start.
pub struct Exchange {
    pub conn: usize,
    pub item: usize,
    pub kind: Kind,
    pub paragraphs: usize,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub open_loop: bool,
    /// The reply's `latency_us`: queue-to-decision time inside `bfd`.
    pub server_us: Option<u64>,
    /// Client-side split, on the traced half of a traced run.
    pub timing: Option<Timing>,
    /// The reply itself, kept in traced runs for the replay.
    pub reply: Option<Reply>,
    pub outcome: Outcome,
}

impl Exchange {
    /// Open loop: from when the request was due; closed loop: from when
    /// it was sent.
    pub fn latency(&self) -> Duration {
        self.done - if self.open_loop { self.due } else { self.sent }
    }

    /// How late the sender ran: after the schedule (open loop) or after
    /// the previous reply (closed loop).
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

pub fn check_reply(reply: &Reply, expect: &Expect) -> Outcome {
    match (reply, expect) {
        (Reply::Decisions { decisions, .. }, Expect::Verdicts(verdicts)) => {
            if decisions.len() != verdicts.len() {
                return Outcome::Wrong(format!(
                    "{} decisions for {} paragraphs",
                    decisions.len(),
                    verdicts.len()
                ));
            }
            match decisions
                .iter()
                .zip(verdicts)
                .position(|(d, v)| d.action != v.action())
            {
                None => Outcome::Ok,
                Some(i) => Outcome::Wrong(format!(
                    "paragraph {i}: expected {}, got {}",
                    verdicts[i].action(),
                    decisions[i].action
                )),
            }
        }
        (Reply::Observed, Expect::Observed) => Outcome::Ok,
        (Reply::Superseded, Expect::Verdicts(v)) if v.len() == 1 => Outcome::Superseded,
        (Reply::Backpressure { .. }, _) => Outcome::Backpressure,
        (Reply::Error { message }, _) => Outcome::Error(message.clone()),
        (other, _) => Outcome::Wrong(format!("unexpected reply {other:?}")),
    }
}

/// Where a run keeps its daemon's socket, state and log.
pub struct Paths {
    pub socket: PathBuf,
    pub state: PathBuf,
    pub log: PathBuf,
}

impl Paths {
    pub fn new(out: &Path, workload: &str) -> Self {
        let id = format!("{workload}-{}", std::process::id());
        Self {
            socket: out.join(format!("{id}.sock")),
            state: out.join(format!("state-{id}")),
            log: out.join(format!("bfd-{workload}.log")),
        }
    }
}

/// A live run's raw results.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub exchanges: Vec<Exchange>,
    pub stats: Vec<PipelineStats>,
    pub peak_rss_mb: f64,
}

impl Run {
    pub fn attempted(&self) -> u64 {
        self.exchanges.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.exchanges
            .iter()
            .filter(|e| {
                matches!(
                    e.outcome,
                    Outcome::Backpressure | Outcome::Error(_) | Outcome::Transport(_)
                )
            })
            .count() as u64
    }

    /// The first wrong verdict or unexpected reply, if any.
    pub fn first_wrong(&self) -> Option<String> {
        self.exchanges.iter().find_map(|e| match &e.outcome {
            Outcome::Wrong(why) => Some(format!("connection {} item {}: {why}", e.conn, e.item)),
            _ => None,
        })
    }

    /// Every end-to-end metric, by name. Latency and throughput are
    /// medians over `rounds` equal slices of the measured phase, so a few
    /// seconds of a slowed host do not move them.
    pub fn end_to_end(&self, plan: &Plan, rounds: usize) -> BTreeMap<&'static str, f64> {
        let of_kind = |kind: Kind| -> Vec<Vec<&Exchange>> {
            split_rounds(self.exchanges.iter().filter(|e| e.kind == kind), rounds)
        };
        let latency = of_kind(plan.latency_kind);
        let tail = |p: f64| {
            median(
                &latency
                    .iter()
                    .map(|round| percentile_of(&latencies(round), p))
                    .collect::<Vec<_>>(),
            )
        };
        let throughput: Vec<f64> = of_kind(plan.throughput_kind)
            .iter()
            .map(|round| {
                let moved: usize = round
                    .iter()
                    .filter(|e| e.outcome == Outcome::Ok)
                    .map(|e| e.paragraphs)
                    .sum();
                let begin = round.iter().map(|e| e.sent).min().unwrap_or_default();
                let end = round.iter().map(|e| e.done).max().unwrap_or_default();
                moved as f64 / (end - begin).as_secs_f64().max(1e-9)
            })
            .collect();
        BTreeMap::from([
            ("setup_s", median(&self.setup_s)),
            ("request_p50_us", tail(50.0)),
            ("request_p95_us", tail(95.0)),
            ("paragraphs_per_s", median(&throughput)),
            ("peak_rss_mb", self.peak_rss_mb),
        ])
    }
}

fn latencies(exchanges: &[&Exchange]) -> Vec<f64> {
    exchanges
        .iter()
        .map(|e| e.latency().as_secs_f64() * 1e6)
        .collect()
}

/// Splits exchanges (in send order) into `rounds` runs of consecutive
/// requests of equal count.
fn split_rounds<'a>(
    exchanges: impl Iterator<Item = &'a Exchange>,
    rounds: usize,
) -> Vec<Vec<&'a Exchange>> {
    let all: Vec<&Exchange> = exchanges.collect();
    let per_round = all.len().div_ceil(rounds.max(1)).max(1);
    all.chunks(per_round).map(<[&Exchange]>::to_vec).collect()
}

/// Runs `plan` against live `bfd` processes: the set-ups, then the
/// measured phase on the last one and its drain.
pub fn run(plan: &Plan, seconds: f64, traced: bool, bin: &Path, out: &Path) -> Result<Run, String> {
    let paths = Paths::new(out, plan.name);
    let _ = std::fs::remove_dir_all(&paths.state);
    let repeats = if traced { 1 } else { plan.first_checks.len() };
    if plan.restart {
        make_fixture(plan, bin, &paths)?;
    }
    let mut setup_s = Vec::new();
    let mut live: Option<(Bfd, Conn)> = None;
    for (setup, (request, expect)) in plan.first_checks.iter().take(repeats).enumerate() {
        // Only the last set-up serves the workload. Earlier daemons are
        // killed before the next starts, which leaves a restart fixture
        // untouched.
        drop(live.take());
        if !plan.restart {
            let _ = std::fs::remove_dir_all(&paths.state);
        }
        // Set-up ends when the first check is answered, so restore work
        // moved into the first request still counts.
        let started = Instant::now();
        let mut bfd = Bfd::spawn(bin, &paths.socket, &paths.state, &paths.log)?;
        let mut admin = bfd.ready()?;
        if !plan.restart {
            seed_tenants(plan, &mut admin)?;
        }
        let reply = admin.call(request)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Outcome::Wrong(why) = check_reply(&reply, expect) {
            return Err(format!("first check after set-up {setup}: {why}"));
        }
        live = Some((bfd, admin));
    }
    let (bfd, mut admin) = live.expect("at least one set-up");
    let exchanges = measure(plan, &bfd, seconds, traced)?;
    let stats = plan
        .corpora
        .iter()
        .map(|c| {
            match admin.call(&Request::Stats {
                tenant: c.tenant.clone(),
            })? {
                Reply::Stats { pipeline, .. } => Ok(pipeline),
                other => Err(format!("stats answered with {other:?}")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    let peak_rss_mb = bfd.peak_rss_mb()?;
    bfd.drain(&mut admin, plan.corpora.len())?;
    let _ = std::fs::remove_dir_all(&paths.state);
    Ok(Run {
        setup_s,
        exchanges,
        stats,
        peak_rss_mb,
    })
}

fn seed_tenants(plan: &Plan, admin: &mut Conn) -> Result<(), String> {
    let policy_json = policy_json();
    for corpus in &plan.corpora {
        let reply = admin.call(&Request::TenantCreate {
            tenant: corpus.tenant.clone(),
            mode: "block".to_string(),
            policy_json: policy_json.clone(),
            max_in_flight: 0,
            queue_capacity: 0,
        })?;
        if !matches!(reply, Reply::TenantCreated { .. }) {
            return Err(format!("tenant create answered with {reply:?}"));
        }
    }
    for frame in &plan.seed_frames {
        let reply = admin.call(frame)?;
        if reply != Reply::Observed {
            return Err(format!("seeding answered with {reply:?}"));
        }
    }
    Ok(())
}

/// Seeds the tenants into a daemon with tiered persistence and drains
/// it, leaving the state directory the restarts restore.
fn make_fixture(plan: &Plan, bin: &Path, paths: &Paths) -> Result<(), String> {
    let mut bfd = Bfd::spawn(bin, &paths.socket, &paths.state, &paths.log)?;
    let mut admin = bfd.ready()?;
    seed_tenants(plan, &mut admin)?;
    bfd.drain(&mut admin, plan.corpora.len())?;
    Ok(())
}

/// The measured phase: one thread per connection, each sending its items
/// in order.
fn measure(plan: &Plan, bfd: &Bfd, seconds: f64, traced: bool) -> Result<Vec<Exchange>, String> {
    let mut conns = Vec::with_capacity(plan.conns.len());
    for _ in &plan.conns {
        let mut conn = bfd.connect()?;
        // The accept loop polls; a ping makes sure the connection is
        // served before the clock starts.
        conn.call(&Request::Ping)?;
        conns.push(conn);
    }
    // Closed loops do a fixed amount of work; this cap only bounds a run
    // on a commit that became pathologically slow.
    let cap = Duration::from_secs_f64(2.0 * seconds);
    let start = Instant::now() + Duration::from_millis(2);
    let per_conn: Vec<Vec<Exchange>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&plan.conns)
            .enumerate()
            .map(|(c, (conn, items))| {
                scope.spawn(move || drive(c, conn, items, start, cap, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut exchanges: Vec<Exchange> = per_conn.into_iter().flatten().collect();
    exchanges.sort_by_key(|e| e.sent);
    if exchanges.is_empty() {
        return Err("the measured phase sent nothing".to_string());
    }
    Ok(exchanges)
}

fn drive(
    c: usize,
    mut conn: Conn,
    items: &[Item],
    start: Instant,
    cap: Duration,
    traced: bool,
) -> Vec<Exchange> {
    tighten_timer_slack();
    wait_until(start);
    let mut exchanges = Vec::with_capacity(items.len());
    let mut ready = Duration::ZERO;
    for (i, item) in items.iter().enumerate() {
        let due = match item.due {
            Some(due) => {
                wait_until(start + due);
                due
            }
            None => ready,
        };
        let sent = start.elapsed();
        if sent > cap {
            break;
        }
        // A traced run times every other request client-side; the rest
        // take the untimed path, so the two halves give tracing overhead.
        let result = if traced && i % 2 == 0 {
            conn.call_timed(&item.request).map(|(r, t)| (r, Some(t)))
        } else {
            conn.call(&item.request).map(|r| (r, None))
        };
        let done = start.elapsed();
        ready = done;
        let mut exchange = Exchange {
            conn: c,
            item: i,
            kind: kind_of(&item.request),
            paragraphs: paragraphs_of(&item.request),
            due,
            sent,
            done,
            open_loop: item.due.is_some(),
            server_us: None,
            timing: None,
            reply: None,
            outcome: Outcome::Ok,
        };
        match result {
            Ok((reply, timing)) => {
                if let Reply::Decisions { latency_us, .. } = &reply {
                    exchange.server_us = Some(*latency_us);
                }
                exchange.outcome = check_reply(&reply, &item.expect);
                exchange.timing = timing;
                if traced {
                    exchange.reply = Some(reply);
                }
                exchanges.push(exchange);
            }
            Err(e) => {
                // The stream's framing is unknown after a transport error.
                exchange.outcome = Outcome::Transport(e);
                exchanges.push(exchange);
                break;
            }
        }
    }
    exchanges
}
