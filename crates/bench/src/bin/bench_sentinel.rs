//! Regenerates **BENCH_sentinel.json**: exfiltration-sentinel detection
//! quality over a corpus of covert-flow scenarios.
//!
//! Each scenario drives a fresh [`BrowserFlow`] through a scripted
//! cross-service flow — copy/paste chains, paraphrase-then-leak,
//! slow multi-paragraph exfiltration — and records whether the sentinel
//! raised at least one multi-hop alert. Positive scenarios stage a real
//! covert chain that ends in a violating upload; negative scenarios are
//! benign cross-service activity (or single-hop violations, which the
//! ordinary warning path already covers) where an alert would be noise.
//!
//! The binary asserts:
//!   * recall    >= BF_SENTINEL_RECALL_FLOOR    (default 0.9)
//!   * precision >= BF_SENTINEL_PRECISION_FLOOR (default 0.8)
//!
//! and exits non-zero when either floor is missed, so CI can gate on it.

use browserflow::{BrowserFlow, CheckRequest, EnforcementMode, EngineConfig, UploadAction};
use browserflow_bench::{env_floor, report};
use browserflow_fingerprint::FingerprintConfig;
use browserflow_tdm::{Service, Tag, TagSet};
use serde::Serialize;

/// A confidential paragraph long enough to fingerprint robustly at the
/// corpus n-gram length.
const SECRET: &str = "the confidential interview rubric awards extra points for \
                      candidates who ask incisive clarifying questions early and \
                      penalises rehearsed answers that dodge the scenario";

/// Extra confidential paragraphs for the slow-exfiltration scenario.
const SECRET_PARTS: [&str; 3] = [
    "compensation band seven tops out at a base well above the published \
     range once the retention multiplier is applied to tenured staff",
    "the acquisition shortlist currently names three infrastructure \
     startups and the diligence packet is stored in the deals folder",
    "next quarter's reorganisation folds the platform group into core \
     engineering and retires two director positions entirely",
];

fn tag(name: &str) -> Tag {
    Tag::new(name).unwrap()
}

/// Five services: two tagged origins, one privileged relay, two public
/// sinks — enough surface for multi-hop chains in both directions.
fn corpus_flow() -> BrowserFlow {
    BrowserFlow::builder()
        .mode(EnforcementMode::Block)
        .engine(EngineConfig {
            fingerprint: FingerprintConfig::builder()
                .ngram_len(8)
                .window(4)
                .build()
                .unwrap(),
            ..EngineConfig::default()
        })
        .service(
            Service::new("itool", "Interview Tool")
                .with_privilege(TagSet::from_iter([tag("ti")]))
                .with_confidentiality(TagSet::from_iter([tag("ti")])),
        )
        .service(
            Service::new("wiki", "Internal Wiki")
                .with_privilege(TagSet::from_iter([tag("tw")]))
                .with_confidentiality(TagSet::from_iter([tag("tw")])),
        )
        .service(
            Service::new("hr", "HR Portal")
                .with_privilege(TagSet::from_iter([tag("ti"), tag("tw")])),
        )
        .service(Service::new("gdocs", "Google Docs"))
        .service(Service::new("mail", "Webmail"))
        .build()
        .unwrap()
}

struct Scenario {
    name: &'static str,
    /// Whether the scenario stages a covert chain the sentinel should
    /// flag.
    covert: bool,
    run: fn(&BrowserFlow),
}

fn observe(flow: &BrowserFlow, service: &str, document: &str, index: usize, text: &str) {
    flow.observe_paragraph(&service.into(), document, index, text)
        .unwrap();
}

fn check(flow: &BrowserFlow, service: &str, document: &str, text: &str) -> UploadAction {
    flow.check_one(&CheckRequest::paragraph(service, document, 0, text))
        .unwrap()
        .action
}

/// itool secret lands in a wiki memo (with the author's framing), the
/// memo is pasted into a public doc: the classic two-hop relay.
fn copy_paste_chain(flow: &BrowserFlow) {
    observe(flow, "itool", "eval", 0, SECRET);
    let memo = format!("{SECRET} — copied into the hiring wiki for the debrief");
    observe(flow, "wiki", "memo", 0, &memo);
    assert_eq!(check(flow, "gdocs", "draft", &memo), UploadAction::Block);
}

/// itool → gdocs → wiki → mail: each intermediary adds its own framing,
/// so the chain is three hops deep by the time it leaves.
fn three_hop_relay(flow: &BrowserFlow) {
    observe(flow, "itool", "eval", 0, SECRET);
    let draft = format!("{SECRET} — drafting notes for the hiring committee");
    observe(flow, "gdocs", "draft", 0, &draft);
    let page = format!("{draft} (archived on the interview-process wiki page)");
    observe(flow, "wiki", "page", 0, &page);
    assert_eq!(check(flow, "mail", "outbox", &page), UploadAction::Block);
}

/// The intermediary rewrites the fringes of the secret but keeps its
/// core clauses verbatim — fingerprint matching still links the hops.
fn paraphrase_then_leak(flow: &BrowserFlow) {
    observe(flow, "itool", "eval", 0, SECRET);
    let paraphrase = format!(
        "per our rubric, {SECRET}; I reworded the intro but kept the \
         substance for the write-up"
    );
    observe(flow, "wiki", "writeup", 0, &paraphrase);
    assert_eq!(
        check(flow, "gdocs", "shared", &paraphrase),
        UploadAction::Block
    );
}

/// Slow exfiltration: confidential paragraphs trickle one at a time into
/// a scratch doc over separate edits, then the scratch doc leaks.
fn slow_exfiltration(flow: &BrowserFlow) {
    for (index, part) in SECRET_PARTS.iter().enumerate() {
        observe(flow, "itool", "packet", index, part);
    }
    for (index, part) in SECRET_PARTS.iter().enumerate() {
        let staged = format!("{part} (pasted into my scratch notes, entry {index})");
        observe(flow, "wiki", "scratch", index, &staged);
    }
    let assembled = SECRET_PARTS
        .iter()
        .enumerate()
        .map(|(index, part)| format!("{part} (pasted into my scratch notes, entry {index})"))
        .collect::<Vec<_>>()
        .join(" ");
    assert_eq!(
        check(flow, "mail", "outbox", &assembled),
        UploadAction::Block
    );
}

/// Re-typing instead of pasting: case and whitespace differ, the words
/// do not — normalisation keeps the chain linked.
fn retype_chain(flow: &BrowserFlow) {
    observe(flow, "itool", "eval", 0, SECRET);
    let retyped = format!(
        "{} — retyped from memory for the page",
        SECRET.to_uppercase()
    );
    observe(flow, "wiki", "retyped", 0, &retyped);
    assert_eq!(check(flow, "gdocs", "notes", &retyped), UploadAction::Block);
}

/// Public prose relayed across non-confidential services: no tagged
/// origin anywhere in the chain, nothing to flag.
fn benign_collab(flow: &BrowserFlow) {
    let prose = "the quarterly all-hands is on thursday and lunch will be \
                 served in the main atrium as usual for everyone";
    observe(flow, "gdocs", "agenda", 0, prose);
    let relayed = format!("{prose} — mirrored on the HR events page");
    observe(flow, "hr", "events", 0, &relayed);
    assert_eq!(check(flow, "mail", "outbox", &relayed), UploadAction::Allow);
}

/// A direct single-hop paste is a violation, but not a covert chain —
/// the ordinary warning path covers it and an alert would be noise.
fn direct_paste(flow: &BrowserFlow) {
    observe(flow, "itool", "eval", 0, SECRET);
    assert_eq!(check(flow, "gdocs", "draft", SECRET), UploadAction::Block);
}

/// A chain that ends at a destination privileged for the data: the
/// upload is allowed, so no alert should fire despite the hops.
fn privileged_relay(flow: &BrowserFlow) {
    observe(flow, "itool", "eval", 0, SECRET);
    let memo = format!("{SECRET} — forwarded to HR for the offer packet");
    observe(flow, "wiki", "memo", 0, &memo);
    assert_eq!(check(flow, "hr", "offer", &memo), UploadAction::Allow);
}

/// Discussing confidential material without reproducing it: the memo
/// shares no tracked text with the secret, so leaking it violates only
/// the wiki's own tag — a single-hop block, not a covert chain.
fn reference_only(flow: &BrowserFlow) {
    observe(flow, "itool", "eval", 0, SECRET);
    let memo = "see the interview tool for the scoring details; summarising \
                them here would defeat the point of access control";
    observe(flow, "wiki", "memo", 0, memo);
    assert_eq!(check(flow, "gdocs", "draft", memo), UploadAction::Block);
}

/// Confidential data staying inside its own service never crosses a
/// boundary, so there is no cross-service edge to chain on.
fn in_service_roundtrip(flow: &BrowserFlow) {
    observe(flow, "itool", "eval", 0, SECRET);
    let summary = format!("{SECRET} — condensed for the panel summary");
    observe(flow, "itool", "summary", 0, &summary);
    assert_eq!(check(flow, "itool", "final", &summary), UploadAction::Allow);
}

const SCENARIOS: [Scenario; 10] = [
    Scenario {
        name: "copy-paste-chain",
        covert: true,
        run: copy_paste_chain,
    },
    Scenario {
        name: "three-hop-relay",
        covert: true,
        run: three_hop_relay,
    },
    Scenario {
        name: "paraphrase-then-leak",
        covert: true,
        run: paraphrase_then_leak,
    },
    Scenario {
        name: "slow-exfiltration",
        covert: true,
        run: slow_exfiltration,
    },
    Scenario {
        name: "retype-chain",
        covert: true,
        run: retype_chain,
    },
    Scenario {
        name: "benign-collab",
        covert: false,
        run: benign_collab,
    },
    Scenario {
        name: "direct-paste",
        covert: false,
        run: direct_paste,
    },
    Scenario {
        name: "privileged-relay",
        covert: false,
        run: privileged_relay,
    },
    Scenario {
        name: "reference-only",
        covert: false,
        run: reference_only,
    },
    Scenario {
        name: "in-service-roundtrip",
        covert: false,
        run: in_service_roundtrip,
    },
];

#[derive(Serialize)]
struct Outcome {
    scenario: &'static str,
    covert: bool,
    alerts: usize,
    max_hops: usize,
}

#[derive(Serialize)]
struct Report {
    recall: f64,
    precision: f64,
    scenarios: Vec<Outcome>,
}

fn main() {
    let recall_floor = env_floor("BF_SENTINEL_RECALL_FLOOR", 0.9);
    let precision_floor = env_floor("BF_SENTINEL_PRECISION_FLOOR", 0.8);

    println!("Exfiltration-sentinel covert-flow corpus");
    println!(
        "floors: recall >= {recall_floor:.2}, precision >= {precision_floor:.2} \
         (BF_SENTINEL_RECALL_FLOOR / BF_SENTINEL_PRECISION_FLOOR)\n"
    );
    println!(
        "{:<22} {:>7} {:>7} {:>9} verdict",
        "scenario", "covert", "alerts", "max-hops"
    );

    let mut outcomes = Vec::new();
    for scenario in &SCENARIOS {
        let flow = corpus_flow();
        (scenario.run)(&flow);
        let alerts = flow.alerts();
        let outcome = Outcome {
            scenario: scenario.name,
            covert: scenario.covert,
            alerts: alerts.len(),
            max_hops: alerts.iter().map(|a| a.hops.len()).max().unwrap_or(0),
        };
        let detected = outcome.alerts > 0;
        let verdict = match (scenario.covert, detected) {
            (true, true) => "detected",
            (true, false) => "MISSED",
            (false, false) => "quiet",
            (false, true) => "FALSE ALARM",
        };
        println!(
            "{:<22} {:>7} {:>7} {:>9} {verdict}",
            outcome.scenario, outcome.covert, outcome.alerts, outcome.max_hops
        );
        outcomes.push(outcome);
    }

    let positives = outcomes.iter().filter(|o| o.covert).count();
    let true_alerts = outcomes.iter().filter(|o| o.covert && o.alerts > 0).count();
    let false_alerts = outcomes
        .iter()
        .filter(|o| !o.covert && o.alerts > 0)
        .count();
    let recall = true_alerts as f64 / positives.max(1) as f64;
    let precision = if true_alerts + false_alerts == 0 {
        1.0
    } else {
        true_alerts as f64 / (true_alerts + false_alerts) as f64
    };
    println!("\nrecall    = {recall:.3} ({true_alerts}/{positives} covert chains flagged)");
    println!(
        "precision = {precision:.3} ({true_alerts}/{} alert-raising scenarios are covert)",
        true_alerts + false_alerts
    );

    report::write(
        "sentinel",
        "covert-flow scenario corpus; a scenario counts as detected when the \
         exfiltration sentinel raised at least one multi-hop alert; recall is over \
         covert scenarios, precision over alert-raising scenarios",
        &Report {
            recall,
            precision,
            scenarios: outcomes,
        },
    );

    assert!(
        recall >= recall_floor,
        "sentinel recall {recall:.3} fell below the floor {recall_floor:.2}"
    );
    assert!(
        precision >= precision_floor,
        "sentinel precision {precision:.3} fell below the floor {precision_floor:.2}"
    );
    println!("sentinel corpus gate passed");
}
