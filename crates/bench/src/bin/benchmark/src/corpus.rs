//! Deterministic input generation: every frame `bfd` sees is a pure
//! function of the workload parameters and the seed.
//!
//! Text is built from a fixed pseudo-word vocabulary, so paragraphs share
//! no 15-character n-grams by accident and every verdict is known from how
//! the input was built:
//!
//! - a *confidential* paragraph (observed in `itool`, whose label carries
//!   the tenant's tag) pasted verbatim must **block** on `gdocs`;
//! - a paragraph quoting a *popular sentence* must **allow**: the sentence's
//!   first sighting is a `wiki` paragraph consisting of exactly that
//!   sentence, so the quote discloses it fully (a match and a TDM check)
//!   but `wiki` text carries no tags;
//! - *novel* text must **allow**.

use std::time::Duration;

use browserflow_daemon::{ParagraphSlot, Request};

/// The service confidential paragraphs are observed in.
pub const CONFIDENTIAL_SERVICE: &str = "itool";
/// The public service holding popular sentences and bulk text.
pub const PUBLIC_SERVICE: &str = "wiki";
/// The destination every check and keystroke targets.
pub const DESTINATION: &str = "gdocs";

/// SplitMix64: small, fast and reproducible across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream derived from this seed and `stream`.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn range(&mut self, low: usize, high: usize) -> usize {
        low + self.below(high - low + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential gap with the given mean: Poisson arrivals.
    pub fn exp_gap(&mut self, mean: Duration) -> Duration {
        mean.mul_f64(-(1.0 - self.unit()).ln())
    }

    /// Zipf(1) over `0..n`: index `k` has weight `1/(k+1)`.
    pub fn zipf(&mut self, n: usize) -> usize {
        let total: f64 = (0..n).map(|k| 1.0 / (k + 1) as f64).sum();
        let mut draw = self.unit() * total;
        for k in 0..n {
            draw -= 1.0 / (k + 1) as f64;
            if draw <= 0.0 {
                return k;
            }
        }
        n - 1
    }
}

const SYLLABLES: &[&str] = &[
    "ka", "lo", "mi", "ren", "tas", "vel", "qu", "dor", "shi", "pan", "tre", "gol", "fi", "nu",
    "sta", "bar", "zen", "cor", "lia", "mon", "pe", "rit", "sol", "van", "ex", "ju", "op", "wy",
];

/// The fixed vocabulary: 4,096 pseudo-words of two to four syllables.
fn vocabulary() -> Vec<String> {
    let mut rng = Rng::new(0x0B0C_AB01);
    (0..4096)
        .map(|_| {
            let syllables = rng.range(2, 4);
            (0..syllables)
                .map(|_| SYLLABLES[rng.below(SYLLABLES.len())])
                .collect()
        })
        .collect()
}

/// Writes text one random word at a time.
pub struct TextGen {
    words: Vec<String>,
}

impl Default for TextGen {
    fn default() -> Self {
        Self {
            words: vocabulary(),
        }
    }
}

impl TextGen {
    pub fn word<'a>(&'a self, rng: &mut Rng) -> &'a str {
        &self.words[rng.below(self.words.len())]
    }

    /// Random words until the text holds at least `chars` characters.
    pub fn text(&self, rng: &mut Rng, chars: usize) -> String {
        let mut text = String::with_capacity(chars + 16);
        while text.len() < chars {
            if !text.is_empty() {
                text.push(' ');
            }
            text.push_str(self.word(rng));
        }
        text
    }
}

/// The verdict a check paragraph must receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Allow,
    Block,
}

impl Verdict {
    /// The action string `bfd` puts on the wire.
    pub fn action(self) -> &'static str {
        match self {
            Verdict::Allow => "allow",
            Verdict::Block => "block",
        }
    }
}

/// How many paragraphs each tenant is seeded with.
#[derive(Debug, Clone, Copy, serde::Deserialize)]
pub struct CorpusShape {
    pub tenants: usize,
    /// Confidential `itool` paragraphs per tenant.
    pub confidential: usize,
    /// Public `wiki` paragraphs per tenant, popular-sentence sightings
    /// included.
    pub wiki: usize,
    /// Popular sentences per tenant (each first seen as its own `wiki`
    /// paragraph).
    pub popular: usize,
}

/// One tenant's generated text.
pub struct TenantCorpus {
    pub tenant: String,
    pub confidential: Vec<String>,
    pub popular: Vec<String>,
    pub wiki: Vec<String>,
}

fn tenant_name(index: usize) -> String {
    format!("tenant{index:02}")
}

impl TenantCorpus {
    pub fn generate(text: &TextGen, seed: u64, index: usize, shape: &CorpusShape) -> Self {
        let mut rng = Rng::fork(seed, 0x7E4A_0000 + index as u64);
        let confidential = (0..shape.confidential)
            .map(|_| {
                let chars = rng.range(220, 320);
                text.text(&mut rng, chars)
            })
            .collect();
        let popular: Vec<String> = (0..shape.popular)
            .map(|_| {
                let chars = rng.range(160, 220);
                text.text(&mut rng, chars)
            })
            .collect();
        let mut wiki = popular.clone();
        while wiki.len() < shape.wiki.max(shape.popular) {
            let chars = rng.range(200, 380);
            let mut paragraph = text.text(&mut rng, chars);
            // Later sightings of popular sentences: realistic repetition,
            // but the first sighting keeps the sentence's hashes.
            if !popular.is_empty() && rng.below(4) == 0 {
                paragraph.push(' ');
                paragraph.push_str(&popular[rng.below(popular.len())]);
            }
            wiki.push(paragraph);
        }
        Self {
            tenant: tenant_name(index),
            confidential,
            popular,
            wiki,
        }
    }

    /// The `ObserveBatch` frames that seed this tenant: confidential text
    /// first, then the public corpus, `per_frame` paragraphs a frame.
    pub fn seed_frames(&self, per_frame: usize) -> Vec<Request> {
        let mut frames = Vec::new();
        for (service, document, texts) in [
            (CONFIDENTIAL_SERVICE, "secrets", &self.confidential),
            (PUBLIC_SERVICE, "wiki", &self.wiki),
        ] {
            for (chunk, slice) in texts.chunks(per_frame.max(1)).enumerate() {
                frames.push(Request::ObserveBatch {
                    tenant: self.tenant.clone(),
                    service: service.to_string(),
                    document: format!("{document}-{chunk}"),
                    paragraphs: slots(slice),
                });
            }
        }
        frames
    }

    /// One check paragraph of each kind.
    pub fn verbatim(&self, rng: &mut Rng) -> String {
        self.confidential[rng.below(self.confidential.len())].clone()
    }

    pub fn popular_quote(&self, text: &TextGen, rng: &mut Rng) -> String {
        let before = rng.range(40, 90);
        let after = rng.range(40, 90);
        format!(
            "{} {} {}",
            text.text(rng, before),
            self.popular[rng.below(self.popular.len())],
            text.text(rng, after)
        )
    }

    /// A document of `paragraphs` slots: `verbatim` confidential pastes,
    /// `popular` quotes and novel text for the rest, in shuffled order.
    pub fn check_document(
        &self,
        text: &TextGen,
        rng: &mut Rng,
        document: String,
        mix: &DocumentMix,
    ) -> (Request, Vec<Verdict>) {
        let mut kinds: Vec<u8> = (0..mix.paragraphs)
            .map(|i| {
                if i < mix.verbatim {
                    0
                } else if i < mix.verbatim + mix.popular {
                    1
                } else {
                    2
                }
            })
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i + 1));
        }
        let mut expect = Vec::with_capacity(kinds.len());
        let texts: Vec<String> = kinds
            .iter()
            .map(|kind| match kind {
                0 => {
                    expect.push(Verdict::Block);
                    self.verbatim(rng)
                }
                1 => {
                    expect.push(Verdict::Allow);
                    self.popular_quote(text, rng)
                }
                _ => {
                    expect.push(Verdict::Allow);
                    let chars = rng.range(200, 350);
                    text.text(rng, chars)
                }
            })
            .collect();
        let request = Request::Check {
            tenant: self.tenant.clone(),
            service: DESTINATION.to_string(),
            document,
            paragraphs: slots(&texts),
        };
        (request, expect)
    }
}

/// Paragraph slots `0..texts.len()`.
pub fn slots(texts: &[String]) -> Vec<ParagraphSlot> {
    texts
        .iter()
        .enumerate()
        .map(|(index, text)| ParagraphSlot {
            index,
            text: text.clone(),
        })
        .collect()
}

/// The make-up of a check document.
#[derive(Debug, Clone, Copy, serde::Deserialize)]
pub struct DocumentMix {
    pub paragraphs: usize,
    pub verbatim: usize,
    pub popular: usize,
}

/// One user typing into one paragraph: every keystroke resends the
/// paragraph's full text, one word longer than the last.
struct Session {
    tenant: usize,
    document: String,
    text: String,
    verdict: Verdict,
}

/// Typing traffic: a pool of live sessions per connection, zipf(1) over
/// tenants, a `leaky_share` of which paste confidential text verbatim.
pub struct Typist<'a> {
    corpora: &'a [TenantCorpus],
    text: &'a TextGen,
    rng: Rng,
    sessions: Vec<Session>,
    created: usize,
    label: String,
    leaky_share: f64,
    min_chars: usize,
    max_chars: usize,
}

/// How many sessions type concurrently on one connection.
const LIVE_SESSIONS: usize = 32;

impl<'a> Typist<'a> {
    pub fn new(
        corpora: &'a [TenantCorpus],
        text: &'a TextGen,
        rng: Rng,
        label: String,
        leaky_share: f64,
        chars: (usize, usize),
    ) -> Self {
        let mut typist = Self {
            corpora,
            text,
            rng,
            sessions: Vec::new(),
            created: 0,
            label,
            leaky_share,
            min_chars: chars.0,
            max_chars: chars.1,
        };
        for _ in 0..LIVE_SESSIONS {
            let session = typist.new_session();
            typist.sessions.push(session);
        }
        typist
    }

    fn new_session(&mut self) -> Session {
        let tenant = self.rng.zipf(self.corpora.len());
        let corpus = &self.corpora[tenant];
        let leaky = self.rng.unit() < self.leaky_share;
        let (text, verdict) = if leaky {
            (corpus.verbatim(&mut self.rng), Verdict::Block)
        } else {
            (
                self.text.text(&mut self.rng, self.min_chars),
                Verdict::Allow,
            )
        };
        self.created += 1;
        Session {
            tenant,
            document: format!("{}-{}", self.label, self.created),
            text,
            verdict,
        }
    }

    /// The next keystroke frame and its required verdict.
    pub fn keystroke(&mut self) -> (Request, Verdict) {
        let slot = self.rng.below(self.sessions.len());
        if self.sessions[slot].text.len() >= self.max_chars {
            self.sessions[slot] = self.new_session();
        }
        let word = self.text.word(&mut self.rng);
        let session = &mut self.sessions[slot];
        session.text.push(' ');
        session.text.push_str(word);
        let request = Request::Keystroke {
            tenant: self.corpora[session.tenant].tenant.clone(),
            service: DESTINATION.to_string(),
            document: session.document.clone(),
            index: 0,
            text: session.text.clone(),
        };
        (request, session.verdict)
    }
}

/// Novel text for bulk ingest, `paragraphs` slots.
pub fn ingest_frame(
    text: &TextGen,
    rng: &mut Rng,
    tenant: &str,
    document: String,
    paragraphs: usize,
) -> Request {
    let texts: Vec<String> = (0..paragraphs)
        .map(|_| {
            let chars = rng.range(200, 350);
            text.text(rng, chars)
        })
        .collect();
    Request::ObserveBatch {
        tenant: tenant.to_string(),
        service: PUBLIC_SERVICE.to_string(),
        document,
        paragraphs: slots(&texts),
    }
}

/// The tenant policy every workload registers: `itool` text carries the
/// tenant tag and only `itool` may receive it; `wiki` and `gdocs` are
/// untagged.
pub fn policy_json() -> String {
    use browserflow_tdm::{Policy, Service, Tag, TagSet};
    let tag = Tag::new("tenant-confidential").expect("static tag is valid");
    let mut policy = Policy::new();
    for service in [
        Service::new(CONFIDENTIAL_SERVICE, "Internal Tool")
            .with_privilege(TagSet::from_iter([tag.clone()]))
            .with_confidentiality(TagSet::from_iter([tag])),
        Service::new(PUBLIC_SERVICE, "Public Wiki"),
        Service::new(DESTINATION, "External Docs"),
    ] {
        policy.register(service).expect("service ids are unique");
    }
    serde_json::to_string(&policy).expect("policy serialises")
}

/// A tenant's middleware exactly as `bfd` builds it on `TenantCreate`
/// with mode `block` and [`policy_json`].
pub fn tenant_flow() -> Result<browserflow::BrowserFlow, String> {
    let policy = serde_json::from_str(&policy_json()).map_err(|e| e.to_string())?;
    browserflow::BrowserFlow::builder()
        .mode(browserflow::EnforcementMode::Block)
        .policy(policy)
        .build()
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Params, WORKLOADS};
    use crate::workload::Plan;
    use browserflow::{CheckRequest, DocKey, UploadAction};

    /// Every byte `bfd` would receive in each workload, plus the open-loop
    /// send schedule, for one seed.
    fn stream(seed: u64) -> Vec<Vec<u8>> {
        let params = Params::load().smoke();
        let text = TextGen::default();
        let mut out = Vec::new();
        for name in WORKLOADS {
            let plan = Plan::build(name, &params, seed, 1.0, &text);
            for request in &plan.seed_frames {
                out.push(serde_json::to_vec(request).unwrap());
            }
            for item in plan.conns.iter().flatten() {
                out.push(serde_json::to_vec(&item.request).unwrap());
                out.push(format!("{:?}", item.due).into_bytes());
            }
            for (first, _) in &plan.first_checks {
                out.push(serde_json::to_vec(first).unwrap());
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_frames_and_other_seeds_differ() {
        let first = stream(7);
        assert!(first.len() > 1000);
        assert_eq!(first, stream(7));
        assert_ne!(first, stream(8));
    }

    fn verdict_of(action: UploadAction) -> Verdict {
        match action {
            UploadAction::Allow => Verdict::Allow,
            UploadAction::Block => Verdict::Block,
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn generated_paragraphs_get_the_verdicts_they_were_built_for() {
        let text = TextGen::default();
        let shape = CorpusShape {
            tenants: 1,
            confidential: 16,
            wiki: 300,
            popular: 16,
        };
        let corpora = [TenantCorpus::generate(&text, 5, 0, &shape)];
        let corpus = &corpora[0];
        let flow = tenant_flow().unwrap();
        for frame in corpus.seed_frames(16) {
            let Request::ObserveBatch {
                service,
                document,
                paragraphs,
                ..
            } = frame
            else {
                unreachable!("seed frames are ObserveBatch");
            };
            let slots: Vec<(usize, &str)> = paragraphs
                .iter()
                .map(|p| (p.index, p.text.as_str()))
                .collect();
            flow.observe_paragraphs(&service.as_str().into(), &document, &slots)
                .unwrap();
        }
        let mut rng = Rng::new(9);
        for round in 0..20 {
            let cases = [
                (
                    corpus.verbatim(&mut rng),
                    Verdict::Block,
                    CONFIDENTIAL_SERVICE,
                ),
                (
                    corpus.popular_quote(&text, &mut rng),
                    Verdict::Allow,
                    PUBLIC_SERVICE,
                ),
                (text.text(&mut rng, 250), Verdict::Allow, ""),
            ];
            for (index, (paragraph, verdict, source)) in cases.iter().enumerate() {
                let document = format!("draft-{round}");
                let decision = flow
                    .check_one(&CheckRequest::paragraph(
                        DESTINATION,
                        document.as_str(),
                        index,
                        paragraph.as_str(),
                    ))
                    .unwrap();
                assert_eq!(verdict_of(decision.action), *verdict, "{paragraph}");
                let matches = flow.engine().check_paragraph(
                    &DocKey::new(DESTINATION, document.as_str()),
                    index,
                    paragraph,
                );
                if source.is_empty() {
                    assert!(matches.is_empty(), "novel text matched {matches:?}");
                } else {
                    assert!(
                        matches
                            .iter()
                            .any(|m| m.source.doc.service.as_str() == *source),
                        "no match from {source} for {paragraph}"
                    );
                }
            }
        }
        let mut typist = Typist::new(&corpora, &text, Rng::new(3), "t".into(), 0.5, (150, 420));
        let mut blocked = 0;
        for _ in 0..400 {
            let (request, verdict) = typist.keystroke();
            let Request::Keystroke {
                document,
                index,
                text,
                ..
            } = request
            else {
                unreachable!("the typist sends keystrokes");
            };
            let decision = flow
                .check_one(&CheckRequest::paragraph(DESTINATION, document, index, text))
                .unwrap();
            assert_eq!(verdict_of(decision.action), verdict);
            blocked += usize::from(verdict == Verdict::Block);
        }
        assert!(blocked > 0, "no leaky session in 400 keystrokes");
    }
}
