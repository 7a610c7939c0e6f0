//! The benchmark's two inputs, both compiled in: `BENCHMARK.json` at the
//! repository root (metric names, units, directions and bounds) and
//! `workloads.json` beside this package (every rate, count and size).

use serde::Deserialize;

use crate::corpus::{CorpusShape, DocumentMix};

/// The four workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = [
    "keystroke-open",
    "recheck-closed",
    "ingest-mixed",
    "restart-tiered",
];

#[derive(Debug, Clone, Deserialize)]
pub struct Manifest {
    pub run_seconds: u64,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<LayerMetric>,
}

#[derive(Debug, Clone, Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Clone, Deserialize)]
pub struct LayerMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
}

impl Manifest {
    pub fn load() -> Self {
        serde_json::from_str(include_str!("../../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    pub fn end_to_end(&self, name: &str) -> Option<&EndToEnd> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    /// `(unit, higher_is_better)` of any listed metric.
    pub fn unit_of(&self, name: &str) -> Option<(&str, bool)> {
        self.end_to_end
            .iter()
            .map(|m| (&m.name, &m.unit, &m.better))
            .chain(self.per_layer.iter().map(|m| (&m.name, &m.unit, &m.better)))
            .find(|(n, _, _)| *n == name)
            .map(|(_, unit, better)| (unit.as_str(), better == "higher"))
    }
}

#[derive(Debug, Clone, Deserialize)]
pub struct Params {
    /// Seed used when `--seed` is not given.
    pub seed: u64,
    /// Set-ups per run; `setup_s` reports the median.
    pub setup_repeats: usize,
    /// Slices of the measured phase; latency and throughput report the
    /// median over them.
    pub rounds: usize,
    /// Client connections, each driven by its own thread.
    pub connections: usize,
    /// Paragraphs per `ObserveBatch` frame when seeding a tenant.
    pub seed_frame_paragraphs: usize,
    /// The document checked to end every set-up.
    pub first_check: DocumentMix,
    pub keystroke_open: KeystrokeOpen,
    pub recheck_closed: ClosedChecks,
    pub ingest_mixed: IngestMixed,
    /// Checks against the restored tenant; its set-ups are restarts.
    pub restart_tiered: ClosedChecks,
    pub smoke: Smoke,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Typing {
    /// Poisson arrival rate over all connections.
    pub rate_per_s: f64,
    /// Share of sessions that paste a confidential paragraph.
    pub leaky_share: f64,
    pub min_chars: usize,
    pub max_chars: usize,
}

#[derive(Debug, Clone, Deserialize)]
pub struct KeystrokeOpen {
    pub corpus: CorpusShape,
    pub typing: Typing,
}

#[derive(Debug, Clone, Deserialize)]
pub struct ClosedChecks {
    pub corpus: CorpusShape,
    /// Check requests over all connections (a fixed amount of work).
    pub requests: usize,
    pub document: DocumentMix,
}

#[derive(Debug, Clone, Deserialize)]
pub struct IngestMixed {
    pub corpus: CorpusShape,
    /// Poisson arrival rate of `ObserveBatch` frames on the writer
    /// connection.
    pub frames_per_s: f64,
    pub frame_paragraphs: usize,
    /// Share of frames that re-observe an earlier frame's text.
    pub reobserve_share: f64,
    /// Keystrokes on the reader connection.
    pub typing: Typing,
}

/// `--smoke` shrinks every size and count by `scale` and measures for
/// `seconds`.
#[derive(Debug, Clone, Deserialize)]
pub struct Smoke {
    pub scale: f64,
    pub seconds: u64,
}

impl Params {
    pub fn load() -> Self {
        serde_json::from_str(include_str!("../workloads.json")).expect("workloads.json parses")
    }

    /// The smoke-mode parameters: same shape, `scale` times the work.
    pub fn smoke(mut self) -> Self {
        let f = self.smoke.scale;
        let scale = |n: &mut usize| *n = ((*n as f64 * f).ceil() as usize).max(1);
        for corpus in [
            &mut self.keystroke_open.corpus,
            &mut self.recheck_closed.corpus,
            &mut self.ingest_mixed.corpus,
            &mut self.restart_tiered.corpus,
        ] {
            scale(&mut corpus.confidential);
            scale(&mut corpus.wiki);
            scale(&mut corpus.popular);
        }
        scale(&mut self.recheck_closed.requests);
        scale(&mut self.restart_tiered.requests);
        self.setup_repeats = 1;
        self
    }
}
