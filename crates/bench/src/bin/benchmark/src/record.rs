//! The run record every result file carries, the result files
//! themselves, and `benchmark diff` over them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use serde::{Deserialize, Serialize};

use crate::config::Manifest;
use crate::stats::{classify, median, quartiles};

/// Where and how a result set was measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Whether tracked files differed from `commit`; `None` when unknown.
    pub dirty: Option<bool>,
    pub host_cores: usize,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel_release: String,
    /// The fingerprint kernel the runtime dispatch picked.
    pub fingerprint_kernel: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub repeats: usize,
}

impl RunRecord {
    pub fn capture(seed: u64, seconds: f64, traced: bool, smoke: bool, repeats: usize) -> Self {
        let git = |args: &[&str]| -> Option<String> {
            if !Path::new(".git").exists() {
                return None;
            }
            let output = Command::new("git")
                .args(args)
                .stderr(Stdio::null())
                .output()
                .ok()?;
            output
                .status
                .success()
                .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        };
        Self {
            commit: git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string()),
            dirty: git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty()),
            host_cores: host_cores(),
            kernel_release: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            fingerprint_kernel: format!("{:?}", browserflow_fingerprint::active_kernel()),
            seed,
            seconds,
            traced,
            smoke,
            repeats,
        }
    }
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One metric's values over the repeats of a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricResult {
    pub unit: String,
    pub samples: Vec<f64>,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
}

impl MetricResult {
    pub fn new(unit: &str, samples: Vec<f64>) -> Self {
        let mid = median(&samples);
        let (p25, p75) = if samples.len() >= 2 {
            let [q1, _, q3] = quartiles(&samples);
            (q1, q3)
        } else {
            (mid, mid)
        };
        Self {
            unit: unit.to_string(),
            samples,
            median: mid,
            p25,
            p75,
        }
    }
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Requests sent in each repeat's measured phase.
    pub requests: Vec<u64>,
    /// Requests refused, failed or lost in each repeat.
    pub failed: Vec<u64>,
    pub metrics: BTreeMap<String, MetricResult>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultFile {
    pub record: RunRecord,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

impl ResultFile {
    /// Writes `result-<unix ms>.json` under `out` (never a tracked file).
    pub fn write(&self, out: &Path) -> Result<PathBuf, String> {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let path = out.join(format!("result-{stamp}.json"));
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(&path, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Reads one result file, or every `result-*.json` in a directory in
/// name (that is, time) order.
fn read_side(path: &Path) -> Result<Vec<ResultFile>, String> {
    let files = if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("cannot list {}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("result-") && n.ends_with(".json"))
            })
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    files
        .iter()
        .map(|file| {
            let text = std::fs::read_to_string(file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", file.display()))
        })
        .collect()
}

/// Every sample of every workload × metric on one side, in run order.
fn samples(files: &[ResultFile]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut merged: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for file in files {
        for (workload, result) in &file.workloads {
            for (metric, values) in &result.metrics {
                merged
                    .entry((workload.clone(), metric.clone()))
                    .or_default()
                    .extend(&values.samples);
            }
        }
    }
    merged
}

/// `benchmark diff <base> <head>`: each side is a result file or a
/// directory of them. Pairs run i of the parent with run i of the change,
/// so run the two sides alternately.
pub fn diff(manifest: &Manifest, base: &Path, head: &Path) -> Result<(), String> {
    let base_files = read_side(base)?;
    let head_files = read_side(head)?;
    for (side, files) in [("base", &base_files), ("head", &head_files)] {
        if let Some(file) = files.first() {
            let r = &file.record;
            println!(
                "{side}: {} file(s), commit {} (dirty {:?}), {} cores, kernel {}, fingerprint {}",
                files.len(),
                r.commit,
                r.dirty,
                r.host_cores,
                r.kernel_release,
                r.fingerprint_kernel
            );
        }
    }
    let base = samples(&base_files);
    let head = samples(&head_files);
    println!(
        "{:<16} {:<32} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "head", "change", "runs"
    );
    for ((workload, metric), b) in &base {
        let Some(h) = head.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (b_mid, h_mid) = (median(b), median(h));
        let change = if b_mid == 0.0 {
            0.0
        } else {
            (h_mid - b_mid) / b_mid.abs() * 100.0
        };
        let verdict = match (manifest.end_to_end(metric), manifest.unit_of(metric)) {
            (Some(e2e), Some((_, higher))) => classify(b, h, higher, e2e.bound).label(),
            // Layer metrics carry no bound: they explain, they do not gate.
            _ => "-",
        };
        println!(
            "{workload:<16} {metric:<32} {b_mid:>12.4} {h_mid:>12.4} {change:>+7.1}% {:>3}/{:<3}  {verdict}",
            b.len(),
            h.len()
        );
    }
    Ok(())
}
