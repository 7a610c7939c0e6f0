//! The `bfd` benchmark: four workloads against the real daemon, every
//! end-to-end metric with its unit, and a traced run that splits a round
//! trip into its layers. See README.md beside this package.
//!
//! ```text
//! benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace 0|1]
//!           [--repeats <n>] [--out <dir>] [--smoke]
//! benchmark diff <base result file or dir> <head result file or dir>
//! ```

mod bfd;
mod config;
mod corpus;
mod record;
mod replay;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use config::{Manifest, Params, WORKLOADS};
use corpus::TextGen;
use record::{host_cores, MetricResult, ResultFile, RunRecord, WorkloadResult};
use workload::Plan;

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeats: usize,
    out: PathBuf,
    smoke: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let manifest = Manifest::load();
    let outcome = if args.first().map(String::as_str) == Some("diff") {
        match &args[1..] {
            [base, head] => {
                record::diff(&manifest, Path::new(base), Path::new(head)).map(|()| true)
            }
            _ => Err("usage: benchmark diff <base> <head>".to_string()),
        }
    } else {
        measure(&args, &manifest)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Runs the selected workloads. Returns `false` after a wrong answer; the
/// result line then reports `"correct": false` and no metrics.
fn measure(args: &[String], manifest: &Manifest) -> Result<bool, String> {
    let params = Params::load();
    let options = parse(args, manifest, &params)?;
    let params = if options.smoke {
        params.smoke()
    } else {
        params
    };
    let threads = params.connections.max(2);
    if threads > host_cores() {
        return Err(format!(
            "{threads} client threads need at least {threads} cores; this host has {}",
            host_cores()
        ));
    }
    std::fs::create_dir_all(&options.out)
        .map_err(|e| format!("cannot create {}: {e}", options.out.display()))?;
    let bin = bfd::build_bfd()?;
    let text = TextGen::default();
    let listed: Vec<(&str, &str)> = if options.trace {
        manifest
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect()
    } else {
        manifest
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect()
    };

    let mut file = ResultFile {
        record: RunRecord::capture(
            options.seed,
            options.seconds,
            options.trace,
            options.smoke,
            options.repeats,
        ),
        workloads: BTreeMap::new(),
    };
    let mut correct = true;
    for &name in &options.workloads {
        let plan = Plan::build(name, &params, options.seed, options.seconds, &text);
        let mut result = WorkloadResult::default();
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for _ in 0..options.repeats {
            let run = workload::run(&plan, options.seconds, options.trace, &bin, &options.out)?;
            result.requests.push(run.attempted());
            result.failed.push(run.failed());
            let metrics = match run.first_wrong() {
                Some(why) => Err(why),
                None if options.trace => replay::layers(&plan, &run, &options.out),
                None => Ok(run.end_to_end(&plan, params.rounds)),
            };
            let metrics = match metrics {
                Ok(metrics) => metrics,
                Err(why) => {
                    eprintln!("benchmark: {name}: wrong answer: {why}");
                    correct = false;
                    break;
                }
            };
            let produced: Vec<&str> = metrics.keys().copied().collect();
            let mut expected: Vec<&str> = listed.iter().map(|(n, _)| *n).collect();
            expected.sort_unstable();
            if produced != expected {
                return Err(format!(
                    "{name} measured {produced:?} but BENCHMARK.json lists {expected:?}"
                ));
            }
            for (metric, value) in metrics {
                samples.entry(metric).or_default().push(value);
            }
        }
        if !correct {
            break;
        }
        println!(
            "{name}: {} requests, {} failed",
            result.requests.iter().sum::<u64>(),
            result.failed.iter().sum::<u64>()
        );
        for (metric, unit) in &listed {
            let values = samples.remove(metric).unwrap_or_default();
            let summary = MetricResult::new(unit, values);
            println!("  {metric:<34} {:>14.4} {unit}", summary.median);
            result.metrics.insert((*metric).to_string(), summary);
        }
        file.workloads.insert(name.to_string(), result);
    }
    if correct {
        let path = file.write(&options.out)?;
        println!("wrote {}", path.display());
    }
    println!(
        "{}",
        result_line(&file, correct, options.workloads.len() > 1)
    );
    Ok(correct)
}

/// The last line of output: one JSON object with every metric's median.
/// A run over several workloads prefixes each metric with its workload.
fn result_line(file: &ResultFile, correct: bool, prefixed: bool) -> String {
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for (workload, result) in &file.workloads {
        attempted += result.requests.iter().sum::<u64>();
        failed += result.failed.iter().sum::<u64>();
        for (name, m) in &result.metrics {
            let key = if prefixed {
                format!("{workload}/{name}")
            } else {
                name.clone()
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.median, m.unit
            ));
        }
    }
    if !correct {
        metrics.clear();
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn parse(args: &[String], manifest: &Manifest, params: &Params) -> Result<Options, String> {
    let mut options = Options {
        workloads: WORKLOADS.to_vec(),
        seed: params.seed,
        seconds: manifest.run_seconds as f64,
        trace: false,
        repeats: 1,
        out: PathBuf::from("target/benchmark"),
        smoke: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                options.workloads = if name == "all" {
                    WORKLOADS.to_vec()
                } else {
                    vec![WORKLOADS
                        .into_iter()
                        .find(|w| w == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => options.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                options.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--repeats" => {
                options.repeats = value()?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or("--repeats takes a positive integer")?;
            }
            "--out" => options.out = PathBuf::from(value()?),
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if options.smoke {
        options.seconds = params.smoke.seconds as f64;
    }
    Ok(options)
}
