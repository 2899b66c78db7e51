//! The repository benchmark: end-to-end and per-layer figures of the
//! AutoExecutor workspace, driven through its public API.
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.py` builds this program and runs it with the same arguments plus
//! the host's `rustc` version and the source revision. Workloads, metrics
//! and the layer map are described in `perfbench/README.md`. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the full report, stamped
//! with seed, revision and host, is written under `perfbench/out/`.

mod common;
mod inline;
mod pipeline;
mod queued;
mod report;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use common::{json_number, RunOptions, RunResult, OUT_DIR};

/// The workloads, by command-line name.
const WORKLOADS: [&str; 3] = [
    "serve_inline_closed",
    "serve_queued_open",
    "pipeline_retrain",
];

struct Args {
    workload: String,
    options: RunOptions,
    rustc: String,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rustc = "unknown".to_string();
    let mut revision = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--rustc" => rustc = value()?,
            "--revision" => revision = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        options: RunOptions {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
        rustc,
        revision,
    })
}

/// The host's CPU model, from `/proc/cpuinfo` where there is one.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let opts = &args.options;
    if let Err(error) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: creating {OUT_DIR}: {error}");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stamp = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"revision\":{},\"nproc\":{nproc},\"cpu\":{},\"rustc\":{}}}",
        json_string(&args.workload),
        opts.seed,
        json_number(opts.seconds),
        opts.trace,
        json_string(&args.revision),
        json_string(&cpu_model()),
        json_string(&args.rustc),
    );
    println!("stamp {stamp}");

    let mut result: RunResult = match args.workload.as_str() {
        "serve_inline_closed" => inline::run(opts),
        "serve_queued_open" => queued::run(opts),
        "pipeline_retrain" => pipeline::run(opts),
        _ => unreachable!("workload names are checked while parsing"),
    };
    report::complete_metrics(&mut result, opts.trace);

    let tally = result.tally;
    for failure in &result.check_failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let correct = result.check_failures.is_empty() && tally.wrong == 0 && tally.sent > 0;
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    let metrics = format!("{{{}}}", metrics.join(","));
    let details: Vec<String> = result
        .details
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    let report = format!(
        "{{\"stamp\":{stamp},\"correct\":{correct},\"requests\":{},\"check_failures\":[{}],\"metrics\":{metrics},\"details\":{{{}}}}}\n",
        tally.to_json(),
        result
            .check_failures
            .iter()
            .map(|f| json_string(f))
            .collect::<Vec<_>>()
            .join(","),
        details.join(","),
    );
    let report_path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(error) = std::fs::write(&report_path, &report) {
        eprintln!("perfbench: writing {}: {error}", report_path.display());
    }
    println!("requests {}", tally.to_json());
    println!("report {}", report_path.display());
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        tally.sent,
        tally.failed()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
