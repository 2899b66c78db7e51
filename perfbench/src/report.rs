//! Reporting shared by the workloads: windowed rates and percentiles and
//! runtime counters for the serving workloads, and the span coverage
//! check, self times and span output for every traced run.

use std::collections::BTreeMap;
use std::path::Path;

use ae_serve::{RuntimeStats, ServiceLevel};

use crate::common::{json_number, RunOptions, RunResult, OUT_DIR, WINDOW};
use crate::stats::{highest_supported_percentile, median, per_window, percentile};
use crate::trace::{stage_coverage, LayerFigures, Span, Tracer};

/// How far the stage spans of a traced request may add up from its
/// end-to-end span before the trace counts as broken.
pub const COVERAGE_TOLERANCE: f64 = 0.05;

/// The end-to-end metrics a `--trace 0` run reports, with their units, in
/// the order of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_us", "us"),
    ("slo_attainment", "ratio"),
    ("success_ratio", "ratio"),
    ("occupancy_saving_vs_da", "ratio"),
    ("speedup_vs_da", "ratio"),
];

/// The per-layer metrics a `--trace 1` run reports, with their units, in
/// the order of `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("core.featurize_us", "us"),
    ("ml.predict_row_us", "us"),
    ("ppm.select_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.runtime_self_us", "us"),
    ("serve.quote_us", "us"),
    ("serve.inline_share", "ratio"),
    ("fleet.route_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.queue_to_done_p50_us", "us"),
    ("serve.queue_to_done_p99_us", "us"),
    ("serve.wake_us", "us"),
    ("ml.predict_batch_row_ns", "ns"),
    ("serve.mean_batch_size", "count"),
    ("serve.batches", "count"),
    ("serve.queue_depth_p99", "count"),
    ("serve.deadline_miss.interactive", "count"),
    ("serve.deadline_miss.standard", "count"),
    ("serve.deadline_miss.best_effort", "count"),
    ("serve.shed", "count"),
    ("serve.dropped", "count"),
    ("serve.errors", "count"),
    ("fleet.steal_ops", "count"),
    ("fleet.stolen_requests", "count"),
    ("fleet.shard_skew", "ratio"),
    ("workload.generator_lag_p99_us", "us"),
    ("workload.generate_ms", "ms"),
    ("core.collect_ms", "ms"),
    ("engine.simulate_ms", "ms"),
    ("sparklens.estimate_ms", "ms"),
    ("ppm.fit_ms", "ms"),
    ("ml.fit_ms", "ms"),
    ("ml.compile_ms", "ms"),
    ("ml.encode_ms", "ms"),
    ("ml.decode_ms", "ms"),
    ("ml.model_bytes", "bytes"),
    ("core.score_batch_ms", "ms"),
    ("engine.compare_ms", "ms"),
    ("engine.runs", "count"),
    ("core.mean_executors", "count"),
    ("trace.stage_coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Puts a run's metrics in the order of [`END_TO_END`] (untraced) or
/// [`PER_LAYER`] (traced), so that every run reports the whole list. A
/// per-layer metric of a layer the workload does not exercise reads 0 and
/// is named in the report's `layers_not_exercised`. A missing end-to-end
/// metric, or a metric outside the list, fails the run's checks.
pub fn complete_metrics(result: &mut RunResult, trace: bool) {
    let expected: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut given = std::mem::take(&mut result.metrics);
    let mut idle = Vec::new();
    for &(name, unit) in expected {
        match given.iter().position(|m| m.name == name && m.unit == unit) {
            Some(i) => result.metrics.push(given.remove(i)),
            None if trace => {
                result.metric(name, 0.0, unit);
                idle.push(format!("\"{name}\""));
            }
            None => result
                .check_failures
                .push(format!("the run reported no {name} in {unit}")),
        }
    }
    for m in given {
        result.check_failures.push(format!(
            "the run reported {} in {}, which is not listed",
            m.name, m.unit
        ));
    }
    if trace {
        result.detail_json("layers_not_exercised", format!("[{}]", idle.join(",")));
    }
}

/// Windowed summary of a serving phase. The measured period is split into
/// equal windows of about [`WINDOW`]; each figure is the median over
/// windows of that window's value, so a stall confined to a few windows
/// does not move it.
#[derive(Debug, Clone)]
pub struct LatencyWindows {
    /// Each window's p50 latency, in window order.
    pub window_p50s_us: Vec<f64>,
    /// Each window's p99 latency, in window order.
    pub window_p99s_us: Vec<f64>,
    /// Median over windows of completions per second.
    pub throughput_qps: f64,
    /// Median over windows of the window's p50 latency.
    pub p50_us: f64,
    /// Median over windows of the window's p99 latency. Only windows with
    /// enough samples to support p99 count.
    pub p99_us: f64,
}

impl LatencyWindows {
    /// Summarizes `(time ns, latency µs)` latency samples (windowed by
    /// their time stamp) and completion time stamps (ns) over a measured
    /// period of `measured_ns`.
    pub fn new(latency: &[(u64, f64)], completions: &[u64], measured_ns: u64) -> Self {
        let windows = ((measured_ns as f64 / WINDOW.as_nanos() as f64).round() as usize).max(1);
        let window_s = measured_ns as f64 / 1e9 / windows as f64;
        let counted: Vec<(u64, f64)> = completions.iter().map(|&t| (t, 1.0)).collect();
        let rates = per_window(&counted, measured_ns, windows, 1, |w| {
            w.len() as f64 / window_s
        });
        let p50s = per_window(latency, measured_ns, windows, 1, |w| percentile(w, 50.0));
        // p99 needs ten samples beyond it: at least 1000 per window.
        let p99s = per_window(latency, measured_ns, windows, 1000, |w| percentile(w, 99.0));
        let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        Self {
            throughput_qps: or_zero(&rates),
            p50_us: or_zero(&p50s),
            p99_us: or_zero(&p99s),
            window_p50s_us: p50s,
            window_p99s_us: p99s,
        }
    }

    /// Adds whole-period percentiles to the report: the sample count, the
    /// median, and the highest percentile the sample supports.
    pub fn add_details(&self, result: &mut RunResult, latency: &[(u64, f64)]) {
        let mut all: Vec<f64> = latency.iter().map(|&(_, v)| v).collect();
        result.detail("latency_samples", all.len() as f64);
        let list = |v: &[f64]| {
            let items: Vec<String> = v.iter().map(|&x| json_number(x)).collect();
            format!("[{}]", items.join(","))
        };
        result.detail_json("latency_window_p50s_us", list(&self.window_p50s_us));
        result.detail_json("latency_window_p99s_us", list(&self.window_p99s_us));
        if all.is_empty() {
            return;
        }
        result.detail("latency_whole_run_p50_us", percentile(&mut all, 50.0));
        if let Some(p) = highest_supported_percentile(all.len()) {
            result.detail("latency_highest_supported_percentile", p);
            result.detail(
                "latency_whole_run_highest_percentile_us",
                percentile(&mut all, p),
            );
        }
    }
}

/// The runtime's own counters over a phase, as per-layer figures.
pub fn runtime_layer_metrics(result: &mut RunResult, stats: &RuntimeStats) {
    result.metric("serve.batches", stats.batches as f64, "count");
    result.metric("serve.mean_batch_size", stats.mean_batch_size(), "count");
    for (level, name) in [
        (ServiceLevel::Interactive, "interactive"),
        (ServiceLevel::Standard, "standard"),
        (ServiceLevel::BestEffort, "best_effort"),
    ] {
        result.metric(
            format!("serve.deadline_miss.{name}"),
            stats.level(level).deadline_misses as f64,
            "count",
        );
    }
    result.metric("serve.shed", stats.shed() as f64, "count");
    result.metric("serve.dropped", stats.dropped as f64, "count");
    result.metric("serve.errors", stats.errors as f64, "count");
}

/// Reports how much of the root spans' time their stage spans cover, and
/// fails the run's checks when that is off by more than
/// [`COVERAGE_TOLERANCE`].
pub fn coverage_metric(result: &mut RunResult, spans: &[Span], root: &str) {
    let coverage = stage_coverage(spans, root);
    result.metric("trace.stage_coverage", coverage, "ratio");
    if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        result.check_failures.push(format!(
            "stage spans cover {coverage:.4} of the {root} spans, outside 1 ± {COVERAGE_TOLERANCE}"
        ));
    }
}

/// Per-span-name summed self time in microseconds, as a JSON object.
pub fn self_time_json(figures: &BTreeMap<&'static str, LayerFigures>) -> String {
    let fields: Vec<String> = figures
        .iter()
        .map(|(name, f)| format!("\"{name}\":{}", json_number(f.self_ns as f64 / 1e3)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Writes the traced run's spans next to the run report and notes the file
/// in the report.
pub fn write_spans(result: &mut RunResult, tracer: &Tracer, workload: &str, opts: &RunOptions) {
    let path = Path::new(OUT_DIR).join(format!("spans-{workload}-seed{}.jsonl", opts.seed));
    match crate::trace::write_jsonl(tracer.spans(), &path) {
        Ok(()) => result.detail_json("spans_file", format!("\"{}\"", path.display())),
        Err(error) => result
            .check_failures
            .push(format!("writing {}: {error}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn manifest_list(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("reading BENCHMARK.json");
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        let start = compact
            .find(&format!("\"{key}\":["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let list = &compact[start..];
        let list = &list[..list.find(']').expect("the list ends")];
        let field = |item: &str, name: &str| {
            let from =
                item.find(&format!("\"{name}\":\"")).expect("field present") + name.len() + 4;
            item[from..from + item[from..].find('"').expect("string ends")].to_string()
        };
        list.split('{')
            .skip(1)
            .map(|item| (field(item, "name"), field(item, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(owned(&END_TO_END), manifest_list("end_to_end"));
        assert_eq!(owned(&PER_LAYER), manifest_list("per_layer"));
    }

    #[test]
    fn completing_metrics_fills_idle_layers_and_flags_gaps() {
        let mut traced = RunResult::default();
        traced.metric("trace.spans", 12.0, "count");
        complete_metrics(&mut traced, true);
        assert!(traced.check_failures.is_empty());
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        let spans = traced.metrics.iter().find(|m| m.name == "trace.spans");
        assert_eq!(spans.map(|m| m.value), Some(12.0));
        assert_eq!(traced.metrics[0].value, 0.0);

        let mut plain = RunResult::default();
        plain.metric("setup_s", 1.0, "s");
        plain.metric("cycle_s", 1.0, "s");
        complete_metrics(&mut plain, false);
        // Six end-to-end metrics missing, one not listed.
        assert_eq!(plain.check_failures.len(), END_TO_END.len());
        assert_eq!(plain.metrics.len(), 1);
    }

    #[test]
    fn windows_report_medians_over_windows() {
        // 10 s at 2 000 samples a second: 50 windows of 400 samples at
        // 100 µs, except that every sample is 5 000 µs in 20 of them.
        let measured_ns = 10_000_000_000u64;
        let latency: Vec<(u64, f64)> = (0..20_000u64)
            .map(|i| {
                let t = i * 500_000;
                let disturbed = (t / 200_000_000) % 5 < 2;
                (t, if disturbed { 5_000.0 } else { 100.0 })
            })
            .collect();
        let completions: Vec<u64> = latency.iter().map(|&(t, _)| t).collect();
        let w = LatencyWindows::new(&latency, &completions, measured_ns);
        assert_eq!(w.window_p50s_us.len(), 50);
        assert_eq!(w.throughput_qps, 2_000.0);
        assert_eq!(w.p50_us, 100.0);
        // 400 samples per window cannot support p99: no tail reported.
        assert!(w.window_p99s_us.is_empty());
        assert_eq!(w.p99_us, 0.0);

        // At 10 000 samples a second each window holds 2 000 samples.
        let dense: Vec<(u64, f64)> = (0..100_000u64)
            .map(|i| {
                let t = i * 100_000;
                let disturbed = (t / 200_000_000) % 5 < 2;
                let slow = i % 100 == 0 || (disturbed && i % 50 == 1);
                (t, if slow { 5_000.0 } else { 100.0 })
            })
            .collect();
        let w = LatencyWindows::new(&dense, &[], measured_ns);
        assert_eq!(w.window_p99s_us.len(), 50);
        // 40 % of windows have 3 % slow samples (p99 5 000 µs), the rest
        // 1 % (p99 100 µs): the median over windows ignores the minority.
        assert_eq!(w.p99_us, 100.0);
        assert_eq!(w.throughput_qps, 0.0);
    }
}
