//! `serve_inline_closed`: two closed-loop clients call
//! `ScoringRuntime::submit` and then `ScoreOutcome::quote` on plans drawn
//! from the mixed-family SF10 + SF100 suite. On an idle runtime the
//! submitting thread scores inline, so this is the optimizer-rule path:
//! featurize → forest → PPM selection → pricing, with the queue unused.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ae_serve::{QosConfig, RuntimeConfig, RuntimeStats, ScoreRequest, ScoringRuntime};
use ae_workload::TaggedArrival;
use autoexecutor::{featurize_plan, ParameterModel};

use crate::common::{
    level_of, stream_seed, tenant_of, timed_setup, us, EndToEnd, RunOptions, RunResult,
    ServingFixture, Tally, MODEL_NAME, WARMUP,
};
use crate::report::{
    coverage_metric, runtime_layer_metrics, self_time_json, write_spans, LatencyWindows,
};
use crate::stats::median;
use crate::trace::{by_name, Tracer};

/// Closed-loop clients (the host's core count of the reference machine).
const CLIENTS: usize = 2;

/// Length of each client's request sequence (cycled).
const SEQUENCE: usize = 8192;

/// In the traced phase, one request in this many records its spans.
const TRACE_EVERY: u64 = 64;

/// Passes over every plan in the client-side replay of inference and
/// selection.
const REPLAY_PASSES: usize = 20;

/// What one client measured.
struct ClientOutput {
    samples: Vec<(u64, f64)>,
    tally: Tally,
    /// Correct answers within their level's deadline budget.
    met: u64,
    /// Plans answered correctly, by index.
    served: Vec<bool>,
    tracer: Tracer,
}

/// What one timed phase of the closed loop measured.
struct Phase {
    /// `(start offset from the measured period's start, latency µs)` of
    /// every correctly answered request.
    samples: Vec<(u64, f64)>,
    tally: Tally,
    /// Correct answers within their level's deadline budget.
    met: u64,
    /// Plans answered correctly, by index.
    served: Vec<bool>,
    measured_ns: u64,
    stats: RuntimeStats,
    tracer: Option<Tracer>,
}

/// Runs the workload.
pub fn run(opts: &RunOptions) -> RunResult {
    let ((fixture, runtime), setup_times) = timed_setup(|| {
        let fixture = ServingFixture::build();
        let runtime = ScoringRuntime::new(
            Arc::clone(&fixture.registry),
            MODEL_NAME,
            RuntimeConfig::from_auto_executor(&fixture.config),
        );
        runtime.warm().expect("warming the runtime");
        (fixture, runtime)
    });
    let streams: Vec<Vec<TaggedArrival>> = (0..CLIENTS as u64)
        .map(|c| fixture.stream(1.0, SEQUENCE, stream_seed(opts.seed, c)))
        .collect();

    let qos = RuntimeConfig::from_auto_executor(&fixture.config).qos;

    let mut result = RunResult::default();
    if !opts.trace {
        let phase = run_phase(&fixture, &runtime, &qos, &streams, opts.seconds, false);
        let starts: Vec<u64> = phase.samples.iter().map(|&(t, _)| t).collect();
        let windows = LatencyWindows::new(&phase.samples, &starts, phase.measured_ns);
        result.end_to_end(
            &setup_times,
            EndToEnd {
                throughput_qps: windows.throughput_qps,
                latency_p50_us: windows.p50_us,
                slo_attainment: phase.met as f64 / phase.tally.sent.max(1) as f64,
                success_ratio: phase.tally.success_ratio(),
                decisions: fixture.served_quality(&phase.served),
            },
        );
        result.detail("latency_p99_us", windows.p99_us);
        windows.add_details(&mut result, &phase.samples);
        result.detail(
            "serve.inline_share",
            inline_share(&phase.stats).unwrap_or(0.0),
        );
        result.tally = phase.tally;
        return result;
    }

    // Traced run: an untraced half, then a traced half; the difference is
    // the tracing overhead. Per-layer figures come from the traced half.
    let half = opts.seconds / 2.0;
    let plain = run_phase(&fixture, &runtime, &qos, &streams, half, false);
    let traced = run_phase(&fixture, &runtime, &qos, &streams, half, true);
    let plain_qps = plain.samples.len() as f64 / (plain.measured_ns as f64 / 1e9);
    let traced_qps = traced.samples.len() as f64 / (traced.measured_ns as f64 / 1e9);
    let tracer = traced.tracer.expect("the traced phase records spans");
    let spans = tracer.spans();
    let figures = by_name(spans);
    let span_median_us = |name: &str| {
        figures
            .get(name)
            .map_or(0.0, |f| median(&f.durations_ns) / 1e3)
    };
    let (predict_us, select_us) = replay_inference(&fixture);
    let submit_us = span_median_us("serve.submit");

    result.metric("core.featurize_us", span_median_us("core.featurize"), "us");
    result.metric("ml.predict_row_us", predict_us, "us");
    result.metric("ppm.select_us", select_us, "us");
    result.metric("serve.submit_us", submit_us, "us");
    result.metric(
        "serve.runtime_self_us",
        (submit_us - predict_us - select_us).max(0.0),
        "us",
    );
    result.metric("serve.quote_us", span_median_us("serve.quote"), "us");
    result.metric(
        "serve.inline_share",
        inline_share(&traced.stats).unwrap_or(0.0),
        "ratio",
    );
    runtime_layer_metrics(&mut result, &traced.stats);
    coverage_metric(&mut result, spans, "request");
    result.metric(
        "trace.overhead_pct",
        (plain_qps - traced_qps) / plain_qps * 100.0,
        "%",
    );
    result.metric("trace.spans", spans.len() as f64, "count");
    result.detail("untraced_half_qps", plain_qps);
    result.detail("traced_half_qps", traced_qps);
    result.detail_json("self_us", self_time_json(&figures));
    write_spans(&mut result, &tracer, "serve_inline_closed", opts);
    result.tally = plain.tally;
    result.tally.merge(&traced.tally);
    result
}

/// Share of completed requests the submitting thread scored inline.
fn inline_share(stats: &RuntimeStats) -> Option<f64> {
    (stats.completed > 0).then(|| stats.inline_scored as f64 / stats.completed as f64)
}

/// One timed phase: a warm-up, then `seconds` of measured closed-loop load.
fn run_phase(
    fixture: &ServingFixture,
    runtime: &ScoringRuntime,
    qos: &QosConfig,
    streams: &[Vec<TaggedArrival>],
    seconds: f64,
    traced: bool,
) -> Phase {
    let start = Instant::now();
    let measure_from = start + WARMUP;
    let end = measure_from + Duration::from_secs_f64(seconds);
    let mut before: Option<RuntimeStats> = None;
    let outputs: Vec<ClientOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(client, stream)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut tally = Tally::default();
                    let mut met = 0u64;
                    let mut served = vec![false; fixture.plans.len()];
                    let mut tracer = Tracer::new(measure_from);
                    let mut i = 0usize;
                    loop {
                        let arrival = &stream[i % stream.len()];
                        i += 1;
                        let t0 = Instant::now();
                        if t0 >= end {
                            break;
                        }
                        let measured = t0 >= measure_from;
                        let index = arrival.query_index;
                        let level = level_of(arrival);
                        let features = featurize_plan(&fixture.plans[index]);
                        let t1 = Instant::now();
                        let request = ScoreRequest::from_features(features)
                            .with_level(level)
                            .with_tenant(tenant_of(arrival));
                        let t1b = Instant::now();
                        let outcome = runtime.submit(request);
                        let t2 = Instant::now();
                        let outcome = match outcome {
                            Ok(outcome) => outcome,
                            Err(error) => {
                                if measured {
                                    tally.sent += 1;
                                    tally.record_error(&error);
                                }
                                continue;
                            }
                        };
                        let quote = outcome.quote();
                        let t3 = Instant::now();
                        black_box(&quote);
                        if !measured {
                            continue;
                        }
                        tally.sent += 1;
                        if quote.is_none() || !fixture.matches(index, &outcome.request) {
                            tally.wrong += 1;
                            continue;
                        }
                        tally.ok += 1;
                        served[index] = true;
                        let latency = t3 - t0;
                        if latency <= qos.deadline_budget(level) {
                            met += 1;
                        }
                        samples.push((tracer.ns(t0), us(latency)));
                        let id = ((client as u64) << 48) | i as u64;
                        if traced && (i as u64).is_multiple_of(TRACE_EVERY) {
                            let root = tracer.record("request", t0, t3, None, id);
                            tracer.record("core.featurize", t0, t1, Some(root), id);
                            tracer.record("serve.submit", t1b, t2, Some(root), id);
                            tracer.record("serve.quote", t2, t3, Some(root), id);
                        }
                    }
                    ClientOutput {
                        samples,
                        tally,
                        met,
                        served,
                        tracer,
                    }
                })
            })
            .collect();
        // Counters from the end of the warm-up on.
        let now = Instant::now();
        if measure_from > now {
            std::thread::sleep(measure_from - now);
        }
        before = Some(runtime.stats());
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let stats = runtime
        .stats()
        .delta_since(&before.expect("counters read after warm-up"));
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    let mut met = 0;
    let mut served = vec![false; fixture.plans.len()];
    let mut tracer = Tracer::new(measure_from);
    for client in outputs {
        samples.extend(client.samples);
        tally.merge(&client.tally);
        met += client.met;
        for (all, s) in served.iter_mut().zip(client.served) {
            *all |= s;
        }
        tracer.absorb(client.tracer);
    }
    Phase {
        samples,
        tally,
        met,
        served,
        measured_ns: Duration::from_secs_f64(seconds).as_nanos() as u64,
        stats,
        tracer: traced.then_some(tracer),
    }
}

/// Client-side replay of the runtime's per-row work on the model it
/// serves: forest inference, then curve evaluation and selection.
/// Returns the median microseconds of each.
fn replay_inference(fixture: &ServingFixture) -> (f64, f64) {
    let portable = fixture
        .registry
        .load(MODEL_NAME)
        .expect("the model is registered");
    let model = ParameterModel::from_portable(&portable).expect("decoding the model");
    let counts = fixture.config.candidate_counts();
    let objective = fixture.config.objective;
    let rows: Vec<Vec<f64>> = fixture.plans.iter().map(featurize_plan).collect();
    let mut predict = Vec::with_capacity(rows.len() * REPLAY_PASSES);
    let mut select = Vec::with_capacity(rows.len() * REPLAY_PASSES);
    for _ in 0..REPLAY_PASSES {
        for row in &rows {
            let t0 = Instant::now();
            let ppm = model
                .predict_ppm_from_full_features(black_box(row))
                .expect("replayed inference");
            let t1 = Instant::now();
            let curve = ppm.predict_curve(&counts);
            black_box(objective.select(&curve));
            let t2 = Instant::now();
            predict.push(us(t1 - t0));
            select.push(us(t2 - t1));
        }
    }
    (median(&predict), median(&select))
}
