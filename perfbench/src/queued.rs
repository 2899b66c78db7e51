//! `serve_queued_open`: a Poisson open loop at a fixed rate against a
//! two-shard fleet. One generator thread featurizes each request when it
//! is due and calls `ShardedRuntime::try_submit_detached`; one collector
//! thread redeems the tickets and prices the answers. Latency runs from
//! each request's due time, so a late generator counts against it. This
//! exercises ring routing, QoS queues, batching, work stealing and
//! completion wake-ups, which the inline workload bypasses.

use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ae_ml::matrix::FeatureMatrix;
use ae_serve::{
    FleetConfig, FleetStats, RuntimeConfig, ScoreRequest, ScoreTicket, ServeError, ServiceLevel,
    ShardedRuntime,
};
use ae_workload::TaggedArrival;
use autoexecutor::{featurize_plan, full_feature_names, score_feature_batch, ParameterModel};

use crate::common::{
    level_of, stream_seed, tenant_of, timed_setup, EndToEnd, RunOptions, RunResult, ServingFixture,
    Tally, MODEL_NAME, WARMUP,
};
use crate::report::{
    coverage_metric, runtime_layer_metrics, self_time_json, write_spans, LatencyWindows,
};
use crate::stats::{median, percentile, DueTimes};
use crate::trace::{by_name, Tracer};

/// Offered load, requests per second. At 20 000 req/s a 2-core host runs
/// near saturation (about 90 % busy, half of it in the kernel) and the
/// latency of a run depends more on the host's neighbours than on the
/// program; at 5 000 req/s the batcher still sees queued work.
const RATE: f64 = 5_000.0;

/// Shards in the fleet.
const SHARDS: usize = 2;

/// In the traced half, one request in this many records its spans.
const TRACE_EVERY: u64 = 8;

/// The generator samples the shards' queue depths every this many sends.
const DEPTH_SAMPLE_EVERY: usize = 64;

/// Requests in the replay of routing, and batches in the replay of
/// batched scoring.
const REPLAY_REQUESTS: usize = 20_000;
const REPLAY_BATCHES: usize = 4_000;

/// A sent request on its way from the generator to the collector.
struct Pending {
    ticket: ScoreTicket,
    id: u64,
    index: usize,
    level: ServiceLevel,
    due_ns: u64,
    sent_ns: u64,
    featurized_ns: u64,
    admitted_ns: u64,
}

/// What the collector learned about one answered request. Times are in
/// nanoseconds from the start of the schedule.
#[derive(Debug, Clone)]
struct Answered {
    times: DueTimes,
    /// Index of the plan the request carried.
    index: usize,
    ok: bool,
    /// Why the ticket redeemed no answer, if it did not.
    error: Option<ServeError>,
    within_budget: bool,
    featurize_ns: u64,
    admit_ns: u64,
    /// The runtime's own admission-to-fulfilment latency.
    queue_to_done_ns: u64,
    /// Wait-return minus estimated fulfilment, when the collector began
    /// waiting before the answer was ready.
    wake_ns: Option<u64>,
    quote_ns: u64,
}

impl Answered {
    fn latency_us(&self) -> f64 {
        self.times.latency_ns() as f64 / 1e3
    }
}

/// A request the fleet refused at admission.
struct Refused {
    due_ns: u64,
    error: ServeError,
}

/// Runs the workload.
pub fn run(opts: &RunOptions) -> RunResult {
    let ((fixture, fleet), setup_times) = timed_setup(|| {
        let fixture = ServingFixture::build();
        let fleet = ShardedRuntime::new(
            Arc::clone(&fixture.registry),
            MODEL_NAME,
            FleetConfig::from_auto_executor(SHARDS, &fixture.config),
        );
        fleet.warm().expect("warming the fleet");
        (fixture, fleet)
    });
    let qos = RuntimeConfig::from_auto_executor(&fixture.config).qos;
    let warmup_ns = WARMUP.as_nanos() as u64;
    let measured_ns = (opts.seconds * 1e9) as u64;
    let total_s = WARMUP.as_secs_f64() + opts.seconds;
    // A schedule long enough to outlast the run; arrivals past its end are
    // not sent.
    let schedule = fixture.stream(
        RATE,
        (RATE * total_s * 1.1) as usize + 1000,
        stream_seed(opts.seed, 100),
    );
    let end_ns = warmup_ns + measured_ns;
    // In the traced run, the second half of the measured period records
    // spans; the first half is the untraced comparison.
    let traced_from_ns = if opts.trace {
        warmup_ns + measured_ns / 2
    } else {
        u64::MAX
    };

    let epoch = Instant::now();
    let mut before: Option<FleetStats> = None;
    let mut refused: Vec<Refused> = Vec::new();
    let mut depths: Vec<f64> = Vec::new();
    let (answered, tracer) = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Pending>();
        let fixture = &fixture;
        let collector = scope.spawn(move || collect(fixture, &qos, rx, epoch, traced_from_ns));
        for (i, arrival) in schedule.iter().enumerate() {
            let due_ns = arrival.at.as_nanos() as u64;
            if due_ns >= end_ns {
                break;
            }
            if before.is_none() && due_ns >= warmup_ns {
                before = Some(fleet.stats());
            }
            let now = Instant::now();
            let due = epoch + arrival.at;
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let features = featurize_plan(&fixture.plans[arrival.query_index]);
            let featurized = Instant::now();
            let level = level_of(arrival);
            let submitted = fleet.try_submit_detached(
                ScoreRequest::from_features(features)
                    .with_level(level)
                    .with_tenant(tenant_of(arrival)),
            );
            let admitted = Instant::now();
            let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
            match submitted {
                Ok(ticket) => tx
                    .send(Pending {
                        ticket,
                        id: i as u64,
                        index: arrival.query_index,
                        level,
                        due_ns,
                        sent_ns: ns(sent),
                        featurized_ns: ns(featurized),
                        admitted_ns: ns(admitted),
                    })
                    .expect("the collector outlives the generator"),
                Err(error) => refused.push(Refused { due_ns, error }),
            }
            if i % DEPTH_SAMPLE_EVERY == 0 && due_ns >= traced_from_ns {
                depths.extend(fleet.queue_depths().into_iter().map(|d| d as f64));
            }
        }
        drop(tx);
        collector.join().expect("the collector thread panicked")
    });
    let fleet_delta = fleet
        .stats()
        .delta_since(&before.expect("the schedule reaches the measured period"));

    let in_period = |due_ns: u64, from: u64, to: u64| due_ns >= from && due_ns < to;
    let tally_between = |from: u64, to: u64| {
        let mut tally = Tally::default();
        for a in answered
            .iter()
            .filter(|a| in_period(a.times.due_ns, from, to))
        {
            tally.sent += 1;
            match (&a.error, a.ok) {
                (Some(error), _) => tally.record_error(error),
                (None, true) => tally.ok += 1,
                (None, false) => tally.wrong += 1,
            }
        }
        for r in refused.iter().filter(|r| in_period(r.due_ns, from, to)) {
            tally.sent += 1;
            tally.record_error(&r.error);
        }
        tally
    };
    let lag_p99_us = |from: u64, to: u64| {
        let mut lags: Vec<f64> = answered
            .iter()
            .filter(|a| in_period(a.times.due_ns, from, to))
            .map(|a| a.times.generator_lag_ns() as f64 / 1e3)
            .collect();
        if lags.is_empty() {
            0.0
        } else {
            percentile(&mut lags, 99.0)
        }
    };

    let mut result = RunResult::default();
    if !opts.trace {
        let measured: Vec<&Answered> = answered
            .iter()
            .filter(|a| a.ok && in_period(a.times.due_ns, warmup_ns, end_ns))
            .collect();
        let latency: Vec<(u64, f64)> = measured
            .iter()
            .map(|a| (a.times.due_ns - warmup_ns, a.latency_us()))
            .collect();
        let completions: Vec<u64> = measured
            .iter()
            .map(|a| a.times.done_ns.saturating_sub(warmup_ns))
            .collect();
        let windows = LatencyWindows::new(&latency, &completions, measured_ns);
        let tally = tally_between(warmup_ns, end_ns);
        // A failed or refused request misses its deadline.
        let met = measured.iter().filter(|a| a.within_budget).count();
        let mut served = vec![false; fixture.plans.len()];
        for a in &measured {
            served[a.index] = true;
        }
        result.end_to_end(
            &setup_times,
            EndToEnd {
                throughput_qps: windows.throughput_qps,
                latency_p50_us: windows.p50_us,
                slo_attainment: met as f64 / tally.sent.max(1) as f64,
                success_ratio: tally.success_ratio(),
                decisions: fixture.served_quality(&served),
            },
        );
        // Reported, not bounded: timed from the due time, a host pause of a
        // few milliseconds delays every request due during it, and on a
        // shared host such pauses lifted the p99 of most windows in some
        // runs, several-fold.
        result.detail("latency_p99_us", windows.p99_us);
        windows.add_details(&mut result, &latency);
        result.detail("offered_qps", RATE);
        result.detail(
            "workload.generator_lag_p99_us",
            lag_p99_us(warmup_ns, end_ns),
        );
        result.tally = tally;
        return result;
    }

    // Traced run: per-layer figures from the traced second half.
    let half: Vec<&Answered> = answered
        .iter()
        .filter(|a| a.ok && in_period(a.times.due_ns, traced_from_ns, end_ns))
        .collect();
    let mut plain: Vec<f64> = answered
        .iter()
        .filter(|a| a.ok && in_period(a.times.due_ns, warmup_ns, traced_from_ns))
        .map(Answered::latency_us)
        .collect();
    result.tally = tally_between(warmup_ns, end_ns);
    if half.is_empty() || plain.is_empty() {
        result
            .check_failures
            .push("no request was answered in one half of the traced run".to_string());
        return result;
    }
    let plain_p50 = percentile(&mut plain, 50.0);
    let traced_p50 = percentile(
        &mut half.iter().map(|a| a.latency_us()).collect::<Vec<_>>(),
        50.0,
    );
    let median_us = |f: &dyn Fn(&Answered) -> u64| {
        median(&half.iter().map(|a| f(a) as f64 / 1e3).collect::<Vec<_>>())
    };
    let mut queue_to_done: Vec<f64> = half
        .iter()
        .map(|a| a.queue_to_done_ns as f64 / 1e3)
        .collect();
    let wakes: Vec<f64> = half
        .iter()
        .filter_map(|a| a.wake_ns.map(|w| w as f64 / 1e3))
        .collect();
    let stats = fleet_delta.aggregate();
    let spans = tracer.spans();
    let figures = by_name(spans);

    result.metric("core.featurize_us", median_us(&|a| a.featurize_ns), "us");
    result.metric(
        "fleet.route_us",
        replay_route(&fixture, &fleet, &schedule),
        "us",
    );
    result.metric("serve.admit_us", median_us(&|a| a.admit_ns), "us");
    result.metric(
        "serve.queue_to_done_p50_us",
        percentile(&mut queue_to_done, 50.0),
        "us",
    );
    result.metric(
        "serve.queue_to_done_p99_us",
        percentile(&mut queue_to_done, 99.0),
        "us",
    );
    result.metric(
        "serve.wake_us",
        if wakes.is_empty() {
            0.0
        } else {
            median(&wakes)
        },
        "us",
    );
    result.metric("serve.quote_us", median_us(&|a| a.quote_ns), "us");
    result.metric(
        "ml.predict_batch_row_ns",
        replay_batch(&fixture, stats.mean_batch_size()),
        "ns",
    );
    result.metric(
        "serve.inline_share",
        stats.inline_scored as f64 / stats.completed.max(1) as f64,
        "ratio",
    );
    runtime_layer_metrics(&mut result, &stats);
    result.metric(
        "serve.queue_depth_p99",
        if depths.is_empty() {
            0.0
        } else {
            percentile(&mut depths, 99.0)
        },
        "count",
    );
    result.metric("fleet.steal_ops", fleet_delta.steal_ops as f64, "count");
    result.metric(
        "fleet.stolen_requests",
        fleet_delta.stolen_requests as f64,
        "count",
    );
    let completed: Vec<u64> = fleet_delta.shards.iter().map(|s| s.completed).collect();
    let (max, min) = (
        completed.iter().copied().max().unwrap_or(0),
        completed.iter().copied().min().unwrap_or(0),
    );
    result.metric("fleet.shard_skew", max as f64 / min.max(1) as f64, "ratio");
    result.metric(
        "workload.generator_lag_p99_us",
        lag_p99_us(traced_from_ns, end_ns),
        "us",
    );
    coverage_metric(&mut result, spans, "request");
    result.metric(
        "trace.overhead_pct",
        (traced_p50 - plain_p50) / plain_p50 * 100.0,
        "%",
    );
    result.metric("trace.spans", spans.len() as f64, "count");
    result.detail("untraced_half_p50_us", plain_p50);
    result.detail("traced_half_p50_us", traced_p50);
    result.detail("wake_samples", wakes.len() as f64);
    result.detail_json("self_us", self_time_json(&figures));
    write_spans(&mut result, &tracer, "serve_queued_open", opts);
    result
}

/// The collector: redeems tickets in send order, prices each answer,
/// checks it against the reference, and records its timings (and, for
/// sampled requests of the traced period, its spans).
fn collect(
    fixture: &ServingFixture,
    qos: &ae_serve::QosConfig,
    rx: mpsc::Receiver<Pending>,
    epoch: Instant,
    traced_from_ns: u64,
) -> (Vec<Answered>, Tracer) {
    let mut answered = Vec::new();
    let mut tracer = Tracer::new(epoch);
    for p in rx {
        // Poll first: a ticket already fulfilled has no wake-up to time.
        let (outcome, waited) = match p.ticket.wait_timeout(Duration::ZERO) {
            Ok(outcome) => (outcome, false),
            Err(ticket) => (ticket.wait(), true),
        };
        let woke = Instant::now();
        let (ok, error, queue_to_done, quote_end) = match outcome {
            Ok(outcome) => {
                let quote = outcome.quote();
                let quote_end = Instant::now();
                black_box(&quote);
                let ok = quote.is_some() && fixture.matches(p.index, &outcome.request);
                (ok, None, outcome.latency, quote_end)
            }
            Err(error) => (false, Some(error), Duration::ZERO, woke),
        };
        let woke_ns = tracer.ns(woke);
        let done_ns = tracer.ns(quote_end);
        // Fulfilment, estimated from the admission call's start and the
        // runtime's own latency.
        let fulfilled_ns = p.featurized_ns + queue_to_done.as_nanos() as u64;
        let times = DueTimes {
            due_ns: p.due_ns,
            sent_ns: p.sent_ns,
            done_ns,
        };
        let latency = Duration::from_nanos(times.latency_ns());
        let record = Answered {
            times,
            index: p.index,
            ok,
            error,
            within_budget: ok && latency <= qos.deadline_budget(p.level),
            featurize_ns: p.featurized_ns - p.sent_ns,
            admit_ns: p.admitted_ns - p.featurized_ns,
            queue_to_done_ns: queue_to_done.as_nanos() as u64,
            wake_ns: waited.then(|| woke_ns.saturating_sub(fulfilled_ns)),
            quote_ns: done_ns - woke_ns,
        };
        if p.due_ns >= traced_from_ns && p.id.is_multiple_of(TRACE_EVERY) {
            let id = p.id;
            let root = tracer.record_ns("request", p.due_ns, done_ns, None, id);
            tracer.record_ns("workload.lag", p.due_ns, p.sent_ns, Some(root), id);
            tracer.record_ns("core.featurize", p.sent_ns, p.featurized_ns, Some(root), id);
            tracer.record_ns(
                "serve.admit",
                p.featurized_ns,
                p.admitted_ns,
                Some(root),
                id,
            );
            // Split at the fulfilment the runtime's own latency implies:
            // where it disagrees with the collector's timeline, the stages
            // stop adding up to the request.
            tracer.record_ns(
                "serve.queue_to_done",
                p.admitted_ns,
                fulfilled_ns,
                Some(root),
                id,
            );
            tracer.record_ns("collector.wait", fulfilled_ns, woke_ns, Some(root), id);
            tracer.record_ns("serve.quote", woke_ns, done_ns, Some(root), id);
        }
        answered.push(record);
    }
    (answered, tracer)
}

/// Replays the fleet's routing decision on the run's own requests and
/// returns the median microseconds per `route` call.
fn replay_route(
    fixture: &ServingFixture,
    fleet: &ShardedRuntime,
    schedule: &[TaggedArrival],
) -> f64 {
    let mut times = Vec::with_capacity(REPLAY_REQUESTS);
    for arrival in schedule.iter().cycle().take(REPLAY_REQUESTS) {
        let request =
            ScoreRequest::from_features(featurize_plan(&fixture.plans[arrival.query_index]))
                .with_level(level_of(arrival))
                .with_tenant(tenant_of(arrival));
        let t0 = Instant::now();
        black_box(fleet.route(black_box(&request)));
        times.push((Instant::now() - t0).as_secs_f64() * 1e6);
    }
    median(&times)
}

/// Replays batched scoring at the run's mean batch size on the served
/// model and returns the median nanoseconds per row.
fn replay_batch(fixture: &ServingFixture, mean_batch: f64) -> f64 {
    let batch = (mean_batch.round() as usize).max(1);
    let portable = fixture
        .registry
        .load(MODEL_NAME)
        .expect("the model is registered");
    let model = ParameterModel::from_portable(&portable).expect("decoding the model");
    let counts = fixture.config.candidate_counts();
    let rows: Vec<Vec<f64>> = fixture.plans.iter().map(featurize_plan).collect();
    let width = full_feature_names().len();
    let mut per_row = Vec::with_capacity(REPLAY_BATCHES);
    for b in 0..REPLAY_BATCHES {
        let mut matrix = FeatureMatrix::with_capacity(width, batch);
        for r in 0..batch {
            matrix
                .push_row(&rows[(b * batch + r) % rows.len()])
                .expect("feature rows have the model's width");
        }
        let t0 = Instant::now();
        black_box(
            score_feature_batch(
                &model,
                black_box(&matrix),
                fixture.config.objective,
                &counts,
            )
            .expect("replayed batch scoring"),
        );
        per_row.push((Instant::now() - t0).as_nanos() as f64 / batch as f64);
    }
    median(&per_row)
}
