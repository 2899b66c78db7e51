//! `pipeline_retrain`: the offline write side of the model, repeated.
//! Each cycle generates the suites, collects training data (simulate,
//! Sparklens, PPM fit), trains and compiles the forest, encodes and
//! decodes the model, scores the SF100 suite in one batch and compares
//! the Rule, DA(1,48) and SA(48) allocations for every query.
//!
//! The seed permutes the order the SF100 queries are scored and simulated
//! in. Decisions and their aggregates are independent of that order, so
//! `occupancy_saving_vs_da` and `speedup_vs_da` must read the same on every
//! run: any change to them is a change in behaviour, not in speed.
//!
//! A cycle answers every SF100 query at its end, so a query's latency is
//! the cycle's time and the throughput is SF100 queries per cycle second.
//! Cycles carry no deadline: a correct cycle meets its SLO.

use std::hint::black_box;
use std::time::Instant;

use ae_engine::allocation::AllocationPolicy;
use ae_engine::scheduler::{RunConfig, Simulator};
use ae_ml::matrix::FeatureMatrix;
use ae_ml::{CompiledForest, PortableModel};
use ae_ppm::{fit_amdahl, fit_power_law};
use ae_sparklens::SparklensAnalyzer;
use ae_workload::{QueryInstance, ScaleFactor, WorkloadGenerator};
use autoexecutor::{
    compare_allocations, featurize_plan, full_feature_names, score_feature_batch,
    AutoExecutorConfig, ParameterModel, ResourceRequest, TrainingData,
};

use crate::common::{
    timed_setup, DecisionQuality, EndToEnd, RunOptions, RunResult, Tally, COMPARE_SEED,
    MAX_EXECUTORS,
};
use crate::report::{coverage_metric, self_time_json, write_spans};
use crate::stats::median;
use crate::trace::{by_name, Tracer};

/// Cycles measured at least, however short the run.
const MIN_CYCLES: usize = 3;

/// Passes of the sequential replay that splits collection into its parts.
const REPLAY_PASSES: usize = 3;

/// Stage names of one cycle, in order.
const STAGES: [&str; 8] = [
    "workload.generate",
    "core.collect",
    "ml.fit",
    "ml.compile",
    "ml.encode",
    "ml.decode",
    "core.score_batch",
    "engine.compare",
];

/// What one cycle produced.
struct Cycle {
    /// Stage boundaries: `bounds[i]..bounds[i + 1]` is stage `STAGES[i]`.
    bounds: [Instant; STAGES.len() + 1],
    /// Executor count decided for each SF100 query, in suite order.
    decisions: Vec<usize>,
    quality: DecisionQuality,
    model_bytes: usize,
    engine_runs: usize,
    mean_executors: f64,
    /// Failed checks of this cycle.
    failures: Vec<String>,
}

impl Cycle {
    fn seconds(&self) -> f64 {
        (self.bounds[STAGES.len()] - self.bounds[0]).as_secs_f64()
    }

    fn stage_ms(&self, stage: usize) -> f64 {
        (self.bounds[stage + 1] - self.bounds[stage]).as_secs_f64() * 1e3
    }

    /// The decision outputs, bit for bit, for comparing cycles.
    fn decision_key(&self) -> (Vec<usize>, u64, u64) {
        (
            self.decisions.clone(),
            self.quality.occupancy_saving.to_bits(),
            self.quality.speedup.to_bits(),
        )
    }
}

/// Runs the workload.
pub fn run(opts: &RunOptions) -> RunResult {
    let config = AutoExecutorConfig::default();
    let order = permutation(
        WorkloadGenerator::new(ScaleFactor::SF100).suite().len(),
        opts.seed,
    );
    // Set-up: a reference cycle, whose decisions every measured cycle
    // must repeat exactly.
    let (reference, setup_times) = timed_setup(|| run_cycle(&config, &order));
    let reference = reference.expect("the reference cycle runs");

    let mut result = RunResult::default();
    result
        .check_failures
        .extend(reference.failures.iter().map(|f| format!("reference: {f}")));
    // A traced run splits its period: an untraced half, then a traced one.
    let period = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (plain, plain_tally) = run_cycles(&config, &order, &reference, period, &mut result);
    if plain.is_empty() {
        result.tally = plain_tally;
        return result;
    }
    if !opts.trace {
        let times: Vec<f64> = plain.iter().map(Cycle::seconds).collect();
        let cycle_s = median(&times);
        let queries = reference.decisions.len() as f64;
        result.end_to_end(
            &setup_times,
            EndToEnd {
                throughput_qps: queries / cycle_s,
                latency_p50_us: cycle_s * 1e6,
                slo_attainment: plain_tally.success_ratio(),
                success_ratio: plain_tally.success_ratio(),
                decisions: reference.quality,
            },
        );
        result.detail("cycle_s", cycle_s);
        let items: Vec<String> = times
            .iter()
            .map(|&t| crate::common::json_number(t))
            .collect();
        result.detail_json("cycle_times_s", format!("[{}]", items.join(",")));
        result.detail("cycles", plain.len() as f64);
        result.detail("sf100_queries", reference.decisions.len() as f64);
        result.tally = plain_tally;
        return result;
    }
    let (traced, traced_tally) = run_cycles(&config, &order, &reference, period, &mut result);
    result.tally = plain_tally;
    result.tally.merge(&traced_tally);
    if traced.is_empty() {
        return result;
    }
    let epoch = traced[0].bounds[0];
    let mut tracer = Tracer::new(epoch);
    for (id, cycle) in traced.iter().enumerate() {
        let id = id as u64;
        let root = tracer.record(
            "cycle",
            cycle.bounds[0],
            cycle.bounds[STAGES.len()],
            None,
            id,
        );
        for (i, name) in STAGES.iter().enumerate() {
            tracer.record(name, cycle.bounds[i], cycle.bounds[i + 1], Some(root), id);
        }
    }
    let stage_median = |i: usize| median(&traced.iter().map(|c| c.stage_ms(i)).collect::<Vec<_>>());
    let (simulate_ms, estimate_ms, fit_ms) = replay_collect(&config);
    let plain_s = median(&plain.iter().map(Cycle::seconds).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(Cycle::seconds).collect::<Vec<_>>());

    result.metric("workload.generate_ms", stage_median(0), "ms");
    result.metric("core.collect_ms", stage_median(1), "ms");
    result.metric("engine.simulate_ms", simulate_ms, "ms");
    result.metric("sparklens.estimate_ms", estimate_ms, "ms");
    result.metric("ppm.fit_ms", fit_ms, "ms");
    result.metric("ml.fit_ms", stage_median(2), "ms");
    result.metric("ml.compile_ms", stage_median(3), "ms");
    result.metric("ml.encode_ms", stage_median(4), "ms");
    result.metric("ml.decode_ms", stage_median(5), "ms");
    result.metric("ml.model_bytes", reference.model_bytes as f64, "bytes");
    result.metric("core.score_batch_ms", stage_median(6), "ms");
    result.metric("engine.compare_ms", stage_median(7), "ms");
    result.metric("engine.runs", reference.engine_runs as f64, "count");
    result.metric("core.mean_executors", reference.mean_executors, "count");
    coverage_metric(&mut result, tracer.spans(), "cycle");
    result.metric(
        "trace.overhead_pct",
        (traced_s - plain_s) / plain_s * 100.0,
        "%",
    );
    result.metric("trace.spans", tracer.spans().len() as f64, "count");
    result.detail_json("self_us", self_time_json(&by_name(tracer.spans())));
    write_spans(&mut result, &tracer, "pipeline_retrain", opts);
    result
}

/// Runs cycles for `seconds` (at least [`MIN_CYCLES`] attempts), checking
/// each against the reference. Returns the cycles that ran and the tally.
fn run_cycles(
    config: &AutoExecutorConfig,
    order: &[usize],
    reference: &Cycle,
    seconds: f64,
    result: &mut RunResult,
) -> (Vec<Cycle>, Tally) {
    let start = Instant::now();
    let mut cycles = Vec::new();
    let mut tally = Tally::default();
    while tally.sent < MIN_CYCLES as u64 || start.elapsed().as_secs_f64() < seconds {
        tally.sent += 1;
        let cycle = match run_cycle(config, order) {
            Ok(cycle) => cycle,
            Err(error) => {
                tally.error += 1;
                result.check_failures.push(format!("cycle failed: {error}"));
                continue;
            }
        };
        let mut failures = cycle.failures.clone();
        if cycle.decision_key() != reference.decision_key() {
            failures.push("decisions differ from the reference cycle".to_string());
        }
        if failures.is_empty() {
            tally.ok += 1;
        } else {
            tally.wrong += 1;
            result.check_failures.extend(failures);
        }
        cycles.push(cycle);
    }
    (cycles, tally)
}

/// One timed cycle, followed by its (untimed) output checks.
fn run_cycle(config: &AutoExecutorConfig, order: &[usize]) -> autoexecutor::Result<Cycle> {
    let counts = config.candidate_counts();
    let t0 = Instant::now();
    let training = WorkloadGenerator::new(ScaleFactor::SF10).suite();
    let eval = WorkloadGenerator::new(ScaleFactor::SF100).suite();
    let t1 = Instant::now();
    let data = TrainingData::collect(&training, config)?;
    let t2 = Instant::now();
    let model = ParameterModel::train(&data, config)?;
    let t3 = Instant::now();
    let compiled =
        CompiledForest::compile(model.forest()).map_err(autoexecutor::AutoExecutorError::Ml)?;
    let t4 = Instant::now();
    let bytes = model
        .to_portable("perfbench")?
        .to_bytes()
        .map_err(autoexecutor::AutoExecutorError::Ml)?;
    let t5 = Instant::now();
    let decoded = ParameterModel::from_portable(
        &PortableModel::from_bytes(&bytes).map_err(autoexecutor::AutoExecutorError::Ml)?,
    )?;
    let t6 = Instant::now();
    let mut matrix = FeatureMatrix::with_capacity(full_feature_names().len(), eval.len());
    for &q in order {
        matrix
            .push_row(&featurize_plan(&eval[q].plan))
            .map_err(autoexecutor::AutoExecutorError::Ml)?;
    }
    let decided = score_feature_batch(&decoded, &matrix, config.objective, &counts)?;
    let t7 = Instant::now();
    let run_config = RunConfig::default().with_seed(COMPARE_SEED);
    let mut comparisons = vec![None; eval.len()];
    for (row, &q) in order.iter().enumerate() {
        comparisons[q] = Some(compare_allocations(
            &config.cluster,
            &eval[q].name,
            &eval[q].dag,
            decided[row].executors,
            MAX_EXECUTORS,
            &run_config,
        )?);
    }
    let t8 = Instant::now();

    // Checks, outside the timed stages.
    let mut failures = Vec::new();
    let original = score_feature_batch(&model, &matrix, config.objective, &counts)?;
    if !same_answers(&original, &decided) {
        failures.push("the decoded model predicts differently from the encoded one".to_string());
    }
    if compiled.num_nodes() != model.compiled().num_nodes()
        || compiled.num_trees() != model.compiled().num_trees()
    {
        failures.push("compiling the forest again gave a different arena".to_string());
    }
    black_box(&compiled);
    let comparisons: Vec<_> = comparisons
        .into_iter()
        .map(|c| c.expect("every query was compared"))
        .collect();
    // Aggregate in suite order, so the sums do not depend on `order`.
    let quality = DecisionQuality::of(&comparisons);
    let decisions: Vec<usize> = comparisons.iter().map(|c| c.predicted_executors).collect();
    Ok(Cycle {
        bounds: [t0, t1, t2, t3, t4, t5, t6, t7, t8],
        mean_executors: decisions.iter().sum::<usize>() as f64 / decisions.len().max(1) as f64,
        decisions,
        quality,
        model_bytes: bytes.len(),
        engine_runs: training.len() + 3 * eval.len(),
        failures,
    })
}

/// True when two answer lists agree bit for bit: executor counts, PPM
/// parameters and predicted curves.
fn same_answers(a: &[ResourceRequest], b: &[ResourceRequest]) -> bool {
    let bits = |r: &ResourceRequest| {
        (
            r.executors,
            r.predicted_ppm
                .parameters()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>(),
            r.predicted_curve
                .iter()
                .map(|&(n, t)| (n, t.to_bits()))
                .collect::<Vec<_>>(),
        )
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// Sequential replay of what `TrainingData::collect` does per query —
/// simulate at the training executor count with a task log, estimate the
/// curve with Sparklens, fit both PPMs — timing each part. Returns the
/// median over passes of each part's total, in milliseconds.
fn replay_collect(config: &AutoExecutorConfig) -> (f64, f64, f64) {
    let training: Vec<QueryInstance> = WorkloadGenerator::new(ScaleFactor::SF10).suite();
    let simulator = Simulator::new(
        config.cluster,
        AllocationPolicy::static_allocation(config.training_run_executors),
    )
    .expect("the paper's cluster is valid");
    let analyzer = SparklensAnalyzer::paper_default();
    let (mut simulate, mut estimate, mut fit) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPLAY_PASSES {
        let (mut s, mut e, mut f) = (0.0, 0.0, 0.0);
        for (idx, query) in training.iter().enumerate() {
            let run_config = RunConfig {
                seed: config.training_run.seed.wrapping_add(idx as u64),
                capture_task_log: true,
                ..config.training_run
            };
            let t0 = Instant::now();
            let run = simulator.run(&query.name, &query.dag, &run_config);
            let t1 = Instant::now();
            let log = run
                .task_log
                .as_ref()
                .expect("task log capture was requested");
            let curve = analyzer.estimate_from_log(log, &config.training_counts);
            let t2 = Instant::now();
            black_box(fit_power_law(&curve).ok());
            black_box(fit_amdahl(&curve).ok());
            let t3 = Instant::now();
            s += (t1 - t0).as_secs_f64() * 1e3;
            e += (t2 - t1).as_secs_f64() * 1e3;
            f += (t3 - t2).as_secs_f64() * 1e3;
        }
        simulate.push(s);
        estimate.push(e);
        fit.push(f);
    }
    (median(&simulate), median(&estimate), median(&fit))
}

/// A seed-determined permutation of `0..n` (Fisher–Yates on SplitMix64).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::permutation;

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let a = permutation(100, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_eq!(a, permutation(100, 7));
        assert_ne!(a, permutation(100, 8));
        assert!(permutation(0, 1).is_empty());
    }
}
