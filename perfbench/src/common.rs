//! Pieces shared by the workloads: the run options, request accounting,
//! the metric list a run reports, the decision-quality comparison, and the
//! serving fixture (trained model, request plans and their reference
//! answers).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ae_engine::plan::QueryPlan;
use ae_engine::scheduler::RunConfig;
use ae_serve::{ServeError, ServiceLevel, TenantId};
use ae_workload::{
    mixed_suite, FamilyRegistry, OpenLoop, QueryInstance, ScaleFactor, TaggedArrival, WeightedMix,
    WorkloadGenerator,
};
use autoexecutor::prelude::*;
use autoexecutor::{
    compare_allocations, featurize_plan, ratio_averages, score_features, AllocationComparison,
    ModelRegistry, ResourceRequest,
};

/// Directory, relative to the repository root, that run reports and spans
/// are written to.
pub const OUT_DIR: &str = "perfbench/out";

/// Name the serving model is registered under.
pub const MODEL_NAME: &str = "perfbench";

/// Service-level shares of the request mix: Interactive, Standard,
/// BestEffort (indexed as [`ServiceLevel::from_index`]).
pub const LEVEL_MIX: [f64; 3] = [0.1, 0.6, 0.3];

/// Tenants the request mix is spread over, uniformly.
pub const TENANTS: usize = 16;

/// Length of the windows a serving run's measured period is split into;
/// rates and percentiles are reported as the median over windows, so a
/// stall confined to a few windows does not move them.
pub const WINDOW: Duration = Duration::from_millis(200);

/// Unmeasured warm-up before every timed phase.
pub const WARMUP: Duration = Duration::from_millis(500);

/// Times the benchmark's set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;

/// Upper end of the SA and DA allocations decisions are compared against.
pub const MAX_EXECUTORS: usize = 48;

/// Seed of the allocation simulations (fixed, as in the paper's figure).
pub const COMPARE_SEED: u64 = 13;

/// Options of one run, from the command line.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured period.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Requests sent, answered and failed, with failures by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests (or cycles) attempted.
    pub sent: u64,
    /// Attempts that produced a correct answer.
    pub ok: u64,
    /// Scoring, model or other errors.
    pub error: u64,
    /// Refused because the queue was full (`Saturated`).
    pub drop: u64,
    /// Evicted under saturation (`Shed`).
    pub shed: u64,
    /// Refused by the tenant rate policy (`Throttled`).
    pub throttle: u64,
    /// Answered, but not bit-identical to the reference answer.
    pub wrong: u64,
}

impl Tally {
    /// Every failed attempt, of any kind.
    pub fn failed(&self) -> u64 {
        self.error + self.drop + self.shed + self.throttle + self.wrong
    }

    /// Counts a serving error under its kind.
    pub fn record_error(&mut self, error: &ServeError) {
        match error {
            ServeError::Saturated => self.drop += 1,
            ServeError::Shed => self.shed += 1,
            ServeError::Throttled(_) => self.throttle += 1,
            _ => self.error += 1,
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.error += other.error;
        self.drop += other.drop;
        self.shed += other.shed;
        self.throttle += other.throttle;
        self.wrong += other.wrong;
    }

    /// Share of attempts answered correctly.
    pub fn success_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.ok as f64 / self.sent as f64
        }
    }

    /// The tally as JSON.
    pub fn to_json(self) -> String {
        format!(
            "{{\"sent\":{},\"succeeded\":{},\"failed\":{},\"error\":{},\"drop\":{},\"shed\":{},\"throttle\":{},\"wrong_answer\":{}}}",
            self.sent,
            self.ok,
            self.failed(),
            self.error,
            self.drop,
            self.shed,
            self.throttle,
            self.wrong
        )
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json` or the report.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Request accounting of the measured period.
    pub tally: Tally,
    /// The figures this run reports (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Extra report fields: name and a JSON value.
    pub details: Vec<(String, String)>,
    /// Failed output checks, described.
    pub check_failures: Vec<String>,
}

impl RunResult {
    /// Adds a figure.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a report field holding a number.
    pub fn detail(&mut self, name: impl Into<String>, value: f64) {
        self.details.push((name.into(), json_number(value)));
    }

    /// Reports every end-to-end metric: `setup_s`, the median of the
    /// set-up repeats (each repeat is listed in the report), and `figures`.
    pub fn end_to_end(&mut self, setup_times: &[f64], figures: EndToEnd) {
        self.metric("setup_s", crate::stats::median(setup_times), "s");
        let items: Vec<String> = setup_times.iter().map(|&t| json_number(t)).collect();
        self.detail_json("setup_times_s", format!("[{}]", items.join(",")));
        self.metric("throughput_qps", figures.throughput_qps, "1/s");
        self.metric("latency_p50_us", figures.latency_p50_us, "us");
        self.metric("slo_attainment", figures.slo_attainment, "ratio");
        self.metric("success_ratio", figures.success_ratio, "ratio");
        self.metric(
            "occupancy_saving_vs_da",
            figures.decisions.occupancy_saving,
            "ratio",
        );
        self.metric("speedup_vs_da", figures.decisions.speedup, "ratio");
    }

    /// Adds a report field holding raw JSON.
    pub fn detail_json(&mut self, name: impl Into<String>, json: String) {
        self.details.push((name.into(), json));
    }
}

/// The end-to-end figures every workload reports besides `setup_s`. The
/// unit of work is a query: a served request, or one SF100 query decided
/// by a pipeline cycle.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Queries answered correctly per second.
    pub throughput_qps: f64,
    /// Median time from a query's arrival to its answer.
    pub latency_p50_us: f64,
    /// Share of attempted queries answered correctly within their deadline.
    pub slo_attainment: f64,
    /// Share of attempts answered correctly.
    pub success_ratio: f64,
    /// Quality of the decisions the run answered with.
    pub decisions: DecisionQuality,
}

/// How the rule's decisions compare with dynamic allocation over
/// `[1, MAX_EXECUTORS]` on the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionQuality {
    /// 1 − Σ AUC(Rule) / Σ AUC(DA): the executor occupancy saved.
    pub occupancy_saving: f64,
    /// Mean over queries of t(DA) / t(Rule).
    pub speedup: f64,
}

impl DecisionQuality {
    /// The figures of `comparisons`, aggregated in the order given.
    pub fn of(comparisons: &[AllocationComparison]) -> Self {
        let averages = ratio_averages(comparisons);
        Self {
            occupancy_saving: averages.auc_saving_vs_dynamic,
            speedup: averages.speedup_vs_dynamic,
        }
    }
}

/// A finite JSON number (non-finite values become `null`).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` once per set-up repeat and returns the last result together
/// with every repeat's time in seconds.
pub fn timed_setup<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous repeat before timing the next one, so its
        // threads are gone and its memory is free.
        drop(last.take());
        let start = Instant::now();
        let value = f();
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one set-up repeat"), times)
}

/// Everything the serving workloads share: the model trained on TPC-DS
/// SF10 (as in the paper), registered for the runtime, and the mixed-family
/// SF10 + SF100 plans requests are drawn from, each with its features and
/// reference answer.
pub struct ServingFixture {
    /// Pipeline configuration (paper defaults).
    pub config: AutoExecutorConfig,
    /// Registry holding the encoded model for the runtime.
    pub registry: Arc<ModelRegistry>,
    /// The queries requests are drawn from, as generated.
    pub queries: Vec<QueryInstance>,
    /// Each query's optimized plan, which requests carry.
    pub plans: Vec<QueryPlan>,
    /// Reference answer of each plan, from `autoexecutor::score_features`.
    pub reference: Vec<ResourceRequest>,
}

impl ServingFixture {
    /// Trains, registers, and scores every plan once for its reference.
    /// The fixture does not depend on the seed: the seed only shapes the
    /// request stream.
    pub fn build() -> Self {
        let config = AutoExecutorConfig::default();
        let training = WorkloadGenerator::new(ScaleFactor::SF10).suite();
        let (_, model) = train_from_workload(&training, &config).expect("training the model");
        let registry = Arc::new(ModelRegistry::in_memory());
        registry
            .register(
                MODEL_NAME,
                model.to_portable(MODEL_NAME).expect("encoding the model"),
            )
            .expect("registering the model");
        let families = FamilyRegistry::builtin();
        let rewriter = Optimizer::with_default_rules();
        let queries: Vec<QueryInstance> = [ScaleFactor::SF10, ScaleFactor::SF100]
            .into_iter()
            .flat_map(|sf| mixed_suite(families.families(), sf))
            .collect();
        let plans: Vec<QueryPlan> = queries
            .iter()
            .map(|q| {
                rewriter
                    .optimize(q.plan.clone())
                    .expect("rewriting a plan")
                    .plan
            })
            .collect();
        let counts = config.candidate_counts();
        let reference = plans
            .iter()
            .map(|plan| {
                score_features(&model, &featurize_plan(plan), config.objective, &counts)
                    .expect("scoring a reference answer")
                    .request
            })
            .collect();
        Self {
            config,
            registry,
            queries,
            plans,
            reference,
        }
    }

    /// Quality of the decisions served: each plan answered correctly at
    /// least once (`served[i]`) is simulated under Rule at its served
    /// executor count (equal to its reference answer's), DA(1,
    /// [`MAX_EXECUTORS`]) and SA([`MAX_EXECUTORS`]), and aggregated in plan
    /// order. Once every plan has been served it does not depend on the
    /// seed.
    pub fn served_quality(&self, served: &[bool]) -> DecisionQuality {
        let run_config = RunConfig::default().with_seed(COMPARE_SEED);
        let comparisons: Vec<AllocationComparison> = served
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(i, _)| {
                compare_allocations(
                    &self.config.cluster,
                    &self.queries[i].name,
                    &self.queries[i].dag,
                    self.reference[i].executors,
                    MAX_EXECUTORS,
                    &run_config,
                )
                .expect("simulating a served decision")
            })
            .collect();
        DecisionQuality::of(&comparisons)
    }

    /// True when a served answer matches plan `index`'s reference bit for
    /// bit: the executor count and every point of the predicted curve.
    pub fn matches(&self, index: usize, served: &ResourceRequest) -> bool {
        let reference = &self.reference[index];
        reference.executors == served.executors
            && reference.predicted_curve.len() == served.predicted_curve.len()
            && reference
                .predicted_curve
                .iter()
                .zip(&served.predicted_curve)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    }

    /// A tagged request stream over the plans: arrival offsets at `rate`
    /// (ignored by closed loops), plan index, service level and tenant.
    pub fn stream(&self, rate: f64, requests: usize, seed: u64) -> Vec<TaggedArrival> {
        OpenLoop::new(rate, requests, seed).schedule_tagged(
            self.plans.len(),
            &WeightedMix::new(LEVEL_MIX.to_vec()),
            &WeightedMix::uniform(TENANTS),
        )
    }
}

/// The service level of a tagged arrival.
pub fn level_of(arrival: &TaggedArrival) -> ServiceLevel {
    ServiceLevel::from_index(arrival.level_index).expect("level mix has three classes")
}

/// The tenant of a tagged arrival.
pub fn tenant_of(arrival: &TaggedArrival) -> TenantId {
    TenantId(arrival.tenant_index as u64)
}

/// A per-stream seed derived from the run seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1)
}
