//! Criterion benches for the online (in-optimizer) path: plan featurization,
//! parameter-model inference, portable-model load, and the full
//! AutoExecutor rule — the latencies Section 5.6 reports.

use std::sync::Arc;

use ae_ml::portable::PortableModel;
use ae_workload::{ScaleFactor, WorkloadGenerator};
use autoexecutor::{
    featurize_plan, AutoExecutorConfig, AutoExecutorRule, ModelRegistry, Optimizer, ParameterModel,
    TrainingData,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

struct ScoringFixture {
    config: AutoExecutorConfig,
    model: ParameterModel,
    model_bytes: Vec<u8>,
    test_plan: ae_engine::QueryPlan,
}

fn fixture() -> ScoringFixture {
    let suite = WorkloadGenerator::new(ScaleFactor::SF10).suite();
    let mut config = AutoExecutorConfig::default();
    config.training_run.noise_cv = 0.0;
    let data = TrainingData::collect(&suite, &config).expect("training data");
    let model = ParameterModel::train(&data, &config).expect("training");
    let model_bytes = model
        .to_portable("bench")
        .expect("export")
        .to_bytes()
        .expect("serialize");
    let test_plan = WorkloadGenerator::new(ScaleFactor::SF100)
        .instance("q94")
        .plan;
    ScoringFixture {
        config,
        model,
        model_bytes,
        test_plan,
    }
}

fn bench_scoring_path(c: &mut Criterion) {
    let fixture = fixture();

    c.bench_function("scoring/plan_featurization", |b| {
        b.iter(|| featurize_plan(black_box(&fixture.test_plan)))
    });

    c.bench_function("scoring/parameter_model_inference", |b| {
        b.iter(|| {
            fixture
                .model
                .predict_ppm(black_box(&fixture.test_plan))
                .unwrap()
        })
    });

    c.bench_function("scoring/ppm_curve_evaluation_48_points", |b| {
        let ppm = fixture.model.predict_ppm(&fixture.test_plan).unwrap();
        let counts: Vec<usize> = (1..=48).collect();
        b.iter(|| ppm.predict_curve(black_box(&counts)))
    });

    let mut group = c.benchmark_group("scoring/portable_model");
    group.sample_size(20);
    group.bench_function("load_and_setup", |b| {
        b.iter(|| {
            let model = PortableModel::from_bytes(black_box(&fixture.model_bytes)).unwrap();
            model
                .predict(&vec![0.0; model.feature_names.len()])
                .unwrap();
            model
        })
    });
    group.finish();
}

fn bench_full_rule(c: &mut Criterion) {
    let fixture = fixture();
    let registry = Arc::new(ModelRegistry::in_memory());
    registry
        .register("bench", fixture.model.to_portable("bench").unwrap())
        .unwrap();
    let optimizer = Optimizer::with_default_rules().with_rule(Box::new(
        AutoExecutorRule::from_config(registry, "bench", &fixture.config),
    ));
    // Warm the cache so the steady-state per-query cost is measured.
    optimizer.optimize(fixture.test_plan.clone()).unwrap();

    c.bench_function("scoring/autoexecutor_rule_end_to_end", |b| {
        b.iter(|| {
            optimizer
                .optimize(black_box(fixture.test_plan.clone()))
                .unwrap()
        })
    });
}

criterion_group!(benches, bench_scoring_path, bench_full_rule);
criterion_main!(benches);
