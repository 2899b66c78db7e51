//! The trained-model fixture shared by the serving-side `bench_*` drivers
//! (serving, QoS, observability, fleet, resilience, inference).

use std::sync::Arc;

use ae_engine::plan::QueryPlan;
use ae_workload::QueryInstance;
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;

/// A parameter model trained noise-free on a suite, registered for
/// serving, plus the suite's plans in the form the runtime scores them.
pub struct Fixture {
    /// The paper-default configuration with noise-free training runs.
    pub config: AutoExecutorConfig,
    /// The trained model.
    pub model: ParameterModel,
    /// An in-memory registry holding the model under the fixture's name.
    pub registry: Arc<ModelRegistry>,
    /// Each suite plan after the default optimizer rules (the AutoExecutor
    /// rule runs last, so it scores rewritten plans).
    pub plans: Vec<QueryPlan>,
    /// The full feature row of each entry of `plans`.
    pub features: Vec<Vec<f64>>,
}

/// Trains on `suite` and registers the model as `name`.
pub fn fixture(suite: &[QueryInstance], name: &str) -> Fixture {
    println!(
        "==> training the parameter model '{name}' on {} queries",
        suite.len()
    );
    let mut config = AutoExecutorConfig::default();
    config.training_run.noise_cv = 0.0;
    let (_, model) = train_from_workload(suite, &config).expect("training");
    let registry = Arc::new(ModelRegistry::in_memory());
    registry
        .register(name, model.to_portable(name).expect("portable model"))
        .expect("register");
    let rewriter = Optimizer::with_default_rules();
    let plans: Vec<QueryPlan> = suite
        .iter()
        .map(|q| rewriter.optimize(q.plan.clone()).expect("optimize").plan)
        .collect();
    let features = plans.iter().map(autoexecutor::featurize_plan).collect();
    Fixture {
        config,
        model,
        registry,
        plans,
        features,
    }
}
