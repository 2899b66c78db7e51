//! Cross-family generalization benchmark: trains the parameter model on each
//! workload family in turn and scores every family's suite, emitting the
//! full train-family × test-family accuracy matrix.
//!
//! Families covered (the builtin registry, each at SF10): `tpcds` (deep,
//! aggregation-heavy), `tpch` (shallow, scan/join-heavy), `skew`
//! (heavy-tailed sizes, stragglers, extreme elbows). Matrix entries are the
//! mean of the paper's `E(n)` metric over the evaluation executor counts;
//! the diagonal is the in-family reference, the off-diagonal cells measure
//! transfer to a family the model never saw.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ae-bench --bin bench_generalization                 # full run
//! cargo run --release -p ae-bench --bin bench_generalization -- --smoke     # CI gate
//! cargo run --release -p ae-bench --bin bench_generalization -- --json BENCH_generalization.json
//! ```
//!
//! `--smoke` shrinks every knob (query subsets, one ground-truth repeat, a
//! small forest, three evaluation counts) and exits non-zero unless the
//! matrix covers every family pair with finite errors — in particular the
//! train-on-TPC-DS-like / score-TPC-H-like cell the CI gate is about.

use std::time::Instant;

use ae_bench::cli::Args;
use ae_bench::experiments::generalization::print_matrix;
use ae_bench::report;
use ae_workload::{BuiltinFamily, ScaleFactor, WorkloadGenerator};
use autoexecutor::evaluation::{
    generalization_matrix, ActualRuns, FamilyEvalSet, GeneralizationMatrix,
};
use autoexecutor::{AutoExecutorConfig, TrainingData};

/// Scale factor of every family's suite.
const SF: ScaleFactor = ScaleFactor::SF10;

/// Ground-truth repeats (full mode matches the experiment harness).
const FULL_REPEATS: usize = 3;

fn build_eval_sets(
    config: &AutoExecutorConfig,
    eval_counts: &[usize],
    smoke: bool,
) -> Vec<FamilyEvalSet> {
    BuiltinFamily::ALL
        .into_iter()
        .map(|family| {
            let mut suite = WorkloadGenerator::builtin(family, SF).suite();
            if smoke {
                // An evenly-strided subset keeps each family's diversity
                // (the skew suite alternates its bimodal draws, so a prefix
                // would be lopsided).
                suite = suite.into_iter().step_by(2).take(12).collect();
            }
            eprintln!(
                "==> {family}: collecting training data + ground truth ({} queries)",
                suite.len()
            );
            let data = TrainingData::collect(&suite, config).expect("training-data collection");
            let repeats = if smoke { 1 } else { FULL_REPEATS };
            let actuals =
                ActualRuns::collect(&suite, eval_counts, repeats, &config.cluster, 0xAE_2023)
                    .expect("ground-truth collection");
            FamilyEvalSet {
                family: family.key().to_string(),
                suite,
                data,
                actuals,
            }
        })
        .collect()
}

fn write_json(path: &str, matrix: &GeneralizationMatrix) {
    let comment = "Cross-family generalization: the parameter model is trained on each \
         workload family's full suite and scored on every family's suite. Entries are the mean \
         E(n) (Equation 6) over the evaluation executor counts; diagonal = in-family reference, \
         off-diagonal = transfer to an unseen family. Regenerate with: cargo run --release -p \
         ae-bench --bin bench_generalization -- --json BENCH_generalization.json";
    let mut out = String::new();
    out.push_str(&format!("  \"scale_factor\": {},\n", SF.0));
    out.push_str(&format!(
        "  \"families\": [{}],\n",
        matrix
            .families
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("  \"eval_counts\": {:?},\n", matrix.eval_counts));
    out.push_str(&format!(
        "  \"generalization_gap\": {:.4},\n",
        matrix.generalization_gap()
    ));
    out.push_str("  \"matrix\": [\n");
    for (i, cell) in matrix.cells.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"train_family\": \"{}\",\n      \"test_family\": \"{}\",\n",
            cell.train_family, cell.test_family
        ));
        out.push_str(&format!("      \"mean_error\": {:.4},\n", cell.mean_error));
        let per_count: Vec<String> = cell
            .error_by_count
            .iter()
            .map(|(n, e)| format!("\"{n}\": {e:.4}"))
            .collect();
        out.push_str(&format!(
            "      \"error_by_count\": {{{}}}\n",
            per_count.join(", ")
        ));
        out.push_str("    }");
        out.push_str(if i + 1 < matrix.cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n");
    report::write(path, comment, &out);
}

fn main() {
    let args = Args::from_env(&[]);
    let start = Instant::now();

    let mut config = AutoExecutorConfig::default();
    let eval_counts: Vec<usize> = if args.smoke {
        config.forest.n_estimators = 16;
        config.training_run.noise_cv = 0.0;
        vec![1, 8, 48]
    } else {
        config.training_counts.to_vec()
    };

    let sets = build_eval_sets(&config, &eval_counts, args.smoke);
    eprintln!(
        "==> training one model per family and scoring the {0}x{0} matrix",
        sets.len()
    );
    let matrix =
        generalization_matrix(&sets, &config, &eval_counts).expect("generalization matrix");
    print_matrix(&matrix);
    println!(
        "completed in {:.1}s ({} queries per family at {SF})",
        start.elapsed().as_secs_f64(),
        sets.iter()
            .map(|s| s.suite.len().to_string())
            .collect::<Vec<_>>()
            .join("/"),
    );

    if let Some(path) = &args.json {
        write_json(path, &matrix);
    }

    if args.smoke {
        let mut failures = Vec::new();
        let expected: Vec<&str> = BuiltinFamily::ALL.iter().map(|f| f.key()).collect();
        if matrix.families != expected {
            failures.push(format!("families {:?} != {expected:?}", matrix.families));
        }
        if matrix.cells.len() != expected.len() * expected.len() {
            failures.push(format!(
                "{} cells, expected {}",
                matrix.cells.len(),
                expected.len() * expected.len()
            ));
        }
        if !matrix.is_finite() {
            failures.push("matrix contains non-finite errors".to_string());
        }
        if matrix.cell("tpcds", "tpch").is_none() {
            failures.push("missing the train=tpcds/test=tpch cell".to_string());
        }
        report::gate("generalization", &failures);
        println!("generalization smoke OK (full finite matrix over {expected:?})");
    }
}
