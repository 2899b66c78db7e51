//! Compiled-vs-interpreted equivalence on adversarial tree shapes.
//!
//! [`CompiledForest`] must be **bit-identical** to the interpreted
//! [`RandomForestRegressor`] — not approximately equal: the serving tier's
//! determinism guarantee ("served answers ≡ the sequential optimizer
//! rule") rests on it. These tests stress the shapes where a compiled
//! representation is most likely to diverge: degenerate single-leaf trees,
//! maximally deep chain trees, zero-information feature columns, empty
//! batches, and (via the proptest shim) random fitted forests.

use ae_ml::compiled::{CompiledForest, PARALLEL_MIN_ROW_TREES};
use ae_ml::dataset::Dataset;
use ae_ml::forest::{RandomForestConfig, RandomForestRegressor};
use ae_ml::matrix::FeatureMatrix;
use ae_ml::tree::DecisionTreeConfig;
use proptest::prelude::*;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts compiled == interpreted, bit for bit, on single-row and batched
/// paths over the given probe rows.
fn assert_equivalent(forest: &RandomForestRegressor, rows: &[Vec<f64>]) {
    let compiled = CompiledForest::compile(forest).expect("compile");
    assert_eq!(compiled.num_trees(), forest.num_trees());
    assert_eq!(compiled.num_nodes(), forest.total_nodes());

    // Single-row path.
    for (i, row) in rows.iter().enumerate() {
        let interpreted = forest.predict(row).expect("interpreted predict");
        let fast = compiled.predict(row).expect("compiled predict");
        assert_eq!(bits(&interpreted), bits(&fast), "row {i} diverged");
    }

    // Batch-major kernel over the flat matrix.
    let matrix = FeatureMatrix::from_rows(rows).expect("matrix");
    let mut flat = vec![0.0; rows.len() * compiled.num_outputs()];
    compiled
        .predict_batch_into(&matrix, &mut flat)
        .expect("batch kernel");
    let k = compiled.num_outputs();
    for (i, row) in rows.iter().enumerate() {
        let interpreted = forest.predict(row).expect("interpreted predict");
        assert_eq!(
            bits(&interpreted),
            bits(&flat[i * k..(i + 1) * k]),
            "batched row {i} diverged"
        );
    }
}

#[test]
fn single_leaf_trees_are_equivalent() {
    // Constant targets: every tree is exactly one leaf.
    let mut d = Dataset::new(vec!["x".into()], vec!["y".into(), "z".into()]);
    for i in 0..20 {
        d.push_row(format!("r{i}"), vec![i as f64], vec![7.5, -3.25])
            .unwrap();
    }
    let mut rf = RandomForestRegressor::new(RandomForestConfig {
        n_estimators: 8,
        seed: 1,
        ..Default::default()
    });
    rf.fit(&d).unwrap();
    assert_eq!(rf.total_nodes(), 8, "expected one leaf per tree");
    let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 3.0]).collect();
    assert_equivalent(&rf, &rows);
}

#[test]
fn max_depth_chain_trees_are_equivalent() {
    // Exponentially growing targets on one feature: the best split always
    // peels off the largest value, producing a chain tree whose depth
    // approaches the sample count. (Also exercises the iterative
    // `depth()` on a shape where recursion depth would equal the chain.)
    let n = 160;
    let mut d = Dataset::new(vec!["x".into()], vec!["y".into()]);
    for i in 0..n {
        d.push_row(format!("r{i}"), vec![i as f64], vec![2.0f64.powi(i as i32)])
            .unwrap();
    }
    let mut rf = RandomForestRegressor::new(RandomForestConfig {
        n_estimators: 4,
        bootstrap: false, // keep every sample so the chain is as deep as possible
        seed: 3,
        ..Default::default()
    });
    rf.fit(&d).unwrap();
    assert!(
        rf.max_tree_depth() >= n / 2,
        "expected a deep chain, got depth {}",
        rf.max_tree_depth()
    );
    let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 + 0.5]).collect();
    assert_equivalent(&rf, &rows);
}

#[test]
fn constant_feature_rows_are_equivalent() {
    // Every feature column is constant: no split has positive gain, so
    // every tree degenerates to its root leaf even though targets vary.
    let mut d = Dataset::new(vec!["a".into(), "b".into()], vec!["y".into()]);
    for i in 0..30 {
        d.push_row(format!("r{i}"), vec![1.0, 2.0], vec![i as f64])
            .unwrap();
    }
    let mut rf = RandomForestRegressor::new(RandomForestConfig {
        n_estimators: 6,
        seed: 9,
        ..Default::default()
    });
    rf.fit(&d).unwrap();
    let rows = vec![vec![1.0, 2.0], vec![-5.0, 100.0], vec![0.0, 0.0]];
    assert_equivalent(&rf, &rows);
}

#[test]
fn empty_batches_and_zero_width_trees_are_handled() {
    // Empty batch through the compiled kernel.
    let mut d = Dataset::new(vec!["x".into()], vec!["y".into()]);
    for i in 0..10 {
        d.push_row(format!("r{i}"), vec![i as f64], vec![i as f64])
            .unwrap();
    }
    let mut rf = RandomForestRegressor::new(RandomForestConfig {
        n_estimators: 3,
        seed: 2,
        ..Default::default()
    });
    rf.fit(&d).unwrap();
    let compiled = CompiledForest::compile(&rf).unwrap();
    let empty = FeatureMatrix::new(1);
    let mut out: Vec<f64> = Vec::new();
    compiled.predict_batch_into(&empty, &mut out).unwrap();
    assert!(out.is_empty());

    // A tree fitted on zero-width (empty-feature) rows is a single leaf;
    // its prediction on the empty row must survive unchanged.
    let rows: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let targets: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
    let mut tree = ae_ml::tree::DecisionTreeRegressor::new(DecisionTreeConfig::default());
    tree.fit(&rows, &targets).unwrap();
    assert_eq!(tree.node_count(), 1);
    assert_eq!(tree.depth(), 0);
    assert!((tree.predict(&[]).unwrap()[0] - 2.0).abs() < 1e-12);
}

#[test]
fn batches_at_the_fan_out_threshold_are_equivalent_at_any_pool_width() {
    // rows × trees one below, at, and one above the threshold, each with
    // the largest tree count up to 24 that divides it exactly.
    for target in [
        PARALLEL_MIN_ROW_TREES - 1,
        PARALLEL_MIN_ROW_TREES,
        PARALLEL_MIN_ROW_TREES + 1,
    ] {
        let trees = (1..=24).rev().find(|t| target % t == 0).unwrap();
        let n_rows = target / trees;
        let mut d = Dataset::new(
            vec!["x0".into(), "x1".into()],
            vec!["y0".into(), "y1".into()],
        );
        for i in 0..60 {
            let (x0, x1) = ((i % 11) as f64, (i % 5) as f64);
            d.push_row(format!("r{i}"), vec![x0, x1], vec![x0 * x1, 9.0 - x0])
                .unwrap();
        }
        let mut rf = RandomForestRegressor::new(RandomForestConfig {
            n_estimators: trees,
            seed: target as u64,
            ..Default::default()
        });
        rf.fit(&d).unwrap();
        let compiled = CompiledForest::compile(&rf).unwrap();
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|i| vec![(i % 23) as f64 * 0.5, (i % 7) as f64 - 1.0])
            .collect();
        let expected: Vec<Vec<u64>> = rows.iter().map(|r| bits(&rf.predict(r).unwrap())).collect();
        let matrix = FeatureMatrix::from_rows(&rows).unwrap();
        let k = compiled.num_outputs();
        for width in [1, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let (flat, interpreted) = pool.install(|| {
                let mut flat = Vec::new();
                compiled.predict_batch(&matrix, &mut flat).unwrap();
                (flat, rf.predict_batch(&rows).unwrap())
            });
            for (i, want) in expected.iter().enumerate() {
                let context = format!("rows×trees {target}, width {width}, row {i}");
                assert_eq!(
                    &bits(&flat[i * k..(i + 1) * k]),
                    want,
                    "compiled, {context}"
                );
                assert_eq!(&bits(&interpreted[i]), want, "interpreted, {context}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_fitted_forests_are_equivalent(
        seed in 0u64..1_000,
        n_rows in 8usize..40,
        n_features in 1usize..4,
        n_outputs in 1usize..3,
        n_estimators in 1usize..10,
        max_depth in 0usize..6,
        scale in 0.1f64..50.0,
    ) {
        let feature_names: Vec<String> = (0..n_features).map(|i| format!("f{i}")).collect();
        let target_names: Vec<String> = (0..n_outputs).map(|i| format!("t{i}")).collect();
        let mut d = Dataset::new(feature_names, target_names);
        // Deterministic pseudo-random rows derived from the drawn seed.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n_rows {
            let features: Vec<f64> = (0..n_features).map(|_| next() * scale).collect();
            let targets: Vec<f64> = (0..n_outputs)
                .map(|o| features.iter().sum::<f64>() * (o as f64 + 1.0) + next())
                .collect();
            d.push_row(format!("r{i}"), features, targets).unwrap();
        }
        let mut rf = RandomForestRegressor::new(RandomForestConfig {
            n_estimators,
            seed,
            tree: DecisionTreeConfig {
                max_depth: if max_depth == 0 { None } else { Some(max_depth) },
                ..Default::default()
            },
            ..Default::default()
        });
        rf.fit(&d).unwrap();
        let compiled = CompiledForest::compile(&rf).unwrap();
        let probes: Vec<Vec<f64>> = (0..10)
            .map(|_| (0..n_features).map(|_| next() * scale * 1.5 - scale * 0.25).collect())
            .collect();
        let matrix = FeatureMatrix::from_rows(&probes).unwrap();
        let mut flat = vec![0.0; probes.len() * compiled.num_outputs()];
        compiled.predict_batch_into(&matrix, &mut flat).unwrap();
        let k = compiled.num_outputs();
        for (i, row) in probes.iter().enumerate() {
            let interpreted = rf.predict(row).unwrap();
            let single = compiled.predict(row).unwrap();
            prop_assert_eq!(bits(&interpreted), bits(&single));
            prop_assert_eq!(bits(&interpreted), bits(&flat[i * k..(i + 1) * k]));
        }
    }
}
