//! Micro-benchmarks of the core primitives: what an operator integrating
//! Auric actually cares about — model-fit latency and recommendation
//! throughput — plus the statistical kernels underneath.

use auric_bench::legacy::LegacyCfModel;
use auric_bench::{
    bench_network, bench_network_small, fitted, local_loo_sweep, local_loo_sweep_legacy,
};
use auric_core::{recommend_singular, CfConfig, CfModel, NewCarrier, Scope};
use auric_stats::chi2::chi2_critical;
use auric_stats::contingency::ContingencyTable;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_chi2_critical(c: &mut Criterion) {
    c.bench_function("chi2_critical_df20_p01", |b| {
        b.iter(|| black_box(chi2_critical(black_box(20), black_box(0.01))))
    });
}

fn bench_contingency(c: &mut Criterion) {
    // A representative attribute × value table.
    let mut table = ContingencyTable::new(28, 12);
    for i in 0..28usize {
        for j in 0..12usize {
            table.add(i, j, ((i * 7 + j * 13) % 50) as u64 + 1);
        }
    }
    c.bench_function("contingency_chi2_28x12", |b| {
        b.iter(|| black_box(table.independence_test(0.01)))
    });
}

fn bench_generator(c: &mut Criterion) {
    let mut group = c.benchmark_group("netgen");
    group.sample_size(10);
    group.bench_function("generate_tiny", |b| b.iter(|| black_box(bench_network())));
    group.finish();
}

fn bench_cf_fit(c: &mut Criterion) {
    let net = bench_network();
    let scope = Scope::whole(&net.snapshot);
    let mut group = c.benchmark_group("cf_fit");
    group.sample_size(10);
    group.bench_function("fit_tiny_whole_network", |b| {
        b.iter(|| black_box(CfModel::fit(&net.snapshot, &scope, CfConfig::default())))
    });
    group.bench_function("fit_tiny_legacy_unpacked", |b| {
        b.iter(|| {
            black_box(LegacyCfModel::fit(
                &net.snapshot,
                &scope,
                CfConfig::default(),
            ))
        })
    });
    group.finish();
}

fn bench_local_loo(c: &mut Criterion) {
    // The accuracy-evaluation hot loop: a leave-one-out local
    // recommendation for every parameter at every slot.
    let net = bench_network();
    let snap = &net.snapshot;
    let scope = Scope::whole(snap);
    let packed = CfModel::fit(snap, &scope, CfConfig::default());
    let legacy = LegacyCfModel::fit(snap, &scope, CfConfig::default());
    assert_eq!(
        local_loo_sweep(snap, &scope, &packed),
        local_loo_sweep_legacy(snap, &scope, &legacy),
        "packed and legacy sweeps must agree before timing them"
    );
    let mut group = c.benchmark_group("local_loo");
    group.sample_size(10);
    group.bench_function("sweep_tiny_packed", |b| {
        b.iter(|| black_box(local_loo_sweep(snap, &scope, &packed)))
    });
    group.bench_function("sweep_tiny_legacy_unpacked", |b| {
        b.iter(|| black_box(local_loo_sweep_legacy(snap, &scope, &legacy)))
    });
    group.finish();
}

fn bench_recommend_throughput(c: &mut Criterion) {
    let net = bench_network_small();
    let snap = &net.snapshot;
    let (_, model) = fitted(&net);
    // Cold-start recommendations for clones of existing carriers.
    let new_carriers: Vec<NewCarrier> = (0..64)
        .map(|i| {
            let id = auric_model::CarrierId::from_index(i * 3 % snap.n_carriers());
            NewCarrier {
                attrs: snap.carrier(id).attrs.clone(),
                neighbors: snap.x2.neighbors(id).to_vec(),
            }
        })
        .collect();
    let mut group = c.benchmark_group("recommendation");
    group.throughput(Throughput::Elements(new_carriers.len() as u64 * 39));
    group.bench_function("cold_start_singular_64_carriers", |b| {
        b.iter(|| {
            for nc in &new_carriers {
                black_box(recommend_singular(snap, &model, nc));
            }
        })
    });
    group.finish();
}

fn bench_decision_tree(c: &mut Criterion) {
    use auric_core::datasets::dataset_for_param;
    use auric_learners::{Classifier, DecisionTree};
    let net = bench_network();
    let snap = &net.snapshot;
    let scope = Scope::whole(snap);
    let p = snap.catalog.singular_ids().next().unwrap();
    let data = dataset_for_param(snap, &scope, p);
    let mut group = c.benchmark_group("baselines");
    group.sample_size(20);
    group.bench_function("decision_tree_fit_sfreqprio", |b| {
        b.iter(|| black_box(DecisionTree::paper().fit(&data)))
    });
    group.finish();
}

criterion_group!(
    micro,
    bench_chi2_critical,
    bench_contingency,
    bench_generator,
    bench_cf_fit,
    bench_local_loo,
    bench_recommend_throughput,
    bench_decision_tree
);
criterion_main!(micro);
