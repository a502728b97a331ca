//! Criterion bench for per-query bounding across the accuracy
//! experiments' regimes (Figs 3-5, 9-11): disjoint Corr-PC (greedy),
//! overlapping Rand-PC (decomposition + MILP/LP), the AVG search, and
//! the baselines' per-query costs for context.

use criterion::{criterion_group, criterion_main, Criterion};
use pc_baselines::{Ci, EquiWidthHistogram, UniformSample};
use pc_core::{BoundEngine, BoundOptions};
use pc_datagen::intel::{cols, IntelConfig};
use pc_datagen::missing::remove_top_fraction;
use pc_datagen::{intel, pcgen, QueryGenerator};
use pc_storage::{AggKind, AggQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_query_bounds(c: &mut Criterion) {
    let table = intel::generate(IntelConfig {
        rows: 10_000,
        ..IntelConfig::default()
    });
    let (missing, _) = remove_top_fraction(&table, cols::LIGHT, 0.5);
    let attrs = [cols::DEVICE, cols::EPOCH];

    let corr = pcgen::corr_pc(&missing, &attrs, 400);
    let mut rng = StdRng::seed_from_u64(3);
    let rand_set = pcgen::rand_pc(&missing, &attrs, 40, &mut rng);
    let opts = BoundOptions {
        check_closure: false,
        ..BoundOptions::default()
    };
    let corr_engine = BoundEngine::with_options(&corr, opts);
    let rand_engine = BoundEngine::with_options(&rand_set, opts);

    let qg = QueryGenerator::from_table(&missing, &attrs);
    let mut qrng = StdRng::seed_from_u64(5);
    let sum_queries = qg.gen_workload(AggKind::Sum, cols::LIGHT, 10, &mut qrng);
    let avg_query = qg.gen_query(AggKind::Avg, cols::LIGHT, &mut qrng);
    let count_query = AggQuery::count(sum_queries[0].predicate.clone());

    let mut group = c.benchmark_group("query_bounds");
    group.sample_size(10);
    group.bench_function("corr_pc_sum_greedy", |b| {
        b.iter(|| {
            for q in &sum_queries {
                let _ = corr_engine.bound(q).expect("bound");
            }
        })
    });
    group.bench_function("rand_pc_sum_decompose_milp", |b| {
        b.iter(|| {
            for q in &sum_queries {
                let _ = rand_engine.bound(q).expect("bound");
            }
        })
    });
    group.bench_function("corr_pc_avg", |b| {
        b.iter(|| corr_engine.bound(&avg_query).expect("bound"))
    });
    group.bench_function("corr_pc_count", |b| {
        b.iter(|| corr_engine.bound(&count_query).expect("bound"))
    });

    // baseline per-query costs for context
    let hist = EquiWidthHistogram::build(&missing, 60);
    group.bench_function("histogram_conservative", |b| {
        b.iter(|| {
            for q in &sum_queries {
                let _ = hist.bound_conservative(q);
            }
        })
    });
    let mut srng = StdRng::seed_from_u64(7);
    let sample = UniformSample::draw(&missing, 400, &mut srng);
    group.bench_function("uniform_sample_estimate", |b| {
        b.iter(|| {
            for q in &sum_queries {
                let _ = sample.estimate(q, Ci::NonParametric(0.9999));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_query_bounds);
criterion_main!(benches);
