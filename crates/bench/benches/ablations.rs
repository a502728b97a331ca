//! Ablation benches for the engine's design choices (the paper's own
//! experiments are indexed by the `ALL` table in
//! `src/bin/experiments.rs`):
//!
//! * **LP relaxation threshold** — exact branch & bound vs always-relax on
//!   overlapping sets. The relaxation is a hard bound either way; the
//!   question is the latency cost of exactness.
//! * **Disjoint fast path** — the greedy per-variable optimum vs running
//!   the same disjoint set through full decomposition + MILP.
//! * **Closure checking** — the extra SAT call per query.

use criterion::{criterion_group, criterion_main, Criterion};
use pc_core::{BoundEngine, BoundOptions};
use pc_datagen::intel::{cols, IntelConfig};
use pc_datagen::missing::remove_top_fraction;
use pc_datagen::{intel, pcgen, QueryGenerator};
use pc_storage::AggKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_ablations(c: &mut Criterion) {
    let table = intel::generate(IntelConfig {
        rows: 10_000,
        ..IntelConfig::default()
    });
    let (missing, _) = remove_top_fraction(&table, cols::LIGHT, 0.5);
    let attrs = [cols::DEVICE, cols::EPOCH];
    let qg = QueryGenerator::from_table(&missing, &attrs);
    let mut qrng = StdRng::seed_from_u64(11);
    let queries = qg.gen_workload(AggKind::Sum, cols::LIGHT, 5, &mut qrng);

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    // --- exact MILP vs LP relaxation on an overlapping set -------------
    let mut rng = StdRng::seed_from_u64(3);
    let rand_set = pcgen::rand_pc(&missing, &attrs, 40, &mut rng);
    for (name, limit) in [("milp_exact", usize::MAX), ("lp_relax_always", 0)] {
        let engine = BoundEngine::with_options(
            &rand_set,
            BoundOptions {
                check_closure: false,
                lp_relax_cell_limit: limit,
                ..BoundOptions::default()
            },
        );
        group.bench_function(format!("allocation/{name}"), |b| {
            b.iter(|| {
                for q in &queries {
                    let _ = engine.bound(q).expect("bound");
                }
            })
        });
    }

    // --- greedy fast path vs full machinery on a disjoint set ----------
    let corr = pcgen::corr_pc(&missing, &attrs, 200);
    let mut corr_no_hint = corr.clone();
    corr_no_hint.set_disjoint_hint(false);
    for (name, set) in [("greedy_hint", &corr), ("full_decompose", &corr_no_hint)] {
        let engine = BoundEngine::with_options(
            set,
            BoundOptions {
                check_closure: false,
                ..BoundOptions::default()
            },
        );
        group.bench_function(format!("disjoint/{name}"), |b| {
            b.iter(|| {
                for q in &queries {
                    let _ = engine.bound(q).expect("bound");
                }
            })
        });
    }

    // --- closure check on/off -------------------------------------------
    for (name, check) in [("with_closure_check", true), ("without", false)] {
        let engine = BoundEngine::with_options(
            &corr,
            BoundOptions {
                check_closure: check,
                ..BoundOptions::default()
            },
        );
        group.bench_function(format!("closure/{name}"), |b| {
            b.iter(|| {
                for q in &queries {
                    let _ = engine.bound(q).expect("bound");
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
