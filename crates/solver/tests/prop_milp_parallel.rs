//! Property-based equivalence of the branch & bound execution modes:
//! every cell of {cold, carry} × {sequential, parallel} must prove the
//! same objective, on random PC-allocation-shaped MILPs (`max u·x` over
//! `kl ≤ Σ_{i∈S} xᵢ ≤ ku` rows with `0 ≤ xᵢ ≤ cap`).
//!
//! Like `vendor/rayon/tests/stress.rs`, this binary pins
//! `RAYON_NUM_THREADS=4` before anything touches the pool, so the
//! parallel mode really runs on four workers even on a single-core CI
//! container (more workers than cores = maximum interleaving).

use pc_solver::{solve_milp, ConstraintOp, LinearProgram, MilpOptions, MilpProblem, SolverError};
use proptest::prelude::*;
use std::sync::Once;

fn pool4() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        std::env::set_var("RAYON_NUM_THREADS", "4");
        assert_eq!(rayon::current_num_threads(), 4);
    });
}

const NVARS: usize = 6;
const CAP: i64 = 5;

#[derive(Debug, Clone)]
struct AllocProblem {
    u: Vec<f64>,
    // (membership bitmask over NVARS, kl, ku)
    rows: Vec<(u8, i64, i64)>,
}

prop_compose! {
    fn arb_problem()(
        u in prop::collection::vec(-6..=6i64, NVARS),
        rows in prop::collection::vec(
            (1u8..(1 << NVARS), 0..=9i64, 0..=9i64),
            1..6,
        ),
    ) -> AllocProblem {
        AllocProblem {
            u: u.into_iter().map(|v| v as f64).collect(),
            rows: rows
                .into_iter()
                .map(|(mask, a, b)| (mask, a.min(b), a.max(b)))
                .collect(),
        }
    }
}

fn build_lp(p: &AllocProblem) -> LinearProgram {
    let mut lp = LinearProgram::maximize(p.u.clone());
    for i in 0..NVARS {
        lp.set_bounds(i, 0.0, CAP as f64);
    }
    for &(mask, kl, ku) in &p.rows {
        let terms: Vec<(usize, f64)> = (0..NVARS)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| (i, 1.0))
            .collect();
        lp.add_constraint(terms.clone(), ConstraintOp::Ge, kl as f64);
        lp.add_constraint(terms, ConstraintOp::Le, ku as f64);
    }
    lp
}

fn assert_equivalent(
    label: &str,
    a: &Result<pc_solver::MilpSolution, SolverError>,
    b: &Result<pc_solver::MilpSolution, SolverError>,
    lp: &LinearProgram,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (Ok(sa), Ok(sb)) => {
            prop_assert!(
                (sa.objective - sb.objective).abs() < 1e-6,
                "{label}: {} vs {}",
                sa.objective,
                sb.objective
            );
            for sol in [sa, sb] {
                prop_assert!(lp.is_feasible(&sol.x, 1e-5), "{label}: infeasible x");
                for v in &sol.x {
                    prop_assert!((v - v.round()).abs() < 1e-6, "{label}: fractional x");
                }
                prop_assert!(sol.proven_optimal, "{label}: not proven");
            }
        }
        (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb, "{}: errors differ", label),
        (a, b) => prop_assert!(false, "{label}: {a:?} vs {b:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn parallel_bnb_matches_sequential(p in arb_problem()) {
        pool4();
        let problem = MilpProblem::all_integer(build_lp(&p));
        let seq = solve_milp(&problem, MilpOptions { threads: 1, ..MilpOptions::default() });
        let par = solve_milp(&problem, MilpOptions { threads: 0, ..MilpOptions::default() });
        assert_equivalent("seq vs par", &seq, &par, &problem.lp)?;
    }

    #[test]
    fn every_mode_matches_sequential_cold(p in arb_problem()) {
        pool4();
        let problem = MilpProblem::all_integer(build_lp(&p));
        let base = solve_milp(&problem, MilpOptions {
            threads: 1, warm_start: false, ..MilpOptions::default()
        });
        for (threads, warm_start) in [(0, false), (1, true), (0, true)] {
            let got = solve_milp(&problem, MilpOptions {
                threads, warm_start, ..MilpOptions::default()
            });
            let label = format!("seq cold vs threads={threads} warm_start={warm_start}");
            assert_equivalent(&label, &base, &got, &problem.lp)?;
        }
    }

    #[test]
    fn parallel_repeats_are_self_consistent(p in arb_problem()) {
        pool4();
        // scheduling nondeterminism must never leak into the objective
        let problem = MilpProblem::all_integer(build_lp(&p));
        let opts = MilpOptions { threads: 0, ..MilpOptions::default() };
        let first = solve_milp(&problem, opts);
        for _ in 0..3 {
            let again = solve_milp(&problem, opts);
            assert_equivalent("repeat", &first, &again, &problem.lp)?;
        }
    }
}
