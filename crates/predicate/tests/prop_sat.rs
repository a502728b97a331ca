//! Property-based tests for the interval algebra and the cell SAT solver.
//!
//! The SAT solver is verified against a brute-force rasterization oracle:
//! over a small discrete grid, `base ∧ ¬ψ₁ ∧ … ∧ ¬ψₖ` is satisfiable iff
//! some grid point of `base` avoids every `ψⱼ`. On discrete (Int) domains
//! the grid enumeration is exhaustive, so the oracle is exact.
//!
//! The oracle cases stay small (at most 9 exclusions), so the many-box
//! UNSAT path is also checked on random guillotine tilings: a tiling
//! covers its box exactly, so it must refute, and every tile must be
//! load-bearing.

use pc_predicate::{sat, Atom, AttrType, Interval, IntervalSet, Predicate, Region, Schema};
use proptest::prelude::*;

const GRID: i64 = 8;

fn int_schema(width: usize) -> Schema {
    Schema::new(
        (0..width)
            .map(|i| (format!("a{i}"), AttrType::Int))
            .collect(),
    )
}

prop_compose! {
    /// A random sub-interval of [0, GRID] with random endpoint openness.
    fn arb_interval()(a in 0..=GRID, b in 0..=GRID, lo_open: bool, hi_open: bool) -> Interval {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        Interval::new(lo as f64, lo_open, hi as f64, hi_open)
    }
}

prop_compose! {
    fn arb_predicate(width: usize)(
        atoms in prop::collection::vec((0..width, arb_interval()), 0..3)
    ) -> Predicate {
        Predicate::new(atoms.into_iter().map(|(attr, iv)| Atom::new(attr, iv)).collect())
    }
}

/// Exhaustive oracle over the integer grid [0, GRID]^width.
fn oracle_sat(base: &Region, negs: &[&Predicate], width: usize) -> bool {
    let mut idx = vec![0i64; width];
    loop {
        let row: Vec<f64> = idx.iter().map(|v| *v as f64).collect();
        if base.contains_row(&row) && negs.iter().all(|p| !p.eval(&row)) {
            return true;
        }
        // odometer increment
        let mut k = 0;
        loop {
            if k == width {
                return false;
            }
            idx[k] += 1;
            if idx[k] <= GRID {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

/// Guillotine-tile `[0, 1]²` (Float) by applying `cuts` in order: each
/// cut `(pick, vertical, at)` splits tile `pick % len` at fraction
/// `at / 1000` of its width on one axis. The halves share the cut as a
/// half-open edge, `[a, c)` next to `[c, b]`, so the tiles are disjoint,
/// non-empty and cover the box exactly.
fn float_tiling(cuts: &[(usize, bool, u32)]) -> Vec<[Interval; 2]> {
    let mut tiles = vec![[Interval::closed(0.0, 1.0); 2]];
    for &(pick, vertical, at) in cuts {
        let k = pick % tiles.len();
        let axis = usize::from(vertical);
        let iv = tiles[k][axis];
        let c = iv.lo + (iv.hi - iv.lo) * f64::from(at) / 1000.0;
        if !(iv.lo < c && c < iv.hi) {
            continue; // the tile is too thin to cut in f64
        }
        let mut upper = tiles[k];
        tiles[k][axis] = Interval::new(iv.lo, iv.lo_open, c, true);
        upper[axis] = Interval::new(c, false, iv.hi, iv.hi_open);
        tiles.push(upper);
    }
    tiles
}

/// Guillotine-tile the Int grid `[0, GRID]²` the same way; a tile one
/// point wide on the cut axis is left whole. Lower halves are written
/// half-open (`[lo, c)`) and upper halves closed (`[c, hi]`), as a
/// Corr-PC grid writes its buckets.
fn int_tiling(cuts: &[(usize, bool, u32)]) -> Vec<[Interval; 2]> {
    let g = GRID as f64;
    let mut tiles = vec![[Interval::closed(0.0, g); 2]];
    for &(pick, vertical, at) in cuts {
        let k = pick % tiles.len();
        let axis = usize::from(vertical);
        let iv = tiles[k][axis].normalize(AttrType::Int);
        if iv.hi <= iv.lo {
            continue;
        }
        // an integer cut point in (lo, hi]
        let c = iv.lo + 1.0 + f64::from(at % (iv.hi - iv.lo) as u32);
        let mut upper = tiles[k];
        tiles[k][axis] = Interval::half_open(iv.lo, c);
        upper[axis] = Interval::closed(c, iv.hi);
        tiles.push(upper);
    }
    tiles
}

fn tile_predicate(tile: &[Interval; 2]) -> Predicate {
    Predicate::new(vec![Atom::new(0, tile[0]), Atom::new(1, tile[1])])
}

/// The tiling properties: the full tiling is UNSAT, and dropping tile
/// `drop` leaves a witness inside exactly that tile.
fn check_tiling(base: &Region, tiles: &[[Interval; 2]], drop: usize) -> Result<(), TestCaseError> {
    let preds: Vec<Predicate> = tiles.iter().map(tile_predicate).collect();
    let all: Vec<&Predicate> = preds.iter().collect();
    prop_assert!(
        sat::find_witness(base, &all).is_none(),
        "a tiling must refute"
    );
    let dropped = drop % preds.len();
    let rest: Vec<&Predicate> = all
        .iter()
        .enumerate()
        .filter_map(|(i, p)| (i != dropped).then_some(*p))
        .collect();
    let w = sat::find_witness(base, &rest)
        .ok_or_else(|| TestCaseError::fail("dropping a tile must open a hole"))?;
    prop_assert!(base.contains_row(&w));
    prop_assert!(
        preds[dropped].eval(&w),
        "witness {:?} lies outside the dropped tile",
        w
    );
    Ok(())
}

proptest! {
    #[test]
    fn sat_matches_grid_oracle(
        base_pred in arb_predicate(2),
        negs in prop::collection::vec(arb_predicate(2), 0..10)
    ) {
        let schema = int_schema(2);
        let mut base = base_pred.to_region(&schema);
        // confine the base to the oracle's grid so both sides see the same
        // universe
        base.intersect_atom(&Atom::between(0, 0.0, GRID as f64));
        base.intersect_atom(&Atom::between(1, 0.0, GRID as f64));
        let neg_refs: Vec<&Predicate> = negs.iter().collect();
        let got = sat::is_sat(&base, &neg_refs);
        let want = oracle_sat(&base, &neg_refs, 2);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn witness_is_genuine(
        base_pred in arb_predicate(3),
        negs in prop::collection::vec(arb_predicate(3), 0..4)
    ) {
        let schema = int_schema(3);
        let base = base_pred.to_region(&schema);
        let neg_refs: Vec<&Predicate> = negs.iter().collect();
        if let Some(w) = sat::find_witness(&base, &neg_refs) {
            prop_assert!(base.contains_row(&w));
            for p in &neg_refs {
                prop_assert!(!p.eval(&w), "witness satisfies an excluded predicate");
            }
        }
    }

    /// Random guillotine tilings of a Float box refute; every tile is
    /// needed for that.
    #[test]
    fn float_tilings_refute_and_each_tile_is_needed(
        cuts in prop::collection::vec((0usize..64, any::<bool>(), 1u32..1000), 0..40),
        drop in 0usize..64
    ) {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut base = Region::full(&schema);
        base.intersect_atom(&Atom::between(0, 0.0, 1.0));
        base.intersect_atom(&Atom::between(1, 0.0, 1.0));
        check_tiling(&base, &float_tiling(&cuts), drop)?;
    }

    /// The same over the Int grid, where open and closed endpoints
    /// snap to the integer lattice.
    #[test]
    fn int_tilings_refute_and_each_tile_is_needed(
        cuts in prop::collection::vec((0usize..64, any::<bool>(), 0u32..64), 0..40),
        drop in 0usize..64
    ) {
        let schema = int_schema(2);
        let mut base = Region::full(&schema);
        base.intersect_atom(&Atom::between(0, 0.0, GRID as f64));
        base.intersect_atom(&Atom::between(1, 0.0, GRID as f64));
        check_tiling(&base, &int_tiling(&cuts), drop)?;
    }

    #[test]
    fn intersect_is_conjunction(a in arb_interval(), b in arb_interval(), v in 0..=GRID) {
        let v = v as f64;
        let both = a.contains(v) && b.contains(v);
        prop_assert_eq!(a.intersect(&b).contains(v), both);
    }

    #[test]
    fn complement_partitions_line_int(iv in arb_interval(), v in 0..=GRID) {
        let v = v as f64;
        let in_iv = iv.normalize(AttrType::Int).contains(v);
        let in_comp = iv
            .complement(AttrType::Int)
            .iter()
            .any(|c| c.contains(v));
        prop_assert!(in_iv ^ in_comp, "every point is in exactly one side");
    }

    #[test]
    fn complement_partitions_line_float(iv in arb_interval(), num in -20i32..40, den in 1i32..4) {
        let v = f64::from(num) / f64::from(den);
        let in_iv = iv.contains(v);
        let in_comp = iv
            .complement(AttrType::Float)
            .iter()
            .any(|c| c.contains(v));
        prop_assert!(in_iv ^ in_comp);
    }

    #[test]
    fn interval_set_union_semantics(
        ivs in prop::collection::vec(arb_interval(), 0..6),
        v in 0..=GRID
    ) {
        let v = v as f64;
        let direct = ivs.iter().any(|iv| iv.normalize(AttrType::Int).contains(v));
        let set = IntervalSet::from_intervals(ivs.clone(), AttrType::Int);
        prop_assert_eq!(set.contains(v), direct);
        // pieces are pairwise disjoint and sorted
        let pieces = set.pieces();
        for w in pieces.windows(2) {
            prop_assert!(w[0].hi < w[1].lo, "pieces must be disjoint and sorted");
        }
    }

    #[test]
    fn interval_set_subtract_semantics(
        ivs in prop::collection::vec(arb_interval(), 1..5),
        cut in arb_interval(),
        v in 0..=GRID
    ) {
        let v = v as f64;
        let set = IntervalSet::from_intervals(ivs, AttrType::Int);
        let sub = set.subtract_interval(&cut, AttrType::Int);
        let want = set.contains(v) && !cut.normalize(AttrType::Int).contains(v);
        prop_assert_eq!(sub.contains(v), want);
    }

    #[test]
    fn containment_agrees_with_membership(a in arb_interval(), b in arb_interval()) {
        if a.contains_interval(&b, AttrType::Int) {
            for v in 0..=GRID {
                let v = v as f64;
                if b.normalize(AttrType::Int).contains(v) {
                    prop_assert!(a.contains(v));
                }
            }
        }
    }
}
