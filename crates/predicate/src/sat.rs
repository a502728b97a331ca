//! Exact satisfiability for decomposed cells.
//!
//! A cell produced by cell decomposition (§4.1 of the paper) has the shape
//! `base ∧ ¬ψ₁ ∧ … ∧ ¬ψₖ`, where `base` is the conjunction of the *included*
//! predicates (and the query pushdown predicate, Optimization 1) and the
//! `ψⱼ` are the *excluded* predicates. Geometrically this asks whether the
//! box `base` minus the union of boxes `ψⱼ` is non-empty.
//!
//! The paper uses Z3 for this test. Because predicates are restricted to
//! conjunctions of ranges, the problem is decidable by a small DPLL-style
//! search: if some `ψⱼ` covers `base`, the cell is empty; otherwise pick a
//! `ψ = a₁ ∧ … ∧ a_m` and split `base \ ψ` into disjoint boxes (standard
//! box difference): branch `j` is "a₁ … a_{j−1} hold ∧ a_j is violated",
//! one branch per complement piece of `a_j`. The search is exact (no
//! approximation) and produces a concrete witness row on success.
//!
//! The branches **partition** `base \ ψ`, and that is what keeps UNSAT
//! proofs small. Branching on "violate a₁" OR … OR "violate a_m" alone
//! would cover the same set, but those branches overlap (on a grid,
//! "x < lo" and "y < lo" share a quadrant); an UNSAT proof must refute
//! every branch, so it would refute each shared part once per branch
//! that holds it, at every level, and grow exponentially with the number
//! of exclusions. With disjoint branches each region is refuted once:
//! proving a 144-cell Corr-PC grid closed takes about 0.2 ms.
//!
//! # Branch ordering
//!
//! ψ's atoms are ordered **largest surviving width first**: an atom
//! scores the share of `base`'s width on its attribute that its best
//! complement piece keeps, and each atom's pieces are tried best first.
//! A wide piece is the likeliest to still hold a witness, so trying it
//! first ends a SAT search sooner (the Atreides-style most-promising-
//! first rule, applied with pure interval arithmetic — no catalog
//! statistics needed at this level). The first branch has no prefix: it
//! is the single widest complement piece of any atom.
//!
//! The verdict is order-independent: *any* atom order gives a partition
//! of the same set `base \ ψ` (only the prefix atoms, and so the branch
//! boxes, change), and on failure every branch is still tried. Only the
//! identity of the returned witness depends on the order, and the order
//! is a pure function of `base` and ψ, so the same inputs always return
//! the same witness.
//!
//! # Budgets
//!
//! [`find_witness_budgeted`] is the cooperative-cancellation entry: it
//! charges the probe against a [`QueryBudget`] and re-checks the
//! budget's passive limits (deadline / cancel) at every recursion and
//! after every branch, so a tripped search unwinds within one branch
//! granule. A tripped probe reports [`SatOutcome::Tripped`],
//! **never** `Unsat`: the search was abandoned, not refuted, and
//! callers must treat the cell as possibly satisfiable (the
//! EarlyStop-style sound widening).

use crate::{Atom, Interval, Predicate, Region};
use pc_budget::QueryBudget;

/// Tri-state verdict of a budgeted satisfiability probe.
#[derive(Debug, Clone, PartialEq)]
pub enum SatOutcome {
    /// A genuine witness row of the cell.
    Sat(Vec<f64>),
    /// Exactly refuted: no point of the cell exists.
    Unsat,
    /// The budget tripped before the search finished. The cell **may**
    /// be satisfiable — treating it as empty would be unsound.
    Tripped,
}

impl SatOutcome {
    /// The witness, if the probe proved satisfiability.
    pub fn witness(self) -> Option<Vec<f64>> {
        match self {
            SatOutcome::Sat(w) => Some(w),
            _ => None,
        }
    }
}

/// Decide whether `base ∧ ¬ψ₁ ∧ … ∧ ¬ψₖ` is satisfiable, returning a
/// witness row (one encoded `f64` per attribute) if so.
///
/// `negs` are the excluded predicates. An excluded tautology makes every
/// cell empty (`¬TRUE` is unsatisfiable), which falls out naturally since
/// the tautology's box covers everything.
pub fn find_witness(base: &Region, negs: &[&Predicate]) -> Option<Vec<f64>> {
    #[cfg(feature = "fault")]
    pc_budget::fault::point("sat::probe");
    search(base, negs, &QueryBudget::unlimited())
}

/// [`find_witness`] under a [`QueryBudget`]: charges one SAT probe,
/// re-checks the passive limits at every recursion, and reports the
/// tri-state [`SatOutcome`] — `Tripped` when the budget ran out before
/// the search could conclude (see the module docs; never read `Tripped`
/// as `Unsat`).
pub fn find_witness_budgeted(
    base: &Region,
    negs: &[&Predicate],
    budget: &QueryBudget,
) -> SatOutcome {
    #[cfg(feature = "fault")]
    pc_budget::fault::point("sat::probe");
    if !budget.charge_sat() {
        return SatOutcome::Tripped;
    }
    match search(base, negs, budget) {
        Some(w) => SatOutcome::Sat(w),
        // A `None` under a tripped budget is an abandoned search, not a
        // refutation (the trip may have landed after a genuine UNSAT
        // concluded — reporting `Tripped` for it is sound, merely
        // looser).
        None if budget.is_tripped() => SatOutcome::Tripped,
        None => SatOutcome::Unsat,
    }
}

/// The DPLL-style search. A tripped `budget` aborts it with `None`; the
/// budgeted public entry re-reads the budget to tell an abandoned search
/// from a refutation.
fn search(base: &Region, negs: &[&Predicate], budget: &QueryBudget) -> Option<Vec<f64>> {
    if !budget.proceed() {
        return None;
    }
    if base.is_empty() {
        return None;
    }
    // Keep only excluded predicates whose box intersects `base`; a disjoint
    // exclusion is vacuously satisfied. If any exclusion covers `base`
    // entirely, no witness can exist. Both facts are decided per-atom on
    // interval intersections without materializing `base ∩ ψ`.
    let mut live: Vec<&Predicate> = Vec::with_capacity(negs.len());
    for p in negs {
        let mut disjoint = false;
        let mut unchanged = true;
        let atoms = p.atoms();
        for (i, atom) in atoms.iter().enumerate() {
            // Fold earlier atoms on the same attribute into the current
            // interval so conjunctions like `x ∈ [0,3] ∧ x ∈ [5,8]` are
            // recognized as empty (cumulative emptiness), exactly like the
            // old materialized `base ∩ ψ` test. Predicates have a handful
            // of atoms, so the inner scan is cheaper than a region clone.
            let mut cur = *base.interval(atom.attr);
            for prev in &atoms[..i] {
                if prev.attr == atom.attr {
                    cur = cur.intersect(&prev.interval);
                }
            }
            let narrowed = cur.intersect(&atom.interval);
            if narrowed.is_empty(base.attr_type(atom.attr)) {
                // ψ can't capture any point of base
                disjoint = true;
                break;
            }
            if narrowed != cur {
                unchanged = false;
            }
        }
        if disjoint {
            continue;
        }
        if unchanged || covers(p, base) {
            return None;
        }
        live.push(p);
    }
    if live.is_empty() {
        return base.pick_witness();
    }
    // Branch on the exclusion with the fewest atoms: fewest subproblems.
    let (pick_idx, pick) = live
        .iter()
        .enumerate()
        .min_by_key(|(_, p)| p.atoms().len())
        .map(|(i, p)| (i, *p))
        .expect("live is non-empty");
    let rest: Vec<&Predicate> = live
        .iter()
        .enumerate()
        .filter_map(|(i, p)| (i != pick_idx).then_some(*p))
        .collect();

    // A witness avoiding ψ lies in exactly one piece of the box
    // difference `base \ ψ` — the disjoint branches, tried
    // largest-surviving-fraction first (module docs, "Branch ordering").
    let cuts = ordered_cuts(base, pick);
    let branches = disjoint_branches(base, &cuts);
    // The boxes are built lazily, only for the branches actually
    // reached — the first witness stops the scan.
    for shrunk in branches {
        let found = search(&shrunk, &rest, budget);
        if found.is_some() {
            return found;
        }
        if !budget.proceed() {
            return None;
        }
    }
    None
}

/// One atom of the picked exclusion with its complement pieces inside
/// `base`, widest first; `score` is the surviving-width fraction of the
/// widest piece.
struct Cut<'p> {
    atom: &'p Atom,
    pieces: Vec<Interval>,
    score: f64,
}

/// The picked exclusion's atoms, **largest surviving-width fraction
/// first**. An atom with no complement piece inside `base` holds on all
/// of it, so it neither branches nor narrows later branches and is left
/// out. Ties keep declaration order, so the ordering is deterministic
/// and degenerates to declaration order on unscorable (unbounded) axes.
fn ordered_cuts<'p>(base: &Region, pick: &'p Predicate) -> Vec<Cut<'p>> {
    let mut cuts: Vec<Cut> = Vec::with_capacity(pick.atoms().len());
    for atom in pick.atoms() {
        let ty = base.attr_type(atom.attr);
        let cur = base.interval(atom.attr);
        let mut pieces = atom.interval.complement(ty);
        pieces.retain_mut(|piece| {
            *piece = cur.intersect(piece);
            !piece.is_empty(ty)
        });
        // a complement has at most two pieces: below and above the atom
        let score = match pieces[..] {
            [] => continue,
            [only] => surviving_fraction(&only, cur),
            [below, above, ..] => {
                let (fb, fa) = (
                    surviving_fraction(&below, cur),
                    surviving_fraction(&above, cur),
                );
                if fa > fb {
                    pieces.swap(0, 1);
                }
                fb.max(fa)
            }
        };
        let at = cuts.partition_point(|c| c.score >= score);
        cuts.insert(
            at,
            Cut {
                atom,
                pieces,
                score,
            },
        );
    }
    cuts
}

/// The disjoint boxes of `base \ ψ`, in try order: for each cut, one box
/// per complement piece, inside the atoms of all earlier cuts (the
/// prefix). Boxes are cloned lazily, one per branch taken; a piece the
/// prefix empties (atoms sharing an attribute) is skipped.
fn disjoint_branches<'a>(
    base: &'a Region,
    cuts: &'a [Cut<'a>],
) -> impl Iterator<Item = Region> + 'a {
    cuts.iter().enumerate().flat_map(move |(j, cut)| {
        let prefix = &cuts[..j];
        let attr = cut.atom.attr;
        cut.pieces.iter().filter_map(move |piece| {
            let narrowed = prefix
                .iter()
                .filter(|prev| prev.atom.attr == attr)
                .fold(*piece, |n, prev| n.intersect(&prev.atom.interval));
            if narrowed.is_empty(base.attr_type(attr)) {
                return None;
            }
            let mut shrunk = base.clone();
            for prev in prefix {
                shrunk.intersect_atom(prev.atom);
            }
            shrunk.set_interval(attr, narrowed);
            Some(shrunk)
        })
    })
}

/// Fraction of `cur`'s width that `narrowed` keeps, in `[0, 1]`. An
/// unbounded `cur` gives no scale: an unbounded survivor keeps
/// "everything" (1.0), a finite one is pessimistically half (0.5) — the
/// same convention as pc-core's estimate layer.
fn surviving_fraction(narrowed: &Interval, cur: &Interval) -> f64 {
    let cur_w = cur.hi - cur.lo;
    if !cur_w.is_finite() || cur_w <= 0.0 {
        let nw = narrowed.hi - narrowed.lo;
        return if nw.is_finite() { 0.5 } else { 1.0 };
    }
    ((narrowed.hi - narrowed.lo) / cur_w).clamp(0.0, 1.0)
}

/// Decide satisfiability without materializing the witness.
pub fn is_sat(base: &Region, negs: &[&Predicate]) -> bool {
    find_witness(base, negs).is_some()
}

/// True if predicate `p`'s box contains all of `base`.
fn covers(p: &Predicate, base: &Region) -> bool {
    p.atoms().iter().all(|atom| {
        let ty = base.attr_type(atom.attr);
        atom.interval
            .contains_interval(base.interval(atom.attr), ty)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, AttrType, Interval, Schema};

    fn schema() -> Schema {
        Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)])
    }

    fn boxp(x0: f64, x1: f64, y0: f64, y1: f64) -> Predicate {
        Predicate::always()
            .and(Atom::between(0, x0, x1))
            .and(Atom::between(1, y0, y1))
    }

    #[test]
    fn self_contradictory_exclusion_is_dropped_without_search() {
        // two atoms on the same attribute with an empty conjunction: the
        // exclusion can capture nothing and must not spawn branch work
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let contradictory = Predicate::always()
            .and(Atom::between(0, 0.0, 3.0))
            .and(Atom::between(0, 5.0, 8.0));
        let w = find_witness(&base, &[&contradictory]).unwrap();
        assert!(base.contains_row(&w));
    }

    #[test]
    fn branches_partition_the_box_difference() {
        // every grid point of base \ ψ lies in exactly one branch box,
        // and no point of ψ in any — including when atoms share an
        // attribute, where the prefix must narrow the later pieces
        let s = Schema::new(vec![("x", AttrType::Int), ("y", AttrType::Int)]);
        let mut base = Region::full(&s);
        base.intersect_atom(&Atom::between(0, 0.0, 8.0));
        base.intersect_atom(&Atom::between(1, 0.0, 8.0));
        let picks = [
            Predicate::always()
                .and(Atom::between(0, 2.0, 6.0))
                .and(Atom::between(1, 3.0, 5.0)),
            Predicate::always()
                .and(Atom::between(0, 2.0, 6.0))
                .and(Atom::bucket(0, 4.0, 9.0))
                .and(Atom::between(1, 1.0, 5.0)),
            Predicate::always()
                .and(Atom::bucket(1, 0.0, 3.0))
                .and(Atom::between(0, -1.0, 20.0)),
        ];
        for pick in &picks {
            let cuts = ordered_cuts(&base, pick);
            let boxes: Vec<Region> = disjoint_branches(&base, &cuts).collect();
            for x in 0..=8 {
                for y in 0..=8 {
                    let row = [f64::from(x), f64::from(y)];
                    let hits = boxes.iter().filter(|b| b.contains_row(&row)).count();
                    let want = usize::from(!pick.eval(&row));
                    assert_eq!(hits, want, "point {row:?} against {pick:?}");
                }
            }
        }
    }

    #[test]
    fn no_exclusions_sat() {
        let s = schema();
        let base = boxp(0.0, 1.0, 0.0, 1.0).to_region(&s);
        let w = find_witness(&base, &[]).unwrap();
        assert!(base.contains_row(&w));
    }

    #[test]
    fn covered_base_unsat() {
        let s = schema();
        let base = boxp(0.0, 1.0, 0.0, 1.0).to_region(&s);
        let cover = boxp(-1.0, 2.0, -1.0, 2.0);
        assert!(!is_sat(&base, &[&cover]));
    }

    #[test]
    fn negated_tautology_unsat() {
        let s = schema();
        let base = Region::full(&s);
        let taut = Predicate::always();
        assert!(!is_sat(&base, &[&taut]));
    }

    #[test]
    fn disjoint_exclusion_ignored() {
        let s = schema();
        let base = boxp(0.0, 1.0, 0.0, 1.0).to_region(&s);
        let far = boxp(10.0, 11.0, 10.0, 11.0);
        let w = find_witness(&base, &[&far]).unwrap();
        assert!(base.contains_row(&w));
    }

    #[test]
    fn partial_overlap_sat_with_witness_outside_exclusion() {
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let cut = boxp(0.0, 5.0, 0.0, 10.0);
        let w = find_witness(&base, &[&cut]).unwrap();
        assert!(base.contains_row(&w));
        assert!(!cut.eval(&w));
    }

    #[test]
    fn union_of_two_halves_covers() {
        // two exclusions that jointly (but not individually) cover base
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let left = boxp(-1.0, 5.0, -1.0, 11.0);
        let right = boxp(5.0, 11.0, -1.0, 11.0);
        assert!(!is_sat(&base, &[&left, &right]));
    }

    #[test]
    fn union_with_gap_sat() {
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let left = boxp(-1.0, 4.0, -1.0, 11.0);
        let right = boxp(6.0, 11.0, -1.0, 11.0);
        let w = find_witness(&base, &[&left, &right]).unwrap();
        assert!(base.contains_row(&w));
        assert!(!left.eval(&w) && !right.eval(&w));
        assert!(w[0] > 4.0 && w[0] < 6.0);
    }

    #[test]
    fn cross_covering_quadrants() {
        // four quadrant boxes cover the unit square only jointly
        let s = schema();
        let base = boxp(0.0, 1.0, 0.0, 1.0).to_region(&s);
        let q1 = boxp(0.0, 0.5, 0.0, 0.5);
        let q2 = boxp(0.5, 1.0, 0.0, 0.5);
        let q3 = boxp(0.0, 0.5, 0.5, 1.0);
        let q4 = boxp(0.5, 1.0, 0.5, 1.0);
        assert!(!is_sat(&base, &[&q1, &q2, &q3, &q4]));
        // leave a pinhole: shrink q4 so (0.75, 0.75) escapes through the
        // open corner
        let q4_small = Predicate::always()
            .and(Atom::new(0, Interval::closed(0.5, 0.7)))
            .and(Atom::new(1, Interval::closed(0.5, 1.0)));
        let w = find_witness(&base, &[&q1, &q2, &q3, &q4_small]).unwrap();
        assert!(base.contains_row(&w));
        for q in [&q1, &q2, &q3, &q4_small] {
            assert!(!q.eval(&w));
        }
    }

    #[test]
    fn discrete_domain_exact_cover() {
        // base: cat ∈ [0, 2]; exclusions cat=0, cat=1, cat=2 cover exactly
        let s = Schema::new(vec![("c", AttrType::Cat)]);
        let mut base = Region::full(&s);
        base.intersect_atom(&Atom::between(0, 0.0, 2.0));
        let e0 = Predicate::atom(Atom::eq(0, 0.0));
        let e1 = Predicate::atom(Atom::eq(0, 1.0));
        let e2 = Predicate::atom(Atom::eq(0, 2.0));
        assert!(!is_sat(&base, &[&e0, &e1, &e2]));
        assert!(is_sat(&base, &[&e0, &e2]));
        let w = find_witness(&base, &[&e0, &e2]).unwrap();
        assert_eq!(w[0], 1.0);
    }

    #[test]
    fn budgeted_probe_matches_exact_when_unlimited() {
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let left = boxp(-1.0, 5.0, -1.0, 11.0);
        let right = boxp(5.0, 11.0, -1.0, 11.0);
        let gap_right = boxp(6.0, 11.0, -1.0, 11.0);
        let b = QueryBudget::unlimited();
        assert_eq!(
            find_witness_budgeted(&base, &[&left, &right], &b),
            SatOutcome::Unsat
        );
        match find_witness_budgeted(&base, &[&left, &gap_right], &b) {
            SatOutcome::Sat(w) => assert!(base.contains_row(&w)),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_budget_reports_tripped_not_unsat() {
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let left = boxp(-1.0, 5.0, -1.0, 11.0);
        let right = boxp(5.0, 11.0, -1.0, 11.0);
        // cap 0: the very first charge trips — even though the cell is
        // genuinely UNSAT, the abandoned probe must not claim so
        let b = QueryBudget::unlimited().with_sat_cap(0);
        assert_eq!(
            find_witness_budgeted(&base, &[&left, &right], &b),
            SatOutcome::Tripped
        );
        assert!(b.is_tripped());
    }

    #[test]
    fn cancelled_budget_aborts_mid_search() {
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let left = boxp(-1.0, 5.0, -1.0, 11.0);
        let right = boxp(5.0, 11.0, -1.0, 11.0);
        let b = QueryBudget::armed();
        b.cancel_token().expect("armed").cancel();
        assert_eq!(
            find_witness_budgeted(&base, &[&left, &right], &b),
            SatOutcome::Tripped
        );
    }

    #[test]
    fn paper_example_three_cells() {
        // §4.4: t1 = Nov11 ≤ utc < Nov12, t2 = Nov11 ≤ utc < Nov13.
        // Cell t1 ∧ ¬t2 is unsatisfiable; the others are satisfiable.
        let s = Schema::new(vec![("utc", AttrType::Int), ("price", AttrType::Float)]);
        let t1 = Predicate::atom(Atom::bucket(0, 11.0, 12.0));
        let t2 = Predicate::atom(Atom::bucket(0, 11.0, 13.0));
        let full = Region::full(&s);

        // c1 = t1 ∧ t2
        let c1 = {
            let mut r = full.clone();
            for a in t1.atoms().iter().chain(t2.atoms()) {
                r.intersect_atom(a);
            }
            r
        };
        assert!(is_sat(&c1, &[]));

        // c2 = ¬t1 ∧ t2
        let c2 = {
            let mut r = full.clone();
            for a in t2.atoms() {
                r.intersect_atom(a);
            }
            r
        };
        assert!(is_sat(&c2, &[&t1]));

        // c3 = t1 ∧ ¬t2 : t2's box contains t1's box, so unsat
        let c3 = {
            let mut r = full.clone();
            for a in t1.atoms() {
                r.intersect_atom(a);
            }
            r
        };
        assert!(!is_sat(&c3, &[&t2]));
    }
}
