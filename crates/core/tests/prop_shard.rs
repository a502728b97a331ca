//! Property tests for sharded decomposition: over random catalogs mixing
//! tile-disjoint and cross-cutting constraints, every bound the sharded
//! engine computes (all five aggregates, arbitrary query regions,
//! GROUP-BY, and sessions under random mutation sequences) must equal the
//! unsharded oracle (`BoundOptions { shard: false }`) — the factoring
//! theorem is that connected components of the constraint-interaction
//! graph decompose and allocate independently. A fault-feature test
//! checks the isolation story: a budget trip inside one shard's build
//! degrades only that shard's contribution, and a skew unit test checks
//! the quantile re-ordering of heavy shards never moves a bound.

use pc_core::{
    BoundEngine, BoundError, BoundOptions, ConstraintId, FrequencyConstraint, PcSet,
    PredicateConstraint, QueryBudget, Session, SessionOptions, ValueConstraint,
    SHARD_RESPLIT_THRESHOLD,
};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::{AggKind, AggQuery};
use proptest::prelude::*;

/// Three tiles of width 4 on the x axis: [0,4), [4,8), [8,12).
const TILE: i64 = 4;
const TILES: i64 = 3;
const XMAX: i64 = TILE * TILES;
const VMAX: i64 = 20;

fn schema() -> Schema {
    Schema::new(vec![("x", AttrType::Int), ("v", AttrType::Int)])
}

fn build_set(pcs: Vec<PredicateConstraint>) -> PcSet {
    let mut set = PcSet::new(schema());
    let mut domain = Region::full(set.schema());
    domain.set_interval(0, Interval::closed(0.0, XMAX as f64));
    domain.set_interval(1, Interval::closed(0.0, VMAX as f64));
    for pc in pcs {
        set.push(pc);
    }
    set.set_domain(domain);
    set
}

fn pc_on(xlo: f64, xhi: f64, vlo: f64, vhi: f64, forced: bool, ku: u64) -> PredicateConstraint {
    let freq = if forced {
        FrequencyConstraint::between(1, ku)
    } else {
        FrequencyConstraint::at_most(ku)
    };
    PredicateConstraint::new(
        Predicate::always()
            .and(Atom::between(0, xlo, xhi))
            .and(Atom::between(1, vlo, vhi)),
        ValueConstraint::none().with(1, Interval::closed(vlo, vhi - 1.0)),
        freq,
    )
}

prop_compose! {
    /// A constraint whose x-box usually stays inside one tile (so random
    /// catalogs tend to factor into several interaction components) but
    /// sometimes spans tiles (merging components — the hard case).
    fn arb_pc()(
        tile in 0..TILES,
        a in 0..TILE, b in 0..TILE,
        c in 0..=VMAX, d in 0..=VMAX,
        ku in 1u64..8,
        forced: bool,
        cross in 0usize..10,
    ) -> PredicateConstraint {
        let (vlo, vhi) = (c.min(d) as f64, c.max(d) as f64 + 1.0);
        if cross < 3 {
            // cross-cutting: an arbitrary span that may bridge tiles
            let (xlo, xhi) = (
                (tile * TILE + a.min(b)) as f64,
                (tile * TILE + a.max(b)) as f64 + TILE as f64,
            );
            pc_on(xlo, xhi.min(XMAX as f64), vlo, vhi, forced, ku)
        } else {
            // tile-local: x-box inside tile `tile`
            let (xlo, xhi) = (
                (tile * TILE + a.min(b)) as f64,
                (tile * TILE + a.max(b)) as f64 + 1.0,
            );
            pc_on(xlo, xhi, vlo, vhi, forced, ku)
        }
    }
}

prop_compose! {
    fn arb_query()(
        agg_pick in 0usize..5,
        a in 0..=XMAX, b in 0..=XMAX,
        full: bool,
    ) -> AggQuery {
        let agg = [AggKind::Sum, AggKind::Count, AggKind::Avg, AggKind::Min, AggKind::Max][agg_pick];
        let predicate = if full {
            Predicate::always()
        } else {
            let (lo, hi) = (a.min(b) as f64, a.max(b) as f64);
            Predicate::atom(Atom::between(0, lo, hi + 1.0))
        };
        AggQuery::new(agg, 1, predicate)
    }
}

fn flat_options() -> BoundOptions {
    BoundOptions {
        shard: false,
        ..BoundOptions::default()
    }
}

fn results_equal(
    q: &AggQuery,
    flat: &Result<pc_core::BoundReport, BoundError>,
    sharded: &Result<pc_core::BoundReport, BoundError>,
) -> Result<(), String> {
    match (flat, sharded) {
        (Ok(x), Ok(y)) => {
            let lo_ok = (x.range.lo - y.range.lo).abs() < 1e-5
                || (x.range.lo.is_infinite() && x.range.lo == y.range.lo);
            let hi_ok = (x.range.hi - y.range.hi).abs() < 1e-5
                || (x.range.hi.is_infinite() && x.range.hi == y.range.hi);
            if !lo_ok || !hi_ok {
                return Err(format!(
                    "{q:?}: flat [{}, {}] vs sharded [{}, {}]",
                    x.range.lo, x.range.hi, y.range.lo, y.range.hi
                ));
            }
            if x.closed != y.closed {
                return Err(format!("{q:?}: closed {} vs {}", x.closed, y.closed));
            }
            Ok(())
        }
        (Err(x), Err(y)) if x == y => Ok(()),
        (x, y) => Err(format!("{q:?}: flat {x:?} vs sharded {y:?}")),
    }
}

/// One catalog mutation; retire/replace targets resolve by index seed
/// into the live-id list at application time.
#[derive(Debug, Clone)]
enum Op {
    Add(PredicateConstraint),
    Retire(usize),
    Replace(usize, PredicateConstraint),
}

prop_compose! {
    fn arb_op()(
        pick in 0usize..6,
        seed in 0usize..8,
        pc in arb_pc(),
    ) -> Op {
        match pick {
            0..=2 => Op::Add(pc),
            3 | 4 => Op::Retire(seed),
            _ => Op::Replace(seed, pc),
        }
    }
}

fn apply(session: &Session, op: &Op) -> bool {
    let live: Vec<ConstraintId> = session.constraint_ids();
    match op {
        Op::Add(pc) => {
            session.add_constraint(pc.clone());
            true
        }
        Op::Retire(seed) => {
            if live.is_empty() {
                return false;
            }
            session
                .retire_constraint(live[seed % live.len()])
                .expect("live id retires");
            true
        }
        Op::Replace(seed, pc) => {
            if live.is_empty() {
                return false;
            }
            session
                .replace_constraint(live[seed % live.len()], pc.clone())
                .expect("live id replaces");
            true
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One-shot engine: sharded bounds equal the unsharded oracle for
    /// every aggregate and query region, and the report carries the shard
    /// topology whenever the catalog genuinely factored.
    #[test]
    fn sharded_bounds_equal_unsharded_oracle(
        pcs in prop::collection::vec(arb_pc(), 1..7),
        qs in prop::collection::vec(arb_query(), 1..4),
    ) {
        let set = build_set(pcs);
        let components = pc_core::interaction_components(&set).len();
        let sharded = BoundEngine::new(&set);
        let flat = BoundEngine::with_options(&set, flat_options());
        for q in &qs {
            let s = sharded.bound(q);
            if let Err(msg) = results_equal(q, &flat.bound(q), &s) {
                return Err(TestCaseError::fail(msg));
            }
            if components > 1 {
                if let Ok(r) = &s {
                    prop_assert_eq!(r.stats.shards, components, "{:?}", q);
                    prop_assert_eq!(r.shard_sat_checks.len(), components, "{:?}", q);
                }
            }
        }
    }

    /// GROUP-BY: the sharded route (per-key over factored catalogs)
    /// answers every key exactly as the unsharded two-level scheme.
    #[test]
    fn sharded_group_by_equals_unsharded(
        pcs in prop::collection::vec(arb_pc(), 1..6),
        agg_pick in 0usize..5,
    ) {
        let set = build_set(pcs);
        let agg = [AggKind::Sum, AggKind::Count, AggKind::Avg, AggKind::Min, AggKind::Max][agg_pick];
        let base = AggQuery::new(agg, 1, Predicate::always());
        let keys: Vec<f64> = (0..XMAX).map(|x| x as f64).collect();
        let sharded = BoundEngine::new(&set).bound_group_by(&base, 0, keys.clone());
        let flat = BoundEngine::with_options(&set, flat_options())
            .bound_group_by(&base, 0, keys);
        prop_assert_eq!(sharded.len(), flat.len());
        for (s, f) in sharded.iter().zip(&flat) {
            prop_assert_eq!(s.key, f.key);
            let q = AggQuery::new(agg, 1, Predicate::atom(Atom::eq(0, s.key)));
            if let Err(msg) = results_equal(&q, &f.report, &s.report) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    /// Sessions under churn: after every mutation the sharded session
    /// (shard-local epoch derivation, possibly merging and splitting
    /// components) serves the same bounds as an unsharded session freshly
    /// built on the materialized catalog.
    #[test]
    fn sharded_sessions_survive_churn(
        pcs in prop::collection::vec(arb_pc(), 1..4),
        ops in prop::collection::vec(arb_op(), 1..5),
        qs in prop::collection::vec(arb_query(), 1..3),
    ) {
        let session = Session::new(build_set(pcs));
        // prime epoch 0 so every mutation derives shard-locally
        session.cell_set().expect("decomposable seed");
        for op in &ops {
            if !apply(&session, op) {
                continue;
            }
            let set = session.pc_set();
            let oracle = Session::with_options((*set).clone(), SessionOptions {
                bound: flat_options(),
                ..SessionOptions::default()
            });
            for q in &qs {
                if let Err(msg) = results_equal(q, &oracle.bound(q), &session.bound(q)) {
                    return Err(TestCaseError::fail(msg));
                }
            }
        }
    }
}

/// Quantile re-ordering of a heavy shard is purely a work heuristic: a
/// single connected component past [`SHARD_RESPLIT_THRESHOLD`] members
/// must bound exactly like the unsharded engine (which never re-orders).
#[test]
fn skew_reorder_never_moves_a_bound() {
    // a chain of overlapping boxes: one component, > threshold members,
    // skewed toward the low end of the axis
    let n = SHARD_RESPLIT_THRESHOLD + 2;
    let mut set = PcSet::new(schema());
    let mut domain = Region::full(set.schema());
    domain.set_interval(0, Interval::closed(0.0, (2 * n) as f64));
    domain.set_interval(1, Interval::closed(0.0, VMAX as f64));
    for i in 0..n {
        // skew: the first half packs densely (step 0.5), the rest spreads
        // out (step 1.5) — every consecutive pair of width-2 boxes overlaps
        let lo = if i < n / 2 {
            i as f64 * 0.5
        } else {
            (n / 2) as f64 * 0.5 + (i - n / 2) as f64 * 1.5
        };
        set.push(pc_on(lo, lo + 2.0, 0.0, 10.0, i % 3 == 0, 4));
    }
    set.set_domain(domain);
    assert_eq!(pc_core::interaction_components(&set).len(), 1);

    let session = Session::new(set.clone());
    let cells = session.sharded_cell_set().expect("decomposable");
    assert_eq!(cells.stats().shards, 1);
    assert_eq!(cells.stats().max_shard_constraints, n);

    let flat = BoundEngine::with_options(&set, flat_options());
    for agg in [AggKind::Count, AggKind::Sum, AggKind::Max] {
        for pred in [
            Predicate::always(),
            Predicate::atom(Atom::between(0, 0.0, (n / 2) as f64)),
        ] {
            let q = AggQuery::new(agg, 1, pred);
            results_equal(&q, &flat.bound(&q), &session.bound(&q)).unwrap();
        }
    }
}

/// The fault-isolation story: two shards, a budget sized so the first
/// builds clean and the second trips mid-decomposition. A query touching
/// only the clean shard still gets its exact range (the other shard
/// contributes nothing to it); a query spanning both degrades soundly —
/// its range contains the exact one.
#[test]
fn budget_trip_in_one_shard_degrades_only_that_shard() {
    // shard A: two forced constraints on tile [0, 3)
    let mut pcs = vec![
        pc_on(0.0, 2.0, 0.0, 10.0, true, 4),
        pc_on(1.0, 3.0, 2.0, 12.0, true, 5),
    ];
    // shard B: a chain of eight overlapping constraints on [6, 15)
    for i in 0..8 {
        let lo = 6.0 + i as f64;
        pcs.push(pc_on(lo, lo + 2.0, 0.0, 15.0, true, 3));
    }
    let mut set = PcSet::new(schema());
    let mut domain = Region::full(set.schema());
    domain.set_interval(0, Interval::closed(0.0, 16.0));
    domain.set_interval(1, Interval::closed(0.0, VMAX as f64));
    for pc in pcs {
        set.push(pc);
    }
    set.set_domain(domain);
    assert_eq!(pc_core::interaction_components(&set).len(), 2);

    // How much SAT work does shard A's build need on its own?
    let a_only = {
        let mut a = PcSet::new(schema());
        a.set_domain(set.domain().clone());
        a.push(set.constraints()[0].clone());
        a.push(set.constraints()[1].clone());
        let s = Session::with_options(
            a,
            SessionOptions {
                bound: BoundOptions {
                    threads: 1,
                    ..BoundOptions::default()
                },
                ..SessionOptions::default()
            },
        );
        s.cell_set().unwrap().stats().sat_checks
    };

    let options = SessionOptions {
        bound: BoundOptions {
            threads: 1, // deterministic shard build order (A first)
            ..BoundOptions::default()
        },
        ..SessionOptions::default()
    };
    let exact = Session::with_options(set.clone(), options);
    let a_query = AggQuery::count(Predicate::atom(Atom::between(0, 0.0, 3.0)));
    let span_query = AggQuery::count(Predicate::always());
    let exact_a = exact.bound(&a_query).unwrap();
    let exact_span = exact.bound(&span_query).unwrap();

    // Cold session, budget = exactly shard A's build: A decomposes clean,
    // B trips to frontier cells.
    let starved = Session::with_options(set, options);
    let budget = QueryBudget::armed().with_sat_cap(a_only);
    let r_a = starved.bound_budgeted(&a_query, &budget).unwrap();
    assert!(budget.is_tripped(), "shard B's build must exhaust the cap");
    // The clean shard's answer is *exact*, not just contained: shard B
    // never contributes to a query its boxes don't touch.
    assert!(
        (r_a.range.lo - exact_a.range.lo).abs() < 1e-9,
        "clean-shard lo {} must equal exact {}",
        r_a.range.lo,
        exact_a.range.lo
    );
    assert_eq!(r_a.range.hi, exact_a.range.hi, "clean-shard hi");

    // A query spanning both shards is sound but may be wider.
    let r_span = starved.bound_budgeted(&span_query, &budget).unwrap();
    assert!(
        r_span.range.lo <= exact_span.range.lo + 1e-9
            && r_span.range.hi >= exact_span.range.hi - 1e-9,
        "degraded {:?} must contain exact {:?}",
        r_span.range,
        exact_span.range
    );
    assert!(
        r_span.range.lo < exact_span.range.lo - 1e-9 || r_span.degraded,
        "the spanning query saw the tripped shard"
    );
}

// ----------------------------------------------------------------------
// Untouched shards: no rows, one query-independent infeasibility flag
// ----------------------------------------------------------------------

/// A `[xlo, xhi) × [vlo, vhi)` box with value range `values` on `v`.
fn tile(
    xlo: f64,
    xhi: f64,
    vlo: f64,
    vhi: f64,
    values: Interval,
    frequency: FrequencyConstraint,
) -> PredicateConstraint {
    PredicateConstraint::new(
        Predicate::always()
            .and(Atom::bucket(0, xlo, xhi))
            .and(Atom::bucket(1, vlo, vhi)),
        ValueConstraint::none().with(1, values),
        frequency,
    )
}

/// A forced (`kl = 1`) constraint on `x ∈ [xlo, xhi)` whose value range
/// misses the `v` domain, so its allowed region is empty: no instance can
/// place its row, whatever the query asks.
fn stranded(xlo: f64, xhi: f64) -> PredicateConstraint {
    tile(
        xlo,
        xhi,
        0.0,
        21.0,
        Interval::closed(30.0, 40.0),
        FrequencyConstraint::between(1, 3),
    )
}

/// Tiles A `[0,4)`, B `[4,8)`, C `[8,10)` over `x` (each its own shard);
/// `open` leaves B's `v ∈ [10, 20]` uncovered.
fn tiles(open: bool) -> Vec<PredicateConstraint> {
    let b_hi = if open { 10.0 } else { 21.0 };
    vec![
        tile(
            0.0,
            4.0,
            0.0,
            21.0,
            Interval::closed(2.0, 9.0),
            FrequencyConstraint::between(1, 5),
        ),
        tile(
            4.0,
            8.0,
            0.0,
            b_hi,
            Interval::closed(0.0, 20.0),
            FrequencyConstraint::at_most(4),
        ),
        tile(
            8.0,
            10.0,
            0.0,
            21.0,
            Interval::closed(5.0, 15.0),
            FrequencyConstraint::between(2, 3),
        ),
    ]
}

/// An unforced cover of `x ∈ [xlo, xhi)`.
fn cover(xlo: f64, xhi: f64) -> PredicateConstraint {
    tile(
        xlo,
        xhi,
        0.0,
        21.0,
        Interval::closed(0.0, 20.0),
        FrequencyConstraint::at_most(2),
    )
}

/// The tile catalog over `x ∈ [0, 11]`, `v ∈ [0, 20]`, not hinted
/// disjoint.
fn tile_set(pcs: Vec<PredicateConstraint>) -> PcSet {
    let mut set = PcSet::new(schema());
    let mut domain = Region::full(set.schema());
    domain.set_interval(0, Interval::closed(0.0, 11.0));
    domain.set_interval(1, Interval::closed(0.0, VMAX as f64));
    for pc in pcs {
        set.push(pc);
    }
    set.set_domain(domain);
    set
}

/// Sessions that reach a catalog holding [`stranded`] on `x ∈ [10, 12)`
/// through each way a shard is made: a seed build, an add that opens its
/// own shard, an add into one shard, an add that merges two, an add into
/// the shard already holding it, a retire that splits a shard, a retire
/// that keeps it whole, and a retire elsewhere that carries it unchanged.
fn stranded_sessions(open: bool) -> Vec<(&'static str, Session)> {
    let primed = |pcs: Vec<PredicateConstraint>| {
        let session = Session::new(tile_set(pcs));
        session.sharded_cell_set().expect("decomposable seed");
        session
    };
    let with = |extra: Vec<PredicateConstraint>| {
        let mut pcs = tiles(open);
        pcs.extend(extra);
        pcs
    };
    let mut out = Vec::new();

    out.push(("seed", primed(with(vec![stranded(10.0, 12.0)]))));

    let s = primed(tiles(open));
    s.add_constraint(stranded(10.0, 12.0));
    out.push(("add alone", s));

    let s = primed(with(vec![cover(10.0, 12.0)]));
    s.add_constraint(stranded(10.0, 12.0));
    out.push(("add into one", s));

    let s = primed(with(vec![cover(10.0, 11.0), cover(11.0, 12.0)]));
    s.add_constraint(stranded(10.0, 12.0));
    out.push(("add merging two", s));

    let s = primed(with(vec![stranded(10.0, 12.0)]));
    s.add_constraint(cover(10.0, 11.0));
    out.push(("add beside it", s));

    // the bridge joins every tile into one shard; retiring it splits them
    let s = primed(with(vec![stranded(10.0, 12.0), cover(0.0, 12.0)]));
    let bridge = *s.constraint_ids().last().expect("seeded");
    s.retire_constraint(bridge).expect("live id");
    out.push(("retire splitting", s));

    let s = primed(with(vec![
        stranded(10.0, 12.0),
        cover(10.0, 11.0),
        cover(11.0, 12.0),
    ]));
    let last = *s.constraint_ids().last().expect("seeded");
    s.retire_constraint(last).expect("live id");
    out.push(("retire keeping whole", s));

    let s = primed(with(vec![stranded(10.0, 12.0), cover(0.0, 2.0)]));
    let last = *s.constraint_ids().last().expect("seeded");
    s.retire_constraint(last).expect("live id");
    out.push(("retire elsewhere", s));

    out
}

/// Exact agreement: same error, or same range bits, `closed` and
/// `degraded`.
fn identical(
    what: &str,
    a: &Result<pc_core::BoundReport, BoundError>,
    b: &Result<pc_core::BoundReport, BoundError>,
) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.range.lo.to_bits(), y.range.lo.to_bits(), "{what}: lo");
            assert_eq!(x.range.hi.to_bits(), y.range.hi.to_bits(), "{what}: hi");
            assert_eq!(x.closed, y.closed, "{what}: closed");
            assert_eq!(x.degraded, y.degraded, "{what}: degraded");
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "{what}"),
        (x, y) => panic!("{what}: {x:?} vs {y:?}"),
    }
}

/// A query that misses the shard of a forced constraint with an empty
/// allowed region still fails exactly where it always did: every path
/// (a churned sharded session, the one-shot sharded engine, and
/// `shard: false`) answers `Infeasible`, except that the sharded `SUM`
/// over an open region answers `(−∞, ∞)` before any frequency row is
/// built while the flat paths build the rows and fail.
#[test]
fn untouched_stranded_shard_keeps_the_outcome() {
    const AGGS: [AggKind; 5] = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Min,
        AggKind::Max,
        AggKind::Avg,
    ];
    for open in [false, true] {
        for (how, session) in stranded_sessions(open) {
            let set = session.pc_set();
            let shards = session.sharded_cell_set().expect("decomposable");
            assert!(shards.shards().len() > 1, "{how}: the catalog factors");
            let oneshot = BoundEngine::new(&set);
            let flat_engine = BoundEngine::with_options(&set, flat_options());
            let flat_session = Session::with_options(
                (*set).clone(),
                SessionOptions {
                    bound: flat_options(),
                    ..SessionOptions::default()
                },
            );
            for agg in AGGS {
                // misses C and the stranded constraint's shard
                let q = AggQuery::new(agg, 1, Predicate::atom(Atom::bucket(0, 0.0, 8.0)));
                let what = format!("{how}, open {open}, {agg:?}");
                let served = session.bound(&q);
                identical(&what, &served, &oneshot.bound(&q));
                let flat = flat_engine.bound(&q);
                identical(&what, &flat, &flat_session.bound(&q));
                assert_eq!(flat.as_ref().err(), Some(&BoundError::Infeasible), "{what}");
                if open && agg == AggKind::Sum {
                    let r = served.expect("an open SUM answers before the rows");
                    assert_eq!((r.range.lo, r.range.hi), (f64::NEG_INFINITY, f64::INFINITY));
                    assert!(!r.closed, "{what}");
                } else {
                    assert_eq!(served.err(), Some(BoundError::Infeasible), "{what}");
                }
            }
        }
    }
}

/// Whether any of `shard`'s member boxes meets `target` (the serve path's
/// touch test, rebuilt from public parts).
fn shard_touches(set: &PcSet, members: &[usize], target: &Region) -> bool {
    members.iter().any(|&m| {
        let mut b = set.constraints()[m].predicate.to_region(set.schema());
        b.intersect(set.domain());
        b.overlaps(target)
    })
}

/// The session serve path reports the whole catalog's shard shape, like
/// the one-shot engine: `stats.shards`, `stats.max_shard_constraints` and
/// `shard_sat_checks.len()` follow the epoch's shards, and a shard the
/// query misses charges 0 SAT checks.
#[test]
fn session_reports_every_shard() {
    for (how, session) in stranded_sessions(false) {
        // drop the stranded constraint so the queries answer
        let ids = session.constraint_ids();
        let set = session.pc_set();
        let at = set
            .constraints()
            .iter()
            .position(|pc| pc.frequency.lo == 1 && pc.values.interval_for(1).lo == 30.0)
            .expect("stranded constraint present");
        session.retire_constraint(ids[at]).expect("live id");
        let set = session.pc_set();
        let shards = session.sharded_cell_set().expect("decomposable");
        let count = shards.shards().len();
        let widest = shards
            .shards()
            .iter()
            .map(|s| s.members().len())
            .max()
            .unwrap();
        for pred in [
            Predicate::atom(Atom::bucket(0, 0.0, 3.0)),
            Predicate::atom(Atom::bucket(0, 2.0, 9.0)),
            Predicate::always(),
        ] {
            for agg in [AggKind::Count, AggKind::Sum, AggKind::Max, AggKind::Avg] {
                let q = AggQuery::new(agg, 1, pred.clone());
                let r = session.bound(&q).expect("feasible catalog");
                let what = format!("{how}, {q:?}");
                if count > 1 {
                    assert_eq!(r.stats.shards, count, "{what}");
                    assert_eq!(r.stats.max_shard_constraints, widest, "{what}");
                    assert_eq!(r.shard_sat_checks.len(), count, "{what}");
                    let mut target = pred.to_region(set.schema());
                    target.intersect(set.domain());
                    for (s, shard) in shards.shards().iter().enumerate() {
                        if !shard_touches(&set, shard.members(), &target) {
                            assert_eq!(r.shard_sat_checks[s], 0, "{what}: shard {s}");
                        }
                    }
                }
            }
        }
    }
}

// The `churn_corrpc` shape: a disjoint-hinted Corr-PC grid (one shard at
// epoch 0) churned by overlapping boxes, which fragments into many shards
// at the first retire.

/// Grid side: `GRID × GRID` cells of width 2 over `x, y ∈ [0, 2·GRID)`.
const GRID: i64 = 4;

fn grid_schema() -> Schema {
    Schema::new(vec![
        ("x", AttrType::Int),
        ("y", AttrType::Int),
        ("v", AttrType::Int),
    ])
}

fn grid_box(
    x: (i64, i64),
    y: (i64, i64),
    values: (i64, i64),
    frequency: FrequencyConstraint,
) -> PredicateConstraint {
    PredicateConstraint::new(
        Predicate::always()
            .and(Atom::between(0, x.0 as f64, x.1 as f64))
            .and(Atom::between(1, y.0 as f64, y.1 as f64)),
        ValueConstraint::none().with(2, Interval::closed(values.0 as f64, values.1 as f64)),
        frequency,
    )
}

fn grid_set(cells: &[(i64, i64, u64)]) -> PcSet {
    let mut set = PcSet::new(grid_schema());
    let mut domain = Region::full(set.schema());
    domain.set_interval(0, Interval::closed(0.0, (2 * GRID - 1) as f64));
    domain.set_interval(1, Interval::closed(0.0, (2 * GRID - 1) as f64));
    domain.set_interval(2, Interval::closed(0.0, VMAX as f64));
    set.set_domain(domain);
    for (i, &(vlo, vw, rows)) in cells.iter().enumerate() {
        let (cx, cy) = (i as i64 % GRID, i as i64 / GRID);
        set.push(grid_box(
            (2 * cx, 2 * cx + 1),
            (2 * cy, 2 * cy + 1),
            (vlo, vlo + vw),
            FrequencyConstraint::exactly(rows),
        ));
    }
    set.set_disjoint_hint(true);
    set
}

prop_compose! {
    /// A box over a few grid cells with an honest-looking value range.
    fn arb_grid_box()(
        x in 0..2 * GRID, w in 0i64..4,
        y in 0..2 * GRID, h in 0i64..4,
        vlo in 0..=VMAX / 2, vw in 0..=VMAX / 2,
        rows in 0u64..4, forced: bool,
    ) -> PredicateConstraint {
        let frequency = if forced {
            FrequencyConstraint::between(rows.min(1), rows.max(1) + 2)
        } else {
            FrequencyConstraint::at_most(rows + 2)
        };
        grid_box((x, x + w), (y, y + h), (vlo, vlo + vw), frequency)
    }
}

/// One `churn_corrpc`-style mutation: add a box, replace the last added
/// box, or retire it.
#[derive(Debug, Clone)]
enum GridOp {
    Add(PredicateConstraint),
    ReplaceLast(PredicateConstraint),
    RetireLast,
}

prop_compose! {
    fn arb_grid_op()(pick in 0usize..3, pc in arb_grid_box()) -> GridOp {
        match pick {
            0 => GridOp::Add(pc),
            1 => GridOp::ReplaceLast(pc),
            _ => GridOp::RetireLast,
        }
    }
}

prop_compose! {
    /// A small region (a couple of grid cells) or, now and then, the
    /// whole domain.
    fn arb_grid_query()(
        agg_pick in 0usize..5,
        x in 0..2 * GRID, w in 0i64..3,
        y in 0..2 * GRID, h in 0i64..3,
        full in 0usize..6,
    ) -> AggQuery {
        let agg = [AggKind::Sum, AggKind::Count, AggKind::Avg, AggKind::Min, AggKind::Max][agg_pick];
        let predicate = if full == 0 {
            Predicate::always()
        } else {
            Predicate::always()
                .and(Atom::between(0, x as f64, (x + w) as f64))
                .and(Atom::between(1, y as f64, (y + h) as f64))
        };
        AggQuery::new(agg, 2, predicate)
    }
}

/// Apply `op` to a session; the last added id is tracked per session so
/// both sessions mutate the same constraint.
fn apply_grid(session: &Session, added: &mut Vec<ConstraintId>, op: &GridOp) {
    match op {
        GridOp::Add(pc) => added.push(session.add_constraint(pc.clone())),
        GridOp::ReplaceLast(pc) => match added.pop() {
            Some(id) => {
                let new = session
                    .replace_constraint(id, pc.clone())
                    .expect("live id replaces");
                added.push(new);
            }
            None => added.push(session.add_constraint(pc.clone())),
        },
        GridOp::RetireLast => {
            // the first retire takes a grid cell when nothing was added
            let id = added.pop().unwrap_or(session.constraint_ids()[0]);
            session.retire_constraint(id).expect("live id retires");
        }
    }
}

/// The one known divergence between the sharded and flat paths, pinned
/// by [`untouched_stranded_shard_keeps_the_outcome`]: over an open region
/// the sharded `SUM` answers `(−∞, ∞)` before building any frequency row,
/// so a contradictory catalog the flat path rejects as `Infeasible`
/// passes there.
fn open_sum_skips_rows(
    q: &AggQuery,
    flat: &Result<pc_core::BoundReport, BoundError>,
    sharded: &Result<pc_core::BoundReport, BoundError>,
) -> bool {
    q.agg == AggKind::Sum
        && flat.as_ref().err() == Some(&BoundError::Infeasible)
        && sharded.as_ref().is_ok_and(|r| {
            !r.closed && r.range.lo == f64::NEG_INFINITY && r.range.hi == f64::INFINITY
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A churned Corr-PC-style grid: after every mutation the sharded
    /// session (the grid's single hinted shard fragments at the first
    /// retire) answers every aggregate like a `shard: false` session
    /// churned the same way — range, `closed`, `degraded` and error
    /// variant — and reports the epoch's whole shard shape.
    #[test]
    fn churned_grid_sessions_match_unsharded(
        cells in prop::collection::vec((0..=VMAX / 2, 0..=VMAX / 2, 0u64..3), (GRID * GRID) as usize),
        drop_cell in 0..GRID * GRID,
        ops in prop::collection::vec(arb_grid_op(), 1..7),
        qs in prop::collection::vec(arb_grid_query(), 1..5),
    ) {
        // leave one grid cell uncovered now and then: open regions too
        let mut set = grid_set(&cells);
        if drop_cell % 3 == 0 {
            set.remove_constraint(drop_cell as usize);
        }
        let sharded = Session::new(set.clone());
        let flat = Session::with_options(set, SessionOptions {
            bound: flat_options(),
            ..SessionOptions::default()
        });
        sharded.sharded_cell_set().expect("decomposable seed");
        flat.sharded_cell_set().expect("decomposable seed");
        let (mut added_s, mut added_f) = (Vec::new(), Vec::new());
        for op in &ops {
            apply_grid(&sharded, &mut added_s, op);
            apply_grid(&flat, &mut added_f, op);
            let shards = sharded.sharded_cell_set().expect("decomposable");
            for q in &qs {
                let (s, f) = (sharded.bound(q), flat.bound(q));
                if !open_sum_skips_rows(q, &f, &s) {
                    if let Err(msg) = results_equal(q, &f, &s) {
                        return Err(TestCaseError::fail(msg));
                    }
                }
                if let (Ok(s), Ok(f)) = (&s, &f) {
                    prop_assert_eq!(s.degraded, f.degraded, "{:?}", q);
                    if shards.shards().len() > 1 {
                        prop_assert_eq!(s.stats.shards, shards.shards().len(), "{:?}", q);
                        prop_assert_eq!(s.shard_sat_checks.len(), shards.shards().len(), "{:?}", q);
                    }
                }
            }
        }
    }
}
