//! GROUP-BY support (§2): "a GROUP-BY clause can be considered as a union
//! of such queries without GROUP-BY" — each group value becomes one
//! bounded query with the group membership conjoined to the WHERE clause.
//!
//! # Two-level shared decomposition
//!
//! The naive reading of that union decomposes the constraint set from
//! scratch for every group key — a 1 000-key categorical GROUP-BY pays for
//! 1 000 exponential-worst-case decompositions of the *same* constraints.
//! The engine instead (when [`crate::BoundOptions::shared_group_by`] is
//! on, the default) runs a **two-level** scheme:
//!
//! 1. **Level 1 — shared constraints, decomposed once.** Constraints are
//!    partitioned by their group-attribute interval: those pinned to a
//!    single key (*key-local* — per-key floors and caps, the common shape
//!    of per-group assumptions) are set aside; the rest (*shared*) are
//!    decomposed once against `query ∩ domain`, the union of every
//!    group's region. Key-local constraints never enter this
//!    decomposition, so a thousand per-key caps no longer blow up the
//!    shared include/exclude tree — the failure mode that used to force a
//!    `mostly_key_local` fallback to the per-key path, now retired.
//! 2. **Specialize** the surviving cells per key
//!    ([`crate::specialize::SliceSpecializer`]): a cell whose box misses
//!    the key's slice is dropped on an interval intersection, a cell
//!    whose stored witness lies inside the slice is kept for free, and
//!    only cells in between pay a satisfiability re-check — memoized
//!    across keys on the group-active exclusion mask.
//! 3. **Level 2 — splice the key's local constraints** into its slice
//!    ([`crate::specialize::splice_locals`]): a mini include/exclude DFS
//!    over the handful of constraints pinned to that key, run inside each
//!    specialized cell *and* inside the virtual ∅-cell (the part of the
//!    slice covered by no shared constraint, which only key-local
//!    constraints can populate; its satisfiability is memoized across
//!    keys like any other cross-section). The carried witnesses settle
//!    one branch of every split for free — and whole splice *outcomes*
//!    are memoized across keys too: keys whose local constraints are
//!    structurally identical (same boxes modulo the group coordinate,
//!    the common shape of generated per-key caps) replay each cell's
//!    entire DFS from the first such key's leaf list with zero SAT calls
//!    (`DecomposeStats::splice_memo_hits`), witnesses transferred by
//!    remapping the group coordinate.
//! 4. Solve **every group as its own stealable task** on the
//!    work-stealing pool, preserving output order, with per-worker
//!    carried-tableau chains ([`pc_solver::solve_lp_tableau`]).
//!
//! One catalog shape opts out of the shared scheme: a set whose
//! constraint-interaction graph has several connected components
//! ([`crate::shard`]). There the shared level-1 decomposition would pay
//! the whole flat cost up front while each key's slice touches only its
//! own shard(s), so the engine routes per key and lets each key's bound
//! factor over the interaction graph instead — decomposing just the
//! shards that key reaches.
//!
//! The scheme is exact, not heuristic: inside the `group = key` slice,
//! every key-local constraint of *another* key is automatically excluded
//! and automatically satisfied, so the satisfiable activity patterns are
//! exactly (shared pattern satisfiable in the slice) × (local
//! refinements) — and adding a local include/exclude only ever shrinks a
//! pattern's region, so enumerating locals under each satisfiable shared
//! pattern (plus the ∅-pattern) loses nothing. Every group's bound equals
//! what a from-scratch [`BoundEngine::bound`] of that group computes —
//! property-tested in `tests/prop_groupby.rs`, including the
//! key-local-heavy sets the old heuristic punted on. The one exception is
//! the approximate [`crate::Strategy::EarlyStop`]: unverified cells
//! admitted by the shared base pass stay admitted in every overlapping
//! slice (and their local splices stay unverified), so shared bounds can
//! be wider (never narrower) than per-key bounds there — both remain
//! sound, as early stopping only ever widens.

use crate::bounds::{pooled_map_catch, WarmCache, WarmCaches};
use crate::specialize::{overlaps_region, splice_locals, CellSet, SliceSpecializer, VIRTUAL_CELL};
use crate::{
    ActiveSet, BoundEngine, BoundError, BoundReport, Cell, DecomposeStats, PcSet,
    PredicateConstraint,
};
use pc_budget::QueryBudget;
use pc_predicate::{Atom, Interval, Region};
use pc_storage::AggQuery;
use std::collections::HashMap;
use std::sync::Arc;

/// The result range of one group.
#[derive(Debug, Clone)]
pub struct GroupBound {
    /// The group's (encoded) key value.
    pub key: f64,
    /// The bound, or the per-group error (`EmptyAggregate` is common and
    /// expected for groups no missing row can reach).
    pub report: Result<BoundReport, BoundError>,
}

/// Hash key for an `f64` group key (`-0.0` folded onto `0.0`).
fn key_bits(key: f64) -> u64 {
    if key == 0.0 { 0.0f64 } else { key }.to_bits()
}

/// The two-level partition of a constraint set with respect to one group
/// attribute, plus the level-1 decomposition of the shared part.
struct TwoLevel {
    /// Global indices of the shared (not key-pinned) constraints.
    shared_ids: Vec<usize>,
    /// Key → global indices of the constraints pinned to that key.
    locals_by_key: HashMap<u64, Vec<usize>>,
    /// Level-1 cells (active sets in *global* indices).
    cells: Vec<Cell>,
    stats: DecomposeStats,
}

impl BoundEngine<'_> {
    /// Bound `SELECT agg(attr) … GROUP BY group_attr` for an explicit list
    /// of group keys (e.g. every dictionary code of a categorical
    /// attribute, or the distinct values observed historically).
    ///
    /// Each group is the base query with `group_attr = key` conjoined —
    /// exactly the union-of-queries semantics of §2. Group keys the
    /// constraints prove unreachable come back as
    /// [`BoundError::EmptyAggregate`] rather than a fabricated zero range,
    /// so callers can distinguish "no missing rows here" from "bounded".
    ///
    /// Groups are answered from one shared two-level decomposition, in
    /// parallel, with warm-started LPs (see the module docs); results are
    /// returned in key order regardless of thread count, and each group's
    /// bound is identical to a standalone [`BoundEngine::bound`] of that
    /// group.
    pub fn bound_group_by(
        &self,
        base: &AggQuery,
        group_attr: usize,
        keys: impl IntoIterator<Item = f64>,
    ) -> Vec<GroupBound> {
        self.bound_group_by_budgeted(base, group_attr, keys, &QueryBudget::unlimited())
    }

    /// [`BoundEngine::bound_group_by`] under a [`QueryBudget`] shared by
    /// the whole call: the shared level-1 decomposition, every key's
    /// splice, and every group's MILP all charge the same meter. On a
    /// trip, groups not yet spliced degrade to a single *frontier* slice
    /// cell (every overlapping constraint undecided — sound, wider; see
    /// [`crate::decompose::decompose_budgeted`]) and finished machinery
    /// is kept, so every key still gets an answer, each flagged
    /// [`BoundReport::degraded`]. A group whose solve task panics comes
    /// back as [`BoundError::Panicked`] without touching its siblings.
    pub fn bound_group_by_budgeted(
        &self,
        base: &AggQuery,
        group_attr: usize,
        keys: impl IntoIterator<Item = f64>,
        budget: &QueryBudget,
    ) -> Vec<GroupBound> {
        self.bound_group_by_cached(base, group_attr, keys, None, budget)
    }

    /// [`BoundEngine::bound_group_by_budgeted`] with an optional
    /// already-built domain-wide decomposition of the full set — how a
    /// [`crate::Session`] serves GROUP-BY from its epoch cache. When
    /// `cached` is given, the level-1 shared cells are *derived* from it
    /// (the key-local constraints retire in one zero-SAT pass,
    /// [`CellSet::derive_retire_subset`]) instead of re-decomposed per
    /// call, and a multi-component catalog no longer routes per key — the
    /// flat cost the per-key routing avoids is already paid.
    pub(crate) fn bound_group_by_cached(
        &self,
        base: &AggQuery,
        group_attr: usize,
        keys: impl IntoIterator<Item = f64>,
        cached: Option<&CellSet>,
        budget: &QueryBudget,
    ) -> Vec<GroupBound> {
        let keys: Vec<f64> = keys.into_iter().collect();
        if keys.is_empty() {
            return Vec::new();
        }
        if !self.options.shared_group_by {
            return self.bound_group_by_per_key(base, group_attr, &keys, budget);
        }
        if cached.is_none()
            && self.options.shard
            && !self.set.disjoint_hint()
            && self.set.len() >= 2
            && crate::shard::interaction_components(self.set).len() > 1
        {
            // Multi-shard catalog: the shared level-1 decomposition would
            // pay the whole superlinear flat cost up front, while each
            // key's slice geometrically touches only its own shard(s).
            // Route per key — every key's bound then factors over the
            // interaction graph (the engine's sharded path), decomposing
            // just the shards its slice reaches.
            return self.bound_group_by_per_key(base, group_attr, &keys, budget);
        }

        // 1. Partition into shared / key-local and decompose the shared
        //    part once for the union of all groups.
        let mut base_region = base.predicate.to_region(self.set.schema());
        base_region.intersect(self.set.domain());
        let two = match self.two_level_decompose(group_attr, &base_region, cached, budget) {
            Ok(two) => two,
            Err(e) => {
                return keys
                    .iter()
                    .map(|&key| GroupBound {
                        key,
                        report: Err(e.clone()),
                    })
                    .collect()
            }
        };

        // Closure hoisting: a slice of a closed region is closed (it is a
        // subset), so one base-level check answers every group. Only a
        // non-closed base needs per-slice re-checks (a slice can dodge the
        // uncovered part). Out of budget the check is skipped and the base
        // treated as open — sound (widens), reported as degraded.
        let base_closed = self.options.check_closure
            && budget.proceed()
            && self.set.is_closed_within(&base_region);
        let spec = SliceSpecializer::new(self.set, &two.shared_ids, &two.cells, group_attr);

        // 2–4. Specialize, splice, and solve, one stealable task per key.
        let threads = self.task_threads(keys.len());
        let caches = WarmCaches::new(self.options.warm_start);
        let solve = |key: &f64| GroupBound {
            key: *key,
            report: self.bound_group_slice(
                base,
                *key,
                group_attr,
                &two,
                &spec,
                &base_region,
                base_closed,
                caches.for_current_worker(),
                budget,
            ),
        };
        pooled_map_catch(&keys, threads, &solve)
            .into_iter()
            .zip(&keys)
            .map(|(result, &key)| {
                result.unwrap_or(GroupBound {
                    key,
                    report: Err(BoundError::Panicked),
                })
            })
            .collect()
    }

    /// Partition the constraints by group-attribute pinning and produce
    /// the level-1 cells of the shared subset (signatures in global
    /// constraint indices) — decomposed fresh, or derived zero-SAT from a
    /// caller-supplied domain-wide decomposition (the session epoch
    /// cache) by retiring the key-local constraints in one pass.
    fn two_level_decompose(
        &self,
        group_attr: usize,
        base_region: &Region,
        cached: Option<&CellSet>,
        budget: &QueryBudget,
    ) -> Result<TwoLevel, BoundError> {
        let constraints = self.set.constraints();
        let mut shared_ids = Vec::with_capacity(constraints.len());
        let mut locals_by_key: HashMap<u64, Vec<usize>> = HashMap::new();
        for (j, pc) in constraints.iter().enumerate() {
            // fold only the group-attribute atoms — no full Region per
            // constraint just to read one interval
            let iv = pc.predicate.interval_for(group_attr);
            if iv.inf() == iv.sup() && iv.inf().is_finite() {
                locals_by_key.entry(key_bits(iv.inf())).or_default().push(j);
            } else {
                shared_ids.push(j);
            }
        }

        if let Some(cache) = cached {
            let (cells, stats) = self.level1_from_cache(cache, &shared_ids, base_region, budget)?;
            return Ok(TwoLevel {
                shared_ids,
                locals_by_key,
                cells,
                stats,
            });
        }

        let (cells, stats) = if shared_ids.len() == constraints.len() {
            // nothing is key-local: the shared set is the whole set
            self.cells_for_base_budgeted(base_region, budget)?
        } else {
            // decompose the shared subset through a scratch engine, then
            // remap the sub-indices its cells carry to global ones
            let mut sub = PcSet::new(self.set.schema().clone());
            sub.set_domain(self.set.domain().clone());
            // pairwise disjointness is inherited by any subset
            sub.set_disjoint_hint(self.set.disjoint_hint());
            for &j in &shared_ids {
                sub.push(constraints[j].clone());
            }
            let (mut cells, stats) = BoundEngine::with_options(&sub, self.options)
                .cells_for_base_budgeted(base_region, budget)?;
            for cell in &mut cells {
                cell.active = cell.active.iter().map(|i| shared_ids[i]).collect();
            }
            (cells, stats)
        };
        Ok(TwoLevel {
            shared_ids,
            locals_by_key,
            cells,
            stats,
        })
    }

    /// Level-1 cells from an already-built domain-wide decomposition of
    /// the full set: retire every key-local constraint in one zero-SAT
    /// pass ([`CellSet::derive_retire_subset`]), then — only when the
    /// query predicate actually narrows the domain — specialize the
    /// derived cells to `base_region` (interval cuts plus a SAT re-check
    /// for just the genuinely cut cells). Either way no level-1
    /// include/exclude decomposition runs. The returned stats carry the
    /// cache's own counters (the session convention for served cells)
    /// plus the derivation work; signatures come back in global indices.
    fn level1_from_cache(
        &self,
        cache: &CellSet,
        shared_ids: &[usize],
        base_region: &Region,
        budget: &QueryBudget,
    ) -> Result<(Vec<Cell>, DecomposeStats), BoundError> {
        let constraints = self.set.constraints();
        let narrowed = base_region != cache.base();
        if shared_ids.len() == constraints.len() && !narrowed {
            // nothing key-local, whole-domain query: the cache verbatim
            return Ok((cache.cells().to_vec(), cache.stats()));
        }
        let mut sub = PcSet::new(self.set.schema().clone());
        sub.set_domain(self.set.domain().clone());
        sub.set_disjoint_hint(self.set.disjoint_hint());
        for &j in shared_ids {
            sub.push(constraints[j].clone());
        }
        let mut stats = cache.stats();
        let derived;
        let shared: &CellSet = if shared_ids.len() == constraints.len() {
            cache
        } else {
            derived = cache.derive_retire_subset(&sub, shared_ids, None);
            stats.absorb(&derived.stats());
            &derived
        };
        let mut cells = if narrowed {
            shared.specialize_budgeted(&sub, base_region, &mut stats, budget)
        } else {
            shared.cells().to_vec()
        };
        if shared_ids.len() != constraints.len() {
            for cell in &mut cells {
                cell.active = cell.active.iter().map(|i| shared_ids[i]).collect();
            }
        }
        Ok((cells, stats))
    }

    /// The pre-tentpole baseline: one full `bound()` per key. Used for A/B
    /// comparison (`shared_group_by: false`) and as the property-test
    /// oracle — which is why it spreads keys over the pool like the shared
    /// path. Per-key decompositions may fork *inside* a group task too:
    /// nested fan-out lands on the same work-stealing pool, so there is no
    /// thread oversubscription to avoid.
    fn bound_group_by_per_key(
        &self,
        base: &AggQuery,
        group_attr: usize,
        keys: &[f64],
        budget: &QueryBudget,
    ) -> Vec<GroupBound> {
        let threads = self.task_threads(keys.len());
        let solve = |key: &f64| {
            let predicate = base
                .predicate
                .clone()
                .and(Atom::new(group_attr, Interval::point(*key)));
            let query = AggQuery::new(base.agg, base.attr, predicate);
            GroupBound {
                key: *key,
                report: self.bound_budgeted(&query, budget),
            }
        };
        pooled_map_catch(keys, threads, &solve)
            .into_iter()
            .zip(keys)
            .map(|(result, &key)| {
                result.unwrap_or(GroupBound {
                    key,
                    report: Err(BoundError::Panicked),
                })
            })
            .collect()
    }

    /// Bound one group: specialize the level-1 cells to the key's slice,
    /// splice the key's local constraints in, and solve.
    #[allow(clippy::too_many_arguments)]
    fn bound_group_slice(
        &self,
        base: &AggQuery,
        key: f64,
        group_attr: usize,
        two: &TwoLevel,
        spec: &SliceSpecializer<'_>,
        base_region: &Region,
        base_closed: bool,
        warm: Option<WarmCache>,
        budget: &QueryBudget,
    ) -> Result<BoundReport, BoundError> {
        let mut slice = base_region.clone();
        slice.set_interval(
            group_attr,
            slice.interval(group_attr).intersect(&Interval::point(key)),
        );

        let mut stats = two.stats;
        if !budget.proceed() {
            // Budget gone before this key's turn: skip the specialize +
            // splice SAT work entirely and degrade the whole slice to one
            // frontier cell — every constraint whose box reaches the
            // slice undecided. Rows of the slice satisfy *some* subset of
            // those constraints, which is exactly the frontier-cell
            // contract, so the bound stays sound (just wider).
            let mut cells = Vec::new();
            if !slice.is_empty() {
                let undecided: ActiveSet = self
                    .set
                    .constraints()
                    .iter()
                    .enumerate()
                    .filter(|(_, pc)| overlaps_region(pc, &slice))
                    .map(|(j, _)| j)
                    .collect();
                cells.push(Cell {
                    region: Arc::new(slice.clone()),
                    active: ActiveSet::new(),
                    witness: None,
                    undecided,
                });
                stats.frontier_cells += 1;
            }
            stats.cells = cells.len();
            let closed = !self.options.check_closure || base_closed;
            let problem = self.problem_from_cells_budgeted(
                base.attr, &slice, cells, stats, closed, None, warm, budget,
            )?;
            return self.bound_problem(base.agg, &problem);
        }
        let specialized = spec.specialize_slice(key, base_region, &mut stats);

        let cells = match two.locals_by_key.get(&key_bits(key)) {
            // No constraint is pinned to this key: the specialized cells
            // are the slice's full decomposition.
            None => specialized.into_iter().map(|(_, cell)| cell).collect(),
            Some(local_ids) => {
                let locals: Vec<(usize, &PredicateConstraint)> = local_ids
                    .iter()
                    .map(|&j| (j, &self.set.constraints()[j]))
                    .collect();
                // Cross-key splice memoization: keys whose local
                // constraints are structurally identical (same boxes
                // modulo the group coordinate — the common shape of
                // generated per-key caps) share whole splice outcomes;
                // a hit replays the cell's include/exclude DFS with zero
                // SAT calls.
                let sig = SliceSpecializer::locals_signature(&locals, group_attr);
                let mut cells = Vec::with_capacity(specialized.len() * 2);
                for (src, cell) in specialized {
                    if spec.replay_splice(
                        src,
                        key,
                        sig.as_ref(),
                        &cell.region,
                        &cell.active,
                        &locals,
                        &mut cells,
                        &mut stats,
                    ) {
                        continue;
                    }
                    let start = cells.len();
                    let negs = spec.group_active_negs(src, key);
                    splice_locals(
                        Arc::clone(&cell.region),
                        &cell.active,
                        &cell.undecided,
                        cell.witness,
                        negs,
                        &locals,
                        &mut cells,
                        &mut stats,
                    );
                    spec.record_splice(src, key, sig.as_ref(), &locals, &cells[start..]);
                }
                // The virtual ∅-cell: slice points covered by no shared
                // constraint, reachable only through this key's locals.
                if !slice.is_empty() {
                    let virtual_region = Arc::new(slice.clone());
                    if !spec.replay_splice(
                        VIRTUAL_CELL,
                        key,
                        sig.as_ref(),
                        &virtual_region,
                        &ActiveSet::new(),
                        &locals,
                        &mut cells,
                        &mut stats,
                    ) {
                        if let Some(w) = spec.virtual_witness(key, &slice, &mut stats) {
                            let start = cells.len();
                            splice_locals(
                                virtual_region,
                                &ActiveSet::new(),
                                &ActiveSet::new(),
                                Some(w),
                                spec.virtual_negs(key),
                                &locals,
                                &mut cells,
                                &mut stats,
                            );
                            spec.record_splice(
                                VIRTUAL_CELL,
                                key,
                                sig.as_ref(),
                                &locals,
                                &cells[start..],
                            );
                        }
                    }
                }
                cells
            }
        };
        stats.cells = cells.len();

        let closed = if !self.options.check_closure || base_closed {
            // disabled, or hoisted: every slice of a closed base is closed
            true
        } else if !budget.proceed() {
            // skipped check answers "open" — sound, degraded
            false
        } else {
            self.set.is_closed_within(&slice)
        };
        let problem = self.problem_from_cells_budgeted(
            base.attr, &slice, cells, stats, closed, None, warm, budget,
        )?;
        self.bound_problem(base.agg, &problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BoundOptions, FrequencyConstraint, PredicateConstraint, ValueConstraint};
    use pc_predicate::{AttrType, Predicate, Region, Schema};
    use pc_storage::AggKind;

    fn branch_set() -> PcSet {
        let schema = Schema::new(vec![("branch", AttrType::Cat), ("price", AttrType::Float)]);
        let mut domain = Region::full(&schema);
        domain.set_interval(0, Interval::closed(0.0, 2.0));
        let mut set = PcSet::new(schema);
        for (code, hi, k) in [(0u32, 149.99, 5u64), (1, 100.0, 10), (2, 50.0, 3)] {
            set.push(PredicateConstraint::new(
                Predicate::atom(Atom::eq(0, f64::from(code))),
                ValueConstraint::none().with(1, Interval::closed(0.0, hi)),
                FrequencyConstraint::at_most(k),
            ));
        }
        set.set_domain(domain);
        set.set_disjoint_hint(true);
        set
    }

    /// Overlapping constraints across branches: exercises the real
    /// decomposition + MILP machinery in both group-by paths.
    fn overlapping_branch_set() -> PcSet {
        let schema = Schema::new(vec![("branch", AttrType::Cat), ("price", AttrType::Float)]);
        let mut domain = Region::full(&schema);
        domain.set_interval(0, Interval::closed(0.0, 3.0));
        let mut set = PcSet::new(schema);
        // per-branch constraints
        for (code, hi, k) in [(0u32, 149.99, 5u64), (1, 100.0, 10), (2, 50.0, 3)] {
            set.push(PredicateConstraint::new(
                Predicate::atom(Atom::eq(0, f64::from(code))),
                ValueConstraint::none().with(1, Interval::closed(0.0, hi)),
                FrequencyConstraint::at_most(k),
            ));
        }
        // cross-cutting constraints overlapping several branches
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, 0.0, 2.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 120.0)),
            FrequencyConstraint::at_most(12),
        ));
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, 1.0, 4.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 80.0)),
            FrequencyConstraint::between(2, 9),
        ));
        set.set_domain(domain);
        set
    }

    #[test]
    fn group_by_branch_sums() {
        let set = branch_set();
        let engine = BoundEngine::new(&set);
        let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        let groups = engine.bound_group_by(&base, 0, [0.0, 1.0, 2.0]);
        assert_eq!(groups.len(), 3);
        let his: Vec<f64> = groups
            .iter()
            .map(|g| g.report.as_ref().unwrap().range.hi)
            .collect();
        assert!((his[0] - 5.0 * 149.99).abs() < 1e-6);
        assert!((his[1] - 10.0 * 100.0).abs() < 1e-6);
        assert!((his[2] - 3.0 * 50.0).abs() < 1e-6);
    }

    #[test]
    fn group_sum_upper_bounds_match_total() {
        // union semantics: the total SUM bound equals the sum of group
        // bounds for disjoint groups covering the domain
        let set = branch_set();
        let engine = BoundEngine::new(&set);
        let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        let total = engine.bound(&base).unwrap().range.hi;
        let group_total: f64 = engine
            .bound_group_by(&base, 0, [0.0, 1.0, 2.0])
            .iter()
            .map(|g| g.report.as_ref().unwrap().range.hi)
            .sum();
        assert!((total - group_total).abs() < 1e-6);
    }

    #[test]
    fn unreachable_group_is_flagged() {
        let set = branch_set();
        let engine = BoundEngine::new(&set);
        // MIN over a group outside the domain: provably empty
        let base = AggQuery::new(AggKind::Min, 1, Predicate::always());
        let groups = engine.bound_group_by(&base, 0, [7.0]);
        assert!(matches!(groups[0].report, Err(BoundError::EmptyAggregate)));
    }

    fn assert_reports_match(shared: &[GroupBound], per_key: &[GroupBound]) {
        assert_eq!(shared.len(), per_key.len());
        for (s, p) in shared.iter().zip(per_key) {
            assert_eq!(s.key, p.key);
            match (&s.report, &p.report) {
                (Ok(a), Ok(b)) => {
                    // 1e-5, not 1e-6: with the pool auto-enabled the
                    // allocation B&B may prune a node tying the incumbent
                    // within its 1e-6 tolerance in one run and explore it
                    // in the other
                    assert!(
                        (a.range.lo - b.range.lo).abs() < 1e-5
                            && (a.range.hi - b.range.hi).abs() < 1e-5,
                        "key {}: shared [{}, {}] vs per-key [{}, {}]",
                        s.key,
                        a.range.lo,
                        a.range.hi,
                        b.range.lo,
                        b.range.hi
                    );
                    assert_eq!(a.closed, b.closed, "key {}", s.key);
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "key {}", s.key),
                (a, b) => panic!("key {}: shared {:?} vs per-key {:?}", s.key, a, b),
            }
        }
    }

    #[test]
    fn shared_path_matches_per_key_on_overlapping_sets() {
        let set = overlapping_branch_set();
        let keys = [0.0, 1.0, 2.0, 3.0, 7.0];
        for agg in [
            AggKind::Sum,
            AggKind::Count,
            AggKind::Min,
            AggKind::Max,
            AggKind::Avg,
        ] {
            let base = AggQuery::new(agg, 1, Predicate::always());
            let shared_engine = BoundEngine::new(&set);
            let shared = shared_engine.bound_group_by(&base, 0, keys);
            let baseline_engine = BoundEngine::with_options(
                &set,
                BoundOptions {
                    shared_group_by: false,
                    ..BoundOptions::default()
                },
            );
            let per_key = baseline_engine.bound_group_by(&base, 0, keys);
            assert_reports_match(&shared, &per_key);
        }
    }

    #[test]
    fn two_level_handles_purely_key_local_sets() {
        // Every constraint pins the group attribute: the level-1
        // decomposition is empty and the virtual ∅-cell carries all the
        // work — exactly the shape the retired `mostly_key_local`
        // heuristic used to punt to the per-key path.
        let set = branch_set();
        let keys = [0.0, 1.0, 2.0, 7.0];
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Max] {
            let base = AggQuery::new(agg, 1, Predicate::always());
            let shared = BoundEngine::new(&set).bound_group_by(&base, 0, keys);
            let per_key = BoundEngine::with_options(
                &set,
                BoundOptions {
                    shared_group_by: false,
                    ..BoundOptions::default()
                },
            )
            .bound_group_by(&base, 0, keys);
            assert_reports_match(&shared, &per_key);
        }
    }

    #[test]
    fn two_level_splices_forced_key_local_constraints() {
        // A key-local *floor* (kl > 0) interacting with a shared cap:
        // the spliced cells must let the MILP see both rows at once.
        let schema = Schema::new(vec![("branch", AttrType::Cat), ("price", AttrType::Float)]);
        let mut domain = Region::full(&schema);
        domain.set_interval(0, Interval::closed(0.0, 1.0));
        let mut set = PcSet::new(schema);
        // branch 0 must hold 4–6 rows priced in [10, 20]
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::eq(0, 0.0)),
            ValueConstraint::none().with(1, Interval::closed(10.0, 20.0)),
            FrequencyConstraint::between(4, 6),
        ));
        // everywhere: at most 9 rows priced in [0, 100]
        set.push(PredicateConstraint::new(
            Predicate::always(),
            ValueConstraint::none().with(1, Interval::closed(0.0, 100.0)),
            FrequencyConstraint::at_most(9),
        ));
        set.set_domain(domain);

        let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        let keys = [0.0, 1.0];
        let shared = BoundEngine::new(&set).bound_group_by(&base, 0, keys);
        let per_key = BoundEngine::with_options(
            &set,
            BoundOptions {
                shared_group_by: false,
                ..BoundOptions::default()
            },
        )
        .bound_group_by(&base, 0, keys);
        assert_reports_match(&shared, &per_key);
        // sanity: branch 0's floor is visible (lo ≥ 4 · 10)
        let g0 = shared[0].report.as_ref().unwrap();
        assert!(g0.range.lo >= 40.0 - 1e-9, "lo = {}", g0.range.lo);
    }

    #[test]
    fn structurally_identical_keys_share_splice_verdicts() {
        // Generated per-key caps: every branch gets the *same* local
        // constraint shape (same value box, same frequency range — only
        // the group coordinate differs), plus shared cross-cutting
        // constraints so the splice genuinely runs inside non-trivial
        // cells. The cross-key memo must replay later keys' splices
        // (splice_memo_hits > 0) without changing any bound.
        let schema = Schema::new(vec![("branch", AttrType::Cat), ("price", AttrType::Float)]);
        let mut domain = Region::full(&schema);
        domain.set_interval(0, Interval::closed(0.0, 7.0));
        let mut set = PcSet::new(schema);
        for code in 0..8u32 {
            // identical boxes modulo the group coordinate, incl. a floor
            set.push(PredicateConstraint::new(
                Predicate::atom(Atom::eq(0, f64::from(code))),
                ValueConstraint::none().with(1, Interval::closed(10.0, 90.0)),
                FrequencyConstraint::between(1, 6),
            ));
        }
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, 0.0, 5.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 120.0)),
            FrequencyConstraint::at_most(20),
        ));
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, 2.0, 7.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 80.0)),
            FrequencyConstraint::at_most(15),
        ));
        set.set_domain(domain);

        let keys: Vec<f64> = (0..8).map(f64::from).collect();
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let base = AggQuery::new(agg, 1, Predicate::always());
            let shared = BoundEngine::new(&set).bound_group_by(&base, 0, keys.clone());
            let per_key = BoundEngine::with_options(
                &set,
                BoundOptions {
                    shared_group_by: false,
                    ..BoundOptions::default()
                },
            )
            .bound_group_by(&base, 0, keys.clone());
            assert_reports_match(&shared, &per_key);
            let hits: u64 = shared
                .iter()
                .filter_map(|g| g.report.as_ref().ok())
                .map(|r| r.stats.splice_memo_hits)
                .sum();
            assert!(
                hits > 0,
                "{agg:?}: structurally identical keys must replay splices"
            );
        }
    }

    #[test]
    fn parallel_groups_preserve_key_order_and_results() {
        let set = overlapping_branch_set();
        let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        let keys: Vec<f64> = (0..4).map(f64::from).collect();
        let sequential = BoundEngine::with_options(
            &set,
            BoundOptions {
                threads: 1,
                ..BoundOptions::default()
            },
        )
        .bound_group_by(&base, 0, keys.clone());
        for threads in [2usize, 3, 8] {
            let parallel = BoundEngine::with_options(
                &set,
                BoundOptions {
                    threads,
                    ..BoundOptions::default()
                },
            )
            .bound_group_by(&base, 0, keys.clone());
            assert_reports_match(&parallel, &sequential);
        }
    }

    #[test]
    fn warm_start_off_matches_on() {
        let set = overlapping_branch_set();
        let base = AggQuery::new(AggKind::Avg, 1, Predicate::always());
        let keys = [0.0, 1.0, 2.0, 3.0];
        let warm = BoundEngine::new(&set).bound_group_by(&base, 0, keys);
        let cold = BoundEngine::with_options(
            &set,
            BoundOptions {
                warm_start: false,
                ..BoundOptions::default()
            },
        )
        .bound_group_by(&base, 0, keys);
        assert_reports_match(&warm, &cold);
    }

    #[test]
    fn budgeted_group_by_answers_every_key_soundly() {
        let set = overlapping_branch_set();
        let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        let keys = [0.0, 1.0, 2.0, 3.0];
        let engine = BoundEngine::new(&set);
        let exact = engine.bound_group_by(&base, 0, keys);
        // Starved from the first SAT check: the shared decomposition
        // degrades to frontier cells and every key's splice is skipped —
        // yet every key still answers, each containing its exact range.
        let budget = QueryBudget::armed().with_sat_cap(0);
        let degraded = engine.bound_group_by_budgeted(&base, 0, keys, &budget);
        assert_eq!(degraded.len(), exact.len());
        for (e, d) in exact.iter().zip(&degraded) {
            assert_eq!(e.key, d.key);
            match (&e.report, &d.report) {
                (Ok(e), Ok(d)) => {
                    assert!(d.degraded, "budget tripped, the report must say so");
                    assert!(
                        d.range.lo <= e.range.lo + 1e-9 && d.range.hi >= e.range.hi - 1e-9,
                        "degraded {:?} must contain exact {:?}",
                        d.range,
                        e.range
                    );
                }
                // a starved key may answer wide where the exact run
                // proved emptiness — never the reverse
                (Err(_), Ok(_)) => {}
                (Ok(e), Err(d)) => panic!("exact {e:?} but degraded errored {d:?}"),
                (Err(_), Err(_)) => {}
            }
        }
    }

    #[test]
    fn empty_key_list_is_empty() {
        let set = branch_set();
        let engine = BoundEngine::new(&set);
        let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        assert!(engine.bound_group_by(&base, 0, []).is_empty());
    }
}
