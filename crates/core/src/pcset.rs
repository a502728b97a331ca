use crate::constraint::{ConstraintViolation, PredicateConstraint};
use pc_predicate::{sat, Predicate, Region, Schema};
use pc_storage::Table;
use std::fmt;

/// A set of predicate constraints over one relation's missing partition
/// (§3.2), together with the attribute domain the constraints are meant to
/// cover.
///
/// The domain defaults to the full space; narrowing it (e.g. to the sensor
/// id range actually deployed) makes [`PcSet::is_closed`] meaningful for
/// discrete attributes with known cardinality.
#[derive(Debug, Clone)]
pub struct PcSet {
    schema: Schema,
    constraints: Vec<PredicateConstraint>,
    domain: Region,
    disjoint_hint: bool,
}

impl PcSet {
    /// An empty set over the full domain.
    pub fn new(schema: Schema) -> Self {
        let domain = Region::full(&schema);
        PcSet {
            schema,
            constraints: Vec::new(),
            domain,
            disjoint_hint: false,
        }
    }

    /// The schema the constraints talk about.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The declared attribute domain.
    pub fn domain(&self) -> &Region {
        &self.domain
    }

    /// Restrict the domain the set is expected to cover.
    pub fn set_domain(&mut self, domain: Region) {
        self.domain = domain;
    }

    /// Add a constraint.
    pub fn push(&mut self, pc: PredicateConstraint) {
        self.constraints.push(pc);
    }

    /// Builder-style [`PcSet::push`].
    pub fn with(mut self, pc: PredicateConstraint) -> Self {
        self.push(pc);
        self
    }

    /// Remove and return the constraint at `index`, shifting the later
    /// ones down — the serving layer's retire path (`crate::Session`
    /// remaps cached cell signatures to the shifted indices). Panics when
    /// out of range. Pairwise disjointness survives removal, so the hint
    /// is kept.
    pub fn remove_constraint(&mut self, index: usize) -> PredicateConstraint {
        self.constraints.remove(index)
    }

    /// Declare that the predicates are pairwise disjoint, enabling the
    /// paper's greedy fast path (§4.2) without the quadratic overlap scan.
    /// Generators that partition the space set this; [`PcSet::verify_disjoint`]
    /// can confirm it.
    pub fn set_disjoint_hint(&mut self, disjoint: bool) {
        self.disjoint_hint = disjoint;
    }

    /// Whether the set is known (hinted or verified) disjoint.
    pub fn disjoint_hint(&self) -> bool {
        self.disjoint_hint
    }

    /// The constraints.
    pub fn constraints(&self) -> &[PredicateConstraint] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True if the set has no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Exhaustively check pairwise disjointness of the predicates (their
    /// regions within the domain), updating the hint. Quadratic; intended
    /// for small sets or tests.
    pub fn verify_disjoint(&mut self) -> bool {
        let regions: Vec<Region> = self
            .constraints
            .iter()
            .map(|pc| {
                let mut r = pc.predicate.to_region(&self.schema);
                r.intersect(&self.domain);
                r
            })
            .collect();
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                if regions[i].overlaps(&regions[j]) {
                    self.disjoint_hint = false;
                    return false;
                }
            }
        }
        self.disjoint_hint = true;
        true
    }

    /// Closure check (Definition 3.2) restricted to `within`: is every
    /// point of `domain ∩ within` covered by some predicate? Implemented
    /// as unsatisfiability of the all-negated cell. That cell excludes
    /// *every* constraint, so it is the widest satisfiability query the
    /// engine issues. With the disjoint box-difference search it is still
    /// cheap: proving a Corr-PC grid closed takes about 0.2 ms at 144
    /// constraints and 1 ms at 400 (2-core host).
    pub fn is_closed_within(&self, within: &Region) -> bool {
        self.uncovered_witness(within).is_none()
    }

    /// A concrete point of `domain ∩ within` covered by no predicate —
    /// the counterexample behind a failed closure check (`None` means the
    /// region is closed). Callers that cache the witness can later
    /// re-prove *non*-closure of any sub-region containing it without a
    /// SAT call (see [`crate::Session`]).
    pub fn uncovered_witness(&self, within: &Region) -> Option<Vec<f64>> {
        let base = self.domain.intersected(within);
        let negs: Vec<&Predicate> = self.constraints.iter().map(|pc| &pc.predicate).collect();
        sat::find_witness(&base, &negs)
    }

    /// Closure over the whole declared domain.
    pub fn is_closed(&self) -> bool {
        let full = Region::full(&self.schema);
        self.is_closed_within(&full)
    }

    /// Test every constraint against historical data (`R |= S`), returning
    /// all violations — the paper's "efficiently testable on historical
    /// data" property (§1, outcome 1).
    pub fn validate(&self, table: &Table) -> Vec<Violation> {
        self.constraints
            .iter()
            .enumerate()
            .filter_map(|(index, pc)| {
                pc.check(table).err().map(|violation| Violation {
                    constraint: index,
                    violation,
                })
            })
            .collect()
    }
}

/// A constraint index paired with how it failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Index into [`PcSet::constraints`].
    pub constraint: usize,
    /// The failure detail.
    pub violation: ConstraintViolation,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "constraint #{}: {}", self.constraint, self.violation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{FrequencyConstraint, ValueConstraint};
    use crate::{QueryBudget, Session};
    use pc_predicate::sat::SatOutcome;
    use pc_predicate::{Atom, AttrType, Interval, Value};
    use std::time::Duration;

    fn schema() -> Schema {
        Schema::new(vec![("branch", AttrType::Cat), ("price", AttrType::Float)])
    }

    fn pc(branch: u32, price_hi: f64, freq_hi: u64) -> PredicateConstraint {
        PredicateConstraint::new(
            Predicate::atom(Atom::eq(0, f64::from(branch))),
            ValueConstraint::none().with(1, Interval::closed(0.0, price_hi)),
            FrequencyConstraint::at_most(freq_hi),
        )
    }

    #[test]
    fn closure_requires_covering_domain() {
        let s = schema();
        let mut set = PcSet::new(s.clone())
            .with(pc(0, 149.99, 5))
            .with(pc(1, 100.0, 10));
        // domain: branch ∈ {0, 1} → covered, closed
        let mut domain = Region::full(&s);
        domain.set_interval(0, Interval::closed(0.0, 1.0));
        set.set_domain(domain.clone());
        assert!(set.is_closed());

        // widen domain to branch ∈ {0, 1, 2} → branch 2 uncovered
        let mut wide = Region::full(&s);
        wide.set_interval(0, Interval::closed(0.0, 2.0));
        set.set_domain(wide);
        assert!(!set.is_closed());
    }

    #[test]
    fn closure_within_query_region() {
        let s = schema();
        let mut set = PcSet::new(s.clone()).with(pc(0, 149.99, 5));
        let mut domain = Region::full(&s);
        domain.set_interval(0, Interval::closed(0.0, 1.0));
        set.set_domain(domain);
        // not closed overall (branch 1 uncovered) …
        assert!(!set.is_closed());
        // … but closed within a query touching only branch 0
        let mut q = Region::full(&s);
        q.set_interval(0, Interval::point(0.0));
        assert!(set.is_closed_within(&q));
    }

    #[test]
    fn verify_disjoint() {
        let s = schema();
        let mut set = PcSet::new(s.clone())
            .with(pc(0, 1.0, 1))
            .with(pc(1, 1.0, 1));
        assert!(set.verify_disjoint());
        let overlapping = PredicateConstraint::new(
            Predicate::always(),
            ValueConstraint::none(),
            FrequencyConstraint::at_most(100),
        );
        set.push(overlapping);
        assert!(!set.verify_disjoint());
        assert!(!set.disjoint_hint());
    }

    #[test]
    fn validate_reports_all_violations() {
        let s = schema();
        let set = PcSet::new(s.clone())
            .with(pc(0, 10.0, 1))
            .with(pc(1, 10.0, 5));
        let mut t = Table::new(s);
        // two branch-0 rows (violates freq ≤ 1), one with price 50
        // (violates the value range)
        t.push_row(vec![Value::Cat(0), Value::Float(5.0)]);
        t.push_row(vec![Value::Cat(0), Value::Float(50.0)]);
        t.push_row(vec![Value::Cat(1), Value::Float(3.0)]);
        let violations = set.validate(&t);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].constraint, 0);
        // value violation reported before frequency (fail-fast per row scan)
        assert!(matches!(
            violations[0].violation,
            ConstraintViolation::ValueOutOfRange { row: 1 }
        ));
    }

    /// A Corr-PC catalog (§6.1.4) over a `per_dim × per_dim` grid: the
    /// same `GridPartitioner` cells `pc_datagen::pcgen::corr_pc` emits,
    /// on two Int attributes with distinct values, so the quantile cuts
    /// never merge. The outer buckets are unbounded, so the set is
    /// closed over the full domain.
    fn corr_grid(per_dim: usize) -> PcSet {
        let s = Schema::new(vec![("device", AttrType::Int), ("epoch", AttrType::Int)]);
        let mut t = Table::new(s.clone());
        for i in 0..1000i64 {
            t.push_row(vec![Value::Int(i * 37 % 1000), Value::Int(i * 91 % 1000)]);
        }
        let grid = pc_storage::GridPartitioner::from_table(&t, &[0, 1], &[per_dim, per_dim]);
        let mut set = PcSet::new(s);
        for (cell, rows) in grid.assign(&t).iter().enumerate() {
            set.push(PredicateConstraint::new(
                grid.cell_predicate(cell),
                ValueConstraint::none(),
                FrequencyConstraint::exactly(rows.len() as u64),
            ));
        }
        set.set_disjoint_hint(true);
        set
    }

    /// Set-up regression: the closure proof of a 196-cell Corr-PC grid
    /// finishes well inside a 5 s deadline (a search whose branches
    /// overlap needs tens of seconds here), and retiring one cell opens
    /// a hole exactly there — the session's confined re-check finds it
    /// inside the retired cell's box.
    #[test]
    fn corr_pc_closure_proves_fast_and_retiring_a_cell_opens_it() {
        let set = corr_grid(14);
        assert_eq!(set.len(), 196);
        let negs: Vec<&Predicate> = set.constraints().iter().map(|pc| &pc.predicate).collect();
        let budget = QueryBudget::unlimited().with_timeout(Duration::from_secs(5));
        assert_eq!(
            sat::find_witness_budgeted(set.domain(), &negs, &budget),
            SatOutcome::Unsat
        );

        let session = Session::new(set.clone());
        assert!(session.sharded_cell_set().unwrap().closed());
        let retired = 101;
        session
            .retire_constraint(session.constraint_ids()[retired])
            .unwrap();
        let cells = session.sharded_cell_set().unwrap();
        let w = cells
            .uncovered()
            .expect("retiring a grid cell opens a hole");
        assert!(
            set.constraints()[retired].predicate.eval(w),
            "witness {w:?}"
        );
    }

    #[test]
    fn validate_clean_table() {
        let s = schema();
        let set = PcSet::new(s.clone()).with(pc(0, 10.0, 3));
        let mut t = Table::new(s);
        t.push_row(vec![Value::Cat(0), Value::Float(5.0)]);
        assert!(set.validate(&t).is_empty());
    }
}
