//! The correctness gate. Every `bound` answer is checked against the
//! exact range of its query at its stamped epoch, computed by a separate
//! admission-off [`Session`] that parses the same request text. The epoch
//! catalogs are rebuilt by replaying the mutation lines in the order of
//! their stamped responses.

use crate::log::{bound_sql, ConnLog, Outcome};
use crate::workload::{Catalog, CONNECTIONS};
use pc_budget::QueryBudget;
use pc_core::{dsl, BoundError, Session, SessionOptions};
use pc_serve::proto::{self, Request};
use pc_storage::parse_query;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Exact answers must equal the oracle within this share of the larger
/// endpoint magnitude (with a floor of 1, so a zero endpoint compares
/// absolutely).
pub const REL_TOL: f64 = 1e-6;

/// A `bound` answer as the client sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Answer {
    /// No missing row can match.
    Empty,
    /// A range; `exact` unless marked `degraded=true` or `verdict=shed`.
    Range {
        /// Lower end.
        lo: f64,
        /// Upper end.
        hi: f64,
        /// Whether the answer claims to be the exact range.
        exact: bool,
    },
}

/// The oracle's exact answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Truth {
    /// The aggregate is provably empty.
    Empty,
    /// The exact range.
    Range(f64, f64),
}

fn close(a: f64, b: f64) -> bool {
    a == b
        || (a.is_finite()
            && b.is_finite()
            && (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0))
}

/// Check one answer: an exact answer must equal the truth, a degraded or
/// shed one must contain it.
pub fn check(answer: Answer, truth: Truth) -> Result<(), String> {
    match (answer, truth) {
        (Answer::Empty, Truth::Empty) => Ok(()),
        (Answer::Empty, Truth::Range(lo, hi)) => {
            Err(format!("answered empty, exact range is [{lo},{hi}]"))
        }
        (Answer::Range { lo, hi, .. }, Truth::Empty) => {
            Err(format!("answered [{lo},{hi}], the aggregate is empty"))
        }
        (
            Answer::Range {
                lo,
                hi,
                exact: true,
            },
            Truth::Range(tlo, thi),
        ) => {
            if close(lo, tlo) && close(hi, thi) {
                Ok(())
            } else {
                Err(format!(
                    "exact answer [{lo},{hi}] differs from the exact range [{tlo},{thi}]"
                ))
            }
        }
        (
            Answer::Range {
                lo,
                hi,
                exact: false,
            },
            Truth::Range(tlo, thi),
        ) => {
            if (lo <= tlo || close(lo, tlo)) && (hi >= thi || close(hi, thi)) {
                Ok(())
            } else {
                Err(format!(
                    "degraded answer [{lo},{hi}] does not contain the exact range [{tlo},{thi}]"
                ))
            }
        }
    }
}

/// Exact ranges, and the in-process exact service time, per epoch and SQL.
pub struct Oracle {
    truths: HashMap<u64, HashMap<String, (Truth, Duration)>>,
}

impl Oracle {
    /// Compute the exact range of every `(epoch, SQL)` any of `runs`
    /// answered. Each run is one replay of the streams (socket or
    /// in-process); all of them send the same mutation lines, which at
    /// most one connection carries, so epoch `e` is the base catalog plus
    /// the first `e` mutations in every run.
    pub fn build(catalog: &Catalog, runs: &[&[ConnLog]]) -> Result<Oracle, String> {
        let mut needed: BTreeMap<u64, BTreeSet<&str>> = BTreeMap::new();
        let mut mutations: Vec<(&str, Option<u64>)> = Vec::new();
        for run in runs {
            let mut seen: Vec<(&str, Option<u64>)> = Vec::new();
            let mut mutating_conns = 0;
            for conn in run.iter() {
                let before = seen.len();
                for pass in conn {
                    for (line, sample) in pass.lines.iter().zip(&pass.samples) {
                        match &sample.outcome {
                            Outcome::Bound { epoch, .. } => {
                                let (sql, _) = bound_sql(line)
                                    .ok_or_else(|| format!("`{line}` answered as a bound"))?;
                                needed.entry(*epoch).or_default().insert(sql);
                            }
                            Outcome::Mutation { epoch, added } => {
                                if *epoch != seen.len() as u64 + 1 {
                                    return Err(format!(
                                        "mutation `{line}` stamped epoch {epoch}, expected {}",
                                        seen.len() + 1
                                    ));
                                }
                                seen.push((line, *added));
                            }
                            Outcome::Failed(_) => {}
                        }
                    }
                }
                mutating_conns += usize::from(seen.len() > before);
            }
            if mutating_conns > 1 {
                return Err("the oracle replays mutations from one connection only".into());
            }
            let shared = seen.len().min(mutations.len());
            if seen[..shared] != mutations[..shared] {
                return Err("two replays sent different mutation sequences".into());
            }
            if seen.len() > mutations.len() {
                mutations = seen;
            }
        }

        let session = Session::with_options(
            catalog.set.clone(),
            SessionOptions {
                admission: false,
                ..SessionOptions::default()
            },
        );
        let mut truths = HashMap::new();
        let mut applied = 0usize;
        for (&epoch, sqls) in &needed {
            while (applied as u64) < epoch {
                let (line, added) = *mutations.get(applied).ok_or_else(|| {
                    format!("answer stamped epoch {epoch}, only {applied} mutations were sent")
                })?;
                apply(&session, catalog, line, applied as u64 + 1, added)?;
                applied += 1;
            }
            truths.insert(epoch, exact_ranges(&session, catalog, sqls)?);
        }
        Ok(Oracle { truths })
    }

    /// The exact range of `sql` at `epoch`, and how long the admission-off
    /// session took to compute it.
    pub fn truth(&self, epoch: u64, sql: &str) -> Option<(Truth, Duration)> {
        self.truths.get(&epoch)?.get(sql).copied()
    }

    /// Check every `bound` answer of one replay.
    pub fn check_logs(&self, what: &str, logs: &[ConnLog]) -> Result<(), String> {
        for (conn, passes) in logs.iter().enumerate() {
            for pass in passes {
                for (i, (line, sample)) in pass.lines.iter().zip(&pass.samples).enumerate() {
                    let Outcome::Bound { epoch, answer, .. } = sample.outcome else {
                        continue;
                    };
                    let sql = bound_sql(line).map(|(sql, _)| sql).unwrap_or_default();
                    let (truth, _) = self.truth(epoch, sql).ok_or_else(|| {
                        format!("{what}: no oracle entry for `{line}` at epoch {epoch}")
                    })?;
                    check(answer, truth).map_err(|e| {
                        format!(
                            "{what}: connection {conn} pass {} request {i} `{line}` at epoch {epoch}: {e}",
                            pass.pass
                        )
                    })?;
                }
            }
        }
        Ok(())
    }
}

/// Apply one mutation line to the oracle session and confirm it lands on
/// the epoch (and id) the stamped response reported.
fn apply(
    session: &Session,
    catalog: &Catalog,
    line: &str,
    epoch: u64,
    added: Option<u64>,
) -> Result<(), String> {
    let parse = |text: &str| {
        dsl::parse_constraint(&catalog.table, text).map_err(|e| format!("`{line}`: {e}"))
    };
    let budget = QueryBudget::unlimited();
    let (got_epoch, got_added) = match proto::parse_request(line)? {
        Request::Add(text) => {
            let (id, epoch) = session.add_constraint_stamped(parse(&text)?, &budget);
            (epoch, Some(id))
        }
        Request::Retire(id) => (
            session
                .retire_constraint_stamped(id)
                .map_err(|e| e.to_string())?,
            None,
        ),
        Request::Replace(id, text) => {
            let (id, epoch) = session
                .replace_constraint_stamped(id, parse(&text)?, &budget)
                .map_err(|e| e.to_string())?;
            (epoch, Some(id))
        }
        other => return Err(format!("`{line}` is not a mutation: {other:?}")),
    };
    let got_added = got_added.map(|id| id.to_string());
    if got_epoch != epoch || got_added != added.map(|n| format!("c{n}")) {
        return Err(format!(
            "`{line}`: the oracle reached epoch {got_epoch} id {got_added:?}, the stamped response said epoch {epoch} id {added:?}"
        ));
    }
    Ok(())
}

/// The exact range of every SQL at the session's current epoch, computed
/// from [`CONNECTIONS`] threads.
fn exact_ranges(
    session: &Session,
    catalog: &Catalog,
    sqls: &BTreeSet<&str>,
) -> Result<HashMap<String, (Truth, Duration)>, String> {
    let sqls: Vec<&str> = sqls.iter().copied().collect();
    let out = Mutex::new(HashMap::with_capacity(sqls.len()));
    let result: Result<(), String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|w| {
                let (sqls, out) = (&sqls, &out);
                scope.spawn(move || -> Result<(), String> {
                    for sql in sqls.iter().skip(w).step_by(CONNECTIONS) {
                        let query = parse_query(&catalog.table, sql)
                            .map_err(|e| format!("`{sql}`: {e}"))?;
                        let start = Instant::now();
                        let truth = match session.bound(&query) {
                            Ok(report) => Truth::Range(report.range.lo, report.range.hi),
                            Err(BoundError::EmptyAggregate) => Truth::Empty,
                            Err(e) => return Err(format!("oracle failed on `{sql}`: {e}")),
                        };
                        let service = start.elapsed();
                        out.lock()
                            .expect("no oracle worker panics holding the map")
                            .insert(sql.to_string(), (truth, service));
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("oracle worker panicked"))
    });
    result?;
    Ok(out.into_inner().expect("oracle workers finished"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_a_narrowed_range() {
        let truth = Truth::Range(10.0, 20.0);
        let narrowed = |exact| Answer::Range {
            lo: 11.0,
            hi: 20.0,
            exact,
        };
        assert!(check(narrowed(true), truth).is_err());
        assert!(check(narrowed(false), truth).is_err());
        let narrowed_hi = Answer::Range {
            lo: 10.0,
            hi: 19.999,
            exact: false,
        };
        assert!(check(narrowed_hi, truth).is_err());
    }

    #[test]
    fn rejects_a_widened_range_marked_exact() {
        let truth = Truth::Range(10.0, 20.0);
        let widened = |exact| Answer::Range {
            lo: 9.0,
            hi: 21.0,
            exact,
        };
        assert!(check(widened(true), truth).is_err());
        assert!(
            check(widened(false), truth).is_ok(),
            "a degraded answer may be wider"
        );
    }

    #[test]
    fn accepts_solver_noise_within_tolerance_only() {
        let truth = Truth::Range(0.0, 1.0e6);
        let noisy = |hi| Answer::Range {
            lo: 0.0,
            hi,
            exact: true,
        };
        assert!(check(noisy(1.0e6 + 0.5), truth).is_ok());
        assert!(check(noisy(1.0e6 + 2.0), truth).is_err());
        let open = Truth::Range(0.0, f64::INFINITY);
        assert!(check(
            Answer::Range {
                lo: 0.0,
                hi: f64::INFINITY,
                exact: true
            },
            open
        )
        .is_ok());
        assert!(check(
            Answer::Range {
                lo: 0.0,
                hi: 1.0e300,
                exact: true
            },
            open
        )
        .is_err());
        assert!(check(Answer::Empty, truth).is_err());
        assert!(check(Answer::Empty, Truth::Empty).is_ok());
    }
}
