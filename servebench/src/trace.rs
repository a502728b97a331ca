//! The in-process replays. The socket run's streams are replayed against
//! fresh sessions from [`CONNECTIONS`] threads, each line through the
//! calls the server makes for it: `parse_request`, then `parse_query` or
//! `parse_constraint`, then `admit` and `bound_ticketed_stamped` or the
//! mutation, then `report_fields`. A traced replay records one span per
//! call under one root span per request; an untraced replay makes the same
//! calls with the tracer off, which prices the tracing itself.

use crate::log::{parse_response, ConnLog, Outcome, PassLog, Sample};
use crate::workload::{Catalog, Workload, CONNECTIONS};
use pc_core::{dsl, BoundError, DecomposeStats, Session};
use pc_serve::proto::{self, Request};
use pc_serve::ServeConfig;
use pc_storage::parse_query;
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The root span of one request; its self time is the dispatch glue
/// between the layer calls.
pub const ROOT: &str = "request";

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer function called ([`ROOT`] for the whole request).
    pub name: &'static str,
    /// Start, in nanoseconds since the replay began.
    pub start_ns: u64,
    /// End, in nanoseconds since the replay began.
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's span list.
    pub parent: Option<u32>,
    /// `connection << 48 | pass << 16 | line index`.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Option<u32>,
}

impl Tracer {
    fn begin(&mut self, name: &'static str, request: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per thread");
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open,
            request,
        });
        self.open = Some(index);
        Some(index)
    }

    fn end(&mut self, index: Option<u32>) -> u64 {
        let Some(index) = index else {
            return 0;
        };
        let span = &mut self.spans[index as usize];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open = span.parent;
        span.ns()
    }

    fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let index = self.begin(name, request);
        let out = f();
        self.end(index);
        out
    }
}

/// Engine work of one traced `bound`, from its `BoundReport`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// `stats.sat_checks`.
    pub sat_checks: u64,
    /// `stats.cells`.
    pub cells: u64,
    /// `solver.pivots`.
    pub pivots: u64,
    /// `solver.nodes`.
    pub nodes: u64,
    /// `solver.carried`.
    pub carried: u64,
    /// `solver.rebuilt`.
    pub rebuilt: u64,
    /// Shards with SAT work (non-zero `shard_sat_checks` entries).
    pub shards_touched: u64,
    /// The `bound_ticketed_stamped` span, in nanoseconds.
    pub bound_ns: u64,
    /// First answer this connection saw from a newer epoch.
    pub post_mutation: bool,
}

/// One connection's share of a replay: its log, spans, bound work and
/// timed wall time.
type ThreadReplay = (ConnLog, Vec<Span>, Vec<Work>, Duration);

/// What one replay observed.
pub struct Replay {
    /// One log per connection, aligned with the socket run's.
    pub logs: Vec<ConnLog>,
    /// Spans of the timed passes, one list per connection (empty when
    /// untraced).
    pub spans: Vec<Vec<Span>>,
    /// Engine work of each timed `bound` (empty when untraced).
    pub work: Vec<Work>,
    /// Wall time of the timed passes, summed over connections.
    pub busy: Duration,
    /// `Session::sharded_cell_set` on the first tenant's fresh session.
    pub first_epoch_build: Duration,
    /// Work counters of that epoch-0 build.
    pub setup_stats: DecomposeStats,
    /// Shards of the epoch-0 decomposition.
    pub shards: usize,
}

/// Replay every pass of the socket run's logs — warm-up pass 0 untimed,
/// then the timed passes — from one thread per connection.
pub fn replay(
    workload: Workload,
    catalog: &Catalog,
    socket: &[ConnLog],
    traced: bool,
) -> Result<Replay, String> {
    let options = ServeConfig::default().options;
    let tenants = workload.tenants();
    let mut sessions: HashMap<&str, Arc<Session>> = HashMap::new();
    let mut first_build = None;
    for tenant in tenants {
        if sessions.contains_key(tenant) {
            continue;
        }
        let session = Arc::new(Session::with_options(catalog.set.clone(), options));
        let started = Instant::now();
        let cells = session
            .sharded_cell_set()
            .map_err(|e| format!("epoch-0 decomposition: {e}"))?;
        let built = started.elapsed();
        first_build.get_or_insert((built, cells.stats(), cells.shards().len()));
        sessions.insert(tenant, session);
    }
    let (first_epoch_build, setup_stats, shards) = first_build.expect("at least one tenant");

    let barrier = Barrier::new(CONNECTIONS);
    let origin = Instant::now();
    let results: Vec<ThreadReplay> = std::thread::scope(|scope| {
        let threads: Vec<_> = socket
            .iter()
            .enumerate()
            .map(|(c, passes)| {
                let session = Arc::clone(&sessions[tenants[c]]);
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tracer = Tracer {
                        origin,
                        enabled: false,
                        spans: Vec::new(),
                        open: None,
                    };
                    let mut work = Vec::new();
                    let mut last_epoch = 0;
                    let mut log = Vec::with_capacity(passes.len());
                    let mut started = Instant::now();
                    for sent in passes {
                        if sent.pass == 1 {
                            barrier.wait();
                            tracer.enabled = traced;
                            started = Instant::now();
                        }
                        let mut samples = Vec::with_capacity(sent.lines.len());
                        for (i, line) in sent.lines.iter().enumerate() {
                            let request = (c as u64) << 48 | sent.pass << 16 | i as u64;
                            let root = tracer.begin(ROOT, request);
                            let served = serve_line(&session, catalog, line, request, &mut tracer);
                            let latency = Duration::from_nanos(tracer.end(root));
                            let outcome = match served {
                                Ok((response, bound_work)) => {
                                    let outcome = parse_response(&response);
                                    if let (Some(mut w), Outcome::Bound { epoch, .. }) =
                                        (bound_work, &outcome)
                                    {
                                        w.post_mutation = *epoch > last_epoch;
                                        last_epoch = last_epoch.max(*epoch);
                                        if tracer.enabled {
                                            work.push(w);
                                        }
                                    }
                                    outcome
                                }
                                Err(e) => Outcome::Failed(e),
                            };
                            samples.push(Sample { outcome, latency });
                        }
                        log.push(PassLog {
                            pass: sent.pass,
                            lines: Arc::clone(&sent.lines),
                            samples,
                        });
                    }
                    (log, tracer.spans, work, started.elapsed())
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("replay thread panicked"))
            .collect()
    });
    let mut replay = Replay {
        logs: Vec::new(),
        spans: Vec::new(),
        work: Vec::new(),
        busy: Duration::ZERO,
        first_epoch_build,
        setup_stats,
        shards,
    };
    for (log, spans, work, busy) in results {
        replay.logs.push(log);
        replay.spans.push(spans);
        replay.work.extend(work);
        replay.busy += busy;
    }
    Ok(replay)
}

/// One request line through the server's call sequence; returns the
/// response line the server would write, and the engine work of a
/// `bound`.
fn serve_line(
    session: &Session,
    catalog: &Catalog,
    line: &str,
    request: u64,
    tracer: &mut Tracer,
) -> Result<(String, Option<Work>), String> {
    let caps = ServeConfig::default().caps;
    let table = &catalog.table;
    match tracer.span("serve.parse_request", request, || {
        proto::parse_request(line)
    })? {
        Request::Bound { caps: over, sql } => {
            let budget = caps.overridden_by(over).armed_budget();
            let query = tracer
                .span("storage.parse_query", request, || parse_query(table, &sql))
                .map_err(|e| e.to_string())?;
            let ticket = tracer.span("budget.admit", request, || session.admit(&query, &budget));
            let index = tracer.begin("session.bound", request);
            let (epoch, result) = session.bound_ticketed_stamped(&query, &budget, ticket);
            let bound_ns = tracer.end(index);
            match result {
                Ok(report) => {
                    let fields = tracer.span("serve.report_fields", request, || {
                        proto::report_fields(&report)
                    });
                    let work = Work {
                        sat_checks: report.stats.sat_checks,
                        cells: report.stats.cells as u64,
                        pivots: report.solver.pivots,
                        nodes: report.solver.nodes,
                        carried: report.solver.carried,
                        rebuilt: report.solver.rebuilt,
                        shards_touched: report.shard_sat_checks.iter().filter(|&&n| n > 0).count()
                            as u64,
                        bound_ns,
                        post_mutation: false,
                    };
                    Ok((format!("OK bound epoch={epoch} {fields}"), Some(work)))
                }
                Err(BoundError::EmptyAggregate) => {
                    Ok((format!("OK bound epoch={epoch} empty"), None))
                }
                Err(e) => Err(e.to_string()),
            }
        }
        Request::Add(text) => {
            let budget = caps.armed_budget();
            let pc = tracer
                .span("dsl.parse_constraint", request, || {
                    dsl::parse_constraint(table, &text)
                })
                .map_err(|e| e.to_string())?;
            let (id, epoch) = tracer.span("session.mutation", request, || {
                session.add_constraint_stamped(pc, &budget)
            });
            Ok((format!("OK added={id} epoch={epoch}"), None))
        }
        Request::Retire(id) => {
            let epoch = tracer
                .span("session.mutation", request, || {
                    session.retire_constraint_stamped(id)
                })
                .map_err(|e| e.to_string())?;
            Ok((format!("OK retired={id} epoch={epoch}"), None))
        }
        Request::Replace(id, text) => {
            let budget = caps.armed_budget();
            let pc = tracer
                .span("dsl.parse_constraint", request, || {
                    dsl::parse_constraint(table, &text)
                })
                .map_err(|e| e.to_string())?;
            let (new_id, epoch) = tracer
                .span("session.mutation", request, || {
                    session.replace_constraint_stamped(id, pc, &budget)
                })
                .map_err(|e| e.to_string())?;
            Ok((
                format!("OK replaced={id} added={new_id} epoch={epoch}"),
                None,
            ))
        }
        other => Err(format!("the streams send no {other:?}")),
    }
}

/// Self time per span (its duration minus its children's), grouped by
/// span name, in microseconds.
pub fn self_times(spans: &[Vec<Span>]) -> HashMap<&'static str, Vec<f64>> {
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for thread in spans {
        let mut children = vec![0u64; thread.len()];
        for span in thread {
            if let Some(parent) = span.parent {
                children[parent as usize] += span.ns();
            }
        }
        for (span, child_ns) in thread.iter().zip(children) {
            out.entry(span.name)
                .or_default()
                .push((span.ns() - child_ns) as f64 / 1e3);
        }
    }
    out
}

/// Write every span, one per line: request, name, start, end, and parent
/// (the 1-based number of the parent's data line, `-` for a root).
pub fn write_spans(path: &std::path::Path, spans: &[Vec<Span>]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "request\tname\tstart_ns\tend_ns\tparent")?;
    let mut offset = 0usize;
    for thread in spans {
        for span in thread {
            let parent = span
                .parent
                .map(|p| (offset + p as usize + 1).to_string())
                .unwrap_or_else(|| "-".into());
            writeln!(
                out,
                "{:#x}\t{}\t{}\t{}\t{parent}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        offset += thread.len();
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        let spans = vec![vec![
            span(ROOT, 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
        ]];
        let times = self_times(&spans);
        assert_eq!(times[ROOT], vec![0.03]);
        assert_eq!(times["a"], vec![0.02]);
        assert_eq!(times["b"], vec![0.05]);
    }
}
