//! `servebench`: the repository's end-to-end benchmark. Contingency
//! queries go through an in-process `pc serve` on 127.0.0.1 from a
//! closed-loop load generator; every answer is checked against an exact
//! oracle. With `--trace 1` the same request streams are also replayed
//! in-process, one span per layer call, for a per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload wire_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The line before it is the run record: host, seed,
//! passes and the sample count behind every percentile. An oracle
//! mismatch aborts with a non-zero exit and no result.

mod log;
mod net;
mod oracle;
mod stats;
mod trace;
mod workload;

use crate::log::{bound_sql, ConnLog, Outcome, Sample, Verdict};
use crate::oracle::{Answer, Oracle};
use crate::stats::{mean, median, percentile, sorted};
use crate::workload::{Catalog, Workload, CONNECTIONS};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// `bound` answers a run needs at least, so p99 has ten samples beyond it.
const MIN_BOUND_SAMPLES: usize = 1000;

/// The layer self times of a traced replay must cover the in-process total
/// but for at most this share, the dispatch glue between the calls.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// Where traced runs write their spans, relative to the checkout root.
const OUT_DIR: &str = "servebench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// The metrics of a run, plus the record of what stands behind them.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    /// Samples behind each percentile, mean or ratio.
    samples: Vec<(&'static str, usize)>,
    /// Figures of the run record that are not result metrics.
    extra: Vec<(&'static str, Option<f64>)>,
}

impl Report {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// A percentile of `values`; an error when the sample is too small.
    fn percentile(
        &mut self,
        name: &'static str,
        unit: &'static str,
        values: Vec<f64>,
        pct: usize,
    ) -> Result<(), String> {
        let n = values.len();
        let value = percentile(&sorted(values), pct).ok_or_else(|| {
            format!(
                "{name}: {n} samples leave fewer than {} beyond p{pct}",
                stats::MIN_BEYOND
            )
        })?;
        self.samples.push((name, n));
        self.push(name, unit, value);
        Ok(())
    }

    /// A percentile for the run record only: `null` when too few samples.
    fn extra_percentile(&mut self, name: &'static str, values: Vec<f64>, pct: usize) {
        self.samples.push((name, values.len()));
        self.extra.push((name, percentile(&sorted(values), pct)));
    }

    fn counted(&mut self, name: &'static str, unit: &'static str, value: f64, n: usize) {
        self.samples.push((name, n));
        self.push(name, unit, value);
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Samples of the timed passes (pass 0 is warm-up).
fn timed(logs: &[ConnLog]) -> impl Iterator<Item = (&str, &Sample)> {
    logs.iter()
        .flatten()
        .filter(|pass| pass.pass > 0)
        .flat_map(|pass| pass.lines.iter().map(String::as_str).zip(&pass.samples))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `attempted` and `failed` over every request the socket run sent.
fn failures(logs: &[ConnLog]) -> (usize, usize) {
    let all = logs.iter().flatten().flat_map(|p| &p.samples);
    let (mut attempted, mut failed) = (0, 0);
    for sample in all {
        attempted += 1;
        if let Outcome::Failed(reason) = &sample.outcome {
            if failed == 0 {
                eprintln!("servebench: first failed request: {reason}");
            }
            failed += 1;
        }
    }
    (attempted, failed)
}

/// What the timed passes of a socket run saw, by verb.
struct Wire {
    /// Latency of every answered `bound`, in ms.
    bound_ms: Vec<f64>,
    /// Latency of every answered mutation, in ms.
    mutation_ms: Vec<f64>,
    /// Share of answered `bound`s marked degraded or shed.
    degraded_frac: f64,
}

fn wire(logs: &[ConnLog]) -> Wire {
    let (mut bound_ms, mut mutation_ms, mut non_exact) = (Vec::new(), Vec::new(), 0usize);
    for (_, sample) in timed(logs) {
        match &sample.outcome {
            Outcome::Bound { answer, .. } => {
                bound_ms.push(ms(sample.latency));
                non_exact += usize::from(matches!(answer, Answer::Range { exact: false, .. }));
            }
            Outcome::Mutation { .. } => mutation_ms.push(ms(sample.latency)),
            Outcome::Failed(_) => {}
        }
    }
    let degraded_frac = non_exact as f64 / bound_ms.len().max(1) as f64;
    Wire {
        bound_ms,
        mutation_ms,
        degraded_frac,
    }
}

fn end_to_end(args: &Args, catalog: &Catalog, report: &mut Report) -> Result<Vec<ConnLog>, String> {
    let workload = args.workload;
    let mut setups = Vec::new();
    let mut running = None;
    for _ in 0..workload.setup_reps() {
        drop(running.take());
        let (server, took) = net::start(workload, catalog)?;
        setups.push(took.as_secs_f64());
        running = Some(server);
    }
    let mut running = running.expect("at least one set-up");
    let drive = net::drive(
        &mut running,
        workload,
        catalog,
        args.seed,
        Duration::from_secs(args.seconds),
        MIN_BOUND_SAMPLES,
    );
    drop(running);
    let wire = wire(&drive.logs);
    let answered = wire.bound_ms.len();
    report.percentile("query_p50_ms", "ms", wire.bound_ms.clone(), 50)?;
    report.percentile("query_p99_ms", "ms", wire.bound_ms, 99)?;
    report.counted(
        "query_qps",
        "1/s",
        answered as f64 / drive.wall.as_secs_f64(),
        answered,
    );
    report.counted("setup_s", "s", median(&setups), setups.len());
    // zero on some workloads, so kept out of the bounded metrics
    report
        .extra
        .push(("degraded_frac", Some(wire.degraded_frac)));
    if !wire.mutation_ms.is_empty() {
        report.extra_percentile("mutation_p50_ms", wire.mutation_ms.clone(), 50);
        report.extra_percentile("mutation_p99_ms", wire.mutation_ms, 99);
    }
    Ok(drive.logs)
}

/// The traced run: the socket run untraced (round trips, wire-visible
/// admission figures), then a traced and an untraced in-process replay of
/// the same streams. The socket run takes a third of `--seconds`, so the
/// three replays together take about as long as an end-to-end run.
fn per_layer(args: &Args, catalog: &Catalog, report: &mut Report) -> Result<Vec<ConnLog>, String> {
    let workload = args.workload;
    let (mut running, _) = net::start(workload, catalog)?;
    let drive = net::drive(
        &mut running,
        workload,
        catalog,
        args.seed,
        Duration::from_secs(args.seconds) / 3,
        MIN_BOUND_SAMPLES,
    );
    drop(running);
    let traced = trace::replay(workload, catalog, &drive.logs, true)?;
    let plain = trace::replay(workload, catalog, &drive.logs, false)?;
    let closure_started = Instant::now();
    let closed = catalog.set.is_closed_within(catalog.set.domain());
    let closure = closure_started.elapsed();
    if !closed {
        return Err("the catalog must be closed over its domain".into());
    }
    let oracle = Oracle::build(catalog, &[&drive.logs, &traced.logs, &plain.logs])?;
    for (what, logs) in [
        ("socket run", &drive.logs),
        ("traced replay", &traced.logs),
        ("untraced replay", &plain.logs),
    ] {
        oracle.check_logs(what, logs)?;
    }

    // serve: round trips, and what of them the in-process calls leave over
    let roundtrip_us: Vec<f64> = timed(&drive.logs).map(|(_, s)| us(s.latency)).collect();
    report.percentile("serve.roundtrip_us.p50", "us", roundtrip_us.clone(), 50)?;
    report.percentile("serve.roundtrip_us.p99", "us", roundtrip_us, 99)?;
    let residual_us: Vec<f64> = timed(&drive.logs)
        .zip(timed(&traced.logs))
        .map(|((_, wire), (_, inproc))| us(wire.latency) - us(inproc.latency))
        .collect();
    report.percentile("serve.residual_us.p50", "us", residual_us, 50)?;
    let self_times = trace::self_times(&traced.spans);
    let layer = |name: &str| self_times.get(name).cloned().unwrap_or_default();
    report.percentile(
        "serve.parse_request_us.p50",
        "us",
        layer("serve.parse_request"),
        50,
    )?;
    report.percentile(
        "serve.report_fields_us.p50",
        "us",
        layer("serve.report_fields"),
        50,
    )?;
    report.percentile(
        "storage.parse_query_us.p50",
        "us",
        layer("storage.parse_query"),
        50,
    )?;

    // budget: admission cost and decisions on the deadline share
    report.percentile("budget.admit_us.p50", "us", layer("budget.admit"), 50)?;
    let (mut verdicts, mut degraded, mut needless) = ([0usize; 3], 0usize, 0usize);
    let (mut est_ratio, mut queue_us) = (Vec::new(), Vec::new());
    for (line, sample) in timed(&drive.logs) {
        let Outcome::Bound {
            epoch,
            answer,
            verdict,
            queue_us: queue,
            est_us,
        } = sample.outcome
        else {
            continue;
        };
        queue_us.push(queue as f64);
        let Some((sql, Some(timeout_ms))) = bound_sql(line) else {
            continue;
        };
        verdicts[match verdict {
            Verdict::Exact => 0,
            Verdict::Degraded => 1,
            Verdict::Shed => 2,
        }] += 1;
        let (_, service) = oracle.truth(epoch, sql).expect("every answer was checked");
        if est_us > 0 {
            est_ratio.push(est_us as f64 / us(service).max(1.0));
        }
        if matches!(answer, Answer::Range { exact: false, .. }) {
            degraded += 1;
            needless += usize::from(service <= Duration::from_millis(timeout_ms));
        }
    }
    let deadline_requests: usize = verdicts.iter().sum();
    report.counted(
        "budget.verdict.exact",
        "count",
        verdicts[0] as f64,
        deadline_requests,
    );
    report.counted(
        "budget.verdict.degraded",
        "count",
        verdicts[1] as f64,
        deadline_requests,
    );
    report.counted(
        "budget.verdict.shed",
        "count",
        verdicts[2] as f64,
        deadline_requests,
    );
    report.counted(
        "budget.needless_degrade_frac",
        "ratio",
        needless as f64 / degraded.max(1) as f64,
        degraded,
    );
    let n = est_ratio.len();
    let est_p50 = percentile(&sorted(est_ratio), 50).unwrap_or(0.0);
    report.counted("budget.est_over_observed.p50", "ratio", est_p50, n);
    report.percentile("budget.queue_wait_us.p99", "us", queue_us, 99)?;
    let wire = wire(&drive.logs);
    report.counted(
        "degraded_frac",
        "ratio",
        wire.degraded_frac,
        wire.bound_ms.len(),
    );

    // session, sat/specialize, solver, shard
    report.percentile("session.bound_us.p50", "us", layer("session.bound"), 50)?;
    report.percentile("session.bound_us.p99", "us", layer("session.bound"), 99)?;
    report.push(
        "session.first_epoch_build_us",
        "us",
        us(traced.first_epoch_build),
    );
    report.push("sat.closure_us", "us", us(closure));
    report.push(
        "decompose.setup_sat_checks",
        "count",
        traced.setup_stats.sat_checks as f64,
    );
    report.push(
        "decompose.setup_cells",
        "count",
        traced.setup_stats.cells as f64,
    );
    let work = &traced.work;
    let per_query =
        |f: fn(&trace::Work) -> u64| mean(&work.iter().map(|w| f(w) as f64).collect::<Vec<_>>());
    report.counted(
        "sat.checks_per_query",
        "count",
        per_query(|w| w.sat_checks),
        work.len(),
    );
    report.counted(
        "specialize.cells_per_query",
        "count",
        per_query(|w| w.cells),
        work.len(),
    );
    report.counted(
        "solver.pivots_per_query",
        "count",
        per_query(|w| w.pivots),
        work.len(),
    );
    report.counted(
        "solver.nodes_per_query",
        "count",
        per_query(|w| w.nodes),
        work.len(),
    );
    let (carried, rebuilt): (u64, u64) = work
        .iter()
        .map(|w| (w.carried, w.rebuilt))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    report.counted(
        "solver.carried_frac",
        "ratio",
        carried as f64 / (carried + rebuilt).max(1) as f64,
        work.len(),
    );
    report.push("shard.count", "count", traced.shards as f64);
    report.counted(
        "shard.touched_per_query",
        "count",
        per_query(|w| w.shards_touched),
        work.len(),
    );

    // The layer-sum check and the price of tracing. Self times partition
    // each request's root span, so their sum is the in-process total; the
    // root's own share is the dispatch glue no layer accounts for.
    let total: f64 = self_times.values().flatten().sum();
    let unattributed = layer(trace::ROOT).iter().sum::<f64>() / total;
    report.push("trace.unattributed_frac", "ratio", unattributed);
    report.push(
        "trace.overhead_frac",
        "ratio",
        traced.busy.as_secs_f64() / plain.busy.as_secs_f64() - 1.0,
    );
    if unattributed > MAX_UNATTRIBUTED {
        return Err(format!(
            "layer self times cover only {:.1}% of the in-process total (at least {:.0}% required)",
            100.0 * (1.0 - unattributed),
            100.0 * (1.0 - MAX_UNATTRIBUTED)
        ));
    }

    // mutation layers: churn_corrpc only, so they go to the run record
    let post: Vec<f64> = work
        .iter()
        .filter(|w| w.post_mutation)
        .map(|w| w.bound_ns as f64 / 1e3)
        .collect();
    if !layer("session.mutation").is_empty() {
        report.extra_percentile(
            "dsl.parse_constraint_us.p50",
            layer("dsl.parse_constraint"),
            50,
        );
        report.extra_percentile("session.mutation_us.p50", layer("session.mutation"), 50);
        report.extra_percentile("session.mutation_us.p99", layer("session.mutation"), 99);
        report.extra_percentile("session.post_mutation_bound_us.p50", post, 50);
    }

    let spans = Path::new(OUT_DIR).join(format!("spans-{}.tsv", workload.name()));
    trace::write_spans(&spans, &traced.spans).map_err(|e| format!("{}: {e}", spans.display()))?;
    Ok(drive.logs)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if CONNECTIONS > nproc {
        return Err(format!(
            "the load generator needs {CONNECTIONS} client threads and connections, more than nproc = {nproc}"
        ));
    }
    let catalog = args.workload.catalog();
    let mut report = Report::default();
    let logs = if args.trace {
        per_layer(&args, &catalog, &mut report)?
    } else {
        let logs = end_to_end(&args, &catalog, &mut report)?;
        let oracle = Oracle::build(&catalog, &[&logs])?;
        oracle.check_logs("socket run", &logs)?;
        logs
    };
    let passes: Vec<usize> = logs.iter().map(|l| l.len() - 1).collect();
    let (attempted, failed) = failures(&logs);

    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"rayon_num_threads\": {}, \"pool_threads\": {}, \"commit\": {}, \"client_threads\": {CONNECTIONS}, \
         \"connections\": {CONNECTIONS}, \"timed_passes\": {:?}, \"setup_reps\": {}, \"samples\": {{",
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("RAYON_NUM_THREADS").map_or("null".into(), |v| json_string(&v)),
        rayon::current_num_threads(),
        json_string(&commit()),
        passes,
        if args.trace { 1 } else { args.workload.setup_reps() },
    );
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(name, n)| format!("{}: {n}", json_string(name)))
        .collect();
    let extra: Vec<String> = report
        .extra
        .iter()
        .map(|(name, v)| {
            format!(
                "{}: {}",
                json_string(name),
                v.map_or("null".into(), json_number)
            )
        })
        .collect();
    let _ = write!(
        record,
        "{}}}, \"extra\": {{{}}}}}}}",
        samples.join(", "),
        extra.join(", ")
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    let out = Path::new(OUT_DIR);
    if std::fs::create_dir_all(out).is_ok() {
        use std::io::Write as _;
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out.join("results.jsonl"))
        {
            let _ = writeln!(file, "{record}\n{result}");
        }
    }
    println!("{record}");
    println!("{result}");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}
