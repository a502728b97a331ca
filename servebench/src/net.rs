//! The socket side: an in-process `pc_serve::Server` on 127.0.0.1 and a
//! closed-loop load generator of [`CONNECTIONS`] client threads, each
//! owning one connection and sending its next request only after the
//! previous answer arrived.

use crate::log::{parse_response, ConnLog, Outcome, PassLog, Sample};
use crate::workload::{Catalog, Workload, CONNECTIONS};
use pc_serve::server::DEFAULT_TENANT;
use pc_serve::{Connection, ServeConfig, Server, ServerHandle};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A request still unanswered after this long counts as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// The query that answers first on every tenant during set-up; any query
/// builds the tenant's domain-wide epoch-0 decomposition.
const FIRST_QUERY: &str = "bound SELECT COUNT(*)";

/// A running server and the benchmark's connections to it. Dropping it
/// closes the connections, shuts the server down and joins its thread.
pub struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<io::Result<()>>>,
    conns: Vec<Connection>,
}

impl Drop for Running {
    fn drop(&mut self) {
        self.conns.clear();
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn expect_ok(conn: &mut Connection, line: &str) -> Result<(), String> {
    let response = conn.send(line).map_err(|e| format!("`{line}`: {e}"))?;
    if response.is_ok() {
        Ok(())
    } else {
        Err(format!("`{line}`: {}", response.header))
    }
}

/// Bind a server over the workload's catalog and open the connections.
/// Returns the set-up time: from `Server::bind` until a `bound` has been
/// answered on every tenant the workload uses (epoch-0 decomposition and
/// closure check included; catalog generation excluded).
pub fn start(workload: Workload, catalog: &Catalog) -> Result<(Running, Duration), String> {
    let (table, set) = (catalog.table.clone(), catalog.set.clone());
    let started = Instant::now();
    let server = Server::bind("127.0.0.1:0", table, set, ServeConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Connect before the accept loop runs: the connections wait in the
    // listen backlog, so no accept poll tick lands inside set-up.
    let conns = (0..CONNECTIONS)
        .map(|_| Connection::connect(addr))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let mut running = Running {
        addr,
        handle,
        thread: Some(thread),
        conns,
    };
    let tenants = workload.tenants();
    for (i, (conn, tenant)) in running.conns.iter_mut().zip(tenants).enumerate() {
        conn.set_response_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let first_use = !tenants[..i].contains(&tenant);
        if first_use && tenant != DEFAULT_TENANT {
            expect_ok(conn, &format!("tenant create {tenant}"))?;
        }
        expect_ok(conn, &format!("use {tenant}"))?;
        if first_use {
            expect_ok(conn, FIRST_QUERY)?;
        }
    }
    Ok((running, started.elapsed()))
}

/// What the closed loop measured.
pub struct Drive {
    /// One log per connection; pass 0 is the untimed warm-up.
    pub logs: Vec<ConnLog>,
    /// From the start of the timed passes until the last connection
    /// finished its last pass.
    pub wall: Duration,
}

/// Replay the streams in a closed loop: each connection runs warm-up pass
/// 0, then — together — whole timed passes until `seconds` have passed
/// and at least `min_bound` `bound` requests were answered.
pub fn drive(
    running: &mut Running,
    workload: Workload,
    catalog: &Catalog,
    seed: u64,
    seconds: Duration,
    min_bound: usize,
) -> Drive {
    let addr = running.addr;
    let tenants = workload.tenants();
    let answered = AtomicUsize::new(0);
    let barrier = Barrier::new(CONNECTIONS);
    let start: OnceLock<Instant> = OnceLock::new();
    let (logs, ends): (Vec<ConnLog>, Vec<Instant>) = std::thread::scope(|scope| {
        let clients: Vec<_> = running
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (answered, barrier, start) = (&answered, &barrier, &start);
                let tenant = tenants[c];
                scope.spawn(move || {
                    let mut log = vec![run_pass(conn, addr, tenant, workload, catalog, seed, c, 0)];
                    barrier.wait();
                    let start = *start.get_or_init(Instant::now);
                    for pass in 1.. {
                        let timed = run_pass(conn, addr, tenant, workload, catalog, seed, c, pass);
                        let bounds = timed
                            .samples
                            .iter()
                            .filter(|s| matches!(s.outcome, Outcome::Bound { .. }))
                            .count();
                        let total = answered.fetch_add(bounds, Ordering::Relaxed) + bounds;
                        log.push(timed);
                        if start.elapsed() >= seconds && total >= min_bound {
                            break;
                        }
                    }
                    (log, Instant::now())
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .unzip()
    });
    let start = *start.get().expect("the timed passes started");
    let end = ends.into_iter().max().expect("at least one connection");
    Drive {
        logs,
        wall: end - start,
    }
}

/// Send one pass of connection `c`'s stream. A broken or timed-out
/// connection counts its request as failed and is reopened.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    conn: &mut Connection,
    addr: SocketAddr,
    tenant: &str,
    workload: Workload,
    catalog: &Catalog,
    seed: u64,
    c: usize,
    pass: u64,
) -> PassLog {
    let lines = workload.pass_lines(catalog, seed, c, pass);
    let mut samples = Vec::with_capacity(lines.len());
    for line in &lines {
        let sent = Instant::now();
        let response = conn.send(line);
        let latency = sent.elapsed();
        let outcome = match response {
            Ok(response) => parse_response(&response.header),
            Err(e) => {
                if let Err(again) = reconnect(conn, addr, tenant) {
                    eprintln!("servebench: reconnect failed: {again}");
                }
                Outcome::Failed(e.to_string())
            }
        };
        samples.push(Sample { outcome, latency });
    }
    PassLog {
        pass,
        lines: lines.into(),
        samples,
    }
}

fn reconnect(conn: &mut Connection, addr: SocketAddr, tenant: &str) -> Result<(), String> {
    *conn = Connection::connect(addr).map_err(|e| e.to_string())?;
    conn.set_response_timeout(Some(RESPONSE_TIMEOUT))
        .map_err(|e| e.to_string())?;
    expect_ok(conn, &format!("use {tenant}"))
}
