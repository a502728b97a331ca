//! What a replay of the request streams observed, one entry per request —
//! shared by the socket run and the in-process replays, so one oracle
//! check covers all of them.

use crate::oracle::Answer;
use pc_budget::caps::parse_line_caps;
use pc_serve::proto;
use std::sync::Arc;
use std::time::Duration;

/// The admission verdict stamped on a `bound` answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Full exact pipeline.
    Exact,
    /// Degraded at admission.
    Degraded,
    /// Shed: answered from the cheapest sound path.
    Shed,
}

impl Verdict {
    fn parse(raw: &str) -> Option<Verdict> {
        match raw {
            "exact" => Some(Verdict::Exact),
            "degraded" => Some(Verdict::Degraded),
            "shed" => Some(Verdict::Shed),
            _ => None,
        }
    }
}

/// What one request got back.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A `bound` answer.
    Bound {
        /// The epoch the answer was computed against.
        epoch: u64,
        /// The range, and whether it claims to be exact.
        answer: Answer,
        /// The admission verdict (`exact` for an empty answer).
        verdict: Verdict,
        /// `queue-us`.
        queue_us: u64,
        /// `est-us`.
        est_us: u64,
    },
    /// A mutation (`+`, `-`, `replace`).
    Mutation {
        /// The epoch the mutation created.
        epoch: u64,
        /// The id a `+` or `replace` assigned.
        added: Option<u64>,
    },
    /// `ERR`, a timeout, or a broken connection.
    Failed(String),
}

/// One request: its outcome and its latency (client round trip on the
/// socket, the whole in-process call sequence in a traced replay, zero in
/// an untraced replay).
#[derive(Debug, Clone)]
pub struct Sample {
    /// What came back.
    pub outcome: Outcome,
    /// How long it took.
    pub latency: Duration,
}

/// One pass of one connection: the lines sent and what each got.
#[derive(Debug, Clone)]
pub struct PassLog {
    /// The pass number (0 = warm-up, not timed).
    pub pass: u64,
    /// The request lines, in order (shared by every replay of the pass).
    pub lines: Arc<[String]>,
    /// One sample per line.
    pub samples: Vec<Sample>,
}

/// One connection's passes, in order.
pub type ConnLog = Vec<PassLog>;

/// Parse a wire response header into an [`Outcome`].
pub fn parse_response(header: &str) -> Outcome {
    let fail = || Outcome::Failed(header.to_string());
    if !header.starts_with("OK ") {
        return fail();
    }
    let Some(epoch) = proto::field(header, "epoch").and_then(|e| e.parse().ok()) else {
        return fail();
    };
    if header.starts_with("OK bound ") {
        if header.ends_with(" empty") {
            return Outcome::Bound {
                epoch,
                answer: Answer::Empty,
                verdict: Verdict::Exact,
                queue_us: 0,
                est_us: 0,
            };
        }
        let parsed = (|| {
            let (lo, hi) = proto::parse_range(header)?;
            let verdict = Verdict::parse(proto::field(header, "verdict")?)?;
            let degraded = proto::field(header, "degraded")? == "true";
            Some(Outcome::Bound {
                epoch,
                answer: Answer::Range {
                    lo,
                    hi,
                    exact: !degraded && verdict != Verdict::Shed,
                },
                verdict,
                queue_us: proto::field(header, "queue-us")?.parse().ok()?,
                est_us: proto::field(header, "est-us")?.parse().ok()?,
            })
        })();
        return parsed.unwrap_or_else(fail);
    }
    let id = |key| {
        proto::field(header, key)
            .and_then(|id| id.strip_prefix('c'))
            .and_then(|n| n.parse().ok())
    };
    if header.starts_with("OK added=") || header.starts_with("OK replaced=") {
        return match id("added") {
            Some(added) => Outcome::Mutation {
                epoch,
                added: Some(added),
            },
            None => fail(),
        };
    }
    if header.starts_with("OK retired=") {
        return Outcome::Mutation { epoch, added: None };
    }
    fail()
}

/// The SQL of a `bound` request line, and its `@timeout-ms` if any.
pub fn bound_sql(line: &str) -> Option<(&str, Option<u64>)> {
    let rest = line.strip_prefix("bound ")?;
    let (caps, sql) = parse_line_caps(rest).ok()?;
    Some((sql.trim(), caps.timeout_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_response_the_streams_get() {
        let bound = "OK bound epoch=3 range=[1.5,inf] closed=true degraded=true trip=deadline verdict=shed queue-us=12 backlog-us=0 est-us=40";
        assert_eq!(
            parse_response(bound),
            Outcome::Bound {
                epoch: 3,
                answer: Answer::Range {
                    lo: 1.5,
                    hi: f64::INFINITY,
                    exact: false
                },
                verdict: Verdict::Shed,
                queue_us: 12,
                est_us: 40,
            }
        );
        assert!(matches!(
            parse_response("OK bound epoch=0 empty"),
            Outcome::Bound {
                answer: Answer::Empty,
                ..
            }
        ));
        assert_eq!(
            parse_response("OK replaced=c144 added=c145 epoch=2"),
            Outcome::Mutation {
                epoch: 2,
                added: Some(145)
            }
        );
        assert_eq!(
            parse_response("OK retired=c145 epoch=3"),
            Outcome::Mutation {
                epoch: 3,
                added: None
            }
        );
        assert!(matches!(
            parse_response("ERR line 4: nope"),
            Outcome::Failed(_)
        ));
        assert_eq!(
            bound_sql("bound @timeout-ms=200 SELECT COUNT(*)"),
            Some(("SELECT COUNT(*)", Some(200)))
        );
        assert_eq!(bound_sql("- c3"), None);
    }
}
