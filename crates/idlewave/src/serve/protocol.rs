//! The `wavesim serve` wire protocol: line-delimited JSON records,
//! version `serve_format = 1`.
//!
//! Every line is one record with a `"type"` discriminator. The server
//! greets each connection with a `hello`, then answers every request
//! line with at least one reply line; `submit` additionally produces a
//! later `result` line when the job reaches a terminal state. Replies
//! to a connection are serialized by a single writer, so a client can
//! match results to submissions by scenario id.
//!
//! Requests: `submit` (carries a sweep [`Scenario`]), `query` (fetch the
//! terminal record for an id, e.g. after a server restart), `ping`,
//! `stats`, and `drain` (ask the server to stop accepting, finish
//! in-flight work, and exit — the request-shaped twin of SIGTERM).
//!
//! Protocol errors are *replies*, not disconnects: a malformed,
//! oversized, or unknown line gets a structured `error` record and the
//! connection keeps serving (see `docs/SERVE.md`).

use tracefmt::json::{FromJson, Json, JsonError};

use crate::sweep::{Scenario, ScenarioResult};

/// Wire format version in the `hello` greeting.
pub const SERVE_FORMAT: u64 = 1;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one scenario for execution.
    Submit(Box<Scenario>),
    /// Fetch the terminal record for a scenario id, if one exists.
    Query {
        /// The scenario id to look up.
        id: String,
    },
    /// Liveness probe; echoed back in a `pong`.
    Ping {
        /// Opaque client token, echoed verbatim.
        nonce: u64,
    },
    /// Snapshot of the service counters.
    Stats,
    /// Graceful drain: stop accepting, finish in-flight jobs, exit 0.
    Drain,
}

/// Parse one request line. The error string is ready to embed in an
/// `error` reply.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|JsonError(e)| format!("malformed JSON: {e}"))?;
    Request::from_json(&v).map_err(|JsonError(e)| e)
}

tracefmt::json_codec! {
    enum Request in "type" {
        Submit(scenario) = "submit",
        Query { id } = "query",
        Ping { nonce = 0 } = "ping",
        Stats = "stats",
        Drain = "drain",
    }
}

/// Service counters, as reported by a `stats` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsBody {
    /// Submissions admitted to the job queue.
    pub accepted: u64,
    /// Submissions refused by admission control (`SC028`).
    pub rejected: u64,
    /// Submissions load-shed by the full queue (`SC029`).
    pub shed: u64,
    /// Jobs that reached a terminal record this process lifetime.
    pub completed: u64,
    /// Jobs cancelled because their client disconnected first.
    pub cancelled: u64,
    /// Pending jobs recovered from the journal at startup.
    pub recovered: u64,
    /// Jobs served byte-identically from the verified result cache.
    pub cache_hits: u64,
    /// Cache-eligible jobs that had to simulate.
    pub cache_misses: u64,
    /// Jobs currently queued.
    pub queued: u64,
    /// Jobs currently being executed by a worker.
    pub inflight: u64,
    /// Whether the service is draining.
    pub draining: bool,
}

tracefmt::json_codec! {
    struct StatsBody {
        accepted,
        rejected,
        shed,
        completed,
        cancelled,
        recovered,
        cache_hits,
        cache_misses,
        queued,
        inflight,
        draining,
    }
}

/// One reply line from the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Connection greeting carrying the wire format version.
    Hello {
        /// [`SERVE_FORMAT`].
        serve_format: u64,
    },
    /// The submission passed admission and was journaled + queued.
    Accepted {
        /// Scenario id of the submission.
        id: String,
        /// Server-assigned monotonic job number.
        job: u64,
        /// Queue depth at admission (including this job).
        queued: u64,
    },
    /// The submission was refused by admission control.
    Rejected {
        /// Scenario id of the submission.
        id: String,
        /// Summary line.
        error: String,
        /// The SC diagnostics ([`mpisim::Diagnostic`] JSON), `SC028` last.
        diagnostics: Vec<Json>,
    },
    /// The submission was load-shed by the full job queue.
    Overloaded {
        /// Scenario id of the submission.
        id: String,
        /// Jobs queued when the submission arrived.
        queued: u64,
        /// The queue's capacity.
        capacity: u64,
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
        /// The `SC029` diagnostic.
        diagnostics: Vec<Json>,
    },
    /// A job's terminal record (also the answer to a successful `query`).
    Result {
        /// The persisted record, byte-identical to a sweep's.
        record: ScenarioResult,
    },
    /// A `query` for an id with no terminal record (unknown, queued, or
    /// still running).
    NoResult {
        /// The queried id.
        id: String,
    },
    /// Answer to a `ping`.
    Pong {
        /// The request's nonce, echoed.
        nonce: u64,
    },
    /// Answer to a `stats` request.
    Stats(StatsBody),
    /// The service is draining and accepts no new submissions.
    Draining,
    /// A protocol-level error (malformed/oversized/unknown input line).
    Error {
        /// Human-readable reason.
        error: String,
    },
}

tracefmt::json_codec! {
    enum Reply in "type" {
        Hello { serve_format } = "hello",
        Accepted { id, job, queued } = "accepted",
        Rejected { id, error, diagnostics } = "rejected",
        Overloaded { id, queued, capacity, retry_after_ms, diagnostics } = "overloaded",
        Result { record } = "result",
        NoResult { id } = "no-result",
        Pong { nonce } = "pong",
        Stats(stats) = "stats",
        Draining = "draining",
        Error { error } = "error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{RunSummary, ScenarioStatus};
    use mpisim::SimConfig;
    use netmodel::presets;
    use tracefmt::json;
    use workload::{Boundary, CommPattern, Direction};

    fn scenario() -> Scenario {
        Scenario::new(
            "p1",
            SimConfig::baseline(
                presets::loggopsim_like(4),
                CommPattern::next_neighbor(Direction::Unidirectional, Boundary::Periodic),
                3,
            ),
        )
    }

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        for req in [
            Request::Submit(Box::new(scenario())),
            Request::Query { id: "p1".into() },
            Request::Ping { nonce: 7 },
            Request::Stats,
            Request::Drain,
        ] {
            let line = json::to_string(&req);
            assert_eq!(parse_request(&line).expect("round trip"), req);
        }
    }

    #[test]
    fn bad_request_lines_yield_reportable_errors() {
        assert!(parse_request("{oops")
            .expect_err("malformed")
            .contains("malformed JSON"));
        assert!(parse_request("{\"nope\":1}")
            .expect_err("untyped")
            .contains("no \"type\""));
        assert!(parse_request("{\"type\":\"frobnicate\"}")
            .expect_err("unknown")
            .contains("unknown record type 'frobnicate'"));
        assert!(
            parse_request("{\"type\":\"submit\",\"scenario\":{\"id\":3}}")
                .expect_err("bad scenario")
                .contains("Request::Submit.scenario: Scenario.id: expected string")
        );
        assert!(parse_request("{\"type\":\"query\"}")
            .expect_err("query without id")
            .contains("missing key 'id' in Request::Query"));
        assert_eq!(
            parse_request("{\"type\":\"ping\",\"nonse\":1}").expect_err("typo"),
            "unknown key 'nonse' in Request::Ping (did you mean 'nonce'?)"
        );
        assert_eq!(
            parse_request("{\"type\":\"ping\",\"type\":\"ping\"}").expect_err("twice"),
            "duplicate key 'type' in Request"
        );
    }

    #[test]
    fn replies_round_trip_including_the_result_record() {
        let record = ScenarioResult {
            id: "p1".into(),
            status: ScenarioStatus::Ok,
            attempts: 1,
            error: None,
            summary: Some(RunSummary {
                runtime_ns: 10,
                events: 20,
                messages: 30,
                retransmissions: 0,
                dropped: 0,
                corrupted: 0,
                trace_fingerprint: 0xfeed,
            }),
            config_fingerprint: Some(0xbeef),
        };
        let replies = vec![
            Reply::Hello {
                serve_format: SERVE_FORMAT,
            },
            Reply::Accepted {
                id: "p1".into(),
                job: 3,
                queued: 2,
            },
            Reply::Rejected {
                id: "p1".into(),
                error: "no".into(),
                diagnostics: vec![Json::obj(vec![("code", Json::Str("SC028".into()))])],
            },
            Reply::Overloaded {
                id: "p1".into(),
                queued: 8,
                capacity: 8,
                retry_after_ms: 250,
                diagnostics: vec![],
            },
            Reply::Result { record },
            Reply::NoResult { id: "p9".into() },
            Reply::Pong { nonce: 7 },
            Reply::Stats(StatsBody {
                accepted: 1,
                draining: true,
                ..Default::default()
            }),
            Reply::Draining,
            Reply::Error {
                error: "unknown record type 'x'".into(),
            },
        ];
        for reply in replies {
            let line = json::to_string(&reply);
            let back = Reply::from_json(&Json::parse(&line).expect("parses")).expect("decodes");
            assert_eq!(back, reply, "{line}");
        }
    }
}
