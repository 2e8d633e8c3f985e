//! The `serve-mixed` workload: an in-process `wavesim serve` driven over
//! TCP by an open-loop generator on one persistent connection.
//!
//! Submissions go out on a fixed schedule whether or not earlier ones
//! have finished (independent users), so a stall shows as latency of the
//! requests behind it. Each request is timed from when it was *due*, and
//! the generator's own lateness is reported as `loadgen.lag_p99_ms`; a
//! run whose generator fell behind its schedule is refused instead of
//! reported.
//!
//! The traffic follows the serve population `crates/bench` times for its
//! `serve-cold` and `serve-warm` rows: populations of 48 jobs of its job
//! shape on one connection, each population submitted once fresh and once
//! again (see [`gen::serve_jobs`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use idlewave::serve::client::ServeClient;
use idlewave::serve::protocol::{Reply, Request};
use idlewave::serve::{run_serve, ServeOptions, ServeReport};
use idlewave::sweep::{Scenario, ScenarioResult};
use mpisim::{config_fingerprint, EnginePools};
use tracefmt::json::{self, FromJson, Json};
use tracefmt::{fnv1a_64, wire};

use crate::gen;
use crate::layers;
use crate::measure::{median, ms, peak_rss_mib, quantile, Spans};
use crate::report::Outcome;
use crate::{Params, Run, SERVE_SETUPS, WORKERS};

/// Offered rate of the measured fixed-rate phase, requests per second:
/// about a quarter of the 857 req/s `BENCH_3.json` records for the
/// bench's 48-job serve burst on one connection, so the service runs well
/// below saturation and the phase measures latency, not a growing queue.
pub const FIXED_RATE: f64 = 200.0;
/// The output pin covers the records of the measured phase's first this
/// many jobs (fewer in a shorter run).
const PIN_JOBS: usize = 1000;
/// How often the generator samples the server's `stats` and pings it.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// Unmeasured submissions before the first phase.
const WARMUP_JOBS: usize = 40;
/// The generator counts as fallen behind its schedule, and the run is
/// refused, when its median lateness exceeds this: the offered load is
/// then no longer [`FIXED_RATE`]. Single late sends do not count, as a
/// request's latency is timed from its due time and includes them.
const MAX_LAG_P50_MS: f64 = 1.0;
/// Longest wait for any reply before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Ping nonce that marks the end of a phase's submissions.
const END_OF_PHASE: u64 = u64::MAX;

/// An in-process `wavesim serve` with a fresh journal and cache.
struct Server {
    addr: String,
    shutdown: Arc<AtomicBool>,
    join: Option<JoinHandle<std::io::Result<ServeReport>>>,
}

impl Server {
    fn start(dir: &Path) -> Result<Server, String> {
        let opts = ServeOptions {
            dir: dir.join("state"),
            threads: WORKERS,
            cache_dir: Some(dir.join("cache")),
            ..ServeOptions::default()
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let (tx, rx) = mpsc::channel();
        let join = std::thread::spawn(move || {
            run_serve(&opts, &flag, |addr| {
                let _ = tx.send(addr.to_string());
            })
        });
        let mut server = Server {
            addr: String::new(),
            shutdown,
            join: Some(join),
        };
        server.addr = rx
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|e| format!("serve never became ready: {e}"))?;
        Ok(server)
    }

    /// Drain the service and return its lifetime report.
    fn stop(mut self) -> Result<ServeReport, String> {
        self.shutdown.store(true, Ordering::SeqCst);
        let join = self.join.take().expect("joined once");
        join.join()
            .map_err(|_| "serve panicked".to_string())?
            .map_err(|e| format!("serve failed: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// The generator's persistent connection, split into its two halves.
struct LoadConn {
    reader: wire::LineReader<TcpStream>,
    writer: TcpStream,
}

impl LoadConn {
    fn open(addr: &str) -> Result<LoadConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        // The generator writes each request in one call; Nagle would
        // only add its own delay to the measurement.
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        let mut conn = LoadConn {
            reader: wire::LineReader::new(stream, wire::DEFAULT_MAX_LINE_BYTES),
            writer,
        };
        match next_reply(&mut conn.reader)? {
            Reply::Hello { .. } => Ok(conn),
            other => Err(format!("expected hello, got {other:?}")),
        }
    }
}

fn next_reply(reader: &mut wire::LineReader<TcpStream>) -> Result<Reply, String> {
    let line = match reader.next_line() {
        Ok(Some(Ok(line))) => line,
        Ok(Some(Err(e))) => return Err(format!("reply framing: {e}")),
        Ok(None) => return Err("server closed the connection".to_string()),
        Err(e) => return Err(format!("reading replies: {e}")),
    };
    Json::parse(&line)
        .and_then(|v| Reply::from_json(&v))
        .map_err(|e| format!("bad reply line: {}", e.0))
}

fn line_of(req: &Request) -> Vec<u8> {
    let mut line = json::to_string(req).into_bytes();
    line.push(b'\n');
    line
}

/// What the receiver saw during one phase.
#[derive(Default)]
struct Received {
    accepted: Vec<Option<Instant>>,
    result: Vec<Option<Instant>>,
    records: Vec<ScenarioResult>,
    rejected: u64,
    shed: u64,
    queued: Vec<u64>,
    rtt_us: Vec<f64>,
}

/// Read replies until every job is terminal and the end-of-phase pong
/// has arrived.
fn receive(
    reader: &mut wire::LineReader<TcpStream>,
    index: &BTreeMap<&str, usize>,
    t0: Instant,
) -> Result<Received, String> {
    let n = index.len();
    let mut got = Received {
        accepted: vec![None; n],
        result: vec![None; n],
        ..Received::default()
    };
    let slot = |id: &str| {
        index
            .get(id)
            .copied()
            .ok_or_else(|| format!("reply for unknown id '{id}'"))
    };
    let (mut terminal, mut ended) = (0, false);
    while terminal < n || !ended {
        let reply = next_reply(reader)?;
        let now = Instant::now(); // simlint: allow(wall-clock)
        match reply {
            Reply::Accepted { id, .. } => got.accepted[slot(&id)?] = Some(now),
            Reply::Result { record } => {
                got.result[slot(&record.id)?] = Some(now);
                got.records.push(record);
                terminal += 1;
            }
            Reply::Rejected { id, .. } => {
                slot(&id)?;
                got.rejected += 1;
                terminal += 1;
            }
            Reply::Overloaded { id, .. } => {
                slot(&id)?;
                got.shed += 1;
                terminal += 1;
            }
            Reply::Stats(body) => got.queued.push(body.queued),
            Reply::Pong { nonce } if nonce == END_OF_PHASE => ended = true,
            Reply::Pong { nonce } => {
                let sent = t0 + Duration::from_nanos(nonce);
                got.rtt_us
                    .push(now.saturating_duration_since(sent).as_secs_f64() * 1e6);
            }
            other => return Err(format!("unexpected reply {other:?}")),
        }
    }
    Ok(got)
}

/// Send every job on schedule, sampling `stats` and pinging in between.
/// Returns each job's send instant.
fn send(
    writer: &mut TcpStream,
    lines: &[Vec<u8>],
    t0: Instant,
    period: Duration,
) -> std::io::Result<Vec<Instant>> {
    let stats = line_of(&Request::Stats);
    let mut sent = Vec::with_capacity(lines.len());
    let mut next_sample = t0;
    for (i, line) in lines.iter().enumerate() {
        let due = t0 + period.mul_f64(i as f64);
        let now = Instant::now(); // simlint: allow(wall-clock)
        if due > now {
            std::thread::sleep(due - now);
        }
        let at = Instant::now(); // simlint: allow(wall-clock)
        writer.write_all(line)?;
        sent.push(at);
        if at >= next_sample {
            let nonce = u64::try_from(Instant::now().duration_since(t0).as_nanos()) // simlint: allow(wall-clock)
                .unwrap_or(END_OF_PHASE - 1);
            writer.write_all(&stats)?;
            writer.write_all(&line_of(&Request::Ping { nonce }))?;
            next_sample += SAMPLE_EVERY;
        }
    }
    writer.write_all(&line_of(&Request::Ping {
        nonce: END_OF_PHASE,
    }))?;
    Ok(sent)
}

/// One open-loop phase at a fixed offered rate.
struct Phase {
    jobs: Vec<Scenario>,
    t0: Instant,
    period: Duration,
    sent: Vec<Instant>,
    got: Received,
}

impl Phase {
    fn run(conn: &mut LoadConn, jobs: &[Scenario], rate: f64) -> Result<Phase, String> {
        let lines: Vec<Vec<u8>> = jobs
            .iter()
            .map(|s| line_of(&Request::Submit(Box::new(s.clone()))))
            .collect();
        let index: BTreeMap<&str, usize> = jobs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id.as_str(), i))
            .collect();
        let period = Duration::from_secs_f64(1.0 / rate);
        let t0 = Instant::now() + Duration::from_millis(2); // simlint: allow(wall-clock)
        let LoadConn { reader, writer } = conn;
        let (sent, got) = std::thread::scope(|scope| {
            let receiver = scope.spawn(|| receive(reader, &index, t0));
            let sent = send(writer, &lines, t0, period);
            if sent.is_err() {
                // Unblock the receiver: no more replies are coming.
                let _ = writer.shutdown(std::net::Shutdown::Both);
            }
            let got = receiver
                .join()
                .unwrap_or_else(|_| Err("receiver panicked".to_string()));
            (sent, got)
        });
        Ok(Phase {
            jobs: jobs.to_vec(),
            t0,
            period,
            sent: sent.map_err(|e| format!("sending submissions: {e}"))?,
            got: got?,
        })
    }

    fn due(&self, i: usize) -> Instant {
        self.t0 + self.period.mul_f64(i as f64)
    }

    /// Due-to-result latency of every completed job, ms.
    fn latencies_ms(&self) -> Vec<f64> {
        (0..self.jobs.len())
            .filter_map(|i| {
                Some(ms(
                    self.got.result[i]?.saturating_duration_since(self.due(i))
                ))
            })
            .collect()
    }

    fn lag_ms(&self) -> Vec<f64> {
        (0..self.jobs.len())
            .map(|i| ms(self.sent[i].saturating_duration_since(self.due(i))))
            .collect()
    }

    fn failures(&self) -> u64 {
        self.got.rejected + self.got.shed
    }

    /// Record the phase's spans: each request from due to result, split
    /// into generator lag, submit-to-accepted and accepted-to-result.
    fn record_spans(&self, spans: &mut Spans) {
        for (i, s) in self.jobs.iter().enumerate() {
            let (Some(acc), Some(res)) = (self.got.accepted[i], self.got.result[i]) else {
                continue;
            };
            let root = spans.push("serve.request", self.due(i), res, None, &s.id);
            spans.push("loadgen.lag", self.due(i), self.sent[i], Some(root), &s.id);
            spans.push(
                "serve.submit_to_accepted",
                self.sent[i],
                acc,
                Some(root),
                &s.id,
            );
            spans.push("serve.accepted_to_result", acc, res, Some(root), &s.id);
        }
    }

    /// FNV-1a of the records of the phase's first `n` jobs, sorted by
    /// id. Job lists are generated sequentially, so the first `n` jobs of
    /// a stream are the same whatever the phase's length.
    fn records_fnv(&self, n: usize) -> u64 {
        let first: std::collections::BTreeSet<&str> =
            self.jobs.iter().take(n).map(|s| s.id.as_str()).collect();
        let mut records: Vec<&ScenarioResult> = self
            .got
            .records
            .iter()
            .filter(|r| first.contains(r.id.as_str()))
            .collect();
        records.sort_by(|a, b| a.id.cmp(&b.id));
        let mut bytes = Vec::new();
        for r in records {
            bytes.extend_from_slice(json::to_string(r).as_bytes());
            bytes.push(b'\n');
        }
        fnv1a_64(&bytes)
    }

    /// Correctness gate: every record is `ok`, jobs that share a config
    /// got identical summaries (cache hit or not), and a seeded sample
    /// matches a direct full-trace `mpisim` run.
    fn check(&self, seed: u64) -> Result<(), String> {
        let configs: BTreeMap<&str, &Scenario> =
            self.jobs.iter().map(|s| (s.id.as_str(), s)).collect();
        let mut by_config = BTreeMap::new();
        for r in &self.got.records {
            let summary = match (&r.summary, r.is_ok()) {
                (Some(s), true) => s,
                _ => return Err(format!("serve record '{}' is not ok: {r:?}", r.id)),
            };
            let fp = config_fingerprint(&configs[r.id.as_str()].config);
            if *by_config.entry(fp).or_insert(summary) != summary {
                return Err(format!(
                    "'{}': a repeated config got a different summary",
                    r.id
                ));
            }
        }
        let n = self.got.records.len();
        for k in 0..n.min(2) {
            let r = &self.got.records[(seed as usize + k * n / 2) % n];
            let (fingerprint, events) = layers::reference_run(&configs[r.id.as_str()].config)?;
            let summary = r.summary.as_ref().expect("checked ok above");
            if (summary.trace_fingerprint, summary.events) != (fingerprint, events) {
                return Err(format!(
                    "'{}': serve record has fingerprint {:#x} / {} events, a direct run {:#x} / {}",
                    r.id, summary.trace_fingerprint, summary.events, fingerprint, events
                ));
            }
        }
        Ok(())
    }
}

/// Saturation: back-to-back bursts of one [`gen::POPULATION`] on the load
/// connection until `secs` have passed. A burst submits the whole
/// population and then reads every result, as the bench's serve rows do;
/// bursts alternate between a fresh population and its re-run, as the
/// fixed-rate phase does. Returns completions per second and the records.
fn saturate(
    conn: &mut LoadConn,
    seed: u64,
    secs: f64,
) -> Result<(f64, Vec<ScenarioResult>), String> {
    let mut records = Vec::new();
    let t0 = Instant::now(); // simlint: allow(wall-clock)
    let deadline = t0 + Duration::from_secs_f64(secs);
    let mut block = 0u64;
    // simlint: allow(wall-clock)
    while Instant::now() < deadline {
        let prefix = format!("sat{block}");
        let jobs = gen::serve_jobs(seed, 100 + block, 2 * gen::POPULATION, &prefix).0;
        for burst in jobs.chunks(gen::POPULATION) {
            for job in burst {
                conn.writer
                    .write_all(&line_of(&Request::Submit(Box::new(job.clone()))))
                    .map_err(|e| format!("sending submissions: {e}"))?;
            }
            let mut done = 0;
            while done < burst.len() {
                match next_reply(&mut conn.reader)? {
                    Reply::Accepted { .. } => {}
                    Reply::Result { record } => {
                        records.push(record);
                        done += 1;
                    }
                    other => return Err(format!("saturation phase: unexpected reply {other:?}")),
                }
            }
        }
        block += 1;
    }
    let rate = records.len() as f64 / t0.elapsed().as_secs_f64();
    Ok((rate, records))
}

/// The inputs of the fixed-rate phases, built during set-up.
struct Inputs {
    warmup: Vec<Scenario>,
    fixed: Vec<Scenario>,
    repeat_share: f64,
}

fn inputs(p: &Params, phase_secs: f64) -> Inputs {
    let warmup = gen::serve_jobs(p.seed, 0, WARMUP_JOBS, "warm").0;
    let n = (FIXED_RATE * phase_secs).ceil() as usize;
    let (fixed, repeat_share) = gen::serve_jobs(p.seed, 1, n, "job");
    Inputs {
        warmup,
        fixed,
        repeat_share,
    }
}

/// Run the serve workload for about `p.seconds`: 60 % at the fixed rate,
/// the rest in saturation. A traced run does the same and then its trace
/// work, timed as [`Run::trace_work`].
pub fn run(p: &Params, work: &Path) -> Result<Run, String> {
    let phase_secs = p.seconds * 0.6;
    let mut setup = Vec::new();
    let mut connect_ms = Vec::new();
    let mut live = None;
    for k in 0..SERVE_SETUPS {
        if let Some((server, _)) = live.take() {
            Server::stop(server)?;
        }
        let t = Instant::now(); // simlint: allow(wall-clock)
        let inputs = inputs(p, phase_secs);
        let dir = work.join(format!("serve-{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let server = Server::start(&dir)?;
        let c = Instant::now(); // simlint: allow(wall-clock)
        let client = ServeClient::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        connect_ms.push(ms(c.elapsed()));
        setup.push(t.elapsed().as_secs_f64());
        drop(client);
        live = Some((server, inputs));
    }
    let (server, inputs) = live.expect("at least one set-up");
    let mut conn = LoadConn::open(&server.addr)?;
    let warm = Phase::run(&mut conn, &inputs.warmup, FIXED_RATE)?;
    warm.check(p.seed)?;

    let fixed = Phase::run(&mut conn, &inputs.fixed, FIXED_RATE)?;
    let (saturation, saturation_records) = saturate(&mut conn, p.seed, p.seconds - phase_secs)?;
    drop(conn);
    let report = server.stop()?;

    fixed.check(p.seed)?;
    if let Some(bad) = saturation_records.iter().find(|r| !r.is_ok()) {
        return Err(format!("saturation record '{}' is not ok: {bad:?}", bad.id));
    }
    let lag = fixed.lag_ms();
    let (lag_p50, lag_p99) = (median(&lag), quantile(&lag, 0.99));
    if lag_p50 > MAX_LAG_P50_MS {
        return Err(format!(
            "the generator fell behind its schedule (lag p50 {lag_p50:.2} ms > \
             {MAX_LAG_P50_MS} ms); the offered rate was not {FIXED_RATE} req/s"
        ));
    }
    let latencies = fixed.latencies_ms();
    let mut out = Outcome {
        attempted: fixed.jobs.len() as u64,
        failed: fixed.failures(),
        ..Outcome::default()
    };
    out.set("scenarios_per_s", saturation);
    out.set("setup_s", median(&setup));
    out.set("latency_p50_ms", median(&latencies));
    out.set("latency_p99_ms", quantile(&latencies, 0.99));
    out.set("peak_rss_mib", peak_rss_mib()?);

    let mut spans = Spans::new(fixed.t0);
    let trace_start = Instant::now(); // simlint: allow(wall-clock)
    if p.trace {
        fixed.record_spans(&mut spans);
        let mut pools = EnginePools::new();
        let mut counts = layers::Counts::default();
        for s in fixed.jobs.iter().take(64) {
            layers::probe(&mut spans, s, &mut pools, &mut counts)?;
        }
        layers::report(&spans, &counts, &pools, &mut out);
        let us = |name: &str| median(&spans.self_of(name)) / 1e3;
        let stats = &report.stats;
        out.set("serve.connect_ms", median(&connect_ms));
        out.set("serve.ping_rtt_us", median(&fixed.got.rtt_us));
        out.set(
            "serve.submit_to_accepted_us",
            us("serve.submit_to_accepted"),
        );
        out.set(
            "serve.accepted_to_result_ms",
            us("serve.accepted_to_result") / 1e3,
        );
        out.set(
            "serve.queued_max",
            fixed.got.queued.iter().copied().max().unwrap_or(0) as f64,
        );
        out.set(
            "serve.cache_hit_ratio",
            stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
        );
        out.set("serve.shed", stats.shed as f64);
        out.set("serve.rejected", stats.rejected as f64);
        out.set("loadgen.lag_p99_ms", lag_p99);
        out.set("loadgen.latency_samples", latencies.len() as f64);
        out.set("loadgen.repeat_share", inputs.repeat_share);
    }
    let trace_work = trace_start.elapsed();
    let pin = fixed.records_fnv(PIN_JOBS);
    eprintln!(
        "perfbench serve-mixed: {} jobs at {FIXED_RATE} rps, p50 {:.3} ms, p99 {:.3} ms \
         ({} samples), lag p50 {lag_p50:.3} ms p99 {lag_p99:.3} ms, saturation {:.1} jobs/s, \
         records fnv {}",
        fixed.jobs.len(),
        median(&latencies),
        quantile(&latencies, 0.99),
        latencies.len(),
        saturation,
        pin
    );
    Ok(Run {
        pin,
        pin_count: fixed.jobs.len().min(PIN_JOBS),
        outcome: out,
        spans,
        trace_work,
    })
}
