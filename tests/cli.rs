//! Integration tests for the `wavesim` CLI binary.

use std::process::Command;

fn wavesim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wavesim"))
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wavesim-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmpdir");
    dir
}

#[test]
fn runs_a_basic_wave_and_reports_eq2() {
    let out = wavesim()
        .args([
            "--ranks", "10", "--steps", "12", "--inject", "3:0:9", "--seed", "1",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total runtime"), "{text}");
    assert!(text.contains("ratio 1.000"), "Eq. 2 should hold: {text}");
}

#[test]
fn ascii_timeline_shows_the_wave() {
    let out = wavesim()
        .args(["--ranks", "8", "--inject", "2:0:9", "--ascii", "--quiet"])
        .output()
        .expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains('D'), "delay marker missing:\n{text}");
    assert!(text.contains('#'), "wait marker missing:\n{text}");
}

#[test]
fn writes_svg_and_csv_outputs() {
    let dir = tmpdir("outputs");
    let svg = dir.join("wave.svg");
    let csv = dir.join("trace.csv");
    let out = wavesim()
        .args([
            "--ranks",
            "6",
            "--steps",
            "5",
            "--inject",
            "2:0:5",
            "--quiet",
            "--svg",
            svg.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let svg_text = std::fs::read_to_string(&svg).expect("svg written");
    assert!(svg_text.starts_with("<svg") && svg_text.trim_end().ends_with("</svg>"));
    let csv_text = std::fs::read_to_string(&csv).expect("csv written");
    assert_eq!(
        csv_text.lines().count(),
        6 * 5 + 1,
        "header + one row per phase"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn dump_config_round_trips_through_config_flag() {
    let dir = tmpdir("roundtrip");
    let cfg_path = dir.join("cfg.json");
    let dump = wavesim()
        .args([
            "--ranks",
            "7",
            "--steps",
            "4",
            "--texec-ms",
            "2",
            "--protocol",
            "rendezvous",
            "--direction",
            "bi",
            "--boundary",
            "periodic",
            "--inject",
            "3:1:4",
            "--seed",
            "9",
            "--dump-config",
        ])
        .output()
        .expect("binary runs");
    assert!(dump.status.success());
    std::fs::write(&cfg_path, &dump.stdout).expect("write config");

    // Run from flags and from the dumped config: identical summaries.
    let from_flags = wavesim()
        .args([
            "--ranks",
            "7",
            "--steps",
            "4",
            "--texec-ms",
            "2",
            "--protocol",
            "rendezvous",
            "--direction",
            "bi",
            "--boundary",
            "periodic",
            "--inject",
            "3:1:4",
            "--seed",
            "9",
        ])
        .output()
        .expect("binary runs");
    let from_config = wavesim()
        .args(["--config", cfg_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(from_config.status.success());
    assert_eq!(
        from_flags.stdout, from_config.stdout,
        "config round trip must be exact"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn bad_flags_exit_with_code_2() {
    for bad in [
        vec!["--bogus"],
        vec!["--ranks"],
        vec!["--inject", "nonsense"],
        vec!["--direction", "sideways"],
        vec!["--protocol", "telepathy"],
    ] {
        let out = wavesim().args(&bad).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "args {bad:?} should fail");
        assert!(!out.stderr.is_empty());
    }
}

#[test]
fn analyze_calibrate_auto_tracks_the_latest_committed_bench() {
    // `auto` resolves BENCH_<n>.json with the highest n from the current
    // directory — run from the workspace root where they are committed.
    let out = wavesim()
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args([
            "analyze",
            "--ranks",
            "64",
            "--steps",
            "8",
            "--calibrate",
            "auto",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"schema\":\"budget-report-v1\""), "{text}");
    assert!(
        !text.contains("\"events_per_sec\":null"),
        "auto calibration must fill in the wall-time prediction: {text}"
    );
    // Resolution matches the bench crate's own latest-generation rule.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let latest = bench::throughput::latest_bench_file(root).expect("committed BENCH files present");
    let report = bench::throughput::validate(&std::fs::read_to_string(&latest).expect("readable"))
        .expect("valid committed bench report");
    let eps = bench::throughput::events_per_sec_for(&report, 64).expect("usable scenario");
    assert!(
        text.contains(&format!("\"events_per_sec\":{eps:?}")),
        "expected calibration {eps} from {latest:?} in: {text}"
    );

    // In a directory without BENCH files, `auto` is a usage error.
    let out = wavesim()
        .current_dir(tmpdir("no-bench"))
        .args(["analyze", "--ranks", "8", "--calibrate", "auto"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no BENCH_"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = wavesim().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn invalid_config_exits_3_with_a_json_error_record() {
    let out = wavesim()
        .args(["--ranks", "8", "--msg-bytes", "0", "--quiet"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    // One single-line machine-readable record, no panic backtrace.
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let record = idle_waves::tracefmt::json::Json::parse(stderr.trim()).expect("valid JSON");
    let text = idle_waves::tracefmt::json::to_string(&record);
    assert!(text.contains("\"tool\":\"wavesim\""), "{text}");
    assert!(text.contains("SC004"), "{text}");
}

#[test]
fn deeply_nested_config_json_fails_cleanly() {
    let dir = tmpdir("nested");
    let path = dir.join("nested.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write config");
    let out = wavesim()
        .args(["analyze", "--config"])
        .arg(&path)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // A clean non-zero exit with a named json error, not a signal (the
    // stack-overflow abort exits 134 / SIGABRT).
    assert!(matches!(out.status.code(), Some(c) if c != 0), "{stderr}");
    assert!(!stderr.contains("overflowed its stack"), "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_subcommand_runs_resumes_and_reports() {
    let dir = tmpdir("sweep");
    let scenarios_path = dir.join("scenarios.json");
    let out_path = dir.join("results.jsonl");

    // Build two scenarios around a dumped config: one sound, one chaos
    // panic. Hand-assembling the JSON keeps this test independent of the
    // library's serializer.
    let dump = wavesim()
        .args([
            "--ranks",
            "6",
            "--steps",
            "4",
            "--texec-ms",
            "1",
            "--dump-config",
        ])
        .output()
        .expect("binary runs");
    assert!(dump.status.success());
    let cfg = String::from_utf8_lossy(&dump.stdout);
    let scenarios = format!(
        "[{{\"id\":\"good\",\"config\":{cfg}}},\
          {{\"id\":\"boom\",\"config\":{cfg},\"chaos\":\"Panic\"}}]"
    );
    std::fs::write(&scenarios_path, scenarios).expect("write scenarios");

    let run = wavesim()
        .args([
            "sweep",
            "--scenarios",
            scenarios_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    // The panicking scenario fails, the sweep itself still completes.
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("2 scenarios, 1 ok, 1 failed"), "{stdout}");
    let results = std::fs::read_to_string(&out_path).expect("results written");
    // Header line with the config fingerprints, then one record each.
    assert_eq!(results.lines().count(), 3);
    assert!(results.starts_with("{\"sweep_format\":"), "{results}");
    assert!(results.contains("\"id\":\"good\""));
    assert!(results.contains("\"status\":\"panic\""));

    // Resume: both records exist, nothing re-runs, same exit code.
    let resume = wavesim()
        .args([
            "sweep",
            "--scenarios",
            scenarios_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(resume.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&resume.stdout).contains("2 reused"),
        "{resume:?}"
    );
    assert_eq!(
        std::fs::read_to_string(&out_path)
            .expect("results readable")
            .lines()
            .count(),
        3,
        "resume must not duplicate records"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn checkpoint_then_restore_reproduces_the_full_run() {
    let dir = tmpdir("ckpt-restore");
    let full_csv = dir.join("full.csv");
    let resumed_csv = dir.join("resumed.csv");
    let ckpt = dir.join("snaps").join("wavesim.ckpt");
    // Checkpointed run: the last snapshot written mid-run stays on disk.
    let run = wavesim()
        .args([
            "--ranks",
            "10",
            "--steps",
            "8",
            "--inject",
            "3:1:5",
            "--seed",
            "7",
            "--quiet",
            "--checkpoint-dir",
            dir.join("snaps").to_str().unwrap(),
            "--checkpoint-every",
            "50ev",
            "--csv",
            full_csv.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(ckpt.exists(), "no snapshot was written");
    assert!(
        !ckpt.with_extension("tmp").exists(),
        "temp file left behind by the atomic write"
    );
    // Restore from the snapshot: the completed trace must be identical
    // to the uninterrupted run, down to the CSV bytes.
    let restore = wavesim()
        .args([
            "--restore",
            ckpt.to_str().unwrap(),
            "--quiet",
            "--csv",
            resumed_csv.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        restore.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&restore.stderr)
    );
    assert_eq!(
        std::fs::read(&full_csv).expect("full csv"),
        std::fs::read(&resumed_csv).expect("resumed csv"),
        "restored run diverged from the uninterrupted one"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn restore_with_a_mismatched_config_exits_3_with_rt005() {
    let dir = tmpdir("ckpt-mismatch");
    // Produce a snapshot with one config...
    let run = wavesim()
        .args([
            "--ranks",
            "8",
            "--steps",
            "6",
            "--seed",
            "1",
            "--quiet",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            "--checkpoint-every",
            "50ev",
        ])
        .output()
        .expect("binary runs");
    assert!(run.status.success());
    // ...and a config file for a different one.
    let dump = wavesim()
        .args([
            "--ranks",
            "8",
            "--steps",
            "6",
            "--seed",
            "2",
            "--dump-config",
        ])
        .output()
        .expect("binary runs");
    let cfg_path = dir.join("other.json");
    std::fs::write(&cfg_path, &dump.stdout).expect("write config");
    let out = wavesim()
        .args([
            "--restore",
            dir.join("wavesim.ckpt").to_str().unwrap(),
            "--config",
            cfg_path.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"tool\":\"wavesim\""), "{stderr}");
    assert!(stderr.contains("RT005"), "{stderr}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn sweep_resume_with_a_changed_config_exits_3() {
    let dir = tmpdir("sweep-mismatch");
    let scenarios_path = dir.join("scenarios.json");
    let out_path = dir.join("results.jsonl");
    let cfg_for = |seed: &str| {
        let dump = wavesim()
            .args([
                "--ranks",
                "6",
                "--steps",
                "4",
                "--seed",
                seed,
                "--dump-config",
            ])
            .output()
            .expect("binary runs");
        assert!(dump.status.success());
        String::from_utf8_lossy(&dump.stdout).into_owned()
    };
    let write_scenarios = |cfg: &str| {
        std::fs::write(
            &scenarios_path,
            format!("[{{\"id\":\"only\",\"config\":{cfg}}}]"),
        )
        .expect("write scenarios");
    };
    write_scenarios(&cfg_for("1"));
    let first = wavesim()
        .args([
            "sweep",
            "--scenarios",
            scenarios_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(first.status.success(), "{first:?}");
    // Same scenario id, different seed: resuming against the old results
    // file must refuse rather than silently mix two experiments.
    write_scenarios(&cfg_for("2"));
    let resume = wavesim()
        .args([
            "sweep",
            "--scenarios",
            scenarios_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(resume.status.code(), Some(3), "{resume:?}");
    let stderr = String::from_utf8_lossy(&resume.stderr);
    assert!(stderr.contains("\"tool\":\"wavesim\""), "{stderr}");
    assert!(stderr.contains("config fingerprint"), "{stderr}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn killed_sweep_resumes_to_the_same_results() {
    use idle_waves::idlewave::sweep::load_results;

    let dir = tmpdir("kill-resume");
    let scenarios_path = dir.join("scenarios.json");
    let killed_out = dir.join("killed.jsonl");
    let control_out = dir.join("control.jsonl");
    let snap_dir = dir.join("snaps");
    // A deliberately long run so the kill lands mid-scenario.
    let dump = wavesim()
        .args([
            "--ranks",
            "40",
            "--steps",
            "400",
            "--texec-ms",
            "1",
            "--inject",
            "9:3:8",
            "--seed",
            "5",
            "--dump-config",
        ])
        .output()
        .expect("binary runs");
    assert!(dump.status.success());
    let cfg = String::from_utf8_lossy(&dump.stdout);
    std::fs::write(
        &scenarios_path,
        format!("[{{\"id\":\"long\",\"config\":{cfg}}}]"),
    )
    .expect("write scenarios");

    let sweep_args = |out: &std::path::Path| {
        vec![
            "sweep".to_string(),
            "--scenarios".into(),
            scenarios_path.to_str().unwrap().into(),
            "--out".into(),
            out.to_str().unwrap().into(),
            "--threads".into(),
            "1".into(),
            "--checkpoint-dir".into(),
            snap_dir.to_str().unwrap().into(),
            "--checkpoint-every".into(),
            "500ev".into(),
            "--quiet".into(),
        ]
    };

    // Uninterrupted control run (its own snapshot dir stays clean: the
    // sweep garbage-collects snapshots of completed scenarios).
    let control = wavesim()
        .args(sweep_args(&control_out))
        .output()
        .expect("binary runs");
    assert!(control.status.success(), "{control:?}");

    // Start the sweep, wait until it has written at least one snapshot
    // (proof it is mid-scenario), then kill it without warning.
    let mut child = wavesim()
        .args(sweep_args(&killed_out))
        .spawn()
        .expect("binary starts");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let snapshot_seen = loop {
        if std::fs::read_dir(&snap_dir)
            .map(|d| d.count() > 0)
            .unwrap_or(false)
        {
            break true;
        }
        if child.try_wait().expect("poll child").is_some() || std::time::Instant::now() > deadline {
            break false; // finished before we could kill it: resume is a no-op
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    };
    child.kill().ok();
    child.wait().expect("reap child");

    // Resume and compare against the control, record by record. Parsed
    // comparison, not byte comparison: the killed file may legitimately
    // carry a torn trailing line.
    let resumed = wavesim()
        .args(
            sweep_args(&killed_out)
                .into_iter()
                .chain(["--resume".to_string()]),
        )
        .output()
        .expect("binary runs");
    assert!(resumed.status.success(), "{resumed:?}");
    let got = load_results(&killed_out).expect("killed results readable");
    let want = load_results(&control_out).expect("control results readable");
    assert_eq!(got.len(), 1, "snapshot seen: {snapshot_seen}");
    assert_eq!(got.len(), want.len());
    assert_eq!(got[0].id, want[0].id);
    assert_eq!(got[0].status, want[0].status);
    assert_eq!(
        got[0].summary.as_ref().map(|s| s.trace_fingerprint),
        want[0].summary.as_ref().map(|s| s.trace_fingerprint),
        "resumed sweep produced a different trace (snapshot seen: {snapshot_seen})"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn sweep_with_a_missing_scenarios_file_exits_3() {
    let out = wavesim()
        .args([
            "sweep",
            "--scenarios",
            "/nonexistent.json",
            "--out",
            "/tmp/x.jsonl",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"tool\":\"wavesim\""), "{stderr}");
}

#[test]
fn sweep_usage_errors_exit_2() {
    let out = wavesim()
        .args(["sweep", "--scenarios", "x.json"]) // missing --out
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn sweep_drill_passes_all_phases() {
    let dir = tmpdir("drill");
    let out = wavesim()
        .args(["sweep", "--drill", "--drill-dir", dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "drill failed:\n{stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("7/7 phases passed"), "{stdout}");
    // The SIGKILL phase must have run for real — the binary spawns
    // itself as the child, so it is never skipped here.
    assert!(stdout.contains("drill sigkill"), "{stdout}");
    assert!(!stdout.contains("skipped"), "{stdout}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn sweep_cache_serves_warm_reruns() {
    let dir = tmpdir("sweep-cache");
    let scenarios_path = dir.join("scenarios.json");
    let cold_out = dir.join("cold.jsonl");
    let warm_out = dir.join("warm.jsonl");
    let cache_dir = dir.join("cache");
    let dump = wavesim()
        .args([
            "--ranks",
            "6",
            "--steps",
            "4",
            "--texec-ms",
            "1",
            "--dump-config",
        ])
        .output()
        .expect("binary runs");
    assert!(dump.status.success());
    let cfg = String::from_utf8_lossy(&dump.stdout);
    std::fs::write(
        &scenarios_path,
        format!("[{{\"id\":\"only\",\"config\":{cfg}}}]"),
    )
    .expect("write scenarios");
    let common = [
        "sweep",
        "--scenarios",
        scenarios_path.to_str().unwrap(),
        "--cache-dir",
        cache_dir.to_str().unwrap(),
    ];
    let cold = wavesim()
        .args(common)
        .args(["--out", cold_out.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(cold.status.success(), "{cold:?}");
    assert!(
        String::from_utf8_lossy(&cold.stdout).contains("cache: 0 hits, 1 misses"),
        "{cold:?}"
    );
    let warm = wavesim()
        .args(common)
        .args(["--out", warm_out.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(warm.status.success(), "{warm:?}");
    assert!(
        String::from_utf8_lossy(&warm.stdout).contains("cache: 1 hits, 0 misses"),
        "{warm:?}"
    );
    assert_eq!(
        std::fs::read(&cold_out).expect("cold"),
        std::fs::read(&warm_out).expect("warm"),
        "cache-served report must be bit-identical"
    );
    std::fs::remove_dir_all(dir).ok();
}

// ---------------------------------------------------------------------------
// wavesim serve — error paths, isolation, and drain (docs/SERVE.md).
// ---------------------------------------------------------------------------

/// A spawned `wavesim serve` child that is SIGKILLed if a test panics
/// before its graceful shutdown, so failed assertions never leak servers.
struct ServeChild(std::process::Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

impl ServeChild {
    /// SIGTERM the server and wait for it; returns the exit code.
    fn terminate(mut self) -> Option<i32> {
        Command::new("kill")
            .args(["-TERM", &self.0.id().to_string()])
            .status()
            .expect("kill runs");
        let status = self.0.wait().expect("reap server");
        // Disarm the drop guard's second wait.
        let code = status.code();
        std::mem::forget(self);
        code
    }
}

/// Start `wavesim serve` on an ephemeral port with `extra` flags and
/// return the child plus the address from its ready record.
fn spawn_serve(dir: &std::path::Path, extra: &[&str]) -> (ServeChild, String) {
    use std::io::BufRead;
    let mut child = wavesim()
        .args(["serve", "--addr", "127.0.0.1:0", "--quiet", "--dir"])
        .arg(dir)
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("server starts");
    let stdout = child.stdout.take().expect("server stdout");
    let mut ready = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut ready)
        .expect("ready record");
    let addr = ready
        .split("\"addr\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .unwrap_or_else(|| panic!("unparseable ready record: {ready:?}"))
        .to_string();
    (ServeChild(child), addr)
}

#[test]
fn serve_replies_with_structured_errors_and_keeps_serving() {
    use idle_waves::idlewave::serve::client::ServeClient;
    use idle_waves::idlewave::serve::protocol::Reply;

    let dir = tmpdir("serve-errors");
    let (server, addr) = spawn_serve(&dir.join("state"), &["--max-line-bytes", "1024"]);
    let mut client = ServeClient::connect(&addr).expect("connect");

    // Three broken requests on one connection: each draws a structured
    // error reply, and the connection stays up throughout.
    let mut error = |line: &str| -> String {
        client.send_raw(line).expect("send");
        match client.next_reply().expect("reply") {
            Reply::Error { error } => error,
            other => panic!("expected an error reply, got {other:?}"),
        }
    };
    assert!(error("{oops").contains("malformed JSON"));
    assert!(error(&format!("{{\"pad\":\"{}\"}}", "x".repeat(2048))).contains("line exceeds"));
    assert!(error("{\"type\":\"frobnicate\"}").contains("unknown record type 'frobnicate'"));

    // The same connection still answers real requests.
    assert_eq!(client.ping(7).expect("ping"), 7);
    drop(client);
    assert_eq!(server.terminate(), Some(0), "drain must exit 0");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn serve_answers_a_deeply_nested_line_and_keeps_serving() {
    use idle_waves::idlewave::serve::client::ServeClient;
    use idle_waves::idlewave::serve::protocol::Reply;

    let dir = tmpdir("serve-nested");
    let (server, addr) = spawn_serve(&dir.join("state"), &[]);
    let mut client = ServeClient::connect(&addr).expect("connect");

    // Under the default 1 MiB line bound, so it reaches the JSON parser:
    // unbounded recursion there would overflow the server's stack.
    client.send_raw(&"[".repeat(200_000)).expect("send");
    match client.next_reply().expect("reply") {
        Reply::Error { error } => assert!(error.contains("nesting"), "{error}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    assert_eq!(client.ping(3).expect("same connection still serves"), 3);
    let mut fresh = ServeClient::connect(&addr).expect("a new connection gets hello");
    assert_eq!(fresh.ping(4).expect("ping"), 4);
    drop((client, fresh));
    assert_eq!(server.terminate(), Some(0), "drain must exit 0");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn serve_survives_a_mid_line_disconnect() {
    use idle_waves::idlewave::serve::client::ServeClient;
    use std::io::Write;

    let dir = tmpdir("serve-disconnect");
    let (server, addr) = spawn_serve(&dir.join("state"), &[]);

    // Half a line, no newline, then a hard disconnect.
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    raw.write_all(b"{\"type\":\"submit\",\"scenario\":{")
        .expect("half line");
    drop(raw);

    // The server must keep serving fresh connections.
    let mut client = ServeClient::connect(&addr).expect("reconnect");
    assert_eq!(client.ping(42).expect("ping"), 42);
    drop(client);
    assert_eq!(server.terminate(), Some(0), "drain must exit 0");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn serve_completes_work_then_drains_on_sigterm() {
    use idle_waves::idlewave::serve::client::{loadgen_scenarios, ServeClient};
    use idle_waves::idlewave::serve::protocol::{Reply, Request};
    use idle_waves::idlewave::sweep::ScenarioStatus;

    let dir = tmpdir("serve-drain");
    let (server, addr) = spawn_serve(&dir.join("state"), &["--threads", "1"]);
    let mut client = ServeClient::connect(&addr).expect("connect");
    let scenario = loadgen_scenarios(1, 4, 2).remove(0);
    client
        .send(&Request::Submit(Box::new(scenario.clone())))
        .expect("submit");
    let record = loop {
        match client.next_reply().expect("reply") {
            Reply::Accepted { id, .. } => assert_eq!(id, scenario.id),
            Reply::Result { record } => break record,
            other => panic!("unexpected reply {other:?}"),
        }
    };
    assert_eq!(record.status, ScenarioStatus::Ok, "{record:?}");
    drop(client);
    assert_eq!(server.terminate(), Some(0), "drain must exit 0");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn serve_usage_errors_exit_2() {
    let out = wavesim()
        .args(["serve", "--threads", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = wavesim()
        .args(["loadgen", "--requests", "3"]) // missing --addr
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn interrupted_sweep_exits_4_and_resumes_to_the_control() {
    use idle_waves::idlewave::sweep::load_results;

    let dir = tmpdir("sigterm-resume");
    let scenarios_path = dir.join("scenarios.json");
    let interrupted_out = dir.join("interrupted.jsonl");
    let control_out = dir.join("control.jsonl");
    let snap_dir = dir.join("snaps");
    let dump = wavesim()
        .args([
            "--ranks",
            "40",
            "--steps",
            "400",
            "--texec-ms",
            "1",
            "--inject",
            "9:3:8",
            "--seed",
            "5",
            "--dump-config",
        ])
        .output()
        .expect("binary runs");
    assert!(dump.status.success());
    let cfg = String::from_utf8_lossy(&dump.stdout);
    std::fs::write(
        &scenarios_path,
        format!("[{{\"id\":\"long\",\"config\":{cfg}}}]"),
    )
    .expect("write scenarios");

    let sweep_args = |out: &std::path::Path| {
        vec![
            "sweep".to_string(),
            "--scenarios".into(),
            scenarios_path.to_str().unwrap().into(),
            "--out".into(),
            out.to_str().unwrap().into(),
            "--threads".into(),
            "1".into(),
            "--checkpoint-dir".into(),
            snap_dir.to_str().unwrap().into(),
            "--checkpoint-every".into(),
            "500ev".into(),
            "--quiet".into(),
        ]
    };

    let control = wavesim()
        .args(sweep_args(&control_out))
        .output()
        .expect("binary runs");
    assert!(control.status.success(), "{control:?}");

    // Start the sweep, wait until it is provably mid-scenario, then send
    // SIGTERM — the graceful path, unlike the SIGKILL test above.
    let mut child = wavesim()
        .args(sweep_args(&interrupted_out))
        .spawn()
        .expect("binary starts");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        if std::fs::read_dir(&snap_dir)
            .map(|d| d.count() > 0)
            .unwrap_or(false)
        {
            break;
        }
        if child.try_wait().expect("poll child").is_some() || std::time::Instant::now() > deadline {
            break; // finished before the signal: resume is a no-op below
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    let status = child.wait().expect("reap child");
    assert!(
        matches!(status.code(), Some(0) | Some(4)),
        "graceful interrupt must exit 0 (finished) or 4 (resumable), got {status:?}"
    );

    let resumed = wavesim()
        .args(
            sweep_args(&interrupted_out)
                .into_iter()
                .chain(["--resume".to_string()]),
        )
        .output()
        .expect("binary runs");
    assert!(resumed.status.success(), "{resumed:?}");
    let got = load_results(&interrupted_out).expect("interrupted results readable");
    let want = load_results(&control_out).expect("control results readable");
    assert_eq!(got.len(), want.len());
    assert_eq!(got[0].id, want[0].id);
    assert_eq!(got[0].status, want[0].status);
    assert_eq!(
        got[0].summary.as_ref().map(|s| s.trace_fingerprint),
        want[0].summary.as_ref().map(|s| s.trace_fingerprint),
        "resumed sweep produced a different trace than the control"
    );
    std::fs::remove_dir_all(dir).ok();
}

// ---------------------------------------------------------------------------
// Files written by an earlier build (`tests/fixtures/v1`, produced by the
// release that still had hand-written codecs) must keep loading.
// ---------------------------------------------------------------------------

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/v1")
        .join(name)
}

#[test]
fn v1_sweep_report_and_cache_entry_are_reused() {
    let dir = tmpdir("v1-sweep");
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).expect("mk cache");
    let entry = "188f0e125db6e6a1.entry";
    std::fs::copy(fixture(entry), cache.join(entry)).expect("copy entry");
    let scenarios = fixture("scenarios.json");
    let expected = std::fs::read(fixture("results.jsonl")).expect("fixture report");

    // Resume over the old report: both records decode and nothing re-runs.
    let resumed = dir.join("resumed.jsonl");
    std::fs::write(&resumed, &expected).expect("copy report");
    let run = wavesim()
        .args(["sweep", "--resume", "--scenarios"])
        .arg(&scenarios)
        .arg("--out")
        .arg(&resumed)
        .output()
        .expect("binary runs");
    assert!(run.status.success(), "{run:?}");
    assert!(
        String::from_utf8_lossy(&run.stdout).contains("2 reused"),
        "{run:?}"
    );
    assert_eq!(std::fs::read(&resumed).expect("report"), expected);

    // A cold report served from the old cache entry is byte-identical.
    let warm = dir.join("warm.jsonl");
    let run = wavesim()
        .args(["sweep", "--scenarios"])
        .arg(&scenarios)
        .arg("--cache-dir")
        .arg(&cache)
        .arg("--out")
        .arg(&warm)
        .output()
        .expect("binary runs");
    assert!(run.status.success(), "{run:?}");
    assert!(
        String::from_utf8_lossy(&run.stdout).contains("cache: 1 hits, 0 misses"),
        "{run:?}"
    );
    assert_eq!(std::fs::read(&warm).expect("report"), expected);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn v1_journal_replays_and_answers_query() {
    use idle_waves::idlewave::serve::client::ServeClient;
    use idle_waves::tracefmt::json::{self, Json};

    let dir = tmpdir("v1-journal");
    let state = dir.join("state");
    std::fs::create_dir_all(&state).expect("mk state");
    let journal = std::fs::read_to_string(fixture("journal.jsonl")).expect("fixture journal");
    std::fs::write(state.join("journal.jsonl"), &journal).expect("copy journal");
    let done = Json::parse(journal.lines().nth(1).expect("done line")).expect("json");
    let want = json::to_string(
        done.get("rec")
            .and_then(|r| r.get("result"))
            .expect("done record"),
    );

    let (server, addr) = spawn_serve(&state, &[]);
    let mut client = ServeClient::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.recovered, 0, "the job finished before the restart");
    let record = client
        .query("fx-j")
        .expect("query")
        .expect("journaled result");
    assert_eq!(json::to_string(&record), want);
    drop(client);
    assert_eq!(server.terminate(), Some(0), "drain must exit 0");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn v1_snapshot_restores_to_the_uninterrupted_run() {
    let dir = tmpdir("v1-snapshot");
    let restored = dir.join("restored.csv");
    let direct = dir.join("direct.csv");
    let run = wavesim()
        .arg("--restore")
        .arg(fixture("wavesim.ckpt"))
        .args(["--quiet", "--csv"])
        .arg(&restored)
        .output()
        .expect("binary runs");
    assert!(run.status.success(), "{run:?}");
    let run = wavesim()
        .args([
            "--ranks", "6", "--steps", "4", "--inject", "2:1:3", "--quiet", "--csv",
        ])
        .arg(&direct)
        .output()
        .expect("binary runs");
    assert!(run.status.success(), "{run:?}");
    assert_eq!(
        std::fs::read(&restored).expect("restored csv"),
        std::fs::read(&direct).expect("direct csv")
    );
    std::fs::remove_dir_all(dir).ok();
}

// ---------------------------------------------------------------------------
// Strict decoding: an undeclared or repeated key is an error everywhere a
// record enters from outside.
// ---------------------------------------------------------------------------

fn example_config() -> String {
    std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/configs/fig4-quick.json"),
    )
    .expect("example config")
}

#[test]
fn analyze_rejects_misspelled_and_repeated_config_keys() {
    let dir = tmpdir("strict-config");
    let typo = dir.join("typo.json");
    std::fs::write(
        &typo,
        example_config().replace("\"serialize_sends\"", "\"serialise_sends\""),
    )
    .expect("write config");
    let out = wavesim()
        .args(["analyze", "--config"])
        .arg(&typo)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown key 'serialise_sends' in SimConfig")
            && stderr.contains("did you mean 'serialize_sends'"),
        "{stderr}"
    );

    let twice = dir.join("twice.json");
    std::fs::write(&twice, example_config().replacen('{', "{\"steps\":3,", 1))
        .expect("write config");
    let out = wavesim()
        .args(["analyze", "--config"])
        .arg(&twice)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("duplicate key 'steps' in SimConfig"),
        "{stderr}"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn sweep_rejects_a_misspelled_scenario_key_before_running_anything() {
    let dir = tmpdir("strict-sweep");
    let scenarios = dir.join("scenarios.json");
    let out_path = dir.join("results.jsonl");
    let cfg = example_config();
    std::fs::write(
        &scenarios,
        format!("[{{\"id\":\"a\",\"config\":{cfg}}},{{\"id\":\"b\",\"config\":{cfg},\"max_sim_tme\":5}}]"),
    )
    .expect("write scenarios");
    let out = wavesim()
        .args(["sweep", "--scenarios"])
        .arg(&scenarios)
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
    let record = idle_waves::tracefmt::json::Json::parse(stderr.trim()).expect("valid JSON");
    let error = record.get("error").and_then(|e| e.as_str()).expect("error");
    assert!(
        error.contains("[1]: unknown key 'max_sim_tme' in Scenario (did you mean 'max_sim_time'?)"),
        "{error}"
    );
    assert!(!out_path.exists(), "no scenario may run");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn serve_answers_a_misspelled_submit_with_an_error_and_keeps_serving() {
    use idle_waves::idlewave::serve::client::ServeClient;
    use idle_waves::idlewave::serve::protocol::Reply;

    let dir = tmpdir("strict-serve");
    let (server, addr) = spawn_serve(&dir.join("state"), &[]);
    let mut client = ServeClient::connect(&addr).expect("connect");
    let cfg = example_config().replace('\n', "");
    client
        .send_raw(&format!(
            "{{\"type\":\"submit\",\"scenario\":{{\"id\":\"t\",\"config\":{cfg},\"chaoss\":\"None\"}}}}"
        ))
        .expect("send");
    match client.next_reply().expect("reply") {
        Reply::Error { error } => assert!(
            error.contains("unknown key 'chaoss' in Scenario (did you mean 'chaos'?)"),
            "{error}"
        ),
        other => panic!("expected an error reply, got {other:?}"),
    }
    assert_eq!(client.ping(5).expect("same connection still serves"), 5);
    assert_eq!(client.stats().expect("stats").accepted, 0);
    drop(client);
    assert_eq!(server.terminate(), Some(0), "drain must exit 0");
    std::fs::remove_dir_all(dir).ok();
}
