//! Repeated `run_serve` start/connect/drain cycles in one process leave
//! nothing behind: after every cycle the process's thread count and open
//! file descriptors return to what the first cycle left.
//!
//! This is the one test in its binary, so no other test's threads or
//! files move the counts. It also prints each cycle's start-up time
//! (`run_serve` call to `on_ready`) and connect time; run it with
//! `cargo test --release --test serve_restart_cycles -- --nocapture` to
//! see them.
#![cfg(target_os = "linux")]

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use idle_waves::idlewave::serve::client::ServeClient;
use idle_waves::idlewave::serve::{run_serve, ServeOptions};

const CYCLES: usize = 20;

/// `Threads:` of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Entries of `/proc/self/fd` (the listing's own descriptor included,
/// the same in every reading).
fn fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

/// One cycle in a fresh directory: start a server with a journal and a
/// result cache, connect, ping, drain, and join it. Returns the
/// start-up and connect times.
fn cycle(dir: &Path) -> (Duration, Duration) {
    let opts = ServeOptions {
        dir: dir.join("state"),
        threads: 2,
        cache_dir: Some(dir.join("cache")),
        ..ServeOptions::default()
    };
    let (tx, rx) = mpsc::channel();
    let t = Instant::now();
    let server = std::thread::spawn(move || {
        run_serve(&opts, &AtomicBool::new(false), |addr| {
            let _ = tx.send((addr.to_string(), t.elapsed()));
        })
    });
    let (addr, startup) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server ready");
    let c = Instant::now();
    let mut client = ServeClient::connect(&addr).expect("connect");
    let connect = c.elapsed();
    assert_eq!(client.ping(7).expect("ping"), 7);
    client.drain().expect("drain");
    drop(client);
    let report = server
        .join()
        .expect("server thread")
        .expect("serve ran cleanly");
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    (startup, connect)
}

/// Poll `read` until it equals `want`, for up to a second: a joined
/// thread's `/proc` entry can outlive the join by a moment.
fn settles_to(read: fn() -> usize, want: usize) -> usize {
    let until = Instant::now() + Duration::from_secs(1);
    loop {
        let got = read();
        if got == want || Instant::now() > until {
            return got;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Poll `read` until it has held one value for 100 ms (or 2 s have
/// passed), for the same reason: the baseline must not count a thread
/// that is still on its way out.
fn settled(read: fn() -> usize) -> usize {
    let until = Instant::now() + Duration::from_secs(2);
    let (mut last, mut since) = (read(), Instant::now());
    while since.elapsed() < Duration::from_millis(100) && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(5));
        let got = read();
        if got != last {
            (last, since) = (got, Instant::now());
        }
    }
    last
}

#[test]
fn serve_start_up_cycles_return_threads_and_fds_to_the_first_cycle() {
    let root = std::env::temp_dir().join(format!("wavesim-serve-cycles-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut baseline = None;
    for k in 0..CYCLES {
        let (startup, connect) = cycle(&root.join(format!("cycle-{k}")));
        let (t, f) = match baseline {
            None => {
                let b = (settled(threads), settled(fds));
                baseline = Some(b);
                b
            }
            Some((bt, bf)) => (settles_to(threads, bt), settles_to(fds, bf)),
        };
        eprintln!(
            "cycle {k:2}: start-up {:7.3} ms, connect {:6.3} ms, threads {t}, fds {f}",
            startup.as_secs_f64() * 1e3,
            connect.as_secs_f64() * 1e3,
        );
        let (bt, bf) = baseline.expect("set on cycle 0");
        assert_eq!(t, bt, "cycle {k} left threads behind");
        assert_eq!(f, bf, "cycle {k} left file descriptors open");
    }
    let _ = std::fs::remove_dir_all(&root);
}
