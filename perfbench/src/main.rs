//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A failed correctness check exits non-zero
//! without printing a result.

use std::path::Path;
use std::process::ExitCode;

use perfbench::gen::Workload;
use perfbench::{report, Params};

fn parse_args() -> Result<Params, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut p = Params {
        workload: Workload::SweepWave,
        seed: 0,
        seconds: 0.0,
        trace: false,
        small: false,
    };
    let (mut workload, mut seconds) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                p.workload = Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?;
                workload = true;
            }
            "--seed" => p.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                p.seconds = value.parse().map_err(|e| bad(&e))?;
                seconds = p.seconds.is_finite() && p.seconds > 0.0;
            }
            "--trace" => {
                p.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workload || !seconds {
        return Err(
            "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>".into(),
        );
    }
    Ok(p)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|p| {
        let run = perfbench::run(&p, Path::new(".perfbench"))?;
        report::result_line(&run.outcome, p.trace)
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
