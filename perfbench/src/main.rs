//! The DPSS suite's benchmark: three closed-loop workloads (`query_mix`,
//! `churn_stream`, `rr_sets`), each driven by one caller thread from inputs
//! generated from `--seed`. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` measures the per-layer ones, with spans around the calls into
//! each layer and the layer below driven on mirrors. Usually started
//! through `run.py`, which builds this package first.
#![deny(unsafe_code)]
// Wall-clock timing is this program's job, and its hash sets are membership
// tests that are never iterated, so no order reaches an output.
#![allow(clippy::disallowed_types)]

mod alloc;
mod churn;
mod gen;
mod harness;
mod query_mix;
mod replay;
mod rr_sets;
mod stats;
mod trace;

use harness::{Config, Report};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["query_mix", "churn_stream", "rr_sets"];

struct Args {
    workload: String,
    cfg: Config,
    threads: usize,
    commit: String,
    trace_out: Option<PathBuf>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        cfg: Config { seed: 1, seconds: 10.0, trace: false },
        threads: 1,
        commit: String::from("unknown"),
        trace_out: None,
    };
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => {
                a.cfg.seed = val.parse().map_err(|_| format!("--seed: not a u64: {val}"))?
            }
            "--seconds" => a.cfg.seconds = num(&val)?,
            "--trace" => a.cfg.trace = num(&val)? != 0.0,
            "--threads" => a.threads = val.parse().map_err(|_| format!("--threads: {val}"))?,
            "--commit" => a.commit = val,
            "--trace-out" => a.trace_out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !a.cfg.seconds.is_finite() || a.cfg.seconds <= 0.0 {
        return Err(String::from("--seconds must be positive"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if a.threads == 0 || a.threads > nproc {
        return Err(format!("--threads {} refused: this host has nproc = {nproc}", a.threads));
    }
    if a.threads != 1 {
        return Err(String::from("--threads: every workload is a one-caller closed loop"));
    }
    Ok(a)
}

fn json_str(s: &str) -> String {
    format!("{s:?}")
}

/// The run's record: seed, commit, host and settings.
fn env_line(a: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| String::from("unknown"));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| String::from("unknown"), |k| k.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"commit\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \"threads\": {}, \"trace\": {}}}",
        json_str(&a.workload),
        a.cfg.seed,
        a.cfg.seconds,
        json_str(&a.commit),
        json_str(&cpu),
        json_str(&kernel),
        a.threads,
        a.cfg.trace
    )
}

fn main() -> ExitCode {
    let a = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = env_line(&a);
    println!("# env {env}");
    let r: Report = match a.workload.as_str() {
        "query_mix" => query_mix::run(&a.cfg),
        "churn_stream" => churn::run(&a.cfg),
        _ => rr_sets::run(&a.cfg),
    };
    for n in &r.notes {
        println!("# {n}");
    }
    for c in &r.failed_checks {
        println!("# FAILED CHECK: {c}");
    }
    println!(
        "failed_frac {} ratio (failed {} of {} attempted)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    for m in &r.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    if let (Some(tr), Some(path)) = (&r.trace, &a.trace_out) {
        match tr.write(path, &[format!("env {env}")]) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", r.json());
    ExitCode::SUCCESS
}
