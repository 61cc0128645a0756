//! The SPFail reproduction benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_scale|faulty_sharded|checkpoint_resume|all \
//!     [--seed N] [--seconds S] [--trace 0|1] [--scale F]
//! ```
//!
//! The coordinator starts one fresh worker process after another, each
//! running the workload once (see [`workload`]), until `--seconds` are
//! used. It checks every worker's outputs and counters, prints a table
//! and, as its last line, one JSON object with the metrics. `--trace 0`
//! gives the end-to-end metrics; `--trace 1` alternates traced and
//! untraced workers and gives the per-layer metrics. See `README.md`.

mod alloc;
mod coordinator;
mod digest;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Mode, Workload, DEFAULT_SEED};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// Parsed command line.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Option<f64>,
    worker: Option<WorkerArgs>,
}

/// The hidden arguments of a worker process.
struct WorkerArgs {
    mode: Mode,
    traced: bool,
    checkpoint: PathBuf,
}

fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

fn parse_bit(raw: &str) -> Option<bool> {
    match raw {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut scale = None;
    let mut worker = false;
    let mut mode = Mode::Measure;
    let mut traced = false;
    let mut checkpoint = None;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&value).ok_or_else(bad)?]
                })
            }
            "--seed" => seed = parse_seed(&value).ok_or_else(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => trace = parse_bit(&value).ok_or_else(bad)?,
            "--scale" => {
                scale = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && *s <= 1.0)
                        .ok_or_else(bad)?,
                )
            }
            "--worker" => worker = parse_bit(&value).ok_or_else(bad)?,
            "--mode" => {
                mode = match value.as_str() {
                    "measure" => Mode::Measure,
                    "uninterrupted" => Mode::Uninterrupted,
                    "setup" => Mode::Setup,
                    _ => return Err(bad()),
                }
            }
            "--traced" => traced = parse_bit(&value).ok_or_else(bad)?,
            "--checkpoint" => checkpoint = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    let worker = if worker {
        Some(WorkerArgs {
            mode,
            traced,
            checkpoint: checkpoint.ok_or("a worker needs --checkpoint")?,
        })
    } else {
        None
    };
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
        scale,
        worker,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper_scale|faulty_sharded|checkpoint_resume|all \
                 [--seed N] [--seconds S] [--trace 0|1] [--scale F]"
            );
            return ExitCode::from(2);
        }
    };
    let result = match &args.worker {
        Some(w) => {
            let workload = args.workloads[0];
            let scale = args.scale.unwrap_or(workload.scale());
            workload::run(workload, args.seed, scale, w.mode, w.traced, &w.checkpoint)
                .map_err(|e| e.to_string())
        }
        None => coordinator::run(
            &args.workloads,
            args.seed,
            args.seconds,
            args.trace,
            args.scale,
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
