//! `hotwire-perfbench` — the workspace's end-to-end and per-layer benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_exact --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload is built from `--seed` alone and drives the workspace
//! crates through their public API, in this one process, with at most two
//! worker threads (closed loop: a worker takes the next line when its
//! previous line finishes). `--trace 0` measures the end-to-end metrics
//! for `--seconds` of wall time; `--trace 1` re-drives part of the
//! workload through timing wrappers and reports the per-layer metrics.
//! Human-readable lines go to standard output first; the last line is
//! one JSON object. `README.md` holds the metric vocabulary.

mod kernels;
mod report;
mod trace;
mod workloads;

use report::Report;
use std::process::ExitCode;

/// Worker threads every parallel phase uses (the benchmark box has two
/// cores; the engines are closed-loop over an atomic next-line counter).
pub const JOBS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (see [`workloads::NAMES`]).
    pub workload: String,
    /// Input seed; every spec, line and corpus seed derives from it.
    pub seed: u64,
    /// Wall seconds the end-to-end phase measures for.
    pub seconds: f64,
    /// `true` runs the traced (per-layer) pass instead.
    pub trace: bool,
}

const USAGE: &str =
    "usage: hotwire-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
workloads: fleet_exact, fleet_fast_maintained, ingest_replay, campaign_paper";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report: Report = workloads::run(&args);
    report.print();
    ExitCode::SUCCESS
}
