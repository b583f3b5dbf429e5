//! `fleet_exact` — the F2 population at the exact AFE tier.
//!
//! Every 10th line carries an ADC-stuck fault, flows jitter ±5 %, lines
//! run on `test_profile` (64 modulator ticks per control frame) and the
//! fleet keeps per-line summaries (exact percentiles). Modulator-rate work
//! dominates: die physics, bridge solves, noise draws and the fused
//! in-amp → ΣΔ → CIC block.

use super::{check_jobs_invariance, digest, frames_per_line, seed_for, traced_fleet, FleetTrace};
use crate::report::{measure, secs, Rep, Report};
use crate::{Args, JOBS};
use hotwire_bench::experiments::f2_fleet;
use hotwire_rig::fleet::FleetSpec;
use hotwire_units::Seconds;
use std::time::Instant;

/// Lines per fleet run.
const LINES: usize = 24;
/// Scenario seconds per line.
const DURATION_S: f64 = 8.0;
/// Lines the traced pass re-drives (covers one faulted line).
const TRACED_LINES: usize = 6;
/// Lines the jobs-invariance check repeats.
const CHECKED_LINES: usize = 4;

fn spec(seed: u64) -> FleetSpec {
    let mut spec = f2_fleet::fleet_spec(LINES, DURATION_S);
    spec.seed = seed_for(seed, 0xF2);
    spec
}

/// Set-up: the spec from the seed, validated, and one warm-up line.
fn setup(seed: u64) -> Result<(FleetSpec, u64), String> {
    let spec = spec(seed);
    spec.validate().map_err(|e| e.to_string())?;
    let line = spec.line_spec(0);
    line.execute().map_err(|e| e.to_string())?;
    let control_dt = Seconds::new(spec.config.decimation as f64 / spec.config.modulator_rate.get());
    let frames = frames_per_line(&line, control_dt);
    Ok((spec, frames))
}

pub fn end_to_end(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut last = None;
    let state = measure(
        report,
        args.seconds,
        || setup(args.seed),
        |(spec, frames)| {
            let start = Instant::now();
            let outcome = spec.run_jobs(JOBS);
            let wall_s = secs(start);
            let failed = if outcome.is_ok() {
                0
            } else {
                spec.lines as u64
            };
            last = Some(outcome);
            Rep {
                wall_s,
                lines: spec.lines as u64,
                frames: frames * spec.lines as u64,
                failed,
            }
        },
    );
    let (spec, _) = state?;
    let outcome = last
        .ok_or("no repetition ran")?
        .map_err(|e| e.to_string())?;
    let a = &outcome.aggregates;
    report.note(format!(
        "fleet digest {:016x} ({} lines, {} faulted); err_rms p99 {:.4} cm/s, \
         resolution p50 {:.5} %FS",
        digest(&outcome.lines),
        a.lines,
        a.lines_faulted,
        a.err_rms_cm_s.p99,
        a.resolution_pct_fs.p50
    ));
    report.check(
        a.err_rms_cm_s.p99.is_finite() && a.resolution_pct_fs.p50.is_finite(),
        || "fleet accuracy metrics are not finite".into(),
    );
    check_jobs_invariance(&spec, CHECKED_LINES, report);
    Ok(())
}

pub fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let (spec, _) = setup(args.seed)?;
    let outcome = spec.run_jobs(JOBS).map_err(|e| e.to_string())?;
    let (mut layers, wall_ns) = traced_fleet(
        &FleetTrace {
            spec: &spec,
            lines: TRACED_LINES,
            shard_lines: TRACED_LINES,
            checkpoint: false,
        },
        report,
    )?;
    let a = &outcome.aggregates;
    layers.set("accuracy.err_rms_p99_cm_s", a.err_rms_cm_s.p99);
    layers.set("accuracy.resolution_p50_pct_fs", a.resolution_pct_fs.p50);
    layers.emit(report, wall_ns);
    Ok(())
}
