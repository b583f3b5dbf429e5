//! `fleet_fast_maintained` — the F4 drift season at the fast AFE tier
//! under the hybrid maintenance policy.
//!
//! CTA lines ride a 12 → 32 °C ramp with stepped fouling on every 3rd
//! line; the fleet keeps only sketch aggregates (`with_exact_threshold(0)`)
//! and runs shard by shard, the merged accumulator round-tripping through
//! the checkpoint codec at each shard boundary. The AFE runs once per
//! frame, so firmware control, the runner, maintenance, reductions,
//! sketches and the codec carry the time.

use super::{check_jobs_invariance, digest, frames_per_line, seed_for, traced_fleet, FleetTrace};
use crate::report::{measure, secs, Rep, Report};
use crate::{Args, JOBS};
use hotwire_bench::experiments::f4_maintenance;
use hotwire_core::config::AfeTier;
use hotwire_rig::fleet::{FleetAggregates, FleetError, FleetSpec, ShardAggregates};
use hotwire_rig::{FleetCheckpoint, LineConfig, Modality};
use hotwire_units::Seconds;
use std::time::Instant;

/// Lines per fleet run.
const LINES: usize = 320;
/// Scenario seconds per line (one compressed service season).
const DURATION_S: f64 = 20.0;
/// Shards each run is split into.
const SHARDS: usize = 4;
/// Lines the traced pass re-drives, and its shard length.
const TRACED_LINES: usize = 48;
const TRACED_SHARD_LINES: usize = 12;
/// Lines the set-up runs once to warm caches and code.
const WARM_LINES: usize = 6;
/// Lines the jobs-invariance check repeats.
const CHECKED_LINES: usize = 24;

fn spec(seed: u64) -> FleetSpec {
    let (name, maintenance) = f4_maintenance::policies(DURATION_S)[3];
    let mut spec = f4_maintenance::fleet_spec(Modality::Cta, maintenance, name, LINES, DURATION_S)
        .with_config(
            LineConfig::new()
                .with_modality(Modality::Cta)
                .with_afe_tier(AfeTier::Fast)
                .with_maintenance(maintenance),
        )
        .with_exact_threshold(0);
    spec.seed = seed_for(seed, 0xF4);
    spec
}

/// Set-up: the spec from the seed, validated, and [`WARM_LINES`] warm-up
/// lines run serially.
fn setup(seed: u64) -> Result<(FleetSpec, u64), String> {
    let spec = spec(seed);
    spec.validate().map_err(|e| e.to_string())?;
    for i in 0..WARM_LINES {
        spec.line_spec(i).execute().map_err(|e| e.to_string())?;
    }
    let line = spec.line_spec(0);
    let control_dt = Seconds::new(spec.config.decimation as f64 / spec.config.modulator_rate.get());
    let frames = frames_per_line(&line, control_dt);
    Ok((spec, frames))
}

/// One sharded run: each shard at [`JOBS`] workers, merged in line order,
/// the merged accumulator encoded and decoded at every shard boundary.
fn run_sharded(spec: &FleetSpec) -> Result<(ShardAggregates, FleetAggregates), FleetError> {
    let fingerprint = spec.fingerprint();
    let mut acc = ShardAggregates::empty(0);
    for shard in spec.shards(SHARDS) {
        let part = shard.run_jobs(JOBS)?;
        acc.merge(&part)?;
        let text = FleetCheckpoint::new(fingerprint, spec.lines, acc).encode();
        acc = FleetCheckpoint::decode(&text)?.into_verified_shard(fingerprint, spec.lines)?;
    }
    let aggregates = acc.finalize(
        spec.config.full_scale.to_cm_per_s(),
        spec.scenario.duration_s * spec.lines as f64,
    );
    Ok((acc, aggregates))
}

pub fn end_to_end(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut last = None;
    let state = measure(
        report,
        args.seconds,
        || setup(args.seed),
        |(spec, frames)| {
            let start = Instant::now();
            let outcome = run_sharded(spec);
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
    let (acc, a) = last
        .ok_or("no repetition ran")?
        .map_err(|e| e.to_string())?;
    report.note(format!(
        "fleet digest {:016x} ({} lines, {} maintenance actions, {} persists); \
         err_rms p99 {:.4} cm/s, resolution p50 {:.5} %FS",
        digest(&acc),
        a.lines,
        a.maintenance.actions(),
        a.maintenance.persists,
        a.err_rms_cm_s.p99,
        a.resolution_pct_fs.p50
    ));
    report.check(
        a.err_rms_cm_s.p99.is_finite() && a.resolution_pct_fs.p50.is_finite(),
        || "fleet accuracy metrics are not finite".into(),
    );
    let text = FleetCheckpoint::new(spec.fingerprint(), spec.lines, acc.clone()).encode();
    let back = FleetCheckpoint::decode(&text).map(|c| format!("{:?}", c.shard));
    report.check(back.as_deref() == Ok(format!("{acc:?}").as_str()), || {
        "merged accumulator does not survive the checkpoint round trip".into()
    });
    check_jobs_invariance(&spec, CHECKED_LINES, report);
    Ok(())
}

pub fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let (spec, _) = setup(args.seed)?;
    let (_, a) = run_sharded(&spec).map_err(|e| e.to_string())?;
    let (mut layers, wall_ns) = traced_fleet(
        &FleetTrace {
            spec: &spec,
            lines: TRACED_LINES,
            shard_lines: TRACED_SHARD_LINES,
            checkpoint: true,
        },
        report,
    )?;
    layers.set("accuracy.err_rms_p99_cm_s", a.err_rms_cm_s.p99);
    layers.set("accuracy.resolution_p50_pct_fs", a.resolution_pct_fs.p50);
    layers.emit(report, wall_ns);
    Ok(())
}
