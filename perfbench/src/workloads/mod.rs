//! The four named workloads and the machinery the two fleet workloads
//! share.

mod campaign_paper;
mod fleet_exact;
mod fleet_fast_maintained;
mod ingest_replay;

use crate::report::{peak_rss_mib, secs, Report};
use crate::trace::{drive_traced, outcome_fingerprint, Layers, TracedLine};
use crate::{kernels, Args, JOBS};
use hotwire_core::config::fnv1a64;
use hotwire_core::Meter;
use hotwire_rig::fleet::{FleetSpec, LineSummary, ShardAggregates};
use hotwire_rig::{exec, FleetCheckpoint, RunSpec, WaterLine};
use hotwire_units::Seconds;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = [
    "fleet_exact",
    "fleet_fast_maintained",
    "ingest_replay",
    "campaign_paper",
];

/// Runs the workload `args` names, end to end or traced.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {} ({} pass, {} worker threads, {} cores available)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end-to-end" },
        JOBS,
        exec::available_jobs()
    ));
    let result = match (args.workload.as_str(), args.trace) {
        ("fleet_exact", false) => fleet_exact::end_to_end(args, &mut report),
        ("fleet_exact", true) => fleet_exact::traced(args, &mut report),
        ("fleet_fast_maintained", false) => fleet_fast_maintained::end_to_end(args, &mut report),
        ("fleet_fast_maintained", true) => fleet_fast_maintained::traced(args, &mut report),
        ("ingest_replay", false) => ingest_replay::end_to_end(args, &mut report),
        ("ingest_replay", true) => ingest_replay::traced(args, &mut report),
        ("campaign_paper", false) => campaign_paper::end_to_end(args, &mut report),
        ("campaign_paper", true) => campaign_paper::traced(args, &mut report),
        _ => Err(format!("unknown workload {}", args.workload)),
    };
    if let Err(e) = result {
        report.check(false, || e);
    }
    if !args.trace {
        report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    }
    report
}

/// A workload's seed for input lane `lane` (fleet, meter, line, corpus…),
/// so every input derives from `--seed` alone.
pub fn seed_for(seed: u64, lane: u64) -> u64 {
    hotwire_rig::campaign::derive_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane, lane)
}

/// Control frames a line of `spec` simulates: the runner steps until the
/// scenario clock reaches its duration, one control period at a time.
pub fn frames_per_line(spec: &RunSpec, control_period: Seconds) -> u64 {
    let mut line = WaterLine::new(spec.scenario.clone(), spec.line_seed);
    let mut frames = 0;
    while !line.finished() {
        line.step(control_period);
        frames += 1;
    }
    frames
}

/// The FNV-1a digest of a value's `Debug` rendering (reported, never
/// pinned: a deliberate simulator change moves it).
pub fn digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a64(format!("{value:?}").as_bytes())
}

/// The summary the fleet engine keeps of one line, rebuilt from a traced
/// run (every field public; same fold as the engine's).
fn summary_of(line: usize, spec: &RunSpec, traced: &TracedLine) -> LineSummary {
    let red = &traced.reduced;
    LineSummary {
        line,
        samples: red.samples,
        settled_mean: red.settled.mean(),
        settled_std: red.settled.std_dev(),
        err_rms: red.err_rms(),
        err_max_abs: red.err_max_abs,
        fault_samples: red.fault_samples,
        maintenance: traced.maintenance,
        health: red.health_census,
        fault_kinds: spec
            .faults
            .as_ref()
            .map(|s| s.events.iter().map(|e| e.kind.name()).collect())
            .unwrap_or_default(),
        trace_heap_bytes: traced.samples.heap_bytes(),
        meter_digest: traced.meter.state_digest(),
    }
}

/// How the traced fleet pass folds its lines.
pub struct FleetTrace<'a> {
    /// The fleet.
    pub spec: &'a FleetSpec,
    /// Lines `[0, lines)` are re-driven.
    pub lines: usize,
    /// Lines per shard; each shard boundary merges (and, with
    /// `checkpoint`, round-trips the accumulator through the codec).
    pub shard_lines: usize,
    /// Round-trip the merged accumulator at each shard boundary.
    pub checkpoint: bool,
}

/// The traced pass over a fleet prefix, shared by both fleet workloads:
///
/// 1. an untraced serial pass (`line_spec(i).execute()`) gives the
///    reference fingerprints and, with a second one after step 2, the
///    untraced time;
/// 2. the traced serial pass re-drives every line through the wrappers,
///    folds summaries into shard accumulators, merges them (with the
///    checkpoint round trip when asked) and finalizes — its wall time is
///    the denominator of every share;
/// 3. the engine runs the same prefix (`FleetShard::run_jobs`) to check
///    the traced fold reproduces its accumulator;
/// 4. a parallel untraced pass measures worker busy share;
/// 5. the kernels below `step_frame` are timed at the traced call counts.
///
/// Returns the layers (not yet emitted) and the traced wall time, ns.
pub fn traced_fleet(t: &FleetTrace<'_>, report: &mut Report) -> Result<(Layers, f64), String> {
    let spec = t.spec;
    let mut layers = Layers::default();

    let start = Instant::now();
    let mut reference = Vec::with_capacity(t.lines);
    for i in 0..t.lines {
        let outcome = spec.line_spec(i).execute().map_err(|e| e.to_string())?;
        reference.push(outcome_fingerprint(&outcome));
    }
    let mut untraced_s = secs(start);

    let full_scale = spec.config.full_scale.to_cm_per_s();
    let fingerprint = spec.fingerprint();
    let retain = spec.retains_summaries();
    let start = Instant::now();
    let mut acc = ShardAggregates::empty(0);
    let mut part = ShardAggregates::empty(0);
    let mut peak_heap = 0usize;
    let mut checkpoint_bytes = 0usize;
    let mut line_ns = 0.0;
    for (i, reference) in reference.iter().enumerate() {
        let line_start = Instant::now();
        let line_spec = layers.time("rig.fleet.line_spec", || spec.line_spec(i));
        let traced = drive_traced(&line_spec).map_err(|e| e.to_string())?;
        line_ns += line_start.elapsed().as_nanos() as f64;
        layers.absorb_line(&traced);
        report.check(traced.fingerprint() == *reference, || {
            format!("traced line {i} diverged from line_spec({i}).execute()")
        });
        layers.time("rig.fleet.push", || {
            part.push(summary_of(i, &line_spec, &traced), full_scale, retain);
        });
        drop(traced);
        if part.lines() == t.shard_lines || i + 1 == t.lines {
            peak_heap = peak_heap.max(part.heap_bytes());
            layers
                .time("rig.fleet.merge", || acc.merge(&part))
                .map_err(|e| e.to_string())?;
            part = ShardAggregates::empty(acc.end);
            if t.checkpoint {
                let text = layers.time("rig.checkpoint.encode", || {
                    FleetCheckpoint::new(fingerprint, spec.lines, acc.clone()).encode()
                });
                checkpoint_bytes = text.len();
                acc = layers
                    .time("rig.checkpoint.decode", || FleetCheckpoint::decode(&text))
                    .map_err(|e| e.to_string())?
                    .into_verified_shard(fingerprint, spec.lines)
                    .map_err(|e| e.to_string())?;
            }
            peak_heap = peak_heap.max(acc.heap_bytes());
        }
    }
    let aggregates = layers.time("rig.fleet.finalize", || {
        acc.finalize(full_scale, spec.scenario.duration_s * t.lines as f64)
    });
    let wall_ns = start.elapsed().as_nanos() as f64;

    // Untraced time is the mean of the passes before and after the
    // traced one, so warm-up and drift do not bias the overhead ratio.
    let start = Instant::now();
    for i in 0..t.lines {
        spec.line_spec(i).execute().map_err(|e| e.to_string())?;
    }
    untraced_s = 0.5 * (untraced_s + secs(start));

    let engine = spec
        .shard(0, t.lines)
        .run_jobs(JOBS)
        .map_err(|e| e.to_string())?;
    report.check(format!("{engine:?}") == format!("{acc:?}"), || {
        "traced shard fold differs from FleetShard::run_jobs".into()
    });
    report.note(format!(
        "traced {} lines: shard digest {:016x}, err p99 {:.4} cm/s",
        t.lines,
        digest(&acc),
        aggregates.err_rms_cm_s.p99
    ));

    let indices: Vec<usize> = (0..t.lines).collect();
    let start = Instant::now();
    let busy = exec::parallel_map_indexed(&indices, JOBS, |_, &i| {
        let line_start = Instant::now();
        let ok = spec.line_spec(i).execute().is_ok();
        (line_start.elapsed().as_secs_f64(), ok)
    });
    let parallel_s = secs(start);
    report.tally(
        busy.len() as u64,
        busy.iter().filter(|(_, ok)| !ok).count() as u64,
    );
    let busy_s: f64 = busy.iter().map(|(s, _)| s).sum();

    let template = spec.line_spec(0);
    let control_dt = Seconds::new(spec.config.decimation as f64 / spec.config.modulator_rate.get());
    let mut line = WaterLine::new(template.scenario.clone(), template.line_seed);
    let env = line.step(control_dt);
    kernels::split_step_frame(
        &mut layers,
        spec.config,
        spec.params,
        template.meter_seed,
        env,
    )?;

    layers.set("rig.checkpoint.bytes", checkpoint_bytes as f64);
    layers.set("rig.fleet.peak_shard_heap_bytes", peak_heap as f64);
    layers.set("rig.exec.busy_share", busy_s / (JOBS as f64 * parallel_s));
    layers.set("trace.overhead_ratio", line_ns / 1e9 / untraced_s);
    layers.set("trace.wall_s", wall_ns / 1e9);
    Ok((layers, wall_ns))
}

/// Checks that a fleet prefix repeats bit-identically at one and two
/// worker threads.
pub fn check_jobs_invariance(spec: &FleetSpec, lines: usize, report: &mut Report) {
    let shard = spec.shard(0, lines);
    let one = shard.run_jobs(1).map(|a| format!("{a:?}"));
    let two = shard.run_jobs(JOBS).map(|a| format!("{a:?}"));
    report.check(matches!((&one, &two), (Ok(a), Ok(b)) if a == b), || {
        format!("fleet prefix of {lines} lines differs between jobs 1 and {JOBS}")
    });
}
