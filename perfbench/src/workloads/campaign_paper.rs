//! `campaign_paper` — the paper path at `water_station` rates.
//!
//! One shared field calibration (`collect_calibration_points` over the
//! paper's five setpoints, then `calibrate` in every CTA meter build),
//! then a two-worker `Campaign` of Fig. 11 staircase lines — two CTA lines
//! and two heat-pulse lines on the same template — with observability on
//! and full trace recording, and the paper's settled tracking error
//! computed from the traces. The only workload that runs calibration, the
//! observability hooks, `RecordPolicy::Full`, `water_station` (256
//! modulator ticks per frame) and the heat-pulse meter.

use super::{frames_per_line, seed_for};
use crate::report::{measure, secs, Rep, Report};
use crate::trace::{drive_traced, outcome_fingerprint, Layers};
use crate::{kernels, Args, JOBS};
use hotwire_core::calibration::CalPoint;
use hotwire_core::{FlowMeter, FlowMeterConfig, HeatPulseMeter, Meter};
use hotwire_physics::MafParams;
use hotwire_rig::campaign::collect_calibration_points;
use hotwire_rig::record::TraceStore;
use hotwire_rig::{
    exec, metrics, Calibration, Campaign, FieldCalibration, LineConfig, Modality, ObsConfig,
    RecordPolicy, RunSpec, Scenario, WaterLine,
};
use hotwire_units::{Celsius, Seconds};
use std::time::Instant;

/// Seconds per staircase level (13 levels per line).
const DWELL_S: f64 = 1.0;
/// Trace cadence, seconds per sample.
const SAMPLE_PERIOD_S: f64 = 0.02;
/// Calibration settle and averaging windows per setpoint, seconds.
const SETTLE_S: f64 = 1.5;
const AVERAGE_S: f64 = 0.5;
/// Staircase dwell and alternating pairs of the observability A/B runs.
const OBS_DWELL_S: f64 = 0.25;
const OBS_PAIRS: usize = 6;
/// Settled part of each level the tracking error is taken over.
const SETTLED_PHASE: f64 = 0.7;

/// Everything a campaign run needs, derived from the seed.
struct Plan {
    config: FlowMeterConfig,
    params: MafParams,
    meter_seed: u64,
    recipe: FieldCalibration,
    /// Specs in campaign order: CTA lines (calibration filled in per run)
    /// first, then heat-pulse lines.
    specs: Vec<RunSpec>,
    cta_lines: usize,
    /// Control frames one repetition simulates (calibration + specs).
    frames: u64,
}

fn observed() -> ObsConfig {
    ObsConfig {
        enabled: true,
        ..ObsConfig::default()
    }
}

/// Set-up: the plan from the seed plus one short warm-up line.
fn setup(seed: u64) -> Result<Plan, String> {
    let config = FlowMeterConfig::water_station();
    let params = MafParams::nominal();
    let meter_seed = seed_for(seed, 0xE1);
    let recipe = FieldCalibration::paper(SETTLE_S, AVERAGE_S, seed_for(seed, 0xCA));
    let scenario = Scenario::fig11_staircase(DWELL_S);
    let line = |label: &str, modality: Modality, meter: u64, lane: u64| {
        RunSpec::new(label, config, scenario.clone(), meter)
            .with_config(
                LineConfig::new()
                    .with_modality(modality)
                    .with_obs(observed()),
            )
            .with_line_seed(seed_for(seed, lane))
            .with_sample_period(SAMPLE_PERIOD_S)
            .with_record(RecordPolicy::Full)
    };
    let specs = vec![
        line("fig11-cta-a", Modality::Cta, meter_seed, 1),
        line("fig11-cta-b", Modality::Cta, meter_seed, 2),
        line("fig11-hp-a", Modality::HeatPulse, seed_for(seed, 3), 3),
        line("fig11-hp-b", Modality::HeatPulse, seed_for(seed, 4), 4),
    ];
    let cta_dt = Seconds::new(config.decimation as f64 / config.modulator_rate.get());
    let hp_dt = HeatPulseMeter::new(config, meter_seed)
        .map_err(|e| e.to_string())?
        .control_period();
    let calibration_frames = recipe.setpoints_cm_s.len() as u64
        * frames_per_line(
            &RunSpec::new(
                "cal",
                config,
                Scenario::steady(0.0, SETTLE_S + AVERAGE_S),
                0,
            ),
            cta_dt,
        );
    let frames = calibration_frames
        + specs
            .iter()
            .map(|s| {
                let dt = if s.modality == Modality::Cta {
                    cta_dt
                } else {
                    hp_dt
                };
                frames_per_line(s, dt)
            })
            .sum::<u64>();
    RunSpec::new("warm-up", config, Scenario::steady(100.0, 0.5), meter_seed)
        .with_config(LineConfig::new().without_obs())
        .execute()
        .map_err(|e| e.to_string())?;
    Ok(Plan {
        config,
        params,
        meter_seed,
        recipe,
        specs,
        cta_lines: 2,
        frames,
    })
}

/// The shared calibration at `jobs` workers.
fn calibrate(plan: &Plan, jobs: usize) -> Result<(Vec<CalPoint>, Celsius), String> {
    let prototype =
        FlowMeter::new(plan.config, plan.params, plan.meter_seed).map_err(|e| e.to_string())?;
    collect_calibration_points(&prototype, &plan.recipe, jobs).map_err(|e| e.to_string())
}

/// The plan's specs with the calibration installed on the CTA lines.
fn calibrated_specs(plan: &Plan, points: Vec<CalPoint>, estimate: Celsius) -> Vec<RunSpec> {
    let calibration = Calibration::Points {
        points,
        fluid_estimate: Some(estimate),
    };
    plan.specs
        .iter()
        .map(|s| match s.modality {
            Modality::Cta => s.clone().with_calibration(calibration.clone()),
            _ => s.clone(),
        })
        .collect()
}

/// The paper's settled tracking error (Fig. 11): RMS of DUT − truth over
/// the settled tail of every staircase level, pooled over `traces`.
fn settled_rms<'a>(traces: impl Iterator<Item = &'a TraceStore>) -> f64 {
    let mut pairs = Vec::new();
    for store in traces {
        for s in store.iter() {
            if (s.t / DWELL_S).fract() > SETTLED_PHASE {
                pairs.push((s.true_cm_s, s.dut_cm_s));
            }
        }
    }
    metrics::rms_error(&pairs)
}

struct Outcome {
    points: Vec<CalPoint>,
    fingerprints: Vec<Option<String>>,
    dut_rms_cm_s: f64,
    hp_rms_cm_s: f64,
}

/// One repetition: calibration, campaign, paper metric.
fn run_once(plan: &Plan) -> Result<(Outcome, u64), String> {
    let (points, estimate) = calibrate(plan, JOBS)?;
    let specs = calibrated_specs(plan, points.clone(), estimate);
    let results = Campaign::with_jobs(JOBS).try_run(&specs);
    let failed = results.iter().filter(|r| r.is_err()).count() as u64;
    let ok: Vec<_> = results.iter().flatten().collect();
    let cta = ok.iter().filter(|o| o.meter.modality() == Modality::Cta);
    let hp = ok
        .iter()
        .filter(|o| o.meter.modality() == Modality::HeatPulse);
    let outcome = Outcome {
        dut_rms_cm_s: settled_rms(cta.map(|o| &o.trace.samples)),
        hp_rms_cm_s: settled_rms(hp.map(|o| &o.trace.samples)),
        fingerprints: results
            .iter()
            .map(|r| r.as_ref().ok().map(outcome_fingerprint))
            .collect(),
        points,
    };
    Ok((outcome, failed))
}

pub fn end_to_end(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut last = None;
    let plan = measure(
        report,
        args.seconds,
        || setup(args.seed),
        |plan| {
            let start = Instant::now();
            let result = run_once(plan);
            let wall_s = secs(start);
            let lines = plan.specs.len() as u64 + 1;
            let failed = match &result {
                Ok((_, failed)) => *failed,
                Err(_) => lines,
            };
            last = Some(result);
            Rep {
                wall_s,
                lines,
                frames: plan.frames,
                failed,
            }
        },
    )?;
    let (outcome, _) = last.ok_or("no repetition ran")??;
    report.note(format!(
        "campaign: {} specs + calibration, {} frames per repetition; settled RMS error \
         CTA {:.4} cm/s, heat-pulse {:.4} cm/s",
        plan.specs.len(),
        plan.frames,
        outcome.dut_rms_cm_s,
        outcome.hp_rms_cm_s
    ));
    report.check(outcome.dut_rms_cm_s.is_finite(), || {
        "CTA settled tracking error is not finite".into()
    });
    let (serial_points, _) = calibrate(&plan, 1)?;
    report.check(
        format!("{serial_points:?}") == format!("{:?}", outcome.points),
        || format!("calibration points differ between jobs 1 and {JOBS}"),
    );
    for (i, spec) in plan.specs.iter().enumerate().skip(plan.cta_lines) {
        let serial = spec.execute().ok().map(|o| outcome_fingerprint(&o));
        report.check(
            serial.is_some() && serial == outcome.fingerprints[i],
            || format!("spec {} differs between jobs 1 and {JOBS}", spec.label),
        );
    }
    Ok(())
}

/// Observation on vs off: the median, over [`OBS_PAIRS`] alternating
/// pairs, of the wall-time ratio of a shortened CTA staircase run with
/// and without the observability hooks.
fn obs_overhead_ratio(cta: &RunSpec) -> Result<f64, String> {
    let mut on = cta.clone();
    on.scenario = Scenario::fig11_staircase(OBS_DWELL_S);
    let off = on.clone().without_obs();
    let time = |spec: &RunSpec| -> Result<f64, String> {
        let start = Instant::now();
        spec.execute().map_err(|e| e.to_string())?;
        Ok(secs(start))
    };
    let mut ratios = Vec::with_capacity(OBS_PAIRS);
    for pair in 0..OBS_PAIRS {
        let (t_on, t_off) = if pair % 2 == 0 {
            let t_on = time(&on)?;
            (t_on, time(&off)?)
        } else {
            let t_off = time(&off)?;
            (time(&on)?, t_off)
        };
        ratios.push(t_on / t_off);
    }
    Ok(crate::report::median(&ratios))
}

pub fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let plan = setup(args.seed)?;
    let (points, estimate) = calibrate(&plan, JOBS)?;
    let specs = calibrated_specs(&plan, points, estimate);

    let start = Instant::now();
    let reference: Vec<String> = specs
        .iter()
        .map(|spec| spec.execute().map(|o| outcome_fingerprint(&o)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut untraced_s = secs(start);
    let obs_overhead = obs_overhead_ratio(&specs[0])?;

    let mut layers = Layers::default();
    let start = Instant::now();
    let (points, estimate) = layers.time("core.calibration.collect", || calibrate(&plan, 1))?;
    let specs = calibrated_specs(&plan, points, estimate);
    let mut line_ns = 0.0;
    let mut traces = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let t = Instant::now();
        let traced = drive_traced(spec).map_err(|e| e.to_string())?;
        line_ns += t.elapsed().as_nanos() as f64;
        layers.absorb_line(&traced);
        report.check(traced.fingerprint() == reference[i], || {
            format!("traced spec {} diverged from execute()", spec.label)
        });
        traces.push(traced);
    }
    let dut_rms = layers.time("rig.metrics.paper", || {
        settled_rms(traces[..plan.cta_lines].iter().map(|t| &t.samples))
    });
    drop(traces);
    let wall_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    for spec in &specs {
        spec.execute().map_err(|e| e.to_string())?;
    }
    untraced_s = 0.5 * (untraced_s + secs(start));

    let start = Instant::now();
    let busy = exec::parallel_map_indexed(&specs, JOBS, |_, spec| {
        let t = Instant::now();
        let ok = spec.execute().is_ok();
        (secs(t), ok)
    });
    let parallel_s = secs(start);
    report.tally(
        busy.len() as u64,
        busy.iter().filter(|(_, ok)| !ok).count() as u64,
    );

    let env = WaterLine::new(Scenario::steady(100.0, 1.0), plan.meter_seed).step(Seconds::new(
        plan.config.decimation as f64 / plan.config.modulator_rate.get(),
    ));
    kernels::split_step_frame(&mut layers, plan.config, plan.params, plan.meter_seed, env)?;

    layers.set(
        "rig.exec.busy_share",
        busy.iter().map(|(s, _)| s).sum::<f64>() / (JOBS as f64 * parallel_s),
    );
    layers.set("rig.obs.overhead_ratio", obs_overhead);
    layers.set("accuracy.dut_rms_cm_s", dut_rms);
    layers.set("trace.overhead_ratio", line_ns / 1e9 / untraced_s);
    layers.set("trace.wall_s", wall_ns / 1e9);
    layers.emit(report, wall_ns);
    Ok(())
}
