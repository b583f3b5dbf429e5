//! `hotpath_bench` — measures the modulator-rate hot path and guards the
//! SoA block walk against regressions.
//!
//! Three measurements of the same water-station meter on a steady line,
//! written to `BENCH_hotpath.json` as modulator-equivalent samples/s:
//!
//! * **scalar** — one [`FlowMeter::step`] call per modulator tick (the
//!   historical per-sample path, kept as the alignment/fallback path);
//! * **block** — one [`FlowMeter::step_frame`] call per decimation frame
//!   (the default `AfeTier::Exact` tier, bit-identical to scalar);
//! * **fast** — `step_frame` under the opt-in `AfeTier::Fast` tier
//!   (quasi-static once-per-frame AFE, bounded-error).
//!
//! Two machine-transferable figures price the per-tick kernels against a
//! uniform `gen::<f64>` draw on the same generator:
//!
//! * `normal_per_uniform` — ns per [`standard_normal`], the Gaussian
//!   generator every noise model draws through;
//! * `die_per_uniform` — ns per
//!   [`MafDie::step`](hotwire_physics::MafDie::step) at the water-station
//!   operating point, the die physics every exact-tier tick runs.
//!
//! ```sh
//! cargo run -p hotwire-bench --release --bin hotpath_bench
//! cargo run -p hotwire-bench --release --bin hotpath_bench -- --smoke --out out.json
//! cargo run -p hotwire-bench --release --bin hotpath_bench -- --smoke --out BENCH_hotpath_ci.json --check BENCH_hotpath.json
//! ```
//!
//! `--check BASELINE` gates the *ratios* (block/scalar and fast/scalar
//! speedups, which may not fall; `normal_per_uniform` and
//! `die_per_uniform`, which may not rise), not the absolute samples/s:
//! ratios transfer between machines, absolute throughput does not. The
//! two kernels need their own gates because a slower kernel slows the
//! scalar denominator and so *raises* `fast_speedup`.
//!
//! The baseline is read before the run writes its report, and `--check`
//! refuses a baseline that is also the `--out` file (the default `--out`
//! is the committed `BENCH_hotpath.json`), which would gate the run against
//! itself.

use hotwire_bench::report::{self, json_number};
use hotwire_core::config::AfeTier;
use hotwire_core::{FlowMeter, FlowMeterConfig};
use hotwire_physics::sensor::HeaterId;
use hotwire_physics::stochastic::standard_normal;
use hotwire_physics::{MafParams, SensorEnvironment};
use hotwire_units::MetersPerSecond;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: hotpath_bench [--smoke] [--out PATH] [--check BASELINE]
options:
  --smoke          scaled-down frame count for CI
  --out PATH       where to write the JSON report (default: BENCH_hotpath.json)
  --check BASELINE compare against a committed BENCH_hotpath.json (not the
                   --out file); exit 1 if a speedup ratio fell, or
                   normal_per_uniform or die_per_uniform rose, more than 30 %";

/// Fraction of a baseline ratio the fresh measurement may lose (a
/// speedup) or gain (`normal_per_uniform`, `die_per_uniform`) before
/// `--check` fails.  The
/// gated quantities are *ratios* measured in the same process, so
/// machine speed cancels out — but scheduling noise on shared CI runners
/// still swings the block ratio by ±15 % run to run, hence the wide band.
/// The gate exists to catch structural regressions (an accidental
/// de-fusing of the AFE chain halves the block ratio; losing the fast
/// tier's table drops its ratio by 100×; Box–Muller in place of the
/// ziggurat multiplies `normal_per_uniform` by ≈6; a transcendental back
/// in the die's per-tick path roughly doubles `die_per_uniform`), not
/// single-digit drift.
const REGRESSION_TOLERANCE: f64 = 0.30;

/// Seed shared by all three meters so they regulate the same plant, and
/// by the generator measurement.
const SEED: u64 = 0x407_7A7;

/// The steady mid-range flow every tier is measured at.
fn bench_env() -> SensorEnvironment {
    SensorEnvironment {
        velocity: MetersPerSecond::from_cm_per_s(120.0),
        ..SensorEnvironment::still_water()
    }
}

/// A settled water-station meter on the requested tier.
fn settled_meter(tier: AfeTier, warmup_frames: u64) -> FlowMeter {
    let config = FlowMeterConfig {
        afe_tier: tier,
        ..FlowMeterConfig::water_station()
    };
    let mut meter =
        FlowMeter::new(config, MafParams::nominal(), SEED).expect("water-station config is valid");
    let env = bench_env();
    for _ in 0..warmup_frames {
        let _ = meter.step_frame(env);
    }
    meter
}

/// One tier's measurement: wall seconds for `frames` decimation frames.
struct TierRun {
    wall_s: f64,
    samples: u64,
}

impl TierRun {
    fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.wall_s
    }
}

/// Measures `frames` frames through per-tick [`FlowMeter::step`] calls.
fn measure_scalar(frames: u64, warmup_frames: u64) -> TierRun {
    let mut meter = settled_meter(AfeTier::Exact, warmup_frames);
    let env = bench_env();
    let ticks = frames * u64::from(meter.ticks_per_frame());
    let start = Instant::now();
    let mut controls = 0u64;
    for _ in 0..ticks {
        if meter.step(env).is_some() {
            controls += 1;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(controls, frames, "every frame must yield one measurement");
    TierRun {
        wall_s,
        samples: ticks,
    }
}

/// Measures `frames` frames through [`FlowMeter::step_frame`] on `tier`.
fn measure_frames(tier: AfeTier, frames: u64, warmup_frames: u64) -> TierRun {
    let mut meter = settled_meter(tier, warmup_frames);
    let env = bench_env();
    let ticks = frames * u64::from(meter.ticks_per_frame());
    let start = Instant::now();
    let mut supply_sum = 0i64;
    for _ in 0..frames {
        supply_sum += i64::from(meter.step_frame(env).supply_code);
    }
    let wall_s = start.elapsed().as_secs_f64();
    assert!(supply_sum > 0, "the loop must keep regulating");
    TierRun {
        wall_s,
        samples: ticks,
    }
}

/// Timed rounds per generator; the fastest round counts, shedding
/// scheduler noise from a loop of a few nanoseconds per draw.
const RNG_ROUNDS: usize = 3;

/// ns per draw of `draw` over `draws` calls on `rng`.
fn ns_per_draw<R, F: FnMut(&mut R) -> f64>(rng: &mut R, draws: u64, mut draw: F) -> f64 {
    let start = Instant::now();
    let mut acc = 0.0;
    for _ in 0..draws {
        acc += draw(rng);
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e9 / draws as f64
}

/// Best-of-rounds ns per uniform `gen::<f64>` and per [`standard_normal`]
/// (`draws` calls each on one seeded generator) and per
/// [`MafDie::step`](hotwire_physics::MafDie::step) (`die_steps` modulator
/// ticks of the settled water-station meter's die at its loop's bridge
/// powers), rounds interleaved.
fn measure_kernels(draws: u64, die_steps: u64) -> (f64, f64, f64) {
    let mut meter = settled_meter(AfeTier::Exact, 500);
    let mut die = meter.die().clone();
    let supply = meter.platform_mut().supply_voltage();
    let rt = die.reference_resistance();
    let power = |id| {
        meter
            .bridge()
            .solve(supply, die.heater_resistance(id), rt)
            .heater_power
    };
    let (p_a, p_b) = (power(HeaterId::A), power(HeaterId::B));
    let dt = meter.config().modulator_rate.period();
    let env = bench_env();
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let (mut uniform_ns, mut normal_ns, mut die_ns) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..RNG_ROUNDS {
        uniform_ns = uniform_ns.min(ns_per_draw(&mut rng, draws, |r| r.gen::<f64>()));
        normal_ns = normal_ns.min(ns_per_draw(&mut rng, draws, standard_normal));
        die_ns = die_ns.min(ns_per_draw(&mut rng, die_steps, |r| {
            die.step(dt, p_a, p_b, env, r);
            die.heater_temperature(HeaterId::A).get()
        }));
    }
    (uniform_ns, normal_ns, die_ns)
}

fn tier_json(run: &TierRun) -> String {
    format!(
        "{{\"samples\": {}, \"wall_s\": {}, \"samples_per_s\": {}}}",
        run.samples,
        json_number(run.wall_s),
        json_number(run.samples_per_s())
    )
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = "BENCH_hotpath.json".to_string();
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => match args.next() {
                Some(path) => check_path = Some(path),
                None => {
                    eprintln!("--check needs a baseline path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    // 0.5 s of scenario warm-up settles the CTA loop; the measured window
    // is the same number of frames for every tier so the ratios compare
    // identical work.
    let (frames, warmup_frames) = if smoke { (1_000, 500) } else { (8_000, 500) };
    let rng_draws = if smoke { 2_000_000 } else { 20_000_000 };
    let die_steps = rng_draws / 4;

    let baseline = match report::load_baseline(check_path.as_deref(), &out_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!("hotpath: {frames} water-station frames per tier (warm-up {warmup_frames})…");
    let scalar = measure_scalar(frames, warmup_frames);
    eprintln!("  scalar  {:>12.0} samples/s", scalar.samples_per_s());
    let block = measure_frames(AfeTier::Exact, frames, warmup_frames);
    eprintln!("  block   {:>12.0} samples/s", block.samples_per_s());
    let fast = measure_frames(AfeTier::Fast, frames, warmup_frames);
    eprintln!("  fast    {:>12.0} samples/s", fast.samples_per_s());

    let block_speedup = block.samples_per_s() / scalar.samples_per_s();
    let fast_speedup = fast.samples_per_s() / scalar.samples_per_s();
    eprintln!("  speedups: block {block_speedup:.2}×, fast {fast_speedup:.2}×");

    let (uniform_ns, normal_ns, die_ns) = measure_kernels(rng_draws, die_steps);
    let normal_per_uniform = normal_ns / uniform_ns;
    let die_per_uniform = die_ns / uniform_ns;
    eprintln!(
        "  kernels: uniform {uniform_ns:.2} ns, normal {normal_ns:.2} ns \
         (normal_per_uniform {normal_per_uniform:.2}×), die step {die_ns:.2} ns \
         (die_per_uniform {die_per_uniform:.2}×)"
    );

    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"profile\": \"water_station\",\n  \
         \"frames\": {frames},\n  \"scalar\": {},\n  \"block\": {},\n  \"fast\": {},\n  \
         \"block_speedup\": {},\n  \"fast_speedup\": {},\n  \
         \"rng\": {{\"draws\": {rng_draws}, \"uniform_ns\": {}, \"normal_ns\": {}}},\n  \
         \"normal_per_uniform\": {},\n  \
         \"die\": {{\"steps\": {die_steps}, \"step_ns\": {}}},\n  \
         \"die_per_uniform\": {}\n}}\n",
        tier_json(&scalar),
        tier_json(&block),
        tier_json(&fast),
        json_number(block_speedup),
        json_number(fast_speedup),
        json_number(uniform_ns),
        json_number(normal_ns),
        json_number(normal_per_uniform),
        json_number(die_ns),
        json_number(die_per_uniform),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out_path}");

    if let (Some(baseline), Some(baseline_path)) = (baseline, check_path) {
        // (name, fresh value, whether a larger value is better)
        for (name, fresh, higher_is_better) in [
            ("block_speedup", block_speedup, true),
            ("fast_speedup", fast_speedup, true),
            ("normal_per_uniform", normal_per_uniform, false),
            ("die_per_uniform", die_per_uniform, false),
        ] {
            let Some(expected) = report::parse_number(&baseline, name) else {
                eprintln!("baseline {baseline_path} has no {name}");
                return ExitCode::FAILURE;
            };
            let (limit, regressed) = if higher_is_better {
                let floor = expected * (1.0 - REGRESSION_TOLERANCE);
                (floor, fresh < floor)
            } else {
                let ceiling = expected * (1.0 + REGRESSION_TOLERANCE);
                (ceiling, fresh > ceiling)
            };
            if regressed {
                eprintln!(
                    "hot-path {name} regressed: {fresh:.2}× vs baseline {expected:.2}× \
                     (limit {limit:.2}×)"
                );
                return ExitCode::FAILURE;
            }
            eprintln!("{name} check passed: {fresh:.2}× vs baseline {expected:.2}×");
        }
    }
    ExitCode::SUCCESS
}
