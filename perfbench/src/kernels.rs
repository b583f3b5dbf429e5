//! Kernel costs below the meter. The traced run cannot open the meter's
//! frame walk, so it times the public kernels the walk calls —
//! `MafDie::step`, `BridgeConfig::solve`, `InputChannel::draw_noise`,
//! `sample_block`, `dc_code` and `CicDecimator::push_block` — standalone,
//! on the workload's configuration and operating point, and charges each
//! at the call count the traced frames imply. `core.control` is what is
//! left of the measured `step_frame` time: a derived figure.

use crate::report::median;
use crate::trace::{Layers, Span};
use hotwire_core::{FlowMeter, FlowMeterConfig};
use hotwire_dsp::cic::CicDecimator;
use hotwire_isif::channel::InputChannel;
use hotwire_physics::sensor::HeaterId;
use hotwire_physics::{MafParams, SensorEnvironment};
use hotwire_units::Seconds;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Most calls any one kernel is timed for (the traced frames imply more
/// on the exact tier; the per-call cost is what is charged).
const MAX_CALLS: u64 = 400_000;
/// Rounds the kernels are timed in, interleaved, so a burst of load from
/// elsewhere on the machine spoils one round of one kernel; each kernel
/// reports its median round.
const ROUNDS: u64 = 7;
/// Frames the template meter runs before its state is copied, so the
/// kernels see the loop's operating point rather than a cold die.
const WARM_FRAMES: usize = 200;

/// One kernel under test: its layer name, the calls the traced frames
/// imply, how many of them to time, and one call (given its index).
struct Kernel<'a> {
    name: &'static str,
    calls: u64,
    timed: u64,
    call: Box<dyn FnMut(u64) + 'a>,
}

/// Nanoseconds per call of each kernel: the median of [`ROUNDS`]
/// interleaved rounds.
fn time_kernels(kernels: &mut [Kernel<'_>]) -> Vec<f64> {
    let mut rounds = vec![Vec::with_capacity(ROUNDS as usize); kernels.len()];
    for _ in 0..ROUNDS {
        for (k, times) in kernels.iter_mut().zip(rounds.iter_mut()) {
            let n = (k.timed.clamp(1, MAX_CALLS) / ROUNDS).max(1);
            let start = Instant::now();
            for i in 0..n {
                (k.call)(i);
            }
            times.push(start.elapsed().as_nanos() as f64 / n as f64);
        }
    }
    rounds.iter().map(|r| median(r)).collect()
}

/// The meter's input channels, built fresh from its channel configs.
fn channels(meter: &mut FlowMeter, config: &FlowMeterConfig) -> Result<Vec<InputChannel>, String> {
    let platform = meter.platform_mut();
    (0..platform.configured_channels())
        .map(|i| {
            let cfg = *platform.channel_mut(i).map_err(|e| e.to_string())?.config();
            InputChannel::new(cfg, config.modulator_rate).map_err(|e| e.to_string())
        })
        .collect()
}

/// Times the kernels for the frames counted in `layers` (CTA exact and
/// fast tiers) on `config` at `env`, and splits the measured
/// `core.step_frame` time into kernel spans plus the derived
/// `core.control` remainder.
///
/// # Errors
///
/// Whatever building the template meter or its channels returns.
pub fn split_step_frame(
    layers: &mut Layers,
    config: FlowMeterConfig,
    params: MafParams,
    seed: u64,
    env: SensorEnvironment,
) -> Result<(), String> {
    let exact_ticks = layers.exact_frames * u64::from(layers.ticks_per_frame);
    let fast = layers.fast_frames;
    if exact_ticks + fast == 0 {
        return Ok(());
    }
    let mut meter = FlowMeter::new(config, params, seed).map_err(|e| e.to_string())?;
    for _ in 0..WARM_FRAMES {
        meter.step_frame(env);
    }
    let mut die = meter.die().clone();
    let bridge = *meter.bridge();
    let supply = meter.platform_mut().supply_voltage();
    let rt = die.reference_resistance();
    let rh_a = die.heater_resistance(HeaterId::A);
    let rh_b = die.heater_resistance(HeaterId::B);
    let out_a = bridge.solve(supply, rh_a, rt);
    let out_b = bridge.solve(supply, rh_b, rt);
    let diff = (out_a.differential + out_b.differential) * 0.5;
    let overtemp = env.fluid_temperature.get() - 25.0;
    let tick_dt = 1.0 / config.modulator_rate.get();
    let die_dt = Seconds::new(if exact_ticks > 0 {
        tick_dt
    } else {
        tick_dt * f64::from(config.decimation)
    });
    let mut noise_lanes = channels(&mut meter, &config)?;
    let mut block_lanes = channels(&mut meter, &config)?;
    let mut dc_lanes = channels(&mut meter, &config)?;
    let lanes = noise_lanes.len().max(1) as u64;
    let depth = layers.ticks_per_frame as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let diffs = vec![diff.get(); depth];
    let noises: Vec<f64> = (0..depth)
        .map(|_| block_lanes[0].draw_noise(&mut rng))
        .collect();
    let mut bits = vec![0i32; depth];
    let mut out = Vec::with_capacity(4);
    // A modulator bitstream from the block kernel feeds the CIC alone.
    block_lanes[0].sample_block(&diffs, &noises, &mut bits, overtemp, &mut out);
    let cic_bits = bits.clone();
    let cic_config = *block_lanes[0].config();
    let mut cic = CicDecimator::new(cic_config.cic_order, cic_config.decimation)
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::with_capacity(4);
    let (mut die_rng, mut noise_rng, mut dc_rng) = (rng.clone(), rng.clone(), rng);

    let die_calls = exact_ticks + fast;
    let block_calls = lanes * layers.exact_frames;
    let mut kernels = vec![
        Kernel {
            name: "physics.die_step",
            calls: die_calls,
            timed: die_calls,
            call: Box::new(|_| {
                die.step(
                    die_dt,
                    out_a.heater_power,
                    out_b.heater_power,
                    env,
                    &mut die_rng,
                );
            }),
        },
        Kernel {
            name: "afe.bridge_solve",
            calls: 2 * die_calls,
            timed: 2 * die_calls,
            call: Box::new(|_| {
                black_box(bridge.solve(black_box(supply), black_box(rh_a), black_box(rt)));
            }),
        },
    ];
    if exact_ticks > 0 {
        kernels.push(Kernel {
            name: "afe.noise_draw",
            calls: lanes * exact_ticks,
            timed: lanes * exact_ticks,
            call: Box::new(|i| {
                black_box(noise_lanes[(i % lanes) as usize].draw_noise(&mut noise_rng));
            }),
        });
        kernels.push(Kernel {
            name: "isif.channel_block",
            calls: block_calls,
            timed: block_calls / 4,
            call: Box::new(|i| {
                out.clear();
                block_lanes[(i % lanes) as usize]
                    .sample_block(&diffs, &noises, &mut bits, overtemp, &mut out);
            }),
        });
        kernels.push(Kernel {
            name: "dsp.cic_block",
            calls: block_calls,
            timed: block_calls / 4,
            call: Box::new(|_| {
                raw.clear();
                cic.push_block(black_box(&cic_bits), &mut raw);
            }),
        });
    }
    if fast > 0 {
        kernels.push(Kernel {
            name: "isif.channel_dc",
            calls: lanes * fast,
            timed: lanes * fast,
            call: Box::new(|i| {
                black_box(dc_lanes[(i % lanes) as usize].dc_code(
                    black_box(diff),
                    overtemp,
                    &mut dc_rng,
                ));
            }),
        });
    }
    let per_call = time_kernels(&mut kernels);
    let mut spans: Vec<(&'static str, u64, f64)> = kernels
        .iter()
        .zip(&per_call)
        .map(|(k, &ns)| (k.name, k.calls, ns))
        .collect();
    // `sample_block` contains the CIC walk: its self time excludes it.
    let cic_ns = spans
        .iter()
        .find(|(name, _, _)| *name == "dsp.cic_block")
        .map(|&(_, _, ns)| ns);
    for (name, _, ns) in &mut spans {
        if let ("isif.channel_block", Some(cic)) = (*name, cic_ns) {
            *ns = (*ns - cic).max(0.0);
        }
    }
    drop(kernels);

    let whole = layers
        .totals
        .get("core.step_frame")
        .copied()
        .unwrap_or_default();
    let mut kernels_ns = 0.0;
    for (name, calls, ns) in spans {
        kernels_ns += calls as f64 * ns;
        layers.add(
            name,
            Span {
                calls,
                ns: calls as f64 * ns,
            },
        );
    }
    layers.add(
        "core.control",
        Span {
            calls: whole.calls,
            ns: whole.ns - kernels_ns,
        },
    );
    Ok(())
}
