//! The traced run's instruments: benchmark-side wrappers around the
//! program's public seams (a [`Meter`] and a [`Recorder`]), a function
//! that runs one [`RunSpec`] through them, and the per-layer accumulator
//! that turns spans into `<layer>.calls` / `.ns` / `.share` metrics.
//!
//! A layer's *self* time is the time spent in its span minus the child
//! spans inside it. The spans recorded here are disjoint, so their sum
//! over the traced wall time is the trace coverage.

use crate::report::Report;
use hotwire_afe::ThermometerDac;
use hotwire_core::faults::AdcFault;
use hotwire_core::{
    CoreError, EventKind, FlowMeter, HealthState, HeatPulseMeter, Measurement, Meter, Observer,
};
use hotwire_physics::SensorEnvironment;
use hotwire_rig::campaign::build_meter;
use hotwire_rig::record::{PolicyRecorder, RunReductions, TraceStore};
use hotwire_rig::runner::RunTail;
use hotwire_rig::{
    AnyMeter, Calibration, EventLog, LineRunner, MaintenanceEngine, Modality, Recorder, RunSpec,
    TraceSample,
};
use hotwire_units::{Celsius, MetersPerSecond, Seconds, Watts};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Calls into one layer and the nanoseconds they took.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Span {
    /// Calls (or work units, e.g. bytes) counted.
    pub calls: u64,
    /// Nanoseconds spent.
    pub ns: f64,
}

impl Span {
    /// Counts one call that started at `since`.
    pub fn hit(&mut self, since: Instant) {
        self.calls += 1;
        self.ns += since.elapsed().as_nanos() as f64;
    }

    /// Adds another span.
    pub fn merge(&mut self, other: Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// The calibration observables (age, drift, wear, fluid temperature)
/// are plain reads called once or more per control frame; one call in
/// this many is timed and the rest are charged at the sampled mean, which
/// keeps the wrapper's own cost well below theirs.
const OBSERVABLE_SAMPLE: u64 = 16;

/// Nanoseconds one `Instant::now()` / `elapsed()` pair adds to a timed
/// region, measured once per process. Sampled observables subtract it:
/// they cost about as much as the timer itself.
fn timer_ns() -> f64 {
    static TIMER_NS: OnceLock<f64> = OnceLock::new();
    *TIMER_NS.get_or_init(|| {
        const N: u32 = 20_000;
        let mut total = 0.0;
        for _ in 0..N {
            let start = Instant::now();
            total += start.elapsed().as_nanos() as f64;
        }
        total / f64::from(N)
    })
}

/// Sampled timing of calls that are too cheap to time one by one.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sampled {
    /// Calls made.
    pub calls: u64,
    /// Calls made from inside the maintenance engine.
    pub in_service: u64,
    /// Calls timed.
    pub timed: u64,
    /// Nanoseconds of the timed calls.
    pub timed_ns: f64,
}

impl Sampled {
    /// Estimated nanoseconds of `calls` calls at the sampled mean.
    pub fn estimate_ns(&self, calls: u64) -> f64 {
        ratio(self.timed_ns, self.timed as f64) * calls as f64
    }
}

/// What a [`TimedMeter`] saw during one run.
#[derive(Debug, Default, Clone)]
pub struct MeterClock {
    /// `step_frame` calls (one control frame each).
    pub frames: Span,
    /// `step` calls (one modulator tick each: the runner's per-tick path).
    pub ticks: Span,
    /// `step` calls that ended a control frame.
    pub tick_measurements: u64,
    /// Calibration actions (re-zero, refit, persist, reload).
    pub calibration: Span,
    /// The part of `calibration` made from inside the maintenance engine.
    pub calibration_in_service: Span,
    /// Calibration observables (age, drift, wear, fluid temperature).
    pub observables: Cell<Sampled>,
    /// Fault-surface calls (the injector's hooks).
    pub faults: Span,
    /// `MaintenanceEngine::service` calls, including the calibration calls
    /// they make.
    pub service: Span,
}

impl MeterClock {
    /// The calibration surface: actions plus estimated observable time.
    pub fn calibration_surface(&self) -> Span {
        let obs = self.observables.get();
        Span {
            calls: self.calibration.calls + obs.calls,
            ns: self.calibration.ns + obs.estimate_ns(obs.calls),
        }
    }

    /// Calibration-surface nanoseconds spent inside the engine.
    pub fn calibration_in_service_ns(&self) -> f64 {
        let obs = self.observables.get();
        self.calibration_in_service.ns + obs.estimate_ns(obs.in_service)
    }
}

/// A [`Meter`] that times and counts every call into the meter's
/// stepping, calibration and fault surfaces, delegating each one
/// unchanged. It can also own the line's [`MaintenanceEngine`] and
/// service it right after each measurement — exactly where the runner
/// services an installed engine — so the engine's own time is separable.
#[derive(Debug)]
pub struct TimedMeter<M> {
    inner: M,
    /// Calls and time seen so far.
    pub clock: MeterClock,
    engine: Option<MaintenanceEngine>,
    in_service: bool,
}

impl<M: Meter> TimedMeter<M> {
    /// Wraps `inner`; `engine` (if any) is serviced once per measurement.
    pub fn new(inner: M, engine: Option<MaintenanceEngine>) -> Self {
        TimedMeter {
            inner,
            clock: MeterClock::default(),
            engine,
            in_service: false,
        }
    }

    /// The wrapped meter and the maintenance engine.
    pub fn into_parts(self) -> (M, MeterClock, Option<MaintenanceEngine>) {
        (self.inner, self.clock, self.engine)
    }

    fn service(&mut self) {
        if let Some(mut engine) = self.engine.take() {
            self.in_service = true;
            let start = Instant::now();
            engine.service(self);
            self.clock.service.hit(start);
            self.in_service = false;
            self.engine = Some(engine);
        }
    }

    fn calibration<T>(&mut self, start: Instant, value: T) -> T {
        if self.in_service {
            self.clock.calibration_in_service.hit(start);
        }
        self.clock.calibration.hit(start);
        value
    }

    fn observable<T>(&self, read: impl FnOnce(&M) -> T) -> T {
        let mut s = self.clock.observables.get();
        s.calls += 1;
        s.in_service += u64::from(self.in_service);
        let value = if s.calls % OBSERVABLE_SAMPLE == 1 {
            let start = Instant::now();
            let value = read(&self.inner);
            s.timed += 1;
            s.timed_ns += (start.elapsed().as_nanos() as f64 - timer_ns()).max(0.0);
            value
        } else {
            read(&self.inner)
        };
        self.clock.observables.set(s);
        value
    }
}

impl<M: Meter> Meter for TimedMeter<M> {
    fn step(&mut self, env: SensorEnvironment) -> Option<Measurement> {
        let start = Instant::now();
        let m = self.inner.step(env);
        self.clock.ticks.hit(start);
        if m.is_some() {
            self.clock.tick_measurements += 1;
            self.service();
        }
        m
    }

    fn step_frame(&mut self, env: SensorEnvironment) -> Measurement {
        let start = Instant::now();
        let m = self.inner.step_frame(env);
        self.clock.frames.hit(start);
        self.service();
        m
    }

    fn frame_phase(&self) -> u32 {
        self.inner.frame_phase()
    }

    fn ticks_per_frame(&self) -> u32 {
        self.inner.ticks_per_frame()
    }

    fn control_period(&self) -> Seconds {
        self.inner.control_period()
    }

    fn full_scale(&self) -> MetersPerSecond {
        self.inner.full_scale()
    }

    fn health(&self) -> HealthState {
        self.inner.health()
    }

    fn power_draw(&self) -> Watts {
        self.inner.power_draw()
    }

    fn state_digest(&self) -> u64 {
        self.inner.state_digest()
    }

    fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.inner.set_observer(observer);
    }

    fn take_observer(&mut self) -> Option<Box<dyn Observer>> {
        self.inner.take_observer()
    }

    fn has_observer(&self) -> bool {
        self.inner.has_observer()
    }

    fn observe(&mut self, kind: EventKind) {
        self.inner.observe(kind);
    }

    fn reload_calibration(&mut self) -> Result<(), CoreError> {
        let start = Instant::now();
        let r = self.inner.reload_calibration();
        self.calibration(start, r)
    }

    fn re_zero(&mut self) {
        let start = Instant::now();
        self.inner.re_zero();
        self.calibration(start, ());
    }

    fn refit_from_recent(&mut self) -> bool {
        let start = Instant::now();
        let r = self.inner.refit_from_recent();
        self.calibration(start, r)
    }

    fn persist(&mut self) -> Result<(), CoreError> {
        let start = Instant::now();
        let r = self.inner.persist();
        self.calibration(start, r)
    }

    fn calibration_age(&self) -> u64 {
        self.observable(|m| m.calibration_age())
    }

    fn drift_estimate(&self) -> f64 {
        self.observable(|m| m.drift_estimate())
    }

    fn calibration_wear(&self) -> u64 {
        self.observable(|m| m.calibration_wear())
    }

    fn fluid_temperature(&self) -> Option<Celsius> {
        self.observable(|m| m.fluid_temperature())
    }

    fn inject_adc_fault(&mut self, fault: Option<AdcFault>) {
        let start = Instant::now();
        self.inner.inject_adc_fault(fault);
        self.clock.faults.hit(start);
    }

    fn degrade_supply(&mut self, fraction: f64) -> Option<ThermometerDac> {
        let start = Instant::now();
        let r = self.inner.degrade_supply(fraction);
        self.clock.faults.hit(start);
        r
    }

    fn restore_supply(&mut self, saved: Option<ThermometerDac>) {
        let start = Instant::now();
        self.inner.restore_supply(saved);
        self.clock.faults.hit(start);
    }

    fn corrupt_calibration(&mut self, slot: usize, byte: usize) {
        let start = Instant::now();
        self.inner.corrupt_calibration(slot, byte);
        self.clock.faults.hit(start);
    }

    fn inject_bubble_burst(&mut self, coverage: f64) {
        let start = Instant::now();
        self.inner.inject_bubble_burst(coverage);
        self.clock.faults.hit(start);
    }

    fn deposit_fouling(&mut self, microns: f64) {
        let start = Instant::now();
        self.inner.deposit_fouling(microns);
        self.clock.faults.hit(start);
    }

    fn worst_bubble_coverage(&self) -> f64 {
        self.inner.worst_bubble_coverage()
    }

    fn worst_fouling_um(&self) -> f64 {
        self.inner.worst_fouling_um()
    }
}

/// A [`Recorder`] that times every `record` call.
#[derive(Debug)]
pub struct TimedRecorder<R> {
    /// The wrapped sink.
    pub inner: R,
    /// `record` calls and their time.
    pub span: Span,
}

impl<R: Recorder> Recorder for TimedRecorder<R> {
    fn record(&mut self, sample: &TraceSample) {
        let start = Instant::now();
        self.inner.record(sample);
        self.span.hit(start);
    }
}

/// The meter family of a traced line (kernel call counts differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// CTA meter at the exact AFE tier.
    CtaExact,
    /// CTA meter at the fast AFE tier.
    CtaFast,
    /// Heat-pulse time-of-flight meter.
    HeatPulse,
}

/// One spec re-driven through the wrappers.
#[derive(Debug)]
pub struct TracedLine {
    /// The runner's tail (UART, observability; maintenance is in
    /// [`maintenance`](Self::maintenance)).
    pub tail: RunTail,
    /// The meter after the run.
    pub meter: AnyMeter,
    /// Stored trace samples (empty under `MetricsOnly`).
    pub samples: TraceStore,
    /// Streaming reductions.
    pub reduced: RunReductions,
    /// Maintenance actions the wrapper-owned engine took.
    pub maintenance: hotwire_rig::MaintenanceCounters,
    /// Meter family.
    pub family: Family,
    /// Modulator ticks per control frame.
    pub ticks_per_frame: u32,
    /// Meter construction (without calibration fit).
    pub build: Span,
    /// Calibration fit on a built meter.
    pub fit: Span,
    /// Meter-wrapper calls.
    pub clock: MeterClock,
    /// Recorder-wrapper calls.
    pub record: Span,
    /// `LineRunner::run_with`, whole.
    pub run: Span,
}

impl TracedLine {
    /// Nanoseconds of `run_with` not spent inside a wrapper: the line,
    /// reference meters, fault injector and sample loop.
    pub fn runner_self_ns(&self) -> f64 {
        let c = &self.clock;
        let calibration_outside = c.calibration_surface().ns - c.calibration_in_service_ns();
        self.run.ns
            - c.frames.ns
            - c.ticks.ns
            - c.service.ns
            - calibration_outside
            - c.faults.ns
            - self.record.ns
    }

    /// Everything the untraced engine would compare: end-state digest,
    /// reductions, maintenance and link counters.
    pub fn fingerprint(&self) -> String {
        format!(
            "{:016x}|{:?}|{:?}|{:?}",
            self.meter.state_digest(),
            self.reduced,
            self.maintenance,
            self.tail.uart
        )
    }
}

/// The same fingerprint for an untraced [`RunSpec::execute`] outcome.
pub fn outcome_fingerprint(o: &hotwire_rig::RunOutcome) -> String {
    format!(
        "{:016x}|{:?}|{:?}|{:?}",
        o.meter.state_digest(),
        o.reduced,
        o.maintenance,
        o.trace.uart
    )
}

/// Builds `spec`'s device under test the way [`RunSpec::execute`] does,
/// timing construction and calibration fit apart. CTA and heat-pulse
/// devices only: no workload traces reference-meter lines.
fn build_dut(spec: &RunSpec) -> Result<(AnyMeter, Family, Span, Span), CoreError> {
    let mut build = Span::default();
    let mut fit = Span::default();
    let start = Instant::now();
    let meter = match spec.modality {
        Modality::Cta => {
            let mut meter = match &spec.calibration {
                Calibration::Points {
                    points,
                    fluid_estimate,
                } => {
                    let mut meter = FlowMeter::new(spec.config, spec.params, spec.meter_seed)?;
                    build.hit(start);
                    let start = Instant::now();
                    if let Some(estimate) = fluid_estimate {
                        meter.adopt_fluid_estimate(*estimate);
                    }
                    meter.calibrate(points)?;
                    fit.hit(start);
                    meter
                }
                other => {
                    let meter = build_meter(spec.config, spec.params, spec.meter_seed, other)?;
                    build.hit(start);
                    meter
                }
            };
            if let Some(seconds) = spec.auto_zero_s {
                let start = Instant::now();
                meter.auto_zero_direction(seconds, SensorEnvironment::still_water());
                fit.hit(start);
            }
            AnyMeter::Cta(meter)
        }
        Modality::HeatPulse => {
            let meter = AnyMeter::HeatPulse(HeatPulseMeter::new(spec.config, spec.meter_seed)?);
            build.hit(start);
            meter
        }
        Modality::PromagRef | Modality::TurbineRef => {
            return Err(CoreError::Config {
                reason: "reference-meter lines are not traced",
            })
        }
    };
    let family = match (&meter, spec.config.afe_tier) {
        (AnyMeter::Cta(_), hotwire_core::config::AfeTier::Exact) => Family::CtaExact,
        (AnyMeter::Cta(_), hotwire_core::config::AfeTier::Fast) => Family::CtaFast,
        _ => Family::HeatPulse,
    };
    Ok((meter, family, build, fit))
}

/// Re-drives `spec` through the public entry points the engine uses
/// (meter construction, `LineRunner::new`, `install_faults`, `run_with`)
/// with the meter and recorder wrapped. Maintenance is serviced by the
/// meter wrapper at the point the runner would service it.
///
/// # Errors
///
/// Whatever building the meter returns.
pub fn drive_traced(spec: &RunSpec) -> Result<TracedLine, CoreError> {
    let (mut meter, family, build, fit) = build_dut(spec)?;
    if spec.obs.enabled {
        meter.set_observer(Box::new(EventLog::with_capacity(spec.obs.event_capacity)));
    }
    let engine = spec
        .maintenance
        .is_active()
        .then(|| MaintenanceEngine::new(spec.maintenance, meter.control_period()));
    let ticks_per_frame = meter.ticks_per_frame();
    let mut runner = LineRunner::new(
        spec.scenario.clone(),
        TimedMeter::new(meter, engine),
        spec.line_seed,
    );
    if let Some(schedule) = &spec.faults {
        runner.install_faults(schedule.clone());
    }
    let mut recorder = TimedRecorder {
        inner: PolicyRecorder::new(spec.record, spec.reduction_plan()),
        span: Span::default(),
    };
    recorder.inner.reserve(spec.expected_samples());
    let mut run = Span::default();
    let start = Instant::now();
    let tail = runner.run_with(spec.sample_period_s, &mut recorder);
    run.hit(start);
    let (meter, clock, engine) = runner.into_meter().into_parts();
    let (samples, reduced) = recorder.inner.finish();
    Ok(TracedLine {
        tail,
        meter,
        samples,
        reduced,
        maintenance: engine.map(|e| e.counters()).unwrap_or_default(),
        family,
        ticks_per_frame,
        build,
        fit,
        clock,
        record: recorder.span,
        run,
    })
}

/// Per-layer spans and values of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Disjoint self-time spans, by layer name.
    pub spans: BTreeMap<&'static str, Span>,
    /// Whole-call spans that overlap `spans` (reported, not summed).
    pub totals: BTreeMap<&'static str, Span>,
    /// Plain values (counts, ratios, bytes).
    pub values: BTreeMap<&'static str, f64>,
    /// CTA exact-tier frames.
    pub exact_frames: u64,
    /// Modulator ticks per exact-tier frame.
    pub ticks_per_frame: u32,
    /// CTA fast-tier frames.
    pub fast_frames: u64,
}

impl Layers {
    /// Adds a self-time span.
    pub fn add(&mut self, name: &'static str, span: Span) {
        self.spans.entry(name).or_default().merge(span);
    }

    /// Times `f` as a self-time span of one call.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let r = f();
        let mut span = Span::default();
        span.hit(start);
        self.add(name, span);
        r
    }

    /// Sets a plain value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds to a plain value.
    pub fn bump(&mut self, name: &'static str, by: f64) {
        *self.values.entry(name).or_insert(0.0) += by;
    }

    /// Folds one traced line into the layer spans.
    pub fn absorb_line(&mut self, line: &TracedLine) {
        let c = &line.clock;
        self.add("core.build", line.build);
        self.add("core.calibration.fit", line.fit);
        match line.family {
            Family::CtaExact => {
                self.exact_frames += c.frames.calls;
                self.ticks_per_frame = line.ticks_per_frame;
                self.totals
                    .entry("core.step_frame")
                    .or_default()
                    .merge(c.frames);
            }
            Family::CtaFast => {
                self.fast_frames += c.frames.calls;
                self.totals
                    .entry("core.step_frame")
                    .or_default()
                    .merge(c.frames);
            }
            Family::HeatPulse => self.add("core.heat_pulse.step_frame", c.frames),
        }
        self.add("core.step_tick", c.ticks);
        if line.family != Family::HeatPulse {
            self.bump(
                "core.modulator_ticks.frame",
                (c.frames.calls * u64::from(line.ticks_per_frame)) as f64,
            );
            self.bump("core.modulator_ticks.fallback", c.ticks.calls as f64);
        }
        self.add("core.calibration_surface", c.calibration_surface());
        self.add("core.fault_surface", c.faults);
        self.add(
            "rig.maintain.self",
            Span {
                calls: c.service.calls,
                ns: c.service.ns - c.calibration_in_service_ns(),
            },
        );
        self.add("rig.record.record", line.record);
        self.add(
            "rig.runner.self",
            Span {
                calls: c.frames.calls + c.tick_measurements,
                ns: line.runner_self_ns(),
            },
        );
        self.bump("rig.maintain.actions", line.maintenance.actions() as f64);
        self.bump("rig.maintain.persists", line.maintenance.persists as f64);
        self.bump(
            "rig.maintain.persists_skipped",
            line.maintenance.persists_skipped as f64,
        );
        self.bump(
            "rig.record.trace_heap_bytes",
            line.samples.heap_bytes() as f64,
        );
        if let Some(obs) = &line.tail.obs {
            self.bump("rig.obs.events", obs.counters.events_recorded as f64);
            self.bump("rig.obs.events_dropped", obs.counters.events_dropped as f64);
        }
    }

    /// Emits every per-layer metric in [`PER_LAYER`] for a traced phase
    /// of `wall_ns` nanoseconds.
    pub fn emit(&self, report: &mut Report, wall_ns: f64) {
        let self_ns: f64 = self.spans.values().map(|s| s.ns).sum();
        let modulator_frame = self
            .values
            .get("core.modulator_ticks.frame")
            .copied()
            .unwrap_or(0.0);
        let fallback = self
            .values
            .get("core.modulator_ticks.fallback")
            .copied()
            .unwrap_or(0.0);
        let persists = self
            .values
            .get("rig.maintain.persists")
            .copied()
            .unwrap_or(0.0);
        let skipped = self
            .values
            .get("rig.maintain.persists_skipped")
            .copied()
            .unwrap_or(0.0);
        for &(name, unit) in PER_LAYER {
            let value = if name == "trace.coverage" {
                self_ns / wall_ns
            } else if name == "core.fallback_tick_share" {
                ratio(fallback, modulator_frame + fallback)
            } else if name == "rig.maintain.persist_grant_ratio" {
                ratio(persists, persists + skipped)
            } else if let Some(v) = self.values.get(name) {
                *v
            } else if let Some((layer, field)) = name.rsplit_once('.') {
                let span = self
                    .spans
                    .get(layer)
                    .or_else(|| self.totals.get(layer))
                    .copied()
                    .unwrap_or_default();
                match field {
                    "calls" => span.calls as f64,
                    "ns" => ratio(span.ns, span.calls as f64),
                    "share" => span.ns / wall_ns,
                    _ => 0.0,
                }
            } else {
                0.0
            };
            report.metric(name, value, unit);
        }
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, `(name, unit)`, in report order. A layer a
/// workload does not exercise reports 0. `.ns` is self time per call
/// (per byte for `rig.ingest.offer`, per decoded frame for
/// `rig.ingest.poll`); `.share` is self time over the traced wall time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("physics.die_step.calls", "count"),
    ("physics.die_step.ns", "ns"),
    ("physics.die_step.share", "ratio"),
    ("afe.bridge_solve.calls", "count"),
    ("afe.bridge_solve.ns", "ns"),
    ("afe.bridge_solve.share", "ratio"),
    ("afe.noise_draw.calls", "count"),
    ("afe.noise_draw.ns", "ns"),
    ("afe.noise_draw.share", "ratio"),
    ("isif.channel_block.calls", "count"),
    ("isif.channel_block.ns", "ns"),
    ("isif.channel_block.share", "ratio"),
    ("dsp.cic_block.calls", "count"),
    ("dsp.cic_block.ns", "ns"),
    ("dsp.cic_block.share", "ratio"),
    ("isif.channel_dc.calls", "count"),
    ("isif.channel_dc.ns", "ns"),
    ("isif.channel_dc.share", "ratio"),
    ("core.step_frame.calls", "count"),
    ("core.step_frame.ns", "ns"),
    ("core.step_frame.share", "ratio"),
    ("core.control.ns", "ns"),
    ("core.control.share", "ratio"),
    ("core.step_tick.calls", "count"),
    ("core.step_tick.ns", "ns"),
    ("core.step_tick.share", "ratio"),
    ("core.fallback_tick_share", "ratio"),
    ("core.heat_pulse.step_frame.calls", "count"),
    ("core.heat_pulse.step_frame.ns", "ns"),
    ("core.heat_pulse.step_frame.share", "ratio"),
    ("core.build.ns", "ns"),
    ("core.build.share", "ratio"),
    ("core.calibration.collect.ns", "ns"),
    ("core.calibration.collect.share", "ratio"),
    ("core.calibration.fit.calls", "count"),
    ("core.calibration.fit.ns", "ns"),
    ("core.calibration.fit.share", "ratio"),
    ("core.calibration_surface.calls", "count"),
    ("core.calibration_surface.ns", "ns"),
    ("core.calibration_surface.share", "ratio"),
    ("core.fault_surface.calls", "count"),
    ("core.fault_surface.share", "ratio"),
    ("rig.runner.self.ns", "ns"),
    ("rig.runner.self.share", "ratio"),
    ("rig.maintain.self.ns", "ns"),
    ("rig.maintain.self.share", "ratio"),
    ("rig.maintain.actions", "count"),
    ("rig.maintain.persist_grant_ratio", "ratio"),
    ("rig.record.record.calls", "count"),
    ("rig.record.record.ns", "ns"),
    ("rig.record.record.share", "ratio"),
    ("rig.record.trace_heap_bytes", "B"),
    ("rig.fleet.line_spec.ns", "ns"),
    ("rig.fleet.line_spec.share", "ratio"),
    ("rig.fleet.push.ns", "ns"),
    ("rig.fleet.push.share", "ratio"),
    ("rig.fleet.merge.calls", "count"),
    ("rig.fleet.merge.ns", "ns"),
    ("rig.fleet.merge.share", "ratio"),
    ("rig.fleet.finalize.ns", "ns"),
    ("rig.fleet.finalize.share", "ratio"),
    ("rig.checkpoint.encode.calls", "count"),
    ("rig.checkpoint.encode.ns", "ns"),
    ("rig.checkpoint.encode.share", "ratio"),
    ("rig.checkpoint.decode.ns", "ns"),
    ("rig.checkpoint.decode.share", "ratio"),
    ("rig.checkpoint.bytes", "B"),
    ("rig.fleet.peak_shard_heap_bytes", "B"),
    ("rig.exec.busy_share", "ratio"),
    ("rig.ingest.offer.calls", "count"),
    ("rig.ingest.offer.ns", "ns"),
    ("rig.ingest.offer.share", "ratio"),
    ("rig.ingest.poll.calls", "count"),
    ("rig.ingest.poll.ns", "ns"),
    ("rig.ingest.poll.share", "ratio"),
    ("rig.ingest.session.ns", "ns"),
    ("rig.ingest.session.share", "ratio"),
    ("rig.ingest.absorb.ns", "ns"),
    ("rig.ingest.absorb.share", "ratio"),
    ("isif.uart.crc_errors", "count"),
    ("isif.uart.resyncs", "count"),
    ("isif.uart.recovered_frames", "count"),
    ("rig.ingest.records_lost", "count"),
    ("rig.ingest.good_frame_ratio", "ratio"),
    ("rig.ingest.delivery_ratio", "ratio"),
    ("rig.ingest.detection_fidelity", "ratio"),
    ("rig.obs.events", "count"),
    ("rig.obs.events_dropped", "count"),
    ("rig.obs.overhead_ratio", "ratio"),
    ("accuracy.err_rms_p99_cm_s", "cm/s"),
    ("accuracy.resolution_p50_pct_fs", "%"),
    ("accuracy.dut_rms_cm_s", "cm/s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
];
