//! The complete MAF die: two heaters with advective coupling, the
//! interdigitated reference resistor, and the surface degradation layers.
//!
//! Geometry (paper Fig. 1/2): two heater resistors `Rh` adjoined closely in
//! parallel on the membrane, plus reference resistors `Rt` interdigitated so
//! both half-bridges share the same ambient reference. Flow along the die
//! carries heat from the upstream heater to the downstream one — "the fluid
//! picks up heat at the first resistor and transfers this to the second
//! resistor" — producing the differential cooling that encodes *direction*.
//!
//! The die exposes a purely electrical port: the analog front end applies
//! power to each heater and reads back resistances; everything thermal stays
//! in here.
//!
//! Two rates: the die ticks every modulator tick — membrane heat balance,
//! bubbles and the reference lag — while CaCO₃ scale, which builds over
//! months, deposits once per control frame through
//! [`MafDie::deposit_scale`]. A frame of ticks splits accordingly:
//! [`MafDie::begin_frame`] evaluates once what the frame holds constant
//! (King's-law conductance and advective coupling at the frame's velocity,
//! bubble onset at its pressure, the reference-lag factor, each face's
//! scale resistance), and [`MafDie::tick`] evaluates only what moves. The
//! tick is transcendental-free between King's-law re-derivations: each
//! node's convection chain (`G_conv`, `G_tot`, decay) memoizes on its
//! bit-exact inputs ([`DecayCache`]), leaving one division per node for the
//! equilibrium temperature. [`MafDie::step`] is a one-tick frame.

use crate::bubbles::{BubbleLayer, BubbleParams};
use crate::fluid::{Air, Fluid, FluidProperties, Water};
use crate::fouling::{FoulingLayer, FoulingParams, Passivation};
use crate::kings_law::{KingsLaw, WireGeometry};
use crate::membrane::{DecayCache, MembraneParams, MembraneState, SurfaceCondition};
use crate::resistor::Rtd;
use crate::PhysicsError;
use hotwire_units::{
    Celsius, MetersPerSecond, Ohms, Pascals, Seconds, ThermalConductance, ThermalResistance, Watts,
};
use rand::Rng;

/// The working medium surrounding the die.
///
/// A closed enum rather than a generic keeps [`MafDie`] object-simple for the
/// platform code while still dispatching to the right property model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FluidMedium {
    /// Liquid water (the paper's deployment medium).
    Water(Water),
    /// Air (the sensor's original automotive medium).
    Air(Air),
}

impl FluidMedium {
    /// Water hardness in °f, zero for gases.
    pub fn hardness_f(&self) -> f64 {
        match self {
            FluidMedium::Water(w) => w.hardness_f,
            FluidMedium::Air(_) => 0.0,
        }
    }
}

impl Fluid for FluidMedium {
    fn properties(&self, temperature: Celsius) -> FluidProperties {
        match self {
            FluidMedium::Water(w) => w.properties(temperature),
            FluidMedium::Air(a) => a.properties(temperature),
        }
    }

    fn bubble_onset_temperature(&self, pressure: Pascals) -> Celsius {
        match self {
            FluidMedium::Water(w) => w.bubble_onset_temperature(pressure),
            FluidMedium::Air(a) => a.bubble_onset_temperature(pressure),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            FluidMedium::Water(w) => w.name(),
            FluidMedium::Air(a) => a.name(),
        }
    }
}

/// Identifies one of the two heaters on the die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeaterId {
    /// Heater A — upstream for positive flow.
    A,
    /// Heater B — downstream for positive flow.
    B,
}

/// Static parameters of the complete die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MafParams {
    /// Nominal heater RTD (50 Ω Ti/TiN).
    pub heater: Rtd,
    /// Fractional manufacturing tolerance applied to heater A (paper: ±1 %).
    pub heater_a_tolerance: f64,
    /// Fractional manufacturing tolerance applied to heater B.
    pub heater_b_tolerance: f64,
    /// Nominal ambient-reference RTD (2 kΩ Ti/TiN).
    pub reference: Rtd,
    /// Fractional tolerance of the reference resistor (paper: ±1.5 %).
    pub reference_tolerance: f64,
    /// Membrane thermal parameters (shared by both heater nodes).
    pub membrane: MembraneParams,
    /// Wire geometry for the King's-law derivation.
    pub geometry: WireGeometry,
    /// Maximum advective heat-coupling fraction between the heaters.
    pub coupling_max: f64,
    /// Velocity at which the coupling reaches half its maximum.
    pub coupling_halfspeed: MetersPerSecond,
    /// Time constant of the reference resistor tracking the fluid
    /// temperature (it sits on the die but is not heated).
    pub reference_lag: Seconds,
    /// Bubble-layer rate parameters.
    pub bubbles: BubbleParams,
    /// Fouling-layer rate parameters.
    pub fouling: FoulingParams,
    /// Surface finish of the die face.
    pub passivation: Passivation,
}

impl MafParams {
    /// The paper's die with nominal (zero-tolerance) resistors and the PECVD
    /// SiN passivation.
    pub fn nominal() -> Self {
        MafParams {
            heater: Rtd::heater(),
            heater_a_tolerance: 0.0,
            heater_b_tolerance: 0.0,
            reference: Rtd::ambient_reference(),
            reference_tolerance: 0.0,
            membrane: MembraneParams::maf(),
            geometry: WireGeometry::maf_heater(),
            coupling_max: 0.18,
            coupling_halfspeed: MetersPerSecond::new(0.15),
            reference_lag: Seconds::from_millis(40.0),
            bubbles: BubbleParams::accelerated(),
            fouling: FoulingParams::potable_defaults(),
            passivation: Passivation::SiliconNitride,
        }
    }

    /// A worst-case-tolerance die (paper: Rh ±0.5 Ω, Rt ±30 Ω), useful for
    /// calibration robustness studies.
    pub fn worst_case() -> Self {
        MafParams {
            heater_a_tolerance: 0.01,
            heater_b_tolerance: -0.01,
            reference_tolerance: 0.015,
            ..MafParams::nominal()
        }
    }

    /// Validates all sub-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError`] if any sub-model parameter is implausible.
    pub fn validate(&self) -> Result<(), PhysicsError> {
        self.membrane.validate()?;
        self.bubbles.validate()?;
        self.fouling.validate()?;
        crate::error::ensure_in_range("coupling_max", self.coupling_max, 0.0, 0.9)?;
        crate::error::ensure_positive("coupling_halfspeed", self.coupling_halfspeed.get())?;
        crate::error::ensure_positive("reference_lag", self.reference_lag.get())?;
        crate::error::ensure_in_range("heater_a_tolerance", self.heater_a_tolerance, -0.05, 0.05)?;
        crate::error::ensure_in_range("heater_b_tolerance", self.heater_b_tolerance, -0.05, 0.05)?;
        crate::error::ensure_in_range(
            "reference_tolerance",
            self.reference_tolerance,
            -0.05,
            0.05,
        )?;
        Ok(())
    }
}

impl Default for MafParams {
    fn default() -> Self {
        MafParams::nominal()
    }
}

/// Instantaneous environment of the die inside the pipe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorEnvironment {
    /// Bulk fluid temperature at the probe.
    pub fluid_temperature: Celsius,
    /// Signed local flow velocity at the probe; positive flows from heater A
    /// towards heater B.
    pub velocity: MetersPerSecond,
    /// Absolute line pressure.
    pub pressure: Pascals,
}

impl SensorEnvironment {
    /// Still 15 °C water at 1 bar — the quiescent test-station condition.
    pub fn still_water() -> Self {
        SensorEnvironment {
            fluid_temperature: Celsius::new(15.0),
            velocity: MetersPerSecond::ZERO,
            pressure: Pascals::from_bar(1.0),
        }
    }
}

impl Default for SensorEnvironment {
    fn default() -> Self {
        SensorEnvironment::still_water()
    }
}

/// One heater channel: RTD + thermal node + surface layers.
#[derive(Debug, Clone)]
struct HeaterChannel {
    rtd: Rtd,
    membrane: MembraneState,
    bubbles: BubbleLayer,
    fouling: FoulingLayer,
    last_conductance: ThermalConductance,
    /// Per-node memo of the frame-invariant convection chain (`G_conv`,
    /// `G_tot`, decay) — its inputs repeat bit-for-bit within a control
    /// frame, so the modulator-rate loop skips the divisions and the `exp`
    /// on hits without changing any result bit.
    decay_cache: DecayCache,
}

impl HeaterChannel {
    fn new(rtd: Rtd, params: &MafParams, initial: Celsius) -> Self {
        HeaterChannel {
            rtd,
            membrane: MembraneState::at_equilibrium(initial),
            bubbles: BubbleLayer::new(params.bubbles),
            fouling: FoulingLayer::new(params.fouling, params.passivation),
            last_conductance: ThermalConductance::ZERO,
            decay_cache: DecayCache::empty(),
        }
    }
}

/// What stays constant over one frame of die ticks: the step, the
/// environment, and everything derived from them and from the surfaces
/// that only change between frames. Built by [`MafDie::begin_frame`] and
/// consumed by [`MafDie::tick`].
#[derive(Debug, Clone, Copy)]
pub struct DieFrame {
    dt: Seconds,
    env: SensorEnvironment,
    /// Ideal King's-law conductance at the frame's velocity under the law
    /// in force; refreshed by the tick that re-derives the law.
    ideal: ThermalConductance,
    /// Advective coupling fraction at the frame's velocity.
    coupling: f64,
    /// Bubble onset temperature at the frame's pressure.
    onset: Celsius,
    /// Reference-lag factor `exp(−dt/lag)`.
    rho: f64,
    /// Scale resistance of each heater face (scale deposits between
    /// frames only).
    fouling_a: ThermalResistance,
    fouling_b: ThermalResistance,
}

/// The complete two-heater MAF die immersed in a fluid.
///
/// ```
/// use hotwire_physics::{MafDie, MafParams, SensorEnvironment};
/// use hotwire_units::{Seconds, Watts};
/// use rand::SeedableRng;
///
/// let mut die = MafDie::in_potable_water(MafParams::nominal());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let env = SensorEnvironment::still_water();
/// let cold = die.heater_resistance(hotwire_physics::sensor::HeaterId::A);
/// for _ in 0..100 {
///     die.step(Seconds::from_micros(10.0), Watts::new(0.005), Watts::new(0.005), env, &mut rng);
/// }
/// assert!(die.heater_resistance(hotwire_physics::sensor::HeaterId::A) > cold);
/// ```
#[derive(Debug, Clone)]
pub struct MafDie {
    params: MafParams,
    fluid: FluidMedium,
    heater_a: HeaterChannel,
    heater_b: HeaterChannel,
    reference_rtd: Rtd,
    reference_temperature: Celsius,
    king: KingsLaw,
    king_film_temp: f64,
    /// Memo of the last King's-law evaluation and advective coupling
    /// fraction, keyed on the velocity's bit pattern: `(bits, G_ideal,
    /// coupling)`. The velocity only changes at the control/environment
    /// rate, so the modulator-rate loop skips the `powf` and the coupling
    /// division on nearly every tick; invalidated whenever the law is
    /// re-derived.
    conductance_cache: Option<(u64, f64, f64)>,
    /// Memo of the reference-lag factor `exp(−dt/lag)`, keyed on the step's
    /// bit pattern (the lag itself is a fixed parameter).
    rho_cache: Option<(u64, f64)>,
}

impl MafDie {
    /// Builds a die immersed in the given fluid, equilibrated at
    /// `initial_temperature`.
    pub fn new(params: MafParams, fluid: FluidMedium, initial_temperature: Celsius) -> Self {
        let heater_a_rtd = params.heater.with_tolerance(params.heater_a_tolerance);
        let heater_b_rtd = params.heater.with_tolerance(params.heater_b_tolerance);
        let reference_rtd = params.reference.with_tolerance(params.reference_tolerance);
        let king = KingsLaw::from_kramers(&fluid, initial_temperature, params.geometry);
        MafDie {
            heater_a: HeaterChannel::new(heater_a_rtd, &params, initial_temperature),
            heater_b: HeaterChannel::new(heater_b_rtd, &params, initial_temperature),
            reference_rtd,
            reference_temperature: initial_temperature,
            king,
            king_film_temp: initial_temperature.get(),
            conductance_cache: None,
            rho_cache: None,
            params,
            fluid,
        }
    }

    /// A die in potable (hard, air-saturated) water at 15 °C.
    pub fn in_potable_water(params: MafParams) -> Self {
        MafDie::new(
            params,
            FluidMedium::Water(Water::potable()),
            Celsius::new(15.0),
        )
    }

    /// A die in 20 °C air — the original MAF application.
    pub fn in_air(params: MafParams) -> Self {
        MafDie::new(params, FluidMedium::Air(Air), Celsius::new(20.0))
    }

    /// The immersion medium.
    #[inline]
    pub fn fluid(&self) -> &FluidMedium {
        &self.fluid
    }

    /// The static die parameters.
    #[inline]
    pub fn params(&self) -> &MafParams {
        &self.params
    }

    /// Instantaneous resistance of the selected heater.
    #[inline]
    pub fn heater_resistance(&self, id: HeaterId) -> Ohms {
        let ch = self.channel(id);
        ch.rtd.resistance(ch.membrane.temperature())
    }

    /// Instantaneous resistance of the ambient reference resistor.
    #[inline]
    pub fn reference_resistance(&self) -> Ohms {
        self.reference_rtd.resistance(self.reference_temperature)
    }

    /// The reference RTD law (needed by the conditioning firmware to convert
    /// a measured `Rt` back to an ambient temperature).
    #[inline]
    pub fn reference_rtd(&self) -> &Rtd {
        &self.reference_rtd
    }

    /// The heater RTD law for the selected heater.
    pub fn heater_rtd(&self, id: HeaterId) -> &Rtd {
        &self.channel(id).rtd
    }

    /// Current temperature of the ambient-reference node — together with
    /// [`heater_temperature`](Self::heater_temperature) and
    /// [`kings_law`](Self::kings_law), the die state a bounded-error fast
    /// AFE tier linearizes its once-per-frame bridge solve around.
    #[inline]
    pub fn reference_temperature(&self) -> Celsius {
        self.reference_temperature
    }

    /// Film temperature of the selected heater.
    pub fn heater_temperature(&self, id: HeaterId) -> Celsius {
        self.channel(id).membrane.temperature()
    }

    /// Bubble coverage of the selected heater face, `0..=1`.
    pub fn bubble_coverage(&self, id: HeaterId) -> f64 {
        self.channel(id).bubbles.coverage()
    }

    /// CaCO₃ deposit thickness on the selected heater face, µm.
    pub fn fouling_thickness_um(&self, id: HeaterId) -> f64 {
        self.channel(id).fouling.thickness_um()
    }

    /// Total bubble-detachment events on the selected heater so far.
    pub fn detachment_count(&self, id: HeaterId) -> u64 {
        self.channel(id).bubbles.detachment_count()
    }

    /// The wire-to-fluid conductance used at the last step for the selected
    /// heater (diagnostic).
    pub fn last_conductance(&self, id: HeaterId) -> ThermalConductance {
        self.channel(id).last_conductance
    }

    /// The King's law currently in force (re-derived when the film
    /// temperature drifts).
    #[inline]
    pub fn kings_law(&self) -> &KingsLaw {
        &self.king
    }

    #[inline]
    fn channel(&self, id: HeaterId) -> &HeaterChannel {
        match id {
            HeaterId::A => &self.heater_a,
            HeaterId::B => &self.heater_b,
        }
    }

    /// Advective coupling fraction at speed `v` — how much of the upstream
    /// heater's overheat arrives at the downstream heater.
    fn coupling(&self, v: MetersPerSecond) -> f64 {
        let s = v.get().abs();
        self.params.coupling_max * s / (s + self.params.coupling_halfspeed.get())
    }

    /// Advances the die by `dt` with electrical powers applied to heaters A
    /// and B, in the given environment: membrane heat balance, bubble
    /// growth and detachment, and the reference-resistor lag.
    ///
    /// One step is one [`tick`](Self::tick) of a one-tick frame
    /// ([`begin_frame`](Self::begin_frame)), so a frame walk and a run of
    /// steps share the one tick body and agree to the bit.
    ///
    /// Scale does not deposit here — it builds over months, so callers
    /// integrate it once per control frame through
    /// [`deposit_scale`](Self::deposit_scale).
    ///
    /// The RNG drives bubble detachment; pass a seeded RNG for reproducible
    /// runs.
    #[inline]
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        dt: Seconds,
        power_a: Watts,
        power_b: Watts,
        env: SensorEnvironment,
        rng: &mut R,
    ) {
        let mut frame = self.begin_frame(dt, env);
        self.tick(&mut frame, power_a, power_b, rng);
    }

    /// Evaluates what stays constant over a frame of ticks of length `dt`
    /// in `env`: the King's-law conductance and advective coupling at the
    /// frame's velocity, the bubble onset at its pressure, the reference-lag
    /// factor and each heater's fouling resistance.
    ///
    /// The constants hold until the environment or a face's scale changes.
    /// Scale deposits only between frames
    /// ([`deposit_scale`](Self::deposit_scale)), and so does injected scale
    /// ([`deposit_fouling`](Self::deposit_fouling)): begin a new frame after
    /// either. Bubble coverage is read live every tick, and the King's law
    /// may be re-derived inside a frame; [`tick`](Self::tick) keeps the
    /// frame's conductance in step with it.
    #[inline]
    pub fn begin_frame(&mut self, dt: Seconds, env: SensorEnvironment) -> DieFrame {
        // Both nodes share the same ideal King's-law conductance at `v`, and
        // the advective coupling depends on `v` alone — evaluate both
        // through the bit-keyed memo (the velocity only changes at the
        // environment rate, so the `powf` and the division almost always
        // skip). A memo hit returns the exact values a recomputation would.
        let v_bits = env.velocity.get().to_bits();
        let (ideal, coupling) = match self.conductance_cache {
            Some((bits, g, c)) if bits == v_bits => (g, c),
            _ => self.memoize_conductance(env.velocity),
        };
        // The lag factor depends only on `dt` (the lag is a fixed
        // parameter), so it memoizes on the step's bit pattern.
        let dt_bits = dt.get().to_bits();
        let rho = match self.rho_cache {
            Some((bits, rho)) if bits == dt_bits => rho,
            _ => {
                let rho = (-dt.get() / self.params.reference_lag.get()).exp();
                self.rho_cache = Some((dt_bits, rho));
                rho
            }
        };
        DieFrame {
            dt,
            env,
            ideal: ThermalConductance::new(ideal),
            coupling,
            onset: self.fluid.bubble_onset_temperature(env.pressure),
            rho,
            fouling_a: self.heater_a.fouling.thermal_resistance(),
            fouling_b: self.heater_b.fouling.thermal_resistance(),
        }
    }

    /// Evaluates the King's-law conductance and the advective coupling at
    /// `v` and stores them in the velocity-keyed memo.
    fn memoize_conductance(&mut self, v: MetersPerSecond) -> (f64, f64) {
        let g = self.king.conductance(v).get();
        let c = self.coupling(v);
        self.conductance_cache = Some((v.get().to_bits(), g, c));
        (g, c)
    }

    /// Advances the die by one tick of `frame` with electrical powers
    /// applied to heaters A and B. Only what changes within a frame is
    /// evaluated here: the membrane temperatures (and through them the
    /// King's-law film, re-derived when it drifts by more than 0.5 K), the
    /// bubble coverages and the reference temperature.
    #[inline]
    pub fn tick<R: Rng + ?Sized>(
        &mut self,
        frame: &mut DieFrame,
        power_a: Watts,
        power_b: Watts,
        rng: &mut R,
    ) {
        let t_fluid = frame.env.fluid_temperature;
        // Re-derive King's law when the film temperature moves > 0.5 K
        // (property drift matters over tens of kelvin, not per sample).
        let film = 0.5
            * (t_fluid.get()
                + 0.5
                    * (self.heater_a.membrane.temperature().get()
                        + self.heater_b.membrane.temperature().get()));
        if (film - self.king_film_temp).abs() > 0.5 {
            self.king =
                KingsLaw::from_kramers(&self.fluid, Celsius::new(film), self.params.geometry);
            self.king_film_temp = film;
            let (g, _) = self.memoize_conductance(frame.env.velocity);
            frame.ideal = ThermalConductance::new(g);
        }

        // Advective coupling: downstream heater sees pre-heated fluid.
        let c = frame.coupling;
        let (pre_a, pre_b) = if frame.env.velocity.get() >= 0.0 {
            // A upstream, B downstream.
            (
                0.0,
                c * (self.heater_a.membrane.temperature() - t_fluid).get(),
            )
        } else {
            (
                c * (self.heater_b.membrane.temperature() - t_fluid).get(),
                0.0,
            )
        };
        let t_eff_a = Celsius::new(t_fluid.get() + pre_a);
        let t_eff_b = Celsius::new(t_fluid.get() + pre_b);

        let surface_a = SurfaceCondition {
            bubble_coverage: self.heater_a.bubbles.coverage(),
            fouling_resistance: frame.fouling_a,
        };
        let surface_b = SurfaceCondition {
            bubble_coverage: self.heater_b.bubbles.coverage(),
            fouling_resistance: frame.fouling_b,
        };
        let dt = frame.dt;
        self.heater_a.last_conductance = self.heater_a.membrane.step_cached(
            dt,
            power_a,
            &self.params.membrane,
            frame.ideal,
            surface_a,
            t_eff_a,
            t_fluid,
            &mut self.heater_a.decay_cache,
        );
        self.heater_b.last_conductance = self.heater_b.membrane.step_cached(
            dt,
            power_b,
            &self.params.membrane,
            frame.ideal,
            surface_b,
            t_eff_b,
            t_fluid,
            &mut self.heater_b.decay_cache,
        );

        // Bubbles follow wall temperature on the millisecond scale.
        let wall_a = self.heater_a.membrane.temperature();
        let wall_b = self.heater_b.membrane.temperature();
        self.heater_a.bubbles.step(dt, wall_a, frame.onset, rng);
        self.heater_b.bubbles.step(dt, wall_b, frame.onset, rng);

        // Reference resistor tracks the fluid with a first-order lag.
        self.reference_temperature = Celsius::new(
            t_fluid.get() + (self.reference_temperature.get() - t_fluid.get()) * frame.rho,
        );
    }

    /// Deposits CaCO₃ scale on both heater faces over `dt`, at the present
    /// wall temperatures and bubble coverages.
    ///
    /// Scale builds over months (≈0.003 µm/h on a bare 30 °C wall), so the
    /// conditioning firmware's co-simulation calls this once per control
    /// frame with the frame's duration rather than on every modulator
    /// tick: the per-frame increment is ≈10⁻⁹ µm, and the fouling
    /// resistance — an input of the membrane's memoized convection chain —
    /// stays constant within the frame.
    pub fn deposit_scale(&mut self, dt: Seconds) {
        let hardness = self.fluid.hardness_f();
        for ch in [&mut self.heater_a, &mut self.heater_b] {
            let wall = ch.membrane.temperature();
            let coverage = ch.bubbles.coverage();
            ch.fouling.step(dt, wall, hardness, coverage);
        }
    }

    /// Advances surface aging (fouling) by a coarse interval without
    /// electrical drive — used for months-scale endurance studies where
    /// simulating every ΣΔ sample would be pointless.
    pub fn age_surfaces(&mut self, hours: f64, wall: Celsius, coverage: f64) {
        let hardness = self.fluid.hardness_f();
        self.heater_a
            .fouling
            .advance_hours(hours, wall, hardness, coverage);
        self.heater_b
            .fouling
            .advance_hours(hours, wall, hardness, coverage);
    }

    /// Flushes bubbles and scale from both faces (bench maintenance).
    pub fn clean_surfaces(&mut self) {
        self.heater_a.bubbles.clear();
        self.heater_a.fouling.clean();
        self.heater_b.bubbles.clear();
        self.heater_b.fouling.clean();
    }

    /// Slams extra bubble coverage onto both heater faces at once — a slug
    /// of entrained gas bursting against the die (fault injection's abrupt
    /// bubble event). Coverage clamps to the unit interval per face.
    pub fn inject_bubble_burst(&mut self, coverage: f64) {
        self.heater_a.bubbles.deposit(coverage);
        self.heater_b.bubbles.deposit(coverage);
    }

    /// Deposits a step of scale thickness on both heater faces at once
    /// (fault injection's abrupt fouling event, e.g. debris lodging on the
    /// sensor face).
    pub fn deposit_fouling(&mut self, microns: f64) {
        self.heater_a.fouling.deposit(microns);
        self.heater_b.fouling.deposit(microns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    fn settle(die: &mut MafDie, p: Watts, env: SensorEnvironment, rng: &mut rand::rngs::StdRng) {
        // 20 ms at 10 µs steps ≫ thermal τ.
        for _ in 0..2000 {
            die.step(Seconds::from_micros(10.0), p, p, env, rng);
        }
    }

    #[test]
    fn heating_raises_resistance() {
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        let mut r = rng();
        let cold = die.heater_resistance(HeaterId::A);
        settle(
            &mut die,
            Watts::new(0.01),
            SensorEnvironment::still_water(),
            &mut r,
        );
        let hot = die.heater_resistance(HeaterId::A);
        assert!(hot > cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn flow_cools_the_heaters() {
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        let mut r = rng();
        let p = Watts::new(0.01);
        settle(&mut die, p, SensorEnvironment::still_water(), &mut r);
        let still = die.heater_temperature(HeaterId::A);
        let flowing = SensorEnvironment {
            velocity: MetersPerSecond::new(1.0),
            ..SensorEnvironment::still_water()
        };
        settle(&mut die, p, flowing, &mut r);
        let moving = die.heater_temperature(HeaterId::A);
        assert!(
            still.get() - moving.get() > 1.0,
            "still {still} vs flowing {moving}"
        );
    }

    #[test]
    fn downstream_heater_runs_hotter() {
        // Positive flow: A upstream, B downstream → B receives A's heat and
        // runs hotter at equal power. This asymmetry is the direction signal.
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        let mut r = rng();
        let env = SensorEnvironment {
            velocity: MetersPerSecond::new(0.5),
            ..SensorEnvironment::still_water()
        };
        settle(&mut die, Watts::new(0.01), env, &mut r);
        let ta = die.heater_temperature(HeaterId::A);
        let tb = die.heater_temperature(HeaterId::B);
        assert!(
            tb.get() > ta.get() + 0.05,
            "B (downstream) {tb} must exceed A (upstream) {ta}"
        );
    }

    #[test]
    fn direction_asymmetry_flips_with_flow() {
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        let mut r = rng();
        let rev = SensorEnvironment {
            velocity: MetersPerSecond::new(-0.5),
            ..SensorEnvironment::still_water()
        };
        settle(&mut die, Watts::new(0.01), rev, &mut r);
        let ta = die.heater_temperature(HeaterId::A);
        let tb = die.heater_temperature(HeaterId::B);
        assert!(ta.get() > tb.get() + 0.05, "reversed flow must heat A");
    }

    #[test]
    fn reference_tracks_fluid_temperature() {
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        let mut r = rng();
        let warm = SensorEnvironment {
            fluid_temperature: Celsius::new(25.0),
            ..SensorEnvironment::still_water()
        };
        // 0.5 s ≫ 40 ms reference lag.
        for _ in 0..5000 {
            die.step(
                Seconds::from_micros(100.0),
                Watts::ZERO,
                Watts::ZERO,
                warm,
                &mut r,
            );
        }
        let rt = die.reference_resistance();
        let expected = die.reference_rtd().resistance(Celsius::new(25.0));
        assert!(
            (rt - expected).abs().get() < 0.1,
            "Rt {rt} vs expected {expected}"
        );
    }

    #[test]
    fn tolerances_shift_resistances() {
        let die = MafDie::in_potable_water(MafParams::worst_case());
        let ra = die.heater_resistance(HeaterId::A);
        let rb = die.heater_resistance(HeaterId::B);
        assert!(ra > rb, "worst case skews A up, B down");
        // The die equilibrates at 15 °C, 5 K below the 20 °C reference point.
        let expect_a = die.heater_rtd(HeaterId::A).resistance(Celsius::new(15.0));
        let expect_b = die.heater_rtd(HeaterId::B).resistance(Celsius::new(15.0));
        assert!((ra - expect_a).abs().get() < 1e-9);
        assert!((rb - expect_b).abs().get() < 1e-9);
        assert!((ra / rb - 50.5 / 49.5).abs() < 1e-3);
    }

    #[test]
    fn overdriven_heater_in_water_grows_bubbles() {
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        let mut r = rng();
        // Drive hard enough to exceed the 40 °C outgassing onset and hold it
        // for 30 simulated seconds (coarse 10 ms steps — thermal state is
        // quasi-static at that scale thanks to exponential Euler).
        let env = SensorEnvironment::still_water();
        let p = Watts::new(0.02);
        for _ in 0..3000 {
            die.step(Seconds::from_millis(10.0), p, p, env, &mut r);
        }
        assert!(
            die.heater_temperature(HeaterId::A).get() > 40.0,
            "wall {} must exceed onset",
            die.heater_temperature(HeaterId::A)
        );
        assert!(
            die.bubble_coverage(HeaterId::A) > 0.1,
            "coverage {}",
            die.bubble_coverage(HeaterId::A)
        );
    }

    #[test]
    fn air_die_never_bubbles() {
        let mut die = MafDie::in_air(MafParams::nominal());
        let mut r = rng();
        let env = SensorEnvironment {
            fluid_temperature: Celsius::new(20.0),
            velocity: MetersPerSecond::new(1.0),
            pressure: Pascals::from_bar(1.0),
        };
        for _ in 0..1000 {
            die.step(
                Seconds::from_millis(10.0),
                Watts::new(0.01),
                Watts::new(0.01),
                env,
                &mut r,
            );
        }
        assert_eq!(die.bubble_coverage(HeaterId::A), 0.0);
        assert_eq!(die.fouling_thickness_um(HeaterId::A), 0.0);
    }

    #[test]
    fn aging_accumulates_fouling_on_bare_die() {
        let params = MafParams {
            passivation: Passivation::Bare,
            ..MafParams::nominal()
        };
        let mut die = MafDie::in_potable_water(params);
        die.age_surfaces(24.0 * 90.0, Celsius::new(45.0), 0.0);
        assert!(die.fouling_thickness_um(HeaterId::A) > 1.0);
        die.clean_surfaces();
        assert_eq!(die.fouling_thickness_um(HeaterId::A), 0.0);
    }

    #[test]
    fn passivated_die_resists_months_of_water() {
        // Paper: "no deposit of calcium carbonate" after several months.
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        die.age_surfaces(24.0 * 90.0, Celsius::new(35.0), 0.0);
        assert!(
            die.fouling_thickness_um(HeaterId::A) < 0.5,
            "thickness {} µm",
            die.fouling_thickness_um(HeaterId::A)
        );
    }

    /// Drops every memo so the next step recomputes from scratch.
    fn forget_memos(die: &mut MafDie) {
        die.conductance_cache = None;
        die.rho_cache = None;
        die.heater_a.decay_cache = DecayCache::empty();
        die.heater_b.decay_cache = DecayCache::empty();
    }

    fn state_bits(die: &MafDie) -> [u64; 7] {
        [
            die.heater_temperature(HeaterId::A).get().to_bits(),
            die.heater_temperature(HeaterId::B).get().to_bits(),
            die.last_conductance(HeaterId::A).get().to_bits(),
            die.last_conductance(HeaterId::B).get().to_bits(),
            die.reference_resistance().get().to_bits(),
            die.bubble_coverage(HeaterId::A).to_bits(),
            die.fouling_thickness_um(HeaterId::B).to_bits(),
        ]
    }

    #[test]
    fn memoized_step_is_bit_identical_to_fresh_memos() {
        // Every memo input changes mid-run, each inside a stretch where the
        // others hold still — the step, the velocity, the fouling thickness,
        // then the bubble coverage (which keeps moving once a burst lands) —
        // so a key missing any one of them would reuse a stale chain and
        // split the two dies.
        let params = MafParams {
            passivation: Passivation::Bare,
            ..MafParams::nominal()
        };
        let mut memo = MafDie::in_potable_water(params);
        let mut fresh = memo.clone();
        let (mut r_memo, mut r_fresh) = (rng(), rng());
        let p = Watts::new(0.012);
        for i in 0..4000u32 {
            let v = if i < 1000 { 0.4 } else { 1.1 };
            let dt = Seconds::from_micros(if i < 600 { 3.90625 } else { 15.625 });
            let env = SensorEnvironment {
                velocity: MetersPerSecond::new(v),
                ..SensorEnvironment::still_water()
            };
            if i == 1300 {
                memo.deposit_fouling(2.0);
                fresh.deposit_fouling(2.0);
            }
            if i == 3000 {
                memo.inject_bubble_burst(0.3);
                fresh.inject_bubble_burst(0.3);
            }
            forget_memos(&mut fresh);
            memo.step(dt, p, p, env, &mut r_memo);
            fresh.step(dt, p, p, env, &mut r_fresh);
            if i % 256 == 255 {
                memo.deposit_scale(Seconds::new(dt.get() * 256.0));
                fresh.deposit_scale(Seconds::new(dt.get() * 256.0));
            }
            assert_eq!(state_bits(&memo), state_bits(&fresh), "tick {i}");
        }
        assert!(memo.fouling_thickness_um(HeaterId::A) > 2.0);
    }

    #[test]
    fn step_leaves_scale_to_deposit_scale() {
        let params = MafParams {
            passivation: Passivation::Bare,
            ..MafParams::nominal()
        };
        let mut die = MafDie::in_potable_water(params);
        let mut r = rng();
        let env = SensorEnvironment::still_water();
        settle(&mut die, Watts::new(0.01), env, &mut r);
        assert_eq!(die.fouling_thickness_um(HeaterId::A), 0.0);
        die.deposit_scale(Seconds::new(3600.0));
        let a = die.fouling_thickness_um(HeaterId::A);
        assert!(a > 0.0, "an hour on a hot bare face deposits scale");
        // The same hour through the layer directly, at the die's wall.
        let mut layer = FoulingLayer::new(params.fouling, params.passivation);
        layer.step(
            Seconds::new(3600.0),
            die.heater_temperature(HeaterId::A),
            die.fluid().hardness_f(),
            die.bubble_coverage(HeaterId::A),
        );
        assert_eq!(a.to_bits(), layer.thickness_um().to_bits());
    }

    #[test]
    fn params_validate() {
        assert!(MafParams::nominal().validate().is_ok());
        assert!(MafParams::worst_case().validate().is_ok());
        let bad = MafParams {
            coupling_max: 1.5,
            ..MafParams::nominal()
        };
        assert!(bad.validate().is_err());
    }
}
