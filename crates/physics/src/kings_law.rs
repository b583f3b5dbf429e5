//! King's law — the empirical heat-loss law of the hot wire (Eq. 2).
//!
//! The paper writes the heat balance of the heated wire as
//!
//! ```text
//! I²·R_w = U²/R_w = (T_w − T_ref) · (A + B·vⁿ)
//! ```
//!
//! i.e. the total thermal conductance from wire to fluid is `G(v) = A + B·vⁿ`
//! with empirically determined, fluid-specific constants `A`, `B` and
//! exponent `n` (≈ 0.5 after L.V. King's 1914 analysis). This module provides
//! both the empirical form and a first-principles constructor from the
//! Kramers Nusselt correlation for a cylinder in cross-flow, so the simulated
//! sensor's constants are *derived* from water properties instead of assumed.

use crate::error::{ensure_in_range, ensure_positive};
use crate::fluid::Fluid;
use crate::PhysicsError;
use hotwire_units::{Celsius, KelvinDelta, Meters, MetersPerSecond, ThermalConductance, Watts};

/// King's-law heat-loss model `G(v) = A + B·vⁿ`.
///
/// ```
/// use hotwire_physics::KingsLaw;
/// use hotwire_units::{KelvinDelta, MetersPerSecond};
///
/// let king = KingsLaw::water_default();
/// let g0 = king.conductance(MetersPerSecond::ZERO);
/// let g1 = king.conductance(MetersPerSecond::new(1.0));
/// assert!(g1 > g0);
/// // Round-trip: velocity back from conductance.
/// let v = king.velocity_from_conductance(g1);
/// assert!((v.get() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KingsLaw {
    /// Free-convection/conduction term `A` in W/K.
    a: f64,
    /// Forced-convection coefficient `B` in W/(K·(m/s)ⁿ).
    b: f64,
    /// Velocity exponent `n` (0 < n ≤ 1, classically 0.5).
    n: f64,
}

/// Geometry of the heated wire/film for the first-principles constructor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireGeometry {
    /// Effective hydraulic diameter of the hot film/wire.
    pub diameter: Meters,
    /// Active length exposed to the flow.
    pub length: Meters,
}

impl WireGeometry {
    /// The MAF die's heater geometry: a thin-film strip on a 2 µm membrane,
    /// modelled as an equivalent cylinder of 10 µm diameter and 0.3 mm
    /// length.
    pub fn maf_heater() -> Self {
        WireGeometry {
            diameter: Meters::from_micrometers(10.0),
            length: Meters::from_millimeters(0.3),
        }
    }
}

impl Default for WireGeometry {
    fn default() -> Self {
        WireGeometry::maf_heater()
    }
}

impl KingsLaw {
    /// Builds an empirical King's law from raw coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError`] if `a` or `b` is not positive, or `n` lies
    /// outside `(0, 1]`.
    pub fn new(a: f64, b: f64, n: f64) -> Result<Self, PhysicsError> {
        ensure_positive("a", a)?;
        ensure_positive("b", b)?;
        ensure_in_range("n", n, 1e-3, 1.0)?;
        Ok(KingsLaw { a, b, n })
    }

    /// Derives King's-law constants from the Kramers correlation for a
    /// cylinder in cross-flow:
    ///
    /// ```text
    /// Nu = 0.42·Pr^0.20 + 0.57·Pr^0.33·Re^0.50
    /// ```
    ///
    /// with `G = Nu·k·π·L` (since `h = Nu·k/D` and the lateral area is
    /// `π·D·L`). The film temperature used for properties is the mean of wall
    /// and fluid temperatures.
    pub fn from_kramers<F: Fluid + ?Sized>(
        fluid: &F,
        film_temperature: Celsius,
        geometry: WireGeometry,
    ) -> Self {
        let props = fluid.properties(film_temperature);
        let pr = props.prandtl();
        let k = props.thermal_conductivity;
        let nu = props.kinematic_viscosity();
        let pi_l_k = core::f64::consts::PI * geometry.length.get() * k;
        let a = pi_l_k * 0.42 * pr.powf(0.20);
        let b = pi_l_k * 0.57 * pr.powf(0.33) * (geometry.diameter.get() / nu).sqrt();
        KingsLaw { a, b, n: 0.5 }
    }

    /// King's law for the MAF heater in 15 °C water — the Vinci test-station
    /// operating point.
    pub fn water_default() -> Self {
        KingsLaw::from_kramers(
            &crate::fluid::Water::potable(),
            Celsius::new(15.0),
            WireGeometry::maf_heater(),
        )
    }

    /// King's law for the MAF heater in 20 °C air — the sensor's original
    /// automotive medium.
    pub fn air_default() -> Self {
        KingsLaw::from_kramers(
            &crate::fluid::Air,
            Celsius::new(20.0),
            WireGeometry::maf_heater(),
        )
    }

    /// The zero-flow term `A` in W/K.
    #[inline]
    pub fn a(&self) -> f64 {
        self.a
    }

    /// The forced-convection coefficient `B` in W/(K·(m/s)ⁿ).
    #[inline]
    pub fn b(&self) -> f64 {
        self.b
    }

    /// The velocity exponent `n`.
    #[inline]
    pub fn n(&self) -> f64 {
        self.n
    }

    /// Total wire-to-fluid thermal conductance at flow speed `v` (uses the
    /// speed's magnitude: heat loss is direction-independent for a single
    /// wire).
    #[inline]
    pub fn conductance(&self, v: MetersPerSecond) -> ThermalConductance {
        ThermalConductance::new(self.a + self.b * v.get().abs().powf(self.n))
    }

    /// Heat loss at speed `v` and overheat `ΔT = T_w − T_fluid` (Eq. 2).
    #[inline]
    pub fn power(&self, v: MetersPerSecond, overheat: KelvinDelta) -> Watts {
        self.conductance(v) * overheat
    }

    /// Inverts `G(v)` to a flow speed. Conductances at or below `A` map to
    /// zero flow (the law cannot distinguish them).
    #[inline]
    pub fn velocity_from_conductance(&self, g: ThermalConductance) -> MetersPerSecond {
        let excess = g.get() - self.a;
        if excess <= 0.0 {
            MetersPerSecond::ZERO
        } else {
            MetersPerSecond::new((excess / self.b).powf(1.0 / self.n))
        }
    }

    /// Inverts Eq. (2): flow speed from heat loss `p` at overheat `ΔT`.
    ///
    /// Returns zero flow if `overheat` is not positive (no meaningful
    /// inversion exists).
    #[inline]
    pub fn velocity_from_power(&self, p: Watts, overheat: KelvinDelta) -> MetersPerSecond {
        if overheat.get() <= 0.0 {
            return MetersPerSecond::ZERO;
        }
        self.velocity_from_conductance(p / overheat)
    }

    /// Sensitivity `dG/dv` at speed `v`, in W/(K·m/s). Diverges at `v → 0`
    /// for `n < 1`; callers should evaluate at the operating point.
    #[inline]
    pub fn conductance_slope(&self, v: MetersPerSecond) -> f64 {
        let vv = v.get().abs().max(1e-12);
        self.b * self.n * vv.powf(self.n - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::{Air, Water};

    #[test]
    fn water_constants_have_expected_magnitude() {
        let king = KingsLaw::water_default();
        // π·L·k ≈ π·3e-4·0.59 ≈ 5.6e-4; A ≈ 0.42·Pr^0.2·that ≈ 3.5e-4 W/K.
        assert!(
            (1e-4..1e-3).contains(&king.a()),
            "A = {} W/K out of expected MEMS-in-water range",
            king.a()
        );
        assert!(
            (5e-4..1e-2).contains(&king.b()),
            "B = {} out of expected range",
            king.b()
        );
        assert_eq!(king.n(), 0.5);
    }

    #[test]
    fn full_scale_power_is_tens_of_milliwatts() {
        // Sanity anchor for the electronics: at 250 cm/s and 15 K overheat the
        // heater must burn tens of mW — drivable from a 5 V bridge.
        let king = KingsLaw::water_default();
        let p = king.power(MetersPerSecond::new(2.5), KelvinDelta::new(15.0));
        assert!(
            (0.01..0.12).contains(&p.get()),
            "P = {} W at full scale",
            p.get()
        );
    }

    #[test]
    fn air_loses_far_less_heat_than_water() {
        let water = KingsLaw::water_default();
        let air = KingsLaw::air_default();
        let v = MetersPerSecond::new(1.0);
        let ratio = water.conductance(v).get() / air.conductance(v).get();
        assert!(
            ratio > 10.0,
            "water/air conductance ratio {ratio} — this is why overheat must be reduced in water"
        );
    }

    #[test]
    fn conductance_monotonic_in_speed() {
        let king = KingsLaw::water_default();
        let mut prev = king.conductance(MetersPerSecond::ZERO);
        for i in 1..=50 {
            let g = king.conductance(MetersPerSecond::new(i as f64 * 0.05));
            assert!(g > prev);
            prev = g;
        }
    }

    #[test]
    fn velocity_round_trip() {
        let king = KingsLaw::water_default();
        for v in [0.01, 0.1, 0.5, 1.0, 2.5] {
            let g = king.conductance(MetersPerSecond::new(v));
            let back = king.velocity_from_conductance(g);
            assert!((back.get() - v).abs() < 1e-9 * v.max(1.0), "v={v}");
        }
    }

    #[test]
    fn power_round_trip() {
        let king = KingsLaw::water_default();
        let dt = KelvinDelta::new(15.0);
        for v in [0.05, 0.7, 2.0] {
            let p = king.power(MetersPerSecond::new(v), dt);
            let back = king.velocity_from_power(p, dt);
            assert!((back.get() - v).abs() < 1e-9, "v={v}");
        }
    }

    #[test]
    fn sub_a_conductance_maps_to_zero() {
        let king = KingsLaw::water_default();
        let g = ThermalConductance::new(king.a() * 0.5);
        assert_eq!(king.velocity_from_conductance(g).get(), 0.0);
        assert_eq!(
            king.velocity_from_power(Watts::ZERO, KelvinDelta::new(15.0))
                .get(),
            0.0
        );
    }

    #[test]
    fn zero_overheat_inversion_is_zero() {
        let king = KingsLaw::water_default();
        let v = king.velocity_from_power(Watts::new(0.01), KelvinDelta::ZERO);
        assert_eq!(v.get(), 0.0);
    }

    #[test]
    fn direction_independence_of_heat_loss() {
        let king = KingsLaw::water_default();
        let g_fwd = king.conductance(MetersPerSecond::new(1.0));
        let g_rev = king.conductance(MetersPerSecond::new(-1.0));
        assert_eq!(g_fwd, g_rev);
    }

    #[test]
    fn slope_decreases_with_speed_for_sqrt_law() {
        // dG/dv ∝ v^(-1/2): the sensitivity *compresses* at high flow, which
        // is exactly why the paper's resolution degrades from ±0.75 cm/s at
        // low flow to ±4 cm/s at 250 cm/s.
        let king = KingsLaw::water_default();
        let s_low = king.conductance_slope(MetersPerSecond::new(0.1));
        let s_high = king.conductance_slope(MetersPerSecond::new(2.5));
        assert!(s_low > 4.0 * s_high);
    }

    #[test]
    fn kramers_uses_film_properties() {
        let cold = KingsLaw::from_kramers(
            &Water::potable(),
            Celsius::new(5.0),
            WireGeometry::maf_heater(),
        );
        let warm = KingsLaw::from_kramers(
            &Water::potable(),
            Celsius::new(45.0),
            WireGeometry::maf_heater(),
        );
        // Warmer water: higher conductivity, lower viscosity → both A and B
        // shift; the derived law must differ measurably.
        assert!((warm.a() - cold.a()).abs() / cold.a() > 0.01);
        assert!((warm.b() - cold.b()).abs() / cold.b() > 0.01);
    }

    #[test]
    fn rejects_bad_coefficients() {
        assert!(KingsLaw::new(0.0, 1e-3, 0.5).is_err());
        assert!(KingsLaw::new(1e-4, -1.0, 0.5).is_err());
        assert!(KingsLaw::new(1e-4, 1e-3, 1.5).is_err());
        assert!(KingsLaw::new(1e-4, 1e-3, 0.5).is_ok());
    }

    #[test]
    fn air_default_exists_and_is_positive() {
        let king = KingsLaw::from_kramers(&Air, Celsius::new(20.0), WireGeometry::default());
        assert!(king.a() > 0.0 && king.b() > 0.0);
    }
}
