//! Firmware configuration: operating point, loop gains, drive scheme.

use crate::CoreError;
use hotwire_afe::bridge::BridgeConfig;
use hotwire_physics::resistor::Rtd;
use hotwire_units::{Celsius, Hertz, KelvinDelta, MetersPerSecond, Ohms};

/// The anemometer operating mode (paper §2).
///
/// "The anemometer principle features three main different operating modes:
/// constant current, constant power, or constant temperature. The former two
/// feature simple circuit implementation while the latter … achiev\[es\] more
/// robustness respect to changes of the temperature of the fluid itself."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatingMode {
    /// Constant-temperature: the Wheatstone bridge + PI loop holds the wire
    /// at a fixed overheat above ambient (the paper's implementation).
    ConstantTemperature,
    /// Constant-current baseline: fixed drive, velocity from the wire's
    /// temperature depression.
    ConstantCurrent,
    /// Constant-power baseline: drive adjusted to hold electrical power,
    /// velocity from the wire's temperature depression.
    ConstantPower,
}

/// Fidelity tier of the analog-front-end co-simulation.
///
/// The exact tier simulates every ΣΔ modulator tick (bridge solve, die
/// thermal step, in-amp/anti-alias/modulator/CIC chain) and is bit-identical
/// whether it runs through the scalar [`step`](crate::FlowMeter::step) path
/// or the batched [`step_frame`](crate::FlowMeter::step_frame) path. The
/// fast tier replaces the per-tick AFE with one quasi-static bridge solve and
/// DC code per control frame plus a single coarse die step — a bounded-error
/// approximation for fleet-scale studies, with the error pinned by tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AfeTier {
    /// Every modulator tick simulated; bit-identical scalar/block paths.
    Exact,
    /// One quasi-static AFE evaluation per control frame (approximate).
    Fast,
}

/// Pulsed-drive settings (paper §4: "a pulsed voltage driving technique
/// instead of continuous sensor biasing").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulsedConfig {
    /// Pulse period in control ticks.
    pub period_ticks: u32,
    /// Fraction of the period the heater is driven, `(0, 1]`.
    pub duty: f64,
}

impl PulsedConfig {
    /// 100 ms period, 25 % duty at a 1 kHz control rate.
    pub fn water_default() -> Self {
        PulsedConfig {
            period_ticks: 100,
            duty: 0.25,
        }
    }

    /// Validates the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for a zero period or a duty outside
    /// `(0, 1]`.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.period_ticks == 0 {
            return Err(CoreError::Config {
                reason: "pulse period must be at least one tick",
            });
        }
        if !(self.duty > 0.0 && self.duty <= 1.0) {
            return Err(CoreError::Config {
                reason: "pulse duty must lie in (0, 1]",
            });
        }
        Ok(())
    }

    /// Number of ON ticks per period (at least 1).
    pub fn on_ticks(&self) -> u32 {
        ((self.period_ticks as f64 * self.duty).round() as u32).max(1)
    }
}

/// Complete firmware configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowMeterConfig {
    /// Operating mode.
    pub mode: OperatingMode,
    /// ΣΔ modulator clock.
    pub modulator_rate: Hertz,
    /// Decimation ratio (modulator rate → control rate).
    pub decimation: u32,
    /// Design overheat of the wire above the fluid.
    pub overheat: KelvinDelta,
    /// Fluid temperature at which the bridge was designed/calibrated.
    pub calibration_temperature: Celsius,
    /// PI proportional gain (code/code).
    pub kp: f64,
    /// PI integral gain per control sample.
    pub ki: f64,
    /// Minimum supply-DAC code (keeps the loop observable at startup).
    pub supply_code_min: u32,
    /// Output-filter corner (the paper's 0.1 Hz sensitivity filter).
    pub output_filter: Hertz,
    /// Full-scale velocity (paper: 250 cm/s).
    pub full_scale: MetersPerSecond,
    /// Optional pulsed-drive schedule.
    pub pulsed: Option<PulsedConfig>,
    /// Fluid-temperature compensation of the King calibration (CT mode
    /// only): the firmware tracks the fluid temperature through the `Rt`
    /// bridge arm and property-scales `A`/`B`. The paper's system monitors
    /// "a temperature sensor for tracking thermal flow variation".
    pub temperature_compensation: bool,
    /// Direction-detector deadband in channel codes.
    pub direction_deadband: i32,
    /// Analog-front-end fidelity tier used by the frame path
    /// ([`FlowMeter::step_frame`](crate::FlowMeter::step_frame)); the scalar
    /// [`step`](crate::FlowMeter::step) path is always exact.
    pub afe_tier: AfeTier,
}

impl FlowMeterConfig {
    /// The paper's water-station configuration: constant-temperature mode,
    /// 256 kHz modulator decimated to a 1 kHz control rate, 15 K overheat
    /// (reduced for water), 0.1 Hz output filter, 250 cm/s full scale,
    /// continuous drive.
    pub fn water_station() -> Self {
        FlowMeterConfig {
            mode: OperatingMode::ConstantTemperature,
            modulator_rate: Hertz::from_kilohertz(256.0),
            decimation: 256,
            overheat: KelvinDelta::new(15.0),
            calibration_temperature: Celsius::new(15.0),
            kp: 0.02,
            ki: 0.005,
            supply_code_min: 410,
            output_filter: Hertz::new(0.1),
            full_scale: MetersPerSecond::from_cm_per_s(250.0),
            pulsed: None,
            // Must exceed the worst-case in-amp offset seen by the
            // direction channel (0.2 mV input-referred ≈ 130 codes);
            // auto-zeroing (`FlowMeter::auto_zero_direction`) lets tighter
            // deadbands be used.
            direction_deadband: 250,
            temperature_compensation: true,
            afe_tier: AfeTier::Exact,
        }
    }

    /// The same loop with the pulsed drive enabled (the paper's bubble
    /// mitigation).
    pub fn water_station_pulsed() -> Self {
        FlowMeterConfig {
            pulsed: Some(PulsedConfig::water_default()),
            ..FlowMeterConfig::water_station()
        }
    }

    /// An "air-style" configuration with the original 40 K overheat — the
    /// naive port that grows bubbles in water (used by experiment E5).
    pub fn air_style_overheat() -> Self {
        FlowMeterConfig {
            overheat: KelvinDelta::new(40.0),
            ..FlowMeterConfig::water_station()
        }
    }

    /// A faster test profile: 32 kHz modulator, decimate by 64 → 500 Hz
    /// control rate, 1 Hz output filter. Dynamically equivalent shape at a
    /// fraction of the simulation cost; unit tests use this.
    pub fn test_profile() -> Self {
        FlowMeterConfig {
            modulator_rate: Hertz::from_kilohertz(32.0),
            decimation: 64,
            output_filter: Hertz::new(1.0),
            ..FlowMeterConfig::water_station()
        }
    }

    /// The control (decimated) sample rate.
    pub fn control_rate(&self) -> Hertz {
        Hertz::new(self.modulator_rate.get() / self.decimation as f64)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for non-positive rates/overheat, a
    /// decimation outside the CIC's range, silly gains, or an invalid pulse
    /// schedule.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.modulator_rate.get() <= 0.0 {
            return Err(CoreError::Config {
                reason: "modulator rate must be positive",
            });
        }
        if !(2..=4096).contains(&self.decimation) {
            return Err(CoreError::Config {
                reason: "decimation must lie in 2..=4096",
            });
        }
        if self.overheat.get() <= 0.0 || self.overheat.get() > 100.0 {
            return Err(CoreError::Config {
                reason: "overheat must lie in (0, 100] kelvin",
            });
        }
        if self.kp < 0.0 || self.ki < 0.0 || (self.kp == 0.0 && self.ki == 0.0) {
            return Err(CoreError::Config {
                reason: "pi gains must be non-negative and not both zero",
            });
        }
        if self.output_filter.get() <= 0.0
            || self.output_filter.get() >= self.control_rate().get() / 2.0
        {
            return Err(CoreError::Config {
                reason: "output filter corner must lie below the control nyquist",
            });
        }
        if self.full_scale.get() <= 0.0 {
            return Err(CoreError::Config {
                reason: "full scale must be positive",
            });
        }
        if let Some(p) = &self.pulsed {
            p.validate()?;
        }
        Ok(())
    }

    /// Designs the Wheatstone bridge for this configuration: the heater
    /// branch gets an equal series arm (`R1 = Rh*`), the reference branch is
    /// scaled so the balance lands on the overheated resistance at the
    /// calibration temperature.
    pub fn design_bridge(&self, heater: &Rtd, reference: &Rtd) -> Result<BridgeConfig, CoreError> {
        let rh_star = self.target_heater_resistance(heater);
        let rt_cal = reference.resistance(self.calibration_temperature);
        Ok(BridgeConfig::for_operating_point(rh_star, rt_cal)?)
    }

    /// The heater resistance the loop regulates to at the calibration
    /// temperature.
    pub fn target_heater_resistance(&self, heater: &Rtd) -> Ohms {
        heater.resistance(self.calibration_temperature + self.overheat)
    }

    /// A stable 64-bit fingerprint of the configuration (FNV-1a over the
    /// canonical `Debug` rendering, whose `f64` formatting round-trips).
    /// Two configs fingerprint equal iff they would build bit-identical
    /// meters; fleet checkpoints use this to refuse resuming under a
    /// different spec.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(format!("{self:?}").as_bytes())
    }
}

/// FNV-1a over `bytes` — the workspace's stable, dependency-free hash for
/// config fingerprints and meter state digests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Default for FlowMeterConfig {
    fn default() -> Self {
        FlowMeterConfig::water_station()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_station_validates() {
        assert!(FlowMeterConfig::water_station().validate().is_ok());
        assert!(FlowMeterConfig::water_station_pulsed().validate().is_ok());
        assert!(FlowMeterConfig::air_style_overheat().validate().is_ok());
        assert!(FlowMeterConfig::test_profile().validate().is_ok());
    }

    #[test]
    fn control_rate_derivation() {
        let cfg = FlowMeterConfig::water_station();
        assert!((cfg.control_rate().get() - 1000.0).abs() < 1e-9);
        let test = FlowMeterConfig::test_profile();
        assert!((test.control_rate().get() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn bridge_design_hits_overheat_target() {
        let cfg = FlowMeterConfig::water_station();
        let heater = Rtd::heater();
        let reference = Rtd::ambient_reference();
        let bridge = cfg.design_bridge(&heater, &reference).unwrap();
        let rt_cal = reference.resistance(cfg.calibration_temperature);
        let rh_star = bridge.balance_heater_resistance(rt_cal);
        let t_regulated = heater.temperature(rh_star);
        let overheat = t_regulated - cfg.calibration_temperature;
        assert!(
            (overheat.get() - 15.0).abs() < 0.01,
            "designed overheat {overheat}"
        );
    }

    #[test]
    fn bridge_tracks_ambient() {
        // The whole point of the Rt arm: at a different fluid temperature the
        // balance point still implies ≈ the same overheat.
        let cfg = FlowMeterConfig::water_station();
        let heater = Rtd::heater();
        let reference = Rtd::ambient_reference();
        let bridge = cfg.design_bridge(&heater, &reference).unwrap();
        for fluid in [5.0, 15.0, 25.0, 35.0] {
            let rt = reference.resistance(Celsius::new(fluid));
            let rh_star = bridge.balance_heater_resistance(rt);
            let overheat = heater.temperature(rh_star) - Celsius::new(fluid);
            // The ratio compensation carries a second-order α²·ΔT·(T−T_cal)
            // term: ~±1.1 K at ±20 °C from the calibration point.
            assert!(
                (overheat.get() - 15.0).abs() < 1.2,
                "overheat {overheat} at fluid {fluid} °C"
            );
        }
    }

    #[test]
    fn pulsed_config_on_ticks() {
        let p = PulsedConfig {
            period_ticks: 100,
            duty: 0.25,
        };
        assert_eq!(p.on_ticks(), 25);
        let tiny = PulsedConfig {
            period_ticks: 10,
            duty: 0.01,
        };
        assert_eq!(tiny.on_ticks(), 1, "duty rounds up to one tick");
    }

    #[test]
    fn fingerprint_separates_configs() {
        let a = FlowMeterConfig::water_station();
        let b = FlowMeterConfig::water_station();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = FlowMeterConfig::water_station();
        c.kp += 1e-9;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = FlowMeterConfig::water_station();
        d.afe_tier = AfeTier::Fast;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = FlowMeterConfig::water_station();
        cfg.decimation = 1;
        assert!(cfg.validate().is_err());

        let mut cfg = FlowMeterConfig::water_station();
        cfg.overheat = KelvinDelta::ZERO;
        assert!(cfg.validate().is_err());

        let mut cfg = FlowMeterConfig::water_station();
        cfg.kp = 0.0;
        cfg.ki = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = FlowMeterConfig::water_station();
        cfg.output_filter = Hertz::new(600.0);
        assert!(cfg.validate().is_err());

        let mut cfg = FlowMeterConfig::water_station();
        cfg.pulsed = Some(PulsedConfig {
            period_ticks: 0,
            duty: 0.5,
        });
        assert!(cfg.validate().is_err());

        let mut cfg = FlowMeterConfig::water_station();
        cfg.pulsed = Some(PulsedConfig {
            period_ticks: 10,
            duty: 1.5,
        });
        assert!(cfg.validate().is_err());
    }
}
