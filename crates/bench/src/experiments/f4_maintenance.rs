//! F4 — fleet maintenance: recalibration cost vs. population accuracy.
//!
//! A capillary deployment (§6) cannot send a technician to every meter,
//! so calibration upkeep must be a *policy*, not a visit: when does a
//! line re-zero its drift monitor, refit its installed fit, and spend
//! EEPROM wear persisting the result? This experiment sweeps the
//! [`maintain`](hotwire_rig::maintain) policies over a compressed
//! service season — a seasonal temperature excursion with CaCO₃ scale
//! stepping onto every third line (§4's fouling mechanism) — and maps
//! the frontier between the two fleet-scale currencies:
//!
//! * **cost** — maintenance actions per line, and persists per line
//!   (each persist burns a write cycle on both EEPROM slots),
//! * **accuracy** — the population's RMS-error percentiles over the
//!   whole season, drift and fouling included.
//!
//! Both sensing modalities run the identical policy code through the
//! trait-level calibration surface: the engine never knows whether it is
//! servicing a CTA bridge or a heat-pulse counter. `Scheduled` pays a
//! fixed persist bill whether or not anything drifted; `EventTriggered`
//! spends only on observed drift/temperature excursions; `Hybrid` adds a
//! slow clock as a backstop. The frontier table makes the trade legible:
//! accuracy per persist, not accuracy at any price.

use super::Speed;
use crate::table::Table;
use hotwire_core::config::FlowMeterConfig;
use hotwire_rig::fault::{FaultKind, FaultSchedule};
use hotwire_rig::fleet::{FleetError, FleetSpec, LineVariation};
use hotwire_rig::maintain::{Maintenance, MaintenanceCounters, Policy};
use hotwire_rig::{LineConfig, Modality, Scenario, Windows};

/// Steady demand every line's jittered schedule is derived from, cm/s.
const FLOW_CM_S: f64 = 100.0;
/// Per-line flow-demand jitter fraction.
const FLOW_JITTER: f64 = 0.04;
/// Seasonal water-temperature excursion, °C (winter → summer, e12's
/// thermal-compensation regime compressed into one run).
const TEMP_FROM_C: f64 = 12.0;
const TEMP_TO_C: f64 = 32.0;
/// Every `FOULING_STRIDE`-th line accumulates scale.
const FOULING_STRIDE: usize = 3;
/// Scale thickness per fouling step, µm (three steps land per season).
const FOULING_STEP_UM: f64 = 6.0;
/// Relative conductance drift that wakes the event-triggered policies.
const DRIFT_THRESHOLD: f64 = 0.02;
/// Water-temperature excursion that wakes the event-triggered policies, °C.
const TEMP_DELTA_C: f64 = 8.0;

/// The four policies under test, parameterized to the season length so
/// fast and full runs sweep the same *shape*. Public so the CI gates pin
/// exactly the experiment's policy grid.
pub fn policies(duration_s: f64) -> [(&'static str, Maintenance); 4] {
    let common = |m: Maintenance| {
        m.with_min_service_interval(duration_s * 0.02)
            .with_persist_min_interval(duration_s * 0.05)
    };
    [
        ("none", Maintenance::default()),
        (
            "scheduled",
            common(Maintenance::new(Policy::Scheduled {
                period_s: duration_s * 0.1,
            })),
        ),
        (
            "event_triggered",
            common(Maintenance::new(Policy::EventTriggered {
                on_degraded: true,
                drift_threshold: DRIFT_THRESHOLD,
                temp_delta_c: TEMP_DELTA_C,
            })),
        ),
        (
            "hybrid",
            common(Maintenance::new(Policy::Hybrid {
                period_s: duration_s * 0.35,
                on_degraded: true,
                drift_threshold: DRIFT_THRESHOLD,
                temp_delta_c: TEMP_DELTA_C,
            })),
        ),
    ]
}

/// The drifting fleet template one policy cell runs: seasonal
/// temperature ramp, fouling steps on every third line, maintenance
/// through the grouped [`LineConfig`] surface. Public so the bit-identity
/// gates exercise exactly the experiment's population.
pub fn fleet_spec(
    modality: Modality,
    maintenance: Maintenance,
    policy_name: &str,
    lines: usize,
    duration_s: f64,
) -> FleetSpec {
    let fouling = FaultSchedule::new(0)
        .with_event(
            duration_s * 0.30,
            0.0,
            FaultKind::SteppedFouling {
                microns: FOULING_STEP_UM,
            },
        )
        .with_event(
            duration_s * 0.55,
            0.0,
            FaultKind::SteppedFouling {
                microns: FOULING_STEP_UM,
            },
        )
        .with_event(
            duration_s * 0.80,
            0.0,
            FaultKind::SteppedFouling {
                microns: FOULING_STEP_UM,
            },
        );
    FleetSpec::new(
        format!("f4-{}-{}", policy_name, modality.name()),
        FlowMeterConfig::test_profile(),
        Scenario::temperature_ramp(FLOW_CM_S, TEMP_FROM_C, TEMP_TO_C, duration_s),
        0xF4,
    )
    .with_config(
        LineConfig::new()
            .with_modality(modality)
            .with_maintenance(maintenance),
    )
    .with_lines(lines)
    .with_sample_period(0.05)
    // Resolution over the stable winter plateau; error over the whole
    // season — the err percentiles are the accuracy axis.
    .with_windows(
        Windows::settled(duration_s * 0.05, duration_s * 0.18)
            .with_err(duration_s * 0.05, f64::INFINITY),
    )
    .with_variation(
        LineVariation::new()
            .with_flow_jitter(FLOW_JITTER)
            .with_faults_every(FOULING_STRIDE, 1, fouling),
    )
}

/// One cell of the policy × modality frontier.
#[derive(Debug, Clone)]
pub struct PolicyCell {
    /// Policy label from [`policies`].
    pub policy: &'static str,
    /// Sensing modality the policy serviced.
    pub modality: Modality,
    /// Fleet-summed maintenance counters.
    pub maintenance: MaintenanceCounters,
    /// Maintenance actions per line (re-zeros + refits + persists).
    pub actions_per_line: f64,
    /// EEPROM persists per line — the wear currency.
    pub persists_per_line: f64,
    /// Population median RMS error over the season, cm/s.
    pub err_p50_cm_s: f64,
    /// Population p99 RMS error over the season, cm/s.
    pub err_p99_cm_s: f64,
    /// Population median resolution over the winter plateau, % FS.
    pub resolution_p50_pct_fs: f64,
}

/// F4 results: the full frontier plus the scale it ran at.
#[derive(Debug, Clone)]
pub struct MaintenanceResult {
    /// One cell per policy × modality, policies in [`policies`] order,
    /// CTA before heat-pulse within each policy.
    pub cells: Vec<PolicyCell>,
    /// Lines per cell.
    pub lines: usize,
    /// Scenario seconds per line.
    pub duration_s: f64,
}

impl MaintenanceResult {
    /// The frontier cell for a policy label and modality.
    ///
    /// # Panics
    ///
    /// Panics when the pair is not in the grid — a typo in a caller, not
    /// a runtime condition.
    pub fn cell(&self, policy: &str, modality: Modality) -> &PolicyCell {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.modality == modality)
            .unwrap_or_else(|| panic!("no f4 cell {policy}/{}", modality.name()))
    }
}

/// The fleet scale at each fidelity: `(lines, scenario seconds)`.
pub fn scale(speed: Speed) -> (usize, f64) {
    match speed {
        Speed::Fast => (24, 20.0),
        Speed::Full => (120, 60.0),
    }
}

/// Runs F4 with the process-default job count.
///
/// # Errors
///
/// Returns [`FleetError`] if any cell's fleet cannot run (the error
/// names the failing line).
pub fn run(speed: Speed) -> Result<MaintenanceResult, FleetError> {
    let (lines, duration_s) = scale(speed);
    let mut cells = Vec::with_capacity(8);
    for (policy_name, maintenance) in policies(duration_s) {
        for modality in [Modality::Cta, Modality::HeatPulse] {
            let outcome =
                fleet_spec(modality, maintenance, policy_name, lines, duration_s).run()?;
            let a = &outcome.aggregates;
            let m = a.maintenance;
            cells.push(PolicyCell {
                policy: policy_name,
                modality,
                maintenance: m,
                actions_per_line: m.actions() as f64 / lines as f64,
                persists_per_line: m.persists as f64 / lines as f64,
                err_p50_cm_s: a.err_rms_cm_s.p50,
                err_p99_cm_s: a.err_rms_cm_s.p99,
                resolution_p50_pct_fs: a.resolution_pct_fs.p50,
            });
        }
    }
    Ok(MaintenanceResult {
        cells,
        lines,
        duration_s,
    })
}

impl core::fmt::Display for MaintenanceResult {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "F4 / §6 — fleet maintenance: {} lines × {} s per policy cell, \
             {}→{} °C season,\nCaCO₃ steps (3 × {} µm) on every {}rd line; \
             drift threshold {:.0} %, temp trigger {} °C\n",
            self.lines,
            self.duration_s,
            TEMP_FROM_C,
            TEMP_TO_C,
            FOULING_STEP_UM,
            FOULING_STRIDE,
            DRIFT_THRESHOLD * 100.0,
            TEMP_DELTA_C
        )?;
        let mut t = Table::new([
            "policy / modality",
            "actions/line",
            "persists/line",
            "err p50 [cm/s]",
            "err p99 [cm/s]",
            "res p50 [% FS]",
        ]);
        for c in &self.cells {
            t.row([
                format!("{} / {}", c.policy, c.modality.name()),
                format!("{:.2}", c.actions_per_line),
                format!("{:.2}", c.persists_per_line),
                format!("{:.2}", c.err_p50_cm_s),
                format!("{:.2}", c.err_p99_cm_s),
                format!("{:.3}", c.resolution_p50_pct_fs),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "paper: §6's diffuse deployment makes calibration upkeep a fleet policy —\n\
             the frontier above prices accuracy in EEPROM write cycles per line"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_frontier_separates_the_policies() {
        let r = run(Speed::Fast).unwrap();
        assert_eq!(r.cells.len(), 8, "4 policies × 2 modalities");

        for modality in [Modality::Cta, Modality::HeatPulse] {
            let name = modality.name();
            // The no-maintenance baseline never acts.
            let none = r.cell("none", modality);
            assert_eq!(none.maintenance, MaintenanceCounters::default(), "{name}");

            // The clock-driven policy services every line, every period.
            let scheduled = r.cell("scheduled", modality);
            assert!(
                scheduled.actions_per_line >= 1.0,
                "{name}: scheduled policy barely acted: {:?}",
                scheduled.maintenance
            );

            // Accuracy-per-persist separation: the event policy spends
            // strictly fewer persists than the clock (it only pays on
            // observed drift/temperature), and both stay within the
            // persist rate-limit implied by the season.
            let event = r.cell("event_triggered", modality);
            assert!(
                event.maintenance.persists < scheduled.maintenance.persists,
                "{name}: event persists {} !< scheduled persists {}",
                event.maintenance.persists,
                scheduled.maintenance.persists
            );
            assert!(
                event.maintenance.actions() > 0,
                "{name}: the seasonal excursion must wake the event policy"
            );
        }
    }

    /// What `Hybrid` does guarantee relative to `EventTriggered`: with a
    /// backstop period longer than the season the clock never fires, so
    /// the two policies take bit-identical trajectories. (With a shorter
    /// period no action-count ordering follows: a backstop refit
    /// re-anchors the drift monitor and shifts every later event
    /// trigger. The age bound the clock does give is pinned in
    /// `rig::maintain`.)
    #[test]
    fn hybrid_without_its_clock_is_event_triggered() {
        let (_, duration_s) = scale(Speed::Fast);
        let grid = policies(duration_s);
        let event = grid[2].1;
        let Policy::EventTriggered {
            on_degraded,
            drift_threshold,
            temp_delta_c,
        } = event.policy
        else {
            panic!("grid[2] is the event-triggered policy");
        };
        let clockless = Maintenance {
            policy: Policy::Hybrid {
                period_s: duration_s * 2.0,
                on_degraded,
                drift_threshold,
                temp_delta_c,
            },
            ..event
        };
        // Six lines cover two fouled ones (every third line from line 1).
        for modality in [Modality::Cta, Modality::HeatPulse] {
            let run = |m| fleet_spec(modality, m, "event_triggered", 6, duration_s).run();
            let (e, h) = (run(event).unwrap(), run(clockless).unwrap());
            let name = modality.name();
            assert!(
                e.aggregates.maintenance.actions() > 0,
                "{name}: the identity must not be vacuous"
            );
            assert_eq!(e.aggregates.maintenance, h.aggregates.maintenance, "{name}");
            for (a, b) in e.lines.iter().zip(&h.lines) {
                assert_eq!(a.meter_digest, b.meter_digest, "{name} line {}", a.line);
                assert_eq!(a.maintenance, b.maintenance, "{name} line {}", a.line);
            }
        }
    }
}
