//! Flow-direction detection from the dual-heater differential.
//!
//! "The fluid picks up heat at the first resistor and transfers this to the
//! second resistor. The results are different cooling effects on the two
//! resistors. This difference can be taken for the measurement of
//! directionality." (§2) — and §5 reports "the flow direction was clearly
//! detected".
//!
//! The detector consumes the decimated code of the `V(mid A) − V(mid B)`
//! channel. For positive flow (A upstream), the downstream heater B is
//! pre-heated, runs hotter, has the larger resistance and the higher
//! midpoint — so the channel code is *negative* for positive flow. A
//! deadband plus an up/down confidence counter gives hysteresis against
//! turbulence noise.

/// Detected flow direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowDirection {
    /// Flow from heater A towards heater B (positive velocity).
    Forward,
    /// Flow from heater B towards heater A (negative velocity).
    Reverse,
    /// No confident direction (stagnant flow or inside the deadband).
    Indeterminate,
}

impl FlowDirection {
    /// Signed multiplier: +1, −1, or 0.
    pub fn signum(self) -> f64 {
        match self {
            FlowDirection::Forward => 1.0,
            FlowDirection::Reverse => -1.0,
            FlowDirection::Indeterminate => 0.0,
        }
    }
}

/// Hysteretic direction detector.
#[derive(Debug, Clone)]
pub struct DirectionDetector {
    deadband: i32,
    confidence: i32,
    /// Confidence needed to switch state.
    threshold: i32,
    state: FlowDirection,
}

impl DirectionDetector {
    /// Creates a detector with the given code deadband; `threshold` control
    /// ticks of consistent evidence are required to declare a direction.
    pub fn new(deadband: i32, threshold: i32) -> Self {
        DirectionDetector {
            deadband: deadband.abs(),
            confidence: 0,
            threshold: threshold.max(1),
            state: FlowDirection::Indeterminate,
        }
    }

    /// The current detected direction.
    #[inline]
    pub fn direction(&self) -> FlowDirection {
        self.state
    }

    /// Consumes one decimated `mid A − mid B` code and returns the updated
    /// direction.
    pub fn update(&mut self, diff_code: i32) -> FlowDirection {
        // Negative code → B hotter → forward flow.
        let evidence = if diff_code <= -self.deadband {
            1
        } else if diff_code >= self.deadband {
            -1
        } else {
            0
        };
        match evidence {
            1 => self.confidence = (self.confidence + 1).min(self.threshold),
            -1 => self.confidence = (self.confidence - 1).max(-self.threshold),
            _ => {
                // Decay towards indeterminate.
                self.confidence -= self.confidence.signum();
            }
        }
        if self.confidence >= self.threshold {
            self.state = FlowDirection::Forward;
        } else if self.confidence <= -self.threshold {
            self.state = FlowDirection::Reverse;
        } else if self.confidence == 0 {
            self.state = FlowDirection::Indeterminate;
        }
        self.state
    }

    /// Resets to indeterminate.
    pub fn reset(&mut self) {
        self.confidence = 0;
        self.state = FlowDirection::Indeterminate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> DirectionDetector {
        DirectionDetector::new(60, 5)
    }

    #[test]
    fn forward_flow_detected() {
        let mut d = detector();
        for _ in 0..5 {
            d.update(-500);
        }
        assert_eq!(d.direction(), FlowDirection::Forward);
        assert_eq!(d.direction().signum(), 1.0);
    }

    #[test]
    fn reverse_flow_detected() {
        let mut d = detector();
        for _ in 0..5 {
            d.update(500);
        }
        assert_eq!(d.direction(), FlowDirection::Reverse);
        assert_eq!(d.direction().signum(), -1.0);
    }

    #[test]
    fn deadband_stays_indeterminate() {
        let mut d = detector();
        for _ in 0..100 {
            d.update(30);
            d.update(-30);
        }
        assert_eq!(d.direction(), FlowDirection::Indeterminate);
        assert_eq!(d.direction().signum(), 0.0);
    }

    #[test]
    fn single_glitch_does_not_flip() {
        let mut d = detector();
        for _ in 0..20 {
            d.update(-500);
        }
        assert_eq!(d.update(500), FlowDirection::Forward, "one opposing tick");
        for _ in 0..3 {
            d.update(-500);
        }
        assert_eq!(d.direction(), FlowDirection::Forward);
    }

    #[test]
    fn sustained_reversal_flips() {
        let mut d = detector();
        for _ in 0..10 {
            d.update(-500);
        }
        assert_eq!(d.direction(), FlowDirection::Forward);
        let mut flipped_after = 0;
        for i in 1..=30 {
            if d.update(500) == FlowDirection::Reverse {
                flipped_after = i;
                break;
            }
        }
        assert!(
            (5..=15).contains(&flipped_after),
            "flip took {flipped_after} ticks"
        );
    }

    #[test]
    fn decay_to_indeterminate_when_flow_stops() {
        let mut d = detector();
        for _ in 0..10 {
            d.update(-500);
        }
        let mut cleared = false;
        for _ in 0..20 {
            if d.update(0) == FlowDirection::Indeterminate {
                cleared = true;
                break;
            }
        }
        assert!(cleared, "direction latched after flow stopped");
    }

    #[test]
    fn reset() {
        let mut d = detector();
        for _ in 0..10 {
            d.update(-500);
        }
        d.reset();
        assert_eq!(d.direction(), FlowDirection::Indeterminate);
    }
}
