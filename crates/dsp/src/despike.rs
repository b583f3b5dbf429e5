//! Median despiking of the conditioned signal.
//!
//! Bubble detachment produces isolated spikes in the conditioned signal
//! (paper §4); a short median kills them without the phase lag of a low-pass.

/// A 5-sample sliding median — removes up to two consecutive outliers.
///
/// ```
/// use hotwire_dsp::despike::Median5;
///
/// let mut m = Median5::new();
/// // A single spike in an otherwise flat stream never reaches the output.
/// let out: Vec<i32> = [10, 10, 9000, 10, 10, 10, 10].iter().map(|&x| m.push(x)).collect();
/// assert!(out.iter().all(|&y| y <= 10));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Median5 {
    window: [i32; 5],
    filled: usize,
    head: usize,
}

impl Median5 {
    /// Creates an empty median window.
    pub fn new() -> Self {
        Median5::default()
    }

    /// Pushes a sample and returns the median of the last five (fewer during
    /// warm-up).
    pub fn push(&mut self, x: i32) -> i32 {
        self.window[self.head] = x;
        self.head = (self.head + 1) % 5;
        if self.filled < 5 {
            self.filled += 1;
        }
        let mut buf = [0i32; 5];
        buf[..self.filled].copy_from_slice(
            &{
                let mut tmp = [0i32; 5];
                for (i, t) in tmp.iter_mut().take(self.filled).enumerate() {
                    // Oldest-to-newest order does not matter for a median.
                    *t = self.window[(self.head + 5 - self.filled + i) % 5];
                }
                tmp
            }[..self.filled],
        );
        let slice = &mut buf[..self.filled];
        slice.sort_unstable();
        slice[self.filled / 2]
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        *self = Median5::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_kills_single_spike() {
        let mut m = Median5::new();
        for _ in 0..5 {
            m.push(100);
        }
        assert_eq!(m.push(50_000), 100);
        assert_eq!(m.push(100), 100);
    }

    #[test]
    fn median_kills_double_spike() {
        let mut m = Median5::new();
        for _ in 0..5 {
            m.push(100);
        }
        m.push(50_000);
        assert_eq!(m.push(50_000), 100);
    }

    #[test]
    fn median_tracks_steps() {
        let mut m = Median5::new();
        for _ in 0..5 {
            m.push(0);
        }
        for _ in 0..5 {
            m.push(1000);
        }
        assert_eq!(m.push(1000), 1000);
    }

    #[test]
    fn median_warm_up() {
        let mut m = Median5::new();
        assert_eq!(m.push(7), 7);
        assert_eq!(m.push(9), 9); // median of [7,9] (upper of two)
        assert_eq!(m.push(8), 8);
    }

    #[test]
    fn median_reset() {
        let mut m = Median5::new();
        m.push(100);
        m.push(200);
        m.reset();
        assert_eq!(m.push(5), 5);
    }
}
