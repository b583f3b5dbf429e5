//! The result line, the human-readable report and the small statistics
//! every workload shares.

use std::time::Instant;

/// One benchmark run's outcome: correctness tallies plus named metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (lines, specs, sessions and checks).
    pub attempted: u64,
    /// Operations that failed or checks that did not hold.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the metric table (digests,
    /// accuracy figures, failed-check descriptions).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation; a failure is also described.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Prints the notes, a metric table and, as the last line, the JSON
    /// result object. A non-finite metric cannot be written as JSON: it is
    /// printed as 0 and counted as a failed check.
    pub fn print(mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect();
        for name in bad {
            self.check(false, || format!("metric {name} is not finite"));
        }
        for line in &self.notes {
            println!("{line}");
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<40} {ratio:>22}  ratio (failed / attempted)",
            "ops_failed_ratio"
        );
        for (name, value, unit) in &self.metrics {
            println!("{name:<40} {value:>22}  {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip rendering gives it.
fn json_number(x: f64) -> String {
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of `values` (mean of the middle pair for even counts); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank `q`-quantile of `values` (`q` in `[0, 1]`); NaN when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// One timed repetition of a workload's unit of work.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Wall seconds the repetition took.
    pub wall_s: f64,
    /// Lines (sessions, specs) completed.
    pub lines: u64,
    /// Frames processed: simulated control frames, or wire frames decoded.
    pub frames: u64,
    /// Lines that returned an error.
    pub failed: u64,
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Fewest timed repetitions a run makes, however long each takes.
pub const MIN_REPS: usize = 3;

/// Runs `setup` [`SETUPS`] times (keeping the last result), then repeats
/// `rep` until `seconds` of wall time have passed, and folds the
/// throughput metrics every workload reports into `report`.
///
/// # Errors
///
/// The first set-up error; nothing is timed then.
pub fn measure<S>(
    report: &mut Report,
    seconds: f64,
    mut setup: impl FnMut() -> Result<S, String>,
    mut rep: impl FnMut(&S) -> Rep,
) -> Result<S, String> {
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        state = Some(setup()?);
        setup_times.push(secs(start));
    }
    let state = state.expect("SETUPS > 0");
    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_REPS || secs(start) < seconds {
        reps.push(rep(&state));
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let lines_per_s: Vec<f64> = reps.iter().map(|r| r.lines as f64 / r.wall_s).collect();
    let frames_per_s: Vec<f64> = reps.iter().map(|r| r.frames as f64 / r.wall_s).collect();
    let attempted: u64 = reps.iter().map(|r| r.lines).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    report.tally(attempted, failed);
    report.note(format!(
        "timed: {} repetitions in {:.2} s; per repetition {} lines, {} frames; \
         wall p50 {:.4} s, p90 {:.4} s",
        reps.len(),
        secs(start),
        reps[0].lines,
        reps[0].frames,
        median(&walls),
        quantile(&walls, 0.9)
    ));
    report.metric("setup_s", median(&setup_times), "s");
    report.metric("lines_per_s", median(&lines_per_s), "1/s");
    report.metric("frames_per_s", median(&frames_per_s), "1/s");
    report.metric("time_to_result_s", median(&walls), "s");
    Ok(state)
}
