//! Shared plumbing of the bench binaries' JSON reports and `--check` gates.

use std::path::Path;

/// Reads the `--check` baseline *before* a bench run writes its `--out`
/// report.
///
/// Returns `Ok(None)` without `--check`. Refuses when both options name
/// the same file: the run would overwrite the baseline and then compare
/// the fresh report with itself, a gate that can never fail.
///
/// # Errors
///
/// A message naming the clash, or the baseline that cannot be read.
pub fn load_baseline(check: Option<&str>, out: &str) -> Result<Option<String>, String> {
    let Some(check) = check else {
        return Ok(None);
    };
    if same_file(check, out) {
        return Err(format!(
            "--check {check} names the --out report; write the fresh run elsewhere \
             (e.g. --out {})",
            ci_out_name(check)
        ));
    }
    std::fs::read_to_string(check)
        .map(Some)
        .map_err(|e| format!("cannot read baseline {check}: {e}"))
}

/// Whether two paths name one file: equal canonical forms when both
/// exist, equal spellings otherwise.
fn same_file(a: &str, b: &str) -> bool {
    match (
        std::fs::canonicalize(Path::new(a)),
        std::fs::canonicalize(Path::new(b)),
    ) {
        (Ok(a), Ok(b)) => a == b,
        _ => a == b,
    }
}

/// `BENCH_x.json` → `BENCH_x_ci.json`, the name CI writes fresh runs to.
fn ci_out_name(baseline: &str) -> String {
    match baseline.strip_suffix(".json") {
        Some(stem) => format!("{stem}_ci.json"),
        None => format!("{baseline}_ci"),
    }
}

/// Renders `x` as a JSON number: `{}` formatting when finite, `null`
/// otherwise (JSON has no NaN or infinity).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Pulls `"<key>": <number>` out of a baseline report without a JSON
/// parser (the workspace has no JSON crate). The first occurrence wins.
pub fn parse_number(baseline: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = baseline.find(&needle)? + needle.len();
    let rest = baseline[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls `"<key>": "<string>"` out of a baseline report, like
/// [`parse_number`]; the string must carry no escapes. The first
/// occurrence wins.
pub fn parse_string<'a>(baseline: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = baseline.find(&needle)? + needle.len();
    let rest = baseline[at..].trim_start().strip_prefix('"')?;
    rest.find('"').map(|end| &rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str, body: &str) -> String {
        let dir = std::env::temp_dir().join(format!("hotwire-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn no_check_reads_nothing() {
        assert_eq!(load_baseline(None, "BENCH_x.json"), Ok(None));
    }

    #[test]
    fn baseline_is_read_before_any_write() {
        let base = scratch("base.json", "{\"speedup\": 2.5}");
        let got = load_baseline(Some(&base), "fresh_ci.json")
            .unwrap()
            .unwrap();
        assert_eq!(parse_number(&got, "speedup"), Some(2.5));
    }

    #[test]
    fn same_file_is_refused() {
        let base = scratch("same.json", "{}");
        let err = load_baseline(Some(&base), &base).unwrap_err();
        assert!(err.contains("names the --out report"), "{err}");
        // Also when spelled differently but resolving to one file.
        let dir = Path::new(&base).parent().unwrap();
        let dotted = dir.join(".").join("same.json");
        assert!(load_baseline(Some(&base), &dotted.to_string_lossy()).is_err());
        // And when neither exists yet but the spellings agree.
        assert!(load_baseline(Some("missing.json"), "missing.json").is_err());
    }

    #[test]
    fn missing_baseline_is_an_error() {
        let err = load_baseline(Some("no/such/BENCH.json"), "out.json").unwrap_err();
        assert!(err.contains("cannot read baseline"), "{err}");
    }

    #[test]
    fn json_number_prints_finite_values_and_nulls_the_rest() {
        assert_eq!(json_number(2.5), "2.5");
        assert_eq!(json_number(-0.125), "-0.125");
        assert_eq!(json_number(1e21), format!("{}", 1e21));
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn parse_number_reads_the_first_key() {
        let json = "{\"a\": 1e3, \"b\": -0.5, \"a\": 7}";
        assert_eq!(parse_number(json, "a"), Some(1000.0));
        assert_eq!(parse_number(json, "b"), Some(-0.5));
        assert_eq!(parse_number(json, "c"), None);
    }

    #[test]
    fn parse_string_reads_the_first_key() {
        let json = "{\"d\": \"00ff\", \"n\": 3, \"d\": \"beef\"}";
        assert_eq!(parse_string(json, "d"), Some("00ff"));
        assert_eq!(parse_string(json, "n"), None);
        assert_eq!(parse_string(json, "x"), None);
        assert_eq!(parse_string("{\"d\": \"open", "d"), None);
    }
}
