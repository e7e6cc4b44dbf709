//! Machine-readable benchmark reports.
//!
//! Every bench bin writes a `results/BENCH_<name>.json` next to its plot
//! data so sweeps can be diffed across commits and consumed by CI without
//! scraping stdout. Reports are built as [`obs::Json`] values and written
//! with its indented rendering.

use std::path::{Path, PathBuf};

use obs::Json;

/// Directory reports land in: `FG_RESULTS_DIR` if set, else `results/` at
/// the workspace root. Anchored via `CARGO_MANIFEST_DIR` rather than the
/// current directory because cargo runs bin targets from the invocation
/// directory but bench/test targets from the package directory — a relative
/// path would scatter reports across the two.
pub fn results_dir() -> PathBuf {
    std::env::var_os("FG_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .unwrap_or_else(|| Path::new("."))
                .join("results")
        })
}

/// Writes `report` to `<results_dir>/BENCH_<name>.json` (creating the
/// directory if needed) and returns the path.
pub fn write_report(name: &str, report: &Json) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut body = report.render();
    body.push('\n');
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Writes a pre-rendered artifact (timeline, trace) to
/// `<results_dir>/<filename>` and returns the path. The body is written
/// byte-for-byte, so deterministic renderings stay byte-identical on disk.
pub fn write_artifact(filename: &str, body: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(filename);
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Reads a previously written report back as raw text (the regression gate
/// in `benches/engine.rs` extracts single numeric fields with
/// [`extract_number`] rather than fully parsing).
pub fn read_report(path: &Path) -> std::io::Result<String> {
    std::fs::read_to_string(path)
}

/// Pulls the first numeric value following `"key":` out of rendered JSON.
///
/// Good enough for the flat baseline files this repo checks in; not a JSON
/// parser.
pub fn extract_number(body: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let rest = body[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_number_finds_flat_fields() {
        let body = "{\n  \"events_per_sec\": 1234567.5,\n  \"wall_s\": 0.25\n}\n";
        assert_eq!(extract_number(body, "events_per_sec"), Some(1234567.5));
        assert_eq!(extract_number(body, "wall_s"), Some(0.25));
        assert_eq!(extract_number(body, "absent"), None);
    }
}
