//! `compare A B`: the before/after table.
//!
//! Each side is a report file written by `run --out`, or a directory of
//! such files (one per seed). One row per (workload, end-to-end metric):
//! both medians over the side's runs, the run-to-run spread
//! (interquartile distance as a share of the median, by the rule of
//! Python's `statistics.quantiles`), the metric's bound, and a verdict:
//!
//! - `worse`: B's median is worse than A's by more than the bound;
//! - `missing`: one side measured the pair and the other did not;
//! - `unresolved`: not worse, but the spread of either side exceeds the
//!   bound, so "unchanged" cannot be claimed either;
//! - `ok`: otherwise.
//!
//! The comparison fails on any `worse` or `missing` row, and when a run
//! on either side was incorrect (its checker fired) or had failed
//! operations: numbers from a broken run prove nothing.
//!
//! A side with a single run per workload has no run-to-run spread; its
//! spread is then the min–max range over that run's repetitions.

use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};
use ladon_obs::Json;
use std::path::Path;

/// One side of a row: the median and the spread behind it.
struct Side {
    median: f64,
    spread: f64,
    runs: usize,
}

/// The runs of one report file.
fn load_file(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc
        .get("runs")
        .and_then(Json::items)
        .ok_or_else(|| format!("{}: no \"runs\" array", path.display()))?
        .to_vec())
}

/// The runs of a report file, or of every `*.json` in a directory.
fn load(path: &str) -> Result<Vec<Json>, String> {
    let path = Path::new(path);
    if !path.is_dir() {
        return load_file(path);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|f| f.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs = Vec::new();
    for f in &files {
        runs.extend(load_file(f)?);
    }
    Ok(runs)
}

/// One line per run that was incorrect or had failed operations.
fn broken_runs(runs: &[Json]) -> Vec<String> {
    runs.iter()
        .filter(|r| {
            r.get("correct") != Some(&Json::Bool(true))
                || r.get("failed").and_then(Json::as_u64) != Some(0)
        })
        .map(|r| {
            format!(
                "{} seed {} trace {}: correct={} failed={}",
                r.get("workload").and_then(Json::as_str).unwrap_or("?"),
                r.get("seed").map_or("?".into(), Json::render),
                r.get("trace").map_or("?".into(), Json::render),
                r.get("correct").map_or("?".into(), Json::render),
                r.get("failed").map_or("?".into(), Json::render),
            )
        })
        .collect()
}

fn side(runs: &[Json], workload: &str, metric: &str) -> Option<Side> {
    let entries: Vec<&Json> = runs
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_u64) == Some(0)
        })
        .filter_map(|r| r.get("metrics")?.get(metric))
        .collect();
    let values: Vec<f64> = entries
        .iter()
        .filter_map(|m| m.get("value")?.as_f64())
        .collect();
    if values.is_empty() {
        return None;
    }
    let med = median(&values);
    let spread = if values.len() > 1 {
        iqr_share(&values)
    } else {
        let num = |k: &str| entries[0].get(k).and_then(Json::as_f64).unwrap_or(med);
        if med == 0.0 {
            0.0
        } else {
            (num("max") - num("min")).abs() / med.abs()
        }
    };
    Some(Side {
        median: med,
        spread,
        runs: values.len(),
    })
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

/// `None` when neither side measured the pair.
fn verdict(m: &EndToEnd, a: Option<&Side>, b: Option<&Side>) -> Option<&'static str> {
    let (a, b) = match (a, b) {
        (None, None) => return None,
        (Some(a), Some(b)) => (a, b),
        _ => return Some("missing"),
    };
    Some(if worse_by(m, a.median, b.median) > m.bound {
        "worse"
    } else if a.spread.max(b.spread) > m.bound {
        "unresolved"
    } else {
        "ok"
    })
}

/// Whether a comparison with this verdict may pass.
fn passes(verdict: &str) -> bool {
    verdict == "ok" || verdict == "unresolved"
}

/// Prints the table; `Ok(true)` when every run on both sides was sound
/// and no row is `worse` or `missing`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("A = {path_a}\nB = {path_b}");
    let mut all_ok = true;
    for (label, runs) in [("A", &a), ("B", &b)] {
        for line in broken_runs(runs) {
            all_ok = false;
            println!("BROKEN RUN in {label}: {line}");
        }
    }
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "A sprd", "B sprd", "bound"
    );
    let mut rows = 0;
    for &(workload, _) in WORKLOADS {
        for m in END_TO_END {
            let (sa, sb) = (side(&a, workload, m.name), side(&b, workload, m.name));
            let Some(v) = verdict(m, sa.as_ref(), sb.as_ref()) else {
                continue;
            };
            rows += 1;
            all_ok &= passes(v);
            let (Some(sa), Some(sb)) = (sa, sb) else {
                println!("{workload:<14} {:<16} {v}", m.name);
                continue;
            };
            println!(
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%  {v} ({} / {} runs, {} {})",
                workload,
                m.name,
                sa.median,
                sb.median,
                -worse_by(m, sa.median, sb.median) * 100.0,
                sa.spread * 100.0,
                sb.spread * 100.0,
                m.bound * 100.0,
                sa.runs,
                sb.runs,
                m.unit,
                m.better.as_str(),
            );
        }
    }
    if rows == 0 {
        return Err("neither side holds an end-to-end run".into());
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, v: f64, correct: bool, failed: u64) -> Json {
        Json::parse(&format!(
            r#"{{"workload":"{workload}","seed":7,"trace":0,"correct":{correct},"failed":{failed},
                "metrics":{{"wall_ktps":{{"value":{v},"unit":"ktx/s","min":{},"max":{}}}}}}}"#,
            v * 0.99,
            v * 1.01
        ))
        .unwrap()
    }

    fn runs(values: &[f64]) -> Vec<Json> {
        values
            .iter()
            .map(|&v| run("durable_file", v, true, 0))
            .collect()
    }

    /// A higher-is-better metric with a 10 % bound, whatever the spec says.
    fn wall() -> &'static EndToEnd {
        &EndToEnd {
            name: "wall_ktps",
            unit: "ktx/s",
            better: Better::Higher,
            bound: 0.10,
        }
    }

    fn wall_side(values: &[f64]) -> Side {
        side(&runs(values), "durable_file", "wall_ktps").unwrap()
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let a = wall_side(&steady);
        assert_eq!(a.runs, 5);
        assert!(a.spread < 0.02);
        // Higher is better: 12 % lower is worse, 5 % lower is within bound.
        let slow = wall_side(&steady.map(|v| v * 0.88));
        let near = wall_side(&steady.map(|v| v * 0.95));
        assert_eq!(verdict(wall(), Some(&a), Some(&slow)), Some("worse"));
        assert_eq!(verdict(wall(), Some(&a), Some(&near)), Some("ok"));
        assert_eq!(verdict(wall(), Some(&slow), Some(&a)), Some("ok"));
        // A wide spread cannot claim "unchanged".
        let noisy = wall_side(&[80.0, 120.0, 100.0, 70.0, 130.0]);
        assert_eq!(verdict(wall(), Some(&a), Some(&noisy)), Some("unresolved"));
    }

    #[test]
    fn a_pair_measured_on_one_side_only_fails_the_comparison() {
        let a = wall_side(&[100.0, 101.0]);
        assert_eq!(verdict(wall(), Some(&a), None), Some("missing"));
        assert_eq!(verdict(wall(), None, Some(&a)), Some("missing"));
        assert_eq!(verdict(wall(), None, None), None);
        assert!(!passes("missing") && !passes("worse"));
        assert!(passes("ok") && passes("unresolved"));
    }

    #[test]
    fn incorrect_and_failed_runs_are_reported() {
        let sound = runs(&[100.0, 101.0]);
        assert!(broken_runs(&sound).is_empty());
        let mut with_violation = sound.clone();
        with_violation.push(run("durable_file", 100.0, false, 0));
        assert_eq!(broken_runs(&with_violation).len(), 1);
        let mut with_failures = sound.clone();
        with_failures.push(run("hotstuff_n16", 100.0, true, 3));
        let lines = broken_runs(&with_failures);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("hotstuff_n16") && lines[0].contains("failed=3"));
        // A run entry without the fields is not taken on trust either.
        let bare = Json::parse(r#"{"workload":"durable_file","trace":0}"#).unwrap();
        assert_eq!(broken_runs(&[bare]).len(), 1);
    }

    #[test]
    fn single_run_uses_repetition_range() {
        let s = wall_side(&[100.0]);
        assert!((s.spread - 0.02).abs() < 1e-9);
        assert!(side(&runs(&[100.0]), "hotstuff_n16", "wall_ktps").is_none());
    }

    #[test]
    fn lower_is_better_flips_the_sign() {
        let latency = END_TO_END
            .iter()
            .find(|m| m.name == "latency_p50_ms")
            .unwrap();
        assert!(worse_by(latency, 10.0, 12.0) > 0.0);
        assert!(worse_by(latency, 10.0, 8.0) < 0.0);
        assert!(worse_by(wall(), 10.0, 12.0) < 0.0);
    }
}
