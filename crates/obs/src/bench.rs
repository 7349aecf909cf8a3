//! Machine-readable benchmark emission: the `BENCH_*.json` format, its
//! schema validator, and the environment plumbing that lets `fig_*`
//! benches and the `repro` bin accumulate figures into one file.
//!
//! A [`BenchReport`] is a flat two-level document:
//!
//! ```json
//! {
//!   "meta":    { "seed": 42, "mode": "smoke", ... },
//!   "figures": {
//!     "fig5_scalability": { "ktps": 103.2, "wall_elapsed_s": 1.7, ... },
//!     ...
//!   }
//! }
//! ```
//!
//! Field values inside a figure are numbers or strings. The `wall_`
//! prefix convention from the registry applies here too:
//! [`BenchReport::deterministic_json`] strips `wall_*` fields, and the
//! determinism gate compares that subset across seeded runs, while the
//! committed file keeps the wall-clock numbers as the perf trajectory.
//!
//! Emission is cooperative across processes: `repro` runs each `fig_*`
//! bench with `LADON_BENCH_JSON` pointing at one path; each bench calls
//! [`emit_figure`], which load-merges-saves so figures accumulate.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::registry::is_wall_metric;

/// Environment variable naming the `BENCH_*.json` accumulation path.
/// When unset, [`emit_figure`] is a no-op (normal `cargo bench` runs
/// stay side-effect free).
pub const BENCH_JSON_ENV: &str = "LADON_BENCH_JSON";

/// A machine-readable benchmark report: metadata plus named figures.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    pub meta: BTreeMap<String, Json>,
    pub figures: BTreeMap<String, BTreeMap<String, Json>>,
}

impl BenchReport {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set_meta(&mut self, key: &str, value: Json) {
        self.meta.insert(key.to_string(), value);
    }

    /// Inserts (or extends) a figure with the given fields.
    pub fn add_figure(&mut self, name: &str, fields: Vec<(String, Json)>) {
        let fig = self.figures.entry(name.to_string()).or_default();
        for (k, v) in fields {
            fig.insert(k, v);
        }
    }

    fn json_value(&self, include_wall: bool) -> Json {
        let keep = |name: &str| include_wall || !is_wall_metric(name);
        let meta: Vec<(String, Json)> = self
            .meta
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let figures: Vec<(String, Json)> = self
            .figures
            .iter()
            .map(|(name, fields)| {
                let members: Vec<(String, Json)> = fields
                    .iter()
                    .filter(|(k, _)| keep(k))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                (name.clone(), Json::Obj(members))
            })
            .collect();
        Json::Obj(vec![
            ("meta".into(), Json::Obj(meta)),
            ("figures".into(), Json::Obj(figures)),
        ])
    }

    /// Full report as a JSON value (including `wall_*` fields).
    pub fn to_json(&self) -> Json {
        self.json_value(true)
    }

    /// The committed-file rendering: pretty-printed, diffable.
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Deterministic subset only (no `wall_*` fields), compact. Two
    /// same-seed runs must produce this byte-identically.
    pub fn deterministic_json(&self) -> String {
        self.json_value(false).render()
    }

    /// Parses a report previously produced by [`Self::render`] /
    /// [`Self::to_json`].
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let root = Json::parse(text)?;
        let mut report = BenchReport::new();
        if let Some(meta) = root.get("meta").and_then(Json::members) {
            for (k, v) in meta {
                report.meta.insert(k.clone(), v.clone());
            }
        }
        let figures = root
            .get("figures")
            .and_then(Json::members)
            .ok_or_else(|| "missing `figures` object".to_string())?;
        for (name, fig) in figures {
            let members = fig
                .members()
                .ok_or_else(|| format!("figure `{name}` is not an object"))?;
            report
                .figures
                .insert(name.clone(), members.iter().cloned().collect());
        }
        Ok(report)
    }

    pub fn load(path: &Path) -> Result<BenchReport, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(path, self.render()).map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Validates this report against a schema (see [`BenchSchema`]).
    /// Returns all violations; empty means valid.
    pub fn validate(&self, schema: &BenchSchema) -> Vec<String> {
        let mut errors = Vec::new();
        for (fig_name, required_fields) in &schema.required_figures {
            let Some(fig) = self.figures.get(fig_name) else {
                errors.push(format!("missing figure `{fig_name}`"));
                continue;
            };
            for field in required_fields {
                match fig.get(field) {
                    None => errors.push(format!("figure `{fig_name}` missing field `{field}`")),
                    Some(Json::Null) => errors.push(format!(
                        "figure `{fig_name}` field `{field}` is null (NaN or missing measurement)"
                    )),
                    Some(_) => {}
                }
            }
        }
        // Reject nulls anywhere, even in non-required fields: a null is
        // always a NaN/Inf that leaked through the float writer.
        for (fig_name, fig) in &self.figures {
            for (field, value) in fig {
                if matches!(value, Json::Null) {
                    let msg = format!(
                        "figure `{fig_name}` field `{field}` is null (NaN or missing measurement)"
                    );
                    if !errors.contains(&msg) {
                        errors.push(msg);
                    }
                }
            }
        }
        errors
    }
}

/// The checked-in schema: which figures must exist and which fields
/// each must carry. Serialized as
/// `{"required_figures": {"<figure>": ["<field>", ...], ...}}`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchSchema {
    pub required_figures: BTreeMap<String, Vec<String>>,
}

impl BenchSchema {
    pub fn parse(text: &str) -> Result<BenchSchema, String> {
        let root = Json::parse(text)?;
        let figures = root
            .get("required_figures")
            .and_then(Json::members)
            .ok_or_else(|| "missing `required_figures` object".to_string())?;
        let mut schema = BenchSchema::default();
        for (name, fields) in figures {
            let fields = fields
                .items()
                .ok_or_else(|| format!("schema figure `{name}` is not an array"))?
                .iter()
                .map(|f| {
                    f.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("schema figure `{name}` has a non-string field"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            schema.required_figures.insert(name.clone(), fields);
        }
        Ok(schema)
    }

    pub fn load(path: &Path) -> Result<BenchSchema, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text)
    }
}

/// Builds a figure field list from `(name, value)` pairs, mapping
/// floats through [`Json::F64`] and counts through [`Json::U64`].
pub fn fields(pairs: Vec<(&str, Json)>) -> Vec<(String, Json)> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Emits one figure into the report file named by `LADON_BENCH_JSON`.
///
/// No-op when the variable is unset. Load-merge-save so concurrent
/// `fig_*` benches launched sequentially by `repro` accumulate into one
/// document. Errors are printed, not panicked — a broken emission path
/// must not fail the bench run itself (CI validates the file after).
pub fn emit_figure(figure: &str, fields: Vec<(String, Json)>) {
    let Ok(path) = std::env::var(BENCH_JSON_ENV) else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let path = Path::new(&path);
    let mut report = if path.exists() {
        match BenchReport::load(path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("obs: cannot load {}: {e}; starting fresh", path.display());
                BenchReport::new()
            }
        }
    } else {
        BenchReport::new()
    };
    report.add_figure(figure, fields);
    if let Err(e) = report.save(path) {
        eprintln!("obs: cannot save {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new();
        r.set_meta("seed", Json::U64(42));
        r.set_meta("mode", Json::Str("smoke".into()));
        r.add_figure(
            "fig5_scalability",
            fields(vec![
                ("ktps", Json::F64(103.25)),
                ("committed_txs", Json::U64(51_200)),
                ("wall_elapsed_s", Json::F64(1.73)),
            ]),
        );
        r.add_figure(
            "fig_recovery",
            fields(vec![("records_replayed", Json::U64(900))]),
        );
        r
    }

    #[test]
    fn roundtrip_and_pretty_rendering() {
        let r = sample();
        let parsed = BenchReport::parse(&r.render()).unwrap();
        assert_eq!(parsed, r);
        assert!(r.render().contains("\"fig5_scalability\""));
    }

    #[test]
    fn deterministic_json_strips_wall_fields() {
        let det = sample().deterministic_json();
        assert!(det.contains("ktps"));
        assert!(det.contains("committed_txs"));
        assert!(!det.contains("wall_elapsed_s"));
    }

    #[test]
    fn schema_validation_catches_missing_and_null() {
        let schema = BenchSchema::parse(
            r#"{"required_figures": {
                "fig5_scalability": ["ktps", "committed_txs"],
                "fig_recovery": ["records_replayed", "recovery_ms"],
                "fig_absent": ["x"]
            }}"#,
        )
        .unwrap();
        let mut r = sample();
        r.add_figure(
            "fig5_scalability",
            vec![("bad".into(), Json::F64(f64::NAN))],
        );
        // NaN renders as null; validate on the re-parsed (as-committed) form.
        let committed = BenchReport::parse(&r.render()).unwrap();
        let errors = committed.validate(&schema);
        assert!(errors
            .iter()
            .any(|e| e.contains("missing figure `fig_absent`")));
        assert!(errors
            .iter()
            .any(|e| e.contains("missing field `recovery_ms`")));
        assert!(errors.iter().any(|e| e.contains("`bad` is null")));
        assert_eq!(errors.len(), 3);

        let clean = BenchReport::parse(&sample().render()).unwrap();
        let schema_ok =
            BenchSchema::parse(r#"{"required_figures": {"fig5_scalability": ["ktps"]}}"#).unwrap();
        assert!(clean.validate(&schema_ok).is_empty());
    }

    #[test]
    fn emit_figure_accumulates_via_env() {
        let dir = std::env::temp_dir().join(format!("obs-bench-test-{}", std::process::id()));
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);
        // Serialize access to the process-global env var.
        std::env::set_var(BENCH_JSON_ENV, path.as_os_str());
        emit_figure("a", fields(vec![("x", Json::U64(1))]));
        emit_figure("b", fields(vec![("y", Json::U64(2))]));
        std::env::remove_var(BENCH_JSON_ENV);
        let report = BenchReport::load(&path).unwrap();
        assert_eq!(report.figures.len(), 2);
        assert_eq!(report.figures["a"]["x"], Json::U64(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
