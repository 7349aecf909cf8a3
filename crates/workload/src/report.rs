//! Table formatting for the benchmark harness.
//!
//! The paper's figures are line plots; the harness prints the same series
//! as aligned ASCII tables with a `paper:` annotation column where the
//! paper reports a comparable number, so `repro`'s output reads as a
//! paper-vs-measured record.

use std::fmt::Write as _;

/// A printable table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut parts = Vec::new();
            for (i, c) in cells.iter().enumerate() {
                parts.push(format!("{:<width$}", c, width = widths[i]));
            }
            let _ = writeln!(out, "| {} |", parts.join(" | "));
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 3 + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a causal strength in the paper's style (scientific when tiny).
pub fn cs_fmt(v: f64) -> String {
    if v >= 0.001 {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

/// Reads the benchmark scale from `LADON_SCALE` (`quick` default, `full`
/// for paper-scale sweeps). Quick keeps all of `repro` to a few minutes.
pub fn scale() -> Scale {
    match std::env::var("LADON_SCALE").as_deref() {
        Ok("full") => Scale::Full,
        _ => Scale::Quick,
    }
}

/// Benchmark scale presets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Small replica counts, short windows (CI-friendly).
    Quick,
    /// The paper's full 8–128 replica sweep.
    Full,
}

impl Scale {
    /// Replica counts for scalability sweeps (paper: 8–128).
    pub fn replica_counts(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![8, 16],
            Scale::Full => vec![8, 16, 32, 64, 128],
        }
    }

    /// Measurement window seconds.
    ///
    /// Straggler experiments need windows spanning several straggler
    /// proposal intervals (k = 10 → one block every ~10 s at m = n = 16),
    /// otherwise Ladon's confirmation bar sits in its startup transient.
    pub fn duration_s(self) -> f64 {
        match self {
            Scale::Quick => 24.0,
            Scale::Full => 45.0,
        }
    }

    /// Warmup seconds (must cover every instance's first proposal,
    /// including the slowest straggler's).
    pub fn warmup_s(self) -> f64 {
        match self {
            Scale::Quick => 12.0,
            Scale::Full => 15.0,
        }
    }

    /// Measurement window for straggler runs. Pre-determined orderers
    /// confirm in bursts, one per straggler proposal (§2.1); the window
    /// must span several bursts or measured throughput collapses to zero
    /// instead of the paper's ≈ 1/k fraction. The straggler interval grows
    /// with `n` (fixed total block rate), so the window scales with it.
    pub fn straggler_duration_s(self, straggler_interval_s: f64) -> f64 {
        self.duration_s().max(3.0 * straggler_interval_s)
    }

    /// Warmup for straggler runs: Ladon's confirmation bar needs every
    /// instance's *first* block (the bar stays at its initial value until
    /// all instances have tips), so the warmup must cover at least one
    /// straggler proposal interval.
    pub fn straggler_warmup_s(self, straggler_interval_s: f64) -> f64 {
        self.warmup_s().max(1.5 * straggler_interval_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec!["100".into(), "x".into(), "yy".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("| a   | long-header | c  |"));
        assert!(s.contains("| 100 | x           | yy |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn cs_format_switches_to_scientific() {
        assert_eq!(cs_fmt(1.0), "1.000");
        assert_eq!(cs_fmt(0.154), "0.154");
        assert!(cs_fmt(1.04e-5).contains('e'));
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Quick.replica_counts().len() < Scale::Full.replica_counts().len());
        assert!(Scale::Quick.duration_s() < Scale::Full.duration_s());
        assert!(
            Scale::Quick.warmup_s() >= 12.0,
            "warmup must cover straggler first blocks"
        );
    }
}
