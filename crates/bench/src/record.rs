//! The one writer of `bt-bench-v1` bench records.
//!
//! A bench binary collects its measurements into a [`BenchRecord`] and
//! calls [`BenchRecord::write_or_exit`]. That renders the JSON, parses it
//! back with [`bt_obs::json::parse`], runs
//! [`bt_obs::json::validate_bench`] on it, and only then writes the file.
//! A record that breaks a declared cross-check or claim, or any generic
//! rule, is never written: the process exits nonzero. The schema and its
//! rules are documented on `validate_bench`.

use bt_obs::json::{escape, parse, validate_bench};

/// Which way a cell's metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, bytes, errors.
    Lower,
    /// Rates and throughputs.
    Higher,
}

/// One measurement: a value, plus optionally the comparator's value for
/// the same measurement, the cost model's prediction, cross-checks and a
/// speedup claim.
#[derive(Debug, Clone)]
pub struct Cell {
    name: String,
    layer: &'static str,
    metric: &'static str,
    unit: &'static str,
    better: Better,
    value: f64,
    baseline: Option<f64>,
    model: Option<f64>,
    checks: Vec<(&'static str, f64, f64)>,
    claim: Option<f64>,
}

impl Cell {
    /// Sets the comparator's value for the same measurement.
    pub fn baseline(&mut self, value: f64) -> &mut Self {
        self.baseline = Some(value);
        self
    }

    /// Sets the cost model's prediction of the value.
    pub fn model(&mut self, value: f64) -> &mut Self {
        self.model = Some(value);
        self
    }

    /// Declares a cross-check: `value` must be at most `max`.
    pub fn check(&mut self, name: &'static str, value: f64, max: f64) -> &mut Self {
        self.checks.push((name, value, max));
        self
    }

    /// Declares that the speedup over the baseline is at least `min`.
    pub fn claim(&mut self, min: f64) -> &mut Self {
        self.claim = Some(min);
        self
    }

    /// The speedup over the baseline, oriented so that higher is better.
    fn speedup(&self) -> Option<f64> {
        let base = self.baseline?;
        Some(match self.better {
            Better::Lower => base / self.value,
            Better::Higher => self.value / base,
        })
    }
}

/// A bench run's record, built cell by cell.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    bench: &'static str,
    smoke: bool,
    backend: &'static str,
    params: Vec<(&'static str, f64)>,
    cells: Vec<Cell>,
    headlines: Vec<(String, &'static str)>,
}

/// A number as JSON: an integer exactly, anything else to six
/// significant digits (no measurement here carries more). A non-finite
/// number becomes `null`, which the validator rejects by the cell's name.
fn num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 1e15 {
        return format!("{v:.0}");
    }
    let v: f64 = format!("{v:.5e}")
        .parse()
        .expect("a formatted float parses");
    if (1e-4..1e15).contains(&v.abs()) {
        v.to_string()
    } else {
        format!("{v:e}")
    }
}

impl BenchRecord {
    /// An empty record for the writer `bench`; `backend` names the SPMD
    /// backend the timed cells ran on, or `"none"`.
    pub fn new(bench: &'static str, smoke: bool, backend: &'static str) -> Self {
        Self {
            bench,
            smoke,
            backend,
            params: Vec::new(),
            cells: Vec::new(),
            headlines: Vec::new(),
        }
    }

    /// Records numeric run parameters.
    pub fn params(&mut self, params: &[(&'static str, usize)]) {
        self.params
            .extend(params.iter().map(|&(key, v)| (key, v as f64)));
    }

    /// Adds a cell and returns it for its optional fields.
    pub fn cell(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        metric: &'static str,
        unit: &'static str,
        better: Better,
        value: f64,
    ) -> &mut Cell {
        self.cells.push(Cell {
            name: name.into(),
            layer,
            metric,
            unit,
            better,
            value,
            baseline: None,
            model: None,
            checks: Vec::new(),
            claim: None,
        });
        self.cells.last_mut().expect("just pushed")
    }

    /// Marks a cell as one the baseline gate tracks, if the run measured
    /// it (a run whose overrides skip it declares no headline, which the
    /// gate then rejects).
    pub fn headline(&mut self, name: &str, metric: &'static str) {
        if self
            .cells
            .iter()
            .any(|c| c.name == name && c.metric == metric)
        {
            self.headlines.push((name.to_string(), metric));
        }
    }

    /// Declares a claim of at least `min` speedup on the best cell among
    /// those whose name starts with `prefix` and whose metric is
    /// `metric`: a claim about somewhere in the sweep, not every cell.
    pub fn claim_best(&mut self, prefix: &str, metric: &str, min: f64) {
        let best = self
            .cells
            .iter_mut()
            .filter(|c| c.name.starts_with(prefix) && c.metric == metric)
            .max_by(|a, b| {
                let key = |c: &Cell| c.speedup().unwrap_or(0.0);
                key(a).total_cmp(&key(b))
            });
        if let Some(cell) = best {
            cell.claim(min);
        }
    }

    /// Renders the record as `bt-bench-v1` JSON.
    pub fn render(&self) -> String {
        let generated_unix_s = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
            .collect();
        let cells: Vec<String> = self.cells.iter().map(render_cell).collect();
        let headlines: Vec<String> = self
            .headlines
            .iter()
            .map(|(name, metric)| {
                format!(
                    "{{\"name\": \"{}\", \"metric\": \"{metric}\"}}",
                    escape(name)
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"bt-bench-v1\",\n  \"bench\": \"{}\",\n  \
             \"meta\": {{\"generated_unix_s\": {generated_unix_s}, \"host_cores\": {host_cores}, \
             \"simd\": \"{}\", \"smoke\": {}, \"backend\": \"{}\"}},\n  \
             \"params\": {{{}}},\n  \"cells\": [\n    {}\n  ],\n  \"headlines\": [{}]\n}}\n",
            self.bench,
            bt_dense::simd::active().name(),
            self.smoke,
            self.backend,
            params.join(", "),
            cells.join(",\n    "),
            headlines.join(", "),
        )
    }

    /// Renders, parses back and validates the record, then writes it to
    /// `path`.
    ///
    /// # Errors
    ///
    /// The validator's message for a record that breaks a rule (nothing
    /// is written), or the I/O error.
    pub fn write(&self, path: &str) -> Result<(), String> {
        let text = self.render();
        let summary = validate_bench(&parse(&text)?)?;
        std::fs::write(path, &text).map_err(|e| format!("could not write {path}: {e}"))?;
        println!(
            "{}: wrote {path} ({} cells, {} checks and {} claims hold)",
            self.bench, summary.cells, summary.checks, summary.claims
        );
        Ok(())
    }

    /// [`BenchRecord::write`], exiting with status 1 on any error.
    pub fn write_or_exit(&self, path: &str) {
        if let Err(e) = self.write(path) {
            eprintln!("{}: record not written: {e}", self.bench);
            std::process::exit(1);
        }
    }
}

fn render_cell(c: &Cell) -> String {
    let better = match c.better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let mut out = format!(
        "{{\"name\": \"{}\", \"layer\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \
         \"better\": \"{better}\", \"value\": {}",
        escape(&c.name),
        c.layer,
        c.metric,
        c.unit,
        num(c.value)
    );
    for (key, v) in [
        ("baseline", c.baseline),
        ("model", c.model),
        ("claim", c.claim),
    ] {
        if let Some(v) = v {
            out += &format!(", \"{key}\": {}", num(v));
        }
    }
    if !c.checks.is_empty() {
        let checks: Vec<String> = c
            .checks
            .iter()
            .map(|(name, v, max)| {
                format!(
                    "{{\"name\": \"{name}\", \"value\": {}, \"max\": {}}}",
                    num(*v),
                    num(*max)
                )
            })
            .collect();
        out += &format!(", \"checks\": [{}]", checks.join(", "));
    }
    out + "}"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BenchRecord {
        let mut rec = BenchRecord::new("demo", true, "none");
        rec.params(&[("n", 32)]);
        rec.cell("n32-a", "dense", "solve_ns", "ns", Better::Lower, 40.0)
            .baseline(90.0)
            .check("rel_diff", 2.5e-16, 1e-8);
        rec.cell("n32-b", "dense", "solve_ns", "ns", Better::Lower, 60.0)
            .baseline(90.0);
        rec.headline("n32-a", "solve_ns");
        rec
    }

    #[test]
    fn rendered_record_validates_and_claims_land_on_the_best_cell() {
        let mut rec = record();
        rec.claim_best("n32-", "solve_ns", 2.0);
        let text = rec.render();
        let s = validate_bench(&parse(&text).expect("parses")).expect("validates");
        assert_eq!((s.cells, s.checks, s.claims, s.headlines), (2, 1, 1, 1));
        // 90 / 40 = 2.25x carries the claim; 90 / 60 = 1.5x would miss it.
        assert!(text.contains("\"baseline\": 90, \"claim\": 2, \"checks\""));
    }

    #[test]
    fn a_broken_rule_leaves_no_file() {
        let dir = std::env::temp_dir().join(format!("bt-bench-record-{}", std::process::id()));
        let path = dir.to_string_lossy().into_owned();
        let mut rec = record();
        rec.cell("n32-c", "dense", "solve_ns", "ns", Better::Lower, f64::NAN);
        let err = rec.write(&path).unwrap_err();
        assert!(err.contains("'n32-c'"), "{err}");
        rec = record();
        rec.cell("n32-c", "dense", "solve_ns", "ns", Better::Lower, 1.0)
            .check("residual", 1e-3, 1e-9);
        assert!(rec.write(&path).unwrap_err().contains("residual"));
        assert!(!dir.exists());
    }
}
