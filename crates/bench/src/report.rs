//! Console tables plus CSV/JSONL output for the experiment binaries.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::PathBuf;

/// The output directory for experiment CSVs and every sidecar (one
/// definition, in `ant-obs`).
pub use ant_obs::config::experiments_dir;

/// A row whose width does not match the table header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowWidthError {
    /// Columns the table header declares.
    pub expected: usize,
    /// Columns the rejected row carried.
    pub actual: usize,
}

impl std::fmt::Display for RowWidthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "row width mismatch: table has {} columns, row has {}",
            self.expected, self.actual
        )
    }
}

impl std::error::Error for RowWidthError {}

/// A simple fixed-width table: header row plus data rows of strings.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row, rejecting rows whose width differs from the
    /// header width.
    ///
    /// # Errors
    ///
    /// Returns [`RowWidthError`] (and drops the row) on width mismatch.
    pub fn try_push_row(&mut self, row: Vec<String>) -> Result<(), RowWidthError> {
        if row.len() != self.header.len() {
            return Err(RowWidthError {
                expected: self.header.len(),
                actual: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width. Fallible
    /// callers should use [`Table::try_push_row`].
    pub fn push_row(&mut self, row: Vec<String>) {
        if let Err(err) = self.try_push_row(row) {
            panic!("row width mismatch: {err}");
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(widths.iter()).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}");
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV (RFC 4180 quoting: cells containing commas,
    /// quotes, or line breaks of either flavour are quoted, embedded quotes
    /// doubled).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| {
            if cell.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to `target/experiments/<name>.csv` and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, name: &str) -> io::Result<PathBuf> {
        let dir = experiments_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Renders the table as JSONL: one object per data row, keyed by the
    /// header cells. Numeric-looking cells stay strings — the table layer
    /// has already formatted them (`3.71x`, `90.3%`) and round-tripping that
    /// formatting is the point.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push('{');
            for (i, (key, cell)) in self.header.iter().zip(row.iter()).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ant_obs::json::write_json_string(key, &mut out);
                out.push(':');
                ant_obs::json::write_json_string(cell, &mut out);
            }
            out.push_str("}\n");
        }
        out
    }

    /// Writes the JSONL rendering to `target/experiments/<name>.jsonl` and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, name: &str) -> io::Result<PathBuf> {
        let dir = experiments_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.jsonl"));
        fs::write(&path, self.to_jsonl())?;
        Ok(path)
    }

    /// Writes both the CSV and JSONL renderings under `name`, records them
    /// (plus the row count) in `manifest`, and returns the CSV path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_with_manifest(
        &self,
        name: &str,
        manifest: &mut ant_obs::RunManifest,
    ) -> io::Result<PathBuf> {
        let csv = self.write_csv(name)?;
        let jsonl = self.write_jsonl(name)?;
        manifest.output(csv.display().to_string());
        manifest.output(jsonl.display().to_string());
        manifest.stat("table_rows", self.len() as u64);
        Ok(csv)
    }
}

/// Formats a ratio like `3.71x`.
pub fn ratio(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a fraction as a percentage like `90.3%`.
pub fn percent(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Geometric mean of a slice of positive values.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean requires positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.push_row(vec!["a".into(), "1".into()]);
        t.push_row(vec!["long-name".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("long-name"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data lines have the same prefix width for column 2.
        let col2_a = lines[2].find('1').unwrap();
        let col2_b = lines[3].find('2').unwrap();
        assert_eq!(col2_a, col2_b);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_rejected() {
        let mut t = Table::new(&["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn try_push_row_reports_widths() {
        let mut t = Table::new(&["a", "b"]);
        assert!(t.try_push_row(vec!["1".into(), "2".into()]).is_ok());
        let err = t.try_push_row(vec!["only-one".into()]).unwrap_err();
        assert_eq!(
            err,
            RowWidthError {
                expected: 2,
                actual: 1
            }
        );
        assert!(err.to_string().contains("2 columns"));
        // The bad row was dropped.
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(&["x"]);
        t.push_row(vec!["a,b".into()]);
        assert_eq!(t.to_csv(), "x\n\"a,b\"\n");
    }

    #[test]
    fn csv_escapes_quotes_and_line_breaks() {
        let mut t = Table::new(&["x", "y"]);
        t.push_row(vec!["say \"hi\"".into(), "line1\r\nline2".into()]);
        assert_eq!(t.to_csv(), "x,y\n\"say \"\"hi\"\"\",\"line1\r\nline2\"\n");
    }

    #[test]
    fn jsonl_round_trips_through_parser() {
        let mut t = Table::new(&["network", "speedup"]);
        t.push_row(vec!["vgg16".into(), "3.71x".into()]);
        t.push_row(vec!["with \"quote\"".into(), "2.00x".into()]);
        let jsonl = t.to_jsonl();
        let rows: Vec<_> = jsonl
            .lines()
            .map(|l| ant_obs::parse_json(l).expect("valid JSON"))
            .collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("network").unwrap().as_str(), Some("vgg16"));
        assert_eq!(rows[0].get("speedup").unwrap().as_str(), Some("3.71x"));
        assert_eq!(
            rows[1].get("network").unwrap().as_str(),
            Some("with \"quote\"")
        );
    }

    #[test]
    fn geomean_of_paper_headline() {
        // Table 5-ish ratios.
        let g = geomean(&[4.0, 4.0, 2.0, 4.0, 4.0]);
        assert!(g > 3.4 && g < 3.7);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(3.714), "3.71x");
        assert_eq!(percent(0.903), "90.3%");
    }
}
