//! Plain-text table rendering for the figure/table binaries, plus JSON
//! dumps of the same numbers.

use std::collections::BTreeMap;

/// A simple column-aligned table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given header.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (k, c) in row.iter().enumerate() {
                widths[k] = widths[k].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (k, c) in cells.iter().enumerate() {
                if k > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = widths[k]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Dumps a result map as JSON into `target/bench-results/<name>.json`
/// (ignored on failure — reporting must not break benchmarking).
pub fn dump_json(name: &str, values: &BTreeMap<String, f64>) {
    let dir = std::path::Path::new("target/bench-results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let entries: Vec<String> = values
        .iter()
        .map(|(key, value)| {
            // Keys are plain ASCII benchmark ids; escape the JSON specials.
            let key = key.replace('\\', "\\\\").replace('"', "\\\"");
            if value.is_finite() {
                format!("  \"{key}\": {value}")
            } else {
                // JSON has no NaN/inf literals; match serde_json's `null`.
                format!("  \"{key}\": null")
            }
        })
        .collect();
    let text = format!("{{\n{}\n}}", entries.join(",\n"));
    let _ = std::fs::write(dir.join(format!("{name}.json")), text);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "gcups"]);
        t.row(vec!["AnySeq", "123.4"]);
        t.row(vec!["SeqAn-like", "119.0"]);
        let s = t.render();
        assert!(s.contains("AnySeq"));
        assert!(s.lines().count() == 4);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].starts_with("AnySeq"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }
}
