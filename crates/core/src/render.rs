//! Plain-text table rendering for experiment output.
//!
//! The `repro` binary and the examples print the reproduced tables and figure
//! series in a form that can be compared side-by-side with the paper; this
//! module keeps that formatting in one place.

use serde::value::Value;
use serde::Serialize;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1);
        writeln!(f, "{}", "=".repeat(self.title.len().max(total)))?;
        let format_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, cell)| format!("{:width$}", cell, width = widths[i]))
                .collect::<Vec<_>>()
                .join("   ")
        };
        if !self.header.is_empty() {
            writeln!(f, "{}", format_row(&self.header))?;
            writeln!(f, "{}", "-".repeat(total))?;
        }
        for row in &self.rows {
            writeln!(f, "{}", format_row(row))?;
        }
        Ok(())
    }
}

/// One printed line of an experiment: its table's columns and its JSON.
pub trait Row: Serialize {
    /// The column headers, one per [`cells`](Row::cells) entry.
    const HEADER: &'static [&'static str];
    /// The JSON key a [`Table`] prints its rows under.
    const KEY: &'static str = "rows";
    /// This row's formatted cells, in [`HEADER`](Row::HEADER) order.
    fn cells(&self) -> Vec<String>;
}

/// Writes `rows` as a [`TextTable`] titled `title`.
pub(crate) fn write_rows<R: Row>(
    f: &mut std::fmt::Formatter<'_>,
    title: &str,
    rows: &[R],
) -> std::fmt::Result {
    let mut table = TextTable::new(title, R::HEADER);
    for row in rows {
        table.push_row(row.cells());
    }
    write!(f, "{table}")
}

/// An experiment's result: a title, the run's configuration and its rows.
///
/// It prints as a [`TextTable`] of the rows and serialises as an object:
/// the configuration entries in order, then the rows under [`Row::KEY`].
#[derive(Debug, Clone, PartialEq)]
pub struct Table<R> {
    pub(crate) title: String,
    /// The run's configuration, printed before the rows in this order.
    pub(crate) config: Vec<(&'static str, Value)>,
    /// The measured rows, in the experiment's fixed order.
    pub rows: Vec<R>,
}

impl<R: Row> std::fmt::Display for Table<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_rows(f, &self.title, &self.rows)
    }
}

impl<R: Row> Serialize for Table<R> {
    fn serialize(&self) -> Value {
        let config = self.config.iter().map(|(k, v)| (k.to_string(), v.clone()));
        let rows = (R::KEY.to_string(), self.rows.serialize());
        Value::Map(config.chain(std::iter::once(rows)).collect())
    }
}

/// Formats a byte count in MiB with one decimal, the tables' traffic unit.
pub(crate) fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a float in the `1.23e+09` style used by the paper's Table 1.
pub fn scientific(value: f64) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    let exponent = value.abs().log10().floor() as i32;
    let mantissa = value / 10f64.powi(exponent);
    format!("{mantissa:.2}e+{exponent:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new("Demo", &["code", "value"]);
        t.push_row(vec!["pentagon".to_string(), "2.22x".to_string()]);
        t.push_row(vec!["3-rep".to_string(), "3x".to_string()]);
        let s = t.to_string();
        assert!(s.starts_with("Demo\n"));
        assert!(s.contains("pentagon"));
        assert!(s.contains("code"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn scientific_formatting_matches_paper_style() {
        assert_eq!(scientific(1.2e9), "1.20e+09");
        assert_eq!(scientific(1.05e8), "1.05e+08");
        assert_eq!(scientific(0.0), "0");
        assert_eq!(scientific(8.34e9), "8.34e+09");
    }
}
