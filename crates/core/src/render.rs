//! Plain-text table rendering for experiment output.
//!
//! The `repro` binary and the examples print the reproduced tables and figure
//! series in a form that can be compared side-by-side with the paper; this
//! module keeps that formatting in one place.

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

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
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
        assert_eq!(t.title(), "Demo");
        let s = t.to_string();
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
