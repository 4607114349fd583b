//! Aligned text tables and CSV rendering for experiment reports.
//!
//! Every experiment in `edgescope-core` renders its result through
//! [`Table`], so the reproduction binaries print the same row/column layout
//! the paper's tables use.

/// A simple rectangular table: a header row plus data rows of strings.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Panics if the width differs from the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Data rows, each as wide as the header.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render as an aligned monospace table. First column left-aligned,
    /// remaining columns right-aligned (the layout of the paper's tables).
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let pad = " ".repeat(widths[i].saturating_sub(cell.chars().count()));
                if i == 0 {
                    line.push_str(cell);
                    line.push_str(&pad);
                } else {
                    line.push_str("  ");
                    line.push_str(&pad);
                    line.push_str(cell);
                }
            }
            line.trim_end().to_string()
        };

        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("## {}\n", self.title));
        }
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (header + rows). Cells containing commas or quotes are
    /// quoted per RFC 4180.
    pub fn to_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| esc(h))
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
}

/// Render `(x, y)` points as a two-column CSV under `header`, six
/// decimals each: the one writer of every scatter and `x,cdf` series.
/// No points render the header alone.
pub fn xy_csv(header: (&str, &str), points: &[(f64, f64)]) -> String {
    let mut out = format!("{},{}\n", header.0, header.1);
    for (x, y) in points {
        out.push_str(&format!("{x:.6},{y:.6}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[0], "## demo");
        assert!(lines[1].starts_with("name"));
        // Column 0 is left-aligned: the short name is padded after.
        assert!(lines[3].starts_with("a        "), "{:?}", lines[3]);
        // Data rows right-align the value column to the same edge.
        let end1 = lines[3].len();
        let end2 = lines[4].len();
        assert_eq!(end1, end2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn xy_csv_rows_and_empty_header() {
        let xy = xy_csv(("d", "r"), &[(1.5, 2.5)]);
        assert_eq!(xy, "d,r\n1.500000,2.500000\n");
        assert_eq!(xy_csv(("rtt_ms", "cdf"), &[]), "rtt_ms,cdf\n");
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("t", &["k", "v"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }
}
