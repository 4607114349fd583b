//! Experiment outputs.
//!
//! Every experiment returns an [`ExperimentReport`]: an identifier
//! matching the paper artefact ("fig2a", "table3", …), a rendered table,
//! optional CSV series (for re-plotting CDFs/scatters), and free-form
//! notes recording paper-vs-measured observations.

use edgescope_analysis::table::Table;
use std::io::Write;
use std::path::Path;

/// One experiment's output bundle.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Paper artefact id, e.g. `fig2a`.
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// The headline table(s).
    pub tables: Vec<Table>,
    /// Named CSV series, e.g. `("wifi_nearest_edge_cdf", "x,cdf\n…")`.
    pub csv: Vec<(String, String)>,
    /// Paper-vs-measured notes.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// New empty report.
    pub fn new(id: &'static str, title: impl Into<String>) -> Self {
        ExperimentReport {
            id,
            title: title.into(),
            tables: Vec::new(),
            csv: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Render the report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("==== [{}] {} ====\n", self.id, self.title));
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        if !self.csv.is_empty() {
            let names: Vec<&str> = self.csv.iter().map(|(n, _)| n.as_str()).collect();
            out.push_str(&format!("csv series: {}\n", names.join(", ")));
        }
        out
    }

    /// Render the report as a self-contained HTML fragment (tables +
    /// notes). [`render_html_page`] stitches fragments into a document.
    pub fn render_html(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "<section id=\"{}\">\n<h2>[{}] {}</h2>\n",
            esc(self.id),
            esc(self.id),
            esc(&self.title)
        ));
        for t in &self.tables {
            html_table(t, &mut out);
        }
        for n in &self.notes {
            out.push_str(&format!("<p class=\"note\">{}</p>\n", esc(n)));
        }
        if !self.csv.is_empty() {
            let names: Vec<String> = self
                .csv
                .iter()
                .map(|(n, _)| format!("<code>{}_{}.csv</code>", esc(self.id), esc(n)))
                .collect();
            out.push_str(&format!(
                "<p class=\"csv\">CSV series: {}</p>\n",
                names.join(", ")
            ));
        }
        out.push_str("</section>\n");
        out
    }

    /// Write the CSV series to `dir` as `<id>_<name>.csv`. Creates the
    /// directory if needed.
    pub fn save_csv(&self, dir: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (name, data) in &self.csv {
            let path = dir.join(format!("{}_{name}.csv", self.id));
            let mut f = std::fs::File::create(&path)?;
            f.write_all(data.as_bytes())?;
            written.push(path);
        }
        Ok(written)
    }
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Append `t` to `out` as an HTML `<h3>` + `<table>`, one cell per
/// header and row cell of `t`.
fn html_table(t: &Table, out: &mut String) {
    out.push_str(&format!(
        "<h3>{}</h3>\n<table>\n<thead><tr>",
        esc(t.title())
    ));
    for cell in t.header() {
        out.push_str(&format!("<th>{}</th>", esc(cell)));
    }
    out.push_str("</tr></thead>\n<tbody>\n");
    for row in t.rows() {
        out.push_str("<tr>");
        for cell in row {
            out.push_str(&format!("<td>{}</td>", esc(cell)));
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</tbody>\n</table>\n");
}

/// Title and heading of the reproduction's HTML page.
const PAGE_TITLE: &str = "EdgeScope reproduction";

/// Stitch a set of reports into one self-contained HTML page (inline CSS,
/// no external assets — openable from `file://`): the experiment
/// sections, then one section per `(id, heading, table)` of `appendix`
/// (the `reproduce` binary appends the executor's "Execution timings"
/// and "Campaign metrics" tables here), each linked from the nav bar.
pub fn render_html_page(reports: &[ExperimentReport], appendix: &[(&str, &str, Table)]) -> String {
    let mut out = String::from("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n");
    out.push_str(&format!("<title>{PAGE_TITLE}</title>\n"));
    out.push_str(
        "<style>\nbody{font-family:sans-serif;max-width:70em;margin:2em auto;padding:0 1em;}\n\
         table{border-collapse:collapse;margin:0.8em 0;}\n\
         th,td{border:1px solid #999;padding:0.25em 0.6em;text-align:right;}\n\
         th:first-child,td:first-child{text-align:left;}\n\
         .note{color:#444;font-size:0.92em;}\n.csv{color:#666;font-size:0.85em;}\n\
         nav a{margin-right:0.8em;}\n</style>\n</head><body>\n",
    );
    out.push_str(&format!("<h1>{PAGE_TITLE}</h1>\n<nav>"));
    for r in reports {
        out.push_str(&format!("<a href=\"#{}\">{}</a>", r.id, r.id));
    }
    for (id, _, _) in appendix {
        out.push_str(&format!("<a href=\"#{id}\">{id}</a>"));
    }
    out.push_str("</nav>\n");
    for r in reports {
        out.push_str(&r.render_html());
    }
    for (id, heading, table) in appendix {
        out.push_str(&format!("<section id=\"{id}\">\n<h2>{heading}</h2>\n"));
        html_table(table, &mut out);
        out.push_str("</section>\n");
    }
    out.push_str("</body></html>\n");
    out
}

/// Build a `name,value` CSV from labelled points.
pub fn kv_csv(header: (&str, &str), rows: &[(String, f64)]) -> String {
    let mut out = format!("{},{}\n", header.0, header.1);
    for (k, v) in rows {
        out.push_str(&format!("{k},{v:.6}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_everything() {
        let mut r = ExperimentReport::new("figX", "demo");
        let mut t = Table::new("demo table", &["k", "v"]);
        t.row(vec!["a".into(), "1".into()]);
        r.tables.push(t);
        r.notes.push("paper: 42, measured: 41".into());
        r.csv.push(("series".into(), "x,y\n1,2\n".into()));
        let s = r.render();
        assert!(s.contains("[figX]"));
        assert!(s.contains("demo table"));
        assert!(s.contains("paper: 42"));
        assert!(s.contains("csv series: series"));
    }

    #[test]
    fn save_csv_writes_files() {
        let mut r = ExperimentReport::new("figY", "demo");
        r.csv.push(("a".into(), "x\n1\n".into()));
        r.csv.push(("b".into(), "y\n2\n".into()));
        let dir = std::env::temp_dir().join("edgescope_report_test");
        let files = r.save_csv(&dir).expect("write csv");
        assert_eq!(files.len(), 2);
        for f in &files {
            assert!(f.exists());
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn html_renders_and_escapes() {
        let mut r = ExperimentReport::new("figZ", "a <b> & c");
        let mut t = Table::new("tbl", &["k", "v"]);
        t.row(vec!["x<y".into(), "1".into()]);
        r.tables.push(t);
        r.notes.push("5 > 3".into());
        r.csv.push(("s".into(), "x\n".into()));
        let html = r.render_html();
        assert!(html.contains("a &lt;b&gt; &amp; c"));
        assert!(html.contains("<td>x&lt;y</td>"));
        assert!(html.contains("5 &gt; 3"));
        assert!(html.contains("figZ_s.csv"));
        let page = render_html_page(&[r], &[]);
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.contains("<nav><a href=\"#figZ\">"));
        assert!(page.ends_with("</body></html>\n"));
    }

    #[test]
    fn html_keeps_a_cell_with_a_comma_whole() {
        let mut r = ExperimentReport::new("figV", "demo");
        let mut t = Table::new("tbl", &["design, variant", "v"]);
        t.row(vec!["on-demand, by \"bandwidth\"".into(), "1".into()]);
        r.tables.push(t);
        let html = r.render_html();
        assert!(html.contains("<tr><th>design, variant</th><th>v</th></tr>"));
        assert!(html.contains("<tr><td>on-demand, by \"bandwidth\"</td><td>1</td></tr>"));
    }

    #[test]
    fn appendix_sections_follow_the_reports() {
        let r = ExperimentReport::new("figW", "demo");
        let mut t = Table::new(
            "Execution timings (2 worker(s))",
            &["name", "kind", "wall_ms"],
        );
        t.row(vec!["fig2a".into(), "experiment".into(), "12.5".into()]);
        let mut m = Table::new("Campaign metrics (totals)", &["name", "kind", "value"]);
        m.row(vec![
            "net.probes_sent".into(),
            "counter".into(),
            "5040".into(),
        ]);
        let appendix = [
            ("timings", "Execution timings", t),
            ("metrics", "Campaign metrics", m),
        ];
        let page = render_html_page(std::slice::from_ref(&r), &appendix);
        assert!(page.contains(
            "<nav><a href=\"#figW\">figW</a><a href=\"#timings\">timings</a>\
             <a href=\"#metrics\">metrics</a></nav>"
        ));
        let timings = page
            .find("<section id=\"timings\">\n<h2>Execution timings</h2>")
            .unwrap();
        let metrics = page
            .find("<section id=\"metrics\">\n<h2>Campaign metrics</h2>")
            .unwrap();
        assert!(page.find("<section id=\"figW\">").unwrap() < timings && timings < metrics);
        assert!(page.contains("<td>fig2a</td>"));
        assert!(page.contains("<td>net.probes_sent</td>"));
        let plain = render_html_page(&[r], &[]);
        assert!(!plain.contains("#timings") && !plain.contains("#metrics"));
    }

    #[test]
    fn kv_csv_rows() {
        let kv = kv_csv(("k", "v"), &[("a".into(), 1.0)]);
        assert!(kv.starts_with("k,v\n"));
        assert!(kv.contains("a,1.000000"));
    }
}
