//! Common figure structures: every study exposes its paper figure as a
//! [`Figure`] of [`Panel`]s of [`focal_core::SweepSeries`].

use focal_core::SweepSeries;
use focal_report::{write_cell, AsciiChart, ChartSeries};
use std::fmt::Write as _;

/// One panel of a paper figure (e.g. Figure 3(a) "embodied dominated,
/// fixed-work").
#[derive(Debug, Clone, PartialEq)]
pub struct Panel {
    /// Panel title, matching the paper's subcaption.
    pub title: String,
    /// The curves in this panel.
    pub series: Vec<SweepSeries>,
}

impl Panel {
    /// Creates a panel.
    pub fn new(title: impl Into<String>, series: Vec<SweepSeries>) -> Self {
        Panel {
            title: title.into(),
            series,
        }
    }

    /// Renders the panel as an ASCII chart (performance on x, NCF on y).
    pub fn to_chart(&self, width: usize, height: usize) -> AsciiChart {
        const SYMBOLS: [char; 10] = ['o', 'x', '+', '*', '#', '@', '%', '&', '=', '~'];
        let mut chart = AsciiChart::new(self.title.clone(), width, height);
        for (i, s) in self.series.iter().enumerate() {
            chart = chart.series(ChartSeries::new(
                s.name.clone(),
                SYMBOLS[i % SYMBOLS.len()],
                s.points.iter().map(|p| (p.performance, p.ncf)).collect(),
            ));
        }
        chart
    }

    /// Appends the panel's data to `out` as CSV: a
    /// `series,label,performance,ncf` header, then one row per point.
    fn write_csv(&self, out: &mut String) {
        out.push_str("series,label,performance,ncf\n");
        for s in &self.series {
            for p in &s.points {
                write_cell(out, &s.name);
                out.push(',');
                write_cell(out, &p.label);
                write!(out, ",{},{}", p.performance, p.ncf)
                    .expect("writing to a String cannot fail");
                out.push('\n');
            }
        }
    }
}

/// A complete paper figure: an identifier, caption and panels.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure identifier (e.g. `"fig3"`).
    pub id: &'static str,
    /// The paper's caption, abbreviated.
    pub caption: &'static str,
    /// The panels, in the paper's order.
    pub panels: Vec<Panel>,
}

impl Figure {
    /// Creates a figure.
    pub fn new(id: &'static str, caption: &'static str, panels: Vec<Panel>) -> Self {
        Figure {
            id,
            caption,
            panels,
        }
    }

    /// Renders every panel as CSV into one buffer, each panel after a
    /// `# <id> — <title>` header line.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for p in &self.panels {
            out.push_str("# ");
            out.push_str(self.id);
            out.push_str(" — ");
            out.push_str(&p.title);
            out.push('\n');
            p.write_csv(&mut out);
        }
        out
    }

    /// Renders the whole figure as ASCII charts.
    pub fn to_text(&self, width: usize, height: usize) -> String {
        let mut out = format!("{}: {}\n\n", self.id, self.caption);
        for p in &self.panels {
            out.push_str(&p.to_chart(width, height).render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figure() -> Figure {
        let mut s = SweepSeries::new("f=0.5");
        s.push_raw("2 cores", 1.33, 0.9);
        s.push_raw("4 cores", 1.6, 0.8);
        Figure::new(
            "figX",
            "a test figure",
            vec![Panel::new("panel (a)", vec![s])],
        )
    }

    #[test]
    fn csv_contains_all_points() {
        let csv = sample_figure().to_csv();
        assert!(csv.contains("# figX — panel (a)"));
        assert!(csv.contains("f=0.5,2 cores,1.33,0.9"));
        assert!(csv.contains("f=0.5,4 cores,1.6,0.8"));
    }

    /// Pins the exact bytes of quoted cells (`,`, `"`, `\n`, `\r`,
    /// non-ASCII) and of float spellings (signed zero, tiny and huge
    /// magnitudes, NaN, infinities).
    #[test]
    fn csv_quoting_and_float_spellings_are_pinned() {
        let mut plain = SweepSeries::new("plain");
        plain.push_raw("zero", 0.0, -0.0);
        plain.push_raw("tiny", 1e-7, 1e21);
        plain.push_raw("nan", f64::NAN, f64::INFINITY);
        plain.push_raw("négatif µm²", -1.5, f64::NEG_INFINITY);
        let mut quoted = SweepSeries::new("a,b \"q\"");
        quoted.push_raw("line\nbreak", 1.0, 2.0);
        quoted.push_raw("cr\rhere", 0.1, 0.2);
        quoted.push_raw("ünï, “cødé” µm²", 3.0, 4.0);
        quoted.push_raw("", 5.0, 6.0);
        let fig = Figure::new(
            "figQ",
            "quoting pin",
            vec![
                Panel::new("(a) plain, unquoted", vec![plain]),
                Panel::new("(b) \"quoted\"", vec![quoted]),
                Panel::new("(c) empty", vec![]),
            ],
        );
        assert_eq!(
            fig.to_csv(),
            "# figQ — (a) plain, unquoted\nseries,label,performance,ncf\n\
             plain,zero,0,-0\nplain,tiny,0.0000001,1000000000000000000000\n\
             plain,nan,NaN,inf\nplain,négatif µm²,-1.5,-inf\n\
             # figQ — (b) \"quoted\"\nseries,label,performance,ncf\n\
             \"a,b \"\"q\"\"\",\"line\nbreak\",1,2\n\
             \"a,b \"\"q\"\"\",\"cr\rhere\",0.1,0.2\n\
             \"a,b \"\"q\"\"\",\"ünï, “cødé” µm²\",3,4\n\
             \"a,b \"\"q\"\"\",,5,6\n\
             # figQ — (c) empty\nseries,label,performance,ncf\n"
        );
    }

    #[test]
    fn text_render_includes_caption_and_chart() {
        let text = sample_figure().to_text(30, 8);
        assert!(text.contains("a test figure"));
        assert!(text.contains("panel (a)"));
        assert!(text.contains("f=0.5"));
    }

    #[test]
    fn chart_assigns_distinct_symbols() {
        let mut a = SweepSeries::new("a");
        a.push_raw("p", 1.0, 1.0);
        let mut b = SweepSeries::new("b");
        b.push_raw("p", 2.0, 2.0);
        let panel = Panel::new("t", vec![a, b]);
        let text = panel.to_chart(20, 6).render();
        assert!(text.contains("  o a"));
        assert!(text.contains("  x b"));
    }
}
