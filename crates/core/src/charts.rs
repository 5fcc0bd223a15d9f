//! Result visualization: bar, line and pie diagrams.
//!
//! "For the result visualization, Chronos provides bar, line, and pie
//! diagrams. If more [...] diagrams are required, the built-in set of types
//! can be extended" (paper §2.2). Charts are *declared* on the system
//! ([`ChartSpec`]), *filled* by the analysis layer
//! ([`ChartData`]), and *rendered* by a [`ChartRegistry`] — the registry is
//! the extension point: registering a new renderer under a new kind string
//! is all a custom diagram type needs.
//!
//! Two renderers ship for every kind: SVG (the web UI artifact) and ASCII
//! (for terminals and logs).

pub use chronos_api::v1::ChartSpec;

use crate::error::{CoreError, CoreResult};

/// Data ready to plot: x categories and one or more named series.
#[derive(Debug, Clone, PartialEq)]
pub struct ChartData {
    /// X-axis category labels.
    pub x_labels: Vec<String>,
    /// `(series name, y values)`; `None` marks a missing measurement.
    pub series: Vec<(String, Vec<Option<f64>>)>,
}

impl ChartData {
    /// The largest finite value across all series (0.0 when empty).
    pub fn max_value(&self) -> f64 {
        self.series.iter().flat_map(|(_, ys)| ys.iter().flatten()).fold(0.0f64, |m, &v| m.max(v))
    }

    /// True when no values are present.
    pub fn is_empty(&self) -> bool {
        self.series.iter().all(|(_, ys)| ys.iter().all(Option::is_none))
    }
}

/// A renderer for one chart kind.
pub trait ChartRenderer: Send + Sync {
    /// Renders to SVG.
    fn render_svg(&self, spec: &ChartSpec, data: &ChartData) -> String;
    /// Renders to fixed-width ASCII.
    fn render_ascii(&self, spec: &ChartSpec, data: &ChartData) -> String;
}

/// The registry of chart kinds; extensible per the paper.
pub struct ChartRegistry {
    renderers: Vec<(String, Box<dyn ChartRenderer>)>,
}

impl Default for ChartRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl ChartRegistry {
    /// A registry with the paper's built-in kinds: bar, line, pie.
    pub fn with_builtins() -> Self {
        let mut registry = ChartRegistry { renderers: Vec::new() };
        registry.register("bar", Box::new(BarRenderer));
        registry.register("line", Box::new(LineRenderer));
        registry.register("pie", Box::new(PieRenderer));
        registry
    }

    /// Registers (or replaces) a renderer for `kind`.
    pub fn register(&mut self, kind: &str, renderer: Box<dyn ChartRenderer>) {
        self.renderers.retain(|(k, _)| k != kind);
        self.renderers.push((kind.to_string(), renderer));
    }

    /// The registered kind names.
    pub fn kinds(&self) -> Vec<&str> {
        self.renderers.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// Renders `spec` with `data` to SVG.
    pub fn render_svg(&self, spec: &ChartSpec, data: &ChartData) -> CoreResult<String> {
        self.renderer(&spec.kind).map(|r| r.render_svg(spec, data))
    }

    /// Renders `spec` with `data` to ASCII.
    pub fn render_ascii(&self, spec: &ChartSpec, data: &ChartData) -> CoreResult<String> {
        self.renderer(&spec.kind).map(|r| r.render_ascii(spec, data))
    }

    fn renderer(&self, kind: &str) -> CoreResult<&dyn ChartRenderer> {
        self.renderers
            .iter()
            .find(|(k, _)| k == kind)
            .map(|(_, r)| r.as_ref())
            .ok_or_else(|| CoreError::Invalid(format!("unknown chart kind {kind:?}")))
    }
}

const SVG_W: f64 = 640.0;
const SVG_H: f64 = 400.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_B: f64 = 50.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_R: f64 = 20.0;
const PALETTE: [&str; 6] = ["#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1", "#76b7b2"];

fn svg_header(title: &str) -> String {
    format!(
        concat!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" ",
            "viewBox=\"0 0 {w} {h}\" font-family=\"sans-serif\">\n",
            "<rect width=\"{w}\" height=\"{h}\" fill=\"white\"/>\n",
            "<text x=\"{cx}\" y=\"24\" text-anchor=\"middle\" font-size=\"16\">{title}</text>\n"
        ),
        w = SVG_W,
        h = SVG_H,
        cx = SVG_W / 2.0,
        title = xml_escape(title),
    )
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

fn axes_and_legend(spec: &ChartSpec, data: &ChartData, out: &mut String) {
    let plot_h = SVG_H - MARGIN_T - MARGIN_B;
    // Y axis with 5 gridlines.
    let max = data.max_value().max(1e-12);
    for i in 0..=5 {
        let frac = i as f64 / 5.0;
        let y = MARGIN_T + plot_h * (1.0 - frac);
        out.push_str(&format!(
            "<line x1=\"{MARGIN_L}\" y1=\"{y}\" x2=\"{}\" y2=\"{y}\" stroke=\"#ddd\"/>\n",
            SVG_W - MARGIN_R
        ));
        out.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" text-anchor=\"end\" font-size=\"10\">{}</text>\n",
            MARGIN_L - 6.0,
            y + 3.0,
            format_value(max * frac)
        ));
    }
    out.push_str(&format!(
        "<text x=\"16\" y=\"{}\" font-size=\"11\" transform=\"rotate(-90 16 {})\" text-anchor=\"middle\">{}</text>\n",
        MARGIN_T + plot_h / 2.0,
        MARGIN_T + plot_h / 2.0,
        xml_escape(&spec.y_label)
    ));
    // Legend.
    for (i, (name, _)) in data.series.iter().enumerate() {
        let x = MARGIN_L + 110.0 * i as f64;
        let y = SVG_H - 12.0;
        out.push_str(&format!(
            "<rect x=\"{x}\" y=\"{}\" width=\"10\" height=\"10\" fill=\"{}\"/>\n",
            y - 9.0,
            PALETTE[i % PALETTE.len()]
        ));
        out.push_str(&format!(
            "<text x=\"{}\" y=\"{y}\" font-size=\"11\">{}</text>\n",
            x + 14.0,
            xml_escape(name)
        ));
    }
}

fn format_value(v: f64) -> String {
    if v >= 1_000_000.0 {
        format!("{:.1}M", v / 1_000_000.0)
    } else if v >= 1_000.0 {
        format!("{:.1}k", v / 1_000.0)
    } else if v >= 10.0 || v == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Grouped bar chart.
struct BarRenderer;

impl ChartRenderer for BarRenderer {
    fn render_svg(&self, spec: &ChartSpec, data: &ChartData) -> String {
        let mut out = svg_header(&spec.title);
        axes_and_legend(spec, data, &mut out);
        let plot_w = SVG_W - MARGIN_L - MARGIN_R;
        let plot_h = SVG_H - MARGIN_T - MARGIN_B;
        let max = data.max_value().max(1e-12);
        let groups = data.x_labels.len().max(1);
        let group_w = plot_w / groups as f64;
        let bar_w = (group_w * 0.8) / data.series.len().max(1) as f64;
        for (gi, label) in data.x_labels.iter().enumerate() {
            let gx = MARGIN_L + group_w * gi as f64;
            out.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\" font-size=\"10\">{}</text>\n",
                gx + group_w / 2.0,
                SVG_H - MARGIN_B + 16.0,
                xml_escape(label)
            ));
            for (si, (_, ys)) in data.series.iter().enumerate() {
                if let Some(Some(v)) = ys.get(gi) {
                    let h = plot_h * (v / max);
                    let x = gx + group_w * 0.1 + bar_w * si as f64;
                    let y = MARGIN_T + plot_h - h;
                    out.push_str(&format!(
                        "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{bar_w:.1}\" height=\"{h:.1}\" fill=\"{}\"><title>{}</title></rect>\n",
                        PALETTE[si % PALETTE.len()],
                        format_value(*v)
                    ));
                }
            }
        }
        out.push_str("</svg>\n");
        out
    }

    fn render_ascii(&self, spec: &ChartSpec, data: &ChartData) -> String {
        let mut out = format!("{}\n", spec.title);
        let max = data.max_value().max(1e-12);
        const WIDTH: usize = 40;
        for (gi, label) in data.x_labels.iter().enumerate() {
            for (name, ys) in &data.series {
                if let Some(Some(v)) = ys.get(gi) {
                    let bars = ((v / max) * WIDTH as f64).round() as usize;
                    out.push_str(&format!(
                        "{label:>12} {name:<12} |{:<WIDTH$}| {}\n",
                        "#".repeat(bars),
                        format_value(*v)
                    ));
                }
            }
        }
        out
    }
}

/// Multi-series line chart.
struct LineRenderer;

impl ChartRenderer for LineRenderer {
    fn render_svg(&self, spec: &ChartSpec, data: &ChartData) -> String {
        let mut out = svg_header(&spec.title);
        axes_and_legend(spec, data, &mut out);
        let plot_w = SVG_W - MARGIN_L - MARGIN_R;
        let plot_h = SVG_H - MARGIN_T - MARGIN_B;
        let max = data.max_value().max(1e-12);
        let n = data.x_labels.len().max(2);
        let step = plot_w / (n - 1) as f64;
        for (gi, label) in data.x_labels.iter().enumerate() {
            out.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\" font-size=\"10\">{}</text>\n",
                MARGIN_L + step * gi as f64,
                SVG_H - MARGIN_B + 16.0,
                xml_escape(label)
            ));
        }
        for (si, (_, ys)) in data.series.iter().enumerate() {
            let color = PALETTE[si % PALETTE.len()];
            let points: Vec<String> = ys
                .iter()
                .enumerate()
                .filter_map(|(i, v)| {
                    v.map(|v| {
                        format!(
                            "{:.1},{:.1}",
                            MARGIN_L + step * i as f64,
                            MARGIN_T + plot_h * (1.0 - v / max)
                        )
                    })
                })
                .collect();
            if !points.is_empty() {
                out.push_str(&format!(
                    "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\"/>\n",
                    points.join(" ")
                ));
                for p in &points {
                    let (x, y) = p.split_once(',').expect("formatted point");
                    out.push_str(&format!(
                        "<circle cx=\"{x}\" cy=\"{y}\" r=\"3\" fill=\"{color}\"/>\n"
                    ));
                }
            }
        }
        out.push_str("</svg>\n");
        out
    }

    fn render_ascii(&self, spec: &ChartSpec, data: &ChartData) -> String {
        // A compact table: line charts in ASCII read best as aligned values.
        let mut out = format!("{}\n", spec.title);
        out.push_str(&format!("{:>12}", spec.x_param));
        for (name, _) in &data.series {
            out.push_str(&format!(" {name:>14}"));
        }
        out.push('\n');
        for (gi, label) in data.x_labels.iter().enumerate() {
            out.push_str(&format!("{label:>12}"));
            for (_, ys) in &data.series {
                match ys.get(gi).copied().flatten() {
                    Some(v) => out.push_str(&format!(" {:>14}", format_value(v))),
                    None => out.push_str(&format!(" {:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Pie chart (first series only; x labels are the slices).
struct PieRenderer;

impl ChartRenderer for PieRenderer {
    fn render_svg(&self, spec: &ChartSpec, data: &ChartData) -> String {
        let mut out = svg_header(&spec.title);
        let (cx, cy, r) = (SVG_W / 2.0, (SVG_H + MARGIN_T) / 2.0 - 20.0, 120.0);
        let values: Vec<(usize, f64)> = data
            .series
            .first()
            .map(|(_, ys)| {
                ys.iter()
                    .enumerate()
                    .filter_map(|(i, v)| v.filter(|v| *v > 0.0).map(|v| (i, v)))
                    .collect()
            })
            .unwrap_or_default();
        let total: f64 = values.iter().map(|(_, v)| v).sum();
        let mut angle: f64 = -std::f64::consts::FRAC_PI_2;
        for (slice, (label_idx, v)) in values.iter().enumerate() {
            let frac = v / total.max(1e-12);
            let sweep = frac * std::f64::consts::TAU;
            let (x0, y0) = (cx + r * angle.cos(), cy + r * angle.sin());
            let end = angle + sweep;
            let (x1, y1) = (cx + r * end.cos(), cy + r * end.sin());
            let large = if sweep > std::f64::consts::PI { 1 } else { 0 };
            out.push_str(&format!(
                "<path d=\"M{cx:.1},{cy:.1} L{x0:.1},{y0:.1} A{r:.1},{r:.1} 0 {large} 1 {x1:.1},{y1:.1} Z\" fill=\"{}\"/>\n",
                PALETTE[slice % PALETTE.len()]
            ));
            // Label at mid-angle.
            let mid = angle + sweep / 2.0;
            let (lx, ly) = (cx + (r + 24.0) * mid.cos(), cy + (r + 24.0) * mid.sin());
            let label = data.x_labels.get(*label_idx).cloned().unwrap_or_default();
            out.push_str(&format!(
                "<text x=\"{lx:.1}\" y=\"{ly:.1}\" text-anchor=\"middle\" font-size=\"11\">{} ({:.0}%)</text>\n",
                xml_escape(&label),
                frac * 100.0
            ));
            angle = end;
        }
        out.push_str("</svg>\n");
        out
    }

    fn render_ascii(&self, spec: &ChartSpec, data: &ChartData) -> String {
        let mut out = format!("{}\n", spec.title);
        let values: Vec<(String, f64)> = data
            .series
            .first()
            .map(|(_, ys)| {
                data.x_labels
                    .iter()
                    .zip(ys)
                    .filter_map(|(l, v)| v.map(|v| (l.clone(), v)))
                    .collect()
            })
            .unwrap_or_default();
        let total: f64 = values.iter().map(|(_, v)| v).sum::<f64>().max(1e-12);
        for (label, v) in values {
            let pct = v / total * 100.0;
            let bars = (pct / 2.5).round() as usize;
            out.push_str(&format!("{label:>12} |{:<40}| {pct:.1}%\n", "#".repeat(bars)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: &str) -> ChartSpec {
        ChartSpec {
            kind: kind.into(),
            title: "Throughput by thread count".into(),
            x_param: "threads".into(),
            series_param: Some("engine".into()),
            value_path: "/throughput_ops_per_sec".into(),
            y_label: "ops/s".into(),
        }
    }

    fn data() -> ChartData {
        ChartData {
            x_labels: vec!["1".into(), "2".into(), "4".into()],
            series: vec![
                ("wiredtiger".into(), vec![Some(100.0), Some(190.0), Some(360.0)]),
                ("mmapv1".into(), vec![Some(95.0), Some(120.0), None]),
            ],
        }
    }

    #[test]
    fn spec_json_roundtrip() {
        use chronos_api::{WireDecode, WireEncode};
        let s = spec("bar");
        assert_eq!(ChartSpec::decode(&s.to_value()).unwrap(), s);
        let mut no_series = spec("line");
        no_series.series_param = None;
        assert_eq!(ChartSpec::decode(&no_series.to_value()).unwrap(), no_series);
    }

    #[test]
    fn builtin_kinds_render_svg() {
        let registry = ChartRegistry::with_builtins();
        assert_eq!(registry.kinds(), vec!["bar", "line", "pie"]);
        for kind in ["bar", "line", "pie"] {
            let svg = registry.render_svg(&spec(kind), &data()).unwrap();
            assert!(svg.starts_with("<svg"), "{kind}");
            assert!(svg.ends_with("</svg>\n"), "{kind}");
            assert!(svg.contains("Throughput by thread count"), "{kind}");
        }
    }

    #[test]
    fn bar_svg_has_bars_per_value() {
        let registry = ChartRegistry::with_builtins();
        let svg = registry.render_svg(&spec("bar"), &data()).unwrap();
        // 5 present values -> 5 data rects (plus 1 background + 2 legend).
        assert_eq!(svg.matches("<rect").count(), 5 + 1 + 2);
    }

    #[test]
    fn line_svg_has_polyline_per_series() {
        let registry = ChartRegistry::with_builtins();
        let svg = registry.render_svg(&spec("line"), &data()).unwrap();
        assert_eq!(svg.matches("<polyline").count(), 2);
    }

    #[test]
    fn pie_percentages_sum_to_100() {
        let registry = ChartRegistry::with_builtins();
        let ascii = registry.render_ascii(&spec("pie"), &data()).unwrap();
        let total: f64 = ascii
            .lines()
            .filter_map(|l| {
                l.rsplit_once("| ").and_then(|(_, p)| p.trim_end_matches('%').parse::<f64>().ok())
            })
            .sum();
        assert!((total - 100.0).abs() < 0.5, "{ascii}");
    }

    #[test]
    fn ascii_renders_missing_values_as_dash() {
        let registry = ChartRegistry::with_builtins();
        let ascii = registry.render_ascii(&spec("line"), &data()).unwrap();
        assert!(ascii.contains('-'), "{ascii}");
        assert!(ascii.contains("wiredtiger"));
    }

    #[test]
    fn unknown_kind_rejected() {
        let registry = ChartRegistry::with_builtins();
        assert!(registry.render_svg(&spec("radar"), &data()).is_err());
    }

    #[test]
    fn custom_renderer_registration() {
        struct Flat;
        impl ChartRenderer for Flat {
            fn render_svg(&self, _: &ChartSpec, _: &ChartData) -> String {
                "<svg>flat</svg>".into()
            }
            fn render_ascii(&self, _: &ChartSpec, _: &ChartData) -> String {
                "flat".into()
            }
        }
        let mut registry = ChartRegistry::with_builtins();
        registry.register("flat", Box::new(Flat));
        assert_eq!(registry.render_ascii(&spec("flat"), &data()).unwrap(), "flat");
        // Replacing a builtin works too.
        registry.register("bar", Box::new(Flat));
        assert_eq!(registry.render_ascii(&spec("bar"), &data()).unwrap(), "flat");
        assert_eq!(registry.kinds().len(), 4);
    }

    #[test]
    fn xml_escaping() {
        let mut s = spec("bar");
        s.title = "a < b & \"c\"".into();
        let registry = ChartRegistry::with_builtins();
        let svg = registry.render_svg(&s, &data()).unwrap();
        assert!(svg.contains("a &lt; b &amp; &quot;c&quot;"));
    }

    #[test]
    fn empty_data_renders_without_panic() {
        let registry = ChartRegistry::with_builtins();
        let empty = ChartData { x_labels: vec![], series: vec![] };
        for kind in ["bar", "line", "pie"] {
            let _ = registry.render_svg(&spec(kind), &empty).unwrap();
            let _ = registry.render_ascii(&spec(kind), &empty).unwrap();
        }
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(3.25), "3.25");
        assert_eq!(format_value(42.0), "42");
        assert_eq!(format_value(1_500.0), "1.5k");
        assert_eq!(format_value(2_500_000.0), "2.5M");
    }
}
