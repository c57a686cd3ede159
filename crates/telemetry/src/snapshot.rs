//! Point-in-time metric snapshots with text, JSON, and Prometheus export.

use std::fmt::Write as _;

use crate::histogram::HistogramSnapshot;
use crate::json::{self, Obj};
use crate::json_key;

/// A named, frozen view of a set of counters, gauges, and histograms.
///
/// Instrumented components build one on demand (`snapshot()` methods) and
/// the caller picks a rendering: [`to_text`](Snapshot::to_text) for humans,
/// [`to_json`](Snapshot::to_json) for tooling, or
/// [`to_prometheus`](Snapshot::to_prometheus) for scrapers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, u64, u64)>,
    histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Adds a counter value.
    pub fn counter(&mut self, name: &'static str, value: u64) -> &mut Self {
        self.counters.push((name, value));
        self
    }

    /// Adds a gauge with its current value and running maximum.
    pub fn gauge(&mut self, name: &'static str, value: u64, max: u64) -> &mut Self {
        self.gauges.push((name, value, max));
        self
    }

    /// Adds a histogram snapshot.
    pub fn histogram(&mut self, name: &'static str, hist: HistogramSnapshot) -> &mut Self {
        self.histograms.push((name, hist));
        self
    }

    /// Looks up a counter by name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// True when nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders an aligned human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name} = {value}");
        }
        for (name, value, max) in &self.gauges {
            let _ = writeln!(out, "{name} = {value} (max {max})");
        }
        for (name, hist) in &self.histograms {
            let _ = writeln!(
                out,
                "{name}: count={} sum={} max={} mean={:.2} p50<={} p99<={}",
                hist.count,
                hist.sum,
                hist.max,
                hist.mean(),
                hist.quantile_upper(0.50),
                hist.quantile_upper(0.99)
            );
            for &(upper, n) in &hist.buckets {
                let _ = writeln!(out, "  <= {upper}: {n}");
            }
        }
        out
    }

    /// Renders one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut counters = String::new();
        json::write_map(
            &mut counters,
            self.counters.iter().copied(),
            json::write_u64,
        );
        let mut gauges = String::new();
        let gauge_values = self
            .gauges
            .iter()
            .map(|&(name, value, max)| (name, (value, max)));
        json::write_map(&mut gauges, gauge_values, |out, (value, max)| {
            let mut gauge = Obj::append_to(out);
            gauge
                .u64_field(json_key!({ "value" }), value)
                .u64_field(json_key!("max"), max);
            gauge.finish();
        });
        let mut histograms = String::new();
        let hists = self.histograms.iter().map(|(name, hist)| (*name, hist));
        json::write_map(&mut histograms, hists, histogram_json);
        let mut obj = Obj::new();
        obj.raw_field(json_key!({ "counters" }), &counters)
            .raw_field(json_key!("gauges"), &gauges)
            .raw_field(json_key!("histograms"), &histograms);
        obj.finish()
    }

    /// Renders the Prometheus text exposition format.
    ///
    /// Counters become `counter` metrics, gauges a `gauge` plus a
    /// `<name>_max` gauge, and histograms the standard cumulative
    /// `_bucket{le="..."}` / `_sum` / `_count` triple.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value, max) in &self.gauges {
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
            let _ = writeln!(out, "# TYPE {name}_max gauge");
            let _ = writeln!(out, "{name}_max {max}");
        }
        for (name, hist) in &self.histograms {
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for &(upper, n) in &hist.buckets {
                cumulative += n;
                let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
            let _ = writeln!(out, "{name}_sum {}", hist.sum);
            let _ = writeln!(out, "{name}_count {}", hist.count);
            // Pre-computed quantile upper bounds, as gauges: scrapers that
            // never learned `histogram_quantile` still get p50/p99.
            let _ = writeln!(out, "# TYPE {name}_p50 gauge");
            let _ = writeln!(out, "{name}_p50 {}", hist.quantile_upper(0.50));
            let _ = writeln!(out, "# TYPE {name}_p99 gauge");
            let _ = writeln!(out, "{name}_p99 {}", hist.quantile_upper(0.99));
        }
        out
    }
}

/// Maps arbitrary snapshot names onto the Prometheus metric charset
/// (`[a-zA-Z0-9_:]`, non-digit first character).
fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn histogram_json(out: &mut String, hist: &HistogramSnapshot) {
    let mut buckets = String::from("[");
    for (i, &(upper, n)) in hist.buckets.iter().enumerate() {
        if i > 0 {
            buckets.push(',');
        }
        let _ = write!(buckets, "[{upper},{n}]");
    }
    buckets.push(']');
    let mut obj = Obj::append_to(out);
    obj.u64_field(json_key!({ "count" }), hist.count)
        .u64_field(json_key!("sum"), hist.sum)
        .u64_field(json_key!("max"), hist.max)
        .f64_field(json_key!("mean"), hist.mean())
        .u64_field(json_key!("p50"), hist.quantile_upper(0.50))
        .u64_field(json_key!("p99"), hist.quantile_upper(0.99))
        .raw_field(json_key!("buckets"), &buckets);
    obj.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    fn sample() -> Snapshot {
        let hist = Histogram::new();
        for v in [1, 2, 3, 100] {
            hist.record(v);
        }
        let mut snap = Snapshot::new();
        snap.counter("ops_total", 42)
            .gauge("active_stages", 2, 5)
            .histogram("rounds_to_decide", hist.snapshot());
        snap
    }

    #[test]
    fn text_report_names_everything() {
        let text = sample().to_text();
        assert!(text.contains("ops_total = 42"));
        assert!(text.contains("active_stages = 2 (max 5)"));
        assert!(text.contains("rounds_to_decide: count=4 sum=106 max=100"));
        assert!(text.contains("p50<=3 p99<=100"));
        assert!(text.contains("  <= 1: 1"));
    }

    #[test]
    fn json_report_is_valid_and_complete() {
        let out = sample().to_json();
        json::validate(&out).unwrap_or_else(|e| panic!("{out}: {e}"));
        assert!(out.contains(r#""ops_total":42"#));
        assert!(out.contains(r#""active_stages":{"value":2,"max":5}"#));
        assert!(out.contains(r#""count":4"#));
        assert!(out.contains(r#""p50":3"#));
        assert!(out.contains(r#""p99":100"#));
        assert!(out.contains(r#""buckets":[[1,1],[3,2],[127,1]]"#));
    }

    #[test]
    fn prometheus_report_has_cumulative_buckets() {
        let out = sample().to_prometheus();
        assert!(out.contains("# TYPE ops_total counter\nops_total 42\n"));
        assert!(out.contains("active_stages_max 5"));
        assert!(out.contains("rounds_to_decide_bucket{le=\"1\"} 1"));
        assert!(out.contains("rounds_to_decide_bucket{le=\"3\"} 3"));
        assert!(out.contains("rounds_to_decide_bucket{le=\"127\"} 4"));
        assert!(out.contains("rounds_to_decide_bucket{le=\"+Inf\"} 4"));
        assert!(out.contains("rounds_to_decide_sum 106"));
        assert!(out.contains("rounds_to_decide_count 4"));
        assert!(out.contains("# TYPE rounds_to_decide_p50 gauge\nrounds_to_decide_p50 3"));
        assert!(out.contains("rounds_to_decide_p99 100"));
    }

    #[test]
    fn lookup_and_emptiness() {
        let snap = sample();
        assert_eq!(snap.counter_value("ops_total"), Some(42));
        assert!(snap.counter_value("missing").is_none());
        assert!(snap
            .to_prometheus()
            .contains("\nrounds_to_decide_count 4\n"));
        assert!(!snap.is_empty());
        assert!(Snapshot::new().is_empty());
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(sanitize_metric_name("a.b-c/1"), "a_b_c_1");
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert_eq!(sanitize_metric_name(""), "_");
    }
}
