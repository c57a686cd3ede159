//! Point-in-time metric snapshots with text, JSON, and Prometheus export.

use std::fmt::Write as _;

use crate::histogram::HistogramSnapshot;
use crate::json::Obj;

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
        let mut counters = Obj::new();
        for (name, value) in &self.counters {
            counters.u64_field(name, *value);
        }
        let mut gauges = Obj::new();
        for (name, value, max) in &self.gauges {
            let mut gauge = Obj::new();
            gauge.u64_field("value", *value).u64_field("max", *max);
            gauges.raw_field(name, &gauge.finish());
        }
        let mut histograms = Obj::new();
        for (name, hist) in &self.histograms {
            histograms.raw_field(name, &histogram_json(hist));
        }
        let mut obj = Obj::new();
        obj.raw_field("counters", &counters.finish())
            .raw_field("gauges", &gauges.finish())
            .raw_field("histograms", &histograms.finish());
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

fn histogram_json(hist: &HistogramSnapshot) -> String {
    let mut obj = Obj::new();
    obj.u64_field("count", hist.count)
        .u64_field("sum", hist.sum)
        .u64_field("max", hist.max)
        .f64_field("mean", hist.mean())
        .u64_field("p50", hist.quantile_upper(0.50))
        .u64_field("p99", hist.quantile_upper(0.99));
    let mut buckets = String::from("[");
    for (i, &(upper, n)) in hist.buckets.iter().enumerate() {
        if i > 0 {
            buckets.push(',');
        }
        let _ = write!(buckets, "[{upper},{n}]");
    }
    buckets.push(']');
    obj.raw_field("buckets", &buckets);
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
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
