//! Prometheus-style text exposition of a [`RegistrySnapshot`], plus a
//! structural validator used by the CI scrape check.
//!
//! The rendering follows the text format conventions: a `# HELP` and
//! `# TYPE` line per family, then one sample line per series.  Histograms
//! render as cumulative `_bucket{le="…"}` series (occupied buckets only,
//! plus the mandatory `le="+Inf"`), `_sum` and `_count`.  Ordering is fully
//! determined by the snapshot (families by name, series by label set), so
//! the same state always renders to the same bytes — the property the
//! golden fixture locks.

use std::fmt::Write as _;

use crate::registry::{MetricKind, RegistrySnapshot, SeriesValue};

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders the label block `{k="v",…}`, with `extra` appended last (used
/// for the histogram `le` label).  Empty when there are no labels.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Renders a snapshot in the Prometheus text exposition format.
pub fn render_text(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for family in &snapshot.families {
        let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
        let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
        for series in &family.series {
            match &series.value {
                SeriesValue::Counter(value) => {
                    let _ = writeln!(
                        out,
                        "{}{} {value}",
                        family.name,
                        label_block(&series.labels, None)
                    );
                }
                SeriesValue::Gauge(value) => {
                    let _ = writeln!(
                        out,
                        "{}{} {value}",
                        family.name,
                        label_block(&series.labels, None)
                    );
                }
                SeriesValue::Histogram(histogram) => {
                    let mut cumulative = 0u64;
                    for (le, count) in histogram.le_buckets() {
                        cumulative = cumulative.saturating_add(count);
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cumulative}",
                            family.name,
                            label_block(&series.labels, Some(("le", &le.to_string())))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        family.name,
                        label_block(&series.labels, Some(("le", "+Inf"))),
                        histogram.count()
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        family.name,
                        label_block(&series.labels, None),
                        histogram.sum()
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        family.name,
                        label_block(&series.labels, None),
                        histogram.count()
                    );
                }
            }
        }
    }
    out
}

fn valid_exposed_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Structurally validates a rendered exposition page: every `# TYPE` name
/// is well-formed and unique, and every sample line belongs to a declared
/// family (directly, or via the `_bucket`/`_sum`/`_count` suffix of a
/// declared histogram).  Returns the first problem found.
pub fn validate_text(text: &str) -> Result<(), String> {
    let mut types: Vec<(String, MetricKind)> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, kind) = match (parts.next(), parts.next()) {
                (Some(name), Some(kind)) => (name, kind),
                _ => return Err(format!("malformed TYPE line: `{line}`")),
            };
            if !valid_exposed_name(name) {
                return Err(format!("invalid metric name `{name}` in TYPE line"));
            }
            let kind = MetricKind::from_wire_name(kind)
                .ok_or_else(|| format!("unknown kind in TYPE line: `{line}`"))?;
            if types.iter().any(|(n, _)| n == name) {
                return Err(format!("duplicate metric family `{name}`"));
            }
            types.push((name.to_string(), kind));
        }
    }
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("malformed sample line: `{line}`"))?;
        let name = &line[..name_end];
        if !valid_exposed_name(name) {
            return Err(format!("invalid metric name `{name}` in sample line"));
        }
        let declared = types.iter().any(|(n, _)| n == name)
            || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                name.strip_suffix(suffix).is_some_and(|base| {
                    types
                        .iter()
                        .any(|(n, k)| n == base && *k == MetricKind::Histogram)
                })
            });
        if !declared {
            return Err(format!("sample for unregistered metric `{name}`"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn demo_snapshot() -> RegistrySnapshot {
        let registry = Registry::new();
        registry
            .counter("expose_requests_total", "Requests.")
            .add(7);
        registry
            .gauge_with("expose_depth", "Depth.", &[("worker", "0")])
            .set(-3);
        let histogram = registry.histogram("expose_latency_ns", "Latency.");
        histogram.record(5);
        histogram.record(5);
        histogram.record(1_000);
        registry.snapshot()
    }

    #[test]
    fn render_is_deterministic_and_valid() {
        let snapshot = demo_snapshot();
        let first = render_text(&snapshot);
        let second = render_text(&snapshot);
        assert_eq!(first, second);
        validate_text(&first).expect("rendered page validates");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let text = render_text(&demo_snapshot());
        assert!(text.contains("expose_latency_ns_bucket{le=\"5\"} 2"));
        assert!(text.contains("expose_latency_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("expose_latency_ns_sum 1010"));
        assert!(text.contains("expose_latency_ns_count 3"));
    }

    #[test]
    fn labels_and_help_are_escaped() {
        let registry = Registry::new();
        registry
            .counter_with(
                "escaped_total",
                "Line one\nline \\two.",
                &[("path", "a\"b\\c")],
            )
            .inc();
        let text = render_text(&registry.snapshot());
        assert!(text.contains("# HELP escaped_total Line one\\nline \\\\two."));
        assert!(text.contains("escaped_total{path=\"a\\\"b\\\\c\"} 1"));
        validate_text(&text).expect("escaped page validates");
    }

    #[test]
    fn validator_rejects_unregistered_and_duplicate_names() {
        assert!(validate_text("orphan_total 3\n")
            .unwrap_err()
            .contains("unregistered"));
        let dup = "# TYPE x_total counter\n# TYPE x_total counter\nx_total 1\n";
        assert!(validate_text(dup).unwrap_err().contains("duplicate"));
        // _sum only counts as declared for histogram families.
        let bad_suffix = "# TYPE x_total counter\nx_total_sum 1\n";
        assert!(validate_text(bad_suffix)
            .unwrap_err()
            .contains("unregistered"));
        let ok = "# TYPE h_ns histogram\nh_ns_bucket{le=\"+Inf\"} 0\nh_ns_sum 0\nh_ns_count 0\n";
        validate_text(ok).expect("histogram suffixes validate");
    }
}
