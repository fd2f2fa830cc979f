//! The unified metrics registry and its Prometheus-text exposition.
//!
//! Before this crate the workspace had five disjoint stats surfaces
//! (`LockCounter` snapshots, `PoolStats`, per-shard snapshots, WAL
//! counters, `LatencyHistogram`s), each with its own ad-hoc text
//! format. A [`Registry`] inverts the dependency: each subsystem
//! registers a *closure* over its existing counters once, and
//! [`Registry::exposition`] samples them all at query time into one
//! Prometheus-text-style document. Nothing is double-counted and no
//! new counters are introduced — the registry is a read-only view.
//!
//! The exposition subset emitted here: `# HELP`/`# TYPE` comments,
//! `counter` and `gauge` samples with optional `{key="value"}`
//! labels, and `histogram` families rendered as cumulative
//! `_bucket{le="..."}` lines plus `_sum`/`_count` (the sum is
//! reconstructed from bucket floors, so it underestimates by at most
//! the histogram's ~6% bucket quantization).

use malthus_metrics::HistogramSnapshot;
use std::sync::Mutex;

/// Samples a counter: a monotonically non-decreasing `u64`.
pub type CounterFn = Box<dyn Fn() -> u64 + Send + Sync>;
/// Samples a gauge: an instantaneous `f64`.
pub type GaugeFn = Box<dyn Fn() -> f64 + Send + Sync>;
/// Samples a histogram as a consistent snapshot.
pub type HistogramFn = Box<dyn Fn() -> HistogramSnapshot + Send + Sync>;

enum Source {
    Counter(CounterFn),
    Gauge(GaugeFn),
    Histogram(HistogramFn),
}

impl Source {
    fn type_name(&self) -> &'static str {
        match self {
            Source::Counter(_) => "counter",
            Source::Gauge(_) => "gauge",
            Source::Histogram(_) => "histogram",
        }
    }
}

/// One family read on its own ([`Registry::sample`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Sample {
    /// A counter family: its series summed across label sets.
    Counter(u64),
    /// A gauge family: its series summed across label sets.
    Gauge(f64),
    /// A histogram family: the snapshot of its first-registered series.
    Histogram(HistogramSnapshot),
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    source: Source,
}

/// A collection of metric sources, sampled on demand.
///
/// Registration order is preserved; samples of the same family
/// (metric name) are grouped under one `# HELP`/`# TYPE` header no
/// matter when their label variants were registered. Re-registering
/// an identical `(name, labels)` pair *replaces* the old source, so
/// wiring code may be called more than once without duplicating
/// samples.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

/// `true` for names matching the Prometheus metric/label grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (label names additionally must not use
/// `:`, which no caller here does).
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], source: Source) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_name(k), "invalid label name {k:?}");
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut entries = self.entries.lock().unwrap();
        if let Some(old) = entries
            .iter_mut()
            .find(|e| e.name == name && e.labels == labels)
        {
            old.help = help.to_string();
            old.source = source;
            return;
        }
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            source,
        });
    }

    /// Registers a counter sampled by `f`.
    pub fn counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Source::Counter(Box::new(f)));
    }

    /// Registers a gauge sampled by `f`.
    pub fn gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Source::Gauge(Box::new(f)));
    }

    /// Registers a histogram sampled by `f`.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> HistogramSnapshot + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Source::Histogram(Box::new(f)));
    }

    /// Number of registered samples (label variants, not families).
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples the family `name` and nothing else — what a fixed
    /// projection of the registry (the `STATS` line) reads. `None` when
    /// nothing is registered under `name`.
    pub fn sample(&self, name: &str) -> Option<Sample> {
        let entries = self.entries.lock().unwrap();
        let mut members = entries.iter().filter(|e| e.name == name);
        let mut sample = match &members.next()?.source {
            Source::Counter(f) => Sample::Counter(f()),
            Source::Gauge(f) => Sample::Gauge(f()),
            Source::Histogram(f) => return Some(Sample::Histogram(f())),
        };
        for e in members {
            match (&mut sample, &e.source) {
                (Sample::Counter(n), Source::Counter(f)) => *n += f(),
                (Sample::Gauge(g), Source::Gauge(f)) => *g += f(),
                _ => {}
            }
        }
        Some(sample)
    }

    /// Samples every registered source into one Prometheus-text
    /// document. Values are racy snapshots, the same contract as the
    /// underlying counters.
    pub fn exposition(&self) -> String {
        let entries = self.entries.lock().unwrap();
        // Families in first-registration order.
        let mut families: Vec<&str> = Vec::new();
        for e in entries.iter() {
            if !families.contains(&e.name.as_str()) {
                families.push(&e.name);
            }
        }
        let mut out = String::new();
        for family in families {
            let members: Vec<&Entry> = entries.iter().filter(|e| e.name == family).collect();
            let first = members[0];
            out.push_str(&format!("# HELP {} {}\n", family, first.help));
            out.push_str(&format!("# TYPE {} {}\n", family, first.source.type_name()));
            for e in members {
                let labels = render_labels(&e.labels, None);
                match &e.source {
                    Source::Counter(f) => {
                        out.push_str(&format!("{}{} {}\n", e.name, labels, f()));
                    }
                    Source::Gauge(f) => {
                        out.push_str(&format!("{}{} {}\n", e.name, labels, fmt_f64(f())));
                    }
                    Source::Histogram(f) => {
                        let snap = f();
                        let mut cum = 0u64;
                        for (bound, n) in snap.nonzero_buckets() {
                            cum += n;
                            let le = render_labels(&e.labels, Some(&bound.to_string()));
                            out.push_str(&format!("{}_bucket{} {}\n", e.name, le, cum));
                        }
                        let inf = render_labels(&e.labels, Some("+Inf"));
                        out.push_str(&format!("{}_bucket{} {}\n", e.name, inf, snap.count()));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            e.name,
                            labels,
                            snap.approx_sum_ns()
                        ));
                        out.push_str(&format!("{}_count{} {}\n", e.name, labels, snap.count()));
                    }
                }
            }
        }
        out
    }
}

/// Renders `{k="v",...}` (empty string when there is nothing to
/// show); `le` appends the histogram bucket label.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Prometheus-friendly float rendering: integers stay integral,
/// non-finite values use the spec spellings.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malthus_metrics::LatencyHistogram;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn counters_and_gauges_render_with_labels() {
        let r = Registry::new();
        let n = Arc::new(AtomicU64::new(7));
        let n2 = Arc::clone(&n);
        r.counter(
            "kv_reads_total",
            "Total reads.",
            &[("shard", "0")],
            move || n2.load(Ordering::Relaxed),
        );
        r.gauge("kv_share", "Write share.", &[], || 0.5);
        let text = r.exposition();
        assert!(text.contains("# HELP kv_reads_total Total reads.\n"));
        assert!(text.contains("# TYPE kv_reads_total counter\n"));
        assert!(text.contains("kv_reads_total{shard=\"0\"} 7\n"));
        assert!(text.contains("# TYPE kv_share gauge\n"));
        assert!(text.contains("kv_share 0.5\n"));
        n.store(8, Ordering::Relaxed);
        assert!(r.exposition().contains("kv_reads_total{shard=\"0\"} 8\n"));
    }

    #[test]
    fn families_group_under_one_header() {
        let r = Registry::new();
        r.counter("x_total", "X.", &[("shard", "0")], || 1);
        r.counter("y_total", "Y.", &[], || 5);
        r.counter("x_total", "X.", &[("shard", "1")], || 2);
        let text = r.exposition();
        assert_eq!(text.matches("# TYPE x_total counter").count(), 1);
        let x0 = text.find("x_total{shard=\"0\"}").unwrap();
        let x1 = text.find("x_total{shard=\"1\"}").unwrap();
        let y = text.find("y_total 5").unwrap();
        assert!(x0 < x1 && x1 < y, "family members must be contiguous");
    }

    #[test]
    fn reregistering_replaces_instead_of_duplicating() {
        let r = Registry::new();
        r.counter("z_total", "Z.", &[], || 1);
        r.counter("z_total", "Z.", &[], || 2);
        assert_eq!(r.len(), 1);
        assert!(r.exposition().contains("z_total 2\n"));
        assert!(!r.exposition().contains("z_total 1\n"));
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let h = Arc::new(LatencyHistogram::new());
        h.record_ns(10);
        h.record_ns(10);
        h.record_ns(1_000_000);
        let r = Registry::new();
        let h2 = Arc::clone(&h);
        r.histogram("req_ns", "Request latency.", &[], move || h2.snapshot());
        let text = r.exposition();
        assert!(text.contains("# TYPE req_ns histogram\n"));
        assert!(text.contains("req_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("req_ns_count 3\n"));
        // Buckets are cumulative: the small bucket holds 2, the large
        // one all 3.
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("req_ns_bucket"))
            .collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].ends_with(" 2"));
        assert!(lines[1].ends_with(" 3"));
        // _sum is the floor-approximate total.
        let sum_line = text.lines().find(|l| l.starts_with("req_ns_sum")).unwrap();
        let sum: u64 = sum_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!((900_000..=1_000_100).contains(&sum));
    }

    #[test]
    fn sample_reads_one_family_across_its_label_sets() {
        let r = Registry::new();
        r.counter("x_total", "X.", &[("shard", "0")], || 3);
        r.counter("y_total", "Y.", &[], || 100);
        r.counter("x_total", "X.", &[("shard", "1")], || 4);
        r.gauge("g", "G.", &[("shard", "0")], || 1.0);
        r.gauge("g", "G.", &[("shard", "1")], || 0.5);
        let h = LatencyHistogram::new();
        for n in [16, 1, 16, 16] {
            h.record_ns(n);
        }
        let snap = h.snapshot();
        r.histogram("h_ns", "H.", &[], move || snap.clone());
        assert_eq!(r.sample("x_total"), Some(Sample::Counter(7)));
        assert_eq!(r.sample("g"), Some(Sample::Gauge(1.5)));
        assert_eq!(r.sample("h_ns"), Some(Sample::Histogram(h.snapshot())));
        assert_eq!(r.sample("absent_total"), None);
    }

    #[test]
    fn exposition_grammar_is_well_formed() {
        let r = Registry::new();
        r.counter("a_total", "A.", &[("lock", "db")], || 1);
        r.gauge("b", "B.", &[], || f64::NAN);
        let h = LatencyHistogram::new();
        h.record_ns(500);
        let snap = h.snapshot();
        r.histogram("c_ns", "C.", &[("shard", "3")], move || snap.clone());
        for line in r.exposition().lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            // name[{labels}] value
            let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(!value.is_empty());
            let name = name_part.split('{').next().unwrap();
            assert!(valid_name(name), "bad metric name in {line:?}");
            if let Some(rest) = name_part.strip_prefix(name) {
                if !rest.is_empty() {
                    assert!(rest.starts_with('{') && rest.ends_with('}'), "{line}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        Registry::new().counter("bad name", "X.", &[], || 0);
    }
}
