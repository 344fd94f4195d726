//! Hand-rolled Prometheus text exposition (format version 0.0.4).
//!
//! [`PromEncoder`] collects metric samples into per-metric blocks and
//! renders them with `# HELP`/`# TYPE` headers, escaped label values, and
//! cumulative histogram `le` ladders derived from
//! [`LatencyHistogram::nonzero_buckets`]. Samples may be added in any
//! order — rendering groups every sample under its metric's single block,
//! which the format requires.
//!
//! [`validate`] is the tiny checker the serving tests
//! (`serve/tests/{observability,chaos,deadline_api}.rs`) run against a
//! live `/metrics` scrape: header grammar, metric-name and label syntax,
//! block contiguity, and histogram invariants (ascending `le`,
//! non-decreasing cumulative counts, `+Inf` present and equal to
//! `_count`).

use crate::latency::LatencyHistogram;
use std::collections::HashMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

struct Block {
    name: String,
    kind: Kind,
    help: String,
    samples: Vec<String>,
}

/// Builder for one exposition document.
#[derive(Default)]
pub struct PromEncoder {
    blocks: Vec<Block>,
    index: HashMap<String, usize>,
}

/// Escapes a label value per the text format: `\` → `\\`, `"` → `\"`,
/// newline → `\n`.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        return if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        };
    }
    if v.is_nan() {
        return "NaN".into();
    }
    format!("{v}")
}

fn fmt_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}")
}

impl PromEncoder {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    fn block(&mut self, name: &str, kind: Kind, help: &str) -> &mut Block {
        let idx = match self.index.get(name) {
            Some(&idx) => {
                assert_eq!(
                    self.blocks[idx].kind, kind,
                    "metric {name} re-declared with a different type"
                );
                idx
            }
            None => {
                self.blocks.push(Block {
                    name: name.to_string(),
                    kind,
                    help: help.to_string(),
                    samples: Vec::new(),
                });
                self.index.insert(name.to_string(), self.blocks.len() - 1);
                self.blocks.len() - 1
            }
        };
        &mut self.blocks[idx]
    }

    /// Adds one counter sample (monotonic total).
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let line = format!("{name}{} {value}", fmt_labels(labels));
        self.block(name, Kind::Counter, help).samples.push(line);
    }

    /// Adds one gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let line = format!("{name}{} {}", fmt_labels(labels), fmt_value(value));
        self.block(name, Kind::Gauge, help).samples.push(line);
    }

    /// Adds one histogram series from a microsecond [`LatencyHistogram`],
    /// rendered in **seconds** (the Prometheus base unit — name the metric
    /// `*_seconds`): a cumulative `le` ladder over the occupied buckets,
    /// an explicit `+Inf`, `_sum`, and `_count`.
    pub fn histogram_us(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: &LatencyHistogram,
    ) {
        let buckets = hist.nonzero_buckets();
        let count = hist.count();
        let sum_s = hist.sum_us() as f64 / 1e6;
        let block = self.block(name, Kind::Histogram, help);
        let mut cumulative = 0u64;
        for (upper_us, n) in buckets {
            cumulative += n;
            let mut ls: Vec<(&str, &str)> = labels.to_vec();
            let le = fmt_value(upper_us as f64 / 1e6);
            ls.push(("le", &le));
            block
                .samples
                .push(format!("{name}_bucket{} {cumulative}", fmt_labels(&ls)));
        }
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", "+Inf"));
        block
            .samples
            .push(format!("{name}_bucket{} {count}", fmt_labels(&ls)));
        block.samples.push(format!(
            "{name}_sum{} {}",
            fmt_labels(labels),
            fmt_value(sum_s)
        ));
        block
            .samples
            .push(format!("{name}_count{} {count}", fmt_labels(labels)));
    }

    /// Adds an info-style gauge (constant `1` whose labels carry the
    /// payload — e.g. build version, active kernel).
    pub fn info(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) {
        self.gauge(name, help, labels, 1.0);
    }

    /// Renders the document. Every metric's samples sit in one block under
    /// its `# HELP`/`# TYPE` headers, in first-declaration order.
    pub fn render(self) -> String {
        let mut out = String::new();
        for b in &self.blocks {
            let _ = writeln!(out, "# HELP {} {}", b.name, b.help);
            let _ = writeln!(out, "# TYPE {} {}", b.name, b.kind.as_str());
            for s in &b.samples {
                out.push_str(s);
                out.push('\n');
            }
        }
        out
    }
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit()
}

fn parse_name(s: &str) -> Result<(&str, &str), String> {
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, c)) if is_name_start(c) => {}
        _ => return Err(format!("bad metric name start in {s:?}")),
    }
    let end = s
        .char_indices()
        .find(|&(_, c)| !is_name_char(c))
        .map_or(s.len(), |(i, _)| i);
    Ok((&s[..end], &s[end..]))
}

/// Owned label pairs parsed off a sample line.
type LabelPairs = Vec<(String, String)>;

/// Parses `{k="v",...}`-style labels, returning (pairs, rest-after-`}`).
fn parse_labels(s: &str) -> Result<(LabelPairs, &str), String> {
    let mut rest = s
        .strip_prefix('{')
        .ok_or_else(|| format!("expected '{{' in {s:?}"))?;
    let mut pairs = Vec::new();
    loop {
        if let Some(r) = rest.strip_prefix('}') {
            return Ok((pairs, r));
        }
        let (key, after_key) = parse_name(rest)?;
        rest = after_key
            .strip_prefix("=\"")
            .ok_or_else(|| format!("expected '=\"' after label {key:?}"))?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let close = loop {
            match chars.next() {
                Some((_, '\\')) => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in label {key:?}")),
                },
                Some((i, '"')) => break i + 1,
                Some((_, c)) => value.push(c),
                None => return Err(format!("unterminated label value for {key:?}")),
            }
        };
        pairs.push((key.to_string(), value));
        rest = &rest[close..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.starts_with('}') {
            return Err(format!("expected ',' or '}}' after label {key:?}"));
        }
    }
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        s => s.parse::<f64>().map_err(|_| format!("bad value {s:?}")),
    }
}

/// A parsed sample used by the histogram checks.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Validates a text-exposition document: header grammar, name/label
/// syntax, one contiguous block per metric, and histogram invariants.
/// Returns the number of samples on success.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut finished: Vec<String> = Vec::new(); // block order for contiguity
    let mut current: Option<String> = None;
    let mut samples: Vec<Sample> = Vec::new();

    let base_of = |name: &str, typed: &HashMap<String, String>| -> String {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if typed.get(base).map(String::as_str) == Some("histogram") {
                    return base.to_string();
                }
            }
        }
        name.to_string()
    };

    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            return Err(err("empty line".into()));
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let (directive, rest) = rest
                .split_once(' ')
                .ok_or_else(|| err("bare comment directive".into()))?;
            match directive {
                "HELP" => {
                    let (name, _help) = rest.split_once(' ').unwrap_or((rest, ""));
                    parse_name(name)
                        .ok()
                        .filter(|(_, tail)| tail.is_empty())
                        .ok_or_else(|| err(format!("bad HELP name {name:?}")))?;
                }
                "TYPE" => {
                    let (name, kind) = rest
                        .split_once(' ')
                        .ok_or_else(|| err("TYPE without a type".into()))?;
                    parse_name(name)
                        .ok()
                        .filter(|(_, tail)| tail.is_empty())
                        .ok_or_else(|| err(format!("bad TYPE name {name:?}")))?;
                    if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                        return Err(err(format!("unknown metric type {kind:?}")));
                    }
                    if typed.insert(name.to_string(), kind.to_string()).is_some() {
                        return Err(err(format!("duplicate TYPE for {name}")));
                    }
                }
                other => return Err(err(format!("unknown directive {other:?}"))),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        let (name, rest) = parse_name(line).map_err(err)?;
        let (labels, rest) = if rest.starts_with('{') {
            parse_labels(rest).map_err(err)?
        } else {
            (Vec::new(), rest)
        };
        let value_str = rest
            .strip_prefix(' ')
            .ok_or_else(|| err(format!("expected space before value in {line:?}")))?;
        // We never emit timestamps; a second field is a format error here.
        let value = parse_value(value_str.trim_end()).map_err(err)?;
        for (k, _) in &labels {
            if k.starts_with("__") {
                return Err(err(format!("reserved label name {k:?}")));
            }
        }
        let base = base_of(name, &typed);
        if current.as_deref() != Some(base.as_str()) {
            if let Some(prev) = current.take() {
                finished.push(prev);
            }
            if finished.contains(&base) {
                return Err(err(format!("samples for {base} are not contiguous")));
            }
            current = Some(base.clone());
        }
        samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }

    // Histogram invariants, per (base name, labels-minus-le) series.
    for (name, kind) in &typed {
        if kind != "histogram" {
            continue;
        }
        let mut series: HashMap<String, Vec<(f64, f64)>> = HashMap::new();
        let mut counts: HashMap<String, f64> = HashMap::new();
        let series_key = |labels: &[(String, String)]| -> String {
            let mut ls: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v:?}"))
                .collect();
            ls.sort();
            ls.join(",")
        };
        for s in &samples {
            if s.name == format!("{name}_bucket") {
                let le = s
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .ok_or_else(|| format!("{name}_bucket without le"))?;
                let le = parse_value(&le.1)?;
                series
                    .entry(series_key(&s.labels))
                    .or_default()
                    .push((le, s.value));
            } else if s.name == format!("{name}_count") {
                counts.insert(series_key(&s.labels), s.value);
            }
        }
        for (key, buckets) in &series {
            let mut last_le = f64::NEG_INFINITY;
            let mut last_c = -1.0f64;
            for &(le, c) in buckets {
                if le <= last_le {
                    return Err(format!("{name}{{{key}}}: le not increasing at {le}"));
                }
                if c < last_c {
                    return Err(format!(
                        "{name}{{{key}}}: cumulative count decreased at le={le}"
                    ));
                }
                last_le = le;
                last_c = c;
            }
            let (inf_le, inf_c) = *buckets.last().expect("non-empty bucket list");
            if !inf_le.is_infinite() {
                return Err(format!("{name}{{{key}}}: missing +Inf bucket"));
            }
            if let Some(&count) = counts.get(key) {
                if count != inf_c {
                    return Err(format!(
                        "{name}{{{key}}}: _count {count} != +Inf bucket {inf_c}"
                    ));
                }
            }
        }
    }

    Ok(samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_document_renders_and_validates() {
        let hist = LatencyHistogram::new();
        for us in [3u64, 50, 50, 2000] {
            hist.record_us(us);
        }
        let mut enc = PromEncoder::new();
        enc.counter("rabitq_requests_total", "HTTP requests.", &[], 42);
        enc.gauge(
            "rabitq_queue_depth",
            "Queued searches.",
            &[("collection", "default")],
            3.0,
        );
        enc.histogram_us(
            "rabitq_search_duration_seconds",
            "Edge search latency.",
            &[("collection", "default")],
            &hist,
        );
        enc.info(
            "rabitq_build_info",
            "Build metadata.",
            &[("version", "1.0"), ("kernel", "avx2")],
        );
        let text = enc.render();
        let n = validate(&text).expect("golden document must validate");
        // 1 counter + 1 gauge + (3 buckets + Inf + sum + count) + 1 info.
        assert_eq!(n, 9);
        assert!(text.contains("# TYPE rabitq_requests_total counter\nrabitq_requests_total 42\n"));
        assert!(text.contains("rabitq_queue_depth{collection=\"default\"} 3\n"));
        assert!(text.contains("le=\"+Inf\"} 4\n"));
        assert!(text.contains("rabitq_search_duration_seconds_count{collection=\"default\"} 4\n"));
        assert!(text.contains("rabitq_build_info{version=\"1.0\",kernel=\"avx2\"} 1\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut enc = PromEncoder::new();
        enc.gauge("m", "h", &[("path", "a\\b\"c\nd")], 1.0);
        let text = enc.render();
        assert!(text.contains("m{path=\"a\\\\b\\\"c\\nd\"} 1\n"), "{text}");
        validate(&text).expect("escaped labels must validate");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_count() {
        let hist = LatencyHistogram::new();
        for us in 1..=100u64 {
            hist.record_us(us);
        }
        let mut enc = PromEncoder::new();
        enc.histogram_us("h_seconds", "h", &[], &hist);
        let text = enc.render();
        validate(&text).expect("histogram must validate");
        let mut last = 0u64;
        let mut inf = 0u64;
        for line in text.lines().filter(|l| l.starts_with("h_seconds_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative counts must not decrease: {line}");
            last = v;
            inf = v;
        }
        assert_eq!(inf, 100);
    }

    #[test]
    fn interleaved_sample_insertion_still_renders_contiguous_blocks() {
        let mut enc = PromEncoder::new();
        enc.counter("a_total", "a", &[("c", "x")], 1);
        enc.counter("b_total", "b", &[], 2);
        enc.counter("a_total", "a", &[("c", "y")], 3);
        let text = enc.render();
        validate(&text).expect("grouped rendering must be contiguous");
        let a = text.find("a_total{c=\"x\"}").unwrap();
        let a2 = text.find("a_total{c=\"y\"}").unwrap();
        let b = text.find("b_total 2").unwrap();
        assert!(a < a2 && a2 < b, "{text}");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate("1bad_name 1\n").is_err());
        assert!(validate("m{l=\"unterminated} 1\n").is_err());
        assert!(validate("m 1\n\nm2 1\n").is_err(), "empty line");
        assert!(validate("m nope\n").is_err(), "non-numeric value");
        assert!(
            validate("# TYPE m counter\nm 1\n# TYPE m counter\n").is_err(),
            "duplicate TYPE"
        );
        assert!(
            validate("# TYPE h histogram\nh_bucket{le=\"2\"} 5\nh_bucket{le=\"1\"} 6\n").is_err(),
            "le must ascend"
        );
        assert!(
            validate("# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n")
                .is_err(),
            "cumulative counts must not decrease"
        );
        assert!(
            validate(
                "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_count 4\n"
            )
            .is_err(),
            "_count must equal +Inf"
        );
        assert!(
            validate("a 1\nb 2\na 3\n").is_err(),
            "blocks must be contiguous"
        );
        assert!(validate("m{__reserved=\"v\"} 1\n").is_err());
    }

    #[test]
    fn validator_accepts_special_values() {
        assert!(validate("m +Inf\n").is_ok());
        assert!(validate("m -Inf\n").is_ok());
        assert!(validate("m NaN\n").is_ok());
        assert!(validate("m 1e-6\n").is_ok());
    }
}
