//! The metric names this benchmark declares, and the ledger a run fills.
//! `BENCHMARK.json` repeats the two tables (the driver reads it, not this
//! file); the smoke test asserts they agree.

use crate::stats::Spread;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload when `--trace 0`:
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("batch_qps", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p95_us", "us"),
    ("recall_at_10", "ratio"),
    ("cpu_ms_per_query", "ms"),
    ("disk_bytes_per_vector", "bytes"),
    ("ingest_rows_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload when `--trace 1`.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("core.rotate_ns", "ns"),
    ("core.query_prep_ns", "ns"),
    ("core.fastscan_codes_per_s", "1/s"),
    ("core.estimate_ns_per_code", "ns"),
    ("core.encode_ns_per_vector", "ns"),
    ("kmeans.train_s", "s"),
    ("kmeans.assign_top_n_ns", "ns"),
    ("ivf.build_s", "s"),
    ("ivf.search_ns", "ns"),
    ("ivf.stage.rotate_ns", "ns"),
    ("ivf.stage.lut_build_ns", "ns"),
    ("ivf.stage.scan_ns", "ns"),
    ("ivf.stage.rerank_ns", "ns"),
    ("ivf.stage.merge_ns", "ns"),
    ("ivf.n_estimated_per_query", "count"),
    ("ivf.n_reranked_per_query", "count"),
    ("ivf.rerank_ratio", "ratio"),
    ("ivf.allocs_per_query", "count"),
    ("ivf.curve.nprobe4.qps", "1/s"),
    ("ivf.curve.nprobe4.recall", "ratio"),
    ("ivf.curve.nprobe16.qps", "1/s"),
    ("ivf.curve.nprobe16.recall", "ratio"),
    ("ivf.curve.nprobe64.qps", "1/s"),
    ("ivf.curve.nprobe64.recall", "ratio"),
    ("store.insert_ns", "ns"),
    ("store.seal_s", "s"),
    ("store.compact_s", "s"),
    ("store.reopen_s", "s"),
    ("store.wal_bytes_per_row", "bytes"),
    ("store.wal_syncs", "count"),
    ("store.publishes", "count"),
    ("store.compaction_bytes_in", "bytes"),
    ("store.compaction_bytes_out", "bytes"),
    ("store.search_ns", "ns"),
    ("store.fanout_overhead_ns", "ns"),
    ("store.search_many_qps_1t", "1/s"),
    ("store.search_many_qps_mt", "1/s"),
    ("store.mt_speedup", "ratio"),
    ("store.batch_speedup", "ratio"),
    ("store.seal_stall_ms_p95", "ms"),
    ("store.segments_at_end", "count"),
    ("serve.json_parse_ns", "ns"),
    ("serve.json_encode_ns", "ns"),
    ("serve.healthz_rtt_us", "us"),
    ("serve.lat_p50_us", "us"),
    ("serve.stage_sum_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.mean_batch_size", "count"),
    ("serve.shed_rate", "ratio"),
    ("serve.unexplained_us", "us"),
    ("serve.unexplained_pct", "%"),
    ("serve.slo_rate_rps", "1/s"),
    ("client.lat_p99_us", "us"),
    ("client.lat_max_us", "us"),
    ("client.generator_lag_us_p95", "us"),
    ("error_rate", "ratio"),
    ("trace.self_sum_error_pct", "%"),
    ("trace_overhead_pct", "%"),
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Min and max over the repetitions, where the metric has them.
    pub range: Option<(f64, f64)>,
    pub note: Option<&'static str>,
}

/// The metrics of one run, in the order they were measured.
#[derive(Default)]
pub struct Ledger {
    pub metrics: Vec<Metric>,
}

impl Ledger {
    fn unit_of(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in report.rs"))
            .1
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            unit: Self::unit_of(name),
            value,
            range: None,
            note: None,
        });
    }

    pub fn put_spread(&mut self, name: &'static str, s: Spread) {
        self.metrics.push(Metric {
            name,
            unit: Self::unit_of(name),
            value: s.median,
            range: Some((s.min, s.max)),
            note: None,
        });
    }

    /// Attaches a remark to the metric put last.
    pub fn note(&mut self, note: &'static str) {
        if let Some(m) = self.metrics.last_mut() {
            m.note = Some(note);
        }
    }

    /// Names declared for this mode but missing, undeclared or repeated
    /// names present, and values that are not finite.
    pub fn check_against(&self, declared: &[(&str, &str)]) -> Vec<String> {
        let mut problems = Vec::new();
        for (name, _) in declared {
            match self.metrics.iter().filter(|m| m.name == *name).count() {
                0 => problems.push(format!("metric {name} declared but not reported")),
                1 => {}
                n => problems.push(format!("metric {name} reported {n} times")),
            }
        }
        for m in &self.metrics {
            if !declared.iter().any(|(n, _)| *n == m.name) {
                problems.push(format!("metric {} reported but not declared", m.name));
            }
            if !m.value.is_finite() {
                problems.push(format!("metric {} is {}", m.name, m.value));
            }
        }
        problems
    }

    /// `name value unit [min max] # note`, one metric per line.
    pub fn print(&self) {
        for m in &self.metrics {
            let mut line = format!("{} {} {}", m.name, fmt_value(m.value), m.unit);
            if let Some((lo, hi)) = m.range {
                let _ = write!(line, " [min {} max {}]", fmt_value(lo), fmt_value(hi));
            }
            if let Some(note) = m.note {
                let _ = write!(line, " # {note}");
            }
            println!("{line}");
        }
    }

    /// `{"name":{"value":v,"unit":"u"},…}` — the `metrics` object of the
    /// driver's contract; with `ranges`, min and max ride along.
    pub fn to_json(&self, ranges: bool) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                m.name,
                fmt_value(m.value),
                m.unit
            );
            if let (true, Some((lo, hi))) = (ranges, m.range) {
                let _ = write!(out, ",\"min\":{},\"max\":{}", fmt_value(lo), fmt_value(hi));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit measured; non-finite values (already
/// reported as violations) print as 0 to keep the line parseable.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_flags_missing_undeclared_and_nan() {
        let mut l = Ledger::default();
        l.put("qps", 10.5);
        l.put("core.rotate_ns", f64::NAN);
        let problems = l.check_against(&END_TO_END);
        assert!(problems.iter().any(|p| p.contains("setup_s declared")));
        assert!(problems
            .iter()
            .any(|p| p.contains("core.rotate_ns reported but")));
        assert!(problems.iter().any(|p| p.contains("is NaN")));
        assert_eq!(l.to_json(false), "{\"qps\":{\"value\":10.5,\"unit\":\"1/s\"},\"core.rotate_ns\":{\"value\":0,\"unit\":\"ns\"}}");
    }

    #[test]
    fn declared_names_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
    }
}
