//! Harness-side spans: one per call the harness makes into a layer, kept
//! in memory and written out when the run ends. Nothing here reaches
//! inside a crate; spans whose timing comes from a result field (the
//! engine's `StageNanos`, the server's `?debug=timings`) are marked
//! `synthetic` and laid end to end from their parent's start.

use crate::stats::now_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same list, always smaller than the
    /// span's own; `None` for a request.
    pub parent: Option<u32>,
    pub synthetic: bool,
}

/// One thread's span buffer. A disabled tracer records nothing, so the
/// untraced and traced runs execute the same harness code.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        if !self.enabled {
            return 0;
        }
        let now = now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            synthetic: false,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        if self.enabled {
            self.spans[id as usize].end_ns = now_ns();
        }
    }

    /// Lays `parts` end to end inside `parent`, starting at its start and
    /// clipped to its end, from durations another layer reported. Returns
    /// the id of the first part.
    pub fn synthetic_children(&mut self, parent: u32, parts: &[(&'static str, u64)]) -> u32 {
        if !self.enabled {
            return 0;
        }
        let first = self.spans.len() as u32;
        let p = self.spans[parent as usize];
        let mut at = p.start_ns;
        for &(name, ns) in parts {
            let end = at.saturating_add(ns).min(p.end_ns);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                synthetic: true,
            });
            at = end;
        }
        first
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Merges per-thread buffers into one list, rebasing parent indices.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
    for buf in buffers {
        let base = all.len() as u32;
        all.extend(buf.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// What a span list adds up to.
pub struct Summary {
    /// Total self time per span name: duration minus the part covered by
    /// direct children.
    pub self_ns: BTreeMap<&'static str, u64>,
    pub requests: usize,
    /// Largest relative gap, over requests, between a request span and
    /// the self times of its tree.
    pub max_self_sum_error: f64,
}

/// For every span, the index of the request (root span) it belongs to —
/// the identifier the spans of one request share.
fn request_ids(spans: &[Span]) -> Vec<u32> {
    let mut ids: Vec<u32> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        ids.push(s.parent.map_or(i as u32, |p| ids[p as usize]));
    }
    ids
}

pub fn summarize(spans: &[Span]) -> Summary {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let roots = request_ids(spans);
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    // Self time summed per request, keyed by the request's root span.
    let mut tree_self = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        *self_ns.entry(s.name).or_default() += own;
        tree_self[roots[i] as usize] += own;
    }
    let mut requests = 0;
    let mut max_err = 0.0f64;
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            requests += 1;
            let dur = (s.end_ns - s.start_ns).max(1) as f64;
            max_err = max_err.max((tree_self[i] as f64 - dur).abs() / dur);
        }
    }
    Summary {
        self_ns,
        requests,
        max_self_sum_error: max_err,
    }
}

/// Writes the span file: header, per-name self time, counts recorded at
/// the same boundaries, then every span.
pub fn write_file(
    path: &Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
    summary: &Summary,
    counts: &[(&str, f64)],
) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96 + 1024);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"requests\":{},\
         \"max_self_sum_error\":{:.6},\"self_ns\":{{",
        summary.requests, summary.max_self_sum_error
    );
    for (i, (name, ns)) in summary.self_ns.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\":{ns}", if i > 0 { "," } else { "" });
    }
    out.push_str("},\"counts\":{");
    for (i, (name, v)) in counts.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\":{v}", if i > 0 { "," } else { "" });
    }
    out.push_str("},\"spans\":[\n");
    let request_ids = request_ids(spans);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"request_id\":{},\"synthetic\":{}}}{}",
            s.name,
            s.start_ns,
            s.end_ns,
            request_ids[i],
            s.synthetic,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_request() {
        let mut t = Tracer::new(true);
        let req = t.begin("request", None);
        let call = t.begin("store.search", Some(req));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(call);
        t.synthetic_children(
            call,
            &[
                ("ivf.stage.scan", 500_000),
                ("ivf.stage.rerank", u64::MAX / 4),
            ],
        );
        t.end(req);
        let spans = merge(vec![t.into_spans(), Vec::new()]);
        assert_eq!(spans.len(), 4);
        // The oversized child is clipped to its parent.
        assert!(spans[3].end_ns <= spans[1].end_ns);
        let s = summarize(&spans);
        assert_eq!(s.requests, 1);
        assert!(s.max_self_sum_error < 1e-9, "{}", s.max_self_sum_error);
        assert_eq!(s.self_ns["ivf.stage.scan"], 500_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("request", None);
        t.synthetic_children(id, &[("x", 1)]);
        t.end(id);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let mk = || {
            let mut t = Tracer::new(true);
            let r = t.begin("request", None);
            let c = t.begin("child", Some(r));
            t.end(c);
            t.end(r);
            t.into_spans()
        };
        let spans = merge(vec![mk(), mk()]);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(request_ids(&spans), [0, 0, 2, 2]);
    }
}
