//! In-memory spans around the public calls an op makes.
//!
//! Each caller thread owns one [`SpanLog`]; nothing is shared while the
//! window runs. A disabled log costs one branch per call, so the
//! end-to-end runs go through the same code with tracing off.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` indexes the same log (`u32::MAX` for
/// a root span); `op` is the op number the spans of one request share.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const ROOT: u32 = u32::MAX;

pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`, handing `f`
    /// the new span's index to parent its own children on.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        f: impl FnOnce(&mut Self, u32) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, ROOT);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        let result = f(self, index);
        self.spans[index as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        result
    }
}

/// Median duration and median self time (duration minus the part its
/// children cover) per span name, in milliseconds.
pub fn self_times(logs: &[&SpanLog]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for log in logs {
        let mut child_ns = vec![0u64; log.spans.len()];
        for s in &log.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in log.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(total as f64 / 1e6);
            entry.1.push(total.saturating_sub(covered) as f64 / 1e6);
        }
    }
    by_name
        .into_iter()
        .map(|(name, (total, own))| {
            (
                name,
                (
                    total.len(),
                    crate::stats::median(&total),
                    crate::stats::median(&own),
                ),
            )
        })
        .collect()
}

/// The span file: one object per span plus the derived self times.
pub fn to_json(workload: &str, logs: &[&SpanLog]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"self_times_ms\":{{");
    for (i, (name, (count, total, own))) in self_times(logs).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"count\":{count},\"median_ms\":{total},\"median_self_ms\":{own}}}"
        ));
    }
    out.push_str("},\"spans\":[");
    let mut first = true;
    for (caller, log) in logs.iter().enumerate() {
        for (index, s) in log.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                format!("\"{caller}.{}\"", s.parent)
            };
            out.push_str(&format!(
                "\n{{\"id\":\"{caller}.{index}\",\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}
