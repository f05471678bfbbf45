//! Deterministic exporters: human summary table and JSON-lines.
//!
//! Both render from the registry's sorted iteration order and the
//! span store's close order, and format durations as integer
//! nanoseconds — two runs of the same seeded workload produce
//! byte-identical output, which CI exploits as a golden-file check.

use core::fmt::{self, Display, Write as _};

use crate::span::{FaultSpan, STAGE_NAMES};
use crate::{Instrument, Telemetry};

/// An optional value that renders as `absent` when `None`, honouring the
/// width and alignment of the format spec either way — so a line is
/// written straight into the output buffer with no `String` per field.
struct Opt<T>(Option<T>, &'static str);

impl<T: Display> Display for Opt<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.pad(self.1),
        }
    }
}

/// Renders the human-readable summary table: every metric slot, then
/// the span-stage decomposition.
pub fn render_summary(t: &Telemetry) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== telemetry summary ==");
    let _ = writeln!(
        s,
        "{:<34} {:>6} {:>8} {:<9} {:>14} {:>10} {:>14} {:>14}",
        "metric", "host", "qpn", "kind", "value/count", "min", "mean", "max"
    );
    for (name, labels, inst) in t.registry().iter() {
        let (value, min, mean, max) = match inst {
            Instrument::Counter(v) | Instrument::Gauge(v) => (*v, None, None, None),
            Instrument::Histogram(h) => (h.count(), Some(h.min()), Some(h.mean()), Some(h.max())),
        };
        let _ = writeln!(
            s,
            "{:<34} {:>6} {:>8} {:<9} {:>14} {:>10} {:>14} {:>14}",
            name,
            Opt(labels.host, "-"),
            Opt(labels.qpn, "-"),
            inst.kind(),
            value,
            Opt(min, ""),
            Opt(mean, ""),
            Opt(max, "")
        );
    }
    let closed = t.spans();
    let _ = writeln!(
        s,
        "fault spans: {} closed, {} open",
        closed.len(),
        t.open_span_count()
    );
    if !closed.is_empty() {
        let _ = writeln!(
            s,
            "{:<18} {:>14} {:>14} {:>14}",
            "stage", "mean_ns", "max_ns", "total_ns"
        );
        for (idx, stage) in STAGE_NAMES.iter().enumerate() {
            let durations: Vec<u64> = closed
                .iter()
                .filter_map(|sp| sp.stages().map(|st| st[idx].1.as_ns()))
                .collect();
            let total: u64 = durations.iter().sum();
            let max = durations.iter().copied().max().unwrap_or(0);
            let mean = total / durations.len().max(1) as u64;
            let _ = writeln!(s, "{stage:<18} {mean:>14} {max:>14} {total:>14}");
        }
        let e2e: Vec<u64> = closed
            .iter()
            .filter_map(|sp| sp.end_to_end().map(|d| d.as_ns()))
            .collect();
        let total: u64 = e2e.iter().sum();
        let max = e2e.iter().copied().max().unwrap_or(0);
        let mean = total / e2e.len().max(1) as u64;
        let _ = writeln!(
            s,
            "{:<18} {:>14} {:>14} {:>14}",
            "end_to_end", mean, max, total
        );
    }
    s
}

/// Exports the registry and closed spans as JSON-lines: one object per
/// line, metrics first (sorted), then spans (close order).
pub fn export_jsonl(t: &Telemetry) -> String {
    let mut s = String::new();
    for (name, labels, inst) in t.registry().iter() {
        let _ = write!(
            s,
            "{{\"type\":\"metric\",\"name\":\"{}\",\"host\":{},\"qpn\":{},\"kind\":\"{}\",",
            name,
            Opt(labels.host, "null"),
            Opt(labels.qpn, "null"),
            inst.kind()
        );
        match inst {
            Instrument::Counter(v) | Instrument::Gauge(v) => {
                let _ = writeln!(s, "\"value\":{v}}}");
            }
            Instrument::Histogram(h) => {
                let _ = write!(
                    s,
                    "\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"buckets\":[",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max(),
                    h.mean()
                );
                for (i, (floor, count)) in h.nonzero_buckets().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "[{floor},{count}]");
                }
                s.push_str("]}\n");
            }
        }
    }
    for sp in t.spans() {
        write_span_json(&mut s, sp);
    }
    s
}

/// Appends one span's JSON line to `s`.
fn write_span_json(s: &mut String, sp: &FaultSpan) {
    let stages = sp.stages();
    let stage_ns = |i: usize| Opt(stages.map(|st| st[i].1.as_ns()), "null");
    let _ = writeln!(
        s,
        "{{\"type\":\"span\",\"host\":{},\"mr\":{},\"page\":{},\"raised_ns\":{},\
         \"queue_wait_ns\":{},\"resolution_ns\":{},\"propagation_ns\":{},\
         \"retransmit_drain_ns\":{},\"end_to_end_ns\":{},\"waiters\":{},\"stale_qps\":{}}}",
        sp.host,
        sp.mr,
        sp.page,
        sp.raised.as_ns(),
        stage_ns(0),
        stage_ns(1),
        stage_ns(2),
        stage_ns(3),
        Opt(sp.end_to_end().map(|d| d.as_ns()), "null"),
        sp.waiters,
        sp.stale_qps,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Labels;
    use ibsim_event::SimTime;

    fn sample() -> Telemetry {
        let mut t = Telemetry::new();
        t.enable();
        t.counter_add("packets.total", Labels::host(0), 12);
        t.gauge_set("event.peak_depth", Labels::NONE, 5);
        t.observe("fault.drawn_latency_ns", Labels::host(0), 250_000);
        t.observe("fault.drawn_latency_ns", Labels::host(0), 900_000);
        t.fault_raised(0, 1, 0, SimTime::from_us(10));
        t.fault_service_begin(0, 1, 0, SimTime::from_us(20));
        t.fault_resolved(0, 1, 0, SimTime::from_us(500), &[3], 0);
        t.wr_completed(0, 3, None, SimTime::from_us(600));
        t
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(export_jsonl(&a), export_jsonl(&b));
        assert_eq!(render_summary(&a), render_summary(&b));
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let t = sample();
        let out = export_jsonl(&t);
        for line in out.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(out.contains("\"type\":\"span\""));
        assert!(out.contains("\"name\":\"packets.total\""));
        assert!(out.contains("\"kind\":\"histogram\""));
    }

    #[test]
    fn summary_reports_span_counts_and_stages() {
        let t = sample();
        let out = render_summary(&t);
        assert!(out.contains("fault spans: 1 closed, 0 open"), "{out}");
        assert!(out.contains("queue_wait"));
        assert!(out.contains("retransmit_drain"));
        assert!(out.contains("end_to_end"));
    }
}
