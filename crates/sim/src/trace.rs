//! Timeline tracing: labelled spans per actor lane.
//!
//! The paper communicates its core result through control-flow timelines
//! (Fig. 3) and a latency decomposition (Fig. 8). A trace holds closed
//! spans ("Kernel Launch", "Put", "Wait") on named lanes ("CPU", "GPU",
//! "NIC"), recorded after the fact from a run's activity log
//! (`gtn_core::timeline::decompose_pingpong`); the harness extracts
//! per-phase durations and renders an ASCII Gantt chart directly
//! comparable to the figures.

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A closed interval of activity on one lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Lane name, e.g. `"initiator.GPU"`.
    pub lane: String,
    /// Phase label, e.g. `"Kernel Launch"`.
    pub label: String,
    /// Start instant.
    pub start: SimTime,
    /// End instant (`>= start`).
    pub end: SimTime,
}

impl Span {
    /// Span length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// An append-only trace of closed spans and instantaneous marks.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    /// Instantaneous labelled points (e.g. "doorbell rung").
    marks: Vec<(String, String, SimTime)>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Record a complete span in one call.
    pub fn span(&mut self, lane: &str, label: &str, start: SimTime, end: SimTime) {
        debug_assert!(end >= start);
        self.spans.push(Span {
            lane: lane.to_owned(),
            label: label.to_owned(),
            start,
            end,
        });
    }

    /// Record an instantaneous mark.
    pub fn mark(&mut self, lane: &str, label: &str, at: SimTime) {
        self.marks.push((lane.to_owned(), label.to_owned(), at));
    }

    /// All closed spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All marks, in recording order.
    pub fn marks(&self) -> &[(String, String, SimTime)] {
        &self.marks
    }

    /// Total duration attributed to `label` on `lane`.
    pub fn total(&self, lane: &str, label: &str) -> SimDuration {
        self.spans
            .iter()
            .filter(|s| s.lane == lane && s.label == label)
            .map(Span::duration)
            .sum()
    }

    /// First span matching `(lane, label)`, if any.
    pub fn find(&self, lane: &str, label: &str) -> Option<&Span> {
        self.spans
            .iter()
            .find(|s| s.lane == lane && s.label == label)
    }

    /// Latest end time across all spans and marks (the trace horizon).
    pub fn horizon(&self) -> SimTime {
        let span_max = self.spans.iter().map(|s| s.end).max();
        let mark_max = self.marks.iter().map(|m| m.2).max();
        span_max
            .into_iter()
            .chain(mark_max)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Render an ASCII Gantt chart `width` characters wide, lanes sorted by
    /// name, directly comparable to the paper's Fig. 3 / Fig. 8 layout.
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.max(20);
        let horizon = self.horizon();
        if horizon == SimTime::ZERO {
            return String::from("(empty trace)\n");
        }
        let scale = width as f64 / horizon.as_ps() as f64;
        let col = |t: SimTime| ((t.as_ps() as f64 * scale) as usize).min(width);

        let mut lanes: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            lanes.entry(&s.lane).or_default().push(s);
        }
        let name_w = lanes.keys().map(|k| k.len()).max().unwrap_or(4).max(4);

        let mut out = String::new();
        for (lane, mut spans) in lanes {
            spans.sort_by_key(|s| (s.start, s.end));
            let mut row = vec![b' '; width + 1];
            for s in &spans {
                let (a, b) = (col(s.start), col(s.end));
                let fill = initial(&s.label);
                if b > a {
                    for c in &mut row[a..b] {
                        *c = fill;
                    }
                    row[a] = b'|';
                } else {
                    row[a.min(width)] = b'|';
                }
            }
            let _ = writeln!(
                out,
                "{lane:<name_w$} [{}]",
                String::from_utf8_lossy(&row[..width])
            );
            // Legend line: phases in time order.
            let mut legend = String::new();
            for s in &spans {
                let _ = write!(
                    legend,
                    "  {}={} @{:.2}us +{:.2}us",
                    initial(&s.label) as char,
                    s.label,
                    s.start.as_us_f64(),
                    s.duration().as_us_f64()
                );
            }
            if !legend.is_empty() {
                let _ = writeln!(out, "{:name_w$} {}", "", legend.trim_start());
            }
        }
        let _ = writeln!(
            out,
            "{:name_w$} 0{:>w$}",
            "",
            format!("{:.2}us", horizon.as_us_f64()),
            w = width
        );
        out
    }

    /// Export the trace in the Chrome trace-event JSON *array* format, as
    /// loaded by `chrome://tracing` / Perfetto. Lanes become named threads
    /// of process 0 (one `thread_name` metadata event per lane, sorted by
    /// lane name); spans become complete (`"ph":"X"`) events; marks become
    /// instant (`"ph":"i"`) events. Timestamps are microseconds with
    /// picosecond precision, rendered from integers so the output is
    /// byte-identical across runs.
    pub fn to_chrome_json(&self) -> String {
        // Deterministic lane -> tid mapping.
        let mut lanes: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.spans {
            let next = lanes.len();
            lanes.entry(&s.lane).or_insert(next);
        }
        for m in &self.marks {
            let next = lanes.len();
            lanes.entry(&m.0).or_insert(next);
        }
        let mut out = String::from("[");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str("\n  ");
            out.push_str(&ev);
        };
        for (lane, tid) in &lanes {
            push(
                &mut out,
                format!(
                    r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{tid},"args":{{"name":{}}}}}"#,
                    json_string(lane)
                ),
            );
        }
        for s in &self.spans {
            let tid = lanes[s.lane.as_str()];
            push(
                &mut out,
                format!(
                    r#"{{"name":{},"cat":"span","ph":"X","pid":0,"tid":{tid},"ts":{},"dur":{}}}"#,
                    json_string(&s.label),
                    ps_as_us(s.start.as_ps()),
                    ps_as_us(s.duration().as_ps()),
                ),
            );
        }
        for (lane, label, at) in &self.marks {
            let tid = lanes[lane.as_str()];
            push(
                &mut out,
                format!(
                    r#"{{"name":{},"cat":"mark","ph":"i","s":"t","pid":0,"tid":{tid},"ts":{}}}"#,
                    json_string(label),
                    ps_as_us(at.as_ps()),
                ),
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Render a picosecond count as a JSON number in microseconds, exactly
/// (integer arithmetic; trailing zeros trimmed from the fraction).
fn ps_as_us(ps: u64) -> String {
    let whole = ps / 1_000_000;
    let frac = ps % 1_000_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let s = format!("{whole}.{frac:06}");
        s.trim_end_matches('0').to_owned()
    }
}

/// Minimal JSON string quoting (the control characters lane/label names
/// could plausibly contain, plus quotes and backslashes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// First alphanumeric character of a label, lowercased, as the bar fill.
fn initial(label: &str) -> u8 {
    label
        .bytes()
        .find(u8::is_ascii_alphanumeric)
        .map(|b| b.to_ascii_lowercase())
        .unwrap_or(b'#')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn spans_record_and_aggregate() {
        let mut tr = Trace::new();
        tr.span("GPU", "Kernel", t(0), t(100));
        tr.span("GPU", "Kernel", t(200), t(250));
        tr.span("CPU", "Send", t(100), t(130));
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.total("GPU", "Kernel"), SimDuration::from_ns(150));
        assert_eq!(tr.total("CPU", "Send"), SimDuration::from_ns(30));
        assert_eq!(tr.total("CPU", "Recv"), SimDuration::ZERO);
        assert_eq!(tr.find("CPU", "Send").unwrap().start, t(100));
        assert_eq!(tr.horizon(), t(250));
    }

    #[test]
    fn gantt_renders_all_lanes() {
        let mut tr = Trace::new();
        tr.span("init.CPU", "Launch", t(0), t(1500));
        tr.span("init.GPU", "Kernel", t(1500), t(2000));
        tr.span("init.NIC", "Put", t(1900), t(2600));
        let g = tr.render_gantt(60);
        assert!(g.contains("init.CPU"), "{g}");
        assert!(g.contains("init.GPU"), "{g}");
        assert!(g.contains("init.NIC"), "{g}");
        assert!(g.contains("l=Launch"), "{g}");
        assert!(g.contains("us"), "{g}");
    }

    #[test]
    fn gantt_of_empty_trace() {
        let tr = Trace::new();
        assert_eq!(tr.render_gantt(40), "(empty trace)\n");
    }

    #[test]
    fn chrome_json_has_lanes_spans_and_marks() {
        let mut tr = Trace::new();
        tr.span("CPU", "Post", t(0), t(150));
        tr.span("GPU", "Kernel", t(150), t(600));
        tr.mark("NIC", "doorbell", t(200));
        let json = tr.to_chrome_json();
        assert!(
            json.starts_with('[') && json.trim_end().ends_with(']'),
            "{json}"
        );
        for needle in [
            r#""name":"thread_name""#,
            r#""ph":"X""#,
            r#""ph":"i""#,
            r#""name":"Kernel""#,
            r#""args":{"name":"NIC"}"#,
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Determinism: two exports are byte-identical.
        assert_eq!(json, tr.to_chrome_json());
    }

    #[test]
    fn chrome_json_escapes_and_formats_times() {
        let mut tr = Trace::new();
        tr.span("la\"ne", "a\\b", t(1), t(2)); // 1 ns = 0.001 us
        let json = tr.to_chrome_json();
        assert!(json.contains(r#""name":"a\\b""#), "{json}");
        assert!(json.contains(r#"{"name":"la\"ne"}"#), "{json}");
        assert!(json.contains(r#""ts":0.001"#), "{json}");
        assert_eq!(super::ps_as_us(0), "0");
        assert_eq!(super::ps_as_us(1_000_000), "1");
        assert_eq!(super::ps_as_us(1_500_000), "1.5");
        assert_eq!(super::ps_as_us(123), "0.000123");
    }

    #[test]
    fn marks_and_horizon() {
        let mut tr = Trace::new();
        tr.mark("NIC", "trigger", t(777));
        assert_eq!(tr.horizon(), t(777));
        assert_eq!(tr.marks().len(), 1);
    }
}
