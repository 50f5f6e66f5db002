//! JSONL and human-readable exporters for [`TelemetrySnapshot`]s.
//!
//! The JSONL format is line-oriented: one self-describing object per
//! line, each carrying a `"type"` tag. A run emitted by the harness
//! looks like:
//!
//! ```json
//! {"type":"run","bench":"gemm","engine":"wavm","strategy":"mprotect","outcome":"completed"}
//! {"type":"counter","name":"mem.mmap","value":12}
//! {"type":"histogram","name":"trap.latency_ns","count":3,"sum":5200,"mean":1733.3,"p50":2048,"p99":4096,"buckets":[[2048,2],[4096,1]]}
//! {"type":"span","name":"jit.compile","arg":3,"start_ns":123456,"dur_ns":8900,"thread":0}
//! {"type":"end","dropped_events":0}
//! ```
//!
//! Histogram `buckets` pairs are `[exclusive upper bound, count]` for
//! each non-empty power-of-two bucket. Every line is valid JSON
//! parsable by [`crate::json::parse`].

use crate::histogram::{bucket_bound, HistogramSnapshot};
use crate::json::{write_key, write_str};
use crate::snapshot::TelemetrySnapshot;
use crate::Sink;
use std::fmt::Write as _;
use std::io::Write as _;

/// Append one `{"type":"run",...}` header line for `meta` key/value
/// pairs, then counter/histogram/span lines, then an `end` line.
pub fn write_jsonl(out: &mut String, meta: &[(&str, String)], snap: &TelemetrySnapshot) {
    out.push_str("{\"type\":\"run\"");
    for (k, v) in meta {
        out.push(',');
        write_key(out, k);
        // Numeric-looking meta values are emitted as numbers.
        if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) {
            out.push_str(v);
        } else {
            write_str(out, v);
        }
    }
    out.push_str("}\n");

    for c in &snap.counters {
        if c.value == 0 {
            continue;
        }
        out.push_str("{\"type\":\"counter\",\"name\":");
        write_str(out, c.name);
        let _ = writeln!(out, ",\"value\":{}}}", c.value);
    }
    for h in &snap.histograms {
        if h.count == 0 {
            continue;
        }
        write_histogram_line(out, h);
    }
    for s in &snap.spans {
        out.push_str(match s.kind {
            crate::EventKind::Span => "{\"type\":\"span\",\"name\":",
            crate::EventKind::Instant => "{\"type\":\"instant\",\"name\":",
        });
        write_str(out, s.name);
        let _ = writeln!(
            out,
            ",\"arg\":{},\"start_ns\":{},\"dur_ns\":{},\"thread\":{}}}",
            s.arg, s.start_ns, s.dur_ns, s.thread
        );
    }
    let _ = writeln!(
        out,
        "{{\"type\":\"end\",\"dropped_events\":{}}}",
        snap.dropped_events
    );
}

fn write_histogram_line(out: &mut String, h: &HistogramSnapshot) {
    out.push_str("{\"type\":\"histogram\",\"name\":");
    write_str(out, h.name);
    let _ = write!(
        out,
        ",\"count\":{},\"sum\":{},\"mean\":{:.1},\"p50\":{},\"p99\":{},\"buckets\":[",
        h.count,
        h.sum,
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.99)
    );
    let mut first = true;
    for (b, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "[{},{}]", bucket_bound(b), c);
    }
    out.push_str("]}\n");
}

/// Render a human-readable summary (counters sorted by name, histogram
/// percentiles, span aggregates).
pub fn write_human(out: &mut String, meta: &[(&str, String)], snap: &TelemetrySnapshot) {
    out.push_str("== telemetry");
    for (k, v) in meta {
        let _ = write!(out, " {k}={v}");
    }
    out.push('\n');

    let mut counters: Vec<_> = snap.counters.iter().filter(|c| c.value != 0).collect();
    counters.sort_by_key(|c| c.name);
    for c in counters {
        let _ = writeln!(out, "  counter    {:<28} {}", c.name, c.value);
    }
    for h in snap.histograms.iter().filter(|h| h.count != 0) {
        let _ = writeln!(
            out,
            "  histogram  {:<28} n={} mean={:.0} p50<{} p99<{}",
            h.name,
            h.count,
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99)
        );
    }
    // Aggregate spans by name: count and total duration.
    let mut agg: Vec<(&str, u64, u64)> = Vec::new();
    for s in &snap.spans {
        match agg.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += s.dur_ns;
            }
            None => agg.push((s.name, 1, s.dur_ns)),
        }
    }
    agg.sort_by_key(|(n, _, _)| *n);
    for (name, n, total) in agg {
        let _ = writeln!(out, "  span       {:<28} n={} total={}ns", name, n, total);
    }
    if snap.dropped_events != 0 {
        let _ = writeln!(out, "  dropped_events {}", snap.dropped_events);
    }
}

/// Emit `snap` to the sink configured via `LB_TELEMETRY` (no-op when
/// none). The harness calls this once per completed run.
pub fn emit_run(meta: &[(&str, String)], snap: &TelemetrySnapshot) {
    let Some(sink) = crate::sink() else { return };
    match sink {
        Sink::Jsonl(path) => {
            let mut buf = String::new();
            write_jsonl(&mut buf, meta, snap);
            append_file(path, &buf);
        }
        Sink::Human(path) => {
            let mut buf = String::new();
            write_human(&mut buf, meta, snap);
            match path {
                Some(p) => append_file(p, &buf),
                None => {
                    let _ = std::io::stderr().write_all(buf.as_bytes());
                }
            }
        }
    }
}

fn append_file(path: &str, data: &str) {
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = f.write_all(data.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterValue;
    use crate::histogram::{bucket_index, HistogramSnapshot, BUCKETS};
    use crate::json;
    use crate::ring::EventKind;
    use crate::span::SpanRecord;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut buckets = [0u64; BUCKETS];
        buckets[bucket_index(1500)] = 2;
        buckets[bucket_index(3000)] = 1;
        TelemetrySnapshot {
            counters: vec![
                CounterValue {
                    name: "mem.mmap",
                    value: 12,
                },
                CounterValue {
                    name: "mem.zero",
                    value: 0,
                },
            ],
            histograms: vec![HistogramSnapshot {
                name: "trap.latency_ns",
                count: 3,
                sum: 6000,
                buckets,
            }],
            spans: vec![SpanRecord {
                name: "jit.compile",
                kind: EventKind::Span,
                arg: 3,
                start_ns: 1000,
                dur_ns: 250,
                thread: 0,
            }],
            dropped_events: 0,
        }
    }

    #[test]
    fn jsonl_exact_shape() {
        let mut out = String::new();
        write_jsonl(
            &mut out,
            &[("bench", "gemm".to_string()), ("threads", "2".to_string())],
            &sample_snapshot(),
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], r#"{"type":"run","bench":"gemm","threads":2}"#);
        assert_eq!(
            lines[1],
            r#"{"type":"counter","name":"mem.mmap","value":12}"#
        );
        assert_eq!(
            lines[2],
            r#"{"type":"histogram","name":"trap.latency_ns","count":3,"sum":6000,"mean":2000.0,"p50":2048,"p99":4096,"buckets":[[2048,2],[4096,1]]}"#
        );
        assert_eq!(
            lines[3],
            r#"{"type":"span","name":"jit.compile","arg":3,"start_ns":1000,"dur_ns":250,"thread":0}"#
        );
        assert_eq!(lines[4], r#"{"type":"end","dropped_events":0}"#);
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn jsonl_lines_are_round_trippable() {
        let mut out = String::new();
        write_jsonl(
            &mut out,
            &[("bench", "atax".to_string())],
            &sample_snapshot(),
        );
        let mut types = Vec::new();
        for line in out.lines() {
            let v = json::parse(line).unwrap_or_else(|e| panic!("line '{line}': {e}"));
            types.push(v.get("type").unwrap().as_str().unwrap().to_string());
            if v.get("type").unwrap().as_str() == Some("counter") {
                assert_eq!(v.get("value").unwrap().as_u64(), Some(12));
            }
            if v.get("type").unwrap().as_str() == Some("histogram") {
                let buckets = v.get("buckets").unwrap().as_arr().unwrap();
                assert_eq!(buckets.len(), 2);
                assert_eq!(buckets[0].as_arr().unwrap()[1].as_u64(), Some(2));
            }
        }
        assert_eq!(types, ["run", "counter", "histogram", "span", "end"]);
    }

    #[test]
    fn jsonl_meta_values_are_escaped() {
        let mut out = String::new();
        write_jsonl(
            &mut out,
            &[("error", "he said \"no\"\n".to_string())],
            &TelemetrySnapshot::default(),
        );
        let run = out.lines().next().unwrap();
        assert_eq!(run, r#"{"type":"run","error":"he said \"no\"\n"}"#);
        let v = json::parse(run).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("he said \"no\"\n"));
    }

    #[test]
    fn human_output_mentions_everything() {
        let mut out = String::new();
        write_human(
            &mut out,
            &[("bench", "gemm".to_string())],
            &sample_snapshot(),
        );
        assert!(out.contains("bench=gemm"));
        assert!(out.contains("mem.mmap"));
        assert!(!out.contains("mem.zero"), "zero counters are pruned");
        assert!(out.contains("trap.latency_ns"));
        assert!(out.contains("jit.compile"));
    }
}
