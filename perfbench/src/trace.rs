//! The traced mode's span recorder, and the order statistics every metric
//! is computed with.
//!
//! A span is opened and closed around one call into a layer's public
//! function. Spans nest: the innermost open span is the parent of the next
//! one opened. They stay in memory until the run ends, when
//! [`Tracer::write_tsv`] writes them out. Per-layer numbers are self
//! times: a span's duration minus the time its children cover.

use std::io::Write;
use std::time::Instant;

/// Parent index of a root span, and the id returned when tracing is off.
pub const NO_SPAN: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer function, e.g. `analysis` or `core.instantiate`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_SPAN`].
    pub parent: u32,
    /// Request (or sample) id shared by the spans of one operation.
    pub req: u64,
}

/// In-memory span recorder; records nothing when off.
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder, not yet recording.
    pub fn new() -> Tracer {
        Tracer {
            recording: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start or stop recording; spans already open still close.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Open a span; close it with [`Tracer::close`] on the id returned.
    pub fn open(&mut self, name: &'static str, req: u64) -> u32 {
        if !self.recording {
            return NO_SPAN;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_SPAN);
        let id = self.spans.len() as u32;
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let now = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// `(span, self time in ns)` for every recorded span.
    pub fn self_times(&self) -> Vec<(Span, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (*s, (s.end_ns - s.start_ns).saturating_sub(c)))
            .collect()
    }

    /// Sum, in ms, of the spans recorded since index `first` whose parent
    /// is named `root`: the stage times of those roots.
    pub fn stage_sum_ms(&self, first: usize, root: &str) -> f64 {
        let ns: u64 = self.spans[first..]
            .iter()
            .filter(|s| s.parent != NO_SPAN && self.spans[s.parent as usize].name == root)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the spans as tab-separated lines, header first.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Nearest-rank quantile of `values` (`q` in (0, 1]); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// Median (mean of the two middle values for an even count); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values; NaN when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
