//! In-memory span recorder wrapped around calls into the system's
//! layers.
//!
//! The benchmark records spans from the outside: every call it makes
//! into a layer's public API (a plan, a solve, a simulation, a report,
//! an audit, a certificate, a runtime run) goes through
//! [`Tracer::span`]. With tracing off the call runs bare. With tracing
//! on, the tracer keeps the span's name, label, start, end, parent
//! span and operation id in memory; [`Tracer::write`] writes them out
//! once, when the benchmark ends.

use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `exec.run` or `system.build`.
    pub name: &'static str,
    /// What the call worked on (a config, a schedule label, a size).
    pub label: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark operation the span belongs to (`None` in set-up).
    pub op: Option<u64>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. Disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    /// Whether spans are being recorded right now.
    pub on: bool,
    /// Operation id stamped on new spans.
    pub op: Option<u64>,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that starts enabled or disabled.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            op: None,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f`, recording it as span `name` / `label` when tracing is
    /// on. Spans opened inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            label: label.to_string(),
            parent: self.open.last().copied(),
            op: self.op,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[idx];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Every recorded span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of the spans named `name`, optionally only
    /// those with label `label`.
    pub fn secs_of(&self, name: &str, label: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && label.is_none_or(|l| s.label == l))
            .map(Span::secs)
            .collect()
    }

    /// Writes the spans as JSON lines, one span per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"op\":{},\"name\":\"{}\",\"label\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.op.map_or("null".into(), |o| o.to_string()),
                s.name,
                s.label.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_ns,
                s.end_ns,
            )?;
        }
        out.flush()
    }
}
