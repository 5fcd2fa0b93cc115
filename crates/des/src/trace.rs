//! Span traces for post-run analysis.
//!
//! Executors record labelled time spans (`forward pass of minibatch 7 on
//! stage 2`, `push of wave 3`, …). The trace then answers the questions
//! the paper's evaluation asks: per-GPU utilization over a window
//! (Figure 3), waiting time vs true idle time during synchronization
//! (Section 8.4), and per-minibatch latency distributions.

use crate::resource::ResourceId;
use crate::time::SimTime;
use std::io::{self, Write};
use std::path::Path;

/// A labelled interval on a resource's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span<T> {
    /// The resource the span occupied.
    pub resource: ResourceId,
    /// Start instant.
    pub start: SimTime,
    /// End instant (`end >= start`).
    pub end: SimTime,
    /// Client-defined label (e.g. an enum of Forward/Backward/Push/Pull).
    pub tag: T,
}

impl<T> Span<T> {
    /// The span's duration.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// An append-only collection of spans.
#[derive(Debug, Clone)]
pub struct Trace<T> {
    spans: Vec<Span<T>>,
}

impl<T> Default for Trace<T> {
    fn default() -> Self {
        Trace { spans: Vec::new() }
    }
}

impl<T> Trace<T> {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a span.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `end < start`.
    pub fn record(&mut self, resource: ResourceId, start: SimTime, end: SimTime, tag: T) {
        debug_assert!(end >= start, "span must not be inverted");
        self.spans.push(Span {
            resource,
            start,
            end,
            tag,
        });
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span<T>] {
        &self.spans
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total busy time of `resource` within the window `[from, to)`,
    /// clipping spans that straddle the window edges.
    ///
    /// Scans the whole trace; callers issuing many windowed queries
    /// (per stage, per GPU, per wait window) should build a
    /// [`TraceIndex`] once and query that instead.
    pub fn busy_within(&self, resource: ResourceId, from: SimTime, to: SimTime) -> SimTime {
        let mut acc = SimTime::ZERO;
        for s in &self.spans {
            if s.resource != resource {
                continue;
            }
            let lo = s.start.max(from);
            let hi = s.end.min(to);
            if hi > lo {
                acc += hi - lo;
            }
        }
        acc
    }

    /// Builds a per-resource span index over the current trace
    /// contents, for repeated windowed occupancy queries without
    /// rescanning the full trace per call.
    pub fn index(&self) -> TraceIndex {
        // A counting pass sizes each resource's list exactly.
        let mut counts: Vec<usize> = Vec::new();
        for s in &self.spans {
            let r = s.resource.0;
            if r >= counts.len() {
                counts.resize(r + 1, 0);
            }
            counts[r] += 1;
        }
        let mut per_resource: Vec<IndexedSpans> = counts
            .iter()
            .map(|&n| IndexedSpans {
                spans: Vec::with_capacity(n),
                cummax_end: Vec::new(),
            })
            .collect();
        for s in &self.spans {
            per_resource[s.resource.0].spans.push((s.start, s.end));
        }
        for idx in &mut per_resource {
            // Executors record each resource's FIFO timeline in start
            // order already; sort defensively so the binary searches
            // below never depend on that.
            if !idx.spans.is_sorted() {
                idx.spans.sort();
            }
            let mut cummax = SimTime::ZERO;
            idx.cummax_end = idx
                .spans
                .iter()
                .map(|&(_, end)| {
                    cummax = cummax.max(end);
                    cummax
                })
                .collect();
        }
        TraceIndex { per_resource }
    }

    /// Utilization of `resource` within `[from, to)`.
    ///
    /// Returns 0 for an empty window.
    pub fn utilization_within(&self, resource: ResourceId, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        self.busy_within(resource, from, to).as_secs() / (to - from).as_secs()
    }

    /// Sums the durations of all spans whose tag satisfies `pred`.
    pub fn total_where(&self, mut pred: impl FnMut(&T) -> bool) -> SimTime {
        let mut acc = SimTime::ZERO;
        for s in &self.spans {
            if pred(&s.tag) {
                acc += s.duration();
            }
        }
        acc
    }

    /// Counts spans whose tag satisfies `pred`.
    pub fn count_where(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        self.spans.iter().filter(|s| pred(&s.tag)).count()
    }

    /// Writes the trace in the `chrome://tracing` / Perfetto JSON
    /// event format: one complete (`"ph": "X"`) event per span, one
    /// track (`tid`) per resource, with thread-name metadata naming
    /// each track after its resource.
    ///
    /// `track_names` maps a [`ResourceId`] to a track label (e.g.
    /// `"gpu3"`, `"nic0"`); `name_of` and `category_of` render a
    /// span's tag into the event name and category. Timestamps are
    /// emitted in microseconds (the format's unit) with sub-µs
    /// precision preserved as fractions.
    ///
    /// The serialization issues one small `write!` per event, so the
    /// writer is buffered internally ([`io::BufWriter`]) — callers can
    /// hand over a raw `File` without paying a syscall per span.
    pub fn write_chrome_trace<W: Write>(
        &self,
        out: W,
        track_names: impl Fn(ResourceId) -> String,
        name_of: impl Fn(&T) -> String,
        category_of: impl Fn(&T) -> &'static str,
    ) -> io::Result<()> {
        self.write_chrome_trace_with_instants(out, track_names, name_of, category_of, &[])
    }

    /// [`Trace::write_chrome_trace`] plus process-scoped *instant*
    /// events (`"ph": "i"`, global scope): point-in-time markers such
    /// as fault-injection edges or plan-splice epochs, so perturbed
    /// traces stay visually debuggable — each marker renders as a
    /// vertical line across every track in `chrome://tracing` /
    /// Perfetto. Each instant is `(time, name, category)`.
    pub fn write_chrome_trace_with_instants<W: Write>(
        &self,
        out: W,
        track_names: impl Fn(ResourceId) -> String,
        name_of: impl Fn(&T) -> String,
        category_of: impl Fn(&T) -> &'static str,
        instants: &[(SimTime, String, &'static str)],
    ) -> io::Result<()> {
        let mut out = io::BufWriter::new(out);
        let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        writeln!(out, "[")?;
        // Track metadata, one per resource seen in the trace.
        let mut seen: Vec<ResourceId> = self.spans.iter().map(|s| s.resource).collect();
        seen.sort();
        seen.dedup();
        let mut first = true;
        for rid in &seen {
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            write!(
                out,
                "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                rid.0,
                escape(&track_names(*rid))
            )?;
        }
        for s in &self.spans {
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            let ts = s.start.as_nanos() as f64 / 1e3;
            let dur = (s.end - s.start).as_nanos() as f64 / 1e3;
            write!(
                out,
                "  {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                 \"ts\":{ts},\"dur\":{dur}}}",
                escape(&name_of(&s.tag)),
                category_of(&s.tag),
                s.resource.0
            )?;
        }
        for (at, name, cat) in instants {
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            let ts = at.as_nanos() as f64 / 1e3;
            write!(
                out,
                "  {{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"g\",\
                 \"pid\":0,\"tid\":0,\"ts\":{ts}}}",
                escape(name),
            )?;
        }
        writeln!(out, "\n]")?;
        out.flush()
    }

    /// [`Trace::write_chrome_trace`] straight to a file path.
    pub fn write_chrome_trace_file(
        &self,
        path: impl AsRef<Path>,
        track_names: impl Fn(ResourceId) -> String,
        name_of: impl Fn(&T) -> String,
        category_of: impl Fn(&T) -> &'static str,
    ) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.write_chrome_trace(file, track_names, name_of, category_of)
    }
}

/// The peak running sum of `(instant, delta)` occupancy events (e.g.
/// +1 when a forward pass completes and its activations materialize,
/// −1 when the matching backward completes and releases them).
/// Same-instant events apply releases-first (ascending `delta`), so a
/// handoff at an instant does not count as overlap. This is the single
/// definition of a "measured peak": every trace aggregation (e.g. the
/// occupancy audit's per-stage and per-GPU keying) folds its events
/// through it, so measured values can never drift apart.
pub fn peak_of_events(events: &mut [(SimTime, i64)]) -> i64 {
    // Unstable sort: equal `(instant, delta)` tuples are
    // interchangeable under the running sum, and skipping the stable
    // merge buffer matters at trace scale (two entries per span).
    events.sort_unstable();
    let mut live = 0i64;
    let mut peak = 0i64;
    for &(_, delta) in events.iter() {
        live += delta;
        peak = peak.max(live);
    }
    peak
}

/// A per-resource span index over a [`Trace`], answering windowed
/// busy-time / utilization queries in `O(log s + hits)` over that
/// resource's own spans instead of a full-trace scan per call — the
/// post-run reports ask one such query per (device × wait window) and
/// per (device × measurement window).
///
/// A snapshot: spans recorded after [`Trace::index`] are not visible
/// to the index.
#[derive(Debug, Clone)]
pub struct TraceIndex {
    /// Indexed by [`ResourceId`]`.0`; resources past the end, or with
    /// an empty list, recorded no span.
    per_resource: Vec<IndexedSpans>,
}

/// One resource's spans sorted by start, with the running maximum of
/// span ends alongside — `cummax_end` is nondecreasing, so "the first
/// span that can overlap a window starting at `from`" is a binary
/// search even when spans overlap each other.
#[derive(Debug, Clone)]
struct IndexedSpans {
    /// `(start, end)` pairs sorted by start.
    spans: Vec<(SimTime, SimTime)>,
    /// `cummax_end[i]` = max end over `spans[..=i]`.
    cummax_end: Vec<SimTime>,
}

impl TraceIndex {
    /// Total busy time of `resource` within `[from, to)`, clipping
    /// spans that straddle the window edges. Identical semantics to
    /// [`Trace::busy_within`].
    pub fn busy_within(&self, resource: ResourceId, from: SimTime, to: SimTime) -> SimTime {
        let Some(idx) = self.per_resource.get(resource.0) else {
            return SimTime::ZERO;
        };
        // Every span before `first` ends at or before `from` (the
        // running max of ends is ≤ from there), so none can overlap;
        // past `first`, stop at the first span starting at/after `to`.
        let first = idx.cummax_end.partition_point(|&end| end <= from);
        let mut acc = SimTime::ZERO;
        for &(start, end) in &idx.spans[first..] {
            if start >= to {
                break;
            }
            let lo = start.max(from);
            let hi = end.min(to);
            if hi > lo {
                acc += hi - lo;
            }
        }
        acc
    }

    /// Utilization of `resource` within `[from, to)`; 0 for an empty
    /// window. Identical semantics to [`Trace::utilization_within`].
    pub fn utilization_within(&self, resource: ResourceId, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        self.busy_within(resource, from, to).as_secs() / (to - from).as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Tag {
        Fwd,
        Bwd,
    }

    #[test]
    fn busy_time_clips_to_window() {
        let mut tr = Trace::new();
        let r = ResourceId(0);
        tr.record(r, SimTime::from_nanos(0), SimTime::from_nanos(10), Tag::Fwd);
        tr.record(
            r,
            SimTime::from_nanos(20),
            SimTime::from_nanos(30),
            Tag::Bwd,
        );
        // Window [5, 25) clips both spans to 5ns each.
        let busy = tr.busy_within(r, SimTime::from_nanos(5), SimTime::from_nanos(25));
        assert_eq!(busy, SimTime::from_nanos(10));
    }

    #[test]
    fn utilization_within_window() {
        let mut tr = Trace::new();
        let r = ResourceId(1);
        tr.record(r, SimTime::from_nanos(0), SimTime::from_nanos(50), Tag::Fwd);
        let u = tr.utilization_within(r, SimTime::ZERO, SimTime::from_nanos(100));
        assert!((u - 0.5).abs() < 1e-12);
        assert_eq!(tr.utilization_within(r, SimTime::ZERO, SimTime::ZERO), 0.0);
    }

    #[test]
    fn other_resources_ignored() {
        let mut tr = Trace::new();
        tr.record(
            ResourceId(0),
            SimTime::ZERO,
            SimTime::from_nanos(10),
            Tag::Fwd,
        );
        let busy = tr.busy_within(ResourceId(1), SimTime::ZERO, SimTime::from_nanos(10));
        assert_eq!(busy, SimTime::ZERO);
    }

    #[test]
    fn chrome_trace_format() {
        let mut tr = Trace::new();
        tr.record(
            ResourceId(0),
            SimTime::from_micros(1),
            SimTime::from_micros(3),
            Tag::Fwd,
        );
        tr.record(
            ResourceId(2),
            SimTime::from_micros(2),
            SimTime::from_micros(6),
            Tag::Bwd,
        );
        let mut buf = Vec::new();
        tr.write_chrome_trace(
            &mut buf,
            |r| format!("res{}", r.0),
            |t| format!("{t:?}"),
            |t| match t {
                Tag::Fwd => "forward",
                Tag::Bwd => "backward",
            },
        )
        .unwrap();
        let s = String::from_utf8(buf).unwrap();
        // Valid JSON array shape with metadata and complete events.
        assert!(s.trim_start().starts_with('['));
        assert!(s.trim_end().ends_with(']'));
        assert!(s.contains("\"thread_name\""));
        assert!(s.contains("\"name\":\"res0\""));
        assert!(s.contains("\"name\":\"res2\""));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"cat\":\"forward\""));
        assert!(s.contains("\"ts\":1") && s.contains("\"dur\":2"));
        assert!(s.contains("\"tid\":2") && s.contains("\"dur\":4"));
        // One metadata event per distinct resource + one per span.
        assert_eq!(s.matches("\"ph\":\"M\"").count(), 2);
        assert_eq!(s.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn chrome_trace_instant_events() {
        let mut tr = Trace::new();
        tr.record(
            ResourceId(0),
            SimTime::from_micros(1),
            SimTime::from_micros(3),
            Tag::Fwd,
        );
        let mut buf = Vec::new();
        tr.write_chrome_trace_with_instants(
            &mut buf,
            |r| format!("res{}", r.0),
            |t| format!("{t:?}"),
            |_| "forward",
            &[
                (SimTime::from_micros(2), "fault: gpu1 x1.3".into(), "fault"),
                (SimTime::from_micros(5), "splice: epoch 1".into(), "epoch"),
            ],
        )
        .unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.trim_start().starts_with('[') && s.trim_end().ends_with(']'));
        assert_eq!(s.matches("\"ph\":\"i\"").count(), 2);
        assert!(s.contains("\"name\":\"fault: gpu1 x1.3\"") && s.contains("\"ts\":2"));
        assert!(s.contains("\"cat\":\"epoch\"") && s.contains("\"ts\":5"));
    }

    /// Asserts that `idx` answers every `[from, to)` window over
    /// `instants` on each of `resources` bit for bit like the scans.
    fn assert_index_matches(
        tr: &Trace<Tag>,
        idx: &TraceIndex,
        resources: &[ResourceId],
        instants: &[u64],
    ) {
        for &r in resources {
            for &from in instants {
                for &to in instants {
                    let (from, to) = (SimTime::from_nanos(from), SimTime::from_nanos(to));
                    assert_eq!(
                        idx.busy_within(r, from, to),
                        tr.busy_within(r, from, to),
                        "res {r:?} window {from}..{to}"
                    );
                    assert_eq!(
                        idx.utilization_within(r, from, to).to_bits(),
                        tr.utilization_within(r, from, to).to_bits(),
                        "res {r:?} window {from}..{to}"
                    );
                }
            }
        }
    }

    #[test]
    fn index_matches_full_scan_queries() {
        // Overlapping spans, out-of-order recording, multiple
        // resources: the index must answer exactly like the scans.
        let mut tr = Trace::new();
        let (a, b) = (ResourceId(0), ResourceId(7));
        tr.record(
            a,
            SimTime::from_nanos(20),
            SimTime::from_nanos(90),
            Tag::Fwd,
        );
        tr.record(a, SimTime::from_nanos(0), SimTime::from_nanos(10), Tag::Fwd);
        tr.record(a, SimTime::from_nanos(5), SimTime::from_nanos(8), Tag::Bwd);
        tr.record(
            b,
            SimTime::from_nanos(40),
            SimTime::from_nanos(60),
            Tag::Bwd,
        );
        assert_index_matches(
            &tr,
            &tr.index(),
            &[a, b, ResourceId(3)],
            &[0, 5, 7, 8, 9, 25, 30, 60, 95, 100],
        );
    }

    #[test]
    fn index_matches_full_scan_queries_on_random_traces() {
        // A seeded batch of traces over sparse resource ids: resources
        // between and past them record nothing, spans overlap, arrive
        // out of order (or, in every other trace, sorted by start, as
        // a FIFO executor records them) and may have zero length.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let ids = [0, 7, 300];
        let queried: Vec<ResourceId> = [0, 1, 7, 8, 299, 300, 301, 1000]
            .into_iter()
            .map(ResourceId)
            .collect();
        for case in 0..64 {
            let mut spans: Vec<(usize, u64, u64)> = (0..next(24))
                .map(|_| {
                    let start = next(200);
                    let len = if next(4) == 0 { 0 } else { next(60) };
                    (ids[next(3) as usize], start, start + len)
                })
                .collect();
            if case % 2 == 1 {
                spans.sort_by_key(|&(_, start, _)| start);
            }
            let mut tr = Trace::new();
            for &(r, start, end) in &spans {
                let (start, end) = (SimTime::from_nanos(start), SimTime::from_nanos(end));
                tr.record(ResourceId(r), start, end, Tag::Fwd);
            }
            // Every span edge, the extremes and a few seeded instants
            // (inside spans or between them).
            let mut instants: Vec<u64> = vec![0, 1, 259, 300];
            for &(_, start, end) in &spans {
                instants.extend([start, end]);
            }
            instants.extend((0..6).map(|_| next(270)));
            instants.sort_unstable();
            instants.dedup();
            assert_index_matches(&tr, &tr.index(), &queried, &instants);
        }
    }

    #[test]
    fn peak_of_events_counts_overlap_and_handoffs() {
        let t = SimTime::from_nanos;
        // Three holders, +1 at start and −1 at end: [0, 10), [5, 15)
        // and a handoff [15, 20) starting exactly when the second
        // ends. Recorded out of order.
        let mut events = vec![
            (t(15), 1),
            (t(20), -1),
            (t(0), 1),
            (t(10), -1),
            (t(15), -1),
            (t(5), 1),
        ];
        // The first two overlap (peak 2); the handoff does not add.
        assert_eq!(peak_of_events(&mut events), 2);
        assert_eq!(peak_of_events(&mut []), 0);
    }

    #[test]
    fn tag_queries() {
        let mut tr = Trace::new();
        let r = ResourceId(0);
        tr.record(r, SimTime::from_nanos(0), SimTime::from_nanos(10), Tag::Fwd);
        tr.record(
            r,
            SimTime::from_nanos(10),
            SimTime::from_nanos(25),
            Tag::Bwd,
        );
        tr.record(
            r,
            SimTime::from_nanos(25),
            SimTime::from_nanos(30),
            Tag::Fwd,
        );
        assert_eq!(tr.total_where(|t| *t == Tag::Fwd), SimTime::from_nanos(15));
        assert_eq!(tr.count_where(|t| *t == Tag::Bwd), 1);
        assert_eq!(tr.len(), 3);
    }
}
