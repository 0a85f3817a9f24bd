//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent span and request id.  Spans stay
//! in memory while the workload runs and are written out when it ends; a
//! layer's self time is its spans' durations minus the parts their child
//! spans cover.  A disabled tracer records nothing, so the untraced runs
//! that give the end-to-end numbers pay one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("span end without a begin");
        self.spans[index].end_ns = end_ns;
    }

    /// Records a finished span measured elsewhere, such as one request of
    /// a pipelined stream or a server-side phase the client only learns
    /// from the response.  Its parent is `parent`, or else the innermost
    /// open span.  Returns the new span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent.or_else(|| self.open.last().copied()),
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Count, inclusive time and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let layer = layers.entry(span.name).or_default();
            layer.count += 1;
            layer.total_ns += total;
            layer.self_ns += total.saturating_sub(children);
        }
        layers
    }

    /// Appends this tracer's spans to `path` as one JSON object per line.
    /// `thread` tells apart spans of tracers that ran on different threads.
    pub fn write(&self, path: &Path, thread: usize) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.request, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Sums per-layer totals of several tracers.
pub fn merge_layers(tracers: &[&Tracer]) -> BTreeMap<&'static str, LayerTime> {
    let mut merged: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for tracer in tracers {
        for (name, layer) in tracer.layers() {
            let into = merged.entry(name).or_default();
            into.count += layer.count;
            into.total_ns += layer.total_ns;
            into.self_ns += layer.self_ns;
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true, Instant::now());
        tracer.begin("outer", 1);
        tracer.record("inner", 1, 0, 0, None);
        tracer.end();
        // Rewrite the clock so the test does not depend on timing.
        tracer.spans[0].start_ns = 100;
        tracer.spans[0].end_ns = 1100;
        tracer.spans[1].start_ns = 200;
        tracer.spans[1].end_ns = 500;
        let layers = tracer.layers();
        assert_eq!(layers["outer"].total_ns, 1000);
        assert_eq!(layers["outer"].self_ns, 700);
        assert_eq!(layers["inner"].self_ns, 300);
        assert_eq!(tracer.spans[1].parent, Some(0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now());
        tracer.begin("outer", 1);
        tracer.end();
        assert!(tracer.layers().is_empty());
    }
}
