//! Host-side spans around the benchmark's calls into each layer, and the
//! per-layer self-time table derived from them.
//!
//! A span is named `<layer>.<call>`, where the layer is the crate whose
//! public function the benchmark called (`privacy.amplify`, `api.enc_keys`,
//! …), `generator` for the benchmark's own load-generation work, or `idle`
//! for a load-generator thread waiting for its next due time. Spans
//! live in memory, one [`Recorder`] per thread, and are written out when the
//! run ends. A disabled recorder records nothing, so the untraced run pays
//! only a branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Epoch index (producer spans) or pickup index (SAE spans) shared by
    /// every span of one request.
    pub id: u64,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span log.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder timing against `origin`; records nothing unless `on`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for request `id`.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.enter(name, id);
        let out = f();
        self.exit();
        out
    }

    /// Opens a span; spans opened before it is closed become its children.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        if let Some(index) = self.open.pop() {
            self.spans[index].end = end;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| s.duration() as f64 / 1e6)
            .collect()
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }
}

/// Length of the union of `intervals` (each `(start, end)`) clipped to
/// `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration() - covered(kids, span.start, span.end))
        .collect()
}

/// Self time per layer over one or more threads, plus the thread time no
/// span covers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTable {
    /// Summed wall time of the threads, ns.
    pub wall: u64,
    /// Self time per layer, ns.
    pub layers: BTreeMap<&'static str, u64>,
    /// Thread time outside every root span, ns.
    pub unattributed: u64,
}

impl LayerTable {
    /// Adds one thread's spans, which ran over `[start, end]`.
    pub fn add_thread(&mut self, spans: &[Span], start: u64, end: u64) {
        for (span, own) in spans.iter().zip(self_times(spans)) {
            *self.layers.entry(span.layer()).or_default() += own;
        }
        let mut roots: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start, s.end))
            .collect();
        let wall = end.saturating_sub(start);
        self.wall += wall;
        self.unattributed += wall - covered(&mut roots, start, end);
    }

    /// `|self times + unattributed - wall| / wall`: zero when the spans nest
    /// properly inside their threads.
    pub fn closure_error(&self) -> f64 {
        let total: u64 = self.layers.values().sum::<u64>() + self.unattributed;
        total.abs_diff(self.wall) as f64 / self.wall.max(1) as f64
    }

    /// A layer's self time as a share of the wall time.
    pub fn share(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0) as f64 / self.wall.max(1) as f64
    }

    /// Human-readable rows, largest first, ending with `unattributed`.
    pub fn render(&self) -> String {
        let mut rows: Vec<(&str, u64)> = self.layers.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1));
        rows.push(("unattributed", self.unattributed));
        let mut out = String::new();
        for (layer, ns) in rows {
            out.push_str(&format!(
                "  {layer:<14} {:>10.1} ms {:>6.1} %\n",
                ns as f64 / 1e6,
                100.0 * ns as f64 / self.wall.max(1) as f64
            ));
        }
        out.push_str(&format!(
            "  {:<14} {:>10.1} ms\n",
            "wall",
            self.wall as f64 / 1e6
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("generator.pair", 0, 100, None),
            span("api.enc_keys", 10, 40, Some(0)),
            // Overlaps the first child: the union, not the sum, is removed.
            span("api.dec_keys", 30, 60, Some(0)),
            // Runs past its parent: only the part inside the parent counts.
            span("api.status", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 30, 30]);
    }

    #[test]
    fn grandchildren_are_charged_to_their_own_parent() {
        let spans = [
            span("manager.run", 0, 100, None),
            span("core.process", 10, 90, Some(0)),
            span("privacy.amplify", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn layer_table_sums_to_wall_time() {
        let spans = [
            span("manager.run", 10, 50, None),
            span("simulator.generate", 20, 30, Some(0)),
            span("api.status", 60, 70, None),
        ];
        let mut table = LayerTable::default();
        table.add_thread(&spans, 0, 100);
        assert_eq!(table.layers["manager"], 30);
        assert_eq!(table.layers["simulator"], 10);
        assert_eq!(table.layers["api"], 10);
        assert_eq!(table.unattributed, 50);
        assert_eq!(table.closure_error(), 0.0);
        assert!((table.share("manager") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let origin = Instant::now();
        let mut on = Recorder::new(true, origin);
        on.enter("generator.pair", 7);
        let x = on.time("api.enc_keys", 7, || 41 + 1);
        on.exit();
        assert_eq!(x, 42);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "api");
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut off = Recorder::new(false, origin);
        off.time("api.enc_keys", 1, || ());
        assert!(off.spans().is_empty());
    }
}
