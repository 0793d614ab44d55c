//! In-memory span recorder for the traced runs.
//!
//! A span records a name, a start and an end (nanoseconds since the
//! recorder was created), its parent span, and a group id shared by every
//! span of one job or one query. Spans are recorded from the benchmark's own
//! code, around the calls into each layer's public functions, and written
//! out once the run ends. A layer's *self time* is its span's duration minus
//! the part of that interval its direct child spans cover.
//!
//! A disabled recorder keeps nothing: `enter`/`exit` cost one branch, so the
//! untraced runs share the traced runs' code paths. Counts are taken by the
//! workloads at the same call sites and reported as metrics.

use std::fmt::Write as _;
use std::time::Instant;

/// Name prefix of spans that belong to the benchmark itself (a whole job,
/// replay or query), as opposed to a layer of the system under test.
/// Their self time is harness glue and does not count toward coverage.
pub const BENCH_PREFIX: &str = "bench.";

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    /// Layer boundary, e.g. `minilang.parser.parse`.
    pub name: &'static str,
    /// Id shared by every span of one job or query.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch (`start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that keeps nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn enter(&mut self, name: &'static str, group: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            group,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else {
            return;
        };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, group);
        let out = f();
        self.exit(id);
        out
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Per-call self times of the spans named `name`, in seconds.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        let own = self.self_times_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 * 1e-9)
            .collect()
    }

    /// Per-call durations of the spans named `name`, in seconds.
    pub fn durations_secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Share of `wall_s` covered by the self time of layer spans (every
    /// span outside [`BENCH_PREFIX`]).
    pub fn coverage(&self, wall_s: f64) -> f64 {
        let layer_ns: u64 = self
            .spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| !s.name.starts_with(BENCH_PREFIX))
            .map(|(_, ns)| ns)
            .sum();
        layer_ns as f64 * 1e-9 / wall_s
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.group, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals clipped to it. Children may nest, abut or overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            group: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) ⊃ a [10,60) ⊃ a1 [20,30); b [70,90).
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("a1", Some(1), 20, 30),
            span("b", Some(0), 70, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn self_time_handles_adjacent_and_overlapping_children() {
        // Adjacent children [0,40) and [40,100) cover the parent fully;
        // overlapping children [10,50) and [30,70) cover 60 of 100.
        let adjacent = vec![
            span("p", None, 0, 100),
            span("x", Some(0), 0, 40),
            span("y", Some(0), 40, 100),
        ];
        assert_eq!(self_times_ns(&adjacent), vec![0, 40, 60]);
        let overlapping = vec![
            span("p", None, 0, 100),
            span("x", Some(0), 10, 50),
            span("y", Some(0), 30, 70),
        ];
        assert_eq!(self_times_ns(&overlapping)[0], 40);
    }

    #[test]
    fn recorder_links_parents_and_sums_self_time_to_the_root_duration() {
        let mut t = Tracer::enabled();
        let root = t.enter("bench.job", 7);
        t.time("layer.a", 7, || std::hint::black_box(1 + 1));
        let b = t.enter("layer.b", 7);
        t.time("layer.c", 7, || ());
        t.exit(b);
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.group == 7));
        let total: u64 = t.self_times_ns().iter().sum();
        assert_eq!(total, spans[0].duration_ns());
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::disabled();
        let id = t.enter("layer.a", 1);
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
