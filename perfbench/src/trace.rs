//! In-memory spans for the traced run.
//!
//! Each thread records into its own [`Tracer`]; the workload merges them at
//! the end, derives per-layer figures (durations, self times, the share of a
//! request's time its stage spans cover) and writes every span out once the
//! measurement is over. Spans are recorded from the benchmark's side of
//! each call into a layer, so the program under test is unchanged.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.featurize`.
    pub name: &'static str,
    /// Start, in nanoseconds from the tracer epoch.
    pub start_ns: u64,
    /// End, in nanoseconds from the tracer epoch (≥ `start_ns`).
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same span list.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one request (or cycle).
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder sharing an epoch with its siblings.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span between two instants and returns its index, for
    /// use as the parent of later spans.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u64,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, start_ns, end_ns.max(start_ns), parent, request)
    }

    /// Records a span given in epoch nanoseconds and returns its index.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        request: u64,
    ) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per thread");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        index
    }

    /// Appends another thread's spans, re-basing its parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; a child's
/// part outside its parent does not count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            span.duration_ns()
                .saturating_sub(covered_ns(span.start_ns, span.end_ns, kids))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Aggregate figures of one span name.
#[derive(Debug, Clone, Default)]
pub struct LayerFigures {
    /// Every duration, in nanoseconds.
    pub durations_ns: Vec<f64>,
    /// Sum of self times, in nanoseconds.
    pub self_ns: u64,
}

/// Groups spans by name with their durations and summed self times.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerFigures> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerFigures> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.durations_ns.push(span.duration_ns() as f64);
        entry.self_ns += self_ns;
    }
    out
}

/// The share of the root spans' time (spans named `root`) that their
/// direct children's durations add up to. 1.0 means the stages account
/// for the whole end-to-end time.
pub fn stage_coverage(spans: &[Span], root: &str) -> f64 {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p as usize] += span.duration_ns();
        }
    }
    let (mut stages, mut total) = (0u64, 0u64);
    for (span, kids) in spans.iter().zip(child_ns) {
        if span.name == root {
            stages += kids;
            total += span.duration_ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        stages as f64 / total as f64
    }
}

/// Writes one JSON object per span (with its self time) to `path`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    for (i, (span, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            span.name, span.request, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            // Two overlapping children cover [10, 50): 40 ns once, not 50.
            span("a", 10, 40, Some(0)),
            span("b", 20, 50, Some(0)),
            // A grandchild only reduces its own parent.
            span("c", 25, 35, Some(2)),
            // A child sticking out of its parent counts only inside it.
            span("d", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30, 30 - 10, 10, 40]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let spans = [span("leaf", 5, 9, None)];
        assert_eq!(self_times(&spans), vec![4]);
    }

    #[test]
    fn coverage_is_children_over_roots() {
        let spans = [
            span("request", 0, 100, None),
            span("x", 0, 60, Some(0)),
            span("y", 60, 90, Some(0)),
            span("request", 200, 300, None),
            span("x", 200, 300, Some(3)),
        ];
        assert!((stage_coverage(&spans, "request") - 190.0 / 200.0).abs() < 1e-12);
        assert_eq!(stage_coverage(&spans, "missing"), 0.0);
    }

    #[test]
    fn absorbing_rebases_parent_indices() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.record_ns("root", 0, 10, None, 1);
        a.record_ns("child", 1, 2, Some(root), 1);
        let mut b = Tracer::new(epoch);
        let root_b = b.record_ns("root", 20, 30, None, 2);
        b.record_ns("child", 21, 22, Some(root_b), 2);
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(self_times(a.spans()), vec![9, 1, 9, 1]);
        let figures = by_name(a.spans());
        assert_eq!(figures["root"].self_ns, 18);
        assert_eq!(figures["child"].durations_ns, vec![1.0, 1.0]);
    }
}
