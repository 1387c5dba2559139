//! In-memory spans and the self-time arithmetic over them.
//!
//! A span is one timed call into a layer: its name, start and end, the
//! span that caused it, and the request it belongs to. A layer's self
//! time is its span's duration minus the part of that interval covered
//! by its children; children that overlap (concurrent batch items) are
//! merged before subtracting, so covered time is never counted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `"solve"`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (`>= start`).
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

/// Records spans in memory. Nested calls get the innermost open span
/// as their parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags the spans recorded from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start = self.nanos(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.nanos(Instant::now());
        out
    }

    /// Records a span timed elsewhere (for example from progress
    /// events on worker threads) under `parent`, or under the innermost
    /// open span when `parent` is `None`. Returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (start, end) = (self.nanos(start), self.nanos(end));
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent: parent.or_else(|| self.open.last().copied()),
            request: self.request,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as tab-separated lines:
    /// `index parent request name start_ns end_ns self_ns`.
    #[must_use]
    pub fn dump(&self) -> String {
        let own = self_times(&self.spans);
        let mut text = String::from("# index\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
        for (index, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{index}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
                span.request, span.name, span.start, span.end
            );
        }
        text
    }
}

/// Self time of every span, ns: its duration minus the union of its
/// children's intervals, each clipped to the span.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end - span.start) - covered
        })
        .collect()
}

/// Per span name: summed self time (ns) and span count.
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_insert((0, 0));
        entry.0 += own;
        entry.1 += 1;
    }
    totals
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
            request: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        let spans = [
            span("generate", 0, 100, None),
            span("search", 10, 70, Some(0)),
            span("solve", 20, 30, Some(1)),
            span("solve", 40, 45, Some(1)),
            span("verify", 70, 95, Some(0)),
        ];
        // generate: 100 - (60 + 25); search: 60 - 15; leaves keep all.
        assert_eq!(self_times(&spans), [15, 45, 10, 5, 25]);
    }

    #[test]
    fn overlapping_children_are_merged() {
        let spans = [
            span("batch", 0, 100, None),
            span("item", 10, 60, Some(0)),
            span("item", 40, 80, Some(0)),
            span("item", 50, 55, Some(0)),
        ];
        // Union of the items is [10, 80): 70 covered.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("request", 10, 50, None),
            span("late", 40, 90, Some(0)),
            span("early", 0, 20, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40 - 10 - 10);
    }

    #[test]
    fn tracer_links_parents_and_totals_by_name() {
        let mut tracer = Tracer::new();
        tracer.set_request(7);
        tracer.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        let totals = totals_by_name(spans);
        assert_eq!(totals["inner"].1, 2);
        let own = self_times(spans);
        assert_eq!(totals["outer"].0, own[0]);
        assert_eq!(
            own.iter().sum::<u64>(),
            spans[0].end - spans[0].start,
            "self times of a tree add up to the root's duration"
        );
    }
}
