//! In-memory span recorder for the traced run, and the self-time
//! arithmetic the per-layer metrics come from.
//!
//! A span is one call into a layer: name, start, end (nanoseconds since
//! the recorder's origin), the span that caused it, and the request it
//! served. A span's self time is its duration minus the part of its
//! interval covered by the union of its children, so children that ran
//! in parallel on engine workers are not subtracted twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No request (a batch-level span).
pub const NO_REQ: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `serve.cache.text.lookup`.
    pub name: &'static str,
    /// Start, ns since the recorder origin.
    pub start: u64,
    /// End, ns since the recorder origin.
    pub end: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Request the span served, or [`NO_REQ`].
    pub req: u64,
}

/// Collects spans in memory; nothing is written until [`Recorder::write_tsv`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin (also usable on worker threads via
    /// [`Recorder::clock`]).
    #[must_use]
    pub fn now(&self) -> u64 {
        nanos_since(self.origin)
    }

    /// A copyable clock for threads that cannot borrow the recorder.
    #[must_use]
    pub fn clock(&self) -> Clock {
        Clock(self.origin)
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = self.now();
        self.push(name, parent, req, now, now)
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, idx: usize) {
        let now = self.now();
        self.spans[idx].end = now;
    }

    /// Records a finished span measured elsewhere (a worker thread).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// All spans so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as a TSV line: index, name, start, end, parent
    /// (`-` for none), request (`-` for none).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "idx\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let req = if s.req == NO_REQ {
                "-".to_string()
            } else {
                s.req.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{req}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// The recorder's time origin, sendable to worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Nanoseconds since the recorder origin.
    #[must_use]
    pub fn now(&self) -> u64 {
        nanos_since(self.0)
    }
}

fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per span in µs (0 when there were none).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1000.0
        }
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to the span.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Count, total and self time per span name.
#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end - s.start;
        t.self_ns += self_ns;
    }
    out
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
            req: NO_REQ,
        }
    }

    /// batch [0, 100): parse [10, 20), fanout [30, 90) with two parallel
    /// items [30, 80) and [40, 90), render [92, 96).
    fn tree() -> Vec<Span> {
        vec![
            span("batch", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            span("fanout", 30, 90, Some(0)),
            span("item", 30, 80, Some(2)),
            span("item", 40, 90, Some(2)),
            span("render", 92, 96, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let selfs = self_times(&tree());
        // batch: 100 - (10 + 60 + 4)
        assert_eq!(selfs[0], 26);
        assert_eq!(selfs[1], 10);
        // fanout is fully covered by its overlapping items.
        assert_eq!(selfs[2], 0);
        assert_eq!(selfs[3], 50);
        assert_eq!(selfs[4], 50);
        assert_eq!(selfs[5], 4);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn totals_aggregate_by_name() {
        let t = totals(&tree());
        let item = t["item"];
        assert_eq!(item.count, 2);
        assert_eq!(item.total_ns, 100);
        assert_eq!(item.self_ns, 100);
        assert_eq!(item.mean_us(), 0.05);
        assert_eq!(t["batch"].self_ns, 26);
    }

    #[test]
    fn recorder_nests_and_writes_tsv() {
        let mut rec = Recorder::new();
        let outer = rec.begin("outer", None, NO_REQ);
        let inner = rec.begin("inner", Some(outer), 7);
        rec.end(inner);
        rec.end(outer);
        let spans = rec.spans();
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let mut out = Vec::new();
        rec.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\tinner\t"));
        assert!(text.lines().nth(2).unwrap().ends_with("\t0\t7"));
    }
}
