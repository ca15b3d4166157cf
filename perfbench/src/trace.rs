//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the program is instrumented: a span covers one
//! call (or one gap between observer events) as seen from the caller.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval, relative to the trace's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the span covers, e.g. `spec`, `level` or `kernel.concat`.
    pub name: &'static str,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one request (0 when unused).
    pub id: u64,
    /// Start offset from the epoch.
    pub start: Duration,
    /// End offset from the epoch.
    pub end: Duration,
}

impl Span {
    /// The span's wall-clock length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A growing list of spans sharing one epoch.
#[derive(Debug, Clone)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose offsets count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = self.epoch.elapsed();
        self.record(name, parent, id, now, now)
    }

    /// Ends span `index` now.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end = self.epoch.elapsed();
    }

    /// Adds a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            id,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// The offset of `at` from this trace's epoch.
    pub fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.epoch)
    }

    /// Appends every span of `other` (which must share this epoch) under
    /// `parent` when the span was a root there.
    pub fn absorb(&mut self, other: Trace, parent: Option<usize>) {
        let base = self.spans.len();
        for mut span in other.spans {
            span.parent = match span.parent {
                Some(index) => Some(index + base),
                None => parent,
            };
            self.spans.push(span);
        }
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its own
    /// interval that its children cover. Overlapping children count once.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, intervals)| {
                span.duration()
                    .saturating_sub(covered(span.start, span.end, intervals))
            })
            .collect()
    }

    /// Count, total and self time per span name, in first-seen order.
    pub fn summary(&self) -> Vec<(&'static str, usize, Duration, Duration)> {
        let mut rows: Vec<(&'static str, usize, Duration, Duration)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            match rows.iter_mut().find(|row| row.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += span.duration();
                    row.3 += own;
                }
                None => rows.push((span.name, 1, span.duration(), own)),
            }
        }
        rows
    }

    /// Writes one JSON object per span (index, parent, name, id, start and
    /// end in microseconds, self time in microseconds).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{index},\"parent\":{parent},\"name\":\"{}\",\"id\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                span.name,
                span.id,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
                own.as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[start, end]`.
fn covered(start: Duration, end: Duration, mut intervals: Vec<(Duration, Duration)>) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut reach = start;
    for (from, to) in intervals {
        let from = from.max(reach);
        let to = to.min(end);
        if to > from {
            total += to - from;
            reach = to;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut trace = Trace::new(Instant::now());
        let root = trace.record("conn", None, 0, ms(0), ms(100));
        // Two requests in flight together: 10..50 and 30..70 cover 60 ms.
        trace.record("request", Some(root), 1, ms(10), ms(50));
        trace.record("request", Some(root), 2, ms(30), ms(70));
        // A child running past its parent counts only inside the parent.
        trace.record("request", Some(root), 3, ms(90), ms(120));
        let own = trace.self_times();
        assert_eq!(own[0], ms(100 - 60 - 10));
        assert_eq!(own[1], ms(40));
        assert_eq!(own[3], ms(30));
    }

    #[test]
    fn nested_children_and_summary() {
        let mut trace = Trace::new(Instant::now());
        let spec = trace.record("spec", None, 0, ms(0), ms(10));
        trace.record("level", Some(spec), 0, ms(0), ms(4));
        trace.record("level", Some(spec), 0, ms(4), ms(9));
        let summary = trace.summary();
        assert_eq!(summary[0], ("spec", 1, ms(10), ms(1)));
        assert_eq!(summary[1], ("level", 2, ms(9), ms(9)));
    }

    #[test]
    fn absorbed_roots_hang_under_the_given_parent() {
        let epoch = Instant::now();
        let mut outer = Trace::new(epoch);
        let root = outer.record("workload", None, 0, ms(0), ms(50));
        let mut inner = Trace::new(epoch);
        let conn = inner.record("conn", None, 0, ms(1), ms(40));
        inner.record("request", Some(conn), 7, ms(2), ms(3));
        outer.absorb(inner, Some(root));
        assert_eq!(outer.spans()[1].parent, Some(root));
        assert_eq!(outer.spans()[2].parent, Some(1));
        assert_eq!(outer.spans()[2].name, "request");
    }
}
