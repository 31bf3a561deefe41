//! Spans recorded in memory around the benchmark's calls into each
//! layer, and the self-time arithmetic that turns them into a per-layer
//! waterfall. Spans live only in the benchmark's own files; the program
//! is observed from outside.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Root span of one operation. Its self time is the part of the
/// operation no layer span covers.
pub const OP_ROOTS: [&str; 2] = ["audit", "update"];

/// One timed interval. `parent` indexes the enclosing span of the same
/// operation; `None` marks the root.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn len(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Every span of one operation; `spans[0]` is the root. A root not in
/// [`OP_ROOTS`] (a scheduler poll, a relay audit) stays out of the
/// waterfall and counts whole under its own name.
#[derive(Clone, Debug)]
pub struct OpTrace {
    pub id: u64,
    pub spans: Vec<Span>,
}

/// Collects spans when enabled; when disabled it only runs the timed
/// closures, so the untraced path pays no clock reads.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    current: Option<OpTrace>,
    pub done: Vec<OpTrace>,
}

impl Recorder {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Recorder {
            origin,
            enabled,
            current: None,
            done: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens an operation whose root starts at `start`.
    pub fn begin(&mut self, id: u64, root: &'static str, start: Instant) {
        if self.enabled {
            let start_ns = self.ns(start);
            self.current = Some(OpTrace {
                id,
                spans: vec![Span {
                    name: root,
                    start_ns,
                    end_ns: start_ns,
                    parent: None,
                }],
            });
        }
    }

    /// Times `f` as a child of the open operation's root.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_idx(name, f).0
    }

    /// [`Recorder::span`], also returning the new span's index for
    /// attaching children to it.
    pub fn span_idx<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Option<usize>) {
        if !self.enabled {
            return (f(), None);
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.interval(name, start, end))
    }

    /// Adds a child of the root with explicit bounds.
    pub fn interval(&mut self, name: &'static str, start: Instant, end: Instant) -> Option<usize> {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let op = self.current.as_mut()?;
        op.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(0),
        });
        Some(op.spans.len() - 1)
    }

    /// Lays out back-to-back children of span `parent`, one per
    /// duration, from the parent's start: for intervals the program
    /// measured itself (the transcript's per-round Δt') whose exact
    /// placement inside the parent is not observable from outside.
    pub fn sequence(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        durations: impl Iterator<Item = u64>,
    ) {
        let (Some(parent), Some(op)) = (parent, self.current.as_mut()) else {
            return;
        };
        let mut at = op.spans[parent].start_ns;
        for d in durations {
            op.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + d,
                parent: Some(parent),
            });
            at += d;
        }
    }

    /// Closes the open operation's root at `end` and files it.
    pub fn end(&mut self, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(mut op) = self.current.take() {
            op.spans[0].end_ns = end_ns;
            self.done.push(op);
        }
    }

    /// Times `f` as a span outside any operation.
    pub fn side<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let (start_ns, end_ns) = (self.ns(start), self.ns(Instant::now()));
        self.done.push(OpTrace {
            id: 0,
            spans: vec![Span {
                name,
                start_ns,
                end_ns,
                parent: None,
            }],
        });
        out
    }
}

/// Self time of every span: its length minus the part of it that its
/// direct children cover. Overlapping children are merged first, so
/// time two children share is subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let outer = &spans[p];
            let (a, b) = (s.start_ns.max(outer.start_ns), s.end_ns.min(outer.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, cover)| {
            cover.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in cover.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                }
                reach = reach.max(b);
            }
            s.len().saturating_sub(covered)
        })
        .collect()
}

/// Self times of one layer: the total and one sample per span.
#[derive(Clone, Debug, Default)]
pub struct LayerStat {
    pub total_ns: u64,
    pub samples: Vec<u64>,
}

impl LayerStat {
    fn add(&mut self, ns: u64) {
        self.total_ns += ns;
        self.samples.push(ns);
    }
}

/// Where the operations' wall time went.
#[derive(Debug, Default)]
pub struct Waterfall {
    /// Self time of each layer span inside operations.
    pub layers: BTreeMap<&'static str, LayerStat>,
    /// Operation wall time no layer span covers (the roots' self time).
    pub unattributed: LayerStat,
    /// Summed wall time of every operation root.
    pub op_wall_ns: u64,
    /// Roots outside [`OP_ROOTS`], by name (whole length).
    pub side: BTreeMap<&'static str, LayerStat>,
}

impl Waterfall {
    pub fn build(ops: &[OpTrace]) -> Waterfall {
        let mut w = Waterfall::default();
        for op in ops {
            let root = &op.spans[0];
            if !OP_ROOTS.contains(&root.name) {
                w.side.entry(root.name).or_default().add(root.len());
                continue;
            }
            w.op_wall_ns += root.len();
            for (span, own) in op.spans.iter().zip(self_times(&op.spans)) {
                match span.parent {
                    None => w.unattributed.add(own),
                    Some(_) => w.layers.entry(span.name).or_default().add(own),
                }
            }
        }
        w
    }

    /// Layer self times plus unattributed time; equals `op_wall_ns`
    /// when every child lies inside its parent.
    pub fn sum_ns(&self) -> u64 {
        self.layers.values().map(|l| l.total_ns).sum::<u64>() + self.unattributed.total_ns
    }
}

/// Writes every span as one tab-separated line:
/// `op  index  parent  name  start_ns  end_ns` (`-` for no parent).
pub fn write_tsv(path: &Path, ops: &[OpTrace]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tindex\tparent\tname\tstart_ns\tend_ns")?;
    for op in ops {
        for (i, s) in op.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                op.id, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span("audit", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a over 30..40
            span("c", 80, 120, Some(0)), // runs past the parent's end
        ];
        // Root: 100 − |10..60 ∪ 80..100| = 100 − 70.
        assert_eq!(self_times(&spans), vec![30, 30, 30, 40]);
    }

    #[test]
    fn grandchildren_count_against_their_parent_only() {
        let spans = vec![
            span("audit", 0, 100, None),
            span("tcp_audit.session", 0, 80, Some(0)),
            span("wire.round", 0, 20, Some(1)),
            span("wire.round", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 20, 30]);
        let w = Waterfall::build(&[OpTrace { id: 1, spans }]);
        assert_eq!(w.sum_ns(), w.op_wall_ns);
        assert_eq!(w.layers["wire.round"].samples, vec![20, 30]);
        assert_eq!(w.unattributed.total_ns, 20);
    }

    #[test]
    fn side_spans_stay_out_of_the_waterfall() {
        let ops = [
            OpTrace {
                id: 0,
                spans: vec![span("scheduler.pop_due", 0, 7, None)],
            },
            OpTrace {
                id: 1,
                spans: vec![span("audit", 0, 10, None)],
            },
        ];
        let w = Waterfall::build(&ops);
        assert_eq!(w.op_wall_ns, 10);
        assert_eq!(w.unattributed.total_ns, 10);
        assert_eq!(w.side["scheduler.pop_due"].total_ns, 7);
    }

    #[test]
    fn disabled_recorder_files_nothing() {
        let mut r = Recorder::new(Instant::now(), false);
        r.begin(1, "audit", Instant::now());
        assert_eq!(r.span("core.issue", || 5), 5);
        r.end(Instant::now());
        assert!(r.done.is_empty());
    }

    #[test]
    fn sequence_lays_children_back_to_back() {
        let origin = Instant::now();
        let mut r = Recorder::new(origin, true);
        r.begin(9, "audit", origin);
        let (_, idx) = r.span_idx("tcp_audit.session", || ());
        r.sequence(idx, "wire.round", [3u64, 4].into_iter());
        r.end(Instant::now());
        let spans = &r.done[0].spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        assert_eq!(spans[3].parent, idx);
    }
}
