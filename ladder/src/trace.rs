//! The outside-in trace: one span per call into a layer's public
//! functions, recorded here in the benchmark's own code (spans inside the
//! program are a later change). Spans stay in memory and are written out
//! when the run ends; a layer's **self time** is its span minus the part
//! of that interval its child spans cover.

use crate::json::{num, obj, text, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// At most this many spans go to the trace file; totals and self times
/// are still computed over every span recorded.
pub const MAX_WRITTEN_SPANS: usize = 100_000;

/// One recorded call. `id` is 1-based; `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorder. Switched off it hands out id 0 and reads no clock, so
/// the untraced rounds of a traced run pay one branch per call site.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: false,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread sharing this one's epoch and switch;
    /// fold it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span under `parent` (0 for a root) on behalf of `request`.
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Close a span opened by [`Tracer::begin`]; id 0 (recorder off) is a no-op.
    pub fn end(&mut self, id: u32) {
        if id != 0 {
            self.spans[id as usize - 1].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Fold another thread's spans in, re-numbering them past this
    /// recorder's own.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            if s.parent != 0 {
                s.parent += offset;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace document: every span (up to [`MAX_WRITTEN_SPANS`]) plus
    /// the per-name totals.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .take(MAX_WRITTEN_SPANS)
            .map(|s| {
                obj([
                    ("id", num(s.id)),
                    ("parent", num(s.parent)),
                    ("request", num(s.request as f64)),
                    ("name", text(s.name)),
                    ("start_ns", num(s.start_ns as f64)),
                    ("end_ns", num(s.end_ns as f64)),
                ])
            })
            .collect();
        let totals = self_times(&self.spans)
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    obj([
                        ("count", num(t.count as f64)),
                        ("total_ns", num(t.total_ns as f64)),
                        ("self_ns", num(t.self_ns as f64)),
                    ]),
                )
            })
            .collect();
        obj([
            ("recorded_spans", num(self.spans.len() as f64)),
            (
                "written_spans",
                num(self.spans.len().min(MAX_WRITTEN_SPANS) as f64),
            ),
            ("by_name", Json::Obj(totals)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotal {
    /// Mean span duration in nanoseconds (0 when nothing was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals clipped to it. Children that overlap each
/// other (two client threads under one root) are not subtracted twice.
pub fn span_self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut edge = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(edge);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        edge = b;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = span_self_ns(spans);
    let mut by_name: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    by_name
}

/// The largest relative gap, over all root spans, between a root's
/// duration and the sum of the self times in its tree. The definition of
/// self time makes this 0 for a well-formed tree; a child recorded
/// outside its parent's interval is what would show here.
pub fn worst_root_gap(spans: &[Span]) -> f64 {
    let selfs = span_self_ns(spans);
    // a span's root, by walking parents (ids are 1-based indices and a
    // parent is always recorded before its child)
    let mut root_of = vec![0u32; spans.len() + 1];
    let mut tree_self: BTreeMap<u32, u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let root = if s.parent == 0 {
            s.id
        } else {
            root_of[s.parent as usize]
        };
        root_of[s.id as usize] = root;
        *tree_self.entry(root).or_default() += self_ns;
    }
    spans
        .iter()
        .filter(|s| s.parent == 0 && s.end_ns > s.start_ns)
        .map(|s| {
            let dur = (s.end_ns - s.start_ns) as f64;
            (dur - tree_self[&s.id] as f64).abs() / dur
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 50, 90),
            span(4, 3, "c", 60, 70),
        ];
        assert_eq!(span_self_ns(&spans), vec![30, 30, 30, 10]);
        let by = self_times(&spans);
        assert_eq!(by["root"].self_ns, 30);
        assert_eq!(by["b"].total_ns, 40);
        assert_eq!(worst_root_gap(&spans), 0.0);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // two client threads under one root, overlapping on 20..30
        let spans = [
            span(1, 0, "root", 0, 50),
            span(2, 1, "x", 10, 30),
            span(3, 1, "x", 20, 40),
        ];
        assert_eq!(span_self_ns(&spans)[0], 20);
    }

    #[test]
    fn a_child_outside_its_parent_is_clipped_and_shows_as_a_gap() {
        let spans = [span(1, 0, "root", 0, 100), span(2, 1, "late", 90, 150)];
        assert_eq!(span_self_ns(&spans)[0], 90, "only 90..100 is covered");
        // the tree's self times sum to 90 + 60 = 150 against a root of 100
        assert!((worst_root_gap(&spans) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn off_recorder_hands_out_zero_and_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let id = t.begin("x", 0, 1);
        t.end(id);
        assert_eq!(id, 0);
        assert!(t.spans().is_empty());
        t.set_on(true);
        let root = t.begin("root", 0, 7);
        let kid = t.begin("kid", root, 7);
        t.end(kid);
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let mut a = Tracer::new(Instant::now());
        a.set_on(true);
        let r = a.begin("root", 0, 0);
        a.end(r);
        let mut b = a.fork();
        let r2 = b.begin("root", 0, 1);
        let k2 = b.begin("kid", r2, 1);
        b.end(k2);
        b.end(r2);
        a.absorb(b);
        let ids: Vec<(u32, u32)> = a.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(1, 0), (2, 0), (3, 2)]);
    }
}
