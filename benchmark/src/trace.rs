//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the two ways of charging their time.
//!
//! * [`Tree::self_time`] is a span's duration minus the part of it that its
//!   children cover (their union, so overlapping children count once).
//! * [`Tree::charges`] charges every instant of a root span to exactly one
//!   name: to the innermost spans running at that instant, split evenly
//!   when several run at once (parallel points, concurrent clients). The
//!   charges therefore sum to the root's wall time, which is what the
//!   per-layer table checks.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within one [`Tracer`].
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Layer-qualified name, e.g. `pas-core.point`.
    pub name: &'static str,
    /// Job (or operation) the span belongs to.
    pub job: u64,
    /// Ordinal of the thread that ran it.
    pub lane: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; a disabled tracer reads no clocks.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` gets the span's id to
    /// parent its own spans under (`None` when disabled).
    pub fn span<R>(
        &self,
        parent: Option<u32>,
        name: &'static str,
        job: u64,
        f: impl FnOnce(Option<u32>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        let lane = LANE.with(|l| *l);
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name,
            job,
            lane,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span recorded, ordered by id.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span list poisoned");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Time charged to each span name, by name.
pub type Charges = BTreeMap<&'static str, f64>;

/// Spans indexed by parent. Ids are dense (`spans[i].id == i`), as a
/// [`Tracer`] hands them out.
pub struct Tree<'a> {
    spans: &'a [Span],
    /// Children of span `i` are `kids[off[i]..off[i + 1]]`.
    off: Vec<u32>,
    kids: Vec<u32>,
}

impl<'a> Tree<'a> {
    /// Index `spans`, which must be ordered by dense id.
    pub fn new(spans: &'a [Span]) -> Tree<'a> {
        assert!(
            spans.iter().enumerate().all(|(i, s)| s.id as usize == i),
            "span ids must be dense and ordered"
        );
        let mut off = vec![0u32; spans.len() + 1];
        for s in spans {
            if let Some(p) = s.parent {
                off[p as usize + 1] += 1;
            }
        }
        for i in 0..spans.len() {
            off[i + 1] += off[i];
        }
        let mut fill = off.clone();
        let mut kids = vec![0u32; off[spans.len()] as usize];
        for s in spans {
            if let Some(p) = s.parent {
                kids[fill[p as usize] as usize] = s.id;
                fill[p as usize] += 1;
            }
        }
        Tree { spans, off, kids }
    }

    /// The span with id `id`.
    pub fn get(&self, id: u32) -> Option<&'a Span> {
        self.spans.get(id as usize)
    }

    /// Direct children of span `id`.
    pub fn children(&self, id: u32) -> impl Iterator<Item = &'a Span> + '_ {
        let range = match self.off.get(id as usize..id as usize + 2) {
            Some(w) => w[0] as usize..w[1] as usize,
            None => 0..0,
        };
        self.kids[range].iter().map(|&k| &self.spans[k as usize])
    }

    /// Duration of span `id` minus the union of its children's
    /// intervals.
    pub fn self_time(&self, id: u32) -> u64 {
        let Some(span) = self.get(id) else {
            return 0;
        };
        let mut kids: Vec<(u64, u64)> = self
            .children(id)
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.dur_ns() - covered
    }

    /// Charge the wall time of span `root` to names, as described in the
    /// module docs; the charges sum to the root's duration. `replace`
    /// may supply the charges for a span (summing to that span's
    /// duration), which then stand in for the span and its subtree.
    pub fn charges(&self, root: u32, replace: &dyn Fn(&Span) -> Option<Charges>) -> Charges {
        let mut out = Charges::new();
        if let Some(span) = self.get(root) {
            self.charge(span, 1.0, replace, &mut out);
        }
        out
    }

    fn charge(
        &self,
        span: &Span,
        weight: f64,
        replace: &dyn Fn(&Span) -> Option<Charges>,
        out: &mut Charges,
    ) {
        if let Some(c) = replace(span) {
            for (name, ns) in c {
                *out.entry(name).or_default() += weight * ns;
            }
            return;
        }
        let children: Vec<&Span> = self.children(span.id).collect();
        // Sweep the children's clipped boundaries: each elementary segment
        // goes to the parent when no child runs, else evenly to those
        // that do.
        let mut edges: Vec<(u64, bool, usize)> = Vec::with_capacity(children.len() * 2);
        for (k, c) in children.iter().enumerate() {
            let a = c.start_ns.max(span.start_ns);
            let b = c.end_ns.min(span.end_ns);
            if a < b {
                edges.push((a, true, k));
                edges.push((b, false, k));
            }
        }
        // Ends sort before starts at the same instant.
        edges.sort_unstable();
        let mut share = vec![0.0f64; children.len()];
        let mut active: Vec<usize> = Vec::new();
        let mut own = 0.0;
        let mut last = span.start_ns;
        for (t, is_start, k) in edges {
            let len = (t - last) as f64;
            if active.is_empty() {
                own += len;
            } else {
                for &a in &active {
                    share[a] += len / active.len() as f64;
                }
            }
            last = t;
            if is_start {
                active.push(k);
            } else {
                active.retain(|&a| a != k);
            }
        }
        own += (span.end_ns - last) as f64;
        *out.entry(span.name).or_default() += weight * own;
        for (k, c) in children.iter().enumerate() {
            let dur = c.dur_ns();
            if dur > 0 && share[k] > 0.0 {
                self.charge(c, weight * share[k] / dur as f64, replace, out);
            }
        }
    }
}

/// Write spans as tab-separated lines (id, parent, name, job, lane,
/// start_ns, end_ns), once, at the end of a traced run.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tjob\tlane\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s
            .parent
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".into());
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.name, s.job, s.lane, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            job: 0,
            lane: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    fn tree() -> Vec<Span> {
        vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 50),
            span(2, Some(0), "b", 30, 70),
            span(3, Some(1), "c", 10, 20),
        ]
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let s = tree();
        let t = Tree::new(&s);
        // Children cover [10, 70): 60 of the root's 100 ns.
        assert_eq!(t.self_time(0), 40);
        assert_eq!(t.self_time(1), 30);
        assert_eq!(t.self_time(2), 40);
        assert_eq!(t.self_time(3), 10);
        // A child sticking out of its parent is clipped to it.
        let u = vec![span(0, None, "r", 0, 10), span(1, Some(0), "x", 5, 30)];
        assert_eq!(Tree::new(&u).self_time(0), 5);
    }

    #[test]
    fn attribution_splits_concurrent_time_and_sums_to_wall() {
        let s = tree();
        let c = Tree::new(&s).charges(0, &|_| None);
        assert_eq!(c["root"], 40.0);
        // a: alone 20 ns + half of the 20 ns shared with b = 30 ns, of
        // which c (a quarter of a's duration) takes 7.5 ns.
        assert!((c["a"] - 22.5).abs() < 1e-9);
        assert!((c["c"] - 7.5).abs() < 1e-9);
        assert!((c["b"] - 30.0).abs() < 1e-9);
        let total: f64 = c.values().sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn replaced_span_charges_stand_in_for_its_subtree() {
        let s = tree();
        let c = Tree::new(&s).charges(0, &|sp| {
            (sp.name == "b").then(|| Charges::from([("replayed", 25.0), ("other", 15.0)]))
        });
        assert!(!c.contains_key("b"));
        // b is charged 30 of its 40 ns (alone 20, half of 20 shared).
        assert!((c["replayed"] - 18.75).abs() < 1e-9);
        assert!((c.values().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let got = t.span(None, "x", 0, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(got, 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_spans() {
        let t = Tracer::new(true);
        t.span(None, "outer", 1, |p| t.span(p, "inner", 1, |_| ()));
        let s = t.into_spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(s[0].id));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
