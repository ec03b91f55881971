//! Causal span tracing: a process-global, bounded span recorder plus
//! renderers for Chrome trace-event JSON, an indented text tree, and a
//! critical-path (self-time) summary.
//!
//! Where the metrics [`Registry`](crate::Registry) answers "how long do
//! lease round-trips take *in aggregate*", a trace answers "where did
//! *this job's* 51 ms go". A span is one timed operation —
//! `{trace, span, parent, name, labels, start_us, dur_us}` — and a
//! trace is the tree of spans sharing one `trace` id, stitched across
//! processes: the server records queue/scheduler spans, workers record
//! lease/execute spans and ship them back piggybacked on their shard
//! reports, and `GET /jobs/:id/trace` renders the assembled tree.
//!
//! The store follows the registry's discipline: collection is cheap
//! (one id mint + one sharded lock push), always-on-able behind the
//! global [`enabled`](crate::enabled) switch (plus its own
//! [`set_tracing`] toggle so `pas bench` can price tracing alone), and
//! strictly observational — nothing reads a span back into a result.
//! Capacity is bounded: each of [`SHARDS`] ring shards
//! holds at most [`DEFAULT_SPANS_PER_SHARD`] spans; when full the
//! oldest span in that shard is evicted and counted in [`dropped`].
//!
//! Span ids are minted from a per-process random seed mixed through
//! SplitMix64, so ids from different processes (server, each worker)
//! can be merged into one tree without coordination; id `0` is
//! reserved to mean "no parent" (a trace root).

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::quote;
use crate::SHARDS;

/// Per-shard span capacity of the global store: 16 shards × 4096 =
/// 65 536 resident spans, comfortably above a full paper-default batch
/// (540 points ≈ 1 100 point-level spans) and bounded enough that a
/// runaway producer evicts old spans instead of growing the heap.
pub const DEFAULT_SPANS_PER_SHARD: usize = 4096;

/// One recorded span. `parent == 0` marks a trace root.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's id (unique across cooperating processes).
    pub span: u64,
    /// Parent span id, `0` for a root.
    pub parent: u64,
    /// Operation name, e.g. `sched.lease` (see docs/OBSERVABILITY.md).
    pub name: String,
    /// Low-cardinality context labels (worker, shard, outcome, ...).
    pub labels: Vec<(String, String)>,
    /// Recording process, e.g. `server` or `worker:w1`.
    pub proc: String,
    /// Wall-clock start, microseconds since the Unix epoch (the clock
    /// cooperating processes on one machine share).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// A bounded, lock-sharded span store. The process-global instance is
/// behind the free functions below; tests build their own.
pub struct TraceStore {
    shards: Vec<Mutex<VecDeque<SpanRecord>>>,
    per_shard_cap: usize,
    next_shard: AtomicUsize,
    dropped: AtomicU64,
}

impl TraceStore {
    /// An empty store holding at most `per_shard_cap` spans per shard.
    pub fn new(per_shard_cap: usize) -> TraceStore {
        TraceStore {
            shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
            per_shard_cap: per_shard_cap.max(1),
            next_shard: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append one span, evicting the shard's oldest span (and counting
    /// it as dropped) when the shard is full.
    pub fn push(&self, rec: SpanRecord) {
        let i = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut shard = self.shards[i].lock().unwrap();
        if shard.len() >= self.per_shard_cap {
            shard.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.push_back(rec);
    }

    /// All spans of `trace`, sorted by `(start_us, span)` — the
    /// canonical order every renderer consumes.
    pub fn spans_for(&self, trace: u64) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .lock()
                    .unwrap()
                    .iter()
                    .filter(|s| s.trace == trace)
                    .cloned(),
            );
        }
        out.sort_by_key(|s| (s.start_us, s.span));
        out
    }

    /// Remove and return all spans of `trace` (sorted). Workers use
    /// this to ship a shard's spans exactly once per report.
    pub fn take(&self, trace: u64) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            let mut kept = VecDeque::with_capacity(shard.len());
            for s in shard.drain(..) {
                if s.trace == trace {
                    out.push(s);
                } else {
                    kept.push_back(s);
                }
            }
            *shard = kept;
        }
        out.sort_by_key(|s| (s.start_us, s.span));
        out
    }

    /// Spans evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Resident spans.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether no spans are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// --- ids & clock ------------------------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn proc_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let t = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        splitmix64(t ^ (std::process::id() as u64).rotate_left(32))
    })
}

/// Mint a fresh 64-bit id, unique within this process and (with a
/// per-process random seed) collision-free across cooperating
/// processes for any realistic span count. Never returns 0.
pub fn mint_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    splitmix64(proc_seed().wrapping_add(n)).max(1)
}

/// Wall-clock "now" in microseconds since the Unix epoch.
pub fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

// --- process tag ------------------------------------------------------------

static PROC: OnceLock<String> = OnceLock::new();

/// Name this process's spans (e.g. `worker:w1`). First call wins;
/// unset processes record as `server`.
pub fn set_proc(tag: &str) {
    let _ = PROC.set(tag.to_string());
}

/// This process's span tag.
pub fn proc_tag() -> &'static str {
    PROC.get().map(String::as_str).unwrap_or("server")
}

// --- global store & switches ------------------------------------------------

static GLOBAL: OnceLock<TraceStore> = OnceLock::new();

/// Tracing's own collection switch, ANDed with the registry-wide
/// [`enabled`](crate::enabled) flag so `pas bench` can price span
/// recording separately from metrics.
static TRACING: AtomicBool = AtomicBool::new(true);

/// The process-global span store.
pub fn global() -> &'static TraceStore {
    GLOBAL.get_or_init(|| TraceStore::new(DEFAULT_SPANS_PER_SHARD))
}

/// Whether span collection is on (both switches).
pub fn tracing() -> bool {
    crate::enabled() && TRACING.load(Ordering::Relaxed)
}

/// Toggle span collection (metrics are unaffected).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Record a completed span into the global store and return its id
/// (minted even when collection is off, so callers can still hand out
/// parent ids unconditionally).
pub fn record(
    trace: u64,
    parent: u64,
    name: &str,
    labels: &[(&str, &str)],
    start_us: u64,
    dur_us: u64,
) -> u64 {
    let span = mint_id();
    if tracing() {
        global().push(SpanRecord {
            trace,
            span,
            parent,
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            proc: proc_tag().to_string(),
            start_us,
            dur_us,
        });
    }
    span
}

/// Record a completed span under a pre-minted id — for spans whose id
/// was handed out earlier as a parent (a job's root span is minted at
/// submit so queue/scheduler children can reference it, but its
/// duration is only known at completion).
#[allow(clippy::too_many_arguments)]
pub fn record_id(
    trace: u64,
    span: u64,
    parent: u64,
    name: &str,
    labels: &[(&str, &str)],
    start_us: u64,
    dur_us: u64,
) {
    if tracing() {
        global().push(SpanRecord {
            trace,
            span,
            parent,
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            proc: proc_tag().to_string(),
            start_us,
            dur_us,
        });
    }
}

/// Ingest spans recorded by another process (a worker's report
/// piggyback), verbatim — they keep their own `proc` tags and ids.
pub fn ingest(spans: Vec<SpanRecord>) {
    if !tracing() {
        return;
    }
    let store = global();
    for s in spans {
        store.push(s);
    }
}

/// All resident spans of `trace`, canonically sorted.
pub fn spans_for(trace: u64) -> Vec<SpanRecord> {
    global().spans_for(trace)
}

/// Drain `trace`'s spans out of the global store (worker shipping).
pub fn take(trace: u64) -> Vec<SpanRecord> {
    global().take(trace)
}

/// Spans evicted from the global store so far.
pub fn dropped() -> u64 {
    global().dropped()
}

// --- scoped timer -----------------------------------------------------------

/// A live span: times from construction and records on drop. Obtain
/// via [`start`]; hand [`SpanTimer::id`] to children as their parent.
pub struct SpanTimer {
    trace: u64,
    parent: u64,
    span: u64,
    name: String,
    labels: Vec<(String, String)>,
    start_us: u64,
    started: Instant,
}

/// Start a span under `parent` (0 = trace root).
pub fn start(trace: u64, parent: u64, name: &str, labels: &[(&str, &str)]) -> SpanTimer {
    SpanTimer {
        trace,
        parent,
        span: mint_id(),
        name: name.to_string(),
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        start_us: now_us(),
        started: Instant::now(),
    }
}

impl SpanTimer {
    /// This span's id (a valid parent for child spans).
    pub fn id(&self) -> u64 {
        self.span
    }

    /// Append a label decided after the span began (e.g. an outcome).
    pub fn push_label(&mut self, k: &str, v: &str) {
        self.labels.push((k.to_string(), v.to_string()));
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if tracing() {
            global().push(SpanRecord {
                trace: self.trace,
                span: self.span,
                parent: self.parent,
                name: std::mem::take(&mut self.name),
                labels: std::mem::take(&mut self.labels),
                proc: proc_tag().to_string(),
                start_us: self.start_us,
                dur_us: (self.started.elapsed().as_secs_f64() * 1e6) as u64,
            });
        }
    }
}

// --- ambient context --------------------------------------------------------

thread_local! {
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// Restores the previous ambient context on drop.
pub struct CtxGuard(Option<(u64, u64)>);

/// Set this thread's ambient `(trace, parent span)` context. Deep call
/// sites that cannot thread ids through their signatures (the cache's
/// per-point probe, the executor's per-point run) read it via
/// [`current`]; executors set it inside each worker closure so pooled
/// threads inherit the right parent.
pub fn enter(trace: u64, parent: u64) -> CtxGuard {
    CtxGuard(CURRENT.with(|c| c.replace(Some((trace, parent)))))
}

/// This thread's ambient `(trace, parent span)`, if any.
pub fn current() -> Option<(u64, u64)> {
    CURRENT.with(|c| c.get())
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.0));
    }
}

// --- renderers --------------------------------------------------------------

/// Index of `span` id → position, for parent lookups.
fn index(spans: &[SpanRecord]) -> std::collections::HashMap<u64, usize> {
    spans.iter().enumerate().map(|(i, s)| (s.span, i)).collect()
}

/// The root lane a span belongs to: its outermost resident ancestor
/// (cycle- and orphan-safe).
fn top_ancestor(
    spans: &[SpanRecord],
    by_id: &std::collections::HashMap<u64, usize>,
    i: usize,
) -> u64 {
    let mut cur = i;
    for _ in 0..spans.len() {
        let p = spans[cur].parent;
        match by_id.get(&p) {
            Some(&j) if j != cur => cur = j,
            _ => break,
        }
    }
    spans[cur].span
}

/// Render spans (as sorted by [`TraceStore::spans_for`]) as Chrome
/// trace-event JSON — loadable in Perfetto / `chrome://tracing`. Each
/// recording process becomes one `pid` lane (named via metadata
/// events) and each top-level span subtree one `tid` within it, so
/// parallel leases stack side by side instead of fake-nesting. Output
/// is deterministic for a given span set.
pub fn render_chrome(spans: &[SpanRecord]) -> String {
    let by_id = index(spans);
    // pid per process tag, in sorted-tag order; tid per root subtree,
    // in first-appearance (time) order within its process.
    let mut procs: Vec<&str> = spans.iter().map(|s| s.proc.as_str()).collect();
    procs.sort_unstable();
    procs.dedup();
    let pid_of = |tag: &str| procs.iter().position(|p| *p == tag).unwrap_or(0) + 1;
    let mut lanes: Vec<(usize, u64)> = Vec::new(); // (pid, root span) -> tid by position
    let mut events: Vec<String> = Vec::new();
    for (i, tag) in procs.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            i + 1,
            quote(tag)
        ));
    }
    for (i, s) in spans.iter().enumerate() {
        let pid = pid_of(&s.proc);
        let root = top_ancestor(spans, &by_id, i);
        let lane = (pid, root);
        let tid = match lanes.iter().position(|l| *l == lane) {
            Some(t) => t + 1,
            None => {
                lanes.push(lane);
                lanes.len()
            }
        };
        let mut args = format!(
            "\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"",
            s.trace, s.span, s.parent
        );
        for (k, v) in &s.labels {
            let _ = write!(args, ",{}:{}", quote(k), quote(v));
        }
        events.push(format!(
            "{{\"name\":{},\"cat\":\"pas\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
            quote(&s.name),
            s.start_us,
            s.dur_us,
            pid,
            tid,
            args
        ));
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// Render spans as a deterministic indented text tree. Orphans (spans
/// whose parent was evicted or is still open) list under a synthetic
/// `(orphaned)` heading rather than vanishing.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let by_id = index(spans);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    let mut orphans: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == 0 {
            roots.push(i);
        } else {
            match by_id.get(&s.parent) {
                Some(&p) if p != i => children[p].push(i),
                _ => orphans.push(i),
            }
        }
    }
    let mut out = String::new();
    let mut stack: Vec<(usize, usize)> = Vec::new(); // (index, depth)
    for &r in roots.iter().rev() {
        stack.push((r, 0));
    }
    let mut emitted = vec![false; spans.len()];
    while let Some((i, depth)) = stack.pop() {
        if emitted[i] {
            continue; // cycle guard
        }
        emitted[i] = true;
        let s = &spans[i];
        let _ = write!(
            out,
            "{}{} {}us proc={}",
            "  ".repeat(depth),
            s.name,
            s.dur_us,
            s.proc
        );
        for (k, v) in &s.labels {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for &c in children[i].iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    if !orphans.is_empty() {
        out.push_str("(orphaned)\n");
        for &i in &orphans {
            if emitted[i] {
                continue;
            }
            emitted[i] = true;
            let s = &spans[i];
            let _ = write!(out, "  {} {}us proc={}", s.name, s.dur_us, s.proc);
            for (k, v) in &s.labels {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
    }
    out
}

/// Walk the tree and summarise where the time went: per-name self time
/// (a span's duration minus its children's), top-`k`, as shares of
/// total self time, plus a coverage line — the fraction of the root
/// span's wall time accounted for by *named child* spans, which is the
/// number the acceptance bar ("≥90% attributed") reads.
pub fn render_critical_path(spans: &[SpanRecord], k: usize) -> String {
    if spans.is_empty() {
        return "critical path: no spans recorded\n".to_string();
    }
    let by_id = index(spans);
    let mut child_dur = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            if let Some(&p) = by_id.get(&s.parent) {
                if p != i {
                    child_dur[p] += s.dur_us;
                }
            }
        }
    }
    // Aggregate self time by span name.
    let mut by_name: Vec<(String, u64, u64)> = Vec::new(); // (name, self_us, count)
    for (i, s) in spans.iter().enumerate() {
        let self_us = s.dur_us.saturating_sub(child_dur[i]);
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some((_, t, c)) => {
                *t += self_us;
                *c += 1;
            }
            None => by_name.push((s.name.clone(), self_us, 1)),
        }
    }
    by_name.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let total_self: u64 = by_name.iter().map(|(_, t, _)| *t).sum();
    // The root is the longest parentless span (the `job` span).
    let root = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent == 0 || !by_id.contains_key(&s.parent))
        .max_by_key(|(_, s)| s.dur_us);
    let mut out = String::new();
    match root {
        Some((ri, r)) => {
            let _ = writeln!(
                out,
                "critical path for trace {:016x} (root `{}`, {}us):",
                r.trace, r.name, r.dur_us
            );
            let covered = 100.0 * child_dur[ri].min(r.dur_us) as f64 / r.dur_us.max(1) as f64;
            for (name, self_us, n) in by_name.iter().take(k.max(1)) {
                let pct = 100.0 * *self_us as f64 / total_self.max(1) as f64;
                let _ = writeln!(out, "  {name:<28} {pct:>5.1}%  {self_us:>10}us  (n={n})");
            }
            let _ = writeln!(
                out,
                "coverage: {covered:.1}% of job wall time inside named child spans"
            );
        }
        None => {
            for (name, self_us, n) in by_name.iter().take(k.max(1)) {
                let pct = 100.0 * *self_us as f64 / total_self.max(1) as f64;
                let _ = writeln!(out, "  {name:<28} {pct:>5.1}%  {self_us:>10}us  (n={n})");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u64, span: u64, parent: u64, name: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            trace,
            span,
            parent,
            name: name.to_string(),
            labels: Vec::new(),
            proc: "server".to_string(),
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn ring_overflow_counts_drops_and_keeps_survivors_intact() {
        let store = TraceStore::new(4); // 16 shards × 4 = 64 spans
        let cap = SHARDS * 4;
        let n = cap + 37;
        for i in 0..n {
            store.push(rec(7, 1000 + i as u64, 0, "s", i as u64, 5));
        }
        assert_eq!(store.dropped(), 37, "evictions are counted exactly");
        assert_eq!(store.len(), cap, "store stays at capacity");
        // Survivors are uncorrupted: every resident span still carries
        // its original id-derived fields, and the newest spans (pushed
        // after the evicted ones, round-robin) are all present.
        let got = store.spans_for(7);
        assert_eq!(got.len(), cap);
        for s in &got {
            assert_eq!(s.start_us, s.span - 1000, "span fields intact");
            assert_eq!(s.dur_us, 5);
            assert_eq!(s.name, "s");
        }
        let newest: Vec<u64> = (n - cap..n).map(|i| 1000 + i as u64).collect();
        for id in newest {
            assert!(
                got.iter().any(|s| s.span == id),
                "newest span {id} survives"
            );
        }
    }

    #[test]
    fn take_drains_only_the_requested_trace() {
        let store = TraceStore::new(8);
        store.push(rec(1, 10, 0, "a", 0, 1));
        store.push(rec(2, 20, 0, "b", 0, 1));
        store.push(rec(1, 11, 10, "c", 1, 1));
        let taken = store.take(1);
        assert_eq!(taken.len(), 2);
        assert!(store.spans_for(1).is_empty());
        assert_eq!(store.spans_for(2).len(), 1);
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let a = mint_id();
        let b = mint_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn ambient_context_nests_and_restores() {
        assert_eq!(current(), None);
        {
            let _g = enter(9, 100);
            assert_eq!(current(), Some((9, 100)));
            {
                let _h = enter(9, 200);
                assert_eq!(current(), Some((9, 200)));
            }
            assert_eq!(current(), Some((9, 100)));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn tree_render_is_deterministic_and_nested() {
        let spans = vec![
            rec(3, 1, 0, "job", 0, 100),
            rec(3, 2, 1, "job.queued", 0, 10),
            rec(3, 3, 1, "job.execute", 10, 90),
            rec(3, 4, 3, "exec.point", 12, 40),
            rec(3, 9, 777, "lost", 50, 5), // parent evicted
        ];
        let t = render_tree(&spans);
        assert_eq!(
            t,
            "job 100us proc=server\n  job.queued 10us proc=server\n  job.execute 90us proc=server\n    exec.point 40us proc=server\n(orphaned)\n  lost 5us proc=server\n"
        );
    }

    #[test]
    fn chrome_render_has_schema_fields_and_process_lanes() {
        let mut w = rec(3, 4, 3, "worker.shard.execute", 12, 40);
        w.proc = "worker:w1".to_string();
        w.labels.push(("worker".to_string(), "w1".to_string()));
        let spans = vec![rec(3, 1, 0, "job", 0, 100), w];
        let j = render_chrome(&spans);
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"M\""));
        assert!(j.contains("\"name\":\"worker:w1\""));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"span\":\"0000000000000001\""));
        assert!(j.contains("\"worker\":\"w1\""));
        // Two distinct processes → two pids.
        assert!(j.contains("\"pid\":1") && j.contains("\"pid\":2"));
    }

    #[test]
    fn critical_path_attributes_self_time() {
        let spans = vec![
            rec(3, 1, 0, "job", 0, 100),
            rec(3, 2, 1, "job.queued", 0, 10),
            rec(3, 3, 1, "job.execute", 10, 88),
            rec(3, 4, 3, "exec.point", 12, 80),
        ];
        let t = render_critical_path(&spans, 10);
        // exec.point has the largest self time (80us) and leads.
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].contains("root `job`, 100us"));
        assert!(lines[1].trim_start().starts_with("exec.point"));
        assert!(
            t.contains("coverage: 98.0%"),
            "98/100us inside children: {t}"
        );
    }
}
