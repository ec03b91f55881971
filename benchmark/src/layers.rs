//! Per-layer metrics of a traced run, computed from its spans.

use crate::trace::{Charges, Span, Tree};
use crate::{stats, Metric};
use std::collections::BTreeMap;

/// Per-layer metrics (name, unit), reported by traced runs. A workload
/// that bypasses a layer reports 0 with 0 samples for its metrics.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("pas-scenario.parse_us", "us"),
    ("pas-scenario.expand_us", "us"),
    ("pas-scenario.reduce_us", "us"),
    ("pas-scenario.csv_us", "us"),
    ("pas-diffusion.field_us", "us"),
    ("pas-core.point_us_p50", "us"),
    ("pas-core.point_us_p99", "us"),
    ("pas-core.ns_per_event", "ns"),
    ("pas-core.events", "count"),
    ("pas-sweep.busy_frac", "ratio"),
    ("pas-sweep.tail_us", "us"),
    ("pas-report.build_us", "us"),
    ("pas-report.render_us", "us"),
    ("pas-server.cache.key_us", "us"),
    ("pas-server.cache.probe_us_p50", "us"),
    ("pas-server.cache.probe_us_p99", "us"),
    ("pas-server.cache.store_us_p50", "us"),
    ("pas-server.cache.store_us_p99", "us"),
    ("pas-server.cache.hit_ratio", "ratio"),
    ("pas-server.cache.disk_bytes", "bytes"),
    ("pas-server.submit_us_p50", "us"),
    ("pas-server.results_us_p50", "us"),
    ("pas-server.queued_us_p50", "us"),
    ("pas-server.wait_us_p50", "us"),
    ("pas-server.unattributed_us", "us"),
    ("pas-server.polls_per_job", "count"),
    ("pas-server.cpu_us_per_point", "us"),
    ("pas-server.retries", "count"),
    ("pas-server.http_429", "count"),
    ("pas-dist.shards_per_job", "count"),
    ("pas-dist.overhead_us", "us"),
    ("pas-dist.worker_cpu_us_per_point", "us"),
    ("bench.trace_overhead_pct", "%"),
];

/// Span names, one per layer entry point the benchmark wraps.
pub mod span {
    /// A whole timed phase.
    pub const PHASE: &str = "bench.phase";
    /// One `batch` operation or one served job, client side.
    pub const JOB: &str = "bench.job";
    /// One served job's server-side stages, replayed in-process.
    pub const REPLAY: &str = "bench.replay";
    /// `Manifest::parse`.
    pub const PARSE: &str = "pas-scenario.parse";
    /// `expand`.
    pub const EXPAND: &str = "pas-scenario.expand";
    /// `Manifest::build_field`.
    pub const FIELD: &str = "pas-diffusion.field";
    /// `parallel_map_with`.
    pub const MAP: &str = "pas-sweep.map";
    /// The benchmark's closure around one point inside `parallel_map_with`.
    pub const ITEM: &str = "pas-sweep.item";
    /// `execute_point`.
    pub const POINT: &str = "pas-core.point";
    /// `ResultCache::key`.
    pub const KEY: &str = "pas-server.cache.key";
    /// `ResultCache::load`.
    pub const PROBE: &str = "pas-server.cache.probe";
    /// `ResultCache::store`.
    pub const STORE: &str = "pas-server.cache.store";
    /// `reduce`.
    pub const REDUCE: &str = "pas-scenario.reduce";
    /// `summary_csv(..).render()`.
    pub const CSV: &str = "pas-scenario.csv";
    /// `Report::from_batch`.
    pub const BUILD: &str = "pas-report.build";
    /// `render_md`.
    pub const RENDER: &str = "pas-report.render";
    /// `Client::submit_with_retry`.
    pub const SUBMIT: &str = "pas-server.submit";
    /// `Client::wait_with`.
    pub const WAIT: &str = "pas-server.wait";
    /// `Client::results`.
    pub const RESULTS: &str = "pas-server.results";
    /// Wait time the replayed server-side work does not cover.
    pub const UNATTRIBUTED: &str = "pas-server.unattributed";
}

/// Per-layer values being filled in.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Layers {
    /// Set metric `name` (one of [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "`{name}` is not a per-layer metric"
        );
        self.values.insert(name, (value, samples));
    }

    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.values.get(name).copied().unwrap_or((0.0, 0));
                Metric {
                    name,
                    unit,
                    value,
                    samples,
                }
            })
            .collect()
    }
}

/// Durations (µs) of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Fill the metrics that come straight from layer spans: per-job sums
/// over `jobs` jobs, per-call percentiles, and the sweep's busy share
/// and tail. `sim_events` is Σ `events_processed` of the points those
/// `pas-core.point` spans simulated.
pub fn from_spans(l: &mut Layers, spans: &[Span], jobs: u64, sim_events: u64) {
    let per_job = |name| durations_us(spans, name).iter().sum::<f64>() / jobs.max(1) as f64;
    for (metric, name) in [
        ("pas-scenario.parse_us", span::PARSE),
        ("pas-scenario.expand_us", span::EXPAND),
        ("pas-scenario.reduce_us", span::REDUCE),
        ("pas-scenario.csv_us", span::CSV),
        ("pas-diffusion.field_us", span::FIELD),
        ("pas-report.build_us", span::BUILD),
        ("pas-report.render_us", span::RENDER),
        ("pas-server.cache.key_us", span::KEY),
    ] {
        if spans.iter().any(|s| s.name == name) {
            l.set(metric, per_job(name), jobs);
        }
    }
    for (p50, p99, name) in [
        (
            "pas-core.point_us_p50",
            "pas-core.point_us_p99",
            span::POINT,
        ),
        (
            "pas-server.cache.probe_us_p50",
            "pas-server.cache.probe_us_p99",
            span::PROBE,
        ),
        (
            "pas-server.cache.store_us_p50",
            "pas-server.cache.store_us_p99",
            span::STORE,
        ),
    ] {
        let d = durations_us(spans, name);
        if let (Some(a), Some(b)) = (stats::percentile(&d, 0.5), stats::percentile(&d, 0.99)) {
            l.set(p50, a, d.len() as u64);
            l.set(p99, b, d.len() as u64);
        }
    }
    let point_us: Vec<f64> = durations_us(spans, span::POINT);
    if sim_events > 0 {
        let ns = point_us.iter().sum::<f64>() * 1e3;
        l.set(
            "pas-core.ns_per_event",
            ns / sim_events as f64,
            point_us.len() as u64,
        );
    }
    let tree = Tree::new(spans);
    let (mut busy, mut capacity, mut tails) = (0.0, 0.0, Vec::new());
    for map in spans.iter().filter(|s| s.name == span::MAP) {
        let items: Vec<&Span> = tree
            .children(map.id)
            .filter(|s| s.name == span::ITEM)
            .collect();
        if items.is_empty() {
            continue;
        }
        let threads = crate::program::nproc().min(items.len());
        busy += items.iter().map(|s| s.dur_ns() as f64).sum::<f64>();
        capacity += threads as f64 * map.dur_ns() as f64;
        tails.push(tail_ns(map, &items, threads) as f64 / 1e3);
    }
    if capacity > 0.0 {
        l.set("pas-sweep.busy_frac", busy / capacity, tails.len() as u64);
        l.set(
            "pas-sweep.tail_us",
            stats::mean(&tails).unwrap_or(0.0),
            tails.len() as u64,
        );
    }
}

/// Time from the first worker thread going idle to the last point
/// finishing, in one `parallel_map_with` call run on `threads` threads.
/// A thread that ran no point was idle from the start.
pub fn tail_ns(map: &Span, items: &[&Span], threads: usize) -> u64 {
    let mut last_end: BTreeMap<u32, u64> = BTreeMap::new();
    for s in items {
        let e = last_end.entry(s.lane).or_default();
        *e = (*e).max(s.end_ns);
    }
    let finish = last_end.values().copied().max().unwrap_or(map.start_ns);
    let first_idle = if last_end.len() < threads {
        map.start_ns
    } else {
        last_end.values().copied().min().unwrap_or(map.start_ns)
    };
    finish.saturating_sub(first_idle)
}

/// Lines of the layer-time table over the traced slices `roots`, plus
/// a problem when the charges do not sum to their wall time.
pub fn table(
    tree: &Tree,
    roots: &[u32],
    replace: &dyn Fn(&Span) -> Option<Charges>,
) -> (Vec<String>, Option<String>) {
    let mut charges = Charges::new();
    let mut wall_ns = 0.0;
    for &root in roots {
        for (name, ns) in tree.charges(root, replace) {
            *charges.entry(name).or_default() += ns;
        }
        wall_ns += tree.get(root).map_or(0, Span::dur_ns) as f64;
    }
    let mut rows: Vec<(&str, f64)> = charges.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut lines: Vec<String> = rows
        .iter()
        .map(|(name, ns)| {
            format!(
                "layer-time\t{name}\t{:.3}\tms\t{:.2}%",
                ns / 1e6,
                100.0 * ns / wall_ns.max(1.0)
            )
        })
        .collect();
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    lines.push(format!(
        "layer-time\tsum\t{:.3}\tms\twall {:.3} ms",
        sum / 1e6,
        wall_ns / 1e6
    ));
    let off = (sum - wall_ns).abs();
    let problem = (off > 1e3 + 1e-6 * wall_ns).then(|| {
        format!(
            "layer times sum to {:.3} ms, traced wall is {:.3} ms",
            sum / 1e6,
            wall_ns / 1e6
        )
    });
    (lines, problem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(lane: u32, start: u64, end: u64) -> Span {
        Span {
            id: 0,
            parent: None,
            name: span::ITEM,
            job: 0,
            lane,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn tail_runs_from_first_idle_thread_to_last_point() {
        let map = Span {
            name: span::MAP,
            ..item(0, 0, 100)
        };
        let items = [item(1, 0, 40), item(2, 0, 50), item(1, 40, 90)];
        let refs: Vec<&Span> = items.iter().collect();
        assert_eq!(tail_ns(&map, &refs, 2), 40);
        // A third thread that never ran a point idled from the start.
        assert_eq!(tail_ns(&map, &refs, 3), 90);
    }

    #[test]
    fn unset_metrics_read_zero_and_order_is_fixed() {
        let mut l = Layers::default();
        l.set("pas-core.events", 12.0, 1);
        let m = l.into_metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m[0].name, "pas-scenario.parse_us");
        let ev = m.iter().find(|m| m.name == "pas-core.events").unwrap();
        assert_eq!((ev.value, ev.samples), (12.0, 1));
        assert!(m
            .iter()
            .filter(|m| m.name != "pas-core.events")
            .all(|m| m.value == 0.0));
    }

    #[test]
    fn table_sums_slices_and_flags_charges_that_miss_the_wall() {
        let spans = [
            Span {
                name: span::PHASE,
                ..item(0, 0, 10_000_000)
            },
            Span {
                id: 1,
                name: span::PHASE,
                ..item(0, 20_000_000, 25_000_000)
            },
        ];
        let tree = Tree::new(&spans);
        let (lines, problem) = table(&tree, &[0, 1], &|_| None);
        assert!(problem.is_none());
        assert!(
            lines.last().unwrap().contains("wall 15.000 ms"),
            "{lines:?}"
        );
        // Charges that overshoot their span are caught.
        let over = |s: &Span| (s.id == 1).then(|| Charges::from([("x", 6e6)]));
        assert!(table(&tree, &[0, 1], &over).1.is_some());
    }
}
