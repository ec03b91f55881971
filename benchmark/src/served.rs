//! The served workloads: `submit-warm` and `dist-cold`.
//!
//! Each runs the shipped `pas serve` (and for `dist-cold` one
//! `pas worker`) with default flags apart from the workload's mode
//! flags, and drives it with closed-loop clients: a client submits its
//! next job only once the previous job's CSV is in hand. Every client
//! makes the same three calls — `Client::submit_with_retry`,
//! `Client::wait_with` polling every millisecond, `Client::results` —
//! and a job's latency runs from the start of the submit call to the
//! CSV bytes.

use crate::child::{self, Proc, WorkDir};
use crate::gen::{JobInput, Jobs};
use crate::layers::{self, span, Layers};
use crate::replay::{self, Replayed};
use crate::trace::{Charges, Tracer, Tree};
use crate::verify::{self, Reference};
use crate::{procfs, program, stats, Ctx, Measured, Outcome, Workload, MIN_JOBS, SETUP_REPS};
use pas_scenario::{summary_csv, ExecOptions, Manifest};
use pas_server::{
    execute_with_cache, Client, ClientError, JobStatus, ResultCache, ResultFormat, RetryPolicy,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Status poll interval of every client.
pub const POLL: Duration = Duration::from_millis(1);

/// Completed jobs whose per-run JSONL is fetched and checked after the
/// untraced phase (the server retains the most recent jobs).
const JSONL_CHECKS: usize = 4;

/// `pas serve` (plus `pas worker` in dist mode) and the cache it uses.
/// Fields drop in order: worker, server, then the owned cache directory.
struct Fleet {
    worker: Option<Proc>,
    server: Proc,
    _own_cache: Option<WorkDir>,
    cache_dir: PathBuf,
    addr: String,
}

impl Fleet {
    /// Start the processes of workload `w` on `pool` (warm) or on a
    /// fresh empty cache, and wait until they serve: `/healthz` answers
    /// and, in dist mode, the worker is registered.
    fn start(ctx: &Ctx, w: Workload, pool: Option<&WorkDir>) -> Result<Fleet, String> {
        let own = match pool {
            Some(_) => None,
            None => Some(WorkDir::new(&ctx.root, "cache")?),
        };
        let cache_dir = pool
            .or(own.as_ref())
            .expect("a cache dir")
            .path()
            .to_path_buf();
        let (server, addr) = child::spawn_server(&ctx.pas, &cache_dir, w != Workload::DistCold)?;
        let client = Client::new(addr.clone());
        child::wait_until("/healthz", || client.healthz().is_ok())
            .map_err(|e| format!("{e}\n{}", server.log_tail()))?;
        let worker = match w {
            Workload::DistCold => {
                let worker = child::spawn_worker(&ctx.pas, &addr)?;
                child::wait_until("worker registration", || {
                    client
                        .workers_table()
                        .is_ok_and(|t| parse_workers(&t).iter().any(|w| w.alive))
                })
                .map_err(|e| format!("{e}\n{}", worker.log_tail()))?;
                Some(worker)
            }
            _ => None,
        };
        Ok(Fleet {
            worker,
            server,
            _own_cache: own,
            cache_dir,
            addr,
        })
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    /// CPU seconds so far of (server, worker).
    fn cpu_s(&self) -> Result<(f64, f64), String> {
        let cpu = |p: &Proc| procfs::cpu_s(Some(p.pid())).map_err(|e| e.to_string());
        let worker = match &self.worker {
            Some(w) => cpu(w)?,
            None => 0.0,
        };
        Ok((cpu(&self.server)?, worker))
    }

    /// Σ VmHWM of the fleet's processes, MB, and how many there are.
    fn peak_rss_mb(&self) -> Result<(f64, u64), String> {
        let mut total = 0.0;
        for p in std::iter::once(&self.server).chain(&self.worker) {
            total += procfs::peak_rss_mb(Some(p.pid())).map_err(|e| e.to_string())?;
        }
        Ok((total, 1 + self.worker.is_some() as u64))
    }

    /// Shards completed by the fleet's workers (0 without dist).
    fn shards(&self) -> Result<u64, String> {
        if self.worker.is_none() {
            return Ok(0);
        }
        let table = self.client().workers_table().map_err(|e| e.to_string())?;
        Ok(parse_workers(&table).iter().map(|w| w.shards).sum())
    }
}

/// One row of the `GET /dist/workers` text table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerRow {
    /// Heartbeat within the lease.
    pub alive: bool,
    /// Shards completed.
    pub shards: u64,
}

/// Rows of the `GET /dist/workers` text table (`id name threads alive
/// leases shards points pts/s seen(ms)` under a header line).
pub fn parse_workers(table: &str) -> Vec<WorkerRow> {
    table
        .lines()
        .skip(1)
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 9).then_some(())?;
            Some(WorkerRow {
                alive: f[3] == "yes",
                shards: f[5].parse().ok()?,
            })
        })
        .collect()
}

/// A job's result as the client received it.
struct Done {
    id: u64,
    status: JobStatus,
    csv: Vec<u8>,
}

/// One job, client side.
struct Sample {
    job: JobInput,
    latency_s: f64,
    submit_s: f64,
    wait_s: f64,
    results_s: f64,
    queued_s: Option<f64>,
    polls: u64,
    retries: u64,
    http_429: u64,
    result: Result<Done, String>,
}

/// One timed phase.
/// The timed slices of one kind (untraced or traced) of a run.
struct Phase {
    samples: Vec<Sample>,
    wall_s: f64,
    server_cpu_s: f64,
    worker_cpu_s: f64,
    shards: u64,
    roots: Vec<u32>,
    /// Each client's next position in its job sequence.
    next: Vec<usize>,
}

impl Phase {
    fn new(clients: usize) -> Phase {
        Phase {
            samples: Vec::new(),
            wall_s: 0.0,
            server_cpu_s: 0.0,
            worker_cpu_s: 0.0,
            shards: 0,
            roots: Vec::new(),
            next: vec![0; clients],
        }
    }

    /// Run records delivered by completed jobs.
    fn points(&self) -> u64 {
        self.samples
            .iter()
            .filter_map(|s| s.result.as_ref().ok())
            .filter(|d| d.status.phase == "completed")
            .map(|d| d.status.total)
            .sum()
    }
}

/// Run a served workload.
pub fn run(ctx: &Ctx, w: Workload) -> Result<Outcome, String> {
    let warm = w == Workload::SubmitWarm;
    let jobs = if warm {
        Jobs::pool(ctx.seed, ctx.size)
    } else {
        Jobs::fresh(ctx.seed, ctx.size)
    };
    let clients = if warm { program::nproc().max(2) } else { 1 };
    let mut out = Outcome {
        digest: jobs.digest(),
        ..Outcome::default()
    };
    let mut refs = BTreeMap::new();
    let pool = match &jobs {
        Jobs::Pool(tomls) => Some(fill_pool(ctx, tomls, &mut refs, &mut out)?),
        Jobs::Fresh { .. } => None,
    };

    let mut setup_s = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUP_REPS {
        drop(fleet.take());
        let t0 = Instant::now();
        let f = Fleet::start(ctx, w, pool.as_ref())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        fleet = Some(f);
    }
    let fleet = fleet.expect("at least one setup");
    // A traced run drives a second fleet, with the cache in the same
    // starting state, alternating untraced and traced slices so that
    // drift of the machine's speed affects both alike.
    let tracer = Tracer::new(ctx.trace);
    let traced_fleet = match ctx.trace {
        true => Some(Fleet::start(ctx, w, pool.as_ref())?),
        false => None,
    };
    let (slices, slice_s) = ctx.slices();
    let off = Tracer::new(false);
    let (mut untraced, mut traced) = (Phase::new(clients), Phase::new(clients));
    for _ in 0..slices {
        run_slice(&mut untraced, &fleet, &jobs, slice_s, &off)?;
        if let Some(tf) = &traced_fleet {
            run_slice(&mut traced, tf, &jobs, slice_s, &tracer)?;
        }
    }
    let (rss_mb, procs) = fleet.peak_rss_mb()?;
    // Untimed: per-run records of the last completed jobs.
    let client = fleet.client();
    let mut jsonl = BTreeMap::new();
    for s in untraced.samples.iter().rev() {
        if jsonl.len() == JSONL_CHECKS {
            break;
        }
        if let Ok(d) = &s.result {
            let got = client
                .results(d.id, ResultFormat::Jsonl)
                .map_err(|e| e.to_string());
            jsonl.insert(s.job.index, got);
        }
    }
    let disk_bytes = traced_fleet
        .as_ref()
        .map_or(0, |f| child::dir_bytes(&f.cache_dir));
    drop((fleet, traced_fleet));
    add_references(&untraced, &mut refs)?;
    check(w, &untraced, &refs, &jsonl, &mut out);
    if !ctx.trace {
        Measured {
            setup_s,
            latency_s: untraced.samples.iter().map(|s| s.latency_s).collect(),
            points: untraced.points(),
            wall_s: untraced.wall_s,
            cpu_s: untraced.server_cpu_s + untraced.worker_cpu_s,
            rss_mb,
            procs,
        }
        .report(&mut out);
        return Ok(out);
    }

    add_references(&traced, &mut refs)?;
    check(w, &traced, &refs, &BTreeMap::new(), &mut out);

    // Replay the traced jobs' server-side stages, in job order.
    let replay_dir = match &pool {
        Some(_) => None,
        None => Some(WorkDir::new(&ctx.root, "replay")?),
    };
    let dir = pool.as_ref().or(replay_dir.as_ref()).expect("a cache dir");
    let cache = ResultCache::open(dir.path()).map_err(|e| format!("replay cache: {e}"))?;
    let mut order: Vec<&Sample> = traced.samples.iter().collect();
    order.sort_by_key(|s| s.job.index);
    let mut replayed = BTreeMap::new();
    for s in order {
        let r = replay::replay_job(&tracer, s.job.index as u64, &s.job.toml, &cache)?;
        let want = &refs[&s.job.input];
        if r.csv != want.csv || r.events != want.events {
            out.problems.push(format!(
                "job {}: replay differs from reference (events {} vs {})",
                s.job.index, r.events, want.events
            ));
        }
        // The replay's cache must be in the live run's state.
        if let Ok(d) = &s.result {
            if (r.hits, r.misses) != (d.status.cache_hits, d.status.cache_misses) {
                out.problems.push(format!(
                    "job {}: replay saw {} hits / {} misses, live job {} / {}",
                    s.job.index, r.hits, r.misses, d.status.cache_hits, d.status.cache_misses
                ));
            }
        }
        replayed.insert(s.job.index, r);
    }
    let spans = tracer.into_spans();
    out.metrics = served_layers(w, &untraced, &traced, &replayed, &spans, disk_bytes);

    let tree = Tree::new(&spans);
    let replace = |s: &crate::trace::Span| -> Option<Charges> {
        if s.name != span::WAIT {
            return None;
        }
        let rr = replayed.get(&(s.job as usize))?.root?;
        let mut c = tree.charges(rr, &|_| None);
        let replay_ns = tree.get(rr)?.dur_ns() as f64;
        *c.entry(span::UNATTRIBUTED).or_default() += s.dur_ns() as f64 - replay_ns;
        Some(c)
    };
    let (lines, problem) = layers::table(&tree, &traced.roots, &replace);
    out.notes.extend(lines);
    out.problems.extend(problem);
    let path = ctx
        .root
        .join(".bench_out")
        .join(format!("{}.spans.tsv", w.name()));
    crate::trace::write_tsv(&spans, &path).map_err(|e| format!("writing spans: {e}"))?;
    Ok(out)
}

/// Fill a cache directory with every pool grid (untimed preparation) and
/// compute their references.
fn fill_pool(
    ctx: &Ctx,
    tomls: &[String],
    refs: &mut BTreeMap<usize, Reference>,
    out: &mut Outcome,
) -> Result<WorkDir, String> {
    let dir = WorkDir::new(&ctx.root, "pool")?;
    let cache = ResultCache::open(dir.path()).map_err(|e| format!("pool cache: {e}"))?;
    let inputs: Vec<(usize, String)> = tomls.iter().cloned().enumerate().collect();
    refs.extend(verify::references(&inputs, false)?);
    for (g, toml) in &inputs {
        let m = Manifest::parse(toml).map_err(|e| e.to_string())?;
        let (batch, _) =
            execute_with_cache(&m, ExecOptions::default(), &cache).map_err(|e| e.to_string())?;
        if summary_csv(&batch).render() != refs[g].csv {
            out.problems
                .push(format!("pool grid {g}: filled CSV differs from reference"));
        }
    }
    Ok(dir)
}

/// Compute references for every input the phase ran that has none yet.
fn add_references(phase: &Phase, refs: &mut BTreeMap<usize, Reference>) -> Result<(), String> {
    let mut todo: BTreeMap<usize, String> = BTreeMap::new();
    for s in &phase.samples {
        if !refs.contains_key(&s.job.input) {
            todo.insert(s.job.input, s.job.toml.clone());
        }
    }
    refs.extend(verify::references(
        &todo.into_iter().collect::<Vec<_>>(),
        false,
    )?);
    Ok(())
}

/// Closed loop, appending to `into`: each client continues its job
/// sequence until `seconds` have passed, running at least its share of
/// [`MIN_JOBS`].
fn run_slice(
    into: &mut Phase,
    fleet: &Fleet,
    jobs: &Jobs,
    seconds: f64,
    tr: &Tracer,
) -> Result<(), String> {
    let shards0 = fleet.shards()?;
    let (server0, worker0) = fleet.cpu_s()?;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let clients = into.next.len();
    let min_per_client = MIN_JOBS.div_ceil(clients);
    let samples = Mutex::new(Vec::new());
    let root = tr.span(None, span::PHASE, 0, |root| {
        std::thread::scope(|scope| {
            for (c, next) in into.next.iter_mut().enumerate() {
                let samples = &samples;
                scope.spawn(move || {
                    let client = fleet.client();
                    let first = *next;
                    while *next < first + min_per_client || Instant::now() < deadline {
                        let s = run_job(&client, jobs.job(*next * clients + c), tr, root);
                        samples.lock().expect("sample list poisoned").push(s);
                        *next += 1;
                    }
                });
            }
        });
        root
    });
    into.wall_s += t0.elapsed().as_secs_f64();
    let (server1, worker1) = fleet.cpu_s()?;
    into.samples
        .extend(samples.into_inner().expect("sample list poisoned"));
    into.server_cpu_s += server1 - server0;
    into.worker_cpu_s += worker1 - worker0;
    into.shards += fleet.shards()? - shards0;
    into.roots.extend(root);
    Ok(())
}

/// Submit one job, wait for it, fetch its CSV.
fn run_job(client: &Client, job: JobInput, tr: &Tracer, parent: Option<u32>) -> Sample {
    let g = job.index as u64;
    let (mut retries, mut http_429, mut polls) = (0, 0, 0);
    let mut queued_s = None;
    let (mut submit_s, mut wait_s, mut results_s) = (0.0, 0.0, 0.0);
    let t0 = Instant::now();
    let since = |t: Instant| t.elapsed().as_secs_f64();
    let result = tr.span(parent, span::JOB, g, |js| {
        let id = tr
            .span(js, span::SUBMIT, g, |_| {
                client.submit_with_retry(&job.toml, RetryPolicy::default(), |_, e| {
                    retries += 1;
                    http_429 += matches!(e, ClientError::Api(429, _)) as u64;
                })
            })
            .map_err(|e| format!("submit: {e}"))?;
        submit_s = since(t0);
        let status = tr
            .span(js, span::WAIT, g, |_| {
                client.wait_with(id, POLL, |s| {
                    polls += 1;
                    if queued_s.is_none() && s.phase != "queued" {
                        queued_s = Some(since(t0));
                    }
                })
            })
            .map_err(|e| format!("wait: {e}"))?;
        wait_s = since(t0) - submit_s;
        let csv = tr
            .span(js, span::RESULTS, g, |_| {
                client.results(id, ResultFormat::Csv)
            })
            .map_err(|e| format!("results: {e}"))?;
        results_s = since(t0) - submit_s - wait_s;
        Ok(Done { id, status, csv })
    });
    Sample {
        job,
        latency_s: since(t0),
        submit_s,
        wait_s,
        results_s,
        queued_s,
        polls,
        retries,
        http_429,
        result,
    }
}

/// Check every job: completed, CSV (and fetched JSONL) byte-identical
/// to the reference, and cache counts exact for the workload.
fn check(
    w: Workload,
    phase: &Phase,
    refs: &BTreeMap<usize, Reference>,
    jsonl: &BTreeMap<usize, Result<Vec<u8>, String>>,
    out: &mut Outcome,
) {
    for s in &phase.samples {
        out.attempted += 1;
        let want = &refs[&s.job.input];
        let n = s.job.index;
        let bad = match &s.result {
            Err(e) => Some(format!("job {n}: {e}")),
            Ok(d) if d.status.phase != "completed" => Some(format!(
                "job {n}: phase {} ({})",
                d.status.phase,
                d.status.error.as_deref().unwrap_or("")
            )),
            Ok(d) if d.csv != want.csv.as_bytes() => {
                Some(format!("job {n}: CSV differs from reference"))
            }
            Ok(d) if d.status.total != want.points => Some(format!(
                "job {n}: {} points, reference {}",
                d.status.total, want.points
            )),
            Ok(d) => {
                let (hits, misses) = (d.status.cache_hits, d.status.cache_misses);
                let exact = match w {
                    Workload::SubmitWarm => hits == d.status.total && misses == 0,
                    _ => misses == d.status.total && hits == 0,
                };
                match jsonl.get(&n) {
                    _ if !exact => Some(format!("job {n}: {hits} cache hits, {misses} misses")),
                    Some(Err(e)) => Some(format!("job {n}: JSONL: {e}")),
                    Some(Ok(b)) if b != want.jsonl.as_bytes() => {
                        Some(format!("job {n}: JSONL differs from reference"))
                    }
                    _ => None,
                }
            }
        };
        if let Some(msg) = bad {
            out.failed += 1;
            out.problems.push(msg);
        }
    }
}

/// Per-layer metrics of a served workload.
fn served_layers(
    w: Workload,
    untraced: &Phase,
    traced: &Phase,
    replayed: &BTreeMap<usize, Replayed>,
    spans: &[crate::trace::Span],
    disk_bytes: u64,
) -> Vec<crate::Metric> {
    let mut l = Layers::default();
    let jobs = traced.samples.len() as u64;
    let sim_events = replayed.values().map(|r| r.sim_events).sum();
    layers::from_spans(&mut l, spans, jobs, sim_events);
    let events: u64 = replayed.range(..MIN_JOBS).map(|(_, r)| r.events).sum();
    l.set("pas-core.events", events as f64, MIN_JOBS as u64);

    let done: Vec<&Done> = traced
        .samples
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .collect();
    let total: u64 = done.iter().map(|d| d.status.total).sum();
    let hits: u64 = done.iter().map(|d| d.status.cache_hits).sum();
    l.set(
        "pas-server.cache.hit_ratio",
        hits as f64 / total.max(1) as f64,
        done.len() as u64,
    );
    l.set("pas-server.cache.disk_bytes", disk_bytes as f64, 1);

    let us = |f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        traced.samples.iter().map(|s| f(s) * 1e6).collect()
    };
    for (name, v) in [
        ("pas-server.submit_us_p50", us(&|s| s.submit_s)),
        ("pas-server.wait_us_p50", us(&|s| s.wait_s)),
        ("pas-server.results_us_p50", us(&|s| s.results_s)),
        (
            "pas-server.queued_us_p50",
            traced
                .samples
                .iter()
                .filter_map(|s| s.queued_s)
                .map(|q| q * 1e6)
                .collect(),
        ),
    ] {
        l.set(name, stats::median(&v).unwrap_or(0.0), v.len() as u64);
    }
    let tree = Tree::new(spans);
    let unattributed: Vec<f64> = traced
        .samples
        .iter()
        .filter_map(|s| {
            let rr = replayed.get(&s.job.index)?.root?;
            Some(s.wait_s * 1e6 - tree.get(rr)?.dur_ns() as f64 / 1e3)
        })
        .collect();
    let unattributed_us = stats::mean(&unattributed).unwrap_or(0.0);
    l.set(
        "pas-server.unattributed_us",
        unattributed_us,
        unattributed.len() as u64,
    );
    let polls: Vec<f64> = traced.samples.iter().map(|s| s.polls as f64).collect();
    l.set(
        "pas-server.polls_per_job",
        stats::mean(&polls).unwrap_or(0.0),
        jobs,
    );
    let points = traced.points().max(1) as f64;
    l.set(
        "pas-server.cpu_us_per_point",
        traced.server_cpu_s * 1e6 / points,
        traced.points(),
    );
    l.set(
        "pas-server.retries",
        traced.samples.iter().map(|s| s.retries).sum::<u64>() as f64,
        jobs,
    );
    l.set(
        "pas-server.http_429",
        traced.samples.iter().map(|s| s.http_429).sum::<u64>() as f64,
        jobs,
    );
    if w == Workload::DistCold {
        l.set(
            "pas-dist.shards_per_job",
            traced.shards as f64 / jobs.max(1) as f64,
            jobs,
        );
        l.set(
            "pas-dist.overhead_us",
            unattributed_us,
            unattributed.len() as u64,
        );
        l.set(
            "pas-dist.worker_cpu_us_per_point",
            traced.worker_cpu_s * 1e6 / points,
            traced.points(),
        );
    }
    let pps = |p: &Phase| p.points() as f64 / p.wall_s;
    l.set(
        "bench.trace_overhead_pct",
        (pps(untraced) / pps(traced) - 1.0) * 100.0,
        2,
    );
    l.into_metrics()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_table_rows() {
        let table = "id     name             threads  alive  leases  shards  points    pts/s  seen(ms)\n\
                     1      worker-77              2    yes       0       3     324    950.0        12\n\
                     2      worker-78              2     no       0       1     108      0.0     20000\n";
        assert_eq!(
            parse_workers(table),
            vec![
                WorkerRow {
                    alive: true,
                    shards: 3
                },
                WorkerRow {
                    alive: false,
                    shards: 1
                }
            ]
        );
        assert!(parse_workers("id name\n").is_empty());
    }
}
