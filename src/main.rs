//! `pas` — run declarative PAS experiment batches from the command line.
//!
//! ```text
//! pas list                         enumerate built-in scenarios
//! pas show <name>                  print a built-in manifest's TOML
//! pas validate <path>              parse + validate a manifest file
//! pas expand <name|path>           print the expanded run matrix shape
//! pas run <name|path> [options]    execute a batch and report summaries
//! pas report <src> [options]       statistical report (md/json/svg) of a
//!                                  batch, manifest, or saved sink file
//! pas serve [options]              run the batch API server
//! pas worker [options]             join a server as an execution worker
//! pas submit <name|path> [options] run a batch on a server (with caching)
//! pas status [options]             server health + per-worker progress
//! pas top [options]                live fleet dashboard from /metrics/history
//! pas profile [options]            region profile: flamegraph / folded / json
//! ```
//!
//! Scenario arguments resolve against the built-in registry first and fall
//! back to the filesystem, so `pas run paper-default` and
//! `pas run my/batch.toml` both work. `pas submit` sends the same manifest
//! to a `pas serve` instance and returns results byte-identical to
//! `pas run` — warm submissions are answered from the server's
//! content-addressed cache without re-simulating, and with
//! `--no-local-exec` the batch is sharded across a `pas worker` fleet
//! with the same byte-for-byte guarantee.

use pas_dist::{Scheduler, SchedulerOptions, WorkerOptions};
use pas_obs::json;
use pas_scenario::{execute, expand, registry, ExecOptions, Manifest};
use pas_server::{
    Client, ClientError, HistoryFormat, ProfileFormat, ResultCache, ResultFormat, RetryPolicy,
    Server, ServerOptions, TraceFormat,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Default server address (loopback; pick a fixed high port).
const DEFAULT_ADDR: &str = "127.0.0.1:8479";

fn usage() -> &'static str {
    "pas — declarative PAS experiment batches

USAGE:
    pas list                          enumerate built-in scenarios
    pas show <name>                   print a built-in manifest's TOML
    pas validate <path>               parse + validate a manifest file
    pas expand <name|path>            print the expanded run matrix shape
    pas run <name|path> [options]     execute a batch and report summaries
    pas report <src> [options]        statistical report of a batch: src is a
                                      scenario name, manifest path, or a saved
                                      .jsonl/.csv sink file
    pas serve [options]               run the batch API server
    pas worker [options]              join a server as an execution worker
    pas submit <name|path> [options]  run a batch on a server (with caching)
    pas status [options]              server health + per-worker progress
    pas top [options]                 live terminal dashboard: rates, queue,
                                      cache, latency, per-worker lanes with
                                      sparklines, refreshing in place
    pas trace <job-id> [options]      fetch a job's causal span trace
    pas profile [<name|path>] [opts]  region profile: run a manifest locally
                                      (detail regions on) or sample a running
                                      server's /profile window, as a folded
                                      stack listing, SVG flamegraph, or JSON

RUN OPTIONS:
    --out FILE.csv       write per-point delay/energy summaries
    --raw FILE.jsonl     write every run as one JSON object per line
    --threads N          worker threads (0 = manifest [run] threads, then
                         all cores; 1 = sequential)
    --quiet              suppress the stdout table

REPORT OPTIONS:
    --format FMT         md (default) | json | svg
    --out FILE           write the report to FILE instead of stdout
    --compare A B        paired-by-seed comparison of policies A − B
                         (default: PAS − SAS when both labels exist)
    --threads N          worker threads when src needs executing
    --quiet              suppress progress on stderr

SERVE OPTIONS:
    --addr HOST:PORT     bind address            (default 127.0.0.1:8479)
    --cache-dir DIR      result cache directory  (default .pas-cache)
    --threads N          worker threads per job  (default: manifest, then cores)
    --queue-cap N        max queued jobs before 429 (default 64)
    --no-local-exec      don't execute jobs in-process; leave them to the
                         distributed scheduler and `pas worker` fleet
    --lease-ms N         shard lease lifetime    (default 10000)
    --heartbeat-ms N     worker heartbeat cadence (default 2000)
    --shard-points N     points per shard (default 0 = auto)
    --metrics            expose the Prometheus text registry at GET /metrics
                         and the sampled time series at GET /metrics/history
    --history-interval-ms N  metric history sampling interval (default 1000;
                         needs --metrics)
    --history-retention N    samples retained per series (default 120;
                         needs --metrics)

WORKER OPTIONS:
    --connect HOST:PORT  server address          (default 127.0.0.1:8479)
    --threads N          local execution threads (default all cores)
    --name NAME          fleet display name      (default worker-<pid>)
    --max-shards N       exit after N shards (default: run until drain)
    --fail-after-points N  fault-injection drill: crash (no report) after
                         executing N points
    --quiet              suppress lease/report progress on stderr

SUBMIT OPTIONS:
    --addr HOST:PORT     server address          (default 127.0.0.1:8479)
    --out FILE.csv       write the returned summary CSV
    --raw FILE.jsonl     also fetch per-run JSONL
    --poll-ms N          status poll interval    (default 200)
    --retries N          backoff retries on 429/conn-refused (default 8)
    -v, --verbose        print a per-cause retry tally, a live points/s
                         readout while the job runs, and, when the
                         server exposes traces (`pas serve --metrics`),
                         a queued/execute/download latency breakdown
    --quiet              suppress progress; print nothing but errors

STATUS OPTIONS:
    --addr HOST:PORT     server address          (default 127.0.0.1:8479)
    --metrics            also render the server's /metrics exposition:
                         counters and gauges verbatim, histograms as one
                         p50/p95/p99 summary line per series
                         (the server must run with `pas serve --metrics`)
    --raw                with --metrics, dump the exposition verbatim
                         (raw histogram buckets included); without it the
                         summary also derives req/s and points/s from the
                         server's metric history when available

TOP OPTIONS:
    --addr HOST:PORT     server address          (default 127.0.0.1:8479)
    --interval-ms N      refresh interval        (default 1000)
    --frames N           render N frames then exit (default: until Ctrl-C)
                         (the server must run with `pas serve --metrics`)

TRACE OPTIONS:
    --addr HOST:PORT     server address          (default 127.0.0.1:8479)
    --format FMT         tree (default) | chrome | critical-path:
                         deterministic span tree, Chrome trace-event JSON
                         (load in chrome://tracing or Perfetto), or the
                         per-name self-time ranking
                         (the server must run with `pas serve --metrics`)

PROFILE OPTIONS:
    <name|path>          local mode: execute this scenario with region
                         profiling (detail regions included) and render
                         the in-process profile
    --serve-url HOST:PORT  remote mode: fetch GET /profile from a running
                         `pas serve --metrics` instance instead
    --seconds N          remote mode: reset the server's table and profile
                         a fresh N-second window (max 60)
    --format FMT         folded (default) | svg | json
    --hz N               local mode: also run the wall-clock sampler at
                         N Hz, populating per-stack sample counts
    --threads N          local mode: execution threads (default 1)
    --out FILE           write the rendering to FILE instead of stdout
"
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

/// Registry name first, file path second.
fn load(arg: &str) -> Result<Manifest, String> {
    if let Some(parsed) = registry::get(arg) {
        return parsed.map_err(|e| format!("built-in `{arg}`: {e}"));
    }
    let path = Path::new(arg);
    if path.exists() {
        Manifest::from_path(path).map_err(|e| e.to_string())
    } else {
        Err(format!(
            "`{arg}` is neither a built-in scenario ({}) nor a file",
            registry::names().join(", ")
        ))
    }
}

fn cmd_list() -> ExitCode {
    println!(
        "{:<20} {:>6} {:>9}  description",
        "name", "runs", "policies"
    );
    for (name, _) in registry::BUILTINS {
        let m = registry::builtin(name).expect("builtins parse");
        let runs = expand(&m).map(|p| p.len()).unwrap_or(0);
        println!(
            "{:<20} {:>6} {:>9}  {}",
            name,
            runs,
            m.policies.len(),
            m.description
        );
    }
    ExitCode::SUCCESS
}

fn cmd_show(name: &str) -> ExitCode {
    match registry::raw(name) {
        Some(src) => {
            print!("{src}");
            ExitCode::SUCCESS
        }
        None => fail(format!(
            "no built-in scenario `{name}` (try: {})",
            registry::names().join(", ")
        )),
    }
}

fn cmd_validate(path: &str) -> ExitCode {
    match Manifest::from_path(Path::new(path)) {
        Ok(m) => match expand(&m) {
            Ok(points) => {
                println!("ok: `{}` expands to {} runs", m.name, points.len());
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        Err(e) => fail(e),
    }
}

fn cmd_expand(arg: &str) -> ExitCode {
    let m = match load(arg) {
        Ok(m) => m,
        Err(e) => return fail(e),
    };
    let points = match expand(&m) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let axis_points: usize = m.sweep.iter().map(|a| a.values.len()).product();
    println!("scenario   {}", m.name);
    println!(
        "matrix     {} axis point(s) x {} policies x {} seeds = {} runs",
        axis_points,
        m.policies.len(),
        m.run.replicates,
        points.len()
    );
    for axis in &m.sweep {
        let values: Vec<String> = axis.values.iter().map(|v| v.to_string()).collect();
        println!("axis       {} = [{}]", axis.field, values.join(", "));
    }
    for p in &m.policies {
        let mut details: Vec<String> = Vec::new();
        if let Some(pred) = &p.predictor {
            details.push(format!("predictor={}", pred.name()));
        }
        details.extend(p.overrides.iter().map(|(k, v)| format!("{k}={v}")));
        println!(
            "policy     {:<10} ({}{}{})",
            p.label,
            p.kind,
            if details.is_empty() { "" } else { "; " },
            details.join(", ")
        );
    }
    ExitCode::SUCCESS
}

struct RunArgs {
    scenario: String,
    out: Option<PathBuf>,
    raw: Option<PathBuf>,
    threads: usize,
    quiet: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut scenario = None;
    let mut out = None;
    let mut raw = None;
    let mut threads = 0usize;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                out = Some(PathBuf::from(v));
            }
            "--raw" => {
                let v = it.next().ok_or("--raw needs a file path")?;
                raw = Some(PathBuf::from(v));
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a number"))?;
            }
            "--quiet" => quiet = true,
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => {
                if scenario.replace(other.to_string()).is_some() {
                    return Err("more than one scenario argument".to_string());
                }
            }
        }
    }
    Ok(RunArgs {
        scenario: scenario.ok_or("missing scenario name or manifest path")?,
        out,
        raw,
        threads,
        quiet,
    })
}

fn cmd_run(args: &[String]) -> ExitCode {
    let run_args = match parse_run_args(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let m = match load(&run_args.scenario) {
        Ok(m) => m,
        Err(e) => return fail(e),
    };
    let n_runs = match expand(&m) {
        Ok(p) => p.len(),
        Err(e) => return fail(e),
    };
    if !run_args.quiet {
        eprintln!("running `{}`: {} runs ...", m.name, n_runs);
    }
    let batch = match execute(
        &m,
        ExecOptions {
            threads: run_args.threads,
        },
    ) {
        Ok(b) => b,
        Err(e) => return fail(e),
    };
    if !run_args.quiet {
        print!("{}", pas_scenario::summary_table(&batch).render());
    }
    if let Some(path) = &run_args.out {
        if let Err(e) = pas_scenario::write_summary_csv(&batch, path) {
            return fail(format!("writing {}: {e}", path.display()));
        }
        if !run_args.quiet {
            println!("wrote {}", path.display());
        }
    }
    if let Some(path) = &run_args.raw {
        if let Err(e) = pas_scenario::write_records_jsonl(&batch, path) {
            return fail(format!("writing {}: {e}", path.display()));
        }
        if !run_args.quiet {
            println!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

struct ReportArgs {
    source: String,
    format: String,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
    threads: usize,
    quiet: bool,
}

fn parse_report_args(args: &[String]) -> Result<ReportArgs, String> {
    let mut source = None;
    let mut format = "md".to_string();
    let mut out = None;
    let mut compare = None;
    let mut threads = 0usize;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let v = it.next().ok_or("--format needs md|json|svg")?;
                if !["md", "json", "svg"].contains(&v.as_str()) {
                    return Err(format!("--format: `{v}` is not md, json, or svg"));
                }
                format = v.clone();
            }
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a file path")?)),
            "--compare" => {
                let a = it.next().ok_or("--compare needs two policy labels")?;
                let b = it.next().ok_or("--compare needs two policy labels")?;
                compare = Some((a.clone(), b.clone()));
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a number"))?;
            }
            "--quiet" => quiet = true,
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => {
                if source.replace(other.to_string()).is_some() {
                    return Err("more than one source argument".to_string());
                }
            }
        }
    }
    Ok(ReportArgs {
        source: source.ok_or("missing source: scenario name, manifest, .jsonl, or .csv")?,
        format,
        out,
        compare,
        threads,
        quiet,
    })
}

fn cmd_report(args: &[String]) -> ExitCode {
    let rep = match parse_report_args(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let opts = pas_report::ReportOptions {
        compare: rep.compare.clone(),
    };
    let path = Path::new(&rep.source);
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase);
    let is_sink_file =
        path.exists() && matches!(ext.as_deref(), Some("jsonl") | Some("ndjson") | Some("csv"));
    let report = if is_sink_file {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(format!("reading {}: {e}", path.display())),
        };
        let built = if ext.as_deref() == Some("csv") {
            // A summary CSV carries only means — there are no per-run
            // replicates to pair, so an explicit comparison request
            // must fail loudly rather than be silently dropped.
            if rep.compare.is_some() {
                return fail(format!(
                    "{}: --compare needs per-run records (a .jsonl sink); \
                     a summary CSV carries only means",
                    path.display()
                ));
            }
            pas_report::parse_summary_csv(&text)
                .map_err(|e| format!("{}: {e}", path.display()))
                .and_then(|ing| {
                    let name = path
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .unwrap_or("summary")
                        .to_string();
                    pas_report::Report::from_summaries(&name, &ing.x_label, &ing.summaries)
                        .map_err(|e| e.to_string())
                })
        } else {
            pas_report::parse_records_jsonl(&text)
                .map_err(|e| format!("{}: {e}", path.display()))
                .and_then(|ing| {
                    pas_report::Report::from_records(
                        &ing.scenario,
                        &ing.x_label,
                        &ing.records,
                        &opts,
                    )
                    .map_err(|e| e.to_string())
                })
        };
        match built {
            Ok(r) => r,
            Err(e) => return fail(e),
        }
    } else {
        let m = match load(&rep.source) {
            Ok(m) => m,
            Err(e) => return fail(e),
        };
        if !rep.quiet {
            let runs = expand(&m).map(|p| p.len()).unwrap_or(0);
            eprintln!("reporting `{}`: {} runs ...", m.name, runs);
        }
        let batch = match execute(
            &m,
            ExecOptions {
                threads: rep.threads,
            },
        ) {
            Ok(b) => b,
            Err(e) => return fail(e),
        };
        match pas_report::Report::from_batch(&batch, &opts) {
            Ok(r) => r,
            Err(e) => return fail(e),
        }
    };
    let body = match rep.format.as_str() {
        "json" => pas_report::render_json(&report),
        "svg" => pas_report::render_svg(&report),
        _ => pas_report::render_md(&report),
    };
    match &rep.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &body) {
                return fail(format!("writing {}: {e}", path.display()));
            }
            if !rep.quiet {
                eprintln!("wrote {}", path.display());
            }
        }
        None => print!("{body}"),
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

struct ServeArgs {
    addr: String,
    cache_dir: PathBuf,
    opts: ServerOptions,
    sched: SchedulerOptions,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut cache_dir = PathBuf::from(".pas-cache");
    let mut opts = ServerOptions::default();
    let mut sched = SchedulerOptions::default();
    let mut it = args.iter();
    let ms = |v: &String, flag: &str| -> Result<Duration, String> {
        v.parse::<u64>()
            .map(Duration::from_millis)
            .map_err(|_| format!("{flag}: `{v}` is not a number"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--cache-dir" => {
                cache_dir = PathBuf::from(it.next().ok_or("--cache-dir needs a path")?)
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                opts.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a number"))?;
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a number")?;
                opts.queue_capacity = v
                    .parse()
                    .map_err(|_| format!("--queue-cap: `{v}` is not a number"))?;
            }
            "--no-local-exec" => opts.local_exec = false,
            "--metrics" => opts.metrics = true,
            "--history-interval-ms" => {
                opts.history_interval = ms(
                    it.next().ok_or("--history-interval-ms needs a number")?,
                    "--history-interval-ms",
                )?;
                if opts.history_interval.is_zero() {
                    return Err("--history-interval-ms must be at least 1".to_string());
                }
            }
            "--history-retention" => {
                let v = it.next().ok_or("--history-retention needs a number")?;
                opts.history_retention = v
                    .parse()
                    .map_err(|_| format!("--history-retention: `{v}` is not a number"))?;
            }
            "--lease-ms" => {
                sched.lease = ms(it.next().ok_or("--lease-ms needs a number")?, "--lease-ms")?
            }
            "--heartbeat-ms" => {
                sched.heartbeat = ms(
                    it.next().ok_or("--heartbeat-ms needs a number")?,
                    "--heartbeat-ms",
                )?
            }
            "--shard-points" => {
                let v = it.next().ok_or("--shard-points needs a number")?;
                sched.shard_points = v
                    .parse()
                    .map_err(|_| format!("--shard-points: `{v}` is not a number"))?;
            }
            other => return Err(format!("unknown serve option `{other}`")),
        }
    }
    Ok(ServeArgs {
        addr,
        cache_dir,
        opts,
        sched,
    })
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let serve = match parse_serve_args(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let cache = match ResultCache::open(&serve.cache_dir) {
        Ok(c) => c,
        Err(e) => return fail(format!("opening cache {}: {e}", serve.cache_dir.display())),
    };
    // Spans are readable only through `GET /jobs/:id/trace`, which rides
    // `--metrics`; without it, recording them would only fill memory.
    pas_obs::trace::set_tracing(serve.opts.metrics);
    let warm = cache.len();
    let mut server = match Server::bind(serve.addr.as_str(), cache.clone(), serve.opts) {
        Ok(s) => s,
        Err(e) => return fail(format!("binding {}: {e}", serve.addr)),
    };
    // The distributed scheduler rides on the same listener: `/healthz`
    // plus the `/dist/*` worker protocol. With --no-local-exec it is the
    // only execution backend; otherwise it coexists with the in-process
    // pool (each job runs on exactly one of the two).
    let scheduler = Scheduler::new(server.queue(), cache, serve.sched);
    scheduler.spawn_ticker();
    server.set_router(scheduler.into_router());
    match server.local_addr() {
        Ok(addr) => eprintln!(
            "pas-server listening on {addr} (cache: {}, {warm} warm entries, {})",
            serve.cache_dir.display(),
            if serve.opts.local_exec {
                "local exec + dist"
            } else {
                "dist only"
            }
        ),
        Err(_) => eprintln!("pas-server listening on {}", serve.addr),
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(format!("server: {e}")),
    }
}

// ---------------------------------------------------------------------------
// worker / status
// ---------------------------------------------------------------------------

fn parse_worker_args(args: &[String]) -> Result<(String, WorkerOptions), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut opts = WorkerOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => addr = it.next().ok_or("--connect needs HOST:PORT")?.clone(),
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                opts.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a number"))?;
            }
            "--name" => opts.name = it.next().ok_or("--name needs a value")?.clone(),
            "--max-shards" => {
                let v = it.next().ok_or("--max-shards needs a number")?;
                opts.max_shards = Some(
                    v.parse()
                        .map_err(|_| format!("--max-shards: `{v}` is not a number"))?,
                );
            }
            "--fail-after-points" => {
                let v = it.next().ok_or("--fail-after-points needs a number")?;
                opts.fail_after_points = Some(
                    v.parse()
                        .map_err(|_| format!("--fail-after-points: `{v}` is not a number"))?,
                );
            }
            "--quiet" => opts.verbose = false,
            other => return Err(format!("unknown worker option `{other}`")),
        }
    }
    Ok((addr, opts))
}

fn cmd_worker(args: &[String]) -> ExitCode {
    let (addr, mut opts) = match parse_worker_args(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    opts.verbose = opts.verbose || std::env::var_os("PAS_WORKER_VERBOSE").is_some();
    eprintln!("pas-worker `{}` connecting to {addr}", opts.name);
    match pas_dist::worker::run(&addr, opts) {
        Ok(summary) => {
            eprintln!(
                "pas-worker {}: {} shards, {} points{}",
                summary.worker,
                summary.shards,
                summary.points,
                if summary.died { " (died by drill)" } else { "" }
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("worker: {e}")),
    }
}

fn cmd_status(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut metrics = false;
    let mut raw = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => return fail("--addr needs HOST:PORT"),
            },
            "--metrics" => metrics = true,
            "--raw" => raw = true,
            other => return fail(format!("unknown status option `{other}`")),
        }
    }
    let client = Client::new(addr.clone());
    let health = match client.healthz() {
        Ok(h) => h,
        Err(e) => return fail(format!("{addr}: {e}")),
    };
    println!("server     {addr}");
    // The two `_dropped` keys surface telemetry loss: spans evicted from
    // the trace ring and scopes lost to profile-table overflow. Non-zero
    // means `pas trace` / `pas profile` output is incomplete.
    for key in [
        "queue_depth",
        "active_jobs",
        "workers",
        "trace_dropped",
        "profile_dropped",
    ] {
        if let Some(v) = json::find_u64(&health, key) {
            println!("{key:<15} {v}");
        }
    }
    if let Some(true) = json::find_bool(&health, "draining") {
        println!("draining        yes");
    }
    match client.workers_table() {
        Ok(table) if !table.trim().is_empty() => {
            println!();
            print!("{table}");
        }
        _ => {}
    }
    if metrics {
        match client.metrics() {
            Ok(text) => {
                println!();
                if raw {
                    print!("{text}");
                } else {
                    // Derived rates lead the summary: the cumulative
                    // counters below say how much ever happened, two
                    // history samples say how fast it is happening now.
                    if let Some(rates) = status_rates(&client) {
                        print!("{rates}");
                        println!();
                    }
                    print!("{}", summarize_metrics(&text));
                }
            }
            Err(e) => {
                return fail(format!(
                    "{addr}: /metrics: {e} (is the server running with --metrics?)"
                ))
            }
        }
    }
    ExitCode::SUCCESS
}

/// Current rates from the server's metric history (`req/s`, submits/s,
/// points/s), each the newest sampling window's derivative. `None` when
/// the server has no history (older build, or sampler not yet warm) —
/// the status summary then just shows cumulative counters as before.
fn status_rates(client: &Client) -> Option<String> {
    let body = client.metrics_history(HistoryFormat::Json).ok()?;
    let dump = pas_obs::history::parse_dump(std::str::from_utf8(&body).ok()?)?;
    if dump.series.is_empty() {
        return None;
    }
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "req/s           {:.1}",
        dump.rate_sum("pas.server.http.requests.count", None)
    );
    let _ = writeln!(
        out,
        "submits/s       {:.1}",
        dump.rate_sum("pas.queue.submit.count", None)
    );
    let _ = writeln!(
        out,
        "points/s        {:.1}",
        dump.rate_sum("pas.exec.points.count", None)
            + dump.rate_sum(
                "pas.dist.report.points.count",
                Some(("outcome", "accepted"))
            )
    );
    Some(out)
}

/// One histogram label-set being folded down while summarizing a
/// Prometheus exposition: cumulative buckets in exposition order, then
/// the trailing `_sum`/`_count` pair.
#[derive(Default)]
struct HistAcc {
    buckets: Vec<(String, u64)>,
    sum: String,
}

/// The smallest bucket bound covering quantile `q`, as `<=BOUND` — or
/// `>LAST_FINITE` when the mass lands in the `+Inf` overflow bucket.
fn hist_quantile(buckets: &[(String, u64)], count: u64, q: f64) -> String {
    let target = (q * count as f64).ceil().max(1.0) as u64;
    for (i, (le, cum)) in buckets.iter().enumerate() {
        if *cum < target {
            continue;
        }
        if le != "+Inf" {
            return format!("<={le}");
        }
        return match i.checked_sub(1).and_then(|j| buckets.get(j)) {
            Some((prev, _)) => format!(">{prev}"),
            None => ">0".to_string(),
        };
    }
    "=?".to_string()
}

/// Re-render a Prometheus text exposition for human eyes: counter and
/// gauge lines (and `# TYPE` headers) pass through verbatim — scripts
/// grepping e.g. `pas_server_http_requests_count` keep working — while
/// each histogram label-set's bucket/sum/count block collapses into one
/// `name{labels} count=N sum=S p50.. p95.. p99..` line. Quantiles are
/// bucket-bound estimates, which is all a fixed-bound histogram can say.
fn summarize_metrics(text: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    // Name of the histogram the current `# TYPE` block declares, if any.
    let mut hist: Option<String> = None;
    let mut acc = HistAcc::default();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            hist = rest
                .split_once(' ')
                .filter(|(_, kind)| *kind == "histogram")
                .map(|(name, _)| name.to_string());
            acc = HistAcc::default();
            out.push_str(line);
            out.push('\n');
            continue;
        }
        // Within a histogram block each label set is contiguous:
        // buckets ascending, then `_sum`, then `_count` — so the count
        // line is the flush point.
        let series = hist.as_deref().and_then(|name| {
            let tail = line.strip_prefix(name)?;
            let (head, value) = tail.rsplit_once(' ')?;
            Some((head.to_string(), value.to_string()))
        });
        match series {
            Some((head, value)) if head.starts_with("_bucket") => {
                let le = head
                    .split_once("le=\"")
                    .and_then(|(_, r)| r.split_once('"'))
                    .map(|(le, _)| le.to_string())
                    .unwrap_or_default();
                acc.buckets.push((le, value.parse().unwrap_or(0)));
            }
            Some((head, value)) if head.starts_with("_sum") => {
                acc.sum = value;
            }
            Some((head, value)) if head.starts_with("_count") => {
                let labels = head.strip_prefix("_count").unwrap_or("");
                let count: u64 = value.parse().unwrap_or(0);
                let name = hist.as_deref().unwrap_or("");
                if count == 0 {
                    let _ = writeln!(out, "{name}{labels} count=0");
                } else {
                    let _ = writeln!(
                        out,
                        "{name}{labels} count={count} sum={} p50{} p95{} p99{}",
                        acc.sum,
                        hist_quantile(&acc.buckets, count, 0.50),
                        hist_quantile(&acc.buckets, count, 0.95),
                        hist_quantile(&acc.buckets, count, 0.99),
                    );
                }
                acc = HistAcc::default();
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// top
// ---------------------------------------------------------------------------

/// Render up to `width` trailing values as a unicode sparkline, scaled
/// to their own min..max (a flat series renders as a low bar, not
/// noise). Non-finite values (empty percentile windows) leave a gap.
fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail: Vec<f64> = values
        .iter()
        .copied()
        .skip(values.len().saturating_sub(width))
        .collect();
    let finite: Vec<f64> = tail.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    tail.iter()
        .map(|v| {
            if !v.is_finite() {
                ' '
            } else {
                let idx = ((v - lo) / span * 7.0).round() as usize;
                BARS[idx.min(7)]
            }
        })
        .collect()
}

/// One `pas top` frame, rendered from a healthz body and a parsed
/// metric history. Pure so the layout is unit-testable; every line is
/// erase-to-eol terminated by the caller.
fn top_frame(addr: &str, health: &str, dump: &pas_obs::history::Dump, frame: u64) -> Vec<String> {
    use std::fmt::Write as _;
    let h_u64 = |k: &str| json::find_u64(health, k).unwrap_or(0);
    let mut lines = Vec::new();
    lines.push(format!(
        "pas top — {addr} · up {}s · {} worker(s) · frame {frame} (Ctrl-C quits)",
        h_u64("uptime_s"),
        h_u64("workers").max(h_u64("workers_alive")),
    ));
    lines.push(String::new());

    let depth = dump
        .named("pas.queue.depth.jobs")
        .next()
        .map(|s| s.values.clone())
        .unwrap_or_default();
    lines.push(format!(
        "queue    depth {:<5} {:<24} submits/s {:<8.1} jobs done/s {:<8.1}",
        h_u64("queue_depth"),
        sparkline(&depth, 24),
        dump.rate_sum("pas.queue.submit.count", None),
        dump.rate_sum("pas.queue.jobs.count", None),
    ));

    let points_rate = dump.rate_sum("pas.exec.points.count", None)
        + dump.rate_sum(
            "pas.dist.report.points.count",
            Some(("outcome", "accepted")),
        );
    let hit_rate = dump.rate_sum("pas.cache.lookup.count", Some(("outcome", "hit")));
    let miss_rate = dump.rate_sum("pas.cache.lookup.count", Some(("outcome", "miss")));
    let lookups = hit_rate + miss_rate;
    let mut line = format!("exec     points/s {points_rate:<10.1} cache ");
    if lookups > 0.0 {
        let _ = write!(
            line,
            "{:.0}% hit of {lookups:.1}/s",
            100.0 * hit_rate / lookups
        );
    } else {
        line.push_str("idle");
    }
    lines.push(line);

    // HTTP: total request rate plus the busiest route's window
    // percentiles. (Percentiles cannot be merged across routes — the
    // buckets can, but one route's tail would vanish into another's
    // bulk — so the dashboard shows the hottest route honestly.)
    let req_rate = dump.rate_sum("pas.server.http.requests.count", None);
    let busiest = dump
        .named("pas.server.http.latency.microseconds")
        .filter(|s| s.count_rate.last().copied().unwrap_or(0.0) > 0.0)
        .max_by(|a, b| {
            a.count_rate
                .last()
                .copied()
                .unwrap_or(0.0)
                .total_cmp(&b.count_rate.last().copied().unwrap_or(0.0))
        });
    let mut line = format!("http     req/s {req_rate:<10.1}");
    if let Some(s) = busiest {
        let q = |v: &[f64]| v.last().copied().filter(|v| v.is_finite());
        if let (Some(p50), Some(p95), Some(p99)) = (q(&s.p50), (q(&s.p95)), q(&s.p99)) {
            let _ = write!(
                line,
                " {} p50 {p50:.0}us p95 {p95:.0}us p99 {p99:.0}us",
                s.label("route").unwrap_or("?"),
            );
        }
    }
    lines.push(line);

    // One lane per dist worker: executed points carried as a cumulative
    // gauge on heartbeats, differenced into a rate lane here.
    let mut workers: Vec<_> = dump.named("pas.dist.worker.executed.points").collect();
    workers.sort_by_key(|s| s.label("worker").unwrap_or("").to_string());
    if !workers.is_empty() {
        lines.push(String::new());
        lines.push(format!("workers  ({} reporting)", workers.len()));
        for s in workers {
            let rates = s.gauge_rates();
            lines.push(format!(
                "  {:<16} {:<24} {:>8.1} points/s",
                s.label("worker").unwrap_or("?"),
                sparkline(&rates, 24),
                rates.last().copied().unwrap_or(0.0),
            ));
        }
    }
    lines
}

fn cmd_top(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut interval_ms = 1000u64;
    let mut frames: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => return fail("--addr needs HOST:PORT"),
            },
            "--interval-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => interval_ms = n,
                _ => return fail("--interval-ms needs a number >= 1"),
            },
            "--frames" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => frames = Some(n),
                _ => return fail("--frames needs a number >= 1"),
            },
            other => return fail(format!("unknown top option `{other}`")),
        }
    }
    let client = Client::new(addr.clone());
    let mut frame = 0u64;
    loop {
        let health = match client.healthz() {
            Ok(h) => h,
            Err(e) => return fail(format!("{addr}: {e}")),
        };
        let body = match client.metrics_history(HistoryFormat::Json) {
            Ok(b) => b,
            // The degradation path: a server without `--metrics` refuses
            // with guidance — report it instead of an empty dashboard.
            Err(ClientError::Api(status, msg)) => {
                return fail(format!("{addr}: /metrics/history: {status} {msg}"))
            }
            Err(e) => return fail(format!("{addr}: /metrics/history: {e}")),
        };
        let Some(dump) = std::str::from_utf8(&body)
            .ok()
            .and_then(pas_obs::history::parse_dump)
        else {
            return fail(format!(
                "{addr}: /metrics/history returned unparseable JSON"
            ));
        };
        frame += 1;
        // First frame clears the screen; later ones repaint from the
        // top-left and erase each line's tail, so the view refreshes in
        // place without flicker.
        let mut out = if frame == 1 {
            "\x1b[2J\x1b[H".to_string()
        } else {
            "\x1b[H".to_string()
        };
        for line in top_frame(&addr, &health, &dump, frame) {
            out.push_str(&line);
            out.push_str("\x1b[K\n");
        }
        out.push_str("\x1b[J");
        print!("{out}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if frames.is_some_and(|n| frame >= n) {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

fn cmd_trace(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut format = TraceFormat::Tree;
    let mut job: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => return fail("--addr needs HOST:PORT"),
            },
            "--format" => match it.next().map(String::as_str) {
                Some("tree") => format = TraceFormat::Tree,
                Some("chrome") => format = TraceFormat::Chrome,
                Some("critical-path") => format = TraceFormat::CriticalPath,
                _ => return fail("--format needs tree, chrome, or critical-path"),
            },
            other if other.starts_with('-') => {
                return fail(format!("unknown trace option `{other}`"))
            }
            other => match other.parse() {
                Ok(id) if job.is_none() => job = Some(id),
                Ok(_) => return fail("more than one job id"),
                Err(_) => return fail(format!("`{other}` is not a job id")),
            },
        }
    }
    let Some(id) = job else {
        return fail("trace needs a job id (printed by `pas submit -v`, or in GET /jobs/:id)");
    };
    let client = Client::new(addr.clone());
    match client.trace(id, format) {
        Ok(body) => {
            print!("{}", String::from_utf8_lossy(&body));
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!(
            "{addr}: /jobs/{id}/trace: {e} (is the server running with --metrics?)"
        )),
    }
}

// ---------------------------------------------------------------------------
// profile
// ---------------------------------------------------------------------------

struct ProfileArgs {
    scenario: Option<String>,
    serve_url: Option<String>,
    seconds: Option<u64>,
    format: ProfileFormat,
    hz: Option<u32>,
    threads: usize,
    out: Option<PathBuf>,
}

fn parse_profile_args(args: &[String]) -> Result<ProfileArgs, String> {
    let mut scenario = None;
    let mut serve_url = None;
    let mut seconds = None;
    let mut format = ProfileFormat::Folded;
    let mut hz = None;
    let mut threads = 1usize;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--serve-url" | "--addr" => {
                serve_url = Some(it.next().ok_or("--serve-url needs HOST:PORT")?.clone())
            }
            "--seconds" => {
                let v = it.next().ok_or("--seconds needs a number")?;
                seconds = Some(
                    v.parse()
                        .map_err(|_| format!("--seconds: `{v}` is not a number"))?,
                );
            }
            "--format" => match it.next().map(String::as_str) {
                Some("folded") => format = ProfileFormat::Folded,
                Some("svg") => format = ProfileFormat::Svg,
                Some("json") => format = ProfileFormat::Json,
                _ => return Err("--format needs folded, svg, or json".to_string()),
            },
            "--hz" => {
                let v = it.next().ok_or("--hz needs a number")?;
                hz = Some(
                    v.parse()
                        .map_err(|_| format!("--hz: `{v}` is not a number"))?,
                );
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a number"))?;
            }
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a file path")?)),
            other if other.starts_with('-') => {
                return Err(format!("unknown profile option `{other}`"))
            }
            other => {
                if scenario.replace(other.to_string()).is_some() {
                    return Err("more than one scenario argument".to_string());
                }
            }
        }
    }
    Ok(ProfileArgs {
        scenario,
        serve_url,
        seconds,
        format,
        hz,
        threads,
        out,
    })
}

/// `pas profile`: render a region profile as folded stacks, an SVG
/// flamegraph, or JSON. Remote mode (`--serve-url`) fetches a running
/// server's `/profile`; local mode executes a scenario in-process with
/// the detail regions (per-event sim hot-loop scopes) switched on.
fn cmd_profile(args: &[String]) -> ExitCode {
    let pa = match parse_profile_args(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let body: Vec<u8> = match (&pa.serve_url, &pa.scenario) {
        (Some(_), Some(_)) => {
            return fail("give either a scenario or --serve-url, not both");
        }
        (Some(addr), None) => {
            let client = Client::new(addr.clone());
            match client.profile(pa.format, pa.seconds) {
                Ok(b) => b,
                Err(e) => {
                    return fail(format!(
                        "{addr}: /profile: {e} (is the server running with --metrics?)"
                    ))
                }
            }
        }
        (None, Some(src)) => {
            if pa.seconds.is_some() {
                return fail("--seconds only applies to --serve-url mode");
            }
            let m = match load(src) {
                Ok(m) => m,
                Err(e) => return fail(e),
            };
            // Local mode owns the process: add the detail regions the
            // always-on coarse set leaves out, start from a zeroed table.
            pas_obs::profile::set_detail(true);
            pas_obs::profile::reset();
            let sampler = pa.hz.map(pas_obs::profile::start_sampler);
            let result = execute(
                &m,
                ExecOptions {
                    threads: pa.threads,
                },
            );
            // Join the sampler before rendering so its last tick lands.
            drop(sampler);
            pas_obs::profile::set_detail(false);
            if let Err(e) = result {
                return fail(e);
            }
            match pa.format {
                ProfileFormat::Folded => pas_obs::profile::render_folded(),
                ProfileFormat::Svg => pas_obs::profile::render_svg(),
                ProfileFormat::Json => pas_obs::profile::render_json(),
            }
            .into_bytes()
        }
        (None, None) => {
            return fail("profile needs a scenario name/manifest path or --serve-url HOST:PORT");
        }
    };
    match &pa.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &body) {
                return fail(format!("writing {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
        None => print!("{}", String::from_utf8_lossy(&body)),
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// submit
// ---------------------------------------------------------------------------

struct SubmitArgs {
    scenario: String,
    addr: String,
    out: Option<PathBuf>,
    raw: Option<PathBuf>,
    poll_ms: u64,
    retries: u32,
    verbose: bool,
    quiet: bool,
}

fn parse_submit_args(args: &[String]) -> Result<SubmitArgs, String> {
    let mut scenario = None;
    let mut addr = DEFAULT_ADDR.to_string();
    let mut out = None;
    let mut raw = None;
    let mut poll_ms = 200u64;
    let mut retries = 8u32;
    let mut verbose = false;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a file path")?)),
            "--raw" => raw = Some(PathBuf::from(it.next().ok_or("--raw needs a file path")?)),
            "--poll-ms" => {
                let v = it.next().ok_or("--poll-ms needs a number")?;
                poll_ms = v
                    .parse()
                    .map_err(|_| format!("--poll-ms: `{v}` is not a number"))?;
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a number")?;
                retries = v
                    .parse()
                    .map_err(|_| format!("--retries: `{v}` is not a number"))?;
            }
            "-v" | "--verbose" => verbose = true,
            "--quiet" => quiet = true,
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => {
                if scenario.replace(other.to_string()).is_some() {
                    return Err("more than one scenario argument".to_string());
                }
            }
        }
    }
    Ok(SubmitArgs {
        scenario: scenario.ok_or("missing scenario name or manifest path")?,
        addr,
        out,
        raw,
        poll_ms,
        retries,
        verbose,
        quiet,
    })
}

fn cmd_submit(args: &[String]) -> ExitCode {
    let sub = match parse_submit_args(args) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let m = match load(&sub.scenario) {
        Ok(m) => m,
        Err(e) => return fail(e),
    };
    let client = Client::new(sub.addr.clone());
    // Transient failures — the server still booting (connection refused)
    // or shedding load (429) — back off exponentially with jitter instead
    // of failing the whole batch submission.
    // `--retries N` means N retries on top of the first attempt.
    let policy = RetryPolicy {
        attempts: sub.retries.saturating_add(1),
        ..RetryPolicy::default()
    };
    let quiet = sub.quiet;
    // `-v` keeps a per-cause tally of what the retries actually hit
    // (refused vs backpressure vs timeout ...), mirroring the
    // `pas.client.submit.retries.count{cause}` series the client
    // records in the metrics registry.
    let mut retry_tally: Vec<(&'static str, u32)> = Vec::new();
    let id = match client.submit_with_retry(&m.to_toml(), policy, |attempt, err| {
        let cause = pas_server::retry_cause(err);
        match retry_tally.iter_mut().find(|(c, _)| *c == cause) {
            Some((_, n)) => *n += 1,
            None => retry_tally.push((cause, 1)),
        }
        if !quiet {
            eprintln!("submit retry {attempt}/{}: {err}", policy.attempts - 1);
        }
    }) {
        Ok(id) => id,
        Err(e) => return fail(e),
    };
    if sub.verbose && !sub.quiet {
        if retry_tally.is_empty() {
            eprintln!("retries   none (first attempt accepted)");
        } else {
            let total: u32 = retry_tally.iter().map(|(_, n)| n).sum();
            let causes: Vec<String> = retry_tally
                .iter()
                .map(|(c, n)| format!("{c}={n}"))
                .collect();
            eprintln!("retries   {total} ({})", causes.join(", "));
        }
    }
    if !sub.quiet {
        eprintln!("submitted `{}` to {} as job {id}", m.name, sub.addr);
    }
    let poll = std::time::Duration::from_millis(sub.poll_ms.max(1));
    let status = if sub.verbose && !sub.quiet {
        // Live rate readout: difference consecutive status polls, the
        // same derivation the server's SSE `progress` frames use.
        let mut mark: Option<(std::time::Instant, u64)> = None;
        let mut printed = false;
        let result = client.wait_with(id, poll, |s| {
            let now = std::time::Instant::now();
            if let Some((at, done)) = mark {
                let dt = now.duration_since(at).as_secs_f64();
                if s.phase == "running" && dt > 0.0 && s.done > done {
                    eprint!(
                        "\rrunning   {}/{} points ({:.0} points/s)  ",
                        s.done,
                        s.total,
                        (s.done - done) as f64 / dt
                    );
                    printed = true;
                }
            }
            if mark.is_none_or(|(_, done)| done != s.done) {
                mark = Some((now, s.done));
            }
        });
        if printed {
            eprintln!();
        }
        result
    } else {
        client.wait(id, poll)
    };
    let status = match status {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if status.phase != "completed" {
        return fail(format!(
            "job {id} {}: {}",
            status.phase,
            status.error.unwrap_or_else(|| "unknown error".to_string())
        ));
    }
    if !sub.quiet {
        eprintln!(
            "job {id} completed: {} runs, {} from cache, {} simulated",
            status.total, status.cache_hits, status.cache_misses
        );
    }
    let t_download = std::time::Instant::now();
    let csv = match client.results(id, ResultFormat::Csv) {
        Ok(b) => b,
        Err(e) => return fail(e),
    };
    let download_us = t_download.elapsed().as_micros() as u64;
    if sub.verbose && !sub.quiet {
        // Latency breakdown from the job's trace: where did the
        // submit→complete wall time actually go? Server-side phases come
        // from the span tree; the download leg is measured client-side.
        match client.trace(id, TraceFormat::Chrome) {
            Ok(body) => {
                let chrome = String::from_utf8_lossy(&body);
                // `(name, ts, dur)` of every complete (`X`) trace event.
                let events: Vec<(String, u64, u64)> = json::Value::parse(&chrome)
                    .and_then(|t| t.get("traceEvents")?.elements())
                    .into_iter()
                    .flatten()
                    .filter_map(|e| {
                        let field = |k| e.get(k)?.as_u64();
                        Some((e.get("name")?.as_string()?, field("ts")?, field("dur")?))
                    })
                    .collect();
                let named = |name: &'static str| events.iter().filter(move |(n, ..)| n == name);
                let dur = |name| named(name).next().map_or(0, |(_, _, d)| *d);
                let total = dur("job");
                let queued = dur("job.queued");
                // Local-exec jobs have one `job.execute`; distributed
                // jobs spread execution over concurrent
                // `worker.shard.execute` spans, so take their wall-clock
                // envelope (first start → last end), not the sum.
                let execute = match named("job.execute").next() {
                    Some((_, _, d)) => *d,
                    None => {
                        let shards = named("worker.shard.execute");
                        let lo = shards.clone().map(|(_, ts, _)| *ts).min().unwrap_or(0);
                        let hi = shards.map(|(_, ts, d)| ts + d).max().unwrap_or(0);
                        hi.saturating_sub(lo)
                    }
                };
                let trace_id = status.trace.as_deref().unwrap_or("?");
                eprintln!(
                    "latency   total {total}us = queued {queued}us + execute {execute}us \
                     + other {}us; download {download_us}us (trace {trace_id}, \
                     `pas trace {id} --format critical-path`)",
                    total.saturating_sub(queued).saturating_sub(execute),
                );
            }
            Err(_) => {
                eprintln!(
                    "latency   trace unavailable (server without --metrics?); \
                     download {download_us}us"
                );
            }
        }
    }
    match &sub.out {
        // The body is written verbatim: byte-identical to `pas run --out`.
        Some(path) => {
            if let Err(e) = std::fs::write(path, &csv) {
                return fail(format!("writing {}: {e}", path.display()));
            }
            if !sub.quiet {
                println!("wrote {}", path.display());
            }
        }
        None => print!("{}", String::from_utf8_lossy(&csv)),
    }
    if let Some(path) = &sub.raw {
        let jsonl = match client.results(id, ResultFormat::Jsonl) {
            Ok(b) => b,
            Err(e) => return fail(e),
        };
        if let Err(e) = std::fs::write(path, &jsonl) {
            return fail(format!("writing {}: {e}", path.display()));
        }
        if !sub.quiet {
            println!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("show") => match args.get(1) {
            Some(name) => cmd_show(name),
            None => fail("show needs a scenario name"),
        },
        Some("validate") => match args.get(1) {
            Some(path) => cmd_validate(path),
            None => fail("validate needs a manifest path"),
        },
        Some("expand") => match args.get(1) {
            Some(arg) => cmd_expand(arg),
            None => fail("expand needs a scenario name or manifest path"),
        },
        Some("run") => cmd_run(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        Some(other) => fail(format!("unknown command `{other}`\n\n{}", usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_passes_counters_verbatim_and_folds_histograms() {
        let text = "\
# TYPE pas_server_http_requests_count counter
pas_server_http_requests_count{route=\"/jobs\"} 7
# TYPE pas_t_microseconds histogram
pas_t_microseconds_bucket{route=\"/jobs\",le=\"10\"} 1
pas_t_microseconds_bucket{route=\"/jobs\",le=\"100\"} 2
pas_t_microseconds_bucket{route=\"/jobs\",le=\"+Inf\"} 3
pas_t_microseconds_sum{route=\"/jobs\"} 160
pas_t_microseconds_count{route=\"/jobs\"} 3
# TYPE pas_q_gauge gauge
pas_q_gauge 2
";
        let out = summarize_metrics(text);
        // Counter and gauge lines survive byte-for-byte.
        assert!(out.contains("pas_server_http_requests_count{route=\"/jobs\"} 7\n"));
        assert!(out.contains("pas_q_gauge 2\n"));
        // The histogram block collapses to one summary line: no raw
        // buckets, quantiles read off the cumulative bounds.
        assert!(!out.contains("_bucket"));
        assert!(out.contains(
            "pas_t_microseconds{route=\"/jobs\"} count=3 sum=160 p50<=100 p95>100 p99>100\n"
        ));
    }

    #[test]
    fn summarize_handles_zero_count_and_unlabelled_histograms() {
        let text = "\
# TYPE pas_e histogram
pas_e_bucket{le=\"10\"} 0
pas_e_bucket{le=\"+Inf\"} 0
pas_e_sum 0
pas_e_count 0
";
        assert_eq!(
            summarize_metrics(text),
            "# TYPE pas_e histogram\npas_e count=0\n"
        );
    }

    #[test]
    fn quantile_picks_smallest_covering_bound() {
        let buckets = vec![
            ("10".to_string(), 5u64),
            ("100".to_string(), 9),
            ("+Inf".to_string(), 10),
        ];
        assert_eq!(hist_quantile(&buckets, 10, 0.50), "<=10");
        assert_eq!(hist_quantile(&buckets, 10, 0.90), "<=100");
        assert_eq!(hist_quantile(&buckets, 10, 0.99), ">100");
    }
}
