//! `pas-bench` — server saturation ramp.
//!
//! ```text
//! pas-bench --addr HOST:PORT [--max-clients N] [--step-ms N]
//! ```
//!
//! Ramps concurrent closed-loop submit clients (1, 2, 4, …,
//! `--max-clients`) against a running `pas serve`, each submitting a
//! tiny warm-cache job and waiting for it to complete as fast as the
//! control loop allows. Throughput climbs with concurrency until the
//! server saturates; the knee is the smallest ramp step reaching ≥95% of
//! the peak, and its p99 is the latency cost of operating there. The
//! jobs are warm after one seed submission, so the ramp measures the
//! submit→queue→cache→complete loop — the saturation behaviour of the
//! *server*, not the simulator.
//!
//! Progress goes to stderr, one line per step; the result (per-step
//! table, knee, max sustained jobs/s, error and 429 counts) is one JSON
//! object on stdout.

#![forbid(unsafe_code)]

use pas_scenario::registry;
use pas_server::{Client, ClientError, RetryPolicy};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: pas-bench --addr HOST:PORT [--max-clients N] [--step-ms N]

    --addr HOST:PORT     the `pas serve` instance to saturate (required)
    --max-clients N      top of the 1,2,4,.. client ramp (default 32)
    --step-ms N          measured duration of each ramp step (default 1500)
";

struct Args {
    addr: String,
    max_clients: usize,
    step_ms: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut addr = None;
    let mut max_clients = 32usize;
    let mut step_ms = 1500u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => return Err("--addr needs HOST:PORT".to_string()),
            },
            "--max-clients" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => max_clients = n,
                _ => return Err("--max-clients needs a count >= 1".to_string()),
            },
            "--step-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n >= 100 => step_ms = n,
                _ => return Err("--step-ms needs a duration >= 100".to_string()),
            },
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let addr = addr.ok_or("--addr is required")?;
    Ok(Args {
        addr,
        max_clients,
        step_ms,
    })
}

/// One ramp step's outcome.
struct Step {
    clients: usize,
    jobs: u64,
    jobs_per_s: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    errors: u64,
    http_429: u64,
}

/// One closed-loop client: submit, wait for completion, repeat until
/// `stop`. Returns its job latencies (µs), error count and 429 count.
fn client_loop(addr: &str, toml: &str, stop: &AtomicBool) -> (Vec<u64>, u64, u64) {
    let client = Client::new(addr.to_string());
    let mut latencies: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    let mut http_429 = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let t0 = Instant::now();
        match client.submit(toml) {
            Ok(id) => match client.wait(id, Duration::from_millis(2)) {
                Ok(s) if s.phase == "completed" => latencies.push(t0.elapsed().as_micros() as u64),
                _ => errors += 1,
            },
            Err(ClientError::Api(429, _)) => {
                // Backpressure is an expected saturation signal, not a
                // failure: count and yield.
                http_429 += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => {
                errors += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    (latencies, errors, http_429)
}

/// Run `clients` closed-loop submitters for `step_ms` and tally them.
fn run_step(addr: &str, toml: &str, clients: usize, step_ms: u64) -> Result<Step, String> {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| client_loop(addr, toml, &stop)))
            .collect();
        std::thread::sleep(Duration::from_millis(step_ms));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join())
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|_| "client thread panicked")?;
    let mut latencies: Vec<u64> = Vec::new();
    let (mut errors, mut http_429) = (0u64, 0u64);
    for (lat, e, r) in per_client {
        latencies.extend(lat);
        errors += e;
        http_429 += r;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let q = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx]
    };
    let jobs = latencies.len() as u64;
    Ok(Step {
        clients,
        jobs,
        jobs_per_s: jobs as f64 / wall_s,
        p50_us: q(0.50),
        p95_us: q(0.95),
        p99_us: q(0.99),
        errors,
        http_429,
    })
}

fn ramp(args: &Args) -> Result<String, String> {
    // The smallest useful job: one axis point, one replicate.
    let mut m = registry::builtin("paper-default").expect("builtin parses");
    m.sweep[0].values = vec![4.0].into();
    m.run.replicates = 1;
    let toml = m.to_toml();
    let addr = args.addr.as_str();

    // Seed submission: after this every ramp job is a cache hit.
    let seed = Client::new(addr.to_string());
    let id = seed
        .submit_with_retry(&toml, RetryPolicy::default(), |_, _| {})
        .map_err(|e| format!("seed submit to {addr}: {e}"))?;
    match seed.wait(id, Duration::from_millis(5)) {
        Ok(s) if s.phase == "completed" => {}
        Ok(s) => {
            return Err(format!(
                "seed job {}: {}",
                s.phase,
                s.error.unwrap_or_default()
            ))
        }
        Err(e) => return Err(format!("seed wait: {e}")),
    }

    let mut counts: Vec<usize> = Vec::new();
    let mut c = 1;
    while c < args.max_clients {
        counts.push(c);
        c *= 2;
    }
    counts.push(args.max_clients);

    let mut steps: Vec<Step> = Vec::new();
    for clients in counts {
        let step = run_step(addr, &toml, clients, args.step_ms)?;
        eprintln!(
            "pas-bench: {:>4} client(s): {:>8.1} jobs/s, p99 {:>8}us, \
             {} error(s), {} 429(s)",
            clients, step.jobs_per_s, step.p99_us, step.errors, step.http_429
        );
        steps.push(step);
    }

    // The knee: smallest concurrency sustaining ≥95% of the peak —
    // beyond it throughput plateaus and added clients only buy latency.
    let max_jps = steps.iter().map(|s| s.jobs_per_s).fold(0.0, f64::max);
    let knee = steps
        .iter()
        .find(|s| s.jobs_per_s >= 0.95 * max_jps)
        .unwrap_or_else(|| steps.last().expect("ramp is non-empty"));
    let errors_total: u64 = steps.iter().map(|s| s.errors).sum();
    let http_429_total: u64 = steps.iter().map(|s| s.http_429).sum();
    let rows: Vec<String> = steps
        .iter()
        .map(|s| {
            format!(
                "    {{\"clients\": {}, \"jobs\": {}, \"jobs_per_s\": {:.1}, \
                 \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
                 \"errors\": {}, \"http_429\": {}}}",
                s.clients, s.jobs, s.jobs_per_s, s.p50_us, s.p95_us, s.p99_us, s.errors, s.http_429
            )
        })
        .collect();
    Ok(format!(
        "{{\n  \"bench\": \"server\",\n  \"scenario\": \"server-saturation\",\n  \
         \"step_ms\": {},\n  \"steps\": [\n{}\n  ],\n  \
         \"knee_clients\": {},\n  \"max_jobs_per_s\": {max_jps:.1},\n  \
         \"p99_us_at_knee\": {},\n  \"errors_total\": {errors_total},\n  \
         \"http_429_total\": {http_429_total}\n}}\n",
        args.step_ms,
        rows.join(",\n"),
        knee.clients,
        knee.p99_us,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args)
        .map_err(|e| format!("{e}\n\n{USAGE}"))
        .and_then(|a| ramp(&a));
    match result {
        Ok(json) => {
            print!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
