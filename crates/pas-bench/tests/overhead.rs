//! Instrumentation overhead gate: everything on versus everything off.
//!
//! "On" is the most expensive configuration the server ships: metrics,
//! span tracing and region profiling all collecting under an ambient
//! trace context, with the metric-history sampler running at an
//! aggressive 100 ms interval. "Off" is `pas_obs::set_enabled(false)`
//! with no sampler. The workload is `paper-default` at 40 replicates on
//! one thread (≈0.65 s per run on a 2-vCPU box), timed as 31
//! interleaved on/off pairs whose order alternates, so drift in the
//! machine's speed hits both sides alike. The gate is the median of the
//! per-pair overheads against a 2% budget; the quartiles and a
//! bootstrap CI are printed beside it.
//!
//! Timing is meaningless in a debug build, so the test is ignored by
//! default and returns at once when compiled without optimisation:
//!
//! ```text
//! cargo test --release -p pas-bench --test overhead -- --ignored --nocapture
//! ```

use pas_obs::history::{start_sampler, HistoryConfig};
use pas_scenario::{execute, registry, summary_csv, ExecOptions, Manifest};
use std::time::{Duration, Instant};

/// Budget for the median per-pair overhead, percent.
const BUDGET_PCT: f64 = 2.0;
/// Timed on/off pairs after the warm-up.
const PAIRS: usize = 31;
/// Resampling substream of the overhead CI.
const CI_STREAM: u64 = 0x0B5;

/// Execute `m` once with all instrumentation on or off; returns the wall
/// time of the batch and its summary CSV.
fn timed(m: &Manifest, on: bool) -> (Duration, String) {
    pas_obs::set_enabled(on);
    pas_obs::trace::set_tracing(on);
    let sampler = on.then(|| {
        start_sampler(HistoryConfig {
            interval: Duration::from_millis(100),
            retention: 64,
        })
    });
    // threads = 1 executes inline, so the ambient context reaches every
    // point and `exec.point` spans record.
    let _ctx = pas_obs::trace::enter(pas_obs::trace::mint_id(), pas_obs::trace::mint_id());
    let t = Instant::now();
    let batch = execute(m, ExecOptions { threads: 1 }).expect("paper-default executes");
    let wall = t.elapsed();
    drop(sampler);
    (wall, summary_csv(&batch).render())
}

/// Linear-interpolated quantile of sorted `v`.
fn quantile(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[test]
#[ignore = "timing gate: run with --release -- --ignored"]
fn all_on_vs_all_off_overhead_is_within_budget() {
    if cfg!(debug_assertions) {
        eprintln!("overhead gate skipped: debug build");
        return;
    }
    let mut m = registry::builtin("paper-default").expect("builtin parses");
    m.run.replicates = 40;
    m.run.threads = 1;

    let (_, want_csv) = timed(&m, true);
    pas_obs::profile::reset();
    let mut overheads = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        let on_first = i % 2 == 0;
        let (first, first_csv) = timed(&m, on_first);
        let (second, second_csv) = timed(&m, !on_first);
        assert!(
            first_csv == want_csv && second_csv == want_csv,
            "pair {i}: instrumentation changed a result byte"
        );
        let (on, off) = match on_first {
            true => (first, second),
            false => (second, first),
        };
        overheads.push((on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0);
    }
    pas_obs::set_enabled(true);

    let regions: Vec<String> = pas_obs::profile::snapshot()
        .into_iter()
        .filter_map(|e| e.stack.last().cloned())
        .collect();
    for want in ["exec.point", "sim.run"] {
        assert!(
            regions.iter().any(|r| r == want),
            "on-runs' profile lacks `{want}`: {regions:?}"
        );
    }

    let (ci_lo, ci_hi) = pas_report::stats::bootstrap_ci(&overheads, CI_STREAM);
    let mut sorted = overheads.clone();
    sorted.sort_by(f64::total_cmp);
    let median = quantile(&sorted, 0.5);
    eprintln!(
        "overhead over {PAIRS} pairs: median {median:+.2}%, quartiles {:+.2}% / {:+.2}%, \
         mean 95% CI [{ci_lo:+.2}%, {ci_hi:+.2}%], budget {BUDGET_PCT}%",
        quantile(&sorted, 0.25),
        quantile(&sorted, 0.75),
    );
    assert!(
        median < BUDGET_PCT,
        "median instrumentation overhead {median:+.2}% exceeds the {BUDGET_PCT}% budget \
         (per-pair: {overheads:.2?})"
    );
}
