//! # pas-benchmark — the repository's end-to-end and per-layer benchmark
//!
//! One command runs one workload against the real program and prints
//! every metric by name, unit and sample count, then one JSON line. The
//! `batch` workload calls the layers' public functions in-process; the
//! served workloads run the shipped `pas serve` and `pas worker`
//! binaries. A traced run (`--trace 1`) records spans around every call
//! into a layer, replays each served job's server-side stages
//! in-process, and prints the per-layer metrics instead. `README.md`
//! beside this crate says why each workload exists and which layer
//! metric should move which end-to-end metric.

pub mod batch;
pub mod child;
pub mod gen;
pub mod layers;
pub mod procfs;
pub mod program;
pub mod replay;
pub mod served;
pub mod stats;
pub mod trace;
pub mod verify;

use std::path::PathBuf;

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// A traced run alternates this many untraced and this many traced
/// slices, so that drift in the machine's speed affects both sides of
/// the tracing-overhead comparison alike.
pub const TRACE_SLICES: usize = 4;

/// Served jobs every timed phase completes however short it is, so the
/// fixed event count (`pas-core.events` over jobs `0..MIN_JOBS`) always
/// has inputs. A `batch` phase completes at least one repetition.
pub const MIN_JOBS: usize = 4;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process: the six registry scenarios through `execute` and the
    /// report renderer.
    Batch,
    /// `pas serve` on a pre-filled cache, nproc clients.
    SubmitWarm,
    /// `pas serve --no-local-exec` plus one `pas worker`, one client.
    DistCold,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Batch, Workload::SubmitWarm, Workload::DistCold];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::SubmitWarm => "submit-warm",
            Workload::DistCold => "dist-cold",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Repository checkout.
    pub root: PathBuf,
    /// The `pas` binary built from it.
    pub pas: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Length of a timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub size: gen::Size,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: u64,
}

/// End-to-end metrics (name, unit), reported by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("job_p50_ms", "ms"),
    ("cpu_us_per_point", "us"),
    ("peak_rss_mb", "MB"),
];

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: jobs, or `execute` calls for `batch`.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// Every failed check, one line each.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Further report lines (tail percentile, failure ratio, layer
    /// table).
    pub notes: Vec<String>,
    /// Digest of the generated inputs.
    pub digest: String,
}

impl Outcome {
    /// No operation failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// What an untraced timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Each setup's duration (s).
    pub setup_s: Vec<f64>,
    /// Each operation's latency (s), from its start until its output
    /// bytes are in hand.
    pub latency_s: Vec<f64>,
    /// Run records delivered.
    pub points: u64,
    /// Wall time of the timed phase (s).
    pub wall_s: f64,
    /// CPU of the measured processes over the phase (s).
    pub cpu_s: f64,
    /// Peak resident set, summed over the measured processes (MB).
    pub rss_mb: f64,
    /// Processes measured.
    pub procs: u64,
}

impl Measured {
    /// The end-to-end metrics, plus two report lines kept out of the
    /// JSON: the tail percentile (only when enough samples lie beyond
    /// it) and the failure ratio (0 on correct code).
    pub fn report(&self, out: &mut Outcome) {
        let ops = self.latency_s.len() as u64;
        let values = [
            stats::median(&self.setup_s).unwrap_or(0.0),
            self.points as f64 / self.wall_s,
            stats::median(&self.latency_s).unwrap_or(0.0) * 1e3,
            self.cpu_s * 1e6 / self.points.max(1) as f64,
            self.rss_mb,
        ];
        let samples = [self.setup_s.len() as u64, ops, ops, self.points, self.procs];
        for (i, (name, unit)) in END_TO_END.into_iter().enumerate() {
            out.metrics.push(Metric {
                name,
                unit,
                value: values[i],
                samples: samples[i],
            });
        }
        out.notes
            .push(match stats::tail_percentile(&self.latency_s, 0.9) {
                Some(p90) => format!("job_p90_ms\t{:.4}\tms\tn={ops}", p90 * 1e3),
                None => format!(
                    "job_p90_ms\tomitted: fewer than {} of {ops} samples beyond p90",
                    stats::MIN_BEYOND
                ),
            });
        out.notes.push(format!(
            "failed_frac\t{}\tratio\tn={}",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.attempted
        ));
    }
}

impl Ctx {
    /// Timed slices per side and their length: one slice of `seconds`
    /// untraced; traced, [`TRACE_SLICES`] per side sharing `seconds`.
    pub fn slices(&self) -> (usize, f64) {
        match self.trace {
            true => (TRACE_SLICES, self.seconds / (2 * TRACE_SLICES) as f64),
            false => (1, self.seconds),
        }
    }
}

/// Run workload `w`.
pub fn run(ctx: &Ctx, w: Workload) -> Result<Outcome, String> {
    match w {
        Workload::Batch => batch::run(ctx),
        Workload::SubmitWarm | Workload::DistCold => served::run(ctx, w),
    }
}
