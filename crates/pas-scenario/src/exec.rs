//! Manifest expansion and deterministic batch execution.
//!
//! [`expand`] turns a [`Manifest`] into the explicit cartesian run matrix
//! (sweep axes × policies × replicate seeds); [`execute_point`] runs one
//! matrix point, [`reduce`] aggregates per-run records into per-point
//! summaries, and [`execute`] composes the two over the whole matrix in
//! parallel. Parallel execution is bit-identical to sequential: each run
//! derives all randomness from its own seed and results are reassembled
//! in input order. The same `execute_point`/`reduce` decomposition is
//! what `pas-server`'s result cache calls, so cached and direct batches
//! cannot drift apart.

use crate::manifest::{AxisValue, FailureSpec, Manifest, ManifestError, SWEEP_PREDICTOR};
use pas_core::{run, FailurePlan, RunConfig, Scenario};
use pas_diffusion::StimulusField;
use pas_sim::{Rng, SimTime};
use pas_sweep::{parallel_map_with, SweepOptions};

/// Substream label for failure-plan draws (disjoint from the runner's
/// deploy/channel/node streams).
pub const STREAM_FAILURES: u64 = 0xFA11;

/// One fully resolved run of the matrix.
#[derive(Debug, Clone)]
pub struct RunPoint {
    /// Position in the expanded matrix.
    pub index: usize,
    /// Report x value: the first sweep axis's value (a names axis reports
    /// its variant index); 0 for fixed-point batches.
    pub x: f64,
    /// Sweep-axis assignments applied to this point.
    pub assignments: Vec<(String, AxisValue)>,
    /// Report label of the policy (predictor-qualified when the predictor
    /// axis assigns one, e.g. `PAS[kalman]`).
    pub policy_label: String,
    /// The instantiated policy.
    pub policy: pas_core::Policy,
    /// Replicate seed.
    pub seed: u64,
}

/// Number of runs the manifest expands to, computed without
/// materialising the matrix; `None` on `u64` overflow. Servers use this
/// to reject absurdly large submissions *before* [`expand`] allocates.
pub fn matrix_size(manifest: &Manifest) -> Option<u64> {
    let mut n: u64 = 1;
    for axis in &manifest.sweep {
        n = n.checked_mul(axis.values.len() as u64)?;
    }
    n = n.checked_mul(manifest.policies.len() as u64)?;
    n.checked_mul(manifest.run.replicates)
}

/// Resolve matrix point `index` directly, without materialising the rest
/// of the matrix — the shard-addressable entry point distributed workers
/// use to reconstruct exactly the points their lease names.
///
/// The matrix is a mixed-radix number: axes vary slowest (in `[sweep]`
/// declaration order, row-major), then policies in declaration order,
/// then replicate seeds innermost — the same order [`expand`] produces
/// (and [`expand`] is defined in terms of this function, so the two
/// cannot drift). An `index` at or beyond [`matrix_size`] is an error,
/// never a silent alias of a valid point.
pub fn point_at(manifest: &Manifest, index: usize) -> Result<RunPoint, ManifestError> {
    let in_range = matrix_size(manifest).is_some_and(|n| (index as u64) < n);
    if !in_range {
        return Err(ManifestError::at(
            0,
            format!("matrix index {index} out of range"),
        ));
    }
    let n_policies = manifest.policies.len().max(1);
    let n_seeds = manifest.run.replicates.max(1) as usize;

    // Decode innermost-first: seed, then policy, then the axis digits.
    let mut rest = index;
    let seed_k = rest % n_seeds;
    rest /= n_seeds;
    let policy_id = rest % n_policies;
    rest /= n_policies;

    // Axis digits, row-major: the *last* declared axis varies fastest.
    let mut digits = vec![0usize; manifest.sweep.len()];
    for (slot, axis) in digits.iter_mut().zip(&manifest.sweep).rev() {
        let len = axis.values.len().max(1);
        *slot = rest % len;
        rest /= len;
    }

    let assignments: Vec<(String, AxisValue)> = manifest
        .sweep
        .iter()
        .zip(&digits)
        .map(|(axis, &d)| (axis.field.clone(), axis.values.at(d)))
        .collect();
    let spec = &manifest.policies[policy_id];
    let policy = manifest.policy(spec, &assignments)?;
    // Report x: the first axis's numeric value, or a names axis's variant
    // index (so sweeps over predictors still plot deterministically).
    let x = match assignments.first() {
        Some((_, AxisValue::Num(v))) => *v,
        Some((_, AxisValue::Name(_))) => digits[0] as f64,
        None => 0.0,
    };
    // A swept predictor must be visible in the label, or every variant's
    // rows would collapse into one table line. The spec's own label may
    // already carry a declared-predictor suffix; strip it before
    // appending the swept name so the two never stack.
    let policy_label = match assignments
        .iter()
        .find(|(f, _)| f == SWEEP_PREDICTOR)
        .and_then(|(_, v)| v.as_name())
    {
        Some(name) if spec.is_adaptive() => {
            let base = spec
                .predictor
                .as_ref()
                .and_then(|p| {
                    spec.label
                        .strip_suffix(&pas_core::predictor::qualified_label("", p.name()))
                })
                .unwrap_or(&spec.label);
            pas_core::predictor::qualified_label(base, name)
        }
        _ => spec.label.clone(),
    };
    Ok(RunPoint {
        index,
        x,
        assignments,
        policy_label,
        policy,
        seed: manifest.run.base_seed + seed_k as u64,
    })
}

/// Resolve an arbitrary subset of matrix indices (a lease's shard) into
/// [`RunPoint`]s, in the order given. Each returned point carries its
/// global matrix index, so records can be scattered back into matrix
/// position by whoever assembles the full batch.
pub fn expand_indices(
    manifest: &Manifest,
    indices: &[usize],
) -> Result<Vec<RunPoint>, ManifestError> {
    indices.iter().map(|&i| point_at(manifest, i)).collect()
}

/// Expand a manifest into its explicit run matrix.
///
/// Order is deterministic: axes vary slowest (in `[sweep]` declaration
/// order, row-major), then policies in declaration order, then replicate
/// seeds — the same order the paper's figure tables use. Equivalent to
/// [`point_at`] over `0..matrix_size`.
pub fn expand(manifest: &Manifest) -> Result<Vec<RunPoint>, ManifestError> {
    let n = matrix_size(manifest)
        .ok_or_else(|| ManifestError::at(0, "run matrix size overflows u64"))? as usize;
    // Replicate seeds vary innermost, so each consecutive block of
    // `replicates` indices is one matrix cell: identical assignments,
    // policy, and label, differing only in index and seed. Resolving the
    // cell once and cloning across its seeds skips the per-replicate
    // policy construction and label work `point_at` would redo — the
    // `point_at_matches_full_expansion` test pins the equivalence.
    let n_seeds = manifest.run.replicates.max(1) as usize;
    let mut out = Vec::with_capacity(n);
    let mut i = 0usize;
    while i < n {
        let cell = point_at(manifest, i)?;
        let block = n_seeds.min(n - i);
        for k in 1..block {
            let mut p = cell.clone();
            p.index = i + k;
            p.seed = cell.seed + k as u64;
            out.push(p);
        }
        // Insert the resolved head in front of its clones without an
        // extra clone of the last point.
        out.insert(out.len() - (block - 1), cell);
        i += block;
    }
    Ok(out)
}

/// The measured outcome of one [`RunPoint`].
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Report x value.
    pub x: f64,
    /// Policy label.
    pub policy_label: String,
    /// Replicate seed.
    pub seed: u64,
    /// Sweep assignments of this run.
    pub assignments: Vec<(String, AxisValue)>,
    /// Mean detection delay (s) over the nodes of this run.
    pub delay_s: f64,
    /// Mean per-node energy (J) of this run.
    pub energy_j: f64,
    /// Nodes the stimulus reached.
    pub reached: usize,
    /// Nodes that detected it.
    pub detected: usize,
    /// Nodes that never detected it.
    pub missed: usize,
    /// REQUEST frames transmitted.
    pub requests_sent: u64,
    /// RESPONSE frames transmitted.
    pub responses_sent: u64,
    /// Total simulator events dispatched.
    pub events_processed: u64,
    /// Simulated duration (s).
    pub duration_s: f64,
}

/// Replicate-aggregated numbers for one `(x, policy)` point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSummary {
    /// Report x value.
    pub x: f64,
    /// Policy label.
    pub policy_label: String,
    /// Mean detection delay (s) over replicates.
    pub delay_mean_s: f64,
    /// Sample stddev of delay.
    pub delay_std_s: f64,
    /// Mean per-node energy (J) over replicates.
    pub energy_mean_j: f64,
    /// Sample stddev of energy.
    pub energy_std_j: f64,
    /// Replicates aggregated.
    pub n: u64,
}

/// The outcome of one manifest execution.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Scenario name.
    pub name: String,
    /// X-axis label for reports.
    pub x_label: String,
    /// Per-run records, in matrix order.
    pub records: Vec<RunRecord>,
    /// Per-point summaries, in matrix order.
    pub summaries: Vec<PointSummary>,
}

/// Execution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Worker threads; 0 = defer to the manifest's `[run] threads`
    /// (itself 0 = one per core), 1 = sequential.
    pub threads: usize,
}

impl ExecOptions {
    /// Resolve the effective sweep options for `manifest`: an explicit
    /// thread count here (e.g. a `--threads` flag) wins over the
    /// manifest's `[run] threads` declaration.
    pub fn sweep_options(&self, manifest: &Manifest) -> pas_sweep::SweepOptions {
        SweepOptions {
            threads: if self.threads != 0 {
                self.threads
            } else {
                manifest.run.threads
            },
        }
    }
}

/// Build the failure plan for one run (deterministic in the seed).
pub fn failure_plan(
    manifest: &Manifest,
    scenario: &Scenario,
    field: &dyn StimulusField,
) -> FailurePlan {
    match manifest.failures {
        FailureSpec::None => FailurePlan::default(),
        FailureSpec::Random { p, horizon_s } => {
            let mut rng = Rng::substream(scenario.seed, STREAM_FAILURES);
            FailurePlan::random(scenario.node_count, p, horizon_s, &mut rng)
        }
        FailureSpec::FrontKill { delay_s } => {
            let kills: Vec<(usize, SimTime)> = scenario
                .positions()
                .iter()
                .enumerate()
                .filter_map(|(i, &p)| field.first_arrival_time(p).map(|t| (i, t + delay_s)))
                .collect();
            FailurePlan::targeted(scenario.node_count, &kills)
        }
    }
}

/// Execute one point of the matrix: simulate the run behind [`RunPoint`]
/// and measure it. Deterministic in `(manifest, pt)` — all randomness
/// derives from `pt.seed` — so callers (the batch path, the server's
/// result cache) may memoise the returned record keyed on those inputs.
///
/// `field` is the stimulus ground truth built once per batch with
/// [`Manifest::build_field`] (it is seed-independent and read-only).
pub fn execute_point(manifest: &Manifest, field: &dyn StimulusField, pt: &RunPoint) -> RunRecord {
    let _prof = pas_obs::profile::scope("exec.point");
    let start_us = pas_obs::trace::now_us();
    let t0 = std::time::Instant::now();
    let scenario = manifest.scenario_for(pt.seed, &pt.assignments);
    let mut cfg = RunConfig::new(pt.policy)
        .with_channel(manifest.channel.kind())
        .with_failures(failure_plan(manifest, &scenario, field));
    cfg.grace_s = manifest.run.grace_s;
    if let Some(h) = manifest.run.horizon_s {
        cfg = cfg.with_horizon(h);
    }
    let r = run(&scenario, field, &cfg);
    // Observational only: the record below is built from `r` alone, so
    // the registry can be on or off without touching a result byte.
    let predictor = pt.policy.predictor().map(|p| p.name()).unwrap_or("none");
    let labels = [
        ("scenario", manifest.name.as_str()),
        ("policy", pt.policy_label.as_str()),
        ("predictor", predictor),
    ];
    let el_us = t0.elapsed().as_secs_f64() * 1e6;
    pas_obs::inc("pas.exec.points.count", &labels);
    pas_obs::observe_us("pas.exec.point.microseconds", &labels, el_us);
    // Under an ambient trace context (set per closure by the traced
    // executors) the point also records a span; results never read it.
    if let Some((trace, parent)) = pas_obs::trace::current() {
        pas_obs::trace::record(trace, parent, "exec.point", &labels, start_us, el_us as u64);
    }
    RunRecord {
        x: pt.x,
        policy_label: pt.policy_label.clone(),
        seed: pt.seed,
        assignments: pt.assignments.clone(),
        delay_s: r.delay.mean_delay_s,
        energy_j: r.mean_energy_j(),
        reached: r.delay.reached,
        detected: r.delay.detected,
        missed: r.delay.missed,
        requests_sent: r.requests_sent,
        responses_sent: r.responses_sent,
        events_processed: r.events_processed,
        duration_s: r.duration_s,
    }
}

/// The per-replicate measurements of one run, as carried by a
/// [`PointCell`]. This is the seam statistical consumers (`pas-report`)
/// build on: confidence intervals and paired-by-seed deltas need the raw
/// replicate values, not the reduced means of [`PointSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct Replicate {
    /// Replicate seed (the pairing key across policies).
    pub seed: u64,
    /// Mean detection delay (s) of this run.
    pub delay_s: f64,
    /// Mean per-node energy (J) of this run.
    pub energy_j: f64,
    /// Nodes the stimulus reached.
    pub reached: usize,
    /// Nodes that detected it.
    pub detected: usize,
    /// Nodes reached but never detecting.
    pub missed: usize,
}

impl Replicate {
    /// Extract the replicate view of one record.
    pub fn of(r: &RunRecord) -> Replicate {
        Replicate {
            seed: r.seed,
            delay_s: r.delay_s,
            energy_j: r.energy_j,
            reached: r.reached,
            detected: r.detected,
            missed: r.missed,
        }
    }
}

/// One `(assignments, policy)` cell of the matrix with every replicate's
/// values, in the order the records were given (matrix order for batch
/// output: seeds ascending).
#[derive(Debug, Clone, PartialEq)]
pub struct PointCell {
    /// Report x value.
    pub x: f64,
    /// Policy label.
    pub policy_label: String,
    /// Sweep assignments identifying the cell.
    pub assignments: Vec<(String, AxisValue)>,
    /// Per-replicate values.
    pub replicates: Vec<Replicate>,
}

/// One assignment's identity: numeric values compare by raw bits so
/// distinct points can never merge; named values compare as strings.
#[derive(Clone, PartialEq)]
enum KeyVal {
    Bits(u64),
    Name(String),
}

/// Full cell identity: `((assignments, x bits), policy label)`.
type CellKey = ((Vec<(String, KeyVal)>, u64), String);

fn cell_key(r: &RunRecord) -> CellKey {
    (
        (
            r.assignments
                .iter()
                .map(|(f, v)| {
                    (
                        f.clone(),
                        match v {
                            AxisValue::Num(v) => KeyVal::Bits(v.to_bits()),
                            AxisValue::Name(n) => KeyVal::Name(n.clone()),
                        },
                    )
                })
                .collect(),
            r.x.to_bits(),
        ),
        r.policy_label.clone(),
    )
}

/// Group per-run records into per-point cells carrying every replicate's
/// values. Cells keep the records' first-appearance order and replicates
/// keep record order; the key covers every sweep axis, not just the
/// report x — two points differing only in a secondary axis must not
/// merge. [`reduce`] is defined on top of this, so summaries and
/// replicate-level consumers can never disagree about cell identity.
pub fn group(records: &[RunRecord]) -> Vec<PointCell> {
    let mut keys: Vec<CellKey> = Vec::new();
    let mut cells: Vec<PointCell> = Vec::new();
    for r in records {
        let key = cell_key(r);
        match keys.iter().position(|k| *k == key) {
            Some(i) => cells[i].replicates.push(Replicate::of(r)),
            None => {
                keys.push(key);
                cells.push(PointCell {
                    x: r.x,
                    policy_label: r.policy_label.clone(),
                    assignments: r.assignments.clone(),
                    replicates: vec![Replicate::of(r)],
                });
            }
        }
    }
    cells
}

/// Reduce per-run records (in matrix order) to per-point summaries,
/// aggregating replicates per `(assignments, policy)` point and
/// preserving matrix order. Defined as [`group`] + per-cell Welford
/// reduction, pushing replicates in record order — bit-identical to the
/// historical `summarize`-based implementation.
pub fn reduce(records: &[RunRecord]) -> Vec<PointSummary> {
    let _prof = pas_obs::profile::scope("exec.reduce");
    group(records)
        .into_iter()
        .map(|cell| {
            let mut delay = pas_metrics::OnlineStats::new();
            let mut energy = pas_metrics::OnlineStats::new();
            for rep in &cell.replicates {
                delay.push(rep.delay_s);
                energy.push(rep.energy_j);
            }
            PointSummary {
                x: cell.x,
                policy_label: cell.policy_label,
                delay_mean_s: delay.mean(),
                delay_std_s: delay.sample_std_dev(),
                energy_mean_j: energy.mean(),
                energy_std_j: energy.sample_std_dev(),
                n: delay.count(),
            }
        })
        .collect()
}

/// Execute every run of the manifest's matrix and summarise.
pub fn execute(manifest: &Manifest, opts: ExecOptions) -> Result<BatchResult, ManifestError> {
    let points = expand(manifest)?;
    let field = manifest.build_field();

    let records: Vec<RunRecord> = parallel_map_with(&points, opts.sweep_options(manifest), |pt| {
        execute_point(manifest, field.as_ref(), pt)
    });
    let summaries = reduce(&records);

    Ok(BatchResult {
        name: manifest.name.clone(),
        x_label: manifest.x_label(),
        records,
        summaries,
    })
}
