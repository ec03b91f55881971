//! The `batch` workload: the `pas run` / `pas report` path, in-process.
//!
//! Each repetition runs the six registry scenarios (with seeds from the
//! workload seed) through `execute` on every core, then builds and
//! renders the Markdown report. The traced run calls the same layers one
//! by one — `expand`, `build_field`, `parallel_map_with` over
//! `execute_point`, `reduce`, `summary_csv`, `Report::from_batch`,
//! `render_md` — with a span around each.

use crate::layers::{self, span, Layers};
use crate::trace::{Tracer, Tree};
use crate::{gen, procfs, program, stats, verify, Ctx, Measured, Outcome, SETUP_REPS};
use pas_report::{render_md, Report, ReportOptions};
use pas_scenario::{
    execute_point, expand, reduce, summary_csv, BatchResult, ExecOptions, Manifest,
};
use pas_sweep::parallel_map_with;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

/// What one operation produced.
struct Output {
    points: u64,
    events: u64,
    csv: String,
    md: String,
}

/// One `execute` + report of one scenario.
struct Op {
    scenario: usize,
    rep: usize,
    latency_s: f64,
    result: Result<Output, String>,
}

/// The timed slices of one kind (untraced or traced) of a run.
#[derive(Default)]
struct Phase {
    ops: Vec<Op>,
    wall_s: f64,
    cpu_s: f64,
    roots: Vec<u32>,
}

impl Phase {
    fn points(&self) -> u64 {
        self.ops
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .map(|o| o.points)
            .sum()
    }

    /// Σ events of the first repetition, which every phase completes.
    fn first_rep_events(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.rep == 0)
            .filter_map(|o| o.result.as_ref().ok())
            .map(|o| o.events)
            .sum()
    }
}

/// Run the `batch` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tomls = gen::batch_manifests(ctx.seed, ctx.size);
    let mut out = Outcome {
        digest: gen::digest(tomls.iter().map(String::as_str)),
        ..Outcome::default()
    };
    let threads = program::nproc();
    let tracer = Tracer::new(ctx.trace);

    // Set-up: loading the generated manifests, as `pas run FILE` does.
    let mut setup_s = Vec::new();
    let mut manifests = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        manifests = tomls
            .iter()
            .enumerate()
            .map(|(i, t)| tracer.span(None, span::PARSE, i as u64, |_| Manifest::parse(t)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("generated manifest: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    // Preparation, untimed: references and the golden pins.
    let inputs: Vec<(usize, String)> = tomls.into_iter().enumerate().collect();
    let refs = verify::references(&inputs, true)?;
    out.problems
        .extend(verify::golden_mismatches(&ctx.root, threads)?);

    // A traced run alternates untraced and traced slices, so drift of
    // the machine's speed affects both alike.
    let (slices, slice_s) = ctx.slices();
    let off = Tracer::new(false);
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    for _ in 0..slices {
        run_slice(&mut untraced, &manifests, slice_s, threads, &off)?;
        if ctx.trace {
            run_slice(&mut traced, &manifests, slice_s, threads, &tracer)?;
        }
    }
    check(&untraced, &refs, &mut out);
    if !ctx.trace {
        Measured {
            setup_s,
            latency_s: untraced.ops.iter().map(|o| o.latency_s).collect(),
            points: untraced.points(),
            wall_s: untraced.wall_s,
            cpu_s: untraced.cpu_s,
            rss_mb: procfs::peak_rss_mb(None).map_err(|e| e.to_string())?,
            procs: 1,
        }
        .report(&mut out);
        return Ok(out);
    }

    check(&traced, &refs, &mut out);
    if traced.first_rep_events() != untraced.first_rep_events() {
        out.problems.push(format!(
            "events differ: untraced {} vs traced {}",
            untraced.first_rep_events(),
            traced.first_rep_events()
        ));
    }
    let spans = tracer.into_spans();
    let mut l = Layers::default();
    let sim_events: u64 = traced
        .ops
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|o| o.events)
        .sum();
    layers::from_spans(&mut l, &spans, traced.ops.len() as u64, sim_events);
    let parse = layers::durations_us(&spans, span::PARSE);
    l.set(
        "pas-scenario.parse_us",
        stats::mean(&parse).unwrap_or(0.0),
        parse.len() as u64,
    );
    l.set("pas-core.events", traced.first_rep_events() as f64, 1);
    let pps = |p: &Phase| p.points() as f64 / p.wall_s;
    l.set(
        "bench.trace_overhead_pct",
        (pps(&untraced) / pps(&traced) - 1.0) * 100.0,
        2,
    );
    out.metrics = l.into_metrics();

    let (lines, problem) = layers::table(&Tree::new(&spans), &traced.roots, &|_| None);
    out.notes.extend(lines);
    out.problems.extend(problem);
    crate::trace::write_tsv(&spans, &ctx.root.join(".bench_out").join("batch.spans.tsv"))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(out)
}

/// Repeat the six scenarios until `seconds` have passed (at least once),
/// appending to `into`.
fn run_slice(
    into: &mut Phase,
    manifests: &[Manifest],
    seconds: f64,
    threads: usize,
    tr: &Tracer,
) -> Result<(), String> {
    let cpu0 = procfs::cpu_s(None).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let first_rep = into.ops.last().map_or(0, |o| o.rep + 1);
    let ops = &mut into.ops;
    let root = tr.span(None, span::PHASE, 0, |root| {
        let mut rep = first_rep;
        while rep == first_rep || Instant::now() < deadline {
            for (scenario, m) in manifests.iter().enumerate() {
                let job = ops.len() as u64;
                let start = Instant::now();
                let result = if tr.enabled() {
                    std::panic::catch_unwind(AssertUnwindSafe(|| {
                        traced_op(m, threads, tr, root, job)
                    }))
                    .unwrap_or_else(|_| Err("panicked".to_string()))
                } else {
                    op(m, threads)
                };
                ops.push(Op {
                    scenario,
                    rep,
                    latency_s: start.elapsed().as_secs_f64(),
                    result,
                });
            }
            rep += 1;
        }
        root
    });
    into.wall_s += t0.elapsed().as_secs_f64();
    into.cpu_s += procfs::cpu_s(None).map_err(|e| e.to_string())? - cpu0;
    into.roots.extend(root);
    Ok(())
}

/// `pas run` + `pas report`: one `execute`, its CSV and its report.
fn op(m: &Manifest, threads: usize) -> Result<Output, String> {
    let batch = verify::execute_caught(m, threads)?;
    Ok(Output {
        points: batch.records.len() as u64,
        events: verify::events(&batch),
        csv: summary_csv(&batch).render(),
        md: verify::report_md(&batch)?,
    })
}

/// [`op`] layer by layer, with a span around each call.
fn traced_op(
    m: &Manifest,
    threads: usize,
    tr: &Tracer,
    parent: Option<u32>,
    job: u64,
) -> Result<Output, String> {
    tr.span(parent, span::JOB, job, |op| {
        let points = tr
            .span(op, span::EXPAND, job, |_| expand(m))
            .map_err(|e| e.to_string())?;
        let field = tr.span(op, span::FIELD, job, |_| m.build_field());
        let opts = ExecOptions { threads }.sweep_options(m);
        let records = tr.span(op, span::MAP, job, |map| {
            parallel_map_with(&points, opts, |pt| {
                tr.span(map, span::ITEM, job, |item| {
                    tr.span(item, span::POINT, job, |_| {
                        execute_point(m, field.as_ref(), pt)
                    })
                })
            })
        });
        let summaries = tr.span(op, span::REDUCE, job, |_| reduce(&records));
        let batch = BatchResult {
            name: m.name.clone(),
            x_label: m.x_label(),
            records,
            summaries,
        };
        let csv = tr.span(op, span::CSV, job, |_| summary_csv(&batch).render());
        let report = tr
            .span(op, span::BUILD, job, |_| {
                Report::from_batch(&batch, &ReportOptions::default())
            })
            .map_err(|e| e.to_string())?;
        let md = tr.span(op, span::RENDER, job, |_| render_md(&report));
        Ok(Output {
            points: batch.records.len() as u64,
            events: verify::events(&batch),
            csv,
            md,
        })
    })
}

/// Compare every operation's output with its reference.
fn check(phase: &Phase, refs: &BTreeMap<usize, verify::Reference>, out: &mut Outcome) {
    for o in &phase.ops {
        out.attempted += 1;
        let want = &refs[&o.scenario];
        let name = gen::BATCH_MIX[o.scenario];
        let bad = match &o.result {
            Err(e) => Some(format!("`{name}` failed: {e}")),
            Ok(got) if got.csv != want.csv => Some(format!("`{name}` CSV differs from reference")),
            Ok(got) if Some(&got.md) != want.md.as_ref() => {
                Some(format!("`{name}` report differs from reference"))
            }
            Ok(got) if got.events != want.events || got.points != want.points => Some(format!(
                "`{name}` ran {} points / {} events, reference {} / {}",
                got.points, got.events, want.points, want.events
            )),
            Ok(_) => None,
        };
        if let Some(msg) = bad {
            out.failed += 1;
            out.problems.push(msg);
        }
    }
}
