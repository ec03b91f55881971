//! Reference outputs every measured output is compared with, byte for
//! byte, outside the timed window.

use pas_report::{render_md, Report, ReportOptions};
use pas_scenario::{
    execute, records_jsonl, registry, summary_csv, BatchResult, ExecOptions, Manifest,
};
use pas_sweep::{parallel_map_with, SweepOptions};
use std::collections::BTreeMap;
use std::path::Path;

/// What an in-process, single-threaded `execute` of a manifest gives.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Summary CSV bytes.
    pub csv: String,
    /// Per-run JSONL bytes.
    pub jsonl: String,
    /// Markdown report bytes, when asked for.
    pub md: Option<String>,
    /// Σ `events_processed` over the runs.
    pub events: u64,
    /// Runs in the matrix.
    pub points: u64,
}

/// Σ `events_processed` of a batch.
pub fn events(batch: &BatchResult) -> u64 {
    batch.records.iter().map(|r| r.events_processed).sum()
}

/// The Markdown report `pas report` renders for a batch.
pub fn report_md(batch: &BatchResult) -> Result<String, String> {
    Report::from_batch(batch, &ReportOptions::default())
        .map(|r| render_md(&r))
        .map_err(|e| format!("report of `{}`: {e}", batch.name))
}

/// `execute`, with a panic inside the program turned into an error.
pub fn execute_caught(m: &Manifest, threads: usize) -> Result<BatchResult, String> {
    std::panic::catch_unwind(|| execute(m, ExecOptions { threads }))
        .map_err(|_| format!("`{}`: execute panicked", m.name))?
        .map_err(|e| e.to_string())
}

/// Reference outputs of one manifest's TOML, from `execute` with one
/// thread; the report only `with_md`.
pub fn reference(toml: &str, with_md: bool) -> Result<Reference, String> {
    let m = Manifest::parse(toml).map_err(|e| format!("generated manifest: {e}"))?;
    let batch = execute_caught(&m, 1)?;
    Ok(Reference {
        csv: summary_csv(&batch).render(),
        jsonl: records_jsonl(&batch),
        md: match with_md {
            true => Some(report_md(&batch)?),
            false => None,
        },
        events: events(&batch),
        points: batch.records.len() as u64,
    })
}

/// References of several inputs, keyed by input id. Each is still a
/// single-threaded `execute`; independent inputs run side by side.
pub fn references(
    inputs: &[(usize, String)],
    with_md: bool,
) -> Result<BTreeMap<usize, Reference>, String> {
    let out = parallel_map_with(inputs, SweepOptions::default(), |(id, toml)| {
        reference(toml, with_md).map(|r| (*id, r))
    });
    out.into_iter().collect()
}

/// Run every registry scenario that has a committed golden CSV (and the
/// paper-default golden report) through the `batch` path at its
/// registry seed; one message per byte mismatch.
pub fn golden_mismatches(root: &Path, threads: usize) -> Result<Vec<String>, String> {
    let dir = root.join("tests").join("golden");
    let mut bad = Vec::new();
    for (name, _) in registry::BUILTINS {
        let csv_path = dir.join(format!("{name}.csv"));
        let md_path = dir.join(format!("{name}.report.md"));
        if !csv_path.exists() && !md_path.exists() {
            continue;
        }
        let m = registry::builtin(name).ok_or_else(|| format!("`{name}` not in registry"))?;
        let batch = execute_caught(&m, threads)?;
        let read =
            |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        if csv_path.exists() && summary_csv(&batch).render() != read(&csv_path)? {
            bad.push(format!(
                "`{name}` summary CSV differs from {}",
                csv_path.display()
            ));
        }
        if md_path.exists() && report_md(&batch)? != read(&md_path)? {
            bad.push(format!(
                "`{name}` report differs from {}",
                md_path.display()
            ));
        }
    }
    Ok(bad)
}
