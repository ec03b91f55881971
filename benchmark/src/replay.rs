//! In-process replay of a served job's server-side stages.
//!
//! Server-side work cannot be wrapped from outside the `pas serve`
//! process, so a traced run replays each job through the public
//! functions the server's job path calls, in its order: the submit
//! handler's `Manifest::parse` and `expand`; the job worker's `expand`,
//! `build_field`, and per point `ResultCache::key`, `load`, and on a
//! miss `execute_point` and `store`, then `reduce`; the results
//! handler's `summary_csv`.

use crate::layers::span;
use crate::trace::Tracer;
use pas_scenario::{
    execute_point, expand, matrix_size, reduce, summary_csv, BatchResult, ExecOptions, Manifest,
};
use pas_server::ResultCache;
use pas_sweep::parallel_map_with;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a replayed job produced.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Summary CSV bytes.
    pub csv: String,
    /// Σ `events_processed` over every record.
    pub events: u64,
    /// Σ `events_processed` over the records simulated (cache misses).
    pub sim_events: u64,
    /// Points answered from the cache.
    pub hits: u64,
    /// Points simulated and stored.
    pub misses: u64,
    /// The replay's root span.
    pub root: Option<u32>,
}

/// Replay job `job` (manifest `toml`) against `cache`, with the thread
/// count the server would use.
pub fn replay_job(
    tr: &Tracer,
    job: u64,
    toml: &str,
    cache: &ResultCache,
) -> Result<Replayed, String> {
    tr.span(None, span::REPLAY, job, |root| {
        let m = tr
            .span(root, span::PARSE, job, |_| Manifest::parse(toml))
            .map_err(|e| e.to_string())?;
        tr.span(root, span::EXPAND, job, |_| {
            matrix_size(&m);
            expand(&m)
        })
        .map_err(|e| e.to_string())?;
        let points = tr
            .span(root, span::EXPAND, job, |_| expand(&m))
            .map_err(|e| e.to_string())?;
        let field = tr.span(root, span::FIELD, job, |_| m.build_field());
        let hits = AtomicU64::new(0);
        let misses = AtomicU64::new(0);
        let sim_events = AtomicU64::new(0);
        let opts = ExecOptions::default().sweep_options(&m);
        let records = tr.span(root, span::MAP, job, |map| {
            parallel_map_with(&points, opts, |pt| {
                tr.span(map, span::ITEM, job, |item| {
                    let key = tr.span(item, span::KEY, job, |_| ResultCache::key(&m, pt));
                    match tr.span(item, span::PROBE, job, |_| cache.load(&key)) {
                        Some(r) => {
                            hits.fetch_add(1, Ordering::Relaxed);
                            r
                        }
                        None => {
                            let r = tr.span(item, span::POINT, job, |_| {
                                execute_point(&m, field.as_ref(), pt)
                            });
                            // As on the server, a failed store only costs a
                            // later recomputation.
                            let _ = tr.span(item, span::STORE, job, |_| cache.store(&key, &r));
                            misses.fetch_add(1, Ordering::Relaxed);
                            sim_events.fetch_add(r.events_processed, Ordering::Relaxed);
                            r
                        }
                    }
                })
            })
        });
        let summaries = tr.span(root, span::REDUCE, job, |_| reduce(&records));
        let batch = BatchResult {
            name: m.name.clone(),
            x_label: m.x_label(),
            records,
            summaries,
        };
        let csv = tr.span(root, span::CSV, job, |_| summary_csv(&batch).render());
        Ok(Replayed {
            csv,
            events: crate::verify::events(&batch),
            sim_events: sim_events.into_inner(),
            hits: hits.into_inner(),
            misses: misses.into_inner(),
            root,
        })
    })
}
