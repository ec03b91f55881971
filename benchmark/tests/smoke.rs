//! Tiny-size runs of every workload, untraced and traced, through
//! the same entry point the command uses.

use pas_benchmark::layers::PER_LAYER;
use pas_benchmark::{gen, program, run, Ctx, Workload, END_TO_END};

fn ctx(trace: bool) -> Ctx {
    let root = program::repo_root();
    let pas = program::build_pas(&root).expect("pas builds");
    Ctx {
        root,
        pas,
        seed: 11,
        seconds: 0.2,
        trace,
        size: gen::Size::TINY,
    }
}

fn smoke(w: Workload) {
    for trace in [false, true] {
        let out = run(&ctx(trace), w).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(
            out.correct(),
            "{} trace={trace}: {:?}",
            w.name(),
            out.problems
        );
        assert!(out.attempted > 0);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = if trace {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        assert_eq!(names, want);
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        if trace {
            assert!(out.notes.iter().any(|n| n.starts_with("layer-time\tsum")));
        } else {
            assert!(
                out.metrics.iter().all(|m| m.value > 0.0),
                "{:?}",
                out.metrics
            );
        }
    }
}

/// One test, so that no other test of this process has scratch
/// directories open when the leftovers are checked.
#[test]
fn every_workload() {
    for w in Workload::ALL {
        smoke(w);
    }
    // Nothing of this process is left in the scratch area.
    let prefix = format!("{}-", std::process::id());
    let work = program::repo_root().join(".bench_work");
    let left: Vec<String> = std::fs::read_dir(&work)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with(&prefix))
                .collect()
        })
        .unwrap_or_default();
    assert!(left.is_empty(), "left behind: {left:?}");
}
