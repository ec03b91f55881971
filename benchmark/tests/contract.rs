//! `BENCHMARK.json` names exactly the workloads and metrics the command
//! prints.

use pas_benchmark::layers::PER_LAYER;
use pas_benchmark::{program, Workload, END_TO_END};

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = program::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())),
            "{}",
            w.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}] missing"
        );
    }
    let listed = text.matches("{\"name\":").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
