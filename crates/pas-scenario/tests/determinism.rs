//! Determinism and execution-shape tests for the batch executor.

use pas_core::{run, AdaptiveParams, ChannelKind, FailurePlan, Policy, RunConfig, Scenario};
use pas_diffusion::RadialFront;
use pas_geom::Vec2;
use pas_scenario::exec::STREAM_FAILURES;
use pas_scenario::{execute, registry, ExecOptions};
use pas_sim::Rng;

/// Same manifest + seeds ⇒ bit-identical per-run results, whether the
/// batch runs sequentially or across all cores.
#[test]
fn parallel_execution_is_bit_identical_to_sequential() {
    let mut m = registry::builtin("paper-default").unwrap();
    // A representative slice of the grid: 2 axis points × 3 policies ×
    // 4 seeds keeps the test quick while crossing every policy kind.
    m.sweep[0].values = vec![4.0, 12.0].into();
    m.run.replicates = 4;

    let seq = execute(&m, ExecOptions { threads: 1 }).unwrap();
    let par = execute(&m, ExecOptions { threads: 0 }).unwrap();

    assert_eq!(seq.records.len(), 2 * 3 * 4);
    assert_eq!(seq.records.len(), par.records.len());
    for (a, b) in seq.records.iter().zip(&par.records) {
        assert_eq!(a.policy_label, b.policy_label);
        assert_eq!(a.seed, b.seed);
        assert_eq!(
            a.delay_s.to_bits(),
            b.delay_s.to_bits(),
            "delay differs at {}/{} seed {}",
            a.x,
            a.policy_label,
            a.seed
        );
        assert_eq!(
            a.energy_j.to_bits(),
            b.energy_j.to_bits(),
            "energy differs at {}/{} seed {}",
            a.x,
            a.policy_label,
            a.seed
        );
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.requests_sent, b.requests_sent);
        assert_eq!(a.responses_sent, b.responses_sent);
    }
    for (a, b) in seq.summaries.iter().zip(&par.summaries) {
        assert_eq!(a.delay_mean_s.to_bits(), b.delay_mean_s.to_bits());
        assert_eq!(a.energy_mean_j.to_bits(), b.energy_mean_j.to_bits());
    }
}

/// Re-executing the identical manifest reproduces identical bits.
#[test]
fn repeated_execution_is_reproducible() {
    let mut m = registry::builtin("gas-leak-city").unwrap();
    m.sweep[0].values = vec![5.0, 20.0].into();
    m.run.replicates = 2;
    let a = execute(&m, ExecOptions::default()).unwrap();
    let b = execute(&m, ExecOptions::default()).unwrap();
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.delay_s.to_bits(), y.delay_s.to_bits());
        assert_eq!(x.energy_j.to_bits(), y.energy_j.to_bits());
    }
}

/// Random failure plans derive from the replicate seed: the same seed
/// kills the same nodes, and the batch stays deterministic under threads.
#[test]
fn random_failures_are_seed_deterministic() {
    let src = r#"
        [scenario]
        name = "failures-det"
        [deployment]
        region = [40.0, 40.0]
        nodes = 30
        range_m = 10.0
        kind = "uniform"
        [stimulus]
        kind = "radial"
        source = [0.0, 0.0]
        profile = { kind = "constant", speed = 0.5 }
        [failures]
        kind = "random"
        p = 0.3
        horizon_s = 60.0
        [run]
        base_seed = 42
        replicates = 3
        [[policies]]
        kind = "pas"
    "#;
    let m = pas_scenario::Manifest::parse(src).unwrap();
    let seq = execute(&m, ExecOptions { threads: 1 }).unwrap();
    let par = execute(&m, ExecOptions { threads: 0 }).unwrap();
    for (a, b) in seq.records.iter().zip(&par.records) {
        assert_eq!(a.delay_s.to_bits(), b.delay_s.to_bits());
        assert_eq!(a.missed, b.missed);
    }
}

/// An ablation is just a manifest: a lossy channel and random node
/// failures declared in TOML give, run for run, the same bits as the
/// direct `pas_core::run` call that wires the channel and a failure plan
/// drawn from the seed's failure substream by hand.
#[test]
fn ablation_manifest_matches_direct_runs() {
    let policy = Policy::Pas(AdaptiveParams {
        max_sleep_s: 12.0,
        alert_threshold_s: 15.0,
        ..AdaptiveParams::default()
    });
    let field = RadialFront::constant(Vec2::ZERO, 0.5);
    // (channel table, failures table, loss, failure probability)
    let cases = [
        ("kind = \"iid\"\nloss = 0.1", "kind = \"none\"", 0.1, 0.0),
        (
            "kind = \"perfect\"",
            "kind = \"random\"\np = 0.2\nhorizon_s = 60.0",
            0.0,
            0.2,
        ),
        (
            "kind = \"iid\"\nloss = 0.2",
            "kind = \"random\"\np = 0.3\nhorizon_s = 60.0",
            0.2,
            0.3,
        ),
    ];
    for (channel, failures, loss, p) in cases {
        let src = format!(
            r#"
            [scenario]
            name = "ablation"
            [deployment]
            region = [40.0, 40.0]
            nodes = 30
            range_m = 10.0
            kind = "uniform"
            [stimulus]
            kind = "radial"
            source = [0.0, 0.0]
            profile = {{ kind = "constant", speed = 0.5 }}
            [channel]
            {channel}
            [failures]
            {failures}
            [run]
            base_seed = 20070910
            replicates = 4
            [[policies]]
            kind = "pas"
            max_sleep_s = 12.0
            alert_threshold_s = 15.0
            "#
        );
        let m = pas_scenario::Manifest::parse(&src).unwrap();
        let batch = execute(&m, ExecOptions::default()).unwrap();
        assert_eq!(batch.records.len(), 4);
        for rec in &batch.records {
            let scenario = Scenario::paper_default(rec.seed);
            let channel = if loss == 0.0 {
                ChannelKind::Perfect
            } else {
                ChannelKind::IidLoss(loss)
            };
            let plan = if p == 0.0 {
                FailurePlan::default()
            } else {
                let mut rng = Rng::substream(rec.seed, STREAM_FAILURES);
                FailurePlan::random(scenario.node_count, p, 60.0, &mut rng)
            };
            let cfg = RunConfig::new(policy)
                .with_channel(channel)
                .with_failures(plan);
            let r = run(&scenario, &field, &cfg);
            let at = format!("loss {loss}, p {p}, seed {}", rec.seed);
            assert_eq!(
                rec.delay_s.to_bits(),
                r.delay.mean_delay_s.to_bits(),
                "delay, {at}"
            );
            assert_eq!(
                rec.energy_j.to_bits(),
                r.mean_energy_j().to_bits(),
                "energy, {at}"
            );
            assert_eq!(rec.missed, r.delay.missed, "missed, {at}");
        }
    }
}

/// Summaries aggregate exactly the replicates of their point.
#[test]
fn summaries_have_replicate_counts() {
    let mut m = registry::builtin("plume-monitoring").unwrap();
    m.run.replicates = 3;
    let batch = execute(&m, ExecOptions::default()).unwrap();
    assert_eq!(batch.summaries.len(), 3, "one summary per policy");
    assert!(batch.summaries.iter().all(|s| s.n == 3));
    // NS detects everything it reaches with zero delay.
    let ns = batch
        .summaries
        .iter()
        .find(|s| s.policy_label == "NS")
        .unwrap();
    assert!(ns.delay_mean_s.abs() < 1e-9);
}

/// Summary grouping keys on every sweep axis: two matrix points that share
/// the report x but differ in a secondary axis must not merge.
#[test]
fn multi_axis_points_are_not_merged_in_summaries() {
    let mut m = registry::builtin("gas-leak-city").unwrap();
    m.sweep[0].values = vec![5.0, 20.0].into();
    m.sweep.push(pas_scenario::SweepAxis {
        field: "max_sleep_s".to_string(),
        values: vec![4.0, 12.0].into(),
    });
    m.run.replicates = 2;
    let batch = execute(&m, ExecOptions::default()).unwrap();
    assert_eq!(batch.records.len(), 2 * 2 * 2);
    assert_eq!(
        batch.summaries.len(),
        2 * 2,
        "one summary per (alert, max_sleep) point, not per alert value"
    );
    assert!(batch.summaries.iter().all(|s| s.n == 2));
}

/// The CSV and JSONL sinks write parseable, complete output.
#[test]
fn sinks_write_summary_and_raw_records() {
    let mut m = registry::builtin("paper-default").unwrap();
    m.sweep[0].values = vec![8.0].into();
    m.run.replicates = 2;
    let batch = execute(&m, ExecOptions::default()).unwrap();

    let dir = std::env::temp_dir().join("pas-scenario-sink-test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("summary.csv");
    let jsonl_path = dir.join("runs.jsonl");
    pas_scenario::write_summary_csv(&batch, &csv_path).unwrap();
    pas_scenario::write_records_jsonl(&batch, &jsonl_path).unwrap();

    let csv = std::fs::read_to_string(&csv_path).unwrap();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "max_sleep_s,policy,delay_mean_s,delay_std_s,energy_mean_j,energy_std_j,n,schema_version"
    );
    assert_eq!(lines.count(), 3, "one row per (x, policy) point");

    let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
    let rows: Vec<&str> = jsonl.lines().collect();
    assert_eq!(rows.len(), 3 * 2, "one row per run");
    for row in rows {
        assert!(row.starts_with('{') && row.ends_with('}'), "bad row {row}");
        assert!(row.contains("\"scenario\":\"paper-default\""));
        assert!(row.contains("\"delay_s\":"));
    }
}

/// Shard addressing: [`pas_scenario::point_at`] resolves exactly the
/// point full expansion puts at that index — over a two-axis matrix, so
/// the mixed-radix decode crosses every digit position — and
/// [`pas_scenario::expand_indices`] reconstructs arbitrary subsets.
#[test]
fn point_at_matches_full_expansion() {
    let mut m = registry::builtin("paper-default").unwrap();
    m.sweep[0].values = vec![4.0, 8.0, 12.0].into();
    m.sweep.push(pas_scenario::SweepAxis {
        field: "base_sleep_s".to_string(),
        values: vec![0.5, 1.0].into(),
    });
    m.run.replicates = 3;

    let all = pas_scenario::expand(&m).unwrap();
    assert_eq!(all.len(), 3 * 2 * 3 * 3, "axes x policies x seeds");
    assert_eq!(
        all.len() as u64,
        pas_scenario::matrix_size(&m).unwrap(),
        "matrix_size agrees with materialised expansion"
    );
    for (i, want) in all.iter().enumerate() {
        let got = pas_scenario::point_at(&m, i).unwrap();
        assert_eq!(got.index, want.index);
        assert_eq!(got.x.to_bits(), want.x.to_bits());
        assert_eq!(got.policy_label, want.policy_label);
        assert_eq!(got.seed, want.seed);
        assert_eq!(format!("{:?}", got.policy), format!("{:?}", want.policy));
        assert_eq!(got.assignments.len(), want.assignments.len());
        for (a, b) in got.assignments.iter().zip(&want.assignments) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
        }
    }

    // A scattered shard reconstructs the same points, original indices kept.
    let shard = [17usize, 0, 53, 2, 17];
    let points = pas_scenario::expand_indices(&m, &shard).unwrap();
    for (&i, p) in shard.iter().zip(&points) {
        assert_eq!(p.index, i);
        assert_eq!(p.seed, all[i].seed);
        assert_eq!(p.policy_label, all[i].policy_label);
    }

    // Out-of-range indices error instead of aliasing a valid point.
    assert!(pas_scenario::point_at(&m, all.len()).is_err());
    assert!(pas_scenario::expand_indices(&m, &[0, all.len() + 7]).is_err());
}
