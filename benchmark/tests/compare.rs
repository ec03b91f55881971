//! `compare` refuses results from different machines or inputs.

use pas_benchmark::child::WorkDir;
use pas_benchmark::program;
use std::process::Command;

fn record(cpu: &str, seed: u64, digest: &str, pps: f64) -> String {
    format!(
        "fingerprint\tnproc=2\tcpu={cpu}\trustc=rustc 1.0\tcommit=none\tpas_sha256=ab\n\
         input\tworkload=batch\tseed={seed}\ttrace=0\tseconds=10\tsize=full\tdigest={digest}\n\
         metric\tpoints_per_s\t{pps}\tpoints/s\tn=10\n\
         {{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{{}}}}\n"
    )
}

fn compare(a: &str, b: &str) -> (i32, String) {
    let dir = WorkDir::new(&program::repo_root(), "compare").unwrap();
    let (pa, pb) = (dir.path().join("a.out"), dir.path().join("b.out"));
    std::fs::write(&pa, a).unwrap();
    std::fs::write(&pb, b).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pas-benchmark"))
        .arg("compare")
        .arg(&pa)
        .arg(&pb)
        .output()
        .unwrap();
    (
        out.status.code().unwrap(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn same_machine_compares() {
    let (code, out) = compare(&record("X", 1, "d1", 100.0), &record("X", 2, "d2", 110.0));
    assert_eq!(code, 0);
    assert!(out.contains("points_per_s\t100\t110\t1.1000"), "{out}");
}

#[test]
fn different_machine_is_refused() {
    let (code, out) = compare(&record("X", 1, "d1", 100.0), &record("Y", 1, "d1", 100.0));
    assert_eq!(code, 3);
    assert!(out.is_empty());
}

#[test]
fn same_seed_different_inputs_is_refused() {
    let (code, _) = compare(&record("X", 1, "d1", 100.0), &record("X", 1, "d2", 100.0));
    assert_eq!(code, 3);
}
