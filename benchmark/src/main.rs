//! `pas-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//! runs one workload and prints its record: a `fingerprint` line, an
//! `input` line, one `metric` line per metric (value, unit, sample
//! count), report lines, and last one JSON line. `--size tiny` shrinks
//! the inputs for self-tests.
//!
//! `pas-benchmark compare A B` compares two saved records, refusing when
//! they were measured on different machines or different inputs.

use pas_benchmark::{gen, program, Ctx, Outcome, Workload};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => bench(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pas-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: gen::Size,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut size) =
        (None, None, None, false, gen::Size::FULL);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{v}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: `{v}` is not a number"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: `{v}` is not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds: `{v}` is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => gen::Size::FULL,
                    "tiny" => gen::Size::TINY,
                    v => return Err(format!("--size: `{v}` is not full or tiny")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size,
    })
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_args(args)?;
    let root = program::repo_root();
    let pas = program::build_pas(&root)?;
    let fp = program::Fingerprint::take(&root, &pas)?;
    let ctx = Ctx {
        root,
        pas,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        size: a.size,
    };
    let mut out = pas_benchmark::run(&ctx, a.workload)?;
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.problems
                .push(format!("metric {} is not finite", m.name));
        }
    }
    print_record(&fp, &a, &out);
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_record(fp: &program::Fingerprint, a: &Args, out: &Outcome) {
    println!("{}", fp.line());
    println!(
        "input\tworkload={}\tseed={}\ttrace={}\tseconds={}\tsize={}\tdigest={}",
        a.workload.name(),
        a.seed,
        a.trace as u8,
        a.seconds,
        if a.size == gen::Size::TINY {
            "tiny"
        } else {
            "full"
        },
        out.digest
    );
    for m in &out.metrics {
        println!(
            "metric\t{}\t{}\t{}\tn={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for n in &out.notes {
        println!("{n}");
    }
    for p in &out.problems {
        println!("problem\t{p}");
        eprintln!("pas-benchmark: check failed: {p}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}

/// The tab-separated `key=value` fields of a record's `kind` line.
fn fields(text: &str, kind: &str) -> Option<BTreeMap<String, String>> {
    let line = text.lines().find(|l| l.split('\t').next() == Some(kind))?;
    Some(
        line.split('\t')
            .skip(1)
            .filter_map(|f| f.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    )
}

/// Metric lines of a record: name → (value, unit).
fn metrics(text: &str) -> BTreeMap<String, (f64, String)> {
    text.lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (f.len() == 5 && f[0] == "metric").then_some(())?;
            Some((f[1].to_string(), (f[2].parse().ok()?, f[3].to_string())))
        })
        .collect()
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: pas-benchmark compare RECORD_A RECORD_B".to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (ta, tb) = (read(a)?, read(b)?);
    let need =
        |t: &str, kind: &str, p: &str| fields(t, kind).ok_or(format!("{p}: no `{kind}` line"));
    let (fa, fb) = (need(&ta, "fingerprint", a)?, need(&tb, "fingerprint", b)?);
    let (ia, ib) = (need(&ta, "input", a)?, need(&tb, "input", b)?);
    for key in ["nproc", "cpu", "rustc"] {
        if fa.get(key) != fb.get(key) {
            eprintln!(
                "refusing to compare: {key} differs ({:?} vs {:?})",
                fa.get(key),
                fb.get(key)
            );
            return Ok(ExitCode::from(3));
        }
    }
    for key in ["workload", "trace", "seconds", "size"] {
        if ia.get(key) != ib.get(key) {
            eprintln!(
                "refusing to compare: {key} differs ({:?} vs {:?})",
                ia.get(key),
                ib.get(key)
            );
            return Ok(ExitCode::from(3));
        }
    }
    if ia.get("seed") == ib.get("seed") && ia.get("digest") != ib.get("digest") {
        eprintln!("refusing to compare: same seed but different generated inputs");
        return Ok(ExitCode::from(3));
    }
    let (ma, mb) = (metrics(&ta), metrics(&tb));
    println!("metric\tA\tB\tB/A\tunit");
    for (name, (va, unit)) in &ma {
        if let Some((vb, _)) = mb.get(name) {
            println!("{name}\t{va}\t{vb}\t{:.4}\t{unit}", vb / va);
        }
    }
    Ok(ExitCode::SUCCESS)
}
