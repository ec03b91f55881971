//! End-to-end distributed execution over real sockets: a
//! `--no-local-exec` server with the shard scheduler mounted, driven by
//! real `pas_dist::worker` loops — the same wiring `pas serve` /
//! `pas worker` set up — including a worker crash mid-job.

use pas_dist::{Scheduler, SchedulerOptions, WorkerOptions, WorkerSummary};
use pas_scenario::{execute, registry, ExecOptions, Manifest};
use pas_server::{Client, ClientError, JobQueue, ResultCache, ResultFormat, Server, ServerOptions};
use std::time::Duration;

struct Rig {
    addr: String,
    client: Client,
    queue: JobQueue,
    dir: std::path::PathBuf,
}

/// Boot a dist-only server on an ephemeral port with a fresh cache.
fn boot(tag: &str, sched: SchedulerOptions) -> Rig {
    let dir = std::env::temp_dir().join(format!("pas_dist_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).unwrap();
    let opts = ServerOptions {
        local_exec: false,
        ..ServerOptions::default()
    };
    let mut server = Server::bind("127.0.0.1:0", cache.clone(), opts).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let queue = server.queue();
    let scheduler = Scheduler::new(queue.clone(), cache, sched);
    scheduler.spawn_ticker();
    server.set_router(scheduler.into_router());
    std::thread::spawn(move || server.run());
    Rig {
        client: Client::new(addr.clone()),
        addr,
        queue,
        dir,
    }
}

fn small_manifest() -> Manifest {
    let mut m = registry::builtin("paper-default").unwrap();
    m.sweep[0].values = vec![4.0, 12.0].into();
    m.run.replicates = 3;
    m
}

fn spawn_worker(
    addr: &str,
    opts: WorkerOptions,
) -> std::thread::JoinHandle<Result<WorkerSummary, ClientError>> {
    let addr = addr.to_string();
    std::thread::spawn(move || pas_dist::worker::run(&addr, opts))
}

/// Block until `/healthz` counts `n` registered workers.
fn await_workers(rig: &Rig, n: u64) {
    for _ in 0..500 {
        let h = rig.client.healthz().unwrap();
        if pas_server::json::find_u64(&h, "workers") == Some(n) {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("{n} worker(s) never registered");
}

/// The acceptance scenario: one worker is killed mid-job (it executes a
/// few points, then crashes without reporting); the final CSV must still
/// be byte-identical to a direct local run, with every point counted
/// exactly once (hits + misses == total) and the warm resubmission
/// simulating nothing.
#[test]
fn worker_death_mid_job_preserves_bytes_and_counts() {
    let rig = boot(
        "death",
        SchedulerOptions {
            lease: Duration::from_millis(300),
            heartbeat: Duration::from_millis(100),
            shard_points: 3,
            ..SchedulerOptions::default()
        },
    );
    let m = small_manifest();
    let toml = m.to_toml();
    let n = pas_scenario::expand(&m).unwrap().len() as u64;

    // Victim: crashes after 4 executed points — one full reported shard
    // of 3, then one point into its second shard, then silence. It is
    // the only worker until it dies, so the crash deterministically
    // happens mid-job with work abandoned.
    let victim = spawn_worker(
        &rig.addr,
        WorkerOptions {
            name: "victim".into(),
            threads: 1,
            fail_after_points: Some(4),
            verbose: false,
            ..WorkerOptions::default()
        },
    );
    let id = rig.client.submit(&toml).unwrap();
    let victim = victim.join().unwrap().unwrap();
    assert!(victim.died, "victim must hit its fault budget");
    assert_eq!(victim.points, 4, "victim crashed mid-second-shard");
    let stalled = rig.client.status(id).unwrap();
    assert_eq!(stalled.phase, "running", "job survives its worker");

    // Survivor: joins after the crash, inherits the abandoned lease once
    // it expires, and finishes the job.
    let survivor = spawn_worker(
        &rig.addr,
        WorkerOptions {
            name: "survivor".into(),
            threads: 1,
            verbose: false,
            ..WorkerOptions::default()
        },
    );
    let done = rig.client.wait(id, Duration::from_millis(20)).unwrap();
    assert_eq!(done.phase, "completed", "error: {:?}", done.error);
    assert_eq!(
        done.cache_hits + done.cache_misses,
        n,
        "every point recorded exactly once despite the crash"
    );
    assert_eq!(done.cache_hits, 0, "cold job answers nothing from cache");

    // Byte-identical to a direct, single-process, sequential run.
    let direct = execute(&m, ExecOptions { threads: 1 }).unwrap();
    let want_csv = pas_scenario::summary_csv(&direct).render();
    let want_jsonl = pas_scenario::sink::records_jsonl(&direct);
    let csv = rig.client.results(id, ResultFormat::Csv).unwrap();
    assert_eq!(String::from_utf8(csv).unwrap(), want_csv);
    let jsonl = rig.client.results(id, ResultFormat::Jsonl).unwrap();
    assert_eq!(String::from_utf8(jsonl).unwrap(), want_jsonl);

    // Warm resubmission: straight from cache, no worker round trips.
    let id2 = rig.client.submit(&toml).unwrap();
    let done2 = rig.client.wait(id2, Duration::from_millis(20)).unwrap();
    assert_eq!(done2.phase, "completed");
    assert_eq!(done2.cache_hits, n);
    assert_eq!(done2.cache_misses, 0);
    let warm = rig.client.results(id2, ResultFormat::Csv).unwrap();
    assert_eq!(String::from_utf8(warm).unwrap(), want_csv);

    // The survivor re-executed the victim's abandoned shard (the victim
    // recorded 3 points before dying, so the survivor owns the rest) and
    // exits cleanly on drain.
    rig.client.drain().unwrap();
    let survivor = survivor.join().unwrap().unwrap();
    assert!(!survivor.died);
    assert_eq!(
        survivor.points,
        n - 3,
        "survivor executes everything the victim did not report, \
         including the crashed shard's re-lease"
    );

    let _ = std::fs::remove_dir_all(&rig.dir);
}

/// Healthz reflects fleet state, and `submit_with_retry` rides out a 429
/// from a full queue.
#[test]
fn healthz_and_submit_backoff() {
    let rig = boot(
        "health",
        SchedulerOptions {
            heartbeat: Duration::from_millis(100),
            ..SchedulerOptions::default()
        },
    );

    // No workers yet.
    let h = rig.client.healthz().unwrap();
    assert_eq!(pas_server::json::find_bool(&h, "ok"), Some(true));
    assert_eq!(pas_server::json::find_u64(&h, "workers"), Some(0));
    assert_eq!(pas_server::json::find_u64(&h, "queue_depth"), Some(0));

    let worker = spawn_worker(
        &rig.addr,
        WorkerOptions {
            name: "w".into(),
            threads: 1,
            verbose: false,
            ..WorkerOptions::default()
        },
    );
    // The worker registers quickly; healthz counts it.
    await_workers(&rig, 1);

    // submit_with_retry succeeds against a live server without retries...
    let m = small_manifest();
    let mut retries = 0;
    let id = rig
        .client
        .submit_with_retry(&m.to_toml(), Default::default(), |_, _| retries += 1)
        .unwrap();
    assert_eq!(retries, 0);
    let done = rig.client.wait(id, Duration::from_millis(20)).unwrap();
    assert_eq!(done.phase, "completed");

    // ...and a dead address exhausts its retries with backoff.
    let dead = Client::new("127.0.0.1:1");
    let mut attempts = 0;
    let err = dead.submit_with_retry(
        "x",
        pas_server::RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            max: Duration::from_millis(4),
        },
        |_, _| attempts += 1,
    );
    assert!(err.is_err());
    assert_eq!(attempts, 2, "attempts - 1 retries before giving up");

    rig.client.drain().unwrap();
    worker.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&rig.dir);
}

/// Long-poll timing contract: a 30 s heartbeat is also the lease
/// long-poll cap, far above the 10 s assertions, so a lost wake-up or a
/// heartbeat-bound exit fails instead of merely slowing the test.
fn long_poll_rig(tag: &str) -> Rig {
    boot(
        tag,
        SchedulerOptions {
            heartbeat: Duration::from_secs(30),
            lease: Duration::from_secs(90),
            ..SchedulerOptions::default()
        },
    )
}

const PROMPT: Duration = Duration::from_secs(10);

/// A default-options worker that went idle takes a job submitted later
/// at once: the submit wakes its long-polled lease.
#[test]
fn idle_worker_is_woken_by_a_later_submit() {
    let rig = long_poll_rig("wake");
    let worker = spawn_worker(
        &rig.addr,
        WorkerOptions {
            name: "idle".into(),
            ..WorkerOptions::default()
        },
    );
    await_workers(&rig, 1);
    // Its first lease found nothing and parked: the submit must wake it.
    let t0 = std::time::Instant::now();
    while rig.queue.signal().waiters() == 0 {
        assert!(t0.elapsed() < PROMPT, "the idle lease never parked");
        std::thread::sleep(Duration::from_millis(1));
    }

    let t0 = std::time::Instant::now();
    let id = rig.client.submit(&small_manifest().to_toml()).unwrap();
    let done = rig.client.wait(id, Duration::from_millis(5)).unwrap();
    assert_eq!(done.phase, "completed", "error: {:?}", done.error);
    assert!(t0.elapsed() < PROMPT, "job took {:?}", t0.elapsed());

    rig.client.drain().unwrap();
    worker.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&rig.dir);
}

/// A drained worker exits promptly, not one heartbeat interval later:
/// the drain wakes its lease and the stop wakes its heartbeat thread.
#[test]
fn drained_worker_exits_without_waiting_out_its_heartbeat() {
    let rig = long_poll_rig("exit");
    let worker = spawn_worker(
        &rig.addr,
        WorkerOptions {
            name: "exiting".into(),
            threads: 1,
            ..WorkerOptions::default()
        },
    );
    await_workers(&rig, 1);
    let t0 = std::time::Instant::now();
    rig.client.drain().unwrap();
    let summary = worker.join().unwrap().unwrap();
    assert!(t0.elapsed() < PROMPT, "worker exit took {:?}", t0.elapsed());
    assert_eq!(summary.shards, 0);
    let _ = std::fs::remove_dir_all(&rig.dir);
}
