//! Subprocess hygiene: whatever way a run ends, no `pas serve`, no
//! `pas worker` and no cache directory outlives it.

use pas_benchmark::child::{self, WorkDir};
use pas_benchmark::program;
use pas_server::Client;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

fn alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

/// What a started fleet left to check on: server pid, worker pid, cache
/// dir.
type Left = (u32, u32, PathBuf);

/// Start a dist fleet on a fresh cache dir, record it in `left`, check
/// it serves on the ephemeral port it printed, then fail.
fn start_then_fail(left: &Mutex<Option<Left>>, panic: bool) -> Result<(), String> {
    let root = program::repo_root();
    let pas = program::build_pas(&root)?;
    let dir = WorkDir::new(&root, "hygiene")?;
    let (server, addr) = child::spawn_server(&pas, dir.path(), false)?;
    let worker = child::spawn_worker(&pas, &addr)?;
    *left.lock().unwrap() = Some((server.pid(), worker.pid(), dir.path().to_path_buf()));
    assert!(
        !addr.ends_with(":0") && !addr.ends_with(":8479"),
        "ephemeral port: {addr}"
    );
    let client = Client::new(addr);
    child::wait_until("/healthz", || client.healthz().is_ok())?;
    assert!(alive(server.pid()) && alive(worker.pid()) && dir.path().exists());
    if panic {
        panic!("a check failed");
    }
    Err("a check failed".to_string())
}

fn assert_gone(left: &Mutex<Option<Left>>) {
    let (server, worker, dir) = left.lock().unwrap().take().expect("fleet was started");
    assert!(!alive(server), "pas serve {server} survived");
    assert!(!alive(worker), "pas worker {worker} survived");
    assert!(!dir.exists(), "{} survived", dir.display());
}

#[test]
fn nothing_survives_a_failed_check() {
    let left = Mutex::new(None);
    assert!(start_then_fail(&left, false).is_err());
    assert_gone(&left);
}

#[test]
fn nothing_survives_a_panic() {
    let left = Mutex::new(None);
    let unwound = std::panic::catch_unwind(|| start_then_fail(&left, true));
    assert!(unwound.is_err());
    assert_gone(&left);
}
