//! Processes and directories the benchmark starts, owned by guards that
//! kill, reap and delete them on every exit path: a normal return, an
//! error, or a panic unwinding through the workload.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a process may take to come up before the run gives up.
pub const START_TIMEOUT: Duration = Duration::from_secs(60);

/// Log lines kept per process for error messages.
const LOG_TAIL: usize = 20;

/// A scratch directory under `<root>/.bench_work`, removed on drop.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Create a fresh, empty directory tagged `tag`.
    pub fn new(root: &Path, tag: &str) -> Result<WorkDir, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root
            .join(".bench_work")
            .join(format!("{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Total size of the regular files directly inside `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A running `pas` process, killed and reaped on drop.
pub struct Proc {
    child: Child,
    log: Arc<Mutex<VecDeque<String>>>,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Start `cmd` with stderr drained into a log tail; `on_line` sees
    /// every stderr line first.
    fn spawn(cmd: &mut Command, on_line: impl Fn(&str) + Send + 'static) -> Result<Proc, String> {
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {cmd:?}: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let log = Arc::new(Mutex::new(VecDeque::new()));
        let sink = Arc::clone(&log);
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                on_line(&line);
                let mut tail = sink.lock().expect("log tail poisoned");
                if tail.len() == LOG_TAIL {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
        });
        Ok(Proc {
            child,
            log,
            drain: Some(drain),
        })
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The last stderr lines, for error messages.
    pub fn log_tail(&self) -> String {
        let tail = self.log.lock().expect("log tail poisoned");
        tail.iter().cloned().collect::<Vec<_>>().join("\n")
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The address in a `pas-server listening on ADDR (...)` line; `None`
/// for any other line or an unresolved port 0.
pub fn parse_listen_addr(line: &str) -> Option<SocketAddr> {
    let rest = line.trim().strip_prefix("pas-server listening on ")?;
    let addr: SocketAddr = rest.split_whitespace().next()?.parse().ok()?;
    (addr.port() != 0).then_some(addr)
}

/// Start `pas serve` on an ephemeral loopback port with the cache in
/// `cache_dir`; `local_exec = false` adds `--no-local-exec`. Returns
/// once the listening line names the port.
pub fn spawn_server(
    pas: &Path,
    cache_dir: &Path,
    local_exec: bool,
) -> Result<(Proc, String), String> {
    let mut cmd = Command::new(pas);
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--cache-dir"])
        .arg(cache_dir);
    if !local_exec {
        cmd.arg("--no-local-exec");
    }
    let (tx, rx) = mpsc::channel();
    let tx = Mutex::new(Some(tx));
    let proc = Proc::spawn(&mut cmd, move |line| {
        if let Some(addr) = parse_listen_addr(line) {
            if let Some(tx) = tx.lock().expect("sender lock poisoned").take() {
                let _ = tx.send(addr);
            }
        }
    })?;
    match rx.recv_timeout(START_TIMEOUT) {
        Ok(addr) => Ok((proc, addr.to_string())),
        Err(_) => Err(format!(
            "pas serve printed no listening address:\n{}",
            proc.log_tail()
        )),
    }
}

/// Start `pas worker` against `addr` with default flags.
pub fn spawn_worker(pas: &Path, addr: &str) -> Result<Proc, String> {
    Proc::spawn(
        Command::new(pas).args(["worker", "--connect", addr]),
        |_| {},
    )
}

/// Poll `ready` every millisecond until it holds or [`START_TIMEOUT`]
/// passes.
pub fn wait_until(what: &str, mut ready: impl FnMut() -> bool) -> Result<(), String> {
    let t0 = Instant::now();
    while !ready() {
        if t0.elapsed() > START_TIMEOUT {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_line_gives_the_ephemeral_port() {
        let line = "pas-server listening on 127.0.0.1:41234 (cache: .c, 0 warm entries, dist only)";
        assert_eq!(
            parse_listen_addr(line),
            Some("127.0.0.1:41234".parse().unwrap())
        );
        assert_eq!(
            parse_listen_addr("pas-server listening on 127.0.0.1:0"),
            None
        );
        assert_eq!(
            parse_listen_addr("pas-worker `w` connecting to 127.0.0.1:9"),
            None
        );
        assert_eq!(parse_listen_addr("pas-server listening on nowhere"), None);
    }

    #[test]
    fn work_dir_is_removed_on_drop() {
        let dir = WorkDir::new(&crate::program::repo_root(), "t").unwrap();
        std::fs::write(dir.path().join("f"), b"12345").unwrap();
        assert_eq!(dir_bytes(dir.path()), 5);
        let path = dir.path().to_path_buf();
        drop(dir);
        assert!(!path.exists());
    }
}
