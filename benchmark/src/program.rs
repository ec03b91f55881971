//! Building the shipped `pas` binary and fingerprinting the machine.

use pas_server::hash::{hex, sha256};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Root of the repository checkout the benchmark lives in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Build `pas` from the checkout's sources (release profile, Cargo's
/// own target directory settings) and return the executable's path.
pub fn build_pas(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .args(["build", "--release", "--bin", "pas"])
        .args(["--message-format", "json-render-diagnostics"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building pas failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| {
            l.contains("\"reason\":\"compiler-artifact\"") && l.contains("\"name\":\"pas\"")
        })
        .find_map(|l| pas_server::json::find_string(l, "executable"))
        .map(PathBuf::from)
        .ok_or_else(|| "cargo reported no `pas` executable".to_string())
}

/// What a result was measured on and with. Results are comparable only
/// when [`Fingerprint::machine`] matches; `commit` and `pas_sha256` name
/// the code under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Available parallelism.
    pub nproc: usize,
    /// `model name` of the first CPU.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub commit: String,
    /// SHA-256 of the `pas` binary.
    pub pas_sha256: String,
}

impl Fingerprint {
    /// Fingerprint this machine and the `pas` binary at `pas`.
    pub fn take(root: &Path, pas: &Path) -> Result<Fingerprint, String> {
        let bytes = std::fs::read(pas).map_err(|e| format!("reading {}: {e}", pas.display()))?;
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
        Ok(Fingerprint {
            nproc: nproc(),
            cpu,
            rustc: first_line(Command::new(rustc).arg("--version")),
            commit: first_line(
                Command::new("git")
                    .arg("-C")
                    .arg(root)
                    .args(["rev-parse", "HEAD"]),
            ),
            pas_sha256: hex(&sha256(&bytes)),
        })
    }

    /// One tab-separated record line.
    pub fn line(&self) -> String {
        format!(
            "fingerprint\tnproc={}\tcpu={}\trustc={}\tcommit={}\tpas_sha256={}",
            self.nproc, self.cpu, self.rustc, self.commit, self.pas_sha256
        )
    }
}

/// Threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line(cmd: &mut Command) -> String {
    cmd.stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "none".to_string())
}
