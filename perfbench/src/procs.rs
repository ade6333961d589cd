//! Spawned `rap serve` processes, memory high-water marks, and the host
//! fingerprint.

use rap_serve::Client;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The line `rap serve` prints once it is bound.
const READY_PREFIX: &str = rap_cluster::READY_PREFIX;

/// How long a spawned server may take to print its readiness line.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `rap serve` child. Dropping it kills and reaps the child.
pub struct ServerProc {
    child: Child,
    /// The address the server bound.
    pub addr: SocketAddr,
    stdout_drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Spawn `binary serve --addr 127.0.0.1:0 <extra>` and wait for its
    /// readiness line.
    ///
    /// # Errors
    /// Spawn failures, a child that exits before it is ready, or one that
    /// stays silent past the readiness timeout.
    pub fn spawn(binary: &Path, extra: &[&str]) -> io::Result<Self> {
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .stdin(Stdio::null())
            .spawn()?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("child stdout was not captured"))?;
        let (tx, rx) = mpsc::channel();
        // The reader thread reports the bound address, then keeps the
        // pipe drained until the child exits (EOF ends the thread).
        let stdout_drain = std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let mut announced = false;
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                if !announced {
                    if let Some(rest) = line.trim().strip_prefix(READY_PREFIX) {
                        announced = true;
                        let _ = tx.send(rest.trim().parse::<SocketAddr>().ok());
                    }
                }
                line.clear();
            }
        });
        let mut proc = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout_drain: Some(stdout_drain),
        };
        match rx.recv_timeout(READY_TIMEOUT) {
            Ok(Some(addr)) => {
                proc.addr = addr;
                Ok(proc)
            }
            Ok(None) => Err(io::Error::other("unparseable readiness address")),
            Err(_) => Err(io::Error::other(
                "server exited or stayed silent before its readiness line",
            )),
        }
    }

    /// The child's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The child's peak resident set so far, in KiB.
    #[must_use]
    pub fn peak_rss_kib(&self) -> u64 {
        peak_rss_kib(&format!("/proc/{}/status", self.pid()))
    }

    /// Ask the server to drain and wait for it to exit; kill it if it
    /// has not exited within `grace`. Returns whether it exited cleanly.
    pub fn stop(mut self, grace: Duration) -> bool {
        let asked = Client::connect_with_timeout(self.addr, grace)
            .and_then(|mut c| c.roundtrip(r#"{"cmd":"shutdown"}"#))
            .is_ok();
        let deadline = Instant::now() + grace;
        while asked && Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.join_drain();
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.kill();
        false
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_drain();
    }

    fn join_drain(&mut self) {
        if let Some(handle) = self.stdout_drain.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.stdout_drain.is_some() {
            self.kill();
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in KiB (0 when unreadable).
#[must_use]
pub fn peak_rss_kib(status_path: &str) -> u64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// This process's peak resident set, in KiB.
#[must_use]
pub fn own_peak_rss_kib() -> u64 {
    peak_rss_kib("/proc/self/status")
}

/// The host fingerprint printed with every result: CPU model, logical
/// and physical cores, compiler, `target-cpu`, and the source commit.
#[must_use]
pub fn fingerprint(repo_root: &Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cpu_model\":{},\"logical_cpus\":{},\"physical_cpus\":{},\"rustc\":{},\"target_cpu\":{},\"git_commit\":{}}}",
        json_str(&cpu),
        rap_bench::perf::logical_cpus(),
        rap_bench::perf::physical_cpus(),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_TARGET_CPU")),
        json_str(&git_commit(repo_root).unwrap_or_else(|| "unknown".to_string())),
    )
}

/// The commit `HEAD` names, read from `.git` without running git (a
/// plain source export has no `.git` and yields `None`).
fn git_commit(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| "\"?\"".to_string())
}
