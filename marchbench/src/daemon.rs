//! Building, starting, probing and stopping a release `marchgend`.

use crate::http::Client;
use marchgen::json::Json;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// 100 on every mainstream Linux build).
const TICKS_PER_SECOND: f64 = 100.0;

/// Builds the release daemon from the checkout in the working
/// directory and returns the binary's path.
///
/// # Errors
///
/// When cargo cannot be started or the build fails.
pub fn build() -> io::Result<PathBuf> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "--bin",
            "marchgend",
        ])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("building marchgend: {status}")));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    Ok(target.join("release").join("marchgend"))
}

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    // Held so the daemon's last stdout line has somewhere to go.
    _stdout: BufReader<ChildStdout>,
    /// The loopback address it listens on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon on a free loopback port with its default
    /// worker count and a memory-only cache, and waits for the first
    /// healthy `/v1/health`. Returns the daemon and the time from spawn
    /// to that answer.
    ///
    /// # Errors
    ///
    /// When the process does not start, announce its address or answer
    /// the health check.
    pub fn start(binary: &Path) -> io::Result<(Daemon, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--slow-request-ms", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let announced = stdout.read_line(&mut line).ok().and_then(|_| {
            line.trim()
                .strip_prefix("marchgend listening on http://")
                .and_then(|a| a.parse().ok())
        });
        let Some(addr) = announced else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "marchgend did not announce its address (got {line:?})"
            )));
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        let health = daemon.get("/v1/health")?;
        if health.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(io::Error::other("marchgend is not healthy"));
        }
        Ok((daemon, started.elapsed()))
    }

    /// One request on a fresh connection, closed afterwards; the body
    /// must be a 2xx JSON document.
    ///
    /// # Errors
    ///
    /// Transport failures, non-2xx statuses and undecodable bodies.
    pub fn get(&self, path: &str) -> io::Result<Json> {
        let text = self.get_text(path)?;
        Json::parse(&text).map_err(|e| io::Error::other(format!("GET {path}: {e}")))
    }

    /// [`Daemon::get`] for a plain-text body.
    ///
    /// # Errors
    ///
    /// Transport failures and non-2xx statuses.
    pub fn get_text(&self, path: &str) -> io::Result<String> {
        let mut client = Client::new(self.addr);
        let reply = client.send("GET", path, b"")?;
        if !reply.success() {
            return Err(io::Error::other(format!(
                "GET {path}: status {}",
                reply.status
            )));
        }
        String::from_utf8(reply.body).map_err(|_| io::Error::other("non-UTF-8 body"))
    }

    /// CPU time the daemon has used so far (user + system), seconds.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/stat` cannot be read or parsed.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64)
                .ok_or_else(|| io::Error::other("malformed /proc stat"))
        };
        Ok((ticks(11)? + ticks(12)?) / TICKS_PER_SECOND)
    }

    /// Peak resident set size (`VmHWM`), megabytes.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/status` cannot be read or lacks the field.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
