//! The `catmark serve` child: spawn, readiness, framed connections,
//! peak memory and shutdown. A [`Daemon`] dropped without a clean
//! [`Daemon::shutdown`] (a failed check, a panic, a timeout) kills
//! and reaps its child and removes its directory, so no socket or
//! process outlives the benchmark.

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::json;

/// Worker threads the daemon runs with: one per core of the
/// two-core reference host.
pub const WORKERS: usize = 2;

pub struct Daemon {
    child: Child,
    dir: PathBuf,
    socket: PathBuf,
}

impl Daemon {
    /// Start `catmark serve` on a socket inside `dir` (relative to the
    /// checkout, so the path stays short), serving the one tenant in
    /// `registry`, and wait until it accepts connections.
    pub fn spawn(catmark: &Path, dir: &Path, registry: &str) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let reg = dir.join("tenant.reg");
        std::fs::write(&reg, registry).map_err(|e| format!("{}: {e}", reg.display()))?;
        let socket = dir.join("d.sock");
        let log = std::fs::File::create(dir.join("daemon.log")).map_err(|e| e.to_string())?;
        let child = Command::new(catmark)
            .arg("serve")
            .arg("--registries")
            .arg(&reg)
            .arg("--socket")
            .arg(&socket)
            .arg("--workers")
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", catmark.display()))?;
        let mut daemon = Daemon { child, dir: dir.to_path_buf(), socket };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if daemon.socket.exists() && UnixStream::connect(&daemon.socket).is_ok() {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not start listening within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        stream.set_read_timeout(Some(Duration::from_secs(120))).map_err(|e| e.to_string())?;
        Ok(Conn { stream })
    }

    /// The daemon's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading daemon status: {e}"))?;
        vm_hwm_mb(&status).ok_or_else(|| "no VmHWM in the daemon's status".into())
    }

    /// CPU time the daemon's threads have run, in ms.
    pub fn cpu_ms(&self) -> f64 {
        task_cpu_ms(self.child.id())
    }

    /// Send `shutdown` and wait for a clean exit; a non-zero exit or
    /// a daemon still running after 20 s is an error.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        let resp = conn.call(r#"{"op":"shutdown"}"#).map_err(|e| format!("shutdown: {e}"))?;
        let resp = json::parse(&resp)?;
        if resp.bool_of("bye") != Some(true) {
            return Err("shutdown was not acknowledged".into());
        }
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if Instant::now() > deadline => return Err("daemon ignored shutdown".into()),
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Summed on-CPU time of every thread of process `pid`, in ms (the
/// first field of each `/proc/<pid>/task/<tid>/schedstat`, in ns).
pub fn task_cpu_ms(pid: u32) -> f64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return 0.0 };
    let ns: u64 = tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e6
}

fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One framed connection: 4-byte big-endian length, then JSON.
pub struct Conn {
    stream: UnixStream,
}

impl Conn {
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        let len = u32::try_from(request.len()).map_err(|_| io::ErrorKind::InvalidInput)?;
        let mut frame = Vec::with_capacity(4 + request.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(request.as_bytes());
        self.stream.write_all(&frame)?;
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
        self.stream.read_exact(&mut payload)?;
        String::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn vm_hwm_is_read_in_megabytes() {
        let status = "Name:\tcatmark\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(super::vm_hwm_mb(status), Some(2.0));
        assert_eq!(super::vm_hwm_mb("Name:\tx\n"), None);
    }
}
