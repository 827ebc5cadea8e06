//! What the numbers depend on besides the code: the host.

use std::process::Command;

/// Cores, load sizing and toolchain, recorded with every result.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    /// Engine and replay threads: `min(2, nproc)`.
    pub threads: usize,
    /// Closed-loop HTTP clients: `min(2, nproc)`.
    pub clients: usize,
    pub rustc: String,
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc,
            threads: nproc.min(2),
            clients: nproc.min(2),
            rustc,
        }
    }

    pub fn describe(&self, seed: u64) -> String {
        format!(
            "host: nproc={} T={} C={} rustc=\"{}\" seed={seed}",
            self.nproc, self.threads, self.clients, self.rustc
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
