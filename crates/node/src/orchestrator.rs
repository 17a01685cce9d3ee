//! Driver-side process harness: write configs, spawn `slicing-node`
//! children, kill/restart them mid-run, scrape their metrics.
//!
//! Everything here is deliberately synchronous `std` — the harness
//! runs in test binaries and the `soak` driver where a blocking scrape
//! with a socket timeout is simpler and more robust than threading the
//! async runtime through process management.

use crate::config::NodeConfig;
use crate::metrics::parse_exposition;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Ask the OS for a currently free UDP port (bind `:0`, read, drop).
/// The tiny reuse race is acceptable for localhost test fleets.
pub fn free_udp_port() -> u16 {
    let sock = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind probe socket");
    sock.local_addr().expect("probe local_addr").port()
}

/// Ask the OS for a currently free TCP port.
pub fn free_tcp_port() -> u16 {
    let sock = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe socket");
    sock.local_addr().expect("probe local_addr").port()
}

/// One HTTP GET/POST against a node's metrics port, with timeouts.
fn http_request(port: u16, request: &str, timeout: Duration) -> std::io::Result<String> {
    let addr = std::net::SocketAddr::from(([127, 0, 0, 1], port));
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

/// Scrape one metrics endpoint into `series → value`. Series names
/// keep their label sets verbatim (`slicing_cc_peers{state="normal"}`).
pub fn scrape_metrics(port: u16, timeout: Duration) -> std::io::Result<HashMap<String, f64>> {
    let response = http_request(port, "GET /metrics HTTP/1.0\r\n\r\n", timeout)?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("");
    Ok(parse_exposition(body).into_iter().collect())
}

/// One managed `slicing-node` process.
pub struct NodeProc {
    /// Fleet-unique name (config and log files are named after it).
    pub name: String,
    /// The config the process runs (rewritten to disk at `add`).
    pub config: NodeConfig,
    config_path: PathBuf,
    log_path: PathBuf,
    child: Option<Child>,
}

impl NodeProc {
    /// Whether a spawned process is still running (reaps on exit).
    pub fn is_up(&mut self) -> bool {
        match &mut self.child {
            Some(child) => matches!(child.try_wait(), Ok(None)),
            None => false,
        }
    }
}

/// A localhost fleet of `slicing-node` processes.
pub struct Fleet {
    dir: PathBuf,
    bin: PathBuf,
    nodes: Vec<NodeProc>,
}

impl Fleet {
    /// A fleet rooted at `dir` (created if missing; holds configs and
    /// per-node logs), spawning the daemon binary at `bin`.
    pub fn new(dir: PathBuf, bin: PathBuf) -> std::io::Result<Fleet> {
        std::fs::create_dir_all(&dir)?;
        Ok(Fleet {
            dir,
            bin,
            nodes: Vec::new(),
        })
    }

    /// Resolve the `slicing-node` binary like a sibling of the current
    /// executable (how cargo lays out bins of one crate), with the
    /// `SLICING_NODE_BIN` environment override.
    pub fn sibling_binary() -> std::io::Result<PathBuf> {
        if let Ok(path) = std::env::var("SLICING_NODE_BIN") {
            return Ok(PathBuf::from(path));
        }
        let mut exe = std::env::current_exe()?;
        exe.set_file_name("slicing-node");
        Ok(exe)
    }

    /// Register a node (writes its config file) without spawning it.
    /// Returns its fleet index.
    pub fn add(&mut self, name: &str, config: NodeConfig) -> std::io::Result<usize> {
        let config_path = self.dir.join(format!("{name}.toml"));
        std::fs::write(&config_path, config.to_toml())?;
        self.nodes.push(NodeProc {
            name: name.to_string(),
            config,
            config_path,
            log_path: self.dir.join(format!("{name}.log")),
            child: None,
        });
        Ok(self.nodes.len() - 1)
    }

    /// Access a node.
    pub fn node(&mut self, idx: usize) -> &mut NodeProc {
        &mut self.nodes[idx]
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Spawn (or respawn) a node. Its stdin is a pipe we hold open:
    /// dropping it — including by this process dying — is the node's
    /// clean-shutdown signal. Stdout/stderr append to the node's log.
    pub fn spawn(&mut self, idx: usize) -> std::io::Result<()> {
        let node = &mut self.nodes[idx];
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&node.log_path)?;
        let child = Command::new(&self.bin)
            .arg(&node.config_path)
            .stdin(Stdio::piped())
            .stdout(log.try_clone()?)
            .stderr(log)
            .spawn()?;
        node.child = Some(child);
        Ok(())
    }

    /// SIGKILL a node (no clean shutdown — this is the crash model for
    /// churn tests) and reap it.
    pub fn kill(&mut self, idx: usize) {
        if let Some(mut child) = self.nodes[idx].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Ask a node to exit cleanly (drop its stdin pipe) and wait up to
    /// `timeout`; escalates to SIGKILL after. Returns whether the exit
    /// was clean.
    pub fn shutdown(&mut self, idx: usize, timeout: Duration) -> bool {
        let Some(mut child) = self.nodes[idx].child.take() else {
            return true;
        };
        drop(child.stdin.take());
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if matches!(child.try_wait(), Ok(Some(_))) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = child.kill();
        let _ = child.wait();
        false
    }

    /// Scrape a node's metrics endpoint.
    pub fn scrape(&self, idx: usize) -> std::io::Result<HashMap<String, f64>> {
        scrape_metrics(
            self.nodes[idx].config.metrics_listen,
            Duration::from_secs(2),
        )
    }

    /// Poll a node's `/healthz` until it answers (bounded retries).
    pub fn wait_healthy(&self, idx: usize, timeout: Duration) -> bool {
        let port = self.nodes[idx].config.metrics_listen;
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if http_request(port, "GET /healthz HTTP/1.0\r\n\r\n", Duration::from_millis(500))
                .map(|r| r.contains("ok"))
                .unwrap_or(false)
            {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        false
    }

    /// Where a node's log lives (for failure diagnostics).
    pub fn log_path(&self, idx: usize) -> &Path {
        &self.nodes[idx].log_path
    }

    /// Kill every running node.
    pub fn kill_all(&mut self) {
        for idx in 0..self.nodes.len() {
            self.kill(idx);
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.kill_all();
    }
}
