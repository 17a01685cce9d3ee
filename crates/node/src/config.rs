//! The `slicing-node` config file: schema, parser, printer.
//!
//! The format is a strict subset of TOML — `[section]` headers,
//! `key = value` lines with integer, float, quoted-string and
//! single-line string-array values, `#` comments — parsed by hand
//! because the build environment is offline (no serde/toml). Every
//! parse failure carries a line number and a typed reason so operators
//! (and the config test suite) can assert on *why* a file was
//! rejected, not just that it was.
//!
//! All addresses are loopback-only by construction: the daemon is a
//! research artifact for localhost fleets, and refusing non-loopback
//! listen/peer addresses in the parser keeps a stray config file from
//! opening sockets to the world.

use slicing_core::{RelayConfig, SessionConfig};
use slicing_overlay::UdpFaults;
use std::fmt;

/// Which planes a node hosts (comma list in the file: `"relay,dest"`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Roles {
    /// Forward slices for other people's flows.
    pub relay: bool,
    /// Terminate receiver flows with colocated destination sessions.
    pub dest: bool,
    /// Host a driver-facing session plane (source endpoints).
    pub session: bool,
}

/// Transport selection for the node's data plane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Real UDP datagrams with delay-gradient congestion control.
    #[default]
    Udp,
    /// Length-framed TCP streams.
    Tcp,
}

/// UDP fault-injection profile (`[transport]` floats). Mirrors
/// [`UdpFaults`] but lives here so [`NodeConfig`] can derive
/// `PartialEq` for the parse/print round-trip tests.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultProfile {
    /// Drop probability in `[0, 1)`.
    pub loss: f64,
    /// Reorder probability in `[0, 1)`.
    pub reorder: f64,
    /// Duplication probability in `[0, 1)`.
    pub duplicate: f64,
}

impl FaultProfile {
    /// Convert to the overlay transport's fault struct.
    pub fn to_faults(self) -> UdpFaults {
        UdpFaults {
            loss: self.loss,
            reorder: self.reorder,
            duplicate: self.duplicate,
        }
    }
}

/// Everything one `slicing-node` process needs to come up.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeConfig {
    /// Data-plane listen port (the file says `"127.0.0.1:<port>"`).
    pub listen: u16,
    /// Metrics/health HTTP listen port (same loopback-only form).
    pub metrics_listen: u16,
    /// Hosted planes.
    pub roles: Roles,
    /// Relay-plane shard workers.
    pub relay_shards: usize,
    /// Session-plane shard workers.
    pub session_shards: usize,
    /// Whole-node session budget (session role only).
    pub max_sessions: usize,
    /// RNG seed for the node's engines.
    pub seed: u64,
    /// Known peer data ports (informational; the overlay is
    /// source-routed, so peers are learned from setup packets — the
    /// orchestrator records the fleet here for operators).
    pub peers: Vec<u16>,
    /// Data-plane transport.
    pub transport: TransportKind,
    /// UDP fault injection (ignored on TCP).
    pub faults: FaultProfile,
    /// Relay-plane tuning.
    pub relay: RelayConfig,
    /// Session/destination-plane tuning.
    pub session: SessionConfig,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            listen: 0,
            metrics_listen: 0,
            roles: Roles {
                relay: true,
                dest: false,
                session: false,
            },
            relay_shards: 2,
            session_shards: 2,
            max_sessions: 64,
            seed: 7,
            peers: Vec::new(),
            transport: TransportKind::Udp,
            faults: FaultProfile::default(),
            relay: RelayConfig::default(),
            session: SessionConfig::default(),
        }
    }
}

/// Why a config file was rejected. Line numbers are 1-based.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The file could not be read at all.
    Io {
        /// Path we tried to read.
        path: String,
        /// The I/O error's display form.
        error: String,
    },
    /// A line is neither a comment, a section header nor `key = value`.
    Syntax {
        /// Offending line.
        line: usize,
    },
    /// A `[section]` header names no known section.
    UnknownSection {
        /// Offending line.
        line: usize,
        /// The header's name.
        section: String,
    },
    /// A key is not part of its section's schema (or appears before
    /// any section header).
    UnknownKey {
        /// Offending line.
        line: usize,
        /// The section it appeared in (empty = before any header).
        section: String,
        /// The key.
        key: String,
    },
    /// The same key was set twice in one section.
    DuplicateKey {
        /// Second occurrence's line.
        line: usize,
        /// The key.
        key: String,
    },
    /// A key's value failed to parse or failed validation.
    InvalidValue {
        /// Offending line.
        line: usize,
        /// The key.
        key: String,
        /// What was wrong.
        reason: String,
    },
    /// A required key was never set.
    Missing {
        /// The `section.key` path that must be present.
        key: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Io { path, error } => write!(f, "cannot read {path}: {error}"),
            ConfigError::Syntax { line } => write!(f, "line {line}: not a section or key = value"),
            ConfigError::UnknownSection { line, section } => {
                write!(f, "line {line}: unknown section [{section}]")
            }
            ConfigError::UnknownKey { line, section, key } => {
                write!(f, "line {line}: unknown key {key:?} in section [{section}]")
            }
            ConfigError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate key {key:?}")
            }
            ConfigError::InvalidValue { line, key, reason } => {
                write!(f, "line {line}: invalid value for {key:?}: {reason}")
            }
            ConfigError::Missing { key } => write!(f, "missing required key {key}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parse a loopback `"127.0.0.1:<port>"` address into its port.
fn parse_loopback(line: usize, key: &str, value: &str) -> Result<u16, ConfigError> {
    let invalid = |reason: &str| ConfigError::InvalidValue {
        line,
        key: key.to_string(),
        reason: reason.to_string(),
    };
    let (host, port) = value
        .rsplit_once(':')
        .ok_or_else(|| invalid("expected \"127.0.0.1:<port>\""))?;
    if host != "127.0.0.1" {
        return Err(invalid("only loopback (127.0.0.1) addresses are allowed"));
    }
    let port: u16 = port
        .parse()
        .map_err(|_| invalid("port is not a 16-bit integer"))?;
    if port == 0 {
        return Err(invalid("port 0 is reserved (the OS would pick one)"));
    }
    Ok(port)
}

/// Strip surrounding double quotes from a string value.
fn parse_quoted(line: usize, key: &str, value: &str) -> Result<String, ConfigError> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| ConfigError::InvalidValue {
            line,
            key: key.to_string(),
            reason: "expected a double-quoted string".to_string(),
        })?;
    if inner.contains('"') {
        return Err(ConfigError::InvalidValue {
            line,
            key: key.to_string(),
            reason: "embedded quotes are not supported".to_string(),
        });
    }
    Ok(inner.to_string())
}

fn parse_u64(line: usize, key: &str, value: &str) -> Result<u64, ConfigError> {
    value.parse().map_err(|_| ConfigError::InvalidValue {
        line,
        key: key.to_string(),
        reason: "expected an unsigned integer".to_string(),
    })
}

fn parse_usize(line: usize, key: &str, value: &str) -> Result<usize, ConfigError> {
    value.parse().map_err(|_| ConfigError::InvalidValue {
        line,
        key: key.to_string(),
        reason: "expected an unsigned integer".to_string(),
    })
}

/// Parse a probability: a float in `[0, 1)`.
fn parse_prob(line: usize, key: &str, value: &str) -> Result<f64, ConfigError> {
    let v: f64 = value.parse().map_err(|_| ConfigError::InvalidValue {
        line,
        key: key.to_string(),
        reason: "expected a float".to_string(),
    })?;
    if !(0.0..1.0).contains(&v) {
        return Err(ConfigError::InvalidValue {
            line,
            key: key.to_string(),
            reason: format!("probability {v} outside [0, 1)"),
        });
    }
    Ok(v)
}

/// Parse a single-line string array: `["a", "b"]`.
fn parse_string_array(line: usize, key: &str, value: &str) -> Result<Vec<String>, ConfigError> {
    let invalid = |reason: &str| ConfigError::InvalidValue {
        line,
        key: key.to_string(),
        reason: reason.to_string(),
    };
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| invalid("expected a [\"...\", ...] array"))?
        .trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|item| parse_quoted(line, key, item.trim()))
        .collect()
}

fn parse_roles(line: usize, value: &str) -> Result<Roles, ConfigError> {
    let invalid = |reason: String| ConfigError::InvalidValue {
        line,
        key: "roles".to_string(),
        reason,
    };
    let mut roles = Roles::default();
    for token in value.split(',') {
        match token.trim() {
            "relay" => roles.relay = true,
            "dest" => roles.dest = true,
            "session" => roles.session = true,
            other => {
                return Err(invalid(format!(
                    "unknown role {other:?} (expected relay, dest, session)"
                )))
            }
        }
    }
    if !(roles.relay || roles.dest || roles.session) {
        return Err(invalid("at least one role is required".to_string()));
    }
    if roles.dest && !roles.relay {
        return Err(invalid(
            "role \"dest\" requires \"relay\" (destination sessions terminate \
             receiver flows the relay plane establishes)"
                .to_string(),
        ));
    }
    Ok(roles)
}

impl NodeConfig {
    /// Parse a config document. Unset optional keys keep their
    /// defaults; `node.listen` and `metrics.listen` are required.
    pub fn parse(text: &str) -> Result<NodeConfig, ConfigError> {
        let mut cfg = NodeConfig::default();
        let mut section = String::new();
        let mut seen: Vec<(String, String)> = Vec::new();
        let mut have_listen = false;
        let mut have_metrics = false;

        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            if let Some(rest) = trimmed.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or(ConfigError::Syntax { line })?
                    .trim();
                match name {
                    "node" | "transport" | "metrics" | "relay" | "session" => {
                        section = name.to_string();
                    }
                    other => {
                        return Err(ConfigError::UnknownSection {
                            line,
                            section: other.to_string(),
                        })
                    }
                }
                continue;
            }
            let (key, value) = trimmed.split_once('=').ok_or(ConfigError::Syntax { line })?;
            let key = key.trim();
            let value = value.trim();
            if key.is_empty() || value.is_empty() {
                return Err(ConfigError::Syntax { line });
            }
            let slot = (section.clone(), key.to_string());
            if seen.contains(&slot) {
                return Err(ConfigError::DuplicateKey {
                    line,
                    key: key.to_string(),
                });
            }
            seen.push(slot);

            let unknown = || ConfigError::UnknownKey {
                line,
                section: section.clone(),
                key: key.to_string(),
            };
            match (section.as_str(), key) {
                ("node", "listen") => {
                    let s = parse_quoted(line, key, value)?;
                    cfg.listen = parse_loopback(line, key, &s)?;
                    have_listen = true;
                }
                ("node", "roles") => {
                    let s = parse_quoted(line, key, value)?;
                    cfg.roles = parse_roles(line, &s)?;
                }
                ("node", "relay_shards") => {
                    cfg.relay_shards = parse_usize(line, key, value)?.max(1);
                }
                ("node", "session_shards") => {
                    cfg.session_shards = parse_usize(line, key, value)?.max(1);
                }
                ("node", "max_sessions") => {
                    cfg.max_sessions = parse_usize(line, key, value)?.max(1);
                }
                ("node", "seed") => cfg.seed = parse_u64(line, key, value)?,
                ("node", "peers") => {
                    let items = parse_string_array(line, key, value)?;
                    cfg.peers = items
                        .iter()
                        .map(|s| parse_loopback(line, key, s))
                        .collect::<Result<_, _>>()?;
                }
                ("transport", "kind") => {
                    let s = parse_quoted(line, key, value)?;
                    cfg.transport = match s.as_str() {
                        "udp" => TransportKind::Udp,
                        "tcp" => TransportKind::Tcp,
                        other => {
                            return Err(ConfigError::InvalidValue {
                                line,
                                key: key.to_string(),
                                reason: format!("unknown transport {other:?} (udp or tcp)"),
                            })
                        }
                    };
                }
                ("transport", "loss") => cfg.faults.loss = parse_prob(line, key, value)?,
                ("transport", "reorder") => cfg.faults.reorder = parse_prob(line, key, value)?,
                ("transport", "duplicate") => cfg.faults.duplicate = parse_prob(line, key, value)?,
                ("metrics", "listen") => {
                    let s = parse_quoted(line, key, value)?;
                    cfg.metrics_listen = parse_loopback(line, key, &s)?;
                    have_metrics = true;
                }
                ("relay", "setup_flush_ms") => cfg.relay.setup_flush_ms = parse_u64(line, key, value)?,
                ("relay", "data_flush_ms") => cfg.relay.data_flush_ms = parse_u64(line, key, value)?,
                ("relay", "flow_ttl_ms") => cfg.relay.flow_ttl_ms = parse_u64(line, key, value)?,
                ("relay", "max_pending_data") => {
                    cfg.relay.max_pending_data = parse_usize(line, key, value)?;
                }
                ("relay", "max_flows") => cfg.relay.max_flows = parse_usize(line, key, value)?,
                ("relay", "keepalive_ms") => cfg.relay.keepalive_ms = parse_u64(line, key, value)?,
                ("relay", "liveness_timeout_ms") => {
                    cfg.relay.liveness_timeout_ms = parse_u64(line, key, value)?;
                }
                ("session", "window_chunks") => {
                    cfg.session.window_chunks = parse_usize(line, key, value)?;
                }
                ("session", "burst_chunks") => {
                    cfg.session.burst_chunks = parse_usize(line, key, value)?;
                }
                ("session", "pace_ms") => cfg.session.pace_ms = parse_u64(line, key, value)?,
                ("session", "retransmit_ms") => {
                    cfg.session.retransmit_ms = parse_u64(line, key, value)?;
                }
                ("session", "send_buffer_bytes") => {
                    cfg.session.send_buffer_bytes = parse_usize(line, key, value)?;
                }
                ("session", "ack_every_chunks") => {
                    cfg.session.ack_every_chunks = parse_usize(line, key, value)?;
                }
                ("session", "ack_interval_ms") => {
                    cfg.session.ack_interval_ms = parse_u64(line, key, value)?;
                }
                ("session", "reassembly_bytes") => {
                    cfg.session.reassembly_bytes = parse_usize(line, key, value)?;
                }
                _ => return Err(unknown()),
            }
        }

        if !have_listen {
            return Err(ConfigError::Missing {
                key: "node.listen".to_string(),
            });
        }
        if !have_metrics {
            return Err(ConfigError::Missing {
                key: "metrics.listen".to_string(),
            });
        }
        Ok(cfg)
    }

    /// Read and parse a config file.
    pub fn load(path: &std::path::Path) -> Result<NodeConfig, ConfigError> {
        let text = std::fs::read_to_string(path).map_err(|e| ConfigError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        })?;
        NodeConfig::parse(&text)
    }

    /// Print the full document (every key explicit). `parse(to_toml(c))
    /// == c` for any valid config — floats use `{:?}` which Rust
    /// guarantees round-trips.
    pub fn to_toml(&self) -> String {
        let mut roles = Vec::new();
        if self.roles.relay {
            roles.push("relay");
        }
        if self.roles.dest {
            roles.push("dest");
        }
        if self.roles.session {
            roles.push("session");
        }
        let peers = self
            .peers
            .iter()
            .map(|p| format!("\"127.0.0.1:{p}\""))
            .collect::<Vec<_>>()
            .join(", ");
        let kind = match self.transport {
            TransportKind::Udp => "udp",
            TransportKind::Tcp => "tcp",
        };
        format!(
            "# slicing-node config (generated)\n\
             [node]\n\
             listen = \"127.0.0.1:{listen}\"\n\
             roles = \"{roles}\"\n\
             relay_shards = {relay_shards}\n\
             session_shards = {session_shards}\n\
             max_sessions = {max_sessions}\n\
             seed = {seed}\n\
             peers = [{peers}]\n\
             \n\
             [transport]\n\
             kind = \"{kind}\"\n\
             loss = {loss:?}\n\
             reorder = {reorder:?}\n\
             duplicate = {duplicate:?}\n\
             \n\
             [metrics]\n\
             listen = \"127.0.0.1:{metrics}\"\n\
             \n\
             [relay]\n\
             setup_flush_ms = {setup_flush_ms}\n\
             data_flush_ms = {data_flush_ms}\n\
             flow_ttl_ms = {flow_ttl_ms}\n\
             max_pending_data = {max_pending_data}\n\
             max_flows = {max_flows}\n\
             keepalive_ms = {keepalive_ms}\n\
             liveness_timeout_ms = {liveness_timeout_ms}\n\
             \n\
             [session]\n\
             window_chunks = {window_chunks}\n\
             burst_chunks = {burst_chunks}\n\
             pace_ms = {pace_ms}\n\
             retransmit_ms = {retransmit_ms}\n\
             send_buffer_bytes = {send_buffer_bytes}\n\
             ack_every_chunks = {ack_every_chunks}\n\
             ack_interval_ms = {ack_interval_ms}\n\
             reassembly_bytes = {reassembly_bytes}\n",
            listen = self.listen,
            roles = roles.join(","),
            relay_shards = self.relay_shards,
            session_shards = self.session_shards,
            max_sessions = self.max_sessions,
            seed = self.seed,
            peers = peers,
            kind = kind,
            loss = self.faults.loss,
            reorder = self.faults.reorder,
            duplicate = self.faults.duplicate,
            metrics = self.metrics_listen,
            setup_flush_ms = self.relay.setup_flush_ms,
            data_flush_ms = self.relay.data_flush_ms,
            flow_ttl_ms = self.relay.flow_ttl_ms,
            max_pending_data = self.relay.max_pending_data,
            max_flows = self.relay.max_flows,
            keepalive_ms = self.relay.keepalive_ms,
            liveness_timeout_ms = self.relay.liveness_timeout_ms,
            window_chunks = self.session.window_chunks,
            burst_chunks = self.session.burst_chunks,
            pace_ms = self.session.pace_ms,
            retransmit_ms = self.session.retransmit_ms,
            send_buffer_bytes = self.session.send_buffer_bytes,
            ack_every_chunks = self.session.ack_every_chunks,
            ack_interval_ms = self.session.ack_interval_ms,
            reassembly_bytes = self.session.reassembly_bytes,
        )
    }
}
