//! Config parser suite: fixture files with typed-error assertions plus
//! a parse/print round-trip property.

use proptest::prelude::*;
use slicing_node::config::{
    ConfigError, FaultProfile, NodeConfig, Roles, TransportKind,
};

fn fixture(name: &str) -> Result<NodeConfig, ConfigError> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    NodeConfig::load(&path)
}

#[test]
fn minimal_fixture_parses_with_defaults() {
    let cfg = fixture("valid_minimal.toml").expect("minimal config is valid");
    assert_eq!(cfg.listen, 9001);
    assert_eq!(cfg.metrics_listen, 9101);
    // Everything else keeps its default.
    let defaults = NodeConfig::default();
    assert_eq!(cfg.roles, defaults.roles);
    assert_eq!(cfg.transport, TransportKind::Udp);
    assert_eq!(cfg.relay, defaults.relay);
    assert_eq!(cfg.session, defaults.session);
    assert!(cfg.peers.is_empty());
}

#[test]
fn full_fixture_sets_every_field() {
    let cfg = fixture("valid_full.toml").expect("full config is valid");
    assert_eq!(cfg.listen, 9001);
    assert_eq!(cfg.metrics_listen, 9101);
    assert_eq!(
        cfg.roles,
        Roles {
            relay: true,
            dest: true,
            session: true
        }
    );
    assert_eq!(cfg.relay_shards, 4);
    assert_eq!(cfg.session_shards, 3);
    assert_eq!(cfg.max_sessions, 128);
    assert_eq!(cfg.seed, 42);
    assert_eq!(cfg.peers, vec![9002, 9003]);
    assert_eq!(cfg.faults.loss, 0.05);
    assert_eq!(cfg.faults.reorder, 0.01);
    assert_eq!(cfg.faults.duplicate, 0.002);
    assert_eq!(cfg.relay.setup_flush_ms, 400);
    assert_eq!(cfg.relay.liveness_timeout_ms, 900);
    assert_eq!(cfg.session.window_chunks, 48);
    assert_eq!(cfg.session.reassembly_bytes, 1_048_576);
}

#[test]
fn missing_listen_is_typed() {
    assert_eq!(
        fixture("invalid_missing_listen.toml").unwrap_err(),
        ConfigError::Missing {
            key: "node.listen".to_string()
        }
    );
}

#[test]
fn nonloopback_listen_is_rejected_with_reason() {
    match fixture("invalid_nonloopback.toml").unwrap_err() {
        ConfigError::InvalidValue { line, key, reason } => {
            assert_eq!(line, 3);
            assert_eq!(key, "listen");
            assert!(reason.contains("loopback"), "reason: {reason}");
        }
        other => panic!("wrong error: {other:?}"),
    }
}

#[test]
fn unknown_key_names_section_and_line() {
    assert_eq!(
        fixture("invalid_unknown_key.toml").unwrap_err(),
        ConfigError::UnknownKey {
            line: 3,
            section: "node".to_string(),
            key: "shards".to_string()
        }
    );
}

/// The endpoint-mode gather knobs left with endpoint mode: configs that
/// still carry them are rejected like any other stray key.
#[test]
fn removed_gather_keys_are_unknown() {
    for key in ["max_gathers", "gather_ttl_ms"] {
        let text = format!("[node]\nlisten = \"127.0.0.1:9001\"\n[session]\n{key} = 64\n");
        assert_eq!(
            NodeConfig::parse(&text).unwrap_err(),
            ConfigError::UnknownKey {
                line: 4,
                section: "session".to_string(),
                key: key.to_string()
            }
        );
    }
}

#[test]
fn duplicate_key_reports_second_occurrence() {
    assert_eq!(
        fixture("invalid_duplicate_key.toml").unwrap_err(),
        ConfigError::DuplicateKey {
            line: 3,
            key: "listen".to_string()
        }
    );
}

#[test]
fn dest_without_relay_is_rejected() {
    match fixture("invalid_roles.toml").unwrap_err() {
        ConfigError::InvalidValue { key, reason, .. } => {
            assert_eq!(key, "roles");
            assert!(reason.contains("requires"), "reason: {reason}");
        }
        other => panic!("wrong error: {other:?}"),
    }
}

#[test]
fn unknown_transport_is_rejected() {
    match fixture("invalid_transport.toml").unwrap_err() {
        ConfigError::InvalidValue { key, reason, .. } => {
            assert_eq!(key, "kind");
            assert!(reason.contains("quic"), "reason: {reason}");
        }
        other => panic!("wrong error: {other:?}"),
    }
}

#[test]
fn out_of_range_probability_is_rejected() {
    match fixture("invalid_loss.toml").unwrap_err() {
        ConfigError::InvalidValue { key, reason, .. } => {
            assert_eq!(key, "loss");
            assert!(reason.contains("[0, 1)"), "reason: {reason}");
        }
        other => panic!("wrong error: {other:?}"),
    }
}

#[test]
fn bare_words_are_a_syntax_error() {
    assert_eq!(
        fixture("invalid_syntax.toml").unwrap_err(),
        ConfigError::Syntax { line: 3 }
    );
}

#[test]
fn unknown_section_is_typed() {
    assert_eq!(
        fixture("invalid_section.toml").unwrap_err(),
        ConfigError::UnknownSection {
            line: 4,
            section: "tuning".to_string()
        }
    );
}

#[test]
fn missing_file_is_io_error() {
    match fixture("no_such_file.toml").unwrap_err() {
        ConfigError::Io { path, .. } => assert!(path.ends_with("no_such_file.toml")),
        other => panic!("wrong error: {other:?}"),
    }
}

#[test]
fn port_zero_is_rejected() {
    let err = NodeConfig::parse(
        "[node]\nlisten = \"127.0.0.1:0\"\n[metrics]\nlisten = \"127.0.0.1:9101\"\n",
    )
    .unwrap_err();
    match err {
        ConfigError::InvalidValue { key, reason, .. } => {
            assert_eq!(key, "listen");
            assert!(reason.contains("port 0"), "reason: {reason}");
        }
        other => panic!("wrong error: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse(to_toml(c)) == c`: printing then re-parsing any valid
    /// config is the identity.
    #[test]
    fn to_toml_round_trips(
        listen in 1u16..,
        metrics_listen in 1u16..,
        role_pick in 0usize..4,
        relay_shards in 1usize..8,
        session_shards in 1usize..8,
        max_sessions in 1usize..10_000,
        seed in any::<u64>(),
        peers in collection::vec(1u16.., 0..5),
        udp in any::<bool>(),
        loss_millis in 0u32..1000,
        timings in collection::vec(1u64..100_000, 15..16),
    ) {
        let cfg = NodeConfig {
            listen,
            metrics_listen,
            roles: [
                Roles { relay: true, dest: false, session: false },
                Roles { relay: true, dest: true, session: false },
                Roles { relay: true, dest: true, session: true },
                Roles { relay: false, dest: false, session: true },
            ][role_pick],
            relay_shards,
            session_shards,
            max_sessions,
            seed,
            peers,
            transport: if udp { TransportKind::Udp } else { TransportKind::Tcp },
            faults: FaultProfile {
                loss: f64::from(loss_millis) / 1000.0,
                reorder: f64::from(loss_millis % 97) / 100.0,
                duplicate: f64::from(loss_millis % 13) / 50.0,
            },
            relay: slicing_core::RelayConfig {
                setup_flush_ms: timings[0],
                data_flush_ms: timings[1],
                flow_ttl_ms: timings[2],
                max_pending_data: timings[3] as usize,
                max_flows: timings[4] as usize,
                keepalive_ms: timings[5],
                liveness_timeout_ms: timings[6],
            },
            session: slicing_core::SessionConfig {
                window_chunks: timings[7] as usize,
                burst_chunks: timings[8] as usize,
                pace_ms: timings[9],
                retransmit_ms: timings[10],
                send_buffer_bytes: timings[11] as usize,
                ack_every_chunks: timings[12] as usize,
                ack_interval_ms: timings[13],
                reassembly_bytes: timings[14] as usize,
            },
        };
        let reparsed = NodeConfig::parse(&cfg.to_toml()).expect("printed config parses");
        prop_assert_eq!(reparsed, cfg);
    }
}
