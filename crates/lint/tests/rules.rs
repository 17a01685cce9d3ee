//! Analyzer regression suite: every rule fires on its fixture at the
//! right file:line, the allowlist suppresses only with a justification,
//! seeded regressions in *real* workspace sources are caught, and the
//! live workspace itself stays clean (with a current ledger).

use slicing_lint::{
    analyze_source, analyze_tree, diff_ledger, render_ledger, stats_source, Report, Stats,
    RULE_ALLOW, RULE_GUARD_AWAIT, RULE_HOT_PATH, RULE_SAFETY, RULE_VENDOR_DRIFT,
};

fn lines_for(report: &Report, rule: &str) -> Vec<usize> {
    let mut v: Vec<usize> = report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn safety_rule_fires_per_site() {
    let report = analyze_source(
        "fixtures/safety_missing.rs",
        include_str!("fixtures/safety_missing.rs"),
    );
    // The undocumented `unsafe fn` (L3) and the bare block (L4).
    assert_eq!(lines_for(&report, RULE_SAFETY), vec![3, 4]);
    assert_eq!(report.findings.len(), 2);
    assert_eq!(report.inventory.len(), 2);
    assert!(report.findings.iter().all(|f| f.file == "fixtures/safety_missing.rs"));
}

#[test]
fn safety_rule_accepts_contracts() {
    let report = analyze_source("fixtures/safety_ok.rs", include_str!("fixtures/safety_ok.rs"));
    assert!(report.findings.is_empty(), "unexpected: {:?}", report.findings);
    // Both sites still land in the ledger inventory, annotated.
    assert_eq!(report.inventory.len(), 2);
    assert!(report.inventory.iter().all(|s| s.safety.is_some()));
    assert_eq!(report.inventory[0].name.as_deref(), Some("contract"));
}

#[test]
fn hot_path_rule_fires_per_violation_class() {
    let report = analyze_source(
        "fixtures/hot_path_bad.rs",
        include_str!("fixtures/hot_path_bad.rs"),
    );
    // Vec::new, format!, .clone, .unwrap, assert! — one line each;
    // debug_assert! (L15) and the unmarked `cold` fn stay silent.
    assert_eq!(lines_for(&report, RULE_HOT_PATH), vec![10, 11, 12, 13, 14]);
    assert_eq!(report.findings.len(), 5);
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("`Shard::handle`") || m.contains("`handle`")));
}

#[test]
fn allowlist_requires_justification() {
    let report = analyze_source(
        "fixtures/hot_path_allow.rs",
        include_str!("fixtures/hot_path_allow.rs"),
    );
    // The justified allow (L5) suppresses L6. The bare allow (L7) is
    // itself a finding and does NOT suppress L8; the unknown rule name
    // (L13) is a finding too.
    assert_eq!(lines_for(&report, RULE_HOT_PATH), vec![8]);
    assert_eq!(lines_for(&report, RULE_ALLOW), vec![7, 13]);
    assert_eq!(report.findings.len(), 3);
}

#[test]
fn guard_across_await_fires_only_on_live_guards() {
    let report = analyze_source(
        "fixtures/guard_await.rs",
        include_str!("fixtures/guard_await.rs"),
    );
    // bad_held's binding (L4) and bad_conditional's whole-conditional
    // guard (L9); the scoped, dropped and await-free-conditional
    // variants are clean.
    assert_eq!(lines_for(&report, RULE_GUARD_AWAIT), vec![4, 9]);
    assert_eq!(report.findings.len(), 2);
}

#[test]
fn seeded_regression_deleted_safety_comment() {
    // Real workspace source: the SIMD kernels are clean as checked in…
    let src = include_str!("../../gf/src/simd/x86.rs");
    let clean = analyze_source("crates/gf/src/simd/x86.rs", src);
    assert!(clean.findings.is_empty(), "unexpected: {:?}", clean.findings);
    assert!(!clean.inventory.is_empty());

    // …and deleting the SAFETY comments re-fires the rule on the spot.
    let broken = src.replace("// SAFETY:", "// (safety note removed)");
    assert_ne!(src, broken);
    let report = analyze_source("crates/gf/src/simd/x86.rs", &broken);
    assert!(
        report.findings.iter().any(|f| f.rule == RULE_SAFETY),
        "stripping SAFETY comments must produce findings"
    );
}

#[test]
fn seeded_regression_unwrap_in_hot_path() {
    // Real workspace source: the relay data plane is clean as checked in…
    let src = include_str!("../../core/src/relay.rs");
    let clean = analyze_source("crates/core/src/relay.rs", src);
    assert!(clean.findings.is_empty(), "unexpected: {:?}", clean.findings);

    // …and an unwrap seeded into the marked packet path is caught on
    // the exact line it lands on.
    let anchor = "self.stats.packets_in += 1;";
    let seeded = format!("{anchor} let _n = self.flows.get(&packet.header.flow_id).unwrap();");
    let broken = src.replace(anchor, &seeded);
    assert_ne!(src, broken);
    let expected_line = broken
        .lines()
        .position(|l| l.contains(".unwrap()"))
        .map(|i| i + 1)
        .expect("seeded line present");
    let report = analyze_source("crates/core/src/relay.rs", &broken);
    let hits = lines_for(&report, RULE_HOT_PATH);
    assert_eq!(hits, vec![expected_line], "findings: {:?}", report.findings);
}

#[test]
fn ledger_round_trips_and_classifies_vendor_drift() {
    let report = analyze_source(
        "vendor/fake/src/lib.rs",
        include_str!("fixtures/safety_ok.rs"),
    );
    let generated = render_ledger(&report.inventory);
    // Current ledger: no drift.
    assert!(diff_ledger(&generated, &generated).is_empty());
    // New vendor unsafe vs an empty ledger: vendor-drift, not plain drift.
    let drift = diff_ledger("# UNSAFE_LEDGER\n", &generated);
    assert!(!drift.is_empty());
    assert!(drift.iter().all(|f| f.rule == RULE_VENDOR_DRIFT));
    // A stale entry that left the tree is drift in the other direction.
    let stale = format!("{generated}- vendor/gone/src/lib.rs L9 unsafe block — SAFETY: x\n");
    assert_eq!(diff_ledger(&stale, &generated).len(), 1);
}

#[test]
fn workspace_is_clean_and_ledger_is_current() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root");
    let report = analyze_tree(root).expect("walk workspace");
    assert!(
        report.findings.is_empty(),
        "workspace lint findings: {:#?}",
        report.findings
    );
    // Fixture trees (deliberate violations) must not leak into the walk.
    assert!(report.inventory.iter().all(|s| !s.file.contains("fixtures/")));
    let existing = std::fs::read_to_string(root.join(slicing_lint::LEDGER_FILE))
        .expect("UNSAFE_LEDGER.md is checked in");
    let drift = diff_ledger(&existing, &render_ledger(&report.inventory));
    assert!(drift.is_empty(), "ledger drift: {:#?}", drift);
}

#[test]
fn stats_count_code_outside_tests_and_comments() {
    let src = r##"//! Module docs are comments.

/// So are item docs.
pub struct A; // trailing comment, code line

pub enum E {
    X,
}

pub trait T {}

fn read() -> String {
    let _ = std::env::var_os("B");
    std::env::var("A").unwrap_or_default() + "first
second line of one literal"
}

/* block
   comment */

#[cfg(test)]
use std::env;

#[cfg(test)]
mod tests {
    pub struct Hidden;
    fn f() { let _ = std::env::var("C"); }
}
"##;
    let want = Stats {
        code_lines: 10,
        unsafe_sites: 0,
        env_var_reads: 2,
        pub_traits: 1,
        pub_structs: 1,
        pub_enums: 1,
    };
    assert_eq!(stats_source(src), want);
}

#[test]
fn seeded_regression_unledgered_vendor_unsafe() {
    // Real workspace source: the vendored reactor's unsafe is ledgered
    // as checked in…
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root");
    let ledger = std::fs::read_to_string(root.join(slicing_lint::LEDGER_FILE))
        .expect("UNSAFE_LEDGER.md is checked in");
    let rel = "vendor/tokio/src/reactor.rs";
    let src = include_str!("../../../vendor/tokio/src/reactor.rs");
    let clean = analyze_source(rel, src);
    assert!(
        clean.findings.is_empty(),
        "unexpected: {:?}",
        clean.findings
    );
    assert!(!clean.inventory.is_empty());
    let tree = analyze_tree(root).expect("walk workspace");

    // …and one more site, SAFETY comment and all, appended to it fails
    // `vendor-drift` until the ledger lists it.
    let seeded =
        format!("{src}\n// SAFETY: seeded; nothing to uphold.\nconst _: () = unsafe {{}};\n");
    let mut inventory: Vec<_> = tree
        .inventory
        .into_iter()
        .filter(|s| s.file != rel)
        .collect();
    inventory.extend(analyze_source(rel, &seeded).inventory);
    let drift = diff_ledger(&ledger, &render_ledger(&inventory));
    assert_eq!(drift.len(), 1, "drift: {drift:#?}");
    assert_eq!(drift[0].rule, RULE_VENDOR_DRIFT);
    assert!(drift[0].message.contains("not in ledger"));
}
