//! End-to-end tests over the committed fixture workspaces: the good tree
//! must come back clean, the bad tree must trip every rule (and the
//! suppression checker), and the installed binary's exit codes and JSON
//! artifact must match what CI relies on.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const EVERY_RULE: [&str; 6] = [
    "cancel_coverage",
    "panic_hygiene",
    "lock_discipline",
    "vocab_sync",
    "crate_hygiene",
    "suppression",
];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn good_workspace_is_clean() {
    let report = cr_lint::run(&fixture("good_workspace")).expect("fixture root is a workspace");
    assert!(
        report.is_clean(),
        "unexpected findings: {:#?}",
        report.diagnostics
    );
    assert_eq!(report.files_scanned, 7);
}

#[test]
fn bad_workspace_trips_every_rule() {
    let report = cr_lint::run(&fixture("bad_workspace")).expect("fixture root is a workspace");
    let fired: BTreeSet<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    for rule in EVERY_RULE {
        assert!(
            fired.contains(rule),
            "rule `{rule}` did not fire on the bad fixture: {:#?}",
            report.diagnostics
        );
    }
    // Spot-check one finding end to end: the ungated `while` loop, with a
    // rustc-style path:line anchor.
    assert!(
        report.diagnostics.iter().any(|d| {
            d.path == "crates/cr-algos/src/config_search.rs"
                && d.line == 7
                && d.rule == "cancel_coverage"
        }),
        "missing the ungated-loop finding: {:#?}",
        report.diagnostics
    );
    // Both directions of vocabulary drift are reported.
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.rule == "vocab_sync" && d.message.contains("deadline_exceeded")));
    assert!(report.diagnostics.iter().any(|d| d.rule == "vocab_sync"
        && d.path == "docs/WIRE.md"
        && d.message.contains("gone_kind")));
    // Both directions of observability-catalog drift are reported too.
    assert!(report.diagnostics.iter().any(|d| d.rule == "vocab_sync"
        && d.path == "crates/cr-obs/src/names.rs"
        && d.message.contains("optm.rounds")));
    assert!(report.diagnostics.iter().any(|d| d.rule == "vocab_sync"
        && d.path == "docs/OBSERVABILITY.md"
        && d.message.contains("ghost.metric")));
}

#[test]
fn nonexistent_root_is_an_error() {
    assert!(cr_lint::run(Path::new("/nonexistent/not-a-workspace")).is_err());
}

#[test]
fn binary_exits_zero_on_the_clean_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_cr-lint"))
        .arg("--root")
        .arg(fixture("good_workspace"))
        .output()
        .expect("run cr-lint");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn binary_exits_one_and_names_rules_on_the_bad_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_cr-lint"))
        .arg("--root")
        .arg(fixture("bad_workspace"))
        .output()
        .expect("run cr-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in EVERY_RULE {
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "text output does not name `{rule}`:\n{stdout}"
        );
    }
}

#[test]
fn binary_json_artifact_carries_every_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_cr-lint"))
        .arg("--json")
        .arg("--root")
        .arg(fixture("bad_workspace"))
        .output()
        .expect("run cr-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in EVERY_RULE {
        assert!(
            stdout.contains(&format!("\"rule\": \"{rule}\"")),
            "JSON output does not name `{rule}`:\n{stdout}"
        );
    }
    assert!(stdout.contains("\"files_scanned\": 7"));
}

#[test]
fn binary_exits_two_on_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_cr-lint"))
        .arg("--bogus-flag")
        .output()
        .expect("run cr-lint");
    assert_eq!(out.status.code(), Some(2));
}
