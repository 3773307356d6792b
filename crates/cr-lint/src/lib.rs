//! `cr-lint` — workspace-invariant static analysis for the CRSharing
//! repository.
//!
//! The serving stack's correctness rests on rules no compiler checks:
//! every long-running search loop polls a `CancelGate`, production paths
//! do not panic, the service cache mutex is never held across I/O, and the
//! wire error vocabulary stays in sync with `docs/WIRE.md`. This crate
//! enforces them mechanically, as named, individually suppressible rules
//! over a hand-rolled lexer and scope tracker (dependency-free — no `syn`,
//! no network; see `docs/LINTS.md` for the catalog):
//!
//! * [`rules::cancel_coverage`] — loops in hot modules poll a gate;
//! * [`rules::panic_hygiene`] — no `unwrap`/`expect`/`panic!` (and, in
//!   `cr-service`, no slice indexing) on production paths;
//! * [`rules::lock_discipline`] — no second lock and no I/O while a mutex
//!   guard is live;
//! * [`rules::vocab_sync`] — error `kind` strings ⇄ `docs/WIRE.md`, and
//!   metric/span names ⇄ the `docs/OBSERVABILITY.md` catalog;
//! * [`rules::crate_hygiene`] — standard lint headers + workspace lint
//!   inheritance everywhere.
//!
//! Deliberate exceptions are justified in-tree:
//! `// lint: allow(<rule>) — <reason>` (see [`suppress`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod suppress;

use diag::Diagnostic;
use std::fs;
use std::path::{Path, PathBuf};

/// The hot modules whose loops must poll a `CancelGate`
/// (workspace-relative paths).
pub const HOT_MODULES: [&str; 6] = [
    "crates/cr-algos/src/config_search.rs",
    "crates/cr-algos/src/frontier.rs",
    "crates/cr-algos/src/opt_m.rs",
    "crates/cr-algos/src/opt_two.rs",
    "crates/cr-algos/src/brute_force.rs",
    "crates/cr-sim/src/engine.rs",
];

/// Source prefixes under panic-hygiene (production paths of the solver
/// core and the serving tier).
pub const PANIC_PREFIXES: [&str; 3] = [
    "crates/cr-service/src/",
    "crates/cr-algos/src/",
    "crates/cr-core/src/",
];

/// The prefix where slice indexing is additionally flagged (a
/// remote-triggerable panic costs a serving worker).
pub const INDEX_PREFIX: &str = "crates/cr-service/src/";

/// The wire-vocabulary invariant files.
pub const VOCAB_SOLVER: &str = "crates/cr-algos/src/solver.rs";
/// See [`VOCAB_SOLVER`].
pub const VOCAB_WIRE: &str = "crates/cr-service/src/wire.rs";
/// See [`VOCAB_SOLVER`].
pub const VOCAB_DOC: &str = "docs/WIRE.md";

/// The observability-vocabulary invariant files: the declared metric and
/// span name arrays, cross-checked against the catalog document.
pub const VOCAB_OBS: &str = "crates/cr-obs/src/names.rs";
/// See [`VOCAB_OBS`].
pub const VOCAB_OBS_DOC: &str = "docs/OBSERVABILITY.md";

/// A full lint run's outcome.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the workspace is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lints the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml` and the `crates/` tree).
///
/// # Errors
///
/// A human-readable message when `root` is not a workspace or files
/// cannot be read.
pub fn run(root: &Path) -> Result<Report, String> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err(format!(
            "{} does not look like the workspace root (need Cargo.toml + crates/)",
            root.display()
        ));
    }

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut files_scanned = 0usize;

    // ---- Per-file rules over every crate's src tree -------------------
    let mut vocab_solver: Option<Vec<lexer::Token>> = None;
    let mut vocab_wire: Option<Vec<lexer::Token>> = None;
    let mut vocab_obs: Option<Vec<lexer::Token>> = None;

    for crate_dir in crate_dirs(root)? {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        files.sort();
        for file in files {
            let rel = rel_path(root, &file);
            let source =
                fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
            files_scanned += 1;

            let tokens = lexer::lex(&source);
            let ctx = scope::analyze(&tokens);
            let suppressions = suppress::parse(&rel, &tokens, &mut diags);

            if HOT_MODULES.contains(&rel.as_str()) {
                rules::cancel_coverage::check(&rel, &tokens, &ctx, &suppressions, &mut diags);
            }
            if PANIC_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                let indexing = rel.starts_with(INDEX_PREFIX);
                rules::panic_hygiene::check(
                    &rel,
                    &tokens,
                    &ctx,
                    &suppressions,
                    indexing,
                    &mut diags,
                );
            }
            rules::lock_discipline::check(&rel, &tokens, &ctx, &suppressions, &mut diags);

            if rel == VOCAB_SOLVER {
                vocab_solver = Some(tokens.clone());
            } else if rel == VOCAB_WIRE {
                vocab_wire = Some(tokens.clone());
            } else if rel == VOCAB_OBS {
                vocab_obs = Some(tokens.clone());
            }

            // Crate/binary roots: standard lint header.
            let is_lib = rel.ends_with("src/lib.rs");
            let is_bin = rel.ends_with("src/main.rs") || rel.contains("src/bin/");
            if is_lib || is_bin {
                rules::crate_hygiene::check_root(&rel, &tokens, is_lib, &mut diags);
            }
        }

        // Manifest lint inheritance.
        let manifest_path = crate_dir.join("Cargo.toml");
        let manifest = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("read {}: {e}", manifest_path.display()))?;
        rules::crate_hygiene::check_manifest(
            &rel_path(root, &manifest_path),
            &manifest,
            &mut diags,
        );
    }

    // ---- Workspace-level vocabulary sync ------------------------------
    let doc_path = root.join(VOCAB_DOC);
    match (vocab_solver, vocab_wire, fs::read_to_string(&doc_path)) {
        (Some(solver), Some(wire), Ok(doc)) => {
            rules::vocab_sync::check(
                (VOCAB_SOLVER, &solver),
                (VOCAB_WIRE, &wire),
                (VOCAB_DOC, &doc),
                &mut diags,
            );
        }
        (solver, wire, doc) => {
            for (present, what) in [
                (solver.is_some(), VOCAB_SOLVER),
                (wire.is_some(), VOCAB_WIRE),
                (doc.is_ok(), VOCAB_DOC),
            ] {
                if !present {
                    diags.push(Diagnostic {
                        path: what.to_string(),
                        line: 1,
                        rule: rules::vocab_sync::RULE,
                        message: "wire-vocabulary invariant file is missing from the workspace"
                            .to_string(),
                    });
                }
            }
        }
    }

    // ---- Workspace-level observability-vocabulary sync ----------------
    let obs_doc_path = root.join(VOCAB_OBS_DOC);
    match (vocab_obs, fs::read_to_string(&obs_doc_path)) {
        (Some(names), Ok(doc)) => {
            rules::vocab_sync::check_obs((VOCAB_OBS, &names), (VOCAB_OBS_DOC, &doc), &mut diags);
        }
        (names, doc) => {
            for (present, what) in [(names.is_some(), VOCAB_OBS), (doc.is_ok(), VOCAB_OBS_DOC)] {
                if !present {
                    diags.push(Diagnostic {
                        path: what.to_string(),
                        line: 1,
                        rule: rules::vocab_sync::RULE,
                        message:
                            "observability-vocabulary invariant file is missing from the workspace"
                                .to_string(),
                    });
                }
            }
        }
    }

    diags.sort();
    diags.dedup();
    Ok(Report {
        diagnostics: diags,
        files_scanned,
    })
}

/// The workspace's own crate directories: the root package plus
/// `crates/*`. Vendored shims and `target/` are deliberately out of scope.
fn crate_dirs(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = vec![root.to_path_buf()];
    let crates = root.join("crates");
    let entries = fs::read_dir(&crates).map_err(|e| format!("read {}: {e}", crates.display()))?;
    let mut found: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    found.sort();
    dirs.extend(found);
    Ok(dirs)
}

/// Recursively collects `.rs` files under `dir` (skipping `fixtures`
/// directories — the lint's own committed bad examples).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
