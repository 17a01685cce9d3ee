//! CLI driver: `cargo run -p slicing-lint [-- --ci | --write-ledger | --stats]`.
//!
//! Exit codes: 0 clean, 1 findings (or ledger drift in `--ci`), 2 usage
//! or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/lint/ -> workspace root, so the tool works from any cwd
    // under `cargo run -p slicing-lint`.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let mut ci = false;
    let mut write_ledger = false;
    let mut stats = false;
    let mut root = workspace_root();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ci" => ci = true,
            "--write-ledger" => write_ledger = true,
            "--stats" => stats = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!(
                    "unknown argument `{other}` (try --ci, --write-ledger, --stats, --root <path>)"
                );
                return ExitCode::from(2);
            }
        }
    }

    if stats {
        return match slicing_lint::stats_tree(&root) {
            Ok(s) => {
                print!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("slicing-lint: cannot walk {}: {e}", root.display());
                ExitCode::from(2)
            }
        };
    }

    let mut report = match slicing_lint::analyze_tree(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("slicing-lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let ledger_path = root.join(slicing_lint::LEDGER_FILE);
    let generated = slicing_lint::render_ledger(&report.inventory);
    if write_ledger {
        if let Err(e) = std::fs::write(&ledger_path, &generated) {
            eprintln!("slicing-lint: cannot write {}: {e}", ledger_path.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote {} ({} unsafe sites)",
            ledger_path.display(),
            report.inventory.len()
        );
    } else if ci {
        let existing = std::fs::read_to_string(&ledger_path).unwrap_or_default();
        report
            .findings
            .extend(slicing_lint::diff_ledger(&existing, &generated));
    }

    for f in &report.findings {
        println!("{f}");
    }
    if report.findings.is_empty() {
        println!(
            "slicing-lint: clean ({} unsafe sites inventoried, all annotated{})",
            report.inventory.len(),
            if ci { ", ledger current" } else { "" }
        );
        ExitCode::SUCCESS
    } else {
        println!("slicing-lint: {} finding(s)", report.findings.len());
        ExitCode::from(1)
    }
}
