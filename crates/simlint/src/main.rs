//! Command-line front end.
//!
//! ```text
//! simlint --workspace [--json]          # scan every first-party .rs file
//! simlint PATH... [--json]              # scan specific files
//! simlint --audit                       # list suppressions + whitelist + baseline
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error. `--audit` is
//! informational and always exits 0 on success.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  simlint --workspace [--json]\n  simlint PATH... [--json]\n  simlint --audit\n\n\
         Scans for violations of the project invariants (rules: {}).\n\
         Suppress with `// simlint: allow(<rule>) — <justification>`.\n\
         Config at the workspace root: {} (hot-path manifest), {} (inline manifest),\n\
         {} (layering manifest), {} (shared-state whitelist), {} (baseline).",
        simlint::rules::RULES.join(", "),
        simlint::HOTPATHS_FILE,
        simlint::INLINE_FILE,
        simlint::LAYERS_FILE,
        simlint::SHARED_STATE_FILE,
        simlint::BASELINE_FILE,
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let workspace = args.iter().any(|a| a == "--workspace");
    let audit = args.iter().any(|a| a == "--audit");
    let paths: Vec<PathBuf> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .collect();
    if !workspace && !audit && paths.is_empty() {
        return usage();
    }
    if (workspace || audit) && !paths.is_empty() {
        eprintln!("simlint: --workspace/--audit take no paths");
        return usage();
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("simlint: cannot read current dir: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = simlint::find_workspace_root(&cwd) else {
        eprintln!("simlint: no workspace Cargo.toml found above {}", cwd.display());
        return ExitCode::from(2);
    };

    if audit {
        return match simlint::audit_workspace(&root) {
            Ok(listing) => {
                print!("{listing}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("simlint: {e}");
                ExitCode::from(2)
            }
        };
    }

    let result = if workspace {
        simlint::scan_workspace(&root)
    } else {
        let abs: Vec<PathBuf> =
            paths.iter().map(|p| if p.is_absolute() { p.clone() } else { cwd.join(p) }).collect();
        simlint::scan_paths(&root, &abs)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
