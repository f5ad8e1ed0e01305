//! The multi-pass static-analysis framework behind
//! `cargo run -p xtask -- analyze`.
//!
//! Architecture: [`lexer`] turns every workspace source file into a shared
//! per-line token stream (code/comment split, literals stripped, test-cfg
//! flags); [`config`] holds the path scoping rules and the typed-panic
//! manifest; each pass in [`passes`] is a pure function from that substrate
//! to structured [`diag::Diagnostic`]s; and the driver here fails on any
//! error. A finding is accepted only by an inline reason at its site
//! (`// panic-ok:`, `// relaxed-ok:`, `// unwind-ok:`), where a reviewer
//! reads it next to the code.

pub mod config;
pub mod diag;
pub mod lexer;
pub mod passes;

use std::path::Path;
use std::process::ExitCode;

use config::{manifest_error, UnwindManifest};
use diag::{Diagnostic, Severity};
use lexer::SourceFile;

/// Relative path of the typed-panic-payload manifest.
pub const MANIFEST_PATH: &str = "crates/xtask/unwind-manifest.txt";

/// Options of one `analyze` invocation.
#[derive(Debug, Default)]
pub struct AnalyzeOptions {
    /// Write the full diagnostics document here.
    pub json: Option<std::path::PathBuf>,
}

/// Lexes every workspace `.rs` file (fixtures excluded — they are
/// deliberately bad snippets for the golden tests).
pub fn lex_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths = Vec::new();
    crate::collect_rs_files(root, &mut paths);
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if label.starts_with("crates/xtask/tests/fixtures/") {
            continue;
        }
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        files.push(SourceFile::lex(&label, &source));
    }
    Ok(files)
}

/// Runs the three source-level passes over a lexed file set. Public so the
/// golden fixture tests drive the exact CI pipeline on snippet files.
pub fn run_source_passes(files: &[SourceFile], manifest: &UnwindManifest) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    diags.extend(passes::panic_discipline::run(files));
    diags.extend(passes::unwind_boundary::run(files, manifest));
    diags.extend(passes::atomics::run(files));
    diags
}

/// The `analyze` entry point: lex, run the passes, fail on any error.
pub fn run_analyze(opts: &AnalyzeOptions) -> ExitCode {
    let root = crate::workspace_root();
    let files = match lex_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("analyze: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut diags = Vec::new();
    let manifest = match std::fs::read_to_string(root.join(MANIFEST_PATH)) {
        Ok(text) => match UnwindManifest::parse(&text) {
            Ok(m) => m,
            Err(e) => {
                diags.push(manifest_error(e));
                UnwindManifest::default()
            }
        },
        Err(e) => {
            diags.push(manifest_error(format!("cannot read {MANIFEST_PATH}: {e}")));
            UnwindManifest::default()
        }
    };
    diags.extend(run_source_passes(&files, &manifest));
    diags.extend(passes::plan_invariants::run(
        &gatspi_workloads::suite::table2_suite(),
        passes::plan_invariants::default_scale(),
    ));
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.pass, a.rule).cmp(&(b.file.as_str(), b.line, b.pass, b.rule))
    });

    if let Some(path) = &opts.json {
        let doc = diag::to_json(&diags, files.len());
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("analyze: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    for d in &diags {
        eprintln!("{d}");
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if errors == 0 {
        println!(
            "analyze: {} file(s), {} finding(s), 0 errors",
            files.len(),
            diags.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "analyze: {errors} error(s) — fix them, or give an accepted site its inline \
             reason (`// panic-ok:`, `// relaxed-ok:`, `// unwind-ok:`)"
        );
        ExitCode::FAILURE
    }
}
