//! The multi-pass static-analysis framework behind
//! `cargo run -p xtask -- analyze`.
//!
//! Architecture: [`lexer`] turns every workspace source file into a shared
//! per-line token stream (code/comment split, literals stripped, test-cfg
//! flags); [`config`] holds the path scoping rules and the typed-panic
//! manifest; each pass in [`passes`] is a pure function from that substrate
//! to structured [`diag::Diagnostic`]s; and the driver here applies the
//! checked-in baseline (`crates/xtask/analyze-baseline.json`) so
//! pre-existing accepted findings don't block CI while anything new does.

pub mod config;
pub mod diag;
pub mod lexer;
pub mod passes;

use std::path::Path;
use std::process::ExitCode;

use config::{manifest_error, UnwindManifest};
use diag::{Baseline, Diagnostic, Severity};
use lexer::SourceFile;

/// Relative path of the typed-panic-payload manifest.
pub const MANIFEST_PATH: &str = "crates/xtask/unwind-manifest.txt";

/// Relative path of the baseline/suppression file.
pub const BASELINE_PATH: &str = "crates/xtask/analyze-baseline.json";

/// Options of one `analyze` invocation.
#[derive(Debug, Default)]
pub struct AnalyzeOptions {
    /// Write the full (pre-baseline) diagnostics document here.
    pub json: Option<std::path::PathBuf>,
    /// Regenerate the baseline from the current findings instead of
    /// gating against it.
    pub update_baseline: bool,
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

/// The `analyze` entry point: lex, run the passes, gate against the
/// baseline.
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

    let baseline_path = root.join(BASELINE_PATH);
    if opts.update_baseline {
        let errors: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        let base = Baseline::from_diags(errors.iter().copied());
        if let Err(e) = std::fs::write(&baseline_path, base.to_json()) {
            eprintln!("analyze: cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "analyze: baseline updated with {} accepted finding(s) across {} key(s)",
            errors.len(),
            base.entries.len()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("analyze: {e}");
                return ExitCode::FAILURE;
            }
        },
        // No baseline file = empty baseline: everything gates.
        Err(_) => Baseline::default(),
    };
    let errors: Vec<Diagnostic> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .cloned()
        .collect();
    let (new, stale) = baseline.apply(&errors);
    for d in diags.iter().filter(|d| d.severity == Severity::Warning) {
        eprintln!("{d}");
    }
    for d in &stale {
        eprintln!("{d}");
    }
    if new.is_empty() {
        println!(
            "analyze: {} file(s), {} pass finding(s), 0 beyond baseline",
            files.len(),
            errors.len()
        );
        ExitCode::SUCCESS
    } else {
        for d in &new {
            eprintln!("{d}");
        }
        eprintln!(
            "analyze: {} new finding(s) beyond baseline — fix them or (for accepted \
             pre-existing debt) run `cargo run -p xtask -- analyze --update-baseline`",
            new.len()
        );
        ExitCode::FAILURE
    }
}

/// The `validate-plans` entry point: every suite entry, full and
/// cone-restricted, through the structural checker.
pub fn run_validate_plans() -> ExitCode {
    let suite = gatspi_workloads::suite::table2_suite();
    let scale = passes::plan_invariants::default_scale();
    let diags = passes::plan_invariants::run(&suite, scale);
    if diags.is_empty() {
        println!(
            "validate-plans: {} suite entries × 3 plans (full, sparse cone, empty cone) \
             clean at scale {scale}",
            suite.len()
        );
        ExitCode::SUCCESS
    } else {
        for d in &diags {
            eprintln!("{d}");
        }
        eprintln!("validate-plans: {} structural defect(s)", diags.len());
        ExitCode::FAILURE
    }
}
