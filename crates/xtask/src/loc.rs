//! `loc`: non-test, non-comment, non-blank line counts per source
//! directory or file — the size measure simplification changes are judged
//! by.
//!
//! Lines are split by the analysis lexer ([`SourceFile::lex`]), so comments
//! and doc comments never count, wherever they sit. A line counts when it
//! holds code or literal text and lies before the file's first
//! `#[cfg(test)]` / `#[cfg(all(test, …))]` marker (the workspace keeps its
//! test modules at the bottom of a file; see [`SourceFile::in_test_cfg`]).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::analysis::lexer::SourceFile;

/// Counts the non-test, non-comment, non-blank lines of one source file.
pub fn count_source(source: &str) -> usize {
    let file = SourceFile::lex("", source);
    file.lines
        .iter()
        .zip(&file.in_test_cfg)
        .filter(|&(line, &test)| !test && (line.literal || !line.code.trim().is_empty()))
        .count()
}

/// Counts `path`: one `.rs` file, or every `.rs` file under a directory.
pub fn count_path(path: &Path) -> Result<usize, String> {
    let mut files = Vec::new();
    crate::collect_rs_files(path, &mut files);
    if files.is_empty() {
        return Err(format!("no .rs files under {}", path.display()));
    }
    files.iter().try_fold(0, |acc, path| {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(acc + count_source(&source))
    })
}

/// Every `crates/*/src` directory of the workspace, sorted.
fn default_dirs(root: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return Vec::new();
    };
    let mut dirs: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// The `loc` entry point: prints one `count  path` line per directory or
/// file (`paths`, or every `crates/*/src` when empty).
pub fn run_loc(paths: &[String]) -> ExitCode {
    let root = crate::workspace_root();
    let paths: Vec<PathBuf> = if paths.is_empty() {
        default_dirs(&root)
    } else {
        paths.iter().map(PathBuf::from).collect()
    };
    for path in &paths {
        match count_path(path) {
            Ok(n) => {
                let shown = path.strip_prefix(&root).unwrap_or(path);
                println!("{n:>7}  {}", shown.display());
            }
            Err(e) => {
                eprintln!("xtask loc: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_blanks_and_test_modules_do_not_count() {
        let src = "\
//! Module docs.

/// Item docs.
pub fn f() -> &'static str {
    /* block
       comment */
    let s = \"x\"; // trailing
    \"a literal \\
     continued\"
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(true); }
}

#[cfg(all(test, feature = \"x\"))]
mod model_tests {}
";
        // `pub fn f`, `let s`, both literal lines and `}`.
        assert_eq!(count_source(src), 5);
    }

    #[test]
    fn a_file_counts_alone_and_a_directory_counts_its_files() {
        let src = crate::workspace_root().join("crates/xtask/src");
        let alone = count_source(&std::fs::read_to_string(src.join("loc.rs")).unwrap());
        assert_eq!(count_path(&src.join("loc.rs")), Ok(alone));
        assert!(count_path(&src).unwrap() > alone);
        assert!(
            count_path(&src.join("../Cargo.toml")).is_err(),
            "no .rs file"
        );
    }
}
