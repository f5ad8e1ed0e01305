//! Golden-fixture tests for the `xtask analyze` source passes.
//!
//! Each directory under `tests/fixtures/` is named after a pass
//! (`panic-discipline`, `atomics`) and holds standalone
//! `.rs` snippets that are lexed — never compiled — under a *virtual* label
//! taken from their `//@ label:` first line, so the pass scoping rules
//! (disciplined crate roots, test trees) apply exactly as they do to the
//! real workspace. Expected findings are declared in-place as trailing
//! `//~ <rule>` markers on the flagged line; a fixture with no markers is a
//! known-good snippet that must stay clean.
//!
//! The harness drives [`xtask::analysis::run_source_passes`] — the same
//! entry point `cargo run -p xtask -- analyze` uses — and keeps the
//! findings of the directory's pass.
//!
//! The third pass, `plan-invariants`, has no source fixtures: its firing
//! proofs are the mutation tests in `gatspi_core::schedule` that corrupt a
//! built `LevelSchedule` and assert `validate()` reports each defect.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use xtask::analysis::lexer::SourceFile;
use xtask::analysis::run_source_passes;

/// Pass name ↔ fixture directory name, exactly.
const SOURCE_PASSES: &[&str] = &["panic-discipline", "atomics"];

fn fixtures_root() -> PathBuf {
    xtask::workspace_root().join("crates/xtask/tests/fixtures")
}

/// A parsed fixture: the virtual label, the source text, and the expected
/// `(line, rule)` findings from `//~` markers.
struct Fixture {
    label: String,
    source: String,
    expected: Vec<(usize, String)>,
}

fn parse_fixture(path: &Path) -> Fixture {
    let source =
        fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let first = source.lines().next().unwrap_or("");
    let label = first
        .strip_prefix("//@ label:")
        .unwrap_or_else(|| panic!("{}: first line must be `//@ label: <path>`", path.display()))
        .trim()
        .to_string();
    let mut expected = Vec::new();
    for (i, line) in source.lines().enumerate() {
        if let Some(at) = line.find("//~") {
            let rule = line[at + 3..]
                .split_whitespace()
                .next()
                .unwrap_or_else(|| panic!("{}:{}: bare `//~` marker", path.display(), i + 1));
            expected.push((i + 1, rule.to_string()));
        }
    }
    Fixture {
        label,
        source,
        expected,
    }
}

/// Runs the full source-pass pipeline over one fixture and compares the
/// findings of `pass` against the fixture's markers, both ways: a missed
/// marker means the pass went blind, an unmarked finding means it regressed
/// into noise.
fn check_fixture(pass: &str, path: &Path) -> Fixture {
    let fixture = parse_fixture(path);
    let lexed = SourceFile::lex(&fixture.label, &fixture.source);
    let mut got: Vec<(usize, String)> = run_source_passes(&[lexed])
        .into_iter()
        .filter(|d| d.pass == pass)
        .map(|d| (d.line, d.rule.to_string()))
        .collect();
    got.sort();
    let mut want = fixture.expected.clone();
    want.sort();
    assert_eq!(
        got,
        want,
        "fixture {} disagrees with its `//~` markers for pass `{pass}`",
        path.display()
    );
    fixture
}

fn fixture_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    out.sort();
    out
}

#[test]
fn golden_fixtures_match_their_markers() {
    let root = fixtures_root();
    let on_disk: BTreeSet<String> = fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("read_dir {}: {e}", root.display()))
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let known: BTreeSet<String> = SOURCE_PASSES.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        on_disk, known,
        "fixture directories must map one-to-one onto the source passes"
    );

    for pass in SOURCE_PASSES {
        let files = fixture_files(&root.join(pass));
        assert!(!files.is_empty(), "pass `{pass}` has no fixtures");
        let mut failing = 0usize;
        let mut clean = 0usize;
        for path in &files {
            let fixture = check_fixture(pass, path);
            if fixture.expected.is_empty() {
                clean += 1;
            } else {
                failing += 1;
            }
        }
        assert!(
            failing > 0,
            "pass `{pass}` needs at least one known-bad fixture proving it fires"
        );
        assert!(
            clean > 0,
            "pass `{pass}` needs at least one known-good fixture proving it stays quiet"
        );
    }
}

/// The virtual labels must land inside the disciplined roots — otherwise a
/// scoping change could silently turn every fixture into a no-op that still
/// "passes" because both sides of the comparison are empty.
#[test]
fn fixture_labels_are_in_scope() {
    use xtask::analysis::config::disciplined_prod;
    let root = fixtures_root();
    for pass in SOURCE_PASSES {
        for path in fixture_files(&root.join(pass)) {
            let fixture = parse_fixture(&path);
            assert!(
                disciplined_prod(&fixture.label),
                "{}: label `{}` is outside the disciplined production scope",
                path.display(),
                fixture.label
            );
        }
    }
}
