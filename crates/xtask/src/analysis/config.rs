//! Static configuration shared by the passes: which paths are production
//! code, and the typed-panic-payload manifest the unwind-boundary pass
//! audits against.

use crate::analysis::diag::{Diagnostic, Severity};

/// Production (non-test) code held to the panic discipline: the engine
/// crates, whose panics cross `catch_unwind` boundaries, and the Verilog
/// and SDF readers, which take user files straight from the CLI.
pub const DISCIPLINED_ROOTS: &[&str] = &[
    "crates/core/src/",
    "crates/gpu/src/",
    "crates/netlist/src/verilog.rs",
    "crates/sdf/src/parser.rs",
];

/// Paths exempt from production-code rules wholesale: test/bench/example
/// trees and the analyzer's own deliberately-bad fixtures.
pub fn exempt_path(label: &str) -> bool {
    let in_dir =
        |dir: &str| label.starts_with(&format!("{dir}/")) || label.contains(&format!("/{dir}/"));
    in_dir("tests")
        || in_dir("benches")
        || in_dir("examples")
        || label.contains("crates/xtask/tests/fixtures/")
}

/// Whether `label` is production code of a disciplined crate.
pub fn disciplined_prod(label: &str) -> bool {
    DISCIPLINED_ROOTS.iter().any(|r| label.starts_with(r)) && !exempt_path(label)
}

/// The typed-panic-payload registry parsed from
/// `crates/xtask/unwind-manifest.txt`.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct UnwindManifest {
    /// Typed payload struct names every boundary must downcast
    /// (`payload <Name>` lines).
    pub payloads: Vec<String>,
    /// Functions that classify a payload on the boundary's behalf — a
    /// `catch_unwind` whose error path calls one is considered total
    /// (`classifier <name>` lines).
    pub classifiers: Vec<String>,
    /// Functions/idioms that re-raise the payload unchanged, deferring
    /// classification to an enclosing audited boundary
    /// (`rethrow <name>` lines).
    pub rethrows: Vec<String>,
}

impl UnwindManifest {
    /// Parses the manifest's line format: `#` comments, blank lines, and
    /// `payload|classifier|rethrow <identifier>` entries.
    pub fn parse(text: &str) -> Result<UnwindManifest, String> {
        let mut m = UnwindManifest::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (kind, name) = (parts.next(), parts.next());
            let (Some(kind), Some(name)) = (kind, name) else {
                return Err(format!(
                    "unwind-manifest line {}: malformed `{line}`",
                    i + 1
                ));
            };
            if parts.next().is_some() {
                return Err(format!(
                    "unwind-manifest line {}: trailing tokens after `{kind} {name}`",
                    i + 1
                ));
            }
            let dest = match kind {
                "payload" => &mut m.payloads,
                "classifier" => &mut m.classifiers,
                "rethrow" => &mut m.rethrows,
                _ => {
                    return Err(format!(
                        "unwind-manifest line {}: unknown kind `{kind}` \
                         (expected payload|classifier|rethrow)",
                        i + 1
                    ))
                }
            };
            if dest.iter().any(|n| n == name) {
                return Err(format!(
                    "unwind-manifest line {}: duplicate {kind} `{name}`",
                    i + 1
                ));
            }
            dest.push(name.to_string());
        }
        Ok(m)
    }
}

/// A manifest load error as a diagnostic, so the analyze driver reports it
/// uniformly instead of aborting.
pub fn manifest_error(msg: String) -> Diagnostic {
    Diagnostic {
        pass: "unwind-boundary",
        rule: "manifest",
        file: "crates/xtask/unwind-manifest.txt".to_string(),
        line: 0,
        severity: Severity::Error,
        msg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parses_the_line_format() {
        let m = UnwindManifest::parse(
            "# typed panic payloads\npayload DeviceFaultPanic\npayload SinkClosedPanic\n\
             \nclassifier panic_to_error\nrethrow resume_unwind\n",
        )
        .expect("parses");
        assert_eq!(m.payloads, ["DeviceFaultPanic", "SinkClosedPanic"]);
        assert_eq!(m.classifiers, ["panic_to_error"]);
        assert_eq!(m.rethrows, ["resume_unwind"]);
    }

    #[test]
    fn manifest_rejects_bad_lines() {
        assert!(UnwindManifest::parse("payload").is_err());
        assert!(UnwindManifest::parse("widget Foo").is_err());
        assert!(UnwindManifest::parse("payload A\npayload A").is_err());
        assert!(UnwindManifest::parse("payload A extra").is_err());
    }

    #[test]
    fn path_classification() {
        assert!(disciplined_prod("crates/core/src/session.rs"));
        assert!(disciplined_prod("crates/gpu/src/device.rs"));
        assert!(!disciplined_prod("crates/core/tests/refsim.rs"));
        assert!(!disciplined_prod("crates/bench/src/lib.rs"));
        assert!(!disciplined_prod(
            "crates/xtask/tests/fixtures/panic/bad.rs"
        ));
    }
}
