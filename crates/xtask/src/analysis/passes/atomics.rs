//! Pass 2 — atomics: the two comment rules on the engine's shared memory.
//!
//! The atomics model device memory, and the launch join is the only
//! synchronization edge, so every ordering is `Relaxed`; each such site
//! must say why that suffices. In production code `Ordering::Relaxed`
//! needs `// relaxed-ok: <why>`, and every `unsafe` (anywhere) needs an
//! attached `SAFETY:` comment.

use crate::analysis::config::exempt_path;
use crate::analysis::diag::{Diagnostic, Severity};
use crate::analysis::lexer::{find_token, SourceFile};

/// Runs the pass over the lexed workspace.
pub fn run(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        let exempt = exempt_path(&f.label);
        for (i, line) in f.lines.iter().enumerate() {
            let code = line.code.as_str();
            let finding = |rule: &'static str, msg: &str| Diagnostic {
                pass: "atomics",
                rule,
                file: f.label.clone(),
                line: i + 1,
                severity: Severity::Error,
                msg: msg.to_string(),
            };

            if !exempt
                && !f.in_test_cfg[i]
                && find_token(code, "Ordering::Relaxed").is_some()
                && !f.attached_comments(i).contains("relaxed-ok:")
            {
                out.push(finding(
                    "relaxed",
                    "Ordering::Relaxed without a `// relaxed-ok:` justification \
                     (same line or in the comment block above)",
                ));
            }

            // The textual twin of clippy::undocumented_unsafe_blocks.
            if find_token(code, "unsafe").is_some() && !f.attached_comments(i).contains("SAFETY:") {
                out.push(finding(
                    "safety",
                    "`unsafe` without a `// SAFETY:` comment (same line or in the \
                     comment block above)",
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::run;
    use crate::analysis::lexer::SourceFile;

    fn rules(label: &str, src: &str) -> Vec<(usize, &'static str)> {
        let f = SourceFile::lex(label, src);
        run(&[f]).into_iter().map(|d| (d.line, d.rule)).collect()
    }

    #[test]
    fn relaxed_and_safety_rules_ported() {
        let bare = "let v = head.load(Ordering::Relaxed);\n";
        assert_eq!(rules("crates/core/src/ring.rs", bare), vec![(1, "relaxed")]);
        let justified = concat!(
            "// relaxed-ok: single-consumer cursor\n",
            "let v = head.load(Ordering::Relaxed);\n",
        );
        assert!(rules("crates/core/src/ring.rs", justified).is_empty());
        assert!(rules("crates/core/tests/foo.rs", bare).is_empty());

        assert_eq!(
            rules("crates/core/src/ring.rs", "unsafe { ptr.read() };\n"),
            vec![(1, "safety")]
        );
        let documented = concat!(
            "// SAFETY: ptr is valid for reads, checked above\n",
            "unsafe { ptr.read() };\n",
        );
        assert!(rules("crates/core/src/ring.rs", documented).is_empty());
    }
}
