//! Pass 1 — panic discipline.
//!
//! The engine's one panic boundary, `isolate` in `gatspi_core::session`,
//! turns any panic into a `CoreError::DeviceFault` that fails the run;
//! nothing retries it. An
//! unannotated `unwrap()` on the engine path therefore isn't just sloppy —
//! it is a failed run waiting for an input that triggers it. This
//! pass bans the panicking idioms in production code of the disciplined
//! crates unless the attached comment block carries `// panic-ok: <reason>`
//! stating why the condition is impossible (or why dying is correct).

use crate::analysis::config::disciplined_prod;
use crate::analysis::diag::{Diagnostic, Severity};
use crate::analysis::lexer::{find_token, SourceFile};

/// Escape hatch marker: `// panic-ok: <reason>`.
const MARKER: &str = "panic-ok:";

/// The banned idioms, as `(rule, needles)` — a needle hits when it appears
/// as a standalone token in the line's code text.
const RULES: &[(&str, &[&str])] = &[
    ("unwrap", &["unwrap"]),
    ("expect", &["expect"]),
    ("panic", &["panic!", "panic_any"]),
    ("unreachable", &["unreachable!", "todo!", "unimplemented!"]),
];

/// Runs the pass over the lexed workspace.
pub fn run(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        if !disciplined_prod(&f.label) {
            continue;
        }
        for (i, line) in f.lines.iter().enumerate() {
            if f.in_test_cfg[i] {
                continue;
            }
            let code = line.code.as_str();
            let mut hits: Vec<&'static str> = Vec::new();
            for (rule, needles) in RULES {
                for needle in *needles {
                    if let Some(at) = find_token(code, needle) {
                        // `unwrap`/`expect` must be calls, not names in a
                        // type or a doc path (`Option::unwrap` in a type
                        // position has no open paren).
                        let is_call = code[at + needle.len()..].trim_start().starts_with('(');
                        if needle.ends_with('!') || is_call {
                            hits.push(rule);
                            break;
                        }
                    }
                }
            }
            // `assert!` adjacent to indexing: the macro's failure is a
            // bounds story the code must own (assert_eq!/debug_assert! are
            // separate tokens and stay allowed).
            if find_token(code, "assert!").is_some()
                && (code.contains('[') || code.contains(".len()"))
            {
                hits.push("assert-indexing");
            }
            if hits.is_empty() {
                continue;
            }
            if f.attached_comments(i).contains(MARKER) {
                continue;
            }
            for rule in hits {
                out.push(Diagnostic {
                    pass: "panic-discipline",
                    rule,
                    file: f.label.clone(),
                    line: i + 1,
                    severity: Severity::Error,
                    msg: format!(
                        "`{rule}` in production code of a disciplined crate without a \
                         `// panic-ok: <reason>` justification — a panic in engine code \
                         stops the run as `CoreError::DeviceFault`, through `isolate`"
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::run;
    use crate::analysis::lexer::SourceFile;

    fn diags(label: &str, src: &str) -> Vec<(usize, &'static str)> {
        let f = SourceFile::lex(label, src);
        run(&[f]).into_iter().map(|d| (d.line, d.rule)).collect()
    }

    #[test]
    fn bans_the_idioms_in_disciplined_prod_code() {
        let src = concat!(
            "let a = x.unwrap();\n",
            "let b = y.expect(\"reason\");\n",
            "panic!(\"boom\");\n",
            "std::panic::panic_any(Payload);\n",
            "unreachable!();\n",
            "assert!(i < v.len());\n",
        );
        assert_eq!(
            diags("crates/core/src/session.rs", src),
            vec![
                (1, "unwrap"),
                (2, "expect"),
                (3, "panic"),
                (4, "panic"),
                (5, "unreachable"),
                (6, "assert-indexing"),
            ]
        );
    }

    #[test]
    fn panic_ok_annotations_and_test_code_are_exempt() {
        let src = concat!(
            "// panic-ok: the schedule cache always holds this key\n",
            "let a = x.unwrap();\n",
            "let b = y.unwrap(); // panic-ok: inline reason\n",
            "#[cfg(test)]\n",
            "mod tests { fn t() { x.unwrap(); } }\n",
        );
        assert!(diags("crates/core/src/session.rs", src).is_empty());
        // Other crates and test trees are out of scope entirely.
        assert!(diags("crates/bench/src/lib.rs", "x.unwrap();\n").is_empty());
        assert!(diags("crates/core/tests/refsim.rs", "x.unwrap();\n").is_empty());
    }

    #[test]
    fn related_tokens_do_not_trip_the_rules() {
        let src = concat!(
            "let a = x.unwrap_or(0);\n",
            "let b = y.unwrap_or_else(|e| e.into_inner());\n",
            "assert_eq!(v[0], 1);\n", // assert_eq, not assert!
            "debug_assert!(i < v.len());\n",
            "let c = catch_unwind(f);\n",
        );
        assert!(
            diags("crates/core/src/session.rs", src).is_empty(),
            "{:?}",
            diags("crates/core/src/session.rs", src)
        );
    }
}
