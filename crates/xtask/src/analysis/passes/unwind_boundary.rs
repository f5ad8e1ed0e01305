//! Pass 2 — unwind-boundary audit.
//!
//! The engine converts typed panic payloads into `CoreError`s at
//! `catch_unwind` boundaries. The payload registry lives in one manifest
//! (`crates/xtask/unwind-manifest.txt`); this pass enforces the contract
//! from both sides:
//!
//! * every production `catch_unwind` in a disciplined crate must handle
//!   the *full* registry — by calling a registered classifier function, by
//!   handing the payload to a registered rethrow helper (deferring to an
//!   enclosing audited boundary), by downcasting every registered payload
//!   type inline (only while the registry is non-empty: with no payloads
//!   registered, an inline downcast handles none of them), or by carrying
//!   an explicit `// unwind-ok: <reason>` annotation when the handling is
//!   genuinely non-local;
//! * every registered classifier's body must downcast every registered
//!   payload (totality), so adding a payload type without teaching the
//!   classifier is an error;
//! * every `struct *Panic` declared in the disciplined crates must be
//!   registered, and every registered payload/classifier must exist — the
//!   manifest can neither lag nor rot.

use crate::analysis::config::{disciplined_prod, UnwindManifest};
use crate::analysis::diag::{Diagnostic, Severity};
use crate::analysis::lexer::{find_token, SourceFile};

/// Lines of code after a `catch_unwind` searched for classifier calls,
/// rethrow helpers, or inline downcasts. Generous enough for a match arm
/// per payload; anything farther away should use `// unwind-ok:`.
const WINDOW: usize = 40;

/// Escape hatch marker for boundaries whose payload handling is non-local.
const MARKER: &str = "unwind-ok:";

/// Runs the pass over the lexed workspace.
pub fn run(files: &[SourceFile], manifest: &UnwindManifest) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut structs_seen: Vec<String> = Vec::new();
    let mut classifiers_seen: Vec<String> = Vec::new();

    for f in files {
        if !disciplined_prod(&f.label) {
            continue;
        }
        for (i, line) in f.lines.iter().enumerate() {
            let code = line.code.as_str();
            // Registry side: every typed-panic struct declaration.
            if let Some(name) = declared_ident(code, "struct") {
                if name.ends_with("Panic") {
                    if !manifest.payloads.contains(&name) {
                        out.push(Diagnostic {
                            pass: "unwind-boundary",
                            rule: "unregistered-payload",
                            file: f.label.clone(),
                            line: i + 1,
                            severity: Severity::Error,
                            msg: format!(
                                "typed panic payload `{name}` is not registered in \
                                 crates/xtask/unwind-manifest.txt — every catch_unwind \
                                 boundary audit depends on the registry being complete"
                            ),
                        });
                    }
                    structs_seen.push(name);
                }
            }
            // Classifier totality: a registered classifier defined here
            // must downcast every registered payload in its body.
            if let Some(name) = declared_ident(code, "fn") {
                if manifest.classifiers.contains(&name) {
                    classifiers_seen.push(name.clone());
                    let body = fn_body(f, i);
                    let missing: Vec<&str> = manifest
                        .payloads
                        .iter()
                        .filter(|p| find_token(&body, p).is_none())
                        .map(String::as_str)
                        .collect();
                    if !missing.is_empty() || !body.contains("downcast") {
                        out.push(Diagnostic {
                            pass: "unwind-boundary",
                            rule: "partial-classifier",
                            file: f.label.clone(),
                            line: i + 1,
                            severity: Severity::Error,
                            msg: format!(
                                "classifier `{name}` does not downcast the full payload \
                                 registry (missing: {})",
                                if missing.is_empty() {
                                    "no downcast calls at all".to_string()
                                } else {
                                    missing.join(", ")
                                }
                            ),
                        });
                    }
                }
            }
            // Boundary side.
            if f.in_test_cfg[i] || find_token(code, "catch_unwind").is_none() {
                continue;
            }
            if code.trim_start().starts_with("use ") || code.trim_start().starts_with("pub use ") {
                continue;
            }
            if f.attached_comments(i).contains(MARKER) {
                continue;
            }
            let window = f.code_window(i, i + WINDOW);
            let classified = manifest
                .classifiers
                .iter()
                .any(|c| find_token(&window, c).is_some());
            let rethrown = manifest
                .rethrows
                .iter()
                .any(|r| find_token(&window, r).is_some());
            if classified || rethrown {
                continue;
            }
            let missing: Vec<&str> = manifest
                .payloads
                .iter()
                .filter(|p| find_token(&window, p).is_none())
                .map(String::as_str)
                .collect();
            let inline_total = !manifest.payloads.is_empty() && missing.is_empty();
            if inline_total && window.contains("downcast") {
                continue;
            }
            out.push(Diagnostic {
                pass: "unwind-boundary",
                rule: "missing-downcast",
                file: f.label.clone(),
                line: i + 1,
                severity: Severity::Error,
                msg: format!(
                    "catch_unwind boundary neither calls a registered classifier nor \
                     downcasts the full payload registry ({}) — a typed panic crossing \
                     it would be misclassified; handle all payloads, call a registered \
                     classifier/rethrow helper, or annotate `// unwind-ok: <reason>`",
                    if missing.is_empty() {
                        "no downcast calls in reach".to_string()
                    } else {
                        format!("unhandled: {}", missing.join(", "))
                    }
                ),
            });
        }
    }

    // Manifest entries must exist in the scanned tree. Skipped when the
    // scan holds no disciplined production files at all (fixture runs that
    // only exercise the boundary side).
    let scanned_prod = files.iter().any(|f| disciplined_prod(&f.label));
    if scanned_prod {
        for p in &manifest.payloads {
            if !structs_seen.iter().any(|s| s == p) {
                out.push(Diagnostic {
                    pass: "unwind-boundary",
                    rule: "missing-payload-struct",
                    file: "crates/xtask/unwind-manifest.txt".to_string(),
                    line: 0,
                    severity: Severity::Error,
                    msg: format!(
                        "manifest registers payload `{p}` but no `struct {p}` exists in \
                         the disciplined crates — remove the stale entry"
                    ),
                });
            }
        }
        for c in &manifest.classifiers {
            if !classifiers_seen.iter().any(|s| s == c) {
                out.push(Diagnostic {
                    pass: "unwind-boundary",
                    rule: "missing-classifier",
                    file: "crates/xtask/unwind-manifest.txt".to_string(),
                    line: 0,
                    severity: Severity::Error,
                    msg: format!(
                        "manifest registers classifier `{c}` but no `fn {c}` exists in \
                         the disciplined crates — remove the stale entry"
                    ),
                });
            }
        }
    }
    out
}

/// The brace-matched code of the function whose declaration starts at
/// line `decl` — from its opening `{` to the matching close (capped at
/// 400 lines; literals are already stripped, so counting braces is exact
/// up to macro pathologies the workspace doesn't have).
fn fn_body(f: &SourceFile, decl: usize) -> String {
    let mut depth = 0usize;
    let mut opened = false;
    let mut body = String::new();
    for line in f.lines.iter().skip(decl).take(400) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
            if opened {
                body.push(c);
            }
            if opened && depth == 0 {
                return body;
            }
        }
        body.push('\n');
    }
    body
}

/// If `code` declares an item of the given kind (`struct Foo`, `fn bar`),
/// returns the declared identifier.
fn declared_ident(code: &str, kind: &str) -> Option<String> {
    let at = find_token(code, kind)?;
    let rest = code[at + kind.len()..].trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::run;
    use crate::analysis::config::UnwindManifest;
    use crate::analysis::lexer::SourceFile;

    fn manifest() -> UnwindManifest {
        UnwindManifest::parse(
            "payload DeviceFaultPanic\npayload SinkClosedPanic\n\
             classifier panic_to_error\nrethrow resume_unwind\n",
        )
        .expect("test manifest parses")
    }

    fn rules(src: &str) -> Vec<&'static str> {
        let f = SourceFile::lex("crates/core/src/session.rs", src);
        run(&[f], &manifest()).into_iter().map(|d| d.rule).collect()
    }

    // Satisfies the registry-existence checks so boundary-focused tests
    // only see their own findings.
    const REGISTRY: &str = concat!(
        "pub struct DeviceFaultPanic;\n",
        "pub(crate) struct SinkClosedPanic;\n",
        "fn panic_to_error(p: Payload) -> CoreError {\n",
        "    if let Some(f) = p.downcast_ref::<DeviceFaultPanic>() { return f.into(); }\n",
        "    if let Some(s) = p.downcast_ref::<SinkClosedPanic>() { return s.into(); }\n",
        "    resume(p)\n",
        "}\n",
    );

    #[test]
    fn boundary_without_handling_is_flagged() {
        let src = format!(
            "{REGISTRY}fn f() {{\n    let r = catch_unwind(|| work());\n    \
             if let Err(p) = r {{ log(p); }}\n}}\n"
        );
        assert_eq!(rules(&src), vec!["missing-downcast"]);
    }

    #[test]
    fn classifier_rethrow_downcast_and_annotation_all_satisfy() {
        let via_classifier = format!(
            "{REGISTRY}fn f() {{\n    let r = catch_unwind(w);\n    \
             r.map_err(|p| panic_to_error(dev, p))\n}}\n"
        );
        assert!(rules(&via_classifier).is_empty());
        let via_rethrow = format!(
            "{REGISTRY}fn f() {{\n    let r = catch_unwind(w);\n    \
             if let Err(p) = r {{ resume_unwind(p); }}\n}}\n"
        );
        assert!(rules(&via_rethrow).is_empty());
        let inline = format!(
            "{REGISTRY}fn f() {{\n    let r = catch_unwind(w);\n    \
             if let Err(p) = r {{\n        \
             if p.downcast_ref::<DeviceFaultPanic>().is_some() {{}}\n        \
             if p.downcast_ref::<SinkClosedPanic>().is_some() {{}}\n    }}\n}}\n"
        );
        assert!(rules(&inline).is_empty());
        let annotated = format!(
            "{REGISTRY}fn f() {{\n    // unwind-ok: payload re-raised after the \
             dumper joins, classified by the caller\n    \
             let r = catch_unwind(w);\n}}\n"
        );
        assert!(rules(&annotated).is_empty());
    }

    /// With no typed payloads registered the boundary check does not go
    /// vacuous: a boundary must still call a classifier or a rethrow
    /// helper, and an inline downcast no longer stands in for them.
    #[test]
    fn empty_registry_still_flags_unhandled_boundaries() {
        let empty = UnwindManifest::parse("classifier panic_to_error\nrethrow resume_unwind\n")
            .expect("test manifest parses");
        let rules = |src: &str| -> Vec<&'static str> {
            let f = SourceFile::lex("crates/core/src/session.rs", src);
            run(&[f], &empty).into_iter().map(|d| d.rule).collect()
        };
        let classifier = "fn panic_to_error(p: Payload) -> CoreError {\n    \
                          p.downcast::<String>().into()\n}\n";
        let swallowed = format!(
            "{classifier}fn f() {{\n    let r = catch_unwind(w);\n    \
             if let Err(p) = r {{ log(p); }}\n}}\n"
        );
        assert_eq!(rules(&swallowed), vec!["missing-downcast"]);
        let downcast_only = format!(
            "{classifier}fn f() {{\n    let r = catch_unwind(w);\n    \
             if let Err(p) = r {{ p.downcast_ref::<String>(); }}\n}}\n"
        );
        assert_eq!(rules(&downcast_only), vec!["missing-downcast"]);
        let classified = format!(
            "{classifier}fn f() {{\n    let r = catch_unwind(w);\n    \
             r.map_err(|p| panic_to_error(dev, p))\n}}\n"
        );
        assert!(rules(&classified).is_empty());
    }

    #[test]
    fn partial_inline_downcast_is_flagged() {
        let src = format!(
            "{REGISTRY}fn f() {{\n    let r = catch_unwind(w);\n    \
             if let Err(p) = r {{\n        \
             if p.downcast_ref::<DeviceFaultPanic>().is_some() {{}}\n    }}\n}}\n"
        );
        assert_eq!(rules(&src), vec!["missing-downcast"]);
    }

    #[test]
    fn registry_completeness_cuts_both_ways() {
        // An unregistered *Panic struct.
        let src = format!("{REGISTRY}struct OverflowPanic;\n");
        assert_eq!(rules(&src), vec!["unregistered-payload"]);
        // A registered payload whose struct is gone, and a vanished
        // classifier.
        let src = "struct DeviceFaultPanic;\n";
        let got = rules(src);
        assert!(got.contains(&"missing-payload-struct"), "{got:?}");
        assert!(got.contains(&"missing-classifier"), "{got:?}");
    }

    #[test]
    fn partial_classifier_is_flagged() {
        let src = concat!(
            "pub struct DeviceFaultPanic;\n",
            "pub(crate) struct SinkClosedPanic;\n",
            "fn panic_to_error(p: Payload) -> CoreError {\n",
            "    if let Some(f) = p.downcast_ref::<DeviceFaultPanic>() { return f.into(); }\n",
            "    resume(p)\n",
            "}\n",
        );
        let got = rules(src);
        assert!(got.contains(&"partial-classifier"), "{got:?}");
    }

    #[test]
    fn test_code_boundaries_are_exempt() {
        let src = format!(
            "{REGISTRY}#[cfg(test)]\nmod tests {{\n    fn t() {{ \
             let _ = catch_unwind(w); }}\n}}\n"
        );
        assert!(rules(&src).is_empty());
    }
}
