//! Pass 3 — sync-facade totality (the `lint-atomics` successor).
//!
//! PR 7's loom model checker can only prove protocols whose sync
//! primitives route through the `gatspi_{core,gpu}::sync` facades — the
//! `--features model-check` switch swaps the facade's re-exports, not
//! arbitrary `std` paths. The original lint banned `std::sync::atomic`
//! only; this pass extends the ban to the blocking primitives
//! (`std::sync::{Mutex, RwLock, Condvar, mpsc, Barrier}`) and
//! `std::thread::spawn` in production code of the disciplined crates, and
//! closes the rename loophole: `use std::sync as s; s::Mutex::new(..)`
//! names no banned token yet creates exactly the un-modelable lock, so
//! `use` statements are parsed into an alias map and usage path chains are
//! canonicalized before matching.
//!
//! The pass also carries the two companion rules from the old lint:
//! `Ordering::Relaxed` needs `// relaxed-ok: <why>` in production code,
//! and every `unsafe` needs an attached `SAFETY:` comment.

use crate::analysis::config::{disciplined_prod, exempt_path, facade_file};
use crate::analysis::diag::{Diagnostic, Severity};
use crate::analysis::lexer::{find_token, SourceFile};
use std::collections::BTreeMap;

/// Blocking `std::sync` items banned in disciplined production code.
const BANNED_SYNC_ITEMS: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"];

/// Runs the pass over the lexed workspace.
pub fn run(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        scan_file(f, &mut out);
    }
    out
}

fn scan_file(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let facade = facade_file(&f.label);
    let prod_scoped = disciplined_prod(&f.label);
    let uses = collect_uses(f);
    let mut aliases: BTreeMap<String, Vec<String>> = BTreeMap::new();

    // `use` statements: flag banned leaves at the declaration, map the
    // rest for usage-site canonicalization. A tree importing two leaves of
    // the same banned namespace is one root cause — report it once.
    let mut reported: Vec<(usize, &'static str)> = Vec::new();
    for u in &uses {
        for leaf in &u.leaves {
            if !facade {
                if let Some(d) = banned(&leaf.path, prod_scoped, f, u.line) {
                    if !reported.contains(&(u.line, d.rule)) {
                        reported.push((u.line, d.rule));
                        out.push(d);
                    }
                    continue; // root cause reported; skip the alias map
                }
            }
            if let Some(binding) = &leaf.binding {
                aliases.insert(binding.clone(), leaf.path.clone());
            } else if !facade
                && ((prod_scoped && starts_with(&leaf.path, &["std", "sync"]))
                    || starts_with(&leaf.path, &["std", "sync", "atomic"]))
            {
                // A glob of a banned namespace defeats alias tracking.
                out.push(Diagnostic {
                    pass: "sync-facade",
                    rule: "use-glob",
                    file: f.label.clone(),
                    line: u.line,
                    severity: Severity::Error,
                    msg: format!(
                        "glob import of `{}` hides which sync primitives are used — \
                         import items explicitly (through the facade)",
                        leaf.path.join("::")
                    ),
                });
            }
        }
    }

    for (i, line) in f.lines.iter().enumerate() {
        let lineno = i + 1;
        let code = line.code.as_str();
        let trimmed = code.trim_start();

        // Usage-site path chains, canonicalized through the alias map.
        if !facade && !trimmed.starts_with("use ") && !trimmed.starts_with("pub use ") {
            for chain in path_chains(code) {
                let canonical: Vec<String> = match aliases.get(&chain[0]) {
                    Some(base) => base.iter().chain(chain[1..].iter()).cloned().collect(),
                    None => chain,
                };
                if let Some(d) = banned(&canonical, prod_scoped && !f.in_test_cfg[i], f, lineno) {
                    out.push(d);
                }
            }
        }

        // Relaxed rule: under-synchronization must earn its keep.
        if !exempt_path(&f.label)
            && !f.in_test_cfg[i]
            && find_token(code, "Ordering::Relaxed").is_some()
            && !f.attached_comments(i).contains("relaxed-ok:")
        {
            out.push(Diagnostic {
                pass: "sync-facade",
                rule: "relaxed",
                file: f.label.clone(),
                line: lineno,
                severity: Severity::Error,
                msg: "Ordering::Relaxed without a `// relaxed-ok:` justification \
                      (same line or in the comment block above)"
                    .to_string(),
            });
        }

        // SAFETY rule: the textual twin of clippy::undocumented_unsafe_blocks.
        if find_token(code, "unsafe").is_some() && !f.attached_comments(i).contains("SAFETY:") {
            out.push(Diagnostic {
                pass: "sync-facade",
                rule: "safety",
                file: f.label.clone(),
                line: lineno,
                severity: Severity::Error,
                msg: "`unsafe` without a `// SAFETY:` comment (same line or in the \
                      comment block above)"
                    .to_string(),
            });
        }
    }
}

/// Checks a canonical path against the banned namespaces.
fn banned(path: &[String], prod_scoped: bool, f: &SourceFile, line: usize) -> Option<Diagnostic> {
    let diag = |rule: &'static str, msg: String| {
        Some(Diagnostic {
            pass: "sync-facade",
            rule,
            file: f.label.clone(),
            line,
            severity: Severity::Error,
            msg,
        })
    };
    if starts_with(path, &["std", "sync", "atomic"])
        || starts_with(path, &["core", "sync", "atomic"])
    {
        return diag(
            "atomic-facade",
            "direct std::sync::atomic use outside the sync facades; import through \
             gatspi_core::sync / gatspi_gpu::sync so model-check builds can swap the types"
                .to_string(),
        );
    }
    if !prod_scoped {
        return None;
    }
    if starts_with(path, &["std", "sync"]) {
        if let Some(item) = path.get(2) {
            if BANNED_SYNC_ITEMS.iter().any(|b| b == item) {
                return diag(
                    "sync-facade",
                    format!(
                        "direct std::sync::{item} use in disciplined production code; \
                         import through the crate's sync facade so everything loom \
                         could model actually routes through it"
                    ),
                );
            }
        }
    }
    if starts_with(path, &["std", "thread", "spawn"]) {
        return diag(
            "thread-spawn",
            "direct std::thread::spawn in disciplined production code; use the sync \
             facade's thread module so model-check builds schedule the thread"
                .to_string(),
        );
    }
    None
}

fn starts_with(path: &[String], prefix: &[&str]) -> bool {
    path.len() >= prefix.len() && path.iter().zip(prefix).all(|(a, b)| a == b)
}

/// One leaf of a `use` tree: the full path and the name it binds (`None`
/// for globs).
struct UseLeaf {
    path: Vec<String>,
    binding: Option<String>,
}

struct UseStmt {
    line: usize,
    leaves: Vec<UseLeaf>,
}

/// Collects `use` statements (possibly spanning lines) and expands their
/// trees into leaves.
fn collect_uses(f: &SourceFile) -> Vec<UseStmt> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < f.lines.len() {
        let trimmed = f.lines[i].code.trim_start();
        let after = if let Some(rest) = trimmed.strip_prefix("pub use ") {
            Some(rest)
        } else {
            trimmed.strip_prefix("use ")
        };
        let Some(first) = after else {
            i += 1;
            continue;
        };
        let mut text = first.to_string();
        let start = i;
        while !text.contains(';') && i + 1 < f.lines.len() {
            i += 1;
            text.push(' ');
            text.push_str(f.lines[i].code.trim());
        }
        let text = text.split(';').next().unwrap_or("").to_string();
        let mut leaves = Vec::new();
        expand_use_tree(&[], &text, &mut leaves);
        out.push(UseStmt {
            line: start + 1,
            leaves,
        });
        i += 1;
    }
    out
}

/// Recursively expands a use-tree string (`a::b::{c as d, e::*, self}`)
/// under `prefix` into leaves.
fn expand_use_tree(prefix: &[String], tree: &str, out: &mut Vec<UseLeaf>) {
    for item in split_top_level(tree) {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        if let Some(brace) = item.find('{') {
            let head = &item[..brace];
            let inner = item[brace + 1..].rsplit_once('}').map_or("", |(a, _)| a);
            let mut new_prefix = prefix.to_vec();
            new_prefix.extend(
                head.split("::")
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from),
            );
            expand_use_tree(&new_prefix, inner, out);
            continue;
        }
        let (path_text, alias) = match item.split_once(" as ") {
            Some((p, a)) => (p.trim(), Some(a.trim().to_string())),
            None => (item, None),
        };
        let mut path = prefix.to_vec();
        let mut glob = false;
        for seg in path_text.split("::").map(str::trim) {
            match seg {
                "" => {}
                "self" => {} // `self` binds the prefix itself
                "*" => glob = true,
                s => path.push(s.to_string()),
            }
        }
        if path.is_empty() {
            continue;
        }
        let binding = if glob {
            None
        } else {
            Some(alias.unwrap_or_else(|| path[path.len() - 1].clone()))
        };
        out.push(UseLeaf { path, binding });
    }
}

/// Splits a use-tree item list on top-level commas (brace-depth aware).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Extracts the `ident(::ident)+` path chains of a code line — the usage
/// sites the alias map canonicalizes.
fn path_chains(code: &str) -> Vec<Vec<String>> {
    let bytes: Vec<char> = code.chars().collect();
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !ident(bytes[i]) || (i > 0 && ident(bytes[i - 1])) {
            i += 1;
            continue;
        }
        // A chain starts at an identifier boundary.
        let mut chain = Vec::new();
        let mut j = i;
        loop {
            let seg_start = j;
            while j < bytes.len() && ident(bytes[j]) {
                j += 1;
            }
            chain.push(bytes[seg_start..j].iter().collect::<String>());
            if j + 1 < bytes.len() && bytes[j] == ':' && bytes[j + 1] == ':' && {
                let k = j + 2;
                k < bytes.len() && ident(bytes[k])
            } {
                j += 2;
            } else {
                break;
            }
        }
        if chain.len() > 1 {
            out.push(chain);
        }
        i = j + 1;
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
    fn atomics_facade_rule_still_holds() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n";
        assert_eq!(
            rules("crates/core/src/ring.rs", src),
            vec![(1, "atomic-facade")]
        );
        assert!(rules("crates/core/src/sync.rs", src).is_empty());
        assert!(rules("crates/gpu/src/sync.rs", src).is_empty());
        assert!(rules("crates/compat/loom/src/rt.rs", src).is_empty());
        // The facade rule applies to test trees too.
        assert_eq!(rules("crates/core/tests/foo.rs", src).len(), 1);
    }

    /// Regression (satellite 1): `use … as` renames used to slip past the
    /// token ban — `s::atomic::AtomicU64` never names `std::sync::atomic`.
    #[test]
    fn alias_renames_are_canonicalized() {
        let src = concat!(
            "use std::sync as s;\n",
            "static N: s::atomic::AtomicU64 = s::atomic::AtomicU64::new(0);\n",
        );
        let got = rules("crates/core/src/ring.rs", src);
        assert!(
            got.iter().any(|(l, r)| *l == 2 && *r == "atomic-facade"),
            "{got:?}"
        );
        let renamed_item = concat!(
            "use std::sync::atomic as at;\n",
            "static N: at::AtomicU64 = at::AtomicU64::new(0);\n",
        );
        let got = rules("crates/core/src/ring.rs", renamed_item);
        assert_eq!(got, vec![(1, "atomic-facade")], "flagged at the root cause");
    }

    #[test]
    fn blocking_primitives_banned_in_disciplined_prod_only() {
        for item in ["Mutex", "RwLock", "Condvar", "Barrier"] {
            let src = format!("use std::sync::{item};\n");
            assert_eq!(
                rules("crates/core/src/session.rs", &src),
                vec![(1, "sync-facade")],
                "{item}"
            );
            // Other crates keep their std locks.
            assert!(rules("crates/bench/src/lib.rs", &src).is_empty(), "{item}");
        }
        let mpsc = "let (tx, rx) = std::sync::mpsc::channel();\n";
        assert_eq!(
            rules("crates/gpu/src/device.rs", mpsc),
            vec![(1, "sync-facade")]
        );
        // Arc is not a sync primitive the model cares about.
        assert!(rules("crates/core/src/session.rs", "use std::sync::Arc;\n").is_empty());
        // Facade imports are the fix, not a finding.
        assert!(rules("crates/core/src/session.rs", "use crate::sync::Mutex;\n").is_empty());
    }

    #[test]
    fn mixed_use_tree_flags_only_the_banned_leaf() {
        let src = "use std::sync::{Arc, Mutex};\n";
        assert_eq!(
            rules("crates/core/src/session.rs", src),
            vec![(1, "sync-facade")]
        );
    }

    #[test]
    fn thread_spawn_banned_but_scope_and_sleep_allowed() {
        assert_eq!(
            rules(
                "crates/core/src/session.rs",
                "let h = std::thread::spawn(f);\n"
            ),
            vec![(1, "thread-spawn")]
        );
        // Renamed module path still resolves.
        let renamed = "use std::thread as t;\nlet h = t::spawn(f);\n";
        assert_eq!(
            rules("crates/core/src/session.rs", renamed),
            vec![(2, "thread-spawn")]
        );
        assert!(rules(
            "crates/core/src/session.rs",
            "std::thread::scope(|s| ());\n"
        )
        .is_empty());
        assert!(rules("crates/gpu/src/launch.rs", "std::thread::sleep(d);\n").is_empty());
        // Test code may spawn directly.
        let in_test = "#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(f); } }\n";
        assert!(rules("crates/core/src/session.rs", in_test).is_empty());
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

    #[test]
    fn multiline_use_trees_are_parsed() {
        let src = concat!("use std::sync::{\n", "    Arc,\n", "    Mutex,\n", "};\n",);
        assert_eq!(
            rules("crates/core/src/session.rs", src),
            vec![(1, "sync-facade")]
        );
    }

    #[test]
    fn glob_of_banned_namespace_is_flagged() {
        let src = "use std::sync::*;\n";
        let got = rules("crates/core/src/session.rs", src);
        assert_eq!(got, vec![(1, "use-glob")]);
    }
}
