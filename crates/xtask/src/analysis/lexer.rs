//! The shared token stream every analysis pass reads.
//!
//! Rust source is lexed once per file into per-line `(code, comment)`
//! halves with string and char literal *contents* dropped, so rule needles
//! appearing inside literals (like this module's own test fixtures) never
//! trip a pass. The lexer handles:
//!
//! * line comments and **nested** block comments (depth-tracked — a
//!   `/* a /* b */ c */` run stays comment to the outer close);
//! * raw identifiers (`r#unsafe` is an identifier named `unsafe`, not the
//!   keyword — [`find_token`] refuses matches preceded by `#`, and the
//!   lexer keeps the `r#` prefix in the code text instead of mis-lexing it
//!   as a raw-string opener);
//! * string, byte-string, raw-string (`r"…"`, `r#"…"#`, `br##"…"##`) and
//!   char literals vs lifetimes;
//! * backslash-newline continuations inside string literals (the escaped
//!   newline still terminates a source *line*, so diagnostics after a
//!   continued string keep their real line numbers).

/// A source line split into its code and comment text (string and char
/// literal contents stripped from the code half).
#[derive(Debug, Default, Clone)]
pub struct LineInfo {
    /// The line's code text, literals blanked.
    pub code: String,
    /// The line's comment text (trailing line comment and/or the slice of
    /// any block comment crossing it).
    pub comment: String,
    /// Whether the line holds string or char literal text, which the code
    /// half blanks (a line of only a literal is still code).
    pub literal: bool,
}

/// A lexed source file plus the per-line facts passes share.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub label: String,
    /// Per-line code/comment split.
    pub lines: Vec<LineInfo>,
    /// `in_test_cfg[i]` — line `i` sits at or after a `#[cfg(test)]` /
    /// `#[cfg(all(test` marker (the workspace convention keeps test
    /// modules at the bottom of a file, so a sticky flag is exact enough).
    pub in_test_cfg: Vec<bool>,
}

impl SourceFile {
    /// Lexes `source` under the given workspace-relative label.
    pub fn lex(label: &str, source: &str) -> SourceFile {
        let lines = split_lines(source);
        let mut in_test_cfg = Vec::with_capacity(lines.len());
        let mut flag = false;
        for line in &lines {
            if line.code.contains("#[cfg(test)]") || line.code.contains("#[cfg(all(test") {
                flag = true;
            }
            in_test_cfg.push(flag);
        }
        SourceFile {
            label: label.to_string(),
            lines,
            in_test_cfg,
        }
    }

    /// Comments attached to line `i`: its own trailing comment plus the
    /// contiguous comment block above it. The upward walk also crosses
    /// continuation lines of the same (multi-line) statement, stopping at a
    /// blank line or at code that terminates an earlier item (`;`, `{`,
    /// `}`, `,`, or an attribute's `]`).
    pub fn attached_comments(&self, i: usize) -> String {
        let mut acc = vec![self.lines[i].comment.as_str()];
        let mut j = i;
        while j > 0 {
            j -= 1;
            let l = &self.lines[j];
            let code_t = l.code.trim_end();
            if code_t.trim().is_empty() {
                if l.comment.trim().is_empty() {
                    break;
                }
            } else if code_t.ends_with([';', '{', '}', ',', ']']) {
                break;
            }
            acc.push(l.comment.as_str());
        }
        acc.join("\n")
    }
}

/// Finds `needle` in `haystack` as a standalone token: not embedded in a
/// longer identifier or path segment (`StdOrdering::Relaxed` does not
/// contain the token `Ordering::Relaxed`), and not the body of a raw
/// identifier (`r#unsafe` does not contain the token `unsafe`).
pub fn find_token(haystack: &str, needle: &str) -> Option<usize> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(rel) = haystack[from..].find(needle) {
        let at = from + rel;
        let before = haystack[..at].chars().next_back();
        // `#` immediately before the match means a raw identifier
        // (`r#unsafe`): the text is a name, not the keyword.
        let before_ok = before.is_none_or(|c| !ident(c) && c != '#');
        let after_ok = haystack[at + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !ident(c));
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + needle.len();
    }
    None
}

/// Lexes the source into per-line code/comment parts. See the module docs
/// for the constructs handled.
pub fn split_lines(source: &str) -> Vec<LineInfo> {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let mut state = State::Code;
    let mut lines = Vec::new();
    let mut cur = LineInfo::default();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        i += 2;
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        i += 2;
                    }
                    '"' => {
                        state = State::Str;
                        cur.code.push(' ');
                        i += 1;
                    }
                    'r' | 'b' => {
                        // Raw/byte string start (r", r#", br", b", br##")
                        // — or a raw identifier (r#name), which must stay
                        // code verbatim.
                        let mut j = i + 1;
                        if c == 'b' && chars.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        let prev_ident = i
                            .checked_sub(1)
                            .and_then(|p| chars.get(p))
                            .is_some_and(|p| p.is_ascii_alphanumeric() || *p == '_');
                        let quote = chars.get(j) == Some(&'"');
                        let is_raw = quote
                            && !prev_ident
                            && (c == 'r' || chars.get(i + 1) == Some(&'r') || hashes == 0);
                        if is_raw {
                            if c == 'b' && chars.get(i + 1) != Some(&'r') && hashes == 0 {
                                // b"..." — plain byte string.
                                state = State::Str;
                            } else {
                                state = State::RawStr(hashes);
                            }
                            cur.code.push(' ');
                            i = j + 1;
                        } else if c == 'r' && !prev_ident && hashes == 1 {
                            // Raw identifier r#name: emit the prefix as
                            // code (find_token treats `#` as a raw-ident
                            // guard) and continue lexing the name normally.
                            cur.code.push('r');
                            cur.code.push('#');
                            i = j;
                        } else {
                            cur.code.push(c);
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Char literal or lifetime. A literal closes within
                        // a few chars; a lifetime has no closing quote.
                        if next == Some('\\') {
                            // Escaped char literal: skip to closing quote.
                            let mut j = i + 2;
                            while j < chars.len() && chars[j] != '\'' {
                                j += 1;
                            }
                            cur.code.push(' ');
                            cur.literal = true;
                            i = j + 1;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            cur.code.push(' ');
                            cur.literal = true;
                            i += 3;
                        } else {
                            cur.code.push(c);
                            i += 1;
                        }
                    }
                    _ => {
                        cur.code.push(c);
                        i += 1;
                    }
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                cur.literal = true;
                if c == '\\' {
                    // An escaped newline continues the literal but still
                    // ends the source line — swallowing it would shift
                    // every later diagnostic's line number.
                    if chars.get(i + 1) == Some(&'\n') {
                        lines.push(std::mem::take(&mut cur));
                    }
                    i += 2;
                } else if c == '"' {
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                cur.literal = true;
                if c == '"' {
                    let closed = (0..hashes).all(|k| chars.get(i + 1 + k as usize) == Some(&'#'));
                    if closed {
                        state = State::Code;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    lines.push(cur);
    lines
}

#[cfg(test)]
mod tests {
    use super::{find_token, split_lines, SourceFile};

    #[test]
    fn token_boundaries() {
        assert!(find_token("use std::sync::atomic::AtomicU64;", "std::sync::atomic").is_some());
        assert!(find_token("StdOrdering::Relaxed", "Ordering::Relaxed").is_none());
        assert!(find_token("x.load(Ordering::Relaxed)", "Ordering::Relaxed").is_some());
        assert!(find_token("unsafe_code", "unsafe").is_none());
        assert!(find_token("unsafe impl Sync for X {}", "unsafe").is_some());
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = concat!(
            "let s = \"std::sync::atomic in a string\";\n",
            "// std::sync::atomic in a comment\n",
            "/* Ordering::Relaxed in a block\n",
            "   comment */ let x = 1;\n",
            "let c = '\"'; let r = r#\"Ordering::Relaxed\"#;\n",
        );
        let lines = split_lines(src);
        assert!(lines[0].code.contains("let s ="));
        assert!(!lines[0].code.contains("atomic"));
        assert!(lines[1].comment.contains("std::sync::atomic"));
        assert!(lines[3].code.contains("let x = 1"));
        assert!(lines[4].code.contains("let r ="));
        assert!(!lines[4].code.contains("Relaxed"));
    }

    /// Regression (satellite 1): nested block comments must stay comment
    /// text to the *outer* close, at any depth, including all-on-one-line
    /// runs and code resuming after the close.
    #[test]
    fn nested_block_comments() {
        let src = concat!(
            "/* depth1 /* depth2 /* depth3 unsafe */ still2 */ still1 */ let a = 1;\n",
            "/* open /* inner\n",
            "unsafe { std::sync::atomic } still inside\n",
            "*/ tail of outer\n",
            "*/ let b = unsafe_name;\n",
        );
        let lines = split_lines(src);
        assert!(lines[0].code.contains("let a = 1"));
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.contains("depth3"));
        assert!(lines[2].code.is_empty(), "inside depth-2 comment");
        assert!(lines[2].comment.contains("still inside"));
        assert!(
            lines[3].code.is_empty(),
            "depth 1 still open: {:?}",
            lines[3].code
        );
        assert!(lines[4].code.contains("let b"));
        assert!(find_token(&lines[4].code, "unsafe").is_none());
    }

    /// Regression (satellite 1): raw identifiers are names, not keywords,
    /// and must not be mis-lexed as raw-string openers (which would
    /// swallow the rest of the file).
    #[test]
    fn raw_identifiers() {
        let src = concat!(
            "let r#unsafe = 1;\n",
            "let r#match = r#unsafe + 1;\n",
            "let real = r#\"raw unsafe string\"#;\n",
            "unsafe { touch() };\n",
        );
        let lines = split_lines(src);
        // The raw identifier survives as code but never matches the
        // keyword token.
        assert!(lines[0].code.contains("r#unsafe"));
        assert!(find_token(&lines[0].code, "unsafe").is_none());
        assert!(find_token(&lines[1].code, "match").is_none());
        // The raw *string* on line 3 is still stripped...
        assert!(!lines[2].code.contains("raw unsafe string"));
        // ...and the real keyword on line 4 still matches.
        assert!(find_token(&lines[3].code, "unsafe").is_some());
    }

    /// Regression (satellite 1): a backslash-newline continuation inside a
    /// string literal must not swallow the line break — diagnostics after
    /// it would otherwise point one line too early.
    #[test]
    fn escaped_newline_keeps_line_numbers() {
        let src = "let s = \"one \\\n  two\";\nunsafe { x() };\n";
        let lines = split_lines(src);
        assert_eq!(lines.len(), 4, "3 source lines + trailing empty");
        assert!(find_token(&lines[2].code, "unsafe").is_some());
    }

    #[test]
    fn attached_comment_block_walk() {
        let f = SourceFile::lex(
            "crates/core/src/x.rs",
            concat!(
                "// relaxed-ok: block above\n",
                "let v =\n",
                "    head.load(Ordering::Relaxed);\n",
                "\n",
                "let w = head.load(Ordering::Relaxed); // inline note\n",
            ),
        );
        assert!(f.attached_comments(2).contains("relaxed-ok:"));
        assert!(f.attached_comments(4).contains("inline note"));
        assert!(!f.attached_comments(4).contains("relaxed-ok:"));
    }

    #[test]
    fn test_cfg_flag_is_sticky() {
        let f = SourceFile::lex(
            "crates/core/src/x.rs",
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
        );
        assert!(!f.in_test_cfg[0]);
        assert!(f.in_test_cfg[1] && f.in_test_cfg[3]);
    }
}
