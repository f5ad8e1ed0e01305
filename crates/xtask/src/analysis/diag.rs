//! Structured diagnostics: the one currency every pass emits and every
//! consumer (human output, `--json`, the error gate) trades in.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Blocks CI.
    Error,
    /// Reported but never gates (advisory findings).
    Warning,
}

impl Severity {
    /// Lowercase name used in both output formats.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One finding: which pass and rule fired, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Pass name (`panic-discipline`, `atomics` or `plan-invariants`).
    pub pass: &'static str,
    /// Rule name within the pass.
    pub rule: &'static str,
    /// Workspace-relative file label (or a virtual label like
    /// `workloads:NVDLA_m(small)/convolution` for compiled-plan findings).
    pub file: String,
    /// 1-based line, `0` when the finding has no line anchor.
    pub line: usize,
    /// Severity.
    pub severity: Severity,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}/{}] {}",
            self.file,
            self.line,
            self.severity.as_str(),
            self.pass,
            self.rule,
            self.msg
        )
    }
}

/// Escapes a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a diagnostics run to the `gatspi-analyze-diagnostics` JSON
/// document (version 1). The document is self-describing and parses back
/// with [`gatspi_bench::artifact::parse`] — the round-trip unit test keeps
/// the schema honest.
pub fn to_json(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"gatspi-analyze-diagnostics\",\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    out.push_str(&format!(
        "  \"summary\": {{\"total\": {}, \"errors\": {}, \"warnings\": {}}},\n",
        diags.len(),
        errors,
        diags.len() - errors
    ));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"pass\": \"{}\", \"rule\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"severity\": \"{}\", \"msg\": \"{}\"}}",
            json_escape(d.pass),
            json_escape(d.rule),
            json_escape(&d.file),
            d.line,
            d.severity.as_str(),
            json_escape(&d.msg)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(pass: &'static str, rule: &'static str, file: &str, line: usize) -> Diagnostic {
        Diagnostic {
            pass,
            rule,
            file: file.to_string(),
            line,
            severity: Severity::Error,
            msg: format!("{rule} at {file}:{line}"),
        }
    }

    /// The `--json` document must parse back through the same hand-rolled
    /// parser the bench artifacts use, with every field intact — the
    /// schema's round-trip contract.
    #[test]
    fn json_schema_round_trips() {
        use gatspi_bench::artifact::{parse, Json};
        let diags = vec![
            d(
                "panic-discipline",
                "unwrap",
                "crates/core/src/session.rs",
                42,
            ),
            Diagnostic {
                pass: "atomics",
                rule: "relaxed",
                file: "crates/gpu/src/device.rs".to_string(),
                line: 7,
                severity: Severity::Warning,
                msg: "quote \" backslash \\ newline \n tab \t done".to_string(),
            },
        ];
        let text = to_json(&diags, 99);
        let doc = parse(&text).expect("diagnostics JSON parses");
        assert!(
            matches!(doc.get("schema"), Some(Json::Str(s)) if s == "gatspi-analyze-diagnostics")
        );
        assert!(matches!(doc.get("files_scanned"), Some(Json::Num(n)) if *n == 99.0));
        let summary = doc.get("summary").expect("summary");
        assert!(matches!(summary.get("total"), Some(Json::Num(n)) if *n == 2.0));
        assert!(matches!(summary.get("errors"), Some(Json::Num(n)) if *n == 1.0));
        let Some(Json::Arr(arr)) = doc.get("diagnostics") else {
            panic!("diagnostics array");
        };
        assert_eq!(arr.len(), 2);
        for (json, orig) in arr.iter().zip(&diags) {
            assert!(matches!(json.get("pass"), Some(Json::Str(s)) if s == orig.pass));
            assert!(matches!(json.get("rule"), Some(Json::Str(s)) if s == orig.rule));
            assert!(matches!(json.get("file"), Some(Json::Str(s)) if *s == orig.file));
            assert!(matches!(json.get("line"), Some(Json::Num(n)) if *n == orig.line as f64));
            assert!(
                matches!(json.get("severity"), Some(Json::Str(s)) if s == orig.severity.as_str())
            );
            assert!(matches!(json.get("msg"), Some(Json::Str(s)) if *s == orig.msg));
        }
    }
}
