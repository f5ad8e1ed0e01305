//! Structured diagnostics: the one currency every pass emits and every
//! consumer (human output, `--json`, the baseline gate) trades in.

use std::collections::BTreeMap;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Blocks CI once it exceeds the baseline.
    Error,
    /// Reported but never gates (stale-baseline notes, advisory findings).
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
    /// Pass name (`panic-discipline`, `unwind-boundary`, …).
    pub pass: &'static str,
    /// Rule name within the pass — the baseline suppression key's third
    /// component, so one noisy rule can be baselined without muting its
    /// siblings.
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

/// The checked-in suppression file: counts of accepted pre-existing
/// findings keyed by `(file, pass, rule)`. Line numbers are deliberately
/// not part of the key — unrelated edits move lines constantly, and a
/// baseline that rots on every rebase teaches people to regenerate it
/// blindly. Counts still gate: a *new* finding in an already-baselined
/// file/rule pushes the count past its allowance and fails.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Accepted finding count per `(file, pass, rule)`.
    pub entries: BTreeMap<(String, String, String), usize>,
}

impl Baseline {
    /// Parses the baseline document (same hand-rolled JSON family as the
    /// bench artifacts: `{"schema": ..., "entries": [{"file", "pass",
    /// "rule", "count"}]}`).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        use gatspi_bench::artifact::{parse, Json};
        let doc = parse(text).map_err(|e| format!("baseline: {e}"))?;
        match doc.get("schema") {
            Some(Json::Str(s)) if s == "gatspi-analyze-baseline" => {}
            _ => return Err("baseline: missing schema gatspi-analyze-baseline".into()),
        }
        let Some(Json::Arr(entries)) = doc.get("entries") else {
            return Err("baseline: missing entries array".into());
        };
        let mut out = Baseline::default();
        for e in entries {
            let (Some(Json::Str(file)), Some(Json::Str(pass)), Some(Json::Str(rule))) =
                (e.get("file"), e.get("pass"), e.get("rule"))
            else {
                return Err("baseline: entry missing file/pass/rule".into());
            };
            let count = match e.get("count") {
                Some(Json::Num(n)) if *n >= 1.0 => *n as usize,
                _ => return Err(format!("baseline: {file}: bad count")),
            };
            if out
                .entries
                .insert((file.clone(), pass.clone(), rule.clone()), count)
                .is_some()
            {
                return Err(format!(
                    "baseline: duplicate entry for {file} {pass}/{rule}"
                ));
            }
        }
        Ok(out)
    }

    /// Builds a baseline accepting exactly the given findings.
    pub fn from_diags<'a>(diags: impl IntoIterator<Item = &'a Diagnostic>) -> Baseline {
        let mut out = Baseline::default();
        for d in diags {
            *out.entries
                .entry((d.file.clone(), d.pass.to_string(), d.rule.to_string()))
                .or_insert(0) += 1;
        }
        out
    }

    /// Serializes back to the baseline document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"gatspi-analyze-baseline\",\n");
        out.push_str("  \"version\": 1,\n  \"entries\": [");
        for (i, ((file, pass, rule), count)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"pass\": \"{}\", \"rule\": \"{}\", \"count\": {}}}",
                json_escape(file),
                json_escape(pass),
                json_escape(rule),
                count
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Splits findings against the baseline. Per `(file, pass, rule)` key,
    /// the first `count` findings are suppressed; the rest are new. Also
    /// returns a warning per stale baseline entry (its findings are gone —
    /// time to shrink the file), so the allowance can only ratchet down.
    pub fn apply(&self, diags: &[Diagnostic]) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
        let mut new = Vec::new();
        let mut seen: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        for d in diags {
            let key = (d.file.clone(), d.pass.to_string(), d.rule.to_string());
            let allowance = self.entries.get(&key).copied().unwrap_or(0);
            let used = seen.entry(key).or_insert(0);
            *used += 1;
            if *used > allowance {
                new.push(d.clone());
            }
        }
        let mut stale = Vec::new();
        for ((file, pass, rule), count) in &self.entries {
            let have = seen
                .get(&(file.clone(), pass.clone(), rule.clone()))
                .copied()
                .unwrap_or(0);
            if have < *count {
                stale.push(Diagnostic {
                    pass: "baseline",
                    rule: "stale-entry",
                    file: file.clone(),
                    line: 0,
                    severity: Severity::Warning,
                    msg: format!(
                        "baseline allows {count} {pass}/{rule} finding(s) but only {have} \
                         remain — run `cargo run -p xtask -- analyze --update-baseline` \
                         to ratchet the allowance down"
                    ),
                });
            }
        }
        (new, stale)
    }
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

    #[test]
    fn baseline_round_trips_and_gates_by_count() {
        let diags = vec![
            d("panic-discipline", "unwrap", "a.rs", 1),
            d("panic-discipline", "unwrap", "a.rs", 9),
            d("atomics", "safety", "b.rs", 3),
        ];
        let base = Baseline::from_diags(&diags);
        let reparsed = Baseline::parse(&base.to_json()).expect("baseline parses");
        assert_eq!(base, reparsed);

        // Exactly the baselined findings: nothing new, nothing stale.
        let (new, stale) = base.apply(&diags);
        assert!(new.is_empty() && stale.is_empty());

        // One extra finding under an existing key exceeds its allowance —
        // even though the key is baselined.
        let mut more = diags.clone();
        more.push(d("panic-discipline", "unwrap", "a.rs", 77));
        let (new, _) = base.apply(&more);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].line, 77);

        // A finding under a fresh key is always new.
        let fresh = vec![d("unwind-boundary", "missing-downcast", "c.rs", 5)];
        let (new, stale) = base.apply(&fresh);
        assert_eq!(new.len(), 1);
        assert_eq!(stale.len(), 2, "both baseline keys are now stale");
        assert!(stale.iter().all(|s| s.severity == Severity::Warning));
    }

    #[test]
    fn baseline_rejects_malformed_documents() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse(
            r#"{"schema": "gatspi-analyze-baseline", "entries": [{"file": "a"}]}"#
        )
        .is_err());
        let dup = r#"{"schema": "gatspi-analyze-baseline", "entries": [
            {"file": "a.rs", "pass": "p", "rule": "r", "count": 1},
            {"file": "a.rs", "pass": "p", "rule": "r", "count": 2}
        ]}"#;
        assert!(Baseline::parse(dup).unwrap_err().contains("duplicate"));
    }
}
