//! Shared helpers for the GATSPI experiment harness.
//!
//! Every table and figure of the paper has a bench target in `benches/`
//! (run `cargo bench -p gatspi-bench --bench table2` etc., or all of them
//! via `cargo bench`). Each target regenerates the corresponding rows with
//! clearly labelled **measured** (host wall-clock) and **modeled**
//! (simulated-GPU performance model) numbers. `GATSPI_SCALE` scales the
//! workloads up from their CPU-friendly defaults.

use gatspi_core::{Session, SimConfig, SimResult};
use gatspi_gpu::Device;
use gatspi_refsim::{EventSimulator, RefConfig, RefResult};
use gatspi_workloads::suite::BuiltBenchmark;
use std::sync::Arc;

/// Renders an aligned text table: `header` then `rows`.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats seconds with sensible precision.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}us", s * 1e6)
    }
}

/// Formats a speedup factor.
pub fn speedup(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}X")
    } else {
        format!("{x:.1}X")
    }
}

/// The default GATSPI configuration for a benchmark: paper tuning
/// {32, 512, 64}, windows aligned to the benchmark's clock.
pub fn gatspi_config(b: &BuiltBenchmark) -> SimConfig {
    SimConfig::default().with_window_align(b.cycle_time)
}

/// Runs GATSPI on a built benchmark, on one session of its own.
pub fn run_gatspi(b: &BuiltBenchmark, cfg: SimConfig) -> SimResult {
    Session::new(Arc::clone(&b.graph), cfg)
        .run(&b.stimuli, b.duration)
        .expect("gatspi run")
}

/// Runs the single-threaded event-driven baseline on a built benchmark.
pub fn run_baseline(b: &BuiltBenchmark) -> RefResult {
    let cfg = RefConfig {
        record_waveforms: false,
        ..RefConfig::default()
    };
    EventSimulator::new(&b.graph, cfg)
        .run(&b.stimuli, b.duration)
        .expect("baseline run")
}

/// Runs GATSPI on a session over `devices` — a multi-GPU fleet, or the
/// one host-threaded device of the CPU backend.
pub fn run_gatspi_on(b: &BuiltBenchmark, cfg: SimConfig, devices: Vec<Arc<Device>>) -> SimResult {
    Session::with_devices(Arc::clone(&b.graph), cfg, devices)
        .run(&b.stimuli, b.duration)
        .expect("gatspi run")
}

/// The "OpenMP-equivalent" CPU backend (Table 3): one device whose kernels
/// run on `threads` host threads. Read its measured wall times; its modeled
/// ones still describe the configured GPU.
pub fn cpu_device(cfg: &SimConfig, threads: usize) -> Arc<Device> {
    Arc::new(Device::with_workers(
        cfg.device.clone(),
        cfg.memory_words,
        threads,
    ))
}

/// Measured activity factor of a result (toggles / signal / cycle).
pub fn activity_factor(r: &SimResult, b: &BuiltBenchmark) -> f64 {
    r.activity_factor(b.cycle_time)
}

/// Writes a machine-readable benchmark artifact `BENCH_<target>.json` into
/// `GATSPI_BENCH_DIR` (default: the current directory) and logs the path.
/// Bench mains share this so the artifact location convention stays in one
/// place. (The criterion compat shim carries its own copy — it cannot
/// depend on this crate without a cycle.)
pub fn write_bench_artifact(target: &str, json: &str) {
    let dir = std::env::var("GATSPI_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_{target}.json");
    if let Err(e) = artifact::validate(json) {
        eprintln!("refusing to write malformed bench artifact {path}: {e}");
        return;
    }
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Validation of the `BENCH_*.json` cross-PR trajectory artifacts, so
/// bench emission cannot silently rot: a smoke test walks every artifact
/// in the repository root and fails on malformed entries (syntax errors,
/// missing `target`, non-finite or non-numeric measurements).
///
/// The parser is a deliberately small recursive-descent JSON reader — the
/// workspace is offline, so no serde — accepting exactly standard JSON.
pub mod artifact {
    /// A parsed JSON value (subset sufficient for bench artifacts).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number (always finite: JSON has no NaN/inf syntax).
        Num(f64),
        /// String (escapes resolved).
        Str(String),
        /// Array.
        Arr(Vec<Json>),
        /// Object, insertion order preserved.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Looks up a key of an object value.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace only).
    ///
    /// # Errors
    ///
    /// A human-readable description with the byte offset of the defect.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Validates one bench artifact: well-formed JSON, a top-level object
    /// with a string `target`, and — when a `benchmarks` array is present
    /// (criterion-style artifacts) — each entry an object with a string
    /// `id` and a numeric `mean_ns`.
    ///
    /// # Errors
    ///
    /// A description of the first defect found.
    pub fn validate(text: &str) -> Result<(), String> {
        let doc = parse(text)?;
        let Json::Obj(_) = doc else {
            return Err("top level must be an object".into());
        };
        match doc.get("target") {
            Some(Json::Str(t)) if !t.is_empty() => {}
            _ => return Err("missing or non-string \"target\"".into()),
        }
        if let Some(benches) = doc.get("benchmarks") {
            let Json::Arr(entries) = benches else {
                return Err("\"benchmarks\" must be an array".into());
            };
            if entries.is_empty() {
                return Err("\"benchmarks\" must not be empty".into());
            }
            for (i, e) in entries.iter().enumerate() {
                match e.get("id") {
                    Some(Json::Str(id)) if !id.is_empty() => {}
                    _ => return Err(format!("benchmarks[{i}]: missing or non-string \"id\"")),
                }
                match e.get("mean_ns") {
                    Some(Json::Num(ns)) if *ns >= 0.0 => {}
                    _ => {
                        return Err(format!(
                            "benchmarks[{i}]: missing or non-numeric \"mean_ns\""
                        ))
                    }
                }
            }
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
            Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
            Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
            Some(b'"') => parse_string(b, pos).map(Json::Str),
            Some(b'[') => parse_array(b, pos),
            Some(b'{') => parse_object(b, pos),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
            Some(c) => Err(format!(
                "unexpected byte `{}` at {pos}",
                *c as char,
                pos = *pos
            )),
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        debug_assert_eq!(b[*pos], b'"');
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            // Surrogates are rejected rather than paired:
                            // bench artifacts are ASCII.
                            out.push(char::from_u32(cp).ok_or("unpaired surrogate in \\u escape")?);
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                    }
                    *pos += 1;
                }
                Some(&c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at {pos}", pos = *pos))
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let s = &b[*pos..];
                    let ch_len = match s[0] {
                        c if c < 0x80 => 1,
                        c if (0xC0..0xE0).contains(&c) => 2,
                        c if (0xE0..0xF0).contains(&c) => 3,
                        _ => 4,
                    };
                    let chunk = s.get(..ch_len).ok_or("truncated UTF-8 sequence")?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8".to_string())?,
                    );
                    *pos += ch_len;
                }
            }
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        // Strict RFC 8259 grammar: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
        // — Rust's f64 parser is laxer (`01`, `1.`, `.5` all parse), so the
        // shape is checked here before delegating for the value.
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        match b.get(*pos) {
            Some(b'0') => *pos += 1,
            Some(c) if c.is_ascii_digit() => {
                while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                    *pos += 1;
                }
            }
            _ => return Err(format!("invalid number at byte {start}")),
        }
        if b.get(*pos) == Some(&b'.') {
            *pos += 1;
            if !b.get(*pos).is_some_and(u8::is_ascii_digit) {
                return Err(format!(
                    "digit required after `.` at byte {pos}",
                    pos = *pos
                ));
            }
            while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
        }
        if matches!(b.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(b.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            if !b.get(*pos).is_some_and(u8::is_ascii_digit) {
                return Err(format!(
                    "digit required in exponent at byte {pos}",
                    pos = *pos
                ));
            }
            while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
        }
        let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
        let n: f64 = text
            .parse()
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number `{text}` at byte {start}"));
        }
        Ok(Json::Num(n))
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        *pos += 1; // '['
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        *pos += 1; // '{'
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b'"') {
                return Err(format!("expected object key at byte {pos}", pos = *pos));
            }
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, ":")?;
            let value = parse_value(b, pos)?;
            out.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::artifact::{parse, validate, Json};
    use super::*;

    #[test]
    fn json_parser_round_trips_artifact_shapes() {
        let doc = parse(
            r#"{"target": "t", "unit": "ns", "n": -1.5e3, "ok": true,
                "none": null, "list": [1, 2, {"x": "y\n"}]}"#,
        )
        .unwrap();
        assert_eq!(doc.get("target"), Some(&Json::Str("t".into())));
        assert_eq!(doc.get("n"), Some(&Json::Num(-1500.0)));
        assert_eq!(doc.get("none"), Some(&Json::Null));
        let Some(Json::Arr(list)) = doc.get("list") else {
            panic!("list missing");
        };
        assert_eq!(list[2].get("x"), Some(&Json::Str("y\n".into())));
    }

    #[test]
    fn json_parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "{\"a\": 1} trailing",
            "{\"a\": 01x}",
            "{\"a\": 01}",
            "{\"a\": 1.}",
            "{\"a\": .5}",
            "{\"a\": 1e}",
            "{\"a\": \"unterminated}",
            "[1 2]",
            "{'single': 1}",
        ] {
            assert!(parse(bad).is_err(), "must reject: {bad:?}");
        }
    }

    #[test]
    fn artifact_validation_enforces_schema() {
        // The real criterion-style shape passes.
        validate(
            r#"{"target": "kernel_micro", "unit": "ns_per_iter",
                "benchmarks": [{"id": "g/f/1", "mean_ns": 12.5,
                                "samples": 20, "iters_per_sample": 100}]}"#,
        )
        .unwrap();
        // The flat glitch-flow shape passes (no benchmarks array).
        validate(r#"{"target": "glitch_flow", "gates": 3840, "saving_pct": 4.28}"#).unwrap();
        // Defects are rejected with a reason.
        assert!(validate("[1, 2]").is_err(), "non-object top level");
        assert!(validate(r#"{"unit": "ns"}"#).is_err(), "missing target");
        assert!(
            validate(r#"{"target": "t", "benchmarks": [{"mean_ns": 1}]}"#).is_err(),
            "entry without id"
        );
        assert!(
            validate(r#"{"target": "t", "benchmarks": [{"id": "a", "mean_ns": "fast"}]}"#).is_err(),
            "non-numeric mean"
        );
        assert!(
            validate(r#"{"target": "t", "benchmarks": []}"#).is_err(),
            "empty benchmark list"
        );
    }

    /// The CI smoke check: every `BENCH_*.json` trajectory artifact in the
    /// repository root must stay parseable and schema-conformant, so bench
    /// emission cannot silently rot between PRs.
    #[test]
    fn repo_bench_artifacts_are_well_formed() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..");
        let mut checked = 0usize;
        for entry in std::fs::read_dir(&root).expect("repo root readable") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("artifact readable");
            validate(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            checked += 1;
        }
        assert!(
            checked >= 2,
            "expected the kernel_micro and glitch_flow artifacts, found {checked}"
        );
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(0.00001), "10us");
        assert_eq!(secs(0.25), "250.00ms");
        assert_eq!(secs(2.5), "2.50");
        assert_eq!(secs(250.0), "250");
        // 3.26 and not 3.14159: clippy's approx_constant lint (deny) trips
        // on PI-adjacent literals.
        assert_eq!(speedup(3.26), "3.3X");
        assert_eq!(speedup(449.0), "449X");
    }
}
