//! SAIF (Switching Activity Interchange Format) writing, reading and
//! comparison.
//!
//! GATSPI's deliverable for downstream power analysis is an
//! industry-standard SAIF file; correctness versus the baseline simulator is
//! established by comparing SAIF documents (plus waveform spot-checks).
//! This module implements the "backward" SAIF 2.0 subset those flows use:
//! per-net `T0`/`T1`/`TX`/`TC`/`IG` records under a single instance scope.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{Result, SimTime, WaveError, Waveform, EOW};

/// Switching record for one net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SaifRecord {
    /// Time spent at logic 0.
    pub t0: i64,
    /// Time spent at logic 1.
    pub t1: i64,
    /// Time spent at X (always 0 in 2-value simulation).
    pub tx: i64,
    /// Toggle count.
    pub tc: u64,
    /// Glitch (inertial-glitch) count, if the producer tracks it.
    pub ig: u64,
}

/// An in-memory SAIF document: design name, duration, and per-net records.
#[derive(Debug, Clone, PartialEq)]
pub struct SaifDocument {
    /// Design (top instance) name.
    pub design: String,
    /// Simulated duration in timescale units.
    pub duration: i64,
    /// Net records, ordered by name for deterministic output.
    pub nets: BTreeMap<String, SaifRecord>,
}

impl SaifDocument {
    /// Creates an empty document.
    pub fn new(design: impl Into<String>, duration: i64) -> Self {
        SaifDocument {
            design: design.into(),
            duration,
            nets: BTreeMap::new(),
        }
    }

    /// Builds a document from named waveforms over `[0, duration)`.
    pub fn from_waveforms<'a>(
        design: &str,
        duration: SimTime,
        waves: impl IntoIterator<Item = (&'a str, &'a Waveform)>,
    ) -> Self {
        let mut doc = SaifDocument::new(design, i64::from(duration));
        for (name, w) in waves {
            let (t0, t1) = w.durations(duration);
            doc.nets.insert(
                name.to_string(),
                SaifRecord {
                    t0,
                    t1,
                    tx: 0,
                    // Clip TC like T0/T1: toggles past `duration` are
                    // outside the observation window and must not count.
                    tc: w.toggle_count_clipped(duration) as u64,
                    ig: 0,
                },
            );
        }
        doc
    }

    /// Serialises to SAIF 2.0 text.
    pub fn write(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "(SAIFILE");
        let _ = writeln!(out, "(SAIFVERSION \"2.0\")");
        let _ = writeln!(out, "(DIRECTION \"backward\")");
        let _ = writeln!(out, "(DESIGN \"{}\")", self.design);
        let _ = writeln!(out, "(TIMESCALE 1 ps)");
        let _ = writeln!(out, "(DURATION {})", self.duration);
        let _ = writeln!(out, "(INSTANCE {}", escape(&self.design));
        let _ = writeln!(out, "  (NET");
        for (name, r) in &self.nets {
            let _ = writeln!(
                out,
                "    ({}\n      (T0 {}) (T1 {}) (TX {}) (TC {}) (IG {})\n    )",
                escape(name),
                r.t0,
                r.t1,
                r.tx,
                r.tc,
                r.ig
            );
        }
        let _ = writeln!(out, "  )");
        let _ = writeln!(out, ")");
        let _ = writeln!(out, ")");
        out
    }

    /// Parses SAIF 2.0 text produced by [`SaifDocument::write`] (or by other
    /// tools using the same subset).
    ///
    /// # Errors
    ///
    /// Returns [`WaveError::Parse`] on malformed input.
    pub fn parse(src: &str) -> Result<Self> {
        let toks = tokenize(src)?;
        let mut p = SaifParser { toks, pos: 0 };
        p.document()
    }

    /// Compares two documents, returning a list of human-readable
    /// differences (empty ⇒ equivalent). `T0`/`T1` are compared exactly; the
    /// paper's accuracy criterion is exact-match SAIF.
    pub fn diff(&self, other: &SaifDocument) -> Vec<String> {
        let mut out = Vec::new();
        if self.duration != other.duration {
            out.push(format!("duration: {} vs {}", self.duration, other.duration));
        }
        for (name, a) in &self.nets {
            match other.nets.get(name) {
                None => out.push(format!("net `{name}` missing from other")),
                Some(b) if a.tc != b.tc => {
                    out.push(format!("net `{name}` TC {} vs {}", a.tc, b.tc))
                }
                Some(b) if a.t0 != b.t0 || a.t1 != b.t1 => out.push(format!(
                    "net `{name}` T0/T1 {}/{} vs {}/{}",
                    a.t0, a.t1, b.t0, b.t1
                )),
                _ => {}
            }
        }
        for name in other.nets.keys() {
            if !self.nets.contains_key(name) {
                out.push(format!("net `{name}` missing from self"));
            }
        }
        out
    }

    /// Total toggle count over all nets.
    pub fn total_toggles(&self) -> u64 {
        self.nets.values().map(|r| r.tc).sum()
    }
}

/// Switching deltas of one net over one observation window — the unit
/// [`SaifAccumulator`] folds. `TX`/`IG` are absent: 2-value simulation has
/// no unknowns, and glitch counts travel separately when tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SaifDelta {
    /// Time at logic 0 within the window.
    pub t0: i64,
    /// Time at logic 1 within the window.
    pub t1: i64,
    /// Toggles within the window.
    pub tc: u64,
}

/// Scans one raw Fig. 3 waveform array — optional
/// [`INIT_ONE_MARKER`](crate::INIT_ONE_MARKER),
/// a mandatory time-0 entry, ascending toggle times, an [`EOW`]
/// terminator (words past it, if any, are ignored; a slice ending without
/// one is treated as terminated) — into the toggle count and state
/// durations clipped to `[0, clip)`, without materialising a
/// [`Waveform`].
///
/// The slice must start at the waveform's (even-aligned) base so the
/// index-parity value encoding holds.
pub fn scan_raw(raw: &[i32], clip: SimTime) -> SaifDelta {
    let (initial, tail) = crate::split_raw(raw);
    let mut val = initial;
    let mut d = SaifDelta::default();
    let mut prev = 0i64;
    let clip = i64::from(clip);
    for &t in tail {
        if t == EOW || i64::from(t) >= clip {
            break;
        }
        let span = i64::from(t) - prev;
        if val {
            d.t1 += span;
        } else {
            d.t0 += span;
        }
        prev = i64::from(t);
        val = !val;
        d.tc += 1;
    }
    let tail = clip - prev;
    if tail > 0 {
        if val {
            d.t1 += tail;
        } else {
            d.t0 += tail;
        }
    }
    d
}

/// Streaming SAIF builder: folds each net's per-window switching deltas
/// into running `T0`/`T1`/`TC` totals, so a segmented (or multi-GPU) run
/// produces its SAIF without ever holding full-duration waveforms —
/// memory is O(nets), independent of run length.
///
/// Nets are indexed (`names[s]` names net `s`); nets that never receive a
/// delta are omitted from the finished document, mirroring the engine's
/// treatment of floating signals.
///
/// # Example
///
/// ```
/// use gatspi_wave::saif::{SaifAccumulator, SaifDocument};
/// use gatspi_wave::Waveform;
///
/// let w = Waveform::from_toggles(false, &[10, 30]);
/// let mut acc = SaifAccumulator::new("top", vec!["a".into()]);
/// // Two 50-tick windows of the same waveform, fed separately.
/// for (start, end) in [(0, 50), (50, 100)] {
///     acc.add_raw(0, w.window(start, end).raw(), end - start);
/// }
/// let doc = acc.finish(100);
/// assert_eq!(doc, SaifDocument::from_waveforms("top", 100, [("a", &w)]));
/// ```
#[derive(Debug, Clone)]
pub struct SaifAccumulator {
    design: String,
    names: Vec<String>,
    recs: Vec<SaifRecord>,
    touched: Vec<bool>,
}

impl SaifAccumulator {
    /// Starts an accumulator for the given design and net names.
    pub fn new(design: impl Into<String>, names: Vec<String>) -> Self {
        let n = names.len();
        SaifAccumulator {
            design: design.into(),
            names,
            recs: vec![SaifRecord::default(); n],
            touched: vec![false; n],
        }
    }

    /// Number of nets the accumulator tracks.
    pub fn n_nets(&self) -> usize {
        self.names.len()
    }

    /// Folds one raw Fig. 3 window of net `signal`, clipped to
    /// `[0, clip)` window-local time (see [`scan_raw`]).
    ///
    /// # Panics
    ///
    /// Panics if `signal` is out of range.
    pub fn add_raw(&mut self, signal: usize, raw: &[i32], clip: SimTime) {
        let d = scan_raw(raw, clip);
        let r = &mut self.recs[signal];
        r.t0 += d.t0;
        r.t1 += d.t1;
        r.tc += d.tc;
        self.touched[signal] = true;
    }

    /// Finalises into a [`SaifDocument`] covering `[0, duration)`. Nets
    /// that never received a delta are omitted.
    pub fn finish(self, duration: SimTime) -> SaifDocument {
        let mut doc = SaifDocument::new(self.design, i64::from(duration));
        for ((name, rec), touched) in self.names.into_iter().zip(self.recs).zip(self.touched) {
            if touched {
                doc.nets.insert(name, rec);
            }
        }
        doc
    }
}

/// Escapes SAIF identifiers: bracketed bus bits become `\[i\]`.
fn escape(name: &str) -> String {
    let mut s = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '[' => s.push_str("\\["),
            ']' => s.push_str("\\]"),
            _ => s.push(c),
        }
    }
    s
}

fn unescape(name: &str) -> String {
    name.replace("\\[", "[").replace("\\]", "]")
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Open,
    Close,
    Atom(String),
    Str(String),
}

fn tokenize(src: &str) -> Result<Vec<(Tok, usize)>> {
    let mut toks = Vec::new();
    let b = src.as_bytes();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        match b[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'(' => {
                toks.push((Tok::Open, line));
                i += 1;
            }
            b')' => {
                toks.push((Tok::Close, line));
                i += 1;
            }
            b'"' => {
                let start = i + 1;
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += 1;
                }
                if i == b.len() {
                    return Err(WaveError::Parse {
                        line,
                        detail: "unterminated string".into(),
                    });
                }
                toks.push((
                    Tok::Str(String::from_utf8_lossy(&b[start..i]).into_owned()),
                    line,
                ));
                i += 1;
            }
            _ => {
                let start = i;
                while i < b.len()
                    && !b[i].is_ascii_whitespace()
                    && b[i] != b'('
                    && b[i] != b')'
                    && b[i] != b'"'
                {
                    i += 1;
                }
                toks.push((
                    Tok::Atom(String::from_utf8_lossy(&b[start..i]).into_owned()),
                    line,
                ));
            }
        }
    }
    Ok(toks)
}

struct SaifParser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl SaifParser {
    fn line(&self) -> usize {
        self.toks.get(self.pos).map(|(_, l)| *l).unwrap_or(0)
    }

    fn err(&self, detail: impl Into<String>) -> WaveError {
        WaveError::Parse {
            line: self.line(),
            detail: detail.into(),
        }
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn expect_open(&mut self) -> Result<()> {
        match self.next() {
            Some(Tok::Open) => Ok(()),
            other => Err(self.err(format!("expected `(`, found {other:?}"))),
        }
    }

    fn expect_close(&mut self) -> Result<()> {
        match self.next() {
            Some(Tok::Close) => Ok(()),
            other => Err(self.err(format!("expected `)`, found {other:?}"))),
        }
    }

    fn atom(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Atom(s)) => Ok(s),
            Some(Tok::Str(s)) => Ok(s),
            other => Err(self.err(format!("expected atom, found {other:?}"))),
        }
    }

    fn int(&mut self) -> Result<i64> {
        let a = self.atom()?;
        a.parse().map_err(|_| WaveError::Parse {
            line: self.line(),
            detail: format!("expected integer, got `{a}`"),
        })
    }

    /// Skips a balanced form whose `(` was already consumed.
    fn skip_form(&mut self) -> Result<()> {
        let mut depth = 1;
        while depth > 0 {
            match self.next() {
                Some(Tok::Open) => depth += 1,
                Some(Tok::Close) => depth -= 1,
                Some(_) => {}
                None => return Err(self.err("unexpected end of file")),
            }
        }
        Ok(())
    }

    fn document(&mut self) -> Result<SaifDocument> {
        self.expect_open()?;
        let kw = self.atom()?;
        if kw != "SAIFILE" {
            return Err(self.err("expected SAIFILE"));
        }
        let mut doc = SaifDocument::new("", 0);
        while self.peek() == Some(&Tok::Open) {
            self.next();
            let kw = self.atom()?;
            match kw.as_str() {
                "DESIGN" => {
                    doc.design = self.atom()?;
                    self.expect_close()?;
                }
                "DURATION" => {
                    doc.duration = self.int()?;
                    self.expect_close()?;
                }
                "INSTANCE" => {
                    let name = self.atom()?;
                    if doc.design.is_empty() {
                        doc.design = unescape(&name);
                    }
                    self.instance_body(&mut doc)?;
                }
                _ => self.skip_form()?,
            }
        }
        self.expect_close()?;
        Ok(doc)
    }

    fn instance_body(&mut self, doc: &mut SaifDocument) -> Result<()> {
        while self.peek() == Some(&Tok::Open) {
            self.next();
            let kw = self.atom()?;
            if kw == "NET" {
                self.net_body(doc)?;
            } else {
                self.skip_form()?;
            }
        }
        self.expect_close()
    }

    fn net_body(&mut self, doc: &mut SaifDocument) -> Result<()> {
        while self.peek() == Some(&Tok::Open) {
            self.next();
            let name = unescape(&self.atom()?);
            let mut rec = SaifRecord::default();
            while self.peek() == Some(&Tok::Open) {
                self.next();
                let field = self.atom()?;
                let v = self.int()?;
                match field.as_str() {
                    "T0" => rec.t0 = v,
                    "T1" => rec.t1 = v,
                    "TX" => rec.tx = v,
                    "TC" => rec.tc = v as u64,
                    "IG" => rec.ig = v as u64,
                    _ => {}
                }
                self.expect_close()?;
            }
            self.expect_close()?;
            doc.nets.insert(name, rec);
        }
        self.expect_close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Waveform;

    fn doc() -> SaifDocument {
        let a = Waveform::from_toggles(false, &[10, 30]);
        let b = Waveform::from_toggles(true, &[50]);
        SaifDocument::from_waveforms("top", 100, [("a", &a), ("b[3]", &b)])
    }

    #[test]
    fn records_from_waveforms() {
        let d = doc();
        let a = &d.nets["a"];
        assert_eq!(a.tc, 2);
        assert_eq!(a.t1, 20);
        assert_eq!(a.t0, 80);
        let b = &d.nets["b[3]"];
        assert_eq!(b.tc, 1);
        assert_eq!(b.t1, 50);
    }

    #[test]
    fn from_waveforms_clips_tc_to_duration() {
        // Toggles at 10, 30, 150, 250 — only the first two fall inside
        // [0, 100). T0/T1 were always clamped; TC must match them.
        let w = Waveform::from_toggles(false, &[10, 30, 150, 250]);
        let d = SaifDocument::from_waveforms("top", 100, [("a", &w)]);
        let r = &d.nets["a"];
        assert_eq!(r.tc, 2, "toggles past duration must not count");
        assert_eq!((r.t0, r.t1), (80, 20));
        assert_eq!(r.t0 + r.t1, d.duration, "durations span the document");
    }

    #[test]
    fn scan_raw_matches_waveform_scan() {
        let w = Waveform::from_toggles(true, &[5, 9, 40]);
        for clip in [0, 5, 6, 25, 40, 100] {
            let d = scan_raw(w.raw(), clip);
            let (t0, t1) = w.durations(clip);
            assert_eq!((d.t0, d.t1), (t0, t1), "clip {clip}");
            assert_eq!(d.tc as usize, w.toggle_count_clipped(clip), "clip {clip}");
        }
        // Ghost words past the EOW terminator are ignored.
        let mut raw = w.raw().to_vec();
        raw.extend([3, 7, 11]);
        assert_eq!(scan_raw(&raw, 100), scan_raw(w.raw(), 100));
        // A slice without a terminator is treated as ending there.
        assert_eq!(scan_raw(&[0, 8], 20), scan_raw(&[0, 8, EOW], 20));
    }

    #[test]
    fn accumulator_folds_windows_to_whole_run_records() {
        let a = Waveform::from_toggles(false, &[10, 30, 77, 160]);
        let b = Waveform::from_toggles(true, &[55]);
        let duration = 200;
        let mut acc = SaifAccumulator::new("top", vec!["a".into(), "b".into(), "quiet".into()]);
        assert_eq!(acc.n_nets(), 3);
        for (start, end) in [(0, 70), (70, 140), (140, 200)] {
            acc.add_raw(0, a.window(start, end).raw(), end - start);
            acc.add_raw(1, b.window(start, end).raw(), end - start);
        }
        let doc = acc.finish(duration);
        let whole = SaifDocument::from_waveforms("top", duration, [("a", &a), ("b", &b)]);
        assert_eq!(doc, whole, "window folding must equal the whole run");
        assert!(!doc.nets.contains_key("quiet"), "untouched nets omitted");
    }

    #[test]
    fn roundtrip_write_parse() {
        let d = doc();
        let text = d.write();
        let d2 = SaifDocument::parse(&text).unwrap();
        assert_eq!(d, d2);
        assert!(d.diff(&d2).is_empty());
    }

    #[test]
    fn escaped_bus_names_roundtrip() {
        let d = doc();
        let text = d.write();
        assert!(
            text.contains("b\\[3\\]"),
            "bus bits must be escaped: {text}"
        );
        let d2 = SaifDocument::parse(&text).unwrap();
        assert!(d2.nets.contains_key("b[3]"));
    }

    #[test]
    fn diff_detects_mismatches() {
        let d1 = doc();
        let mut d2 = doc();
        d2.nets.get_mut("a").unwrap().tc = 99;
        let diffs = d1.diff(&d2);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("TC"));

        let mut d3 = doc();
        d3.nets.remove("a");
        assert!(!d1.diff(&d3).is_empty());
        assert!(!d3.diff(&d1).is_empty());
    }

    #[test]
    fn total_toggles() {
        assert_eq!(doc().total_toggles(), 3);
    }

    #[test]
    fn parse_ignores_unknown_forms() {
        let text = r#"(SAIFILE
(SAIFVERSION "2.0")
(PROGRAM_NAME "someone_else")
(DESIGN "x")
(DURATION 10)
(INSTANCE x
  (PORT (p (T0 1)))
  (NET (n (T0 4) (T1 6) (TC 2)))
)
)"#;
        let d = SaifDocument::parse(text).unwrap();
        assert_eq!(d.duration, 10);
        assert_eq!(d.nets["n"].tc, 2);
        assert!(!d.nets.contains_key("p"));
    }

    #[test]
    fn parse_error_on_garbage() {
        assert!(SaifDocument::parse("(NOTSAIF)").is_err());
        assert!(SaifDocument::parse("(SAIFILE (DESIGN \"unterminated").is_err());
    }
}
