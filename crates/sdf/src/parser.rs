//! Recursive-descent parser for the SDF subset used by gate-level power
//! flows: `DELAYFILE` header fields, `CELL`/`CELLTYPE`/`INSTANCE`,
//! `DELAY (ABSOLUTE ...)` with `IOPATH`, `COND ... IOPATH` and
//! `INTERCONNECT` statements. Unknown forms (timing checks, `PATHPULSE`,
//! ...) are skipped structurally. An `INCREMENT` section that holds any
//! statement is rejected with [`SdfError::Parse`]: its delays add to
//! earlier ones, which a model of absolute delays cannot express. An empty
//! one changes nothing and is skipped.
//!
//! The parser makes one pass over the bytes: a cursor lexer hands out
//! tokens borrowed from the text, keywords are matched in place, and delay
//! triples are read from their slice. Inside a quoted string a backslash
//! escapes the next character, so `\"` and `\\` read as `"` and `\`; only a
//! string that holds a backslash is copied.

use std::borrow::Cow;

use crate::model::{Cond, DelayTriple, EdgeSpec, Interconnect, IoPath, PortPath, SdfCell, SdfFile};
use crate::{Result, SdfError};

/// A token borrowed from the source text.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Open,
    Close,
    Atom(&'a str),
    /// A quoted string's text between the quotes, escapes still in it.
    Str(&'a str),
}

/// A quoted string's text with `\"` and `\\` read as `"` and `\`; any
/// other backslash stays. Borrows unless the text holds a backslash.
fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\\') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars().peekable();
    while let Some(c) = chars.next() {
        match chars.peek() {
            Some(&next @ ('"' | '\\')) if c == '\\' => {
                out.push(next);
                chars.next();
            }
            _ => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// A cursor over the source bytes that yields one borrowed token at a time.
#[derive(Clone, Copy)]
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    /// Line of `pos`, 1-based.
    line: usize,
}

impl<'a> Lexer<'a> {
    fn err(&self, detail: &str) -> SdfError {
        SdfError::Parse {
            line: self.line,
            detail: detail.to_string(),
        }
    }

    /// The source between two byte offsets that sit on ASCII bytes or the
    /// end of the text.
    fn text(&self, start: usize, end: usize) -> Result<&'a str> {
        self.src
            .get(start..end)
            .ok_or_else(|| self.err("token splits a UTF-8 character"))
    }

    /// Offset of the first byte at or after `from` that fails `keep`.
    fn scan(&self, from: usize, keep: impl Fn(u8) -> bool) -> usize {
        let b = self.src.as_bytes();
        from + b[from..]
            .iter()
            .position(|&c| !keep(c))
            .unwrap_or(b.len() - from)
    }

    /// Skips whitespace and comments and lexes the next token with its
    /// line (a string's is the line it ends on); `None` at the end of the
    /// text.
    fn next_token(&mut self) -> Result<Option<(Tok<'a>, usize)>> {
        let b = self.src.as_bytes();
        while let Some(&c) = b.get(self.pos) {
            let start = self.pos;
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if c.is_ascii_whitespace() => self.pos += 1,
                b'/' if b.get(start + 1) == Some(&b'/') => {
                    self.pos = self.scan(start, |c| c != b'\n');
                }
                b'(' | b')' => {
                    self.pos += 1;
                    let tok = if c == b'(' { Tok::Open } else { Tok::Close };
                    return Ok(Some((tok, self.line)));
                }
                b'"' => {
                    let mut end = start + 1;
                    while let Some(&c) = b.get(end) {
                        match c {
                            b'"' => break,
                            b'\\' => end = (end + 2).min(b.len()),
                            _ => end += 1,
                        }
                    }
                    self.line += b[start..end].iter().filter(|&&c| c == b'\n').count();
                    self.pos = end;
                    if end == b.len() {
                        return Err(self.err("unterminated string"));
                    }
                    self.pos += 1;
                    return Ok(Some((Tok::Str(self.text(start + 1, end)?), self.line)));
                }
                _ => {
                    self.pos = self.scan(start, |c| {
                        !c.is_ascii_whitespace() && c != b'(' && c != b')' && c != b'"'
                    });
                    return Ok(Some((Tok::Atom(self.text(start, self.pos)?), self.line)));
                }
            }
        }
        Ok(None)
    }
}

/// Picoseconds per `TIMESCALE` unit; a bare number is in picoseconds.
const TIMESCALE_UNITS: [(&str, f64); 5] = [
    ("fs", 0.001),
    ("ps", 1.0),
    ("", 1.0),
    ("ns", 1_000.0),
    ("us", 1_000_000.0),
];

pub(crate) fn parse(src: &str) -> Result<SdfFile> {
    let mut lex = Lexer {
        src,
        pos: 0,
        line: 1,
    };
    let cur = lex.next_token()?;
    let mut p = Parser {
        lex,
        cur,
        last_line: 0,
        joined: String::new(),
        paths: Vec::new(),
    };
    p.delayfile()
}

struct Parser<'a> {
    lex: Lexer<'a>,
    /// The next token and its line; `None` at the end of the text.
    cur: Option<(Tok<'a>, usize)>,
    /// Line of the last token taken; 0 before the first.
    last_line: usize,
    /// Text of an atom run or a COND expression that spans several tokens.
    joined: String,
    /// IOPATHs of the cell being read, moved into it in one exact-size
    /// allocation when it closes.
    paths: Vec<IoPath>,
}

impl<'a> Parser<'a> {
    /// Line of the next token, or of the last one at the end of the text.
    fn line(&self) -> usize {
        self.cur.map_or(self.last_line, |(_, line)| line)
    }

    /// A syntax error at the next token. A lexical error anywhere in the
    /// text outranks it, so which error a text gets does not depend on how
    /// far parsing reached.
    fn err(&self, detail: impl Into<String>) -> SdfError {
        let mut rest = self.lex;
        loop {
            match rest.next_token() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => return e,
            }
        }
        SdfError::Parse {
            line: self.line(),
            detail: detail.into(),
        }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.cur.map(|(t, _)| t)
    }

    /// The token after the next one.
    fn peek2(&self) -> Result<Option<Tok<'a>>> {
        let mut ahead = self.lex;
        Ok(ahead.next_token()?.map(|(t, _)| t))
    }

    fn next(&mut self) -> Result<Option<Tok<'a>>> {
        let Some((t, line)) = self.cur else {
            return Ok(None);
        };
        self.last_line = line;
        self.cur = self.lex.next_token()?;
        Ok(Some(t))
    }

    fn expect_open(&mut self) -> Result<()> {
        match self.next()? {
            Some(Tok::Open) => Ok(()),
            other => Err(self.err(format!("expected `(`, found {other:?}"))),
        }
    }

    fn expect_close(&mut self) -> Result<()> {
        match self.next()? {
            Some(Tok::Close) => Ok(()),
            other => Err(self.err(format!("expected `)`, found {other:?}"))),
        }
    }

    fn atom_or_str(&mut self) -> Result<Cow<'a, str>> {
        match self.next()? {
            Some(Tok::Atom(s)) => Ok(Cow::Borrowed(s)),
            Some(Tok::Str(s)) => Ok(unescape(s)),
            other => Err(self.err(format!("expected atom, found {other:?}"))),
        }
    }

    /// Whether the next token is the atom `kw`, in any case.
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Atom(a)) if a.eq_ignore_ascii_case(kw))
    }

    /// Takes the run of atoms at the cursor and returns their concatenation
    /// (`10 ps` reads `10ps`): `Some` slice of the source for a run of one
    /// atom or none — the usual case — and `None` for a longer run, whose
    /// text is then in `self.joined`.
    fn atom_run(&mut self) -> Result<Option<&'a str>> {
        let Some(Tok::Atom(first)) = self.peek() else {
            return Ok(Some(""));
        };
        self.next()?;
        if !matches!(self.peek(), Some(Tok::Atom(_))) {
            return Ok(Some(first));
        }
        self.joined.clear();
        self.joined.push_str(first);
        while let Some(Tok::Atom(a)) = self.peek() {
            self.next()?;
            self.joined.push_str(a);
        }
        Ok(None)
    }

    /// Skips a balanced form whose `(` was already consumed.
    fn skip_form(&mut self) -> Result<()> {
        let mut depth = 1;
        while depth > 0 {
            match self.next()? {
                Some(Tok::Open) => depth += 1,
                Some(Tok::Close) => depth -= 1,
                Some(_) => {}
                None => return Err(self.err("unexpected end of file")),
            }
        }
        Ok(())
    }

    fn delayfile(&mut self) -> Result<SdfFile> {
        self.expect_open()?;
        let kw = self.atom_or_str()?;
        if !kw.eq_ignore_ascii_case("DELAYFILE") {
            return Err(self.err("expected DELAYFILE"));
        }
        let mut file = SdfFile::new("");
        while self.peek() == Some(Tok::Open) {
            self.next()?;
            let kw = self.atom_or_str()?;
            if kw.eq_ignore_ascii_case("DESIGN") {
                file.design = self.atom_or_str()?.into_owned();
                self.expect_close()?;
            } else if kw.eq_ignore_ascii_case("TIMESCALE") {
                file.timescale_ps = self.timescale()?;
            } else if kw.eq_ignore_ascii_case("CELL") {
                let cell = self.cell(&mut file.interconnects)?;
                if !cell.iopaths.is_empty() {
                    file.cells.push(cell);
                }
            } else {
                self.skip_form()?;
            }
        }
        self.expect_close()?;
        // Text after the DELAYFILE form is ignored, but it must still lex.
        while self.next()?.is_some() {}
        Ok(file)
    }

    /// Parses `(TIMESCALE 1ns)` / `(TIMESCALE 10 ps)`, returning ps/unit.
    fn timescale(&mut self) -> Result<f64> {
        let run = self.atom_run()?;
        self.expect_close()?;
        let text = run.unwrap_or(&self.joined);
        let split = text
            .find(|c: char| c.is_ascii_alphabetic())
            .unwrap_or(text.len());
        let (num, unit) = text.split_at(split);
        let num: f64 = if num.is_empty() {
            1.0
        } else {
            num.parse()
                .map_err(|_| self.err(format!("bad timescale number `{num}`")))?
        };
        let mult = TIMESCALE_UNITS
            .iter()
            .find(|(name, _)| unit.eq_ignore_ascii_case(name))
            .map(|&(_, mult)| mult)
            .ok_or_else(|| self.err(format!("unknown timescale unit `{unit}`")))?;
        Ok(num * mult)
    }

    /// Parses a `CELL` form whose keyword is consumed; its interconnects
    /// go to `ics`.
    fn cell(&mut self, ics: &mut Vec<Interconnect>) -> Result<SdfCell> {
        let mut cell = SdfCell::default();
        while self.peek() == Some(Tok::Open) {
            self.next()?;
            let kw = self.atom_or_str()?;
            if kw.eq_ignore_ascii_case("CELLTYPE") {
                cell.celltype = self.atom_or_str()?.into_owned();
                self.expect_close()?;
            } else if kw.eq_ignore_ascii_case("INSTANCE") {
                cell.instance = None;
                if self.peek() != Some(Tok::Close) {
                    let name = self.atom_or_str()?;
                    cell.instance = (name != "*").then(|| name.into_owned());
                }
                self.expect_close()?;
            } else if kw.eq_ignore_ascii_case("DELAY") {
                self.delay_section(ics)?;
            } else {
                self.skip_form()?;
            }
        }
        self.expect_close()?;
        cell.iopaths = self.paths.drain(..).collect();
        Ok(cell)
    }

    fn delay_section(&mut self, ics: &mut Vec<Interconnect>) -> Result<()> {
        while self.peek() == Some(Tok::Open) {
            self.next()?;
            let kw = self.atom_or_str()?;
            let increment = kw.eq_ignore_ascii_case("INCREMENT");
            if increment && self.peek() == Some(Tok::Open) {
                return Err(self.err(
                    "INCREMENT delays add to earlier ones, which is not modelled; \
                     give absolute delays in an ABSOLUTE section",
                ));
            }
            if increment || kw.eq_ignore_ascii_case("ABSOLUTE") {
                self.stmt_list(ics)?;
            } else {
                self.skip_form()?;
            }
        }
        self.expect_close()
    }

    fn stmt_list(&mut self, ics: &mut Vec<Interconnect>) -> Result<()> {
        while self.peek() == Some(Tok::Open) {
            self.next()?;
            if self.at_keyword("IOPATH") {
                self.next()?;
                let p = self.iopath(None)?;
                self.paths.push(p);
            } else if self.at_keyword("COND") {
                self.next()?;
                let cond = self.cond_expr()?;
                // The guarded statement: `cond_expr` stops only before its
                // `( IOPATH`.
                self.next()?;
                self.next()?;
                let p = self.iopath(Some(cond))?;
                self.paths.push(p);
                self.expect_close()?; // close the COND form
            } else if self.at_keyword("INTERCONNECT") {
                self.next()?;
                let from = PortPath::parse(&self.atom_or_str()?);
                let to = PortPath::parse(&self.atom_or_str()?);
                let (rise, fall) = self.rise_fall()?;
                self.expect_close()?;
                ics.push(Interconnect {
                    from,
                    to,
                    rise,
                    fall,
                });
            } else {
                // Unknown statement: we already consumed `(`.
                self.skip_form()?;
            }
        }
        self.expect_close()
    }

    /// Parses the body of an IOPATH whose keyword is already consumed; the
    /// closing `)` of the IOPATH is consumed here.
    fn iopath(&mut self, cond: Option<Cond>) -> Result<IoPath> {
        let (edge, input) = if self.peek() == Some(Tok::Open) {
            self.next()?;
            let kw = self.atom_or_str()?;
            let edge = if kw.eq_ignore_ascii_case("posedge") {
                EdgeSpec::Posedge
            } else if kw.eq_ignore_ascii_case("negedge") {
                EdgeSpec::Negedge
            } else {
                return Err(self.err(format!("expected pos/negedge, found `{kw}`")));
            };
            let pin = self.atom_or_str()?;
            self.expect_close()?;
            (edge, pin)
        } else {
            (EdgeSpec::Both, self.atom_or_str()?)
        };
        let output = self.atom_or_str()?;
        let (rise, fall) = self.rise_fall()?;
        self.expect_close()?;
        Ok(IoPath {
            cond,
            edge,
            input: input.into_owned(),
            output: output.into_owned(),
            rise,
            fall,
        })
    }

    /// Parses a rise triple and an optional fall triple, which defaults to
    /// the rise one.
    fn rise_fall(&mut self) -> Result<(DelayTriple, DelayTriple)> {
        let rise = self.triple()?;
        if self.peek() == Some(Tok::Open) {
            Ok((rise, self.triple()?))
        } else {
            Ok((rise, rise))
        }
    }

    /// Parses a delay triple form: `()`, `(v)`, `(min:typ:max)`.
    fn triple(&mut self) -> Result<DelayTriple> {
        self.expect_open()?;
        let run = self.atom_run()?;
        match self.peek() {
            Some(Tok::Close) => self.next()?,
            other => return Err(self.err(format!("bad delay triple, found {other:?}"))),
        };
        let text = run.unwrap_or(&self.joined);
        if text.is_empty() {
            return Ok(DelayTriple::absent());
        }
        let value = |s: &str| -> Result<Option<f64>> {
            if s.is_empty() {
                Ok(None)
            } else {
                s.parse::<f64>()
                    .map(Some)
                    .map_err(|_| self.err(format!("bad delay value `{s}`")))
            }
        };
        let mut parts = text.split(':');
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(v), None, None, None) => {
                let v = value(v)?;
                Ok(DelayTriple {
                    min: v,
                    typ: v,
                    max: v,
                })
            }
            (Some(mn), Some(ty), Some(mx), None) => Ok(DelayTriple {
                min: value(mn)?,
                typ: value(ty)?,
                max: value(mx)?,
            }),
            _ => Err(self.err(format!("bad delay triple `{text}`"))),
        }
    }

    /// Parses a COND guard expression up to (but not consuming) the `(` that
    /// begins the guarded IOPATH. Accepts `pin===1'b1`, `pin==1'b0`, bare
    /// `pin`, `!pin`, joined with `&&`, with optional parenthesised groups.
    fn cond_expr(&mut self) -> Result<Cond> {
        // The expression's tokens, concatenated with spaces removed.
        let mut text = std::mem::take(&mut self.joined);
        text.clear();
        loop {
            match self.peek() {
                Some(Tok::Open) => {
                    // Either a parenthesised condition group or the start of
                    // the guarded IOPATH.
                    if let Some(Tok::Atom(a)) = self.peek2()? {
                        if a.eq_ignore_ascii_case("IOPATH") {
                            break;
                        }
                    }
                    // Condition group: consume balanced tokens into text.
                    self.next()?;
                    let mut depth = 1;
                    while depth > 0 {
                        match self.next()? {
                            Some(Tok::Open) => depth += 1,
                            Some(Tok::Close) => depth -= 1,
                            Some(Tok::Atom(a)) => text.push_str(a),
                            Some(Tok::Str(s)) => {
                                text.extend(unescape(s).chars().filter(|&c| c != ' '))
                            }
                            None => return Err(self.err("unterminated COND group")),
                        }
                    }
                }
                Some(Tok::Atom(a)) => {
                    self.next()?;
                    text.push_str(a);
                }
                other => return Err(self.err(format!("bad COND expression, found {other:?}"))),
            }
        }
        let cond =
            parse_cond_text(&text).ok_or_else(|| self.err(format!("bad COND expression `{text}`")));
        self.joined = text;
        cond
    }
}

/// Parses condition text with its spaces removed, like
/// `A2===1'b1&&A1===1'b0` or `!EN&&D`.
fn parse_cond_text(text: &str) -> Option<Cond> {
    if text.is_empty() {
        return None;
    }
    let mut terms = Vec::new();
    for raw in text.split("&&") {
        let t = raw.trim();
        if t.is_empty() {
            return None;
        }
        if let Some(eq) = t
            .find("===")
            .map(|i| (i, 3))
            .or_else(|| t.find("==").map(|i| (i, 2)))
        {
            let (pin, rest) = t.split_at(eq.0);
            let val = &rest[eq.1..];
            let v = match val {
                "1'b1" | "1'B1" | "1" => true,
                "1'b0" | "1'B0" | "0" => false,
                _ => return None,
            };
            if pin.is_empty() {
                return None;
            }
            terms.push((pin.to_string(), v));
        } else if let Some(pin) = t.strip_prefix('!') {
            if pin.is_empty() {
                return None;
            }
            terms.push((pin.to_string(), false));
        } else {
            terms.push((t.to_string(), true));
        }
    }
    Some(Cond::new(terms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TripleSelect;

    const PAPER_EXAMPLE: &str = r#"
(DELAYFILE
  (SDFVERSION "3.0")
  (DESIGN "example")
  (TIMESCALE 1ps)
  (CELL
    (CELLTYPE "AOI21")
    (INSTANCE u1)
    (DELAY
      (ABSOLUTE
        (IOPATH (posedge B) Y () (6))
        (IOPATH (negedge B) Y (8) ())
        (COND A2===1'b1&&A1===1'b0 (IOPATH (posedge B) Y () (5)))
        (COND A2===1'b1&&A1===1'b0 (IOPATH (negedge B) Y (7) ()))
      )
    )
  )
)
"#;

    #[test]
    fn parses_paper_fig4_example() {
        let f = SdfFile::parse(PAPER_EXAMPLE).unwrap();
        assert_eq!(f.design, "example");
        assert_eq!(f.cells.len(), 1);
        let c = &f.cells[0];
        assert_eq!(c.celltype, "AOI21");
        assert_eq!(c.instance.as_deref(), Some("u1"));
        assert_eq!(c.iopaths.len(), 4);

        let p0 = &c.iopaths[0];
        assert_eq!(p0.edge, EdgeSpec::Posedge);
        assert!(p0.cond.is_none());
        assert!(p0.rise.is_absent());
        assert_eq!(p0.fall.select(TripleSelect::Typ), Some(6.0));

        let p2 = &c.iopaths[2];
        let cond = p2.cond.as_ref().unwrap();
        assert_eq!(
            cond.terms,
            vec![("A2".to_string(), true), ("A1".to_string(), false)]
        );
        assert_eq!(p2.fall.select(TripleSelect::Typ), Some(5.0));
    }

    #[test]
    fn parses_interconnect() {
        let src = r#"
(DELAYFILE
  (TIMESCALE 1ns)
  (CELL (CELLTYPE "__wire__") (INSTANCE *)
    (DELAY (ABSOLUTE
      (INTERCONNECT u1/Y u2/A (0.1) (0.2))
      (INTERCONNECT top_in u3/B (0.3))
    ))
  )
)
"#;
        let f = SdfFile::parse(src).unwrap();
        assert_eq!(f.timescale_ps, 1000.0);
        assert_eq!(f.interconnects.len(), 2);
        let ic = &f.interconnects[0];
        assert_eq!(ic.from.instance.as_deref(), Some("u1"));
        assert_eq!(ic.to.pin, "A");
        assert_eq!(ic.fall.select(TripleSelect::Typ), Some(0.2));
        // Single triple applies to both edges.
        let ic2 = &f.interconnects[1];
        assert_eq!(ic2.rise, ic2.fall);
        assert!(ic2.from.instance.is_none());
    }

    #[test]
    fn parses_min_typ_max() {
        let src = r#"
(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (1:2:3) (2:3:4))))))
"#;
        let f = SdfFile::parse(src).unwrap();
        let p = &f.cells[0].iopaths[0];
        assert_eq!(p.rise.select(TripleSelect::Min), Some(1.0));
        assert_eq!(p.rise.select(TripleSelect::Typ), Some(2.0));
        assert_eq!(p.fall.select(TripleSelect::Max), Some(4.0));
        assert_eq!(p.edge, EdgeSpec::Both);
    }

    #[test]
    fn single_triple_applies_to_both_transitions() {
        let src = r#"(DELAYFILE (CELL (CELLTYPE "BUF") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (5))))))"#;
        let f = SdfFile::parse(src).unwrap();
        let p = &f.cells[0].iopaths[0];
        assert_eq!(p.rise, p.fall);
        assert_eq!(p.rise.select(TripleSelect::Typ), Some(5.0));
    }

    #[test]
    fn skips_unknown_sections() {
        let src = r#"
(DELAYFILE
  (VENDOR "acme") (PROGRAM "syn") (VERSION "1") (DIVIDER /)
  (VOLTAGE 0.8) (PROCESS "tt") (TEMPERATURE 25)
  (CELL (CELLTYPE "INV") (INSTANCE u)
    (TIMINGCHECK (SETUP d (posedge c) (1)))
    (DELAY (ABSOLUTE (IOPATH A Y (1) (1))))
  )
)
"#;
        let f = SdfFile::parse(src).unwrap();
        assert_eq!(f.cells.len(), 1);
        assert_eq!(f.cells[0].iopaths.len(), 1);
    }

    #[test]
    fn cond_with_spaces_and_parens() {
        let src = r#"(DELAYFILE (CELL (CELLTYPE "X") (INSTANCE u)
  (DELAY (ABSOLUTE
    (COND (A == 1'b1) && !B (IOPATH C Y (2) (2)))
  ))))"#;
        let f = SdfFile::parse(src).unwrap();
        let cond = f.cells[0].iopaths[0].cond.as_ref().unwrap();
        assert_eq!(
            cond.terms,
            vec![("A".to_string(), true), ("B".to_string(), false)]
        );
    }

    #[test]
    fn bare_pin_condition() {
        let src = r#"(DELAYFILE (CELL (CELLTYPE "X") (INSTANCE u)
  (DELAY (ABSOLUTE (COND EN (IOPATH D Y (1) (1))))))
)"#;
        let f = SdfFile::parse(src).unwrap();
        let cond = f.cells[0].iopaths[0].cond.as_ref().unwrap();
        assert_eq!(cond.terms, vec![("EN".to_string(), true)]);
    }

    #[test]
    fn roundtrip_write_parse() {
        let f1 = SdfFile::parse(PAPER_EXAMPLE).unwrap();
        let text = f1.write();
        let f2 = SdfFile::parse(&text).unwrap();
        assert_eq!(f1.cells, f2.cells);
        assert_eq!(f1.design, f2.design);
    }

    #[test]
    fn quoted_names_with_quotes_and_backslashes_round_trip() {
        let mut f1 = SdfFile::parse(PAPER_EXAMPLE).unwrap();
        f1.design = r#"a"b\c"#.to_string();
        f1.cells[0].celltype = r#"AOI"21"#.to_string();
        let text = f1.write();
        let f2 = SdfFile::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert_eq!(f2.design, f1.design);
        assert_eq!(f2.cells, f1.cells);
        // A backslash before any other character is kept as written.
        let f3 = SdfFile::parse(r#"(DELAYFILE (DESIGN "a\n\\\"b"))"#).unwrap();
        assert_eq!(f3.design, r#"a\n\"b"#);
    }

    /// Instance, pin and port names the reader takes as quoted strings are
    /// written quoted, so they read back as they were.
    #[test]
    fn names_that_are_not_atoms_round_trip() {
        let src = r#"(DELAYFILE (TIMESCALE 1ps)
  (CELL (CELLTYPE "__wire__") (INSTANCE *)
    (DELAY (ABSOLUTE (INTERCONNECT "u 1/Y" u2/A (1) (2)))))
  (CELL (CELLTYPE "BUF") (INSTANCE "a b")
    (DELAY (ABSOLUTE
      (IOPATH "A(1)" Y (3) (4))
      (IOPATH (posedge "A(1)") "Y Z" (5) (6))))))"#;
        let f1 = SdfFile::parse(src).unwrap();
        assert_eq!(f1.cells[0].instance.as_deref(), Some("a b"));
        assert_eq!(f1.cells[0].iopaths[0].input, "A(1)");
        assert_eq!(f1.interconnects[0].from.instance.as_deref(), Some("u 1"));
        let text = f1.write();
        let f2 = SdfFile::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert_eq!(f2, f1);
    }

    #[test]
    fn error_on_garbage() {
        assert!(SdfFile::parse("(NOTSDF)").is_err());
        assert!(
            SdfFile::parse("(DELAYFILE (CELL (CELLTYPE \"X\") (DELAY (ABSOLUTE (IOPATH A").is_err()
        );
    }

    #[test]
    fn increment_delays_are_rejected_not_read_as_absolute() {
        let src = "(DELAYFILE (CELL (CELLTYPE \"BUF\") (INSTANCE u)\n  (DELAY (INCREMENT (IOPATH A Y (5) (5))))))";
        match SdfFile::parse(src) {
            Err(SdfError::Parse { line, detail }) => {
                assert_eq!(line, 2);
                assert!(detail.contains("INCREMENT"), "{detail}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn empty_increment_section_is_skipped() {
        let src = r#"(DELAYFILE (CELL (CELLTYPE "BUF") (INSTANCE u)
  (DELAY (INCREMENT) (ABSOLUTE (IOPATH A Y (5))))))"#;
        let f = SdfFile::parse(src).unwrap();
        assert_eq!(f.cells[0].iopaths.len(), 1);
    }

    #[test]
    fn error_lines() {
        for (src, line) in [
            // The line of the token after the offending one...
            ("(DELAYFILE\n(TIMESCALE 1ns\n(CELL))", 3),
            // ...or of the last token at the end of the text.
            ("(DELAYFILE\n(CELL (CELLTYPE \"X\")\n", 2),
            ("", 0),
            // An unterminated string anywhere outranks a syntax error.
            ("(NOTSDF)\n\n\"open", 3),
            ("(DELAYFILE) \"open\n", 2),
        ] {
            match SdfFile::parse(src) {
                Err(SdfError::Parse { line: got, .. }) => assert_eq!(got, line, "{src:?}"),
                other => panic!("{src:?}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn joined_atom_runs_and_string_conditions() {
        let src = r#"(DELAYFILE (TIMESCALE 10 ps) (CELL (CELLTYPE "X") (INSTANCE u)
  (DELAY (ABSOLUTE
    (COND ("A == 1'b1") && !B (IOPATH C Y (1 : 2 : 3) (2)))
  ))))"#;
        let f = SdfFile::parse(src).unwrap();
        assert_eq!(f.timescale_ps, 10.0);
        let p = &f.cells[0].iopaths[0];
        assert_eq!(p.rise.select(TripleSelect::Max), Some(3.0));
        assert_eq!(
            p.cond.as_ref().unwrap().terms,
            vec![("A".to_string(), true), ("B".to_string(), false)]
        );
    }

    #[test]
    fn timescale_variants() {
        for (text, ps) in [
            ("(DELAYFILE (TIMESCALE 1ns))", 1000.0),
            ("(DELAYFILE (TIMESCALE 10 ps))", 10.0),
            ("(DELAYFILE (TIMESCALE 100fs))", 0.1),
        ] {
            let f = SdfFile::parse(text).unwrap();
            assert_eq!(f.timescale_ps, ps, "for {text}");
        }
    }
}
