use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Which value of an SDF `min:typ:max` triple simulations should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TripleSelect {
    /// Minimum corner.
    Min,
    /// Typical corner (default).
    #[default]
    Typ,
    /// Maximum corner.
    Max,
}

/// An SDF delay triple `(min:typ:max)`, `(v)`, or the empty `()`.
///
/// The empty form means "no arc for this transition" — the `∞` entries of
/// Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelayTriple {
    /// Minimum value, if given.
    pub min: Option<f64>,
    /// Typical value, if given.
    pub typ: Option<f64>,
    /// Maximum value, if given.
    pub max: Option<f64>,
}

impl DelayTriple {
    /// A single-valued triple `(v)`.
    pub fn single(v: f64) -> Self {
        DelayTriple {
            min: Some(v),
            typ: Some(v),
            max: Some(v),
        }
    }

    /// The empty `()` — no arc.
    pub fn absent() -> Self {
        DelayTriple::default()
    }

    /// Whether this is the empty `()` form.
    pub fn is_absent(&self) -> bool {
        self.min.is_none() && self.typ.is_none() && self.max.is_none()
    }

    /// Selects a corner, falling back to whichever values are present.
    pub fn select(&self, sel: TripleSelect) -> Option<f64> {
        match sel {
            TripleSelect::Min => self.min.or(self.typ).or(self.max),
            TripleSelect::Typ => self.typ.or(self.min).or(self.max),
            TripleSelect::Max => self.max.or(self.typ).or(self.min),
        }
    }
}

impl fmt::Display for DelayTriple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.min, self.typ, self.max) {
            (None, None, None) => write!(f, "()"),
            (Some(a), Some(b), Some(c)) if a == b && b == c => write!(f, "({a})"),
            _ => {
                let p = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
                write!(f, "({}:{}:{})", p(self.min), p(self.typ), p(self.max))
            }
        }
    }
}

/// Edge qualifier on an IOPATH input: `(posedge B)`, `(negedge B)`, or bare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeSpec {
    /// Applies to both edges (bare pin reference).
    #[default]
    Both,
    /// Rising input transitions only.
    Posedge,
    /// Falling input transitions only.
    Negedge,
}

/// A conjunction of pin-level equality terms, e.g. `A2===1'b1&&A1===1'b0`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cond {
    /// `(pin, required value)` pairs, all of which must hold.
    pub terms: Vec<(String, bool)>,
}

impl Cond {
    /// Builds a condition from terms.
    pub fn new(terms: Vec<(String, bool)>) -> Self {
        Cond { terms }
    }

    /// Whether the condition holds for an assignment function.
    pub fn matches(&self, assign: &impl Fn(&str) -> bool) -> bool {
        self.terms.iter().all(|(pin, v)| assign(pin) == *v)
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (pin, v)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, "&&")?;
            }
            write!(f, "{pin}===1'b{}", u8::from(*v))?;
        }
        Ok(())
    }
}

/// One `(IOPATH ...)` statement, optionally conditioned and edge-qualified.
#[derive(Debug, Clone, PartialEq)]
pub struct IoPath {
    /// `COND` guard, if any.
    pub cond: Option<Cond>,
    /// Edge qualifier on the input pin.
    pub edge: EdgeSpec,
    /// Input pin name.
    pub input: String,
    /// Output pin name.
    pub output: String,
    /// Delay when the output rises.
    pub rise: DelayTriple,
    /// Delay when the output falls.
    pub fall: DelayTriple,
}

/// A `(CELL ...)` entry: delays for one instance (or all instances of a
/// cell type when `instance` is `None`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SdfCell {
    /// `CELLTYPE` string.
    pub celltype: String,
    /// `INSTANCE` path; `None` or `"*"` applies to every instance of the
    /// cell type.
    pub instance: Option<String>,
    /// IOPATH delay statements.
    pub iopaths: Vec<IoPath>,
}

/// A hierarchical port path `instance/PIN` (or a bare top-level port name).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PortPath {
    /// Instance name, if the port is on an instance.
    pub instance: Option<String>,
    /// Pin/port name.
    pub pin: String,
}

impl PortPath {
    /// Parses `u1/Y` or `portname`.
    pub fn parse(s: &str) -> Self {
        match s.rsplit_once('/') {
            Some((inst, pin)) => PortPath {
                instance: Some(inst.to_string()),
                pin: pin.to_string(),
            },
            None => PortPath {
                instance: None,
                pin: s.to_string(),
            },
        }
    }
}

impl fmt::Display for PortPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.instance {
            Some(i) => write!(f, "{i}/{}", self.pin),
            None => write!(f, "{}", self.pin),
        }
    }
}

/// One `(INTERCONNECT src dst (rise) (fall))` wire-delay statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Interconnect {
    /// Driving port (gate output or top-level input).
    pub from: PortPath,
    /// Receiving port (gate input or top-level output).
    pub to: PortPath,
    /// Rise delay of the wire.
    pub rise: DelayTriple,
    /// Fall delay of the wire.
    pub fall: DelayTriple,
}

/// A parsed SDF delay file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SdfFile {
    /// `DESIGN` header string.
    pub design: String,
    /// `TIMESCALE` in picoseconds per SDF unit (e.g. `1ns` ⇒ 1000).
    pub timescale_ps: f64,
    /// Per-cell delay entries.
    pub cells: Vec<SdfCell>,
    /// Interconnect (wire) delays.
    pub interconnects: Vec<Interconnect>,
}

impl SdfFile {
    /// Creates an empty file with a 1ps timescale.
    pub fn new(design: impl Into<String>) -> Self {
        SdfFile {
            design: design.into(),
            timescale_ps: 1.0,
            cells: Vec::new(),
            interconnects: Vec::new(),
        }
    }

    /// Parses SDF text. See [`crate::SdfError::Parse`] for failure modes.
    ///
    /// # Errors
    ///
    /// Returns a parse error with line information on malformed input, and
    /// on an `INCREMENT` section that holds a statement: only absolute
    /// delays are modelled.
    pub fn parse(src: &str) -> crate::Result<Self> {
        crate::parser::parse(src)
    }

    /// Serialises back to SDF text (a canonical subset that [`SdfFile::parse`]
    /// round-trips).
    pub fn write(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "(DELAYFILE");
        let _ = writeln!(out, "  (SDFVERSION \"3.0\")");
        let _ = writeln!(out, "  (DESIGN \"{}\")", escape(&self.design));
        let _ = writeln!(out, "  (TIMESCALE {}ps)", self.timescale_ps);
        for ic in &self.interconnects {
            let _ = writeln!(out, "  (CELL");
            let _ = writeln!(out, "    (CELLTYPE \"__wire__\")");
            let _ = writeln!(out, "    (INSTANCE *)");
            let _ = writeln!(out, "    (DELAY (ABSOLUTE");
            let _ = writeln!(
                out,
                "      (INTERCONNECT {} {} {} {})",
                name(&ic.from.to_string()),
                name(&ic.to.to_string()),
                ic.rise,
                ic.fall
            );
            let _ = writeln!(out, "    ))");
            let _ = writeln!(out, "  )");
        }
        for cell in &self.cells {
            let _ = writeln!(out, "  (CELL");
            let _ = writeln!(out, "    (CELLTYPE \"{}\")", escape(&cell.celltype));
            match &cell.instance {
                Some(i) => {
                    let _ = writeln!(out, "    (INSTANCE {})", name(i));
                }
                None => {
                    let _ = writeln!(out, "    (INSTANCE *)");
                }
            }
            let _ = writeln!(out, "    (DELAY (ABSOLUTE");
            for p in &cell.iopaths {
                let inner = {
                    let input = name(&p.input);
                    let pin = match p.edge {
                        EdgeSpec::Both => input.into_owned(),
                        EdgeSpec::Posedge => format!("(posedge {input})"),
                        EdgeSpec::Negedge => format!("(negedge {input})"),
                    };
                    let output = name(&p.output);
                    format!("(IOPATH {pin} {output} {} {})", p.rise, p.fall)
                };
                match &p.cond {
                    Some(c) => {
                        let _ = writeln!(out, "      (COND {c} {inner})");
                    }
                    None => {
                        let _ = writeln!(out, "      {inner}");
                    }
                }
            }
            let _ = writeln!(out, "    ))");
            let _ = writeln!(out, "  )");
        }
        let _ = writeln!(out, ")");
        out
    }
}

/// `s` as an SDF name: a bare atom when it reads back as one (non-empty,
/// with no whitespace, `(`, `)` or `"`, and not opening a `//` comment),
/// else a quoted string.
fn name(s: &str) -> Cow<'_, str> {
    let special = |c: char| c.is_ascii_whitespace() || matches!(c, '(' | ')' | '"');
    if s.is_empty() || s.starts_with("//") || s.contains(special) {
        return Cow::Owned(format!("\"{}\"", escape(s)));
    }
    Cow::Borrowed(s)
}

/// `s` with `\` and `"` escaped by a backslash, for a quoted SDF string;
/// borrows when there is nothing to escape.
fn escape(s: &str) -> Cow<'_, str> {
    if !s.contains(['\\', '"']) {
        return Cow::Borrowed(s);
    }
    Cow::Owned(s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_selection() {
        let t = DelayTriple {
            min: Some(1.0),
            typ: Some(2.0),
            max: Some(3.0),
        };
        assert_eq!(t.select(TripleSelect::Min), Some(1.0));
        assert_eq!(t.select(TripleSelect::Typ), Some(2.0));
        assert_eq!(t.select(TripleSelect::Max), Some(3.0));
        let partial = DelayTriple {
            min: None,
            typ: None,
            max: Some(5.0),
        };
        assert_eq!(partial.select(TripleSelect::Typ), Some(5.0));
        assert!(DelayTriple::absent().select(TripleSelect::Typ).is_none());
    }

    #[test]
    fn triple_display() {
        assert_eq!(DelayTriple::single(6.0).to_string(), "(6)");
        assert_eq!(DelayTriple::absent().to_string(), "()");
        let t = DelayTriple {
            min: Some(1.0),
            typ: Some(2.0),
            max: Some(3.0),
        };
        assert_eq!(t.to_string(), "(1:2:3)");
    }

    #[test]
    fn cond_matching() {
        let c = Cond::new(vec![("A2".into(), true), ("A1".into(), false)]);
        assert!(c.matches(&|p| p == "A2"));
        assert!(!c.matches(&|_| true));
        assert_eq!(c.to_string(), "A2===1'b1&&A1===1'b0");
    }

    #[test]
    fn port_path_parse() {
        let p = PortPath::parse("u1/Y");
        assert_eq!(p.instance.as_deref(), Some("u1"));
        assert_eq!(p.pin, "Y");
        let q = PortPath::parse("clk");
        assert!(q.instance.is_none());
        // Hierarchical instance paths keep everything before the last slash.
        let h = PortPath::parse("top/u2/A");
        assert_eq!(h.instance.as_deref(), Some("top/u2"));
    }
}
