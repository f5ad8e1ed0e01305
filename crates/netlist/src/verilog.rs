//! Structural-Verilog subset reader and writer (the paper's `Netlist.gv`).
//!
//! The supported subset is what gate-level netlists emitted by synthesis
//! tools actually use:
//!
//! * one `module` per file, scalar or vector ports (`input [31:0] a;`),
//! * `wire` declarations (scalar or vector),
//! * cell instantiations with named (`.A(n1)`) or positional connections,
//! * `1'b0` / `1'b1` literals on input pins (tied via TIELO/TIEHI),
//! * `//` line comments and `/* */` block comments.
//!
//! Vector declarations are bit-blasted into scalar nets named `bus[i]`,
//! matching how the flat simulator addresses signals. A range bound must
//! fit `i64`, and a module's declarations may expand to at most
//! `u32::MAX` nets; both are checked before any name is built.
//!
//! The reader makes one pass over the bytes: a cursor lexer hands out
//! tokens borrowed from the text, and the module is staged as borrowed
//! slices until every declaration is known.

use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

use crate::{CellLibrary, NetId, Netlist, NetlistBuilder, NetlistError, Result};

/// Parses a structural Verilog module into a [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::VerilogParse`] (with a line number) on syntax the
/// subset does not cover, on a range bound past `i64` and on declarations
/// that expand past `u32::MAX` nets, and the usual builder errors for
/// semantic issues (unknown cells, double drivers, ...).
///
/// # Example
///
/// ```
/// use gatspi_netlist::{verilog, CellLibrary};
///
/// # fn main() -> Result<(), gatspi_netlist::NetlistError> {
/// let src = r#"
/// module tiny (a, b, y);
///   input a, b;
///   output y;
///   wire n1;
///   NAND2 u1 (.A(a), .B(b), .Y(n1));
///   INV u2 (.A(n1), .Y(y));
/// endmodule
/// "#;
/// let netlist = verilog::parse(src, CellLibrary::industry_mini())?;
/// assert_eq!(netlist.gate_count(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str, library: impl Into<Arc<CellLibrary>>) -> Result<Netlist> {
    Parser::new(src, library.into())?.run()
}

/// Serialises a netlist back to structural Verilog.
///
/// Round-trips with [`parse`] (scalar nets; vectors are emitted bit-blasted,
/// with bracketed names escaped Verilog-style). Any name that is not a
/// simple identifier — the module's too — is written as an escaped
/// identifier; [`crate::NetlistBuilder`] refuses the names that cannot be,
/// an empty one or one that holds whitespace.
pub fn write(netlist: &Netlist) -> String {
    let mut out = String::new();
    let escape = |name: &str| -> String {
        if name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
            && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            name.to_string()
        } else {
            // Verilog escaped identifier: backslash prefix, space terminator.
            format!("\\{name} ")
        }
    };
    let ports: Vec<String> = netlist
        .primary_inputs()
        .iter()
        .chain(netlist.primary_outputs().iter())
        .map(|&n| escape(netlist.net(n).name()))
        .collect();
    let _ = writeln!(
        out,
        "module {} ({});",
        escape(netlist.name()),
        ports.join(", ")
    );
    for &n in netlist.primary_inputs() {
        let _ = writeln!(out, "  input {};", escape(netlist.net(n).name()));
    }
    for &n in netlist.primary_outputs() {
        let _ = writeln!(out, "  output {};", escape(netlist.net(n).name()));
    }
    for (_, net) in netlist.nets() {
        if !net.is_primary_input() && !net.is_primary_output() {
            let _ = writeln!(out, "  wire {};", escape(net.name()));
        }
    }
    for (_, gate) in netlist.gates() {
        let cell = netlist.library().cell(gate.cell());
        let mut conns: Vec<String> = gate
            .inputs()
            .iter()
            .zip(cell.input_pins())
            .map(|(&net, pin)| format!(".{}({})", pin, escape(netlist.net(net).name())))
            .collect();
        conns.push(format!(
            ".{}({})",
            cell.output_pin(),
            escape(netlist.net(gate.output()).name())
        ));
        let _ = writeln!(
            out,
            "  {} {} ({});",
            cell.name(),
            escape(gate.name()),
            conns.join(", ")
        );
    }
    let _ = writeln!(out, "endmodule");
    out
}

/// A token borrowed from the source text.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Sym(char),
    Number(u64),
    /// `1'b0` / `1'b1` style literal (value of the single bit).
    BitLiteral(bool),
}

/// A cursor over the source bytes that yields one borrowed token at a time.
#[derive(Clone, Copy)]
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    /// Line of `pos`, 1-based.
    line: usize,
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'$'
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, detail: impl Into<String>) -> NetlistError {
        NetlistError::VerilogParse {
            line: self.line,
            detail: detail.into(),
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
    /// line; `None` at the end of the text.
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
                    self.pos = self.scan(start, |c| c != b'\n')
                }
                b'/' if b.get(start + 1) == Some(&b'*') => {
                    // To the closing `*/`, or to the end of an unclosed one.
                    let body = &b[start + 2..];
                    let end = body
                        .windows(2)
                        .position(|w| w == b"*/")
                        .map_or(b.len(), |k| start + 4 + k);
                    self.line += b[start..end].iter().filter(|&&c| c == b'\n').count();
                    self.pos = end;
                }
                b'\\' => {
                    // Escaped identifier: up to whitespace.
                    self.pos = self.scan(start + 1, |c| !c.is_ascii_whitespace());
                    let name = self.text(start + 1, self.pos)?;
                    return Ok(Some((Tok::Ident(name), self.line)));
                }
                _ if c.is_ascii_alphabetic() || c == b'_' || c == b'$' => {
                    self.pos = self.scan(start, is_ident_byte);
                    let name = self.text(start, self.pos)?;
                    return Ok(Some((Tok::Ident(name), self.line)));
                }
                _ if c.is_ascii_digit() => {
                    let end = self.scan(start, |c| c.is_ascii_digit());
                    // Sized literal? e.g. 1'b0 / 1'b1.
                    if b.get(end) == Some(&b'\'') {
                        if b.get(end + 1).map(|&c| c | 0x20) != Some(b'b') {
                            return Err(self.err("unsupported sized literal base"));
                        }
                        let v = match b.get(end + 2) {
                            Some(b'0') => false,
                            Some(b'1') => true,
                            _ => return Err(self.err("only 1'b0 / 1'b1 literals supported")),
                        };
                        self.pos = end + 3;
                        return Ok(Some((Tok::BitLiteral(v), self.line)));
                    }
                    let n = self
                        .text(start, end)?
                        .parse()
                        .map_err(|_| self.err("number too large"))?;
                    self.pos = end;
                    return Ok(Some((Tok::Number(n), self.line)));
                }
                b'(' | b')' | b'[' | b']' | b',' | b';' | b'.' | b':' => {
                    self.pos += 1;
                    return Ok(Some((Tok::Sym(char::from(c)), self.line)));
                }
                _ => {
                    return Err(self.err(format!(
                        "unexpected character `{}`",
                        char::from(c).escape_default()
                    )))
                }
            }
        }
        Ok(None)
    }
}

/// A net reference as written: `name`, `name[idx]` or `1'b0/1`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NetRef<'a> {
    Net { name: &'a str, bit: Option<u64> },
    Const(bool),
}

/// One connection of an instance; `pin` is `None` for a positional one.
#[derive(Debug, Clone, Copy)]
struct Conn<'a> {
    pin: Option<&'a str>,
    net: NetRef<'a>,
}

/// A declared name with its optional `[msb:lsb]` range.
#[derive(Debug, Clone, Copy)]
struct Decl<'a> {
    name: &'a str,
    range: Option<(i64, i64)>,
}

impl Decl<'_> {
    /// Calls `f` with each scalar net name, msb first; vector bits are
    /// spelled `name[i]` in `buf`.
    fn each_bit(&self, buf: &mut String, mut f: impl FnMut(&str) -> Result<()>) -> Result<()> {
        let Some((msb, lsb)) = self.range else {
            return f(self.name);
        };
        let step = if msb >= lsb { -1 } else { 1 };
        let mut i = msb;
        loop {
            buf.clear();
            let _ = write!(buf, "{}[{i}]", self.name);
            f(buf)?;
            if i == lsb {
                return Ok(());
            }
            i += step;
        }
    }
}

/// A cell instance, its connections staged in [`Parser::conns`].
#[derive(Debug)]
struct Inst<'a> {
    cell: &'a str,
    name: &'a str,
    conns: Range<usize>,
}

/// Most scalar nets the declarations of one module may expand to: the
/// `u32` id space, less the one value ids never take.
const MAX_DECLARED_BITS: u64 = u32::MAX as u64;

/// The module is read in one pass and staged as borrowed slices, because a
/// declaration may follow the instance that uses it; [`Parser::run`] then
/// declares every net (inputs, then outputs, then wires) and adds the
/// instances in source order.
struct Parser<'a> {
    lex: Lexer<'a>,
    /// The next token and its line; `None` at the end of the text.
    cur: Option<(Tok<'a>, usize)>,
    library: Arc<CellLibrary>,
    inputs: Vec<Decl<'a>>,
    outputs: Vec<Decl<'a>>,
    wires: Vec<Decl<'a>>,
    /// Scalar nets the declarations so far expand to.
    declared_bits: u64,
    insts: Vec<Inst<'a>>,
    conns: Vec<Conn<'a>>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, library: Arc<CellLibrary>) -> Result<Self> {
        let mut lex = Lexer::new(src);
        let cur = lex.next_token()?;
        Ok(Parser {
            lex,
            cur,
            library,
            inputs: Vec::new(),
            outputs: Vec::new(),
            wires: Vec::new(),
            declared_bits: 0,
            insts: Vec::new(),
            conns: Vec::new(),
        })
    }

    /// Line of the next token; at the end of the text, its line count.
    fn line(&self) -> usize {
        match self.cur {
            Some((_, line)) => line,
            // The lexer has counted every newline; a final one ends the
            // last line rather than starting another.
            None if self.lex.src.ends_with('\n') => self.lex.line - 1,
            None => self.lex.line,
        }
    }

    /// A syntax error at the next token. A lexical error anywhere in the
    /// text outranks it, so which error a text gets does not depend on how
    /// far parsing reached.
    fn err(&self, detail: impl Into<String>) -> NetlistError {
        let mut rest = self.lex;
        loop {
            match rest.next_token() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => return e,
            }
        }
        NetlistError::VerilogParse {
            line: self.line(),
            detail: detail.into(),
        }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.cur.map(|(t, _)| t)
    }

    fn next(&mut self) -> Result<Option<Tok<'a>>> {
        let t = self.peek();
        if t.is_some() {
            self.cur = self.lex.next_token()?;
        }
        Ok(t)
    }

    fn expect_sym(&mut self, c: char) -> Result<()> {
        match self.next()? {
            Some(Tok::Sym(s)) if s == c => Ok(()),
            other => Err(self.err(format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str> {
        match self.next()? {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.next()? {
            Some(Tok::Ident(s)) if s == kw => Ok(()),
            other => Err(self.err(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    /// A range bound: a number that fits `i64`.
    fn bound(&mut self, which: &str) -> Result<i64> {
        match self.next()? {
            Some(Tok::Number(n)) => {
                i64::try_from(n).map_err(|_| self.err(format!("{which} {n} exceeds i64")))
            }
            other => Err(self.err(format!("expected {which} number, found {other:?}"))),
        }
    }

    /// Parses a declaration range `[msb:lsb]` if present (before names).
    fn opt_range(&mut self) -> Result<Option<(i64, i64)>> {
        if self.peek() != Some(Tok::Sym('[')) {
            return Ok(None);
        }
        self.next()?;
        let msb = self.bound("msb")?;
        self.expect_sym(':')?;
        let lsb = self.bound("lsb")?;
        self.expect_sym(']')?;
        Ok(Some((msb, lsb)))
    }

    /// Stages the declaration of `name` as an `input`, `output` or `wire`,
    /// refusing declarations that expand past the net id space.
    fn declare(&mut self, dir: &str, name: &'a str, range: Option<(i64, i64)>) -> Result<()> {
        let bits = range.map_or(1, |(msb, lsb)| msb.abs_diff(lsb) + 1);
        self.declared_bits = self.declared_bits.saturating_add(bits);
        if self.declared_bits > MAX_DECLARED_BITS {
            return Err(self.err(format!(
                "`{name}` takes the declarations past {MAX_DECLARED_BITS} nets"
            )));
        }
        let decl = Decl { name, range };
        match dir {
            "input" => self.inputs.push(decl),
            "output" => self.outputs.push(decl),
            _ => self.wires.push(decl),
        }
        Ok(())
    }

    /// Parses a net reference: `name` or `name[idx]` or `1'b0/1`.
    fn net_ref(&mut self) -> Result<NetRef<'a>> {
        match self.next()? {
            Some(Tok::BitLiteral(v)) => Ok(NetRef::Const(v)),
            Some(Tok::Ident(name)) => {
                if self.peek() != Some(Tok::Sym('[')) {
                    return Ok(NetRef::Net { name, bit: None });
                }
                self.next()?;
                let idx = match self.next()? {
                    Some(Tok::Number(n)) => n,
                    other => return Err(self.err(format!("expected bit index, found {other:?}"))),
                };
                self.expect_sym(']')?;
                Ok(NetRef::Net {
                    name,
                    bit: Some(idx),
                })
            }
            other => Err(self.err(format!("expected net reference, found {other:?}"))),
        }
    }

    /// Parses the module into the staging lists and returns its name.
    fn stage(&mut self) -> Result<&'a str> {
        self.expect_keyword("module")?;
        let mod_name = self.expect_ident()?;
        // Port list: names only; direction comes from the declarations.
        self.expect_sym('(')?;
        if self.peek() == Some(Tok::Sym(')')) {
            self.next()?;
        } else {
            loop {
                // Tolerate ANSI-style `input [3:0] a` in the port list.
                let dir = match self.peek() {
                    Some(Tok::Ident(w @ ("input" | "output" | "wire"))) => {
                        self.next()?;
                        Some(w)
                    }
                    _ => None,
                };
                let range = self.opt_range()?;
                let name = self.expect_ident()?;
                if let Some(dir) = dir {
                    self.declare(dir, name, range)?;
                }
                match self.next()? {
                    Some(Tok::Sym(',')) => continue,
                    Some(Tok::Sym(')')) => break,
                    other => return Err(self.err(format!("expected `,` or `)`, found {other:?}"))),
                }
            }
        }
        self.expect_sym(';')?;

        loop {
            let kw = match self.peek() {
                Some(Tok::Ident(s)) => s,
                other => return Err(self.err(format!("expected statement, found {other:?}"))),
            };
            self.next()?;
            if kw == "endmodule" {
                break;
            }
            if let dir @ ("input" | "output" | "wire") = kw {
                let range = self.opt_range()?;
                loop {
                    let name = self.expect_ident()?;
                    self.declare(dir, name, range)?;
                    match self.next()? {
                        Some(Tok::Sym(',')) => continue,
                        Some(Tok::Sym(';')) => break,
                        other => {
                            return Err(self.err(format!("expected `,` or `;`, found {other:?}")))
                        }
                    }
                }
                continue;
            }
            // Cell instantiation.
            let name = self.expect_ident()?;
            self.expect_sym('(')?;
            let first = self.conns.len();
            if self.peek() == Some(Tok::Sym(')')) {
                self.next()?;
            } else {
                loop {
                    let conn = if self.peek() == Some(Tok::Sym('.')) {
                        self.next()?;
                        let pin = self.expect_ident()?;
                        self.expect_sym('(')?;
                        let net = self.net_ref()?;
                        self.expect_sym(')')?;
                        Conn {
                            pin: Some(pin),
                            net,
                        }
                    } else {
                        Conn {
                            pin: None,
                            net: self.net_ref()?,
                        }
                    };
                    self.conns.push(conn);
                    match self.next()? {
                        Some(Tok::Sym(',')) => continue,
                        Some(Tok::Sym(')')) => break,
                        other => {
                            return Err(self.err(format!("expected `,` or `)`, found {other:?}")))
                        }
                    }
                }
            }
            self.expect_sym(';')?;
            self.insts.push(Inst {
                cell: kw,
                name,
                conns: first..self.conns.len(),
            });
        }
        // Text after `endmodule` is ignored, but it must still lex.
        while self.next()?.is_some() {}
        Ok(mod_name)
    }

    fn run(mut self) -> Result<Netlist> {
        let mod_name = self.stage()?;
        let mut builder = NetlistBuilder::new(mod_name, Arc::clone(&self.library));
        let mut buf = String::new();
        for d in &self.inputs {
            d.each_bit(&mut buf, |n| builder.add_input(n).map(drop))?;
        }
        for d in &self.outputs {
            d.each_bit(&mut buf, |n| builder.add_output(n).map(drop))?;
        }
        for d in &self.wires {
            d.each_bit(&mut buf, |n| {
                if builder.find_net(n).is_none() {
                    builder.add_net(n)?;
                }
                Ok(())
            })?;
        }

        // Constant literals are tied through shared TIELO/TIEHI cells.
        let mut tie_nets: [Option<NetId>; 2] = [None, None];
        let mut tie_count = 0usize;
        let mut slots: Vec<Option<NetRef<'a>>> = Vec::new();
        let mut input_ids = Vec::new();

        for inst in &self.insts {
            let (cell, name) = (inst.cell, inst.name);
            let pin_mismatch = |detail: String| NetlistError::PinMismatch {
                gate: name.to_string(),
                cell: cell.to_string(),
                detail,
            };
            let cell_id = self
                .library
                .find(cell)
                .ok_or_else(|| NetlistError::UnknownName {
                    kind: "cell",
                    name: cell.to_string(),
                })?;
            let cell_def = self.library.cell(cell_id);
            let n_in = cell_def.num_inputs();

            // Pin slots: inputs in cell pin order, then the output.
            slots.clear();
            slots.resize(n_in + 1, None);
            let conns = &self.conns[inst.conns.clone()];
            let named = conns.iter().filter(|c| c.pin.is_some()).count();
            if named == 0 {
                if conns.len() != slots.len() {
                    return Err(pin_mismatch(format!(
                        "{} connections for {} pins",
                        conns.len(),
                        slots.len()
                    )));
                }
                // Positional order follows the cell definition: inputs,
                // then the output.
                for (slot, c) in slots.iter_mut().zip(conns) {
                    *slot = Some(c.net);
                }
            } else if named < conns.len() {
                return Err(self.err(format!(
                    "instance `{name}` mixes named and positional connections"
                )));
            } else {
                for (pin, net) in conns.iter().filter_map(|c| Some((c.pin?, c.net))) {
                    let slot = if pin == cell_def.output_pin() {
                        n_in
                    } else {
                        cell_def
                            .input_index(pin)
                            .ok_or_else(|| pin_mismatch(format!("no pin `{pin}`")))?
                    };
                    if slots[slot].replace(net).is_some() {
                        return Err(pin_mismatch(format!("pin `{pin}` connected twice")));
                    }
                }
            }

            input_ids.clear();
            for (i, r) in slots[..n_in].iter().enumerate() {
                let r = r.ok_or_else(|| {
                    pin_mismatch(format!(
                        "input pin `{}` unconnected",
                        cell_def.input_pins()[i]
                    ))
                })?;
                let id = match r {
                    NetRef::Net { name, bit } => find_net(&builder, name, bit, &mut buf)?,
                    NetRef::Const(v) => match tie_nets[usize::from(v)] {
                        Some(id) => id,
                        None => {
                            let net = format!("__tie{}__{tie_count}", u8::from(v));
                            tie_count += 1;
                            let id = builder.add_net(&net)?;
                            let tie = if v { "TIEHI" } else { "TIELO" };
                            builder.add_gate(&format!("__u_{net}"), tie, &[], id)?;
                            tie_nets[usize::from(v)] = Some(id);
                            id
                        }
                    },
                };
                input_ids.push(id);
            }
            let out_id = match slots[n_in] {
                None => return Err(pin_mismatch("output pin unconnected".to_string())),
                Some(NetRef::Const(_)) => {
                    return Err(pin_mismatch("output pin tied to a constant".to_string()))
                }
                Some(NetRef::Net { name, bit }) => find_net(&builder, name, bit, &mut buf)?,
            };
            builder.add_gate_by_id(name, cell_id, &input_ids, out_id)?;
        }

        builder.finish()
    }
}

/// Resolves `name` or, with a bit select, `name[bit]` spelled in `buf`.
fn find_net(
    builder: &NetlistBuilder,
    name: &str,
    bit: Option<u64>,
    buf: &mut String,
) -> Result<NetId> {
    let name = match bit {
        Some(bit) => {
            buf.clear();
            let _ = write!(buf, "{name}[{bit}]");
            buf.as_str()
        }
        None => name,
    };
    builder
        .find_net(name)
        .ok_or_else(|| NetlistError::UnknownName {
            kind: "net",
            name: name.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellLibrary;

    fn lib() -> CellLibrary {
        CellLibrary::industry_mini()
    }

    #[test]
    fn parse_simple_module() {
        let src = r#"
// A tiny design.
module tiny (a, b, y);
  input a, b;
  output y;
  wire n1;
  NAND2 u1 (.A(a), .B(b), .Y(n1));
  INV u2 (.A(n1), .Y(y));
endmodule
"#;
        let n = parse(src, lib()).unwrap();
        assert_eq!(n.name(), "tiny");
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.primary_inputs().len(), 2);
        assert_eq!(n.primary_outputs().len(), 1);
        n.validate().unwrap();
    }

    #[test]
    fn parse_vector_ports() {
        let src = r#"
module vec (input [1:0] a, output [1:0] y);
  INV u0 (.A(a[0]), .Y(y[0]));
  INV u1 (.A(a[1]), .Y(y[1]));
endmodule
"#;
        let n = parse(src, lib()).unwrap();
        assert_eq!(n.primary_inputs().len(), 2);
        assert!(n.find_net("a[0]").is_some());
        assert!(n.find_net("y[1]").is_some());
    }

    #[test]
    fn parse_vector_wire_decl() {
        let src = r#"
module vw (a, y);
  input a;
  output y;
  wire [1:0] t;
  INV u0 (.A(a), .Y(t[0]));
  BUF u1 (.A(t[0]), .Y(t[1]));
  BUF u2 (.A(t[1]), .Y(y));
endmodule
"#;
        let n = parse(src, lib()).unwrap();
        assert_eq!(n.gate_count(), 3);
        n.validate().unwrap();
    }

    #[test]
    fn parse_constants_create_ties() {
        let src = r#"
module c (a, y);
  input a;
  output y;
  AND2 u1 (.A(a), .B(1'b1), .Y(y));
endmodule
"#;
        let n = parse(src, lib()).unwrap();
        // AND2 plus a TIEHI.
        assert_eq!(n.gate_count(), 2);
        n.validate().unwrap();
    }

    #[test]
    fn shared_tie_nets() {
        let src = r#"
module c2 (a, y, z);
  input a;
  output y, z;
  AND2 u1 (.A(a), .B(1'b1), .Y(y));
  OR2 u2 (.A(a), .B(1'b1), .Y(z));
endmodule
"#;
        let n = parse(src, lib()).unwrap();
        // Two logic gates + exactly one shared TIEHI.
        assert_eq!(n.gate_count(), 3);
    }

    #[test]
    fn block_comments_and_escaped_ids() {
        let src = "module m (a, y); /* ports\n  across lines */ input a; output y;\n  INV \\u$1! (.A(a), .Y(y));\nendmodule\n";
        let n = parse(src, lib()).unwrap();
        assert!(n.find_gate("u$1!").is_some());
    }

    #[test]
    fn unknown_cell_reported() {
        let src = "module m (a, y); input a; output y; BOGUS u (.A(a), .Y(y)); endmodule";
        assert!(matches!(
            parse(src, lib()),
            Err(NetlistError::UnknownName { .. })
        ));
    }

    #[test]
    fn unknown_pin_reported() {
        let src = "module m (a, y); input a; output y; INV u (.Q(a), .Y(y)); endmodule";
        assert!(matches!(
            parse(src, lib()),
            Err(NetlistError::PinMismatch { .. })
        ));
    }

    #[test]
    fn syntax_error_has_line_number() {
        let src = "module m (a y);\nendmodule";
        match parse(src, lib()) {
            Err(NetlistError::VerilogParse { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_write_parse() {
        let src = r#"
module rt (a, b, y);
  input a, b;
  output y;
  wire n1, n2;
  XOR2 u1 (.A(a), .B(b), .Y(n1));
  AOI21 u2 (.A1(a), .A2(b), .B(n1), .Y(n2));
  INV u3 (.A(n2), .Y(y));
endmodule
"#;
        let n1 = parse(src, lib()).unwrap();
        let text = write(&n1);
        let n2 = parse(&text, lib()).unwrap();
        assert_eq!(n1.gate_count(), n2.gate_count());
        assert_eq!(n1.net_count(), n2.net_count());
        for (_, g) in n1.gates() {
            let g2 = n2.find_gate(g.name()).expect("gate preserved");
            assert_eq!(n2.gate(g2).cell(), g.cell());
        }
    }

    /// Names that are not simple identifiers — a digit first, a bracket, a
    /// dot, a slash, a quote — are written escaped and read back verbatim,
    /// the module's included.
    #[test]
    fn escaped_names_round_trip() {
        let mut b = crate::NetlistBuilder::new("top.v2", lib());
        let a = b.add_input("1a").unwrap();
        let c = b.add_input("bus[3]").unwrap();
        let n = b.add_net("core/n\"1").unwrap();
        let y = b.add_output("y-out").unwrap();
        b.add_gate("u/x[0]", "NAND2", &[a, c], n).unwrap();
        b.add_gate("$u2", "INV", &[n], y).unwrap();
        let n1 = b.finish().unwrap();
        let text = write(&n1);
        assert!(text.starts_with("module \\top.v2  ("), "{text}");
        let n2 = parse(&text, lib()).unwrap();
        assert_eq!(n2.name(), "top.v2");
        for name in ["1a", "bus[3]", "core/n\"1", "y-out"] {
            assert!(n2.find_net(name).is_some(), "net {name}");
        }
        for name in ["u/x[0]", "$u2"] {
            assert!(n2.find_gate(name).is_some(), "gate {name}");
        }
        assert_eq!(write(&n2), text, "a second round trip changes nothing");
    }

    #[test]
    fn positional_connections() {
        // Positional follows cell pin order: inputs then output.
        let src = "module m (a, b, y); input a, b; output y; NAND2 u (a, b, y); endmodule";
        let n = parse(src, lib()).unwrap();
        let g = n.gate(n.find_gate("u").unwrap());
        assert_eq!(n.net(g.output()).name(), "y");
    }

    #[test]
    fn bound_past_i64_is_a_parse_error() {
        // u64::MAX would wrap to -1 as an i64 bound.
        let src = "module m (a);\n  input [18446744073709551615:0] a;\nendmodule";
        match parse(src, lib()) {
            Err(NetlistError::VerilogParse { line, detail }) => {
                assert_eq!(line, 2);
                assert!(detail.contains("exceeds i64"), "{detail}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn declarations_past_the_net_id_space_are_refused_before_expansion() {
        // Each would build billions of names if expanded.
        for decl in [
            "input [4294967295:0] a;",
            "input [9223372036854775807:0] a;",
            "input [0:4294967296] a;",
            "wire [2147483647:0] a, b;",
        ] {
            let src = format!("module m (a);\n  {decl}\nendmodule");
            match parse(&src, lib()) {
                Err(NetlistError::VerilogParse { line, detail }) => {
                    assert_eq!(line, 2, "{decl}");
                    assert!(detail.contains("nets"), "{decl}: {detail}");
                }
                other => panic!("{decl}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn declarations_may_follow_their_use() {
        let src = "module m (a, y);\n  input a;\n  INV u (.A(a), .Y(n));\n  \
                   BUF v (.A(n), .Y(y));\n  output y;\n  wire n;\nendmodule\n";
        let n = parse(src, lib()).unwrap();
        assert_eq!(n.gate_count(), 2);
        let names: Vec<&str> = n.nets().map(|(_, net)| net.name()).collect();
        assert_eq!(names, ["a", "y", "n"], "inputs, then outputs, then wires");
    }

    #[test]
    fn error_at_end_of_text_reports_the_last_line() {
        for (src, line) in [
            ("module m (a);\n  input a;\n", 2),
            ("module m (a);\n  input a;", 2),
            ("module m (a);\n  input a;\n\n", 3),
            ("", 1),
        ] {
            match parse(src, lib()) {
                Err(NetlistError::VerilogParse { line: got, .. }) => {
                    assert_eq!(got, line, "{src:?}")
                }
                other => panic!("{src:?}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_lexical_error_outranks_an_earlier_syntax_error() {
        let src = "module m (a y);\ninput a;\n\"bad\nendmodule";
        match parse(src, lib()) {
            Err(NetlistError::VerilogParse { line, detail }) => {
                assert_eq!(line, 3);
                assert!(detail.contains("unexpected character"), "{detail}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn mixing_named_and_positional_rejected() {
        let src = "module m (a, b, y); input a, b; output y; NAND2 u (a, .B(b), .Y(y)); endmodule";
        assert!(parse(src, lib()).is_err());
    }
}
