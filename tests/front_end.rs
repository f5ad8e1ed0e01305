//! The Verilog and SDF readers against adversarial and round-trip inputs.
//!
//! `corpus_matches_fixture` runs every case of a mutation corpus — a clean
//! text, its truncations, seeded single-byte replacements and a few
//! hand-made semantic faults — through `verilog::parse` / `SdfFile::parse`
//! and compares each outcome (the error variant with its line or names, or
//! an FNV-1a digest of the parsed result written back out) with
//! `tests/fixtures/front_end_corpus.txt`. The fixture is the oracle: it was
//! written by the readers a rewrite replaces, with
//!
//! ```text
//! cargo test --release --test front_end -- --ignored write_corpus_fixture
//! ```
//!
//! run on the commit that holds them. Entries a deliberate behaviour change
//! moves are edited by hand and named in CHANGES.md.
//!
//! `every_suite_design_round_trips` writes and re-reads every Table 2 design
//! and its SDF annotation at a small scale.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gatspi_netlist::{verilog, CellLibrary, Netlist, NetlistError};
use gatspi_sdf::{SdfError, SdfFile};
use gatspi_workloads::circuits::int_adder_array;
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::suite::table2_suite;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/front_end_corpus.txt"
);

/// Bytes the seeded replacements draw from.
const REPLACEMENTS: &[u8] =
    b"()[];:.,'\"\\/*0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// Seeded replacements per generated text, and per hand-written snippet.
const REPLACEMENTS_GENERATED: usize = 500;
const REPLACEMENTS_SNIPPET: usize = 50;

const V_SIMPLE: &str = r#"
// A tiny design.
module tiny (a, b, y);
  input a, b;
  output y;
  wire n1;
  NAND2 u1 (.A(a), .B(b), .Y(n1));
  INV u2 (.A(n1), .Y(y));
endmodule
"#;

const V_VECTOR_PORTS: &str = r#"
module vec (input [1:0] a, output [1:0] y);
  INV u0 (.A(a[0]), .Y(y[0]));
  INV u1 (.A(a[1]), .Y(y[1]));
endmodule
"#;

const V_VECTOR_WIRE: &str = r#"
module vw (a, y);
  input a;
  output y;
  wire [1:0] t;
  INV u0 (.A(a), .Y(t[0]));
  BUF u1 (.A(t[0]), .Y(t[1]));
  BUF u2 (.A(t[1]), .Y(y));
endmodule
"#;

const V_TIES: &str = r#"
module c2 (a, y, z);
  input a;
  output y, z;
  AND2 u1 (.A(a), .B(1'b1), .Y(y));
  OR2 u2 (.A(a), .B(1'b0), .Y(z));
endmodule
"#;

const V_ESCAPED: &str = "module m (a, y); /* ports\n  across lines */ input a; output y;\n  INV \\u$1! (.A(a), .Y(y));\nendmodule\n";

const V_POSITIONAL: &str = "module m (a, b, y); input a, b; output y; NAND2 u (a, b, y); endmodule";

const V_LATE_DECL: &str = r#"
module rt (a, b, y);
  input a, b;
  XOR2 u1 (.A(a), .B(b), .Y(n1));
  AOI21 u2 (.A1(a), .A2(b), .B(n1), .Y(n2));
  INV u3 (.A(n2), .Y(y));
  output y;
  wire n1, n2;
endmodule
"#;

const V_MIXED: &str =
    "module m (a, b, y); input a, b; output y; NAND2 u (a, .B(b), .Y(y)); endmodule";

const S_PAPER: &str = r#"
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

const S_INTERCONNECT: &str = r#"
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

const S_MIN_TYP_MAX: &str = r#"
(DELAYFILE (CELL (CELLTYPE "INV") (INSTANCE u)
  (DELAY (ABSOLUTE (IOPATH A Y (1:2:3) (2 : 3 : 4))))))
"#;

const S_UNKNOWN_SECTIONS: &str = r#"
(DELAYFILE
  (VENDOR "acme") (PROGRAM "syn") (VERSION "1") (DIVIDER /)
  (VOLTAGE 0.8) (PROCESS "tt") (TEMPERATURE 25)
  // a line comment
  (CELL (CELLTYPE "INV") (INSTANCE u)
    (TIMINGCHECK (SETUP d (posedge c) (1)))
    (DELAY (ABSOLUTE (IOPATH A Y (1) (1))))
  )
)
"#;

const S_COND_GROUPS: &str = r#"(DELAYFILE (TIMESCALE 10 ps) (CELL (CELLTYPE "X") (INSTANCE u)
  (DELAY (ABSOLUTE
    (COND (A == 1'b1) && !B (IOPATH C Y (2) (2)))
    (COND EN (IOPATH D Y (1) (1)))
  ))))"#;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64: the corpus's seeded replacement stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[derive(Clone, Copy)]
enum Lang {
    Verilog,
    Sdf,
}

fn netlist_error_key(e: &NetlistError) -> String {
    match e {
        NetlistError::VerilogParse { line, .. } => format!("VerilogParse line {line}"),
        NetlistError::DuplicateName { kind, name } => format!("DuplicateName {kind} {name:?}"),
        NetlistError::UnknownName { kind, name } => format!("UnknownName {kind} {name:?}"),
        NetlistError::PinMismatch { gate, cell, .. } => format!("PinMismatch {gate:?} {cell:?}"),
        NetlistError::MultipleDrivers { net, driver } => {
            format!("MultipleDrivers {net:?} {driver:?}")
        }
        NetlistError::Undriven { net } => format!("Undriven {net:?}"),
        other => format!("{other:?}"),
    }
}

fn sdf_error_key(e: &SdfError) -> String {
    match e {
        SdfError::Parse { line, .. } => format!("Parse line {line}"),
        other => format!("{other:?}"),
    }
}

/// The outcome of reading `src`: an error key or a digest of the result.
fn outcome(lang: Lang, src: &str) -> String {
    let run = catch_unwind(AssertUnwindSafe(|| match lang {
        Lang::Verilog => match verilog::parse(src, CellLibrary::industry_mini()) {
            Ok(n) => format!("ok {:016x}", fnv1a(verilog::write(&n).as_bytes())),
            Err(e) => netlist_error_key(&e),
        },
        Lang::Sdf => match SdfFile::parse(src) {
            Ok(f) => format!("ok {:016x}", fnv1a(f.write().as_bytes())),
            Err(e) => sdf_error_key(&e),
        },
    }));
    run.unwrap_or_else(|_| "panic".to_string())
}

/// The corpus inputs: `(name, language, text)`.
fn inputs() -> Vec<(&'static str, Lang, String)> {
    let netlist = int_adder_array(8, 2);
    let sdf = attach_sdf(&netlist, &SdfGenConfig::default());
    let mut v = vec![
        ("adder.gv", Lang::Verilog, verilog::write(&netlist)),
        ("adder.sdf", Lang::Sdf, sdf.write()),
    ];
    for (name, text) in [
        ("simple.gv", V_SIMPLE),
        ("vector_ports.gv", V_VECTOR_PORTS),
        ("vector_wire.gv", V_VECTOR_WIRE),
        ("ties.gv", V_TIES),
        ("escaped.gv", V_ESCAPED),
        ("positional.gv", V_POSITIONAL),
        ("late_decl.gv", V_LATE_DECL),
        ("mixed.gv", V_MIXED),
    ] {
        v.push((name, Lang::Verilog, text.to_string()));
    }
    for (name, text) in [
        ("paper.sdf", S_PAPER),
        ("interconnect.sdf", S_INTERCONNECT),
        ("min_typ_max.sdf", S_MIN_TYP_MAX),
        ("unknown_sections.sdf", S_UNKNOWN_SECTIONS),
        ("cond_groups.sdf", S_COND_GROUPS),
        ("timescale_fs.sdf", "(DELAYFILE (TIMESCALE 100fs))"),
    ] {
        v.push((name, Lang::Sdf, text.to_string()));
    }
    v
}

/// Hand-made faults of the generated texts: `(case id, language, text)`.
fn semantic_faults(adder_gv: &str, adder_sdf: &str) -> Vec<(String, Lang, String)> {
    let first_inst = |cell: &str| {
        adder_gv
            .find(&format!("  {cell} "))
            .expect("the adder instantiates the cell")
    };
    // The second XOR3 instance takes the first one's name.
    let xor = first_inst("XOR3");
    let name_of = |at: usize| -> &str {
        let rest = &adder_gv[at + "  XOR3 ".len()..];
        &rest[..rest.find(" (").expect("instance name ends before its pins")]
    };
    let second = xor + 1 + adder_gv[xor + 1..].find("  XOR3 ").expect("two XOR3");
    let duplicate = format!(
        "{}{}{}",
        &adder_gv[..second + "  XOR3 ".len()],
        name_of(xor),
        &adder_gv[second + "  XOR3 ".len() + name_of(second).len()..]
    );
    let maj = first_inst("MAJ3");
    let unknown_cell = format!(
        "{}  NOSUCHCELL{}",
        &adder_gv[..maj],
        &adder_gv[maj + "  MAJ3".len()..]
    );
    let no_endmodule = adder_gv.replace("endmodule", "");
    // The first IOPATH's rise triple.
    let at = adder_sdf.find("(IOPATH ").expect("an IOPATH");
    let triple = at + adder_sdf[at..].find(" (").expect("a triple") + 1;
    let triple_end = triple + adder_sdf[triple..].find(')').expect("triple closes") + 1;
    let with_triple = |t: &str| format!("{}{t}{}", &adder_sdf[..triple], &adder_sdf[triple_end..]);
    vec![
        (
            "adder.gv/duplicate_instance".into(),
            Lang::Verilog,
            duplicate,
        ),
        ("adder.gv/unknown_cell".into(), Lang::Verilog, unknown_cell),
        (
            "adder.gv/missing_endmodule".into(),
            Lang::Verilog,
            no_endmodule,
        ),
        (
            "adder.sdf/empty_field".into(),
            Lang::Sdf,
            with_triple("(1::3)"),
        ),
        (
            "adder.sdf/non_numeric_field".into(),
            Lang::Sdf,
            with_triple("(1:x:3)"),
        ),
        (
            "adder.sdf/empty_single".into(),
            Lang::Sdf,
            with_triple("(:)"),
        ),
    ]
}

/// Every corpus case, in a fixed order: `(case id, language, text)`.
fn cases() -> Vec<(String, Lang, String)> {
    let inputs = inputs();
    let mut out = Vec::new();
    for (name, lang, text) in &inputs {
        assert!(text.is_ascii(), "{name}: replacements assume ASCII text");
        out.push((format!("{name}/clean"), *lang, text.clone()));
        let head = text.len().min(512);
        let cuts = (0..head).chain((512..text.len()).step_by(97));
        for cut in cuts {
            out.push((format!("{name}/cut{cut}"), *lang, text[..cut].to_string()));
        }
        let mut rng = SplitMix(fnv1a(name.as_bytes()));
        let replacements = if name.starts_with("adder.") {
            REPLACEMENTS_GENERATED
        } else {
            REPLACEMENTS_SNIPPET
        };
        for k in 0..replacements {
            let at = (rng.next() % text.len() as u64) as usize;
            let byte = REPLACEMENTS[(rng.next() % REPLACEMENTS.len() as u64) as usize];
            let mut bytes = text.clone().into_bytes();
            bytes[at] = byte;
            let mutated = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            out.push((format!("{name}/r{k}@{at}={}", byte as char), *lang, mutated));
        }
    }
    let (adder_gv, adder_sdf) = (&inputs[0].2, &inputs[1].2);
    out.extend(semantic_faults(adder_gv, adder_sdf));
    // Inputs the readers refuse rather than misread: a range bound past
    // `i64` (as an `i64` it is -1), an `INCREMENT` section (its delays
    // are relative) and a string left open.
    out.push((
        "bound_past_i64.gv".into(),
        Lang::Verilog,
        "module m (a);\n  input [18446744073709551615:0] a;\nendmodule\n".into(),
    ));
    out.push((
        "paper.sdf/increment".into(),
        Lang::Sdf,
        S_PAPER.replace("ABSOLUTE", "INCREMENT"),
    ));
    // A lone backslash before a closing quote escapes it: the string runs
    // on, and the text ends inside one.
    out.push((
        "paper.sdf/trailing_backslash".into(),
        Lang::Sdf,
        S_PAPER.replace("\"example\"", "\"example\\\""),
    ));
    out
}

fn render(outcomes: &[(String, String)]) -> String {
    let mut s = String::from(
        "# front_end corpus oracle: `<case id>\\t<outcome>`, one line per case.\n\
         # Regenerate: cargo test --release --test front_end -- --ignored write_corpus_fixture\n",
    );
    for (id, out) in outcomes {
        s.push_str(id);
        s.push('\t');
        s.push_str(out);
        s.push('\n');
    }
    s
}

fn run_corpus() -> Vec<(String, String)> {
    cases()
        .into_iter()
        .map(|(id, lang, text)| {
            let out = outcome(lang, &text);
            (id, out)
        })
        .collect()
}

/// Writes the oracle from the readers of the checked-out commit.
#[test]
#[ignore = "writes the corpus fixture; run by hand on the oracle commit"]
fn write_corpus_fixture() {
    let outcomes = run_corpus();
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures"))
        .expect("create fixture dir");
    std::fs::write(FIXTURE, render(&outcomes)).expect("write fixture");
}

#[test]
fn corpus_matches_fixture() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("fixture is committed");
    let expected: Vec<(&str, &str)> = fixture
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_once('\t').expect("`<id>\\t<outcome>` line"))
        .collect();
    let actual = run_corpus();
    assert_eq!(
        expected.len(),
        actual.len(),
        "the corpus and its fixture list different case counts"
    );
    let mut moved = Vec::new();
    for ((want_id, want), (id, got)) in expected.iter().zip(&actual) {
        assert_eq!(
            *want_id, id,
            "the corpus and its fixture list cases in different orders"
        );
        if got == "panic" || want != got {
            moved.push(format!("{id}: fixture `{want}`, now `{got}`"));
        }
    }
    assert!(
        moved.is_empty(),
        "{} of {} cases moved:\n{}",
        moved.len(),
        actual.len(),
        moved[..moved.len().min(30)].join("\n")
    );
}

/// Compares two netlists through their accessors, by name: the reader
/// numbers nets inputs first, so ids may differ while the design is the
/// same.
fn assert_same_design(a: &Netlist, b: &Netlist, label: &str) {
    let names = |n: &Netlist, ids: &[gatspi_netlist::NetId]| -> Vec<String> {
        ids.iter().map(|&i| n.net(i).name().to_string()).collect()
    };
    assert_eq!(a.name(), b.name(), "{label}: design name");
    assert_eq!(
        names(a, a.primary_inputs()),
        names(b, b.primary_inputs()),
        "{label}: input port order"
    );
    assert_eq!(
        names(a, a.primary_outputs()),
        names(b, b.primary_outputs()),
        "{label}: output port order"
    );
    assert_eq!(a.net_count(), b.net_count(), "{label}: net count");
    assert_eq!(a.gate_count(), b.gate_count(), "{label}: gate count");
    for ((_, ga), (gid, gb)) in a.gates().zip(b.gates()) {
        assert_eq!(ga.name(), gb.name(), "{label}: gate order");
        assert_eq!(b.find_gate(gb.name()), Some(gid), "{label}: gate lookup");
        assert_eq!(ga.cell(), gb.cell(), "{label}: cell of {}", ga.name());
        assert_eq!(
            names(a, ga.inputs()),
            names(b, gb.inputs()),
            "{label}: inputs of {}",
            ga.name()
        );
        assert_eq!(
            a.net(ga.output()).name(),
            b.net(gb.output()).name(),
            "{label}: output of {}",
            ga.name()
        );
    }
    for (_, na) in a.nets() {
        let id = b
            .find_net(na.name())
            .unwrap_or_else(|| panic!("{label}: net {} lost", na.name()));
        let nb = b.net(id);
        assert_eq!(nb.name(), na.name(), "{label}: net lookup");
        assert_eq!(nb.is_primary_input(), na.is_primary_input(), "{label}");
        assert_eq!(nb.is_primary_output(), na.is_primary_output(), "{label}");
        let gate_name = |n: &Netlist, g: gatspi_netlist::GateId| n.gate(g).name().to_string();
        assert_eq!(
            na.driver().map(|g| gate_name(a, g)),
            nb.driver().map(|g| gate_name(b, g)),
            "{label}: driver of {}",
            na.name()
        );
        let loads = |n: &Netlist, net: &gatspi_netlist::Net| -> Vec<(String, u32)> {
            net.loads()
                .iter()
                .map(|l| (gate_name(n, l.gate), l.pin))
                .collect()
        };
        assert_eq!(
            loads(a, na),
            loads(b, nb),
            "{label}: loads of {}",
            na.name()
        );
    }
}

#[test]
fn every_suite_design_round_trips() {
    for def in table2_suite() {
        let label = format!("{}({})", def.design, def.testbench);
        let netlist = def.netlist_at_scale(0.05);
        let reread = verilog::parse(&verilog::write(&netlist), CellLibrary::industry_mini())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_same_design(&netlist, &reread, &label);

        let sdf = attach_sdf(
            &netlist,
            &SdfGenConfig {
                seed: def.seed ^ 0x5DF,
                ..SdfGenConfig::default()
            },
        );
        let reread = SdfFile::parse(&sdf.write()).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(
            reread == sdf,
            "{label}: SDF changed in a write/parse round trip"
        );
    }
}
