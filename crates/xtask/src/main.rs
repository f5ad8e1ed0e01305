//! Thin CLI over the [`xtask`] library — see the library docs for what
//! each task does.

use std::process::ExitCode;

use xtask::analysis::{self, AnalyzeOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => {
            let mut opts = AnalyzeOptions::default();
            let mut rest = args[1..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--json" => match rest.next() {
                        Some(path) => opts.json = Some(path.into()),
                        None => return usage("--json needs a path"),
                    },
                    other => return usage(&format!("unknown analyze flag `{other}`")),
                }
            }
            analysis::run_analyze(&opts)
        }
        Some("bench-check") => xtask::bench::bench_check(),
        Some("gate") => xtask::gate::run_gate(),
        Some("loc") => xtask::loc::run_loc(&args[1..]),
        _ => usage("missing or unknown task"),
    }
}

fn usage(why: &str) -> ExitCode {
    eprintln!("xtask: {why}");
    eprintln!(
        "usage: cargo run -p xtask -- <analyze [--json <path>] | bench-check | gate | loc [DIR...]>"
    );
    ExitCode::from(2)
}
