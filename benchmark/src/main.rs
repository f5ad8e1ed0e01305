//! Command line of the benchmark.
//!
//! ```sh
//! gatspi-benchmark run --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
//! gatspi-benchmark all [--seed N] [--seconds S] [--out FILE]
//! gatspi-benchmark compare A.json B.json
//! ```

use std::process::ExitCode;

use gatspi_benchmark::json::Json;
use gatspi_benchmark::suite::{run_all, SuiteConfig, DETAIL_PREFIX};
use gatspi_benchmark::{compare, run_workload, RunConfig, Workload};

/// Seconds of a measured phase when `--seconds` is absent: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  gatspi-benchmark run --workload dense_kernel|cold_file_flow|vcd_stream|glitch_eco
                       [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--smoke]
  gatspi-benchmark all [--seed N] [--seconds S] [--out FILE] [--smoke]
  gatspi-benchmark compare A.json B.json";

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Options(Vec<(String, Option<String>)>);

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut out: Vec<(String, Option<String>)> = Vec::new();
        for a in args {
            match (a.strip_prefix("--"), out.last_mut()) {
                (Some(key), _) => out.push((key.to_string(), None)),
                (None, Some((_, value @ None))) => *value = Some(a.clone()),
                _ => return Err(format!("unexpected argument `{a}`")),
            }
        }
        Ok(Options(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: `{v}`")),
            None => Ok(default),
        }
    }
}

fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        Err("this is a debug build; timings of it mean nothing. Build with --release.".to_string())
    } else {
        Ok(())
    }
}

fn run(opts: &Options) -> Result<bool, String> {
    refuse_debug_build()?;
    let name = opts.get("workload").ok_or("missing --workload")?;
    let cfg = RunConfig {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed: opts.number("seed", 0)?,
        seconds: opts.number("seconds", DEFAULT_SECONDS)?,
        trace: opts.number::<u8>("trace", 0)? != 0,
        smoke: opts.flag("smoke"),
        corrupt_oracle: opts.flag("corrupt-oracle"),
    };
    let (outcome, tracer) = run_workload(&cfg)?;
    if let Some(path) = opts.get("spans") {
        std::fs::write(path, tracer.to_json().pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    outcome.print();
    println!("{DETAIL_PREFIX}{}", outcome.detail().line());
    println!("{}", outcome.result_line().line());
    Ok(outcome.correct())
}

fn all(opts: &Options) -> Result<bool, String> {
    refuse_debug_build()?;
    let cfg = SuiteConfig {
        seed: opts.number("seed", 0)?,
        seconds: opts.number("seconds", DEFAULT_SECONDS)?,
        smoke: opts.flag("smoke"),
    };
    let (file, correct) = run_all(&cfg)?;
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, file.pretty()).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {path}");
        }
        None => print!("{}", file.pretty()),
    }
    Ok(correct)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    Ok(compare::compare(&load(a)?, &load(b)?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => Options::parse(rest).and_then(|o| run(&o)),
        Some((cmd, rest)) if cmd == "all" => Options::parse(rest).and_then(|o| all(&o)),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // A result was printed, and it is wrong or worse.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gatspi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
