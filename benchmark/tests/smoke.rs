//! The benchmark's own acceptance: every workload runs end to end at
//! smoke scale with the correctness gate on, the gate is live, and what is
//! printed is what `BENCHMARK.json` promises.

use std::time::{Duration, Instant};

use gatspi_benchmark::json::Json;
use gatspi_benchmark::report::{Outcome, END_TO_END, PER_LAYER};
use gatspi_benchmark::{run_workload, RunConfig, Workload};

fn smoke(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 0,
        seconds: 0.0,
        trace,
        smoke: true,
        corrupt_oracle: false,
    }
}

/// The result line must be an object of exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding exactly `expected`, each a
/// finite number with its unit.
fn assert_well_formed(outcome: &Outcome, expected: &[(&str, &str)]) {
    let text = outcome.result_line().line();
    assert!(!text.contains('\n'), "the result is one line");
    let line = Json::parse(&text).expect("result line parses");
    let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = line.get("metrics").unwrap().members();
    assert_eq!(metrics.len(), expected.len());
    for ((name, metric), (want_name, want_unit)) in metrics.iter().zip(expected) {
        assert_eq!(name, want_name);
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some(*want_unit));
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
        assert_eq!(
            metric.members().len(),
            2,
            "{name} has exactly value and unit"
        );
    }
    // The detail line `all` keeps must parse too.
    Json::parse(&outcome.detail().line()).expect("detail parses");
}

#[test]
fn smoke_runs_all_four_workloads_with_the_gate_on() {
    let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let start = Instant::now();
    for workload in Workload::ALL {
        let (outcome, _) = run_workload(&smoke(workload, false))
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(outcome.correct(), "{}", workload.name());
        assert!(outcome.attempted >= 2);
        assert_well_formed(&outcome, &end_to_end);
        for (name, stat) in &outcome.end_to_end {
            assert!(
                stat.value > 0.0,
                "{} {name} must never be 0",
                workload.name()
            );
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "smoke set took {:?}",
        start.elapsed()
    );

    // The traced pass prints every per-layer metric, and what it says
    // about the trace itself holds.
    for workload in Workload::ALL {
        let (outcome, tracer) = run_workload(&smoke(workload, true))
            .unwrap_or_else(|e| panic!("{} traced: {e}", workload.name()));
        assert!(outcome.correct(), "{} traced", workload.name());
        assert_well_formed(&outcome, &per_layer);
        let get = |name: &str| {
            outcome
                .per_layer
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap()
                .1
        };
        assert!(get("sim.total_toggles") > 0.0);
        assert!(get("core.run_s") > 0.0);
        assert!(get("core.kernel_wall_s") > 0.0);
        assert!(get("refsim.run_s") > 0.0);
        assert!(get("trace.unattributed_pct") < 5.0, "{}", workload.name());
        assert!(!tracer.spans().is_empty());
        match workload {
            Workload::ColdFileFlow => {
                assert!(get("graph.build_s") > 0.0 && get("sdf.parse_s") > 0.0)
            }
            Workload::VcdStream => assert!(get("core.sink_s") > 0.0 && get("sim.vcd_digest") > 0.0),
            Workload::GlitchEco => {
                assert!(get("power.flow_resim_s") > 0.0 && get("power.fix_search_s") > 0.0);
                assert!(get("sim.saving_pct") > 0.0 && get("core.cone_plan_misses") >= 1.0);
            }
            Workload::DenseKernel => assert_eq!(get("core.drain_s"), 0.0),
        }
    }
}

#[test]
fn a_corrupted_oracle_fails_every_iteration() {
    for workload in Workload::ALL {
        let cfg = RunConfig {
            corrupt_oracle: true,
            ..smoke(workload, false)
        };
        let (outcome, _) = run_workload(&cfg).expect("set-up itself still passes");
        assert!(!outcome.correct(), "{}", workload.name());
        assert!(outcome.failed > 0 && outcome.attempted >= outcome.failed);
        let line = outcome.result_line();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }
}

#[test]
fn the_same_seed_gives_the_same_simulation_and_another_seed_another() {
    let stats = |seed: u64| {
        let cfg = RunConfig {
            seed,
            ..smoke(Workload::DenseKernel, true)
        };
        let (outcome, _) = run_workload(&cfg).unwrap();
        let get = |name: &str| {
            outcome
                .per_layer
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap()
                .1
        };
        (get("sim.total_toggles"), get("sim.saif_digest"))
    };
    assert_eq!(stats(0), stats(0));
    assert_ne!(stats(0), stats(1));
}

/// The binary's exit codes. A debug build must refuse to measure; a
/// release build must run, and exit non-zero once the oracle is corrupted.
#[test]
fn exit_codes() {
    let run = |extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_gatspi-benchmark"))
            .args(["run", "--workload", "dense_kernel", "--smoke"])
            .args(extra)
            .output()
            .expect("spawn the benchmark")
    };
    if cfg!(debug_assertions) {
        let out = run(&[]);
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty(), "a refused run prints no result");
        assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
    } else {
        assert_eq!(run(&[]).status.code(), Some(0));
        let out = run(&["--corrupt-oracle"]);
        assert_eq!(out.status.code(), Some(1));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("correct"), Some(&Json::Bool(false)));
    }
}

/// `BENCHMARK.json` names exactly the workloads and metrics the program
/// prints, with the same units, directions and bounds.
#[test]
fn benchmark_json_matches_the_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("BENCHMARK.json");
    let keys: Vec<&str> = file.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |key: &str| match file.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("{key}: {other:?}"),
    };
    let text = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

    let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for w in list("workloads") {
        assert!(text(&w, "why").len() <= 200 && !text(&w, "why").contains('\n'));
    }

    let end_to_end = list("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (item, def) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text(item, "name"), def.name);
        assert_eq!(text(item, "unit"), def.unit);
        assert_eq!(text(item, "better"), def.better.as_str());
        assert_eq!(item.get("bound").and_then(Json::as_f64), Some(def.bound));
    }
    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (item, def) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text(item, "name"), def.name);
        assert_eq!(text(item, "unit"), def.unit);
        assert_eq!(text(item, "better"), def.better.as_str());
    }
}
