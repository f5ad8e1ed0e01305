//! The `bench-check` task: validates the committed `BENCH_*.json`
//! trajectory artifacts in the repository root. Every artifact must parse
//! and pass the schema rules of [`gatspi_bench::artifact::validate`], the
//! known targets must all be present, and per-target tolerance bands must
//! hold (rates in `[0, 1]`, walls positive, at least one launch, the
//! glitch flow's turnaround at least
//! `TURNAROUND_SPEEDUP_FLOOR`× the event-driven baseline's, its spill drain
//! within `D2H_BATCHES_CEILING` transfers, and `single_pass`'s kernel-level
//! witnesses of the speculative store: a hit at least
//! `SPEC_SPEEDUP_FLOOR`× cheaper than count + store, a miss at most
//! `SPEC_REPAIR_CEILING`× count + store, and the streaming VCD output path
//! at most `VCD_STREAM_OVERHEAD_CEILING`× the run alone). CI runs this next
//! to `analyze` so a PR cannot silently regress or rot the artifacts.

use std::process::ExitCode;

use gatspi_bench::artifact::{self, Json};

/// Lower bound on `single_pass/two_pass/256 ÷ single_pass/spec_hit/256`:
/// what a speculative hit saves over running the kernel twice (count, then
/// store). The measured margin is well above this; the band only has to
/// catch the optimization being lost, not track its exact size.
const SPEC_SPEEDUP_FLOOR: f64 = 1.3;

/// Upper bound on `single_pass/spec_repair/256 ÷ single_pass/two_pass/256`:
/// a speculative miss (overflowed pass degrading to a count, plus the store
/// repair) may cost no more than count + store, give or take noise. This is
/// why the engine needs no fallback schedule for badly predicted runs.
const SPEC_REPAIR_CEILING: f64 = 1.25;

/// Lower bound on `BENCH_glitch_flow.json`'s `turnaround_speedup`
/// (baseline seconds over GATSPI seconds for the flow's two re-simulations)
/// — the paper's headline ratio. It slid from 2.96x to 1.05x across earlier
/// PRs with no gate noticing; the refreshed artifact sits several times
/// above this floor, which only has to catch the headline being lost again.
const TURNAROUND_SPEEDUP_FLOOR: f64 = 2.0;

/// Upper bound on `BENCH_glitch_flow.json`'s `d2h_batches`, the transfers
/// the spilled run's drain issued: one per level region of the flow
/// design's 58 levels, plus one, for its single segment. The count stood at
/// 1, then at 104 076 (one per stored waveform) for five PRs with no gate
/// noticing; it may follow the design's depth, never its waveform count.
const D2H_BATCHES_CEILING: f64 = 59.0;

/// Upper bound on `sink_throughput/vcd_stream/N ÷ sink_throughput/run_only/N`
/// for both bench sizes: what streaming every waveform through a `VcdSink`
/// costs on top of the run alone. The committed artifact reads 1.49 (500
/// gates) and 1.79 (4 000 gates); four runs of the bench on a shared
/// 2-vCPU host spread the ratios over 1.27–1.72 and 1.50–1.88, so the
/// ceiling sits one such spread (≈ 0.45) above the larger. The floor is 1:
/// the output path cannot be cheaper than no output path.
const VCD_STREAM_OVERHEAD_CEILING: f64 = 2.25;

/// Artifacts every checkout must carry — the cross-PR trajectory set.
const REQUIRED_ARTIFACTS: &[&str] = &[
    "BENCH_glitch_flow.json",
    "BENCH_kernel_micro.json",
    "BENCH_sink_throughput.json",
];

/// Entry point of the `bench-check` task.
pub fn bench_check() -> ExitCode {
    let root = crate::workspace_root();
    let mut names: Vec<String> = REQUIRED_ARTIFACTS.iter().map(|n| n.to_string()).collect();
    // Artifacts beyond the required set still must be well-formed.
    if let Ok(entries) = std::fs::read_dir(&root) {
        names.extend(
            entries
                .flatten()
                .map(|entry| entry.file_name().to_string_lossy().into_owned())
                .filter(|file| file.starts_with("BENCH_") && file.ends_with(".json"))
                .filter(|file| !REQUIRED_ARTIFACTS.contains(&file.as_str())),
        );
    }
    let mut errors = Vec::new();
    let mut checked = 0usize;
    for name in &names {
        match std::fs::read_to_string(root.join(name)) {
            Ok(text) => {
                checked += 1;
                errors.extend(check_artifact(name, &text));
            }
            Err(e) => errors.push(format!("{name}: unreadable ({e})")),
        }
    }
    if errors.is_empty() {
        println!("bench-check: {checked} artifact(s) within schema and tolerance bands");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("bench-check: {e}");
        }
        eprintln!("bench-check: {} error(s)", errors.len());
        ExitCode::FAILURE
    }
}

/// Validates one artifact document: schema first, then the per-target
/// tolerance bands. Returns every defect found (empty = clean).
fn check_artifact(name: &str, text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    if let Err(e) = artifact::validate(text) {
        return vec![format!("{name}: {e}")];
    }
    let doc = artifact::parse(text).expect("validated artifact parses");
    // Criterion-style entries: measurements must be strictly positive (the
    // schema only requires non-negative).
    if let Some(Json::Arr(entries)) = doc.get("benchmarks") {
        for e in entries {
            let (Some(Json::Str(id)), Some(Json::Num(ns))) = (e.get("id"), e.get("mean_ns")) else {
                continue; // schema already reported the shape defect
            };
            if *ns <= 0.0 {
                errors.push(format!("{name}: {id}: non-positive mean_ns {ns}"));
            }
        }
    }
    match doc.get("target") {
        Some(Json::Str(t)) if t == "glitch_flow" => check_glitch_flow(name, &doc, &mut errors),
        Some(Json::Str(t)) if t == "kernel_micro" => check_kernel_micro(name, &doc, &mut errors),
        Some(Json::Str(t)) if t == "sink_throughput" => {
            check_sink_throughput(name, &doc, &mut errors)
        }
        _ => {}
    }
    errors
}

fn num_field(doc: &Json, key: &str) -> Option<f64> {
    match doc.get(key) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

/// Band checks of the flat glitch-flow artifact, including the PR-8
/// speculation telemetry fields.
fn check_glitch_flow(name: &str, doc: &Json, errors: &mut Vec<String>) {
    let mut band = |key: &str, lo: f64, hi: f64| match num_field(doc, key) {
        Some(v) if (lo..=hi).contains(&v) => {}
        Some(v) => errors.push(format!("{name}: {key} = {v} outside [{lo}, {hi}]")),
        None => errors.push(format!("{name}: missing numeric {key}")),
    };
    band("gates", 1.0, f64::MAX);
    band("gatspi_seconds", f64::MIN_POSITIVE, f64::MAX);
    band("turnaround_speedup", TURNAROUND_SPEEDUP_FLOOR, f64::MAX);
    band("saving_pct", -100.0, 100.0);
    band("resim_wall", f64::MIN_POSITIVE, f64::MAX);
    band("launches", 1.0, f64::MAX);
    band("speculative_hit_rate", 0.0, 1.0);
    band("overflow_repairs", 0.0, f64::MAX);
    band("predicted_waste_words", 0.0, f64::MAX);
    band("oom_retries", 0.0, f64::MAX);
    band("d2h_batches", 1.0, D2H_BATCHES_CEILING);
}

/// `mean_ns` of the criterion-style entry `id`, if present.
fn entry_mean(doc: &Json, id: &str) -> Option<f64> {
    let Some(Json::Arr(entries)) = doc.get("benchmarks") else {
        return None;
    };
    entries
        .iter()
        .find_map(|e| match (e.get("id"), e.get("mean_ns")) {
            (Some(Json::Str(i)), Some(Json::Num(ns))) if i == id => Some(*ns),
            _ => None,
        })
}

/// Tolerance checks of the criterion-style sink_throughput artifact: for
/// both bench sizes, the streaming VCD output path costs between 1 and
/// `VCD_STREAM_OVERHEAD_CEILING` times the run alone.
fn check_sink_throughput(name: &str, doc: &Json, errors: &mut Vec<String>) {
    for gates in [500, 4000] {
        let stream = entry_mean(doc, &format!("sink_throughput/vcd_stream/{gates}"));
        let run = entry_mean(doc, &format!("sink_throughput/run_only/{gates}"));
        let (Some(stream), Some(run)) = (stream, run) else {
            errors.push(format!(
                "{name}: missing sink_throughput vcd_stream/run_only at {gates} gates"
            ));
            continue;
        };
        let overhead = stream / run;
        if !(1.0..=VCD_STREAM_OVERHEAD_CEILING).contains(&overhead) {
            errors.push(format!(
                "{name}: vcd_stream/{gates} costs {overhead:.3}x run_only/{gates}, \
                 outside [1, {VCD_STREAM_OVERHEAD_CEILING}]"
            ));
        }
    }
}

/// Structural and tolerance checks of the criterion-style kernel_micro
/// artifact: every bench group present, a speculative hit at least
/// `SPEC_SPEEDUP_FLOOR`× cheaper than count + store, and a speculative
/// miss at most `SPEC_REPAIR_CEILING`× count + store.
fn check_kernel_micro(name: &str, doc: &Json, errors: &mut Vec<String>) {
    let Some(Json::Arr(entries)) = doc.get("benchmarks") else {
        errors.push(format!("{name}: missing benchmarks array"));
        return;
    };
    let mean_of = |prefix: &str| -> Option<f64> {
        let means: Vec<f64> = entries
            .iter()
            .filter(|e| matches!(e.get("id"), Some(Json::Str(id)) if id.starts_with(prefix)))
            .filter_map(|e| match e.get("mean_ns") {
                Some(Json::Num(ns)) => Some(*ns),
                _ => None,
            })
            .collect();
        (!means.is_empty()).then(|| means.iter().sum::<f64>() / means.len() as f64)
    };
    for group in [
        "algorithm1_kernel/",
        "single_pass/",
        "deep_pipeline_resim/",
        "publish_path/",
    ] {
        if mean_of(group).is_none() {
            errors.push(format!("{name}: no benchmarks in group {group}"));
        }
    }
    match (
        mean_of("single_pass/spec_hit/256"),
        mean_of("single_pass/spec_repair/256"),
        mean_of("single_pass/two_pass/256"),
    ) {
        (Some(hit), Some(repair), Some(two_pass)) => {
            let speedup = two_pass / hit;
            if speedup < SPEC_SPEEDUP_FLOOR {
                errors.push(format!(
                    "{name}: single_pass speculative-hit speedup {speedup:.3}x \
                     below the {SPEC_SPEEDUP_FLOOR}x floor"
                ));
            }
            let miss = repair / two_pass;
            if miss > SPEC_REPAIR_CEILING {
                errors.push(format!(
                    "{name}: single_pass speculative-miss cost {miss:.3}x count + store, \
                     above the {SPEC_REPAIR_CEILING}x ceiling"
                ));
            }
        }
        _ => errors.push(format!(
            "{name}: missing single_pass spec_hit/spec_repair/two_pass at 256 toggles"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::check_artifact;

    #[test]
    fn bench_check_accepts_current_artifact_shapes() {
        let glitch = r#"{
            "target": "glitch_flow", "gates": 3840, "gatspi_seconds": 1.6,
            "turnaround_speedup": 2.4, "saving_pct": 4.28, "resim_wall": 0.16,
            "launches": 116, "speculative_hit_rate": 0.98,
            "overflow_repairs": 3, "predicted_waste_words": 120,
            "oom_retries": 0, "d2h_batches": 58
        }"#;
        assert_eq!(
            check_artifact("BENCH_glitch_flow.json", glitch),
            Vec::<String>::new()
        );
        let micro = r#"{
            "target": "kernel_micro", "unit": "ns_per_iter", "benchmarks": [
                {"id": "algorithm1_kernel/INV_count/16", "mean_ns": 273.0},
                {"id": "single_pass/spec_hit/256", "mean_ns": 4800.0},
                {"id": "single_pass/spec_repair/256", "mean_ns": 9500.0},
                {"id": "single_pass/two_pass/256", "mean_ns": 15300.0},
                {"id": "deep_pipeline_resim/per_level/d", "mean_ns": 2.0e6},
                {"id": "publish_path/narrow/l", "mean_ns": 1.7e6}
            ]
        }"#;
        assert_eq!(
            check_artifact("BENCH_kernel_micro.json", micro),
            Vec::<String>::new()
        );
        let sink = r#"{
            "target": "sink_throughput", "unit": "ns_per_iter", "benchmarks": [
                {"id": "sink_throughput/run_only/500", "mean_ns": 6.4e5},
                {"id": "sink_throughput/vcd_stream/500", "mean_ns": 8.2e5},
                {"id": "sink_throughput/run_only/4000", "mean_ns": 3.4e6},
                {"id": "sink_throughput/vcd_stream/4000", "mean_ns": 5.0e6}
            ]
        }"#;
        assert_eq!(
            check_artifact("BENCH_sink_throughput.json", sink),
            Vec::<String>::new()
        );
    }

    #[test]
    fn bench_check_rejects_sink_overhead_out_of_band() {
        // An output path costing three times the run, one cheaper than no
        // output at all, and a size with its baseline missing.
        let sink = r#"{
            "target": "sink_throughput", "unit": "ns_per_iter", "benchmarks": [
                {"id": "sink_throughput/run_only/500", "mean_ns": 6.4e5},
                {"id": "sink_throughput/vcd_stream/500", "mean_ns": 1.92e6},
                {"id": "sink_throughput/run_only/4000", "mean_ns": 3.4e6},
                {"id": "sink_throughput/vcd_stream/4000", "mean_ns": 3.0e6}
            ]
        }"#;
        let errs = check_artifact("s.json", sink);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs
            .iter()
            .any(|e| e.contains("vcd_stream/500 costs 3.000x")));
        assert!(errs
            .iter()
            .any(|e| e.contains("vcd_stream/4000 costs 0.882x")));
        let sink = r#"{
            "target": "sink_throughput", "unit": "ns_per_iter", "benchmarks": [
                {"id": "sink_throughput/run_only/500", "mean_ns": 6.4e5},
                {"id": "sink_throughput/vcd_stream/500", "mean_ns": 8.2e5},
                {"id": "sink_throughput/vcd_stream/4000", "mean_ns": 5.0e6}
            ]
        }"#;
        let errs = check_artifact("s.json", sink);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("missing sink_throughput vcd_stream/run_only at 4000"));
    }

    #[test]
    fn bench_check_rejects_band_violations() {
        // Hit rate above 1, a zero wall, a headline speedup under the
        // floor, no launch and a transfer per waveform are all out of band.
        let glitch = r#"{
            "target": "glitch_flow", "gates": 3840, "gatspi_seconds": 0.0,
            "turnaround_speedup": 1.05, "saving_pct": 4.28, "resim_wall": 0.16,
            "launches": 0, "speculative_hit_rate": 1.5,
            "overflow_repairs": 3, "predicted_waste_words": 120,
            "oom_retries": -1, "d2h_batches": 104076
        }"#;
        let errs = check_artifact("g.json", glitch);
        assert_eq!(errs.len(), 6, "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("d2h_batches")));
        assert!(errs.iter().any(|e| e.contains("turnaround_speedup")));
        assert!(errs.iter().any(|e| e.contains("oom_retries")));
        assert!(errs.iter().any(|e| e.contains("speculative_hit_rate")));
        assert!(errs.iter().any(|e| e.contains("gatspi_seconds")));
        assert!(errs.iter().any(|e| e.contains("launches")));
        // A speculative hit too close to count + store and a miss too far
        // above it trip the tolerance bands; so do a missing group and a
        // non-positive measurement.
        let micro = r#"{
            "target": "kernel_micro", "unit": "ns_per_iter", "benchmarks": [
                {"id": "algorithm1_kernel/INV_count/16", "mean_ns": 0.0},
                {"id": "single_pass/spec_hit/256", "mean_ns": 14000.0},
                {"id": "single_pass/spec_repair/256", "mean_ns": 20000.0},
                {"id": "single_pass/two_pass/256", "mean_ns": 15300.0},
                {"id": "deep_pipeline_resim/per_level/d", "mean_ns": 3.0e6}
            ]
        }"#;
        let errs = check_artifact("m.json", micro);
        assert!(
            errs.iter().any(|e| e.contains("below the 1.3x floor")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("above the 1.25x ceiling")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("publish_path/")), "{errs:?}");
        assert!(
            errs.iter().any(|e| e.contains("non-positive mean_ns")),
            "{errs:?}"
        );
        // Schema defects short-circuit with the validator's message.
        let errs = check_artifact("b.json", r#"{"unit": "ns"}"#);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("target"));
    }
}
