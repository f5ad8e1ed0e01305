//! §4 glitch-optimization flow: re-simulate, fix glitch sources, re-simulate,
//! confirm the power saving and the turnaround speedup. Also records a full
//! re-simulation, the spill drain and an incremental re-simulation of the
//! same design, and emits the machine-readable `BENCH_glitch_flow.json`
//! artifact for cross-PR comparison.

use std::sync::Arc;
use std::time::Instant;

use gatspi_bench::{print_table, secs, speedup, write_bench_artifact};
use gatspi_core::{RunOptions, Session, SimConfig};
use gatspi_gpu::AppPhaseProfile;
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_power::flow::{run_glitch_flow, FlowConfig};
use gatspi_workloads::circuits::mac_datapath;
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};
use gatspi_workloads::suite::{scale, CYCLE_TIME};

fn main() {
    // Multiplier reduction trees are the canonical glitch source; this is
    // the flow's 1.3M-gate industrial design scaled down.
    let lanes = ((20.0 * scale()).round() as usize).max(2);
    let netlist = mac_datapath(8, lanes);
    let sdf = attach_sdf(&netlist, &SdfGenConfig::default());
    let cycles = ((200.0 * scale()) as usize).max(20);
    let stimuli = generate(
        netlist.primary_inputs().len(),
        &StimulusConfig::random(cycles, CYCLE_TIME, 0.35, 99),
    );
    let cfg = FlowConfig {
        fixes: (netlist.gate_count() / 40).max(8),
        sim: SimConfig::default().with_window_align(CYCLE_TIME),
        compare_baseline: true,
        ..FlowConfig::default()
    };
    let report = run_glitch_flow(
        &netlist,
        &sdf,
        &stimuli,
        CYCLE_TIME * cycles as i32,
        CYCLE_TIME,
        &cfg,
    )
    .expect("flow");

    let rows = vec![
        vec!["gates".into(), netlist.gate_count().to_string()],
        vec!["fixed gates".into(), report.fixed_gates.len().to_string()],
        vec![
            "glitch toggles before/after".into(),
            format!("{} / {}", report.glitch_before.1, report.glitch_after.1),
        ],
        vec![
            "functional toggles before/after".into(),
            format!("{} / {}", report.glitch_before.0, report.glitch_after.0),
        ],
        vec![
            "power before (W, synthetic)".into(),
            format!("{:.6}", report.power_before.total_w()),
        ],
        vec![
            "power after (W, synthetic)".into(),
            format!("{:.6}", report.power_after.total_w()),
        ],
        vec![
            "design power saving".into(),
            format!("{:.2}%", report.saving_pct),
        ],
        vec![
            "GATSPI re-sim turnaround".into(),
            secs(report.gatspi_seconds),
        ],
        vec!["fix search".into(), secs(report.fix_search_seconds)],
        vec![
            "analysis (estimate + classify)".into(),
            secs(report.analysis_seconds),
        ],
        vec![
            "baseline re-sim turnaround".into(),
            report.baseline_seconds.map(secs).unwrap_or_default(),
        ],
        vec![
            "turnaround speedup".into(),
            report.turnaround_speedup().map(speedup).unwrap_or_default(),
        ],
    ];
    print_table(
        "Glitch-optimization flow (paper §4: 1.4% saving at 449X turnaround)",
        &["Metric", "Value"],
        &rows,
    );

    // --- A full re-simulation of the same design: measured wall and
    // launches (one per level, plus a repair launch per overflowed level).
    let graph = Arc::new(
        CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).expect("graph"),
    );
    let duration = CYCLE_TIME * cycles as i32;
    let sim = Session::new(
        Arc::clone(&graph),
        SimConfig::default().with_window_align(CYCLE_TIME),
    );
    let reps = 3;
    let t0 = Instant::now();
    let mut profile = AppPhaseProfile::default();
    let mut segments = 0usize;
    for _ in 0..reps {
        let r = sim.run(&stimuli, duration).expect("resim");
        profile = r.app_profile;
        segments = r.segments();
    }
    let resim_wall = t0.elapsed().as_secs_f64() / f64::from(reps);

    // --- Parallel spill drain on the same design: measured drain wall,
    // coalesced D2H batches and bytes of one spilled run (the glitch flow
    // itself runs with spill, so its turnaround includes this path).
    let spill_run = sim
        .run_with(
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .expect("spilled resim");
    let drain_seconds = spill_run.app_profile.drain_seconds;
    let d2h_batches = spill_run.app_profile.d2h_batches;
    let spill_d2h_bytes = spill_run.app_profile.d2h_bytes;
    print_table(
        "Spill drain (same design, one spilled run)",
        &["Metric", "Value"],
        &[
            vec!["drain wall".into(), secs(drain_seconds)],
            vec!["D2H batches".into(), d2h_batches.to_string()],
            vec!["D2H bytes".into(), spill_d2h_bytes.to_string()],
        ],
    );

    // --- Cone-restricted incremental re-simulation: resize ≤2% of the
    // gates (the latest-level ones, i.e. the optimizer's usual endpoint
    // fixes, whose fan-out cones are small) and re-run only their cones
    // against the spilled baseline.
    let n_changed = (graph.n_gates() / 50).max(1);
    let mut by_level: Vec<usize> = (0..graph.n_gates()).collect();
    by_level.sort_unstable_by_key(|&g| std::cmp::Reverse(graph.gate_level(g)));
    let changed: Vec<usize> = by_level[..n_changed].to_vec();
    let spill_opts = RunOptions::default().with_waveform_spill();
    let t0 = Instant::now();
    for _ in 0..reps {
        sim.run_incremental(&spill_run, &changed, &stimuli, duration, &spill_opts)
            .expect("incremental resim");
    }
    let incremental_wall = t0.elapsed().as_secs_f64() / f64::from(reps);
    let cache = sim.plan_cache_stats();
    print_table(
        "Incremental re-simulation (same design, latest-level 2% resized)",
        &["Metric", "Value"],
        &[
            vec!["changed gates".into(), n_changed.to_string()],
            vec!["incremental wall".into(), secs(incremental_wall)],
            vec!["full wall".into(), secs(resim_wall)],
            vec![
                "incremental speedup".into(),
                speedup(resim_wall / incremental_wall),
            ],
            vec![
                "plan cache (hits/misses)".into(),
                format!("{} / {}", cache.hits, cache.misses),
            ],
            vec![
                "cone plans (hits/misses)".into(),
                format!("{} / {}", cache.cone_hits, cache.cone_misses),
            ],
        ],
    );
    print_table(
        "Full re-simulation (same design)",
        &["wall", "launches", "segments"],
        &[vec![
            secs(resim_wall),
            profile.launches.to_string(),
            segments.to_string(),
        ]],
    );
    print_table(
        "Speculative single-pass (full run)",
        &["Metric", "Value"],
        &[
            vec![
                "speculative hit rate".into(),
                format!("{:.2}%", profile.speculative_hit_rate * 100.0),
            ],
            vec![
                "overflow repairs".into(),
                profile.overflow_repairs.to_string(),
            ],
            vec![
                "predicted waste (words)".into(),
                profile.predicted_waste_words.to_string(),
            ],
        ],
    );

    let json = format!(
        "{{\n  \"target\": \"glitch_flow\",\n  \"gates\": {},\n  \"gatspi_seconds\": {:.6},\n  \"fix_search_seconds\": {:.6},\n  \"analysis_seconds\": {:.6},\n  \"baseline_seconds\": {},\n  \"turnaround_speedup\": {},\n  \"saving_pct\": {:.4},\n  \"glitch_toggles_before\": {},\n  \"glitch_toggles_after\": {},\n  \"resim_wall\": {:.6},\n  \"launches\": {},\n  \"drain_seconds\": {:.6},\n  \"d2h_batches\": {},\n  \"spill_d2h_bytes\": {},\n  \"incremental_resim_wall\": {:.6},\n  \"incremental_speedup\": {:.3},\n  \"incremental_changed_gates\": {},\n  \"plan_cache_hits\": {},\n  \"plan_cache_misses\": {},\n  \"cone_plan_hits\": {},\n  \"cone_plan_misses\": {},\n  \"speculative_hit_rate\": {:.4},\n  \"overflow_repairs\": {},\n  \"predicted_waste_words\": {},\n  \"oom_retries\": {}\n}}\n",
        netlist.gate_count(),
        report.gatspi_seconds,
        report.fix_search_seconds,
        report.analysis_seconds,
        report
            .baseline_seconds
            .map(|s| format!("{s:.6}"))
            .unwrap_or_else(|| "null".into()),
        report
            .turnaround_speedup()
            .map(|s| format!("{s:.3}"))
            .unwrap_or_else(|| "null".into()),
        report.saving_pct,
        report.glitch_before.1,
        report.glitch_after.1,
        resim_wall,
        profile.launches,
        drain_seconds,
        d2h_batches,
        spill_d2h_bytes,
        incremental_wall,
        resim_wall / incremental_wall,
        n_changed,
        cache.hits,
        cache.misses,
        cache.cone_hits,
        cache.cone_misses,
        profile.speculative_hit_rate,
        profile.overflow_repairs,
        profile.predicted_waste_words,
        profile.oom_retries + spill_run.app_profile.oom_retries,
    );
    write_bench_artifact("glitch_flow", &json);
}
