//! Criterion micro-benchmarks of the Algorithm 1 kernel itself (per-gate
//! simulation cost vs input activity and fan-in) plus the engine's
//! deep-pipeline hot path, where per-level launch/bookkeeping overhead —
//! not kernel work — dominates, and its multi-block twin on a batch's
//! worker set. The run emits `BENCH_kernel_micro.json`
//! so successive PRs can compare measurements.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gatspi_core::{
    simulate_gate, GateDesc, GateKernelInput, KernelMode, Session, SimConfig, SimFeatures,
};
use gatspi_gpu::{DeviceMemory, LaneCounters};
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_netlist::{CellLibrary, NetlistBuilder};
use gatspi_wave::Waveform;
use gatspi_workloads::circuits::{random_logic, RandomLogicConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};

/// The count pass: a speculative run with an empty reservation writes
/// nothing and returns the output's exact size.
const COUNT: KernelMode = KernelMode::Speculative {
    out_base: 0,
    cap: 0,
};

fn setup(cell: &str, n_in: usize, toggles: usize) -> (CircuitGraph, DeviceMemory, Vec<u32>) {
    let lib = CellLibrary::industry_mini();
    let mut b = NetlistBuilder::new("k", lib);
    let ins: Vec<_> = (0..n_in)
        .map(|i| b.add_input(&format!("i{i}")).unwrap())
        .collect();
    let y = b.add_output("y").unwrap();
    b.add_gate("u", cell, &ins, y).unwrap();
    let graph = CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap();
    // Each input at an even offset: the kernel reads a value from its
    // pointer's parity.
    let (mut words, mut ptrs) = (Vec::new(), Vec::new());
    for k in 0..n_in {
        let times: Vec<i32> = (1..=toggles as i32).map(|i| i * 10 + k as i32).collect();
        words.resize(words.len().next_multiple_of(2), 0);
        ptrs.push(words.len() as u32);
        words.extend_from_slice(Waveform::from_toggles(false, &times).raw());
    }
    let mem = DeviceMemory::new(256 * 1024);
    mem.h2d(0, &words);
    (graph, mem, ptrs)
}

/// Builds the descriptor-based kernel context for gate 0 of `graph`, the
/// same flat tables the schedule bakes at compile time.
fn kernel_input<'a>(
    graph: &'a CircuitGraph,
    desc: GateDesc,
    net_delays: &'a [(i32, i32)],
    mem: &'a DeviceMemory,
    in_ptrs: &'a [u32],
    avg_delays: &'a [(i32, i32)],
) -> GateKernelInput<'a> {
    GateKernelInput {
        desc,
        tts: graph.truth_tables_flat(),
        luts: graph.delay_luts_flat(),
        net_delays,
        mem,
        in_ptrs,
        features: SimFeatures::default(),
        ppp: 100,
        avg_delays,
    }
}

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1_kernel");
    for (cell, n_in) in [("INV", 1usize), ("NAND2", 2), ("AOI22", 4)] {
        for toggles in [16usize, 256] {
            let (graph, mem, ptrs) = setup(cell, n_in, toggles);
            let avg = vec![(1, 1); n_in];
            let net = vec![(0, 0); n_in];
            let desc = GateDesc::of(&graph, 0);
            group.bench_with_input(
                BenchmarkId::new(format!("{cell}_count"), toggles),
                &toggles,
                |bench, _| {
                    let input = kernel_input(&graph, desc, &net, &mem, &ptrs, &avg);
                    bench.iter(|| {
                        let mut lane = LaneCounters::default();
                        simulate_gate(&input, COUNT, &mut lane)
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{cell}_store"), toggles),
                &toggles,
                |bench, _| {
                    let input = kernel_input(&graph, desc, &net, &mem, &ptrs, &avg);
                    bench.iter(|| {
                        let mut lane = LaneCounters::default();
                        simulate_gate(
                            &input,
                            KernelMode::Store {
                                out_base: 128 * 1024,
                            },
                            &mut lane,
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

/// Per-gate cost of the speculative single-pass protocol: a hit
/// (reservation fits, one invocation total), a miss (the speculative pass
/// degrades to counting and a Store repair re-runs the gate), and the
/// unconditional count + Store pair ("simulate twice") — the cost a miss
/// must not exceed and a hit must beat, both gated by `bench-check`.
fn bench_single_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_pass");
    for toggles in [16usize, 256] {
        let (graph, mem, ptrs) = setup("NAND2", 2, toggles);
        let avg = vec![(1, 1); 2];
        let net = vec![(0, 0); 2];
        let desc = GateDesc::of(&graph, 0);
        let out_base = 128 * 1024;
        // A generous reservation always fits; a 4-word one always
        // overflows at these activity levels.
        for (label, cap) in [("spec_hit", 8 * toggles + 8), ("spec_repair", 4)] {
            group.bench_with_input(BenchmarkId::new(label, toggles), &toggles, |bench, _| {
                let input = kernel_input(&graph, desc, &net, &mem, &ptrs, &avg);
                bench.iter(|| {
                    let mut lane = LaneCounters::default();
                    let out =
                        simulate_gate(&input, KernelMode::Speculative { out_base, cap }, &mut lane);
                    if out.words() as usize > cap {
                        simulate_gate(&input, KernelMode::Store { out_base }, &mut lane)
                    } else {
                        out
                    }
                });
            });
        }
        group.bench_with_input(
            BenchmarkId::new("two_pass", toggles),
            &toggles,
            |bench, _| {
                let input = kernel_input(&graph, desc, &net, &mem, &ptrs, &avg);
                bench.iter(|| {
                    let mut lane = LaneCounters::default();
                    simulate_gate(&input, COUNT, &mut lane);
                    simulate_gate(&input, KernelMode::Store { out_base }, &mut lane)
                });
            },
        );
    }
    group.finish();
}

/// Deep, narrow pipeline with dense activity: thousands of one-gate
/// levels, each re-walking a ~100-toggle waveform, so Algorithm 1 kernel
/// work dominates — and, at one launch per level, the witness of per-launch
/// overhead.
fn bench_deep_pipeline(c: &mut Criterion) {
    let depth = 3000usize;
    let mut b = NetlistBuilder::new("deep", CellLibrary::industry_mini());
    let mut prev = b.add_input("a").unwrap();
    for i in 0..depth {
        let net = b.add_net(&format!("n{i}")).unwrap();
        b.add_gate(&format!("u{i}"), "INV", &[prev], net).unwrap();
        prev = net;
    }
    b.mark_output(prev);
    let graph = Arc::new(
        CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap(),
    );
    let toggles: Vec<i32> = (1..100).map(|i| i * 100).collect();
    let stimuli = vec![Waveform::from_toggles(false, &toggles)];
    let duration = 10_000;

    let mut group = c.benchmark_group("deep_pipeline_resim");
    let sim = Session::new(
        Arc::clone(&graph),
        SimConfig::default()
            .with_cycle_parallelism(4)
            .with_window_align(100),
    );
    let launches = sim.run(&stimuli, duration).unwrap().app_profile.launches;
    group.bench_with_input(
        BenchmarkId::new("per_level", format!("depth{depth}_launches{launches}")),
        &(),
        |bench, ()| bench.iter(|| sim.run(&stimuli, duration).unwrap().total_toggles()),
    );
    group.finish();
}

/// Launches of a few blocks each, the width `deep_pipeline_resim`'s
/// one-block launches never reach: 64 levels of 48 gates over 32 windows,
/// 1 536 threads (3 blocks) a level, each a multi-block launch on the
/// batch's worker set — the witness of that path's dispatch cost.
fn bench_worker_set_dispatch(c: &mut Criterion) {
    let (width, depth) = (48usize, 64usize);
    let mut b = NetlistBuilder::new("mesh", CellLibrary::industry_mini());
    let mut lanes: Vec<_> = (0..width)
        .map(|i| b.add_input(&format!("a{i}")).unwrap())
        .collect();
    for l in 0..depth {
        lanes = (0..width)
            .map(|i| {
                let net = b.add_net(&format!("n{l}_{i}")).unwrap();
                let ins = [lanes[i], lanes[(i + 1) % width]];
                b.add_gate(&format!("u{l}_{i}"), "XOR2", &ins, net).unwrap();
                net
            })
            .collect();
    }
    for &net in &lanes {
        b.mark_output(net);
    }
    let graph = Arc::new(
        CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap(),
    );
    let (cycle, cycles) = (400, 32usize);
    let stimuli = generate(width, &StimulusConfig::random(cycles, cycle, 0.1, 11));
    let duration = cycle * cycles as i32;

    let mut group = c.benchmark_group("worker_set_dispatch");
    let sim = Session::new(graph, SimConfig::default().with_window_align(cycle));
    let launches = sim.run(&stimuli, duration).unwrap().app_profile.launches;
    group.bench_with_input(
        BenchmarkId::new(
            "levels",
            format!("depth{depth}_gates{width}_launches{launches}"),
        ),
        &(),
        |bench, ()| bench.iter(|| sim.run(&stimuli, duration).unwrap().total_toggles()),
    );
    group.finish();
}

/// The publish path itself (each level's length, SAIF and slack folds,
/// run by the storing kernel threads): `narrow` is a deep chain of
/// one-gate levels (one-block launches, inline), `wide` is shallow random
/// logic with thousand-gate levels (multi-block launches on the batch's
/// worker set).
fn bench_publish_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("publish_path");

    // --- Narrow: 2000 levels × 1 gate × 4 windows.
    let depth = 2000usize;
    let mut b = NetlistBuilder::new("narrow", CellLibrary::industry_mini());
    let mut prev = b.add_input("a").unwrap();
    for i in 0..depth {
        let net = b.add_net(&format!("n{i}")).unwrap();
        b.add_gate(&format!("u{i}"), "INV", &[prev], net).unwrap();
        prev = net;
    }
    b.mark_output(prev);
    let narrow = Arc::new(
        CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap(),
    );
    let toggles: Vec<i32> = (1..8).map(|i| i * 1200).collect();
    let narrow_stim = vec![Waveform::from_toggles(false, &toggles)];
    let narrow_duration = 10_000;

    // --- Wide: ~4 levels × ~1500 gates × 32 windows.
    let netlist = random_logic(&RandomLogicConfig {
        gates: 6000,
        inputs: 64,
        depth: 4,
        output_fraction: 0.1,
        seed: 42,
    });
    let wide = Arc::new(CircuitGraph::build(&netlist, None, &GraphOptions::default()).unwrap());
    let cycle = 400;
    let cycles = 16usize;
    let wide_stim = generate(
        wide.primary_inputs().len(),
        &StimulusConfig::random(cycles, cycle, 0.3, 7),
    );
    let wide_duration = cycle * cycles as i32;

    let sim = Session::new(
        Arc::clone(&narrow),
        SimConfig::default()
            .with_cycle_parallelism(4)
            .with_window_align(100),
    );
    group.bench_with_input(
        BenchmarkId::new("narrow", format!("levels{depth}")),
        &(),
        |bench, ()| {
            bench.iter(|| {
                sim.run(&narrow_stim, narrow_duration)
                    .unwrap()
                    .total_toggles()
            })
        },
    );

    let sim = Session::new(
        Arc::clone(&wide),
        SimConfig::default().with_window_align(cycle),
    );
    group.bench_with_input(BenchmarkId::new("wide", "levels4"), &(), |bench, ()| {
        bench.iter(|| sim.run(&wide_stim, wide_duration).unwrap().total_toggles())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_kernel, bench_single_pass, bench_deep_pipeline, bench_worker_set_dispatch, bench_publish_path
}
criterion_main!(benches);
