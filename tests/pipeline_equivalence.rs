//! Level-loop equivalence: the engine's one execution path — one
//! speculative store launch per level with folded store-pass publication,
//! plus a narrow repair launch where a reservation overflowed — must
//! produce results **bit-identical** to the event-driven reference across
//! plain windowed runs, segmented runs, streaming sinks and multi-GPU
//! sharding (with and without spill), on one-block launches run inline and
//! on multi-block launches on a batch's worker set — on the speculative
//! store's hit path and, with the extent history poisoned, on its
//! overflow-repair path.

use std::sync::Arc;

use gatspi_core::{RunOptions, Session, SimConfig, SimResult, WaveformSink, WindowInfo};
use gatspi_gpu::{DeviceSpec, MultiGpu};
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_netlist::{CellLibrary, NetlistBuilder};
use gatspi_refsim::{EventSimulator, RefConfig, RefResult};
use gatspi_wave::{split_raw, SimTime, Waveform, EOW};
use gatspi_workloads::circuits::{random_logic, RandomLogicConfig};
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};
use proptest::prelude::*;

/// Deep, narrow chain: hundreds of one-gate levels, each a launch narrow
/// enough to run inline on the calling thread.
fn deep_chain(depth: usize) -> Arc<CircuitGraph> {
    let mut b = NetlistBuilder::new("deep", CellLibrary::industry_mini());
    let mut prev = b.add_input("a").unwrap();
    for i in 0..depth {
        let net = b.add_net(&format!("n{i}")).unwrap();
        b.add_gate(&format!("u{i}"), "INV", &[prev], net).unwrap();
        prev = net;
    }
    b.mark_output(prev);
    Arc::new(CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap())
}

/// A session on a fleet of `n` V100s with 2^18-word arenas.
fn on_fleet(graph: &Arc<CircuitGraph>, cfg: SimConfig, n: usize) -> Session {
    let gpus = MultiGpu::new(DeviceSpec::v100(), n, 1 << 18);
    Session::with_devices(Arc::clone(graph), cfg, gpus.devices().to_vec())
}

/// Wide random logic with SDF delays: multi-gate levels.
fn wide_graph(seed: u64) -> Arc<CircuitGraph> {
    sdf_logic(300, 16, 5, seed)
}

/// Random logic of `gates` gates over `inputs` inputs and `depth` levels,
/// annotated with generated SDF (conditional arcs and wires included).
fn sdf_logic(gates: usize, inputs: usize, depth: usize, seed: u64) -> Arc<CircuitGraph> {
    let netlist = random_logic(&RandomLogicConfig {
        gates,
        inputs,
        depth,
        output_fraction: 0.1,
        seed,
    });
    let sdf = attach_sdf(
        &netlist,
        &SdfGenConfig {
            seed: seed ^ 0xBEEF,
            ..SdfGenConfig::default()
        },
    );
    Arc::new(CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap())
}

fn assert_bit_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert!(
        a.saif.diff(&b.saif).is_empty(),
        "{what}: SAIF diverged between the two runs"
    );
    assert_eq!(
        a.toggle_counts_slice(),
        b.toggle_counts_slice(),
        "{what}: toggle counts diverged"
    );
}

/// The event-driven reference run, with every signal's waveform recorded.
fn refsim(graph: &CircuitGraph, stimuli: &[Waveform], duration: SimTime) -> RefResult {
    EventSimulator::new(graph, RefConfig::default())
        .run(stimuli, duration)
        .unwrap()
}

/// The event-driven reference under the engine's windowed semantics, for
/// designs whose logic has not settled where the windows cut (a toggle
/// still in flight down a deep chain is lost at the cut, by design):
/// every window simulated on its own from the stimulus cut to it,
/// activity summed, waveforms stitched with toggles past a window's end
/// dropped.
fn windowed_refsim(
    graph: &CircuitGraph,
    stimuli: &[Waveform],
    windows: &[(SimTime, SimTime)],
) -> RefResult {
    let mut acc: Option<RefResult> = None;
    for &(start, end) in windows {
        let cut: Vec<Waveform> = stimuli.iter().map(|w| w.window(start, end)).collect();
        let mut r = refsim(graph, &cut, end - start);
        for w in r.waveforms.as_mut().expect("recorded") {
            *w = w.window(0, end - start);
        }
        let Some(acc) = acc.as_mut() else {
            acc = Some(r);
            continue;
        };
        acc.saif.duration += r.saif.duration;
        for (name, rec) in &r.saif.nets {
            let sum = acc.saif.nets.get_mut(name).expect("same net set");
            sum.t0 += rec.t0;
            sum.t1 += rec.t1;
            sum.tc += rec.tc;
        }
        for (sum, n) in acc.toggle_counts.iter_mut().zip(&r.toggle_counts) {
            *sum += n;
        }
        let waves = acc.waveforms.as_mut().expect("recorded");
        for (whole, w) in waves
            .iter_mut()
            .zip(r.waveforms.as_ref().expect("recorded"))
        {
            *whole = whole.concat(w, start);
        }
    }
    acc.expect("at least one window")
}

fn assert_matches_refsim(ours: &SimResult, r: &RefResult, what: &str) {
    assert!(
        ours.saif.diff(&r.saif).is_empty(),
        "{what}: SAIF diverged from refsim"
    );
    assert_eq!(
        ours.toggle_counts_slice(),
        &r.toggle_counts[..],
        "{what}: toggle counts diverged from refsim"
    );
}

/// Every signal's full waveform, edge for edge (`ours` must be spilled or
/// still device-backed).
fn assert_waveforms_match_refsim(ours: &SimResult, r: &RefResult, what: &str) {
    let ref_waves = r.waveforms.as_ref().expect("recorded");
    for (s, expected) in ref_waves.iter().enumerate() {
        assert_eq!(&ours.waveform(s).unwrap(), expected, "{what}: signal {s}");
    }
}

#[test]
fn deep_chain_serial_matches_overlapped() {
    let graph = deep_chain(600);
    let toggles: Vec<i32> = (1..12).map(|i| i * 700).collect();
    let stim = vec![Waveform::from_toggles(false, &toggles)];
    let duration = 10_000;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(100);
    let ours = Session::new(Arc::clone(&graph), cfg)
        .run_with(
            &stim,
            duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .unwrap();
    // 10 000 ticks over 4 slots aligned to 100: four 2 500-tick windows,
    // cut while toggles are still travelling down the 600-gate chain.
    let windows: Vec<_> = (0..4).map(|k| (k * 2500, (k + 1) * 2500)).collect();
    let r = windowed_refsim(&graph, &stim, &windows);
    assert_matches_refsim(&ours, &r, "deep chain");
    // Bit-identical waveforms too, via the durable spill copies.
    assert_waveforms_match_refsim(&ours, &r, "deep chain");
    assert!(
        ours.app_profile.speculative_hit_rate > 0.0,
        "the speculative path must actually have run"
    );
}

/// Wide levels against refsim with 7 windows per batch on a 4-worker
/// device. 7 does not divide the 512 threads of a block, so blocks split
/// gates between them, and levels of ~750 gates run those blocks on the
/// batch's worker set — on the speculative hit path and with
/// the extent history poisoned, so the repairs of split gates fold their
/// SAIF records too.
#[test]
fn wide_levels_serial_matches_overlapped_and_refsim() {
    let graph = sdf_logic(3000, 32, 4, 7);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(28, 400, 0.4, 11),
    );
    let duration = 28 * 400;
    // Levels of 8 or more blocks, spread over the device's 4 workers.
    assert!((0..graph.n_levels()).any(|l| 7 * graph.level_gates(l).len() > 4096));
    let r = refsim(&graph, &stimuli, duration);
    let mut cfg = SimConfig::small()
        .with_cycle_parallelism(7)
        .with_window_align(400);
    cfg.memory_words = 1 << 23;
    assert_eq!(cfg.threads_per_block, 512);
    let device = Arc::new(gatspi_gpu::Device::with_workers(
        cfg.device.clone(),
        cfg.memory_words,
        4,
    ));
    let sim = Session::with_devices(Arc::clone(&graph), cfg, vec![device]);
    for history in [0, 2] {
        sim.seed_extent_history(history);
        let ours = sim.run(&stimuli, duration).unwrap();
        let what = format!("wide levels, history {history}");
        assert_eq!(ours.segments(), 1, "{what}: one 7-window batch");
        if history > 0 {
            assert!(
                ours.app_profile.overflow_repairs > 0,
                "{what}: no repair ran"
            );
        }
        assert_matches_refsim(&ours, &r, &what);
    }
}

/// The launch accounting of the one schedule: every level of a batch is
/// one speculative store launch, plus one narrow repair launch if any of
/// its reservations overflowed. Pinned on the deep chain (one-gate levels,
/// launches run inline) and on wide levels (launches on a 4-worker set),
/// each cold — no repair — and with the extent history poisoned, so that
/// every level, each of which has a toggling output, needs its repair
/// launch. Both runs match the reference.
#[test]
fn launches_are_levels_plus_repair_launches() {
    let check = |graph: &Arc<CircuitGraph>,
                 stimuli: &[Waveform],
                 duration: SimTime,
                 cfg: SimConfig,
                 r: &RefResult,
                 what: &str| {
        let levels = graph.n_levels();
        assert!(
            (0..levels).all(|l| graph
                .level_gates(l)
                .iter()
                .any(|&g| r.toggle_counts[graph.gate_output(g as usize).index()] > 0)),
            "{what}: every level must toggle"
        );
        let device = Arc::new(gatspi_gpu::Device::with_workers(
            cfg.device.clone(),
            cfg.memory_words,
            4,
        ));
        let sim = Session::with_devices(Arc::clone(graph), cfg, vec![device]);
        for history in [0, 2] {
            sim.seed_extent_history(history);
            let ours = sim.run(stimuli, duration).unwrap();
            let what = format!("{what}, history {history}");
            assert_eq!(ours.segments(), 1, "{what}: one batch");
            let repair_launches = if history > 0 { levels } else { 0 };
            assert_eq!(
                ours.app_profile.launches as usize,
                levels + repair_launches,
                "{what}: launches"
            );
            assert_eq!(ours.app_profile.fused_launches, 0, "{what}");
            assert_eq!(
                ours.app_profile.overflow_repairs > 0,
                history > 0,
                "{what}: repairs"
            );
            assert_matches_refsim(&ours, r, &what);
        }
    };

    let deep = deep_chain(300);
    let toggles: Vec<i32> = (1..12).map(|i| i * 700).collect();
    let stim = vec![Waveform::from_toggles(false, &toggles)];
    let windows: Vec<_> = (0..4).map(|k| (k * 2500, (k + 1) * 2500)).collect();
    let r = windowed_refsim(&deep, &stim, &windows);
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(100);
    check(&deep, &stim, 10_000, cfg, &r, "deep chain");

    let wide = sdf_logic(3000, 32, 4, 7);
    let stimuli = generate(
        wide.primary_inputs().len(),
        &StimulusConfig::random(28, 400, 0.4, 11),
    );
    let duration = 28 * 400;
    // Levels of 8 or more blocks, spread over the device's 4 workers.
    assert!((0..wide.n_levels()).any(|l| 7 * wide.level_gates(l).len() > 4096));
    let r = refsim(&wide, &stimuli, duration);
    let mut cfg = SimConfig::small()
        .with_cycle_parallelism(7)
        .with_window_align(400);
    cfg.memory_words = 1 << 23;
    check(&wide, &stimuli, duration, cfg, &r, "wide levels");
}

#[test]
fn segmented_run_serial_matches_overlapped() {
    let graph = deep_chain(40);
    let toggles: Vec<i32> = (1..150).map(|i| i * 10 + 5).collect();
    let stim = vec![Waveform::from_toggles(false, &toggles)];
    let cfg = SimConfig::small()
        .with_cycle_parallelism(16)
        .with_window_align(10);
    let ours = Session::new(Arc::clone(&graph), cfg)
        .run_with(
            &stim,
            1500,
            &RunOptions::default()
                .with_segment_windows(4)
                .with_waveform_spill(),
        )
        .unwrap();
    assert!(ours.segments() > 1, "test must exercise segmentation");
    // 1 500 ticks over 16 slots aligned to 10: fifteen 100-tick windows.
    let windows: Vec<_> = (0..15).map(|k| (k * 100, (k + 1) * 100)).collect();
    let r = windowed_refsim(&graph, &stim, &windows);
    assert_matches_refsim(&ours, &r, "segmented run");
    assert_waveforms_match_refsim(&ours, &r, "segmented run, across segments");
}

/// Records every sink delivery so two runs can be compared call-for-call
/// and one run window-for-window against refsim.
#[derive(Default)]
struct Recorder {
    calls: Vec<(usize, WindowInfo, Vec<i32>)>,
}

impl WaveformSink for Recorder {
    fn waveform(&mut self, signal: usize, info: &WindowInfo, raw: &[i32]) {
        self.calls.push((signal, *info, raw.to_vec()));
    }
}

#[test]
fn streaming_sink_serial_matches_overlapped() {
    let graph = wide_graph(13);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.5, 23),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(400);
    let mut sink = Recorder::default();
    let ours = Session::new(Arc::clone(&graph), cfg)
        .run_streaming(
            &stimuli,
            duration,
            &RunOptions::default().with_segment_windows(3),
            &mut sink,
        )
        .unwrap();
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&ours, &r, "streaming run");
    assert!(!sink.calls.is_empty());
    // Every delivery is refsim's waveform of that signal cut to that
    // window: same value at the window start, same toggles inside it
    // (spillover past the window end is the consumer's to clip).
    let ref_waves = r.waveforms.as_ref().expect("recorded");
    for (signal, info, raw) in &sink.calls {
        let (initial, tail) = split_raw(raw);
        let toggles: Vec<SimTime> = tail
            .iter()
            .copied()
            .take_while(|&t| t != EOW && t < info.end - info.start)
            .collect();
        assert_eq!(
            Waveform::from_toggles(initial, &toggles),
            ref_waves[*signal].window(info.start, info.end),
            "signal {signal}, window {}",
            info.window
        );
    }
}

#[test]
fn multi_gpu_serial_matches_overlapped() {
    let graph = wide_graph(29);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.35, 31),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(400);
    let ours = on_fleet(&graph, cfg, 2).run(&stimuli, duration).unwrap();
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&ours, &r, "multi-GPU run");
}

/// Multi-GPU runs with waveform spill: each shard's batch is routed
/// through the spill sink and the windows merge in time order, so
/// `waveform()` works on multi-GPU results and matches a single-device
/// spilled run — and the event-driven reference — bit for bit.
#[test]
fn multi_gpu_spill_extracts_waveforms() {
    let graph = wide_graph(43);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.35, 57),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(400);
    // The single-device reference runs on an explicit 4-worker device, so
    // its multi-block launches run on a worker set's helpers, and is
    // compared against the multi-GPU shards, whose devices split the
    // host's workers between them.
    let single_cfg = cfg.clone().with_cycle_parallelism(8);
    let single_dev = Arc::new(gatspi_gpu::Device::with_workers(
        single_cfg.device.clone(),
        single_cfg.memory_words,
        4,
    ));
    let single = Session::with_devices(Arc::clone(&graph), single_cfg, vec![single_dev])
        .run_with(
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .unwrap();
    let multi = on_fleet(&graph, cfg, 2)
        .run_with(
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .unwrap();
    assert!(multi.app_profile.d2h_bytes > 0, "spill read waveforms back");
    assert!(multi.app_profile.d2h_batches > 0);
    assert!(multi.app_profile.readback_seconds > 0.0);
    for s in 0..graph.n_signals() {
        assert_eq!(
            multi.waveform(s).unwrap(),
            single.waveform(s).unwrap(),
            "signal {s}"
        );
    }
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&multi, &r, "multi-GPU spill");
    assert_waveforms_match_refsim(&multi, &r, "multi-GPU spill");
}

// --- The speculative store on scenarios of its own: wide levels, a warm
// incremental rerun, and the overflow-repair path. (Its segmented,
// streaming and multi-GPU runs are the tests above.)

#[test]
fn speculative_matches_two_pass_on_wide_classic_levels() {
    let graph = wide_graph(7);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(24, 400, 0.4, 11),
    );
    let duration = 24 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(400);
    let ours = Session::new(Arc::clone(&graph), cfg)
        .run(&stimuli, duration)
        .unwrap();
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&ours, &r, "wide classic levels");
    assert_eq!(
        ours.app_profile.launches as usize,
        graph.n_levels(),
        "a well-predicted single pass launches once per level"
    );
}

#[test]
fn speculative_matches_two_pass_on_incremental_rerun() {
    let graph = wide_graph(51);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.4, 41),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(400);
    let changed = vec![5usize, 40];
    let sim = Session::new(Arc::clone(&graph), cfg);
    let opts = RunOptions::default().with_waveform_spill();
    // The full run populates the session's extent history; the cone
    // sub-plan seeds from it, so the delta run speculates warm.
    let full = sim.run_with(&stimuli, duration, &opts).unwrap();
    let delta = sim
        .run_incremental(&full, &changed, &stimuli, duration, &opts)
        .unwrap();
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&delta, &r, "incremental rerun");
    assert_waveforms_match_refsim(&delta, &r, "incremental rerun, after the delta run");
}

/// Poisoned extent history — a 2-word budget for every gate — forces an
/// overflow on essentially every toggling (gate, window) thread, so the
/// final output is produced almost entirely by the exact repair launches.
/// The result must still be bit-identical to the reference: repair alone
/// reproduces it. The narrow design's levels fit one block, so its
/// launches run inline; the wide one's widest level spans 8 or more blocks
/// of 512, on a device of four host workers whatever the host's core
/// count, so its overflowing threads claim recorder slots from concurrent
/// workers.
#[test]
fn forced_overflow_repair_reproduces_two_pass_exactly() {
    for (graph, workers) in [
        (wide_graph(67), None),
        (sdf_logic(2400, 32, 4, 67), Some(4)),
    ] {
        let stimuli = generate(
            graph.primary_inputs().len(),
            &StimulusConfig::random(16, 400, 0.5, 73),
        );
        let duration = 16 * 400;
        let r = refsim(&graph, &stimuli, duration);
        let cfg = SimConfig::small()
            .with_cycle_parallelism(8)
            .with_window_align(400);
        let sim = match workers {
            None => Session::new(Arc::clone(&graph), cfg),
            Some(w) => {
                let device =
                    gatspi_gpu::Device::with_workers(cfg.device.clone(), cfg.memory_words, w);
                Session::with_devices(Arc::clone(&graph), cfg, vec![Arc::new(device)])
            }
        };
        sim.seed_extent_history(2);
        let ours = sim
            .run_with(
                &stimuli,
                duration,
                &RunOptions::default().with_waveform_spill(),
            )
            .unwrap();
        let what = format!("forced overflow, {} gates", graph.n_gates());
        if workers.is_some() {
            assert!(
                ours.kernel_profile.threads >= 4096,
                "{what}: the widest launch ran {} threads, under 8 blocks",
                ours.kernel_profile.threads
            );
        }
        assert!(
            ours.app_profile.overflow_repairs > 0,
            "{what}: tiny seeded budgets must overflow"
        );
        assert_matches_refsim(&ours, &r, &what);
        assert_waveforms_match_refsim(&ours, &r, &format!("{what}, from repair"));
    }
}

/// A mispredicted run costs its repairs once: the overflowing threads feed
/// their true extents to the predictor, so the same stimulus run again on
/// the same session is all hits — one launch per level, no repair.
#[test]
fn overflow_heals_after_one_run() {
    let graph = wide_graph(7);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(24, 400, 0.4, 11),
    );
    let duration = 24 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(400);
    let sim = Session::new(Arc::clone(&graph), cfg);
    sim.seed_extent_history(2);
    let poisoned = sim.run(&stimuli, duration).unwrap();
    assert!(poisoned.app_profile.overflow_repairs > 0);
    assert!(poisoned.app_profile.launches as usize > graph.n_levels());
    sim.seed_extent_history(0);
    let healed = sim.run(&stimuli, duration).unwrap();
    assert_eq!(healed.app_profile.overflow_repairs, 0);
    assert_eq!(healed.app_profile.speculative_hit_rate, 1.0);
    assert_eq!(healed.app_profile.launches as usize, graph.n_levels());
    assert_bit_identical(&poisoned, &healed, "poisoned vs healed run");
    let r = refsim(&graph, &stimuli, duration);
    assert_matches_refsim(&healed, &r, "healed run");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Random design + random delays + random stimulus, on a fleet of
    /// one to three devices: the engine must stay bit-identical to the
    /// event-driven reference.
    #[test]
    fn pipelined_executor_bit_identical_on_random_designs(
        seed in 0u64..5000,
        gates in 30usize..180,
        depth in 3usize..9,
        toggle_prob in 0.05f64..0.9,
        parallelism in 1usize..6,
        fleet in 1usize..4,
    ) {
        let netlist = random_logic(&RandomLogicConfig {
            gates,
            inputs: 10,
            depth,
            output_fraction: 0.1,
            seed,
        });
        let sdf = attach_sdf(&netlist, &SdfGenConfig {
            seed: seed ^ 0xF00D,
            ..SdfGenConfig::default()
        });
        let graph = Arc::new(
            CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap(),
        );
        let cycle = 400;
        let cycles = 16usize;
        let stimuli = generate(
            graph.primary_inputs().len(),
            &StimulusConfig::random(cycles, cycle, toggle_prob, seed ^ 0x77),
        );
        let duration = cycle * cycles as i32;
        let cfg = SimConfig::small()
            .with_cycle_parallelism(parallelism)
            .with_window_align(cycle);
        let ours = on_fleet(&graph, cfg, fleet).run(&stimuli, duration).unwrap();

        let r = EventSimulator::new(&graph, RefConfig {
            record_waveforms: false,
            ..RefConfig::default()
        })
        .run(&stimuli, duration)
        .unwrap();
        prop_assert!(ours.saif.diff(&r.saif).is_empty(),
            "engine run diverged from refsim");
        prop_assert_eq!(ours.toggle_counts_slice(), &r.toggle_counts[..]);
    }
}
