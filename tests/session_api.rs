//! Session-API acceptance tests: cached plans across segments and
//! multi-GPU fleets, host-spilled waveforms for segmented runs, streaming
//! sinks, the one window loop on fleets, and identical profiles and typed
//! errors across the run paths.

use std::sync::Arc;

use gatspi_core::{RunOptions, Session, SimConfig, SimResult, WaveformSink, WindowInfo};
use gatspi_gpu::{DeviceSpec, MultiGpu};
use gatspi_refsim::{EventSimulator, RefConfig};
use gatspi_workloads::suite::{table2_suite, BuiltBenchmark};

fn bench(scale: f64) -> BuiltBenchmark {
    table2_suite()[0].build_at_scale(scale)
}

fn config(b: &BuiltBenchmark, parallelism: usize) -> SimConfig {
    SimConfig::small()
        .with_cycle_parallelism(parallelism)
        .with_window_align(b.cycle_time)
}

fn session(b: &BuiltBenchmark, parallelism: usize) -> Session {
    Session::new(Arc::clone(&b.graph), config(b, parallelism))
}

/// A session on a fleet of `n` V100s with `words`-word arenas.
fn fleet_session(b: &BuiltBenchmark, cfg: SimConfig, n: usize, words: usize) -> Session {
    let gpus = MultiGpu::new(DeviceSpec::v100(), n, words);
    Session::with_devices(Arc::clone(&b.graph), cfg, gpus.devices().to_vec())
}

/// `ours` reproduces the event-driven reference's SAIF bit for bit.
fn assert_matches_refsim(b: &BuiltBenchmark, ours: &SimResult, what: &str) {
    let r = EventSimulator::new(
        &b.graph,
        RefConfig {
            record_waveforms: false,
            ..RefConfig::default()
        },
    )
    .run(&b.stimuli, b.duration)
    .expect("refsim run");
    let diffs = ours.saif.diff(&r.saif);
    assert!(diffs.is_empty(), "{what}: {:?}", diffs.first());
}

/// Equal-window-count segments share one `LevelSchedule` build: forcing a
/// run into equal segments must report exactly one plan miss and no hit
/// (the run looks its plan up once), and the split run must match the
/// unsegmented one bit-exactly.
#[test]
fn equal_nw_segments_build_schedule_once() {
    let b = bench(0.15);
    let sim = session(&b, 8);
    let whole = sim.run(&b.stimuli, b.duration).expect("whole run");

    let split_sim = session(&b, 8);
    let r = split_sim
        .run_with(
            &b.stimuli,
            b.duration,
            &RunOptions::default().with_segment_windows(4),
        )
        .expect("split run");
    assert_eq!(r.segments(), 2, "8 windows capped at 4 → two segments");
    let stats = split_sim.plan_cache_stats();
    assert_eq!(
        stats.misses, 1,
        "two equal-nw segments must build the LevelSchedule exactly once"
    );
    assert_eq!(stats.hits, 0);
    assert!(whole.saif.diff(&r.saif).is_empty());
}

/// Multi-GPU sharding builds one schedule for the whole run (even shards)
/// and matches the single-device result bit-exactly.
#[test]
fn multi_gpu_shares_one_schedule_and_matches() {
    let b = bench(0.2);
    let single = session(&b, 8)
        .run(&b.stimuli, b.duration)
        .expect("single run");

    let n = 2;
    let sim = fleet_session(&b, config(&b, 4), n, 1 << 20);
    let multi = sim.run(&b.stimuli, b.duration).expect("multi run");
    let stats = sim.plan_cache_stats();
    assert_eq!(
        stats.misses, 1,
        "even shards: one LevelSchedule build per multi-GPU run"
    );
    // The run looks its plan up once, before the window loop: the shards
    // share that lookup.
    assert_eq!(stats.hits, 0);
    assert!(single.saif.diff(&multi.saif).is_empty());
    assert_eq!(single.total_toggles(), multi.total_toggles());
}

/// One plan serves every window count: runs of 8, 4, 2 and 1 windows, then
/// 8 windows under segment caps of 3, 5 and 7 (batches of every size from
/// 1 to 8 but 6), build one schedule on one session, and every run equals a
/// fresh session's.
#[test]
fn one_plan_serves_every_window_count() {
    let b = bench(0.15);
    let sim = session(&b, 8);
    let cycles = |n: i32| n * b.cycle_time;
    assert!(b.duration >= cycles(8));
    let mut runs: Vec<(i32, RunOptions)> = [8, 4, 2, 1]
        .into_iter()
        .map(|n| (cycles(n), RunOptions::default()))
        .collect();
    for cap in [3, 5, 7] {
        runs.push((cycles(8), RunOptions::default().with_segment_windows(cap)));
    }
    for (duration, opts) in &runs {
        let ours = sim.run_with(&b.stimuli, *duration, opts).expect("run");
        let fresh = session(&b, 8)
            .run(&b.stimuli, *duration)
            .expect("fresh session run");
        assert!(
            fresh.saif.diff(&ours.saif).is_empty(),
            "duration {duration}, {opts:?}"
        );
        assert_eq!(fresh.toggle_counts_slice(), ours.toggle_counts_slice());
    }
    let stats = sim.plan_cache_stats();
    assert_eq!(stats.misses, 1, "one schedule for every window count");
    assert_eq!(stats.cached, 1);
    assert_eq!(stats.hits as usize, runs.len() - 1, "one lookup per run");
}

/// The session keeps the cone plan of the latest changed set only: twenty
/// distinct one-gate sets leave the full plan and one cone plan cached,
/// repeating the latest set hits it, and every incremental result equals
/// the full re-simulation (the delays are unchanged).
#[test]
fn cone_cache_keeps_the_latest_changed_set() {
    let b = bench(0.15);
    let sim = session(&b, 8);
    let spill = RunOptions::default().with_waveform_spill();
    let full = sim
        .run_with(&b.stimuli, b.duration, &spill)
        .expect("full run");
    let n_gates = b.graph.n_gates();
    assert!(n_gates >= 20);
    let sets: Vec<usize> = (0..20).map(|k| k * n_gates / 20).collect();
    for (k, &gate) in sets.iter().chain(sets.last()).enumerate() {
        let inc = sim
            .run_incremental(&full, &[gate], &b.stimuli, b.duration, &spill)
            .expect("incremental run");
        assert!(full.saif.diff(&inc.saif).is_empty(), "run {k}, gate {gate}");
        assert_eq!(full.toggle_counts_slice(), inc.toggle_counts_slice());
        let stats = sim.plan_cache_stats();
        assert_eq!(stats.cached, 2, "the full plan and the latest cone plan");
        let misses = (k + 1).min(sets.len()) as u64;
        assert_eq!(
            (stats.cone_misses, stats.cone_hits),
            (misses, k as u64 + 1 - misses)
        );
    }
}

/// Host waveform spill: a segmented run returns the same full-duration
/// waveform for *every* signal as the unsegmented reference run.
#[test]
fn segmented_waveforms_correct_after_host_spill() {
    let b = bench(0.2);
    let spill = RunOptions::default().with_waveform_spill();
    let roomy = session(&b, 16)
        .run_with(&b.stimuli, b.duration, &spill)
        .expect("roomy");
    assert_eq!(roomy.segments(), 1);

    let tight_cfg = SimConfig {
        memory_words: 40_000,
        ..SimConfig::small()
    }
    .with_cycle_parallelism(16)
    .with_window_align(b.cycle_time);
    let tight = Session::new(Arc::clone(&b.graph), tight_cfg)
        .run_with(&b.stimuli, b.duration, &spill)
        .expect("segmented run");
    assert!(tight.segments() > 1, "expected segmentation");
    assert!(roomy.saif.diff(&tight.saif).is_empty());
    for s in 0..b.graph.n_signals() {
        assert_eq!(
            roomy.waveform(s).expect("host spill"),
            tight.waveform(s).expect("host spill"),
            "signal {s} diverged after host spill"
        );
    }
}

/// A streaming sink observes every window exactly once, in run order, and
/// raw windows agree with `SimResult::raw_window` on the spilled result.
#[test]
fn streaming_sink_observes_run_in_order() {
    #[derive(Default)]
    struct Collect {
        seen: Vec<(usize, usize)>, // (window, segment)
        raws: Vec<(usize, usize, Vec<i32>)>,
    }
    impl WaveformSink for Collect {
        fn waveform(&mut self, signal: usize, info: &WindowInfo, raw: &[i32]) {
            if self.seen.last().map(|&(w, _)| w) != Some(info.window) {
                self.seen.push((info.window, info.segment));
            }
            self.raws.push((signal, info.window, raw.to_vec()));
        }
    }

    let b = bench(0.15);
    let sim = session(&b, 4);
    let mut sink = Collect::default();
    let r = sim
        .run_streaming(
            &b.stimuli,
            b.duration,
            &RunOptions::default()
                .with_waveform_spill()
                .with_segment_windows(2),
            &mut sink,
        )
        .expect("streaming run");
    assert_eq!(r.segments(), 2);
    // Windows arrive strictly in order, with monotone segment indices.
    let windows: Vec<usize> = sink.seen.iter().map(|&(w, _)| w).collect();
    assert_eq!(windows, (0..windows.len()).collect::<Vec<_>>());
    assert!(sink.seen.windows(2).all(|p| p[0].1 <= p[1].1));
    // The user sink and the built-in spill saw the same raw words.
    for (signal, window, raw) in sink.raws.iter().take(64) {
        let from_result = r.raw_window(*signal, *window).expect("raw window");
        assert!(
            raw.starts_with(&from_result),
            "sink raw must begin with the stored waveform up to EOW"
        );
    }
}

/// The run paths share one segment driver, so the same design must report
/// the same profile whichever path executes it: a 1-device fleet is a
/// single-device run, and a fleet reports the batches it executed — not
/// the devices it was offered.
#[test]
fn single_device_and_one_gpu_fleet_report_identical_profiles() {
    let b = bench(0.15);
    let single = session(&b, 4)
        .run(&b.stimuli, b.duration)
        .expect("single run");
    let words = SimConfig::small().memory_words;
    let fleet = fleet_session(&b, config(&b, 4), 1, words)
        .run(&b.stimuli, b.duration)
        .expect("1-device fleet run");

    assert!(single.saif.diff(&fleet.saif).is_empty());
    assert_eq!(single.segments(), fleet.segments());
    let (s, f) = (&single.app_profile, &fleet.app_profile);
    assert_eq!(s.launches, f.launches);
    assert_eq!(s.overflow_repairs, f.overflow_repairs);
    assert_eq!(s.speculative_hit_rate, f.speculative_hit_rate);

    // One window across four devices: three shards are empty, one batch runs.
    let cfg = SimConfig::small()
        .with_cycle_parallelism(1)
        .with_window_align(b.duration);
    let r = fleet_session(&b, cfg, 4, 1 << 20)
        .run(&b.stimuli, b.duration)
        .expect("one-window fleet run");
    assert_eq!(r.segments(), 1, "segments() counts executed batches");
    assert!(single.saif.diff(&r.saif).is_empty());
}

/// A negative duration is a configuration error on every run path — a typed
/// `CoreError`, never a panic out of SAIF assembly — and a zero duration is
/// a valid run with nothing in it.
#[test]
fn negative_duration_is_a_typed_error_on_every_run_path() {
    use gatspi_core::CoreError;

    let b = bench(0.15);
    let sim = session(&b, 4);
    let fleet = fleet_session(&b, config(&b, 4), 2, 1 << 20);
    assert!(matches!(
        sim.run(&b.stimuli, -5),
        Err(CoreError::BadConfig { .. })
    ));
    assert!(matches!(
        fleet.run(&b.stimuli, -5),
        Err(CoreError::BadConfig { .. })
    ));
    // An incremental run checks its duration against the previous result's
    // first, so a negative one is a mismatch like any other.
    let spilled = RunOptions::default().with_waveform_spill();
    let prev = sim
        .run_with(&b.stimuli, b.duration, &spilled)
        .expect("spilled run");
    assert!(matches!(
        sim.run_incremental(&prev, &[0], &b.stimuli, -5, &spilled),
        Err(CoreError::BadIncremental { .. })
    ));

    for r in [sim.run(&b.stimuli, 0), fleet.run(&b.stimuli, 0)] {
        assert_eq!(r.expect("zero-duration run").total_toggles(), 0);
    }
}

/// Repeated stimuli against one session (the paper's re-simulation loop)
/// never rebuild the plan, and results are reproducible.
#[test]
fn repeated_runs_reuse_plans() {
    let b = bench(0.15);
    let sim = session(&b, 8);
    let first = sim.run(&b.stimuli, b.duration).expect("run 1");
    for _ in 0..3 {
        let again = sim.run(&b.stimuli, b.duration).expect("run n");
        assert!(first.saif.diff(&again.saif).is_empty());
    }
    let stats = sim.plan_cache_stats();
    assert_eq!(stats.misses, 1, "one build across four runs");
    assert_eq!(stats.hits, 3);
}

/// The fleet runs the one window loop, OOM halving included: a 2-device
/// fleet whose shards overflow 16 384-word arenas splits them into
/// segments, like one device does, and matches it and the reference.
#[test]
fn fleet_segments_shards_that_overflow_the_arena() {
    let b = bench(0.15);
    let cfg = SimConfig {
        memory_words: 16_384,
        ..config(&b, 8)
    };
    let single = Session::new(Arc::clone(&b.graph), cfg.clone())
        .run(&b.stimuli, b.duration)
        .expect("single-device run");
    assert!(single.segments() > 1, "one device must segment");
    let fleet = fleet_session(&b, cfg, 2, 16_384)
        .run(&b.stimuli, b.duration)
        .expect("2-device fleet run");
    assert!(fleet.app_profile.oom_retries > 0, "a shard overflowed");
    assert!(fleet.segments() > 2, "the overflowing shards segmented");
    assert!(single.saif.diff(&fleet.saif).is_empty());
    assert_eq!(single.toggle_counts_slice(), fleet.toggle_counts_slice());
    assert_matches_refsim(&b, &fleet, "segmented fleet");
}

/// A fleet's counts are a pure function of its inputs: every device of a
/// round reserves from the extent history as the previous round left it,
/// so a 3-device fleet whose shards overflow 14 000-word arenas reports
/// the same segments, repairs, waste, D2H batches and modeled seconds on
/// every run.
#[test]
fn fleet_counts_repeat_run_to_run() {
    let b = bench(0.15);
    let cfg = SimConfig {
        memory_words: 14_000,
        ..config(&b, 8)
    };
    let spill = RunOptions::default().with_waveform_spill();
    let counts = || {
        let r = fleet_session(&b, cfg.clone(), 3, 14_000)
            .run_with(&b.stimuli, b.duration, &spill)
            .expect("3-device fleet run");
        let p = &r.app_profile;
        (
            r.segments(),
            p.oom_retries,
            p.overflow_repairs,
            p.predicted_waste_words,
            p.d2h_batches,
            r.kernel_profile.modeled_seconds.to_bits(),
        )
    };
    let first = counts();
    assert!(first.1 > 0, "a shard overflowed its arena");
    for run in 1..20 {
        assert_eq!(counts(), first, "run {run} differs from run 0");
    }
}

/// `RunOptions::segment_windows` caps every device's ranges: a 4-window
/// run on 2 devices capped at one window executes 4 ranges, in 2 rounds.
#[test]
fn segment_windows_caps_fleet_ranges() {
    let b = bench(0.15);
    let opts = RunOptions::default().with_segment_windows(1);
    let sim = fleet_session(&b, config(&b, 2), 2, 1 << 20);
    let capped = sim
        .run_with(&b.stimuli, b.duration, &opts)
        .expect("capped fleet run");
    assert_eq!(capped.segments(), 4, "one range per window");
    let stats = sim.plan_cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 0), "one lookup per run");
    let single = session(&b, 4)
        .run(&b.stimuli, b.duration)
        .expect("single-device run");
    assert!(single.saif.diff(&capped.saif).is_empty());
    assert_matches_refsim(&b, &capped, "capped fleet");
}

/// Incremental runs take the same loop, so they work on a fleet: a
/// 2-device fleet's delta run equals the single-device delta run (and,
/// the delays being unchanged, the reference).
#[test]
fn incremental_run_on_a_fleet_matches_single_device() {
    let b = bench(0.15);
    let spill = RunOptions::default().with_waveform_spill();
    let changed = [0usize, b.graph.n_gates() / 2];
    let delta = |sim: &Session| {
        let full = sim
            .run_with(&b.stimuli, b.duration, &spill)
            .expect("full run");
        sim.run_incremental(&full, &changed, &b.stimuli, b.duration, &spill)
            .expect("incremental run")
    };
    let single = delta(&session(&b, 8));
    let fleet = delta(&fleet_session(&b, config(&b, 4), 2, 1 << 20));
    assert_eq!(fleet.segments(), 2, "one cone batch per device");
    assert!(single.saif.diff(&fleet.saif).is_empty());
    assert_eq!(single.toggle_counts_slice(), fleet.toggle_counts_slice());
    for s in 0..b.graph.n_signals() {
        assert_eq!(
            single.waveform(s).expect("single-device spill"),
            fleet.waveform(s).expect("fleet spill"),
            "signal {s}"
        );
    }
    assert_matches_refsim(&b, &fleet, "incremental fleet run");
}

/// Configurations the clamping builders would never produce, set field by
/// field, on one device and on a 2-device fleet: each run returns `Ok`
/// with the reference's SAIF — none panics. Each case departs in one
/// respect from a base whose 10 windows each span 3 of the design's 30
/// cycles, so even a window alignment clamped to one tick cuts at cycle
/// boundaries, where the windowed engine and the reference agree exactly.
#[test]
fn degenerate_configs_match_refsim() {
    use gatspi_graph::{CircuitGraph, GraphOptions};
    use gatspi_netlist::{CellLibrary, NetlistBuilder};
    use gatspi_wave::Waveform;

    let b = bench(0.05);
    assert_eq!((b.cycles, b.duration), (30, 30 * b.cycle_time));
    // Tie cells only: no primary inputs, so the stimulus slice is empty.
    let mut nb = NetlistBuilder::new("ties", CellLibrary::industry_mini());
    for (i, cell) in ["TIEHI", "TIELO"].into_iter().enumerate() {
        let y = nb.add_output(&format!("y{i}")).expect("output");
        nb.add_gate(&format!("u{i}"), cell, &[], y)
            .expect("tie gate");
    }
    let netlist = nb.finish().expect("tie netlist");
    let ties = CircuitGraph::build(&netlist, None, &GraphOptions::default()).expect("tie graph");
    let ties = Arc::new(ties);
    assert!(ties.primary_inputs().is_empty());

    let check = |what: &str,
                 graph: &Arc<CircuitGraph>,
                 stimuli: &[Waveform],
                 duration: i32,
                 cfg: SimConfig| {
        let reference = EventSimulator::new(graph, RefConfig::default())
            .run(stimuli, duration)
            .expect("refsim run");
        let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 1 << 20);
        let sessions = [
            Session::new(Arc::clone(graph), cfg.clone()),
            Session::with_devices(Arc::clone(graph), cfg, gpus.devices().to_vec()),
        ];
        for (sim, on) in sessions.iter().zip(["one device", "a 2-device fleet"]) {
            let r = sim
                .run(stimuli, duration)
                .unwrap_or_else(|e| panic!("{what} on {on}: {e}"));
            let diffs = r.saif.diff(&reference.saif);
            assert!(diffs.is_empty(), "{what} on {on}: {:?}", diffs.first());
        }
    };
    let base = config(&b, 10);
    let fields = [
        (
            "cycle_parallelism 0",
            SimConfig {
                cycle_parallelism: 0,
                ..base.clone()
            },
        ),
        (
            "window_align 0",
            SimConfig {
                window_align: 0,
                ..base.clone()
            },
        ),
        (
            "window_align -7",
            SimConfig {
                window_align: -7,
                ..base.clone()
            },
        ),
        (
            "window_align > duration",
            SimConfig {
                window_align: i32::MAX,
                ..base.clone()
            },
        ),
    ];
    for (what, cfg) in fields {
        check(what, &b.graph, &b.stimuli, b.duration, cfg);
    }
    check("duration 0", &b.graph, &b.stimuli, 0, base.clone());
    check("tie cells only", &ties, &[], b.duration, base);
}
