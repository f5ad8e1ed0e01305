//! Chaos suite: deterministic fault injection must never change what a
//! run produces — only whether (and how) it recovers. Randomized
//! [`FaultPlan`] schedules of transient launch/allocation/transfer faults
//! and stalls are replayed against serial, segmented, streaming,
//! incremental and multi-GPU runs and compared bit-for-bit against
//! fault-free baselines; permanent device loss mid-run exercises
//! multi-GPU shard failover; and a faulted session must stay usable
//! (un-poisoned scratch pool and plan cache).
//!
//! Run with `cargo test --features fault-inject`. The rotating-seed test
//! honours `GATSPI_CHAOS_SEED` so CI can sweep fresh schedules while
//! staying replayable from its log.
#![cfg(feature = "fault-inject")]

use std::sync::Arc;

use gatspi_core::{
    CoreError, FaultKind, RetryPolicy, RunOptions, Session, SimConfig, SimResult, WaveformSink,
    WindowInfo,
};
use gatspi_gpu::{Device, DeviceSpec, FaultInjector, FaultPlan, FaultSite, MultiGpu};
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_workloads::circuits::{random_logic, RandomLogicConfig};
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};
use proptest::prelude::*;

/// Random logic with SDF delays — wide enough for multi-gate levels, MSI
/// activity and real spill traffic.
fn wide_graph(seed: u64) -> Arc<CircuitGraph> {
    let netlist = random_logic(&RandomLogicConfig {
        gates: 220,
        inputs: 12,
        depth: 5,
        output_fraction: 0.15,
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

/// Plenty of attempts, no backoff sleeps: chaos tests probe equivalence,
/// not wall-clock recovery pacing.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 12,
        backoff_base: 0.0,
        backoff_factor: 2.0,
        backoff_cap: 0.0,
    }
}

fn test_config() -> SimConfig {
    SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(400)
        .with_retry_policy(fast_retry())
}

fn arm(device: &Device, plan: &FaultPlan, device_index: usize) -> Arc<FaultInjector> {
    let inj = Arc::new(FaultInjector::new(plan, device_index));
    device.arm_faults(Some(Arc::clone(&inj)));
    inj
}

/// Baseline and fault-injected runs share one workload shape.
fn workload(seed: u64) -> (Arc<CircuitGraph>, Vec<gatspi_wave::Waveform>, i32) {
    let graph = wide_graph(seed % 7);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(12, 400, 0.4, seed ^ 0x55),
    );
    (graph, stimuli, 12 * 400)
}

/// Runs streaming VCD + spill and returns the observable outputs.
fn run_streamed(
    session: &Session,
    stimuli: &[gatspi_wave::Waveform],
    duration: i32,
) -> (SimResult, Vec<u8>) {
    let opts = RunOptions::default()
        .with_waveform_spill()
        .with_segment_windows(2);
    session
        .run_to_vcd(stimuli, duration, &opts, Vec::new())
        .unwrap()
}

fn assert_same_outputs(a: &SimResult, b: &SimResult) {
    assert!(
        a.saif.diff(&b.saif).is_empty(),
        "SAIF diverged under fault injection: {:?}",
        a.saif.diff(&b.saif).first()
    );
    assert_eq!(
        a.toggle_counts_slice(),
        b.toggle_counts_slice(),
        "toggle counts diverged"
    );
}

fn chaos_roundtrip(seed: u64) {
    let (graph, stimuli, duration) = workload(seed);
    let session = Session::new(Arc::clone(&graph), test_config());
    let (clean, clean_vcd) = run_streamed(&session, &stimuli, duration);

    let plan = FaultPlan::seeded(seed, 40);
    let inj = arm(session.device(), &plan, 0);
    let (chaotic, chaotic_vcd) = run_streamed(&session, &stimuli, duration);
    session.device().arm_faults(None);

    assert_eq!(
        clean_vcd, chaotic_vcd,
        "streamed VCD diverged (seed {seed})"
    );
    assert_same_outputs(&clean, &chaotic);
    for s in 0..graph.n_signals() {
        assert_eq!(
            clean.waveform(s).unwrap(),
            chaotic.waveform(s).unwrap(),
            "spilled waveform {s} diverged (seed {seed})"
        );
    }
    // Every injected non-stall fault is transient, so each one must show
    // up as a successful segment retry — and nothing else may.
    assert_eq!(
        chaotic.app_profile.faults_injected, chaotic.app_profile.segment_retries,
        "every transient fault retries exactly once (seed {seed})"
    );
    assert!(
        chaotic.app_profile.faults_injected + plan.len() as u64 >= inj.injected(),
        "stalls aside, fired faults surface in telemetry (seed {seed})"
    );
    assert_eq!(chaotic.app_profile.failovers, 0);

    // A follow-up run on the disarmed session reproduces the baseline:
    // retries left no residue in the scratch pool or plan cache.
    let (after, after_vcd) = run_streamed(&session, &stimuli, duration);
    assert_eq!(
        clean_vcd, after_vcd,
        "post-chaos session is poisoned (seed {seed})"
    );
    assert_same_outputs(&clean, &after);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Randomized transient fault schedules (launch, allocation, transfer,
    /// stalls) leave serial/segmented/streaming outputs bit-identical.
    #[test]
    fn randomized_fault_schedules_are_output_invariant(seed in 0u64..10_000) {
        chaos_roundtrip(seed);
    }

    /// The same property over the multi-GPU path: every device runs its
    /// own randomized transient schedule; the streamed VCD, SAIF and
    /// spilled waveforms still match the fault-free fleet bit-for-bit.
    #[test]
    fn randomized_fault_schedules_are_output_invariant_multi_gpu(seed in 0u64..10_000) {
        let (graph, stimuli, duration) = workload(seed);
        let session = Session::new(Arc::clone(&graph), test_config());
        let opts = RunOptions::default().with_waveform_spill();

        let gpus = MultiGpu::new(DeviceSpec::v100(), 3, 1 << 18);
        let (clean, clean_vcd) = session
            .run_multi_gpu_to_vcd(&gpus, &stimuli, duration, &opts, Vec::new())
            .unwrap();

        for d in 0..gpus.len() {
            arm(gpus.device(d), &FaultPlan::seeded(seed ^ d as u64, 30), d);
        }
        let (chaotic, chaotic_vcd) = session
            .run_multi_gpu_to_vcd(&gpus, &stimuli, duration, &opts, Vec::new())
            .unwrap();
        for d in 0..gpus.len() {
            gpus.device(d).arm_faults(None);
        }

        prop_assert_eq!(clean_vcd, chaotic_vcd, "multi-GPU streamed VCD diverged");
        assert_same_outputs(&clean, &chaotic);
        prop_assert_eq!(
            chaotic.app_profile.faults_injected,
            chaotic.app_profile.segment_retries
        );
        prop_assert_eq!(chaotic.app_profile.failovers, 0);
    }

    /// Incremental (cone-restricted) re-simulation under randomized
    /// transient faults reproduces the fault-free delta run exactly.
    #[test]
    fn randomized_fault_schedules_keep_incremental_runs_identical(seed in 0u64..10_000) {
        let (graph, stimuli, duration) = workload(seed);
        let session = Session::new(Arc::clone(&graph), test_config());
        let opts = RunOptions::default().with_waveform_spill();
        let full = session.run_with(&stimuli, duration, &opts).unwrap();
        let changed = [0usize, (graph.n_gates() / 2).max(1) - 1];

        let clean = session
            .run_incremental(&full, &changed, &stimuli, duration, &opts)
            .unwrap();

        arm(session.device(), &FaultPlan::seeded(seed ^ 0xD17A, 24), 0);
        let chaotic = session
            .run_incremental(&full, &changed, &stimuli, duration, &opts)
            .unwrap();
        session.device().arm_faults(None);

        assert_same_outputs(&clean, &chaotic);
        for s in 0..graph.n_signals() {
            prop_assert_eq!(
                clean.waveform(s).unwrap(),
                chaotic.waveform(s).unwrap(),
                "incremental waveform {} diverged", s
            );
        }
        prop_assert_eq!(
            chaotic.app_profile.faults_injected,
            chaotic.app_profile.segment_retries
        );
    }
}

/// A device dying permanently mid-run on a multi-GPU fleet: the dead
/// device's shard fails over to the survivors and the run completes with
/// outputs bit-identical to a fault-free fleet — the ISSUE's acceptance
/// scenario.
#[test]
fn permanent_mid_run_device_loss_fails_over_bit_identical() {
    let (graph, stimuli, duration) = workload(3);
    let session = Session::new(Arc::clone(&graph), test_config());
    let opts = RunOptions::default().with_waveform_spill();

    let gpus = MultiGpu::new(DeviceSpec::v100(), 3, 1 << 18);
    let (clean, clean_vcd) = session
        .run_multi_gpu_to_vcd(&gpus, &stimuli, duration, &opts, Vec::new())
        .unwrap();

    // A shard is read back one level region at a time, so device 1
    // uploads and launches its shard, then dies for good at the third of
    // its five readbacks — a permanent mid-run loss with work already done.
    assert_eq!(graph.n_levels(), 5);
    assert_eq!(
        clean.app_profile.d2h_batches,
        3 * 5,
        "one per shard and level"
    );
    let plan = FaultPlan::new().with_fault(FaultSite::Transfer, 2, true);
    let inj = arm(gpus.device(1), &plan, 1);
    let (degraded, degraded_vcd) = session
        .run_multi_gpu_to_vcd(&gpus, &stimuli, duration, &opts, Vec::new())
        .unwrap();
    gpus.device(1).arm_faults(None);

    assert!(inj.is_failed(), "the permanent fault latched the device");
    assert_eq!(clean_vcd, degraded_vcd, "failover changed the streamed VCD");
    assert_same_outputs(&clean, &degraded);
    for s in 0..graph.n_signals() {
        assert_eq!(
            clean.waveform(s).unwrap(),
            degraded.waveform(s).unwrap(),
            "failover changed spilled waveform {s}"
        );
    }
    assert!(
        degraded.app_profile.failovers >= 1,
        "degraded-mode telemetry must report the failover"
    );
    assert!(degraded.app_profile.faults_injected >= 1);

    // Post-hoc SAIF from a degraded fleet too: device 0 dies mid-upload.
    let gpus2 = MultiGpu::new(DeviceSpec::v100(), 3, 1 << 18);
    let plan2 = FaultPlan::new().with_fault(FaultSite::Alloc, 20, true);
    arm(gpus2.device(0), &plan2, 0);
    let rerun = session.run_multi_gpu(&gpus2, &stimuli, duration).unwrap();
    assert_same_outputs(&clean, &rerun);
    assert!(rerun.app_profile.failovers >= 1);
}

/// With every device permanently dead there is no survivor to fail over
/// to: the run must report the device fault instead of hanging or
/// unwinding the process.
#[test]
fn multi_gpu_with_no_survivors_reports_the_fault() {
    let (graph, stimuli, duration) = workload(5);
    let session = Session::new(graph, test_config());
    let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 1 << 18);
    for d in 0..gpus.len() {
        arm(
            gpus.device(d),
            &FaultPlan::new().with_fault(FaultSite::Launch, 0, true),
            d,
        );
    }
    match session.run_multi_gpu(&gpus, &stimuli, duration) {
        Err(CoreError::DeviceFault {
            kind: FaultKind::Launch,
            retryable: false,
            ..
        }) => {}
        other => panic!("expected a permanent launch fault, got {other:?}"),
    }
}

/// A fault that defeats the retry budget fails the run with a structured
/// error — and leaves the session fully usable: the next run reproduces a
/// fresh session's output bit-for-bit (scratch pool and plan cache are
/// un-poisoned).
#[test]
fn session_survives_faulted_runs_unpoisoned() {
    let (graph, stimuli, duration) = workload(7);
    let cfg = test_config().with_retry_policy(RetryPolicy::none());
    let session = Session::new(Arc::clone(&graph), cfg);
    let (clean, clean_vcd) = run_streamed(&session, &stimuli, duration);

    // Permanent allocation fault: dies during stimulus upload.
    arm(
        session.device(),
        &FaultPlan::new().with_fault(FaultSite::Alloc, 10, true),
        0,
    );
    match session.run(&stimuli, duration) {
        Err(CoreError::DeviceFault {
            device: 0,
            kind: FaultKind::Alloc,
            retryable: false,
        }) => {}
        other => panic!("expected a permanent alloc fault, got {other:?}"),
    }

    // Transient transfer fault with a single-attempt policy: retries are
    // exhausted immediately and the error says so.
    arm(
        session.device(),
        &FaultPlan::new().with_fault(FaultSite::Transfer, 0, false),
        0,
    );
    let spill = RunOptions::default().with_waveform_spill();
    match session.run_with(&stimuli, duration, &spill) {
        Err(CoreError::DeviceFault {
            kind: FaultKind::Transfer,
            retryable: true,
            ..
        }) => {}
        other => panic!("expected exhausted transfer retries, got {other:?}"),
    }

    session.device().arm_faults(None);
    let (after, after_vcd) = run_streamed(&session, &stimuli, duration);
    assert_eq!(clean_vcd, after_vcd, "failed runs poisoned the session");
    assert_same_outputs(&clean, &after);
}

/// A caller-supplied streaming sink that panics mid-run must fail that
/// run with a structured error — isolated at the segment boundary, not
/// aborting the process — and leave the session usable.
#[test]
fn panicking_user_sink_fails_the_run_not_the_process() {
    struct Grenade;
    impl WaveformSink for Grenade {
        fn waveform(&mut self, _signal: usize, _info: &WindowInfo, _raw: &[i32]) {
            panic!("user sink exploded");
        }
    }
    let (graph, stimuli, duration) = workload(9);
    let session = Session::new(Arc::clone(&graph), test_config());
    let mut sink = Grenade;
    match session.run_streaming(&stimuli, duration, &RunOptions::default(), &mut sink) {
        Err(CoreError::DeviceFault {
            kind: FaultKind::Worker,
            retryable: false,
            ..
        }) => {}
        other => panic!("expected an isolated worker fault, got {other:?}"),
    }
    // The session shrugs it off.
    session.run(&stimuli, duration).unwrap();
}

/// Rotating-seed chaos run: CI sets `GATSPI_CHAOS_SEED` to sweep fresh
/// schedules (one per pipeline run); the seed is printed so any failure
/// is replayable by exporting the same value locally.
#[test]
fn rotating_seed_chaos_roundtrip() {
    let seed = std::env::var("GATSPI_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC0FFEE);
    println!("GATSPI_CHAOS_SEED={seed}");
    chaos_roundtrip(seed);
}
