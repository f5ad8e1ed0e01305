//! The compiled-session API: prepare once, re-simulate many times.
//!
//! The paper's speedup story rests on doing graph preparation once and then
//! re-simulating many stimuli fast. [`Session`] is that split made
//! explicit: building one from `(CircuitGraph, SimConfig)` owns the
//! simulated devices it runs on (one, or a fleet — one device is the fleet
//! of one), the design's [`LevelSchedule`] (one plan for every window
//! count) and a pool of [`BatchScratch`] arenas, so repeated runs — more
//! segments of one stimulus, or entirely new stimuli — skip every piece of
//! preparation that does not depend on the stimulus itself. Execution is
//! driven by [`RunOptions`] and can stream every finished waveform through
//! an output sink ([`Session::run_streaming`]), including the built-in host
//! spill — the one place a finished run keeps its waveforms for
//! [`SimResult::waveform`].

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gatspi_gpu::{
    AppPhaseProfile, Device, DeviceMemory, DeviceSpec, KernelProfile, LaneCounters, LaunchConfig,
};
use gatspi_graph::{CircuitGraph, SignalId};
use gatspi_sdf::NO_ARC;
use gatspi_wave::saif::{SaifDocument, SaifRecord};
use gatspi_wave::{SimTime, Waveform, EOW, INIT_ONE_MARKER};

use crate::kernel::{simulate_gate, GateKernelInput, KernelMode, KernelOutput, MAX_KERNEL_PINS};
use crate::schedule::{slot, BatchScratch, ConeInfo, LevelSchedule};
use crate::sink::{SaifSink, SpillSink, VcdSink, WaveformSink, WindowInfo};
use crate::{CoreError, Result, SimConfig, SimResult};

/// Execution options for one run of a compiled [`Session`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Spill every segment's finished waveforms to host memory before the
    /// device arena is recycled. The spill is where a run keeps its
    /// waveforms: [`SimResult::waveform`] and its kin read it, for any
    /// segment count and after later runs on the session, and return
    /// [`CoreError::WaveformsNotKept`] on a run without one. Costs one D2H
    /// readback of the stored gate-output waveforms per segment, reported as
    /// `AppPhaseProfile::{readback_seconds, d2h_bytes}` (primary-input
    /// windows are fed from the host-resident stimulus, not read back).
    pub spill_waveforms: bool,
    /// Cap on windows simulated per memory segment. `None` (default) fits
    /// as many as device memory allows; setting it forces deterministic
    /// segmentation — useful for bounding per-segment arena footprint and
    /// for exercising segmented execution in tests.
    pub segment_windows: Option<usize>,
}

impl RunOptions {
    /// Enables host waveform spill (builder style).
    pub fn with_waveform_spill(mut self) -> Self {
        self.spill_waveforms = true;
        self
    }

    /// Caps windows per memory segment (builder style).
    pub fn with_segment_windows(mut self, nw: usize) -> Self {
        self.segment_windows = Some(nw.max(1));
        self
    }
}

/// Plan-cache counters of a [`Session`] (see
/// [`Session::plan_cache_stats`]). A session compiles its design's plan
/// once and runs every window count on it; a hit means a run reused it
/// instead of re-walking the graph. The cone counters do the same for an
/// incremental run's cone sub-plan, which is kept for the latest changed
/// set only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Full runs that reused the cached plan.
    pub hits: u64,
    /// Full plans built (at most one per session).
    pub misses: u64,
    /// Plans currently cached: the full plan and the latest cone sub-plan,
    /// so at most 2.
    pub cached: usize,
    /// Incremental runs whose changed set equalled the previous one's, so
    /// they reused its cone sub-plan ([`Session::run_incremental`]).
    pub cone_hits: u64,
    /// Cone sub-plans built because the changed set was new.
    pub cone_misses: u64,
}

/// The session's plans (guarded by its mutex): the design's full plan and
/// the cone sub-plan of the latest changed set, with the cone it was
/// restricted to. Neither depends on the window count.
#[derive(Debug, Default)]
struct PlanCache {
    full: Option<Arc<LevelSchedule>>,
    cone: Option<(Vec<bool>, Arc<ConeInfo>, Arc<LevelSchedule>)>,
    hits: u64,
    misses: u64,
    cone_hits: u64,
    cone_misses: u64,
}

/// A compiled simulation session (Fig. 5 made resident): the levelized
/// graph, the simulated device, the plan cache and the scratch pool, ready
/// to execute any number of stimuli.
///
/// Construction does the stimulus-independent preparation (device
/// allocation, collapsed average-delay tables); the first run builds and
/// caches the design's `LevelSchedule`; every later run — another stimulus,
/// another window count — and every segment and fleet device of a run
/// reuses it.
///
/// # Fault isolation
///
/// A session is **never poisoned by a failed run**. Each batch and each
/// drain runs under a panic guard: a panic in a kernel worker, the drain
/// or a user [`WaveformSink`] stops the run with
/// [`CoreError::DeviceFault`](crate::CoreError) carrying the panic text,
/// and is never retried. The scratch pool, plan and segment hints stay
/// reusable, so the next run on the same session reproduces a fresh
/// session's output bit for bit. The one fault a run recovers from is a
/// full arena: a range of windows that does not fit halves the range size
/// and runs again, counted in `SimResult::app_profile.oom_retries`.
///
/// # Example
///
/// ```
/// use gatspi_core::{Session, SimConfig};
/// use gatspi_graph::{CircuitGraph, GraphOptions};
/// use gatspi_netlist::{CellLibrary, NetlistBuilder};
/// use gatspi_wave::Waveform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("demo", CellLibrary::industry_mini());
/// let a = b.add_input("a")?;
/// let c = b.add_input("b")?;
/// let y = b.add_output("y")?;
/// b.add_gate("u", "NAND2", &[a, c], y)?;
/// let graph = CircuitGraph::build(&b.finish()?, None, &GraphOptions::default())?;
///
/// let session = Session::new(graph.into(), SimConfig::default());
/// let stimuli = vec![
///     Waveform::from_toggles(false, &[105, 205]),
///     Waveform::constant(true),
/// ];
/// // Re-simulate twice: the second run reuses the cached plan.
/// let first = session.run(&stimuli, 300)?;
/// let again = session.run(&stimuli, 300)?;
/// assert!(first.saif.diff(&again.saif).is_empty());
/// assert!(session.plan_cache_stats().hits >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    graph: Arc<CircuitGraph>,
    config: SimConfig,
    /// The fleet every run executes on; one device is the fleet of one.
    devices: Vec<Arc<Device>>,
    /// Collapsed (rise, fall) delay per pin slot — the Table 7 "partial
    /// SDF" 2-element arrays, precomputed once.
    avg_delays: Vec<(i32, i32)>,
    /// `pi_of[s]`: stimulus index of signal `s` when it is a primary
    /// input, else `u32::MAX` (used by the sink drain to feed PI windows
    /// from the host-resident stimulus instead of reading them back).
    pi_of: Vec<u32>,
    /// The signals the SAIF document lists (primary inputs and driven
    /// signals), sorted by name, so a document's net map is built from
    /// already-sorted input.
    saif_order: Vec<u32>,
    /// The full plan and the latest cone plan. Plans are independent of
    /// the device and of the window count, so every batch of every fleet
    /// device shares them.
    plans: Mutex<PlanCache>,
    /// Recycled batch scratch arenas (pointer/length tables and per-level
    /// count/base tables), so repeated segments and repeated runs stay off
    /// the allocator: at most one per device that ran at the same time.
    scratch_pool: Mutex<Vec<BatchScratch>>,
    /// The segment drain's host buffers, taken for the length of a drain.
    drain_bufs: Mutex<DrainBuffers>,
    /// Total windows → segment size that last worked, so repeat runs on a
    /// memory-constrained session start there instead of re-probing the
    /// OOM halving sequence (a starting point only: a denser stimulus
    /// still halves further, a sparser one merely over-segments, both
    /// correct).
    segment_hints: Mutex<HashMap<usize, usize>>,
    /// Test/bench hook ([`Session::seed_extent_history`]): when nonzero,
    /// every plan fetch overwrites each entry of the plan's extent history
    /// with this many words.
    spec_seed: AtomicU32,
}

/// The stimulus one window batch uploads before launching.
///
/// A full run uploads every primary input's restructured windows; an
/// incremental run uploads only the cone's *boundary* — primary-input
/// boundary signals from freshly restructured stimulus windows, gate-driven
/// boundary signals verbatim from the previous run's host spill (their
/// stored device words, so in-cone consumers read bit-identical inputs).
pub(crate) enum BatchStimulus<'a> {
    /// `win_stims[w][k]` is primary input `k`'s waveform in window `w`.
    Full(&'a [Vec<Waveform>]),
    /// Cone-boundary stimulus for an incremental batch.
    Boundary {
        /// The previous run's sealed spill (window table must cover this
        /// batch's windows at `window_base`).
        spill: &'a SpillSink,
        /// Boundary signals, ascending (from [`ConeInfo::boundary`]).
        boundary: &'a [u32],
        /// Restructured waveforms of the boundary's primary-input subset,
        /// per window, in boundary order: `pi_stims[w][j]` is the j-th
        /// boundary PI's waveform in window `w`.
        pi_stims: &'a [Vec<Waveform>],
        /// Absolute index of this batch's first window in the spill tables.
        window_base: usize,
    },
}

/// Accumulated outcome of simulating one batch of windows on one device.
pub(crate) struct WindowBatch {
    pub windows: Vec<(SimTime, SimTime)>,
    pub ptrs: Vec<u32>,
    pub lens: Vec<u32>,
    pub tc: Vec<u64>,
    pub t0: Vec<i64>,
    pub t1: Vec<i64>,
    pub kernel_profile: KernelProfile,
    pub launches: u64,
    /// Store threads executed speculatively.
    pub spec_threads: u64,
    /// Speculative threads whose reservation overflowed and were re-run by
    /// a repair pass.
    pub spec_overflows: u64,
    /// Arena words reserved by speculative budgets beyond what the stored
    /// waveforms needed (hit slack plus abandoned overflow reservations).
    pub spec_waste_words: u64,
}

/// What one run feeds every segment it executes
/// ([`Session::execute_segment`]): the plan every batch executes, the run's
/// window partition, the restructured stimulus per window, and — for an
/// incremental run — the cone that selects the stimulus source and the
/// drain filter.
pub(crate) struct SegmentInputs<'a> {
    /// The full plan, or an incremental run's cone sub-plan.
    pub plan: &'a LevelSchedule,
    pub windows: &'a [(SimTime, SimTime)],
    /// Per window: every primary input's waveform (full run), or the cone
    /// boundary's primary-input subset in boundary order (incremental run).
    pub stims: &'a [Vec<Waveform>],
    /// `Some` for an incremental run: segments upload
    /// [`BatchStimulus::Boundary`] and drain in-cone signals only.
    pub cone: Option<ConeInputs<'a>>,
}

/// The incremental half of [`SegmentInputs`].
pub(crate) struct ConeInputs<'a> {
    cone: &'a ConeInfo,
    /// The previous run's sealed spill (gate-driven boundary stimulus).
    spill: &'a SpillSink,
}

/// One run's totals, folded from every executed [`WindowBatch`]. Allocated
/// once per run; [`RunTotals::absorb`] is the only place batch counters are
/// summed and [`RunTotals::app_profile`] the only place an
/// [`AppPhaseProfile`] is built, so every run path reports the same fields
/// the same way.
struct RunTotals {
    pub tc: Vec<u64>,
    pub t0: Vec<i64>,
    pub t1: Vec<i64>,
    pub profile: KernelProfile,
    /// Batches absorbed so far — the run's memory-segment count.
    pub segments: usize,
    spec_threads: u64,
    /// Per fleet device: batches it executed and their summed modeled
    /// kernel seconds.
    per_device: Vec<(u64, f64)>,
    /// The summed per-batch counters, kept in the profile fields they are
    /// reported as; [`RunTotals::app_profile`] fills in the rest.
    counters: AppPhaseProfile,
}

impl RunTotals {
    pub fn new(n_signals: usize, devices: usize, kernel_name: &str) -> Self {
        RunTotals {
            tc: vec![0; n_signals],
            t0: vec![0; n_signals],
            t1: vec![0; n_signals],
            profile: KernelProfile::empty(kernel_name),
            segments: 0,
            spec_threads: 0,
            per_device: vec![(0, 0.0); devices],
            counters: AppPhaseProfile::default(),
        }
    }

    /// Folds one finished segment in: its batch, the fleet device that ran
    /// it, the D2H batches its drain issued and the drain's measured
    /// seconds.
    pub fn absorb(&mut self, device: usize, batch: &WindowBatch, drained: u64, drain_s: f64) {
        for s in 0..self.tc.len() {
            self.tc[s] += batch.tc[s];
            self.t0[s] += batch.t0[s];
            self.t1[s] += batch.t1[s];
        }
        self.profile.accumulate(&batch.kernel_profile);
        // A device runs its batches one after another and the fleet's
        // devices run side by side: modeled kernel time is the slowest
        // device's sum.
        let (batches, seconds) = &mut self.per_device[device];
        *batches += 1;
        *seconds += batch.kernel_profile.modeled_seconds;
        self.profile.modeled_seconds = self.per_device.iter().fold(0.0, |m, d| d.1.max(m));
        self.segments += 1;
        self.spec_threads += batch.spec_threads;
        let c = &mut self.counters;
        c.launches += batch.launches;
        c.drain_seconds += drain_s;
        c.d2h_batches += drained;
        c.overflow_repairs += batch.spec_overflows;
        c.predicted_waste_words += batch.spec_waste_words;
    }

    /// The run's application-phase profile. The devices that ran a batch
    /// ran concurrently: their uploads and launch overheads overlap, so
    /// both divide by their count, while the sink drain walks the batches
    /// one after another and the modeled readback does not. `h2d_bytes` /
    /// `d2h_bytes` are the transfer counters summed over the fleet;
    /// modeled kernel time is `self.profile.modeled_seconds`.
    pub fn app_profile(
        &self,
        spec: &DeviceSpec,
        h2d_bytes: u64,
        d2h_bytes: u64,
        restructure_seconds: f64,
    ) -> AppPhaseProfile {
        let c = &self.counters;
        let devices = self.per_device.iter().filter(|d| d.0 > 0).count().max(1) as f64;
        let sync_launch_seconds = c.launches as f64 / devices * spec.launch_overhead;
        AppPhaseProfile {
            h2d_seconds: h2d_bytes as f64 / (spec.pcie_bw * devices),
            readback_seconds: d2h_bytes as f64 / spec.pcie_bw,
            sync_launch_seconds,
            kernel_seconds: (self.profile.modeled_seconds - sync_launch_seconds).max(0.0),
            restructure_seconds,
            h2d_bytes,
            d2h_bytes,
            speculative_hit_rate: spec_hit_rate(self.spec_threads, c.overflow_repairs),
            ..*c
        }
    }
}

impl Session {
    /// Compiles a session for `graph`, allocating the configured device.
    pub fn new(graph: Arc<CircuitGraph>, config: SimConfig) -> Self {
        let device = Arc::new(Device::new(config.device.clone(), config.memory_words));
        Self::with_devices(graph, config, vec![device])
    }

    /// Compiles a session that runs on `devices` — a multi-GPU fleet
    /// (`MultiGpu::devices`), the "OpenMP-equivalent" CPU backend (one
    /// `Device::with_workers` device), or devices shared with other
    /// sessions.
    ///
    /// A fleet distributes cycle parallelism (§5, Fig. 6): a run cuts its
    /// stimulus into `cycle_parallelism × devices` windows and every device
    /// simulates its share independently — the known sequential-element
    /// waveforms make windows independent, so kernel time follows
    /// `t = t₁/n + ovr`. Results are bit-identical to one device's, and a
    /// fleet's counts repeat from run to run. An empty fleet makes every
    /// run fail with [`CoreError::BadConfig`].
    pub fn with_devices(
        graph: Arc<CircuitGraph>,
        config: SimConfig,
        devices: Vec<Arc<Device>>,
    ) -> Self {
        let avg_delays = compute_avg_delays(&graph);
        let mut pi_of = vec![u32::MAX; graph.n_signals()];
        for (k, &pi) in graph.primary_inputs().iter().enumerate() {
            pi_of[pi.index()] = k as u32;
        }
        let mut saif_order: Vec<u32> = (0..graph.n_signals() as u32)
            .filter(|&s| pi_of[s as usize] != u32::MAX || graph.driver(SignalId(s)).is_some())
            .collect();
        saif_order.sort_unstable_by_key(|&s| graph.signal_name(SignalId(s)));
        Session {
            graph,
            config,
            devices,
            avg_delays,
            pi_of,
            saif_order,
            plans: Mutex::new(PlanCache::default()),
            scratch_pool: Mutex::new(Vec::new()),
            drain_bufs: Mutex::new(DrainBuffers::default()),
            segment_hints: Mutex::new(HashMap::new()),
            spec_seed: AtomicU32::new(0),
        }
    }

    /// Test/bench hook: every run after this call re-seeds its plan's
    /// per-gate extent history with `words` words per gate (`0` clears the
    /// hook). Deliberately tiny seeds force the overflow-repair path on
    /// every gate; the equivalence suite uses this to prove the repair
    /// pass alone reproduces the event-driven reference bit-for-bit.
    #[doc(hidden)]
    pub fn seed_extent_history(&self, words: u32) {
        // relaxed-ok: hook set on the caller's thread before runs; plan
        // fetches read it from the same thread (or behind the plan lock).
        self.spec_seed.store(words, Ordering::Relaxed);
    }

    /// Applies the [`Session::seed_extent_history`] hook to a plan. Runs
    /// on *every* run's fetch — not just builds — so deliberately tiny test
    /// budgets stay in force across cached-plan reuse and the history the
    /// previous run folded cannot silently widen them.
    fn apply_spec_seed(&self, plan: &LevelSchedule) {
        // relaxed-ok: see `seed_extent_history`.
        let words = self.spec_seed.load(Ordering::Relaxed);
        if words != 0 {
            plan.fill_history(words);
        }
    }

    /// The simulation graph.
    pub fn graph(&self) -> &Arc<CircuitGraph> {
        &self.graph
    }

    /// The engine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The devices every run executes on.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// Plan-cache hit/miss counters (misses equal the number of full
    /// `LevelSchedule` builds this session has ever performed).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let cache = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        PlanCacheStats {
            hits: cache.hits,
            misses: cache.misses,
            cached: usize::from(cache.full.is_some()) + usize::from(cache.cone.is_some()),
            cone_hits: cache.cone_hits,
            cone_misses: cache.cone_misses,
        }
    }

    /// The design's launch plan, building it on the session's first run.
    /// A run looks it up once, before its window loop, and every batch of
    /// the run — any window count, any device — executes it.
    fn plan(&self) -> Arc<LevelSchedule> {
        let mut cache = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        let plan = match cache.full.clone() {
            Some(plan) => {
                cache.hits += 1;
                plan
            }
            None => {
                cache.misses += 1;
                let plan = Arc::new(LevelSchedule::build(&self.graph));
                cache.full = Some(Arc::clone(&plan));
                plan
            }
        };
        self.apply_spec_seed(&plan);
        plan
    }

    /// The fan-out cone of `changed` and its sub-plan. The session keeps
    /// them for the latest changed set only: a repeat of that set reuses
    /// both, a new set replaces them.
    fn cone_plan(&self, changed: &[bool]) -> (Arc<ConeInfo>, Arc<LevelSchedule>) {
        let mut cache = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        let cached = cache.cone.as_ref().filter(|(c, _, _)| c == changed);
        let (cone, plan) = match cached.map(|(_, c, p)| (Arc::clone(c), Arc::clone(p))) {
            Some(hit) => {
                cache.cone_hits += 1;
                hit
            }
            None => {
                cache.cone_misses += 1;
                let cone = Arc::new(ConeInfo::of(&self.graph, changed));
                let plan = Arc::new(LevelSchedule::restrict(&self.graph, &cone));
                debug_assert_eq!(plan.n_slots(), cone.n_gates, "the cone's gates exactly");
                if let Some(full) = &cache.full {
                    plan.copy_history(full);
                }
                let entry = (changed.to_vec(), Arc::clone(&cone), Arc::clone(&plan));
                cache.cone = Some(entry);
                (cone, plan)
            }
        };
        self.apply_spec_seed(&plan);
        (cone, plan)
    }

    /// Takes a scratch arena for a batch of `nw` windows whose widest level
    /// needs `columns` column entries: any pooled arena, reset, if it fits;
    /// otherwise a fresh one sized to the element-wise maximum of the
    /// pooled arena and the batch. Arenas therefore only grow, and never
    /// past the session's largest batch.
    fn acquire_scratch(&self, nw: usize, columns: usize) -> BatchScratch {
        let n_signals = self.graph.n_signals();
        let ptrs = nw * n_signals;
        let pooled = self
            .scratch_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop();
        match pooled {
            Some(scratch) if scratch.fits(ptrs, columns) => {
                scratch.reset(ptrs);
                scratch
            }
            Some(small) => BatchScratch::new(
                n_signals,
                ptrs.max(small.ptrs.len()),
                columns.max(small.outs.len()),
            ),
            None => BatchScratch::new(n_signals, ptrs, columns),
        }
    }

    /// Returns a scratch arena to the pool.
    fn release_scratch(&self, scratch: BatchScratch) {
        let mut pool = self.scratch_pool.lock().unwrap_or_else(|e| e.into_inner());
        pool.push(scratch);
    }

    /// The segment size that last worked for this run shape, if any.
    fn segment_hint(&self, total_windows: usize) -> Option<usize> {
        let hints = self.segment_hints.lock().unwrap_or_else(|e| e.into_inner());
        hints.get(&total_windows).copied()
    }

    /// Remembers the segment size a run settled on after OOM halving.
    fn record_segment_hint(&self, total_windows: usize, chunk: usize) {
        let mut hints = self.segment_hints.lock().unwrap_or_else(|e| e.into_inner());
        hints.insert(total_windows, chunk);
    }

    /// Re-simulates the design with default [`RunOptions`]: `stimuli[k]`
    /// is the waveform of the k-th primary input (graph order) over
    /// `[0, duration)`.
    ///
    /// The stimulus is cut into `cycle_parallelism` windows per device
    /// (aligned to [`SimConfig::window_align`]) that simulate concurrently;
    /// if a device arena cannot hold its windows at once the run
    /// transparently splits them into sequential segments (the paper's
    /// "compile the testbench into shorter segments" fallback).
    ///
    /// # Errors
    ///
    /// * [`CoreError::StimulusMismatch`] if the waveform count is wrong.
    /// * [`CoreError::OutOfMemory`] if even a single window exceeds device
    ///   memory.
    /// * [`CoreError::BadConfig`] for a negative duration or a session
    ///   without devices.
    /// * [`CoreError::DeviceFault`] when a kernel worker, the drain or a
    ///   streaming sink panicked; the error carries the panic text.
    pub fn run(&self, stimuli: &[Waveform], duration: SimTime) -> Result<SimResult> {
        self.run_with(stimuli, duration, &RunOptions::default())
    }

    /// [`Session::run`] with explicit [`RunOptions`].
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_with(
        &self,
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
    ) -> Result<SimResult> {
        self.run_inner(stimuli, duration, opts, None)
    }

    /// Streaming run: every finished (signal, window) waveform is read back
    /// from the device and handed to `sink` before the arena is recycled,
    /// segment by segment. Combine with
    /// [`RunOptions::spill_waveforms`] to *also* keep the built-in host
    /// copy for [`SimResult::waveform`].
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_streaming(
        &self,
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
        sink: &mut dyn WaveformSink,
    ) -> Result<SimResult> {
        self.run_inner(stimuli, duration, opts, Some(sink))
    }

    /// Cone-restricted incremental re-simulation: re-runs only the
    /// transitive fan-out of `changed_gates` (gates whose delays were
    /// resized since `prev` — an ECO / optimizer iteration), reusing every
    /// unchanged waveform from `prev`'s host spill instead of recomputing
    /// it. Out-of-cone signals in the returned result are served
    /// *pointer-identically* from `prev`'s spill storage (shared `Arc`
    /// chunks, not copies); boundary signals — out-of-cone signals feeding
    /// cone gates, including primary inputs — are uploaded verbatim from
    /// the spill as stimulus, so in-cone gates read the exact words their
    /// peers read in the full run and the result is bit-identical to a
    /// full re-simulation with the new delays.
    ///
    /// The cone sub-schedule (levels filtered to affected gates, thread
    /// tables compacted, working sets remapped) is kept for the latest
    /// changed set next to the full plan — a repeat iteration with the same
    /// resize set pays no planning cost ([`Session::plan_cache_stats`]
    /// reports `cone_hits`/`cone_misses`).
    ///
    /// Requirements: `prev` must come from this session's graph with
    /// [`RunOptions::spill_waveforms`] enabled, over the same `duration`,
    /// and `stimuli` must be the same primary-input waveforms that
    /// produced it (an incremental run never re-reads out-of-cone PIs, so
    /// changing them silently would desynchronise the reuse — change
    /// stimulus via a full run). The returned result always carries a
    /// spill, so further incremental runs can chain off it.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadIncremental`] if `prev` has no spill, covers a
    ///   different signal count or duration, or a changed-gate index is
    ///   out of range.
    /// * Otherwise as [`Session::run`].
    pub fn run_incremental(
        &self,
        prev: &SimResult,
        changed_gates: &[usize],
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
    ) -> Result<SimResult> {
        self.run_incremental_inner(prev, changed_gates, stimuli, duration, opts, None)
    }

    /// [`Session::run_incremental`] with a streaming sink: the recomputed
    /// (in-cone) waveforms are additionally delivered to `sink`, segment
    /// by segment, exactly like [`Session::run_streaming`] — out-of-cone
    /// waveforms are reused, not recomputed, so they do not stream.
    ///
    /// # Errors
    ///
    /// As [`Session::run_incremental`].
    pub fn run_incremental_streaming(
        &self,
        prev: &SimResult,
        changed_gates: &[usize],
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
        sink: &mut dyn WaveformSink,
    ) -> Result<SimResult> {
        self.run_incremental_inner(prev, changed_gates, stimuli, duration, opts, Some(sink))
    }

    /// The checks every run path makes before any device work.
    fn check_run_inputs(&self, stimuli: &[Waveform], duration: SimTime) -> Result<()> {
        if self.devices.is_empty() {
            return Err(CoreError::BadConfig {
                detail: "the session has no devices to run on".into(),
            });
        }
        let n_pis = self.graph.primary_inputs().len();
        if stimuli.len() != n_pis {
            return Err(CoreError::StimulusMismatch {
                expected: n_pis,
                got: stimuli.len(),
            });
        }
        if duration < 0 {
            return Err(CoreError::BadConfig {
                detail: format!("duration must be non-negative, got {duration}"),
            });
        }
        Ok(())
    }

    /// The incremental engine: cone extraction, delta plan resolution,
    /// boundary-stimulus segments with a cone-filtered drain into a derived
    /// spill, and the merge of recomputed activity over `prev`'s.
    fn run_incremental_inner(
        &self,
        prev: &SimResult,
        changed_gates: &[usize],
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
        user_sink: Option<&mut dyn WaveformSink>,
    ) -> Result<SimResult> {
        let t_app = Instant::now();
        let n_signals = self.graph.n_signals();
        let n_gates = self.graph.n_gates();
        let Some(prev_spill) = prev.spilled.as_ref() else {
            return Err(CoreError::BadIncremental {
                detail: "previous result has no waveform spill \
                         (run it with RunOptions::spill_waveforms)"
                    .into(),
            });
        };
        if prev_spill.n_signals != n_signals {
            return Err(CoreError::BadIncremental {
                detail: format!(
                    "previous result covers {} signals, this graph has {n_signals}",
                    prev_spill.n_signals
                ),
            });
        }
        if prev.duration != duration {
            return Err(CoreError::BadIncremental {
                detail: format!(
                    "previous run simulated {} ticks, this run asks for {duration}",
                    prev.duration
                ),
            });
        }
        self.check_run_inputs(stimuli, duration)?;
        let mut changed = vec![false; n_gates];
        for &g in changed_gates {
            if g >= n_gates {
                return Err(CoreError::BadIncremental {
                    detail: format!("changed gate {g} out of range ({n_gates} gates)"),
                });
            }
            changed[g] = true;
        }

        let (cone, plan) = self.cone_plan(&changed);

        // The previous run's window partition is the contract the spill
        // pointers are indexed by — reuse it verbatim (same session config
        // would regenerate it anyway).
        let windows = prev_spill.windows.clone();

        // Restructure only the boundary PIs' stimulus (the cone's other
        // boundary signals upload straight from the spill, and out-of-cone
        // PIs are never read).
        let t0 = Instant::now();
        let boundary_pi_stims: Vec<Waveform> = cone
            .boundary
            .iter()
            .filter(|&&s| self.pi_of[s as usize] != u32::MAX)
            .map(|&s| stimuli[self.pi_of[s as usize] as usize].clone())
            .collect();
        let pi_stims = self.restructure(&boundary_pi_stims, &windows);
        let restructure_seconds = t0.elapsed().as_secs_f64();

        let mut totals = RunTotals::new(n_signals, self.devices.len(), "resim_cone");
        // The result's spill derives from prev: shared frozen chunks,
        // every pointer carried over; only recomputed cone signals land in
        // the new tail. Always on — it is what makes chained incremental
        // runs (and out-of-cone waveform reads) work.
        let mut spill = SpillSink::derived(prev_spill);
        let inputs = SegmentInputs {
            plan: &plan,
            windows: &windows,
            stims: &pi_stims,
            cone: Some(ConeInputs {
                cone: &cone,
                spill: prev_spill,
            }),
        };
        self.run_segments(&inputs, opts, &mut totals, Some(&mut spill), user_sink)?;
        spill.seal();

        // Merge: recomputed cone signals overwrite prev's activity;
        // everything else — including every primary-input record — carries
        // over untouched (same stimulus, same out-of-cone waveforms).
        let mut saif = prev.saif.clone();
        let mut toggle_counts = prev.toggle_counts.clone();
        for (s, count) in toggle_counts.iter_mut().enumerate() {
            if !cone.sigs[s] {
                continue;
            }
            let record = gate_record(duration, totals.tc[s], totals.t0[s], totals.t1[s]);
            *count = record.tc;
            let sid = SignalId(s as u32);
            saif.nets
                .insert(self.graph.signal_name(sid).to_string(), record);
        }

        // The graph topology is already resident from the full run — the
        // delta run's H2D is just the boundary stimulus.
        let (h2d_bytes, d2h_bytes) = self.transfer_bytes();
        let app_profile = totals.app_profile(
            self.devices[0].spec(),
            h2d_bytes,
            d2h_bytes,
            restructure_seconds,
        );
        Ok(SimResult {
            saif,
            kernel_profile: totals.profile,
            app_profile,
            wall_seconds: t_app.elapsed().as_secs_f64(),
            toggle_counts,
            duration,
            segments: totals.segments.max(1),
            spilled: Some(spill),
        })
    }

    /// The full-run engine: restructure, execute every segment against the
    /// cached plan with the configured sinks, assemble SAIF.
    fn run_inner(
        &self,
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
        user_sink: Option<&mut dyn WaveformSink>,
    ) -> Result<SimResult> {
        let t_app = Instant::now();
        self.check_run_inputs(stimuli, duration)?;
        // Cycle parallelism is per device: a fleet of n cuts n times as
        // many windows.
        let slots = self.config.cycle_parallelism * self.devices.len();
        let windows = self.make_windows(duration, slots);

        // --- Input restructuring (the dominant init cost in Table 5).
        let t0 = Instant::now();
        let win_stims = self.restructure(stimuli, &windows);
        let restructure_seconds = t0.elapsed().as_secs_f64();

        // --- Adaptive segmentation over windows. (The spill is drained
        // even for runs that fit in one segment: its contract is a durable
        // host copy that outlives later runs on this session's devices.)
        let n_signals = self.graph.n_signals();
        let mut totals = RunTotals::new(n_signals, self.devices.len(), "resim");
        let mut spill = opts.spill_waveforms.then(|| SpillSink::new(n_signals));
        let plan = self.plan();
        let inputs = SegmentInputs {
            plan: &plan,
            windows: &windows,
            stims: &win_stims,
            cone: None,
        };
        self.run_segments(&inputs, opts, &mut totals, spill.as_mut(), user_sink)?;

        // --- Assemble SAIF and result.
        let (saif, toggle_counts) =
            self.assemble_saif(stimuli, duration, &totals.tc, &totals.t0, &totals.t1);
        // D2H traffic is exactly the sink/spill waveform readback (the
        // storing threads' SAIF scans read device memory in place); every
        // device uploaded the graph.
        let (h2d_bytes, d2h_bytes) = self.transfer_bytes();
        let graph_bytes = self.graph.device_bytes() * self.devices.len() as u64;
        let app_profile = totals.app_profile(
            self.devices[0].spec(),
            h2d_bytes + graph_bytes,
            d2h_bytes,
            restructure_seconds,
        );
        if let Some(sp) = spill.as_mut() {
            sp.seal();
        }
        Ok(SimResult {
            saif,
            kernel_profile: totals.profile,
            app_profile,
            wall_seconds: t_app.elapsed().as_secs_f64(),
            toggle_counts,
            duration,
            segments: totals.segments,
            spilled: spill,
        })
    }

    /// The window loop every run shares, on one device or a fleet: a
    /// cursor `next` (the first window not yet settled) and a range size
    /// `chunk`. Each round cuts consecutive ranges of at most `chunk`
    /// windows from `next`, one per device. `chunk` starts at
    /// [`RunOptions::segment_windows`], else at the segment size that last
    /// worked for this run shape, else at an even share per device; the
    /// size the run settles on is remembered for the next run.
    ///
    /// Every range executes `inputs.plan`, whatever its window count; a
    /// round fans out its ranges ([`Session::execute_round`]), every one
    /// reserving from the run's copy of the plan's extent history as the
    /// previous round left it. The engine thread is the history's one
    /// writer: it folds the round's batches into the table and the copy in
    /// window order — a batch that ran out of memory too, from the levels
    /// it launched; one that panicked is folded nowhere — and then settles
    /// the round in window order: each batch drains — under a panic guard
    /// of its own — into `spill` and then `user_sink`, is folded into
    /// `totals`, and moves `next` to its end. So every sink sees windows
    /// ascending, each once.
    ///
    /// A range of more than one window that runs out of memory halves
    /// `chunk` (the paper's "compile the testbench into shorter segments"
    /// fallback) and ends the round's settling: the round's later batches
    /// are dropped, and their windows run again from `next`. Any other
    /// error, a [`CoreError::DeviceFault`] included, fails the run at once.
    fn run_segments(
        &self,
        inputs: &SegmentInputs<'_>,
        opts: &RunOptions,
        totals: &mut RunTotals,
        spill: Option<&mut SpillSink>,
        user_sink: Option<&mut dyn WaveformSink>,
    ) -> Result<()> {
        let n = inputs.windows.len();
        for device in &self.devices {
            device.memory().reset_counters();
        }
        let share = n.div_ceil(self.devices.len()).max(1);
        let mut chunk = opts
            .segment_windows
            .or_else(|| self.segment_hint(n))
            .unwrap_or(share)
            .clamp(1, n.max(1));
        // A cone-filtered drain never covers primary inputs, so it needs no
        // stimulus windows.
        let only = inputs.cone.as_ref().map(|c| &c.cone.sigs[..]);
        let mut sinks: Vec<&mut dyn WaveformSink> = Vec::new();
        if let Some(sp) = spill {
            sinks.push(sp);
        }
        if let Some(us) = user_sink {
            sinks.push(us);
        }
        let mut history = inputs.plan.read_history();
        let mut next = 0;
        while next < n {
            let round: Vec<_> = (0..self.devices.len())
                .map(|d| (d, next + d * chunk))
                .take_while(|&(_, start)| start < n)
                .map(|(d, start)| (d, start..n.min(start + chunk)))
                .collect();
            let outcomes = self.execute_round(&round, inputs, &history);
            let extents = outcomes
                .iter()
                .filter_map(|(_, extents)| extents.as_deref());
            inputs.plan.fold_history(extents, &mut history);
            for ((d, range), (outcome, _)) in round.into_iter().zip(outcomes) {
                let batch = match outcome {
                    Ok(batch) => batch,
                    Err(CoreError::OutOfMemory { .. }) if range.len() > 1 => {
                        totals.counters.oom_retries += 1;
                        chunk = chunk.min(range.len().div_ceil(2));
                        break;
                    }
                    Err(e) => return Err(e),
                };
                let (mut drained, mut drain_s) = (0, 0.0);
                if !sinks.is_empty() {
                    let stims = if only.is_some() {
                        &[][..]
                    } else {
                        &inputs.stims[range.clone()]
                    };
                    let t_drain = Instant::now();
                    drained = isolate(d, || {
                        Ok(self.drain_segment(
                            &self.devices[d],
                            &batch,
                            totals.segments,
                            range.start,
                            stims,
                            only,
                            &mut sinks,
                        ))
                    })?;
                    drain_s = t_drain.elapsed().as_secs_f64();
                }
                totals.absorb(d, &batch, drained, drain_s);
                next = range.end;
            }
        }
        if opts.segment_windows.is_none() && chunk < share {
            self.record_segment_hint(n, chunk);
        }
        Ok(())
    }

    /// The fleet's H2D and D2H byte counters, summed.
    fn transfer_bytes(&self) -> (u64, u64) {
        let mems = self.devices.iter().map(|d| d.memory());
        mems.fold((0, 0), |(h, d), m| (h + m.h2d_bytes(), d + m.d2h_bytes()))
    }

    /// Executes one memory segment — windows `range` of the run — on fleet
    /// device `device` against the run's plan, reserving from the extent
    /// `history` snapshot: takes a scratch arena and runs the batch under a
    /// panic guard. Returns the batch, or the error that stopped it, with
    /// the per-signal extents it stored ([`BatchScratch::extents`]): a
    /// batch that ran out of memory reports the levels it launched, one
    /// that failed otherwise (a worker panic) reports `None` and is folded
    /// nowhere. Delivery is the caller's: the drain is guarded on its own.
    pub(crate) fn execute_segment(
        &self,
        device: usize,
        inputs: &SegmentInputs<'_>,
        history: &[u32],
        range: Range<usize>,
    ) -> (Result<WindowBatch>, Option<Vec<u32>>) {
        let (nw, plan) = (range.len(), inputs.plan);
        let windows = &inputs.windows[range.clone()];
        let stims = &inputs.stims[range.clone()];
        let scratch = self.acquire_scratch(nw, plan.widest_level() * nw);
        let batch = isolate(device, || {
            let stim = match &inputs.cone {
                Some(c) => BatchStimulus::Boundary {
                    spill: c.spill,
                    boundary: &c.cone.boundary,
                    pi_stims: stims,
                    window_base: range.start,
                },
                None => BatchStimulus::Full(stims),
            };
            let device = &self.devices[device];
            self.run_window_batch(device, plan, history, &scratch, windows, stim)
        });
        let outcome = match batch {
            Ok((batch, extents)) => (Ok(batch), Some(extents)),
            Err(e @ CoreError::OutOfMemory { .. }) => {
                (Err(e), Some(scratch.extents(nw, self.graph.n_signals())))
            }
            Err(e) => (Err(e), None),
        };
        self.release_scratch(scratch);
        outcome
    }

    /// Splits `[0, duration)` into up to `slots` windows aligned to
    /// `window_align` ticks.
    fn make_windows(&self, duration: SimTime, slots: usize) -> Vec<(SimTime, SimTime)> {
        let align = i64::from(self.config.window_align.max(1));
        let duration64 = i64::from(duration.max(1));
        let slots = slots.max(1) as i64;
        let aligned_units = (duration64 + align - 1) / align;
        let units_per_window = ((aligned_units + slots - 1) / slots).max(1);
        let window_len = units_per_window * align;
        let mut out = Vec::new();
        let mut start = 0i64;
        while start < duration64 {
            let end = (start + window_len).min(duration64);
            out.push((start as SimTime, end as SimTime));
            start = end;
        }
        out
    }

    /// Cuts every stimulus into per-window re-based waveforms. It runs on
    /// the calling thread, which also frees the result: thousands of small
    /// waveforms allocated on worker threads and freed here would seed this
    /// thread's allocator cache with other arenas' chunks, and whatever
    /// buffer next grew from one would keep a worker arena resident. At the
    /// benchmark's stimulus sizes (≈ 0.5 M words, 1–3 ms) forking measured
    /// no faster either.
    fn restructure(
        &self,
        stimuli: &[Waveform],
        windows: &[(SimTime, SimTime)],
    ) -> Vec<Vec<Waveform>> {
        windows
            .iter()
            .map(|&(s, e)| stimuli.iter().map(|w| w.window(s, e)).collect())
            .collect()
    }

    /// Builds the SAIF document: primary inputs straight from the stimulus,
    /// gate outputs from the kernel-side accumulators.
    fn assemble_saif(
        &self,
        stimuli: &[Waveform],
        duration: SimTime,
        tc: &[u64],
        t0: &[i64],
        t1: &[i64],
    ) -> (SaifDocument, Vec<u64>) {
        let graph = &self.graph;
        let mut toggle_counts = vec![0u64; graph.n_signals()];
        let mut doc = SaifDocument::new(graph.name(), i64::from(duration));
        doc.nets = self
            .saif_order
            .iter()
            .map(|&sid| {
                let s = sid as usize;
                let record = match self.pi_of[s] {
                    u32::MAX => gate_record(duration, tc[s], t0[s], t1[s]),
                    k => {
                        let w = &stimuli[k as usize];
                        let (t0, t1) = w.durations(duration);
                        // Clip TC like T0/T1: stimulus toggles past
                        // `duration` are outside the run (the windows never
                        // simulate them) and must not count — and the
                        // streaming SAIF sink, which only ever sees
                        // in-window toggles, stays equal to this document.
                        let tc = w.toggle_count_clipped(duration) as u64;
                        SaifRecord {
                            t0,
                            t1,
                            tx: 0,
                            tc,
                            ig: 0,
                        }
                    }
                };
                toggle_counts[s] = record.tc;
                (graph.signal_name(SignalId(sid)).to_string(), record)
            })
            .collect();
        (doc, toggle_counts)
    }

    /// Simulates one batch of windows on `device` (one memory segment)
    /// against a prebuilt `plan`, reserving from the extent `history`
    /// snapshot: uploads stimulus, runs the levelized speculative-store
    /// schedule one level at a time, and returns the accumulators and the
    /// per-signal extents the batch stored ([`BatchScratch::lens_snapshot`]).
    /// Its level loop runs in one [`Device::worker_set`]: every launch of
    /// the batch, speculative and repair, runs its blocks on the calling
    /// thread and the set's helpers, which the batch's first multi-block
    /// launch spawns and every later one reuses; a one-block launch runs
    /// inline.
    ///
    /// Structure (see the README's kernel pipeline):
    ///
    /// * one kernel call runs a block of consecutive (gate, window)
    ///   threads, gate by gate, fetching what a gate's windows share once;
    /// * the speculative thread publishes its output's true length, and the
    ///   storing thread itself (a speculative hit, or the repair of an
    ///   overflow) its pointer, into the signal-major shared tables, then
    ///   scans the words it just stored for the window's SAIF record
    ///   (folded publication — no host per-slot loop and no second reader
    ///   of the stored words);
    /// * the level publish is folded into the same pass: each gate piece of
    ///   a block adds its stored words, its SAIF records and (per block)
    ///   its reservation slack to per-signal and per-batch atomics, so no
    ///   host pass over a level's columns runs at all, and the length sums
    ///   feeding the next level's modeled working set are complete behind
    ///   the launch join that ends the level;
    /// * every level is one speculative store launch: a predicted budget
    ///   per output is reserved before it and overflows are scanned after
    ///   it; only overflowed threads run again, in a narrow exact-store
    ///   repair launch ([`HostState`] carries the arena cursor through both
    ///   steps, level after level; every level reuses the [`BatchScratch`]
    ///   count/base/cap columns from entry 0).
    ///
    /// The per-level loop is allocation-free: scratch buffers live in the
    /// caller-provided [`BatchScratch`] arena and working sets come from
    /// running per-signal sums.
    fn run_window_batch(
        &self,
        device: &Device,
        schedule: &LevelSchedule,
        history: &[u32],
        scratch: &BatchScratch,
        windows: &[(SimTime, SimTime)],
        stim: BatchStimulus<'_>,
    ) -> Result<(WindowBatch, Vec<u32>)> {
        let graph = &*self.graph;
        let n_signals = graph.n_signals();
        let nw = windows.len();
        let mut host = HostState {
            bump: 0,
            capacity: device.memory().len(),
        };

        // Upload the stimulus: per (window, signal), one even-aligned slice
        // of raw device words (even bases keep the word-index parity
        // encoding of values intact).
        let mut upload = |w: usize, s: usize, raw: &[i32]| -> Result<()> {
            let words = raw.len();
            let base = host.bump + (host.bump & 1);
            if base + words > host.capacity {
                return Err(CoreError::OutOfMemory {
                    requested: base + words,
                    capacity: host.capacity,
                });
            }
            device.memory().h2d(base, raw);
            // relaxed-ok: the upload runs on the engine thread before any
            // launch of this batch; a launch's publish, under its worker
            // set's lock, orders these slots before the kernel threads.
            scratch.ptrs[slot(nw, s, w)].store(base as u32, Ordering::Relaxed);
            // relaxed-ok: see above.
            scratch.lens[slot(nw, s, w)].store(words as u32, Ordering::Relaxed);
            // relaxed-ok: see above.
            scratch.len_sum[s].fetch_add(words as u64, Ordering::Relaxed);
            host.bump = base + words;
            Ok(())
        };
        match stim {
            BatchStimulus::Full(win_stims) => {
                for (w, stims) in win_stims.iter().enumerate() {
                    for (k, &pi) in graph.primary_inputs().iter().enumerate() {
                        upload(w, pi.index(), stims[k].raw())?;
                    }
                }
            }
            BatchStimulus::Boundary {
                spill,
                boundary,
                pi_stims,
                window_base,
            } => {
                for (w, w_pis) in pi_stims.iter().enumerate().take(nw) {
                    let mut pi_j = 0usize;
                    for &s in boundary {
                        let s = s as usize;
                        if self.pi_of[s] != u32::MAX {
                            let raw = w_pis[pi_j].raw();
                            pi_j += 1;
                            upload(w, s, raw)?;
                            continue;
                        }
                        let ptr = spill.ptrs[(window_base + w) * n_signals + s];
                        if ptr == u64::MAX {
                            // Floating in the previous run too: absent,
                            // exactly as a full run would leave it.
                            continue;
                        }
                        // The spilled words are the waveform's live device
                        // words truncated at its EOW terminator; re-upload
                        // them verbatim so in-cone consumers read the very
                        // words their peers read in the full run.
                        let from = spill.slice_from(ptr);
                        let end = from
                            .iter()
                            .position(|&x| x == EOW)
                            // panic-ok: spill-format invariant — the store
                            // pass terminates every spilled waveform with
                            // EOW before the segment is retired.
                            .expect("spilled waveform terminates")
                            + 1;
                        upload(w, s, &from[..end])?;
                    }
                }
            }
        }
        host.bump += host.bump & 1; // keep the allocator even-aligned for outputs

        let features = self.config.features;
        let ppp = self.config.path_pulse_percent;
        let avg_delays = &self.avg_delays;
        let mem: &DeviceMemory = device.memory();

        let mut profile = KernelProfile::empty("resim");
        let mut launches = 0u64;
        let mut tally = SpecTally::default();
        // Reusable repair worklist: columns whose speculative reservation
        // overflowed.
        let mut overflow_cols: Vec<usize> = Vec::new();

        // The gate-invariant half of a kernel invocation, fetched once per
        // gate a block touches: the baked [`GateDesc`] row, the gate's pin
        // and delay slices, the flat pools, the `nw`-entry rows of the
        // signal-major pointer table its pins read, and its output signal.
        let gate_ctx = |gate_slot: usize| {
            let pins = schedule.pins_of(gate_slot);
            let desc = schedule.desc(gate_slot);
            let pin_base = desc.pin_base as usize;
            let mut rows: [&[AtomicU32]; MAX_KERNEL_PINS] = [&[]; MAX_KERNEL_PINS];
            for (row, &sig) in rows.iter_mut().zip(pins) {
                *row = &scratch.ptrs[slot(nw, sig as usize, 0)..][..nw];
            }
            let input = GateKernelInput {
                desc,
                tts: graph.truth_tables_flat(),
                luts: graph.delay_luts_flat(),
                net_delays: schedule.net_delays_of(gate_slot),
                mem,
                in_ptrs: &[],
                features,
                ppp,
                avg_delays: &avg_delays[pin_base..pin_base + pins.len()],
            };
            (input, rows, schedule.out_sig(gate_slot))
        };
        // One (gate, window) invocation — the per-window half: the input
        // pointers, then the kernel.
        let kernel = |ctx: &(GateKernelInput<'_>, [&[AtomicU32]; MAX_KERNEL_PINS], usize),
                      w: usize,
                      mode: KernelMode,
                      lane: &mut LaneCounters| {
            let (input, rows, _) = ctx;
            let n = input.desc.fanin as usize;
            let mut in_ptrs = [0u32; MAX_KERNEL_PINS];
            for (ptr, row) in in_ptrs.iter_mut().zip(&rows[..n]) {
                // relaxed-ok: input pointers were published by a lower
                // level's store pass behind the launch join; levelization
                // keeps same-level threads off each other's slots.
                *ptr = row[w].load(Ordering::Relaxed);
            }
            let input = GateKernelInput {
                in_ptrs: &in_ptrs[..n],
                ..*input
            };
            simulate_gate(&input, mode, lane)
        };
        // Folded publication: the storing thread publishes its own output's
        // pointer (the speculative pass already published its length) and
        // scans the words it just stored for the window's SAIF record `(tc,
        // t1)`, so no host loop over (gate, window) slots and no second
        // reader of the stored words runs after the launch.
        let publish = |sig: usize, w: usize, out_base: usize| {
            // relaxed-ok: each storing thread writes only its own output's
            // slots; higher levels read them behind the launch join.
            scratch.ptrs[slot(nw, sig, w)].store(out_base as u32, Ordering::Relaxed);
            let (ws, we) = windows[w];
            saif_scan(mem, out_base, we - ws)
        };
        // Per-signal SAIF sums. A block may split a gate's windows with
        // another block, so these are adds, never stores.
        let add_saif = |sig: usize, (tc, t1): (u64, u64)| {
            // relaxed-ok: commutative sums read after the batch's last
            // launch joined.
            scratch.tc[sig].fetch_add(tc, Ordering::Relaxed);
            // relaxed-ok: see above.
            scratch.t1[sig].fetch_add(t1, Ordering::Relaxed);
        };

        // The speculative store pass over one block of `level`'s threads,
        // gate by gate (thread `gi * nw + w` is gate `gi`, window `w`):
        // store inside the pre-assigned reservation; on overflow the kernel
        // degrades to exact counting without touching a word outside it.
        // The true packed output always lands in the count column, where the
        // scan and the repair pass read it, and its length in the length
        // table, where the extent history reads it. Each gate piece also
        // folds the level publish: its stored words into the length sum and
        // its hits' SAIF records; the block's hit slack goes into one waste
        // counter.
        let spec = |level: usize, threads: Range<usize>, lane: &mut LaneCounters| {
            let ld = schedule.level(level);
            let mut slack = 0u64;
            let mut tid = threads.start;
            while tid < threads.end {
                let gi = tid / nw;
                let w_end = nw.min(threads.end - gi * nw);
                let gate_slot = ld.gate_lo as usize + gi;
                let ctx = gate_ctx(gate_slot);
                let sig = ctx.2;
                let (mut words_sum, mut saif) = (0u64, (0u64, 0u64));
                for w in tid - gi * nw..w_end {
                    let col = gi * nw + w;
                    // relaxed-ok: budget assigned host-side before this
                    // launch.
                    let out_base = scratch.bases[col].load(Ordering::Relaxed) as usize;
                    // relaxed-ok: see above.
                    let cap = scratch.caps[col].load(Ordering::Relaxed);
                    let mode = KernelMode::Speculative {
                        out_base,
                        cap: cap as usize,
                    };
                    let out = kernel(&ctx, w, mode, lane);
                    // relaxed-ok: each thread writes only its own column
                    // entry; the scan reads it behind the launch join.
                    scratch.outs[col].store(out.pack(), Ordering::Relaxed);
                    let words = out.words();
                    // relaxed-ok: as `outs`; later levels, the extent
                    // history and the drain read it behind the join.
                    scratch.lens[slot(nw, sig, w)].store(words, Ordering::Relaxed);
                    words_sum += u64::from(words);
                    if words <= cap {
                        // Saturating: a test-hook cap may be odd, letting the
                        // padded size exceed a hit's cap by the parity word.
                        slack += u64::from(cap.saturating_sub(words + (words & 1)));
                        let (tc, t1) = publish(sig, w, out_base);
                        saif = (saif.0 + tc, saif.1 + t1);
                    } else {
                        // relaxed-ok: the cursor only hands each overflowing
                        // thread a unique slot (threads ≤ column stride); the
                        // launch join publishes the slot writes to the scan.
                        let i = scratch.ovf_len.fetch_add(1, Ordering::Relaxed);
                        debug_assert!(i < scratch.ovf.len());
                        // relaxed-ok: see above.
                        scratch.ovf[i].store(col as u32, Ordering::Relaxed);
                    }
                }
                // relaxed-ok: a commutative sum, read before a later level's
                // launch or after the batch, behind this launch's join.
                scratch.len_sum[sig].fetch_add(words_sum, Ordering::Relaxed);
                add_saif(sig, saif);
                tid = gi * nw + w_end;
            }
            // relaxed-ok: a commutative sum read after the batch's last
            // launch joined.
            scratch.waste.fetch_add(slack, Ordering::Relaxed);
        };
        // The repair of thread `col` of `level`: a hit already stored and
        // published in the speculative pass — nothing to do. An overflow
        // re-runs an exact store at the base the post-level scan
        // re-allocated for it and adds its own SAIF record (its words were
        // summed by the speculative pass).
        let repair = |level: usize, col: usize, lane: &mut LaneCounters| {
            let ld = schedule.level(level);
            // relaxed-ok: the speculative pass's true packed output, behind
            // the launch join.
            let packed = scratch.outs[col].load(Ordering::Relaxed);
            // relaxed-ok: written by the budget assigner before the
            // speculative pass, same boundary.
            let cap = scratch.caps[col].load(Ordering::Relaxed);
            if KernelOutput::unpack_words(packed) <= cap {
                return;
            }
            let gate_slot = ld.gate_lo as usize + col / nw;
            let ctx = gate_ctx(gate_slot);
            // relaxed-ok: the exact repair base was assigned by the scan
            // before this launch.
            let out_base = scratch.bases[col].load(Ordering::Relaxed) as usize;
            let w = col % nw;
            let out = kernel(&ctx, w, KernelMode::Store { out_base }, lane);
            debug_assert_eq!(out.pack(), packed, "speculative and repair passes diverged");
            add_saif(ctx.2, publish(ctx.2, w, out_base));
        };

        // The batch's one kernel: a block of a level's speculative pass, or
        // of its repair, whose thread `j` re-runs the `j`-th overflowed
        // column the pass recorded (in any order: each repair stores at the
        // base the scan gave its column).
        let kernel = |pass: Pass, threads: Range<usize>, lane: &mut LaneCounters| match pass {
            Pass::Spec(level) => spec(level, threads, lane),
            Pass::Repair(level) => threads.for_each(|j| {
                // relaxed-ok: recorded by the speculative pass's threads
                // behind its launch join, which precedes this launch.
                let col = scratch.ovf[j].load(Ordering::Relaxed) as usize;
                repair(level, col, lane)
            }),
        };
        // One speculative store launch per level plus — only when some
        // reservation overflowed — a narrow exact repair launch over just
        // the overflowed threads, all on one worker set.
        device.worker_set(kernel, |set| -> Result<()> {
            for level in 0..schedule.n_levels() {
                let threads = schedule.level(level).gates() * nw;
                let ws_in = schedule.level_ws(&scratch.len_sum, level);
                let reserved = host.advance_budgets(schedule, history, scratch, level, nw)?;
                let cfg = LaunchConfig {
                    threads,
                    threads_per_block: self.config.threads_per_block,
                    regs_per_thread: self.config.regs_per_thread,
                    working_set_bytes: 4 * (ws_in + reserved),
                };
                profile.accumulate(&set.launch("resim_spec", &cfg, Pass::Spec(level)));
                launches += 1;
                let realloc =
                    host.advance_scan(scratch, threads, &mut overflow_cols, &mut tally)?;
                if !overflow_cols.is_empty() {
                    // The speculative pass left every overflow's true packed
                    // count in the count column, so the repair is store-only
                    // — no second count pass.
                    let rcfg = LaunchConfig {
                        threads: overflow_cols.len(),
                        threads_per_block: self.config.threads_per_block,
                        regs_per_thread: self.config.regs_per_thread,
                        working_set_bytes: 4 * (ws_in + realloc),
                    };
                    profile.accumulate(&set.launch("resim_repair", &rcfg, Pass::Repair(level)));
                    launches += 1;
                }
            }
            Ok(())
        })?;

        // The batch's SAIF sums, folded by the storing threads. Every
        // scheduled gate ran every window and a window's spans sum to its
        // length, so an output's T0 is the batch's window total minus T1.
        let span: i64 = windows.iter().map(|&(ws, we)| i64::from(we - ws)).sum();
        // relaxed-ok: read after every launch of the batch has joined.
        let sum = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let t1: Vec<i64> = scratch.t1.iter().map(|a| sum(a) as i64).collect();
        let mut t0 = vec![0; n_signals];
        for s in (0..schedule.n_slots()).map(|g| schedule.out_sig(g)) {
            t0[s] = span - t1[s];
        }
        tally.waste_words += sum(&scratch.waste);

        let (lens, extents) = scratch.lens_snapshot(nw, n_signals);
        let batch = WindowBatch {
            windows: windows.to_vec(),
            ptrs: scratch.ptrs_snapshot(nw, n_signals),
            lens,
            tc: scratch.tc.iter().map(sum).collect(),
            t0,
            t1,
            kernel_profile: profile,
            launches,
            spec_threads: tally.threads,
            spec_overflows: tally.overflows,
            spec_waste_words: tally.waste_words,
        };
        Ok((batch, extents))
    }
}

/// Segments reading back fewer live words than this drain on the calling
/// thread: forking costs more than the copy.
const PARALLEL_DRAIN_MIN_WORDS: u32 = 1 << 16;

/// One level's stored gate outputs in a segment's arena, as the drain
/// reads them back: one transfer each.
#[derive(Debug, Clone, Copy)]
struct LevelRegion {
    level: u32,
    /// Device word range `[lo, hi)` from the level's first stored word to
    /// its last, reservation slack in between included.
    lo: u32,
    hi: u32,
    /// Offset of the level's first live word in [`DrainBuffers::data`].
    dest: u32,
}

/// Host buffers of the segment drain, kept on the session so repeated
/// segments and runs reuse them.
#[derive(Debug, Default)]
struct DrainBuffers {
    regions: Vec<LevelRegion>,
    /// `offs[window × n_signals + signal]`: offset of that waveform's words
    /// in `data`, `u32::MAX` where the drain read nothing back.
    offs: Vec<u32>,
    /// The segment's live gate-output words, level by level; slack words
    /// never land here.
    data: Vec<i32>,
    /// One bounce buffer per read-back worker, as large as the widest
    /// level region met so far.
    staging: Vec<Vec<i32>>,
}

impl Session {
    /// `window × n_signals + signal` of every stored gate output of graph
    /// level `level` that the drain delivers (`only`, when set, flags the
    /// signals it covers).
    fn stored_outputs<'a>(
        &'a self,
        batch: &'a WindowBatch,
        only: Option<&'a [bool]>,
        level: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        let n_signals = self.graph.n_signals();
        self.graph
            .level_gates(level)
            .iter()
            .map(|&g| self.graph.gate_output(g as usize).index())
            .filter(move |&s| only.is_none_or(|flags| flags[s]))
            .flat_map(move |s| (0..batch.windows.len()).map(move |w| w * n_signals + s))
            .filter(|&i| batch.ptrs[i] != u32::MAX)
    }

    /// Streams one finished segment's waveforms to the active sinks
    /// (host spill and/or a caller-supplied sink) before the arena is
    /// recycled; returns the number of D2H batches issued. Gate outputs
    /// are read back over the modeled D2H path and surface as
    /// `AppPhaseProfile::{readback_seconds, d2h_bytes}`; primary-input
    /// windows are fed from the host-resident restructured stimulus
    /// (byte-identical to the device copy), so the readback model only
    /// charges for data the host does not already hold.
    ///
    /// The arena holds a segment's gate outputs level after level — every
    /// schedule advances one allocation cursor per graph level, a cone
    /// sub-plan included — but inside a level no two waveforms need be
    /// adjacent: a speculative reservation leaves slack behind the words
    /// its thread stored. So the unit of transfer is the **level region**,
    /// from the level's first delivered word to its last: one
    /// [`DeviceMemory::d2h_into`] each, at most `graph.n_levels()` per
    /// segment however many waveforms it stored. A region is read *through*
    /// its slack into a bounce buffer no larger than the widest region, and
    /// only the live words are copied on into the segment buffer —
    /// `d2h_bytes` therefore counts the slack inside the regions, the
    /// segment buffer does not hold it. Large segments split the regions
    /// into contiguous shares of about equal live words, one per device
    /// host worker; the cuts fall between regions, so the transfers are the
    /// same on every host.
    /// The sinks are then fed in deterministic (window, ascending signal)
    /// order. Every buffer involved lives on the session and is reused.
    ///
    /// `only` restricts the drain to flagged signals (an incremental run
    /// delivers in-cone waveforms only; out-of-cone entries stay untouched
    /// in the derived spill). When set, primary-input windows are skipped
    /// entirely, so `win_stims` may be empty.
    #[allow(clippy::too_many_arguments)]
    fn drain_segment(
        &self,
        device: &Device,
        batch: &WindowBatch,
        segment: usize,
        window_base: usize,
        win_stims: &[Vec<Waveform>],
        only: Option<&[bool]>,
        sinks: &mut [&mut dyn WaveformSink],
    ) -> u64 {
        let n_signals = self.graph.n_signals();
        let mem = device.memory();
        // A concurrent drain (there is none today) would find empty
        // buffers and allocate its own.
        let mut bufs =
            std::mem::take(&mut *self.drain_bufs.lock().unwrap_or_else(|e| e.into_inner()));
        let DrainBuffers {
            regions,
            offs,
            data,
            staging,
        } = &mut bufs;

        // Lay the segment buffer out level by level and find each level's
        // device range.
        regions.clear();
        offs.clear();
        offs.resize(batch.windows.len() * n_signals, u32::MAX);
        let mut total = 0u32;
        for level in 0..self.graph.n_levels() {
            let dest = total;
            let (mut lo, mut hi) = (u32::MAX, 0);
            for i in self.stored_outputs(batch, only, level) {
                offs[i] = total;
                total += batch.lens[i];
                lo = lo.min(batch.ptrs[i]);
                hi = hi.max(batch.ptrs[i] + batch.lens[i]);
            }
            if lo != u32::MAX {
                regions.push(LevelRegion {
                    level: level as u32,
                    lo,
                    hi,
                    dest,
                });
            }
        }
        if data.len() < total as usize {
            data.resize(total as usize, 0);
        }

        // One bounce buffer per worker, as wide as the widest region.
        let workers = if total < PARALLEL_DRAIN_MIN_WORDS {
            1
        } else {
            device.workers().min(regions.len())
        };
        let widest = regions.iter().map(|r| (r.hi - r.lo) as usize).max();
        let widest = widest.unwrap_or(0);
        staging.resize_with(staging.len().max(workers), Vec::new);
        for bounce in &mut staging[..workers] {
            if bounce.len() < widest {
                bounce.resize(widest, 0);
            }
        }
        // Reads `regions` back — one transfer each into `bounce` — and
        // copies every stored waveform's live words on to its place in
        // `out`, the part of the segment buffer starting at offset `base`.
        let offs = &offs[..];
        let read = |regions: &[LevelRegion], base: u32, out: &mut [i32], bounce: &mut [i32]| {
            for r in regions {
                mem.d2h_into(r.lo as usize, &mut bounce[..(r.hi - r.lo) as usize]);
                for i in self.stored_outputs(batch, only, r.level as usize) {
                    let len = batch.lens[i] as usize;
                    let from = (batch.ptrs[i] - r.lo) as usize;
                    let to = (offs[i] - base) as usize;
                    out[to..to + len].copy_from_slice(&bounce[from..from + len]);
                }
            }
        };
        if workers == 1 {
            read(regions, 0, data, &mut staging[0]);
        } else {
            let read = &read;
            std::thread::scope(|scope| {
                let mut rest_regions = &regions[..];
                let mut rest_data = &mut data[..total as usize];
                let mut base = 0u32;
                let mut handles = Vec::with_capacity(workers);
                for (k, bounce) in staging.iter_mut().enumerate().take(workers) {
                    // Worker `k` takes the regions starting below its word
                    // quota (none, when one region outweighs a whole share).
                    let quota = (u64::from(total) * (k as u64 + 1) / workers as u64) as u32;
                    let n = rest_regions.partition_point(|r| r.dest < quota);
                    let (mine, tail) = rest_regions.split_at(n);
                    rest_regions = tail;
                    let end = tail.first().map_or(total, |r| r.dest);
                    let (out, tail) = rest_data.split_at_mut((end - base) as usize);
                    rest_data = tail;
                    let from = base;
                    base = end;
                    if !mine.is_empty() {
                        handles.push(scope.spawn(move || read(mine, from, out, bounce)));
                    }
                }
                // Join each worker explicitly so a worker's panic payload
                // survives to the drain boundary as the error's detail (the
                // scope's auto-join would replace it with a generic
                // message).
                for h in handles {
                    if let Err(payload) = h.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
        }

        // Feed the sinks in deterministic (window, ascending signal) order.
        for (w, &(start, end)) in batch.windows.iter().enumerate() {
            let info = WindowInfo {
                window: window_base + w,
                segment,
                start,
                end,
            };
            let row = w * n_signals;
            for (s, &k) in self.pi_of.iter().enumerate() {
                if let Some(flags) = only {
                    if !flags[s] {
                        continue;
                    }
                }
                if batch.ptrs[row + s] == u32::MAX {
                    continue;
                }
                let raw: &[i32] = if k != u32::MAX {
                    debug_assert!(only.is_none(), "filtered drains never cover PIs");
                    win_stims[w][k as usize].raw()
                } else {
                    debug_assert_ne!(offs[row + s], u32::MAX, "a gate drives it");
                    let off = offs[row + s] as usize;
                    &data[off..off + batch.lens[row + s] as usize]
                };
                for sink in sinks.iter_mut() {
                    sink.waveform(s, &info, raw);
                }
            }
        }
        let batches = regions.len() as u64;
        *self.drain_bufs.lock().unwrap_or_else(|e| e.into_inner()) = bufs;
        batches
    }
}

/// The engine's one panic boundary, and its only `catch_unwind` outside
/// tests. Runs `f` under `catch_unwind`: a panic inside it — a kernel
/// block's (a helper's re-raised by its worker set's launch join), the
/// drain's or a user sink's — stops here as a [`CoreError::DeviceFault`]
/// on fleet device `device`.
fn isolate<T>(device: usize, f: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(panic_to_error(device, payload)))
}

/// Classifies a panic caught at a batch or drain boundary: the device it
/// ran for, and the panic message as the error's `detail` (a `String` or
/// `&str` payload; any other payload reads as a placeholder).
fn panic_to_error(device: usize, payload: Box<dyn std::any::Any + Send>) -> CoreError {
    let detail = match payload.downcast::<String>() {
        Ok(text) => *text,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or("non-string panic payload", |text| text)
            .to_string(),
    };
    CoreError::DeviceFault { device, detail }
}

/// The argument of a batch's kernel launch: the pass and its level.
#[derive(Debug, Clone, Copy)]
enum Pass {
    /// The level's speculative store launch.
    Spec(usize),
    /// The level's repair launch over its overflowed columns.
    Repair(usize),
}

/// Running speculation telemetry for one window batch: the raw counters
/// behind `AppPhaseProfile::{speculative_hit_rate, overflow_repairs,
/// predicted_waste_words}`.
#[derive(Debug, Default)]
struct SpecTally {
    /// Speculative store threads executed.
    threads: u64,
    /// Threads whose reservation overflowed (each re-run by a repair).
    overflows: u64,
    /// Arena words reserved beyond what the stored waveforms needed:
    /// prediction slack on hits plus whole abandoned reservations on
    /// overflows.
    waste_words: u64,
}

/// Speculative hit rate from the accumulated counters:
/// `(threads − overflows) / threads`, `0.0` for a run with no store
/// threads.
fn spec_hit_rate(threads: u64, overflows: u64) -> f64 {
    if threads == 0 {
        0.0
    } else {
        (threads - overflows) as f64 / threads as f64
    }
}

/// Host-side state of one window batch: the arena bump pointer, advanced
/// by the stimulus upload and then twice per level — a predicted
/// reservation for every thread before the level's speculative store
/// launch ([`HostState::advance_budgets`]), exact space for the threads
/// that overflowed after it ([`HostState::advance_scan`]). OOM is detected
/// per step and leaves the bump at the last successful one. (The
/// per-signal length sums live in [`BatchScratch::len_sum`] so the storing
/// threads can add to them.)
struct HostState {
    /// Next free arena word (kept even-aligned for output waveforms).
    bump: usize,
    /// The device arena's size in words.
    capacity: usize,
}

impl HostState {
    /// Assigns every thread of `level` (gate by gate, `nw` windows each) a
    /// speculative output reservation before its single store pass runs,
    /// advancing the bump; returns the words reserved. A thread's budget is
    /// the gate's entry in the run's copy of the extent `history` where it
    /// has one (see [`LevelSchedule::fold_history`]), else
    /// the sound static bound — marker + initial entry + EOW + one edge per
    /// stored input word (`4 + Σ published input lengths`; a gate's output
    /// toggles at most once per input edge, so a first-touch gate can never
    /// overflow). Budgets are even-aligned like every arena allocation;
    /// bases and caps land in the scratch columns for the kernel threads
    /// and the post-level scan.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfMemory`] if the reservations exceed the arena (the
    /// caller halves the range size and runs the windows again); the bump
    /// keeps its pre-level value.
    fn advance_budgets(
        &mut self,
        schedule: &LevelSchedule,
        history: &[u32],
        scratch: &BatchScratch,
        level: usize,
        nw: usize,
    ) -> Result<u64> {
        let ld = schedule.level(level);
        // relaxed-ok: boundary reset — the launch that follows this
        // assignment orders it against the kernel threads' overflow-cursor
        // bumps.
        scratch.ovf_len.store(0, Ordering::Relaxed);
        let mut cursor = self.bump;
        let mut col = 0;
        // One history read per gate, shared by its windows — the
        // per-thread loop below then only branches on the cached value.
        for gi in 0..ld.gates() {
            let gate_slot = ld.gate_lo as usize + gi;
            let predicted = history[schedule.gate(gate_slot)] as usize;
            for w in 0..nw {
                let words = match predicted {
                    0 => {
                        let edges: usize = schedule
                            .pins_of(gate_slot)
                            .iter()
                            .map(|&sig| {
                                // relaxed-ok: input lengths were published
                                // by lower levels behind the launch join
                                // that precedes this assignment (same
                                // ordering as the kernel's own input reads).
                                scratch.lens[slot(nw, sig as usize, w)].load(Ordering::Relaxed)
                                    as usize
                            })
                            .sum();
                        4 + edges
                    }
                    words => words,
                };
                let words_even = words + (words & 1);
                if cursor + words_even > self.capacity {
                    return Err(CoreError::OutOfMemory {
                        requested: cursor + words_even,
                        capacity: self.capacity,
                    });
                }
                // relaxed-ok: runs between launches — the next launch
                // orders these writes against the speculative pass that
                // reads them.
                scratch.bases[col].store(cursor as u32, Ordering::Relaxed);
                // relaxed-ok: see above.
                scratch.caps[col].store(words_even as u32, Ordering::Relaxed);
                cursor += words_even;
                col += 1;
            }
        }
        let words = (cursor - self.bump) as u64;
        self.bump = cursor;
        Ok(words)
    }

    /// Post-level overflow scan of a level's speculative pass over
    /// `threads` threads, advancing the bump; returns the words the
    /// overflow re-allocations added. The kernel threads did the per-column
    /// work themselves — publishing every window's length and recording
    /// overflowed columns through the
    /// [`BatchScratch::ovf_len`] cursor — so this scan is O(overflows), not
    /// O(columns): on the common all-hit level it only bumps the thread
    /// tally (the storing threads sum hit slack into
    /// [`BatchScratch::waste`]). The recorded columns are copied into
    /// `overflow_cols` and sorted — the recording order depends on thread
    /// interleaving, and repairs must allocate in column order for the
    /// arena layout to stay deterministic. Each then gets exact
    /// even-aligned space, and its whole abandoned reservation counts as
    /// waste. The narrow repair launch runs one thread per recorded slot.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfMemory`] if an overflow re-allocation exceeds the
    /// arena; the bump keeps its pre-scan value.
    fn advance_scan(
        &mut self,
        scratch: &BatchScratch,
        threads: usize,
        overflow_cols: &mut Vec<usize>,
        tally: &mut SpecTally,
    ) -> Result<u64> {
        let mut cursor = self.bump;
        overflow_cols.clear();
        // relaxed-ok: the cursor and its slots were written by the kernel
        // threads before the launch join that precedes this scan.
        let n = scratch.ovf_len.load(Ordering::Relaxed);
        overflow_cols.extend(
            scratch.ovf[..n]
                .iter()
                // relaxed-ok: see above.
                .map(|s| s.load(Ordering::Relaxed) as usize),
        );
        overflow_cols.sort_unstable();
        for &col in overflow_cols.iter() {
            // relaxed-ok: stored by the overflowing thread before the
            // join; see above.
            let packed = scratch.outs[col].load(Ordering::Relaxed);
            // relaxed-ok: written by `advance_budgets` before the launch.
            let cap = scratch.caps[col].load(Ordering::Relaxed);
            let words_even = KernelOutput::unpack_words_even(packed);
            tally.overflows += 1;
            // The whole reservation is abandoned: the exact waveform gets
            // fresh space so hits' already-published pointers stay put.
            tally.waste_words += u64::from(cap);
            if cursor + words_even > self.capacity {
                return Err(CoreError::OutOfMemory {
                    requested: cursor + words_even,
                    capacity: self.capacity,
                });
            }
            // relaxed-ok: the repair launch reads this base; its publish
            // orders the write before the read.
            scratch.bases[col].store(cursor as u32, Ordering::Relaxed);
            cursor += words_even;
        }
        tally.threads += threads as u64;
        let words = (cursor - self.bump) as u64;
        self.bump = cursor;
        Ok(words)
    }
}

/// Precomputes the collapsed average (rise, fall) delay for every pin slot
/// (Table 7 "No Full SDF" mode).
fn compute_avg_delays(graph: &CircuitGraph) -> Vec<(i32, i32)> {
    let mut out = Vec::new();
    for g in 0..graph.n_gates() {
        let n = graph.gate_fanin(g).len();
        let (fb_r, fb_f) = graph.fallback_delay(g);
        for pin in 0..n {
            let lut = graph.delay_lut(g, pin);
            let ncols = lut.len() / 4;
            let mut avg = [(0i64, 0i64); 2]; // (sum, n) per output edge
            for row in 0..4usize {
                for c in 0..ncols {
                    let d = lut[row * ncols + c];
                    if d != NO_ARC {
                        let e = &mut avg[row % 2];
                        e.0 += i64::from(d);
                        e.1 += 1;
                    }
                }
            }
            let rise = if avg[0].1 > 0 {
                (avg[0].0 / avg[0].1) as i32
            } else {
                fb_r
            };
            let fall = if avg[1].1 > 0 {
                (avg[1].0 / avg[1].1) as i32
            } else {
                fb_f
            };
            out.push((rise, fall));
        }
    }
    out
}

/// A gate-driven signal's SAIF record from the kernel-side sums. A
/// zero-duration run still simulates `make_windows`' one-tick window; that
/// tick lies past the run's end, so it adds no time and no toggle.
fn gate_record(duration: SimTime, tc: u64, t0: i64, t1: i64) -> SaifRecord {
    let (tc, t0, t1) = if duration == 0 {
        (0, 0, 0)
    } else {
        (tc, t0, t1)
    };
    SaifRecord {
        t0,
        t1,
        tx: 0,
        tc,
        ig: 0,
    }
}

/// Scans the waveform stored at `ptr` for its window's SAIF record clipped
/// to `[0, clip)`: `(toggle count, time at 1)` — the time at 0 is `clip`
/// minus the latter, because the spans sum to the clip. Run by the thread
/// that just stored the words.
fn saif_scan(mem: &DeviceMemory, ptr: usize, clip: SimTime) -> (u64, u64) {
    let mut idx = ptr;
    if mem.load(idx) == INIT_ONE_MARKER {
        idx += 1;
    }
    debug_assert_eq!(mem.load(idx), 0);
    let mut val = idx % 2 == 1;
    let (mut tc, mut t1) = (0u64, 0i64);
    let mut prev = 0i64;
    let clip = i64::from(clip);
    loop {
        idx += 1;
        let t = mem.load(idx);
        if t == EOW || i64::from(t) >= clip {
            break;
        }
        if val {
            t1 += i64::from(t) - prev;
        }
        prev = i64::from(t);
        val = idx % 2 == 1;
        tc += 1;
    }
    if val {
        t1 += clip - prev;
    }
    debug_assert!((0..=i64::from(u32::MAX)).contains(&t1));
    (tc, t1 as u64)
}

/// Streaming file-format convenience entry points: run and write VCD/SAIF
/// incrementally, with memory bounded per window — the paper's Fig. 2
/// deliverables without ever materialising all waveforms.
impl Session {
    /// Every signal's name, indexed by signal id (the format sinks' name
    /// table).
    fn signal_names(&self) -> Vec<&str> {
        (0..self.graph.n_signals())
            .map(|s| self.graph.signal_name(SignalId(s as u32)))
            .collect()
    }

    /// Runs and streams every signal's waveform into `out` as VCD,
    /// window by window — works for segmented runs, where the whole-run
    /// waveforms never coexist in memory. Returns the result and the
    /// writer (pass a `BufWriter<File>` for file output, or `Vec<u8>` for
    /// in-memory).
    ///
    /// # Errors
    ///
    /// As [`Session::run`]; writer failures surface as [`CoreError::Io`].
    pub fn run_to_vcd<W: std::io::Write>(
        &self,
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
        out: W,
    ) -> Result<(SimResult, W)> {
        let names = self.signal_names();
        let mut sink = VcdSink::new(out, self.graph.name(), &names)?;
        let result = self.run_streaming(stimuli, duration, opts, &mut sink)?;
        Ok((result, sink.finish()?))
    }

    /// Runs and folds the SAIF document incrementally from the streamed
    /// waveforms (per-window deltas, O(nets) memory). The returned
    /// document equals [`SimResult::saif`] — this entry point exists for
    /// flows that want the SAIF produced by the *output* path (e.g. to
    /// cross-check the kernel-side accumulation) or extended with sink
    /// post-processing.
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_to_saif(
        &self,
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
    ) -> Result<(SimResult, SaifDocument)> {
        let names: Vec<String> = self.signal_names().iter().map(|s| s.to_string()).collect();
        let mut sink = SaifSink::new(self.graph.name(), names);
        let result = self.run_streaming(stimuli, duration, opts, &mut sink)?;
        Ok((result, sink.finish(duration)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatspi_graph::GraphOptions;
    use gatspi_netlist::{CellLibrary, NetlistBuilder};

    fn inv_chain(n: usize) -> Arc<CircuitGraph> {
        let mut b = NetlistBuilder::new("chain", CellLibrary::industry_mini());
        let mut prev = b.add_input("a").unwrap();
        for i in 0..n {
            let net = b.add_net(&format!("n{i}")).unwrap();
            b.add_gate(&format!("u{i}"), "INV", &[prev], net).unwrap();
            prev = net;
        }
        b.mark_output(prev);
        Arc::new(CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap())
    }

    /// `width` lanes `depth` levels deep: gate `i` of level `l` is
    /// `XOR2(lane i, lane i + 1)` of level `l − 1`, so every level holds
    /// `width` gates, and level 0's are gates `0..width`.
    fn xor_mesh(width: usize, depth: usize) -> Arc<CircuitGraph> {
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
        Arc::new(CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap())
    }

    /// The event-driven reference's SAIF of `stim` on `graph`.
    fn reference_saif(graph: &CircuitGraph, stim: &[Waveform], duration: SimTime) -> SaifDocument {
        let config = gatspi_refsim::RefConfig::default();
        let reference = gatspi_refsim::EventSimulator::new(graph, config);
        reference.run(stim, duration).unwrap().saif
    }

    /// Runs `f` on a thread of its own and fails unless it returns within
    /// `secs` — the bound that turns a hung run into a failed test.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        let limit = std::time::Duration::from_secs(secs);
        rx.recv_timeout(limit).expect("the run returned in time")
    }

    /// Batch- and drain-boundary panic classification: the panic text of a
    /// `String` or `&str` payload rides the structured error, any other
    /// payload reads as a placeholder — never a process abort.
    #[test]
    fn segment_boundary_panics_classify_by_payload() {
        let fault = |device, detail: &str| CoreError::DeviceFault {
            device,
            detail: detail.to_string(),
        };
        assert_eq!(
            panic_to_error(1, Box::new("boom".to_string())),
            fault(1, "boom")
        );
        assert_eq!(panic_to_error(3, Box::new("bang")), fault(3, "bang"));
        assert_eq!(
            panic_to_error(0, Box::new(42u32)),
            fault(0, "non-string panic payload")
        );
    }

    /// A batch that panics fails its run with a `DeviceFault`, on one
    /// device and on a fleet, and is folded into no history. The panic
    /// here is the batch's own budget read running off a history cut short
    /// (a copy of a smaller graph's), so a fold of that batch would panic
    /// the same way, outside any guard.
    #[test]
    fn panicking_batch_fails_the_run_and_folds_nothing() {
        let graph = inv_chain(3);
        let cfg = SimConfig::small()
            .with_cycle_parallelism(8)
            .with_window_align(100);
        let stim = vec![Waveform::from_toggles(false, &[110, 210, 310, 410])];
        let gpus = gatspi_gpu::MultiGpu::new(cfg.device.clone(), 2, 1 << 16);
        let single = Session::new(Arc::clone(&graph), cfg.clone());
        let fleet = Session::with_devices(graph, cfg, gpus.devices().to_vec());
        let short = LevelSchedule::build(&inv_chain(1));
        for sim in [single, fleet] {
            sim.run(&stim, 800).unwrap();
            let plan = sim.plans.lock().unwrap().full.clone().unwrap();
            plan.copy_history(&short);
            match sim.run(&stim, 800) {
                Err(CoreError::DeviceFault { device: 0, detail }) => {
                    assert!(detail.contains("out of bounds"), "{detail}");
                }
                other => panic!("expected a device fault, got {other:?}"),
            }
            assert_eq!(plan.read_history(), short.read_history());
        }
    }

    /// Faults on 2-worker devices, whose levels are 2–4 blocks wide, so
    /// the batch's first level runs on its worker set. Two places:
    ///
    /// * between launches: the history trick above makes the second
    ///   level's budget read panic on the calling thread while the set's
    ///   helper waits for the next launch ("out of bounds");
    /// * inside the kernel: with the per-pin average delays cut off after
    ///   level 0's gates, every block of level 1 slices past them ("out of
    ///   range"). The calling thread claims at least one of those blocks —
    ///   a helper panics at its first and claims no other — and a helper
    ///   that joins panics in its own, so the run ends on the calling
    ///   thread's panic or on a helper's rethrown at the launch join.
    ///
    /// Each run fails with the panic's text within a time bound, on one
    /// device and on a fleet, and the session's next clean run matches the
    /// reference. `gatspi_gpu`'s worker-set tests pin the helper's and the
    /// caller's panic one at a time.
    #[test]
    fn worker_set_fault_fails_the_run_and_the_session_recovers() {
        let graph = xor_mesh(8, 6);
        // 8 gates × 8 (or a fleet device's 4) windows a level: 4 (2)
        // blocks of 16 threads.
        let cfg = SimConfig {
            threads_per_block: 16,
            ..SimConfig::small()
        }
        .with_cycle_parallelism(8)
        .with_window_align(100);
        let stim: Vec<_> = (0..8)
            .map(|i| Waveform::from_toggles(i % 2 == 1, &[110 + 10 * i, 330, 520 + 10 * i]))
            .collect();
        let reference = reference_saif(&graph, &stim, 800);
        let device = || {
            Arc::new(Device::with_workers(
                cfg.device.clone(),
                cfg.memory_words,
                2,
            ))
        };
        let single = Session::with_devices(Arc::clone(&graph), cfg.clone(), vec![device()]);
        let fleet =
            Session::with_devices(Arc::clone(&graph), cfg.clone(), vec![device(), device()]);
        // Level 0's gates only: the first launch runs, the second level's
        // budget read runs off the end.
        let short = LevelSchedule::build(&xor_mesh(8, 1));
        let fresh = LevelSchedule::build(&graph);
        let expect_fault = |sim: &Arc<Session>, text: &'static str| {
            let (faulty, stimuli) = (Arc::clone(sim), stim.clone());
            match within(30, move || faulty.run(&stimuli, 800)) {
                Err(CoreError::DeviceFault { device: 0, detail }) => {
                    assert!(detail.contains(text), "{detail}");
                }
                other => panic!("expected a device fault, got {other:?}"),
            }
        };
        for sim in [single, fleet] {
            let mut sim = Arc::new(sim);
            sim.run(&stim, 800).unwrap();
            let plan = sim.plans.lock().unwrap().full.clone().unwrap();
            plan.copy_history(&short);
            expect_fault(&sim, "out of bounds");
            plan.copy_history(&fresh);

            // Two XOR2 pins a gate, gate ids in level order: level 0's
            // gates own the first 16 pin slots.
            let session = Arc::get_mut(&mut sim).expect("the faulty run let go");
            let delays = std::mem::take(&mut session.avg_delays);
            session.avg_delays = delays[..16].to_vec();
            expect_fault(&sim, "out of range");
            Arc::get_mut(&mut sim)
                .expect("the faulty run let go")
                .avg_delays = delays;

            let clean = sim.run(&stim, 800).unwrap();
            let diffs = clean.saif.diff(&reference);
            assert!(diffs.is_empty(), "{:?}", diffs.first());
        }
    }

    #[test]
    fn windows_cover_duration_exactly() {
        let sim = Session::new(inv_chain(1), SimConfig::small().with_window_align(10));
        let ws = sim.make_windows(95, 4);
        assert_eq!(ws.first().unwrap().0, 0);
        assert_eq!(ws.last().unwrap().1, 95);
        for pair in ws.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "contiguous windows");
        }
        // Aligned boundaries except the final clip.
        for &(s, _) in &ws {
            assert_eq!(s % 10, 0);
        }
    }

    #[test]
    fn windows_align_and_clip_edge_cases() {
        let sim = Session::new(inv_chain(1), SimConfig::small().with_window_align(100));
        // Duration shorter than one alignment unit: a single clipped window.
        assert_eq!(sim.make_windows(30, 4), vec![(0, 30)]);
        // Duration exactly one unit.
        assert_eq!(sim.make_windows(100, 4), vec![(0, 100)]);
        // Non-multiple duration: aligned starts, final window clipped.
        let ws = sim.make_windows(250, 2);
        assert_eq!(ws, vec![(0, 200), (200, 250)]);
        // More slots than alignment units: one window per unit, no empties.
        let ws = sim.make_windows(300, 50);
        assert_eq!(ws, vec![(0, 100), (100, 200), (200, 300)]);
        assert!(ws.iter().all(|&(s, e)| s < e), "no empty windows");
    }

    #[test]
    fn windows_degenerate_durations() {
        let sim = Session::new(inv_chain(1), SimConfig::small());
        // Zero (and anything below one tick) clamps to a single minimal
        // window rather than returning an empty cover.
        assert_eq!(sim.make_windows(0, 8), vec![(0, 1)]);
        assert_eq!(sim.make_windows(1, 8), vec![(0, 1)]);
        // Zero slots behaves as one slot.
        assert_eq!(sim.make_windows(500, 0), vec![(0, 500)]);
    }

    #[test]
    fn single_window_when_parallelism_one() {
        let sim = Session::new(inv_chain(1), SimConfig::small().with_cycle_parallelism(1));
        let ws = sim.make_windows(1000, 1);
        assert_eq!(ws, vec![(0, 1000)]);
    }

    #[test]
    fn chain_propagates_and_counts() {
        let graph = inv_chain(4);
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small().with_cycle_parallelism(1),
        );
        let stim = vec![Waveform::from_toggles(false, &[100, 200, 300])];
        let spill = RunOptions::default().with_waveform_spill();
        let r = sim.run_with(&stim, 400, &spill).unwrap();
        // Every inverter output toggles 3 times.
        for g in 0..4 {
            let sig = graph.gate_output(g).index();
            assert_eq!(r.toggle_count(sig), 3, "gate {g}");
        }
        // Output waveform: delays accumulate one tick per stage.
        let out = r.waveform(graph.gate_output(3).index()).unwrap();
        // Four inversions of an initially-low input: initial value 0.
        assert_eq!(out.raw(), &[0, 104, 204, 304, EOW]);
    }

    #[test]
    fn windowed_run_matches_single_window() {
        let graph = inv_chain(3);
        let stim = vec![Waveform::from_toggles(
            false,
            &[110, 210, 310, 410, 510, 610, 710],
        )];
        let spill = RunOptions::default().with_waveform_spill();
        let single = Session::new(
            Arc::clone(&graph),
            SimConfig::small().with_cycle_parallelism(1),
        )
        .run_with(&stim, 800, &spill)
        .unwrap();
        let windowed = Session::new(
            Arc::clone(&graph),
            SimConfig::small()
                .with_cycle_parallelism(8)
                .with_window_align(100),
        )
        .run_with(&stim, 800, &spill)
        .unwrap();
        for s in 0..graph.n_signals() {
            assert_eq!(
                single.toggle_count(s),
                windowed.toggle_count(s),
                "signal {s}"
            );
        }
        assert!(single.saif.diff(&windowed.saif).is_empty());
        // Stitched waveforms match too.
        let a = single.waveform(graph.gate_output(2).index()).unwrap();
        let b = windowed.waveform(graph.gate_output(2).index()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stimulus_mismatch_rejected() {
        let sim = Session::new(inv_chain(1), SimConfig::small());
        let err = sim.run(&[], 100);
        assert!(matches!(err, Err(CoreError::StimulusMismatch { .. })));
    }

    #[test]
    fn segmentation_on_tiny_memory() {
        let graph = inv_chain(2);
        let cfg = SimConfig {
            memory_words: 512,
            ..SimConfig::small()
        }
        .with_cycle_parallelism(16)
        .with_window_align(10);
        let sim = Session::new(Arc::clone(&graph), cfg);
        let toggles: Vec<i32> = (1..150).map(|i| i * 10 + 5).collect();
        let stim = vec![Waveform::from_toggles(false, &toggles)];
        let r = sim.run(&stim, 1500).unwrap();
        assert!(r.segments() > 1, "expected segmentation");
        assert_eq!(r.toggle_count(graph.gate_output(1).index()), 149);
        // Without spill, the run kept no waveforms.
        assert!(matches!(r.waveform(0), Err(CoreError::WaveformsNotKept)));
    }

    #[test]
    fn segment_hint_skips_oom_halving_on_repeat_runs() {
        // The first run halves its segment size after an OOM and records
        // the size it settled on; repeat runs of the same shape on the
        // session start there, and a fresh session has no hint.
        let graph = inv_chain(2);
        let cfg = SimConfig {
            memory_words: 512,
            ..SimConfig::small()
        }
        .with_cycle_parallelism(16)
        .with_window_align(10);
        let toggles: Vec<i32> = (1..150).map(|i| i * 10 + 5).collect();
        let stim = vec![Waveform::from_toggles(false, &toggles)];
        let sim = Session::new(Arc::clone(&graph), cfg.clone());
        let first = sim.run(&stim, 1500).unwrap();
        assert_eq!((first.segments(), first.app_profile.oom_retries), (2, 1));
        for _ in 0..2 {
            let again = sim.run(&stim, 1500).unwrap();
            assert_eq!((again.segments(), again.app_profile.oom_retries), (2, 0));
            assert_eq!(again.saif, first.saif);
        }
        let fresh = Session::new(graph, cfg).run(&stim, 1500).unwrap();
        assert_eq!((fresh.segments(), fresh.app_profile.oom_retries), (2, 1));
    }

    #[test]
    fn spilled_segmented_run_extracts_waveforms() {
        let graph = inv_chain(2);
        let cfg = SimConfig {
            memory_words: 512,
            ..SimConfig::small()
        }
        .with_cycle_parallelism(16)
        .with_window_align(10);
        let sim = Session::new(Arc::clone(&graph), cfg);
        let toggles: Vec<i32> = (1..150).map(|i| i * 10 + 5).collect();
        let stim = vec![Waveform::from_toggles(false, &toggles)];
        let spilled = sim
            .run_with(&stim, 1500, &RunOptions::default().with_waveform_spill())
            .unwrap();
        assert!(spilled.segments() > 1, "expected segmentation");
        // The spill readback is accounted in the phase profile.
        assert!(spilled.app_profile.d2h_bytes > 0);
        assert!(spilled.app_profile.readback_seconds > 0.0);

        // Reference: the same run with a roomy arena, unsegmented.
        let roomy = Session::new(
            Arc::clone(&graph),
            SimConfig::small()
                .with_cycle_parallelism(16)
                .with_window_align(10),
        )
        .run_with(&stim, 1500, &RunOptions::default().with_waveform_spill())
        .unwrap();
        assert_eq!(roomy.segments(), 1);
        for s in 0..graph.n_signals() {
            assert_eq!(
                spilled.waveform(s).unwrap(),
                roomy.waveform(s).unwrap(),
                "signal {s} must survive the host spill"
            );
        }
    }

    #[test]
    fn incremental_reuses_out_of_cone_spill_slots_verbatim() {
        // Only the changed gate's fan-out cone is recomputed: every other
        // signal's spill slot must be *pointer-identical* to the previous
        // run's — shared chunk storage, same encoded pointer — not a
        // re-simulated copy that merely compares equal.
        let graph = inv_chain(6);
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small()
                .with_cycle_parallelism(4)
                .with_window_align(10),
        );
        let toggles: Vec<i32> = (1..40).map(|i| i * 10 + 5).collect();
        let stim = vec![Waveform::from_toggles(false, &toggles)];
        let opts = RunOptions::default().with_waveform_spill();
        let r0 = sim.run_with(&stim, 400, &opts).unwrap();
        // "Resize" the last inverter: its cone is exactly itself.
        let inc = sim.run_incremental(&r0, &[5], &stim, 400, &opts).unwrap();

        let base = r0.spilled.as_ref().unwrap();
        let derived = inc.spilled.as_ref().unwrap();
        for (i, c) in base.chunks.iter().enumerate() {
            assert!(
                Arc::ptr_eq(c, &derived.chunks[i]),
                "baseline chunk {i} must be shared, not copied"
            );
        }
        let cone_sig = graph.gate_output(5).index();
        let n = graph.n_signals();
        for w in 0..base.windows.len() {
            for s in 0..n {
                let slot = w * n + s;
                if s == cone_sig {
                    assert_ne!(
                        derived.ptrs[slot], base.ptrs[slot],
                        "cone output is recomputed into fresh storage (w={w})"
                    );
                } else {
                    assert_eq!(
                        derived.ptrs[slot], base.ptrs[slot],
                        "out-of-cone slot reused verbatim (w={w}, s={s})"
                    );
                }
            }
        }
        // Delays did not actually change, so the recomputed cone output
        // (and everything else) still decodes to the same waveforms.
        for s in 0..n {
            assert_eq!(inc.waveform(s).unwrap(), r0.waveform(s).unwrap());
        }
    }

    #[test]
    fn unspilled_results_keep_no_waveforms() {
        // A run's waveforms live only in its host spill: a one-segment run
        // without one reads none, whatever its device still holds.
        let graph = inv_chain(2);
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small()
                .with_cycle_parallelism(4)
                .with_window_align(100),
        );
        let stim = vec![Waveform::from_toggles(false, &[110, 210, 310])];
        let r = sim.run(&stim, 400).unwrap();
        assert_eq!(r.segments(), 1);
        let out = graph.gate_output(1).index();
        assert_eq!(r.toggle_count(out), 3);
        assert!(matches!(r.waveform(out), Err(CoreError::WaveformsNotKept)));
        assert!(matches!(
            r.for_each_toggle(out, |_| {}),
            Err(CoreError::WaveformsNotKept)
        ));
        assert!(matches!(
            r.raw_window(out, 0),
            Err(CoreError::WaveformsNotKept)
        ));
    }

    #[test]
    fn spilled_waveforms_survive_later_runs_on_same_session() {
        // The spill contract is durability: a later run recycling the
        // session's device arena must not corrupt an earlier spilled
        // result.
        let graph = inv_chain(2);
        let cfg = SimConfig::small()
            .with_cycle_parallelism(4)
            .with_window_align(100);
        let sim = Session::new(Arc::clone(&graph), cfg.clone());
        let stim_a = vec![Waveform::from_toggles(false, &[110, 210, 310])];
        let stim_b = vec![Waveform::from_toggles(true, &[150, 250])];
        let r_a = sim
            .run_with(&stim_a, 400, &RunOptions::default().with_waveform_spill())
            .unwrap();
        assert_eq!(r_a.segments(), 1);
        // Gate outputs were read back even for the single-segment run —
        // that copy is what makes the result durable. PI windows are fed
        // from the host-resident stimulus, not read back.
        assert!(r_a.app_profile.d2h_bytes > 0);

        // Recycle the arena with a different stimulus...
        let _ = sim.run(&stim_b, 400).unwrap();

        // ...and the first result's waveforms are still correct.
        let reference = Session::new(graph, cfg)
            .run_with(&stim_a, 400, &RunOptions::default().with_waveform_spill())
            .unwrap();
        for s in 0..reference.toggle_counts_slice().len() {
            assert_eq!(
                r_a.waveform(s).unwrap(),
                reference.waveform(s).unwrap(),
                "signal {s} must stay valid after the arena was recycled"
            );
        }
    }

    #[test]
    fn plan_cache_reuses_equal_window_counts() {
        let graph = inv_chain(3);
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small()
                .with_cycle_parallelism(8)
                .with_window_align(100),
        );
        let stim = vec![Waveform::from_toggles(false, &[110, 210, 310, 410])];
        // Two segments of 4 windows each: the plan is built exactly once,
        // and the run looks it up once.
        let opts = RunOptions::default().with_segment_windows(4);
        let r = sim.run_with(&stim, 800, &opts).unwrap();
        assert_eq!(r.segments(), 2);
        let stats = sim.plan_cache_stats();
        assert_eq!(stats.misses, 1, "equal-nw segments share one build");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.cached, 1);

        // A whole second run re-hits the same plan.
        let _ = sim.run_with(&stim, 800, &opts).unwrap();
        let stats = sim.plan_cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn scratch_pool_holds_one_arena_per_device() {
        let graph = inv_chain(3);
        let cfg = SimConfig::small()
            .with_cycle_parallelism(8)
            .with_window_align(100);
        let stim = vec![Waveform::from_toggles(false, &[110, 210, 310, 410])];
        let sim = Session::new(Arc::clone(&graph), cfg.clone());
        // 8, 3, 5 and 1 windows: the first batch's arena serves the rest.
        for (duration, windows) in [(800, 8), (300, 3), (500, 5), (100, 1)] {
            assert_eq!(sim.make_windows(duration, 8).len(), windows);
            sim.run(&stim, duration).unwrap();
            let pool = sim.scratch_pool.lock().unwrap();
            assert_eq!(pool.len(), 1, "after {windows} windows");
            assert_eq!(pool[0].ptrs.len(), 8 * graph.n_signals());
            assert_eq!(pool[0].outs.len(), 8, "one gate per level × 8 windows");
        }
        // A fleet's devices run their ranges side by side: one arena each.
        let gpus = gatspi_gpu::MultiGpu::new(cfg.device.clone(), 2, 1 << 16);
        let fleet = Session::with_devices(graph, cfg, gpus.devices().to_vec());
        for duration in [1600, 700, 300, 100] {
            fleet.run(&stim, duration).unwrap();
            assert!(fleet.scratch_pool.lock().unwrap().len() <= 2);
        }
    }

    #[test]
    fn forced_segmentation_matches_unsegmented() {
        let graph = inv_chain(3);
        let stim = vec![Waveform::from_toggles(
            false,
            &[110, 210, 310, 410, 510, 610],
        )];
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small()
                .with_cycle_parallelism(8)
                .with_window_align(100),
        );
        let whole = sim.run(&stim, 800).unwrap();
        let split = sim
            .run_with(&stim, 800, &RunOptions::default().with_segment_windows(3))
            .unwrap();
        assert!(split.segments() > 1);
        assert!(whole.saif.diff(&split.saif).is_empty());
        assert_eq!(whole.total_toggles(), split.total_toggles());
    }

    #[test]
    fn oom_halving_retry_converges_geometrically() {
        // 16 windows with an arena sized so the full batch and the
        // half-batch both overflow but quarter-batches fit: the retry loop
        // must halve 16 → 8 → 4 and then run 4 equal segments.
        let graph = inv_chain(2);
        let toggles: Vec<i32> = (1..160).map(|i| i * 10 + 5).collect();
        let stim = vec![Waveform::from_toggles(false, &toggles)];
        let duration = 1600;

        let run = |words: usize| {
            let cfg = SimConfig {
                memory_words: words,
                ..SimConfig::small()
            }
            .with_cycle_parallelism(16)
            .with_window_align(100);
            Session::new(Arc::clone(&graph), cfg).run(&stim, duration)
        };
        let roomy = run(1 << 20).unwrap();
        assert_eq!(roomy.segments(), 1);

        // Find a size that forces exactly 4 segments, then check the
        // result is unchanged.
        let mut seen4 = None;
        for words in (260..1000).step_by(10) {
            if let Ok(r) = run(words) {
                if r.segments() == 4 {
                    seen4 = Some(r);
                    break;
                }
            }
        }
        let tight = seen4.expect("some arena size yields 4 segments");
        assert!(roomy.saif.diff(&tight.saif).is_empty());
        assert_eq!(roomy.total_toggles(), tight.total_toggles());
    }

    /// Halving down to chunk 1: the smallest arena that runs at all fits
    /// one window and no more, so the run halves its range size until it
    /// is 1 — once per halving, log2 of the starting share — runs every
    /// window as a segment of its own, and keeps the roomy run's and the
    /// reference's SAIF; on one device and on a 2-device fleet.
    #[test]
    fn oom_halving_reaches_one_window_segments() {
        let graph = inv_chain(2);
        let toggles: Vec<i32> = (1..160).map(|i| i * 10 + 5).collect();
        let stim = vec![Waveform::from_toggles(false, &toggles)];
        let (duration, windows) = (1600, 16);
        let reference = reference_saif(&graph, &stim, duration);
        let cfg = |words: usize| {
            SimConfig {
                memory_words: words,
                ..SimConfig::small()
            }
            .with_cycle_parallelism(windows)
            .with_window_align(100)
        };
        for devices in [1, 2] {
            let run = |words: usize| {
                let gpus = gatspi_gpu::MultiGpu::new(DeviceSpec::v100(), devices, words);
                let sim =
                    Session::with_devices(Arc::clone(&graph), cfg(words), gpus.devices().to_vec());
                sim.run(&stim, duration)
            };
            let roomy = run(1 << 20).unwrap();
            assert_eq!(roomy.segments(), devices);
            let tight = (2..2000)
                .step_by(2)
                .find_map(|words| run(words).ok())
                .expect("some arena fits one window");
            let share = windows / devices;
            assert_eq!(tight.segments(), windows, "{devices} device(s)");
            assert_eq!(
                tight.app_profile.oom_retries,
                u64::from(share.trailing_zeros()),
                "one retry per halving of {share}, {devices} device(s)"
            );
            assert!(roomy.saif.diff(&tight.saif).is_empty());
            assert!(tight.saif.diff(&reference).is_empty());
        }
    }

    #[test]
    fn hard_oom_when_one_window_too_big() {
        let graph = inv_chain(1);
        let cfg = SimConfig {
            memory_words: 8,
            ..SimConfig::small()
        };
        let sim = Session::new(graph, cfg);
        let stim = vec![Waveform::from_toggles(false, &(1..100).collect::<Vec<_>>())];
        let err = sim.run(&stim, 200);
        assert!(matches!(err, Err(CoreError::OutOfMemory { .. })));
    }

    /// Every record spans the run, a zero-duration one included (its one
    /// simulated tick lies past the end, so it records no time and no
    /// toggle).
    #[test]
    fn saif_t0_t1_sum_to_duration() {
        let graph = inv_chain(2);
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small()
                .with_cycle_parallelism(4)
                .with_window_align(50),
        );
        let stim = vec![Waveform::from_toggles(true, &[40, 110, 160])];
        for duration in [200, 0] {
            let r = sim.run(&stim, duration).unwrap();
            assert_eq!(r.saif.nets.len(), graph.n_signals());
            for (name, rec) in &r.saif.nets {
                let t = i64::from(duration);
                assert_eq!(rec.t0 + rec.t1, t, "net {name}, duration {duration}");
                if duration == 0 {
                    assert_eq!(rec.tc, 0, "net {name}");
                }
            }
        }
    }

    #[test]
    fn app_profile_populated() {
        let graph = inv_chain(3);
        // One launch per level (3 levels), one segment.
        let sim = Session::new(Arc::clone(&graph), SimConfig::small());
        let stim = vec![Waveform::from_toggles(false, &[10, 20, 30])];
        let r = sim.run(&stim, 100).unwrap();
        assert!(r.app_profile.h2d_bytes > 0);
        assert_eq!(r.app_profile.launches, 3);
        assert_eq!(r.app_profile.fused_launches, 0);
        assert!(r.app_profile.h2d_seconds > 0.0);
        assert!(r.kernel_profile.modeled_seconds > 0.0);
        assert!(r.wall_seconds > 0.0);
        assert_eq!(r.app_profile.speculative_hit_rate, 1.0);
        assert_eq!(r.app_profile.overflow_repairs, 0);
        // A cold predictor reserves the static bound, wider than the
        // stored waveforms.
        assert!(r.app_profile.predicted_waste_words > 0);
    }

    /// `RunTotals` is the one place batches are summed and the one place an
    /// `AppPhaseProfile` is spelled out: every counter of three synthetic
    /// batches lands in the profile. Two ran on device 0 and one on device
    /// 1, so modeled kernel time is the slowest device's sum and the phases
    /// that overlap across devices divide by the two that ran. (Powers of
    /// two throughout, so equality is exact.)
    #[test]
    fn run_totals_sum_batches_into_the_profile() {
        let batch = |tc: [u64; 2], t0: [i64; 2], t1: [i64; 2], modeled: f64, k: u64| {
            let mut kernel_profile = KernelProfile::empty("batch");
            kernel_profile.modeled_seconds = modeled;
            WindowBatch {
                windows: vec![(0, 10)],
                ptrs: vec![u32::MAX; 2],
                lens: vec![0; 2],
                tc: tc.to_vec(),
                t0: t0.to_vec(),
                t1: t1.to_vec(),
                kernel_profile,
                launches: 2 * k,
                spec_threads: 8,
                spec_overflows: 2,
                spec_waste_words: 4 * k,
            }
        };
        let mut totals = RunTotals::new(2, 2, "sum");
        totals.absorb(0, &batch([1, 2], [10, 20], [30, 40], 4.0, 3), 5, 1.0);
        totals.absorb(0, &batch([3, 4], [1, 2], [3, 4], 2.0, 1), 7, 0.5);
        assert_eq!(totals.profile.modeled_seconds, 6.0, "one device adds up");
        totals.absorb(1, &batch([0, 0], [0, 0], [0, 0], 5.0, 0), 0, 0.0);
        assert_eq!(totals.tc, [4, 6]);
        assert_eq!(totals.t0, [11, 22]);
        assert_eq!(totals.t1, [33, 44]);
        assert_eq!(totals.segments, 3);
        assert_eq!(
            totals.profile.modeled_seconds, 6.0,
            "devices overlap: the slowest device's sum, not the total or a batch"
        );

        totals.counters.oom_retries += 1;
        let spec = DeviceSpec {
            launch_overhead: 0.5,
            pcie_bw: 1024.0,
            ..DeviceSpec::v100()
        };
        assert_eq!(
            totals.app_profile(&spec, 4096, 2048, 0.0625),
            AppPhaseProfile {
                h2d_seconds: 2.0,
                readback_seconds: 2.0,
                sync_launch_seconds: 2.0,
                kernel_seconds: 4.0,
                restructure_seconds: 0.0625,
                dump_seconds: 0.0,
                dump_stall_seconds: 0.0,
                drain_seconds: 1.5,
                d2h_batches: 12,
                launches: 8,
                fused_launches: 0,
                h2d_bytes: 4096,
                d2h_bytes: 2048,
                speculative_hit_rate: 0.75,
                overflow_repairs: 6,
                predicted_waste_words: 16,
                segment_retries: 0,
                oom_retries: 1,
            }
        );
    }

    #[test]
    fn speculation_halves_unfused_launches() {
        let graph = inv_chain(3);
        // Speculative single pass: 1 launch per level, not count + store — the first-touch static bound is
        // sound, so no repair launches appear even on a cold predictor.
        let sim = Session::new(Arc::clone(&graph), SimConfig::small());
        let stim = vec![Waveform::from_toggles(false, &[10, 20, 30])];
        let r = sim.run(&stim, 100).unwrap();
        assert_eq!(r.app_profile.launches, 3);
        assert_eq!(r.app_profile.overflow_repairs, 0);
        assert_eq!(r.app_profile.speculative_hit_rate, 1.0);
        assert_eq!(
            r.app_profile.sync_launch_seconds,
            3.0 * sim.devices()[0].spec().launch_overhead,
            "one modeled launch overhead per level"
        );

        // The warm run stores into observed extents instead of the static
        // bound: same launches, same SAIF, no more slack than before.
        let warm = sim.run(&stim, 100).unwrap();
        assert_eq!(warm.app_profile.launches, 3);
        assert_eq!(warm.app_profile.overflow_repairs, 0);
        assert!(r.saif.diff(&warm.saif).is_empty());
        assert!(warm.app_profile.predicted_waste_words <= r.app_profile.predicted_waste_words);
    }

    #[test]
    fn forced_overflow_repairs_exactly() {
        let graph = inv_chain(3);
        let stim = vec![Waveform::from_toggles(false, &[10, 20, 30, 40, 50])];
        let sim = Session::new(Arc::clone(&graph), SimConfig::small());
        // Expected output: the un-poisoned run, every thread a hit.
        let hit = sim.run(&stim, 100).unwrap();
        assert_eq!(hit.app_profile.overflow_repairs, 0);
        // Same session with the extent history poisoned to a 2-word
        // budget — far below any stored waveform here — so *every* gate
        // overflows and the entire output is produced by repair launches.
        sim.seed_extent_history(2);
        let r = sim.run(&stim, 100).unwrap();
        assert!(
            r.app_profile.overflow_repairs > 0,
            "tiny budgets must overflow"
        );
        assert!(
            r.app_profile.launches > hit.app_profile.launches,
            "overflowed levels need a repair launch"
        );
        // Windows that saw no toggles still fit 2 words, so the rate is
        // not 0 — but every toggling window must have missed.
        assert!(r.app_profile.speculative_hit_rate < 1.0);
        assert!(r.app_profile.predicted_waste_words > 0);
        assert!(
            r.saif.diff(&hit.saif).is_empty(),
            "repair alone must reproduce the hit path's output"
        );
        assert_eq!(r.total_toggles(), hit.total_toggles());
    }

    #[test]
    fn level_oom_surfaces_and_segments() {
        // Tiny arena: the OOM raised by a level's reservations between
        // launches must abort the batch cleanly and trigger segmentation.
        let graph = inv_chain(2);
        let cfg = SimConfig {
            memory_words: 512,
            ..SimConfig::small()
        }
        .with_cycle_parallelism(16)
        .with_window_align(10);
        let sim = Session::new(Arc::clone(&graph), cfg);
        let toggles: Vec<i32> = (1..150).map(|i| i * 10 + 5).collect();
        let stim = vec![Waveform::from_toggles(false, &toggles)];
        let r = sim.run(&stim, 1500).unwrap();
        assert!(r.segments() > 1, "expected segmentation");
        assert_eq!(r.toggle_count(graph.gate_output(1).index()), 149);
    }

    /// The "OpenMP-equivalent" CPU backend is a session on one
    /// host-threaded device.
    #[test]
    fn cpu_backend_matches_gpu_results() {
        let graph = inv_chain(3);
        let cfg = SimConfig::small();
        let stim = vec![Waveform::from_toggles(false, &[10, 25, 40, 55])];
        let gpu = Session::new(Arc::clone(&graph), cfg.clone())
            .run(&stim, 100)
            .unwrap();
        let host = Device::with_workers(cfg.device.clone(), cfg.memory_words, 2);
        let cpu = Session::with_devices(graph, cfg, vec![Arc::new(host)])
            .run(&stim, 100)
            .unwrap();
        assert!(gpu.saif.diff(&cpu.saif).is_empty());
    }

    #[test]
    fn activity_factor_computed() {
        let graph = inv_chain(1);
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small().with_cycle_parallelism(1),
        );
        let stim = vec![Waveform::from_toggles(false, &[10, 20, 30, 40])];
        let r = sim.run(&stim, 100).unwrap();
        // 8 toggles over 2 signals, 10 cycles of length 10.
        assert!((r.activity_factor(10) - 0.4).abs() < 1e-9);
        assert_eq!(r.total_toggles(), 8);
    }

    #[test]
    fn streaming_sink_sees_every_window() {
        struct Counter {
            calls: usize,
            windows_seen: usize,
        }
        impl WaveformSink for Counter {
            fn waveform(&mut self, _signal: usize, info: &WindowInfo, raw: &[i32]) {
                self.calls += 1;
                self.windows_seen = self.windows_seen.max(info.window + 1);
                assert!(raw.contains(&EOW), "raw words carry the terminator");
            }
        }
        let graph = inv_chain(2);
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small()
                .with_cycle_parallelism(4)
                .with_window_align(100),
        );
        let stim = vec![Waveform::from_toggles(false, &[110, 210, 310])];
        let mut sink = Counter {
            calls: 0,
            windows_seen: 0,
        };
        let r = sim
            .run_streaming(&stim, 400, &RunOptions::default(), &mut sink)
            .unwrap();
        assert_eq!(sink.windows_seen, 4);
        // Every (signal, window) pair is present on this fully-driven chain.
        assert_eq!(sink.calls, 4 * graph.n_signals());
        assert_eq!(r.segments(), 1);
    }
}
