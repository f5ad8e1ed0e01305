//! The compiled-session API: prepare once, re-simulate many times.
//!
//! The paper's speedup story rests on doing graph preparation once and then
//! re-simulating many stimuli fast. [`Session`] is that split made
//! explicit: building one from `(CircuitGraph, SimConfig)` owns the
//! simulated device and a keyed cache of [`LevelSchedule`] plans (one per
//! window count), plus a pool of [`BatchScratch`] arenas, so repeated runs — more segments of one stimulus, or entirely
//! new stimuli — skip every piece of preparation that does not depend on
//! the stimulus itself. Execution is driven by [`RunOptions`] and can
//! stream every finished waveform through an output sink
//! ([`Session::run_streaming`]), including the built-in host spill that
//! keeps [`SimResult::waveform`] working across memory segments.

use crate::sync::Mutex;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use gatspi_gpu::{
    AppPhaseProfile, Device, DeviceMemory, DeviceSpec, KernelProfile, LaneCounters, LaunchConfig,
};
use gatspi_graph::{CircuitGraph, SignalId};
use gatspi_sdf::NO_ARC;
use gatspi_wave::saif::{SaifDocument, SaifRecord};
use gatspi_wave::{SimTime, Waveform, EOW, INIT_ONE_MARKER};

use crate::kernel::{simulate_gate, GateKernelInput, KernelMode, KernelOutput, MAX_KERNEL_PINS};
use crate::result::ExtractionState;
use crate::schedule::{slot, BatchScratch, ConeInfo, HostState, LevelSchedule};
use crate::sink::{SaifSink, SpillSink, VcdSink, WaveformSink, WindowInfo};
use crate::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use crate::{CoreError, Result, SimConfig, SimResult};

/// Scratch arenas kept in the session pool (one per concurrently executing
/// device is plenty; anything beyond bounds idle memory).
const SCRATCH_POOL_CAP: usize = 8;

/// An arena at least this many times larger than the batch needs it (in
/// both the pointer-table and per-level dimensions) counts as grossly
/// oversized for the pool's shrink heuristic.
const SCRATCH_OVERSIZE_FACTOR: usize = 4;

/// Consecutive grossly-oversized servings after which the pool drops the
/// arena and allocates one sized for the batch at hand, so one worst-case
/// arena cannot serve tiny batches indefinitely.
const SCRATCH_SHRINK_AFTER: u32 = 4;

/// Execution options for one run of a compiled [`Session`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Spill every segment's finished waveforms to host memory before the
    /// device arena is recycled. [`SimResult::waveform`] is then served
    /// from the durable host copy: it works for segmented runs (the
    /// classic API refused with [`CoreError::Segmented`]) and stays valid
    /// after later runs recycle the session's device arena — unlike the
    /// default device-backed extraction. Costs one D2H readback of the
    /// stored gate-output waveforms per segment, reported as
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
/// [`Session::plan_cache_stats`]). A hit means a batch reused a previously
/// built `LevelSchedule` instead of re-walking the graph; cone counters
/// track the incremental-run sub-schedule store the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Batches that reused a cached plan.
    pub hits: u64,
    /// Plans built because no cached one matched (also the build count).
    pub misses: u64,
    /// Plans currently cached (full plans plus cone sub-plans).
    pub cached: usize,
    /// Plans evicted by the LRU bound
    /// ([`SimConfig::plan_cache_cap`](crate::SimConfig::plan_cache_cap)).
    pub evictions: u64,
    /// Incremental batches that reused a cached cone sub-schedule
    /// ([`Session::run_incremental`]).
    pub cone_hits: u64,
    /// Cone sub-schedules built because no cached one matched.
    pub cone_misses: u64,
}

/// A cached incremental-run plan: the cone sub-schedule for one
/// `(window count, fuse threshold, changed set)` key, plus the cone it was
/// restricted to (`changed` verifies the signature against hash collisions).
#[derive(Debug)]
struct ConePlan {
    schedule: Arc<LevelSchedule>,
    cone: Arc<ConeInfo>,
    changed: Vec<bool>,
}

/// LRU-bounded plan cache (guarded by the session's mutex): every entry
/// carries the tick of its last use; inserts beyond
/// [`SimConfig::plan_cache_cap`](crate::SimConfig::plan_cache_cap) evict
/// the stalest entry. Full plans and cone sub-plans live in separate maps
/// (their keys differ) but share the recency clock and the cap, applied
/// per map.
#[derive(Debug, Default)]
struct PlanCache {
    /// `nw` → (plan, last-used tick).
    map: HashMap<usize, (Arc<LevelSchedule>, u64)>,
    /// `(nw, cone signature)` → (cone plan, last-used tick). The
    /// signature is an order-independent hash of the changed gate set;
    /// `ConePlan::changed` is compared on every hit, so a colliding set
    /// rebuilds instead of silently reusing the wrong plan.
    cones: HashMap<(usize, u64), (ConePlan, u64)>,
    /// Monotonic access counter stamping recency.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    cone_hits: u64,
    cone_misses: u64,
}

/// Order-independent signature of a changed-gate set: FNV-1a over the set
/// ids in ascending order (the flag vector is scanned in index order, so
/// equal sets hash equally regardless of how the caller listed them).
fn cone_signature(changed: &[bool]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (g, &c) in changed.iter().enumerate() {
        if c {
            h ^= g as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A compiled simulation session (Fig. 5 made resident): the levelized
/// graph, the simulated device, the plan cache and the scratch pool, ready
/// to execute any number of stimuli.
///
/// Construction does the stimulus-independent preparation (device
/// allocation, collapsed average-delay tables); the first run of each
/// window count builds and caches its `LevelSchedule`; every later run —
/// another segment, another stimulus batch, another device shard — reuses
/// it.
///
/// # Fault tolerance
///
/// A session is **never poisoned by a failed run**. Every segment executes
/// under a panic guard at the segment boundary: a device fault or a stray
/// worker panic surfaces as a structured
/// [`CoreError::DeviceFault`](crate::CoreError) from the `run*` call, and
/// the scratch pool and plan cache remain reusable — the next run on the
/// same session reproduces a fresh session's output bit for bit. Transient device faults are retried per
/// segment under [`SimConfig::with_retry_policy`] (see
/// [`RetryPolicy`](crate::RetryPolicy)) *before* any sink delivery, so
/// streamed and post-hoc outputs stay identical to a fault-free run;
/// multi-GPU runs additionally fail a permanently dead device's shards
/// over to the surviving devices (see [`Session::run_multi_gpu`]).
/// Recovery activity is reported in `SimResult::app_profile`
/// (`faults_injected`, `segment_retries`, `failovers`, `backoff_seconds`,
/// `oom_retries`).
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
    device: Arc<Device>,
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
    /// Keyed plan cache: `nw` → schedule, LRU-bounded by
    /// [`SimConfig::plan_cache_cap`]. Plans are device-independent, so
    /// multi-GPU shards and the CPU backend share them too.
    plans: Mutex<PlanCache>,
    /// Recycled batch scratch arenas (pointer/length tables and per-level
    /// count/base tables), so repeated segments and repeated runs stay off
    /// the allocator.
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
    /// every plan fetch re-seeds the plan's extent predictor with this
    /// many words per gate.
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
    pub fused_launches: u64,
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
/// ([`Session::execute_segment`]): the run's window partition, the
/// restructured stimulus per window, and — for an incremental run — the
/// cone that selects the plan, the stimulus source and the drain filter.
pub(crate) struct SegmentInputs<'a> {
    pub windows: &'a [(SimTime, SimTime)],
    /// Per window: every primary input's waveform (full run), or the cone
    /// boundary's primary-input subset in boundary order (incremental run).
    pub stims: &'a [Vec<Waveform>],
    /// `Some` for an incremental run: segments execute the cone sub-plan on
    /// [`BatchStimulus::Boundary`] and drain in-cone signals only.
    pub cone: Option<ConeInputs<'a>>,
}

/// The incremental half of [`SegmentInputs`].
pub(crate) struct ConeInputs<'a> {
    signature: u64,
    changed: &'a [bool],
    cone: &'a Arc<ConeInfo>,
    /// The previous run's sealed spill (gate-driven boundary stimulus).
    spill: &'a SpillSink,
}

/// One run's totals, folded from every executed [`WindowBatch`]. Allocated
/// once per run; [`RunTotals::absorb`] is the only place batch counters are
/// summed and [`RunTotals::app_profile`] the only place an
/// [`AppPhaseProfile`] is built, so every run path reports the same fields
/// the same way.
pub(crate) struct RunTotals {
    pub tc: Vec<u64>,
    pub t0: Vec<i64>,
    pub t1: Vec<i64>,
    pub profile: KernelProfile,
    /// Batches absorbed so far — the run's memory-segment count.
    pub segments: usize,
    /// Fault-recovery counters, bumped from whichever thread retried.
    pub telemetry: RetryTelemetry,
    spec_threads: u64,
    /// The summed per-batch counters, kept in the profile fields they are
    /// reported as; [`RunTotals::app_profile`] fills in the rest.
    counters: AppPhaseProfile,
}

impl RunTotals {
    pub fn new(n_signals: usize, kernel_name: &str) -> Self {
        RunTotals {
            tc: vec![0; n_signals],
            t0: vec![0; n_signals],
            t1: vec![0; n_signals],
            profile: KernelProfile::empty(kernel_name),
            segments: 0,
            telemetry: RetryTelemetry::new(),
            spec_threads: 0,
            counters: AppPhaseProfile::default(),
        }
    }

    /// Folds one finished segment in: its batch, the D2H batches its drain
    /// issued and the drain's measured seconds.
    pub fn absorb(&mut self, batch: &WindowBatch, drained: u64, drain_s: f64) {
        for s in 0..self.tc.len() {
            self.tc[s] += batch.tc[s];
            self.t0[s] += batch.t0[s];
            self.t1[s] += batch.t1[s];
        }
        self.profile.accumulate(&batch.kernel_profile);
        self.segments += 1;
        self.spec_threads += batch.spec_threads;
        let c = &mut self.counters;
        c.launches += batch.launches;
        c.fused_launches += batch.fused_launches;
        c.drain_seconds += drain_s;
        c.d2h_batches += drained;
        c.overflow_repairs += batch.spec_overflows;
        c.predicted_waste_words += batch.spec_waste_words;
    }

    /// The run's application-phase profile. `devices` is how many devices
    /// executed the run concurrently: their uploads and launch overheads
    /// overlap, so both divide by it, while the sink drain walks the devices
    /// one after another and the modeled readback does not. `h2d_bytes` /
    /// `d2h_bytes` are the transfer counters summed over those devices;
    /// modeled kernel time is `self.profile.modeled_seconds`.
    pub fn app_profile(
        &self,
        spec: &DeviceSpec,
        devices: usize,
        h2d_bytes: u64,
        d2h_bytes: u64,
        restructure_seconds: f64,
    ) -> AppPhaseProfile {
        let (c, telemetry) = (&self.counters, &self.telemetry);
        let devices = devices.max(1) as f64;
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
            faults_injected: telemetry.faults(),
            segment_retries: telemetry.retries(),
            failovers: telemetry.failovers(),
            backoff_seconds: telemetry.backoff_seconds(),
            oom_retries: telemetry.oom_retries(),
            ..*c
        }
    }
}

impl Session {
    /// Compiles a session for `graph`, allocating the configured device.
    pub fn new(graph: Arc<CircuitGraph>, config: SimConfig) -> Self {
        let device = Arc::new(Device::new(config.device.clone(), config.memory_words));
        Self::with_device(graph, config, device)
    }

    /// Compiles a session sharing an existing device (CPU-backend runs and
    /// embedding setups use this).
    pub fn with_device(graph: Arc<CircuitGraph>, config: SimConfig, device: Arc<Device>) -> Self {
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
            device,
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

    /// Test/bench hook: every plan fetched after this call re-seeds its
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
    /// on *every* fetch — not just builds — so deliberately tiny test
    /// budgets stay in force across cached-plan reuse and the history the
    /// previous run observed cannot silently widen them.
    fn apply_spec_seed(&self, plan: &LevelSchedule) {
        // relaxed-ok: see `seed_extent_history`.
        let words = self.spec_seed.load(Ordering::Relaxed);
        if words != 0 {
            plan.predictor().fill(words);
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

    /// The simulated device.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Plan-cache hit/miss/eviction counters (misses equal the number of
    /// `LevelSchedule` builds this session has ever performed).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let cache = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        PlanCacheStats {
            hits: cache.hits,
            misses: cache.misses,
            cached: cache.map.len() + cache.cones.len(),
            evictions: cache.evictions,
            cone_hits: cache.cone_hits,
            cone_misses: cache.cone_misses,
        }
    }

    /// The cached launch plan for `nw` concurrent windows, building it on
    /// first use. Holding the cache lock across the build means concurrent
    /// requests for the same key (multi-GPU shards) block briefly and then
    /// hit, instead of building twice. The cache is LRU-bounded by
    /// [`SimConfig::plan_cache_cap`]: inserting past the cap evicts the
    /// least-recently-used plan (odd tail-segment sizes are rarely reused,
    /// and an unbounded cache would pin every one of them forever).
    pub(crate) fn plan(&self, nw: usize) -> Arc<LevelSchedule> {
        let mut cache = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((p, stamp)) = cache.map.get_mut(&nw) {
            *stamp = tick;
            let p = Arc::clone(p);
            cache.hits += 1;
            self.apply_spec_seed(&p);
            return p;
        }
        cache.misses += 1;
        let p = Arc::new(LevelSchedule::build(
            &self.graph,
            nw,
            self.config.fuse_threshold,
        ));
        self.apply_spec_seed(&p);
        cache.map.insert(nw, (Arc::clone(&p), tick));
        let cap = self.config.plan_cache_cap;
        if cap > 0 && cache.map.len() > cap {
            // The freshly inserted plan carries the newest stamp, so the
            // minimum is always some older entry.
            let lru = cache
                .map
                .iter()
                .min_by_key(|&(_, &(_, stamp))| stamp)
                .map(|(&k, _)| k);
            if let Some(k) = lru {
                cache.map.remove(&k);
                cache.evictions += 1;
            }
        }
        p
    }

    /// The already-extracted cone for `changed`, if any cached cone plan
    /// (at any window count) carries it — a repeat incremental run with
    /// the same resize set skips the graph sweep entirely.
    fn cached_cone(&self, signature: u64, changed: &[bool]) -> Option<Arc<ConeInfo>> {
        let cache = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        cache
            .cones
            .iter()
            .find(|(&(_, sig), (p, _))| sig == signature && p.changed == changed)
            .map(|(_, (p, _))| Arc::clone(&p.cone))
    }

    /// The cached cone sub-plan for `(nw, changed set)`, restricting
    /// `cone` on first use. Same locking and LRU discipline as
    /// [`Session::plan`]; the caller supplies the (window-independent) cone
    /// so a repeat incremental run with a different segment size reuses it
    /// without re-sweeping the graph.
    fn cone_plan(
        &self,
        nw: usize,
        signature: u64,
        changed: &[bool],
        cone: &Arc<ConeInfo>,
    ) -> Arc<LevelSchedule> {
        let key = (nw, signature);
        let mut cache = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((p, stamp)) = cache.cones.get_mut(&key) {
            if p.changed == changed {
                *stamp = tick;
                let schedule = Arc::clone(&p.schedule);
                cache.cone_hits += 1;
                self.apply_spec_seed(&schedule);
                return schedule;
            }
        }
        cache.cone_misses += 1;
        let schedule = Arc::new(LevelSchedule::restrict(
            &self.graph,
            nw,
            self.config.fuse_threshold,
            cone,
        ));
        // Warm the cone's extent history from the full plan cached for the
        // same shape (the history is indexed by gate id, so it transfers
        // verbatim): an incremental run then speculates from the full
        // run's observations instead of first-touch static bounds.
        if let Some((full, _)) = cache.map.get(&nw) {
            schedule.predictor().seed_from(full.predictor());
        }
        self.apply_spec_seed(&schedule);
        debug_assert_eq!(
            schedule.n_slots(),
            cone.n_gates,
            "cone sub-schedule covers exactly the cone gates"
        );
        let p = ConePlan {
            schedule: Arc::clone(&schedule),
            cone: Arc::clone(cone),
            changed: changed.to_vec(),
        };
        cache.cones.insert(key, (p, tick));
        let cap = self.config.plan_cache_cap;
        if cap > 0 && cache.cones.len() > cap {
            let lru = cache
                .cones
                .iter()
                .min_by_key(|&(_, &(_, stamp))| stamp)
                .map(|(&k, _)| k);
            if let Some(k) = lru {
                cache.cones.remove(&k);
                cache.evictions += 1;
            }
        }
        schedule
    }

    /// Takes a scratch arena from the pool or allocates one. Selection is
    /// best-fit — the *smallest* adequate arena, so a worst-case arena is
    /// not grabbed for every tiny batch — with a shrink heuristic: an arena
    /// that keeps getting picked while grossly oversized (no tighter arena
    /// exists in the pool) is dropped after [`SCRATCH_SHRINK_AFTER`]
    /// consecutive such servings and replaced by a right-sized allocation.
    fn acquire_scratch(&self, plan: &LevelSchedule) -> BatchScratch {
        let n_signals = self.graph.n_signals();
        let need_ptrs = plan.nw * n_signals;
        let need_threads = plan.col_entries();
        let mut pool = self.scratch_pool.lock().unwrap_or_else(|e| e.into_inner());
        let best = pool
            .iter()
            .enumerate()
            .filter(|(_, s)| s.fits(need_ptrs, need_threads))
            .min_by_key(|(_, s)| (s.ptr_capacity(), s.stride()))
            .map(|(i, _)| i);
        if let Some(i) = best {
            let mut scratch = pool.swap_remove(i);
            drop(pool);
            let oversized = scratch.ptr_capacity() >= SCRATCH_OVERSIZE_FACTOR * need_ptrs.max(1)
                && scratch.stride() >= SCRATCH_OVERSIZE_FACTOR * need_threads.max(1);
            if oversized {
                scratch.oversize_uses += 1;
                if scratch.oversize_uses >= SCRATCH_SHRINK_AFTER {
                    // Persistent gross overfit: shrink by reallocating.
                    return plan.new_scratch(n_signals);
                }
            } else {
                scratch.oversize_uses = 0;
            }
            scratch.reset(need_ptrs);
            return scratch;
        }
        drop(pool);
        plan.new_scratch(n_signals)
    }

    /// Returns a scratch arena to the pool.
    fn release_scratch(&self, scratch: BatchScratch) {
        let mut pool = self.scratch_pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
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
    /// The stimulus is cut into `cycle_parallelism` windows (aligned to
    /// [`SimConfig::window_align`]) that simulate concurrently; if the
    /// device arena cannot hold all windows at once the run transparently
    /// splits into sequential segments (the paper's "compile the testbench
    /// into shorter segments" fallback).
    ///
    /// # Errors
    ///
    /// * [`CoreError::StimulusMismatch`] if the waveform count is wrong.
    /// * [`CoreError::OutOfMemory`] if even a single window exceeds device
    ///   memory.
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
        self.run_inner(&Arc::clone(&self.device), stimuli, duration, opts, None)
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
        self.run_inner(
            &Arc::clone(&self.device),
            stimuli,
            duration,
            opts,
            Some(sink),
        )
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
    /// tables compacted, working sets remapped) is cached under the
    /// changed-set signature next to the full plans — a repeat iteration
    /// with the same resize set pays no planning cost
    /// ([`Session::plan_cache_stats`] reports `cone_hits`/`cone_misses`).
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
    pub(crate) fn check_run_inputs(&self, stimuli: &[Waveform], duration: SimTime) -> Result<()> {
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
        mut user_sink: Option<&mut dyn WaveformSink>,
    ) -> Result<SimResult> {
        let t_app = Instant::now();
        let device = Arc::clone(&self.device);
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

        device.memory().reset_counters();
        device.memory().advance_epoch();
        let signature = cone_signature(&changed);
        // The cone is window-count independent: reuse it from any cached
        // plan for this changed set, else extract it once per call and
        // share it across every segment's cached sub-plan.
        let cone = self
            .cached_cone(signature, &changed)
            .unwrap_or_else(|| Arc::new(ConeInfo::of(&self.graph, &changed)));

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

        let mut totals = RunTotals::new(n_signals, "resim_cone");
        // The result's spill derives from prev: shared frozen chunks,
        // every pointer carried over; only recomputed cone signals land in
        // the new tail. Always on — it is what makes chained incremental
        // runs (and out-of-cone waveform reads) work.
        let mut spill = SpillSink::derived(prev_spill);
        let inputs = SegmentInputs {
            windows: &windows,
            stims: &pi_stims,
            cone: Some(ConeInputs {
                signature,
                changed: &changed,
                cone: &cone,
                spill: prev_spill,
            }),
        };
        let mut sinks: Vec<&mut dyn WaveformSink> = vec![&mut spill];
        if let Some(us) = user_sink.as_mut() {
            sinks.push(&mut **us);
        }
        let chunk = opts.segment_windows.unwrap_or(windows.len());
        self.run_segments(&device, &inputs, chunk, &mut totals, &mut sinks, drop)?;
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
            *count = totals.tc[s];
            let sid = SignalId(s as u32);
            saif.nets.insert(
                self.graph.signal_name(sid).to_string(),
                SaifRecord {
                    t0: totals.t0[s],
                    t1: totals.t1[s],
                    tx: 0,
                    tc: totals.tc[s],
                    ig: 0,
                },
            );
        }

        // The graph topology is already resident from the full run — the
        // delta run's H2D is just the boundary stimulus.
        let mem = device.memory();
        let app_profile = totals.app_profile(
            device.spec(),
            1,
            mem.h2d_bytes(),
            mem.d2h_bytes(),
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
            extraction: None,
            spilled: Some(spill),
        })
    }

    /// "OpenMP-equivalent" CPU run (Table 3): the identical algorithm
    /// executed with `threads` host threads and no GPU performance model —
    /// consumers should read measured wall times from the result. Plans
    /// are shared with device runs (schedules are device-independent).
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_cpu(
        &self,
        stimuli: &[Waveform],
        duration: SimTime,
        threads: usize,
    ) -> Result<SimResult> {
        let device = Arc::new(Device::with_workers(
            self.config.device.clone(),
            self.config.memory_words,
            threads,
        ));
        self.run_inner(&device, stimuli, duration, &RunOptions::default(), None)
    }

    /// The full-run engine: restructure, execute every segment against
    /// cached plans with the configured sinks, assemble SAIF.
    fn run_inner(
        &self,
        device: &Arc<Device>,
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
        mut user_sink: Option<&mut dyn WaveformSink>,
    ) -> Result<SimResult> {
        let t_app = Instant::now();
        self.check_run_inputs(stimuli, duration)?;
        device.memory().reset_counters();
        // New arena generation: any earlier device-backed result on this
        // device now reports StaleExtraction instead of reading our data.
        let epoch = device.memory().advance_epoch();
        let windows = self.make_windows(duration, self.config.cycle_parallelism);

        // --- Input restructuring (the dominant init cost in Table 5).
        let t0 = Instant::now();
        let win_stims = self.restructure(stimuli, &windows);
        let restructure_seconds = t0.elapsed().as_secs_f64();

        // --- Adaptive segmentation over windows. (The spill is drained
        // even for runs that fit in one segment: its contract is a durable
        // host copy that outlives later runs on this session's device.)
        let n_signals = self.graph.n_signals();
        let mut totals = RunTotals::new(n_signals, "resim");
        let mut spill = opts.spill_waveforms.then(|| SpillSink::new(n_signals));
        let inputs = SegmentInputs {
            windows: &windows,
            stims: &win_stims,
            cone: None,
        };
        let mut sinks: Vec<&mut dyn WaveformSink> = Vec::new();
        if let Some(sp) = spill.as_mut() {
            sinks.push(sp);
        }
        if let Some(us) = user_sink.as_mut() {
            sinks.push(&mut **us);
        }
        // Start from the caller's cap, or from the segment size that last
        // worked for this shape (skipping the OOM halving re-probe — and
        // its wasted stimulus uploads — on every repeat run).
        let chunk = opts
            .segment_windows
            .or_else(|| self.segment_hint(windows.len()))
            .unwrap_or(windows.len());
        let mut extraction = None;
        let chunk =
            self.run_segments(device, &inputs, chunk, &mut totals, &mut sinks, |batch| {
                extraction = Some(ExtractionState {
                    device: Arc::clone(device),
                    ptrs: batch.ptrs,
                    windows: batch.windows,
                    n_signals,
                    epoch,
                })
            })?;
        if opts.segment_windows.is_none() && chunk < windows.len() {
            self.record_segment_hint(windows.len(), chunk);
        }

        // --- Assemble SAIF and result.
        let (saif, toggle_counts) =
            self.assemble_saif(stimuli, duration, &totals.tc, &totals.t0, &totals.t1);
        // D2H traffic is exactly the sink/spill waveform readback (the
        // storing threads' SAIF scans and extraction read device memory
        // in place).
        let mem = device.memory();
        let app_profile = totals.app_profile(
            device.spec(),
            1,
            mem.h2d_bytes() + self.graph.device_bytes(),
            mem.d2h_bytes(),
            restructure_seconds,
        );
        if let Some(sp) = spill.as_mut() {
            sp.seal();
        }
        let segments = totals.segments;
        Ok(SimResult {
            saif,
            kernel_profile: totals.profile,
            app_profile,
            wall_seconds: t_app.elapsed().as_secs_f64(),
            toggle_counts,
            duration,
            segments,
            // A spilled run is served entirely from its durable host copy;
            // device-backed extraction is only kept when no spill exists
            // (and is valid until the next run recycles the arena).
            extraction: if segments == 1 && spill.is_none() {
                extraction
            } else {
                None
            },
            spilled: spill,
        })
    }

    /// The window loop every single-device run shares: executes
    /// `inputs.windows` in segments of at most `chunk` windows, halving the
    /// segment size whenever one does not fit the device arena (the paper's
    /// "compile the testbench into shorter segments" fallback). Every
    /// finished segment is folded into `totals` and its batch then handed to
    /// `finished` (a full run keeps the pointer table for device-resident
    /// extraction; everything else is dropped there). Returns the segment
    /// size the run settled on.
    fn run_segments(
        &self,
        device: &Device,
        inputs: &SegmentInputs<'_>,
        chunk: usize,
        totals: &mut RunTotals,
        sinks: &mut [&mut dyn WaveformSink],
        mut finished: impl FnMut(WindowBatch),
    ) -> Result<usize> {
        let n = inputs.windows.len();
        let mut chunk = chunk.clamp(1, n.max(1));
        let mut i = 0usize;
        while i < n {
            let end = (i + chunk).min(n);
            let (telemetry, segment) = (&totals.telemetry, totals.segments);
            match self.execute_segment(device, 0, telemetry, inputs, i..end, segment, sinks) {
                Ok((batch, drained, drain_s)) => {
                    totals.absorb(&batch, drained, drain_s);
                    finished(batch);
                    i = end;
                }
                Err(CoreError::OutOfMemory { .. }) if chunk > 1 => {
                    totals.telemetry.oom_retry();
                    chunk = chunk.div_ceil(2);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(chunk)
    }

    /// Executes one memory segment — windows `range` of the run — on
    /// `device`: resolves the plan, takes a scratch arena, and runs the
    /// batch *and* its delivery to `sinks` as one retried attempt. The drain
    /// reads everything back before feeding any sink, so a fault anywhere in
    /// the attempt leaves the sinks untouched and the segment re-runs whole
    /// — delivery stays exactly-once and bit-identical under retries.
    /// Returns the batch, the D2H batches its drain issued and the drain's
    /// measured seconds (both zero when `sinks` is empty).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute_segment(
        &self,
        device: &Device,
        device_index: usize,
        telemetry: &RetryTelemetry,
        inputs: &SegmentInputs<'_>,
        range: Range<usize>,
        segment: usize,
        sinks: &mut [&mut dyn WaveformSink],
    ) -> Result<(WindowBatch, u64, f64)> {
        let nw = range.len();
        let cone = inputs.cone.as_ref();
        let windows = &inputs.windows[range.clone()];
        let stims = &inputs.stims[range.clone()];
        // A cone-filtered drain never covers primary inputs, so it needs no
        // stimulus windows.
        let (plan, drain_stims, only) = match cone {
            Some(c) => (
                self.cone_plan(nw, c.signature, c.changed, c.cone),
                &[][..],
                Some(&c.cone.sigs[..]),
            ),
            None => (self.plan(nw), stims, None),
        };
        let scratch = self.acquire_scratch(&plan);
        let mut first_attempt = true;
        let attempt = self.with_retry(device_index, telemetry, || {
            if !first_attempt {
                // A faulted attempt abandoned the batch mid-flight;
                // scrub its partial writes before re-running.
                scratch.reset(nw * self.graph.n_signals());
            }
            first_attempt = false;
            let stim = match cone {
                Some(c) => BatchStimulus::Boundary {
                    spill: c.spill,
                    boundary: &c.cone.boundary,
                    pi_stims: stims,
                    window_base: range.start,
                },
                None => BatchStimulus::Full(stims),
            };
            let batch = self.run_window_batch(device, &plan, &scratch, windows, stim)?;
            if sinks.is_empty() {
                return Ok((batch, 0, 0.0));
            }
            let t_drain = Instant::now();
            let drained = self.drain_segment(
                device,
                &batch,
                segment,
                range.start,
                drain_stims,
                only,
                sinks,
            );
            Ok((batch, drained, t_drain.elapsed().as_secs_f64()))
        });
        self.release_scratch(scratch);
        attempt
    }

    /// Splits `[0, duration)` into up to `slots` windows aligned to
    /// `window_align` ticks.
    pub(crate) fn make_windows(&self, duration: SimTime, slots: usize) -> Vec<(SimTime, SimTime)> {
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
    pub(crate) fn restructure(
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
    pub(crate) fn assemble_saif(
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
                    u32::MAX => SaifRecord {
                        t0: t0[s],
                        t1: t1[s],
                        tx: 0,
                        tc: tc[s],
                        ig: 0,
                    },
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
    /// against a prebuilt `plan`: uploads stimulus, runs the levelized
    /// speculative-store schedule (fusing runs of small levels into single
    /// phased launches), and returns the accumulators. It starts no thread
    /// of its own — the launches' workers are the only ones.
    ///
    /// Structure (see the README's kernel pipeline):
    ///
    /// * one kernel call runs a block of consecutive (gate, window)
    ///   threads, gate by gate, fetching what a gate's windows share once;
    /// * the storing thread itself (a speculative hit, or the repair of an
    ///   overflow) publishes its output's pointer and length into the
    ///   signal-major shared tables and scans the words it just stored for
    ///   the window's SAIF record (folded publication — no host per-slot
    ///   loop and no second reader of the stored words);
    /// * the level publish is folded into the same pass: each gate piece of
    ///   a block adds its stored words, its SAIF records and (per block)
    ///   its reservation slack to per-signal and per-batch atomics, so no
    ///   host pass over a level's columns runs at all, and the length sums
    ///   feeding the next launch group's modeled working set are complete
    ///   behind the launch join / phase gate that ends the level;
    /// * every level reserves a predicted budget per output before its one
    ///   store pass and scans for overflows after it; only overflowed
    ///   threads run again, as an exact store ([`GroupAssigner`] carries
    ///   the arena cursor through both steps, level after level — every
    ///   level of a fused group owns a disjoint slab range of the
    ///   [`BatchScratch`] count/base/cap columns).
    ///
    /// The per-level loop is allocation-free: scratch buffers live in the
    /// caller-provided [`BatchScratch`] arena and working sets come from
    /// running per-signal sums.
    pub(crate) fn run_window_batch(
        &self,
        device: &Device,
        schedule: &LevelSchedule,
        scratch: &BatchScratch,
        windows: &[(SimTime, SimTime)],
        stim: BatchStimulus<'_>,
    ) -> Result<WindowBatch> {
        let graph = &*self.graph;
        let n_signals = graph.n_signals();
        let nw = windows.len();
        debug_assert_eq!(schedule.nw, nw, "plan window count must match batch");
        let capacity = device.memory().len();
        let mut host = HostState::default();

        // Upload the stimulus: per (window, signal), one even-aligned slice
        // of raw device words (even bases keep the word-index parity
        // encoding of values intact).
        let mut upload = |w: usize, s: usize, raw: &[i32]| -> Result<()> {
            let words = raw.len();
            let base = host.bump + (host.bump & 1);
            if base + words > capacity {
                return Err(CoreError::OutOfMemory {
                    requested: base + words,
                    capacity,
                });
            }
            device.memory().h2d(base, raw);
            // relaxed-ok: the upload runs on the engine thread before any
            // launch of this batch; the launch's thread spawns (and the
            // phase gate, for fused groups) publish these slots to kernel
            // threads.
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
        let mut fused_launches = 0u64;
        let mut tally = SpecTally::default();
        // Reusable repair worklist (classic path): columns whose
        // speculative reservation overflowed.
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
                // level's store pass behind the launch join (or the fused
                // phase gate, model test `phase_boundary_is_a_barrier`);
                // levelization keeps same-level threads off each other's
                // slots.
                *ptr = row[w].load(Ordering::Relaxed);
            }
            let input = GateKernelInput {
                in_ptrs: &in_ptrs[..n],
                ..*input
            };
            simulate_gate(&input, mode, lane)
        };
        // Folded publication: the storing thread publishes its own output's
        // pointer and length and scans the words it just stored for the
        // window's SAIF record `(tc, t1)`, so no host loop over (gate,
        // window) slots and no second reader of the stored words runs after
        // the launch.
        let publish = |sig: usize, w: usize, out: &KernelOutput, out_base: usize| {
            let i = slot(nw, sig, w);
            // relaxed-ok: each storing thread writes only its own output's
            // slots; higher levels read them behind the launch join / phase
            // gate.
            scratch.ptrs[i].store(out_base as u32, Ordering::Relaxed);
            // relaxed-ok: see above.
            scratch.lens[i].store(out.words(), Ordering::Relaxed);
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
        // scan and the repair pass read it. Each gate piece also folds the
        // level publish: its stored words into the length sum, its hits'
        // SAIF records, its maximum size into the extent predictor; the
        // block's hit slack goes into one waste counter.
        let spec = |level: usize, threads: Range<usize>, lane: &mut LaneCounters| {
            let ld = schedule.level(level);
            let mut slack = 0u64;
            let mut tid = threads.start;
            while tid < threads.end {
                let gi = tid / nw;
                let first_col = ld.col_off as usize + gi * nw;
                let w_end = nw.min(threads.end - gi * nw);
                let gate_slot = ld.gate_lo as usize + gi;
                let ctx = gate_ctx(gate_slot);
                let sig = ctx.2;
                let (mut words_sum, mut max_words, mut saif) = (0u64, 0u32, (0u64, 0u64));
                for w in tid - gi * nw..w_end {
                    let col = first_col + w;
                    // relaxed-ok: budget assigned before this pass (host
                    // side or the preceding phase boundary).
                    let out_base = scratch.bases[col].load(Ordering::Relaxed) as usize;
                    // relaxed-ok: see above.
                    let cap = scratch.caps[col].load(Ordering::Relaxed);
                    let mode = KernelMode::Speculative {
                        out_base,
                        cap: cap as usize,
                    };
                    let out = kernel(&ctx, w, mode, lane);
                    // relaxed-ok: each thread writes only its own column
                    // entry; the scan reads it behind the phase gate /
                    // launch join.
                    scratch.outs[col].store(out.pack(), Ordering::Relaxed);
                    let words = out.words();
                    words_sum += u64::from(words);
                    max_words = max_words.max(words + (words & 1));
                    if words <= cap {
                        // Saturating: a test-hook cap may be odd, letting the
                        // padded size exceed a hit's cap by the parity word.
                        slack += u64::from(cap.saturating_sub(words + (words & 1)));
                        let (tc, t1) = publish(sig, w, &out, out_base);
                        saif = (saif.0 + tc, saif.1 + t1);
                    } else {
                        // relaxed-ok: the cursor only hands each overflowing
                        // thread a unique slot (threads ≤ column stride); the
                        // launch join / phase gate publishes the slot writes
                        // to the scan.
                        let i = scratch.ovf_len.fetch_add(1, Ordering::Relaxed);
                        debug_assert!(i < scratch.ovf.len());
                        // relaxed-ok: see above.
                        scratch.ovf[i].store(col as u32, Ordering::Relaxed);
                    }
                }
                schedule
                    .predictor()
                    .observe(schedule.gate(gate_slot), max_words);
                // relaxed-ok: a commutative sum, read at a later launch-group
                // top or after the batch, behind this launch's join.
                scratch.len_sum[sig].fetch_add(words_sum, Ordering::Relaxed);
                add_saif(sig, saif);
                tid = gi * nw + w_end;
            }
            // relaxed-ok: a commutative sum read after the batch's last
            // launch joined.
            scratch.waste.fetch_add(slack, Ordering::Relaxed);
        };
        // The repair of thread `local` of `level`: a hit already stored and
        // published in the speculative pass — nothing to do. An overflow
        // re-runs an exact store at the base the post-level scan
        // re-allocated for it and adds its own SAIF record (its words were
        // summed by the speculative pass).
        let repair = |level: usize, local: usize, lane: &mut LaneCounters| {
            let ld = schedule.level(level);
            let col = ld.col_off as usize + local;
            // relaxed-ok: the speculative pass's true packed output, behind
            // the phase gate / launch join.
            let packed = scratch.outs[col].load(Ordering::Relaxed);
            // relaxed-ok: written by the budget assigner before the
            // speculative pass, same boundary.
            let cap = scratch.caps[col].load(Ordering::Relaxed);
            if KernelOutput::unpack_words(packed) <= cap {
                return;
            }
            let gate_slot = ld.gate_lo as usize + local / nw;
            let ctx = gate_ctx(gate_slot);
            // relaxed-ok: the exact repair base was assigned by the scan at
            // the boundary preceding this pass.
            let out_base = scratch.bases[col].load(Ordering::Relaxed) as usize;
            let w = local % nw;
            let out = kernel(&ctx, w, KernelMode::Store { out_base }, lane);
            debug_assert_eq!(out.pack(), packed, "speculative and repair passes diverged");
            add_saif(ctx.2, publish(ctx.2, w, &out, out_base));
        };

        for group in schedule.groups() {
            let first = group.levels.start;
            if group.fused {
                // --- Fused: one phased launch covers the whole run of
                // levels, two phases per level — the speculative store and
                // its repair. The leader worker scans for overflows at store
                // boundaries and runs the level's host publish at repair
                // boundaries. The launch config carries the working set
                // visible at launch time (inputs already stored plus the
                // first level's reservations); each boundary then reports
                // the words it just allocated, so the L2 model sees the full
                // footprint — launch-time inputs plus every waveform
                // produced inside the group.
                let ws: u64 = group
                    .levels
                    .clone()
                    .map(|l| schedule.level_ws(&scratch.len_sum, l))
                    .sum();
                // One arena carry chained across the group's levels: the
                // first level's budgets are reserved host-side before the
                // launch, later levels' at the preceding repair boundary
                // (their static fallback bound reads the lengths that
                // boundary published). OOM is detected per level with the
                // carry left at the last successful step.
                let mut assign = GroupAssigner::new(host.bump, capacity);
                let mut group_oom: Option<CoreError> = None;
                let spec_ws = assign.advance_budgets(schedule, scratch, first)?;
                let cfg = LaunchConfig {
                    threads: group.threads,
                    threads_per_block: self.config.threads_per_block,
                    regs_per_thread: self.config.regs_per_thread,
                    working_set_bytes: 4 * (ws + spec_ws),
                };
                let p = device.launch_phased(
                    "resim_fused",
                    &cfg,
                    schedule.phases(group),
                    |phase, threads, lane| {
                        let level = first + phase / 2;
                        if phase % 2 == 0 {
                            spec(level, threads, lane);
                        } else {
                            threads.for_each(|local| repair(level, local, lane));
                        }
                    },
                    |phase| {
                        let level = first + phase / 2;
                        let advanced = if phase % 2 == 0 {
                            // Speculative pass done: scan for overflows,
                            // re-allocating their exact space for the
                            // repair phase.
                            assign.advance_scan(
                                schedule,
                                scratch,
                                level,
                                &mut overflow_cols,
                                &mut tally,
                            )
                        } else if level + 1 < group.levels.end {
                            // Repair phase done — the level is published by
                            // its own threads: reserve the next level's
                            // speculative budgets now that this level's
                            // lengths are final (the first-touch static bound
                            // reads them).
                            assign.advance_budgets(schedule, scratch, level + 1)
                        } else {
                            Ok(0)
                        };
                        match advanced {
                            // Words this boundary allocated, in bytes: the
                            // incremental working-set update (the L2 model
                            // sees the full in-launch footprint).
                            Ok(new_words) => Some(4 * new_words),
                            Err(e) => {
                                group_oom = Some(e);
                                None
                            }
                        }
                    },
                );
                host.bump = assign.bump();
                profile.accumulate(&p);
                launches += 1;
                fused_launches += 1;
                if let Some(e) = group_oom {
                    return Err(e);
                }
            } else {
                // --- One wide level on its own launch(es): one speculative
                // store launch plus — only when some reservation overflowed
                // — a narrow exact repair launch over just the overflowed
                // threads.
                let threads = schedule.level(first).threads;
                if threads == 0 {
                    continue;
                }
                let ws_in = schedule.level_ws(&scratch.len_sum, first);
                let mut assign = GroupAssigner::new(host.bump, capacity);
                let reserved = assign.advance_budgets(schedule, scratch, first)?;
                let cfg = LaunchConfig {
                    threads,
                    threads_per_block: self.config.threads_per_block,
                    regs_per_thread: self.config.regs_per_thread,
                    working_set_bytes: 4 * (ws_in + reserved),
                };
                let p = device.launch("resim_spec", &cfg, |threads, lane| {
                    spec(first, threads, lane)
                });
                profile.accumulate(&p);
                launches += 1;
                let realloc = assign.advance_scan(
                    schedule,
                    scratch,
                    first,
                    &mut overflow_cols,
                    &mut tally,
                )?;
                if !overflow_cols.is_empty() {
                    // The speculative pass left every overflow's true packed
                    // count in the count column, so the repair is
                    // store-only — no second count pass.
                    let rcfg = LaunchConfig {
                        threads: overflow_cols.len(),
                        threads_per_block: self.config.threads_per_block,
                        regs_per_thread: self.config.regs_per_thread,
                        working_set_bytes: 4 * (ws_in + realloc),
                    };
                    let cols = &overflow_cols;
                    let p = device.launch("resim_repair", &rcfg, |threads, lane| {
                        threads.for_each(|j| repair(first, cols[j], lane))
                    });
                    profile.accumulate(&p);
                    launches += 1;
                }
                host.bump = assign.bump();
            }
        }

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

        Ok(WindowBatch {
            windows: windows.to_vec(),
            ptrs: scratch.ptrs_snapshot(nw, n_signals),
            lens: scratch.lens_snapshot(nw, n_signals),
            tc: scratch.tc.iter().map(sum).collect(),
            t0,
            t1,
            kernel_profile: profile,
            launches,
            fused_launches,
            spec_threads: tally.threads,
            spec_overflows: tally.overflows,
            spec_waste_words: tally.waste_words,
        })
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
    /// host worker; the cuts fall between regions, so the transfers (and
    /// the fault-injection points they pass) are the same on every host.
    /// The sinks are then fed in deterministic (window, ascending signal)
    /// order. Every buffer involved lives on the session and is reused.
    ///
    /// `only` restricts the drain to flagged signals (an incremental run
    /// delivers in-cone waveforms only; out-of-cone entries stay untouched
    /// in the derived spill). When set, primary-input windows are skipped
    /// entirely, so `win_stims` may be empty.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn drain_segment(
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
            crate::sync::thread::scope(|scope| {
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
                        handles.push(scope.spawn(move |_| read(mine, from, out, bounce)));
                    }
                }
                // Join each worker explicitly so a transfer fault's typed
                // panic payload survives to the segment boundary (the
                // scope's auto-join would replace it with a generic
                // message that cannot be classified for retry).
                for h in handles {
                    if let Err(payload) = h.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            })
            // panic-ok: scope join — re-raises the drain worker's panic.
            .expect("spill drain worker panicked");
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

/// Best-effort human-readable text of an unknown panic payload.
fn payload_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Classifies a panic caught at the segment boundary into the structured
/// error the retry/failover machinery dispatches on. A typed
/// [`gatspi_gpu::DeviceFaultPanic`] from the fault choke points carries its
/// own classification; anything else is an engine/worker bug — a
/// non-retryable worker fault on `device`.
fn panic_to_error(device: usize, payload: Box<dyn std::any::Any + Send>) -> CoreError {
    let payload = match payload.downcast::<gatspi_gpu::DeviceFaultPanic>() {
        Ok(p) => {
            return CoreError::DeviceFault {
                device: p.device,
                kind: p.kind,
                retryable: p.retryable,
            }
        }
        Err(p) => p,
    };
    // The message would otherwise be lost to the structured error; log it
    // for diagnosis before reporting the fault.
    eprintln!(
        "gatspi: worker panic isolated at segment boundary: {}",
        payload_text(payload.as_ref())
    );
    CoreError::DeviceFault {
        device,
        kind: gatspi_gpu::FaultKind::Worker,
        retryable: false,
    }
}

/// Fault-recovery counters for one run, shared across the threads of a
/// multi-GPU fleet; drained into [`AppPhaseProfile`] when the run ends.
#[derive(Debug)]
pub(crate) struct RetryTelemetry {
    faults: AtomicU64,
    retries: AtomicU64,
    oom_retries: AtomicU64,
    failovers: AtomicU64,
    backoff_nanos: AtomicU64,
}

impl RetryTelemetry {
    pub(crate) fn new() -> Self {
        RetryTelemetry {
            faults: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            oom_retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            backoff_nanos: AtomicU64::new(0),
        }
    }

    pub(crate) fn fault(&self) {
        // relaxed-ok: pure statistics — incremented on whichever thread
        // observed the event, read after every worker joined.
        self.faults.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn retry(&self) {
        // relaxed-ok: see `fault`.
        self.retries.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn oom_retry(&self) {
        // relaxed-ok: see `fault`.
        self.oom_retries.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn failover(&self) {
        // relaxed-ok: see `fault`.
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn add_backoff(&self, seconds: f64) {
        // relaxed-ok: see `fault`.
        self.backoff_nanos
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }
    pub(crate) fn faults(&self) -> u64 {
        // relaxed-ok: see `fault`.
        self.faults.load(Ordering::Relaxed)
    }
    pub(crate) fn retries(&self) -> u64 {
        // relaxed-ok: see `fault`.
        self.retries.load(Ordering::Relaxed)
    }
    pub(crate) fn oom_retries(&self) -> u64 {
        // relaxed-ok: see `fault`.
        self.oom_retries.load(Ordering::Relaxed)
    }
    pub(crate) fn failovers(&self) -> u64 {
        // relaxed-ok: see `fault`.
        self.failovers.load(Ordering::Relaxed)
    }
    pub(crate) fn backoff_seconds(&self) -> f64 {
        // relaxed-ok: see `fault`.
        self.backoff_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl Session {
    /// Runs one segment attempt under `catch_unwind`, classifying panics
    /// via [`panic_to_error`] and retrying transient device faults per the
    /// session's [`crate::RetryPolicy`] with exponential backoff.
    ///
    /// Both callers deliver to sinks only at the very end of a fully
    /// successful attempt (all device work and readback precede the first
    /// sink feed), which is what makes a retried segment exactly-once for
    /// every sink — a faulted attempt has observable effects only on
    /// device byte counters and this telemetry.
    pub(crate) fn with_retry<T>(
        &self,
        device_index: usize,
        telemetry: &RetryTelemetry,
        mut attempt: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let policy = self.config.retry;
        let max_attempts = policy.max_attempts.max(1);
        let mut attempts = 0u32;
        loop {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut attempt))
                .unwrap_or_else(|payload| Err(panic_to_error(device_index, payload)));
            attempts += 1;
            match outcome {
                Err(CoreError::DeviceFault {
                    retryable: true, ..
                }) if attempts < max_attempts => {
                    telemetry.fault();
                    telemetry.retry();
                    let delay = policy.delay_seconds(attempts);
                    if delay > 0.0 {
                        telemetry.add_backoff(delay);
                        crate::sync::thread::sleep(std::time::Duration::from_secs_f64(delay));
                    }
                }
                Err(e @ CoreError::DeviceFault { .. }) => {
                    telemetry.fault();
                    return Err(e);
                }
                other => return other,
            }
        }
    }
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

/// The output-space assigner of one launch group: the arena cursor carried
/// across the group's levels, advanced twice per level — a predicted
/// reservation for every thread before the level's speculative store pass
/// ([`GroupAssigner::advance_budgets`]), exact space for the threads that
/// overflowed after it ([`GroupAssigner::advance_scan`]).
///
/// A fused group's levels stack their count/base/cap columns into one slab
/// ([`LevelDesc::col_off`](crate::schedule::LevelDesc)), but level `L + 1`'s
/// budgets can only be reserved after level `L`'s repair phase (the
/// first-touch bound reads the lengths it published), so the assigner
/// advances one step per phase boundary. OOM is detected per step and
/// leaves the carry at the last successful one.
struct GroupAssigner {
    /// The carry: next free arena word after the steps taken so far.
    bump: usize,
    capacity: usize,
}

impl GroupAssigner {
    /// Starts a group at arena cursor `bump`.
    fn new(bump: usize, capacity: usize) -> Self {
        GroupAssigner { bump, capacity }
    }

    /// The carry after the steps taken so far.
    fn bump(&self) -> usize {
        self.bump
    }

    /// Assigns every thread of `level` a speculative output reservation
    /// before its single store pass runs, advancing the carry; returns the
    /// words reserved. A thread's budget is the plan's per-gate extent
    /// history where the gate has one ([`ExtentPredictor::predict`]), else
    /// the sound static bound — marker + initial entry + EOW + one edge per
    /// stored input word (`4 + Σ published input lengths`; a gate's output
    /// toggles at most once per input edge, so a first-touch gate can never
    /// overflow). Budgets are even-aligned like every arena allocation;
    /// bases and caps land in the level's scratch slab for the kernel
    /// threads and the post-level scan.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfMemory`] if the reservations exceed the arena (the
    /// caller segments and retries); the carry keeps its pre-level value.
    fn advance_budgets(
        &mut self,
        schedule: &LevelSchedule,
        scratch: &BatchScratch,
        level: usize,
    ) -> Result<u64> {
        let ld = schedule.level(level);
        let nw = schedule.nw;
        let predictor = schedule.predictor();
        // relaxed-ok: boundary reset — the launch join / phase gate that
        // follows this assignment orders it against the kernel threads'
        // overflow-cursor bumps.
        scratch.ovf_len.store(0, Ordering::Relaxed);
        let mut cursor = self.bump;
        let mut col = ld.col_off as usize;
        // One predictor read per gate, shared by its windows — the
        // per-thread loop below then only branches on the cached value.
        for gi in 0..ld.threads / nw {
            let gate_slot = ld.gate_lo as usize + gi;
            let predicted = predictor.predict(schedule.gate(gate_slot));
            for w in 0..nw {
                let words = match predicted {
                    Some(words) => words as usize,
                    None => {
                        let edges: usize = schedule
                            .pins_of(gate_slot)
                            .iter()
                            .map(|&sig| {
                                // relaxed-ok: input lengths were published
                                // by lower levels behind the launch join /
                                // phase gate that precedes this boundary
                                // (same ordering as the kernel's own input
                                // reads).
                                scratch.lens[slot(nw, sig as usize, w)].load(Ordering::Relaxed)
                                    as usize
                            })
                            .sum();
                        4 + edges
                    }
                };
                let words_even = words + (words & 1);
                if cursor + words_even > self.capacity {
                    return Err(CoreError::OutOfMemory {
                        requested: cursor + words_even,
                        capacity: self.capacity,
                    });
                }
                // relaxed-ok: runs at a launch/phase boundary — the
                // join/gate orders these writes against the speculative
                // pass that reads them.
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

    /// Post-level overflow scan of `level`'s speculative pass, advancing
    /// the carry; returns the words the overflow re-allocations added. The
    /// kernel threads did the per-column work themselves — feeding the
    /// extent predictor and recording overflowed columns through the
    /// [`BatchScratch::ovf_len`] cursor — so this scan is O(overflows), not
    /// O(columns): on the common all-hit level it only bumps the thread
    /// tally (the storing threads sum hit slack into
    /// [`BatchScratch::waste`]). The recorded columns are copied into
    /// `overflow_cols` (so the classic path can launch a narrow repair)
    /// and sorted — the recording order depends on thread interleaving,
    /// and repairs must allocate in column order for the arena layout to
    /// stay deterministic. Each then gets exact even-aligned space, and its
    /// whole abandoned reservation counts as waste.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfMemory`] if an overflow re-allocation exceeds the
    /// arena; the carry keeps its pre-scan value.
    fn advance_scan(
        &mut self,
        schedule: &LevelSchedule,
        scratch: &BatchScratch,
        level: usize,
        overflow_cols: &mut Vec<usize>,
        tally: &mut SpecTally,
    ) -> Result<u64> {
        let mut cursor = self.bump;
        overflow_cols.clear();
        // relaxed-ok: the cursor and its slots were written by the kernel
        // threads before the launch join / phase gate that precedes this
        // scan.
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
            // join/gate; see above.
            let packed = scratch.outs[col].load(Ordering::Relaxed);
            // relaxed-ok: written by `advance_budgets` at the boundary
            // before the pass.
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
            // relaxed-ok: the repair pass reads this base behind the next
            // launch join / phase gate.
            scratch.bases[col].store(cursor as u32, Ordering::Relaxed);
            cursor += words_even;
        }
        tally.threads += schedule.level(level).threads as u64;
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
    pub(crate) fn signal_names(&self) -> Vec<&str> {
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

    /// Segment-boundary panic classification: typed device-fault payloads
    /// surface as structured errors; anything else is an isolated worker
    /// fault — never a process abort.
    #[test]
    fn segment_boundary_panics_classify_by_payload() {
        let e = panic_to_error(
            3,
            Box::new(gatspi_gpu::DeviceFaultPanic {
                device: 3,
                kind: gatspi_gpu::FaultKind::Launch,
                retryable: true,
            }),
        );
        assert!(matches!(
            e,
            CoreError::DeviceFault {
                device: 3,
                kind: gatspi_gpu::FaultKind::Launch,
                retryable: true
            }
        ));
        let e = panic_to_error(1, Box::new("boom".to_string()));
        assert!(matches!(
            e,
            CoreError::DeviceFault {
                device: 1,
                kind: gatspi_gpu::FaultKind::Worker,
                retryable: false
            }
        ));
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
        let r = sim.run(&stim, 400).unwrap();
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
        let single = Session::new(
            Arc::clone(&graph),
            SimConfig::small().with_cycle_parallelism(1),
        )
        .run(&stim, 800)
        .unwrap();
        let windowed = Session::new(
            Arc::clone(&graph),
            SimConfig::small()
                .with_cycle_parallelism(8)
                .with_window_align(100),
        )
        .run(&stim, 800)
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
        // Without spill, waveform extraction is refused after segmentation.
        assert!(matches!(r.waveform(0), Err(CoreError::Segmented { .. })));
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
        .run(&stim, 1500)
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
    fn cone_plans_share_the_lru_budget() {
        // Distinct changed-sets build distinct cone plans; the cache keeps
        // them under the same capacity budget as full plans and reports
        // hits/misses separately.
        let graph = inv_chain(5);
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small()
                .with_cycle_parallelism(2)
                .with_window_align(10),
        );
        let toggles: Vec<i32> = (1..20).map(|i| i * 10 + 5).collect();
        let stim = vec![Waveform::from_toggles(false, &toggles)];
        let opts = RunOptions::default().with_waveform_spill();
        let r0 = sim.run_with(&stim, 200, &opts).unwrap();
        for set in [&[0usize][..], &[1], &[2], &[0]] {
            sim.run_incremental(&r0, set, &stim, 200, &opts).unwrap();
        }
        let stats = sim.plan_cache_stats();
        assert_eq!(stats.cone_misses, 3, "three distinct changed-sets");
        assert!(stats.cone_hits >= 1, "repeated changed-set hits its plan");
        assert!(stats.cached >= 3, "cone plans are retained in the cache");
    }

    #[test]
    fn device_backed_extraction_detects_recycled_arena() {
        // Without spill, a result's waveforms read live device memory; a
        // later run on the same session must turn extraction into a loud
        // StaleExtraction error, not silently serve the new run's data.
        let graph = inv_chain(2);
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small()
                .with_cycle_parallelism(4)
                .with_window_align(100),
        );
        let stim_a = vec![Waveform::from_toggles(false, &[110, 210, 310])];
        let stim_b = vec![Waveform::from_toggles(true, &[150, 250])];
        let r1 = sim.run(&stim_a, 400).unwrap();
        assert!(r1.waveform(0).is_ok(), "fresh extraction works");
        let _ = sim.run(&stim_b, 400).unwrap();
        assert!(
            matches!(r1.waveform(0), Err(CoreError::StaleExtraction)),
            "recycled arena must be detected"
        );
        assert!(matches!(
            r1.raw_window(0, 0),
            Err(CoreError::StaleExtraction)
        ));
    }

    #[test]
    fn spilled_waveforms_survive_later_runs_on_same_session() {
        // The spill contract is durability: a later run recycling the
        // session's device arena must not corrupt an earlier spilled
        // result (device-backed extraction cannot promise this).
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
        let reference = Session::new(graph, cfg).run(&stim_a, 400).unwrap();
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
        // Two segments of 4 windows each: the plan for nw=4 must be built
        // exactly once and hit once.
        let opts = RunOptions::default().with_segment_windows(4);
        let r = sim.run_with(&stim, 800, &opts).unwrap();
        assert_eq!(r.segments(), 2);
        let stats = sim.plan_cache_stats();
        assert_eq!(stats.misses, 1, "equal-nw segments share one build");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.cached, 1);

        // A whole second run re-hits the same plan.
        let _ = sim.run_with(&stim, 800, &opts).unwrap();
        let stats = sim.plan_cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn plan_cache_lru_evicts_beyond_cap() {
        let graph = inv_chain(2);
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small().with_plan_cache_cap(2),
        );
        let _ = sim.plan(1);
        let _ = sim.plan(2);
        let _ = sim.plan(1); // touch nw=1 so nw=2 becomes the LRU
        let _ = sim.plan(3); // exceeds the cap: evicts nw=2
        let stats = sim.plan_cache_stats();
        assert_eq!(stats.cached, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
        // The recently used nw=1 survived...
        let _ = sim.plan(1);
        assert_eq!(sim.plan_cache_stats().hits, 2);
        // ...while the evicted nw=2 must rebuild.
        let _ = sim.plan(2);
        assert_eq!(sim.plan_cache_stats().misses, 4);
    }

    #[test]
    fn plan_cache_unbounded_when_cap_zero() {
        let graph = inv_chain(1);
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small().with_plan_cache_cap(0),
        );
        for nw in 1..=24 {
            let _ = sim.plan(nw);
        }
        let stats = sim.plan_cache_stats();
        assert_eq!(stats.cached, 24);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn scratch_pool_serves_best_fit_not_first_fit() {
        let graph = inv_chain(4);
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small().with_fuse_threshold(0),
        );
        let big_plan = sim.plan(32);
        let small_plan = sim.plan(2);
        let big = sim.acquire_scratch(&big_plan);
        let small = sim.acquire_scratch(&small_plan);
        let (big_cap, small_cap) = (big.ptr_capacity(), small.ptr_capacity());
        assert!(big_cap > small_cap);
        // Pool order is big-first: first-fit would hand the big arena out.
        sim.release_scratch(big);
        sim.release_scratch(small);
        let got = sim.acquire_scratch(&small_plan);
        assert_eq!(got.ptr_capacity(), small_cap, "smallest adequate arena");
        sim.release_scratch(got);
    }

    #[test]
    fn scratch_pool_shrinks_persistently_oversized_arena() {
        let graph = inv_chain(4);
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small().with_fuse_threshold(0),
        );
        let big_plan = sim.plan(32);
        let tiny_plan = sim.plan(1);
        let big = sim.acquire_scratch(&big_plan);
        let big_cap = big.ptr_capacity();
        sim.release_scratch(big);
        // The grossly oversized arena keeps serving tiny batches — until
        // the shrink heuristic drops it for a right-sized allocation.
        for k in 0..SCRATCH_SHRINK_AFTER {
            let got = sim.acquire_scratch(&tiny_plan);
            if k + 1 < SCRATCH_SHRINK_AFTER {
                assert_eq!(got.ptr_capacity(), big_cap, "still serving (use {k})");
            } else {
                assert!(
                    got.ptr_capacity() < big_cap,
                    "shrank to a right-sized arena"
                );
            }
            sim.release_scratch(got);
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
        let r = sim.run(&stim, 200).unwrap();
        for (name, rec) in &r.saif.nets {
            assert_eq!(rec.t0 + rec.t1, 200, "net {name}");
        }
    }

    #[test]
    fn app_profile_populated() {
        let graph = inv_chain(3);
        // Fusion disabled: one launch per level (3 levels), one segment.
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small().with_fuse_threshold(0),
        );
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
    /// `AppPhaseProfile` is spelled out: every counter of two synthetic
    /// batches lands in the profile, divided across two devices where the
    /// phase overlaps. (Powers of two throughout, so equality is exact.)
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
                fused_launches: 1,
                spec_threads: 8,
                spec_overflows: 2,
                spec_waste_words: 4 * k,
            }
        };
        let mut totals = RunTotals::new(2, "sum");
        totals.absorb(&batch([1, 2], [10, 20], [30, 40], 4.0, 3), 5, 1.0);
        totals.absorb(&batch([3, 4], [1, 2], [3, 4], 2.0, 1), 7, 0.5);
        assert_eq!(totals.tc, [4, 6]);
        assert_eq!(totals.t0, [11, 22]);
        assert_eq!(totals.t1, [33, 44]);
        assert_eq!(totals.segments, 2);
        assert_eq!(totals.profile.modeled_seconds, 6.0);

        let telemetry = &totals.telemetry;
        for _ in 0..3 {
            telemetry.fault();
        }
        telemetry.retry();
        telemetry.retry();
        telemetry.oom_retry();
        telemetry.failover();
        telemetry.add_backoff(0.5);
        let spec = DeviceSpec {
            launch_overhead: 0.5,
            pcie_bw: 1024.0,
            ..DeviceSpec::v100()
        };
        assert_eq!(
            totals.app_profile(&spec, 2, 4096, 2048, 0.0625),
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
                fused_launches: 2,
                h2d_bytes: 4096,
                d2h_bytes: 2048,
                speculative_hit_rate: 0.75,
                overflow_repairs: 4,
                predicted_waste_words: 16,
                faults_injected: 3,
                segment_retries: 2,
                failovers: 1,
                backoff_seconds: 0.5,
                oom_retries: 1,
            }
        );
    }

    #[test]
    fn speculation_halves_unfused_launches() {
        let graph = inv_chain(3);
        // Speculative single pass on the unfused schedule: 1 launch per
        // level, not count + store — the first-touch static bound is
        // sound, so no repair launches appear even on a cold predictor.
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small().with_fuse_threshold(0),
        );
        let stim = vec![Waveform::from_toggles(false, &[10, 20, 30])];
        let r = sim.run(&stim, 100).unwrap();
        assert_eq!(r.app_profile.launches, 3);
        assert_eq!(r.app_profile.overflow_repairs, 0);
        assert_eq!(r.app_profile.speculative_hit_rate, 1.0);
        assert_eq!(
            r.app_profile.sync_launch_seconds,
            3.0 * sim.device().spec().launch_overhead,
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
        let sim = Session::new(
            Arc::clone(&graph),
            SimConfig::small().with_fuse_threshold(0),
        );
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
    fn forced_overflow_on_fused_schedule_repairs_exactly() {
        let graph = inv_chain(3);
        let stim = vec![Waveform::from_toggles(false, &[10, 20, 30, 40, 50])];
        let sim = Session::new(Arc::clone(&graph), SimConfig::small());
        let hit = sim.run(&stim, 100).unwrap();
        assert_eq!(hit.app_profile.overflow_repairs, 0);
        sim.seed_extent_history(2);
        let r = sim.run(&stim, 100).unwrap();
        assert_eq!(r.app_profile.fused_launches, 1);
        assert!(r.app_profile.overflow_repairs > 0);
        assert!(r.saif.diff(&hit.saif).is_empty());
    }

    #[test]
    fn fused_schedule_cuts_launches() {
        // 3 levels × 1 gate × 32 windows = 96 threads, well under the
        // default threshold: the whole chain executes as ONE fused launch.
        let graph = inv_chain(3);
        let sim = Session::new(Arc::clone(&graph), SimConfig::small());
        let stim = vec![Waveform::from_toggles(false, &[10, 20, 30])];
        let fused = sim.run(&stim, 100).unwrap();
        assert_eq!(fused.app_profile.launches, 1);
        assert_eq!(fused.app_profile.fused_launches, 1);

        // Bit-identical results either way.
        let unfused = Session::new(graph, SimConfig::small().with_fuse_threshold(0))
            .run(&stim, 100)
            .unwrap();
        assert!(fused.saif.diff(&unfused.saif).is_empty());
        assert!(
            fused.app_profile.sync_launch_seconds < unfused.app_profile.sync_launch_seconds,
            "fewer launches must shrink modeled launch overhead"
        );
    }

    #[test]
    fn fused_oom_surfaces_and_segments() {
        // Tiny arena + fusion: the OOM raised inside a fused launch's
        // phase callback must abort cleanly and trigger segmentation.
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

    #[test]
    fn run_cpu_matches_gpu_results() {
        let graph = inv_chain(3);
        let sim = Session::new(Arc::clone(&graph), SimConfig::small());
        let stim = vec![Waveform::from_toggles(false, &[10, 25, 40, 55])];
        let gpu = sim.run(&stim, 100).unwrap();
        let cpu = sim.run_cpu(&stim, 100, 2).unwrap();
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

/// Exhaustive interleaving tests for the session's lock-free protocols,
/// run on the loom model types (`cargo test --features model-check`).
/// A failing schedule prints a `replay schedule: <string>` line; re-run it
/// with `loom::Builder { replay: Some(s), .. }` to step the exact schedule.
#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;

    /// The speculative extent predictor under concurrent observers
    /// (repair scans of different shards/launches share one table):
    /// `fetch_max` keeps every entry monotone, so a reader that already
    /// observed the larger value can never see a smaller one, and after
    /// all observers join the prediction is exactly the maximum — in
    /// every interleaving.
    #[test]
    fn extent_predictor_observes_are_monotone_max() {
        loom::model(|| {
            let p = crate::schedule::ExtentPredictor::new(1);
            crate::sync::thread::scope(|s| {
                let p = &p;
                s.spawn(move |_| p.observe(0, 6));
                p.observe(0, 10);
                assert_eq!(
                    p.predict(0),
                    Some(10),
                    "a concurrent smaller observation shrank the entry"
                );
            })
            .expect("model observer panicked");
            assert_eq!(p.predict(0), Some(10));
        });
    }

    /// The kernel-side overflow recorder: concurrent overflowing threads
    /// claim slots with a Relaxed `fetch_add` cursor and store their
    /// column ids — in every interleaving the cursor hands out unique
    /// slots, no recorded column is lost or torn, and (after the sort the
    /// host scan applies) the recorded set is exactly the overflowed
    /// columns regardless of thread order.
    #[test]
    fn overflow_recorder_loses_no_column() {
        loom::model(|| {
            let ovf: Vec<AtomicU32> = (0..2).map(|_| AtomicU32::new(u32::MAX)).collect();
            let len = crate::sync::atomic::AtomicUsize::new(0);
            crate::sync::thread::scope(|s| {
                let (ovf, len) = (&ovf, &len);
                s.spawn(move |_| {
                    let i = len.fetch_add(1, Ordering::Relaxed);
                    ovf[i].store(3, Ordering::Relaxed);
                });
                let i = len.fetch_add(1, Ordering::Relaxed);
                ovf[i].store(5, Ordering::Relaxed);
            })
            .expect("model recorder panicked");
            let n = len.load(Ordering::Relaxed);
            assert_eq!(n, 2, "cursor lost a claim");
            let mut cols: Vec<u32> = ovf[..n].iter().map(|s| s.load(Ordering::Relaxed)).collect();
            cols.sort_unstable();
            assert_eq!(cols, [3, 5], "a recorded column was lost or torn");
        });
    }
}
