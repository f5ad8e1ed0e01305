use std::ops::Range;
use std::panic::AssertUnwindSafe;

use crate::sync::Mutex;
use std::time::Instant;

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::perfmodel::model_launch;
use crate::{DeviceMemory, DeviceSpec, KernelCounters, KernelProfile, LaneCounters, LaunchConfig};

/// A simulated GPU: a [`DeviceSpec`], its global [`DeviceMemory`], and a
/// kernel-launch engine that executes logical threads on the host CPU with
/// CUDA-like grid/block/warp structure.
///
/// # Example
///
/// ```
/// use gatspi_gpu::{Device, DeviceSpec, LaunchConfig};
///
/// let dev = Device::new(DeviceSpec::v100(), 1024);
/// dev.memory().h2d(0, &[1, 2, 3, 4]);
/// let cfg = LaunchConfig::for_threads(4);
/// let profile = dev.launch("double", &cfg, |threads, lane| {
///     for tid in threads {
///         let v = dev.memory().load(tid);
///         dev.memory().store(tid, v * 2);
///         lane.scattered_load();
///         lane.scattered_store();
///         lane.ops(2);
///     }
/// });
/// assert_eq!(dev.memory().d2h(0, 4), vec![2, 4, 6, 8]);
/// assert!(profile.modeled_seconds > 0.0);
/// ```
#[derive(Debug)]
pub struct Device {
    spec: DeviceSpec,
    memory: DeviceMemory,
    workers: usize,
}

/// Launches (or phases) narrower than this run inline on the calling
/// thread: spawning host workers would dominate, and a real GPU absorbs
/// such launches in its fixed launch overhead.
const INLINE_LAUNCH_THREADS: usize = 4096;

/// Wait strategy for the phase driver's gate spins: busy-spin first (phase
/// hand-offs usually land within tens of nanoseconds), then yield, then
/// sleep in short slices so a long phase boundary (e.g. a publish stalled
/// on downstream backpressure) does not burn every worker's core.
fn spin_wait(spins: &mut u32) {
    if *spins < 128 {
        crate::sync::hint::spin_loop();
    } else if *spins < 1024 {
        crate::sync::thread::yield_now();
    } else {
        crate::sync::thread::sleep(std::time::Duration::from_micros(50));
    }
    *spins = spins.saturating_add(1);
}

/// Thread range of block `b` in a launch of `n` threads, `block` per block.
fn block_range(b: usize, block: usize, n: usize) -> Range<usize> {
    b * block..((b + 1) * block).min(n)
}

impl Device {
    /// Creates a device with `memory_words` words of global memory.
    ///
    /// The host worker count defaults to the machine's available
    /// parallelism.
    pub fn new(spec: DeviceSpec, memory_words: usize) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Device {
            spec,
            memory: DeviceMemory::new(memory_words),
            workers,
        }
    }

    /// Like [`Device::new`] but with an explicit host worker count (used by
    /// tests and by multi-GPU setups dividing host cores between devices).
    pub fn with_workers(spec: DeviceSpec, memory_words: usize, workers: usize) -> Self {
        Device {
            spec,
            memory: DeviceMemory::new(memory_words),
            workers: workers.max(1),
        }
    }

    /// The device's hardware parameters.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The device's global memory.
    pub fn memory(&self) -> &DeviceMemory {
        &self.memory
    }

    /// Host workers used to execute kernels.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Arms `injector` on this device (or disarms with `None`): every
    /// subsequent launch, `h2d`, and `d2h` runs the injector's
    /// deterministic fault check. Disarming never un-latches a permanent
    /// fault — it removes the injector entirely, which is how tests verify
    /// a faulted [`crate::fault::FaultPlan`] left the device (and the
    /// session above it) reusable.
    #[cfg(feature = "fault-inject")]
    pub fn arm_faults(&self, injector: Option<std::sync::Arc<crate::fault::FaultInjector>>) {
        self.memory.arm_faults(injector);
    }

    /// The armed fault injector, if any.
    #[cfg(feature = "fault-inject")]
    pub fn fault_injector(&self) -> Option<std::sync::Arc<crate::fault::FaultInjector>> {
        self.memory.fault_injector()
    }

    /// Launches a kernel over logical threads `0..cfg.threads`, grouped
    /// into blocks of `cfg.threads_per_block`: `f(threads, lane_counters)`
    /// is invoked once per *block* with the block's thread range, and runs
    /// every thread of it. A block is the unit that lands on one SM, and
    /// here the unit of scheduling across host workers, so a kernel can
    /// hoist whatever its threads share out of the per-thread loop. The
    /// ranges partition `0..cfg.threads` (only the last block may be
    /// short); workers may run them in any order. Returns the launch's
    /// measured-plus-modeled [`KernelProfile`].
    ///
    /// Kernel code must write disjoint memory regions per thread (GATSPI
    /// guarantees this by pre-assigning output waveform pointers); anything
    /// a block folds across threads that another block may share must be
    /// an atomic read-modify-write.
    pub fn launch<F>(&self, name: &str, cfg: &LaunchConfig, f: F) -> KernelProfile
    where
        F: Fn(Range<usize>, &mut LaneCounters) + Sync,
    {
        #[cfg(feature = "fault-inject")]
        self.memory.fault_point(crate::fault::FaultSite::Launch);
        let t0 = Instant::now();
        let counters = KernelCounters::default();
        let n = cfg.threads;
        let block = cfg.threads_per_block.max(1) as usize;
        let n_blocks = n.div_ceil(block.max(1));

        // Small launches run inline: spawning host threads would dominate,
        // and a real GPU absorbs these in its fixed launch overhead.
        if n_blocks <= 1 || n < INLINE_LAUNCH_THREADS || self.workers == 1 {
            let mut lane = LaneCounters::default();
            for b in 0..n_blocks {
                f(block_range(b, block, n), &mut lane);
            }
            counters.merge(&lane);
        } else {
            let next = AtomicUsize::new(0);
            let workers = self.workers.min(n_blocks);
            crate::sync::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|_| {
                        let mut lane = LaneCounters::default();
                        loop {
                            // relaxed-ok: the cursor only partitions blocks
                            // (each worker gets a unique `b`); the scope
                            // join publishes the kernel's writes.
                            let b = next.fetch_add(1, Ordering::Relaxed);
                            if b >= n_blocks {
                                break;
                            }
                            f(block_range(b, block, n), &mut lane);
                        }
                        counters.merge(&lane);
                    });
                }
            })
            // panic-ok: scope join — re-raises a kernel worker's panic
            // (fault payloads cross it typed).
            .expect("kernel worker panicked");
        }

        let wall = t0.elapsed().as_secs_f64();
        model_launch(&self.spec, cfg, counters.snapshot(), wall, name)
    }

    /// Launches a *phased* kernel: `phases[p]` logical threads execute
    /// phase `p`, one `f(p, threads, lane)` call per block of
    /// `cfg.threads_per_block` as in [`Device::launch`], with an internal
    /// synchronization point between phases — every thread of phase `p`
    /// completes before any thread of phase `p + 1` starts. All-narrow
    /// phase lists take a
    /// specialized serial fast path on the calling thread; wide launches
    /// run on a persistent per-launch worker pool driven by a
    /// chase-the-cursor protocol (arrive-counter + phase gate, one atomic
    /// round-trip per phase instead of two full barrier rounds). Between
    /// phases, `on_phase_end(p)` runs exactly once (host-side serial work
    /// such as an allocation scan); returning `None`
    /// aborts the remaining phases, `Some(bytes)` continues and grows the
    /// launch's modeled working set by `bytes` — this is how a fused batch
    /// of dependent levels reports the output waveforms it allocates
    /// *inside* the launch, so the L2-capacity model sees the true footprint
    /// instead of the launch-time lower bound.
    ///
    /// This is the launch-fusion primitive: a run of small dependent levels
    /// executes as one launch (one modeled launch overhead, one
    /// `KernelProfile`) instead of one launch per level. Kernel
    /// code must write disjoint memory regions per (phase, thread), and
    /// cross-phase visibility is guaranteed by the barrier.
    ///
    /// **Publication contract.** Phase threads may additionally publish
    /// per-thread results into shared *atomic* tables (the engine's store
    /// pass writes each output's pointer/length this way, and adds its
    /// per-signal sums — folded publication), provided no thread of the
    /// same phase reads a slot a peer writes; later phases read them behind
    /// the barrier. Likewise, `on_phase_end` may do host work between
    /// phases (the engine's overflow scan at store boundaries, the next
    /// level's reservations at repair boundaries): the callback runs
    /// exactly once per phase on one thread
    /// (the last worker arriving at the phase's end — not necessarily the
    /// same thread each phase), after every thread of the phase and before
    /// any thread of the next, so it reads what the phase wrote and later
    /// phases read what it writes.
    pub fn launch_phased<F, G>(
        &self,
        name: &str,
        cfg: &LaunchConfig,
        phases: &[usize],
        f: F,
        on_phase_end: G,
    ) -> KernelProfile
    where
        F: Fn(usize, Range<usize>, &mut LaneCounters) + Sync,
        G: FnMut(usize) -> Option<u64> + Send,
    {
        self.launch_phased_impl(name, cfg, phases, f, on_phase_end, false)
    }

    /// Like [`Device::launch_phased`] but always drives the pooled
    /// chase-the-cursor protocol, even for phases narrower than the inline
    /// threshold. This exists so the `model-check` tests can exhaustively
    /// explore the driver's interleavings with model-scale phases (a few
    /// threads), where production sizing would take the serial fast path.
    #[doc(hidden)]
    pub fn launch_phased_pooled<F, G>(
        &self,
        name: &str,
        cfg: &LaunchConfig,
        phases: &[usize],
        f: F,
        on_phase_end: G,
    ) -> KernelProfile
    where
        F: Fn(usize, Range<usize>, &mut LaneCounters) + Sync,
        G: FnMut(usize) -> Option<u64> + Send,
    {
        self.launch_phased_impl(name, cfg, phases, f, on_phase_end, true)
    }

    fn launch_phased_impl<F, G>(
        &self,
        name: &str,
        cfg: &LaunchConfig,
        phases: &[usize],
        f: F,
        mut on_phase_end: G,
        force_pool: bool,
    ) -> KernelProfile
    where
        F: Fn(usize, Range<usize>, &mut LaneCounters) + Sync,
        G: FnMut(usize) -> Option<u64> + Send,
    {
        #[cfg(feature = "fault-inject")]
        self.memory.fault_point(crate::fault::FaultSite::Launch);
        let t0 = Instant::now();
        let counters = KernelCounters::default();
        let total: usize = phases.iter().sum();
        let block = cfg.threads_per_block.max(1) as usize;
        // Working-set growth reported by the phase boundaries (bytes).
        let ws_growth = AtomicU64::new(0);

        // The serial fast path for all-narrow groups: the decision looks
        // at the *widest phase*, not the total — a deep fused group of
        // tiny levels would pay a cross-worker phase hand-off for a
        // handful of gate simulations. Sequential execution trivially
        // satisfies the inter-phase ordering, exactly as [`Device::launch`]
        // absorbs small launches.
        let widest = phases.iter().copied().max().unwrap_or(0);
        if !force_pool && (widest < INLINE_LAUNCH_THREADS || self.workers == 1) {
            let mut lane = LaneCounters::default();
            for (p, &n) in phases.iter().enumerate() {
                for b in 0..n.div_ceil(block) {
                    f(p, block_range(b, block, n), &mut lane);
                }
                match on_phase_end(p) {
                    Some(bytes) => {
                        // relaxed-ok: serial fast path, single thread.
                        ws_growth.fetch_add(bytes, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
            counters.merge(&lane);
        } else {
            let workers = self.workers;
            // The lean phase driver: a chase-the-cursor protocol instead of
            // two full `Barrier` rounds per phase. Workers spin on `gate`
            // (the index of the currently open phase), claim blocks through
            // the phase's cursor, and *arrive* by incrementing one shared
            // counter; the last arriver becomes the phase leader — it runs
            // the host-side boundary callback, resets the counter and opens
            // the next phase with a single release store. A tiny phase thus
            // costs each worker one atomic RMW (the arrival) plus an
            // acquire spin, instead of two mutex/condvar barrier rounds
            // across every worker.
            //
            // Ordering: the workers' `arrived.fetch_add(AcqRel)` RMWs chain
            // on one location, so the last arriver happens-after every
            // earlier worker's phase-`p` writes; the leader's
            // `gate.store(Release)` then publishes the boundary's effects
            // (and the counter reset) to workers resuming through their
            // acquire loads of `gate`.
            let gate = AtomicUsize::new(0);
            let arrived = AtomicUsize::new(0);
            let abort = AtomicBool::new(false);
            let cursors: Vec<AtomicUsize> = phases.iter().map(|_| AtomicUsize::new(0)).collect();
            let callback = Mutex::new(&mut on_phase_end);
            // A panicking worker must keep arriving at every remaining
            // phase or the gate never opens and the other workers spin
            // forever; panics are caught, the launch aborts, and the first
            // payload is re-raised after the scope joins.
            let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
            let record_panic = |payload: Box<dyn std::any::Any + Send>| {
                abort.store(true, Ordering::Release);
                let mut slot = panic_payload.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            };
            crate::sync::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|_| {
                        let mut lane = LaneCounters::default();
                        for (p, &n) in phases.iter().enumerate() {
                            let mut spins = 0u32;
                            // anchor: phase-gate-wait
                            // pairs-with: crates/gpu/src/device.rs:phase-gate-open
                            while gate.load(Ordering::Acquire) < p {
                                spin_wait(&mut spins);
                            }
                            if !abort.load(Ordering::Acquire) {
                                let n_blocks = n.div_ceil(block);
                                let run = std::panic::catch_unwind(AssertUnwindSafe(|| loop {
                                    // relaxed-ok: the phase cursor only
                                    // partitions blocks among workers of the
                                    // same phase; cross-phase visibility is
                                    // the gate's Release/Acquire edge (model
                                    // test `phase_boundary_is_a_barrier`).
                                    let b = cursors[p].fetch_add(1, Ordering::Relaxed);
                                    if b >= n_blocks {
                                        break;
                                    }
                                    f(p, block_range(b, block, n), &mut lane);
                                }));
                                if let Err(payload) = run {
                                    record_panic(payload);
                                }
                            }
                            // Arrive. The last worker in is the leader: all
                            // phase-p threads are done, so it runs the
                            // host-side phase boundary and opens phase p+1.
                            if arrived.fetch_add(1, Ordering::AcqRel) + 1 == workers {
                                if !abort.load(Ordering::Acquire) {
                                    let boundary =
                                        std::panic::catch_unwind(AssertUnwindSafe(|| {
                                            // panic-ok: leader-only lock —
                                            // exactly one worker reaches the
                                            // boundary per phase, so it cannot
                                            // be poisoned while held.
                                            (callback.lock().expect("phase callback"))(p)
                                        }));
                                    match boundary {
                                        Ok(Some(bytes)) => {
                                            // relaxed-ok: only the unique
                                            // leader writes it this phase;
                                            // read after the scope joins.
                                            ws_growth.fetch_add(bytes, Ordering::Relaxed);
                                        }
                                        Ok(None) => abort.store(true, Ordering::Release),
                                        Err(payload) => record_panic(payload),
                                    }
                                }
                                // relaxed-ok: the reset looks racy (workers
                                // of phase p+1 must not observe the stale
                                // pre-reset count) but is safe: it is
                                // sequenced before the leader's
                                // `gate.store(Release)` below, and every
                                // other worker's next `arrived` RMW happens
                                // only after its `gate` Acquire load sees
                                // p+1 — which orders the reset before it.
                                // Model test `leader_reset_is_not_lost`
                                // explores all interleavings of this reset.
                                arrived.store(0, Ordering::Relaxed);
                                // anchor: phase-gate-open
                                // pairs-with: crates/gpu/src/device.rs:phase-gate-wait
                                gate.store(p + 1, Ordering::Release);
                            }
                        }
                        counters.merge(&lane);
                    });
                }
            })
            // panic-ok: scope join — worker panics are stashed in
            // `panic_payload` first; this re-raises only scope-level ones.
            .expect("phased kernel worker panicked");
            let payload = panic_payload
                .into_inner()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(payload) = payload {
                std::panic::resume_unwind(payload);
            }
        }

        let wall = t0.elapsed().as_secs_f64();
        let model_cfg = LaunchConfig {
            threads: total,
            // relaxed-ok: read after the worker scope joins.
            working_set_bytes: cfg.working_set_bytes + ws_growth.load(Ordering::Relaxed),
            ..*cfg
        };
        model_launch(&self.spec, &model_cfg, counters.snapshot(), wall, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::AtomicU64;

    #[test]
    fn all_threads_execute_exactly_once() {
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 4);
        let hits = AtomicU64::new(0);
        let cfg = LaunchConfig::for_threads(10_000);
        dev.launch("count", &cfg, |threads, _lane| {
            hits.fetch_add(threads.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn thread_ids_cover_range() {
        // Each callback gets one whole block of the launch (the last one
        // short), and the blocks partition `0..n`: for `launch`, for the
        // phased serial fast path and for the pooled phased driver.
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 3);
        let block = 384usize;
        let cfg = |threads| LaunchConfig {
            threads,
            threads_per_block: block as u32,
            ..Default::default()
        };
        let assert_partition = |n: usize, seen: Mutex<Vec<Range<usize>>>| {
            let mut seen = seen.into_inner().unwrap();
            seen.sort_by_key(|r| r.start);
            let blocks: Vec<_> = (0..n.div_ceil(block))
                .map(|b| b * block..((b + 1) * block).min(n))
                .collect();
            assert_eq!(seen, blocks, "{n} threads");
        };
        let record = |seen: &Mutex<Vec<Range<usize>>>, threads: Range<usize>| {
            seen.lock().unwrap().push(threads);
        };

        let (wide, narrow) = (5000usize, 1000usize);
        let seen = Mutex::new(Vec::new());
        dev.launch("cover", &cfg(wide), |threads, _| record(&seen, threads));
        assert_partition(wide, seen);

        let seen = Mutex::new(Vec::new());
        dev.launch_phased(
            "cover-serial",
            &cfg(narrow),
            &[narrow],
            |_, threads, _| record(&seen, threads),
            |_| Some(0),
        );
        assert_partition(narrow, seen);

        let seen = Mutex::new(Vec::new());
        dev.launch_phased_pooled(
            "cover-pooled",
            &cfg(narrow),
            &[narrow],
            |_, threads, _| record(&seen, threads),
            |_| Some(0),
        );
        assert_partition(narrow, seen);
    }

    #[test]
    fn counters_flow_into_profile() {
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 2);
        let cfg = LaunchConfig {
            threads: 6000,
            working_set_bytes: 1 << 20,
            ..Default::default()
        };
        let p = dev.launch("c", &cfg, |threads, lane| {
            for _ in threads {
                lane.scattered_load();
                lane.ops(3);
            }
        });
        assert_eq!(p.accesses, 6000);
        assert_eq!(p.instructions, 18_000);
        assert_eq!(p.uncoalesced_pct, 100.0);
        assert!(p.modeled_seconds >= dev.spec().launch_overhead);
    }

    #[test]
    fn zero_thread_launch_is_empty() {
        let dev = Device::with_workers(DeviceSpec::t4(), 0, 2);
        let p = dev.launch("none", &LaunchConfig::for_threads(0), |_, _| {
            panic!("must not run")
        });
        assert_eq!(p.threads, 0);
    }

    #[test]
    fn phased_launch_barriers_between_phases() {
        // Phase 1 threads must observe every phase-0 write (16k threads
        // forces the parallel path).
        let n = 16_384usize;
        let dev = Device::with_workers(DeviceSpec::v100(), n, 4);
        let boundary_seen = AtomicU64::new(0);
        let p = dev.launch_phased(
            "phased",
            &LaunchConfig::for_threads(2 * n),
            &[n, n],
            |phase, threads, _lane| {
                for tid in threads {
                    if phase == 0 {
                        dev.memory().store(tid, tid as i32 + 1);
                    } else {
                        assert_eq!(dev.memory().load(tid), tid as i32 + 1, "phase-0 write lost");
                    }
                }
            },
            |phase| {
                boundary_seen.fetch_add(phase as u64 + 1, Ordering::Relaxed);
                Some(0)
            },
        );
        assert_eq!(
            boundary_seen.load(Ordering::Relaxed),
            3,
            "both boundaries ran once"
        );
        assert_eq!(p.threads, 2 * n);
        assert!(p.modeled_seconds > 0.0);
    }

    #[test]
    fn phased_launch_abort_skips_rest() {
        let dev = Device::with_workers(DeviceSpec::t4(), 0, 3);
        let ran = AtomicU64::new(0);
        dev.launch_phased(
            "abort",
            &LaunchConfig::for_threads(30),
            &[10, 10, 10],
            |phase, threads, _| {
                assert!(phase < 2, "phase 2 must not run");
                ran.fetch_add(threads.len() as u64, Ordering::Relaxed);
            },
            |phase| (phase == 0).then_some(0),
        );
        assert_eq!(ran.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn phased_launch_ws_growth_feeds_model() {
        // Working-set bytes reported at phase boundaries must reach the
        // L2-capacity model: growing past L2 size lowers the hit rate vs
        // the same launch reporting no growth.
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 2);
        let run = |growth: u64| {
            dev.launch_phased(
                "grow",
                &LaunchConfig {
                    threads: 8,
                    working_set_bytes: 1 << 10,
                    ..Default::default()
                },
                &[4, 4],
                |_, threads, lane| {
                    for _ in threads {
                        lane.scattered_load();
                        lane.ops(1);
                    }
                },
                |_| Some(growth),
            )
        };
        let flat = run(0);
        let grown = run(1 << 30);
        assert!(
            grown.l2_hit_pct < flat.l2_hit_pct,
            "in-launch growth must shrink the modeled L2 hit rate: {} vs {}",
            grown.l2_hit_pct,
            flat.l2_hit_pct
        );
        assert!(grown.modeled_seconds > flat.modeled_seconds);
    }

    #[test]
    fn phased_launch_propagates_worker_panic() {
        // A panicking kernel thread must not deadlock the barrier; the
        // panic surfaces to the caller after the scope joins.
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch_phased(
                "boom",
                &LaunchConfig::for_threads(16_384),
                &[8192, 8192],
                |phase, threads, _| {
                    assert!(!(phase == 0 && threads.contains(&1234)), "kernel bug");
                },
                |_| Some(0),
            )
        }));
        assert!(result.is_err(), "worker panic must propagate");
    }

    #[test]
    fn phased_launch_propagates_boundary_panic() {
        // A panicking phase-boundary callback must abort the remaining
        // phases and surface after the scope joins. The leader is just the
        // last-arriving worker, so the gate must still open for every
        // later phase or the other workers would spin forever.
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 3);
        let ran = AtomicU64::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch_phased(
                "boundary-boom",
                &LaunchConfig::for_threads(3 * 8192),
                &[8192, 8192, 8192],
                |phase, threads, _| {
                    assert!(phase < 2, "phase after the panicking boundary must not run");
                    ran.fetch_add(threads.len() as u64, Ordering::Relaxed);
                },
                |phase| {
                    assert!(phase == 0, "boundary bug");
                    Some(0)
                },
            )
        }));
        assert!(result.is_err(), "boundary panic must propagate");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            2 * 8192,
            "exactly the phases before the abort ran"
        );
    }

    #[test]
    fn phased_launch_single_overhead() {
        // A phased launch models one launch overhead regardless of phases.
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 2);
        let p = dev.launch_phased(
            "one",
            &LaunchConfig::for_threads(8),
            &[4, 4],
            |_, threads, lane| lane.ops(threads.len() as u64),
            |_| Some(0),
        );
        assert!(p.modeled_seconds >= dev.spec().launch_overhead);
        assert!(p.modeled_seconds < 2.0 * dev.spec().launch_overhead);
    }

    #[test]
    fn memory_attached() {
        let dev = Device::new(DeviceSpec::t4(), 64);
        dev.memory().store(1, 42);
        assert_eq!(dev.memory().load(1), 42);
        assert_eq!(dev.spec().name, "T4");
    }
}

/// Exhaustive interleaving tests of the pooled phase driver on the loom
/// model types (`cargo test --features model-check`). The pooled path is
/// forced via [`Device::launch_phased_pooled`] so model-scale phases (one
/// thread each) still exercise the chase-the-cursor protocol.
#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;
    use crate::DeviceSpec;

    /// ISSUE invariant: every phase-`p` write is visible to every
    /// phase-`p+1` thread. The edge is the leader's
    /// `gate.store(p + 1, Release)` paired with the workers' Acquire spin;
    /// weakening either it or the `arrived.fetch_add(AcqRel)` arrival to
    /// `Relaxed` fails this test with a counterexample schedule.
    #[test]
    fn phase_boundary_is_a_barrier() {
        loom::model(|| {
            let dev = Device::with_workers(DeviceSpec::v100(), 0, 2);
            let data = AtomicU64::new(0);
            dev.launch_phased_pooled(
                "model-barrier",
                &LaunchConfig::for_threads(2),
                &[1, 1],
                |phase, _threads, _lane| {
                    if phase == 0 {
                        // relaxed-ok: the phase gate is the ordering under
                        // test — this payload must ride it unaided.
                        data.store(7, Ordering::Relaxed);
                    } else {
                        assert_eq!(
                            // relaxed-ok: see above.
                            data.load(Ordering::Relaxed),
                            7,
                            "leader missed a result: phase-0 write invisible \
                             behind the gate"
                        );
                    }
                },
                |_| Some(0),
            );
        });
    }

    /// ISSUE invariant: exactly one boundary leader per phase, across the
    /// `arrived.store(0, Relaxed)` counter reset — the reset is ordered by
    /// the leader's subsequent `gate` Release store, and every other
    /// worker's next arrival happens after its `gate` Acquire load, so no
    /// interleaving can double-run or lose a boundary.
    #[test]
    fn leader_reset_is_not_lost() {
        loom::model(|| {
            let dev = Device::with_workers(DeviceSpec::v100(), 0, 2);
            let boundaries = AtomicU64::new(0);
            dev.launch_phased_pooled(
                "model-reset",
                &LaunchConfig::for_threads(2),
                &[1, 1],
                |_, _, _| {},
                |_| {
                    // relaxed-ok: only the unique leader runs the boundary;
                    // uniqueness is what this test proves.
                    boundaries.fetch_add(1, Ordering::Relaxed);
                    Some(0)
                },
            );
            assert_eq!(
                // relaxed-ok: read after the launch (scope joined).
                boundaries.load(Ordering::Relaxed),
                2,
                "each phase boundary must run exactly once"
            );
        });
    }
}
