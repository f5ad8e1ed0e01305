use std::ops::Range;
use std::time::Instant;

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::perfmodel::model_launch;
use crate::{DeviceMemory, DeviceSpec, KernelProfile, LaneCounters, LaunchConfig};

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

/// Launches narrower than this run inline on the calling thread: spawning
/// host workers would dominate, and a real GPU absorbs such launches in
/// its fixed launch overhead.
const INLINE_LAUNCH_THREADS: usize = 4096;

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
        let t0 = Instant::now();
        let n = cfg.threads;
        let block = cfg.threads_per_block.max(1) as usize;
        let n_blocks = n.div_ceil(block.max(1));
        let mut total = LaneCounters::default();

        // Small launches run inline: spawning host threads would dominate,
        // and a real GPU absorbs these in its fixed launch overhead.
        if n_blocks <= 1 || n < INLINE_LAUNCH_THREADS || self.workers == 1 {
            for b in 0..n_blocks {
                f(block_range(b, block, n), &mut total);
            }
        } else {
            let next = AtomicUsize::new(0);
            let workers = self.workers.min(n_blocks);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(|| {
                            let mut lane = LaneCounters::default();
                            loop {
                                // relaxed-ok: the cursor only partitions
                                // blocks (each worker gets a unique `b`); the
                                // join publishes the kernel's writes.
                                let b = next.fetch_add(1, Ordering::Relaxed);
                                if b >= n_blocks {
                                    break;
                                }
                                f(block_range(b, block, n), &mut lane);
                            }
                            lane
                        })
                    })
                    .collect();
                // Join each worker by hand: the scope's own join would
                // replace a worker's panic payload with a generic one.
                for h in handles {
                    match h.join() {
                        Ok(lane) => total += lane,
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            });
        }

        let wall = t0.elapsed().as_secs_f64();
        let counters = (total.loads, total.stores, total.instructions);
        model_launch(&self.spec, cfg, counters, wall, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

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
        // short), and the blocks partition `0..n`: on the worker pool and
        // on the inline path alike.
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 3);
        let block = 384usize;
        for n in [5000usize, 1000] {
            let cfg = LaunchConfig {
                threads: n,
                threads_per_block: block as u32,
                ..Default::default()
            };
            let seen = Mutex::new(Vec::new());
            dev.launch("cover", &cfg, |threads, _| {
                seen.lock().unwrap().push(threads)
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_by_key(|r| r.start);
            let blocks: Vec<_> = (0..n.div_ceil(block))
                .map(|b| b * block..((b + 1) * block).min(n))
                .collect();
            assert_eq!(seen, blocks, "{n} threads");
        }
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
    fn worker_panic_keeps_its_message() {
        // Wide enough for the worker pool, so the panic crosses a join.
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 2);
        let cfg = LaunchConfig::for_threads(10_000);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch("boom", &cfg, |threads, _| {
                if threads.start == 5 * 512 {
                    panic!("block 5 failed");
                }
            })
        }));
        let payload = caught.expect_err("the launch must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(msg, Some("block 5 failed"));
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
    fn memory_attached() {
        let dev = Device::new(DeviceSpec::t4(), 64);
        dev.memory().store(1, 42);
        assert_eq!(dev.memory().load(1), 42);
        assert_eq!(dev.spec().name, "T4");
    }
}
