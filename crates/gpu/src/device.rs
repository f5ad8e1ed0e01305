use crate::{DeviceMemory, DeviceSpec};

/// A simulated GPU: a [`DeviceSpec`], its global [`DeviceMemory`], and a
/// kernel-launch engine ([`Device::worker_set`]) that executes logical
/// threads on the host CPU with CUDA-like grid/block/warp structure.
///
/// # Example
///
/// ```
/// use gatspi_gpu::{Device, DeviceSpec, KernelProfile, LaunchConfig};
///
/// let dev = Device::new(DeviceSpec::v100(), 1024);
/// dev.memory().h2d(0, &[1, 2, 3, 4]);
/// let wall = dev.worker_set(
///     |(), threads| {
///         for tid in threads {
///             let v = dev.memory().load(tid);
///             dev.memory().store(tid, v * 2);
///         }
///     },
///     |set| set.launch(4, 512, ()),
/// );
/// assert_eq!(dev.memory().d2h(0, 4), vec![2, 4, 6, 8]);
/// // One load, one store and two instructions per thread.
/// let cfg = LaunchConfig {
///     threads: 4,
///     threads_per_block: 512,
///     regs_per_thread: 64,
///     working_set_bytes: 32,
/// };
/// let profile = KernelProfile::model(dev.spec(), &cfg, (4, 4, 8), wall, "double");
/// assert!(profile.modeled_seconds > 0.0);
/// ```
#[derive(Debug)]
pub struct Device {
    spec: DeviceSpec,
    memory: DeviceMemory,
    workers: usize,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelProfile, LaunchConfig};
    use std::ops::Range;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// One launch of `f` over `threads` threads in blocks of `block` on a
    /// worker set of its own.
    fn launch_once(dev: &Device, threads: usize, block: u32, f: impl Fn(Range<usize>) + Sync) {
        dev.worker_set(|(), t| f(t), |set| set.launch(threads, block, ()));
    }

    #[test]
    fn all_threads_execute_exactly_once() {
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 4);
        let hits = AtomicU64::new(0);
        launch_once(&dev, 10_000, 512, |threads| {
            hits.fetch_add(threads.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn thread_ids_cover_range() {
        // Each callback gets one whole block of the launch (the last one
        // short), and the blocks partition `0..n`: on the worker set's
        // helpers and on the inline path alike.
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 3);
        let block = 384usize;
        for n in [5000usize, 1000] {
            let seen = Mutex::new(Vec::new());
            launch_once(&dev, n, block as u32, |threads| {
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
    fn zero_threads_per_block_runs_blocks_of_one() {
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 2);
        let seen = Mutex::new(Vec::new());
        launch_once(&dev, 3, 0, |threads| seen.lock().unwrap().push(threads));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|r| r.start);
        assert_eq!(seen, [0..1, 1..2, 2..3]);
    }

    /// A launch's measured wall and the traffic its caller counted flow
    /// into the profile the device's spec models.
    #[test]
    fn counters_flow_into_profile() {
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 2);
        let cfg = LaunchConfig {
            threads: 6000,
            threads_per_block: 512,
            regs_per_thread: 64,
            working_set_bytes: 1 << 20,
        };
        let wall = dev.worker_set(|(), _| {}, |set| set.launch(cfg.threads, 512, ()));
        let p = KernelProfile::model(dev.spec(), &cfg, (6000, 0, 18_000), wall, "k");
        assert_eq!(p.accesses, 6000);
        assert_eq!(p.instructions, 18_000);
        assert_eq!(p.uncoalesced_pct, 100.0);
        assert_eq!(p.wall_seconds, wall);
        assert!(p.modeled_seconds >= dev.spec().launch_overhead);
    }

    #[test]
    fn worker_panic_keeps_its_message() {
        // Wide enough for the worker set's helpers, so the panic may cross
        // the launch join.
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            launch_once(&dev, 10_000, 512, |threads| {
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
        launch_once(&dev, 0, 512, |_| panic!("must not run"));
    }

    #[test]
    fn memory_attached() {
        let dev = Device::new(DeviceSpec::t4(), 64);
        dev.memory().store(1, 42);
        assert_eq!(dev.memory().load(1), 42);
        assert_eq!(dev.spec().name, "T4");
    }
}
