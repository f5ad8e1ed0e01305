use crate::sync::atomic::{AtomicU64, Ordering};

/// Kernel launch geometry and resource configuration.
///
/// Mirrors the paper's tuning "hyperparameters": total logical threads
/// (design parallelism × cycle parallelism), threads per block, and
/// registers per thread (which bounds occupancy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchConfig {
    /// Total logical threads (one per gate × cycle-slot in GATSPI).
    pub threads: usize,
    /// Threads per block (paper default: 512).
    pub threads_per_block: u32,
    /// Registers per thread (paper default: 64).
    pub regs_per_thread: u32,
    /// Approximate bytes of device memory this launch actively touches;
    /// drives the L2 hit-rate model. 0 means "unknown / tiny".
    pub working_set_bytes: u64,
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig {
            threads: 0,
            threads_per_block: 512,
            regs_per_thread: 64,
            working_set_bytes: 0,
        }
    }
}

impl LaunchConfig {
    /// Config for `threads` logical threads with the paper's default
    /// {512 threads/block, 64 regs/thread}.
    pub fn for_threads(threads: usize) -> Self {
        LaunchConfig {
            threads,
            ..Default::default()
        }
    }

    /// Number of blocks in the grid.
    pub fn blocks(&self) -> usize {
        if self.threads == 0 {
            0
        } else {
            self.threads.div_ceil(self.threads_per_block as usize)
        }
    }
}

/// Per-thread (lane) event counters, accumulated locally by kernel code and
/// merged into [`KernelCounters`] per worker — the raw material for the
/// performance model and the Table 6 profile metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCounters {
    /// 4-byte global-memory reads.
    pub loads: u64,
    /// 4-byte global-memory writes.
    pub stores: u64,
    /// Abstract executed instructions (loop iterations × working factor).
    pub instructions: u64,
}

impl LaneCounters {
    /// Records a scattered global read.
    #[inline]
    pub fn scattered_load(&mut self) {
        self.loads += 1;
    }

    /// Records a scattered global write.
    #[inline]
    pub fn scattered_store(&mut self) {
        self.stores += 1;
    }

    /// Records `n` executed instructions.
    #[inline]
    pub fn ops(&mut self, n: u64) {
        self.instructions += n;
    }
}

impl std::ops::AddAssign for LaneCounters {
    /// Folds counters a kernel kept in a local into the lane's.
    #[inline]
    fn add_assign(&mut self, other: LaneCounters) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.instructions += other.instructions;
    }
}

/// Whole-launch counters (atomic so workers can merge concurrently).
#[derive(Debug, Default)]
pub struct KernelCounters {
    /// Total global loads.
    pub loads: AtomicU64,
    /// Total global stores.
    pub stores: AtomicU64,
    /// Total abstract instructions.
    pub instructions: AtomicU64,
}

impl KernelCounters {
    /// Merges one worker's accumulated lane counters.
    pub fn merge(&self, lane: &LaneCounters) {
        // relaxed-ok: commutative counter accumulation; `snapshot` only
        // runs after the launch scope joins every worker.
        self.loads.fetch_add(lane.loads, Ordering::Relaxed);
        // relaxed-ok: see above.
        self.stores.fetch_add(lane.stores, Ordering::Relaxed);
        // relaxed-ok: see above.
        self.instructions
            .fetch_add(lane.instructions, Ordering::Relaxed);
    }

    /// Snapshot as plain values `(loads, stores, instructions)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            // relaxed-ok: called after the worker scope joins (the join is
            // the synchronization edge); model test `counters_merge_visible`
            // pins this.
            self.loads.load(Ordering::Relaxed),
            // relaxed-ok: see above.
            self.stores.load(Ordering::Relaxed),
            // relaxed-ok: see above.
            self.instructions.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_rounding() {
        let mut c = LaunchConfig::for_threads(1025);
        assert_eq!(c.blocks(), 3);
        c.threads = 512;
        assert_eq!(c.blocks(), 1);
        c.threads = 0;
        assert_eq!(c.blocks(), 0);
    }

    #[test]
    fn lane_counter_helpers() {
        let mut l = LaneCounters::default();
        l.scattered_load();
        l.scattered_load();
        l.scattered_store();
        l.ops(10);
        assert_eq!(l.loads, 2);
        assert_eq!(l.stores, 1);
        assert_eq!(l.instructions, 10);
    }

    #[test]
    fn merge_accumulates() {
        let k = KernelCounters::default();
        let mut l = LaneCounters::default();
        l.scattered_load();
        l.ops(5);
        k.merge(&l);
        k.merge(&l);
        assert_eq!(k.snapshot(), (2, 0, 10));
    }

    #[test]
    fn default_matches_paper_tuning() {
        let c = LaunchConfig::default();
        assert_eq!(c.threads_per_block, 512);
        assert_eq!(c.regs_per_thread, 64);
    }
}

#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;

    /// The `relaxed-ok` claim on [`KernelCounters`]: worker merges with
    /// Relaxed adds are fully visible to a post-join snapshot in every
    /// interleaving — the scope join is the synchronization edge.
    #[test]
    fn counters_merge_visible() {
        loom::model(|| {
            let k = KernelCounters::default();
            crate::sync::thread::scope(|s| {
                for _ in 0..2 {
                    let k = &k;
                    s.spawn(move || {
                        let mut lane = LaneCounters::default();
                        lane.scattered_load();
                        lane.ops(3);
                        k.merge(&lane);
                    });
                }
            });
            assert_eq!(k.snapshot(), (2, 0, 6), "a merge was lost");
        });
    }
}
