use crate::sync::atomic::{AtomicI32, AtomicU64, Ordering};

/// Simulated GPU global memory: a pre-allocated flat `i32` word arena.
///
/// Words are stored as relaxed atomics so that concurrently running kernel
/// threads can share the buffer safely;
/// on x86-64 relaxed atomic loads/stores compile to plain `mov`s, so the
/// functional cost is negligible. Correctness of concurrent access follows
/// from the simulator's allocate-before-store design: every thread writes
/// only its own pre-assigned output region.
///
/// Host↔device transfers are explicit ([`DeviceMemory::h2d`],
/// [`DeviceMemory::d2h`]) and accounted in bytes, so the engine can model
/// PCIe transfer time for the application-phase profile (Table 5).
#[derive(Debug)]
pub struct DeviceMemory {
    words: Vec<AtomicI32>,
    h2d_bytes: AtomicU64,
    d2h_bytes: AtomicU64,
    /// Arena recycling generation: bumped by each run that reuses the
    /// arena, so results holding live device pointers can detect that
    /// their data has been overwritten instead of silently reading the
    /// next run's waveforms.
    epoch: AtomicU64,
    /// Armed fault injector, if any (`Device::arm_faults`). The lock is
    /// taken only at the bulk-transfer entry points, never per word.
    #[cfg(feature = "fault-inject")]
    injector: crate::sync::Mutex<Option<std::sync::Arc<crate::fault::FaultInjector>>>,
}

impl DeviceMemory {
    /// Allocates an arena of `words` i32 slots, zero-initialised. The words
    /// come from a zeroed allocation, so pages no run ever touches are never
    /// written (or made resident) by the host.
    pub fn new(words: usize) -> Self {
        DeviceMemory {
            words: zeroed_words(words),
            h2d_bytes: AtomicU64::new(0),
            d2h_bytes: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            #[cfg(feature = "fault-inject")]
            injector: crate::sync::Mutex::new(None),
        }
    }

    /// Replaces (or clears, with `None`) the armed fault injector.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn arm_faults(&self, injector: Option<std::sync::Arc<crate::fault::FaultInjector>>) {
        *self.injector.lock().unwrap_or_else(|e| e.into_inner()) = injector;
    }

    /// The armed fault injector, if any.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn fault_injector(&self) -> Option<std::sync::Arc<crate::fault::FaultInjector>> {
        self.injector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Runs the injection check for `site` if an injector is armed.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn fault_point(&self, site: crate::fault::FaultSite) {
        if let Some(inj) = self.fault_injector() {
            inj.check(site);
        }
    }

    /// The current arena-recycling generation.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Starts a new arena generation (a run is about to overwrite the
    /// arena); returns the new generation.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the arena has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads one word (relaxed).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn load(&self, idx: usize) -> i32 {
        // relaxed-ok: arena words carry no cross-thread ordering themselves;
        // every writer owns a disjoint pre-assigned region and cross-phase
        // visibility rides the launch barrier (see Device::launch_phased).
        self.words[idx].load(Ordering::Relaxed)
    }

    /// Writes one word (relaxed).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn store(&self, idx: usize, value: i32) {
        // relaxed-ok: see `load` — per-thread disjoint regions, ordering via
        // the launch barrier.
        self.words[idx].store(value, Ordering::Relaxed);
    }

    /// Host→device copy of `src` into the arena at `offset`, with byte
    /// accounting.
    ///
    /// # Panics
    ///
    /// Panics if the destination range is out of bounds.
    pub fn h2d(&self, offset: usize, src: &[i32]) {
        #[cfg(feature = "fault-inject")]
        self.fault_point(crate::fault::FaultSite::Alloc);
        // panic-ok: documented bounds contract of this API.
        assert!(offset + src.len() <= self.words.len(), "h2d out of bounds");
        for (i, &v) in src.iter().enumerate() {
            // relaxed-ok: see `store`.
            self.words[offset + i].store(v, Ordering::Relaxed);
        }
        // relaxed-ok: monotonic telemetry counter, read only for reports.
        self.h2d_bytes
            .fetch_add(4 * src.len() as u64, Ordering::Relaxed);
    }

    /// Device→host copy of `dst.len()` words starting at `offset` into
    /// `dst`, with byte accounting: one transfer, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the source range is out of bounds.
    pub fn d2h_into(&self, offset: usize, dst: &mut [i32]) {
        #[cfg(feature = "fault-inject")]
        self.fault_point(crate::fault::FaultSite::Transfer);
        // panic-ok: documented bounds contract of this API.
        assert!(offset + dst.len() <= self.words.len(), "d2h out of bounds");
        for (d, w) in dst.iter_mut().zip(&self.words[offset..]) {
            // relaxed-ok: see `load`.
            *d = w.load(Ordering::Relaxed);
        }
        // relaxed-ok: monotonic telemetry counter, read only for reports.
        self.d2h_bytes
            .fetch_add(4 * dst.len() as u64, Ordering::Relaxed);
    }

    /// [`DeviceMemory::d2h_into`] a fresh vector of `len` words.
    ///
    /// # Panics
    ///
    /// Panics if the source range is out of bounds.
    pub fn d2h(&self, offset: usize, len: usize) -> Vec<i32> {
        let mut out = vec![0; len];
        self.d2h_into(offset, &mut out);
        out
    }

    /// Total bytes copied host→device so far.
    pub fn h2d_bytes(&self) -> u64 {
        // relaxed-ok: telemetry read, no payload depends on it.
        self.h2d_bytes.load(Ordering::Relaxed)
    }

    /// Total bytes copied device→host so far.
    pub fn d2h_bytes(&self) -> u64 {
        // relaxed-ok: telemetry read, no payload depends on it.
        self.d2h_bytes.load(Ordering::Relaxed)
    }

    /// Resets the transfer counters (not the memory contents).
    pub fn reset_counters(&self) {
        // relaxed-ok: telemetry reset between runs, single-threaded caller.
        self.h2d_bytes.store(0, Ordering::Relaxed);
        // relaxed-ok: telemetry reset between runs, single-threaded caller.
        self.d2h_bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(not(feature = "model-check"))]
fn zeroed_words(n: usize) -> Vec<AtomicI32> {
    let mut zeroed = std::mem::ManuallyDrop::new(vec![0i32; n]);
    // SAFETY: `std`'s `AtomicI32` has the same size, alignment and bit
    // validity as `i32`, so the buffer keeps its allocation layout and every
    // zeroed word is a valid `AtomicI32`; `ManuallyDrop` gives up the
    // original `Vec`'s ownership, so the buffer is owned (and freed) exactly
    // once, by the returned `Vec`.
    unsafe {
        Vec::from_raw_parts(
            zeroed.as_mut_ptr().cast::<AtomicI32>(),
            zeroed.len(),
            zeroed.capacity(),
        )
    }
}

/// Under `model-check`, `AtomicI32` is loom's instrumented type, not a bare
/// word: construct each one.
#[cfg(feature = "model-check")]
fn zeroed_words(n: usize) -> Vec<AtomicI32> {
    let mut v = Vec::with_capacity(n);
    v.resize_with(n, || AtomicI32::new(0));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_roundtrip() {
        let m = DeviceMemory::new(8);
        m.store(3, -7);
        assert_eq!(m.load(3), -7);
        assert_eq!(m.load(0), 0);
        assert_eq!(m.len(), 8);
        assert!(!m.is_empty());
    }

    #[test]
    fn h2d_d2h_with_accounting() {
        let m = DeviceMemory::new(16);
        m.h2d(4, &[1, 2, 3]);
        assert_eq!(m.load(4), 1);
        assert_eq!(m.load(6), 3);
        assert_eq!(m.h2d_bytes(), 12);
        let back = m.d2h(4, 3);
        assert_eq!(back, vec![1, 2, 3]);
        assert_eq!(m.d2h_bytes(), 12);
        let mut two = [0; 2];
        m.d2h_into(5, &mut two);
        assert_eq!(two, [2, 3]);
        assert_eq!(m.d2h_bytes(), 20);
        m.reset_counters();
        assert_eq!(m.h2d_bytes(), 0);
    }

    /// The default 64 M-word arena: zero wherever it is read, before and
    /// after a far-end write, without the constructor having touched it.
    #[cfg(not(feature = "model-check"))]
    #[test]
    fn large_arena_reads_zero_and_round_trips_at_the_far_end() {
        let n = 64 << 20;
        let m = DeviceMemory::new(n);
        assert_eq!(m.len(), n);
        for i in (0..n).step_by(n / 61).chain([0, n - 1]) {
            assert_eq!(m.load(i), 0, "word {i}");
        }
        m.h2d(n - 3, &[7, -8, 9]);
        assert_eq!(m.d2h(n - 4, 4), vec![0, 7, -8, 9]);
        assert_eq!(m.load(n / 2), 0);
    }

    #[test]
    #[should_panic(expected = "h2d out of bounds")]
    fn h2d_bounds_checked() {
        let m = DeviceMemory::new(2);
        m.h2d(1, &[1, 2]);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let m = DeviceMemory::new(1024);
        std::thread::scope(|s| {
            for t in 0..4 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..256 {
                        m.store(t * 256 + i, (t * 256 + i) as i32);
                    }
                });
            }
        });
        for i in 0..1024 {
            assert_eq!(m.load(i), i as i32);
        }
    }
}

#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;

    /// The arena epoch as a hand-off: a writer that stores a word and then
    /// advances the epoch (`AcqRel`) publishes the word to any reader that
    /// observes the new epoch (`Acquire`) — weakening either ordering to
    /// `Relaxed` yields a schedule where the reader sees the new epoch but
    /// the old word.
    #[test]
    fn epoch_advance_publishes_arena_writes() {
        loom::model(|| {
            let m = DeviceMemory::new(1);
            crate::sync::thread::scope(|s| {
                let m = &m;
                s.spawn(move |_| {
                    m.store(0, 42);
                    m.advance_epoch();
                });
                if m.epoch() == 1 {
                    assert_eq!(m.load(0), 42, "epoch visible but its write is not");
                }
            })
            .expect("model worker panicked");
        });
    }
}
