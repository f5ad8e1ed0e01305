use crate::{Device, DeviceSpec, KernelProfile};

/// A multi-GPU system: `n` simulated devices sharing the host's cores.
///
/// The paper's multi-GPU strategy distributes *cycle parallelism*: with `n`
/// GPUs the cycle-parallel slots are split evenly, each device simulates its
/// share independently, and kernel time follows `t = t₁/n + ovr` where `ovr`
/// is the per-launch stream-synchronize overhead (Fig. 6).
#[derive(Debug)]
pub struct MultiGpu {
    devices: Vec<Device>,
}

impl MultiGpu {
    /// Creates `n` devices of the same spec, each with `memory_words` words,
    /// dividing the host's worker threads between them.
    pub fn new(spec: DeviceSpec, n: usize, memory_words: usize) -> Self {
        assert!(n > 0, "need at least one device");
        let host = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        let per_dev = (host / n).max(1);
        let devices = (0..n)
            .map(|_| Device::with_workers(spec.clone(), memory_words, per_dev))
            .collect();
        MultiGpu { devices }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether there are no devices (never true; see [`MultiGpu::new`]).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Access to device `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// Iterates over the devices.
    pub fn iter(&self) -> impl Iterator<Item = &Device> {
        self.devices.iter()
    }

    /// Runs `f(device_index, device)` concurrently on every device (the
    /// per-device work must be embarrassingly parallel, as GATSPI's
    /// cycle-sharded simulation is), then combines the per-device profiles
    /// into a system profile: modeled time is the slowest device (plus
    /// nothing — each device already includes its launch overhead), wall
    /// time is the actual concurrent wall time.
    pub fn run_sharded<F>(&self, f: F) -> KernelProfile
    where
        F: Fn(usize, &Device) -> KernelProfile + Sync,
    {
        let t0 = std::time::Instant::now();
        let mut profiles: Vec<Option<KernelProfile>> = Vec::new();
        profiles.resize_with(self.devices.len(), || None);
        crate::sync::thread::scope(|s| {
            for (slot, (i, dev)) in profiles.iter_mut().zip(self.devices.iter().enumerate()) {
                let f = &f;
                s.spawn(move |_| {
                    *slot = Some(f(i, dev));
                });
            }
        })
        // panic-ok: scope join — re-raises a device worker's panic to
        // the caller's per-shard boundary.
        .expect("device worker panicked");
        let wall = t0.elapsed().as_secs_f64();

        let mut combined = KernelProfile::empty("multi-gpu");
        let mut slowest = 0.0f64;
        for p in profiles.into_iter().flatten() {
            slowest = slowest.max(p.modeled_seconds);
            combined.accumulate(&p);
        }
        // Across devices the modeled time is a max, not a sum.
        combined.modeled_seconds = slowest;
        combined.wall_seconds = wall;
        combined
    }

    /// The paper's multi-GPU scaling law `t = t₁/n + ovr`, exposed for
    /// reporting: given a single-device modeled time and the per-level
    /// launch count, predicts the n-device time.
    pub fn predicted_scaling(&self, t1: f64, launches: u64) -> f64 {
        let ovr = self.devices[0].spec().launch_overhead * launches as f64;
        t1 / self.devices.len() as f64 + ovr
    }
}

/// Splits `total` cycle-parallel slots across `n` devices as evenly as
/// possible, returning per-device `(start, count)`.
pub fn shard_slots(total: usize, n: usize) -> Vec<(usize, usize)> {
    assert!(n > 0, "need at least one shard");
    let base = total / n;
    let rem = total % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let count = base + usize::from(i < rem);
        out.push((start, count));
        start += count;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LaunchConfig as Cfg;

    #[test]
    fn shard_slots_even_and_uneven() {
        assert_eq!(shard_slots(8, 4), vec![(0, 2), (2, 2), (4, 2), (6, 2)]);
        assert_eq!(shard_slots(7, 3), vec![(0, 3), (3, 2), (5, 2)]);
        assert_eq!(shard_slots(2, 4), vec![(0, 1), (1, 1), (2, 0), (2, 0)]);
    }

    #[test]
    fn run_sharded_executes_all_devices() {
        let mg = MultiGpu::new(DeviceSpec::v100(), 2, 128);
        let p = mg.run_sharded(|i, dev| {
            dev.memory().store(0, i as i32 + 1);
            dev.launch("w", &Cfg::for_threads(64), |threads, lane| {
                lane.ops(threads.len() as u64)
            })
        });
        assert_eq!(mg.device(0).memory().load(0), 1);
        assert_eq!(mg.device(1).memory().load(0), 2);
        assert!(p.modeled_seconds > 0.0);
    }

    #[test]
    fn modeled_time_is_max_across_devices() {
        let mg = MultiGpu::new(DeviceSpec::v100(), 2, 0);
        let p = mg.run_sharded(|i, dev| {
            let threads = if i == 0 { 64 } else { 50_000 };
            dev.launch("w", &Cfg::for_threads(threads), |threads, lane| {
                for _ in threads {
                    lane.scattered_load();
                    lane.ops(100)
                }
            })
        });
        let solo = mg
            .device(1)
            .launch("w", &Cfg::for_threads(50_000), |threads, lane| {
                for _ in threads {
                    lane.scattered_load();
                    lane.ops(100)
                }
            });
        // Combined time tracks the big shard, not the sum.
        assert!(p.modeled_seconds <= solo.modeled_seconds * 1.5);
    }

    #[test]
    fn predicted_scaling_follows_t1_over_n() {
        let mg = MultiGpu::new(DeviceSpec::v100(), 4, 0);
        let t1 = 40.0;
        let t4 = mg.predicted_scaling(t1, 1000);
        assert!(t4 > 10.0 && t4 < 10.2, "got {t4}");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        let _ = MultiGpu::new(DeviceSpec::t4(), 0, 0);
    }
}
