use std::sync::Arc;

use crate::{Device, DeviceSpec};

/// A multi-GPU system: `n` simulated devices sharing the host's cores.
///
/// The paper's multi-GPU strategy distributes *cycle parallelism*: with `n`
/// GPUs the cycle-parallel slots are split evenly, each device simulates its
/// share independently, and kernel time follows `t = t₁/n + ovr` where `ovr`
/// is the per-launch stream-synchronize overhead (Fig. 6). A session runs
/// on the fleet through `Session::with_devices(.., gpus.devices().to_vec())`.
#[derive(Debug)]
pub struct MultiGpu {
    devices: Vec<Arc<Device>>,
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
            .map(|_| Arc::new(Device::with_workers(spec.clone(), memory_words, per_dev)))
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

    /// The devices, shareable with the sessions that run on them.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// The paper's multi-GPU scaling law `t = t₁/n + ovr`, exposed for
    /// reporting: given a single-device modeled time and the per-level
    /// launch count, predicts the n-device time.
    pub fn predicted_scaling(&self, t1: f64, launches: u64) -> f64 {
        let ovr = self.devices[0].spec().launch_overhead * launches as f64;
        t1 / self.devices.len() as f64 + ovr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
