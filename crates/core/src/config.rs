use gatspi_gpu::DeviceSpec;
use gatspi_wave::SimTime;

/// Functional feature switches, used for the paper's Table 7 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimFeatures {
    /// Inertial pulse filtering on interconnect (Algorithm 1 lines 11–12).
    /// Disabling reproduces the "No Net Delay" column of Table 7.
    pub net_delay_filtering: bool,
    /// Full conditional-SDF lookup (Fig. 4 2-D arrays). Disabling collapses
    /// every arc to its average rise/fall pair — the "No Full SDF" column.
    pub full_sdf: bool,
}

impl Default for SimFeatures {
    fn default() -> Self {
        SimFeatures {
            net_delay_filtering: true,
            full_sdf: true,
        }
    }
}

/// Bounded-retry policy for transient device faults.
///
/// When a segment's execution dies with a *transient* fault
/// (`CoreError::DeviceFault { retryable: true }` — an injected or real
/// launch/allocation/readback error), the session re-executes **only that
/// segment**, up to [`max_attempts`](RetryPolicy::max_attempts) total
/// attempts, sleeping an exponentially growing backoff between attempts.
/// Because every segment's outputs are delivered to sinks only after the
/// segment fully succeeds (readback included), a retried run's streamed and
/// post-hoc outputs are bit-identical to a fault-free run.
///
/// The attempt `k` (1-based retry index) backoff is
/// `backoff_base * backoff_factor^(k-1)`, capped at `backoff_cap`, in
/// seconds. Total time spent sleeping is reported as
/// `AppPhaseProfile::backoff_seconds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per segment (first try included). `1` disables
    /// retries; `0` is treated as `1`. Default 3.
    pub max_attempts: u32,
    /// First retry's backoff in seconds. Default 1 ms.
    pub backoff_base: f64,
    /// Multiplier applied per further retry. Default 2.
    pub backoff_factor: f64,
    /// Upper bound on a single backoff sleep in seconds. Default 100 ms.
    pub backoff_cap: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: 0.001,
            backoff_factor: 2.0,
            backoff_cap: 0.1,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (fail on the first fault).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before 1-based retry `attempt`, in seconds.
    pub fn delay_seconds(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(62);
        (self.backoff_base * self.backoff_factor.powi(exp as i32))
            .clamp(0.0, self.backoff_cap.max(0.0))
    }
}

/// GATSPI engine configuration.
///
/// The three GPU "hyperparameters" the paper tunes (§5) are
/// [`cycle_parallelism`](SimConfig::cycle_parallelism),
/// [`threads_per_block`](SimConfig::threads_per_block) and
/// [`regs_per_thread`](SimConfig::regs_per_thread); the paper's chosen
/// configuration {32, 512, 64} is the default.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulated device (Table 1 preset). Default: V100, the paper's
    /// primary platform.
    pub device: DeviceSpec,
    /// Device waveform-arena capacity in `i32` words. The paper allocates
    /// 24 GB on a 32 GB V100; scaled default here is 64 Mi words (256 MB).
    pub memory_words: usize,
    /// Independent stimulus windows simulated in parallel (default 32 — one
    /// warp per gate).
    pub cycle_parallelism: usize,
    /// CUDA threads per block (default 512).
    pub threads_per_block: u32,
    /// Registers per thread (default 64; the paper shows 32 causes spills).
    pub regs_per_thread: u32,
    /// Feature switches for ablation studies.
    pub features: SimFeatures,
    /// `PATHPULSEPERCENT` as a percentage of the gate delay (default 100:
    /// pulses narrower than the full delay are filtered).
    pub path_pulse_percent: u32,
    /// Window boundaries are aligned to multiples of this many ticks
    /// (set it to the testbench clock period so windows cut at cycle
    /// boundaries where combinational logic has settled). Default 1.
    pub window_align: SimTime,
    /// Bounded retry with exponential backoff for transient device faults;
    /// see [`RetryPolicy`]. Default: 3 attempts, 1 ms base, ×2 per retry.
    pub retry: RetryPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            device: DeviceSpec::v100(),
            memory_words: 64 << 20,
            cycle_parallelism: 32,
            threads_per_block: 512,
            regs_per_thread: 64,
            features: SimFeatures::default(),
            path_pulse_percent: 100,
            window_align: 1,
            retry: RetryPolicy::default(),
        }
    }
}

impl SimConfig {
    /// A configuration sized for unit tests: small arena, exact semantics.
    pub fn small() -> Self {
        SimConfig {
            memory_words: 1 << 20,
            ..SimConfig::default()
        }
    }

    /// Sets cycle parallelism (builder style).
    pub fn with_cycle_parallelism(mut self, p: usize) -> Self {
        self.cycle_parallelism = p.max(1);
        self
    }

    /// Sets the window alignment (builder style).
    pub fn with_window_align(mut self, align: SimTime) -> Self {
        self.window_align = align.max(1);
        self
    }

    /// Sets the device spec (builder style).
    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Sets the transient-fault retry policy (builder style); see
    /// [`RetryPolicy`].
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_tuning() {
        let c = SimConfig::default();
        assert_eq!(c.cycle_parallelism, 32);
        assert_eq!(c.threads_per_block, 512);
        assert_eq!(c.regs_per_thread, 64);
        assert_eq!(c.path_pulse_percent, 100);
        assert!(c.features.net_delay_filtering);
        assert!(c.features.full_sdf);
        assert_eq!(c.device.name, "V100");
        assert_eq!(c.retry, RetryPolicy::default());
        assert_eq!(c.retry.max_attempts, 3);
    }

    #[test]
    fn retry_backoff_grows_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay_seconds(1), 0.001);
        assert_eq!(p.delay_seconds(2), 0.002);
        assert_eq!(p.delay_seconds(3), 0.004);
        assert_eq!(p.delay_seconds(30), 0.1, "capped at backoff_cap");
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn builder_clamps() {
        let c = SimConfig::default()
            .with_cycle_parallelism(0)
            .with_window_align(0);
        assert_eq!(c.cycle_parallelism, 1);
        assert_eq!(c.window_align, 1);
    }
}
