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
    /// boundaries where combinational logic has settled). Default 1: a
    /// window may then cut while a transition is in flight, that
    /// transition is lost, and the SAIF can differ from a continuous
    /// simulation. `gatspi sim --cycle N` sets it; `--verify` checks the
    /// result against the event-driven reference.
    pub window_align: SimTime,
}

impl Default for SimConfig {
    /// The paper's tuning on a V100, with a 1-tick
    /// [`window_align`](SimConfig::window_align): exact only where no
    /// transition is in flight at a window cut. Set the alignment to the
    /// testbench clock period for cycle-based stimulus.
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
        }
    }
}

impl SimConfig {
    /// A configuration sized for unit tests: a small arena, otherwise
    /// [`SimConfig::default`], 1-tick window alignment included.
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
