//! Cycle-approximate GPU kernel performance model.
//!
//! The model turns a launch's geometry and its traffic — the loads, stores
//! and instructions its threads execute, which the caller derives from
//! counts it holds once the launch has joined — into the Nsight-style
//! metrics of the paper's Table 6: modeled latency, occupancy, L1/L2 hit
//! rates, memory throughput, cycles-per-issue and uncoalesced-access
//! percentage, parameterised by the [`DeviceSpec`]. It is a first-order
//! analytical model (roofline over compute vs DRAM traffic with an L2
//! capacity term), *not* a simulator of a specific microarchitecture; its
//! purpose is to respond to the paper's tuning knobs in the right
//! direction and with plausible magnitude:
//!
//! * more cycle parallelism → larger working set → lower L2 hit rate →
//!   memory-bound latency growth (the Table 6 story);
//! * fewer registers/thread → register spilling → more instructions and L1
//!   misses (the paper's 32-regs experiment);
//! * bigger L2 / higher bandwidth (A100 vs V100 vs T4) → proportional
//!   speedups (Table 8).
//!
//! Every access counts as uncoalesced: GATSPI's lanes walk unrelated
//! waveforms.

use crate::DeviceSpec;

/// The launch geometry and resources the model reads.
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

/// Nsight-style profile of one kernel launch: measured wall time plus
/// modeled device metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel name (for reports).
    pub name: String,
    /// Logical threads launched.
    pub threads: usize,
    /// Host wall-clock seconds for the functional execution (measured).
    pub wall_seconds: f64,
    /// Modeled GPU latency in seconds.
    pub modeled_seconds: f64,
    /// Modeled elapsed GPU cycles.
    pub elapsed_cycles: u64,
    /// Achieved occupancy (percent of max resident threads).
    pub occupancy_pct: f64,
    /// Compute throughput as a percent of peak issue rate.
    pub compute_throughput_pct: f64,
    /// Memory throughput as a percent of peak DRAM bandwidth.
    pub memory_throughput_pct: f64,
    /// Modeled DRAM throughput actually achieved, bytes/second.
    pub dram_throughput: f64,
    /// Modeled L1 hit rate, percent.
    pub l1_hit_pct: f64,
    /// Modeled L2 hit rate, percent.
    pub l2_hit_pct: f64,
    /// Modeled scheduler cycles per issued instruction.
    pub cycles_per_issue: f64,
    /// Percent of global accesses that were uncoalesced.
    pub uncoalesced_pct: f64,
    /// Total global memory accesses (loads + stores).
    pub accesses: u64,
    /// Total abstract instructions.
    pub instructions: u64,
}

impl KernelProfile {
    /// A zero/empty profile (used for skipped launches).
    pub fn empty(name: impl Into<String>) -> Self {
        KernelProfile {
            name: name.into(),
            threads: 0,
            wall_seconds: 0.0,
            modeled_seconds: 0.0,
            elapsed_cycles: 0,
            occupancy_pct: 0.0,
            compute_throughput_pct: 0.0,
            memory_throughput_pct: 0.0,
            dram_throughput: 0.0,
            l1_hit_pct: 0.0,
            l2_hit_pct: 0.0,
            cycles_per_issue: 0.0,
            uncoalesced_pct: 0.0,
            accesses: 0,
            instructions: 0,
        }
    }

    /// Accumulates another profile into this one (summing latencies and
    /// traffic, max-ing rates where summing is meaningless). Used to roll
    /// per-level launches up into a whole-simulation kernel profile.
    pub fn accumulate(&mut self, other: &KernelProfile) {
        self.threads = self.threads.max(other.threads);
        self.wall_seconds += other.wall_seconds;
        self.modeled_seconds += other.modeled_seconds;
        self.elapsed_cycles += other.elapsed_cycles;
        self.accesses += other.accesses;
        self.instructions += other.instructions;
        // Rates: keep traffic-weighted blend so big levels dominate.
        let w = other.accesses as f64;
        let total = (self.accesses as f64).max(1.0);
        let blend = |a: f64, b: f64| a + (b - a) * (w / total);
        self.occupancy_pct = blend(self.occupancy_pct, other.occupancy_pct);
        self.compute_throughput_pct =
            blend(self.compute_throughput_pct, other.compute_throughput_pct);
        self.memory_throughput_pct = blend(self.memory_throughput_pct, other.memory_throughput_pct);
        self.dram_throughput = blend(self.dram_throughput, other.dram_throughput);
        self.l1_hit_pct = blend(self.l1_hit_pct, other.l1_hit_pct);
        self.l2_hit_pct = blend(self.l2_hit_pct, other.l2_hit_pct);
        self.cycles_per_issue = blend(self.cycles_per_issue, other.cycles_per_issue);
        self.uncoalesced_pct = blend(self.uncoalesced_pct, other.uncoalesced_pct);
    }

    /// Models one launch on `spec`: `cfg` is its geometry, `traffic` its
    /// `(loads, stores, instructions)` — 4-byte global reads and writes
    /// and abstract executed instructions — and `wall_seconds` its measured
    /// host wall. A pure function of its arguments.
    pub fn model(
        spec: &DeviceSpec,
        cfg: &LaunchConfig,
        traffic: (u64, u64, u64),
        wall_seconds: f64,
        name: &str,
    ) -> KernelProfile {
        let (loads, stores, mut instructions) = traffic;
        let accesses = loads + stores;
        if cfg.threads == 0 {
            return KernelProfile::empty(name);
        }

        let occupancy = spec.theoretical_occupancy(cfg.threads_per_block, cfg.regs_per_thread);
        // Achieved occupancy is capped by how many threads exist at all.
        let resident_capacity =
            f64::from(spec.sm_count) * f64::from(spec.max_threads_per_sm) * occupancy;
        let achieved_occ = occupancy * (cfg.threads as f64 / resident_capacity).min(1.0);

        // Register pressure below ~40 regs forces spills: more instructions and
        // poor L1 behaviour (the paper's 32-reg experiment).
        let spill_factor = if cfg.regs_per_thread < 40 { 1.9 } else { 1.0 };
        instructions = (instructions as f64 * spill_factor) as u64;
        let l1_hit = if cfg.regs_per_thread < 40 { 0.66 } else { 0.91 };

        // L2 capacity model: fraction of the working set resident in L2.
        let ws = cfg.working_set_bytes.max(1) as f64;
        let l2_ratio = spec.l2_bytes as f64 / ws;
        let l2_hit = (0.30 + 0.68 * l2_ratio.min(1.0)).clamp(0.05, 0.98);

        // DRAM traffic: every L1-missing access is scattered and moves a full
        // 32-byte sector; L2 hits stay on chip.
        let bytes_per_access = 32.0;
        let l2_traffic = accesses as f64 * (1.0 - l1_hit) * bytes_per_access;
        let dram_traffic = l2_traffic * (1.0 - l2_hit);

        // DRAM bandwidth time.
        let mem_time = dram_traffic / spec.memory_bw;
        // Issue model: each SM issues ~1 instruction/cycle once enough warps are
        // resident; below ~50% occupancy the issue slots cannot be filled.
        let issue_eff = (achieved_occ * 2.0).clamp(0.04, 1.0);
        let issue_rate = f64::from(spec.sm_count) * spec.clock_hz * issue_eff;
        let compute_time = instructions as f64 / issue_rate.max(1.0);
        // Latency exposure: each L2 miss costs ~400 cycles, hidden by the warps
        // in flight per SM (scales with occupancy).
        let miss_latency_cycles = 400.0;
        let misses = dram_traffic / bytes_per_access.max(1.0);
        let hiding = (achieved_occ * 16.0).clamp(1.0, 16.0);
        let latency_time =
            misses * miss_latency_cycles / (spec.clock_hz * f64::from(spec.sm_count) * hiding);

        // Additive composition (overlap pessimism): GATSPI's kernel is a
        // pointer-chasing loop whose memory and compute phases serialize within
        // a thread, so the phases overlap poorly across warps too.
        let modeled = mem_time + compute_time + latency_time + spec.launch_overhead;
        let elapsed_cycles = (modeled * spec.clock_hz) as u64;

        let peak_issue = f64::from(spec.sm_count) * spec.clock_hz;
        let compute_pct = (instructions as f64 / (modeled * peak_issue) * 100.0).min(100.0);
        let mem_pct = (dram_traffic / (modeled * spec.memory_bw) * 100.0).min(100.0);
        let cpi = if instructions > 0 {
            elapsed_cycles as f64 * f64::from(spec.sm_count) / instructions as f64
        } else {
            0.0
        };

        KernelProfile {
            name: name.to_string(),
            threads: cfg.threads,
            wall_seconds,
            modeled_seconds: modeled,
            elapsed_cycles,
            occupancy_pct: achieved_occ * 100.0,
            compute_throughput_pct: compute_pct,
            memory_throughput_pct: mem_pct,
            dram_throughput: dram_traffic / modeled.max(1e-12),
            l1_hit_pct: l1_hit * 100.0,
            l2_hit_pct: l2_hit * 100.0,
            cycles_per_issue: cpi,
            uncoalesced_pct: if accesses > 0 { 100.0 } else { 0.0 },
            accesses,
            instructions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg(threads: usize, ws: u64) -> LaunchConfig {
        LaunchConfig {
            threads,
            threads_per_block: 512,
            regs_per_thread: 64,
            working_set_bytes: ws,
        }
    }

    #[test]
    fn bigger_working_set_lowers_l2_and_raises_latency() {
        let v = DeviceSpec::v100();
        let traffic = (1_000_000, 200_000, 5_000_000);
        let small = KernelProfile::model(&v, &base_cfg(100_000, 1 << 20), traffic, 0.0, "k");
        let large = KernelProfile::model(&v, &base_cfg(100_000, 1 << 30), traffic, 0.0, "k");
        assert!(large.l2_hit_pct < small.l2_hit_pct);
        assert!(large.modeled_seconds > small.modeled_seconds);
    }

    #[test]
    fn fewer_registers_spill() {
        let v = DeviceSpec::v100();
        let traffic = (1_000_000, 200_000, 5_000_000);
        let r64 = KernelProfile::model(&v, &base_cfg(4_000_000, 1 << 28), traffic, 0.0, "k");
        let mut cfg32 = base_cfg(4_000_000, 1 << 28);
        cfg32.regs_per_thread = 32;
        let r32 = KernelProfile::model(&v, &cfg32, traffic, 0.0, "k");
        // Spilling: occupancy doubles but L1 craters and latency worsens.
        assert!(r32.occupancy_pct > r64.occupancy_pct);
        assert!(r32.l1_hit_pct < r64.l1_hit_pct);
        assert!(r32.modeled_seconds > r64.modeled_seconds);
    }

    #[test]
    fn faster_device_is_faster() {
        let traffic = (10_000_000, 2_000_000, 50_000_000);
        let cfg = base_cfg(4_000_000, 1 << 30);
        let t4 = KernelProfile::model(&DeviceSpec::t4(), &cfg, traffic, 0.0, "k");
        let v100 = KernelProfile::model(&DeviceSpec::v100(), &cfg, traffic, 0.0, "k");
        let a100 = KernelProfile::model(&DeviceSpec::a100(), &cfg, traffic, 0.0, "k");
        assert!(t4.modeled_seconds > v100.modeled_seconds);
        assert!(v100.modeled_seconds > a100.modeled_seconds);
    }

    #[test]
    fn empty_launch() {
        let p = KernelProfile::model(
            &DeviceSpec::v100(),
            &base_cfg(0, 0),
            (0, 0, 0),
            0.0,
            "empty",
        );
        assert_eq!(p.threads, 0);
        assert_eq!(p.modeled_seconds, 0.0);
    }

    #[test]
    fn accumulate_sums_latency() {
        let v = DeviceSpec::v100();
        let traffic = (1_000_000, 200_000, 5_000_000);
        let p1 = KernelProfile::model(&v, &base_cfg(100_000, 1 << 24), traffic, 0.1, "k");
        let mut total = KernelProfile::empty("sum");
        total.accumulate(&p1);
        total.accumulate(&p1);
        assert!((total.modeled_seconds - 2.0 * p1.modeled_seconds).abs() < 1e-12);
        assert!((total.wall_seconds - 0.2).abs() < 1e-12);
        assert_eq!(total.accesses, 2 * p1.accesses);
    }
}
