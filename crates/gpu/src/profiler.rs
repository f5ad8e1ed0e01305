use std::fmt;

/// Application-phase breakdown in the style of the paper's Table 5 Nsight
/// profile: host→device transfer, stream-synchronize + kernel-launch
/// overhead, and kernel execution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AppPhaseProfile {
    /// Seconds spent copying stimulus/graph data host→device (modeled from
    /// bytes over PCIe bandwidth).
    pub h2d_seconds: f64,
    /// Seconds spent reading waveforms back device→host (modeled from
    /// bytes over PCIe bandwidth) — the cost of waveform spill and
    /// streaming sinks.
    pub readback_seconds: f64,
    /// Seconds of stream synchronisation + kernel launch overhead (modeled
    /// as launches × per-launch cost).
    pub sync_launch_seconds: f64,
    /// Seconds of kernel execution (modeled GPU time).
    pub kernel_seconds: f64,
    /// Host-side preprocessing (waveform restructuring for cycle
    /// parallelism), measured.
    pub restructure_seconds: f64,
    /// Always `0.0`: there is no asynchronous SAIF dump stage to wait for —
    /// the storing kernel threads scan their own windows and the level
    /// publish folds the records. Kept so existing readers of the field
    /// keep compiling.
    pub dump_seconds: f64,
    /// Always `0.0`, for the same reason as
    /// [`AppPhaseProfile::dump_seconds`]: nothing can stall on a SAIF dump.
    /// Excluded from [`AppPhaseProfile::total_seconds`].
    pub dump_stall_seconds: f64,
    /// Measured host seconds spent draining finished segments to the
    /// waveform sinks (spill/streaming readback + sink dispatch). The
    /// *modeled* transfer cost of the same bytes is already
    /// [`AppPhaseProfile::readback_seconds`], so this measured wall time is
    /// reported for visibility and excluded from
    /// [`AppPhaseProfile::total_seconds`].
    pub drain_seconds: f64,
    /// Device→host readback batches the spill drain issued: one transfer
    /// per level region of each segment, so this counts the actual D2H
    /// ranges, not the (window, signal) waveforms moved.
    pub d2h_batches: u64,
    /// Number of kernel launches issued.
    pub launches: u64,
    /// How many of those launches were fused multi-level phased launches
    /// (each replaces one launch per covered level).
    pub fused_launches: u64,
    /// Bytes moved host→device.
    pub h2d_bytes: u64,
    /// Bytes read back device→host (waveform spill / streaming sinks).
    pub d2h_bytes: u64,
    /// Fraction of speculative store threads whose reservation fit the
    /// true output (`0.0` when the run had no store threads). A hit is
    /// the thread's only kernel invocation; a miss costs count + store.
    pub speculative_hit_rate: f64,
    /// Speculative threads that overflowed their reservation and were
    /// re-run as an exact store by a repair pass (the overflowed
    /// speculative pass already counted).
    pub overflow_repairs: u64,
    /// Arena words reserved by speculative budgets beyond what the stored
    /// waveforms actually needed (the prediction slack paid for storing
    /// in one pass).
    pub predicted_waste_words: u64,
    /// Device faults observed during the run (injected or real): every
    /// transient fault that triggered a retry plus every fault that killed
    /// a device or exhausted its retries. `0` on a fault-free run.
    pub faults_injected: u64,
    /// Segment executions re-attempted after a transient device fault.
    pub segment_retries: u64,
    /// Window shards redistributed from a permanently-failed device to the
    /// surviving devices of a multi-GPU run (degraded mode).
    pub failovers: u64,
    /// Seconds slept in retry backoff (`RetryPolicy` exponential delays).
    /// Real idle time, but fault-recovery overhead rather than an
    /// application phase — reported for visibility and excluded from
    /// [`AppPhaseProfile::total_seconds`].
    pub backoff_seconds: f64,
    /// Segment re-executions forced by arena exhaustion: each out-of-memory
    /// segment is split in half and retried (the pre-existing OOM halving
    /// path, now surfaced).
    pub oom_retries: u64,
}

impl AppPhaseProfile {
    /// Total modeled application seconds (sum of all phases).
    pub fn total_seconds(&self) -> f64 {
        self.h2d_seconds
            + self.readback_seconds
            + self.sync_launch_seconds
            + self.kernel_seconds
            + self.restructure_seconds
            + self.dump_seconds
    }
}

impl fmt::Display for AppPhaseProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "h2d {:.3}s | readback {:.3}s | sync+launch {:.3}s | kernel {:.3}s | restructure {:.3}s | dump {:.3}s | dump-stall {:.3}s | drain {:.3}s/{} batches | spec-hit {:.1}% | repairs {} | waste {}w | faults {} | retries {} | failovers {} | backoff {:.3}s | oom-retries {}",
            self.h2d_seconds,
            self.readback_seconds,
            self.sync_launch_seconds,
            self.kernel_seconds,
            self.restructure_seconds,
            self.dump_seconds,
            self.dump_stall_seconds,
            self.drain_seconds,
            self.d2h_batches,
            self.speculative_hit_rate * 100.0,
            self.overflow_repairs,
            self.predicted_waste_words,
            self.faults_injected,
            self.segment_retries,
            self.failovers,
            self.backoff_seconds,
            self.oom_retries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_phases() {
        let p = AppPhaseProfile {
            h2d_seconds: 1.0,
            readback_seconds: 0.5,
            sync_launch_seconds: 2.0,
            kernel_seconds: 3.0,
            restructure_seconds: 0.5,
            dump_seconds: 0.25,
            dump_stall_seconds: 0.125,
            drain_seconds: 0.0625,
            d2h_batches: 3,
            launches: 10,
            fused_launches: 2,
            h2d_bytes: 100,
            d2h_bytes: 40,
            speculative_hit_rate: 0.975,
            overflow_repairs: 4,
            predicted_waste_words: 128,
            faults_injected: 2,
            segment_retries: 2,
            failovers: 1,
            backoff_seconds: 0.003,
            oom_retries: 1,
        };
        // Stall, measured-drain, and backoff time overlap/duplicate other
        // phases or are recovery overhead: reported, not summed.
        // Speculation and fault telemetry are counters, not time.
        assert!((p.total_seconds() - 7.25).abs() < 1e-12);
        let s = p.to_string();
        assert!(s.contains("kernel 3.000s"));
        assert!(s.contains("readback 0.500s"));
        assert!(s.contains("dump-stall 0.125s"));
        assert!(s.contains("drain 0.062s/3 batches"));
        assert!(s.contains("spec-hit 97.5%"));
        assert!(s.contains("repairs 4"));
        assert!(s.contains("waste 128w"));
        assert!(s.contains("faults 2"));
        assert!(s.contains("retries 2"));
        assert!(s.contains("failovers 1"));
        assert!(s.contains("backoff 0.003s"));
        assert!(s.contains("oom-retries 1"));
    }
}
