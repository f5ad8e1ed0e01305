//! The one place that reads `AppPhaseProfile`, `KernelProfile` and
//! `PlanCacheStats` fields. Only the traced pass calls it, so the change
//! that replaces those structs with a run trace swaps this function and
//! nothing else in the benchmark.

use gatspi_core::{PlanCacheStats, SimResult};

use crate::measure::Probe;

/// Folds one engine run into the current traced iteration: measured host
/// walls, exact counts, and — kept apart under `gpu.*` — modeled GPU
/// seconds. `before`/`after` are the session's cumulative plan-cache
/// counters around the run.
pub fn read_engine(
    r: &SimResult,
    before: PlanCacheStats,
    after: PlanCacheStats,
    probe: &mut Probe,
) {
    let app = &r.app_profile;
    probe.wall("core.kernel_wall", r.kernel_profile.wall_seconds);
    probe.wall("core.restructure", app.restructure_seconds);
    probe.wall("core.dump", app.dump_seconds);
    probe.wall("core.dump_stall", app.dump_stall_seconds);
    probe.wall("core.drain", app.drain_seconds);

    probe.count("core.segments", r.segments() as f64);
    probe.count("core.launches", app.launches as f64);
    probe.count("core.fused_launches", app.fused_launches as f64);
    probe.count("core.h2d_bytes", app.h2d_bytes as f64);
    probe.count("core.d2h_bytes", app.d2h_bytes as f64);
    probe.count("core.d2h_batches", app.d2h_batches as f64);
    // A rate does not add up over the runs of an iteration: the first
    // (full) run's stands.
    probe.count_once("core.spec_hit_rate", app.speculative_hit_rate);
    probe.count("core.overflow_repairs", app.overflow_repairs as f64);
    probe.count("core.spec_waste_words", app.predicted_waste_words as f64);
    probe.count("core.oom_retries", app.oom_retries as f64);
    probe.count("core.segment_retries", app.segment_retries as f64);
    probe.count("core.plan_cache_hits", (after.hits - before.hits) as f64);
    probe.count(
        "core.plan_cache_misses",
        (after.misses - before.misses) as f64,
    );
    probe.count(
        "core.cone_plan_hits",
        (after.cone_hits - before.cone_hits) as f64,
    );
    probe.count(
        "core.cone_plan_misses",
        (after.cone_misses - before.cone_misses) as f64,
    );

    probe.count("gpu.modeled_kernel_s", app.kernel_seconds);
    probe.count("gpu.modeled_h2d_s", app.h2d_seconds);
    probe.count("gpu.modeled_readback_s", app.readback_seconds);
    probe.count("gpu.modeled_sync_launch_s", app.sync_launch_seconds);
}
