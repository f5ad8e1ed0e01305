//! Multi-GPU scaling on a high-activity scan workload (the Fig. 6
//! experiment shape): cycle parallelism is distributed across 1, 2 and 4
//! simulated devices and the kernel times follow `t = t1/n + ovr`.
//!
//! ```sh
//! cargo run --release --example multi_gpu_scan
//! ```

use std::sync::Arc;

use gatspi_core::{Session, SimConfig};
use gatspi_gpu::{DeviceSpec, MultiGpu};
use gatspi_workloads::suite::table2_suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // NVDLA_m(large) scan: high activity, long enough to amortize launches.
    let bench = table2_suite()[3].build();
    println!(
        "workload: {} — {} gates, {} cycles",
        bench.label(),
        bench.graph.n_gates(),
        bench.cycles
    );

    let cfg = SimConfig::default().with_window_align(bench.cycle_time);
    let mut t1 = None;
    let mut single_saif = None;
    for n in [1usize, 2, 4] {
        // One session per fleet; one GPU is the fleet of one. A device whose
        // share of windows overflows its arena splits it into segments.
        let gpus = MultiGpu::new(DeviceSpec::v100(), n, 8 << 20);
        let sim = Session::with_devices(
            Arc::clone(&bench.graph),
            cfg.clone(),
            gpus.devices().to_vec(),
        );
        let r = sim.run(&bench.stimuli, bench.duration)?;
        let tn = r.kernel_profile.modeled_seconds;
        let t1 = *t1.get_or_insert(tn);
        let stats = sim.plan_cache_stats();
        println!(
            "{n} GPU(s): kernel {:.3} ms (modeled V100), scaling {:.2}x, predicted t1/n+ovr = {:.3} ms, {} segment(s), {} plan build(s)",
            tn * 1e3,
            t1 / tn,
            gpus.predicted_scaling(t1, r.app_profile.launches) * 1e3,
            r.segments(),
            stats.misses,
        );
        // Results stay exact regardless of distribution.
        let single = single_saif.get_or_insert_with(|| r.saif.clone());
        assert!(single.diff(&r.saif).is_empty(), "SAIF changed at {n} GPUs");
    }
    println!("SAIF identical across all distributions");
    Ok(())
}
