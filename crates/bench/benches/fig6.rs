//! Figure 6: re-simulation kernel runtime across hardware platforms for
//! Design B's concatenated testbenches — 1 CPU, multi-thread CPU, and
//! 1/4/8 simulated GPUs (cycle-parallel workload distribution).

use gatspi_bench::{
    cpu_device, gatspi_config, print_table, run_baseline, run_gatspi, run_gatspi_on, secs, speedup,
};
use gatspi_gpu::{DeviceSpec, MultiGpu};
use gatspi_workloads::suite::design_b_concatenated;

fn main() {
    let b = design_b_concatenated().build();
    let base = run_baseline(&b);
    let t1 = base.kernel_seconds;
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    let mut rows = Vec::new();
    rows.push(vec![
        "1 CPU (baseline)".into(),
        secs(t1),
        "1.0X".into(),
        "measured".into(),
    ]);

    let cfg = gatspi_config(&b);
    let cpu = run_gatspi_on(&b, cfg.clone(), vec![cpu_device(&cfg, host.min(16))]);
    rows.push(vec![
        format!("{} CPU OpenMP-equivalent", host.min(16)),
        secs(cpu.kernel_profile.wall_seconds),
        speedup(t1 / cpu.kernel_profile.wall_seconds.max(1e-12)),
        "measured".into(),
    ]);

    for (label, spec, n) in [
        ("1 V100", DeviceSpec::v100(), 1usize),
        ("1 A100", DeviceSpec::a100(), 1),
        ("4 A100", DeviceSpec::a100(), 4),
        ("8 V100", DeviceSpec::v100(), 8),
    ] {
        let cfg = gatspi_config(&b).with_device(spec.clone());
        let t = if n == 1 {
            run_gatspi(&b, cfg).kernel_profile.modeled_seconds
        } else {
            let gpus = MultiGpu::new(spec, n, 16 << 20);
            run_gatspi_on(&b, cfg, gpus.devices().to_vec())
                .kernel_profile
                .modeled_seconds
        };
        rows.push(vec![
            label.into(),
            secs(t),
            speedup(t1 / t.max(1e-12)),
            "modeled".into(),
        ]);
    }
    print_table(
        "Fig. 6: Design B concatenated testbenches — kernel runtime across platforms",
        &["Platform", "Kernel Runtime", "Speedup vs 1 CPU", "Basis"],
        &rows,
    );
    // Log-scale bar sketch, like the figure.
    println!();
    let max = rows
        .iter()
        .map(|r| parse_secs(&r[1]))
        .fold(f64::MIN, f64::max);
    for r in &rows {
        let v = parse_secs(&r[1]);
        let bar = ((v.ln() - (max / 1e6).ln()) / (max.ln() - (max / 1e6).ln()) * 60.0)
            .clamp(1.0, 60.0) as usize;
        println!("{:28} {}", r[0], "#".repeat(bar));
    }
}

fn parse_secs(s: &str) -> f64 {
    if let Some(ms) = s.strip_suffix("ms") {
        ms.parse::<f64>().unwrap_or(0.0) * 1e-3
    } else if let Some(us) = s.strip_suffix("us") {
        us.parse::<f64>().unwrap_or(0.0) * 1e-6
    } else {
        s.parse::<f64>().unwrap_or(0.0)
    }
}
