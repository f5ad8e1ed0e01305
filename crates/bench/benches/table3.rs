//! Table 3: GATSPI vs its "OpenMP-equivalent" CPU implementation — the
//! identical level schedule executed by plain host threads.

use gatspi_bench::{
    cpu_device, gatspi_config, print_table, run_gatspi, run_gatspi_on, secs, speedup,
};
use gatspi_workloads::suite::representative_suite;

fn main() {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut rows = Vec::new();
    for def in representative_suite() {
        let b = def.build();
        let cfg = gatspi_config(&b);
        let g = run_gatspi(&b, cfg.clone());
        // The paper uses 32/40/64 CPUs; cap at this host's cores.
        let threads = host.clamp(2, 32);
        let cpu = run_gatspi_on(&b, cfg.clone(), vec![cpu_device(&cfg, threads)]);
        rows.push(vec![
            b.label(),
            format!(
                "{} ({})",
                secs(g.kernel_profile.modeled_seconds),
                speedup(
                    cpu.kernel_profile.wall_seconds / g.kernel_profile.modeled_seconds.max(1e-12)
                )
            ),
            secs(cpu.kernel_profile.wall_seconds),
            threads.to_string(),
        ]);
    }
    print_table(
        "Table 3: GATSPI (modeled V100 kernel) vs OpenMP-equivalent CPU kernel (measured)",
        &[
            "Design(Testbench)",
            "GATSPI Kernel (speedup)",
            "CPU Kernel(s)",
            "# CPUs Used",
        ],
        &rows,
    );
}
