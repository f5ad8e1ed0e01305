//! `gatspi` — command-line driver for the re-simulation flow (Fig. 2):
//!
//! ```sh
//! gatspi sim --netlist design.gv --sdf design.sdf --vcd testbench.vcd \
//!            --duration 100000 --saif out.saif [--cycle 1200] [--gpus 2] \
//!            [--device v100|a100|t4] [--verify] [--out-vcd waves.vcd]
//! gatspi info --netlist design.gv [--sdf design.sdf]
//! ```

use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;
use std::sync::Arc;

use gatspi_core::{RunOptions, Session, SimConfig};
use gatspi_gpu::{DeviceSpec, MultiGpu};
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_netlist::{verilog, CellLibrary};
use gatspi_refsim::{EventSimulator, RefConfig};
use gatspi_sdf::SdfFile;
use gatspi_wave::{vcd, Waveform};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gatspi: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_default();
    let mut opts: HashMap<String, String> = HashMap::new();
    let mut key: Option<String> = None;
    for a in args {
        if let Some(k) = a.strip_prefix("--") {
            if let Some(prev) = key.take() {
                opts.insert(prev, String::from("true")); // boolean flag
            }
            key = Some(k.to_string());
        } else if let Some(k) = key.take() {
            opts.insert(k, a);
        } else {
            return Err(format!("unexpected argument `{a}`").into());
        }
    }
    if let Some(prev) = key.take() {
        opts.insert(prev, String::from("true"));
    }

    match cmd.as_str() {
        "sim" => sim(&opts),
        "info" => info(&opts),
        _ => {
            eprintln!(
                "usage:\n  gatspi sim  --netlist F.gv --sdf F.sdf --vcd TB.vcd --duration N \\\n              --saif OUT.saif [--cycle N] [--gpus N] [--device v100|a100|t4] \\\n              [--verify] [--out-vcd F.vcd]\n  gatspi info --netlist F.gv [--sdf F.sdf]"
            );
            Err("unknown subcommand".into())
        }
    }
}

fn required<'a>(opts: &'a HashMap<String, String>, k: &str) -> Result<&'a str, String> {
    opts.get(k)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required option --{k}"))
}

fn load_graph(
    opts: &HashMap<String, String>,
) -> Result<Arc<CircuitGraph>, Box<dyn std::error::Error>> {
    let gv = fs::read_to_string(required(opts, "netlist")?)?;
    let netlist = verilog::parse(&gv, CellLibrary::industry_mini())?;
    let sdf = match opts.get("sdf") {
        Some(path) => Some(SdfFile::parse(&fs::read_to_string(path)?)?),
        None => None,
    };
    Ok(Arc::new(CircuitGraph::build(
        &netlist,
        sdf.as_ref(),
        &GraphOptions::default(),
    )?))
}

fn info(opts: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    let graph = load_graph(opts)?;
    let stats = graph.level_stats();
    println!("design:          {}", graph.name());
    println!("gates:           {}", graph.n_gates());
    println!("signals:         {}", graph.n_signals());
    println!("primary inputs:  {}", graph.primary_inputs().len());
    println!("primary outputs: {}", graph.primary_outputs().len());
    println!("logic levels:    {}", stats.n_levels());
    println!("widest level:    {} gates", stats.max_width());
    println!("device bytes:    {}", graph.device_bytes());
    Ok(())
}

fn sim(opts: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    let graph = load_graph(opts)?;
    let duration: i32 = required(opts, "duration")?.parse()?;
    let tb = vcd::parse(&fs::read_to_string(required(opts, "vcd")?)?)?;
    let stimuli: Vec<Waveform> = graph
        .primary_inputs()
        .iter()
        .map(|&s| {
            tb.signals
                .get(graph.signal_name(s))
                .cloned()
                .ok_or_else(|| format!("vcd misses input `{}`", graph.signal_name(s)))
        })
        .collect::<Result<_, _>>()?;

    let device = match opts.get("device").map(String::as_str) {
        None | Some("v100") => DeviceSpec::v100(),
        Some("a100") => DeviceSpec::a100(),
        Some("t4") => DeviceSpec::t4(),
        Some(other) => return Err(format!("unknown device `{other}`").into()),
    };
    let cycle: i32 = opts
        .get("cycle")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(1);
    let cfg = SimConfig::default()
        .with_device(device.clone())
        .with_window_align(cycle);

    let gpus: usize = opts
        .get("gpus")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(1);
    // One session on the fleet; one GPU is the fleet of one.
    let fleet = MultiGpu::new(device, gpus.max(1), cfg.memory_words);
    let sim = Session::with_devices(Arc::clone(&graph), cfg, fleet.devices().to_vec());
    // Spill waveforms to host when a VCD dump was requested, so the dump
    // also works if the run segments or spreads across devices.
    let mut run_opts = RunOptions::default();
    if opts.contains_key("out-vcd") {
        run_opts = run_opts.with_waveform_spill();
    }
    let result = sim.run_with(&stimuli, duration, &run_opts)?;

    eprintln!(
        "simulated {} gates over {} ticks: {} toggles, kernel {:.3} ms measured / {:.3} ms modeled-{}",
        graph.n_gates(),
        duration,
        result.total_toggles(),
        result.kernel_profile.wall_seconds * 1e3,
        result.kernel_profile.modeled_seconds * 1e3,
        sim.config().device.name,
    );

    if opts.contains_key("verify") {
        let r = EventSimulator::new(
            &graph,
            RefConfig {
                record_waveforms: false,
                ..RefConfig::default()
            },
        )
        .run(&stimuli, duration)?;
        let diffs = result.saif.diff(&r.saif);
        if diffs.is_empty() {
            eprintln!("verify: SAIF matches the event-driven reference bit-exactly");
        } else {
            return Err(
                format!("verify FAILED: {} diffs, first: {}", diffs.len(), diffs[0]).into(),
            );
        }
    }

    fs::write(required(opts, "saif")?, result.saif.write())?;
    eprintln!("wrote {}", required(opts, "saif")?);

    if let Some(out_vcd) = opts.get("out-vcd") {
        let names: Vec<String> = graph
            .primary_outputs()
            .iter()
            .map(|&s| graph.signal_name(s).to_string())
            .collect();
        let waves: Vec<Waveform> = graph
            .primary_outputs()
            .iter()
            .map(|&s| result.waveform(s.index()))
            .collect::<gatspi_core::Result<_>>()?;
        fs::write(
            out_vcd,
            vcd::write(
                graph.name(),
                names.iter().map(String::as_str).zip(waves.iter()),
            ),
        )?;
        eprintln!("wrote {out_vcd}");
    }
    Ok(())
}
