//! Metric names, units, directions and bounds, and the reduction of one
//! run's measurements to them. `BENCHMARK.json` at the repository root
//! lists the same names; a test keeps the two in step.

use crate::json::Json;
use crate::measure::{peak_rss_mb, Measured};
use crate::stats;
use crate::trace::{layer_seconds, unattributed_pct, Span};
use crate::{RunConfig, Workload};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. `failed_share` is not among them because the
/// result line carries `failed` and `attempted` themselves; `compare`
/// treats any increase as a regression.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "turnaround_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "toggles_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "speedup_vs_refsim",
        unit: "x",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Median seconds per iteration in the span named like the metric
    /// without its `_s`.
    Span,
    /// Median per traced iteration of a wall the engine (or the sink
    /// wrapper) measured itself, same naming.
    Wall,
    /// Exact count of the first traced iteration.
    Count,
    /// Size or simulated statistic fixed by the inputs.
    Fact,
    /// Worked out from the others in [`derived`].
    Derived,
}

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `layer.what`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction (exact statistics have none; they are listed as lower).
    pub better: Better,
    source: Source,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

const fn seconds(name: &'static str, source: Source) -> PerLayer {
    layer(name, "s", Better::Lower, source)
}

const fn count(name: &'static str, source: Source) -> PerLayer {
    layer(name, "count", Better::Lower, source)
}

/// The per-layer metrics, layer by layer (the layers are the crates).
pub const PER_LAYER: [PerLayer; 65] = [
    seconds("workloads.generate_s", Source::Span),
    seconds("workloads.serialize_s", Source::Span),
    seconds("netlist.parse_s", Source::Span),
    layer("netlist.gv_bytes", "B", Better::Lower, Source::Fact),
    seconds("sdf.parse_s", Source::Span),
    layer("sdf.bytes", "B", Better::Lower, Source::Fact),
    seconds("wave.vcd_parse_s", Source::Span),
    layer("wave.vcd_in_bytes", "B", Better::Lower, Source::Fact),
    seconds("wave.saif_write_s", Source::Span),
    layer("wave.saif_bytes", "B", Better::Lower, Source::Fact),
    layer("wave.vcd_out_bytes", "B", Better::Lower, Source::Fact),
    seconds("graph.build_s", Source::Span),
    count("graph.gates", Source::Fact),
    count("graph.levels", Source::Fact),
    seconds("core.session_new_s", Source::Span),
    seconds("core.run_s", Source::Span),
    seconds("core.kernel_wall_s", Source::Wall),
    seconds("core.restructure_s", Source::Wall),
    seconds("core.dump_s", Source::Wall),
    seconds("core.dump_stall_s", Source::Wall),
    seconds("core.run_other_s", Source::Derived),
    seconds("core.first_run_extra_s", Source::Derived),
    seconds("core.drain_s", Source::Wall),
    seconds("core.sink_s", Source::Wall),
    seconds("core.run_incremental_s", Source::Span),
    seconds("core.waveform_extract_s", Source::Span),
    seconds("core.drop_s", Source::Span),
    count("core.segments", Source::Count),
    count("core.launches", Source::Count),
    count("core.fused_launches", Source::Count),
    layer("core.h2d_bytes", "B", Better::Lower, Source::Count),
    layer("core.d2h_bytes", "B", Better::Lower, Source::Count),
    count("core.d2h_batches", Source::Count),
    layer("core.spec_hit_rate", "ratio", Better::Higher, Source::Count),
    count("core.overflow_repairs", Source::Count),
    layer(
        "core.spec_waste_words",
        "words",
        Better::Lower,
        Source::Count,
    ),
    count("core.oom_retries", Source::Count),
    count("core.segment_retries", Source::Count),
    layer(
        "core.plan_cache_hits",
        "count",
        Better::Higher,
        Source::Count,
    ),
    count("core.plan_cache_misses", Source::Count),
    layer(
        "core.cone_plan_hits",
        "count",
        Better::Higher,
        Source::Count,
    ),
    count("core.cone_plan_misses", Source::Count),
    layer(
        "gpu.modeled_kernel_s",
        "s_modeled",
        Better::Lower,
        Source::Count,
    ),
    layer(
        "gpu.modeled_h2d_s",
        "s_modeled",
        Better::Lower,
        Source::Count,
    ),
    layer(
        "gpu.modeled_readback_s",
        "s_modeled",
        Better::Lower,
        Source::Count,
    ),
    layer(
        "gpu.modeled_sync_launch_s",
        "s_modeled",
        Better::Lower,
        Source::Count,
    ),
    seconds("power.flow_resim_s", Source::Wall),
    seconds("power.classify_s", Source::Span),
    seconds("power.sta_s", Source::Span),
    seconds("power.estimate_s", Source::Span),
    seconds("power.fix_search_s", Source::Derived),
    seconds("refsim.run_s", Source::Span),
    count("sim.total_toggles", Source::Fact),
    layer("sim.saif_digest", "hash48", Better::Lower, Source::Fact),
    layer("sim.vcd_digest", "hash48", Better::Lower, Source::Fact),
    count("sim.glitch_toggles_before", Source::Fact),
    count("sim.glitch_toggles_after", Source::Fact),
    count("sim.fixed_gates", Source::Fact),
    layer("sim.saving_pct", "%", Better::Higher, Source::Fact),
    count("loop.samples", Source::Derived),
    seconds("loop.turnaround_tail_s", Source::Derived),
    layer("loop.tail_pct", "%", Better::Lower, Source::Derived),
    seconds("loop.turnaround_min_s", Source::Derived),
    layer(
        "trace.unattributed_pct",
        "%",
        Better::Lower,
        Source::Derived,
    ),
    layer("trace.overhead_pct", "%", Better::Lower, Source::Derived),
];

/// Whether a per-layer metric must repeat exactly for a seed: simulated
/// statistics, modeled GPU seconds, input sizes and the engine's counts.
pub fn is_exact(metric: &PerLayer) -> bool {
    matches!(metric.source, Source::Count | Source::Fact)
}

/// A reported value with the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The metric's value.
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
    /// First quartile of those samples.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Best sample: the smallest wall, or the rate at the smallest wall.
    pub best: f64,
}

impl Stat {
    fn single(value: f64) -> Stat {
        Stat {
            value,
            n: 1,
            q1: value,
            q3: value,
            best: value,
        }
    }

    fn median_of(samples: &[f64]) -> Stat {
        let (q1, q3) = stats::quartiles(samples);
        Stat {
            value: stats::median(samples),
            n: samples.len(),
            q1,
            q3,
            best: stats::min(samples),
        }
    }
}

/// One run reduced to metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The run's configuration.
    pub workload: Workload,
    /// Seed it ran with.
    pub seed: u64,
    /// Whether it was the traced pass.
    pub traced: bool,
    /// Iterations attempted.
    pub attempted: usize,
    /// Iterations that failed or missed the oracle.
    pub failed: usize,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<(&'static str, Stat)>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<(&'static str, f64)>,
    /// How many of each kind of sample the run took.
    pub counts: Vec<(&'static str, usize)>,
}

impl Outcome {
    /// Every iteration matched the oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The end-to-end metrics as `{name: {value, unit}}`, with the samples
    /// behind each value on request.
    fn end_to_end_json(&self, with_samples: bool) -> Json {
        let mut out = Json::obj();
        for (def, (_, s)) in END_TO_END.iter().zip(&self.end_to_end) {
            let mut metric = Json::obj().with("value", s.value).with("unit", def.unit);
            if with_samples {
                metric = metric
                    .with("n", s.n)
                    .with("q1", s.q1)
                    .with("q3", s.q3)
                    .with("best", s.best);
            }
            out = out.with(def.name, metric);
        }
        out
    }

    /// The per-layer metrics as `{name: {value, unit}}`.
    fn per_layer_json(&self) -> Json {
        let mut out = Json::obj();
        for (def, (_, value)) in PER_LAYER.iter().zip(&self.per_layer) {
            let metric = Json::obj().with("value", *value).with("unit", def.unit);
            out = out.with(def.name, metric);
        }
        out
    }

    /// The result line the acceptance driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics` — the end-to-end metrics of an
    /// untraced run, the per-layer metrics of a traced one.
    pub fn result_line(&self) -> Json {
        let metrics = if self.traced {
            self.per_layer_json()
        } else {
            self.end_to_end_json(false)
        };
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }

    /// Everything `all` keeps of a run: the result line's content plus the
    /// sample counts and quartiles behind each timing.
    pub fn detail(&self) -> Json {
        let mut counts = Json::obj();
        for &(name, n) in &self.counts {
            counts = counts.with(name, n);
        }
        Json::obj()
            .with("workload", self.workload.name())
            .with("seed", self.seed)
            .with("traced", self.traced)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("samples", counts)
            .with("end_to_end", self.end_to_end_json(true))
            .with("per_layer", self.per_layer_json())
    }

    /// The table a person reads.
    pub fn print(&self) {
        println!(
            "{} seed {}{}: {} iterations, {} failed",
            self.workload.name(),
            self.seed,
            if self.traced { " (traced)" } else { "" },
            self.attempted,
            self.failed
        );
        for &(name, n) in &self.counts {
            println!("  samples.{name:<28} {n}");
        }
        for (def, (_, s)) in END_TO_END.iter().zip(&self.end_to_end) {
            println!(
                "  {:<36} {:>16.6} {:<6} n={} q1={:.6} q3={:.6} best={:.6}",
                def.name, s.value, def.unit, s.n, s.q1, s.q3, s.best
            );
        }
        for (def, (_, value)) in PER_LAYER.iter().zip(&self.per_layer) {
            println!("  {:<36} {:>16.6} {}", def.name, value, def.unit);
        }
    }
}

/// Values worked out from other measurements.
fn derived(name: &str, m: &Measured, spans: &[Span], get: &dyn Fn(&str) -> f64) -> f64 {
    match name {
        // What the run calls spent outside the four phases the engine
        // times itself.
        "core.run_other_s" => {
            get("core.run_s") + get("core.run_incremental_s")
                - get("core.kernel_wall_s")
                - get("core.restructure_s")
                - get("core.dump_s")
                - get("core.drain_s")
        }
        "core.first_run_extra_s" => stats::median(&m.first_run_extra_s),
        // `apply_slowdown_fixes` is private, so the fix search is what is
        // left of the flow once every step the re-enactment timed is
        // taken out — a remainder, not a span.
        "power.fix_search_s" if get("power.flow_resim_s") > 0.0 => {
            let flows: Vec<f64> = m
                .turnaround_s
                .iter()
                .chain(&m.traced_turnaround_s)
                .copied()
                .collect();
            stats::median(&flows)
                - get("graph.build_s")
                - get("power.flow_resim_s")
                - get("core.waveform_extract_s")
                - get("power.classify_s")
                - get("power.estimate_s")
        }
        "power.fix_search_s" => 0.0,
        "loop.samples" => m.turnaround_s.len() as f64,
        "loop.turnaround_tail_s" => stats::tail(&m.turnaround_s).1,
        "loop.tail_pct" => stats::tail(&m.turnaround_s).0,
        "loop.turnaround_min_s" => stats::min(&m.turnaround_s),
        "trace.unattributed_pct" => unattributed_pct(spans),
        "trace.overhead_pct" => {
            100.0 * (stats::median(&m.traced_turnaround_s) / stats::median(&m.turnaround_s) - 1.0)
        }
        other => unreachable!("no rule for derived metric {other}"),
    }
}

fn per_layer(m: &Measured, spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut values: Vec<(&'static str, f64)> = Vec::with_capacity(PER_LAYER.len());
    // Derived metrics come after their inputs in the table, except
    // `run_other`, so two passes: measured first, derived second.
    for def in &PER_LAYER {
        let stem = def.name.strip_suffix("_s").unwrap_or(def.name);
        let value = match def.source {
            Source::Span => layer_seconds(spans, stem),
            Source::Wall => m.probe.walls.get(stem).map_or(0.0, |w| stats::median(w)),
            Source::Count => m.probe.counts.get(def.name).copied().unwrap_or(0.0),
            Source::Fact => m.facts.get(def.name).copied().unwrap_or(0.0),
            Source::Derived => f64::NAN,
        };
        values.push((def.name, value));
    }
    for i in 0..values.len() {
        if PER_LAYER[i].source == Source::Derived {
            let get = |name: &str| {
                values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v)
            };
            let v = derived(PER_LAYER[i].name, m, spans, &get);
            values[i].1 = if v.is_finite() { v } else { 0.0 };
        }
    }
    values
}

/// Reduces a run's measurements to its metrics.
pub fn outcome(cfg: &RunConfig, m: &Measured, spans: &[Span]) -> Outcome {
    let turnaround = Stat::median_of(&m.turnaround_s);
    let toggles = m.facts.get("sim.total_toggles").copied().unwrap_or(0.0);
    let baseline_min = stats::min(&m.baseline_step_s);
    let (engine_q1, engine_q3) = stats::quartiles(&m.engine_step_s);
    let speedup = baseline_min / stats::min(&m.engine_step_s);
    let end_to_end = vec![
        ("setup_s", Stat::median_of(&m.setups_s)),
        ("turnaround_p50_s", turnaround),
        (
            "toggles_per_s",
            // Quartiles swap: the slow quartile of the wall is the low
            // quartile of the rate.
            Stat {
                value: toggles / turnaround.value,
                n: turnaround.n,
                q1: toggles / turnaround.q3,
                q3: toggles / turnaround.q1,
                best: toggles / turnaround.best,
            },
        ),
        (
            "speedup_vs_refsim",
            // Min over min: interference only ever adds, so the minima are
            // what repeats. The spread shown is the engine step's.
            Stat {
                value: speedup,
                n: m.engine_step_s.len(),
                q1: baseline_min / engine_q3,
                q3: baseline_min / engine_q1,
                best: speedup,
            },
        ),
        ("peak_rss_mb", Stat::single(peak_rss_mb())),
    ];
    Outcome {
        workload: cfg.workload,
        seed: cfg.seed,
        traced: cfg.trace,
        attempted: m.attempted,
        failed: m.failed,
        end_to_end: if cfg.trace { Vec::new() } else { end_to_end },
        per_layer: if cfg.trace {
            per_layer(m, spans)
        } else {
            Vec::new()
        },
        counts: vec![
            ("setups", m.setups_s.len()),
            ("warmup_discarded", 1),
            ("turnaround", m.turnaround_s.len()),
            ("turnaround_traced", m.traced_turnaround_s.len()),
            ("engine_step", m.engine_step_s.len()),
            ("baseline_step", m.baseline_step_s.len()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
        // Modeled seconds never share a unit with measured ones.
        for m in &PER_LAYER {
            assert_eq!(
                m.name.starts_with("gpu."),
                m.unit == "s_modeled",
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn every_derived_metric_has_a_rule() {
        let m = Measured {
            turnaround_s: vec![1.0, 2.0, 3.0],
            traced_turnaround_s: vec![2.2],
            first_run_extra_s: vec![0.5],
            ..Measured::default()
        };
        let values = per_layer(&m, &[]);
        assert_eq!(values.len(), PER_LAYER.len());
        assert!(values.iter().all(|(_, v)| v.is_finite()));
        let get = |name: &str| values.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("loop.samples"), 3.0);
        assert_eq!(get("loop.turnaround_min_s"), 1.0);
        assert_eq!(get("core.first_run_extra_s"), 0.5);
        assert!((get("trace.overhead_pct") - 10.0).abs() < 1e-9);
    }
}
