//! `compare A.json B.json`: is B no worse than A?
//!
//! Per workload, every end-to-end metric must stay within its bound and the
//! share of failed iterations must not rise; simulated statistics, modeled
//! GPU seconds and the engine's counts must be identical, because a change
//! that only makes the simulator faster simulates the same thing.

use crate::json::Json;
use crate::report::{is_exact, Better, END_TO_END, PER_LAYER};

/// How B's value of one metric relates to A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than A by more than the bound.
    Regressed,
    /// Better than A by more than the bound.
    Improved,
    /// Within the bound, and both runs' quartile spreads are too.
    Unchanged,
    /// Within the bound, but a run's own quartile spread is wider than the
    /// bound, so "no change" is not shown.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric. `worse` is the share of A by which B is worse
/// (negative when better); the spreads are each run's `(q3 − q1) / value`.
pub fn judge(worse: f64, bound: f64, spread_a: f64, spread_b: f64) -> Verdict {
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn runs_of(file: &Json) -> Vec<&Json> {
    match file.get("runs") {
        Some(Json::Arr(runs)) => runs.iter().collect(),
        _ => Vec::new(),
    }
}

fn find_run<'a>(runs: &[&'a Json], workload: &str, traced: bool) -> Option<&'a Json> {
    runs.iter().copied().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("traced") == Some(&Json::Bool(traced))
    })
}

fn field(run: &Json, section: &str, metric: &str, key: &str) -> Option<f64> {
    run.get(section)?.get(metric)?.get(key)?.as_f64()
}

fn spread(run: &Json, metric: &str) -> f64 {
    let get = |key| field(run, "end_to_end", metric, key);
    match (get("q1"), get("q3"), get("value")) {
        (Some(q1), Some(q3), Some(v)) if v != 0.0 => ((q3 - q1) / v).abs(),
        _ => 0.0,
    }
}

fn failed_share(run: &Json) -> f64 {
    let get = |key| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    get("failed") / get("attempted").max(1.0)
}

/// Compares two result files, printing one row per workload and metric.
/// Returns whether B passes.
pub fn compare(a: &Json, b: &Json) -> bool {
    let (runs_a, runs_b) = (runs_of(a), runs_of(b));
    let mut pass = true;
    for key in ["nproc", "available_parallelism", "rustc", "seed", "seconds"] {
        let get = |f: &Json| f.get("environment").and_then(|e| e.get(key)).cloned();
        if get(a) != get(b) {
            println!(
                "note: {key} differs ({:?} vs {:?}); timings are not comparable across it",
                get(a),
                get(b)
            );
        }
    }

    for run_a in runs_a
        .iter()
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
    {
        let workload = run_a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(run_b) = find_run(&runs_b, workload, false) else {
            println!("{workload:<16} missing from B: REGRESSED");
            pass = false;
            continue;
        };
        for def in &END_TO_END {
            let value = |run| field(run, "end_to_end", def.name, "value");
            let (Some(va), Some(vb)) = (value(run_a), value(run_b)) else {
                println!("{workload:<16} {:<20} missing: REGRESSED", def.name);
                pass = false;
                continue;
            };
            let worse = match def.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let verdict = judge(
                worse,
                def.bound,
                spread(run_a, def.name),
                spread(run_b, def.name),
            );
            pass &= verdict != Verdict::Regressed;
            println!(
                "{workload:<16} {:<20} {va:>14.6} -> {vb:>14.6} {:<5} {:+7.2}% worse (bound {:.0}%, spreads {:.1}%/{:.1}%): {}",
                def.name,
                def.unit,
                100.0 * worse,
                100.0 * def.bound,
                100.0 * spread(run_a, def.name),
                100.0 * spread(run_b, def.name),
                verdict.as_str()
            );
        }
        let (fa, fb) = (failed_share(run_a), failed_share(run_b));
        let ok = fb <= fa;
        pass &= ok;
        println!(
            "{workload:<16} {:<20} {fa:>14.6} -> {fb:>14.6}: {}",
            "failed_share",
            if ok { "unchanged" } else { "REGRESSED" }
        );
    }

    for run_a in runs_a
        .iter()
        .filter(|r| r.get("traced") == Some(&Json::Bool(true)))
    {
        let workload = run_a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(run_b) = find_run(&runs_b, workload, true) else {
            println!("{workload:<16} traced run missing from B: REGRESSED");
            pass = false;
            continue;
        };
        let mut differing = 0;
        for def in PER_LAYER.iter().filter(|d| is_exact(d)) {
            let value = |run| field(run, "per_layer", def.name, "value");
            if value(run_a) != value(run_b) {
                differing += 1;
                println!(
                    "{workload:<16} {:<28} {:?} -> {:?}: DIFFERS (must be exact)",
                    def.name,
                    value(run_a),
                    value(run_b)
                );
            }
        }
        pass &= differing == 0;
        println!(
            "{workload:<16} exact statistics (sim.*, gpu.*, counts, sizes): {}",
            if differing == 0 {
                "identical"
            } else {
                "DIFFER"
            }
        );
    }
    println!("{}", if pass { "PASS" } else { "FAIL" });
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(judge(0.16, 0.15, 0.0, 0.0), Verdict::Regressed);
        assert_eq!(judge(0.14, 0.15, 0.01, 0.02), Verdict::Unchanged);
        assert_eq!(judge(-0.14, 0.15, 0.01, 0.02), Verdict::Unchanged);
        assert_eq!(judge(-0.30, 0.15, 0.5, 0.5), Verdict::Improved);
        // Inside the bound but the runs themselves are noisier than it.
        assert_eq!(judge(0.02, 0.15, 0.01, 0.2), Verdict::Unresolved);
        // A regression stays one however noisy the runs.
        assert_eq!(judge(0.16, 0.15, 0.9, 0.9), Verdict::Regressed);
    }

    fn file(turnaround: f64, failed: usize, toggles: f64) -> Json {
        let stat = |v: f64| {
            Json::obj()
                .with("value", v)
                .with("unit", "s")
                .with("n", 10usize)
                .with("q1", v * 0.99)
                .with("q3", v * 1.01)
                .with("best", v * 0.98)
        };
        let mut e2e = Json::obj();
        for def in &END_TO_END {
            e2e = e2e.with(
                def.name,
                stat(if def.name == "turnaround_p50_s" {
                    turnaround
                } else {
                    1.0
                }),
            );
        }
        let untraced = Json::obj()
            .with("workload", "dense_kernel")
            .with("traced", false)
            .with("attempted", 10usize)
            .with("failed", failed)
            .with("end_to_end", e2e);
        let traced = Json::obj()
            .with("workload", "dense_kernel")
            .with("traced", true)
            .with(
                "per_layer",
                Json::obj().with(
                    "sim.total_toggles",
                    Json::obj().with("value", toggles).with("unit", "count"),
                ),
            );
        Json::obj().with("runs", Json::Arr(vec![untraced, traced]))
    }

    #[test]
    fn compare_gates_on_bound_failures_and_exact_statistics() {
        let base = file(1.0, 0, 1000.0);
        assert!(compare(&base, &base));
        assert!(compare(&base, &file(1.20, 0, 1000.0)), "within the bound");
        assert!(!compare(&base, &file(1.30, 0, 1000.0)), "beyond the bound");
        assert!(
            compare(&base, &file(0.50, 0, 1000.0)),
            "an improvement passes"
        );
        assert!(!compare(&base, &file(1.0, 1, 1000.0)), "failed_share rose");
        assert!(
            !compare(&base, &file(1.0, 0, 1001.0)),
            "simulated statistic moved"
        );
        assert!(!compare(&base, &Json::obj()), "B lacks the workload");
    }
}
