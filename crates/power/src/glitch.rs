//! Glitch classification: separating functional transitions from glitch
//! transitions.
//!
//! Within one clock cycle a net makes at most one *functional* transition
//! (its settled value differs between consecutive cycle boundaries); every
//! additional toggle is a glitch — wasted dynamic power that the §4 flow
//! hunts down.

use gatspi_core::SimResult;
use gatspi_wave::{SimTime, Waveform};

/// Per-signal glitch statistics over a run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GlitchStats {
    /// Functional transitions per signal.
    pub functional: Vec<u64>,
    /// Glitch transitions per signal.
    pub glitch: Vec<u64>,
}

impl GlitchStats {
    /// Total functional toggles.
    pub fn total_functional(&self) -> u64 {
        self.functional.iter().sum()
    }

    /// Total glitch toggles.
    pub fn total_glitch(&self) -> u64 {
        self.glitch.iter().sum()
    }

    /// Glitch fraction of all toggles (0 when nothing toggles).
    pub fn glitch_fraction(&self) -> f64 {
        let g = self.total_glitch() as f64;
        let f = self.total_functional() as f64;
        if g + f == 0.0 {
            0.0
        } else {
            g / (g + f)
        }
    }

    /// Signals ranked by glitch count, worst first, with their counts
    /// (zero-glitch signals omitted).
    pub fn worst_signals(&self) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self
            .glitch
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g > 0)
            .map(|(s, &g)| (s, g))
            .collect();
        v.sort_by_key(|&(s, g)| (std::cmp::Reverse(g), s));
        v
    }
}

/// Classifies the toggles of each waveform into functional vs glitch
/// transitions, by `cycle_time`-aligned cycles over `[0, duration)`.
///
/// A cycle's value at its end is its value at its start flipped once per
/// toggle inside it, so a cycle with `k` toggles makes `k mod 2`
/// functional transitions and `k − k mod 2` glitches — a parity count,
/// one pass over each waveform's toggles with no value lookups. There
/// are `n = max(duration / cycle_time, 1)` cycles. When `cycle_time`
/// does not divide `duration`, the last cycle also absorbs the partial
/// tail `[n · cycle_time, duration)`, but it settles at its whole-cycle
/// end `n · cycle_time − 1`: each toggle in the tail is one of its
/// glitches. A run shorter than one cycle is one cycle settling at
/// `duration − 1`. Toggles at or after `duration` are not counted, so a
/// non-positive `duration` classifies nothing: every count is 0.
///
/// # Panics
///
/// Panics if `cycle_time <= 0`.
pub fn classify(waveforms: &[Waveform], cycle_time: SimTime, duration: SimTime) -> GlitchStats {
    assert!(cycle_time > 0, "cycle_time must be positive");
    let (functional, glitch) = waveforms
        .iter()
        .map(|w| {
            let mut fold = CycleFold::new(cycle_time, duration);
            w.iter().skip(1).for_each(|(t, _)| fold.toggle(t));
            fold.finish()
        })
        .unzip();
    GlitchStats { functional, glitch }
}

/// [`classify`] over every signal of a finished run, straight from its
/// stored words ([`SimResult::for_each_toggle`]) — no waveform is built.
/// Equal to `classify` over `r.waveform(s)` for every signal `s`.
///
/// # Errors
///
/// As [`SimResult::for_each_toggle`]: the run kept no waveforms (it
/// segmented without spill), or a later run recycled the device arena
/// under it.
///
/// # Panics
///
/// Panics if `cycle_time <= 0`.
pub fn classify_result(
    r: &SimResult,
    cycle_time: SimTime,
    duration: SimTime,
) -> gatspi_core::Result<GlitchStats> {
    assert!(cycle_time > 0, "cycle_time must be positive");
    let n = r.toggle_counts_slice().len();
    let mut stats = GlitchStats {
        functional: Vec::with_capacity(n),
        glitch: Vec::with_capacity(n),
    };
    for s in 0..n {
        let mut fold = CycleFold::new(cycle_time, duration);
        r.for_each_toggle(s, |t| fold.toggle(t))?;
        let (functional, glitch) = fold.finish();
        stats.functional.push(functional);
        stats.glitch.push(glitch);
    }
    Ok(stats)
}

/// One signal's classification, fed its toggle times in ascending order:
/// toggles are counted per cycle, and a cycle's count is split by parity
/// when the next cycle with a toggle opens. Quiet cycles cost nothing.
struct CycleFold {
    /// Where the last cycle settles: the end of the whole cycles, or
    /// `duration` if the run is shorter than one cycle.
    settle: SimTime,
    duration: SimTime,
    /// Cycle arithmetic is in `i64`, so stepping past the last cycle
    /// cannot overflow.
    cycle_time: i64,
    /// End of the cycle being counted (0 before the first toggle).
    cycle_end: i64,
    toggles: u64,
    functional: u64,
    glitch: u64,
}

impl CycleFold {
    fn new(cycle_time: SimTime, duration: SimTime) -> Self {
        let n_cycles = (duration / cycle_time).max(1);
        CycleFold {
            settle: (n_cycles * cycle_time).min(duration),
            duration,
            cycle_time: i64::from(cycle_time),
            cycle_end: 0,
            toggles: 0,
            functional: 0,
            glitch: 0,
        }
    }

    fn toggle(&mut self, t: SimTime) {
        if t >= self.settle {
            // The partial tail, after the last cycle settled.
            self.glitch += u64::from(t < self.duration);
            return;
        }
        // Whether a toggle opens a cycle depends on the data, so this
        // is written as selects, not branches. The new cycle usually
        // ends one cycle on; only a jump over quiet cycles divides.
        let t = i64::from(t);
        let open = t >= self.cycle_end;
        let closed = if open { self.toggles } else { 0 };
        self.functional += closed & 1;
        self.glitch += closed & !1;
        self.toggles = if open { 1 } else { self.toggles + 1 };
        let next = self.cycle_end + self.cycle_time;
        let next = if t >= next {
            (t / self.cycle_time + 1) * self.cycle_time
        } else {
            next
        };
        self.cycle_end = if open { next } else { self.cycle_end };
    }

    /// `(functional, glitch)` over the whole run.
    fn finish(self) -> (u64, u64) {
        let k = self.toggles;
        (self.functional + (k & 1), self.glitch + (k & !1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use gatspi_core::{RunOptions, Session, SimConfig};
    use gatspi_graph::{CircuitGraph, GraphOptions};
    use gatspi_refsim::{EventSimulator, RefConfig};
    use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
    use gatspi_workloads::stimuli::{generate, StimulusConfig};
    use proptest::prelude::*;

    /// The per-cycle algorithm the parity fold replaced, kept as its
    /// oracle: per cycle, count the toggles inside it, and call one of
    /// them functional when the value at the cycle's last tick differs
    /// from the value at the previous cycle's. The last cycle absorbs the
    /// partial tail's toggles but settles at its whole-cycle end. Only
    /// the early return for a non-positive `duration` is new; the rest
    /// panicked there.
    fn classify_by_value(
        waveforms: &[Waveform],
        cycle_time: SimTime,
        duration: SimTime,
    ) -> GlitchStats {
        let n_cycles = (duration / cycle_time).max(1);
        let mut stats = GlitchStats {
            functional: vec![0; waveforms.len()],
            glitch: vec![0; waveforms.len()],
        };
        if duration <= 0 {
            return stats;
        }
        for (s, w) in waveforms.iter().enumerate() {
            let mut boundary_val = w.initial_value();
            let mut toggles_in_cycle = vec![0u64; n_cycles as usize];
            for (t, _) in w.iter().skip(1) {
                if t >= duration {
                    break;
                }
                let c = (t / cycle_time).min(n_cycles - 1) as usize;
                toggles_in_cycle[c] += 1;
            }
            for c in 0..n_cycles {
                let end = ((c + 1) * cycle_time - 1).min(duration - 1);
                let end_val = w.value_at(end);
                let functional = u64::from(end_val != boundary_val);
                let total = toggles_in_cycle[c as usize];
                stats.functional[s] += functional;
                stats.glitch[s] += total.saturating_sub(functional);
                boundary_val = end_val;
            }
        }
        stats
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 512,
            ..ProptestConfig::default()
        })]

        /// Random waveforms, cycle times and durations — divisible or
        /// not, non-positive, shorter than a cycle — with toggles forced
        /// onto the ticks a cycle fold can misplace: a cycle's last and
        /// first tick, the run's last tick, its end and past it.
        #[test]
        fn parity_fold_matches_the_per_cycle_oracle(
            cycle_time in 1i32..40,
            duration in -30i32..400,
            initial in any::<bool>(),
            free in prop::collection::vec(1i32..450, 0..30),
            edges in prop::collection::vec(0i32..5, 0..10),
            cycles in prop::collection::vec(0i32..12, 0..10),
        ) {
            let edge = |(&e, &c): (&i32, &i32)| match e {
                0 => c * cycle_time - 1,
                1 => c * cycle_time,
                2 => duration - 1,
                3 => duration,
                _ => duration + 1 + c,
            };
            let mut toggles: Vec<SimTime> = edges
                .iter()
                .zip(&cycles)
                .map(edge)
                .chain(free.iter().copied())
                .filter(|&t| t > 0)
                .collect();
            toggles.sort_unstable();
            toggles.dedup();
            let waves = [
                Waveform::from_toggles(initial, &toggles),
                Waveform::from_toggles(!initial, &toggles),
                Waveform::constant(initial),
            ];
            prop_assert_eq!(
                classify(&waves, cycle_time, duration),
                classify_by_value(&waves, cycle_time, duration)
            );
        }
    }

    #[test]
    fn non_positive_and_sub_cycle_durations() {
        let w = Waveform::from_toggles(true, &[10, 20, 30, 120]);
        for duration in [0, -1, -250] {
            let s = classify(std::slice::from_ref(&w), 100, duration);
            assert_eq!((s.functional, s.glitch), (vec![0], vec![0]), "{duration}");
        }
        // Shorter than a cycle: one cycle, [0, 25), holding a glitch pair.
        let s = classify(&[w], 100, 25);
        assert_eq!((s.functional[0], s.glitch[0]), (0, 2));
    }

    #[test]
    fn partial_tail_toggles_are_glitches_of_the_last_cycle() {
        // 250 ticks of 100-tick cycles: the last cycle counts [100, 250)
        // but settles at 199, so a lone toggle in the tail is a glitch,
        // and one before the tail is still the cycle's functional one.
        let w = Waveform::from_toggles(false, &[210]);
        let s = classify(&[w], 100, 250);
        assert_eq!((s.functional[0], s.glitch[0]), (0, 1));
        let w = Waveform::from_toggles(false, &[150, 210, 220]);
        let s = classify(&[w], 100, 250);
        assert_eq!((s.functional[0], s.glitch[0]), (1, 2));
    }

    /// Classification straight from `r` equals `classify` over its
    /// extracted waveforms, which `for_each_toggle` rebuilds exactly and
    /// which equal refsim's over the run.
    fn check_result(r: &SimResult, reference: &[Waveform], cycle: SimTime, duration: SimTime) {
        let waves: Vec<Waveform> = (0..reference.len())
            .map(|s| r.waveform(s).unwrap())
            .collect();
        for (s, w) in waves.iter().enumerate() {
            let mut toggles = Vec::new();
            let initial = r.for_each_toggle(s, |t| toggles.push(t)).unwrap();
            assert_eq!(&Waveform::from_toggles(initial, &toggles), w, "signal {s}");
            assert_eq!(w, &reference[s].window(0, duration), "signal {s}");
        }
        let stats = classify_result(r, cycle, duration).unwrap();
        assert_eq!(stats, classify(&waves, cycle, duration));
        assert_eq!(stats, classify(reference, cycle, duration));
        assert!(stats.total_glitch() > 0, "the design glitches");
    }

    #[test]
    fn classify_result_matches_classify_on_every_kind_of_result() {
        let netlist = gatspi_workloads::circuits::mac_datapath(4, 2);
        let sdf = attach_sdf(&netlist, &SdfGenConfig::default());
        let graph =
            Arc::new(CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap());
        let (cycle, cycles) = (1200, 24);
        let duration = cycle * cycles as SimTime;
        let stimuli = generate(
            graph.primary_inputs().len(),
            &StimulusConfig::random(cycles, cycle, 0.6, 5),
        );
        let reference = EventSimulator::new(&graph, RefConfig::default())
            .run(&stimuli, duration)
            .unwrap()
            .waveforms
            .unwrap();
        let cfg = SimConfig::small()
            .with_cycle_parallelism(4)
            .with_window_align(cycle);
        let spill = RunOptions::default().with_waveform_spill();
        let sim = Session::new(Arc::clone(&graph), cfg.clone());

        let device = sim.run(&stimuli, duration).unwrap();
        assert_eq!(device.segments(), 1);
        check_result(&device, &reference, cycle, duration);

        let spilled = sim.run_with(&stimuli, duration, &spill).unwrap();
        check_result(&spilled, &reference, cycle, duration);

        let segmented = Session::new(
            Arc::clone(&graph),
            SimConfig {
                memory_words: 1 << 12,
                ..cfg
            },
        )
        .run_with(&stimuli, duration, &spill)
        .unwrap();
        assert!(
            segmented.segments() >= 2,
            "{} segments",
            segmented.segments()
        );
        check_result(&segmented, &reference, cycle, duration);

        // Delays are unchanged, so the cone re-simulates to the same
        // waveforms; its result reads them through a derived spill.
        let changed = [0, graph.n_gates() / 2];
        let incremental = sim
            .run_incremental(&spilled, &changed, &stimuli, duration, &spill)
            .unwrap();
        check_result(&incremental, &reference, cycle, duration);

        // The later runs recycled the arena under the device-backed one.
        assert!(matches!(
            classify_result(&device, cycle, duration),
            Err(gatspi_core::CoreError::StaleExtraction)
        ));
    }

    #[test]
    fn clean_transition_is_functional() {
        // One toggle per cycle: all functional.
        let w = Waveform::from_toggles(false, &[10, 110, 210]);
        let s = classify(&[w], 100, 300);
        assert_eq!(s.functional[0], 3);
        assert_eq!(s.glitch[0], 0);
        assert_eq!(s.glitch_fraction(), 0.0);
    }

    #[test]
    fn pulse_within_cycle_is_glitch() {
        // Cycle 0: toggles at 10 and 20 return to the initial value: both
        // are glitches.
        let w = Waveform::from_toggles(false, &[10, 20]);
        let s = classify(&[w], 100, 100);
        assert_eq!(s.functional[0], 0);
        assert_eq!(s.glitch[0], 2);
        assert_eq!(s.glitch_fraction(), 1.0);
    }

    #[test]
    fn settled_change_plus_glitch_pair() {
        // Three toggles in one cycle ending at the opposite value: one
        // functional + two glitches.
        let w = Waveform::from_toggles(false, &[10, 20, 30]);
        let s = classify(&[w], 100, 100);
        assert_eq!(s.functional[0], 1);
        assert_eq!(s.glitch[0], 2);
    }

    #[test]
    fn quiet_signal() {
        let w = Waveform::constant(true);
        let s = classify(&[w], 100, 1000);
        assert_eq!(s.total_functional(), 0);
        assert_eq!(s.total_glitch(), 0);
    }

    #[test]
    fn worst_signals_ranked() {
        let w1 = Waveform::from_toggles(false, &[10, 20]); // 2 glitches
        let w2 = Waveform::from_toggles(false, &[10, 20, 30, 40]); // 4
        let w3 = Waveform::from_toggles(false, &[10]); // functional only
        let s = classify(&[w1, w2, w3], 100, 100);
        assert_eq!(s.worst_signals(), vec![(1, 4), (0, 2)]);
    }

    #[test]
    fn multi_cycle_mixture() {
        // Cycle 0: glitch pair; cycle 1: clean transition.
        let w = Waveform::from_toggles(true, &[10, 20, 150]);
        let s = classify(&[w], 100, 200);
        assert_eq!(s.functional[0], 1);
        assert_eq!(s.glitch[0], 2);
        assert!((s.glitch_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }
}
