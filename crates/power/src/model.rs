use gatspi_graph::CircuitGraph;

/// Activity-based power model parameters.
///
/// Units are chosen so that one tick = 1 ps and energies come out in
/// femtojoules; the absolute watts are synthetic (the real coefficients are
/// library IP), but the model is linear in activity, so relative deltas —
/// what the glitch flow optimises — are meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Wire + pin capacitance per fanout, in femtofarads.
    pub cap_per_fanout: f64,
    /// Base output capacitance of any driver, in femtofarads.
    pub cap_base: f64,
    /// Internal (short-circuit + parasitic) energy per output toggle, in
    /// femtojoules per unit of cell area.
    pub internal_fj_per_area: f64,
    /// Leakage in nanowatts per unit of cell area.
    pub leakage_nw_per_area: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            vdd: 0.8,
            cap_per_fanout: 1.5,
            cap_base: 2.0,
            internal_fj_per_area: 0.8,
            leakage_nw_per_area: 1.0,
        }
    }
}

/// Power estimate broken down by component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerReport {
    /// Net switching power, watts.
    pub switching_w: f64,
    /// Cell-internal power, watts.
    pub internal_w: f64,
    /// Leakage power, watts.
    pub leakage_w: f64,
}

impl PowerReport {
    /// Total power in watts.
    pub fn total_w(&self) -> f64 {
        self.switching_w + self.internal_w + self.leakage_w
    }

    /// Relative saving of `self` versus a `baseline` report, in percent
    /// (positive = `self` consumes less).
    pub fn saving_vs(&self, baseline: &PowerReport) -> f64 {
        let b = baseline.total_w();
        if b == 0.0 {
            return 0.0;
        }
        (b - self.total_w()) / b * 100.0
    }
}

impl PowerModel {
    /// Estimates power from per-signal toggle counts over a run of
    /// `duration` ticks (1 tick = 1 ps).
    ///
    /// `areas[g]` is gate `g`'s cell area (see
    /// [`CellType::area`](gatspi_netlist::CellType::area)); pass the map
    /// built by [`PowerModel::areas_of`].
    ///
    /// # Panics
    ///
    /// Panics if `toggle_counts.len() != graph.n_signals()` or `duration`
    /// is not positive.
    pub fn estimate(
        &self,
        graph: &CircuitGraph,
        toggle_counts: &[u64],
        areas: &[f64],
        duration: i64,
    ) -> PowerReport {
        assert_eq!(
            toggle_counts.len(),
            graph.n_signals(),
            "toggle count per signal required"
        );
        assert!(duration > 0, "duration must be positive");
        let seconds = duration as f64 * 1e-12;

        // Fanout per signal.
        let mut fanout = vec![0u32; graph.n_signals()];
        for g in 0..graph.n_gates() {
            for &sig in graph.gate_fanin(g) {
                fanout[sig as usize] += 1;
            }
        }

        let mut switching_fj = 0.0;
        for s in 0..graph.n_signals() {
            let c = self.cap_base + self.cap_per_fanout * f64::from(fanout[s]);
            switching_fj += 0.5 * c * self.vdd * self.vdd * toggle_counts[s] as f64;
        }

        let mut internal_fj = 0.0;
        let mut leakage_nw = 0.0;
        for (g, &area) in areas.iter().enumerate() {
            let out = graph.gate_output(g).index();
            internal_fj += self.internal_fj_per_area * area * toggle_counts[out] as f64;
            leakage_nw += self.leakage_nw_per_area * area;
        }

        PowerReport {
            switching_w: switching_fj * 1e-15 / seconds,
            internal_w: internal_fj * 1e-15 / seconds,
            leakage_w: leakage_nw * 1e-9,
        }
    }

    /// Collects per-gate areas from the source netlist (gate order matches
    /// the graph's).
    pub fn areas_of(netlist: &gatspi_netlist::Netlist) -> Vec<f64> {
        let lib = netlist.library();
        netlist
            .gates()
            .map(|(_, g)| lib.cell(g.cell()).area())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatspi_graph::GraphOptions;
    use gatspi_netlist::{CellLibrary, NetlistBuilder};

    fn setup() -> (CircuitGraph, Vec<f64>) {
        let mut b = NetlistBuilder::new("p", CellLibrary::industry_mini());
        let a = b.add_input("a").unwrap();
        let n1 = b.add_net("n1").unwrap();
        let y = b.add_output("y").unwrap();
        b.add_gate("u1", "INV", &[a], n1).unwrap();
        b.add_gate("u2", "BUF", &[n1], y).unwrap();
        let netlist = b.finish().unwrap();
        let areas = PowerModel::areas_of(&netlist);
        let g = CircuitGraph::build(&netlist, None, &GraphOptions::default()).unwrap();
        (g, areas)
    }

    #[test]
    fn power_scales_with_activity() {
        let (g, areas) = setup();
        let m = PowerModel::default();
        let low = m.estimate(&g, &[10, 10, 10], &areas, 1_000_000);
        let high = m.estimate(&g, &[100, 100, 100], &areas, 1_000_000);
        assert!(high.switching_w > 9.0 * low.switching_w);
        assert!(high.internal_w > 9.0 * low.internal_w);
        // Leakage is activity-independent.
        assert!((high.leakage_w - low.leakage_w).abs() < 1e-18);
        assert!(high.total_w() > low.total_w());
    }

    #[test]
    fn zero_activity_leaves_leakage() {
        let (g, areas) = setup();
        let m = PowerModel::default();
        let r = m.estimate(&g, &[0, 0, 0], &areas, 1000);
        assert_eq!(r.switching_w, 0.0);
        assert_eq!(r.internal_w, 0.0);
        assert!(r.leakage_w > 0.0);
    }

    #[test]
    fn saving_percentage() {
        let a = PowerReport {
            switching_w: 1.0,
            internal_w: 0.5,
            leakage_w: 0.5,
        };
        let b = PowerReport {
            switching_w: 0.8,
            internal_w: 0.5,
            leakage_w: 0.5,
        };
        assert!((b.saving_vs(&a) - 10.0).abs() < 1e-9);
        assert_eq!(b.saving_vs(&PowerReport::default()), 0.0);
    }
}
