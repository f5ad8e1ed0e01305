//! Logic levelization: partitioning gates into levels such that every gate's
//! fan-in gates sit in strictly earlier levels. Hybrid GPU re-simulators
//! (including GATSPI) use these levels as kernel launch groups — simulation
//! only advances to the next level once the current one completes, which
//! guarantees every input waveform a gate fetches is final.

use gatspi_netlist::Netlist;

use crate::{GraphError, Result};

/// Computes logic levels for every gate by Kahn's algorithm.
///
/// Returns `levels[g]` for each gate index `g`: gates whose inputs are all
/// primary inputs (or that have no inputs, e.g. ties) are level 0; otherwise
/// a gate is one past the maximum level of its driving gates.
///
/// # Errors
///
/// Returns [`GraphError::CombinationalLoop`] (naming a gate on the cycle) if
/// the combinational netlist is cyclic.
///
/// # Example
///
/// ```
/// use gatspi_netlist::{CellLibrary, NetlistBuilder};
/// use gatspi_graph::levelize;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("chain", CellLibrary::industry_mini());
/// let a = b.add_input("a")?;
/// let n1 = b.add_net("n1")?;
/// let y = b.add_output("y")?;
/// b.add_gate("u1", "INV", &[a], n1)?;
/// b.add_gate("u2", "INV", &[n1], y)?;
/// let levels = levelize(&b.finish()?)?;
/// assert_eq!(levels, vec![0, 1]);
/// # Ok(())
/// # }
/// ```
pub fn levelize(netlist: &Netlist) -> Result<Vec<u32>> {
    let n = netlist.gate_count();
    let mut level = vec![0u32; n];
    let mut indegree = vec![0u32; n];

    // indegree = number of *gate-driven* inputs.
    for (id, gate) in netlist.gates() {
        let driven = gate
            .inputs()
            .iter()
            .filter(|&&net| netlist.net(net).driver().is_some());
        indegree[id.index()] = driven.count() as u32;
    }

    let mut queue: Vec<usize> = indegree
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    let mut processed = 0usize;
    let mut head = 0usize;
    while head < queue.len() {
        let g = queue[head];
        head += 1;
        processed += 1;
        let gate = netlist.gate(gatspi_netlist::GateId::from_index(g));
        let out = gate.output();
        for load in netlist.net(out).loads() {
            let succ = load.gate.index();
            let cand = level[g] + 1;
            if cand > level[succ] {
                level[succ] = cand;
            }
            indegree[succ] -= 1;
            if indegree[succ] == 0 {
                queue.push(succ);
            }
        }
    }

    if processed != n {
        // Some gate never reached indegree 0: it is on (or downstream of) a
        // cycle. Report one with remaining indegree.
        let g = indegree
            .iter()
            .position(|&d| d > 0)
            .expect("unprocessed gate must have indegree");
        return Err(GraphError::CombinationalLoop {
            gate: netlist
                .gate(gatspi_netlist::GateId::from_index(g))
                .name()
                .to_string(),
        });
    }
    Ok(level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatspi_netlist::{CellLibrary, NetlistBuilder};

    #[test]
    fn diamond_levels() {
        let mut b = NetlistBuilder::new("d", CellLibrary::industry_mini());
        let a = b.add_input("a").unwrap();
        let n1 = b.add_net("n1").unwrap();
        let n2 = b.add_net("n2").unwrap();
        let y = b.add_output("y").unwrap();
        b.add_gate("u1", "INV", &[a], n1).unwrap();
        b.add_gate("u2", "BUF", &[a], n2).unwrap();
        b.add_gate("u3", "NAND2", &[n1, n2], y).unwrap();
        let lv = levelize(&b.finish().unwrap()).unwrap();
        assert_eq!(lv, vec![0, 0, 1]);
    }

    #[test]
    fn unbalanced_paths_take_max() {
        let mut b = NetlistBuilder::new("u", CellLibrary::industry_mini());
        let a = b.add_input("a").unwrap();
        let n1 = b.add_net("n1").unwrap();
        let n2 = b.add_net("n2").unwrap();
        let y = b.add_output("y").unwrap();
        b.add_gate("u1", "INV", &[a], n1).unwrap();
        b.add_gate("u2", "INV", &[n1], n2).unwrap();
        // u3 sees level-0 input `a` and level-1 input `n2`.
        b.add_gate("u3", "AND2", &[a, n2], y).unwrap();
        let lv = levelize(&b.finish().unwrap()).unwrap();
        assert_eq!(lv[2], 2);
    }

    #[test]
    fn tie_cells_are_level_zero() {
        let mut b = NetlistBuilder::new("t", CellLibrary::industry_mini());
        let c = b.add_net("c").unwrap();
        let y = b.add_output("y").unwrap();
        b.add_gate("t0", "TIEHI", &[], c).unwrap();
        b.add_gate("u1", "INV", &[c], y).unwrap();
        let lv = levelize(&b.finish().unwrap()).unwrap();
        assert_eq!(lv, vec![0, 1]);
    }

    #[test]
    fn loop_detected() {
        // Build a cycle: u1 -> n1 -> u2 -> n2 -> u1.
        let mut b = NetlistBuilder::new("loopy", CellLibrary::industry_mini());
        let a = b.add_input("a").unwrap();
        let n1 = b.add_net("n1").unwrap();
        let n2 = b.add_net("n2").unwrap();
        b.add_gate("u1", "NAND2", &[a, n2], n1).unwrap();
        b.add_gate("u2", "INV", &[n1], n2).unwrap();
        let netlist = b.finish().unwrap();
        let err = levelize(&netlist);
        assert!(matches!(err, Err(GraphError::CombinationalLoop { .. })));
    }

    #[test]
    fn deep_chain() {
        let lib = CellLibrary::industry_mini();
        let mut b = NetlistBuilder::new("chain", lib);
        let mut prev = b.add_input("a").unwrap();
        for i in 0..100 {
            let n = b.add_net(&format!("n{i}")).unwrap();
            b.add_gate(&format!("u{i}"), "INV", &[prev], n).unwrap();
            prev = n;
        }
        b.mark_output(prev);
        let lv = levelize(&b.finish().unwrap()).unwrap();
        assert_eq!(lv[99], 99);
        assert_eq!(lv[0], 0);
    }
}
