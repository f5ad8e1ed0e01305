use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

use crate::{CellLibrary, CellTypeId, NetlistError, Result};

/// Index of a net inside its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `NetId` from a raw index. Intended for downstream
    /// crates that store ids in flat arrays.
    pub fn from_index(index: usize) -> Self {
        NetId(index as u32)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net#{}", self.0)
    }
}

/// Index of a gate instance inside its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `GateId` from a raw index.
    pub fn from_index(index: usize) -> Self {
        GateId(index as u32)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gate#{}", self.0)
    }
}

/// A (gate, input-pin-position) pair identifying a fanout load of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PinRef {
    /// The gate whose pin this is.
    pub gate: GateId,
    /// Input pin position on that gate (truth-table pin order).
    pub pin: u32,
}

/// A named signal. Nets connect one driver (a gate output or a primary
/// input) to any number of gate input pins.
#[derive(Debug, Clone)]
pub struct Net {
    name: String,
    driver: Option<GateId>,
    is_primary_input: bool,
    is_primary_output: bool,
    loads: Vec<PinRef>,
}

impl Net {
    /// Net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate driving this net, if it is gate-driven.
    pub fn driver(&self) -> Option<GateId> {
        self.driver
    }

    /// Whether this net is a primary (or pseudo-primary) input. In
    /// re-simulation these carry the known stimulus waveforms.
    pub fn is_primary_input(&self) -> bool {
        self.is_primary_input
    }

    /// Whether this net is a primary output of the design.
    pub fn is_primary_output(&self) -> bool {
        self.is_primary_output
    }

    /// The gate input pins this net fans out to.
    pub fn loads(&self) -> &[PinRef] {
        &self.loads
    }

    /// Fanout count.
    pub fn fanout(&self) -> usize {
        self.loads.len()
    }
}

/// A gate instance: a cell type plus net connections.
#[derive(Debug, Clone)]
pub struct Gate {
    name: String,
    cell: CellTypeId,
    inputs: Vec<NetId>,
    output: NetId,
}

impl Gate {
    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell type of this instance.
    pub fn cell(&self) -> CellTypeId {
        self.cell
    }

    /// Nets connected to the input pins, in pin order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Net connected to the output pin.
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// A flat gate-level netlist: the `Netlist.gv` of the paper's tool flow.
///
/// Construct with [`NetlistBuilder`] or parse from structural Verilog with
/// [`crate::verilog::parse`].
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    library: Arc<CellLibrary>,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    net_names: NameIndex,
    gate_names: NameIndex,
}

impl Netlist {
    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell library this netlist references.
    pub fn library(&self) -> &Arc<CellLibrary> {
        &self.library
    }

    /// Number of gate instances.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Primary (and pseudo-primary) input nets, in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary output nets, in declaration order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// Accesses a net by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Accesses a gate by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Looks up a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name, &self.nets, Net::name).map(NetId)
    }

    /// Looks up a gate by instance name.
    pub fn find_gate(&self, name: &str) -> Option<GateId> {
        self.gate_names
            .get(name, &self.gates, Gate::name)
            .map(GateId)
    }

    /// Iterates over `(id, net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Iterates over `(id, gate)` pairs.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// Validates structural sanity: every net is driven exactly once (by a
    /// gate or by being a primary input), every gate pin connects to an
    /// existing net. The builder enforces this incrementally; this method
    /// re-checks the final object and is used by property tests and after
    /// netlist transformations.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        for (id, net) in self.nets() {
            let driven = net.driver.is_some() || net.is_primary_input;
            if !driven && !net.loads.is_empty() {
                return Err(NetlistError::Undriven {
                    net: net.name.clone(),
                });
            }
            if let Some(g) = net.driver {
                if self.gates.get(g.index()).map(|gate| gate.output) != Some(id) {
                    return Err(NetlistError::PinMismatch {
                        gate: format!("{g}"),
                        cell: String::new(),
                        detail: format!("driver of `{}` does not drive it back", net.name),
                    });
                }
            }
        }
        for (id, gate) in self.gates() {
            let cell = self.library.cell(gate.cell);
            if gate.inputs.len() != cell.num_inputs() {
                return Err(NetlistError::PinMismatch {
                    gate: gate.name.clone(),
                    cell: cell.name().to_string(),
                    detail: format!(
                        "{} connections for {} pins",
                        gate.inputs.len(),
                        cell.num_inputs()
                    ),
                });
            }
            for (pin, &net) in gate.inputs.iter().enumerate() {
                let loads = &self.nets[net.index()].loads;
                if !loads.contains(&PinRef {
                    gate: id,
                    pin: pin as u32,
                }) {
                    return Err(NetlistError::PinMismatch {
                        gate: gate.name.clone(),
                        cell: cell.name().to_string(),
                        detail: format!(
                            "load list of net `{}` misses pin {pin}",
                            self.nets[net.index()].name
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Incremental [`Netlist`] constructor.
///
/// The builder checks single-driver and pin-arity rules as objects are added,
/// so a successfully built netlist is structurally valid.
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    library: Arc<CellLibrary>,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    net_names: NameIndex,
    gate_names: NameIndex,
}

impl NetlistBuilder {
    /// Starts building a design named `name` against `library`.
    pub fn new(name: impl Into<String>, library: impl Into<Arc<CellLibrary>>) -> Self {
        NetlistBuilder {
            name: name.into(),
            library: library.into(),
            nets: Vec::new(),
            gates: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            net_names: NameIndex::default(),
            gate_names: NameIndex::default(),
        }
    }

    /// The library the builder resolves cell names against.
    pub fn library(&self) -> &Arc<CellLibrary> {
        &self.library
    }

    fn add_net_inner(&mut self, name: &str, pi: bool, po: bool) -> Result<NetId> {
        check_name("net", name)?;
        let hash = self.net_names.hash(name);
        if self
            .net_names
            .find(hash, name, &self.nets, Net::name)
            .is_some()
        {
            return Err(NetlistError::DuplicateName {
                kind: "net",
                name: name.to_string(),
            });
        }
        let id = NetId(next_id(self.nets.len(), "net")?);
        self.nets.push(Net {
            name: name.to_string(),
            driver: None,
            is_primary_input: pi,
            is_primary_output: po,
            loads: Vec::new(),
        });
        self.net_names.insert(hash, id.0);
        if pi {
            self.primary_inputs.push(id);
        }
        if po {
            self.primary_outputs.push(id);
        }
        Ok(id)
    }

    /// Declares an internal wire.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken, or
    /// [`NetlistError::BadName`] if it is empty or holds whitespace.
    pub fn add_net(&mut self, name: &str) -> Result<NetId> {
        self.add_net_inner(name, false, false)
    }

    /// Declares a primary (or pseudo-primary) input net. Its waveform will be
    /// supplied as stimulus at simulation time.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken, or
    /// [`NetlistError::BadName`] if it is empty or holds whitespace.
    pub fn add_input(&mut self, name: &str) -> Result<NetId> {
        self.add_net_inner(name, true, false)
    }

    /// Declares a primary output net. It must be driven by a gate before
    /// [`NetlistBuilder::finish`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken, or
    /// [`NetlistError::BadName`] if it is empty or holds whitespace.
    pub fn add_output(&mut self, name: &str) -> Result<NetId> {
        self.add_net_inner(name, false, true)
    }

    /// Marks an existing net as a primary output as well (for internal nets
    /// that are also observed).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn mark_output(&mut self, net: NetId) {
        let n = &mut self.nets[net.index()];
        if !n.is_primary_output {
            n.is_primary_output = true;
            self.primary_outputs.push(net);
        }
    }

    /// Instantiates a gate of cell type `cell_name` with input nets in pin
    /// order driving `output`.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UnknownName`] if the cell type does not exist.
    /// * [`NetlistError::DuplicateName`] if the instance name is taken.
    /// * [`NetlistError::BadName`] if the instance name is empty or holds
    ///   whitespace.
    /// * [`NetlistError::PinMismatch`] if the connection count differs from
    ///   the cell's pin count.
    /// * [`NetlistError::MultipleDrivers`] if `output` already has a driver
    ///   or is a primary input.
    pub fn add_gate(
        &mut self,
        inst_name: &str,
        cell_name: &str,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<GateId> {
        let cell_id = self
            .library
            .find(cell_name)
            .ok_or_else(|| NetlistError::UnknownName {
                kind: "cell",
                name: cell_name.to_string(),
            })?;
        self.add_gate_by_id(inst_name, cell_id, inputs, output)
    }

    /// Like [`NetlistBuilder::add_gate`] but takes a resolved [`CellTypeId`].
    ///
    /// # Errors
    ///
    /// See [`NetlistBuilder::add_gate`].
    pub fn add_gate_by_id(
        &mut self,
        inst_name: &str,
        cell_id: CellTypeId,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<GateId> {
        check_name("gate", inst_name)?;
        let cell = self.library.cell(cell_id);
        let hash = self.gate_names.hash(inst_name);
        if self
            .gate_names
            .find(hash, inst_name, &self.gates, Gate::name)
            .is_some()
        {
            return Err(NetlistError::DuplicateName {
                kind: "gate",
                name: inst_name.to_string(),
            });
        }
        if inputs.len() != cell.num_inputs() {
            return Err(NetlistError::PinMismatch {
                gate: inst_name.to_string(),
                cell: cell.name().to_string(),
                detail: format!(
                    "{} connections for {} pins",
                    inputs.len(),
                    cell.num_inputs()
                ),
            });
        }
        {
            let out_net = &self.nets[output.index()];
            if out_net.driver.is_some() || out_net.is_primary_input {
                return Err(NetlistError::MultipleDrivers {
                    net: out_net.name.clone(),
                    driver: inst_name.to_string(),
                });
            }
        }
        let id = GateId(next_id(self.gates.len(), "gate")?);
        for (pin, &net) in inputs.iter().enumerate() {
            self.nets[net.index()].loads.push(PinRef {
                gate: id,
                pin: pin as u32,
            });
        }
        self.nets[output.index()].driver = Some(id);
        self.gates.push(Gate {
            name: inst_name.to_string(),
            cell: cell_id,
            inputs: inputs.to_vec(),
            output,
        });
        self.gate_names.insert(hash, id.0);
        Ok(id)
    }

    /// Looks up a net added earlier.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name, &self.nets, Net::name).map(NetId)
    }

    /// Number of gates added so far.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Finalises the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Undriven`] if any net with loads (or any
    /// primary output) lacks a driver, or [`NetlistError::BadName`] if the
    /// design name is empty or holds whitespace.
    pub fn finish(self) -> Result<Netlist> {
        check_name("module", &self.name)?;
        for net in &self.nets {
            let driven = net.driver.is_some() || net.is_primary_input;
            if !driven && (!net.loads.is_empty() || net.is_primary_output) {
                return Err(NetlistError::Undriven {
                    net: net.name.clone(),
                });
            }
        }
        Ok(Netlist {
            name: self.name,
            library: self.library,
            nets: self.nets,
            gates: self.gates,
            primary_inputs: self.primary_inputs,
            primary_outputs: self.primary_outputs,
            net_names: self.net_names,
            gate_names: self.gate_names,
        })
    }
}

/// Refuses a `kind` name that is empty or holds whitespace — the byte that
/// ends a Verilog identifier, escaped or not — so every netlist
/// [`crate::verilog::write`] prints reads back.
fn check_name(kind: &'static str, name: &str) -> Result<()> {
    if name.is_empty() || name.bytes().any(|c| c.is_ascii_whitespace()) {
        return Err(NetlistError::BadName {
            kind,
            name: name.to_string(),
        });
    }
    Ok(())
}

/// The id the next of `len` nets or gates gets. `u32::MAX` is never an id:
/// [`NameIndex`] marks free slots with it.
fn next_id(len: usize, kind: &'static str) -> Result<u32> {
    u32::try_from(len)
        .ok()
        .filter(|&id| id != NameIndex::FREE)
        .ok_or(NetlistError::TooMany { kind })
}

/// Name-to-id lookup for the nets or the gates of a netlist. It stores ids,
/// not names: a probe compares against the name the id's [`Net`] or
/// [`Gate`] holds, so each name is allocated once. Open addressing with
/// linear probing over a power-of-two table kept at most half full; names
/// are hashed with the standard library's randomly keyed hasher, since they
/// come from input files.
#[derive(Debug, Clone, Default)]
struct NameIndex {
    slots: Vec<Slot>,
    len: usize,
    hasher: RandomState,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Low 32 bits of the name's hash; they also pick the home slot.
    hash: u32,
    /// The id, or [`NameIndex::FREE`].
    id: u32,
}

impl NameIndex {
    const FREE: u32 = u32::MAX;

    fn hash(&self, name: &str) -> u32 {
        // Truncation keeps the low bits, which index the table.
        self.hasher.hash_one(name) as u32
    }

    /// The id stored for `name`, whose [`NameIndex::hash`] is `hash`;
    /// `items[id]` holds each stored id's name.
    fn find<T>(&self, hash: u32, name: &str, items: &[T], name_of: fn(&T) -> &str) -> Option<u32> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.id == Self::FREE {
                return None;
            }
            if slot.hash == hash && items.get(slot.id as usize).map(name_of) == Some(name) {
                return Some(slot.id);
            }
            at = (at + 1) & mask;
        }
    }

    fn get<T>(&self, name: &str, items: &[T], name_of: fn(&T) -> &str) -> Option<u32> {
        self.find(self.hash(name), name, items, name_of)
    }

    /// Stores `id` for a name the caller has checked is absent.
    fn insert(&mut self, hash: u32, id: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = (2 * self.slots.len()).max(16);
            let old = std::mem::replace(
                &mut self.slots,
                vec![
                    Slot {
                        hash: 0,
                        id: Self::FREE
                    };
                    grown
                ],
            );
            for slot in old.into_iter().filter(|s| s.id != Self::FREE) {
                self.place(slot);
            }
        }
        self.place(Slot { hash, id });
        self.len += 1;
    }

    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut at = slot.hash as usize & mask;
        while self.slots[at].id != Self::FREE {
            at = (at + 1) & mask;
        }
        self.slots[at] = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> CellLibrary {
        CellLibrary::industry_mini()
    }

    fn full_adder() -> Netlist {
        let mut b = NetlistBuilder::new("fa", lib());
        let a = b.add_input("a").unwrap();
        let bb = b.add_input("b").unwrap();
        let cin = b.add_input("cin").unwrap();
        let sum = b.add_output("sum").unwrap();
        let cout = b.add_output("cout").unwrap();
        b.add_gate("u_sum", "XOR3", &[a, bb, cin], sum).unwrap();
        b.add_gate("u_carry", "MAJ3", &[a, bb, cin], cout).unwrap();
        b.finish().unwrap()
    }

    /// A name that is empty or has whitespace in it is refused where it
    /// enters: a net, a gate, or the design itself at `finish`.
    #[test]
    fn unwritable_names_are_refused() {
        let bad = |kind, name: &str| NetlistError::BadName {
            kind,
            name: name.to_string(),
        };
        let mut b = NetlistBuilder::new("top", lib());
        assert_eq!(b.add_input("a b"), Err(bad("net", "a b")));
        assert_eq!(b.add_output("y\t"), Err(bad("net", "y\t")));
        assert_eq!(b.add_net("n\n1"), Err(bad("net", "n\n1")));
        assert_eq!(b.add_net(""), Err(bad("net", "")));
        let a = b.add_input("a").unwrap();
        let y = b.add_output("y").unwrap();
        assert_eq!(b.add_gate("u 1", "INV", &[a], y), Err(bad("gate", "u 1")));
        b.add_gate("u1", "INV", &[a], y).unwrap();
        b.finish().unwrap();

        let mut b = NetlistBuilder::new("my top", lib());
        let a = b.add_input("a").unwrap();
        let y = b.add_output("y").unwrap();
        b.add_gate("u1", "INV", &[a], y).unwrap();
        let err = b.finish().unwrap_err();
        assert_eq!(err, bad("module", "my top"));
        assert_eq!(
            err.to_string(),
            "module name `my top` is empty or holds whitespace"
        );
    }

    #[test]
    fn build_full_adder() {
        let n = full_adder();
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.net_count(), 5);
        assert_eq!(n.primary_inputs().len(), 3);
        assert_eq!(n.primary_outputs().len(), 2);
        n.validate().unwrap();
    }

    #[test]
    fn loads_and_drivers_wired() {
        let n = full_adder();
        let a = n.find_net("a").unwrap();
        assert_eq!(n.net(a).fanout(), 2);
        assert!(n.net(a).is_primary_input());
        let sum = n.find_net("sum").unwrap();
        let drv = n.net(sum).driver().unwrap();
        assert_eq!(n.gate(drv).name(), "u_sum");
    }

    #[test]
    fn duplicate_net_rejected() {
        let mut b = NetlistBuilder::new("t", lib());
        b.add_input("x").unwrap();
        assert!(matches!(
            b.add_net("x"),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn duplicate_gate_rejected() {
        let mut b = NetlistBuilder::new("t", lib());
        let x = b.add_input("x").unwrap();
        let y = b.add_output("y").unwrap();
        let z = b.add_output("z").unwrap();
        b.add_gate("g", "INV", &[x], y).unwrap();
        assert!(matches!(
            b.add_gate("g", "INV", &[x], z),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut b = NetlistBuilder::new("t", lib());
        let x = b.add_input("x").unwrap();
        let y = b.add_output("y").unwrap();
        b.add_gate("g1", "INV", &[x], y).unwrap();
        assert!(matches!(
            b.add_gate("g2", "BUF", &[x], y),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn driving_primary_input_rejected() {
        let mut b = NetlistBuilder::new("t", lib());
        let x = b.add_input("x").unwrap();
        let y = b.add_input("y").unwrap();
        assert!(matches!(
            b.add_gate("g", "INV", &[x], y),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = NetlistBuilder::new("t", lib());
        let x = b.add_input("x").unwrap();
        let y = b.add_output("y").unwrap();
        assert!(matches!(
            b.add_gate("g", "NAND2", &[x], y),
            Err(NetlistError::PinMismatch { .. })
        ));
    }

    #[test]
    fn unknown_cell_rejected() {
        let mut b = NetlistBuilder::new("t", lib());
        let x = b.add_input("x").unwrap();
        let y = b.add_output("y").unwrap();
        assert!(matches!(
            b.add_gate("g", "FROB", &[x], y),
            Err(NetlistError::UnknownName { .. })
        ));
    }

    #[test]
    fn undriven_output_rejected_at_finish() {
        let mut b = NetlistBuilder::new("t", lib());
        b.add_output("y").unwrap();
        assert!(matches!(b.finish(), Err(NetlistError::Undriven { .. })));
    }

    #[test]
    fn undriven_loaded_net_rejected_at_finish() {
        let mut b = NetlistBuilder::new("t", lib());
        let float = b.add_net("float").unwrap();
        let y = b.add_output("y").unwrap();
        b.add_gate("g", "INV", &[float], y).unwrap();
        assert!(matches!(b.finish(), Err(NetlistError::Undriven { .. })));
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut b = NetlistBuilder::new("t", lib());
        let x = b.add_input("x").unwrap();
        let w = b.add_net("w").unwrap();
        b.add_gate("g", "INV", &[x], w).unwrap();
        b.mark_output(w);
        b.mark_output(w);
        let n = b.finish().unwrap();
        assert_eq!(n.primary_outputs(), &[w]);
    }

    #[test]
    fn ids_past_u32_are_an_error() {
        assert_eq!(next_id(7, "net"), Ok(7));
        assert_eq!(next_id(u32::MAX as usize - 1, "net"), Ok(u32::MAX - 1));
        for len in [u32::MAX as usize, u32::MAX as usize + 1] {
            assert_eq!(
                next_id(len, "gate"),
                Err(NetlistError::TooMany { kind: "gate" })
            );
        }
    }

    #[test]
    fn name_lookup_survives_growth() {
        let mut b = NetlistBuilder::new("t", lib());
        let ids: Vec<NetId> = (0..1000)
            .map(|i| b.add_net(&format!("n{i}")).unwrap())
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(b.find_net(&format!("n{i}")), Some(id));
        }
        assert_eq!(b.find_net("n1000"), None);
        assert!(matches!(
            b.add_net("n999"),
            Err(NetlistError::DuplicateName { .. })
        ));
        let n = b.finish().unwrap();
        assert_eq!(n.find_net("n500"), Some(ids[500]));
        assert_eq!(n.clone().find_net("n42"), Some(ids[42]));
    }

    #[test]
    fn tie_cell_has_no_inputs() {
        let mut b = NetlistBuilder::new("t", lib());
        let y = b.add_output("y").unwrap();
        b.add_gate("g", "TIEHI", &[], y).unwrap();
        let n = b.finish().unwrap();
        n.validate().unwrap();
        assert_eq!(n.gate(n.find_gate("g").unwrap()).inputs().len(), 0);
    }
}
