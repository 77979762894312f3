//! Elaboration: parsed module → validated [`Netlist`].
//!
//! Net ids are allocated in `wire`-declaration order first (this is
//! what makes the canonical exporter invertible: it declares every net
//! in net-id order), then input ports not already declared as wires,
//! then any remaining identifier at first use in item order. Cells are
//! built in item order. The result is passed through
//! [`Netlist::revalidate`] before it is returned, so an `Ok` import is
//! always a structurally sound netlist.
//!
//! The identifiers `clk` and `retain` are *reserved*: the exporters
//! treat clocking and retention control as implicit (no clock nets
//! exist in the model), so the importer drops `input clk;` /
//! `input retain;` declarations and rejects any data use of the two
//! names with a located error.

use super::error::ParseError;
use super::parse::{parse, Ident, SourceModule};
use super::resolve::{InPin, Origin, RCell};
use crate::{GateKind, NetId, Netlist, NetlistError};
use std::collections::{HashMap, HashSet};

/// Names the exporters use for implicit infrastructure ports.
const RESERVED: &[&str] = &["clk", "retain"];

/// Parses and elaborates a flat structural-Verilog module.
///
/// Accepts instances of our own cell library (`INV`, `SDFF`, ...),
/// Verilog gate primitives (`and`, `nand`, ...), `assign`-style
/// netlists, and foreign cells via the built-in alias table (sky130
/// `sdfsbp`-style scan cells, `cv32e40p_clock_gate` wrappers — see
/// [`super::alias`]). The returned netlist is validated.
///
/// This is the exact inverse of [`crate::to_verilog`]: for any
/// validated netlist `n`, `from_verilog(&to_verilog(&n))` reconstructs
/// the same nets, cells, names and ports in the same order.
///
/// # Errors
///
/// Returns a [`ParseError`] carrying line, column and a source snippet
/// for lexical, syntactic and elaboration failures (unknown cells or
/// pins, driver conflicts, undriven nets, combinational loops,
/// behavioural constructs). The function never panics on malformed
/// input.
///
/// # Examples
///
/// ```
/// use scanguard_netlist::from_verilog;
///
/// let nl = from_verilog(
///     "module inv_chain (a, y);\n\
///      input a;\n\
///      output y;\n\
///      wire n1;\n\
///      INV g0 (.Y(n1), .A(a));\n\
///      INV g1 (.Y(y), .A(n1));\n\
///      endmodule\n",
/// )
/// .unwrap();
/// assert_eq!(nl.cell_count(), 2);
/// assert_eq!(nl.input_ports().len(), 1);
/// ```
pub fn from_verilog(src: &str) -> Result<Netlist, ParseError> {
    let module = parse(src)?;
    Elaborator::new(src, &module).run()
}

struct Elaborator<'a> {
    src: &'a str,
    module: &'a SourceModule<'a>,
    nl: Netlist,
    net_ids: NetIds<'a>,
    tie0: Option<NetId>,
}

impl<'a> Elaborator<'a> {
    fn new(src: &'a str, module: &'a SourceModule<'a>) -> Self {
        Elaborator {
            src,
            module,
            nl: Netlist::new_raw(module.name.text.to_owned()),
            net_ids: NetIds::with_capacity(module.wires.len() + module.inputs.len()),
            tie0: None,
        }
    }

    fn err(&self, pos: usize, message: String) -> ParseError {
        ParseError::at(self.src, pos, message)
    }

    fn err_at(&self, id: &Ident<'a>, message: String) -> ParseError {
        self.err(id.pos, message)
    }

    fn run(mut self) -> Result<Netlist, ParseError> {
        self.check_header()?;
        self.declare_wires()?;
        self.declare_inputs()?;
        if let Some(e) = &self.module.unresolved {
            return Err(e.clone());
        }
        let cells = &self.module.cells;
        let aliases = alias_set(cells, self.module, &self.net_ids);
        let mut alias_nets: HashMap<&'a str, NetId> = HashMap::with_capacity(aliases.len());
        self.nl.cells.reserve(cells.len());
        let mut prev_out: Option<NetId> = None;
        for cell in cells {
            match (cell.origin, cell.out) {
                (Origin::BareAssign, Some(lhs)) if aliases.contains(lhs.text) => {
                    let rhs = match cell.inputs()[0] {
                        InPin::Net(id) => id,
                        _ => unreachable!("bare assign always has a net operand"),
                    };
                    let net = self.get_or_alloc(&rhs)?;
                    alias_nets.insert(lhs.text, net);
                }
                _ => prev_out = Some(self.build_cell(cell, prev_out)?),
            }
        }
        self.declare_outputs(&alias_nets)?;
        if let Err(e) = self.nl.revalidate() {
            return Err(self.err(self.module.pos, e.to_string()));
        }
        Ok(self.nl)
    }

    /// Header ports must be unique, declared, and cover every declared
    /// port.
    fn check_header(&self) -> Result<(), ParseError> {
        let mut header: HashSet<&str> = HashSet::new();
        for p in &self.module.header_ports {
            if !header.insert(p.text) {
                return Err(self.err_at(p, format!("duplicate port `{}`", p.text)));
            }
        }
        let mut declared: HashSet<&str> = HashSet::new();
        for d in self.module.inputs.iter().chain(&self.module.outputs) {
            declared.insert(d.text);
            if !header.contains(d.text) {
                return Err(self.err_at(
                    d,
                    format!("port `{}` is missing from the module port list", d.text),
                ));
            }
        }
        for p in &self.module.header_ports {
            if !declared.contains(p.text) {
                return Err(
                    self.err_at(p, format!("port `{}` has no direction declaration", p.text))
                );
            }
        }
        Ok(())
    }

    fn check_reserved(&self, id: &Ident<'a>) -> Result<(), ParseError> {
        if RESERVED.contains(&id.text) {
            return Err(self.err_at(
                id,
                format!(
                    "identifier `{}` is reserved for the implicit {} \
                     and cannot name a net",
                    id.text,
                    if id.text == "clk" {
                        "clock"
                    } else {
                        "retention control"
                    }
                ),
            ));
        }
        Ok(())
    }

    /// `wire` declarations allocate net ids in declaration order.
    fn declare_wires(&mut self) -> Result<(), ParseError> {
        self.nl.nets.reserve(self.module.wires.len());
        for w in &self.module.wires {
            self.check_reserved(w)?;
            if self.net_ids.get(w.text).is_some() {
                return Err(self.err_at(w, format!("net `{}` declared twice", w.text)));
            }
            let n = self.add_net(w);
            self.net_ids.insert(w.text, n);
        }
        Ok(())
    }

    fn declare_inputs(&mut self) -> Result<(), ParseError> {
        let mut seen: HashSet<&str> = HashSet::new();
        for inp in &self.module.inputs {
            if !seen.insert(inp.text) {
                return Err(self.err_at(inp, format!("duplicate port `{}`", inp.text)));
            }
            if RESERVED.contains(&inp.text) {
                continue; // implicit clock / retention control
            }
            let net = match self.net_ids.get(inp.text) {
                Some(n) => n,
                None => {
                    let n = self.nl.add_net(Some(inp.text));
                    self.net_ids.insert(inp.text, n);
                    n
                }
            };
            if let Err(e) = self.nl.add_input_port_net(inp.text, net) {
                return Err(self.err_at(inp, e.to_string()));
            }
        }
        Ok(())
    }

    fn declare_outputs(&mut self, alias_nets: &HashMap<&'a str, NetId>) -> Result<(), ParseError> {
        for out in &self.module.outputs {
            self.check_reserved(out)?;
            let net = match self.net_ids.get(out.text) {
                Some(n) => n,
                None => match alias_nets.get(out.text) {
                    Some(&n) => n,
                    None => {
                        return Err(
                            self.err_at(out, format!("output port `{}` is never driven", out.text))
                        );
                    }
                },
            };
            if let Err(e) = self.nl.add_output_port(out.text, net) {
                return Err(self.err_at(out, e.to_string()));
            }
        }
        Ok(())
    }

    /// Allocates the next net for `id`, anonymous when `id` is the bare
    /// `n{index}` pattern of that net's own index. Escaped identifiers
    /// always keep their name — that is how the exporter marks a real
    /// name that collides with the pattern.
    fn add_net(&mut self, id: &Ident<'a>) -> NetId {
        let index = self.nl.net_count();
        let anonymous = !id.escaped && pattern_index(id.text, "n") == Some(index);
        self.nl.add_net((!anonymous).then_some(id.text))
    }

    fn get_or_alloc(&mut self, id: &Ident<'a>) -> Result<NetId, ParseError> {
        self.check_reserved(id)?;
        if let Some(n) = self.net_ids.get(id.text) {
            return Ok(n);
        }
        let n = self.add_net(id);
        self.net_ids.insert(id.text, n);
        Ok(n)
    }

    fn tie0_net(&mut self) -> NetId {
        match self.tie0 {
            Some(n) => n,
            None => {
                let (n, _) = self.nl.add_cell(GateKind::TieLo, Vec::new(), None);
                self.tie0 = Some(n);
                n
            }
        }
    }

    /// Allocates `cell`'s nets and adds it; returns its output net.
    /// `prev_out` is the output of the cell built just before it.
    fn build_cell(
        &mut self,
        cell: &RCell<'a>,
        prev_out: Option<NetId>,
    ) -> Result<NetId, ParseError> {
        let mut ins = Vec::with_capacity(cell.kind.input_count());
        for pin in cell.inputs() {
            ins.push(match pin {
                InPin::Net(id) => self.get_or_alloc(id)?,
                InPin::Unconnected => self.tie0_net(),
                InPin::Prev => prev_out.expect("Prev pin always follows its flop"),
            });
        }
        let out = match &cell.out {
            Some(id) => self.get_or_alloc(id)?,
            None => self.nl.add_net(None),
        };
        let index = self.nl.cell_count();
        let name = cell
            .name
            .filter(|id| id.escaped || pattern_index(id.text, "g") != Some(index))
            .map(|id| id.text);
        match self.nl.try_add_cell_driving(cell.kind, ins, out, name) {
            Ok(_) => Ok(out),
            Err(NetlistError::MultipleDrivers { net, name, .. }) => {
                let is_input = self.nl.driver(net).is_none();
                let label = name.unwrap_or_else(|| format!("{net}"));
                Err(self.err(
                    cell.pos,
                    if is_input {
                        format!("cell output drives the input port `{label}`")
                    } else {
                        format!("net `{label}` has more than one driver")
                    },
                ))
            }
            Err(e) => Err(self.err(cell.pos, e.to_string())),
        }
    }
}

/// Net ids by source identifier.
///
/// A name that is the `n{k}` pattern of its own net `k` — every
/// anonymous net of a canonical export, the bulk of a large import — is
/// kept as a flag on `k` and found by parsing the number; every other
/// name goes through the hash map, which keeps std's randomly keyed
/// hasher because the text may be hostile. A name lives in exactly one
/// of the two.
struct NetIds<'a> {
    by_name: HashMap<&'a str, NetId>,
    /// `own_pattern[k]`: net `k` is known by the name `n{k}`.
    own_pattern: Vec<bool>,
}

impl<'a> NetIds<'a> {
    fn with_capacity(nets: usize) -> Self {
        NetIds {
            by_name: HashMap::new(),
            own_pattern: Vec::with_capacity(nets),
        }
    }

    fn get(&self, name: &str) -> Option<NetId> {
        match pattern_index(name, "n") {
            Some(k) if self.own_pattern.get(k) == Some(&true) => Some(NetId::from_index(k)),
            _ => self.by_name.get(name).copied(),
        }
    }

    /// Records `name` for `net`; `name` must not be known yet.
    fn insert(&mut self, name: &'a str, net: NetId) {
        let k = net.index();
        if pattern_index(name, "n") == Some(k) {
            if self.own_pattern.len() <= k {
                self.own_pattern.resize(k + 1, false);
            }
            self.own_pattern[k] = true;
        } else {
            self.by_name.insert(name, net);
        }
    }
}

/// `Some(k)` when `text` is exactly `{prefix}{k}` — the anonymous-id
/// pattern the canonical exporter prints for entry `k` — without
/// formatting `k`.
pub(super) fn pattern_index(text: &str, prefix: &str) -> Option<usize> {
    let digits = text.strip_prefix(prefix)?.as_bytes();
    match digits {
        [] => None,
        [b'0'] => Some(0),
        [b'0', ..] => None,
        _ => digits.iter().try_fold(0usize, |k, &d| {
            if d.is_ascii_digit() {
                k.checked_mul(10)?.checked_add(usize::from(d - b'0'))
            } else {
                None
            }
        }),
    }
}

/// Output-port names that resolve to pure aliases: assigned exactly
/// once from a bare net, never declared as a wire or input, and never
/// referenced by any cell.
///
/// Only the left-hand sides of bare assigns to undeclared output ports
/// are candidates, and only references that could name a candidate
/// (same first byte, length in range) are looked up, so a module
/// without such assigns costs one pass over its assigns.
fn alias_set<'a>(
    cells: &[RCell<'a>],
    module: &SourceModule<'a>,
    net_ids: &NetIds<'a>,
) -> HashSet<&'a str> {
    let mut bare_lhs = cells
        .iter()
        .filter(|c| c.origin == Origin::BareAssign)
        .filter_map(|c| c.out)
        .peekable();
    if bare_lhs.peek().is_none() {
        return HashSet::new();
    }
    let outputs: HashSet<&str> = module.outputs.iter().map(|o| o.text).collect();
    // Every wire and input is in `net_ids`, except the reserved inputs.
    let declared = |name: &str| {
        net_ids.get(name).is_some()
            || (RESERVED.contains(&name) && module.inputs.iter().any(|i| i.text == name))
    };
    let mut candidates: HashMap<&'a str, Uses> = bare_lhs
        .map(|lhs| lhs.text)
        .filter(|lhs| outputs.contains(lhs) && !declared(lhs))
        .map(|lhs| (lhs, Uses::default()))
        .collect();
    if candidates.is_empty() {
        return HashSet::new();
    }

    let mut first_bytes = [false; 256];
    let (mut min_len, mut max_len) = (usize::MAX, 0);
    for name in candidates.keys() {
        first_bytes[usize::from(name.as_bytes()[0])] = true;
        min_len = min_len.min(name.len());
        max_len = max_len.max(name.len());
    }
    let might_be_candidate = |text: &str| {
        (min_len..=max_len).contains(&text.len()) && first_bytes[usize::from(text.as_bytes()[0])]
    };
    for cell in cells {
        let assign = cell.origin != Origin::Instance;
        let out = cell.out.filter(|_| !assign).map(|id| id.text);
        for text in cell.input_nets().chain(out) {
            if might_be_candidate(text) {
                if let Some(uses) = candidates.get_mut(text) {
                    uses.referenced = true;
                }
            }
        }
        if assign {
            if let Some(lhs) = cell.out {
                if let Some(uses) = candidates.get_mut(lhs.text) {
                    uses.assigned += 1;
                }
            }
        }
    }
    candidates
        .into_iter()
        .filter(|(_, uses)| !uses.referenced && uses.assigned == 1)
        .map(|(name, _)| name)
        .collect()
}

/// How an alias candidate is used across the module.
#[derive(Default)]
struct Uses {
    /// Times it is the left-hand side of an `assign`.
    assigned: usize,
    /// Whether any cell reads or drives it.
    referenced: bool,
}
