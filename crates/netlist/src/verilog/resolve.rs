//! Instance resolution: one parsed instance or `assign` → the cells it
//! stands for, with masters looked up and pins mapped, before any net
//! is allocated.
//!
//! The parser calls this as soon as a statement is complete, so no
//! per-statement syntax tree or pin list outlives its statement: the
//! module is held as one flat list of [`RCell`]s.

use super::alias::{our_cell, pins, resolve_alias, AliasDef, Resolved, GLOBAL_IGNORE};
use super::error::ParseError;
use super::parse::{Expr, Ident};
use crate::GateKind;

/// One input-pin reference of a resolved cell.
#[derive(Debug, Clone, Copy)]
pub(super) enum InPin<'a> {
    Net(Ident<'a>),
    /// Explicitly or implicitly unconnected: tied to a shared constant 0.
    Unconnected,
    /// The output net of the previous cell (used for the `Q_N`
    /// inverter synthesized right after its flop).
    Prev,
}

/// Where a resolved cell came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Origin {
    /// A cell instance (or one of the cells it expands to).
    Instance,
    /// An `assign` with an expression right-hand side.
    Assign,
    /// An `assign` from a bare identifier: an output-port alias when
    /// nothing else uses its left-hand side, a buffer otherwise.
    BareAssign,
}

/// The most inputs any [`GateKind`] has.
const MAX_INPUTS: usize = 3;

/// A cell after master/pin resolution, before net allocation.
#[derive(Debug, Clone, Copy)]
pub(super) struct RCell<'a> {
    pub kind: GateKind,
    /// The first `kind.input_count()` entries are the input pins.
    ins: [InPin<'a>; MAX_INPUTS],
    /// The driven net; for an `assign`, its left-hand side.
    pub out: Option<Ident<'a>>,
    pub name: Option<Ident<'a>>,
    /// Byte offset errors about this cell point at.
    pub pos: usize,
    pub origin: Origin,
}

impl<'a> RCell<'a> {
    fn new(kind: GateKind, out: Option<Ident<'a>>, name: Option<Ident<'a>>, pos: usize) -> Self {
        RCell {
            kind,
            ins: [InPin::Unconnected; MAX_INPUTS],
            out,
            name,
            pos,
            origin: Origin::Instance,
        }
    }

    /// The input pins, in [`crate::Cell::inputs`] order.
    pub fn inputs(&self) -> &[InPin<'a>] {
        &self.ins[..self.kind.input_count()]
    }

    /// The nets the cell reads.
    pub fn input_nets(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.inputs().iter().filter_map(|pin| match pin {
            InPin::Net(id) => Some(id.text),
            InPin::Unconnected | InPin::Prev => None,
        })
    }
}

/// Resolves `assign lhs = rhs;` (at byte offset `pos`) to one cell.
pub(super) fn assign<'a>(lhs: Ident<'a>, rhs: &Expr<'a>, pos: usize) -> RCell<'a> {
    let mut cell = RCell::new(GateKind::Buf, Some(lhs), None, pos);
    cell.origin = Origin::Assign;
    let net = InPin::Net;
    match *rhs {
        Expr::Const(false) => cell.kind = GateKind::TieLo,
        Expr::Const(true) => cell.kind = GateKind::TieHi,
        Expr::Net(a) => {
            cell.origin = Origin::BareAssign;
            cell.ins[0] = net(a);
        }
        Expr::Inv(a) => {
            cell.kind = GateKind::Not;
            cell.ins[0] = net(a);
        }
        Expr::Bin { op, a, b, c } => {
            cell.kind = match (op, c.is_some()) {
                ('&', false) => GateKind::And2,
                ('&', true) => GateKind::And3,
                ('|', false) => GateKind::Or2,
                ('|', true) => GateKind::Or3,
                ('^', false) => GateKind::Xor2,
                ('^', true) => GateKind::Xor3,
                _ => unreachable!("the parser accepts only & | ^"),
            };
            cell.ins = [net(a), net(b), c.map_or(InPin::Unconnected, net)];
        }
        Expr::NegBin { op, a, b } => {
            cell.kind = match op {
                '&' => GateKind::Nand2,
                '|' => GateKind::Nor2,
                _ => GateKind::Xnor2,
            };
            cell.ins[0] = net(a);
            cell.ins[1] = net(b);
        }
        Expr::Mux { sel, t, f } => {
            // Mux2 pins are (S, A, B) with Y = S ? B : A.
            cell.kind = GateKind::Mux2;
            cell.ins = [net(sel), net(f), net(t)];
        }
    }
    cell
}

/// Resolves a gate primitive with positional connections (output
/// first) to one cell.
pub(super) fn primitive<'a>(
    src: &str,
    master: &Ident<'a>,
    inst: Option<Ident<'a>>,
    nets: &[Ident<'a>],
) -> Result<RCell<'a>, ParseError> {
    let n_ins = nets.len().saturating_sub(1);
    let kind = match (master.text, n_ins) {
        ("buf", 1) => GateKind::Buf,
        ("not", 1) => GateKind::Not,
        ("and", 2) => GateKind::And2,
        ("and", 3) => GateKind::And3,
        ("nand", 2) => GateKind::Nand2,
        ("or", 2) => GateKind::Or2,
        ("or", 3) => GateKind::Or3,
        ("nor", 2) => GateKind::Nor2,
        ("xor", 2) => GateKind::Xor2,
        ("xor", 3) => GateKind::Xor3,
        ("xnor", 2) => GateKind::Xnor2,
        (name, n) => {
            return Err(ParseError::at(
                src,
                master.pos,
                format!("`{name}` with {n} inputs is not in the cell library"),
            ));
        }
    };
    let mut cell = RCell::new(kind, Some(nets[0]), inst, master.pos);
    for (slot, n) in cell.ins.iter_mut().zip(&nets[1..]) {
        *slot = InPin::Net(*n);
    }
    Ok(cell)
}

/// Resolves a named-connection instance, appending its cells (none for
/// physical-only cells, two for a flop with `Q_N` connected) to `out`.
pub(super) fn named<'a>(
    src: &str,
    master: &Ident<'a>,
    inst: Option<Ident<'a>>,
    pairs: &[(Ident<'a>, Option<Ident<'a>>)],
    out: &mut Vec<RCell<'a>>,
) -> Result<(), ParseError> {
    if let Some(kind) = our_cell(master.text) {
        let (ins, out_pin) = pins(kind);
        let def = AliasDef {
            kind,
            ins,
            out: out_pin,
            out_n: None,
            ignore: &[],
        };
        return with_def(src, master, inst, &def, pairs, out);
    }
    match resolve_alias(master.text) {
        Some(Resolved::Gate(def)) => with_def(src, master, inst, def, pairs, out),
        Some(Resolved::ClockGate) => {
            let def = AliasDef {
                kind: GateKind::Or2,
                ins: &["en_i", "scan_cg_en_i"],
                out: "clk_o",
                out_n: None,
                ignore: &["clk_i"],
            };
            with_def(src, master, inst, &def, pairs, out)
        }
        Some(Resolved::Conb) => {
            let mut named = false;
            for (pin, net) in pairs {
                let kind = match pin.text {
                    "HI" => GateKind::TieHi,
                    "LO" => GateKind::TieLo,
                    p if GLOBAL_IGNORE.contains(&p) => continue,
                    p => {
                        return Err(ParseError::at(
                            src,
                            pin.pos,
                            format!("cell `{}` has no pin `{p}` (pins: HI, LO)", master.text),
                        ));
                    }
                };
                if let Some(net) = net {
                    // The instance name goes to the first tie cell.
                    let name = if named { None } else { inst };
                    named = true;
                    out.push(RCell::new(kind, Some(*net), name, master.pos));
                }
            }
            Ok(())
        }
        Some(Resolved::Skip) => Ok(()),
        None => Err(ParseError::at(
            src,
            master.pos,
            format!(
                "unknown cell `{}` (not in the cell library or alias table)",
                master.text
            ),
        )),
    }
}

fn with_def<'a>(
    src: &str,
    master: &Ident<'a>,
    inst: Option<Ident<'a>>,
    def: &AliasDef,
    pairs: &[(Ident<'a>, Option<Ident<'a>>)],
    out: &mut Vec<RCell<'a>>,
) -> Result<(), ParseError> {
    let mut cell = RCell::new(def.kind, None, inst, master.pos);
    let mut out_n: Option<Ident<'a>> = None;
    for (j, (pin, net)) in pairs.iter().enumerate() {
        // Every earlier pin is a distinct pin of `def` (anything else
        // has already failed), so this scan is over a handful.
        if pairs[..j].iter().any(|(p, _)| p.text == pin.text) {
            return Err(ParseError::at(
                src,
                pin.pos,
                format!("pin `{}` connected twice", pin.text),
            ));
        }
        if let Some(i) = def.ins.iter().position(|p| *p == pin.text) {
            if let Some(net) = net {
                cell.ins[i] = InPin::Net(*net);
            }
        } else if pin.text == def.out {
            cell.out = *net;
        } else if def.out_n == Some(pin.text) {
            out_n = *net;
        } else if def.ignore.contains(&pin.text) || GLOBAL_IGNORE.contains(&pin.text) {
            // clock / set / power pin: implicit in the model
        } else {
            let mut expected: Vec<&str> = def.ins.to_vec();
            expected.push(def.out);
            return Err(ParseError::at(
                src,
                pin.pos,
                format!(
                    "cell `{}` has no pin `{}` (pins: {})",
                    master.text,
                    pin.text,
                    expected.join(", ")
                ),
            ));
        }
    }
    out.push(cell);
    if let Some(qn) = out_n {
        let mut inv = RCell::new(GateKind::Not, Some(qn), None, master.pos);
        inv.ins[0] = InPin::Prev;
        out.push(inv);
    }
    Ok(())
}
