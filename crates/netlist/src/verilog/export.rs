//! Verilog exporters: the canonical (re-importable) structural form
//! and the behavioural (simulator-facing) form.

use super::elab::pattern_index;
use crate::{GateKind, NetId, Netlist};
use std::collections::HashSet;
use std::fmt::Write as _;

fn needs_escape(name: &str) -> bool {
    name.is_empty()
        || name.as_bytes()[0].is_ascii_digit()
        || !name
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'$')
}

fn escape(name: &str) -> String {
    if needs_escape(name) {
        format!("\\{name} ")
    } else {
        name.to_owned()
    }
}

/// Appends `name` to `out`, escaped (`\name `) when `force` or when it
/// is not a simple identifier.
fn push_ident(out: &mut Vec<u8>, name: &str, force: bool) {
    if force || needs_escape(name) {
        out.push(b'\\');
        out.extend_from_slice(name.as_bytes());
        out.push(b' ');
    } else {
        out.extend_from_slice(name.as_bytes());
    }
}

/// Appends the anonymous-id pattern `{prefix}{index}` to `out`.
fn push_pattern(out: &mut Vec<u8>, prefix: &str, index: usize) {
    let mut digits = [0u8; 20];
    let mut k = index;
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (k % 10) as u8;
        k /= 10;
        if k == 0 {
            break;
        }
    }
    out.extend_from_slice(prefix.as_bytes());
    out.extend_from_slice(&digits[at..]);
}

/// The emitted-identifier rule for nets or cells: anonymous entries
/// print as `{prefix}{index}`; named entries keep their name,
/// force-escaped when it equals their own index pattern (so the
/// importer can tell the two apart), and demoted to the index pattern
/// when it is another anonymous entry's pattern or an earlier entry's
/// name.
///
/// Entries must be rendered in index order: each call records the name
/// it keeps. A name collides with an anonymous pattern when it parses
/// as `{prefix}{k}` and entry `k` is anonymous, so no set of pattern
/// strings is built.
struct Idents<'n, F> {
    prefix: &'static str,
    len: usize,
    /// Whether entry `k` is anonymous.
    is_anonymous: F,
    /// Names kept so far.
    taken: HashSet<&'n str>,
}

impl<'n, F: Fn(usize) -> bool> Idents<'n, F> {
    fn new(prefix: &'static str, len: usize, is_anonymous: F) -> Self {
        Idents {
            prefix,
            len,
            is_anonymous,
            taken: HashSet::new(),
        }
    }

    /// Appends entry `index`'s rendered identifier to `out`.
    fn push(&mut self, out: &mut Vec<u8>, index: usize, name: Option<&'n str>) {
        let Some(name) = name else {
            return push_pattern(out, self.prefix, index);
        };
        let pattern = pattern_index(name, self.prefix);
        if pattern == Some(index) {
            self.taken.insert(name);
            push_ident(out, name, true);
        } else if pattern.is_some_and(|k| k < self.len && (self.is_anonymous)(k))
            || !self.taken.insert(name)
        {
            // Duplicate name: the id pattern is the only unambiguous
            // identifier left for this entry.
            push_pattern(out, self.prefix, index);
        } else {
            push_ident(out, name, false);
        }
    }
}

/// Renders `netlist` in the canonical structural form: every net as a
/// `wire` in net-id order, every cell as a named instance of our cell
/// library in cell-id order, `assign` only for output-port aliases.
///
/// This form is the exact inverse of
/// [`from_verilog`](super::from_verilog): the importer reconstructs the
/// same nets, cells, names and ports, in the same order — which is what
/// makes lint and coverage reports byte-identical across the round
/// trip. Clocking and retention control are implicit in the netlist
/// model; the module gains `clk` / `retain` ports only as markers (no
/// cell pin references them).
///
/// Note: instance names share the builder convention that a cell is
/// named like its output net. Strict Verilog puts nets and instances
/// in one namespace, so consume this form with our importer (or any
/// tolerant netlist reader); use [`to_verilog_behavioral`] to feed
/// event-driven simulators.
///
/// # Panics
///
/// Panics if the netlist has pending edits (see
/// [`Netlist::revalidate`]).
///
/// # Examples
///
/// ```
/// use scanguard_netlist::{from_verilog, to_verilog, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("inv");
/// let a = b.input("a");
/// let y = b.not(a);
/// b.output("y", y);
/// let nl = b.finish().unwrap();
/// let v = to_verilog(&nl);
/// assert!(v.contains("INV g0"));
/// assert_eq!(from_verilog(&v).unwrap().cell_count(), 1);
/// ```
#[must_use]
pub fn to_verilog(netlist: &Netlist) -> String {
    let _ = netlist.topo_order(); // assert validated
    let has_seq = netlist.ff_count() > 0;
    let has_retention = netlist.cells().any(|(_, c)| c.kind().is_retention());
    let nets = netlist.net_count();
    // About 15 bytes per `wire` line and 60 per instance line.
    let mut out: Vec<u8> = Vec::with_capacity(64 + 32 * nets + 80 * netlist.cell_count());

    out.extend_from_slice(b"// generated by scanguard-netlist\nmodule ");
    push_ident(&mut out, netlist.name(), false);
    out.extend_from_slice(b" (");
    let markers = (has_seq.then_some("clk").into_iter()).chain(has_retention.then_some("retain"));
    let ports = netlist.input_ports().iter().chain(netlist.output_ports());
    for (i, name) in markers
        .chain(ports.map(|(name, _)| name.as_str()))
        .enumerate()
    {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        push_ident(&mut out, name, false);
    }
    out.extend_from_slice(b");\n");

    if has_seq {
        out.extend_from_slice(b"  input clk;\n");
    }
    if has_retention {
        out.extend_from_slice(b"  input retain;\n");
    }
    for (dir, ports) in [
        (&b"  input "[..], netlist.input_ports()),
        (&b"  output "[..], netlist.output_ports()),
    ] {
        for (name, _) in ports {
            out.extend_from_slice(dir);
            push_ident(&mut out, name, false);
            out.extend_from_slice(b";\n");
        }
    }

    // Every net, in net-id order: the importer allocates ids from this
    // list, which is what keeps the round trip id-exact. Each net's
    // identifier is rendered once, here, at `net_at[i]` in `out`; every
    // later use copies those bytes.
    let mut net_idents = Idents::new("n", nets, |k| {
        netlist.net_name(NetId::from_index(k)).is_none()
    });
    let mut net_at: Vec<(usize, usize)> = Vec::with_capacity(nets);
    for i in 0..nets {
        out.extend_from_slice(b"  wire ");
        let start = out.len();
        net_idents.push(&mut out, i, netlist.net_name(NetId::from_index(i)));
        net_at.push((start, out.len()));
        out.extend_from_slice(b";\n");
    }
    let span = |n: NetId| {
        let (start, end) = net_at[n.index()];
        start..end
    };

    // Output ports that are not themselves net names alias their net.
    for (name, n) in netlist.output_ports() {
        let ident = span(*n);
        let rendered = &out[ident.clone()];
        let text = match rendered {
            [b'\\', inner @ .., b' '] => inner,
            plain => plain,
        };
        if name.as_bytes() != text {
            out.extend_from_slice(b"  assign ");
            push_ident(&mut out, name, false);
            out.extend_from_slice(b" = ");
            out.extend_from_within(ident);
            out.extend_from_slice(b";\n");
        }
    }

    // Cells in cell-id order, as named library instances.
    let mut cell_idents = Idents::new("g", netlist.cell_count(), |k| {
        netlist.cell(crate::CellId::from_index(k)).name().is_none()
    });
    for (id, cell) in netlist.cells() {
        let (in_pins, out_pin) = super::alias::pins(cell.kind());
        out.extend_from_slice(b"  ");
        out.extend_from_slice(cell.kind().cell_name().as_bytes());
        out.push(b' ');
        cell_idents.push(&mut out, id.index(), cell.name());
        out.extend_from_slice(b" (.");
        out.extend_from_slice(out_pin.as_bytes());
        out.push(b'(');
        out.extend_from_within(span(cell.output()));
        for (pin, n) in in_pins.iter().zip(cell.inputs()) {
            out.extend_from_slice(b"), .");
            out.extend_from_slice(pin.as_bytes());
            out.push(b'(');
            out.extend_from_within(span(*n));
        }
        out.extend_from_slice(b"));\n");
    }
    out.extend_from_slice(b"endmodule\n");
    String::from_utf8(out).expect("identifiers come from UTF-8 strings")
}

/// Renders `netlist` as behavioural Verilog for external event-driven
/// simulators: combinational cells as `assign` expressions, sequential
/// cells as `always @(posedge clk)` blocks.
///
/// Retention behaviour (the always-on slave latch) cannot be expressed
/// in plain Verilog-2001; retention flops are annotated with a comment
/// and a `retain`-controlled shadow register so the semantics simulate
/// correctly in any event-driven simulator. This form is *not*
/// re-importable — use [`to_verilog`](self::to_verilog) for that.
///
/// # Panics
///
/// Panics if the netlist has pending edits (see
/// [`Netlist::revalidate`]).
///
/// # Examples
///
/// ```
/// use scanguard_netlist::{to_verilog_behavioral, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("inv");
/// let a = b.input("a");
/// let y = b.not(a);
/// b.output("y", y);
/// let nl = b.finish().unwrap();
/// let v = to_verilog_behavioral(&nl);
/// assert!(v.contains("module inv"));
/// assert!(v.contains("assign"));
/// ```
#[must_use]
pub fn to_verilog_behavioral(netlist: &Netlist) -> String {
    let _ = netlist.topo_order(); // assert validated
    let mut out = String::new();
    let has_seq = netlist.ff_count() > 0;
    let has_retention = netlist.cells().any(|(_, c)| c.kind().is_retention());

    let net_name = |n: NetId| -> String {
        match netlist.net_name(n) {
            Some(s) => escape(s),
            None => format!("n{}", n.index()),
        }
    };

    let _ = writeln!(out, "// generated by scanguard-netlist");
    let _ = write!(out, "module {} (", escape(netlist.name()));
    let mut ports: Vec<String> = Vec::new();
    if has_seq {
        ports.push("clk".to_owned());
    }
    if has_retention {
        ports.push("retain".to_owned());
    }
    for (name, _) in netlist.input_ports() {
        ports.push(escape(name));
    }
    for (name, _) in netlist.output_ports() {
        ports.push(escape(name));
    }
    let _ = writeln!(out, "{});", ports.join(", "));

    if has_seq {
        let _ = writeln!(out, "  input clk;");
    }
    if has_retention {
        let _ = writeln!(out, "  input retain;");
    }
    for (name, _) in netlist.input_ports() {
        let _ = writeln!(out, "  input {};", escape(name));
    }
    for (name, net) in netlist.output_ports() {
        let _ = writeln!(out, "  output {};", escape(name));
        // Outputs alias internal nets.
        let inner = net_name(*net);
        if escape(name) != inner {
            let _ = writeln!(out, "  assign {} = {};", escape(name), inner);
        }
    }

    // Wire declarations for all non-port nets.
    for i in 0..netlist.net_count() {
        let n = NetId::from_index(i);
        let name = net_name(n);
        let is_port = netlist
            .input_ports()
            .iter()
            .chain(netlist.output_ports())
            .any(|(p, pn)| *pn == n && escape(p) == name);
        if !is_port {
            let _ = writeln!(out, "  wire {name};");
        }
    }

    // Cells.
    for (id, cell) in netlist.cells() {
        let y = net_name(cell.output());
        let ins: Vec<String> = cell.inputs().iter().map(|&n| net_name(n)).collect();
        match cell.kind() {
            GateKind::TieLo => {
                let _ = writeln!(out, "  assign {y} = 1'b0;");
            }
            GateKind::TieHi => {
                let _ = writeln!(out, "  assign {y} = 1'b1;");
            }
            GateKind::Buf => {
                let _ = writeln!(out, "  assign {y} = {};", ins[0]);
            }
            GateKind::Not => {
                let _ = writeln!(out, "  assign {y} = ~{};", ins[0]);
            }
            GateKind::And2 => {
                let _ = writeln!(out, "  assign {y} = {} & {};", ins[0], ins[1]);
            }
            GateKind::And3 => {
                let _ = writeln!(out, "  assign {y} = {} & {} & {};", ins[0], ins[1], ins[2]);
            }
            GateKind::Nand2 => {
                let _ = writeln!(out, "  assign {y} = ~({} & {});", ins[0], ins[1]);
            }
            GateKind::Or2 => {
                let _ = writeln!(out, "  assign {y} = {} | {};", ins[0], ins[1]);
            }
            GateKind::Or3 => {
                let _ = writeln!(out, "  assign {y} = {} | {} | {};", ins[0], ins[1], ins[2]);
            }
            GateKind::Nor2 => {
                let _ = writeln!(out, "  assign {y} = ~({} | {});", ins[0], ins[1]);
            }
            GateKind::Xor2 => {
                let _ = writeln!(out, "  assign {y} = {} ^ {};", ins[0], ins[1]);
            }
            GateKind::Xor3 => {
                let _ = writeln!(out, "  assign {y} = {} ^ {} ^ {};", ins[0], ins[1], ins[2]);
            }
            GateKind::Xnor2 => {
                let _ = writeln!(out, "  assign {y} = ~({} ^ {});", ins[0], ins[1]);
            }
            GateKind::Mux2 => {
                let _ = writeln!(out, "  assign {y} = {} ? {} : {};", ins[0], ins[2], ins[1]);
            }
            GateKind::Dff => {
                let r = format!("r{}", id.index());
                let _ = writeln!(out, "  reg {r}; assign {y} = {r};");
                let _ = writeln!(out, "  always @(posedge clk) {r} <= {};", ins[0]);
            }
            GateKind::Sdff => {
                let r = format!("r{}", id.index());
                let _ = writeln!(out, "  reg {r}; assign {y} = {r};");
                let _ = writeln!(
                    out,
                    "  always @(posedge clk) {r} <= {} ? {} : {};",
                    ins[2], ins[1], ins[0]
                );
            }
            GateKind::Rdff => {
                let r = format!("r{}", id.index());
                let sh = format!("ret{}", id.index());
                let _ = writeln!(out, "  // retention flop (always-on slave latch)");
                let _ = writeln!(out, "  reg {r}; reg {sh}; assign {y} = {r};");
                let _ = writeln!(out, "  always @(posedge retain) {sh} <= {r};");
                let _ = writeln!(out, "  always @(negedge retain) {r} <= {sh};");
                let _ = writeln!(
                    out,
                    "  always @(posedge clk) if (!retain) {r} <= {};",
                    ins[0]
                );
            }
            GateKind::Rsdff => {
                let r = format!("r{}", id.index());
                let sh = format!("ret{}", id.index());
                let _ = writeln!(out, "  // retention scan flop (always-on slave latch)");
                let _ = writeln!(out, "  reg {r}; reg {sh}; assign {y} = {r};");
                let _ = writeln!(out, "  always @(posedge retain) {sh} <= {r};");
                let _ = writeln!(out, "  always @(negedge retain) {r} <= {sh};");
                let _ = writeln!(
                    out,
                    "  always @(posedge clk) if (!retain) {r} <= {} ? {} : {};",
                    ins[2], ins[1], ins[0]
                );
            }
        }
    }
    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("samp");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.xor2(a, c);
        let si = b.input("si");
        let se = b.input("se");
        let (q, _) = b.rsdff("r0", x, si, se);
        let m = b.mux2(se, q, x);
        b.output("y", m);
        b.finish().unwrap()
    }

    #[test]
    fn behavioral_exports_module_with_all_ports() {
        let v = to_verilog_behavioral(&sample());
        assert!(v.starts_with("// generated"));
        assert!(v.contains("module samp (clk, retain, a, b, si, se, y);"));
        assert!(v.contains("endmodule"));
    }

    #[test]
    fn behavioral_sequential_cells_become_always_blocks() {
        let v = to_verilog_behavioral(&sample());
        assert!(v.contains("always @(posedge clk)"));
        assert!(
            v.contains("always @(posedge retain)"),
            "retention save path"
        );
        assert!(
            v.contains("always @(negedge retain)"),
            "retention restore path"
        );
    }

    #[test]
    fn behavioral_combinational_cells_become_assigns() {
        let v = to_verilog_behavioral(&sample());
        assert!(v.contains('^'), "xor rendered");
        assert!(v.contains('?'), "mux rendered");
    }

    #[test]
    fn behavioral_pure_combinational_module_has_no_clk() {
        let mut b = NetlistBuilder::new("comb");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let v = to_verilog_behavioral(&nl);
        assert!(!v.contains("input clk"));
        assert!(!v.contains("retain"));
    }

    #[test]
    fn bus_port_names_are_escaped_in_both_forms() {
        let mut b = NetlistBuilder::new("bus");
        let d = b.input_bus("d", 2);
        b.output_bus("q", &d);
        let nl = b.finish().unwrap();
        for v in [to_verilog(&nl), to_verilog_behavioral(&nl)] {
            assert!(v.contains("\\d[0] "), "bracketed names need escaping: {v}");
        }
    }

    #[test]
    fn structural_emits_named_instances_in_cell_order() {
        let v = to_verilog(&sample());
        assert!(
            v.contains("module samp (clk, retain, a, b, si, se, y);"),
            "{v}"
        );
        assert!(v.contains("XOR2 g0 (.Y("), "first cell is the xor: {v}");
        assert!(v.contains("RSDFF r0 (.Q(r0), .D("), "{v}");
        assert!(v.contains(".SI(si), .SE(se)"), "{v}");
        assert!(v.contains("MX2 g2 (.Y("), "{v}");
        assert!(!v.contains("always"), "structural form has no behaviour");
    }

    #[test]
    fn structural_declares_every_net_as_wire() {
        let nl = sample();
        let v = to_verilog(&nl);
        let wires = v
            .lines()
            .filter(|l| l.trim_start().starts_with("wire "))
            .count();
        assert_eq!(wires, nl.net_count(), "{v}");
    }

    #[test]
    fn structural_aliases_output_ports() {
        let v = to_verilog(&sample());
        // y aliases the anonymous mux output net.
        assert!(v.contains("assign y = "), "{v}");
    }

    #[test]
    fn structural_escapes_pattern_colliding_names() {
        // A net *named* "n1" that does not sit at index 1 keeps its name;
        // one that does sit at its own pattern index is escaped so the
        // importer can tell it from an anonymous net.
        let mut b = NetlistBuilder::new("pat");
        let a = b.input("a");
        let (y, _) = b.named_cell("n1", crate::GateKind::Buf, vec![a]);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let v = to_verilog(&nl);
        assert!(
            v.contains("\\n1 "),
            "pattern-named net must be escaped: {v}"
        );
    }
}
