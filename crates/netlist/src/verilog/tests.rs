//! Round-trip, golden-fixture and fuzz tests for the Verilog importer.
//!
//! The centrepiece is the round-trip property: for any validated
//! netlist `n`, `from_verilog(&to_verilog(&n))` reconstructs the same
//! nets, cells, names and ports with the same ids — checked field by
//! field by [`assert_same`] over hand-built designs, all gate kinds,
//! and randomly generated DAG netlists. Fuzz properties mutate and
//! truncate valid source and require a located [`ParseError`], never a
//! panic.

use super::{from_verilog, to_verilog, ParseError};
use crate::{GateKind, NetId, Netlist, NetlistBuilder};
use proptest::prelude::*;

/// Field-by-field structural identity (ids, names, ports, wiring).
fn assert_same(a: &Netlist, b: &Netlist) {
    assert_eq!(a.name(), b.name(), "module name");
    assert_eq!(a.net_count(), b.net_count(), "net count");
    for i in 0..a.net_count() {
        let n = NetId::from_index(i);
        assert_eq!(a.net_name(n), b.net_name(n), "net {i} name");
        assert_eq!(a.nets[i].is_input, b.nets[i].is_input, "net {i} input flag");
        assert_eq!(a.nets[i].driver, b.nets[i].driver, "net {i} driver");
    }
    assert_eq!(a.cell_count(), b.cell_count(), "cell count");
    for (id, ca) in a.cells() {
        let cb = b.cell(id);
        assert_eq!(ca.kind(), cb.kind(), "cell {id} kind");
        assert_eq!(ca.inputs(), cb.inputs(), "cell {id} inputs");
        assert_eq!(ca.output(), cb.output(), "cell {id} output");
        assert_eq!(ca.name(), cb.name(), "cell {id} name");
    }
    assert_eq!(a.input_ports(), b.input_ports(), "input ports");
    assert_eq!(a.output_ports(), b.output_ports(), "output ports");
}

fn round_trip(nl: &Netlist) {
    let src = to_verilog(nl);
    let back = from_verilog(&src).unwrap_or_else(|e| panic!("re-import failed: {e}\n{src}"));
    assert_same(nl, &back);
    // And the canonical form is a fixed point: exporting the re-import
    // reproduces the source byte for byte.
    assert_eq!(src, to_verilog(&back), "canonical export is a fixed point");
}

// ---------------------------------------------------------------- round trip

fn scan_sample() -> Netlist {
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

fn every_gate_kind() -> Netlist {
    let mut b = NetlistBuilder::new("kinds");
    let a = b.input("a");
    let c = b.input("b");
    let t0 = b.tie_lo();
    let t1 = b.tie_hi();
    let f = b.buf(a);
    let g = b.not(c);
    let h = b.and2(a, c);
    let i = b.and3(a, c, f);
    let j = b.nand2(g, h);
    let k = b.or2(i, j);
    let l = b.or3(a, k, t0);
    let m = b.nor2(l, t1);
    let n = b.xor2(m, a);
    let o = b.xor3(n, c, f);
    let p = b.xnor2(o, g);
    let q = b.mux2(a, p, c);
    let (d0, _) = b.dff("d0", q);
    let (r0, _) = b.rdff("ret0", d0);
    let si = b.input("si");
    let se = b.input("se");
    let (s0, _) = b.sdff("s0", r0, si, se);
    let (r1, _) = b.rsdff("rs0", s0, si, se);
    b.output("y", r1);
    b.finish().unwrap()
}

fn escaped_and_pattern_names() -> Netlist {
    let mut b = NetlistBuilder::new("tricky");
    let d = b.input_bus("d", 3); // escaped names d[0]..d[2]
    let x = b.xor2(d[0], d[1]);
    // A net named like an anonymous pattern (forces escaping).
    let (n_pat, _) = b.named_cell("n5", GateKind::Buf, vec![x]);
    // A net named like a *different* index's pattern (kept bare).
    let (g_pat, _) = b.named_cell("n99", GateKind::Not, vec![n_pat]);
    let y = b.and2(g_pat, d[2]);
    b.output_bus("q", &[y, x]);
    b.output("plain", g_pat);
    b.finish().unwrap()
}

fn feedback_and_port_aliases() -> Netlist {
    let mut b = NetlistBuilder::new("fb");
    let a = b.input("a");
    let fb = b.net("loop");
    let x = b.xor2(a, fb);
    let (q, _) = b.dff("state", x);
    b.connect(fb, q); // anonymous Buf closing the loop
    b.output("q_out", q); // alias: port name differs from net name
    b.output("state", q); // port name equals the net name: no alias
    b.finish().unwrap()
}

fn multiple_outputs_on_one_net() -> Netlist {
    let mut b = NetlistBuilder::new("fanout");
    let a = b.input("a");
    let y = b.not(a);
    b.output("y0", y);
    b.output("y1", y);
    b.finish().unwrap()
}

/// Hand-built names the exporter must demote or escape: two nets and
/// two cells sharing a name, a name taken by another entry's anonymous
/// pattern, and names equal to their own pattern.
fn duplicate_and_colliding_names() -> Netlist {
    let mut b = NetlistBuilder::new("dups");
    let a = b.input("a"); // net 0
    let (x0, _) = b.named_cell("twin", GateKind::Not, vec![a]); // net 1, cell 0
    let (x1, _) = b.named_cell("twin", GateKind::Buf, vec![x0]); // net 2, cell 1: demoted
    let (x2, _) = b.named_cell("n5", GateKind::Not, vec![x1]); // net 3: n5 is anonymous
    let x3 = b.and2(x1, x2); // net 4, cell 3
    let anon = b.not(x3); // net 5, cell 4
    let (x4, _) = b.named_cell("n6", GateKind::Buf, vec![anon]); // net 6: own pattern
    let (x5, _) = b.named_cell("g4", GateKind::Not, vec![x4]); // cell 6: g4 is anonymous
    let (x6, _) = b.named_cell("g7", GateKind::Buf, vec![x5]); // cell 7: own pattern
    b.output("y", x6);
    b.output("z", x2);
    b.finish().unwrap()
}

#[test]
fn round_trips_scan_sample() {
    round_trip(&scan_sample());
}

#[test]
fn round_trips_every_gate_kind() {
    round_trip(&every_gate_kind());
}

#[test]
fn round_trips_escaped_and_pattern_names() {
    round_trip(&escaped_and_pattern_names());
}

#[test]
fn round_trips_names_equal_to_their_own_pattern() {
    // Net 1 is named `n1` and cell 1 is named `g1`: both are exported
    // escaped and must come back named, not anonymous.
    let mut b = NetlistBuilder::new("own");
    let a = b.input("a");
    let (n1, _) = b.named_cell("n1", GateKind::Buf, vec![a]);
    let (g1, _) = b.named_cell("g1", GateKind::Not, vec![n1]);
    b.output("y", g1);
    let nl = b.finish().unwrap();
    assert_eq!(nl.net_name(n1), Some("n1"));
    assert_eq!(nl.cell(nl.driver(g1).unwrap()).name(), Some("g1"));
    let src = to_verilog(&nl);
    assert!(
        src.contains("wire \\n1 ;") && src.contains("INV \\g1  ("),
        "{src}"
    );
    round_trip(&nl);
}

#[test]
fn round_trips_feedback_and_port_aliases() {
    round_trip(&feedback_and_port_aliases());
}

#[test]
fn round_trips_multiple_outputs_on_one_net() {
    round_trip(&multiple_outputs_on_one_net());
}

#[test]
fn round_trips_pure_combinational() {
    let mut b = NetlistBuilder::new("comb");
    let a = b.input("a");
    let c = b.input("b");
    let y = b.nand2(a, c);
    b.output("y", y);
    let nl = b.finish().unwrap();
    let src = to_verilog(&nl);
    assert!(!src.contains("clk"), "no implicit clock on comb designs");
    round_trip(&nl);
}

/// Deterministic random DAG netlists: inputs, a soup of gates over
/// already-created nets, flops, feedback buffers and a few outputs.
fn random_netlist(seed: u64) -> Netlist {
    let mut state = seed | 1;
    let mut rnd = move |bound: u64| -> usize {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound.max(1)) as usize
    };
    let mut b = NetlistBuilder::new("rand");
    let mut nets: Vec<NetId> = Vec::new();
    let n_inputs = 2 + rnd(3);
    for i in 0..n_inputs {
        nets.push(b.input(&format!("i{i}")));
    }
    let si = b.input("si");
    let se = b.input("se");
    let n_ops = 4 + rnd(28);
    for k in 0..n_ops {
        let pick = |nets: &[NetId], rnd: &mut dyn FnMut(u64) -> usize| nets[rnd(nets.len() as u64)];
        let a = pick(&nets, &mut rnd);
        let c = pick(&nets, &mut rnd);
        let d = pick(&nets, &mut rnd);
        let out = match rnd(12) {
            0 => b.and2(a, c),
            1 => b.or2(a, c),
            2 => b.xor2(a, c),
            3 => b.nand2(a, c),
            4 => b.not(a),
            5 => b.mux2(a, c, d),
            6 => b.xor3(a, c, d),
            7 => b.named_cell(&format!("w{k}"), GateKind::Nor2, vec![a, c]).0,
            8 => b.dff(&format!("ff{k}"), a).0,
            9 => b.sdff(&format!("sf{k}"), a, si, se).0,
            10 => b.rsdff(&format!("rf{k}"), a, si, se).0,
            _ => {
                // Feedback: a pre-declared net closed from a flop.
                let f = b.net(&format!("fb{k}"));
                let (q, _) = b.dff(&format!("fq{k}"), a);
                b.connect(f, q);
                f
            }
        };
        nets.push(out);
    }
    let n_outs = 1 + rnd(3);
    for i in 0..n_outs {
        let n = nets[nets.len() - 1 - i.min(nets.len() - 1)];
        b.output(&format!("o{i}"), n);
    }
    b.finish()
        .expect("random netlists are DAGs by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn round_trips_random_netlists(seed in any::<u64>()) {
        round_trip(&random_netlist(seed));
    }
}

// ------------------------------------------------------------- golden input

const GOLDEN: &str = "\
// hand-written golden fixture
module golden (clk, a, b, si, se, y, zn);
  input clk;
  input a;
  input b;
  input si;
  input se;
  output y;
  output zn;
  wire x;
  wire q;
  wire zn_inner;
  XOR2 gx (.Y(x), .A(a), .B(b));
  SDFF q (.Q(q), .D(x), .SI(si), .SE(se));
  NR2 gz (.Y(zn_inner), .A(q), .B(x));
  assign y = q;
  assign zn = zn_inner;
endmodule
";

#[test]
fn golden_fixture_elaborates_exactly() {
    let nl = from_verilog(GOLDEN).unwrap();
    assert_eq!(nl.name(), "golden");
    assert_eq!(
        nl.input_ports()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>(),
        ["a", "b", "si", "se"],
        "clk is implicit and dropped"
    );
    assert_eq!(nl.output_ports().len(), 2);
    assert_eq!(nl.net_count(), 7, "4 inputs + 3 wires");
    assert_eq!(nl.cell_count(), 3);
    let kinds: Vec<GateKind> = nl.cells().map(|(_, c)| c.kind()).collect();
    assert_eq!(kinds, [GateKind::Xor2, GateKind::Sdff, GateKind::Nor2]);
    // Output y aliases the q net directly (no extra cell).
    let y = nl.output_ports()[0].1;
    assert_eq!(nl.net_name(y), Some("q"));
    // And the whole thing survives its own round trip.
    round_trip(&nl);
}

#[test]
fn golden_fixture_wire_order_fixes_net_ids() {
    let nl = from_verilog(GOLDEN).unwrap();
    // Net ids follow `wire` declaration order (x, q, zn_inner); inputs
    // not declared as wires are appended afterwards. This is what lets
    // the canonical form — which declares every net as a wire — pin
    // every id on re-import.
    assert_eq!(nl.net_name(NetId::from_index(0)), Some("x"));
    assert_eq!(nl.net_name(NetId::from_index(1)), Some("q"));
    assert_eq!(nl.net_name(NetId::from_index(2)), Some("zn_inner"));
    assert_eq!(nl.net_name(NetId::from_index(3)), Some("a"));
    assert_eq!(nl.net_name(NetId::from_index(6)), Some("se"));
}

// ------------------------------------------------------------ sky130 input

const SKY130: &str = "\
`timescale 1ns/1ps
module scan_block (clk, en, scan_en, scan_in, d1, set_b, q2_n, q2b, nx);
  input clk;
  input en;
  input scan_en;
  input scan_in;
  input d1;
  input set_b;
  output q2_n;
  output q2b;
  output nx;
  wire gclk;
  wire q1;
  wire q2;
  wire q2n_w;
  wire hi_unused;
  cv32e40p_clock_gate cg (.clk_i(clk), .en_i(en), .scan_cg_en_i(scan_en), .clk_o(gclk));
  sky130_fd_sc_hd__sdfsbp_1 ff1 (.D(d1), .Q(q1), .Q_N(), .SCD(scan_in), .SCE(scan_en),
                                 .SET_B(set_b), .CLK(clk));
  sky130_fd_sc_hd__sdfsbp_1 ff2 (.D(q1), .Q(q2), .Q_N(q2n_w), .SCD(q1), .SCE(scan_en),
                                 .SET_B(set_b), .CLK(clk));
  sky130_fd_sc_hd__diode_2 ANTENNA_1 (.DI(q1));
  sky130_fd_sc_hd__conb_1 tie (.HI(hi_unused), .LO());
  sky130_fd_sc_hd__buf_2 b1 (.A(q2), .X(q2b));
  sky130_fd_sc_hd__nand2_1 g9 (.A(q1), .Y(nx));
  assign q2_n = q2n_w;
endmodule
";

#[test]
fn sky130_fixture_maps_aliases() {
    let nl = from_verilog(SKY130).unwrap();
    assert_eq!(nl.name(), "scan_block");
    let kinds: Vec<GateKind> = nl.cells().map(|(_, c)| c.kind()).collect();
    assert_eq!(
        kinds,
        [
            GateKind::Or2,   // clock gate model
            GateKind::Sdff,  // ff1
            GateKind::Sdff,  // ff2
            GateKind::Not,   // ff2 Q_N
            GateKind::TieHi, // conb HI (LO unconnected: dropped)
            GateKind::Buf,   // buf_2
            GateKind::TieLo, // g9's unconnected B pin
            GateKind::Nand2, // g9
        ],
        "{kinds:?}"
    );
    assert_eq!(nl.ff_count(), 2);
    // ff1 keeps its instance name; the synthesized inverter is anonymous.
    assert!(nl.find_cell("ff1").is_some());
    assert!(nl.find_cell("ff2").is_some());
    // The scan stitch survives: ff2's SI input is ff1's Q net.
    let ff1 = nl.cell(nl.find_cell("ff1").unwrap());
    let ff2 = nl.cell(nl.find_cell("ff2").unwrap());
    assert_eq!(ff2.inputs()[1], ff1.output(), "SCD -> SI stitching");
    // clk / set_b handling: clk dropped, set_b an ordinary (unused) input.
    assert!(nl.port("clk").is_err());
    assert!(nl.port("set_b").is_ok());
    // Re-export in canonical form and round-trip again.
    round_trip(&nl);
}

// ------------------------------------------------------------- golden errors

/// The sources of the `golden_error_*` cases, by case name.
const GOLDEN_ERRORS: [(&str, &str); 13] = [
    (
        "unknown_cell",
        "module m (a, y);\ninput a;\noutput y;\nwire y;\nAND9 g0 (.Y(y), .A(a));\nendmodule",
    ),
    (
        "unknown_pin",
        "module m (a, y);\ninput a;\noutput y;\nwire y;\nINV g0 (.Z(y), .A(a));\nendmodule",
    ),
    (
        "multiple_drivers",
        "module m (a, y);\ninput a;\noutput y;\nwire y;\nINV g0 (.Y(y), .A(a));\nBUF g1 (.Y(y), .A(a));\nendmodule",
    ),
    (
        "drives_input_port",
        "module m (a, y);\ninput a;\noutput y;\nwire y;\nINV g0 (.Y(a), .A(y));\nendmodule",
    ),
    (
        "undriven_output",
        "module m (a, y);\ninput a;\noutput y;\nendmodule",
    ),
    (
        "undriven_wire",
        "module m (a, y);\ninput a;\noutput y;\nwire w;\nwire y;\nAND2 g0 (.Y(y), .A(a), .B(w));\nendmodule",
    ),
    (
        "combinational_loop",
        "module m (y);\noutput y;\nwire x;\nwire y;\nINV g0 (.Y(x), .A(y));\nINV g1 (.Y(y), .A(x));\nendmodule",
    ),
    (
        "reserved_identifier",
        "module m (a, y);\ninput a;\noutput y;\nwire clk;\nBUF g0 (.Y(clk), .A(a));\nBUF g1 (.Y(y), .A(clk));\nendmodule",
    ),
    (
        "duplicate_wire",
        "module m (a);\ninput a;\nwire w;\nwire w;\nendmodule",
    ),
    (
        "pin_connected_twice",
        "module m (a, y);\ninput a;\noutput y;\nwire y;\nINV g0 (.A(a), .A(a), .Y(y));\nendmodule",
    ),
    (
        "undeclared_header_port",
        "module m (a, ghost);\ninput a;\nendmodule",
    ),
    (
        "port_missing_from_header",
        "module m (a);\ninput a;\ninput b;\nendmodule",
    ),
    (
        "duplicate_port",
        "module m (a, a);\ninput a;\nendmodule",
    ),
];

fn error_src(name: &str) -> &'static str {
    GOLDEN_ERRORS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, src)| *src)
        .expect("a golden error case")
}

/// Asserts `src` fails with a message containing `needle` at `line`.
fn assert_error(src: &str, needle: &str, line: usize) {
    let e = from_verilog(src).unwrap_err();
    assert!(
        e.message.contains(needle),
        "expected {needle:?} in {:?}",
        e.message
    );
    assert_eq!(e.line, line, "wrong line for {needle:?}: {e}");
    assert!(e.col >= 1);
}

#[test]
fn golden_error_unknown_cell() {
    assert_error(error_src("unknown_cell"), "unknown cell `AND9`", 5);
}

#[test]
fn golden_error_unknown_pin() {
    assert_error(error_src("unknown_pin"), "has no pin `Z`", 5);
}

#[test]
fn golden_error_multiple_drivers() {
    assert_error(error_src("multiple_drivers"), "more than one driver", 6);
}

#[test]
fn golden_error_drives_input_port() {
    assert_error(error_src("drives_input_port"), "drives the input port", 5);
}

#[test]
fn golden_error_undriven_output() {
    assert_error(
        error_src("undriven_output"),
        "output port `y` is never driven",
        3,
    );
}

#[test]
fn golden_error_undriven_wire() {
    // The floating wire is caught by revalidate and reported at the
    // module declaration.
    assert_error(error_src("undriven_wire"), "has no driver", 1);
}

#[test]
fn golden_error_combinational_loop() {
    assert_error(error_src("combinational_loop"), "combinational loop", 1);
}

#[test]
fn golden_error_reserved_identifier() {
    assert_error(
        error_src("reserved_identifier"),
        "reserved for the implicit clock",
        4,
    );
}

#[test]
fn golden_error_duplicate_wire() {
    assert_error(error_src("duplicate_wire"), "declared twice", 4);
}

#[test]
fn golden_error_pin_connected_twice() {
    assert_error(
        error_src("pin_connected_twice"),
        "pin `A` connected twice",
        5,
    );
}

#[test]
fn golden_error_undeclared_header_port() {
    assert_error(
        error_src("undeclared_header_port"),
        "no direction declaration",
        1,
    );
}

#[test]
fn golden_error_port_missing_from_header() {
    assert_error(
        error_src("port_missing_from_header"),
        "missing from the module port list",
        3,
    );
}

#[test]
fn golden_error_duplicate_port() {
    assert_error(error_src("duplicate_port"), "duplicate port `a`", 1);
}

// --------------------------------------------------------------------- fuzz

/// A healthy base source for mutation fuzzing.
fn fuzz_base() -> String {
    let mut b = NetlistBuilder::new("fuzz");
    let a = b.input("a");
    let c = b.input("b");
    let si = b.input("si");
    let se = b.input("se");
    let x = b.xor2(a, c);
    let (q, _) = b.sdff("q0", x, si, se);
    let m = b.mux2(se, q, x);
    b.output("y", m);
    to_verilog(&b.finish().unwrap())
}

/// The parser must return `Ok` or a located error — never panic — and
/// any `Ok` result is a validated netlist.
fn check_result(src: &str, result: Result<Netlist, ParseError>) {
    match result {
        Ok(nl) => assert!(nl.is_validated()),
        Err(e) => {
            assert!(e.line >= 1, "lines are 1-based");
            assert!(e.col >= 1, "columns are 1-based");
            let lines = src.lines().count();
            assert!(
                e.line <= lines + 1,
                "error line {} beyond source ({} lines)",
                e.line,
                lines
            );
            assert!(!e.message.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fuzz_deletion_never_panics(start in any::<u64>(), len in 1usize..40) {
        let base = fuzz_base();
        let start = (start as usize) % base.len();
        let end = (start + len).min(base.len());
        let mut mutated = String::with_capacity(base.len());
        mutated.push_str(&base[..start.min(base.len())]);
        // Snap to char boundaries (source is ASCII, but stay safe).
        if base.is_char_boundary(start) && base.is_char_boundary(end) {
            mutated.clear();
            mutated.push_str(&base[..start]);
            mutated.push_str(&base[end..]);
        }
        check_result(&mutated, from_verilog(&mutated));
    }

    #[test]
    fn fuzz_duplication_never_panics(start in any::<u64>(), len in 1usize..60) {
        let base = fuzz_base();
        let start = (start as usize) % base.len();
        let end = (start + len).min(base.len());
        if base.is_char_boundary(start) && base.is_char_boundary(end) {
            let mut mutated = String::with_capacity(base.len() + len);
            mutated.push_str(&base[..end]);
            mutated.push_str(&base[start..]);
            check_result(&mutated, from_verilog(&mutated));
        }
    }

    #[test]
    fn fuzz_mangling_never_panics(pos in any::<u64>(), byte in any::<u8>()) {
        let base = fuzz_base();
        let pos = (pos as usize) % base.len();
        let mut bytes = base.into_bytes();
        bytes[pos] = byte % 0x7F; // stay ASCII
        if let Ok(mutated) = String::from_utf8(bytes) {
            check_result(&mutated, from_verilog(&mutated));
        }
    }
}

#[test]
fn every_truncation_yields_ok_or_located_error() {
    let base = fuzz_base();
    for end in 0..base.len() {
        if !base.is_char_boundary(end) {
            continue;
        }
        let prefix = &base[..end];
        check_result(prefix, from_verilog(prefix));
    }
}

#[test]
fn identifier_mangling_keeps_errors_located() {
    // Renaming one identifier occurrence must either still elaborate or
    // produce a located error (e.g. undriven net, unknown port).
    let base = fuzz_base();
    let mutated = base.replacen("si", "sx", 1);
    check_result(&mutated, from_verilog(&mutated));
    let mutated = base.replacen("XOR2", "XYZ2", 1);
    let e = from_verilog(&mutated).unwrap_err();
    assert!(e.message.contains("unknown cell"), "{e}");
}

// ------------------------------------------------------------------ goldens
//
// Exact outputs captured from the importer and exporter before the
// streaming rewrite. Round-trip checks cannot see a change made the
// same way on both sides of the canonical form, and the error tests
// above check only a message substring and the line; these pin every
// byte.

/// Bytes substituted at every position of [`fuzz_base`].
const SUBSTITUTES: [u8; 6] = [b'%', b';', b'(', b'\\', b' ', b'\n'];

/// One golden line: `label<TAB>ok`, or the error's line, column,
/// message and snippet (the last two in debug form, so tabs, quotes
/// and newlines stay unambiguous).
fn outcome_line(label: &str, src: &str) -> String {
    match from_verilog(src) {
        Ok(_) => format!("{label}\tok\n"),
        Err(e) => format!(
            "{label}\t{}\t{}\t{:?}\t{:?}\n",
            e.line, e.col, e.message, e.snippet
        ),
    }
}

/// Every truncation prefix of [`fuzz_base`], every single-byte
/// substitution from [`SUBSTITUTES`], and the `golden_error_*` sources.
fn error_outcomes() -> String {
    let base = fuzz_base();
    let mut out = String::new();
    for end in 0..=base.len() {
        out += &outcome_line(&format!("trunc {end}"), &base[..end]);
    }
    for pos in 0..base.len() {
        for &byte in &SUBSTITUTES {
            let mut bytes = base.clone().into_bytes();
            bytes[pos] = byte;
            let src = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            out += &outcome_line(&format!("sub {pos} {:?}", byte as char), &src);
        }
    }
    for (name, src) in GOLDEN_ERRORS {
        out += &outcome_line(name, src);
    }
    out
}

#[test]
fn parse_errors_match_goldens() {
    let want = include_str!("goldens/errors.txt");
    let got = error_outcomes();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "golden line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "golden length");
}

/// Each export fixture with its golden `to_verilog` text.
fn export_goldens() -> [(&'static str, Netlist, &'static str); 8] {
    let chain4 = include_str!("../../../../tests/fixtures/scan_chain4.v");
    [
        (
            "scan_sample",
            scan_sample(),
            include_str!("goldens/scan_sample.v"),
        ),
        (
            "every_gate_kind",
            every_gate_kind(),
            include_str!("goldens/every_gate_kind.v"),
        ),
        (
            "escaped_and_pattern_names",
            escaped_and_pattern_names(),
            include_str!("goldens/escaped_and_pattern_names.v"),
        ),
        (
            "feedback_and_port_aliases",
            feedback_and_port_aliases(),
            include_str!("goldens/feedback_and_port_aliases.v"),
        ),
        (
            "multiple_outputs_on_one_net",
            multiple_outputs_on_one_net(),
            include_str!("goldens/multiple_outputs_on_one_net.v"),
        ),
        (
            "duplicate_and_colliding_names",
            duplicate_and_colliding_names(),
            include_str!("goldens/duplicate_and_colliding_names.v"),
        ),
        (
            "sky130_reexport",
            from_verilog(SKY130).unwrap(),
            include_str!("goldens/sky130_reexport.v"),
        ),
        (
            "scan_chain4_reexport",
            from_verilog(chain4).unwrap(),
            include_str!("goldens/scan_chain4_reexport.v"),
        ),
    ]
}

#[test]
fn exports_match_goldens() {
    for (name, nl, golden) in export_goldens() {
        assert_eq!(to_verilog(&nl), golden, "{name}");
    }
}

// ---------------------------------------------------------- location edges

/// Asserts the exact location, message and snippet of `src`'s error.
fn assert_located(src: &str, line: usize, col: usize, message: &str, snippet: &str) {
    let e = from_verilog(src).unwrap_err();
    assert_eq!(
        (e.line, e.col, e.message.as_str(), e.snippet.as_str()),
        (line, col, message, snippet),
        "{e}"
    );
}

#[test]
fn lexical_error_after_a_parse_error_wins() {
    // Line 2 misses its `;`, but the stray `%` on line 4 is reported:
    // lexical errors take precedence wherever they are.
    assert_located(
        "module m (a);\ninput a\nwire w;\n  %\nendmodule\n",
        4,
        3,
        "unexpected character `%`",
        "  %",
    );
}

#[test]
fn crlf_source_counts_the_carriage_return_as_a_column() {
    assert_located(
        "module m (a);\r\ninput a;\r\nwire w wire x;\r\nendmodule\r\n",
        3,
        8,
        "expected `;` after the wire declaration, found `wire`",
        "wire w wire x;",
    );
    // An error at the end of a CRLF line points at the `\r`.
    assert_located(
        "module m (a);\r\ninput a;\r\nwire w\r\n",
        4,
        1,
        "expected `;` after the wire declaration, found end of input",
        "",
    );
}

#[test]
fn tab_indentation_counts_one_column_per_tab() {
    assert_located(
        "module m (a, y);\n\tinput a;\n\toutput y;\n\twire y;\n\t\tAND9 g0 (.Y(y), .A(a));\nendmodule\n",
        5,
        3,
        "unknown cell `AND9` (not in the cell library or alias table)",
        "\t\tAND9 g0 (.Y(y), .A(a));",
    );
}

#[test]
fn non_ascii_escaped_identifier_counts_byte_columns() {
    // `ñ` is two bytes, so the `%` after it sits at byte column 15
    // (character column 14).
    assert_located(
        "module m (a);\nwire \\ñame ; %\nendmodule\n",
        2,
        15,
        "unexpected character `%`",
        "wire \\ñame ; %",
    );
}

#[test]
fn error_at_end_of_input_points_past_the_last_byte() {
    assert_located("module m (a);\ninput a;\n", 3, 1, "missing `endmodule`", "");
    assert_located(
        "module m (a);\ninput a;",
        2,
        9,
        "missing `endmodule`",
        "input a;",
    );
}
