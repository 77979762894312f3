//! The 64-lane bit-parallel (PPSFP) simulator.
//!
//! [`WideSimulator`] runs 64 independent simulation machines over one
//! netlist at once: every net holds a [`LogicWord`] (two `u64`
//! bit-planes, value + unknown), and one settle pass evaluates each
//! gate once with [`GateKind::eval_word`] bitwise operations instead of
//! 64 scalar evaluations. The classic use is fault simulation — lane 0
//! carries the golden circuit, lanes 1..64 carry per-lane stuck-at
//! faults ([`set_stuck_lane`](WideSimulator::set_stuck_lane)), and
//! XOR-ing an observed word against its lane-0 bit yields detection for
//! all lanes in two instructions.
//!
//! Per-lane semantics are exactly the scalar [`Simulator`]'s for the
//! always-on, clock-enabled case: all cells powered, no clock gating,
//! no RETAIN sequencing, no energy accounting. That is precisely the
//! configuration manufacturing-test fault simulation runs in, and it is
//! pinned by lockstep differential tests against the scalar engine.
//!
//! [`Simulator`]: crate::Simulator

use crate::tables::SimTables;
use crate::worklist::Worklist;
use scanguard_netlist::{CellId, CellLibrary, Logic, LogicWord, NetId, Netlist};

/// A 64-machine bit-parallel cycle simulator over a validated
/// [`Netlist`].
///
/// # Examples
///
/// ```
/// use scanguard_netlist::{CellLibrary, Logic, NetlistBuilder};
/// use scanguard_sim::WideSimulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("reg");
/// let d = b.input("d");
/// let (q, _) = b.dff("r", d);
/// b.output("q", q);
/// let nl = b.finish()?;
///
/// let lib = CellLibrary::st120nm();
/// let mut sim = WideSimulator::new(&nl, &lib);
/// sim.set_net(nl.port("d")?, Logic::One);
/// // Lane 3 sees q stuck at 0, every other lane is healthy.
/// sim.set_stuck_lane(q, 3, Logic::Zero);
/// sim.step();
/// assert_eq!(sim.value(q).lane(0), Logic::One);
/// assert_eq!(sim.value(q).lane(3), Logic::Zero);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WideSimulator<'a> {
    netlist: &'a Netlist,
    /// Shared struct-of-arrays cell metadata (same tables the scalar
    /// simulator walks).
    tables: SimTables,
    /// Value bit-plane, one `u64` per net (lane bit set = logic 1).
    ones: Vec<u64>,
    /// Unknown bit-plane, one `u64` per net (lane bit set = `X`).
    xs: Vec<u64>,
    /// Flip-flop capture staging, indexed by sequential position.
    next_ones: Vec<u64>,
    next_xs: Vec<u64>,
    /// Scratch buffer for gathering cell input words.
    wbuf: Vec<LogicWord>,
    /// Cells with a changed input since the last settle (the same
    /// event-driven worklist the scalar simulator settles with).
    work: Worklist,
    /// Per-net stuck-at planes: `stuck_mask[net]` selects the lanes
    /// forced on that net, `stuck_ones[net]` the level each forced lane
    /// is held at.
    stuck_mask: Vec<u64>,
    stuck_ones: Vec<u64>,
    /// `true` iff any lane of any net is forced (skips the per-cell
    /// stuck lookup on fault-free nets cheaply).
    stuck_any: bool,
    cycles: u64,
    obs: Option<WideObs>,
}

/// Pre-resolved metric handles for the wide-settle counters.
#[derive(Debug)]
struct WideObs {
    /// Wide settle passes run.
    settles: scanguard_obs::CounterHandle,
    /// Wide gate evaluations across all settles (each one serves 64
    /// lanes).
    cell_evals: scanguard_obs::CounterHandle,
    /// Pending cells at the start of each settle.
    frontier: scanguard_obs::HistogramHandle,
    /// Clock cycles stepped (all 64 lanes advance together, so one
    /// step is one cycle here, not 64).
    cycles: scanguard_obs::CounterHandle,
}

impl<'a> WideSimulator<'a> {
    /// Builds a wide simulator. All nets start at [`Logic::X`] in every
    /// lane.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has pending edits (see
    /// [`Netlist::revalidate`]).
    #[must_use]
    pub fn new(netlist: &'a Netlist, lib: &'a CellLibrary) -> Self {
        let tables = SimTables::new(netlist, lib); // asserts validated
        let nets = netlist.net_count();
        WideSimulator {
            netlist,
            ones: vec![0; nets],
            xs: vec![!0; nets],
            next_ones: vec![0; tables.seq_len()],
            next_xs: vec![!0; tables.seq_len()],
            wbuf: vec![LogicWord::ALL_X; tables.max_fanin],
            work: Worklist::new(tables.comb_len()),
            stuck_mask: vec![0; nets],
            stuck_ones: vec![0; nets],
            stuck_any: false,
            cycles: 0,
            obs: None,
            tables,
        }
    }

    /// The simulated netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Starts recording wide-settle statistics into `rec`'s metrics
    /// registry: `sim.wide.settles` (settle passes),
    /// `sim.wide.cell_evals` (word-level gate evaluations — each one
    /// serves all 64 lanes), `sim.wide.cycles` (clock steps) and the
    /// `sim.wide.settle.frontier` histogram (pending cells per settle).
    /// All are commutative sums over deterministic runs, so snapshots
    /// stay thread-count-blind when wide simulations are fanned out over
    /// a pool.
    pub fn attach_obs(&mut self, rec: &scanguard_obs::Recorder) {
        self.obs = Some(WideObs {
            settles: rec.counter("sim.wide.settles"),
            cell_evals: rec.counter("sim.wide.cell_evals"),
            frontier: rec.histogram("sim.wide.settle.frontier"),
            cycles: rec.counter("sim.wide.cycles"),
        });
    }

    /// Total clock cycles simulated so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Forces one lane of a net to a constant known level — the per-lane
    /// stuck-at fault model. The net's driver still evaluates; the lane
    /// sees the forced level. Distinct lanes of the same net may be
    /// forced to different levels.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` or `level` is [`Logic::X`].
    pub fn set_stuck_lane(&mut self, net: NetId, lane: usize, level: Logic) {
        assert!(lane < 64, "lane {lane} out of range");
        let bit = 1u64 << lane;
        let i = net.index();
        self.stuck_mask[i] |= bit;
        match level {
            Logic::Zero => self.stuck_ones[i] &= !bit,
            Logic::One => self.stuck_ones[i] |= bit,
            Logic::X => panic!("a stuck-at level must be known"),
        }
        self.stuck_any = true;
        // Mirror the scalar `set_stuck`: the forced level is visible
        // immediately, before any settle.
        let mut w = self.value(net);
        w.set_lane(lane, level);
        self.write_net(i, w);
    }

    /// Removes all stuck-at forces from every lane.
    pub fn clear_stuck(&mut self) {
        if !self.stuck_any {
            return;
        }
        self.stuck_mask.fill(0);
        self.stuck_ones.fill(0);
        self.stuck_any = false;
        // Formerly-stuck nets must revert to their drivers' outputs even
        // though no input net changed.
        self.work.mark_all();
    }

    /// Broadcasts one level to all 64 lanes of a primary input net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is driven by a cell (not a primary input).
    pub fn set_net(&mut self, net: NetId, value: Logic) {
        self.set_net_word(net, LogicWord::splat(value));
    }

    /// Sets a primary input net with per-lane values.
    ///
    /// # Panics
    ///
    /// Panics if `net` is driven by a cell (not a primary input).
    pub fn set_net_word(&mut self, net: NetId, value: LogicWord) {
        assert!(
            self.netlist.driver(net).is_none(),
            "net {net} is cell-driven; only primary inputs can be set"
        );
        self.write_net(net.index(), value);
    }

    /// Overwrites the state word of a sequential cell — the wide
    /// equivalent of the scalar simulator's retention-flip hook. Used by
    /// upset injection (flip selected lanes of a retention latch) and by
    /// clock-domain emulation (restore a frozen domain's registers after
    /// a [`step`](Self::step) that should not have clocked them). The
    /// next [`settle`](Self::settle) propagates the forced word.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not sequential.
    pub fn force_ff_word(&mut self, cell: CellId, word: LogicWord) {
        let c = self.netlist.cell(cell);
        assert!(
            c.kind().is_sequential(),
            "force_ff_word targets flip-flops; {cell} is {:?}",
            c.kind()
        );
        self.write_net(c.output().index(), word);
    }

    /// Current word of a net (meaningful after
    /// [`settle`](Self::settle) or [`step`](Self::step)).
    #[must_use]
    pub fn value(&self, net: NetId) -> LogicWord {
        let i = net.index();
        LogicWord {
            ones: self.ones[i],
            xs: self.xs[i],
        }
    }

    /// Writes a net word, marking its loads for the incremental settle
    /// when it actually changed.
    fn write_net(&mut self, i: usize, w: LogicWord) {
        if self.ones[i] != w.ones || self.xs[i] != w.xs {
            self.ones[i] = w.ones;
            self.xs[i] = w.xs;
            self.work.mark_loads(&self.tables, i);
        }
    }

    /// Evaluates one combinational cell by topological position;
    /// returns the output net index when any lane changed.
    #[inline]
    fn eval_pos(&mut self, pos: usize) -> Option<usize> {
        let ins = self.tables.c_inputs(pos);
        let n = ins.len();
        debug_assert!(
            n <= self.wbuf.len(),
            "cell at position {pos} fan-in {n} exceeds the sized input buffer"
        );
        for (k, src) in ins.enumerate() {
            let i = self.tables.c_ins[src] as usize;
            self.wbuf[k] = LogicWord {
                ones: self.ones[i],
                xs: self.xs[i],
            };
        }
        let mut new = self.tables.c_kind[pos].eval_word(&self.wbuf[..n]);
        let out = self.tables.c_out[pos] as usize;
        if self.stuck_any {
            let m = self.stuck_mask[out];
            if m != 0 {
                new.ones = (new.ones & !m) | (self.stuck_ones[out] & m);
                new.xs &= !m;
            }
        }
        if self.ones[out] == new.ones && self.xs[out] == new.xs {
            return None;
        }
        self.ones[out] = new.ones;
        self.xs[out] = new.xs;
        Some(out)
    }

    /// Settles the combinational logic for the current inputs and
    /// register words across all 64 lanes.
    ///
    /// The pass is event-driven with the same contract as the scalar
    /// simulator's settle: a cell is evaluated only when one of its
    /// input nets changed in any lane since the last settle, lowest
    /// topological position first, so its cost follows the cells with
    /// work rather than the size of the netlist. A back-to-back settle
    /// evaluates nothing.
    pub fn settle(&mut self) {
        if let Some(o) = &self.obs {
            o.settles.inc();
            o.frontier.record(self.work.pending());
        }
        let mut evals = 0u64;
        while let Some(pos) = self.work.pop() {
            evals += 1;
            if let Some(out) = self.eval_pos(pos) {
                self.work.mark_loads(&self.tables, out);
            }
        }
        if let Some(o) = &self.obs {
            o.cell_evals.add(evals);
        }
    }

    /// Advances one clock cycle in all 64 lanes: settle, capture,
    /// commit, settle.
    pub fn step(&mut self) {
        self.settle();
        // Capture.
        for s in 0..self.tables.seq_len() {
            let ins = self.tables.s_inputs(s);
            let n = ins.len();
            debug_assert!(
                n <= self.wbuf.len(),
                "sequential cell {s} fan-in {n} exceeds the sized input buffer"
            );
            for (k, src) in ins.enumerate() {
                let i = self.tables.s_ins[src] as usize;
                self.wbuf[k] = LogicWord {
                    ones: self.ones[i],
                    xs: self.xs[i],
                };
            }
            let next = self.tables.s_kind[s].eval_word(&self.wbuf[..n]);
            self.next_ones[s] = next.ones;
            self.next_xs[s] = next.xs;
        }
        // Commit.
        for s in 0..self.tables.seq_len() {
            let out = self.tables.s_out[s] as usize;
            let mut new = LogicWord {
                ones: self.next_ones[s],
                xs: self.next_xs[s],
            };
            if self.stuck_any {
                let m = self.stuck_mask[out];
                if m != 0 {
                    new.ones = (new.ones & !m) | (self.stuck_ones[out] & m);
                    new.xs &= !m;
                }
            }
            self.write_net(out, new);
        }
        self.cycles += 1;
        if let Some(o) = &self.obs {
            o.cycles.inc();
        }
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use scanguard_netlist::{CellId, NetlistBuilder};

    fn lib() -> CellLibrary {
        CellLibrary::st120nm()
    }

    /// A small design exercising every combinational kind plus scan
    /// flops: two scan registers feeding a mix of gates.
    fn mixed() -> (Netlist, Vec<CellId>) {
        let mut b = NetlistBuilder::new("mixed");
        let d0 = b.input("d0");
        let d1 = b.input("d1");
        let si = b.input("si");
        let se = b.input("se");
        let (q0, f0) = b.sdff("r0", d0, si, se);
        let (q1, f1) = b.sdff("r1", d1, q0, se);
        let a = b.and2(q0, q1);
        let o = b.or2(q0, d0);
        let x = b.xor2(a, o);
        let na = b.nand2(q1, x);
        let no = b.nor2(a, d1);
        let xn = b.xnor2(na, no);
        let m = b.mux2(q0, xn, x);
        let a3 = b.and3(q0, q1, x);
        let o3 = b.or3(na, no, m);
        let x3 = b.xor3(a3, o3, q0);
        let inv = b.not(x3);
        let buf = b.buf(inv);
        b.output("y", buf);
        b.output("so", q1);
        (b.finish().unwrap(), vec![f0, f1])
    }

    /// Drives the same deterministic stimulus through the scalar and
    /// wide simulators and checks every net in every lane each cycle.
    #[test]
    fn all_lanes_match_the_scalar_simulator_in_lockstep() {
        let (nl, _ffs) = mixed();
        let l = lib();
        let mut scalar = Simulator::new(&nl, &l);
        let mut wide = WideSimulator::new(&nl, &l);
        let ports = ["d0", "d1", "si", "se"];
        for cycle in 0..24u32 {
            for (k, name) in ports.iter().enumerate() {
                // A mix of 0/1/X stimulus, different per port and cycle.
                let v = match (cycle as usize + k) % 5 {
                    0 | 2 => Logic::Zero,
                    1 | 3 => Logic::One,
                    _ => Logic::X,
                };
                let net = nl.port(name).unwrap();
                scalar.set_net(net, v);
                wide.set_net(net, v);
            }
            scalar.step();
            wide.step();
            for net in 0..nl.net_count() {
                let id = NetId::from_index(net);
                let w = wide.value(id);
                assert_eq!(w.ones & w.xs, 0, "non-canonical word on {id}");
                for lane in [0, 1, 31, 63] {
                    assert_eq!(
                        w.lane(lane),
                        scalar.value(id),
                        "cycle {cycle}, net {id}, lane {lane}"
                    );
                }
            }
        }
    }

    /// Per-lane stuck-at forces must reproduce the scalar simulator's
    /// stuck-at behaviour lane by lane, with lane 0 left golden.
    #[test]
    fn stuck_lanes_match_scalar_stuck_at_runs() {
        let (nl, ffs) = mixed();
        let l = lib();
        let q0 = nl.cell(ffs[0]).output();
        let q1 = nl.cell(ffs[1]).output();
        // Lane 1: q0 stuck 0. Lane 2: q0 stuck 1. Lane 3: q1 stuck 0.
        let faults = [(q0, Logic::Zero), (q0, Logic::One), (q1, Logic::Zero)];

        let mut wide = WideSimulator::new(&nl, &l);
        for (k, &(net, level)) in faults.iter().enumerate() {
            wide.set_stuck_lane(net, k + 1, level);
        }
        let mut golden = Simulator::new(&nl, &l);
        let mut faulty: Vec<Simulator> = faults
            .iter()
            .map(|&(net, level)| {
                let mut s = Simulator::new(&nl, &l);
                s.set_stuck(net, level);
                s
            })
            .collect();

        let ports = ["d0", "d1", "si", "se"];
        for cycle in 0..16u32 {
            for (k, name) in ports.iter().enumerate() {
                let v = Logic::from((cycle as usize + k) % 3 == 0);
                let net = nl.port(name).unwrap();
                wide.set_net(net, v);
                golden.set_net(net, v);
                for f in &mut faulty {
                    f.set_net(net, v);
                }
            }
            wide.step();
            golden.step();
            for f in &mut faulty {
                f.step();
            }
            for net in 0..nl.net_count() {
                let id = NetId::from_index(net);
                let w = wide.value(id);
                assert_eq!(w.lane(0), golden.value(id), "golden lane, net {id}");
                for (k, f) in faulty.iter().enumerate() {
                    assert_eq!(
                        w.lane(k + 1),
                        f.value(id),
                        "cycle {cycle}, fault {k}, net {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn clear_stuck_restores_driver_values() {
        let (nl, ffs) = mixed();
        let l = lib();
        let q0 = nl.cell(ffs[0]).output();
        let mut wide = WideSimulator::new(&nl, &l);
        for name in ["d0", "d1", "si"] {
            wide.set_net(nl.port(name).unwrap(), Logic::One);
        }
        wide.set_net(nl.port("se").unwrap(), Logic::Zero);
        wide.set_stuck_lane(q0, 5, Logic::Zero);
        wide.step();
        assert_eq!(wide.value(q0).lane(5), Logic::Zero);
        assert_eq!(wide.value(q0).lane(0), Logic::One);
        wide.clear_stuck();
        wide.step();
        assert_eq!(wide.value(q0).lane(5), Logic::One, "lane healed");
    }

    #[test]
    fn force_ff_word_overrides_state_per_lane() {
        let (nl, ffs) = mixed();
        let l = lib();
        let mut wide = WideSimulator::new(&nl, &l);
        for name in ["d0", "d1", "si"] {
            wide.set_net(nl.port(name).unwrap(), Logic::One);
        }
        wide.set_net(nl.port("se").unwrap(), Logic::Zero);
        wide.step();
        let q0 = nl.cell(ffs[0]).output();
        assert_eq!(wide.value(q0).lane(7), Logic::One);
        let mut w = wide.value(q0);
        w.set_lane(7, Logic::Zero);
        wide.force_ff_word(ffs[0], w);
        wide.settle();
        assert_eq!(wide.value(q0).lane(7), Logic::Zero, "forced lane");
        assert_eq!(wide.value(q0).lane(0), Logic::One, "other lanes keep state");
        // The forced word propagates through downstream logic.
        let a = wide.value(nl.port("y").unwrap());
        assert_eq!(a.ones & (1 << 7) != 0, {
            let mut s = Simulator::new(&nl, &l);
            for name in ["d0", "d1", "si"] {
                s.set_net(nl.port(name).unwrap(), Logic::One);
            }
            s.set_net(nl.port("se").unwrap(), Logic::Zero);
            s.step();
            s.force_ff(ffs[0], Logic::Zero);
            s.settle();
            s.value(nl.port("y").unwrap()) == Logic::One
        });
    }

    #[test]
    #[should_panic(expected = "cell-driven")]
    fn setting_driven_net_panics() {
        let (nl, _) = mixed();
        let l = lib();
        let mut wide = WideSimulator::new(&nl, &l);
        let y = nl.port("y").unwrap();
        wide.set_net(y, Logic::One);
    }
}
