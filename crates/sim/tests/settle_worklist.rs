//! The event-driven settle on a design wide enough (more than 128
//! combinational cells) that its worklist spans several 64-bit words:
//! the wide engine must track the scalar engine net by net in every lane
//! through mid-run stuck-at forces, forced flop words and `clear_stuck`,
//! and a settle with nothing pending must evaluate nothing.

use scanguard_netlist::{CellId, CellLibrary, GateKind, Logic, NetId, Netlist, NetlistBuilder};
use scanguard_obs::{Recorder, RecorderConfig};
use scanguard_sim::{Simulator, WideSimulator};

const COMB_KINDS: [GateKind; 10] = [
    GateKind::Buf,
    GateKind::Not,
    GateKind::And2,
    GateKind::Nand2,
    GateKind::Or2,
    GateKind::Nor2,
    GateKind::Xor2,
    GateKind::Xnor2,
    GateKind::Mux2,
    GateKind::Xor3,
];

const INPUTS: usize = 6;
const FLOPS: usize = 12;
const GATES: usize = 300;

/// xorshift64: a fixed pseudo-random stream, so the design and the
/// stimulus are the same on every run.
fn xorshift(state: &mut u64) -> usize {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state as usize
}

/// A seeded random sequential design: `INPUTS` primary inputs, `FLOPS`
/// flip-flops and `GATES` combinational cells, each reading recent nets
/// so the logic is deep as well as wide. Returns the netlist and the
/// flop cells.
fn random_design(seed: u64) -> (Netlist, Vec<CellId>) {
    let mut rng = seed;
    let mut b = NetlistBuilder::new("wide_rand");
    let inputs = b.input_bus("i", INPUTS);
    let mut ds = Vec::new();
    let mut ffs = Vec::new();
    let mut pool: Vec<NetId> = inputs;
    for k in 0..FLOPS {
        let d = b.net(&format!("d{k}"));
        let (q, ff) = b.dff(&format!("r{k}"), d);
        ds.push(d);
        ffs.push(ff);
        pool.push(q);
    }
    for _ in 0..GATES {
        let kind = COMB_KINDS[xorshift(&mut rng) % COMB_KINDS.len()];
        let window = pool.len().min(48);
        let nets = (0..kind.input_count())
            .map(|_| pool[pool.len() - 1 - xorshift(&mut rng) % window])
            .collect();
        pool.push(b.cell(kind, nets));
    }
    for (k, &d) in ds.iter().enumerate() {
        b.connect(d, pool[pool.len() - 1 - 7 * k]);
    }
    b.output("y", *pool.last().expect("gates exist"));
    (b.finish().expect("random design is acyclic"), ffs)
}

/// Stuck-at faults for lanes `1..=faults.len()`: a spread of gate and
/// flop outputs, alternating levels.
fn pick_faults(nl: &Netlist) -> Vec<(NetId, Logic)> {
    nl.cells()
        .map(|(_, c)| c.output())
        .step_by(13)
        .enumerate()
        .map(|(k, net)| (net, Logic::from(k % 2 == 0)))
        .collect()
}

/// The settle contract, checked without any simulator's worklist: every
/// combinational output equals its gate applied to its current inputs,
/// or the net's stuck-at level.
fn assert_settled(nl: &Netlist, sim: &Simulator, stuck: Option<(NetId, Logic)>, when: &str) {
    for (_, cell) in nl.cells() {
        if cell.kind().is_sequential() {
            continue;
        }
        let out = cell.output();
        let want = match stuck {
            Some((net, level)) if net == out => level,
            _ => {
                let ins: Vec<Logic> = cell.inputs().iter().map(|&n| sim.value(n)).collect();
                cell.kind().eval(&ins)
            }
        };
        assert_eq!(sim.value(out), want, "{when}: stale net {out}");
    }
}

#[test]
fn wide_tracks_scalar_net_by_net_through_mid_run_forces() {
    let (nl, ffs) = random_design(0x5eed_cafe);
    let lib = CellLibrary::st120nm();
    assert!(
        nl.cells()
            .filter(|(_, c)| !c.kind().is_sequential())
            .count()
            > 128
    );
    let faults = pick_faults(&nl);
    assert!(faults.len() < 63, "one lane per fault plus the golden lane");

    let mut wide = WideSimulator::new(&nl, &lib);
    // Lane 0 is golden, lane k >= 1 carries fault k - 1; lanes past the
    // faults stay golden.
    let mut scalar: Vec<Simulator> = (0..=faults.len())
        .map(|_| Simulator::new(&nl, &lib))
        .collect();
    let scalar_of = |lane: usize| if lane <= faults.len() { lane } else { 0 };
    let inputs: Vec<NetId> = (0..INPUTS)
        .map(|k| nl.port(&format!("i[{k}]")).expect("input port"))
        .collect();

    let check = |wide: &WideSimulator, scalar: &[Simulator], cycle: usize, when: &str| {
        let when = format!("cycle {cycle} {when}");
        for (k, s) in scalar.iter().enumerate() {
            let stuck = (k > 0 && (8..36).contains(&cycle)).then(|| faults[k - 1]);
            assert_settled(&nl, s, stuck, &format!("{when}, scalar {k}"));
        }
        for net in 0..nl.net_count() {
            let id = NetId::from_index(net);
            let w = wide.value(id);
            for lane in 0..64 {
                assert_eq!(
                    w.lane(lane),
                    scalar[scalar_of(lane)].value(id),
                    "{when}: net {id}, lane {lane}"
                );
            }
        }
    };

    let mut rng = 0xd15e_a5e5_u64;
    for cycle in 0..48 {
        for &net in &inputs {
            let v = match xorshift(&mut rng) % 5 {
                0 | 1 => Logic::Zero,
                2 | 3 => Logic::One,
                _ => Logic::X,
            };
            wide.set_net(net, v);
            for s in &mut scalar {
                s.set_net(net, v);
            }
        }
        match cycle {
            8 => {
                for (k, &(net, level)) in faults.iter().enumerate() {
                    wide.set_stuck_lane(net, k + 1, level);
                    scalar[k + 1].set_stuck(net, level);
                }
            }
            20 | 28 => {
                // Flip a different lane subset of every flop; the spare
                // golden lanes flip with lane 0, so they stay golden.
                for (f, &ff) in ffs.iter().enumerate() {
                    let mut w = wide.value(nl.cell(ff).output());
                    for lane in 0..64 {
                        if (scalar_of(lane) + f + cycle) % 3 == 0 {
                            w.set_lane(lane, !w.lane(lane));
                        }
                    }
                    wide.force_ff_word(ff, w);
                    for (k, s) in scalar.iter_mut().enumerate() {
                        s.force_ff(ff, w.lane(k));
                    }
                }
            }
            36 => {
                wide.clear_stuck();
                for s in &mut scalar {
                    s.clear_stuck();
                }
            }
            _ => {}
        }
        wide.settle();
        for s in &mut scalar {
            s.settle();
        }
        check(&wide, &scalar, cycle, "settle");
        wide.step();
        for s in &mut scalar {
            s.step();
        }
        check(&wide, &scalar, cycle, "step");
    }
}

#[test]
fn a_back_to_back_settle_evaluates_nothing_in_either_engine() {
    let (nl, _) = random_design(7);
    let lib = CellLibrary::st120nm();
    let rec = Recorder::new(RecorderConfig {
        metrics: true,
        ..RecorderConfig::default()
    });
    let mut scalar = Simulator::new(&nl, &lib);
    let mut wide = WideSimulator::new(&nl, &lib);
    scalar.attach_obs(&rec);
    wide.attach_obs(&rec);
    let evals = || {
        let c = rec.metrics_snapshot().counters;
        (c["sim.cell_evals"], c["sim.wide.cell_evals"])
    };
    for cycle in 0..6 {
        for k in 0..INPUTS {
            let net = nl.port(&format!("i[{k}]")).expect("input port");
            let v = Logic::from((cycle + k) % 3 == 0);
            scalar.set_net(net, v);
            wide.set_net(net, v);
        }
        let before = evals();
        scalar.settle();
        wide.settle();
        let first = evals();
        assert!(
            first.0 > before.0 && first.1 > before.1,
            "cycle {cycle}: inputs changed"
        );
        scalar.settle();
        wide.settle();
        assert_eq!(
            evals(),
            first,
            "cycle {cycle}: a quiet settle evaluated cells"
        );
        scalar.step();
        wide.step();
    }
    let snap = rec.metrics_snapshot();
    assert_eq!(
        snap.counters["sim.settles"],
        snap.counters["sim.wide.settles"]
    );
    for name in ["sim.settle.frontier", "sim.wide.settle.frontier"] {
        let h = &snap.histograms[name];
        assert_eq!(h.count, snap.counters["sim.settles"], "{name}");
        assert_eq!(h.min, 0, "{name}: the quiet settles had no frontier");
    }
}
