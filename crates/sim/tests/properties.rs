//! Property-based tests of the simulator against direct functional
//! models: randomly generated combinational DAGs and shift structures
//! must evaluate exactly as software reference implementations do.

use proptest::prelude::*;
use scanguard_netlist::{CellLibrary, GateKind, Logic, NetId, Netlist, NetlistBuilder};
use scanguard_sim::Simulator;

/// A recipe for one random combinational gate: kind index + input picks.
#[derive(Debug, Clone)]
struct GateRecipe {
    kind: usize,
    a: usize,
    b: usize,
    c: usize,
}

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

fn gate_strategy() -> impl Strategy<Value = GateRecipe> {
    (
        0..COMB_KINDS.len(),
        any::<usize>(),
        any::<usize>(),
        any::<usize>(),
    )
        .prop_map(|(kind, a, b, c)| GateRecipe { kind, a, b, c })
}

/// Builds a DAG: each gate may use primary inputs or earlier gate
/// outputs. Returns the netlist, its nets (the inputs, then each gate's
/// output in creation order) and, for the reference model, the
/// structure `(kind, input net indices)` per gate in creation order.
type GateStructure = Vec<(GateKind, Vec<usize>)>;

fn build_random(n_inputs: usize, recipes: &[GateRecipe]) -> (Netlist, Vec<NetId>, GateStructure) {
    let mut b = NetlistBuilder::new("rand");
    let inputs = b.input_bus("i", n_inputs);
    let mut pool: Vec<NetId> = inputs;
    let mut structure = Vec::new();
    for r in recipes {
        let kind = COMB_KINDS[r.kind];
        let pick = |sel: usize| sel % pool.len();
        let idxs: Vec<usize> = match kind.input_count() {
            1 => vec![pick(r.a)],
            2 => vec![pick(r.a), pick(r.b)],
            3 => vec![pick(r.a), pick(r.b), pick(r.c)],
            _ => unreachable!("combinational kinds have 1..=3 inputs"),
        };
        let nets: Vec<NetId> = idxs.iter().map(|&i| pool[i]).collect();
        let y = b.cell(kind, nets);
        structure.push((kind, idxs));
        pool.push(y);
    }
    let last = *pool.last().expect("non-empty pool");
    b.output("y", last);
    // Every intermediate is implicitly reachable or not; both are legal.
    let nl = b.finish().expect("random DAG is acyclic by construction");
    (nl, pool, structure)
}

/// Reference evaluation of the same structure: the value of every net,
/// in [`build_random`]'s net order.
fn reference_eval(
    n_inputs: usize,
    structure: &[(GateKind, Vec<usize>)],
    input_values: &[Logic],
) -> Vec<Logic> {
    let mut values: Vec<Logic> = input_values[..n_inputs].to_vec();
    for (kind, idxs) in structure {
        let ins: Vec<Logic> = idxs.iter().map(|&i| values[i]).collect();
        values.push(kind.eval(&ins));
    }
    values
}

fn logic_strategy() -> impl Strategy<Value = Logic> {
    prop_oneof![Just(Logic::Zero), Just(Logic::One), Just(Logic::X)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The levelized simulator computes exactly what direct recursive
    /// evaluation of the DAG computes — including X propagation — on
    /// every net, both from the first (full) settle and from an
    /// incremental settle after the inputs change.
    #[test]
    fn random_dag_matches_reference(
        recipes in proptest::collection::vec(gate_strategy(), 1..200),
        input_values in proptest::collection::vec(logic_strategy(), 4),
        next_values in proptest::collection::vec(logic_strategy(), 4),
    ) {
        let (nl, nets, structure) = build_random(4, &recipes);
        let lib = CellLibrary::st120nm();
        let mut sim = Simulator::new(&nl, &lib);
        for values in [&input_values, &next_values] {
            for (&net, &v) in nets.iter().zip(values) {
                sim.set_net(net, v);
            }
            sim.settle();
            let expected = reference_eval(4, &structure, values);
            for (&net, &want) in nets.iter().zip(&expected) {
                prop_assert_eq!(sim.value(net), want, "net {}", net);
            }
        }
    }

    /// Settling is idempotent: a second settle changes nothing and costs
    /// no energy.
    #[test]
    fn settle_is_a_fixpoint(
        recipes in proptest::collection::vec(gate_strategy(), 1..200),
        input_values in proptest::collection::vec(logic_strategy(), 4),
    ) {
        let (nl, nets, _) = build_random(4, &recipes);
        let lib = CellLibrary::st120nm();
        let mut sim = Simulator::new(&nl, &lib);
        for (&net, &v) in nets.iter().zip(&input_values) {
            sim.set_net(net, v);
        }
        sim.settle();
        let before = sim.port_value("y").expect("port y");
        let _ = sim.take_energy();
        sim.settle();
        prop_assert_eq!(sim.port_value("y").expect("port y"), before);
        prop_assert_eq!(sim.take_energy().toggles, 0);
    }

    /// A shift register of length n delays any bit pattern by exactly n.
    #[test]
    fn shift_register_is_a_pure_delay(
        n in 1usize..24,
        pattern in proptest::collection::vec(any::<bool>(), 1..48),
    ) {
        let mut b = NetlistBuilder::new("delay");
        let si = b.input("si");
        let mut prev = si;
        for i in 0..n {
            let (q, _) = b.dff(&format!("s{i}"), prev);
            prev = q;
        }
        b.output("so", prev);
        let nl = b.finish().expect("valid");
        let lib = CellLibrary::st120nm();
        let mut sim = Simulator::new(&nl, &lib);
        let mut observed = Vec::new();
        for (t, &bit) in pattern.iter().enumerate() {
            sim.set_port("si", Logic::from(bit)).expect("si");
            sim.settle();
            if t >= n {
                observed.push(sim.port_value("so").expect("so"));
            }
            sim.step();
        }
        let expected: Vec<Logic> = pattern
            .iter()
            .take(pattern.len().saturating_sub(n))
            .map(|&b| Logic::from(b))
            .collect();
        prop_assert_eq!(observed, expected);
    }
}
