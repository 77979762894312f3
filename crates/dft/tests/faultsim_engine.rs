//! The fault-dropping parallel fault-simulation engine against a real
//! design: the `CoverageReport` is a pure function of the configuration
//! — the thread count changes wall-clock time and nothing else.

use scanguard_designs::Fifo;
use scanguard_dft::{
    enumerate_faults, fault_coverage_obs, CoverageReport, FaultSimConfig, FaultSimEngine,
    ScanAccess,
};
use scanguard_dft::{insert_scan, ScanConfig};
use scanguard_netlist::CellLibrary;
use scanguard_obs::{Recorder, RecorderConfig};

fn fifo_coverage_with(threads: usize, engine: FaultSimEngine) -> CoverageReport {
    fifo_coverage_obs(threads, engine, None)
}

fn fifo_coverage_obs(
    threads: usize,
    engine: FaultSimEngine,
    obs: Option<&Recorder>,
) -> CoverageReport {
    let fifo = Fifo::generate(8, 8);
    let mut nl = fifo.netlist;
    let chains = insert_scan(&mut nl, &ScanConfig::with_chains(8)).unwrap();
    let lib = CellLibrary::st120nm();
    let faults = enumerate_faults(&nl);
    fault_coverage_obs(
        &nl,
        ScanAccess::Direct(&chains),
        &lib,
        &faults,
        &FaultSimConfig {
            patterns: 6,
            max_faults: Some(80),
            threads,
            engine,
            ..FaultSimConfig::default()
        },
        obs,
    )
    .expect("fault simulation")
}

fn fifo_coverage(threads: usize) -> CoverageReport {
    fifo_coverage_with(threads, FaultSimEngine::Scalar)
}

#[test]
fn parallel_report_matches_serial_byte_for_byte() {
    let serial = fifo_coverage(1);
    let parallel = fifo_coverage(8);
    assert_eq!(serial, parallel, "thread count leaked into the report");
    let normalize = |mut r: CoverageReport| {
        r.wall_ms = 0.0; // the only timing-dependent field
        serde_json::to_string(&r).unwrap()
    };
    assert_eq!(
        normalize(serial).into_bytes(),
        normalize(parallel).into_bytes()
    );
}

#[test]
fn wide_engine_matches_scalar_on_a_real_design() {
    let normalize = |mut r: CoverageReport| {
        r.wall_ms = 0.0;
        serde_json::to_string(&r).unwrap()
    };
    let scalar = normalize(fifo_coverage_with(1, FaultSimEngine::Scalar));
    for threads in [1, 8] {
        let wide = normalize(fifo_coverage_with(threads, FaultSimEngine::Wide));
        assert_eq!(
            scalar, wide,
            "wide engine diverged on the fifo at {threads} threads"
        );
    }
}

#[test]
fn dropping_accounts_for_every_fault() {
    let report = fifo_coverage(4);
    assert!(report.faults > 0);
    let histogram_total: usize = report.detected_at_pattern.iter().sum();
    assert_eq!(
        histogram_total, report.detected,
        "each detected fault lands in exactly one histogram bucket"
    );
    assert!(
        report.dropped_cycles > 0,
        "a detectable design must let the simulator drop work: {report:?}"
    );
    assert!(report.coverage_pct().expect("faults simulated") > 50.0);
}

/// The simulators' work counters for one fixed run pin *which* cells
/// every settle evaluates: a settle that skips a cell with a changed
/// input, or evaluates one without, moves them. Any settle rewrite must
/// leave these numbers exactly where they are.
#[test]
fn work_counters_are_pinned() {
    let counters = |engine: FaultSimEngine| {
        let rec = Recorder::new(RecorderConfig {
            metrics: true,
            ..RecorderConfig::default()
        });
        fifo_coverage_obs(1, engine, Some(&rec));
        rec.metrics_snapshot().counters
    };
    let wide = counters(FaultSimEngine::Wide);
    let scalar = counters(FaultSimEngine::Scalar);
    assert_eq!(wide["sim.wide.settles"], 456, "{wide:?}");
    assert_eq!(wide["sim.wide.cell_evals"], 25_303, "{wide:?}");
    assert_eq!(wide["sim.wide.cycles"], 152, "{wide:?}");
    assert_eq!(scalar["sim.cell_evals"], 360_098, "{scalar:?}");
    assert_eq!(scalar["sim.cycles"], 2_572, "{scalar:?}");
    assert_eq!(scalar["sim.settles"], 7_734, "{scalar:?}");
    // Both engines simulate the same test, so the fault-level counters
    // agree across them.
    for key in [
        "dft.cycles.simulated",
        "dft.cycles.dropped",
        "dft.faults.detected",
    ] {
        assert_eq!(wide[key], scalar[key], "{key}");
    }
}
