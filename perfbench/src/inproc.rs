//! The two in-process workloads: the paper's sign-off flow on its own
//! design, and the ingest of a large synthesized netlist.
//!
//! Each repeats one operation on inputs fixed by the seed, so every
//! operation must reproduce the warm-up operation's outputs and its
//! deterministic work counters exactly.

use crate::{put_end_to_end, put_op_stats, stats, Args, Outcome, Rng, SETUPS};
use scanguard_core::{CodeChoice, ProtectedDesign, Synthesizer};
use scanguard_designs::{mesh, Fifo};
use scanguard_dft::{
    configure_test_mode, enumerate_faults, fault_coverage_obs, insert_scan, recover_scan_chains,
    Fault, FaultSimConfig, FaultSimEngine, ScanAccess, ScanChains, ScanConfig,
};
use scanguard_lint::{lint_netlist, rule_ids, RuleSet, Severity};
use scanguard_netlist::{from_verilog, to_verilog, CellLibrary, Netlist};
use scanguard_obs::{Lane, Level, Profile, Recorder, RecorderConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of an operation's wall time its named layer spans must cover.
const MIN_SPAN_COVER: f64 = 0.95;

/// What one operation produced.
struct Observed {
    /// Wall time of the operation's work, outside the output checks.
    ms: f64,
    /// Serialized outputs that must repeat exactly.
    fingerprint: String,
    /// Deterministic work counters that must repeat exactly.
    counters: BTreeMap<String, u64>,
}

impl Observed {
    fn same_work(&self, other: &Observed) -> Result<(), String> {
        if self.fingerprint != other.fingerprint {
            return Err("outputs differ from the warm-up operation's".into());
        }
        if self.counters != other.counters {
            let diff: Vec<String> = self
                .counters
                .iter()
                .filter(|(k, v)| other.counters.get(*k) != Some(v))
                .map(|(k, v)| format!("{k}={v} (warm-up {:?})", other.counters.get(k)))
                .collect();
            return Err(format!("work counters differ: {}", diff.join(", ")));
        }
        Ok(())
    }
}

/// Runs `f` inside a span named `name` on the main lane.
fn span<T>(rec: &Recorder, name: &str, f: impl FnOnce() -> T) -> T {
    rec.begin(Lane::Main, name, 0);
    let r = f();
    rec.end(Lane::Main, name, 0, Vec::new());
    r
}

/// A fresh recorder for one operation: counters always, spans when
/// `trace`.
fn recorder(trace: bool) -> Arc<Recorder> {
    Arc::new(Recorder::new(RecorderConfig {
        level: Level::Off,
        trace,
        metrics: true,
        capture_logs: false,
    }))
}

/// Finishes an operation: closes the root span and collects counters.
fn observe(
    rec: &Recorder,
    root: &str,
    started: Instant,
    fingerprint: String,
    cells: usize,
) -> Observed {
    rec.end(Lane::Main, root, 0, Vec::new());
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let mut counters = rec.metrics_snapshot().counters;
    counters.insert("netlist.cells".into(), cells as u64);
    Observed {
        ms,
        fingerprint,
        counters,
    }
}

/// Folds one traced operation's spans: total ms per span name, and the
/// share of the root span covered by its direct children.
fn fold(rec: &Recorder, root: &str) -> Result<(BTreeMap<String, f64>, f64), String> {
    let profile = Profile::from_events(&rec.events())?;
    profile.verify()?;
    let mut spans = BTreeMap::new();
    let mut cover = 0.0;
    for row in profile.flat() {
        if row.name == root {
            cover = 1.0 - row.self_ns as f64 / row.total_ns.max(1) as f64;
        }
        spans.insert(row.name, row.total_ns as f64 / 1e6);
    }
    Ok((spans, cover))
}

/// Sets up `SETUPS` times (each ending in a discarded warm-up
/// operation), then repeats the operation for the measured window.
fn drive<I>(
    args: &Args,
    root: &str,
    setup: impl Fn(&Args) -> Result<I, String>,
    op: impl Fn(&I, &Arc<Recorder>) -> Result<Observed, String>,
) -> Result<Outcome, String> {
    let mut out = Outcome {
        checks_ok: true,
        ..Outcome::default()
    };
    let mut setups = Vec::new();
    let mut prepared: Option<(I, Observed)> = None;
    for k in 0..SETUPS {
        // Free the previous inputs first so peak memory is one set's.
        drop(prepared.take());
        let t = Instant::now();
        let inputs = setup(args)?;
        let warm = op(&inputs, &recorder(false)).map_err(|e| format!("warm-up: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        eprintln!("perfbench: set-up {k}: {:.3} s", setups[k]);
        prepared = Some((inputs, warm));
    }
    let (inputs, reference) = prepared.expect("at least one set-up");

    // Wall times of the untraced operations.
    let mut op_ms = Vec::new();
    // (traced, ms) of the first operation of the current pair.
    let mut first: Option<(bool, f64)> = None;
    // (traced ms, untraced ms) per completed pair.
    let mut pairs = Vec::new();
    let mut span_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    // A traced run pairs each traced operation with an untraced
    // neighbour, so the tracing overhead is measured under the same host
    // conditions; the pattern U T T U U T ... puts the traced operation
    // first in every other pair, so an order effect cancels.
    while Instant::now() < deadline || (args.trace && pairs.is_empty() && i < 4) {
        let second = i % 2 == 1;
        let traced = args.trace && second == (i / 2).is_multiple_of(2);
        i += 1;
        let rec = recorder(traced);
        out.attempted += 1;
        let obs = match op(&inputs, &rec).and_then(|o| o.same_work(&reference).map(|()| o)) {
            Ok(o) => o,
            Err(e) => {
                out.fail(&format!("operation {i}: {e}"));
                first = None;
                continue;
            }
        };
        eprintln!(
            "perfbench: operation {i}: {:.2} ms{}",
            obs.ms,
            if traced { " (traced)" } else { "" }
        );
        if !traced {
            op_ms.push(obs.ms);
        }
        if !second {
            first = Some((traced, obs.ms));
        } else if let Some((was_traced, ms)) = first.take() {
            if was_traced != traced {
                pairs.push(if traced { (obs.ms, ms) } else { (ms, obs.ms) });
            }
        }
        if !traced {
            continue;
        }
        match fold(&rec, root) {
            Ok((spans, cover)) => {
                if cover < MIN_SPAN_COVER {
                    out.checks_ok = false;
                    eprintln!(
                        "perfbench: layer spans cover {:.1}% of operation {i} (< {:.0}%)",
                        cover * 100.0,
                        MIN_SPAN_COVER * 100.0
                    );
                }
                for (name, ms) in spans {
                    span_ms.entry(name).or_default().push(ms);
                }
            }
            Err(e) => {
                out.checks_ok = false;
                eprintln!("perfbench: trace of operation {i} is inconsistent: {e}");
            }
        }
    }
    eprintln!(
        "perfbench: {} operations in {:.1} s, median {:.2} ms",
        out.attempted,
        window.elapsed().as_secs_f64(),
        stats::median(&op_ms)
    );
    if args.trace {
        let spans: BTreeMap<String, f64> = span_ms
            .iter()
            .map(|(k, v)| (k.clone(), stats::median(v)))
            .collect();
        put_layers(&mut out, &spans, &reference.counters);
        let total_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
        put_op_stats(&mut out, &op_ms, op_ms.len() as f64 / total_s);
        let ratios: Vec<f64> = pairs.iter().map(|(t, u)| t / u).collect();
        out.put(
            "obs.trace_overhead_pct",
            (stats::median(&ratios) - 1.0) * 100.0,
        );
    } else {
        put_end_to_end(&mut out, &setups, &op_ms, crate::peak_rss_mb("self"));
    }
    Ok(out)
}

/// The per-layer table from median span times and the work counters.
fn put_layers(out: &mut Outcome, spans: &BTreeMap<String, f64>, counters: &BTreeMap<String, u64>) {
    let ms = |name: &str| spans.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let cells = count("netlist.cells");
    out.put("netlist.cells", cells);
    out.put("netlist.from_verilog_ms", ms("netlist.from_verilog"));
    out.put(
        "netlist.import_ns_per_cell",
        per(ms("netlist.from_verilog") * 1e6, cells),
    );
    out.put("netlist.to_verilog_ms", ms("netlist.to_verilog"));
    out.put(
        "netlist.export_ns_per_cell",
        per(ms("netlist.to_verilog") * 1e6, cells),
    );
    out.put("core.synth_ms", ms("core.synth"));
    out.put("core.sleep_wake_ms", ms("core.sleep_wake"));
    out.put("lint.rules_ms", ms("lint.rules"));
    for id in rule_ids() {
        out.put(&format!("lint.rule.{id}_ms"), ms(id));
    }
    let lanes = count("lint.upset.lanes");
    out.put("lint.upset_lanes", lanes);
    out.put(
        "lint.upset_us_per_lane",
        per((ms("SG205") + ms("SG206")) * 1e3, lanes),
    );
    out.put("dft.coverage_ms", ms("dft.coverage"));
    out.put("dft.recover_ms", ms("dft.recover"));
    out.put("dft.faults", count("dft.faults"));
    out.put("dft.faults_detected", count("dft.faults.detected"));
    let simulated = count("dft.cycles.simulated");
    let dropped = count("dft.cycles.dropped");
    out.put("dft.cycles_simulated", simulated);
    out.put("dft.cycles_dropped", dropped);
    out.put("dft.drop_ratio", per(dropped, simulated + dropped));
    let settles = count("sim.wide.settles");
    let evals = count("sim.wide.cell_evals");
    let cycles = count("sim.wide.cycles");
    out.put("sim.wide.settles", settles);
    out.put("sim.wide.cell_evals", evals);
    out.put("sim.wide.cycles", cycles);
    out.put("sim.wide.settles_per_cycle", per(settles, cycles));
    out.put(
        "sim.wide.ns_per_cell_eval",
        per(ms("dft.coverage") * 1e6, evals),
    );
    out.put("sim.cycles", count("sim.cycles"));
    out.put("sim.cell_evals", count("sim.cell_evals"));
}

// ---------------------------------------------------------------- sign-off

/// The paper's Sec. IV configuration: 80 chains, Hamming(7,4), a 4-pin
/// test-mode concatenation.
fn paper_synth(netlist: Netlist) -> Result<ProtectedDesign, String> {
    Synthesizer::new(netlist)
        .chains(80)
        .code(CodeChoice::hamming7_4())
        .test_width(4)
        .build()
        .map_err(|e| format!("synthesis: {e}"))
}

/// The gated-region single stuck-at faults of a protected design.
fn gated_faults(design: &ProtectedDesign) -> Vec<Fault> {
    enumerate_faults(&design.netlist)
        .into_iter()
        .filter(|f| f.cell.index() < design.gated_watermark)
        .collect()
}

/// Faults the sign-off simulates.
const SIGNOFF_FAULTS: usize = 63;

/// Fault-simulation threads. One: on a host with few cores, a second
/// thread measures the scheduler more than the simulator.
const SIGNOFF_THREADS: usize = 1;

struct SignoffInputs {
    /// Unprotected fifo32x32 as structural Verilog.
    src: String,
    /// Indices into the gated-region fault list.
    faults: Vec<usize>,
    /// Retention latch flipped during the wake-up: (chain, depth).
    upset: (usize, usize),
    /// Seed of the retained state loaded before sleeping.
    state_seed: u64,
    /// Seed of the fault-simulation test patterns.
    pattern_seed: u64,
}

fn signoff_setup(args: &Args) -> Result<SignoffInputs, String> {
    let fifo = Fifo::generate(32, 32);
    let src = to_verilog(&fifo.netlist);
    let design = paper_synth(fifo.netlist)?;
    let candidates = gated_faults(&design).len();
    // One fault from each of SIGNOFF_FAULTS equal strata of the list,
    // which runs in cell order: every seed samples the whole design
    // evenly, so the work per sign-off barely depends on the seed.
    let mut rng = Rng::new(args.seed);
    let order: Vec<usize> = (0..SIGNOFF_FAULTS)
        .map(|k| {
            let lo = k * candidates / SIGNOFF_FAULTS;
            let hi = (k + 1) * candidates / SIGNOFF_FAULTS;
            lo + rng.below(hi - lo)
        })
        .collect();
    let upset = (
        rng.below(design.chains.width()),
        rng.below(design.chain_len()),
    );
    Ok(SignoffInputs {
        src,
        faults: order,
        upset,
        state_seed: rng.next_u64() | 1,
        pattern_seed: rng.next_u64(),
    })
}

fn signoff_op(inp: &SignoffInputs, shared: &Arc<Recorder>) -> Result<Observed, String> {
    let rec: &Recorder = shared;
    let started = Instant::now();
    rec.begin(Lane::Main, "signoff", 0);
    let netlist = span(rec, "netlist.from_verilog", || from_verilog(&inp.src))
        .map_err(|e| format!("import: {e}"))?;
    let cells = netlist.cell_count();
    let design = span(rec, "core.synth", || paper_synth(netlist))?;
    let lint = span(rec, "lint.rules", || {
        design.lint(&RuleSet::full(), Some(rec))
    });
    let (chain, depth) = inp.upset;
    let wake = span(rec, "core.sleep_wake", || {
        let mut rt = design.runtime();
        rt.attach_obs(shared.clone());
        rt.load_random_state(inp.state_seed);
        rt.sleep_wake(|sim, chains| {
            sim.flip_retention(chains.chains[chain].cells[depth]);
            1
        })
    });
    let mut coverage = span(rec, "dft.coverage", || {
        let gated = gated_faults(&design);
        let faults = inp
            .faults
            .iter()
            .map(|&i| gated.get(i).copied())
            .collect::<Option<Vec<Fault>>>()
            .ok_or("the gated fault list shrank below the sample's indices")?;
        let tm = design
            .test_mode
            .as_ref()
            .ok_or("the paper design has no test mode")?;
        fault_coverage_obs(
            &design.netlist,
            ScanAccess::TestMode(&design.chains, tm),
            &design.library,
            &faults,
            &FaultSimConfig {
                patterns: 16,
                seed: inp.pattern_seed,
                max_faults: None,
                hold_low: design.monitor.hold_low_ports(),
                threads: SIGNOFF_THREADS,
                engine: FaultSimEngine::Wide,
            },
            Some(rec),
        )
        .map_err(|e| format!("fault simulation: {e}"))
    })?;
    if !lint.is_clean_at(Severity::Error) {
        return Err(format!("lint reports errors: {:?}", lint.worst()));
    }
    if wake.upsets != 1 || !wake.error_observed || !wake.state_intact() {
        return Err(format!(
            "sleep/wake: {} upsets, error observed {}, {} residual errors",
            wake.upsets, wake.error_observed, wake.residual_errors
        ));
    }
    if coverage.faults != SIGNOFF_FAULTS {
        return Err(format!("simulated {} faults", coverage.faults));
    }
    coverage.wall_ms = 0.0;
    let fingerprint = format!(
        "{}\n{} {} {} {} {}\n{}",
        serde_json::to_string(&lint).map_err(|e| e.to_string())?,
        wake.upsets,
        wake.error_observed,
        wake.done_observed,
        wake.residual_errors,
        wake.total_cycles,
        serde_json::to_string(&coverage).map_err(|e| e.to_string())?,
    );
    Ok(observe(rec, "signoff", started, fingerprint, cells))
}

/// `signoff-fifo32x32`: import, synthesize, lint (with the SG205/SG206
/// sweep), one sleep/wake with a seeded upset, and wide fault
/// simulation of a seeded 63-fault sample.
pub fn signoff(args: &Args) -> Result<Outcome, String> {
    drive(args, "signoff", signoff_setup, signoff_op)
}

// ------------------------------------------------------------------ ingest

struct IngestInputs {
    /// The scan-inserted mesh as structural Verilog.
    src: String,
    /// The scan chains as inserted, which recovery must rebuild.
    chains: ScanChains,
}

fn ingest_setup(args: &Args) -> Result<IngestInputs, String> {
    // A mesh of 12,800 flops in a seeded shape (the flop count, and so
    // the work, is the same for every seed), retention-scan inserted on
    // 16 chains with a 4-pin test mode. Recovery is defined on
    // scan-inserted netlists: it rejects a monitor-protected one, whose
    // parity-store flops lie on no chain.
    const SHAPES: [(usize, usize); 5] = [(128, 100), (100, 128), (80, 160), (160, 80), (64, 200)];
    let (rows, cols) = SHAPES[Rng::new(args.seed).below(SHAPES.len())];
    let mut netlist = mesh(rows, cols);
    let chains = insert_scan(&mut netlist, &ScanConfig::retention_with_chains(16))
        .map_err(|e| format!("scan insertion: {e}"))?;
    configure_test_mode(&mut netlist, &chains, 4).map_err(|e| format!("test mode: {e}"))?;
    let src = to_verilog(&netlist);
    eprintln!(
        "perfbench: mesh{rows}x{cols}: {} cells, {} bytes of Verilog",
        netlist.cell_count(),
        src.len()
    );
    Ok(IngestInputs { src, chains })
}

fn ingest_op(inp: &IngestInputs, shared: &Arc<Recorder>) -> Result<Observed, String> {
    let rec: &Recorder = shared;
    let started = Instant::now();
    rec.begin(Lane::Main, "ingest", 0);
    let netlist = span(rec, "netlist.from_verilog", || from_verilog(&inp.src))
        .map_err(|e| format!("import: {e}"))?;
    let chains = span(rec, "dft.recover", || recover_scan_chains(&netlist))
        .map_err(|e| format!("scan-chain recovery: {e}"))?;
    let lib = CellLibrary::st120nm();
    let lint = span(rec, "lint.rules", || {
        lint_netlist(&netlist, &lib, &RuleSet::all(), Some(rec))
    });
    let text = span(rec, "netlist.to_verilog", || to_verilog(&netlist));
    let observed = observe(rec, "ingest", started, String::new(), netlist.cell_count());
    if text != inp.src {
        return Err("the re-export differs from the imported text".into());
    }
    if chains != inp.chains {
        return Err(format!(
            "recovered {} chains, not the {} inserted",
            chains.width(),
            inp.chains.width()
        ));
    }
    if !lint.is_clean_at(Severity::Error) {
        return Err(format!("lint reports errors: {:?}", lint.worst()));
    }
    Ok(Observed {
        fingerprint: format!(
            "{}\n{} {}",
            serde_json::to_string(&lint).map_err(|e| e.to_string())?,
            chains.width(),
            chains.max_len()
        ),
        ..observed
    })
}

/// `ingest-mesh25k`: import a ~25.6k-cell scan-inserted mesh, recover its
/// scan chains, lint it structurally and export it again.
pub fn ingest(args: &Args) -> Result<Outcome, String> {
    drive(args, "ingest", ingest_setup, ingest_op)
}
