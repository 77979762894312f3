//! Seeded benchmark of the scanguard stack.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scanguard PATH]
//! ```
//!
//! Workloads:
//!
//! * `signoff-fifo32x32` — the paper's whole flow on its own design,
//!   in process (import, synthesis, full lint, one sleep/wake, wide
//!   fault simulation);
//! * `ingest-mesh25k` — import, scan-chain recovery, structural lint
//!   and re-export of a ~25.6k-cell scan-inserted mesh, in process;
//! * `daemon-mix` — two closed-loop NDJSON clients against a
//!   `scanguard serve --tcp` process (`--scanguard` names its binary).
//!
//! With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer table, built from
//! spans the benchmark wraps around each layer's public entry points
//! and from the counters those entry points already record. Every
//! operation's output is checked; failures are counted, never dropped.

mod inproc;
mod mix;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Every workload, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["signoff-fifo32x32", "ingest-mesh25k", "daemon-mix"];

/// Times the benchmark sets a workload up; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// End-to-end metrics and their units, reported on every untraced run.
/// Latency is reported by its fast tail: on a shared host, interference
/// from other tenants only ever adds time, in bursts, so the fast
/// operations of a run measure the program and the slow ones the
/// neighbours. The median and p90 are in the per-layer table.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("op_p10_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics and their units, reported on every traced run. A
/// layer the workload does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("op.p50_ms", "ms"),
    ("op.p90_ms", "ms"),
    ("op.per_s", "1/s"),
    ("netlist.from_verilog_ms", "ms"),
    ("netlist.import_ns_per_cell", "ns"),
    ("netlist.to_verilog_ms", "ms"),
    ("netlist.export_ns_per_cell", "ns"),
    ("netlist.cells", "count"),
    ("core.synth_ms", "ms"),
    ("core.sleep_wake_ms", "ms"),
    ("lint.rules_ms", "ms"),
    ("lint.rule.SG001_ms", "ms"),
    ("lint.rule.SG002_ms", "ms"),
    ("lint.rule.SG003_ms", "ms"),
    ("lint.rule.SG004_ms", "ms"),
    ("lint.rule.SG005_ms", "ms"),
    ("lint.rule.SG101_ms", "ms"),
    ("lint.rule.SG102_ms", "ms"),
    ("lint.rule.SG103_ms", "ms"),
    ("lint.rule.SG104_ms", "ms"),
    ("lint.rule.SG201_ms", "ms"),
    ("lint.rule.SG202_ms", "ms"),
    ("lint.rule.SG203_ms", "ms"),
    ("lint.rule.SG204_ms", "ms"),
    ("lint.rule.SG205_ms", "ms"),
    ("lint.rule.SG206_ms", "ms"),
    ("lint.rule.SG301_ms", "ms"),
    ("lint.rule.SG302_ms", "ms"),
    ("lint.upset_lanes", "count"),
    ("lint.upset_us_per_lane", "us"),
    ("dft.coverage_ms", "ms"),
    ("dft.recover_ms", "ms"),
    ("dft.faults", "count"),
    ("dft.faults_detected", "count"),
    ("dft.cycles_simulated", "count"),
    ("dft.cycles_dropped", "count"),
    ("dft.drop_ratio", "ratio"),
    ("sim.wide.settles", "count"),
    ("sim.wide.cell_evals", "count"),
    ("sim.wide.cycles", "count"),
    ("sim.wide.settles_per_cycle", "ratio"),
    ("sim.wide.ns_per_cell_eval", "ns"),
    ("sim.cycles", "count"),
    ("sim.cell_evals", "count"),
    ("rpc.status_ms", "ms"),
    ("rpc.connect_ms", "ms"),
    ("rpc.lint_ms", "ms"),
    ("rpc.coverage_ms", "ms"),
    ("rpc.explore_ms", "ms"),
    ("rpc.import_hit_ms", "ms"),
    ("rpc.import_miss_ms", "ms"),
    ("rpc.verify_hit_ms", "ms"),
    ("rpc.verify_miss_ms", "ms"),
    ("serve.threads_peak", "count"),
    ("serve.inflight_max", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("store.hit_ratio", "ratio"),
    ("par.budget_waiters_max", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scanguard: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut opts: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_owned(), value);
    }
    let get = |key: &str| {
        opts.get(key)
            .cloned()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (valid: {})",
            WORKLOADS.join(" ")
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    for key in opts.keys() {
        if !["workload", "seed", "seconds", "trace", "scanguard"].contains(&key.as_str()) {
            return Err(format!("unknown option --{key}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scanguard: opts.get("scanguard").cloned(),
    })
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted inside the measured window.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Set-up checks and trace-consistency checks all held.
    pub checks_ok: bool,
    /// Metric name -> value; units come from `END_TO_END` and
    /// `LAYER_METRICS`.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records one metric.
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Counts a failed operation, with the reason on stderr.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {why}");
    }
}

/// End-to-end metrics shared by every workload.
pub fn put_end_to_end(out: &mut Outcome, setups: &[f64], op_ms: &[f64], rss_mb: f64) {
    let values = [stats::median(setups), stats::percentile(op_ms, 0.1), rss_mb];
    for ((name, _), value) in END_TO_END.iter().zip(values) {
        out.put(name, value);
    }
}

/// The per-layer `op.*` metrics: median and p90 latency of the
/// untraced operations of a traced run, and operations per second.
pub fn put_op_stats(out: &mut Outcome, op_ms: &[f64], ops_per_s: f64) {
    out.put("op.p50_ms", stats::median(op_ms));
    out.put("op.p90_ms", stats::percentile(op_ms, 0.9));
    out.put("op.per_s", ops_per_s);
}

/// Peak resident set of `pid` (or `self`) in MB, from `VmHWM`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    proc_status_field(pid, "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// A numeric field of `/proc/<pid>/status` (kB fields in kB).
pub fn proc_status_field(pid: &str, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix(key)?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    })
}

/// SplitMix64: the benchmark's own input generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5CA7_6A2D_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "signoff-fifo32x32" => inproc::signoff(&args),
        "ingest-mesh25k" => inproc::ingest(&args),
        "daemon-mix" => mix::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let table = if args.trace {
        LAYER_METRICS
    } else {
        END_TO_END
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(*name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(value)
            )
        })
        .collect();
    let correct = out.checks_ok && out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}
