//! `daemon-mix`: two closed-loop NDJSON clients against a
//! `scanguard serve --tcp` process on loopback.
//!
//! Each client holds one persistent connection and sends its next
//! request only after the previous reply, from a seeded shuffle of a
//! fixed mix. About one in four `import`/`verify` requests carries
//! content no earlier request of the run had (a store miss and a
//! write); the rest repeat content the warm-up stored (a store hit).
//! Clients never share novel content, so which requests hit is fixed
//! by the seed, not by scheduling.

use crate::{
    peak_rss_mb, proc_status_field, put_end_to_end, put_op_stats, stats, Args, Outcome, Rng, SETUPS,
};
use scanguard_core::{CodeChoice, Synthesizer};
use scanguard_designs::mesh;
use scanguard_lint::rule_ids;
use scanguard_netlist::to_verilog;
use scanguard_obs::{Lane, Level, Profile, Recorder, RecorderConfig};
use serde::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;

/// Fresh connections timed for `rpc.connect_ms` on a traced run.
const CONNECT_PROBES: usize = 5;

/// Request kinds as the mix labels them; import and verify split by
/// whether the store already holds the content.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum Label {
    Status,
    Lint,
    VerifyHit,
    VerifyMiss,
    ImportHit,
    ImportMiss,
    Explore,
    Coverage,
}

impl Label {
    const ALL: [Label; 8] = [
        Label::Status,
        Label::Lint,
        Label::VerifyHit,
        Label::VerifyMiss,
        Label::ImportHit,
        Label::ImportMiss,
        Label::Explore,
        Label::Coverage,
    ];

    fn name(self) -> &'static str {
        match self {
            Label::Status => "status",
            Label::Lint => "lint",
            Label::VerifyHit => "verify_hit",
            Label::VerifyMiss => "verify_miss",
            Label::ImportHit => "import_hit",
            Label::ImportMiss => "import_miss",
            Label::Explore => "explore",
            Label::Coverage => "coverage",
        }
    }
}

/// Request slots per block of 20: status 10%, lint 15%, verify 15%,
/// import 25%, explore 10%, coverage 25%.
const BLOCK: [(Label, usize); 6] = [
    (Label::Status, 2),
    (Label::Lint, 3),
    (Label::VerifyHit, 3),
    (Label::ImportHit, 5),
    (Label::Explore, 2),
    (Label::Coverage, 5),
];

/// Import/verify slots per block that carry novel content (2 of 8).
const NOVEL_PER_BLOCK: usize = 2;

/// Repeated request bodies (everything after the `id` member).
const LINT: &str = r#""type":"lint","design":"fifo8x8"}"#;
const VERIFY_BASE: [&str; 2] = [
    r#""type":"verify","design":"fifo8x8"}"#,
    r#""type":"verify","design":"fifo16x16"}"#,
];
const EXPLORE: &str = r#""type":"explore","design":"fifo8x8"}"#;
const COVERAGE: &str = r#""type":"coverage","depth":8,"width":8,"chains":8,"patterns":16,"max_faults":63,"engine":"wide"}"#;
const STATUS: &str = r#""type":"status"}"#;
const METRICS: &str = r#""type":"metrics","deterministic":true}"#;

/// The design every `import` request carries, and the module-name
/// prefix novel copies rename.
const IMPORT_MODULE: &str = "module mesh32x32";

/// Designs the verify requests name.
const VERIFY_DESIGNS: [&str; 2] = ["fifo8x8", "fifo16x16"];

/// The rule list of a novel verify: SG205 and SG206 plus the cheap
/// rules whose bits are set in `mask`, in registry order. Mask 0 is the
/// repeated requests' default list.
fn verify_rules(mask: u32) -> String {
    let extra = rule_ids()
        .into_iter()
        .filter(|id| !["SG205", "SG206"].contains(id));
    let mut ids = vec!["SG205", "SG206"];
    ids.extend(
        extra
            .enumerate()
            .filter(|(bit, _)| mask >> bit & 1 == 1)
            .map(|(_, id)| id),
    );
    ids.join(",")
}

/// Cheap rules a novel verify may add.
const EXTRA_RULES: u32 = 15;

/// One request to send.
struct Planned {
    label: Label,
    /// Body after the `id` member.
    body: String,
    /// Key of the reference reply for repeated content.
    reference: Option<String>,
}

/// A client's seeded request stream.
struct Plan {
    rng: Rng,
    client: usize,
    tag: u64,
    queue: Vec<(Label, bool)>,
    novel_imports: usize,
    seen_verifies: HashSet<(usize, u32)>,
}

impl Plan {
    fn new(seed: u64, client: usize) -> Plan {
        let mut rng = Rng::new(seed ^ (0xC11E_0000 + client as u64));
        Plan {
            tag: rng.next_u64(),
            rng,
            client,
            queue: Vec::new(),
            novel_imports: 0,
            seen_verifies: HashSet::new(),
        }
    }

    /// Refills the queue with one shuffled block.
    fn refill(&mut self) {
        let mut slots: Vec<(Label, bool)> = BLOCK
            .iter()
            .flat_map(|&(label, n)| std::iter::repeat_n((label, false), n))
            .collect();
        self.rng.shuffle(&mut slots);
        let mut store_slots: Vec<usize> = (0..slots.len())
            .filter(|&i| matches!(slots[i].0, Label::ImportHit | Label::VerifyHit))
            .collect();
        self.rng.shuffle(&mut store_slots);
        for &i in store_slots.iter().take(NOVEL_PER_BLOCK) {
            slots[i].1 = true;
        }
        // Popped from the back.
        slots.reverse();
        self.queue = slots;
    }

    fn next(&mut self, sources: &Sources) -> Planned {
        if self.queue.is_empty() {
            self.refill();
        }
        let (label, novel) = self.queue.pop().expect("refilled");
        match (label, novel) {
            (Label::ImportHit, false) => Planned {
                label,
                body: sources.import_body(None),
                reference: Some("import".into()),
            },
            (Label::ImportHit, true) => {
                self.novel_imports += 1;
                let name = format!(
                    "{}_{:x}_{}_{}",
                    IMPORT_MODULE, self.tag, self.client, self.novel_imports
                );
                Planned {
                    label: Label::ImportMiss,
                    body: sources.import_body(Some(&name)),
                    reference: None,
                }
            }
            (Label::VerifyHit, false) => {
                let body = VERIFY_BASE[self.rng.below(VERIFY_BASE.len())];
                Planned {
                    label,
                    body: body.into(),
                    reference: Some(body.into()),
                }
            }
            (Label::VerifyHit, true) => {
                // Clients draw disjoint rule lists: odd masks for one,
                // even nonzero masks for the other.
                let design = self.rng.below(VERIFY_DESIGNS.len());
                let mask = loop {
                    let m = (self.rng.next_u64() % (1 << EXTRA_RULES)) as u32;
                    if m != 0 && m as usize % CLIENTS == self.client {
                        break m;
                    }
                };
                let body = format!(
                    r#""type":"verify","design":"{}","rules":"{}"}}"#,
                    VERIFY_DESIGNS[design],
                    verify_rules(mask)
                );
                let label = if self.seen_verifies.insert((design, mask)) {
                    Label::VerifyMiss
                } else {
                    Label::VerifyHit
                };
                Planned {
                    label,
                    body,
                    reference: None,
                }
            }
            (Label::Status, _) => Planned {
                label,
                body: STATUS.into(),
                reference: None,
            },
            (Label::Lint, _) => Planned {
                label,
                body: LINT.into(),
                reference: Some(LINT.into()),
            },
            (Label::Explore, _) => Planned {
                label,
                body: EXPLORE.into(),
                reference: Some(EXPLORE.into()),
            },
            (Label::Coverage, _) => Planned {
                label,
                body: COVERAGE.into(),
                reference: Some(COVERAGE.into()),
            },
            (Label::VerifyMiss | Label::ImportMiss, _) => unreachable!("never planned directly"),
        }
    }
}

/// The Verilog the import requests carry, JSON-escaped once.
struct Sources {
    escaped: String,
}

impl Sources {
    /// Synthesizes mesh32x32 (W=4, Hamming(7,4), 4-pin test mode) and
    /// exports it: about 230 kB of structural Verilog.
    fn generate() -> Result<Sources, String> {
        let design = Synthesizer::new(mesh(32, 32))
            .chains(4)
            .code(CodeChoice::hamming7_4())
            .test_width(4)
            .build()
            .map_err(|e| format!("synthesizing mesh32x32: {e}"))?;
        let text = to_verilog(&design.netlist);
        if !text.contains(IMPORT_MODULE) {
            return Err(format!("the export has no `{IMPORT_MODULE}` header"));
        }
        let escaped = serde_json::to_string(&Value::Str(text)).map_err(|e| e.to_string())?;
        Ok(Sources { escaped })
    }

    /// An import request body, with the module renamed when `module`
    /// is given.
    fn import_body(&self, module: Option<&str>) -> String {
        let source = match module {
            Some(name) => self.escaped.replacen(IMPORT_MODULE, name, 1),
            None => self.escaped.clone(),
        };
        format!(r#""type":"import","source":{source}}}"#)
    }
}

/// One NDJSON connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// Sends one request and waits for its reply line.
    fn call(&mut self, id: &str, body: &str) -> Result<String, String> {
        let line = format!("{{\"id\":\"{id}\",{body}\n");
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending {id}: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("reading reply to {id}: {e}"))?;
        if reply.is_empty() {
            return Err(format!("connection closed before replying to {id}"));
        }
        Ok(reply.trim_end().to_owned())
    }
}

/// The reply's `result`, or why it has none.
fn result_of(reply: &str) -> Result<Value, String> {
    let v: Value = serde_json::from_str(reply).map_err(|e| format!("unparseable reply: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        let err = v
            .get("error")
            .map(|e| serde_json::to_string(e).unwrap_or_default());
        return Err(format!("error reply: {}", err.unwrap_or_default()));
    }
    v.get("result")
        .cloned()
        .ok_or_else(|| "reply has no result".to_owned())
}

/// The reply without its `id` member: what must repeat byte for byte.
fn payload(reply: &str) -> &str {
    reply.find(",\"ok\":").map_or(reply, |i| &reply[i..])
}

fn u64_at(v: &Value, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0,
        }
    }
    cur.as_u64().unwrap_or(0)
}

/// The daemon's deterministic work counters plus its store traffic.
fn counters(conn: &mut Conn) -> Result<BTreeMap<String, u64>, String> {
    let status = result_of(&conn.call("ctl-status", STATUS)?)?;
    let metrics = result_of(&conn.call("ctl-metrics", METRICS)?)?;
    let mut out = BTreeMap::new();
    if let Some(fields) = metrics.get("counters").and_then(Value::as_object) {
        for (k, v) in fields {
            // Request tallies count this probe's own requests.
            if !k.starts_with("serve.") {
                out.insert(k.clone(), v.as_u64().unwrap_or(0));
            }
        }
    }
    for key in ["hits", "misses", "writes"] {
        out.insert(
            format!("store.{key}"),
            u64_at(&status, &["store", "stats", key]),
        );
    }
    Ok(out)
}

fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>) -> BTreeMap<String, i64> {
    after
        .iter()
        .map(|(k, &v)| {
            (
                k.clone(),
                v as i64 - before.get(k).copied().unwrap_or(0) as i64,
            )
        })
        .filter(|(_, d)| *d != 0)
        .collect()
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// A running `scanguard serve --tcp` process with its own store.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    store: PathBuf,
    /// Kept open so the daemon's stdout never sees a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn boot(bin: &str, store: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&store);
        let mut child = Command::new(bin)
            .args(["serve", "--tcp", "127.0.0.1:0", "--threads", "2", "--store"])
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {bin}: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                addr,
                store,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "the daemon did not announce its address (got {line:?})"
                ))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends SIGTERM and waits for the drain: the process must exit 0.
    fn terminate(&mut self) -> Result<(), String> {
        let pid = i32::try_from(self.child.id()).map_err(|e| e.to_string())?;
        // SAFETY: `kill` only sends a signal; `pid` is our own child,
        // which has not been reaped yet (it is reaped below).
        if unsafe { kill(pid, SIGTERM) } != 0 {
            return Err("sending SIGTERM failed".into());
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => {
                    return Err(format!("the daemon exited with {status} after SIGTERM"))
                }
                None if Instant::now() > deadline => {
                    return Err("the daemon did not exit within 30 s of SIGTERM".into())
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// A booted, warmed daemon and what the warm-up learned.
struct Warm {
    daemon: Daemon,
    control: Conn,
    /// First reply payload of every repeated request.
    references: HashMap<String, String>,
    /// Cells of the repeated import, which renamed copies must match.
    import_cells: u64,
    /// Counter deltas of one request of each label.
    per_label: BTreeMap<Label, BTreeMap<String, i64>>,
}

/// Generates the inputs, boots a daemon on a fresh store, waits for its
/// first answer, then warms it: every repeated request once (storing
/// its content), then one request of each label with the counters read
/// around it.
fn setup(bin: &str, store: PathBuf) -> Result<(Sources, Warm), String> {
    let sources = Sources::generate()?;
    let daemon = Daemon::boot(bin, store)?;
    let mut control = Conn::open(daemon.addr)?;
    result_of(&control.call("boot", STATUS)?)?;
    let mut references = HashMap::new();
    let import = sources.import_body(None);
    let repeated = [
        ("lint", LINT.to_owned(), LINT.to_owned()),
        (
            "verify8",
            VERIFY_BASE[0].to_owned(),
            VERIFY_BASE[0].to_owned(),
        ),
        (
            "verify16",
            VERIFY_BASE[1].to_owned(),
            VERIFY_BASE[1].to_owned(),
        ),
        ("import", import.clone(), "import".to_owned()),
        ("explore", EXPLORE.to_owned(), EXPLORE.to_owned()),
        ("coverage", COVERAGE.to_owned(), COVERAGE.to_owned()),
    ];
    let mut import_cells = 0;
    for (id, body, key) in &repeated {
        let reply = control.call(&format!("warm-{id}"), body)?;
        let result = result_of(&reply).map_err(|e| format!("warm-up {id}: {e}"))?;
        if *id == "import" {
            import_cells = u64_at(&result, &["cells"]);
        }
        references.insert(key.clone(), payload(&reply).to_owned());
    }
    let probes = [
        (Label::Status, STATUS.to_owned()),
        (Label::Lint, LINT.to_owned()),
        (Label::VerifyHit, VERIFY_BASE[0].to_owned()),
        (Label::ImportHit, import),
        (Label::Explore, EXPLORE.to_owned()),
        (Label::Coverage, COVERAGE.to_owned()),
        (
            Label::ImportMiss,
            sources.import_body(Some(&format!("{IMPORT_MODULE}_warm"))),
        ),
        // No client lists SG206 first, so this key stays novel.
        (
            Label::VerifyMiss,
            r#""type":"verify","design":"fifo8x8","rules":"SG206,SG205"}"#.to_owned(),
        ),
    ];
    let mut per_label = BTreeMap::new();
    for (label, body) in probes {
        let before = counters(&mut control)?;
        let reply = control.call(&format!("probe-{}", label.name()), &body)?;
        result_of(&reply).map_err(|e| format!("warm-up {}: {e}", label.name()))?;
        let after = counters(&mut control)?;
        per_label.insert(label, delta(&after, &before));
    }
    Ok((
        sources,
        Warm {
            daemon,
            control,
            references,
            import_cells,
            per_label,
        },
    ))
}

/// One client's record of the measured window.
#[derive(Default)]
struct ClientLog {
    /// Requests sent, plus a failed connection attempt.
    attempted: u64,
    /// (label, latency ms, traced) per completed request.
    samples: Vec<(Label, f64, bool)>,
    failures: Vec<String>,
    inflight_max: u64,
    waiters_max: u64,
    last_done: Option<Instant>,
}

fn run_client(
    client: usize,
    seed: u64,
    addr: SocketAddr,
    sources: &Sources,
    warm: &Warm,
    deadline: Instant,
    rec: Option<&Recorder>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.failures.push(e);
            return log;
        }
    };
    let mut plan = Plan::new(seed, client);
    let lane = Lane::Worker(client as u32);
    let mut n = 0usize;
    while Instant::now() < deadline {
        let req = plan.next(sources);
        n += 1;
        log.attempted += 1;
        // A traced run traces every other request, for the overhead.
        let traced = rec.filter(|_| n.is_multiple_of(2));
        let id = format!("c{client}-{n}");
        let t = Instant::now();
        if let Some(r) = traced {
            r.begin(lane, req.label.name(), 0);
        }
        let reply = conn.call(&id, &req.body);
        if let Some(r) = traced {
            r.end(lane, req.label.name(), 0, Vec::new());
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        log.last_done = Some(Instant::now());
        log.samples.push((req.label, ms, traced.is_some()));
        let checked = reply.and_then(|reply| {
            let result = result_of(&reply)?;
            match (&req.reference, req.label) {
                (Some(key), _) => {
                    let want = warm.references.get(key).map(String::as_str);
                    if want.is_some() && want != Some(payload(&reply)) {
                        return Err("reply differs from the first reply to the same request".into());
                    }
                }
                (None, Label::Status) => {
                    log.inflight_max = log.inflight_max.max(u64_at(&result, &["inflight"]));
                    log.waiters_max = log.waiters_max.max(u64_at(&result, &["budget", "waiters"]));
                }
                (None, Label::ImportMiss) => {
                    if u64_at(&result, &["cells"]) != warm.import_cells {
                        return Err("a renamed import reports a different cell count".into());
                    }
                }
                (None, _) => {
                    if result.get("clean").and_then(Value::as_bool) != Some(true) {
                        return Err("verify verdict is not clean".into());
                    }
                }
            }
            Ok(())
        });
        if let Err(e) = checked {
            log.failures
                .push(format!("{id} ({}): {e}", req.label.name()));
            // A broken connection cannot carry the rest of the window.
            if conn.call(&format!("{id}-ping"), STATUS).is_err() {
                break;
            }
        }
    }
    log
}

/// Samples the daemon's thread count until `stop`.
fn watch_threads(pid: &str, stop: &AtomicBool) -> u64 {
    let mut peak = 0.0f64;
    while !stop.load(Ordering::Relaxed) {
        peak = peak.max(proc_status_field(pid, "Threads:").unwrap_or(0.0));
        std::thread::sleep(Duration::from_millis(5));
    }
    peak as u64
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .scanguard
        .clone()
        .ok_or("daemon-mix needs --scanguard PATH (the scanguard binary)")?;
    let work = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let mut out = Outcome {
        checks_ok: true,
        ..Outcome::default()
    };
    let mut setups = Vec::new();
    let mut prepared: Option<(Sources, Warm)> = None;
    for k in 0..SETUPS {
        if let Some((_, mut warm)) = prepared.take() {
            drop(warm.control);
            out.attempted += 1;
            if let Err(e) = warm.daemon.terminate() {
                out.fail(&e);
            }
        }
        let t = Instant::now();
        let store = work.join(format!("store-{}-{k}", std::process::id()));
        prepared = Some(setup(&bin, store)?);
        setups.push(t.elapsed().as_secs_f64());
        eprintln!("perfbench: set-up {k}: {:.3} s", setups[k]);
    }
    let (sources, mut warm) = prepared.expect("at least one set-up");
    let pid = warm.daemon.pid();
    let rec = Recorder::new(RecorderConfig {
        level: Level::Off,
        trace: args.trace,
        metrics: false,
        capture_logs: false,
    });

    let before = counters(&mut warm.control)?;
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(args.seconds);
    let stop = AtomicBool::new(false);
    let (logs, threads_peak) = std::thread::scope(|s| {
        let watcher = s.spawn(|| watch_threads(&pid, &stop));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (sources, warm, rec) = (&sources, &warm, &rec);
                let addr = warm.daemon.addr;
                s.spawn(move || {
                    run_client(
                        c,
                        args.seed,
                        addr,
                        sources,
                        warm,
                        deadline,
                        args.trace.then_some(rec),
                    )
                })
            })
            .collect();
        let logs: Vec<ClientLog> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        (logs, watcher.join().expect("watcher thread panicked"))
    });
    let after = counters(&mut warm.control)?;

    let mut samples = Vec::new();
    let mut inflight_max = 0;
    let mut waiters_max = 0;
    let mut last_done = window;
    for log in &logs {
        samples.extend_from_slice(&log.samples);
        for f in &log.failures {
            out.fail(f);
        }
        inflight_max = inflight_max.max(log.inflight_max);
        waiters_max = waiters_max.max(log.waiters_max);
        last_done = last_done.max(log.last_done.unwrap_or(window));
    }
    out.attempted += logs.iter().map(|l| l.attempted).sum::<u64>();

    // Work-counter guard: the window's counter deltas must equal the sum
    // of each completed request's warm-up deltas. Counters a novel
    // verify moves (the lint.* family it records, and any other the
    // warm-up's novel verify moved) depend on its configuration and
    // are left out.
    let mut count: BTreeMap<Label, i64> = BTreeMap::new();
    for (label, _, _) in &samples {
        *count.entry(*label).or_default() += 1;
    }
    let actual = delta(&after, &before);
    let miss = &warm.per_label[&Label::VerifyMiss];
    let varies =
        |k: &str| !k.starts_with("store.") && (k.starts_with("lint.") || miss.contains_key(k));
    let mut expected: BTreeMap<String, i64> = BTreeMap::new();
    for (label, per) in &warm.per_label {
        for (k, d) in per {
            *expected.entry(k.clone()).or_default() += d * count.get(label).copied().unwrap_or(0);
        }
    }
    let keys: HashSet<&String> = expected.keys().chain(actual.keys()).collect();
    for k in keys {
        if varies(k) {
            continue;
        }
        let (want, got) = (
            expected.get(k).copied().unwrap_or(0),
            actual.get(k).copied().unwrap_or(0),
        );
        if want != got {
            out.fail(&format!(
                "work counter {k} moved by {got}, the requests predict {want}"
            ));
        }
    }

    let connect_ms = if args.trace {
        let mut probes = Vec::new();
        for i in 0..CONNECT_PROBES {
            let t = Instant::now();
            let mut conn = Conn::open(warm.daemon.addr)?;
            result_of(&conn.call(&format!("connect-{i}"), STATUS)?)?;
            probes.push(t.elapsed().as_secs_f64() * 1e3);
        }
        stats::median(&probes)
    } else {
        0.0
    };

    let rss = peak_rss_mb(&pid);
    drop(warm.control);
    out.attempted += 1;
    if let Err(e) = warm.daemon.terminate() {
        out.fail(&e);
    }
    drop(warm.daemon);
    let _ = std::fs::remove_dir(&work);

    let all_ms: Vec<f64> = samples.iter().map(|s| s.1).collect();
    eprintln!(
        "perfbench: {} requests in {:.1} s, median {:.2} ms",
        samples.len(),
        (last_done - window).as_secs_f64(),
        stats::median(&all_ms)
    );
    if args.trace {
        match Profile::from_events(&rec.events()).and_then(|p| p.verify().map(|()| p)) {
            Ok(p) => eprintln!("perfbench: {} client spans folded", p.spans),
            Err(e) => {
                out.checks_ok = false;
                eprintln!("perfbench: client trace is inconsistent: {e}");
            }
        }
        for label in Label::ALL {
            let ms: Vec<f64> = samples
                .iter()
                .filter(|s| s.0 == label)
                .map(|s| s.1)
                .collect();
            out.put(&format!("rpc.{}_ms", label.name()), stats::median(&ms));
        }
        out.put("rpc.connect_ms", connect_ms);
        out.put("serve.threads_peak", threads_peak as f64);
        out.put("serve.inflight_max", inflight_max as f64);
        out.put("par.budget_waiters_max", waiters_max as f64);
        let store = |k: &str| actual.get(&format!("store.{k}")).copied().unwrap_or(0) as f64;
        out.put("store.hits", store("hits"));
        out.put("store.misses", store("misses"));
        out.put("store.writes", store("writes"));
        let lookups = store("hits") + store("misses");
        out.put(
            "store.hit_ratio",
            if lookups > 0.0 {
                store("hits") / lookups
            } else {
                0.0
            },
        );
        let traced: Vec<f64> = samples.iter().filter(|s| s.2).map(|s| s.1).collect();
        let untraced: Vec<f64> = samples.iter().filter(|s| !s.2).map(|s| s.1).collect();
        let overhead = stats::median(&traced) / stats::median(&untraced) - 1.0;
        out.put("obs.trace_overhead_pct", overhead * 100.0);
        let secs = (last_done - window).as_secs_f64();
        put_op_stats(&mut out, &untraced, samples.len() as f64 / secs);
    } else {
        put_end_to_end(&mut out, &setups, &all_ms, rss);
    }
    Ok(out)
}
