//! `wallbench` — the wall-clock benchmark of foMPI-rs.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload rma_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run measures the named workload for `--seconds` of wall-clock time,
//! checks its outputs, and prints one JSON object as the last line of
//! standard output: every end-to-end metric with `--trace 0`, every
//! per-layer metric with `--trace 1`. See `README.md` beside this file for
//! what each workload and metric is for.

mod fft;
mod host;
mod kv;
mod ladder;
mod lat;
mod rma;
mod rpc;

use fompi_fabric::{FaultPlan, ProfileMode, RacecheckMode};
use fompi_runtime::{RankCtx, Universe};
use std::fmt::Write as _;
use std::io::Read as _;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Metrics every run reports but nothing gates: their run-to-run spread
/// is host scheduling (stalls on a shared 2-vCPU host), not program cost.
const DIAGNOSTICS: [&str; 7] = [
    "rpc.p90_us.lo",
    "rpc.p50_us.hi",
    "rpc.p90_us.hi",
    "rpc.p99_us.lo",
    "rpc.p99_us.hi",
    "rpc.gen_late_p99_us",
    "kv.op_p99_us",
];

/// A run still going after this long is hung (a rank died mid-barrier).
const WATCHDOG: Duration = Duration::from_secs(170);

/// Every workload `--workload` accepts.
const WORKLOADS: [&str; 4] = ["rma_small", "fft_fence", "kv_zipf", "rpc_poisson"];

/// Workloads the benchmark gates, in the order a run probes them.
/// `kv_zipf` is held out: it fails its output check on the current
/// program (see README.md), so it runs only when asked for by name.
const GATED: [&str; 3] = ["rma_small", "fft_fence", "rpc_poisson"];

/// Set-up-only launches before the measured one: at least
/// [`SETUP_TRIALS`], more while they total under [`SETUP_BUDGET_S`], at
/// most [`SETUP_MAX_TRIALS`]. `setup_s` is the median of them all.
const SETUP_TRIALS: usize = 4;
const SETUP_BUDGET_S: f64 = 0.5;
const SETUP_MAX_TRIALS: usize = 64;

/// Wall-clock budget of each probe of a workload other than the selected
/// one, as a share of `--seconds` (at least [`PROBE_MIN_S`]).
const PROBE_SHARE: f64 = 0.4;
const PROBE_MIN_S: f64 = 0.5;

/// One named measurement.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one workload (or probe) reports back.
#[derive(Default)]
pub struct Out {
    /// End-to-end metrics of this workload.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (filled on traced runs only).
    pub layer: Vec<Metric>,
    /// Operations attempted, and those that returned an error or timed out.
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, each naming what was wrong.
    pub errors: Vec<String>,
    /// Wall seconds of each set-up: launch until the first timed op.
    pub setup_s: Vec<f64>,
}

impl Out {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        self.e2e.push(metric(name, value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.layer.push(metric(name, value, unit));
    }

    /// Record an output check; a failure is kept with its message.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(msg());
        }
    }
}

/// How one workload is run.
#[derive(Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Wall-clock seconds of the measured phase.
    pub secs: f64,
    /// Minimum set-up-only launches before the measured one.
    pub trials: usize,
    /// Arm the metrics plane and record spans around layer calls.
    pub traced: bool,
}

/// The load shape every workload shares: p = 2 rank threads, one rank per
/// node (so the DMAPP path is used), every optional feature disarmed.
pub fn universe(traced: bool) -> Universe {
    Universe::new(2)
        .node_size(1)
        .faults(FaultPlan::disabled())
        .batch(false)
        .racecheck(RacecheckMode::Off)
        .profile(ProfileMode::Off)
        .metrics(traced)
}

/// Launch universes whose ranks run `f`: `f` sets up, calls [`ready`],
/// and runs the measured phase only when its `bool` argument is true.
/// At least `p.trials` set-up-only launches come first (more while they
/// total under [`SETUP_BUDGET_S`]), then `measured` measured launches.
/// Returns every launch's set-up time and each measured launch's per-rank
/// results.
pub fn sessions<T, F>(p: &Params, measured: usize, f: F) -> (Vec<f64>, Vec<Vec<T>>)
where
    T: Send,
    F: Fn(&mut RankCtx, bool) -> (Instant, T) + Send + Sync,
{
    let mut setup = Vec::new();
    let mut launch = |measure: bool| {
        let t0 = Instant::now();
        let res = universe(p.traced).run(|ctx| f(ctx, measure));
        let ready = res.iter().map(|r| r.0).max().expect("two ranks");
        setup.push((ready - t0).as_secs_f64());
        res.into_iter().map(|r| r.1).collect::<Vec<T>>()
    };
    let t = Instant::now();
    let more = |n: usize| n < SETUP_MAX_TRIALS && t.elapsed().as_secs_f64() < SETUP_BUDGET_S;
    let mut n = 0;
    while n < p.trials || (p.trials > 0 && more(n)) {
        launch(false);
        n += 1;
    }
    let runs = (0..measured).map(|_| launch(true)).collect();
    (setup, runs)
}

/// End of set-up: both ranks meet, then the first timed op may start.
pub fn ready(ctx: &RankCtx) -> Instant {
    ctx.barrier();
    Instant::now()
}

fn run_workload(name: &str, p: &Params) -> Out {
    let mut out = Out::default();
    match name {
        "rma_small" => rma::run(p, &mut out),
        "fft_fence" => fft::run(p, &mut out),
        "kv_zipf" => kv::run(p, &mut out),
        "rpc_poisson" => rpc::run(p, &mut out),
        _ => unreachable!("workload names are checked at parse time"),
    }
    out
}

/// The metric whose traced/untraced ratio is each workload's
/// `trace_overhead_pct` (all are lower-is-better timings).
fn primary(workload: &str) -> &'static str {
    match workload {
        "rma_small" => "rma.put_flush_p50_ns",
        "fft_fence" => "fft.solve_ms_p50",
        "kv_zipf" => "kv.op_p50_us",
        _ => "rpc.p50_us.lo",
    }
}

fn value(ms: &[Metric], name: &str) -> f64 {
    ms.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set when this process is one part of a run (see [`spawn_part`]):
    /// the minimum set-up-only launches.
    part: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut part = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == val)
                        .ok_or_else(|| format!("unknown workload {val:?} (want {WORKLOADS:?})"))?,
                )
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| format!("bad --seed {val:?}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| format!("bad --seconds {val:?}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} out of range (0, 60]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {val:?}")),
                })
            }
            "--part" => part = Some(val.parse().map_err(|_| format!("bad --part {val:?}"))?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        part,
    })
}

pub fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric { name: name.to_string(), value, unit: unit.to_string() }
}

/// The process measuring one workload part, started by [`spawn_part`].
static CHILD: Mutex<Option<Child>> = Mutex::new(None);

/// A rank that panics leaves its peer waiting in a barrier forever; end
/// the run loudly instead of hanging, and take the running part with it.
fn watchdog(workload: &'static str) {
    // Detached on purpose: it either fires or dies with the process.
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("wallbench: workload {workload} still running after {WATCHDOG:?}; giving up");
        if let Some(child) = CHILD.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        std::process::exit(3);
    });
}

/// Child side of [`spawn_part`]: run one workload and report it on
/// standard output, one fact per line.
fn report_part(workload: &str, p: &Params) -> ExitCode {
    let out = run_workload(workload, p);
    for (kind, ms) in [("e2e", &out.e2e), ("layer", &out.layer)] {
        for m in ms {
            println!("{kind} {} {} {}", m.name, m.value, m.unit);
        }
    }
    println!("ops {} {}", out.attempted, out.failed);
    println!("setup {}", lat::median(&out.setup_s));
    println!("rss {}", host::peak_rss_mb());
    for e in &out.errors {
        println!("error {e}");
    }
    ExitCode::SUCCESS
}

/// Run `workload` with `p` in a fresh process, so that no part inherits
/// the heap and thread placement another part left behind (per-op costs
/// here move with both), and wait for it.
fn spawn_part(workload: &'static str, p: &Params) -> Result<(Out, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let child = Command::new(exe)
        .args(["--workload", workload, "--seed", &p.seed.to_string()])
        .args(["--seconds", &p.secs.to_string(), "--trace", if p.traced { "1" } else { "0" }])
        .args(["--part", &p.trials.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let lock = || CHILD.lock().unwrap_or_else(|e| e.into_inner());
    *lock() = Some(child);
    // Poll rather than block, so the watchdog can take the lock and kill
    // a hung part. A part prints a few KiB, well inside a pipe's buffer.
    while lock().as_mut().and_then(|c| c.try_wait().transpose()).is_none() {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut child = lock().take().expect("the part just polled");
    // It has exited: wait only collects the status.
    let status = child.wait().map_err(|e| format!("waiting for {workload}: {e}"))?;
    let mut text = String::new();
    let mut stdout = child.stdout.take().expect("piped stdout");
    stdout.read_to_string(&mut text).map_err(|e| format!("reading {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} exited with {status}"));
    }
    let mut out = Out::default();
    let mut rss = f64::NAN;
    for line in text.lines() {
        let f: Vec<&str> = line.splitn(4, ' ').collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
        let bad = || format!("{workload}: malformed part line {line:?}");
        match f[0] {
            "e2e" | "layer" => {
                let unit = f.get(3).ok_or_else(bad)?;
                let m = metric(f.get(1).ok_or_else(bad)?, num(2).ok_or_else(bad)?, unit);
                if f[0] == "e2e" {
                    out.e2e.push(m)
                } else {
                    out.layer.push(m)
                }
            }
            "ops" => {
                (out.attempted, out.failed) =
                    (num(1).ok_or_else(bad)? as u64, num(2).ok_or_else(bad)? as u64)
            }
            "setup" => out.setup_s.push(num(1).ok_or_else(bad)?),
            "rss" => rss = num(1).ok_or_else(bad)?,
            "error" => out.errors.push(line["error ".len()..].to_string()),
            _ => return Err(bad()),
        }
    }
    Ok((out, rss))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            eprintln!(
                "usage: wallbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Every knob the program reads from the environment starts with
    // FOMPI_; a stray one would arm a feature and skew every number.
    let scrubbed = host::scrub_fompi_env();
    if let Some(trials) = args.part {
        let p = Params { seed: args.seed, secs: args.seconds, trials, traced: args.trace };
        return report_part(args.workload, &p);
    }

    let prov = host::provenance(args.workload, args.seed, args.seconds, args.trace, &scrubbed);
    println!("{prov}");
    watchdog(args.workload);
    let jiffies = host::cpu_jiffies();
    let mut diag = host::calibrate(args.seed);

    // The selected workload gets the measured budget and the set-up
    // trials. A traced run measures it twice, untraced then traced, for
    // `trace_overhead_pct`. Every run reports every metric, so the other
    // gated workloads run too, as shorter probes: read a metric on its
    // own workload.
    let main = Params { seed: args.seed, secs: args.seconds, trials: SETUP_TRIALS, traced: false };
    let half = Params { secs: args.seconds / 2.0, ..main };
    let mut plan = if args.trace {
        vec![(args.workload, half), (args.workload, Params { traced: true, ..half })]
    } else {
        vec![(args.workload, main)]
    };
    let probe = Params {
        secs: (args.seconds * PROBE_SHARE).max(PROBE_MIN_S),
        trials: 0,
        traced: args.trace,
        ..main
    };
    plan.extend(GATED.iter().filter(|w| **w != args.workload).map(|w| (*w, probe)));
    let mut runs = Vec::new();
    for (w, p) in plan {
        match spawn_part(w, &p) {
            Ok((out, rss)) => runs.push((w, out, rss)),
            Err(e) => {
                eprintln!("wallbench: workload {w} FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    for (w, o, _) in &runs {
        attempted += o.attempted;
        failed += o.failed;
        errors.extend(o.errors.iter().map(|e| format!("{w}: {e}")));
    }
    diag.push(host::steal_since(jiffies));
    diag.push(metric("fail_ratio", failed as f64 / attempted.max(1) as f64, "ratio"));
    // The untraced half of a traced run only feeds the overhead ratio.
    let reported = &runs[usize::from(args.trace)..];
    let (_, own, own_rss) = &reported[0];
    let mut e2e =
        vec![metric("setup_s", own.setup_s[0], "s"), metric("peak_rss_mb", *own_rss, "MB")];
    for m in reported.iter().flat_map(|(_, o, _)| &o.e2e) {
        let dst = if DIAGNOSTICS.contains(&m.name.as_str()) { &mut diag } else { &mut e2e };
        dst.push(m.clone());
    }
    let shown = if args.trace {
        let key = primary(args.workload);
        let overhead = 100.0 * (value(&runs[1].1.e2e, key) / value(&runs[0].1.e2e, key) - 1.0);
        let mut layer = ladder::run();
        layer.extend(reported.iter().flat_map(|(_, o, _)| o.layer.iter().cloned()));
        layer.push(metric("trace_overhead_pct", overhead, "%"));
        layer.append(&mut diag);
        layer
    } else {
        e2e
    };

    for m in &shown {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for m in &diag {
        println!("{:<32} {:>16.4} {}  (diagnostic)", m.name, m.value, m.unit);
    }
    let correct = errors.is_empty() && failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in shown.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
        let _ = write!(line, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        return ExitCode::SUCCESS;
    }
    for e in &errors {
        eprintln!("wallbench: check FAILED on workload {e}");
    }
    eprintln!("wallbench: {failed} of {attempted} ops failed; run of {} FAILED", args.workload);
    ExitCode::FAILURE
}
