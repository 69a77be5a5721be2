//! Host calibration, provenance and process memory.
//!
//! The calibration rows let a reader tell a program regression from a
//! noisy host: `host.clock_ns` is the cost of one `Instant::now` (every
//! per-op time below includes one), and the ping-pong rows are a bare
//! two-thread exchange on the same open-loop Poisson schedule as
//! `rpc_poisson`, with no library code in the loop.

use crate::lat::Lat;
use crate::{metric, Metric};
use fompi_fabric::rng::{splitmix64, Rng};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Remove every `FOMPI_*` variable; returns the names removed.
pub fn scrub_fompi_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FOMPI_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Exponential inter-arrival gaps at `rate_per_s`, as offsets from the
/// phase start, until `secs` is covered.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, secs: f64) -> Vec<Duration> {
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate_per_s * secs * 1.1) as usize + 16);
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
        if t >= secs {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Poll the clock until `deadline` (the open-loop generators' wait).
/// Every poll loop here yields: when the host leaves both threads one
/// CPU, a pure spin would hold it for a whole time slice while the peer
/// it waits for cannot run.
pub fn wait_until(deadline: Instant) {
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// `host.clock_ns`, `host.pingpong_p50_ns` and `host.pingpong_p99_us`.
pub fn calibrate(seed: u64) -> Vec<Metric> {
    const CLOCK_READS: u32 = 1 << 20;
    let t0 = Instant::now();
    let mut sink = t0;
    for _ in 0..CLOCK_READS {
        sink = std::hint::black_box(Instant::now());
    }
    let clock_ns = (sink - t0).as_nanos() as f64 / f64::from(CLOCK_READS);

    let mut rng = Rng::seed_from_u64(splitmix64(seed ^ 0x9149_6016));
    let sched = poisson_schedule(&mut rng, 50_000.0, 0.25);
    let ping = AtomicU64::new(0);
    let pong = AtomicU64::new(0);
    let mut lat = Lat::default();
    std::thread::scope(|s| {
        s.spawn(|| loop {
            let v = ping.load(Ordering::Acquire);
            if v == u64::MAX {
                return;
            }
            if v != pong.load(Ordering::Relaxed) {
                pong.store(v, Ordering::Release);
            }
            std::thread::yield_now();
        });
        let start = Instant::now();
        for (i, off) in sched.iter().enumerate() {
            let due = start + *off;
            wait_until(due);
            let seq = i as u64 + 1;
            ping.store(seq, Ordering::Release);
            while pong.load(Ordering::Acquire) != seq {
                std::thread::yield_now();
            }
            lat.add(due.elapsed());
        }
        ping.store(u64::MAX, Ordering::Release);
    });
    vec![
        metric("host.clock_ns", clock_ns, "ns"),
        metric("host.pingpong_p50_ns", lat.q(0.5), "ns"),
        metric("host.pingpong_p99_us", lat.q(0.99) / 1e3, "us"),
    ]
}

/// `(steal, total)` jiffies of all CPUs so far, from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    (f.get(7).copied().unwrap_or(0), f.iter().take(8).sum())
}

/// `host.steal_pct`: the share of CPU time the hypervisor gave to other
/// guests since `start` (a [`cpu_jiffies`] reading) — the usual cause of
/// a noisy run on a shared host.
pub fn steal_since(start: (u64, u64)) -> Metric {
    let (s1, t1) = cpu_jiffies();
    let pct = 100.0 * (s1 - start.0) as f64 / (t1 - start.1).max(1) as f64;
    metric("host.steal_pct", pct, "%")
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .and_then(|r| r.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory (the run's root), read
/// from `.git` directly; "unknown" outside a git checkout.
fn git_revision() -> String {
    let git = std::path::Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return rev.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// One JSON line stamping where and how the numbers below were produced.
pub fn provenance(
    workload: &str,
    seed: u64,
    secs: f64,
    trace: bool,
    scrubbed: &[String],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"provenance\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {secs}, \
         \"trace\": {}, \"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git\": \"{}\", \
         \"fompi_env\": {{}}, \"fompi_env_scrubbed\": [{}]}}}}",
        u8::from(trace),
        esc(&cpu_model()),
        esc(env!("WALLBENCH_RUSTC")),
        esc(&git_revision()),
        scrubbed.iter().map(|k| format!("\"{}\"", esc(k))).collect::<Vec<_>>().join(", "),
    );
    s
}
