//! `kv_zipf`: both ranks are closed-loop clients of `apps::kv::KvStore`.
//!
//! Each rank replays a seeded op stream (70 % get, 20 % additive upsert,
//! 10 % two-key transfer between its own warm keys; Zipf θ = 0.99 keys)
//! until the deadline, on 64 Ki buckets per rank. The retry budget is
//! effectively unbounded, so every op must commit; the run ends with
//! `conservation_check`.

use crate::lat::Lat;
use crate::{ready, sessions, Out, Params};
use fompi_apps::kv::{conservation_check, warm_key, KvConfig, KvServeStats, KvStore, Zipf};
use fompi_fabric::rng::{splitmix64, Rng};
use fompi_fabric::telemetry::EventKind;
use fompi_txn::RetryPolicy;
use std::time::{Duration, Instant};

const BUCKETS: usize = 1 << 16;
/// Keys drawn from `1..=KEYSPACE`: a quarter of the buckets, so probe
/// chains stay short however many keys the upserts insert.
const KEYSPACE: u64 = 1 << 15;
const WARM: usize = 1024;
/// Ops generated per rank; the stream repeats when a run outlasts it.
const STREAM: usize = 1 << 16;

#[derive(Clone, Copy)]
enum Op {
    Get(u64),
    Upsert(u64, u64),
    Transfer(u64, u64, u64),
}

fn stream(seed: u64, me: u32) -> Vec<Op> {
    let mut rng = Rng::seed_from_u64(splitmix64(seed ^ 0x4B56 ^ (u64::from(me) + 1)));
    let zipf = Zipf::new(KEYSPACE, 0.99);
    (0..STREAM)
        .map(|_| match rng.next_below(100) {
            0..=69 => Op::Get(zipf.sample(&mut rng)),
            70..=79 => {
                let i = rng.next_below(WARM as u64) as usize;
                let j = (i + 1 + rng.next_below(WARM as u64 - 1) as usize) % WARM;
                Op::Transfer(warm_key(me, i, 2), warm_key(me, j, 2), rng.next_below(1000))
            }
            _ => Op::Upsert(zipf.sample(&mut rng), rng.next_below(1 << 20) | 1),
        })
        .collect()
}

#[derive(Default)]
struct RankOut {
    ops: u64,
    failed: u64,
    lost_transfers: u64,
    elapsed: Duration,
    all: Lat,
    by_kind: [Lat; 3],
    violations: u64,
    allocate_s: f64,
    commits: u64,
    aborts: u64,
    /// Fabric AMOs, gets and puts issued during the measured phase.
    amos: u64,
    gets: u64,
    puts: u64,
}

pub fn run(p: &Params, out: &mut Out) {
    let (seed, secs, traced) = (p.seed, p.secs, p.traced);
    let policy = RetryPolicy::Backoff { budget: u32::MAX, base_ns: 400, cap_ns: 100_000 };
    let cfg = KvConfig {
        buckets_per_rank: BUCKETS,
        keyspace: KEYSPACE,
        theta: 0.99,
        warm_per_rank: WARM,
        seed,
        ..KvConfig::default()
    };
    let (setup, mut runs) = sessions(p, 1, |ctx, measure| {
        let me = ctx.rank();
        let ops = stream(seed, me);
        let mut jitter = Rng::seed_from_u64(splitmix64(seed ^ 0x0BAC_C0FF ^ (u64::from(me) + 1)));
        let mut o = RankOut::default();
        let t = Instant::now();
        let store = KvStore::allocate(ctx, cfg);
        o.allocate_s = t.elapsed().as_secs_f64();
        let mut stats = KvServeStats::default();
        store.win.lock_all().expect("kv lock_all");
        for i in 0..WARM {
            let key = warm_key(me, i, 2);
            let v = splitmix64(seed ^ key) | 1;
            store.upsert(&policy, &mut jitter, key, v).expect("warm upsert");
            stats.added = stats.added.wrapping_add(v);
        }
        store.win.flush_all().expect("warm flush");
        // Both ranks are quiet between these barriers, so the fabric-wide
        // counts taken here split exactly into warm-up and measured ops.
        ctx.barrier();
        let tel = ctx.fabric().telemetry();
        let (c0, k0, a0) = (
            ctx.fabric().counters().snapshot(),
            tel.stats(EventKind::TxnCommit).count(),
            tel.stats(EventKind::TxnAbort).count(),
        );
        let t_ready = ready(ctx);
        if measure {
            let deadline = t_ready + Duration::from_secs_f64(secs);
            let mut now = Instant::now();
            while now < deadline {
                let op = ops[o.ops as usize % STREAM];
                let (kind, res) = match op {
                    Op::Get(k) => (0, store.get(&policy, &mut jitter, k).map(|_| true)),
                    Op::Upsert(k, d) => {
                        let r = store.upsert(&policy, &mut jitter, k, d);
                        if r.is_ok() {
                            stats.added = stats.added.wrapping_add(d);
                        }
                        (1, r.map(|_| true))
                    }
                    Op::Transfer(a, b, amt) => (2, store.transfer(&policy, &mut jitter, a, b, amt)),
                };
                let t = Instant::now();
                o.all.add(t - now);
                if traced {
                    o.by_kind[kind].add(t - now);
                }
                match res {
                    Ok(true) => {}
                    Ok(false) => o.lost_transfers += 1,
                    Err(_) => o.failed += 1,
                }
                o.ops += 1;
                now = t;
            }
            o.elapsed = now - t_ready;
            store.win.flush_all().expect("kv flush");
            ctx.barrier();
            let c1 = ctx.fabric().counters().snapshot();
            (o.amos, o.gets, o.puts) = (c1.amos - c0.amos, c1.gets - c0.gets, c1.puts - c0.puts);
            o.commits = tel.stats(EventKind::TxnCommit).count() - k0;
            o.aborts = tel.stats(EventKind::TxnAbort).count() - a0;
        }
        store.win.unlock_all().expect("kv unlock_all");
        ctx.barrier();
        o.violations = conservation_check(ctx, &store, &stats).0;
        store.win.free(ctx);
        (t_ready, o)
    });
    out.setup_s = setup;
    let ranks = runs.pop().expect("one measured launch");

    let mut all = Lat::default();
    let mut kinds = [Lat::default(), Lat::default(), Lat::default()];
    let mut ops = 0u64;
    let mut elapsed = Duration::ZERO;
    for (r, o) in ranks.iter().enumerate() {
        out.attempted += o.ops;
        out.failed += o.failed;
        ops += o.ops;
        elapsed = elapsed.max(o.elapsed);
        out.check(o.lost_transfers == 0, || {
            format!("rank {r}: {} transfers found a warm key missing", o.lost_transfers)
        });
        all.merge(&o.all);
        for (a, b) in kinds.iter_mut().zip(&o.by_kind) {
            a.merge(b);
        }
    }
    // conservation_check is collective: every rank holds the same verdict.
    let v = ranks[0].violations;
    out.check(v == 0, || format!("conservation_check reports {v} violations"));
    out.e2e("kv.ops_per_s", ops as f64 / elapsed.as_secs_f64(), "1/s");
    out.e2e("kv.op_p50_us", all.q(0.5) / 1e3, "us");
    out.e2e("kv.op_p99_us", all.q(0.99) / 1e3, "us");
    if traced {
        // Counters and telemetry are fabric-wide: rank 0's deltas cover both
        // ranks.
        let o = &ranks[0];
        let per_op = |n: u64| n as f64 / ops as f64;
        let [get, upsert, transfer] = &mut kinds;
        out.layer("kv.get_p50_us", get.q(0.5) / 1e3, "us");
        out.layer("kv.upsert_p50_us", upsert.q(0.5) / 1e3, "us");
        out.layer("kv.transfer_p50_us", transfer.q(0.5) / 1e3, "us");
        out.layer("kv.allocate_s", o.allocate_s, "s");
        out.layer("txn.commit_ratio", o.commits as f64 / (o.commits + o.aborts) as f64, "ratio");
        out.layer("txn.amos_per_op", per_op(o.amos), "count");
        out.layer("txn.gets_per_op", per_op(o.gets), "count");
        out.layer("txn.puts_per_op", per_op(o.puts), "count");
    }
}
