//! `rma_small`: 8-byte put/get/fetch_and_op between two ranks inside
//! `lock_all`, in a closed loop on both ranks at once.
//!
//! Half of each launch's budget is a rate phase (16 puts then one flush, timed per
//! batch); the other half is a latency phase (one op plus flush, timed per
//! op) split evenly between put, get and fetch_and_op.
//!
//! Window layout on each rank (bytes):
//! `[0, 128)` puts from rank 0 · `[128, 256)` puts from rank 1 ·
//! `[256, 264)` the fetch_and_op counter · `[264, 392)` a seeded canary
//! the peer's gets read back.

use crate::lat::{median, Lat};
use crate::{ready, sessions, Out, Params};
use fompi::{MpiOp, NumKind, Win};
use fompi_fabric::rng::splitmix64;
use std::time::{Duration, Instant};

const SLOTS: usize = 16;
const REGION: usize = SLOTS * 8;
const COUNTER: usize = 2 * REGION;
const CANARY: usize = COUNTER + 8;
const WIN_BYTES: usize = CANARY + SLOTS * 8;

/// The `i`-th value rank `r` puts.
fn put_value(seed: u64, r: u32, i: u64) -> u64 {
    splitmix64(seed ^ (u64::from(r) << 40) ^ i)
}

/// Canary word `k` of rank `r`'s window.
fn canary(seed: u64, r: u32, k: usize) -> u64 {
    splitmix64(seed ^ 0xCA7A_0000 ^ (u64::from(r) << 32) ^ k as u64)
}

#[derive(Default)]
struct RankOut {
    puts: u64,
    gets: u64,
    faos: u64,
    batch: Lat,
    put: Lat,
    get: Lat,
    fao: Lat,
    /// Gets that read something other than the canary.
    bad_gets: u64,
    /// fetch_and_op results that were not the previous count.
    bad_faos: u64,
    /// This rank's window after the run: the peer's put slots and counter.
    slots_from_peer: [u64; SLOTS],
    counter: u64,
}

/// Wall seconds of one measured launch. Per-op cost shifts by up to 2×
/// from one launch to the next (where the two rank threads and their
/// shared cache lines land), so a run measures many short launches and
/// reports each metric's median over them.
const LAUNCH_S: f64 = 0.1;

pub fn run(p: &Params, out: &mut Out) {
    let seed = p.seed;
    let launches = (p.secs / LAUNCH_S).round().max(1.0) as usize;
    let secs = p.secs / launches as f64;
    let (setup, runs) = sessions(p, launches, |ctx, measure| {
        let me = ctx.rank();
        let peer = 1 - me;
        let win = Win::allocate(ctx, WIN_BYTES, 1).expect("rma window");
        for k in 0..SLOTS {
            win.write_local(CANARY + k * 8, &canary(seed, me, k).to_le_bytes());
        }
        win.lock_all().expect("lock_all");
        let t_ready = ready(ctx);
        let mut o = RankOut::default();
        if measure {
            phases(&win, me, peer, seed, t_ready, secs, &mut o);
        }
        win.flush_all().expect("flush_all");
        ctx.barrier();
        win.unlock_all().expect("unlock_all");
        let mut w = [0u8; 8];
        for (j, slot) in o.slots_from_peer.iter_mut().enumerate() {
            win.read_local(peer as usize * REGION + j * 8, &mut w);
            *slot = u64::from_le_bytes(w);
        }
        win.read_local(COUNTER, &mut w);
        o.counter = u64::from_le_bytes(w);
        win.free(ctx);
        (t_ready, o)
    });
    out.setup_s = setup;

    let mut per_launch: [Vec<f64>; 5] = Default::default();
    for ranks in &runs {
        let mut all = [Lat::default(), Lat::default(), Lat::default(), Lat::default()];
        for (r, o) in ranks.iter().enumerate() {
            check(seed, r, o, &ranks[1 - r], out);
            for (a, b) in all.iter_mut().zip([&o.batch, &o.put, &o.get, &o.fao]) {
                a.merge(b);
            }
        }
        let [batch, put, get, fao] = &mut all;
        let vals =
            [SLOTS as f64 / batch.q(0.5) * 1e3, put.q(0.5), put.q(0.99), get.q(0.5), fao.q(0.5)];
        for (v, x) in per_launch.iter_mut().zip(vals) {
            v.push(x);
        }
    }
    let names = [
        ("rma.put_mops", "Mops/s"),
        ("rma.put_flush_p50_ns", "ns"),
        ("rma.put_flush_p99_ns", "ns"),
        ("rma.get_flush_p50_ns", "ns"),
        ("rma.fao_p50_ns", "ns"),
    ];
    for ((name, unit), v) in names.iter().zip(&per_launch) {
        out.e2e(name, median(v), unit);
    }
}

/// Output checks of one launch, for rank `r` (`o`) and its peer.
fn check(seed: u64, r: usize, o: &RankOut, peer: &RankOut, out: &mut Out) {
    out.attempted += o.puts + o.gets + o.faos;
    out.check(o.bad_gets == 0, || format!("rank {r}: {} gets missed the canary", o.bad_gets));
    out.check(o.bad_faos == 0, || {
        format!("rank {r}: {} fetch_and_op results out of sequence", o.bad_faos)
    });
    out.check(o.counter == peer.faos, || {
        format!("rank {r}: counter {} != {} fetch_and_ops issued by the peer", o.counter, peer.faos)
    });
    for (j, &got) in o.slots_from_peer.iter().enumerate() {
        // The last put the peer issued to slot j.
        let want = (0..peer.puts)
            .rev()
            .find(|i| *i as usize % SLOTS == j)
            .map_or(0, |i| put_value(seed, 1 - r as u32, i));
        out.check(got == want, || format!("rank {r}: put slot {j} holds {got:#x}, want {want:#x}"));
    }
}

fn phases(win: &Win, me: u32, peer: u32, seed: u64, t0: Instant, secs: f64, o: &mut RankOut) {
    let base = me as usize * REGION;
    let until = |share: f64| t0 + Duration::from_secs_f64(secs * share);
    let (rate_end, put_end, get_end, fao_end) =
        (until(0.5), until(4.0 / 6.0), until(5.0 / 6.0), until(1.0));

    // Rate phase: Fig 5's message rate, 16 puts per flush.
    let mut now = Instant::now();
    while now < rate_end {
        for _ in 0..SLOTS {
            let v = put_value(seed, me, o.puts);
            win.put(&v.to_le_bytes(), peer, base + (o.puts as usize % SLOTS) * 8).expect("put");
            o.puts += 1;
        }
        win.flush(peer).expect("flush");
        let t = Instant::now();
        o.batch.add(t - now);
        now = t;
    }
    // Latency phase: Fig 4 (put, get) and Fig 6a (fetch_and_op).
    while now < put_end {
        let v = put_value(seed, me, o.puts);
        win.put(&v.to_le_bytes(), peer, base + (o.puts as usize % SLOTS) * 8).expect("put");
        win.flush(peer).expect("flush");
        o.puts += 1;
        let t = Instant::now();
        o.put.add(t - now);
        now = t;
    }
    let mut buf = [0u8; 8];
    while now < get_end {
        let k = o.gets as usize % SLOTS;
        win.get(&mut buf, peer, CANARY + k * 8).expect("get");
        win.flush(peer).expect("flush");
        let t = Instant::now();
        o.get.add(t - now);
        now = t;
        o.bad_gets += u64::from(u64::from_le_bytes(buf) != canary(seed, peer, k));
        o.gets += 1;
    }
    let one = 1u64.to_le_bytes();
    while now < fao_end {
        win.fetch_and_op(&one, &mut buf, NumKind::U64, MpiOp::Sum, peer, COUNTER)
            .expect("fetch_and_op");
        win.flush(peer).expect("flush");
        let t = Instant::now();
        o.fao.add(t - now);
        now = t;
        o.bad_faos += u64::from(u64::from_le_bytes(buf) != o.faos);
        o.faos += 1;
    }
}
