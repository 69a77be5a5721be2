//! The layer ladder: the same small ops timed at each layer's public entry,
//! bottom up — `Segment` (memory copy), `Endpoint` (the emulated NIC, on a
//! bare `Fabric` with no `Win` and no `Universe`), `Win` (comm + sync),
//! and the runtime. A layer's self cost is its row minus the row of the
//! layer below (`win.put_8b_ns − endpoint.put_8b_ns` prices `comm`).
//!
//! Per-op rows time batches of [`BATCH`] ops and report the median batch
//! divided by its size, because one `Instant::now` costs about as much as
//! a `Segment` write.

use crate::lat::Lat;
use crate::{metric as m, universe, Metric};
use fompi::{LockType, MpiOp, NumKind, Win, ASSERT_NOSUCCEED};
use fompi_fabric::{AmoOp, CostModel, Endpoint, Fabric, SegKey, Segment};
use fompi_runtime::Group;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const BATCH: usize = 16;
/// Batches per per-op row.
const REPS: usize = 4000;
/// Repetitions of the collective and sync rows.
const SYNC_REPS: usize = 2000;

/// Median over `reps` timed calls of `f`, each covering `per` ops, in ns
/// per op.
fn per_op(reps: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let mut lat = Lat::default();
    for _ in 0..reps {
        let t = Instant::now();
        f();
        lat.add(t.elapsed());
    }
    lat.q(0.5) / per as f64
}

fn segment_rows(out: &mut Vec<Metric>) {
    let seg = Segment::new(4096);
    let word = 0x5EED_u64.to_le_bytes();
    let mut i = 0usize;
    let w8 = per_op(REPS, BATCH, || {
        for _ in 0..BATCH {
            seg.write((i % 512) * 8, black_box(&word));
            i += 1;
        }
    });
    out.push(m("segment.write_8b_ns", w8, "ns"));
    let big = Segment::new(64 << 10);
    let src = vec![0xA5u8; 64 << 10];
    let ns = per_op(REPS / 4, 1, || big.write(0, black_box(&src)));
    out.push(m("segment.write_64k_gbps", src.len() as f64 / ns, "GB/s"));
}

/// `put_implicit` ×16 then `gsync`, from rank `me` of a bare two-rank
/// fabric into the other rank's segment: `(put ns, gsync ns)`.
fn endpoint_puts(f: &Arc<Fabric>, me: u32, key: SegKey) -> (f64, f64) {
    let ep = Endpoint::new(f.clone(), me);
    let word = 7u64.to_le_bytes();
    let (mut puts, mut syncs) = (Lat::default(), Lat::default());
    for _ in 0..REPS {
        let t0 = Instant::now();
        for s in 0..BATCH {
            ep.put_implicit(key, s * 8, &word).expect("put_implicit");
        }
        let t1 = Instant::now();
        ep.gsync();
        puts.add(t1 - t0);
        syncs.add(t1.elapsed());
    }
    (puts.q(0.5) / BATCH as f64, syncs.q(0.5))
}

fn endpoint_rows(out: &mut Vec<Metric>) {
    let f = Fabric::new(2, 1, CostModel::default());
    let keys = [f.register(0, Segment::new(4096)), f.register(1, Segment::new(4096))];
    let (put, gsync) = endpoint_puts(&f, 0, keys[1]);
    out.push(m("endpoint.put_8b_ns", put, "ns"));
    out.push(m("endpoint.gsync_ns", gsync, "ns"));
    // Both ranks issue at once: the difference from one issuer prices the
    // shared counters and the segment-registry lock.
    let start = Barrier::new(2);
    let both: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2u32)
            .map(|r| {
                let (f, start) = (&f, &start);
                s.spawn(move || {
                    start.wait();
                    endpoint_puts(f, r, keys[1 - r as usize]).0
                })
            })
            .collect();
        hs.into_iter().map(|h| h.join().expect("issuer thread")).collect()
    });
    out.push(m("endpoint.put_8b_ns.2issuers", (both[0] + both[1]) / 2.0, "ns"));
    let ep = Endpoint::new(f.clone(), 0);
    let mut buf = [0u8; 8];
    let get = per_op(REPS, BATCH, || {
        for s in 0..BATCH {
            ep.get(keys[1], s * 8, &mut buf).expect("get");
        }
    });
    out.push(m("endpoint.get_8b_ns", get, "ns"));
    let amo = per_op(REPS, BATCH, || {
        for s in 0..BATCH {
            ep.amo(keys[1], s * 8, AmoOp::Add, 1, 0).expect("amo");
        }
    });
    out.push(m("endpoint.amo_ns", amo, "ns"));
}

/// `Win` rows (rank 0 issues to rank 1), then the sync and runtime rows.
fn win_rows(out: &mut Vec<Metric>) {
    let rows = universe(false).run(|ctx| {
        let me = ctx.rank();
        let win = Win::allocate(ctx, 64 << 10, 1).expect("ladder window");
        let mut rows = Vec::new();
        let word = 3u64.to_le_bytes();
        let mut buf = [0u8; 8];
        win.lock_all().expect("lock_all");
        if me == 0 {
            let (mut puts, mut flushes) = (Lat::default(), Lat::default());
            for _ in 0..REPS {
                let t0 = Instant::now();
                for s in 0..BATCH {
                    win.put(&word, 1, s * 8).expect("put");
                }
                let t1 = Instant::now();
                win.flush(1).expect("flush");
                puts.add(t1 - t0);
                flushes.add(t1.elapsed());
            }
            rows.push(m("win.put_8b_ns", puts.q(0.5) / BATCH as f64, "ns"));
            rows.push(m("win.flush_ns", flushes.q(0.5), "ns"));
            let get = per_op(REPS, BATCH, || {
                for s in 0..BATCH {
                    win.get(&mut buf, 1, s * 8).expect("get");
                }
                win.flush(1).expect("flush");
            });
            rows.push(m("win.get_8b_ns", get, "ns"));
            let one = 1u64.to_le_bytes();
            let fao = per_op(REPS, BATCH, || {
                for s in 0..BATCH {
                    win.fetch_and_op(&one, &mut buf, NumKind::U64, MpiOp::Sum, 1, s * 8)
                        .expect("fao");
                }
            });
            rows.push(m("win.fao_ns", fao, "ns"));
            let cas = per_op(REPS, BATCH, || {
                for s in 0..BATCH {
                    black_box(win.compare_and_swap(1, 0, 1, s * 8).expect("cas"));
                }
            });
            rows.push(m("win.cas_ns", cas, "ns"));
            let acc = per_op(REPS, BATCH, || {
                for s in 0..BATCH {
                    win.accumulate(&one, NumKind::U64, MpiOp::Sum, 1, s * 8).expect("accumulate");
                }
            });
            rows.push(m("win.acc_8b_ns", acc, "ns"));
            let big = vec![0x5Au8; 64 << 10];
            let put64 = per_op(REPS / 4, 1, || {
                win.put(&big, 1, 0).expect("put 64k");
                win.flush(1).expect("flush");
            });
            rows.push(m("win.put_64k_ns", put64, "ns"));
        }
        win.flush_all().expect("flush_all");
        ctx.barrier();
        win.unlock_all().expect("unlock_all");

        let pair = per_op(SYNC_REPS, 1, || {
            win.lock_all().expect("lock_all");
            win.unlock_all().expect("unlock_all");
        });
        rows.push(m("sync.lock_all_pair_ns", pair, "ns"));
        ctx.barrier();
        if me == 0 {
            let excl = per_op(SYNC_REPS, 1, || {
                win.lock(LockType::Exclusive, 1).expect("lock");
                win.unlock(1).expect("unlock");
            });
            rows.push(m("sync.lock_excl_pair_ns", excl, "ns"));
        }
        ctx.barrier();
        let peer = Group::new([1 - me]);
        let mut pscw = Lat::default();
        for _ in 0..SYNC_REPS {
            let t = Instant::now();
            if me == 0 {
                win.start(&peer).expect("start");
                win.complete().expect("complete");
            } else {
                win.post(&peer).expect("post");
                win.wait().expect("wait");
            }
            pscw.add(t.elapsed());
        }
        rows.push(m("sync.pscw_cycle_ns", pscw.q(0.5), "ns"));
        let fence = per_op(SYNC_REPS, 1, || win.fence().expect("fence"));
        rows.push(m("sync.fence_ns", fence, "ns"));
        win.fence_assert(ASSERT_NOSUCCEED).expect("closing fence");
        let barrier = per_op(SYNC_REPS, 1, || ctx.barrier());
        rows.push(m("runtime.barrier_ns", barrier, "ns"));
        win.free(ctx);
        rows
    });
    // Rank 0's rows; the collective rows are the same on both ranks.
    out.extend(rows.into_iter().next().expect("rank 0"));
    let mut launches = Lat::default();
    for _ in 0..20 {
        let t = Instant::now();
        universe(false).run(|ctx| black_box(ctx.rank()));
        launches.add(t.elapsed());
    }
    out.push(m("runtime.launch_ms", launches.q(0.5) / 1e6, "ms"));
}

/// Every ladder row, bottom layer first.
pub fn run() -> Vec<Metric> {
    let mut out = Vec::new();
    segment_rows(&mut out);
    endpoint_rows(&mut out);
    win_rows(&mut out);
    out
}
