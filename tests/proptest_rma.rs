//! Workspace-level randomized tests (seeded in-repo PRNG): the RMA layer
//! against randomized workloads, and cross-backend agreement of the
//! application motifs.

use fompi::{DataType, LockType, MpiOp, NumKind, Win};
use fompi_apps::fft::{self, FftConfig, C64};
use fompi_apps::hashtable::{self, HtConfig};
use fompi_fabric::rng::Rng;
use fompi_fabric::CostModel;
use fompi_msg::{Comm, MsgEngine};
use fompi_runtime::Universe;

/// Random put/get scripts against one target behave like a local
/// byte-array model.
#[test]
fn put_get_script_matches_model() {
    for case in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0x9075_0000 + case);
        let script: Vec<(usize, Vec<u8>)> = (0..rng.range(1, 25))
            .map(|_| {
                let off = rng.range(0, 240);
                let mut data = vec![0u8; rng.range(1, 16)];
                rng.fill_bytes(&mut data);
                (off, data)
            })
            .collect();
        let script2 = script.clone();
        let got = Universe::new(2).node_size(1).model(CostModel::free()).run(move |ctx| {
            let win = Win::allocate(ctx, 256, 1).unwrap();
            let mut model = vec![0u8; 256];
            if ctx.rank() == 0 {
                win.lock(LockType::Exclusive, 1).unwrap();
                for (off, data) in &script2 {
                    let off = (*off).min(256 - data.len());
                    win.put(data, 1, off).unwrap();
                    model[off..off + data.len()].copy_from_slice(data);
                }
                win.flush(1).unwrap();
                let mut out = vec![0u8; 256];
                win.get(&mut out, 1, 0).unwrap();
                win.flush(1).unwrap();
                win.unlock(1).unwrap();
                ctx.barrier();
                (out, model)
            } else {
                ctx.barrier();
                (Vec::new(), Vec::new())
            }
        });
        let (out, model) = &got[0];
        assert_eq!(out, model, "case {case}");
    }
}

/// Accumulate(SUM) over random element streams totals exactly, regardless
/// of how elements are batched (atomicity property).
#[test]
fn accumulate_batches_commute() {
    for case in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0xACC0_0000 + case);
        let batches: Vec<usize> = (0..rng.range(1, 6)).map(|_| rng.range(1, 8)).collect();
        let b2 = batches.clone();
        let got = Universe::new(4).node_size(2).model(CostModel::free()).run(move |ctx| {
            let win = Win::allocate(ctx, 64, 1).unwrap();
            win.fence().unwrap();
            for &n in &b2 {
                let buf: Vec<u8> = (0..n).flat_map(|_| 1u64.to_le_bytes()).collect();
                win.accumulate(&buf, NumKind::U64, MpiOp::Sum, 0, 0).unwrap();
            }
            win.fence().unwrap();
            let mut out = [0u8; 8];
            win.read_local(0, &mut out);
            u64::from_le_bytes(out)
        });
        // Each batch of n elements adds 1 to elements 0..n; element 0 gets
        // one increment per batch per rank.
        assert_eq!(got[0], 4 * batches.len() as u64, "case {case}");
    }
}

/// Typed put through arbitrary strided views delivers exactly the
/// flattened bytes.
#[test]
fn typed_put_strided() {
    for case in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0x7F9E_D000 + case);
        let count = rng.range(1, 5);
        let blocklen = rng.range(1, 4);
        let gap = rng.range(0, 4);
        let stride = blocklen + gap;
        let got = Universe::new(2).node_size(1).model(CostModel::free()).run(move |ctx| {
            let ty = DataType::vector(count, blocklen, stride, DataType::byte());
            let span = ty.extent();
            let win = Win::allocate(ctx, 256, 1).unwrap();
            win.fence().unwrap();
            let mut expect = Vec::new();
            if ctx.rank() == 0 {
                let src: Vec<u8> = (0..span as u8).map(|i| i.wrapping_add(5)).collect();
                let dense = DataType::contiguous(ty.size(), DataType::byte());
                win.put_typed(&src, 1, &ty, 1, 0, 1, &dense).unwrap();
                expect = ty.pack(1, &src);
            }
            win.fence().unwrap();
            let mut out = vec![0u8; count * blocklen];
            win.read_local(0, &mut out);
            ctx.barrier();
            (out, expect)
        });
        // Rank 1 holds the packed bytes; rank 0 computed the expectation.
        let expect = &got[0].1;
        let got1 = &got[1].0;
        assert_eq!(got1, expect, "case {case}");
    }
}

/// The hashtable conserves elements for arbitrary geometry.
#[test]
fn hashtable_conserves_elements() {
    for case in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0x4A54_0000 + case);
        let p = rng.range(2, 5);
        let inserts = rng.range(1, 80);
        let slots_exp = rng.range(2, 8) as u32;
        let seed = rng.next_u64();
        let cfg = HtConfig {
            inserts_per_rank: inserts,
            table_slots: 1 << slots_exp,
            heap_cells: p * inserts + 8,
            seed,
        };
        let got = Universe::new(p)
            .node_size(2)
            .model(CostModel::free())
            .run(move |ctx| hashtable::run_rma(ctx, &cfg));
        let total: usize = got.iter().map(|r| r.local_elements).sum();
        assert_eq!(total, p * inserts, "case {case}");
    }
}

/// Every distributed FFT variant equals the serial FFT bit for bit (same
/// operations in the same order) for random seeds and sizes.
#[test]
fn fft_matches_serial_randomized() {
    for case in 0..8u64 {
        let mut rng = Rng::seed_from_u64(0xFF7_0000 + case);
        let p = 1usize << rng.range(1, 3);
        let n = 1usize << rng.range(3, 5);
        if !n.is_multiple_of(p) {
            continue;
        }
        let seed = rng.next_u64();
        let cfg = FftConfig { n, seed };
        let universe = || Universe::new(p).node_size(2).model(CostModel::free());
        let mpi1 = |overlap: bool| {
            let engine = MsgEngine::new(p);
            universe().run(move |ctx| {
                let comm = Comm::attach(ctx, &engine);
                fft::run_mpi1(ctx, &comm, &cfg, overlap)
            })
        };
        let variants = [
            ("rma", universe().run(move |ctx| fft::run_rma(ctx, &cfg))),
            ("upc", universe().run(move |ctx| fft::run_upc(ctx, &cfg))),
            ("mpi1-bulk", mpi1(false)),
            ("mpi1-overlap", mpi1(true)),
        ];
        let reference = fft::fft3d_serial(&cfg);
        let nxl = n / p;
        for (name, got) in &variants {
            for (rank, res) in got.iter().enumerate() {
                assert_eq!(res.local_out.len(), n * n * nxl);
                for (i, a) in res.local_out.iter().enumerate() {
                    let (zy, xl) = (i / nxl, i % nxl);
                    let b = reference[zy * n + rank * nxl + xl];
                    assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "case {case} {name} rank {rank} element {i}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }
}

/// FNV-1a over the `f64::to_bits` patterns of `v`.
fn fnv_bits(h: &mut u64, v: &[C64]) {
    for c in v {
        for x in [c.re.to_bits(), c.im.to_bits()] {
            for b in x.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
}

/// The FFT kernel reproduces the original textbook radix-2 loop bit for
/// bit: the constant hashes that loop's output for a 16³ serial transform,
/// a length-64 inverse and a length-32 forward transform (an even and an
/// odd number of stages).
#[test]
fn fft_kernel_matches_golden_bits() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv_bits(&mut h, &fft::fft3d_serial(&FftConfig { n: 16, seed: 0x5EED }));
    let mut v: Vec<C64> =
        (0..64).map(|i| C64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos() - 0.2)).collect();
    fft::fft_1d(&mut v, true);
    fnv_bits(&mut h, &v);
    let mut u: Vec<C64> =
        (0..32).map(|i| C64::new(1.0 / (i as f64 + 1.0), -(i as f64 * 0.11).sin())).collect();
    fft::fft_1d(&mut u, false);
    fnv_bits(&mut h, &u);
    assert_eq!(h, 0xb3ee_ab1c_82b6_69ff);
}
