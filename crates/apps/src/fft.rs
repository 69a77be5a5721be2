//! 3-D Fast Fourier Transform with communication/computation overlap
//! (§4.3, Figure 7c — NAS FT benchmark style).
//!
//! A complex n³ grid is decomposed into z-slabs. Each rank FFTs its planes
//! in x and y, redistributes to x-slabs (the global transpose), and FFTs in
//! z. Following Nishtala/Bell (and the paper), the overlapped variants
//! "start to communicate the data of a plane as soon as it is available and
//! complete the communication as late as possible":
//!
//! * [`run_mpi1`] with `overlap = false` — compute everything, one bulk
//!   exchange, compute (the MPI-1 baseline);
//! * [`run_mpi1`] with `overlap = true` — per-plane nonblocking sends
//!   (the "default nonblocking MPI" curve);
//! * [`run_rma`] — per-plane `MPI_Put` directly into the target slab inside
//!   a single fence epoch (the foMPI curve);
//! * [`run_upc`] — per-plane `upc_memput` + barrier (the UPC slab curve).
//!
//! All variants produce bit-identical results (same operation order), so
//! tests verify them against a naive DFT and against each other.

use fompi::Win;
use fompi_msg::Comm;
use fompi_pgas::SharedArray;
use fompi_runtime::RankCtx;

/// A complex number (f64 re/im) — the FFT element type.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Construct.
    pub fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }

    /// Squared magnitude.
    pub fn norm2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Mul for C64 {
    type Output = C64;
    fn mul(self, o: C64) -> C64 {
        C64::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }
}

impl std::ops::Add for C64 {
    type Output = C64;
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for C64 {
    type Output = C64;
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
}

/// In-place iterative radix-2 Cooley-Tukey FFT. `data.len()` must be a
/// power of two.
pub fn fft_1d(data: &mut [C64], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = C64::new(ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let mut w = C64::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[start + k];
                let v = data[start + k + len / 2] * w;
                data[start + k] = u + v;
                data[start + k + len / 2] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
    if inverse {
        let inv = 1.0 / n as f64;
        for d in data {
            d.re *= inv;
            d.im *= inv;
        }
    }
}

/// Naive O(n²) DFT for verification.
pub fn dft_naive(data: &[C64]) -> Vec<C64> {
    let n = data.len();
    (0..n)
        .map(|k| {
            let mut acc = C64::default();
            for (j, &x) in data.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc = acc + x * C64::new(ang.cos(), ang.sin());
            }
            acc
        })
        .collect()
}

/// FFT flop count: 5 n log2 n (the NAS convention).
pub fn fft_flops(n: usize) -> f64 {
    5.0 * n as f64 * (n as f64).log2()
}

/// Problem description.
#[derive(Debug, Clone, Copy)]
pub struct FftConfig {
    /// Grid edge (n³ total, power of two, divisible by p).
    pub n: usize,
    /// Input seed.
    pub seed: u64,
}

/// Per-rank result.
#[derive(Debug, Clone)]
pub struct FftResult {
    /// Virtual ns for the full transform.
    pub time_ns: f64,
    /// This rank's x-slab of the transformed grid, layout
    /// `[(z·n + y)·nxl + xl]`.
    pub local_out: Vec<C64>,
}

impl FftResult {
    /// GFlop/s achieved for the full 3-D transform across `p` ranks.
    pub fn gflops(&self, n: usize) -> f64 {
        let total = n * n * n;
        fft_flops(total) / self.time_ns
    }
}

/// Deterministic input value at global coordinates.
pub fn input_at(cfg: &FftConfig, x: usize, y: usize, z: usize) -> C64 {
    let h = crate::splitmix64(cfg.seed ^ ((x as u64) << 40) ^ ((y as u64) << 20) ^ z as u64);
    let re = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
    let im = ((crate::splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
    C64::new(re, im)
}

/// Serial reference: full 3-D FFT of the same input, layout
/// `[(z·n + y)·n + x]`.
pub fn fft3d_serial(cfg: &FftConfig) -> Vec<C64> {
    let n = cfg.n;
    let mut grid = vec![C64::default(); n * n * n];
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                grid[(z * n + y) * n + x] = input_at(cfg, x, y, z);
            }
        }
    }
    // x direction.
    for z in 0..n {
        for y in 0..n {
            fft_1d(&mut grid[(z * n + y) * n..(z * n + y) * n + n], false);
        }
    }
    // y direction.
    let mut col = vec![C64::default(); n];
    for z in 0..n {
        for x in 0..n {
            for y in 0..n {
                col[y] = grid[(z * n + y) * n + x];
            }
            fft_1d(&mut col, false);
            for y in 0..n {
                grid[(z * n + y) * n + x] = col[y];
            }
        }
    }
    // z direction.
    for y in 0..n {
        for x in 0..n {
            for z in 0..n {
                col[z] = grid[(z * n + y) * n + x];
            }
            fft_1d(&mut col, false);
            for z in 0..n {
                grid[(z * n + y) * n + x] = col[z];
            }
        }
    }
    grid
}

// ------------------------------------------------------ distributed pieces

struct Slab {
    n: usize,
    p: usize,
    nzl: usize,
    nxl: usize,
    me: usize,
}

impl Slab {
    fn new(ctx: &RankCtx, cfg: &FftConfig) -> Slab {
        let n = cfg.n;
        let p = ctx.size();
        assert!(n.is_multiple_of(p), "n must be divisible by p");
        Slab { n, p, nzl: n / p, nxl: n / p, me: ctx.rank() as usize }
    }

    /// Fill this rank's z-slab with input data (layout `[zl][y][x]`).
    fn load_input(&self, cfg: &FftConfig) -> Vec<C64> {
        let n = self.n;
        let mut data = vec![C64::default(); self.nzl * n * n];
        for zl in 0..self.nzl {
            let z = self.me * self.nzl + zl;
            for y in 0..n {
                for x in 0..n {
                    data[(zl * n + y) * n + x] = input_at(cfg, x, y, z);
                }
            }
        }
        data
    }

    /// FFT plane `zl` in x then y; charge flops.
    fn fft_plane(&self, ctx: &RankCtx, data: &mut [C64], zl: usize) {
        let n = self.n;
        let plane = &mut data[zl * n * n..(zl + 1) * n * n];
        for y in 0..n {
            fft_1d(&mut plane[y * n..y * n + n], false);
        }
        let mut col = vec![C64::default(); n];
        for x in 0..n {
            for y in 0..n {
                col[y] = plane[y * n + x];
            }
            fft_1d(&mut col, false);
            for y in 0..n {
                plane[y * n + x] = col[y];
            }
        }
        ctx.ep().charge_flops(2.0 * n as f64 * fft_flops(n));
    }

    /// Pack plane `zl`'s chunk destined for target `t` (bytes).
    fn pack_chunk(&self, data: &[C64], zl: usize, t: usize) -> Vec<u8> {
        let n = self.n;
        let nxl = self.nxl;
        let mut out = Vec::with_capacity(n * nxl * 16);
        for y in 0..n {
            for xl in 0..nxl {
                let c = data[(zl * n + y) * n + t * nxl + xl];
                out.extend_from_slice(&c.re.to_le_bytes());
                out.extend_from_slice(&c.im.to_le_bytes());
            }
        }
        out
    }

    /// Byte offset of plane `z` in the x-slab receive buffer.
    fn slab_plane_off(&self, z: usize) -> usize {
        z * self.n * self.nxl * 16
    }

    /// Total x-slab bytes.
    fn slab_bytes(&self) -> usize {
        self.n * self.n * self.nxl * 16
    }

    /// Decode the x-slab byte buffer into complex values.
    fn decode_slab(&self, bytes: &[u8]) -> Vec<C64> {
        bytes
            .chunks_exact(16)
            .map(|b| {
                C64::new(
                    f64::from_le_bytes(b[0..8].try_into().unwrap()),
                    f64::from_le_bytes(b[8..16].try_into().unwrap()),
                )
            })
            .collect()
    }

    /// Final z-direction FFT over the x-slab; charge flops.
    fn fft_z(&self, ctx: &RankCtx, slab: &mut [C64]) {
        let n = self.n;
        let nxl = self.nxl;
        let mut col = vec![C64::default(); n];
        for y in 0..n {
            for xl in 0..nxl {
                for z in 0..n {
                    col[z] = slab[(z * n + y) * nxl + xl];
                }
                fft_1d(&mut col, false);
                for z in 0..n {
                    slab[(z * n + y) * nxl + xl] = col[z];
                }
            }
        }
        ctx.ep().charge_flops(n as f64 * nxl as f64 * fft_flops(n));
    }
}

// ------------------------------------------------------------------ MPI-1

/// Message-passing variant. With `overlap`, each plane's chunks are sent
/// (nonblocking) as soon as the plane is transformed; otherwise one bulk
/// alltoall runs after all planes.
pub fn run_mpi1(ctx: &RankCtx, comm: &Comm, cfg: &FftConfig, overlap: bool) -> FftResult {
    let s = Slab::new(ctx, cfg);
    let (n, p, nzl, nxl, me) = (s.n, s.p, s.nzl, s.nxl, s.me);
    let mut data = s.load_input(cfg);
    ctx.barrier();
    let t0 = ctx.now();
    let mut slab_bytes = vec![0u8; s.slab_bytes()];
    if overlap {
        const FFT_TAG: u32 = 0xFF7_0000;
        // Pre-post receives for every incoming plane chunk.
        let chunk = n * nxl * 16;
        let mut reqs = Vec::new();
        {
            let mut rest: &mut [u8] = &mut slab_bytes;
            let mut chunks: Vec<&mut [u8]> = Vec::new();
            while !rest.is_empty() {
                let (a, b) = rest.split_at_mut(chunk);
                chunks.push(a);
                rest = b;
            }
            // chunks[z] is plane z's slot; plane z comes from rank z / nzl.
            for (z, buf) in chunks.into_iter().enumerate() {
                let src = (z / nzl) as u32;
                if src as usize == me {
                    continue;
                }
                reqs.push(comm.irecv(buf, src, FFT_TAG + z as u32).expect("irecv"));
            }
            for zl in 0..nzl {
                s.fft_plane(ctx, &mut data, zl);
                let z = me * nzl + zl;
                for t in 0..p {
                    if t == me {
                        continue; // self chunk copied after the borrows end
                    }
                    let bytes = s.pack_chunk(&data, zl, t);
                    comm.isend(&bytes, t as u32, FFT_TAG + z as u32).expect("isend");
                }
            }
            for r in reqs {
                r.wait(ctx.ep());
            }
        }
        // Local chunks (self → self).
        for zl in 0..nzl {
            let z = me * nzl + zl;
            let bytes = s.pack_chunk(&data, zl, me);
            slab_bytes[s.slab_plane_off(z)..s.slab_plane_off(z) + bytes.len()]
                .copy_from_slice(&bytes);
        }
    } else {
        // Bulk variant: compute all planes, then one alltoall.
        for zl in 0..nzl {
            s.fft_plane(ctx, &mut data, zl);
        }
        let block = nzl * n * nxl * 16;
        let mut send = vec![0u8; p * block];
        for t in 0..p {
            for zl in 0..nzl {
                let bytes = s.pack_chunk(&data, zl, t);
                let off = t * block + zl * n * nxl * 16;
                send[off..off + bytes.len()].copy_from_slice(&bytes);
            }
        }
        let mut recv = vec![0u8; p * block];
        comm.alltoall(&send, &mut recv, block);
        // recv[s] holds source s's planes z = s*nzl + zl.
        for src in 0..p {
            for zl in 0..nzl {
                let z = src * nzl + zl;
                let from = src * block + zl * n * nxl * 16;
                let to = s.slab_plane_off(z);
                slab_bytes[to..to + n * nxl * 16].copy_from_slice(&recv[from..from + n * nxl * 16]);
            }
        }
    }
    let mut slab = s.decode_slab(&slab_bytes);
    s.fft_z(ctx, &mut slab);
    ctx.barrier();
    FftResult { time_ns: ctx.now() - t0, local_out: slab }
}

// -------------------------------------------------------------------- RMA

/// foMPI variant: per-plane puts straight into the target slab, one fence
/// epoch, communication completed "as late as possible".
pub fn run_rma(ctx: &RankCtx, cfg: &FftConfig) -> FftResult {
    let s = Slab::new(ctx, cfg);
    let (p, nzl, me) = (s.p, s.nzl, s.me);
    let win = Win::allocate(ctx, s.slab_bytes(), 1).expect("fft window");
    let mut data = s.load_input(cfg);
    win.fence().expect("fence open");
    let t0 = ctx.now();
    let mut local_chunks = Vec::with_capacity(nzl);
    for zl in 0..nzl {
        s.fft_plane(ctx, &mut data, zl);
        let z = me * nzl + zl;
        // Communicate this plane immediately (overlapped with the next
        // plane's compute).
        for t in 0..p {
            let bytes = s.pack_chunk(&data, zl, t);
            if t == me {
                local_chunks.push((z, bytes));
            } else {
                win.put(&bytes, t as u32, s.slab_plane_off(z)).expect("plane put");
            }
        }
    }
    for (z, bytes) in local_chunks {
        win.write_local(s.slab_plane_off(z), &bytes);
    }
    win.fence().expect("fence close");
    let mut slab_bytes = vec![0u8; s.slab_bytes()];
    win.read_local(0, &mut slab_bytes);
    let mut slab = s.decode_slab(&slab_bytes);
    s.fft_z(ctx, &mut slab);
    ctx.barrier();
    let time_ns = ctx.now() - t0;
    // After the timing: freeing is collective, and the slab would
    // otherwise stay registered until the fabric drops.
    win.free(ctx);
    FftResult { time_ns, local_out: slab }
}

// -------------------------------------------------------------------- UPC

/// UPC slab variant: `upc_memput` per plane chunk, completed by a barrier.
pub fn run_upc(ctx: &RankCtx, cfg: &FftConfig) -> FftResult {
    let s = Slab::new(ctx, cfg);
    let (p, nzl, me) = (s.p, s.nzl, s.me);
    let arr = SharedArray::all_alloc(ctx, s.slab_bytes());
    let mut data = s.load_input(cfg);
    arr.barrier();
    let t0 = ctx.now();
    for zl in 0..nzl {
        s.fft_plane(ctx, &mut data, zl);
        let z = me * nzl + zl;
        for t in 0..p {
            let bytes = s.pack_chunk(&data, zl, t);
            if t == me {
                arr.write_local(s.slab_plane_off(z), &bytes);
            } else {
                arr.memput(t as u32, s.slab_plane_off(z), &bytes);
            }
        }
    }
    arr.barrier();
    let mut slab_bytes = vec![0u8; s.slab_bytes()];
    arr.read_local(0, &mut slab_bytes);
    let mut slab = s.decode_slab(&slab_bytes);
    s.fft_z(ctx, &mut slab);
    ctx.barrier();
    let time_ns = ctx.now() - t0;
    arr.free(ctx);
    FftResult { time_ns, local_out: slab }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_msg::MsgEngine;
    use fompi_runtime::Universe;

    #[test]
    fn fft1d_matches_naive_dft() {
        let data: Vec<C64> =
            (0..16).map(|i| C64::new((i as f64).sin(), (i as f64 * 0.3).cos())).collect();
        let mut fast = data.clone();
        fft_1d(&mut fast, false);
        let slow = dft_naive(&data);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn fft1d_inverse_roundtrip() {
        let data: Vec<C64> = (0..32).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let mut w = data.clone();
        fft_1d(&mut w, false);
        fft_1d(&mut w, true);
        for (a, b) in w.iter().zip(&data) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    fn check_against_serial(cfg: &FftConfig, p: usize, results: &[FftResult]) {
        let reference = fft3d_serial(cfg);
        let n = cfg.n;
        let nxl = n / p;
        for (rank, res) in results.iter().enumerate() {
            for z in 0..n {
                for y in 0..n {
                    for xl in 0..nxl {
                        let got = res.local_out[(z * n + y) * nxl + xl];
                        let want = reference[(z * n + y) * n + rank * nxl + xl];
                        assert!(
                            (got.re - want.re).abs() < 1e-6 && (got.im - want.im).abs() < 1e-6,
                            "mismatch at rank {rank} z{z} y{y} x{xl}: {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mpi1_bulk_matches_serial() {
        let cfg = FftConfig { n: 8, seed: 11 };
        let p = 4;
        let engine = MsgEngine::new(p);
        let got = Universe::new(p).node_size(2).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_mpi1(ctx, &comm, &cfg, false)
        });
        check_against_serial(&cfg, p, &got);
    }

    #[test]
    fn mpi1_overlap_matches_serial() {
        let cfg = FftConfig { n: 8, seed: 12 };
        let p = 2;
        let engine = MsgEngine::new(p);
        let got = Universe::new(p).node_size(1).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_mpi1(ctx, &comm, &cfg, true)
        });
        check_against_serial(&cfg, p, &got);
    }

    #[test]
    fn rma_matches_serial() {
        let cfg = FftConfig { n: 8, seed: 13 };
        let p = 4;
        let got = Universe::new(p).node_size(2).run(move |ctx| run_rma(ctx, &cfg));
        check_against_serial(&cfg, p, &got);
    }

    #[test]
    fn upc_matches_serial() {
        let cfg = FftConfig { n: 8, seed: 14 };
        let p = 2;
        let got = Universe::new(p).node_size(2).run(move |ctx| run_upc(ctx, &cfg));
        check_against_serial(&cfg, p, &got);
    }

    #[test]
    fn parseval_energy_conserved() {
        // ‖FFT(x)‖² = n·‖x‖² for our unnormalised forward transform —
        // checked on the distributed result.
        let cfg = FftConfig { n: 8, seed: 21 };
        let p = 4;
        let got = Universe::new(p).node_size(2).run(move |ctx| {
            let r = run_rma(ctx, &cfg);
            r.local_out.iter().map(|c| c.norm2()).sum::<f64>()
        });
        let freq_energy: f64 = got.iter().sum();
        let n = cfg.n;
        let mut time_energy = 0.0;
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    time_energy += input_at(&cfg, x, y, z).norm2();
                }
            }
        }
        let expect = time_energy * (n * n * n) as f64;
        assert!(
            (freq_energy - expect).abs() < 1e-6 * expect,
            "Parseval violated: {freq_energy} vs {expect}"
        );
    }

    #[test]
    fn gflops_reporting_consistent() {
        let cfg = FftConfig { n: 8, seed: 1 };
        let engine = MsgEngine::new(2);
        let got = Universe::new(2).node_size(1).run(move |ctx| {
            let c = Comm::attach(ctx, &engine);
            run_mpi1(ctx, &c, &cfg, false)
        });
        let g = got[0].gflops(cfg.n);
        assert!(g.is_finite() && g > 0.0);
    }

    #[test]
    fn rma_overlap_not_slower_than_bulk_mpi1() {
        let cfg = FftConfig { n: 16, seed: 15 };
        let p = 4;
        let engine = MsgEngine::new(p);
        let mpi = Universe::new(p).node_size(1).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_mpi1(ctx, &comm, &cfg, false)
        });
        let rma = Universe::new(p).node_size(1).run(move |ctx| run_rma(ctx, &cfg));
        let t_mpi = crate::max_time(&mpi.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        let t_rma = crate::max_time(&rma.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        assert!(
            t_rma <= t_mpi * 1.05,
            "overlapped RMA ({t_rma}) should not lose to bulk MPI-1 ({t_mpi})"
        );
    }
}
