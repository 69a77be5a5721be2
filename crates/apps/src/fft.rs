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

/// A radix-2 schedule for one transform length and direction: the
/// bit-reversal swaps and every stage's twiddle factors. Each stage's
/// twiddles come from the recurrence `w ← w·wlen` starting at `(1, 0)`, so
/// a plan reproduces the textbook loop's values bit for bit.
///
/// Both runners execute the stages two at a time: stages `h` and `2h`
/// only combine elements within one group of four (`k`, `k+h`, `k+2h`,
/// `k+3h`), so each group is loaded once, put through its four radix-2
/// butterflies in stage order, and stored once. Every element sees the
/// same operations in the same order as the stage-by-stage loop.
struct Plan {
    n: usize,
    inverse: bool,
    /// Index pairs `(i, j)`, `i < j`, exchanged by the bit reversal.
    swaps: Vec<(usize, usize)>,
    /// The stage of half-length `h` keeps its `h` twiddles at
    /// `tw[h - 1..2h - 1]`.
    tw: Vec<C64>,
}

impl Plan {
    fn new(n: usize, inverse: bool) -> Plan {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let bits = n.trailing_zeros();
        let swaps = (0..n)
            .map(|i| (i, (i as u64).reverse_bits().checked_shr(64 - bits).unwrap_or(0) as usize))
            .filter(|&(i, j)| i < j)
            .collect();
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut tw = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = C64::new(ang.cos(), ang.sin());
            let mut w = C64::new(1.0, 0.0);
            for _ in 0..len / 2 {
                tw.push(w);
                w = w * wlen;
            }
            len <<= 1;
        }
        Plan { n, inverse, swaps, tw }
    }

    /// Twiddles of the stage with half-length `h`.
    fn stage(&self, h: usize) -> &[C64] {
        &self.tw[h - 1..2 * h - 1]
    }

    /// Twiddle triples `(w, w0, w1)` of the stage pair `(h, 2h)`, one per
    /// group offset `k` (see [`radix4`]).
    fn pass(&self, h: usize) -> impl Iterator<Item = ((&C64, &C64), &C64)> + Clone {
        let (w0, w1) = self.stage(2 * h).split_at(h);
        self.stage(h).iter().zip(w0).zip(w1)
    }

    /// Transform one contiguous sequence of length `n` in place.
    fn run(&self, data: &mut [C64]) {
        assert_eq!(data.len(), self.n);
        for &(i, j) in &self.swaps {
            data.swap(i, j);
        }
        let mut h = 1;
        while 4 * h <= self.n {
            let tw = self.pass(h);
            for block in data.chunks_exact_mut(4 * h) {
                let (q01, q23) = block.split_at_mut(2 * h);
                let ((q0, q1), (q2, q3)) = (q01.split_at_mut(h), q23.split_at_mut(h));
                let quads = q0.iter_mut().zip(q1).zip(q2).zip(q3);
                for ((((x0, x1), x2), x3), ((&w, &w0), &w1)) in quads.zip(tw.clone()) {
                    radix4(x0, x1, x2, x3, w, w0, w1);
                }
            }
            h *= 4;
        }
        if 2 * h == self.n {
            let (lo, hi) = data.split_at_mut(h);
            for ((u, v), &w) in lo.iter_mut().zip(hi).zip(self.stage(h)) {
                butterfly(u, v, w);
            }
        }
        self.scale(data);
    }

    /// Transform every column of `data`, read as `n` contiguous rows of
    /// `row` elements: the sequence for column `c` is `data[k·row + c]`.
    /// The bit reversal swaps whole rows and each butterfly runs along a
    /// row, so every column sees exactly the arithmetic of [`Plan::run`].
    fn run_rows(&self, data: &mut [C64], row: usize) {
        assert_eq!(data.len(), self.n * row);
        for &(i, j) in &self.swaps {
            let (a, b) = data.split_at_mut(j * row);
            a[i * row..(i + 1) * row].swap_with_slice(&mut b[..row]);
        }
        let mut h = 1;
        while 4 * h <= self.n {
            let tw = self.pass(h);
            for block in data.chunks_exact_mut(4 * h * row) {
                let (q01, q23) = block.split_at_mut(2 * h * row);
                let ((q0, q1), (q2, q3)) = (q01.split_at_mut(h * row), q23.split_at_mut(h * row));
                let rows = q0.chunks_exact_mut(row).zip(q1.chunks_exact_mut(row));
                let rows = rows.zip(q2.chunks_exact_mut(row)).zip(q3.chunks_exact_mut(row));
                for ((((r0, r1), r2), r3), ((&w, &w0), &w1)) in rows.zip(tw.clone()) {
                    for (((x0, x1), x2), x3) in r0.iter_mut().zip(r1).zip(r2).zip(r3) {
                        radix4(x0, x1, x2, x3, w, w0, w1);
                    }
                }
            }
            h *= 4;
        }
        if 2 * h == self.n {
            let (lo, hi) = data.split_at_mut(h * row);
            let rows = lo.chunks_exact_mut(row).zip(hi.chunks_exact_mut(row));
            for ((ru, rv), &w) in rows.zip(self.stage(h)) {
                for (u, v) in ru.iter_mut().zip(rv) {
                    butterfly(u, v, w);
                }
            }
        }
        self.scale(data);
    }

    /// The inverse transform's 1/n normalisation.
    fn scale(&self, data: &mut [C64]) {
        if self.inverse {
            let inv = 1.0 / self.n as f64;
            for d in data {
                d.re *= inv;
                d.im *= inv;
            }
        }
    }
}

/// One radix-2 butterfly: `(u, v) ← (u + v·w, u − v·w)`.
#[inline(always)]
fn butterfly(u: &mut C64, v: &mut C64, w: C64) {
    let a = *u;
    let b = *v * w;
    *u = a + b;
    *v = a - b;
}

/// Stages `h` (twiddle `w`) and `2h` (twiddles `w0`, `w1`) on one group of
/// four, in registers.
#[inline(always)]
fn radix4(x0: &mut C64, x1: &mut C64, x2: &mut C64, x3: &mut C64, w: C64, w0: C64, w1: C64) {
    let (mut a0, mut a1, mut a2, mut a3) = (*x0, *x1, *x2, *x3);
    butterfly(&mut a0, &mut a1, w);
    butterfly(&mut a2, &mut a3, w);
    butterfly(&mut a0, &mut a2, w0);
    butterfly(&mut a1, &mut a3, w1);
    (*x0, *x1, *x2, *x3) = (a0, a1, a2, a3);
}

/// In-place iterative radix-2 Cooley-Tukey FFT. `data.len()` must be a
/// power of two.
pub fn fft_1d(data: &mut [C64], inverse: bool) {
    Plan::new(data.len(), inverse).run(data);
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
    let plan = Plan::new(n, false);
    // x direction.
    for row in grid.chunks_exact_mut(n) {
        plan.run(row);
    }
    // y direction: each z-plane as n rows of n.
    for plane in grid.chunks_exact_mut(n * n) {
        plan.run_rows(plane, n);
    }
    // z direction: the grid as n rows of n·n.
    plan.run_rows(&mut grid, n * n);
    grid
}

// ------------------------------------------------------ distributed pieces

struct Slab {
    n: usize,
    p: usize,
    nzl: usize,
    nxl: usize,
    me: usize,
    /// Forward plan for length `n`, shared by all three axes.
    plan: Plan,
}

impl Slab {
    fn new(ctx: &RankCtx, cfg: &FftConfig) -> Slab {
        let n = cfg.n;
        let p = ctx.size();
        assert!(n.is_multiple_of(p), "n must be divisible by p");
        Slab { n, p, nzl: n / p, nxl: n / p, me: ctx.rank() as usize, plan: Plan::new(n, false) }
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
        for row in plane.chunks_exact_mut(n) {
            self.plan.run(row);
        }
        self.plan.run_rows(plane, n);
        ctx.ep().charge_flops(2.0 * n as f64 * fft_flops(n));
    }

    /// Bytes of one plane chunk: one z-plane of one x-slab.
    fn chunk_bytes(&self) -> usize {
        self.n * self.nxl * 16
    }

    /// Pack plane `zl`'s chunk destined for target `t` into `out`
    /// (`chunk_bytes()` long), layout `[y][xl]`.
    fn pack(&self, data: &[C64], zl: usize, t: usize, out: &mut [u8]) {
        let (n, nxl) = (self.n, self.nxl);
        let plane = &data[zl * n * n..(zl + 1) * n * n];
        for (row, out) in plane.chunks_exact(n).zip(out.chunks_exact_mut(nxl * 16)) {
            for (c, b) in row[t * nxl..(t + 1) * nxl].iter().zip(out.chunks_exact_mut(16)) {
                b[..8].copy_from_slice(&c.re.to_le_bytes());
                b[8..].copy_from_slice(&c.im.to_le_bytes());
            }
        }
    }

    /// Byte offset of plane `z` in the x-slab receive buffer.
    fn slab_plane_off(&self, z: usize) -> usize {
        z * self.chunk_bytes()
    }

    /// Total x-slab bytes.
    fn slab_bytes(&self) -> usize {
        self.n * self.chunk_bytes()
    }

    /// Read the received x-slab plane by plane through `buf` (one chunk
    /// long) and decode it into `slab`, which must hold `n·n·nxl` values.
    fn unpack(&self, mut read: impl FnMut(usize, &mut [u8]), buf: &mut [u8], slab: &mut [C64]) {
        for (z, plane) in slab.chunks_exact_mut(self.n * self.nxl).enumerate() {
            read(self.slab_plane_off(z), buf);
            decode(buf, plane);
        }
    }

    /// Final z-direction FFT over the x-slab; charge flops.
    fn fft_z(&self, ctx: &RankCtx, slab: &mut [C64]) {
        let n = self.n;
        let nxl = self.nxl;
        self.plan.run_rows(slab, n * nxl);
        ctx.ep().charge_flops(n as f64 * nxl as f64 * fft_flops(n));
    }
}

/// Decode little-endian (re, im) byte pairs into `out`.
fn decode(bytes: &[u8], out: &mut [C64]) {
    for (b, c) in bytes.chunks_exact(16).zip(out) {
        *c = C64::new(
            f64::from_le_bytes(b[..8].try_into().expect("8-byte re")),
            f64::from_le_bytes(b[8..].try_into().expect("8-byte im")),
        );
    }
}

// ------------------------------------------------------------------ MPI-1

/// Message-passing variant. With `overlap`, each plane's chunks are sent
/// (nonblocking) as soon as the plane is transformed; otherwise one bulk
/// alltoall runs after all planes.
pub fn run_mpi1(ctx: &RankCtx, comm: &Comm, cfg: &FftConfig, overlap: bool) -> FftResult {
    let s = Slab::new(ctx, cfg);
    let (p, nzl, me) = (s.p, s.nzl, s.me);
    let chunk = s.chunk_bytes();
    let mut data = s.load_input(cfg);
    ctx.barrier();
    let t0 = ctx.now();
    // The x-slab in wire format: plane z at `slab_plane_off(z)`.
    let mut slab_bytes = vec![0u8; s.slab_bytes()];
    if overlap {
        const FFT_TAG: u32 = 0xFF7_0000;
        let mut buf = vec![0u8; chunk];
        // Pre-post receives for every incoming plane chunk: plane z
        // comes from rank z / nzl.
        let mut reqs = Vec::new();
        for (z, slot) in slab_bytes.chunks_exact_mut(chunk).enumerate() {
            let src = (z / nzl) as u32;
            if src as usize != me {
                reqs.push(comm.irecv(slot, src, FFT_TAG + z as u32).expect("irecv"));
            }
        }
        for zl in 0..nzl {
            s.fft_plane(ctx, &mut data, zl);
            let z = me * nzl + zl;
            for t in 0..p {
                if t == me {
                    continue; // self chunk packed after the receives complete
                }
                s.pack(&data, zl, t, &mut buf);
                comm.isend(&buf, t as u32, FFT_TAG + z as u32).expect("isend");
            }
        }
        for r in reqs {
            r.wait(ctx.ep());
        }
        // Local chunks (self → self).
        for zl in 0..nzl {
            let off = s.slab_plane_off(me * nzl + zl);
            s.pack(&data, zl, me, &mut slab_bytes[off..off + chunk]);
        }
    } else {
        // Bulk variant: compute all planes, then one alltoall. Block t of
        // the send buffer holds target t's planes in z order.
        for zl in 0..nzl {
            s.fft_plane(ctx, &mut data, zl);
        }
        let mut send = vec![0u8; s.slab_bytes()];
        for (t, block) in send.chunks_exact_mut(nzl * chunk).enumerate() {
            for (zl, out) in block.chunks_exact_mut(chunk).enumerate() {
                s.pack(&data, zl, t, out);
            }
        }
        // Block src of the receive buffer holds planes z = src·nzl + zl,
        // which is already the x-slab's plane order.
        comm.alltoall(&send, &mut slab_bytes, nzl * chunk);
    }
    decode(&slab_bytes, &mut data);
    s.fft_z(ctx, &mut data);
    ctx.barrier();
    FftResult { time_ns: ctx.now() - t0, local_out: data }
}

// -------------------------------------------------------------------- RMA

/// foMPI variant: per-plane puts straight into the target slab, one fence
/// epoch, communication completed "as late as possible".
pub fn run_rma(ctx: &RankCtx, cfg: &FftConfig) -> FftResult {
    let s = Slab::new(ctx, cfg);
    let (p, nzl, me) = (s.p, s.nzl, s.me);
    let win = Win::allocate(ctx, s.slab_bytes(), 1).expect("fft window");
    let mut data = s.load_input(cfg);
    let mut buf = vec![0u8; s.chunk_bytes()];
    win.fence().expect("fence open");
    let t0 = ctx.now();
    for zl in 0..nzl {
        s.fft_plane(ctx, &mut data, zl);
        let off = s.slab_plane_off(me * nzl + zl);
        // Communicate this plane immediately (overlapped with the next
        // plane's compute).
        for t in 0..p {
            s.pack(&data, zl, t, &mut buf);
            if t == me {
                win.write_local(off, &buf);
            } else {
                win.put(&buf, t as u32, off).expect("plane put");
            }
        }
    }
    win.fence().expect("fence close");
    // The z-slab is fully sent: its storage becomes the x-slab.
    s.unpack(|off, b| win.read_local(off, b), &mut buf, &mut data);
    s.fft_z(ctx, &mut data);
    ctx.barrier();
    let time_ns = ctx.now() - t0;
    // After the timing: freeing is collective, and the slab would
    // otherwise stay registered until the fabric drops.
    win.free(ctx);
    FftResult { time_ns, local_out: data }
}

// -------------------------------------------------------------------- UPC

/// UPC slab variant: `upc_memput` per plane chunk, completed by a barrier.
pub fn run_upc(ctx: &RankCtx, cfg: &FftConfig) -> FftResult {
    let s = Slab::new(ctx, cfg);
    let (p, nzl, me) = (s.p, s.nzl, s.me);
    let arr = SharedArray::all_alloc(ctx, s.slab_bytes());
    let mut data = s.load_input(cfg);
    let mut buf = vec![0u8; s.chunk_bytes()];
    arr.barrier();
    let t0 = ctx.now();
    for zl in 0..nzl {
        s.fft_plane(ctx, &mut data, zl);
        let off = s.slab_plane_off(me * nzl + zl);
        for t in 0..p {
            s.pack(&data, zl, t, &mut buf);
            if t == me {
                arr.write_local(off, &buf);
            } else {
                arr.memput(t as u32, off, &buf);
            }
        }
    }
    arr.barrier();
    s.unpack(|off, b| arr.read_local(off, b), &mut buf, &mut data);
    s.fft_z(ctx, &mut data);
    ctx.barrier();
    let time_ns = ctx.now() - t0;
    arr.free(ctx);
    FftResult { time_ns, local_out: data }
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

    fn same_bits(a: &[C64], b: &[C64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    fn signal(len: usize, salt: f64) -> Vec<C64> {
        (0..len)
            .map(|i| C64::new((i as f64 * 0.7 + salt).sin(), (i as f64 * 1.3).cos() - salt))
            .collect()
    }

    /// The stage-by-stage radix-2 loop with an on-the-fly twiddle
    /// recurrence, which the plan must reproduce bit for bit.
    fn textbook_fft(data: &mut [C64], inverse: bool) {
        let n = data.len();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i as u32).reverse_bits().checked_shr(32 - bits).unwrap_or(0) as usize;
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

    #[test]
    fn fft1d_length_one_is_identity() {
        for inverse in [false, true] {
            let mut v = vec![C64::new(0.25, -3.5)];
            fft_1d(&mut v, inverse);
            assert_eq!(v, [C64::new(0.25, -3.5)]);
        }
        let cfg = FftConfig { n: 1, seed: 9 };
        assert_eq!(fft3d_serial(&cfg), [input_at(&cfg, 0, 0, 0)]);
    }

    #[test]
    fn plan_matches_textbook_loop_bit_for_bit() {
        for bits in 0..=9 {
            for inverse in [false, true] {
                let mut fast = signal(1 << bits, 0.1);
                let mut slow = fast.clone();
                fft_1d(&mut fast, inverse);
                textbook_fft(&mut slow, inverse);
                assert!(same_bits(&fast, &slow), "n = {} inverse = {inverse}", 1 << bits);
            }
        }
    }

    #[test]
    fn row_batched_columns_match_per_column_fft_bit_for_bit() {
        for n in [1usize, 2, 4, 8, 64] {
            for row in [1usize, 3, 64] {
                for inverse in [false, true] {
                    let data = signal(n * row, 0.3);
                    let mut batched = data.clone();
                    Plan::new(n, inverse).run_rows(&mut batched, row);
                    let mut per_col = data.clone();
                    let mut col = vec![C64::default(); n];
                    for c in 0..row {
                        for (k, v) in col.iter_mut().enumerate() {
                            *v = data[k * row + c];
                        }
                        fft_1d(&mut col, inverse);
                        for (k, v) in col.iter().enumerate() {
                            per_col[k * row + c] = *v;
                        }
                    }
                    assert!(same_bits(&batched, &per_col), "n {n} row {row} inverse {inverse}");
                }
            }
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
