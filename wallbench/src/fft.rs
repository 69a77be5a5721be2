//! `fft_fence`: repeated `apps::fft::run_rma` solves of an n = 64 grid.
//!
//! The grid is 64³ complex doubles = 4 MiB: past a 4 MiB L2, inside a
//! 105 MiB shared L3. Each solve is one fence epoch of per-plane puts plus
//! the closing fence, and every solve is checked against `fft3d_serial`.
//!
//! `run_rma` allocates a window per call and never frees it, so its
//! segments stay registered until the fabric drops; the benchmark
//! relaunches the universe every [`SOLVES_PER_LAUNCH`] solves to bound
//! that memory.

use crate::lat::median;
use crate::{ready, sessions, universe, Out, Params};
use fompi_apps::fft::{fft3d_serial, run_rma, FftConfig, C64};
use std::time::Instant;

const N: usize = 64;
const SOLVES_PER_LAUNCH: usize = 8;

/// Largest accepted |parallel − serial| per element, relative to the
/// largest serial magnitude.
pub const TOLERANCE: f64 = 1e-9;

/// Largest |a − b| over this rank's x-slab, against the serial grid
/// (layout `[(z·n + y)·n + x]`; the slab is `[(z·n + y)·nxl + xl]`).
fn slab_error(rank: usize, slab: &[C64], reference: &[C64]) -> f64 {
    let nxl = N / 2;
    let mut err = 0.0f64;
    for (i, v) in slab.iter().enumerate() {
        let (zy, xl) = (i / nxl, i % nxl);
        let r = reference[zy * N + rank * nxl + xl];
        err = err.max((v.re - r.re).abs()).max((v.im - r.im).abs());
    }
    err
}

pub fn run(p: &Params, out: &mut Out) {
    let cfg = FftConfig { n: N, seed: p.seed };
    let t = Instant::now();
    let reference = fft3d_serial(&cfg);
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;
    let scale = reference.iter().fold(0.0f64, |m, c| m.max(c.re.abs()).max(c.im.abs()));

    // Set-up is launch until the first solve may start (the solve
    // allocates its own window, inside the timed span).
    let (setup, _) = sessions(p, 0, |ctx, _| (ready(ctx), ()));
    out.setup_s = setup;

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(p.secs);
    let mut solves_ms = Vec::new();
    let mut worst = 0.0f64;
    while Instant::now() < deadline {
        let per_rank = universe(p.traced).run(|ctx| {
            let mut times = Vec::with_capacity(SOLVES_PER_LAUNCH);
            let mut err = 0.0f64;
            for _ in 0..SOLVES_PER_LAUNCH {
                ctx.barrier();
                let t0 = Instant::now();
                let res = run_rma(ctx, &cfg);
                times.push(t0.elapsed());
                err = err.max(slab_error(ctx.rank() as usize, &res.local_out, &reference));
            }
            (times, err)
        });
        for (r, (times, err)) in per_rank.iter().enumerate() {
            worst = worst.max(*err);
            if r == 0 {
                solves_ms.extend(times.iter().map(|d| d.as_secs_f64() * 1e3));
            }
        }
    }
    out.attempted += solves_ms.len() as u64;
    out.check(worst <= TOLERANCE * scale, || {
        format!("a solve differs from fft3d_serial by {worst:e} (limit {:e})", TOLERANCE * scale)
    });
    let p50_ms = median(&solves_ms);
    out.e2e("fft.solve_ms_p50", p50_ms, "ms");
    if p.traced {
        out.layer("fft.serial_ms", serial_ms, "ms");
        out.layer("fft.efficiency", serial_ms / (2.0 * p50_ms), "ratio");
    }
}
