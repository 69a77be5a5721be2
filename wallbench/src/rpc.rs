//! `rpc_poisson`: an open-loop `rmc::rpc` client against a polling server.
//!
//! Rank 0 sends at Poisson arrival times drawn up front from the seed, at
//! two fixed rates — [`LO_PER_S`] then [`HI_PER_S`], about ¼ and ¾ of the
//! ≈ 190 k/s closed-loop capacity of a 2-vCPU Xeon host — half the budget
//! each. Latency runs from each call's *intended* send time, so a stall
//! is charged to every call it delays (no coordinated omission), and the
//! generator's own lateness is reported. Rank 1 serves by polling
//! `try_recv`, yielding between empty polls, and echoes each request;
//! `recv()` would assert after 2^20 empty polls, so it is not used.

use crate::host::{poisson_schedule, wait_until};
use crate::lat::{median, Lat};
use crate::{ready, sessions, Out, Params};
use fompi::FompiError;
use fompi_fabric::rng::{splitmix64, Rng};
use fompi_fabric::FabricError;
use fompi_rmc::rpc::{rpc, RpcClient, RpcRequest, RpcServer};
use fompi_rmc::RmcConfig;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

pub const LO_PER_S: f64 = 50_000.0;
pub const HI_PER_S: f64 = 150_000.0;
const PAYLOAD: usize = 32;
/// Latency quantiles are taken per window of this many seconds of
/// intended send time; `rpc.p50_us.*` and `rpc.p90_us.*` are the medians
/// over windows, so one host stall moves one window, not the run. The
/// whole-phase `rpc.p99_us.*` keeps the stalls.
const WINDOW_S: f64 = 0.25;
/// The request that ends the serve loop.
const STOP: u64 = u64::MAX;
/// A server with no request for this long gives up (the client died).
const SERVER_IDLE_LIMIT: Duration = Duration::from_secs(20);

fn payload(seed: u64, seq: u64) -> [u8; PAYLOAD] {
    let mut b = [0u8; PAYLOAD];
    b[..8].copy_from_slice(&seq.to_le_bytes());
    for (k, w) in b[8..].chunks_exact_mut(8).enumerate() {
        w.copy_from_slice(&splitmix64(seed ^ seq ^ ((k as u64 + 1) << 56)).to_le_bytes());
    }
    b
}

/// One rate's samples: latency per [`WINDOW_S`] of intended send time,
/// and generator lateness.
#[derive(Default)]
struct Phase {
    windows: Vec<Lat>,
    late: Lat,
}

#[derive(Default)]
struct ClientOut {
    phases: [Phase; 2],
    attempts: u64,
    replies: u64,
    failures: u64,
    bad_echoes: u64,
    refusals: u64,
    /// Fabric-wide notification records posted and ring overflows during
    /// the measured phase.
    notify_posts: u64,
    notify_overflows: u64,
    call_async: Lat,
    wait_reply: Lat,
}

#[derive(Default)]
struct ServerOut {
    serve: Lat,
    idle_timeout: bool,
}

enum RankOut {
    Client(Box<ClientOut>),
    Server(ServerOut),
}

fn is_refusal(e: &FompiError) -> bool {
    matches!(e, FompiError::Fabric(FabricError::Backpressure { .. }))
}

struct Client<'a> {
    c: RpcClient,
    seed: u64,
    traced: bool,
    o: &'a mut ClientOut,
    /// In flight: `(corr, seq, intended send time, phase, window)`.
    inflight: VecDeque<(u64, u64, Instant, usize, usize)>,
}

impl Client<'_> {
    /// Wait for the oldest call's reply and account for it.
    fn harvest(&mut self) {
        let (corr, seq, due, phase, window) = self.inflight.pop_front().expect("a call in flight");
        let mut buf = [0u8; PAYLOAD];
        let t = Instant::now();
        let res = self.c.wait_reply(corr, &mut buf);
        let done = Instant::now();
        if self.traced {
            self.o.wait_reply.add(done - t);
        }
        match res {
            Ok(len) => {
                self.o.replies += 1;
                self.o.bad_echoes += u64::from(len != PAYLOAD || buf != payload(self.seed, seq));
                if let Some(ph) = self.o.phases.get_mut(phase) {
                    if ph.windows.len() <= window {
                        ph.windows.resize_with(window + 1, Lat::default);
                    }
                    ph.windows[window].add(done - due);
                }
            }
            Err(_) => self.o.failures += 1,
        }
    }

    /// Issue call `seq`, draining replies while the budget refuses it.
    fn issue(&mut self, seq: u64, due: Instant, phase: usize, window: usize) {
        let req = payload(self.seed, seq);
        self.o.attempts += 1;
        loop {
            let t = Instant::now();
            let res = self.c.call_async(&req);
            if self.traced {
                self.o.call_async.add(t.elapsed());
            }
            match res {
                Ok(corr) => {
                    self.inflight.push_back((corr, seq, due, phase, window));
                    if let Some(ph) = self.o.phases.get_mut(phase) {
                        ph.late.add(t - due);
                    }
                    return;
                }
                Err(e) if is_refusal(&e) && !self.inflight.is_empty() => {
                    self.o.refusals += 1;
                    self.harvest();
                }
                Err(_) => {
                    self.o.failures += 1;
                    return;
                }
            }
        }
    }

    fn drain(&mut self) {
        while !self.inflight.is_empty() {
            self.harvest();
        }
    }
}

fn serve(s: &mut RpcServer, traced: bool) -> ServerOut {
    let mut o = ServerOut::default();
    let mut idle_since = Instant::now();
    let mut polls = 0u32;
    loop {
        let t = Instant::now();
        let got: Option<RpcRequest> = s.try_recv().expect("rpc try_recv");
        let Some(req) = got else {
            polls += 1;
            if polls.is_multiple_of(1024) && idle_since.elapsed() > SERVER_IDLE_LIMIT {
                o.idle_timeout = true;
                return o;
            }
            std::thread::yield_now();
            continue;
        };
        s.reply(&req, &req.data).expect("rpc reply");
        if traced {
            o.serve.add(t.elapsed());
        }
        idle_since = Instant::now();
        if req.data[..8] == STOP.to_le_bytes() {
            return o;
        }
    }
}

pub fn run(p: &Params, out: &mut Out) {
    let (seed, secs, traced) = (p.seed, p.secs, p.traced);
    let mut rng = Rng::seed_from_u64(splitmix64(seed ^ 0x0B1));
    let schedules = [
        poisson_schedule(&mut rng, LO_PER_S, secs / 2.0),
        poisson_schedule(&mut rng, HI_PER_S, secs / 2.0),
    ];
    let (setup, mut runs) = sessions(p, 1, |ctx, measure| {
        let end = rpc(ctx, 1, &[0], &RmcConfig::default()).expect("rpc setup").expect("a party");
        let t_ready = ready(ctx);
        let o = if ctx.rank() == 1 {
            let mut s = end.into_server();
            let o = if measure { serve(&mut s, traced) } else { ServerOut::default() };
            s.close(ctx).expect("server close");
            RankOut::Server(o)
        } else {
            let mut co = ClientOut::default();
            let c0 = ctx.fabric().counters().snapshot();
            let mut cl = Client {
                c: end.into_client(),
                seed,
                traced,
                o: &mut co,
                inflight: VecDeque::new(),
            };
            if measure {
                let mut seq = 0u64;
                for (phase, sched) in schedules.iter().enumerate() {
                    let start = Instant::now();
                    for off in sched {
                        let due = start + *off;
                        while Instant::now() < due && !cl.inflight.is_empty() {
                            cl.harvest();
                        }
                        wait_until(due);
                        cl.issue(seq, due, phase, (off.as_secs_f64() / WINDOW_S) as usize);
                        seq += 1;
                    }
                    cl.drain();
                }
                cl.issue(STOP, Instant::now(), 2, 0);
                cl.drain();
            }
            let c1 = ctx.fabric().counters().snapshot();
            let Client { c, .. } = cl;
            c.close(ctx).expect("client close");
            co.notify_posts = c1.notify_posts - c0.notify_posts;
            co.notify_overflows = c1.notify_overflows - c0.notify_overflows;
            RankOut::Client(Box::new(co))
        };
        (t_ready, o)
    });
    out.setup_s = setup;
    let ranks = runs.pop().expect("one measured launch");

    let (mut client, mut server) = (None, None);
    for r in ranks {
        match r {
            RankOut::Client(c) => client = Some(c),
            RankOut::Server(s) => server = Some(s),
        }
    }
    let mut c = client.expect("rank 0 is the client");
    let mut s = server.expect("rank 1 is the server");
    out.check(!s.idle_timeout, || "the server saw no request for 20 s".into());
    out.attempted += c.attempts;
    out.failed += c.failures;
    out.check(c.bad_echoes == 0, || format!("{} replies did not echo their request", c.bad_echoes));
    out.check(c.replies + c.failures == c.attempts, || {
        format!("{} replies + {} failures != {} attempts", c.replies, c.failures, c.attempts)
    });
    let mut late = Lat::default();
    for (name, ph) in ["lo", "hi"].iter().zip(c.phases.iter_mut()) {
        let mut per_window = |q: f64| {
            let qs: Vec<f64> =
                ph.windows.iter_mut().filter(|w| !w.is_empty()).map(|w| w.q(q)).collect();
            median(&qs) / 1e3
        };
        out.e2e(&format!("rpc.p50_us.{name}"), per_window(0.5), "us");
        out.e2e(&format!("rpc.p90_us.{name}"), per_window(0.9), "us");
        let mut all = Lat::default();
        for w in &ph.windows {
            all.merge(w);
        }
        out.e2e(&format!("rpc.p99_us.{name}"), all.q(0.99) / 1e3, "us");
        late.merge(&ph.late);
    }
    out.e2e("rpc.gen_late_p99_us", late.q(0.99) / 1e3, "us");
    if traced {
        let calls = c.attempts as f64;
        out.layer("rmc.call_async_ns", c.call_async.q(0.5), "ns");
        out.layer("rmc.wait_reply_us", c.wait_reply.q(0.5) / 1e3, "us");
        out.layer("rmc.serve_ns", s.serve.q(0.5), "ns");
        out.layer("rmc.budget_refusals_ratio", c.refusals as f64 / calls, "ratio");
        out.layer("notify.posts_per_call", c.notify_posts as f64 / calls, "count");
        out.layer("notify.overflows", c.notify_overflows as f64, "count");
    }
}
