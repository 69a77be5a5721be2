//! Per-rank communication endpoint — the DMAPP-like API surface.
//!
//! Every operation comes in the three DMAPP completion flavours (§2.1):
//!
//! * **blocking** — returns when remotely complete (clock joined with the
//!   completion time);
//! * **explicit nonblocking** (`*_nb`) — returns an [`NbHandle`] that
//!   [`Endpoint::wait`] completes individually;
//! * **implicit nonblocking** (`*_implicit`) — completed only in bulk by
//!   [`Endpoint::gsync`] (or per-target by [`Endpoint::flush_target`],
//!   which Gemini exposes as completion queues per endpoint).
//!
//! Data always moves immediately (the simulation is sequentially consistent
//! at the memory level); the flavours differ in how *virtual time* is
//! accounted, which is what the paper's figures measure.
//!
//! ## Stamped sync variables
//!
//! Protocol words that other ranks block on (completion counters, lock
//! words, matching-list heads) are 16-byte cells: a value word followed by a
//! timestamp word. The `*_sync` operations update/read both so that causal
//! virtual time flows through synchronisation. Writers raise the stamp
//! *before* publishing the value (release), and readers load the value
//! (acquire) before the stamp, so a reader that observes a value always
//! joins at least its writer's stamp — however the two threads interleave.

use crate::amo::AmoOp;
use crate::batch::{Burst, BurstKind};
use crate::clock::{bits_to_stamp, stamp_to_bits, Clock};
use crate::cost::Transport;
use crate::counters::RankCounters;
use crate::error::FabricError;
use crate::mc::{McObj, McOp};
use crate::notify::NotifyRecord;
use crate::segcache::{SegCache, SegRef};
use crate::segment::SegKey;
use crate::shadow::AccessKind;
use crate::stripes::StripedHorizon;
use crate::telemetry::{flow_id, Event, EventKind, Flavor, NO_FLOW, NO_TARGET};
use crate::Fabric;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Completion handle for an explicit-nonblocking operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NbHandle {
    /// Virtual time at which the operation is remotely complete.
    pub t_complete: f64,
}

/// Per-rank endpoint. Owns the rank's virtual [`Clock`]; deliberately not
/// `Send`: it lives on its rank's thread.
///
/// Implicit-nonblocking completion horizons are tracked by a
/// [`StripedHorizon`]: lock-free striped `fetch_max` counters that
/// `flush_target`/`gsync` read without a hash lookup, a dynamic borrow, or
/// cross-peer contention. When issue-side batching is enabled
/// ([`Endpoint::set_batching`], or `FOMPI_BATCH`/the fabric default), small
/// implicit puts and non-fetching AMOs are write-combined into per-target
/// injection bursts (see [`crate::batch`]) that retire at the next
/// flush/gsync/ordered release or when coalescing stops.
///
/// The steady-state op path writes nothing another rank writes: keys
/// resolve through the endpoint's own [`crate::segcache`] and counts go to
/// this rank's [`RankCounters`] block.
pub struct Endpoint {
    fabric: Arc<Fabric>,
    rank: u32,
    clock: Clock,
    pub(crate) segs: SegCache,
    pending: StripedHorizon,
    /// Open injection bursts, one per target. A BTree so drains walk
    /// targets in a deterministic order.
    bursts: RefCell<BTreeMap<u32, Burst>>,
    /// Issue-side batching switch (default: the fabric's batch default).
    batch: Cell<bool>,
    /// Telemetry window scope: the window id upper layers attribute
    /// subsequent operations to (0 = none). See [`Endpoint::set_trace_win`].
    trace_win: Cell<u64>,
    /// Next per-rank flow sequence number (see [`crate::telemetry::flow_id`]).
    /// Advances only while tracing is armed, so disabled runs pay nothing.
    flow_seq: Cell<u64>,
    /// The causal flow scope in force: operations issued while it is
    /// nonzero carry this flow id (0 = no scope). See [`Endpoint::flow_open`].
    cur_flow: Cell<u64>,
}

impl Endpoint {
    /// Create the endpoint for `rank` on `fabric`.
    pub fn new(fabric: Arc<Fabric>, rank: u32) -> Self {
        let batch = fabric.batch_default();
        Self {
            segs: SegCache::new(&fabric),
            fabric,
            rank,
            clock: Clock::new(),
            pending: StripedHorizon::new(),
            bursts: RefCell::new(BTreeMap::new()),
            batch: Cell::new(batch),
            trace_win: Cell::new(0),
            flow_seq: Cell::new(0),
            cur_flow: Cell::new(NO_FLOW),
        }
    }

    /// The owning rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The shared fabric.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// This rank's counter block: every op this endpoint issues is counted
    /// here (upper layers add their sync counts the same way).
    #[inline]
    pub fn counters(&self) -> &RankCounters {
        self.fabric.counters().rank(self.rank)
    }

    /// Resolve `key` through this endpoint's segment cache: a hit writes
    /// nothing shared. Fails with [`FabricError::UnknownKey`] once the key
    /// is deregistered. Meant for direct access to memory this rank owns
    /// (a PGAS image); remote data goes through the ops.
    #[inline]
    pub fn segment(&self, key: SegKey) -> Result<SegRef<'_>, FabricError> {
        self.segs.get(&self.fabric, key)
    }

    /// This rank's virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Charge `ns` of CPU time (software overhead, compute, ...).
    pub fn charge(&self, ns: f64) {
        self.clock.advance(ns);
    }

    /// Charge `n` floating-point operations of compute.
    pub fn charge_flops(&self, n: f64) {
        self.clock.advance(n * self.fabric.model().ns_per_flop);
    }

    /// Transport used to reach `target`.
    pub fn transport_to(&self, target: u32) -> Transport {
        self.fabric.transport(self.rank, target)
    }

    // ----------------------------------------------------------- telemetry

    /// Set the telemetry window scope: RMA/sync events recorded after this
    /// call are attributed to window `win` (the window layer passes its
    /// symmetric meta id; 0 clears the scope). Returns the previous scope so
    /// nested callers can restore it. A few-instruction no-op cost.
    #[inline]
    pub fn set_trace_win(&self, win: u64) -> u64 {
        self.trace_win.replace(win)
    }

    /// Current telemetry window scope.
    #[inline]
    pub fn trace_win(&self) -> u64 {
        self.trace_win.get()
    }

    // ------------------------------------------------------- causal flows

    /// Open a causal flow scope: operations issued until the matching
    /// [`Endpoint::flow_close`] carry one fresh flow id, so a multi-part
    /// primitive (notified put = data put + notification post) shows up in
    /// the trace as a single origin→target flow arrow. Returns the
    /// previous scope for the caller to restore; an already-open scope is
    /// reused (nested callers join the outer flow). When tracing is off
    /// this is one relaxed load — no id is allocated and ops carry 0.
    #[inline]
    pub fn flow_open(&self) -> u64 {
        let prev = self.cur_flow.get();
        if prev == NO_FLOW && self.fabric.telemetry().tracing() {
            let seq = self.flow_seq.get();
            self.flow_seq.set(seq + 1);
            self.cur_flow.set(flow_id(self.rank, seq));
        }
        prev
    }

    /// Close a flow scope opened by [`Endpoint::flow_open`], restoring the
    /// previous scope it returned.
    #[inline]
    pub fn flow_close(&self, prev: u64) {
        self.cur_flow.set(prev);
    }

    /// The flow id in scope ([`NO_FLOW`] when none). Upper layers stash
    /// this next to protocol words their peers poll so the consumer side
    /// can join the flow (see [`crate::telemetry::Telemetry::take_signal_flow`]).
    #[inline]
    pub fn current_flow(&self) -> u64 {
        self.cur_flow.get()
    }

    /// Record target-side consumption of a flow-carrying event — the
    /// notify-ring pop or signal-wait completion that observes another
    /// rank's operation. `source` is the producing rank, `t_start` when
    /// this rank began waiting, `flow` the id carried by the consumed
    /// record (0 traces a plain wait with no arrow). The event spans
    /// `t_start..now` so the flow arrow terminates inside the wait span.
    #[inline]
    pub fn trace_flow_consume(
        &self,
        kind: EventKind,
        source: u32,
        t_start: f64,
        flow: u64,
        bytes: u64,
    ) {
        let tel = self.fabric.telemetry();
        if !tel.tracing() {
            return;
        }
        tel.record(Event {
            kind,
            flavor: Flavor::NotApplicable,
            transport: (source != NO_TARGET && source != self.rank)
                .then(|| self.transport_to(source)),
            origin: self.rank,
            target: source,
            win: self.trace_win.get(),
            bytes,
            flow,
            t_start,
            t_end: self.clock.now(),
        });
    }

    /// Record an RMA data operation (called by the op implementations).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn trace_op(
        &self,
        kind: EventKind,
        flavor: Flavor,
        transport: Transport,
        target: u32,
        bytes: u64,
        flow: u64,
        t_start: f64,
        t_end: f64,
    ) {
        let tel = self.fabric.telemetry();
        if !tel.tracing() {
            return;
        }
        tel.record(Event {
            kind,
            flavor,
            transport: Some(transport),
            origin: self.rank,
            target,
            win: self.trace_win.get(),
            bytes,
            flow,
            t_start,
            t_end,
        });
    }

    /// Record a synchronisation event spanning `t_start..now` against the
    /// current window scope. `target` is the peer involved, or
    /// [`NO_TARGET`] for collective/epoch-wide actions. Upper layers (fence,
    /// PSCW, lock, flush) call this at epoch entry/exit; the disabled path
    /// is one atomic load and a branch.
    #[inline]
    pub fn trace_sync(&self, kind: EventKind, target: u32, t_start: f64) {
        let tel = self.fabric.telemetry();
        if !tel.tracing() {
            return;
        }
        tel.record(Event {
            kind,
            flavor: Flavor::NotApplicable,
            transport: (target != NO_TARGET).then(|| self.transport_to(target)),
            origin: self.rank,
            target,
            win: self.trace_win.get(),
            bytes: 0,
            flow: NO_FLOW,
            t_start,
            t_end: self.clock.now(),
        });
    }

    // -------------------------------------------------------------- faults
    //
    // Fault draws happen only at issue-side call sites executed a
    // deterministic number of times (put/get/AMO issue, releases, gsync) —
    // never inside polling primitives (`read_sync`, `amo_sync` retry
    // loops), whose call counts depend on thread scheduling. See
    // [`crate::faults`] for the determinism contract.

    /// Record an injected perturbation against the current window scope.
    #[inline]
    fn trace_fault(&self, kind: EventKind, target: u32, t_start: f64, t_end: f64) {
        let tel = self.fabric.telemetry();
        if !tel.tracing() {
            return;
        }
        tel.record(Event {
            kind,
            flavor: Flavor::NotApplicable,
            transport: (target != NO_TARGET).then(|| self.transport_to(target)),
            origin: self.rank,
            target,
            win: self.trace_win.get(),
            bytes: 0,
            flow: NO_FLOW,
            t_start,
            t_end,
        });
    }

    /// Draw and apply issue-side faults for one operation toward `target`
    /// whose unperturbed wire latency is `base_lat`. Rank pauses and
    /// injection-queue stalls are charged to the clock here, at issue;
    /// the return value is extra *completion* latency (jitter + spike,
    /// plus a retirement delay when `delayable`) for the caller to fold
    /// into the op's completion time. One relaxed load when disabled.
    #[inline]
    fn apply_faults(&self, target: u32, base_lat: f64, delayable: bool) -> f64 {
        let faults = self.fabric.faults();
        if !faults.active() {
            return 0.0;
        }
        self.apply_faults_slow(faults, target, base_lat, delayable)
    }

    #[inline(never)]
    fn apply_faults_slow(
        &self,
        faults: &crate::faults::Faults,
        target: u32,
        base_lat: f64,
        delayable: bool,
    ) -> f64 {
        let d = faults.draw_op(self.rank, base_lat, delayable);
        if d.pause_ns > 0.0 {
            let t0 = self.clock.now();
            self.clock.advance(d.pause_ns);
            self.trace_fault(EventKind::FaultPause, target, t0, self.clock.now());
        }
        if d.stall_ns > 0.0 {
            let t0 = self.clock.now();
            self.clock.advance(d.stall_ns);
            self.trace_fault(EventKind::FaultBackpressure, target, t0, self.clock.now());
        }
        if d.extra_ns > 0.0 {
            let t0 = self.clock.now();
            self.trace_fault(EventKind::FaultJitter, target, t0, t0 + d.extra_ns);
        }
        if d.delay_ns > 0.0 {
            let t0 = self.clock.now();
            self.trace_fault(EventKind::FaultDelay, target, t0, t0 + d.delay_ns);
        }
        d.extra_ns + d.delay_ns
    }

    /// Backpressure check for explicit-nonblocking issues: under an armed
    /// plan the injection queue may refuse the op outright — nothing is
    /// issued and the caller must retry after the hinted delay.
    #[inline]
    fn check_reject(&self, target: u32) -> Result<(), FabricError> {
        let faults = self.fabric.faults();
        if !faults.active() {
            return Ok(());
        }
        if let Some(retry_after_ns) = faults.draw_reject(self.rank) {
            let t0 = self.clock.now();
            self.trace_fault(EventKind::FaultBackpressure, target, t0, t0);
            return Err(FabricError::Backpressure { retry_after_ns });
        }
        Ok(())
    }

    fn bounds(&self, key: SegKey, off: usize, len: usize) -> Result<SegRef<'_>, FabricError> {
        let seg = self.segment(key)?;
        if !seg.check(off, len) {
            return Err(FabricError::OutOfBounds { key, offset: off, len, seg_len: seg.len() });
        }
        Ok(seg)
    }

    fn note_pending(&self, target: u32, t: f64) {
        self.pending.note(target, t);
    }

    // ------------------------------------------------ issue-side batching

    /// Is issue-side batching enabled on this endpoint?
    #[inline]
    pub fn batching(&self) -> bool {
        self.batch.get()
    }

    /// Enable/disable issue-side batching (see [`crate::batch`]). Returns
    /// the previous setting. Disabling retires any open bursts so no
    /// completion accounting is left behind.
    pub fn set_batching(&self, on: bool) -> bool {
        let prev = self.batch.replace(on);
        if prev && !on {
            self.drain_all();
        }
        prev
    }

    /// Number of open (not yet retired) injection bursts — for tests and
    /// introspection.
    pub fn open_bursts(&self) -> usize {
        self.bursts.borrow().len()
    }

    /// Retire the open burst toward `target`, if any, folding its
    /// completion horizon into the striped counters. Charges no CPU time:
    /// the burst's injection and gaps were paid at issue.
    pub fn drain_target(&self, target: u32) {
        let b = self.bursts.borrow_mut().remove(&target);
        if let Some(b) = b {
            self.retire(b, EventKind::BatchFlush);
        }
    }

    /// Retire every open burst (deterministic target order).
    pub fn drain_all(&self) {
        let drained = std::mem::take(&mut *self.bursts.borrow_mut());
        for b in drained.into_values() {
            self.retire(b, EventKind::BatchFlush);
        }
    }

    /// Append one issued operation to the target's open burst, or retire
    /// the incompatible burst and open a fresh one. The first op of a burst
    /// pays the full injection overhead `o`; each coalesced member pays
    /// only the gap `g`.
    fn enqueue(&self, key: SegKey, kind: BurstKind, off: usize, len: usize, extra_ns: f64) {
        let t = self.transport_to(key.rank);
        let m = self.fabric.model();
        let mut bursts = self.bursts.borrow_mut();
        if let Some(b) = bursts.get_mut(&key.rank) {
            if b.accepts(key, kind, off, len, m.dmapp_proto_change_bytes, m.batch_max_ops) {
                self.clock.advance(m.gap(t));
                b.push(len, extra_ns);
                return;
            }
            let old = bursts.remove(&key.rank).expect("open burst just observed");
            self.retire(old, EventKind::BatchSplit);
        }
        let t_open = self.clock.now();
        self.clock.advance(m.inject(t));
        bursts.insert(
            key.rank,
            Burst::open(key, kind, off, len, extra_ns, t_open, self.cur_flow.get()),
        );
    }

    /// Compute a retired burst's completion horizon and record it. Puts
    /// ship as one wire message of the combined size; AMO chains pipeline
    /// behind the first AMO at gap spacing. The slowest member's fault
    /// extra delays the whole burst.
    fn retire(&self, b: Burst, how: EventKind) {
        let t = self.transport_to(b.key.rank);
        let m = self.fabric.model();
        let wire = match b.kind {
            BurstKind::Put => m.put_latency(t, b.len),
            BurstKind::Amo => m.amo_latency(t) + (b.ops - 1) as f64 * m.gap(t),
        };
        let t_complete = self.clock.now() + wire + b.extra_ns;
        self.pending.note(b.key.rank, t_complete);
        let c = self.counters();
        c.batch_flushes.fetch_add(1, Ordering::Relaxed);
        if how == EventKind::BatchSplit {
            c.batch_splits.fetch_add(1, Ordering::Relaxed);
        }
        let kind = match b.kind {
            BurstKind::Put => EventKind::Put,
            BurstKind::Amo => EventKind::Amo,
        };
        // One RMA span for the whole burst (bytes = combined payload) plus
        // the batch_* span covering its issue window. The burst carries its
        // first member's flow — one wire message, one flow.
        self.trace_op(
            kind,
            Flavor::Implicit,
            t,
            b.key.rank,
            b.len as u64,
            b.flow,
            b.t_open,
            t_complete,
        );
        self.trace_sync(how, b.key.rank, b.t_open);
    }

    /// Batched implicit put: data moves eagerly, the completion horizon is
    /// accounted when the burst retires. Faults are still drawn per op.
    fn put_batched(&self, key: SegKey, off: usize, src: &[u8]) -> Result<(), FabricError> {
        let wall = self.fabric.profiler().start();
        let seg = self.bounds(key, off, src.len())?;
        self.mc_seg(key, off, src.len(), AccessKind::Put, false, "put");
        let t = self.transport_to(key.rank);
        let m = self.fabric.model();
        let extra = self.apply_faults(key.rank, m.put_latency(t, src.len()), true);
        seg.write(off, src);
        let c = self.counters();
        c.puts.fetch_add(1, Ordering::Relaxed);
        c.bytes_put.fetch_add(src.len() as u64, Ordering::Relaxed);
        c.batched_ops.fetch_add(1, Ordering::Relaxed);
        self.enqueue(key, BurstKind::Put, off, src.len(), extra);
        self.fabric.profiler().finish(EventKind::Put, wall);
        Ok(())
    }

    /// Batched implicit non-fetching AMO (memory effect applied eagerly).
    fn amo_batched(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
    ) -> Result<(), FabricError> {
        let wall = self.fabric.profiler().start();
        let seg = self.bounds(key, off, 8)?;
        let t = self.transport_to(key.rank);
        let m = self.fabric.model();
        let extra = self.apply_faults(key.rank, m.amo_latency(t), true);
        seg.amo(off, op, operand, 0);
        let c = self.counters();
        c.amos.fetch_add(1, Ordering::Relaxed);
        c.bytes_amo.fetch_add(8, Ordering::Relaxed);
        c.batched_ops.fetch_add(1, Ordering::Relaxed);
        self.enqueue(key, BurstKind::Amo, off, 8, extra);
        self.fabric.profiler().finish(EventKind::Amo, wall);
        Ok(())
    }

    // ----------------------------------------------------------------- put

    fn put_raw(
        &self,
        key: SegKey,
        off: usize,
        src: &[u8],
        flavor: Flavor,
    ) -> Result<f64, FabricError> {
        let wall = self.fabric.profiler().start();
        let seg = self.bounds(key, off, src.len())?;
        self.mc_seg(key, off, src.len(), AccessKind::Put, false, "put");
        let t = self.transport_to(key.rank);
        let m = self.fabric.model();
        let extra =
            self.apply_faults(key.rank, m.put_latency(t, src.len()), flavor != Flavor::Blocking);
        let t_start = self.clock.now();
        self.clock.advance(m.inject(t));
        let t_complete = self.clock.now() + m.put_latency(t, src.len()) + extra;
        seg.write(off, src);
        let c = self.counters();
        c.puts.fetch_add(1, Ordering::Relaxed);
        c.bytes_put.fetch_add(src.len() as u64, Ordering::Relaxed);
        self.trace_op(
            EventKind::Put,
            flavor,
            t,
            key.rank,
            src.len() as u64,
            self.cur_flow.get(),
            t_start,
            t_complete,
        );
        self.fabric.profiler().finish(EventKind::Put, wall);
        Ok(t_complete)
    }

    /// Blocking put: returns when remotely complete.
    pub fn put(&self, key: SegKey, off: usize, src: &[u8]) -> Result<(), FabricError> {
        let t = self.put_raw(key, off, src, Flavor::Blocking)?;
        self.clock.join(t);
        Ok(())
    }

    /// Explicit-nonblocking put. Under an armed fault plan the issue may
    /// be rejected with [`FabricError::Backpressure`]; nothing was issued
    /// and the caller may retry after the hinted delay.
    pub fn put_nb(&self, key: SegKey, off: usize, src: &[u8]) -> Result<NbHandle, FabricError> {
        self.check_reject(key.rank)?;
        let t = self.put_raw(key, off, src, Flavor::Nonblocking)?;
        Ok(NbHandle { t_complete: t })
    }

    /// Implicit-nonblocking put, completed by [`Endpoint::gsync`]. With
    /// batching enabled, small puts (below the protocol-change size)
    /// write-combine into the target's open burst; large puts always take
    /// the rendezvous-style unbatched path.
    pub fn put_implicit(&self, key: SegKey, off: usize, src: &[u8]) -> Result<(), FabricError> {
        if self.batch.get() && src.len() < self.fabric.model().dmapp_proto_change_bytes {
            return self.put_batched(key, off, src);
        }
        let t = self.put_raw(key, off, src, Flavor::Implicit)?;
        self.note_pending(key.rank, t);
        Ok(())
    }

    // ----------------------------------------------------------------- get

    fn get_raw(
        &self,
        key: SegKey,
        off: usize,
        dst: &mut [u8],
        flavor: Flavor,
    ) -> Result<f64, FabricError> {
        let wall = self.fabric.profiler().start();
        let seg = self.bounds(key, off, dst.len())?;
        self.mc_seg(key, off, dst.len(), AccessKind::Get, false, "get");
        let t = self.transport_to(key.rank);
        let m = self.fabric.model();
        let extra =
            self.apply_faults(key.rank, m.get_latency(t, dst.len()), flavor != Flavor::Blocking);
        let t_start = self.clock.now();
        self.clock.advance(m.inject(t));
        let t_complete = self.clock.now() + m.get_latency(t, dst.len()) + extra;
        seg.read(off, dst);
        let c = self.counters();
        c.gets.fetch_add(1, Ordering::Relaxed);
        c.bytes_get.fetch_add(dst.len() as u64, Ordering::Relaxed);
        self.trace_op(
            EventKind::Get,
            flavor,
            t,
            key.rank,
            dst.len() as u64,
            self.cur_flow.get(),
            t_start,
            t_complete,
        );
        self.fabric.profiler().finish(EventKind::Get, wall);
        Ok(t_complete)
    }

    /// Blocking get.
    pub fn get(&self, key: SegKey, off: usize, dst: &mut [u8]) -> Result<(), FabricError> {
        let t = self.get_raw(key, off, dst, Flavor::Blocking)?;
        self.clock.join(t);
        Ok(())
    }

    /// Explicit-nonblocking get. The destination holds valid data once
    /// [`Endpoint::wait`] returns. Like [`Endpoint::put_nb`], the issue
    /// may be rejected with [`FabricError::Backpressure`] under faults.
    pub fn get_nb(&self, key: SegKey, off: usize, dst: &mut [u8]) -> Result<NbHandle, FabricError> {
        self.check_reject(key.rank)?;
        let t = self.get_raw(key, off, dst, Flavor::Nonblocking)?;
        Ok(NbHandle { t_complete: t })
    }

    /// Implicit-nonblocking get, completed by [`Endpoint::gsync`].
    pub fn get_implicit(&self, key: SegKey, off: usize, dst: &mut [u8]) -> Result<(), FabricError> {
        let t = self.get_raw(key, off, dst, Flavor::Implicit)?;
        self.note_pending(key.rank, t);
        Ok(())
    }

    // ----------------------------------------------------------------- amo

    /// Blocking 8-byte AMO at aligned offset `off`; returns the old value.
    pub fn amo(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
        compare: u64,
    ) -> Result<u64, FabricError> {
        let wall = self.fabric.profiler().start();
        let seg = self.bounds(key, off, 8)?;
        let (mc_kind, mc_fetch) = Self::mc_amo(op, true);
        self.mc_seg(key, off, 8, mc_kind, mc_fetch, "amo");
        let t = self.transport_to(key.rank);
        let m = self.fabric.model();
        let extra = self.apply_faults(key.rank, m.amo_latency(t), false);
        let t_start = self.clock.now();
        self.clock.advance(m.inject(t));
        let old = seg.amo(off, op, operand, compare);
        self.clock.advance(m.amo_latency(t) + extra);
        let c = self.counters();
        c.amos.fetch_add(1, Ordering::Relaxed);
        c.bytes_amo.fetch_add(8, Ordering::Relaxed);
        self.trace_op(
            EventKind::Amo,
            Flavor::Blocking,
            t,
            key.rank,
            8,
            self.cur_flow.get(),
            t_start,
            self.clock.now(),
        );
        self.fabric.profiler().finish(EventKind::Amo, wall);
        Ok(old)
    }

    /// Implicit-nonblocking AMO (result discarded), completed by gsync —
    /// DMAPP's non-fetching AMO flavour. With batching enabled, adjacent
    /// AMOs to the same target coalesce into one injection chain.
    pub fn amo_implicit(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
    ) -> Result<(), FabricError> {
        // One announce covers both the batched and unbatched paths (the
        // memory effect is eager either way).
        let (mc_kind, mc_fetch) = Self::mc_amo(op, false);
        self.mc_seg(key, off, 8, mc_kind, mc_fetch, "amo");
        if self.batch.get() {
            return self.amo_batched(key, off, op, operand);
        }
        let wall = self.fabric.profiler().start();
        let seg = self.bounds(key, off, 8)?;
        let t = self.transport_to(key.rank);
        let m = self.fabric.model();
        let extra = self.apply_faults(key.rank, m.amo_latency(t), true);
        let t_start = self.clock.now();
        self.clock.advance(m.inject(t));
        let t_complete = self.clock.now() + m.amo_latency(t) + extra;
        seg.amo(off, op, operand, 0);
        self.note_pending(key.rank, t_complete);
        let c = self.counters();
        c.amos.fetch_add(1, Ordering::Relaxed);
        c.bytes_amo.fetch_add(8, Ordering::Relaxed);
        self.trace_op(
            EventKind::Amo,
            Flavor::Implicit,
            t,
            key.rank,
            8,
            self.cur_flow.get(),
            t_start,
            t_complete,
        );
        self.fabric.profiler().finish(EventKind::Amo, wall);
        Ok(())
    }

    // ----------------------------------------------- stamped sync variables

    /// AMO on a 16-byte sync variable (`[value][stamp]`): performs the AMO
    /// on the value word, then raises the stamp to this op's completion
    /// time, so a peer observing the new value inherits our causal time.
    /// Returns `(old value, old stamp)`.
    ///
    /// Deliberately exempt from fault injection: this is the fetching
    /// acquire/poll primitive behind CAS retry loops, whose call count is
    /// schedule-dependent — drawing faults here would break per-seed
    /// determinism (see [`crate::faults`]).
    pub fn amo_sync(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
        compare: u64,
    ) -> Result<(u64, f64), FabricError> {
        let seg = self.bounds(key, off, 16)?;
        // The stamp word is part of the cell: announce the full 16 bytes
        // so sync AMOs conflict with `read_sync`/`write_sync` spans.
        let (mc_kind, mc_fetch) = Self::mc_amo(op, true);
        self.mc_seg(key, off, 16, mc_kind, mc_fetch, "amo_sync");
        let t = self.transport_to(key.rank);
        let m = self.fabric.model();
        self.clock.advance(m.inject(t));
        let t_complete = self.clock.now() + m.amo_latency(t);
        let old_stamp = seg.word(off + 8).fetch_max(stamp_to_bits(t_complete), Ordering::AcqRel);
        let old = seg.amo(off, op, operand, compare);
        self.clock.join(t_complete);
        let c = self.counters();
        c.amos.fetch_add(1, Ordering::Relaxed);
        c.bytes_amo.fetch_add(8, Ordering::Relaxed);
        Ok((old, bits_to_stamp(old_stamp)))
    }

    /// Fire-and-forget AMO on a sync variable: like [`Endpoint::amo_sync`]
    /// but non-fetching — the origin pays only the injection overhead and
    /// the AMO completes in the background (tracked for gsync/flush). This
    /// is DMAPP's non-fetching AMO, the primitive behind the paper's cheap
    /// release operations (Punlock = 0.4 µs) and completion notifications
    /// (Pcomplete = 350 ns · k).
    pub fn amo_sync_release(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
    ) -> Result<(), FabricError> {
        let seg = self.bounds(key, off, 16)?;
        let (mc_kind, mc_fetch) = Self::mc_amo(op, false);
        self.mc_seg(key, off, 16, mc_kind, mc_fetch, "amo_release");
        let t = self.transport_to(key.rank);
        let m = self.fabric.model();
        let extra = self.apply_faults(key.rank, m.amo_latency(t), true);
        self.clock.advance(m.inject(t));
        let t_complete = self.clock.now() + m.amo_latency(t) + extra;
        seg.word(off + 8).fetch_max(stamp_to_bits(t_complete), Ordering::AcqRel);
        seg.amo(off, op, operand, 0);
        self.note_pending(key.rank, t_complete);
        let c = self.counters();
        c.amos.fetch_add(1, Ordering::Relaxed);
        c.bytes_amo.fetch_add(8, Ordering::Relaxed);
        Ok(())
    }

    /// Like [`Endpoint::amo_sync_release`], but the notification is
    /// *ordered after* all implicit operations already issued to the same
    /// target (NIC fencing): the published stamp is the max of the AMO's
    /// own completion and the target's pending-operation horizon. The
    /// origin still pays only the injection overhead. This is the
    /// primitive behind notified access (put + notification in one call).
    ///
    /// Fault injection may delay this release's own completion, but the
    /// `max` with the pending horizon (which already includes any delays
    /// injected on the fenced data, and previous ordered releases) keeps
    /// the DMAPP ordered class intact by construction.
    pub fn amo_sync_release_ordered(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
    ) -> Result<(), FabricError> {
        let seg = self.bounds(key, off, 16)?;
        let (mc_kind, mc_fetch) = Self::mc_amo(op, false);
        self.mc_seg(key, off, 16, mc_kind, mc_fetch, "amo_release_ord");
        let t = self.transport_to(key.rank);
        let m = self.fabric.model();
        // Ordered-class fencing covers the target's open burst too: retire
        // it so its horizon is part of what the release orders behind.
        self.drain_target(key.rank);
        let extra = self.apply_faults(key.rank, m.amo_latency(t), true);
        self.clock.advance(m.inject(t));
        let pending = self.pending.horizon(key.rank);
        let t_complete = (self.clock.now() + m.amo_latency(t) + extra).max(pending);
        seg.word(off + 8).fetch_max(stamp_to_bits(t_complete), Ordering::AcqRel);
        seg.amo(off, op, operand, 0);
        // Hand the in-scope flow to the signalled rank: a waiter that
        // observes this release picks it up via `take_signal_flow`, joining
        // the consumer's trace span to this producer's flow arrow.
        let flow = self.cur_flow.get();
        if flow != NO_FLOW {
            self.fabric.telemetry().publish_signal_flow(key.rank, flow);
        }
        self.note_pending(key.rank, t_complete);
        let c = self.counters();
        c.amos.fetch_add(1, Ordering::Relaxed);
        c.bytes_amo.fetch_add(8, Ordering::Relaxed);
        Ok(())
    }

    /// Read a 16-byte sync variable; joins the clock with `stamp +
    /// latency` so waiting loops accrue honest time. Returns the value.
    pub fn read_sync(&self, key: SegKey, off: usize) -> Result<u64, FabricError> {
        let seg = self.bounds(key, off, 16)?;
        self.mc_seg(key, off, 16, AccessKind::Get, false, "read_sync");
        let t = self.transport_to(key.rank);
        let m = self.fabric.model();
        let local = key.rank == self.rank;
        let lat = if local { 0.0 } else { m.get_latency(t, 8) };
        if !local {
            self.clock.advance(m.inject(t));
            self.counters().gets.fetch_add(1, Ordering::Relaxed);
        }
        let v = seg.word(off).load(Ordering::Acquire);
        let s = bits_to_stamp(seg.word(off + 8).load(Ordering::Acquire));
        self.clock.join(s + lat);
        self.clock.join(self.clock.now() + lat);
        Ok(v)
    }

    /// Load a sync variable's value word with no virtual-time charge, no
    /// count and no stamp join: the wall-clock half of a wait whose virtual
    /// cost is charged once, by a closing [`Endpoint::read_sync`] that
    /// joins the stamp of the write it waited for. Charging each poll
    /// instead would make the clock depend on how many polls the real
    /// schedule took.
    pub fn peek_sync(&self, key: SegKey, off: usize) -> Result<u64, FabricError> {
        let seg = self.bounds(key, off, 16)?;
        self.mc_seg(key, off, 16, AccessKind::Get, false, "peek_sync");
        Ok(seg.word(off).load(Ordering::Acquire))
    }

    /// Write a 16-byte sync variable (value + stamp = our completion time).
    pub fn write_sync(&self, key: SegKey, off: usize, value: u64) -> Result<(), FabricError> {
        self.write_sync_inner(key, off, value, true)
    }

    /// [`Endpoint::write_sync`] for a hand-off whose very issue depends on
    /// the schedule: an MCS link or successor signal exists only when
    /// another rank happened to queue. Exempt from fault injection, like
    /// [`Endpoint::amo_sync`], so each rank's fault draws stay a function
    /// of its program order alone (see [`crate::faults`]). Costs the same
    /// virtual time as `write_sync` when no fault plan is armed.
    pub fn write_sync_handoff(
        &self,
        key: SegKey,
        off: usize,
        value: u64,
    ) -> Result<(), FabricError> {
        self.write_sync_inner(key, off, value, false)
    }

    fn write_sync_inner(
        &self,
        key: SegKey,
        off: usize,
        value: u64,
        faults: bool,
    ) -> Result<(), FabricError> {
        let seg = self.bounds(key, off, 16)?;
        self.mc_seg(key, off, 16, AccessKind::Put, false, "write_sync");
        let t = self.transport_to(key.rank);
        let m = self.fabric.model();
        let extra =
            if faults { self.apply_faults(key.rank, m.put_latency(t, 8), true) } else { 0.0 };
        self.clock.advance(m.inject(t));
        let t_complete = self.clock.now() + m.put_latency(t, 8) + extra;
        seg.word(off + 8).fetch_max(stamp_to_bits(t_complete), Ordering::AcqRel);
        seg.word(off).store(value, Ordering::Release);
        self.note_pending(key.rank, t_complete);
        self.counters().puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // ------------------------------------------------------ notified access

    /// Issue an ordered completion notification toward `target`: a record
    /// `(tag, source=this rank, bytes)` appended to the target rank's
    /// notification ring ([`crate::notify`]) once everything already
    /// issued to that target — including the open injection burst, which
    /// is drained first so the notification orders after the burst's
    /// completion — has retired. The notification itself rides a
    /// non-fetching AMO (same cost shape as
    /// [`Endpoint::amo_sync_release_ordered`]): the origin pays one
    /// injection overhead and the record's stamp is
    /// `max(own completion, pending horizon toward target)`, keeping the
    /// DMAPP ordered class intact under fault-injected delays.
    ///
    /// A full ring is modelled as injection-queue backpressure: the origin
    /// charges one stall (the armed [`crate::FaultPlan`]'s `bp_ns`, or
    /// [`Endpoint::NOTIFY_BP_NS`] when no plan is armed), then retries a
    /// bounded number of times while the consumer drains; if the ring
    /// never drains the append surfaces [`FabricError::Backpressure`].
    /// Fault draws happen once per append, never inside the retry loop,
    /// preserving the per-seed determinism contract of [`crate::faults`].
    pub fn notify_append(&self, target: u32, tag: u32, bytes: u64) -> Result<(), FabricError> {
        let wall = self.fabric.profiler().start();
        let t = self.transport_to(target);
        let m = self.fabric.model();
        // Ordered-class fencing: the notification trails the open burst.
        self.drain_target(target);
        let extra = self.apply_faults(target, m.amo_latency(t), true);
        let t_start = self.clock.now();
        self.clock.advance(m.inject(t));
        let pending = self.pending.horizon(target);
        let mut t_complete = (self.clock.now() + m.amo_latency(t) + extra).max(pending);
        let q = self.fabric.notify().queue(target);
        let flow = self.cur_flow.get();
        let mut rec = NotifyRecord { tag, source: self.rank, bytes, stamp: t_complete, flow };
        self.mc_op(McObj::Ring(target), 0, 0, AccessKind::Put, false, "notify-push");
        if !q.try_push(rec) {
            if self.mc_armed() {
                // Under the model checker a full ring is a legal blocking
                // point, not backpressure to fault-charge: park until the
                // consumer drains, re-announcing the push each round so the
                // gate keeps scheduling authority over the retry.
                loop {
                    let fab = self.fabric.clone();
                    self.mc_poll(McObj::Ring(target), "notify-space", move || {
                        let q = fab.notify().queue(target);
                        q.len() < q.capacity()
                    });
                    self.mc_op(McObj::Ring(target), 0, 0, AccessKind::Put, false, "notify-push");
                    if q.try_push(rec) {
                        break;
                    }
                }
                self.note_pending(target, t_complete);
                self.counters().notify_posts.fetch_add(1, Ordering::Relaxed);
                self.fabric.profiler().finish(EventKind::NotifyPost, wall);
                return Ok(());
            }
            // Overflow → backpressure. Charge the stall once (no extra RNG
            // draws: the magnitude comes straight from the armed plan), then
            // retry while the consumer drains.
            let c = self.counters();
            c.notify_overflows.fetch_add(1, Ordering::Relaxed);
            let plan = self.fabric.faults().plan();
            let stall = if plan.bp_ns > 0.0 { plan.bp_ns } else { Self::NOTIFY_BP_NS };
            let t0 = self.clock.now();
            self.clock.advance(stall);
            self.trace_fault(EventKind::FaultBackpressure, target, t0, self.clock.now());
            // The stalled append re-issues after the stall.
            t_complete = (self.clock.now() + m.amo_latency(t)).max(t_complete);
            rec.stamp = t_complete;
            let mut pushed = false;
            for _ in 0..Self::NOTIFY_RETRY_LIMIT {
                if q.try_push(rec) {
                    pushed = true;
                    break;
                }
                std::thread::yield_now();
            }
            if !pushed {
                // The retry budget is exhausted — the peer never drained.
                // This is the fatal-backpressure path: dump the flight
                // recorder so the last window of events survives the abort
                // most callers turn this error into.
                self.flight_dump("notify ring backpressure retry budget exhausted");
                return Err(FabricError::Backpressure { retry_after_ns: stall as u64 });
            }
        }
        self.note_pending(target, t_complete);
        self.counters().notify_posts.fetch_add(1, Ordering::Relaxed);
        self.trace_op(
            EventKind::NotifyPost,
            Flavor::Implicit,
            t,
            target,
            bytes,
            flow,
            t_start,
            t_complete,
        );
        self.fabric.profiler().finish(EventKind::NotifyPost, wall);
        Ok(())
    }

    /// Issue stall charged per overflowed [`Endpoint::notify_append`] when
    /// no fault plan is armed (an armed plan's `bp_ns` takes precedence).
    pub const NOTIFY_BP_NS: f64 = 2_000.0;

    /// Bounded retry attempts after an overflowed append before the
    /// backpressure error surfaces to the caller.
    pub const NOTIFY_RETRY_LIMIT: u32 = 100_000;

    /// Notified put: the data moves like [`Endpoint::put_implicit`] (so it
    /// composes with issue-side batching), then an ordered notification
    /// carrying `(tag, bytes)` is appended to the target rank's ring. A
    /// consumer that matches the notification observes the data: the
    /// record's stamp trails the data's completion horizon.
    pub fn put_notified(
        &self,
        key: SegKey,
        off: usize,
        src: &[u8],
        tag: u32,
    ) -> Result<(), FabricError> {
        // One causal flow covers the data put and its notification: the
        // consumer's matching wait joins this flow in the trace.
        let prev = self.flow_open();
        let r = self
            .put_implicit(key, off, src)
            .and_then(|()| self.notify_append(key.rank, tag, src.len() as u64));
        self.flow_close(prev);
        r
    }

    /// Notified get: fetch like [`Endpoint::get_implicit`], then notify the
    /// *target* (the data's owner) that the read has retired — the
    /// buffer-reuse signal of notified access (the owner may overwrite once
    /// it matches the notification).
    pub fn get_notified(
        &self,
        key: SegKey,
        off: usize,
        dst: &mut [u8],
        tag: u32,
    ) -> Result<(), FabricError> {
        let prev = self.flow_open();
        let len = dst.len() as u64;
        let r =
            self.get_implicit(key, off, dst).and_then(|()| self.notify_append(key.rank, tag, len));
        self.flow_close(prev);
        r
    }

    /// Notified non-fetching AMO: apply like [`Endpoint::amo_implicit`],
    /// then notify the target. The credit-return primitive of
    /// producer-consumer channels.
    pub fn amo_notified(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
        tag: u32,
    ) -> Result<(), FabricError> {
        let prev = self.flow_open();
        let r = self
            .amo_implicit(key, off, op, operand)
            .and_then(|()| self.notify_append(key.rank, tag, 8));
        self.flow_close(prev);
        r
    }

    /// Pop the oldest notification destined for this rank, if any. Local
    /// polling is free in virtual time (the ring lives on this rank, like
    /// `read_sync` on a local segment); a popped record joins the clock
    /// with its stamp, so consuming a notification implies the notified
    /// operation's data is visible. Matching (tag/source wildcards,
    /// out-of-order stashing) lives in the window layer.
    pub fn notify_pop(&self) -> Option<NotifyRecord> {
        let rec = self.notify_poll()?;
        self.notify_join(&rec);
        Some(rec)
    }

    /// Pop without joining the clock. The window-layer matcher stashes
    /// records that don't match the current wait; only the *matched*
    /// record's stamp may touch the consumer's clock, otherwise the clock
    /// would depend on how many unrelated records happened to be queued
    /// ahead of the match — a real-schedule artefact the virtual-time
    /// model must not observe. Callers pair this with
    /// [`Endpoint::notify_join`] on the record they actually consume.
    pub fn notify_poll(&self) -> Option<NotifyRecord> {
        // Announce even when the ring turns out to be empty: observing
        // emptiness is itself order-sensitive (it decides a retry).
        self.mc_op(McObj::Ring(self.rank), 0, 0, AccessKind::Get, false, "notify-poll");
        let rec = self.fabric.notify().queue(self.rank).try_pop()?;
        self.counters().notify_consumed.fetch_add(1, Ordering::Relaxed);
        Some(rec)
    }

    /// Join the clock with a matched record's stamp — the consume-side
    /// half of [`Endpoint::notify_poll`]: after the join, everything the
    /// notified operation wrote is visible at this rank's virtual time.
    pub fn notify_join(&self, rec: &NotifyRecord) {
        self.clock.join(rec.stamp);
    }

    /// Records currently queued for this rank (approximate under
    /// concurrent producers).
    pub fn notify_backlog(&self) -> usize {
        self.fabric.notify().queue(self.rank).len()
    }

    /// Discard every notification still queued for this rank (window
    /// free): each dropped record is counted and traced. Returns how many
    /// were dropped.
    pub fn notify_drop_all(&self) -> u64 {
        self.mc_op(McObj::Ring(self.rank), 0, 0, AccessKind::Put, false, "notify-drain");
        let q = self.fabric.notify().queue(self.rank);
        let mut n = 0u64;
        while let Some(rec) = q.try_pop() {
            n += 1;
            let t0 = self.clock.now();
            // The drop carries the record's flow so an unconsumed
            // notification still terminates its arrow (visibly as a drop).
            self.trace_op(
                EventKind::NotifyDrop,
                Flavor::NotApplicable,
                self.transport_to(rec.source),
                rec.source,
                rec.bytes,
                rec.flow,
                t0,
                t0,
            );
        }
        if n > 0 {
            self.counters().notify_dropped.fetch_add(n, Ordering::Relaxed);
        }
        n
    }

    // ---------------------------------------------------------- completion

    /// Wait for one explicit-nonblocking operation.
    pub fn wait(&self, h: NbHandle) {
        self.clock.join(h.t_complete);
    }

    /// Bulk-complete all implicit-nonblocking operations (DMAPP `gsync`).
    /// Under an armed fault plan the drain itself may retire late (the
    /// NIC's completion queue lags): the extra delay is charged after the
    /// pending horizon is joined.
    pub fn gsync(&self) {
        let wall = self.fabric.profiler().start();
        let t_start = self.clock.now();
        self.drain_all();
        self.clock.join(self.pending.global());
        let extra = self.apply_faults(NO_TARGET, 0.0, true);
        if extra > 0.0 {
            self.clock.advance(extra);
        }
        self.counters().gsyncs.fetch_add(1, Ordering::Relaxed);
        self.trace_sync(EventKind::Gsync, NO_TARGET, t_start);
        self.fabric.profiler().finish(EventKind::Gsync, wall);
    }

    /// The completion horizon of implicit operations already issued to
    /// `target` (what a flush would wait for) — used by request-based
    /// wrappers to build completion handles. Retires the target's open
    /// burst first so the horizon covers it. Conservative under striping:
    /// may include a stripe-mate's later completion.
    pub fn pending_for(&self, target: u32) -> f64 {
        self.drain_target(target);
        self.pending.horizon(target)
    }

    /// Complete all implicit operations targeted at `target` (per-target
    /// remote completion, the substrate of `MPI_Win_flush(target)`).
    /// Retires the target's open burst, then joins its striped horizon.
    pub fn flush_target(&self, target: u32) {
        let wall = self.fabric.profiler().start();
        let t_start = self.clock.now();
        self.drain_target(target);
        self.clock.join(self.pending.horizon(target));
        self.counters().flushes.fetch_add(1, Ordering::Relaxed);
        self.trace_sync(EventKind::Flush, target, t_start);
        self.fabric.profiler().finish(EventKind::Flush, wall);
    }

    /// Local memory fence (x86 `mfence` analogue, charged per the model).
    pub fn mfence(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
        self.clock.advance(self.fabric.model().mfence_ns);
    }

    // ------------------------------------------------------ flight recorder

    /// Dump this rank's flight-recorder window and an atomics-only metrics
    /// summary to stderr — the black-box readout for fatal paths (panics,
    /// racecheck aborts, exhausted backpressure retries). Reads only this
    /// rank's own ring (single-writer, so its own events are coherent
    /// mid-run) plus atomic counters; safe to call while other ranks are
    /// still running. No-op unless the flight recorder is armed.
    #[cold]
    pub fn flight_dump(&self, why: &str) {
        let tel = self.fabric.telemetry();
        if !tel.flight_enabled() {
            return;
        }
        let evs = tel.flight_events(self.rank);
        let mut out = format!(
            "== fompi-scope flight recorder: rank {} ({}): last {} events ==\n",
            self.rank,
            why,
            evs.len()
        );
        for ev in &evs {
            out.push_str(&format!(
                "  [{:>14.1}..{:>14.1}] {:<12} -> {:>3} bytes={} win={} flow={:#x}\n",
                ev.t_start,
                ev.t_end,
                ev.kind.name(),
                if ev.target == NO_TARGET { -1i64 } else { ev.target as i64 },
                ev.bytes,
                ev.win,
                ev.flow,
            ));
        }
        out.push_str(&crate::metrics::panic_summary(&self.fabric));
        eprint!("{out}");
    }

    // ------------------------------------------------------- model checking
    //
    // Announce points for the interleaving model checker ([`crate::mc`]).
    // The unarmed cost is one relaxed load per site — the faults/racecheck
    // bar. Announcements cover every shared-state touch the endpoint
    // performs: segment data movement, stamped sync variables, and
    // notification-ring traffic. Rank-local state (clock, open bursts,
    // striped horizons, counters) is never announced: other ranks cannot
    // observe it, so reordering it cannot change any rank-visible value.

    /// Is a model-checker gate armed on the fabric?
    #[inline]
    pub fn mc_armed(&self) -> bool {
        self.fabric.mc_armed()
    }

    /// Announce one operation on an explicit conflict object and park
    /// until the gate schedules this rank; the caller must then perform
    /// exactly the announced operation. No-op unless armed.
    #[inline]
    pub fn mc_op(
        &self,
        obj: McObj,
        lo: usize,
        hi: usize,
        kind: AccessKind,
        fetch: bool,
        label: &'static str,
    ) {
        if self.fabric.mc_armed() {
            self.mc_op_slow(obj, lo, hi, kind, fetch, label);
        }
    }

    #[cold]
    fn mc_op_slow(
        &self,
        obj: McObj,
        lo: usize,
        hi: usize,
        kind: AccessKind,
        fetch: bool,
        label: &'static str,
    ) {
        if let Some(g) = self.fabric.mc_gate() {
            g.op(self.rank, McOp { obj, lo, hi, kind, fetch, label });
        }
    }

    /// Announce a segment access `[off, off + len)` by registration key.
    #[inline]
    fn mc_seg(
        &self,
        key: SegKey,
        off: usize,
        len: usize,
        kind: AccessKind,
        fetch: bool,
        label: &'static str,
    ) {
        if self.fabric.mc_armed() {
            self.mc_op_slow(
                McObj::Seg { owner: key.rank, id: key.id },
                off,
                off + len,
                kind,
                fetch,
                label,
            );
        }
    }

    /// Announce vocabulary for an AMO: the reduction tag plus whether the
    /// op must be treated as order-observing even when non-fetching.
    /// Same-op `Add`/`And`/`Or`/`Xor` commute; `Swap` and `Cas` never
    /// commute with themselves, so they always carry the fetch bit; a
    /// pure `Fetch` is the atomic-read carve-out.
    fn mc_amo(op: AmoOp, fetch: bool) -> (AccessKind, bool) {
        match op {
            AmoOp::Add => (AccessKind::Acc(0), fetch),
            AmoOp::And => (AccessKind::Acc(1), fetch),
            AmoOp::Or => (AccessKind::Acc(2), fetch),
            AmoOp::Xor => (AccessKind::Acc(3), fetch),
            AmoOp::Swap => (AccessKind::Acc(4), true),
            AmoOp::Cas => (AccessKind::Acc(5), true),
            AmoOp::Fetch => (AccessKind::Acc(crate::shadow::ACC_NOOP), fetch),
        }
    }

    /// Gate-mediated blocking wait: park until `pred` holds *and* the
    /// gate schedules this rank. Returns `false` when no gate is armed —
    /// the caller falls back to its normal spin/yield loop. A wake is a
    /// read of `obj` in the conflict relation.
    pub fn mc_poll<F>(&self, obj: McObj, label: &'static str, pred: F) -> bool
    where
        F: Fn() -> bool + Send + Sync + 'static,
    {
        if !self.fabric.mc_armed() {
            return false;
        }
        match self.fabric.mc_gate() {
            Some(g) => {
                g.poll(self.rank, obj, label, Box::new(pred));
                true
            }
            None => false,
        }
    }

    /// Park until this rank's own notification ring is non-empty — the
    /// gate-mediated form of every "spin until a notification arrives"
    /// loop. Returns `false` when no gate is armed.
    pub fn mc_poll_my_ring(&self, label: &'static str) -> bool {
        if !self.fabric.mc_armed() {
            return false;
        }
        let fab = self.fabric.clone();
        let rank = self.rank;
        self.mc_poll(McObj::Ring(rank), label, move || !fab.notify().queue(rank).is_empty())
    }

    /// Park until the 8-byte sync word at `key`+`off` satisfies `pred` —
    /// the gate-mediated form of a CAS-retry loop on a remote lock word.
    /// A failed sync CAS means another origin holds the word, so
    /// re-arming the attempt is only useful once the word changes; under
    /// the checker each free retry would be an always-enabled step and
    /// exploration of the spin would never terminate. Returns `false`
    /// when no gate is armed — the caller falls back to its backoff spin.
    pub fn mc_poll_word(
        &self,
        key: SegKey,
        off: usize,
        label: &'static str,
        pred: fn(u64) -> bool,
    ) -> bool {
        if !self.fabric.mc_armed() {
            return false;
        }
        let Ok(seg) = self.fabric.resolve(key) else {
            return false;
        };
        if !seg.check(off, 8) {
            return false;
        }
        self.mc_poll(McObj::Seg { owner: key.rank, id: key.id }, label, move || {
            pred(seg.word(off).load(Ordering::Acquire))
        })
    }

    /// Enter a job-wide collective through the gate; `Some(is_leader)`
    /// when armed, `None` otherwise (caller runs its real barrier).
    pub fn mc_collective(&self, label: &'static str) -> Option<bool> {
        if !self.fabric.mc_armed() {
            return None;
        }
        self.fabric.mc_gate().map(|g| g.collective(self.rank, label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::segment::Segment;

    fn setup() -> (Arc<Fabric>, Endpoint, Endpoint, SegKey) {
        // Ranks 0 and 1 on different nodes → DMAPP path.
        let f = Fabric::new(2, 1, CostModel::default());
        let ep0 = Endpoint::new(f.clone(), 0);
        let ep1 = Endpoint::new(f.clone(), 1);
        let seg = Segment::new(4096);
        let key = f.register(1, seg);
        (f, ep0, ep1, key)
    }

    #[test]
    fn blocking_put_costs_model_latency() {
        let (f, ep0, _ep1, key) = setup();
        let m = f.model().clone();
        ep0.put(key, 0, &[1u8; 8]).unwrap();
        let expect = m.inject(Transport::Dmapp) + m.put_latency(Transport::Dmapp, 8);
        assert!((ep0.clock().now() - expect).abs() < 1e-9);
        let mut out = [0u8; 8];
        ep0.get(key, 0, &mut out).unwrap();
        assert_eq!(out, [1u8; 8]);
    }

    #[test]
    fn implicit_ops_cost_only_injection_until_gsync() {
        let (f, ep0, _ep1, key) = setup();
        let m = f.model().clone();
        for i in 0..10 {
            ep0.put_implicit(key, i * 8, &[i as u8; 8]).unwrap();
        }
        let inject_only = 10.0 * m.inject(Transport::Dmapp);
        assert!((ep0.clock().now() - inject_only).abs() < 1e-9);
        ep0.gsync();
        // After gsync we must have paid at least one full latency.
        assert!(ep0.clock().now() >= inject_only + m.put_latency(Transport::Dmapp, 8));
    }

    #[test]
    fn nb_handle_waits() {
        let (_f, ep0, _ep1, key) = setup();
        let h = ep0.put_nb(key, 0, &[9u8; 16]).unwrap();
        let before = ep0.clock().now();
        assert!(h.t_complete > before);
        ep0.wait(h);
        assert_eq!(ep0.clock().now(), h.t_complete);
    }

    #[test]
    fn amo_roundtrip_and_cost() {
        let (f, ep0, _ep1, key) = setup();
        let old = ep0.amo(key, 0, AmoOp::Add, 42, 0).unwrap();
        assert_eq!(old, 0);
        let old = ep0.amo(key, 0, AmoOp::Add, 1, 0).unwrap();
        assert_eq!(old, 42);
        let m = f.model();
        let per = m.inject(Transport::Dmapp) + m.amo_latency(Transport::Dmapp);
        assert!((ep0.clock().now() - 2.0 * per).abs() < 1e-9);
    }

    #[test]
    fn sync_var_carries_time() {
        let (_f, ep0, ep1, key) = setup();
        // Rank 0 does expensive work then signals.
        ep0.charge(1_000_000.0);
        ep0.amo_sync(key, 0, AmoOp::Add, 1, 0).unwrap();
        // Rank 1 reads the flag; its clock must jump past rank 0's signal.
        let v = ep1.read_sync(key, 0).unwrap();
        assert_eq!(v, 1);
        assert!(ep1.clock().now() > 1_000_000.0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (_f, ep0, _ep1, key) = setup();
        assert!(matches!(ep0.put(key, 4090, &[0u8; 16]), Err(FabricError::OutOfBounds { .. })));
    }

    #[test]
    fn per_target_flush() {
        let f = Fabric::new(3, 1, CostModel::default());
        let ep0 = Endpoint::new(f.clone(), 0);
        let k1 = f.register(1, Segment::new(64));
        let k2 = f.register(2, Segment::new(8192));
        ep0.put_implicit(k1, 0, &[1u8; 8]).unwrap();
        ep0.put_implicit(k2, 0, &[2u8; 4096]).unwrap();
        let t_before = ep0.clock().now();
        ep0.flush_target(1); // cheap target only
        let after_1 = ep0.clock().now();
        ep0.flush_target(2); // expensive 4 KiB put
        let after_2 = ep0.clock().now();
        assert!(after_1 >= t_before);
        assert!(after_2 > after_1);
    }

    #[test]
    fn ordered_release_trails_pending_data() {
        let (f, ep0, ep1, key) = setup();
        let m = f.model().clone();
        // A large implicit put followed by an ordered notification: the
        // notification stamp must not be visible before the data horizon.
        ep0.put_implicit(key, 16, &[7u8; 2048]).unwrap();
        let t_data = ep0.clock().now() + m.put_latency(Transport::Dmapp, 2048);
        ep0.amo_sync_release_ordered(key, 0, AmoOp::Add, 1).unwrap();
        // The reader joins the stamp: its clock lands at/after the data.
        let v = ep1.read_sync(key, 0).unwrap();
        assert_eq!(v, 1);
        assert!(
            ep1.clock().now() >= t_data,
            "notification visible before the data it orders: {} < {}",
            ep1.clock().now(),
            t_data
        );
        // The origin itself did not block.
        assert!(ep0.clock().now() < t_data);
    }

    #[test]
    fn faults_perturb_latency_deterministically() {
        use crate::faults::FaultPlan;
        let mk = || {
            let f =
                Fabric::with_config(2, 1, CostModel::default(), None, Some(FaultPlan::heavy(77)));
            let ep = Endpoint::new(f.clone(), 0);
            let key = f.register(1, Segment::new(4096));
            (f, ep, key)
        };
        let (fa, ea, ka) = mk();
        let (fb, eb, kb) = mk();
        for i in 0..50 {
            ea.put(ka, 0, &[i as u8; 64]).unwrap();
            eb.put(kb, 0, &[i as u8; 64]).unwrap();
            assert_eq!(ea.clock().now().to_bits(), eb.clock().now().to_bits());
        }
        assert!(fa.faults().total_injected() > 0, "heavy plan must inject");
        assert_eq!(fa.faults().total_injected(), fb.faults().total_injected());
        // Jitter must actually cost time relative to the clean model.
        let f0 = Fabric::new(2, 1, CostModel::default());
        let e0 = Endpoint::new(f0.clone(), 0);
        let k0 = f0.register(1, Segment::new(4096));
        for i in 0..50 {
            e0.put(k0, 0, &[i as u8; 64]).unwrap();
        }
        assert!(ea.clock().now() > e0.clock().now());
    }

    #[test]
    fn rejected_nb_issue_moves_no_data() {
        use crate::faults::FaultPlan;
        let plan = FaultPlan { bp_reject_prob: 1.0, ..FaultPlan::heavy(5) };
        let f = Fabric::with_config(2, 1, CostModel::default(), None, Some(plan));
        let ep = Endpoint::new(f.clone(), 0);
        let key = f.register(1, Segment::new(64));
        match ep.put_nb(key, 0, &[9u8; 8]) {
            Err(FabricError::Backpressure { retry_after_ns }) => assert!(retry_after_ns > 0),
            other => panic!("expected backpressure, got {other:?}"),
        }
        // Nothing was issued: the target bytes are untouched.
        let mut buf = [1u8; 8];
        ep.get(key, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn ordered_release_stays_ordered_under_faults() {
        use crate::faults::FaultPlan;
        let f = Fabric::with_config(2, 1, CostModel::default(), None, Some(FaultPlan::heavy(31)));
        let ep0 = Endpoint::new(f.clone(), 0);
        let ep1 = Endpoint::new(f.clone(), 1);
        let key = f.register(1, Segment::new(4096));
        for round in 0..20u64 {
            ep0.put_implicit(key, 16, &[7u8; 2048]).unwrap();
            let horizon = ep0.pending_for(1);
            ep0.amo_sync_release_ordered(key, 0, AmoOp::Add, 1).unwrap();
            let v = ep1.read_sync(key, 0).unwrap();
            assert_eq!(v, round + 1);
            assert!(
                ep1.clock().now() >= horizon,
                "delayed release overtook its fenced data: {} < {horizon}",
                ep1.clock().now()
            );
        }
    }

    #[test]
    fn batching_amortizes_injection_and_improves_horizon() {
        let m = CostModel::default();
        let run = |batch: bool| {
            let f = Fabric::new(2, 1, CostModel::default());
            let ep = Endpoint::new(f.clone(), 0);
            ep.set_batching(batch);
            let key = f.register(1, Segment::new(4096));
            for i in 0..16 {
                ep.put_implicit(key, i * 8, &[i as u8 + 1; 8]).unwrap();
            }
            ep.gsync();
            (ep.clock().now(), f, ep, key)
        };
        let (batched, fb, epb, keyb) = run(true);
        let (unbatched, ..) = run(false);
        assert!(batched < unbatched, "batched {batched} >= unbatched {unbatched}");
        // 16 contiguous 8-byte puts: one burst — o + 15·g issue cost and a
        // single 128-byte wire message instead of 16 injections.
        let expect = m.inject(Transport::Dmapp)
            + 15.0 * m.gap(Transport::Dmapp)
            + m.put_latency(Transport::Dmapp, 128);
        assert!((batched - expect).abs() < 1e-9, "got {batched}, expect {expect}");
        let c = fb.counters().snapshot();
        assert_eq!((c.puts, c.batched_ops, c.batch_flushes, c.batch_splits), (16, 16, 1, 0));
        // The data all landed, in order.
        for i in 0..16u8 {
            let mut buf = [0u8; 8];
            epb.get(keyb, i as usize * 8, &mut buf).unwrap();
            assert_eq!(buf, [i + 1; 8]);
        }
    }

    #[test]
    fn burst_splits_exactly_at_proto_boundary() {
        let (f, ep0, _ep1, key) = setup();
        ep0.set_batching(true);
        // 8 × 512 B contiguous = 4096 B total: the member that would reach
        // the protocol-change size exactly must open a fresh burst instead
        // (bursts never enter the rendezvous protocol).
        for i in 0..8 {
            ep0.put_implicit(key, i * 512, &[i as u8 + 1; 512]).unwrap();
        }
        let c = f.counters().snapshot();
        assert_eq!((c.batch_flushes, c.batch_splits), (1, 1));
        assert_eq!(ep0.open_bursts(), 1, "the split's tail burst stays open");
        ep0.gsync();
        assert_eq!(ep0.open_bursts(), 0);
        assert_eq!(f.counters().snapshot().batch_flushes, 2);
        let mut buf = [0u8; 512];
        ep0.get(key, 7 * 512, &mut buf).unwrap();
        assert_eq!(buf, [8u8; 512]);
    }

    #[test]
    fn large_puts_bypass_batching() {
        let f = Fabric::new(2, 1, CostModel::default());
        let ep = Endpoint::new(f.clone(), 0);
        ep.set_batching(true);
        let key = f.register(1, Segment::new(8192));
        ep.put_implicit(key, 0, &[3u8; 4096]).unwrap();
        assert_eq!(ep.open_bursts(), 0, "protocol-change-sized put is not batched");
        assert_eq!(f.counters().snapshot().batched_ops, 0);
        assert!(ep.pending_for(1) > 0.0);
    }

    #[test]
    fn interleaved_put_amo_same_offset_stays_ordered() {
        let (f, ep0, ep1, key) = setup();
        ep0.set_batching(true);
        // Same 8-byte word, alternating kinds: memory effects apply
        // eagerly in program order, and every kind switch retires the
        // open burst, so nothing reorders within the ordered class.
        ep0.put_implicit(key, 0, &5u64.to_le_bytes()).unwrap();
        ep0.amo_implicit(key, 0, AmoOp::Add, 3).unwrap();
        ep0.put_implicit(key, 0, &10u64.to_le_bytes()).unwrap();
        ep0.amo_implicit(key, 0, AmoOp::Add, 1).unwrap();
        assert_eq!(f.counters().snapshot().batch_splits, 3);
        let horizon = ep0.pending_for(1); // drains the open AMO burst
        assert!(horizon > 0.0);
        ep0.amo_sync_release_ordered(key, 16, AmoOp::Add, 1).unwrap();
        let v = ep1.read_sync(key, 16).unwrap();
        assert_eq!(v, 1);
        assert!(
            ep1.clock().now() >= horizon,
            "ordered release overtook batched data: {} < {horizon}",
            ep1.clock().now()
        );
        let mut buf = [0u8; 8];
        ep0.get(key, 0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 11, "program order preserved");
    }

    #[test]
    fn flush_during_faults_drains_and_stays_deterministic() {
        use crate::faults::FaultPlan;
        let run = || {
            // Delay + backpressure heavy: the PR 2 plans the soak uses.
            let plan = FaultPlan { delay_prob: 0.5, bp_prob: 0.3, ..FaultPlan::heavy(123) };
            let f = Fabric::with_config(2, 1, CostModel::default(), None, Some(plan));
            let ep = Endpoint::new(f.clone(), 0);
            ep.set_batching(true);
            let key = f.register(1, Segment::new(8192));
            for round in 0..10usize {
                for i in 0..8 {
                    ep.put_implicit(key, round * 64 + i * 8, &[i as u8; 8]).unwrap();
                }
                ep.flush_target(1);
                assert_eq!(ep.open_bursts(), 0, "flush must drain open bursts");
            }
            ep.gsync();
            (ep.clock().now(), f.faults().total_injected())
        };
        let (ta, ia) = run();
        let (tb, ib) = run();
        assert_eq!(ta.to_bits(), tb.to_bits(), "batched fault runs must be bit-deterministic");
        assert_eq!(ia, ib);
        assert!(ia > 0, "the armed plan must inject");
    }

    #[test]
    fn disabling_batching_drains_open_bursts() {
        let (f, ep0, _ep1, key) = setup();
        ep0.set_batching(true);
        ep0.put_implicit(key, 0, &[1u8; 8]).unwrap();
        assert_eq!(ep0.open_bursts(), 1);
        ep0.set_batching(false);
        assert_eq!(ep0.open_bursts(), 0);
        assert!(ep0.pending_for(1) > 0.0, "drained burst left its horizon behind");
        let _ = f;
    }

    #[test]
    fn notified_put_delivers_record_after_its_data() {
        let (f, ep0, ep1, key) = setup();
        let m = f.model().clone();
        ep0.put_notified(key, 64, &[9u8; 2048], 77).unwrap();
        let t_data = m.inject(Transport::Dmapp) + m.put_latency(Transport::Dmapp, 2048);
        let rec = ep1.notify_pop().expect("notification queued");
        assert_eq!((rec.tag, rec.source, rec.bytes), (77, 0, 2048));
        assert!(
            rec.stamp >= t_data,
            "notification stamp {} precedes its data horizon {t_data}",
            rec.stamp
        );
        // Consuming the notification pulls the consumer past the data.
        assert!(ep1.clock().now() >= t_data);
        let mut buf = [0u8; 2048];
        ep1.get(key, 64, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 2048]);
        let c = f.counters().snapshot();
        assert_eq!((c.notify_posts, c.notify_consumed, c.notify_overflows), (1, 1, 0));
    }

    #[test]
    fn notified_op_drains_open_burst_first() {
        let (f, ep0, ep1, key) = setup();
        ep0.set_batching(true);
        // Contiguous small puts open a burst; the notified put joins it,
        // then the notification drains it so the record trails the whole
        // burst's completion.
        for i in 0..8 {
            ep0.put_implicit(key, i * 8, &[i as u8 + 1; 8]).unwrap();
        }
        assert_eq!(ep0.open_bursts(), 1);
        ep0.put_notified(key, 64, &[42u8; 8], 5).unwrap();
        assert_eq!(ep0.open_bursts(), 0, "notification must retire the burst");
        let horizon = ep0.pending_for(1);
        let rec = ep1.notify_pop().expect("notification queued");
        assert!(
            rec.stamp >= horizon || ep1.clock().now() >= horizon,
            "notification reordered ahead of its burst"
        );
        assert!(f.counters().snapshot().batch_flushes >= 1);
    }

    #[test]
    fn notify_overflow_accounts_backpressure_and_errors() {
        let f = Fabric::new(2, 1, CostModel::default());
        f.set_notify_depth(2);
        let ep0 = Endpoint::new(f.clone(), 0);
        let _key = f.register(1, Segment::new(64));
        ep0.notify_append(1, 1, 8).unwrap();
        ep0.notify_append(1, 2, 8).unwrap();
        let before = ep0.clock().now();
        // Nobody consumes: the third append stalls, retries, then errors.
        match ep0.notify_append(1, 3, 8) {
            Err(FabricError::Backpressure { retry_after_ns }) => assert!(retry_after_ns > 0),
            other => panic!("expected backpressure, got {other:?}"),
        }
        let c = f.counters().snapshot();
        assert_eq!(c.notify_overflows, 1);
        assert_eq!(c.notify_posts, 2, "the failed append must not count as posted");
        // The stall was charged to the producer's clock exactly once.
        let m = f.model();
        let stall_floor = m.inject(Transport::Dmapp) + Endpoint::NOTIFY_BP_NS;
        assert!(ep0.clock().now() >= before + stall_floor);
    }

    #[test]
    fn notify_overflow_recovers_when_consumer_drains() {
        let f = Fabric::new(2, 1, CostModel::default());
        f.set_notify_depth(2);
        let ep0 = Endpoint::new(f.clone(), 0);
        let ep1 = Endpoint::new(f.clone(), 1);
        ep0.notify_append(1, 1, 0).unwrap();
        ep0.notify_append(1, 2, 0).unwrap();
        // Drain one slot from the consumer side, then the stalled append
        // succeeds on retry (single-threaded here: drain first).
        assert_eq!(ep1.notify_pop().unwrap().tag, 1);
        ep0.notify_append(1, 3, 0).unwrap();
        assert_eq!(ep1.notify_pop().unwrap().tag, 2);
        assert_eq!(ep1.notify_pop().unwrap().tag, 3);
        assert_eq!(f.counters().snapshot().notify_posts, 3);
    }

    #[test]
    fn notified_ops_stay_deterministic_under_faults() {
        use crate::faults::FaultPlan;
        let run = || {
            let plan = FaultPlan { delay_prob: 0.5, bp_prob: 0.3, ..FaultPlan::heavy(99) };
            let f = Fabric::with_config(2, 1, CostModel::default(), None, Some(plan));
            let ep0 = Endpoint::new(f.clone(), 0);
            let ep1 = Endpoint::new(f.clone(), 1);
            ep0.set_batching(true);
            let key = f.register(1, Segment::new(4096));
            let mut last = 0.0f64;
            for round in 0..20usize {
                for i in 0..4 {
                    ep0.put_implicit(key, round * 64 + i * 8, &[i as u8; 8]).unwrap();
                }
                ep0.put_notified(key, round * 64 + 32, &[7u8; 8], round as u32).unwrap();
                let rec = ep1.notify_pop().expect("in-order single-threaded delivery");
                assert_eq!(rec.tag, round as u32);
                assert!(rec.stamp >= last, "stamps toward one target are monotonic");
                last = rec.stamp;
            }
            (ep0.clock().now(), ep1.clock().now(), f.faults().total_injected())
        };
        let (a0, a1, ai) = run();
        let (b0, b1, bi) = run();
        assert_eq!(a0.to_bits(), b0.to_bits());
        assert_eq!(a1.to_bits(), b1.to_bits());
        assert_eq!(ai, bi);
        assert!(ai > 0, "the armed plan must inject");
    }

    #[test]
    fn drop_all_counts_unconsumed_records() {
        let (f, ep0, ep1, key) = setup();
        ep0.put_notified(key, 0, &[1u8; 8], 1).unwrap();
        ep0.put_notified(key, 8, &[2u8; 8], 2).unwrap();
        assert_eq!(ep1.notify_backlog(), 2);
        assert_eq!(ep1.notify_drop_all(), 2);
        assert_eq!(ep1.notify_backlog(), 0);
        let c = f.counters().snapshot();
        assert_eq!(c.notify_dropped, 2);
        assert_eq!(c.notify_consumed, 0, "dropped records are not consumed");
    }

    #[test]
    fn counters_track_ops() {
        let (f, ep0, _ep1, key) = setup();
        let before = f.counters().snapshot();
        ep0.put(key, 0, &[0u8; 100]).unwrap();
        let mut buf = [0u8; 50];
        ep0.get(key, 0, &mut buf).unwrap();
        ep0.amo(key, 0, AmoOp::Add, 1, 0).unwrap();
        let d = f.counters().snapshot().since(&before);
        assert_eq!((d.puts, d.gets, d.amos), (1, 1, 1));
        assert_eq!((d.bytes_put, d.bytes_get), (100, 50));
    }

    #[test]
    fn concurrent_issuers_count_exactly() {
        const P: usize = 4;
        const N: u64 = 2_000;
        let f = Fabric::new(P, 1, CostModel::default());
        let keys: Vec<_> = (0..P as u32).map(|r| f.register(r, Segment::new(4096))).collect();
        let before = f.counters().snapshot();
        std::thread::scope(|s| {
            // Two endpoints per rank: counts must stay exact when
            // endpoints share a rank's block.
            for t in 0..2 * P {
                let (f, keys) = (f.clone(), &keys);
                s.spawn(move || {
                    let r = (t % P) as u32;
                    let ep = Endpoint::new(f, r);
                    let target = keys[(t + 1) % P];
                    for i in 0..N as usize {
                        ep.put_implicit(target, (i % 64) * 8, &[r as u8; 8]).unwrap();
                        ep.amo(target, 1024, AmoOp::Add, 1, 0).unwrap();
                    }
                    ep.gsync();
                });
            }
        });
        let d = f.counters().snapshot().since(&before);
        let n = 2 * P as u64 * N;
        assert_eq!((d.puts, d.bytes_put, d.amos, d.bytes_amo), (n, 8 * n, n, 8 * n));
        assert_eq!((d.gets, d.gsyncs), (0, 2 * P as u64));
        for r in 0..P as u32 {
            let b = f.counters().rank(r).snapshot();
            assert_eq!((b.puts, b.amos), (2 * N, 2 * N), "rank {r}'s block");
        }
    }
}
