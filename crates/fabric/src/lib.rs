//! # fompi-fabric — a software RDMA fabric
//!
//! This crate is the hardware substitute for the foMPI paper's two low-level
//! transports:
//!
//! * **DMAPP** (Cray Gemini/Aries user-level RDMA): remote put/get and a
//!   small set of 8-byte atomic memory operations (AMOs), each available in
//!   *blocking*, *explicit nonblocking* (returns a [`NbHandle`]) and
//!   *implicit nonblocking* (completed in bulk by [`Endpoint::gsync`])
//!   flavours — exactly the DMAPP completion taxonomy described in §2.1 of
//!   the paper.
//! * **XPMEM** (Linux kernel module mapping remote process memory): ranks in
//!   this simulation are threads of one address space, so an "attached"
//!   segment is simply a direct view ([`xpmem::MappedView`]) on which loads,
//!   stores and CPU atomics operate.
//!
//! Data movement is **real** — a put genuinely deposits bytes into the
//! target's registered segment, AMOs use genuine CPU atomics, so all
//! protocol code built on top is exercised for correctness. Time, however,
//! is **virtual**: every operation advances the origin rank's
//! [`clock::Clock`] according to a calibrated LogGP-style
//! [`cost::CostModel`] whose default constants come from the
//! paper's measured performance functions (Pput = 0.16 ns/B + 1 µs, etc.).
//! Synchronisation words carry companion timestamps ([`clock::StampCell`])
//! so that a rank blocking on a remote event observes
//! `max(own clock, writer clock + latency)` — a conservative Lamport scheme
//! that preserves the *shape* of the paper's latency figures without the
//! actual Cray.
//!
//! ## Memory safety
//!
//! Registered segments are concurrently read and written by many threads
//! with no locks, as RDMA hardware would. [`segment::Segment`] therefore
//! stores bytes in atomic cells (see its module docs for the exact aliasing
//! rules); races yield nondeterministic *values* — an application-level MPI
//! error — but never undefined behaviour.

pub mod amo;
pub mod batch;
pub mod clock;
pub mod cost;
pub mod counters;
pub mod endpoint;
pub mod error;
pub mod faults;
pub mod mc;
pub mod metrics;
pub mod notify;
pub mod profile;
pub mod rng;
pub mod segcache;
pub mod segment;
pub mod shadow;
pub mod shim;
pub mod stripes;
pub mod telemetry;
pub mod topology;
pub mod xpmem;

pub use amo::AmoOp;
pub use batch::{Burst, BurstKind};
pub use clock::{Clock, StampCell};
pub use cost::{CostModel, Transport};
pub use counters::{CounterSnapshot, Counters, RankCounters};
pub use endpoint::{Endpoint, NbHandle};
pub use error::FabricError;
pub use faults::{FaultKind, FaultParseError, FaultPlan, Faults};
pub use mc::{McGate, McObj, McOp};
pub use metrics::{snapshot as metrics_snapshot, MetricsSnapshot};
pub use notify::{notify_match, NotifyHub, NotifyQueue, NotifyRecord, NOTIFY_ANY};
pub use profile::{ProfileMode, Profiler};
pub use segcache::SegRef;
pub use segment::{SegKey, Segment};
pub use shadow::{
    kinds_commute, AccessKind, AccessRecord, LockCtx, RaceClass, RaceViolation, RacecheckMode,
    Shadow, ACC_NOOP,
};
pub use stripes::{StripedHorizon, STRIPE_COUNT};
pub use telemetry::Telemetry;
pub use topology::Topology;

use shim::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The fabric: the shared "network + NIC registry" that all ranks attach to.
///
/// Holds the table of registered memory segments (the RDMA *memory
/// registration* state), the cost model, the node topology and the per-rank
/// operation counters. One `Fabric` is shared (via `Arc`) by every rank of a
/// job; per-rank state lives in [`Endpoint`].
///
/// Nothing here is written on the steady-state op path: endpoints resolve
/// keys through their own segment cache (validated by [`Fabric::epoch`])
/// and count into their rank's own [`RankCounters`] block.
pub struct Fabric {
    model: CostModel,
    topo: Topology,
    segs: RwLock<HashMap<SegKey, Arc<Segment>>>,
    epoch: RegistryEpoch,
    next_id: AtomicU64,
    counters: Counters,
    telemetry: Telemetry,
    faults: Faults,
    batch_default: AtomicBool,
    notify: NotifyHub,
    shadow: Shadow,
    profiler: Profiler,
    metrics_on: AtomicBool,
    txn_retry: RwLock<Option<String>>,
    rmc: RwLock<Option<String>>,
    mc: RwLock<Option<Arc<dyn mc::McGate>>>,
    mc_armed: AtomicBool,
}

impl Fabric {
    /// Create a fabric for `p` ranks grouped `node_size` per node with the
    /// given cost model. Telemetry is configured from the environment
    /// (`FOMPI_TELEMETRY`, off by default — see [`telemetry`]); fault
    /// injection likewise (`FOMPI_FAULTS`, off by default — see [`faults`]).
    pub fn new(p: usize, node_size: usize, model: CostModel) -> Arc<Self> {
        Self::build(p, node_size, model, Telemetry::from_env(p), Faults::from_env(p))
    }

    /// Like [`Fabric::new`], but with tracing telemetry enabled
    /// programmatically: `ring_cap` events retained per rank.
    pub fn new_traced(p: usize, node_size: usize, model: CostModel, ring_cap: usize) -> Arc<Self> {
        Self::build(
            p,
            node_size,
            model,
            Telemetry::with_capacity(p, true, ring_cap),
            Faults::from_env(p),
        )
    }

    /// Fully-configured constructor: programmatic fault plan, optional
    /// tracing (`ring_cap` events per rank when `Some`). The runtime's
    /// `Universe` builder funnels through here.
    pub fn with_config(
        p: usize,
        node_size: usize,
        model: CostModel,
        ring_cap: Option<usize>,
        plan: Option<FaultPlan>,
    ) -> Arc<Self> {
        let telemetry = match ring_cap {
            Some(cap) => Telemetry::with_capacity(p, true, cap),
            None => Telemetry::from_env(p),
        };
        let faults = match plan {
            Some(plan) => Faults::new(p, plan),
            None => Faults::from_env(p),
        };
        Self::build(p, node_size, model, telemetry, faults)
    }

    fn build(
        p: usize,
        node_size: usize,
        model: CostModel,
        telemetry: Telemetry,
        faults: Faults,
    ) -> Arc<Self> {
        // `FOMPI_METRICS` arms the metrics plane; it needs the telemetry
        // aggregates (histograms feed the quantiles), so it also enables
        // them — the event rings stay at whatever capacity was chosen.
        let metrics_on = metrics_from_env();
        if metrics_on {
            telemetry.set_enabled(true);
        }
        // A profiling run arms the flight recorder: a crash mid-profile
        // should dump its last-N window.
        let profiler = Profiler::from_env();
        if profiler.mode() != ProfileMode::Off {
            telemetry.set_flight(true);
        }
        Arc::new(Self {
            model,
            topo: Topology::new(p, node_size),
            segs: RwLock::new(HashMap::new()),
            epoch: RegistryEpoch(AtomicU64::new(0)),
            next_id: AtomicU64::new(1),
            counters: Counters::new(p),
            telemetry,
            faults,
            batch_default: AtomicBool::new(batch_from_env()),
            notify: NotifyHub::new(p, notify::depth_from_env()),
            shadow: Shadow::from_env(p),
            profiler,
            metrics_on: AtomicBool::new(metrics_on),
            txn_retry: RwLock::new(txn_retry_from_env()),
            rmc: RwLock::new(rmc_from_env()),
            mc: RwLock::new(None),
            mc_armed: AtomicBool::new(false),
        })
    }

    /// The cost model in force.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Node topology (rank → node mapping).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Operation counters (for scalability assertions in tests): one block
    /// per rank, summed by [`Counters::snapshot`].
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The telemetry hub (tracing, histograms, attribution).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The fault-injection hub (inert unless a plan is armed).
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// The wall-clock profiler (inert — one relaxed load per op — unless
    /// `FOMPI_PROFILE` or [`Fabric::set_profile`] arms it).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Set the profiling mode programmatically. Launch-time configuration
    /// only — the runtime's `Universe::profile` funnels through here,
    /// mirroring [`Fabric::set_batch_default`]. Arming also arms the
    /// telemetry flight recorder.
    pub fn set_profile(&self, mode: ProfileMode) {
        self.profiler.set_mode(mode);
        if mode != ProfileMode::Off {
            self.telemetry.set_flight(true);
        }
    }

    /// Is the metrics plane armed (`FOMPI_METRICS` /
    /// [`Fabric::set_metrics`])? Advisory: [`metrics::snapshot`] works
    /// regardless, but only an armed run has populated histograms.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics_on.load(Ordering::Relaxed)
    }

    /// Arm the metrics plane programmatically (enables the telemetry
    /// aggregates it feeds on). Launch-time configuration only — the
    /// runtime's `Universe::metrics` funnels through here.
    pub fn set_metrics(&self, on: bool) {
        self.metrics_on.store(on, Ordering::Relaxed);
        if on {
            self.telemetry.set_enabled(true);
        }
    }

    /// Whether endpoints created from now on start with issue-side batching
    /// enabled (see [`batch`]). Defaults to `FOMPI_BATCH` (off when unset);
    /// each [`Endpoint`] snapshots this at creation and can still toggle
    /// itself with [`Endpoint::set_batching`].
    pub fn batch_default(&self) -> bool {
        self.batch_default.load(Ordering::Relaxed)
    }

    /// Set the batching default for endpoints created after this call.
    pub fn set_batch_default(&self, on: bool) {
        self.batch_default.store(on, Ordering::Relaxed);
    }

    /// The notification hub: per-rank queues of notified-access records
    /// (see [`notify`]). Depth defaults to `FOMPI_NOTIFY_DEPTH`.
    pub fn notify(&self) -> &NotifyHub {
        &self.notify
    }

    /// Replace every notification ring with fresh ones of `depth` records.
    /// Launch-time configuration only (queued records are dropped) — the
    /// runtime's `Universe::notify_depth` funnels through here, mirroring
    /// [`Fabric::set_batch_default`].
    pub fn set_notify_depth(&self, depth: usize) {
        self.notify.set_depth(depth);
    }

    /// The racecheck hub (see [`shadow`]): inert — one relaxed load per
    /// op — unless `FOMPI_RACECHECK` or [`Fabric::set_racecheck`] arms it.
    pub fn shadow(&self) -> &Shadow {
        &self.shadow
    }

    /// Set the racecheck mode programmatically. Launch-time configuration
    /// only — the runtime's `Universe::racecheck` funnels through here,
    /// mirroring [`Fabric::set_batch_default`].
    pub fn set_racecheck(&self, mode: RacecheckMode) {
        self.shadow.set_mode(mode);
    }

    /// The transaction retry-policy spec in force (`FOMPI_TXN_RETRY` /
    /// [`Fabric::set_txn_retry`]), if any. The fabric only carries the
    /// string — the `fompi-txn` layer owns the grammar and parses it at
    /// policy-construction time.
    pub fn txn_retry(&self) -> Option<String> {
        self.txn_retry.read().clone()
    }

    /// Set the transaction retry-policy spec programmatically. Launch-time
    /// configuration only — the runtime's `Universe::txn_retry` funnels
    /// through here, mirroring [`Fabric::set_batch_default`].
    pub fn set_txn_retry(&self, spec: &str) {
        *self.txn_retry.write() = Some(spec.to_string());
    }

    /// The remote-memory-channel tuning spec in force (`FOMPI_RMC` /
    /// [`Fabric::set_rmc`]), if any. The fabric only carries the string —
    /// the `fompi-rmc` layer owns the grammar and parses it at
    /// channel-construction time.
    pub fn rmc(&self) -> Option<String> {
        self.rmc.read().clone()
    }

    /// Set the remote-memory-channel tuning spec programmatically.
    /// Launch-time configuration only — the runtime's `Universe::rmc`
    /// funnels through here, mirroring [`Fabric::set_txn_retry`].
    pub fn set_rmc(&self, spec: &str) {
        *self.rmc.write() = Some(spec.to_string());
    }

    /// Is a model-checker gate installed? One relaxed load — the entire
    /// ungated hot path (mirrors [`Shadow::active`]).
    #[inline]
    pub fn mc_armed(&self) -> bool {
        self.mc_armed.load(Ordering::Relaxed)
    }

    /// The installed model-checker gate, if any (see [`mc`]).
    pub fn mc_gate(&self) -> Option<Arc<dyn mc::McGate>> {
        self.mc.read().clone()
    }

    /// Install a model-checker gate. Launch-time configuration only —
    /// the runtime's `Universe::mc_gate` funnels through here, mirroring
    /// [`Fabric::set_racecheck`]. Once armed, every endpoint serializes
    /// its shared-state operations through the gate.
    pub fn set_mc_gate(&self, gate: Arc<dyn mc::McGate>) {
        *self.mc.write() = Some(gate);
        self.mc_armed.store(true, Ordering::Relaxed);
    }

    /// Register `seg` for remote access by rank `rank`. Returns the key
    /// remote peers use to address it — the analogue of the DMAPP
    /// registration descriptor.
    pub fn register(&self, rank: u32, seg: Arc<Segment>) -> SegKey {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let key = SegKey { rank, id };
        self.segs.write().insert(key, seg);
        key
    }

    /// Fallible registration: like [`Fabric::register`] but subject to
    /// transient [`FabricError::SegmentBusy`] failures under an armed
    /// fault plan — the realistic NIC behaviour the dynamic-window attach
    /// path must retry around (registration resources are finite on real
    /// hardware). Infallible when faults are disabled.
    pub fn try_register(&self, rank: u32, seg: Arc<Segment>) -> Result<SegKey, FabricError> {
        if let Some(retry_after_ns) = self.faults.draw_busy(rank) {
            return Err(FabricError::SegmentBusy { retry_after_ns });
        }
        Ok(self.register(rank, seg))
    }

    /// Register `seg` under a caller-chosen id (the *symmetric heap*
    /// protocol of §2.2: all ranks of a window agree on one id so remote
    /// descriptors need O(1) storage). Fails if the id is taken on this
    /// rank, mirroring the paper's mmap-retry loop.
    pub fn register_symmetric(
        &self,
        rank: u32,
        id: u64,
        seg: Arc<Segment>,
    ) -> Result<SegKey, FabricError> {
        let key = SegKey { rank, id };
        let mut segs = self.segs.write();
        if segs.contains_key(&key) {
            return Err(FabricError::KeyTaken(key));
        }
        segs.insert(key, seg);
        Ok(key)
    }

    /// Draw a fresh id from the global id space (used as the "random
    /// address" proposed by the symmetric-allocation leader).
    pub fn propose_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Deregister a segment. Remote accesses after this fail: the registry
    /// epoch advances, so every endpoint's segment cache drops its entries
    /// before its next op.
    pub fn deregister(&self, key: SegKey) {
        self.segs.write().remove(&key);
        // After the removal: a cache refilled under the new epoch can only
        // see the registry without `key`.
        self.epoch.0.fetch_add(1, Ordering::Release);
    }

    /// The registry epoch: advanced by every [`Fabric::deregister`]. A
    /// cached key→segment mapping filled under epoch `e` is valid while
    /// the epoch still reads `e` (registration never invalidates one: it
    /// only adds keys). One acquire load of a line written only on
    /// deregistration.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.0.load(Ordering::Acquire)
    }

    /// Resolve a key to its segment through the shared registry (what the
    /// NIC does on a translation miss; endpoints cache the result).
    pub fn resolve(&self, key: SegKey) -> Result<Arc<Segment>, FabricError> {
        self.segs.read().get(&key).cloned().ok_or(FabricError::UnknownKey(key))
    }

    /// Number of ranks in the job.
    pub fn num_ranks(&self) -> usize {
        self.topo.num_ranks()
    }

    /// Which transport connects `a` and `b`.
    pub fn transport(&self, a: u32, b: u32) -> Transport {
        if self.topo.same_node(a, b) {
            Transport::Xpmem
        } else {
            Transport::Dmapp
        }
    }
}

/// The registry epoch, alone on its cache lines so the per-op load never
/// shares a line with anything written.
#[repr(align(128))]
struct RegistryEpoch(AtomicU64);

/// `FOMPI_BATCH` switch: `1`/`true`/`on` arms issue-side batching for every
/// endpoint of fabrics built afterwards.
fn batch_from_env() -> bool {
    matches!(
        std::env::var("FOMPI_BATCH").as_deref().map(str::trim),
        Ok("1") | Ok("true") | Ok("on")
    )
}

/// `FOMPI_TXN_RETRY` carrier: the raw retry-policy spec for the
/// `fompi-txn` layer (grammar documented there; e.g. `immediate:16` or
/// `backoff:64:400:100000`). Parsed lazily by the consumer so the fabric
/// stays ignorant of transaction semantics.
fn txn_retry_from_env() -> Option<String> {
    std::env::var("FOMPI_TXN_RETRY").ok().map(|s| s.trim().to_string()).filter(|s| !s.is_empty())
}

/// `FOMPI_RMC` carrier: the raw remote-memory-channel tuning spec for the
/// `fompi-rmc` layer (grammar documented there; e.g.
/// `slots=8,slot_bytes=256,lagging=drop,rpc_budget=4,rpc_timeout_ns=2000000`).
/// Parsed lazily by the consumer so the fabric stays ignorant of channel
/// semantics.
fn rmc_from_env() -> Option<String> {
    std::env::var("FOMPI_RMC").ok().map(|s| s.trim().to_string()).filter(|s| !s.is_empty())
}

/// `FOMPI_METRICS` switch: `1`/`true`/`on` arms the metrics plane (and the
/// telemetry aggregates it is computed from).
fn metrics_from_env() -> bool {
    matches!(
        std::env::var("FOMPI_METRICS").as_deref().map(str::trim),
        Ok("1") | Ok("true") | Ok("on")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_resolve_roundtrip() {
        let f = Fabric::new(4, 2, CostModel::default());
        let seg = Segment::new(128);
        let key = f.register(0, seg.clone());
        assert_eq!(key.rank, 0);
        let got = f.resolve(key).unwrap();
        assert!(Arc::ptr_eq(&seg, &got));
    }

    #[test]
    fn deregister_invalidates() {
        let f = Fabric::new(2, 1, CostModel::default());
        let key = f.register(1, Segment::new(8));
        f.deregister(key);
        assert!(matches!(f.resolve(key), Err(FabricError::UnknownKey(_))));
    }

    #[test]
    fn symmetric_registration_conflicts() {
        let f = Fabric::new(2, 2, CostModel::default());
        let id = f.propose_id();
        assert!(f.register_symmetric(0, id, Segment::new(8)).is_ok());
        // Same id on the same rank collides (forces the retry loop)...
        assert!(f.register_symmetric(0, id, Segment::new(8)).is_err());
        // ...but the same id on a different rank is the whole point.
        assert!(f.register_symmetric(1, id, Segment::new(8)).is_ok());
    }

    #[test]
    fn try_register_is_infallible_without_faults() {
        let f = Fabric::new(2, 1, CostModel::default());
        for _ in 0..100 {
            assert!(f.try_register(0, Segment::new(8)).is_ok());
        }
    }

    #[test]
    fn try_register_surfaces_transient_busy() {
        let plan = FaultPlan { busy_prob: 1.0, ..FaultPlan::heavy(13) };
        let f = Fabric::with_config(2, 1, CostModel::default(), None, Some(plan));
        match f.try_register(0, Segment::new(8)) {
            Err(FabricError::SegmentBusy { retry_after_ns }) => assert!(retry_after_ns > 0),
            other => panic!("expected SegmentBusy, got {other:?}"),
        }
    }

    #[test]
    fn transport_selection_follows_nodes() {
        let f = Fabric::new(8, 4, CostModel::default());
        assert_eq!(f.transport(0, 3), Transport::Xpmem);
        assert_eq!(f.transport(0, 4), Transport::Dmapp);
        assert_eq!(f.transport(5, 7), Transport::Xpmem);
    }
}
