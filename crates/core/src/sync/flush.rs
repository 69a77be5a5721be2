//! The flush family and MPI_Win_sync (§2.3).
//!
//! "foMPI's flush implementation relies on the underlying interfaces and
//! simply issues a DMAPP remote bulk completion and an x86 mfence. All
//! flush operations share the same implementation and add only 78 CPU
//! instructions to the critical path." The paper measures
//! Pflush = 76 ns and Psync = 17 ns.

use crate::error::{FompiError, Result};
use crate::perf::overhead;
use crate::win::{AccessEpoch, Win};
use fompi_fabric::telemetry::{EventKind, NO_TARGET};
use std::sync::atomic::Ordering;

impl Win {
    fn check_passive(&self, target: Option<u32>) -> Result<()> {
        let st = self.state.borrow();
        match (&st.access, target) {
            (AccessEpoch::LockAll, _) => Ok(()),
            (AccessEpoch::Lock, Some(t)) if st.locks.contains_key(&t) => Ok(()),
            (AccessEpoch::Lock, None) => Ok(()),
            _ => Err(FompiError::InvalidEpoch("flush requires a passive-target epoch")),
        }
    }

    /// MPI_Win_flush: all outstanding operations to `target` are complete
    /// at the target when this returns.
    pub fn flush(&self, target: u32) -> Result<()> {
        self.check_passive(Some(target))?;
        // `flush_target` records the Flush telemetry event at the fabric
        // layer; scope it to this window first.
        self.trace_scope();
        self.ep.charge(overhead::flush_ns());
        self.ep.flush_target(target);
        self.ep.mfence();
        self.rc_flush(Some(target));
        Ok(())
    }

    /// MPI_Win_flush_all: remote completion at every target.
    pub fn flush_all(&self) -> Result<()> {
        self.check_passive(None)?;
        self.trace_scope();
        let t_start = self.ep.clock().now();
        self.ep.charge(overhead::flush_ns());
        self.ep.gsync();
        self.ep.mfence();
        self.rc_flush(None);
        self.ep.counters().flushes.fetch_add(1, Ordering::Relaxed);
        self.ep.trace_sync(EventKind::Flush, NO_TARGET, t_start);
        Ok(())
    }

    /// MPI_Win_flush_local: local completion only — origin buffers are
    /// reusable (our fabric copies at injection, so this is pure overhead,
    /// exactly the cheap path the paper describes). With issue-side
    /// batching armed it also retires any open burst to `target` — the
    /// doorbell write that hands the coalesced descriptor to the NIC —
    /// without waiting for remote completion.
    pub fn flush_local(&self, target: u32) -> Result<()> {
        self.check_passive(Some(target))?;
        self.trace_scope();
        let t_start = self.ep.clock().now();
        self.ep.charge(overhead::flush_ns());
        self.ep.drain_target(target);
        self.rc_flush(Some(target));
        self.ep.counters().flushes.fetch_add(1, Ordering::Relaxed);
        self.ep.trace_sync(EventKind::FlushLocal, target, t_start);
        Ok(())
    }

    /// MPI_Win_flush_local_all.
    pub fn flush_local_all(&self) -> Result<()> {
        self.check_passive(None)?;
        self.trace_scope();
        let t_start = self.ep.clock().now();
        self.ep.charge(overhead::flush_ns());
        self.ep.drain_all();
        self.rc_flush(None);
        self.ep.counters().flushes.fetch_add(1, Ordering::Relaxed);
        self.ep.trace_sync(EventKind::FlushLocal, NO_TARGET, t_start);
        Ok(())
    }

    /// MPI_Win_sync: memory barrier separating private and public window
    /// copies (a no-op data-wise in the unified model; Psync = 17 ns).
    pub fn sync(&self) {
        self.trace_scope();
        let t_start = self.ep.clock().now();
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        self.ep.charge(self.ep.fabric().model().sync_ns);
        self.rc_acquire_own();
        self.ep.trace_sync(EventKind::WinSync, NO_TARGET, t_start);
    }
}
