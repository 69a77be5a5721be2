//! MPI_Win_fence — global active-target synchronisation.
//!
//! §2.3: "Our implementation uses an x86 mfence instruction (XPMEM) and
//! DMAPP bulk synchronization (gsync) followed by an MPI barrier to ensure
//! global completion. The asymptotic memory bound is O(1) and, assuming a
//! good barrier implementation, the time bound is O(log p)."

use crate::error::{FompiError, Result};
use crate::win::{AccessEpoch, ExposureEpoch, Win};
use fompi_fabric::telemetry::{EventKind, NO_TARGET};
use std::sync::atomic::Ordering;

/// Fence assertion: no RMA epoch precedes this fence.
pub const ASSERT_NOPRECEDE: u32 = 1;
/// Fence assertion: no RMA epoch follows this fence.
pub const ASSERT_NOSUCCEED: u32 = 2;
/// Fence assertion: no local stores preceded this fence.
pub const ASSERT_NOSTORE: u32 = 4;
/// Fence assertion: no puts target this process in the next epoch.
pub const ASSERT_NOPUT: u32 = 8;

impl Win {
    /// MPI_Win_fence with no assertions: closes the previous access and
    /// exposure epochs and opens the next ones for the whole window.
    pub fn fence(&self) -> Result<()> {
        self.fence_assert(0)
    }

    /// MPI_Win_fence with assertions. `ASSERT_NOPRECEDE` skips the local
    /// completion work (nothing to commit); the barrier is always needed
    /// to order the epochs.
    pub fn fence_assert(&self, assert: u32) -> Result<()> {
        {
            let st = self.state.borrow();
            if matches!(st.access, AccessEpoch::Lock | AccessEpoch::LockAll) || !st.locks.is_empty()
            {
                return Err(FompiError::InvalidEpoch("fence during passive-target epoch"));
            }
            if matches!(st.access, AccessEpoch::Pscw(_))
                || matches!(st.exposure, ExposureEpoch::Pscw(_))
            {
                return Err(FompiError::InvalidEpoch("fence during PSCW epoch"));
            }
        }
        self.trace_scope();
        let t_start = self.ep.clock().now();
        if assert & ASSERT_NOPRECEDE == 0 {
            // Commit all outstanding one-sided operations. `gsync` also
            // retires any open issue-side injection bursts first, so a
            // batched epoch closes with the same completion guarantee.
            self.ep.mfence();
            self.ep.gsync();
        }
        self.coll.barrier(&self.ep);
        let mut st = self.state.borrow_mut();
        if assert & ASSERT_NOSUCCEED != 0 {
            st.access = AccessEpoch::None;
            st.exposure = ExposureEpoch::None;
        } else {
            st.access = AccessEpoch::Fence;
            st.exposure = ExposureEpoch::Fence;
        }
        drop(st);
        self.rc_fence();
        self.ep.counters().fences.fetch_add(1, Ordering::Relaxed);
        self.ep.trace_sync(EventKind::Fence, NO_TARGET, t_start);
        Ok(())
    }
}
