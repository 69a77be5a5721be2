//! Passive-target lock synchronisation (§2.3, Figure 3).
//!
//! Two-level 64-bit lock hierarchy:
//!
//! * one **global** lock word at a designated *master* — high 32 bits count
//!   processes registered for exclusive locks, low 32 bits count
//!   lock_all (global shared) holders; the two halves mutually exclude;
//! * one **local** reader-writer word per rank — bit 63 is the writer bit,
//!   the low bits count shared holders.
//!
//! Costs (uncontended) match the paper: a shared lock or lock_all is one
//! remote AMO; the first exclusive lock is two AMOs (global registration +
//! local CAS), later exclusive locks by the same origin skip the global
//! step; unlock is one AMO (plus one more when the last exclusive lock
//! releases the global registration). All waiting uses exponential
//! backoff.

use crate::error::{FompiError, Result};
use crate::meta::{off, split_global, GLOBAL_EXCL_ONE, WRITER_BIT};
use crate::win::{AccessEpoch, LockType, Win};
use fompi_fabric::telemetry::{EventKind, NO_TARGET};
use fompi_fabric::AmoOp;
use std::sync::atomic::Ordering;

/// Lock assertion: the user guarantees no conflicting lock is held or
/// attempted (MPI_MODE_NOCHECK) — the acquisition protocol is skipped
/// entirely, leaving only epoch bookkeeping.
pub const ASSERT_NOCHECK: u32 = 0x10;

impl Win {
    /// MPI_Win_lock: open a passive-target access epoch toward `target`.
    pub fn lock(&self, lock_type: LockType, target: u32) -> Result<()> {
        self.lock_assert(lock_type, target, 0)
    }

    /// [`Win::lock`] with assertions. With [`ASSERT_NOCHECK`] no protocol
    /// messages are sent at all — the paper's zero-cost path for
    /// statically race-free programs.
    pub fn lock_assert(&self, lock_type: LockType, target: u32, assert: u32) -> Result<()> {
        {
            let st = self.state.borrow();
            if !matches!(st.access, AccessEpoch::None | AccessEpoch::Lock) {
                return Err(FompiError::InvalidEpoch("lock during non-passive epoch"));
            }
            if st.locks.contains_key(&target) {
                return Err(FompiError::InvalidEpoch("target already locked by this origin"));
            }
        }
        self.trace_scope();
        let t_start = self.ep.clock().now();
        if assert & ASSERT_NOCHECK != 0 {
            let mut st = self.state.borrow_mut();
            st.locks.insert(target, LockType::Shared); // unlock = 0 AMOs
            st.access = AccessEpoch::Lock;
            st.nocheck.insert(target);
            drop(st);
            self.rc_lock_acquired(Some(target));
            self.ep.counters().locks.fetch_add(1, Ordering::Relaxed);
            self.ep.trace_sync(EventKind::Lock, target, t_start);
            return Ok(());
        }
        match lock_type {
            LockType::Shared => self.lock_shared(target)?,
            LockType::Exclusive => self.lock_exclusive(target)?,
        }
        let mut st = self.state.borrow_mut();
        st.locks.insert(target, lock_type);
        st.access = AccessEpoch::Lock;
        drop(st);
        // Sample the racecheck session *after* the protocol succeeded, so
        // a blocked acquirer observes the releasing holder's epoch bump.
        self.rc_lock_acquired(Some(target));
        self.ep.counters().locks.fetch_add(1, Ordering::Relaxed);
        self.ep.trace_sync(EventKind::Lock, target, t_start);
        Ok(())
    }

    /// MPI_Win_unlock: completes all operations to `target`, then releases
    /// the lock.
    pub fn unlock(&self, target: u32) -> Result<()> {
        let lock_type = {
            let st = self.state.borrow();
            *st.locks.get(&target).ok_or(FompiError::InvalidEpoch("unlock without lock"))?
        };
        self.trace_scope();
        let t_start = self.ep.clock().now();
        // Unlock must guarantee completion at the target. `flush_target`
        // first retires any open injection burst to `target` (issue-side
        // batching), then joins that peer's completion horizon.
        self.ep.mfence();
        self.ep.flush_target(target);
        // Racecheck release edge: bump *before* the release AMOs become
        // visible, so the next acquirer samples the advanced epoch.
        self.rc_unlock(Some(target));
        if self.state.borrow_mut().nocheck.remove(&target) {
            // MPI_MODE_NOCHECK: nothing was acquired, nothing to release.
            let mut st = self.state.borrow_mut();
            st.locks.remove(&target);
            if st.locks.is_empty() {
                st.access = AccessEpoch::None;
            }
            drop(st);
            self.ep.counters().unlocks.fetch_add(1, Ordering::Relaxed);
            self.ep.trace_sync(EventKind::Unlock, target, t_start);
            return Ok(());
        }
        let lkey = self.meta_key(target);
        match lock_type {
            LockType::Shared => {
                // Releases are non-fetching AMOs: one injection, completion
                // in the background (Punlock = 0.4 µs, §3.2).
                self.ep.amo_sync_release(lkey, off::LOCAL_LOCK, AmoOp::Add, u64::MAX)?;
                // -1
            }
            LockType::Exclusive => {
                // fetch_sub(WRITER_BIT) preserves concurrent reader
                // register/back-off deltas (a swap(0) would destroy them).
                self.ep.amo_sync_release(
                    lkey,
                    off::LOCAL_LOCK,
                    AmoOp::Add,
                    WRITER_BIT.wrapping_neg(),
                )?;
                let held = self.held_excl.get() - 1;
                self.held_excl.set(held);
                if held == 0 {
                    let gkey = self.meta_key(self.shared.master);
                    self.ep.amo_sync_release(
                        gkey,
                        off::GLOBAL_LOCK,
                        AmoOp::Add,
                        GLOBAL_EXCL_ONE.wrapping_neg(),
                    )?;
                }
            }
        }
        let mut st = self.state.borrow_mut();
        st.locks.remove(&target);
        if st.locks.is_empty() {
            st.access = AccessEpoch::None;
        }
        drop(st);
        self.ep.counters().unlocks.fetch_add(1, Ordering::Relaxed);
        self.ep.trace_sync(EventKind::Unlock, target, t_start);
        Ok(())
    }

    /// MPI_Win_lock_all: shared lock on every rank — one remote AMO on the
    /// global lock (the MPI-3.0 specification does not allow an exclusive
    /// lock_all).
    pub fn lock_all(&self) -> Result<()> {
        {
            let st = self.state.borrow();
            if !matches!(st.access, AccessEpoch::None) {
                return Err(FompiError::InvalidEpoch("lock_all during open epoch"));
            }
        }
        self.trace_scope();
        let t_start = self.ep.clock().now();
        let gkey = self.meta_key(self.shared.master);
        let mut spins = 0u64;
        loop {
            let (old, _) = self.ep.amo_sync(gkey, off::GLOBAL_LOCK, AmoOp::Add, 1, 0)?;
            let (excl, _shared) = split_global(old);
            if excl == 0 {
                break;
            }
            // Back off: undo the registration and retry. Under the model
            // checker, park until the exclusive half drains (a free retry
            // would be an always-enabled step — unbounded exploration).
            self.ep.amo_sync(gkey, off::GLOBAL_LOCK, AmoOp::Add, u64::MAX, 0)?; // -1
            if !self.ep.mc_poll_word(gkey, off::GLOBAL_LOCK, "lock-all", |w| split_global(w).0 == 0)
            {
                spins += 1;
                if spins > super::SPIN_LIMIT {
                    super::spin_overflow("global lock free of exclusive holders");
                }
                super::backoff_spin(&self.ep, spins);
            }
        }
        self.state.borrow_mut().access = AccessEpoch::LockAll;
        self.rc_lock_acquired(None);
        self.ep.counters().locks.fetch_add(1, Ordering::Relaxed);
        self.ep.trace_sync(EventKind::LockAll, NO_TARGET, t_start);
        Ok(())
    }

    /// MPI_Win_unlock_all.
    pub fn unlock_all(&self) -> Result<()> {
        {
            let st = self.state.borrow();
            if !matches!(st.access, AccessEpoch::LockAll) {
                return Err(FompiError::InvalidEpoch("unlock_all without lock_all"));
            }
        }
        self.trace_scope();
        let t_start = self.ep.clock().now();
        self.ep.mfence();
        self.ep.gsync();
        self.rc_unlock(None);
        let gkey = self.meta_key(self.shared.master);
        self.ep.amo_sync_release(gkey, off::GLOBAL_LOCK, AmoOp::Add, u64::MAX)?; // -1
        self.state.borrow_mut().access = AccessEpoch::None;
        self.ep.counters().unlocks.fetch_add(1, Ordering::Relaxed);
        self.ep.trace_sync(EventKind::UnlockAll, NO_TARGET, t_start);
        Ok(())
    }

    // ----------------------------------------------------------- internals

    /// Shared lock: one fetch-and-add on the target's local lock; if a
    /// writer holds it, back off and spin-read until the writer bit clears.
    fn lock_shared(&self, target: u32) -> Result<()> {
        let lkey = self.meta_key(target);
        let mut spins = 0u64;
        loop {
            let (old, _) = self.ep.amo_sync(lkey, off::LOCAL_LOCK, AmoOp::Add, 1, 0)?;
            if old & WRITER_BIT == 0 {
                return Ok(());
            }
            self.ep.amo_sync(lkey, off::LOCAL_LOCK, AmoOp::Add, u64::MAX, 0)?; // -1
            if self.ep.mc_poll_word(lkey, off::LOCAL_LOCK, "lock-shared", |w| w & WRITER_BIT == 0) {
                // Gate-mediated wait: the writer's release wakes us.
                continue;
            }
            // Spin-read until the writer finishes.
            loop {
                spins += 1;
                if spins > super::SPIN_LIMIT {
                    super::spin_overflow("exclusive lock release");
                }
                super::backoff_spin(&self.ep, spins.min(10));
                if self.ep.read_sync(lkey, off::LOCAL_LOCK)? & WRITER_BIT == 0 {
                    break;
                }
            }
        }
    }

    /// Exclusive lock: invariant 1 registers on the global lock (skipped
    /// when this origin already holds an exclusive lock); invariant 2 CASes
    /// the target's local lock from 0 to the writer bit. If the local CAS
    /// fails while we hold no other exclusive lock, release the global
    /// registration and retry both steps (Figure 3c, Process 2).
    fn lock_exclusive(&self, target: u32) -> Result<()> {
        let gkey = self.meta_key(self.shared.master);
        let lkey = self.meta_key(target);
        let mut spins = 0u64;
        loop {
            let registered_here = if self.held_excl.get() == 0 {
                // Invariant 1: no lock_all holders.
                loop {
                    let (old, _) =
                        self.ep.amo_sync(gkey, off::GLOBAL_LOCK, AmoOp::Add, GLOBAL_EXCL_ONE, 0)?;
                    let (_excl, shared) = split_global(old);
                    if shared == 0 {
                        break;
                    }
                    self.ep.amo_sync(
                        gkey,
                        off::GLOBAL_LOCK,
                        AmoOp::Add,
                        GLOBAL_EXCL_ONE.wrapping_neg(),
                        0,
                    )?;
                    if !self.ep.mc_poll_word(gkey, off::GLOBAL_LOCK, "lock-excl-global", |w| {
                        split_global(w).1 == 0
                    }) {
                        spins += 1;
                        if spins > super::SPIN_LIMIT {
                            super::spin_overflow("global lock free of lock_all holders");
                        }
                        super::backoff_spin(&self.ep, spins);
                    }
                }
                true
            } else {
                false
            };
            // Invariant 2: acquire the local writer bit.
            let (old, _) = self.ep.amo_sync(lkey, off::LOCAL_LOCK, AmoOp::Cas, WRITER_BIT, 0)?;
            if old == 0 {
                self.held_excl.set(self.held_excl.get() + 1);
                return Ok(());
            }
            if registered_here {
                // Release the global registration while we wait, so
                // lock_all requests are not starved.
                self.ep.amo_sync(
                    gkey,
                    off::GLOBAL_LOCK,
                    AmoOp::Add,
                    GLOBAL_EXCL_ONE.wrapping_neg(),
                    0,
                )?;
            }
            if !self.ep.mc_poll_word(lkey, off::LOCAL_LOCK, "lock-excl-local", |w| w == 0) {
                spins += 1;
                if spins > super::SPIN_LIMIT {
                    super::spin_overflow("local lock release");
                }
                super::backoff_spin(&self.ep, spins);
            }
        }
    }
}
