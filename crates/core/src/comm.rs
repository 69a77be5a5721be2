//! Communication functions: put, get, accumulate and friends (§2.4).
//!
//! These "map nearly directly to low-level hardware functions":
//!
//! * [`Win::put`]/[`Win::get`] issue one implicit-nonblocking fabric op per
//!   contiguous block (one op total on the tuned contiguous fast path,
//!   adding only the paper's 173-instruction overhead), completed by the
//!   next flush/fence/complete;
//! * [`Win::accumulate`] uses per-element hardware AMOs when DMAPP
//!   accelerates the (op, type) pair, otherwise the bufferless
//!   lock-get-accumulate-put fallback that avoids any receiver involvement
//!   in true passive mode;
//! * [`Win::fetch_and_op`]/[`Win::compare_and_swap`] are the fine-grained
//!   single-element specialisations.

use crate::dtype::{zip_blocks, DataType};
use crate::error::{FompiError, Result};
use crate::meta::off;
use crate::op::{MpiOp, NumKind};
use crate::perf::overhead;
use crate::racecheck::{acc_tag, ACC_CAS};
use crate::request::Request;
use crate::win::Win;
use fompi_fabric::shadow::AccessKind;
use fompi_fabric::AmoOp;

impl Win {
    // ------------------------------------------------------------- put/get

    /// MPI_Put of contiguous bytes. Completes at the next synchronisation
    /// (flush/unlock/fence/complete) — "bulk completion".
    pub fn put(&self, origin: &[u8], target: u32, target_disp: usize) -> Result<()> {
        self.check_access(target)?;
        self.ep.charge(overhead::put_get_ns());
        let rc = self.rc_start();
        let (key, off) = self.target_span(target, target_disp, origin.len())?;
        self.ep.put_implicit(key, off, origin)?;
        if let Some(t0) = rc {
            self.rc_remote(
                t0,
                target,
                self.rc_base(target_disp, off),
                origin.len(),
                AccessKind::Put,
            );
        }
        Ok(())
    }

    /// MPI_Get of contiguous bytes. The destination holds valid data after
    /// the next synchronisation.
    pub fn get(&self, dst: &mut [u8], target: u32, target_disp: usize) -> Result<()> {
        self.check_access(target)?;
        self.ep.charge(overhead::put_get_ns());
        let rc = self.rc_start();
        let (key, off) = self.target_span(target, target_disp, dst.len())?;
        self.ep.get_implicit(key, off, dst)?;
        if let Some(t0) = rc {
            self.rc_remote(t0, target, self.rc_base(target_disp, off), dst.len(), AccessKind::Get);
        }
        Ok(())
    }

    /// Request-based put (MPI_Rput): returns a [`Request`] for fine-grained
    /// completion. Injection-queue backpressure (a transient refusal under
    /// an armed fault plan — nothing was issued) is retried here with the
    /// hinted backoff: MPI semantics permit it because an unissued op has
    /// no ordering footprint.
    pub fn rput(&self, origin: &[u8], target: u32, target_disp: usize) -> Result<Request> {
        self.check_access(target)?;
        self.ep.charge(overhead::put_get_ns());
        let rc = self.rc_start();
        let (key, off) = self.target_span(target, target_disp, origin.len())?;
        let h = self.retry_backpressure(|| self.ep.put_nb(key, off, origin))?;
        if let Some(t0) = rc {
            self.rc_remote(
                t0,
                target,
                self.rc_base(target_disp, off),
                origin.len(),
                AccessKind::Put,
            );
        }
        Ok(Request::new(self.ep.clone(), h))
    }

    /// Request-based get (MPI_Rget). Backpressure is retried as in
    /// [`Win::rput`].
    pub fn rget(&self, dst: &mut [u8], target: u32, target_disp: usize) -> Result<Request> {
        self.check_access(target)?;
        self.ep.charge(overhead::put_get_ns());
        let rc = self.rc_start();
        let (key, off) = self.target_span(target, target_disp, dst.len())?;
        let h = self.retry_backpressure(|| self.ep.get_nb(key, off, &mut *dst))?;
        if let Some(t0) = rc {
            self.rc_remote(t0, target, self.rc_base(target_disp, off), dst.len(), AccessKind::Get);
        }
        Ok(Request::new(self.ep.clone(), h))
    }

    /// Bounded retry around an explicit-nonblocking issue that may be
    /// refused with [`fompi_fabric::FabricError::Backpressure`]. Each
    /// retry charges the hinted backoff to virtual time.
    fn retry_backpressure<T>(
        &self,
        mut issue: impl FnMut() -> std::result::Result<T, fompi_fabric::FabricError>,
    ) -> Result<T> {
        let mut attempt = 0u32;
        loop {
            match issue() {
                Ok(v) => return Ok(v),
                Err(fompi_fabric::FabricError::Backpressure { retry_after_ns })
                    if attempt < crate::dynamic::ATTACH_RETRY_LIMIT =>
                {
                    attempt += 1;
                    self.ep.charge(crate::dynamic::busy_backoff_ns(retry_after_ns, attempt));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Datatyped MPI_Put: origin laid out as `origin_count × origin_ty`
    /// within `origin`, target as `target_count × target_ty` at
    /// `target_disp`. Split into the minimal number of contiguous blocks
    /// (§2.4, MPITypes) with one fabric op each.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI datatype signature
    pub fn put_typed(
        &self,
        origin: &[u8],
        origin_count: usize,
        origin_ty: &DataType,
        target: u32,
        target_disp: usize,
        target_count: usize,
        target_ty: &DataType,
    ) -> Result<()> {
        self.check_access(target)?;
        self.ep.charge(overhead::put_get_ns());
        let ob = origin_ty.flatten(origin_count);
        let tb = target_ty.flatten(target_count);
        let span = target_ty.extent() * target_count;
        let rc = self.rc_start();
        let (key, base) = self.target_span(target, target_disp, span.max(1))?;
        let rc_base = self.rc_base(target_disp, base);
        for (oo, to, len) in zip_blocks(&ob, &tb)? {
            self.ep.put_implicit(key, base + to, &origin[oo..oo + len])?;
            if let Some(t0) = rc {
                self.rc_remote(t0, target, rc_base + to, len, AccessKind::Put);
            }
        }
        Ok(())
    }

    /// Datatyped MPI_Get.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI datatype signature
    pub fn get_typed(
        &self,
        dst: &mut [u8],
        origin_count: usize,
        origin_ty: &DataType,
        target: u32,
        target_disp: usize,
        target_count: usize,
        target_ty: &DataType,
    ) -> Result<()> {
        self.check_access(target)?;
        self.ep.charge(overhead::put_get_ns());
        let ob = origin_ty.flatten(origin_count);
        let tb = target_ty.flatten(target_count);
        let span = target_ty.extent() * target_count;
        let rc = self.rc_start();
        let (key, base) = self.target_span(target, target_disp, span.max(1))?;
        let rc_base = self.rc_base(target_disp, base);
        for (oo, to, len) in zip_blocks(&ob, &tb)? {
            self.ep.get_implicit(key, base + to, &mut dst[oo..oo + len])?;
            if let Some(t0) = rc {
                self.rc_remote(t0, target, rc_base + to, len, AccessKind::Get);
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------- accumulate

    /// MPI_Accumulate over contiguous elements of `kind`. Element-wise
    /// atomic with respect to other accumulates of the same kind.
    pub fn accumulate(
        &self,
        origin: &[u8],
        kind: NumKind,
        op: MpiOp,
        target: u32,
        target_disp: usize,
    ) -> Result<()> {
        self.check_access(target)?;
        let es = kind.size();
        if !origin.len().is_multiple_of(es) {
            return Err(FompiError::BadAccumulate("origin not a whole number of elements"));
        }
        let rc = self.rc_start();
        let (key, base) = self.target_span(target, target_disp, origin.len())?;
        if self.shared.cfg.hw_amo && base % 8 == 0 {
            if let Some(amo) = op.hw_amo(kind) {
                // DMAPP-accelerated path: one non-fetching AMO per element.
                for (i, chunk) in origin.chunks_exact(8).enumerate() {
                    let v = u64::from_le_bytes(chunk.try_into().unwrap());
                    self.ep.amo_implicit(key, base + i * 8, amo, v)?;
                }
                if let Some(t0) = rc {
                    let lo = self.rc_base(target_disp, base);
                    self.rc_remote(t0, target, lo, origin.len(), AccessKind::Acc(acc_tag(op)));
                }
                return Ok(());
            }
        }
        // Fallback: lock the remote window, get, accumulate locally, put
        // back — no receiver involvement (true passive mode).
        self.acc_locked(target, key, base, origin.len(), |cur| {
            let mut out = Vec::with_capacity(cur.len());
            for (t, o) in cur.chunks_exact(es).zip(origin.chunks_exact(es)) {
                out.extend_from_slice(&op.apply(kind, t, o));
            }
            Some(out)
        })?;
        if let Some(t0) = rc {
            let lo = self.rc_base(target_disp, base);
            self.rc_remote(t0, target, lo, origin.len(), AccessKind::Acc(acc_tag(op)));
        }
        Ok(())
    }

    /// Datatyped MPI_Accumulate: `op` is applied element-wise through the
    /// origin and target typemaps (signatures must match in total
    /// elements). Always uses the lock-fallback path — the atomicity unit
    /// is the whole typed region, matching foMPI's fallback semantics.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI datatype signature
    pub fn accumulate_typed(
        &self,
        origin: &[u8],
        origin_count: usize,
        origin_ty: &DataType,
        kind: NumKind,
        op: MpiOp,
        target: u32,
        target_disp: usize,
        target_count: usize,
        target_ty: &DataType,
    ) -> Result<()> {
        self.check_access(target)?;
        let es = kind.size();
        let ob = origin_ty.flatten(origin_count);
        let tb = target_ty.flatten(target_count);
        let packed: Vec<u8> =
            ob.iter().flat_map(|&(o, l)| origin[o..o + l].iter().copied()).collect();
        if !packed.len().is_multiple_of(es) {
            return Err(FompiError::BadAccumulate("typemap not a whole number of elements"));
        }
        let span = target_ty.extent() * target_count;
        let rc = self.rc_start();
        let (key, base) = self.target_span(target, target_disp, span.max(1))?;
        // One locked read-modify-write covering the target extent; only
        // typemap bytes are rewritten.
        self.acc_locked(target, key, base, span, |cur| {
            let mut out = cur.to_vec();
            let mut consumed = 0usize;
            for &(toff, tlen) in &tb {
                let mut o = 0;
                while o < tlen {
                    let t0 = toff + o;
                    let new = op.apply(kind, &cur[t0..t0 + es], &packed[consumed..consumed + es]);
                    out[t0..t0 + es].copy_from_slice(&new);
                    consumed += es;
                    o += es;
                }
            }
            debug_assert_eq!(consumed, packed.len());
            Some(out)
        })?;
        // The fallback rewrites the whole extent (holes included), so the
        // shadow record covers it all.
        if let Some(t0) = rc {
            let lo = self.rc_base(target_disp, base);
            self.rc_remote(t0, target, lo, span, AccessKind::Acc(acc_tag(op)));
        }
        Ok(())
    }

    /// MPI_Get_accumulate: fetches the previous target contents into
    /// `result` and applies `op` with `origin`. With [`MpiOp::NoOp`] this
    /// is an atomic read.
    pub fn get_accumulate(
        &self,
        origin: &[u8],
        result: &mut [u8],
        kind: NumKind,
        op: MpiOp,
        target: u32,
        target_disp: usize,
    ) -> Result<()> {
        self.check_access(target)?;
        let es = kind.size();
        if !result.len().is_multiple_of(es) || (op != MpiOp::NoOp && origin.len() != result.len()) {
            return Err(FompiError::BadAccumulate("origin/result element mismatch"));
        }
        let rc = self.rc_start();
        let (key, base) = self.target_span(target, target_disp, result.len())?;
        // Single 8-byte element: one hardware AMO, exactly like
        // fetch_and_op (MPI defines fetch_and_op AS this case, so the two
        // must share a path and a cost). This also matters for
        // determinism: the locked fallback serialises through the
        // per-target ACC_LOCK word, so two origins reading *different*
        // cells on the same target contend and their retry backoff charges
        // schedule-dependent virtual time.
        if self.shared.cfg.hw_amo && es == 8 && result.len() == 8 && base % 8 == 0 {
            if let Some(amo) = op.hw_amo(kind) {
                let v = if op == MpiOp::NoOp {
                    0
                } else {
                    u64::from_le_bytes(origin.try_into().unwrap())
                };
                let old = self.ep.amo(key, base, amo, v, 0)?;
                result.copy_from_slice(&old.to_le_bytes());
                if let Some(t0) = rc {
                    let lo = self.rc_base(target_disp, base);
                    self.rc_remote(t0, target, lo, es, AccessKind::Acc(acc_tag(op)));
                }
                return Ok(());
            }
        }
        let old = self.acc_locked(target, key, base, result.len(), |cur| {
            if op == MpiOp::NoOp {
                return None;
            }
            let mut out = Vec::with_capacity(cur.len());
            for (t, o) in cur.chunks_exact(es).zip(origin.chunks_exact(es)) {
                out.extend_from_slice(&op.apply(kind, t, o));
            }
            Some(out)
        })?;
        result.copy_from_slice(&old);
        if let Some(t0) = rc {
            let lo = self.rc_base(target_disp, base);
            self.rc_remote(t0, target, lo, result.len(), AccessKind::Acc(acc_tag(op)));
        }
        Ok(())
    }

    /// MPI_Fetch_and_op: single-element get_accumulate, the
    /// latency-critical fine-grained call. Uses one hardware AMO whenever
    /// possible (Sum/bitwise/Replace/NoOp on 8-byte integers).
    pub fn fetch_and_op(
        &self,
        origin: &[u8],
        result: &mut [u8],
        kind: NumKind,
        op: MpiOp,
        target: u32,
        target_disp: usize,
    ) -> Result<()> {
        self.check_access(target)?;
        let es = kind.size();
        if result.len() != es {
            return Err(FompiError::BadAccumulate("fetch_and_op result must be one element"));
        }
        let rc = self.rc_start();
        let (key, base) = self.target_span(target, target_disp, es)?;
        if self.shared.cfg.hw_amo && es == 8 && base % 8 == 0 {
            if let Some(amo) = op.hw_amo(kind) {
                let v = if op == MpiOp::NoOp {
                    0
                } else {
                    u64::from_le_bytes(origin.try_into().unwrap())
                };
                let old = self.ep.amo(key, base, amo, v, 0)?;
                result.copy_from_slice(&old.to_le_bytes());
                if let Some(t0) = rc {
                    let lo = self.rc_base(target_disp, base);
                    self.rc_remote(t0, target, lo, es, AccessKind::Acc(acc_tag(op)));
                }
                return Ok(());
            }
        }
        let old = self.acc_locked(target, key, base, es, |cur| {
            (op != MpiOp::NoOp).then(|| op.apply(kind, cur, origin))
        })?;
        result.copy_from_slice(&old);
        if let Some(t0) = rc {
            let lo = self.rc_base(target_disp, base);
            self.rc_remote(t0, target, lo, es, AccessKind::Acc(acc_tag(op)));
        }
        Ok(())
    }

    /// Request-based accumulate (MPI_Raccumulate): like
    /// [`Win::accumulate`], returning a [`Request`] whose completion covers
    /// every element operation issued.
    pub fn raccumulate(
        &self,
        origin: &[u8],
        kind: NumKind,
        op: MpiOp,
        target: u32,
        target_disp: usize,
    ) -> Result<Request> {
        self.accumulate(origin, kind, op, target, target_disp)?;
        let h = fompi_fabric::NbHandle { t_complete: self.ep.pending_for(target) };
        Ok(Request::new(self.ep.clone(), h))
    }

    /// Request-based get_accumulate (MPI_Rget_accumulate). The fallback
    /// path is blocking internally, so the request completes immediately;
    /// the handle exists for API parity with the standard.
    pub fn rget_accumulate(
        &self,
        origin: &[u8],
        result: &mut [u8],
        kind: NumKind,
        op: MpiOp,
        target: u32,
        target_disp: usize,
    ) -> Result<Request> {
        self.get_accumulate(origin, result, kind, op, target, target_disp)?;
        let h = fompi_fabric::NbHandle { t_complete: self.ep.clock().now() };
        Ok(Request::new(self.ep.clone(), h))
    }

    /// MPI_Compare_and_swap on one 8-byte element. Always a hardware AMO.
    pub fn compare_and_swap(
        &self,
        desired: u64,
        compare: u64,
        target: u32,
        target_disp: usize,
    ) -> Result<u64> {
        self.check_access(target)?;
        let rc = self.rc_start();
        let (key, base) = self.target_span(target, target_disp, 8)?;
        if base % 8 != 0 {
            return Err(FompiError::BadAccumulate("CAS target must be 8-byte aligned"));
        }
        let old = self.ep.amo(key, base, AmoOp::Cas, desired, compare)?;
        if let Some(t0) = rc {
            let lo = self.rc_base(target_disp, base);
            self.rc_remote(t0, target, lo, 8, AccessKind::Acc(ACC_CAS));
        }
        Ok(old)
    }

    /// The bufferless fallback protocol (§2.4): lock the target's
    /// accumulate lock, get the current data, apply `f`, put the result
    /// back, unlock. Returns the *previous* contents. `f` returning `None`
    /// (a `NO_OP` read) writes nothing back: a put-back of the bytes just
    /// read would clobber a concurrent hardware-AMO accumulate, which never
    /// takes the accumulate lock.
    fn acc_locked(
        &self,
        target: u32,
        key: fompi_fabric::SegKey,
        base: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> Option<Vec<u8>>,
    ) -> Result<Vec<u8>> {
        let mkey = self.meta_key(target);
        let mut spins = 0u64;
        loop {
            let (old, _) = self.ep.amo_sync(mkey, off::ACC_LOCK, AmoOp::Cas, 1, 0)?;
            if old == 0 {
                break;
            }
            // A failed CAS means another origin holds the lock: under the
            // model checker, park until its release swap lands instead of
            // free-spinning (each retry is an always-enabled step, so the
            // explored spin would never terminate). Unarmed: backoff.
            if !self.ep.mc_poll_word(mkey, off::ACC_LOCK, "acc-lock", |w| w == 0) {
                spins += 1;
                crate::sync::backoff_spin(&self.ep, spins);
            }
        }
        // One causal flow ties the protocol's get→put pair together in the
        // trace (the lock CAS/unlock swap are schedule-dependent polls and
        // stay out of it).
        let prev = self.ep.flow_open();
        let r = (|| -> Result<Vec<u8>> {
            let mut cur = vec![0u8; len];
            self.ep.get(key, base, &mut cur)?;
            if let Some(new) = f(&cur) {
                debug_assert_eq!(new.len(), len);
                self.ep.put(key, base, &new)?;
            }
            Ok(cur)
        })();
        self.ep.flow_close(prev);
        self.ep.amo_sync(mkey, off::ACC_LOCK, AmoOp::Swap, 0, 0)?;
        r
    }
}
