//! UPC-style shared arrays.
//!
//! `shared [B] T a[N]` distributes N elements round-robin in blocks of B
//! across the threads. `upc_memput`/`upc_memget` move contiguous bytes
//! to/from one thread's chunk; Cray-specific atomics (`aadd`, `cas`) serve
//! the hashtable motif; `upc_fence` guarantees remote completion of prior
//! relaxed accesses (like `MPI_Win_flush_all`). When the Cray `defer_sync`
//! pragma applies (message-rate benchmark), puts are issued fully
//! asynchronously, identical to our implicit-nonblocking flavour.

use crate::PgasCosts;
use fompi_fabric::{AmoOp, SegKey, Segment};
use fompi_runtime::RankCtx;
use std::rc::Rc;
use std::sync::Arc;

/// A blocked shared array of `elem_bytes`-sized elements, `block_elems` per
/// thread chunk. Each thread owns one chunk (UPC's cyclic distribution with
/// block size = chunk size, the layout the paper's benchmarks use).
pub struct SharedArray {
    ep: Rc<fompi_fabric::Endpoint>,
    coll: Arc<fompi_runtime::CollEngine>,
    id: u64,
    costs: PgasCosts,
    chunk_bytes: usize,
}

impl SharedArray {
    /// Collective: allocate `chunk_bytes` on every thread
    /// (`upc_all_alloc(THREADS, chunk_bytes)`).
    pub fn all_alloc(ctx: &RankCtx, chunk_bytes: usize) -> SharedArray {
        let seg = Segment::new(chunk_bytes.max(8));
        let id = loop {
            let proposal = if ctx.rank() == 0 {
                ctx.fabric().propose_id().to_le_bytes().to_vec()
            } else {
                vec![0u8; 8]
            };
            let id = u64::from_le_bytes(ctx.bcast(0, &proposal).try_into().unwrap());
            let ok = ctx.fabric().register_symmetric(ctx.rank(), id, seg.clone()).is_ok();
            if ctx.allreduce_u64(ok as u64, |a, b| a & b) == 1 {
                break id;
            }
            if ok {
                ctx.fabric().deregister(SegKey { rank: ctx.rank(), id });
            }
        };
        ctx.barrier();
        SharedArray {
            ep: ctx.ep_rc(),
            coll: ctx.coll_arc(),
            id,
            costs: PgasCosts::default(),
            chunk_bytes: chunk_bytes.max(8),
        }
    }

    /// Collective: release every thread's chunk (`upc_all_free`). Waits
    /// for all threads first, so no access is still in flight; any access
    /// through another handle afterwards fails with an unknown key.
    pub fn free(self, ctx: &RankCtx) {
        ctx.barrier();
        ctx.fabric().deregister(self.key(ctx.rank()));
    }

    fn key(&self, thread: u32) -> SegKey {
        SegKey { rank: thread, id: self.id }
    }

    /// Bytes per thread chunk.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// `upc_memput(&a[thread][off], src, n)`: relaxed put, completed by
    /// [`SharedArray::fence`].
    pub fn memput(&self, thread: u32, off: usize, src: &[u8]) {
        self.ep.charge(self.costs.upc_op_ns);
        self.ep.put_implicit(self.key(thread), off, src).expect("upc_memput out of bounds");
    }

    /// `upc_memget(dst, &a[thread][off], n)`.
    pub fn memget(&self, dst: &mut [u8], thread: u32, off: usize) {
        self.ep.charge(self.costs.upc_op_ns);
        self.ep.get_implicit(self.key(thread), off, dst).expect("upc_memget out of bounds");
        // Blocking semantics (no defer_sync): complete now.
        self.ep.gsync();
    }

    /// Nonblocking get (`upc_memget_nb` + `defer_sync`), completed by
    /// [`SharedArray::fence`]. Used by the MILC UPC port (§4.4).
    pub fn memget_nb(&self, dst: &mut [u8], thread: u32, off: usize) {
        self.ep.charge(self.costs.upc_op_ns);
        self.ep.get_implicit(self.key(thread), off, dst).expect("upc_memget_nb out of bounds");
    }

    /// `upc_fence`: remote completion of all outstanding relaxed accesses.
    pub fn fence(&self) {
        self.ep.charge(self.costs.upc_op_ns * 0.5);
        self.ep.gsync();
        self.ep.mfence();
    }

    /// `upc_barrier`: global barrier + memory synchronisation.
    pub fn barrier(&self) {
        self.fence();
        self.ep.charge(self.costs.barrier_extra_ns);
        self.coll.barrier(&self.ep);
    }

    /// Cray UPC atomic fetch-and-add on an 8-byte slot (`_amo_afadd`).
    pub fn aadd(&self, thread: u32, off: usize, v: u64) -> u64 {
        self.ep.charge(self.costs.upc_op_ns);
        self.ep.amo(self.key(thread), off, AmoOp::Add, v, 0).expect("aadd out of bounds")
    }

    /// Cray UPC atomic compare-and-swap (`_amo_acswap`). Returns the old
    /// value.
    pub fn cas(&self, thread: u32, off: usize, desired: u64, compare: u64) -> u64 {
        self.ep.charge(self.costs.upc_op_ns);
        self.ep.amo(self.key(thread), off, AmoOp::Cas, desired, compare).expect("cas out of bounds")
    }

    /// Local chunk read.
    pub fn read_local(&self, off: usize, dst: &mut [u8]) {
        self.ep.segment(self.key(self.ep.rank())).expect("own chunk").read(off, dst);
    }

    /// Local chunk write.
    pub fn write_local(&self, off: usize, src: &[u8]) {
        self.ep.segment(self.key(self.ep.rank())).expect("own chunk").write(off, src);
    }

    /// The endpoint (clock access for benchmarks).
    pub fn ep(&self) -> &fompi_fabric::Endpoint {
        &self.ep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_runtime::Universe;

    #[test]
    fn memput_fence_memget() {
        let got = Universe::new(4).node_size(2).run(|ctx| {
            let a = SharedArray::all_alloc(ctx, 64);
            let next = (ctx.rank() + 1) % 4;
            a.memput(next, 0, &[ctx.rank() as u8 + 1; 8]);
            a.barrier();
            let mut b = [0u8; 8];
            a.read_local(0, &mut b);
            b[0]
        });
        assert_eq!(got, vec![4, 1, 2, 3]);
    }

    #[test]
    fn aadd_is_atomic_across_threads() {
        let got = Universe::new(8).node_size(4).run(|ctx| {
            let a = SharedArray::all_alloc(ctx, 16);
            for _ in 0..100 {
                a.aadd(0, 0, 1);
            }
            a.barrier();
            let mut b = [0u8; 8];
            a.read_local(0, &mut b);
            u64::from_le_bytes(b)
        });
        assert_eq!(got[0], 800);
    }

    #[test]
    fn cas_loses_and_wins() {
        let got = Universe::new(4).node_size(4).run(|ctx| {
            let a = SharedArray::all_alloc(ctx, 16);
            let old = a.cas(0, 8, ctx.rank() as u64 + 1, 0);
            a.barrier();
            old
        });
        assert_eq!(got.iter().filter(|&&o| o == 0).count(), 1);
    }

    #[test]
    fn upc_put_slower_than_raw_fabric() {
        let times = Universe::new(2).node_size(1).run(|ctx| {
            let a = SharedArray::all_alloc(ctx, 64);
            let t0 = ctx.now();
            a.memput(1, 0, &[1u8; 8]);
            a.fence();
            ctx.now() - t0
        });
        // One UPC put must cost at least the runtime overhead + DMAPP put.
        assert!(times[0] > 1_900.0, "UPC path too cheap: {}", times[0]);
    }
}
