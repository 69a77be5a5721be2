//! Fortran 2008 coarray baseline.
//!
//! The paper's CAF microbenchmark is a remote array assignment
//! `buf(1:n)[img] = buf(1:n)` followed by `sync memory` — a put plus a
//! completion fence. Cray's CAF runtime rides the same DMAPP layer with a
//! still-heavier compiler path than UPC (Figure 4a inset).

use crate::PgasCosts;
use fompi_fabric::{SegKey, Segment};
use fompi_runtime::RankCtx;
use std::rc::Rc;
use std::sync::Arc;

/// A coarray of `len` bytes per image.
pub struct Coarray {
    ep: Rc<fompi_fabric::Endpoint>,
    coll: Arc<fompi_runtime::CollEngine>,
    id: u64,
    costs: PgasCosts,
    len: usize,
}

impl Coarray {
    /// Collective allocation (coarrays are symmetric by construction).
    pub fn new(ctx: &RankCtx, len: usize) -> Coarray {
        let seg = Segment::new(len.max(8));
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
        Coarray {
            ep: ctx.ep_rc(),
            coll: ctx.coll_arc(),
            id,
            costs: PgasCosts::default(),
            len: len.max(8),
        }
    }

    fn key(&self, image: u32) -> SegKey {
        SegKey { rank: image, id: self.id }
    }

    /// Bytes per image.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remote assignment `a(off:off+n)[image] = src` (relaxed; completed by
    /// [`Coarray::sync_memory`]).
    pub fn put(&self, image: u32, off: usize, src: &[u8]) {
        self.ep.charge(self.costs.caf_op_ns);
        self.ep.put_implicit(self.key(image), off, src).expect("coarray put out of bounds");
    }

    /// Remote read `dst = a(off:off+n)[image]` (blocking, like a coindexed
    /// RHS reference).
    pub fn get(&self, dst: &mut [u8], image: u32, off: usize) {
        self.ep.charge(self.costs.caf_op_ns);
        self.ep.get(self.key(image), off, dst).expect("coarray get out of bounds");
    }

    /// `sync memory`: completion of all outstanding coarray accesses.
    pub fn sync_memory(&self) {
        self.ep.charge(self.costs.caf_op_ns * 0.5);
        self.ep.gsync();
        self.ep.mfence();
    }

    /// `sync all`: global image barrier + memory sync.
    pub fn sync_all(&self) {
        self.sync_memory();
        self.ep.charge(self.costs.barrier_extra_ns);
        self.coll.barrier(&self.ep);
    }

    /// Local read.
    pub fn read_local(&self, off: usize, dst: &mut [u8]) {
        self.ep.segment(self.key(self.ep.rank())).expect("own image").read(off, dst);
    }

    /// Local write.
    pub fn write_local(&self, off: usize, src: &[u8]) {
        self.ep.segment(self.key(self.ep.rank())).expect("own image").write(off, src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_runtime::Universe;

    #[test]
    fn remote_assignment_roundtrip() {
        let got = Universe::new(3).node_size(1).run(|ctx| {
            let a = Coarray::new(ctx, 32);
            let next = (ctx.rank() + 1) % 3;
            a.put(next, 0, &[ctx.rank() as u8 + 9; 8]);
            a.sync_all();
            let mut b = [0u8; 8];
            a.read_local(0, &mut b);
            b[0]
        });
        assert_eq!(got, vec![11, 9, 10]);
    }

    #[test]
    fn caf_put_costs_more_than_upc_put() {
        let caf = Universe::new(2).node_size(1).run(|ctx| {
            let a = Coarray::new(ctx, 32);
            let t0 = ctx.now();
            a.put(1, 0, &[1u8; 8]);
            a.sync_memory();
            ctx.now() - t0
        })[0];
        let upc = Universe::new(2).node_size(1).run(|ctx| {
            let a = crate::SharedArray::all_alloc(ctx, 32);
            let t0 = ctx.now();
            a.memput(1, 0, &[1u8; 8]);
            a.fence();
            ctx.now() - t0
        })[0];
        assert!(caf > upc, "CAF {caf} should exceed UPC {upc}");
    }
}
