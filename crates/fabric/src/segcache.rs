//! Per-endpoint segment cache: the NIC's translation cache.
//!
//! Resolving a [`SegKey`] through the fabric registry takes the registry's
//! read lock (a read-modify-write on one word every rank shares) and clones
//! an `Arc`, whose count is another shared line. Each [`crate::Endpoint`]
//! therefore keeps its own `SegKey → Arc<Segment>` map, filled on first
//! use and validated by the fabric's registry epoch
//! ([`crate::Fabric::epoch`]):
//!
//! * registration only adds keys, so it never invalidates an entry;
//! * [`crate::Fabric::deregister`] advances the epoch after removing the
//!   key, and an op that finds the epoch moved clears the whole map before
//!   resolving, so an access after `free`/`detach` misses and fails with
//!   [`FabricError::UnknownKey`] exactly as the registry says.
//!
//! A hit is one acquire load of a line written only on deregistration, a
//! `RefCell` flag on this rank's stack and a hash probe — nothing shared is
//! written.

use crate::error::FabricError;
use crate::segment::{SegKey, Segment};
use crate::Fabric;
use std::cell::{Cell, Ref, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Multiplicative hash for [`SegKey`]s: two words in, one multiply each.
/// Keys are trusted (drawn by the fabric), so no flooding resistance is
/// needed and SipHash would be most of a hit's cost.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
    }
}

/// A resolved segment (see [`crate::Endpoint::segment`]): borrowed from
/// the cache on a hit, owned when the cache could not hold it (first use,
/// or a lookup nested inside another borrow while the epoch moved). Hold
/// it only for the op at hand: while it lives the cache cannot be cleared.
pub struct SegRef<'a>(Inner<'a>);

enum Inner<'a> {
    Cached(Ref<'a, Segment>),
    Owned(Arc<Segment>),
}

impl Deref for SegRef<'_> {
    type Target = Segment;

    fn deref(&self) -> &Segment {
        match &self.0 {
            Inner::Cached(s) => s,
            Inner::Owned(s) => s,
        }
    }
}

/// One endpoint's translation cache (see the module docs).
pub(crate) struct SegCache {
    /// The registry epoch the entries were filled under.
    epoch: Cell<u64>,
    map: RefCell<HashMap<SegKey, Arc<Segment>, BuildHasherDefault<KeyHasher>>>,
}

impl SegCache {
    pub(crate) fn new(fabric: &Fabric) -> Self {
        Self { epoch: Cell::new(fabric.epoch()), map: RefCell::default() }
    }

    /// Resolve `key`, from the cache when its epoch is current.
    #[inline]
    pub(crate) fn get(&self, fabric: &Fabric, key: SegKey) -> Result<SegRef<'_>, FabricError> {
        let epoch = fabric.epoch();
        if epoch != self.epoch.get() {
            // A segment was deregistered somewhere: drop every entry. A
            // caller still holding a cached borrow keeps the map pinned;
            // answer from the registry until it lets go.
            let Ok(mut map) = self.map.try_borrow_mut() else {
                return fabric.resolve(key).map(|s| SegRef(Inner::Owned(s)));
            };
            map.clear();
            self.epoch.set(epoch);
        }
        if let Ok(seg) = Ref::filter_map(self.map.borrow(), |m| m.get(&key).map(|s| &**s)) {
            return Ok(SegRef(Inner::Cached(seg)));
        }
        let seg = fabric.resolve(key)?;
        if let Ok(mut map) = self.map.try_borrow_mut() {
            map.insert(key, seg.clone());
        }
        Ok(SegRef(Inner::Owned(seg)))
    }

    /// Entries currently cached (for tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use crate::amo::AmoOp;
    use crate::cost::CostModel;
    use crate::error::FabricError;
    use crate::segment::Segment;
    use crate::{Endpoint, Fabric};

    #[test]
    fn warmed_cache_misses_after_deregister() {
        let f = Fabric::new(2, 1, CostModel::default());
        let ep = Endpoint::new(f.clone(), 0);
        let key = f.register(1, Segment::new(64));
        ep.put(key, 0, &[1u8; 8]).unwrap();
        ep.put(key, 8, &[2u8; 8]).unwrap();
        assert_eq!(ep.segs.len(), 1, "the first op fills the cache");
        f.deregister(key);
        assert!(matches!(ep.put(key, 0, &[3u8; 8]), Err(FabricError::UnknownKey(k)) if k == key));
        let mut buf = [0u8; 8];
        assert!(matches!(ep.get(key, 0, &mut buf), Err(FabricError::UnknownKey(_))));
        assert!(matches!(ep.amo(key, 0, AmoOp::Add, 1, 0), Err(FabricError::UnknownKey(_))));
        assert_eq!(ep.segs.len(), 0, "the epoch bump cleared the cache");
    }

    #[test]
    fn reregistered_symmetric_id_resolves_to_the_new_segment() {
        let f = Fabric::new(2, 1, CostModel::default());
        let ep = Endpoint::new(f.clone(), 0);
        let id = f.propose_id();
        let old = Segment::new(64);
        let key = f.register_symmetric(1, id, old.clone()).unwrap();
        ep.put(key, 0, &[1u8; 8]).unwrap();
        f.deregister(key);
        let new = Segment::new(64);
        assert_eq!(f.register_symmetric(1, id, new.clone()).unwrap(), key);
        ep.put(key, 0, &[9u8; 8]).unwrap();
        let (mut a, mut b) = ([0u8; 8], [0u8; 8]);
        old.read(0, &mut a);
        new.read(0, &mut b);
        assert_eq!((a, b), ([1u8; 8], [9u8; 8]), "the put went to a stale segment");
    }

    #[test]
    fn registration_keeps_cached_entries() {
        let f = Fabric::new(2, 1, CostModel::default());
        let ep = Endpoint::new(f.clone(), 0);
        let a = f.register(1, Segment::new(64));
        ep.put(a, 0, &[1u8; 8]).unwrap();
        let b = f.register(1, Segment::new(64));
        ep.put(b, 0, &[2u8; 8]).unwrap();
        assert_eq!(ep.segs.len(), 2);
    }

    #[test]
    fn borrowed_segment_survives_a_concurrent_invalidation() {
        let f = Fabric::new(2, 1, CostModel::default());
        let ep = Endpoint::new(f.clone(), 0);
        let (a, b) = (f.register(1, Segment::new(64)), f.register(1, Segment::new(64)));
        ep.put(a, 0, &[1u8; 8]).unwrap();
        let held = ep.segment(a).unwrap();
        f.deregister(b);
        // The held borrow pins the map: lookups fall back to the registry
        // and still see `b` gone and `a` present.
        assert!(matches!(ep.segment(b), Err(FabricError::UnknownKey(_))));
        assert!(ep.segment(a).is_ok());
        assert_eq!(held.read_u64(0), u64::from_le_bytes([1u8; 8]));
        drop(held);
        assert!(ep.segment(a).is_ok());
        assert_eq!(ep.segs.len(), 1, "the next free lookup cleared and refilled");
    }
}
