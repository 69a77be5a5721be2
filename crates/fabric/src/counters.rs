//! Operation counters: one owner-written block per rank, summed at
//! snapshot.
//!
//! Used by tests and benchmarks to assert the *message complexity* claims of
//! the paper (e.g. PSCW issues O(k) messages in post/complete and zero in
//! start/wait; fence is O(p log p) total; locks cost one or two AMOs).
//!
//! Every increment goes to the issuing rank's [`RankCounters`], which sits
//! on cache lines of its own, so two ranks issuing at once never write the
//! same line. Increments stay `fetch_add`: several endpoints may share one
//! rank (tests and benchmarks build them freely), and counts must stay
//! exact. [`Counters::snapshot`] sums the blocks into one
//! [`CounterSnapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares the counter set once: the per-rank atomic block, its plain
/// snapshot, and the field-wise sum and difference over it.
macro_rules! counter_set {
    ($($(#[$doc:meta])* $f:ident,)*) => {
        /// One rank's monotonic counters of fabric activity. Aligned to its
        /// own cache lines (128 B covers adjacent-line prefetch) so ranks
        /// never share a written line.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub struct RankCounters {
            $($(#[$doc])* pub $f: AtomicU64,)*
        }

        /// A point-in-time copy of the counters, summed over ranks.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct CounterSnapshot {
            $($(#[$doc])* pub $f: u64,)*
        }

        impl RankCounters {
            /// This block's counts alone.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot { $($f: self.$f.load(Ordering::Relaxed),)* }
            }
        }

        impl CounterSnapshot {
            /// Field-wise sum `self + other`.
            fn plus(&self, other: &CounterSnapshot) -> CounterSnapshot {
                CounterSnapshot { $($f: self.$f + other.$f,)* }
            }

            /// Difference `self - earlier`, field-wise. Saturating:
            /// unordered snapshots (taken while other ranks are mid-flight)
            /// never underflow.
            pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
                CounterSnapshot { $($f: self.$f.saturating_sub(earlier.$f),)* }
            }
        }
    };
}

counter_set! {
    /// Number of put operations issued.
    puts,
    /// Number of get operations issued.
    gets,
    /// Number of AMOs issued.
    amos,
    /// Total bytes moved by puts.
    bytes_put,
    /// Total bytes moved by gets.
    bytes_get,
    /// Total bytes moved by AMOs (8 per operation).
    bytes_amo,
    /// Number of gsync (bulk completion) calls.
    gsyncs,
    /// Number of per-target flushes (`flush_target` at the fabric layer —
    /// the substrate of `MPI_Win_flush`).
    flushes,
    /// Number of `MPI_Win_fence` epochs entered (counted by the sync layer).
    fences,
    /// Number of lock acquisitions (`MPI_Win_lock` / `lock_all`).
    locks,
    /// Number of lock releases (`MPI_Win_unlock` / `unlock_all`).
    unlocks,
    /// Operations issued through the batching layer (members of bursts,
    /// including each burst's first op — see [`crate::batch`]).
    batched_ops,
    /// Injection bursts retired (by drain or coalescing stop).
    batch_flushes,
    /// Bursts retired specifically because coalescing stopped (next op
    /// non-adjacent / different kind / would cross the protocol change).
    batch_splits,
    /// Notification records appended by notified puts/AMOs
    /// (see [`crate::notify`]).
    notify_posts,
    /// Notification records popped by a consumer.
    notify_consumed,
    /// Notified appends that found the target ring full at least once
    /// (modelled as injection backpressure).
    notify_overflows,
    /// Un-consumed notification records discarded (window free).
    notify_dropped,
}

/// The job's counters: one [`RankCounters`] block per rank.
#[derive(Debug)]
pub struct Counters {
    blocks: Box<[RankCounters]>,
}

impl Counters {
    /// Zeroed counters for `p` ranks.
    pub fn new(p: usize) -> Self {
        Self { blocks: (0..p).map(|_| RankCounters::default()).collect() }
    }

    /// Rank `rank`'s block: the one every op that rank issues bumps.
    #[inline]
    pub fn rank(&self, rank: u32) -> &RankCounters {
        &self.blocks[rank as usize]
    }

    /// Take a snapshot: the sum over every rank's block.
    pub fn snapshot(&self) -> CounterSnapshot {
        self.blocks.iter().fold(CounterSnapshot::default(), |acc, b| acc.plus(&b.snapshot()))
    }
}

impl CounterSnapshot {
    /// Total one-sided operations (puts + gets + amos).
    pub fn total_ops(&self) -> u64 {
        self.puts + self.gets + self.amos
    }

    /// Total bytes moved by one-sided operations.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_put + self.bytes_get + self.bytes_amo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_diff() {
        let c = Counters::new(2);
        c.rank(0).puts.fetch_add(3, Ordering::Relaxed);
        c.rank(1).bytes_put.fetch_add(24, Ordering::Relaxed);
        let a = c.snapshot();
        c.rank(1).gets.fetch_add(2, Ordering::Relaxed);
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.puts, 0);
        assert_eq!(d.gets, 2);
        assert_eq!(b.total_ops(), 5);
        assert_eq!(b.bytes_put, 24);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let c = Counters::new(1);
        c.rank(0).amos.fetch_add(5, Ordering::Relaxed);
        let later = c.snapshot();
        c.rank(0).amos.fetch_add(1, Ordering::Relaxed);
        let even_later = c.snapshot();
        // Reversed order: "later - even_later" would underflow with plain
        // subtraction; saturating gives 0.
        let d = later.since(&even_later);
        assert_eq!(d.amos, 0);
    }

    #[test]
    fn sync_layer_counters_roundtrip() {
        let c = Counters::new(4);
        c.rank(3).fences.fetch_add(2, Ordering::Relaxed);
        c.rank(0).locks.fetch_add(4, Ordering::Relaxed);
        c.rank(2).unlocks.fetch_add(4, Ordering::Relaxed);
        c.rank(1).flushes.fetch_add(1, Ordering::Relaxed);
        c.rank(1).bytes_amo.fetch_add(16, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!((s.fences, s.locks, s.unlocks, s.flushes), (2, 4, 4, 1));
        assert_eq!(s.total_bytes(), 16);
        assert_eq!(c.rank(1).snapshot().flushes, 1);
        assert_eq!(c.rank(0).snapshot().flushes, 0);
    }

    #[test]
    fn blocks_sit_on_separate_cache_lines() {
        let c = Counters::new(2);
        let a = c.rank(0) as *const RankCounters as usize;
        let b = c.rank(1) as *const RankCounters as usize;
        assert_eq!(a % 128, 0);
        assert!(b - a >= 128);
    }
}
