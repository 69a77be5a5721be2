//! Exact latency quantiles without storing every sample.
//!
//! A run records tens of millions of per-op times, so samples go into a
//! counting array indexed by whole nanoseconds (exact below [`DIRECT`] ns)
//! plus a plain list for the rare slower ones. Quantiles are exact
//! nearest-rank values, never bucket edges, so a metric keeps all its
//! digits from run to run.

use std::time::Duration;

/// Samples below this many nanoseconds are counted in place.
const DIRECT: usize = 1 << 14;

/// A mergeable multiset of nanosecond samples.
pub struct Lat {
    counts: Vec<u32>,
    slow: Vec<u64>,
    n: u64,
}

impl Default for Lat {
    fn default() -> Self {
        Lat { counts: vec![0; DIRECT], slow: Vec::new(), n: 0 }
    }
}

impl Lat {
    /// Record one sample.
    #[inline]
    pub fn add(&mut self, d: Duration) {
        self.add_ns(d.as_nanos() as u64);
    }

    /// Record one sample given in nanoseconds.
    #[inline]
    pub fn add_ns(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow.push(ns),
        }
        self.n += 1;
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Lat) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.slow.extend_from_slice(&other.slow);
        self.n += other.n;
    }

    /// Nearest-rank quantile in nanoseconds (`q` in `[0, 1]`); NaN when
    /// empty.
    pub fn q(&mut self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return ns as f64;
            }
        }
        self.slow.sort_unstable();
        self.slow[(rank - seen - 1) as usize] as f64
    }
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_across_the_direct_and_slow_ranges() {
        let mut a = Lat::default();
        let mut b = Lat::default();
        for ns in 1..=100u64 {
            a.add_ns(ns);
            b.add_ns(ns + DIRECT as u64);
        }
        a.merge(&b);
        assert_eq!(a.q(0.5), 100.0);
        assert_eq!(a.q(0.505), (DIRECT + 1) as f64);
        assert_eq!(a.q(1.0), (DIRECT + 100) as f64);
        assert_eq!(a.q(0.0), 1.0);
        assert!(Lat::default().q(0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
