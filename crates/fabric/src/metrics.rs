//! The metrics plane: deterministic, merge-ready snapshots.
//!
//! [`snapshot`] freezes everything the fabric counted — global
//! [`crate::Counters`], per-class telemetry aggregates with their log2
//! latency/size histograms, per-window and per-rank attribution, fault
//! injection tallies — into a [`MetricsSnapshot`] that renders as
//! Prometheus text exposition ([`MetricsSnapshot::to_prometheus`]) or
//! single-line JSON ([`MetricsSnapshot::to_json_line`]). Tail quantiles
//! (p50/p99/p999) come from the log2 histograms, and the raw bucket counts
//! ride along in the JSON form so downstream collectors can *merge*
//! snapshots from many jobs ([`HistSnapshot::merge`] is associative).
//!
//! ## Determinism contract
//!
//! Everything in a snapshot derives from **virtual time** and operation
//! counts, so for a seeded, schedule-independent workload two runs (or two
//! snapshots of one run at the same quiescent point) are byte-identical —
//! CI diffs them like the soak CSVs. Wall-clock data ([`crate::profile`])
//! is deliberately excluded; it lives in [`crate::profile::Profiler::report`].
//!
//! ## When to call
//!
//! [`snapshot`] reads the telemetry hub's single-writer areas and is
//! therefore quiescent-point only (after rank threads joined), like
//! [`crate::Telemetry::events`]. The crash paths use [`panic_summary`]
//! instead, which touches only atomics and is safe mid-run from any
//! thread.

use crate::counters::CounterSnapshot;
use crate::faults::FaultKind;
use crate::telemetry::{EventKind, HistSnapshot, WindowStats};
use crate::{Fabric, Transport};

/// Counter names in render order, paired with their values.
fn counter_rows(c: &CounterSnapshot) -> Vec<(&'static str, u64)> {
    vec![
        ("puts", c.puts),
        ("gets", c.gets),
        ("amos", c.amos),
        ("bytes_put", c.bytes_put),
        ("bytes_get", c.bytes_get),
        ("bytes_amo", c.bytes_amo),
        ("gsyncs", c.gsyncs),
        ("flushes", c.flushes),
        ("fences", c.fences),
        ("locks", c.locks),
        ("unlocks", c.unlocks),
        ("batched_ops", c.batched_ops),
        ("batch_flushes", c.batch_flushes),
        ("batch_splits", c.batch_splits),
        ("notify_posts", c.notify_posts),
        ("notify_consumed", c.notify_consumed),
        ("notify_overflows", c.notify_overflows),
        ("notify_dropped", c.notify_dropped),
    ]
}

/// Frozen per-class telemetry: aggregates plus tail quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassMetrics {
    /// The op class.
    pub kind: EventKind,
    /// Operations recorded.
    pub count: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Total virtual ns.
    pub total_ns: u64,
    /// Median virtual latency (log2-bucket upper bound).
    pub p50: u64,
    /// 99th-percentile virtual latency.
    pub p99: u64,
    /// 99.9th-percentile virtual latency.
    pub p999: u64,
    /// Mergeable latency distribution.
    pub lat: HistSnapshot,
    /// Mergeable size distribution (RMA classes; empty otherwise).
    pub size: HistSnapshot,
}

/// Per-rank issue-side traffic (peer-matrix row sum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankTraffic {
    /// The issuing rank.
    pub rank: u32,
    /// RMA ops issued.
    pub ops: u64,
    /// Bytes issued.
    pub bytes: u64,
}

/// A frozen, renderable, merge-ready view of the fabric's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Job size.
    pub ranks: usize,
    /// Global counters ([`crate::Counters`]).
    pub counters: CounterSnapshot,
    /// Per-class aggregates, in [`EventKind::ALL`] order, classes with at
    /// least one event only.
    pub classes: Vec<ClassMetrics>,
    /// Per-window aggregates, sorted by window id.
    pub windows: Vec<(u64, WindowStats)>,
    /// Per-rank issue-side traffic, in rank order, active ranks only.
    pub rank_traffic: Vec<RankTraffic>,
    /// Issue-side traffic split by peer class (transport): `(name, ops,
    /// bytes)` for `xpmem` then `dmapp`.
    pub transport_traffic: Vec<(&'static str, u64, u64)>,
    /// Fault injections per class, in [`FaultKind::ALL`] order.
    pub faults: Vec<(&'static str, u64)>,
    /// Telemetry ring overwrites (a nonzero value means the *event* stream
    /// is truncated; aggregates here are still complete).
    pub dropped: u64,
}

/// Freeze the fabric's metrics. Quiescent-point only (see module docs).
pub fn snapshot(fabric: &Fabric) -> MetricsSnapshot {
    let tel = fabric.telemetry();
    let classes = EventKind::ALL
        .iter()
        .filter_map(|&kind| {
            let s = tel.stats(kind);
            if s.count() == 0 {
                return None;
            }
            Some(ClassMetrics {
                kind,
                count: s.count(),
                bytes: s.bytes(),
                total_ns: s.total_ns(),
                p50: s.lat.quantile_hi(0.5),
                p99: s.lat.quantile_hi(0.99),
                p999: s.lat.quantile_hi(0.999),
                lat: s.lat.snapshot(),
                size: if kind.is_rma() { s.size.snapshot() } else { HistSnapshot::default() },
            })
        })
        .collect();
    let peers = tel.peer_matrix();
    let mut rank_traffic = Vec::new();
    let mut by_transport = [(Transport::Xpmem, 0u64, 0u64), (Transport::Dmapp, 0u64, 0u64)];
    for (origin, row) in peers.iter().enumerate() {
        let (mut ops, mut bytes) = (0u64, 0u64);
        for (target, cell) in row.iter().enumerate() {
            ops += cell.ops;
            bytes += cell.bytes;
            if cell.ops > 0 {
                let tr = fabric.transport(origin as u32, target as u32);
                let slot = by_transport.iter_mut().find(|(t, _, _)| *t == tr).unwrap();
                slot.1 += cell.ops;
                slot.2 += cell.bytes;
            }
        }
        if ops > 0 {
            rank_traffic.push(RankTraffic { rank: origin as u32, ops, bytes });
        }
    }
    let transport_traffic = by_transport
        .iter()
        .map(|&(t, ops, bytes)| (if t == Transport::Xpmem { "xpmem" } else { "dmapp" }, ops, bytes))
        .collect();
    MetricsSnapshot {
        ranks: fabric.num_ranks(),
        counters: fabric.counters().snapshot(),
        classes,
        windows: tel.window_summaries(),
        rank_traffic,
        transport_traffic,
        faults: FaultKind::ALL.iter().map(|&k| (k.name(), fabric.faults().injected(k))).collect(),
        dropped: tel.dropped(),
    }
}

impl MetricsSnapshot {
    /// Prometheus text exposition (the `text/plain; version=0.0.4`
    /// format). Deterministic: fixed family order, fixed label order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# HELP fompi_ranks Ranks in the simulated job.\n");
        out.push_str("# TYPE fompi_ranks gauge\n");
        out.push_str(&format!("fompi_ranks {}\n", self.ranks));
        out.push_str("# HELP fompi_counter Global fabric operation counters.\n");
        out.push_str("# TYPE fompi_counter counter\n");
        for (name, v) in counter_rows(&self.counters) {
            out.push_str(&format!("fompi_counter{{name=\"{name}\"}} {v}\n"));
        }
        if !self.classes.is_empty() {
            out.push_str("# HELP fompi_op_count Operations recorded per class.\n");
            out.push_str("# TYPE fompi_op_count counter\n");
            for c in &self.classes {
                out.push_str(&format!(
                    "fompi_op_count{{class=\"{}\"}} {}\n",
                    c.kind.name(),
                    c.count
                ));
            }
            out.push_str("# HELP fompi_op_bytes Bytes moved per class.\n");
            out.push_str("# TYPE fompi_op_bytes counter\n");
            for c in &self.classes {
                out.push_str(&format!(
                    "fompi_op_bytes{{class=\"{}\"}} {}\n",
                    c.kind.name(),
                    c.bytes
                ));
            }
            out.push_str("# HELP fompi_op_virtual_ns_total Total virtual latency per class.\n");
            out.push_str("# TYPE fompi_op_virtual_ns_total counter\n");
            for c in &self.classes {
                out.push_str(&format!(
                    "fompi_op_virtual_ns_total{{class=\"{}\"}} {}\n",
                    c.kind.name(),
                    c.total_ns
                ));
            }
            out.push_str(
                "# HELP fompi_op_virtual_ns Virtual latency quantiles (log2-bucket upper bounds).\n",
            );
            out.push_str("# TYPE fompi_op_virtual_ns summary\n");
            for c in &self.classes {
                for (q, v) in [("0.5", c.p50), ("0.99", c.p99), ("0.999", c.p999)] {
                    out.push_str(&format!(
                        "fompi_op_virtual_ns{{class=\"{}\",quantile=\"{q}\"}} {v}\n",
                        c.kind.name()
                    ));
                }
            }
        }
        if !self.rank_traffic.is_empty() {
            out.push_str("# HELP fompi_rank_ops RMA ops issued per rank.\n");
            out.push_str("# TYPE fompi_rank_ops counter\n");
            for r in &self.rank_traffic {
                out.push_str(&format!("fompi_rank_ops{{rank=\"{}\"}} {}\n", r.rank, r.ops));
            }
            out.push_str("# HELP fompi_rank_bytes Bytes issued per rank.\n");
            out.push_str("# TYPE fompi_rank_bytes counter\n");
            for r in &self.rank_traffic {
                out.push_str(&format!("fompi_rank_bytes{{rank=\"{}\"}} {}\n", r.rank, r.bytes));
            }
        }
        out.push_str("# HELP fompi_transport_ops RMA ops per peer class.\n");
        out.push_str("# TYPE fompi_transport_ops counter\n");
        for (name, ops, bytes) in &self.transport_traffic {
            out.push_str(&format!("fompi_transport_ops{{transport=\"{name}\"}} {ops}\n"));
            out.push_str(&format!("fompi_transport_bytes{{transport=\"{name}\"}} {bytes}\n"));
        }
        if !self.windows.is_empty() {
            out.push_str("# HELP fompi_window_ops Operations attributed per window.\n");
            out.push_str("# TYPE fompi_window_ops counter\n");
            for (id, w) in &self.windows {
                out.push_str(&format!("fompi_window_ops{{win=\"{id}\"}} {}\n", w.ops()));
                out.push_str(&format!("fompi_window_bytes{{win=\"{id}\"}} {}\n", w.bytes));
                out.push_str(&format!("fompi_window_busy_ns{{win=\"{id}\"}} {}\n", w.busy_ns));
            }
        }
        for (name, v) in &self.faults {
            out.push_str(&format!("fompi_fault_injected{{kind=\"{name}\"}} {v}\n"));
        }
        out.push_str(&format!("fompi_telemetry_dropped {}\n", self.dropped));
        out
    }

    /// Single-line JSON form — what a cross-backend orchestrator ingests
    /// and merges. The per-class `lat`/`size` entries are the raw log2
    /// bucket counts as `[bucket, count]` pairs, so merging snapshots is
    /// bucket-wise addition. Key order is fixed; output is deterministic.
    pub fn to_json_line(&self) -> String {
        fn buckets_json(h: &HistSnapshot) -> String {
            let mut out = String::from("[");
            let mut first = true;
            for i in 0..crate::telemetry::BUCKETS {
                let n = h.count(i);
                if n > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!("[{i},{n}]"));
                }
            }
            out.push(']');
            out
        }
        let mut out = String::from("{");
        out.push_str(&format!("\"ranks\":{}", self.ranks));
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in counter_rows(&self.counters).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},\"classes\":[");
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"class\":\"{}\",\"count\":{},\"bytes\":{},\"virtual_ns\":{},\
                 \"p50\":{},\"p99\":{},\"p999\":{},\"lat\":{}",
                c.kind.name(),
                c.count,
                c.bytes,
                c.total_ns,
                c.p50,
                c.p99,
                c.p999,
                buckets_json(&c.lat),
            ));
            if c.kind.is_rma() {
                out.push_str(&format!(",\"size\":{}", buckets_json(&c.size)));
            }
            out.push('}');
        }
        out.push_str("],\"rank_traffic\":[");
        for (i, r) in self.rank_traffic.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rank\":{},\"ops\":{},\"bytes\":{}}}",
                r.rank, r.ops, r.bytes
            ));
        }
        out.push_str("],\"transports\":[");
        for (i, (name, ops, bytes)) in self.transport_traffic.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"transport\":\"{name}\",\"ops\":{ops},\"bytes\":{bytes}}}"));
        }
        out.push_str("],\"windows\":[");
        for (i, (id, w)) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"win\":{id},\"puts\":{},\"gets\":{},\"amos\":{},\"syncs\":{},\
                 \"bytes\":{},\"busy_ns\":{}}}",
                w.puts, w.gets, w.amos, w.syncs, w.bytes, w.busy_ns
            ));
        }
        out.push_str("],\"faults\":{");
        for (i, (name, v)) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str(&format!("}},\"dropped\":{}}}", self.dropped));
        out
    }
}

/// A crash-safe metrics summary: **atomics only** — no telemetry
/// single-writer areas, no locks — so it may be called mid-run from a
/// panicking rank thread while other ranks are still issuing. Pairs with
/// the flight recorder's last-N event dump.
pub fn panic_summary(fabric: &Fabric) -> String {
    let mut out = String::new();
    let c = fabric.counters().snapshot();
    out.push_str("== metrics (crash summary; counters are atomics-only) ==\n");
    for (name, v) in counter_rows(&c) {
        if v > 0 {
            out.push_str(&format!("  {name}: {v}\n"));
        }
    }
    let tel = fabric.telemetry();
    if tel.enabled() {
        for kind in EventKind::ALL {
            let s = tel.stats(kind);
            if s.count() > 0 {
                out.push_str(&format!(
                    "  {}: {} ops, p50 {} ns, p99 {} ns, p999 {} ns\n",
                    kind.name(),
                    s.count(),
                    s.lat.quantile_hi(0.5),
                    s.lat.quantile_hi(0.99),
                    s.lat.quantile_hi(0.999),
                ));
            }
        }
    }
    let injected = fabric.faults().total_injected();
    if injected > 0 {
        out.push_str(&format!("  faults injected: {injected}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Event, Flavor, NO_TARGET};
    use crate::CostModel;

    fn put_ev(origin: u32, target: u32, win: u64, bytes: u64, t0: f64, t1: f64) -> Event {
        Event {
            kind: EventKind::Put,
            flavor: Flavor::Blocking,
            transport: Some(Transport::Dmapp),
            origin,
            target,
            win,
            bytes,
            t_start: t0,
            t_end: t1,
            ..Event::default()
        }
    }

    fn traced_fabric() -> std::sync::Arc<Fabric> {
        let f = Fabric::new_traced(2, 1, CostModel::default(), 64);
        f.telemetry().record(put_ev(0, 1, 7, 100, 0.0, 1500.0));
        f.telemetry().record(put_ev(0, 1, 7, 8, 1500.0, 2000.0));
        f.telemetry().record(Event {
            kind: EventKind::Fence,
            origin: 1,
            target: NO_TARGET,
            win: 7,
            t_start: 0.0,
            t_end: 2900.0,
            ..Event::default()
        });
        f.counters().rank(0).puts.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
        f
    }

    #[test]
    fn snapshot_has_put_quantiles_in_both_forms() {
        let f = traced_fabric();
        let s = snapshot(&f);
        let put = s.classes.iter().find(|c| c.kind == EventKind::Put).unwrap();
        assert_eq!(put.count, 2);
        assert!(put.p50 > 0 && put.p99 >= put.p50 && put.p999 >= put.p99);
        let prom = s.to_prometheus();
        assert!(prom.contains("fompi_op_virtual_ns{class=\"put\",quantile=\"0.5\"}"), "{prom}");
        assert!(prom.contains("quantile=\"0.99\""));
        assert!(prom.contains("quantile=\"0.999\""));
        assert!(prom.contains("fompi_counter{name=\"puts\"} 2"));
        assert!(prom.contains("fompi_transport_ops{transport=\"dmapp\"} 2"));
        assert!(prom.contains("fompi_window_ops{win=\"7\"} 3"));
        let json = s.to_json_line();
        assert!(!json.contains('\n'), "single line");
        assert!(json.contains("\"class\":\"put\""));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p999\":"));
        assert!(json.contains("\"lat\":[["));
        assert!(json.contains("\"size\":[["));
    }

    #[test]
    fn snapshots_of_one_state_are_byte_identical() {
        let f = traced_fabric();
        let a = snapshot(&f);
        let b = snapshot(&f);
        assert_eq!(a, b);
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        assert_eq!(a.to_json_line(), b.to_json_line());
    }

    #[test]
    fn empty_fabric_renders_cleanly() {
        let f = Fabric::new(1, 1, CostModel::default());
        let s = snapshot(&f);
        assert!(s.classes.is_empty());
        let prom = s.to_prometheus();
        assert!(prom.contains("fompi_ranks 1"));
        assert!(prom.contains("fompi_telemetry_dropped 0"));
        let json = s.to_json_line();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"classes\":[]"));
    }

    #[test]
    fn panic_summary_is_atomics_only_and_renderable() {
        let f = traced_fabric();
        let s = panic_summary(&f);
        assert!(s.contains("puts: 2"));
        assert!(s.contains("p999"));
    }
}
