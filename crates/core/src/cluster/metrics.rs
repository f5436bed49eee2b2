//! Cluster-wide per-interval metrics and end-of-run summaries:
//! tail latency across all nodes (via the selection-based percentiles),
//! private-tier energy, cloud dollars, and spill accounting.

use crate::scenario::BatchDeadline;
use hipster_sim::json::JsonObj;
use hipster_sim::{percentile, QosTarget};

/// One monitoring interval aggregated across every node in the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterInterval {
    /// Zero-based interval index.
    pub index: u64,
    /// Interval start time, seconds.
    pub start_s: f64,
    /// Interval length, seconds.
    pub duration_s: f64,
    /// Cluster-level offered load as a fraction of private-tier capacity.
    pub offered_frac: f64,
    /// Work quanta dispatched this interval.
    pub quanta: usize,
    /// Quanta that spilled past the watermark to the cloud tier.
    pub spilled_quanta: usize,
    /// Requests that arrived, summed over nodes.
    pub arrivals: usize,
    /// Requests that completed, summed over nodes.
    pub completions: usize,
    /// Requests dropped by client timeouts, summed over nodes.
    pub timeouts: usize,
    /// 95th percentile of the per-node tail latencies, seconds.
    pub p95_s: f64,
    /// 99th percentile of the per-node tail latencies, seconds.
    pub p99_s: f64,
    /// Energy consumed by the private tier, joules.
    pub private_energy_j: f64,
    /// Busy cloud capacity consumed, request-seconds.
    pub cloud_busy_req_s: f64,
    /// Dollars billed for the cloud tier this interval.
    pub cloud_cost_usd: f64,
    /// Private nodes revoked (transiently gone) this interval.
    pub revoked_nodes: usize,
    /// Private nodes in a straggler episode this interval.
    pub straggling_nodes: usize,
    /// Stranded quanta re-dispatched from the retry queue this interval.
    pub retried_quanta: usize,
    /// Stranded quanta dropped after exhausting their retry budget.
    pub dropped_quanta: usize,
    /// Requests hedged (backup issued) this interval, summed over nodes.
    pub hedged_requests: u64,
    /// Requests hit by a per-request straggler multiplier this interval.
    pub straggled_requests: u64,
    /// Best-effort quanta deferred by the admission ladder this interval.
    pub deferred_quanta: usize,
    /// Aggregate colocated-batch throughput, instructions per second.
    pub batch_ips: f64,
    /// Whether the shed rung held colocated batch paused this interval.
    pub shed_batch: bool,
}

/// Cluster-wide tail percentiles over one interval's per-node tail
/// latencies. The slice is reordered (selection, not a full sort) —
/// hand in the scratch buffer, not your stored data. Empty → zeros.
pub fn cluster_tails(node_tails: &mut [f64]) -> (f64, f64) {
    let p95 = percentile(node_tails, 0.95).unwrap_or(0.0);
    let p99 = percentile(node_tails, 0.99).unwrap_or(0.0);
    (p95, p99)
}

/// The interval-by-interval record of one cluster run.
#[derive(Debug, Clone, Default)]
pub struct ClusterTrace {
    intervals: Vec<ClusterInterval>,
}

impl ClusterTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ClusterTrace::default()
    }

    /// Appends one interval.
    pub fn push(&mut self, interval: ClusterInterval) {
        self.intervals.push(interval);
    }

    /// All recorded intervals, in order.
    pub fn intervals(&self) -> &[ClusterInterval] {
        &self.intervals
    }

    /// Fraction of intervals (percent) whose cluster-wide p95 met the
    /// QoS target — the cluster analogue of `Trace::qos_guarantee_pct`.
    pub fn qos_guarantee_pct(&self, qos: QosTarget) -> f64 {
        if self.intervals.is_empty() {
            return 100.0;
        }
        let ok = self
            .intervals
            .iter()
            .filter(|iv| iv.p95_s <= qos.target_s)
            .count();
        100.0 * ok as f64 / self.intervals.len() as f64
    }

    /// Condenses the trace for tables and benches.
    pub fn summary(&self, name: impl Into<String>, qos: QosTarget) -> ClusterSummary {
        let n = self.intervals.len().max(1) as f64;
        ClusterSummary {
            name: name.into(),
            intervals: self.intervals.len(),
            qos_guarantee_pct: self.qos_guarantee_pct(qos),
            mean_p99_s: self.intervals.iter().map(|iv| iv.p99_s).sum::<f64>() / n,
            peak_p99_s: self.intervals.iter().map(|iv| iv.p99_s).fold(0.0, f64::max),
            completions: self.intervals.iter().map(|iv| iv.completions as u64).sum(),
            timeouts: self.intervals.iter().map(|iv| iv.timeouts as u64).sum(),
            total_energy_j: self.intervals.iter().map(|iv| iv.private_energy_j).sum(),
            total_cloud_usd: self.intervals.iter().map(|iv| iv.cloud_cost_usd).sum(),
            spill_frac: {
                let quanta: u64 = self.intervals.iter().map(|iv| iv.quanta as u64).sum();
                let spilled: u64 = self
                    .intervals
                    .iter()
                    .map(|iv| iv.spilled_quanta as u64)
                    .sum();
                if quanta == 0 {
                    0.0
                } else {
                    spilled as f64 / quanta as f64
                }
            },
            revoked_node_intervals: self
                .intervals
                .iter()
                .map(|iv| iv.revoked_nodes as u64)
                .sum(),
            straggling_node_intervals: self
                .intervals
                .iter()
                .map(|iv| iv.straggling_nodes as u64)
                .sum(),
            retried_quanta: self
                .intervals
                .iter()
                .map(|iv| iv.retried_quanta as u64)
                .sum(),
            dropped_quanta: self
                .intervals
                .iter()
                .map(|iv| iv.dropped_quanta as u64)
                .sum(),
            hedged_requests: self.intervals.iter().map(|iv| iv.hedged_requests).sum(),
            deferred_quanta: self
                .intervals
                .iter()
                .map(|iv| iv.deferred_quanta as u64)
                .sum(),
            shed_intervals: self.intervals.iter().filter(|iv| iv.shed_batch).count() as u64,
            deadline_miss_pct: None,
        }
    }

    /// Fraction of the batch bag's tasks finishing after the deadline
    /// (or never), draining sequentially from the cluster's aggregate
    /// batch throughput — the cluster analogue of
    /// [`BatchDeadline::miss_fraction`].
    pub fn deadline_miss_fraction(&self, deadline: &BatchDeadline) -> f64 {
        let mut missed = 0usize;
        let mut completed_instr = 0.0f64;
        let mut next_task = 0usize;
        for iv in &self.intervals {
            completed_instr += iv.batch_ips * iv.duration_s;
            let end = iv.start_s + iv.duration_s;
            while next_task < deadline.tasks
                && completed_instr >= (next_task + 1) as f64 * deadline.instructions_per_task
            {
                if end > deadline.deadline_s {
                    missed += 1;
                }
                next_task += 1;
            }
        }
        missed += deadline.tasks - next_task;
        missed as f64 / deadline.tasks as f64
    }

    /// CSV of every interval (header + one row each), for offline plots.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "interval,start_s,offered_frac,quanta,spilled_quanta,arrivals,completions,\
             timeouts,p95_s,p99_s,private_energy_j,cloud_busy_req_s,cloud_cost_usd,\
             revoked_nodes,straggling_nodes,retried_quanta,dropped_quanta,\
             hedged_requests,straggled_requests,deferred_quanta,batch_ips,shed_batch\n",
        );
        for iv in &self.intervals {
            out.push_str(&format!(
                "{},{:.3},{:.6},{},{},{},{},{},{:.9},{:.9},{:.6},{:.6},{:.9},{},{},{},{},{},{},{},{:.3},{}\n",
                iv.index,
                iv.start_s,
                iv.offered_frac,
                iv.quanta,
                iv.spilled_quanta,
                iv.arrivals,
                iv.completions,
                iv.timeouts,
                iv.p95_s,
                iv.p99_s,
                iv.private_energy_j,
                iv.cloud_busy_req_s,
                iv.cloud_cost_usd,
                iv.revoked_nodes,
                iv.straggling_nodes,
                iv.retried_quanta,
                iv.dropped_quanta,
                iv.hedged_requests,
                iv.straggled_requests,
                iv.deferred_quanta,
                iv.batch_ips,
                u8::from(iv.shed_batch),
            ));
        }
        out
    }
}

/// One cluster run condensed to the numbers the experiment tables print.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Run label (cluster name).
    pub name: String,
    /// Intervals simulated.
    pub intervals: usize,
    /// Percent of intervals whose cluster p95 met the QoS target.
    pub qos_guarantee_pct: f64,
    /// Mean cluster p99 latency, seconds.
    pub mean_p99_s: f64,
    /// Worst cluster p99 latency, seconds.
    pub peak_p99_s: f64,
    /// Requests completed across all nodes.
    pub completions: u64,
    /// Requests timed out across all nodes.
    pub timeouts: u64,
    /// Private-tier energy, joules.
    pub total_energy_j: f64,
    /// Cloud-tier dollars.
    pub total_cloud_usd: f64,
    /// Fraction of quanta that overflowed to the cloud tier.
    pub spill_frac: f64,
    /// Node-intervals spent revoked, summed over the run.
    pub revoked_node_intervals: u64,
    /// Node-intervals spent straggling, summed over the run.
    pub straggling_node_intervals: u64,
    /// Stranded quanta successfully re-dispatched over the run.
    pub retried_quanta: u64,
    /// Stranded quanta dropped after exhausting retries.
    pub dropped_quanta: u64,
    /// Requests hedged (backup issued) over the run.
    pub hedged_requests: u64,
    /// Best-effort quanta deferred by the admission ladder over the run.
    pub deferred_quanta: u64,
    /// Intervals spent with colocated batch shed.
    pub shed_intervals: u64,
    /// Percent of the batch bag's tasks finishing late, when a
    /// [`BatchDeadline`] was declared ([`None`] otherwise).
    pub deadline_miss_pct: Option<f64>,
}

impl ClusterSummary {
    /// Renders the summary as a flat JSON object for a
    /// [`CellJournal`](crate::CellJournal) cell. Counters go out as
    /// decimal strings (exact at any magnitude); floats use shortest
    /// round-trip formatting, so [`from_json_obj`](Self::from_json_obj)
    /// reconstructs the summary bit-for-bit.
    pub fn to_json_obj(&self) -> JsonObj {
        let obj = JsonObj::new()
            .str("name", &self.name)
            .u64("intervals", self.intervals as u64)
            .num("qos_guarantee_pct", self.qos_guarantee_pct)
            .num("mean_p99_s", self.mean_p99_s)
            .num("peak_p99_s", self.peak_p99_s)
            .u64("completions", self.completions)
            .u64("timeouts", self.timeouts)
            .num("total_energy_j", self.total_energy_j)
            .num("total_cloud_usd", self.total_cloud_usd)
            .num("spill_frac", self.spill_frac)
            .u64("revoked_node_intervals", self.revoked_node_intervals)
            .u64("straggling_node_intervals", self.straggling_node_intervals)
            .u64("retried_quanta", self.retried_quanta)
            .u64("dropped_quanta", self.dropped_quanta)
            .u64("hedged_requests", self.hedged_requests)
            .u64("deferred_quanta", self.deferred_quanta)
            .u64("shed_intervals", self.shed_intervals);
        match self.deadline_miss_pct {
            Some(pct) => obj.num("deadline_miss_pct", pct),
            None => obj,
        }
    }

    /// Rebuilds a summary stored with [`to_json_obj`](Self::to_json_obj).
    /// Returns `None` when any field is missing or mistyped (a foreign or
    /// hand-edited cell), never panics.
    pub fn from_json_obj(obj: &JsonObj) -> Option<ClusterSummary> {
        Some(ClusterSummary {
            name: obj.get_str("name")?.to_owned(),
            intervals: usize::try_from(obj.get_u64("intervals")?).ok()?,
            qos_guarantee_pct: obj.get_num("qos_guarantee_pct")?,
            mean_p99_s: obj.get_num("mean_p99_s")?,
            peak_p99_s: obj.get_num("peak_p99_s")?,
            completions: obj.get_u64("completions")?,
            timeouts: obj.get_u64("timeouts")?,
            total_energy_j: obj.get_num("total_energy_j")?,
            total_cloud_usd: obj.get_num("total_cloud_usd")?,
            spill_frac: obj.get_num("spill_frac")?,
            revoked_node_intervals: obj.get_u64("revoked_node_intervals")?,
            straggling_node_intervals: obj.get_u64("straggling_node_intervals")?,
            retried_quanta: obj.get_u64("retried_quanta")?,
            dropped_quanta: obj.get_u64("dropped_quanta")?,
            hedged_requests: obj.get_u64("hedged_requests")?,
            deferred_quanta: obj.get_u64("deferred_quanta")?,
            shed_intervals: obj.get_u64("shed_intervals")?,
            deadline_miss_pct: obj.get_num("deadline_miss_pct"),
        })
    }

    /// Header for [`csv_row`](Self::csv_row) — one summary per line, for
    /// side-by-side comparison files (e.g. the wave ablation CSV written
    /// by `repro faults`).
    pub fn csv_header() -> &'static str {
        "name,intervals,qos_guarantee_pct,mean_p99_ms,peak_p99_ms,completions,timeouts,\
         total_energy_j,total_cloud_usd,spill_frac,revoked_node_intervals,\
         straggling_node_intervals,retried_quanta,dropped_quanta,hedged_requests,\
         deferred_quanta,shed_intervals,deadline_miss_pct"
    }

    /// Renders the summary as one CSV row matching
    /// [`csv_header`](Self::csv_header). `deadline_miss_pct` renders
    /// empty when no [`BatchDeadline`] was declared.
    pub fn csv_row(&self) -> String {
        let miss = match self.deadline_miss_pct {
            Some(pct) => format!("{pct:.3}"),
            None => String::new(),
        };
        format!(
            "{},{},{:.3},{:.6},{:.6},{},{},{:.3},{:.6},{:.6},{},{},{},{},{},{},{},{}",
            self.name,
            self.intervals,
            self.qos_guarantee_pct,
            self.mean_p99_s * 1e3,
            self.peak_p99_s * 1e3,
            self.completions,
            self.timeouts,
            self.total_energy_j,
            self.total_cloud_usd,
            self.spill_frac,
            self.revoked_node_intervals,
            self.straggling_node_intervals,
            self.retried_quanta,
            self.dropped_quanta,
            self.hedged_requests,
            self.deferred_quanta,
            self.shed_intervals,
            miss,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(index: u64, p95: f64, p99: f64) -> ClusterInterval {
        ClusterInterval {
            index,
            start_s: index as f64,
            duration_s: 1.0,
            offered_frac: 0.5,
            quanta: 10,
            spilled_quanta: if index % 2 == 0 { 2 } else { 0 },
            arrivals: 100,
            completions: 90,
            timeouts: 1,
            p95_s: p95,
            p99_s: p99,
            private_energy_j: 5.0,
            cloud_busy_req_s: 0.5,
            cloud_cost_usd: 0.01,
            revoked_nodes: 1,
            straggling_nodes: 2,
            retried_quanta: 3,
            dropped_quanta: if index % 2 == 0 { 1 } else { 0 },
            hedged_requests: 4,
            straggled_requests: 7,
            deferred_quanta: 2,
            batch_ips: 1000.0,
            shed_batch: index % 2 == 1,
        }
    }

    #[test]
    fn summary_aggregates_and_qos_counts_intervals() {
        let mut trace = ClusterTrace::new();
        trace.push(interval(0, 0.005, 0.02));
        trace.push(interval(1, 0.015, 0.03)); // violates a 10 ms target
        let qos = QosTarget::new(0.95, 0.010);
        let s = trace.summary("test", qos);
        assert_eq!(s.intervals, 2);
        assert_eq!(s.qos_guarantee_pct, 50.0);
        assert_eq!(s.completions, 180);
        assert_eq!(s.total_energy_j, 10.0);
        assert!((s.spill_frac - 0.1).abs() < 1e-12);
        assert_eq!(s.peak_p99_s, 0.03);
        assert_eq!(s.revoked_node_intervals, 2);
        assert_eq!(s.straggling_node_intervals, 4);
        assert_eq!(s.retried_quanta, 6);
        assert_eq!(s.dropped_quanta, 1);
        assert_eq!(s.hedged_requests, 8);
        assert_eq!(s.deferred_quanta, 4);
        assert_eq!(s.shed_intervals, 1);
        assert_eq!(s.deadline_miss_pct, None);
        let csv = trace.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("interval,start_s,"));
        assert!(csv.lines().next().unwrap().ends_with("shed_batch"));
    }

    #[test]
    fn deadline_miss_drains_the_bag_from_aggregate_batch_ips() {
        // Two intervals of 1000 IPS each: 2000 instructions total. Four
        // 500-instruction tasks; a 1.5 s deadline lands mid-run, so the
        // two tasks finishing in interval 0 (end 1.0 s) are on time and
        // the two finishing in interval 1 (end 2.0 s) are late.
        let mut trace = ClusterTrace::new();
        trace.push(interval(0, 0.005, 0.02));
        trace.push(interval(1, 0.015, 0.03));
        let d = BatchDeadline::new(4, 500.0, 1.5);
        assert_eq!(trace.deadline_miss_fraction(&d), 0.5);
        // An impossible bag is 100% late, an instant one 0%.
        assert_eq!(
            trace.deadline_miss_fraction(&BatchDeadline::new(3, 1e12, 1.5)),
            1.0
        );
        assert_eq!(
            trace.deadline_miss_fraction(&BatchDeadline::new(2, 100.0, 5.0)),
            0.0
        );
    }

    #[test]
    fn summary_round_trips_through_flat_json_exactly() {
        let mut trace = ClusterTrace::new();
        trace.push(interval(0, 0.005, 0.02));
        trace.push(interval(1, 0.015, 0.03));
        let mut s = trace.summary("cluster/64/hipster", QosTarget::new(0.95, 0.010));
        s.completions = u64::MAX - 3; // force magnitudes f64 cannot hold
        s.dropped_quanta = (1 << 60) + 1;
        let line = s.to_json_obj().render();
        let parsed = JsonObj::parse(&line).expect("rendered line parses");
        assert_eq!(ClusterSummary::from_json_obj(&parsed), Some(s.clone()));
        // The optional deadline field round-trips when present.
        s.deadline_miss_pct = Some(12.5);
        let line = s.to_json_obj().render();
        let parsed = JsonObj::parse(&line).expect("rendered line parses");
        assert_eq!(ClusterSummary::from_json_obj(&parsed), Some(s));
        // A foreign cell (missing fields) is a None, not a panic.
        let foreign = JsonObj::new().str("name", "x");
        assert_eq!(ClusterSummary::from_json_obj(&foreign), None);
    }

    #[test]
    fn summary_csv_row_matches_header_and_renders_optional_deadline() {
        let mut trace = ClusterTrace::new();
        trace.push(interval(0, 0.005, 0.02));
        let mut s = trace.summary("wave/on", QosTarget::new(0.95, 0.010));
        let cols = ClusterSummary::csv_header().split(',').count();
        assert_eq!(s.csv_row().split(',').count(), cols);
        // No deadline declared: the last column is empty.
        assert!(s.csv_row().ends_with(','));
        s.deadline_miss_pct = Some(25.0);
        assert!(s.csv_row().ends_with(",25.000"));
        assert!(s.csv_row().starts_with("wave/on,1,"));
    }

    #[test]
    fn cluster_tails_handles_empty_and_selects() {
        assert_eq!(cluster_tails(&mut []), (0.0, 0.0));
        let mut tails: Vec<f64> = (1..=100).map(|i| i as f64 / 1000.0).collect();
        let (p95, p99) = cluster_tails(&mut tails);
        assert!(p95 >= 0.094 && p95 <= 0.096, "p95 {p95}");
        assert!(p99 >= 0.098 && p99 <= 0.100, "p99 {p99}");
    }
}
