//! Access latency analysis.
//!
//! The formal model of the paper's Sec. II-B computes a *time-optimal
//! series of CSU operations* for every access; the latency of an access is
//! the total number of clock cycles over that series (each CSU costs one
//! capture cycle, one shift cycle per active-path bit, and one update
//! cycle). [`Rsn::plan_access`] counts them as it plans
//! ([`AccessPlan::cycles`](crate::access::AccessPlan::cycles));
//! [`LatencyReport`] tabulates them per segment for the
//! latency-preservation experiment (T1-latency in EXPERIMENTS.md).

use crate::network::{NodeId, Rsn};

/// Per-segment access latencies of a network, from the reset configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// `(segment, cycles)` pairs in arena order; `None` cycles for
    /// segments the greedy planner cannot reach (none in generated
    /// networks).
    pub per_segment: Vec<(NodeId, Option<u64>)>,
}

impl LatencyReport {
    /// Average access latency over all plannable segments.
    pub fn average(&self) -> f64 {
        let vals: Vec<u64> = self.per_segment.iter().filter_map(|&(_, c)| c).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<u64>() as f64 / vals.len() as f64
        }
    }

    /// Maximum access latency over all plannable segments.
    pub fn max(&self) -> Option<u64> {
        self.per_segment.iter().filter_map(|&(_, c)| c).max()
    }

    /// Latency of a specific segment.
    pub fn cycles(&self, seg: NodeId) -> Option<u64> {
        self.per_segment
            .iter()
            .find(|&&(s, _)| s == seg)
            .and_then(|&(_, c)| c)
    }
}

impl Rsn {
    /// Computes the access latency of every segment from the reset
    /// configuration: the [`AccessPlan::cycles`](crate::access::AccessPlan::cycles)
    /// of one plan per segment.
    pub fn latency_report(&self) -> LatencyReport {
        let reset = self.reset_config();
        let per_segment = self
            .segments()
            .map(|seg| (seg, self.plan_access(seg, &reset).ok().map(|p| p.cycles)))
            .collect();
        LatencyReport { per_segment }
    }
}

#[cfg(test)]
mod tests {
    use crate::examples::{chain, sib_tree};

    #[test]
    fn chain_latency_is_uniform() {
        let rsn = chain(4, 8);
        let report = rsn.latency_report();
        // Every segment is on the single path: latency = 32 shifts + 2.
        for &(_, cycles) in &report.per_segment {
            assert_eq!(cycles, Some(34));
        }
        assert_eq!(report.average(), 34.0);
        assert_eq!(report.max(), Some(34));
    }

    #[test]
    fn deeper_segments_cost_more_cycles() {
        let rsn = sib_tree(2, 2, 4);
        let report = rsn.latency_report();
        let top_sib = rsn.find("t0.sib").expect("top sib");
        let leaf = rsn.find("t000.seg").expect("leaf");
        let top_cycles = report.cycles(top_sib).expect("plannable");
        let leaf_cycles = report.cycles(leaf).expect("plannable");
        assert!(leaf_cycles > top_cycles);
    }

    #[test]
    fn latency_report_covers_all_segments() {
        let rsn = sib_tree(1, 3, 5);
        let report = rsn.latency_report();
        assert_eq!(report.per_segment.len(), rsn.segments().count());
        assert!(report.per_segment.iter().all(|&(_, c)| c.is_some()));
    }
}
