//! Multiple-fault analysis: accessibility under *pairs* of stuck-at
//! faults.
//!
//! The paper scopes its metric to single stuck-at faults; the synthesized
//! networks guarantee at most one lost segment per fault. A natural
//! extension question — posed but not evaluated in the paper — is how
//! gracefully the fault-tolerant structure degrades under a *second*
//! fault. This module combines two fault effects and evaluates the same
//! accessibility engine, with deterministic sampling to keep the O(F²)
//! pair space tractable.

use rsn_core::Rsn;

use crate::effect::{effect_of, FaultEffect};
use crate::engine::{AccessEngine, LANES};
use crate::fault::{fault_universe, Fault};
use crate::metric::HardeningProfile;
use crate::sweep::run_stealing;

/// Combines two fault effects into one (union of corruptions and
/// forcings; the first fault's stuck value wins for dirty-write modeling —
/// a documented approximation, pessimistic for mixed-polarity pairs).
pub fn combine_effects(a: &FaultEffect, b: &FaultEffect) -> FaultEffect {
    let mut out = a.clone();
    out.corrupt_nodes.extend(b.corrupt_nodes.iter().copied());
    out.corrupt_nodes.sort_unstable();
    out.corrupt_nodes.dedup();
    out.corrupt_mux_inputs
        .extend(b.corrupt_mux_inputs.iter().copied());
    out.corrupt_mux_inputs.sort_unstable();
    out.corrupt_mux_inputs.dedup();
    for (&k, &v) in &b.forced_bits {
        out.forced_bits.entry(k).or_insert(v);
    }
    for (&k, &v) in &b.forced_mux {
        out.forced_mux.entry(k).or_insert(v);
    }
    out.local_loss.extend(b.local_loss.iter().copied());
    out.local_loss.sort_unstable();
    out.local_loss.dedup();
    if out.stuck.is_none() {
        out.stuck = b.stuck;
    }
    out
}

/// Result of a sampled double-fault study.
#[derive(Debug, Clone, PartialEq)]
pub struct DoubleFaultReport {
    /// Number of fault pairs evaluated.
    pub pairs: usize,
    /// Worst-case fraction of accessible segments over the sample.
    pub worst_segments: f64,
    /// Mean fraction of accessible segments over the sample.
    pub avg_segments: f64,
    /// The worst-case pair, if any pair was evaluated.
    pub worst_pair: Option<(Fault, Fault)>,
    /// Histogram of lost-segment counts (index = segments lost, capped).
    pub lost_histogram: Vec<usize>,
}

/// Evaluates a deterministic sample of fault pairs: every `stride`-th pair
/// of the cross product in a fixed interleaving.
///
/// The sampled pairs are evaluated by the shared work-stealing scheduler
/// in chunks of [`LANES`] pairs, one bit-parallel engine pass each (one
/// [`crate::Scratch`] per worker), and aggregated serially in sample
/// order, so the report is bit-identical at any worker count.
///
/// # Example
///
/// ```
/// use rsn_core::examples::fig2;
/// use rsn_fault::multi::analyze_double_sampled;
/// use rsn_fault::HardeningProfile;
///
/// let report = analyze_double_sampled(&fig2(), HardeningProfile::unhardened(), 7);
/// assert!(report.pairs > 0);
/// assert!(report.worst_segments <= report.avg_segments);
/// ```
pub fn analyze_double_sampled(
    rsn: &Rsn,
    profile: HardeningProfile,
    stride: usize,
) -> DoubleFaultReport {
    let engine = AccessEngine::new(rsn);
    let faults = fault_universe(rsn);
    let effects: Vec<FaultEffect> = faults.iter().map(|f| effect_of(rsn, f, profile)).collect();
    let total_segments = rsn.segments().count();

    // Materialize the deterministic sample: every `stride`-th entry of
    // the cross product, keeping each unordered pair once.
    let n = faults.len();
    let stride = stride.max(1);
    let mut sampled: Vec<(usize, usize)> = Vec::new();
    let mut idx = 0usize;
    while idx < n * n {
        let (i, j) = (idx / n, idx % n);
        idx += stride;
        if j > i {
            sampled.push((i, j));
        }
    }

    let threads = rsn_budget::default_threads().min(16);
    let fracs: Vec<f64> = run_stealing(
        sampled.len(),
        threads,
        LANES,
        || engine.scratch(),
        |scratch, chunk, out| {
            let combined: Vec<FaultEffect> = chunk
                .map(|k| {
                    let (i, j) = sampled[k];
                    combine_effects(&effects[i], &effects[j])
                })
                .collect();
            let faulty: Vec<&FaultEffect> = combined.iter().filter(|e| !e.is_benign()).collect();
            let mut accs = engine.accessibility_batch(&faulty, scratch).iter();
            out.extend(combined.iter().map(|e| {
                if e.is_benign() {
                    1.0
                } else {
                    accs.next()
                        .expect("one verdict per faulty pair")
                        .segment_fraction()
                }
            }));
        },
    );

    let mut worst = 1.0f64;
    let mut sum = 0.0f64;
    let mut worst_pair = None;
    let mut hist = vec![0usize; 9];
    for (&(i, j), &frac) in sampled.iter().zip(&fracs) {
        sum += frac;
        if frac < worst {
            worst = frac;
            worst_pair = Some((faults[i], faults[j]));
        }
        let lost = ((1.0 - frac) * total_segments as f64).round() as usize;
        let bucket = lost.min(hist.len() - 1);
        hist[bucket] += 1;
    }

    let pairs = sampled.len();
    DoubleFaultReport {
        pairs,
        worst_segments: worst,
        avg_segments: if pairs == 0 { 1.0 } else { sum / pairs as f64 },
        worst_pair,
        lost_histogram: hist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::accessibility;
    use rsn_core::examples::fig2;
    use rsn_itc02::parse_soc;
    use rsn_sib::generate;
    use rsn_synth::{synthesize, SynthesisOptions};

    #[test]
    fn combining_with_benign_is_identity_on_corruption() {
        let rsn = fig2();
        let f = fault_universe(&rsn)[0];
        let e = effect_of(&rsn, &f, HardeningProfile::unhardened());
        let combined = combine_effects(&e, &FaultEffect::benign());
        assert_eq!(combined.corrupt_nodes, e.corrupt_nodes);
        assert_eq!(combined.forced_bits, e.forced_bits);
    }

    #[test]
    fn double_fault_never_beats_single_fault() {
        // Adding a second fault cannot increase accessibility.
        let rsn = fig2();
        let profile = HardeningProfile::unhardened();
        let faults = fault_universe(&rsn);
        for i in (0..faults.len()).step_by(5) {
            for j in ((i + 1)..faults.len()).step_by(7) {
                let a = effect_of(&rsn, &faults[i], profile);
                let b = effect_of(&rsn, &faults[j], profile);
                let single = accessibility(&rsn, &a).segment_fraction();
                let combined = combine_effects(&a, &b);
                let double = accessibility(&rsn, &combined).segment_fraction();
                assert!(
                    double <= single + 1e-12,
                    "pair ({}, {}) improved accessibility",
                    faults[i],
                    faults[j]
                );
            }
        }
    }

    #[test]
    fn ft_network_degrades_gracefully_under_double_faults() {
        let soc = parse_soc("SocName t\n1 0 0 0 2 : 4 4\n2 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let ft = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        let orig = analyze_double_sampled(&rsn, HardeningProfile::unhardened(), 11);
        let hard = analyze_double_sampled(&ft.rsn, HardeningProfile::hardened(), 11);
        // The FT network's double-fault average beats the original's.
        assert!(
            hard.avg_segments > orig.avg_segments,
            "ft {} <= orig {}",
            hard.avg_segments,
            orig.avg_segments
        );
        // Most sampled pairs lose only a couple of segments.
        let small_losses: usize = hard.lost_histogram[..3].iter().sum();
        assert!(
            small_losses * 2 > hard.pairs,
            "histogram {:?} of {} pairs",
            hard.lost_histogram,
            hard.pairs
        );
    }

    #[test]
    fn fig2_data_faults_on_both_branches_block_everything() {
        // B and C are each avoidable alone, but corrupting both leaves the
        // mux with no clean input: no segment has a clean path.
        let rsn = fig2();
        let profile = HardeningProfile::unhardened();
        let b = rsn.find("B").expect("B");
        let c = rsn.find("C").expect("C");
        let eb = effect_of(
            &rsn,
            &Fault {
                site: crate::fault::FaultSite::SegmentData(b),
                value: false,
                weight: 2,
            },
            profile,
        );
        let ec = effect_of(
            &rsn,
            &Fault {
                site: crate::fault::FaultSite::SegmentData(c),
                value: false,
                weight: 2,
            },
            profile,
        );
        let engine = AccessEngine::new(&rsn);
        let mut scratch = engine.scratch();
        let acc = engine.accessibility(&combine_effects(&eb, &ec), &mut scratch);
        assert_eq!(acc.accessible_segments, 0);
    }

    #[test]
    fn fig2_double_local_loss_spares_dataflow() {
        // Shadow faults on B and C break only their instrument interfaces:
        // the scan path stays intact, so exactly A and D stay accessible.
        let rsn = fig2();
        let profile = HardeningProfile::unhardened();
        let b = rsn.find("B").expect("B");
        let c = rsn.find("C").expect("C");
        let eb = effect_of(
            &rsn,
            &Fault {
                site: crate::fault::FaultSite::SegmentShadow(b),
                value: false,
                weight: 1,
            },
            profile,
        );
        let ec = effect_of(
            &rsn,
            &Fault {
                site: crate::fault::FaultSite::SegmentShadow(c),
                value: false,
                weight: 1,
            },
            profile,
        );
        let engine = AccessEngine::new(&rsn);
        let mut scratch = engine.scratch();
        let acc = engine.accessibility(&combine_effects(&eb, &ec), &mut scratch);
        assert_eq!(acc.accessible_segments, 2);
        for (name, expect) in [("A", true), ("B", false), ("C", false), ("D", true)] {
            let id = rsn.find(name).expect("exists");
            assert_eq!(acc.accessible[id.index()], expect, "segment {name}");
        }
    }

    #[test]
    fn fig2_dense_double_fault_sweep_golden() {
        let rsn = fig2();
        let report = analyze_double_sampled(&rsn, HardeningProfile::unhardened(), 1);
        let n = fault_universe(&rsn).len();
        assert_eq!(report.pairs, n * (n - 1) / 2);
        // Any pair involving a data fault on A disconnects everything.
        assert_eq!(report.worst_segments, 0.0);
        assert!(report.worst_pair.is_some());
        assert!(report.avg_segments > 0.0 && report.avg_segments < 1.0);
        let hist_total: usize = report.lost_histogram.iter().sum();
        assert_eq!(hist_total, report.pairs);
        // The histogram tail (all 4 segments lost) must be populated: A's
        // data fault alone already loses the full network.
        assert!(report.lost_histogram[4] > 0, "{:?}", report.lost_histogram);
    }

    #[test]
    fn stride_controls_sample_size() {
        let rsn = fig2();
        let dense = analyze_double_sampled(&rsn, HardeningProfile::unhardened(), 1);
        let sparse = analyze_double_sampled(&rsn, HardeningProfile::unhardened(), 13);
        assert!(dense.pairs > sparse.pairs);
        let n = fault_universe(&rsn).len();
        assert_eq!(dense.pairs, n * (n - 1) / 2);
    }
}
